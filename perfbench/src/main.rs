//! `perfbench` — the nggc benchmark: four workloads driven from outside
//! against the real `nggc` binary with tracing off (end-to-end metrics),
//! and a separate traced in-process replay of the same seeded operations
//! (per-layer metrics). See `README.md` for every name and definition.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! perfbench [--seed N] [--seconds S] [--runs R] [--out DIR] all four workloads, both kinds
//! perfbench --quick                                          the same in under 20 s, not for claims
//! perfbench --compare A.json B.json                          verdict per (metric, workload)
//! perfbench --self-test                                      arithmetic and table checks
//! ```
//!
//! Run it from the root of an nggc checkout.

mod compare;
mod data;
mod harness;
mod metrics;
mod probes;
mod replay;
mod stats;
mod trace;
mod workloads;

use data::Scale;
use harness::Env;
use metrics::{TemplateCoverage, TemplateStat, END_TO_END};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Kind;

/// Seconds one run measures; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: f64 = 15.0;
/// Set-ups per end-to-end run, each followed by an equal share of the
/// measured seconds; `setup_s` is their median.
const SETUP_REPS: usize = 6;
/// Share of a traced run's seconds spent on its untraced window; the rest
/// is the traced replay.
const TRACE_WINDOW_SHARE: f64 = 1.0 / 3.0;

/// What was run, where, and on what: printed with every result so a number
/// can be traced back to its conditions.
#[derive(Debug, Clone, serde::Serialize)]
struct Record {
    nproc: usize,
    load_average_at_start: String,
    git_rev: String,
    seed: u64,
    scale: Scale,
    /// Marked on `--quick` runs: smaller inputs, shorter windows.
    not_for_claims: bool,
    window_seconds: f64,
    setup_repetitions: usize,
}

fn record(env: &Env, seed: u64, scale: Scale, quick: bool, seconds: f64, reps: usize) -> Record {
    let git_rev = std::process::Command::new("git")
        .current_dir(&env.root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    Record {
        nproc: env.nproc,
        load_average_at_start: std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        git_rev,
        seed,
        scale,
        not_for_claims: quick,
        window_seconds: seconds,
        setup_repetitions: reps,
    }
}

/// One workload's end-to-end result.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct E2eResult {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Hex FNV-1a of the generated operation sequence (same seed, same hash).
    pub op_hash: String,
    /// Per template: samples, median latency, share answered from a cache.
    pub templates: Vec<TemplateStat>,
}

/// One workload's per-layer result.
#[derive(Debug, Clone, serde::Serialize)]
struct LayerResult {
    metrics: BTreeMap<String, f64>,
    /// Replayed operations, and how many of them matched the oracle.
    replayed: usize,
    replayed_ok: usize,
    /// Share of layer self time per span, largest first.
    self_time_shares: Vec<(String, f64)>,
    /// Per template: end-to-end median of the untraced window of this run
    /// against the replayed operation.
    templates: Vec<TemplateCoverage>,
}

/// `e2e.json`: what `--compare` reads.
#[derive(serde::Serialize)]
struct E2eFile {
    record: Record,
    runs: Vec<BTreeMap<String, E2eResult>>,
}

/// `layers.json`.
#[derive(serde::Serialize)]
struct LayersFile {
    record: Record,
    workloads: BTreeMap<String, LayerResult>,
}

struct Settings {
    seed: u64,
    seconds: f64,
    scale: Scale,
    setup_reps: usize,
}

/// End-to-end run of one workload: `setup_reps` times over, set the
/// workload up afresh, drive it for an equal share of the seconds, tear it
/// down. A served workload so meets several server processes in one run,
/// which averages out what differs from one process to the next (address
/// space layout, where its threads land); `setup_s` is the median set-up.
fn run_e2e(env: &Env, kind: Kind, s: &Settings) -> Result<E2eResult, String> {
    let plan = workloads::plan(kind, s.seed, &s.scale)?;
    let mut setups = Vec::new();
    let mut windows = Vec::new();
    let mut stored = Vec::new();
    let mut resume = vec![0; plan.sequences.len()];
    for slot in 0..s.setup_reps {
        let (mut live, took) = harness::set_up(env, &plan, slot)?;
        setups.push(took.as_secs_f64());
        let window = harness::measure(env, &plan, &live, s.seconds / s.setup_reps as f64, &resume);
        live.stop_server();
        let bytes = harness::stored_bytes_per_region(&live.repo);
        live.tear_down();
        let window = window?;
        // Round-robin workloads start every window on a cycle boundary;
        // serve_mixed carries on through its drawn sequence.
        if kind == Kind::ServeMixed {
            for (at, timed) in resume.iter_mut().zip(&window.timed) {
                *at += timed.len();
            }
        }
        windows.push(window);
        stored.push(bytes?);
    }
    let e2e = metrics::end_to_end(&plan, &windows, stats::median(&stored));
    let mut values: BTreeMap<String, f64> =
        e2e.values.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
    values.insert("setup_s".to_owned(), stats::median(&setups));
    Ok(E2eResult {
        metrics: values,
        attempted: e2e.attempted,
        failed: e2e.failed,
        op_hash: format!("{:016x}", plan.op_hash),
        templates: e2e.templates,
    })
}

/// Traced run of one workload: one set-up, a short untraced window (the
/// client-side serve numbers and the latency the trace is compared with),
/// then the traced replay. Spans go to `spans_to` when given.
fn run_traced(
    env: &Env,
    kind: Kind,
    s: &Settings,
    spans_to: Option<PathBuf>,
) -> Result<(LayerResult, usize, usize), String> {
    let plan = workloads::plan(kind, s.seed, &s.scale)?;
    let (mut live, _) = harness::set_up(env, &plan, 0)?;
    let window = harness::measure(
        env,
        &plan,
        &live,
        s.seconds * TRACE_WINDOW_SHARE,
        &vec![0; plan.sequences.len()],
    );
    live.stop_server();
    let replayed = window.and_then(|w| {
        let r = replay::replay(env, &plan, &live, s.seconds * (1.0 - TRACE_WINDOW_SHARE))?;
        Ok((w, r))
    });
    live.tear_down();
    let (window, replayed) = replayed?;
    if let Some(path) = spans_to {
        replay::write_spans(&path, &replayed.spans)?;
    }
    let window_e2e = metrics::end_to_end(&plan, std::slice::from_ref(&window), 1.0);
    let replayed_ok = replayed.ops.iter().filter(|o| o.ok).count();
    let result = LayerResult {
        metrics: metrics::per_layer(&plan, &replayed, &window),
        replayed: replayed.ops.len(),
        replayed_ok,
        self_time_shares: metrics::self_time_shares(&replayed),
        templates: metrics::template_coverage(&plan, &replayed, &window),
    };
    let attempted = window_e2e.attempted + replayed.ops.len();
    let failed = window_e2e.failed + (replayed.ops.len() - replayed_ok);
    Ok((result, attempted, failed))
}

/// The one-line JSON object the benchmark contract asks for.
fn contract_line(
    attempted: usize,
    failed: usize,
    metrics: &BTreeMap<String, f64>,
    unit_of: &dyn Fn(&str) -> &'static str,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn e2e_unit(name: &str) -> &'static str {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit).unwrap_or("")
}

fn print_e2e(kind: Kind, r: &E2eResult) {
    eprintln!("== {} — end to end (tracing off) ==", kind.name());
    for m in &END_TO_END {
        let note = if m.name == "latency_p95_ms" {
            format!("  (mean of the windows' p95; {} samples in all)", r.attempted)
        } else {
            String::new()
        };
        eprintln!("  {:<26} {:>14.4} {}{note}", m.name, r.metrics[m.name], m.unit);
    }
    eprintln!(
        "  {:<26} {:>14.4} ratio  ({} of {} operations failed)",
        "failed_share",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for t in &r.templates {
        eprintln!(
            "    template {:<20} {:>6} samples  median {:>10.3} ms  cached {:>5.1} %",
            t.name,
            t.samples,
            t.median_ms,
            t.cached_share * 100.0
        );
    }
}

fn print_layers(kind: Kind, r: &LayerResult) {
    eprintln!(
        "== {} — per layer (traced replay of {} operations, {} correct) ==",
        kind.name(),
        r.replayed,
        r.replayed_ok
    );
    for (name, unit, _) in metrics::per_layer_table() {
        eprintln!("  {:<36} {:>14.4} {unit}", name, r.metrics[&name]);
    }
    let unaccounted = r.metrics["trace.coverage"] < 0.8;
    eprintln!(
        "  layer self time{}:",
        if unaccounted { " (coverage < 0.8: these rows are UNACCOUNTED)" } else { "" }
    );
    for (name, share) in r.self_time_shares.iter().take(8) {
        eprintln!("    {name:<34} {:>6.1} %", share * 100.0);
    }
    for t in &r.templates {
        eprintln!(
            "    template {:<20} end to end {:>9.3} ms  replayed {:>9.3} ms  in layers {:>9.3} ms",
            t.name, t.end_to_end_ms, t.replayed_ms, t.in_layers_ms
        );
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn self_test() -> Result<(), String> {
    stats::self_test()?;
    trace::self_test()?;
    // Same seed, same operations; another seed, other operations.
    let hash = |seed| workloads::plan(Kind::ServeMixed, seed, &Scale::QUICK).map(|p| p.op_hash);
    if hash(7)? != hash(7)? || hash(7)? == hash(8)? {
        return Err("the operation sequence must be a function of the seed".into());
    }
    // BENCHMARK.json, when present, lists exactly the names defined here.
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        compare::check_benchmark_json(&text)?;
    }
    Ok(())
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let mut workload: Option<String> = None;
    let mut seed = 42u64;
    let mut seconds: Option<f64> = None;
    let mut trace: Option<u8> = None;
    let mut quick = false;
    let mut runs = 1usize;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(parse("--workload", it.next())?),
            "--seed" => seed = parse("--seed", it.next())?,
            "--seconds" => seconds = Some(parse("--seconds", it.next())?),
            "--trace" => trace = Some(parse("--trace", it.next())?),
            "--runs" => runs = parse("--runs", it.next())?,
            "--out" => out_dir = Some(parse("--out", it.next())?),
            "--quick" => quick = true,
            "--spawner" => {
                // Internal: the helper that starts the measured CLI processes
                // (see `harness::Spawner`).
                harness::spawner_main()?;
                return Ok(ExitCode::SUCCESS);
            }
            "--replay-op" => {
                // Internal: replay one CLI operation in this fresh process
                // (see `replay::CliJob`) and print what was recorded.
                let job: String = parse("--replay-op", it.next())?;
                let job: replay::CliJob = serde_json::from_str(&job).map_err(|e| e.to_string())?;
                println!("{}", serde_json::to_string(&job.run()?).map_err(|e| e.to_string())?);
                return Ok(ExitCode::SUCCESS);
            }
            "--self-test" => {
                self_test()?;
                println!("self-test passed");
                return Ok(ExitCode::SUCCESS);
            }
            "--compare" => {
                let a: PathBuf = parse("--compare", it.next())?;
                let b: PathBuf = parse("--compare", it.next())?;
                let regressed = compare::compare(&a, &b)?;
                return Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(if quick { 1.2 } else { RUN_SECONDS });
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let settings = Settings {
        seed,
        seconds,
        scale: if quick { Scale::QUICK } else { Scale::FULL },
        setup_reps: if quick { 1 } else { SETUP_REPS },
    };
    let env = Env::prepare()?;
    let rec = record(&env, seed, settings.scale, quick, seconds, settings.setup_reps);
    eprintln!("run record: {}", serde_json::to_string(&rec).map_err(|e| e.to_string())?);

    // One workload, one kind of run, one JSON line: the contract mode.
    if let Some(name) = workload {
        let kind = Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let line = match trace.unwrap_or(0) {
            0 => {
                let r = run_e2e(&env, kind, &settings)?;
                print_e2e(kind, &r);
                contract_line(r.attempted, r.failed, &r.metrics, &e2e_unit)
            }
            _ => {
                let spans = out_dir.map(|d| d.join(format!("spans_{}.json", kind.name())));
                let (r, attempted, failed) = run_traced(&env, kind, &settings, spans)?;
                print_layers(kind, &r);
                let table = metrics::per_layer_table();
                let unit = |name: &str| {
                    table.iter().find(|(n, _, _)| n == name).map(|(_, u, _)| *u).unwrap_or("")
                };
                contract_line(attempted, failed, &r.metrics, &unit)
            }
        };
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }

    // Everything: all four workloads end to end (`runs` times each), then
    // traced; tables on stderr, JSON in the output directory.
    let out_dir = out_dir.unwrap_or_else(|| env.target.join("perfbench-out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut any_failed = false;
    let mut e2e_runs: Vec<BTreeMap<String, E2eResult>> = Vec::new();
    for _ in 0..runs.max(1) {
        let mut by_workload = BTreeMap::new();
        for kind in Kind::ALL {
            let r = run_e2e(&env, kind, &settings)?;
            print_e2e(kind, &r);
            any_failed |= r.failed > 0;
            by_workload.insert(kind.name().to_owned(), r);
        }
        e2e_runs.push(by_workload);
    }
    let mut layers = BTreeMap::new();
    for kind in Kind::ALL {
        let spans = out_dir.join(format!("spans_{}.json", kind.name()));
        let (r, _, failed) = run_traced(&env, kind, &settings, Some(spans))?;
        print_layers(kind, &r);
        any_failed |= failed > 0;
        layers.insert(kind.name().to_owned(), r);
    }
    let write = |name: &str, text: Result<String, serde_json::Error>| -> Result<(), String> {
        let path = out_dir.join(name);
        std::fs::write(&path, text.map_err(|e| e.to_string())? + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    };
    write(
        "e2e.json",
        serde_json::to_string_pretty(&E2eFile { record: rec.clone(), runs: e2e_runs }),
    )?;
    write(
        "layers.json",
        serde_json::to_string_pretty(&LayersFile { record: rec, workloads: layers }),
    )?;
    if any_failed {
        return Err("some operations failed or returned a wrong result".into());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
