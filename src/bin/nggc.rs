//! `nggc` — command-line interface to the genomic data-management stack.
//!
//! The §4.3 vision provides "integrated access to curated data ...
//! through user-friendly search services"; this CLI is the local
//! single-node version: manage a repository of GDM datasets, import
//! external formats, run GMQL queries, search metadata, and export
//! results for genome browsers.
//!
//! ```text
//! nggc [--repo PATH] <command> [args]
//!
//! commands:
//!   init                          initialise the repository
//!   import FILE [DATASET]         import a BED/narrowPeak/GTF/GFF3/VCF/bedGraph/WIG file
//!   import-dir DIR                import every recognised file in a directory
//!   list                          list datasets with statistics
//!   info DATASET                  schema + statistics of one dataset
//!   migrate [DATASET | --all]     rewrite datasets in the binary v2 storage format
//!   delete DATASET                remove a dataset (crash-safe: catalogued first,
//!                                 then moved to trash, then swept)
//!   fsck [--repair] [--deep]      verify repository integrity: catalog/dataset
//!                                 cross-checks, container headers, orphaned temp
//!                                 files, stale cached results; --deep adds a full
//!                                 checksum pass, --repair fixes what it can
//!        [--crashpoints]          print the registered crash-injection sites
//!   query (-e TEXT | FILE)        run a GMQL query; prints output statistics
//!         [--save] [--workers N] [--explain] [--explain-analyze [--json]]
//!         [--head K] [--profile] [--timeout DUR] [--max-memory BYTES]
//!         [--no-cache]            bypass the on-disk query result cache
//!   stats [--json]                dump the metrics registry (Prometheus text or JSON)
//!         [-e TEXT]               optionally run a query first so the registry is warm
//!         [--fed-selftest]        exercise a faulty 3-node federation first so the
//!                                 retry/timeout/breaker metrics carry real values
//!         [--profile]             render the stitched cross-node span tree collected
//!                                 while the selftest (or -e query) ran
//!   search KEYWORDS [--ontology]  search sample metadata
//!   export DATASET FILE.bed       export a dataset's regions as BED
//!   serve [--addr HOST:PORT]      run the concurrent multi-client query service
//!         [--workers N] [--max-inflight N] [--queue N] [--mem-pool SIZE]
//!         [--timeout DUR] [--drain-timeout DUR] [--result-cache SIZE]
//!   client [--addr HOST:PORT]     talk to a running serve instance
//!          (-e TEXT | FILE | --ping | --stats)
//!          [--timeout DUR] [--max-memory SIZE] [--head K] [--no-cache]
//! ```
//!
//! `--profile` renders the span tree and top-k operator table described
//! in `docs/observability.md`. `--explain` prints the optimized plan
//! tree without executing; `--explain-analyze` executes and annotates
//! each plan node with measured rows/bytes/wall time, governor memory
//! charged/released, and the node's own repository reads (cache
//! hits/misses, pruned scan bytes) — `--json` switches to the
//! machine-readable document the bench harness diffs across runs.
//!
//! The slow-query flight recorder (`docs/observability.md`) arms when
//! `NGGC_SLOW_QUERY_MS` (threshold) or `NGGC_FLIGHT_RECORDER` (sink
//! path; stderr when unset) is present in the environment: a query that
//! overruns the threshold or trips the governor dumps one JSON line
//! with its full span trace and per-node stats.
//!
//! `query` runs under a resource governor (`docs/robustness.md`):
//! `--timeout`/`--max-memory` (or the `NGGC_QUERY_TIMEOUT` /
//! `NGGC_QUERY_MAX_MEMORY` environment variables) bound wall time and
//! governed memory, and Ctrl-C cancels the running query cooperatively.
//! A tripped query prints its partial progress and exits with a
//! distinctive code: 124 for a missed deadline (the `timeout(1)`
//! convention), 130 for cancellation (128 + SIGINT), 3 for a rejected
//! memory charge.

use nggc::formats::{write_bed, BedOptions, FileFormat};
use nggc::gdm::{Dataset, Sample};
use nggc::gmql::{parse_bytes, parse_duration, CacheOutcome, GmqlError, GovernorLimits};
use nggc::ontology::mini_umls;
use nggc::repository::Repository;
use nggc::repository::ResultStore;
use nggc::search::{MetadataSearch, RankMode};
use nggc::server::flight::{node_stats, FlightRecorder, NodeStats};
use nggc::server::{Request, Session, Tier};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Exit code when the query deadline fires — the `timeout(1)` convention.
const EXIT_DEADLINE: u8 = 124;
/// Exit code when the query is cancelled (128 + SIGINT).
const EXIT_CANCELLED: u8 = 130;
/// Exit code when the memory budget rejects a charge.
const EXIT_MEMORY: u8 = 3;

/// A CLI failure: the message plus the process exit code it maps to.
/// Plain `String` errors convert to the generic failure code 1; the
/// governor's typed errors carry their distinctive codes.
struct CliError {
    message: String,
    code: u8,
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { message, code: 1 }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError { message: message.to_owned(), code: 1 }
    }
}

impl From<GmqlError> for CliError {
    fn from(e: GmqlError) -> CliError {
        let code = match &e {
            GmqlError::DeadlineExceeded { .. } => EXIT_DEADLINE,
            GmqlError::Cancelled { .. } => EXIT_CANCELLED,
            GmqlError::MemoryExhausted { .. } => EXIT_MEMORY,
            _ => 1,
        };
        CliError { message: e.to_string(), code }
    }
}

/// Cooperative Ctrl-C handling without any signal-handling dependency:
/// a raw `signal(2)` registration whose handler only flips an atomic
/// (the one async-signal-safe thing worth doing), and a watcher thread
/// that polls the flag and cancels the governed query. A second Ctrl-C
/// aborts the process immediately — the escape hatch when cooperative
/// cancellation is not fast enough for the user.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    static PENDING: AtomicBool = AtomicBool::new(false);
    static SEEN: AtomicUsize = AtomicUsize::new(0);

    const SIGINT: i32 = 2;

    // std already links libc; declare the one symbol we need instead of
    // pulling in a crate.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if SEEN.fetch_add(1, Ordering::Relaxed) >= 1 {
            // Second Ctrl-C: the user insists; abort(3) is
            // async-signal-safe.
            std::process::abort();
        }
        PENDING.store(true, Ordering::SeqCst);
    }

    const SIGTERM: i32 = 15;

    /// Install the handler for `signals` and start a watcher thread that
    /// calls `on_signal` once one arrives. The thread is detached; it dies
    /// with the process.
    fn watch_for(signals: &[i32], name: &str, on_signal: impl FnOnce() + Send + 'static) {
        for &sig in signals {
            unsafe {
                signal(sig, on_sigint as *const () as usize);
            }
        }
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || loop {
                if PENDING.load(Ordering::SeqCst) {
                    on_signal();
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            })
            .ok();
    }

    /// Query-mode wiring: Ctrl-C cancels `token`.
    pub fn watch(token: nggc::engine::CancelToken) {
        watch_for(&[SIGINT], "nggc-sigint-watcher", move || token.cancel());
    }

    /// Serve-mode wiring: SIGINT **and** SIGTERM both trigger `on_stop`
    /// once (graceful drain); a second signal aborts the process.
    pub fn watch_shutdown(on_stop: impl FnOnce() + Send + 'static) {
        watch_for(&[SIGINT, SIGTERM], "nggc-shutdown-watcher", on_stop);
    }
}

#[cfg(not(unix))]
mod sigint {
    /// No signal wiring off Unix; Ctrl-C falls back to process death.
    pub fn watch(_token: nggc::engine::CancelToken) {}

    /// No graceful-drain signal off Unix either.
    pub fn watch_shutdown(_on_stop: impl FnOnce() + Send + 'static) {}
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), CliError> {
    // Opt out of metrics collection entirely (docs/observability.md).
    if matches!(std::env::var("NGGC_METRICS").as_deref(), Ok("off" | "0" | "false")) {
        nggc::obs::global().set_enabled(false);
    }
    let mut repo_path = PathBuf::from("nggc-repo");
    if let Some(pos) = args.iter().position(|a| a == "--repo") {
        if pos + 1 >= args.len() {
            return Err("--repo requires a path".into());
        }
        repo_path = PathBuf::from(args.remove(pos + 1));
        args.remove(pos);
    }
    let Some(command) = args.first().cloned() else {
        return Err(usage().into());
    };
    let rest = args[1..].to_vec();
    match command.as_str() {
        "init" => cmd_init(&repo_path).map_err(CliError::from),
        "import" => cmd_import(&repo_path, &rest).map_err(CliError::from),
        "import-dir" => cmd_import_dir(&repo_path, &rest).map_err(CliError::from),
        "list" => cmd_list(&repo_path).map_err(CliError::from),
        "info" => cmd_info(&repo_path, &rest).map_err(CliError::from),
        "migrate" => cmd_migrate(&repo_path, &rest).map_err(CliError::from),
        "delete" => cmd_delete(&repo_path, &rest).map_err(CliError::from),
        "fsck" => cmd_fsck(&repo_path, &rest),
        "query" => cmd_query(&repo_path, &rest),
        "stats" => cmd_stats(&repo_path, &rest).map_err(CliError::from),
        "search" => cmd_search(&repo_path, &rest).map_err(CliError::from),
        "export" => cmd_export(&repo_path, &rest).map_err(CliError::from),
        "serve" => cmd_serve(&repo_path, &rest).map_err(CliError::from),
        "client" => cmd_client(&rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage()).into()),
    }
}

fn usage() -> String {
    "usage: nggc [--repo PATH] <init|import|import-dir|list|info|migrate|delete|fsck|query|stats|search|export|serve|client|help> [args]\n\
     fsck [--repair] [--deep] [--crashpoints]  verify repository integrity (--deep: full checksum pass)\n\
     delete DATASET                            remove a dataset from the repository\n\
     run `nggc help` for details"
        .to_owned()
}

/// The value after the flag at `args[*i]`; moves `*i` onto it.
fn flag_value<'a>(args: &'a [String], i: &mut usize, what: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i).map(String::as_str).ok_or_else(|| format!("{} requires {what}", args[*i - 1]))
}

/// A numeric flag value: an unparsable one is as bad as a missing one.
fn flag_number<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let parsed = flag_value(args, i, "a number")?.parse();
    parsed.map_err(|_| format!("{} requires a number", args[*i - 1]))
}

/// A flag value read by `parse`, whose error is prefixed by the flag.
fn flag_parsed<T>(
    args: &[String],
    i: &mut usize,
    what: &str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    parse(flag_value(args, i, what)?).map_err(|e| format!("{}: {e}", args[*i - 1]))
}

fn open(repo_path: &Path) -> Result<Repository, String> {
    Repository::open(repo_path).map_err(|e| e.to_string())
}

/// [`open`] for a one-shot command that reads each dataset once and
/// exits: no dataset cache, so a save keeps no copy of what it wrote and
/// a query owns the sources it reads, which SELECT and PROJECT then
/// rewrite in place instead of copying.
fn open_one_shot(repo_path: &Path) -> Result<Repository, String> {
    open(repo_path).map(Repository::without_dataset_cache)
}

fn cmd_init(repo_path: &Path) -> Result<(), String> {
    let repo = open(repo_path)?;
    println!("repository initialised at {}", repo.root().display());
    Ok(())
}

fn cmd_import(repo_path: &Path, args: &[String]) -> Result<(), String> {
    let Some(file) = args.first() else {
        return Err("import requires a file path".into());
    };
    let path = Path::new(file);
    let format = FileFormat::from_path(path).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let regions = format.parse(&text).map_err(|e| e.to_string())?;
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "imported".to_owned());
    let dataset_name = args.get(1).cloned().unwrap_or_else(|| stem.to_uppercase());

    let mut repo = open_one_shot(repo_path)?;
    // Append to an existing dataset when schemas agree; create otherwise.
    // Nothing else holds what `load` returns, so it is ours to edit.
    let mut dataset = match repo.load(&dataset_name) {
        Ok(existing) if existing.schema == format.schema() => {
            Arc::try_unwrap(existing).unwrap_or_else(|shared| (*shared).clone())
        }
        _ => Dataset::new(dataset_name.clone(), format.schema()),
    };
    let mut sample = Sample::new(stem, &dataset_name).with_regions(regions);
    sample.metadata.insert("imported_from", path.display().to_string());
    sample.metadata.insert("format", format!("{format:?}"));
    let n = sample.region_count();
    dataset.add_sample(sample).map_err(|e| e.to_string())?;
    repo.save(&dataset).map_err(|e| e.to_string())?;
    println!(
        "imported {n} regions into dataset {dataset_name} ({} samples total)",
        dataset.sample_count()
    );
    Ok(())
}

fn cmd_import_dir(repo_path: &Path, args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else {
        return Err("import-dir requires a directory".into());
    };
    let report = nggc::formats::load_directory(Path::new(dir)).map_err(|e| e.to_string())?;
    let mut repo = open(repo_path)?;
    for ds in &report.datasets {
        repo.save(ds).map_err(|e| e.to_string())?;
        println!("imported {} — {}", ds.name, ds.stats());
    }
    for (p, n) in &report.loaded {
        println!("loaded {} ({n} regions)", p.display());
    }
    for p in &report.skipped {
        println!("skipped {} (unrecognised extension)", p.display());
    }
    for (p, e) in &report.failed {
        eprintln!("failed {}: {e}", p.display());
    }
    if report.datasets.is_empty() {
        return Err("no recognised genomic files found".into());
    }
    Ok(())
}

fn cmd_list(repo_path: &Path) -> Result<(), String> {
    let repo = open(repo_path)?;
    let entries = repo.list();
    if entries.is_empty() {
        println!("(empty repository)");
        return Ok(());
    }
    for e in entries {
        let version =
            repo.storage_version(&e.name).map(|v| v.name()).unwrap_or("missing").to_owned();
        println!("{}  [{}]  {}  :: {}", e.name, version, e.stats, e.schema);
    }
    Ok(())
}

/// `nggc migrate [DATASET | --all]` — rewrite datasets in the binary v2
/// container format. With no argument (or `--all`) every dataset is
/// migrated; already-v2 datasets are recompacted in place.
fn cmd_migrate(repo_path: &Path, args: &[String]) -> Result<(), String> {
    let mut repo = open(repo_path)?;
    let (reports, failed) = match args.first().map(|s| s.as_str()) {
        None | Some("--all") => {
            let sweep = repo.migrate_all();
            (sweep.migrated, sweep.failed)
        }
        Some(name) => (vec![repo.migrate(name).map_err(|e| e.to_string())?], Vec::new()),
    };
    if reports.is_empty() && failed.is_empty() {
        println!("(empty repository — nothing to migrate)");
        return Ok(());
    }
    for r in &reports {
        let pct = if r.bytes_before > 0 {
            100.0 * (1.0 - r.bytes_after as f64 / r.bytes_before as f64)
        } else {
            0.0
        };
        println!(
            "{}  {} -> v2  {} B -> {} B  ({pct:+.1}% saved)",
            r.name,
            r.from.name(),
            r.bytes_before,
            r.bytes_after
        );
    }
    for (name, err) in &failed {
        eprintln!("{name}  FAILED: {err}");
    }
    if !failed.is_empty() {
        return Err(format!(
            "{} of {} datasets failed to migrate (the rest completed)",
            failed.len(),
            reports.len() + failed.len()
        ));
    }
    Ok(())
}

/// `nggc delete DATASET` — crash-safe removal: the catalog forgets the
/// dataset (durably) before any bytes leave the disk, so a crash can
/// strand an orphan directory (repaired by `fsck`/reopen) but never a
/// catalog entry pointing at nothing it can't explain.
fn cmd_delete(repo_path: &Path, args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err("delete requires a dataset name".into());
    };
    let mut repo = open(repo_path)?;
    repo.delete(name).map_err(|e| e.to_string())?;
    println!("deleted {name}");
    Ok(())
}

/// `nggc fsck [--repair] [--deep] [--crashpoints]` — verify (and
/// optionally repair) the repository. Operates on raw paths rather than
/// `Repository::open`, which auto-repairs and would mask damage, and
/// refuses a repository another process holds (a running `serve`, say).
/// Exits 0 when the repository is clean or every issue was repaired, 1
/// when un-repaired issues remain.
fn cmd_fsck(repo_path: &Path, args: &[String]) -> Result<(), CliError> {
    use nggc::repository::{fsck, FsckOptions};
    let mut opts = FsckOptions::default();
    for arg in args {
        match arg.as_str() {
            "--repair" => opts.repair = true,
            "--deep" => opts.deep = true,
            "--crashpoints" => {
                for site in nggc::repository::CRASH_SITES {
                    println!("{site}");
                }
                return Ok(());
            }
            other => return Err(format!("fsck: unexpected argument {other:?}").into()),
        }
    }
    if !repo_path.exists() {
        return Err(format!("fsck: no repository at {}", repo_path.display()).into());
    }
    let report = fsck::fsck(repo_path, opts).map_err(|e| CliError::from(e.to_string()))?;
    let mode = if opts.deep { "deep" } else { "shallow" };
    for issue in &report.issues {
        let fixed = if issue.repaired { " [repaired]" } else { "" };
        println!("{}: {}: {}{fixed}", issue.kind.name(), issue.subject, issue.detail);
    }
    println!(
        "fsck ({mode}): {} datasets ok, {} quarantined, {} issues ({} repaired)",
        report.datasets_ok,
        report.quarantined,
        report.issues.len(),
        report.issues.iter().filter(|i| i.repaired).count()
    );
    let unrepaired = report.unrepaired();
    if unrepaired > 0 {
        return Err(format!("fsck: {unrepaired} unrepaired issue(s)").into());
    }
    Ok(())
}

fn cmd_info(repo_path: &Path, args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err("info requires a dataset name".into());
    };
    let repo = open(repo_path)?;
    let ds = repo.load(name).map_err(|e| e.to_string())?;
    println!("dataset {}", ds.name);
    println!("schema  {}", ds.schema);
    println!("stats   {}", ds.stats());
    for s in &ds.samples {
        println!(
            "  sample {} — {} regions, {} metadata pairs",
            s.name,
            s.region_count(),
            s.metadata.len()
        );
        for (k, v) in s.metadata.iter() {
            println!("    {k}\t{v}");
        }
    }
    Ok(())
}

#[derive(serde::Serialize)]
struct OutputJson {
    name: String,
    samples: usize,
    regions: usize,
}

#[derive(serde::Serialize)]
struct OptimizerJson {
    selects_fused: usize,
    nodes_deduplicated: usize,
}

#[derive(serde::Serialize)]
struct GovernorJson {
    charged_bytes: u64,
    peak_bytes: u64,
}

/// The `--explain-analyze --json` document.
#[derive(serde::Serialize)]
struct AnalyzeJson {
    query: String,
    elapsed_us: u64,
    optimizer: OptimizerJson,
    outputs: Vec<OutputJson>,
    nodes: Vec<NodeStats>,
    governor: GovernorJson,
}

/// The per-node runtime annotation `--explain-analyze` appends to each
/// line of the rendered plan tree.
fn analyze_annotation(m: &nggc::gmql::NodeMetrics) -> String {
    let reads = &m.reads;
    let mut s = format!(
        "(rows {}→{} samples, {}→{} regions, {} B, {:.3} ms, mem +{}/-{} B, cache {}h/{}m",
        m.samples_in,
        m.samples_out,
        m.regions_in,
        m.regions_out,
        m.bytes_out,
        m.wall.as_secs_f64() * 1000.0,
        m.mem_charged,
        m.mem_released,
        reads.cache_hits,
        reads.cache_misses,
    );
    if reads.scan_pruned > 0 {
        s.push_str(&format!(
            ", scan {} B read/{} B skipped ({}/{} blocks)",
            reads.scan_bytes_read,
            reads.scan_bytes_skipped,
            reads.scan_blocks_read,
            reads.scan_blocks_read + reads.scan_blocks_skipped,
        ));
    }
    s.push(')');
    s
}

/// Byte budget of the on-disk CLI result cache (`<repo>/result_cache`).
/// `NGGC_RESULT_CACHE_BYTES` overrides; `0` disables the cache.
fn result_store_bytes() -> u64 {
    std::env::var("NGGC_RESULT_CACHE_BYTES")
        .ok()
        .and_then(|raw| parse_bytes(&raw).ok())
        .unwrap_or(512 << 20)
}

fn cmd_query(repo_path: &Path, args: &[String]) -> Result<(), CliError> {
    let mut text = None;
    let mut save = false;
    let mut explain = false;
    let mut explain_analyze = false;
    let mut json = false;
    let mut analyze = false;
    let mut profile = false;
    let mut no_cache = false;
    let mut workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let mut head = 5usize;
    // Environment defaults, overridable by the flags below.
    let mut limits = GovernorLimits::from_env()?;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-e" => text = Some(flag_value(args, &mut i, "query text")?.to_owned()),
            "--save" => save = true,
            "--explain" => explain = true,
            "--explain-analyze" => explain_analyze = true,
            "--json" => json = true,
            "--analyze" => analyze = true,
            "--profile" => profile = true,
            "--no-cache" => no_cache = true,
            "--workers" => workers = flag_number(args, &mut i)?,
            "--head" => head = flag_number(args, &mut i)?,
            "--timeout" => {
                limits.timeout = Some(flag_parsed(args, &mut i, "a duration", parse_duration)?)
            }
            "--max-memory" => {
                limits.max_memory = Some(flag_parsed(args, &mut i, "a size", parse_bytes)?)
            }
            file => {
                text = Some(std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?);
            }
        }
        i += 1;
    }
    let Some(query) = text else {
        return Err("query requires a file or -e TEXT".into());
    };
    if json && !explain_analyze {
        return Err("query: --json requires --explain-analyze".into());
    }

    let repo = open_one_shot(repo_path)?;
    let ctx = nggc::engine::ExecContext::with_workers(workers);
    let mut session = Session::new(repo, ctx, "cli.query", None);
    if explain {
        println!("{}", session.explain(&query).map_err(|e| e.to_string())?);
        return Ok(());
    }

    // Collect every span emitted during execution — for `--profile`
    // rendering, and for the flight recorder when it is armed. One
    // bounded ring serves both; the whole run shares one trace id.
    let recorder = FlightRecorder::from_env()?;
    let collector = (profile || recorder.is_some()).then(|| {
        let c = std::sync::Arc::new(nggc::obs::MemorySubscriber::default());
        nggc::obs::add_subscriber(c.clone());
        c
    });
    session.flight = recorder.zip(collector.clone());
    let _trace_scope = collector.as_ref().map(|_| nggc::obs::TraceContext::new().enter());

    // One-shot CLI queries share results across processes through an
    // on-disk store under the repository root (docs/caching.md); modes
    // that report per-node execution detail always run for real.
    let use_cache =
        !no_cache && !explain_analyze && !analyze && !profile && result_store_bytes() > 0;
    let store =
        use_cache.then(|| ResultStore::open(repo_path.join("result_cache"), result_store_bytes()));
    let request = Request {
        text: &query,
        tier: store.as_ref().map_or(Tier::None, Tier::Disk),
        // The governor starts at admission; Ctrl-C cancels through its token.
        admit: || Ok::<_, std::convert::Infallible>((Some(limits), ())),
        register: sigint::watch,
    };
    let result = session.run(request);
    // Stop collecting before rendering; everything below is reporting.
    nggc::obs::clear_subscribers();
    let report = result.map_err(|e| e.to_string())?;
    let (elapsed, metrics) = (report.elapsed, &report.metrics);
    let outputs = match &report.outputs {
        Ok(outputs) => outputs,
        Err(error) => {
            if error.is_resource_limit() {
                // Graceful trip: report partial progress, then exit with
                // the error's distinctive code.
                eprintln!("-- query interrupted: partial progress --");
                eprintln!("  elapsed              {elapsed:.2?}");
                eprintln!("  governed memory      {} B charged", report.charged_bytes);
                eprintln!("  governed memory peak {} B", report.peak_bytes);
                let reg = nggc::obs::global();
                for counter in [
                    "nggc_query_cancelled_total",
                    "nggc_query_deadline_exceeded_total",
                    "nggc_query_mem_rejections_total",
                ] {
                    let v = reg.counter(counter).get();
                    if v > 0 {
                        eprintln!("  {counter} {v}");
                    }
                }
            }
            return Err(error.clone().into());
        }
    };
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    if explain_analyze {
        let optimizer = report.optimizer;
        if json {
            let doc = AnalyzeJson {
                query: query.clone(),
                elapsed_us: elapsed.as_micros() as u64,
                optimizer: OptimizerJson {
                    selects_fused: optimizer.selects_fused,
                    nodes_deduplicated: optimizer.nodes_deduplicated,
                },
                outputs: names
                    .iter()
                    .map(|n| OutputJson {
                        name: (*n).clone(),
                        samples: outputs[*n].sample_count(),
                        regions: outputs[*n].region_count(),
                    })
                    .collect(),
                nodes: node_stats(&report.plan, metrics),
                governor: GovernorJson {
                    charged_bytes: report.charged_bytes,
                    peak_bytes: report.peak_bytes,
                },
            };
            println!("{}", serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?);
        } else {
            println!("-- explain analyze ({optimizer:?}) --");
            print!("{}", report.plan.render_tree(&|id| analyze_annotation(&metrics[id])));
            println!("-- total: {elapsed:.2?} --");
        }
    }
    if analyze {
        println!("-- execution metrics --");
        for m in metrics {
            println!("  {m}");
        }
    }
    if let Some(collector) = collector.as_ref().filter(|_| profile) {
        let records = collector.records();
        println!("-- profile: span tree --");
        print!("{}", nggc::obs::render_span_tree(&records));
        println!("-- profile: top operators by self time --");
        print!("{}", nggc::obs::render_top_k(&records, Some("op"), 10));
        if collector.dropped() > 0 {
            println!("-- profile: {} spans dropped (ring full) --", collector.dropped());
        }
    }

    if !json {
        for name in names {
            let ds = &outputs[name];
            println!("== {name} :: {} ==", ds.schema);
            println!("{}", ds.stats());
            for s in ds.samples.iter().take(head) {
                println!("  sample {} ({} regions)", s.name, s.region_count());
                for r in s.regions.each_row().take(head) {
                    println!("    {r}");
                }
                if s.region_count() > head {
                    println!("    … {} more", s.region_count() - head);
                }
            }
            if ds.sample_count() > head {
                println!("  … {} more samples", ds.sample_count() - head);
            }
        }
        if report.outcome == CacheOutcome::Hit {
            println!("({elapsed:.2?}, cached)");
        } else {
            println!("({elapsed:.2?})");
        }
    }

    if save {
        for ds in outputs.values() {
            session.repo.save(ds).map_err(|e| e.to_string())?;
            // Keep stdout machine-readable under --json.
            if json {
                eprintln!("saved {} to repository", ds.name);
            } else {
                println!("saved {} to repository", ds.name);
            }
        }
    }
    leave_to_the_os((report, session.repo));
    Ok(())
}

/// End of a one-shot command: everything is written, and the process is
/// about to exit. Freeing the materialised datasets region by region —
/// a chromosome handle and a value vector each — only to hand the pages
/// back a moment later is work the exit does for nothing, so the values
/// are forgotten instead of dropped. Nothing passed here may own
/// anything but memory.
fn leave_to_the_os<T>(done: T) {
    std::mem::forget(done);
}

/// `nggc stats [--json] [-e QUERY] [--fed-selftest]` — dump the global
/// metrics registry.
///
/// Each CLI invocation is its own process, so the registry only holds
/// what this invocation did; `-e QUERY` runs a query first (against the
/// repository, discarding outputs) so the dump reflects real engine
/// activity. `--fed-selftest` runs an in-process three-node federation
/// with one flaky and one hung peer so the fault-tolerance metrics
/// (`nggc_fed_retries_total`, `nggc_fed_timeouts_total`, breaker
/// gauges) show up in the dump with real values.
fn cmd_stats(repo_path: &Path, args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut query = None;
    let mut fed_selftest = false;
    let mut profile = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--fed-selftest" => fed_selftest = true,
            "--profile" => profile = true,
            "-e" => query = Some(flag_value(args, &mut i, "query text")?.to_owned()),
            other => return Err(format!("stats: unexpected argument {other:?}")),
        }
        i += 1;
    }
    // Under --profile the self-test and any -e query run inside one
    // trace; remote-node spans shipped back by the federation layer are
    // stitched into the same tree (see docs/observability.md).
    let collector = if profile {
        let c = std::sync::Arc::new(nggc::obs::MemorySubscriber::default());
        nggc::obs::add_subscriber(c.clone());
        Some(c)
    } else {
        None
    };
    let _trace_scope = collector.as_ref().map(|_| nggc::obs::TraceContext::new().enter());
    // One-line repo health summary (stderr keeps `--json` stdout
    // machine-readable); only for an existing repository — `stats`
    // must not create one as a side effect, unless it is to query it.
    let repo = if query.is_some() {
        Some(open_one_shot(repo_path)?)
    } else if repo_path.exists() {
        Repository::open(repo_path).ok()
    } else {
        None
    };
    if let Some(repo) = &repo {
        eprintln!("repo health: {}", repo.health());
    }
    if fed_selftest {
        run_fed_selftest()?;
    }
    if let (Some(query), Some(repo)) = (query, repo) {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        let ctx = nggc::engine::ExecContext::with_workers(workers);
        let session = Session::new(repo, ctx, "cli.query", None);
        // No result tier, and ungoverned: every query executes, as is.
        let request = Request {
            text: &query,
            tier: Tier::None,
            admit: || Ok::<_, std::convert::Infallible>((None, ())),
            register: |_| (),
        };
        let report = session.run(request).map_err(|e| e.to_string())?;
        report.outputs.as_ref().map_err(|e| e.to_string())?;
        leave_to_the_os((report, session.repo));
    }
    if let Some(collector) = &collector {
        nggc::obs::clear_subscribers();
        let records = collector.records();
        if !records.is_empty() {
            // stderr keeps `--json` stdout machine-readable.
            eprintln!("-- profile: stitched span tree --");
            eprint!("{}", nggc::obs::render_span_tree(&records));
        }
    }
    let reg = nggc::obs::global();
    if json {
        println!("{}", reg.render_json());
    } else {
        print!("{}", reg.render_prometheus());
    }
    Ok(())
}

/// Exercise the federation fault-tolerance machinery against synthetic
/// in-process peers: "alpha" is healthy and owns the bulk of the data,
/// "flaky" drops its first response (recovers on retry), and "hung"
/// never answers within the deadline. The degraded execution must still
/// complete, and every retry/timeout/breaker transition lands in the
/// global registry for the dump that follows.
fn run_fed_selftest() -> Result<(), String> {
    use nggc::federation::{CallPolicy, ChaosConfig, ChaosNode, Federation, FederationNode};
    use nggc::gdm::{Attribute, GRegion, Metadata, Schema, Strand, ValueType};
    use std::time::Duration;

    fn dataset(name: &str, samples: usize, regions_per_sample: usize) -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new(name, schema);
        for i in 0..samples {
            let regions = (0..regions_per_sample)
                .map(|j| {
                    GRegion::new(
                        "chr1",
                        (j * 500) as u64,
                        (j * 500 + 100) as u64,
                        Strand::Unstranded,
                    )
                    .with_values(vec![0.01.into()])
                })
                .collect();
            ds.add_sample(
                Sample::new(format!("s{i}"), name)
                    .with_regions(regions)
                    .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
            )
            .unwrap();
        }
        ds
    }

    let policy = CallPolicy {
        deadline: Duration::from_millis(30),
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        jitter_seed: 1,
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(200),
    };
    let mut fed = Federation::with_policy(policy);

    let mut alpha = FederationNode::new("alpha", 2);
    alpha.own(dataset("BULK", 4, 40));
    fed.add_node(alpha);

    let mut flaky = FederationNode::new("flaky", 2);
    flaky.own(dataset("SMALL", 1, 4));
    fed.add_node(ChaosNode::new(flaky, ChaosConfig::flaky(1)));

    let mut hung = FederationNode::new("hung", 2);
    hung.own(dataset("ELSEWHERE", 1, 4));
    fed.add_node(ChaosNode::new(hung, ChaosConfig::hung(Duration::from_millis(120))));

    let query = "R = MAP(n AS COUNT) SMALL BULK;\nMATERIALIZE R;";
    let outcome = fed.execute_distributed_degraded(query, 32 * 1024).map_err(|e| e.to_string())?;
    println!("fed-selftest: host={} shipped={:?}", outcome.plan.host, outcome.plan.shipped);
    for h in &outcome.health {
        println!(
            "fed-selftest: node={} status={:?} breaker={:?} retries={}{}",
            h.node,
            h.status,
            h.breaker,
            h.retries,
            h.error.as_deref().map(|e| format!(" error={e:?}")).unwrap_or_default()
        );
    }
    for (name, ds) in &outcome.outputs {
        println!(
            "fed-selftest: output {name}: {} samples, {} regions",
            ds.sample_count(),
            ds.region_count()
        );
    }
    Ok(())
}

fn cmd_search(repo_path: &Path, args: &[String]) -> Result<(), String> {
    let ontology_mode = args.iter().any(|a| a == "--ontology");
    let keywords: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if keywords.is_empty() {
        return Err("search requires keywords".into());
    }
    let query = keywords.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" ");
    let repo = open(repo_path)?;
    let index = repo.meta_index().map_err(|e| e.to_string())?;
    let onto = mini_umls();
    let search = MetadataSearch::new(&index, Some(&onto));
    let mode = if ontology_mode { RankMode::Expanded } else { RankMode::TfIdf };
    let hits = search.search(&query, mode);
    if hits.is_empty() {
        println!("no samples match {query:?}");
        return Ok(());
    }
    for hit in hits.iter().take(20) {
        println!("{:.3}  {}/{}", hit.score, hit.sample.dataset, hit.sample.sample);
    }
    Ok(())
}

fn cmd_export(repo_path: &Path, args: &[String]) -> Result<(), String> {
    let (Some(name), Some(out)) = (args.first(), args.get(1)) else {
        return Err("export requires DATASET and OUTPUT.bed".into());
    };
    let repo = open(repo_path)?;
    let ds = repo.load(name).map_err(|e| e.to_string())?;
    // BED export for genome browsers (§4.3: "visualize results on genome
    // browsers"): coordinates only; attribute values go to the name
    // column rendering.
    let mut text = String::new();
    for s in &ds.samples {
        text.push_str(&format!("track name=\"{}\" description=\"nggc export\"\n", s.name));
        text.push_str(&write_bed(&s.regions, &BedOptions::bed3()));
    }
    std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
    println!("exported {} regions to {out}", ds.region_count());
    Ok(())
}

/// `nggc serve` — run the concurrent multi-client query service
/// (docs/serving.md). Blocks until SIGINT/SIGTERM, then drains
/// in-flight queries and exits 0.
fn cmd_serve(repo_path: &Path, args: &[String]) -> Result<(), String> {
    use nggc::server::{ServeConfig, Server};

    let mut addr = "127.0.0.1:7781".to_owned();
    // Environment arms the flight recorder; flags set the rest.
    let mut config = ServeConfig { flight: FlightRecorder::from_env()?, ..ServeConfig::default() };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = flag_value(args, &mut i, "HOST:PORT")?.to_owned(),
            "--workers" => config.workers = flag_number(args, &mut i)?,
            "--max-inflight" => config.max_inflight = flag_number(args, &mut i)?,
            "--queue" => config.max_queue = flag_number(args, &mut i)?,
            "--mem-pool" => {
                config.mem_pool_bytes = flag_parsed(args, &mut i, "a size", parse_bytes)?
            }
            "--timeout" => {
                config.default_timeout =
                    Some(flag_parsed(args, &mut i, "a duration", parse_duration)?)
            }
            "--drain-timeout" => {
                config.drain_timeout = flag_parsed(args, &mut i, "a duration", parse_duration)?
            }
            "--result-cache" => {
                config.result_cache_bytes =
                    flag_parsed(args, &mut i, "a size (0 disables)", parse_bytes)?
            }
            other => return Err(format!("serve: unknown flag {other:?}")),
        }
        i += 1;
    }
    let repo = open(repo_path)?;
    let datasets = repo.list().len();
    // stderr: the stdout banner below stays machine-parseable (tests
    // and scripts read the bound address from stdout's first line).
    eprintln!("repo health: {}", repo.health());
    let server = Server::bind(&addr, repo, config).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    sigint::watch_shutdown(move || handle.shutdown());
    // Machine-parseable banner: tests and scripts read the bound
    // address (which resolves `:0`) from this line.
    println!("listening on {bound}");
    println!("serving {datasets} datasets from {}", repo_path.display());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())?;
    println!("drained; bye");
    Ok(())
}

/// Exit code for retryable capacity rejections (EX_TEMPFAIL).
const EXIT_RETRYABLE: u8 = 75;

/// `nggc client` — one-shot client for a running `nggc serve`.
fn cmd_client(args: &[String]) -> Result<(), CliError> {
    use nggc::server::{Client, ServeErrorKind, ServerReply};

    let mut addr = "127.0.0.1:7781".to_owned();
    let mut text: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut max_memory: Option<u64> = None;
    let mut head = 5usize;
    let mut ping = false;
    let mut stats = false;
    let mut no_cache = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = flag_value(args, &mut i, "HOST:PORT")?.to_owned(),
            "-e" => text = Some(flag_value(args, &mut i, "query text")?.to_owned()),
            "--timeout" => {
                // The wire carries milliseconds as a u64.
                let millis = |v: &str| {
                    let ms = parse_duration(v)?.as_millis();
                    u64::try_from(ms).map_err(|_| format!("{ms} ms is too long"))
                };
                timeout_ms = Some(flag_parsed(args, &mut i, "a duration", millis)?);
            }
            "--max-memory" => max_memory = Some(flag_parsed(args, &mut i, "a size", parse_bytes)?),
            "--head" => head = flag_number(args, &mut i)?,
            "--ping" => ping = true,
            "--stats" => stats = true,
            "--no-cache" => no_cache = true,
            file => {
                text = Some(std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?);
            }
        }
        i += 1;
    }
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = if ping {
        client.ping()
    } else if stats {
        client.stats()
    } else {
        let Some(query) = text else {
            return Err("client requires -e TEXT, a query file, --ping, or --stats".into());
        };
        client.query_full(&query, timeout_ms, max_memory, head, no_cache)
    }
    .map_err(|e| format!("{addr}: {e}"))?;
    match reply {
        ServerReply::Result { trace_id, elapsed_us, outputs, cached } => {
            for out in &outputs {
                println!("== {} :: {} samples, {} regions ==", out.name, out.samples, out.regions);
                for row in &out.head {
                    println!("  {row}");
                }
            }
            println!(
                "({:.2?}, trace {trace_id:016x}{})",
                std::time::Duration::from_micros(elapsed_us),
                if cached { ", cached" } else { "" }
            );
            Ok(())
        }
        ServerReply::Error { kind, message, retry_after_ms } => {
            let code = match kind {
                ServeErrorKind::DeadlineExceeded => EXIT_DEADLINE,
                ServeErrorKind::Cancelled => EXIT_CANCELLED,
                ServeErrorKind::MemoryExhausted => EXIT_MEMORY,
                ServeErrorKind::Rejected
                | ServeErrorKind::PoolExhausted
                | ServeErrorKind::ShuttingDown => EXIT_RETRYABLE,
                _ => 1,
            };
            let mut message = format!("{kind:?}: {message}");
            if let Some(ms) = retry_after_ms {
                message.push_str(&format!(" (retry after {ms} ms)"));
            }
            Err(CliError { message, code })
        }
        ServerReply::Pong { inflight, queued } => {
            println!("pong: {inflight} in flight, {queued} queued");
            Ok(())
        }
        ServerReply::Stats(s) => {
            println!("inflight      {}", s.inflight);
            println!("queued        {}", s.queued);
            println!("requests      {}", s.requests);
            println!("rejected      {}", s.rejected);
            println!("mem_reserved  {} / {} B", s.mem_reserved, s.mem_capacity);
            println!("result_cache_hits          {}", s.result_cache_hits);
            println!("result_cache_misses        {}", s.result_cache_misses);
            println!("result_cache_coalesced     {}", s.result_cache_coalesced);
            println!("result_cache_evictions     {}", s.result_cache_evictions);
            println!("result_cache_invalidations {}", s.result_cache_invalidations);
            println!("result_cache_entries       {}", s.result_cache_entries);
            println!(
                "result_cache_bytes         {} / {} B",
                s.result_cache_bytes, s.result_cache_capacity
            );
            println!("select_regions_scanned     {}", s.select_regions_scanned);
            Ok(())
        }
    }
}
