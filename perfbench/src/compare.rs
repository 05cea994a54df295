//! `--compare A.json B.json`: A is the baseline set of runs, B the
//! candidate. One row per (end-to-end metric, workload) with each side's
//! median and quartiles, the metric's bound, and a verdict. Also the check
//! that `BENCHMARK.json` names what `metrics.rs` defines.

use crate::metrics::{per_layer_table, Better, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::Kind;
use crate::E2eResult;
use std::collections::BTreeMap;
use std::path::Path;

/// The runs of an `e2e.json`, workload name → result, one map per run.
#[derive(serde::Deserialize)]
struct Runs {
    runs: Vec<BTreeMap<String, E2eResult>>,
}

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs: Runs = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if runs.runs.is_empty() {
        return Err(format!("{}: holds no runs", path.display()));
    }
    Ok(runs)
}

/// Verdict on one row. `worse_by` is the share of A's median by which B's
/// median is worse (negative when better); `spread` the wider of the two
/// sides' interquartile ranges as a share of their medians.
pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> &'static str {
    if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else if worse_by < -bound {
        "improved"
    } else {
        "unchanged"
    }
}

/// Print the comparison; `Ok(true)` when any row regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<24} {:>12} {:>12} {:>12} {:>12} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse", "bound"
    );
    for kind in Kind::ALL {
        let of = |side: &Runs, pick: &dyn Fn(&E2eResult) -> Option<f64>| -> Vec<f64> {
            side.runs.iter().filter_map(|run| run.get(kind.name())).filter_map(pick).collect()
        };
        for m in &END_TO_END {
            let pick = |r: &E2eResult| r.metrics.get(m.name).copied();
            let (va, vb) = (of(&a, &pick), of(&b, &pick));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} / {}: missing from one side", kind.name(), m.name));
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let worse_by = match m.better {
                Better::Lower => (qb[1] - qa[1]) / qa[1],
                Better::Higher => (qa[1] - qb[1]) / qa[1],
            };
            let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]);
            let v = verdict(worse_by, spread, m.bound);
            regressed |= v == "regressed";
            println!(
                "{:<16} {:<24} {:>12.4} {:>12} {:>12.4} {:>12} {:>+6.1}% {:>6.1}%  {v}",
                kind.name(),
                m.name,
                qa[1],
                format!("±{:.1}%", 100.0 * (qa[2] - qa[0]) / qa[1] / 2.0),
                qb[1],
                format!("±{:.1}%", 100.0 * (qb[2] - qb[0]) / qb[1] / 2.0),
                100.0 * worse_by,
                100.0 * m.bound,
            );
        }
        // failed_share: bound +0 absolute.
        let share = |r: &E2eResult| Some(r.failed as f64 / r.attempted.max(1) as f64);
        let worst = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
        let (fa, fb) = (worst(of(&a, &share)), worst(of(&b, &share)));
        let v = if fb > fa { "regressed" } else { "unchanged" };
        regressed |= fb > fa;
        println!(
            "{:<16} {:<24} {:>12.4} {:>12} {:>12.4} {:>12} {:>7} {:>7}  {v}",
            kind.name(),
            "failed_share",
            fa,
            "",
            fb,
            "",
            "",
            "+0"
        );
    }
    Ok(regressed)
}

/// The names, units, directions and bounds in `BENCHMARK.json` must be the
/// ones defined in `metrics.rs` and `workloads.rs`.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    #[derive(serde::Deserialize)]
    struct Named {
        name: String,
        unit: Option<String>,
        better: Option<String>,
        bound: Option<f64>,
    }
    #[derive(serde::Deserialize)]
    struct Benchmark {
        run_seconds: f64,
        workloads: Vec<Named>,
        end_to_end: Vec<Named>,
        per_layer: Vec<Named>,
    }
    let file: Benchmark = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mismatch = |what: &str| Err(format!("BENCHMARK.json disagrees with the runner on {what}"));
    if file.run_seconds != crate::RUN_SECONDS {
        return mismatch("run_seconds");
    }
    let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
    if names != Kind::ALL.map(Kind::name) {
        return mismatch("the workloads");
    }
    let e2e_ok = file.end_to_end.len() == END_TO_END.len()
        && file.end_to_end.iter().zip(&END_TO_END).all(|(f, m)| {
            f.name == m.name
                && f.unit.as_deref() == Some(m.unit)
                && f.better.as_deref() == Some(m.better.name())
                && f.bound == Some(m.bound)
        });
    if !e2e_ok {
        return mismatch("the end-to-end metrics");
    }
    let table = per_layer_table();
    let layers_ok = file.per_layer.len() == table.len()
        && file.per_layer.iter().zip(&table).all(|(f, (name, unit, better))| {
            &f.name == name
                && f.unit.as_deref() == Some(*unit)
                && f.better.as_deref() == Some(better.name())
        });
    if !layers_ok {
        return mismatch("the per-layer metrics");
    }
    Ok(())
}
