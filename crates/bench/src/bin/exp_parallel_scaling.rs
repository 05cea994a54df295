//! **E6** — parallel-framework comparison (§4.2 / paper ref [10]).
//!
//! The paper's companion study evaluates Flink and Spark "on three
//! genomic queries inspired by GMQL". We reproduce the *shape* of that
//! study on the hand-built engine: the same three query archetypes —
//! a MAP (aggregation of experiments over references), a genometric
//! JOIN (distance ≤ d), and a COVER/HISTOGRAM (accumulation) — executed
//! serially and with increasing worker counts.
//!
//! The sweep stops paying at the number of hardware threads, which the
//! run prints: with one, speed-ups degenerate to ≈1 and mostly measure
//! scheduling overhead (EXPERIMENTS.md records a two-thread host).
//!
//! Usage: `exp_parallel_scaling [scale]` (default 0.005).

use nggc_bench::{map_workload, Table};
use nggc_core::GmqlEngine;
use std::time::Instant;

const QUERIES: [(&str, &str); 3] = [
    (
        "Q1-MAP",
        "PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
         R = MAP(n AS COUNT, s AS AVG(signal_value)) PROMS ENCODE;
         MATERIALIZE R;",
    ),
    (
        "Q2-JOIN",
        "PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
         R = JOIN(DLE(20000); output: LEFT) PROMS ENCODE;
         MATERIALIZE R;",
    ),
    (
        "Q3-HISTO",
        "R = HISTOGRAM(2, ANY) ENCODE;
         MATERIALIZE R;",
    ),
];

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.005);
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let worker_counts: Vec<usize> =
        [1usize, 2, 4, 8, 16].into_iter().filter(|&w| w <= (hw * 2).max(2)).collect();

    println!("== E6: three genomic queries, serial vs parallel engine ==");
    println!("(hardware threads: {hw}; workload scale {scale})\n");

    let w = map_workload(scale, 7);
    println!(
        "workload: {} samples, {} peaks, {} reference regions\n",
        w.encode.sample_count(),
        w.encode.region_count(),
        w.annotations.region_count() / 2
    );

    let mut table = Table::new(&["query", "workers", "time", "speedup", "out_regions"]);
    for (name, query) in QUERIES {
        let mut baseline = None;
        for &workers in &worker_counts {
            let mut engine = GmqlEngine::with_workers(workers);
            engine.register(w.encode.clone());
            engine.register(w.annotations.clone());
            // Warm-up + best-of-2 to damp scheduling noise.
            let mut best = f64::INFINITY;
            let mut out_regions = 0;
            for _ in 0..2 {
                let t0 = Instant::now();
                let out = engine.run(query).expect("query runs");
                best = best.min(t0.elapsed().as_secs_f64());
                out_regions = out.values().map(|d| d.region_count()).sum();
            }
            let base = *baseline.get_or_insert(best);
            table.row(&[
                name.to_string(),
                workers.to_string(),
                format!("{:.3}s", best),
                format!("{:.2}x", base / best),
                out_regions.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}
