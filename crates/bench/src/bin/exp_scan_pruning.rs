//! **E12** — scan pruning: predicate/projection pushdown vs full scan.
//!
//! The v2 container's chrom index is an offset table and each sample's
//! metadata sit in front of its blocks (docs/storage.md); the ScanSpec
//! derivation pass (`nggc_core::derive_scan_specs`) pushes SELECT region
//! and metadata predicates and projections down into it, so a selective
//! query decodes only the blocks it can touch. This experiment measures,
//! on the E-series ENCODE-shaped synthetic dataset, a chromosome-filtered
//! and a metadata-filtered query, each executed cold two ways:
//!
//! * **full** — every source load decodes the whole container
//!   (pre-pushdown behaviour, still parallel per sample);
//! * **pruned** — `Repository::scan` serves the derived spec from the
//!   container index, through the `RepoProvider` the CLI and server use.
//!
//! Asserted acceptance bars, per query: the pruned run must return the
//! identical result, read strictly fewer container bytes than the dataset
//! holds, and run at least 2× faster cold. With `--json PATH` the
//! results are also written to PATH as a JSON artifact (the committed
//! record is `BENCH_scan_pruning.json` at the repo root); without it
//! nothing is written.
//!
//! Usage: `exp_scan_pruning [scale] [--iters N] [--json PATH]`
//! (default scale 0.005, 5 iterations; best-of-N timings).

use nggc_bench::{human_bytes, map_workload, Table};
use nggc_core::{self as gmql, DatasetProvider};
use nggc_engine::ExecContext;
use nggc_formats::native_v2::{self, ScanOptions, ScanStats};
use nggc_gdm::{Dataset, Metadata};
use nggc_repository::Repository;
use nggc_server::RepoProvider;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn best_of(iters: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..iters).map(|_| f()).min().expect("at least one iteration")
}

/// Full-scan baseline: shared-`Arc` loads with the default
/// `load_pruned` (which falls back to a full load).
struct FullProvider<'a>(&'a Repository);

impl DatasetProvider for FullProvider<'_> {
    fn load(&self, name: &str) -> Result<Dataset, gmql::GmqlError> {
        self.load_shared(name).map(|d| (*d).clone())
    }

    fn load_shared(&self, name: &str) -> Result<Arc<Dataset>, gmql::GmqlError> {
        self.0.load(name).map_err(|e| gmql::GmqlError::runtime(e.to_string()))
    }
}

/// One query measured both ways.
struct Row {
    /// What the query selects on: `chr4`, `cell == 'K562'`.
    what: String,
    scan_spec: String,
    stats: ScanStats,
    full_cold: Duration,
    pruned_cold: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.full_cold.as_secs_f64() / self.pruned_cold.as_secs_f64()
    }

    fn json(&self) -> String {
        format!(
            "{{\"query\": \"{}\", \"scan_spec\": \"{}\", \"bytes_read\": {}, \
             \"bytes_skipped\": {}, \"blocks_read\": {}, \"blocks_skipped\": {}, \
             \"samples_read\": {}, \"samples_skipped\": {}, \"full_cold_us\": {}, \
             \"pruned_cold_us\": {}, \"speedup\": {:.2}}}",
            self.what,
            self.scan_spec,
            self.stats.bytes_read,
            self.stats.bytes_skipped,
            self.stats.blocks_read,
            self.stats.blocks_skipped,
            self.stats.samples_read,
            self.stats.samples_skipped,
            self.full_cold.as_micros(),
            self.pruned_cold.as_micros(),
            self.speedup(),
        )
    }
}

/// Run `query` (one source, output `X`) cold, full and pruned, and check
/// the acceptance bars.
fn measure(root: &Path, dataset: &Dataset, what: &str, query: &str, iters: usize) -> Row {
    println!("query: {query}");
    let ctx = ExecContext::with_workers(
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
    );
    let opts = gmql::ExecOptions::default();

    // Byte accounting from the derived spec itself, via a direct pruned
    // container read (exactly what the repository issues).
    let statements = gmql::parse(query).expect("parse");
    let catalog = Repository::open(root).expect("open repo");
    let plan =
        gmql::LogicalPlan::compile(&statements, &|name| catalog.schema_of(name)).expect("compile");
    let (optimized, _) = gmql::optimize(&plan);
    let specs = gmql::derive_scan_specs(&optimized);
    let spec = specs.values().next().expect("one source");
    let scan_opts = ScanOptions { chroms: spec.chroms.clone(), columns: spec.columns.clone() };
    let container = root.join("datasets").join(&dataset.name).join(native_v2::CONTAINER_FILE);
    let (_, stats) = native_v2::materialize_dataset_v2_from(
        std::fs::File::open(container).expect("open container"),
        &scan_opts,
        &native_v2::Materialize::default(),
        |_: &str, metadata: &Metadata| spec.samples.as_ref().is_none_or(|p| p.eval(metadata)),
    )
    .expect("pruned read");

    // Cold runs: reopen the repository each iteration so the LRU never
    // serves a warm Arc; both sides pay the same open cost outside the
    // timed region.
    let cold = |pruned: bool| {
        let mut summary = (0, 0);
        let best = best_of(iters, || {
            let repo = Repository::open(root).expect("open repo");
            let (full, scan) = (FullProvider(&repo), RepoProvider::new(&repo));
            let provider: &dyn DatasetProvider = if pruned { &scan } else { &full };
            let t0 = Instant::now();
            let out =
                gmql::run_with_provider(query, &|name| repo.schema_of(name), provider, &ctx, &opts)
                    .expect("query");
            let elapsed = t0.elapsed();
            summary = (out["X"].sample_count(), out["X"].region_count());
            elapsed
        });
        (best, summary)
    };
    let (full_cold, full_result) = cold(false);
    let (pruned_cold, pruned_result) = cold(true);
    assert_eq!(full_result, pruned_result, "pruned query must return identical results");

    let row = Row {
        what: what.to_owned(),
        scan_spec: spec.render(Some(dataset.schema.len())),
        stats,
        full_cold,
        pruned_cold,
    };
    println!("scan spec: {}", row.scan_spec);
    println!(
        "bytes: {} read vs {} total ({:.1}% skipped)",
        human_bytes(stats.bytes_read as usize),
        human_bytes(stats.container_bytes as usize),
        100.0 * stats.bytes_skipped as f64 / (stats.bytes_read + stats.bytes_skipped) as f64,
    );
    println!("cold-query speedup pruned over full: {:.2}× (acceptance bar: ≥ 2×)\n", row.speedup());
    assert!(
        stats.bytes_read < stats.container_bytes,
        "pruned read must touch fewer bytes than the container holds"
    );
    assert!(
        row.speedup() >= 2.0,
        "{what}-filtered query must run at least 2× faster pruned (got {:.2}×)",
        row.speedup()
    );
    row
}

fn main() {
    let mut scale = 0.005f64;
    let mut iters = 5usize;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()).unwrap_or(iters),
            "--json" => json_path = args.next(),
            other => {
                if let Ok(s) = other.parse() {
                    scale = s;
                }
            }
        }
    }

    println!("== E12: scan pruning — selective queries, pruned vs full cold scan ==\n");
    let w = map_workload(scale, 42);
    let dataset = w.encode;
    let n_chroms = w.genome.chromosomes().len();
    println!(
        "workload: scale {scale} — {} samples, {} regions, {} chromosomes\n",
        dataset.sample_count(),
        dataset.region_count(),
        n_chroms,
    );

    let root = std::env::temp_dir().join(format!("nggc_exp_scan_pruning_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    {
        let mut repo = Repository::open(&root).expect("open repo");
        repo.save(&dataset).expect("save dataset");
    }

    // Target the chromosome with the most regions — the worst case for
    // pruning (the biggest surviving block), so that bar is conservative.
    let chrom = {
        let mut counts = HashMap::new();
        for s in &dataset.samples {
            for r in s.regions.iter() {
                *counts.entry(r.chrom.to_string()).or_insert(0usize) += 1;
            }
        }
        counts.into_iter().max_by_key(|&(_, n)| n).expect("non-empty dataset").0
    };
    // And the cell line with the fewest samples (first by name among
    // equals): the selective repository lookup of the paper's §4.3.
    let cell = {
        let mut counts = HashMap::new();
        for s in &dataset.samples {
            *counts
                .entry(s.metadata.first("cell").expect("every sample has a cell"))
                .or_insert(0) += 1usize;
        }
        counts.into_iter().min_by_key(|&(cell, n)| (n, cell)).expect("non-empty dataset").0
    };
    let name = &dataset.name;
    let rows = [
        measure(
            &root,
            &dataset,
            &chrom,
            &format!("X = SELECT(region: chr == '{chrom}') {name}; MATERIALIZE X;"),
            iters,
        ),
        measure(
            &root,
            &dataset,
            &format!("cell == '{cell}'"),
            &format!("X = SELECT(cell == '{cell}') {name}; MATERIALIZE X;"),
            iters,
        ),
    ];

    let container_bytes = rows[0].stats.container_bytes;
    let mut table = Table::new(&["path", "cold query", "container bytes read"]);
    table.row(&[
        "full scan".into(),
        format!("{:.2?}", rows[0].full_cold),
        human_bytes(container_bytes as usize),
    ]);
    for row in &rows {
        table.row(&[
            format!("pruned [{}]", row.what),
            format!("{:.2?}", row.pruned_cold),
            format!(
                "{} ({}/{} blocks)",
                human_bytes(row.stats.bytes_read as usize),
                row.stats.blocks_read,
                row.stats.blocks_read + row.stats.blocks_skipped,
            ),
        ]);
    }
    println!("{}", table.render());

    let json = format!(
        "{{\n  \"experiment\": \"scan_pruning\",\n  \"scale\": {scale},\n  \"samples\": {},\n  \
         \"regions\": {},\n  \"chromosomes\": {n_chroms},\n  \"container_bytes\": \
         {container_bytes},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        dataset.sample_count(),
        dataset.region_count(),
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n    "),
    );
    if let Some(path) = json_path {
        std::fs::write(&path, json).expect("write bench json");
        println!("results written to {path}");
    }
    std::fs::remove_dir_all(&root).ok();
}
