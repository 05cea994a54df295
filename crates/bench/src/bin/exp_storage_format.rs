//! **E11** — native storage formats: v1 text vs v2 binary columnar.
//!
//! The paper's repository layer (§4.3) stores curated datasets on disk;
//! this experiment measures what the v2 binary columnar container
//! (delta+varint coordinates, bitpacked strands, typed value columns —
//! see docs/storage.md) buys over the v1 text format on an ENCODE-shaped
//! synthetic dataset:
//!
//! * save throughput and on-disk footprint,
//! * cold-load throughput (the acceptance bar is v2 ≥ 2× v1),
//! * chromosome-granular partial reads, which v1 cannot do at all
//!   (it must parse every sample file) and v2 serves via its index.
//!
//! Usage: `exp_storage_format [scale] [--iters N] [--metrics-json PATH]`
//! (default scale 0.005, 3 iterations; best-of-N timings are reported).

use nggc_bench::{human_bytes, map_workload, Table};
use nggc_formats::native_v2::{self, Layout};
use std::path::Path;
use std::time::{Duration, Instant};

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                total += dir_bytes(&path);
            } else if let Ok(meta) = entry.metadata() {
                total += meta.len();
            }
        }
    }
    total
}

fn best_of(iters: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..iters).map(|_| f()).min().expect("at least one iteration")
}

fn main() {
    let mut scale = 0.005f64;
    let mut iters = 3usize;
    let mut metrics_json = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()).unwrap_or(iters),
            "--metrics-json" => metrics_json = args.next(),
            other => {
                if let Ok(s) = other.parse() {
                    scale = s;
                }
            }
        }
    }

    println!("== E11: native storage v1 (text) vs v2 (binary columnar) ==\n");
    let w = map_workload(scale, 42);
    let dataset = w.encode;
    println!(
        "workload: scale {scale} — {} samples, {} regions, {} chromosomes",
        dataset.sample_count(),
        dataset.region_count(),
        w.genome.chromosomes().len(),
    );
    println!();

    let root = std::env::temp_dir().join(format!("nggc_exp_storage_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let v1_dir = root.join("v1");
    let v2_dir = root.join("v2");
    std::fs::create_dir_all(&v1_dir).unwrap();
    std::fs::create_dir_all(&v2_dir).unwrap();

    let reg = nggc_obs::global();

    // -- save --------------------------------------------------------
    let v1_save = best_of(iters, || {
        let t0 = Instant::now();
        nggc_formats::write_dataset(&dataset, &v1_dir).expect("v1 save");
        t0.elapsed()
    });
    let v2_save = best_of(iters, || {
        let t0 = Instant::now();
        let bytes = native_v2::encode_dataset_v2(&dataset).expect("v2 encode");
        std::fs::create_dir_all(&v2_dir).expect("v2 dir");
        std::fs::write(v2_dir.join(native_v2::CONTAINER_FILE), bytes).expect("v2 save");
        t0.elapsed()
    });
    let v1_bytes = dir_bytes(&v1_dir);
    let v2_bytes = dir_bytes(&v2_dir);

    // -- cold load (no cache: every iteration reparses from disk) ----
    let v1_load = best_of(iters, || {
        let t0 = Instant::now();
        let d = nggc_formats::read_dataset(&v1_dir).expect("v1 load");
        assert_eq!(d.region_count(), dataset.region_count());
        t0.elapsed()
    });
    let v2_load = best_of(iters, || {
        let t0 = Instant::now();
        // Rows, as the v1 read builds them.
        let (d, ..) = native_v2::read_dataset_auto(&v2_dir, Layout::Rows).expect("v2 load");
        assert_eq!(d.region_count(), dataset.region_count());
        t0.elapsed()
    });

    // Round-trip fidelity: the v2 container must reproduce the dataset
    // exactly (schema, metadata, regions, sample order).
    let (reread, ..) = native_v2::read_dataset_auto(&v2_dir, Layout::Batches).expect("v2 reread");
    assert_eq!(reread.name, dataset.name, "dataset name survives");
    assert_eq!(reread.schema, dataset.schema, "schema survives");
    assert_eq!(reread.sample_count(), dataset.sample_count(), "sample count survives");
    for (a, b) in reread.samples.iter().zip(&dataset.samples) {
        assert_eq!(a.name, b.name, "sample order and names survive");
        assert_eq!(a.regions, b.regions, "regions survive bit-exactly");
        let pairs = |s: &nggc_gdm::Sample| -> Vec<(String, String)> {
            s.metadata.iter().map(|(k, v)| (k.to_owned(), v.to_owned())).collect()
        };
        assert_eq!(pairs(a), pairs(b), "metadata survives");
    }

    // -- chromosome-granular read (v2 only; v1 parses everything) ----
    let chrom = dataset.samples[0].regions[0].chrom.to_string();
    let one_chrom = native_v2::ScanOptions { chroms: Some([chrom.clone()].into()), columns: None };
    let v2_chrom_load = best_of(iters, || {
        let t0 = Instant::now();
        let container = std::fs::File::open(v2_dir.join(native_v2::CONTAINER_FILE)).unwrap();
        native_v2::materialize_dataset_v2_from(
            container,
            &one_chrom,
            &native_v2::Materialize::default(),
            |_: &str, _: &nggc_gdm::Metadata| true,
        )
        .expect("v2 chrom load");
        t0.elapsed()
    });

    for (format, save, load, bytes) in
        [("v1", v1_save, v1_load, v1_bytes), ("v2", v2_save, v2_load, v2_bytes)]
    {
        reg.counter_with("nggc_bench_storage_bytes", &[("format", format)]).add(bytes);
        reg.histogram_with("nggc_bench_storage_save_ns", &[("format", format)])
            .record_duration(save);
        reg.histogram_with("nggc_bench_storage_load_ns", &[("format", format)])
            .record_duration(load);
    }
    reg.histogram_with("nggc_bench_storage_load_ns", &[("format", "v2-chrom")])
        .record_duration(v2_chrom_load);

    let mut table = Table::new(&["format", "save", "cold load", "on-disk", "vs v1 bytes"]);
    table.row(&[
        "v1 text".into(),
        format!("{v1_save:.2?}"),
        format!("{v1_load:.2?}"),
        human_bytes(v1_bytes as usize),
        "1.00×".into(),
    ]);
    table.row(&[
        "v2 binary".into(),
        format!("{v2_save:.2?}"),
        format!("{v2_load:.2?}"),
        human_bytes(v2_bytes as usize),
        format!("{:.2}×", v2_bytes as f64 / v1_bytes as f64),
    ]);
    table.row(&[
        format!("v2 [{chrom}]"),
        "-".into(),
        format!("{v2_chrom_load:.2?}"),
        "-".into(),
        "-".into(),
    ]);
    println!("{}", table.render());

    let speedup = v1_load.as_secs_f64() / v2_load.as_secs_f64();
    println!("round-trip: load(save_v2(d)) == d ✓");
    println!("cold-load speedup v2 over v1: {speedup:.2}× (acceptance bar: ≥ 2×)");
    assert!(speedup >= 2.0, "v2 cold load must be at least 2× faster than v1 (got {speedup:.2}×)");

    if let Some(path) = metrics_json {
        std::fs::write(&path, reg.render_json()).expect("write metrics json");
        println!("metrics registry written to {path}");
    }
    std::fs::remove_dir_all(&root).ok();
}
