//! **E10a** — join-strategy ablation.
//!
//! The operators join with a chrom-sweep sort-merge kernel; the ablation
//! measures it against the exhaustive baseline on the same workloads
//! (DESIGN.md §5 item 1). The binned kernel and the NCList index it was
//! once measured against lost at every size and were deleted
//! (EXPERIMENTS.md E10).
//!
//! `cover_sweep` computes COVER's accumulation index over several samples
//! three ways: as the operators did before (clone every region into one
//! pool, stable-sort it, copy out the intervals, sort and sweep the
//! events), with only the intervals pooled (`coverage_segments`, the
//! reference), and as the operators do now — the sorted per-sample runs
//! merged as borrows and swept in that order (`merge_runs` +
//! `coverage_sweep`).
//!
//! `select_window` filters a resident-dataset-shaped input (16 samples,
//! 144 000 regions, 23 chromosomes) by a chromosome (1/23 of the regions)
//! and by a chromosome and a quarter of its coordinates (1/92) two ways:
//! as SELECT did before — the bound predicate put to every region — and
//! as it does now, inside the windows binary search finds; each on a
//! borrowed input (survivors cloned out) and on an owned one (filtered in
//! place; both arms pay the same clone of the input first).
//!
//! `scan_meta_first` reads the same shape cold out of an in-memory v2
//! container, admitting every sample and admitting the 2 of 16 a
//! `cell == 'K562'` SELECT keeps: what a refused sample costs is its
//! index entry, not its blocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nggc_core::{ops, parse, ExecOptions, MetaPredicate, OpCall, Operator, RegionExpr, Statement};
use nggc_engine::{
    coverage_segments, coverage_sweep, merge_runs, overlap_pairs_naive, overlap_pairs_sort_merge,
    ExecContext,
};
use nggc_formats::native_v2::{encode_dataset_v2, scan_dataset_v2_from, ScanOptions};
use nggc_gdm::{Attribute, Chrom, Dataset, GRegion, Metadata, Sample, Schema, Strand, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::hint::black_box;

fn regions(n: usize, span: u64, width: u64, seed: u64) -> Vec<GRegion> {
    let mut rng = StdRng::seed_from_u64(seed);
    // One chromosome handle for all regions, as a decoded or parsed
    // dataset has: comparisons then decide the chromosome by pointer.
    let chrom = Chrom::new("chr1");
    let mut out: Vec<GRegion> = (0..n)
        .map(|_| {
            let l = rng.gen_range(0..span);
            let w = rng.gen_range(50..width);
            GRegion::new(chrom.clone(), l, l + w, Strand::Unstranded)
        })
        .collect();
    out.sort_by(|a, b| a.cmp_coords(b));
    out
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_strategies");
    group.sample_size(10);
    for &n in &[1_000usize, 5_000, 20_000] {
        let left = regions(n / 10, 10_000_000, 2_000, 1);
        let right = regions(n, 10_000_000, 400, 2);
        group.bench_with_input(BenchmarkId::new("sort_merge", n), &n, |b, _| {
            b.iter(|| {
                let mut count = 0usize;
                overlap_pairs_sort_merge(&left, &right, |_, _| count += 1);
                black_box(count)
            })
        });
        // The exhaustive baseline only at sizes where it finishes quickly.
        if n <= 5_000 {
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
                b.iter(|| {
                    let mut count = 0usize;
                    overlap_pairs_naive(&left, &right, |_, _| count += 1);
                    black_box(count)
                })
            });
        }
    }
    group.finish();
}

fn bench_cover_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("cover_sweep");
    group.sample_size(10);
    for &samples in &[2usize, 8, 32] {
        let runs: Vec<Vec<GRegion>> =
            (0..samples).map(|s| regions(4_000, 2_000_000, 400, 10 + s as u64)).collect();
        let slices: Vec<&[GRegion]> = runs.iter().map(Vec::as_slice).collect();
        group.bench_with_input(BenchmarkId::new("pool_clone_sort", samples), &samples, |b, _| {
            b.iter(|| {
                let mut pooled: Vec<GRegion> = runs.iter().flatten().cloned().collect();
                pooled.sort_by(|a, b| a.cmp_coords(b));
                let intervals: Vec<(u64, u64)> = pooled.iter().map(|r| (r.left, r.right)).collect();
                black_box(coverage_segments(&intervals).len())
            })
        });
        group.bench_with_input(BenchmarkId::new("pool_sort_sweep", samples), &samples, |b, _| {
            b.iter(|| {
                let pooled: Vec<(u64, u64)> =
                    runs.iter().flatten().map(|r| (r.left, r.right)).collect();
                black_box(coverage_segments(&pooled).len())
            })
        });
        group.bench_with_input(BenchmarkId::new("run_merge_sweep", samples), &samples, |b, _| {
            b.iter(|| {
                let merged = merge_runs(&slices, GRegion::cmp_coords);
                black_box(coverage_sweep(merged).len())
            })
        });
    }
    group.finish();
}

/// The region predicate of `SELECT(region: <text>)`.
fn region_predicate(text: &str) -> RegionExpr {
    let script = parse(&format!("X = SELECT(region: {text}) D;")).expect("parses");
    match &script[0] {
        Statement::Assign {
            call: OpCall { op: Operator::Select { region: Some(r), .. }, .. },
            ..
        } => r.clone(),
        other => panic!("not a region SELECT: {other:?}"),
    }
}

/// SELECT's region filter before it used the sort order: every region is
/// put to the bound predicate.
fn select_by_scan(region: &RegionExpr, input: Cow<'_, Dataset>) -> usize {
    let schema = input.schema.clone();
    let predicate = region.bind(&schema);
    match input {
        Cow::Borrowed(d) => d
            .samples
            .iter()
            .map(|s| {
                let kept: Vec<GRegion> =
                    s.regions.iter().filter(|r| predicate.eval_bool(r)).cloned().collect();
                black_box(kept).len()
            })
            .sum(),
        Cow::Owned(mut d) => {
            for s in &mut d.samples {
                s.regions.retain(|r| predicate.eval_bool(r));
            }
            black_box(d).region_count()
        }
    }
}

/// Coordinates of [`encode_shaped`] lie below this.
const SPAN: u64 = 1_000_000;

/// The resident-ENCODE shape: 16 samples of 9 000 regions over 23
/// chromosomes, two of the samples `cell == 'K562'`.
fn encode_shaped() -> Dataset {
    let chroms: Vec<Chrom> = (1..=22)
        .map(|i| format!("chr{i}"))
        .chain(["chrX".into()])
        .map(|n| Chrom::new(&n))
        .collect();
    let schema = Schema::new(vec![Attribute::new("signal", ValueType::Float)]).expect("schema");
    let mut dataset = Dataset::new("D", schema);
    let mut rng = StdRng::seed_from_u64(7);
    for s in 0..16 {
        let regions = (0..9_000)
            .map(|i| {
                let left = rng.gen_range(0..SPAN);
                GRegion::new(chroms[i % chroms.len()].clone(), left, left + 400, Strand::Pos)
                    .with_values(vec![rng.gen_range(0.0..100.0f64).into()])
            })
            .collect();
        let cell = if s % 8 == 3 { "K562" } else { "HeLa" };
        let sample = Sample::new(format!("s{s}"), "D")
            .with_regions(regions)
            .with_metadata(Metadata::from_pairs([("cell", cell)]));
        dataset.add_sample(sample).expect("rows");
    }
    dataset
}

fn bench_select_window(c: &mut Criterion) {
    let dataset = encode_shaped();
    let ctx = ExecContext::serial();
    let select_by_window = |region: &RegionExpr, input: Cow<'_, Dataset>| {
        ops::select::select(
            &ctx,
            &ExecOptions::default(),
            &MetaPredicate::True,
            Some(region),
            None,
            input,
            None,
        )
        .expect("selects")
        .region_count()
    };

    let mut group = c.benchmark_group("select_window");
    group.sample_size(10);
    for (selectivity, text) in [
        ("1/23", "chr == 'chr7'".to_owned()),
        ("1/92", format!("chr == 'chr7' AND left >= {} AND right <= {}", SPAN / 4, SPAN / 2 + 400)),
    ] {
        let region = region_predicate(&text);
        assert_eq!(
            select_by_scan(&region, Cow::Borrowed(&dataset)),
            select_by_window(&region, Cow::Borrowed(&dataset)),
        );
        group.bench_function(BenchmarkId::new("scan_borrowed", selectivity), |b| {
            b.iter(|| select_by_scan(&region, Cow::Borrowed(&dataset)))
        });
        group.bench_function(BenchmarkId::new("window_borrowed", selectivity), |b| {
            b.iter(|| select_by_window(&region, Cow::Borrowed(&dataset)))
        });
        group.bench_function(BenchmarkId::new("scan_owned", selectivity), |b| {
            b.iter(|| select_by_scan(&region, Cow::Owned(dataset.clone())))
        });
        group.bench_function(BenchmarkId::new("window_owned", selectivity), |b| {
            b.iter(|| select_by_window(&region, Cow::Owned(dataset.clone())))
        });
    }
    group.finish();
}

fn bench_scan_meta_first(c: &mut Criterion) {
    let bytes = encode_dataset_v2(&encode_shaped()).expect("encodes");
    let k562 = MetaPredicate::eq("cell", "K562");
    let opts = ScanOptions::default();
    let scan = |admit: &dyn Fn(&Metadata) -> bool| {
        let src = std::io::Cursor::new(bytes.as_slice());
        let (dataset, _) = scan_dataset_v2_from(src, &opts, |_: &str, m: &Metadata| admit(m))
            .expect("container reads");
        black_box(dataset).sample_count()
    };
    assert_eq!((scan(&|_| true), scan(&|m| k562.eval(m))), (16, 2));

    let mut group = c.benchmark_group("scan_meta_first");
    group.sample_size(10);
    group.bench_function("admit_all", |b| b.iter(|| scan(&|_| true)));
    group.bench_function("admit_2_of_16", |b| b.iter(|| scan(&|m| k562.eval(m))));
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies,
    bench_cover_sweep,
    bench_select_window,
    bench_scan_meta_first
);
criterion_main!(benches);
