//! Per-operator benchmarks plus **E10c** — the metadata-first ablation —
//! and the inline-against-pooled sweep that sizes the engine's pool floor.
//!
//! Measures the GMQL operators the three E6 queries exercise (MAP,
//! genometric JOIN, COVER/HISTOGRAM) at a fixed workload, and SELECT with
//! metadata-first evaluation on vs off (DESIGN.md §5 item 3: the GMQL
//! optimizer's decision to evaluate metadata predicates before any
//! region scan).

use criterion::{criterion_group, criterion_main, Criterion};
use nggc_bench::map_workload;
use nggc_core::ops::{cover::cover, join::join, map::map};
use nggc_core::{
    infer_schema, AccBound, Aggregate, CoverVariant, ExecOptions, GenometricClause, GmqlEngine,
    JoinOutput, Operator,
};
use nggc_engine::ExecContext;
use nggc_synth::{generate_annotations, generate_encode, AnnotationConfig, EncodeConfig, Genome};
use std::hint::black_box;

fn engine(meta_first: bool) -> GmqlEngine {
    let w = map_workload(0.002, 5);
    let mut engine =
        GmqlEngine::with_workers(2).with_options(ExecOptions { meta_first, optimize: true });
    engine.register(w.encode);
    engine.register(w.annotations);
    engine
}

fn bench_operators(c: &mut Criterion) {
    let eng = engine(true);
    let mut group = c.benchmark_group("operators");
    group.sample_size(10);
    group.bench_function("map_count", |b| {
        b.iter(|| {
            black_box(
                eng.run(
                    "P = SELECT(region: annType == 'promoter') ANNOTATIONS;
                     R = MAP(n AS COUNT) P ENCODE; MATERIALIZE R;",
                )
                .expect("runs"),
            )
        })
    });
    group.bench_function("join_dle20k", |b| {
        b.iter(|| {
            black_box(
                eng.run(
                    "P = SELECT(region: annType == 'promoter') ANNOTATIONS;
                     R = JOIN(DLE(20000); output: LEFT) P ENCODE; MATERIALIZE R;",
                )
                .expect("runs"),
            )
        })
    });
    group.bench_function("histogram", |b| {
        b.iter(|| black_box(eng.run("R = HISTOGRAM(2, ANY) ENCODE; MATERIALIZE R;").expect("runs")))
    });
    group.bench_function("cover_2_any", |b| {
        b.iter(|| black_box(eng.run("R = COVER(2, ANY) ENCODE; MATERIALIZE R;").expect("runs")))
    });
    group.finish();
}

fn bench_meta_first(c: &mut Criterion) {
    // A selective metadata predicate: only a fraction of samples match,
    // so metadata-first skips most region scans.
    const QUERY: &str = "
        R = SELECT(cell == 'K562'; region: p_value < 0.0001) ENCODE;
        MATERIALIZE R;
    ";
    let mut group = c.benchmark_group("select_meta_first");
    group.sample_size(10);
    let on = engine(true);
    group.bench_function("meta_first_on", |b| b.iter(|| black_box(on.run(QUERY).expect("runs"))));
    let off = engine(false);
    group.bench_function("meta_first_off", |b| b.iter(|| black_box(off.run(QUERY).expect("runs"))));
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    // A diamond query whose two branches are identical: CSE halves the
    // SELECT work; SELECT-fusion collapses the stacked filters.
    const QUERY: &str = "
        A = SELECT(dataType == 'ChipSeq') ENCODE;
        B = SELECT(region: p_value < 0.5) A;
        C = SELECT(dataType == 'ChipSeq') ENCODE;
        D = SELECT(region: p_value < 0.5) C;
        M = MAP(n AS COUNT) B D;
        MATERIALIZE M;
    ";
    let mut group = c.benchmark_group("optimizer");
    group.sample_size(10);
    let on = engine(true); // optimize: true by default
    group.bench_function("optimize_on", |b| b.iter(|| black_box(on.run(QUERY).expect("runs"))));
    let w = map_workload(0.002, 5);
    let mut off_engine =
        GmqlEngine::with_workers(2).with_options(ExecOptions { meta_first: true, optimize: false });
    off_engine.register(w.encode);
    off_engine.register(w.annotations);
    group.bench_function("optimize_off", |b| {
        b.iter(|| black_box(off_engine.run(QUERY).expect("runs")))
    });
    group.finish();
}

/// The measurement behind `nggc_engine::POOL_MIN_REGIONS`: MAP and JOIN
/// of one promoter sample against 8 peak samples, and COVER of 8 peak
/// samples, over 24 chromosomes, at five input sizes, inline (width 1) and at
/// the full width of a 2-worker pool. The operators are called directly,
/// so the floor the executor applies does not decide for them.
fn bench_pool_floor(c: &mut Criterion) {
    let genome = Genome::human(0.05);
    let pooled = ExecContext::with_workers(2);
    let inline = pooled.clone().with_width(1);
    let mut group = c.benchmark_group("pool_floor");
    group.sample_size(50);
    for regions in [1024, 2048, 4096, 8192, 16384] {
        // About `regions` peaks over 8 samples for COVER, half of them and
        // as many promoters for MAP and JOIN.
        let peaks = |per_sample: usize| {
            generate_encode(
                &genome,
                &EncodeConfig {
                    samples: 8,
                    mean_peaks_per_sample: per_sample as f64,
                    chipseq_fraction: 1.0,
                    ..Default::default()
                },
            )
        };
        let (encode, all_peaks) = (peaks(regions / 16), peaks(regions / 8));
        let (proms, _) = generate_annotations(
            &genome,
            &AnnotationConfig { genes: regions / 4, ..Default::default() },
        );
        let inputs = encode.region_count() + proms.region_count();
        let aggs = vec![("n".to_owned(), Aggregate::count())];
        let map_op = Operator::Map { aggs: aggs.clone(), joinby: vec![] };
        let map_schema = infer_schema(&map_op, &[&proms.schema, &encode.schema]).unwrap();
        let clauses = [GenometricClause::DistLessEq(20_000)];
        let join_op =
            Operator::Join { clauses: clauses.to_vec(), output: JoinOutput::Left, joinby: vec![] };
        let join_schema = infer_schema(&join_op, &[&proms.schema, &encode.schema]).unwrap();
        let (two, any) = (AccBound::Value(2), AccBound::Any);
        let cover_op = Operator::Cover {
            variant: CoverVariant::Cover,
            min_acc: two,
            max_acc: any,
            groupby: vec![],
            aggs: vec![],
        };
        let cover_schema = infer_schema(&cover_op, &[&all_peaks.schema]).unwrap();
        for (width, ctx) in [("inline", &inline), ("pooled", &pooled)] {
            group.bench_function(format!("map/{inputs}/{width}"), |b| {
                b.iter(|| black_box(map(ctx, &aggs, &[], &proms, &encode, &map_schema).unwrap()))
            });
            group.bench_function(format!("join/{inputs}/{width}"), |b| {
                b.iter(|| {
                    let out =
                        join(ctx, &clauses, JoinOutput::Left, &[], &proms, &encode, &join_schema);
                    black_box(out.unwrap())
                })
            });
            let cover_inputs = all_peaks.region_count();
            group.bench_function(format!("cover/{cover_inputs}/{width}"), |b| {
                b.iter(|| {
                    let out = cover(
                        ctx,
                        CoverVariant::Cover,
                        two,
                        any,
                        &[],
                        &[],
                        &all_peaks,
                        &cover_schema,
                    );
                    black_box(out.unwrap())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_operators, bench_meta_first, bench_optimizer, bench_pool_floor);
criterion_main!(benches);
