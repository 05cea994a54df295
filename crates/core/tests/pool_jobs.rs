//! How many pool jobs an operator runs, read from the engine pool's own
//! job counter: each operator fans out once — over its sample pairs or
//! groups, or over one pair's or one group's chromosomes — and one over
//! fewer regions than `nggc_engine::POOL_MIN_REGIONS` runs none.

use nggc_core::GmqlEngine;
use nggc_engine::POOL_MIN_REGIONS;
use nggc_gdm::{Attribute, Dataset, GRegion, Sample, Schema, Strand, Value, ValueType};

const CHROMS: usize = 24;

/// `samples` samples of `per_chrom` regions on each of 24 chromosomes.
fn dataset(name: &str, samples: usize, per_chrom: u64) -> Dataset {
    let schema = Schema::new(vec![Attribute::new("signal", ValueType::Float)]).unwrap();
    let mut ds = Dataset::new(name, schema);
    for s in 0..samples {
        let regions = (1..=CHROMS)
            .flat_map(|c| {
                (0..per_chrom).map(move |i| {
                    let left = i * 1_000 + s as u64 * 100;
                    GRegion::new(&*format!("chr{c}"), left, left + 600, Strand::Unstranded)
                        .with_values(vec![Value::Float(i as f64)])
                })
            })
            .collect();
        ds.add_sample(Sample::new(format!("{name}{s}"), name).with_regions(regions)).unwrap();
    }
    ds
}

/// Jobs the engine's pool ran for `query`.
fn jobs(engine: &GmqlEngine, query: &str) -> u64 {
    let before = engine.context().pool().stats().jobs_executed;
    engine.run(query).unwrap();
    engine.context().pool().stats().jobs_executed - before
}

#[test]
fn each_operator_fans_out_once_and_a_small_one_runs_inline() {
    let mut engine = GmqlEngine::with_workers(2);
    // Eight samples of 24 × 30 regions, and one reference sample: 8 pairs,
    // 6 480 regions in, above the floor.
    let (d, r) = (dataset("D", 8, 30), dataset("R", 1, 30));
    assert!(d.region_count() + r.region_count() >= POOL_MIN_REGIONS);
    engine.register(d);
    engine.register(r);
    // One sample of 24 × 200 regions: one pair with R, above the floor.
    engine.register(dataset("S", 1, 200));
    // Two small ones: 2 × 24 × 2 regions each.
    engine.register(dataset("A", 2, 2));
    engine.register(dataset("B", 2, 2));

    for query in [
        "X = MAP(n AS COUNT) R D; MATERIALIZE X;",
        "X = JOIN(DLE(500); output: LEFT) R D; MATERIALIZE X;",
    ] {
        // One job per pair at most, and none for a pair's chromosomes
        // (those alone would be 8 × 24).
        let n = jobs(&engine, query);
        assert!((1..=8).contains(&n), "{query}: {n} jobs for 8 pairs");
    }
    // One pair: its chromosomes are the jobs, one each.
    assert_eq!(jobs(&engine, "X = MAP(n AS COUNT) R S; MATERIALIZE X;"), CHROMS as u64);
    // A one-group COVER fans out over its chromosomes, one job each.
    assert_eq!(jobs(&engine, "X = COVER(2, ANY) D; MATERIALIZE X;"), CHROMS as u64);
    // Below the floor: no pool traffic at all.
    assert_eq!(jobs(&engine, "X = JOIN(DLE(500); output: LEFT) A B; MATERIALIZE X;"), 0);
    assert_eq!(jobs(&engine, "X = COVER(1, ANY) A; MATERIALIZE X;"), 0);
}
