//! Copy-on-write region buffers through the executor, counted. The
//! engine's registered datasets stand in for resident ones: a source
//! node shares their buffers, as it shares a repository cache entry's.
//! One test, so that no other test in this process moves the global
//! counters it reads.

use nggc_core::{ExecOptions, GmqlEngine};
use nggc_engine::ExecContext;
use nggc_gdm::{Attribute, Dataset, GRegion, Metadata, Sample, Schema, Strand, Value, ValueType};

fn counter(name: &str) -> u64 {
    nggc_obs::global().counter(name).get()
}

/// Run `query` and return its outputs with what it added to the
/// shared-samples and cloned-regions counters.
fn run(engine: &GmqlEngine, query: &str) -> (usize, u64, u64) {
    let (shared, cloned) =
        (counter("nggc_exec_samples_shared_total"), counter("nggc_exec_regions_cloned_total"));
    let out = engine.run(query).unwrap();
    (
        out.values().map(Dataset::region_count).sum(),
        counter("nggc_exec_samples_shared_total") - shared,
        counter("nggc_exec_regions_cloned_total") - cloned,
    )
}

/// Four ChIP-seq samples (two of cell `x`) and one DNase sample, each of
/// ten regions whose `signal_value` is `10 * i`.
fn encode() -> Dataset {
    let schema = Schema::new(vec![Attribute::new("signal_value", ValueType::Float)]).unwrap();
    let mut ds = Dataset::new("ENCODE", schema);
    for (i, (cell, data_type)) in
        [("x", "ChipSeq"), ("x", "ChipSeq"), ("y", "ChipSeq"), ("y", "ChipSeq"), ("y", "DnaseSeq")]
            .into_iter()
            .enumerate()
    {
        let regions = (0..10u64)
            .map(|r| {
                GRegion::new("chr1", r * 100 + i as u64, r * 100 + 50, Strand::Pos)
                    .with_values(vec![Value::Float(10.0 * r as f64)])
            })
            .collect();
        let metadata = Metadata::from_pairs([("cell", cell), ("dataType", data_type)]);
        let sample =
            Sample::new(format!("s{i}"), "ENCODE").with_regions(regions).with_metadata(metadata);
        ds.add_sample(sample).unwrap();
    }
    ds
}

/// Two promoters and one enhancer.
fn annotations() -> Dataset {
    let schema = Schema::new(vec![Attribute::new("annType", ValueType::Str)]).unwrap();
    let mut ds = Dataset::new("ANNOTATIONS", schema);
    let regions = [(0, 120, "promoter"), (300, 420, "enhancer"), (600, 720, "promoter")]
        .into_iter()
        .map(|(l, r, t)| GRegion::new("chr1", l, r, Strand::Pos).with_values(vec![t.into()]))
        .collect();
    ds.add_sample(Sample::new("ucsc", "ANNOTATIONS").with_regions(regions)).unwrap();
    ds
}

#[test]
fn shared_buffers_are_counted_and_never_written() {
    let mut engine = GmqlEngine::with_workers(2)
        .with_options(ExecOptions { optimize: false, ..Default::default() });
    engine.register(encode());
    engine.register(annotations());

    // The paper's §2 shape: a metadata SELECT shares the four ChIP-seq
    // samples' buffers; the region SELECT copies its two survivors.
    let map = "PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS; \
               PEAKS = SELECT(dataType == 'ChipSeq') ENCODE; \
               R = MAP(peak_count AS COUNT) PROMS PEAKS; MATERIALIZE R;";
    assert_eq!(run(&engine, map), (8, 4, 2));

    // A SELECT owning a dataset whose buffers a resident one still holds
    // copies only its survivors: A shares cell x's two samples, B copies
    // the regions of signal above 40 (five of ten in each).
    let chained = "A = SELECT(cell == 'x') ENCODE; \
                   B = SELECT(region: signal_value > 40) A; MATERIALIZE B;";
    assert_eq!(run(&engine, chained), (10, 2, 10));

    // Held alone, the buffers are filtered in place: nothing is shared
    // or copied.
    let (shared, cloned) =
        (counter("nggc_exec_samples_shared_total"), counter("nggc_exec_regions_cloned_total"));
    let provider = |_: &str| -> Result<Dataset, nggc_core::GmqlError> { Ok(encode()) };
    let out = nggc_core::run_with_provider(
        "B = SELECT(region: signal_value > 40) ENCODE; MATERIALIZE B;",
        &|_| Some(encode().schema),
        &provider,
        &ExecContext::with_workers(2),
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out["B"].region_count(), 25);
    assert_eq!(counter("nggc_exec_samples_shared_total"), shared);
    assert_eq!(counter("nggc_exec_regions_cloned_total"), cloned);

    // No query wrote into a buffer it shared.
    let fresh = encode();
    let resident = engine.dataset("ENCODE").unwrap();
    for (r, f) in resident.samples.iter().zip(&fresh.samples) {
        assert_eq!(*r.regions, *f.regions, "{}", r.name);
    }
}
