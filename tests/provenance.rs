//! Provenance tracing across deep pipelines — "knowing why resulting
//! regions were produced is quite relevant" (paper §2). These tests pin
//! the lineage contract: every result sample can name its source samples,
//! the operator chain that produced it, and the parameters each operator
//! ran with.

use nggc::gdm::*;
use nggc::gmql::GmqlEngine;

fn world() -> GmqlEngine {
    let mut engine = GmqlEngine::with_workers(2);
    let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
    let mut peaks = Dataset::new("PEAKS", schema);
    for (name, cell) in [("rep1", "HeLa"), ("rep2", "HeLa"), ("other", "K562")] {
        peaks
            .add_sample(
                Sample::new(name, "PEAKS")
                    .with_regions(vec![
                        GRegion::new("chr1", 0, 100, Strand::Unstranded)
                            .with_values(vec![5.0.into()]),
                        GRegion::new("chr1", 200, 300, Strand::Unstranded)
                            .with_values(vec![2.0.into()]),
                    ])
                    .with_metadata(Metadata::from_pairs([("cell", cell)])),
            )
            .unwrap();
    }
    engine.register(peaks);

    let mut genes = Dataset::new("GENES", Schema::empty());
    genes
        .add_sample(Sample::new("ann", "GENES").with_regions(vec![GRegion::new(
            "chr1",
            50,
            250,
            Strand::Unstranded,
        )]))
        .unwrap();
    engine.register(genes);
    engine
}

#[test]
fn deep_pipeline_lineage_names_all_contributors() {
    let engine = world();
    let out = engine
        .run(
            "HELA  = SELECT(cell == 'HeLa') PEAKS;
             CONS  = COVER(2, ANY) HELA;
             M     = MAP(n AS COUNT) GENES CONS;
             MATERIALIZE M;",
        )
        .unwrap();
    let m = &out["M"];
    assert_eq!(m.sample_count(), 1);
    let p = &m.samples[0].provenance;

    // Operator chain from the result back through the first input.
    assert_eq!(p.operator_chain()[0], "MAP");
    // Sources: the annotation sample and BOTH HeLa replicas — but not the
    // K562 sample removed by SELECT.
    let sources = p.sources();
    assert!(sources.contains(&("GENES".to_string(), "ann".to_string())));
    assert!(sources.contains(&("PEAKS".to_string(), "rep1".to_string())));
    assert!(sources.contains(&("PEAKS".to_string(), "rep2".to_string())));
    assert!(
        !sources.contains(&("PEAKS".to_string(), "other".to_string())),
        "samples filtered out by SELECT never contribute"
    );

    // The rendered tree names every operator with its parameters.
    let text = p.to_string();
    for needle in ["MAP", "COVER", "SELECT", "cell == 'HeLa'", "source GENES/ann"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    assert!(p.depth() >= 3, "MAP <- COVER <- SELECT <- source: depth {}", p.depth());
}

#[test]
fn union_lineage_keeps_both_sides() {
    let engine = world();
    let out = engine.run("U = UNION() GENES PEAKS; MATERIALIZE U;").unwrap();
    let u = &out["U"];
    assert_eq!(u.sample_count(), 4);
    // Each output sample records its side and original source.
    let left = u.sample_by_name("left_ann").unwrap();
    assert_eq!(left.provenance.sources(), vec![("GENES".to_string(), "ann".to_string())]);
    let right = u.sample_by_name("right_rep2").unwrap();
    assert_eq!(right.provenance.sources(), vec![("PEAKS".to_string(), "rep2".to_string())]);
}

#[test]
fn difference_lineage_records_negatives() {
    let engine = world();
    let out = engine.run("D = DIFFERENCE() PEAKS GENES; MATERIALIZE D;").unwrap();
    let s = &out["D"].samples[0];
    let sources = s.provenance.sources();
    // The negative (GENES) sample participates in the lineage: it
    // explains why regions are ABSENT.
    assert!(sources.contains(&("GENES".to_string(), "ann".to_string())));
}
