//! PROJECT with a computed attribute over a batch-backed input — the E5
//! pipeline's `ENH = PROJECT(esig AS left.signal) ENH0` over a JOIN's
//! columnar output — evaluates the attribute on the columns and builds no
//! row, and gives what the same PROJECT over rows gives.
//!
//! `nggc_gdm::rows_built` is process-wide, so this file is a test binary
//! of its own with one test in it.

use nggc::gdm::{rows_built, Dataset};
use nggc::gmql::GmqlEngine;
use nggc::synth::{generate_ctcf_study, CtcfStudyConfig, Genome};

const ENH0: &str = "K27   = SELECT(antibody == 'H3K27ac') MARKS;
                    K4ME1 = SELECT(antibody == 'H3K4me1') MARKS;
                    ENH0  = JOIN(DLE(-1); output: INT) K27 K4ME1;";
const ENH: &str = "ENH   = PROJECT(esig AS left.signal) ENH0;";

#[test]
fn a_computed_attribute_over_columns_builds_no_row() {
    let study = generate_ctcf_study(&Genome::human(0.02), &CtcfStudyConfig::default());
    let mut engine = GmqlEngine::with_workers(2);
    engine.register(study.marks);

    // ENH0 read by PROJECT alone (its batches handed over), and read by
    // PROJECT while it is an output too (its batches shared).
    let before = rows_built();
    let alone = engine.run(&format!("{ENH0} {ENH} MATERIALIZE ENH;")).unwrap();
    let both = engine.run(&format!("{ENH0} {ENH} MATERIALIZE ENH; MATERIALIZE ENH0;")).unwrap();
    assert_eq!(rows_built(), before, "PROJECT built rows of a columnar input");

    let enh = &alone["ENH"];
    assert!(enh.region_count() > 0);
    assert!(enh.samples.iter().all(|s| s.regions.batch().is_some()), "the output is columns");
    assert_eq!(enh.schema.position("esig"), Some(enh.schema.len() - 1));

    // The same PROJECT over ENH0 as rows.
    let mut rows = Dataset::clone(&both["ENH0"]);
    for s in &mut rows.samples {
        s.regions = s.regions.to_vec().into();
    }
    let mut engine = GmqlEngine::with_workers(2);
    engine.register(rows);
    let want = &engine.run(&format!("{ENH} MATERIALIZE ENH;")).unwrap()["ENH"];
    for got in [enh, &both["ENH"]] {
        assert_eq!(got.schema, want.schema);
        assert_eq!(got.sample_count(), want.sample_count());
        for (g, w) in got.samples.iter().zip(&want.samples) {
            assert_eq!(g.regions, w.regions, "sample {}", w.name);
        }
    }
}
