//! §4.3 custom queries: every built-in template instantiates into
//! runnable GMQL and produces sensible results over synthetic data.

use nggc::gmql::GmqlEngine;
use nggc::search::CustomQueryCatalog;
use nggc::synth::{generate_annotations, generate_encode, AnnotationConfig, EncodeConfig, Genome};
use std::collections::BTreeMap;

fn vals(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

fn engine() -> GmqlEngine {
    let genome = Genome::human(0.001);
    let mut engine = GmqlEngine::with_workers(2);
    engine.register(generate_encode(
        &genome,
        &EncodeConfig { samples: 6, mean_peaks_per_sample: 250.0, seed: 21, ..Default::default() },
    ));
    let (annotations, _) = generate_annotations(
        &genome,
        &AnnotationConfig { genes: 60, seed: 8, ..Default::default() },
    );
    engine.register(annotations);
    engine
}

#[test]
fn every_builtin_template_parses() {
    let catalog = CustomQueryCatalog::builtin();
    for template in catalog.list() {
        let params: BTreeMap<String, String> = template
            .params
            .iter()
            .map(|p| (p.name.clone(), p.default.clone().unwrap_or_else(|| "CTCF".to_owned())))
            .collect();
        let text = template.instantiate(&params).unwrap();
        nggc::gmql::parse(&text)
            .unwrap_or_else(|e| panic!("template {} must parse: {e}\n{text}", template.name));
    }
}

#[test]
fn peaks_over_promoters_template_runs() {
    let catalog = CustomQueryCatalog::builtin();
    let q = catalog.instantiate("peaks_over_promoters", &vals(&[])).unwrap();
    let out = engine().run(&q).unwrap();
    let result = &out["RESULT"];
    assert!(result.sample_count() >= 1);
    assert!(result.schema.get("peak_count").is_some());
}

#[test]
fn consensus_peaks_template_runs() {
    let catalog = CustomQueryCatalog::builtin();
    // Use an antibody that exists in the generated vocabulary.
    let q = catalog
        .instantiate("consensus_peaks", &vals(&[("antibody", "CTCF"), ("min_replicas", "1")]))
        .unwrap();
    let out = engine().run(&q).unwrap();
    assert!(out.contains_key("CONS"));
}

#[test]
fn distal_peaks_excludes_overlaps() {
    let catalog = CustomQueryCatalog::builtin();
    let q = catalog.instantiate("distal_peaks", &vals(&[("distance", "5000")])).unwrap();
    let engine = engine();
    let out = engine.run(&q).unwrap();
    let near = &out["NEAR"];
    // The DGE(1)+DLE(5000) conjunction is evaluated per pair: every
    // emitted peak must have SOME promoter at distance in [1, 5000]
    // (it may still overlap a different promoter).
    let proms = engine
        .run(
            "REFS = SELECT(region: annType == 'promoter') ANNOTATIONS;
             MATERIALIZE REFS;",
        )
        .unwrap();
    let prom_regions: Vec<nggc::gdm::GRegion> = proms["REFS"].samples[0].regions.to_vec();
    let mut emitted = 0;
    for s in &near.samples {
        for r in s.regions.iter() {
            emitted += 1;
            let qualifies = prom_regions
                .iter()
                .any(|p| p.distance(r).map(|d| (1..=5000).contains(&d)).unwrap_or(false));
            assert!(
                qualifies,
                "peak {}:{}-{} has no promoter at distance 1..=5000",
                r.chrom, r.left, r.right
            );
        }
    }
    assert!(emitted > 0, "the workload must produce distal pairs");
}
