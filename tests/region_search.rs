//! §4.5 feature-based region search, end to end over synthetic data:
//! "the user selects interesting regions, then provides information about
//! the features of interest, then those features are computed, and
//! finally regions are ordered based on their computed features".

use nggc::search::{compute_features, rank_regions, Feature, FeatureSpec};
use nggc::synth::{generate_annotations, generate_encode, AnnotationConfig, EncodeConfig, Genome};

#[test]
fn search_finds_promoter_like_peaks() {
    let genome = Genome::human(0.001);
    let encode = generate_encode(
        &genome,
        &EncodeConfig {
            samples: 1,
            mean_peaks_per_sample: 2_000.0,
            seed: 77,
            ..Default::default()
        },
    );
    let (annotations, _) = generate_annotations(
        &genome,
        &AnnotationConfig { genes: 100, seed: 3, ..Default::default() },
    );
    let candidates = &encode.samples[0];
    let promoters = &annotations.samples[0];

    // Features: peak length, signal, and overlap with annotations.
    let spec = FeatureSpec {
        features: vec![
            Feature::Length,
            Feature::Attribute("signal_value".into()),
            Feature::OverlapCount("ucsc_synthetic".into()),
        ],
    };
    let matrix = compute_features(candidates, &spec, &encode, &[promoters], &|c| genome.len_of(c));
    assert_eq!(matrix.rows.len(), candidates.region_count());

    // Target: a 300bp, high-signal peak sitting on an annotation.
    let ranked = rank_regions(candidates, &matrix, &[300.0, 45.0, 1.0], 25);
    assert_eq!(ranked.len(), 25);
    // The ranking must actually prefer annotation-overlapping peaks:
    // compare the hit rate of the top-25 against the global rate.
    let overlap_rate = |regions: &[&nggc::gdm::GRegion]| -> f64 {
        let hits = regions
            .iter()
            .filter(|r| promoters.chrom_slice(&r.chrom).iter().any(|p| p.overlaps(r)))
            .count();
        hits as f64 / regions.len().max(1) as f64
    };
    let top: Vec<&nggc::gdm::GRegion> = ranked.iter().map(|r| r.region).collect();
    let all: Vec<&nggc::gdm::GRegion> = candidates.regions.iter().collect();
    let top_rate = overlap_rate(&top);
    let base_rate = overlap_rate(&all);
    assert!(
        top_rate > base_rate,
        "feature-guided ranking must enrich for annotation overlap: top {top_rate:.2} vs base {base_rate:.2}"
    );
    // Distances are sorted.
    for w in ranked.windows(2) {
        assert!(w[0].distance <= w[1].distance);
    }
}
