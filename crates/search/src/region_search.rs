//! Feature-based region search.
//!
//! §4.5: "Best-matching regions with user-specified features should be
//! provided ... the user selects interesting regions, then provides
//! information about the features of interest, then those features are
//! computed, and finally regions are ordered based on their computed
//! features." This module implements the compute-then-rank loop: a
//! [`FeatureSpec`] names the features, [`compute_features`] evaluates
//! them for every candidate region, and [`rank_regions`] orders
//! candidates by similarity to a target feature vector (z-normalised
//! Euclidean distance).

use nggc_gdm::{Dataset, GRegion, Sample};

/// A feature computable for a region.
#[derive(Debug, Clone, PartialEq)]
pub enum Feature {
    /// Region length in bp.
    Length,
    /// A numeric schema attribute's value.
    Attribute(String),
    /// Number of regions of a reference sample overlapping the region
    /// (e.g. "how many known enhancers does it touch").
    OverlapCount(String),
    /// GC-proxy: region midpoint position within its chromosome,
    /// normalised to [0,1] (a stand-in for position-correlated features).
    RelativePosition,
}

/// A list of features to compute, with optional reference samples for
/// [`Feature::OverlapCount`].
#[derive(Debug, Clone, Default)]
pub struct FeatureSpec {
    /// The features, in output order.
    pub features: Vec<Feature>,
}

/// Computed feature matrix: one row (vector) per candidate region.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    /// Feature values, row-major.
    pub rows: Vec<Vec<f64>>,
    /// Per-column mean (for z-normalisation).
    pub means: Vec<f64>,
    /// Per-column standard deviation.
    pub stds: Vec<f64>,
}

/// Compute features for every region of `candidates`. References for
/// `OverlapCount(name)` are looked up in `references` by sample name;
/// missing references yield 0 counts. `chrom_lens` supplies chromosome
/// lengths for `RelativePosition` (regions beyond the table get 0).
pub fn compute_features(
    candidates: &Sample,
    spec: &FeatureSpec,
    dataset: &Dataset,
    references: &[&Sample],
    chrom_lens: &dyn Fn(&nggc_gdm::Chrom) -> Option<u64>,
) -> FeatureMatrix {
    let n = candidates.regions.len();
    let mut rows = vec![Vec::with_capacity(spec.features.len()); n];
    for feature in &spec.features {
        match feature {
            Feature::Length => {
                for (row, r) in rows.iter_mut().zip(candidates.regions.iter()) {
                    row.push(r.len() as f64);
                }
            }
            Feature::Attribute(name) => {
                let pos = dataset.schema.position(name);
                for (row, r) in rows.iter_mut().zip(candidates.regions.iter()) {
                    let v =
                        pos.and_then(|p| r.values.get(p)).and_then(|v| v.as_f64()).unwrap_or(0.0);
                    row.push(v);
                }
            }
            Feature::OverlapCount(ref_name) => {
                let reference = references.iter().find(|s| &s.name == ref_name);
                for (row, r) in rows.iter_mut().zip(candidates.regions.iter()) {
                    let count = reference
                        .map(|s| s.chrom_slice(&r.chrom).iter().filter(|x| x.overlaps(r)).count())
                        .unwrap_or(0);
                    row.push(count as f64);
                }
            }
            Feature::RelativePosition => {
                for (row, r) in rows.iter_mut().zip(candidates.regions.iter()) {
                    let rel = chrom_lens(&r.chrom)
                        .filter(|&l| l > 0)
                        .map(|l| r.midpoint() as f64 / l as f64)
                        .unwrap_or(0.0);
                    row.push(rel);
                }
            }
        }
    }
    let cols = spec.features.len();
    let mut means = vec![0.0; cols];
    let mut stds = vec![0.0; cols];
    if n > 0 {
        for c in 0..cols {
            let mean = rows.iter().map(|r| r[c]).sum::<f64>() / n as f64;
            let var = rows.iter().map(|r| (r[c] - mean).powi(2)).sum::<f64>() / n as f64;
            means[c] = mean;
            stds[c] = var.sqrt();
        }
    }
    FeatureMatrix { rows, means, stds }
}

/// A ranked region.
#[derive(Debug, Clone)]
pub struct RankedRegion<'a> {
    /// The candidate region.
    pub region: &'a GRegion,
    /// Index in the candidate sample.
    pub index: usize,
    /// Distance to the target (smaller = better).
    pub distance: f64,
}

/// Rank candidate regions by z-normalised Euclidean distance to `target`
/// (one value per feature, in spec order). Returns the top `k`.
pub fn rank_regions<'a>(
    candidates: &'a Sample,
    matrix: &FeatureMatrix,
    target: &[f64],
    k: usize,
) -> Vec<RankedRegion<'a>> {
    assert_eq!(target.len(), matrix.means.len(), "target vector must match the feature spec arity");
    let mut ranked: Vec<RankedRegion<'a>> = matrix
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let d2: f64 = row
                .iter()
                .zip(target)
                .zip(matrix.means.iter().zip(&matrix.stds))
                .map(|((x, t), (m, s))| {
                    let denom = if *s > 1e-12 { *s } else { 1.0 };
                    let zx = (x - m) / denom;
                    let zt = (t - m) / denom;
                    (zx - zt).powi(2)
                })
                .sum();
            RankedRegion { region: &candidates.regions[i], index: i, distance: d2.sqrt() }
        })
        .collect();
    ranked.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.index.cmp(&b.index)));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, Schema, Strand, Value, ValueType};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("signal", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("D", schema);
        ds.add_sample(Sample::new("cands", "D").with_regions(vec![
            GRegion::new("chr1", 0, 100, Strand::Unstranded).with_values(vec![Value::Float(1.0)]),
            GRegion::new("chr1", 1000, 1500, Strand::Unstranded)
                .with_values(vec![Value::Float(10.0)]),
            GRegion::new("chr1", 5000, 5100, Strand::Unstranded)
                .with_values(vec![Value::Float(9.0)]),
        ]))
        .unwrap();
        ds
    }

    #[test]
    fn features_computed_in_order() {
        let ds = dataset();
        let enh = Sample::new("enhancers", "R").with_regions(vec![GRegion::new(
            "chr1",
            1100,
            1200,
            Strand::Unstranded,
        )]);
        let spec = FeatureSpec {
            features: vec![
                Feature::Length,
                Feature::Attribute("signal".into()),
                Feature::OverlapCount("enhancers".into()),
            ],
        };
        let m = compute_features(&ds.samples[0], &spec, &ds, &[&enh], &|_| Some(1_000_000));
        assert_eq!(m.rows[0], vec![100.0, 1.0, 0.0]);
        assert_eq!(m.rows[1], vec![500.0, 10.0, 1.0]);
        assert_eq!(m.rows[2], vec![100.0, 9.0, 0.0]);
    }

    #[test]
    fn ranking_prefers_similar_regions() {
        let ds = dataset();
        let spec =
            FeatureSpec { features: vec![Feature::Length, Feature::Attribute("signal".into())] };
        let m = compute_features(&ds.samples[0], &spec, &ds, &[], &|_| None);
        // Target: short, strong-signal region → index 2 is the best match.
        let ranked = rank_regions(&ds.samples[0], &m, &[100.0, 9.0], 2);
        assert_eq!(ranked[0].index, 2);
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].distance <= ranked[1].distance);
    }

    #[test]
    fn relative_position_feature() {
        let ds = dataset();
        let spec = FeatureSpec { features: vec![Feature::RelativePosition] };
        let m = compute_features(&ds.samples[0], &spec, &ds, &[], &|_| Some(10_000));
        assert!((m.rows[0][0] - 0.005).abs() < 1e-9);
        assert!((m.rows[1][0] - 0.125).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn target_arity_checked() {
        let ds = dataset();
        let spec = FeatureSpec { features: vec![Feature::Length] };
        let m = compute_features(&ds.samples[0], &spec, &ds, &[], &|_| None);
        rank_regions(&ds.samples[0], &m, &[1.0, 2.0], 1);
    }
}
