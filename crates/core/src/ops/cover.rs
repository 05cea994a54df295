//! COVER and its variants: FLAT, SUMMIT, HISTOGRAM.
//!
//! "COVER deals with replicas of a same experiment" (paper §2): it
//! flattens the samples of a dataset (or of each metadata group) into the
//! genomic regions where between `minAcc` and `maxAcc` input regions
//! accumulate. Every output region carries the `accindex` accumulation
//! attribute plus optional aggregates over the contributing regions.

use crate::aggregates::Aggregate;
use crate::ast::{AccBound, CoverVariant};
use crate::error::GmqlError;
use crate::ops::merge::fold_groups;
use crate::ops::{push_aggregates, resolve_aggs};
use nggc_engine::{
    coverage_sweep, merge_cover, merge_runs, CovSeg, ExecContext, CHECKPOINT_STRIDE,
};
use nggc_gdm::{interval_overlap, Dataset, GRegion, Schema, Strand, Value};

/// Execute COVER/FLAT/SUMMIT/HISTOGRAM.
#[allow(clippy::too_many_arguments)]
pub fn cover(
    ctx: &ExecContext,
    variant: CoverVariant,
    min_acc: AccBound,
    max_acc: AccBound,
    groupby: &[String],
    aggs: &[(String, Aggregate)],
    input: &Dataset,
    out_schema: &Schema,
) -> Result<Dataset, GmqlError> {
    let resolved = resolve_aggs(aggs, &input.schema)?;
    let frame = (
        variant.name(),
        &*variant.name().to_ascii_lowercase(),
        format!("{variant:?}({min_acc:?}, {max_acc:?})"),
    );
    Ok(fold_groups(ctx, input, out_schema, groupby, frame, |chrom, runs, n| {
        let (min, max) = (min_acc.resolve(n, true).max(1), max_acc.resolve(n, false));
        // The chromosome's regions in genome order, as borrows: the sweep
        // reads them once; FLAT and the aggregates look them up per shape.
        let order = merge_runs(runs, GRegion::cmp_coords);
        let segs = coverage_sweep(order.iter().copied());
        let mut shapes: Vec<(u64, u64, usize)> = match variant {
            CoverVariant::Cover | CoverVariant::Flat => merge_cover(&segs, min, max),
            CoverVariant::Histogram => segs
                .iter()
                .filter(|s| s.acc >= min && s.acc <= max)
                .map(|s| (s.left, s.right, s.acc))
                .collect(),
            CoverVariant::Summit => summits(&segs, min, max),
        };
        if variant == CoverVariant::Flat {
            // FLAT extent: the hull of the regions intersecting the shape.
            let mut window = Window::over(&order);
            for shape in &mut shapes {
                for x in window.intersecting(shape.0, shape.1) {
                    *shape = (shape.0.min(x.left), shape.1.max(x.right), shape.2);
                }
            }
        }
        let mut window = Window::over(&order);
        let mut contributing: Vec<&GRegion> = Vec::new();
        let mut regions = Vec::with_capacity(shapes.len());
        for (idx, (l, r, acc)) in shapes.into_iter().enumerate() {
            // Poll on a stride so wide covers abort mid-loop.
            if idx & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                break;
            }
            let mut values = Vec::with_capacity(1 + resolved.len());
            values.push(Value::Int(acc as i64));
            if !resolved.is_empty() {
                // Contributing regions: those overlapping the output.
                contributing.clear();
                contributing.extend(window.intersecting(l, r));
                push_aggregates(&resolved, &contributing, &mut values);
            }
            // One chromosome handle per output sample, not one per region.
            regions.push(GRegion::new(chrom.clone(), l, r, Strand::Unstranded).with_values(values));
        }
        regions
    }))
}

/// The regions of one chromosome that intersect a query interval
/// ([`interval_overlap`], so point regions inside it count), for queries
/// asked in non-decreasing order of their left end — the order COVER's
/// shapes come out in. Regions enter the window once, when a query first
/// reaches their start, and leave it for good when a query starts past
/// their end, so a region is looked at O(1 + shapes it could touch) times
/// instead of once per shape of the chromosome.
struct Window<'a> {
    /// The chromosome's regions in genome order, not yet entered.
    ahead: &'a [&'a GRegion],
    /// Entered and not yet left, in genome order.
    active: Vec<&'a GRegion>,
}

impl<'a> Window<'a> {
    fn over(order: &'a [&'a GRegion]) -> Self {
        Window { ahead: order, active: Vec::new() }
    }

    /// The regions intersecting `[l, r)`, in genome order.
    fn intersecting(&mut self, l: u64, r: u64) -> impl Iterator<Item = &'a GRegion> + '_ {
        self.active.retain(|x| x.right >= l);
        let entering = self.ahead.partition_point(|x| x.left < r);
        self.active.extend(self.ahead[..entering].iter().copied().filter(|x| x.right >= l));
        self.ahead = &self.ahead[entering..];
        self.active.iter().copied().filter(move |x| interval_overlap(x.left, x.right, l, r))
    }
}

/// Local-maximum segments within maximal runs of qualifying coverage.
/// A segment is a summit when its accumulation is strictly greater than
/// the previous qualifying-run segment's and at least the next one's
/// (plateaus emit once, at their first segment).
pub(crate) fn summits(segs: &[CovSeg], min: usize, max: usize) -> Vec<(u64, u64, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < segs.len() {
        if segs[i].acc < min || segs[i].acc > max {
            i += 1;
            continue;
        }
        // A maximal run of contiguous qualifying segments.
        let mut j = i;
        while j + 1 < segs.len()
            && segs[j + 1].left == segs[j].right
            && segs[j + 1].acc >= min
            && segs[j + 1].acc <= max
        {
            j += 1;
        }
        let run = &segs[i..=j];
        for (k, s) in run.iter().enumerate() {
            let prev = if k == 0 { 0 } else { run[k - 1].acc };
            let next = if k + 1 == run.len() { 0 } else { run[k + 1].acc };
            if s.acc > prev && s.acc >= next {
                out.push((s.left, s.right, s.acc));
            }
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::AggFunc;
    use crate::ast::Operator;
    use crate::plan::infer_schema;
    use nggc_gdm::{Attribute, Sample, ValueType};

    fn replicas() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("signal", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("R", schema);
        // Three replicas with a common core at chr1:50-80.
        for (name, l, r, sig) in
            [("r1", 0u64, 80u64, 1.0), ("r2", 50u64, 100u64, 2.0), ("r3", 40u64, 90u64, 3.0)]
        {
            ds.add_sample(Sample::new(name, "R").with_regions(vec![
                GRegion::new("chr1", l, r, Strand::Unstranded).with_values(vec![sig.into()]),
            ]))
            .unwrap();
        }
        ds
    }

    fn run(
        variant: CoverVariant,
        min: AccBound,
        max: AccBound,
        aggs: Vec<(String, Aggregate)>,
    ) -> Dataset {
        let ds = replicas();
        let op = Operator::Cover {
            variant,
            min_acc: min,
            max_acc: max,
            groupby: vec![],
            aggs: aggs.clone(),
        };
        let schema = infer_schema(&op, &[&ds.schema]).unwrap();
        let ctx = ExecContext::with_workers(2);
        cover(&ctx, variant, min, max, &[], &aggs, &ds, &schema).unwrap()
    }

    #[test]
    fn cover_two_of_three() {
        let out = run(CoverVariant::Cover, AccBound::Value(2), AccBound::Any, vec![]);
        assert_eq!(out.sample_count(), 1);
        let s = &out.samples[0];
        // acc>=2 where at least two replicas stack: [40,90).
        assert_eq!(s.region_count(), 1);
        assert_eq!((s.regions[0].left, s.regions[0].right), (40, 90));
        assert_eq!(s.regions[0].values[0], Value::Int(3), "accindex is max accumulation");
    }

    #[test]
    fn cover_all_requires_every_replica() {
        let out = run(CoverVariant::Cover, AccBound::All, AccBound::All, vec![]);
        let s = &out.samples[0];
        assert_eq!((s.regions[0].left, s.regions[0].right), (50, 80));
    }

    #[test]
    fn histogram_emits_constant_acc_segments() {
        let out = run(CoverVariant::Histogram, AccBound::Any, AccBound::Any, vec![]);
        let s = &out.samples[0];
        // Boundaries at 0,40,50,80,90,100 → acc 1,2,3,2,1.
        let accs: Vec<i64> = s.regions.iter().map(|r| r.values[0].as_i64().unwrap()).collect();
        assert_eq!(accs, vec![1, 2, 3, 2, 1]);
        assert_eq!(s.regions[2].left, 50);
        assert_eq!(s.regions[2].right, 80);
    }

    #[test]
    fn summit_is_the_peak_segment() {
        let out = run(CoverVariant::Summit, AccBound::Any, AccBound::Any, vec![]);
        let s = &out.samples[0];
        assert_eq!(s.region_count(), 1);
        assert_eq!((s.regions[0].left, s.regions[0].right), (50, 80));
        assert_eq!(s.regions[0].values[0], Value::Int(3));
    }

    #[test]
    fn flat_extends_to_contributing_hull() {
        let out = run(CoverVariant::Flat, AccBound::Value(3), AccBound::Any, vec![]);
        let s = &out.samples[0];
        // Core [50,80) with acc 3; contributing regions span [0,100).
        assert_eq!((s.regions[0].left, s.regions[0].right), (0, 100));
    }

    #[test]
    fn aggregates_over_contributing_regions() {
        let out = run(
            CoverVariant::Cover,
            AccBound::Value(3),
            AccBound::Any,
            vec![
                ("n".into(), Aggregate::count()),
                ("max_sig".into(), Aggregate::over(AggFunc::Max, "signal")),
            ],
        );
        let r = &out.samples[0].regions[0];
        assert_eq!(r.values, vec![Value::Int(3), Value::Int(3), Value::Float(3.0)]);
        out.validate().unwrap();
    }

    #[test]
    fn groupby_produces_one_sample_per_group() {
        let mut ds = replicas();
        ds.samples[0].metadata.insert("cell", "A");
        ds.samples[1].metadata.insert("cell", "A");
        ds.samples[2].metadata.insert("cell", "B");
        let op = Operator::Cover {
            variant: CoverVariant::Cover,
            min_acc: AccBound::Any,
            max_acc: AccBound::Any,
            groupby: vec!["cell".into()],
            aggs: vec![],
        };
        let schema = infer_schema(&op, &[&ds.schema]).unwrap();
        let ctx = ExecContext::with_workers(2);
        let out = cover(
            &ctx,
            CoverVariant::Cover,
            AccBound::Any,
            AccBound::Any,
            &["cell".to_string()],
            &[],
            &ds,
            &schema,
        )
        .unwrap();
        assert_eq!(out.sample_count(), 2);
        assert!(out.samples.iter().any(|s| s.metadata.has("cell", "A")));
        assert!(out.samples.iter().any(|s| s.metadata.has("cell", "B")));
    }

    #[test]
    fn empty_dataset_yields_empty_cover() {
        let ds = Dataset::new("E", Schema::empty());
        let op = Operator::Cover {
            variant: CoverVariant::Cover,
            min_acc: AccBound::Any,
            max_acc: AccBound::Any,
            groupby: vec![],
            aggs: vec![],
        };
        let schema = infer_schema(&op, &[&ds.schema]).unwrap();
        let ctx = ExecContext::with_workers(1);
        let out =
            cover(&ctx, CoverVariant::Cover, AccBound::Any, AccBound::Any, &[], &[], &ds, &schema)
                .unwrap();
        assert_eq!(out.sample_count(), 0);
    }
}
