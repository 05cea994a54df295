//! EXTEND: lift region aggregates into sample metadata.
//!
//! This is the bridge between the region and metadata layers of GDM:
//! `EXTEND(region_count AS COUNT) D` annotates every sample with its
//! region count, after which metadata predicates (and EXTEND-derived
//! statistics generally) can drive sample selection.

use crate::aggregates::Aggregate;
use crate::error::GmqlError;
use crate::ops::Reuse;
use nggc_engine::ExecContext;
use nggc_gdm::{Dataset, Provenance, Sample, Value};

/// Execute EXTEND. It never touches regions: every output sample shares
/// its input's buffer.
pub fn extend(
    ctx: &ExecContext,
    assignments: &[(String, Aggregate)],
    input: &Dataset,
    reuse: &Reuse,
) -> Result<Dataset, GmqlError> {
    // Resolve aggregate attribute positions once against the schema.
    let resolved: Vec<(String, Aggregate, Option<usize>)> = assignments
        .iter()
        .map(|(name, agg)| {
            agg.resolve(&input.schema).map(|(pos, _)| (name.clone(), agg.clone(), pos))
        })
        .collect::<Result<_, _>>()?;
    let detail =
        assignments.iter().map(|(n, a)| format!("{n} AS {a}")).collect::<Vec<_>>().join(", ");

    let samples = ctx.map_samples(&input.samples, |s| {
        let mut out = Sample::derived(
            s.name.clone(),
            Provenance::derived("EXTEND", detail.clone(), vec![s.provenance.clone()]),
        );
        out.regions = reuse.hand_on(s.regions.clone());
        out.metadata = s.metadata.clone();
        for (name, agg, pos) in &resolved {
            let value = match pos {
                Some(i) => {
                    let vals: Vec<&Value> = s.regions.iter().map(|r| &r.values[*i]).collect();
                    agg.compute(&vals, s.regions.len())
                }
                None => agg.compute(&[], s.regions.len()),
            };
            out.metadata.insert(name, value.render());
        }
        out
    });

    let mut out = Dataset::new(input.name.clone(), input.schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::AggFunc;
    use nggc_gdm::{Attribute, GRegion, Schema, Strand, ValueType};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("D", schema);
        ds.add_sample(Sample::new("a", "D").with_regions(vec![
            GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![Value::Float(1.0)]),
            GRegion::new("chr1", 20, 30, Strand::Pos).with_values(vec![Value::Float(3.0)]),
        ]))
        .unwrap();
        ds.add_sample(Sample::new("b", "D").with_regions(vec![])).unwrap();
        ds
    }

    #[test]
    fn count_and_avg_in_metadata() {
        let ctx = ExecContext::with_workers(2);
        let out = extend(
            &ctx,
            &[
                ("n".into(), Aggregate::count()),
                ("avg_score".into(), Aggregate::over(AggFunc::Avg, "score")),
            ],
            &dataset(),
            &Reuse::default(),
        )
        .unwrap();
        assert_eq!(out.samples[0].metadata.first("n"), Some("2"));
        assert_eq!(out.samples[0].metadata.first("avg_score"), Some("2"));
        assert_eq!(out.samples[1].metadata.first("n"), Some("0"));
        assert_eq!(out.samples[1].metadata.first("avg_score"), Some("."), "empty = null");
    }

    #[test]
    fn regions_unchanged() {
        let ctx = ExecContext::with_workers(1);
        let ds = dataset();
        let out =
            extend(&ctx, &[("n".into(), Aggregate::count())], &ds, &Reuse::default()).unwrap();
        assert_eq!(out.samples[0].regions, ds.samples[0].regions);
        assert_eq!(out.schema, ds.schema);
    }

    #[test]
    fn every_sample_shares_its_input_buffer() {
        let ctx = ExecContext::with_workers(2);
        let ds = dataset();
        let reuse = Reuse::default();
        let out = extend(&ctx, &[("n".into(), Aggregate::count())], &ds, &reuse).unwrap();
        for (s, input) in out.samples.iter().zip(&ds.samples) {
            assert!(nggc_gdm::Regions::ptr_eq(&s.regions, &input.regions));
        }
        assert_eq!((reuse.shared(), reuse.copied()), (2, 0));
    }

    #[test]
    fn bad_aggregate_rejected() {
        let ctx = ExecContext::with_workers(1);
        let err = extend(
            &ctx,
            &[("x".into(), Aggregate::over(AggFunc::Sum, "zzz"))],
            &dataset(),
            &Reuse::default(),
        );
        assert!(err.is_err());
    }
}
