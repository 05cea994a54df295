//! GROUP: group samples by metadata, deduplicating regions within groups.
//!
//! Like MERGE, GROUP collapses each metadata group into one sample, but it
//! additionally **deduplicates regions with identical coordinates**,
//! computing the requested aggregates over each duplicate set (e.g. the
//! mean signal of replicated peaks across replicas of an experiment).

use crate::aggregates::Aggregate;
use crate::error::GmqlError;
use crate::ops::merge::fold_groups;
use crate::ops::{push_aggregates, resolve_aggs};
use nggc_engine::{merge_runs, ExecContext, CHECKPOINT_STRIDE};
use nggc_gdm::{Dataset, GRegion, Schema};
use std::cmp::Ordering;

/// Execute GROUP. `out_schema` = input schema + aggregate attributes.
pub fn group(
    ctx: &ExecContext,
    by: &[String],
    region_aggs: &[(String, Aggregate)],
    input: &Dataset,
    out_schema: &Schema,
) -> Result<Dataset, GmqlError> {
    let resolved = resolve_aggs(region_aggs, &input.schema)?;
    let frame = ("GROUP", "group", format!("by: {}", by.join(",")));
    Ok(fold_groups(ctx, input, out_schema, by, frame, |_, runs, _| {
        // Fold runs of identical coordinates while merging; only the
        // representative of each run is cloned.
        let mut merged = merge_runs(runs, GRegion::cmp_coords).into_iter().peekable();
        let mut regions: Vec<GRegion> = Vec::with_capacity(merged.len());
        let mut dup: Vec<&GRegion> = Vec::new();
        while let Some(rep) = merged.next() {
            // Stride checkpoint over the duplicate-fold loop: stop
            // folding once the governor trips (the executor raises the
            // typed error at the node boundary).
            if regions.len() & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                break;
            }
            dup.clear();
            dup.push(rep);
            while let Some(x) = merged.next_if(|x| x.cmp_coords(rep) == Ordering::Equal) {
                dup.push(x);
            }
            let mut values = Vec::with_capacity(rep.values.len() + resolved.len());
            values.extend_from_slice(&rep.values);
            push_aggregates(&resolved, &dup, &mut values);
            let chrom = rep.chrom.clone();
            regions.push(GRegion::new(chrom, rep.left, rep.right, rep.strand).with_values(values));
        }
        regions
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::AggFunc;
    use nggc_gdm::{Attribute, Metadata, Sample, Strand, Value, ValueType};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("signal", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("D", schema);
        // Two replicas of the same experiment share a peak at chr1:0-10.
        ds.add_sample(
            Sample::new("rep1", "D")
                .with_regions(vec![
                    GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![Value::Float(2.0)])
                ])
                .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
        )
        .unwrap();
        ds.add_sample(
            Sample::new("rep2", "D")
                .with_regions(vec![
                    GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![Value::Float(4.0)]),
                    GRegion::new("chr1", 50, 60, Strand::Pos).with_values(vec![Value::Float(1.0)]),
                ])
                .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
        )
        .unwrap();
        ds
    }

    fn out_schema(ds: &Dataset, aggs: &[(String, Aggregate)]) -> Schema {
        let op =
            crate::ast::Operator::Group { by: vec!["cell".into()], region_aggs: aggs.to_vec() };
        crate::plan::infer_schema(&op, &[&ds.schema]).unwrap()
    }

    #[test]
    fn duplicates_fold_with_aggregates() {
        let ds = dataset();
        let aggs = vec![
            ("n".to_string(), Aggregate::count()),
            ("avg_signal".to_string(), Aggregate::over(AggFunc::Avg, "signal")),
        ];
        let schema = out_schema(&ds, &aggs);
        let ctx = ExecContext::with_workers(2);
        let out = group(&ctx, &["cell".into()], &aggs, &ds, &schema).unwrap();
        assert_eq!(out.sample_count(), 1);
        let regions = &out.samples[0].regions;
        assert_eq!(regions.len(), 2, "duplicate peak folded");
        // chr1:0-10 duplicated twice: count 2, avg 3.0; keeps first value row.
        assert_eq!(regions[0].values, vec![Value::Float(2.0), Value::Int(2), Value::Float(3.0)]);
        assert_eq!(regions[1].values, vec![Value::Float(1.0), Value::Int(1), Value::Float(1.0)]);
        out.validate().unwrap();
    }

    #[test]
    fn group_key_in_metadata() {
        let ds = dataset();
        let schema = out_schema(&ds, &[]);
        let ctx = ExecContext::with_workers(1);
        let out = group(&ctx, &["cell".into()], &[], &ds, &schema).unwrap();
        assert!(out.samples[0].metadata.has("cell", "HeLa"));
        assert_eq!(out.samples[0].name, "group_HeLa");
    }
}
