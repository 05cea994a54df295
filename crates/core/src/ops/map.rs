//! MAP: refer experiment signals to reference regions (paper §2, §4.1).
//!
//! "The MAP operation ... implicitly iterates over all the samples of its
//! operand datasets; it counts, for each input peak sample, all the peaks
//! of expression over each region" — one output sample per (reference,
//! experiment) pair; every reference region carries aggregates computed
//! over the strand-compatible experiment regions intersecting it. The
//! resulting matrix of (regions × experiments) is the *genome space* of
//! Figure 4.

use crate::aggregates::Aggregate;
use crate::error::GmqlError;
use crate::ops::{joinby_matches, push_aggregates, resolve_aggs};
use nggc_engine::{overlap_pairs_sort_merge_interruptible, ExecContext, CHECKPOINT_STRIDE};
use nggc_gdm::{Dataset, GRegion, Provenance, Sample, Schema};
use std::cell::Cell;

/// Execute MAP. `out_schema` = reference schema + aggregate attributes.
pub fn map(
    ctx: &ExecContext,
    aggs: &[(String, Aggregate)],
    joinby: &[String],
    refs: &Dataset,
    exps: &Dataset,
    out_schema: &Schema,
) -> Result<Dataset, GmqlError> {
    let resolved = resolve_aggs(aggs, &exps.schema)?;
    let detail = aggs.iter().map(|(n, a)| format!("{n} AS {a}")).collect::<Vec<_>>().join(", ");

    let results = ctx.map_sample_pairs(&refs.samples, &exps.samples, |r, e| {
        if !joinby_matches(&r.metadata, &e.metadata, joinby) {
            return None;
        }
        // Per-chromosome: collect, for each reference region, the values
        // of intersecting experiment regions.
        let regions: Vec<GRegion> = ctx.map_common_chroms(r, e, |_c, ref_slice, exp_slice| {
            let mut hits: Vec<Vec<&GRegion>> = vec![Vec::new(); ref_slice.len()];
            // Cooperative checkpoint: dense overlaps make the pair
            // enumeration quadratic, so poll on a stride and stop
            // collecting once the governor trips; the executor raises
            // the typed error at the node boundary.
            let tripped = Cell::new(false);
            let tick = Cell::new(0usize);
            let stop = || tripped.get() || ctx.interrupted();
            overlap_pairs_sort_merge_interruptible(ref_slice, exp_slice, stop, |i, j| {
                if tripped.get() {
                    return;
                }
                let t = tick.get();
                tick.set(t.wrapping_add(1));
                if t & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                    tripped.set(true);
                    return;
                }
                if ref_slice[i].strand.compatible(exp_slice[j].strand) {
                    hits[i].push(&exp_slice[j]);
                }
            });
            let mut out_regions = Vec::with_capacity(ref_slice.len());
            for (idx, (rr, matched)) in ref_slice.iter().zip(hits).enumerate() {
                if idx & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                    break;
                }
                let mut out = rr.clone();
                push_aggregates(&resolved, &matched, &mut out.values);
                out_regions.push(out);
            }
            out_regions
        });

        let mut sample = Sample::derived(
            format!("{}__{}", r.name, e.name),
            Provenance::derived(
                "MAP",
                detail.clone(),
                vec![r.provenance.clone(), e.provenance.clone()],
            ),
        );
        sample.metadata = r.metadata.clone();
        sample.metadata.merge_from(&e.metadata, "exp");
        sample.regions = regions;
        Some(sample)
    });

    let mut out = Dataset::new(refs.name.clone(), out_schema.clone());
    for s in results.into_iter().flatten() {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::AggFunc;
    use crate::ast::Operator;
    use crate::plan::infer_schema;
    use nggc_gdm::{Attribute, Metadata, Strand, Value, ValueType};

    fn proms() -> Dataset {
        let mut ds = Dataset::new("PROMS", Schema::empty());
        ds.add_sample(Sample::new("proms", "PROMS").with_regions(vec![
            GRegion::new("chr1", 0, 100, Strand::Unstranded),
            GRegion::new("chr1", 200, 300, Strand::Unstranded),
            GRegion::new("chr2", 0, 50, Strand::Unstranded),
        ]))
        .unwrap();
        ds
    }

    fn peaks() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("PEAKS", schema);
        ds.add_sample(
            Sample::new("e1", "PEAKS")
                .with_regions(vec![
                    GRegion::new("chr1", 10, 20, Strand::Unstranded).with_values(vec![0.1.into()]),
                    GRegion::new("chr1", 50, 60, Strand::Unstranded).with_values(vec![0.2.into()]),
                    GRegion::new("chr1", 250, 260, Strand::Unstranded)
                        .with_values(vec![0.3.into()]),
                ])
                .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
        )
        .unwrap();
        ds.add_sample(
            Sample::new("e2", "PEAKS")
                .with_regions(vec![
                    GRegion::new("chr2", 10, 20, Strand::Unstranded).with_values(vec![0.4.into()])
                ])
                .with_metadata(Metadata::from_pairs([("cell", "K562")])),
        )
        .unwrap();
        ds
    }

    fn run(aggs: Vec<(String, Aggregate)>, joinby: Vec<String>) -> Dataset {
        let r = proms();
        let e = peaks();
        let op = Operator::Map { aggs: aggs.clone(), joinby: joinby.clone() };
        let schema = infer_schema(&op, &[&r.schema, &e.schema]).unwrap();
        let ctx = ExecContext::with_workers(2);
        map(&ctx, &aggs, &joinby, &r, &e, &schema).unwrap()
    }

    #[test]
    fn paper_count_example() {
        let out = run(vec![("peak_count".into(), Aggregate::count())], vec![]);
        // One output sample per (ref, exp) pair: 1 ref × 2 exps.
        assert_eq!(out.sample_count(), 2);
        let s1 = &out.samples[0];
        assert_eq!(s1.name, "proms__e1");
        assert_eq!(s1.region_count(), 3, "all reference regions kept");
        let counts: Vec<i64> =
            s1.regions.iter().map(|r| r.values.last().unwrap().as_i64().unwrap()).collect();
        assert_eq!(counts, vec![2, 1, 0], "2 peaks in [0,100), 1 in [200,300), 0 on chr2");
        let s2 = &out.samples[1];
        let counts2: Vec<i64> =
            s2.regions.iter().map(|r| r.values.last().unwrap().as_i64().unwrap()).collect();
        assert_eq!(counts2, vec![0, 0, 1]);
    }

    #[test]
    fn aggregate_over_experiment_attribute() {
        let out = run(
            vec![
                ("n".into(), Aggregate::count()),
                ("avg_p".into(), Aggregate::over(AggFunc::Avg, "p_value")),
            ],
            vec![],
        );
        let r0 = &out.samples[0].regions[0];
        let avg = r0.values[1].as_f64().unwrap();
        assert!((avg - 0.15).abs() < 1e-12);
        // Empty group: avg is null.
        assert_eq!(out.samples[0].regions[2].values[1], Value::Null);
        out.validate().unwrap();
    }

    #[test]
    fn metadata_union_with_exp_prefix() {
        let out = run(vec![("n".into(), Aggregate::count())], vec![]);
        assert!(out.samples[0].metadata.has("exp.cell", "HeLa"));
    }

    #[test]
    fn joinby_restricts_pairs() {
        let mut r = proms();
        r.samples[0].metadata.insert("cell", "HeLa");
        let e = peaks();
        let aggs = vec![("n".to_string(), Aggregate::count())];
        let op = Operator::Map { aggs: aggs.clone(), joinby: vec!["cell".into()] };
        let schema = infer_schema(&op, &[&r.schema, &e.schema]).unwrap();
        let ctx = ExecContext::with_workers(1);
        let out = map(&ctx, &aggs, &["cell".to_string()], &r, &e, &schema).unwrap();
        assert_eq!(out.sample_count(), 1, "only the HeLa pair survives");
    }
}
