//! UNION: concatenate two datasets under a merged schema.
//!
//! This is where **schema merging** (paper §2) does its interoperability
//! work: fixed attributes stay common, variable attributes concatenate,
//! and each side's region rows are re-shaped into the merged layout with
//! nulls for absent columns.

use crate::error::GmqlError;
use crate::ops::Reuse;
use nggc_engine::ExecContext;
use nggc_gdm::{Dataset, GRegion, Provenance, Sample, Schema};

/// Execute UNION. `out_schema` is the merged schema inferred at plan time.
/// A side whose rows already have the merged layout shares its samples'
/// region buffers; the other side's rows are reshaped into copies.
pub fn union(
    ctx: &ExecContext,
    left: &Dataset,
    right: &Dataset,
    out_schema: &Schema,
    reuse: &Reuse,
) -> Result<Dataset, GmqlError> {
    let merged = left.schema.merge(&right.schema);
    debug_assert_eq!(&merged.schema, out_schema, "plan and execution agree on merge");
    let reshape = |samples: &[Sample], map: &[usize], side: &str| -> Vec<Sample> {
        ctx.map_samples(samples, |s| {
            let mut out = Sample::derived(
                format!("{side}_{}", s.name),
                Provenance::derived("UNION", side.to_owned(), vec![s.provenance.clone()]),
            );
            out.metadata = s.metadata.clone();
            out.regions = if map.iter().copied().eq(0..merged.schema.len()) {
                // The side's rows already have the merged layout.
                reuse.hand_on(s.regions.clone())
            } else {
                reuse.copy(
                    s.regions
                        .iter()
                        .map(|r| GRegion {
                            values: Schema::reshape_row(&r.values, map, merged.schema.len()),
                            chrom: r.chrom.clone(),
                            ..*r
                        })
                        .collect::<Vec<_>>(),
                )
            };
            out
        })
    };

    let mut out = Dataset::new(left.name.clone(), merged.schema.clone());
    for s in reshape(&left.samples, &merged.left_map, "left") {
        out.add_sample_unchecked(s);
    }
    for s in reshape(&right.samples, &merged.right_map, "right") {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, GRegion, Strand, Value, ValueType};

    #[test]
    fn heterogeneous_schemas_unify_with_nulls() {
        let sa = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
        let sb = Schema::new(vec![
            Attribute::new("p_value", ValueType::Float),
            Attribute::new("fold", ValueType::Float),
        ])
        .unwrap();
        let mut a = Dataset::new("A", sa);
        a.add_sample(Sample::new("x", "A").with_regions(vec![
            GRegion::new("chr1", 0, 5, Strand::Pos).with_values(vec![Value::Float(0.1)]),
        ]))
        .unwrap();
        let mut b = Dataset::new("B", sb);
        b.add_sample(Sample::new("y", "B").with_regions(vec![
            GRegion::new("chr1", 9, 12, Strand::Neg)
                .with_values(vec![Value::Float(0.2), Value::Float(2.5)]),
        ]))
        .unwrap();

        let ctx = ExecContext::with_workers(2);
        let merged = a.schema.merge(&b.schema).schema;
        let out = union(&ctx, &a, &b, &merged, &Reuse::default()).unwrap();
        assert_eq!(out.sample_count(), 2);
        assert_eq!(out.schema.len(), 2);
        // Left sample gains a null `fold` column.
        assert_eq!(out.samples[0].regions[0].values, vec![Value::Float(0.1), Value::Null]);
        assert_eq!(out.samples[1].regions[0].values, vec![Value::Float(0.2), Value::Float(2.5)]);
        out.validate().unwrap();
    }

    #[test]
    fn a_side_already_in_the_merged_layout_shares_its_buffers() {
        let wide = Schema::new(vec![
            Attribute::new("p_value", ValueType::Float),
            Attribute::new("fold", ValueType::Float),
        ])
        .unwrap();
        let narrow = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
        let mut a = Dataset::new("A", wide);
        a.add_sample(
            Sample::new("x", "A").with_regions(vec![GRegion::new("chr1", 0, 5, Strand::Pos)
                .with_values(vec![Value::Float(0.1), Value::Float(2.0)])]),
        )
        .unwrap();
        let mut b = Dataset::new("B", narrow);
        b.add_sample(Sample::new("y", "B").with_regions(vec![
            GRegion::new("chr1", 9, 12, Strand::Neg).with_values(vec![Value::Float(0.2)]),
        ]))
        .unwrap();
        let ctx = ExecContext::with_workers(2);
        let merged = a.schema.merge(&b.schema).schema;
        let reuse = Reuse::default();
        let out = union(&ctx, &a, &b, &merged, &reuse).unwrap();
        assert!(
            nggc_gdm::Regions::ptr_eq(&out.samples[0].regions, &a.samples[0].regions),
            "left: identity"
        );
        assert_eq!(out.samples[1].regions[0].values, vec![Value::Float(0.2), Value::Null]);
        assert_eq!((reuse.shared(), reuse.copied()), (1, 1));
    }

    #[test]
    fn sample_names_prefixed_by_side() {
        let mut a = Dataset::new("A", Schema::empty());
        a.add_sample(Sample::new("x", "A")).unwrap();
        let mut b = Dataset::new("B", Schema::empty());
        b.add_sample(Sample::new("x", "B")).unwrap();
        let ctx = ExecContext::with_workers(1);
        let out = union(&ctx, &a, &b, &Schema::empty(), &Reuse::default()).unwrap();
        assert_eq!(out.samples[0].name, "left_x");
        assert_eq!(out.samples[1].name, "right_x");
    }
}
