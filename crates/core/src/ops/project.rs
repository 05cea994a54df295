//! PROJECT: keep and compute region attributes.
//!
//! Computed attributes evaluate against the *input* schema, so an
//! expression may reference attributes being dropped (e.g. keep only a
//! normalised score while dropping the raw one).

use crate::error::GmqlError;
use crate::ops::unpack;
use crate::predicates::{BoundExpr, RegionExpr};
use nggc_engine::ExecContext;
use nggc_gdm::{Dataset, GRegion, Provenance, Sample, Schema};
use std::borrow::Cow;

/// Execute PROJECT. `out_schema` is the inferred output schema;
/// `meta_attrs`, when given, lists the metadata attributes to keep.
///
/// An owned `input` (the executor hands one over when this operator is
/// the dataset's last user) is reshaped in place: every region keeps its
/// chromosome handle and its value vector, whose kept cells are moved
/// into position. A borrowed input is left untouched and the kept cells
/// are cloned out of it.
pub fn project(
    ctx: &ExecContext,
    attrs: Option<&[String]>,
    new_attrs: &[(String, RegionExpr)],
    meta_attrs: Option<&[String]>,
    input: Cow<'_, Dataset>,
    out_schema: &Schema,
) -> Result<Dataset, GmqlError> {
    // Positions of kept attributes in the input schema.
    let keep: Vec<usize> = match attrs {
        Some(names) => {
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            input.schema.project(&refs)?.1
        }
        None => (0..input.schema.len()).collect(),
    };
    let computed: Vec<BoundExpr<'_>> =
        new_attrs.iter().map(|(_, expr)| expr.bind(&input.schema)).collect();
    let moves = move_program(&keep, input.schema.len(), computed.len());
    let detail = format!(
        "{}{}",
        attrs.map(|a| a.join(",")).unwrap_or_else(|| "*".to_owned()),
        if new_attrs.is_empty() {
            String::new()
        } else {
            format!(
                "; +{}",
                new_attrs.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(",")
            )
        }
    );

    let (name, _, samples) = unpack(input);
    let samples = ctx.pool().parallel_map(samples, |s| {
        let provenance = Provenance::derived("PROJECT", detail.clone(), vec![s.provenance.clone()]);
        // `None`: every metadata attribute is kept, as it is.
        let kept_metadata = meta_attrs.map(|keep| {
            let mut m = nggc_gdm::Metadata::new();
            for (k, v) in s.metadata.iter() {
                if keep.iter().any(|a| a.eq_ignore_ascii_case(k)) {
                    m.insert(k, v);
                }
            }
            m
        });
        let (name, metadata, regions) = match s {
            Cow::Owned(mut s) => {
                for r in &mut s.regions {
                    // Computed attributes read the input row, so they are
                    // appended before any cell moves.
                    for expr in &computed {
                        let v = expr.eval(r);
                        r.values.push(v);
                    }
                    for &(to, from) in &moves {
                        r.values.swap(to, from);
                    }
                    r.values.truncate(keep.len() + computed.len());
                }
                (s.name, kept_metadata.unwrap_or(s.metadata), s.regions)
            }
            Cow::Borrowed(s) => {
                let regions = s
                    .regions
                    .iter()
                    .map(|r| {
                        let mut values = Vec::with_capacity(keep.len() + computed.len());
                        values.extend(keep.iter().map(|&i| r.values[i].clone()));
                        values.extend(computed.iter().map(|expr| expr.eval(r)));
                        GRegion { values, chrom: r.chrom.clone(), ..*r }
                    })
                    .collect();
                (s.name.clone(), kept_metadata.unwrap_or_else(|| s.metadata.clone()), regions)
            }
        };
        let mut out = Sample::derived(name, provenance);
        out.metadata = metadata;
        out.regions = regions;
        out
    });

    let mut out = Dataset::new(name, out_schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

/// The swaps that turn a row of `width` input cells followed by `extra`
/// computed cells into `[row[keep[0]], row[keep[1]], …, computed…]` at
/// its front, in place. It depends only on the projection, so it is
/// worked out once and replayed on every row; the caller truncates the
/// row to `keep.len() + extra` afterwards.
fn move_program(keep: &[usize], width: usize, extra: usize) -> Vec<(usize, usize)> {
    // `at[i]`: which original cell sits at position `i` right now.
    let mut at: Vec<usize> = (0..width + extra).collect();
    let wanted = keep.iter().copied().chain(width..width + extra);
    let mut swaps = Vec::new();
    for (to, cell) in wanted.enumerate() {
        // Positions before `to` are final, so the cell is at or after it.
        let from = to + at[to..].iter().position(|&c| c == cell).expect("kept cells are distinct");
        if from != to {
            at.swap(to, from);
            swaps.push((to, from));
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Operator;
    use crate::plan::infer_schema;
    use crate::predicates::BinOp;
    use nggc_gdm::{Attribute, GRegion, Strand, Value, ValueType};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::new("score", ValueType::Float),
            Attribute::new("name", ValueType::Str),
        ])
        .unwrap();
        let mut ds = Dataset::new("D", schema);
        ds.add_sample(Sample::new("s", "D").with_regions(vec![
            GRegion::new("chr1", 10, 20, Strand::Pos)
                .with_values(vec![Value::Float(2.0), Value::Str("a".into())]),
        ]))
        .unwrap();
        ds
    }

    fn run(attrs: Option<Vec<String>>, new_attrs: Vec<(String, RegionExpr)>) -> Dataset {
        let shared = dataset();
        let a = run_on(&attrs, &new_attrs, Cow::Borrowed(&shared));
        let b = run_on(&attrs, &new_attrs, Cow::Owned(dataset()));
        // An owned input is reshaped in place, a shared one copied from:
        // same output, and the shared input is what it was.
        assert_eq!((&a.name, &a.schema), (&b.name, &b.schema));
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa.name, sb.name);
            assert_eq!(sa.regions, sb.regions);
            assert_eq!(sa.metadata, sb.metadata);
            assert_eq!(sa.provenance.to_string(), sb.provenance.to_string());
        }
        assert_eq!(shared.samples[0].regions, dataset().samples[0].regions);
        a
    }

    fn run_on(
        attrs: &Option<Vec<String>>,
        new_attrs: &[(String, RegionExpr)],
        input: Cow<'_, Dataset>,
    ) -> Dataset {
        let op = Operator::Project {
            attrs: attrs.clone(),
            new_attrs: new_attrs.to_vec(),
            meta_attrs: None,
        };
        let out_schema = infer_schema(&op, &[&input.schema]).unwrap();
        let ctx = ExecContext::with_workers(2);
        project(&ctx, attrs.as_deref(), new_attrs, None, input, &out_schema).unwrap()
    }

    #[test]
    fn reorders_in_place() {
        let out = run(Some(vec!["name".into(), "score".into()]), vec![]);
        assert_eq!(
            out.samples[0].regions[0].values,
            vec![Value::Str("a".into()), Value::Float(2.0)]
        );
    }

    #[test]
    fn move_program_handles_any_projection() {
        for (keep, width, extra) in [
            (vec![], 3, 0),
            (vec![0, 1, 2], 3, 0),
            (vec![2], 3, 0),
            (vec![2, 0], 3, 1),
            (vec![1, 2, 0], 3, 2),
            (vec![3, 1], 4, 1),
            (vec![], 2, 2),
        ] {
            let mut row: Vec<usize> = (0..width + extra).collect();
            for (to, from) in move_program(&keep, width, extra) {
                row.swap(to, from);
            }
            row.truncate(keep.len() + extra);
            let want: Vec<usize> = keep.iter().copied().chain(width..width + extra).collect();
            assert_eq!(row, want, "keep {keep:?} of {width} + {extra}");
        }
    }

    #[test]
    fn keeps_selected_attributes() {
        let out = run(Some(vec!["name".into()]), vec![]);
        assert_eq!(out.schema.len(), 1);
        assert_eq!(out.samples[0].regions[0].values, vec![Value::Str("a".into())]);
    }

    #[test]
    fn computes_new_attribute_from_dropped_one() {
        let doubled = RegionExpr::Binary(
            Box::new(RegionExpr::attr("score")),
            BinOp::Mul,
            Box::new(RegionExpr::num(2.0)),
        );
        let out = run(Some(vec!["name".into()]), vec![("score2".into(), doubled)]);
        assert_eq!(out.schema.len(), 2);
        assert_eq!(
            out.samples[0].regions[0].values,
            vec![Value::Str("a".into()), Value::Float(4.0)]
        );
        out.validate().unwrap();
    }

    #[test]
    fn coordinate_derived_attribute() {
        let len = RegionExpr::attr("len");
        let out = run(None, vec![("length".into(), len)]);
        assert_eq!(out.samples[0].regions[0].values[2], Value::Int(10));
    }

    /// What lets `scan::derive_scan_specs` hand a sample demand through a
    /// PROJECT without a `meta:` clause: every input sample comes out
    /// once, in order, under its name and with its metadata as they
    /// were — whichever other samples are there.
    #[test]
    fn region_only_project_leaves_samples_and_metadata_untouched() {
        use nggc_gdm::Metadata;
        let mut ds = dataset();
        ds.samples[0].metadata = Metadata::from_pairs([("cell", "HeLa"), ("cell", "K562")]);
        ds.add_sample(Sample::new("t", "D").with_metadata(Metadata::from_pairs([("age", "30")])))
            .unwrap();
        let attrs = Some(vec!["score".to_string()]);
        for input in [Cow::Borrowed(&ds), Cow::Owned(ds.clone())] {
            let out = run_on(&attrs, &[], input);
            assert_eq!(out.sample_count(), 2);
            for (before, after) in ds.samples.iter().zip(&out.samples) {
                assert_eq!(before.name, after.name);
                assert_eq!(before.metadata, after.metadata);
            }
        }
        // Alone, a sample comes out as it does among others.
        let mut alone = ds.clone();
        alone.samples.remove(0);
        let out = run_on(&attrs, &[], Cow::Owned(alone));
        assert_eq!((out.sample_count(), &out.samples[0].metadata), (1, &ds.samples[1].metadata));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let ds = dataset();
        let ctx = ExecContext::with_workers(1);
        let err =
            project(&ctx, Some(&["zzz".to_string()]), &[], None, Cow::Borrowed(&ds), &ds.schema);
        assert!(err.is_err());
    }
}
