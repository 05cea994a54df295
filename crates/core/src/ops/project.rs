//! PROJECT: keep and compute region attributes.
//!
//! Computed attributes evaluate against the *input* schema, so an
//! expression may reference attributes being dropped (e.g. keep only a
//! normalised score while dropping the raw one).

use crate::error::GmqlError;
use crate::ops::{unpack, Reuse};
use crate::predicates::{BoundExpr, RegionExpr};
use nggc_engine::ExecContext;
use nggc_gdm::{
    Attribute, Column, Dataset, GRegion, GdmError, Provenance, RegionBatch, Regions, Sample, Schema,
};
use std::borrow::Cow;

/// Execute PROJECT. `out_schema` is the inferred output schema;
/// `meta_attrs`, when given, lists the metadata attributes to keep.
///
/// When every row already is what the output holds — the identity
/// layout, as a source read narrowed to this PROJECT's list has it — each
/// sample's region buffer is handed on as it is. A batch-backed buffer
/// stays columns: computed attributes are evaluated on its rows in place
/// into new typed columns, and the kept columns are moved (held alone) or
/// copied (shared) next to them; no row is built. Otherwise a buffer the
/// operator holds alone (the executor hands an owned `input` over when
/// this operator is the dataset's last user) is reshaped in place: every
/// region keeps its chromosome handle and its value vector, whose kept
/// cells are moved into position. A buffer shared with another holder is
/// left untouched and the kept cells are copied out of it.
pub fn project(
    ctx: &ExecContext,
    attrs: Option<&[String]>,
    new_attrs: &[(String, RegionExpr)],
    meta_attrs: Option<&[String]>,
    input: Cow<'_, Dataset>,
    out_schema: &Schema,
    reuse: &Reuse,
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
    // Every row is already what the output holds.
    let identity = computed.is_empty() && keep.iter().copied().eq(0..input.schema.len());
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

    let (name, _, samples) = unpack(input, |_| true);
    let samples = ctx.map(samples, |mut s| {
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
        // A buffer shared with another holder: the kept and computed
        // cells are copied out of its rows.
        let copy_rows = |regions: &Regions| {
            reuse.copy(
                regions
                    .iter()
                    .map(|r| {
                        let mut values = Vec::with_capacity(keep.len() + computed.len());
                        values.extend(keep.iter().map(|&i| r.values[i].clone()));
                        values.extend(computed.iter().map(|expr| expr.eval(r)));
                        GRegion { values, chrom: r.chrom.clone(), ..*r }
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let regions = if identity {
            reuse.hand_on(s.regions)
        } else if let Some(batch) = s.regions.batch() {
            // Batch-backed: the computed cells are evaluated on the
            // columns in place, into columns of their own, before the
            // batch is let go. Then, held alone, the kept columns move
            // into place and the rest are dropped; shared, the kept ones
            // are copied out. The computed columns go after them.
            let extra = computed
                .iter()
                .zip(&out_schema.attributes()[keep.len()..])
                .map(|(expr, attr)| computed_column(expr, &batch, attr))
                .collect::<Result<Vec<_>, _>>()?;
            drop(batch);
            let project = |batch: Cow<'_, RegionBatch>| {
                let mut out = RegionBatch::projection(batch, &keep);
                extra.into_iter().for_each(|column| out.push_column(column));
                out
            };
            match s.regions.into_batch() {
                Ok(batch) => project(Cow::Owned(batch)).into(),
                Err(shared) => match shared.batch() {
                    Some(batch) => reuse.copy(project(Cow::Borrowed(&batch))),
                    // Another holder built the rows meanwhile.
                    None => copy_rows(&shared),
                },
            }
        } else if let Some(regions) = s.regions.get_mut() {
            for r in regions.iter_mut() {
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
            s.regions
        } else {
            copy_rows(&s.regions)
        };
        let mut out = Sample::derived(s.name, provenance);
        out.metadata = kept_metadata.unwrap_or(s.metadata);
        out.regions = regions;
        Ok::<_, GmqlError>(out)
    });

    let mut out = Dataset::new(name, out_schema.clone());
    for s in samples {
        out.add_sample_unchecked(s?);
    }
    Ok(out)
}

/// `expr` evaluated on every row of `batch`, in place, as a column of
/// `attr`'s type.
fn computed_column(
    expr: &BoundExpr<'_>,
    batch: &RegionBatch,
    attr: &Attribute,
) -> Result<Column, GdmError> {
    let mut column = Column::with_capacity(attr.ty, batch.len());
    for row in batch.rows_in(0..batch.len()) {
        column.try_push(expr.eval_ref(&row)).map_err(|got| GdmError::TypeMismatch {
            attribute: attr.name.clone(),
            expected: attr.ty,
            got,
        })?;
    }
    Ok(column)
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
        project(&ctx, attrs.as_deref(), new_attrs, None, input, &out_schema, &Reuse::default())
            .unwrap()
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

    /// A source read narrowed to a PROJECT's list holds the listed columns
    /// only, in stored order: the output is the one of the full input.
    #[test]
    fn a_narrowed_input_projects_like_the_full_one() {
        for list in [vec!["name"], vec!["name", "score"], vec!["score"]] {
            let attrs: Option<Vec<String>> = Some(list.iter().map(|a| a.to_string()).collect());
            let want = run_on(&attrs, &[], Cow::Owned(dataset()));
            let mut narrowed = dataset();
            let stored: Vec<usize> =
                (0..2).filter(|&i| list.contains(&["score", "name"][i])).collect();
            let names: Vec<&str> = stored.iter().map(|&i| ["score", "name"][i]).collect();
            narrowed.schema = narrowed.schema.project(&names).unwrap().0;
            for r in narrowed.samples[0].regions_mut() {
                r.values = stored.iter().map(|&i| r.values[i].clone()).collect();
            }
            let got = run_on(&attrs, &[], Cow::Owned(narrowed));
            assert_eq!(got.schema, want.schema, "{list:?}");
            assert_eq!(got.samples[0].regions, want.samples[0].regions, "{list:?}");
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
    fn the_identity_layout_shares_and_any_other_copies_a_shared_buffer() {
        let ctx = ExecContext::with_workers(2);
        let ds = dataset();
        let project_with = |attrs: &[&str], reuse: &Reuse| {
            let attrs: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
            let op = Operator::Project {
                attrs: Some(attrs.clone()),
                new_attrs: vec![],
                meta_attrs: None,
            };
            let schema = infer_schema(&op, &[&ds.schema]).unwrap();
            project(&ctx, Some(&attrs), &[], None, Cow::Borrowed(&ds), &schema, reuse).unwrap()
        };
        let reuse = Reuse::default();
        let out = project_with(&["score", "name"], &reuse);
        assert!(nggc_gdm::Regions::ptr_eq(&out.samples[0].regions, &ds.samples[0].regions));
        assert_eq!((reuse.shared(), reuse.copied()), (1, 0));
        let reuse = Reuse::default();
        let out = project_with(&["name"], &reuse);
        assert!(!nggc_gdm::Regions::ptr_eq(&out.samples[0].regions, &ds.samples[0].regions));
        assert_eq!((reuse.shared(), reuse.copied()), (0, 1));
        assert_eq!(ds.samples[0].regions[0].values.len(), 2, "the input is as it was");
    }

    #[test]
    fn unknown_attribute_rejected() {
        let ds = dataset();
        let ctx = ExecContext::with_workers(1);
        let err = project(
            &ctx,
            Some(&["zzz".to_string()]),
            &[],
            None,
            Cow::Borrowed(&ds),
            &ds.schema,
            &Reuse::default(),
        );
        assert!(err.is_err());
    }
}
