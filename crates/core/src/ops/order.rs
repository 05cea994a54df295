//! ORDER: sort samples by metadata and/or regions by attributes, with
//! top-k truncation.
//!
//! Sample ordering assigns an `order` metadata attribute with each
//! sample's 1-based rank. Region ordering selects the top-k regions by
//! the key, then restores genome order (the GDM dataset invariant keeps
//! regions genome-sorted; the *selection* is what ORDER contributes).

use crate::ast::SortDir;
use crate::error::GmqlError;
use crate::ops::Reuse;
use nggc_engine::ExecContext;
use nggc_gdm::{Dataset, GRegion, Provenance, Sample, Value};
use std::cmp::Ordering;

/// Execute ORDER. A sample whose regions all stay, in genome order —
/// no region keys and no region top-k below its size — shares its input
/// buffer; otherwise only the kept regions are copied.
#[allow(clippy::too_many_arguments)]
pub fn order(
    ctx: &ExecContext,
    meta_keys: &[(String, SortDir)],
    top: Option<usize>,
    region_keys: &[(String, SortDir)],
    region_top: Option<usize>,
    input: &Dataset,
    reuse: &Reuse,
) -> Result<Dataset, GmqlError> {
    // Validate region keys up front.
    let resolved_region_keys: Vec<(usize, SortDir)> =
        region_keys
            .iter()
            .map(|(name, dir)| {
                input.schema.position(name).map(|p| (p, *dir)).ok_or_else(|| {
                    GmqlError::semantic(format!("unknown region attribute {name:?}"))
                })
            })
            .collect::<Result<_, _>>()?;
    let detail = format!(
        "meta: [{}] top: {:?}; region: [{}] top: {:?}",
        meta_keys.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(","),
        top,
        region_keys.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(","),
        region_top
    );

    // Region-level transformation in parallel.
    let mut samples: Vec<Sample> = ctx.map_samples(&input.samples, |s| {
        let mut out = Sample::derived(
            s.name.clone(),
            Provenance::derived("ORDER", detail.clone(), vec![s.provenance.clone()]),
        );
        out.metadata = s.metadata.clone();
        out.regions = if resolved_region_keys.is_empty() {
            match region_top {
                Some(k) if k < s.regions.len() => reuse.copy(s.regions[..k].to_vec()),
                _ => reuse.hand_on(s.regions.clone()),
            }
        } else {
            let mut ranked: Vec<&GRegion> = s.regions.iter().collect();
            ranked.sort_by(|a, b| {
                for (pos, dir) in &resolved_region_keys {
                    let ord = a.values[*pos].total_cmp(&b.values[*pos]);
                    let ord = if *dir == SortDir::Desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.cmp_coords(b)
            });
            if let Some(k) = region_top {
                ranked.truncate(k);
            }
            // Back in genome order: when that is every region where it
            // was, the buffer is shared.
            ranked.sort_by(|a, b| a.cmp_coords(b));
            reuse.keep(&s.regions, ranked)
        };
        out
    });

    // Sample-level ordering (serial; sample counts are small).
    if !meta_keys.is_empty() {
        samples.sort_by(|a, b| {
            for (attr, dir) in meta_keys {
                let va = meta_sort_value(a, attr);
                let vb = meta_sort_value(b, attr);
                let ord = va.total_cmp(&vb);
                let ord = if *dir == SortDir::Desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(k) = top {
        samples.truncate(k);
    }
    for (rank, s) in samples.iter_mut().enumerate() {
        s.metadata.insert("order", (rank + 1).to_string());
    }

    let mut out = Dataset::new(input.name.clone(), input.schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

/// Numeric-aware sort key of a sample's first value for an attribute;
/// missing attributes sort last.
fn meta_sort_value(s: &Sample, attr: &str) -> Value {
    match s.metadata.first(attr) {
        Some(v) => match v.parse::<f64>() {
            Ok(n) => Value::Float(n),
            Err(_) => Value::Str(v.to_owned()),
        },
        None => Value::Str("\u{10FFFF}".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, Metadata, Schema, Strand, ValueType};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("D", schema);
        for (name, age, scores) in
            [("a", "30", vec![1.0, 9.0]), ("b", "20", vec![5.0]), ("c", "25", vec![3.0, 7.0, 2.0])]
        {
            let regions = scores
                .iter()
                .enumerate()
                .map(|(i, &sc)| {
                    GRegion::new("chr1", i as u64 * 100, i as u64 * 100 + 10, Strand::Pos)
                        .with_values(vec![Value::Float(sc)])
                })
                .collect();
            ds.add_sample(
                Sample::new(name, "D")
                    .with_regions(regions)
                    .with_metadata(Metadata::from_pairs([("age", age)])),
            )
            .unwrap();
        }
        ds
    }

    #[test]
    fn samples_sorted_numerically_with_rank() {
        let ctx = ExecContext::with_workers(2);
        let out = order(
            &ctx,
            &[("age".into(), SortDir::Asc)],
            None,
            &[],
            None,
            &dataset(),
            &Reuse::default(),
        )
        .unwrap();
        let names: Vec<&str> = out.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c", "a"], "20 < 25 < 30 numerically");
        assert_eq!(out.samples[0].metadata.first("order"), Some("1"));
        assert_eq!(out.samples[2].metadata.first("order"), Some("3"));
    }

    #[test]
    fn top_k_truncates_samples() {
        let ctx = ExecContext::with_workers(1);
        let out = order(
            &ctx,
            &[("age".into(), SortDir::Desc)],
            Some(1),
            &[],
            None,
            &dataset(),
            &Reuse::default(),
        )
        .unwrap();
        assert_eq!(out.sample_count(), 1);
        assert_eq!(out.samples[0].name, "a");
    }

    #[test]
    fn region_top_k_by_score_keeps_genome_order() {
        let ctx = ExecContext::with_workers(2);
        let out = order(
            &ctx,
            &[],
            None,
            &[("score".into(), SortDir::Desc)],
            Some(2),
            &dataset(),
            &Reuse::default(),
        )
        .unwrap();
        let c = out.sample_by_name("c").unwrap();
        assert_eq!(c.region_count(), 2, "top 2 of 3");
        // Kept the score-7 and score-3 regions, but in genome order.
        assert!(c.is_sorted());
        let scores: Vec<f64> = c.regions.iter().map(|r| r.values[0].as_f64().unwrap()).collect();
        assert_eq!(scores, vec![3.0, 7.0]);
    }

    #[test]
    fn regions_kept_whole_share_and_a_top_k_copies_only_its_k() {
        let ctx = ExecContext::with_workers(2);
        let ds = dataset();
        let by_score = [("score".to_string(), SortDir::Desc)];
        // No region keys; region keys with a top-k no smaller than any
        // sample: every region stays where it was.
        for (keys, top) in [(&[][..], None), (&[][..], Some(3)), (&by_score[..], Some(3))] {
            let reuse = Reuse::default();
            let out = order(&ctx, &[], None, keys, top, &ds, &reuse).unwrap();
            for (s, input) in out.samples.iter().zip(&ds.samples) {
                assert!(nggc_gdm::Regions::ptr_eq(&s.regions, &input.regions), "{keys:?} {top:?}");
            }
            assert_eq!((reuse.shared(), reuse.copied()), (3, 0));
        }
        // Top 1 by score: `b` has one region and shares it, `a` and `c`
        // copy their one.
        let reuse = Reuse::default();
        order(&ctx, &[], None, &by_score, Some(1), &ds, &reuse).unwrap();
        assert_eq!((reuse.shared(), reuse.copied()), (1, 2));
    }

    #[test]
    fn unknown_region_key_rejected() {
        let ctx = ExecContext::with_workers(1);
        assert!(order(
            &ctx,
            &[],
            None,
            &[("zzz".into(), SortDir::Asc)],
            None,
            &dataset(),
            &Reuse::default()
        )
        .is_err());
    }
}
