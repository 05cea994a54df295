//! Genometric JOIN: "selects region pairs based upon distance properties"
//! (paper §2).
//!
//! Clauses compose conjunctively: `JOIN(DLE(10000), UP)` keeps pairs at
//! distance ≤ 10 kb with the right region upstream of the left one.
//! `MD(k)` restricts candidates to each left region's `k` nearest right
//! regions. The candidate generator picks the cheapest kernel the clauses
//! allow: k-nearest for MD, a gap sort-merge when a DLE bound exists, and
//! the exhaustive kernel otherwise (an unavoidable `O(n·m)` for pure
//! DGE/UP/DOWN predicates). The kernels keep the qualifying pairs, and
//! each pair's output region is written into the columns of one batch
//! per output sample: no row per region.

use crate::ast::{GenometricClause, JoinOutput};
use crate::error::GmqlError;
use crate::ops::joinby_matches;
use nggc_engine::{
    gap_pairs_sort_merge_interruptible, k_nearest_interruptible, ExecContext, CHECKPOINT_STRIDE,
};
use nggc_gdm::{
    genome_order, Chrom, Dataset, GRegion, Provenance, RegionBatch, Sample, Schema, Strand,
    ValueRef,
};
use std::cell::Cell;

/// Execute JOIN. `out_schema` = prefixed concatenation of both schemas.
pub fn join(
    ctx: &ExecContext,
    clauses: &[GenometricClause],
    output: JoinOutput,
    joinby: &[String],
    left: &Dataset,
    right: &Dataset,
    out_schema: &Schema,
) -> Result<Dataset, GmqlError> {
    let detail = format!("{clauses:?}; output: {output:?}");
    // MD bound (smallest k wins) and DLE bound (smallest d wins).
    let md_k: Option<usize> = clauses
        .iter()
        .filter_map(|c| match c {
            GenometricClause::MinDist(k) => Some(*k),
            _ => None,
        })
        .min();
    let dle: Option<i64> = clauses
        .iter()
        .filter_map(|c| match c {
            GenometricClause::DistLessEq(d) => Some(*d),
            _ => None,
        })
        .min();

    let results = ctx.map_sample_pairs(&left.samples, &right.samples, |ls, rs| {
        if !joinby_matches(&ls.metadata, &rs.metadata, joinby) {
            return Ok::<_, GmqlError>(None);
        }
        // The candidate kernels run chromosome by chromosome, inline in
        // this pair's job (one pool job per chromosome when this is the
        // only pair); each keeps its two slices and the qualifying pairs
        // as positions in them.
        let kept = ctx.map_common_chroms(ls, rs, |_, lsl, rsl| {
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            // Cooperative checkpoint: the candidate kernels can run for
            // seconds on wide inputs (the exhaustive path is O(n·m)), so
            // poll the governor every CHECKPOINT_STRIDE pairs and stop
            // producing once it trips. The executor turns the truncated
            // result into the typed error at the node boundary.
            let tripped = Cell::new(false);
            let tick = Cell::new(0usize);
            let mut handle = |i: usize, j: usize| {
                if tripped.get() {
                    return;
                }
                let t = tick.get();
                tick.set(t.wrapping_add(1));
                if t & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                    tripped.set(true);
                    return;
                }
                if clauses_hold(&lsl[i], &rsl[j], clauses) {
                    pairs.push((i, j));
                }
            };
            // The interruptible kernels poll the same trip state, so a
            // governor firing mid-kernel also stops the pair
            // *enumeration*, not just the emit callback.
            let stop = || tripped.get() || ctx.interrupted();
            if let Some(k) = md_k {
                for (i, nearest) in
                    k_nearest_interruptible(lsl, rsl, k, stop).into_iter().enumerate()
                {
                    for j in nearest {
                        handle(i, j);
                    }
                }
            } else if let Some(d) = dle {
                gap_pairs_sort_merge_interruptible(lsl, rsl, d.max(0) as u64, stop, &mut handle);
            } else {
                'exhaustive: for i in 0..lsl.len() {
                    for j in 0..rsl.len() {
                        handle(i, j);
                        if tripped.get() {
                            break 'exhaustive;
                        }
                    }
                }
            }
            vec![(lsl, rsl, pairs)]
        });
        // The output is one batch: chromosome by chromosome, the pairs'
        // output regions in genome order (the kernels give them by left
        // region; the sort is stable, and linear on what is in order
        // already), each pushed as coordinates, then the left region's
        // cells, then the right one's.
        let mut regions = RegionBatch::for_schema(out_schema);
        regions.reserve(kept.iter().map(|(_, _, pairs)| pairs.len()).sum());
        let mut rows = Vec::new();
        for (lsl, rsl, pairs) in kept {
            // A tripped governor means the pairs are truncated garbage
            // the executor will discard: build no more and let the node
            // boundary raise the error.
            if ctx.interrupted() {
                return Ok(None);
            }
            rows.clear();
            rows.extend(pairs.into_iter().filter_map(|(i, j)| {
                let (a, b) = (&lsl[i], &rsl[j]);
                Some((output_coords(a, b, output)?, a, b))
            }));
            rows.sort_by(|x, y| genome_order(x.0, y.0));
            for &(at, a, b) in &rows {
                regions.push_row(
                    out_schema,
                    at,
                    a.values.iter().chain(&b.values).map(ValueRef::from),
                )?;
            }
        }
        if regions.is_empty() {
            return Ok(None);
        }
        let mut sample = Sample::derived(
            format!("{}__{}", ls.name, rs.name),
            Provenance::derived(
                "JOIN",
                detail.clone(),
                vec![ls.provenance.clone(), rs.provenance.clone()],
            ),
        );
        sample.metadata.merge_from(&ls.metadata, "left");
        sample.metadata.merge_from(&rs.metadata, "right");
        sample.regions = regions.into();
        Ok(Some(sample))
    });

    let mut out = Dataset::new(left.name.clone(), out_schema.clone());
    for s in results {
        if let Some(s) = s? {
            out.add_sample_unchecked(s);
        }
    }
    Ok(out)
}

pub(crate) fn clauses_hold(a: &GRegion, b: &GRegion, clauses: &[GenometricClause]) -> bool {
    clauses.iter().all(|c| match c {
        GenometricClause::DistLessEq(d) => a.distance(b).map(|x| x <= *d).unwrap_or(false),
        GenometricClause::DistGreaterEq(d) => a.distance(b).map(|x| x >= *d).unwrap_or(false),
        GenometricClause::MinDist(_) => true, // enforced by candidate generation
        GenometricClause::Upstream => a.is_upstream_of_me(b),
        GenometricClause::Downstream => a.is_downstream_of_me(b),
    })
}

/// Where the output region of a qualifying pair lies; `None` for an
/// intersection of regions that do not overlap. Its cells are the left
/// region's then the right one's, matching the prefixed output schema.
fn output_coords<'a>(
    a: &'a GRegion,
    b: &'a GRegion,
    output: JoinOutput,
) -> Option<(&'a Chrom, u64, u64, Strand)> {
    Some(match output {
        JoinOutput::Left => (&a.chrom, a.left, a.right, a.strand),
        JoinOutput::Right => (&b.chrom, b.left, b.right, b.strand),
        JoinOutput::Intersection => {
            if !a.overlaps(b) {
                return None;
            }
            (&a.chrom, a.left.max(b.left), a.right.min(b.right), combined_strand(a, b))
        }
        JoinOutput::Contig => {
            (&a.chrom, a.left.min(b.left), a.right.max(b.right), combined_strand(a, b))
        }
    })
}

fn combined_strand(a: &GRegion, b: &GRegion) -> Strand {
    match (a.strand, b.strand) {
        (x, y) if x == y => x,
        (Strand::Unstranded, y) => y,
        (x, Strand::Unstranded) => x,
        _ => Strand::Unstranded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Operator;
    use crate::plan::infer_schema;
    use nggc_gdm::{Attribute, Metadata, Value, ValueType};

    fn genes() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("gene", ValueType::Str)]).unwrap();
        let mut ds = Dataset::new("GENES", schema);
        ds.add_sample(Sample::new("g", "GENES").with_regions(vec![
            GRegion::new("chr1", 1000, 2000, Strand::Pos).with_values(vec![Value::Str("A".into())]),
            GRegion::new("chr1", 10_000, 11_000, Strand::Neg)
                .with_values(vec![Value::Str("B".into())]),
        ]))
        .unwrap();
        ds
    }

    fn peaks() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("PEAKS", schema);
        ds.add_sample(Sample::new("p", "PEAKS").with_regions(vec![
            GRegion::new("chr1", 500, 600, Strand::Unstranded).with_values(vec![1.0.into()]),
            GRegion::new("chr1", 1500, 1600, Strand::Unstranded).with_values(vec![2.0.into()]),
            GRegion::new("chr1", 11_200, 11_300, Strand::Unstranded).with_values(vec![3.0.into()]),
            GRegion::new("chr1", 50_000, 50_100, Strand::Unstranded).with_values(vec![4.0.into()]),
        ]))
        .unwrap();
        ds
    }

    fn run(clauses: Vec<GenometricClause>, output: JoinOutput) -> Dataset {
        let l = genes();
        let r = peaks();
        let op = Operator::Join { clauses: clauses.clone(), output, joinby: vec![] };
        let schema = infer_schema(&op, &[&l.schema, &r.schema]).unwrap();
        let ctx = ExecContext::with_workers(2);
        join(&ctx, &clauses, output, &[], &l, &r, &schema).unwrap()
    }

    #[test]
    fn dle_keeps_nearby_pairs() {
        let out = run(vec![GenometricClause::DistLessEq(500)], JoinOutput::Left);
        let s = &out.samples[0];
        // Gene A (1000-2000): peaks at 500-600 (dist 400 ok), 1500-1600
        // (overlap ok). Gene B (10000-11000): peak 11200-11300 (dist 200 ok).
        assert_eq!(s.region_count(), 3);
        assert_eq!(out.schema.get("left.gene").unwrap().ty, ValueType::Str);
        assert_eq!(s.regions[0].values.len(), 2, "left + right attrs");
    }

    #[test]
    fn intersection_output_requires_overlap() {
        let out = run(vec![GenometricClause::DistLessEq(500)], JoinOutput::Intersection);
        let s = &out.samples[0];
        assert_eq!(s.region_count(), 1, "only the overlapping pair");
        assert_eq!((s.regions[0].left, s.regions[0].right), (1500, 1600));
        assert_eq!(s.regions[0].strand, Strand::Pos, "strand from the stranded side");
    }

    #[test]
    fn contig_output_spans_pair() {
        let out = run(vec![GenometricClause::DistLessEq(500)], JoinOutput::Contig);
        let spans: Vec<(u64, u64)> =
            out.samples[0].regions.iter().map(|r| (r.left, r.right)).collect();
        assert!(spans.contains(&(500, 2000)), "gene A + upstream peak hull");
    }

    #[test]
    fn md_nearest_only() {
        let out = run(vec![GenometricClause::MinDist(1)], JoinOutput::Right);
        let s = &out.samples[0];
        assert_eq!(s.region_count(), 2, "one nearest peak per gene");
        let rights: Vec<u64> = s.regions.iter().map(|r| r.left).collect();
        assert!(rights.contains(&1500), "gene A's nearest: overlapping peak");
        assert!(rights.contains(&11_200), "gene B's nearest");
    }

    #[test]
    fn upstream_respects_strand() {
        // Upstream of gene A (+, 1000-2000) = peaks ending before 1000.
        let out = run(vec![GenometricClause::Upstream], JoinOutput::Right);
        let s = &out.samples[0];
        // Gene A upstream: peak 500-600. Gene B is '-', upstream = right
        // side: peaks 11200-11300 and 50000-50100.
        assert_eq!(s.region_count(), 3);
    }

    #[test]
    fn dge_excludes_overlap() {
        let out = run(
            vec![GenometricClause::DistGreaterEq(1), GenometricClause::DistLessEq(500)],
            JoinOutput::Left,
        );
        let s = &out.samples[0];
        assert_eq!(s.region_count(), 2, "overlapping pair excluded by DGE(1)");
    }

    #[test]
    fn joinby_and_empty_pairs_dropped() {
        let mut l = genes();
        l.samples[0].metadata = Metadata::from_pairs([("cell", "HeLa")]);
        let mut r = peaks();
        r.samples[0].metadata = Metadata::from_pairs([("cell", "K562")]);
        let op = Operator::Join {
            clauses: vec![GenometricClause::DistLessEq(100)],
            output: JoinOutput::Left,
            joinby: vec!["cell".into()],
        };
        let schema = infer_schema(&op, &[&l.schema, &r.schema]).unwrap();
        let ctx = ExecContext::with_workers(1);
        let out = join(
            &ctx,
            &[GenometricClause::DistLessEq(100)],
            JoinOutput::Left,
            &["cell".to_string()],
            &l,
            &r,
            &schema,
        )
        .unwrap();
        assert_eq!(out.sample_count(), 0, "joinby mismatch drops the pair");
    }

    #[test]
    fn join_metadata_prefixed_both_sides() {
        let mut l = genes();
        l.samples[0].metadata = Metadata::from_pairs([("k", "1")]);
        let mut r = peaks();
        r.samples[0].metadata = Metadata::from_pairs([("k", "2")]);
        let op = Operator::Join {
            clauses: vec![GenometricClause::DistLessEq(500)],
            output: JoinOutput::Left,
            joinby: vec![],
        };
        let schema = infer_schema(&op, &[&l.schema, &r.schema]).unwrap();
        let ctx = ExecContext::with_workers(1);
        let out = join(
            &ctx,
            &[GenometricClause::DistLessEq(500)],
            JoinOutput::Left,
            &[],
            &l,
            &r,
            &schema,
        )
        .unwrap();
        let m = &out.samples[0].metadata;
        assert!(m.has("left.k", "1"));
        assert!(m.has("right.k", "2"));
    }
}
