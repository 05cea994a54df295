//! DIFFERENCE: remove left regions intersecting right regions.
//!
//! For each left sample, the "negative set" is the union of regions of
//! every right sample that matches on the optional `joinby` attributes.
//! A left region survives when it overlaps **no** negative region
//! (strand-compatibly); with `exact: true` only coordinate-identical
//! negatives remove it.

use crate::error::GmqlError;
use crate::ops::{joinby_matches, Reuse};
use nggc_engine::{
    merge_runs, overlap_pairs_sort_merge_interruptible, ExecContext, CHECKPOINT_STRIDE,
};
use nggc_gdm::{Dataset, GRegion, Provenance, Sample};
use std::cell::Cell;
use std::cmp::Ordering;

/// Execute DIFFERENCE. A left sample that loses no region shares its
/// buffer; otherwise only its survivors are copied.
pub fn difference(
    ctx: &ExecContext,
    exact: bool,
    joinby: &[String],
    left: &Dataset,
    right: &Dataset,
    reuse: &Reuse,
) -> Result<Dataset, GmqlError> {
    let detail = format!("exact: {exact}; joinby: {}", joinby.join(","));

    let samples = ctx.map_samples(&left.samples, |ls| {
        let negatives: Vec<&Sample> = right
            .samples
            .iter()
            .filter(|rs| joinby_matches(&ls.metadata, &rs.metadata, joinby))
            .collect();

        // Per-chromosome removal using the sort-merge kernel.
        let kept: Vec<&GRegion> = ls
            .chromosomes()
            .into_iter()
            .flat_map(|c| {
                // Chromosome-boundary checkpoint: a tripped governor
                // stops the removal scan; the executor raises the typed
                // error when the operator returns.
                if ctx.interrupted() {
                    return Vec::new();
                }
                let mine = ls.chrom_slice(&c);
                // The negative set of this chromosome: the matching
                // samples' slices merged into one genome order of borrows.
                let runs: Vec<&[GRegion]> = negatives.iter().map(|s| s.chrom_slice(&c)).collect();
                let theirs = merge_runs(&runs, GRegion::cmp_coords);
                let mut removed = vec![false; mine.len()];
                if exact {
                    // Both sides are in genome order, so one forward walk
                    // meets every region's coordinate twin, if it has one.
                    let mut twins = theirs.iter().peekable();
                    for (i, r) in mine.iter().enumerate() {
                        if i & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                            break;
                        }
                        while twins.next_if(|n| n.cmp_coords(r) == Ordering::Less).is_some() {}
                        removed[i] =
                            twins.peek().is_some_and(|n| n.cmp_coords(r) == Ordering::Equal);
                    }
                } else {
                    let tripped = Cell::new(false);
                    let tick = Cell::new(0usize);
                    let stop = || tripped.get() || ctx.interrupted();
                    overlap_pairs_sort_merge_interruptible(mine, &theirs, stop, |i, j| {
                        if tripped.get() {
                            return;
                        }
                        let t = tick.get();
                        tick.set(t.wrapping_add(1));
                        if t & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                            tripped.set(true);
                            return;
                        }
                        if mine[i].strand.compatible(theirs[j].strand) {
                            removed[i] = true;
                        }
                    });
                }
                mine.iter()
                    .zip(removed)
                    .filter(|&(_r, gone)| !gone)
                    .map(|(r, _gone)| r)
                    .collect::<Vec<_>>()
            })
            .collect();

        let mut provs = vec![ls.provenance.clone()];
        provs.extend(negatives.iter().map(|s| s.provenance.clone()));
        let mut out = Sample::derived(
            ls.name.clone(),
            Provenance::derived("DIFFERENCE", detail.clone(), provs),
        );
        out.metadata = ls.metadata.clone();
        out.regions = reuse.keep(&ls.regions, kept);
        out
    });

    let mut out = Dataset::new(left.name.clone(), left.schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Metadata, Schema, Strand};

    fn mk(
        name: &str,
        ds: &str,
        regions: Vec<(u64, u64, Strand)>,
        meta: Vec<(&str, &str)>,
    ) -> Sample {
        Sample::new(name, ds)
            .with_regions(
                regions.into_iter().map(|(l, r, s)| GRegion::new("chr1", l, r, s)).collect(),
            )
            .with_metadata(Metadata::from_pairs(meta))
    }

    #[test]
    fn overlapping_regions_removed() {
        let mut a = Dataset::new("A", Schema::empty());
        a.add_sample(mk(
            "s",
            "A",
            vec![(0, 10, Strand::Unstranded), (20, 30, Strand::Unstranded)],
            vec![],
        ))
        .unwrap();
        let mut b = Dataset::new("B", Schema::empty());
        b.add_sample(mk("n", "B", vec![(5, 8, Strand::Unstranded)], vec![])).unwrap();
        let ctx = ExecContext::with_workers(2);
        let out = difference(&ctx, false, &[], &a, &b, &Reuse::default()).unwrap();
        assert_eq!(out.samples[0].region_count(), 1);
        assert_eq!(out.samples[0].regions[0].left, 20);
    }

    #[test]
    fn strand_incompatible_negatives_do_not_remove() {
        let mut a = Dataset::new("A", Schema::empty());
        a.add_sample(mk("s", "A", vec![(0, 10, Strand::Pos)], vec![])).unwrap();
        let mut b = Dataset::new("B", Schema::empty());
        b.add_sample(mk("n", "B", vec![(0, 10, Strand::Neg)], vec![])).unwrap();
        let ctx = ExecContext::with_workers(1);
        let out = difference(&ctx, false, &[], &a, &b, &Reuse::default()).unwrap();
        assert_eq!(out.samples[0].region_count(), 1, "opposite strands never intersect");
    }

    #[test]
    fn exact_requires_identical_coordinates() {
        let mut a = Dataset::new("A", Schema::empty());
        a.add_sample(mk(
            "s",
            "A",
            vec![(0, 10, Strand::Unstranded), (20, 30, Strand::Unstranded)],
            vec![],
        ))
        .unwrap();
        let mut b = Dataset::new("B", Schema::empty());
        b.add_sample(mk(
            "n",
            "B",
            vec![(0, 9, Strand::Unstranded), (20, 30, Strand::Unstranded)],
            vec![],
        ))
        .unwrap();
        let ctx = ExecContext::with_workers(1);
        let out = difference(&ctx, true, &[], &a, &b, &Reuse::default()).unwrap();
        assert_eq!(out.samples[0].region_count(), 1);
        assert_eq!(out.samples[0].regions[0].left, 0, "overlap-but-not-equal survives");
    }

    #[test]
    fn a_sample_that_loses_nothing_shares_its_buffer() {
        let mut a = Dataset::new("A", Schema::empty());
        let keep = vec![(0, 10, Strand::Unstranded), (20, 30, Strand::Unstranded)];
        a.add_sample(mk("s", "A", keep, vec![])).unwrap();
        let mut b = Dataset::new("B", Schema::empty());
        b.add_sample(mk("n", "B", vec![(40, 50, Strand::Unstranded)], vec![])).unwrap();
        let ctx = ExecContext::with_workers(1);
        let reuse = Reuse::default();
        let out = difference(&ctx, false, &[], &a, &b, &reuse).unwrap();
        assert!(nggc_gdm::Regions::ptr_eq(&out.samples[0].regions, &a.samples[0].regions));
        assert_eq!((reuse.shared(), reuse.copied()), (1, 0));
        // One removed: the survivor is copied.
        b.samples[0] = mk("n", "B", vec![(5, 8, Strand::Unstranded)], vec![]);
        let reuse = Reuse::default();
        difference(&ctx, false, &[], &a, &b, &reuse).unwrap();
        assert_eq!((reuse.shared(), reuse.copied()), (0, 1));
    }

    #[test]
    fn joinby_restricts_negative_set() {
        let mut a = Dataset::new("A", Schema::empty());
        a.add_sample(mk("s", "A", vec![(0, 10, Strand::Unstranded)], vec![("cell", "HeLa")]))
            .unwrap();
        let mut b = Dataset::new("B", Schema::empty());
        b.add_sample(mk("n", "B", vec![(0, 10, Strand::Unstranded)], vec![("cell", "K562")]))
            .unwrap();
        let ctx = ExecContext::with_workers(1);
        let out = difference(&ctx, false, &["cell".into()], &a, &b, &Reuse::default()).unwrap();
        assert_eq!(out.samples[0].region_count(), 1, "different cell: negative ignored");
        let out2 = difference(&ctx, false, &[], &a, &b, &Reuse::default()).unwrap();
        assert_eq!(out2.samples[0].region_count(), 0, "no joinby: removed");
    }
}
