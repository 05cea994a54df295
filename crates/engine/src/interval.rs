//! Interval kernels: overlap joins, gap joins, coverage, k-nearest.
//!
//! Every kernel operates on slices of regions restricted to **one
//! chromosome** and sorted in genome order (by `left`, then `right`) —
//! the shape produced by [`nggc_gdm::Sample::chrom_slice`]. Strand and
//! attribute predicates are applied by the caller; kernels deal purely
//! with coordinates so they can be benchmarked and property-tested in
//! isolation (DESIGN.md experiment E10 ablates the join strategies here).
//! Operators over *several* samples (COVER, MERGE, GROUP, DIFFERENCE's
//! negative set) do not pool and re-sort them: each sample's chromosome
//! slice is a sorted run, and [`merge_runs`] merges the runs as borrows.

use crate::par::CHECKPOINT_STRIDE;
use nggc_gdm::{interval_overlap, GRegion};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The two coordinates a sweep kernel reads: one kernel serves regions,
/// borrowed regions (a merged order of `&GRegion`) and coordinate pairs.
pub trait Interval {
    /// Left end (inclusive).
    fn left(&self) -> u64;
    /// Right end (exclusive).
    fn right(&self) -> u64;
}

impl Interval for GRegion {
    fn left(&self) -> u64 {
        self.left
    }
    fn right(&self) -> u64 {
        self.right
    }
}

impl<T: Interval> Interval for &T {
    fn left(&self) -> u64 {
        (**self).left()
    }
    fn right(&self) -> u64 {
        (**self).right()
    }
}

impl Interval for (u64, u64) {
    fn left(&self) -> u64 {
        self.0
    }
    fn right(&self) -> u64 {
        self.1
    }
}

/// K-way merge over sorted runs: a reference to every element of every
/// run, ordered by `cmp`; ties go to the lower run, then to the position
/// inside the run — the order a stable sort of the runs' concatenation
/// yields, because that is what this is, over borrows: the standard stable
/// sort finds the runs already in order and merges them, `O(n log k)` for
/// `k` runs, and nothing but pointers moves. (Measured against a heap of
/// run heads it is 1.3× faster at 8 runs and 1.4× at 32.)
pub fn merge_runs<'a, T>(runs: &[&'a [T]], cmp: impl Fn(&T, &T) -> Ordering) -> Vec<&'a T> {
    let mut order: Vec<&T> = runs.iter().flat_map(|run| run.iter()).collect();
    order.sort_by(|a, b| cmp(a, b));
    order
}

/// Emit every overlapping pair `(i, j)` by exhaustive comparison.
/// `O(n·m)`; reference implementation for tests and the ablation bench.
pub fn overlap_pairs_naive(
    left: &[GRegion],
    right: &[GRegion],
    mut emit: impl FnMut(usize, usize),
) {
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate() {
            if interval_overlap(a.left, a.right, b.left, b.right) {
                emit(i, j);
            }
        }
    }
}

/// Emit every overlapping pair via a chrom-sweep merge over the two sorted
/// slices (the strategy of BEDTools' `chromsweep`). `O(n + m + pairs)`
/// for realistic inputs.
pub fn overlap_pairs_sort_merge<A: Interval, B: Interval>(
    left: &[A],
    right: &[B],
    emit: impl FnMut(usize, usize),
) {
    overlap_pairs_sort_merge_interruptible(left, right, || false, emit);
}

/// [`overlap_pairs_sort_merge`] with a cooperative stop predicate,
/// polled once per left region and every [`CHECKPOINT_STRIDE`] candidate
/// pairs. When `stop` returns `true` the sweep abandons the remaining
/// pairs and returns — the hook that lets a query governor abort a
/// multi-second join mid-kernel instead of at the next node boundary.
pub fn overlap_pairs_sort_merge_interruptible<A: Interval, B: Interval>(
    left: &[A],
    right: &[B],
    mut stop: impl FnMut() -> bool,
    mut emit: impl FnMut(usize, usize),
) {
    debug_assert!(is_sorted(left) && is_sorted(right), "kernels require sorted input");
    let mut active: Vec<usize> = Vec::new();
    let mut j = 0;
    let mut tick = 0usize;
    for (i, a) in left.iter().enumerate() {
        if stop() {
            return;
        }
        // Admit right regions that start at or before a's end (`<=` keeps
        // zero-length candidates; the exact check below filters).
        while j < right.len() && right[j].left() <= a.right() {
            active.push(j);
            j += 1;
        }
        // Drop right regions that already ended before a starts. Later
        // left regions start no earlier, so dropping is final.
        active.retain(|&k| right[k].right() >= a.left());
        for &k in &active {
            tick = tick.wrapping_add(1);
            if tick & (CHECKPOINT_STRIDE - 1) == 0 && stop() {
                return;
            }
            if interval_overlap(a.left(), a.right(), right[k].left(), right[k].right()) {
                emit(i, k);
            }
        }
    }
}

/// Emit every pair whose genometric distance is at most `gap` (overlap and
/// adjacency count as distance ≤ 0). Exhaustive reference version.
pub fn gap_pairs_naive(
    left: &[GRegion],
    right: &[GRegion],
    gap: u64,
    mut emit: impl FnMut(usize, usize),
) {
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate() {
            if let Some(d) = a.distance(b) {
                if d <= gap as i64 {
                    emit(i, j);
                }
            }
        }
    }
}

/// Sort-merge variant of [`gap_pairs_naive`]: pairs within `gap` bases.
pub fn gap_pairs_sort_merge(
    left: &[GRegion],
    right: &[GRegion],
    gap: u64,
    emit: impl FnMut(usize, usize),
) {
    gap_pairs_sort_merge_interruptible(left, right, gap, || false, emit);
}

/// [`gap_pairs_sort_merge`] with a cooperative stop predicate, polled
/// once per left region and every [`CHECKPOINT_STRIDE`] candidate pairs;
/// `stop() == true` abandons the remaining pairs.
pub fn gap_pairs_sort_merge_interruptible(
    left: &[GRegion],
    right: &[GRegion],
    gap: u64,
    mut stop: impl FnMut() -> bool,
    mut emit: impl FnMut(usize, usize),
) {
    debug_assert!(is_sorted(left) && is_sorted(right), "kernels require sorted input");
    let mut active: Vec<usize> = Vec::new();
    let mut j = 0;
    let mut tick = 0usize;
    for (i, a) in left.iter().enumerate() {
        if stop() {
            return;
        }
        let admit_to = a.right.saturating_add(gap);
        while j < right.len() && right[j].left <= admit_to {
            active.push(j);
            j += 1;
        }
        let keep_from = a.left.saturating_sub(gap);
        active.retain(|&k| right[k].right >= keep_from);
        for &k in &active {
            tick = tick.wrapping_add(1);
            if tick & (CHECKPOINT_STRIDE - 1) == 0 && stop() {
                return;
            }
            if let Some(d) = a.distance(&right[k]) {
                if d <= gap as i64 {
                    emit(i, k);
                }
            }
        }
    }
}

/// A maximal segment of constant coverage produced by
/// [`coverage_segments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CovSeg {
    /// Segment start (inclusive).
    pub left: u64,
    /// Segment end (exclusive).
    pub right: u64,
    /// Number of input intervals covering the segment.
    pub acc: usize,
}

/// Sweep-line coverage: given intervals on one chromosome, return the
/// maximal segments with constant positive accumulation, in genome order.
/// This is the accumulation index underlying COVER / HISTOGRAM / SUMMIT /
/// FLAT. Zero-length intervals contribute no coverage and are skipped.
pub fn coverage_segments(intervals: &[(u64, u64)]) -> Vec<CovSeg> {
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(intervals.len() * 2);
    for &(l, r) in intervals {
        if r > l {
            events.push((l, 1));
            events.push((r, -1));
        }
    }
    if events.is_empty() {
        return Vec::new();
    }
    events.sort_unstable();
    let mut out = Vec::new();
    let mut acc: i64 = 0;
    let mut prev = events[0].0;
    let mut idx = 0;
    while idx < events.len() {
        let pos = events[idx].0;
        if pos > prev && acc > 0 {
            out.push(CovSeg { left: prev, right: pos, acc: acc as usize });
        }
        // Apply all events at this position at once.
        while idx < events.len() && events[idx].0 == pos {
            acc += events[idx].1;
            idx += 1;
        }
        prev = pos;
    }
    debug_assert_eq!(acc, 0, "events must balance");
    out
}

/// [`coverage_segments`] for intervals that arrive **sorted by left end**
/// (a [`merge_runs`] of per-sample chromosome slices): start events come
/// off the iterator, end events off a min-heap of the intervals still
/// open, so nothing is copied or sorted and every interval is touched
/// once. Same segments as `coverage_segments` on the same intervals.
pub fn coverage_sweep<I: Interval>(sorted_by_left: impl IntoIterator<Item = I>) -> Vec<CovSeg> {
    let mut out = Vec::new();
    let mut open: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut prev = 0;
    let starts = sorted_by_left.into_iter().map(|iv| (iv.left(), iv.right()));
    // One start past every end closes what is still open after the last.
    for (left, right) in starts.filter(|&(l, r)| r > l).chain([(u64::MAX, u64::MAX)]) {
        debug_assert!(left >= prev || open.is_empty(), "coverage_sweep requires left-sorted input");
        while let Some(&Reverse(end)) = open.peek().filter(|end| end.0 <= left) {
            if end > prev {
                out.push(CovSeg { left: prev, right: end, acc: open.len() });
                prev = end;
            }
            open.pop();
        }
        if left > prev && !open.is_empty() {
            out.push(CovSeg { left: prev, right: left, acc: open.len() });
        }
        prev = left;
        open.push(Reverse(right));
    }
    out
}

/// Merge coverage segments whose accumulation lies in `[min_acc,
/// max_acc]` into maximal contiguous regions, recording for each merged
/// region the maximum accumulation reached inside it. This is the core of
/// GMQL COVER(minAcc, maxAcc).
pub fn merge_cover(segments: &[CovSeg], min_acc: usize, max_acc: usize) -> Vec<(u64, u64, usize)> {
    let mut out: Vec<(u64, u64, usize)> = Vec::new();
    for seg in segments {
        if seg.acc < min_acc || seg.acc > max_acc {
            continue;
        }
        match out.last_mut() {
            Some(last) if last.1 == seg.left => {
                last.1 = seg.right;
                last.2 = last.2.max(seg.acc);
            }
            _ => out.push((seg.left, seg.right, seg.acc)),
        }
    }
    out
}

/// For each anchor region, the indices of (up to) `k` regions of `others`
/// at minimal genometric distance — the `MD(k)` genometric clause. Ties
/// are broken toward the earlier region. Overlapping regions have
/// distance ≤ 0 and therefore always rank closest.
pub fn k_nearest(anchors: &[GRegion], others: &[GRegion], k: usize) -> Vec<Vec<usize>> {
    k_nearest_interruptible(anchors, others, k, || false)
}

/// [`k_nearest`] with a cooperative stop predicate, polled once per
/// anchor. When `stop` fires the remaining anchors get empty neighbour
/// lists, so the result keeps its one-entry-per-anchor shape and callers
/// can still zip it — a governed executor turns the truncation into a
/// typed error at the node boundary.
pub fn k_nearest_interruptible(
    anchors: &[GRegion],
    others: &[GRegion],
    k: usize,
    mut stop: impl FnMut() -> bool,
) -> Vec<Vec<usize>> {
    debug_assert!(is_sorted(others), "k_nearest requires sorted `others`");
    if k == 0 || others.is_empty() {
        return vec![Vec::new(); anchors.len()];
    }
    // prefix_max_right[i] = max right end among others[0..=i]; gives a
    // lower bound on the distance of everything at or before i.
    let mut prefix_max_right = Vec::with_capacity(others.len());
    let mut m = 0;
    for o in others {
        m = m.max(o.right);
        prefix_max_right.push(m);
    }

    let mut out: Vec<Vec<usize>> = Vec::with_capacity(anchors.len());
    for a in anchors {
        if stop() {
            break;
        }
        {
            // Candidate pool: (distance, index), kept as a max-heap of size k.
            let mut heap: std::collections::BinaryHeap<(i64, usize)> =
                std::collections::BinaryHeap::new();
            let consider = |idx: usize, heap: &mut std::collections::BinaryHeap<(i64, usize)>| {
                let d = a.distance(&others[idx]).expect("same chromosome").max(0);
                if heap.len() < k {
                    heap.push((d, idx));
                } else if let Some(&(worst, widx)) = heap.peek() {
                    if d < worst || (d == worst && idx < widx) {
                        heap.pop();
                        heap.push((d, idx));
                    }
                }
            };
            let lo = others.partition_point(|o| o.left < a.left);
            // Upward scan: distance lower-bounded by others[j].left - a.right,
            // monotone in j — stop once it exceeds the current worst.
            let mut j = lo;
            while j < others.len() {
                if heap.len() == k {
                    let bound = others[j].left.saturating_sub(a.right) as i64;
                    if bound > heap.peek().map(|&(w, _)| w).unwrap_or(i64::MAX) {
                        break;
                    }
                }
                consider(j, &mut heap);
                j += 1;
            }
            // Downward scan: lower bound via prefix max of right ends.
            let mut i = lo;
            while i > 0 {
                i -= 1;
                if heap.len() == k {
                    let bound = a.left.saturating_sub(prefix_max_right[i]) as i64;
                    if bound > heap.peek().map(|&(w, _)| w).unwrap_or(i64::MAX) {
                        break;
                    }
                }
                consider(i, &mut heap);
            }
            let mut picked: Vec<(i64, usize)> = heap.into_vec();
            picked.sort_unstable();
            out.push(picked.into_iter().map(|(_, idx)| idx).collect());
        }
    }
    // Keep the one-entry-per-anchor contract even when stopped early.
    out.resize_with(anchors.len(), Vec::new);
    out
}

fn is_sorted<T: Interval>(rs: &[T]) -> bool {
    rs.windows(2).all(|w| (w[0].left(), w[0].right()) <= (w[1].left(), w[1].right()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::Strand;

    fn r(l: u64, rr: u64) -> GRegion {
        GRegion::new("chr1", l, rr, Strand::Unstranded)
    }

    fn collect_pairs(f: impl FnOnce(&mut dyn FnMut(usize, usize))) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        f(&mut |i, j| out.push((i, j)));
        out.sort_unstable();
        out
    }

    #[test]
    fn sort_merge_matches_naive() {
        let left = vec![r(0, 10), r(5, 20), r(30, 40), r(40, 41)];
        let right = vec![r(0, 3), r(8, 9), r(15, 35), r(39, 45), r(100, 110)];
        let naive = collect_pairs(|e| overlap_pairs_naive(&left, &right, e));
        let merge = collect_pairs(|e| overlap_pairs_sort_merge(&left, &right, e));
        assert_eq!(naive, merge);
        assert!(!naive.is_empty());
    }

    #[test]
    fn gap_pairs_include_nearby() {
        let left = vec![r(0, 10)];
        let right = vec![r(5, 8), r(15, 20), r(25, 30)];
        let got = collect_pairs(|e| gap_pairs_sort_merge(&left, &right, 5, e));
        // [5,8) overlap ok; distance to [15,20) = 5 ok; [25,30) = 15 no.
        assert_eq!(got, vec![(0, 0), (0, 1)]);
        let naive = collect_pairs(|e| gap_pairs_naive(&left, &right, 5, e));
        let mut naive_sorted = naive;
        naive_sorted.sort_unstable();
        assert_eq!(got, naive_sorted);
    }

    #[test]
    fn coverage_simple_stack() {
        // Figure-4-style accumulation: three overlapping intervals.
        let segs = coverage_segments(&[(0, 10), (5, 15), (5, 8)]);
        assert_eq!(
            segs,
            vec![
                CovSeg { left: 0, right: 5, acc: 1 },
                CovSeg { left: 5, right: 8, acc: 3 },
                CovSeg { left: 8, right: 10, acc: 2 },
                CovSeg { left: 10, right: 15, acc: 1 },
            ]
        );
    }

    #[test]
    fn coverage_skips_zero_length_and_empty() {
        assert!(coverage_segments(&[]).is_empty());
        assert!(coverage_segments(&[(5, 5)]).is_empty());
    }

    #[test]
    fn coverage_disjoint_gap() {
        let segs = coverage_segments(&[(0, 5), (10, 15)]);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1], CovSeg { left: 10, right: 15, acc: 1 });
    }

    #[test]
    fn merge_runs_orders_like_a_stable_sort_of_the_concatenation() {
        // Equal coordinates in several runs: the lower run goes first,
        // then the position inside the run.
        let tag = |l, rr, s| GRegion::new("chr1", l, rr, s);
        let runs = [
            vec![tag(0, 10, Strand::Pos), tag(5, 9, Strand::Pos), tag(5, 9, Strand::Unstranded)],
            vec![],
            vec![tag(0, 10, Strand::Pos), tag(5, 9, Strand::Neg), tag(40, 41, Strand::Pos)],
            vec![tag(3, 4, Strand::Pos)],
        ];
        let slices: Vec<&[GRegion]> = runs.iter().map(Vec::as_slice).collect();
        let place = |r: &GRegion| {
            let run = runs.iter().position(|run| run.as_ptr_range().contains(&(r as *const _)));
            (run.unwrap(), r.left)
        };
        let merged: Vec<(usize, u64)> =
            merge_runs(&slices, GRegion::cmp_coords).into_iter().map(place).collect();
        assert_eq!(merged, vec![(0, 0), (2, 0), (3, 3), (0, 5), (2, 5), (0, 5), (2, 40)]);
        assert!(merge_runs(&[], GRegion::cmp_coords).is_empty());
    }

    #[test]
    fn coverage_sweep_equals_the_reference_on_sorted_input() {
        for intervals in [
            vec![],
            vec![(5, 5)],
            vec![(0, 10), (5, 15), (5, 8)],
            vec![(0, 5), (10, 15)],
            vec![(0, 5), (0, 5), (5, 10), (7, 7), (9, 30), (10, 12), (30, 31)],
        ] {
            let mut sorted: Vec<(u64, u64)> = intervals.clone();
            sorted.sort_unstable();
            assert_eq!(coverage_sweep(sorted), coverage_segments(&intervals), "{intervals:?}");
        }
        // Regions and borrowed regions sweep like their coordinates.
        let regions = vec![r(0, 10), r(5, 15)];
        assert_eq!(coverage_sweep(&regions), coverage_segments(&[(0, 10), (5, 15)]));
    }

    #[test]
    fn sort_merge_kernel_takes_borrowed_regions_and_coordinate_pairs() {
        let left = vec![r(0, 10), r(5, 20), r(30, 40), r(40, 41)];
        let right = vec![r(0, 3), r(8, 9), r(15, 35), r(39, 45), r(100, 110)];
        let owned = collect_pairs(|e| overlap_pairs_sort_merge(&left, &right, e));
        let borrowed: Vec<&GRegion> = right.iter().collect();
        assert_eq!(collect_pairs(|e| overlap_pairs_sort_merge(&left, &borrowed, e)), owned);
        let pairs: Vec<(u64, u64)> = right.iter().map(|x| (x.left, x.right)).collect();
        assert_eq!(collect_pairs(|e| overlap_pairs_sort_merge(&left, &pairs, e)), owned);
    }

    #[test]
    fn merge_cover_joins_adjacent_qualifying_segments() {
        let segs = coverage_segments(&[(0, 10), (5, 15)]);
        // acc >= 1 everywhere: one merged region with max acc 2.
        assert_eq!(merge_cover(&segs, 1, usize::MAX), vec![(0, 15, 2)]);
        // acc >= 2 only in the middle.
        assert_eq!(merge_cover(&segs, 2, usize::MAX), vec![(5, 10, 2)]);
        // acc == 1: two flanks, NOT merged across the acc-2 middle.
        assert_eq!(merge_cover(&segs, 1, 1), vec![(0, 5, 1), (10, 15, 1)]);
    }

    #[test]
    fn interruptible_kernels_stop_early_and_match_when_not_stopped() {
        let left: Vec<GRegion> = (0..100).map(|i| r(i * 10, i * 10 + 15)).collect();
        let right = left.clone();
        // stop = never: identical output to the plain kernels.
        let plain = collect_pairs(|e| overlap_pairs_sort_merge(&left, &right, e));
        let interruptible =
            collect_pairs(|e| overlap_pairs_sort_merge_interruptible(&left, &right, || false, e));
        assert_eq!(plain, interruptible);
        // stop = immediately: no pairs at all.
        let mut n = 0;
        overlap_pairs_sort_merge_interruptible(&left, &right, || true, |_, _| n += 1);
        assert_eq!(n, 0);
        let mut n = 0;
        gap_pairs_sort_merge_interruptible(&left, &right, 50, || true, |_, _| n += 1);
        assert_eq!(n, 0);
        // stop after a few polls: strictly fewer pairs than the full run.
        let full = collect_pairs(|e| gap_pairs_sort_merge(&left, &right, 50, e));
        let mut polls = 0;
        let mut partial = 0;
        gap_pairs_sort_merge_interruptible(
            &left,
            &right,
            50,
            || {
                polls += 1;
                polls > 3
            },
            |_, _| partial += 1,
        );
        assert!(partial < full.len(), "{partial} pairs should be cut short of {}", full.len());
    }

    #[test]
    fn k_nearest_interruptible_keeps_shape() {
        let anchors: Vec<GRegion> = (0..10).map(|i| r(i * 100, i * 100 + 10)).collect();
        let others = anchors.clone();
        let full = k_nearest_interruptible(&anchors, &others, 2, || false);
        assert_eq!(full, k_nearest(&anchors, &others, 2));
        let mut polls = 0;
        let stopped = k_nearest_interruptible(&anchors, &others, 2, || {
            polls += 1;
            polls > 3
        });
        assert_eq!(stopped.len(), anchors.len(), "one entry per anchor even when stopped");
        assert!(stopped[0] == full[0] && stopped.last().unwrap().is_empty());
    }

    #[test]
    fn k_nearest_basic() {
        let anchors = vec![r(100, 110)];
        let others = vec![r(0, 10), r(80, 90), r(105, 108), r(150, 160), r(400, 410)];
        let got = k_nearest(&anchors, &others, 3);
        // Distances: 89, 10, overlap(0), 40, 290 → picks indices 2,1,3.
        assert_eq!(got[0], vec![2, 1, 3]);
    }

    #[test]
    fn k_nearest_prefix_pruning_correct_with_long_early_region() {
        // A very long region early in the list overlaps the anchor even
        // though many closer-left regions do not.
        let anchors = vec![r(1000, 1010)];
        let others = vec![r(0, 2000), r(500, 510), r(900, 910), r(960, 970)];
        let got = k_nearest(&anchors, &others, 1);
        assert_eq!(got[0], vec![0], "the overlapping long region wins");
    }

    #[test]
    fn k_nearest_k_zero_or_empty_others() {
        let anchors = vec![r(0, 10)];
        assert_eq!(k_nearest(&anchors, &[], 2), vec![Vec::<usize>::new()]);
        let others = vec![r(0, 5)];
        assert_eq!(k_nearest(&anchors, &others, 0), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn k_nearest_more_than_available() {
        let anchors = vec![r(50, 60)];
        let others = vec![r(0, 10), r(100, 110)];
        let got = k_nearest(&anchors, &others, 5);
        assert_eq!(got[0].len(), 2);
    }
}
