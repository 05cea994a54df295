//! Dataset-level parallel execution helpers.
//!
//! GMQL operations "implicitly iterate over all the samples of their
//! operand datasets" (paper §2); sample iteration is therefore the outer
//! parallel dimension, and per-chromosome sharding the inner one —
//! exactly the (sample × genome-partition) decomposition the GMQL cloud
//! implementations use. [`ExecContext`] bundles the pool, the
//! interruption state and the width every operator receives.
//!
//! The **width** caps how many of one query's jobs run at once. A query
//! that has the machine to itself uses every worker; one that shares the
//! pool with other requests gets a share of it, and at width 1 its maps
//! run inline on whichever thread executes the query.
//!
//! An operator **fans out once**: a map called from inside a job of
//! another runs inline on that job's thread, so MAP and JOIN spread their
//! sample pairs over the pool and run each pair's chromosomes in the
//! pair's job. A map of one item runs inline without becoming a job, so
//! the map inside it — one pair's chromosomes, one group's — is the one
//! that fans out. And an operator whose inputs hold fewer than
//! [`POOL_MIN_REGIONS`] regions together runs at width 1
//! ([`ExecContext::for_regions`]): its work would not pay for the jobs.

use crate::interrupt::{Interrupt, InterruptState};
use crate::pool::WorkerPool;
use nggc_gdm::{Chrom, GRegion, Sample};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::Cell;
use std::cmp;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How many hot-loop iterations an operator kernel may run between
/// interrupt polls. A power of two so the check compiles to a mask.
pub const CHECKPOINT_STRIDE: usize = 1024;

/// Fewest regions an operator's inputs must hold together for its maps to
/// go through the pool. Measured on a 2-thread host, 2 workers against
/// width 1, MAP and JOIN of one promoter sample against 8 peak samples
/// and COVER of 8 peak samples, 24 chromosomes (the `pool_floor` group of
/// `cargo bench -p nggc-bench --bench operators -- --bench`, and medians
/// of 200–300 interleaved runs): at about 1 300 regions MAP ran 1.4–1.5×
/// slower on the pool, from 1 400 to 2 400 regions the pool won or lost by
/// turns (MAP once 1.55× slower), from 3 300 on it was never slower, and
/// from 6 000 to 21 000 it won by 10–37 % in every run. The floor sits
/// above the band in which the pool could lose.
pub const POOL_MIN_REGIONS: usize = 4096;

thread_local! {
    /// Set while this thread runs a job or a lane of a map: a map nested
    /// inside runs inline, so each operator fans out once and the lanes
    /// stay the only threads working on the query.
    static IN_LANE: Cell<bool> = const { Cell::new(false) };
}

/// Marks this thread as running a job or a lane until dropped (a panic
/// in it unwinds through the drop too).
struct LaneGuard {
    was: bool,
}

impl LaneGuard {
    fn enter() -> LaneGuard {
        LaneGuard { was: IN_LANE.with(|l| l.replace(true)) }
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        IN_LANE.with(|l| l.set(self.was));
    }
}

/// Execution context shared by all operators of a query.
#[derive(Debug, Clone)]
pub struct ExecContext {
    pool: Arc<WorkerPool>,
    interrupt: Option<Arc<InterruptState>>,
    /// Most jobs of this query's maps that run at once (≥ 1).
    width: usize,
}

impl ExecContext {
    /// Context over an existing pool, at the pool's full width.
    pub fn new(pool: Arc<WorkerPool>) -> ExecContext {
        let width = pool.workers();
        ExecContext { pool, interrupt: None, width }
    }

    /// Context with `workers` threads.
    pub fn with_workers(workers: usize) -> ExecContext {
        ExecContext::new(Arc::new(WorkerPool::new(workers)))
    }

    /// Serial context (one worker) — the baseline of experiment E6.
    pub fn serial() -> ExecContext {
        ExecContext::with_workers(1)
    }

    /// Attach cooperative interruption state. Operator kernels poll it
    /// at [`CHECKPOINT_STRIDE`] granularity via
    /// [`interrupted`](Self::interrupted)/[`checkpoint`](Self::checkpoint),
    /// and the per-chromosome fan-out skips kernels wholesale once the
    /// state has tripped.
    pub fn with_interrupt(mut self, state: Arc<InterruptState>) -> ExecContext {
        self.interrupt = Some(state);
        self
    }

    /// The attached interruption state, if any.
    pub fn interrupt_state(&self) -> Option<&Arc<InterruptState>> {
        self.interrupt.as_ref()
    }

    /// Cheap hot-loop check: should the current kernel stop early?
    /// Kernels that observe `true` truncate their output and return;
    /// the caller (operator / executor) raises the authoritative typed
    /// error by consulting [`checkpoint`](Self::checkpoint).
    #[inline]
    pub fn interrupted(&self) -> bool {
        match &self.interrupt {
            Some(st) => st.poll().is_some(),
            None => false,
        }
    }

    /// Checkpoint as a `Result`, for `?`-style use between stages.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), Interrupt> {
        match &self.interrupt {
            Some(st) => st.check(),
            None => Ok(()),
        }
    }

    /// The same context with its maps capped at `width` jobs at once
    /// (at least 1; a width of the pool's size or more is the full pool).
    pub fn with_width(mut self, width: usize) -> ExecContext {
        self.width = width.max(1);
        self
    }

    /// Most jobs of one map that run at once.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The context for an operator whose inputs hold `regions` regions
    /// together: this one, or below [`POOL_MIN_REGIONS`] the same at
    /// width 1, whose maps run inline on the calling thread.
    pub fn for_regions(&self, regions: usize) -> Cow<'_, ExecContext> {
        if regions < POOL_MIN_REGIONS && self.width > 1 {
            Cow::Owned(self.clone().with_width(1))
        } else {
            Cow::Borrowed(self)
        }
    }

    /// The worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// True when a map of `n` items runs on the calling thread: one item
    /// or none, width 1, or a map inside a job or a lane of another. An
    /// inline map marks nothing, so a map inside its one item can still
    /// fan out.
    fn inline(&self, n: usize) -> bool {
        n <= 1 || self.width == 1 || IN_LANE.with(Cell::get)
    }

    /// Apply `f` to every item, at most [`width`](Self::width) at a
    /// time, returning results in input order (see
    /// [`run_indexed`](Self::run_indexed)).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.inline(n) {
            return items.into_iter().map(f).collect();
        }
        let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run_indexed(n, &|i| {
            let item = items[i].lock().take().expect("each index runs once");
            *results[i].lock() = Some(f(item));
        });
        results.into_iter().map(|r| r.into_inner().expect("every index ran")).collect()
    }

    /// [`map`](Self::map) over the indices `0..n`, in contiguous chunks
    /// of about a quarter of a lane's share each.
    fn map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.inline(n) {
            return (0..n).map(f).collect();
        }
        let chunks = chunk_bounds(n, self.width * 4);
        let per: Vec<Vec<R>> = self.map(chunks, |(a, b)| (a..b).map(&f).collect());
        per.into_iter().flatten().collect()
    }

    /// Run `body(i)` for every `i` in `0..n` (a map that does not run
    /// [`inline`](Self::inline)), at most [`width`](Self::width) at a
    /// time. At the pool's width each index is one
    /// [`WorkerPool::parallel_map`] job, the caller helping. Below it
    /// `width` lanes run through the pool, each taking the next index
    /// until none is left. Inside a job or a lane, a map runs inline.
    /// `body` is a trait object so that the pool code is compiled once,
    /// not once per operator.
    fn run_indexed(&self, n: usize, body: &(dyn Fn(usize) + Sync)) {
        if self.width >= self.pool.workers() {
            self.pool.parallel_map((0..n).collect(), |i| {
                let _job = LaneGuard::enter();
                body(i)
            });
            return;
        }
        let lanes = self.width.min(n);
        // Hands out indices only: items and results have locks of their
        // own, and `parallel_map` orders the lanes' ends before its return.
        let next = AtomicUsize::new(0);
        self.pool.parallel_map((0..lanes).collect(), |_: usize| {
            let _lane = LaneGuard::enter();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                body(i);
            }
        });
    }

    /// Transform every sample in parallel (the implicit iteration of
    /// unary GMQL operators). Order is preserved.
    pub fn map_samples<R, F>(&self, samples: &[Sample], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Sample) -> R + Sync,
    {
        self.map(samples.iter().collect(), f)
    }

    /// Transform every (reference sample, experiment sample) pair in
    /// parallel — the iteration shape of MAP and JOIN, which produce one
    /// result sample per pair. Results are in row-major order
    /// (`refs[0]×exps[0..]`, then `refs[1]×exps[0..]`, …).
    pub fn map_sample_pairs<R, F>(&self, refs: &[Sample], exps: &[Sample], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Sample, &Sample) -> R + Sync,
    {
        if refs.is_empty() || exps.is_empty() {
            return Vec::new();
        }
        // Dispatch by flat index instead of materialising the refs×exps
        // pair Vec up front: a huge cross-product costs O(workers) setup
        // allocation here, not O(n·m) pair references before any work
        // starts.
        let m = exps.len();
        self.map_range(refs.len() * m, |i| f(&refs[i / m], &exps[i % m]))
    }

    /// Run a per-chromosome kernel over two samples in parallel and
    /// concatenate the per-chromosome outputs in genome order. The
    /// chromosome list is the union of both samples' chromosomes; the
    /// kernel's slices borrow from the samples, so what it returns may
    /// hold them.
    pub fn map_common_chroms<'a, R, F>(&self, a: &'a Sample, b: &'a Sample, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&'a Chrom, &'a [GRegion], &'a [GRegion]) -> Vec<R> + Sync,
    {
        let (a, b): (&'a [GRegion], &'a [GRegion]) = (&a.regions, &b.regions);
        let per_chrom = self.map(common_runs(a, b), |(c, ra, rb)| {
            // Checkpoint at the job boundary: once the interrupt trips,
            // queued chromosome kernels become no-ops instead of running
            // to completion, so cancellation latency is bounded by one
            // kernel, not the whole fan-out.
            if self.interrupted() {
                return Vec::new();
            }
            f(c, &a[ra], &b[rb])
        });
        per_chrom.into_iter().flatten().collect()
    }
}

/// The chromosome runs of regions in genome order: each run's chromosome
/// and where it lies. Gallops, comparing handles rather than ordering
/// names, as [`Sample::chromosomes`] does.
fn runs(regions: &[GRegion]) -> Vec<(&Chrom, Range<usize>)> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(first) = regions.get(start) {
        let end = start + regions[start..].partition_point(|r| r.chrom == first.chrom);
        out.push((&first.chrom, start..end));
        start = end;
    }
    out
}

/// The union of the chromosomes of `a` and `b`, both in genome order,
/// each with its run in either (empty where it has none): a merge of
/// their runs, so only run heads are ordered by name. Names that order
/// alike but differ (`chr01`, `chr1`) are different chromosomes.
fn common_runs<'a>(
    a: &'a [GRegion],
    b: &'a [GRegion],
) -> Vec<(&'a Chrom, Range<usize>, Range<usize>)> {
    let (ra, rb) = (runs(a), runs(b));
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(ra.len().max(rb.len()));
    while i < ra.len() || j < rb.len() {
        let next = match (ra.get(i), rb.get(j)) {
            (Some(x), Some(y)) if x.0 == y.0 => cmp::Ordering::Equal,
            (Some(x), Some(y)) => x.0.cmp(y.0).then(cmp::Ordering::Less),
            (Some(_), None) => cmp::Ordering::Less,
            (None, _) => cmp::Ordering::Greater,
        };
        match next {
            cmp::Ordering::Less => {
                out.push((ra[i].0, ra[i].1.clone(), 0..0));
                i += 1;
            }
            cmp::Ordering::Greater => {
                out.push((rb[j].0, 0..0, rb[j].1.clone()));
                j += 1;
            }
            cmp::Ordering::Equal => {
                out.push((ra[i].0, ra[i].1.clone(), rb[j].1.clone()));
                (i, j) = (i + 1, j + 1);
            }
        }
    }
    out
}

/// `0..n` cut into at most `chunks` contiguous, non-empty `(start, end)`
/// ranges of near-equal length, in order.
fn chunk_bounds(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, n.max(1));
    let chunk = n.div_ceil(chunks);
    (0..chunks).map(|c| (c * chunk, ((c + 1) * chunk).min(n))).filter(|(a, b)| a < b).collect()
}

/// Union of the chromosomes of `samples`, in genome order.
pub fn union_chroms<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<Chrom> {
    let mut out: Vec<Chrom> = samples.into_iter().flat_map(Sample::chromosomes).collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::Strand;

    fn sample(name: &str, regions: Vec<(&str, u64, u64)>) -> Sample {
        Sample::new(name, "T").with_regions(
            regions
                .into_iter()
                .map(|(c, l, r)| GRegion::new(c, l, r, Strand::Unstranded))
                .collect(),
        )
    }

    #[test]
    fn map_samples_preserves_order() {
        let ctx = ExecContext::with_workers(4);
        let samples: Vec<Sample> =
            (0..20).map(|i| sample(&format!("s{i}"), vec![("chr1", i, i + 1)])).collect();
        let names = ctx.map_samples(&samples, |s| s.name.clone());
        assert_eq!(names[0], "s0");
        assert_eq!(names[19], "s19");
    }

    #[test]
    fn map_sample_pairs_row_major() {
        let ctx = ExecContext::with_workers(2);
        let refs = vec![sample("r0", vec![]), sample("r1", vec![])];
        let exps = vec![sample("e0", vec![]), sample("e1", vec![]), sample("e2", vec![])];
        let got = ctx.map_sample_pairs(&refs, &exps, |r, e| format!("{}x{}", r.name, e.name));
        assert_eq!(got, vec!["r0xe0", "r0xe1", "r0xe2", "r1xe0", "r1xe1", "r1xe2"]);
    }

    #[test]
    fn map_common_chroms_covers_union_in_order() {
        let ctx = ExecContext::with_workers(3);
        let a = sample("a", vec![("chr2", 0, 5), ("chr10", 0, 5)]);
        let b = sample("b", vec![("chr1", 0, 5), ("chr2", 3, 9)]);
        let out = ctx.map_common_chroms(&a, &b, |c, ra, rb| {
            vec![format!("{}:{}x{}", c, ra.len(), rb.len())]
        });
        assert_eq!(out, vec!["chr1:0x1", "chr2:1x1", "chr10:1x0"]);
        // `chr01` orders as `chr1` but is another chromosome.
        let a = sample("a", vec![("chr01", 0, 5), ("chr2", 0, 5)]);
        let out = ctx.map_common_chroms(&a, &b, |c, ra, rb| {
            vec![format!("{}:{}x{}", c, ra.len(), rb.len())]
        });
        assert_eq!(out, vec!["chr01:1x0", "chr1:0x1", "chr2:1x1"]);
    }

    /// Runs `f` while keeping `running` / `high` as a concurrency
    /// gauge and its high-water mark.
    fn gauged<R>(running: &AtomicUsize, high: &AtomicUsize, f: impl FnOnce() -> R) -> R {
        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
        high.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_micros(300));
        let out = f();
        running.fetch_sub(1, Ordering::SeqCst);
        out
    }

    #[test]
    fn a_width_k_map_never_runs_more_than_k_jobs_at_once() {
        // Below the pool's size; at full width the caller helps too, as
        // `parallel_map` always did.
        let pool = Arc::new(WorkerPool::new(8));
        for width in [1, 2, 3, 5, 7] {
            let ctx = ExecContext::new(Arc::clone(&pool)).with_width(width);
            assert_eq!(ctx.width(), width);
            let (running, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let out = ctx.map((0..64).collect(), |i: usize| gauged(&running, &high, || i * 2));
            assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>(), "width {width}");
            assert!(high.load(Ordering::SeqCst) <= width, "width {width}: {high:?} at once");
            // Nested maps stay inside the cap too.
            let (running, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let nested = ctx.map((0..8).collect(), |i: usize| {
                ctx.map((0..8).collect(), |j: usize| gauged(&running, &high, || i * j))
                    .iter()
                    .sum::<usize>()
            });
            assert_eq!(nested[3], 3 * 28);
            assert!(high.load(Ordering::SeqCst) <= width, "width {width}, nested: {high:?}");
            let range = ctx.map_range(1000, |i| i + 1);
            assert_eq!(range, (1..=1000).collect::<Vec<_>>(), "width {width}");
        }
    }

    #[test]
    fn map_range_preserves_index_order_at_every_width() {
        let pool = Arc::new(WorkerPool::new(4));
        for width in [1, 3, 4] {
            let ctx = ExecContext::new(Arc::clone(&pool)).with_width(width);
            let out = ctx.map_range(1000, |i| i * 3);
            assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>(), "width {width}");
            // Degenerate domains, and one smaller than the chunk count.
            assert!(ctx.map_range(0, |i| i).is_empty());
            assert_eq!(ctx.map_range(1, |i| i + 7), vec![7]);
            assert_eq!(ctx.map_range(3, |i| i), vec![0, 1, 2]);
        }
    }

    #[test]
    fn width_one_runs_inline_on_the_calling_thread() {
        let ctx = ExecContext::with_workers(4).with_width(1);
        let me = std::thread::current().id();
        let threads = ctx.map((0..32).collect(), |_: usize| std::thread::current().id());
        assert!(threads.iter().all(|t| *t == me));
        let a = sample("a", vec![("chr1", 0, 5), ("chr2", 0, 5)]);
        let pairs = ctx.map_sample_pairs(&[a.clone(), a.clone()], &[a], |r, e| r.name == e.name);
        assert_eq!(pairs, vec![true, true]);
        assert_eq!(ExecContext::with_workers(4).with_width(0).width(), 1);
    }

    #[test]
    fn a_panic_in_a_lane_reaches_the_caller() {
        let ctx = ExecContext::with_workers(4).with_width(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.map((0..16).collect(), |i: usize| if i == 9 { panic!("lane boom") } else { i })
        }));
        assert!(result.is_err());
        // The lane's thread is no longer marked as inside a lane.
        assert!(!IN_LANE.with(Cell::get));
        assert_eq!(ctx.map(vec![1, 2, 3], |i: i32| i), vec![1, 2, 3]);
    }

    #[test]
    fn serial_context_has_one_worker() {
        assert_eq!(ExecContext::serial().workers(), 1);
    }

    #[test]
    fn context_without_interrupt_never_trips() {
        let ctx = ExecContext::with_workers(2);
        assert!(!ctx.interrupted());
        assert!(ctx.checkpoint().is_ok());
        assert!(ctx.interrupt_state().is_none());
    }

    #[test]
    fn tripped_interrupt_skips_chrom_kernels() {
        let st = Arc::new(InterruptState::new());
        st.cancel();
        let ctx = ExecContext::with_workers(2).with_interrupt(Arc::clone(&st));
        assert!(ctx.interrupted());
        assert_eq!(ctx.checkpoint(), Err(Interrupt::Cancelled));
        let ran = AtomicUsize::new(0);
        let a = sample("a", vec![("chr1", 0, 5), ("chr2", 0, 5)]);
        let b = sample("b", vec![("chr1", 3, 9)]);
        let out: Vec<u64> = ctx.map_common_chroms(&a, &b, |_, _, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            vec![1]
        });
        assert!(out.is_empty(), "tripped context must skip kernels");
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    /// The twin of `tripped_interrupt_skips_chrom_kernels` on the paths
    /// that run the chromosomes inline: inside a job of an outer map, and
    /// at width 1.
    #[test]
    fn tripped_interrupt_skips_inline_chrom_kernels() {
        let st = Arc::new(InterruptState::new());
        st.cancel();
        let full = ExecContext::with_workers(2).with_interrupt(Arc::clone(&st));
        let a = sample("a", vec![("chr1", 0, 5), ("chr2", 0, 5)]);
        let b = sample("b", vec![("chr1", 3, 9)]);
        let ran = AtomicUsize::new(0);
        let kernel = |_: &Chrom, _: &[GRegion], _: &[GRegion]| {
            ran.fetch_add(1, Ordering::Relaxed);
            vec![1u64]
        };
        let nested = full.map(vec![(); 4], |()| full.map_common_chroms(&a, &b, kernel));
        assert!(nested.iter().all(Vec::is_empty), "tripped context must skip nested kernels");
        let narrow = full.clone().with_width(1);
        assert!(narrow.map_common_chroms(&a, &b, kernel).is_empty());
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(full.pool().stats().jobs_executed, 4, "the outer map's jobs only");
    }

    #[test]
    fn a_map_inside_a_job_runs_inline_and_one_of_one_item_fans_out() {
        let ctx = ExecContext::with_workers(2);
        let jobs = || ctx.pool().stats().jobs_executed;
        // Four outer jobs; each one's map of eight runs on its thread.
        let out = ctx.map((0..4).collect(), |i: usize| {
            let me = std::thread::current().id();
            let inner = ctx.map((0..8).collect(), |j: usize| (std::thread::current().id(), i * j));
            assert!(inner.iter().all(|(t, _)| *t == me), "nested map left its job's thread");
            inner.iter().map(|(_, v)| v).sum::<usize>()
        });
        assert_eq!(out, vec![0, 28, 56, 84]);
        assert_eq!(jobs(), 4);
        // One outer item is no job, and the map inside it is the fan-out.
        let out = ctx.map(vec![3usize], |i| ctx.map((0..8).collect(), |j: usize| i * j));
        assert_eq!(out[0].iter().sum::<usize>(), 84);
        assert_eq!(jobs(), 4 + 8);
        // One pair: its chromosomes are the jobs.
        let a = sample("a", vec![("chr1", 0, 5), ("chr2", 0, 5), ("chr3", 0, 5)]);
        let pairs =
            ctx.map_sample_pairs(std::slice::from_ref(&a), std::slice::from_ref(&a), |r, e| {
                ctx.map_common_chroms(r, e, |c, _, _| vec![c.clone()]).len()
            });
        assert_eq!(pairs, vec![3]);
        assert_eq!(jobs(), 4 + 8 + 3);
    }

    #[test]
    fn an_operator_below_the_floor_runs_at_width_one() {
        let ctx = ExecContext::with_workers(2);
        assert_eq!(ctx.for_regions(POOL_MIN_REGIONS - 1).width(), 1);
        assert_eq!(ctx.for_regions(0).width(), 1);
        assert_eq!(ctx.for_regions(POOL_MIN_REGIONS).width(), 2);
        let small = ctx.for_regions(10);
        assert_eq!(small.map((0..16).collect(), |i: usize| i + 1), (1..=16).collect::<Vec<_>>());
        assert_eq!(ctx.pool().stats().jobs_executed, 0, "no pool traffic below the floor");
    }
}
