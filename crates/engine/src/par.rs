//! Dataset-level parallel execution helpers.
//!
//! GMQL operations "implicitly iterate over all the samples of their
//! operand datasets" (paper §2); sample iteration is therefore the outer
//! parallel dimension, and per-chromosome sharding the inner one —
//! exactly the (sample × genome-partition) decomposition the GMQL cloud
//! implementations use. [`ExecContext`] bundles the pool and the
//! interruption state every operator receives.

use crate::interrupt::{Interrupt, InterruptState};
use crate::pool::WorkerPool;
use nggc_gdm::{Chrom, GRegion, Sample};
use std::sync::Arc;

/// How many hot-loop iterations an operator kernel may run between
/// interrupt polls. A power of two so the check compiles to a mask.
pub const CHECKPOINT_STRIDE: usize = 1024;

/// Execution context shared by all operators of a query.
#[derive(Debug, Clone)]
pub struct ExecContext {
    pool: Arc<WorkerPool>,
    interrupt: Option<Arc<InterruptState>>,
}

impl ExecContext {
    /// Context over an existing pool.
    pub fn new(pool: Arc<WorkerPool>) -> ExecContext {
        ExecContext { pool, interrupt: None }
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

    /// The worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Transform every sample in parallel (the implicit iteration of
    /// unary GMQL operators). Order is preserved.
    pub fn map_samples<R, F>(&self, samples: &[Sample], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Sample) -> R + Sync,
    {
        self.pool.parallel_map_slice(samples, f)
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
        self.pool.parallel_map_range(refs.len() * m, |i| f(&refs[i / m], &exps[i % m]))
    }

    /// Run a per-chromosome kernel over two samples in parallel and
    /// concatenate the per-chromosome outputs in genome order. The
    /// chromosome list is the union of both samples' chromosomes.
    pub fn map_common_chroms<R, F>(&self, a: &Sample, b: &Sample, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Chrom, &[GRegion], &[GRegion]) -> Vec<R> + Sync,
    {
        let chroms = union_chroms([a, b]);
        let per_chrom = self.pool.parallel_map(chroms, |c| {
            // Checkpoint at the job boundary: once the interrupt trips,
            // queued chromosome kernels become no-ops instead of running
            // to completion, so cancellation latency is bounded by one
            // kernel, not the whole fan-out.
            if self.interrupted() {
                return (c, Vec::new());
            }
            let out = f(&c, a.chrom_slice(&c), b.chrom_slice(&c));
            (c, out)
        });
        per_chrom.into_iter().flat_map(|(_, v)| v).collect()
    }
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
        use std::sync::atomic::{AtomicUsize, Ordering};
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
}
