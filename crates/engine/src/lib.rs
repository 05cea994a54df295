//! # `nggc-engine` — the hand-built parallel runtime
//!
//! The paper (§4.2) executes GMQL on Spark/Flink; this reproduction
//! substitutes a manual parallel engine (per the calibration note "no
//! Spark; must build parallel engine manually") that implements the same
//! decomposition those backends exploit:
//!
//! * **sample parallelism** — GMQL operators implicitly iterate over all
//!   samples; each sample (or sample pair) is an independent task;
//! * **genome partitioning** — within a sample pair, per-chromosome
//!   sharding keeps genometric operations local;
//! * **work stealing** — a fixed pool of workers with per-worker LIFO
//!   deques and a global injector ([`WorkerPool`]).
//!
//! The interval kernels ([`interval`]) are shared by the GMQL operators
//! and benchmarked head-to-head in the join-strategy ablation (DESIGN.md
//! E10).

#![warn(missing_docs)]

pub mod interrupt;
pub mod interval;
pub mod par;
pub mod pool;

pub use interrupt::{CancelToken, Interrupt, InterruptState};
pub use interval::{
    coverage_segments, coverage_sweep, gap_pairs_naive, gap_pairs_sort_merge,
    gap_pairs_sort_merge_interruptible, k_nearest, k_nearest_interruptible, merge_cover,
    merge_runs, overlap_pairs_naive, overlap_pairs_sort_merge,
    overlap_pairs_sort_merge_interruptible, CovSeg, Interval,
};
pub use par::{union_chroms, ExecContext, CHECKPOINT_STRIDE, POOL_MIN_REGIONS};
pub use pool::WorkerPool;
