//! A hand-built work-stealing worker pool.
//!
//! The paper's architecture runs GMQL operators on Spark/Flink (§4.2);
//! this reproduction substitutes a manual parallel runtime. The pool is a
//! classic work-stealing design: every worker owns a LIFO deque, a global
//! FIFO injector receives submitted jobs, and idle workers steal from the
//! injector first and then from siblings. Idle workers park on a condvar
//! so an idle pool burns no CPU.
//!
//! [`WorkerPool::parallel_map`] is the primitive all operators build on:
//! it fans a batch of borrowed work items out to the pool and blocks until
//! every item completed. While blocked, the **calling thread helps** by
//! executing queued jobs, which makes nested `parallel_map` calls
//! deadlock-free even on a single-worker pool.

use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use crossbeam_deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long a helping caller blocks on the result channel before
/// re-checking the queues for stealable work. Mirrors the worker
/// condvar park interval: long enough that an idle tail burns no CPU
/// (the old 100 µs poll pinned a core for the whole tail of a long
/// job), short enough that late-injected nested work is picked up
/// promptly.
const HELP_RECHECK: Duration = Duration::from_millis(10);

/// Pool-local event counters, mirrored into the global `nggc-obs`
/// registry (`nggc_pool_*`). Kept per-pool so tests and
/// [`WorkerPool::stats`] see this pool's activity in isolation.
struct PoolCounters {
    /// Jobs executed, by anyone (workers and helping callers).
    jobs: AtomicU64,
    /// Successful steals from a sibling worker's deque.
    sibling_steals: AtomicU64,
    /// Times a worker parked on the condvar.
    parks: AtomicU64,
    /// Times a parked worker woke (notify or timeout).
    wakes: AtomicU64,
    /// Per-worker busy nanoseconds (helping callers not included).
    busy_ns: Vec<AtomicU64>,
    /// Pool creation time, the denominator of lifetime utilization.
    started: Instant,
    /// Last [`WorkerPool::stats`] snapshot: when it was taken and the
    /// total busy nanoseconds at that point. Windowed utilization is
    /// measured against this instead of pool age, so a pool that idled
    /// since startup but is saturated *now* reads ~100%, not ~0%.
    window: Mutex<WindowSnap>,
    /// Global-registry handles, resolved once at pool construction.
    g_jobs: nggc_obs::Counter,
    g_sibling_steals: nggc_obs::Counter,
    g_parks: nggc_obs::Counter,
    g_wakes: nggc_obs::Counter,
    g_busy_ns: nggc_obs::Counter,
    g_job_wall: nggc_obs::Histogram,
}

/// See [`PoolCounters::window`].
struct WindowSnap {
    at: Instant,
    busy_ns: u64,
}

impl PoolCounters {
    fn new(workers: usize) -> PoolCounters {
        let reg = nggc_obs::global();
        let now = Instant::now();
        PoolCounters {
            jobs: AtomicU64::new(0),
            sibling_steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            started: now,
            window: Mutex::new(WindowSnap { at: now, busy_ns: 0 }),
            g_jobs: reg.counter("nggc_pool_jobs_total"),
            g_sibling_steals: reg.counter("nggc_pool_sibling_steals_total"),
            g_parks: reg.counter("nggc_pool_parks_total"),
            g_wakes: reg.counter("nggc_pool_wakes_total"),
            g_busy_ns: reg.counter("nggc_pool_busy_ns_total"),
            g_job_wall: reg.histogram("nggc_pool_job_wall_ns"),
        }
    }
}

/// Point-in-time view of a pool's activity (see [`WorkerPool::stats`]).
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Jobs executed since the pool started (including helping callers).
    pub jobs_executed: u64,
    /// Successful steals from sibling deques.
    pub sibling_steals: u64,
    /// Times a worker parked waiting for work.
    pub parks: u64,
    /// Times a parked worker woke up.
    pub wakes: u64,
    /// Busy wall time per worker thread.
    pub busy: Vec<Duration>,
    /// Wall time since the pool was created.
    pub elapsed: Duration,
    /// Busy wall time accumulated since the previous [`WorkerPool::stats`]
    /// call (summed over workers).
    pub busy_recent: Duration,
    /// Wall time since the previous [`WorkerPool::stats`] call — the
    /// denominator of [`PoolStats::utilization`]. Equals `elapsed` for
    /// the first snapshot.
    pub window: Duration,
}

impl PoolStats {
    /// Fraction of worker-thread time spent running jobs **since the
    /// previous `stats()` snapshot**, in `[0, 1]`:
    /// `busy_recent / (workers × window)`. A pool that sat idle since
    /// startup but is saturated right now reads ~1.0 here, unlike
    /// [`PoolStats::lifetime_utilization`] which averages over pool age.
    pub fn utilization(&self) -> f64 {
        Self::ratio(self.busy_recent.as_secs_f64(), self.workers, self.window.as_secs_f64())
    }

    /// Fraction of worker-thread time spent running jobs since the pool
    /// was created: `sum(busy) / (workers × elapsed)`.
    pub fn lifetime_utilization(&self) -> f64 {
        let total: f64 = self.busy.iter().map(Duration::as_secs_f64).sum();
        Self::ratio(total, self.workers, self.elapsed.as_secs_f64())
    }

    fn ratio(busy: f64, workers: usize, wall: f64) -> f64 {
        let budget = workers as f64 * wall;
        if budget <= 0.0 {
            0.0
        } else {
            (busy / budget).min(1.0)
        }
    }
}

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    counters: PoolCounters,
}

impl Shared {
    /// Grab a job from the injector or any worker deque (used by helping
    /// callers, which have no local deque).
    fn steal_any(&self) -> Option<Job> {
        loop {
            match self.injector.steal() {
                crossbeam_deque::Steal::Success(j) => return Some(j),
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
        for s in &self.stealers {
            loop {
                match s.steal() {
                    crossbeam_deque::Steal::Success(j) => {
                        self.counters.sibling_steals.fetch_add(1, Ordering::Relaxed);
                        self.counters.g_sibling_steals.inc();
                        return Some(j);
                    }
                    crossbeam_deque::Steal::Retry => continue,
                    crossbeam_deque::Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Run a job, attributing its wall time to `worker` (if any) and
    /// counting it in the pool-local and global metrics.
    fn run_job(&self, job: Job, worker: Option<usize>) {
        let c = &self.counters;
        // Count before running: `parallel_map` callers receive a job's
        // result from inside the job itself, so anyone who has observed
        // all results must also observe the full job count.
        c.jobs.fetch_add(1, Ordering::Relaxed);
        c.g_jobs.inc();
        let t0 = Instant::now();
        job();
        let wall = t0.elapsed();
        if let Some(i) = worker {
            c.busy_ns[i].fetch_add(wall.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
            c.g_busy_ns.add(wall.as_nanos().min(u64::MAX as u128) as u64);
        }
        c.g_job_wall.record_duration(wall);
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool signals shutdown and joins all workers.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// Spawn a pool with `workers` threads (at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let mut local_queues = Vec::with_capacity(workers);
        let mut stealers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let w = Worker::new_lifo();
            stealers.push(w.stealer());
            local_queues.push(w);
        }
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            counters: PoolCounters::new(workers),
        });
        let handles = local_queues
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nggc-worker-{i}"))
                    .spawn(move || worker_loop(i, local, shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool { shared, handles, workers }
    }

    /// Spawn a pool sized to the machine (`available_parallelism`).
    pub fn with_default_size() -> WorkerPool {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        WorkerPool::new(n)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of this pool's activity counters (jobs executed, steal
    /// and park/wake counts, per-worker busy time). The same numbers are
    /// mirrored into the global `nggc-obs` registry as `nggc_pool_*`.
    ///
    /// Each call also closes a **utilization window**: `busy_recent` and
    /// `window` measure activity since the previous `stats()` call (or
    /// pool creation, for the first one), which is what
    /// [`PoolStats::utilization`] reports.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        let busy: Vec<Duration> =
            c.busy_ns.iter().map(|b| Duration::from_nanos(b.load(Ordering::Relaxed))).collect();
        let busy_total_ns: u64 =
            busy.iter().map(|d| d.as_nanos().min(u64::MAX as u128) as u64).sum();
        let now = Instant::now();
        let (busy_recent, window) = {
            let mut snap = c.window.lock();
            let recent = Duration::from_nanos(busy_total_ns.saturating_sub(snap.busy_ns));
            let window = now.duration_since(snap.at);
            *snap = WindowSnap { at: now, busy_ns: busy_total_ns };
            (recent, window)
        };
        PoolStats {
            workers: self.workers,
            jobs_executed: c.jobs.load(Ordering::Relaxed),
            sibling_steals: c.sibling_steals.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            wakes: c.wakes.load(Ordering::Relaxed),
            busy,
            elapsed: c.started.elapsed(),
            busy_recent,
            window,
        }
    }

    /// Apply `f` to every item in parallel, returning results in input
    /// order. Blocks until all items complete; the calling thread executes
    /// queued jobs while waiting.
    ///
    /// # Panic propagation
    ///
    /// A panic inside `f` never poisons the pool. Each queued job wraps
    /// `f` in [`catch_unwind`], so the worker thread that ran the
    /// panicking item survives and keeps draining the queue; the payload
    /// travels back over the result channel like a normal result. The
    /// caller waits until **all** items have reported (so borrowed data
    /// is never left referenced by queued jobs), then re-raises the
    /// first panic in input order via [`resume_unwind`]. Subsequent
    /// `parallel_map` calls on the same pool run normally — see the
    /// `panic_propagates_after_completion` and
    /// `pool_survives_repeated_panics` tests.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 || self.workers == 1 {
            // Degenerate cases: run inline, no queue traffic.
            return items.into_iter().map(&f).collect();
        }
        type TaskResult<R> = (usize, std::thread::Result<R>);
        let (tx, rx): (Sender<TaskResult<R>>, Receiver<TaskResult<R>>) = bounded(n);
        let f_ref = &f;
        for (i, item) in items.into_iter().enumerate() {
            let tx = tx.clone();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| f_ref(item)));
                // The receiver outlives all jobs; ignore send failure that
                // can only happen during unwinding of the whole process.
                let _ = tx.send((i, outcome));
            });
            // SAFETY: `parallel_map` does not return before receiving one
            // message per submitted job, and jobs always send exactly one
            // message (panics are caught). Hence every borrow captured by
            // the job outlives its execution, and extending the lifetime to
            // 'static for queue storage is sound.
            let job: Job = unsafe { std::mem::transmute(job) };
            self.shared.injector.push(job);
        }
        drop(tx);
        self.shared.wake.notify_all();

        let mut results: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        let mut received = 0;
        while received < n {
            match rx.try_recv() {
                Ok((i, r)) => {
                    results[i] = Some(r);
                    received += 1;
                }
                Err(TryRecvError::Empty) => {
                    // Help: run someone's job instead of spinning. With
                    // nothing left to steal, block on the result channel
                    // (bounded so late-injected nested work still gets
                    // helped) rather than burning a core on the tail.
                    if let Some(job) = self.shared.steal_any() {
                        self.shared.run_job(job, None);
                    } else {
                        match rx.recv_timeout(HELP_RECHECK) {
                            Ok((i, r)) => {
                                results[i] = Some(r);
                                received += 1;
                            }
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => {
                                unreachable!(
                                    "all senders kept alive by queued jobs until they send"
                                )
                            }
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    unreachable!("all senders kept alive by queued jobs until they send")
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for r in results {
            match r.expect("all results received") {
                Ok(v) => out.push(v),
                Err(p) => panic = Some(panic.unwrap_or(p)),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }

    /// Parallel map over a borrowed slice (convenience over
    /// [`WorkerPool::parallel_map`]).
    pub fn parallel_map_slice<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        self.parallel_map(items.iter().collect(), f)
    }

    /// Apply `f` to every index in `0..n` in parallel, returning results
    /// in index order. Unlike [`WorkerPool::parallel_map`], which queues
    /// one job (and one boxed closure) per item, the index domain is
    /// split into O(workers) contiguous chunks — so mapping a huge
    /// logical domain (e.g. a sample cross-product) costs O(workers)
    /// setup allocation instead of O(n). The trade-off is chunk-level
    /// rather than item-level stealing granularity; four chunks per
    /// worker keeps stragglers bounded.
    pub fn parallel_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let chunks = (self.workers * 4).clamp(1, n);
        let chunk = n.div_ceil(chunks);
        let bounds: Vec<(usize, usize)> = (0..chunks)
            .map(|c| (c * chunk, ((c + 1) * chunk).min(n)))
            .filter(|(a, b)| a < b)
            .collect();
        let per: Vec<Vec<R>> = self.parallel_map(bounds, |(a, b)| (a..b).map(&f).collect());
        per.into_iter().flatten().collect()
    }

    /// Fallible [`parallel_map`](WorkerPool::parallel_map) with
    /// **fail-fast abort**: the first `Err` sets an abort flag, and
    /// still-queued items are skipped instead of executed. Items already
    /// running are not preempted (abort is cooperative, like everything
    /// in this pool), so the call still waits for every submitted job to
    /// report before returning — borrowed data is never left referenced
    /// by the queue. Returns the first error in **input order**;
    /// panics propagate like in `parallel_map`, taking precedence over
    /// errors.
    pub fn try_parallel_map<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(T) -> Result<R, E> + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        if n == 1 || self.workers == 1 {
            // Inline path short-circuits on the first error by itself.
            return items.into_iter().map(&f).collect();
        }
        enum Outcome<R, E> {
            Done(Result<R, E>),
            Skipped,
            Panicked(Box<dyn std::any::Any + Send>),
        }
        let abort = AtomicBool::new(false);
        let (tx, rx) = bounded::<(usize, Outcome<R, E>)>(n);
        let f_ref = &f;
        let abort_ref = &abort;
        for (i, item) in items.into_iter().enumerate() {
            let tx = tx.clone();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let outcome = if abort_ref.load(Ordering::Acquire) {
                    Outcome::Skipped
                } else {
                    match catch_unwind(AssertUnwindSafe(|| f_ref(item))) {
                        Ok(r) => {
                            if r.is_err() {
                                abort_ref.store(true, Ordering::Release);
                            }
                            Outcome::Done(r)
                        }
                        Err(p) => {
                            abort_ref.store(true, Ordering::Release);
                            Outcome::Panicked(p)
                        }
                    }
                };
                let _ = tx.send((i, outcome));
            });
            // SAFETY: as in `parallel_map` — this call does not return
            // before receiving one message per submitted job (skipped
            // jobs send too), so every borrow captured by a job outlives
            // its execution.
            let job: Job = unsafe { std::mem::transmute(job) };
            self.shared.injector.push(job);
        }
        drop(tx);
        self.shared.wake.notify_all();

        let mut results: Vec<Option<Outcome<R, E>>> = (0..n).map(|_| None).collect();
        let mut received = 0;
        while received < n {
            match rx.try_recv() {
                Ok((i, r)) => {
                    results[i] = Some(r);
                    received += 1;
                }
                Err(TryRecvError::Empty) => {
                    // Same help-then-block discipline as `parallel_map`.
                    if let Some(job) = self.shared.steal_any() {
                        self.shared.run_job(job, None);
                    } else {
                        match rx.recv_timeout(HELP_RECHECK) {
                            Ok((i, r)) => {
                                results[i] = Some(r);
                                received += 1;
                            }
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => {
                                unreachable!(
                                    "all senders kept alive by queued jobs until they send"
                                )
                            }
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    unreachable!("all senders kept alive by queued jobs until they send")
                }
            }
        }
        let mut out = Vec::with_capacity(n);
        let mut error: Option<E> = None;
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for r in results {
            match r.expect("all results received") {
                Outcome::Done(Ok(v)) => out.push(v),
                Outcome::Done(Err(e)) => error = Some(error.map_or(e, |first| first)),
                Outcome::Skipped => {}
                Outcome::Panicked(p) => panic = Some(panic.unwrap_or(p)),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        match error {
            Some(e) => Err(e),
            None => {
                debug_assert_eq!(out.len(), n, "skips only happen after an error or panic");
                Ok(out)
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(index: usize, local: Worker<Job>, shared: Arc<Shared>) {
    loop {
        // Drain local work first (LIFO keeps caches warm).
        if let Some(job) = local.pop() {
            shared.run_job(job, Some(index));
            continue;
        }
        // Refill from the injector in batches, then steal from siblings.
        let stolen = loop {
            match shared.injector.steal_batch_and_pop(&local) {
                crossbeam_deque::Steal::Success(j) => break Some(j),
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break None,
            }
        };
        if let Some(job) = stolen {
            shared.run_job(job, Some(index));
            continue;
        }
        if let Some(job) = shared.steal_any() {
            shared.run_job(job, Some(index));
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Nothing to do: park until new work or shutdown. Re-check the
        // queues under the lock to avoid a missed-wakeup race.
        let mut guard = shared.sleep_lock.lock();
        if shared.shutdown.load(Ordering::SeqCst) || !shared.injector.is_empty() {
            continue;
        }
        shared.counters.parks.fetch_add(1, Ordering::Relaxed);
        shared.counters.g_parks.inc();
        shared.wake.wait_for(&mut guard, Duration::from_millis(10));
        shared.counters.wakes.fetch_add(1, Ordering::Relaxed);
        shared.counters.g_wakes.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new(4);
        let out = pool.parallel_map((0..1000).collect(), |i: i64| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_are_allowed() {
        let pool = WorkerPool::new(4);
        let data: Vec<String> = (0..100).map(|i| format!("item{i}")).collect();
        let lens = pool.parallel_map_slice(&data, |s| s.len());
        assert_eq!(lens[0], 5);
        assert_eq!(lens[99], 6);
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = WorkerPool::new(1);
        let out = pool.parallel_map(vec![1, 2, 3], |i: i32| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn nested_parallel_map_does_not_deadlock() {
        let pool = WorkerPool::new(2);
        let out = pool.parallel_map((0..8).collect(), |i: usize| {
            pool.parallel_map((0..8).collect(), |j: usize| i * j).iter().sum::<usize>()
        });
        assert_eq!(out[2], 2 * 28);
    }

    #[test]
    fn work_actually_distributes() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.parallel_map((0..10_000).collect::<Vec<usize>>(), |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn panic_propagates_after_completion() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map((0..64).collect(), |i: usize| {
                if i == 13 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let out = pool.parallel_map(vec![1, 2], |i: i32| i);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn pool_survives_repeated_panics() {
        // A panicking job must not poison the pool: workers survive via
        // catch_unwind, locks are never held across user code, and every
        // later parallel_map completes normally.
        let pool = WorkerPool::new(4);
        for round in 0..5 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_map((0..32).collect(), |i: usize| {
                    if i % 7 == round {
                        panic!("round {round}");
                    }
                    i
                })
            }));
            assert!(result.is_err(), "round {round} should panic");
            let ok = pool.parallel_map((0..32).collect(), |i: usize| i * 2);
            assert_eq!(ok.len(), 32, "pool unusable after panic round {round}");
        }
    }

    #[test]
    fn stats_count_jobs_and_busy_time() {
        let pool = WorkerPool::new(4);
        pool.parallel_map((0..256).collect::<Vec<usize>>(), |i| {
            // Enough work to register non-zero busy time.
            (0..500).fold(i, |a, b| a.wrapping_add(b))
        });
        let stats = pool.stats();
        assert_eq!(stats.jobs_executed, 256);
        assert_eq!(stats.busy.len(), 4);
        let util = stats.utilization();
        assert!((0.0..=1.0).contains(&util), "utilization {util} out of range");
        let lifetime = stats.lifetime_utilization();
        assert!((0.0..=1.0).contains(&lifetime), "lifetime utilization {lifetime} out of range");
        // Inline fast path (n == 1) bypasses the queue entirely.
        pool.parallel_map(vec![1], |i: i32| i);
        assert_eq!(pool.stats().jobs_executed, 256);
    }

    #[test]
    fn utilization_is_windowed_not_lifetime() {
        let pool = WorkerPool::new(2);
        // A long idle stretch after creation drags the lifetime average
        // down...
        std::thread::sleep(Duration::from_millis(120));
        let idle = pool.stats(); // close the idle window
        assert!(
            idle.utilization() < 0.05,
            "idle window should read ~0, got {}",
            idle.utilization()
        );
        // ...then a burst of work: the *windowed* number must see it
        // clearly even though the lifetime average stays diluted.
        pool.parallel_map((0..64).collect::<Vec<u64>>(), |i| {
            let t0 = Instant::now();
            let mut acc = i;
            while t0.elapsed() < Duration::from_millis(2) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        });
        let busy = pool.stats();
        assert!(busy.window < busy.elapsed, "window must reset at each snapshot");
        assert!(
            busy.utilization() > busy.lifetime_utilization(),
            "recent burst: windowed {} should exceed lifetime {}",
            busy.utilization(),
            busy.lifetime_utilization()
        );
        assert!(
            busy.utilization() > 0.2,
            "a saturating burst should dominate its window, got {}",
            busy.utilization()
        );
    }

    #[test]
    fn map_range_preserves_index_order() {
        let pool = WorkerPool::new(4);
        let out = pool.parallel_map_range(1000, |i| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        // Degenerate domains.
        assert!(pool.parallel_map_range(0, |i| i).is_empty());
        assert_eq!(pool.parallel_map_range(1, |i| i + 7), vec![7]);
        // Domain smaller than the chunk count.
        assert_eq!(pool.parallel_map_range(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_input() {
        let pool = WorkerPool::new(2);
        let out: Vec<i32> = pool.parallel_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_shutdown_joins_cleanly() {
        let pool = WorkerPool::new(3);
        let _ = pool.parallel_map(vec![1, 2, 3], |i: i32| i);
        drop(pool); // must not hang
    }

    #[test]
    fn try_map_ok_preserves_order() {
        let pool = WorkerPool::new(4);
        let out = pool.try_parallel_map((0..500).collect(), |i: i64| Ok::<_, String>(i * 3));
        assert_eq!(out.unwrap(), (0..500).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_returns_first_error_in_input_order() {
        let pool = WorkerPool::new(4);
        let out: Result<Vec<usize>, String> = pool.try_parallel_map((0..64).collect(), |i| {
            if i == 50 || i == 7 {
                Err(format!("bad {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(out.unwrap_err(), "bad 7");
    }

    #[test]
    fn try_map_aborts_queued_work_after_error() {
        // With one item per queue slot and an early error, most of the
        // tail should be skipped. The guarantee is cooperative (running
        // items finish), so assert "skipped at least something big"
        // rather than an exact count.
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let out: Result<Vec<()>, ()> = pool.try_parallel_map((0..10_000).collect(), |i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(())
            } else {
                std::thread::yield_now();
                Ok(())
            }
        });
        assert!(out.is_err());
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran < 10_000, "expected fail-fast to skip queued items, ran all {ran}");
    }

    #[test]
    fn try_map_panic_takes_precedence() {
        let pool = WorkerPool::new(4);
        // The erroring job waits until the panicking one has started:
        // otherwise its `Err` can short-circuit the map before job 3 ever
        // runs, and there is no panic to take precedence.
        let panicking = std::sync::atomic::AtomicBool::new(false);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.try_parallel_map((0..32).collect(), |i: usize| {
                if i == 3 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("boom");
                }
                if i == 5 {
                    while !panicking.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    return Err("err");
                }
                Ok(i)
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        let ok: Result<Vec<usize>, &str> = pool.try_parallel_map(vec![1, 2], Ok);
        assert_eq!(ok.unwrap(), vec![1, 2], "pool usable after panic");
    }

    #[test]
    fn try_map_single_worker_short_circuits() {
        let pool = WorkerPool::new(1);
        let ran = AtomicUsize::new(0);
        let out: Result<Vec<usize>, &str> = pool.try_parallel_map((0..100).collect(), |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 10 {
                Err("stop")
            } else {
                Ok(i)
            }
        });
        assert_eq!(out.unwrap_err(), "stop");
        assert_eq!(ran.load(Ordering::Relaxed), 11, "inline path short-circuits");
    }
}
