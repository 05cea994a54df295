//! Admission control and the server-wide memory pool.
//!
//! Two independent gates stand between an accepted connection and the
//! execution engine:
//!
//! 1. [`Admission`] bounds **concurrency**: at most `max_inflight`
//!    queries execute at once; up to `max_queue` more wait their turn;
//!    anything beyond that is rejected immediately with a retry-after
//!    hint, so overload degrades into fast typed refusals instead of
//!    unbounded queueing (the paper's §4.4 "control of staging
//!    resources", applied to compute).
//! 2. [`MemoryPool`] bounds **memory**: every admitted query reserves
//!    its governor budget from one server-wide pool before executing,
//!    so the sum of per-query budgets can never exceed what the
//!    operator provisioned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why [`Admission::admit`] refused a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// In-flight cap reached and the wait queue is full.
    QueueFull,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

#[derive(Debug)]
struct AdmState {
    inflight: u64,
    queued: u64,
    shutting_down: bool,
}

/// Concurrency gate for query execution. See the module docs.
#[derive(Debug)]
pub struct Admission {
    state: Mutex<AdmState>,
    cv: Condvar,
    max_inflight: u64,
    max_queue: u64,
    /// Hint returned with rejections: how long a client should back off
    /// before retrying.
    retry_after: Duration,
}

impl Admission {
    /// Gate allowing `max_inflight` concurrent queries with a wait
    /// queue of `max_queue`.
    pub fn new(max_inflight: u64, max_queue: u64, retry_after: Duration) -> Admission {
        Admission {
            state: Mutex::new(AdmState { inflight: 0, queued: 0, shutting_down: false }),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            max_queue,
            retry_after,
        }
    }

    /// Acquire an execution slot, waiting in the queue if the in-flight
    /// cap is reached. Returns immediately with
    /// [`AdmitError::QueueFull`] when the queue is also full — callers
    /// turn that into a typed reject with [`Admission::retry_after`].
    pub fn admit(&self) -> Result<AdmissionPermit<'_>, AdmitError> {
        let reg = nggc_obs::global();
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.shutting_down {
            return Err(AdmitError::ShuttingDown);
        }
        if st.inflight >= self.max_inflight {
            if st.queued >= self.max_queue {
                return Err(AdmitError::QueueFull);
            }
            st.queued += 1;
            reg.gauge("nggc_serve_queue_depth").set(st.queued as i64);
            while st.inflight >= self.max_inflight && !st.shutting_down {
                st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            st.queued -= 1;
            reg.gauge("nggc_serve_queue_depth").set(st.queued as i64);
            if st.shutting_down {
                self.cv.notify_all();
                return Err(AdmitError::ShuttingDown);
            }
        }
        st.inflight += 1;
        reg.gauge("nggc_serve_inflight").set(st.inflight as i64);
        Ok(AdmissionPermit { admission: self })
    }

    /// Non-waiting variant: take a slot only if one is free right now.
    /// Used by tests and maintenance tooling to pin capacity.
    pub fn try_admit(&self) -> Result<AdmissionPermit<'_>, AdmitError> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.shutting_down {
            return Err(AdmitError::ShuttingDown);
        }
        if st.inflight >= self.max_inflight {
            return Err(AdmitError::QueueFull);
        }
        st.inflight += 1;
        nggc_obs::global().gauge("nggc_serve_inflight").set(st.inflight as i64);
        Ok(AdmissionPermit { admission: self })
    }

    /// The back-off hint attached to rejections, scaled with current
    /// load: the configured base when the queue is empty, growing
    /// linearly with queue depth (capped at 16× base) so clients back
    /// off proportionally under pressure instead of stampeding back in
    /// lockstep after a fixed interval.
    pub fn retry_after(&self) -> Duration {
        let queued = self.state.lock().unwrap_or_else(|p| p.into_inner()).queued;
        self.retry_after * (1 + queued.min(15)) as u32
    }

    /// The configured base back-off hint, before load scaling.
    pub fn retry_after_base(&self) -> Duration {
        self.retry_after
    }

    /// Currently executing queries.
    pub fn inflight(&self) -> u64 {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).inflight
    }

    /// Queries waiting for a slot.
    pub fn queued(&self) -> u64 {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).queued
    }

    /// True once [`Admission::begin_shutdown`] has flipped the gate into
    /// drain mode. Lets fast paths that bypass admission (result-cache
    /// hits) still refuse new work during drain.
    pub fn is_shutting_down(&self) -> bool {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).shutting_down
    }

    /// Flip into drain mode: queued waiters are released with
    /// [`AdmitError::ShuttingDown`] and new admissions are refused.
    /// In-flight permits are unaffected — they finish and drop.
    pub fn begin_shutdown(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.shutting_down = true;
        self.cv.notify_all();
    }

    /// Block until every in-flight query has released its permit, or
    /// `timeout` elapses. Returns whether the drain completed. A timeout
    /// too long for an [`Instant`] to represent its deadline is none.
    pub fn await_drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while st.inflight > 0 {
            st = match deadline {
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return false;
                    };
                    self.cv.wait_timeout(st, left).unwrap_or_else(|p| p.into_inner()).0
                }
                None => self.cv.wait(st).unwrap_or_else(|p| p.into_inner()),
            };
        }
        true
    }
}

/// RAII execution slot: dropping it frees the slot and wakes one queued
/// waiter (and the drain loop).
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    admission: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.admission.state.lock().unwrap_or_else(|p| p.into_inner());
        st.inflight -= 1;
        nggc_obs::global().gauge("nggc_serve_inflight").set(st.inflight as i64);
        drop(st);
        self.admission.cv.notify_all();
    }
}

/// Server-wide memory pool. Per-query governor budgets are *carved*
/// from this by [`MemoryPool::reserve`]; the reservation is returned
/// when the query finishes, so concurrent queries can never
/// collectively budget more than the pool's capacity.
pub struct MemoryPool {
    capacity: u64,
    reserved: AtomicU64,
}

impl MemoryPool {
    /// Pool with `capacity` bytes to hand out.
    pub fn new(capacity: u64) -> MemoryPool {
        MemoryPool { capacity, reserved: AtomicU64::new(0) }
    }

    /// Carve `bytes` out of the pool, or `None` when the remaining
    /// capacity cannot cover it.
    pub fn reserve(&self, bytes: u64) -> Option<MemoryReservation<'_>> {
        self.reserve_raw(bytes).then(|| MemoryReservation { pool: self, bytes })
    }

    /// Non-RAII [`MemoryPool::reserve`]: on success the caller owns
    /// `bytes` and must return them with [`MemoryPool::release_raw`].
    /// For holders whose lifetime is not a scope — e.g. the query
    /// result cache, which releases when an entry is evicted.
    pub fn reserve_raw(&self, bytes: u64) -> bool {
        let mut current = self.reserved.load(Ordering::Relaxed);
        loop {
            let Some(next) = current.checked_add(bytes) else {
                return false;
            };
            if next > self.capacity {
                return false;
            }
            match self.reserved.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    nggc_obs::global().gauge("nggc_serve_mem_reserved").set(next as i64);
                    return true;
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Return `bytes` taken with [`MemoryPool::reserve_raw`].
    pub fn release_raw(&self, bytes: u64) {
        let left = self.reserved.fetch_sub(bytes, Ordering::AcqRel) - bytes;
        nggc_obs::global().gauge("nggc_serve_mem_reserved").set(left as i64);
    }

    /// Total bytes the pool can hand out.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved by running queries.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }
}

/// RAII slice of the pool; dropping returns the bytes.
pub struct MemoryReservation<'a> {
    pool: &'a MemoryPool,
    bytes: u64,
}

impl MemoryReservation<'_> {
    /// Size of this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemoryReservation<'_> {
    fn drop(&mut self) {
        self.pool.release_raw(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_drain_timeout_past_any_deadline_means_no_deadline() {
        let adm = Admission::new(1, 0, Duration::from_millis(50));
        assert!(adm.await_drain(Duration::MAX));
        drop(adm.admit().unwrap());
        assert!(adm.await_drain(Duration::MAX), "a released permit leaves nothing to wait for");
    }

    #[test]
    fn admits_up_to_cap_then_rejects_past_queue() {
        let adm = Admission::new(2, 0, Duration::from_millis(50));
        let a = adm.admit().unwrap();
        let b = adm.admit().unwrap();
        assert_eq!(adm.inflight(), 2);
        assert_eq!(adm.admit().unwrap_err(), AdmitError::QueueFull);
        drop(a);
        let _c = adm.admit().unwrap();
        drop(b);
        assert_eq!(adm.inflight(), 1);
    }

    #[test]
    fn queue_waits_for_a_slot() {
        let adm = Arc::new(Admission::new(1, 4, Duration::from_millis(50)));
        let first = adm.admit().unwrap();
        let adm2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || {
            let permit = adm2.admit().unwrap();
            drop(permit);
        });
        // The waiter must park in the queue rather than reject.
        while adm.queued() == 0 {
            std::thread::yield_now();
        }
        drop(first);
        waiter.join().unwrap();
        assert_eq!(adm.inflight(), 0);
        assert_eq!(adm.queued(), 0);
    }

    #[test]
    fn shutdown_releases_queued_waiters() {
        let adm = Arc::new(Admission::new(1, 4, Duration::from_millis(50)));
        let held = adm.admit().unwrap();
        let adm2 = Arc::clone(&adm);
        let waiter = std::thread::spawn(move || adm2.admit().err());
        while adm.queued() == 0 {
            std::thread::yield_now();
        }
        adm.begin_shutdown();
        assert_eq!(waiter.join().unwrap(), Some(AdmitError::ShuttingDown));
        assert_eq!(adm.admit().unwrap_err(), AdmitError::ShuttingDown);
        // Drain completes once the in-flight permit is dropped.
        assert!(!adm.await_drain(Duration::from_millis(10)));
        drop(held);
        assert!(adm.await_drain(Duration::from_millis(500)));
    }

    #[test]
    fn retry_after_scales_with_queue_depth() {
        let base = Duration::from_millis(100);
        let adm = Arc::new(Admission::new(1, 4, base));
        // Empty queue: the hint is exactly the configured base.
        assert_eq!(adm.retry_after(), base);
        let held = adm.admit().unwrap();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let adm = Arc::clone(&adm);
                std::thread::spawn(move || drop(adm.admit()))
            })
            .collect();
        while adm.queued() < 3 {
            std::thread::yield_now();
        }
        // Three queued: clients are told to back off 4× as long.
        assert_eq!(adm.retry_after(), base * 4);
        assert_eq!(adm.retry_after_base(), base);
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(adm.retry_after(), base);
    }

    #[test]
    fn raw_reservations_balance() {
        let pool = MemoryPool::new(100);
        assert!(pool.reserve_raw(60));
        assert!(!pool.reserve_raw(50));
        assert_eq!(pool.reserved(), 60);
        pool.release_raw(60);
        assert_eq!(pool.reserved(), 0);
    }

    #[test]
    fn memory_pool_carves_and_returns() {
        let pool = MemoryPool::new(100);
        let a = pool.reserve(60).unwrap();
        assert!(pool.reserve(50).is_none(), "would exceed capacity");
        let b = pool.reserve(40).unwrap();
        assert_eq!(pool.reserved(), 100);
        drop(a);
        assert_eq!(pool.reserved(), 40);
        drop(b);
        assert_eq!(pool.reserved(), 0);
        assert!(pool.reserve(100).is_some());
    }
}
