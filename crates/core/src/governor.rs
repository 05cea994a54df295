//! The query resource governor: cooperative cancellation, wall-clock
//! deadlines, and memory budgets for local execution.
//!
//! The paper's cloud targets (§4.2) inherit per-job resource isolation
//! from Spark/Flink; a single-process engine must build its own. A
//! [`QueryGovernor`] wraps an [`InterruptState`] (the error-agnostic
//! primitive in `nggc-engine`) and translates trips into typed
//! [`GmqlError`] variants that carry **partial progress**: which plan
//! node execution stopped at, how long it ran, and how much governed
//! memory it had charged.
//!
//! Enforcement is **cooperative**: the executor checks the governor at
//! every plan-node boundary, operator kernels poll it every
//! [`CHECKPOINT_STRIDE`](nggc_engine::CHECKPOINT_STRIDE) inner-loop
//! iterations, and the per-chromosome fan-out skips queued kernels once
//! it has tripped. Memory is accounted in *encoded bytes* (the
//! `encoded_size()` model of `nggc-gdm`): every materialised
//! intermediate is charged when produced and released when its last
//! consumer has run, so the budget bounds the working set of the plan,
//! not the process RSS.
//!
//! Trips are exported to the metrics registry:
//! `nggc_query_cancelled_total`, `nggc_query_deadline_exceeded_total`,
//! `nggc_query_mem_rejections_total`, and the peak-usage gauge
//! `nggc_query_mem_peak_bytes`.

use crate::error::GmqlError;
use nggc_engine::{CancelToken, Interrupt, InterruptState};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable supplying a default `--timeout`.
pub const ENV_TIMEOUT: &str = "NGGC_QUERY_TIMEOUT";
/// Environment variable supplying a default `--max-memory`.
pub const ENV_MAX_MEMORY: &str = "NGGC_QUERY_MAX_MEMORY";

/// The limits a [`QueryGovernor`] enforces. `None` means unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorLimits {
    /// Wall-clock deadline for the whole query.
    pub timeout: Option<Duration>,
    /// Budget for governed intermediates, in encoded bytes.
    pub max_memory: Option<u64>,
}

impl GovernorLimits {
    /// Limits from the `NGGC_QUERY_TIMEOUT` / `NGGC_QUERY_MAX_MEMORY`
    /// environment variables. Unset variables leave the corresponding
    /// limit unbounded; malformed values are an error (silently ignoring
    /// a typo'd limit would defeat the point).
    pub fn from_env() -> Result<GovernorLimits, String> {
        let mut limits = GovernorLimits::default();
        if let Ok(v) = std::env::var(ENV_TIMEOUT) {
            limits.timeout = Some(parse_duration(&v).map_err(|e| format!("{ENV_TIMEOUT}: {e}"))?);
        }
        if let Ok(v) = std::env::var(ENV_MAX_MEMORY) {
            limits.max_memory =
                Some(parse_bytes(&v).map_err(|e| format!("{ENV_MAX_MEMORY}: {e}"))?);
        }
        Ok(limits)
    }

    /// Are any limits set?
    pub fn is_bounded(&self) -> bool {
        self.timeout.is_some() || self.max_memory.is_some()
    }
}

/// Per-query resource governor. Cheap to clone handles out of
/// ([`cancel_token`](Self::cancel_token), [`state`](Self::state));
/// create one per query execution.
#[derive(Debug, Clone)]
pub struct QueryGovernor {
    state: Arc<InterruptState>,
}

impl QueryGovernor {
    /// Governor enforcing `limits`.
    pub fn new(limits: GovernorLimits) -> QueryGovernor {
        let mut state = InterruptState::new();
        if let Some(t) = limits.timeout {
            state = state.with_deadline(t);
        }
        if let Some(m) = limits.max_memory {
            state = state.with_budget(m);
        }
        QueryGovernor { state: Arc::new(state) }
    }

    /// Governor with no deadline and no budget — still cancellable.
    pub fn unbounded() -> QueryGovernor {
        QueryGovernor::new(GovernorLimits::default())
    }

    /// The shared interruption state, for threading into an
    /// [`ExecContext`](nggc_engine::ExecContext) or other subsystems.
    pub fn state(&self) -> &Arc<InterruptState> {
        &self.state
    }

    /// A handle that can only cancel — safe to give to signal handlers
    /// and watcher threads.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken::new(Arc::clone(&self.state))
    }

    /// Request cooperative cancellation.
    pub fn cancel(&self) {
        self.state.cancel();
    }

    /// Boundary checkpoint: fails with a typed, metric-counted error if
    /// the query was cancelled or ran past its deadline. `node` names
    /// the plan node about to run (or just finished), for the
    /// partial-progress report.
    pub fn check(&self, node: &str) -> Result<(), GmqlError> {
        match self.state.poll() {
            Some(i) => Err(self.trip(node, i)),
            None => Ok(()),
        }
    }

    /// Charge `bytes` of materialised intermediate against the budget.
    /// On rejection nothing is charged and the returned
    /// [`GmqlError::MemoryExhausted`] names the node.
    pub fn charge(&self, node: &str, bytes: u64) -> Result<(), GmqlError> {
        self.state.charge(bytes).map_err(|i| self.trip(node, i))
    }

    /// Release a previously successful charge (intermediate freed).
    pub fn release(&self, bytes: u64) {
        self.state.release(bytes);
    }

    /// Time left before the deadline (`None` = no deadline). Use this to
    /// clamp downstream budgets (federation call policies, repository
    /// waits) so the query's deadline is honored end-to-end.
    pub fn remaining(&self) -> Option<Duration> {
        self.state.remaining()
    }

    /// Bytes of governed memory still unspent, or `None` when the query
    /// has no memory budget. Use this to bound allocations made outside
    /// the executor (e.g. repository loads) before they happen.
    pub fn remaining_memory(&self) -> Option<u64> {
        self.state.budget().map(|b| b.saturating_sub(self.state.charged()))
    }

    /// Record a refusal made on the governor's behalf by a subsystem
    /// that pre-checks allocations (e.g. a repository refusing to load a
    /// dataset whose catalog estimate exceeds [`remaining_memory`]).
    /// Returns the typed error and bumps the rejection counter exactly
    /// as an executor-side [`charge`] failure would.
    ///
    /// [`remaining_memory`]: QueryGovernor::remaining_memory
    /// [`charge`]: QueryGovernor::charge
    pub fn refuse_allocation(&self, node: &str, requested: u64) -> GmqlError {
        self.trip(
            node,
            Interrupt::MemoryExhausted {
                requested,
                budget: self.state.budget().unwrap_or(u64::MAX),
                charged: self.state.charged(),
            },
        )
    }

    /// Bytes currently charged.
    pub fn charged(&self) -> u64 {
        self.state.charged()
    }

    /// High-water mark of charged bytes.
    pub fn mem_peak(&self) -> u64 {
        self.state.peak()
    }

    /// Export the peak-memory gauge. Called by the executor when a
    /// governed run finishes (success or failure); harmless to call
    /// again.
    pub fn export_peak(&self) {
        let reg = nggc_obs::global();
        if reg.is_enabled() {
            reg.gauge("nggc_query_mem_peak_bytes").set(self.state.peak() as i64);
        }
    }

    /// Translate a tripped [`Interrupt`] into the corresponding
    /// [`GmqlError`], bump its counter, and export the peak gauge.
    fn trip(&self, node: &str, interrupt: Interrupt) -> GmqlError {
        let reg = nggc_obs::global();
        self.export_peak();
        let elapsed_ms = self.state.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        let mem_peak = self.state.peak();
        match interrupt {
            Interrupt::Cancelled => {
                reg.counter("nggc_query_cancelled_total").inc();
                GmqlError::Cancelled { node: node.to_owned(), elapsed_ms, mem_peak }
            }
            Interrupt::DeadlineExceeded => {
                reg.counter("nggc_query_deadline_exceeded_total").inc();
                let limit_ms = self
                    .state
                    .limit()
                    .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
                    .unwrap_or(0);
                GmqlError::DeadlineExceeded {
                    node: node.to_owned(),
                    elapsed_ms,
                    limit_ms,
                    mem_peak,
                }
            }
            Interrupt::MemoryExhausted { requested, budget, charged } => {
                reg.counter("nggc_query_mem_rejections_total").inc();
                GmqlError::MemoryExhausted { node: node.to_owned(), requested, budget, charged }
            }
        }
    }
}

/// Parse a human-friendly duration: `500ms`, `30s`, `2m`, `1h`, `250us`,
/// or a bare number of **seconds**. Fractions are allowed (`1.5s`).
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let split = s.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let value: f64 = num.parse().map_err(|_| format!("invalid duration {s:?}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("invalid duration {s:?}"));
    }
    let secs = match unit.trim() {
        "" | "s" | "sec" | "secs" => value,
        "ms" => value / 1e3,
        "us" | "µs" => value / 1e6,
        "ns" => value / 1e9,
        "m" | "min" | "mins" => value * 60.0,
        "h" | "hr" | "hrs" => value * 3600.0,
        other => return Err(format!("unknown duration unit {other:?} in {s:?}")),
    };
    Duration::try_from_secs_f64(secs).map_err(|_| format!("duration {s:?} overflows"))
}

/// Parse a human-friendly byte count: `64MiB`, `2GB`, `512KiB`, `1024`,
/// with both binary (`KiB`/`MiB`/`GiB`/`TiB`) and decimal (`KB`/`MB`/
/// `GB`/`TB`) suffixes, case-insensitive, optional `B`.
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let split = s.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let value: f64 = num.parse().map_err(|_| format!("invalid byte count {s:?}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("invalid byte count {s:?}"));
    }
    let mult: f64 = match unit.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 1.0,
        "k" | "kb" => 1e3,
        "m" | "mb" => 1e6,
        "g" | "gb" => 1e9,
        "t" | "tb" => 1e12,
        "kib" => 1024.0,
        "mib" => 1024.0 * 1024.0,
        "gib" => 1024.0 * 1024.0 * 1024.0,
        "tib" => 1024.0 * 1024.0 * 1024.0 * 1024.0,
        other => return Err(format!("unknown byte unit {other:?} in {s:?}")),
    };
    let bytes = value * mult;
    if bytes > u64::MAX as f64 {
        return Err(format!("byte count {s:?} overflows"));
    }
    Ok(bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_duration_accepts_common_forms() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("30s").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("1h").unwrap(), Duration::from_secs(3600));
        assert_eq!(parse_duration("250us").unwrap(), Duration::from_micros(250));
        assert_eq!(parse_duration("3").unwrap(), Duration::from_secs(3));
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert_eq!(parse_duration(" 10ms ").unwrap(), Duration::from_millis(10));
    }

    #[test]
    fn parse_duration_rejects_garbage() {
        for bad in ["", "fast", "10 parsecs", "-5s", "1.2.3s", "s", "99999999999999999999s"] {
            assert!(parse_duration(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_bytes_accepts_common_forms() {
        assert_eq!(parse_bytes("1024").unwrap(), 1024);
        assert_eq!(parse_bytes("64MiB").unwrap(), 64 * 1024 * 1024);
        assert_eq!(parse_bytes("64mib").unwrap(), 64 * 1024 * 1024);
        assert_eq!(parse_bytes("2GB").unwrap(), 2_000_000_000);
        assert_eq!(parse_bytes("512KiB").unwrap(), 512 * 1024);
        assert_eq!(parse_bytes("1.5kb").unwrap(), 1500);
        assert_eq!(parse_bytes("10B").unwrap(), 10);
    }

    #[test]
    fn parse_bytes_rejects_garbage() {
        for bad in ["", "lots", "64QiB", "-1", "MiB"] {
            assert!(parse_bytes(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn unbounded_governor_only_trips_on_cancel() {
        let g = QueryGovernor::unbounded();
        assert!(g.check("N").is_ok());
        g.charge("N", u64::MAX / 4).unwrap();
        assert!(g.check("N").is_ok());
        g.cancel();
        match g.check("FINAL") {
            Err(GmqlError::Cancelled { node, .. }) => assert_eq!(node, "FINAL"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn deadline_trip_reports_limit_and_node() {
        let g = QueryGovernor::new(GovernorLimits {
            timeout: Some(Duration::from_millis(5)),
            max_memory: None,
        });
        std::thread::sleep(Duration::from_millis(10));
        match g.check("JOINED") {
            Err(GmqlError::DeadlineExceeded { node, limit_ms, elapsed_ms, .. }) => {
                assert_eq!(node, "JOINED");
                assert_eq!(limit_ms, 5);
                assert!(elapsed_ms >= 5);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budget_trip_reports_accounting() {
        let g = QueryGovernor::new(GovernorLimits { timeout: None, max_memory: Some(1000) });
        g.charge("A", 600).unwrap();
        match g.charge("B", 500) {
            Err(GmqlError::MemoryExhausted { node, requested, budget, charged }) => {
                assert_eq!((node.as_str(), requested, budget, charged), ("B", 500, 1000, 600));
            }
            other => panic!("expected MemoryExhausted, got {other:?}"),
        }
        g.release(600);
        g.charge("B", 500).unwrap();
        assert_eq!(g.mem_peak(), 600);
    }

    #[test]
    fn cancel_token_cancels_from_another_thread() {
        let g = QueryGovernor::unbounded();
        let token = g.cancel_token();
        let handle = std::thread::spawn(move || token.cancel());
        handle.join().unwrap();
        assert!(g.check("X").is_err());
    }

    #[test]
    fn limits_from_env_parse_and_reject() {
        // Use process-global env vars carefully: set, read, and restore.
        std::env::set_var(ENV_TIMEOUT, "250ms");
        std::env::set_var(ENV_MAX_MEMORY, "1MiB");
        let limits = GovernorLimits::from_env().unwrap();
        assert_eq!(limits.timeout, Some(Duration::from_millis(250)));
        assert_eq!(limits.max_memory, Some(1024 * 1024));
        assert!(limits.is_bounded());
        std::env::set_var(ENV_TIMEOUT, "not-a-duration");
        assert!(GovernorLimits::from_env().is_err());
        std::env::remove_var(ENV_TIMEOUT);
        std::env::remove_var(ENV_MAX_MEMORY);
        assert!(!GovernorLimits::from_env().unwrap().is_bounded());
    }
}
