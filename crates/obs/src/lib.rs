//! # nggc-obs — observability for the NGGC workspace
//!
//! Three layers, zero external dependencies:
//!
//! 1. **Metrics** ([`metrics`]): a process-global registry of named
//!    atomic counters, gauges, and log₂-bucketed histograms, with
//!    Prometheus-style text exposition and JSON export. The registry
//!    can be disabled globally ([`metrics::set_enabled`]); disabled
//!    handles cost one relaxed atomic load per operation.
//!
//! 2. **Tracing** ([`trace`]): structured spans with parent ids, wall
//!    time, and `key=value` fields, fanned out to pluggable
//!    [`trace::Subscriber`]s — a stderr pretty-printer for ad-hoc
//!    debugging and an in-memory collector feeding the profiler and
//!    tests.
//!
//! 3. **Profiling** ([`profile`]): renders a collector's span records
//!    as a hierarchical tree (`nggc query --profile`) and as a top-k
//!    operator table ranked by self time.
//!
//! The metric name catalog and span taxonomy live in
//! `docs/observability.md`.
//!
//! The crate also holds [`shared`] — the one [`SingleFlight`] and the one
//! [`ByteLru`] under the repository's dataset cache and the query result
//! cache — because it is the std-only crate both of those already name;
//! and [`account`], the per-thread [`ReadAccount`] the repository adds its
//! reads to, for the same reason.

pub mod account;
pub mod metrics;
pub mod profile;
pub mod shared;
pub mod trace;

pub use account::{account_reads, record_read, ReadAccount};
pub use metrics::{global, Counter, Gauge, Histogram, Registry};
pub use profile::{render_span_tree, render_top_k};
pub use shared::{ByteLru, FlightOutcome, SingleFlight};
pub use trace::{
    add_subscriber, clear_subscribers, collect_local, current_trace_id, emit_record, span,
    MemorySubscriber, SpanGuard, SpanRecord, StderrSubscriber, Subscriber, TraceContext,
    TraceScope, MEMORY_SUBSCRIBER_CAPACITY,
};
