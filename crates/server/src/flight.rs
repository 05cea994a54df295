//! The slow-query flight recorder `nggc query` and `nggc serve` share.
//!
//! Post-hoc diagnosis of "why was *that* query slow last Tuesday" needs
//! the trace of a query nobody was watching. An armed recorder is handed
//! every finished query ([`FlightRecorder::record`]) and writes one JSON
//! line — the schema is [`FlightRecord`], described in
//! `docs/observability.md` — for each one that outran the threshold or
//! was stopped by its governor.

use crate::session::QueryReport;
use nggc_core::{GmqlError, LogicalPlan, NodeMetrics};
use nggc_obs::{MemorySubscriber, SpanRecord};
use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// An armed recorder: when to record, and where to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    /// A query that ran longer than this is recorded as `slow`; `None`
    /// records governor trips only.
    pub threshold: Option<Duration>,
    /// File the records are appended to, one JSON line each; `None`
    /// writes them to the caller's fallback writer (stderr).
    pub sink: Option<PathBuf>,
}

/// The one spelling of how a failed query ended, for flight records and
/// `serve.request` spans.
pub fn outcome_name(error: &GmqlError) -> &'static str {
    match error {
        GmqlError::DeadlineExceeded { .. } => "deadline",
        GmqlError::Cancelled { .. } => "cancelled",
        GmqlError::MemoryExhausted { .. } => "memory",
        _ => "error",
    }
}

impl FlightRecorder {
    /// The recorder the environment asks for: `NGGC_SLOW_QUERY_MS` sets
    /// the threshold, `NGGC_FLIGHT_RECORDER` names the sink file, either
    /// one arms it. A malformed value is an error, the posture of
    /// [`nggc_core::GovernorLimits::from_env`].
    pub fn from_env() -> Result<Option<FlightRecorder>, String> {
        let threshold = match std::env::var("NGGC_SLOW_QUERY_MS") {
            Ok(raw) => {
                let ms: u64 = raw.trim().parse().map_err(|_| {
                    format!("NGGC_SLOW_QUERY_MS: expected integer milliseconds, got {raw:?}")
                })?;
                Some(Duration::from_millis(ms))
            }
            Err(_) => None,
        };
        let sink = std::env::var("NGGC_FLIGHT_RECORDER").ok().map(PathBuf::from);
        Ok((threshold.is_some() || sink.is_some()).then_some(FlightRecorder { threshold, sink }))
    }

    /// Record the executed `query` if its governor stopped it (always,
    /// once armed) or it ran longer than the threshold, with the spans of
    /// its trace that `spans` still holds. The line goes to the sink file,
    /// and a note that it did (or why it could not) to `fallback`; with
    /// no sink the line itself goes to `fallback`. Returns whether the
    /// query was one to record.
    pub fn record(
        &self,
        query: &str,
        report: &QueryReport,
        spans: &MemorySubscriber,
        fallback: &mut dyn Write,
    ) -> bool {
        let error = report.outputs.as_ref().err();
        let tripped = error.is_some_and(GmqlError::is_resource_limit);
        let slow = self.threshold.is_some_and(|t| report.elapsed > t);
        if !tripped && !slow {
            return false;
        }
        let record = FlightRecord {
            kind: "nggc_flight_record".to_owned(),
            outcome: error.map_or("slow", outcome_name).to_owned(),
            query: query.to_owned(),
            elapsed_us: report.elapsed.as_micros() as u64,
            trace_id: report.trace_id,
            governor_charged_bytes: report.charged_bytes,
            governor_peak_bytes: report.peak_bytes,
            dropped_spans: spans.dropped(),
            // One collector may serve many queries; this one's spans are
            // the ones stamped with its trace id.
            trace: spans.records_of(report.trace_id).iter().map(TraceSpan::from).collect(),
            nodes: node_stats(&report.plan, &report.metrics),
        };
        let Ok(mut line) = serde_json::to_string(&record) else {
            return false;
        };
        // Newline included, so that the record is one write: concurrent
        // requests append to the same sink, and two writes would let
        // their lines interleave.
        line.push('\n');
        let _ = match &self.sink {
            Some(path) => {
                let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
                match file.and_then(|mut f| f.write_all(line.as_bytes())) {
                    Ok(()) => writeln!(
                        fallback,
                        "flight recorder: {} query recorded to {}",
                        record.outcome,
                        path.display()
                    ),
                    Err(e) => writeln!(fallback, "flight recorder: {}: {e}", path.display()),
                }
            }
            None => fallback.write_all(line.as_bytes()),
        };
        true
    }
}

/// One flight-recorder line. Durations are integer microseconds so the
/// output diffs cleanly.
#[derive(Serialize)]
pub struct FlightRecord {
    kind: String,
    outcome: String,
    query: String,
    elapsed_us: u64,
    trace_id: u64,
    governor_charged_bytes: u64,
    governor_peak_bytes: u64,
    dropped_spans: u64,
    trace: Vec<TraceSpan>,
    nodes: Vec<NodeStats>,
}

/// One span of a query's trace, as a flight record carries it.
#[derive(Serialize)]
struct TraceSpan {
    id: u64,
    parent: Option<u64>,
    trace_id: u64,
    name: String,
    start_us: u64,
    wall_us: u64,
    fields: Vec<(String, String)>,
}

impl From<&SpanRecord> for TraceSpan {
    fn from(r: &SpanRecord) -> TraceSpan {
        TraceSpan {
            id: r.id,
            parent: r.parent,
            trace_id: r.trace_id,
            name: r.name.clone(),
            start_us: r.start.as_micros() as u64,
            wall_us: r.wall.as_micros() as u64,
            fields: r.fields.clone(),
        }
    }
}

/// Per-plan-node entry of a flight record and of the `--explain-analyze
/// --json` document.
#[derive(Serialize)]
pub struct NodeStats {
    id: usize,
    label: String,
    operator: String,
    inputs: Vec<usize>,
    samples_in: usize,
    regions_in: usize,
    samples_out: usize,
    regions_out: usize,
    bytes_out: usize,
    wall_us: u64,
    mem_charged: u64,
    mem_released: u64,
    cache_hits: u64,
    cache_misses: u64,
    scan_pruned: u64,
    scan_bytes_read: u64,
    scan_bytes_skipped: u64,
    scan_blocks_read: u64,
    scan_blocks_skipped: u64,
}

/// `metrics[i]` as the stats of `plan.nodes[i]`: the plan must be the
/// one the executor ran (already optimized), or the `inputs` edges lie.
pub fn node_stats(plan: &LogicalPlan, metrics: &[NodeMetrics]) -> Vec<NodeStats> {
    let stats = |(id, (node, m)): (usize, (&nggc_core::LogicalNode, &NodeMetrics))| NodeStats {
        id,
        label: m.label.clone(),
        operator: m.operator.clone(),
        inputs: node.inputs.clone(),
        samples_in: m.samples_in,
        regions_in: m.regions_in,
        samples_out: m.samples_out,
        regions_out: m.regions_out,
        bytes_out: m.bytes_out,
        wall_us: m.wall.as_micros() as u64,
        mem_charged: m.mem_charged,
        mem_released: m.mem_released,
        cache_hits: m.reads.cache_hits,
        cache_misses: m.reads.cache_misses,
        scan_pruned: m.reads.scan_pruned,
        scan_bytes_read: m.reads.scan_bytes_read,
        scan_bytes_skipped: m.reads.scan_bytes_skipped,
        scan_blocks_read: m.reads.scan_blocks_read,
        scan_blocks_skipped: m.reads.scan_blocks_skipped,
    };
    plan.nodes.iter().zip(metrics).enumerate().map(stats).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_core::{CacheOutcome, GovernorLimits, OptimizerReport, QueryGovernor};

    /// An executed query's report: its outputs, or `error`.
    fn report(elapsed: Duration, error: Option<GmqlError>) -> QueryReport {
        let statements = nggc_core::parse("X = SELECT() D; MATERIALIZE X;").unwrap();
        QueryReport {
            outputs: error.map_or_else(|| Ok(Default::default()), Err),
            plan: std::sync::Arc::new(
                LogicalPlan::compile(&statements, &|_| Some(nggc_gdm::Schema::empty())).unwrap(),
            ),
            optimizer: OptimizerReport::default(),
            planning: crate::Planning::Prepared,
            fingerprint: 0,
            metrics: Vec::new(),
            elapsed,
            trace_id: 7,
            outcome: CacheOutcome::Miss,
            charged_bytes: 0,
            peak_bytes: 0,
        }
    }

    #[test]
    fn threshold_without_sink_writes_the_record_to_the_fallback() {
        let spans = MemorySubscriber::default();
        let recorder = FlightRecorder { threshold: Some(Duration::from_millis(5)), sink: None };
        let mut out = Vec::new();

        // At the threshold is not over it; nothing is written.
        let at = report(Duration::from_millis(5), None);
        assert!(!recorder.record("Q", &at, &spans, &mut out));
        assert!(out.is_empty());

        let over = report(Duration::from_millis(6), None);
        assert!(recorder.record("Q", &over, &spans, &mut out));
        let line = String::from_utf8(out).unwrap();
        assert_eq!(line.lines().count(), 1, "one JSON line: {line}");
        assert!(line.contains(r#""kind":"nggc_flight_record""#), "{line}");
        assert!(line.contains(r#""outcome":"slow""#), "{line}");
        assert!(line.contains(r#""elapsed_us":6000"#), "{line}");
    }

    #[test]
    fn governor_trips_are_recorded_whatever_the_threshold() {
        let governor = QueryGovernor::new(GovernorLimits::default());
        let spans = MemorySubscriber::default();
        let recorder = FlightRecorder { threshold: None, sink: None };
        let mut out = Vec::new();
        let fast = Duration::from_micros(1);
        assert!(!recorder.record("Q", &report(fast, None), &spans, &mut out));
        let plain = GmqlError::runtime("no such dataset");
        assert!(!recorder.record("Q", &report(fast, Some(plain)), &spans, &mut out));
        assert!(out.is_empty(), "neither slow nor tripped");
        governor.cancel_token().cancel();
        let cancelled = governor.check("X").unwrap_err();
        assert!(recorder.record("Q", &report(fast, Some(cancelled)), &spans, &mut out));
        assert!(String::from_utf8(out).unwrap().contains(r#""outcome":"cancelled""#));
    }
}
