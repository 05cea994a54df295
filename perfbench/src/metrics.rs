//! Metric names, units and bounds, and how each value is computed from
//! what the window and the traced replay observed. `BENCHMARK.json` lists
//! the same names; `--self-test` checks that the two agree.

use crate::harness::{Timed, Window};
use crate::replay::Replay;
use crate::stats::{geometric_mean, median, percentile, sorted};
use crate::trace::self_times_ns;
use crate::workloads::{Kind, Plan};
use std::collections::BTreeMap;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, measured from
/// outside with tracing off. `bound` is the share of the baseline's median
/// by which it may get worse before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics every workload reports. The eighth number of the
/// issue, `failed_share`, is 0 on a correct system and so cannot carry a
/// relative bound: it travels as `failed` / `attempted` of every result
/// (any failed operation makes the run incorrect, bound +0 absolute).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "throughput_ops_s", unit: "1/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "latency_p95_ms", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "cpu_s_per_op", unit: "s", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "stored_bytes_per_region", unit: "B", better: Better::Lower, bound: 0.02 },
];

/// Operator kinds with a `core.exec.node_ms.<OP>` metric.
pub const OPERATORS: [&str; 12] = [
    "SOURCE",
    "SELECT",
    "PROJECT",
    "EXTEND",
    "MAP",
    "JOIN",
    "COVER",
    "GROUP",
    "ORDER",
    "MERGE",
    "UNION",
    "DIFFERENCE",
];

/// Layer metrics taken as the median, over the replayed operations that
/// entered the layer, of the time spent in spans of that name:
/// `(metric, span name, unit)`.
const SPAN_TIMES: [(&str, &str, &str); 21] = [
    ("cli.process_ms", "cli.process", "ms"),
    ("cli.report_us", "cli.report", "us"),
    ("gdm.drop_ms", "gdm.drop", "ms"),
    ("engine.pool_start_us", "engine.pool_start", "us"),
    ("repository.open_ms", "repository.open", "ms"),
    ("repository.save_ms", "repository.save", "ms"),
    ("repository.delete_ms", "repository.delete", "ms"),
    ("repository.result_store.lookup_ms", "repository.result_store.lookup", "ms"),
    ("repository.result_store.store_ms", "repository.result_store.store", "ms"),
    ("formats.index_read_us", "formats.index_read", "us"),
    ("formats.block_read_ms", "formats.block_read", "ms"),
    ("formats.decode_ms", "formats.decode", "ms"),
    ("formats.text_parse_ms", "formats.text_parse", "ms"),
    ("formats.encode_ms", "formats.encode", "ms"),
    ("core.parse_us", "core.parse", "us"),
    ("core.compile_us", "core.compile", "us"),
    ("core.optimize_us", "core.optimize", "us"),
    ("core.scan_spec_us", "core.scan_spec", "us"),
    ("core.fingerprint_us", "core.fingerprint", "us"),
    ("server.frame_decode_us", "server.frame_decode", "us"),
    ("server.reply_encode_us", "server.reply_encode", "us"),
];

/// The remaining layer metrics: counts, ratios, and the client-side serve
/// numbers: `(metric, unit, better)`.
const OTHER_LAYER: [(&str, &str, Better); 17] = [
    ("repository.result_store.hit_ratio", "ratio", Better::Higher),
    ("core.scan.bytes_read_share", "ratio", Better::Lower),
    ("core.scan.blocks_read_share", "ratio", Better::Lower),
    ("core.result_cache.lookup_us", "us", Better::Lower),
    ("core.result_cache.hit_ratio", "ratio", Better::Higher),
    ("core.result_cache.evictions", "count", Better::Lower),
    ("core.exec.regions_in_per_out", "ratio", Better::Lower),
    ("engine.pool_utilization", "ratio", Better::Higher),
    ("engine.pool_jobs_per_op", "count", Better::Lower),
    ("engine.pool_steals_per_op", "count", Better::Lower),
    ("core.governor.peak_bytes", "B", Better::Lower),
    ("server.reply_bytes", "B", Better::Lower),
    ("server.hit_rtt_us", "us", Better::Lower),
    ("server.overhead_us", "us", Better::Lower),
    ("server.rejected", "count", Better::Lower),
    ("trace.coverage", "ratio", Better::Higher),
    ("trace.replay_ratio", "ratio", Better::Lower),
];

/// Every per-layer metric: `(name, unit, better)`, in reporting order.
pub fn per_layer_table() -> Vec<(String, &'static str, Better)> {
    let mut table: Vec<(String, &'static str, Better)> =
        SPAN_TIMES.iter().map(|(m, _, unit)| ((*m).to_owned(), *unit, Better::Lower)).collect();
    table.extend(
        OPERATORS.iter().map(|op| (format!("core.exec.node_ms.{op}"), "ms", Better::Lower)),
    );
    table.extend(OTHER_LAYER.iter().map(|(m, unit, better)| ((*m).to_owned(), *unit, *better)));
    table
}

/// Per-template line of the run record.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TemplateStat {
    pub name: String,
    pub samples: usize,
    pub median_ms: f64,
    /// Share of the samples answered from a cache.
    pub cached_share: f64,
}

/// One template's end-to-end latency against its traced replay.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TemplateCoverage {
    pub name: String,
    pub end_to_end_ms: f64,
    pub replayed_ms: f64,
    pub in_layers_ms: f64,
}

/// The end-to-end numbers of one window (everything but `setup_s`).
pub struct E2e {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub templates: Vec<TemplateStat>,
}

fn all_timed(windows: &[Window]) -> impl Iterator<Item = &Timed> {
    windows.iter().flat_map(|w| w.timed.iter().flatten())
}

/// Median latency (ms) and sample count per template.
fn template_stats(plan: &Plan, windows: &[Window]) -> Vec<TemplateStat> {
    plan.templates
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let of_template: Vec<&Timed> =
                all_timed(windows).filter(|x| plan.ops[x.op].template == t).collect();
            let lat: Vec<f64> = of_template.iter().map(|x| x.latency_us / 1e3).collect();
            let cached = of_template.iter().filter(|x| x.outcome.cached).count();
            TemplateStat {
                name: (*name).to_owned(),
                samples: lat.len(),
                median_ms: median(&lat),
                cached_share: cached as f64 / lat.len().max(1) as f64,
            }
        })
        .collect()
}

/// One window's rate: sum over clients of `block / median block duration`.
/// Operations are grouped, per client, in consecutive blocks of one template
/// cycle, and the median block sets the rate, so a stall in one block does
/// not move it. Falls back to ops ÷ elapsed when a client finished no block.
fn throughput(plan: &Plan, window: &Window) -> f64 {
    let mut rate = 0.0;
    for timed in &window.timed {
        let mut durations = Vec::new();
        let mut block_start = 0.0;
        for block in timed.chunks_exact(plan.block) {
            let end = block[plan.block - 1].end_us;
            durations.push(end - block_start);
            block_start = end;
        }
        if durations.is_empty() {
            return window.timed.iter().map(Vec::len).sum::<usize>() as f64 / window.elapsed_s;
        }
        rate += plan.block as f64 / (median(&durations) / 1e6);
    }
    rate
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// End-to-end numbers of one run, which is one window per set-up. Rate and
/// latency percentiles are taken **within** each window (medians, so a stall
/// does not move them) and then **averaged over the windows**: what differs
/// between two server processes is not noise around one value but often one
/// of two values (a kernel runs ±10 % faster in one process than the next),
/// and a mean over the set-ups is steadier on that than a pooled median.
pub fn end_to_end(plan: &Plan, windows: &[Window], stored_bytes_per_region: f64) -> E2e {
    let attempted = all_timed(windows).count();
    let failed = all_timed(windows).filter(|x| !x.outcome.ok).count();
    let each =
        |f: &dyn Fn(&Window) -> f64| -> f64 { mean(&windows.iter().map(f).collect::<Vec<_>>()) };
    let mut values = BTreeMap::new();
    values.insert("throughput_ops_s", each(&|w| throughput(plan, w)));
    values.insert(
        "latency_p50_ms",
        each(&|w| {
            let medians: Vec<f64> = template_stats(plan, std::slice::from_ref(w))
                .iter()
                .filter(|t| t.samples > 0)
                .map(|t| t.median_ms)
                .collect();
            geometric_mean(&medians)
        }),
    );
    values.insert(
        "latency_p95_ms",
        each(&|w| {
            let pooled = sorted(w.timed.iter().flatten().map(|x| x.latency_us / 1e3).collect());
            percentile(&pooled, 95.0)
        }),
    );
    let cpu_s: f64 = windows.iter().map(|w| w.cpu_s).sum();
    values.insert("cpu_s_per_op", cpu_s / attempted.max(1) as f64);
    values.insert("peak_rss_mb", each(&|w| w.peak_rss_mb));
    values.insert("stored_bytes_per_region", stored_bytes_per_region);
    E2e { values, attempted, failed, templates: template_stats(plan, windows) }
}

/// Per template: median end-to-end latency of the untraced window, median
/// wall time of the replayed operation, and median time the replayed
/// operation spent inside layer spans (all ms). Templates missing from
/// either side are left out.
pub fn template_coverage(plan: &Plan, replay: &Replay, window: &Window) -> Vec<TemplateCoverage> {
    let own = self_times_ns(&replay.spans);
    let mut by_op: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for (s, own_ns) in replay.spans.iter().zip(&own).filter(|(s, _)| s.name == "op") {
        let wall = s.duration_ns() as f64;
        by_op.insert(s.op, (wall - *own_ns as f64, wall));
    }
    let mut rows = Vec::new();
    for (t, stat) in template_stats(plan, std::slice::from_ref(window)).into_iter().enumerate() {
        let of_template: Vec<(f64, f64)> = replay
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| plan.ops[o.op].template == t)
            .filter_map(|(n, _)| by_op.get(&n).copied())
            .collect();
        if of_template.is_empty() || stat.samples == 0 {
            continue;
        }
        rows.push(TemplateCoverage {
            name: stat.name,
            end_to_end_ms: stat.median_ms,
            replayed_ms: median(&of_template.iter().map(|c| c.1).collect::<Vec<_>>()) / 1e6,
            in_layers_ms: median(&of_template.iter().map(|c| c.0).collect::<Vec<_>>()) / 1e6,
        });
    }
    rows
}

/// Compute every per-layer metric from the traced replay plus the (short,
/// untraced) window of the same run, which supplies the client-side serve
/// numbers and the end-to-end latency the trace is compared against. A
/// layer the workload never enters reports 0.
pub fn per_layer(plan: &Plan, replay: &Replay, window: &Window) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> =
        per_layer_table().into_iter().map(|(name, _, _)| (name, 0.0)).collect();
    let spans = &replay.spans;

    // Time per op in spans of one name.
    let per_op_ns = |span_name: &str| -> BTreeMap<usize, f64> {
        let mut by_op = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == span_name) {
            *by_op.entry(s.op).or_insert(0.0) += s.duration_ns() as f64;
        }
        by_op
    };
    for (metric, span_name, unit) in SPAN_TIMES {
        let per_op: Vec<f64> = per_op_ns(span_name).into_values().collect();
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        out.insert(metric.to_owned(), median(&per_op) / scale);
    }

    // Operator node times, from the executor's own NodeMetrics.
    fn family(operator: &str) -> &str {
        match operator {
            "HISTOGRAM" | "FLAT" | "SUMMIT" => "COVER",
            other => other,
        }
    }
    for op_name in OPERATORS {
        let per_op: Vec<f64> = replay
            .ops
            .iter()
            .filter_map(|o| {
                let hits: Vec<f64> = o
                    .nodes
                    .iter()
                    .filter(|n| family(n.operator.as_str()) == op_name)
                    .map(|n| n.wall_ms)
                    .collect();
                (!hits.is_empty()).then(|| hits.iter().sum())
            })
            .collect();
        out.insert(format!("core.exec.node_ms.{op_name}"), median(&per_op));
    }
    let applied = || replay.ops.iter().flat_map(|o| &o.nodes).filter(|n| n.operator != "SOURCE");
    let regions_out: usize = applied().map(|n| n.regions_out).sum();
    if regions_out > 0 {
        let regions_in: usize = applied().map(|n| n.regions_in).sum();
        out.insert("core.exec.regions_in_per_out".into(), regions_in as f64 / regions_out as f64);
    }

    // Exact counts of what the scans read.
    let sum = |f: fn(&crate::replay::ScanTotals) -> u64| -> f64 {
        replay.ops.iter().map(|o| f(&o.scan)).sum::<u64>() as f64
    };
    if sum(|s| s.bytes_total) > 0.0 {
        out.insert(
            "core.scan.bytes_read_share".into(),
            sum(|s| s.bytes_read) / sum(|s| s.bytes_total),
        );
        out.insert(
            "core.scan.blocks_read_share".into(),
            sum(|s| s.blocks_read) / sum(|s| s.blocks_total),
        );
    }

    // Worker pool and governor, over ops that executed a plan.
    let executed: Vec<_> = replay.ops.iter().filter(|o| !o.nodes.is_empty()).collect();
    if !executed.is_empty() {
        let of = |f: fn(&crate::replay::OpTrace) -> f64| -> Vec<f64> {
            executed.iter().map(|o| f(o)).collect()
        };
        out.insert("engine.pool_utilization".into(), median(&of(|o| o.pool_utilization)));
        out.insert("engine.pool_jobs_per_op".into(), median(&of(|o| o.pool_jobs as f64)));
        let steals = of(|o| o.pool_steals as f64);
        out.insert(
            "engine.pool_steals_per_op".into(),
            steals.iter().sum::<f64>() / steals.len() as f64,
        );
        let peak = executed.iter().map(|o| o.governor_peak).max().unwrap_or(0);
        out.insert("core.governor.peak_bytes".into(), peak as f64);
    }

    // Result cache (replayed lookups; hit ratio and evictions from the
    // real server's Stats) and on-disk result store.
    let cache_ns = per_op_ns("core.result_cache");
    let hit_lookups: Vec<f64> = replay
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.cache_hit == Some(true))
        .filter_map(|(n, _)| cache_ns.get(&n).copied())
        .collect();
    out.insert("core.result_cache.lookup_us".into(), median(&hit_lookups) / 1e3);
    if let Some((before, after)) = &window.stats {
        let hits = (after.result_cache_hits - before.result_cache_hits) as f64;
        let coalesced = (after.result_cache_coalesced - before.result_cache_coalesced) as f64;
        let misses = (after.result_cache_misses - before.result_cache_misses) as f64;
        if hits + coalesced + misses > 0.0 {
            out.insert(
                "core.result_cache.hit_ratio".into(),
                (hits + coalesced) / (hits + coalesced + misses),
            );
        }
        out.insert(
            "core.result_cache.evictions".into(),
            (after.result_cache_evictions - before.result_cache_evictions) as f64,
        );
        out.insert("server.rejected".into(), (after.rejected - before.rejected) as f64);
        let served: Vec<&Timed> = all_timed(std::slice::from_ref(window)).collect();
        let hit_rtt: Vec<f64> =
            served.iter().filter(|x| x.outcome.cached).map(|x| x.latency_us).collect();
        let overhead: Vec<f64> = served
            .iter()
            .filter(|x| x.outcome.ok && !x.outcome.cached)
            .map(|x| x.latency_us - x.outcome.server_us)
            .collect();
        out.insert("server.hit_rtt_us".into(), median(&hit_rtt));
        out.insert("server.overhead_us".into(), median(&overhead));
    }
    if plan.kind == Kind::IngestChurn {
        // Queries that went through the on-disk store in the real window.
        let lookups: Vec<&Timed> = all_timed(std::slice::from_ref(window))
            .filter(|x| matches!(plan.ops[x.op].action, crate::workloads::Action::Query { .. }))
            .collect();
        if !lookups.is_empty() {
            let hits = lookups.iter().filter(|x| x.outcome.cached).count();
            out.insert(
                "repository.result_store.hit_ratio".into(),
                hits as f64 / lookups.len() as f64,
            );
        }
    }
    let replies: Vec<f64> =
        replay.ops.iter().filter(|o| o.reply_bytes > 0).map(|o| o.reply_bytes as f64).collect();
    out.insert("server.reply_bytes".into(), median(&replies));

    // Coverage: per template, the median time a replayed op spends inside
    // layer spans, against the end-to-end latency of the same template.
    let rows = template_coverage(plan, replay, window);
    let geo =
        |f: fn(&TemplateCoverage) -> f64| geometric_mean(&rows.iter().map(f).collect::<Vec<_>>());
    let e2e_p50 = geo(|r| r.end_to_end_ms);
    if e2e_p50 > 0.0 {
        out.insert("trace.coverage".into(), geo(|r| r.in_layers_ms) / e2e_p50);
        out.insert("trace.replay_ratio".into(), geo(|r| r.replayed_ms) / e2e_p50);
    }
    out
}

/// Share of the replayed ops' layer self time per span name, largest first
/// (the "where do the milliseconds go" table of the full run).
pub fn self_time_shares(replay: &Replay) -> Vec<(String, f64)> {
    let own = self_times_ns(&replay.spans);
    let in_op: Vec<bool> = {
        // A span counts when its root is an "op" span (side probes do not).
        let mut rooted = vec![false; replay.spans.len()];
        for (i, s) in replay.spans.iter().enumerate() {
            rooted[i] = match s.parent {
                None => s.name == "op",
                Some(p) => rooted[p],
            };
        }
        rooted
    };
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for ((s, own_ns), rooted) in replay.spans.iter().zip(&own).zip(&in_op) {
        if *rooted {
            let name = if s.name == "op" { "(outside any layer)" } else { s.name.as_str() };
            *by_name.entry(name).or_insert(0.0) += *own_ns as f64;
        }
    }
    let total: f64 = by_name.values().sum();
    let mut shares: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(n, ns)| (n.to_owned(), if total > 0.0 { ns / total } else { 0.0 }))
        .collect();
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
    shares
}
