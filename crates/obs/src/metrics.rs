//! Process-global metrics registry.
//!
//! Metrics are identified by `(name, sorted label pairs)`. Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of the
//! registered cells; hot paths should acquire a handle once and reuse
//! it. Every mutation first checks the registry's enabled flag with one
//! relaxed load, so a disabled registry costs almost nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log₂ histogram buckets: bucket `i` counts values `v` with
/// `2^(i-1) < v <= 2^i` (bucket 0 counts `v == 0` and `v == 1`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Sorted `key=value` label set; part of a metric's identity.
pub type Labels = Vec<(String, String)>;

#[derive(Debug)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug)]
struct GaugeCell {
    value: AtomicI64,
}

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// Set-or-adjust gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Set to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// Log₂-bucketed histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

/// Bucket index for a recorded value: 0 for 0 and 1, otherwise the
/// position of the highest set bit (so bucket upper bounds are powers
/// of two).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        // ceil(log2(v)): highest bit position, +1 when not a power of two.
        let bits = 64 - v.leading_zeros() as usize;
        if v.is_power_of_two() {
            bits - 1
        } else {
            bits
        }
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of non-empty `(bucket_upper_bound, count)` pairs.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let c = self.cell.buckets[i].load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_bound(i), c))
            })
            .collect()
    }

    /// Approximate quantile (`q` in `[0, 1]`) from bucket upper bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for i in 0..HISTOGRAM_BUCKETS {
            seen += self.cell.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }
}

enum Metric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

/// A registry of named metrics.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<(String, Labels), Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// New enabled registry.
    pub fn new() -> Registry {
        Registry { enabled: Arc::new(AtomicBool::new(true)), metrics: Mutex::new(BTreeMap::new()) }
    }

    /// Enable or disable all mutation through this registry's handles.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether mutation is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Get or register the counter `name` with no labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get or register the counter `name` with `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = (name.to_owned(), normalize(labels));
        let mut map = self.metrics.lock().unwrap();
        let metric = map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Arc::new(CounterCell { value: AtomicU64::new(0) })));
        match metric {
            Metric::Counter(cell) => {
                Counter { enabled: Arc::clone(&self.enabled), cell: Arc::clone(cell) }
            }
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or register the gauge `name` with no labels.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get or register the gauge `name` with `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = (name.to_owned(), normalize(labels));
        let mut map = self.metrics.lock().unwrap();
        let metric = map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Arc::new(GaugeCell { value: AtomicI64::new(0) })));
        match metric {
            Metric::Gauge(cell) => {
                Gauge { enabled: Arc::clone(&self.enabled), cell: Arc::clone(cell) }
            }
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or register the histogram `name` with no labels.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Get or register the histogram `name` with `labels`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = (name.to_owned(), normalize(labels));
        let mut map = self.metrics.lock().unwrap();
        let metric = map.entry(key).or_insert_with(|| {
            Metric::Histogram(Arc::new(HistogramCell {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }))
        });
        match metric {
            Metric::Histogram(cell) => {
                Histogram { enabled: Arc::clone(&self.enabled), cell: Arc::clone(cell) }
            }
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Reset every metric to zero (for tests and per-query profiles).
    pub fn reset(&self) {
        let map = self.metrics.lock().unwrap();
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.value.store(0, Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for b in &h.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.count.store(0, Ordering::Relaxed);
                    h.sum.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Prometheus text exposition of every registered metric.
    pub fn render_prometheus(&self) -> String {
        let map = self.metrics.lock().unwrap();
        let mut out = String::new();
        let mut last_name = None::<&str>;
        for ((name, labels), metric) in map.iter() {
            let lbl = render_labels(labels);
            // One TYPE line per metric name (label sets of the same
            // metric are adjacent in the BTreeMap).
            let announce = last_name != Some(name.as_str());
            last_name = Some(name.as_str());
            match metric {
                Metric::Counter(c) => {
                    if announce {
                        let _ = writeln!(out, "# TYPE {name} counter");
                    }
                    let _ = writeln!(out, "{name}{lbl} {}", c.value.load(Ordering::Relaxed));
                }
                Metric::Gauge(g) => {
                    if announce {
                        let _ = writeln!(out, "# TYPE {name} gauge");
                    }
                    let _ = writeln!(out, "{name}{lbl} {}", g.value.load(Ordering::Relaxed));
                }
                Metric::Histogram(h) => {
                    if announce {
                        let _ = writeln!(out, "# TYPE {name} histogram");
                    }
                    let mut cumulative = 0;
                    for i in 0..HISTOGRAM_BUCKETS {
                        let c = h.buckets[i].load(Ordering::Relaxed);
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let le = bucket_bound(i);
                        let lbl = render_labels_extra(labels, "le", &le.to_string());
                        let _ = writeln!(out, "{name}_bucket{lbl} {cumulative}");
                    }
                    let lbl_inf = render_labels_extra(labels, "le", "+Inf");
                    let _ = writeln!(out, "{name}_bucket{lbl_inf} {cumulative}");
                    let _ = writeln!(out, "{name}_sum{lbl} {}", h.sum.load(Ordering::Relaxed));
                    let _ = writeln!(out, "{name}_count{lbl} {}", h.count.load(Ordering::Relaxed));
                }
            }
        }
        out
    }

    /// JSON export: an array of metric objects.
    pub fn render_json(&self) -> String {
        let map = self.metrics.lock().unwrap();
        let mut out = String::from("[");
        for (i, ((name, labels), metric)) in map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(name, &mut out);
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(k, &mut out);
                out.push(':');
                json_string(v, &mut out);
            }
            out.push('}');
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"counter\",\"value\":{}",
                        c.value.load(Ordering::Relaxed)
                    );
                }
                Metric::Gauge(g) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"gauge\",\"value\":{}",
                        g.value.load(Ordering::Relaxed)
                    );
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count.load(Ordering::Relaxed),
                        h.sum.load(Ordering::Relaxed)
                    );
                    let mut first = true;
                    for bi in 0..HISTOGRAM_BUCKETS {
                        let c = h.buckets[bi].load(Ordering::Relaxed);
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let _ = write!(out, "[{},{}]", bucket_bound(bi), c);
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

fn normalize(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
    v.sort();
    v
}

fn render_labels(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={:?}", v)).collect();
    format!("{{{}}}", inner.join(","))
}

fn render_labels_extra(labels: &Labels, key: &str, value: &str) -> String {
    let mut inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={:?}", v)).collect();
    inner.push(format!("{key}={value:?}"));
    format!("{{{}}}", inner.join(","))
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The process-global registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Enable/disable the global registry (`NGGC_METRICS=off` maps here).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("test_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("test_gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        // Same name returns the same cell.
        assert_eq!(r.counter("test_total").get(), 5);
    }

    #[test]
    fn labels_distinguish_series() {
        let r = Registry::new();
        r.counter_with("rows", &[("format", "bed")]).add(10);
        r.counter_with("rows", &[("format", "vcf")]).add(2);
        assert_eq!(r.counter_with("rows", &[("format", "bed")]).get(), 10);
        assert_eq!(r.counter_with("rows", &[("format", "vcf")]).get(), 2);
        // Label order does not matter.
        r.counter_with("multi", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.counter_with("multi", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(9), 4);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value falls in a bucket whose bound is >= the value.
        for v in [0u64, 1, 2, 7, 100, 4096, 1 << 40] {
            assert!(bucket_bound(bucket_index(v)) >= v, "v={v}");
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let r = Registry::new();
        let h = r.histogram("latency");
        for v in [1u64, 2, 2, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1105);
        // Median lands in the bucket holding the 3rd observation (value 2).
        assert_eq!(h.quantile(0.5), 2);
        assert!(h.quantile(1.0) >= 1000);
        assert_eq!(h.quantile(0.0), 1); // clamped to first observation
        let buckets = h.buckets();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn disabled_registry_ignores_mutation() {
        let r = Registry::new();
        let c = r.counter("dropped");
        let h = r.histogram("dropped_h");
        r.set_enabled(false);
        c.add(100);
        h.record(5);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn prometheus_and_json_exposition() {
        let r = Registry::new();
        r.counter_with("req_total", &[("node", "n1")]).add(3);
        r.gauge("busy").set(2);
        r.histogram("lat").record(5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE req_total counter"), "{text}");
        assert!(text.contains("req_total{node=\"n1\"} 3"), "{text}");
        assert!(text.contains("busy 2"), "{text}");
        assert!(text.contains("lat_bucket{le=\"8\"} 1"), "{text}");
        assert!(text.contains("lat_count 1"), "{text}");
        let json = r.render_json();
        assert!(json.contains("\"name\":\"req_total\""), "{json}");
        assert!(json.contains("\"node\":\"n1\""), "{json}");
        assert!(json.contains("\"type\":\"histogram\""), "{json}");
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn reset_zeroes_everything() {
        let r = Registry::new();
        r.counter("a").add(5);
        r.histogram("b").record(9);
        r.reset();
        assert_eq!(r.counter("a").get(), 0);
        assert_eq!(r.histogram("b").count(), 0);
        assert_eq!(r.histogram("b").buckets().len(), 0);
    }
}
