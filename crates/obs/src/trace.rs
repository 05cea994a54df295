//! Structured tracing: spans with parent ids, wall time, and
//! `key=value` fields, delivered to pluggable subscribers.
//!
//! A span is opened with [`span`] and closed when its [`SpanGuard`]
//! drops; the finished [`SpanRecord`] is then handed to every
//! registered [`Subscriber`]. Parenting is tracked per thread: the span
//! most recently opened (and not yet closed) on the current thread is
//! the parent of the next one. Children therefore close before their
//! parents, so collectors see leaves first.
//!
//! When no subscriber is registered (and no thread-local collector is
//! installed), [`span`] returns an inert guard whose open and drop cost
//! one atomic load plus one thread-local read each.
//!
//! ## Distributed tracing
//!
//! Every span carries a `trace_id` taken from the thread's current
//! [`TraceContext`] (0 when none was entered). A context is seedable
//! ([`TraceContext::with_id`]) so tests are deterministic — ids come
//! from counters, never from wall-clock time or randomness. A context
//! may also carry a foreign *parent span id*; [`TraceContext::enter`]
//! adopts it as the parent for spans subsequently opened on this
//! thread, which is how worker threads and remote federation nodes
//! parent their spans under the coordinator's span tree.
//!
//! [`collect_local`] models a process boundary: while active on a
//! thread, closed spans are captured into a local buffer instead of
//! being fanned out to the global subscribers. A federation node uses
//! it to capture spans for shipping back to the coordinator, which
//! re-injects them with [`emit_record`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// A finished span, as delivered to subscribers.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (process-wide, never reused).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Trace this span belongs to (0 when opened outside any
    /// [`TraceContext`]).
    pub trace_id: u64,
    /// Span name (e.g. `exec.node` or `loader.parse`).
    pub name: String,
    /// Start time relative to the process trace epoch.
    pub start: Duration,
    /// Wall-clock time between open and close.
    pub wall: Duration,
    /// `key=value` fields attached while the span was open.
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// Look up a field value by key.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Receives finished spans.
pub trait Subscriber: Send + Sync {
    /// Called once per span, at close time.
    fn on_span(&self, span: &SpanRecord);
}

struct SubscriberSet {
    // `active` mirrors `subs.is_empty()` so `span()` can skip the lock.
    active: AtomicBool,
    subs: RwLock<Vec<Arc<dyn Subscriber>>>,
}

fn subscribers() -> &'static SubscriberSet {
    static SUBS: OnceLock<SubscriberSet> = OnceLock::new();
    SUBS.get_or_init(|| SubscriberSet {
        active: AtomicBool::new(false),
        subs: RwLock::new(Vec::new()),
    })
}

/// Register a subscriber; it receives every span closed from now on.
pub fn add_subscriber(sub: Arc<dyn Subscriber>) {
    let set = subscribers();
    set.subs.write().unwrap().push(sub);
    set.active.store(true, Ordering::Release);
}

/// Remove all subscribers (tests and the end of a `--profile` run).
pub fn clear_subscribers() {
    let set = subscribers();
    set.subs.write().unwrap().clear();
    set.active.store(false, Ordering::Release);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Stack of currently-open span ids on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Trace id stamped onto spans opened on this thread (0 = none).
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    /// When set, closed spans are captured here instead of reaching the
    /// global subscribers (see [`collect_local`]).
    static LOCAL_SINK: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

fn local_sink_active() -> bool {
    LOCAL_SINK.with(|s| s.borrow().is_some())
}

/// Identifies a query's trace and (optionally) a parent span to adopt.
///
/// Ids are drawn from process-global counters, so they are unique and
/// deterministic per process; [`TraceContext::with_id`] pins the trace
/// id explicitly for cross-process stitching and seeded tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id stamped onto every span opened under this context.
    pub trace_id: u64,
    /// Foreign span adopted as parent for spans opened under this
    /// context (e.g. the coordinator's `fed.call` span on a remote
    /// node, or the caller's span on a pool worker thread).
    pub parent: Option<u64>,
}

impl TraceContext {
    /// Fresh context with a newly allocated trace id and no parent.
    pub fn new() -> TraceContext {
        TraceContext { trace_id: next_trace_id(), parent: None }
    }

    /// Context with an explicit (seeded) trace id.
    pub fn with_id(trace_id: u64) -> TraceContext {
        TraceContext { trace_id, parent: None }
    }

    /// Capture this thread's context: its current trace id and the
    /// innermost open span as parent. Hand the result to another thread
    /// (it is `Copy`) and [`enter`](TraceContext::enter) it there to
    /// parent that thread's spans under this one.
    pub fn current() -> TraceContext {
        TraceContext {
            trace_id: CURRENT_TRACE.with(|t| t.get()),
            parent: SPAN_STACK.with(|s| s.borrow().last().copied()),
        }
    }

    /// Same context with `parent` replaced.
    pub fn child_of(self, parent: u64) -> TraceContext {
        TraceContext { parent: Some(parent), ..self }
    }

    /// Install this context on the current thread until the returned
    /// guard drops: spans opened meanwhile carry `trace_id`, and the
    /// first of them is parented under `parent` (when set).
    pub fn enter(self) -> TraceScope {
        let prev_trace = CURRENT_TRACE.with(|t| t.replace(self.trace_id));
        if let Some(parent) = self.parent {
            SPAN_STACK.with(|s| s.borrow_mut().push(parent));
        }
        TraceScope { prev_trace, adopted: self.parent }
    }
}

impl Default for TraceContext {
    fn default() -> TraceContext {
        TraceContext::new()
    }
}

/// RAII guard for an entered [`TraceContext`]; restores the previous
/// trace id (and un-adopts the foreign parent) on drop.
pub struct TraceScope {
    prev_trace: u64,
    adopted: Option<u64>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(parent) = self.adopted {
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&id| id == parent) {
                    s.remove(pos);
                }
            });
        }
        CURRENT_TRACE.with(|t| t.set(self.prev_trace));
    }
}

/// Trace id currently installed on this thread (0 when none).
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(|t| t.get())
}

/// Run `f` under `ctx` with span capture localized to this thread.
///
/// While `f` runs, spans closed on this thread are buffered locally and
/// **not** delivered to the global subscribers — this models a process
/// boundary: a federation node captures its spans here, ships them over
/// the wire, and the coordinator re-injects them via [`emit_record`]
/// (so nothing is double-counted). `span()` is forced active for the
/// duration even when no global subscriber is registered.
///
/// Returns `f`'s result and the captured spans in close order.
pub fn collect_local<T>(ctx: TraceContext, f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    let prev = LOCAL_SINK.with(|s| s.borrow_mut().replace(Vec::new()));
    let scope = ctx.enter();
    let out = f();
    drop(scope);
    let captured = LOCAL_SINK.with(|s| {
        let mut slot = s.borrow_mut();
        let captured = slot.take().unwrap_or_default();
        *slot = prev;
        captured
    });
    (out, captured)
}

/// Deliver an already-finished span record to the subscribers exactly
/// as if it had closed on this thread. Used by the federation layer to
/// stitch spans shipped back from remote nodes into the coordinator's
/// trace (after appending a `node=` attribution field).
pub fn emit_record(record: &SpanRecord) {
    let captured = LOCAL_SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.push(record.clone());
            true
        } else {
            false
        }
    });
    if !captured {
        for sub in subscribers().subs.read().unwrap().iter() {
            sub.on_span(record);
        }
    }
}

/// Open a span. Fields may be attached on the returned guard; the span
/// is reported when the guard drops.
pub fn span(name: &str) -> SpanGuard {
    if !subscribers().active.load(Ordering::Acquire) && !local_sink_active() {
        return SpanGuard { inner: None };
    }
    let id = next_id();
    let trace_id = CURRENT_TRACE.with(|t| t.get());
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let now = Instant::now();
    SpanGuard {
        inner: Some(OpenSpan {
            id,
            parent,
            trace_id,
            name: name.to_owned(),
            start: now.duration_since(epoch()),
            opened: now,
            fields: Vec::new(),
        }),
    }
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    trace_id: u64,
    name: String,
    start: Duration,
    opened: Instant,
    fields: Vec<(String, String)>,
}

/// RAII handle for an open span.
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

impl SpanGuard {
    /// Attach a `key=value` field (no-op on an inert guard).
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        if let Some(open) = &mut self.inner {
            open.fields.push((key.to_owned(), value.to_string()));
        }
        self
    }

    /// Whether this guard is actually recording.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Id of the open span (`None` on an inert guard). Lets callers
    /// hand the id across a process or thread boundary as the parent of
    /// a [`TraceContext`].
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|open| open.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Usually the top of the stack; be robust to out-of-order
            // drops across scopes.
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.remove(pos);
            }
        });
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            trace_id: open.trace_id,
            name: open.name,
            start: open.start,
            wall: open.opened.elapsed(),
            fields: open.fields,
        };
        emit_record(&record);
    }
}

/// Default [`MemorySubscriber`] capacity: 64k records.
pub const MEMORY_SUBSCRIBER_CAPACITY: usize = 65_536;

/// Collects spans in a bounded ring buffer; feeds the profiler, the
/// slow-query flight recorder, and tests.
///
/// When the buffer is full the **oldest** record is evicted — a
/// long-running session keeps the most recent spans, which are the ones
/// a flight-recorder dump needs. Evictions are counted in
/// [`dropped`](MemorySubscriber::dropped).
pub struct MemorySubscriber {
    cap: usize,
    records: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

impl Default for MemorySubscriber {
    fn default() -> MemorySubscriber {
        MemorySubscriber::with_capacity(MEMORY_SUBSCRIBER_CAPACITY)
    }
}

impl MemorySubscriber {
    /// New empty collector with the default capacity
    /// ([`MEMORY_SUBSCRIBER_CAPACITY`]).
    pub fn new() -> MemorySubscriber {
        MemorySubscriber::default()
    }

    /// New empty collector holding at most `cap` records (clamped to at
    /// least 1).
    pub fn with_capacity(cap: usize) -> MemorySubscriber {
        MemorySubscriber {
            cap: cap.max(1),
            records: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum number of records retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained spans, oldest first (close order:
    /// leaves before their parents).
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().unwrap().iter().cloned().collect()
    }

    /// The retained spans of one trace, oldest first — what a collector
    /// shared by concurrent queries holds for one of them.
    pub fn records_of(&self, trace_id: u64) -> Vec<SpanRecord> {
        let records = self.records.lock().unwrap();
        records.iter().filter(|r| r.trace_id == trace_id).cloned().collect()
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Subscriber for MemorySubscriber {
    fn on_span(&self, span: &SpanRecord) {
        let mut records = self.records.lock().unwrap();
        if records.len() == self.cap {
            records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        records.push_back(span.clone());
    }
}

/// Pretty-prints each span to stderr as it closes.
#[derive(Default)]
pub struct StderrSubscriber;

impl Subscriber for StderrSubscriber {
    fn on_span(&self, span: &SpanRecord) {
        let mut line = format!(
            "[trace] {:>10.3?} {} (#{}{})",
            span.wall,
            span.name,
            span.id,
            match span.parent {
                Some(p) => format!(" <- #{p}"),
                None => String::new(),
            }
        );
        for (k, v) in &span.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Subscribers are process-global, so every test that installs or
    // clears them holds this one lock. A test that failed while holding it
    // must not fail the others too, hence the poison recovery.
    static SUBSCRIBERS: Mutex<()> = Mutex::new(());

    fn lock_subscribers() -> std::sync::MutexGuard<'static, ()> {
        SUBSCRIBERS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn with_collector(f: impl FnOnce(&Arc<MemorySubscriber>)) {
        let _guard = lock_subscribers();
        clear_subscribers();
        let collector = Arc::new(MemorySubscriber::new());
        add_subscriber(collector.clone() as Arc<dyn Subscriber>);
        f(&collector);
        clear_subscribers();
    }

    #[test]
    fn spans_record_name_fields_and_wall_time() {
        with_collector(|collector| {
            {
                let mut s = span("unit.work");
                s.field("rows", 42).field("kind", "test");
                std::thread::sleep(Duration::from_millis(2));
            }
            let records = collector.records();
            assert_eq!(records.len(), 1);
            let r = &records[0];
            assert_eq!(r.name, "unit.work");
            assert_eq!(r.field("rows"), Some("42"));
            assert_eq!(r.field("kind"), Some("test"));
            assert!(r.wall >= Duration::from_millis(2));
            assert!(r.parent.is_none());
        });
    }

    #[test]
    fn nested_spans_set_parent_ids() {
        with_collector(|collector| {
            {
                let _outer = span("outer");
                {
                    let _mid = span("mid");
                    let _leaf = span("leaf");
                }
                let _sibling = span("sibling");
            }
            let records = collector.records();
            assert_eq!(records.len(), 4);
            let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap();
            let outer = by_name("outer");
            let mid = by_name("mid");
            let leaf = by_name("leaf");
            let sibling = by_name("sibling");
            assert_eq!(mid.parent, Some(outer.id));
            assert_eq!(leaf.parent, Some(mid.id));
            assert_eq!(sibling.parent, Some(outer.id));
            // Close order: leaves before parents.
            let pos = |n: &str| records.iter().position(|r| r.name == n).unwrap();
            assert!(pos("leaf") < pos("mid"));
            assert!(pos("mid") < pos("outer"));
        });
    }

    #[test]
    fn no_subscriber_means_inert_guards() {
        let _guard = lock_subscribers();
        clear_subscribers();
        let s = span("ignored");
        assert!(!s.is_active());
    }

    #[test]
    fn trace_context_is_seedable_and_stamps_spans() {
        with_collector(|collector| {
            let scope = TraceContext::with_id(42).enter();
            {
                let _s = span("traced");
            }
            drop(scope);
            {
                let _s = span("untraced");
            }
            let records = collector.records();
            let traced = records.iter().find(|r| r.name == "traced").unwrap();
            let untraced = records.iter().find(|r| r.name == "untraced").unwrap();
            assert_eq!(traced.trace_id, 42);
            assert_eq!(untraced.trace_id, 0, "trace id must not leak past the scope");
        });
    }

    #[test]
    fn entered_context_adopts_foreign_parent() {
        with_collector(|collector| {
            let ctx = TraceContext::with_id(7).child_of(999);
            {
                let _scope = ctx.enter();
                let _child = span("adopted_child");
            }
            // After the scope drops, the foreign id is gone again.
            {
                let _free = span("free_root");
            }
            let records = collector.records();
            let child = records.iter().find(|r| r.name == "adopted_child").unwrap();
            let free = records.iter().find(|r| r.name == "free_root").unwrap();
            assert_eq!(child.parent, Some(999));
            assert_eq!(child.trace_id, 7);
            assert_eq!(free.parent, None);
        });
    }

    #[test]
    fn collect_local_captures_without_reaching_subscribers() {
        with_collector(|collector| {
            let (value, captured) = collect_local(TraceContext::with_id(5).child_of(50), || {
                let _outer = span("local.outer");
                let _inner = span("local.inner");
                17u32
            });
            assert_eq!(value, 17);
            assert_eq!(captured.len(), 2);
            // Inner closes first; both carry the context's trace id and
            // chain up to the foreign parent.
            assert_eq!(captured[0].name, "local.inner");
            assert_eq!(captured[1].name, "local.outer");
            assert_eq!(captured[1].parent, Some(50));
            assert_eq!(captured[0].parent, Some(captured[1].id));
            assert!(captured.iter().all(|r| r.trace_id == 5));
            assert!(
                collector.records().is_empty(),
                "locally collected spans must not fan out globally"
            );
            // Re-injection delivers them to subscribers verbatim.
            for rec in &captured {
                emit_record(rec);
            }
            assert_eq!(collector.len(), 2);
        });
    }

    #[test]
    fn collect_local_is_active_without_subscribers() {
        let _guard = lock_subscribers();
        clear_subscribers();
        let ((), captured) = collect_local(TraceContext::with_id(3), || {
            let s = span("still_recorded");
            assert!(s.is_active(), "local sink must force spans active");
        });
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].name, "still_recorded");
    }

    #[test]
    fn memory_subscriber_ring_evicts_oldest_and_counts_drops() {
        let sub = MemorySubscriber::with_capacity(3);
        for i in 0..5u64 {
            sub.on_span(&SpanRecord {
                id: i,
                parent: None,
                trace_id: 0,
                name: format!("s{i}"),
                start: Duration::ZERO,
                wall: Duration::ZERO,
                fields: Vec::new(),
            });
        }
        assert_eq!(sub.capacity(), 3);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.dropped(), 2);
        let names: Vec<String> = sub.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["s2", "s3", "s4"], "oldest records are evicted first");
    }

    #[test]
    fn threads_have_independent_parent_stacks() {
        with_collector(|collector| {
            let _outer = span("main_outer");
            std::thread::spawn(|| {
                let _t = span("thread_root");
            })
            .join()
            .unwrap();
            drop(_outer);
            let records = collector.records();
            let troot = records.iter().find(|r| r.name == "thread_root").unwrap();
            // A span on another thread is not parented to this thread's.
            assert!(troot.parent.is_none());
        });
    }
}
