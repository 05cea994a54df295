//! Cross-crate observability tests: the metrics registry hammered from
//! the work-stealing pool, span parentage through the in-memory
//! subscriber, and per-node read accounts (see docs/observability.md).

use nggc::engine::{ExecContext, WorkerPool};
use nggc::gdm::{Attribute, Dataset, GRegion, Sample, Schema, Strand, ValueType};
use nggc::gmql::{
    execute_governed, parse, DatasetProvider, ExecOptions, GmqlError, LogicalPlan, ScanSpec,
};
use nggc::obs::{self, MemorySubscriber};
use nggc::repository::Repository;
use nggc::RepoProvider;
use std::sync::{Arc, Mutex};

// Subscribers and the registry's enabled flag are process-global, so
// every test in this binary runs under one lock to avoid cross-talk
// (e.g. the disabled-registry test racing the hammer test).
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed sibling test must not cascade into poison errors here.
    GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn counter_hammered_from_parallel_map() {
    let _guard = global_lock();
    let reg = obs::global();
    let counter = reg.counter("test_hammer_total");
    let hist = reg.histogram("test_hammer_values");
    let before = counter.get();

    let pool = WorkerPool::new(4);
    pool.parallel_map((0..10_000u64).collect(), |i| {
        counter.inc();
        hist.record(i % 1024);
    });

    assert_eq!(counter.get() - before, 10_000, "no increments lost under contention");
    assert!(hist.count() >= 10_000);
    // Pool activity reached both the pool-local stats and the registry.
    let stats = pool.stats();
    assert_eq!(stats.jobs_executed, 10_000);
    assert!(reg.counter("nggc_pool_jobs_total").get() >= 10_000);
}

#[test]
fn memory_subscriber_records_nested_parentage() {
    let _guard = global_lock();
    obs::clear_subscribers();
    let collector = Arc::new(MemorySubscriber::new());
    obs::add_subscriber(collector.clone());

    {
        let mut outer = obs::span("it.outer");
        outer.field("k", "v");
        {
            let mut inner = obs::span("it.inner");
            inner.field("depth", 1);
            let _leaf = obs::span("it.leaf");
        }
    }
    obs::clear_subscribers();

    let records = collector.records();
    assert_eq!(records.len(), 3);
    // Close order: leaves before parents.
    let leaf = &records[0];
    let inner = &records[1];
    let outer = &records[2];
    assert_eq!(leaf.name, "it.leaf");
    assert_eq!(inner.name, "it.inner");
    assert_eq!(outer.name, "it.outer");
    assert_eq!(leaf.parent, Some(inner.id));
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!(outer.parent, None);
    assert_eq!(outer.field("k"), Some("v"));
    assert_eq!(inner.field("depth"), Some("1"));

    // The profiler renders the same hierarchy.
    let tree = obs::render_span_tree(&records);
    assert!(tree.contains("it.outer k=v"), "{tree}");
    assert!(tree.contains("  it.inner"), "{tree}");
    assert!(tree.contains("    it.leaf"), "{tree}");
}

#[test]
fn concurrent_worker_spans_carry_trace_parentage() {
    let _guard = global_lock();
    obs::clear_subscribers();
    let collector = Arc::new(MemorySubscriber::new());
    obs::add_subscriber(collector.clone());

    // A coordinator enters a trace, opens a root span, and hands the
    // resulting context to pool workers; every worker-side span must
    // land under the root with the root's trace id, with no record
    // corruption under contention.
    let tc = obs::TraceContext::new();
    let root_id;
    {
        let _trace = tc.enter();
        let root = obs::span("it.root");
        root_id = root.id().expect("subscriber installed, span is live");
        let ctx = obs::TraceContext::current();
        let pool = WorkerPool::new(4);
        pool.parallel_map((0..512u64).collect(), |i| {
            let _scope = ctx.enter();
            let mut s = obs::span("it.worker");
            s.field("i", i);
        });
    }
    obs::clear_subscribers();

    let records = collector.records();
    let workers: Vec<_> = records.iter().filter(|r| r.name == "it.worker").collect();
    assert_eq!(workers.len(), 512, "one span per work item");
    let root = records.iter().find(|r| r.name == "it.root").expect("root span recorded");
    assert_eq!(root.id, root_id);
    assert_eq!(root.parent, None);
    for w in &workers {
        assert_eq!(w.parent, Some(root_id), "worker span parented under the root");
        assert_eq!(w.trace_id, tc.trace_id, "worker span joined the coordinator's trace");
        assert!(w.field("i").is_some(), "fields survive concurrent recording");
    }
    // Ids are unique — concurrent allocation never reused one.
    let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), records.len(), "span ids are unique across threads");
}

#[test]
fn memory_subscriber_ring_drops_oldest_under_pool_load() {
    let _guard = global_lock();
    obs::clear_subscribers();
    let collector = Arc::new(MemorySubscriber::with_capacity(64));
    obs::add_subscriber(collector.clone());

    let pool = WorkerPool::new(4);
    pool.parallel_map((0..1_000u64).collect(), |_| {
        let _s = obs::span("it.flood");
    });
    obs::clear_subscribers();

    assert_eq!(collector.records().len(), 64, "ring holds exactly its capacity");
    assert_eq!(collector.dropped(), 1_000 - 64, "every eviction is counted");
}

#[test]
fn disabled_registry_skips_engine_metrics() {
    let _guard = global_lock();
    let reg = obs::global();
    let jobs = reg.counter("nggc_pool_jobs_total");
    reg.set_enabled(false);
    let before = jobs.get();
    let pool = WorkerPool::new(2);
    pool.parallel_map((0..64).collect::<Vec<u64>>(), |i| i * 2);
    assert_eq!(jobs.get(), before, "disabled registry must ignore pool traffic");
    // Pool-local stats still work — they are not registry-gated.
    assert_eq!(pool.stats().jobs_executed, 64);
    reg.set_enabled(true);
}

/// The repository provider, with another thread's cold load of `OTHER`
/// run to completion in the middle of every source load it serves.
struct Meddling<'a> {
    repo: &'a Repository,
    inner: RepoProvider<'a>,
}

impl Meddling<'_> {
    fn meddle(&self) {
        std::thread::scope(|s| {
            s.spawn(|| self.repo.load("OTHER").unwrap());
        });
    }
}

impl DatasetProvider for Meddling<'_> {
    fn load(&self, name: &str) -> Result<Dataset, GmqlError> {
        self.meddle();
        self.inner.load(name)
    }

    fn load_shared(&self, name: &str) -> Result<Arc<Dataset>, GmqlError> {
        self.meddle();
        self.inner.load_shared(name)
    }

    fn load_pruned(&self, name: &str, spec: &ScanSpec) -> Result<Arc<Dataset>, GmqlError> {
        self.meddle();
        self.inner.load_pruned(name, spec)
    }
}

/// A SOURCE node's I/O columns are the reads it made itself: a cold load
/// of another dataset, on another thread while the node runs, is not
/// the node's.
#[test]
fn a_source_node_accounts_its_own_reads_only() {
    let _guard = global_lock();
    let root = std::env::temp_dir().join(format!("nggc_obs_reads_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let schema = Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap();
    {
        let mut repo = Repository::open(&root).unwrap();
        for name in ["MINE", "OTHER"] {
            let mut ds = Dataset::new(name, schema.clone());
            let regions = (0..16u64)
                .map(|i| {
                    GRegion::new("chr1", i * 100, i * 100 + 50, Strand::Pos)
                        .with_values(vec![(i as f64).into()])
                })
                .collect();
            ds.add_sample(Sample::new("s1", name).with_regions(regions)).unwrap();
            repo.save(&ds).unwrap();
        }
    }
    let repo = Repository::open(&root).unwrap();
    let statements = parse("R = SELECT() MINE; MATERIALIZE R;").unwrap();
    let plan = LogicalPlan::compile(&statements, &|name| repo.schema_of(name)).unwrap();
    let provider = Meddling { repo: &repo, inner: RepoProvider::new(&repo) };
    let ctx = ExecContext::with_workers(1);
    let (_, metrics) =
        execute_governed(&plan, &provider, &ctx, &ExecOptions::default(), None).unwrap();
    let source = metrics.iter().find(|m| m.operator == "SOURCE").expect("a SOURCE node");
    assert_eq!(source.reads.cache_misses, 1, "MINE's cold load only: {source:?}");
    assert_eq!(source.reads.cache_hits, 0, "{source:?}");
    std::fs::remove_dir_all(&root).ok();
}
