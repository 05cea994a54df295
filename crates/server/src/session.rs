//! The one query path: GMQL text in, outputs and their account out.
//!
//! `nggc query`, `nggc stats -e` and `nggc serve` all run a query through
//! [`Session::run`]: prepare the plan (parse, compile, optimize once,
//! fingerprint); ask the result tier; on a miss admit, govern, execute
//! and publish; write the flight record. What sets the front ends apart
//! is passed in with each [`Request`] — the result tier, admission on a
//! miss, and where the governor's cancel token is registered — and
//! nothing else.
//!
//! A session plans each query text once. The prepared plan is kept by
//! its exact text, and a later request with that text goes straight to
//! the result tier while every dataset the plan read from the catalog
//! is still at the generation it read (docs/serving.md, "What a repeated
//! query costs").
//!
//! A miss also gets a width (`fair_width`): the most jobs of its maps
//! that run at once. A request that is alone in the session gets the
//! whole pool. One that has company — any other request inside `run`,
//! hits included — gets a fair share of the workers, so the other
//! requests keep cores to run on; at width 1 it runs inline on its
//! caller (docs/serving.md, "How requests share the cores").

use crate::flight::{outcome_name, FlightRecorder};
use crate::provider::RepoProvider;
use nggc_core::result_cache::QueryOutputs;
use nggc_core::{
    derive_scan_specs, execute_governed, fingerprint, optimize, parse, source_datasets,
    CacheOutcome, ExecOptions, GmqlError, GovernorLimits, LogicalPlan, NodeMetrics,
    OptimizerReport, PlanOp, QueryGovernor, ResultCache,
};
use nggc_engine::{CancelToken, ExecContext};
use nggc_gdm::Schema;
use nggc_obs::{ByteLru, MemorySubscriber};
use nggc_repository::{Repository, ResultStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The bytes of prepared plans a session keeps. A constant, not a knob:
/// the benchmark's serve workload (`serve_mixed`) sends 120 distinct
/// texts on every seed, each about a hundred bytes of text and at most
/// four plan nodes, so all of them are charged under 200 KiB at
/// [`PLAN_NODE_BYTES`]. 4 MiB keeps over twenty times that and is small
/// next to the result cache a serve process also holds.
const PLAN_CACHE_BYTES: u64 = 4 << 20;

/// What a prepared plan is charged per plan node, on top of its text: a
/// generous bound on one node's heap (operator and predicates, inferred
/// schema, label). The text is charged at its length because a request
/// frame may carry up to 64 MiB of it.
const PLAN_NODE_BYTES: u64 = 512;

/// The width a miss executes at when `in_flight` requests (itself
/// included) are inside [`Session::run`]: every worker when it is alone,
/// else an even share of them, at least one.
fn fair_width(workers: usize, in_flight: usize) -> usize {
    (workers / in_flight.max(1)).max(1)
}

/// A repository, the pool queries execute on, and the flight recorder
/// they report to: everything a front end holds for the life of its
/// process.
pub struct Session {
    /// The repository queries read.
    pub repo: Repository,
    /// The worker pool queries execute on.
    pub ctx: ExecContext,
    /// Name of the span each query runs under (`serve.request`,
    /// `cli.query`); it carries the trace id, the optimizer's decisions
    /// and the outcome.
    pub span: &'static str,
    /// The armed flight recorder and the span ring its records read.
    pub flight: Option<(FlightRecorder, Arc<MemorySubscriber>)>,
    /// Requests inside [`Session::run`] right now.
    in_flight: AtomicUsize,
    /// Prepared plans by query text.
    plans: PlanCache,
}

/// How a request got its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planning {
    /// Parsed, compiled, optimized and fingerprinted for this request.
    Prepared,
    /// Taken from the session's prepared plans: nothing was planned.
    Reused,
}

impl Planning {
    /// Stable lowercase name for spans.
    pub fn name(self) -> &'static str {
        match self {
            Planning::Prepared => "prepared",
            Planning::Reused => "reused",
        }
    }
}

/// A query text planned: everything between the text and the result
/// tier, which a later request with the same text reuses.
struct Prepared {
    /// The optimized plan; the executor runs it as is.
    plan: Arc<LogicalPlan>,
    /// What the optimizer did.
    optimizer: OptimizerReport,
    /// The result tier's key: the optimized plan's fingerprint.
    fingerprint: u64,
    /// The optimized plan's source datasets, whose generations the
    /// result tier snapshots.
    sources: Vec<String>,
    /// Every dataset compile read a schema of, and the generation it
    /// was at: the plan holds while each still is.
    read: Vec<(String, Option<u64>)>,
}

impl Prepared {
    /// Parse `text`, compile it against `schema_of`, optimize and
    /// fingerprint it, and note the generation (`gen_of`) of every
    /// dataset compile read.
    fn new<R>(
        text: &str,
        schema_of: &dyn Fn(&str) -> Option<Schema>,
        gen_of: &dyn Fn(&str) -> Option<u64>,
    ) -> Result<Prepared, RunError<R>> {
        let statements = parse(text).map_err(RunError::Parse)?;
        let compiled = LogicalPlan::compile(&statements, schema_of).map_err(RunError::Compile)?;
        // Each Source node of the compiled plan is one schema compile
        // read from the catalog.
        let read = (source_datasets(&compiled).into_iter())
            .map(|name| {
                let generation = gen_of(&name);
                (name, generation)
            })
            .collect();
        let (plan, optimizer) = optimize(&compiled);
        Ok(Prepared {
            fingerprint: fingerprint(&plan).0,
            sources: source_datasets(&plan),
            plan: Arc::new(plan),
            optimizer,
            read,
        })
    }

    /// Is every dataset compile read still at the generation it read?
    fn is_current(&self, gen_of: &dyn Fn(&str) -> Option<u64>) -> bool {
        self.read.iter().all(|(name, generation)| gen_of(name) == *generation)
    }

    /// What the plan is charged in its [`PlanCache`].
    fn bytes(&self, text: &str) -> u64 {
        text.len() as u64 + PLAN_NODE_BYTES * self.plan.nodes.len() as u64
    }
}

/// A session's prepared plans by exact query text: at most `budget`
/// bytes of them, the least recently used going first.
struct PlanCache {
    budget: u64,
    lru: Mutex<ByteLru<String, Arc<Prepared>>>,
}

impl PlanCache {
    fn new(budget: u64) -> PlanCache {
        PlanCache { budget, lru: Mutex::new(ByteLru::default()) }
    }

    fn lru(&self) -> std::sync::MutexGuard<'_, ByteLru<String, Arc<Prepared>>> {
        self.lru.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The plan prepared for `text`, if it still holds; one that no
    /// longer does is dropped.
    fn get(&self, text: &str, gen_of: &dyn Fn(&str) -> Option<u64>) -> Option<Arc<Prepared>> {
        let mut lru = self.lru();
        let prepared = lru.get(text)?;
        if prepared.is_current(gen_of) {
            return Some(Arc::clone(prepared));
        }
        lru.remove(text);
        None
    }

    /// Keep `prepared` for `text`, evicting the least recently used
    /// plans until the budget holds. A plan charged more than the whole
    /// budget is not kept.
    fn insert(&self, text: &str, prepared: Arc<Prepared>) {
        let bytes = prepared.bytes(text);
        if bytes > self.budget {
            return;
        }
        let mut lru = self.lru();
        // The new plan is the most recent and fits, so it is never the
        // one evicted.
        lru.insert(text.to_owned(), prepared, bytes);
        while lru.bytes() > self.budget {
            lru.pop_lru();
        }
    }
}

/// Holds one request in [`Session::in_flight`] until dropped.
struct InFlight<'s>(&'s AtomicUsize);

impl<'s> InFlight<'s> {
    fn enter(count: &'s AtomicUsize) -> InFlight<'s> {
        count.fetch_add(1, Ordering::SeqCst);
        InFlight(count)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Where a query's result may already be, and where a computed one is
/// published.
#[derive(Clone, Copy)]
pub enum Tier<'a> {
    /// None: every query executes.
    None,
    /// `nggc serve`'s in-memory cache, single-flighted.
    Memory(&'a ResultCache),
    /// The CLI's on-disk store, shared across processes.
    Disk(&'a ResultStore),
}

/// One query as a front end hands it to [`Session::run`]: the text, and
/// the three things front ends differ in.
pub struct Request<'q, A, C> {
    /// The GMQL text.
    pub text: &'q str,
    /// The result tier.
    pub tier: Tier<'q>,
    /// Admission on a miss: the limits the execution is governed by
    /// (`None`: ungoverned) and a guard held until it ends — or the front
    /// end's refusal.
    pub admit: A,
    /// Cancel-token registration, once the governor exists; what it
    /// returns is held until the execution ends.
    pub register: C,
}

/// One query's account, whether its execution succeeded or failed: the
/// flight record, EXPLAIN ANALYZE, the CLI's partial-progress report and
/// serve's reply all read it.
pub struct QueryReport {
    /// Materialized outputs by name (shared with the result tier), or
    /// what stopped the execution.
    pub outputs: Result<Arc<QueryOutputs>, GmqlError>,
    /// The plan as optimized and executed; `metrics[i]` is `plan.nodes[i]`.
    pub plan: Arc<LogicalPlan>,
    /// What the optimizer did when the plan was prepared.
    pub optimizer: OptimizerReport,
    /// Whether this request prepared its plan or reused one.
    pub planning: Planning,
    /// The optimized plan's fingerprint: the result tier's key.
    pub fingerprint: u64,
    /// Per-node metrics; empty unless this request executed the plan to
    /// the end.
    pub metrics: Vec<NodeMetrics>,
    /// Wall time from the text to the result or the failure.
    pub elapsed: Duration,
    /// The trace the query ran under (0: none).
    pub trace_id: u64,
    /// Executed (`Miss`, failed executions included), answered by the
    /// tier (`Hit`), or shared with a concurrent identical execution
    /// (`Coalesced`).
    pub outcome: CacheOutcome,
    /// Governed bytes still charged when the execution ended.
    pub charged_bytes: u64,
    /// The governor's high-water mark.
    pub peak_bytes: u64,
}

/// Why [`Session::run`] did not reach the result tier, or admission
/// refused the miss there.
#[derive(Debug)]
pub enum RunError<R> {
    /// The text is not GMQL.
    Parse(GmqlError),
    /// The plan does not compile against the repository.
    Compile(GmqlError),
    /// Admission refused the miss.
    Refused(R),
}

impl<R: std::fmt::Display> std::fmt::Display for RunError<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Parse(e) | RunError::Compile(e) => e.fmt(f),
            RunError::Refused(r) => r.fmt(f),
        }
    }
}

/// Why a miss produced no outputs: admission refused it, or it ran and
/// failed.
enum Unanswered<R> {
    Refused(R),
    Failed(GmqlError),
}

impl Session {
    /// A session over `repo`, executing on `ctx`'s pool, its queries
    /// running under spans named `span`.
    pub fn new(
        repo: Repository,
        ctx: ExecContext,
        span: &'static str,
        flight: Option<(FlightRecorder, Arc<MemorySubscriber>)>,
    ) -> Session {
        Session {
            repo,
            ctx,
            span,
            flight,
            in_flight: AtomicUsize::new(0),
            plans: PlanCache::new(PLAN_CACHE_BYTES),
        }
    }

    /// Run one query. The caller enters the trace it runs under.
    pub fn run<A, C, G, H, R>(
        &self,
        mut request: Request<'_, A, C>,
    ) -> Result<QueryReport, RunError<R>>
    where
        A: FnMut() -> Result<(Option<GovernorLimits>, G), R>,
        C: FnMut(CancelToken) -> H,
    {
        let _in_flight = InFlight::enter(&self.in_flight);
        let t0 = Instant::now();
        let trace_id = nggc_obs::current_trace_id();
        let mut span = nggc_obs::span(self.span);
        span.field("trace_id", trace_id);
        let (prepared, planning) = self.prepare(request.text)?;
        let optimizer = prepared.optimizer;
        span.field("plan", planning.name())
            .field("selects_fused", optimizer.selects_fused)
            .field("nodes_deduplicated", optimizer.nodes_deduplicated);
        let reg = nggc_obs::global();

        let mut metrics = Vec::new();
        let (mut charged_bytes, mut peak_bytes) = (0, 0);
        let mut execute = || {
            let (limits, _admitted) = (request.admit)().map_err(Unanswered::Refused)?;
            let governor = limits.map(QueryGovernor::new);
            let _registered = governor.as_ref().map(|g| (request.register)(g.cancel_token()));
            let provider = match &governor {
                Some(g) => RepoProvider::governed(&self.repo, g),
                None => RepoProvider::new(&self.repo),
            };
            let opts = ExecOptions { optimize: false, ..ExecOptions::default() };
            let capped;
            let ctx = match self.in_flight.load(Ordering::SeqCst) {
                0 | 1 => &self.ctx,
                in_flight => {
                    reg.counter("nggc_exec_with_company_total").inc();
                    capped = self.ctx.clone().with_width(fair_width(self.ctx.workers(), in_flight));
                    &capped
                }
            };
            let result = execute_governed(&prepared.plan, &provider, ctx, &opts, governor.as_ref());
            (charged_bytes, peak_bytes) = governor.map_or((0, 0), |g| (g.charged(), g.mem_peak()));
            let (outputs, executed) = result.map_err(Unanswered::Failed)?;
            metrics = executed;
            Ok(outputs)
        };
        let gen_of = |name: &str| self.repo.generation(name);
        let result = match request.tier {
            Tier::None => execute().map(|outputs| (Arc::new(outputs), CacheOutcome::Miss)),
            Tier::Memory(cache) => {
                cache.get_or_compute(prepared.fingerprint, &prepared.sources, &gen_of, &mut execute)
            }
            Tier::Disk(store) => through_store(store, &prepared, &gen_of, &mut execute),
        };
        let (outputs, outcome) = match result {
            Ok((outputs, outcome)) => (Ok(outputs), outcome),
            // Followers of a failed execution retry on their own, so an
            // error is always this request's own execution.
            Err(Unanswered::Failed(error)) => (Err(error), CacheOutcome::Miss),
            Err(Unanswered::Refused(refusal)) => {
                span.field("outcome", "refused");
                return Err(RunError::Refused(refusal));
            }
        };
        let report = QueryReport {
            outputs,
            plan: Arc::clone(&prepared.plan),
            optimizer,
            planning,
            fingerprint: prepared.fingerprint,
            metrics,
            elapsed: t0.elapsed(),
            trace_id,
            outcome,
            charged_bytes,
            peak_bytes,
        };
        let ended = report.outputs.as_ref().map_or_else(outcome_name, |_| outcome.name());
        span.field("outcome", ended);
        // The record holds the whole trace, so the query's span closes first.
        drop(span);
        // Only an execution is flight-recorded.
        if let (CacheOutcome::Miss, Some((recorder, spans))) = (outcome, &self.flight) {
            if recorder.record(request.text, &report, spans, &mut std::io::stderr()) {
                reg.counter("nggc_serve_flight_records_total").inc();
            }
        }
        Ok(report)
    }

    /// The plan kept for `text`, or one prepared for it now and kept.
    /// Only a plan that compiled is kept; preparing one is what the
    /// optimizer counters count.
    fn prepare<R>(&self, text: &str) -> Result<(Arc<Prepared>, Planning), RunError<R>> {
        let reg = nggc_obs::global();
        let gen_of = |name: &str| self.repo.generation(name);
        if let Some(prepared) = self.plans.get(text, &gen_of) {
            reg.counter("nggc_session_plans_reused_total").inc();
            return Ok((prepared, Planning::Reused));
        }
        let prepared = Prepared::new(text, &|name| self.repo.schema_of(name), &gen_of)?;
        let optimizer = prepared.optimizer;
        reg.counter("nggc_exec_optimizer_selects_fused_total").add(optimizer.selects_fused as u64);
        reg.counter("nggc_exec_optimizer_nodes_deduplicated_total")
            .add(optimizer.nodes_deduplicated as u64);
        reg.counter("nggc_session_plans_prepared_total").inc();
        let prepared = Arc::new(prepared);
        self.plans.insert(text, Arc::clone(&prepared));
        Ok((prepared, Planning::Prepared))
    }

    /// The logical plan, and the optimized plan with what each source
    /// will read (`nggc query --explain`), without executing anything.
    pub fn explain(&self, text: &str) -> Result<String, GmqlError> {
        let plan = LogicalPlan::compile(&parse(text)?, &|name| self.repo.schema_of(name))?;
        let (optimized, report) = optimize(&plan);
        // Source nodes show what the scan-pruning pass will push down
        // into the container read: chromosomes, coordinate bound,
        // decoded-vs-total column count, and the sample predicate.
        let specs = derive_scan_specs(&optimized);
        let scan_note = |id: usize| {
            let Some(spec) = specs.get(&id) else {
                return String::new();
            };
            let cols = match &optimized.nodes[id].op {
                PlanOp::Source(name) => self.repo.schema_of(name).map(|s| s.len()),
                PlanOp::Apply(_) => None,
            };
            format!("scan: {}", spec.render(cols))
        };
        Ok(format!(
            "-- logical plan --\n{}\n-- optimized ({report:?}) --\n{}",
            plan.render_tree(&|_| String::new()),
            optimized.render_tree(&scan_note)
        ))
    }
}

/// The on-disk store in [`ResultCache::get_or_compute`]'s shape: lookup;
/// on a miss snapshot the sources' generations *before* executing (a
/// dataset saved mid-execution must invalidate the entry, not match it),
/// compute, store. The store is a cache: a failed write costs the next
/// process a miss, so it is a warning, never the query's error.
fn through_store<E>(
    store: &ResultStore,
    prepared: &Prepared,
    gen_of: &dyn Fn(&str) -> Option<u64>,
    compute: &mut dyn FnMut() -> Result<QueryOutputs, E>,
) -> Result<(Arc<QueryOutputs>, CacheOutcome), E> {
    let key = prepared.fingerprint;
    if let Some(outputs) = store.lookup(key, gen_of) {
        return Ok((Arc::new(outputs), CacheOutcome::Hit));
    }
    // Skipped when any source generation is unknown (pre-generation catalogs).
    let gens: Option<Vec<(String, u64)>> =
        prepared.sources.iter().map(|name| gen_of(name).map(|g| (name.clone(), g))).collect();
    let outputs = compute()?;
    if let Some(gens) = gens {
        if let Err(e) = store.store(key, &gens, &outputs) {
            eprintln!("warning: result cache not written ({}): {e}", store.dir().display());
        }
    }
    Ok((Arc::new(outputs), CacheOutcome::Miss))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `text` prepared against a catalog where every name is a dataset
    /// with no region attributes, at generation 1.
    fn prepared(text: &str) -> Arc<Prepared> {
        Arc::new(Prepared::new::<()>(text, &|_| Some(Schema::empty()), &|_| Some(1)).unwrap())
    }

    #[test]
    fn plans_over_the_budget_evict_the_least_recently_used() {
        let texts: Vec<String> =
            (1..=4).map(|i| format!("X = SELECT() D{i}; MATERIALIZE X;")).collect();
        let charge = prepared(&texts[0]).bytes(&texts[0]);
        assert_eq!(charge, texts[0].len() as u64 + 2 * PLAN_NODE_BYTES, "a source and a SELECT");
        let plans = PlanCache::new(3 * charge);
        let gen_of = |_: &str| Some(1);
        for text in &texts[..3] {
            plans.insert(text, prepared(text));
            assert!(plans.lru().bytes() <= plans.budget);
        }
        // D1 is used, so D2 is the least recent when D4 needs room.
        assert!(plans.get(&texts[0], &gen_of).is_some());
        plans.insert(&texts[3], prepared(&texts[3]));
        assert_eq!(plans.lru().bytes(), 3 * charge);
        let kept: Vec<bool> = texts.iter().map(|t| plans.get(t, &gen_of).is_some()).collect();
        assert_eq!(kept, [true, false, true, true]);
    }

    #[test]
    fn a_plan_charged_more_than_the_budget_is_not_kept() {
        let small = "X = SELECT() D; MATERIALIZE X;";
        let plans = PlanCache::new(prepared(small).bytes(small) + 64);
        plans.insert(small, prepared(small));
        // Its text alone is over the budget; nothing already kept goes.
        let long = format!("X = SELECT() D; MATERIALIZE X; {}", " ".repeat(128));
        plans.insert(&long, prepared(&long));
        assert!(plans.get(&long, &|_| Some(1)).is_none());
        assert!(plans.get(small, &|_| Some(1)).is_some());
        assert!(plans.lru().bytes() <= plans.budget);
    }

    #[test]
    fn a_plan_whose_source_moved_on_is_dropped() {
        let text = "X = SELECT() D; Y = SELECT() E; MATERIALIZE Y;";
        let plans = PlanCache::new(PLAN_CACHE_BYTES);
        plans.insert(text, prepared(text));
        // Every dataset compile read counts, even one the plan's outputs
        // do not use.
        assert!(plans.get(text, &|name| Some(if name == "D" { 2 } else { 1 })).is_none());
        assert!(plans.lru().is_empty(), "a stale plan is dropped, not kept");
        plans.insert(text, prepared(text));
        assert!(plans.get(text, &|name| (name != "E").then_some(1)).is_none(), "E is gone");
    }

    #[test]
    fn fair_width_shares_the_workers_among_the_requests_in_flight() {
        // Alone: every worker.
        assert_eq!(fair_width(2, 1), 2);
        assert_eq!(fair_width(8, 1), 8);
        // In company: an even share, rounded down.
        assert_eq!(fair_width(2, 2), 1);
        assert_eq!(fair_width(8, 2), 4);
        assert_eq!(fair_width(8, 3), 2);
        // More requests than workers: never below one.
        assert_eq!(fair_width(2, 3), 1);
        assert_eq!(fair_width(8, 100), 1);
        // One worker: one, however many are in flight.
        assert_eq!(fair_width(1, 1), 1);
        assert_eq!(fair_width(1, 5), 1);
        // A count of zero cannot happen inside `run`, and reads as alone.
        assert_eq!(fair_width(4, 0), 4);
    }
}
