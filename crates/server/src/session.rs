//! The one query path: GMQL text in, outputs and their account out.
//!
//! `nggc query`, `nggc stats -e` and `nggc serve` all run a query through
//! [`Session::run`]: parse and compile; optimize once; fingerprint and ask
//! the result tier; on a miss admit, govern, execute and publish; write
//! the flight record. What sets the front ends apart is passed in with
//! each [`Request`] — the result tier, admission on a miss, and where the
//! governor's cancel token is registered — and nothing else.
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
use nggc_obs::MemorySubscriber;
use nggc_repository::{Repository, ResultStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    pub plan: LogicalPlan,
    /// What the optimizer did.
    pub optimizer: OptimizerReport,
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
        Session { repo, ctx, span, flight, in_flight: AtomicUsize::new(0) }
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
        let statements = parse(request.text).map_err(RunError::Parse)?;
        let plan = self.compile(&statements).map_err(RunError::Compile)?;
        // Optimize once, here: the tier's key is the optimized plan's
        // fingerprint, and the executor runs it as is.
        let (plan, optimizer) = optimize(&plan);
        span.field("selects_fused", optimizer.selects_fused)
            .field("nodes_deduplicated", optimizer.nodes_deduplicated);
        let reg = nggc_obs::global();
        reg.counter("nggc_exec_optimizer_selects_fused_total").add(optimizer.selects_fused as u64);
        reg.counter("nggc_exec_optimizer_nodes_deduplicated_total")
            .add(optimizer.nodes_deduplicated as u64);

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
            let result = execute_governed(&plan, &provider, ctx, &opts, governor.as_ref());
            (charged_bytes, peak_bytes) = governor.map_or((0, 0), |g| (g.charged(), g.mem_peak()));
            let (outputs, executed) = result.map_err(Unanswered::Failed)?;
            metrics = executed;
            Ok(outputs)
        };
        let gen_of = |name: &str| self.repo.generation(name);
        let result = match request.tier {
            Tier::None => execute().map(|outputs| (Arc::new(outputs), CacheOutcome::Miss)),
            Tier::Memory(cache) => {
                let sources = source_datasets(&plan);
                cache.get_or_compute(fingerprint(&plan).0, &sources, &gen_of, &mut execute)
            }
            Tier::Disk(store) => through_store(store, &plan, &gen_of, &mut execute),
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
            plan,
            optimizer,
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

    /// The logical plan, and the optimized plan with what each source
    /// will read (`nggc query --explain`), without executing anything.
    pub fn explain(&self, text: &str) -> Result<String, GmqlError> {
        let plan = self.compile(&parse(text)?)?;
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

    fn compile(&self, statements: &[nggc_core::Statement]) -> Result<LogicalPlan, GmqlError> {
        LogicalPlan::compile(statements, &|name| self.repo.schema_of(name))
    }
}

/// The on-disk store in [`ResultCache::get_or_compute`]'s shape: lookup;
/// on a miss snapshot the sources' generations *before* executing (a
/// dataset saved mid-execution must invalidate the entry, not match it),
/// compute, store. The store is a cache: a failed write costs the next
/// process a miss, so it is a warning, never the query's error.
fn through_store<E>(
    store: &ResultStore,
    plan: &LogicalPlan,
    gen_of: &dyn Fn(&str) -> Option<u64>,
    compute: &mut dyn FnMut() -> Result<QueryOutputs, E>,
) -> Result<(Arc<QueryOutputs>, CacheOutcome), E> {
    let key = fingerprint(plan).0;
    if let Some(outputs) = store.lookup(key, gen_of) {
        return Ok((Arc::new(outputs), CacheOutcome::Hit));
    }
    // Skipped when any source generation is unknown (pre-generation catalogs).
    let gens: Option<Vec<(String, u64)>> =
        source_datasets(plan).into_iter().map(|name| gen_of(&name).map(|g| (name, g))).collect();
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
    use super::fair_width;

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
