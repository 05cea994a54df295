//! The traced run: replay the same seeded operation sequence in-process,
//! composing each operation from the layers' public functions in the order
//! the real front ends (`cmd_query`, `cmd_import`, `cmd_delete`, serve's
//! `run_query`) call them, with a span around every such call (see
//! `probes.rs`). Nothing inside the program is instrumented.
//!
//! A CLI operation is replayed in a fresh process of this executable, as
//! the real one runs: new `Repository`, new worker pool, nothing resident,
//! an untouched heap. A served workload keeps one repository, pool, dataset
//! residency map and result cache for the whole replay, as the server does,
//! and its two clients' sequences are interleaved op by op.

use crate::harness::{Env, Live};
use crate::probes;
use crate::trace::{Span, Tracer};
use crate::workloads::{imported_dataset, Action, Expect, Op, Plan};
use nggc::engine::pool::PoolStats;
use nggc::engine::ExecContext;
use nggc::formats::native_v2::ScanOptions;
use nggc::gdm::Dataset;
use nggc::gmql::result_cache::QueryOutputs;
use nggc::gmql::{
    CacheOutcome, DatasetProvider, GmqlError, GovernorLimits, NodeMetrics, QueryGovernor,
    ResultCache, ScanSpec,
};
use nggc::repository::{Repository, ResultStore};
use nggc::server::protocol::write_frame;
use nggc::server::ClientRequest;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Byte budget `nggc query` gives its on-disk result store by default.
const RESULT_STORE_BYTES: u64 = 512 << 20;
/// Governor budget serve carves for a query that asks for none: the
/// default 1 GiB pool over the default in-flight cap of 8.
const SERVE_QUERY_BUDGET: u64 = (1 << 30) / 8;

/// Container bytes and blocks a replayed operation read, and the totals it
/// could have read.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct ScanTotals {
    pub bytes_read: u64,
    pub bytes_total: u64,
    pub blocks_read: u64,
    pub blocks_total: u64,
}

/// One executed plan node, from the `NodeMetrics` `execute_governed` returns.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Node {
    pub operator: String,
    pub wall_ms: f64,
    pub regions_in: usize,
    pub regions_out: usize,
}

/// What the replay of one operation observed besides its spans.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct OpTrace {
    /// Index into [`Plan::ops`].
    pub op: usize,
    pub ok: bool,
    pub nodes: Vec<Node>,
    pub scan: ScanTotals,
    pub pool_utilization: f64,
    pub pool_jobs: u64,
    pub pool_steals: u64,
    pub governor_peak: u64,
    pub reply_bytes: usize,
    pub cache_hit: Option<bool>,
}

/// The outcome of a traced replay.
pub struct Replay {
    pub ops: Vec<OpTrace>,
    pub spans: Vec<Span>,
}

/// Source provider of the replay: the same decisions as
/// `Repository::load` / `load_pruned` (a resident full dataset serves every
/// request, a cold full read becomes resident, a cold pruned read does
/// not), with the container read and decode done through the probes.
struct TracedProvider<'a> {
    t: &'a Tracer,
    root: &'a Path,
    resident: &'a RefCell<HashMap<String, Arc<Dataset>>>,
    scan: &'a RefCell<ScanTotals>,
    /// Datasets read in full from disk during this operation.
    full_reads: &'a RefCell<Vec<String>>,
}

impl TracedProvider<'_> {
    fn read(&self, name: &str, opts: Option<&ScanOptions>) -> Result<Arc<Dataset>, GmqlError> {
        if let Some(ds) = self.resident.borrow().get(name) {
            return Ok(Arc::clone(ds));
        }
        let dir = self.root.join("datasets").join(name);
        let container = probes::formats_block_read(self.t, &dir).map_err(GmqlError::runtime)?;
        let (dataset, stats) =
            probes::formats_decode(self.t, &container, opts).map_err(GmqlError::runtime)?;
        let dataset = Arc::new(dataset);
        match stats {
            Some(s) => {
                let mut scan = self.scan.borrow_mut();
                scan.bytes_read += s.bytes_read;
                scan.bytes_total += s.bytes_read + s.bytes_skipped;
                scan.blocks_read += s.blocks_read;
                scan.blocks_total += s.blocks_read + s.blocks_skipped;
            }
            None => {
                self.full_reads.borrow_mut().push(name.to_owned());
                self.resident.borrow_mut().insert(name.to_owned(), Arc::clone(&dataset));
            }
        }
        Ok(dataset)
    }
}

impl DatasetProvider for TracedProvider<'_> {
    fn load(&self, name: &str) -> Result<Dataset, GmqlError> {
        self.load_shared(name).map(|d| (*d).clone())
    }

    fn load_shared(&self, name: &str) -> Result<Arc<Dataset>, GmqlError> {
        self.read(name, None)
    }

    fn load_pruned(&self, name: &str, spec: &ScanSpec) -> Result<Arc<Dataset>, GmqlError> {
        let opts = ScanOptions { chroms: spec.chroms.clone(), columns: spec.columns.clone() };
        self.read(name, Some(&opts))
    }
}

fn nodes_of(metrics: &[NodeMetrics]) -> Vec<Node> {
    metrics
        .iter()
        .map(|m| Node {
            operator: m.operator.clone(),
            wall_ms: m.wall.as_secs_f64() * 1e3,
            regions_in: m.regions_in,
            regions_out: m.regions_out,
        })
        .collect()
}

fn matches(outputs: &QueryOutputs, expect: Expect) -> bool {
    expect
        == Expect::Output {
            samples: outputs.values().map(Dataset::sample_count).sum(),
            regions: outputs.values().map(Dataset::region_count).sum(),
        }
}

/// State a served replay keeps for its whole length (the server's state).
struct Served {
    root: PathBuf,
    repo: Repository,
    ctx: ExecContext,
    resident: RefCell<HashMap<String, Arc<Dataset>>>,
    cache: Option<ResultCache>,
}

/// One CLI operation, self-contained so that a fresh process can replay it:
/// the real operation runs in a process that starts with nothing resident
/// and an untouched heap, and so must its replay, or the page faults and
/// cold allocator the layers pay for in a one-shot process would be missing
/// from their spans.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CliJob {
    pub root: PathBuf,
    pub nggc: PathBuf,
    pub nproc: usize,
    /// `--no-cache`: bypass the on-disk result store (`scan_cold`).
    pub no_cache: bool,
    pub action: Action,
    pub expect: Expect,
    /// The narrowPeak file of an import.
    pub batch_file: Option<PathBuf>,
}

/// What the process replaying a [`CliJob`] hands back.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct JobReport {
    pub spans: Vec<Span>,
    pub trace: OpTrace,
}

impl CliJob {
    /// Replay the job in this process.
    pub fn run(&self) -> Result<JobReport, String> {
        let t = Tracer::new();
        let trace = match &self.action {
            Action::Query { text, save } => self.query(&t, text, *save)?,
            Action::Import { dataset, .. } => self.import(&t, dataset)?,
            Action::Delete { dataset } => self.delete(&t, dataset)?,
        };
        Ok(JobReport { spans: t.spans(), trace })
    }

    /// Replay the job in a fresh process (this executable, `--replay-op`).
    fn run_fresh(&self) -> Result<JobReport, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let job = serde_json::to_string(self).map_err(|e| e.to_string())?;
        let out = std::process::Command::new(exe)
            .args(["--replay-op", &job])
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("cannot start the replay process: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "replay process failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        serde_json::from_slice(&out.stdout).map_err(|e| format!("replay process output: {e}"))
    }

    /// `nggc query [--save] [--no-cache] --head 0 -e TEXT`, as `cmd_query`.
    fn query(&self, t: &Tracer, text: &str, save: bool) -> Result<OpTrace, String> {
        let scan = RefCell::new(ScanTotals::default());
        let full_reads = RefCell::new(Vec::new());
        let resident = RefCell::new(HashMap::new());
        let mut trace = OpTrace::default();
        t.span("op", || -> Result<(), String> {
            probes::cli_process(t, &self.nggc)?;
            let mut repo = probes::repository_open(t, &self.root)?;
            let ctx = t.span("engine.pool_start", || ExecContext::with_workers(self.nproc));
            let statements = probes::core_parse(t, text)?;
            let compiled = probes::core_compile(t, &statements, &|name| repo.schema_of(name))?;
            let optimized = probes::core_optimize(t, &compiled);
            probes::core_scan_spec(t, &optimized);
            let store = (!self.no_cache)
                .then(|| ResultStore::open(self.root.join("result_cache"), RESULT_STORE_BYTES));
            let mut cached = None;
            let mut store_after = None;
            if let Some(store) = &store {
                let (key, sources) = probes::core_fingerprint(t, &optimized);
                cached = probes::result_store_lookup(t, store, key, &|n| repo.generation(n));
                trace.cache_hit = Some(cached.is_some());
                if cached.is_none() {
                    let gens: Option<Vec<(String, u64)>> = sources
                        .iter()
                        .map(|n| repo.generation(n).map(|g| (n.clone(), g)))
                        .collect();
                    store_after = gens.map(|gens| (key, gens));
                }
            }
            let governor = QueryGovernor::new(GovernorLimits::default());
            let pool_before = ctx.pool().stats();
            let outputs = match cached {
                Some(outputs) => outputs,
                None => {
                    let provider = TracedProvider {
                        t,
                        root: &self.root,
                        resident: &resident,
                        scan: &scan,
                        full_reads: &full_reads,
                    };
                    let (outputs, metrics) =
                        probes::core_exec(t, &optimized, &provider, &ctx, &governor)?;
                    trace.nodes = nodes_of(&metrics);
                    outputs
                }
            };
            trace.note_pool(&pool_before, &ctx.pool().stats());
            trace.governor_peak = governor.mem_peak();
            if let (Some(store), Some((key, gens))) = (&store, &store_after) {
                probes::result_store_store(t, store, *key, gens, &outputs)?;
            }
            probes::cli_report(t, &outputs);
            if save {
                for ds in outputs.values() {
                    probes::repository_save(t, &mut repo, ds)?;
                }
            }
            trace.ok = matches(&outputs, self.expect);
            probes::gdm_drop(t, (outputs, resident.take(), repo, ctx));
            Ok(())
        })?;
        trace.scan = scan.into_inner();
        index_probes(t, &self.root, &full_reads.into_inner(), &mut trace)?;
        Ok(trace)
    }

    /// `nggc import FILE DATASET` for a name that does not exist, as
    /// `cmd_import`.
    fn import(&self, t: &Tracer, name: &str) -> Result<OpTrace, String> {
        let file = self.batch_file.as_ref().ok_or("an import job needs its batch file")?;
        let mut dataset = None;
        let mut trace = OpTrace::default();
        t.span("op", || -> Result<(), String> {
            probes::cli_process(t, &self.nggc)?;
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            let regions = probes::formats_text_parse(t, &text)?;
            let mut repo = probes::repository_open(t, &self.root)?;
            if repo.contains(name) {
                return Err(format!("replayed import expects {name} to be absent"));
            }
            trace.ok = self.expect == Expect::Imported { regions: regions.len() };
            let ds = imported_dataset(name, regions)?;
            probes::repository_save(t, &mut repo, &ds)?;
            dataset = Some(ds);
            Ok(())
        })?;
        // Side probe: what the encode half of that save costs on its own.
        probes::formats_encode(t, dataset.as_ref().expect("import built a dataset"))?;
        Ok(trace)
    }

    /// `nggc delete DATASET`, as `cmd_delete`.
    fn delete(&self, t: &Tracer, name: &str) -> Result<OpTrace, String> {
        t.span("op", || {
            probes::cli_process(t, &self.nggc)?;
            let mut repo = probes::repository_open(t, &self.root)?;
            probes::repository_delete(t, &mut repo, name)?;
            Ok(OpTrace { ok: true, ..OpTrace::default() })
        })
    }
}

/// Side probe, outside the op's span tree: read only the index of every
/// container the operation read in full, which also says how many block
/// bytes a full read touches.
fn index_probes(
    t: &Tracer,
    root: &Path,
    names: &[String],
    trace: &mut OpTrace,
) -> Result<(), String> {
    for name in names {
        let index = probes::formats_index_read(t, &root.join("datasets").join(name))?;
        for block in index.samples.iter().flat_map(|s| &s.chroms) {
            trace.scan.bytes_read += block.bytes;
            trace.scan.bytes_total += block.bytes;
            trace.scan.blocks_read += 1;
            trace.scan.blocks_total += 1;
        }
    }
    Ok(())
}

impl OpTrace {
    fn note_pool(&mut self, before: &PoolStats, after: &PoolStats) {
        self.pool_utilization = after.utilization();
        self.pool_jobs = after.jobs_executed - before.jobs_executed;
        self.pool_steals = after.sibling_steals - before.sibling_steals;
    }
}

impl Served {
    /// One serve request, as `handle_connection` + `run_query`.
    fn request(&self, t: &Tracer, plan: &Plan, op: &Op, text: &str) -> Result<OpTrace, String> {
        let (head, no_cache) = plan.kind.serve_request();
        let request = ClientRequest::Query {
            text: text.to_owned(),
            timeout_ms: None,
            max_memory: None,
            head,
            no_cache,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &request).map_err(|e| e.to_string())?;
        let scan = RefCell::new(ScanTotals::default());
        let full_reads = RefCell::new(Vec::new());
        let mut trace = OpTrace::default();
        t.span("op", || -> Result<(), String> {
            let ClientRequest::Query { text, head, no_cache, .. } =
                probes::server_frame_decode(t, &wire)?
            else {
                return Err("replayed frame is not a query".into());
            };
            let statements = probes::core_parse(t, &text)?;
            let compiled = probes::core_compile(t, &statements, &|name| self.repo.schema_of(name))?;
            let optimized = probes::core_optimize(t, &compiled);
            probes::core_scan_spec(t, &optimized);
            let governor = QueryGovernor::new(GovernorLimits {
                timeout: None,
                max_memory: Some(SERVE_QUERY_BUDGET),
            });
            let provider = TracedProvider {
                t,
                root: &self.root,
                resident: &self.resident,
                scan: &scan,
                full_reads: &full_reads,
            };
            let nodes = RefCell::new(Vec::new());
            let mut execute = || {
                let (outputs, metrics) =
                    probes::core_exec(t, &optimized, &provider, &self.ctx, &governor)?;
                *nodes.borrow_mut() = nodes_of(&metrics);
                Ok(outputs)
            };
            let pool_before = self.ctx.pool().stats();
            let (outputs, cached) = match self.cache.as_ref().filter(|_| !no_cache) {
                None => (Arc::new(execute()?), false),
                Some(cache) => {
                    let (key, sources) = probes::core_fingerprint(t, &optimized);
                    let (outputs, outcome) = probes::core_result_cache(
                        t,
                        cache,
                        key,
                        &sources,
                        &|n| self.repo.generation(n),
                        &mut execute,
                    )?;
                    trace.cache_hit = Some(outcome == CacheOutcome::Hit);
                    (outputs, outcome != CacheOutcome::Miss)
                }
            };
            trace.note_pool(&pool_before, &self.ctx.pool().stats());
            trace.governor_peak = governor.mem_peak();
            trace.reply_bytes = probes::server_reply_encode(t, &outputs, head, cached)?.len();
            trace.ok = matches(&outputs, op.expect);
            trace.nodes = nodes.take();
            probes::gdm_drop(t, outputs);
            Ok(())
        })?;
        trace.scan = scan.into_inner();
        index_probes(t, &self.root, &full_reads.into_inner(), &mut trace)?;
        Ok(trace)
    }
}

/// Replay `plan` against the set-up workload `live` (its server stopped)
/// for about `seconds`, recording spans. Served operations are replayed in
/// this process, CLI operations each in a fresh one.
pub fn replay(env: &Env, plan: &Plan, live: &Live, seconds: f64) -> Result<Replay, String> {
    let root = live.repo.as_path();
    let state = if plan.kind.served() {
        Some(Served {
            root: root.to_owned(),
            repo: Repository::open(root).map_err(|e| e.to_string())?,
            ctx: ExecContext::with_workers(env.nproc),
            resident: RefCell::new(HashMap::new()),
            cache: (plan.result_cache_bytes > 0).then(|| ResultCache::new(plan.result_cache_bytes)),
        })
    } else {
        None
    };
    let run = |t: &Tracer, index: usize| -> Result<OpTrace, String> {
        let op = &plan.ops[index];
        let mut trace = match (&op.action, &state) {
            (Action::Query { text, .. }, Some(state)) => state.request(t, plan, op, text)?,
            (action, _) => {
                let job = CliJob {
                    root: root.to_owned(),
                    nggc: env.nggc.clone(),
                    nproc: env.nproc,
                    no_cache: plan.kind.cli_no_cache(),
                    action: action.clone(),
                    expect: op.expect,
                    batch_file: match action {
                        Action::Import { batch, .. } => Some(live.batch_files[*batch].clone()),
                        _ => None,
                    },
                };
                let report = job.run_fresh()?;
                t.absorb(report.spans);
                report.trace
            }
        };
        trace.op = index;
        Ok(trace)
    };
    // The warm-up pass leaves the served state as the real warm-up leaves
    // the server; its spans are thrown away.
    if state.is_some() {
        let scratch = Tracer::new();
        for &index in &plan.warmup {
            run(&scratch, index)?;
        }
    }
    // Clients' sequences interleaved op by op, walked cyclically.
    let longest = plan.sequences.iter().map(Vec::len).max().unwrap_or(0);
    let order: Vec<usize> = (0..longest)
        .flat_map(|i| plan.sequences.iter().filter_map(move |seq| seq.get(i).copied()))
        .collect();
    let tracer = Tracer::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    for (n, &index) in order.iter().cycle().enumerate() {
        // Whole blocks only, so every template is replayed equally often.
        if n % plan.block == 0 && Instant::now() >= deadline {
            break;
        }
        tracer.set_op(n);
        ops.push(run(&tracer, index)?);
    }
    Ok(Replay { ops, spans: tracer.spans() })
}

/// Write the spans of a replay out (when the run ends).
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string(spans).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
