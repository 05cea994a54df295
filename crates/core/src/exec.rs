//! Plan execution on the parallel engine.
//!
//! The executor walks the logical DAG in topological order, materialising
//! one [`Dataset`] per node (the eager, stage-at-a-time model of the GMQL
//! cloud implementations) and freeing intermediates as soon as their last
//! consumer ran.

use crate::ast::Operator;
use crate::error::GmqlError;
use crate::governor::QueryGovernor;
use crate::ops;
use crate::plan::{LogicalPlan, PlanOp};
use nggc_engine::ExecContext;
use nggc_gdm::Dataset;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Execution strategy knobs (the E10 ablation toggles these).
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Evaluate metadata predicates before scanning regions in SELECT.
    pub meta_first: bool,
    /// Run the logical optimizer before execution.
    pub optimize: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { meta_first: true, optimize: true }
    }
}

/// Provide source datasets by name.
pub trait DatasetProvider {
    /// Load a dataset; called once per distinct source in the plan.
    fn load(&self, name: &str) -> Result<Dataset, GmqlError>;

    /// Load a dataset behind a shared pointer. Providers backed by a
    /// shared cache (e.g. `nggc-repository`) override this so a source
    /// node costs a reference-count bump instead of a deep copy; the
    /// default wraps [`DatasetProvider::load`].
    fn load_shared(&self, name: &str) -> Result<Arc<Dataset>, GmqlError> {
        self.load(name).map(Arc::new)
    }

    /// Load a dataset pruned to a [`ScanSpec`](crate::scan::ScanSpec):
    /// only the chromosomes, value columns and samples the plan provably
    /// needs. Returning a **superset** of the spec is always sound
    /// (operators re-apply their predicates, SELECT its metadata
    /// predicate included), and the default does exactly that by
    /// delegating to [`DatasetProvider::load_shared`] — so closure
    /// providers and providers without pruned storage keep today's
    /// behaviour. The repository-backed provider overrides this to serve
    /// the spec from the v2 container's sample and chromosome index.
    fn load_pruned(
        &self,
        name: &str,
        _spec: &crate::scan::ScanSpec,
    ) -> Result<Arc<Dataset>, GmqlError> {
        self.load_shared(name)
    }
}

impl<F> DatasetProvider for F
where
    F: Fn(&str) -> Result<Dataset, GmqlError>,
{
    fn load(&self, name: &str) -> Result<Dataset, GmqlError> {
        self(name)
    }
}

/// Per-node execution metrics (EXPLAIN ANALYZE and `--profile`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMetrics {
    /// The node's variable label.
    pub label: String,
    /// Operator (or `SOURCE`) name.
    pub operator: String,
    /// Input samples, summed over all inputs (0 for sources).
    pub samples_in: usize,
    /// Input regions, summed over all inputs (0 for sources).
    pub regions_in: usize,
    /// Output samples.
    pub samples_out: usize,
    /// Output regions.
    pub regions_out: usize,
    /// Approximate serialized size of the output.
    pub bytes_out: usize,
    /// Wall time spent in this node.
    pub wall: Duration,
    /// Bytes charged against the governor's memory budget for this
    /// node's output (0 when no governor tracks memory).
    pub mem_charged: u64,
    /// Bytes given back to the budget when this node's output was freed
    /// after its last consumer ran (0 for retained outputs).
    pub mem_released: u64,
    /// The repository reads this node made: a SOURCE's own load, counted
    /// on the executing thread, so another query's reads never land here
    /// and the metrics registry's state does not matter (zero for
    /// operators).
    pub reads: nggc_obs::ReadAccount,
}

/// Display width of the label column; longer labels are truncated.
const LABEL_WIDTH: usize = 18;

/// Truncate to `width` characters, ending in `…` when cut.
fn truncate_label(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_owned()
    } else {
        let mut out: String = s.chars().take(width.saturating_sub(1)).collect();
        out.push('…');
        out
    }
}

impl std::fmt::Display for NodeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<LABEL_WIDTH$} {:<10} {:>8}→{:<8} samples {:>10}→{:<10} regions {:>10.3} ms",
            truncate_label(&self.label, LABEL_WIDTH),
            truncate_label(&self.operator, 10),
            self.samples_in,
            self.samples_out,
            self.regions_in,
            self.regions_out,
            self.wall.as_secs_f64() * 1000.0
        )
    }
}

/// Execute a (possibly optimized) plan and return the materialized
/// outputs keyed by output name, with per-node metrics in execution order
/// — the paper's "estimates of the data sizes of results" (§4.4),
/// measured instead of estimated. Every output dataset is renamed to its
/// MATERIALIZE name and validated against the GDM constraints.
///
/// Under a [`QueryGovernor`] the governor is checked at **every plan-node
/// boundary** (before a node runs and again after its operator returns,
/// so a kernel that truncated its output on a mid-loop trip is reported
/// as the typed error, never as a success), every materialised
/// intermediate is charged against the memory budget and released when
/// its last consumer has run, and the governor's interruption state is
/// threaded into the [`ExecContext`] so operator hot loops and the
/// per-chromosome fan-out observe it too.
pub fn execute_governed(
    plan: &LogicalPlan,
    provider: &dyn DatasetProvider,
    ctx: &ExecContext,
    opts: &ExecOptions,
    governor: Option<&QueryGovernor>,
) -> Result<(HashMap<String, Dataset>, Vec<NodeMetrics>), GmqlError> {
    // Thread the interrupt into the operators' context so kernels poll
    // the same state the boundary checks use.
    let governed_ctx;
    let ctx = match governor {
        Some(g) => {
            governed_ctx = ctx.clone().with_interrupt(Arc::clone(g.state()));
            &governed_ctx
        }
        None => ctx,
    };
    let mut plan_span = nggc_obs::span("exec.plan");
    plan_span.field("nodes", plan.nodes.len()).field("outputs", plan.outputs.len());
    let plan = if opts.optimize {
        let (optimized, report) = crate::optimizer::optimize(plan);
        // Optimizer decisions travel on the plan span and the registry.
        plan_span
            .field("selects_fused", report.selects_fused)
            .field("nodes_deduplicated", report.nodes_deduplicated);
        let reg = nggc_obs::global();
        reg.counter("nggc_exec_optimizer_selects_fused_total").add(report.selects_fused as u64);
        reg.counter("nggc_exec_optimizer_nodes_deduplicated_total")
            .add(report.nodes_deduplicated as u64);
        optimized
    } else {
        plan.clone()
    };
    // Derive scan pruning on the plan exactly as it executes (whether
    // optimization ran here or upstream): per source, the chromosomes
    // and value columns the rest of the plan provably needs.
    let scan_specs = crate::scan::derive_scan_specs(&plan);

    // Reference counts: free a node's dataset after its last consumer.
    let mut refcount = vec![0usize; plan.nodes.len()];
    for node in &plan.nodes {
        for &i in &node.inputs {
            refcount[i] += 1;
        }
    }
    for (_, id) in &plan.outputs {
        refcount[*id] += 1;
    }

    // Slots hold shared pointers: a source served from a warm repository
    // cache is never deep-copied unless an output must be renamed while
    // other references are still alive.
    let mut slots: Vec<Option<Arc<Dataset>>> = (0..plan.nodes.len()).map(|_| None).collect();
    // Bytes charged to the governor per live slot, for release on free.
    let mut slot_bytes = vec![0u64; plan.nodes.len()];
    let mut metrics: Vec<NodeMetrics> = Vec::with_capacity(plan.nodes.len());
    let reg = nggc_obs::global();
    for (id, node) in plan.nodes.iter().enumerate() {
        if let Some(g) = governor {
            // Boundary checkpoint before the node runs.
            g.check(&node.label)?;
        }
        let operator = match &node.op {
            PlanOp::Source(_) => "SOURCE".to_owned(),
            PlanOp::Apply(op) => op.name().to_owned(),
        };
        let (samples_in, regions_in) = node.inputs.iter().fold((0, 0), |(s, r), &i| {
            let d = slots[i].as_ref().expect("topological order");
            (s + d.sample_count(), r + d.region_count())
        });
        let mut node_span = nggc_obs::span("exec.node");
        node_span
            .field("label", &node.label)
            .field("op", &operator)
            .field("samples_in", samples_in)
            .field("regions_in", regions_in);
        let t0 = std::time::Instant::now();
        let (result, reads) = match &node.op {
            // A SOURCE's load is the only repository read a plan makes,
            // and it runs on this thread: its account is the node's.
            PlanOp::Source(name) => {
                let (loaded, reads) = nggc_obs::account_reads(|| {
                    match scan_specs.get(&id).filter(|s| !s.is_trivial()) {
                        Some(spec) => provider.load_pruned(name, spec),
                        None => provider.load_shared(name),
                    }
                });
                (loaded?, reads)
            }
            PlanOp::Apply(op) => {
                let first = node.inputs[0];
                // An operator that rewrites its input region by region gets
                // the dataset itself when nobody else will read it again:
                // this node is the slot's last consumer and no other holder
                // (the repository cache, a result cache) shares the
                // allocation. Its bytes stay charged until the release
                // below, as for a borrowed input.
                let mut owned = None;
                if consumes_input(op) && refcount[first] == 1 {
                    match Arc::try_unwrap(slots[first].take().expect("topological order")) {
                        Ok(dataset) => owned = Some(dataset),
                        Err(shared) => slots[first] = Some(shared),
                    }
                }
                let input = match owned {
                    Some(dataset) => Cow::Owned(dataset),
                    None => Cow::Borrowed(slots[first].as_deref().expect("topological order")),
                };
                let rest: Vec<&Dataset> = node.inputs[1..]
                    .iter()
                    .map(|&i| slots[i].as_deref().expect("topological order"))
                    .collect();
                let mut d = apply(op, input, &rest, ctx, opts, &node.schema)?;
                d.name = node.label.clone();
                (Arc::new(d), nggc_obs::ReadAccount::default())
            }
        };
        let wall = t0.elapsed();
        if let Some(g) = governor {
            // Boundary checkpoint after the operator, *before* sizing the
            // result: a kernel that observed the trip mid-loop returned
            // truncated data, which must surface as the typed error —
            // never as a result, and without paying to measure it.
            g.check(&node.label)?;
        }
        let bytes_out = result.encoded_size();
        if let Some(g) = governor {
            // Charge the materialised intermediate before it becomes
            // visible to consumers; rejection aborts the query with the
            // node's accounting attached.
            g.charge(&node.label, bytes_out as u64)?;
            slot_bytes[id] = bytes_out as u64;
        }
        node_span
            .field("samples_out", result.sample_count())
            .field("regions_out", result.region_count())
            .field("bytes_est", bytes_out);
        drop(node_span);
        if reg.is_enabled() {
            reg.counter_with("nggc_exec_nodes_total", &[("op", &operator)]).inc();
            reg.counter_with("nggc_exec_regions_out_total", &[("op", &operator)])
                .add(result.region_count() as u64);
            reg.histogram_with("nggc_exec_node_wall_ns", &[("op", &operator)])
                .record_duration(wall);
        }
        metrics.push(NodeMetrics {
            label: node.label.clone(),
            operator,
            samples_in,
            regions_in,
            samples_out: result.sample_count(),
            regions_out: result.region_count(),
            bytes_out,
            wall,
            mem_charged: slot_bytes[id],
            mem_released: 0,
            reads,
        });
        // Decrement inputs; free exhausted intermediates (and give their
        // bytes back to the budget). The release is attributed to the
        // metrics entry of the node that *produced* the freed slot —
        // `metrics[i]` exists because inputs precede their consumers.
        for &i in &node.inputs {
            refcount[i] -= 1;
            if refcount[i] == 0 {
                slots[i] = None;
                if let Some(g) = governor {
                    g.release(slot_bytes[i]);
                    metrics[i].mem_released += slot_bytes[i];
                    slot_bytes[i] = 0;
                }
            }
        }
        slots[id] = Some(result);
    }
    if let Some(g) = governor {
        g.export_peak();
    }

    let mut out = HashMap::new();
    for (name, id) in &plan.outputs {
        // Drop the slot once its last output consumer is served, so the
        // rename below can reuse the allocation instead of copying.
        refcount[*id] -= 1;
        let arc = if refcount[*id] == 0 {
            slots[*id].take().expect("outputs are retained")
        } else {
            slots[*id].clone().expect("outputs are retained")
        };
        let mut d = Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone());
        d.name = name.clone();
        debug_assert!(d.validate().is_ok(), "operator produced an invalid dataset");
        out.insert(name.clone(), d);
    }
    Ok((out, metrics))
}

/// True for the operators that can rewrite an owned input in place
/// instead of copying what they keep of it.
fn consumes_input(op: &Operator) -> bool {
    matches!(op, Operator::Select { .. } | Operator::Project { .. })
}

/// Dispatch one operator application: `input` is the operator's first
/// (for unary operators, only) input, `rest` the others.
fn apply(
    op: &Operator,
    input: Cow<'_, Dataset>,
    rest: &[&Dataset],
    ctx: &ExecContext,
    opts: &ExecOptions,
    out_schema: &nggc_gdm::Schema,
) -> Result<Dataset, GmqlError> {
    match op {
        Operator::Select { meta, region, semijoin } => {
            let ext = rest.first().copied();
            ops::select::select(ctx, opts, meta, region.as_ref(), semijoin.as_ref(), input, ext)
        }
        Operator::Project { attrs, new_attrs, meta_attrs } => ops::project::project(
            ctx,
            attrs.as_deref(),
            new_attrs,
            meta_attrs.as_deref(),
            input,
            out_schema,
        ),
        Operator::Extend { assignments } => ops::extend::extend(ctx, assignments, &input),
        Operator::Merge { groupby } => ops::merge::merge(ctx, groupby, &input),
        Operator::Group { by, region_aggs } => {
            ops::group::group(ctx, by, region_aggs, &input, out_schema)
        }
        Operator::Order { meta_keys, top, region_keys, region_top } => {
            ops::order::order(ctx, meta_keys, *top, region_keys, *region_top, &input)
        }
        Operator::Union => ops::union::union(ctx, &input, rest[0], out_schema),
        Operator::Difference { exact, joinby } => {
            ops::difference::difference(ctx, *exact, joinby, &input, rest[0])
        }
        Operator::Join { clauses, output, joinby } => {
            ops::join::join(ctx, clauses, *output, joinby, &input, rest[0], out_schema)
        }
        Operator::Map { aggs, joinby } => {
            ops::map::map(ctx, aggs, joinby, &input, rest[0], out_schema)
        }
        Operator::Cover { variant, min_acc, max_acc, groupby, aggs } => {
            ops::cover::cover(ctx, *variant, *min_acc, *max_acc, groupby, aggs, &input, out_schema)
        }
    }
}
