//! The federation coordinator.
//!
//! Nodes run on their own threads and communicate exclusively through
//! protocol messages over channels — the in-process stand-in for the
//! networked federation of §4.4 (DESIGN.md substitution table). The
//! coordinator implements both execution strategies that experiment E7
//! compares:
//!
//! * **ship-query** ([`Federation::ship_query`]) — "this paradigm allows
//!   for distributing the processing to data, transferring only query
//!   results which are usually small in size";
//! * **ship-data** ([`Federation::ship_data`]) — today's practice the
//!   paper argues against: "most of today's implementations requires
//!   first a full data transmission and then to evaluate server-side
//!   imperative programs".

use crate::node::{decode_staged, NodeService};
use crate::policy::{Breaker, BreakerState, CallPolicy, NodeHealth, NodeStatus};
use crate::protocol::{
    DatasetSummary, Request, Response, SizeEstimate, TraceHeader, TransferLog, WireSpan,
};
use crossbeam_channel::{unbounded, RecvTimeoutError, Sender};
use nggc_core::{GmqlEngine, QueryGovernor};
use nggc_gdm::Dataset;
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::JoinHandle;

// Channel message to a node thread: the request, the coordinator's
// trace context (when a trace is being recorded), and the reply channel
// — responses piggyback the spans the node captured while serving.
type Envelope = (Request, Option<TraceHeader>, Sender<(Response, Vec<WireSpan>)>);

struct NodeHandle {
    id: String,
    tx: Sender<Envelope>,
    join: Option<JoinHandle<()>>,
}

/// A federation of nodes plus a coordinating client.
///
/// Every exchange goes through [`Federation::call`], which enforces the
/// [`CallPolicy`]: a per-request deadline, bounded retries with
/// deterministic backoff for idempotent request kinds, and a per-node
/// circuit breaker with half-open probing. Degraded-mode entry points
/// ([`discover_degraded`](Federation::discover_degraded),
/// [`execute_distributed_degraded`](Federation::execute_distributed_degraded))
/// keep going when a minority of nodes is down and report per-node
/// [`NodeHealth`] instead of failing the whole federation.
pub struct Federation {
    nodes: Vec<NodeHandle>,
    policy: CallPolicy,
    breakers: Mutex<HashMap<String, Breaker>>,
}

/// Error type of federation calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// No node with the given id.
    UnknownNode(String),
    /// The node answered with a protocol error.
    Remote(String),
    /// The node thread is gone.
    NodeDown(String),
    /// Unexpected response variant.
    Protocol(String),
    /// The node failed to answer within the policy deadline.
    Timeout(String),
    /// The node's circuit breaker is open; the call was rejected locally
    /// without touching the node.
    CircuitOpen(String),
    /// The local query governor tripped (cancellation, deadline, or
    /// memory budget) while the federated conversation was in flight;
    /// the message is the governor's typed error rendered as text.
    Interrupted(String),
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            FederationError::Remote(e) => write!(f, "remote error: {e}"),
            FederationError::NodeDown(n) => write!(f, "node {n:?} is down"),
            FederationError::Protocol(e) => write!(f, "protocol violation: {e}"),
            FederationError::Timeout(n) => write!(f, "node {n:?} timed out"),
            FederationError::CircuitOpen(n) => write!(f, "node {n:?} circuit breaker is open"),
            FederationError::Interrupted(e) => write!(f, "query interrupted: {e}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl FederationError {
    /// Transport-level failures count against the node's breaker and are
    /// retryable (for idempotent requests); application/protocol errors
    /// are deterministic and propagate immediately.
    fn is_transport(&self) -> bool {
        matches!(self, FederationError::Timeout(_) | FederationError::NodeDown(_))
    }
}

impl Federation {
    /// Empty federation with the default [`CallPolicy`].
    pub fn new() -> Federation {
        Federation::with_policy(CallPolicy::default())
    }

    /// Empty federation with an explicit fault-tolerance policy.
    pub fn with_policy(policy: CallPolicy) -> Federation {
        Federation { nodes: Vec::new(), policy, breakers: Mutex::new(HashMap::new()) }
    }

    /// Replace the fault-tolerance policy.
    pub fn set_policy(&mut self, policy: CallPolicy) {
        self.policy = policy;
    }

    /// The active fault-tolerance policy.
    pub fn policy(&self) -> &CallPolicy {
        &self.policy
    }

    /// Add a node; it starts serving requests on its own thread. Accepts
    /// any [`NodeService`] — a real [`FederationNode`](crate::FederationNode)
    /// or a fault-injecting [`ChaosNode`](crate::ChaosNode).
    pub fn add_node(&mut self, mut node: impl NodeService + 'static) {
        let id = node.id().to_owned();
        let (tx, rx) = unbounded::<Envelope>();
        let join = std::thread::Builder::new()
            .name(format!("nggc-fed-{id}"))
            .spawn(move || {
                // Withheld replies (`serve` returned `None`) keep their
                // sender alive until shutdown: the caller must observe
                // silence — a lost response whose deadline fires — not a
                // visibly closed connection.
                let mut withheld = Vec::new();
                while let Ok((req, trace, reply)) = rx.recv() {
                    // With a trace header present, serve under the
                    // coordinator's context and capture this node's
                    // spans locally (they must not reach the
                    // coordinator's subscribers directly — that would
                    // double-count once they are shipped back and
                    // re-emitted). The `node.serve` envelope span
                    // guarantees even metadata-only requests yield at
                    // least one span for stitching.
                    let (resp, spans) = match trace {
                        Some(h) => {
                            let ctx =
                                nggc_obs::TraceContext::with_id(h.trace_id).child_of(h.parent_span);
                            let (resp, recs) = nggc_obs::collect_local(ctx, || {
                                let mut s = nggc_obs::span("node.serve");
                                s.field("kind", req.kind());
                                node.serve(&req)
                            });
                            (resp, recs.iter().map(WireSpan::from).collect())
                        }
                        None => (node.serve(&req), Vec::new()),
                    };
                    match resp {
                        Some(resp) => {
                            let _ = reply.send((resp, spans));
                        }
                        None => withheld.push(reply),
                    }
                }
            })
            .expect("failed to spawn node thread");
        self.nodes.push(NodeHandle { id, tx, join: Some(join) });
    }

    /// Node ids.
    pub fn node_ids(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.id.as_str()).collect()
    }

    /// Current breaker state for a node (`Closed` if never called). An
    /// open breaker reads as `Open` until the next admitted call probes
    /// it, even after the cooldown has elapsed.
    pub fn breaker_state(&self, node_id: &str) -> BreakerState {
        let mut breakers = self.breakers.lock().unwrap();
        breakers.entry(node_id.to_owned()).or_default().state()
    }

    /// Check breaker admission for a call, exporting the state gauge.
    fn breaker_admit(&self, node_id: &str) -> bool {
        let mut breakers = self.breakers.lock().unwrap();
        let b = breakers.entry(node_id.to_owned()).or_default();
        let admitted = b.admit(&self.policy);
        let state = b.state();
        drop(breakers);
        Self::export_breaker_state(node_id, state);
        admitted
    }

    fn breaker_success(&self, node_id: &str) {
        let mut breakers = self.breakers.lock().unwrap();
        let b = breakers.entry(node_id.to_owned()).or_default();
        b.on_success();
        let state = b.state();
        drop(breakers);
        Self::export_breaker_state(node_id, state);
    }

    fn breaker_failure(&self, node_id: &str) {
        let mut breakers = self.breakers.lock().unwrap();
        let b = breakers.entry(node_id.to_owned()).or_default();
        let opened = b.on_transport_failure(&self.policy);
        let state = b.state();
        drop(breakers);
        if opened {
            nggc_obs::global()
                .counter_with("nggc_fed_breaker_opens_total", &[("node", node_id)])
                .inc();
        }
        Self::export_breaker_state(node_id, state);
    }

    fn export_breaker_state(node_id: &str, state: BreakerState) {
        nggc_obs::global()
            .gauge_with("nggc_fed_breaker_state", &[("node", node_id)])
            .set(state.as_gauge());
    }

    /// One request/response exchange with a node under the federation's
    /// [`CallPolicy`]: deadline via `recv_timeout`, bounded retries with
    /// deterministic backoff for idempotent request kinds, per-node
    /// circuit breaker. Recorded in `log` and in the `nggc_fed_*`
    /// metrics (request/byte/failure counters, latency histogram,
    /// retry/timeout counters, breaker gauges).
    pub fn call(
        &self,
        node_id: &str,
        request: Request,
        log: &mut TransferLog,
    ) -> Result<Response, FederationError> {
        self.call_with_policy(node_id, request, log, &self.policy, &mut 0)
    }

    /// [`Federation::call`] under an explicit policy — the governed
    /// entry points clamp the federation policy to a query's remaining
    /// wall time and route their calls through here. Breaker bookkeeping
    /// (threshold, cooldown) always follows the federation's own policy;
    /// only the per-call spend (deadline, retries, backoff) varies. The
    /// call adds the retries it spends to `retries`.
    fn call_with_policy(
        &self,
        node_id: &str,
        request: Request,
        log: &mut TransferLog,
        policy: &CallPolicy,
        retries: &mut usize,
    ) -> Result<Response, FederationError> {
        let reg = nggc_obs::global();
        let kind = request.kind();
        let fail = |reason: &str| {
            reg.counter_with("nggc_fed_failures_total", &[("node", node_id), ("reason", reason)])
                .inc();
        };
        let node = self.nodes.iter().find(|n| n.id == node_id).ok_or_else(|| {
            fail("unknown_node");
            FederationError::UnknownNode(node_id.to_owned())
        })?;
        if !self.breaker_admit(node_id) {
            fail("circuit_open");
            return Err(FederationError::CircuitOpen(node_id.to_owned()));
        }
        // The coordinator-side anchor for this exchange. When a trace is
        // being recorded, its id travels to the node as a TraceHeader so
        // the node's spans come back parented under it — rendering one
        // stitched tree across the process boundary.
        let mut call_span = nggc_obs::span("fed.call");
        call_span.field("node", node_id).field("kind", kind);
        let trace = call_span
            .id()
            .map(|id| TraceHeader { trace_id: nggc_obs::current_trace_id(), parent_span: id });
        let retry_budget = if request.is_idempotent() { policy.max_retries } else { 0 };
        loop {
            reg.counter_with("nggc_fed_requests_total", &[("node", node_id), ("kind", kind)]).inc();
            let t0 = std::time::Instant::now();
            let (reply_tx, reply_rx) = unbounded();
            let outcome: Result<(Response, Vec<WireSpan>), FederationError> =
                if node.tx.send((request.clone(), trace, reply_tx)).is_err() {
                    Err(FederationError::NodeDown(node_id.to_owned()))
                } else {
                    match reply_rx.recv_timeout(policy.deadline) {
                        Ok(resp) => Ok(resp),
                        Err(RecvTimeoutError::Timeout) => {
                            reg.counter_with("nggc_fed_timeouts_total", &[("node", node_id)]).inc();
                            Err(FederationError::Timeout(node_id.to_owned()))
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            Err(FederationError::NodeDown(node_id.to_owned()))
                        }
                    }
                };
            match outcome {
                Ok((response, spans)) => {
                    reg.histogram_with("nggc_fed_request_ns", &[("node", node_id)])
                        .record_duration(t0.elapsed());
                    log.record(&request, &response);
                    // Stitch the node's spans into the coordinator's
                    // trace, tagging each with its origin node. A node
                    // that shipped nothing (e.g. one that answered after
                    // its reply channel was abandoned) simply leaves a
                    // childless fed.call span — degraded outcomes stay
                    // renderable.
                    if !spans.is_empty() {
                        reg.counter_with("nggc_fed_spans_shipped_total", &[("node", node_id)])
                            .add(spans.len() as u64);
                        for ws in spans {
                            let mut rec = ws.into_record();
                            rec.fields.push(("node".to_owned(), node_id.to_owned()));
                            nggc_obs::emit_record(&rec);
                        }
                    }
                    call_span.field("attempts", *retries + 1);
                    reg.counter_with("nggc_fed_bytes_sent_total", &[("node", node_id)])
                        .add(request.wire_size() as u64);
                    reg.counter_with("nggc_fed_bytes_received_total", &[("node", node_id)])
                        .add(response.wire_size() as u64);
                    // The transport worked even if the answer is an
                    // application error — the breaker only tracks
                    // transport health.
                    self.breaker_success(node_id);
                    if let Response::Error(e) = &response {
                        fail("remote_error");
                        return Err(FederationError::Remote(e.clone()));
                    }
                    return Ok(response);
                }
                Err(err) => {
                    debug_assert!(err.is_transport());
                    fail(if matches!(err, FederationError::Timeout(_)) {
                        "timeout"
                    } else {
                        "node_down"
                    });
                    self.breaker_failure(node_id);
                    // The request bytes crossed the wire even though no
                    // response came back; keep the accounting truthful.
                    log.requests += 1;
                    log.bytes_sent += request.wire_size();
                    reg.counter_with("nggc_fed_bytes_sent_total", &[("node", node_id)])
                        .add(request.wire_size() as u64);
                    if *retries >= retry_budget || !self.breaker_admit(node_id) {
                        return Err(err);
                    }
                    reg.counter_with("nggc_fed_retries_total", &[("node", node_id)]).inc();
                    std::thread::sleep(policy.backoff(node_id, *retries));
                    *retries += 1;
                }
            }
        }
    }

    /// Discover every node's datasets (metadata-only, cheap). Strict:
    /// the first unreachable node fails the whole discovery — use
    /// [`discover_degraded`](Federation::discover_degraded) to keep
    /// going with a partial inventory.
    pub fn discover(
        &self,
        log: &mut TransferLog,
    ) -> Result<Vec<(String, Vec<DatasetSummary>)>, FederationError> {
        let mut out = Vec::new();
        for id in self.node_ids().into_iter().map(str::to_owned).collect::<Vec<_>>() {
            match self.call(&id, Request::ListDatasets, log)? {
                Response::Datasets(ds) => out.push((id, ds)),
                other => return Err(FederationError::Protocol(format!("{other:?}"))),
            }
        }
        Ok(out)
    }

    /// Degraded-mode discovery: query every node, tolerate individual
    /// failures, and return whatever inventory was reachable together
    /// with a per-node [`NodeHealth`] report. The inventory covers
    /// exactly the nodes whose health status is not
    /// [`NodeStatus::Unavailable`].
    pub fn discover_degraded(
        &self,
        log: &mut TransferLog,
    ) -> (Vec<(String, Vec<DatasetSummary>)>, Vec<NodeHealth>) {
        let mut inventory = Vec::new();
        let mut health = Vec::new();
        for id in self.node_ids().into_iter().map(str::to_owned).collect::<Vec<_>>() {
            // This call's own retries: not another thread's calls to the
            // same node, and whether or not the registry is enabled.
            let mut retries = 0;
            let outcome =
                self.call_with_policy(&id, Request::ListDatasets, log, &self.policy, &mut retries);
            let report = |status, error| NodeHealth {
                node: id.clone(),
                status,
                breaker: self.breaker_state(&id),
                retries: retries as u64,
                error,
            };
            match outcome {
                Ok(Response::Datasets(ds)) => {
                    let status =
                        if retries > 0 { NodeStatus::Degraded } else { NodeStatus::Healthy };
                    health.push(report(status, None));
                    inventory.push((id, ds));
                }
                Ok(other) => health.push(report(
                    NodeStatus::Unavailable,
                    Some(format!("protocol violation: {other:?}")),
                )),
                Err(e) => health.push(report(NodeStatus::Unavailable, Some(e.to_string()))),
            }
        }
        (inventory, health)
    }

    /// Number of results currently staged on a node, via a `Status`
    /// exchange — lets clients verify that a failed conversation left no
    /// tickets behind.
    pub fn staged_results(&self, node_id: &str) -> Result<usize, FederationError> {
        let mut log = TransferLog::default();
        match self.call(node_id, Request::Status, &mut log)? {
            Response::Status { staged_results, .. } => Ok(staged_results),
            other => Err(FederationError::Protocol(format!("{other:?}"))),
        }
    }

    /// Compile remotely: correctness + schemas + size estimates, without
    /// moving any region data.
    pub fn compile_remote(
        &self,
        node_id: &str,
        query: &str,
        log: &mut TransferLog,
    ) -> Result<Vec<SizeEstimate>, FederationError> {
        match self.call(node_id, Request::Compile { query: query.to_owned() }, log)? {
            Response::Compiled { estimates, .. } => Ok(estimates),
            other => Err(FederationError::Protocol(format!("{other:?}"))),
        }
    }

    /// **Ship-query**: execute remotely, stream results back in chunks.
    pub fn ship_query(
        &self,
        node_id: &str,
        query: &str,
        chunk_bytes: usize,
    ) -> Result<(HashMap<String, Dataset>, TransferLog), FederationError> {
        let mut log = TransferLog::default();
        let outputs = self.ship_query_into(node_id, query, chunk_bytes, None, &mut log)?;
        Ok((outputs, log))
    }

    /// **Ship-query under a query governor**: every exchange's deadline
    /// (and retry/backoff spend) is clamped to the governor's remaining
    /// wall time via [`CallPolicy::clamped_to`], and cancellation is
    /// polled before every round trip — so a local `--timeout` or Ctrl-C
    /// bounds the whole federated conversation, not just local
    /// execution. An interrupted conversation still releases its staged
    /// ticket, under the federation's unclamped policy.
    pub fn ship_query_governed(
        &self,
        node_id: &str,
        query: &str,
        chunk_bytes: usize,
        governor: &QueryGovernor,
    ) -> Result<(HashMap<String, Dataset>, TransferLog), FederationError> {
        let mut log = TransferLog::default();
        let outputs =
            self.ship_query_into(node_id, query, chunk_bytes, Some(governor), &mut log)?;
        Ok((outputs, log))
    }

    /// The one ship-query conversation — Execute, fetch every chunk,
    /// always release, decode — accumulating into a caller-owned log so
    /// transfer accounting survives failures. Without a governor nothing
    /// is checked and the federation's policy applies as is. The staged
    /// ticket is **always** released, success or not, under the
    /// *unclamped* policy: cleanup is exempt from the query deadline
    /// (bounded by the base per-call deadline instead), and the node-side
    /// ticket TTL remains the backstop if even the release is lost.
    fn ship_query_into(
        &self,
        node_id: &str,
        query: &str,
        chunk_bytes: usize,
        governor: Option<&QueryGovernor>,
        log: &mut TransferLog,
    ) -> Result<HashMap<String, Dataset>, FederationError> {
        let check = || match governor {
            Some(g) => g
                .check(&format!("SHIP-QUERY {node_id}"))
                .map_err(|e| FederationError::Interrupted(e.to_string())),
            None => Ok(()),
        };
        let call = |request: Request, log: &mut TransferLog| {
            check()?;
            let policy = match governor.and_then(QueryGovernor::remaining) {
                Some(rem) => self.policy.clamped_to(rem),
                None => self.policy.clone(),
            };
            self.call_with_policy(node_id, request, log, &policy, &mut 0)
        };
        let (ticket, chunks) =
            match call(Request::Execute { query: query.to_owned(), chunk_bytes }, log)? {
                Response::Accepted { ticket, chunks, .. } => (ticket, chunks),
                other => return Err(FederationError::Protocol(format!("{other:?}"))),
            };
        let fetched: Result<Vec<u8>, FederationError> =
            (0..chunks).try_fold(Vec::new(), |mut payload, i| {
                match call(Request::FetchChunk { ticket, chunk: i }, log)? {
                    Response::Chunk { data, .. } => {
                        payload.extend(data);
                        Ok(payload)
                    }
                    other => Err(FederationError::Protocol(format!("{other:?}"))),
                }
            });
        let released = self.call(node_id, Request::Release { ticket }, log);
        let payload = fetched?;
        released?;
        // A deadline can fire after the last chunk arrived; surface it
        // rather than returning data the caller no longer wants.
        check()?;
        let decoded = decode_staged(&payload).map_err(FederationError::Protocol)?;
        Ok(decoded.into_iter().collect())
    }

    /// **Ship-query with user samples** (§4.3): upload a private local
    /// dataset to the node, run a query that may reference it, retrieve
    /// the results, and drop the upload — the node never lists it and
    /// holds it only for the duration of the conversation.
    pub fn ship_query_with_upload(
        &self,
        node_id: &str,
        upload: &Dataset,
        query: &str,
        chunk_bytes: usize,
    ) -> Result<(HashMap<String, Dataset>, TransferLog), FederationError> {
        let mut log = TransferLog::default();
        let data = serde_json::to_vec(upload)
            .map_err(|e| FederationError::Protocol(format!("serialising upload: {e}")))?;
        self.call(node_id, Request::Upload { name: upload.name.clone(), data }, &mut log)?;
        // Run the query straight into the shared log so the transfer
        // accounting of a *failed* query is still merged; always attempt
        // the drop, even on failure, so the privacy guarantee holds.
        let result = self.ship_query_into(node_id, query, chunk_bytes, None, &mut log);
        let dropped =
            self.call(node_id, Request::DropUpload { name: upload.name.clone() }, &mut log);
        let outputs = result?;
        dropped?;
        Ok((outputs, log))
    }

    /// **Ship-data**: fetch the named datasets wholesale, then run the
    /// query locally with `local_workers` threads.
    pub fn ship_data(
        &self,
        node_id: &str,
        datasets: &[&str],
        query: &str,
        local_workers: usize,
    ) -> Result<(HashMap<String, Dataset>, TransferLog), FederationError> {
        let mut log = TransferLog::default();
        let mut engine = GmqlEngine::with_workers(local_workers);
        for name in datasets {
            match self.call(
                node_id,
                Request::FetchDataset { name: (*name).to_owned() },
                &mut log,
            )? {
                Response::WholeDataset { data } => {
                    let ds: Dataset = serde_json::from_slice(&data).map_err(|e| {
                        FederationError::Protocol(format!("bad dataset payload: {e}"))
                    })?;
                    engine.register(ds);
                }
                other => return Err(FederationError::Protocol(format!("{other:?}"))),
            }
        }
        let outputs = engine.run(query).map_err(|e| FederationError::Remote(e.to_string()))?;
        Ok((outputs, log))
    }
}

/// Where each dataset of a distributed query lives and where it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributedPlan {
    /// The node chosen to execute the query.
    pub host: String,
    /// Datasets shipped to the host from other nodes: `(dataset, owner)`.
    pub shipped: Vec<(String, String)>,
}

/// Outcome of a degraded-mode distributed execution: the results, how
/// they were computed, what it cost, and which nodes (if any) were
/// unreachable while computing them.
#[derive(Debug)]
pub struct DegradedOutcome {
    /// Materialized outputs.
    pub outputs: HashMap<String, Dataset>,
    /// Placement decisions.
    pub plan: DistributedPlan,
    /// Combined transfer accounting, including failed exchanges.
    pub log: TransferLog,
    /// Per-node reachability observed during discovery.
    pub health: Vec<NodeHealth>,
}

impl DegradedOutcome {
    /// True when every federation node answered discovery first try.
    pub fn fully_healthy(&self) -> bool {
        self.health.iter().all(|h| h.status == NodeStatus::Healthy)
    }

    /// Nodes that could not be reached during the operation.
    pub fn unavailable_nodes(&self) -> Vec<&str> {
        self.health
            .iter()
            .filter(|h| h.status == NodeStatus::Unavailable)
            .map(|h| h.node.as_str())
            .collect()
    }
}

impl Federation {
    /// Execute a query whose source datasets may live on **different
    /// nodes** (§4.4 federated processing proper). Strategy: pick the
    /// node owning the largest share of referenced bytes as the host,
    /// move the (smaller) remaining datasets to it as private temporary
    /// uploads, execute there, retrieve results, and drop the uploads.
    ///
    /// Returns the outputs, the placement decisions, and the combined
    /// transfer log.
    pub fn execute_distributed(
        &self,
        query: &str,
        chunk_bytes: usize,
    ) -> Result<(HashMap<String, Dataset>, DistributedPlan, TransferLog), FederationError> {
        let outcome = self.execute_distributed_degraded(query, chunk_bytes)?;
        Ok((outcome.outputs, outcome.plan, outcome.log))
    }

    /// Degraded-mode federated execution: tolerate unreachable nodes as
    /// long as every dataset the query references is owned by a node
    /// that answered discovery. The returned [`DegradedOutcome`] carries
    /// the per-node [`NodeHealth`] report so callers can tell a
    /// full-strength answer from one computed while part of the
    /// federation was down.
    pub fn execute_distributed_degraded(
        &self,
        query: &str,
        chunk_bytes: usize,
    ) -> Result<DegradedOutcome, FederationError> {
        let mut log = TransferLog::default();
        // 1. Discover ownership and sizes from every reachable node.
        let (inventory, health) = self.discover_degraded(&mut log);
        if inventory.is_empty() {
            return Err(FederationError::Remote(format!(
                "no reachable nodes ({} unreachable)",
                health.len()
            )));
        }
        let mut location: HashMap<String, (String, usize)> = HashMap::new();
        for (node, datasets) in &inventory {
            for d in datasets {
                location.insert(d.name.clone(), (node.clone(), d.stats.bytes));
            }
        }
        // 2. Which datasets does the query reference? Ask each node to
        // compile until one accepts — cheaper: extract source names via
        // nggc-core's parser.
        let statements =
            nggc_core::parse(query).map_err(|e| FederationError::Remote(e.to_string()))?;
        let mut defined: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut sources: Vec<String> = Vec::new();
        for stmt in &statements {
            if let nggc_core::Statement::Assign { var, call } = stmt {
                let mut referenced: Vec<&String> = call.operands.iter().collect();
                if let nggc_core::Operator::Select { semijoin: Some(sj), .. } = &call.op {
                    referenced.push(&sj.external);
                }
                for op in referenced {
                    if !defined.contains(op) && !sources.contains(op) {
                        sources.push(op.clone());
                    }
                }
                defined.insert(var.clone());
            }
        }
        // 3. Validate availability and pick the host. An unowned source
        // may simply live on an unreachable node — say so.
        let mut per_node_bytes: HashMap<&str, usize> = HashMap::new();
        for src in &sources {
            let (node, bytes) = location.get(src).ok_or_else(|| {
                let down = health
                    .iter()
                    .filter(|h| h.status == NodeStatus::Unavailable)
                    .map(|h| h.node.as_str())
                    .collect::<Vec<_>>();
                if down.is_empty() {
                    FederationError::Remote(format!("no node owns {src:?}"))
                } else {
                    FederationError::Remote(format!(
                        "no reachable node owns {src:?} (unreachable: {down:?})"
                    ))
                }
            })?;
            *per_node_bytes.entry(node.as_str()).or_insert(0) += bytes;
        }
        // Deterministic placement: most referenced bytes first, node id
        // (lexicographic, ascending) as the tie-break — never the
        // iteration order of a HashMap or the length of a node name.
        let host = per_node_bytes
            .iter()
            .map(|(node, bytes)| (*bytes, *node))
            .max_by_key(|&(bytes, node)| (bytes, std::cmp::Reverse(node)))
            .map(|(_, node)| node.to_owned())
            .ok_or_else(|| FederationError::Remote("query references no datasets".into()))?;
        // 4. Ship foreign datasets to the host as temporary uploads. On
        // failure, best-effort drop whatever was already uploaded so a
        // half-shipped query doesn't strand private data on the host.
        let mut shipped = Vec::new();
        let ship_result: Result<(), FederationError> = sources.iter().try_for_each(|src| {
            let (owner, _) = &location[src];
            if owner == &host {
                return Ok(());
            }
            let data =
                match self.call(owner, Request::FetchDataset { name: src.clone() }, &mut log)? {
                    Response::WholeDataset { data } => data,
                    other => return Err(FederationError::Protocol(format!("{other:?}"))),
                };
            self.call(&host, Request::Upload { name: src.clone(), data }, &mut log)?;
            shipped.push((src.clone(), owner.clone()));
            Ok(())
        });
        // 5. Execute on the host (only if shipping succeeded) and always
        // drop the uploads.
        let result = ship_result
            .and_then(|()| self.ship_query_into(&host, query, chunk_bytes, None, &mut log));
        for (name, _) in &shipped {
            let _ = self.call(&host, Request::DropUpload { name: name.clone() }, &mut log);
        }
        let outputs = result?;
        Ok(DegradedOutcome { outputs, plan: DistributedPlan { host, shipped }, log, health })
    }
}

impl Default for Federation {
    fn default() -> Self {
        Federation::new()
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            // Closing the channel stops the node loop.
            let (tx, _) = unbounded();
            let old = std::mem::replace(&mut node.tx, tx);
            drop(old);
            if let Some(join) = node.join.take() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FederationNode;
    use nggc_gdm::{Attribute, GRegion, Metadata, Sample, Schema, Strand, ValueType};

    fn peaks(n_samples: usize, regions_per_sample: usize) -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("PEAKS", schema);
        for i in 0..n_samples {
            let regions = (0..regions_per_sample)
                .map(|j| {
                    GRegion::new(
                        "chr1",
                        (j * 1000) as u64,
                        (j * 1000 + 200) as u64,
                        Strand::Unstranded,
                    )
                    .with_values(vec![0.001.into()])
                })
                .collect();
            ds.add_sample(
                Sample::new(format!("s{i}"), "PEAKS").with_regions(regions).with_metadata(
                    Metadata::from_pairs([("cell", if i % 2 == 0 { "HeLa" } else { "K562" })]),
                ),
            )
            .unwrap();
        }
        ds
    }

    fn federation() -> Federation {
        let mut fed = Federation::new();
        let mut node = FederationNode::new("polimi", 2);
        node.own(peaks(6, 50));
        fed.add_node(node);
        fed
    }

    const QUERY: &str = "X = SELECT(cell == 'HeLa'; region: left < 5000) PEAKS; MATERIALIZE X;";

    #[test]
    fn discovery_lists_remote_datasets() {
        let fed = federation();
        let mut log = TransferLog::default();
        let found = fed.discover(&mut log).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1[0].name, "PEAKS");
        assert!(log.total() > 0);
    }

    #[test]
    fn ship_query_returns_results() {
        let fed = federation();
        let (out, log) = fed.ship_query("polimi", QUERY, 4096).unwrap();
        assert_eq!(out["X"].sample_count(), 3);
        assert_eq!(out["X"].samples[0].region_count(), 5);
        assert!(log.total() > 0);
    }

    #[test]
    fn ship_data_agrees_but_moves_more_bytes() {
        let fed = federation();
        let (q_out, q_log) = fed.ship_query("polimi", QUERY, 4096).unwrap();
        let (d_out, d_log) = fed.ship_data("polimi", &["PEAKS"], QUERY, 2).unwrap();
        assert_eq!(q_out["X"].sample_count(), d_out["X"].sample_count());
        assert_eq!(q_out["X"].region_count(), d_out["X"].region_count());
        assert!(
            d_log.bytes_received > q_log.bytes_received,
            "ship-data {} must exceed ship-query {}",
            d_log.bytes_received,
            q_log.bytes_received
        );
    }

    #[test]
    fn compile_remote_estimates_before_moving_data() {
        let fed = federation();
        let mut log = TransferLog::default();
        let est = fed.compile_remote("polimi", QUERY, &mut log).unwrap();
        assert_eq!(est[0].name, "X");
        assert!(est[0].bytes > 0);
        // Compilation exchanges only small messages.
        assert!(log.total() < 10_000, "compile moved {} bytes", log.total());
    }

    #[test]
    fn chunked_retrieval_with_tiny_chunks() {
        let fed = federation();
        let (out, log) = fed.ship_query("polimi", QUERY, 1024).unwrap();
        assert_eq!(out["X"].sample_count(), 3);
        assert!(log.requests > 3, "multiple chunk fetches: {}", log.requests);
    }

    fn annotations() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("annType", ValueType::Str)]).unwrap();
        let mut ds = Dataset::new("ANNOTATIONS", schema);
        ds.add_sample(Sample::new("ucsc", "ANNOTATIONS").with_regions(vec![
            GRegion::new("chr1", 0, 10_000, Strand::Unstranded)
                .with_values(vec!["promoter".into()]),
        ]))
        .unwrap();
        ds
    }

    #[test]
    fn distributed_query_spans_two_nodes() {
        // PEAKS lives on polimi (large), ANNOTATIONS on broad (small).
        let mut fed = Federation::new();
        let mut n1 = FederationNode::new("polimi", 2);
        n1.own(peaks(6, 60));
        fed.add_node(n1);
        let mut n2 = FederationNode::new("broad", 2);
        n2.own(annotations());
        fed.add_node(n2);

        const Q: &str = "
            PROMS = SELECT(region: annType == 'promoter') ANNOTATIONS;
            R = MAP(n AS COUNT) PROMS PEAKS;
            MATERIALIZE R;
        ";
        let (out, plan, log) = fed.execute_distributed(Q, 32 * 1024).unwrap();
        assert_eq!(plan.host, "polimi", "host = owner of the larger dataset");
        assert_eq!(plan.shipped, vec![("ANNOTATIONS".to_string(), "broad".to_string())]);
        assert_eq!(out["R"].sample_count(), 6);
        assert!(log.total() > 0);

        // Reference: both datasets local.
        let mut local = GmqlEngine::with_workers(2);
        local.register(peaks(6, 60));
        local.register(annotations());
        let expected = local.run(Q).unwrap();
        assert_eq!(out["R"].region_count(), expected["R"].region_count());

        // The shipped annotation upload was dropped from the host.
        assert!(matches!(
            fed.ship_query("polimi", "X = SELECT() ANNOTATIONS; MATERIALIZE X;", 4096),
            Err(FederationError::Remote(_))
        ));
    }

    #[test]
    fn distributed_query_errors_on_unknown_dataset() {
        let mut fed = Federation::new();
        let mut n1 = FederationNode::new("polimi", 1);
        n1.own(peaks(2, 5));
        fed.add_node(n1);
        assert!(matches!(
            fed.execute_distributed("R = SELECT() NOWHERE; MATERIALIZE R;", 4096),
            Err(FederationError::Remote(msg)) if msg.contains("NOWHERE")
        ));
    }

    #[test]
    fn user_upload_is_private_and_dropped() {
        let fed = federation();
        // A private user sample: one region overlapping the node's peaks.
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut mine = Dataset::new("MY_REGIONS", schema);
        mine.add_sample(Sample::new("user", "MY_REGIONS").with_regions(vec![
            GRegion::new("chr1", 0, 2_000, Strand::Unstranded).with_values(vec![0.5.into()]),
        ]))
        .unwrap();

        let (out, log) = fed
            .ship_query_with_upload(
                "polimi",
                &mine,
                "R = MAP(n AS COUNT) MY_REGIONS PEAKS; MATERIALIZE R;",
                8192,
            )
            .unwrap();
        assert_eq!(out["R"].sample_count(), 6, "one output per (user, peak-sample) pair");
        assert!(log.bytes_sent > 0);

        // The upload is gone: the same query now fails to compile, and it
        // never appeared in the public listing.
        assert!(matches!(
            fed.ship_query("polimi", "R = MAP(n AS COUNT) MY_REGIONS PEAKS; MATERIALIZE R;", 8192),
            Err(FederationError::Remote(_))
        ));
        let mut dlog = TransferLog::default();
        let listed = fed.discover(&mut dlog).unwrap();
        assert!(listed[0].1.iter().all(|d| d.name != "MY_REGIONS"));
    }

    #[test]
    fn upload_cannot_shadow_repository_dataset() {
        let fed = federation();
        let shadow = Dataset::new("PEAKS", Schema::empty());
        assert!(matches!(
            fed.ship_query_with_upload(
                "polimi",
                &shadow,
                "R = SELECT() PEAKS; MATERIALIZE R;",
                8192
            ),
            Err(FederationError::Remote(_))
        ));
    }

    #[test]
    fn staging_capacity_enforced() {
        let mut fed = Federation::new();
        let mut node = FederationNode::new("tiny", 1).with_staging_capacity(1);
        node.own(peaks(2, 5));
        fed.add_node(node);
        let mut log = TransferLog::default();
        // First Execute fills the single staging slot.
        let r1 = fed.call(
            "tiny",
            Request::Execute {
                query: "X = SELECT() PEAKS; MATERIALIZE X;".into(),
                chunk_bytes: 4096,
            },
            &mut log,
        );
        let ticket = match r1.unwrap() {
            Response::Accepted { ticket, .. } => ticket,
            other => panic!("{other:?}"),
        };
        // Second Execute is refused until the ticket is released.
        let r2 = fed.call(
            "tiny",
            Request::Execute {
                query: "X = SELECT() PEAKS; MATERIALIZE X;".into(),
                chunk_bytes: 4096,
            },
            &mut log,
        );
        assert!(matches!(r2, Err(FederationError::Remote(msg)) if msg.contains("staging full")));
        fed.call("tiny", Request::Release { ticket }, &mut log).unwrap();
        let r3 = fed.call(
            "tiny",
            Request::Execute {
                query: "X = SELECT() PEAKS; MATERIALIZE X;".into(),
                chunk_bytes: 4096,
            },
            &mut log,
        );
        assert!(matches!(r3, Ok(Response::Accepted { .. })));
    }

    #[test]
    fn equal_sized_nodes_host_tie_breaks_lexicographically() {
        // Two nodes with byte-identical datasets (same-length names, same
        // regions): placement must not depend on insertion order, HashMap
        // iteration order, or node-name length.
        let equal_ds = |name: &str| {
            let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
            let mut ds = Dataset::new(name, schema);
            ds.add_sample(Sample::new("s", name).with_regions(vec![
                GRegion::new("chr1", 0, 100, Strand::Unstranded).with_values(vec![0.5.into()]),
            ]))
            .unwrap();
            ds
        };
        const Q: &str = "R = MAP(n AS COUNT) AAA BBB; MATERIALIZE R;";
        for order in [["zeta", "alpha"], ["alpha", "zeta"]] {
            let mut fed = Federation::new();
            let mut first = FederationNode::new(order[0], 1);
            first.own(equal_ds(if order[0] == "zeta" { "AAA" } else { "BBB" }));
            fed.add_node(first);
            let mut second = FederationNode::new(order[1], 1);
            second.own(equal_ds(if order[1] == "zeta" { "AAA" } else { "BBB" }));
            fed.add_node(second);
            let (_, plan, _) = fed.execute_distributed(Q, 4096).unwrap();
            assert_eq!(
                plan.host, "alpha",
                "tie on bytes must resolve to the lexicographically first node (order {order:?})"
            );
        }
    }

    /// The metrics registry's enabled flag is process-global: the test
    /// that switches it holds this lock, as does every other test here
    /// that checks a degraded discovery's health report.
    fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn a_retried_node_is_degraded_with_the_registry_off() {
        let _guard = registry_lock();
        let mut fed = Federation::with_policy(CallPolicy {
            deadline: std::time::Duration::from_millis(30),
            max_retries: 2,
            ..CallPolicy::default()
        });
        let mut node = FederationNode::new("flaky", 1);
        node.own(peaks(1, 4));
        fed.add_node(crate::ChaosNode::new(node, crate::ChaosConfig::flaky(1)));
        nggc_obs::global().set_enabled(false);
        let (inventory, health) = fed.discover_degraded(&mut TransferLog::default());
        nggc_obs::global().set_enabled(true);
        assert_eq!(inventory.len(), 1, "the retry recovered");
        assert_eq!(health[0].retries, 1, "{health:?}");
        assert_eq!(health[0].status, NodeStatus::Degraded);
    }

    #[test]
    fn degraded_outcome_reports_full_health_when_all_nodes_up() {
        let _guard = registry_lock();
        let mut fed = Federation::new();
        let mut n1 = FederationNode::new("polimi", 2);
        n1.own(peaks(4, 20));
        fed.add_node(n1);
        let outcome = fed.execute_distributed_degraded(QUERY, 4096).unwrap();
        assert!(outcome.fully_healthy());
        assert!(outcome.unavailable_nodes().is_empty());
        assert_eq!(outcome.health.len(), 1);
        assert_eq!(outcome.health[0].breaker, crate::BreakerState::Closed);
        assert_eq!(outcome.outputs["X"].sample_count(), 2);
        // No staged tickets left behind.
        assert_eq!(fed.staged_results("polimi").unwrap(), 0);
    }

    #[test]
    fn status_roundtrip_reports_staging() {
        let fed = federation();
        assert_eq!(fed.staged_results("polimi").unwrap(), 0);
        let mut log = TransferLog::default();
        let ticket = match fed
            .call("polimi", Request::Execute { query: QUERY.into(), chunk_bytes: 4096 }, &mut log)
            .unwrap()
        {
            Response::Accepted { ticket, .. } => ticket,
            other => panic!("{other:?}"),
        };
        assert_eq!(fed.staged_results("polimi").unwrap(), 1);
        fed.call("polimi", Request::Release { ticket }, &mut log).unwrap();
        assert_eq!(fed.staged_results("polimi").unwrap(), 0);
    }

    #[test]
    fn errors_propagate() {
        let fed = federation();
        assert!(matches!(
            fed.ship_query("nowhere", QUERY, 1024),
            Err(FederationError::UnknownNode(_))
        ));
        assert!(matches!(
            fed.ship_query("polimi", "X = SELECT(a == 1) NOPE;", 1024),
            Err(FederationError::Remote(_))
        ));
    }
}
