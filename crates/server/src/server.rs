//! The serve loop: accept connections, admit queries, execute them on
//! one shared engine, reply with typed results.
//!
//! One [`Server`] owns one [`Session`] — a shared [`Repository`] (so
//! concurrent clients hit the same `Arc<Dataset>` cache and single-flight
//! cold loads) and one [`ExecContext`] worker pool. Each connection gets a
//! thread; each `Query` request runs through [`Session::run`] under its
//! own trace id, with serve's three choices: the in-memory
//! [`ResultCache`] as its tier, the [`Admission`] gate and a governor
//! budget carved out of the server [`MemoryPool`] as admission on a miss,
//! and the `active` table for its cancel token. Shutdown stops accepting,
//! refuses new queries, drains in-flight ones, and cancels stragglers
//! through their `CancelToken`s after a grace period.

use crate::admission::{Admission, AdmissionPermit, AdmitError, MemoryPool, MemoryReservation};
use crate::flight::FlightRecorder;
use crate::protocol::{
    encode_frame, read_frame_timed, ClientRequest, FrameRead, FrameTooLarge, OutputSummary,
    ServeErrorKind, ServeStats, ServerReply, MAX_FRAME_BYTES,
};
use crate::session::{QueryReport, Request, RunError, Session, Tier};
use nggc_core::result_cache::QueryOutputs;
use nggc_core::{CacheBudget, CacheOutcome, GmqlError, GovernorLimits, ResultCache};
use nggc_engine::{CancelToken, ExecContext};
use nggc_repository::Repository;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// How the serve loop paces its non-blocking accept poll.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Grace period after the drain timeout for cancelled queries to
/// unwind cooperatively.
const CANCEL_GRACE: Duration = Duration::from_secs(5);

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the shared execution pool.
    pub workers: usize,
    /// Queries allowed to execute concurrently.
    pub max_inflight: u64,
    /// Queries allowed to wait for a slot before rejection kicks in.
    pub max_queue: u64,
    /// Server-wide memory pool from which per-query governor budgets
    /// are carved.
    pub mem_pool_bytes: u64,
    /// Deadline applied to queries that do not request their own.
    pub default_timeout: Option<Duration>,
    /// Back-off hint attached to capacity rejections.
    pub retry_after: Duration,
    /// How long shutdown waits for in-flight queries before cancelling
    /// them.
    pub drain_timeout: Duration,
    /// The slow-query flight recorder, when armed
    /// ([`FlightRecorder::from_env`] for the CLI's environment variables).
    pub flight: Option<FlightRecorder>,
    /// Byte budget of the query result cache (0 disables it). Cached
    /// bytes are reserved lazily from the memory pool and yielded back
    /// (by evicting entries) whenever queries need the headroom.
    pub result_cache_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            max_inflight: 8,
            max_queue: 16,
            mem_pool_bytes: 1 << 30,
            default_timeout: None,
            retry_after: Duration::from_millis(100),
            drain_timeout: Duration::from_secs(10),
            flight: None,
            result_cache_bytes: 128 << 20,
        }
    }
}

impl ServeConfig {
    /// The governor budget carved for a query that did not request one:
    /// an even share of the pool across the in-flight cap, so a full
    /// server of default queries exactly exhausts the pool.
    pub fn default_query_budget(&self) -> u64 {
        (self.mem_pool_bytes / self.max_inflight.max(1)).max(1)
    }
}

/// Shared server state: one per [`Server`], referenced by every
/// connection thread and by [`ServerHandle`]s.
pub struct ServerShared {
    session: Session,
    admission: Admission,
    mem_pool: Arc<MemoryPool>,
    /// Plan-keyed result cache shared by every connection; `None` when
    /// disabled ([`ServeConfig::result_cache_bytes`] = 0).
    result_cache: Option<ResultCache>,
    config: ServeConfig,
    shutdown: AtomicBool,
    /// Cancel tokens of currently executing queries, for
    /// shutdown-after-drain-timeout cancellation.
    active: Mutex<HashMap<u64, CancelToken>>,
    next_request: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
}

/// Control handle for a running server: trigger shutdown, observe
/// admission state. Cheap to clone.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<ServerShared>,
}

impl ServerHandle {
    /// Begin graceful shutdown: stop accepting connections, refuse new
    /// queries, release queued waiters. In-flight queries keep running
    /// until they finish or the drain timeout cancels them.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.admission.begin_shutdown();
    }

    /// The admission gate (tests and maintenance tooling can pin
    /// capacity through [`Admission::try_admit`]).
    pub fn admission(&self) -> &Admission {
        &self.shared.admission
    }

    /// The server memory pool.
    pub fn memory_pool(&self) -> &MemoryPool {
        &self.shared.mem_pool
    }

    /// The query result cache, when enabled.
    pub fn result_cache(&self) -> Option<&ResultCache> {
        self.shared.result_cache.as_ref()
    }
}

/// [`CacheBudget`] adapter: cache bytes are carved from the server-wide
/// memory pool with the raw (non-RAII) reservation API, so cached
/// results and running queries compete for the same budget.
struct PoolBudget {
    pool: Arc<MemoryPool>,
}

impl CacheBudget for PoolBudget {
    fn reserve(&self, bytes: u64) -> bool {
        self.pool.reserve_raw(bytes)
    }
    fn release(&self, bytes: u64) {
        self.pool.release_raw(bytes);
    }
}

/// A bound, not-yet-running query server. Call [`Server::run`] to
/// serve; it returns after a [`ServerHandle::shutdown`] completes its
/// drain.
pub struct Server {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and prepare shared state.
    pub fn bind(addr: &str, repo: Repository, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // One span sink serves every request; a request's flight record
        // keeps the spans of its own trace.
        let flight = config.flight.clone().map(|recorder| {
            let spans = Arc::new(nggc_obs::MemorySubscriber::default());
            nggc_obs::add_subscriber(spans.clone());
            (recorder, spans)
        });
        let mem_pool = Arc::new(MemoryPool::new(config.mem_pool_bytes));
        let result_cache = (config.result_cache_bytes > 0).then(|| {
            ResultCache::with_budget(
                // The cache can never hold more than the pool anyway.
                config.result_cache_bytes.min(config.mem_pool_bytes),
                Arc::new(PoolBudget { pool: Arc::clone(&mem_pool) }),
            )
        });
        let ctx = ExecContext::with_workers(config.workers);
        let shared = Arc::new(ServerShared {
            session: Session::new(repo, ctx, "serve.request", flight),
            admission: Admission::new(config.max_inflight, config.max_queue, config.retry_after),
            mem_pool,
            result_cache,
            config,
            shutdown: AtomicBool::new(false),
            active: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serve until shutdown, then drain and return. In-flight queries
    /// get [`ServeConfig::drain_timeout`] to finish; stragglers are
    /// cancelled through their governor tokens and given a further
    /// grace period before the method returns anyway.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    nggc_obs::global().counter("nggc_serve_connections_total").inc();
                    let shared = Arc::clone(&self.shared);
                    let handle = std::thread::Builder::new()
                        .name("nggc-serve-conn".into())
                        .spawn(move || handle_connection(stream, shared))
                        .expect("failed to spawn connection thread");
                    conns.push(handle);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            conns.retain(|h| !h.is_finished());
        }
        // Drain: admission already refuses new work (the shutdown
        // trigger flipped it); wait for in-flight queries, then cancel
        // whatever is still running.
        self.shared.admission.begin_shutdown();
        if !self.shared.admission.await_drain(self.shared.config.drain_timeout) {
            let active = self.shared.active.lock().unwrap_or_else(|p| p.into_inner());
            for token in active.values() {
                token.cancel();
            }
            drop(active);
            self.shared.admission.await_drain(CANCEL_GRACE);
        }
        // Connection threads notice shutdown within one read poll.
        for h in conns {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Serve one connection: a request/reply loop that exits on EOF, IO
/// error, or shutdown.
fn handle_connection(stream: TcpStream, shared: Arc<ServerShared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let frame = match read_frame_timed(&mut reader) {
            Ok(FrameRead::Frame(f)) => f,
            Ok(FrameRead::Eof) | Err(_) => return,
            Ok(FrameRead::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        let reply = match serde_json::from_slice::<ClientRequest>(&frame) {
            Ok(ClientRequest::Query { text, timeout_ms, max_memory, head, no_cache }) => {
                run_query(&shared, &text, timeout_ms, max_memory, head, no_cache)
            }
            Ok(ClientRequest::Ping) => ServerReply::Pong {
                inflight: shared.admission.inflight(),
                queued: shared.admission.queued(),
            }
            .into(),
            Ok(ClientRequest::Stats) => {
                let cache = shared.result_cache.as_ref();
                let cs = cache.map(|c| c.stats()).unwrap_or_default();
                ServerReply::Stats(ServeStats {
                    inflight: shared.admission.inflight(),
                    queued: shared.admission.queued(),
                    requests: shared.requests.load(Ordering::Relaxed),
                    rejected: shared.rejected.load(Ordering::Relaxed),
                    mem_reserved: shared.mem_pool.reserved(),
                    mem_capacity: shared.mem_pool.capacity(),
                    result_cache_hits: cs.hits,
                    result_cache_misses: cs.misses,
                    result_cache_coalesced: cs.coalesced,
                    result_cache_evictions: cs.evictions,
                    result_cache_invalidations: cs.invalidations,
                    result_cache_entries: cs.entries,
                    result_cache_bytes: cs.bytes,
                    result_cache_capacity: cache.map(|c| c.capacity_bytes()).unwrap_or(0),
                    select_regions_scanned: nggc_obs::global()
                        .counter("nggc_select_regions_scanned_total")
                        .get(),
                })
                .into()
            }
            Err(e) => ServerReply::Error {
                kind: ServeErrorKind::BadRequest,
                message: format!("malformed request: {e}"),
                retry_after_ms: None,
            }
            .into(),
        };
        if send_reply(&mut writer, reply).is_err() {
            return;
        }
    }
}

/// One reply, encoded as its frame. A reply that outgrows
/// [`MAX_FRAME_BYTES`] — a `Result` whose head rows do — is a typed
/// in-band [`ServeErrorKind::ResponseTooLarge`] instead, with the head
/// rows truncated away, so the client keeps a live socket and a real
/// diagnosis rather than a torn-down connection mid-exchange.
struct Frame(io::Result<Vec<u8>>);

impl From<ServerReply> for Frame {
    fn from(reply: ServerReply) -> Frame {
        Frame(encode_frame(&reply).or_else(|too_large| {
            let detail = match &reply {
                ServerReply::Result { outputs, .. } => {
                    head_rows_omitted(outputs.len(), outputs.iter().map(|o| o.regions).sum())
                }
                _ => "reply omitted".to_owned(),
            };
            response_too_large(too_large, &detail)
        }))
    }
}

fn head_rows_omitted(outputs: usize, regions: usize) -> String {
    format!("{outputs} outputs totalling {regions} regions (head rows omitted)")
}

/// The frame of the [`ServeErrorKind::ResponseTooLarge`] error a reply
/// that outgrew the frame cap degrades into; `detail` says what was
/// left out.
fn response_too_large(too_large: FrameTooLarge, detail: &str) -> io::Result<Vec<u8>> {
    nggc_obs::global().counter("nggc_serve_oversized_replies_total").inc();
    let fallback = ServerReply::Error {
        kind: ServeErrorKind::ResponseTooLarge,
        message: format!(
            "reply of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap; {detail} — \
             retry with a smaller head",
            too_large.bytes
        ),
        retry_after_ms: None,
    };
    encode_frame(&fallback)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "fallback reply oversized"))
}

/// Write one reply frame.
fn send_reply(writer: &mut (impl io::Write + ?Sized), reply: impl Into<Frame>) -> io::Result<()> {
    let frame = reply.into().0?;
    writer.write_all(&frame)?;
    writer.flush()
}

/// One query request: a draining server refuses it before the cache
/// gets a say; otherwise it runs through the session and its outcome
/// becomes the reply. Hits and coalesced waits never reach admission or
/// the memory pool — the whole point of the cache.
fn run_query(
    shared: &ServerShared,
    text: &str,
    timeout_ms: Option<u64>,
    max_memory: Option<u64>,
    head: usize,
    no_cache: bool,
) -> Frame {
    let reg = nggc_obs::global();
    reg.counter("nggc_serve_requests_total").inc();
    shared.requests.fetch_add(1, Ordering::Relaxed);
    if shared.admission.is_shutting_down() {
        return reject(shared, ServeErrorKind::ShuttingDown, "server is draining".into()).into();
    }

    let t0 = Instant::now();
    let _trace = nggc_obs::TraceContext::new().enter();
    let cache = shared.result_cache.as_ref().filter(|_| !no_cache);
    let tier = cache.map_or(Tier::None, Tier::Memory);
    let request = Request {
        text,
        tier,
        admit: || admit(shared, timeout_ms, max_memory),
        register: |token| ActiveGuard::register(shared, token),
    };
    let reply = match shared.session.run(request) {
        Ok(report) => query_reply(&report, head, cache),
        Err(RunError::Parse(e)) => error_reply(ServeErrorKind::Parse, &e).into(),
        Err(RunError::Compile(e)) => error_reply(ServeErrorKind::Runtime, &e).into(),
        Err(RunError::Refused(reply)) => reply.into(),
    };
    reg.histogram("nggc_serve_request_ns").record_duration(t0.elapsed());
    reply
}

fn error_reply(kind: ServeErrorKind, e: &GmqlError) -> ServerReply {
    ServerReply::Error { kind, message: e.to_string(), retry_after_ms: None }
}

/// Typed reject: counts, stamps a load-scaled back-off hint on the
/// kinds a client should retry, and builds the error reply.
fn reject(shared: &ServerShared, kind: ServeErrorKind, message: String) -> ServerReply {
    nggc_obs::global().counter("nggc_serve_rejected_total").inc();
    shared.rejected.fetch_add(1, Ordering::Relaxed);
    let retry = matches!(kind, ServeErrorKind::Rejected | ServeErrorKind::PoolExhausted)
        .then(|| shared.admission.retry_after().as_millis() as u64);
    ServerReply::Error { kind, message, retry_after_ms: retry }
}

/// Serve's admission on a miss: the concurrency gate, then the memory
/// gate (with the result cache yielding bytes back to the pool under
/// pressure). The governor limits come back with the permit and the
/// reservation, held until the execution ends; a refusal is a
/// ready-to-send reply.
fn admit(
    shared: &ServerShared,
    timeout_ms: Option<u64>,
    max_memory: Option<u64>,
) -> Result<(Option<GovernorLimits>, (AdmissionPermit<'_>, MemoryReservation<'_>)), ServerReply> {
    // Gate 1: concurrency.
    let permit = match shared.admission.admit() {
        Ok(p) => p,
        Err(AdmitError::QueueFull) => {
            return Err(reject(
                shared,
                ServeErrorKind::Rejected,
                "server at capacity: in-flight cap and queue are full".into(),
            ));
        }
        Err(AdmitError::ShuttingDown) => {
            return Err(reject(shared, ServeErrorKind::ShuttingDown, "server is draining".into()));
        }
    };

    // Gate 2: memory. Every query gets a budget carved from the server
    // pool — its own request, or an even share of the pool. Queries
    // outrank cached results: on pressure the cache is shrunk by the
    // missing amount and the reservation retried once.
    let budget = max_memory.unwrap_or_else(|| shared.config.default_query_budget());
    let reservation = shared.mem_pool.reserve(budget).or_else(|| {
        let cache = shared.result_cache.as_ref()?;
        (cache.shrink(budget) > 0).then(|| shared.mem_pool.reserve(budget)).flatten()
    });
    let Some(reservation) = reservation else {
        return Err(reject(
            shared,
            ServeErrorKind::PoolExhausted,
            format!(
                "memory pool exhausted: {budget} B requested, {} of {} B reserved",
                shared.mem_pool.reserved(),
                shared.mem_pool.capacity()
            ),
        ));
    };
    let timeout = timeout_ms.map(Duration::from_millis).or(shared.config.default_timeout);
    Ok((Some(GovernorLimits { timeout, max_memory: Some(budget) }), (permit, reservation)))
}

/// The reply to a query that reached the result tier: its typed error,
/// or a `Result` with outputs sorted by name and head rows bounded by the
/// request, where anything not executed for this request is `cached`.
///
/// Every `Result` frame is made here: byte for byte what [`encode_frame`]
/// makes of [`ServerReply::Result`], written around its `outputs` array
/// (serde's encoding of the [`OutputSummary`] list). A hit or a coalesced
/// wait through `cache` takes that array from the cache entry when the
/// entry still holds these very outputs rendered for `head`. Otherwise
/// the array is rendered here, outside the cache lock, and a request
/// through `cache` hands it to the entry to keep (docs/serving.md, "What
/// a cache hit sends"). A rendering whose reply outgrows the frame cap
/// is not kept.
fn query_reply(report: &QueryReport, head: usize, cache: Option<&ResultCache>) -> Frame {
    let outputs = match &report.outputs {
        Ok(outputs) => outputs,
        Err(error) => {
            let kind = match error {
                GmqlError::DeadlineExceeded { .. } => ServeErrorKind::DeadlineExceeded,
                GmqlError::Cancelled { .. } => ServeErrorKind::Cancelled,
                GmqlError::MemoryExhausted { .. } => ServeErrorKind::MemoryExhausted,
                _ => ServeErrorKind::Runtime,
            };
            return error_reply(kind, error).into();
        }
    };
    let cached = report.outcome != CacheOutcome::Miss;
    let envelope = |array: &[u8]| {
        result_frame(report.trace_id, report.elapsed.as_micros() as u64, array, cached)
    };
    let reg = nggc_obs::global();
    let key = report.fingerprint;
    // A miss's outputs are new: no entry holds a rendering of them yet.
    let kept = cache.filter(|_| cached).and_then(|cache| cache.rendering(key, outputs, head));
    let frame = match kept {
        Some(array) => {
            reg.counter("nggc_serve_replies_reused_total").inc();
            envelope(&array)
        }
        None => {
            reg.counter("nggc_serve_replies_rendered_total").inc();
            render(outputs, head).and_then(|array| {
                let frame = envelope(&array)?;
                if let Some(cache) = cache {
                    cache.attach_rendering(key, outputs, head, array.into());
                }
                Ok(frame)
            })
        }
    };
    Frame(frame.or_else(|too_large| {
        let regions = outputs.values().map(|ds| ds.region_count()).sum();
        response_too_large(too_large, &head_rows_omitted(outputs.len(), regions))
    }))
}

/// The `outputs` array of a `Result` reply: one [`OutputSummary`] per
/// output in name order, each with up to `head` rows, as serde encodes
/// the list.
fn render(outputs: &QueryOutputs, head: usize) -> Result<Vec<u8>, FrameTooLarge> {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let summaries: Vec<OutputSummary> = (names.into_iter())
        .map(|name| {
            let ds = &outputs[name];
            let rows = (ds.samples.iter())
                .flat_map(|s| s.regions.each_row().map(move |r| format!("{}\t{r}", s.name)))
                .take(head)
                .collect();
            OutputSummary {
                name: name.clone(),
                samples: ds.sample_count(),
                regions: ds.region_count(),
                head: rows,
            }
        })
        .collect();
    serde_json::to_vec(&summaries)
        .map_err(|e| FrameTooLarge { bytes: 0, serde_error: Some(e.to_string()) })
}

/// The frame of a [`ServerReply::Result`] whose `outputs` array is
/// already encoded: serde's envelope for the variant, written by hand
/// around `outputs`, or `FrameTooLarge` past [`MAX_FRAME_BYTES`] as
/// [`encode_frame`] would say.
fn result_frame(
    trace_id: u64,
    elapsed_us: u64,
    outputs: &[u8],
    cached: bool,
) -> Result<Vec<u8>, FrameTooLarge> {
    let open =
        format!(r#"{{"Result":{{"trace_id":{trace_id},"elapsed_us":{elapsed_us},"outputs":"#);
    let close = if cached { r#","cached":true}}"# } else { r#","cached":false}}"# };
    let body = (open.len() + outputs.len() + close.len()) as u64;
    if body > MAX_FRAME_BYTES as u64 {
        return Err(FrameTooLarge { bytes: body, serde_error: None });
    }
    let mut frame = Vec::with_capacity(4 + body as usize);
    frame.extend_from_slice(&(body as u32).to_be_bytes());
    frame.extend_from_slice(open.as_bytes());
    frame.extend_from_slice(outputs);
    frame.extend_from_slice(close.as_bytes());
    Ok(frame)
}

/// Removes this request's cancel token from the active table when the
/// request ends, however it ends.
struct ActiveGuard<'a> {
    shared: &'a ServerShared,
    request_id: u64,
}

impl<'a> ActiveGuard<'a> {
    /// Serve's cancel-token registration: in the active table, for
    /// shutdown-after-drain-timeout cancellation, while executing.
    fn register(shared: &'a ServerShared, token: CancelToken) -> ActiveGuard<'a> {
        let request_id = shared.next_request.fetch_add(1, Ordering::Relaxed);
        shared.active.lock().unwrap_or_else(|p| p.into_inner()).insert(request_id, token);
        ActiveGuard { shared, request_id }
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.shared.active.lock().unwrap_or_else(|p| p.into_inner()).remove(&self.request_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use nggc_core::{parse, LogicalPlan, OptimizerReport};
    use nggc_gdm::{Attribute, Dataset, GRegion, Sample, Schema, Strand, Value, ValueType};
    use std::convert::Infallible;

    #[test]
    fn oversized_reply_degrades_to_typed_error_on_a_live_connection() {
        // A Result whose head rows outgrow the frame cap must reach the
        // client as a well-formed ResponseTooLarge error frame — not
        // tear down the socket mid-exchange.
        let huge = ServerReply::Result {
            trace_id: 7,
            elapsed_us: 1,
            outputs: vec![crate::protocol::OutputSummary {
                name: "R".into(),
                samples: 3,
                regions: 9,
                head: vec!["x".repeat(MAX_FRAME_BYTES as usize + 1)],
            }],
            cached: false,
        };
        let mut wire = Vec::new();
        send_reply(&mut wire, huge).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let body = read_frame(&mut cursor).unwrap().unwrap();
        match serde_json::from_slice::<ServerReply>(&body).unwrap() {
            ServerReply::Error { kind, message, retry_after_ms } => {
                assert_eq!(kind, ServeErrorKind::ResponseTooLarge);
                assert!(message.contains("smaller head"), "actionable hint: {message}");
                assert!(message.contains("9 regions"), "summary survives: {message}");
                assert_eq!(retry_after_ms, None);
            }
            other => panic!("expected ResponseTooLarge, got {other:?}"),
        }
        // Nothing left on the wire: exactly one frame was written.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// An output named `name` whose cells are what JSON has to escape or
    /// cannot spell: quotes, backslashes, TABs, control and non-ASCII
    /// characters, NaN and infinities; two samples of three regions.
    fn tricky(name: &str) -> Dataset {
        let schema = Schema::new(vec![
            Attribute::new("label", ValueType::Str),
            Attribute::new("score", ValueType::Float),
        ])
        .unwrap();
        let mut ds = Dataset::new(name, schema);
        let labels = ["say \"hi\"", "back\\slash\tand tab", "bell\u{1} é 中 🧬"];
        let scores = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for sample in ["s\"1", "s2 é"] {
            let regions = (0..3)
                .map(|i| {
                    GRegion::new("chr1", i * 100, i * 100 + 50, Strand::Neg).with_values(vec![
                        Value::Str(labels[i as usize].into()),
                        Value::Float(scores[i as usize]),
                    ])
                })
                .collect();
            ds.add_sample(Sample::new(sample, name).with_regions(regions)).unwrap();
        }
        ds
    }

    /// A report of `outputs`, executed for this request or (`cached`)
    /// answered by the result tier.
    fn report(outputs: Arc<QueryOutputs>, cached: bool, trace_id: u64) -> QueryReport {
        let statements = parse("X = SELECT() D; MATERIALIZE X;").unwrap();
        let plan = LogicalPlan::compile(&statements, &|_| Some(Schema::empty())).unwrap();
        QueryReport {
            outputs: Ok(outputs),
            plan: Arc::new(plan),
            optimizer: OptimizerReport::default(),
            planning: crate::Planning::Prepared,
            fingerprint: 42,
            metrics: Vec::new(),
            elapsed: Duration::from_micros(trace_id.wrapping_mul(37)),
            trace_id,
            outcome: if cached { CacheOutcome::Hit } else { CacheOutcome::Miss },
            charged_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// The summaries a `Result` reply carries, spelled out: outputs in
    /// name order; a row is the sample name, one TAB, then the region as
    /// `GRegion` displays it.
    fn summaries(outputs: &QueryOutputs, head: usize) -> Vec<OutputSummary> {
        let mut names: Vec<&String> = outputs.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let ds = &outputs[name];
                let mut rows = Vec::new();
                for sample in &ds.samples {
                    for region in sample.regions.iter() {
                        rows.push(format!("{}\t{region}", sample.name));
                    }
                }
                rows.truncate(head);
                OutputSummary {
                    name: name.clone(),
                    samples: ds.sample_count(),
                    regions: ds.region_count(),
                    head: rows,
                }
            })
            .collect()
    }

    fn frame(reply: Frame) -> Vec<u8> {
        reply.0.expect("a frame")
    }

    #[test]
    fn result_frames_are_byte_for_byte_what_serde_makes_of_the_reply() {
        let names = ["Zeta", "alpha", "Mid"];
        for n in [0, 1, 3] {
            let outputs: Arc<QueryOutputs> =
                Arc::new(names[..n].iter().map(|&name| (name.to_owned(), tricky(name))).collect());
            for head in [0, 2, 1000] {
                for cached in [false, true] {
                    let trace_id = [7, u64::MAX, 0][n % 3];
                    let report = report(Arc::clone(&outputs), cached, trace_id);
                    let want = encode_frame(&ServerReply::Result {
                        trace_id,
                        elapsed_us: report.elapsed.as_micros() as u64,
                        outputs: summaries(&outputs, head),
                        cached,
                    })
                    .unwrap();
                    let case = format!("{n} outputs, head {head}, cached {cached}");
                    assert_eq!(frame(query_reply(&report, head, None)), want, "{case}");
                    // Through a cache: rendered and kept, then reused.
                    let cache = ResultCache::new(1 << 20);
                    cache.insert(report.fingerprint, Vec::new(), Arc::clone(&outputs));
                    for _ in 0..2 {
                        let got = frame(query_reply(&report, head, Some(&cache)));
                        assert_eq!(got, want, "{case}, through a cache");
                    }
                    assert!(
                        cache.rendering(report.fingerprint, &outputs, head).is_some(),
                        "{case}"
                    );
                }
            }
        }
    }

    /// The rows of a `Result` frame, and whether it was `cached`.
    fn rows(frame: Vec<u8>) -> (Vec<Vec<String>>, bool) {
        let body = read_frame(&mut std::io::Cursor::new(frame)).unwrap().unwrap();
        match serde_json::from_slice::<ServerReply>(&body).unwrap() {
            ServerReply::Result { outputs, cached, .. } => {
                (outputs.into_iter().map(|o| o.head).collect(), cached)
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn a_save_between_requests_replies_with_the_new_rows_not_the_kept_rendering() {
        let root = std::env::temp_dir().join(format!("nggc_server_resave_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut repo = Repository::open(&root).unwrap();
        repo.save(&tricky("D")).unwrap();
        let mut session = Session::new(repo, ExecContext::with_workers(1), "test", None);
        let cache = ResultCache::new(1 << 20);
        let text = "R = SELECT() D; MATERIALIZE R;";
        let ask = |session: &Session, head: usize| {
            let request = Request {
                text,
                tier: Tier::Memory(&cache),
                admit: || Ok::<_, Infallible>((None, ())),
                register: |_| (),
            };
            let report = session.run(request).unwrap();
            let want = summaries(report.outputs.as_ref().unwrap(), head);
            let (got, cached) = rows(frame(query_reply(&report, head, Some(&cache))));
            assert_eq!(got, want.into_iter().map(|o| o.head).collect::<Vec<_>>());
            (got, cached)
        };
        // The miss renders and keeps; the hit reuses.
        let (before, cached) = ask(&session, 2);
        assert!(!cached);
        let kept_bytes = cache.stats().bytes;
        assert_eq!(ask(&session, 2), (before.clone(), true));
        // Another head replaces the rendering, re-charged; and back.
        assert_eq!(ask(&session, 5).0[0].len(), 5);
        assert!(cache.stats().bytes > kept_bytes, "five rows are charged more than two");
        assert_eq!(ask(&session, 2), (before.clone(), true));
        assert_eq!(cache.stats().bytes, kept_bytes);

        // D is saved again with other rows: the entry and the rendering
        // it kept are stale, and the next reply has the new rows.
        let mut moved = tricky("D");
        for sample in &mut moved.samples {
            let shifted: Vec<GRegion> = (sample.regions.iter())
                .map(|r| GRegion { left: r.left + 5, ..r.clone() })
                .collect();
            sample.regions = shifted.into();
        }
        session.repo.save(&moved).unwrap();
        let (after, cached) = ask(&session, 2);
        assert!(!cached, "the save invalidated the entry");
        assert_ne!(after, before);
        assert!(after[0][0].contains("chr1:5-50(-)"), "{after:?}");
        assert_eq!(ask(&session, 2), (after.clone(), true));
        assert_eq!(ask(&session, 2), (after, true));
        std::fs::remove_dir_all(&root).ok();
    }
}
