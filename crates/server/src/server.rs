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
    encode_frame, read_frame_timed, write_frame, ClientRequest, FrameRead, OutputSummary,
    ServeErrorKind, ServeStats, ServerReply, MAX_FRAME_BYTES,
};
use crate::session::{QueryReport, Request, RunError, Session, Tier};
use nggc_core::{CacheBudget, GmqlError, GovernorLimits, ResultCache};
use nggc_engine::{CancelToken, ExecContext};
use nggc_gdm::Dataset;
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
                let reply = run_query(&shared, &text, timeout_ms, max_memory, head, no_cache);
                if send_reply(&mut writer, reply).is_err() {
                    return;
                }
                continue;
            }
            Ok(ClientRequest::Ping) => ServerReply::Pong {
                inflight: shared.admission.inflight(),
                queued: shared.admission.queued(),
            },
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
            }
            Err(e) => ServerReply::Error {
                kind: ServeErrorKind::BadRequest,
                message: format!("malformed request: {e}"),
                retry_after_ms: None,
            },
        };
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
    }
}

/// Write one reply frame. An oversized reply — a `Result` whose head
/// rows outgrow [`MAX_FRAME_BYTES`] — degrades into a typed in-band
/// [`ServeErrorKind::ResponseTooLarge`] with the head rows truncated
/// away, so the client keeps a live socket and a real diagnosis instead
/// of a torn-down connection mid-exchange.
fn send_reply(writer: &mut (impl io::Write + ?Sized), reply: ServerReply) -> io::Result<()> {
    let frame = match encode_frame(&reply) {
        Ok(f) => f,
        Err(too_large) => {
            nggc_obs::global().counter("nggc_serve_oversized_replies_total").inc();
            let detail = match &reply {
                ServerReply::Result { outputs, .. } => {
                    let regions: usize = outputs.iter().map(|o| o.regions).sum();
                    format!(
                        "{} outputs totalling {} regions (head rows omitted)",
                        outputs.len(),
                        regions
                    )
                }
                _ => "reply omitted".to_owned(),
            };
            let fallback = ServerReply::Error {
                kind: ServeErrorKind::ResponseTooLarge,
                message: format!(
                    "reply of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap; {detail} — \
                     retry with a smaller head",
                    too_large.bytes
                ),
                retry_after_ms: None,
            };
            encode_frame(&fallback).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "fallback reply oversized")
            })?
        }
    };
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
) -> ServerReply {
    let reg = nggc_obs::global();
    reg.counter("nggc_serve_requests_total").inc();
    shared.requests.fetch_add(1, Ordering::Relaxed);
    if shared.admission.is_shutting_down() {
        return reject(shared, ServeErrorKind::ShuttingDown, "server is draining".into());
    }

    let t0 = Instant::now();
    let _trace = nggc_obs::TraceContext::new().enter();
    let tier = match &shared.result_cache {
        Some(cache) if !no_cache => Tier::Memory(cache),
        _ => Tier::None,
    };
    let request = Request {
        text,
        tier,
        admit: || admit(shared, timeout_ms, max_memory),
        register: |token| ActiveGuard::register(shared, token),
    };
    let reply = match shared.session.run(request) {
        Ok(report) => query_reply(&report, head),
        Err(RunError::Parse(e)) => error_reply(ServeErrorKind::Parse, &e),
        Err(RunError::Compile(e)) => error_reply(ServeErrorKind::Runtime, &e),
        Err(RunError::Refused(reply)) => reply,
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
fn query_reply(report: &QueryReport, head: usize) -> ServerReply {
    let outputs = match &report.outputs {
        Ok(outputs) => outputs,
        Err(error) => {
            let kind = match error {
                GmqlError::DeadlineExceeded { .. } => ServeErrorKind::DeadlineExceeded,
                GmqlError::Cancelled { .. } => ServeErrorKind::Cancelled,
                GmqlError::MemoryExhausted { .. } => ServeErrorKind::MemoryExhausted,
                _ => ServeErrorKind::Runtime,
            };
            return error_reply(kind, error);
        }
    };
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    ServerReply::Result {
        trace_id: report.trace_id,
        elapsed_us: report.elapsed.as_micros() as u64,
        outputs: names.iter().map(|n| summarize(n, &outputs[*n], head)).collect(),
        cached: report.outcome != nggc_core::CacheOutcome::Miss,
    }
}

fn summarize(name: &str, ds: &Dataset, head: usize) -> OutputSummary {
    let mut rows = Vec::new();
    'outer: for s in &ds.samples {
        for r in s.regions.iter() {
            if rows.len() >= head {
                break 'outer;
            }
            rows.push(format!("{}\t{r}", s.name));
        }
    }
    OutputSummary {
        name: name.to_owned(),
        samples: ds.sample_count(),
        regions: ds.region_count(),
        head: rows,
    }
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
}
