//! The serve wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a 4-byte big-endian length followed by that many bytes
//! of JSON — the same framing discipline as the federation transport,
//! kept deliberately simple so any language with a socket and a JSON
//! parser can speak it. One request frame yields exactly one reply
//! frame; requests on one connection are served in order.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Upper bound on a single frame, to keep a garbled or hostile length
/// prefix from provoking an unbounded allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// One client → server request.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum ClientRequest {
    /// Run a GMQL query. Per-request limits are carved out of the
    /// server-wide budgets; `None` inherits the server defaults.
    Query {
        /// GMQL source text.
        text: String,
        /// Wall-clock deadline for this query, in milliseconds.
        timeout_ms: Option<u64>,
        /// Memory budget for this query's governed intermediates, in
        /// bytes. Reserved from the server-wide memory pool.
        max_memory: Option<u64>,
        /// Number of region rows to return per materialised output
        /// (0 = summaries only).
        head: usize,
        /// Bypass the server's query result cache: neither serve from
        /// it nor populate it. Older clients omit the field (defaults
        /// to `false`).
        #[serde(default)]
        no_cache: bool,
    },
    /// Liveness probe; the reply reports current admission state, which
    /// also makes server saturation observable to tests and clients.
    Ping,
    /// Server-level counters snapshot.
    Stats,
}

/// One server → client reply.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum ServerReply {
    /// A query completed.
    Result {
        /// Trace id assigned to this request (correlates with server
        /// logs and flight-recorder dumps).
        trace_id: u64,
        /// Server-side execution wall time, microseconds.
        elapsed_us: u64,
        /// One summary per materialised output, in name order.
        outputs: Vec<OutputSummary>,
        /// Whether the result came from the server's query result
        /// cache (hit or coalesced wait) rather than a fresh execution.
        #[serde(default)]
        cached: bool,
    },
    /// A query failed; `kind` is machine-readable.
    Error {
        /// What went wrong.
        kind: ServeErrorKind,
        /// Human-readable detail.
        message: String,
        /// For capacity rejections: when it is worth trying again,
        /// in milliseconds.
        retry_after_ms: Option<u64>,
    },
    /// Reply to [`ClientRequest::Ping`].
    Pong {
        /// Queries currently executing.
        inflight: u64,
        /// Queries currently waiting in the admission queue.
        queued: u64,
    },
    /// Reply to [`ClientRequest::Stats`].
    Stats(ServeStats),
}

/// Machine-readable failure classes, mirroring the engine's typed
/// errors plus the server-side capacity outcomes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// GMQL text failed to parse.
    Parse,
    /// The query compiled or executed with a non-resource error.
    Runtime,
    /// The query was cancelled (client or server shutdown).
    Cancelled,
    /// The per-query wall-clock deadline fired.
    DeadlineExceeded,
    /// The per-query memory budget rejected an allocation.
    MemoryExhausted,
    /// Admission control: in-flight cap and queue are both full.
    /// `retry_after_ms` is set.
    Rejected,
    /// The server-wide memory pool could not cover the requested
    /// budget. `retry_after_ms` is set.
    PoolExhausted,
    /// The server is draining and accepts no new queries.
    ShuttingDown,
    /// The request itself was malformed.
    BadRequest,
    /// The reply (even with head rows truncated) would exceed
    /// [`MAX_FRAME_BYTES`]; retry with a smaller `head`.
    ResponseTooLarge,
}

/// Per-output result summary (region data stays server-side except for
/// the requested `head` rows).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct OutputSummary {
    /// Materialised variable name.
    pub name: String,
    /// Samples in the output dataset.
    pub samples: usize,
    /// Regions across all samples.
    pub regions: usize,
    /// Up to `head` rendered region rows
    /// (`sample<TAB>chr<TAB>start<TAB>stop<TAB>strand<TAB>values`).
    pub head: Vec<String>,
}

/// Server counters snapshot returned by [`ClientRequest::Stats`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ServeStats {
    /// Queries currently executing.
    pub inflight: u64,
    /// Queries waiting in the admission queue.
    pub queued: u64,
    /// Query requests accepted since the server started.
    pub requests: u64,
    /// Query requests rejected by admission or the memory pool.
    pub rejected: u64,
    /// Bytes currently reserved from the server memory pool.
    pub mem_reserved: u64,
    /// Server memory pool capacity, bytes.
    pub mem_capacity: u64,
    /// Result-cache hits since the server started (0 when disabled).
    #[serde(default)]
    pub result_cache_hits: u64,
    /// Result-cache misses (fresh executions) since start.
    #[serde(default)]
    pub result_cache_misses: u64,
    /// Requests that waited on a concurrent identical execution and
    /// shared its result.
    #[serde(default)]
    pub result_cache_coalesced: u64,
    /// Entries evicted under byte/budget pressure.
    #[serde(default)]
    pub result_cache_evictions: u64,
    /// Entries invalidated by a source-dataset generation change.
    #[serde(default)]
    pub result_cache_invalidations: u64,
    /// Entries currently resident.
    #[serde(default)]
    pub result_cache_entries: u64,
    /// Encoded bytes currently resident.
    #[serde(default)]
    pub result_cache_bytes: u64,
    /// Configured result-cache capacity, bytes (0 = disabled).
    #[serde(default)]
    pub result_cache_capacity: u64,
    /// Regions SELECT evaluated a region predicate on since the server
    /// started (`nggc_select_regions_scanned_total`): on a resident
    /// dataset, what the predicate's windows hold, not the dataset.
    #[serde(default)]
    pub select_regions_scanned: u64,
}

/// Outcome of one timed read attempt (see [`read_frame_timed`]).
pub enum FrameRead {
    /// A whole frame arrived.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly.
    Eof,
    /// The read timed out before the first byte of a frame — the
    /// connection is idle (mid-frame timeouts keep waiting instead, so
    /// a slow writer never desyncs the stream).
    Idle,
}

/// Serialize `value` into a complete frame (length prefix + JSON body),
/// or `Err(FrameTooLarge)` with the offending body size when it exceeds
/// [`MAX_FRAME_BYTES`]. Encoding separately from writing lets the
/// server turn an oversized reply into a typed in-band error instead of
/// tearing down the connection mid-exchange.
pub fn encode_frame<T: Serialize>(value: &T) -> Result<Vec<u8>, FrameTooLarge> {
    let body = serde_json::to_vec(value)
        .map_err(|e| FrameTooLarge { bytes: 0, serde_error: Some(e.to_string()) })?;
    if body.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(FrameTooLarge { bytes: body.len() as u64, serde_error: None });
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    Ok(frame)
}

/// Why [`encode_frame`] refused to produce a frame.
#[derive(Debug)]
pub struct FrameTooLarge {
    /// Serialized body size that exceeded the cap (0 when the failure
    /// was a serialization error rather than size).
    pub bytes: u64,
    /// Set when serialization itself failed.
    pub serde_error: Option<String>,
}

/// Serialize `value` as one frame onto `w`.
pub fn write_frame<T: Serialize>(w: &mut impl Write, value: &T) -> io::Result<()> {
    let frame = encode_frame(value).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            e.serde_error.unwrap_or_else(|| {
                format!("frame of {} bytes exceeds cap {MAX_FRAME_BYTES}", e.bytes)
            }),
        )
    })?;
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame, treating a timeout before the first byte as
/// [`FrameRead::Idle`]. Intended for sockets with a read timeout set:
/// the serve loop polls for shutdown between idle reads.
pub fn read_frame_timed(r: &mut impl Read) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(FrameRead::Eof)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => got += n,
            Err(e) if timed_out(&e) => {
                if got == 0 {
                    return Ok(FrameRead::Idle);
                }
                // Mid-prefix: keep waiting so we never desync.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < body.len() {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if timed_out(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(body))
}

/// Blocking read of one frame; `None` on clean EOF. For clients, whose
/// sockets have no read timeout.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    match read_frame_timed(r)? {
        FrameRead::Frame(f) => Ok(Some(f)),
        FrameRead::Eof => Ok(None),
        FrameRead::Idle => unreachable!("no read timeout set on this stream"),
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let req = ClientRequest::Query {
            text: "MATERIALIZE R;".into(),
            timeout_ms: Some(5_000),
            max_memory: None,
            head: 3,
            no_cache: false,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        assert_eq!(buf.len(), 4 + u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize);
        let mut cursor = io::Cursor::new(buf);
        let body = read_frame(&mut cursor).unwrap().unwrap();
        let back: ClientRequest = serde_json::from_slice(&body).unwrap();
        assert_eq!(back, req);
        // EOF after the frame.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn pre_cache_requests_default_to_cached_queries() {
        // A frame from a client built before `no_cache` existed must
        // still parse (and opt into the cache).
        let old =
            r#"{"Query":{"text":"MATERIALIZE R;","timeout_ms":null,"max_memory":null,"head":0}}"#;
        let back: ClientRequest = serde_json::from_str(old).unwrap();
        assert!(matches!(back, ClientRequest::Query { no_cache: false, .. }));
    }

    #[test]
    fn encode_frame_reports_oversize_instead_of_writing() {
        let huge = ServerReply::Result {
            trace_id: 1,
            elapsed_us: 1,
            outputs: vec![OutputSummary {
                name: "R".into(),
                samples: 1,
                regions: 1,
                head: vec!["x".repeat(MAX_FRAME_BYTES as usize + 16)],
            }],
            cached: false,
        };
        let err = encode_frame(&huge).unwrap_err();
        assert!(err.serde_error.is_none());
        assert!(err.bytes as u32 > MAX_FRAME_BYTES);
        // write_frame surfaces the same condition as an io error.
        let mut sink = Vec::new();
        assert_eq!(write_frame(&mut sink, &huge).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing is written for an oversized frame");
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        buf.extend_from_slice(b"garbage");
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"only a few bytes");
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
