//! The federation wire protocol.
//!
//! §4.4 sketches "simple interaction protocols, typically for: requesting
//! information about remote datasets ...; transmitting a query in
//! high-level format and obtain[ing] data about its compilation, not only
//! limited to correctness, but including also estimates of the data sizes
//! of results; launching query execution and then controlling the
//! transmission of results, so as to be in control of staging resources
//! and of communication load." The three message families below map to
//! those three bullets; results stream back in fixed-size chunks the
//! client pulls at its own pace.
//!
//! A message is a JSON header; a dataset follows it as a v2 container
//! (`encode_dataset_v2`), 8-byte length first, and is not part of it.

use nggc_gdm::{DatasetStats, Schema};
use serde::{Deserialize, Serialize};

/// A request from a coordinator to a federation node.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum Request {
    /// List the datasets the node owns.
    ListDatasets,
    /// Detailed information about one dataset.
    DatasetInfo {
        /// Dataset name.
        name: String,
    },
    /// Compile a GMQL query: correctness + schemas + size estimates.
    Compile {
        /// GMQL query text.
        query: String,
    },
    /// Execute a GMQL query; the node stages results for chunked
    /// retrieval and returns a ticket.
    Execute {
        /// GMQL query text.
        query: String,
        /// Preferred chunk size in bytes.
        chunk_bytes: usize,
    },
    /// Pull one chunk of a staged result.
    FetchChunk {
        /// Ticket from [`Response::Accepted`].
        ticket: u64,
        /// Chunk index (0-based).
        chunk: usize,
    },
    /// Fetch a whole dataset (the ship-data anti-pattern E7 measures).
    FetchDataset {
        /// Dataset name.
        name: String,
    },
    /// Release a staged result.
    Release {
        /// Ticket to release.
        ticket: u64,
    },
    /// Upload a user dataset for use in subsequent queries. §4.3: "It
    /// will be possible to provide user input samples to the services,
    /// whose privacy will be protected" — uploads are marked temporary
    /// and dropped on request (or when the node is shut down), and they
    /// never appear in ListDatasets.
    Upload {
        /// Temporary dataset name (queries reference it directly).
        name: String,
        /// The dataset as a v2 container.
        #[serde(skip)]
        data: Vec<u8>,
    },
    /// Drop a previously uploaded user dataset.
    DropUpload {
        /// The temporary name.
        name: String,
    },
    /// Ask the node how many results it holds staged and how many user
    /// uploads are live — the observability hook degraded-mode clients
    /// use to verify no tickets leaked after a failed conversation.
    Status,
}

/// Summary of one remote dataset.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Region schema (enough to formalise queries, §4.4).
    pub schema: Schema,
    /// Cardinality statistics.
    pub stats: DatasetStats,
}

/// Estimated output size returned by Compile.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct SizeEstimate {
    /// Output name.
    pub name: String,
    /// Estimated samples.
    pub samples: usize,
    /// Estimated regions.
    pub regions: usize,
    /// Estimated size in the engine's encoded-size model, not the length
    /// of the container that would carry the output.
    pub bytes: usize,
}

/// A response from a node.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum Response {
    /// Answer to ListDatasets.
    Datasets(Vec<DatasetSummary>),
    /// Answer to DatasetInfo.
    Info(DatasetSummary),
    /// Answer to Compile.
    Compiled {
        /// `(output name, schema)` for each MATERIALIZE.
        outputs: Vec<(String, Schema)>,
        /// Size estimates per output.
        estimates: Vec<SizeEstimate>,
    },
    /// Answer to Execute: results are staged.
    Accepted {
        /// Retrieval ticket.
        ticket: u64,
        /// Output names staged under the ticket.
        outputs: Vec<String>,
        /// Number of chunks to fetch.
        chunks: usize,
        /// Total staged bytes.
        total_bytes: usize,
    },
    /// One chunk of a staged result.
    Chunk {
        /// The ticket.
        ticket: u64,
        /// Chunk index.
        index: usize,
        /// A byte range of the staged payload.
        #[serde(skip)]
        data: Vec<u8>,
        /// True when this is the final chunk.
        last: bool,
    },
    /// A whole dataset (ship-data path).
    WholeDataset {
        /// The dataset as a v2 container.
        #[serde(skip)]
        data: Vec<u8>,
    },
    /// Answer to Status.
    Status {
        /// Results currently staged for chunked retrieval.
        staged_results: usize,
        /// Live (not yet dropped) user uploads.
        uploads: usize,
    },
    /// Acknowledgement (Release).
    Ok,
    /// An error.
    Error(String),
}

/// Bytes a message takes on the wire: its JSON header, then a payload's
/// 8-byte length and the payload.
fn framed_size(header: &impl Serialize, payload: Option<&Vec<u8>>) -> usize {
    serde_json::to_vec(header).map_or(0, |v| v.len()) + payload.map_or(0, |d| 8 + d.len())
}

impl Request {
    /// Size of the message on the wire, for transfer accounting.
    pub fn wire_size(&self) -> usize {
        framed_size(self, if let Request::Upload { data, .. } = self { Some(data) } else { None })
    }

    /// Variant name, used as the `kind` label of federation metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::ListDatasets => "ListDatasets",
            Request::DatasetInfo { .. } => "DatasetInfo",
            Request::Compile { .. } => "Compile",
            Request::Execute { .. } => "Execute",
            Request::FetchChunk { .. } => "FetchChunk",
            Request::FetchDataset { .. } => "FetchDataset",
            Request::Release { .. } => "Release",
            Request::Upload { .. } => "Upload",
            Request::DropUpload { .. } => "DropUpload",
            Request::Status => "Status",
        }
    }

    /// Whether replaying the request after a lost response is safe.
    ///
    /// Read-only exchanges (listings, compilation, chunk and dataset
    /// fetches) can repeat without changing node state, so the retry
    /// machinery in [`Federation::call`](crate::Federation::call) may
    /// replay them. `Execute` stages a fresh ticket per send, `Upload`
    /// re-registers, and `Release`/`DropUpload` fail on the second
    /// delivery — none of those are retried automatically.
    pub fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Request::ListDatasets
                | Request::DatasetInfo { .. }
                | Request::Compile { .. }
                | Request::FetchChunk { .. }
                | Request::FetchDataset { .. }
                | Request::Status
        )
    }
}

impl Response {
    /// Size of the message on the wire, for transfer accounting.
    pub fn wire_size(&self) -> usize {
        let (Response::Chunk { data, .. } | Response::WholeDataset { data }) = self else {
            return framed_size(self, None);
        };
        framed_size(self, Some(data))
    }
}

/// Trace context attached to a request so the node records its spans
/// under the coordinator's trace (`nggc-obs` stays dependency-free, so
/// the serde mirror lives here).
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct TraceHeader {
    /// The coordinator's trace id.
    pub trace_id: u64,
    /// The coordinator-side span (`fed.call`) the node's spans are
    /// parented under.
    pub parent_span: u64,
}

/// A finished span serialized for shipping back to the coordinator,
/// piggybacked on the response.
///
/// Durations travel as integer nanoseconds; span ids are process-global
/// on both sides, and since the in-process harness shares one id
/// counter they never collide at stitch time.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct WireSpan {
    /// Span id.
    pub id: u64,
    /// Parent span id (possibly a coordinator-side span).
    pub parent: Option<u64>,
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// Span name.
    pub name: String,
    /// Start offset from the recording process's trace epoch, in ns.
    pub start_ns: u64,
    /// Wall time in ns.
    pub wall_ns: u64,
    /// `key=value` fields.
    pub fields: Vec<(String, String)>,
}

impl From<&nggc_obs::SpanRecord> for WireSpan {
    fn from(rec: &nggc_obs::SpanRecord) -> WireSpan {
        WireSpan {
            id: rec.id,
            parent: rec.parent,
            trace_id: rec.trace_id,
            name: rec.name.clone(),
            start_ns: rec.start.as_nanos() as u64,
            wall_ns: rec.wall.as_nanos() as u64,
            fields: rec.fields.clone(),
        }
    }
}

impl WireSpan {
    /// Convert back into a [`nggc_obs::SpanRecord`] for re-injection on
    /// the coordinator side.
    pub fn into_record(self) -> nggc_obs::SpanRecord {
        nggc_obs::SpanRecord {
            id: self.id,
            parent: self.parent,
            trace_id: self.trace_id,
            name: self.name,
            start: std::time::Duration::from_nanos(self.start_ns),
            wall: std::time::Duration::from_nanos(self.wall_ns),
            fields: self.fields,
        }
    }
}

/// Bidirectional transfer accounting for one conversation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferLog {
    /// Messages sent (requests).
    pub requests: usize,
    /// Bytes sent to the node.
    pub bytes_sent: usize,
    /// Bytes received from the node.
    pub bytes_received: usize,
}

impl TransferLog {
    /// Record one request and its reply (`received` = 0: none came back).
    pub fn record(&mut self, sent: usize, received: usize) {
        self.requests += 1;
        self.bytes_sent += sent;
        self.bytes_received += received;
    }

    /// Total bytes moved in either direction.
    pub fn total(&self) -> usize {
        self.bytes_sent + self.bytes_received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_positive_and_roundtrip() {
        let req = Request::Compile { query: "X = SELECT(a == 1) D;".into() };
        assert!(req.wire_size() > 10);
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn wire_span_roundtrips_through_record() {
        let rec = nggc_obs::SpanRecord {
            id: 9,
            parent: Some(4),
            trace_id: 77,
            name: "exec.node".into(),
            start: std::time::Duration::from_micros(12),
            wall: std::time::Duration::from_micros(340),
            fields: vec![("op".into(), "MAP".into())],
        };
        let wire = WireSpan::from(&rec);
        let json = serde_json::to_string(&wire).unwrap();
        let back: WireSpan = serde_json::from_str(&json).unwrap();
        let rec2 = back.into_record();
        assert_eq!(rec2.id, rec.id);
        assert_eq!(rec2.parent, rec.parent);
        assert_eq!(rec2.trace_id, rec.trace_id);
        assert_eq!(rec2.name, rec.name);
        assert_eq!(rec2.start, rec.start);
        assert_eq!(rec2.wall, rec.wall);
        assert_eq!(rec2.fields, rec.fields);
    }

    #[test]
    fn transfer_log_accumulates() {
        let mut log = TransferLog::default();
        let req = Request::ListDatasets;
        let resp = Response::Ok;
        log.record(req.wire_size(), resp.wire_size());
        log.record(req.wire_size(), resp.wire_size());
        assert_eq!(log.requests, 2);
        assert_eq!(log.total(), 2 * (req.wire_size() + resp.wire_size()));

        // A payload counts at its length, after the header and its
        // 8-byte length prefix.
        let chunk = Response::Chunk { ticket: 7, index: 0, data: vec![0xAB; 1000], last: true };
        let header = serde_json::to_vec(&chunk).unwrap().len();
        assert!(header < 100, "the payload is not part of the {header}-byte header");
        assert_eq!(chunk.wire_size(), header + 8 + 1000);
        let before = log.bytes_received;
        log.record(0, chunk.wire_size());
        assert_eq!(log.bytes_received - before, header + 8 + 1000);
        assert_eq!(log.requests, 3);
    }
}
