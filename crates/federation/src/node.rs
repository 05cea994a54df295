//! A federation node: owns datasets, answers protocol requests.
//!
//! "Each data repository will be the owner of the data that are locally
//! produced ... queries move from a requesting node to a remote node, are
//! locally executed, and results are communicated back" (§4.4). A node
//! wraps a [`GmqlEngine`] over its local datasets, compiles and executes
//! incoming GMQL text, and stages its results as v2 containers for
//! chunked retrieval so the requester stays "in control of staging
//! resources and of communication load".

use crate::protocol::{DatasetSummary, Request, Response, SizeEstimate};
use nggc_core::GmqlEngine;
use nggc_gdm::Dataset;
use nggc_repository::{decode_dataset_v2, encode_dataset_v2, encode_outputs};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Anything that can serve federation protocol requests on a node
/// thread. [`FederationNode`] is the real implementation;
/// [`ChaosNode`](crate::ChaosNode) wraps one to inject faults.
pub trait NodeService: Send {
    /// Node identifier.
    fn id(&self) -> &str;

    /// Serve one request. `None` models a lost response: the caller gets
    /// no reply and its deadline fires.
    fn serve(&mut self, request: &Request) -> Option<Response>;
}

/// One federated node.
pub struct FederationNode {
    /// Node identifier.
    pub id: String,
    engine: GmqlEngine,
    datasets: Vec<(String, nggc_gdm::DatasetStats)>,
    staged: HashMap<u64, StagedResult>,
    next_ticket: u64,
    /// Temporary user uploads (private: never listed, dropped on request).
    uploads: Vec<String>,
    /// Maximum concurrently staged results ("control of staging
    /// resources", §4.4).
    max_staged: usize,
    /// Backstop against clients that vanish mid-conversation: staged
    /// results older than this are reaped on the next request.
    ticket_ttl: Duration,
}

struct StagedResult {
    chunks: Vec<Vec<u8>>,
    created: Instant,
}

impl FederationNode {
    /// Create a node with `workers` local threads and the default
    /// staging capacity (8 concurrent results).
    pub fn new(id: impl Into<String>, workers: usize) -> FederationNode {
        FederationNode {
            id: id.into(),
            engine: GmqlEngine::with_workers(workers),
            datasets: Vec::new(),
            staged: HashMap::new(),
            next_ticket: 1,
            uploads: Vec::new(),
            max_staged: 8,
            ticket_ttl: Duration::from_secs(600),
        }
    }

    /// Override the staging capacity.
    pub fn with_staging_capacity(mut self, max_staged: usize) -> FederationNode {
        self.max_staged = max_staged.max(1);
        self
    }

    /// Override the staged-ticket time-to-live (default 10 minutes).
    pub fn with_ticket_ttl(mut self, ttl: Duration) -> FederationNode {
        self.ticket_ttl = ttl;
        self
    }

    /// Reap staged results whose ticket outlived
    /// [`ticket_ttl`](Self::with_ticket_ttl) — the backstop for clients
    /// that timed out (or crashed) between `Execute` and `Release`.
    fn expire_stale_tickets(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let ttl = self.ticket_ttl;
        let before = self.staged.len();
        self.staged.retain(|_, s| s.created.elapsed() < ttl);
        let expired = before - self.staged.len();
        if expired > 0 {
            nggc_obs::global()
                .counter_with("nggc_fed_tickets_expired_total", &[("node", &self.id)])
                .add(expired as u64);
        }
    }

    /// Make the node own a dataset.
    pub fn own(&mut self, dataset: Dataset) {
        self.datasets.push((dataset.name.clone(), dataset.stats()));
        self.engine.register(dataset);
    }

    /// Names of owned datasets.
    pub fn owned(&self) -> Vec<&str> {
        self.datasets.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Handle one protocol request.
    pub fn handle(&mut self, request: &Request) -> Response {
        self.expire_stale_tickets();
        match request {
            Request::ListDatasets => Response::Datasets(
                self.datasets
                    .iter()
                    .map(|(name, stats)| DatasetSummary {
                        name: name.clone(),
                        schema: self
                            .engine
                            .dataset(name)
                            .map(|d| d.schema.clone())
                            .unwrap_or_default(),
                        stats: *stats,
                    })
                    .collect(),
            ),
            Request::DatasetInfo { name } => match self.engine.dataset(name) {
                Some(d) => Response::Info(DatasetSummary {
                    name: name.clone(),
                    schema: d.schema.clone(),
                    stats: d.stats(),
                }),
                None => Response::Error(format!("unknown dataset {name:?}")),
            },
            Request::Compile { query } => {
                let plan = match self.engine.compile(query) {
                    Ok(p) => p,
                    Err(e) => return Response::Error(e.to_string()),
                };
                let outputs = plan
                    .outputs
                    .iter()
                    .map(|(name, id)| (name.clone(), plan.nodes[*id].schema.clone()))
                    .collect();
                let estimates = match self.engine.estimate(query) {
                    Ok(est) => est
                        .outputs
                        .into_iter()
                        .map(|o| SizeEstimate {
                            name: o.name,
                            samples: o.samples,
                            regions: o.regions,
                            bytes: o.bytes,
                        })
                        .collect(),
                    Err(e) => return Response::Error(e.to_string()),
                };
                Response::Compiled { outputs, estimates }
            }
            Request::Execute { query, chunk_bytes } => {
                if self.staged.len() >= self.max_staged {
                    return Response::Error(format!(
                        "staging full ({} results held); release a ticket first",
                        self.staged.len()
                    ));
                }
                let results = match self.engine.run(query) {
                    Ok(r) => r,
                    Err(e) => return Response::Error(e.to_string()),
                };
                let payload = match encode_outputs(&results) {
                    Ok(bytes) => bytes,
                    Err(e) => return Response::Error(e.to_string()),
                };
                let mut outputs: Vec<String> = results.into_keys().collect();
                outputs.sort();
                let chunk_bytes = (*chunk_bytes).max(1024);
                let chunks: Vec<Vec<u8>> =
                    payload.chunks(chunk_bytes).map(|c| c.to_vec()).collect();
                let total_bytes = payload.len();
                let n_chunks = chunks.len().max(1);
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                self.staged.insert(
                    ticket,
                    StagedResult {
                        chunks: if chunks.is_empty() { vec![Vec::new()] } else { chunks },
                        created: Instant::now(),
                    },
                );
                Response::Accepted { ticket, outputs, chunks: n_chunks, total_bytes }
            }
            Request::FetchChunk { ticket, chunk } => match self.staged.get(ticket) {
                Some(staged) => match staged.chunks.get(*chunk) {
                    Some(data) => Response::Chunk {
                        ticket: *ticket,
                        index: *chunk,
                        data: data.clone(),
                        last: *chunk + 1 == staged.chunks.len(),
                    },
                    None => Response::Error(format!("chunk {chunk} out of range")),
                },
                None => Response::Error(format!("unknown ticket {ticket}")),
            },
            Request::FetchDataset { name } => match self.engine.dataset(name) {
                Some(d) => match encode_dataset_v2(d) {
                    Ok(data) => Response::WholeDataset { data },
                    Err(e) => Response::Error(e.to_string()),
                },
                None => Response::Error(format!("unknown dataset {name:?}")),
            },
            Request::Release { ticket } => {
                if self.staged.remove(ticket).is_some() {
                    Response::Ok
                } else {
                    Response::Error(format!("unknown ticket {ticket}"))
                }
            }
            Request::Upload { name, data } => {
                if self.datasets.iter().any(|(n, _)| n == name) {
                    return Response::Error(format!("{name:?} collides with a repository dataset"));
                }
                match decode_dataset_v2(data) {
                    Ok(mut ds) => {
                        ds.name = name.clone();
                        if !self.uploads.contains(name) {
                            self.uploads.push(name.clone());
                        }
                        self.engine.register(ds);
                        Response::Ok
                    }
                    Err(e) => Response::Error(format!("bad upload payload: {e}")),
                }
            }
            Request::DropUpload { name } => {
                if let Some(pos) = self.uploads.iter().position(|n| n == name) {
                    self.uploads.remove(pos);
                    self.engine.unregister(name);
                    Response::Ok
                } else {
                    Response::Error(format!("no upload named {name:?}"))
                }
            }
            Request::Status => {
                Response::Status { staged_results: self.staged.len(), uploads: self.uploads.len() }
            }
        }
    }

    /// Names of live user uploads (test/observability hook).
    pub fn uploads(&self) -> &[String] {
        &self.uploads
    }

    /// Number of currently staged results (staging-resource control).
    pub fn staged_results(&self) -> usize {
        self.staged.len()
    }
}

impl NodeService for FederationNode {
    fn id(&self) -> &str {
        &self.id
    }

    fn serve(&mut self, request: &Request) -> Option<Response> {
        Some(self.handle(request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Attribute, GRegion, Metadata, Sample, Schema, Strand, ValueType};

    fn node() -> FederationNode {
        let mut node = FederationNode::new("polimi", 2);
        let schema = Schema::new(vec![Attribute::new("p", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("PEAKS", schema);
        for i in 0..3 {
            ds.add_sample(
                Sample::new(format!("s{i}"), "PEAKS")
                    .with_regions(vec![GRegion::new(
                        "chr1",
                        i * 100,
                        i * 100 + 50,
                        Strand::Unstranded,
                    )
                    .with_values(vec![0.01.into()])])
                    .with_metadata(Metadata::from_pairs([(
                        "cell",
                        if i == 0 { "HeLa" } else { "K562" },
                    )])),
            )
            .unwrap();
        }
        node.own(ds);
        node
    }

    #[test]
    fn list_and_info() {
        let mut n = node();
        match n.handle(&Request::ListDatasets) {
            Response::Datasets(ds) => {
                assert_eq!(ds.len(), 1);
                assert_eq!(ds[0].stats.samples, 3);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            n.handle(&Request::DatasetInfo { name: "PEAKS".into() }),
            Response::Info(_)
        ));
        assert!(matches!(
            n.handle(&Request::DatasetInfo { name: "NOPE".into() }),
            Response::Error(_)
        ));
    }

    #[test]
    fn compile_returns_schema_and_estimate() {
        let mut n = node();
        match n.handle(&Request::Compile {
            query: "X = SELECT(cell == 'K562') PEAKS; MATERIALIZE X;".into(),
        }) {
            Response::Compiled { outputs, estimates } => {
                assert_eq!(outputs[0].0, "X");
                assert!(outputs[0].1.get("p").is_some());
                assert!(estimates[0].bytes > 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            n.handle(&Request::Compile { query: "X = SELEKT() P;".into() }),
            Response::Error(_)
        ));
    }

    #[test]
    fn execute_stage_fetch_release() {
        let mut n = node();
        let (ticket, chunks) = match n.handle(&Request::Execute {
            query: "X = SELECT(cell == 'K562') PEAKS; MATERIALIZE X;".into(),
            chunk_bytes: 1024,
        }) {
            Response::Accepted { ticket, chunks, total_bytes, .. } => {
                assert!(total_bytes > 0);
                (ticket, chunks)
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(n.staged_results(), 1);
        let mut payload = Vec::new();
        for i in 0..chunks {
            match n.handle(&Request::FetchChunk { ticket, chunk: i }) {
                Response::Chunk { data, last, .. } => {
                    payload.extend(data);
                    assert_eq!(last, i + 1 == chunks);
                }
                other => panic!("{other:?}"),
            }
        }
        let results = nggc_repository::decode_outputs(&payload).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results["X"].sample_count(), 2, "two K562 samples");
        assert!(matches!(n.handle(&Request::Release { ticket }), Response::Ok));
        assert_eq!(n.staged_results(), 0);
        assert!(matches!(n.handle(&Request::Release { ticket }), Response::Error(_)));
    }

    #[test]
    fn stale_tickets_expire_as_backstop() {
        let mut n = node().with_ticket_ttl(Duration::from_millis(20));
        let ticket = match n.handle(&Request::Execute {
            query: "X = SELECT() PEAKS; MATERIALIZE X;".into(),
            chunk_bytes: 1024,
        }) {
            Response::Accepted { ticket, .. } => ticket,
            other => panic!("{other:?}"),
        };
        assert_eq!(n.staged_results(), 1);
        std::thread::sleep(Duration::from_millis(40));
        // Any subsequent request sweeps the stale ticket first.
        match n.handle(&Request::Status) {
            Response::Status { staged_results, .. } => assert_eq!(staged_results, 0),
            other => panic!("{other:?}"),
        }
        assert_eq!(n.staged_results(), 0);
        // The reaped ticket is gone for good.
        assert!(matches!(n.handle(&Request::FetchChunk { ticket, chunk: 0 }), Response::Error(_)));
    }

    #[test]
    fn whole_dataset_fetch() {
        let mut n = node();
        match n.handle(&Request::FetchDataset { name: "PEAKS".into() }) {
            Response::WholeDataset { data } => {
                let ds = decode_dataset_v2(&data).unwrap();
                assert_eq!(ds.sample_count(), 3);
            }
            other => panic!("{other:?}"),
        }
    }
}
