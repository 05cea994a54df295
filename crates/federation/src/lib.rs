//! # `nggc-federation` — federated GMQL query processing
//!
//! Implements the §4.4 vision: cooperating repository nodes form a
//! federation; GMQL queries ship to the node owning the data, execute
//! there, and only (small) results travel back, with compile-time size
//! estimates and client-controlled staged retrieval. Every message is
//! byte-accounted, which is how experiment E7 quantifies the paper's
//! "move processing to data" claim against today's ship-data practice.
//!
//! Remote peers fail, so every exchange runs under a [`CallPolicy`]:
//! per-request deadlines, bounded retries with deterministic backoff
//! for idempotent request kinds, and per-node circuit breakers with
//! half-open probing. Degraded-mode entry points return partial results
//! plus a [`NodeHealth`] report instead of failing the federation when
//! a minority of nodes is down, and [`ChaosNode`] injects seeded,
//! reproducible faults so all of it is testable in-process. See
//! `docs/federation.md` for the full semantics.

#![warn(missing_docs)]

pub mod chaos;
pub mod federation;
pub mod node;
pub mod policy;
pub mod protocol;

pub use chaos::{ChaosConfig, ChaosNode};
pub use federation::{DegradedOutcome, DistributedPlan, Federation, FederationError};
pub use node::{FederationNode, NodeService};
pub use policy::{BreakerState, CallPolicy, NodeHealth, NodeStatus};
pub use protocol::{
    DatasetSummary, Request, Response, SizeEstimate, TraceHeader, TransferLog, WireSpan,
};
