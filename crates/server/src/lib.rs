//! # `nggc-server` — the concurrent multi-client query service
//!
//! The paper's vision (§4.3–4.5) is a *shared* genomic data-management
//! service: many analysts querying one curated repository. This crate
//! turns the single-shot CLI pipeline into that service: `nggc serve`
//! runs a long-lived [`Server`] that accepts concurrent clients over a
//! length-prefixed JSON protocol, parses/optimizes/executes GMQL
//! against one shared [`Repository`](nggc_repository::Repository) and
//! worker pool, and returns results or typed errors.
//!
//! Concurrency is governed at three layers:
//!
//! - **Admission** ([`Admission`]): an in-flight cap plus a bounded
//!   wait queue; load beyond both is rejected immediately with a
//!   `retry_after_ms` hint rather than queueing without bound.
//! - **Memory** ([`MemoryPool`]): every admitted query carves its
//!   `QueryGovernor` budget from one server-wide pool, so concurrent
//!   budgets can never sum past provisioned capacity.
//! - **Cancellation**: shutdown (Ctrl-C / SIGTERM in the CLI) stops
//!   accepting, refuses new queries, drains in-flight ones, and cancels
//!   stragglers through their governor `CancelToken`s.
//!
//! Every request runs under its own trace id
//! ([`nggc_obs::TraceContext`]); server activity is visible as
//! `nggc_serve_*` metrics and, when armed, the slow-query flight
//! recorder `nggc query` uses too ([`flight`]).
//!
//! A request takes the same path from text to outputs as `nggc query`
//! and `nggc stats -e`: [`Session::run`] ([`session`]).

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod flight;
pub mod protocol;
pub mod provider;
pub mod server;
pub mod session;

pub use admission::{Admission, AdmissionPermit, AdmitError, MemoryPool, MemoryReservation};
pub use client::Client;
pub use flight::FlightRecorder;
pub use protocol::{
    ClientRequest, OutputSummary, ServeErrorKind, ServeStats, ServerReply, MAX_FRAME_BYTES,
};
pub use provider::RepoProvider;
pub use server::{ServeConfig, Server, ServerHandle};
pub use session::{QueryReport, Request, RunError, Session, Tier};
