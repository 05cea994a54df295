//! # `nggc-repository` — curated dataset repositories
//!
//! The paper's §4.3 vision provides "integrated access to curated data
//! ... through user-friendly search services". This crate implements the
//! storage half: an on-disk [`Repository`] of GDM-native datasets with a
//! JSON [`catalog`](CatalogEntry) (schemas + statistics, enabling
//! compilation and size estimation without region scans) and the
//! [`MetaIndex`] inverted indexes that the search services (`nggc-search`)
//! and the federation protocol (`nggc-federation`) build on.

#![warn(missing_docs)]

pub mod catalog;
pub mod durable;
pub mod error;
pub mod fsck;
pub mod meta_index;
mod recovery;
pub mod result_store;

pub use catalog::{
    CatalogEntry, MigrationReport, MigrationSweep, Repository, SampleAdmit, ScanRequest,
};
pub use durable::{CRASHPOINT_ENV, CRASH_SITES};
pub use error::RepoError;
pub use fsck::{fsck, FsckIssue, FsckOptions, FsckReport, IssueKind};
pub use meta_index::{tokenize, MetaIndex, SampleRef};
pub use nggc_formats::native_v2::{
    decode_dataset_v2, decode_outputs, encode_dataset_v2, encode_outputs, Materialize, ScanOptions,
    StorageVersion,
};
pub use recovery::RepoHealth;
pub use result_store::ResultStore;
