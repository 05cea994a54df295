//! # `nggc-core` — GMQL, the GenoMetric Query Language
//!
//! The paper's primary contribution (§2): a closed algebra over GDM
//! datasets combining classic relational operators (SELECT, PROJECT,
//! UNION, DIFFERENCE, JOIN, ORDER, EXTEND/aggregates) with domain-specific
//! genomic ones (COVER and variants, MAP, genometric JOIN on distance
//! predicates), with implicit sample iteration, metadata propagation, and
//! provenance tracing.
//!
//! Pipeline: [`parser`] → [`plan`] (schema-inferring compiler) →
//! [`optimizer`] (SELECT fusion, CSE) → [`exec`] (parallel evaluation on
//! the `nggc-engine` runtime, one operator implementation per module in
//! [`ops`]).
//!
//! The paper's §2 example runs end to end:
//!
//! ```text
//! PROMS  = SELECT(annType == 'promoter') ANNOTATIONS;
//! PEAKS  = SELECT(dataType == 'ChipSeq') ENCODE;
//! RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
//! MATERIALIZE RESULT;
//! ```

#![warn(missing_docs)]

pub mod aggregates;
pub mod ast;
pub mod error;
pub mod exec;
pub mod fingerprint;
pub mod governor;
pub mod lexer;
pub mod ops;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod predicates;
pub mod query;
pub mod result_cache;
pub mod scan;

pub use aggregates::{AggFunc, Aggregate};
pub use ast::{
    AccBound, CoverVariant, GenometricClause, JoinOutput, OpCall, Operator, SemiJoin, SortDir,
    Statement,
};
pub use error::GmqlError;
pub use exec::{execute_governed, DatasetProvider, ExecOptions, NodeMetrics};
pub use fingerprint::{fingerprint, source_datasets, PlanFingerprint, FINGERPRINT_VERSION};
pub use governor::{
    parse_bytes, parse_duration, GovernorLimits, QueryGovernor, ENV_MAX_MEMORY, ENV_TIMEOUT,
};
pub use optimizer::{optimize, OptimizerReport};
pub use parser::parse;
pub use plan::{infer_schema, LogicalNode, LogicalPlan, NodeId, PlanOp};
pub use predicates::{BinOp, BoundExpr, CmpOp, MetaPredicate, RegionExpr};
pub use query::{
    run_with_provider, run_with_provider_governed, EstimatedOutput, GmqlEngine, QueryEstimate,
};
pub use result_cache::{CacheBudget, CacheOutcome, ResultCache, ResultCacheStats};
pub use scan::{derive_scan_specs, RegionWindow, ScanSpec, SCAN_SPEC_VERSION};
