//! # `nggc` — Next-Generation Genomic Computing
//!
//! A Rust implementation of the data-management stack proposed in
//! *"Data Management for Next Generation Genomic Computing"*
//! (S. Ceri, A. Kaitoua, M. Masseroli, P. Pinoli, F. Venco — EDBT 2016):
//! the **GDM** data model, the **GMQL** query language, a hand-built
//! parallel execution engine, and the paper's §4 vision services
//! (analysis bridge, repositories, ontology mediation, federation,
//! search, Internet of Genomes).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Paper section |
//! |---|---|---|
//! | [`gdm`] | `nggc-gdm` | §2 data model |
//! | [`formats`] | `nggc-formats` | §1–2 interoperability |
//! | [`engine`] | `nggc-engine` | §4.2 parallel runtime |
//! | [`gmql`] | `nggc-core` | §2 query language |
//! | [`repository`] | `nggc-repository` | §4.3 curated repositories |
//! | [`ontology`] | `nggc-ontology` | §4.3 ontological mediation |
//! | [`search`] | `nggc-search` | §4.5 search + Internet of Genomes |
//! | [`federation`] | `nggc-federation` | §4.4 federated processing |
//! | [`analysis`] | `nggc-analysis` | §4.1 genome spaces & networks |
//! | [`synth`] | `nggc-synth` | synthetic workloads (substitutions) |
//! | [`obs`] | `nggc-obs` | metrics, tracing, profiling (docs/observability.md) |
//!
//! ## Quickstart
//!
//! ```
//! use nggc::gdm::*;
//! use nggc::gmql::GmqlEngine;
//!
//! // Build the paper's Figure-2 PEAKS dataset.
//! let schema = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
//! let mut peaks = Dataset::new("PEAKS", schema);
//! peaks.add_sample(
//!     Sample::new("sample_1", "PEAKS")
//!         .with_regions(vec![
//!             GRegion::new("chr1", 2940, 3400, Strand::Pos).with_values(vec![0.0001.into()]),
//!         ])
//!         .with_metadata(Metadata::from_pairs([("karyotype", "cancer")])),
//! ).unwrap();
//!
//! // Run GMQL over it.
//! let mut engine = GmqlEngine::with_workers(2);
//! engine.register(peaks);
//! let out = engine.run("R = SELECT(karyotype == 'cancer') PEAKS; MATERIALIZE R;").unwrap();
//! assert_eq!(out["R"].sample_count(), 1);
//! ```

pub use nggc_analysis as analysis;
pub use nggc_core as gmql;
pub use nggc_engine as engine;
pub use nggc_federation as federation;
pub use nggc_formats as formats;
pub use nggc_gdm as gdm;
pub use nggc_obs as obs;
pub use nggc_ontology as ontology;
pub use nggc_repository as repository;
pub use nggc_search as search;
pub use nggc_server as server;
pub use nggc_synth as synth;

/// The repository-backed GMQL source provider `nggc query` and `nggc serve`
/// share (lives in `nggc-server`, the lowest crate that sees both the
/// repository and the query engine).
pub use nggc_server::RepoProvider;
