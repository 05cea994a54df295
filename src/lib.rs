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

use std::sync::Arc;

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

/// GMQL source provider backed by a [`repository::Repository`].
///
/// `Repository::load` hands out `Arc<Dataset>` from its LRU cache;
/// this adapter forwards that shared pointer through
/// [`gmql::DatasetProvider::load_shared`], so a query over a warm
/// repository never deep-copies its source datasets.
///
/// With [`RepoProvider::governed`] the adapter also enforces a
/// [`gmql::QueryGovernor`]: every load first passes a cancel/deadline
/// checkpoint, and when the governor carries a memory budget the
/// repository's catalog estimate is checked **before** any region data
/// is read ([`repository::Repository::load_bounded`]), so an oversized
/// source dataset is refused without allocating. A pruned load is checked
/// at the share of the dataset it would materialise
/// ([`repository::Repository::load_pruned_bounded`]).
pub struct RepoProvider<'a> {
    repo: &'a repository::Repository,
    governor: Option<gmql::QueryGovernor>,
}

impl<'a> RepoProvider<'a> {
    /// Wrap a repository for use as a query source provider.
    pub fn new(repo: &'a repository::Repository) -> Self {
        RepoProvider { repo, governor: None }
    }

    /// Wrap a repository so loads honor `governor`'s cancellation,
    /// deadline, and memory budget.
    pub fn governed(repo: &'a repository::Repository, governor: &gmql::QueryGovernor) -> Self {
        RepoProvider { repo, governor: Some(governor.clone()) }
    }
}

impl RepoProvider<'_> {
    /// One load under the governor, if there is one: a cancel/deadline
    /// checkpoint first, then `load` with the memory the query can still
    /// afford (`None`: unlimited); the repository's refusal of an
    /// oversized dataset becomes the governor's typed error.
    fn load_with(
        &self,
        name: &str,
        load: impl FnOnce(Option<u64>) -> Result<Arc<gdm::Dataset>, repository::RepoError>,
    ) -> Result<Arc<gdm::Dataset>, gmql::GmqlError> {
        let node = || format!("LOAD {name}");
        let mut budget = None;
        if let Some(g) = &self.governor {
            g.check(&node())?;
            budget = g.remaining_memory();
        }
        load(budget).map_err(|e| match (e, &self.governor) {
            (repository::RepoError::Budget { estimated, .. }, Some(g)) => {
                g.refuse_allocation(&node(), estimated)
            }
            (e, _) => gmql::GmqlError::runtime(e.to_string()),
        })
    }
}

impl gmql::DatasetProvider for RepoProvider<'_> {
    fn load(&self, name: &str) -> Result<gdm::Dataset, gmql::GmqlError> {
        self.load_shared(name).map(|d| (*d).clone())
    }

    fn load_shared(&self, name: &str) -> Result<Arc<gdm::Dataset>, gmql::GmqlError> {
        self.load_with(name, |budget| match budget {
            Some(budget) => self.repo.load_bounded(name, budget),
            None => self.repo.load(name),
        })
    }

    fn load_pruned(
        &self,
        name: &str,
        spec: &gmql::ScanSpec,
    ) -> Result<Arc<gdm::Dataset>, gmql::GmqlError> {
        let opts = formats::native_v2::ScanOptions {
            chroms: spec.chroms.clone(),
            columns: spec.columns.clone(),
        };
        self.load_with(name, |budget| match budget {
            Some(budget) => self.repo.load_pruned_bounded(name, &opts, budget),
            None => self.repo.load_pruned(name, &opts),
        })
    }
}
