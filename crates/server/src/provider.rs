//! The repository-backed GMQL source provider, shared by `nggc query`,
//! `nggc serve` and the experiment binaries.

use nggc_core::{DatasetProvider, GmqlError, QueryGovernor, ScanSpec};
use nggc_gdm::{Dataset, Metadata};
use nggc_repository::{Materialize, RepoError, Repository, SampleAdmit, ScanOptions, ScanRequest};
use std::sync::Arc;

/// GMQL source provider backed by a [`Repository`].
///
/// `Repository::load` hands out `Arc<Dataset>` from its LRU cache;
/// this adapter forwards that shared pointer through
/// [`DatasetProvider::load_shared`], so a query over a warm repository
/// never deep-copies its source datasets. A source with a non-trivial
/// [`ScanSpec`] becomes one [`Repository::scan`]: the spec's chromosomes
/// and columns as [`ScanOptions`], its sample predicate as the `admit`
/// the container walk asks per sample — the very `MetaPredicate` SELECT
/// evaluates again on whatever comes back — and its coordinate range and
/// width as the rows and cells a cold read builds ([`Materialize`]).
///
/// With [`RepoProvider::governed`] the adapter also enforces a
/// [`QueryGovernor`]: every load first passes a cancel/deadline
/// checkpoint, and when the governor carries a memory budget the
/// repository checks its size estimate **before** any region data is
/// read ([`ScanRequest::budget`]; a pruned scan at the share of the
/// dataset it would materialise), so an oversized source dataset is
/// refused without allocating.
pub struct RepoProvider<'a> {
    repo: &'a Repository,
    governor: Option<QueryGovernor>,
}

impl<'a> RepoProvider<'a> {
    /// Wrap a repository for use as a query source provider.
    pub fn new(repo: &'a Repository) -> Self {
        RepoProvider { repo, governor: None }
    }

    /// Wrap a repository so loads honor `governor`'s cancellation,
    /// deadline, and memory budget.
    pub fn governed(repo: &'a Repository, governor: &QueryGovernor) -> Self {
        RepoProvider { repo, governor: Some(governor.clone()) }
    }

    /// One scan under the governor, if there is one: a cancel/deadline
    /// checkpoint first, then the read, bounded by the memory the query
    /// can still afford (`None`: unlimited); the repository's refusal of
    /// an oversized dataset becomes the governor's typed error.
    fn scan(&self, name: &str, req: ScanRequest<'_>) -> Result<Arc<Dataset>, GmqlError> {
        let node = || format!("LOAD {name}");
        let mut budget = None;
        if let Some(g) = &self.governor {
            g.check(&node())?;
            budget = g.remaining_memory();
        }
        self.repo.scan(name, &ScanRequest { budget, ..req }).map_err(|e| {
            match (e, &self.governor) {
                (RepoError::Budget { estimated, .. }, Some(g)) => {
                    g.refuse_allocation(&node(), estimated)
                }
                (e, _) => GmqlError::runtime(e.to_string()),
            }
        })
    }
}

impl DatasetProvider for RepoProvider<'_> {
    fn load(&self, name: &str) -> Result<Dataset, GmqlError> {
        self.load_shared(name).map(|d| (*d).clone())
    }

    fn load_shared(&self, name: &str) -> Result<Arc<Dataset>, GmqlError> {
        self.scan(name, ScanRequest::default())
    }

    fn load_pruned(&self, name: &str, spec: &ScanSpec) -> Result<Arc<Dataset>, GmqlError> {
        let admit = spec
            .samples
            .as_ref()
            .map(|observed| move |_: &str, metadata: &Metadata| observed.eval(metadata));
        let req = ScanRequest {
            opts: ScanOptions { chroms: spec.chroms.clone(), columns: spec.columns.clone() },
            admit: admit.as_ref().map(|f| f as &SampleAdmit<'_>),
            build: Materialize { lo: spec.lo, hi: spec.hi, width: spec.width.clone() },
            budget: None,
        };
        self.scan(name, req)
    }
}
