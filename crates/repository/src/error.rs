//! Error type of the repository crate.

use nggc_formats::FormatError;
use nggc_gdm::GdmError;
use std::fmt;

/// Errors raised by repository operations.
#[derive(Debug)]
pub enum RepoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Catalog (de)serialisation failure.
    Catalog(serde_json::Error),
    /// Dataset file format failure.
    Format(FormatError),
    /// Data-model violation.
    Model(GdmError),
    /// No dataset with the given name.
    NotFound(String),
    /// A write found the catalog of the repository at this root torn;
    /// reopening the repository rebuilds it.
    Torn(std::path::PathBuf),
    /// A bounded load was refused because the catalog's size estimate
    /// exceeds the caller's remaining memory budget.
    Budget {
        /// Dataset name.
        name: String,
        /// Catalog estimate of the dataset's in-memory encoded size.
        estimated: u64,
        /// Bytes the caller could still afford.
        budget: u64,
    },
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::Io(e) => write!(f, "i/o error: {e}"),
            RepoError::Catalog(e) => write!(f, "catalog error: {e}"),
            RepoError::Format(e) => write!(f, "format error: {e}"),
            RepoError::Model(e) => write!(f, "model error: {e}"),
            RepoError::NotFound(n) => write!(f, "dataset {n:?} not found"),
            RepoError::Torn(root) => {
                write!(f, "the catalog of {} is torn; reopen to rebuild it", root.display())
            }
            RepoError::Budget { name, estimated, budget } => write!(
                f,
                "loading dataset {name:?} (estimated {estimated} B) would exceed the \
                 remaining memory budget of {budget} B"
            ),
        }
    }
}

impl std::error::Error for RepoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepoError::Io(e) => Some(e),
            RepoError::Catalog(e) => Some(e),
            RepoError::Format(e) => Some(e),
            RepoError::Model(e) => Some(e),
            RepoError::NotFound(_) | RepoError::Torn(_) => None,
            RepoError::Budget { .. } => None,
        }
    }
}

impl From<std::io::Error> for RepoError {
    fn from(e: std::io::Error) -> Self {
        RepoError::Io(e)
    }
}
impl From<serde_json::Error> for RepoError {
    fn from(e: serde_json::Error) -> Self {
        RepoError::Catalog(e)
    }
}
impl From<FormatError> for RepoError {
    fn from(e: FormatError) -> Self {
        RepoError::Format(e)
    }
}
