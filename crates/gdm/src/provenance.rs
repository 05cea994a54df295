//! Provenance tracking.
//!
//! "Tracing provenance both of initial samples and of their processing
//! through operations is a unique aspect of our approach; knowing why
//! resulting regions were produced is quite relevant" (paper §2).
//!
//! Every sample carries a [`Provenance`] tree: leaves are source samples
//! (dataset + sample name), inner nodes record the operator that produced
//! the sample and its input lineages.

use std::fmt;
use std::sync::Arc;

/// Provenance of a sample: either a repository source or the application
/// of an operator to one or more input samples.
///
/// Shared structurally via `Arc` so that wide query plans do not duplicate
/// lineage trees per region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// A sample loaded from a dataset.
    Source {
        /// Dataset name in the repository.
        dataset: String,
        /// Sample name or file stem.
        sample: String,
    },
    /// A sample produced by an operator.
    Derived {
        /// Operator name, e.g. `SELECT`, `MAP`, `COVER`.
        operator: String,
        /// Human-readable operator parameters (predicate text, distances).
        detail: String,
        /// Lineages of the input samples that contributed.
        inputs: Vec<Arc<Provenance>>,
    },
}

impl Provenance {
    /// Provenance for a freshly loaded source sample.
    pub fn source(dataset: impl Into<String>, sample: impl Into<String>) -> Arc<Provenance> {
        Arc::new(Provenance::Source { dataset: dataset.into(), sample: sample.into() })
    }

    /// Provenance for an operator application.
    pub fn derived(
        operator: impl Into<String>,
        detail: impl Into<String>,
        inputs: Vec<Arc<Provenance>>,
    ) -> Arc<Provenance> {
        Arc::new(Provenance::Derived { operator: operator.into(), detail: detail.into(), inputs })
    }

    /// All source `(dataset, sample)` pairs reachable from this lineage,
    /// depth-first, with duplicates removed (answering "which input
    /// samples explain this result?").
    pub fn sources(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        self.collect_sources(&mut out);
        out.dedup();
        out
    }

    fn collect_sources(&self, out: &mut Vec<(String, String)>) {
        match self {
            Provenance::Source { dataset, sample } => {
                let pair = (dataset.clone(), sample.clone());
                if !out.contains(&pair) {
                    out.push(pair);
                }
            }
            Provenance::Derived { inputs, .. } => {
                for i in inputs {
                    i.collect_sources(out);
                }
            }
        }
    }

    /// The chain of operator names from this node to the deepest first
    /// input — a compact "how was this computed" summary.
    pub fn operator_chain(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Provenance::Source { .. } => break,
                Provenance::Derived { operator, inputs, .. } => {
                    out.push(operator.clone());
                    match inputs.first() {
                        Some(next) => cur = next,
                        None => break,
                    }
                }
            }
        }
        out
    }

    /// Depth of the lineage tree (a source has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            Provenance::Source { .. } => 0,
            Provenance::Derived { inputs, .. } => {
                1 + inputs.iter().map(|i| i.depth()).max().unwrap_or(0)
            }
        }
    }

    fn render(&self, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Provenance::Source { dataset, sample } => {
                writeln!(f, "{pad}source {dataset}/{sample}")
            }
            Provenance::Derived { operator, detail, inputs } => {
                if detail.is_empty() {
                    writeln!(f, "{pad}{operator}")?;
                } else {
                    writeln!(f, "{pad}{operator}({detail})")?;
                }
                for i in inputs {
                    i.render(indent + 1, f)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_deduplicated() {
        let s1 = Provenance::source("ENCODE", "s1");
        let s2 = Provenance::source("ANNOT", "proms");
        let join = Provenance::derived("MAP", "COUNT", vec![s2.clone(), s1.clone(), s1.clone()]);
        assert_eq!(
            join.sources(),
            vec![("ANNOT".into(), "proms".into()), ("ENCODE".into(), "s1".into())]
        );
    }

    #[test]
    fn operator_chain_follows_first_input() {
        let s = Provenance::source("D", "a");
        let sel = Provenance::derived("SELECT", "x > 1", vec![s]);
        let map = Provenance::derived("MAP", "", vec![sel]);
        assert_eq!(map.operator_chain(), vec!["MAP".to_string(), "SELECT".to_string()]);
        assert_eq!(map.depth(), 2);
    }

    #[test]
    fn display_is_indented_tree() {
        let s = Provenance::source("D", "a");
        let sel = Provenance::derived("SELECT", "p<0.1", vec![s]);
        let text = sel.to_string();
        assert!(text.starts_with("SELECT(p<0.1)\n"));
        assert!(text.contains("  source D/a"));
    }
}
