//! Sample metadata: the second GDM entity.
//!
//! Metadata are arbitrary, semi-structured attribute–value pairs, extended
//! into triples by the sample identifier (paper §2, Figure 2 lower part).
//! An attribute may carry *multiple* values for the same sample (e.g. two
//! `antibody` entries), so the store is a multimap.

use std::collections::BTreeMap;
use std::fmt;

/// Metadata of one sample: an ordered multimap `attribute -> values`.
///
/// Attribute names are case-preserving; lookups are case-insensitive,
/// matching the liberal practice of real repositories (paper §1 notes
/// biologists are "very liberal" with metadata).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metadata {
    // BTreeMap keyed by lowercase name for deterministic iteration order;
    // each entry keeps the original spelling alongside the values.
    entries: BTreeMap<String, MetaEntry>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct MetaEntry {
    name: String,
    values: Vec<String>,
}

impl Metadata {
    /// Empty metadata.
    pub fn new() -> Metadata {
        Metadata::default()
    }

    /// Build from `(attribute, value)` pairs.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Metadata {
        let mut m = Metadata::new();
        for (k, v) in pairs {
            m.insert(k, v);
        }
        m
    }

    /// Add one attribute–value pair. Duplicate `(attribute, value)` pairs
    /// are kept only once (set semantics per attribute, as in GMQL).
    pub fn insert(&mut self, attribute: &str, value: impl Into<String>) {
        let value = value.into();
        let e = self
            .entries
            .entry(attribute.to_ascii_lowercase())
            .or_insert_with(|| MetaEntry { name: attribute.to_owned(), values: Vec::new() });
        if !e.values.iter().any(|v| v == &value) {
            e.values.push(value);
        }
    }

    /// All values of an attribute (case-insensitive), empty when absent.
    pub fn get(&self, attribute: &str) -> &[String] {
        self.entries
            .get(&attribute.to_ascii_lowercase())
            .map(|e| e.values.as_slice())
            .unwrap_or(&[])
    }

    /// First value of an attribute, if any.
    pub fn first(&self, attribute: &str) -> Option<&str> {
        self.get(attribute).first().map(String::as_str)
    }

    /// True when the attribute exists with the given value (exact match).
    pub fn has(&self, attribute: &str, value: &str) -> bool {
        self.get(attribute).iter().any(|v| v == value)
    }

    /// True when the attribute is present at all.
    pub fn contains_attribute(&self, attribute: &str) -> bool {
        self.entries.contains_key(&attribute.to_ascii_lowercase())
    }

    /// Remove an attribute entirely; returns true when it existed.
    pub fn remove(&mut self, attribute: &str) -> bool {
        self.entries.remove(&attribute.to_ascii_lowercase()).is_some()
    }

    /// Iterate `(attribute, value)` triples in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .values()
            .flat_map(|e| e.values.iter().map(move |v| (e.name.as_str(), v.as_str())))
    }

    /// Attribute names in deterministic order.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.entries.values().map(|e| e.name.as_str())
    }

    /// Number of `(attribute, value)` pairs.
    pub fn len(&self) -> usize {
        self.entries.values().map(|e| e.values.len()).sum()
    }

    /// True when no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Union with another metadata set (GMQL result-metadata rule for
    /// binary operators: the output sample carries both operands'
    /// metadata). `prefix`, when non-empty, is prepended to the other
    /// side's attribute names as `prefix.attr` — GMQL's convention to keep
    /// the origin distinguishable.
    pub fn merge_from(&mut self, other: &Metadata, prefix: &str) {
        for (k, v) in other.iter() {
            if prefix.is_empty() {
                self.insert(k, v);
            } else {
                self.insert(&format!("{prefix}.{k}"), v);
            }
        }
    }

    /// Approximate serialized size in bytes.
    pub fn encoded_size(&self) -> usize {
        self.iter().map(|(k, v)| k.len() + v.len() + 2).sum()
    }
}

impl fmt::Display for Metadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k}\t{v}")?;
        }
        Ok(())
    }
}

impl<'a> FromIterator<(&'a str, &'a str)> for Metadata {
    fn from_iter<T: IntoIterator<Item = (&'a str, &'a str)>>(iter: T) -> Metadata {
        Metadata::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multimap_semantics() {
        let mut m = Metadata::new();
        m.insert("antibody", "CTCF");
        m.insert("antibody", "POLR2A");
        m.insert("antibody", "CTCF"); // duplicate pair ignored
        assert_eq!(m.get("antibody"), &["CTCF", "POLR2A"]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn case_insensitive_lookup_preserves_spelling() {
        let mut m = Metadata::new();
        m.insert("Cell_Line", "HeLa");
        assert_eq!(m.first("cell_line"), Some("HeLa"));
        assert!(m.has("CELL_LINE", "HeLa"));
        let attrs: Vec<_> = m.attributes().collect();
        assert_eq!(attrs, vec!["Cell_Line"]);
    }

    #[test]
    fn merge_with_prefix() {
        let mut a = Metadata::from_pairs([("tissue", "liver")]);
        let b = Metadata::from_pairs([("tissue", "brain"), ("sex", "F")]);
        a.merge_from(&b, "right");
        assert!(a.has("tissue", "liver"));
        assert!(a.has("right.tissue", "brain"));
        assert!(a.has("right.sex", "F"));
    }

    #[test]
    fn merge_without_prefix_unions() {
        let mut a = Metadata::from_pairs([("k", "1")]);
        let b = Metadata::from_pairs([("k", "2")]);
        a.merge_from(&b, "");
        assert_eq!(a.get("k"), &["1", "2"]);
    }

    #[test]
    fn iteration_is_deterministic() {
        let m = Metadata::from_pairs([("b", "2"), ("a", "1"), ("c", "3")]);
        let keys: Vec<_> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn remove_and_contains() {
        let mut m = Metadata::from_pairs([("x", "1")]);
        assert!(m.contains_attribute("X"));
        assert!(m.remove("x"));
        assert!(!m.remove("x"));
        assert!(m.is_empty());
    }

    #[test]
    fn display_tsv() {
        let m = Metadata::from_pairs([("a", "1"), ("b", "2")]);
        assert_eq!(m.to_string(), "a\t1\nb\t2");
    }
}
