//! Physical operator implementations.
//!
//! Every operator consumes and produces whole [`Dataset`]s (GMQL is a
//! closed algebra, paper §2) and follows the common rules:
//!
//! * **implicit sample iteration** — unary operators map over samples;
//!   MAP/JOIN iterate over (reference, experiment) sample pairs;
//! * **metadata propagation** — result samples carry their input samples'
//!   metadata (prefixed per side for binary operators);
//! * **provenance** — every result sample records the operator and its
//!   input lineages;
//! * **parallelism** — sample(-pair) tasks run on the engine pool, and
//!   genometric work shards per chromosome.

pub mod cover;
pub mod difference;
pub mod extend;
pub mod group;
pub mod join;
pub mod map;
pub mod merge;
pub mod order;
pub mod project;
#[cfg(test)]
mod reference;
pub mod select;
pub mod union;

use crate::aggregates::Aggregate;
use crate::error::GmqlError;
use nggc_gdm::{Dataset, GRegion, Metadata, Sample, Schema, Value};
use std::borrow::Cow;

/// An operator's aggregates resolved against its input schema: each
/// function with the position of its argument (`None` for COUNT).
pub(crate) fn resolve_aggs(
    aggs: &[(String, Aggregate)],
    schema: &Schema,
) -> Result<Vec<(Aggregate, Option<usize>)>, GmqlError> {
    aggs.iter().map(|(_, agg)| agg.resolve(schema).map(|(pos, _)| (agg.clone(), pos))).collect()
}

/// Append one value per aggregate, computed over `regions` in the order
/// given (BAG and float SUM depend on it).
pub(crate) fn push_aggregates(
    resolved: &[(Aggregate, Option<usize>)],
    regions: &[&GRegion],
    values: &mut Vec<Value>,
) {
    for (agg, pos) in resolved {
        let vals: Vec<&Value> =
            pos.map_or_else(Vec::new, |p| regions.iter().map(|r| &r.values[p]).collect());
        values.push(agg.compute(&vals, regions.len()));
    }
}

/// Split a unary operator's input into name, schema and samples — each
/// sample owned when the dataset is, borrowed when it is shared — so that
/// one per-sample closure serves both: it moves what it may and clones
/// what it must.
pub(crate) fn unpack(input: Cow<'_, Dataset>) -> (String, Schema, Vec<Cow<'_, Sample>>) {
    match input {
        Cow::Owned(d) => (d.name, d.schema, d.samples.into_iter().map(Cow::Owned).collect()),
        Cow::Borrowed(d) => {
            (d.name.clone(), d.schema.clone(), d.samples.iter().map(Cow::Borrowed).collect())
        }
    }
}

/// The grouping key of a sample under `groupby` metadata attributes: the
/// sorted distinct values of each attribute, joined. Samples missing an
/// attribute contribute the empty value (they group together).
pub(crate) fn group_key(meta: &Metadata, attrs: &[String]) -> Vec<String> {
    attrs
        .iter()
        .map(|a| {
            let mut vs: Vec<&str> = meta.get(a).iter().map(String::as_str).collect();
            vs.sort_unstable();
            vs.join("|")
        })
        .collect()
}

/// GMQL `joinby` semantics: two samples pair when, for every listed
/// attribute, they share at least one common value. An empty attribute
/// list pairs everything.
pub(crate) fn joinby_matches(a: &Metadata, b: &Metadata, attrs: &[String]) -> bool {
    attrs.iter().all(|attr| {
        let av = a.get(attr);
        let bv = b.get(attr);
        av.iter().any(|x| bv.iter().any(|y| x == y))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_key_sorted_multivalue() {
        let m = Metadata::from_pairs([("antibody", "B"), ("antibody", "A"), ("cell", "HeLa")]);
        assert_eq!(
            group_key(&m, &["antibody".into(), "cell".into()]),
            vec!["A|B".to_string(), "HeLa".into()]
        );
        assert_eq!(group_key(&m, &["missing".into()]), vec![String::new()]);
    }

    #[test]
    fn joinby_requires_common_value_per_attribute() {
        let a = Metadata::from_pairs([("cell", "HeLa"), ("cell", "K562"), ("t", "x")]);
        let b = Metadata::from_pairs([("cell", "K562"), ("t", "y")]);
        assert!(joinby_matches(&a, &b, &["cell".into()]));
        assert!(!joinby_matches(&a, &b, &["cell".into(), "t".into()]));
        assert!(joinby_matches(&a, &b, &[]), "empty joinby pairs everything");
        assert!(!joinby_matches(&a, &b, &["absent".into()]), "missing attribute never matches");
    }
}
