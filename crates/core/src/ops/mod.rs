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
//! * **parallelism** — each operator fans out once: its sample(-pair)
//!   or group tasks run on the engine pool and shard their genometric
//!   work per chromosome inline, and a single task's chromosomes are the
//!   pool jobs; an operator over fewer than
//!   [`nggc_engine::POOL_MIN_REGIONS`] input regions runs inline;
//! * **copy-on-write regions** — an output sample that keeps an input
//!   sample's regions exactly takes its buffer by reference, remembered
//!   size included; an operator edits a buffer in place only when
//!   [`Regions::get_mut`] shows it holds it alone (which forgets the
//!   size), and otherwise copies only what it keeps ([`Reuse`] counts
//!   both);
//! * **columnar outputs** — MAP, JOIN and the fold frame of COVER, GROUP
//!   and MERGE push each output region into the typed columns of a
//!   [`nggc_gdm::RegionBatch`] instead of building it as a row.

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
use nggc_gdm::{Dataset, GRegion, Metadata, Regions, Sample, Schema, Value};
use std::borrow::Cow;
use std::ptr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How one operator application came by its output's region buffers:
/// the samples it handed an input buffer that another holder still
/// shares, and the rows it copied out of input buffers. The executor
/// reports both (`shared=` on the node's span,
/// `nggc_exec_samples_shared_total`, `nggc_exec_regions_cloned_total`);
/// a buffer taken over and rewritten in place counts as neither.
#[derive(Debug, Default)]
pub struct Reuse {
    shared: AtomicUsize,
    copied: AtomicU64,
}

impl Reuse {
    /// Output samples whose buffer is shared with an input's holder.
    pub fn shared(&self) -> usize {
        self.shared.load(Ordering::Relaxed)
    }

    /// Rows copied out of input buffers.
    pub fn copied(&self) -> u64 {
        self.copied.load(Ordering::Relaxed)
    }

    /// Hand `regions` on as they are: counted as shared when another
    /// holder still has the buffer, taken over when nobody does.
    pub(crate) fn hand_on(&self, regions: Regions) -> Regions {
        if regions.is_shared() {
            self.shared.fetch_add(1, Ordering::Relaxed);
        }
        regions
    }

    /// A new buffer of regions copied out of an input's: rows, or a
    /// batch.
    pub(crate) fn copy(&self, regions: impl Into<Regions>) -> Regions {
        let regions = regions.into();
        self.copied.fetch_add(regions.len() as u64, Ordering::Relaxed);
        regions
    }

    /// The buffer of `whole` when `kept`, borrowed from it, is every one
    /// of its regions in place — shared, not copied — else a copy of
    /// `kept`.
    pub(crate) fn keep(&self, whole: &Regions, kept: Vec<&GRegion>) -> Regions {
        if kept.len() == whole.len() && kept.iter().zip(whole.iter()).all(|(k, r)| ptr::eq(*k, r)) {
            self.hand_on(whole.clone())
        } else {
            self.copy(kept.into_iter().cloned().collect::<Vec<_>>())
        }
    }
}

/// An operator's aggregates resolved against its input schema: each
/// function with the position of its argument (`None` for COUNT).
pub(crate) fn resolve_aggs(
    aggs: &[(String, Aggregate)],
    schema: &Schema,
) -> Result<Vec<(Aggregate, Option<usize>)>, GmqlError> {
    aggs.iter().map(|(_, agg)| agg.resolve(schema).map(|(pos, _)| (agg.clone(), pos))).collect()
}

/// Append one value per aggregate, computed over `regions` in the order
/// given (BAG and float SUM depend on it). Each aggregate's argument
/// cells are gathered into `scratch`, which the caller keeps from one
/// call to the next so that it is allocated once.
pub(crate) fn push_aggregates<'a>(
    resolved: &[(Aggregate, Option<usize>)],
    regions: &[&'a GRegion],
    scratch: &mut Vec<&'a Value>,
    values: &mut Vec<Value>,
) {
    for (agg, pos) in resolved {
        scratch.clear();
        if let Some(p) = *pos {
            scratch.extend(regions.iter().map(|r| &r.values[p]));
        }
        values.push(agg.compute(scratch, regions.len()));
    }
}

/// Split a unary operator's input into name, schema and the samples that
/// pass `admit` — moved out of an owned dataset, cloned out of a borrowed
/// one, which copies names and metadata but shares region buffers. Either
/// way the per-sample code decides on each buffer: edit it in place when
/// [`Regions::get_mut`] says it may, else share it or copy what it keeps.
pub(crate) fn unpack(
    input: Cow<'_, Dataset>,
    admit: impl Fn(&Sample) -> bool,
) -> (String, Schema, Vec<Sample>) {
    match input {
        Cow::Owned(d) => (d.name, d.schema, d.samples.into_iter().filter(|s| admit(s)).collect()),
        Cow::Borrowed(d) => (
            d.name.clone(),
            d.schema.clone(),
            d.samples.iter().filter(|s| admit(s)).cloned().collect(),
        ),
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
