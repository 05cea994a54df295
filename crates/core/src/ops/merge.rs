//! MERGE: collapse samples (per metadata group) into single samples.
//!
//! `MERGE()` produces one sample holding every region of the dataset;
//! `MERGE(groupby: cell)` produces one per distinct `cell` value.
//! Result metadata is the union of the merged samples' metadata (GMQL
//! binary-metadata rule applied n-ways).

use crate::error::GmqlError;
use crate::ops::group_key;
use nggc_engine::{merge_runs, union_chroms, ExecContext};
use nggc_gdm::{Chrom, Dataset, GRegion, Provenance, Sample, Schema};

/// Execute MERGE.
pub fn merge(ctx: &ExecContext, groupby: &[String], input: &Dataset) -> Result<Dataset, GmqlError> {
    let detail =
        if groupby.is_empty() { String::new() } else { format!("groupby: {}", groupby.join(",")) };
    // Each region is cloned once, already in its final position.
    let frame = ("MERGE", "merged", detail);
    Ok(fold_groups(ctx, input, &input.schema, groupby, frame, |_, runs, _| {
        merge_runs(runs, GRegion::cmp_coords).into_iter().cloned().collect()
    }))
}

/// The frame MERGE, GROUP and COVER share: one output sample per metadata
/// group of `input`, named `name` (plus the group key), carrying the union
/// of its members' metadata and a provenance node `op(detail)` over all of
/// them. Its regions come from `kernel`, which runs as one pool job per
/// (group × chromosome) over the members' slices of that chromosome —
/// sorted runs, in member order, for [`merge_runs`] to merge as borrows — and
/// gets the group size as its last argument; the per-chromosome outputs
/// are concatenated in genome order.
pub(crate) fn fold_groups<K>(
    ctx: &ExecContext,
    input: &Dataset,
    out_schema: &Schema,
    groupby: &[String],
    (op, name, detail): (&str, &str, String),
    kernel: K,
) -> Dataset
where
    K: Fn(&Chrom, &[&[GRegion]], usize) -> Vec<GRegion> + Sync,
{
    let samples = ctx.pool().parallel_map(partition_by_meta(input, groupby), |(key, members)| {
        let per_chrom = ctx.pool().parallel_map(union_chroms(members.iter().copied()), |c| {
            // Job-boundary checkpoint: skip queued chromosome kernels
            // once the governor has tripped.
            if ctx.interrupted() {
                return Vec::new();
            }
            let runs: Vec<&[GRegion]> =
                members.iter().map(|s| s.chrom_slice(&c)).filter(|run| !run.is_empty()).collect();
            kernel(&c, &runs, members.len())
        });
        let provenance = Provenance::derived(
            op,
            detail.clone(),
            members.iter().map(|s| s.provenance.clone()).collect(),
        );
        let name =
            if key.is_empty() { name.to_owned() } else { format!("{name}_{}", key.join("_")) };
        let mut out = Sample::derived(name, provenance);
        for s in &members {
            out.metadata.merge_from(&s.metadata, "");
        }
        for (attr, val) in groupby.iter().zip(&key) {
            if !val.is_empty() {
                out.metadata.insert(attr, val.clone());
            }
        }
        out.regions.reserve_exact(per_chrom.iter().map(Vec::len).sum());
        per_chrom.into_iter().for_each(|part| out.regions.extend(part));
        out
    });
    let mut out = Dataset::new(input.name.clone(), out_schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    out
}

/// Partition samples into `(group key, members)` lists, deterministic in
/// key order.
pub(crate) fn partition_by_meta<'a>(
    input: &'a Dataset,
    groupby: &[String],
) -> Vec<(Vec<String>, Vec<&'a Sample>)> {
    let mut groups: Vec<(Vec<String>, Vec<&Sample>)> = Vec::new();
    for s in &input.samples {
        let key = group_key(&s.metadata, groupby);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(s),
            None => groups.push((key, vec![s])),
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use nggc_gdm::{Metadata, Strand};

    fn dataset() -> Dataset {
        let mut ds = Dataset::new("D", Schema::empty());
        for (name, cell, chrom, l) in
            [("s1", "HeLa", "chr2", 10), ("s2", "K562", "chr1", 5), ("s3", "HeLa", "chr1", 0)]
        {
            ds.add_sample(
                Sample::new(name, "D")
                    .with_regions(vec![GRegion::new(chrom, l, l + 10, Strand::Unstranded)])
                    .with_metadata(Metadata::from_pairs([("cell", cell), ("src", name)])),
            )
            .unwrap();
        }
        ds
    }

    #[test]
    fn merge_all_into_one() {
        let ctx = ExecContext::with_workers(2);
        let out = merge(&ctx, &[], &dataset()).unwrap();
        assert_eq!(out.sample_count(), 1);
        let s = &out.samples[0];
        assert_eq!(s.region_count(), 3);
        assert!(s.is_sorted(), "merged regions re-sorted into genome order");
        // Union of metadata.
        assert!(s.metadata.has("src", "s1"));
        assert!(s.metadata.has("src", "s3"));
    }

    #[test]
    fn merge_groupby_cell() {
        let ctx = ExecContext::with_workers(2);
        let out = merge(&ctx, &["cell".into()], &dataset()).unwrap();
        assert_eq!(out.sample_count(), 2);
        let hela = out.samples.iter().find(|s| s.metadata.has("cell", "HeLa")).unwrap();
        assert_eq!(hela.region_count(), 2);
        assert_eq!(hela.regions[0].chrom.as_str(), "chr1", "sorted");
    }

    #[test]
    fn provenance_lists_all_members() {
        let ctx = ExecContext::with_workers(1);
        let out = merge(&ctx, &[], &dataset()).unwrap();
        let sources = out.samples[0].provenance.sources();
        assert_eq!(sources.len(), 3);
    }
}
