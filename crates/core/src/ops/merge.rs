//! MERGE: collapse samples (per metadata group) into single samples.
//!
//! `MERGE()` produces one sample holding every region of the dataset;
//! `MERGE(groupby: cell)` produces one per distinct `cell` value.
//! Result metadata is the union of the merged samples' metadata (GMQL
//! binary-metadata rule applied n-ways).

use crate::error::GmqlError;
use crate::ops::{group_key, Reuse};
use nggc_engine::{merge_runs, union_chroms, ExecContext};
use nggc_gdm::{Chrom, Dataset, GRegion, Provenance, RegionBatch, Sample, Schema, ValueRef};

/// Execute MERGE.
pub fn merge(
    ctx: &ExecContext,
    groupby: &[String],
    input: &Dataset,
    reuse: &Reuse,
) -> Result<Dataset, GmqlError> {
    let detail =
        if groupby.is_empty() { String::new() } else { format!("groupby: {}", groupby.join(",")) };
    // Each region's cells are copied once, already in their final
    // position; a group of one shares its member's buffer instead.
    let frame = ("MERGE", "merged", detail);
    let schema = &input.schema;
    fold_groups(ctx, input, schema, groupby, frame, Some(reuse), |_, runs, _, part| {
        for r in merge_runs(runs, GRegion::cmp_coords) {
            let at = (&r.chrom, r.left, r.right, r.strand);
            part.push_row(schema, at, r.values.iter().map(ValueRef::from))?;
        }
        Ok(())
    })
}

/// The frame MERGE, GROUP and COVER share: one output sample per metadata
/// group of `input`, named `name` (plus the group key), carrying the union
/// of its members' metadata and a provenance node `op(detail)` over all of
/// them. Its regions come from `kernel`, which runs once per (group ×
/// chromosome) — the groups fanned out over the pool, or, for a single
/// group, its chromosomes — over the members' slices of that chromosome —
/// sorted runs, in member order, for [`merge_runs`] to merge as borrows —
/// gets the group size, and pushes its output rows, in genome order, onto
/// an empty batch of `out_schema`'s columns. The sample's regions are
/// those parts appended in genome order: one columnar batch, no row built.
///
/// `copies`, when given, says the kernel copies the members' regions as
/// they are: a group of one then shares its member's buffer and the kernel
/// does not run, and what it does copy is counted.
pub(crate) fn fold_groups<K>(
    ctx: &ExecContext,
    input: &Dataset,
    out_schema: &Schema,
    groupby: &[String],
    (op, name, detail): (&str, &str, String),
    copies: Option<&Reuse>,
    kernel: K,
) -> Result<Dataset, GmqlError>
where
    K: Fn(&Chrom, &[&[GRegion]], usize, &mut RegionBatch) -> Result<(), GmqlError> + Sync,
{
    let samples = ctx.map(partition_by_meta(input, groupby), |(key, members)| {
        let regions = match (copies, &members[..]) {
            (Some(reuse), [only]) => reuse.hand_on(only.regions.clone()),
            _ => {
                let parts = ctx.map(union_chroms(members.iter().copied()), |c| {
                    let mut part = RegionBatch::for_schema(out_schema);
                    // Job-boundary checkpoint: skip queued chromosome
                    // kernels once the governor has tripped.
                    if !ctx.interrupted() {
                        let runs: Vec<&[GRegion]> = members
                            .iter()
                            .map(|s| s.chrom_slice(&c))
                            .filter(|run| !run.is_empty())
                            .collect();
                        kernel(&c, &runs, members.len(), &mut part)?;
                    }
                    Ok::<_, GmqlError>(part)
                });
                let mut batch = RegionBatch::for_schema(out_schema);
                for part in parts {
                    batch.append(part?);
                }
                match copies {
                    Some(reuse) => reuse.copy(batch),
                    None => batch.into(),
                }
            }
        };
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
        out.regions = regions;
        Ok::<_, GmqlError>(out)
    });
    let mut out = Dataset::new(input.name.clone(), out_schema.clone());
    for s in samples {
        out.add_sample_unchecked(s?);
    }
    Ok(out)
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
        let out = merge(&ctx, &[], &dataset(), &Reuse::default()).unwrap();
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
        let out = merge(&ctx, &["cell".into()], &dataset(), &Reuse::default()).unwrap();
        assert_eq!(out.sample_count(), 2);
        let hela = out.samples.iter().find(|s| s.metadata.has("cell", "HeLa")).unwrap();
        assert_eq!(hela.region_count(), 2);
        assert_eq!(hela.regions[0].chrom.as_str(), "chr1", "sorted");
    }

    #[test]
    fn a_group_of_one_shares_its_members_buffer() {
        let ctx = ExecContext::with_workers(2);
        let ds = dataset();
        let reuse = Reuse::default();
        let out = merge(&ctx, &["cell".into()], &ds, &reuse).unwrap();
        let k562 = out.samples.iter().find(|s| s.metadata.has("cell", "K562")).unwrap();
        assert!(nggc_gdm::Regions::ptr_eq(
            &k562.regions,
            &ds.sample_by_name("s2").unwrap().regions
        ));
        // HeLa merges two members' regions into a new buffer.
        assert_eq!((reuse.shared(), reuse.copied()), (1, 2));
    }

    #[test]
    fn provenance_lists_all_members() {
        let ctx = ExecContext::with_workers(1);
        let out = merge(&ctx, &[], &dataset(), &Reuse::default()).unwrap();
        let sources = out.samples[0].provenance.sources();
        assert_eq!(sources.len(), 3);
    }
}
