//! SELECT: filter samples by metadata, regions by a region predicate.
//!
//! This is the workhorse of the paper's §2 example
//! (`SELECT(annType == 'promoter') ANNOTATIONS`). The **metadata-first**
//! strategy — decide sample membership from metadata before touching any
//! region — is the optimization GMQL's logical optimizer relies on; it is
//! toggleable here for the E10 ablation. Over a repository it starts one
//! layer down: `scan::derive_scan_specs` hands the same predicate to the
//! source's container read, which passes over the samples that fail it,
//! and the operator then decides again on whatever it is given.
//!
//! Regions are filtered **by sort order first**: every sample is in
//! genome order (`Dataset::validate`), so the chromosome and coordinate
//! bounds the predicate implies ([`RegionWindow`]) are found by binary
//! search (`Sample::window`) and the predicate is evaluated only on the
//! regions inside them — `O(log n + window)` per sample, not `O(n)`. The
//! windows are a superset of the answer and the whole predicate still
//! decides, so a predicate that implies no bound has the whole sample as
//! its window and nothing else changes.

use crate::ast::SemiJoin;
use crate::error::GmqlError;
use crate::exec::ExecOptions;
use crate::ops::{joinby_matches, unpack};
use crate::predicates::{MetaPredicate, RegionExpr};
use crate::scan::RegionWindow;
use nggc_engine::ExecContext;
use nggc_gdm::{Chrom, Dataset, GRegion, Provenance, Sample};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Execute SELECT. `ext` is the external dataset of the metadata
/// semijoin, when one is declared.
///
/// An owned `input` (the executor hands one over when this operator is
/// the dataset's last user) is filtered in place: surviving regions are
/// never copied, only the rejected ones are dropped. A borrowed input is
/// left untouched and the survivors are cloned out of it. Either way the
/// region predicate is evaluated only inside its windows; their total
/// size goes to `nggc_select_regions_scanned_total`.
pub fn select(
    ctx: &ExecContext,
    opts: &ExecOptions,
    meta: &MetaPredicate,
    region: Option<&RegionExpr>,
    semijoin: Option<&SemiJoin>,
    input: Cow<'_, Dataset>,
    ext: Option<&Dataset>,
) -> Result<Dataset, GmqlError> {
    let mut detail = match region {
        Some(r) => format!("{meta}; region: {r}"),
        None => meta.to_string(),
    };
    if let Some(sj) = semijoin {
        detail.push_str(&format!(
            "; semijoin: {} {}IN {}",
            sj.attrs.join(","),
            if sj.negated { "NOT " } else { "" },
            sj.external
        ));
    }
    let predicate = region.map(|r| r.bind(&input.schema));
    let keep = |r: &GRegion| predicate.as_ref().is_none_or(|p| p.eval_bool(r));
    let window = region.map(RegionWindow::of).unwrap_or_default();
    let (lo, hi) = (window.lo.unwrap_or(0), window.hi.unwrap_or(u64::MAX));
    // The chromosomes the predicate names, in genome order: the order
    // their windows lie in a sample, and so the order of the output.
    let named: Option<Vec<Chrom>> = window.chroms.as_ref().map(|names| {
        let mut chroms: Vec<Chrom> = names.iter().map(|n| Chrom::new(n)).collect();
        chroms.sort();
        chroms
    });
    // Where in `s.regions` the predicate can hold: everywhere when it
    // bounds nothing, else one window per chromosome it names or, when it
    // names none, per chromosome present.
    let windows = |s: &Sample| -> Vec<Range<usize>> {
        let present;
        let chroms = match &named {
            Some(named) => named,
            None if (lo, hi) == (0, u64::MAX) => {
                return std::iter::once(0..s.regions.len()).collect();
            }
            None => {
                present = s.chromosomes();
                &present
            }
        };
        let mut ranges: Vec<Range<usize>> = chroms.iter().map(|c| s.window(c, lo, hi)).collect();
        // Names that genome order does not tell apart share one run.
        ranges.dedup();
        ranges
    };

    // Combined sample-level admission: metadata predicate AND semijoin.
    let admit = |s: &Sample| -> bool {
        if !meta.eval(&s.metadata) {
            return false;
        }
        match (semijoin, ext) {
            (Some(sj), Some(ext_ds)) => {
                let matched = ext_ds
                    .samples
                    .iter()
                    .any(|e| joinby_matches(&s.metadata, &e.metadata, &sj.attrs));
                matched != sj.negated
            }
            (Some(sj), None) => {
                // Plan construction always supplies the external input.
                unreachable!("semijoin {sj:?} without external dataset")
            }
            (None, _) => true,
        }
    };

    // Regions the predicate was evaluated on, over all samples.
    let scanned = AtomicU64::new(0);
    let filter_regions = |s: Cow<'_, Sample>| -> Sample {
        let provenance = Provenance::derived("SELECT", detail.clone(), vec![s.provenance.clone()]);
        let ranges = windows(&s);
        scanned.fetch_add(ranges.iter().map(|w| w.len() as u64).sum(), Ordering::Relaxed);
        let (name, metadata, regions) = match s {
            Cow::Owned(mut s) => {
                // Survivors move to the front, in order; what is left
                // behind — rejected, or outside every window and never
                // looked at — is dropped.
                let mut kept = 0;
                for i in ranges.into_iter().flatten() {
                    if keep(&s.regions[i]) {
                        s.regions.swap(kept, i);
                        kept += 1;
                    }
                }
                s.regions.truncate(kept);
                (s.name, s.metadata, s.regions)
            }
            Cow::Borrowed(s) => (
                s.name.clone(),
                s.metadata.clone(),
                ranges
                    .into_iter()
                    .flat_map(|w| &s.regions[w])
                    .filter(|r| keep(r))
                    .cloned()
                    .collect(),
            ),
        };
        let mut out = Sample::derived(name, provenance);
        out.metadata = metadata;
        out.regions = regions;
        out
    };

    let (name, schema, mut samples) = unpack(input);
    let samples: Vec<Sample> = if opts.meta_first {
        // Evaluate the cheap metadata predicate (and semijoin) first and
        // only scan the regions of surviving samples.
        samples.retain(|s| admit(s));
        ctx.pool().parallel_map(samples, filter_regions)
    } else {
        // Ablation baseline: scan every sample's regions, then filter.
        let all = ctx.pool().parallel_map(samples, |s| {
            let keep = admit(&s);
            (keep, filter_regions(s))
        });
        all.into_iter().filter_map(|(keep, s)| keep.then_some(s)).collect()
    };

    let mut out = Dataset::new(name, schema);
    for s in samples {
        out.add_sample_unchecked(s);
    }
    nggc_obs::global().counter("nggc_select_regions_scanned_total").add(scanned.into_inner());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::{BinOp, CmpOp};
    use nggc_gdm::{Attribute, GRegion, Metadata, Schema, Strand, Value, ValueType};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![Attribute::new("p_value", ValueType::Float)]).unwrap();
        let mut ds = Dataset::new("D", schema);
        ds.add_sample(
            Sample::new("cancer1", "D")
                .with_regions(vec![
                    GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![Value::Float(0.001)]),
                    GRegion::new("chr1", 20, 30, Strand::Pos).with_values(vec![Value::Float(0.5)]),
                ])
                .with_metadata(Metadata::from_pairs([("karyotype", "cancer")])),
        )
        .unwrap();
        ds.add_sample(
            Sample::new("normal1", "D")
                .with_regions(vec![
                    GRegion::new("chr2", 5, 9, Strand::Neg).with_values(vec![Value::Float(0.002)])
                ])
                .with_metadata(Metadata::from_pairs([("karyotype", "normal")])),
        )
        .unwrap();
        ds
    }

    #[test]
    fn metadata_filtering_drops_samples() {
        let ctx = ExecContext::with_workers(2);
        let out = select(
            &ctx,
            &ExecOptions::default(),
            &MetaPredicate::eq("karyotype", "cancer"),
            None,
            None,
            Cow::Borrowed(&dataset()),
            None,
        )
        .unwrap();
        assert_eq!(out.sample_count(), 1);
        assert_eq!(out.samples[0].name, "cancer1");
        assert_eq!(out.samples[0].region_count(), 2, "regions untouched");
    }

    #[test]
    fn region_predicate_filters_regions() {
        let ctx = ExecContext::with_workers(2);
        let pred = RegionExpr::attr("p_value").cmp(CmpOp::Lt, RegionExpr::num(0.01));
        let out = select(
            &ctx,
            &ExecOptions::default(),
            &MetaPredicate::True,
            Some(&pred),
            None,
            Cow::Borrowed(&dataset()),
            None,
        )
        .unwrap();
        assert_eq!(out.sample_count(), 2, "both samples kept");
        assert_eq!(out.samples[0].region_count(), 1, "high-p region dropped");
        assert_eq!(out.samples[1].region_count(), 1);
    }

    #[test]
    fn meta_first_and_region_first_agree() {
        let ctx = ExecContext::with_workers(2);
        let pred = RegionExpr::attr("left").cmp(CmpOp::Ge, RegionExpr::Lit(Value::Int(5)));
        let meta = MetaPredicate::eq("karyotype", "normal");
        let a = select(
            &ctx,
            &ExecOptions { meta_first: true, ..Default::default() },
            &meta,
            Some(&pred),
            None,
            Cow::Borrowed(&dataset()),
            None,
        )
        .unwrap();
        let b = select(
            &ctx,
            &ExecOptions { meta_first: false, ..Default::default() },
            &meta,
            Some(&pred),
            None,
            Cow::Borrowed(&dataset()),
            None,
        )
        .unwrap();
        assert_eq!(a.sample_count(), b.sample_count());
        assert_eq!(a.samples[0].regions, b.samples[0].regions);
    }

    #[test]
    fn owned_input_gives_what_a_shared_input_gives() {
        let ctx = ExecContext::with_workers(2);
        let pred = RegionExpr::attr("p_value").cmp(CmpOp::Lt, RegionExpr::num(0.01));
        for meta_first in [true, false] {
            for (meta, region) in [
                (MetaPredicate::True, Some(&pred)),
                (MetaPredicate::eq("karyotype", "cancer"), Some(&pred)),
                (MetaPredicate::eq("karyotype", "normal"), None),
            ] {
                let opts = ExecOptions { meta_first, ..Default::default() };
                let shared = dataset();
                let a =
                    select(&ctx, &opts, &meta, region, None, Cow::Borrowed(&shared), None).unwrap();
                let b =
                    select(&ctx, &opts, &meta, region, None, Cow::Owned(dataset()), None).unwrap();
                assert_eq!((&a.name, &a.schema), (&b.name, &b.schema));
                assert_eq!(a.sample_count(), b.sample_count());
                for (sa, sb) in a.samples.iter().zip(&b.samples) {
                    assert_eq!(sa.name, sb.name);
                    assert_eq!(sa.regions, sb.regions);
                    assert_eq!(sa.metadata, sb.metadata);
                    assert_eq!(sa.provenance.to_string(), sb.provenance.to_string());
                }
                // The shared input is exactly what it was.
                let fresh = dataset();
                for (s, f) in shared.samples.iter().zip(&fresh.samples) {
                    assert_eq!(s.regions, f.regions);
                }
            }
        }
    }

    #[test]
    fn names_genome_order_cannot_tell_apart_are_visited_once() {
        // `chr01` sorts as `chr1`, so the two interleave by `left` in one
        // run, which is the window of both names.
        let mut ds = Dataset::new("D", Schema::new(vec![]).unwrap());
        ds.add_sample(Sample::new("s", "D").with_regions(vec![
            GRegion::new("chr1", 0, 5, Strand::Pos),
            GRegion::new("chr01", 3, 5, Strand::Pos),
            GRegion::new("chr1", 7, 9, Strand::Pos),
            GRegion::new("chr2", 4, 6, Strand::Pos),
        ]))
        .unwrap();
        let chr = |name: &str| RegionExpr::attr("chr").cmp(CmpOp::Eq, RegionExpr::Lit(name.into()));
        let either = RegionExpr::Binary(Box::new(chr("chr1")), BinOp::Or, Box::new(chr("chr01")));
        let from_3 = RegionExpr::attr("left").cmp(CmpOp::Ge, RegionExpr::Lit(Value::Int(3)));
        let ctx = ExecContext::serial();
        for (region, want) in [
            (either, vec![("chr1", 0), ("chr01", 3), ("chr1", 7)]),
            (chr("chr01"), vec![("chr01", 3)]),
            (from_3, vec![("chr01", 3), ("chr1", 7), ("chr2", 4)]),
        ] {
            for input in [Cow::Borrowed(&ds), Cow::Owned(ds.clone())] {
                let out = select(
                    &ctx,
                    &ExecOptions::default(),
                    &MetaPredicate::True,
                    Some(&region),
                    None,
                    input,
                    None,
                )
                .unwrap();
                let got: Vec<(&str, u64)> =
                    out.samples[0].regions.iter().map(|r| (r.chrom.as_str(), r.left)).collect();
                assert_eq!(got, want, "{region}");
            }
        }
    }

    #[test]
    fn provenance_records_predicate() {
        let ctx = ExecContext::with_workers(1);
        let out = select(
            &ctx,
            &ExecOptions::default(),
            &MetaPredicate::eq("karyotype", "cancer"),
            None,
            None,
            Cow::Borrowed(&dataset()),
            None,
        )
        .unwrap();
        let p = out.samples[0].provenance.to_string();
        assert!(p.contains("SELECT"));
        assert!(p.contains("karyotype"));
        assert_eq!(out.samples[0].provenance.sources(), vec![("D".into(), "cancer1".into())]);
    }
}
