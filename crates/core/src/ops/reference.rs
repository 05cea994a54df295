//! The pooled clone-and-sort implementations of COVER/FLAT/SUMMIT/
//! HISTOGRAM, MERGE, GROUP and DIFFERENCE that the run-merge operators
//! replaced, compiled for tests only: they are the reference the property
//! test below holds the live operators to — same regions in the same
//! order, same values, metadata and provenance, serial and on two workers.
//! With them, the SELECT that looks at every region, the reference of the
//! one that binary-searches its predicate's windows.

use crate::aggregates::{AggFunc, Aggregate};
use crate::ast::{AccBound, CoverVariant, GenometricClause, JoinOutput, Operator, SortDir};
use crate::error::GmqlError;
use crate::exec::ExecOptions;
use crate::ops::cover::summits;
use crate::ops::merge::partition_by_meta;
use crate::ops::{self, joinby_matches};
use crate::plan::infer_schema;
use crate::predicates::{BinOp, CmpOp, MetaPredicate, RegionExpr};
use nggc_engine::{
    coverage_segments, merge_cover, overlap_pairs_sort_merge_interruptible, ExecContext,
    CHECKPOINT_STRIDE,
};
use nggc_gdm::{
    Attribute, Chrom, Dataset, GRegion, Metadata, Provenance, Sample, Schema, Strand, Value,
    ValueType,
};
use proptest::prelude::*;
use std::borrow::Cow;
use std::cell::Cell;

/// Execute COVER/FLAT/SUMMIT/HISTOGRAM.
#[allow(clippy::too_many_arguments)]
fn cover(
    ctx: &ExecContext,
    variant: CoverVariant,
    min_acc: AccBound,
    max_acc: AccBound,
    groupby: &[String],
    aggs: &[(String, Aggregate)],
    input: &Dataset,
    out_schema: &Schema,
) -> Result<Dataset, GmqlError> {
    let resolved: Vec<(Aggregate, Option<usize>)> = aggs
        .iter()
        .map(|(_, agg)| agg.resolve(&input.schema).map(|(pos, _)| (agg.clone(), pos)))
        .collect::<Result<_, _>>()?;
    let groups = partition_by_meta(input, groupby);
    let detail = format!("{variant:?}({min_acc:?}, {max_acc:?})");

    let samples = ctx.pool().parallel_map(groups, |(key, members)| {
        let n = members.len();
        let min = min_acc.resolve(n, true).max(1);
        let max = max_acc.resolve(n, false);

        // Pool all regions of the group, sorted, then process per chrom.
        let mut pooled: Vec<GRegion> =
            members.iter().flat_map(|s| s.regions.iter().cloned()).collect();
        pooled.sort_by(|a, b| a.cmp_coords(b));
        let pool_sample =
            Sample::derived("pool", Provenance::source("tmp", "pool")).with_regions(pooled);

        let chroms: Vec<Chrom> = pool_sample.chromosomes();
        let per_chrom: Vec<Vec<GRegion>> = ctx.pool().parallel_map(chroms, |c| {
            // Job-boundary checkpoint: skip queued chromosome kernels
            // once the governor has tripped.
            if ctx.interrupted() {
                return Vec::new();
            }
            let slice = pool_sample.chrom_slice(&c);
            let intervals: Vec<(u64, u64)> = slice.iter().map(|r| (r.left, r.right)).collect();
            let segs = coverage_segments(&intervals);
            let shapes: Vec<(u64, u64, usize)> = match variant {
                CoverVariant::Cover => merge_cover(&segs, min, max),
                CoverVariant::Histogram => segs
                    .iter()
                    .filter(|s| s.acc >= min && s.acc <= max)
                    .map(|s| (s.left, s.right, s.acc))
                    .collect(),
                CoverVariant::Summit => summits(&segs, min, max),
                CoverVariant::Flat => merge_cover(&segs, min, max)
                    .into_iter()
                    .map(|(l, r, acc)| {
                        let (fl, fr) = flat_extent(slice, l, r);
                        (fl, fr, acc)
                    })
                    .collect(),
            };
            let mut regions = Vec::with_capacity(shapes.len());
            for (idx, (l, r, acc)) in shapes.into_iter().enumerate() {
                // The aggregate pass scans contributing regions per
                // shape; poll on a stride so wide covers abort mid-loop.
                if idx & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                    break;
                }
                let mut values = vec![Value::Int(acc as i64)];
                if !resolved.is_empty() {
                    // Contributing regions: those overlapping the output.
                    let contributing: Vec<&GRegion> = slice
                        .iter()
                        .filter(|x| nggc_gdm::interval_overlap(x.left, x.right, l, r))
                        .collect();
                    for (agg, pos) in &resolved {
                        let value = match pos {
                            Some(p) => {
                                let vals: Vec<&Value> =
                                    contributing.iter().map(|x| &x.values[*p]).collect();
                                agg.compute(&vals, contributing.len())
                            }
                            None => agg.compute(&[], contributing.len()),
                        };
                        values.push(value);
                    }
                }
                regions
                    .push(GRegion::new(c.as_str(), l, r, Strand::Unstranded).with_values(values));
            }
            regions
        });

        let provenance = Provenance::derived(
            variant.name(),
            detail.clone(),
            members.iter().map(|s| s.provenance.clone()).collect(),
        );
        let name = if key.is_empty() {
            variant.name().to_ascii_lowercase()
        } else {
            format!("{}_{}", variant.name().to_ascii_lowercase(), key.join("_"))
        };
        let mut metadata = Metadata::new();
        for s in &members {
            metadata.merge_from(&s.metadata, "");
        }
        for (attr, val) in groupby.iter().zip(&key) {
            if !val.is_empty() {
                metadata.insert(attr, val.clone());
            }
        }
        let mut out = Sample::derived(name, provenance);
        out.metadata = metadata;
        out.regions = per_chrom.into_iter().flatten().collect();
        out
    });

    let mut out = Dataset::new(input.name.clone(), out_schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

/// FLAT extent: the hull of the original regions intersecting `[l, r)`.
fn flat_extent(slice: &[GRegion], l: u64, r: u64) -> (u64, u64) {
    let mut fl = l;
    let mut fr = r;
    for x in slice {
        if x.left >= r {
            break;
        }
        if nggc_gdm::interval_overlap(x.left, x.right, l, r) {
            fl = fl.min(x.left);
            fr = fr.max(x.right);
        }
    }
    (fl, fr)
}

/// Execute MERGE.
fn merge(ctx: &ExecContext, groupby: &[String], input: &Dataset) -> Result<Dataset, GmqlError> {
    let groups = partition_by_meta(input, groupby);
    let detail =
        if groupby.is_empty() { String::new() } else { format!("groupby: {}", groupby.join(",")) };

    let samples = ctx.pool().parallel_map(groups, |(key, members)| {
        let provenance = Provenance::derived(
            "MERGE",
            detail.clone(),
            members.iter().map(|s| s.provenance.clone()).collect(),
        );
        let name =
            if key.is_empty() { "merged".to_owned() } else { format!("merged_{}", key.join("_")) };
        let mut out = Sample::derived(name, provenance);
        let mut metadata = Metadata::new();
        let mut regions: Vec<nggc_gdm::GRegion> = Vec::new();
        for s in &members {
            metadata.merge_from(&s.metadata, "");
            regions.extend(s.regions.iter().cloned());
        }
        for (attr, val) in groupby.iter().zip(&key) {
            if !val.is_empty() {
                metadata.insert(attr, val.clone());
            }
        }
        out.metadata = metadata;
        regions.sort_by(|a, b| a.cmp_coords(b));
        out.regions = regions;
        out
    });

    let mut out = Dataset::new(input.name.clone(), input.schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

/// Execute GROUP. `out_schema` = input schema + aggregate attributes.
fn group(
    ctx: &ExecContext,
    by: &[String],
    region_aggs: &[(String, Aggregate)],
    input: &Dataset,
    out_schema: &Schema,
) -> Result<Dataset, GmqlError> {
    let resolved: Vec<(Aggregate, Option<usize>)> = region_aggs
        .iter()
        .map(|(_, agg)| agg.resolve(&input.schema).map(|(pos, _)| (agg.clone(), pos)))
        .collect::<Result<_, _>>()?;
    let groups = partition_by_meta(input, by);
    let detail = format!("by: {}", by.join(","));

    let samples = ctx.pool().parallel_map(groups, |(key, members)| {
        let provenance = Provenance::derived(
            "GROUP",
            detail.clone(),
            members.iter().map(|s| s.provenance.clone()).collect(),
        );
        let name =
            if key.is_empty() { "group".to_owned() } else { format!("group_{}", key.join("_")) };
        let mut metadata = Metadata::new();
        for s in &members {
            metadata.merge_from(&s.metadata, "");
        }
        for (attr, val) in by.iter().zip(&key) {
            if !val.is_empty() {
                metadata.insert(attr, val.clone());
            }
        }
        // Pool all regions, sort, then fold runs of identical coordinates.
        let mut pooled: Vec<GRegion> =
            members.iter().flat_map(|s| s.regions.iter().cloned()).collect();
        pooled.sort_by(|a, b| a.cmp_coords(b));
        let mut regions: Vec<GRegion> = Vec::with_capacity(pooled.len());
        let mut i = 0;
        let mut tick = 0usize;
        while i < pooled.len() {
            // Stride checkpoint over the duplicate-fold loop: stop
            // folding once the governor trips (the executor raises the
            // typed error at the node boundary).
            if tick & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                break;
            }
            tick = tick.wrapping_add(1);
            let mut j = i + 1;
            while j < pooled.len() && pooled[j].cmp_coords(&pooled[i]) == std::cmp::Ordering::Equal
            {
                j += 1;
            }
            let dup = &pooled[i..j];
            let mut rep = dup[0].clone();
            for (agg, pos) in &resolved {
                let value = match pos {
                    Some(p) => {
                        let vals: Vec<&Value> = dup.iter().map(|r| &r.values[*p]).collect();
                        agg.compute(&vals, dup.len())
                    }
                    None => agg.compute(&[], dup.len()),
                };
                rep.values.push(value);
            }
            regions.push(rep);
            i = j;
        }
        let mut out = Sample::derived(name, provenance);
        out.metadata = metadata;
        out.regions = regions;
        out
    });

    let mut out = Dataset::new(input.name.clone(), out_schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

/// Execute DIFFERENCE.
fn difference(
    ctx: &ExecContext,
    exact: bool,
    joinby: &[String],
    left: &Dataset,
    right: &Dataset,
) -> Result<Dataset, GmqlError> {
    let detail = format!("exact: {exact}; joinby: {}", joinby.join(","));

    let samples = ctx.map_samples(&left.samples, |ls| {
        // Build the negative set for this left sample.
        let negatives: Vec<&Sample> = right
            .samples
            .iter()
            .filter(|rs| joinby_matches(&ls.metadata, &rs.metadata, joinby))
            .collect();
        let mut neg_regions: Vec<GRegion> =
            negatives.iter().flat_map(|s| s.regions.iter().cloned()).collect();
        neg_regions.sort_by(|a, b| a.cmp_coords(b));
        let neg_sample =
            Sample::derived("neg", Provenance::source("tmp", "neg")).with_regions(neg_regions);

        // Per-chromosome removal using the sort-merge kernel.
        let kept: Vec<GRegion> = ls
            .chromosomes()
            .into_iter()
            .flat_map(|c| {
                // Chromosome-boundary checkpoint: a tripped governor
                // stops the removal scan; the executor raises the typed
                // error when the operator returns.
                if ctx.interrupted() {
                    return Vec::new();
                }
                let mine = ls.chrom_slice(&c);
                let theirs = neg_sample.chrom_slice(&c);
                let mut removed = vec![false; mine.len()];
                if exact {
                    for (i, r) in mine.iter().enumerate() {
                        // The exact path scans the whole negative set per
                        // region (O(n·m)); poll on a stride.
                        if i & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                            break;
                        }
                        removed[i] =
                            theirs.iter().any(|n| n.cmp_coords(r) == std::cmp::Ordering::Equal);
                    }
                } else {
                    let tripped = Cell::new(false);
                    let tick = Cell::new(0usize);
                    let stop = || tripped.get() || ctx.interrupted();
                    overlap_pairs_sort_merge_interruptible(mine, theirs, stop, |i, j| {
                        if tripped.get() {
                            return;
                        }
                        let t = tick.get();
                        tick.set(t.wrapping_add(1));
                        if t & (CHECKPOINT_STRIDE - 1) == 0 && ctx.interrupted() {
                            tripped.set(true);
                            return;
                        }
                        if mine[i].strand.compatible(theirs[j].strand) {
                            removed[i] = true;
                        }
                    });
                }
                mine.iter()
                    .zip(removed)
                    .filter(|&(_r, gone)| !gone)
                    .map(|(r, _gone)| r.clone())
                    .collect::<Vec<_>>()
            })
            .collect();

        let mut provs = vec![ls.provenance.clone()];
        provs.extend(negatives.iter().map(|s| s.provenance.clone()));
        let mut out = Sample::derived(
            ls.name.clone(),
            Provenance::derived("DIFFERENCE", detail.clone(), provs),
        );
        out.metadata = ls.metadata.clone();
        out.regions = kept;
        out
    });

    let mut out = Dataset::new(left.name.clone(), left.schema.clone());
    for s in samples {
        out.add_sample_unchecked(s);
    }
    Ok(out)
}

/// Execute SELECT with a region predicate only: every region of every
/// sample is put to the unbound evaluator.
fn select(region: &RegionExpr, input: &Dataset) -> Dataset {
    let mut out = Dataset::new(input.name.clone(), input.schema.clone());
    for s in &input.samples {
        let mut kept = Sample::derived(
            s.name.clone(),
            Provenance::derived(
                "SELECT",
                format!("TRUE; region: {region}"),
                vec![s.provenance.clone()],
            ),
        );
        kept.metadata = s.metadata.clone();
        kept.regions = s
            .regions
            .iter()
            .filter(|r| region.eval(r, &input.schema) == Value::Bool(true))
            .cloned()
            .collect();
        out.add_sample_unchecked(kept);
    }
    out
}

/// A random region predicate, most of them bounding chromosomes or
/// coordinates somewhere: `chr` against the chromosomes of
/// [`random_dataset`], one no sample has and one genome order cannot tell
/// from `chr1`; `left`/`right` under every comparison against literals
/// inside and outside what a coordinate can be; the value columns
/// `float_attr` and `int_attr`; attributes compared with each other; all
/// of it under AND, OR and NOT.
fn random_predicate(rng: &mut TestRng, float_attr: &str, int_attr: &str, depth: u32) -> RegionExpr {
    fn pick<T: Clone>(rng: &mut TestRng, of: &[T]) -> T {
        of[rng.below(of.len() as u64) as usize].clone()
    }
    let cmp = |a: RegionExpr, op: CmpOp, b: RegionExpr| a.cmp(op, b);
    let any_op = [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne];
    let bound = [
        Value::Int(-3),
        Value::Int(0),
        Value::Int(5),
        Value::Int(10),
        Value::Int(20),
        Value::Int(39),
        Value::Int(60),
        Value::Int(i64::MAX),
        Value::Float(-1.5),
        Value::Float(-0.0),
        Value::Float(4.5),
        Value::Float(10.0),
        Value::Float(20.5),
        Value::Float(f64::NAN),
        Value::Float(1e30),
        Value::Float(9_007_199_254_740_992.0),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Str("10".into()),
        Value::Bool(true),
        Value::Null,
    ];
    let chrom = ["chr1", "chr2", "chr10", "chrX", "chrUn", "chr7", "chr01", " chr2"];
    let coord = ["left", "right", "LEFT", "Right"];
    match rng.below(if depth == 0 { 7 } else { 12 }) {
        0 | 1 => {
            let (a, b) = (RegionExpr::attr("chr"), RegionExpr::Lit(pick(rng, &chrom).into()));
            let op = if rng.below(8) == 0 { CmpOp::Ne } else { CmpOp::Eq };
            if rng.below(4) == 0 {
                cmp(b, op, a)
            } else {
                cmp(a, op, b)
            }
        }
        2 | 3 => {
            let (a, b) = (RegionExpr::attr(pick(rng, &coord)), RegionExpr::Lit(pick(rng, &bound)));
            // Mostly the four that can bound a window.
            let ops = if rng.below(6) == 0 { &any_op[..] } else { &any_op[..4] };
            let op = pick(rng, ops);
            if rng.below(6) == 0 {
                cmp(b, op, a)
            } else {
                cmp(a, op, b)
            }
        }
        4 => cmp(
            RegionExpr::attr(float_attr),
            pick(rng, &any_op),
            RegionExpr::num(rng.below(7) as f64 * 0.1 + 0.25),
        ),
        5 => cmp(
            RegionExpr::attr(pick(rng, &["chr", "left", "right", "len", "strand"])),
            pick(rng, &any_op),
            RegionExpr::attr(pick(rng, &[float_attr, int_attr, "left", "strand"])),
        ),
        6 => cmp(
            RegionExpr::attr(pick(rng, &["len", "strand", int_attr])),
            pick(rng, &any_op),
            RegionExpr::Lit(pick(rng, &[Value::Int(1), Value::Int(10), Value::Str("+".into())])),
        ),
        7 => RegionExpr::Not(Box::new(random_predicate(rng, float_attr, int_attr, depth - 1))),
        n => RegionExpr::Binary(
            Box::new(random_predicate(rng, float_attr, int_attr, depth - 1)),
            if n == 8 { BinOp::Or } else { BinOp::And },
            Box::new(random_predicate(rng, float_attr, int_attr, depth - 1)),
        ),
    }
}

/// A small random dataset: 1–6 samples over up to four chromosomes plus
/// one chromosome only the first sample has; coordinates from a narrow
/// range so duplicates, touching, nested and zero-length regions are
/// common; mixed strands; nulls and NaN in the aggregated columns.
fn random_dataset(name: &str, rng: &mut TestRng) -> Dataset {
    let schema = Schema::new(vec![
        Attribute::new("signal", ValueType::Float),
        Attribute::new("hits", ValueType::Int),
    ])
    .unwrap();
    let mut ds = Dataset::new(name, schema);
    let chroms = ["chr1", "chr2", "chr10", "chrX"];
    let n_chroms = rng.below(5) as usize;
    for i in 0..1 + rng.below(6) {
        let mut regions = Vec::new();
        let lone = (i == 0 && rng.below(2) == 0).then_some("chrUn");
        for chrom in chroms[..n_chroms].iter().copied().chain(lone) {
            for _ in 0..rng.below(9) {
                let left = rng.below(40);
                let width = [0, 0, 1, 5, 10, 10, 25][rng.below(7) as usize];
                let strand = [Strand::Pos, Strand::Neg, Strand::Unstranded][rng.below(3) as usize];
                let signal = match rng.below(6) {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    _ => Value::Float(rng.below(7) as f64 * 0.1 + 0.3),
                };
                let hits =
                    if rng.below(5) == 0 { Value::Null } else { Value::Int(rng.below(4) as i64) };
                regions.push(
                    GRegion::new(chrom, left, left + width, strand).with_values(vec![signal, hits]),
                );
            }
        }
        let mut metadata = Metadata::from_pairs([("replicate", &*format!("{i}"))]);
        if let Some(cell) = [None, Some("A"), Some("B")][rng.below(3) as usize] {
            metadata.insert("cell", cell);
        }
        ds.add_sample(
            Sample::new(format!("s{i}"), name).with_regions(regions).with_metadata(metadata),
        )
        .unwrap();
    }
    ds
}

/// Everything an operator result says, sample ids aside; NaN prints as
/// itself, so equal digests mean equal results where `==` would not.
fn digest(ds: &Dataset) -> Vec<String> {
    let sample =
        |s: &Sample| format!("{} {:?} {:?} {:?}", s.name, s.metadata, s.provenance, s.regions);
    std::iter::once(format!("{} {:?}", ds.name, ds.schema))
        .chain(ds.samples.iter().map(sample))
        .collect()
}

proptest! {
#![proptest_config(ProptestConfig::with_cases(384))]

#[test]
fn run_merge_operators_equal_the_pooled_reference(seed in any::<u64>()) {
    let rng = &mut TestRng::deterministic(seed);
    let (ds, other) = (random_dataset("D", rng), random_dataset("N", rng));
    let bound = |rng: &mut TestRng| {
        [AccBound::Value(1), AccBound::Value(2), AccBound::All, AccBound::Any][rng.below(4) as usize]
    };
    let (min_acc, max_acc) = (bound(rng), bound(rng));
    let groupby = if rng.below(2) == 0 { vec![] } else { vec!["cell".to_owned()] };
    let aggs: Vec<(String, Aggregate)> = if rng.below(2) == 0 {
        vec![]
    } else {
        vec![
            ("n".into(), Aggregate::count()),
            ("avg".into(), Aggregate::over(AggFunc::Avg, "signal")),
            ("med".into(), Aggregate::over(AggFunc::Median, "signal")),
            ("bag".into(), Aggregate::over(AggFunc::Bag, "signal")),
            ("sum".into(), Aggregate::over(AggFunc::Sum, "signal")),
            ("total".into(), Aggregate::over(AggFunc::Sum, "hits")),
        ]
    };
    let exact = rng.below(2) == 0;
    let contexts = [ExecContext::serial(), ExecContext::with_workers(2)];

    for variant in [CoverVariant::Cover, CoverVariant::Flat, CoverVariant::Summit, CoverVariant::Histogram] {
        let op = Operator::Cover { variant, min_acc, max_acc, groupby: groupby.clone(), aggs: aggs.clone() };
        let schema = infer_schema(&op, &[&ds.schema]).unwrap();
        let want = cover(&contexts[0], variant, min_acc, max_acc, &groupby, &aggs, &ds, &schema).unwrap();
        for ctx in &contexts {
            let got = ops::cover::cover(ctx, variant, min_acc, max_acc, &groupby, &aggs, &ds, &schema).unwrap();
            prop_assert_eq!(digest(&got), digest(&want), "{:?} on {} workers", op, ctx.workers());
        }
    }
    let op = Operator::Group { by: groupby.clone(), region_aggs: aggs.clone() };
    let schema = infer_schema(&op, &[&ds.schema]).unwrap();
    let want_group = group(&contexts[0], &groupby, &aggs, &ds, &schema).unwrap();
    let want_merge = merge(&contexts[0], &groupby, &ds).unwrap();
    let want_diff = difference(&contexts[0], exact, &groupby, &ds, &other).unwrap();
    for ctx in &contexts {
        let got = ops::group::group(ctx, &groupby, &aggs, &ds, &schema).unwrap();
        prop_assert_eq!(digest(&got), digest(&want_group), "{:?} on {} workers", op, ctx.workers());
        let got = ops::merge::merge(ctx, &groupby, &ds).unwrap();
        prop_assert_eq!(digest(&got), digest(&want_merge), "MERGE on {} workers", ctx.workers());
        let got = ops::difference::difference(ctx, exact, &groupby, &ds, &other).unwrap();
        prop_assert_eq!(digest(&got), digest(&want_diff), "DIFFERENCE exact={} on {} workers", exact, ctx.workers());
    }
}}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// SELECT evaluating its predicate only inside the windows the
    /// predicate implies gives what a scan of every region gives — on a
    /// shared input and on one it owns, serial and on two workers, on a
    /// source, after ORDER with a region top-k and after JOIN.
    #[test]
    fn windowed_select_equals_the_scan(seed in any::<u64>()) {
        let rng = &mut TestRng::deterministic(seed);
        let (ds, other) = (random_dataset("D", rng), random_dataset("N", rng));
        let contexts = [ExecContext::serial(), ExecContext::with_workers(2)];
        let serial = &contexts[0];

        let top = Some(rng.below(12) as usize);
        let ordered =
            ops::order::order(serial, &[], None, &[("signal".into(), SortDir::Desc)], top, &ds)
                .unwrap();
        let output = [JoinOutput::Left, JoinOutput::Right, JoinOutput::Intersection, JoinOutput::Contig]
            [rng.below(4) as usize];
        let clauses = vec![GenometricClause::DistLessEq(5)];
        let op = Operator::Join { clauses: clauses.clone(), output, joinby: vec![] };
        let schema = infer_schema(&op, &[&ds.schema, &other.schema]).unwrap();
        let joined = ops::join::join(serial, &clauses, output, &[], &ds, &other, &schema).unwrap();

        let on_source = random_predicate(rng, "signal", "hits", 3);
        let on_join = random_predicate(rng, "left.signal", "right.hits", 3);
        for (input, region) in [(&ds, &on_source), (&ordered, &on_source), (&joined, &on_join)] {
            let want = select(region, input);
            for ctx in &contexts {
                for owned in [false, true] {
                    let given =
                        if owned { Cow::Owned(input.clone()) } else { Cow::Borrowed(input) };
                    let got = ops::select::select(
                        ctx,
                        &ExecOptions::default(),
                        &MetaPredicate::True,
                        Some(region),
                        None,
                        given,
                        None,
                    )
                    .unwrap();
                    prop_assert_eq!(
                        digest(&got),
                        digest(&want),
                        "{} on {} (owned: {}, {} workers)",
                        region, input.name, owned, ctx.workers()
                    );
                }
            }
        }
    }
}
