//! Scan pruning: derive per-source [`ScanSpec`]s from a logical plan.
//!
//! Queries frequently touch a sliver of each source dataset — one
//! chromosome out of 24, two value columns out of seven — yet a plain
//! load decodes every byte. The v2 container indexes blocks by
//! chromosome and stores columns separately, so whatever the plan
//! *provably* does not need can be skipped where the data lives
//! (predicate/projection pushdown). This module is the "provably" part:
//! a static analysis over the [`LogicalPlan`] that computes, per
//! `Source` node,
//!
//! - the set of chromosomes the rest of the plan can observe
//!   (from `SELECT` region predicates and JOIN/MAP partner extents),
//! - the set of value columns any operator reads,
//! - the samples the rest of the plan can observe (from `SELECT`
//!   metadata predicates: metadata-first, starting at the container), and
//! - an optional coordinate range (EXPLAIN renders it; no block is
//!   dropped by it).
//!
//! The first and the last come from [`RegionWindow`], the part of genome
//! order a region predicate can match. `SELECT` reads the same window of
//! its own predicate to find, by binary search, the regions it has to
//! look at (`ops::select`): what prunes the container on disk and what
//! slices a resident sample in memory is one analysis.
//!
//! ## Soundness
//!
//! The analysis is conservative in both directions:
//!
//! - **Chromosomes.** A forward pass computes `guarantee[n]` — the
//!   chromosomes node `n`'s output regions can lie on (`None` =
//!   unbounded) — and a backward pass computes `need[n]` — the
//!   chromosomes whose regions downstream can observe. Operators whose
//!   *sample set* or *metadata* depends on region content on other
//!   chromosomes reset the need to "all": `EXTEND` (aggregates over
//!   every region), `ORDER` with a region top-k, `COVER` (sample
//!   emission depends on accumulation), and the backward direction of
//!   `JOIN` (a pair with zero matches emits no sample, so partner
//!   *guarantees* are used instead of downstream needs).
//! - **Columns.** A column must be loaded iff some operator reads its
//!   *values* — predicates, projection expressions, aggregate inputs,
//!   region sort keys. Pruned columns still occupy their schema
//!   position (typed nulls), so column pruning never changes region
//!   existence or coordinates, only the values of columns nothing
//!   reads.
//! - **Samples.** A sample may be left out of a source iff every path
//!   from the source to an output passes, before anything else looks at
//!   samples, through `SELECT`s whose metadata predicates it fails. The
//!   demand is narrowed **only** at `SELECT` (its predicate AND the
//!   demand on its output — `SELECT` hands an admitted sample's metadata
//!   on untouched, so both are read off the stored metadata; the
//!   semijoin is ignored, a superset), passes through a region-only
//!   `PROJECT` (one output sample per input sample, metadata untouched:
//!   `ops::project` pins it), and is dropped by every other operator:
//!   they rewrite, merge or group metadata, or what they emit for one
//!   sample depends on the others. Consumers of one node unite with OR.
//!   The predicate that prunes is the `MetaPredicate` the operator then
//!   evaluates again, on the same stored metadata.
//!
//! Anything the analysis cannot bound stays `None` ("load
//! everything"), so an unknown operator shape degrades to today's full
//! scan, never to a wrong answer.

use crate::ast::Operator;
use crate::plan::{LogicalPlan, NodeId, PlanOp};
use crate::predicates::{BinOp, CmpOp, MetaPredicate, RegionExpr};
use nggc_gdm::Value;
use std::collections::{BTreeSet, HashMap};

/// Version of the scan-spec derivation, mixed into plan fingerprints so
/// cached results can never alias across pruning-semantics changes.
pub const SCAN_SPEC_VERSION: u32 = 1;

/// What a source scan provably needs. `None` means "everything" on
/// every axis; the coordinate range is sound (see [`RegionWindow`]) but
/// only rendered by EXPLAIN: blocks hold whole chromosomes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanSpec {
    /// Chromosomes downstream can observe; `None` = all.
    pub chroms: Option<BTreeSet<String>>,
    /// Value columns (lowercased) some operator reads; `None` = all.
    pub columns: Option<BTreeSet<String>>,
    /// Lower coordinate bound from `left >=`-style predicates.
    pub lo: Option<u64>,
    /// Upper coordinate bound from `right <=`-style predicates.
    pub hi: Option<u64>,
    /// Samples downstream can observe, by their stored metadata: one
    /// that fails the predicate may be left out; `None` = all.
    pub samples: Option<MetaPredicate>,
}

impl ScanSpec {
    /// True when the spec restricts nothing — a pruned load with a
    /// trivial spec is exactly a full load.
    pub fn is_trivial(&self) -> bool {
        self.chroms.is_none() && self.columns.is_none() && self.samples.is_none()
    }

    /// Human-readable form for EXPLAIN:
    /// `chr21 [5000000..] cols 2/7 samples[cell == 'K562']`.
    /// `total_cols` is the source schema width when known.
    pub fn render(&self, total_cols: Option<usize>) -> String {
        let mut parts = Vec::new();
        match &self.chroms {
            None => parts.push("*".to_string()),
            Some(set) if set.is_empty() => parts.push("(none)".to_string()),
            Some(set) => parts.push(set.iter().cloned().collect::<Vec<_>>().join(",")),
        }
        if self.lo.is_some() || self.hi.is_some() {
            let lo = self.lo.map(|v| v.to_string()).unwrap_or_default();
            let hi = self.hi.map(|v| v.to_string()).unwrap_or_default();
            parts.push(format!("[{lo}..{hi}]"));
        }
        if let Some(cols) = &self.columns {
            match total_cols {
                Some(t) => parts.push(format!("cols {}/{t}", cols.len().min(t))),
                None => parts.push(format!("cols {}", cols.len())),
            }
        }
        if let Some(samples) = &self.samples {
            parts.push(format!("samples[{samples}]"));
        }
        parts.join(" ")
    }
}

// ---------------------------------------------------------------------------
// Region-expression analysis
// ---------------------------------------------------------------------------

/// Coordinate pseudo-attributes resolved positionally, never from value
/// columns (mirrors `predicates::RegionExpr` fixed-attribute handling).
fn is_fixed_attr(lower: &str) -> bool {
    matches!(lower, "chr" | "left" | "right" | "strand" | "len")
}

/// Collect the value columns a region expression reads (lowercased).
fn expr_value_attrs(expr: &RegionExpr, out: &mut BTreeSet<String>) {
    match expr {
        RegionExpr::Attr(name) => {
            let lower = name.to_ascii_lowercase();
            if !is_fixed_attr(&lower) {
                out.insert(lower);
            }
        }
        RegionExpr::Lit(_) => {}
        RegionExpr::Binary(a, _, b) => {
            expr_value_attrs(a, out);
            expr_value_attrs(b, out);
        }
        RegionExpr::Not(inner) => expr_value_attrs(inner, out),
    }
}

/// The part of genome order a region predicate can match: a **sound
/// superset**, so that whoever evaluates the predicate only on regions
/// inside the window loses none that satisfy it.
///
/// A region passes a predicate only if the predicate evaluates to
/// `true` — null is not true — so each side of an `AND` is a necessary
/// condition (bounds intersect) and one side of an `OR` is (bounds
/// unite; a side that bounds nothing leaves the axis unbounded). The
/// comparisons recognised are `chr == 'name'` (either order) and
/// `left`/`right` against a literal; `NOT`, arithmetic, comparisons
/// between attributes and everything else bound nothing.
///
/// Coordinate bounds are inclusive. A strict comparison gives the bound
/// of its non-strict twin (`left > 5` ⇒ `lo = 5`), a float literal is
/// rounded inward (`left >= 5.5` ⇒ `lo = 6`, `right <= 5.5` ⇒ `hi = 5`),
/// and a literal that is negative, NaN, not a number or a float of 2⁵³
/// or more — where the evaluator's `u64 → f64` conversion stops being
/// exact — bounds nothing. The evaluator compares coordinates as `i64`,
/// so the claim holds for coordinates below 2⁶³, the ones it orders
/// correctly itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionWindow {
    /// Chromosomes a matching region can lie on; `None` = any.
    pub chroms: Option<BTreeSet<String>>,
    /// Every matching region has `left >= lo`.
    pub lo: Option<u64>,
    /// Every matching region has `right <= hi`, hence `left <= hi`.
    pub hi: Option<u64>,
}

impl RegionWindow {
    /// The window of `expr`.
    pub fn of(expr: &RegionExpr) -> RegionWindow {
        let RegionExpr::Binary(a, op, b) = expr else { return RegionWindow::default() };
        let is = |attr: &str, name: &str| attr.eq_ignore_ascii_case(name);
        match (&**a, op, &**b) {
            (_, BinOp::And, _) => RegionWindow::of(a).and(RegionWindow::of(b)),
            (_, BinOp::Or, _) => RegionWindow::of(a).or(RegionWindow::of(b)),
            (RegionExpr::Attr(n), BinOp::Cmp(CmpOp::Eq), RegionExpr::Lit(Value::Str(s)))
            | (RegionExpr::Lit(Value::Str(s)), BinOp::Cmp(CmpOp::Eq), RegionExpr::Attr(n))
                if is(n, "chr") =>
            {
                RegionWindow { chroms: Some(BTreeSet::from([s.clone()])), ..Default::default() }
            }
            (RegionExpr::Attr(n), BinOp::Cmp(CmpOp::Gt | CmpOp::Ge), RegionExpr::Lit(v))
                if is(n, "left") =>
            {
                RegionWindow { lo: coord_bound(v, f64::ceil), ..Default::default() }
            }
            (RegionExpr::Attr(n), BinOp::Cmp(CmpOp::Lt | CmpOp::Le), RegionExpr::Lit(v))
                if is(n, "right") =>
            {
                RegionWindow { hi: coord_bound(v, f64::floor), ..Default::default() }
            }
            _ => RegionWindow::default(),
        }
    }

    /// What both `self` and `other` admit.
    fn and(self, other: RegionWindow) -> RegionWindow {
        RegionWindow {
            chroms: intersect_opt(self.chroms, other.chroms),
            // The tighter of the bounds there are.
            lo: self.lo.into_iter().chain(other.lo).max(),
            hi: self.hi.into_iter().chain(other.hi).min(),
        }
    }

    /// What `self` or `other` admits.
    fn or(self, other: RegionWindow) -> RegionWindow {
        RegionWindow {
            chroms: union_opt(self.chroms, other.chroms),
            lo: self.lo.zip(other.lo).map(|(x, y)| x.min(y)),
            hi: self.hi.zip(other.hi).map(|(x, y)| x.max(y)),
        }
    }
}

/// The coordinate a `left`/`right` comparison against `v` bounds, `round`
/// taking a float inward; `None` when `v` bounds nothing.
fn coord_bound(v: &Value, round: fn(f64) -> f64) -> Option<u64> {
    /// Below 2⁵³ every integer is an `f64`, so comparing a coordinate to a
    /// float as floats orders them as the numbers they are.
    const EXACT: std::ops::Range<f64> = 0.0..9_007_199_254_740_992.0;
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::Float(f) if EXACT.contains(f) => Some(round(*f) as u64),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Chromosome-set lattice helpers (`None` = unbounded/all)
// ---------------------------------------------------------------------------

fn intersect_opt(
    a: Option<BTreeSet<String>>,
    b: Option<BTreeSet<String>>,
) -> Option<BTreeSet<String>> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.intersection(&y).cloned().collect()),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

fn union_opt(a: Option<BTreeSet<String>>, b: Option<BTreeSet<String>>) -> Option<BTreeSet<String>> {
    match (a, b) {
        (Some(mut x), Some(y)) => {
            x.extend(y);
            Some(x)
        }
        _ => None,
    }
}

fn agg_attrs(aggs: &[(String, crate::aggregates::Aggregate)]) -> BTreeSet<String> {
    aggs.iter().filter_map(|(_, a)| a.attr.as_ref().map(|s| s.to_ascii_lowercase())).collect()
}

// ---------------------------------------------------------------------------
// Derivation
// ---------------------------------------------------------------------------

/// What one consumer demands of one of its inputs.
#[derive(Clone, Default)]
struct Demand {
    /// Where the regions it can observe lie.
    window: RegionWindow,
    cols: Option<BTreeSet<String>>,
    /// The samples it can observe; `None` = all.
    samples: Option<MetaPredicate>,
}

impl Demand {
    /// Demand everything (the safe top of the lattice).
    fn all() -> Demand {
        Demand::default()
    }

    /// Every coordinate on `chroms`, and the values of `cols` only.
    fn coords_on(chroms: Option<BTreeSet<String>>, cols: BTreeSet<String>) -> Demand {
        Demand {
            window: RegionWindow { chroms, ..Default::default() },
            cols: Some(cols),
            samples: None,
        }
    }

    /// `self`, reading `more` columns besides.
    fn reading(mut self, more: impl IntoIterator<Item = String>) -> Demand {
        if let Some(cols) = &mut self.cols {
            cols.extend(more);
        }
        self
    }
}

/// Accumulated demand on a node across all of its consumers.
#[derive(Clone)]
struct NeedAcc {
    /// False until some consumer (or an output) contributes; an
    /// untouched node is dead and gets no pruning either way.
    seen: bool,
    need: Demand,
}

impl NeedAcc {
    fn widen(&mut self, d: Demand) {
        if !self.seen {
            self.seen = true;
            self.need = d;
            return;
        }
        let n = &mut self.need;
        // A bound survives only when every consumer has one.
        n.window = std::mem::take(&mut n.window).or(d.window);
        n.cols = union_opt(std::mem::take(&mut n.cols), d.cols);
        n.samples = match (n.samples.take(), d.samples) {
            (Some(a), Some(b)) if a == b => Some(a),
            (Some(a), Some(b)) => Some(a.or(b)),
            _ => None,
        };
    }
}

/// Derive a [`ScanSpec`] for every `Source` node of `plan`. Runs on the
/// plan exactly as it will execute (optimized or not); sources nothing
/// reaches get a trivial spec.
pub fn derive_scan_specs(plan: &LogicalPlan) -> HashMap<NodeId, ScanSpec> {
    let n = plan.nodes.len();

    // Forward pass: guarantee[i] = chromosomes node i's output regions
    // can lie on (None = unbounded).
    let mut guarantee: Vec<Option<BTreeSet<String>>> = Vec::with_capacity(n);
    for node in &plan.nodes {
        let gi = match &node.op {
            PlanOp::Source(_) => None,
            PlanOp::Apply(op) => {
                let gin = |k: usize| guarantee[node.inputs[k]].clone();
                match op {
                    Operator::Select { region, .. } => intersect_opt(
                        gin(0),
                        region.as_ref().and_then(|r| RegionWindow::of(r).chroms),
                    ),
                    // Region-preserving unary operators: output regions
                    // lie on input chromosomes.
                    Operator::Project { .. }
                    | Operator::Extend { .. }
                    | Operator::Merge { .. }
                    | Operator::Group { .. }
                    | Operator::Order { .. }
                    | Operator::Cover { .. } => gin(0),
                    Operator::Union => union_opt(gin(0), gin(1)),
                    Operator::Difference { .. } => gin(0),
                    // JOIN matches regions on the same chromosome only.
                    Operator::Join { .. } => intersect_opt(gin(0), gin(1)),
                    Operator::Map { .. } => gin(0),
                }
            }
        };
        guarantee.push(gi);
    }

    // Backward pass: accumulate demand from outputs down to sources.
    let mut acc: Vec<NeedAcc> = vec![NeedAcc { seen: false, need: Demand::all() }; n];
    for (_, id) in &plan.outputs {
        acc[*id].widen(Demand::all());
    }
    for i in (0..n).rev() {
        if !acc[i].seen {
            continue;
        }
        let mut need = acc[i].need.clone();
        // The sample demand stops here unless the operator below is one
        // of the two that hand it on (module docs, "Samples").
        let observed = need.samples.take();
        let node = &plan.nodes[i];
        let demands: Vec<Demand> = match &node.op {
            PlanOp::Source(_) => continue,
            PlanOp::Apply(op) => match op {
                Operator::Select { meta, region, .. } => {
                    let mut pred_cols = BTreeSet::new();
                    let mut window = need.window;
                    if let Some(expr) = region {
                        expr_value_attrs(expr, &mut pred_cols);
                        window = window.and(RegionWindow::of(expr));
                    }
                    let samples = match (meta, observed) {
                        (MetaPredicate::True, observed) => observed,
                        (meta, None) => Some(meta.clone()),
                        (meta, Some(observed)) => Some(meta.clone().and(observed)),
                    };
                    let d0 = Demand { window, cols: need.cols, samples }.reading(pred_cols);
                    // A semijoin partner (second input) only has its
                    // metadata inspected, but stay conservative.
                    let mut v = vec![d0];
                    v.extend(node.inputs.iter().skip(1).map(|_| Demand::all()));
                    v
                }
                Operator::Project { attrs, new_attrs, meta_attrs } => {
                    let mut expr_cols = BTreeSet::new();
                    for (_, e) in new_attrs {
                        expr_value_attrs(e, &mut expr_cols);
                    }
                    // Of the columns downstream reads, the kept ones.
                    let kept = attrs.as_ref().map(|kept| {
                        kept.iter().map(|s| s.to_ascii_lowercase()).collect::<BTreeSet<String>>()
                    });
                    let cols = intersect_opt(need.cols, kept);
                    // A `meta:` clause rewrites the metadata downstream
                    // predicates were written against.
                    let samples = if meta_attrs.is_none() { observed } else { None };
                    vec![Demand { window: need.window, cols, samples }.reading(expr_cols)]
                }
                Operator::Extend { assignments } => {
                    // Metadata aggregates run over *every* region of the
                    // sample: pruning any chromosome would change them.
                    vec![Demand { window: RegionWindow::default(), ..need }
                        .reading(agg_attrs(assignments))]
                }
                Operator::Merge { .. } => vec![need],
                Operator::Group { region_aggs, .. } => vec![need.reading(agg_attrs(region_aggs))],
                Operator::Order { region_keys, region_top, .. } => {
                    // A region top-k ranks regions across the whole
                    // sample, so every chromosome participates.
                    let window =
                        if region_top.is_none() { need.window } else { RegionWindow::default() };
                    vec![Demand { window, ..need }
                        .reading(region_keys.iter().map(|(name, _)| name.to_ascii_lowercase()))]
                }
                Operator::Union => vec![need.clone(), need],
                Operator::Difference { .. } => {
                    // The right side contributes coordinates only, and
                    // only on chromosomes the (needed part of the) left
                    // side can populate.
                    let right_chroms = intersect_opt(
                        need.window.chroms.clone(),
                        guarantee[node.inputs[0]].clone(),
                    );
                    vec![need, Demand::coords_on(right_chroms, BTreeSet::new())]
                }
                Operator::Join { .. } => {
                    // Backward need is unsound through JOIN (a pair with
                    // zero matching regions emits no sample), so each
                    // side is bounded by its *partner's guarantee*
                    // instead: matches require both sides on the same
                    // chromosome.
                    let side = |partner: usize, prefix: &str| Demand {
                        window: RegionWindow {
                            chroms: guarantee[node.inputs[partner]].clone(),
                            ..Default::default()
                        },
                        cols: need.cols.as_ref().map(|cols| {
                            cols.iter()
                                .filter_map(|c| c.strip_prefix(prefix))
                                .map(str::to_string)
                                .collect()
                        }),
                        samples: None,
                    };
                    vec![side(1, "left."), side(0, "right.")]
                }
                Operator::Map { aggs, .. } => {
                    // Experiment regions only matter where they can
                    // intersect needed reference regions; aggregates
                    // resolve against the experiment schema.
                    let exp_chroms = intersect_opt(
                        need.window.chroms.clone(),
                        guarantee[node.inputs[0]].clone(),
                    );
                    vec![need, Demand::coords_on(exp_chroms, agg_attrs(aggs))]
                }
                Operator::Cover { aggs, .. } => {
                    // COVER's sample emission depends on accumulation
                    // across all regions — no chromosome pruning.
                    vec![Demand::coords_on(None, agg_attrs(aggs))]
                }
            },
        };
        for (k, d) in node.inputs.iter().zip(demands) {
            acc[*k].widen(d);
        }
    }

    let mut specs = HashMap::new();
    for (i, node) in plan.nodes.iter().enumerate() {
        if let PlanOp::Source(_) = node.op {
            let Demand { window, cols, samples } =
                if acc[i].seen { acc[i].need.clone() } else { Demand::all() };
            specs.insert(
                i,
                ScanSpec {
                    chroms: window.chroms,
                    columns: cols,
                    lo: window.lo,
                    hi: window.hi,
                    samples,
                },
            );
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use nggc_gdm::{Attribute, Schema, ValueType};

    fn catalog(name: &str) -> Option<Schema> {
        match name {
            "D" | "E" => Some(
                Schema::new(vec![
                    Attribute::new("score", ValueType::Float),
                    Attribute::new("p_value", ValueType::Float),
                    Attribute::new("peak", ValueType::Int),
                ])
                .unwrap(),
            ),
            _ => None,
        }
    }

    fn specs_for(q: &str) -> HashMap<NodeId, ScanSpec> {
        let plan = LogicalPlan::compile(&parse(q).unwrap(), &catalog).unwrap();
        let (opt, _) = crate::optimizer::optimize(&plan);
        derive_scan_specs(&opt)
    }

    fn only_spec(specs: &HashMap<NodeId, ScanSpec>) -> &ScanSpec {
        assert_eq!(specs.len(), 1);
        specs.values().next().unwrap()
    }

    #[test]
    fn chr_equality_prunes_chromosomes() {
        let specs =
            specs_for("A = SELECT(region: chr == 'chr21' AND left > 5000000) D; MATERIALIZE A;");
        let spec = only_spec(&specs);
        assert_eq!(
            spec.chroms,
            Some(std::iter::once("chr21".to_string()).collect::<BTreeSet<_>>())
        );
        assert_eq!(spec.lo, Some(5000000));
        assert_eq!(spec.columns, None, "materialized output needs every column");
        assert_eq!(spec.render(Some(3)), "chr21 [5000000..]");
    }

    #[test]
    fn or_of_chr_literals_unions() {
        let specs =
            specs_for("A = SELECT(region: chr == 'chr1' OR chr == 'chr2') D; MATERIALIZE A;");
        let chroms = only_spec(&specs).chroms.clone().unwrap();
        assert_eq!(chroms.len(), 2);
        assert!(chroms.contains("chr1") && chroms.contains("chr2"));
    }

    fn cmp(attr: &str, op: CmpOp, v: impl Into<Value>) -> RegionExpr {
        RegionExpr::attr(attr).cmp(op, RegionExpr::Lit(v.into()))
    }

    fn both(a: RegionExpr, op: BinOp, b: RegionExpr) -> RegionExpr {
        RegionExpr::Binary(Box::new(a), op, Box::new(b))
    }

    /// True when `w` admits every region.
    fn unbounded(w: RegionWindow) -> bool {
        w == RegionWindow::default()
    }

    fn chroms(names: &[&str]) -> Option<BTreeSet<String>> {
        Some(names.iter().map(|n| n.to_string()).collect())
    }

    #[test]
    fn window_bounds_are_inclusive_and_rounded_inward() {
        let lo = |op, v: Value| RegionWindow::of(&cmp("left", op, v)).lo;
        let hi = |op, v: Value| RegionWindow::of(&cmp("Right", op, v)).hi;
        // A strict comparison bounds what its non-strict twin bounds.
        assert_eq!(lo(CmpOp::Ge, Value::Int(5)), Some(5));
        assert_eq!(lo(CmpOp::Gt, Value::Int(5)), Some(5));
        assert_eq!(hi(CmpOp::Le, Value::Int(9)), Some(9));
        assert_eq!(hi(CmpOp::Lt, Value::Int(9)), Some(9));
        // No coordinate lies strictly between a float and its rounding.
        assert_eq!(lo(CmpOp::Ge, Value::Float(5.5)), Some(6));
        assert_eq!(lo(CmpOp::Gt, Value::Float(5.5)), Some(6));
        assert_eq!(lo(CmpOp::Ge, Value::Float(5.0)), Some(5));
        assert_eq!(hi(CmpOp::Le, Value::Float(9.5)), Some(9));
        assert_eq!(hi(CmpOp::Lt, Value::Float(9.5)), Some(9));
        assert_eq!(hi(CmpOp::Lt, Value::Float(-0.0)), Some(0));
        assert_eq!(lo(CmpOp::Ge, Value::Int(i64::MAX)), Some(i64::MAX as u64));
        // The other direction of a comparison bounds the other end, which
        // the window does not use.
        assert_eq!(lo(CmpOp::Le, Value::Int(5)), None);
        assert_eq!(hi(CmpOp::Ge, Value::Int(5)), None);
        assert_eq!(lo(CmpOp::Eq, Value::Int(5)), None);
    }

    #[test]
    fn literals_no_coordinate_compares_to_exactly_bound_nothing() {
        for v in [
            Value::Int(-1),
            Value::Float(-0.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            // 2^53 and above: `left as f64` is no longer exact there.
            Value::Float(9_007_199_254_740_992.0),
            Value::Float(1e30),
            Value::Str("5".into()),
            Value::Bool(true),
            Value::Null,
        ] {
            for op in [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le] {
                for attr in ["left", "right"] {
                    let w = RegionWindow::of(&cmp(attr, op, v.clone()));
                    assert!(unbounded(w.clone()), "{attr} {} {v:?} gave {w:?}", op.symbol());
                }
            }
        }
        assert_eq!(
            RegionWindow::of(&cmp("left", CmpOp::Ge, Value::Float(9_007_199_254_740_991.0))).lo,
            Some(9_007_199_254_740_991)
        );
    }

    #[test]
    fn window_intersects_under_and_and_unites_under_or() {
        let chr = |name: &str| cmp("chr", CmpOp::Eq, name);
        let w = RegionWindow::of(&both(
            both(chr("chr2"), BinOp::And, cmp("left", CmpOp::Ge, Value::Int(10))),
            BinOp::And,
            both(cmp("score", CmpOp::Gt, 0.5), BinOp::And, cmp("right", CmpOp::Le, Value::Int(90))),
        ));
        assert_eq!(w, RegionWindow { chroms: chroms(&["chr2"]), lo: Some(10), hi: Some(90) });
        // The tighter bound of two wins.
        let w = RegionWindow::of(&both(
            cmp("left", CmpOp::Ge, Value::Int(10)),
            BinOp::And,
            both(cmp("left", CmpOp::Gt, Value::Int(30)), BinOp::And, cmp("left", CmpOp::Lt, 7.0)),
        ));
        assert_eq!((w.lo, w.hi), (Some(30), None));
        // Contradictory chromosomes: nothing can match.
        let w = RegionWindow::of(&both(chr("chr1"), BinOp::And, chr("chr2")));
        assert_eq!(w.chroms, chroms(&[]));
        // OR keeps a bound only when both sides have one, the looser.
        let side = |name: &str, lo: i64| {
            both(chr(name), BinOp::And, cmp("left", CmpOp::Ge, Value::Int(lo)))
        };
        let w = RegionWindow::of(&both(side("chr1", 10), BinOp::Or, side("chrX", 4)));
        assert_eq!(w, RegionWindow { chroms: chroms(&["chr1", "chrX"]), lo: Some(4), hi: None });
        let w = RegionWindow::of(&both(side("chr1", 10), BinOp::Or, cmp("score", CmpOp::Gt, 0.5)));
        assert!(unbounded(w));
        // An unbounded conjunct leaves the others' bounds standing.
        let w = RegionWindow::of(&both(side("chr1", 10), BinOp::And, cmp("score", CmpOp::Gt, 0.5)));
        assert_eq!(w, RegionWindow { chroms: chroms(&["chr1"]), lo: Some(10), hi: None });
    }

    #[test]
    fn shapes_that_are_not_a_bound_are_unbounded() {
        let chr1 = cmp("chr", CmpOp::Eq, "chr1");
        assert!(unbounded(RegionWindow::of(&RegionExpr::Not(Box::new(chr1.clone())))));
        assert!(unbounded(RegionWindow::of(&cmp("chr", CmpOp::Ne, "chr1"))));
        assert!(unbounded(RegionWindow::of(&cmp("chr", CmpOp::Eq, Value::Int(1)))));
        // `chr` against an attribute, a coordinate against one, arithmetic.
        let attrs = |a: &str, op, b: &str| RegionExpr::attr(a).cmp(op, RegionExpr::attr(b));
        assert!(unbounded(RegionWindow::of(&attrs("chr", CmpOp::Eq, "name"))));
        assert!(unbounded(RegionWindow::of(&attrs("left", CmpOp::Ge, "peak"))));
        let shifted = both(RegionExpr::attr("left"), BinOp::Add, RegionExpr::Lit(Value::Int(5)));
        let shifted = shifted.cmp(CmpOp::Ge, RegionExpr::Lit(Value::Int(9)));
        assert!(unbounded(RegionWindow::of(&shifted)));
        // A literal on the left is recognised for `chr` only.
        let flipped = RegionExpr::Lit("chr1".into()).cmp(CmpOp::Eq, RegionExpr::attr("CHR"));
        assert_eq!(RegionWindow::of(&flipped).chroms, chroms(&["chr1"]));
        let flipped = RegionExpr::Lit(Value::Int(5)).cmp(CmpOp::Le, RegionExpr::attr("left"));
        assert!(unbounded(RegionWindow::of(&flipped)));
        // JOIN's prefixed attributes are value columns, not coordinates.
        assert!(unbounded(RegionWindow::of(&cmp("left.start", CmpOp::Ge, Value::Int(5)))));
    }

    #[test]
    fn or_with_unbounded_side_disables_pruning() {
        let specs = specs_for("A = SELECT(region: chr == 'chr1' OR score > 2) D; MATERIALIZE A;");
        assert_eq!(only_spec(&specs).chroms, None);
    }

    #[test]
    fn negated_predicate_is_unbounded() {
        let specs = specs_for("A = SELECT(region: NOT (chr == 'chr1')) D; MATERIALIZE A;");
        assert_eq!(only_spec(&specs).chroms, None);
    }

    #[test]
    fn map_prunes_experiment_columns_to_aggregate_inputs() {
        let specs = specs_for(
            "R = SELECT(region: chr == 'chrX') D;
             M = MAP(avg AS AVG(p_value)) R E;
             MATERIALIZE M;",
        );
        let plan = LogicalPlan::compile(
            &parse(
                "R = SELECT(region: chr == 'chrX') D;
                 M = MAP(avg AS AVG(p_value)) R E;
                 MATERIALIZE M;",
            )
            .unwrap(),
            &catalog,
        )
        .unwrap();
        let (opt, _) = crate::optimizer::optimize(&plan);
        assert_eq!(specs.len(), 2);
        // Find the experiment source (E): its columns collapse to the
        // aggregate input, and its chromosomes to the reference's.
        let exp_id = opt
            .nodes
            .iter()
            .position(|n| matches!(&n.op, PlanOp::Source(name) if name == "E"))
            .unwrap();
        let exp = &specs[&exp_id];
        assert_eq!(
            exp.columns,
            Some(std::iter::once("p_value".to_string()).collect::<BTreeSet<_>>())
        );
        assert_eq!(exp.chroms, Some(std::iter::once("chrX".to_string()).collect::<BTreeSet<_>>()));
        // The reference side keeps all columns (they flow to the output).
        let ref_id = opt
            .nodes
            .iter()
            .position(|n| matches!(&n.op, PlanOp::Source(name) if name == "D"))
            .unwrap();
        assert_eq!(specs[&ref_id].columns, None);
    }

    #[test]
    fn join_bounds_each_side_by_partner_guarantee() {
        let specs = specs_for(
            "A = SELECT(region: chr == 'chr1') D;
             B = SELECT(region: chr == 'chr2') E;
             J = JOIN(DLE(1000)) A B;
             MATERIALIZE J;",
        );
        // Each source is already select-bounded to its own chromosome;
        // the JOIN additionally bounds it by the partner's — so both
        // collapse to the intersection with the partner's set.
        for spec in specs.values() {
            let chroms = spec.chroms.clone().expect("both sides bounded");
            assert!(chroms.len() <= 1, "partner guarantee intersected: {chroms:?}");
        }
    }

    #[test]
    fn extend_disables_chromosome_pruning() {
        // The narrow chr1 demand originates *above* the EXTEND; the
        // EXTEND's COUNT must still see every region, so the source
        // cannot be pruned.
        let specs = specs_for(
            "B = EXTEND(n AS COUNT) D;
             C = SELECT(region: chr == 'chr1') B;
             MATERIALIZE C;",
        );
        assert_eq!(only_spec(&specs).chroms, None, "EXTEND aggregates over all regions");
    }

    #[test]
    fn project_restricts_columns() {
        let specs = specs_for("A = PROJECT(score) D; MATERIALIZE A;");
        let cols = only_spec(&specs).columns.clone().unwrap();
        assert_eq!(cols, std::iter::once("score".to_string()).collect::<BTreeSet<_>>());
    }

    #[test]
    fn select_predicate_columns_are_loaded() {
        let specs = specs_for(
            "A = SELECT(region: p_value < 0.01) D;
             B = PROJECT(score) A;
             MATERIALIZE B;",
        );
        let cols = only_spec(&specs).columns.clone().unwrap();
        assert!(cols.contains("score") && cols.contains("p_value"), "{cols:?}");
        assert!(!cols.contains("peak"));
    }

    #[test]
    fn trivial_spec_renders_wildcard() {
        let specs = specs_for("A = SELECT(region: score > 1) D; MATERIALIZE A;");
        let spec = only_spec(&specs);
        assert!(spec.is_trivial());
        assert_eq!(spec.render(None), "*");
    }

    #[test]
    fn shared_source_unions_consumer_demands() {
        // One consumer needs chr1 only, the other everything: the
        // shared source must load everything.
        let specs = specs_for(
            "A = SELECT(region: chr == 'chr1') D;
             U = UNION() A D;
             MATERIALIZE U;",
        );
        assert_eq!(only_spec(&specs).chroms, None);
    }

    // --- the sample axis ---------------------------------------------------

    /// Specs of `q` as written, without the optimizer.
    fn unoptimized_specs_for(q: &str) -> HashMap<NodeId, ScanSpec> {
        derive_scan_specs(&LogicalPlan::compile(&parse(q).unwrap(), &catalog).unwrap())
    }

    /// The spec of source `name`, optimized and not: they must agree on
    /// the sample axis.
    fn samples_of(q: &str, name: &str) -> Option<MetaPredicate> {
        let of = |optimize: bool| {
            let plan = LogicalPlan::compile(&parse(q).unwrap(), &catalog).unwrap();
            let plan = if optimize { crate::optimizer::optimize(&plan).0 } else { plan };
            let id = plan
                .nodes
                .iter()
                .position(|n| matches!(&n.op, PlanOp::Source(s) if s == name))
                .unwrap_or_else(|| panic!("{q}: no source {name}"));
            derive_scan_specs(&plan)[&id].samples.clone()
        };
        let (plain, optimized) = (of(false), of(true));
        assert_eq!(plain, optimized, "{q}: optimizer changed the sample axis of {name}");
        plain
    }

    fn k562() -> MetaPredicate {
        MetaPredicate::eq("cell", "K562")
    }

    #[test]
    fn select_on_a_source_pushes_its_metadata_predicate() {
        let specs = specs_for("A = SELECT(cell == 'K562') D; MATERIALIZE A;");
        let spec = only_spec(&specs);
        assert_eq!(spec.samples, Some(k562()));
        assert_eq!((&spec.chroms, &spec.columns), (&None, &None));
        assert!(!spec.is_trivial(), "a metadata-only SELECT is a pruned load");
        assert_eq!(spec.render(Some(3)), "* samples[cell == 'K562']");
        // Without a metadata predicate the axis stays unset and unrendered.
        let specs = specs_for("A = SELECT(region: chr == 'chr1') D; MATERIALIZE A;");
        assert_eq!(only_spec(&specs).samples, None);
        assert_eq!(only_spec(&specs).render(Some(3)), "chr1");
    }

    #[test]
    fn cascaded_selects_narrow_with_and() {
        let q = "A = SELECT(cell == 'K562') D;
                 B = SELECT(antibody == 'CTCF'; region: chr == 'chr1') A;
                 MATERIALIZE B;";
        let both = k562().and(MetaPredicate::eq("antibody", "CTCF"));
        assert_eq!(samples_of(q, "D"), Some(both));
        // Fused or not, all three axes arrive together.
        for specs in [specs_for(q), unoptimized_specs_for(q)] {
            let spec = only_spec(&specs);
            assert_eq!(spec.chroms, chroms(&["chr1"]));
            assert_eq!(
                spec.render(Some(3)),
                "chr1 samples[(cell == 'K562' AND antibody == 'CTCF')]"
            );
        }
    }

    #[test]
    fn consumers_of_one_source_unite_with_or() {
        let q = "A = SELECT(cell == 'K562') D;
                 B = SELECT(cell == 'HeLa') D;
                 MATERIALIZE A; MATERIALIZE B;";
        let Some(MetaPredicate::Or(x, y)) = samples_of(q, "D") else {
            panic!("two bounded consumers give a disjunction");
        };
        let hela = MetaPredicate::eq("cell", "HeLa");
        assert!([(&k562(), &hela), (&hela, &k562())].contains(&(&*x, &*y)), "{x} OR {y}");
        // The same predicate twice stays one predicate.
        let q = "A = SELECT(cell == 'K562'; region: chr == 'chr1') D;
                 B = SELECT(cell == 'K562'; region: left > 5) D;
                 MATERIALIZE A; MATERIALIZE B;";
        assert_eq!(samples_of(q, "D"), Some(k562()));
    }

    #[test]
    fn an_unbounded_consumer_unbounds_the_samples() {
        // A second consumer without a metadata predicate.
        let q = "A = SELECT(cell == 'K562') D;
                 B = SELECT(region: chr == 'chr1') D;
                 MATERIALIZE A; MATERIALIZE B;";
        assert_eq!(samples_of(q, "D"), None);
        // The source itself flows to an output.
        let q = "A = SELECT(cell == 'K562') D;
                 U = UNION() A D;
                 MATERIALIZE U;";
        assert_eq!(samples_of(q, "D"), None);
        let q = "A = SELECT(cell == 'K562') D; MATERIALIZE A; MATERIALIZE D;";
        assert_eq!(samples_of(q, "D"), None);
    }

    #[test]
    fn a_select_above_any_other_operator_pushes_nothing_into_its_sources() {
        // Each rewrites, merges or groups metadata, or emits samples
        // depending on other samples: what SELECT filters above it says
        // nothing about which stored samples it needs below.
        for (below, sources) in [
            ("B = EXTEND(n AS COUNT) D;", &["D"][..]),
            ("B = MERGE() D;", &["D"]),
            ("B = GROUP(cell) D;", &["D"]),
            ("B = ORDER(age DESC; top: 1) D;", &["D"]),
            ("B = ORDER(region: score DESC; region_top: 1) D;", &["D"]),
            ("B = COVER(1, ANY) D;", &["D"]),
            ("B = PROJECT(score; meta: cell) D;", &["D"]),
            ("B = UNION() D E;", &["D", "E"]),
            ("B = DIFFERENCE() D E;", &["D", "E"]),
            ("B = JOIN(DLE(1000)) D E;", &["D", "E"]),
            ("B = MAP(n AS COUNT) D E;", &["D", "E"]),
        ] {
            let q = format!("{below} C = SELECT(cell == 'K562') B; MATERIALIZE C;");
            for source in sources {
                assert_eq!(samples_of(&q, source), None, "{q}");
            }
        }
    }

    #[test]
    fn operators_below_a_select_see_its_demand() {
        // The other way round the SELECT decides first, whatever runs on
        // what it admits.
        for above in [
            "B = EXTEND(n AS COUNT) A;",
            "B = MERGE() A;",
            "B = COVER(1, ANY) A;",
            "B = MAP(n AS COUNT) A E;",
        ] {
            let q = format!("A = SELECT(cell == 'K562') D; {above} MATERIALIZE B;");
            assert_eq!(samples_of(&q, "D"), Some(k562()), "{q}");
        }
    }

    #[test]
    fn region_only_project_hands_the_sample_demand_on() {
        // `ops::project` pins what this relies on: one output sample per
        // input sample, metadata untouched.
        let q = "B = PROJECT(score) D; C = SELECT(cell == 'K562') B; MATERIALIZE C;";
        assert_eq!(samples_of(q, "D"), Some(k562()));
        let cols = only_spec(&specs_for(q)).columns.clone().unwrap();
        assert_eq!(cols, std::iter::once("score".to_string()).collect::<BTreeSet<_>>());
    }

    #[test]
    fn semijoin_is_ignored_and_its_partner_keeps_its_own_demand() {
        let q = "EXT = SELECT(cell == 'K562') E;
                 SJ = SELECT(antibody == 'CTCF'; semijoin: cell IN EXT) D;
                 MATERIALIZE SJ;";
        // Only the metadata predicate narrows D — a superset of what the
        // semijoin admits.
        assert_eq!(samples_of(q, "D"), Some(MetaPredicate::eq("antibody", "CTCF")));
        assert_eq!(samples_of(q, "E"), Some(k562()));
        // A semijoin alone narrows nothing.
        let q = "EXT = SELECT(cell == 'K562') E;
                 SJ = SELECT(semijoin: cell IN EXT) D;
                 MATERIALIZE SJ;";
        assert_eq!(samples_of(q, "D"), None);
    }

    #[test]
    fn the_pushed_predicate_is_the_operators_own() {
        use nggc_gdm::Metadata;
        let meta = |pairs: &[(&str, &str)]| Metadata::from_pairs(pairs.iter().copied());
        // (predicate, metadata, admitted)
        let cases: [(&str, Metadata, bool); 12] = [
            // `==` ignores case; any value of a multi-valued attribute.
            ("cell == 'k562'", meta(&[("cell", "K562")]), true),
            ("cell == 'K562'", meta(&[("cell", "HeLa"), ("cell", "K562")]), true),
            ("cell == 'K562'", meta(&[("tissue", "blood")]), false),
            // NOT of a comparison on a missing attribute holds.
            ("NOT (cell == 'K562')", meta(&[("tissue", "blood")]), true),
            ("NOT (cell == 'k562')", meta(&[("cell", "K562")]), false),
            ("cell != 'K562'", meta(&[("tissue", "blood")]), false),
            ("EXISTS(age)", meta(&[("age", "30")]), true),
            ("EXISTS(age)", meta(&[("cell", "K562")]), false),
            // Numbers compare as numbers when both sides parse, else as
            // strings.
            ("age > 5", meta(&[("age", "30")]), true),
            ("age == 30", meta(&[("age", "030")]), true),
            ("age > 5", meta(&[("age", "3"), ("age", "40")]), true),
            ("age > 'b'", meta(&[("age", "30")]), false),
        ];
        for (pred, metadata, admitted) in cases {
            let q = format!("A = SELECT({pred}) D; MATERIALIZE A;");
            let plan = LogicalPlan::compile(&parse(&q).unwrap(), &catalog).unwrap();
            let own = plan
                .nodes
                .iter()
                .find_map(|n| match &n.op {
                    PlanOp::Apply(Operator::Select { meta, .. }) => Some(meta.clone()),
                    _ => None,
                })
                .unwrap();
            let pushed = only_spec(&derive_scan_specs(&plan)).samples.clone();
            assert_eq!(pushed.as_ref(), Some(&own), "{pred}");
            assert_eq!(own.eval(&metadata), admitted, "{pred} on {metadata:?}");
        }
    }
}
