//! Property-based tests over the core invariants (DESIGN.md §7).

use nggc::engine::{
    coverage_segments, coverage_sweep, gap_pairs_naive, gap_pairs_sort_merge, k_nearest,
    merge_runs, overlap_pairs_naive, overlap_pairs_sort_merge, WorkerPool,
};
use nggc::gdm::*;
use nggc::gmql::{parse, GmqlEngine, MetaPredicate, Statement};
use proptest::prelude::*;

/// Random sorted region list on one chromosome.
fn regions_strategy(max_len: usize) -> impl Strategy<Value = Vec<GRegion>> {
    prop::collection::vec((0u64..5_000, 0u64..400), 0..max_len).prop_map(|pairs| {
        let mut rs: Vec<GRegion> = pairs
            .into_iter()
            .map(|(l, w)| GRegion::new("chr1", l, l + w, Strand::Unstranded))
            .collect();
        rs.sort_by(|a, b| a.cmp_coords(b));
        rs
    })
}

fn collect(f: impl FnOnce(&mut dyn FnMut(usize, usize))) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    f(&mut |i, j| out.push((i, j)));
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sort-merge join agrees with the exhaustive reference.
    #[test]
    fn join_strategies_agree(
        left in regions_strategy(60),
        right in regions_strategy(60),
    ) {
        let naive = collect(|e| overlap_pairs_naive(&left, &right, e));
        let merge = collect(|e| overlap_pairs_sort_merge(&left, &right, e));
        prop_assert_eq!(&naive, &merge);
    }

    /// Gap join agrees with its exhaustive reference.
    #[test]
    fn gap_join_agrees(
        left in regions_strategy(40),
        right in regions_strategy(40),
        gap in 0u64..1_000,
    ) {
        let naive = collect(|e| gap_pairs_naive(&left, &right, gap, e));
        let merge = collect(|e| gap_pairs_sort_merge(&left, &right, gap, e));
        prop_assert_eq!(naive, merge);
    }

    /// Coverage conservation: Σ segment(len × acc) = Σ interval lengths,
    /// segments are disjoint, in order, with positive accumulation.
    #[test]
    fn coverage_conserves_mass(intervals in prop::collection::vec((0u64..3_000, 1u64..300), 0..50)) {
        let ivals: Vec<(u64, u64)> = intervals.iter().map(|&(l, w)| (l, l + w)).collect();
        let segs = coverage_segments(&ivals);
        let seg_mass: u64 = segs.iter().map(|s| (s.right - s.left) * s.acc as u64).sum();
        let input_mass: u64 = ivals.iter().map(|&(l, r)| r - l).sum();
        prop_assert_eq!(seg_mass, input_mass);
        for w in segs.windows(2) {
            prop_assert!(w[0].right <= w[1].left, "segments disjoint and ordered");
        }
        prop_assert!(segs.iter().all(|s| s.acc > 0 && s.left < s.right));
    }

    /// k-nearest matches a brute-force search on distances.
    #[test]
    fn k_nearest_matches_bruteforce(
        anchors in regions_strategy(12),
        others in regions_strategy(30),
        k in 1usize..5,
    ) {
        let got = k_nearest(&anchors, &others, k);
        for (a, picked) in anchors.iter().zip(&got) {
            let mut dists: Vec<(i64, usize)> = others
                .iter()
                .enumerate()
                .map(|(j, o)| (a.distance(o).unwrap().max(0), j))
                .collect();
            dists.sort_unstable();
            let expect: Vec<usize> =
                dists.iter().take(k).map(|&(_, j)| j).collect();
            // Compare distance multisets (ties may pick different ids of
            // equal distance — but our tie-break is by index, so compare
            // exactly).
            prop_assert_eq!(picked, &expect);
        }
    }

    /// Schema merge keeps every left attribute at its position and maps
    /// every right attribute somewhere type-correct; reshaped rows place
    /// values where the maps say.
    #[test]
    fn schema_merge_sound(
        left_names in prop::collection::btree_set("[a-e]{1,3}", 0..5),
        right_names in prop::collection::btree_set("[c-h]{1,3}", 0..5),
    ) {
        let mk = |names: &std::collections::BTreeSet<String>, ty| {
            Schema::new(names.iter().map(|n| Attribute::new(n.clone(), ty)).collect()).unwrap()
        };
        let a = mk(&left_names, ValueType::Int);
        let b = mk(&right_names, ValueType::Int);
        let m = a.merge(&b);
        for (i, attr) in a.attributes().iter().enumerate() {
            prop_assert_eq!(m.left_map[i], i, "left attributes keep positions");
            prop_assert_eq!(&m.schema.attributes()[i].name, &attr.name);
        }
        for (j, attr) in b.attributes().iter().enumerate() {
            let tgt = &m.schema.attributes()[m.right_map[j]];
            prop_assert_eq!(tgt.ty, attr.ty);
        }
        // Same-type common attributes unify: merged arity = |A ∪ B|.
        let union_count = left_names.union(&right_names).count();
        prop_assert_eq!(m.schema.len(), union_count);
    }

    /// Values survive a render→parse roundtrip.
    #[test]
    fn value_roundtrip(i in any::<i64>(), f in -1e12f64..1e12, s in "[a-zA-Z0-9_]{1,12}") {
        let vi = Value::Int(i);
        prop_assert_eq!(Value::parse_as(&vi.render(), ValueType::Int).unwrap(), vi);
        let vf = Value::Float(f);
        prop_assert_eq!(Value::parse_as(&vf.render(), ValueType::Float).unwrap(), vf);
        let vs = Value::Str(s.clone());
        prop_assert_eq!(Value::parse_as(&vs.render(), ValueType::Str).unwrap(), vs);
    }

    /// The worker pool computes exactly what a serial map computes.
    #[test]
    fn pool_matches_serial(xs in prop::collection::vec(any::<i32>(), 0..300), workers in 1usize..6) {
        let pool = WorkerPool::new(workers);
        let parallel = pool.parallel_map(xs.clone(), |x| x as i64 * 3 - 1);
        let serial: Vec<i64> = xs.into_iter().map(|x| x as i64 * 3 - 1).collect();
        prop_assert_eq!(parallel, serial);
    }
}

// ---------------------------------------------------------------------------
// Metadata predicates: Display output re-parses to an equivalent predicate.
// ---------------------------------------------------------------------------

fn meta_pred_strategy() -> impl Strategy<Value = MetaPredicate> {
    let leaf = ("[a-z]{1,4}", "[a-z0-9]{1,4}").prop_map(|(a, v)| MetaPredicate::eq(a, v));
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| MetaPredicate::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| MetaPredicate::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|p| MetaPredicate::Not(Box::new(p))),
        ]
    })
}

fn region_expr_strategy() -> impl Strategy<Value = nggc::gmql::RegionExpr> {
    use nggc::gmql::{BinOp, CmpOp, RegionExpr};
    let leaf = prop_oneof![
        prop_oneof![Just("left"), Just("right"), Just("len"), Just("score")]
            .prop_map(RegionExpr::attr),
        (-50i64..50).prop_map(|n| RegionExpr::Lit(Value::Int(n))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        let op = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Cmp(CmpOp::Lt)),
            Just(BinOp::Cmp(CmpOp::Eq)),
            Just(BinOp::Cmp(CmpOp::Ge)),
        ];
        (inner.clone(), op, inner)
            .prop_map(|(a, o, b)| RegionExpr::Binary(Box::new(a), o, Box::new(b)))
    })
}

fn meta_strategy() -> impl Strategy<Value = Metadata> {
    prop::collection::vec(("[a-z]{1,4}", "[a-z0-9]{1,4}"), 0..6)
        .prop_map(|pairs| Metadata::from_pairs(pairs.iter().map(|(a, b)| (a.as_str(), b.as_str()))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print(pred) re-parses (inside a SELECT) into a predicate with
    /// identical truth value on arbitrary metadata.
    #[test]
    fn meta_predicate_print_parse_equivalence(
        pred in meta_pred_strategy(),
        meta in meta_strategy(),
    ) {
        let text = format!("X = SELECT({pred}) D;");
        let stmts = parse(&text).unwrap();
        let Statement::Assign { call, .. } = &stmts[0] else { panic!("assign expected") };
        let nggc::gmql::Operator::Select { meta: reparsed, .. } = &call.op else {
            panic!("select expected")
        };
        prop_assert_eq!(pred.eval(&meta), reparsed.eval(&meta));
    }

    /// print(region expr) re-parses into an expression with identical
    /// evaluation on arbitrary regions.
    #[test]
    fn region_expr_print_parse_equivalence(
        expr in region_expr_strategy(),
        left in 0u64..1000,
        width in 1u64..100,
        score in -100i64..100,
    ) {
        let text = format!("X = SELECT(region: {expr}) D;");
        let Ok(stmts) = parse(&text) else {
            // Some printed forms (e.g. bare attribute as a predicate) are
            // valid expressions but the outer grammar is identical, so a
            // parse failure would be a real bug.
            return Err(TestCaseError::fail(format!("unparseable: {text}")));
        };
        let Statement::Assign { call, .. } = &stmts[0] else { panic!("assign") };
        let nggc::gmql::Operator::Select { region: Some(reparsed), .. } = &call.op else {
            panic!("select with region predicate")
        };
        let schema =
            Schema::new(vec![Attribute::new("score", ValueType::Int)]).unwrap();
        let region = GRegion::new("chr1", left, left + width, Strand::Pos)
            .with_values(vec![Value::Int(score)]);
        let a = expr.bind(&schema).eval(&region);
        let b = reparsed.bind(&schema).eval(&region);
        // NaN-safe comparison through total order.
        prop_assert_eq!(a.total_cmp(&b), std::cmp::Ordering::Equal, "{} vs {}", a, b);
    }

    /// SELECT with a region predicate keeps exactly the regions the
    /// predicate admits (engine vs direct evaluation).
    #[test]
    fn select_region_predicate_exact(
        lefts in prop::collection::vec(0u64..1000, 1..30),
        threshold in 0u64..1000,
    ) {
        let mut ds = Dataset::new("D", Schema::empty());
        let regions: Vec<GRegion> = lefts
            .iter()
            .map(|&l| GRegion::new("chr1", l, l + 10, Strand::Unstranded))
            .collect();
        ds.add_sample(Sample::new("s", "D").with_regions(regions.clone())).unwrap();
        let mut engine = GmqlEngine::with_workers(2);
        engine.register(ds);
        let out = engine
            .run(&format!("X = SELECT(region: left < {threshold}) D; MATERIALIZE X;"))
            .unwrap();
        let expected = regions.iter().filter(|r| r.left < threshold).count();
        prop_assert_eq!(out["X"].region_count(), expected);
    }

    /// MAP COUNT equals the brute-force overlap count for every
    /// reference region.
    #[test]
    fn map_count_matches_bruteforce(
        refs in regions_strategy(20),
        exps in regions_strategy(40),
    ) {
        let mut rd = Dataset::new("R", Schema::empty());
        rd.add_sample(Sample::new("r", "R").with_regions(refs.clone())).unwrap();
        let mut ed = Dataset::new("E", Schema::empty());
        ed.add_sample(Sample::new("e", "E").with_regions(exps.clone())).unwrap();
        let mut engine = GmqlEngine::with_workers(2);
        engine.register(rd);
        engine.register(ed);
        let out = engine.run("M = MAP(n AS COUNT) R E; MATERIALIZE M;").unwrap();
        let m = &out["M"];
        prop_assert_eq!(m.sample_count(), 1);
        for region in m.samples[0].regions.iter() {
            let expected = exps
                .iter()
                .filter(|e| {
                    interval_overlap(region.left, region.right, e.left, e.right)
                })
                .count() as i64;
            prop_assert_eq!(region.values[0].as_i64().unwrap(), expected,
                "region {}..{}", region.left, region.right);
        }
    }
}

// ---------------------------------------------------------------------------
// Operator-level properties through the full engine.
// ---------------------------------------------------------------------------

/// Build a dataset of `n_samples` samples from interval lists.
fn dataset_from(samples: &[Vec<(u64, u64)>]) -> Dataset {
    let mut ds = Dataset::new("P", Schema::empty());
    for (i, ivals) in samples.iter().enumerate() {
        let regions = ivals
            .iter()
            .map(|&(l, w)| GRegion::new("chr1", l, l + w, Strand::Unstranded))
            .collect();
        ds.add_sample(Sample::new(format!("s{i}"), "P").with_regions(regions)).unwrap();
    }
    ds
}

fn samples_strategy() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    prop::collection::vec(prop::collection::vec((0u64..2_000, 1u64..200), 0..15), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// COVER-family conservation laws: HISTOGRAM(1,ANY) mass equals the
    /// sweep-line coverage; COVER merges HISTOGRAM segments (same bp,
    /// fewer or equal regions); SUMMIT regions are a subset of
    /// HISTOGRAM's; FLAT(1,ANY) spans at least COVER(1,ANY).
    #[test]
    fn cover_family_conservation(samples in samples_strategy()) {
        let ds = dataset_from(&samples);
        let mut engine = GmqlEngine::with_workers(2);
        engine.register(ds);
        let run = |q: &str| {
            engine.run(q).unwrap().remove("X").unwrap()
        };
        let hist = run("X = HISTOGRAM(1, ANY) P; MATERIALIZE X;");
        let cov = run("X = COVER(1, ANY) P; MATERIALIZE X;");
        let flat = run("X = FLAT(1, ANY) P; MATERIALIZE X;");
        let summit = run("X = SUMMIT(1, ANY) P; MATERIALIZE X;");

        let bp = |d: &Dataset| -> u64 {
            d.samples.iter().flat_map(|s| s.regions.iter()).map(|r| r.len()).sum()
        };
        // Coverage ground truth from the kernel.
        let ivals: Vec<(u64, u64)> = samples
            .iter()
            .flatten()
            .map(|&(l, w)| (l, l + w))
            .collect();
        let truth_bp: u64 = coverage_segments(&ivals)
            .iter()
            .map(|s| s.right - s.left)
            .sum();
        prop_assert_eq!(bp(&hist), truth_bp, "histogram covers exactly the covered bases");
        prop_assert_eq!(bp(&cov), truth_bp, "cover at min=1 covers the same bases");
        prop_assert!(cov.region_count() <= hist.region_count(), "cover merges");
        prop_assert!(bp(&flat) >= bp(&cov), "flat extends to contributing hulls");
        prop_assert!(summit.region_count() <= hist.region_count());
        // Every summit region coincides with some histogram segment.
        let hist_regions: Vec<(u64, u64)> = hist.samples[0]
            .regions
            .iter()
            .map(|r| (r.left, r.right))
            .collect();
        for r in summit.samples[0].regions.iter() {
            prop_assert!(hist_regions.contains(&(r.left, r.right)), "summit ⊆ histogram");
        }
    }

    /// DIFFERENCE through the engine equals a manual overlap filter.
    #[test]
    fn difference_matches_manual_filter(
        pos in prop::collection::vec((0u64..2_000, 1u64..200), 0..15),
        neg in prop::collection::vec((0u64..2_000, 1u64..200), 0..15),
    ) {
        let a = dataset_from(std::slice::from_ref(&pos));
        let mut b = dataset_from(std::slice::from_ref(&neg));
        b.name = "N".into();
        for s in &mut b.samples {
            // Rename to avoid clash in the engine registry.
            s.name = format!("n_{}", s.name);
        }
        let mut engine = GmqlEngine::with_workers(2);
        engine.register(a);
        engine.register(b);
        let out = engine.run("X = DIFFERENCE() P N; MATERIALIZE X;").unwrap();
        let kept: Vec<(u64, u64)> = out["X"].samples[0]
            .regions
            .iter()
            .map(|r| (r.left, r.right))
            .collect();
        let mut expected: Vec<(u64, u64)> = pos
            .iter()
            .map(|&(l, w)| (l, l + w))
            .filter(|&(l, r)| {
                !neg.iter().any(|&(nl, nw)| interval_overlap(l, r, nl, nl + nw))
            })
            .collect();
        expected.sort_unstable();
        let mut kept_sorted = kept;
        kept_sorted.sort_unstable();
        prop_assert_eq!(kept_sorted, expected);
    }

    /// UNION preserves total cardinalities under schema merging.
    #[test]
    fn union_preserves_cardinalities(
        a in samples_strategy(),
        b in samples_strategy(),
    ) {
        let da = dataset_from(&a);
        let mut db = dataset_from(&b);
        db.name = "Q".into();
        let (sa, ra) = (da.sample_count(), da.region_count());
        let (sb, rb) = (db.sample_count(), db.region_count());
        let mut engine = GmqlEngine::with_workers(2);
        engine.register(da);
        engine.register(db);
        let out = engine.run("X = UNION() P Q; MATERIALIZE X;").unwrap();
        prop_assert_eq!(out["X"].sample_count(), sa + sb);
        prop_assert_eq!(out["X"].region_count(), ra + rb);
        out["X"].validate().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Multi-sample operators: the run merge and the coverage sweep.
// ---------------------------------------------------------------------------

/// Samples over three chromosomes from `(left, width, chromosome and
/// strand, score)` rows; a narrow coordinate range makes duplicates,
/// touching, nested and zero-length regions common.
fn replicas_from(name: &str, samples: &[Vec<(u64, u64, u8, i64)>]) -> Dataset {
    let schema = Schema::new(vec![Attribute::new("score", ValueType::Int)]).unwrap();
    let mut ds = Dataset::new(name, schema);
    for (i, rows) in samples.iter().enumerate() {
        let regions = rows
            .iter()
            .map(|&(l, w, cs, score)| {
                let chrom = ["chr1", "chr2", "chr10"][usize::from(cs % 3)];
                let strand =
                    [Strand::Pos, Strand::Neg, Strand::Unstranded][usize::from(cs / 3 % 3)];
                let score = if score < 0 { Value::Null } else { Value::Int(score) };
                GRegion::new(chrom, l, l + w, strand).with_values(vec![score])
            })
            .collect();
        let cell = ["A", "B"][i % 2];
        ds.add_sample(
            Sample::new(format!("{name}{i}"), name)
                .with_regions(regions)
                .with_metadata(Metadata::from_pairs([("cell", cell)])),
        )
        .unwrap();
    }
    ds
}

fn replicas_strategy() -> impl Strategy<Value = Vec<Vec<(u64, u64, u8, i64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..60, 0u64..14, 0u8..9, -1i64..6), 0..14),
        1..7,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merging sorted runs in place yields what a stable sort of their
    /// concatenation yields (ties: lower run first, then position), and the
    /// coverage sweep over that order finds the segments the reference
    /// finds on the pooled intervals — zero-length regions adding none.
    #[test]
    fn merge_runs_and_sweep_equal_sort_and_reference(
        runs in prop::collection::vec(
            prop::collection::vec((0u64..60, 0u64..14, 0u8..3), 0..20),
            0..7,
        )
    ) {
        let runs: Vec<Vec<GRegion>> = runs
            .iter()
            .enumerate()
            .map(|(i, rows)| {
                let mut run: Vec<GRegion> = rows
                    .iter()
                    .enumerate()
                    .map(|(j, &(l, w, s))| {
                        let strand = [Strand::Pos, Strand::Neg, Strand::Unstranded][usize::from(s)];
                        // The tag tells equal-coordinate regions apart.
                        GRegion::new("chr1", l, l + w, strand)
                            .with_values(vec![Value::Int((i * 100 + j) as i64)])
                    })
                    .collect();
                run.sort_by(|a, b| a.cmp_coords(b));
                run
            })
            .collect();
        let slices: Vec<&[GRegion]> = runs.iter().map(Vec::as_slice).collect();
        let merged: Vec<GRegion> = merge_runs(&slices, GRegion::cmp_coords).into_iter().cloned().collect();
        let mut pooled: Vec<GRegion> = runs.concat();
        pooled.sort_by(|a, b| a.cmp_coords(b));
        prop_assert_eq!(&merged, &pooled);

        let intervals: Vec<(u64, u64)> = pooled.iter().map(|r| (r.left, r.right)).collect();
        let swept = coverage_sweep(merge_runs(&slices, GRegion::cmp_coords));
        prop_assert_eq!(swept, coverage_segments(&intervals));
    }

    /// COVER and its variants (with `groupby` and order-sensitive
    /// aggregates), MERGE, GROUP and DIFFERENCE give the same result —
    /// region order and aggregate values included — on one worker and on
    /// two.
    #[test]
    fn multi_sample_operators_serial_equals_parallel(
        pos in replicas_strategy(),
        neg in replicas_strategy(),
    ) {
        let queries = [
            "X = COVER(2, ANY; groupby: cell; aggregate: n AS COUNT, b AS BAG(score), t AS SUM(score)) P;",
            "X = FLAT(1, ALL; aggregate: m AS MEDIAN(score)) P;",
            "X = SUMMIT(1, ANY; groupby: cell) P;",
            "X = HISTOGRAM(ANY, 2) P;",
            "X = MERGE(groupby: cell) P;",
            "X = GROUP(cell; aggregate: n AS COUNT, b AS BAG(score)) P;",
            "X = DIFFERENCE(joinby: cell) P N;",
            "X = DIFFERENCE(exact: true) P N;",
        ];
        let results = [1, 2].map(|workers| {
            let mut engine = GmqlEngine::with_workers(workers);
            engine.register(replicas_from("P", &pos));
            engine.register(replicas_from("N", &neg));
            queries.map(|q| {
                let out = engine.run(&format!("{q} MATERIALIZE X;")).unwrap().remove("X").unwrap();
                out.samples
                    .iter()
                    .map(|s| format!("{} {:?} {:?}", s.name, s.metadata, s.regions))
                    .collect::<Vec<_>>()
            })
        });
        for (q, (serial, parallel)) in queries.iter().zip(results[0].iter().zip(&results[1])) {
            prop_assert_eq!(serial, parallel, "{}", q);
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: format parsers must return Err on broken input —
// never panic, whatever the bytes (robustness satellite, ISSUE 4).
// ---------------------------------------------------------------------------

use nggc::formats::native_v2::{self, decode_dataset_v2, encode_dataset_v2};
use nggc::formats::{FileFormat, FormatError};

const ALL_FORMATS: [FileFormat; 8] = [
    FileFormat::Bed,
    FileFormat::NarrowPeak,
    FileFormat::BroadPeak,
    FileFormat::Gtf,
    FileFormat::Gff3,
    FileFormat::Vcf,
    FileFormat::BedGraph,
    FileFormat::Wig,
];

/// A valid multi-line document per format, used as truncation stock.
fn valid_doc(format: FileFormat) -> String {
    match format {
        FileFormat::Bed => "chr1\t0\t100\tpeak_a\t3.5\t+\nchr2\t50\t60\tpeak_b\t1.0\t-\n".into(),
        FileFormat::NarrowPeak => {
            "chr1\t0\t100\tp\t500\t+\t3.1\t2.2\t1.1\t50\nchr1\t200\t300\tq\t100\t-\t1.0\t0.5\t0.2\t25\n".into()
        }
        FileFormat::BroadPeak => {
            "chr1\t0\t100\tp\t500\t+\t3.1\t2.2\t1.1\nchr1\t200\t300\tq\t100\t-\t1.0\t0.5\t0.2\n".into()
        }
        FileFormat::Gtf => {
            "chr1\thavana\tgene\t100\t200\t0.5\t+\t.\tgene_id \"g1\"; transcript_id \"t1\";\n".into()
        }
        FileFormat::Gff3 => {
            "chr1\thavana\tgene\t100\t200\t0.5\t+\t.\tID=g1;Name=G1\n".into()
        }
        FileFormat::Vcf => {
            "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\nchr1\t7\trs1\tA\tC\t50\tPASS\tEND=9\n".into()
        }
        FileFormat::BedGraph => "chr1 0 100 0.5\nchr1 100 200 1.5\n".into(),
        FileFormat::Wig => {
            "fixedStep chrom=chr1 start=1 step=10 span=5\n0.5\n1.5\nvariableStep chrom=chr2 span=3\n7 2.5\n".into()
        }
    }
}

/// Every text parser hands equal chromosome names one shared handle, so
/// that the import-time sort and every later comparison decide by pointer.
#[test]
fn text_parsers_share_one_chrom_handle_per_name() {
    for format in ALL_FORMATS {
        let doc = valid_doc(format).repeat(2);
        let regions = format.parse(&doc).unwrap();
        assert!(regions.len() >= 2, "{format:?}");
        for a in &regions {
            for b in &regions {
                assert_eq!(a.chrom == b.chrom, a.chrom.ptr_eq(&b.chrom), "{format:?}: {a} / {b}");
            }
        }
    }
}

/// Inputs that must be rejected: coordinate overflow and nonsense rows.
/// Each entry applies to every text format (a row with u64::MAX-adjacent
/// coordinates is garbage for all of them even where columns differ).
fn overflow_corpus() -> Vec<String> {
    let max = u64::MAX;
    vec![
        // end < start with coordinates at the representable edge.
        format!("chr1\t{max}\t0\tx\t1\t+\t1\t1\t1\t0\n"),
        // numeric fields that exceed u64.
        "chr1\t99999999999999999999\t5\tx\t1\t+\t1\t1\t1\t0\n".into(),
        // WIG declaration placing the window beyond u64::MAX.
        format!("fixedStep chrom=chr1 start={max} step=2 span=100\n1.0\n2.0\n"),
        format!("variableStep chrom=chr1 span={max}\n{max} 1.0\n"),
        // VCF row whose POS + REF length wraps.
        format!("chr1\t{max}\trs\tACGT\tA\t50\tPASS\t.\n"),
    ]
}

#[test]
fn overflow_corpus_rejected_by_every_parser() {
    for format in ALL_FORMATS {
        for bad in overflow_corpus() {
            let result = format.parse(&bad);
            assert!(result.is_err(), "{format:?} accepted overflow input {bad:?}: {result:?}");
        }
    }
}

#[test]
fn binary_garbage_rejected_by_every_parser() {
    // Non-empty rows of control bytes and shell noise: parseable by
    // nothing, but must fail as a typed error.
    let garbage: &[&str] = &[
        "\u{0}\u{1}\u{2}\u{3}\u{4}\n",
        "\u{fffd}\u{fffd}\u{fffd}\n",
        "%PDF-1.4 obj << stream\n",
        "\u{7f}ELF\u{2}\u{1}\u{1}\n",
    ];
    for format in ALL_FORMATS {
        for g in garbage {
            assert!(format.parse(g).is_err(), "{format:?} accepted {g:?}");
        }
    }
    // The binary container rejects the same noise (and text) outright.
    assert!(decode_dataset_v2(b"\x00\x01\x02\x03").is_err());
    assert!(decode_dataset_v2(b"chr1\t0\t10\n").is_err());
    assert!(decode_dataset_v2(b"").is_err());
}

/// Bytes of the chromosome blocks of [`v2_container_bytes`]: the ones
/// just before its four trailer bytes.
fn v2_block_bytes() -> usize {
    let dir = std::env::temp_dir().join(format!(
        "nggc_prop_blocks_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(native_v2::CONTAINER_FILE), v2_container_bytes()).unwrap();
    let index = native_v2::read_index(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    index.samples.iter().flat_map(|s| &s.chroms).map(|c| c.bytes as usize).sum()
}

/// A read of `bytes` that builds one region of [`v2_container_bytes`]
/// (its window holds `left` 5 only), with no cell.
fn windowed_and_narrowed(bytes: &[u8]) -> Result<(), FormatError> {
    let build = native_v2::Materialize {
        lo: Some(1),
        hi: Some(5),
        width: Some(std::collections::BTreeSet::new()),
    };
    let opts = native_v2::ScanOptions::default();
    let all = |_: &str, _: &Metadata| true;
    native_v2::materialize_dataset_v2_from(std::io::Cursor::new(bytes), &opts, &build, all)
        .map(|_| ())
}

/// Reference container bytes for truncation/corruption properties.
fn v2_container_bytes() -> Vec<u8> {
    let mut ds = Dataset::new(
        "CORPUS",
        Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap(),
    );
    ds.add_sample(
        Sample::new("s1", "CORPUS")
            .with_regions(vec![
                GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![Value::Float(0.5)]),
                GRegion::new("chr2", 5, 25, Strand::Neg).with_values(vec![Value::Null]),
            ])
            .with_metadata(Metadata::from_pairs([("cell", "HeLa")])),
    )
    .unwrap();
    encode_dataset_v2(&ds).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes never panic any text parser: lossy-decoded input
    /// either parses (e.g. all-whitespace) or errors.
    #[test]
    fn text_parsers_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        for format in ALL_FORMATS {
            let _ = format.parse(&text); // must return, not panic
        }
    }

    /// Truncating a valid document at any byte never panics; the result
    /// is a clean parse or a typed error.
    #[test]
    fn text_parsers_never_panic_on_truncation(cut in 0usize..100) {
        for format in ALL_FORMATS {
            let doc = valid_doc(format);
            let cut = cut.min(doc.len()); // documents are ASCII: any cut is a char boundary
            let _ = format.parse(&doc[..cut]);
        }
    }

    /// The binary container survives truncation at every prefix length:
    /// the full decode always fails (a cut that leaves the trailer
    /// malformed or absent can never decode cleanly), every other reader
    /// fails typed or reads a lucky prefix, and none panics or allocates
    /// without bound.
    #[test]
    fn native_v2_never_panics_on_truncation(frac in 0.0f64..1.0) {
        let bytes = v2_container_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(decode_dataset_v2(&bytes[..cut]).is_err(), "truncated container decoded");
        // The pruned readers, which walk the container instead of
        // checking it whole: the same prefix, in memory and on disk,
        // fails as typed corruption wherever the cut falls inside an
        // index or a block (only the four trailer bytes can go missing
        // unnoticed: these readers do not check the trailer).
        let dir = std::env::temp_dir().join(format!(
            "nggc_prop_trunc_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(native_v2::CONTAINER_FILE), &bytes[..cut]).unwrap();
        let chrom = |name: &str| native_v2::ScanOptions {
            chroms: Some(std::iter::once(name.to_owned()).collect()),
            columns: None,
        };
        let from_disk = |opts: &native_v2::ScanOptions| {
            let container = std::fs::File::open(dir.join(native_v2::CONTAINER_FILE)).unwrap();
            let all = |_: &str, _: &Metadata| true;
            native_v2::materialize_dataset_v2_from(container, opts, &Default::default(), all)
                .map(|_| ())
        };
        let outcomes = [
            native_v2::read_index(&dir).map(|_| ()),
            from_disk(&chrom("chr1")),
            from_disk(&chrom("chrX")),
            from_disk(&Default::default()),
            native_v2::decode_dataset_v2_pruned(&bytes[..cut], &chrom("chr1")).map(|_| ()),
            windowed_and_narrowed(&bytes[..cut]),
        ];
        std::fs::remove_dir_all(&dir).ok();
        for outcome in outcomes {
            match outcome {
                Ok(()) => prop_assert!(cut + 4 >= bytes.len(), "prefix of {} bytes read clean", cut),
                Err(FormatError::Corrupt { .. }) => {}
                Err(other) => prop_assert!(false, "untyped failure at {}: {}", cut, other),
            }
        }
    }

    /// Flipping bytes anywhere in a valid container never panics.
    #[test]
    fn native_v2_never_panics_on_corruption(
        edits in prop::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        let mut bytes = v2_container_bytes();
        for (pos, val) in edits {
            let len = bytes.len();
            bytes[pos % len] = val;
        }
        let _ = decode_dataset_v2(&bytes); // must return, not panic
    }

    /// Pure binary noise never panics the container decoder.
    #[test]
    fn native_v2_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_dataset_v2(&bytes);
    }

    /// Any single bit flip in a container is rejected by the full decode
    /// — as a typed `ChecksumMismatch` past the magic and version byte —
    /// never a panic, never silent garbage. A flip of the magic or the
    /// version byte (3 -> 2 included) is a structural error to every
    /// reader.
    #[test]
    fn v3_bit_flips_yield_checksum_mismatch(pos in 0usize..4096, bit in 0u8..8) {
        let mut bytes = v2_container_bytes();
        let len = bytes.len();
        let pos = pos % len;
        bytes[pos] ^= 1 << bit;
        let result = decode_dataset_v2(&bytes);
        // A windowed and narrowed read checks every block it reads, as
        // a full read does; the header and index are the trailer's alone.
        let blocks = len - 4 - v2_block_bytes();
        match windowed_and_narrowed(&bytes) {
            Err(nggc::formats::FormatError::ChecksumMismatch { .. }) if pos >= 9 => {}
            Err(nggc::formats::FormatError::Corrupt { .. }) if pos < 9 => {}
            other if pos < 9 => prop_assert!(false, "flip in the header at {pos} bit {bit}: {other:?}"),
            other if pos < blocks || pos >= len - 4 => {
                prop_assert!(
                    !matches!(other, Err(nggc::formats::FormatError::Io(_))),
                    "flip at {pos} bit {bit}: {other:?}"
                );
            }
            other => prop_assert!(false, "flip in a block at {pos} bit {bit}: {other:?}"),
        }
        if pos < 9 {
            // Magic or version byte: rejected as a structural error.
            prop_assert!(
                matches!(result, Err(nggc::formats::FormatError::Corrupt { .. })),
                "flip at {pos} bit {bit} of the header: {result:?}"
            );
        } else {
            prop_assert!(
                matches!(result, Err(nggc::formats::FormatError::ChecksumMismatch { .. })),
                "flip at {pos} bit {bit} not caught by checksum: {result:?}"
            );
        }
    }

    /// A container whose version byte reads 2 — the checksum-free
    /// revision of earlier releases, or a revision-3 container with bit 0
    /// of that byte flipped — is refused by every reader as typed
    /// corruption, whatever it holds.
    #[test]
    fn revision_2_containers_are_refused_by_every_reader(extra_regions in 0usize..16) {
        let mut ds = Dataset::new(
            "OLD",
            Schema::new(vec![Attribute::new("score", ValueType::Float)]).unwrap(),
        );
        let mut regions = vec![
            GRegion::new("chr1", 0, 10, Strand::Pos).with_values(vec![Value::Float(0.5)]),
        ];
        for i in 0..extra_regions {
            regions.push(
                GRegion::new("chr2", (i as u64) * 10, (i as u64) * 10 + 5, Strand::Neg)
                    .with_values(vec![Value::Null]),
            );
        }
        ds.add_sample(Sample::new("s1", "OLD").with_regions(regions)).unwrap();
        let mut old = encode_dataset_v2(&ds).unwrap();
        old[8] ^= 1;
        prop_assert_eq!(old[8], 2);
        let framed = [(old.len() as u64).to_le_bytes().to_vec(), old.clone()].concat();
        let outcomes = [
            decode_dataset_v2(&old).map(|_| ()),
            native_v2::decode_dataset_v2_pruned(&old, &Default::default()).map(|_| ()),
            windowed_and_narrowed(&old),
            native_v2::decode_outputs(&framed).map(|_| ()),
        ];
        for outcome in outcomes {
            prop_assert!(matches!(outcome, Err(FormatError::Corrupt { .. })), "{:?}", outcome);
        }
    }
}

/// The attributes of [`encoded_twice_dataset`], one of each type.
const TWICE_ATTRS: [(&str, ValueType); 4] =
    [("i", ValueType::Int), ("f", ValueType::Float), ("s", ValueType::Str), ("b", ValueType::Bool)];

/// A cell of `ty` drawn from `(pick, bits)`: null for pick 0; a NaN with
/// `bits` as its sign and payload for a float of pick 1; a string of up
/// to three characters, the empty one included.
fn cell_of(ty: ValueType, pick: u64, bits: u64) -> Value {
    match (ty, pick) {
        (_, 0) => Value::Null,
        (ValueType::Int, _) => Value::Int(bits as i64),
        (ValueType::Float, 1) => Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | bits)),
        (ValueType::Float, _) => Value::Float(f64::from_bits(bits)),
        (ValueType::Str, _) => Value::Str("a\u{e9}z".chars().take(bits as usize % 4).collect()),
        (ValueType::Bool, _) => Value::Bool(bits % 2 == 1),
    }
}

/// Regions of one sample: chromosome (`chr1` and `chr01` differ only in
/// a digit run), left, width and strand, then one `(pick, bits)` per
/// attribute.
type TwiceRegion = ((usize, u64, u64, u64), Vec<(u64, u64)>);

fn twice_samples() -> impl Strategy<Value = Vec<Vec<TwiceRegion>>> {
    let region = (
        (0usize..4, 0u64..400, 0u64..60, 0u64..3),
        prop::collection::vec((0u64..4, any::<u64>()), 4..5),
    );
    prop::collection::vec(prop::collection::vec(region, 0..14), 1..4)
}

fn encoded_twice_dataset(samples: Vec<Vec<TwiceRegion>>) -> Dataset {
    let attrs = TWICE_ATTRS.iter().map(|&(name, ty)| Attribute::new(name, ty)).collect();
    let mut ds = Dataset::new("TWICE", Schema::new(attrs).unwrap());
    for (k, regions) in samples.into_iter().enumerate() {
        let rows = regions
            .into_iter()
            .map(|((chrom, left, width, strand), cells)| {
                let strand = [Strand::Pos, Strand::Neg, Strand::Unstranded][strand as usize];
                let values = (TWICE_ATTRS.iter().zip(cells))
                    .map(|(&(_, ty), (pick, bits))| cell_of(ty, pick, bits))
                    .collect();
                let chrom = ["chr1", "chr01", "chr2", "chrX"][chrom];
                GRegion::new(chrom, left, left + width, strand).with_values(values)
            })
            .collect();
        ds.add_sample(Sample::new(format!("s{k}"), "TWICE").with_regions(rows)).unwrap();
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The encoder writes a sample from its rows or from the columns of
    /// its batch, and both give the same bytes: for a full read, and for
    /// a read that narrows its width and leaves some kept columns
    /// undecoded (typed nulls). Writing a batch-backed sample builds none
    /// of its rows.
    #[test]
    fn rows_and_batches_encode_to_the_same_bytes(
        samples in twice_samples(),
        (decoded, width) in (0usize..16, 0usize..16),
    ) {
        let ds = encoded_twice_dataset(samples);
        let bytes = encode_dataset_v2(&ds).unwrap();
        let names = |mask: usize| -> std::collections::BTreeSet<String> {
            (TWICE_ATTRS.iter().enumerate())
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, (name, _))| name.to_string())
                .collect()
        };
        let opts = native_v2::ScanOptions { chroms: None, columns: Some(names(decoded)) };
        let build = native_v2::Materialize { width: Some(names(width)), ..Default::default() };
        let all = |_: &str, _: &Metadata| true;
        let (narrowed, _) =
            native_v2::materialize_dataset_v2_from(std::io::Cursor::new(&bytes), &opts, &build, all)
                .unwrap();
        let full = decode_dataset_v2(&bytes).unwrap();
        for batches in [&full, &narrowed] {
            let mut rows = batches.clone();
            for sample in &mut rows.samples {
                let batch = sample.regions.batch().expect("a read decodes into batches");
                sample.regions = batch.to_rows().into();
            }
            prop_assert_eq!(encode_dataset_v2(batches).unwrap(), encode_dataset_v2(&rows).unwrap());
            prop_assert!(batches.samples.iter().all(|s| !s.regions.has_rows()), "rows were built");
        }
        prop_assert_eq!(encode_dataset_v2(&full).unwrap(), bytes);
    }
}

proptest! {
    // Sixteen plan templates times ten predicates: enough cases to meet
    // each pair.
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Scan-pruning oracle: for randomized datasets and plans, a query
    /// answered through pruned loads (`RepoProvider` → chromosome/column/
    /// sample selective container reads) must return exactly what the
    /// same query returns over full in-memory loads — cold, with one
    /// worker or two, and again once the dataset is resident and served
    /// as a superset — and a full load issued *after* the pruned one on
    /// the same repository must still see the complete dataset (LRU
    /// poisoning regression). Metadata predicates come in every shape
    /// `core::scan`'s unit tests name, alone and mixed with the other
    /// two axes, above and below other operators.
    #[test]
    fn pruned_scan_query_equals_full_scan_query(
        samples in prop::collection::vec(
            prop::collection::vec((0usize..3, 0u64..5_000, 1u64..300), 0..25),
            1..5,
        ),
        meta_seed in 0usize..4096,
        template in 0usize..16,
        pred_idx in 0usize..10,
        chrom_idx in 0usize..4,
        threshold in 0u64..3_000,
    ) {
        // Case, multi-valued and missing attributes, numbers and text.
        let metadata_shapes: [&[(&str, &str)]; 8] = [
            &[("cell", "HeLa")],
            &[("cell", "K562")],
            &[("cell", "k562"), ("age", "30")],
            &[("cell", "HeLa"), ("cell", "K562"), ("age", "3")],
            &[("age", "030")],
            &[("cell", "K562"), ("age", "3"), ("age", "40")],
            &[],
            &[("cell", "GM12878"), ("age", "abc")],
        ];
        let predicates = [
            "cell == 'K562'",
            "cell == 'k562' AND age > 5",
            "NOT (cell == 'K562')",
            "EXISTS(age)",
            "age > 5",
            "age == 30",
            "cell != 'HeLa'",
            "cell == 'HeLa' OR cell == 'K562'",
            "NOT (EXISTS(cell))",
            "age > 'b'",
        ];
        let pred = predicates[pred_idx];
        let pred2 = predicates[(pred_idx + 3) % predicates.len()];
        let chroms = ["chr1", "chr2", "chr3"];
        let query_chrom = ["chr1", "chr2", "chr3", "chrX"][chrom_idx];
        let schema = Schema::new(vec![
            Attribute::new("score", ValueType::Float),
            Attribute::new("peak", ValueType::Int),
        ])
        .unwrap();
        let mut ds = Dataset::new("D", schema);
        for (si, sample) in samples.iter().enumerate() {
            let mut regions: Vec<GRegion> = sample
                .iter()
                .enumerate()
                .map(|(ri, &(c, l, w))| {
                    GRegion::new(chroms[c], l, l + w, Strand::Pos).with_values(vec![
                        Value::Float((ri as f64) * 0.25),
                        Value::Int(ri as i64),
                    ])
                })
                .collect();
            regions.sort_by(|a, b| a.cmp_coords(b));
            ds.add_sample(
                Sample::new(format!("s{si}"), "D")
                    .with_regions(regions)
                    .with_metadata(Metadata::from_pairs(
                        metadata_shapes[(meta_seed >> (3 * si)) & 7].iter().copied(),
                    )),
            )
            .unwrap();
        }

        let query = match template {
            0 => format!("X = SELECT(region: chr == '{query_chrom}') D; MATERIALIZE X;"),
            1 => format!(
                "X = SELECT(region: chr == '{query_chrom}' AND left > {threshold}) D; \
                 MATERIALIZE X;"
            ),
            2 => "X = PROJECT(score) D; MATERIALIZE X;".to_owned(),
            3 => format!(
                "R = SELECT(region: chr == '{query_chrom}') D; \
                 M = MAP(n AS COUNT, a AS AVG(score)) R D; MATERIALIZE M;"
            ),
            4 => format!(
                "X = SELECT(region: chr == '{query_chrom}' OR chr == 'chr1') D; \
                 MATERIALIZE X;"
            ),
            // The sample axis alone, then with chromosomes, with columns.
            5 => format!("X = SELECT({pred}) D; MATERIALIZE X;"),
            6 => format!(
                "X = SELECT({pred}; region: chr == '{query_chrom}' AND left > {threshold}) D; \
                 MATERIALIZE X;"
            ),
            7 => format!("A = SELECT({pred}) D; X = PROJECT(score) A; MATERIALIZE X;"),
            8 => format!("P = PROJECT(score) D; X = SELECT({pred}) P; MATERIALIZE X;"),
            // Cascaded (AND), two consumers (OR), one of them unbounded.
            9 => format!(
                "A = SELECT({pred}) D; \
                 B = SELECT({pred2}; region: chr == '{query_chrom}') A; MATERIALIZE B;"
            ),
            10 => format!(
                "A = SELECT({pred}) D; B = SELECT({pred2}; region: left > {threshold}) D; \
                 MATERIALIZE A; MATERIALIZE B;"
            ),
            11 => format!("A = SELECT({pred}) D; U = UNION() A D; MATERIALIZE U;"),
            // A SELECT above operators that stop the demand, and below one.
            12 => format!("E = EXTEND(n AS COUNT) D; X = SELECT({pred}) E; MATERIALIZE X;"),
            13 => format!("G = GROUP(cell) D; X = SELECT({pred}) G; MATERIALIZE X;"),
            14 => format!(
                "R = SELECT({pred}; region: chr == '{query_chrom}') D; \
                 M = MAP(n AS COUNT, a AS AVG(score)) R D; MATERIALIZE M;"
            ),
            // The semijoin narrows nothing; its partner has its own demand.
            _ => format!(
                "EXT = SELECT({pred}) D; \
                 X = SELECT({pred2}; semijoin: cell IN EXT) D; MATERIALIZE X;"
            ),
        };

        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "nggc_prune_oracle_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::remove_dir_all(&root).ok();
        let mut repo = nggc::repository::Repository::open(&root).unwrap();
        repo.save(&ds).unwrap();
        // Reopen so the pruned run starts from a cold LRU: `save` seeds
        // the cache, and a warm cache would serve full supersets.
        let repo = nggc::repository::Repository::open(&root).unwrap();

        let ctx = nggc::engine::ExecContext::with_workers(2);
        let opts = nggc::gmql::ExecOptions::default();
        let schema_of = |name: &str| repo.schema_of(name);
        // Canonical rendering that ignores the process-global sample id
        // counter (fresh ids are minted per materialised sample).
        let strip_ids = |ds: &Dataset| {
            let mut s = format!("{}|{}", ds.name, ds.schema);
            for smp in &ds.samples {
                s.push_str(&format!("\n{}|{:?}", smp.name, smp.metadata));
                for r in smp.regions.iter() {
                    s.push_str(&format!(
                        "\n  {} {} {} {:?} {:?}",
                        r.chrom, r.left, r.right, r.strand, r.values
                    ));
                }
            }
            s
        };
        let canon = |outputs: &std::collections::HashMap<String, Dataset>| {
            let mut names: Vec<&String> = outputs.keys().collect();
            names.sort();
            names
                .iter()
                .map(|n| format!("{n}={}", strip_ids(&outputs[*n])))
                .collect::<Vec<_>>()
                .join("\n")
        };

        // Reference: full in-memory loads (closure providers never prune).
        let full_ds = ds.clone();
        let full_provider = move |name: &str| {
            if name == "D" {
                Ok(full_ds.clone())
            } else {
                Err(nggc::gmql::GmqlError::runtime(format!("unknown dataset {name}")))
            }
        };
        let reference = nggc::gmql::run_with_provider(
            &query, &schema_of, &full_provider, &ctx, &opts,
        )
        .unwrap();

        // Pruned: the repository provider pushes the derived ScanSpec
        // into the v2 container read — a pruned read is never cached, so
        // the serial run reads the container again.
        let pruned_provider = nggc::RepoProvider::new(&repo);
        let serial = nggc::engine::ExecContext::with_workers(1);
        for (how, ctx) in [("2 workers", &ctx), ("1 worker", &serial)] {
            let pruned = nggc::gmql::run_with_provider(
                &query, &schema_of, &pruned_provider, ctx, &opts,
            )
            .unwrap();
            prop_assert_eq!(canon(&reference), canon(&pruned), "{}, query: {}", how, query);
        }

        // Poisoning regression: a full load on the same repository after
        // the pruned run must see the complete dataset.
        let full_after = repo.load("D").unwrap();
        prop_assert_eq!(
            strip_ids(&ds),
            strip_ids(&full_after),
            "pruned load leaked a partial dataset into the cache"
        );
        // And now that the dataset is resident, the same requests are
        // handed the full copy: a superset the operators cut down.
        let resident = nggc::gmql::run_with_provider(
            &query, &schema_of, &pruned_provider, &ctx, &opts,
        )
        .unwrap();
        prop_assert_eq!(canon(&reference), canon(&resident), "resident, query: {}", query);
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Random regions on `chr1`..`chr3` (chromosome index, left, width) per
/// sample, as dataset `D`: a float, an int and a string column, with
/// zero-length regions, nulls and strings; even samples are K562, odd
/// ones HeLa.
fn three_column_dataset(samples: &[Vec<(usize, u64, u64)>]) -> Dataset {
    let chroms = ["chr1", "chr2", "chr3"];
    let schema = Schema::new(vec![
        Attribute::new("score", ValueType::Float),
        Attribute::new("peak", ValueType::Int),
        Attribute::new("label", ValueType::Str),
    ])
    .unwrap();
    let mut ds = Dataset::new("D", schema);
    for (si, sample) in samples.iter().enumerate() {
        let mut regions: Vec<GRegion> = sample
            .iter()
            .enumerate()
            .map(|(ri, &(c, l, w))| {
                // Zero-length regions, nulls and strings of every row.
                let label = if ri % 3 == 0 { Value::Null } else { Value::Str(format!("r{ri}")) };
                GRegion::new(chroms[c], l, l + w, Strand::Pos).with_values(vec![
                    Value::Float(ri as f64 * 0.5),
                    Value::Int(ri as i64),
                    label,
                ])
            })
            .collect();
        regions.sort_by(|a, b| a.cmp_coords(b));
        let cell = ["K562", "HeLa"][si % 2];
        ds.add_sample(
            Sample::new(format!("s{si}"), "D")
                .with_regions(regions)
                .with_metadata(Metadata::from_pairs([("cell", cell)])),
        )
        .unwrap();
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Late-materialization oracle: random PROJECT keep lists (any subset,
    /// any order, with and without a computed attribute) and random
    /// coordinate windows, read cold from a repository — so that the
    /// container read builds only the window's rows and, under PROJECT,
    /// only the listed columns — give exactly what the in-memory engine
    /// computes over the whole dataset.
    #[test]
    fn windowed_and_narrowed_reads_equal_the_in_memory_engine(
        samples in prop::collection::vec(
            prop::collection::vec((0usize..3, 0u64..3_000, 0u64..300), 0..30),
            1..4,
        ),
        keep_mask in 1usize..8,
        keep_rotation in 0usize..3,
        computed in any::<bool>(),
        template in 0usize..9,
        chrom_idx in 0usize..3,
        lo in 0u64..3_000,
        span in 0u64..3_000,
    ) {
        let chroms = ["chr1", "chr2", "chr3"];
        let ds = three_column_dataset(&samples);

        // The kept columns, in an order of their own.
        let mut keep: Vec<&str> = ["score", "peak", "label"]
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << i) != 0)
            .map(|(_, name)| *name)
            .collect();
        let len = keep.len();
        keep.rotate_left(keep_rotation % len);
        let mut list = keep.join(", ");
        if computed {
            list.push_str(", twice AS peak * 2");
        }
        let other = ["label", "peak, score", "score"][keep_rotation];
        let chrom = chroms[chrom_idx];
        let hi = lo + span;
        let query = match template {
            0 => format!("X = PROJECT({list}) D; MATERIALIZE X;"),
            1 => format!(
                "X = SELECT(region: chr == '{chrom}' AND left >= {lo} AND right <= {hi}) D; \
                 MATERIALIZE X;"
            ),
            2 => format!(
                "W = SELECT(region: chr == '{chrom}' AND left >= {lo} AND right <= {hi}) D; \
                 X = PROJECT({list}) W; MATERIALIZE X;"
            ),
            3 => format!(
                "X = PROJECT({list}) D; Y = PROJECT({other}) D; MATERIALIZE X; MATERIALIZE Y;"
            ),
            // The window and the sample demand pass through the PROJECT.
            4 => format!(
                "P = PROJECT({list}) D; \
                 X = SELECT(cell == 'K562'; region: left >= {lo} AND right <= {hi}) P; \
                 MATERIALIZE X;"
            ),
            5 => format!(
                "M = MERGE() D; X = SELECT(region: chr == '{chrom}' AND left > {lo}) M; \
                 MATERIALIZE X;"
            ),
            6 => format!(
                "A = SELECT(cell == 'HeLa'; region: left >= {lo}) D; \
                 B = SELECT(cell == 'K562'; region: right <= {hi}) D; \
                 MATERIALIZE A; MATERIALIZE B;"
            ),
            // A partial SELECT on a value (no window to prune by), and a
            // metadata SELECT, over one read that both share.
            7 => format!(
                "A = SELECT(region: peak >= {} AND label != 'r1') D; B = SELECT(cell == 'HeLa') D; \
                 X = PROJECT({list}) A; MATERIALIZE X; MATERIALIZE B;",
                lo % 30
            ),
            _ => format!("X = SELECT(region: peak < {} OR left > {hi}) D; MATERIALIZE X;", lo % 30),
        };

        // Reference: the in-memory engine, over the whole dataset.
        let mut engine = GmqlEngine::with_workers(2);
        engine.register(ds.clone());
        let reference = engine.run(&query).unwrap();

        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "nggc_late_oracle_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        std::fs::remove_dir_all(&root).ok();
        nggc::repository::Repository::open(&root).unwrap().save(&ds).unwrap();
        let repo = nggc::repository::Repository::open(&root).unwrap().without_dataset_cache();
        let cold = nggc::gmql::run_with_provider(
            &query,
            &|name: &str| repo.schema_of(name),
            &nggc::RepoProvider::new(&repo),
            &nggc::engine::ExecContext::with_workers(2),
            &nggc::gmql::ExecOptions::default(),
        )
        .unwrap();
        std::fs::remove_dir_all(&root).ok();
        // SELECT and PROJECT read the batches of a cold read and hand
        // batches on: no output row is built unless a MERGE or a
        // computed attribute asked for rows.
        if template != 5 && !computed {
            for (name, out) in &cold {
                for smp in &out.samples {
                    prop_assert!(
                        smp.regions.batch().is_some() && !smp.regions.has_rows(),
                        "{}: {} built rows in {}", name, smp.name, query
                    );
                }
            }
        }

        let render = |outputs: &std::collections::HashMap<String, Dataset>| {
            let mut names: Vec<&String> = outputs.keys().collect();
            names.sort();
            let mut s = String::new();
            for name in names {
                let ds = &outputs[name];
                s.push_str(&format!("{name}|{}\n", ds.schema));
                for smp in &ds.samples {
                    s.push_str(&format!("{}|{:?}\n", smp.name, smp.metadata));
                    for r in smp.regions.iter() {
                        s.push_str(&format!(
                            "  {} {} {} {:?} {:?}\n",
                            r.chrom, r.left, r.right, r.strand, r.values
                        ));
                    }
                }
            }
            s
        };
        prop_assert_eq!(render(&reference), render(&cold), "query: {}", query);
    }
}

/// A container source that logs what a read takes from it: the bytes of
/// every positional read, and the extents its decode jobs fetch.
struct Logged<S> {
    inner: S,
    read: std::sync::atomic::AtomicU64,
    fetched: std::sync::Mutex<Vec<(u64, usize)>>,
}

impl<S> Logged<S> {
    fn new(inner: S) -> Logged<S> {
        Logged { inner, read: Default::default(), fetched: Default::default() }
    }

    /// The extents fetched, in container order.
    fn fetched(&self) -> Vec<(u64, usize)> {
        let mut fetched = self.fetched.lock().unwrap().clone();
        fetched.sort_unstable();
        fetched
    }
}

impl<S: native_v2::ContainerSource> native_v2::ContainerSource for Logged<S> {
    fn size(&self) -> std::io::Result<u64> {
        self.inner.size()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.read.fetch_add(buf.len() as u64, std::sync::atomic::Ordering::SeqCst);
        self.inner.read_exact_at(buf, offset)
    }

    fn extent(&self, offset: u64, len: usize) -> std::io::Result<std::borrow::Cow<'_, [u8]>> {
        self.read.fetch_add(len as u64, std::sync::atomic::Ordering::SeqCst);
        self.fetched.lock().unwrap().push((offset, len));
        self.inner.extent(offset, len)
    }
}

/// `bytes` written as the container of a fresh dataset directory.
fn container_dir(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "nggc_same_read_{tag}_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(native_v2::CONTAINER_FILE), bytes).unwrap();
    dir
}

/// A dataset as text, sample ids left out (they are minted per read).
fn rendered(ds: &Dataset) -> String {
    let mut s = format!("{}|{}", ds.name, ds.schema);
    for smp in &ds.samples {
        s.push_str(&format!("\n{}|{:?}", smp.name, smp.metadata));
        for r in smp.regions.iter() {
            s.push_str(&format!(
                "\n  {} {} {} {:?} {:?}",
                r.chrom, r.left, r.right, r.strand, r.values
            ));
        }
    }
    s
}

/// The columns of `names` that `mask` picks, by bit.
fn picked(mask: usize, names: &[&str]) -> std::collections::BTreeSet<String> {
    names
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, n)| n.to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One read, wherever the container is: a read of a container file
    /// (each decode job fetching its own blocks with positional reads)
    /// and a read of the same bytes in memory (blocks borrowed) give the
    /// same datasets, samples in the same order, and the same
    /// `ScanStats`, for any chromosomes, columns, window, width and
    /// admitted samples — and both are the full decode cut down by hand.
    /// Every sample comes back knowing its encoded size.
    #[test]
    fn a_read_from_a_file_equals_a_read_from_memory(
        samples in prop::collection::vec(
            prop::collection::vec((0usize..3, 0u64..3_000, 0u64..300), 0..30),
            1..5,
        ),
        chrom_mask in 0usize..20,
        column_mask in 0usize..10,
        width_mask in 0usize..10,
        lo in 0u64..3_500,
        hi in 0u64..3_500,
        admit_idx in 0usize..4,
    ) {
        // Values past the range stand for "no restriction".
        let chrom_mask = (chrom_mask < 16).then_some(chrom_mask);
        let column_mask = (column_mask < 8).then_some(column_mask);
        let width_mask = (width_mask < 8).then_some(width_mask);
        let (lo, hi) = ((lo < 3_000).then_some(lo), (hi < 3_000).then_some(hi));
        let ds = three_column_dataset(&samples);
        let bytes = encode_dataset_v2(&ds).unwrap();
        let dir = container_dir("prop", &bytes);
        let columns = ["score", "peak", "label"];
        let opts = native_v2::ScanOptions {
            chroms: chrom_mask.map(|m| picked(m, &["chr1", "chr2", "chr3", "chrX"])),
            // Matched case-insensitively.
            columns: column_mask.map(|m| picked(m, &["SCORE", "peak", "Label"])),
        };
        let build = native_v2::Materialize { lo, hi, width: width_mask.map(|m| picked(m, &columns)) };
        let admit = |name: &str, metadata: &Metadata| match admit_idx {
            0 => true,
            1 => metadata.has("cell", "K562"),
            2 => false,
            _ => name == "s0",
        };

        // From the file and from memory: batch-backed samples whose rows
        // are not built until asked for, alike region for region, in size
        // and in what the reads report.
        let file = std::fs::File::open(dir.join(native_v2::CONTAINER_FILE)).unwrap();
        let reads = [
            native_v2::materialize_dataset_v2_from(file, &opts, &build, admit).unwrap(),
            native_v2::materialize_dataset_v2_from(std::io::Cursor::new(&bytes), &opts, &build, admit)
                .unwrap(),
        ];
        for (ds, _) in &reads {
            for sample in &ds.samples {
                prop_assert!(sample.regions.batch().is_some() && !sample.regions.has_rows());
            }
        }
        let sizes = |ds: &Dataset| -> Vec<Option<usize>> {
            ds.samples.iter().map(|s| s.regions.known_size()).collect()
        };
        let (from_file, file_stats) = reads[0].clone();
        for (ds, stats) in &reads[1..] {
            prop_assert_eq!(sizes(ds), sizes(&from_file));
            prop_assert_eq!(rendered(ds), rendered(&from_file));
            prop_assert_eq!(*stats, file_stats);
        }
        let in_memory = reads[1].0.clone();

        // The encoded dataset, cut down by hand.
        let full = &ds;
        let kept: Vec<usize> = (0..columns.len())
            .filter(|&i| build.width.as_ref().is_none_or(|w| w.contains(columns[i])))
            .collect();
        let decoded = |i: usize| column_mask.is_none_or(|m| m & (1 << i) != 0);
        let wants = |chrom: &str| opts.chroms.as_ref().is_none_or(|c| c.contains(chrom));
        let in_window = |left: u64| lo.is_none_or(|lo| lo <= left) && hi.is_none_or(|hi| left <= hi);
        let schema = Schema::new(kept.iter().map(|&i| full.schema.attributes()[i].clone()).collect())
            .unwrap();
        let mut expected = Dataset::new(full.name.clone(), schema);
        let mut listed = 0u64;
        for sample in full.samples.iter().filter(|s| admit(&s.name, &s.metadata)) {
            let wanted: Vec<&GRegion> = sample.regions.iter().filter(|r| wants(r.chrom.as_str())).collect();
            listed += wanted.len() as u64;
            let rows = wanted
                .into_iter()
                .filter(|r| in_window(r.left))
                .map(|r| GRegion {
                    values: kept
                        .iter()
                        .map(|&i| if decoded(i) { r.values[i].clone() } else { Value::Null })
                        .collect(),
                    ..r.clone()
                })
                .collect();
            expected.add_sample(
                Sample::new(sample.name.clone(), "D")
                    .with_regions(rows)
                    .with_metadata(sample.metadata.clone()),
            )
            .unwrap();
        }
        prop_assert_eq!(rendered(&from_file), rendered(&expected));
        let built = expected.region_count() as u64;
        let index = native_v2::read_index(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(
            (file_stats.samples_read, file_stats.samples_skipped),
            (expected.sample_count() as u64, (full.sample_count() - expected.sample_count()) as u64)
        );
        prop_assert_eq!(file_stats.bytes_read, index.block_bytes(&opts, admit).0);
        prop_assert_eq!(file_stats.rows_skipped, listed - built);
        prop_assert_eq!(file_stats.cells, built * kept.len() as u64);
        let decoded_cells = kept.iter().filter(|&&i| decoded(i)).count() as u64;
        prop_assert_eq!(file_stats.cells_decoded, built * decoded_cells);
        prop_assert_eq!(file_stats.container_bytes, bytes.len() as u64);

        for sample in from_file.samples.iter().chain(&in_memory.samples) {
            let walked: usize = sample.regions.iter().map(GRegion::encoded_size).sum();
            prop_assert_eq!(sample.regions.known_size(), Some(walked));
            // The rows built, the batch is let go.
            prop_assert!(sample.regions.has_rows() && sample.regions.batch().is_none());
        }
    }
}

/// Four samples of three chromosomes, one K562 and three others, with
/// blocks large enough to dwarf the indexes.
fn tall_container() -> Vec<u8> {
    let samples: Vec<Vec<(usize, u64, u64)>> = (0..4u64)
        .map(|s| (0..3).flat_map(|c| (0..2_000u64).map(move |i| (c, i * 50 + s, 30))).collect())
        .collect();
    encode_dataset_v2(&three_column_dataset(&samples)).unwrap()
}

/// Each sample's block extents, in stored order: a read that wants every
/// block fetches one run per sample, and the index gives its blocks'
/// lengths within it.
fn block_extents(bytes: &[u8]) -> Vec<Vec<(u64, usize)>> {
    let src = Logged::new(std::io::Cursor::new(bytes));
    let all = |_: &str, _: &Metadata| true;
    native_v2::materialize_dataset_v2_from(&src, &Default::default(), &Default::default(), all)
        .unwrap();
    let dir = container_dir("extents", bytes);
    let index = native_v2::read_index(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let runs = src.fetched();
    assert_eq!(runs.len(), index.samples.len(), "one read per sample's run of blocks");
    runs.iter()
        .zip(&index.samples)
        .map(|(&(mut at, len), sample)| {
            let blocks: Vec<(u64, usize)> = sample
                .chroms
                .iter()
                .map(|c| {
                    let block = (at, c.bytes as usize);
                    at += c.bytes;
                    block
                })
                .collect();
            assert_eq!(blocks.iter().map(|b| b.1).sum::<usize>(), len);
            blocks
        })
        .collect()
}

#[test]
fn a_flipped_byte_in_a_block_names_its_section_from_file_and_memory() {
    let bytes = tall_container();
    let extents = block_extents(&bytes);
    let all = |_: &str, _: &Metadata| true;
    let opts = native_v2::ScanOptions::default();
    for (s, blocks) in extents.iter().enumerate() {
        for (c, &(at, len)) in blocks.iter().enumerate() {
            let mut flipped = bytes.clone();
            flipped[at as usize + len / 2] ^= 0x10;
            let dir = container_dir("flip", &flipped);
            let file = std::fs::File::open(dir.join(native_v2::CONTAINER_FILE)).unwrap();
            let outcomes = [
                native_v2::materialize_dataset_v2_from(file, &opts, &Default::default(), all),
                native_v2::materialize_dataset_v2_from(
                    std::io::Cursor::new(&flipped),
                    &opts,
                    &Default::default(),
                    all,
                ),
                native_v2::decode_dataset_v2_pruned(&flipped, &opts),
            ];
            std::fs::remove_dir_all(&dir).ok();
            for outcome in outcomes {
                match outcome {
                    Err(FormatError::ChecksumMismatch { section, .. }) => {
                        assert_eq!(section, format!("s{s}/chr{}", c + 1))
                    }
                    other => panic!("s{s} block {c}: expected ChecksumMismatch, got {other:?}"),
                }
            }
        }
    }
}

/// A container file that is cut short once its index has been walked:
/// the first block fetch truncates it to `cut` bytes, so every fetch
/// meets a file shorter than the length the walk checked extents against.
struct ShrinksAfterTheWalk {
    file: std::fs::File,
    cut: u64,
    once: std::sync::Once,
}

impl native_v2::ContainerSource for ShrinksAfterTheWalk {
    fn size(&self) -> std::io::Result<u64> {
        self.file.size()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.file.read_exact_at(buf, offset)
    }

    fn extent(&self, offset: u64, len: usize) -> std::io::Result<std::borrow::Cow<'_, [u8]>> {
        self.once.call_once(|| self.file.set_len(self.cut).unwrap());
        self.file.extent(offset, len)
    }
}

#[test]
fn a_container_cut_after_its_index_was_walked_is_a_typed_error() {
    let bytes = tall_container();
    let extents = block_extents(&bytes);
    let (first, last) = (extents[0][0].0, *extents.last().unwrap().last().unwrap());
    let end = last.0 + last.1 as u64;
    let all = |_: &str, _: &Metadata| true;
    for cut in [first, first + 1, (first + end) / 2, end - 1] {
        let dir = container_dir("cut", &bytes);
        let path = dir.join(native_v2::CONTAINER_FILE);
        let file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        let src = ShrinksAfterTheWalk { file, cut, once: std::sync::Once::new() };
        let read = native_v2::materialize_dataset_v2_from(
            src,
            &Default::default(),
            &Default::default(),
            all,
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), cut, "the file was cut");
        std::fs::remove_dir_all(&dir).ok();
        match read {
            Err(FormatError::Corrupt { reason, .. }) => {
                assert!(reason.contains("past end of container"), "cut {cut}: {reason}")
            }
            other => panic!(
                "cut {cut}: expected Corrupt, got {:?}",
                other.map(|(ds, _)| ds.region_count())
            ),
        }
    }
}

#[test]
fn a_refused_samples_blocks_are_never_read() {
    let bytes = tall_container();
    let extents = block_extents(&bytes);
    let run = |s: usize| {
        let blocks = &extents[s];
        (blocks[0].0, blocks.iter().map(|b| b.1).sum::<usize>())
    };
    let dir = container_dir("refused", &bytes);
    let file = std::fs::File::open(dir.join(native_v2::CONTAINER_FILE)).unwrap();
    let src = Logged::new(file);
    let k562 = |_: &str, metadata: &Metadata| metadata.has("cell", "K562");
    let (got, stats) = native_v2::materialize_dataset_v2_from(
        &src,
        &Default::default(),
        &Default::default(),
        k562,
    )
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let names: Vec<&str> = got.samples.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["s0", "s2"]);
    assert_eq!(stats.samples_skipped, 2);
    // The decode jobs fetched the admitted samples' blocks, one run each,
    // and nothing of s1's or s3's.
    assert_eq!(src.fetched(), [run(0), run(2)]);
    // The walk reads indexes only: what it took beside the runs is less
    // than a read buffer per sample, far less than a refused sample's blocks.
    let walked = src.read.load(std::sync::atomic::Ordering::SeqCst) - stats.bytes_read;
    assert!(walked < 4 * 8192 + 8192, "the walk read {walked} bytes");
    assert!(walked < run(1).1 as u64, "the walk read {walked} bytes");
}
