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
        for region in &m.samples[0].regions {
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
            d.samples.iter().flat_map(|s| &s.regions).map(|r| r.len()).sum()
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
        for r in &summit.samples[0].regions {
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
    /// always a typed error (or a clean decode for a lucky prefix),
    /// never a panic or unbounded allocation.
    #[test]
    fn native_v2_never_panics_on_truncation(frac in 0.0f64..1.0) {
        let bytes = v2_container_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(decode_dataset_v2(&bytes[..cut]).is_err(), "truncated container decoded");
        // The readers that walk the file instead of loading it: the same
        // prefix on disk fails as typed corruption wherever the cut falls
        // inside an index or a block (only the four trailer bytes can go
        // missing unnoticed: these readers do not check the trailer).
        let dir = std::env::temp_dir().join(format!(
            "nggc_prop_trunc_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(native_v2::CONTAINER_FILE), &bytes[..cut]).unwrap();
        let chr1 = native_v2::ScanOptions {
            chroms: Some(std::iter::once("chr1".to_owned()).collect()),
            columns: None,
        };
        let outcomes = [
            native_v2::read_index(&dir).map(|_| ()),
            native_v2::read_dataset_v2_pruned(&dir, &chr1).map(|_| ()),
            native_v2::read_dataset_v2_chrom(&dir, "chrX").map(|_| ()),
            native_v2::read_dataset_v2_pruned(&dir, &Default::default()).map(|_| ()),
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

    /// Any single bit flip in a current (revision 3, checksummed)
    /// container is rejected by the full decode as a typed
    /// `ChecksumMismatch` — never a panic, never silent garbage. The
    /// only exemption is bit 0 of the version byte (offset 8), which
    /// downgrades the container to the checksum-free legacy revision
    /// (see docs/storage.md).
    #[test]
    fn v3_bit_flips_yield_checksum_mismatch(pos in 0usize..4096, bit in 0u8..8) {
        let mut bytes = v2_container_bytes();
        let len = bytes.len();
        let pos = pos % len;
        bytes[pos] ^= 1 << bit;
        let result = decode_dataset_v2(&bytes);
        if pos == 8 && bit == 0 {
            // Version byte 3 -> 2: the documented undetectable downgrade.
            return Ok(());
        }
        if pos < 9 {
            // Magic or version byte: rejected as a structural error.
            prop_assert!(result.is_err(), "corrupted header decoded");
        } else {
            prop_assert!(
                matches!(result, Err(nggc::formats::FormatError::ChecksumMismatch { .. })),
                "flip at {pos} bit {bit} not caught by checksum: {result:?}"
            );
        }
    }

    /// Truncating a checksummed container at any point keeps yielding a
    /// typed error; a cut that leaves the trailer malformed or absent
    /// can never decode cleanly.
    #[test]
    fn v3_truncation_always_errors(frac in 0.0f64..1.0) {
        let bytes = v2_container_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(decode_dataset_v2(&bytes[..cut]).is_err(), "truncated container decoded");
        // The readers that walk the file instead of loading it: the same
        // prefix on disk fails as typed corruption wherever the cut falls
        // inside an index or a block (only the four trailer bytes can go
        // missing unnoticed: these readers do not check the trailer).
        let dir = std::env::temp_dir().join(format!(
            "nggc_prop_trunc_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(native_v2::CONTAINER_FILE), &bytes[..cut]).unwrap();
        let chr1 = native_v2::ScanOptions {
            chroms: Some(std::iter::once("chr1".to_owned()).collect()),
            columns: None,
        };
        let outcomes = [
            native_v2::read_index(&dir).map(|_| ()),
            native_v2::read_dataset_v2_pruned(&dir, &chr1).map(|_| ()),
            native_v2::read_dataset_v2_chrom(&dir, "chrX").map(|_| ()),
            native_v2::read_dataset_v2_pruned(&dir, &Default::default()).map(|_| ()),
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

    /// Legacy (revision 2, checksum-free) containers written by the
    /// previous release still decode to identical content.
    #[test]
    fn legacy_v2_containers_decode_under_v3_reader(extra_regions in 0usize..16) {
        let mut ds = Dataset::new(
            "LEGACY",
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
        ds.add_sample(Sample::new("s1", "LEGACY").with_regions(regions)).unwrap();
        let legacy = nggc::formats::native_v2::encode_dataset_v2_legacy(&ds).unwrap();
        let decoded = decode_dataset_v2(&legacy).unwrap();
        prop_assert_eq!(&decoded.name, &ds.name);
        prop_assert_eq!(&decoded.schema, &ds.schema);
        prop_assert_eq!(decoded.samples.len(), ds.samples.len());
        prop_assert_eq!(
            decoded.samples[0].region_count(),
            ds.samples[0].region_count()
        );
        prop_assert_eq!(decoded.stats(), ds.stats());
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
                for r in &smp.regions {
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
