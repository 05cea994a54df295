//! §3 case study 2 (Figure 3): CTCF loops, enhancers, and gene
//! regulation.
//!
//! "GMQL can be used to extract candidate gene-enhancer pairs by suitable
//! intersections of the signals in Figure 3 — i.e., CTCF regions, the
//! regions of the three methylation experiments (H3K27AC, H3K4me1,
//! H3K4me3), and gene promoter regions" (paper §3). The pipeline:
//!
//! 1. enhancer candidates = H3K27ac ∩ H3K4me1 peaks;
//! 2. active promoters = promoters ∩ H3K4me3, on expressed genes;
//! 3. candidate pairs = enhancer and promoter enclosed in the **same
//!    CTCF loop** (the spatial condition favouring the interaction).
//!
//! The synthetic study plants true pairs, so the example reports
//! precision/recall of the extraction.
//!
//! Run with: `cargo run --example ctcf_loops`

use nggc::gmql::GmqlEngine;
use nggc::synth::{generate_ctcf_study, CtcfStudyConfig, Genome};
use std::collections::BTreeSet;

fn main() {
    let genome = Genome::human(0.02);
    let study = generate_ctcf_study(&genome, &CtcfStudyConfig::default());
    println!("== synthetic §3-problem-2 study (Figure 3) ==");
    println!("CTCF loops: {}", study.loops.region_count());
    println!(
        "histone-mark samples: {} ({} peaks)",
        study.marks.sample_count(),
        study.marks.region_count()
    );
    println!("planted enhancer→gene pairs: {}", study.true_pairs.len());

    let mut engine = GmqlEngine::with_workers(4);
    engine.register(study.loops.clone());
    engine.register(study.marks.clone());
    engine.register(study.annotations.clone());
    engine.register(study.expression.clone());

    let query = "
        K27    = SELECT(antibody == 'H3K27ac') MARKS;
        K4ME1  = SELECT(antibody == 'H3K4me1') MARKS;
        K4ME3  = SELECT(antibody == 'H3K4me3') MARKS;

        # 1. Enhancer candidates carry BOTH activating marks (yellow
        #    rectangles of Figure 3).
        ENH0   = JOIN(DLE(-1); output: INT) K27 K4ME1;
        ENH    = PROJECT(esig AS left.signal) ENH0;

        # 2. Active promoters: H3K4me3-marked promoter regions of genes
        #    whose expression exceeds 10 (activity revealed by experiment).
        PROMS  = SELECT(region: annType == 'promoter') ANNOTATIONS;
        APROM0 = JOIN(DLE(-1); output: LEFT) PROMS K4ME3;
        APROM1 = PROJECT(gene0 AS left.name) APROM0;
        EXPR   = SELECT(region: expression > 10) EXPRESSION;
        APROM2 = JOIN(DLE(0); output: LEFT) APROM1 EXPR;
        APROM3 = SELECT(region: left.gene0 == right.gene) APROM2;
        APROM  = PROJECT(gene AS left.gene0) APROM3;

        # 3. Anchor both to CTCF loops and keep pairs in the SAME loop.
        LE0    = JOIN(DLE(-1); output: RIGHT) CTCF_LOOPS ENH;
        LE     = PROJECT(eloop AS left.loop_id, enh_sig AS right.esig) LE0;
        LP0    = JOIN(DLE(-1); output: RIGHT) CTCF_LOOPS APROM;
        LP     = PROJECT(ploop AS left.loop_id, pgene AS right.gene) LP0;
        PAIRS0 = JOIN(DLE(500000); output: CAT) LE LP;
        PAIRS  = SELECT(region: left.eloop == right.ploop) PAIRS0;
        MATERIALIZE PAIRS;
    ";
    println!("\n== GMQL pipeline ==\n{query}");
    let out = engine.run(query).unwrap();
    let pairs = &out["PAIRS"];

    let gene_pos = pairs.schema.position("right.pgene").expect("gene attribute");
    let loop_pos = pairs.schema.position("left.eloop").expect("loop attribute");
    let mut candidate_pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for s in &pairs.samples {
        for r in s.regions.iter() {
            if let (Some(lp), Some(g)) = (r.values[loop_pos].as_str(), r.values[gene_pos].as_str())
            {
                candidate_pairs.insert((lp.to_owned(), g.to_owned()));
            }
        }
    }
    let candidate_genes: BTreeSet<&str> = candidate_pairs.iter().map(|(_, g)| g.as_str()).collect();
    let planted_genes: BTreeSet<&str> = study.true_pairs.iter().map(|(_, g)| g.as_str()).collect();

    let tp = candidate_genes.intersection(&planted_genes).count();
    let precision = tp as f64 / candidate_genes.len().max(1) as f64;
    let recall = tp as f64 / planted_genes.len().max(1) as f64;
    println!("== extraction quality vs planted truth ==");
    println!("candidate (loop, gene) pairs: {}", candidate_pairs.len());
    println!("candidate genes: {}", candidate_genes.len());
    println!("planted genes recovered: {tp}/{}", planted_genes.len());
    println!("gene precision: {precision:.3}");
    println!("gene recall: {recall:.3}");

    assert!(recall >= 0.9, "recall {recall} too low");
    assert!(precision >= 0.5, "precision {precision} too low");
    println!("\nall checks passed ✓");
}
