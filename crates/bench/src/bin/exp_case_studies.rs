//! **E4 + E5** — the §3 case studies, as a reproducible report.
//!
//! Compact re-runs of `examples/cancer_replication.rs` (E4) and
//! `examples/ctcf_loops.rs` (E5), printing one summary table each: the
//! planted-signal recovery metrics that show the GMQL formulations of
//! both open problems extract the intended biology.

use nggc_analysis::region_enrichment;
use nggc_bench::Table;
use nggc_core::GmqlEngine;
use nggc_synth::{
    generate_ctcf_study, generate_replication_study, CtcfStudyConfig, Genome,
    ReplicationStudyConfig,
};
use std::collections::BTreeSet;

fn e4() {
    let genome = Genome::human(0.01);
    let study = generate_replication_study(&genome, &ReplicationStudyConfig::default());
    let mut engine = GmqlEngine::with_workers(2);
    engine.register(study.expression.clone());
    engine.register(study.breaks.clone());
    engine.register(study.mutations.clone());

    let out = engine
        .run(
            "CONTROL = SELECT(condition == 'control') EXPRESSION;
             INDUCED = SELECT(condition == 'induced') EXPRESSION;
             BOTH    = JOIN(DLE(-1); output: LEFT) CONTROL INDUCED;
             DISREG  = SELECT(region: left.expression > right.expression * 2
                              AND left.gene == right.gene) BOTH;
             BROKEN  = JOIN(DLE(0); output: LEFT) DISREG BREAKS;
             RESULT  = MAP(mutation_count AS COUNT) BROKEN MUTATIONS;
             MATERIALIZE RESULT;",
        )
        .expect("pipeline runs");
    let result = &out["RESULT"];
    let gene_pos = result.schema.position("left.left.gene").expect("gene attr");
    let count_pos = result.schema.position("mutation_count").expect("count attr");

    let mut candidates: BTreeSet<String> = BTreeSet::new();
    let mut muts = 0u64;
    let mut bp = 0u64;
    let mut seen: BTreeSet<(String, u64, u64)> = BTreeSet::new();
    for s in &result.samples {
        for r in s.regions.iter() {
            if let Some(g) = r.values[gene_pos].as_str() {
                candidates.insert(g.to_owned());
            }
            if seen.insert((r.chrom.as_str().to_owned(), r.left, r.right)) {
                muts += r.values[count_pos].as_i64().unwrap_or(0).max(0) as u64;
                bp += r.len();
            }
        }
    }
    let planted: BTreeSet<String> = study.disregulated.iter().cloned().collect();
    let tp = candidates.intersection(&planted).count();
    let enrich =
        region_enrichment(muts, study.mutations.region_count() as u64, bp, genome.total_len());

    println!("== E4: §3 problem 1 — mutations / breaks / dis-regulation ==\n");
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["planted dis-regulated genes".into(), planted.len().to_string()]);
    t.row(&["candidate genes extracted".into(), candidates.len().to_string()]);
    t.row(&["recovered (true positives)".into(), tp.to_string()]);
    t.row(&["recall".into(), format!("{:.3}", tp as f64 / planted.len() as f64)]);
    t.row(&["precision".into(), format!("{:.3}", tp as f64 / candidates.len().max(1) as f64)]);
    t.row(&["mutation fold enrichment".into(), format!("{:.1}", enrich.fold)]);
    t.row(&["binomial p-value".into(), format!("{:.2e}", enrich.p_value)]);
    println!("{}", t.render());
}

fn e5() {
    let genome = Genome::human(0.02);
    let study = generate_ctcf_study(&genome, &CtcfStudyConfig::default());
    let mut engine = GmqlEngine::with_workers(2);
    engine.register(study.loops.clone());
    engine.register(study.marks.clone());
    engine.register(study.annotations.clone());
    engine.register(study.expression.clone());

    let out = engine
        .run(
            "K27    = SELECT(antibody == 'H3K27ac') MARKS;
             K4ME1  = SELECT(antibody == 'H3K4me1') MARKS;
             K4ME3  = SELECT(antibody == 'H3K4me3') MARKS;
             ENH0   = JOIN(DLE(-1); output: INT) K27 K4ME1;
             ENH    = PROJECT(esig AS left.signal) ENH0;
             PROMS  = SELECT(region: annType == 'promoter') ANNOTATIONS;
             APROM0 = JOIN(DLE(-1); output: LEFT) PROMS K4ME3;
             APROM1 = PROJECT(gene0 AS left.name) APROM0;
             EXPR   = SELECT(region: expression > 10) EXPRESSION;
             APROM2 = JOIN(DLE(0); output: LEFT) APROM1 EXPR;
             APROM3 = SELECT(region: left.gene0 == right.gene) APROM2;
             APROM  = PROJECT(gene AS left.gene0) APROM3;
             LE0    = JOIN(DLE(-1); output: RIGHT) CTCF_LOOPS ENH;
             LE     = PROJECT(eloop AS left.loop_id) LE0;
             LP0    = JOIN(DLE(-1); output: RIGHT) CTCF_LOOPS APROM;
             LP     = PROJECT(ploop AS left.loop_id, pgene AS right.gene) LP0;
             PAIRS0 = JOIN(DLE(500000); output: CAT) LE LP;
             PAIRS  = SELECT(region: left.eloop == right.ploop) PAIRS0;
             MATERIALIZE PAIRS;",
        )
        .expect("pipeline runs");
    let pairs = &out["PAIRS"];
    let gene_pos = pairs.schema.position("right.pgene").expect("gene attr");
    let mut candidate_genes: BTreeSet<String> = BTreeSet::new();
    for s in &pairs.samples {
        for r in s.regions.iter() {
            if let Some(g) = r.values[gene_pos].as_str() {
                candidate_genes.insert(g.to_owned());
            }
        }
    }
    let planted: BTreeSet<String> = study.true_pairs.iter().map(|(_, g)| g.clone()).collect();
    let tp = candidate_genes.intersection(&planted).count();

    println!("== E5: §3 problem 2 / Figure 3 — CTCF loops & enhancers ==\n");
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["CTCF loops".into(), study.loops.region_count().to_string()]);
    t.row(&["planted enhancer→gene pairs".into(), study.true_pairs.len().to_string()]);
    t.row(&["candidate genes extracted".into(), candidate_genes.len().to_string()]);
    t.row(&["recovered (true positives)".into(), tp.to_string()]);
    t.row(&["recall".into(), format!("{:.3}", tp as f64 / planted.len().max(1) as f64)]);
    t.row(&["precision".into(), format!("{:.3}", tp as f64 / candidate_genes.len().max(1) as f64)]);
    println!("{}", t.render());
}

fn main() {
    e4();
    e5();
}
