//! §3 case study 1: mutations, DNA breaks, replication timing and gene
//! dis-regulation.
//!
//! "GMQL can extract differentially dis-regulated genes, intersect them
//! with regions where string breaks occur, and then count the mutations
//! in various conditions" (paper §3). The pipeline below does exactly
//! that over synthetic data with *planted* truth, then checks that the
//! recovered gene set matches the plant and that mutations are
//! statistically enriched at fragile, dis-regulated loci (GREAT-style
//! binomial test, §4.3).
//!
//! Run with: `cargo run --example cancer_replication`

use nggc::analysis::region_enrichment;
use nggc::gmql::GmqlEngine;
use nggc::synth::{generate_replication_study, Genome, ReplicationStudyConfig};
use std::collections::BTreeSet;

fn main() {
    // 1% of human scale: ~31 Mbp — big enough that gene bodies are a
    // minority of the genome (so enrichment has room to show) yet runs in
    // seconds.
    let genome = Genome::human(0.01);
    let config = ReplicationStudyConfig::default();
    let study = generate_replication_study(&genome, &config);
    println!("== synthetic §3-problem-1 study ==");
    println!("genes: {}", study.genes.len());
    println!("planted dis-regulated genes: {}", study.disregulated.len());
    println!("fragile sites: {}", study.fragile_sites.len());
    println!("breaks: {}", study.breaks.region_count());
    println!("mutations: {}", study.mutations.region_count());

    let mut engine = GmqlEngine::with_workers(4);
    engine.register(study.expression.clone());
    engine.register(study.breaks.clone());
    engine.register(study.mutations.clone());
    engine.register(study.replication.clone());

    // Step 1-3 in GMQL: per-condition expression, genes near breaks,
    // mutation counts over the candidate gene bodies.
    let query = "
        CONTROL  = SELECT(condition == 'control') EXPRESSION;
        INDUCED  = SELECT(condition == 'induced') EXPRESSION;
        # Join the two conditions on identical gene bodies and keep genes
        # whose expression dropped at least 2x upon oncogene induction.
        BOTH     = JOIN(DLE(-1); output: LEFT) CONTROL INDUCED;
        DISREG   = SELECT(region: left.expression > right.expression * 2
                          AND left.gene == right.gene) BOTH;
        # Intersect dis-regulated genes with DNA break points (distance <= 0).
        BROKEN   = JOIN(DLE(0); output: LEFT) DISREG BREAKS;
        # Count mutations falling on each candidate gene.
        RESULT   = MAP(mutation_count AS COUNT, mean_vaf AS AVG(vaf)) BROKEN MUTATIONS;
        MATERIALIZE RESULT;
    ";
    println!("\n== GMQL pipeline ==\n{query}");
    let out = engine.run(query).unwrap();
    let result = &out["RESULT"];

    // Candidate genes = distinct left.gene values with >= 1 break overlap.
    let gene_pos = result
        .schema
        .position("left.left.gene")
        .or(result.schema.position("left.gene"))
        .expect("gene attribute present");
    let mut candidates: BTreeSet<String> = BTreeSet::new();
    let mut mutations_on_candidates = 0u64;
    let mut candidate_bp = 0u64;
    let count_pos = result.schema.position("mutation_count").unwrap();
    for s in &result.samples {
        let mut seen_coords: BTreeSet<(String, u64, u64)> = BTreeSet::new();
        for r in s.regions.iter() {
            if let Some(g) = r.values[gene_pos].as_str() {
                candidates.insert(g.to_owned());
            }
            // Each gene body may appear once per overlapping break; count
            // its mutations and length once.
            let key = (r.chrom.as_str().to_owned(), r.left, r.right);
            if seen_coords.insert(key) {
                mutations_on_candidates += r.values[count_pos].as_i64().unwrap_or(0).max(0) as u64;
                candidate_bp += r.len();
            }
        }
    }

    let planted: BTreeSet<String> = study.disregulated.iter().cloned().collect();
    let recovered: BTreeSet<_> = candidates.intersection(&planted).collect();
    println!("== recovery of the planted signal ==");
    println!("candidate genes (dis-regulated ∩ broken): {}", candidates.len());
    println!("planted dis-regulated recovered: {}/{}", recovered.len(), planted.len());
    let false_hits = candidates.len() - recovered.len();
    println!("false candidates: {false_hits}");

    // Enrichment: are mutations concentrated on candidate genes?
    let total_mutations = study.mutations.region_count() as u64;
    let enrich = region_enrichment(
        mutations_on_candidates,
        total_mutations,
        candidate_bp,
        genome.total_len(),
    );
    println!("\n== GREAT-style mutation enrichment at candidate loci ==");
    println!(
        "mutations on candidates: {} of {} (expected {:.2})",
        enrich.hits, enrich.study_size, enrich.expected
    );
    println!("fold enrichment: {:.1}", enrich.fold);
    println!("binomial p-value: {:.3e}", enrich.p_value);

    assert!(
        recovered.len() * 10 >= planted.len() * 9,
        "pipeline should recover >=90% of planted genes"
    );
    assert!(enrich.fold > 5.0, "mutations must be enriched at candidate loci");
    assert!(enrich.p_value < 1e-6);
    println!("\nall checks passed ✓");
}
