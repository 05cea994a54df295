//! Generators for the paper's §3 case studies.
//!
//! Both open problems of §3 require data we cannot ship (IEO/IIT
//! experimental datasets), so we generate synthetic equivalents with
//! **planted ground truth**, which the example pipelines then recover —
//! demonstrating that the GMQL formulations of the two studies extract
//! the intended signal (DESIGN.md experiments E4 and E5).

use crate::annotations::{generate_genes, AnnotationConfig, Gene};
use crate::genome::Genome;
use nggc_gdm::{
    Attribute, Chrom, Dataset, GRegion, Metadata, Sample, Schema, Strand, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// §3 problem 1: mutations / DNA breaks / replication / gene dis-regulation
// ---------------------------------------------------------------------------

/// Configuration of the replication–mutation study generator.
#[derive(Debug, Clone)]
pub struct ReplicationStudyConfig {
    /// Number of genes.
    pub genes: usize,
    /// Fraction of genes dis-regulated by oncogene induction.
    pub disregulated_fraction: f64,
    /// Fragile sites per dis-regulated gene (planted near them).
    pub fragile_sites_per_gene: f64,
    /// Background breakpoints (not at fragile sites).
    pub background_breaks: usize,
    /// Breakpoints per fragile site.
    pub breaks_per_site: usize,
    /// Mutations per fragile site (the planted correlation).
    pub mutations_per_site: usize,
    /// Background mutations.
    pub background_mutations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReplicationStudyConfig {
    fn default() -> Self {
        ReplicationStudyConfig {
            genes: 400,
            disregulated_fraction: 0.1,
            fragile_sites_per_gene: 1.0,
            background_breaks: 200,
            breaks_per_site: 12,
            mutations_per_site: 8,
            background_mutations: 300,
            seed: 1234,
        }
    }
}

/// The generated study: four datasets + ground truth.
#[derive(Debug)]
pub struct ReplicationStudy {
    /// Gene expression under two conditions (2 samples: `condition` =
    /// `control` / `induced`; regions are gene bodies with `expression`).
    pub expression: Dataset,
    /// DNA double-strand break points (1 bp regions).
    pub breaks: Dataset,
    /// Somatic mutations (1 bp regions, `vaf` attribute).
    pub mutations: Dataset,
    /// Replication-timing domains (`timing` in [0,1], late = high).
    pub replication: Dataset,
    /// The genes, for reference.
    pub genes: Vec<Gene>,
    /// Names of the planted dis-regulated genes.
    pub disregulated: Vec<String>,
    /// Planted fragile sites `(chrom, left, right)`.
    pub fragile_sites: Vec<(Chrom, u64, u64)>,
}

/// Generate the §3-problem-1 study.
pub fn generate_replication_study(
    genome: &Genome,
    config: &ReplicationStudyConfig,
) -> ReplicationStudy {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let genes = generate_genes(
        genome,
        &AnnotationConfig { genes: config.genes, seed: config.seed ^ 0x5eed, ..Default::default() },
    );
    let n_dis = ((config.genes as f64) * config.disregulated_fraction).round() as usize;
    let disregulated: Vec<usize> = {
        // Deterministic sample of gene indices.
        let mut idx: Vec<usize> = (0..genes.len()).collect();
        for i in (1..idx.len()).rev() {
            idx.swap(i, rng.gen_range(0..=i));
        }
        idx.truncate(n_dis);
        idx.sort_unstable();
        idx
    };

    // --- expression -------------------------------------------------------
    let expr_schema = Schema::new(vec![
        Attribute::new("gene", ValueType::Str),
        Attribute::new("expression", ValueType::Float),
    ])
    .expect("valid schema");
    let mut expression = Dataset::new("EXPRESSION", expr_schema);
    // Per-gene baseline expression shared by both conditions, so that
    // non-dis-regulated genes stay stable across them.
    let baselines: Vec<f64> = (0..genes.len()).map(|_| rng.gen_range(2.0..10.0f64)).collect();
    for condition in ["control", "induced"] {
        let mut regions = Vec::with_capacity(genes.len());
        for (i, g) in genes.iter().enumerate() {
            let base = baselines[i];
            let value = if condition == "induced" && disregulated.contains(&i) {
                // Strong dis-regulation: 4–8× down.
                base / rng.gen_range(4.0..8.0)
            } else {
                base * rng.gen_range(0.9..1.1)
            };
            regions.push(
                GRegion::new(g.chrom.as_str(), g.body.0, g.body.1, g.strand)
                    .with_values(vec![Value::Str(g.name.clone()), Value::Float(value)]),
            );
        }
        expression.add_sample_unchecked(
            Sample::new(format!("expr_{condition}"), "EXPRESSION")
                .with_regions(regions)
                .with_metadata(Metadata::from_pairs([
                    ("condition", condition),
                    ("assay", "RNA-seq"),
                ])),
        );
    }

    // --- fragile sites near dis-regulated genes ----------------------------
    let mut fragile_sites: Vec<(Chrom, u64, u64)> = Vec::new();
    for &gi in &disregulated {
        let g = &genes[gi];
        let n = config.fragile_sites_per_gene.round().max(1.0) as usize;
        for _ in 0..n {
            let chrom_len = genome.len_of(&g.chrom).expect("chrom exists");
            let center = (g.body.0 + rng.gen_range(0..(g.body.1 - g.body.0).max(1)))
                .min(chrom_len.saturating_sub(1));
            let half = rng.gen_range(2_000..10_000u64);
            fragile_sites.push((
                g.chrom.clone(),
                center.saturating_sub(half),
                (center + half).min(chrom_len),
            ));
        }
    }

    // --- breaks -------------------------------------------------------------
    let breaks_schema =
        Schema::new(vec![Attribute::new("intensity", ValueType::Float)]).expect("valid schema");
    let mut break_regions = Vec::new();
    for (chrom, l, r) in &fragile_sites {
        for _ in 0..config.breaks_per_site {
            let pos = rng.gen_range(*l..(*r).max(l + 1));
            break_regions.push(
                GRegion::new(chrom.as_str(), pos, pos + 1, Strand::Unstranded)
                    .with_values(vec![Value::Float(rng.gen_range(1.0..10.0))]),
            );
        }
    }
    for _ in 0..config.background_breaks {
        let (chrom, offset) = genome.locate(rng.gen_range(0..genome.total_len()));
        break_regions.push(
            GRegion::new(chrom.as_str(), offset, offset + 1, Strand::Unstranded)
                .with_values(vec![Value::Float(rng.gen_range(0.5..3.0))]),
        );
    }
    let mut breaks = Dataset::new("BREAKS", breaks_schema);
    breaks.add_sample_unchecked(
        Sample::new("breaks_induced", "BREAKS")
            .with_regions(break_regions)
            .with_metadata(Metadata::from_pairs([("assay", "BLESS"), ("condition", "induced")])),
    );

    // --- mutations -----------------------------------------------------------
    let mut_schema =
        Schema::new(vec![Attribute::new("vaf", ValueType::Float)]).expect("valid schema");
    let mut mut_regions = Vec::new();
    for (chrom, l, r) in &fragile_sites {
        for _ in 0..config.mutations_per_site {
            let pos = rng.gen_range(*l..(*r).max(l + 1));
            mut_regions.push(
                GRegion::new(chrom.as_str(), pos, pos + 1, Strand::Unstranded)
                    .with_values(vec![Value::Float(rng.gen_range(0.05..0.6))]),
            );
        }
    }
    for _ in 0..config.background_mutations {
        let (chrom, offset) = genome.locate(rng.gen_range(0..genome.total_len()));
        mut_regions.push(
            GRegion::new(chrom.as_str(), offset, offset + 1, Strand::Unstranded)
                .with_values(vec![Value::Float(rng.gen_range(0.05..0.6))]),
        );
    }
    let mut mutations = Dataset::new("MUTATIONS", mut_schema);
    mutations.add_sample_unchecked(
        Sample::new("tumor_panel", "MUTATIONS")
            .with_regions(mut_regions)
            .with_metadata(Metadata::from_pairs([("source", "synthetic-tcga")])),
    );

    // --- replication timing ---------------------------------------------------
    let rep_schema =
        Schema::new(vec![Attribute::new("timing", ValueType::Float)]).expect("valid schema");
    let mut rep_regions = Vec::new();
    for (chrom, chrom_len) in genome.chromosomes() {
        let domain = 500_000u64.min((chrom_len / 4).max(1));
        let mut pos = 0;
        while pos < *chrom_len {
            let end = (pos + domain).min(*chrom_len);
            // Late timing where a fragile site falls in the domain.
            let fragile_here =
                fragile_sites.iter().any(|(c, l, _)| c == chrom && *l >= pos && *l < end);
            let timing =
                if fragile_here { rng.gen_range(0.75..1.0f64) } else { rng.gen_range(0.0..0.6f64) };
            rep_regions.push(
                GRegion::new(chrom.as_str(), pos, end, Strand::Unstranded)
                    .with_values(vec![Value::Float(timing)]),
            );
            pos = end;
        }
    }
    let mut replication = Dataset::new("REPLICATION", rep_schema);
    replication.add_sample_unchecked(
        Sample::new("repliseq_induced", "REPLICATION")
            .with_regions(rep_regions)
            .with_metadata(Metadata::from_pairs([("assay", "Repli-seq")])),
    );

    let disregulated_names = disregulated.iter().map(|&i| genes[i].name.clone()).collect();
    ReplicationStudy {
        expression,
        breaks,
        mutations,
        replication,
        genes,
        disregulated: disregulated_names,
        fragile_sites,
    }
}

// ---------------------------------------------------------------------------
// §3 problem 2: CTCF loops, enhancers and gene regulation (Figure 3)
// ---------------------------------------------------------------------------

/// Configuration of the CTCF-loop study generator.
#[derive(Debug, Clone)]
pub struct CtcfStudyConfig {
    /// Number of CTCF loops.
    pub loops: usize,
    /// Number of genes.
    pub genes: usize,
    /// Fraction of loops enclosing a planted enhancer–gene pair.
    pub active_pair_fraction: f64,
    /// Decoy enhancers outside loops.
    pub decoy_enhancers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CtcfStudyConfig {
    fn default() -> Self {
        CtcfStudyConfig {
            loops: 120,
            genes: 400,
            active_pair_fraction: 0.4,
            decoy_enhancers: 80,
            seed: 99,
        }
    }
}

/// The generated CTCF study: datasets + planted truth.
#[derive(Debug)]
pub struct CtcfStudy {
    /// CTCF loop spans (`loop_id` attribute).
    pub loops: Dataset,
    /// Histone-mark peaks: three samples with `antibody` metadata
    /// (H3K27ac, H3K4me1 on enhancers; H3K4me3 on promoters), Figure 3's
    /// yellow/black rectangles.
    pub marks: Dataset,
    /// Gene + promoter annotations.
    pub annotations: Dataset,
    /// Gene expression (one sample; active genes high).
    pub expression: Dataset,
    /// Planted truth: (enhancer span, gene name) pairs inside loops.
    pub true_pairs: Vec<((Chrom, u64, u64), String)>,
}

/// Generate the §3-problem-2 study.
pub fn generate_ctcf_study(genome: &Genome, config: &CtcfStudyConfig) -> CtcfStudy {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let genes = generate_genes(
        genome,
        &AnnotationConfig { genes: config.genes, seed: config.seed ^ 0xc7cf, ..Default::default() },
    );

    let loop_schema =
        Schema::new(vec![Attribute::new("loop_id", ValueType::Str)]).expect("valid schema");
    let mark_schema =
        Schema::new(vec![Attribute::new("signal", ValueType::Float)]).expect("valid schema");

    let mut loop_regions = Vec::new();
    let mut enh_k27 = Vec::new();
    let mut enh_k4me1 = Vec::new();
    let mut prom_k4me3 = Vec::new();
    let mut true_pairs = Vec::new();
    let mut active_genes: Vec<String> = Vec::new();

    for li in 0..config.loops {
        // Anchor each loop on a random gene so the pair can be enclosed.
        let g = &genes[rng.gen_range(0..genes.len())];
        let chrom_len = genome.len_of(&g.chrom).expect("chrom exists");
        let span = rng.gen_range(100_000..400_000u64).min(chrom_len / 2);
        let left = g.promoter.0.saturating_sub(span / 2);
        let right = (left + span).min(chrom_len);
        loop_regions.push(
            GRegion::new(g.chrom.as_str(), left, right, Strand::Unstranded)
                .with_values(vec![Value::Str(format!("loop{li:04}"))]),
        );
        let active = rng.gen_bool(config.active_pair_fraction);
        if active && g.promoter.0 >= left && g.promoter.1 <= right {
            // Planted enhancer strictly inside the loop, away from the
            // promoter.
            let e_len = rng.gen_range(500..2000u64);
            let lo = left + span / 10;
            let hi = right.saturating_sub(span / 10 + e_len).max(lo + 1);
            let e_left = rng.gen_range(lo..hi);
            let e = (g.chrom.clone(), e_left, e_left + e_len);
            enh_k27.push(e.clone());
            enh_k4me1.push(e.clone());
            prom_k4me3.push((g.chrom.clone(), g.promoter.0, g.promoter.1));
            true_pairs.push((e, g.name.clone()));
            active_genes.push(g.name.clone());
        }
    }
    // Decoy enhancers: marked but outside loops (uniform positions).
    for _ in 0..config.decoy_enhancers {
        let (chrom, offset) = genome.locate(rng.gen_range(0..genome.total_len()));
        let chrom_len = genome.len_of(&chrom).expect("chrom exists");
        let left = offset.min(chrom_len.saturating_sub(1500));
        enh_k27.push((chrom.clone(), left, left + 1000));
        if rng.gen_bool(0.7) {
            enh_k4me1.push((chrom, left, left + 1000));
        }
    }

    let mk_regions = |spans: &[(Chrom, u64, u64)], rng: &mut StdRng| -> Vec<GRegion> {
        spans
            .iter()
            .map(|(c, l, r)| {
                GRegion::new(c.as_str(), *l, *r, Strand::Unstranded)
                    .with_values(vec![Value::Float(rng.gen_range(5.0..40.0))])
            })
            .collect()
    };

    let mut loops = Dataset::new("CTCF_LOOPS", loop_schema);
    loops.add_sample_unchecked(
        Sample::new("ctcf_loops", "CTCF_LOOPS")
            .with_regions(loop_regions)
            .with_metadata(Metadata::from_pairs([("antibody", "CTCF"), ("assay", "ChIA-PET")])),
    );

    let mut marks = Dataset::new("MARKS", mark_schema);
    for (name, antibody, spans) in [
        ("h3k27ac", "H3K27ac", &enh_k27),
        ("h3k4me1", "H3K4me1", &enh_k4me1),
        ("h3k4me3", "H3K4me3", &prom_k4me3),
    ] {
        let regions = mk_regions(spans, &mut rng);
        marks.add_sample_unchecked(
            Sample::new(name, "MARKS").with_regions(regions).with_metadata(Metadata::from_pairs([
                ("antibody", antibody),
                ("assay", "ChipSeq"),
            ])),
        );
    }

    // Annotations dataset reuses the standard builder shape.
    let annot_schema = crate::annotations::annotation_schema();
    let mut annotations = Dataset::new("ANNOTATIONS", annot_schema);
    let mut annot_regions = Vec::new();
    for g in &genes {
        annot_regions.push(
            GRegion::new(g.chrom.as_str(), g.body.0, g.body.1, g.strand)
                .with_values(vec![Value::Str("gene".into()), Value::Str(g.name.clone())]),
        );
        annot_regions.push(
            GRegion::new(g.chrom.as_str(), g.promoter.0, g.promoter.1, g.strand)
                .with_values(vec![Value::Str("promoter".into()), Value::Str(g.name.clone())]),
        );
    }
    annotations.add_sample_unchecked(
        Sample::new("refseq_synthetic", "ANNOTATIONS").with_regions(annot_regions),
    );

    let expr_schema = Schema::new(vec![
        Attribute::new("gene", ValueType::Str),
        Attribute::new("expression", ValueType::Float),
    ])
    .expect("valid schema");
    let mut expression = Dataset::new("EXPRESSION", expr_schema);
    let expr_regions = genes
        .iter()
        .map(|g| {
            let high = active_genes.contains(&g.name);
            let v = if high { rng.gen_range(20.0..80.0) } else { rng.gen_range(0.0..5.0) };
            GRegion::new(g.chrom.as_str(), g.body.0, g.body.1, g.strand)
                .with_values(vec![Value::Str(g.name.clone()), Value::Float(v)])
        })
        .collect();
    expression.add_sample_unchecked(
        Sample::new("expr", "EXPRESSION")
            .with_regions(expr_regions)
            .with_metadata(Metadata::from_pairs([("assay", "RNA-seq")])),
    );

    CtcfStudy { loops, marks, annotations, expression, true_pairs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_study_shape() {
        let genome = Genome::human(0.001);
        let study = generate_replication_study(
            &genome,
            &ReplicationStudyConfig { genes: 100, ..Default::default() },
        );
        assert_eq!(study.expression.sample_count(), 2);
        assert_eq!(study.disregulated.len(), 10);
        assert!(!study.fragile_sites.is_empty());
        study.expression.validate().unwrap();
        study.breaks.validate().unwrap();
        study.mutations.validate().unwrap();
        study.replication.validate().unwrap();
        // Mutation density is higher at fragile sites than background.
        let frag_len: u64 = study.fragile_sites.iter().map(|(_, l, r)| r - l).sum();
        let muts_at_frag = study.mutations.samples[0]
            .regions
            .iter()
            .filter(|m| {
                study
                    .fragile_sites
                    .iter()
                    .any(|(c, l, r)| *c == m.chrom && m.left >= *l && m.left < *r)
            })
            .count();
        let total = study.mutations.region_count();
        let frag_density = muts_at_frag as f64 / frag_len as f64;
        let bg_density = (total - muts_at_frag) as f64 / genome.total_len() as f64;
        assert!(
            frag_density > bg_density * 5.0,
            "planted enrichment visible: {frag_density} vs {bg_density}"
        );
    }

    #[test]
    fn disregulated_genes_change_expression() {
        let genome = Genome::human(0.001);
        let study = generate_replication_study(&genome, &Default::default());
        let control = &study.expression.samples[0];
        let induced = &study.expression.samples[1];
        for (c, i) in control.regions.iter().zip(induced.regions.iter()) {
            let name = c.values[0].as_str().unwrap();
            let fold = c.values[1].as_f64().unwrap() / i.values[1].as_f64().unwrap();
            if study.disregulated.contains(&name.to_string()) {
                assert!(fold > 2.0, "{name} should be strongly down: fold {fold}");
            } else {
                assert!(fold < 1.5, "{name} should be stable: fold {fold}");
            }
        }
    }

    #[test]
    fn ctcf_study_truth_pairs_inside_loops() {
        let genome = Genome::human(0.002);
        let study = generate_ctcf_study(&genome, &Default::default());
        assert!(!study.true_pairs.is_empty());
        let loop_sample = &study.loops.samples[0];
        for ((chrom, l, r), _gene) in &study.true_pairs {
            let enclosed = loop_sample
                .regions
                .iter()
                .any(|lp| lp.chrom == *chrom && lp.left <= *l && *r <= lp.right);
            assert!(enclosed, "planted enhancer must sit inside a loop");
        }
        study.loops.validate().unwrap();
        study.marks.validate().unwrap();
        assert_eq!(study.marks.sample_count(), 3);
    }
}
