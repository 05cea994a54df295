//! Seeded input generation. The program under test only ever sees what is
//! generated here: ENCODE-shaped peak datasets plus promoter annotations
//! (the shape of `nggc_bench::map_workload`), the two §3 case-study dataset
//! families from `nggc::synth`, and narrowPeak text batches for the ingest
//! workload.
//!
//! Unlike `nggc::synth::generate_encode`, sample sizes here do not depend
//! on the seed: the per-sample peak counts follow a fixed log-normal-shaped
//! ladder, so two seeds give datasets of identical cardinality (different
//! coordinates and values) and the benchmark's numbers are comparable
//! across seeds.

use nggc::gdm::{Dataset, GRegion, Metadata, Sample, Strand, Value};
pub use nggc::synth::encode::{ANTIBODIES, CELLS};
use nggc::synth::{
    encode_schema, generate_annotations, generate_ctcf_study, generate_replication_study,
    AnnotationConfig, CtcfStudyConfig, Genome, ReplicationStudyConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input sizes. `FULL` is what every claim is measured at; `QUICK` exists
/// for `--quick` smoke runs and is not for claims.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct Scale {
    /// `Genome::human` scale factor.
    pub genome: f64,
    /// ENCODE for `scan_cold` / `serve_mixed`: samples and mean peaks each.
    pub encode_samples: usize,
    pub encode_peaks: usize,
    /// The smaller ENCODE of the operator suite.
    pub encode_s_samples: usize,
    pub encode_s_peaks: usize,
    /// Genes (= promoters) in ANNOTATIONS.
    pub genes: usize,
    /// Regions per narrowPeak batch of `ingest_churn`.
    pub churn_regions: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        genome: 0.004,
        encode_samples: 16,
        encode_peaks: 9_000,
        encode_s_samples: 8,
        encode_s_peaks: 8_000,
        genes: 600,
        churn_regions: 6_000,
    };
    pub const QUICK: Scale = Scale {
        genome: 0.002,
        encode_samples: 8,
        encode_peaks: 1_500,
        encode_s_samples: 4,
        encode_s_peaks: 600,
        genes: 200,
        churn_regions: 1_000,
    };
}

/// Hotspots over the whole genome.
const HOTSPOTS: usize = 96;

/// Per-sample peak counts: a fixed ladder with the heavy right tail of
/// ENCODE's log-normal (sigma 0.8), summing to exactly `samples * mean`.
fn peak_ladder(samples: usize, mean: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..samples)
        .map(|i| {
            let z = if samples > 1 { -1.5 + 3.0 * i as f64 / (samples - 1) as f64 } else { 0.0 };
            (0.8 * z).exp()
        })
        .collect();
    let total_w: f64 = weights.iter().sum();
    let total = samples * mean;
    let mut counts: Vec<usize> =
        weights.iter().map(|w| ((w / total_w) * total as f64).floor().max(1.0) as usize).collect();
    let assigned: usize = counts.iter().sum();
    // Rounding remainder goes to the largest sample.
    if let Some(last) = counts.last_mut() {
        *last += total.saturating_sub(assigned);
    }
    counts
}

/// ENCODE-shaped dataset named `ENCODE`: narrow log-normal peak widths,
/// 30% of peaks clustered on hotspots shared by all samples, ENCODE-style
/// metadata.
pub fn encode_dataset(genome: &Genome, samples: usize, mean_peaks: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Shared hotspots attract 30% of all peaks, as in `generate_encode`, but
    // every chromosome gets a number of them in proportion to its length,
    // so a chromosome holds about the same share of the peaks on every seed.
    let mut offset = 0;
    let mut hotspots: Vec<u64> = Vec::new();
    for (_, len) in genome.chromosomes() {
        let share = *len as f64 / genome.total_len() as f64;
        for _ in 0..((share * HOTSPOTS as f64).round() as usize).max(1) {
            hotspots.push(offset + rng.gen_range(0..len.saturating_sub(20_000).max(1)));
        }
        offset += len;
    }
    let mut ds = Dataset::new("ENCODE", encode_schema());
    for (i, n_peaks) in peak_ladder(samples, mean_peaks).into_iter().enumerate() {
        let mut regions = Vec::with_capacity(n_peaks);
        for _ in 0..n_peaks {
            // Log-normal width, median 300 bp, via Box–Muller.
            let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen());
            let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let width = (300.0 * (0.6 * normal).exp()).round().max(20.0) as u64;
            let center = if rng.gen_bool(0.3) {
                let h = hotspots[rng.gen_range(0..hotspots.len())];
                (h + rng.gen_range(0..20_000u64)).min(genome.total_len() - 1)
            } else {
                rng.gen_range(0..genome.total_len())
            };
            let (chrom, offset) = genome.locate(center);
            let chrom_len = genome.len_of(&chrom).expect("located chromosome exists");
            let left = offset.saturating_sub(width / 2).min(chrom_len.saturating_sub(1));
            let right = (left + width).min(chrom_len).max(left + 1);
            let signal = rng.gen_range(1.0..50.0f64);
            let p_value = 10f64.powf(-rng.gen_range(2.0..12.0f64));
            regions.push(
                GRegion::new(chrom.as_str(), left, right, Strand::Unstranded)
                    .with_values(vec![Value::Float(signal), Value::Float(p_value)]),
            );
        }
        // Vocabulary positions cycle with the sample index, so every seed
        // has the same number of samples per cell line and antibody and a
        // metadata SELECT keeps the same share of the data.
        let metadata = Metadata::from_pairs([
            ("dataType", if i % 8 == 7 { "DnaseSeq" } else { "ChipSeq" }),
            ("cell", CELLS[i % CELLS.len()]),
            ("antibody", ANTIBODIES[i % ANTIBODIES.len()]),
            ("treatment", if i % 5 == 0 { "IFNg" } else { "None" }),
            ("organism", "Homo sapiens"),
        ]);
        ds.add_sample_unchecked(
            Sample::new(format!("enc_{i:05}"), "ENCODE")
                .with_regions(regions)
                .with_metadata(metadata),
        );
    }
    ds
}

/// Promoter/gene annotations named `ANNOTATIONS`.
pub fn annotations(genome: &Genome, genes: usize, seed: u64) -> Dataset {
    generate_annotations(genome, &AnnotationConfig { genes, seed, ..Default::default() }).0
}

fn renamed(mut ds: Dataset, name: &str) -> Dataset {
    ds.name = name.to_owned();
    ds
}

/// `Genome::human` scale of the E5 study (as `exp_case_studies` runs it).
pub const CASE_STUDY_GENOME: f64 = 0.02;

/// The E4 (replication / mutation) and E5 (CTCF loop) case-study datasets
/// at `nggc::synth`'s default sizes, renamed `E4_*` / `E5_*` so both
/// families fit in one repository. The E5 study's annotations keep the name
/// `ANNOTATIONS`: the MAP and JOIN templates use them as their reference.
pub fn case_studies(seed: u64) -> Vec<Dataset> {
    let e4 = generate_replication_study(
        &Genome::human(0.01),
        &ReplicationStudyConfig { seed, ..Default::default() },
    );
    let e5 = generate_ctcf_study(
        &Genome::human(CASE_STUDY_GENOME),
        &CtcfStudyConfig { seed: seed ^ 0x5e5e, ..Default::default() },
    );
    vec![
        renamed(e4.expression, "E4_EXPRESSION"),
        renamed(e4.breaks, "E4_BREAKS"),
        renamed(e4.mutations, "E4_MUTATIONS"),
        renamed(e5.loops, "E5_CTCF_LOOPS"),
        renamed(e5.marks, "E5_MARKS"),
        renamed(e5.annotations, "ANNOTATIONS"),
        renamed(e5.expression, "E5_EXPRESSION"),
    ]
}

/// One narrowPeak batch (10 tab-separated columns) of exactly `regions`
/// lines, as `nggc import` reads it.
pub fn narrowpeak_batch(genome: &Genome, regions: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(regions * 64);
    for i in 0..regions {
        let (chrom, offset) = genome.locate(rng.gen_range(0..genome.total_len()));
        let chrom_len = genome.len_of(&chrom).expect("located chromosome exists");
        let width = rng.gen_range(100..600u64);
        let left = offset.min(chrom_len.saturating_sub(2));
        let right = (left + width).min(chrom_len).max(left + 1);
        let signal = rng.gen_range(1.0..50.0f64);
        out.push_str(&format!(
            "{chrom}\t{left}\t{right}\tpeak_{i}\t{}\t.\t{signal:.3}\t{:.3}\t{:.3}\t{}\n",
            rng.gen_range(0..1000u32),
            rng.gen_range(2.0..12.0f64),
            rng.gen_range(1.0..10.0f64),
            rng.gen_range(0..width),
        ));
    }
    out
}
