//! ENCODE-shaped synthetic ChIP-seq datasets.
//!
//! The paper's §2 experiment maps **2,423 ENCODE ChIP-seq samples holding
//! 83,899,526 peaks** onto 131,780 promoters. Real ENCODE data cannot be
//! shipped here, so this generator produces datasets with the same
//! *statistical shape* (DESIGN.md substitution table):
//!
//! * per-sample peak counts are log-normal around the ENCODE mean of
//!   ~34.6 k peaks/sample (83.9 M / 2423);
//! * peak widths are log-normal with median ≈ 300 bp (narrow marks);
//! * positions are genome-proportional with hotspot clustering;
//! * metadata mimic ENCODE conventions (`dataType`, `cell`, `antibody`,
//!   `treatment`), drawn from realistic vocabularies.

use crate::genome::Genome;
use nggc_gdm::{Attribute, Dataset, GRegion, Metadata, Sample, Schema, Strand, Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

/// Cell lines observed across ENCODE (abridged vocabulary).
pub const CELLS: [&str; 8] =
    ["HeLa-S3", "K562", "GM12878", "HepG2", "A549", "MCF-7", "H1-hESC", "IMR90"];
/// ChIP antibodies / targets (abridged vocabulary).
pub const ANTIBODIES: [&str; 10] = [
    "CTCF", "POLR2A", "H3K27ac", "H3K4me1", "H3K4me3", "H3K36me3", "H3K9me3", "H3K27me3", "EZH2",
    "MYC",
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct EncodeConfig {
    /// Number of samples to generate.
    pub samples: usize,
    /// Mean peaks per sample (ENCODE §2 experiment: ~34,627).
    pub mean_peaks_per_sample: f64,
    /// Median peak width in bp.
    pub median_peak_width: f64,
    /// Fraction of `dataType == ChipSeq` samples (the §2 SELECT keeps
    /// these); the rest are `DnaseSeq`.
    pub chipseq_fraction: f64,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        EncodeConfig {
            samples: 24,
            mean_peaks_per_sample: 34_627.0,
            median_peak_width: 300.0,
            chipseq_fraction: 0.85,
            seed: 42,
        }
    }
}

/// The narrow-peak-like schema of generated samples.
pub fn encode_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("signal_value", ValueType::Float),
        Attribute::new("p_value", ValueType::Float),
    ])
    .expect("encode schema attributes are valid")
}

/// Generate an ENCODE-shaped dataset over `genome`.
pub fn generate_encode(genome: &Genome, config: &EncodeConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Log-normal peak counts: sigma 0.8 gives the heavy right tail ENCODE
    // shows (a few samples with hundreds of thousands of peaks).
    let count_sigma: f64 = 0.8;
    let count_mu = config.mean_peaks_per_sample.ln() - count_sigma * count_sigma / 2.0;
    let count_dist = LogNormal::new(count_mu, count_sigma).expect("valid lognormal");
    let width_sigma: f64 = 0.6;
    let width_dist =
        LogNormal::new(config.median_peak_width.ln(), width_sigma).expect("valid lognormal");

    // Shared hotspots: 1% of the genome attracts 30% of peaks (regulatory
    // regions recur across experiments, which is what makes MAP outputs
    // non-trivial).
    let n_hotspots = ((genome.total_len() / 1_000_000).max(10)) as usize;
    let hotspots: Vec<u64> =
        (0..n_hotspots).map(|_| rng.gen_range(0..genome.total_len())).collect();

    let mut ds = Dataset::new("ENCODE", encode_schema());
    for i in 0..config.samples {
        let n_peaks = count_dist.sample(&mut rng).round().max(1.0) as usize;
        let mut regions = Vec::with_capacity(n_peaks);
        for _ in 0..n_peaks {
            let width = width_dist.sample(&mut rng).round().max(20.0) as u64;
            let center = if rng.gen_bool(0.3) {
                let h = hotspots[rng.gen_range(0..hotspots.len())];
                let jitter = rng.gen_range(0..20_000u64);
                (h + jitter).min(genome.total_len() - 1)
            } else {
                rng.gen_range(0..genome.total_len())
            };
            let (chrom, offset) = genome.locate(center);
            let chrom_len = genome.len_of(&chrom).expect("located chromosome exists");
            let left = offset.saturating_sub(width / 2).min(chrom_len.saturating_sub(1));
            let right = (left + width).min(chrom_len);
            let signal = rng.gen_range(1.0..50.0f64);
            let p_value = 10f64.powf(-rng.gen_range(2.0..12.0f64));
            regions.push(
                GRegion::new(chrom.as_str(), left, right, Strand::Unstranded)
                    .with_values(vec![Value::Float(signal), Value::Float(p_value)]),
            );
        }
        let chipseq = i < (config.samples as f64 * config.chipseq_fraction) as usize;
        let metadata = Metadata::from_pairs([
            ("dataType", if chipseq { "ChipSeq" } else { "DnaseSeq" }),
            ("cell", CELLS[rng.gen_range(0..CELLS.len())]),
            ("antibody", ANTIBODIES[rng.gen_range(0..ANTIBODIES.len())]),
            ("treatment", if rng.gen_bool(0.2) { "IFNg" } else { "None" }),
            ("organism", "Homo sapiens"),
        ]);
        let sample = Sample::new(format!("enc_{i:05}"), "ENCODE")
            .with_regions(regions)
            .with_metadata(metadata);
        ds.add_sample_unchecked(sample);
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Genome, Dataset) {
        let genome = Genome::human(0.001);
        let config =
            EncodeConfig { samples: 10, mean_peaks_per_sample: 200.0, ..Default::default() };
        let ds = generate_encode(&genome, &config);
        (genome, ds)
    }

    #[test]
    fn shape_and_validity() {
        let (_, ds) = small();
        assert_eq!(ds.sample_count(), 10);
        assert!(ds.region_count() > 500, "roughly 10×200 peaks");
        ds.validate().unwrap();
    }

    #[test]
    fn deterministic_by_seed() {
        let g = Genome::toy(2, 1_000_000);
        let c = EncodeConfig { samples: 3, mean_peaks_per_sample: 50.0, ..Default::default() };
        let a = generate_encode(&g, &c);
        let b = generate_encode(&g, &c);
        assert_eq!(a.region_count(), b.region_count());
        assert_eq!(a.samples[0].regions, b.samples[0].regions);
        let c2 = EncodeConfig { seed: 7, ..c };
        let d = generate_encode(&g, &c2);
        assert_ne!(a.samples[0].regions, d.samples[0].regions);
    }

    #[test]
    fn chipseq_fraction_respected() {
        let (_, ds) = small();
        let chip = ds.samples.iter().filter(|s| s.metadata.has("dataType", "ChipSeq")).count();
        assert_eq!(chip, 8, "85% of 10 rounds to 8 (deterministic split)");
    }

    #[test]
    fn regions_within_chromosomes() {
        let (g, ds) = small();
        for s in &ds.samples {
            for r in s.regions.iter() {
                let len = g.len_of(&r.chrom).unwrap();
                assert!(r.right <= len, "{} exceeds {}", r, len);
                assert!(r.left < r.right);
            }
        }
    }
}
