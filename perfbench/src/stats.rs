//! Small statistics used by the runner: percentiles, quartiles as
//! Python's `statistics.quantiles(values, n=4)` gives them, the geometric
//! mean, a seeded Zipf sampler, and the hash of a generated op sequence.

use rand::Rng;

/// Sort a sample of finite measurements ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    values
}

/// Percentile `p` in `[0, 100]` of an ascending sample, with linear
/// interpolation between closest ranks (0 for an empty sample).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive") returns them,
/// so `--compare` sees the spread the driver computes. A single value is
/// its own three quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let m = data.len();
    match m {
        0 => [0.0; 3],
        1 => [data[0]; 3],
        _ => {
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4usize) {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// Geometric mean of positive values (0 for an empty sample), so that
/// every template counts equally whatever its absolute latency.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Zipf sampler over ranks `0..n` with exponent `s`: rank `r` is drawn
/// with probability proportional to `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// The rank at quantile `u` in `[0, 1)`.
    pub fn rank_at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        self.rank_at(rng.gen())
    }

    /// `n` draws in random order, one from each `1/n` stratum of the
    /// distribution, so every batch holds each rank in almost exactly its
    /// Zipf proportion whatever the seed.
    pub fn stratified(&self, n: usize, rng: &mut impl Rng) -> Vec<usize> {
        let mut draws: Vec<usize> =
            (0..n).map(|j| self.rank_at((j as f64 + rng.gen::<f64>()) / n as f64)).collect();
        for i in (1..draws.len()).rev() {
            draws.swap(i, rng.gen_range(0..=i));
        }
        draws
    }
}

/// FNV-1a, folded over the generated operations: the same seed gives the
/// same hash, which the run record carries.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Checks behind `--self-test`.
pub fn self_test() -> Result<(), String> {
    use rand::{rngs::StdRng, SeedableRng};
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_owned()) };
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;

    let s = sorted(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
    check(close(percentile(&s, 50.0), 3.0), "median of 1..5 is 3")?;
    check(close(percentile(&s, 0.0), 1.0) && close(percentile(&s, 100.0), 5.0), "p0/p100")?;
    check(close(percentile(&s, 95.0), 4.8), "p95 of 1..5 interpolates to 4.8")?;
    check(close(percentile(&[], 50.0), 0.0), "empty sample")?;

    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let q = quartiles(&(1..=10).map(f64::from).collect::<Vec<_>>());
    check(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "quartiles of 1..10")?;
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let q = quartiles(&[1.0, 2.0]);
    check(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25), "quartiles of two")?;

    check(close(geometric_mean(&[1.0, 100.0]), 10.0), "geometric mean of 1 and 100")?;
    check(close(geometric_mean(&[]), 0.0), "geometric mean of nothing")?;

    let zipf = Zipf::new(100, 1.1);
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
    };
    let (a, b) = (draw(7), draw(7));
    check(a == b, "Zipf sampler is deterministic per seed")?;
    check(a != draw(8), "Zipf sampler depends on the seed")?;
    check(a.iter().all(|&r| r < 100), "Zipf ranks stay in range")?;
    let top = a.iter().filter(|&&r| r == 0).count();
    let tenth = a.iter().filter(|&&r| r == 9).count();
    check(top > 4 * tenth.max(1), "Zipf rank 0 is drawn far more than rank 9")?;

    let mut rng = StdRng::seed_from_u64(3);
    let batch = zipf.stratified(64, &mut rng);
    let top = batch.iter().filter(|&&r| r == 0).count();
    check(
        batch.len() == 64 && (14..=16).contains(&top),
        "stratified draws hold rank 0 in its 23% share",
    )?;

    check(fnv1a(FNV_OFFSET, b"a") == 0xaf63_dc4c_8601_ec8c, "FNV-1a test vector")?;
    Ok(())
}
