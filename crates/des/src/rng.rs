//! Deterministic random-number streams and the samplers the I/O model uses.
//!
//! Every stochastic element of the simulator (OST service overheads,
//! per-call slow-path multipliers, node service disciplines) draws from a
//! `SimRng`. Streams are derived from a master seed plus a stream id via a
//! SplitMix64 mix, so adding a consumer never perturbs the draws seen by
//! existing consumers — a requirement for controlled ablations.
//!
//! The samplers (normal, log-normal, exponential, Pareto) are implemented
//! directly on top of `rand`'s uniform source because `rand_distr` is not
//! part of the vetted dependency set; all are standard textbook transforms.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mix function from SplitMix64; used to derive independent stream seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A reproducible random stream.
pub struct SimRng {
    rng: StdRng,
    /// Cached second normal variate from the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// A stream seeded directly from `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng {
            rng: StdRng::seed_from_u64(splitmix64(seed)),
            spare_normal: None,
        }
    }

    /// An independent stream derived from `(master, stream_id)`.
    pub fn stream(master: u64, stream_id: u64) -> Self {
        SimRng::new(splitmix64(master ^ splitmix64(stream_id)))
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// Uniform in `[0, 1)` excluding exact zero (safe for `ln`).
    fn f64_nonzero(&mut self) -> f64 {
        loop {
            let v = self.f64();
            if v > 0.0 {
                return v;
            }
        }
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over an empty range");
        self.rng.random_range(0..n)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (polar-free, caches the spare).
    pub fn std_normal(&mut self) -> f64 {
        if let Some(v) = self.spare_normal.take() {
            return v;
        }
        let u1 = self.f64_nonzero();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.std_normal()
    }

    /// Log-normal parameterized by its *median* and the σ of the underlying
    /// normal. `median > 0`. Mean is `median · exp(σ²/2)`.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        median * (sigma * self.std_normal()).exp()
    }

    /// Exponential with the given mean (inverse-CDF transform).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.f64_nonzero().ln()
    }

    /// Pareto with scale `xm > 0` and shape `alpha > 0`; support `[xm, ∞)`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        xm / self.f64_nonzero().powf(1.0 / alpha)
    }

    /// Index drawn with probability proportional to `weights[i]`.
    ///
    /// All-zero (or empty) weights are a caller bug; panics.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_choice with no mass");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.random_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = SimRng::stream(42, 0);
        let mut b = SimRng::stream(42, 1);
        let same = (0..32).filter(|_| a.f64() == b.f64()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = SimRng::new(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_median_is_parameter() {
        let mut r = SimRng::new(11);
        let mut samples: Vec<f64> = (0..20_001).map(|_| r.lognormal(5.0, 0.8)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((median - 5.0).abs() / 5.0 < 0.05, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(13);
        let n = 50_000;
        let mean = (0..n).map(|_| r.exponential(0.25)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn pareto_respects_scale_and_is_heavy_tailed() {
        let mut r = SimRng::new(17);
        let samples: Vec<f64> = (0..20_000).map(|_| r.pareto(1.0, 1.5)).collect();
        assert!(samples.iter().all(|&x| x >= 1.0));
        let over10 = samples.iter().filter(|&&x| x > 10.0).count() as f64 / 20_000.0;
        // P(X > 10) = 10^-1.5 ≈ 0.0316.
        assert!((over10 - 0.0316).abs() < 0.01, "tail {over10}");
    }

    #[test]
    fn weighted_choice_tracks_weights() {
        let mut r = SimRng::new(19);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_choice(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle was identity");
    }

    #[test]
    #[should_panic]
    fn weighted_choice_rejects_zero_mass() {
        SimRng::new(1).weighted_choice(&[0.0, 0.0]);
    }
}
