//! Law-of-Large-Numbers analysis — the paper's Figure 2.
//!
//! Splitting one transfer into `k` sub-transfers makes a task's total time
//! `t_k = Σᵢ Tᵢ` the sum of `k` draws; its distribution is the k-fold
//! convolution of the per-call distribution, with mean `k·µ` and relative
//! spread shrinking as `1/√k`. Because a barriered phase ends at the
//! slowest task (the order statistic of `t_k` over N tasks), the
//! narrowing pulls the phase time in even though the total work is
//! unchanged — "the more opportunities a task has to sample, the more
//! likely it is to have average performance".

use crate::empirical::EmpiricalDist;
use crate::order_stats::expected_max_of_steps;

/// A density on a uniform grid: `t0 + i·dt ↦ pdf[i]`.
///
/// ```
/// use pio_core::empirical::EmpiricalDist;
/// use pio_core::lln::GridPdf;
/// let d = EmpiricalDist::new(&[1.0, 2.0, 3.0, 4.0, 5.0]);
/// let g = GridPdf::from_empirical(&d, 64);
/// let sum8 = g.convolve_k(8); // density of the sum of 8 iid draws
/// assert!((sum8.mean() - 8.0 * g.mean()).abs() < 0.5);
/// assert!(sum8.cv() < g.cv()); // the Law of Large Numbers
/// ```
#[derive(Debug, Clone)]
pub struct GridPdf {
    /// First grid point.
    pub t0: f64,
    /// Grid spacing.
    pub dt: f64,
    /// Density values.
    pub pdf: Vec<f64>,
}

impl GridPdf {
    /// Discretize an empirical distribution onto `bins` uniform cells
    /// spanning its range (mass-preserving histogram density).
    pub fn from_empirical(dist: &EmpiricalDist, bins: usize) -> Self {
        assert!(bins >= 2);
        let lo = dist.min();
        let hi = dist.max() * 1.0 + (dist.max() - lo).max(1e-12) * 1e-6;
        let dt = (hi - lo) / bins as f64;
        let mut pdf = vec![0.0; bins];
        let w = 1.0 / (dist.n() as f64 * dt);
        for &s in dist.samples() {
            let idx = (((s - lo) / dt) as usize).min(bins - 1);
            pdf[idx] += w;
        }
        GridPdf { t0: lo, dt, pdf }
    }

    /// Total mass `Σ pdf·dt` (≈1 for a proper density).
    pub fn mass(&self) -> f64 {
        self.pdf.iter().sum::<f64>() * self.dt
    }

    /// Mean `∫ t f(t) dt`.
    pub fn mean(&self) -> f64 {
        let m = self.mass();
        self.pdf
            .iter()
            .enumerate()
            .map(|(i, &f)| (self.t0 + (i as f64 + 0.5) * self.dt) * f * self.dt)
            .sum::<f64>()
            / m
    }

    /// Variance.
    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        let m = self.mass();
        self.pdf
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let t = self.t0 + (i as f64 + 0.5) * self.dt;
                (t - mu) * (t - mu) * f * self.dt
            })
            .sum::<f64>()
            / m
    }

    /// Coefficient of variation.
    pub fn cv(&self) -> f64 {
        self.variance().sqrt() / self.mean()
    }

    /// Grid as `(t, f)` pairs.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.pdf
            .iter()
            .enumerate()
            .map(|(i, &f)| (self.t0 + (i as f64 + 0.5) * self.dt, f))
            .collect()
    }

    /// Convolve with another grid density (same `dt` required).
    pub fn convolve(&self, other: &GridPdf) -> GridPdf {
        assert!(
            (self.dt - other.dt).abs() < 1e-12 * self.dt.abs().max(1.0),
            "convolution requires matching grids"
        );
        let n = self.pdf.len() + other.pdf.len() - 1;
        let mut out = vec![0.0; n];
        for (i, &a) in self.pdf.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.pdf.iter().enumerate() {
                out[i + j] += a * b * self.dt;
            }
        }
        GridPdf {
            t0: self.t0 + other.t0,
            dt: self.dt,
            pdf: out,
        }
    }

    /// k-fold self-convolution: the density of the sum of `k` iid draws.
    pub fn convolve_k(&self, k: u32) -> GridPdf {
        assert!(k >= 1);
        let mut acc = self.clone();
        for _ in 1..k {
            acc = acc.convolve(self);
        }
        acc
    }
}

/// Prediction of the Figure 2 effect for one experiment.
#[derive(Debug, Clone)]
pub struct LlnPrediction {
    /// Number of sub-transfers.
    pub k: u32,
    /// Mean of `t_k` (should be `k·µ₁`).
    pub mean: f64,
    /// CV of `t_k` (should shrink like `1/√k`).
    pub cv: f64,
    /// Expected slowest task total over `n_tasks` (drives the phase time).
    pub expected_worst: f64,
}

/// Predict `t_k` statistics and the expected worst case over `n_tasks`
/// from the distribution of single sub-transfer times.
///
/// The per-call distribution is discretized on `bins` cells; the worst
/// case uses the empirical-maximum formula over the convolved density.
pub fn predict(dist: &EmpiricalDist, k: u32, n_tasks: u32, bins: usize) -> LlnPrediction {
    let base = GridPdf::from_empirical(dist, bins);
    let conv = base.convolve_k(k);
    // Expected maximum over n_tasks of the (discretized) sum distribution,
    // stepping its CDF at the cell centres.
    let mass = conv.mass();
    let mut cum = 0.0;
    let steps = conv.pdf.iter().enumerate().map(|(i, &f)| {
        cum += f * conv.dt / mass;
        (conv.t0 + (i as f64 + 0.5) * conv.dt, cum.min(1.0))
    });
    LlnPrediction {
        k,
        mean: conv.mean(),
        cv: conv.cv(),
        expected_worst: expected_max_of_steps(steps, n_tasks),
    }
}

/// The paper's headline comparison: predicted aggregate data rate as a
/// function of `k`, normalized so the rate at `k = 1` is `rate_1`.
///
/// Model: a transfer of fixed total size is split into `k` equal calls
/// whose times scale like `1/k` of a draw from `dist`; the phase ends at
/// the slowest task's total, `E[max over n_tasks of Σₖ Tᵢ]/k`, so
/// `rate(k) = rate_1 · worst(1) / worst(k)`.
pub fn predicted_rate_vs_k(
    dist: &EmpiricalDist,
    ks: &[u32],
    n_tasks: u32,
    rate_1: f64,
    bins: usize,
) -> Vec<(u32, f64)> {
    let worst_1 = predict(dist, 1, n_tasks, bins).expected_worst;
    ks.iter()
        .map(|&k| {
            let p = predict(dist, k, n_tasks, bins);
            let worst_k = p.expected_worst / k as f64;
            (k, rate_1 * worst_1 / worst_k)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread_dist() -> EmpiricalDist {
        // Broad per-call distribution: values 1..=5 uniformly.
        let mut v = Vec::new();
        for i in 0..500 {
            v.push(1.0 + (i % 5) as f64);
        }
        EmpiricalDist::new(&v)
    }

    #[test]
    fn grid_pdf_preserves_mass_and_mean() {
        let d = spread_dist();
        let g = GridPdf::from_empirical(&d, 128);
        assert!((g.mass() - 1.0).abs() < 1e-9);
        assert!(
            (g.mean() - d.mean()).abs() < 0.05,
            "{} {}",
            g.mean(),
            d.mean()
        );
    }

    #[test]
    fn convolution_adds_means_and_variances() {
        let d = spread_dist();
        let g = GridPdf::from_empirical(&d, 128);
        let g2 = g.convolve(&g);
        assert!((g2.mass() - 1.0).abs() < 1e-6);
        assert!((g2.mean() - 2.0 * g.mean()).abs() < 0.05);
        assert!((g2.variance() - 2.0 * g.variance()).abs() < 0.1);
    }

    #[test]
    fn k_fold_narrows_cv_like_sqrt_k() {
        let d = spread_dist();
        let g = GridPdf::from_empirical(&d, 128);
        let cv1 = g.cv();
        let cv4 = g.convolve_k(4).cv();
        let cv16 = g.convolve_k(16).cv();
        assert!(
            (cv4 - cv1 / 2.0).abs() < 0.05 * cv1,
            "cv4 {cv4} vs {}",
            cv1 / 2.0
        );
        assert!(
            (cv16 - cv1 / 4.0).abs() < 0.05 * cv1,
            "cv16 {cv16} vs {}",
            cv1 / 4.0
        );
    }

    #[test]
    fn prediction_mean_scales_with_k() {
        let d = spread_dist();
        let p1 = predict(&d, 1, 1024, 128);
        let p8 = predict(&d, 8, 1024, 128);
        assert!((p8.mean - 8.0 * p1.mean).abs() < 0.2);
        assert!(p8.cv < p1.cv);
    }

    #[test]
    fn worst_case_per_transfer_improves_with_k() {
        // The Figure 2 effect: worst-of-N sum over k, normalized per
        // sub-transfer count, decreases as k grows.
        let d = spread_dist();
        let p1 = predict(&d, 1, 1024, 96);
        let p4 = predict(&d, 4, 1024, 96);
        let p8 = predict(&d, 8, 1024, 96);
        let w1 = p1.expected_worst;
        let w4 = p4.expected_worst / 4.0;
        let w8 = p8.expected_worst / 8.0;
        assert!(w4 < w1, "w4 {w4} w1 {w1}");
        assert!(w8 < w4, "w8 {w8} w4 {w4}");
        // And the improvement is material (paper saw 16%) but bounded.
        assert!(w8 / w1 > 0.5 && w8 / w1 < 0.99, "{}", w8 / w1);
    }

    #[test]
    fn degenerate_distribution_has_no_lln_gain() {
        let d = EmpiricalDist::new(&vec![2.0; 100]);
        let p1 = predict(&d, 1, 64, 32);
        let p8 = predict(&d, 8, 64, 32);
        // No variance → worst == mean == k·µ; per-transfer worst unchanged.
        assert!((p8.expected_worst / 8.0 - p1.expected_worst).abs() < 0.1);
    }

    #[test]
    fn predicted_rate_increases_with_k() {
        let d = spread_dist();
        let rates = predicted_rate_vs_k(&d, &[1, 2, 4, 8], 1024, 11_610.0, 96);
        assert_eq!(rates[0].0, 1);
        assert!((rates[0].1 - 11_610.0).abs() < 1e-6, "k=1 is the anchor");
        for w in rates.windows(2) {
            assert!(w[1].1 > w[0].1, "rate must rise with k: {rates:?}");
        }
        // The paper's gain was ~16% at k=8; ours should be material but
        // not absurd for a broad per-call distribution.
        let gain = rates[3].1 / rates[0].1;
        assert!(gain > 1.02 && gain < 2.0, "gain {gain}");
    }

    #[test]
    #[should_panic]
    fn convolve_requires_matching_grids() {
        let a = GridPdf {
            t0: 0.0,
            dt: 0.1,
            pdf: vec![1.0; 10],
        };
        let b = GridPdf {
            t0: 0.0,
            dt: 0.2,
            pdf: vec![1.0; 10],
        };
        let _ = a.convolve(&b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Convolution conserves mass and adds means (within grid error).
        #[test]
        fn convolution_properties(samples in proptest::collection::vec(0.1f64..10.0, 8..80), k in 2u32..5) {
            let d = EmpiricalDist::new(&samples);
            let g = GridPdf::from_empirical(&d, 64);
            let gk = g.convolve_k(k);
            prop_assert!((gk.mass() - 1.0).abs() < 1e-6);
            let tol = 0.35 * k as f64 * (g.dt + 1e-9) + 1e-6 + 0.01 * g.mean() * k as f64;
            prop_assert!((gk.mean() - k as f64 * g.mean()).abs() < tol,
                "mean {} vs {}", gk.mean(), k as f64 * g.mean());
        }
    }
}
