//! Order statistics — the paper's Equation (1).
//!
//! For N tasks drawing I/O times iid from density `f` with CDF `F`, the
//! phase completes at the N-th order statistic, distributed as
//! `f_N(t) = N·F(t)^(N-1)·f(t)`. "As N increases the expression F(t)^(N−1)
//! quickly converges to a step function picking out a point in the
//! right-hand tail" — which is why the tail, not the mean, governs
//! barriered applications.

use crate::empirical::EmpiricalDist;

/// CDF of the maximum of `n` iid draws: `F(t)^n`.
pub fn max_cdf(dist: &EmpiricalDist, t: f64, n: u32) -> f64 {
    dist.cdf(t).powi(n as i32)
}

/// Survival function of the maximum: probability the slowest of `n`
/// exceeds `t`.
pub fn max_survival(dist: &EmpiricalDist, t: f64, n: u32) -> f64 {
    1.0 - max_cdf(dist, t, n)
}

/// Expected maximum of `n` iid draws from the empirical distribution —
/// exact under the empirical measure:
/// `E[max] = Σᵢ t₍ᵢ₎ · [ (i/m)ⁿ − ((i−1)/m)ⁿ ]` over sorted samples.
///
/// ```
/// use pio_core::empirical::EmpiricalDist;
/// use pio_core::order_stats::expected_max;
/// let d = EmpiricalDist::new(&(1..=100).map(f64::from).collect::<Vec<_>>());
/// // One draw: the mean. 1024 draws: essentially the sample max.
/// assert!((expected_max(&d, 1) - d.mean()).abs() < 1e-9);
/// assert!(expected_max(&d, 1024) > 99.0);
/// ```
pub fn expected_max(dist: &EmpiricalDist, n: u32) -> f64 {
    let m = dist.n() as f64;
    let steps = dist
        .samples()
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, (i + 1) as f64 / m));
    expected_max_of_steps(steps, n)
}

/// Equation (1) in expectation over a step CDF: the expected maximum of
/// `n` iid draws from a distribution given as ascending `(t, F(t))`
/// steps, `E[max] = Σ t·(F(t)ⁿ − F(t⁻)ⁿ)`. The one implementation behind
/// [`expected_max`] (ECDF steps) and `lln::predict` (a convolved grid
/// density's running mass).
pub(crate) fn expected_max_of_steps(steps: impl IntoIterator<Item = (f64, f64)>, n: u32) -> f64 {
    let mut acc = 0.0;
    let mut prev = 0.0f64;
    for (t, cdf) in steps {
        let cur = cdf.powi(n as i32);
        acc += t * (cur - prev);
        prev = cur;
    }
    acc
}

/// Quantile of the maximum of `n` draws: the `t` with `F(t)^n = q`,
/// i.e. the base distribution's `q^(1/n)` quantile.
pub fn max_quantile(dist: &EmpiricalDist, q: f64, n: u32) -> f64 {
    let q = q.clamp(0.0, 1.0);
    dist.quantile(q.powf(1.0 / n as f64))
}

/// Density of the maximum on a grid: `(t, N·F̂(t)^(N−1)·f̂(t))` with `f̂`
/// a KDE of the base distribution and `F̂` its own cumulative integral
/// (using the ECDF for `F` against a smoothed `f` breaks normalization in
/// the extreme tail, exactly where `f_N` lives). Useful for plotting `f_N`.
pub fn max_density_grid(dist: &EmpiricalDist, n: u32, points: usize) -> Vec<(f64, f64)> {
    let kde = crate::kde::Kde::new(dist);
    let grid = kde.grid(points);
    let dt = if grid.len() >= 2 {
        grid[1].0 - grid[0].0
    } else {
        0.0
    };
    let mut cum = 0.0;
    grid.into_iter()
        .map(|(t, f)| {
            cum = (cum + f * dt).min(1.0);
            (t, n as f64 * cum.powi(n as i32 - 1) * f)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniformish(n: usize) -> EmpiricalDist {
        // Near-uniform on [0,1].
        EmpiricalDist::new(&(1..=n).map(|i| i as f64 / n as f64).collect::<Vec<_>>())
    }

    #[test]
    fn max_cdf_is_powered() {
        let d = uniformish(1000);
        let t = 0.5;
        let f1 = d.cdf(t);
        assert!((max_cdf(&d, t, 4) - f1.powi(4)).abs() < 1e-12);
        assert!(max_cdf(&d, t, 64) < 1e-12 + f1.powi(64) + 1e-12);
        assert!((max_survival(&d, t, 2) - (1.0 - f1 * f1)).abs() < 1e-12);
    }

    #[test]
    fn expected_max_of_steps_is_equation_one() {
        // A fair coin on {0, 1}: the max of two draws is 1 unless both
        // are 0, and of one draw the coin itself.
        let coin = [(0.0, 0.5), (1.0, 1.0)];
        assert_eq!(expected_max_of_steps(coin, 1), 0.5);
        assert_eq!(expected_max_of_steps(coin, 2), 0.75);
        assert_eq!(expected_max_of_steps(coin, 3), 0.875);
    }

    #[test]
    fn expected_max_of_one_is_the_mean() {
        let d = EmpiricalDist::new(&[1.0, 2.0, 3.0, 4.0]);
        assert!((expected_max(&d, 1) - d.mean()).abs() < 1e-12);
    }

    #[test]
    fn expected_max_grows_with_n_toward_the_max() {
        let d = uniformish(500);
        let e1 = expected_max(&d, 1);
        let e4 = expected_max(&d, 4);
        let e64 = expected_max(&d, 64);
        let e1024 = expected_max(&d, 1024);
        assert!(e1 < e4 && e4 < e64 && e64 < e1024);
        assert!(e1024 <= d.max() + 1e-12);
        // Uniform: E[max of n] = n/(n+1) → 64 draws ≈ 0.985.
        assert!((e64 - 64.0 / 65.0).abs() < 0.02, "{e64}");
    }

    #[test]
    fn expected_max_converges_to_sample_max() {
        let d = EmpiricalDist::new(&[1.0, 5.0, 9.0]);
        let big = expected_max(&d, 10_000);
        assert!((big - 9.0).abs() < 0.02, "{big}");
    }

    #[test]
    fn max_quantile_is_right_shifted() {
        let d = uniformish(1000);
        let q50_1 = max_quantile(&d, 0.5, 1);
        let q50_16 = max_quantile(&d, 0.5, 16);
        let q50_1024 = max_quantile(&d, 0.5, 1024);
        assert!(q50_1 < q50_16 && q50_16 < q50_1024);
        // Uniform: median of max of n is (1/2)^(1/n) → ~0.9576 at n=16.
        assert!((q50_16 - 0.5f64.powf(1.0 / 16.0)).abs() < 0.02);
    }

    #[test]
    fn max_density_concentrates_in_tail() {
        let d = uniformish(2000);
        let grid = max_density_grid(&d, 256, 400);
        // The mass center of f_N should be far right of the base mean.
        let dt = grid[1].0 - grid[0].0;
        let mass: f64 = grid.iter().map(|&(_, f)| f * dt).sum();
        let mean: f64 = grid.iter().map(|&(t, f)| t * f * dt).sum::<f64>() / mass;
        assert!(mass > 0.8 && mass < 1.2, "mass {mass}");
        assert!(mean > 0.95, "mean of max density {mean}");
    }

    #[test]
    fn monte_carlo_agrees_with_formula() {
        // Draw maxima of n=8 from the empirical dist by resampling and
        // compare to expected_max.
        let d = uniformish(400);
        let mut rng = rand_sim();
        let trials = 4000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let mut m = f64::NEG_INFINITY;
            for _ in 0..8 {
                let idx = (rng.next() % 400) as usize;
                m = m.max(d.samples()[idx]);
            }
            acc += m;
        }
        let mc = acc / trials as f64;
        let formula = expected_max(&d, 8);
        assert!((mc - formula).abs() < 0.01, "mc {mc} vs formula {formula}");
    }

    /// Tiny xorshift for the Monte-Carlo check (keeps rand out of this
    /// crate's non-dev deps).
    struct X(u64);
    fn rand_sim() -> X {
        X(0x9E3779B97F4A7C15)
    }
    impl X {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// E[max of n] is nondecreasing in n and bounded by the sample max.
        #[test]
        fn expected_max_monotone(samples in proptest::collection::vec(0.0f64..100.0, 2..100)) {
            let d = EmpiricalDist::new(&samples);
            let mut last = f64::NEG_INFINITY;
            for n in [1u32, 2, 4, 16, 256] {
                let e = expected_max(&d, n);
                prop_assert!(e >= last - 1e-9);
                prop_assert!(e <= d.max() + 1e-9);
                prop_assert!(e >= d.min() - 1e-9);
                last = e;
            }
        }

        /// max_cdf is a valid CDF in t for fixed n.
        #[test]
        fn max_cdf_valid(samples in proptest::collection::vec(0.0f64..100.0, 2..100), n in 1u32..64) {
            let d = EmpiricalDist::new(&samples);
            let mut last = 0.0;
            for i in 0..=20 {
                let t = d.min() + (d.max() - d.min()) * i as f64 / 20.0;
                let c = max_cdf(&d, t, n);
                prop_assert!((0.0..=1.0).contains(&c));
                prop_assert!(c >= last - 1e-12);
                last = c;
            }
            prop_assert!((max_cdf(&d, d.max(), n) - 1.0).abs() < 1e-12);
        }
    }
}
