//! Empirical distributions: the sorted-sample view of an ensemble, with
//! ECDF, quantiles, and moments.

use serde::{Deserialize, Serialize};

/// An empirical distribution over a set of `f64` observations.
///
/// ```
/// use pio_core::empirical::EmpiricalDist;
/// let d = EmpiricalDist::new(&[3.0, 1.0, 4.0, 1.0, 5.0]);
/// assert_eq!(d.median(), 3.0);
/// assert_eq!(d.cdf(1.0), 0.4);
/// assert_eq!(d.max(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalDist {
    /// Samples, sorted ascending.
    sorted: Vec<f64>,
}

impl EmpiricalDist {
    /// Build from samples (copied and sorted). NaNs are rejected.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "empty distribution");
        assert!(samples.iter().all(|v| !v.is_nan()), "NaN sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        EmpiricalDist { sorted }
    }

    /// Build from a vector that is already sorted ascending (checked in
    /// debug builds only) — no copy, no re-sort.
    pub fn from_sorted_vec(sorted: Vec<f64>) -> Self {
        assert!(!sorted.is_empty(), "empty distribution");
        debug_assert!(
            sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "samples not sorted"
        );
        EmpiricalDist { sorted }
    }

    /// Replace the contents with `samples` (copied and sorted), reusing
    /// this distribution's allocation — the bootstrap loop's resample
    /// buffer, refilled thousands of times without reallocating.
    pub fn refill_from(&mut self, samples: &[f64]) {
        assert!(!samples.is_empty(), "empty distribution");
        assert!(samples.iter().all(|v| !v.is_nan()), "NaN sample");
        self.sorted.clear();
        self.sorted.extend_from_slice(samples);
        self.sorted.sort_by(f64::total_cmp);
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation — the N-th order statistic that bounds a
    /// synchronous phase.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Empirical CDF: fraction of samples ≤ `t`.
    pub fn cdf(&self, t: f64) -> f64 {
        // partition_point returns count of samples <= t via total order.
        let k = self.sorted.partition_point(|&x| x <= t);
        k as f64 / self.sorted.len() as f64
    }

    /// Quantile by linear interpolation; `q` clamped to `[0,1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let (i, frac) = quantile_pos(q, n);
        if i + 1 >= n {
            self.sorted[n - 1]
        } else {
            interpolate(self.sorted[i], self.sorted[i + 1], frac)
        }
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// [`Self::median`] of unsorted `samples`, bit for bit, found by
    /// selection instead of a sort; `samples` is left reordered.
    pub(crate) fn median_of(samples: &mut [f64]) -> f64 {
        let n = samples.len();
        assert!(n > 0, "empty distribution");
        if n == 1 {
            return samples[0];
        }
        // The median's lower index is below n − 1 for every n ≥ 2, so
        // the upper part is never empty and its minimum is the next
        // order statistic.
        let (i, frac) = quantile_pos(0.5, n);
        let (_, &mut lo, upper) = samples.select_nth_unstable_by(i, f64::total_cmp);
        let hi = upper.iter().copied().min_by(f64::total_cmp);
        interpolate(lo, hi.expect("n ≥ 2 samples"), frac)
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// Mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.sorted.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.sorted.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation σ/µ (`None` for zero mean).
    pub fn cv(&self) -> Option<f64> {
        let m = self.mean();
        if m == 0.0 {
            None
        } else {
            Some(self.std_dev() / m.abs())
        }
    }

    /// Skewness (0 for symmetric; `None` for zero variance).
    pub fn skewness(&self) -> Option<f64> {
        let m = self.mean();
        let n = self.sorted.len() as f64;
        let m2 = self.variance();
        if m2 <= 0.0 {
            return None;
        }
        let m3 = self.sorted.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
        Some(m3 / m2.powf(1.5))
    }

    /// Excess kurtosis (`None` for zero variance).
    pub fn excess_kurtosis(&self) -> Option<f64> {
        let m = self.mean();
        let n = self.sorted.len() as f64;
        let m2 = self.variance();
        if m2 <= 0.0 {
            return None;
        }
        let m4 = self.sorted.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
        Some(m4 / (m2 * m2) - 3.0)
    }

    /// Fraction of samples strictly above `t`.
    pub fn fraction_above(&self, t: f64) -> f64 {
        1.0 - self.cdf(t)
    }

    /// Tail ratio `quantile(q) / median` — a scale-free heavy-tail measure.
    pub fn tail_ratio(&self, q: f64) -> f64 {
        let med = self.median();
        if med <= 0.0 {
            return f64::INFINITY;
        }
        self.quantile(q) / med
    }

    /// Progress curve `(t, F(t))` evaluated at each distinct sample — the
    /// paper's Figure 5(a) "fraction of I/O ops complete versus time".
    pub fn progress_curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, (i + 1) as f64 / n))
            .collect()
    }
}

/// Where quantile `q` (clamped to `[0, 1]`) falls among `n ≥ 2` sorted
/// samples: the lower order statistic's index and the next one's weight.
fn quantile_pos(q: f64, n: usize) -> (usize, f64) {
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let i = pos.floor() as usize;
    (i, pos - i as f64)
}

/// Linear interpolation between adjacent order statistics.
fn interpolate(lo: f64, hi: f64, frac: f64) -> f64 {
    lo * (1.0 - frac) + hi * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> EmpiricalDist {
        EmpiricalDist::new(&[5.0, 1.0, 3.0, 2.0, 4.0])
    }

    #[test]
    fn order_and_extremes() {
        let d = dist();
        assert_eq!(d.n(), 5);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 5.0);
        assert_eq!(d.samples(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn cdf_steps_correctly() {
        let d = dist();
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.2);
        assert_eq!(d.cdf(3.5), 0.6);
        assert_eq!(d.cdf(5.0), 1.0);
        assert_eq!(d.cdf(100.0), 1.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let d = dist();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 5.0);
        assert_eq!(d.median(), 3.0);
        assert!((d.quantile(0.25) - 2.0).abs() < 1e-12);
        assert!((d.iqr() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn moments_match_closed_form() {
        let d = dist();
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.variance(), 2.0);
        assert!((d.std_dev() - 2f64.sqrt()).abs() < 1e-12);
        assert!(d.skewness().unwrap().abs() < 1e-12, "symmetric");
        assert!((d.cv().unwrap() - 2f64.sqrt() / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_edge_cases() {
        let d = EmpiricalDist::new(&[2.0, 2.0, 2.0]);
        assert!(d.skewness().is_none());
        assert!(d.excess_kurtosis().is_none());
        assert_eq!(d.iqr(), 0.0);
    }

    #[test]
    fn tail_measures() {
        let mut samples = vec![1.0; 99];
        samples.push(100.0);
        let d = EmpiricalDist::new(&samples);
        assert!((d.fraction_above(1.0) - 0.01).abs() < 1e-12);
        assert!(d.tail_ratio(0.999) > 50.0);
        assert!((d.tail_ratio(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn progress_curve_is_monotone_and_complete() {
        let d = dist();
        let pc = d.progress_curve();
        assert_eq!(pc.len(), 5);
        assert_eq!(pc[0], (1.0, 0.2));
        assert_eq!(pc[4], (5.0, 1.0));
        assert!(pc.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn single_sample_dist() {
        let d = EmpiricalDist::new(&[7.0]);
        assert_eq!(d.median(), 7.0);
        assert_eq!(d.quantile(0.3), 7.0);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_rejected() {
        EmpiricalDist::new(&[]);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        EmpiricalDist::new(&[1.0, f64::NAN]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// CDF is monotone nondecreasing, 0 before min, 1 at max.
        #[test]
        fn cdf_is_a_cdf(samples in proptest::collection::vec(-50.0f64..50.0, 1..200)) {
            let d = EmpiricalDist::new(&samples);
            prop_assert_eq!(d.cdf(d.min() - 1.0), 0.0);
            prop_assert_eq!(d.cdf(d.max()), 1.0);
            let mut last = 0.0;
            let mut t = d.min() - 1.0;
            while t < d.max() + 1.0 {
                let c = d.cdf(t);
                prop_assert!(c >= last);
                last = c;
                t += 0.37;
            }
        }

        /// Quantile is a (pseudo-)inverse of the CDF and is monotone.
        #[test]
        fn quantile_monotone(samples in proptest::collection::vec(-50.0f64..50.0, 2..200)) {
            let d = EmpiricalDist::new(&samples);
            let mut last = f64::NEG_INFINITY;
            for i in 0..=20 {
                let q = i as f64 / 20.0;
                let v = d.quantile(q);
                prop_assert!(v >= last);
                prop_assert!(v >= d.min() && v <= d.max());
                last = v;
            }
        }

        /// The selection median equals the sorted one bit for bit, ties
        /// and odd and even counts alike.
        #[test]
        fn selection_median_is_the_sorted_median(
            samples in proptest::collection::vec(0u32..40, 1..200)
        ) {
            let mut secs: Vec<f64> = samples.iter().map(|&v| f64::from(v) * 0.37).collect();
            let want = EmpiricalDist::new(&secs).median();
            prop_assert_eq!(EmpiricalDist::median_of(&mut secs).to_bits(), want.to_bits());
        }

        /// Mean lies within [min, max]; variance nonnegative.
        #[test]
        fn moment_bounds(samples in proptest::collection::vec(-50.0f64..50.0, 1..200)) {
            let d = EmpiricalDist::new(&samples);
            prop_assert!(d.mean() >= d.min() - 1e-9 && d.mean() <= d.max() + 1e-9);
            prop_assert!(d.variance() >= 0.0);
        }
    }
}
