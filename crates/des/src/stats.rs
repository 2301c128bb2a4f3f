//! Lightweight in-simulation statistics: time-weighted values and
//! single-pass moment accumulation (Welford/Terriberry).
//!
//! The simulator tracks each node's dirty-page level with
//! [`TimeWeighted`]; `pio-ingest`'s sketches keep [`OnlineMoments`]. The
//! *analysis* statistics — the paper's contribution — live in
//! `pio-core`.

use crate::time::SimTime;

/// Integral of a piecewise-constant signal over virtual time
/// (e.g. dirty bytes, queue depth), for time-averaged levels.
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    integral: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Signal starts at `v0` at time zero.
    pub fn new(v0: f64) -> Self {
        TimeWeighted {
            last_t: SimTime::ZERO,
            last_v: v0,
            integral: 0.0,
            peak: v0,
        }
    }

    /// The signal changes to `v` at time `t` (t must be nondecreasing).
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_t, "time went backwards");
        self.integral += self.last_v * t.since(self.last_t).as_secs_f64();
        self.last_t = t;
        self.last_v = v;
        self.peak = self.peak.max(v);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.last_v
    }

    /// Peak value seen.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-average over `[0, t]` (flushes the running segment).
    pub fn average(&self, t: SimTime) -> f64 {
        if t.nanos() == 0 {
            return self.last_v;
        }
        let tail = self.last_v * t.since(self.last_t).as_secs_f64();
        (self.integral + tail) / t.as_secs_f64()
    }
}

/// Single-pass mean/variance/skewness/kurtosis accumulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl OnlineMoments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Record a slice of observations — the exact same sequential
    /// update as calling [`Self::record`] per element (bit-identical;
    /// the batch ingest path uses this to keep the accumulator loop
    /// tight and inlineable without changing a single rounding step).
    #[inline]
    pub fn record_block(&mut self, xs: &[f64]) {
        for &x in xs {
            self.record(x);
        }
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Skewness `m3 / m2^(3/2)`; `None` if fewer than 2 samples or zero variance.
    pub fn skewness(&self) -> Option<f64> {
        if self.n < 2 || self.m2 <= 0.0 {
            return None;
        }
        let n = self.n as f64;
        Some((n.sqrt() * self.m3) / self.m2.powf(1.5))
    }

    /// Excess kurtosis `m4·n / m2² − 3`; `None` if fewer than 2 samples
    /// or zero variance.
    pub fn excess_kurtosis(&self) -> Option<f64> {
        if self.n < 2 || self.m2 <= 0.0 {
            return None;
        }
        let n = self.n as f64;
        Some(n * self.m4 / (self.m2 * self.m2) - 3.0)
    }

    /// Coefficient of variation (σ/µ); `None` if empty or zero mean.
    pub fn cv(&self) -> Option<f64> {
        let mean = self.mean()?;
        if mean == 0.0 {
            return None;
        }
        Some(self.std_dev()? / mean.abs())
    }

    /// Combine another accumulator into this one (Chan/Terriberry parallel
    /// update), as if both streams had been recorded into a single
    /// accumulator. Associative and commutative up to float rounding, so
    /// per-shard accumulators can be merged in any order.
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let d2 = delta * delta;
        let m2 = self.m2 + other.m2 + d2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + d2 * delta * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * d2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_average() {
        let mut w = TimeWeighted::new(0.0);
        w.set(SimTime::from_secs(2), 10.0); // 0 for [0,2)
        w.set(SimTime::from_secs(4), 0.0); // 10 for [2,4)
                                           // Average over [0,5]: (0*2 + 10*2 + 0*1)/5 = 4.
        assert!((w.average(SimTime::from_secs(5)) - 4.0).abs() < 1e-12);
        assert_eq!(w.peak(), 10.0);
        assert_eq!(w.value(), 0.0);
    }

    #[test]
    fn moments_match_closed_form() {
        // Uniform 1..=9: mean 5, variance 60/9.
        let mut m = OnlineMoments::new();
        for i in 1..=9 {
            m.record(i as f64);
        }
        assert_eq!(m.count(), 9);
        assert!((m.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((m.variance().unwrap() - 60.0 / 9.0).abs() < 1e-9);
        // Symmetric: zero skewness.
        assert!(m.skewness().unwrap().abs() < 1e-9);
    }

    #[test]
    fn merge_matches_single_stream() {
        let xs: Vec<f64> = (0..120)
            .map(|i| (i as f64 * 0.37).sin() * 20.0 + 5.0)
            .collect();
        let mut whole = OnlineMoments::new();
        let mut left = OnlineMoments::new();
        let mut right = OnlineMoments::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            if i < 47 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert!((left.skewness().unwrap() - whole.skewness().unwrap()).abs() < 1e-9);
        assert!((left.excess_kurtosis().unwrap() - whole.excess_kurtosis().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = OnlineMoments::new();
        m.record(1.0);
        m.record(3.0);
        let snapshot = m.clone();
        m.merge(&OnlineMoments::new());
        assert_eq!(m.count(), snapshot.count());
        assert_eq!(m.mean(), snapshot.mean());
        let mut empty = OnlineMoments::new();
        empty.merge(&snapshot);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), snapshot.mean());
    }

    #[test]
    fn moments_edge_cases() {
        let m = OnlineMoments::new();
        assert!(m.mean().is_none());
        let mut one = OnlineMoments::new();
        one.record(4.0);
        assert_eq!(one.variance(), Some(0.0));
        assert!(one.skewness().is_none());
        let mut constant = OnlineMoments::new();
        constant.record(2.0);
        constant.record(2.0);
        assert!(constant.skewness().is_none(), "zero variance has no skew");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Online moments agree with the two-pass formulas.
        #[test]
        fn online_matches_two_pass(xs in proptest::collection::vec(-100.0f64..100.0, 2..200)) {
            let mut m = OnlineMoments::new();
            for &x in &xs {
                m.record(x);
            }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((m.mean().unwrap() - mean).abs() < 1e-6);
            prop_assert!((m.variance().unwrap() - var).abs() < 1e-5 * var.max(1.0));
        }

        /// Time-weighted average lies within [min, max] of set values.
        #[test]
        fn tw_average_bounded(steps in proptest::collection::vec((1u64..100, 0.0f64..50.0), 1..50)) {
            let mut w = TimeWeighted::new(0.0);
            let mut t = 0u64;
            let mut lo: f64 = 0.0;
            let mut hi: f64 = 0.0;
            for &(dt, v) in &steps {
                t += dt;
                w.set(SimTime::from_secs(t), v);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let avg = w.average(SimTime::from_secs(t));
            prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        }
    }
}
