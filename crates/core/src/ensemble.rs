//! Multi-run ensembles — the paper's central object.
//!
//! An *experiment* is a choice of parameters; a *run* is one execution of
//! it. Individual event times are erratic between runs, but "the modes by
//! which they occur are stable". `Ensemble` holds one distribution per
//! run and measures exactly that stability.

use crate::distance::{ks_statistic, wasserstein1};
use crate::empirical::EmpiricalDist;
use crate::modes::{find_modes, Mode, STABLE_MODE_TOL};

/// A set of runs of one experiment, each reduced to a distribution of
/// per-event times.
#[derive(Debug, Clone)]
pub struct Ensemble {
    runs: Vec<EmpiricalDist>,
}

/// Stability measurement across an ensemble's runs.
#[derive(Debug, Clone)]
pub struct Stability {
    /// Largest pairwise KS statistic.
    pub max_ks: f64,
    /// Mean pairwise KS statistic.
    pub mean_ks: f64,
    /// Largest pairwise Wasserstein-1 distance, normalized by the pooled
    /// median (scale-free).
    pub max_w1_rel: f64,
    /// Relative spread of run medians: (max − min) / pooled median.
    pub median_spread: f64,
}

impl Ensemble {
    /// Build from per-run sample sets; empty runs are rejected.
    pub fn new(runs: Vec<EmpiricalDist>) -> Self {
        assert!(!runs.is_empty(), "empty ensemble");
        Ensemble { runs }
    }

    /// Build from raw per-run sample vectors.
    pub fn from_samples(runs: &[Vec<f64>]) -> Self {
        Ensemble::new(runs.iter().map(|r| EmpiricalDist::new(r)).collect())
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// The runs' distributions.
    pub fn distributions(&self) -> &[EmpiricalDist] {
        &self.runs
    }

    /// All samples pooled into one distribution.
    pub fn pooled(&self) -> EmpiricalDist {
        let all: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|d| d.samples().iter().cloned())
            .collect();
        EmpiricalDist::new(&all)
    }

    /// Pairwise stability metrics (requires ≥ 2 runs).
    pub fn stability(&self) -> Option<Stability> {
        if self.runs.len() < 2 {
            return None;
        }
        let pooled_median = self.pooled().median().abs().max(1e-300);
        let mut max_ks = 0.0f64;
        let mut sum_ks = 0.0f64;
        let mut pairs = 0usize;
        let mut max_w1 = 0.0f64;
        for i in 0..self.runs.len() {
            for j in i + 1..self.runs.len() {
                let ks = ks_statistic(&self.runs[i], &self.runs[j]);
                let w1 = wasserstein1(&self.runs[i], &self.runs[j]);
                max_ks = max_ks.max(ks);
                sum_ks += ks;
                max_w1 = max_w1.max(w1);
                pairs += 1;
            }
        }
        let medians: Vec<f64> = self.runs.iter().map(EmpiricalDist::median).collect();
        let mmax = medians.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mmin = medians.iter().cloned().fold(f64::INFINITY, f64::min);
        Some(Stability {
            max_ks,
            mean_ks: sum_ks / pairs as f64,
            max_w1_rel: max_w1 / pooled_median,
            median_spread: (mmax - mmin) / pooled_median,
        })
    }

    /// The paper's reproducibility verdict: distributions of different
    /// runs are "almost identical". True when the worst pairwise KS is
    /// below `ks_threshold` (0.1–0.2 is reasonable for ~1000 events).
    pub fn is_reproducible(&self, ks_threshold: f64) -> bool {
        match self.stability() {
            Some(s) => s.max_ks <= ks_threshold,
            None => true,
        }
    }

    /// Mean-of-run-means and std-of-run-means: how tightly the first
    /// moment reproduces.
    pub fn mean_of_means(&self) -> (f64, f64) {
        let means: Vec<f64> = self.runs.iter().map(EmpiricalDist::mean).collect();
        let m = means.iter().sum::<f64>() / means.len() as f64;
        let v = means.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / means.len() as f64;
        (m, v.sqrt())
    }

    /// The paper's strongest claim is that the *modes* of the
    /// distribution are stable run to run. Detect modes in every run and
    /// greedily match them across runs within [`STABLE_MODE_TOL`]
    /// relative location error; returns the matched mode groups
    /// (location = mean across runs) together with the fraction of runs
    /// each mode appeared in.
    pub fn stable_modes(&self) -> Vec<(Mode, f64)> {
        let per_run: Vec<Vec<Mode>> = self.runs.iter().map(find_modes).collect();
        let mut groups: Vec<(Vec<Mode>, f64)> = Vec::new();
        for modes in &per_run {
            for m in modes {
                match groups.iter_mut().find(|(g, _)| {
                    let loc = g.iter().map(|x| x.location).sum::<f64>() / g.len() as f64;
                    (m.location - loc).abs() <= STABLE_MODE_TOL * loc.abs().max(1e-12)
                }) {
                    Some((g, _)) => g.push(*m),
                    None => groups.push((vec![*m], 0.0)),
                }
            }
        }
        let n_runs = self.runs.len() as f64;
        let mut out: Vec<(Mode, f64)> = groups
            .into_iter()
            .map(|(g, _)| {
                let k = g.len() as f64;
                let mode = Mode {
                    location: g.iter().map(|m| m.location).sum::<f64>() / k,
                    height: g.iter().map(|m| m.height).sum::<f64>() / k,
                    mass: g.iter().map(|m| m.mass).sum::<f64>() / k,
                };
                (mode, (k / n_runs).min(1.0))
            })
            .collect();
        out.sort_by(|a, b| a.0.location.total_cmp(&b.0.location));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same underlying shape, different "runs" (jittered).
    fn stable_runs(n_runs: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n_runs)
            .map(|r| {
                (0..n)
                    .map(|i| {
                        let base = (i % 10) as f64;
                        base + 0.01 * ((i * 7 + r * 13) % 11) as f64
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn stable_ensemble_is_reproducible() {
        let e = Ensemble::from_samples(&stable_runs(5, 500));
        let s = e.stability().unwrap();
        assert!(s.max_ks < 0.1, "{s:?}");
        assert!(s.median_spread < 0.05, "{s:?}");
        assert!(e.is_reproducible(0.15));
        let (m, sd) = e.mean_of_means();
        assert!(sd / m < 0.01);
    }

    #[test]
    fn shifted_run_breaks_reproducibility() {
        let mut runs = stable_runs(4, 500);
        // One run pathologically slow (e.g. the buggy read-ahead hit it).
        runs.push((0..500).map(|i| 50.0 + (i % 10) as f64).collect());
        let e = Ensemble::from_samples(&runs);
        let s = e.stability().unwrap();
        assert!(s.max_ks > 0.9, "{s:?}");
        assert!(!e.is_reproducible(0.2));
        assert!(s.median_spread > 1.0);
    }

    #[test]
    fn pooled_contains_all_samples() {
        let e = Ensemble::from_samples(&stable_runs(3, 100));
        assert_eq!(e.pooled().n(), 300);
        assert_eq!(e.runs(), 3);
    }

    #[test]
    fn single_run_has_no_stability_but_is_reproducible() {
        let e = Ensemble::from_samples(&stable_runs(1, 50));
        assert!(e.stability().is_none());
        assert!(e.is_reproducible(0.01));
    }

    #[test]
    #[should_panic]
    fn empty_ensemble_rejected() {
        Ensemble::new(vec![]);
    }

    /// Tri-modal runs: the mode structure must survive across runs.
    #[test]
    fn modes_are_stable_across_runs() {
        let runs: Vec<Vec<f64>> = (0..4)
            .map(|r| {
                let mut v = Vec::new();
                for i in 0..240 {
                    let base = match i % 8 {
                        0 => 8.0,
                        1..=2 => 16.0,
                        _ => 32.0,
                    };
                    v.push(base + ((i * 13 + r * 7) % 23) as f64 * 0.02);
                }
                v
            })
            .collect();
        let e = Ensemble::from_samples(&runs);
        let stable = e.stable_modes();
        // All three modes present in every run.
        let full: Vec<_> = stable.iter().filter(|&&(_, f)| f >= 1.0).collect();
        assert_eq!(full.len(), 3, "{stable:?}");
        assert!((full[0].0.location - 8.0).abs() < 1.0);
        assert!((full[1].0.location - 16.0).abs() < 1.5);
        assert!((full[2].0.location - 32.0).abs() < 2.0);
    }

    #[test]
    fn transient_mode_has_low_presence() {
        let mut runs: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..200).map(|i| 10.0 + (i % 17) as f64 * 0.02).collect())
            .collect();
        // One run has an extra cluster far away.
        runs[0].extend((0..60).map(|i| 50.0 + (i % 5) as f64 * 0.05));
        let e = Ensemble::from_samples(&runs);
        let stable = e.stable_modes();
        let far = stable
            .iter()
            .find(|(m, _)| m.location > 40.0)
            .expect("far mode");
        assert!(far.1 <= 0.3, "transient mode presence {far:?}");
        let main = stable
            .iter()
            .find(|(m, _)| (m.location - 10.0).abs() < 2.0)
            .unwrap();
        assert!(main.1 >= 1.0);
    }
}
