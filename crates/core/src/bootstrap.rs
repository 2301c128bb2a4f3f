//! Bootstrap confidence intervals for ensemble statistics.
//!
//! The paper argues the moments and modes of an I/O-time distribution are
//! the reproducible objects; bootstrap resampling quantifies how well one
//! run pins them down — e.g. whether a median shift between two runs is
//! signal or noise. Deterministic (seeded), dependency-free resampling.

use crate::empirical::EmpiricalDist;
use pio_des::par::map_claimed;

/// A two-sided confidence interval for a statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// SplitMix64 — small deterministic generator for resampling indices
/// (keeps `rand` out of this crate's runtime dependencies).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// SplitMix64 finalizer: a bijective 64-bit scramble.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream of resample `r` under `seed`.
///
/// Every resample owns an independent generator derived by **fully
/// mixing** `(seed, r)` — a naive `seed + r·constant` start state would
/// make stream `r` a shifted copy of stream 0 (SplitMix64 walks its
/// state by a fixed increment), correlating the resamples. The full
/// scramble makes the partition of resamples over threads irrelevant:
/// any worker count draws exactly the same indices for resample `r`.
fn resample_stream(seed: u64, r: u64) -> Mix {
    Mix(mix64(
        (seed ^ 0xB007).wrapping_add(r.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    ))
}

/// Resamples below this run serially: thread spawn costs more than the
/// work (resamples × n index draws + sorts).
const PARALLEL_MIN_WORK: usize = 1 << 17;

/// Compute the sorted bootstrap statistics for `resamples` resamples,
/// `lo..hi` of which are produced by this call (one worker's share).
fn resample_range<F: Fn(&EmpiricalDist) -> f64>(
    samples: &[f64],
    stat: &F,
    lo: usize,
    hi: usize,
    seed: u64,
) -> Vec<f64> {
    let n = samples.len();
    let mut out = Vec::with_capacity(hi - lo);
    let mut buf = vec![0.0f64; n];
    // One scratch distribution per worker, refilled in place: the loop
    // body allocates nothing after the first iteration.
    let mut scratch = EmpiricalDist::new(samples);
    for r in lo..hi {
        let mut rng = resample_stream(seed, r as u64);
        for slot in buf.iter_mut() {
            *slot = samples[rng.index(n)];
        }
        scratch.refill_from(&buf);
        out.push(stat(&scratch));
    }
    out
}

/// Percentile-bootstrap confidence interval for `stat` over `dist`:
/// `resamples` with-replacement resamples, interval at `level`
/// (e.g. 0.95), generator seeded by `seed`.
///
/// Large inputs fan the resamples out over threads. The result is
/// **bit-identical for any worker count**: resample `r` always draws
/// from its own SplitMix64-derived stream, and the percentile
/// extraction sorts the statistics, erasing completion order.
pub fn bootstrap_ci<F: Fn(&EmpiricalDist) -> f64 + Sync>(
    dist: &EmpiricalDist,
    stat: F,
    resamples: usize,
    level: f64,
    seed: u64,
) -> ConfidenceInterval {
    let workers = if resamples * dist.n() >= PARALLEL_MIN_WORK {
        std::thread::available_parallelism().map_or(1, |p| p.get().min(8))
    } else {
        1
    };
    bootstrap_ci_with_workers(dist, stat, resamples, level, seed, workers)
}

/// [`bootstrap_ci`] with an explicit worker count — exposed so the
/// determinism suite can assert worker-count invariance directly.
#[doc(hidden)]
pub fn bootstrap_ci_with_workers<F: Fn(&EmpiricalDist) -> f64 + Sync>(
    dist: &EmpiricalDist,
    stat: F,
    resamples: usize,
    level: f64,
    seed: u64,
    workers: usize,
) -> ConfidenceInterval {
    assert!(resamples >= 8, "too few resamples");
    assert!((0.0..1.0).contains(&level) && level > 0.0);
    let estimate = stat(dist);
    let samples = dist.samples();

    let workers = workers.clamp(1, resamples);
    let per = resamples.div_ceil(workers);
    let chunks = map_claimed(0..workers, workers, |w| {
        let lo = (w * per).min(resamples);
        let hi = ((w + 1) * per).min(resamples);
        resample_range(samples, &stat, lo, hi, seed)
    });
    let mut stats = chunks.concat();
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((alpha * resamples as f64) as usize).min(resamples - 1);
    let hi_idx = (((1.0 - alpha) * resamples as f64) as usize).min(resamples - 1);
    ConfidenceInterval {
        estimate,
        lo: stats[lo_idx],
        hi: stats[hi_idx],
        level,
    }
}

/// CI for the median.
pub fn median_ci(
    dist: &EmpiricalDist,
    resamples: usize,
    level: f64,
    seed: u64,
) -> ConfidenceInterval {
    bootstrap_ci(dist, EmpiricalDist::median, resamples, level, seed)
}

/// CI for the mean.
pub fn mean_ci(
    dist: &EmpiricalDist,
    resamples: usize,
    level: f64,
    seed: u64,
) -> ConfidenceInterval {
    bootstrap_ci(dist, EmpiricalDist::mean, resamples, level, seed)
}

/// Are two runs' statistics distinguishable? True when the bootstrap
/// intervals of `stat` at `level` do not overlap — the "same experiment
/// or a real shift?" question the ensemble method keeps asking.
pub fn distinguishable<F: Fn(&EmpiricalDist) -> f64 + Copy + Sync>(
    a: &EmpiricalDist,
    b: &EmpiricalDist,
    stat: F,
    resamples: usize,
    level: f64,
    seed: u64,
) -> bool {
    let ca = bootstrap_ci(a, stat, resamples, level, seed);
    let cb = bootstrap_ci(b, stat, resamples, level, seed.wrapping_add(1));
    ca.hi < cb.lo || cb.hi < ca.lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(offset: f64) -> EmpiricalDist {
        let v: Vec<f64> = (0..400).map(|i| offset + (i % 40) as f64 * 0.1).collect();
        EmpiricalDist::new(&v)
    }

    #[test]
    fn ci_brackets_the_estimate() {
        let d = dist(10.0);
        let ci = median_ci(&d, 200, 0.95, 7);
        assert!(ci.contains(ci.estimate), "{ci:?}");
        assert!(ci.lo <= ci.hi);
        assert!((ci.estimate - d.median()).abs() < 1e-12);
        assert!(ci.width() < 1.0, "tight data, tight CI: {ci:?}");
    }

    #[test]
    fn ci_is_deterministic_per_seed() {
        let d = dist(5.0);
        let a = mean_ci(&d, 100, 0.9, 3);
        let b = mean_ci(&d, 100, 0.9, 3);
        assert_eq!(a, b);
        let c = mean_ci(&d, 100, 0.9, 4);
        assert!(a != c || a.width() == 0.0);
    }

    #[test]
    fn separated_distributions_are_distinguishable() {
        let a = dist(10.0);
        let b = dist(20.0);
        assert!(distinguishable(&a, &b, EmpiricalDist::median, 100, 0.95, 1));
    }

    #[test]
    fn identical_distributions_are_not_distinguishable() {
        let a = dist(10.0);
        let b = dist(10.0);
        assert!(!distinguishable(
            &a,
            &b,
            EmpiricalDist::median,
            100,
            0.95,
            2
        ));
    }

    #[test]
    fn worker_count_does_not_change_the_interval() {
        let d = dist(3.0);
        let serial = bootstrap_ci_with_workers(&d, EmpiricalDist::median, 128, 0.95, 11, 1);
        for workers in [2, 3, 8, 128] {
            let par = bootstrap_ci_with_workers(&d, EmpiricalDist::median, 128, 0.95, 11, workers);
            assert_eq!(serial, par, "workers={workers}");
        }
        // And the auto-dispatching entry point agrees too.
        assert_eq!(serial, median_ci(&d, 128, 0.95, 11));
    }

    #[test]
    fn resample_streams_are_not_shifted_copies() {
        // Adjacent resamples must draw unrelated index sequences; a
        // shifted-stream bug would make stream r+1 reproduce stream r
        // offset by one draw.
        let a: Vec<u64> = {
            let mut s = resample_stream(42, 0);
            (0..16).map(|_| s.next()).collect()
        };
        let b: Vec<u64> = {
            let mut s = resample_stream(42, 1);
            (0..16).map(|_| s.next()).collect()
        };
        assert_ne!(a, b);
        assert_ne!(a[1..], b[..15], "stream 1 is stream 0 shifted");
        assert_ne!(b[1..], a[..15], "stream 0 is stream 1 shifted");
    }

    #[test]
    fn wider_level_wider_interval() {
        let d = dist(0.0);
        let narrow = mean_ci(&d, 300, 0.5, 9);
        let wide = mean_ci(&d, 300, 0.99, 9);
        assert!(wide.width() >= narrow.width());
    }

    #[test]
    fn more_data_tighter_interval() {
        let small = EmpiricalDist::new(&(0..20).map(|i| (i % 7) as f64).collect::<Vec<_>>());
        let big = EmpiricalDist::new(&(0..2000).map(|i| (i % 7) as f64).collect::<Vec<_>>());
        let ci_small = mean_ci(&small, 200, 0.95, 5);
        let ci_big = mean_ci(&big, 200, 0.95, 5);
        assert!(ci_big.width() < ci_small.width());
    }
}
