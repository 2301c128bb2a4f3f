//! Gaussian kernel density estimation — the smooth density view used for
//! mode detection.
//!
//! Grid evaluation has two paths behind one API, chosen by whether the
//! grid resolves the bandwidth (`dt ≤ h`), at any sample count:
//!
//! * **linear-binned** (`dt ≤ h`) — samples are first spread onto the
//!   grid with linear weights, then the binned masses are convolved with
//!   a precomputed kernel table truncated where the Gaussian underflows,
//!   O(n + points·K) with K = truncation radius in grid steps. This is
//!   the standard linear-binning approximation; with bins no wider than
//!   the bandwidth its error is far below statistical noise (bounded by
//!   the accuracy test against the exact path). The convolution
//!   evaluates `LANES` grid points per pass and is bit-identical to
//!   evaluating one point at a time (see `convolve`).
//! * **exact** (`dt > h`) — bit-identical to evaluating [`Kde::density`]
//!   at every grid point, but each point sums only the samples within
//!   `ZERO_TERM_BW` bandwidths of it: O(points·(log n + w)) for a window
//!   of w samples, O(n·points) at worst. Always available as
//!   [`Kde::grid_exact`]; a grid coarser than the bandwidth would alias
//!   the binned masses, so it takes this path.

use crate::empirical::EmpiricalDist;

/// Half-width, in bandwidths, of the window of samples an exact grid
/// point sums. A sample further away contributes
/// `exp(-0.5·z²) < exp(-800)`, which is below half the smallest
/// subnormal and so rounds to exactly +0.0; adding +0.0 to the
/// non-negative running sum leaves it unchanged. Skipping those terms is
/// therefore exact, not an approximation.
const ZERO_TERM_BW: f64 = 40.0;

/// Kernel truncation radius in bandwidths: `exp(-0.5·8.5²) ≈ 2e-16`,
/// below f64 relative precision of the peak.
const KERNEL_CUTOFF_BW: f64 = 8.5;

/// Grid points the binned convolution evaluates together in one pass
/// over the kernel table.
const LANES: usize = 8;

/// A Gaussian KDE over a sample set (borrowed from its
/// [`EmpiricalDist`] — construction copies nothing).
#[derive(Debug, Clone)]
pub struct Kde<'a> {
    samples: &'a [f64],
    bandwidth: f64,
}

impl<'a> Kde<'a> {
    /// Silverman's rule-of-thumb bandwidth
    /// `0.9·min(σ, IQR/1.34)·n^(−1/5)` (floored to a tiny positive value
    /// for degenerate data).
    pub fn silverman_bandwidth(dist: &EmpiricalDist) -> f64 {
        let sigma = dist.std_dev();
        let iqr = dist.iqr();
        let n = dist.n() as f64;
        let spread = if iqr > 0.0 {
            sigma.min(iqr / 1.34)
        } else {
            sigma
        };
        (0.9 * spread * n.powf(-0.2)).max(1e-9 * (1.0 + dist.max().abs()))
    }

    /// KDE with the Silverman bandwidth.
    pub fn new(dist: &'a EmpiricalDist) -> Self {
        Kde {
            samples: dist.samples(),
            bandwidth: Self::silverman_bandwidth(dist),
        }
    }

    /// KDE with an explicit bandwidth.
    pub fn with_bandwidth(dist: &'a EmpiricalDist, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0);
        Kde {
            samples: dist.samples(),
            bandwidth,
        }
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `t` (exact, O(n)).
    pub fn density(&self, t: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.samples.len() as f64);
        self.samples
            .iter()
            .map(|&x| {
                let z = (t - x) / h;
                (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            * norm
    }

    /// The grid span: data range padded by 3 bandwidths on both sides.
    fn span(&self) -> (f64, f64) {
        let lo = self.samples.first().copied().unwrap_or(0.0) - 3.0 * self.bandwidth;
        let hi = self.samples.last().copied().unwrap_or(1.0) + 3.0 * self.bandwidth;
        (lo, hi)
    }

    /// Density evaluated on a uniform grid of `points` spanning the data
    /// (padded by 3 bandwidths on both sides). Returns `(t, f̂(t))` pairs.
    ///
    /// Dispatches to the linear-binned evaluation whenever the grid
    /// resolves the bandwidth (`dt ≤ h`), whatever the sample count;
    /// a coarser grid falls back to [`Kde::grid_exact`].
    pub fn grid(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        let (lo, hi) = self.span();
        let dt = (hi - lo) / (points - 1) as f64;
        if dt <= self.bandwidth && dt > 0.0 {
            self.grid_binned(points, lo, hi)
        } else {
            self.grid_exact(points)
        }
    }

    /// Exact grid evaluation: every value is bit-identical to
    /// [`Kde::density`] at the same `t`. Reference implementation for the
    /// binned path's accuracy bound; callers that need exactness at any
    /// size can use it directly.
    ///
    /// The samples are sorted and `(t − x)/h` is monotone in `x`, so the
    /// terms with `|z| ≤ ZERO_TERM_BW` — the only ones that can be
    /// non-zero — form one contiguous run, found by two binary searches
    /// on that same expression. The run is summed in the same ascending
    /// order as `density`'s full sum: the skipped terms are all +0.0, so
    /// both sums see the same non-zero terms in the same order. An empty
    /// run yields +0.0, which is what the full sum of zero terms gives
    /// (an empty `f64` sum is −0.0, so that case is written out).
    pub fn grid_exact(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        let (lo, hi) = self.span();
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.samples.len() as f64);
        (0..points)
            .map(|i| {
                let t = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                let from = self
                    .samples
                    .partition_point(|&x| (t - x) / h > ZERO_TERM_BW);
                let to = self
                    .samples
                    .partition_point(|&x| (t - x) / h >= -ZERO_TERM_BW);
                let window = &self.samples[from..to];
                let sum = if window.is_empty() {
                    0.0
                } else {
                    window
                        .iter()
                        .map(|&x| {
                            let z = (t - x) / h;
                            (-0.5 * z * z).exp()
                        })
                        .sum::<f64>()
                };
                (t, sum * norm)
            })
            .collect()
    }

    /// Linear-binned grid evaluation, O(n + points·K).
    fn grid_binned(&self, points: usize, lo: f64, hi: f64) -> Vec<(f64, f64)> {
        let (mass, kernel) = self.binned_terms(points, lo, hi);
        let (h, n) = (self.bandwidth, self.samples.len());
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * n as f64);
        convolve(&mass, &kernel)
            .into_iter()
            .enumerate()
            .map(|(g, acc)| {
                let t = lo + (hi - lo) * g as f64 / (points - 1) as f64;
                (t, acc * norm)
            })
            .collect()
    }

    /// The binned path's two inputs: the sample mass on each grid point
    /// and the kernel table `kernel[j]` for an offset of `j` grid steps.
    fn binned_terms(&self, points: usize, lo: f64, hi: f64) -> (Vec<f64>, Vec<f64>) {
        let h = self.bandwidth;
        let dt = (hi - lo) / (points - 1) as f64;

        // 1) Spread each sample across its two bracketing grid points
        //    with linear weights (mass is conserved exactly).
        let mut mass = vec![0.0f64; points];
        for &x in self.samples {
            let pos = (x - lo) / dt;
            // Samples sit 3 bandwidths inside the span, but clamp anyway
            // against floating-point edge effects.
            let i = (pos.floor() as usize).min(points - 2);
            let frac = (pos - i as f64).clamp(0.0, 1.0);
            mass[i] += 1.0 - frac;
            mass[i + 1] += frac;
        }

        // 2) Gaussian kernel table on grid offsets, truncated where the
        //    tail underflows.
        let kmax = ((KERNEL_CUTOFF_BW * h / dt).ceil() as usize).min(points - 1);
        let kernel = (0..=kmax)
            .map(|j| {
                let z = j as f64 * dt / h;
                (-0.5 * z * z).exp()
            })
            .collect();
        (mass, kernel)
    }
}

/// Convolves the binned `mass` with the truncated `kernel`:
/// `out[g] = Σ mass[b]·kernel[|b − g|]` over the grid points `b` within
/// `kmax = kernel.len() − 1` steps of `g`, each sum taken in ascending `b`.
///
/// The masses are copied into a buffer with `kmax` zeros on either side
/// (plus the last pass's spare lanes), and the kernel is unfolded into
/// the symmetric table `sym[j] = kernel[|j − kmax|]`. Output `g` is then
/// `Σ_j padded[g + j]·sym[j]` over `j = 0..=2·kmax`, the same expression
/// for every `g`, so `LANES` adjacent outputs advance through `sym`
/// together. Each output adds the terms of its window `b = g − kmax ..=
/// g + kmax` in ascending order, exactly as a per-point loop over the
/// window clipped to the grid does; the cells outside the grid add
/// `0.0·sym[j] = +0.0`, and adding +0.0 to a running sum of non-negative
/// terms (which starts at +0.0) leaves its bits unchanged. So every
/// output is bit-identical to the per-point loop's.
fn convolve(mass: &[f64], kernel: &[f64]) -> Vec<f64> {
    let points = mass.len();
    let kmax = kernel.len() - 1;
    let sym: Vec<f64> = (0..=2 * kmax).map(|j| kernel[j.abs_diff(kmax)]).collect();
    let passes = points.div_ceil(LANES);
    let mut padded = vec![0.0f64; passes * LANES + 2 * kmax];
    padded[kmax..kmax + points].copy_from_slice(mass);

    let mut out = Vec::with_capacity(passes * LANES);
    for pass in 0..passes {
        let window = &padded[pass * LANES..pass * LANES + LANES + 2 * kmax];
        let mut acc = [0.0f64; LANES];
        for (j, &k) in sym.iter().enumerate() {
            let m: &[f64; LANES] = window[j..j + LANES]
                .try_into()
                .expect("a slice of LANES cells");
            for (a, &m) in acc.iter_mut().zip(m) {
                *a += m * k;
            }
        }
        out.extend_from_slice(&acc);
    }
    out.truncate(points);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_peaks_at_the_data() {
        let d = EmpiricalDist::new(&[1.0, 1.1, 0.9, 1.05, 0.95, 5.0, 5.1, 4.9]);
        let kde = Kde::with_bandwidth(&d, 0.3);
        // Density near the clusters beats density in the gap.
        assert!(kde.density(1.0) > kde.density(3.0) * 3.0);
        assert!(kde.density(5.0) > kde.density(3.0) * 3.0);
    }

    #[test]
    fn grid_integrates_to_one() {
        let samples: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.618).fract() * 10.0)
            .collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::new(&d);
        let grid = kde.grid(512);
        let dt = grid[1].0 - grid[0].0;
        let mass: f64 = grid.iter().map(|&(_, f)| f * dt).sum();
        assert!((mass - 1.0).abs() < 0.02, "{mass}");
    }

    #[test]
    fn binned_grid_integrates_to_one() {
        // Large sample → binned path; mass must still be conserved.
        let samples: Vec<f64> = (0..5000)
            .map(|i| (i as f64 * 0.618).fract() * 10.0)
            .collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::new(&d);
        let grid = kde.grid(512);
        let dt = grid[1].0 - grid[0].0;
        let mass: f64 = grid.iter().map(|&(_, f)| f * dt).sum();
        assert!((mass - 1.0).abs() < 0.02, "{mass}");
    }

    #[test]
    fn binned_grid_matches_exact_within_tolerance() {
        // Trimodal samples on a fine grid take the binned path at any
        // size; the linear-binning approximation must track the exact
        // KDE to a small fraction of its peak everywhere on the grid.
        for n in [32, 100, 256, 3000] {
            let samples: Vec<f64> = (0..n)
                .map(|i| {
                    let u = (i as f64 * 0.6180339887).fract();
                    let mode = i % 3;
                    10.0 + mode as f64 * 5.0 + (u - 0.5) * 2.0
                })
                .collect();
            let d = EmpiricalDist::new(&samples);
            let kde = Kde::new(&d);
            let binned = kde.grid(512);
            let exact = kde.grid_exact(512);
            assert_eq!(binned.len(), exact.len());
            assert!(binned[1].0 - binned[0].0 <= kde.bandwidth(), "n={n}");
            let peak = exact.iter().map(|&(_, f)| f).fold(0.0, f64::max);
            assert!(peak > 0.0);
            for (&(tb, fb), &(te, fe)) in binned.iter().zip(&exact) {
                assert!((tb - te).abs() < 1e-9, "grid abscissae differ");
                assert!(
                    (fb - fe).abs() <= 2e-3 * peak,
                    "n={n}: binned {fb} vs exact {fe} at t={tb} (peak {peak})"
                );
            }
        }
    }

    #[test]
    fn resolved_grids_bin_at_any_sample_size() {
        for n in [32, 100] {
            let samples: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 4.0).collect();
            let d = EmpiricalDist::new(&samples);
            let kde = Kde::new(&d);
            let (lo, hi) = kde.span();
            assert!((hi - lo) / 255.0 <= kde.bandwidth(), "n={n}: dt > h");
            let grid = kde.grid(256);
            let binned = kde.grid_binned(256, lo, hi);
            assert_eq!(grid.len(), binned.len());
            for (i, (&(tg, fg), &(tb, fb))) in grid.iter().zip(&binned).enumerate() {
                assert_eq!(tg.to_bits(), tb.to_bits(), "n={n}, point {i}: abscissa");
                assert_eq!(fg.to_bits(), fb.to_bits(), "n={n}, point {i}: {fg} vs {fb}");
            }
        }
    }

    #[test]
    fn coarse_grids_stay_exact_bit_for_bit() {
        // 40 samples near 1 with one far outlier: the span is ~1,000
        // bandwidths, so a 64-point grid steps over several of them.
        let samples: Vec<f64> = (0..40)
            .map(|i| {
                if i == 39 {
                    250.0
                } else {
                    1.0 + (i as f64 * 0.618).fract()
                }
            })
            .collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::new(&d);
        let grid = kde.grid(64);
        let dt = grid[1].0 - grid[0].0;
        assert!(dt > kde.bandwidth(), "dt {dt} vs h {}", kde.bandwidth());
        assert_eq!(grid, kde.grid_exact(64));
        assert_grid_is_density_bitwise(&kde, &grid);
    }

    /// Every exact grid value must carry the same bits as `density` at
    /// the same abscissa.
    fn assert_grid_is_density_bitwise(kde: &Kde, grid: &[(f64, f64)]) {
        for (i, &(t, f)) in grid.iter().enumerate() {
            assert_eq!(
                f.to_bits(),
                kde.density(t).to_bits(),
                "point {i} (t={t}): grid {f} vs density {}",
                kde.density(t)
            );
        }
    }

    #[test]
    fn exact_grid_is_density_bit_for_bit() {
        // Heavy-tailed (Pareto-like, ~1..8000 around a bandwidth well
        // under 1): most grid points see only a few samples' windows.
        let heavy: Vec<f64> = (0..400)
            .map(|i| ((i as f64 + 0.5) / 400.0).powf(-1.5))
            .collect();
        // Compact: every sample lies in every point's window.
        let compact: Vec<f64> = (0..300)
            .map(|i| 10.0 + (i as f64 * 0.618).fract())
            .collect();
        for samples in [heavy, compact] {
            let d = EmpiricalDist::new(&samples);
            for kde in [
                Kde::new(&d),
                Kde::with_bandwidth(&d, 0.5 * Kde::new(&d).bandwidth()),
            ] {
                for points in [64, 512] {
                    assert_grid_is_density_bitwise(&kde, &kde.grid_exact(points));
                }
            }
        }
    }

    #[test]
    fn large_sample_on_a_coarse_grid_stays_exact_bit_for_bit() {
        // 768 reads: a tight bulk near 10 ms plus retry timeouts out to
        // 2 s, spanning thousands of bandwidths — the grid step exceeds
        // the bandwidth, so `grid` takes the exact path at any n.
        let samples: Vec<f64> = (0..768)
            .map(|i| {
                if i % 11 == 0 {
                    0.5 + (i % 4) as f64 * 0.5
                } else {
                    0.01 + (i % 7) as f64 * 1e-6
                }
            })
            .collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::new(&d);
        let grid = kde.grid(512);
        let dt = grid[1].0 - grid[0].0;
        assert!(dt > kde.bandwidth());
        assert_eq!(grid, kde.grid_exact(512));
        assert_grid_is_density_bitwise(&kde, &grid);
    }

    #[test]
    fn empty_windows_yield_positive_zero() {
        // Two clusters a million bandwidths apart: the grid points
        // between them have no sample within the window and must read
        // exactly +0.0, as the full sum of underflowed terms does.
        let samples: Vec<f64> = (0..64)
            .map(|i| {
                if i < 32 {
                    i as f64 * 1e-3
                } else {
                    1e3 + i as f64 * 1e-3
                }
            })
            .collect();
        let d = EmpiricalDist::new(&samples);
        let kde = Kde::with_bandwidth(&d, 1e-3);
        let grid = kde.grid_exact(64);
        let empty: Vec<_> = grid
            .iter()
            .filter(|&&(t, _)| t > 100.0 && t < 900.0)
            .collect();
        assert!(!empty.is_empty());
        for &&(t, f) in &empty {
            assert_eq!(f.to_bits(), 0.0f64.to_bits(), "t={t}: {f}");
        }
        assert_grid_is_density_bitwise(&kde, &grid);
    }

    #[test]
    fn terms_beyond_the_window_underflow_to_zero() {
        // The cutoff's premise: the largest skipped term is exactly +0.0.
        let edge = (-0.5f64 * ZERO_TERM_BW * ZERO_TERM_BW).exp();
        assert_eq!(edge, 0.0);
        assert_eq!(edge.to_bits(), 0.0f64.to_bits());
        assert_eq!((-0.5f64 * 40.0 * 40.0).exp(), 0.0);
    }

    #[test]
    fn explicit_bandwidth_respected() {
        let d = EmpiricalDist::new(&[0.0, 10.0]);
        let wide = Kde::with_bandwidth(&d, 10.0);
        let narrow = Kde::with_bandwidth(&d, 0.1);
        // Narrow KDE sees two separated bumps → low density midway.
        assert!(narrow.density(5.0) < wide.density(5.0));
        assert_eq!(wide.bandwidth(), 10.0);
    }

    #[test]
    fn degenerate_data_does_not_blow_up() {
        let d = EmpiricalDist::new(&[2.0, 2.0, 2.0]);
        let kde = Kde::new(&d);
        assert!(kde.bandwidth() > 0.0);
        assert!(kde.density(2.0).is_finite());
    }

    #[test]
    fn degenerate_large_sample_grid_is_finite() {
        // All-equal samples: the bandwidth is floored tiny and the grid
        // spans only the 6 bandwidths around the one value; nothing may
        // NaN on either path.
        let d = EmpiricalDist::new(&vec![2.0; 1000]);
        let kde = Kde::new(&d);
        for (_, f) in kde.grid(64).into_iter().chain(kde.grid_exact(64)) {
            assert!(f.is_finite());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The binned convolution one grid point at a time: each output sums
    /// its window clipped to the grid, in ascending order. `convolve`
    /// must match it bit for bit.
    fn convolve_per_point(mass: &[f64], kernel: &[f64]) -> Vec<f64> {
        let points = mass.len();
        let kmax = kernel.len() - 1;
        (0..points)
            .map(|g| {
                let from = g.saturating_sub(kmax);
                let to = (g + kmax).min(points - 1);
                let mut acc = 0.0;
                for (b, &m) in mass[from..=to].iter().enumerate() {
                    acc += m * kernel[(from + b).abs_diff(g)];
                }
                acc
            })
            .collect()
    }

    /// A bandwidth for which the binned kernel table reaches about `kmax`
    /// grid steps on a `points` grid over data of the given range: solves
    /// `8.5·h / dt = kmax − 0.5` with `dt = (range + 6h) / (points − 1)`.
    fn bandwidth_for(kmax: usize, points: usize, range: f64) -> f64 {
        let r = (kmax as f64 - 0.5) / KERNEL_CUTOFF_BW;
        let range = if range > 0.0 { range } else { 1.0 };
        r * range / ((points - 1) as f64 - 6.0 * r)
    }

    /// Grid sizes on both sides of lane multiples, from the smallest grid.
    const POINTS: [usize; 9] = [2, 3, 7, 8, 9, 255, 256, 511, 512];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The `LANES`-wide convolution is bit-identical to the
        /// per-point loop, for every grid size around a lane multiple
        /// and kernel widths from one step to the whole grid.
        #[test]
        fn lane_convolution_is_the_per_point_loop_bit_for_bit(
            u in proptest::collection::vec(1e-6f64..1.0, 2..2000),
            heavy in 0u8..2,
            points_pick in 0usize..POINTS.len(),
            kmax_exp in 0.0f64..1.0,
        ) {
            // Heavy-tailed (Pareto-like, 1 to 1e9) or compact (10..11).
            let samples: Vec<f64> = u
                .iter()
                .map(|&u| if heavy == 1 { u.powf(-1.5) } else { 10.0 + u })
                .collect();
            let points = POINTS[points_pick];
            let d = EmpiricalDist::new(&samples);
            // Log-uniform over 1..=points − 1, so narrow kernels on wide
            // grids (the common case) are drawn as often as wide ones.
            let kmax = ((points - 1) as f64).powf(kmax_exp).round().max(1.0) as usize;
            let h = bandwidth_for(kmax, points, d.max() - d.min());
            let kde = Kde::with_bandwidth(&d, h);
            let (lo, hi) = kde.span();
            let (mass, kernel) = kde.binned_terms(points, lo, hi);
            prop_assert!((1..points).contains(&(kernel.len() - 1)));
            let lanes = convolve(&mass, &kernel);
            let reference = convolve_per_point(&mass, &kernel);
            prop_assert_eq!(lanes.len(), points);
            for (g, (a, b)) in lanes.iter().zip(&reference).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "point {}: {} vs {}", g, a, b);
            }
        }
    }
}
