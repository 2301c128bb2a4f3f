//! Mode (peak) detection and harmonic-structure recognition.
//!
//! The paper reads distributions by their modes: Figure 1(c)'s three
//! peaks sit at completion times T, T/2 and T/4 — "the second and fourth
//! harmonic" of the fair-share rate — implying that one or two tasks per
//! node monopolized the node's I/O. `find_modes` extracts peaks from a
//! KDE-smoothed density; `harmonic_structure` tests whether the peak
//! locations form that ×2 ladder.
//!
//! Modes are found one way, with one setting: every caller — batch
//! `diagnose`, the stream diagnoser's window grids, the figure drivers,
//! the ablations and the reports — reads the constants below, so a
//! figure's ladder is the diagnoser's finding.

use crate::empirical::EmpiricalDist;
use crate::kde::Kde;

/// KDE grid points `find_modes` evaluates the density on.
pub const MODE_GRID_POINTS: usize = 512;

/// A peak lower than this fraction of the tallest one is not a mode.
pub const MODE_HEIGHT_FRAC: f64 = 0.10;

/// Relative error within which a mode counts as sitting at T/k.
pub const HARMONIC_TOL: f64 = 0.18;

/// Relative location error within which modes of different runs are
/// the same mode (`Ensemble::stable_modes`).
pub const STABLE_MODE_TOL: f64 = 0.15;

/// One detected mode of a distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mode {
    /// Location of the peak.
    pub location: f64,
    /// Density height at the peak.
    pub height: f64,
    /// Approximate probability mass attributed to the peak (its basin).
    pub mass: f64,
}

/// Find modes of `dist` by KDE smoothing on a [`MODE_GRID_POINTS`]
/// grid. Peaks lower than [`MODE_HEIGHT_FRAC`] of the tallest peak are
/// dropped. Returned modes are sorted by location.
pub fn find_modes(dist: &EmpiricalDist) -> Vec<Mode> {
    // Undersmooth relative to Silverman: mode finding on multimodal data
    // needs to resolve peaks Silverman's unimodal-optimal bandwidth blurs.
    let bw = 0.5 * Kde::silverman_bandwidth(dist);
    let kde = Kde::with_bandwidth(dist, bw.max(f64::MIN_POSITIVE));
    let grid = kde.grid(MODE_GRID_POINTS);
    find_modes_on_grid(&grid)
}

/// Mode detection over an explicit `(t, density)` grid (the stream
/// diagnoser's log-histogram windows, and tests).
pub fn find_modes_on_grid(grid: &[(f64, f64)]) -> Vec<Mode> {
    if grid.len() < 3 {
        return Vec::new();
    }
    // Local maxima.
    let mut peaks: Vec<usize> = Vec::new();
    for i in 1..grid.len() - 1 {
        if grid[i].1 > grid[i - 1].1 && grid[i].1 >= grid[i + 1].1 {
            peaks.push(i);
        }
    }
    let tallest = peaks.iter().map(|&i| grid[i].1).fold(0.0f64, f64::max);
    if tallest <= 0.0 {
        return Vec::new();
    }
    peaks.retain(|&i| grid[i].1 >= MODE_HEIGHT_FRAC * tallest);

    // Prominence filter: two adjacent peaks separated by a shallow valley
    // (valley ≥ 80% of the shorter peak) are ripples of one mode — keep
    // the taller. Without this a numerically flat density fragments into
    // dozens of micro-modes.
    const VALLEY_FRAC: f64 = 0.8;
    loop {
        let mut merged = false;
        let mut k = 0;
        while k + 1 < peaks.len() {
            let (a, b) = (peaks[k], peaks[k + 1]);
            let valley = (a..=b).map(|i| grid[i].1).fold(f64::INFINITY, f64::min);
            let shorter = grid[a].1.min(grid[b].1);
            if valley >= VALLEY_FRAC * shorter {
                let drop = if grid[a].1 < grid[b].1 { k } else { k + 1 };
                peaks.remove(drop);
                merged = true;
            } else {
                k += 1;
            }
        }
        if !merged {
            break;
        }
    }

    // Basin boundaries: minima between consecutive surviving peaks.
    let dt = grid[1].0 - grid[0].0;
    let mut modes = Vec::new();
    for (k, &pi) in peaks.iter().enumerate() {
        let left = if k == 0 {
            0
        } else {
            // Minimum between previous peak and this one.
            let prev = peaks[k - 1];
            (prev..=pi)
                .min_by(|&a, &b| grid[a].1.total_cmp(&grid[b].1))
                .unwrap_or(pi)
        };
        let right = if k + 1 == peaks.len() {
            grid.len() - 1
        } else {
            let next = peaks[k + 1];
            (pi..=next)
                .min_by(|&a, &b| grid[a].1.total_cmp(&grid[b].1))
                .unwrap_or(pi)
        };
        let mass: f64 = grid[left..=right].iter().map(|&(_, f)| f * dt).sum();
        modes.push(Mode {
            location: grid[pi].0,
            height: grid[pi].1,
            mass,
        });
    }
    modes
}

/// A recognized harmonic ladder among mode locations.
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicStructure {
    /// The fundamental (slowest) mode location — "T", the fair-share time.
    pub fundamental: f64,
    /// Harmonic orders found: 1 for T, 2 for T/2, 4 for T/4, …
    pub orders: Vec<u32>,
}

/// Test whether `modes` (sorted by location) contain a fundamental T plus
/// at least one mode near T/k for k ∈ {2, 3, 4, 8} (within
/// [`HARMONIC_TOL`] relative error). The paper's R / R/2 / R/4
/// fingerprint corresponds to orders `[1, 2, 4]`.
pub fn harmonic_structure(modes: &[Mode]) -> Option<HarmonicStructure> {
    if modes.len() < 2 {
        return None;
    }
    let fundamental = modes.last().unwrap().location;
    if fundamental <= 0.0 {
        return None;
    }
    let mut orders = vec![1u32];
    for m in &modes[..modes.len() - 1] {
        for order in [2u32, 3, 4, 8] {
            let expect = fundamental / order as f64;
            if (m.location - expect).abs() <= HARMONIC_TOL * expect {
                orders.push(order);
                break;
            }
        }
    }
    if orders.len() >= 2 {
        orders.sort_unstable();
        orders.dedup();
        Some(HarmonicStructure {
            fundamental,
            orders,
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three clusters at 8, 16, 32 — the IOR harmonic shape.
    fn harmonic_samples() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..60 {
            v.push(32.0 + (i % 7) as f64 * 0.1);
        }
        for i in 0..30 {
            v.push(16.0 + (i % 5) as f64 * 0.08);
        }
        for i in 0..15 {
            v.push(8.0 + (i % 3) as f64 * 0.06);
        }
        v
    }

    #[test]
    fn finds_three_modes() {
        let d = EmpiricalDist::new(&harmonic_samples());
        let modes = find_modes(&d);
        assert_eq!(modes.len(), 3, "{modes:?}");
        assert!((modes[0].location - 8.0).abs() < 1.0);
        assert!((modes[1].location - 16.0).abs() < 1.0);
        assert!((modes[2].location - 32.0).abs() < 1.0);
        // Mass ordering follows sample counts.
        assert!(modes[2].mass > modes[1].mass);
        assert!(modes[1].mass > modes[0].mass);
    }

    #[test]
    fn recognizes_the_harmonic_ladder() {
        let d = EmpiricalDist::new(&harmonic_samples());
        let modes = find_modes(&d);
        let h = harmonic_structure(&modes).expect("harmonics");
        assert!((h.fundamental - 32.0).abs() < 1.0);
        assert_eq!(h.orders, vec![1, 2, 4]);
    }

    #[test]
    fn unimodal_has_no_harmonics() {
        let samples: Vec<f64> = (0..200)
            .map(|i| 10.0 + ((i * 37) % 100) as f64 * 0.004)
            .collect();
        let d = EmpiricalDist::new(&samples);
        let modes = find_modes(&d);
        assert_eq!(modes.len(), 1, "{modes:?}");
        assert!(harmonic_structure(&modes).is_none());
    }

    #[test]
    fn non_harmonic_bimodal_rejected() {
        // Peaks at 10 and 13: ratio 1.3, no harmonic relation.
        let mut samples = Vec::new();
        for i in 0..100 {
            samples.push(10.0 + (i % 5) as f64 * 0.02);
            samples.push(13.0 + (i % 5) as f64 * 0.02);
        }
        let d = EmpiricalDist::new(&samples);
        let modes = find_modes(&d);
        assert!(modes.len() >= 2);
        assert!(harmonic_structure(&modes).is_none());
    }

    #[test]
    fn min_height_filters_noise_peaks() {
        let mut samples = harmonic_samples();
        samples.push(100.0); // a lone outlier is not a mode
        let d = EmpiricalDist::new(&samples);
        assert!(find_modes(&d).iter().all(|m| m.location < 50.0));

        // Three well-separated bumps: the tallest, one just above the
        // cut and one just below it.
        let bump = |t: f64, at: f64, height: f64| height * (-(t - at).powi(2) / 0.5).exp();
        let grid: Vec<(f64, f64)> = (0..400)
            .map(|i| {
                let t = i as f64 * 0.1;
                let f = bump(t, 5.0, 1.0)
                    + bump(t, 20.0, 1.05 * MODE_HEIGHT_FRAC)
                    + bump(t, 35.0, 0.95 * MODE_HEIGHT_FRAC);
                (t, f)
            })
            .collect();
        let modes = find_modes_on_grid(&grid);
        assert_eq!(modes.len(), 2, "{modes:?}");
        assert!((modes[0].location - 5.0).abs() < 1e-9, "{modes:?}");
        assert!((modes[1].location - 20.0).abs() < 1e-9, "{modes:?}");
    }

    /// One setting for every caller: batch diagnosis, the stream
    /// diagnoser's windows, the figure drivers and the reports. Pin it
    /// so a drive-by edit cannot re-tune all of them at once.
    #[test]
    fn mode_settings_are_pinned() {
        assert_eq!(MODE_GRID_POINTS, 512);
        assert_eq!(MODE_HEIGHT_FRAC, 0.10);
        assert_eq!(HARMONIC_TOL, 0.18);
        assert_eq!(STABLE_MODE_TOL, 0.15);
    }

    #[test]
    fn grid_mode_mass_sums_to_about_one() {
        let d = EmpiricalDist::new(&harmonic_samples());
        let modes = find_modes(&d);
        let total: f64 = modes.iter().map(|m| m.mass).sum();
        assert!(total > 0.9 && total < 1.1, "{total}");
    }

    #[test]
    fn degenerate_grids_are_safe() {
        assert!(find_modes_on_grid(&[]).is_empty());
        assert!(find_modes_on_grid(&[(0.0, 1.0), (1.0, 2.0)]).is_empty());
        let flat: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        assert!(find_modes_on_grid(&flat).is_empty());
    }
}
