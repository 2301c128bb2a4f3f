//! Figure 5: MADbench on Franklin before vs after the Lustre patch.
//!
//! (a) per-phase read progress curves deteriorating from read 4 to read
//! 8 — the insight that "lead\[s\] directly to determining the source of
//! the bottleneck"; (b) the read histogram before/after; (c) run time
//! 2200 s → 520 s, a 4.2× improvement.

use pio_core::diagnosis::{detect_deterioration_in_groups, Finding, Thresholds};
use pio_core::empirical::EmpiricalDist;
use pio_fs::FsConfig;
use pio_trace::CallKind;
use pio_workloads::madbench::MadbenchConfig;

use crate::fig4::{self, Fig4Result};

/// The before/after comparison.
pub struct Fig5Result {
    /// The buggy Franklin run.
    pub before: Fig4Result,
    /// The patched Franklin run.
    pub after: Fig4Result,
    /// Per middle-phase read distributions of the buggy run, reads 1..=8
    /// (`(read index, distribution)`).
    pub phase_reads: Vec<(u32, EmpiricalDist)>,
    /// Progressive-deterioration finding on the buggy run, if detected.
    pub deterioration: Option<Finding>,
    /// Run-time improvement factor (paper: 4.2×).
    pub speedup: f64,
}

/// Run both configurations at `scale`.
pub fn run(scale: u32, seed: u64) -> Fig5Result {
    let before = fig4::run(FsConfig::franklin(), scale, seed, None);
    let after = fig4::run(FsConfig::franklin_patched(), scale, seed, None);
    let cfg = MadbenchConfig::paper().scaled(scale);

    // Middle-phase reads, one distribution per read index.
    let mut phase_reads = Vec::new();
    for (i, samples) in cfg.middle_reads_by_index(&before.trace).iter().enumerate() {
        if !samples.is_empty() {
            phase_reads.push((i as u32 + 1, EmpiricalDist::new(samples)));
        }
    }
    let deterioration = detect_deterioration_in_groups(
        CallKind::Read,
        &cfg.middle_reads_by_index(&before.trace),
        &Thresholds::default(),
    );
    let speedup = before.runtime_s / after.runtime_s.max(1e-9);
    Fig5Result {
        before,
        after,
        phase_reads,
        deterioration,
        speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_recovers_most_of_the_runtime() {
        let r = run(16, 9);
        assert!(
            r.speedup > 1.5,
            "patch must speed MADbench up materially: {}",
            r.speedup
        );
        assert_eq!(r.after.degraded_reads, 0);
        assert!(r.before.degraded_reads > 0);
        // Later middle reads are slower than early ones in the buggy run.
        let early = &r.phase_reads[0].1;
        let late = &r.phase_reads[r.phase_reads.len() - 1].1;
        assert!(
            late.quantile(0.9) > 1.5 * early.quantile(0.9),
            "deterioration expected: early p90 {} late p90 {}",
            early.quantile(0.9),
            late.quantile(0.9)
        );
        // And the patched run's slow tail is gone.
        assert!(
            r.before.read_dist.max() > 3.0 * r.after.read_dist.max(),
            "before max {} after max {}",
            r.before.read_dist.max(),
            r.after.read_dist.max()
        );
    }
}
