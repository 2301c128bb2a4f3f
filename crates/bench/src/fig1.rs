//! Figure 1: IOR, 1024 tasks × 512 MB × 5 barriered phases on Franklin.
//!
//! Panels: (a) the trace diagram with its five synchronous bands, (b) the
//! aggregate write rate with a high cache-fill plateau then a sustained
//! plateau and tail, (c) the completion-time histogram with modes at the
//! fair-share time T and its harmonics T/2, T/4 — reproduced on a second
//! "file system" (same hardware, different run) to show the distribution
//! is stable while the trace is not. The ladder is `diagnose`'s
//! `HarmonicModes` finding on the writes, so the figure prints what the
//! diagnoser concludes.

use crate::util::dist_of;
use pio_core::distance::ks_statistic;
use pio_core::empirical::EmpiricalDist;
use pio_core::modes::{find_modes, HarmonicStructure, Mode};
use pio_core::rates::{write_rate_curve, RateCurve};
use pio_core::{diagnose, Finding};
use pio_fault::FaultPlan;
use pio_mpi::{RunConfig, Runner};
use pio_trace::{CallKind, Trace};
use pio_workloads::presets::fig1_ior;

/// Everything Figure 1 shows.
pub struct Fig1Result {
    /// Run time of the scratch run (s).
    pub runtime_s: f64,
    /// Aggregate write-rate curve (panel b).
    pub rate_curve: RateCurve,
    /// Per-call write durations of the scratch run (panel c).
    pub write_dist: EmpiricalDist,
    /// Same for the scratch2 run.
    pub write_dist2: EmpiricalDist,
    /// Detected histogram modes.
    pub modes: Vec<Mode>,
    /// The harmonic ladder of `diagnose`'s `HarmonicModes` finding on
    /// the writes, if it raised one.
    pub harmonics: Option<HarmonicStructure>,
    /// KS distance between the two runs' distributions (reproducibility).
    pub ks_between_runs: f64,
    /// Fair-share completion time T = block / (fabric / tasks), seconds.
    pub fair_share_time_s: f64,
    /// The scratch trace (for the diagram).
    pub trace: Trace,
}

/// Run the Figure 1 experiment at `scale` (1 = the paper's size), under
/// `fault` if given (injected into both the scratch and scratch2 runs,
/// so the reproducibility comparison stays like-for-like).
pub fn run(scale: u32, seed: u64, fault: Option<FaultPlan>) -> Fig1Result {
    let exp = fig1_ior(seed, false, scale);
    let exp2 = fig1_ior(seed + 1, true, scale);
    let tasks = exp.job.ranks();
    let block = exp.job.total_bytes_written() as f64 / tasks as f64 / 5.0;
    let fair = block / (exp.run.fs.fabric_bw / tasks as f64);

    let cfg = |run: &RunConfig| RunConfig {
        fault: fault.clone(),
        ..run.clone()
    };
    let res = Runner::new(&exp.job, cfg(&exp.run))
        .execute_one()
        .expect("fig1 run");
    let res2 = Runner::new(&exp2.job, cfg(&exp2.run))
        .execute_one()
        .expect("fig1 scratch2 run");

    let write_dist = dist_of(res.trace(), CallKind::Write).expect("writes");
    let write_dist2 = dist_of(res2.trace(), CallKind::Write).expect("writes");
    let modes = find_modes(&write_dist);
    let harmonics = diagnose(res.trace()).into_iter().find_map(|f| match f {
        Finding::HarmonicModes {
            kind: CallKind::Write,
            fundamental,
            orders,
        } => Some(HarmonicStructure {
            fundamental,
            orders,
        }),
        _ => None,
    });
    let ks = ks_statistic(&write_dist, &write_dist2);
    let dt = (res.wall_secs() / 200.0).max(1e-3);

    Fig1Result {
        runtime_s: res.wall_secs(),
        rate_curve: write_rate_curve(res.trace(), dt),
        write_dist,
        write_dist2,
        modes,
        harmonics,
        ks_between_runs: ks,
        fair_share_time_s: fair,
        trace: res.into_trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_fig1_shows_the_papers_structure() {
        // 1/16 scale: 64 tasks × 32 MB × 5 phases.
        let r = run(16, 42, None);
        assert!(r.runtime_s > 0.0);
        // Five write phases → 5 write calls per task.
        assert_eq!(r.write_dist.n() as u32, 64 * 5);
        // The distributions of the two "file systems" are close while the
        // traces are not identical (the paper's reproducibility claim).
        assert!(
            r.ks_between_runs < 0.25,
            "distribution should reproduce: KS {}",
            r.ks_between_runs
        );
        // Multi-modal completion times (harmonic node-discipline modes).
        assert!(
            r.modes.len() >= 2,
            "expected harmonic modes, got {:?}",
            r.modes
        );
        // The slowest mode sits near the fair-share time.
        let fundamental = r.modes.last().unwrap().location;
        assert!(
            fundamental > 0.5 * r.fair_share_time_s && fundamental < 2.5 * r.fair_share_time_s,
            "fundamental {fundamental} vs fair share {}",
            r.fair_share_time_s
        );
    }
}
