//! Figure 4: MADbench at 256 tasks on Franklin (buggy read-ahead,
//! ~2200 s) and Jaguar (~275 s): trace, aggregate read/write rate, and
//! log-log duration histograms. Franklin's slow reads appear as the
//! "broad right shoulder" of the read distribution.

use crate::util::dist_of;
use pio_core::empirical::EmpiricalDist;
use pio_core::rates::{read_rate_curve, write_rate_curve, RateCurve};
use pio_core::{diagnose, Finding};
use pio_des::hist::LogHistogram;
use pio_fault::FaultPlan;
use pio_fs::FsConfig;
use pio_mpi::{RunConfig, Runner};
use pio_trace::{CallKind, Trace};
use pio_workloads::presets::fig4_madbench;

/// One platform's Figure 4 column.
pub struct Fig4Result {
    /// Platform label.
    pub platform: String,
    /// Total run time (s).
    pub runtime_s: f64,
    /// Read durations.
    pub read_dist: EmpiricalDist,
    /// Write durations.
    pub write_dist: EmpiricalDist,
    /// Log-log read histogram (panel c/f, red).
    pub read_hist: LogHistogram,
    /// Log-log write histogram (panel c/f, blue).
    pub write_hist: LogHistogram,
    /// Aggregate read rate (panel b/e).
    pub read_rate: RateCurve,
    /// Aggregate write rate (panel b/e).
    pub write_rate: RateCurve,
    /// `diagnose`'s right-shoulder finding on the reads, if it raised one.
    pub shoulder: Option<Finding>,
    /// Reads that executed on the degraded (bug) path.
    pub degraded_reads: u64,
    /// Full trace (diagram, phase analysis).
    pub trace: Trace,
}

/// Run MADbench on `platform` at `scale`, under `fault` if given.
pub fn run(platform: FsConfig, scale: u32, seed: u64, fault: Option<FaultPlan>) -> Fig4Result {
    let exp = fig4_madbench(platform, seed, scale);
    let cfg = RunConfig { fault, ..exp.run };
    let res = Runner::new(&exp.job, cfg).execute_one().expect("fig4 run");
    let read_dist = dist_of(res.trace(), CallKind::Read).expect("reads");
    let write_dist = dist_of(res.trace(), CallKind::Write).expect("writes");
    let read_hist = LogHistogram::from_samples(read_dist.samples(), 60);
    let write_hist = LogHistogram::from_samples(write_dist.samples(), 60);
    let dt = (res.wall_secs() / 200.0).max(1e-3);
    Fig4Result {
        platform: res.trace().meta.platform.clone(),
        runtime_s: res.wall_secs(),
        read_rate: read_rate_curve(res.trace(), dt),
        write_rate: write_rate_curve(res.trace(), dt),
        shoulder: diagnose(res.trace())
            .into_iter()
            .find(|f| matches!(f, Finding::RightShoulder { kind, .. } if *kind == CallKind::Read)),
        degraded_reads: res.stats.degraded_reads,
        read_dist,
        write_dist,
        read_hist,
        write_hist,
        trace: res.into_trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn franklin_vs_jaguar_shapes() {
        let franklin = run(FsConfig::franklin(), 16, 5, None);
        let jaguar = run(FsConfig::jaguar(), 16, 5, None);
        // Franklin hits the bug; Jaguar does not.
        assert!(franklin.degraded_reads > 0, "Franklin must degrade");
        assert_eq!(jaguar.degraded_reads, 0, "Jaguar must not");
        // Franklin is much slower overall.
        assert!(
            franklin.runtime_s > 1.5 * jaguar.runtime_s,
            "franklin {} vs jaguar {}",
            franklin.runtime_s,
            jaguar.runtime_s
        );
        // The shoulder detector fires on Franklin's reads only.
        assert!(franklin.shoulder.is_some(), "shoulder expected");
        // Write distributions are comparatively similar across platforms
        // (the paper: "the two write distributions display similar
        // performance characteristics").
        let w_ratio = franklin.write_dist.median() / jaguar.write_dist.median();
        let r_ratio = franklin.read_dist.quantile(0.95) / jaguar.read_dist.quantile(0.95);
        assert!(
            r_ratio > 2.0 * w_ratio,
            "reads must differ far more than writes: r {r_ratio} w {w_ratio}"
        );
    }
}
