//! Figure 6: GCRM at 10,240 tasks through the four-configuration
//! optimization ladder — baseline 310 s → collective buffering 190 s →
//! 1 MiB alignment 150 s → aggregated metadata 75 s. Panels per stage:
//! trace, aggregate write rate, and the dual-axis (MB/s, sec/MB)
//! histogram split into data (1.6 MB records) and metadata (<3 KB)
//! classes.

use pio_core::empirical::EmpiricalDist;
use pio_core::rates::{sec_per_mb_samples, write_rate_curve, RateCurve};
use pio_core::{diagnose, Finding};
use pio_fault::FaultPlan;
use pio_mpi::{RunConfig, Runner};
use pio_trace::{CallKind, Trace};
use pio_workloads::presets::fig6_gcrm;

/// One stage's Figure 6 row.
pub struct Fig6Result {
    /// Stage index (0 = baseline … 3 = metadata aggregated).
    pub stage: u32,
    /// Stage label.
    pub label: &'static str,
    /// Total run time (s).
    pub runtime_s: f64,
    /// Aggregate write-rate curve.
    pub write_rate: RateCurve,
    /// Data-record cost distribution in sec/MB (blue class).
    pub data_sec_per_mb: EmpiricalDist,
    /// Metadata cost distribution in sec/MB (red class), if any.
    pub meta_sec_per_mb: Option<EmpiricalDist>,
    /// Extent-lock conflicts.
    pub lock_conflicts: u64,
    /// Writes forced synchronous by conflicts.
    pub sync_writes: u64,
    /// `diagnose`'s serialized-rank finding (expected through stage 2).
    pub serialized: Option<Finding>,
    /// The trace.
    pub trace: Trace,
}

/// The paper's run times per stage.
pub const PAPER_RUNTIMES: [f64; 4] = [310.0, 190.0, 150.0, 75.0];

/// Stage labels.
pub const LABELS: [&str; 4] = [
    "baseline",
    "collective buffering (80 writers)",
    "+ 1 MiB alignment",
    "+ metadata aggregation",
];

/// Run one stage at `scale`, under `fault` if given.
pub fn run(stage: u32, scale: u32, seed: u64, fault: Option<FaultPlan>) -> Fig6Result {
    let exp = fig6_gcrm(stage, seed, scale);
    let cfg = RunConfig { fault, ..exp.run };
    let res = Runner::new(&exp.job, cfg).execute_one().expect("fig6 run");
    let data: Vec<f64> = sec_per_mb_samples(res.trace(), |r| r.call == CallKind::Write);
    let meta: Vec<f64> = sec_per_mb_samples(res.trace(), |r| {
        matches!(r.call, CallKind::MetaWrite | CallKind::MetaRead)
    });
    let dt = (res.wall_secs() / 200.0).max(1e-3);
    Fig6Result {
        stage,
        label: LABELS[stage as usize],
        runtime_s: res.wall_secs(),
        write_rate: write_rate_curve(res.trace(), dt),
        data_sec_per_mb: EmpiricalDist::new(&data),
        meta_sec_per_mb: if meta.is_empty() {
            None
        } else {
            Some(EmpiricalDist::new(&meta))
        },
        lock_conflicts: res.lock_stats.contended,
        sync_writes: res.stats.sync_writes,
        serialized: diagnose(res.trace())
            .into_iter()
            .find(|f| matches!(f, Finding::SerializedRank { .. })),
        trace: res.into_trace(),
    }
}

/// Run the whole ladder, under `fault` if given (same plan every stage).
pub fn run_all(scale: u32, seed: u64, fault: Option<FaultPlan>) -> Vec<Fig6Result> {
    (0..4).map(|s| run(s, scale, seed, fault.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_improves_and_mechanisms_match() {
        let results = run_all(64, 13, None); // 160 tasks
        let times: Vec<f64> = results.iter().map(|r| r.runtime_s).collect();
        // Headline: >2x from baseline to final stage even at small scale.
        assert!(times[3] < times[0] / 1.5, "ladder must improve: {times:?}");
        // Mechanisms: baseline conflicts heavily; aligned stages don't.
        assert!(results[0].lock_conflicts > 0);
        assert_eq!(results[2].lock_conflicts, 0, "alignment removes conflicts");
        assert_eq!(results[3].lock_conflicts, 0);
        // Baseline writes are forced synchronous; aligned ones are not.
        assert!(results[0].sync_writes > 0);
        assert_eq!(results[2].sync_writes, 0);
        // Metadata exists in all stages (aggregated in the last).
        assert!(results[0].meta_sec_per_mb.is_some());
        assert!(results[3].meta_sec_per_mb.is_some());
        // Aggregation: far fewer metadata ops in stage 3.
        let meta_ops_0 = results[0].trace.of_kind(CallKind::MetaWrite).count();
        let meta_ops_3 = results[3].trace.of_kind(CallKind::MetaWrite).count();
        assert!(
            meta_ops_3 * 10 < meta_ops_0,
            "meta ops {meta_ops_0} -> {meta_ops_3}"
        );
    }
}
