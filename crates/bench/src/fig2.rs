//! Figure 2 (+ the §III-A rate table): IOR with the 512 MB block split
//! into k = 1, 2, 4, 8 write() calls, no intermediate barrier.
//!
//! The paper measures 11,610 → 12,016 → 13,446 → 13,486 MB/s as k grows —
//! a ~16% "free" speedup explained by the Law of Large Numbers: per-task
//! totals `t_k` concentrate, so the worst task (which sets the phase
//! time) improves. We report the measured rate, the distribution width
//! of `t_k`, and the convolution-based prediction from the k=1
//! distribution.

use pio_core::empirical::EmpiricalDist;
use pio_core::lln;
use pio_fault::FaultPlan;
use pio_mpi::{RunConfig, Runner};
use pio_trace::CallKind;
use pio_workloads::presets::fig2_ior;

/// One row of the Figure 2 table.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Number of write calls the block is split into.
    pub k: u32,
    /// Transfer size per call (MB).
    pub xfer_mb: f64,
    /// Measured aggregate rate (MB/s): total data / write-phase span.
    pub rate_mb_s: f64,
    /// Rate relative to k = 1.
    pub speedup: f64,
    /// Coefficient of variation of per-task totals `t_k`.
    pub cv_tk: f64,
    /// The paper's measured rate for this k.
    pub paper_rate: f64,
    /// Per-task totals distribution (for histograms).
    pub tk_dist: EmpiricalDist,
}

/// The paper's reported rates for k = 1, 2, 4, 8.
pub const PAPER_RATES: [(u32, f64); 4] =
    [(1, 11_610.0), (2, 12_016.0), (4, 13_446.0), (8, 13_486.0)];

/// Run the sweep at `scale` and compute per-k rows, under `fault` if
/// given (applied to every k, so the sweep compares like against like).
pub fn run(scale: u32, seed: u64, fault: Option<FaultPlan>) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    let mut rate1 = None;
    for &(k, paper_rate) in &PAPER_RATES {
        let exp = fig2_ior(k, seed + k as u64, scale);
        let cfg = RunConfig {
            fault: fault.clone(),
            ..exp.run.clone()
        };
        let res = Runner::new(&exp.job, cfg).execute_one().expect("fig2 run");
        let total_mb = res.stats.bytes_written as f64 / 1e6;
        // "The run time for an experiment, and therefore the reported
        // data rate, is determined by the slowest I/O operation amongst
        // all the tasks" — the write span (write-back continues in the
        // background, exactly as on the real client).
        let span = crate::util::span_of(res.trace(), CallKind::Write);
        let rate = total_mb / span.max(1e-9);

        // Per-task totals t_k.
        let ranks = res.trace().meta.ranks;
        let mut totals = vec![0.0f64; ranks as usize];
        for r in res.trace().of_kind(CallKind::Write) {
            totals[r.rank as usize] += r.secs();
        }
        let tk_dist = EmpiricalDist::new(&totals);
        let cv = tk_dist.cv().unwrap_or(0.0);
        let r1 = *rate1.get_or_insert(rate);
        rows.push(Fig2Row {
            k,
            xfer_mb: (exp.job.total_bytes_written() / ranks as u64 / k as u64) as f64 / 1e6,
            rate_mb_s: rate,
            speedup: rate / r1,
            cv_tk: cv,
            paper_rate,
            tk_dist,
        });
    }
    rows
}

/// Convolution prediction of the k-sweep from the k=1 per-call
/// distribution — the analytical half of the paper's Figure 2 argument.
pub fn predict_from_k1(rows: &[Fig2Row]) -> Vec<(u32, f64)> {
    let k1 = &rows[0];
    let ks: Vec<u32> = rows.iter().map(|r| r.k).collect();
    lln::predicted_rate_vs_k(&k1.tk_dist, &ks, k1.tk_dist.n() as u32, k1.rate_mb_s, 96)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_improves_with_k_and_tk_narrows() {
        let rows = run(16, 7, None);
        assert_eq!(rows.len(), 4);
        // The paper's direction: k=8 beats k=1 and t_k narrows.
        assert!(
            rows[3].rate_mb_s > rows[0].rate_mb_s,
            "k=8 {} vs k=1 {}",
            rows[3].rate_mb_s,
            rows[0].rate_mb_s
        );
        assert!(
            rows[3].cv_tk < rows[0].cv_tk,
            "cv must shrink: {} vs {}",
            rows[3].cv_tk,
            rows[0].cv_tk
        );
        // Magnitude sanity: the gain is a few percent to tens of percent,
        // not orders of magnitude.
        let gain = rows[3].rate_mb_s / rows[0].rate_mb_s;
        assert!(gain < 2.0, "gain {gain}");
    }

    #[test]
    fn prediction_is_monotone() {
        let rows = run(32, 3, None);
        let pred = predict_from_k1(&rows);
        assert_eq!(pred.len(), 4);
        for w in pred.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.999, "{pred:?}");
        }
    }
}
