//! Rate curves and duration extraction from traces — the time-series view
//! of the paper's Figures 1(b), 4(b,e), 6(b,e,h,k), and the sample sets
//! its histograms are built from.

use pio_trace::{CallKind, Record, Trace};

/// An instantaneous aggregate-rate time series: `(t_seconds, mb_per_s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RateCurve {
    /// Bin width in seconds.
    pub dt: f64,
    /// `(bin start time, rate in MB/s)` per bin.
    pub points: Vec<(f64, f64)>,
}

impl RateCurve {
    /// Peak rate.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|&(_, r)| r).fold(0.0, f64::max)
    }

    /// Time-average rate over the curve.
    pub fn average(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, r)| r).sum::<f64>() / self.points.len() as f64
    }

    /// Fraction of bins with rate below `threshold` MB/s — the "most of
    /// the run time was spent at rates of less than 2 GB/s" observation.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|&&(_, r)| r < threshold).count() as f64
            / self.points.len() as f64
    }
}

/// Build the aggregate rate curve for records matching `pred`, spreading
/// each record's bytes uniformly over its `[start, end]` interval and
/// summing per `dt`-second bin.
pub fn rate_curve<F: Fn(&Record) -> bool>(trace: &Trace, dt: f64, pred: F) -> RateCurve {
    assert!(dt > 0.0);
    let end = trace.end_time().as_secs_f64();
    let bins = (end / dt).ceil() as usize + 1;
    let mut acc = vec![0.0f64; bins.max(1)];
    for r in trace.records.iter().filter(|r| pred(r) && r.bytes > 0) {
        let (t0, t1) = (r.start().as_secs_f64(), r.end().as_secs_f64());
        let mb = r.bytes as f64 / 1e6;
        if t1 <= t0 {
            // Instantaneous record: deposit in its bin.
            let idx = ((t0 / dt) as usize).min(acc.len() - 1);
            acc[idx] += mb;
            continue;
        }
        let rate = mb / (t1 - t0); // MB per second while active
        let first = ((t0 / dt) as usize).min(acc.len() - 1);
        let last = ((t1 / dt) as usize).min(acc.len() - 1);
        for (idx, slot) in acc.iter_mut().enumerate().take(last + 1).skip(first) {
            let bin_start = idx as f64 * dt;
            let bin_end = bin_start + dt;
            let overlap = (t1.min(bin_end) - t0.max(bin_start)).max(0.0);
            *slot += rate * overlap;
        }
    }
    RateCurve {
        dt,
        points: acc
            .iter()
            .enumerate()
            .map(|(i, &mb)| (i as f64 * dt, mb / dt))
            .collect(),
    }
}

/// Aggregate write-rate curve (the usual Figure 6 panel).
pub fn write_rate_curve(trace: &Trace, dt: f64) -> RateCurve {
    rate_curve(trace, dt, |r| r.call == CallKind::Write)
}

/// Aggregate read-rate curve.
pub fn read_rate_curve(trace: &Trace, dt: f64) -> RateCurve {
    rate_curve(trace, dt, |r| r.call == CallKind::Read)
}

/// Durations (seconds) of records of `kind`, optionally restricted to a
/// phase range — the raw material of every histogram in the paper.
pub fn durations(trace: &Trace, kind: CallKind, phases: Option<(u32, u32)>) -> Vec<f64> {
    trace
        .records
        .iter()
        .filter(|r| r.call == kind)
        .filter(|r| match phases {
            Some((lo, hi)) => r.phase >= lo && r.phase <= hi,
            None => true,
        })
        .map(Record::secs)
        .collect()
}

/// Size-normalized samples in seconds-per-MB for records matching `pred` —
/// the paper's Figure 6 normalization for mixed transfer sizes ("we
/// normalize the histograms to present MB/sec along the top and sec/MB
/// along the bottom").
pub fn sec_per_mb_samples<F: Fn(&Record) -> bool>(trace: &Trace, pred: F) -> Vec<f64> {
    trace
        .records
        .iter()
        .filter(|r| pred(r))
        .filter_map(Record::sec_per_mb)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_trace::TraceMeta;

    fn rec(rank: u32, call: CallKind, bytes: u64, t0: f64, t1: f64, phase: u32) -> Record {
        Record {
            rank,
            call,
            fd: 3,
            offset: 0,
            bytes,
            start_ns: (t0 * 1e9) as u64,
            end_ns: (t1 * 1e9) as u64,
            phase,
        }
    }

    fn trace() -> Trace {
        let mut t = Trace::new(TraceMeta::default());
        // 10 MB write over [0,1]; 10 MB write over [1,2]; read over [0,2].
        t.push(rec(0, CallKind::Write, 10_000_000, 0.0, 1.0, 0));
        t.push(rec(1, CallKind::Write, 10_000_000, 1.0, 2.0, 0));
        t.push(rec(2, CallKind::Read, 20_000_000, 0.0, 2.0, 1));
        t
    }

    #[test]
    fn write_rate_is_flat_ten_mb_s() {
        let c = write_rate_curve(&trace(), 0.5);
        // 10 MB/s during [0,2).
        for &(t, r) in &c.points {
            if t < 2.0 {
                assert!((r - 10.0).abs() < 1e-9, "{t} {r}");
            }
        }
        assert!((c.peak() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn read_rate_is_separate() {
        let c = read_rate_curve(&trace(), 0.5);
        for &(t, r) in &c.points {
            if t < 2.0 {
                assert!((r - 10.0).abs() < 1e-9, "{t} {r}");
            }
        }
    }

    #[test]
    fn bytes_are_conserved_in_the_curve() {
        let c = write_rate_curve(&trace(), 0.3);
        let total_mb: f64 = c.points.iter().map(|&(_, r)| r * c.dt).sum();
        assert!((total_mb - 20.0).abs() < 1e-6, "{total_mb}");
    }

    #[test]
    fn instantaneous_records_deposit_once() {
        let mut t = Trace::new(TraceMeta::default());
        t.push(rec(0, CallKind::Write, 5_000_000, 1.0, 1.0, 0));
        let c = write_rate_curve(&t, 0.5);
        let total_mb: f64 = c.points.iter().map(|&(_, r)| r * c.dt).sum();
        assert!((total_mb - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fraction_below_counts_slow_bins() {
        let c = write_rate_curve(&trace(), 0.5);
        assert!(c.fraction_below(5.0) <= 0.5); // only trailing empty bins
        assert_eq!(c.fraction_below(1e9), 1.0);
    }

    #[test]
    fn durations_filter_by_phase() {
        let t = trace();
        assert_eq!(durations(&t, CallKind::Write, None).len(), 2);
        assert_eq!(durations(&t, CallKind::Read, Some((1, 1))).len(), 1);
        assert_eq!(durations(&t, CallKind::Read, Some((0, 0))).len(), 0);
        let d = durations(&t, CallKind::Write, Some((0, 0)));
        assert_eq!(d, vec![1.0, 1.0]);
    }

    #[test]
    fn sec_per_mb_normalizes() {
        let t = trace();
        let s = sec_per_mb_samples(&t, |r| r.call == CallKind::Write);
        // 1 s per 10 MB = 0.1 s/MB.
        assert_eq!(s.len(), 2);
        assert!((s[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = Trace::default();
        let c = write_rate_curve(&t, 1.0);
        assert_eq!(c.peak(), 0.0);
        assert_eq!(c.average(), 0.0);
        assert!(durations(&t, CallKind::Write, None).is_empty());
    }
}
