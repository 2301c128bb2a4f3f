//! The in-memory trace: a run's full record stream plus experiment
//! metadata, with the filters and aggregate queries the ensemble analysis
//! is built on.

use crate::record::{CallKind, Record};
use pio_des::{FxHashMap, SimSpan, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identification of the experiment a trace came from.
///
/// The paper distinguishes an *experiment* (a choice of test parameters)
/// from a *run* (one instance of executing it); `seed` is what varies
/// between runs of the same experiment here.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TraceMeta {
    /// Experiment label, e.g. `ior-512m-1024`.
    pub experiment: String,
    /// Platform preset label, e.g. `franklin`.
    pub platform: String,
    /// Number of MPI ranks.
    pub ranks: u32,
    /// Master seed of the run.
    pub seed: u64,
}

/// A complete trace: metadata plus records in issue order per rank.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Experiment identification.
    pub meta: TraceMeta,
    /// All records of the run.
    pub records: Vec<Record>,
}

impl Trace {
    /// An empty trace for `meta`.
    pub fn new(meta: TraceMeta) -> Self {
        Trace {
            meta,
            records: Vec::new(),
        }
    }

    /// Append a record.
    pub fn push(&mut self, r: Record) {
        self.records.push(r);
    }

    /// Records of one call kind.
    pub fn of_kind(&self, kind: CallKind) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.call == kind)
    }

    /// Data-plane read/write records.
    pub fn data_records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.call.is_data())
    }

    /// Records in one barrier phase.
    pub fn in_phase(&self, phase: u32) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.phase == phase)
    }

    /// Records of one rank.
    pub fn of_rank(&self, rank: u32) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.rank == rank)
    }

    /// Durations (seconds) of all records matching `pred`.
    pub fn durations_where<F: Fn(&Record) -> bool>(&self, pred: F) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| pred(r))
            .map(Record::secs)
            .collect()
    }

    /// Durations (seconds) of all records of `kind`.
    pub fn durations_of(&self, kind: CallKind) -> Vec<f64> {
        self.durations_where(|r| r.call == kind)
    }

    /// Total bytes moved by records of `kind`.
    pub fn bytes_of(&self, kind: CallKind) -> u64 {
        self.of_kind(kind).map(|r| r.bytes).sum()
    }

    /// Wall-clock span of the run (first start to last end), zero if empty.
    pub fn makespan(&self) -> SimSpan {
        let first = self.records.iter().map(|r| r.start_ns).min();
        let last = self.records.iter().map(|r| r.end_ns).max();
        match (first, last) {
            (Some(a), Some(b)) => SimSpan(b.saturating_sub(a)),
            _ => SimSpan::ZERO,
        }
    }

    /// End of the run as an instant.
    pub fn end_time(&self) -> SimTime {
        SimTime(self.records.iter().map(|r| r.end_ns).max().unwrap_or(0))
    }

    /// Number of barrier phases present (max phase index + 1).
    pub fn phase_count(&self) -> u32 {
        self.records.iter().map(|r| r.phase + 1).max().unwrap_or(0)
    }

    /// Aggregate data rate in MB/s over the whole run
    /// (total read+write bytes / makespan).
    pub fn aggregate_rate_mb_s(&self) -> f64 {
        let bytes: u64 = self.data_records().map(|r| r.bytes).sum();
        let secs = self.makespan().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        bytes as f64 / 1e6 / secs
    }

    /// Sort records by start time (rank-major traces interleave naturally).
    pub fn sort_by_start(&mut self) {
        self.records.sort_by_key(|r| (r.start_ns, r.rank, r.end_ns));
    }

    /// The rank whose records sum to the largest total I/O time
    /// (the paper's "slowest individual performer"); a tie goes to the
    /// lowest rank.
    pub fn slowest_rank(&self) -> Option<(u32, f64)> {
        let mut per_rank = BTreeMap::new();
        for r in self.records.iter().filter(|r| r.call.is_io()) {
            *per_rank.entry(r.rank).or_insert(0.0) += r.secs();
        }
        per_rank
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Records overlapping the virtual-time window `[t0, t1)` — for
    /// zooming into one plateau or tail of a rate curve.
    pub fn window(&self, t0: SimTime, t1: SimTime) -> Trace {
        Trace {
            meta: self.meta.clone(),
            records: self
                .records
                .iter()
                .filter(|r| r.start_ns < t1.nanos() && r.end_ns > t0.nanos())
                .cloned()
                .collect(),
        }
    }

    /// Merge another trace of the same experiment (e.g. per-rank shards
    /// collected separately, as a real IPM deployment would produce) into
    /// this one, keeping start-time order.
    pub fn merge(&mut self, other: &Trace) {
        self.records.extend(other.records.iter().cloned());
        self.sort_by_start();
    }

    /// One rank's records in program (start-time) order.
    pub fn rank_timeline(&self, rank: u32) -> Vec<&Record> {
        let mut v: Vec<&Record> = self.of_rank(rank).collect();
        v.sort_by_key(|r| (r.start_ns, r.end_ns));
        v
    }

    /// Basic well-formedness: every record has `end >= start`, every I/O
    /// record has nonzero bytes, and phases are nondecreasing per rank.
    /// Returns the first violation description, if any.
    pub fn validate(&self) -> Result<(), String> {
        let mut last_phase: FxHashMap<u32, u32> = FxHashMap::default();
        for (i, r) in self.records.iter().enumerate() {
            if r.end_ns < r.start_ns {
                return Err(format!("record {i}: end before start"));
            }
            if r.call.is_io() && r.bytes == 0 {
                return Err(format!("record {i}: zero-byte {}", r.call.name()));
            }
            let lp = last_phase.entry(r.rank).or_insert(0);
            if r.phase < *lp {
                return Err(format!(
                    "record {i}: phase went backwards on rank {}",
                    r.rank
                ));
            }
            *lp = r.phase;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rank: u32, call: CallKind, bytes: u64, start: u64, end: u64, phase: u32) -> Record {
        Record {
            rank,
            call,
            fd: 3,
            offset: 0,
            bytes,
            start_ns: start,
            end_ns: end,
            phase,
        }
    }

    fn sample() -> Trace {
        let mut t = Trace::new(TraceMeta {
            experiment: "unit".into(),
            platform: "test".into(),
            ranks: 2,
            seed: 1,
        });
        t.push(rec(0, CallKind::Write, 1000, 0, 2_000_000_000, 0));
        t.push(rec(1, CallKind::Write, 1000, 0, 4_000_000_000, 0));
        t.push(rec(
            0,
            CallKind::Barrier,
            0,
            2_000_000_000,
            4_000_000_000,
            0,
        ));
        t.push(rec(0, CallKind::Read, 500, 4_000_000_000, 5_000_000_000, 1));
        t.push(rec(
            1,
            CallKind::MetaWrite,
            3,
            4_000_000_000,
            4_100_000_000,
            1,
        ));
        t
    }

    #[test]
    fn filters_and_aggregates() {
        let t = sample();
        assert_eq!(t.of_kind(CallKind::Write).count(), 2);
        assert_eq!(t.data_records().count(), 3);
        assert_eq!(t.in_phase(1).count(), 2);
        assert_eq!(t.of_rank(0).count(), 3);
        assert_eq!(t.bytes_of(CallKind::Write), 2000);
        assert_eq!(t.phase_count(), 2);
        assert_eq!(t.makespan(), SimSpan::from_secs(5));
        let durs = t.durations_of(CallKind::Write);
        assert_eq!(durs, vec![2.0, 4.0]);
    }

    #[test]
    fn aggregate_rate() {
        let t = sample();
        // 2500 data bytes over 5 s = 500 B/s = 5e-4 MB/s.
        assert!((t.aggregate_rate_mb_s() - 5e-4).abs() < 1e-12);
    }

    #[test]
    fn slowest_rank_is_total_io_time() {
        let t = sample();
        // rank0: 2s write + 1s read = 3s; rank1: 4s + 0.1s = 4.1s.
        let (rank, secs) = t.slowest_rank().unwrap();
        assert_eq!(rank, 1);
        assert!((secs - 4.1).abs() < 1e-9);
    }

    #[test]
    fn slowest_rank_tie_goes_to_the_lowest_rank() {
        let mut t = Trace::new(TraceMeta {
            ranks: 4,
            ..TraceMeta::default()
        });
        for rank in [3, 1, 0, 2] {
            t.push(rec(rank, CallKind::Write, 1000, 0, 2_000_000_000, 0));
        }
        for _ in 0..50 {
            assert_eq!(t.slowest_rank(), Some((0, 2.0)));
        }
    }

    #[test]
    fn validate_accepts_sample_and_rejects_corruption() {
        let mut t = sample();
        assert!(t.validate().is_ok());
        t.push(rec(0, CallKind::Write, 0, 0, 1, 1));
        assert!(t.validate().unwrap_err().contains("zero-byte"));
        let mut t2 = sample();
        t2.push(rec(0, CallKind::Read, 5, 9, 8, 1));
        assert!(t2.validate().unwrap_err().contains("end before start"));
        let mut t3 = sample();
        t3.push(rec(0, CallKind::Read, 5, 9_000_000_000, 9_100_000_000, 0));
        assert!(t3.validate().unwrap_err().contains("phase went backwards"));
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = Trace::default();
        assert_eq!(t.makespan(), SimSpan::ZERO);
        assert_eq!(t.phase_count(), 0);
        assert_eq!(t.aggregate_rate_mb_s(), 0.0);
        assert!(t.slowest_rank().is_none());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn window_keeps_overlapping_records() {
        let t = sample();
        // Window [2.5s, 4.5s): overlaps the rank-1 write (0..4), the
        // barrier (2..4), and the phase-1 ops starting at 4.
        let w = t.window(SimTime::from_secs_f64(2.5), SimTime::from_secs_f64(4.5));
        assert_eq!(w.records.len(), 4);
        assert!(w.records.iter().all(|r| r.start_ns < 4_500_000_000));
        // Empty window.
        let e = t.window(SimTime::from_secs(100), SimTime::from_secs(200));
        assert!(e.records.is_empty());
    }

    #[test]
    fn merge_combines_shards_in_order() {
        let full = sample();
        let mut shard0 = Trace::new(full.meta.clone());
        let mut shard1 = Trace::new(full.meta.clone());
        for r in &full.records {
            if r.rank == 0 {
                shard0.push(r.clone());
            } else {
                shard1.push(r.clone());
            }
        }
        shard0.merge(&shard1);
        assert_eq!(shard0.records.len(), full.records.len());
        let starts: Vec<u64> = shard0.records.iter().map(|r| r.start_ns).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        assert_eq!(
            shard0.bytes_of(CallKind::Write),
            full.bytes_of(CallKind::Write)
        );
    }

    #[test]
    fn rank_timeline_is_ordered_per_rank() {
        let t = sample();
        let tl = t.rank_timeline(0);
        assert_eq!(tl.len(), 3);
        assert!(tl.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(tl.iter().all(|r| r.rank == 0));
    }

    #[test]
    fn sort_by_start_orders_records() {
        let mut t = sample();
        t.records.reverse();
        t.sort_by_start();
        let starts: Vec<u64> = t.records.iter().map(|r| r.start_ns).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
