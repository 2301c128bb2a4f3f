//! Online profiling mode.
//!
//! The paper's conclusion proposes moving "from an I/O tracing paradigm to
//! an I/O profiling paradigm": since the ensemble distribution is what
//! matters and it is reproducible, one need not store every event — just
//! enough to define the distribution. `OnlineProfile` does exactly that:
//! fixed-memory logarithmic duration histograms per call kind, accumulated
//! at capture time, with byte and count totals. Memory is O(kinds × bins)
//! regardless of trace length.
//!
//! The histograms are [`pio_des::hist::LogHistogram`]s — the same
//! mergeable implementation the analysis layer bins with — so a profile
//! merged across ranks is bit-identical to one collected centrally. The
//! saved-profile serde layout (`t_min`/`t_max`/`bins`/`counts`/`totals`)
//! is preserved from the pre-refactor format.

use crate::record::{CallKind, Record};
use pio_des::hist::{LogBins, LogHistogram};
use serde::{de_field, Content, DeError, Deserialize, Serialize};

/// Number of log-spaced bins per call kind.
pub const DEFAULT_BINS: usize = 64;

/// Fixed-memory log-histogram profile of a record stream.
#[derive(Debug, Clone)]
pub struct OnlineProfile {
    /// hists[kind], all sharing one geometry; durations are clamped into
    /// the edge bins so every event is counted.
    hists: Vec<LogHistogram>,
    /// Per-kind totals: (events, bytes, total seconds, max seconds).
    totals: Vec<(u64, u64, f64, f64)>,
}

impl Default for OnlineProfile {
    fn default() -> Self {
        // 10 µs .. 1000 s covers everything from metadata RPCs to the
        // paper's 500-second pathological reads.
        OnlineProfile::new(1e-5, 1e3, DEFAULT_BINS)
    }
}

impl OnlineProfile {
    /// A profile resolving durations in `[t_min, t_max]` seconds over
    /// `bins` log-spaced bins.
    pub fn new(t_min: f64, t_max: f64, bins: usize) -> Self {
        assert!(t_min > 0.0 && t_max > t_min && bins >= 2);
        OnlineProfile {
            hists: vec![LogHistogram::new(t_min, t_max, bins); CallKind::ALL.len()],
            totals: vec![(0, 0, 0.0, 0.0); CallKind::ALL.len()],
        }
    }

    fn kind_index(kind: CallKind) -> usize {
        CallKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind in ALL")
    }

    fn geometry(&self) -> LogBins {
        self.hists[0].geometry()
    }

    /// Bin index for a duration in seconds (clamped to the edge bins).
    pub fn bin_of(&self, secs: f64) -> usize {
        self.geometry().index_clamped(secs)
    }

    /// Geometric center (seconds) of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.geometry().center(i)
    }

    /// Accumulate one record.
    pub fn record(&mut self, r: &Record) {
        let k = Self::kind_index(r.call);
        let secs = r.secs();
        self.hists[k].add_clamped(secs);
        let t = &mut self.totals[k];
        t.0 += 1;
        t.1 += r.bytes;
        t.2 += secs;
        t.3 = t.3.max(secs);
    }

    /// Accumulate a whole stream.
    pub fn record_all<'a, I: IntoIterator<Item = &'a Record>>(&mut self, records: I) {
        for r in records {
            self.record(r);
        }
    }

    /// The duration histogram for a kind.
    pub fn hist(&self, kind: CallKind) -> &LogHistogram {
        &self.hists[Self::kind_index(kind)]
    }

    /// Event count for a kind.
    pub fn count(&self, kind: CallKind) -> u64 {
        self.totals[Self::kind_index(kind)].0
    }

    /// Byte total for a kind.
    pub fn bytes(&self, kind: CallKind) -> u64 {
        self.totals[Self::kind_index(kind)].1
    }

    /// Mean duration for a kind, if any events were seen.
    pub fn mean_secs(&self, kind: CallKind) -> Option<f64> {
        let (n, _, sum, _) = self.totals[Self::kind_index(kind)];
        (n > 0).then(|| sum / n as f64)
    }

    /// Longest event for a kind.
    pub fn max_secs(&self, kind: CallKind) -> f64 {
        self.totals[Self::kind_index(kind)].3
    }

    /// Histogram (bin centers, counts) for a kind.
    pub fn histogram(&self, kind: CallKind) -> Vec<(f64, u64)> {
        let h = self.hist(kind);
        (0..h.bins())
            .map(|i| (h.bin_center(i), h.counts()[i]))
            .collect()
    }

    /// Approximate quantile for a kind from the binned counts, or `None`
    /// if no events. `q` in `[0,1]`.
    pub fn quantile(&self, kind: CallKind, q: f64) -> Option<f64> {
        self.hist(kind).quantile(q)
    }

    /// Merge another profile (same geometry) into this one.
    ///
    /// Panics if geometries differ — merging across ranks requires the
    /// collectors to agree on binning, as a real IPM reduction would.
    pub fn merge(&mut self, other: &OnlineProfile) {
        for (h, o) in self.hists.iter_mut().zip(&other.hists) {
            h.merge(o);
        }
        for (t, o) in self.totals.iter_mut().zip(&other.totals) {
            t.0 += o.0;
            t.1 += o.1;
            t.2 += o.2;
            t.3 = t.3.max(o.3);
        }
    }
}

// Saved profiles predate the shared-histogram refactor; serialize the
// historical field layout rather than the internal representation.
impl Serialize for OnlineProfile {
    fn to_content(&self) -> Content {
        let geom = self.geometry();
        let counts: Vec<Vec<u64>> = self.hists.iter().map(|h| h.counts().to_vec()).collect();
        Content::Map(vec![
            ("t_min".to_string(), geom.lo().to_content()),
            ("t_max".to_string(), geom.hi().to_content()),
            ("bins".to_string(), geom.bins().to_content()),
            ("counts".to_string(), counts.to_content()),
            ("totals".to_string(), self.totals.to_content()),
        ])
    }
}

impl Deserialize for OnlineProfile {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let t_min: f64 = de_field(c, "t_min")?;
        let t_max: f64 = de_field(c, "t_max")?;
        let bins: usize = de_field(c, "bins")?;
        let counts: Vec<Vec<u64>> = de_field(c, "counts")?;
        let totals: Vec<(u64, u64, f64, f64)> = de_field(c, "totals")?;
        if counts.len() != CallKind::ALL.len() || totals.len() != CallKind::ALL.len() {
            return Err(DeError(format!(
                "profile kind count {}/{} does not match {} call kinds",
                counts.len(),
                totals.len(),
                CallKind::ALL.len()
            )));
        }
        if counts.iter().any(|k| k.len() != bins) {
            return Err(DeError("profile bin count mismatch".to_string()));
        }
        let hists = counts
            .into_iter()
            .map(|k| LogHistogram::from_parts(t_min, t_max, k, 0, 0))
            .collect();
        Ok(OnlineProfile { hists, totals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(call: CallKind, bytes: u64, secs: f64) -> Record {
        Record {
            rank: 0,
            call,
            fd: 3,
            offset: 0,
            bytes,
            start_ns: 0,
            end_ns: (secs * 1e9) as u64,
            phase: 0,
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut p = OnlineProfile::default();
        p.record(&rec(CallKind::Write, 100, 1.0));
        p.record(&rec(CallKind::Write, 200, 3.0));
        p.record(&rec(CallKind::Read, 50, 0.5));
        assert_eq!(p.count(CallKind::Write), 2);
        assert_eq!(p.bytes(CallKind::Write), 300);
        assert_eq!(p.mean_secs(CallKind::Write), Some(2.0));
        assert_eq!(p.max_secs(CallKind::Write), 3.0);
        assert_eq!(p.count(CallKind::Read), 1);
        assert_eq!(p.count(CallKind::Barrier), 0);
        assert!(p.mean_secs(CallKind::Barrier).is_none());
    }

    #[test]
    fn binning_is_monotone_and_clamped() {
        let p = OnlineProfile::new(1e-3, 1e2, 32);
        assert_eq!(p.bin_of(1e-9), 0);
        assert_eq!(p.bin_of(1e9), 31);
        let mut last = 0;
        for i in 0..100 {
            let t = 1e-3 * (1e5f64).powf(i as f64 / 99.0);
            let b = p.bin_of(t);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn bin_center_round_trips() {
        let p = OnlineProfile::new(1e-3, 1e2, 32);
        for i in 0..32 {
            assert_eq!(p.bin_of(p.bin_center(i)), i, "bin {i}");
        }
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut p = OnlineProfile::default();
        for i in 1..=100 {
            p.record(&rec(CallKind::Read, 1, i as f64 * 0.1));
        }
        let q50 = p.quantile(CallKind::Read, 0.5).unwrap();
        // True median 5.05 s; log bins are coarse, allow 2x.
        assert!(q50 > 2.5 && q50 < 10.0, "{q50}");
        let q100 = p.quantile(CallKind::Read, 1.0).unwrap();
        assert!(q100 >= q50);
        assert!(p.quantile(CallKind::Write, 0.5).is_none());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = OnlineProfile::default();
        let mut b = OnlineProfile::default();
        let mut combined = OnlineProfile::default();
        for i in 0..50 {
            let r = rec(CallKind::Write, i, 0.01 * (i + 1) as f64);
            if i % 2 == 0 {
                a.record(&r);
            } else {
                b.record(&r);
            }
            combined.record(&r);
        }
        a.merge(&b);
        assert_eq!(a.count(CallKind::Write), combined.count(CallKind::Write));
        assert_eq!(a.bytes(CallKind::Write), combined.bytes(CallKind::Write));
        assert_eq!(
            a.histogram(CallKind::Write),
            combined.histogram(CallKind::Write)
        );
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_geometry() {
        let mut a = OnlineProfile::new(1e-3, 1e2, 32);
        let b = OnlineProfile::new(1e-3, 1e2, 64);
        a.merge(&b);
    }

    #[test]
    fn serde_layout_is_preserved() {
        let mut p = OnlineProfile::new(1e-3, 1e2, 8);
        p.record(&rec(CallKind::Write, 512, 0.5));
        p.record(&rec(CallKind::Read, 64, 7.0));
        let json = serde_json::to_string(&p).unwrap();
        for key in [
            "\"t_min\"",
            "\"t_max\"",
            "\"bins\":8",
            "\"counts\"",
            "\"totals\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let back: OnlineProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(CallKind::Write), 1);
        assert_eq!(back.bytes(CallKind::Write), 512);
        assert_eq!(back.histogram(CallKind::Read), p.histogram(CallKind::Read));
        assert_eq!(back.max_secs(CallKind::Read), 7.0);
    }

    #[test]
    fn log_histogram_serde_layout_is_preserved() {
        let mut h = LogHistogram::new(0.1, 10.0, 4);
        h.add(1.0);
        h.add(-1.0);
        h.add(100.0);
        let json = serde_json::to_string(&h).unwrap();
        // Field layout is part of the on-disk profile format.
        for key in [
            "\"lo\"",
            "\"hi\"",
            "\"counts\"",
            "\"underflow\"",
            "\"overflow\"",
        ] {
            assert!(json.contains(key), "{json}");
        }
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
