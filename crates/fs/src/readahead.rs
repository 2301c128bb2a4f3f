//! The client read-ahead engine — including the bug the paper isolated.
//!
//! Lustre's client detects access patterns per file stream. Sequential
//! streams get a read-ahead window (good). The Franklin client also
//! recognized *strided* patterns — constant positive gaps between reads —
//! "on its third appearance", and subsequent matching reads received "a
//! larger read-ahead window". MADbench's 1 MB alignment produces exactly
//! such a stride. The failure mode: during the interleaved read/write
//! phase the client's memory is full of dirty pages, and Lustre then
//! "issues one page (4 kB) reads due to a lack of system memory
//! resources" — turning a 15-second read into 30–500 seconds. The
//! deployed patch "removed strided read-ahead detection entirely".
//!
//! `StreamDetector` reproduces the detection state machine; the simulator
//! combines its verdict with the node's memory-pressure state to decide
//! whether a read executes normally or degraded (serialized page-sized
//! fetches whose per-page cost scales with the erroneous window size).

use crate::config::ReadaheadConfig;
use pio_des::FxHashMap;

/// Pattern classification of the *next* read on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// No pattern or benign sequential read-ahead: full-size RPCs.
    Normal,
    /// Strided mode engaged (bug): if the node is under memory pressure
    /// the read degrades to page-sized fetches. `severity` is the window
    /// inflation multiplier (doubles per additional matched stride).
    Strided {
        /// Window inflation factor (1, 2, 4, … up to the configured cap).
        severity: u32,
    },
}

/// Per-stream access history.
#[derive(Debug, Clone, Default)]
struct StreamState {
    /// End offset of the previous read.
    last_end: Option<u64>,
    /// Gap observed between the previous two reads.
    last_gap: Option<u64>,
    /// Consecutive constant-gap repetitions observed.
    stride_matches: u32,
}

/// Detector over all open streams (keyed by an opaque stream id,
/// typically hash of `(rank, fd)`).
#[derive(Debug, Default)]
pub struct ReadaheadTracker {
    streams: FxHashMap<u64, StreamState>,
    /// Total reads classified as strided (for diagnostics/stats).
    strided_classified: u64,
}

impl ReadaheadTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe a read of `[offset, offset+len)` on `stream` and classify
    /// it under `cfg`. Call once per read, in program order.
    pub fn observe_read(
        &mut self,
        cfg: &ReadaheadConfig,
        stream: u64,
        offset: u64,
        len: u64,
    ) -> ReadMode {
        let st = self.streams.entry(stream).or_default();
        let mode = match (st.last_end, st.last_gap) {
            (Some(end), prev_gap) if offset >= end => {
                let gap = offset - end;
                if gap == 0 {
                    // Purely sequential: benign read-ahead; stride state resets.
                    st.last_gap = None;
                    st.stride_matches = 0;
                    ReadMode::Normal
                } else {
                    match prev_gap {
                        Some(g) if g == gap => {
                            st.stride_matches += 1;
                            // Matches counts *repetitions* of the gap; the
                            // pattern's "appearances" are matches + 1.
                            let appearances = st.stride_matches + 1;
                            if cfg.strided_detection && appearances >= cfg.stride_trigger {
                                let over = appearances - cfg.stride_trigger;
                                let severity = 1u32
                                    .checked_shl(over)
                                    .unwrap_or(cfg.max_severity)
                                    .min(cfg.max_severity);
                                self.strided_classified += 1;
                                ReadMode::Strided { severity }
                            } else {
                                ReadMode::Normal
                            }
                        }
                        _ => {
                            st.last_gap = Some(gap);
                            st.stride_matches = 0;
                            ReadMode::Normal
                        }
                    }
                }
            }
            _ => {
                // First read, or a backwards seek: reset pattern state.
                st.last_gap = None;
                st.stride_matches = 0;
                ReadMode::Normal
            }
        };
        st.last_end = Some(offset + len);
        mode
    }

    /// Drop state for a closed stream.
    pub fn close_stream(&mut self, stream: u64) {
        self.streams.remove(&stream);
    }

    /// Number of reads classified as strided so far.
    pub fn strided_classified(&self) -> u64 {
        self.strided_classified
    }

    /// Open stream count.
    pub fn streams_tracked(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(detect: bool) -> ReadaheadConfig {
        ReadaheadConfig {
            strided_detection: detect,
            stride_trigger: 3,
            max_severity: 16,
            page_bytes: 4096,
            page_cost_median: 1e-3,
            page_cost_sigma: 0.5,
        }
    }

    const MB: u64 = 1 << 20;

    /// MADbench-like pattern: 300 MB reads with a constant 1 MB gap.
    fn strided_reads(t: &mut ReadaheadTracker, c: &ReadaheadConfig, n: usize) -> Vec<ReadMode> {
        let region = 301 * MB; // 300 MB data + 1 MB alignment gap
        (0..n)
            .map(|i| t.observe_read(c, 7, i as u64 * region, 300 * MB))
            .collect()
    }

    #[test]
    fn stride_engages_on_third_appearance() {
        let c = cfg(true);
        let mut t = ReadaheadTracker::new();
        let modes = strided_reads(&mut t, &c, 8);
        // Read 1: first read. Read 2: establishes gap. Read 3: first match
        // → appearances = 2... Read 4 is the first with appearances = 3.
        assert_eq!(modes[0], ReadMode::Normal);
        assert_eq!(modes[1], ReadMode::Normal);
        assert_eq!(modes[2], ReadMode::Normal);
        assert_eq!(modes[3], ReadMode::Strided { severity: 1 });
        assert_eq!(modes[4], ReadMode::Strided { severity: 2 });
        assert_eq!(modes[5], ReadMode::Strided { severity: 4 });
        assert_eq!(modes[6], ReadMode::Strided { severity: 8 });
        assert_eq!(modes[7], ReadMode::Strided { severity: 16 });
        assert_eq!(t.strided_classified(), 5);
    }

    #[test]
    fn severity_caps() {
        let c = cfg(true);
        let mut t = ReadaheadTracker::new();
        let modes = strided_reads(&mut t, &c, 12);
        assert_eq!(modes[11], ReadMode::Strided { severity: 16 });
    }

    #[test]
    fn patch_disables_detection() {
        let c = cfg(false);
        let mut t = ReadaheadTracker::new();
        let modes = strided_reads(&mut t, &c, 8);
        assert!(modes.iter().all(|m| *m == ReadMode::Normal));
        assert_eq!(t.strided_classified(), 0);
    }

    #[test]
    fn sequential_reads_stay_normal_and_reset_stride() {
        let c = cfg(true);
        let mut t = ReadaheadTracker::new();
        // Establish a stride...
        strided_reads(&mut t, &c, 4);
        // ...then go sequential: back to normal, stride forgotten.
        let m = t.observe_read(&c, 7, 2_000 * MB, MB);
        assert_eq!(m, ReadMode::Normal);
        let m = t.observe_read(&c, 7, 2_001 * MB, MB);
        assert_eq!(m, ReadMode::Normal);
        // New stride must re-earn its three appearances.
        let m = t.observe_read(&c, 7, 2_003 * MB, MB);
        assert_eq!(m, ReadMode::Normal);
        let m = t.observe_read(&c, 7, 2_005 * MB, MB);
        assert_eq!(m, ReadMode::Normal);
    }

    #[test]
    fn irregular_gaps_never_trigger() {
        let c = cfg(true);
        let mut t = ReadaheadTracker::new();
        let mut off = 0u64;
        for gap in [MB, 2 * MB, MB, 3 * MB, 2 * MB, MB] {
            let m = t.observe_read(&c, 9, off, 10 * MB);
            assert_eq!(m, ReadMode::Normal);
            off += 10 * MB + gap;
        }
    }

    #[test]
    fn streams_are_independent() {
        let c = cfg(true);
        let mut t = ReadaheadTracker::new();
        strided_reads(&mut t, &c, 6); // stream 7 strided
                                      // Stream 8 fresh: normal.
        let m = t.observe_read(&c, 8, 0, MB);
        assert_eq!(m, ReadMode::Normal);
        assert_eq!(t.streams_tracked(), 2);
        t.close_stream(7);
        assert_eq!(t.streams_tracked(), 1);
    }

    #[test]
    fn backwards_seek_resets() {
        let c = cfg(true);
        let mut t = ReadaheadTracker::new();
        strided_reads(&mut t, &c, 5);
        // Seek backwards: reset.
        let m = t.observe_read(&c, 7, 0, MB);
        assert_eq!(m, ReadMode::Normal);
        let m = t.observe_read(&c, 7, 2 * MB, MB);
        assert_eq!(m, ReadMode::Normal);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// With detection off, no access pattern is ever degraded.
        #[test]
        fn detection_off_is_always_normal(
            reads in proptest::collection::vec((0u64..1_000_000, 1u64..100_000), 1..100)
        ) {
            let c = ReadaheadConfig {
                strided_detection: false,
                stride_trigger: 3,
                max_severity: 16,
                page_bytes: 4096,
                page_cost_median: 1e-3,
                page_cost_sigma: 0.5,
            };
            let mut t = ReadaheadTracker::new();
            for (off, len) in reads {
                prop_assert_eq!(t.observe_read(&c, 1, off, len), ReadMode::Normal);
            }
        }

        /// Severity is always within [1, max_severity] and a power of two.
        #[test]
        fn severity_is_bounded(n in 1usize..40, trigger in 1u32..6, cap_pow in 0u32..8) {
            let c = ReadaheadConfig {
                strided_detection: true,
                stride_trigger: trigger,
                max_severity: 1 << cap_pow,
                page_bytes: 4096,
                page_cost_median: 1e-3,
                page_cost_sigma: 0.5,
            };
            let mut t = ReadaheadTracker::new();
            for i in 0..n {
                let m = t.observe_read(&c, 3, i as u64 * 200, 100);
                if let ReadMode::Strided { severity } = m {
                    prop_assert!(severity >= 1 && severity <= c.max_severity);
                    prop_assert!(severity.is_power_of_two());
                }
            }
        }
    }
}
