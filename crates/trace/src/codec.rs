//! Phase-boundary synthesis for trace decoders.
//!
//! A saved trace carries barrier phases only as each record's phase
//! index. [`PhaseTracker`] turns those indices back into
//! [`RecordSink::phase_end`] events as decoded blocks flow through it, so
//! [`TraceFormat::stream`](crate::io::TraceFormat::stream) hands online
//! consumers (`pio-ingest`, `pio-fleetd`) the same event sequence
//! whatever the encoding and whatever the block boundaries.

use crate::record::Record;
use crate::sink::RecordSink;

/// Tracks phase progression in a record stream and synthesizes
/// [`RecordSink::phase_end`] events.
///
/// The stream completes phases in order, so when a record's phase index
/// jumps from `p` to `q > p`, every phase in `p..q` has ended. Every
/// format's [`stream`](crate::io::TraceFormat::stream) arm runs through
/// it, so phase boundaries are format-independent.
pub struct PhaseTracker {
    phase: u32,
    saw_record: bool,
}

impl PhaseTracker {
    /// A tracker that has seen no records yet.
    pub fn new() -> Self {
        PhaseTracker {
            phase: 0,
            saw_record: false,
        }
    }

    /// Observe a decoded block and push it: runs of records that share
    /// the current phase flow to the sink via
    /// [`RecordSink::push_block`]. Before the first record of a higher
    /// phase, `phase_end` fires for every phase the stream has just
    /// completed, so the sink sees the same event sequence whatever the
    /// block boundaries; only the granularity of delivery changes.
    pub fn on_block(&mut self, block: &[Record], sink: &mut dyn RecordSink) {
        let mut start = 0;
        for (i, rec) in block.iter().enumerate() {
            if self.saw_record {
                if rec.phase > self.phase {
                    if start < i {
                        sink.push_block(&block[start..i]);
                        start = i;
                    }
                    for p in self.phase..rec.phase {
                        sink.phase_end(p);
                    }
                    self.phase = rec.phase;
                }
            } else {
                self.phase = self.phase.max(rec.phase);
                self.saw_record = true;
            }
        }
        if start < block.len() {
            sink.push_block(&block[start..]);
        }
    }

    /// End of stream: close the final phase (if any) and call
    /// `sink.finish()`.
    pub fn finish(&mut self, sink: &mut dyn RecordSink) {
        if self.saw_record {
            sink.phase_end(self.phase);
        }
        sink.finish();
    }
}

impl Default for PhaseTracker {
    fn default() -> Self {
        PhaseTracker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CallKind;

    #[test]
    fn on_block_fires_the_same_event_sequence_for_any_block_size() {
        #[derive(Default, PartialEq, Debug)]
        struct Log {
            events: Vec<(Option<Record>, Option<u32>)>,
        }
        impl RecordSink for Log {
            fn push_block(&mut self, block: &[Record]) {
                for r in block {
                    self.events.push((Some(r.clone()), None));
                }
            }
            fn phase_end(&mut self, phase: u32) {
                self.events.push((None, Some(phase)));
            }
        }
        let mk = |phase: u32, i: u64| Record {
            rank: (i % 4) as u32,
            call: CallKind::Read,
            fd: 3,
            offset: i * 4096,
            bytes: 4096,
            start_ns: i,
            end_ns: i + 10,
            phase,
        };
        // First record starts at phase 2, a phase skip (3 → 6), a
        // stale lower-phase record mid-stream, and a split across
        // blocks of awkward sizes.
        let phases_seq = [2u32, 2, 3, 3, 1, 6, 6, 0, 6, 7, 7, 7, 9];
        let records: Vec<Record> = phases_seq
            .iter()
            .enumerate()
            .map(|(i, &p)| mk(p, i as u64))
            .collect();
        // The reference, record by record: before a record of a higher
        // phase than any seen, end every phase it skips past; a stale
        // lower phase ends nothing. The last phase ends at end of stream.
        let mut per_record = Log::default();
        let mut phase: Option<u32> = None;
        for r in &records {
            if let Some(p) = phase.filter(|&p| r.phase > p) {
                for ended in p..r.phase {
                    per_record.events.push((None, Some(ended)));
                }
            }
            phase = Some(phase.map_or(r.phase, |p| p.max(r.phase)));
            per_record.events.push((Some(r.clone()), None));
        }
        if let Some(p) = phase {
            per_record.events.push((None, Some(p)));
        }
        for block_size in [1, 2, 3, 5, 13, 64] {
            let mut blocked = Log::default();
            let mut tracker = PhaseTracker::new();
            for chunk in records.chunks(block_size) {
                tracker.on_block(chunk, &mut blocked);
            }
            tracker.finish(&mut blocked);
            assert_eq!(blocked, per_record, "block_size={block_size}");
        }
    }
}
