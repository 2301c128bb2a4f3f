//! Record sinks — the streaming counterpart of an in-memory [`Trace`].
//!
//! A [`RecordSink`] consumes trace records as they are produced (by the
//! simulated MPI runtime or by a trace decoder) without requiring the
//! whole event stream to be buffered. Records arrive in blocks, and
//! [`RecordSink::push_block`] is the one record method a sink
//! implements: [`RecordSink::push`] is a block of one. The in-memory
//! [`Trace`], the fixed-memory [`OnlineProfile`], and the binary-format
//! encoder [`crate::ptb2::Ptb2Writer`] are all sinks; `pio-ingest` adds
//! the online diagnoser and the ensemble-snapshot builder behind the
//! same trait, and [`Tee`] runs two sinks over one stream.

use crate::profile::OnlineProfile;
use crate::record::Record;
use crate::trace::Trace;

/// A consumer of a record stream.
///
/// Implementations must accept records in the order the producer emits
/// them; nothing else is guaranteed (in particular, records from
/// different ranks interleave arbitrarily within a phase).
pub trait RecordSink {
    /// Consume a block of records, in order — a sink's only record
    /// path. Block boundaries are the producer's choice (a decoder hands
    /// over each decoded block, the simulator one record at a time), so
    /// an implementation must reach bit-identical state for any
    /// partition of the same stream into blocks. Batch-aware sinks (the
    /// snapshot builder, the fleet transport, the analysis sketches)
    /// amortize dispatch, routing, and bin classification across a
    /// block.
    fn push_block(&mut self, block: &[Record]);

    /// Consume one record: a block of one.
    fn push(&mut self, r: &Record) {
        self.push_block(std::slice::from_ref(r));
    }

    /// A barrier-phase boundary: every rank has finished `phase`. Online
    /// analyses use this to close per-phase windows; buffering sinks may
    /// ignore it.
    fn phase_end(&mut self, _phase: u32) {}

    /// The stream is complete; flush any buffered state.
    fn finish(&mut self) {}
}

impl RecordSink for Trace {
    fn push_block(&mut self, block: &[Record]) {
        self.records.extend_from_slice(block);
    }
}

impl RecordSink for OnlineProfile {
    fn push_block(&mut self, block: &[Record]) {
        self.record_all(block);
    }
}

/// The null sink: discards everything (capture disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RecordSink for NullSink {
    fn push_block(&mut self, _block: &[Record]) {}
}

/// Duplicate a stream into two sinks (e.g. keep the full trace while
/// streaming into an online pipeline).
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: RecordSink, B: RecordSink> RecordSink for Tee<A, B> {
    fn push_block(&mut self, block: &[Record]) {
        self.0.push_block(block);
        self.1.push_block(block);
    }

    fn phase_end(&mut self, phase: u32) {
        self.0.phase_end(phase);
        self.1.phase_end(phase);
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }
}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn push_block(&mut self, block: &[Record]) {
        (**self).push_block(block);
    }

    fn phase_end(&mut self, phase: u32) {
        (**self).phase_end(phase);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

impl<S: RecordSink + ?Sized> RecordSink for Box<S> {
    fn push_block(&mut self, block: &[Record]) {
        (**self).push_block(block);
    }

    fn phase_end(&mut self, phase: u32) {
        (**self).phase_end(phase);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CallKind;
    use crate::trace::TraceMeta;

    fn rec(i: u32) -> Record {
        Record {
            rank: i,
            call: CallKind::Write,
            fd: 3,
            offset: 0,
            bytes: 8,
            start_ns: 0,
            end_ns: 1_000_000,
            phase: 0,
        }
    }

    #[test]
    fn trace_and_profile_are_sinks() {
        let mut trace = Trace::new(TraceMeta {
            experiment: "sink".into(),
            platform: "test".into(),
            ranks: 4,
            seed: 0,
        });
        let mut profile = OnlineProfile::default();
        {
            let mut tee = Tee(&mut trace, &mut profile);
            for i in 0..4 {
                tee.push(&rec(i));
            }
            tee.phase_end(0);
            tee.finish();
        }
        assert_eq!(trace.records.len(), 4);
        assert_eq!(profile.count(CallKind::Write), 4);
    }

    #[test]
    fn null_sink_discards() {
        let mut sink = NullSink;
        sink.push(&rec(0));
        sink.finish();
    }

    #[test]
    fn push_block_matches_per_record_push_through_tee() {
        let meta = |name: &str| TraceMeta {
            experiment: name.into(),
            platform: "test".into(),
            ranks: 8,
            seed: 0,
        };
        let block: Vec<Record> = (0..16).map(|i| rec(i % 8)).collect();
        let mut ta = Trace::new(meta("tee"));
        let mut tb = Trace::new(meta("tee"));
        Tee(&mut ta, &mut tb).push_block(&block);
        assert_eq!(ta.records, block);
        assert_eq!(tb.records, block);

        let mut pa = OnlineProfile::default();
        let mut pb = OnlineProfile::default();
        {
            let mut tee = Tee(&mut ta, &mut pa);
            for r in &block {
                tee.push(r);
            }
        }
        Tee(&mut tb, &mut pb).push_block(&block);
        assert_eq!(ta.records, tb.records);
        assert_eq!(pa.count(CallKind::Write), pb.count(CallKind::Write));
        assert_eq!(pa.hist(CallKind::Write), pb.hist(CallKind::Write));
    }
}
