//! Record sinks — the streaming counterpart of an in-memory [`Trace`].
//!
//! A [`RecordSink`] consumes trace records as they are produced (by the
//! simulated MPI runtime or by a JSONL reader) without requiring the
//! whole event stream to be buffered. The in-memory [`Trace`], the
//! fixed-memory [`OnlineProfile`], and the binary-format encoder
//! [`crate::ptb2::Ptb2Writer`] are all sinks; `pio-ingest` adds the
//! online diagnoser and the ensemble-snapshot builder behind the same
//! trait, and [`Tee`] runs both over one stream.

use crate::profile::OnlineProfile;
use crate::record::Record;
use crate::trace::Trace;

/// A consumer of a record stream.
///
/// Implementations must accept records in the order the producer emits
/// them; nothing else is guaranteed (in particular, records from
/// different ranks interleave arbitrarily within a phase).
pub trait RecordSink {
    /// Consume one record.
    fn push(&mut self, r: &Record);

    /// Consume a block of records — semantically identical to calling
    /// [`Self::push`] once per record, in order (the default does
    /// exactly that). Decoders that already hold a decoded block hand
    /// it over in one call so batch-aware sinks (the snapshot builder,
    /// the fleet transport, the analysis sketches) can amortize
    /// dispatch, routing, and bin classification across the block.
    /// Implementations must produce bit-identical state to the
    /// per-record loop for any block partitioning of the same stream.
    fn push_block(&mut self, block: &[Record]) {
        for r in block {
            self.push(r);
        }
    }

    /// A barrier-phase boundary: every rank has finished `phase`. Online
    /// analyses use this to close per-phase windows; buffering sinks may
    /// ignore it.
    fn phase_end(&mut self, _phase: u32) {}

    /// The stream is complete; flush any buffered state.
    fn finish(&mut self) {}
}

impl RecordSink for Trace {
    fn push(&mut self, r: &Record) {
        Trace::push(self, r.clone());
    }

    fn push_block(&mut self, block: &[Record]) {
        self.records.extend_from_slice(block);
    }
}

impl RecordSink for OnlineProfile {
    fn push(&mut self, r: &Record) {
        self.record(r);
    }
}

/// The null sink: discards everything (capture disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl RecordSink for NullSink {
    fn push(&mut self, _r: &Record) {}

    fn push_block(&mut self, _block: &[Record]) {}
}

/// Duplicate a stream into two sinks (e.g. keep the full trace while
/// streaming into an online pipeline).
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: RecordSink, B: RecordSink> RecordSink for Tee<A, B> {
    fn push(&mut self, r: &Record) {
        self.0.push(r);
        self.1.push(r);
    }

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

/// Split one stream across several sinks by a per-record routing key —
/// the demultiplexer for multi-tenant streams (e.g. one merged capture
/// stream fanned back out to per-job consumers, or per-rank-range
/// splitting of a shared stream). `route` maps a record to a sink index
/// (clamped into range); phase boundaries and end-of-stream are
/// broadcast to every sink, since they are stream-wide events.
pub struct Demux<S, F> {
    sinks: Vec<S>,
    route: F,
}

impl<S: RecordSink, F: FnMut(&Record) -> usize> Demux<S, F> {
    /// A demux over `sinks` (must be non-empty) routed by `route`.
    pub fn new(sinks: Vec<S>, route: F) -> Self {
        assert!(!sinks.is_empty(), "demux needs at least one sink");
        Demux { sinks, route }
    }

    /// The routed sinks, back (e.g. to collect per-tenant results).
    pub fn into_sinks(self) -> Vec<S> {
        self.sinks
    }

    /// Routed sink count.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Always false: construction requires at least one sink.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl<S: RecordSink, F: FnMut(&Record) -> usize> RecordSink for Demux<S, F> {
    fn push(&mut self, r: &Record) {
        let i = (self.route)(r).min(self.sinks.len() - 1);
        self.sinks[i].push(r);
    }

    fn push_block(&mut self, block: &[Record]) {
        // Forward maximal same-route runs as sub-blocks; per-sink
        // record order is unchanged, so this is identical to routing
        // record by record.
        let mut start = 0;
        while start < block.len() {
            let route = (self.route)(&block[start]).min(self.sinks.len() - 1);
            let mut end = start + 1;
            while end < block.len() && (self.route)(&block[end]).min(self.sinks.len() - 1) == route
            {
                end += 1;
            }
            self.sinks[route].push_block(&block[start..end]);
            start = end;
        }
    }

    fn phase_end(&mut self, phase: u32) {
        for s in &mut self.sinks {
            s.phase_end(phase);
        }
    }

    fn finish(&mut self) {
        for s in &mut self.sinks {
            s.finish();
        }
    }
}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn push(&mut self, r: &Record) {
        (**self).push(r);
    }

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
    fn push(&mut self, r: &Record) {
        (**self).push(r);
    }

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
    fn demux_routes_records_and_broadcasts_boundaries() {
        let meta = |name: &str| TraceMeta {
            experiment: name.into(),
            platform: "test".into(),
            ranks: 8,
            seed: 0,
        };
        let sinks = vec![Trace::new(meta("a")), Trace::new(meta("b"))];
        let mut demux = Demux::new(sinks, |r: &Record| (r.rank / 4) as usize);
        for i in 0..8 {
            demux.push(&rec(i));
        }
        demux.phase_end(0);
        demux.finish();
        let traces = demux.into_sinks();
        assert_eq!(traces[0].records.len(), 4);
        assert_eq!(traces[1].records.len(), 4);
        assert!(traces[0].records.iter().all(|r| r.rank < 4));
        assert!(traces[1].records.iter().all(|r| r.rank >= 4));
    }

    #[test]
    fn push_block_matches_per_record_push_through_demux_and_tee() {
        let meta = |name: &str| TraceMeta {
            experiment: name.into(),
            platform: "test".into(),
            ranks: 8,
            seed: 0,
        };
        let block: Vec<Record> = (0..16).map(|i| rec(i % 8)).collect();
        let route = |r: &Record| (r.rank / 4) as usize;
        let mut blocked = Demux::new(vec![Trace::new(meta("a")), Trace::new(meta("b"))], route);
        let mut recorded = Demux::new(vec![Trace::new(meta("a")), Trace::new(meta("b"))], route);
        blocked.push_block(&block);
        for r in &block {
            recorded.push(r);
        }
        let (b, r) = (blocked.into_sinks(), recorded.into_sinks());
        assert_eq!(b[0].records, r[0].records);
        assert_eq!(b[1].records, r[1].records);

        let mut ta = Trace::new(meta("tee"));
        let mut tb = Trace::new(meta("tee"));
        Tee(&mut ta, &mut tb).push_block(&block);
        assert_eq!(ta.records, block);
        assert_eq!(tb.records, block);
    }

    #[test]
    fn demux_clamps_out_of_range_routes() {
        let mut demux = Demux::new(
            vec![Trace::new(TraceMeta {
                experiment: "only".into(),
                platform: "test".into(),
                ranks: 4,
                seed: 0,
            })],
            |r: &Record| r.rank as usize * 100,
        );
        for i in 0..4 {
            demux.push(&rec(i));
        }
        assert_eq!(demux.len(), 1);
        assert_eq!(demux.into_sinks()[0].records.len(), 4);
    }
}
