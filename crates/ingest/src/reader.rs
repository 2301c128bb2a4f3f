//! Incremental trace reading: one record (JSONL) or one block (ptb2) in
//! memory at a time.
//!
//! All streaming goes through the
//! [`TraceCodec`](pio_trace::codec::TraceCodec) registry in
//! `pio_trace::codec`: each codec decodes incrementally into a
//! [`RecordSink`] without ever materializing a
//! [`Trace`](pio_trace::Trace), so a multi-gigabyte trace can be
//! diagnosed in constant memory. [`stream_file`] sniffs the format from
//! the file's leading bytes so callers need not care;
//! [`stream_jsonl`] / [`stream_ptb2`] pin a format for in-memory
//! readers.
//!
//! Barrier boundaries are synthesized from the records' phase indices:
//! when the stream advances from phase `p` to `p+1`, every phase up to
//! `p` is complete and the sink's [`phase_end`](RecordSink::phase_end)
//! fires for it (see `pio_trace::codec::PhaseTracker`).

use pio_trace::codec::codec_for;
use pio_trace::io::TraceFormat;
use pio_trace::{RecordSink, TraceMeta};
use std::io::{BufRead, BufReader, Read};

/// Stream a JSONL trace into `sink`. Returns the trace metadata and the
/// number of records streamed. Calls `sink.finish()` at end of stream.
pub fn stream_jsonl<R: BufRead, S: RecordSink>(
    mut reader: R,
    sink: &mut S,
) -> std::io::Result<(TraceMeta, u64)> {
    codec_for(TraceFormat::Jsonl).stream(&mut reader, sink)
}

/// Stream a binary ptb2 trace into `sink` (same contract as
/// [`stream_jsonl`]: phase boundaries synthesized, `finish()` called).
pub fn stream_ptb2<R: Read, S: RecordSink>(
    reader: R,
    sink: &mut S,
) -> std::io::Result<(TraceMeta, u64)> {
    codec_for(TraceFormat::Ptb2).stream(&mut BufReader::new(reader), sink)
}

/// Stream a trace file into `sink`, sniffing the format from the file's
/// leading bytes (see [`TraceFormat::sniff`]).
pub fn stream_file<S: RecordSink>(
    path: &std::path::Path,
    sink: &mut S,
) -> std::io::Result<(TraceMeta, u64)> {
    let codec = codec_for(TraceFormat::sniff(path)?);
    let f = std::fs::File::open(path)?;
    codec.stream(&mut BufReader::new(f), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_trace::io::write_jsonl;
    use pio_trace::ptb2::write_ptb2;
    use pio_trace::{CallKind, Record, Trace};

    fn sample(phases: u32, per_phase: u32) -> Trace {
        let mut t = Trace::new(TraceMeta {
            experiment: "stream".into(),
            platform: "test".into(),
            ranks: 8,
            seed: 1,
        });
        for p in 0..phases {
            for i in 0..per_phase {
                t.push(Record {
                    rank: i % 8,
                    call: CallKind::Read,
                    fd: 3,
                    offset: 0,
                    bytes: 4096,
                    start_ns: 0,
                    end_ns: 1_000_000,
                    phase: p,
                });
            }
        }
        t
    }

    /// Sink that logs the event sequence for ordering assertions.
    #[derive(Default)]
    struct EventLog {
        pushes: u64,
        phase_ends: Vec<u32>,
        finished: bool,
    }

    impl RecordSink for EventLog {
        fn push_block(&mut self, block: &[Record]) {
            self.pushes += block.len() as u64;
        }
        fn phase_end(&mut self, phase: u32) {
            self.phase_ends.push(phase);
        }
        fn finish(&mut self) {
            self.finished = true;
        }
    }

    #[test]
    fn streaming_matches_batch_read() {
        let t = sample(3, 10);
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();

        let mut collected = Trace::new(t.meta.clone());
        let (meta, n) = stream_jsonl(std::io::Cursor::new(&buf), &mut collected).unwrap();
        assert_eq!(meta, t.meta);
        assert_eq!(n, 30);
        assert_eq!(collected.records, t.records);
    }

    #[test]
    fn binary_streaming_matches_jsonl_streaming() {
        let t = sample(3, 10);
        let mut jsonl = Vec::new();
        write_jsonl(&t, &mut jsonl).unwrap();
        let mut ptb2 = Vec::new();
        write_ptb2(&t, &mut ptb2).unwrap();

        let mut from_jsonl = EventLog::default();
        let (m1, n1) = stream_jsonl(std::io::Cursor::new(&jsonl), &mut from_jsonl).unwrap();
        let mut from_ptb2 = EventLog::default();
        let (m2, n2) = stream_ptb2(std::io::Cursor::new(&ptb2), &mut from_ptb2).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(n1, n2);
        assert_eq!(from_jsonl.pushes, from_ptb2.pushes);
        assert_eq!(from_jsonl.phase_ends, from_ptb2.phase_ends);
        assert!(from_ptb2.finished);

        let mut collected = Trace::new(t.meta.clone());
        stream_ptb2(std::io::Cursor::new(&ptb2), &mut collected).unwrap();
        assert_eq!(collected.records, t.records);
    }

    #[test]
    fn stream_file_sniffs_every_format() {
        let dir = std::env::temp_dir().join("pio_ingest_sniff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample(2, 6);
        for format in TraceFormat::ALL {
            let p = dir.join(format!("t.{}", format.name()));
            pio_trace::io::save_as(&t, &p, format).unwrap();
            let mut log = EventLog::default();
            let (meta, n) = stream_file(&p, &mut log).unwrap();
            assert_eq!(meta, t.meta, "{p:?}");
            assert_eq!(n, 12, "{p:?}");
            assert_eq!(log.phase_ends, vec![0, 1], "{p:?}");
            std::fs::remove_file(&p).ok();
        }
        // A retired ptb v1 file is refused before the sink sees anything.
        let p = dir.join("retired.ptb");
        std::fs::write(&p, b"PTB1\x02\x00\x00\x00{}").unwrap();
        let mut log = EventLog::default();
        let err = stream_file(&p, &mut log).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
        assert!(err.to_string().contains("version '1'"), "{err}");
        assert!(!log.finished);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn phase_boundaries_are_synthesized_in_order() {
        let t = sample(3, 5);
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let mut log = EventLog::default();
        stream_jsonl(std::io::Cursor::new(&buf), &mut log).unwrap();
        assert_eq!(log.pushes, 15);
        assert_eq!(log.phase_ends, vec![0, 1, 2]);
        assert!(log.finished);
    }

    #[test]
    fn empty_stream_is_an_error() {
        let mut log = EventLog::default();
        let err = stream_jsonl(std::io::Cursor::new(Vec::new()), &mut log).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn meta_only_stream_finishes_cleanly() {
        let t = sample(0, 0);
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let mut log = EventLog::default();
        let (_, n) = stream_jsonl(std::io::Cursor::new(&buf), &mut log).unwrap();
        assert_eq!(n, 0);
        assert!(log.phase_ends.is_empty());
        assert!(log.finished);
    }
}
