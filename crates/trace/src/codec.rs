//! The [`TraceCodec`] abstraction: one object per on-disk trace format,
//! with uniform sniff / read / write / stream entry points and a static
//! registry.
//!
//! Every consumer (`mktrace`, `analyze`, `trace_convert`, `stream_file`,
//! …) goes through [`codec_for`] / [`sniff_codec`] instead of carrying
//! its own `match TraceFormat { … }` arm, so a format is one
//! `TraceCodec` impl plus one registry entry. The registry holds two:
//! JSONL (interchange) and ptb2 (the binary fast path). A `PTB1` head
//! (the retired row-major v1) sniffs as an unsupported ptb version.
//!
//! Streaming goes through the same trait: [`TraceCodec::stream`] decodes
//! incrementally into a [`RecordSink`], synthesizing barrier-phase
//! boundaries via [`PhaseTracker`] so online consumers (`pio-ingest`,
//! `pio-fleetd`) see identical event sequences whatever the encoding.

use crate::io::{read_jsonl, write_jsonl, TraceFormat};
use crate::ptb2::{read_ptb2, write_ptb2, Ptb2BlockReader, PTB2_MAGIC};
use crate::record::Record;
use crate::sink::RecordSink;
use crate::trace::{Trace, TraceMeta};
use std::io::{self, BufRead, Write};

/// Tracks phase progression in a record stream and synthesizes
/// [`RecordSink::phase_end`] events.
///
/// The stream completes phases in order, so when a record's phase index
/// jumps from `p` to `q > p`, every phase in `p..q` has ended. Shared by
/// every codec's [`stream`](TraceCodec::stream) implementation so phase
/// boundaries are format-independent.
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

/// One on-disk trace encoding, with every entry point a consumer needs.
///
/// Implementations are stateless unit structs registered in the static
/// codec table; call sites hold `&'static dyn TraceCodec`.
pub trait TraceCodec: Sync {
    /// The [`TraceFormat`] tag this codec implements.
    fn format(&self) -> TraceFormat;

    /// Canonical format name (also the conventional file extension).
    fn name(&self) -> &'static str {
        self.format().name()
    }

    /// Whether `head` (a file's leading bytes, possibly fewer than
    /// requested) identifies this codec's encoding.
    fn sniff(&self, head: &[u8]) -> bool;

    /// Read a whole trace.
    fn read(&self, r: &mut dyn BufRead) -> io::Result<Trace>;

    /// Write a whole trace.
    fn write(&self, trace: &Trace, w: &mut dyn Write) -> io::Result<()>;

    /// Stream a trace into `sink` without materializing it: one record
    /// (text) or one block (binary) in memory at a time, phase
    /// boundaries synthesized, `sink.finish()` called at end of stream.
    /// Returns the trace metadata and the number of records streamed.
    fn stream(
        &self,
        r: &mut dyn BufRead,
        sink: &mut dyn RecordSink,
    ) -> io::Result<(TraceMeta, u64)>;
}

/// The JSONL text codec (metadata line, then one record per line).
pub struct JsonlCodec;

impl TraceCodec for JsonlCodec {
    fn format(&self) -> TraceFormat {
        TraceFormat::Jsonl
    }

    fn sniff(&self, head: &[u8]) -> bool {
        head.iter()
            .find(|b| !b.is_ascii_whitespace())
            .is_some_and(|&b| b == b'{')
    }

    fn read(&self, r: &mut dyn BufRead) -> io::Result<Trace> {
        read_jsonl(r)
    }

    fn write(&self, trace: &Trace, w: &mut dyn Write) -> io::Result<()> {
        write_jsonl(trace, w)
    }

    fn stream(
        &self,
        r: &mut dyn BufRead,
        sink: &mut dyn RecordSink,
    ) -> io::Result<(TraceMeta, u64)> {
        let mut buf = String::new();
        if r.read_line(&mut buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "empty trace stream",
            ));
        }
        let meta: TraceMeta = serde_json::from_str(buf.trim_end())?;
        let mut count = 0u64;
        let mut phases = PhaseTracker::new();
        // Parse into a reused block so downstream sinks get the same
        // batched delivery as the binary codecs.
        const JSONL_BLOCK: usize = 512;
        let mut block: Vec<Record> = Vec::with_capacity(JSONL_BLOCK);
        loop {
            buf.clear();
            let eof = r.read_line(&mut buf)? == 0;
            if !eof {
                let line = buf.trim();
                if line.is_empty() {
                    continue;
                }
                block.push(crate::jsonl::parse_record(line)?);
                count += 1;
            }
            if block.len() >= JSONL_BLOCK || (eof && !block.is_empty()) {
                phases.on_block(&block, sink);
                block.clear();
            }
            if eof {
                break;
            }
        }
        phases.finish(sink);
        Ok((meta, count))
    }
}

/// The columnar binary v2 codec (structure-of-arrays blocks).
pub struct Ptb2Codec;

impl TraceCodec for Ptb2Codec {
    fn format(&self) -> TraceFormat {
        TraceFormat::Ptb2
    }

    fn sniff(&self, head: &[u8]) -> bool {
        head.len() >= 4 && head[..4] == PTB2_MAGIC
    }

    fn read(&self, r: &mut dyn BufRead) -> io::Result<Trace> {
        read_ptb2(r)
    }

    fn write(&self, trace: &Trace, w: &mut dyn Write) -> io::Result<()> {
        write_ptb2(trace, w)
    }

    fn stream(
        &self,
        r: &mut dyn BufRead,
        sink: &mut dyn RecordSink,
    ) -> io::Result<(TraceMeta, u64)> {
        let mut dec = Ptb2BlockReader::new(r)?;
        let meta = dec.meta().clone();
        let mut phases = PhaseTracker::new();
        while let Some(block) = dec.next_block()? {
            phases.on_block(block, sink);
        }
        phases.finish(sink);
        Ok((meta, dec.records_read()))
    }
}

/// Every registered codec, the magic-bearing binary format first (JSONL
/// last because its sniff is the loosest).
static CODECS: [&dyn TraceCodec; 2] = [&Ptb2Codec, &JsonlCodec];

/// The static codec registry.
pub fn codecs() -> &'static [&'static dyn TraceCodec] {
    &CODECS
}

/// The codec implementing `format`.
pub fn codec_for(format: TraceFormat) -> &'static dyn TraceCodec {
    codecs()
        .iter()
        .copied()
        .find(|c| c.format() == format)
        .expect("every TraceFormat has a registered codec")
}

/// Identify the codec for a file from its leading bytes.
///
/// Unrecognized content is a clean [`io::ErrorKind::Unsupported`] error
/// — including heads shorter than any magic prefix and `PTB` files with
/// an unknown version byte (the retired `PTB1` among them) — never a
/// panic or a misdetection.
pub fn sniff_codec(head: &[u8]) -> io::Result<&'static dyn TraceCodec> {
    if let Some(c) = codecs().iter().copied().find(|c| c.sniff(head)) {
        return Ok(c);
    }
    let msg = if head.len() < 4 {
        format!(
            "trace too short to identify a format ({} byte{})",
            head.len(),
            if head.len() == 1 { "" } else { "s" }
        )
    } else if head.starts_with(b"PTB") {
        format!(
            "unsupported ptb format version {:?} (known: jsonl, ptb2)",
            head[3] as char
        )
    } else {
        "unrecognized trace format (expected jsonl or ptb2)".to_string()
    };
    Err(io::Error::new(io::ErrorKind::Unsupported, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CallKind;

    fn sample() -> Trace {
        let mut t = Trace::new(TraceMeta {
            experiment: "codec".into(),
            platform: "test".into(),
            ranks: 4,
            seed: 5,
        });
        for i in 0..200u64 {
            t.push(Record {
                rank: (i % 4) as u32,
                call: if i % 3 == 0 {
                    CallKind::Write
                } else {
                    CallKind::Read
                },
                fd: 3,
                offset: i * 4096,
                bytes: 4096,
                start_ns: i * 1_000,
                end_ns: i * 1_000 + 700,
                phase: (i / 50) as u32,
            });
        }
        t
    }

    #[test]
    fn every_codec_round_trips_and_self_sniffs() {
        let t = sample();
        for codec in codecs() {
            let mut buf = Vec::new();
            codec.write(&t, &mut buf).unwrap();
            assert!(codec.sniff(&buf), "{} does not sniff itself", codec.name());
            // No other codec claims these bytes.
            for other in codecs() {
                if other.format() != codec.format() {
                    assert!(
                        !other.sniff(&buf),
                        "{} sniffs {}",
                        other.name(),
                        codec.name()
                    );
                }
            }
            let back = codec.read(&mut io::BufReader::new(&buf[..])).unwrap();
            assert_eq!(back, t, "{} round trip", codec.name());
            assert_eq!(sniff_codec(&buf).unwrap().format(), codec.format());
        }
    }

    #[test]
    fn every_codec_streams_the_same_events() {
        let t = sample();
        #[derive(Default, PartialEq, Debug)]
        struct Log {
            records: Vec<Record>,
            phase_ends: Vec<u32>,
            finished: bool,
        }
        impl RecordSink for Log {
            fn push_block(&mut self, block: &[Record]) {
                self.records.extend_from_slice(block);
            }
            fn phase_end(&mut self, phase: u32) {
                self.phase_ends.push(phase);
            }
            fn finish(&mut self) {
                self.finished = true;
            }
        }
        let mut logs = Vec::new();
        for codec in codecs() {
            let mut buf = Vec::new();
            codec.write(&t, &mut buf).unwrap();
            let mut log = Log::default();
            let (meta, n) = codec
                .stream(&mut io::BufReader::new(&buf[..]), &mut log)
                .unwrap();
            assert_eq!(meta, t.meta, "{}", codec.name());
            assert_eq!(n, 200, "{}", codec.name());
            assert_eq!(log.records, t.records, "{}", codec.name());
            assert_eq!(log.phase_ends, vec![0, 1, 2, 3], "{}", codec.name());
            assert!(log.finished, "{}", codec.name());
            logs.push(log);
        }
        assert!(logs.windows(2).all(|w| w[0] == w[1]));
    }

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

    #[test]
    fn short_heads_are_a_clean_unsupported_error() {
        for head in [&b""[..], &b"P"[..], &b"PTB"[..], &b"\x00"[..]] {
            let err = sniff_codec(head).map(|c| c.format()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported, "head={head:?}");
            assert!(err.to_string().contains("short"), "head={head:?}: {err}");
        }
    }

    #[test]
    fn unknown_ptb_version_names_the_version() {
        for (head, version) in [(b"PTB9....", "'9'"), (b"PTB1....", "'1'")] {
            let err = sniff_codec(head).map(|c| c.format()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported);
            let msg = err.to_string();
            assert!(msg.contains(&format!("version {version}")), "{msg}");
            assert!(msg.contains("known: jsonl, ptb2"), "{msg}");
        }
        let err = sniff_codec(b"garbage.").map(|c| c.format()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn jsonl_sniff_skips_leading_whitespace() {
        assert!(JsonlCodec.sniff(b"  \n{\"experiment\""));
        assert!(JsonlCodec.sniff(b"{"));
        assert!(!JsonlCodec.sniff(b"   "));
        assert!(!JsonlCodec.sniff(b""));
    }

    #[test]
    fn codec_for_covers_every_format() {
        for f in TraceFormat::ALL {
            assert_eq!(codec_for(f).format(), f);
            assert_eq!(codec_for(f).name(), f.name());
        }
    }
}
