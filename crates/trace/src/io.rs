//! Trace serialization: JSONL (one record per line, as IPM-I/O "emits the
//! entire trace"), the binary [`ptb2`](crate::ptb2) format, and CSV for
//! plotting tools.
//!
//! [`TraceFormat`] is the one switch over the on-disk encodings: sniff,
//! read, write and stream are each one exhaustive `match` over its two
//! variants, so a format is one enum arm the compiler checks at every
//! entry point. Trace files have one front door beside it — [`load`],
//! [`save_as`] and [`stream_file`] — and the readers sniff the format
//! from the file's leading bytes, so every consumer transparently reads
//! both.

use crate::codec::PhaseTracker;
use crate::ptb2::{read_ptb2, write_ptb2, Ptb2BlockReader, PTB2_MAGIC};
use crate::sink::RecordSink;
use crate::trace::{Trace, TraceMeta};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Records the JSONL decoder parses before handing a block to the sink,
/// so downstream sinks get the same batched delivery as from ptb2.
const JSONL_BLOCK: usize = 512;

/// An on-disk trace encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Text: one JSON object per line (meta first).
    Jsonl,
    /// Binary: CRC-checked columnar blocks with per-column compression
    /// (see [`crate::ptb2`]).
    Ptb2,
}

impl TraceFormat {
    /// Every known format.
    pub const ALL: [TraceFormat; 2] = [TraceFormat::Ptb2, TraceFormat::Jsonl];

    /// Parse a user-facing format name (`"jsonl"` / `"ptb2"`).
    pub fn from_name(name: &str) -> Option<TraceFormat> {
        match name {
            "jsonl" => Some(TraceFormat::Jsonl),
            "ptb2" => Some(TraceFormat::Ptb2),
            _ => None,
        }
    }

    /// The canonical name (also the conventional file extension).
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Ptb2 => "ptb2",
        }
    }

    /// Infer a format from a path's extension (`t.ptb2` → `Ptb2`).
    pub fn from_extension(path: &Path) -> Option<TraceFormat> {
        path.extension()
            .and_then(|e| e.to_str())
            .and_then(TraceFormat::from_name)
    }

    /// Classify a file's leading bytes (possibly fewer than four).
    ///
    /// The ptb2 magic is tried first; JSONL, whose test is the loosest
    /// (the first non-whitespace byte is `{`), second. Heads shorter
    /// than any magic prefix, `PTB` files with an unknown version byte
    /// (including the retired `PTB1`), and content neither format
    /// claims are all a clean [`io::ErrorKind::Unsupported`] error —
    /// never a panic or a misdetection.
    pub fn sniff_bytes(head: &[u8]) -> io::Result<TraceFormat> {
        let text = head.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{');
        let msg = match head {
            _ if head.starts_with(&PTB2_MAGIC) => return Ok(TraceFormat::Ptb2),
            _ if text => return Ok(TraceFormat::Jsonl),
            _ if head.len() < PTB2_MAGIC.len() => format!(
                "trace too short to identify a format ({} byte{})",
                head.len(),
                if head.len() == 1 { "" } else { "s" }
            ),
            [b'P', b'T', b'B', version, ..] => format!(
                "unsupported ptb format version {:?} (known: jsonl, ptb2)",
                *version as char
            ),
            _ => "unrecognized trace format (expected jsonl or ptb2)".to_string(),
        };
        Err(io::Error::new(io::ErrorKind::Unsupported, msg))
    }

    /// Sniff a file's format from its first bytes.
    pub fn sniff(path: &Path) -> io::Result<TraceFormat> {
        use std::io::Read;
        let mut head = [0u8; 8];
        let mut f = std::fs::File::open(path)?;
        let mut n = 0;
        // File reads may return short counts; fill what we can.
        while n < head.len() {
            let got = f.read(&mut head[n..])?;
            if got == 0 {
                break;
            }
            n += got;
        }
        TraceFormat::sniff_bytes(&head[..n])
    }

    /// Read a whole trace in this format.
    pub fn read(self, r: impl BufRead) -> io::Result<Trace> {
        match self {
            TraceFormat::Jsonl => read_jsonl(r),
            TraceFormat::Ptb2 => read_ptb2(r),
        }
    }

    /// Write a whole trace in this format.
    pub fn write(self, trace: &Trace, w: impl Write) -> io::Result<()> {
        match self {
            TraceFormat::Jsonl => write_jsonl(trace, w),
            TraceFormat::Ptb2 => write_ptb2(trace, w),
        }
    }

    /// Stream a trace in this format into `sink` without materializing
    /// it: one block of records in memory at a time, barrier-phase
    /// boundaries synthesized by a [`PhaseTracker`], and `sink.finish()`
    /// called at end of stream. Returns the trace metadata and the
    /// number of records streamed.
    pub fn stream(
        self,
        mut r: impl BufRead,
        sink: &mut dyn RecordSink,
    ) -> io::Result<(TraceMeta, u64)> {
        let mut phases = PhaseTracker::new();
        let streamed = match self {
            TraceFormat::Jsonl => {
                let mut buf = String::new();
                if r.read_line(&mut buf)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "empty trace stream",
                    ));
                }
                let meta: TraceMeta = serde_json::from_str(buf.trim_end())?;
                let mut count = 0u64;
                let mut block = Vec::with_capacity(JSONL_BLOCK);
                loop {
                    buf.clear();
                    if r.read_line(&mut buf)? == 0 {
                        break;
                    }
                    let line = buf.trim();
                    if line.is_empty() {
                        continue;
                    }
                    block.push(crate::jsonl::parse_record(line)?);
                    count += 1;
                    if block.len() == JSONL_BLOCK {
                        phases.on_block(&block, sink);
                        block.clear();
                    }
                }
                phases.on_block(&block, sink);
                (meta, count)
            }
            TraceFormat::Ptb2 => {
                let mut dec = Ptb2BlockReader::new(r)?;
                while let Some(block) = dec.next_block()? {
                    phases.on_block(block, sink);
                }
                (dec.meta().clone(), dec.records_read())
            }
        };
        phases.finish(sink);
        Ok(streamed)
    }
}

/// Write `trace` as a JSONL stream: first line the metadata, then one
/// record per line.
pub fn write_jsonl<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    serde_json::to_writer(&mut w, &trace.meta)?;
    w.write_all(b"\n")?;
    for r in &trace.records {
        serde_json::to_writer(&mut w, r)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Read a trace previously written by [`write_jsonl`]: the JSONL arm of
/// [`TraceFormat::stream`] into an in-memory [`Trace`].
///
/// Record lines go through the fast scanner in [`crate::jsonl`] (with
/// `serde_json` as the strict fallback) and the line buffer is reused.
pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<Trace> {
    let mut trace = Trace::new(TraceMeta::default());
    let (meta, _) = TraceFormat::Jsonl.stream(r, &mut trace)?;
    trace.meta = meta;
    Ok(trace)
}

/// Write records as CSV with a header row.
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "rank,call,fd,offset,bytes,start_s,end_s,duration_s,phase"
    )?;
    for r in &trace.records {
        writeln!(
            w,
            "{},{},{},{},{},{:.9},{:.9},{:.9},{}",
            r.rank,
            r.call.name(),
            r.fd,
            r.offset,
            r.bytes,
            r.start().as_secs_f64(),
            r.end().as_secs_f64(),
            r.secs(),
            r.phase
        )?;
    }
    Ok(())
}

/// Save a trace to a file (JSONL).
pub fn save(trace: &Trace, path: &Path) -> io::Result<()> {
    save_as(trace, path, TraceFormat::Jsonl)
}

/// Save a trace to a file in an explicit format.
pub fn save_as(trace: &Trace, path: &Path, format: TraceFormat) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    format.write(trace, &mut w)?;
    w.flush()
}

/// Load a trace from a file, sniffing the format from its bytes.
pub fn load(path: &Path) -> io::Result<Trace> {
    let format = TraceFormat::sniff(path)?;
    format.read(BufReader::new(std::fs::File::open(path)?))
}

/// Stream a trace file into `sink` in constant memory, sniffing the
/// format from its bytes (see [`TraceFormat::stream`]). A file neither
/// format claims is refused before the sink sees anything.
pub fn stream_file(path: &Path, sink: &mut dyn RecordSink) -> io::Result<(TraceMeta, u64)> {
    let format = TraceFormat::sniff(path)?;
    format.stream(BufReader::new(std::fs::File::open(path)?), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CallKind, Record};
    use std::io::Cursor;

    fn sample() -> Trace {
        let mut t = Trace::new(TraceMeta {
            experiment: "roundtrip".into(),
            platform: "franklin".into(),
            ranks: 4,
            seed: 99,
        });
        for i in 0..10 {
            t.push(Record {
                rank: i % 4,
                call: if i % 2 == 0 {
                    CallKind::Write
                } else {
                    CallKind::Read
                },
                fd: 3,
                offset: i as u64 * 1024,
                bytes: 1024,
                start_ns: i as u64 * 1_000_000,
                end_ns: i as u64 * 1_000_000 + 500_000,
                phase: i / 5,
            });
        }
        t
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let back = read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.meta, t.meta);
        assert_eq!(back.records, t.records);
    }

    #[test]
    fn jsonl_tolerates_blank_lines() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.records.len(), t.records.len());
    }

    #[test]
    fn empty_stream_is_an_error() {
        let err = read_jsonl(std::io::Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 11);
        assert!(lines[0].starts_with("rank,call"));
        assert!(lines[1].starts_with("0,write,3,0,1024,"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pio_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let t = sample();
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.records, t.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_sniffs_every_format() {
        let dir = std::env::temp_dir().join("pio_trace_io_sniff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample();
        // Deliberately mismatched extensions: only the bytes matter.
        for (fname, format) in [
            ("binary.jsonl", TraceFormat::Ptb2),
            ("text.ptb2", TraceFormat::Jsonl),
        ] {
            let p = dir.join(fname);
            save_as(&t, &p, format).unwrap();
            assert_eq!(TraceFormat::sniff(&p).unwrap(), format);
            let back = load(&p).unwrap();
            assert_eq!(back.meta, t.meta);
            assert_eq!(back.records, t.records);
            std::fs::remove_file(&p).ok();
        }
        // A retired ptb v1 file is refused cleanly, not misread.
        let p = dir.join("retired.ptb");
        std::fs::write(&p, b"PTB1\x02\x00\x00\x00{}").unwrap();
        let err = load(&p).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
        assert!(err.to_string().contains("version '1'"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn format_names_round_trip() {
        for f in TraceFormat::ALL {
            assert_eq!(TraceFormat::from_name(f.name()), Some(f));
        }
        assert_eq!(TraceFormat::from_name("csv"), None);
    }

    #[test]
    fn from_extension_maps_known_extensions_only() {
        use std::path::Path;
        assert_eq!(
            TraceFormat::from_extension(Path::new("a/b.ptb2")),
            Some(TraceFormat::Ptb2)
        );
        assert_eq!(TraceFormat::from_extension(Path::new("t.ptb")), None);
        assert_eq!(
            TraceFormat::from_extension(Path::new("t.jsonl")),
            Some(TraceFormat::Jsonl)
        );
        assert_eq!(TraceFormat::from_extension(Path::new("t.csv")), None);
        assert_eq!(TraceFormat::from_extension(Path::new("noext")), None);
    }

    #[test]
    fn sniff_bytes_rejects_short_heads_cleanly() {
        for head in [&b""[..], &b"P"[..], &b"PTB"[..]] {
            let err = TraceFormat::sniff_bytes(head).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "head={head:?}");
        }
        assert_eq!(
            TraceFormat::sniff_bytes(b"PTB1....").unwrap_err().kind(),
            std::io::ErrorKind::Unsupported
        );
        assert_eq!(
            TraceFormat::sniff_bytes(b"PTB2....").unwrap(),
            TraceFormat::Ptb2
        );
        assert_eq!(
            TraceFormat::sniff_bytes(b"{\"experiment\"").unwrap(),
            TraceFormat::Jsonl
        );
    }

    /// 200 records over four phases of 50, for the per-format tests.
    fn phased() -> Trace {
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

    /// `phases` phases of `per_phase` identical reads each.
    fn uniform(phases: u32, per_phase: u32) -> Trace {
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

    fn encode(t: &Trace, format: TraceFormat) -> Vec<u8> {
        let mut buf = Vec::new();
        format.write(t, &mut buf).unwrap();
        buf
    }

    /// Sink that logs the whole event sequence.
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

    #[test]
    fn every_format_round_trips_and_self_sniffs() {
        let t = phased();
        for format in TraceFormat::ALL {
            let buf = encode(&t, format);
            // Exactly this format claims these bytes.
            assert_eq!(TraceFormat::sniff_bytes(&buf).unwrap(), format);
            assert_eq!(TraceFormat::from_name(format.name()), Some(format));
            let back = format.read(Cursor::new(&buf)).unwrap();
            assert_eq!(back, t, "{} round trip", format.name());
        }
    }

    #[test]
    fn every_format_streams_the_same_events() {
        let t = phased();
        let mut logs = Vec::new();
        for format in TraceFormat::ALL {
            let buf = encode(&t, format);
            let mut log = Log::default();
            let (meta, n) = format.stream(Cursor::new(&buf), &mut log).unwrap();
            assert_eq!(meta, t.meta, "{}", format.name());
            assert_eq!(n, 200, "{}", format.name());
            assert_eq!(log.records, t.records, "{}", format.name());
            assert_eq!(log.phase_ends, vec![0, 1, 2, 3], "{}", format.name());
            assert!(log.finished, "{}", format.name());
            logs.push(log);
        }
        assert!(logs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn short_heads_are_a_clean_unsupported_error() {
        for head in [&b""[..], &b"P"[..], &b"PTB"[..], &b"\x00"[..]] {
            let err = TraceFormat::sniff_bytes(head).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported, "head={head:?}");
            assert!(err.to_string().contains("short"), "head={head:?}: {err}");
        }
    }

    #[test]
    fn unknown_ptb_version_names_the_version() {
        for (head, version) in [(b"PTB9....", "'9'"), (b"PTB1....", "'1'")] {
            let err = TraceFormat::sniff_bytes(head).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported);
            let msg = err.to_string();
            assert!(msg.contains(&format!("version {version}")), "{msg}");
            assert!(msg.contains("known: jsonl, ptb2"), "{msg}");
        }
        let err = TraceFormat::sniff_bytes(b"garbage.").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn jsonl_sniff_skips_leading_whitespace() {
        let jsonl = |head: &[u8]| TraceFormat::sniff_bytes(head).ok() == Some(TraceFormat::Jsonl);
        assert!(jsonl(b"  \n{\"experiment\""));
        assert!(jsonl(b"{"));
        assert!(!jsonl(b"   "));
        assert!(!jsonl(b""));
    }

    #[test]
    fn streaming_matches_batch_read() {
        let t = uniform(3, 10);
        let buf = encode(&t, TraceFormat::Jsonl);
        let mut collected = Trace::new(t.meta.clone());
        let (meta, n) = TraceFormat::Jsonl
            .stream(Cursor::new(&buf), &mut collected)
            .unwrap();
        assert_eq!(meta, t.meta);
        assert_eq!(n, 30);
        assert_eq!(collected.records, t.records);
    }

    #[test]
    fn binary_streaming_matches_jsonl_streaming() {
        let t = uniform(3, 10);
        let jsonl = encode(&t, TraceFormat::Jsonl);
        let ptb2 = encode(&t, TraceFormat::Ptb2);

        let mut from_jsonl = Log::default();
        let (m1, n1) = TraceFormat::Jsonl
            .stream(Cursor::new(&jsonl), &mut from_jsonl)
            .unwrap();
        let mut from_ptb2 = Log::default();
        let (m2, n2) = TraceFormat::Ptb2
            .stream(Cursor::new(&ptb2), &mut from_ptb2)
            .unwrap();
        assert_eq!(m1, m2);
        assert_eq!(n1, n2);
        assert_eq!(from_jsonl.records.len(), from_ptb2.records.len());
        assert_eq!(from_jsonl.phase_ends, from_ptb2.phase_ends);
        assert!(from_ptb2.finished);

        let mut collected = Trace::new(t.meta.clone());
        TraceFormat::Ptb2
            .stream(Cursor::new(&ptb2), &mut collected)
            .unwrap();
        assert_eq!(collected.records, t.records);
    }

    #[test]
    fn stream_file_sniffs_every_format() {
        let dir = std::env::temp_dir().join("pio_trace_stream_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = uniform(2, 6);
        for format in TraceFormat::ALL {
            let p = dir.join(format!("t.{}", format.name()));
            save_as(&t, &p, format).unwrap();
            let mut log = Log::default();
            let (meta, n) = stream_file(&p, &mut log).unwrap();
            assert_eq!(meta, t.meta, "{p:?}");
            assert_eq!(n, 12, "{p:?}");
            assert_eq!(log.phase_ends, vec![0, 1], "{p:?}");
            std::fs::remove_file(&p).ok();
        }
        // A retired ptb v1 file is refused before the sink sees anything.
        let p = dir.join("retired.ptb");
        std::fs::write(&p, b"PTB1\x02\x00\x00\x00{}").unwrap();
        let mut log = Log::default();
        let err = stream_file(&p, &mut log).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{err}");
        assert!(err.to_string().contains("version '1'"), "{err}");
        assert!(!log.finished);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn phase_boundaries_are_synthesized_in_order() {
        let t = uniform(3, 5);
        let buf = encode(&t, TraceFormat::Jsonl);
        let mut log = Log::default();
        TraceFormat::Jsonl
            .stream(Cursor::new(&buf), &mut log)
            .unwrap();
        assert_eq!(log.records.len(), 15);
        assert_eq!(log.phase_ends, vec![0, 1, 2]);
        assert!(log.finished);
    }

    #[test]
    fn streaming_an_empty_stream_is_an_error() {
        let mut log = Log::default();
        let err = TraceFormat::Jsonl
            .stream(Cursor::new(Vec::new()), &mut log)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn meta_only_stream_finishes_cleanly() {
        let t = uniform(0, 0);
        let buf = encode(&t, TraceFormat::Jsonl);
        let mut log = Log::default();
        let (_, n) = TraceFormat::Jsonl
            .stream(Cursor::new(&buf), &mut log)
            .unwrap();
        assert_eq!(n, 0);
        assert!(log.phase_ends.is_empty());
        assert!(log.finished);
    }
}
