//! Trace serialization: JSONL (one record per line, as IPM-I/O "emits the
//! entire trace"), the binary [`ptb2`](crate::ptb2) format, and CSV for
//! plotting tools. [`load`] sniffs the on-disk format from the file's
//! leading bytes via the codec registry ([`crate::codec`]), so every
//! consumer transparently reads both.

use crate::trace::{Trace, TraceMeta};
use std::io::{BufRead, Write};

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
    /// Every known format, the binary format first (sniffing order).
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
    pub fn from_extension(path: &std::path::Path) -> Option<TraceFormat> {
        path.extension()
            .and_then(|e| e.to_str())
            .and_then(TraceFormat::from_name)
    }

    /// Classify leading file bytes via the codec registry.
    ///
    /// Heads shorter than any magic prefix, `PTB` files with an unknown
    /// version byte (including the retired `PTB1`), and content no codec
    /// claims are all a clean
    /// [`std::io::ErrorKind::Unsupported`] error — never a panic or a
    /// misdetection.
    pub fn sniff_bytes(head: &[u8]) -> std::io::Result<TraceFormat> {
        crate::codec::sniff_codec(head).map(|c| c.format())
    }

    /// Sniff a file's format from its first bytes.
    pub fn sniff(path: &std::path::Path) -> std::io::Result<TraceFormat> {
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
}

/// Write `trace` as a JSONL stream: first line the metadata, then one
/// record per line.
pub fn write_jsonl<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    serde_json::to_writer(&mut w, &trace.meta)?;
    w.write_all(b"\n")?;
    for r in &trace.records {
        serde_json::to_writer(&mut w, r)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Read a trace previously written by [`write_jsonl`].
///
/// Record lines go through the fast scanner in [`crate::jsonl`] (with
/// `serde_json` as the strict fallback) and the line buffer is reused,
/// so the hot loop does no per-record allocation beyond the records
/// themselves.
pub fn read_jsonl<R: BufRead>(mut r: R) -> std::io::Result<Trace> {
    let mut buf = String::new();
    if r.read_line(&mut buf)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "empty trace stream",
        ));
    }
    let meta: TraceMeta = serde_json::from_str(buf.trim_end())?;
    let mut trace = Trace::new(meta);
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() {
            continue;
        }
        trace.push(crate::jsonl::parse_record(line)?);
    }
    Ok(trace)
}

/// Write records as CSV with a header row.
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
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
pub fn save(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    save_as(trace, path, TraceFormat::Jsonl)
}

/// Save a trace to a file in an explicit format (via the codec
/// registry — see [`crate::codec`]).
pub fn save_as(trace: &Trace, path: &std::path::Path, format: TraceFormat) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(f);
    crate::codec::codec_for(format).write(trace, &mut w)
}

/// Load a trace from a file, sniffing the format from its bytes.
pub fn load(path: &std::path::Path) -> std::io::Result<Trace> {
    let format = TraceFormat::sniff(path)?;
    let f = std::fs::File::open(path)?;
    let mut r = std::io::BufReader::new(f);
    crate::codec::codec_for(format).read(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CallKind, Record};

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
}
