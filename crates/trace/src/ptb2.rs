//! `ptb2` — the columnar binary trace format (Portable Trace Blocks v2).
//!
//! JSONL is the interchange format; `ptb2` is the fast path. Blocks are
//! structure-of-arrays — all ranks, then all timestamps, then all
//! offsets, … — so decode becomes a handful of branch-free columnar
//! loops the compiler can autovectorize, and per-column lightweight
//! compression (frame-of-reference, delta, dictionary, varint) makes a
//! record ~8× smaller than its JSONL line. Every payload is
//! CRC-32-checked, length-prefixed, and the terminator carries the total
//! record count, so truncation — even exactly at a block boundary — is
//! detected rather than silently read short. (Version 1, row-major
//! 45-byte frames, is retired: a `PTB1` head is an unsupported version.)
//!
//! Container layout (all integers little-endian):
//!
//! ```text
//! header     := magic "PTB2" | meta_len u32 | meta JSON | crc32(meta) u32
//! block      := count u32 (> 0) | payload_len u32 | payload | crc32(payload) u32
//! terminator := 0 u32 | total_records u64 | crc32(total bytes) u32
//! payload    := rank_col | start_col | dur_col | offset_col | fd_col
//!               | phase_col | call_col | bytes_col
//! ```
//!
//! Column encodings:
//!
//! * **Integer columns** (`rank`, `start_ns`, `dur`, `offset`, `fd`,
//!   `phase`) are `tag u8 | base u64 | width u8 | residuals`, where the
//!   encoder picks per block whichever of two schemes is smaller:
//!   - tag 0, *frame-of-reference*: `base` is the column minimum and
//!     each of `count` residuals is `value - base` at `width` bytes;
//!   - tag 1, *delta*: `base` is the first value and each of
//!     `count - 1` residuals is the zigzag-encoded difference from the
//!     previous value at `width` bytes.
//!     `width` is the minimal byte width (0–8) for the residual range,
//!     so a constant column costs 10 bytes total regardless of block
//!     size.
//! * `dur` is the zigzag of `end_ns - start_ns` (wrapping), `fd` the
//!   zigzag of the descriptor — both map small signed values to small
//!   unsigned ones before the integer-column encoder runs.
//! * **`call_col`** is dictionary-coded: `dict_len u8 | dict codes |
//!   width u8 | indices`, the dictionary listing the block's distinct
//!   [`CallKind`] codes in order of first appearance. One kind per
//!   block (the common case in phase-locked traces) costs 0 bytes per
//!   record; otherwise one index byte per record.
//! * **`bytes_col`** is one LEB128 varint per record — sizes cluster
//!   near zero (barriers, metadata) or a few constants (transfers), so
//!   varints beat any fixed width.
//!
//! Wrapping arithmetic end to end means *every* `u64`/`i32` field
//! round-trips exactly, however adversarial — the property tests in
//! `tests/trace_formats.rs` drive the full field ranges.
//!
//! [`Ptb2BlockReader`] is the streaming decoder: reused buffers,
//! bounded allocation, and corruption/truncation errors that name the
//! failing block index and byte offset.

use crate::record::{CallKind, Record};
use crate::sink::RecordSink;
use crate::trace::{Trace, TraceMeta};
use std::io::{self, Read, Write};

/// Magic prefix; the fourth byte (`b'2'`) is the format version.
pub const PTB2_MAGIC: [u8; 4] = *b"PTB2";

/// Records per block written by [`write_ptb2`] / [`Ptb2Writer::new`].
/// Column headers amortize and width choices improve with more records
/// per block, while the writer's buffer stays small (4096 records ≈
/// 180 KiB of `Record`s).
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// Upper bound a reader accepts for one block's record count — a
/// corrupt count field must not become a multi-gigabyte allocation.
const MAX_BLOCK_RECORDS: u32 = 1 << 22;

/// Per-record worst case a legitimate encoder can produce: six integer
/// columns at 8 bytes, one call index byte, one 10-byte varint.
const MAX_BYTES_PER_RECORD: u64 = 6 * 8 + 1 + 10;

/// Column-header worst case: six integer columns (tag+base+width), the
/// call dictionary (len + 12 codes + width).
const MAX_COLUMN_OVERHEAD: u64 = 6 * 10 + 14;

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial), slice-by-8 table-driven:
/// eight const-built tables let the loop fold 8 input bytes per step
/// with independent lookups instead of an 8-step serial byte chain —
/// the checksum is on the block-decode hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                i += 1;
            }
            t += 1;
        }
        tables
    };
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Wire code of a call kind: its index in [`CallKind::ALL`].
fn call_code(k: CallKind) -> u8 {
    k as u8
}

/// Inverse of [`call_code`]; corrupt codes are data errors, not panics.
fn call_from_code(code: u8) -> io::Result<CallKind> {
    CallKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| bad_data(format!("ptb: invalid call code {code}")))
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write the header: `magic | meta_len u32 | meta JSON | crc32(meta)
/// u32`.
fn write_header<W: Write>(w: &mut W, magic: &[u8; 4], meta: &TraceMeta) -> io::Result<()> {
    let meta_json = serde_json::to_string(meta)?;
    let meta_bytes = meta_json.as_bytes();
    w.write_all(magic)?;
    w.write_all(&(meta_bytes.len() as u32).to_le_bytes())?;
    w.write_all(meta_bytes)?;
    w.write_all(&crc32(meta_bytes).to_le_bytes())?;
    Ok(())
}

/// Read and validate the header written by [`write_header`]. `fmt`
/// names the format in error messages. The first three magic bytes
/// identify the ptb family and the fourth is the version, so any other
/// version (including the retired `PTB1`) is an "unsupported format
/// version" error. Returns the metadata and the number of header bytes
/// consumed (the byte offset the first block starts at).
fn read_header<R: Read>(r: &mut R, magic: &[u8; 4], fmt: &str) -> io::Result<(TraceMeta, u64)> {
    let mut got = [0u8; 4];
    read_exact_ctx(r, &mut got, &format!("{fmt} header"))?;
    if got[..3] != magic[..3] {
        return Err(bad_data(format!("{fmt}: bad magic (not a {fmt} file)")));
    }
    if got[3] != magic[3] {
        return Err(bad_data(format!(
            "{fmt}: unsupported format version {:?} (this reader speaks {:?})",
            got[3] as char, magic[3] as char
        )));
    }
    let mut len = [0u8; 4];
    read_exact_ctx(r, &mut len, &format!("{fmt} header"))?;
    let meta_len = u32::from_le_bytes(len);
    if meta_len > 1 << 20 {
        return Err(bad_data(format!(
            "{fmt}: implausible meta length {meta_len}"
        )));
    }
    let mut meta_bytes = vec![0u8; meta_len as usize];
    read_exact_ctx(r, &mut meta_bytes, &format!("{fmt} header"))?;
    let mut crc = [0u8; 4];
    read_exact_ctx(r, &mut crc, &format!("{fmt} header"))?;
    if crc32(&meta_bytes) != u32::from_le_bytes(crc) {
        return Err(bad_data(format!("{fmt}: header CRC mismatch")));
    }
    let meta_json = std::str::from_utf8(&meta_bytes)
        .map_err(|_| bad_data(format!("{fmt}: header meta is not UTF-8")))?;
    let meta: TraceMeta = serde_json::from_str(meta_json)?;
    Ok((meta, 12 + meta_len as u64 + 4))
}

/// `read_exact` with a truncation message naming what was being read.
fn read_exact_ctx<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("truncated file while reading {what}"),
            )
        } else {
            e
        }
    })
}

/// Zigzag-map a signed value so small magnitudes become small unsigneds.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Minimal little-endian byte width for `max` (0 for an all-zero range).
#[inline]
fn width_for(max: u64) -> u8 {
    ((64 - max.leading_zeros() as usize).div_ceil(8)) as u8
}

/// Append the low `width` bytes of `v`.
#[inline]
fn put_fixed(out: &mut Vec<u8>, v: u64, width: u8) {
    out.extend_from_slice(&v.to_le_bytes()[..width as usize]);
}

/// Append `v` as a LEB128 varint.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode one LEB128 varint from `src`, advancing `*p`. `None` on
/// overrun or a value that would exceed 64 bits.
#[inline]
fn take_varint(src: &[u8], p: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *src.get(*p)?;
        *p += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Decode `count` fixed-width values from `src` into `out` (appended).
/// The per-width loops are branch-free over the column — this is the
/// decode hot path, written so the common widths autovectorize.
fn decode_fixed(src: &[u8], width: u8, count: usize, out: &mut Vec<u64>) {
    out.reserve(count);
    match width {
        0 => out.extend(std::iter::repeat_n(0u64, count)),
        1 => out.extend(src.iter().take(count).map(|&b| b as u64)),
        2 => out.extend(
            src.chunks_exact(2)
                .take(count)
                .map(|c| u16::from_le_bytes([c[0], c[1]]) as u64),
        ),
        4 => out.extend(
            src.chunks_exact(4)
                .take(count)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as u64),
        ),
        8 => out.extend(
            src.chunks_exact(8)
                .take(count)
                .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])),
        ),
        w => out.extend(src.chunks_exact(w as usize).take(count).map(|c| {
            let mut b = [0u8; 8];
            b[..w as usize].copy_from_slice(c);
            u64::from_le_bytes(b)
        })),
    }
}

/// Encode one integer column, choosing frame-of-reference or delta per
/// block — whichever is smaller for these `vals` (must be non-empty).
fn encode_int_column(vals: &[u64], out: &mut Vec<u8>) {
    let mut min = u64::MAX;
    let mut max = 0u64;
    for &v in vals {
        min = min.min(v);
        max = max.max(v);
    }
    let for_width = width_for(max - min);
    let mut delta_max = 0u64;
    for w in vals.windows(2) {
        delta_max = delta_max.max(zigzag(w[1].wrapping_sub(w[0]) as i64));
    }
    let delta_width = width_for(delta_max);
    let for_size = vals.len() * for_width as usize;
    let delta_size = (vals.len() - 1) * delta_width as usize;
    if delta_size < for_size {
        out.push(1);
        out.extend_from_slice(&vals[0].to_le_bytes());
        out.push(delta_width);
        for w in vals.windows(2) {
            put_fixed(out, zigzag(w[1].wrapping_sub(w[0]) as i64), delta_width);
        }
    } else {
        out.push(0);
        out.extend_from_slice(&min.to_le_bytes());
        out.push(for_width);
        for &v in vals {
            put_fixed(out, v.wrapping_sub(min), for_width);
        }
    }
}

/// A cursor over a CRC-validated block payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    block: u64,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(bad_data(format!(
                "ptb2: {what} overruns the payload of block {}",
                self.block
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Decode one integer column of `count` values into `out` (cleared).
    fn int_column(&mut self, count: usize, what: &str, out: &mut Vec<u64>) -> io::Result<()> {
        out.clear();
        let tag = self.u8(what)?;
        let base = self.u64(what)?;
        let width = self.u8(what)?;
        if width > 8 {
            return Err(bad_data(format!(
                "ptb2: invalid width {width} in {what} (block {})",
                self.block
            )));
        }
        match tag {
            0 => {
                let src = self.take(count * width as usize, what)?;
                decode_fixed(src, width, count, out);
                for v in out.iter_mut() {
                    *v = base.wrapping_add(*v);
                }
            }
            1 => {
                let src = self.take((count - 1) * width as usize, what)?;
                out.push(base);
                decode_fixed(src, width, count - 1, out);
                // Prefix-sum the zigzag deltas in place.
                let mut prev = base;
                for v in out.iter_mut().skip(1) {
                    prev = prev.wrapping_add(unzigzag(*v) as u64);
                    *v = prev;
                }
            }
            t => {
                return Err(bad_data(format!(
                    "ptb2: unknown column tag {t} in {what} (block {})",
                    self.block
                )))
            }
        }
        Ok(())
    }
}

/// Columnar scratch shared by the writer and reader — one allocation
/// per stream, reused across blocks.
#[derive(Default)]
struct Columns {
    rank: Vec<u64>,
    start: Vec<u64>,
    dur: Vec<u64>,
    offset: Vec<u64>,
    fd: Vec<u64>,
    phase: Vec<u64>,
    bytes: Vec<u64>,
}

impl Columns {
    fn clear(&mut self) {
        self.rank.clear();
        self.start.clear();
        self.dur.clear();
        self.offset.clear();
        self.fd.clear();
        self.phase.clear();
        self.bytes.clear();
    }
}

/// Encode one block of records into `payload` (cleared first).
fn encode_block(records: &[Record], cols: &mut Columns, payload: &mut Vec<u8>) {
    debug_assert!(!records.is_empty());
    payload.clear();
    cols.clear();
    for r in records {
        cols.rank.push(r.rank as u64);
        cols.start.push(r.start_ns);
        cols.dur
            .push(zigzag(r.end_ns.wrapping_sub(r.start_ns) as i64));
        cols.offset.push(r.offset);
        cols.fd.push(zigzag(r.fd as i64));
        cols.phase.push(r.phase as u64);
    }
    encode_int_column(&cols.rank, payload);
    encode_int_column(&cols.start, payload);
    encode_int_column(&cols.dur, payload);
    encode_int_column(&cols.offset, payload);
    encode_int_column(&cols.fd, payload);
    encode_int_column(&cols.phase, payload);

    // Call kinds: dictionary in order of first appearance, then (unless
    // the block is single-kind) one index byte per record.
    let mut index_of = [u8::MAX; CallKind::ALL.len()];
    let mut dict: Vec<u8> = Vec::with_capacity(4);
    for r in records {
        let code = call_code(r.call) as usize;
        if index_of[code] == u8::MAX {
            index_of[code] = dict.len() as u8;
            dict.push(code as u8);
        }
    }
    payload.push(dict.len() as u8);
    payload.extend_from_slice(&dict);
    if dict.len() == 1 {
        payload.push(0);
    } else {
        payload.push(1);
        for r in records {
            payload.push(index_of[call_code(r.call) as usize]);
        }
    }

    // Sizes: one varint per record.
    for r in records {
        put_varint(payload, r.bytes);
    }
}

/// Decode one CRC-validated block payload into `records` (cleared).
fn decode_block(
    payload: &[u8],
    count: usize,
    block: u64,
    cols: &mut Columns,
    records: &mut Vec<Record>,
) -> io::Result<()> {
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
        block,
    };
    cur.int_column(count, "rank column", &mut cols.rank)?;
    cur.int_column(count, "timestamp column", &mut cols.start)?;
    cur.int_column(count, "duration column", &mut cols.dur)?;
    cur.int_column(count, "offset column", &mut cols.offset)?;
    cur.int_column(count, "fd column", &mut cols.fd)?;
    cur.int_column(count, "phase column", &mut cols.phase)?;

    let dict_len = cur.u8("call dictionary")? as usize;
    if dict_len == 0 || dict_len > CallKind::ALL.len() {
        return Err(bad_data(format!(
            "ptb2: invalid call dictionary length {dict_len} (block {block})"
        )));
    }
    let mut dict = [CallKind::Open; CallKind::ALL.len()];
    for (i, &code) in cur.take(dict_len, "call dictionary")?.iter().enumerate() {
        dict[i] = call_from_code(code)?;
    }
    let idx_width = cur.u8("call indices")?;
    let calls: &[u8] = match idx_width {
        0 => &[],
        1 => cur.take(count, "call indices")?,
        w => {
            return Err(bad_data(format!(
                "ptb2: invalid call index width {w} (block {block})"
            )))
        }
    };
    if calls.iter().any(|&idx| idx as usize >= dict_len) {
        return Err(bad_data(format!(
            "ptb2: call index out of dictionary range (block {block})"
        )));
    }

    // Sizes: decode all varints in one tight pass over the raw slice —
    // per-record cursor calls are too slow for the assembly loop below.
    cols.bytes.clear();
    cols.bytes.reserve(count);
    for _ in 0..count {
        let Some(v) = take_varint(payload, &mut cur.pos) else {
            return Err(bad_data(format!(
                "ptb2: truncated or overlong varint in size column of block {block}"
            )));
        };
        cols.bytes.push(v);
    }

    // Range checks once per column (vectorizable scans), so the zip
    // below can cast without truncating adversarial payloads.
    let over_u32 = |col: &[u64]| col.iter().any(|&v| v > u32::MAX as u64);
    if over_u32(&cols.rank) || over_u32(&cols.phase) {
        return Err(bad_data(format!(
            "ptb2: rank/phase value exceeds u32 (block {block})"
        )));
    }
    if cols.fd.iter().any(|&v| i32::try_from(unzigzag(v)).is_err()) {
        return Err(bad_data(format!(
            "ptb2: fd value exceeds i32 (block {block})"
        )));
    }

    records.clear();
    records.reserve(count);
    let (rank, start) = (&cols.rank[..count], &cols.start[..count]);
    let (dur, offset) = (&cols.dur[..count], &cols.offset[..count]);
    let (fd, phase) = (&cols.fd[..count], &cols.phase[..count]);
    let bytes = &cols.bytes[..count];
    // Everything is validated column-wise above, so this loop is pure
    // branch-free assembly.
    for i in 0..count {
        records.push(Record {
            rank: rank[i] as u32,
            call: if idx_width == 0 {
                dict[0]
            } else {
                dict[calls[i] as usize]
            },
            fd: unzigzag(fd[i]) as i32,
            offset: offset[i],
            bytes: bytes[i],
            start_ns: start[i],
            end_ns: start[i].wrapping_add(unzigzag(dur[i]) as u64),
            phase: phase[i] as u32,
        });
    }
    if cur.pos != payload.len() {
        return Err(bad_data(format!(
            "ptb2: {} trailing payload bytes in block {block}",
            payload.len() - cur.pos
        )));
    }
    Ok(())
}

/// A streaming `ptb2` encoder that is also a [`RecordSink`], so a
/// simulation run can capture straight to the binary format without
/// ever buffering a [`Trace`].
///
/// Because [`RecordSink`] methods cannot return errors, the sink path
/// stashes the first I/O error instead ([`Ptb2Writer::error`]); the
/// direct [`Ptb2Writer::push_record`] path returns it.
pub struct Ptb2Writer<W: Write> {
    w: W,
    buf: Vec<Record>,
    block_records: usize,
    cols: Columns,
    payload: Vec<u8>,
    total: u64,
    finished: bool,
    error: Option<io::Error>,
}

impl<W: Write> Ptb2Writer<W> {
    /// Write the header and return the encoder, using
    /// [`DEFAULT_BLOCK_RECORDS`] per block.
    pub fn new(w: W, meta: &TraceMeta) -> io::Result<Self> {
        Self::with_block_records(w, meta, DEFAULT_BLOCK_RECORDS)
    }

    /// [`Ptb2Writer::new`] with an explicit block size (clamped into
    /// `1..=MAX_BLOCK_RECORDS`).
    pub fn with_block_records(
        mut w: W,
        meta: &TraceMeta,
        block_records: usize,
    ) -> io::Result<Self> {
        write_header(&mut w, &PTB2_MAGIC, meta)?;
        let block_records = block_records.clamp(1, MAX_BLOCK_RECORDS as usize);
        Ok(Ptb2Writer {
            w,
            buf: Vec::with_capacity(block_records),
            block_records,
            cols: Columns::default(),
            payload: Vec::new(),
            total: 0,
            finished: false,
            error: None,
        })
    }

    /// Append one record, flushing a full block to the writer.
    pub fn push_record(&mut self, r: &Record) -> io::Result<()> {
        self.buf.push(r.clone());
        self.total += 1;
        if self.buf.len() >= self.block_records {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        encode_block(&self.buf, &mut self.cols, &mut self.payload);
        self.w.write_all(&(self.buf.len() as u32).to_le_bytes())?;
        self.w
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.w.write_all(&self.payload)?;
        self.w.write_all(&crc32(&self.payload).to_le_bytes())?;
        self.buf.clear();
        Ok(())
    }

    /// Flush the tail block and write the terminator. Idempotent.
    pub fn finish_mut(&mut self) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.flush_block()?;
        self.w.write_all(&0u32.to_le_bytes())?;
        let total = self.total.to_le_bytes();
        self.w.write_all(&total)?;
        self.w.write_all(&crc32(&total).to_le_bytes())?;
        self.w.flush()?;
        self.finished = true;
        Ok(())
    }

    /// Finish and return the inner writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.finish_mut()?;
        Ok(self.w)
    }

    /// The first I/O error hit on the [`RecordSink`] path, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Records pushed so far.
    pub fn records_written(&self) -> u64 {
        self.total
    }

    fn stash(&mut self, res: io::Result<()>) {
        if let (Err(e), None) = (res, &self.error) {
            self.error = Some(e);
        }
    }
}

impl<W: Write> RecordSink for Ptb2Writer<W> {
    fn push_block(&mut self, block: &[Record]) {
        for r in block {
            if self.error.is_none() {
                let res = self.push_record(r);
                self.stash(res);
            } else {
                // Still count, so a later error report is not misread as
                // a short trace.
                self.total += 1;
            }
        }
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            let res = self.finish_mut();
            self.stash(res);
        }
    }
}

/// A streaming `ptb2` decoder: one block of records at a time out of
/// buffers reused across calls.
pub struct Ptb2BlockReader<R: Read> {
    r: R,
    meta: TraceMeta,
    payload: Vec<u8>,
    cols: Columns,
    records: Vec<Record>,
    read: u64,
    block: u64,
    offset: u64,
    done: bool,
}

impl<R: Read> Ptb2BlockReader<R> {
    /// Read and validate the header.
    pub fn new(mut r: R) -> io::Result<Self> {
        let (meta, header_bytes) = read_header(&mut r, &PTB2_MAGIC, "ptb2")?;
        Ok(Ptb2BlockReader {
            r,
            meta,
            payload: Vec::new(),
            cols: Columns::default(),
            records: Vec::new(),
            read: 0,
            block: 0,
            offset: header_bytes,
            done: false,
        })
    }

    /// The trace metadata from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Records decoded so far.
    pub fn records_read(&self) -> u64 {
        self.read
    }

    /// Data blocks decoded so far.
    pub fn blocks_read(&self) -> u64 {
        self.block
    }

    /// Decode the next block into an internal buffer; `Ok(None)` after
    /// a valid terminator. Truncation and corruption are I/O errors
    /// naming the failing block index and its byte offset in the file.
    pub fn next_block(&mut self) -> io::Result<Option<&[Record]>> {
        if self.done {
            return Ok(None);
        }
        let at = self.offset;
        let blk = self.block;
        let mut word = [0u8; 4];
        read_exact_ctx(
            &mut self.r,
            &mut word,
            &format!("ptb2 block {blk} header (byte offset {at})"),
        )?;
        let count = u32::from_le_bytes(word);
        if count == 0 {
            let what = format!("ptb2 terminator (byte offset {at})");
            let mut total = [0u8; 8];
            read_exact_ctx(&mut self.r, &mut total, &what)?;
            let mut crc = [0u8; 4];
            read_exact_ctx(&mut self.r, &mut crc, &what)?;
            if crc32(&total) != u32::from_le_bytes(crc) {
                return Err(bad_data(format!(
                    "ptb2: terminator CRC mismatch (byte offset {at})"
                )));
            }
            let expected = u64::from_le_bytes(total);
            if expected != self.read {
                return Err(bad_data(format!(
                    "ptb2: terminator expects {expected} records, read {}",
                    self.read
                )));
            }
            self.done = true;
            return Ok(None);
        }
        if count > MAX_BLOCK_RECORDS {
            return Err(bad_data(format!(
                "ptb2: implausible count {count} in block {blk} (byte offset {at})"
            )));
        }
        read_exact_ctx(
            &mut self.r,
            &mut word,
            &format!("ptb2 block {blk} payload length (byte offset {at})"),
        )?;
        let payload_len = u32::from_le_bytes(word) as u64;
        if payload_len > count as u64 * MAX_BYTES_PER_RECORD + MAX_COLUMN_OVERHEAD {
            return Err(bad_data(format!(
                "ptb2: implausible payload length {payload_len} for {count} records \
                 in block {blk} (byte offset {at})"
            )));
        }
        self.payload.resize(payload_len as usize, 0);
        read_exact_ctx(
            &mut self.r,
            &mut self.payload,
            &format!("ptb2 block {blk} payload (block starts at byte offset {at})"),
        )?;
        let mut crc = [0u8; 4];
        read_exact_ctx(
            &mut self.r,
            &mut crc,
            &format!("ptb2 block {blk} CRC (block starts at byte offset {at})"),
        )?;
        if crc32(&self.payload) != u32::from_le_bytes(crc) {
            return Err(bad_data(format!(
                "ptb2: CRC mismatch in block {blk} (block starts at byte offset {at})"
            )));
        }
        decode_block(
            &self.payload,
            count as usize,
            blk,
            &mut self.cols,
            &mut self.records,
        )?;
        self.read += count as u64;
        self.block += 1;
        self.offset += 4 + 4 + payload_len + 4;
        Ok(Some(&self.records))
    }
}

/// Write a whole trace as `ptb2`.
pub fn write_ptb2<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    let mut enc = Ptb2Writer::new(w, &trace.meta)?;
    for r in &trace.records {
        enc.push_record(r)?;
    }
    enc.finish_mut()
}

/// Read a whole trace previously written by [`write_ptb2`].
pub fn read_ptb2<R: Read>(r: R) -> io::Result<Trace> {
    let mut dec = Ptb2BlockReader::new(r)?;
    let mut trace = Trace::new(dec.meta().clone());
    while let Some(block) = dec.next_block()? {
        trace.records.extend_from_slice(block);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Trace {
        let mut t = Trace::new(TraceMeta {
            experiment: "ptb2".into(),
            platform: "test".into(),
            ranks: 8,
            seed: 42,
        });
        for i in 0..n {
            t.push(Record {
                rank: (i % 8) as u32,
                call: CallKind::ALL[(i % 12) as usize],
                fd: (i % 5) as i32 - 1,
                offset: i << 16,
                bytes: 4096 + i,
                start_ns: i * 1_000,
                end_ns: i * 1_000 + 500 + i,
                phase: (i / 100) as u32,
            });
        }
        t
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn call_codes_cover_every_kind() {
        for (i, k) in CallKind::ALL.iter().enumerate() {
            assert_eq!(call_code(*k) as usize, i);
            assert_eq!(call_from_code(i as u8).unwrap(), *k);
        }
        assert!(call_from_code(12).is_err());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MIN, i64::MAX, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn width_for_covers_the_byte_ladder() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(255), 1);
        assert_eq!(width_for(256), 2);
        assert_eq!(width_for(u32::MAX as u64), 4);
        assert_eq!(width_for(u64::MAX), 8);
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut pos = 0usize;
        for &v in &vals {
            assert_eq!(take_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        assert_eq!(take_varint(&buf, &mut pos), None);
        // Overlong: 10 continuation bytes would shift past 64 bits.
        assert_eq!(take_varint(&[0x80u8; 11], &mut 0), None);
    }

    #[test]
    fn int_column_round_trips_for_and_delta_shapes() {
        // Monotone (delta wins), constant (width 0), and adversarial
        // extremes (width 8 either way).
        for vals in [
            (0..1000u64).map(|i| i * 1000).collect::<Vec<_>>(),
            vec![7; 500],
            vec![u64::MAX, 0, u64::MAX / 2, 1, u64::MAX - 1],
            vec![3],
        ] {
            let mut buf = Vec::new();
            encode_int_column(&vals, &mut buf);
            let mut cur = Cursor {
                buf: &buf,
                pos: 0,
                block: 0,
            };
            let mut out = Vec::new();
            cur.int_column(vals.len(), "test", &mut out).unwrap();
            assert_eq!(out, vals);
            assert_eq!(cur.pos, buf.len());
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        for n in [0u64, 1, 255, 4096, 9000] {
            let t = sample(n);
            let mut buf = Vec::new();
            write_ptb2(&t, &mut buf).unwrap();
            let back = read_ptb2(std::io::Cursor::new(&buf)).unwrap();
            assert_eq!(back.meta, t.meta, "n={n}");
            assert_eq!(back.records, t.records, "n={n}");
        }
    }

    #[test]
    fn adversarial_field_extremes_round_trip() {
        let mut t = Trace::new(TraceMeta::default());
        for (i, (start, end)) in [
            (u64::MAX, 0u64),
            (0, u64::MAX),
            (u64::MAX, u64::MAX),
            (1, 2),
        ]
        .iter()
        .enumerate()
        {
            t.push(Record {
                rank: u32::MAX - i as u32,
                call: CallKind::Barrier,
                fd: if i % 2 == 0 { i32::MIN } else { i32::MAX },
                offset: u64::MAX - i as u64,
                bytes: u64::MAX / (i as u64 + 1),
                start_ns: *start,
                end_ns: *end,
                phase: u32::MAX,
            });
        }
        let mut buf = Vec::new();
        write_ptb2(&t, &mut buf).unwrap();
        assert_eq!(read_ptb2(std::io::Cursor::new(&buf)).unwrap(), t);
    }

    #[test]
    fn sink_capture_equals_batch_write() {
        let t = sample(7000);
        let mut batch = Vec::new();
        write_ptb2(&t, &mut batch).unwrap();
        let mut sink = Ptb2Writer::new(Vec::new(), &t.meta).unwrap();
        for r in &t.records {
            RecordSink::push(&mut sink, r);
        }
        RecordSink::finish(&mut sink);
        assert!(sink.error().is_none());
        assert_eq!(sink.records_written(), 7000);
        assert_eq!(sink.into_inner().unwrap(), batch);
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let t = sample(5000);
        let mut buf = Vec::new();
        write_ptb2(&t, &mut buf).unwrap();
        for cut in [2, 6, 40, buf.len() - 1, buf.len() - 10] {
            let err = read_ptb2(std::io::Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut={cut}: {err}");
            assert!(err.to_string().contains("truncated"), "cut={cut}: {err}");
        }
        // Dropping the whole terminator must also fail.
        let end_of_blocks = buf.len() - 16;
        assert!(read_ptb2(std::io::Cursor::new(&buf[..end_of_blocks])).is_err());
    }

    #[test]
    fn corruption_is_rejected_by_crc_with_block_context() {
        let t = sample(5000);
        let mut clean = Vec::new();
        write_ptb2(&t, &mut clean).unwrap();
        for pos in [9usize, clean.len() / 2, clean.len() - 6] {
            let mut buf = clean.clone();
            buf[pos] ^= 0x40;
            let err = read_ptb2(std::io::Cursor::new(&buf)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "pos={pos}: {err}");
        }
        // A payload flip names the block and byte offset.
        let mut buf = clean.clone();
        let mid = clean.len() / 2;
        buf[mid] ^= 0x40;
        let err = read_ptb2(std::io::Cursor::new(&buf)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("block") && msg.contains("byte offset"),
            "{msg}"
        );
    }

    #[test]
    fn unknown_version_is_rejected() {
        let t = sample(10);
        let mut buf = Vec::new();
        write_ptb2(&t, &mut buf).unwrap();
        buf[3] = b'9';
        let err = read_ptb2(std::io::Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // The retired row-major v1 is just another unknown version.
        buf[3] = b'1';
        let err = read_ptb2(std::io::Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version '1'"), "{err}");
        buf[0] = b'X';
        let err = read_ptb2(std::io::Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn block_reader_streams_and_counts() {
        let t = sample(10_000);
        let mut buf = Vec::new();
        write_ptb2(&t, &mut buf).unwrap();
        let mut dec = Ptb2BlockReader::new(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(dec.meta(), &t.meta);
        let mut seen = Vec::new();
        let mut blocks = 0;
        while let Some(block) = dec.next_block().unwrap() {
            assert!(block.len() <= DEFAULT_BLOCK_RECORDS);
            seen.extend_from_slice(block);
            blocks += 1;
        }
        assert_eq!(blocks, 3); // 4096 + 4096 + 1808
        assert_eq!(dec.blocks_read(), 3);
        assert_eq!(dec.records_read(), 10_000);
        assert_eq!(seen, t.records);
        assert!(dec.next_block().unwrap().is_none());
    }

    #[test]
    fn columnar_encoding_is_much_smaller_than_jsonl() {
        // A realistic shape: strided offsets, near-constant sizes,
        // monotone timestamps, few call kinds.
        let mut t = Trace::new(TraceMeta::default());
        for i in 0..20_000u64 {
            t.push(Record {
                rank: (i % 64) as u32,
                call: if i % 4 == 0 {
                    CallKind::Read
                } else {
                    CallKind::Write
                },
                fd: 3,
                offset: (i % 64) << 24 | (i / 64) << 20,
                bytes: 1 << 20,
                start_ns: i * 50_000,
                end_ns: i * 50_000 + 2_000_000 + (i % 1000) * 300,
                phase: (i / 2500) as u32,
            });
        }
        let mut jsonl = Vec::new();
        crate::io::write_jsonl(&t, &mut jsonl).unwrap();
        let mut v2 = Vec::new();
        write_ptb2(&t, &mut v2).unwrap();
        assert!(
            v2.len() * 4 <= jsonl.len(),
            "ptb2 {} not >=4x smaller than jsonl {}",
            v2.len(),
            jsonl.len()
        );
    }
}
