//! The fast-trace-plane contract, property-tested end to end:
//!
//! * JSONL ↔ ptb2 conversion preserves every `Record` field and the
//!   `TraceMeta`, for arbitrary records across the full field ranges.
//! * The hand-rolled JSONL scanner agrees with `serde_json` on
//!   arbitrary records — and on malformed lines, where its fallback
//!   must reproduce the strict parser's accept/reject decision exactly.
//! * Truncated or bit-flipped ptb2 bytes are rejected with a clean
//!   `io::Error`, never a panic or a silently short read.
//! * The online diagnoser and the snapshot builder reach bit-identical
//!   findings and snapshots from either encoding of a real simulated
//!   trace.
//! * ptb2's columnar compression earns its keep: ≥4× smaller than JSONL
//!   on a real trace.

use events_to_ensembles::ingest::{
    DiagnoserConfig, SnapshotBuilder, SnapshotConfig, StreamDiagnoser,
};
use events_to_ensembles::trace::io::{read_jsonl, stream_file, write_jsonl, TraceFormat};
use events_to_ensembles::trace::jsonl::{parse_record, parse_record_fast};
use events_to_ensembles::trace::ptb2::{read_ptb2, write_ptb2};
use events_to_ensembles::trace::{CallKind, Record, RecordSink, Trace, TraceMeta};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = Record> {
    (
        0u32..u32::MAX,
        0usize..12,
        -2i32..1 << 20,
        (0u64..u64::MAX, 0u64..u64::MAX),
        (0u64..u64::MAX, 0u64..u64::MAX),
        0u32..1 << 16,
    )
        .prop_map(
            |(rank, call, fd, (offset, bytes), (start_ns, end_ns), phase)| Record {
                rank,
                call: CallKind::ALL[call],
                fd,
                offset,
                bytes,
                start_ns,
                end_ns,
                phase,
            },
        )
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(arb_record(), 0..300),
        0u32..4096,
        0u64..u64::MAX,
    )
        .prop_map(|(records, ranks, seed)| {
            let mut t = Trace::new(TraceMeta {
                experiment: "prop".into(),
                platform: "test".into(),
                ranks,
                seed,
            });
            for r in records {
                t.push(r);
            }
            t
        })
}

proptest! {
    #[test]
    fn jsonl_and_ptb_round_trips_preserve_everything(t in arb_trace()) {
        let mut jsonl = Vec::new();
        write_jsonl(&t, &mut jsonl).unwrap();
        let from_jsonl = read_jsonl(std::io::Cursor::new(&jsonl)).unwrap();
        prop_assert_eq!(&from_jsonl.meta, &t.meta);
        prop_assert_eq!(&from_jsonl.records, &t.records);

        let mut ptb2 = Vec::new();
        write_ptb2(&t, &mut ptb2).unwrap();
        let from_ptb2 = read_ptb2(std::io::Cursor::new(&ptb2)).unwrap();
        prop_assert_eq!(&from_ptb2.meta, &t.meta);
        prop_assert_eq!(&from_ptb2.records, &t.records);
    }

    #[test]
    fn fast_parser_accepts_all_serialized_records(r in arb_record()) {
        let line = serde_json::to_string(&r).unwrap();
        // Canonical writer output must take the fast path and agree.
        let fast = parse_record_fast(&line);
        prop_assert_eq!(fast.clone(), Some(r.clone()));
        prop_assert_eq!(parse_record(&line).unwrap(), r);
    }

    #[test]
    fn fast_parser_agrees_with_serde_on_mangled_lines(
        r in arb_record(),
        cut in 0usize..200,
        flip in 0usize..200,
        bit in 0u8..7,
    ) {
        // Mangle a valid line by truncation and a byte tweak; whatever
        // comes out, fast-path accepts only if serde accepts with the
        // same value, and the public parser matches serde exactly.
        let line = serde_json::to_string(&r).unwrap();
        let mut bytes = line.clone().into_bytes();
        bytes.truncate(cut.min(bytes.len()));
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        if let Ok(mangled) = String::from_utf8(bytes) {
            let strict = serde_json::from_str::<Record>(&mangled).ok();
            if let Some(fast) = parse_record_fast(&mangled) {
                prop_assert_eq!(Some(fast), strict.clone(), "fast diverged on {}", mangled);
            }
            prop_assert_eq!(parse_record(&mangled).ok(), strict, "fallback diverged on {}", mangled);
        }
    }

    #[test]
    fn corrupt_ptb2_is_an_error_never_a_panic(
        t in arb_trace(),
        cut in 0usize..20_000,
        flip in 0usize..20_000,
        bit in 0u8..8,
    ) {
        let mut clean = Vec::new();
        write_ptb2(&t, &mut clean).unwrap();

        // Truncation at any depth: error, not a short read.
        let cut = cut % clean.len();
        if cut < clean.len() {
            prop_assert!(read_ptb2(std::io::Cursor::new(&clean[..cut])).is_err());
        }

        // One flipped bit anywhere: a clean error or an immaterial flip
        // — never silently different records, and never a panic in the
        // columnar decoders (all decode arithmetic is wrapping).
        let mut bent = clean.clone();
        let i = flip % bent.len();
        bent[i] ^= 1 << bit;
        match read_ptb2(std::io::Cursor::new(&bent)) {
            Err(_) => {}
            Ok(back) => {
                prop_assert_eq!(back.records, t.records, "bit flip at {} read differently", i);
            }
        }
    }
}

/// Collect a sink stream into (records, phase_ends) for parity checks.
#[derive(Default)]
struct Collector {
    records: Vec<Record>,
    phase_ends: Vec<u32>,
    finished: bool,
}

impl RecordSink for Collector {
    fn push_block(&mut self, block: &[Record]) {
        self.records.extend_from_slice(block);
    }
    fn phase_end(&mut self, p: u32) {
        self.phase_ends.push(p);
    }
    fn finish(&mut self) {
        self.finished = true;
    }
}

/// A real simulated trace (scaled-down IOR fig1 run) for end-to-end
/// format-parity checks.
fn ior_trace() -> Trace {
    use events_to_ensembles::fs::FsConfig;
    use events_to_ensembles::mpi::{RunConfig, Runner};
    use events_to_ensembles::workloads::IorConfig;
    let cfg = IorConfig {
        repetitions: 2,
        ..IorConfig::paper_fig1().scaled(64)
    };
    let job = cfg.job();
    let res = Runner::new(
        &job,
        RunConfig::new(FsConfig::franklin().scaled(64), 7, "fmt-parity"),
    )
    .execute_one()
    .unwrap();
    res.trace().clone()
}

#[test]
fn all_format_streams_are_event_identical_on_a_real_trace() {
    let t = ior_trace();
    let mut jsonl = Vec::new();
    write_jsonl(&t, &mut jsonl).unwrap();
    let mut ptb2 = Vec::new();
    write_ptb2(&t, &mut ptb2).unwrap();
    // The binary format earns its keep: columnar ptb2 at least 4x
    // smaller than the text encoding on a real simulated trace.
    assert!(
        ptb2.len() * 4 <= jsonl.len(),
        "ptb2 {} not >=4x smaller than jsonl {}",
        ptb2.len(),
        jsonl.len()
    );

    let mut a = Collector::default();
    let (meta_a, n_a) = TraceFormat::Jsonl.stream(&jsonl[..], &mut a).unwrap();
    let mut b = Collector::default();
    let (meta_b, n_b) = TraceFormat::Ptb2.stream(&ptb2[..], &mut b).unwrap();
    assert_eq!(meta_a, meta_b);
    assert_eq!(n_a, n_b);
    assert_eq!(a.records, b.records);
    assert_eq!(a.phase_ends, b.phase_ends);
    assert!(a.finished && b.finished);
}

#[test]
fn diagnoser_and_snapshot_parity_across_formats_and_transport() {
    let t = ior_trace();
    let dir = std::env::temp_dir().join("pio_trace_formats_parity");
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = TraceFormat::ALL
        .iter()
        .map(|&format| {
            let p = dir.join(format!("t.{}", format.name()));
            events_to_ensembles::trace::io::save_as(&t, &p, format).unwrap();
            p
        })
        .collect();

    // One diagnoser, which owns the stream's snapshot builder, per
    // on-disk format via the sniffing entry point (the `analyze
    // --stream` transport) — verdicts and snapshots must be
    // bit-identical, and match the builder fed straight from memory.
    let run = |path: &std::path::Path| {
        let mut diagnoser = StreamDiagnoser::new(DiagnoserConfig::default());
        let (meta, n) = stream_file(path, &mut diagnoser).unwrap();
        assert_eq!(meta, t.meta, "{path:?}");
        assert_eq!(n as usize, t.records.len(), "{path:?}");
        let (findings, builder) = diagnoser.into_parts();
        (builder.into_snapshot(0), format!("{findings:?}"))
    };
    let (snap_ref, findings_ref) = run(&paths[0]);
    for p in &paths[1..] {
        let (snap, findings) = run(p);
        assert_eq!(snap, snap_ref, "{p:?}");
        assert_eq!(findings, findings_ref, "{p:?}");
    }
    let mut direct = SnapshotBuilder::new(SnapshotConfig::default());
    direct.accumulate_block(&t.records);
    assert_eq!(direct.into_snapshot(0), snap_ref);

    for p in &paths {
        std::fs::remove_file(p).ok();
    }
}
