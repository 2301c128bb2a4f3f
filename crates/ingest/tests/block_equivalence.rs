//! Property tests pinning the analysis plane's one ingest path,
//! `RecordSink::push_block`, to its partition contract: for any record
//! stream, any block partition, and any on-disk format, the state must
//! equal that of the same stream fed in blocks of one — a bit-identical
//! `EnsembleSnapshot` and identical findings. With the debug assertions
//! that check every bin classification against `LogBins`, these are
//! the equivalence proofs that let the hot path change representation
//! without changing a single verdict.

use std::io::Cursor;

use pio_ingest::{DiagnoserConfig, SnapshotBuilder, SnapshotConfig, StreamDiagnoser};
use pio_trace::{CallKind, Record, RecordSink, Trace, TraceFormat, TraceMeta};
use proptest::prelude::*;

/// Arbitrary records across every call kind, with durations spanning the
/// sketch geometry (including out-of-range values that hit the clamped
/// buckets), small-write byte counts, and rolling phase stamps.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    let rec = (
        0u32..24,
        0usize..CallKind::ALL.len(),
        0u64..1 << 30,
        0u64..1 << 24,
        1u64..20_000_000_000,
        0u32..4,
    )
        .prop_map(|(rank, call, offset, bytes, dur_ns, phase)| Record {
            rank,
            call: CallKind::ALL[call],
            fd: 3,
            offset,
            bytes,
            start_ns: offset.wrapping_mul(7) % 1_000_000_000,
            end_ns: offset.wrapping_mul(7) % 1_000_000_000 + dur_ns,
            phase,
        });
    proptest::collection::vec(rec, 0..900)
}

/// A partition of `n` records into blocks: cut points drawn as a block
/// size per segment, so tiny and huge blocks both occur.
fn partition(sizes: &[usize], records: &[Record]) -> Vec<Vec<Record>> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut s = 0;
    while i < records.len() {
        let take = sizes[s % sizes.len()].max(1).min(records.len() - i);
        out.push(records[i..i + take].to_vec());
        i += take;
        s += 1;
    }
    out
}

fn diagnoser() -> StreamDiagnoser {
    // A small window so the property streams actually trigger mid-block
    // window evaluations, not just end-of-stream ones.
    StreamDiagnoser::new(DiagnoserConfig {
        window: 64,
        ..DiagnoserConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `StreamDiagnoser::push_block` over any partition is observationally
    /// identical to blocks of one (`push`): same findings (bit-identical
    /// severities), same record count, same metered size, same owned
    /// snapshot, under mid-stream phase ends — and that snapshot is the
    /// one a standalone builder of the same shape makes of the stream.
    /// (The diagnoser's unit tests hold its private evidence equal too.)
    #[test]
    fn diagnoser_block_path_matches_record_path(
        records in arb_records(),
        sizes in proptest::collection::vec(1usize..300, 1..6),
    ) {
        let mut reference = diagnoser();
        for r in &records {
            reference.push(r);
        }
        reference.phase_end(0);
        reference.phase_end(1);
        reference.finish();

        let mut block = diagnoser();
        for chunk in partition(&sizes, &records) {
            block.push_block(&chunk);
        }
        block.phase_end(0);
        block.phase_end(1);
        block.finish();

        prop_assert_eq!(block.findings(), reference.findings());
        prop_assert_eq!(block.records(), reference.records());
        prop_assert_eq!(block.approx_bytes(), reference.approx_bytes());
        let snapshot = reference.builder().snapshot(0);
        prop_assert_eq!(&block.builder().snapshot(0), &snapshot);
        let mut alone = SnapshotBuilder::new(DiagnoserConfig::default().snapshot_config());
        for r in &records {
            alone.push(r);
        }
        prop_assert_eq!(alone.into_snapshot(0), snapshot);
    }

    /// `SnapshotBuilder::accumulate_block` over any partition yields a
    /// bit-identical `EnsembleSnapshot` (PartialEq on f64 state) to
    /// blocks of one.
    #[test]
    fn builder_block_path_matches_record_path(
        records in arb_records(),
        sizes in proptest::collection::vec(1usize..300, 1..6),
    ) {
        let mut reference = SnapshotBuilder::new(SnapshotConfig::default());
        for r in &records {
            reference.push(r);
        }

        let mut block = SnapshotBuilder::new(SnapshotConfig::default());
        for chunk in partition(&sizes, &records) {
            block.accumulate_block(&chunk);
        }

        prop_assert_eq!(block.into_snapshot(0), reference.into_snapshot(0));
    }
}

/// Forwards every block as blocks of one, so the inner sink only ever
/// sees the reference partition regardless of what the decoder delivers.
struct PerRecord<S>(S);

impl<S: RecordSink> RecordSink for PerRecord<S> {
    fn push_block(&mut self, block: &[Record]) {
        for r in block {
            self.0.push(r);
        }
    }
    fn phase_end(&mut self, phase: u32) {
        self.0.phase_end(phase);
    }
    fn finish(&mut self) {
        self.0.finish();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming the same encoded trace in every format produces
    /// identical analysis whether the decoder's blocks flow into the
    /// batched kernels whole or unrolled into blocks of one — and the
    /// verdicts agree across both encodings. The sink is the one
    /// `analyze --stream` and a fleet tenant run: a diagnoser, which
    /// owns the stream's snapshot builder; [`PerRecord`] wraps it to
    /// unroll the decoder's blocks for the reference side.
    #[test]
    fn codec_streams_are_block_record_equivalent(records in arb_records()) {
        let mut trace = Trace::new(TraceMeta {
            experiment: "block-equivalence".into(),
            platform: "proptest".into(),
            ranks: 24,
            seed: 7,
        });
        for r in &records {
            trace.push(r.clone());
        }

        let mut snapshots = Vec::new();
        for format in TraceFormat::ALL {
            let mut bytes = Vec::new();
            format.write(&trace, &mut bytes).expect("encode");

            let mut batched = diagnoser();
            let (_, n) = format
                .stream(Cursor::new(&bytes), &mut batched)
                .expect("stream batched");
            prop_assert_eq!(n as usize, records.len());

            let mut unrolled = PerRecord(diagnoser());
            format
                .stream(Cursor::new(&bytes), &mut unrolled)
                .expect("stream unrolled");

            prop_assert_eq!(
                batched.findings(),
                unrolled.0.findings(),
                "findings diverge under {}",
                format.name()
            );
            let a = batched.builder().snapshot(0);
            let b = unrolled.0.builder().snapshot(0);
            prop_assert_eq!(&a, &b, "snapshot diverges under {}", format.name());
            snapshots.push(a);
        }
        for s in &snapshots[1..] {
            prop_assert_eq!(s, &snapshots[0], "snapshot diverges across formats");
        }
    }
}
