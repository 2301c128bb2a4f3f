//! Property tests for fleetd's block transport: whatever block sizes a
//! decoder hands `JobSink::push_block` — including the final partial
//! block that straddles job EOS — the filed `JobReport` must be
//! identical to the same stream pushed in blocks of one. This is what
//! makes the service's diagnosis a pure function of the record stream,
//! not of the upstream decoder's framing.

use pio_fleetd::{FleetConfig, FleetService, JobReport};
use pio_trace::{CallKind, Record, RecordSink};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    let rec = (
        0u32..16,
        0usize..CallKind::ALL.len(),
        0u64..1 << 28,
        0u64..1 << 22,
        1u64..10_000_000_000,
    )
        .prop_map(|(rank, call, offset, bytes, dur_ns)| Record {
            rank,
            call: CallKind::ALL[call],
            fd: 3,
            offset,
            bytes,
            start_ns: offset % 1_000_000_000,
            end_ns: offset % 1_000_000_000 + dur_ns,
            phase: 0,
        });
    proptest::collection::vec(rec, 0..700)
}

fn run_job(batch: usize, feed: impl Fn(&mut dyn RecordSink)) -> Arc<JobReport> {
    let mut svc = FleetService::new(FleetConfig {
        workers: 2,
        batch,
        ..FleetConfig::default()
    });
    let mut sink = svc.register("prop-job");
    let id = sink.id();
    feed(&mut sink);
    sink.finish();
    drop(sink);
    svc.shutdown();
    svc.report(id).expect("report filed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Block sizes prime to the sink batch (and streams whose tail never
    /// fills a batch) still file the blocks-of-one report: EOS flushes
    /// the straddling remainder, and the worker-side block boundaries
    /// are identical either way.
    #[test]
    fn report_is_invariant_to_push_block_framing(
        records in arb_records(),
        batch in 1usize..96,
        sizes in proptest::collection::vec(1usize..130, 1..5),
    ) {
        let reference = run_job(batch, |sink| {
            for r in &records {
                sink.push(r);
            }
        });

        let blocked = run_job(batch, |sink| {
            let mut i = 0;
            let mut s = 0;
            while i < records.len() {
                let take = sizes[s % sizes.len()].min(records.len() - i);
                sink.push_block(&records[i..i + take]);
                i += take;
                s += 1;
            }
        });

        prop_assert_eq!(blocked, reference);
    }
}
