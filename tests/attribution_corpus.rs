//! Golden-verdict attribution corpus: every named fault plan — single,
//! compound, and time-scheduled — × two seeds, attributed by the
//! *shared* detectors both post-mortem (batch `diagnose` over the
//! buffered trace) and mid-run (the `StreamDiagnoser` fed
//! record-by-record), with the clean baselines attribution-free on both
//! paths. The trace format must be semantically invisible: same
//! verdict, byte for byte.

use events_to_ensembles::fault::{FaultPlan, FaultSchedule};
use events_to_ensembles::ingest::{DiagnoserConfig, StreamDiagnoser, TimedFinding};
use events_to_ensembles::stats::attribution::FaultClass;
use events_to_ensembles::stats::diagnosis::{run_verdict, Verdict};
use events_to_ensembles::trace::{Record, RecordSink, Trace, TraceFormat};
use pio_bench::fault_matrix::{run_once, scenarios, verdict_of, Expect};

const SCALE: u32 = 16;
const SEEDS: [u64; 2] = [101, 202];

/// Arrival-ordered records of a run (the order a tracer would emit).
fn arrival_order(records: &[Record]) -> Vec<Record> {
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|r| (r.start_ns, r.rank));
    sorted
}

/// Stream a record sequence through the online diagnoser with a window
/// small enough that several windows tumble within these short runs.
fn stream(records: &[Record]) -> StreamDiagnoser {
    let mut d = StreamDiagnoser::new(DiagnoserConfig {
        window: 256,
        ..DiagnoserConfig::default()
    });
    for r in records {
        d.push(r);
    }
    d.finish();
    d
}

/// The stream's whole-run verdict: the same `run_verdict` roll-up the
/// batch path and fleetd use, over every finding the stream raised.
fn stream_verdict(d: &StreamDiagnoser) -> Verdict {
    let findings: Vec<_> = d.findings().iter().map(|t| t.finding.clone()).collect();
    run_verdict(&findings)
}

/// Every attributed finding the stream raised, in firing order.
fn stream_attributions(d: &StreamDiagnoser) -> Vec<(Vec<FaultClass>, u64)> {
    d.findings()
        .iter()
        .filter_map(|t: &TimedFinding| {
            t.finding
                .attribution()
                .map(|a| (a.classes, t.after_records))
        })
        .collect()
}

#[test]
fn every_named_fault_is_attributed_batch_and_mid_run() {
    let mut covered = Vec::new();
    for sc in scenarios(SCALE) {
        let Expect::Single(want) = sc.expected else {
            continue; // ramp shape and pair cells assert elsewhere
        };
        covered.push(want);
        for seed in SEEDS {
            let res = run_once(sc.job(), sc.fs(), seed, "corpus", Some(sc.plan()));

            // Batch: exactly the expected class, nothing else.
            let v = verdict_of(&res);
            assert_eq!(
                v,
                Verdict::Single(want),
                "{} seed {seed}: batch verdict {}",
                sc.fault,
                v.label()
            );

            // Streaming: the expected class fires before end-of-stream,
            // and the stream's final verdict agrees.
            let records = arrival_order(&res.trace().records);
            let d = stream(&records);
            let attrs = stream_attributions(&d);
            let total = records.len() as u64;
            assert!(
                attrs
                    .iter()
                    .any(|(cs, after)| cs.contains(&want) && *after < total),
                "{} seed {seed}: no mid-run {want:?} among {attrs:?} ({total} records)",
                sc.fault
            );
            assert_eq!(
                stream_verdict(&d),
                Verdict::Single(want),
                "{} seed {seed}: stream's final verdict disagrees: {attrs:?}",
                sc.fault
            );
        }
    }
    // The corpus must exercise all five named fault classes.
    covered.sort();
    assert_eq!(
        covered,
        vec![
            FaultClass::SlowOst,
            FaultClass::FlakyFabric,
            FaultClass::MdsStall,
            FaultClass::StragglerNode,
            FaultClass::DropRetry,
        ]
    );
}

#[test]
fn compound_and_scheduled_plans_name_both_classes_batch_and_mid_run() {
    let mut pairs = 0;
    for sc in scenarios(SCALE) {
        let Expect::Pair(a, b) = sc.expected else {
            continue;
        };
        pairs += 1;
        for seed in SEEDS {
            let res = run_once(sc.job(), sc.fs(), seed, "corpus-pair", Some(sc.plan()));

            // Batch: both injected classes named — confidently or as an
            // honest ambiguity — and nothing outside the pair.
            let v = verdict_of(&res);
            assert!(
                v.implicates(a) && v.implicates(b),
                "{} seed {seed}: batch verdict {} misses one of {}/{}",
                sc.fault,
                v.label(),
                a.name(),
                b.name()
            );
            assert!(
                v.classes().iter().all(|c| *c == a || *c == b),
                "{} seed {seed}: batch verdict {} strays outside the pair",
                sc.fault,
                v.label()
            );

            // Streaming: some attribution fires mid-run, and the final
            // stream verdict also implicates both classes.
            let records = arrival_order(&res.trace().records);
            let d = stream(&records);
            let attrs = stream_attributions(&d);
            let total = records.len() as u64;
            assert!(
                attrs.iter().any(|(_, after)| *after < total),
                "{} seed {seed}: nothing fired mid-run ({total} records)",
                sc.fault
            );
            let sv = stream_verdict(&d);
            assert!(
                sv.implicates(a) && sv.implicates(b),
                "{} seed {seed}: stream verdict {} misses one of {}/{} ({attrs:?})",
                sc.fault,
                sv.label(),
                a.name(),
                b.name()
            );
            assert!(
                sv.classes().iter().all(|c| *c == a || *c == b),
                "{} seed {seed}: stream verdict {} strays outside the pair",
                sc.fault,
                sv.label()
            );
        }
    }
    // The corpus must exercise all three compound separations:
    // call-class, rank-space, and time.
    assert!(pairs >= 3, "only {pairs} pair cells in the matrix");
}

#[test]
fn clean_baselines_are_attribution_free_batch_and_stream() {
    for sc in scenarios(SCALE) {
        for seed in SEEDS {
            let res = run_once(sc.job(), sc.fs(), seed, "corpus-base", None);
            let v = verdict_of(&res);
            assert_eq!(
                v,
                Verdict::Clean,
                "{} seed {seed}: baseline verdict {}",
                sc.fault,
                v.label()
            );
            let d = stream(&arrival_order(&res.trace().records));
            let attrs = stream_attributions(&d);
            assert!(
                attrs.is_empty(),
                "{} seed {seed}: baseline stream attributed {attrs:?}",
                sc.fault
            );
        }
    }
}

#[test]
fn whole_run_schedules_are_byte_equal_to_unscheduled() {
    // A schedule covering the whole run must be invisible: same RNG
    // draws, same IEEE arithmetic, bit-identical traces. Checked at the
    // run level for every single-fault cell of the matrix.
    for sc in scenarios(SCALE) {
        if sc.plan().entries().len() != 1 || !sc.plan().entries()[0].schedule.is_always() {
            continue;
        }
        let fault = sc.plan().entries()[0].fault.clone();
        for (name, schedule) in [
            ("always", FaultSchedule::ALWAYS),
            ("whole-run-window", FaultSchedule::window(0.0, 1e9)),
        ] {
            let scheduled = FaultPlan::new().with_scheduled(fault.clone(), schedule);
            let seed = SEEDS[0];
            let a = run_once(sc.job(), sc.fs(), seed, "sched-eq", Some(sc.plan()));
            let b = run_once(sc.job(), sc.fs(), seed, "sched-eq", Some(&scheduled));
            assert_eq!(
                a.trace().records,
                b.trace().records,
                "{} ({name}): trace diverged under a whole-run schedule",
                sc.fault
            );
            assert_eq!(a.events, b.events, "{} ({name}): event count", sc.fault);
            assert_eq!(a.end, b.end, "{} ({name}): end time", sc.fault);
        }
    }
}

#[test]
fn stream_verdicts_are_identical_across_formats_and_ingest_threads() {
    // The compound corpus through every transport: the same faulted
    // trace serialized as jsonl and ptb2 must drive the streaming
    // diagnoser to identical findings (same firing order, same record
    // counts). Concurrent ingest is the fleet service's job, pinned at
    // pools {1, 2, 8} in `tests/fleetd_sim.rs`; snapshot shard-count
    // invariance is the `rollup_is_shard_count_invariant` proptest.
    for sc in scenarios(SCALE) {
        if !matches!(sc.expected, Expect::Pair(..)) {
            continue;
        }
        let seed = SEEDS[0];
        let res = run_once(sc.job(), sc.fs(), seed, "corpus-fmt", Some(sc.plan()));
        let mut t = Trace::new(res.trace().meta.clone());
        t.records = arrival_order(&res.trace().records);

        // Reference: direct push, record by record.
        let reference = stream(&t.records).findings().to_vec();
        assert!(
            !reference.is_empty(),
            "{}: compound run produced no stream findings",
            sc.fault
        );

        for format in TraceFormat::ALL {
            let mut bytes = Vec::new();
            format.write(&t, &mut bytes).unwrap();
            let mut d = StreamDiagnoser::new(DiagnoserConfig {
                window: 256,
                ..DiagnoserConfig::default()
            });
            let (_, n) = format.stream(bytes.as_slice(), &mut d).unwrap();
            let fmt = format.name();
            assert_eq!(
                n,
                t.records.len() as u64,
                "{} via {fmt}: lost records",
                sc.fault
            );
            assert_eq!(
                d.findings(),
                &reference[..],
                "{} via {fmt}: findings diverged from direct push",
                sc.fault
            );
        }
    }
}
