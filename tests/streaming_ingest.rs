//! End-to-end streaming diagnosis: the MADbench read-ahead bug (paper
//! §IV) must be flagged by the online diagnoser *mid-run* — before the
//! trace ends — with the same verdict the batch ensemble analysis
//! reaches on the buffered trace, and the snapshot builder must hold
//! only O(shards × bins) state while doing it.

use events_to_ensembles::fs::FsConfig;
use events_to_ensembles::ingest::{
    DiagnoserConfig, SnapshotBuilder, SnapshotConfig, StreamDiagnoser, TimedFinding,
};
use events_to_ensembles::mpi::{RunConfig, Runner};
use events_to_ensembles::stats::diagnosis::{diagnose, Finding};
use events_to_ensembles::trace::{CallKind, RecordSink, Tee, Trace, TraceMeta};
use events_to_ensembles::workloads::MadbenchConfig;

const SCALE: u32 = 32; // 8 tasks, full-size 300 MB matrices

fn madbench_cfg() -> (events_to_ensembles::mpi::Job, MadbenchConfig) {
    let cfg = MadbenchConfig::paper().scaled(SCALE);
    (cfg.job(), cfg)
}

fn has_read_shoulder(findings: &[Finding]) -> bool {
    findings.iter().any(|f| {
        matches!(
            f,
            Finding::RightShoulder {
                kind: CallKind::Read,
                ..
            }
        )
    })
}

fn timed_read_shoulder(findings: &[TimedFinding]) -> Option<&TimedFinding> {
    findings.iter().find(|t| {
        matches!(
            t.finding,
            Finding::RightShoulder {
                kind: CallKind::Read,
                ..
            }
        )
    })
}

/// Streaming the buggy Franklin run raises the read right-shoulder
/// finding before end-of-run, and the verdict agrees with the batch
/// analysis of the full buffered trace.
#[test]
fn streaming_flags_madbench_bug_before_end_of_run_matching_batch() {
    let (job, _) = madbench_cfg();
    let cfg = RunConfig::new(FsConfig::franklin().scaled(SCALE), 7, "madbench-stream");

    // One simulation, two consumers: the online diagnoser and a buffered
    // trace for the batch reference verdict. The window is sized for this
    // small 8-task run so several windows tumble before the run ends.
    let mut diagnoser = StreamDiagnoser::new(DiagnoserConfig {
        window: 64,
        ..DiagnoserConfig::default()
    });
    let mut trace = Trace::new(TraceMeta {
        experiment: "madbench-stream".into(),
        platform: "franklin".into(),
        ranks: job.ranks(),
        seed: 7,
    });
    {
        let mut tee = Tee(&mut diagnoser, &mut trace);
        Runner::new(&job, cfg)
            .sink(&mut tee)
            .execute_one()
            .expect("streaming run");
    }
    trace.records.sort_by_key(|r| (r.start_ns, r.rank));

    let batch = diagnose(&trace);
    assert!(
        has_read_shoulder(&batch),
        "batch must see the bug: {batch:?}"
    );

    let total = trace.records.len() as u64;
    let timed = timed_read_shoulder(diagnoser.findings())
        .unwrap_or_else(|| panic!("stream must see the bug: {:?}", diagnoser.findings()));
    assert!(
        timed.after_records < total,
        "finding must fire mid-run ({} records in, {} total)",
        timed.after_records,
        total
    );
}

/// The patched platform stays clean in both the streaming and batch
/// analyses — no false alarms from the sketch approximations.
#[test]
fn streaming_stays_clean_on_patched_platform() {
    let (job, _) = madbench_cfg();
    let cfg = RunConfig::new(
        FsConfig::franklin_patched().scaled(SCALE),
        7,
        "madbench-patched-stream",
    );

    let mut diagnoser = StreamDiagnoser::new(DiagnoserConfig::default());
    let res = Runner::new(&job, cfg).execute_one().expect("buffered run");
    for r in &res.trace().records {
        diagnoser.push(r);
    }
    diagnoser.finish();

    let batch = diagnose(res.trace());
    assert!(!has_read_shoulder(&batch), "{batch:?}");
    assert!(
        timed_read_shoulder(diagnoser.findings()).is_none(),
        "{:?}",
        diagnoser.findings()
    );
}

/// The snapshot builder captures a live run losslessly, and its state is
/// O(shards × bins): replaying the same stream four times over leaves
/// the footprint unchanged.
#[test]
fn pipeline_snapshot_is_bounded_and_lossless() {
    let (job, _) = madbench_cfg();
    let cfg = RunConfig::new(FsConfig::franklin().scaled(SCALE), 7, "madbench-pipeline");

    let mut builder = SnapshotBuilder::new(SnapshotConfig::default());
    let res = Runner::new(&job, cfg.clone())
        .sink(&mut builder)
        .execute_one()
        .expect("streaming run");
    let snap = builder.into_snapshot(0);
    assert!(res.stats.bytes_read > 0);

    // Constant memory: the same record stream replayed 4x over the same
    // key space must not grow the snapshot at all — state scales with
    // shards × bins, never with records ingested.
    let buffered = Runner::new(&job, cfg).execute_one().expect("buffered run");
    let replay = |times: usize| {
        let mut sink = SnapshotBuilder::new(SnapshotConfig::default());
        for _ in 0..times {
            for r in &buffered.trace().records {
                sink.push(r);
            }
        }
        sink.into_snapshot(0)
    };
    let once = replay(1);
    assert_eq!(
        snap.ingested, once.ingested,
        "live capture must be lossless"
    );
    let four = replay(4);
    assert_eq!(four.ingested, 4 * once.ingested);
    assert_eq!(once.approx_bytes(), four.approx_bytes());
    assert_eq!(once.approx_bytes(), snap.approx_bytes());
}
