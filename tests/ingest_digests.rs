//! Golden digests that pin the analysis plane across versions.
//!
//! `tests/sim_digests.rs` pins what the simulator produces; this file
//! pins what the streaming analysis makes of it. Each case streams one
//! fault-matrix trace (every `scenarios(16)` cell, baseline and faulted,
//! seed 101) into a `StreamDiagnoser` beside a `SnapshotBuilder`, and
//! folds into a 64-bit FNV-1a digest every finding with its
//! `after_records`/`phase` stamp, the diagnoser's metered size (the
//! fleet budget's currency) and the whole ensemble snapshot. Each trace
//! is fed two ways: record by record, and in 256-record blocks through
//! a `PhaseTracker`, which fires `phase_end` at every barrier. A small
//! `FleetService` run adds each tenant's findings, admission counts and
//! final snapshot, plus the machine roll-up, at pools 1 and 2,
//! unlimited and under a budget that freezes tenants mid-stream.
//!
//! The stream cases tee a standalone `SnapshotBuilder` beside the
//! diagnoser, an API every version of the analysis plane has, so the
//! file also checks trees from before the diagnoser owned its builder.
//! The snapshot a diagnoser keeps is pinned by the fleet cases (it is
//! each tenant's), and `crates/ingest/tests/block_equivalence.rs` holds
//! it equal to a standalone builder's.
//!
//! The digests hash a canonical form, never a `Debug` dump of a hash
//! map: sketches go in through their public accessors, floats by bit
//! pattern. A refactor that claims to leave the analysis alone must
//! reproduce them exactly; a change that alters it on purpose re-pins
//! them and says why in CHANGES.md. A failing case prints the digest it
//! got.

use events_to_ensembles::fleetd::{self, feed, fleet_config, fleet_spec, FleetService, SimConfig};
use events_to_ensembles::ingest::{
    DiagnoserConfig, EnsembleSnapshot, QuantileSketch, SnapshotBuilder, SnapshotConfig,
    StreamDiagnoser, TimedFinding,
};
use events_to_ensembles::trace::codec::PhaseTracker;
use events_to_ensembles::trace::{Record, RecordSink, Tee, Trace};
use pio_bench::fault_matrix::matrix_traces;
use std::sync::OnceLock;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
            None => self.u64(0),
        }
    }

    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Findings carry only vectors, enums and floats, so their `Debug` form
/// is canonical (floats print their shortest round-trip form).
fn findings(h: &mut Fnv, findings: &[TimedFinding]) {
    h.u64(findings.len() as u64);
    for t in findings {
        h.u64(t.after_records);
        h.u64(u64::from(t.phase));
        h.text(&format!("{:?}", t.finding));
    }
}

fn sketch(h: &mut Fnv, s: &QuantileSketch) {
    let g = s.geometry();
    h.f64(g.lo());
    h.f64(g.hi());
    h.u64(g.bins() as u64);
    h.u64(s.count());
    h.f64(s.sum());
    h.opt(s.min());
    h.opt(s.max());
    for i in 0..=20 {
        h.opt(s.quantile(f64::from(i) / 20.0));
    }
    for q in [0.99, 0.999] {
        h.opt(s.quantile(q));
    }
    for cut in [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0] {
        h.f64(s.fraction_above(cut));
    }
}

fn snapshot(h: &mut Fnv, s: &EnsembleSnapshot) {
    h.u64(s.shards.len() as u64);
    for (k, st) in &s.shards {
        h.text(k.kind.name());
        h.u64(u64::from(k.group));
        h.u64(u64::from(k.phase));
        let hist = &st.hist();
        h.u64(hist.bins() as u64);
        for &c in hist.counts() {
            h.u64(c);
        }
        h.u64(hist.underflow());
        h.u64(hist.overflow());
        sketch(h, &st.sketch);
        let m = &st.moments;
        h.u64(m.count());
        for v in [m.mean(), m.variance(), m.skewness(), m.excess_kurtosis()] {
            h.opt(v);
        }
        h.u64(st.ops);
        h.u64(st.bytes);
        h.f64(st.secs);
    }
    h.u64(u64::from(s.ranks));
    h.u64(s.ingested);
    h.u64(s.dropped);
}

/// Every `scenarios(16)` cell's baseline and faulted trace at seed 101
/// (`matrix_traces` yields each cell's baseline before its faulted run),
/// in arrival order (records sorted by start time, then rank), labelled
/// like the pinned tables below. Simulated once per test binary.
fn traces() -> &'static [(String, Vec<Record>)] {
    static TRACES: OnceLock<Vec<(String, Vec<Record>)>> = OnceLock::new();
    TRACES.get_or_init(|| {
        matrix_traces(16, &[101])
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let run = if i % 2 == 0 { "baseline" } else { "faulted" };
                let label = format!("{}/{run}", t.meta.experiment);
                let mut records = t.records;
                records.sort_by_key(|r| (r.start_ns, r.rank));
                (label, records)
            })
            .collect()
    })
}

/// The diagnoser window fleet tenants and the attribution corpus use:
/// small enough that windows fill mid-block on these traces.
fn diagnoser() -> StreamDiagnoser {
    StreamDiagnoser::new(DiagnoserConfig {
        window: fleetd::sim::CORPUS_WINDOW,
        ..DiagnoserConfig::default()
    })
}

fn digest_stream(feed: impl FnOnce(&mut dyn RecordSink)) -> u64 {
    let mut d = diagnoser();
    let mut b = SnapshotBuilder::new(SnapshotConfig::default());
    feed(&mut Tee(&mut d, &mut b));
    let mut h = Fnv::new();
    findings(&mut h, d.findings());
    h.u64(d.approx_bytes() as u64);
    snapshot(&mut h, &b.into_snapshot(0));
    h.0
}

/// Compare each case's digest with its pinned value; report every
/// mismatch at once.
fn check(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: Vec<String> = got
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),"))
        .collect();
    let labels: Vec<&str> = got.iter().map(|(l, _)| l.as_str()).collect();
    let want_labels: Vec<&str> = pinned.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels,
        want_labels,
        "cases differ; got:\n{}",
        table.join("\n")
    );
    let bad: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, d), (_, want))| d != want)
        .map(|((label, d), (_, want))| format!("{label}: got {d:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(bad.is_empty(), "digests moved:\n{}", bad.join("\n"));
}

const RECORD_BY_RECORD: [(&str, u64); 18] = [
    ("fault-slow-ost/baseline", 0x6c5268e0c766f616),
    ("fault-slow-ost/faulted", 0x06570b01a941595a),
    ("fault-slow-ost-ramp/baseline", 0xaf5f96ce2fd237b6),
    ("fault-slow-ost-ramp/faulted", 0xa8e7ddd5874c8cb9),
    ("fault-flaky-fabric/baseline", 0x7553ccff9a1ba889),
    ("fault-flaky-fabric/faulted", 0x7fc2de6f48854f1c),
    ("fault-mds-stall/baseline", 0xe5c963452843157a),
    ("fault-mds-stall/faulted", 0x0631f251557f6bda),
    ("fault-straggler-node/baseline", 0x7553ccff9a1ba889),
    ("fault-straggler-node/faulted", 0xd54454593dffaf0d),
    ("fault-drop-retry/baseline", 0x7553ccff9a1ba889),
    ("fault-drop-retry/faulted", 0x8dee8d81e87642a4),
    ("fault-slow-ost+mds-stall/baseline", 0xf33510e604f82989),
    ("fault-slow-ost+mds-stall/faulted", 0x6ab9237c00b53016),
    ("fault-straggler+flaky/baseline", 0x7553ccff9a1ba889),
    ("fault-straggler+flaky/faulted", 0xc9722e375ee99fe7),
    (
        "fault-slow-ost@early+flaky@late/baseline",
        0x7553ccff9a1ba889,
    ),
    (
        "fault-slow-ost@early+flaky@late/faulted",
        0x67a1c9c466c5cc78,
    ),
];

const PHASE_TRACKED_BLOCKS: [(&str, u64); 18] = [
    ("fault-slow-ost/baseline", 0x6c5268e0c766f616),
    ("fault-slow-ost/faulted", 0x06570b01a941595a),
    ("fault-slow-ost-ramp/baseline", 0xaf5f96ce2fd237b6),
    ("fault-slow-ost-ramp/faulted", 0xf868c0d437482ff8),
    ("fault-flaky-fabric/baseline", 0x7553ccff9a1ba889),
    ("fault-flaky-fabric/faulted", 0x7fc2de6f48854f1c),
    ("fault-mds-stall/baseline", 0xe5c963452843157a),
    ("fault-mds-stall/faulted", 0x0631f251557f6bda),
    ("fault-straggler-node/baseline", 0x7553ccff9a1ba889),
    ("fault-straggler-node/faulted", 0xd54454593dffaf0d),
    ("fault-drop-retry/baseline", 0x7553ccff9a1ba889),
    ("fault-drop-retry/faulted", 0x8dee8d81e87642a4),
    ("fault-slow-ost+mds-stall/baseline", 0xf33510e604f82989),
    ("fault-slow-ost+mds-stall/faulted", 0x6ab9237c00b53016),
    ("fault-straggler+flaky/baseline", 0x7553ccff9a1ba889),
    ("fault-straggler+flaky/faulted", 0xc9722e375ee99fe7),
    (
        "fault-slow-ost@early+flaky@late/baseline",
        0x7553ccff9a1ba889,
    ),
    (
        "fault-slow-ost@early+flaky@late/faulted",
        0x67a1c9c466c5cc78,
    ),
];

const FLEET: [(&str, u64); 2] = [
    ("budget-0", 0x810167cc29df38b0),
    ("budget-160000", 0xf1bb2b86081cc18c),
];

#[test]
fn stream_record_by_record() {
    let got: Vec<(String, u64)> = traces()
        .iter()
        .map(|(label, records)| {
            let d = digest_stream(|sink| {
                for r in records {
                    sink.push(r);
                }
                sink.finish();
            });
            (label.clone(), d)
        })
        .collect();
    check(&got, &RECORD_BY_RECORD);
}

#[test]
fn stream_in_phase_tracked_blocks() {
    let got: Vec<(String, u64)> = traces()
        .iter()
        .map(|(label, records)| {
            let d = digest_stream(|sink| {
                let mut tracker = PhaseTracker::new();
                for block in records.chunks(256) {
                    tracker.on_block(block, sink);
                }
                tracker.finish(sink);
            });
            (label.clone(), d)
        })
        .collect();
    check(&got, &PHASE_TRACKED_BLOCKS);
}

/// Six tenants, three faulted, through the service: per report its
/// name, findings, admission counts and final snapshot, then the
/// roll-up. The 160 kB budget freezes the larger tenants mid-stream, so
/// the admission counts pin where the budget currency (the diagnoser's
/// `approx_bytes`) crosses it.
#[test]
fn fleet_reports_at_pools_1_and_2() {
    let spec = fleet_spec(&SimConfig {
        jobs: 6,
        faulted: 3,
        scale: 16,
    });
    let sim: Vec<Trace> = fleetd::simulate(&spec, 2);
    let mut got = Vec::new();
    for budget in [0usize, 160_000] {
        let mut per_pool = Vec::new();
        for pool in [1usize, 2] {
            let mut svc = FleetService::new(fleet_config(pool, budget));
            let ids = feed(&svc, &spec, &sim, 2);
            svc.shutdown();
            let mut h = Fnv::new();
            for id in ids {
                let r = svc.report(id).expect("report filed");
                h.text(&r.name);
                findings(&mut h, &r.findings);
                h.u64(r.ingested);
                h.u64(r.shed);
                h.u64(u64::from(r.frozen));
                snapshot(&mut h, &r.snapshot);
            }
            snapshot(&mut h, &svc.rollup());
            per_pool.push(h.0);
        }
        assert_eq!(
            per_pool[0], per_pool[1],
            "budget {budget}: pools 1 and 2 differ"
        );
        got.push((format!("budget-{budget}"), per_pool[0]));
    }
    check(&got, &FLEET);
}
