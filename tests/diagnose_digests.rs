//! Golden digests that pin batch diagnosis across versions.
//!
//! `tests/attribution_corpus.rs` pins each run's verdict label, so a
//! change that moves a median, a mode location or a tail share without
//! flipping a verdict passes it. Each case here runs one fault-matrix
//! cell's baseline or faulted job (`matrix_traces` at seeds 1, 2, 101
//! and 202) through the buffered runner and `diagnose`, and folds two
//! 64-bit FNV-1a digests over its seeds:
//!
//! * every field of every record, in the order the buffered trace holds
//!   them, which pins the runner's start-time order;
//! * the `Debug` form of the findings, which pins every detector's
//!   output bit for bit (findings carry only vectors, enums and floats,
//!   and floats print their shortest round-trip form).
//!
//! The pinned values were computed by the build before the buffered
//! runner stopped sorting whole records and `diagnose` stopped
//! reclassifying durations, so a change that claims to leave simulation
//! and diagnosis alone must reproduce them exactly; one that alters them
//! on purpose re-pins them and says why in CHANGES.md. A failing case
//! prints the digests it got.

use events_to_ensembles::stats::diagnose;
use events_to_ensembles::trace::Record;
use pio_bench::fault_matrix::matrix_traces;

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
}

fn records(h: &mut Fnv, records: &[Record]) {
    h.u64(records.len() as u64);
    for r in records {
        h.u64(u64::from(r.rank));
        h.bytes(r.call.name().as_bytes());
        h.u64(r.fd as u64);
        h.u64(r.offset);
        h.u64(r.bytes);
        h.u64(r.start_ns);
        h.u64(r.end_ns);
        h.u64(u64::from(r.phase));
    }
}

const SEEDS: [u64; 4] = [1, 2, 101, 202];

/// `(label, records digest, findings digest)` per cell and run, each
/// folded over [`SEEDS`] in order.
fn digests(scale: u32) -> Vec<(String, u64, u64)> {
    // `matrix_traces` yields cell by cell, seed by seed, a baseline
    // before its faulted run.
    let traces = matrix_traces(scale, &SEEDS);
    let per_cell = 2 * SEEDS.len();
    traces
        .chunks(per_cell)
        .flat_map(|cell| {
            ["baseline", "faulted"]
                .into_iter()
                .enumerate()
                .map(|(i, run)| {
                    let (mut rh, mut fh) = (Fnv::new(), Fnv::new());
                    for t in cell.iter().skip(i).step_by(2) {
                        records(&mut rh, &t.records);
                        fh.bytes(format!("{:?}", diagnose(t)).as_bytes());
                    }
                    (format!("{}/{run}", cell[0].meta.experiment), rh.0, fh.0)
                })
        })
        .collect()
}

/// Compare each case's digests with their pinned values; report every
/// mismatch at once.
fn check(got: &[(String, u64, u64)], pinned: &[(&str, u64, u64)]) {
    let table: Vec<String> = got
        .iter()
        .map(|(label, r, f)| format!("    (\"{label}\", {r:#018x}, {f:#018x}),"))
        .collect();
    let labels: Vec<&str> = got.iter().map(|(l, _, _)| l.as_str()).collect();
    let want_labels: Vec<&str> = pinned.iter().map(|(l, _, _)| *l).collect();
    assert_eq!(
        labels,
        want_labels,
        "cases differ; got:\n{}",
        table.join("\n")
    );
    let mut bad = Vec::new();
    for ((label, r, f), (_, want_r, want_f)) in got.iter().zip(pinned) {
        if r != want_r {
            bad.push(format!("{label}: records {r:#018x}, pinned {want_r:#018x}"));
        }
        if f != want_f {
            bad.push(format!(
                "{label}: findings {f:#018x}, pinned {want_f:#018x}"
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "digests moved:\n{}\ngot:\n{}",
        bad.join("\n"),
        table.join("\n")
    );
}

const SCALE_16: [(&str, u64, u64); 18] = [
    (
        "fault-slow-ost/baseline",
        0x720355771223bfe5,
        0x588afaf3be640fce,
    ),
    (
        "fault-slow-ost/faulted",
        0x74220c08c92c9ce1,
        0xdf21fad2bc89fee0,
    ),
    (
        "fault-slow-ost-ramp/baseline",
        0x2fdacaeed3192974,
        0x365f7eb6c929baf9,
    ),
    (
        "fault-slow-ost-ramp/faulted",
        0x8e46f2213c08855f,
        0x999c67a6f65e5804,
    ),
    (
        "fault-flaky-fabric/baseline",
        0xcba8f8e88f6f3cfd,
        0x9d836b995b315b9d,
    ),
    (
        "fault-flaky-fabric/faulted",
        0xce1e9ae91ddae415,
        0xddd5f2533b8818fd,
    ),
    (
        "fault-mds-stall/baseline",
        0xa0eef042cf73a8e7,
        0x2d9cb6baee024525,
    ),
    (
        "fault-mds-stall/faulted",
        0xa6b5dd92ad165bf7,
        0xfa678b5468d03a1b,
    ),
    (
        "fault-straggler-node/baseline",
        0xcba8f8e88f6f3cfd,
        0x9d836b995b315b9d,
    ),
    (
        "fault-straggler-node/faulted",
        0x77d1755d02e02d85,
        0x46f537dd113c45e1,
    ),
    (
        "fault-drop-retry/baseline",
        0xcba8f8e88f6f3cfd,
        0x9d836b995b315b9d,
    ),
    (
        "fault-drop-retry/faulted",
        0x7f3bbf33a239fc59,
        0x54d42ebbc9d9865b,
    ),
    (
        "fault-slow-ost+mds-stall/baseline",
        0xd711a7132ee2bc1b,
        0x2d9cb6baee024525,
    ),
    (
        "fault-slow-ost+mds-stall/faulted",
        0x61e3afb6b52dd980,
        0xa82c750c4b4e3c02,
    ),
    (
        "fault-straggler+flaky/baseline",
        0xcba8f8e88f6f3cfd,
        0x9d836b995b315b9d,
    ),
    (
        "fault-straggler+flaky/faulted",
        0x8f2a084ce5f63aac,
        0x57f06197d563aade,
    ),
    (
        "fault-slow-ost@early+flaky@late/baseline",
        0xcba8f8e88f6f3cfd,
        0x9d836b995b315b9d,
    ),
    (
        "fault-slow-ost@early+flaky@late/faulted",
        0xba7d8d86717160df,
        0x0fbdb2929f02fcee,
    ),
];

const SCALE_8: [(&str, u64, u64); 18] = [
    (
        "fault-slow-ost/baseline",
        0x3b144f7d940e07d1,
        0x27cc20c6dec0347b,
    ),
    (
        "fault-slow-ost/faulted",
        0xba915f9e28dc18ad,
        0x9169239d0a045e51,
    ),
    (
        "fault-slow-ost-ramp/baseline",
        0x0e6410a16eb386c3,
        0xe574700743a0fc45,
    ),
    (
        "fault-slow-ost-ramp/faulted",
        0x315d1d06661f9967,
        0x970331520c0327b9,
    ),
    (
        "fault-flaky-fabric/baseline",
        0x8617c56880bfd241,
        0x228adb5ba99876c8,
    ),
    (
        "fault-flaky-fabric/faulted",
        0x2714be395f3ba52b,
        0x622c1caaed0c3bc4,
    ),
    (
        "fault-mds-stall/baseline",
        0xbdc7bff993004e8a,
        0x2d9cb6baee024525,
    ),
    (
        "fault-mds-stall/faulted",
        0x10b3848d9df7c3be,
        0x2ec9828b7011f5dc,
    ),
    (
        "fault-straggler-node/baseline",
        0x8617c56880bfd241,
        0x228adb5ba99876c8,
    ),
    (
        "fault-straggler-node/faulted",
        0x43b1bd658e1edb3b,
        0x6bd3e6e0bbc24ca7,
    ),
    (
        "fault-drop-retry/baseline",
        0x8617c56880bfd241,
        0x228adb5ba99876c8,
    ),
    (
        "fault-drop-retry/faulted",
        0x731bf28e329f7319,
        0xd2c02d502a854a4f,
    ),
    (
        "fault-slow-ost+mds-stall/baseline",
        0xee02f77d5bdaa63d,
        0x2d9cb6baee024525,
    ),
    (
        "fault-slow-ost+mds-stall/faulted",
        0xe6fc3d41cce05000,
        0x3b5c350b1ab72769,
    ),
    (
        "fault-straggler+flaky/baseline",
        0xcba8f8e88f6f3cfd,
        0x9d836b995b315b9d,
    ),
    (
        "fault-straggler+flaky/faulted",
        0x8f2a084ce5f63aac,
        0x57f06197d563aade,
    ),
    (
        "fault-slow-ost@early+flaky@late/baseline",
        0xcba8f8e88f6f3cfd,
        0x9d836b995b315b9d,
    ),
    (
        "fault-slow-ost@early+flaky@late/faulted",
        0xba7d8d86717160df,
        0x0fbdb2929f02fcee,
    ),
];

#[test]
fn scale_16() {
    check(&digests(16), &SCALE_16);
}

#[test]
fn scale_8() {
    check(&digests(8), &SCALE_8);
}
