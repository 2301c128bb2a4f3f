//! Golden digests that pin the simulator across versions.
//!
//! `crates/bench/tests/determinism.rs` compares a build only against
//! itself (thread counts, re-runs), so it cannot see a change that moves
//! an RNG draw or reorders two events. Each case here runs one small,
//! seeded job through the full stack and folds everything the run
//! produces into a 64-bit FNV-1a digest: every field of every record in
//! completion order, each barrier's `phase_end`, `FsStats`, `LockStats`,
//! the `UtilizationReport` (f64s by bit pattern), the event count and
//! the end time. The pinned values were computed by the build before the
//! simulator's per-RPC path was rewritten, so a refactor that claims to
//! leave the model alone must reproduce them exactly.
//!
//! One case per mechanism of the write and read paths: shared-file IOR
//! (lock grants and ownership), file-per-process IOR with read-back,
//! unaligned GCRM (partial stripes, RAID penalties, lock conflicts,
//! read-modify-write, sync writes), aligned GCRM, a shifted overwrite of
//! a shared file (full-stripe conflicts beside partial ones), MADbench on
//! buggy Franklin (degraded reads at grant and sticky ones), a strided
//! reader whose node fills with dirty pages mid-read (a degrade
//! mid-flight), and two faulted fault-matrix cells. One more case runs
//! the paper's Fig. 1 at full scale, pinned by the build before the
//! radix event queue; it runs only in release builds.
//!
//! A change that alters the model on purpose updates the digests here
//! and says why in CHANGES.md. A failing case prints the digest it got.

use events_to_ensembles::des::SimSpan;
use events_to_ensembles::fs::sim::UtilizationReport;
use events_to_ensembles::fs::{FsConfig, FsStats, LockStats};
use events_to_ensembles::mpi::program::{FileSpec, Op, Program};
use events_to_ensembles::mpi::{Job, RunConfig, RunReport, Runner};
use events_to_ensembles::trace::{Record, RecordSink};
use events_to_ensembles::workloads::presets::{fig1_ior, fig4_madbench, fig6_gcrm};
use events_to_ensembles::workloads::IorConfig;
use pio_bench::fault_matrix::scenarios;

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
}

/// A sink that digests the record stream in completion order, with a
/// marker at every phase boundary.
struct DigestSink(Fnv);

impl RecordSink for DigestSink {
    fn push_block(&mut self, block: &[Record]) {
        for Record {
            rank,
            call,
            fd,
            offset,
            bytes,
            start_ns,
            end_ns,
            phase,
        } in block
        {
            let h = &mut self.0;
            h.u64(u64::from(*rank));
            h.bytes(format!("{call:?}").as_bytes());
            h.u64(*fd as u64);
            h.u64(*offset);
            h.u64(*bytes);
            h.u64(*start_ns);
            h.u64(*end_ns);
            h.u64(u64::from(*phase));
        }
    }

    fn phase_end(&mut self, phase: u32) {
        self.0.bytes(b"phase_end");
        self.0.u64(u64::from(phase));
    }
}

/// Run `job` under `cfg`, streaming into a [`DigestSink`], and fold the
/// run report into the same digest.
fn digest(job: &Job, cfg: RunConfig) -> (u64, RunReport) {
    let mut sink = DigestSink(Fnv::new());
    let report = Runner::new(job, cfg)
        .sink(&mut sink)
        .execute_one()
        .expect("run");
    let mut h = sink.0;
    let FsStats {
        data_rpcs,
        meta_ops,
        degraded_reads,
        sync_writes,
        bytes_read,
        bytes_written,
        flushes,
    } = report.stats;
    for v in [
        data_rpcs,
        meta_ops,
        degraded_reads,
        sync_writes,
        bytes_read,
        bytes_written,
        flushes,
    ] {
        h.u64(v);
    }
    let LockStats {
        acquired,
        contended,
        revoked,
    } = report.lock_stats;
    for v in [acquired, contended, revoked] {
        h.u64(v);
    }
    let UtilizationReport {
        horizon_s,
        fabric_busy_s,
        dlm_busy_s,
        mds_busy_s,
        ost_busy_s,
        ost_switches,
        ost_direction_switches,
        ost_bytes,
        node_dirty_peak,
        node_dirty_avg,
    } = &report.util;
    for v in [horizon_s, fabric_busy_s, dlm_busy_s, mds_busy_s] {
        h.f64(*v);
    }
    for vs in [ost_busy_s, node_dirty_avg] {
        h.u64(vs.len() as u64);
        vs.iter().for_each(|&v| h.f64(v));
    }
    for vs in [
        ost_switches,
        ost_direction_switches,
        ost_bytes,
        node_dirty_peak,
    ] {
        h.u64(vs.len() as u64);
        vs.iter().for_each(|&v| h.u64(v));
    }
    h.u64(report.events);
    h.u64(report.end.nanos());
    (h.0, report)
}

fn check(case: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{case}: simulator digest changed (got {got:#018x}); if the model \
         changed on purpose, pin the new value and say why in CHANGES.md"
    );
}

fn fault_cell(fault: &str, seed: u64) -> (u64, RunReport) {
    let cell = scenarios(16)
        .into_iter()
        .find(|s| s.fault == fault)
        .expect("fault-matrix cell");
    let cfg = RunConfig::new(cell.fs().clone(), seed, format!("fault-{fault}"))
        .with_fault(cell.plan().clone());
    digest(cell.job(), cfg)
}

#[test]
fn ior_shared_file() {
    let exp = fig1_ior(7, false, 64);
    let (d, r) = digest(&exp.job, exp.run);
    assert!(r.lock_stats.acquired > 0);
    check("ior_shared_file", d, 0x6884_9f3d_b603_2965);
}

/// The paper's Fig. 1 at full scale (1,024 tasks, five repetitions,
/// 2.64 M events, 18,656 pending at the peak): the only case whose
/// event queue fills the upper radix levels (the others peak at 681
/// pending events or fewer).
#[test]
#[cfg_attr(debug_assertions, ignore = "full scale: runs in the release CI step")]
fn ior_shared_file_full_scale() {
    let exp = fig1_ior(7, false, 1);
    let (d, r) = digest(&exp.job, exp.run);
    assert!(r.lock_stats.acquired > 0);
    check("ior_shared_file_full_scale", d, 0x86bb_bef8_d2e8_659f);
}

#[test]
fn ior_file_per_process() {
    let ior = IorConfig {
        tasks: 16,
        block_bytes: 64 << 20,
        segments: 2,
        repetitions: 2,
        read_back: true,
        file_per_process: true,
    };
    let cfg = RunConfig::new(FsConfig::franklin().scaled(64), 5, "ior-fpp");
    let (d, r) = digest(&ior.job(), cfg);
    assert!(r.stats.bytes_read > 0);
    assert_eq!(r.lock_stats.acquired, 0, "private files take no locks");
    check("ior_file_per_process", d, 0xa0ec_bbec_6808_9f31);
}

#[test]
fn gcrm_baseline() {
    let exp = fig6_gcrm(0, 13, 640);
    let (d, r) = digest(&exp.job, exp.run);
    assert!(r.lock_stats.contended > 0 && r.lock_stats.revoked > 0);
    assert!(r.stats.sync_writes > 0);
    check("gcrm_baseline", d, 0x2f51_fcd4_4e5e_17ed);
}

#[test]
fn gcrm_aligned() {
    let exp = fig6_gcrm(2, 13, 640);
    let (d, _) = digest(&exp.job, exp.run);
    check("gcrm_aligned", d, 0x4c9f_787e_5b26_cbb3);
}

const MB: u64 = 1 << 20;

#[test]
fn shared_file_shifted_overwrite() {
    // Eight ranks on two nodes write aligned 4 MiB blocks, then each
    // overwrites the block of a rank on the other node shifted by half a
    // stripe (two partial edges around three full stripes, held by the
    // other node), then reads its second block back.
    let programs = (0..8u64)
        .map(|r| {
            let other = (r + 4) % 8;
            let shifted = other * 4 * MB + MB / 2;
            Program {
                ops: vec![
                    Op::Open { file: 0 },
                    Op::Barrier,
                    Op::WriteAt {
                        file: 0,
                        offset: r * 4 * MB,
                        bytes: 4 * MB,
                    },
                    Op::Barrier,
                    Op::WriteAt {
                        file: 0,
                        offset: shifted,
                        bytes: 4 * MB,
                    },
                    Op::Barrier,
                    Op::ReadAt {
                        file: 0,
                        offset: shifted,
                        bytes: 4 * MB,
                    },
                    Op::Close { file: 0 },
                ],
            }
        })
        .collect();
    let job = Job {
        programs,
        files: vec![FileSpec { shared: true }],
    };
    let cfg = RunConfig::new(FsConfig::franklin().scaled(64), 9, "shifted-overwrite");
    let (d, r) = digest(&job, cfg);
    let locks = r.lock_stats;
    assert!(locks.revoked > 0 && locks.contended > locks.revoked);
    check("shared_file_shifted_overwrite", d, 0x833f_b27a_263a_3cf7);
}

#[test]
fn madbench_buggy_franklin() {
    let exp = fig4_madbench(FsConfig::franklin(), 3, 32);
    let (d, r) = digest(&exp.job, exp.run);
    assert!(r.stats.degraded_reads > 0);
    check("madbench_buggy_franklin", d, 0x0349_9732_2184_d1d9);
}

#[test]
fn strided_read_degrades_mid_flight() {
    // A strided reader shares its node with a writer that starts a 1 GiB
    // buffered write 1 s in: the fourth read is granted unpressured and
    // collapses to page fetches mid-flight, later ones degrade at grant
    // (pressure, then the sticky stride-run).
    let mut reader = vec![Op::Open { file: 0 }];
    for i in 0..8 {
        reader.push(Op::ReadAt {
            file: 0,
            offset: i * 96 * MB,
            bytes: 64 * MB,
        });
    }
    let writer = vec![
        Op::Open { file: 1 },
        Op::Compute {
            span: SimSpan::from_secs_f64(1.0),
        },
        Op::WriteAt {
            file: 1,
            offset: 0,
            bytes: 1024 * MB,
        },
    ];
    let job = Job {
        programs: vec![Program { ops: reader }, Program { ops: writer }],
        files: vec![FileSpec { shared: false }, FileSpec { shared: false }],
    };
    let mut fs = FsConfig::franklin().scaled(64);
    fs.discipline_weights = [0.0, 0.0, 1.0];
    let (d, r) = digest(&job, RunConfig::new(fs, 11, "strided-mid-flight"));
    assert_eq!(r.stats.degraded_reads, 5);
    check("strided_read_degrades_mid_flight", d, 0x6a99_47b3_51e0_171d);
}

#[test]
fn fault_slow_ost() {
    let (d, _) = fault_cell("slow-ost", 101);
    check("fault_slow_ost", d, 0x5b35_8f67_0650_8ab7);
}

#[test]
fn fault_drop_retry() {
    let (d, _) = fault_cell("drop-retry", 101);
    check("fault_drop_retry", d, 0x2908_cbf1_47a6_8030);
}
