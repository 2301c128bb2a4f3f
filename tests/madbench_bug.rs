//! The MADbench case study end-to-end: the strided read-ahead bug fires
//! on Franklin, the ensemble detectors find it, and the patch removes it
//! (paper §IV, Figures 4–5).

use events_to_ensembles::des::hist::LogHistogram;
use events_to_ensembles::fs::FsConfig;
use events_to_ensembles::mpi::{RunConfig, RunReport, Runner};
use events_to_ensembles::stats::diagnosis::{diagnose, Finding};
use events_to_ensembles::stats::empirical::EmpiricalDist;
use events_to_ensembles::trace::CallKind;
use events_to_ensembles::workloads::MadbenchConfig;

const SCALE: u32 = 32; // 8 tasks, full-size 300 MB matrices

fn run_on(platform: FsConfig, seed: u64) -> (MadbenchConfig, RunReport) {
    let cfg = MadbenchConfig::paper().scaled(SCALE);
    let job = cfg.job();
    let res = Runner::new(
        &job,
        RunConfig::new(platform.scaled(SCALE), seed, "madbench-int"),
    )
    .execute_one()
    .unwrap();
    (cfg, res)
}

#[test]
fn bug_fires_on_franklin_and_not_after_patch_or_on_jaguar() {
    let (_, buggy) = run_on(FsConfig::franklin(), 3);
    let (_, patched) = run_on(FsConfig::franklin_patched(), 3);
    let (_, jaguar) = run_on(FsConfig::jaguar(), 3);
    assert!(buggy.stats.degraded_reads > 0);
    assert_eq!(patched.stats.degraded_reads, 0);
    assert_eq!(jaguar.stats.degraded_reads, 0);
    // Paper's ordering: buggy Franklin ≫ patched Franklin > Jaguar.
    assert!(buggy.wall_secs() > 2.0 * patched.wall_secs());
    assert!(patched.wall_secs() > jaguar.wall_secs());
}

#[test]
fn read_shoulder_appears_only_on_the_buggy_platform() {
    let (_, buggy) = run_on(FsConfig::franklin(), 7);
    let (_, patched) = run_on(FsConfig::franklin_patched(), 7);
    let f_buggy = diagnose(buggy.trace());
    let f_patched = diagnose(patched.trace());
    assert!(
        f_buggy.iter().any(|f| matches!(
            f,
            Finding::RightShoulder {
                kind: CallKind::Read,
                ..
            }
        )),
        "{f_buggy:?}"
    );
    assert!(
        !f_patched.iter().any(|f| matches!(
            f,
            Finding::RightShoulder {
                kind: CallKind::Read,
                ..
            }
        )),
        "{f_patched:?}"
    );
}

#[test]
fn middle_reads_deteriorate_progressively() {
    let (cfg, buggy) = run_on(FsConfig::franklin(), 5);
    let groups = cfg.middle_reads_by_index(buggy.trace());
    assert_eq!(groups.len(), cfg.n_matrices as usize);
    let medians: Vec<f64> = groups
        .iter()
        .map(|g| EmpiricalDist::new(g).median())
        .collect();
    // Reads 4..8 slower than reads 1..3 (first strided trigger at 4),
    // and the last read is the worst (growing erroneous window).
    let early = medians[..3]
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        medians[5..].iter().all(|&m| m > early),
        "late reads must exceed early ones: {medians:?}"
    );
    let last = *medians.last().unwrap();
    assert!(
        last >= medians[3],
        "deterioration should not reverse: {medians:?}"
    );
}

#[test]
fn write_ensembles_similar_but_read_ensembles_differ_across_platforms() {
    // Paper: "the two write distributions display similar performance
    // characteristics, while the read distributions show a markedly
    // different pattern from each other."
    let (_, franklin) = run_on(FsConfig::franklin(), 9);
    let (_, jaguar) = run_on(FsConfig::jaguar(), 9);
    let w_f = EmpiricalDist::new(&franklin.trace().durations_of(CallKind::Write));
    let w_j = EmpiricalDist::new(&jaguar.trace().durations_of(CallKind::Write));
    let r_f = EmpiricalDist::new(&franklin.trace().durations_of(CallKind::Read));
    let r_j = EmpiricalDist::new(&jaguar.trace().durations_of(CallKind::Read));
    let write_gap = w_f.quantile(0.95) / w_j.quantile(0.95);
    let read_gap = r_f.quantile(0.95) / r_j.quantile(0.95);
    assert!(
        read_gap > 2.0 * write_gap,
        "reads must separate the platforms far more than writes: \
         read {read_gap:.2} vs write {write_gap:.2}"
    );
}

#[test]
fn log_histogram_shows_the_slow_read_band() {
    let (_, buggy) = run_on(FsConfig::franklin(), 11);
    let reads = buggy.trace().durations_of(CallKind::Read);
    let hist = LogHistogram::from_samples(&reads, 60);
    // A material fraction of reads live beyond 30 s (the paper's
    // "slowest read() calls vary from 30 to 500 seconds").
    let tail = hist.tail_fraction(30.0);
    assert!(tail > 0.02, "slow-read band missing: {tail}");
    // And the patched run has essentially nothing out there.
    let (_, patched) = run_on(FsConfig::franklin_patched(), 11);
    let hist_p = LogHistogram::from_samples(&patched.trace().durations_of(CallKind::Read), 60);
    assert!(hist_p.tail_fraction(120.0) < 0.01);
}

#[test]
fn no_lock_conflicts_in_madbench() {
    // Exclusive per-task regions + alignment gaps: the paper's MADbench
    // problem is read-ahead, never extent locking.
    let (_, buggy) = run_on(FsConfig::franklin(), 13);
    assert_eq!(buggy.lock_stats.contended, 0);
}
