//! The paper's core statistical claim, end to end: ensembles are stable
//! across runs, order statistics explain phase times, and the LLN
//! prediction machinery tracks measurements — and the attribution
//! verdicts built on top are deterministic across trace encodings.

use events_to_ensembles::fleetd::sim::CORPUS_WINDOW;
use events_to_ensembles::fs::FsConfig;
use events_to_ensembles::ingest::{DiagnoserConfig, StreamDiagnoser};
use events_to_ensembles::mpi::{RunConfig, Runner};
use events_to_ensembles::stats::attribution::FaultClass;
use events_to_ensembles::stats::empirical::EmpiricalDist;
use events_to_ensembles::stats::ensemble::Ensemble;
use events_to_ensembles::stats::lln;
use events_to_ensembles::trace::io::{stream_file, TraceFormat};
use events_to_ensembles::trace::CallKind;
use events_to_ensembles::workloads::IorConfig;

fn experiment() -> IorConfig {
    IorConfig {
        repetitions: 2,
        ..IorConfig::paper_fig1().scaled(64)
    }
}

#[test]
fn ensemble_is_reproducible_across_seeds_and_across_file_systems() {
    let cfg = experiment();
    let base = RunConfig::new(FsConfig::franklin().scaled(64), 0, "ens");
    let job = cfg.job();
    let reports = Runner::new(&job, base)
        .seeds(&[1, 2, 3, 4])
        .execute()
        .unwrap();
    let runs: Vec<Vec<f64>> = reports
        .iter()
        .map(|r| r.trace().durations_of(CallKind::Write))
        .collect();
    let ens = Ensemble::from_samples(&runs);
    let stability = ens.stability().unwrap();
    assert!(
        ens.is_reproducible(0.35),
        "ensemble unstable: {stability:?}"
    );
    // The "other file system" (scratch2): same hardware, fresh seed —
    // still the same distribution.
    let fs2 = RunConfig::new(FsConfig::franklin_scratch2().scaled(64), 99, "ens2");
    let t2 = Runner::new(&job, fs2).execute_one().unwrap().into_trace();
    let mut all = runs;
    all.push(t2.durations_of(CallKind::Write));
    let ens2 = Ensemble::from_samples(&all);
    assert!(ens2.is_reproducible(0.35));
    let (mean, sd) = ens2.mean_of_means();
    assert!(sd / mean < 0.2, "means vary too much: {mean} ± {sd}");
}

#[test]
fn a_pathological_run_breaks_stability() {
    // Mix healthy Franklin runs with a buggy MADbench-style read
    // ensemble: the stability metric must notice.
    let cfg = experiment();
    let base = RunConfig::new(FsConfig::franklin().scaled(64), 0, "ens-bad");
    let job = cfg.job();
    let reports = Runner::new(&job, base).seeds(&[5, 6]).execute().unwrap();
    let mut runs: Vec<Vec<f64>> = reports
        .iter()
        .map(|r| r.trace().durations_of(CallKind::Write))
        .collect();
    // Synthetic pathological run: everything 20x slower.
    runs.push(runs[0].iter().map(|&d| d * 20.0).collect());
    let ens = Ensemble::from_samples(&runs);
    assert!(!ens.is_reproducible(0.5));
}

#[test]
fn lln_prediction_tracks_measurement_direction() {
    let platform = FsConfig::franklin().scaled(64);
    let mut measured = Vec::new();
    let mut k1_totals = None;
    for k in [1u32, 4] {
        let cfg = IorConfig {
            segments: k,
            repetitions: 1,
            ..IorConfig::paper_fig1().scaled(64)
        };
        let job = cfg.job();
        let res = Runner::new(&job, RunConfig::new(platform.clone(), 40 + k as u64, "lln"))
            .execute_one()
            .unwrap();
        let start = res
            .trace()
            .of_kind(CallKind::Write)
            .map(|r| r.start_ns)
            .min()
            .unwrap();
        let end = res
            .trace()
            .of_kind(CallKind::Write)
            .map(|r| r.end_ns)
            .max()
            .unwrap();
        measured.push(res.stats.bytes_written as f64 / ((end - start) as f64 / 1e9));
        if k == 1 {
            let mut totals = vec![0.0f64; cfg.tasks as usize];
            for r in res.trace().of_kind(CallKind::Write) {
                totals[r.rank as usize] += r.secs();
            }
            k1_totals = Some(EmpiricalDist::new(&totals));
        }
    }
    // Measurement: k=4 at least as fast as k=1.
    assert!(measured[1] >= measured[0] * 0.98, "{measured:?}");
    // Prediction from the k=1 ensemble alone agrees in direction.
    let pred = lln::predicted_rate_vs_k(&k1_totals.unwrap(), &[1, 4], 16, measured[0], 96);
    assert!(pred[1].1 >= pred[0].1, "{pred:?}");
}

/// Attribution verdicts are a function of the trace alone: the stream
/// diagnoser, fed from either on-disk encoding, reaches bit-identical
/// findings with the same stamps — and the straggler run is actually
/// named. (Verdicts across ingest threads are the fleet service's
/// contract, pinned at pools {1, 2, 8} in `tests/fleetd_sim.rs`.)
#[test]
fn attribution_verdicts_identical_across_threads_and_formats() {
    let sc = pio_bench::fault_matrix::scenarios(16)
        .into_iter()
        .find(|s| s.expected == pio_bench::fault_matrix::Expect::Single(FaultClass::StragglerNode))
        .expect("straggler cell");
    let trace = pio_bench::fault_matrix::run_once(sc.job(), sc.fs(), 101, "det", Some(sc.plan()))
        .into_trace();

    let dir = std::env::temp_dir().join("pio_attr_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let paths = [
        (dir.join("t.jsonl"), TraceFormat::Jsonl),
        (dir.join("t.ptb2"), TraceFormat::Ptb2),
    ];
    for (path, format) in &paths {
        events_to_ensembles::trace::io::save_as(&trace, path, *format).unwrap();
    }

    let mut verdicts: Vec<(String, String)> = Vec::new();
    for (path, _) in &paths {
        let mut diagnoser = StreamDiagnoser::new(DiagnoserConfig {
            window: CORPUS_WINDOW,
            ..DiagnoserConfig::default()
        });
        stream_file(path, &mut diagnoser).unwrap();
        let findings = diagnoser.findings();
        assert!(
            findings
                .iter()
                .filter_map(|t| t.finding.attribution())
                .any(|a| a.implicates(FaultClass::StragglerNode)),
            "{path:?}: {findings:?}"
        );
        verdicts.push((format!("{path:?}"), format!("{findings:?}")));
    }
    let (_, reference) = &verdicts[0];
    for (label, v) in &verdicts {
        assert_eq!(v, reference, "verdicts diverge at {label}");
    }

    for (path, _) in &paths {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn pooled_distribution_has_the_runs_inside_it() {
    let cfg = experiment();
    let base = RunConfig::new(FsConfig::franklin().scaled(64), 0, "pool");
    let job = cfg.job();
    let reports = Runner::new(&job, base).seeds(&[7, 8]).execute().unwrap();
    let runs: Vec<Vec<f64>> = reports
        .iter()
        .map(|r| r.trace().durations_of(CallKind::Write))
        .collect();
    let n: usize = runs.iter().map(Vec::len).sum();
    let ens = Ensemble::from_samples(&runs);
    let pooled = ens.pooled();
    assert_eq!(pooled.n(), n);
    for d in ens.distributions() {
        assert!(pooled.min() <= d.min());
        assert!(pooled.max() >= d.max());
    }
}
