//! `ior-paper`: the paper's Figure 1 IOR (1024 tasks × 512 MB into one
//! shared file, write-only, Franklin) streamed live through
//! `Runner::sink` into a stream diagnoser beside a ptb2 capture — the
//! IPM-I/O capture plus online-monitor flow. One job per round.

use crate::span::{span, Traced};
use crate::{rounds, Expected, Outcome, Params, Seeds, SetupTime, SimCounters, Workload};
use pio_core::diagnosis::{run_verdict, Verdict};
use pio_fs::FsConfig;
use pio_ingest::{DiagnoserConfig, StreamDiagnoser};
use pio_mpi::{RunConfig, Runner};
use pio_trace::codec::PhaseTracker;
use pio_trace::ptb2::read_ptb2;
use pio_trace::{Ptb2Writer, Record, RecordSink, Tee, Trace, TraceMeta};
use pio_workloads::IorConfig;
use std::time::Instant;

/// Set-up repetitions before the first window and after each window.
const SETUP_REPS: usize = 5;

/// The whole-run verdict of a stream diagnoser's findings so far.
fn verdict_of(d: &StreamDiagnoser) -> Verdict {
    let findings: Vec<_> = d.findings().iter().map(|t| t.finding.clone()).collect();
    run_verdict(&findings)
}

pub(crate) fn run(seeds: &Seeds, p: &Params) -> Outcome {
    let mut out = Outcome::new(Workload::IorPaper, seeds, "1");
    let (fs, tasks, block_bytes) = if p.tiny {
        (FsConfig::franklin().scaled(16), 64, 32 << 20)
    } else {
        (FsConfig::franklin(), 1024, 512 << 20)
    };
    let ior = IorConfig {
        tasks,
        block_bytes,
        repetitions: 2,
        ..IorConfig::paper_fig1()
    };
    let setup = || {
        let t0 = Instant::now();
        let job = ior.job();
        (t0.elapsed().as_secs_f64(), job)
    };
    let mut job = None;
    for _ in 0..SETUP_REPS {
        let (s, j) = setup();
        out.setups.push(SetupTime::measured(s, s));
        job = Some(j);
    }
    let job = job.expect("set-up ran");
    let want_bytes = ior.tasks as u64 * ior.block_bytes * ior.repetitions as u64;

    let mut sim = SimCounters::default();
    let mut last_capture: Vec<Record> = Vec::new();
    let (tally, seeds_used) = (&mut out.tally, &mut out.seeds_used);
    let setups = &mut out.setups;
    let round = |k: u64, traced: bool, job_ms: &mut Vec<f64>| {
        let seed = seeds.job(k);
        seeds_used.push(seed);
        tally.attempted += 1;
        let meta = TraceMeta {
            experiment: "ior-paper".into(),
            platform: fs.name.clone(),
            ranks: tasks,
            seed,
        };
        let writer = match Ptb2Writer::new(Vec::new(), &meta) {
            Ok(w) => w,
            Err(e) => {
                tally.fail(format!("seed {seed}: ptb2 header: {e}"));
                return 0;
            }
        };
        let mut sink = Tee(
            Traced {
                name: "ingest.diagnoser",
                job: k,
                inner: StreamDiagnoser::with_defaults(),
            },
            Traced {
                name: "trace.encode",
                job: k,
                inner: writer,
            },
        );
        let t0 = Instant::now();
        let report = span("mpi.runner", k, || {
            Runner::new(&job, RunConfig::new(fs.clone(), seed, "ior-paper"))
                .sink(&mut sink)
                .execute_one()
        });
        let job_s = t0.elapsed().as_secs_f64();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("seed {seed}: {e}"));
                return 0;
            }
        };
        let Tee(diag, writer) = sink;
        let seen = diag.inner.records();
        let verdict = verdict_of(&diag.inner);
        let capture = writer.inner.into_inner();
        let decoded = capture.map_err(|e| e.to_string()).and_then(|bytes| {
            span("trace.decode", k, || read_ptb2(&bytes[..])).map_err(|e| e.to_string())
        });
        match decoded {
            Err(e) => tally.fail(format!("seed {seed}: capture: {e}")),
            Ok(capture) if capture.records.len() as u64 != seen => tally.fail(format!(
                "seed {seed}: capture decodes to {} records, the sink saw {seen}",
                capture.records.len()
            )),
            Ok(_) if report.stats.bytes_written != want_bytes => tally.fail(format!(
                "seed {seed}: wrote {} bytes, want {want_bytes}",
                report.stats.bytes_written
            )),
            Ok(capture) => {
                if traced {
                    sim.add(&report, seen);
                    last_capture = capture.records;
                }
            }
        }
        tally.verdict(&format!("seed {seed}"), &Expected::Clean, &verdict);
        job_ms.push(job_s * 1e3);
        seen
    };
    let timing = rounds(p, 3, 1, round, || {
        for _ in 0..SETUP_REPS {
            let (s, _) = setup();
            setups.push(SetupTime::measured(s, s));
        }
    });
    out.set_timing(timing);

    if p.trace {
        let totals = out.take_spans();
        let runner_self = totals.get("mpi.runner").map_or(0, |t| t.self_ns) as f64 / 1e9;
        out.layers.extend(sim.rows(runner_self, "in-situ"));
        let layout = pio_fleetd::OstLayout::new(fs.stripe_bytes, fs.n_osts, 0);
        out.replay_layers(
            &[last_capture],
            &DiagnoserConfig::default(),
            layout,
            pio_trace::ptb2::DEFAULT_BLOCK_RECORDS,
            None,
        );
    }
    out
}

/// The live-capture verdict fact: clean IOR at `seed`, full scale,
/// diagnosed four ways — live through `Runner::sink`, batch `diagnose`
/// on the captured trace, and a block replay of the captured records
/// without and with barrier `phase_end` calls.
pub(crate) fn verdict_fact(seed: u64) -> String {
    let fs = FsConfig::franklin();
    let job = IorConfig {
        repetitions: 2,
        ..IorConfig::paper_fig1()
    }
    .job();
    let meta = TraceMeta {
        experiment: "ior-paper".into(),
        platform: fs.name.clone(),
        ranks: job.ranks(),
        seed,
    };
    let mut sink = Tee(StreamDiagnoser::with_defaults(), Trace::new(meta));
    if let Err(e) = Runner::new(&job, RunConfig::new(fs, seed, "ior-paper"))
        .sink(&mut sink)
        .execute_one()
    {
        return format!("ior-paper seed {seed}: {e}");
    }
    let Tee(live, mut trace) = sink;
    let verdict = |d: &StreamDiagnoser| verdict_of(d).label();
    let mut plain = StreamDiagnoser::with_defaults();
    for block in trace.records.chunks(crate::replay::BLOCK) {
        plain.push_block(block);
    }
    plain.finish();
    let mut phased = StreamDiagnoser::with_defaults();
    let mut tracker = PhaseTracker::new();
    for block in trace.records.chunks(crate::replay::BLOCK) {
        tracker.on_block(block, &mut phased);
    }
    tracker.finish(&mut phased);
    trace.sort_by_start();
    format!(
        "ior-paper seed {seed} (clean, {} records): live capture {}; batch diagnose {}; \
         block replay without phase_end {}; with phase_end {}",
        trace.records.len(),
        verdict(&live),
        run_verdict(&pio_core::diagnose(&trace)).label(),
        verdict(&plain),
        verdict(&phased),
    )
}
