//! `fault-sweep`: the attribution-rate flow. Every fault-matrix cell at
//! scale 16, a clean baseline run and a faulted run per cell, at one
//! derived seed per round; each run is simulated buffered, diagnosed in
//! batch, and given a whole-run verdict.

use crate::span::span;
use crate::{ratio, rounds, Expected, Outcome, Params, Seeds, SetupTime, SimCounters, Workload};
use pio_bench::fault_matrix::{scenarios, Scenario};
use pio_core::diagnose;
use pio_core::diagnosis::run_verdict;
use pio_fleetd::fleet_config;
use pio_mpi::{RunConfig, Runner};
use pio_trace::Record;
use std::time::Instant;

/// Set-up repetitions before the first window and after each window.
const SETUP_REPS: usize = 5;

/// The matrix's calibrated envelope.
const SCALE: u32 = 16;

/// A job's name in miss reports, e.g. `slow-ost faulted seed 7`.
fn job_label(cell: &Scenario, faulted: bool, seed: u64) -> String {
    let run = if faulted { "faulted" } else { "baseline" };
    format!("{} {run} seed {seed}", cell.fault)
}

pub(crate) fn run(seeds: &Seeds, p: &Params) -> Outcome {
    let mut out = Outcome::new(Workload::FaultSweep, seeds, "1");
    let setup = || {
        let t0 = Instant::now();
        let cells = scenarios(SCALE);
        (t0.elapsed().as_secs_f64(), cells)
    };
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let (s, c) = setup();
        out.setups.push(SetupTime::measured(s, s));
        cells = c;
    }
    let expected: Vec<Expected> = cells
        .iter()
        .map(|c| Expected::of_cell(&c.expected))
        .collect();
    let jobs_per_round = 2 * cells.len() as u64;

    let mut sim = SimCounters::default();
    let mut last_round: Vec<Vec<Record>> = Vec::new();
    let (tally, seeds_used) = (&mut out.tally, &mut out.seeds_used);
    let setups = &mut out.setups;
    let (min_rounds, window_jobs) = if p.tiny {
        (2, 0)
    } else {
        (1000u64.div_ceil(jobs_per_round), 1000)
    };
    let round = |k: u64, traced: bool, job_ms: &mut Vec<f64>| {
        let seed = seeds.job(k);
        seeds_used.push(seed);
        if traced {
            last_round.clear();
        }
        let mut records = 0u64;
        for (ci, cell) in cells.iter().enumerate() {
            for faulted in [false, true] {
                let job = k * jobs_per_round + 2 * ci as u64 + u64::from(faulted);
                tally.attempted += 1;
                let t0 = Instant::now();
                let mut cfg = RunConfig::new(cell.fs().clone(), seed, cell.fault);
                if faulted {
                    cfg = cfg.with_fault(cell.plan().clone());
                }
                let report = span("mpi.runner", job, || {
                    Runner::new(cell.job(), cfg).execute_one()
                });
                let report = match report {
                    Ok(r) => r,
                    Err(e) => {
                        tally.fail(format!("{} seed {seed}: {e}", cell.fault));
                        continue;
                    }
                };
                let findings = span("core.diagnose", job, || diagnose(report.trace()));
                let verdict = span("core.verdict", job, || run_verdict(&findings));
                let job_s = t0.elapsed().as_secs_f64();
                let trace = report.trace();
                if let Err(e) = trace.validate() {
                    tally.fail(format!("{} seed {seed}: malformed trace: {e}", cell.fault));
                    continue;
                }
                let want = if faulted {
                    &expected[ci]
                } else {
                    &Expected::Clean
                };
                tally.verdict(&job_label(cell, faulted, seed), want, &verdict);
                let n = trace.records.len() as u64;
                records += n;
                job_ms.push(job_s * 1e3);
                if traced {
                    sim.add(&report, n);
                    last_round.push(report.into_trace().records);
                }
            }
        }
        records
    };
    let timing = rounds(p, min_rounds, window_jobs, round, || {
        for _ in 0..SETUP_REPS {
            let (s, _) = setup();
            setups.push(SetupTime::measured(s, s));
        }
    });
    out.set_timing(timing);

    if p.trace {
        let totals = out.take_spans();
        let ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
        out.layers
            .extend(sim.rows(ns("mpi.runner") / 1e9, "in-situ"));
        let diagnose_ns = ratio(ns("core.diagnose"), out.traced_records as f64);
        let layout =
            pio_fleetd::OstLayout::new(cells[0].fs().stripe_bytes, cells[0].fs().n_osts, 0);
        out.replay_layers(
            &last_round,
            &fleet_config(2, 0).diagnoser,
            layout,
            pio_trace::ptb2::DEFAULT_BLOCK_RECORDS,
            Some(diagnose_ns),
        );
    }
    out
}

/// The sweep verdict fact: misses over every cell, baseline and faulted,
/// at `seeds`.
pub(crate) fn verdict_fact(seeds: &[u64]) -> String {
    let cells = scenarios(SCALE);
    let mut tally = crate::Tally::default();
    for &seed in seeds {
        for cell in &cells {
            for faulted in [false, true] {
                let mut cfg = RunConfig::new(cell.fs().clone(), seed, cell.fault);
                if faulted {
                    cfg = cfg.with_fault(cell.plan().clone());
                }
                let want = if faulted {
                    Expected::of_cell(&cell.expected)
                } else {
                    Expected::Clean
                };
                match Runner::new(cell.job(), cfg).execute_one() {
                    Ok(r) => tally.verdict(
                        &job_label(cell, faulted, seed),
                        &want,
                        &run_verdict(&diagnose(r.trace())),
                    ),
                    Err(e) => tally.fail(format!("{} seed {seed}: {e}", cell.fault)),
                }
            }
        }
    }
    format!(
        "fault-sweep seeds {seeds:?}: {} of {} jobs missed ({}), {} failed",
        tally.misses,
        tally.diagnosed,
        tally.missed_jobs.join("; "),
        tally.failed
    )
}
