//! Determinism guarantees the performance pass must preserve.
//!
//! The hot-path optimizations (work-stealing ensembles, allocation-free
//! event loop, binned statistics kernels) are only admissible if they
//! keep results bit-identical: ensemble reports must not depend on the
//! worker-thread count or on re-running, with or without fault
//! injection, and the binned KDE fast path must reach the same analysis
//! verdicts as the exact kernel on real workload data.

use pio_bench::util::named_fault_plan;
use pio_core::empirical::EmpiricalDist;
use pio_core::kde::Kde;
use pio_core::modes::{find_modes_on_grid, harmonic_structure, MODE_GRID_POINTS};
use pio_core::rates::sec_per_mb_samples;
use pio_fault::FaultPlan;
use pio_mpi::{RunConfig, RunReport, Runner};
use pio_trace::CallKind;
use pio_workloads::presets::{fig1_ior, fig6_gcrm};

/// Run a 5-seed IOR ensemble with `threads` workers.
fn ensemble(threads: usize, fault: Option<FaultPlan>) -> Vec<RunReport> {
    let exp = fig1_ior(1, false, 256);
    let seeds: Vec<u64> = (1..=5).collect();
    Runner::new(&exp.job, RunConfig { fault, ..exp.run })
        .seeds(&seeds)
        .threads(threads)
        .execute()
        .expect("ensemble")
}

#[test]
fn clean_ensembles_are_bit_identical_across_thread_counts() {
    let serial = ensemble(1, None);
    assert_eq!(serial.len(), 5);
    for threads in [2, 8] {
        let parallel = ensemble(threads, None);
        assert_eq!(serial, parallel, "threads={threads} diverged from serial");
    }
    // And across repeated runs of the same configuration.
    assert_eq!(serial, ensemble(1, None), "serial re-run diverged");
}

#[test]
fn faulted_ensembles_are_bit_identical_across_thread_counts() {
    for name in ["slow-ost", "drop-retry"] {
        let plan = named_fault_plan(name).expect("named plan");
        let serial = ensemble(1, Some(plan.clone()));
        for threads in [2, 8] {
            let parallel = ensemble(threads, Some(plan.clone()));
            assert_eq!(serial, parallel, "{name} threads={threads} diverged");
        }
        assert_eq!(
            serial,
            ensemble(1, Some(plan.clone())),
            "{name} re-run diverged"
        );
    }
}

#[test]
fn binned_kde_reaches_the_same_verdicts_as_exact_on_workload_data() {
    // Real workload samples: per-write sec/MB costs from a GCRM
    // baseline run — the distribution Figure 6's class analysis reads.
    let exp = fig6_gcrm(0, 13, 64);
    let res = Runner::new(&exp.job, exp.run.clone())
        .execute_one()
        .expect("gcrm run");
    let data: Vec<f64> = sec_per_mb_samples(res.trace(), |r| r.call == CallKind::Write);
    let dist = EmpiricalDist::new(&data);
    assert!(
        dist.n() >= 512,
        "fixture must be large enough for the binned path, got {}",
        dist.n()
    );

    // Mirror find_modes' undersmoothed bandwidth, then pick a grid fine
    // enough (dt <= bandwidth) that Kde::grid takes the binned path.
    let bw = (0.5 * Kde::silverman_bandwidth(&dist)).max(f64::MIN_POSITIVE);
    let kde = Kde::with_bandwidth(&dist, bw);
    let span = (dist.max() - dist.min()) + 6.0 * bw;
    // Oversample 4x past the dispatch threshold: linear binning's error
    // is O((dt/bandwidth)^2), so dt = bandwidth/4 keeps the pointwise
    // comparison far below plotting resolution.
    let points = ((4.0 * span / bw).ceil() as usize + 2).clamp(512, 32_768);
    let dt = span / (points - 1) as f64;
    assert!(dt <= bw, "grid must qualify for the binned path");

    let binned = kde.grid(points);
    let exact = kde.grid_exact(points);

    // Pointwise the two densities agree to well under plotting
    // resolution (measured ~0.3% of peak on this fixture)...
    let peak = exact.iter().map(|p| p.1).fold(0.0_f64, f64::max);
    assert!(peak > 0.0);
    for (b, e) in binned.iter().zip(&exact) {
        assert!(
            (b.1 - e.1).abs() <= 5e-3 * peak,
            "density mismatch at t={}: binned {} vs exact {}",
            b.0,
            b.1,
            e.1
        );
    }

    // ...and the derived verdicts — mode count, locations, masses, and
    // the harmonic-structure call — are identical.
    let modes_b = find_modes_on_grid(&binned);
    let modes_e = find_modes_on_grid(&exact);
    assert_eq!(
        modes_b.len(),
        modes_e.len(),
        "mode count differs: {modes_b:?} vs {modes_e:?}"
    );
    for (b, e) in modes_b.iter().zip(&modes_e) {
        assert!(
            (b.location - e.location).abs() <= 2.0 * dt,
            "mode location drifted: {b:?} vs {e:?}"
        );
        assert!(
            (b.mass - e.mass).abs() <= 0.05,
            "mode mass drifted: {b:?} vs {e:?}"
        );
    }
    assert_eq!(
        harmonic_structure(&modes_b).is_some(),
        harmonic_structure(&modes_e).is_some(),
        "harmonic verdict differs between binned and exact"
    );
}

#[test]
fn binned_kde_reaches_the_same_harmonic_call_on_small_matrix_ensembles() {
    // Every Write and Read ensemble of fewer than 512 samples that the
    // batch harmonic detector reads on the fault matrix. `grid` bins
    // those whose grid resolves the bandwidth; binned and exact must
    // agree on whether the modes form a harmonic ladder.
    use pio_bench::fault_matrix::matrix_traces;
    use pio_core::diagnosis::Thresholds;

    let th = Thresholds::default();
    let (mut compared, mut binned) = (0, 0);
    for (i, trace) in matrix_traces(16, &[101, 202]).iter().enumerate() {
        for kind in [CallKind::Write, CallKind::Read] {
            let secs: Vec<f64> = trace
                .records
                .iter()
                .filter(|r| r.call == kind)
                .map(|r| r.secs())
                .collect();
            if secs.len() < th.min_samples || secs.len() >= 512 {
                continue;
            }
            let dist = EmpiricalDist::new(&secs);
            if dist.variance() <= 0.0 {
                continue;
            }
            // find_modes' undersmoothed bandwidth on the detector's grid.
            let bw = (0.5 * Kde::silverman_bandwidth(&dist)).max(f64::MIN_POSITIVE);
            let kde = Kde::with_bandwidth(&dist, bw);
            let grid = kde.grid(MODE_GRID_POINTS);
            let exact = kde.grid_exact(MODE_GRID_POINTS);
            if grid[1].0 - grid[0].0 <= bw {
                binned += 1;
            }
            let ladder = |g: &[(f64, f64)]| harmonic_structure(&find_modes_on_grid(g)).is_some();
            assert_eq!(
                ladder(&grid),
                ladder(&exact),
                "trace {i} ({}, seed {}) {kind:?}, n = {}: harmonic call differs",
                trace.meta.experiment,
                trace.meta.seed,
                secs.len()
            );
            compared += 1;
        }
    }
    // Scale 16 at these seeds: the slow-ost cell's reads and writes,
    // 256 samples each, all on the binned path.
    assert!(
        binned > 0,
        "no small ensemble was binned ({compared} compared)"
    );
}
