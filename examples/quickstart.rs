//! Quickstart: run a small parallel-I/O experiment on the simulated
//! platform, capture its IPM-I/O trace, and analyse the ensemble.
//!
//!     cargo run --release --example quickstart
//!
//! This walks the full pipeline of the paper in miniature: build a
//! workload (64 tasks, each writing 512 MB to a shared file), execute it
//! in virtual time against a Lustre-like file system, then look at the
//! *distribution* of write times rather than individual events.

use events_to_ensembles::fs::FsConfig;
use events_to_ensembles::mpi::{RunConfig, Runner};
use events_to_ensembles::stats::diagnosis::diagnose;
use events_to_ensembles::stats::empirical::EmpiricalDist;
use events_to_ensembles::stats::hist::Histogram;
use events_to_ensembles::stats::modes::{find_modes, harmonic_structure};
use events_to_ensembles::stats::order_stats;
use events_to_ensembles::trace::summary;
use events_to_ensembles::viz::ascii;
use events_to_ensembles::workloads::IorConfig;

fn main() {
    // 1. An experiment: IOR-style, 64 tasks × 512 MB, one barriered phase.
    let workload = IorConfig {
        tasks: 64,
        block_bytes: 512 << 20,
        segments: 1,
        repetitions: 1,
        read_back: false,
        file_per_process: false,
    };

    // 2. A platform: Franklin, shrunk 16x so 64 tasks see the same
    //    per-task bandwidth shares the paper's 1024 did.
    let platform = FsConfig::franklin().scaled(16);

    // 3. Run it. The seed is the only source of run-to-run variability.
    let job = workload.job();
    let result = Runner::new(&job, RunConfig::new(platform, 42, "quickstart"))
        .execute_one()
        .expect("run failed");
    println!("run time: {:.1} s (virtual)\n", result.wall_secs());

    // 4. The IPM-style per-call summary.
    println!("{}", summary::render(result.trace()));

    // 5. From events to ensembles: the write-time distribution.
    let durations = result
        .trace()
        .durations_of(events_to_ensembles::trace::CallKind::Write);
    let dist = EmpiricalDist::new(&durations);
    println!(
        "write() ensemble: n={}  median {:.1}s  p90 {:.1}s  max {:.1}s  cv {:.2}",
        dist.n(),
        dist.median(),
        dist.quantile(0.9),
        dist.max(),
        dist.cv().unwrap_or(0.0)
    );
    let hist = Histogram::from_samples(&durations, 32);
    println!(
        "\n{}",
        ascii::histogram_text(&hist, 40, "write() completion times")
    );

    // 6. Modes: the paper's harmonic fingerprint of node-level sharing.
    let modes = find_modes(&dist);
    for m in &modes {
        println!("mode at {:.1}s (mass {:.0}%)", m.location, m.mass * 100.0);
    }
    if let Some(h) = harmonic_structure(&modes) {
        println!(
            "harmonic ladder: T={:.1}s, orders {:?}",
            h.fundamental, h.orders
        );
    }

    // 7. Order statistics: what the slowest of N tasks costs.
    println!(
        "\nE[slowest of 64] = {:.1}s vs mean {:.1}s — the barrier pays for the tail",
        order_stats::expected_max(&dist, 64),
        dist.mean()
    );

    // 8. Automatic diagnosis.
    let findings = diagnose(result.trace());
    println!("\ndiagnosis ({} findings):", findings.len());
    for f in &findings {
        println!("  - {f}");
    }
}
