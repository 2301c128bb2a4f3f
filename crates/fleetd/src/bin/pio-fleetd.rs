//! pio-fleetd: drive a simulated fleet through the always-on diagnosis
//! service and print the machine roll-up.
//!
//! Usage: `pio-fleetd [--jobs N] [--faulted M] [--pool P] [--scale S]
//! [--budget BYTES] [--threads T] [--out FILE]`
//!
//! Simulates `N` concurrent jobs (the first `M` under fault plans
//! cycling through the attributable classes, the rest clean baselines),
//! streams every job into a [`pio_fleetd::FleetService`] with a
//! `P`-worker pool and a per-tenant memory budget, then prints the
//! fleet panel: machine-wide roll-up, per-job verdict table, and the
//! cross-job interference view. Exits nonzero if any faulted job is
//! misattributed or any clean job is flagged.

use pio_fleetd::{fleet_config, fleet_spec, FleetService, SimConfig};
use pio_viz::{fleet_panel, FleetJobRow, OstContentionRow};
use std::io::{ErrorKind, Write};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("pio-fleetd: bad value for {name}: {v}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: pio-fleetd [--jobs N] [--faulted M] [--pool P] [--scale S] \
             [--budget BYTES] [--threads T] [--out FILE]"
        );
        return;
    }
    let cfg = SimConfig {
        jobs: parse(&args, "--jobs", 8),
        faulted: parse(&args, "--faulted", 2),
        scale: parse(&args, "--scale", 16),
    };
    let pool: usize = parse(&args, "--pool", 4);
    let budget: usize = parse(&args, "--budget", 1 << 20);
    let threads: usize = parse(&args, "--threads", 4);
    let out: Option<String> = flag(&args, "--out");
    if cfg.faulted > cfg.jobs {
        eprintln!("pio-fleetd: --faulted cannot exceed --jobs");
        std::process::exit(2);
    }

    eprintln!(
        "pio-fleetd: simulating {} jobs ({} faulted) at scale {}...",
        cfg.jobs, cfg.faulted, cfg.scale
    );
    let spec = fleet_spec(&cfg);
    let traces = pio_fleetd::simulate(&spec, threads);

    eprintln!("pio-fleetd: streaming into a {pool}-worker service (budget {budget} B/tenant)...");
    let mut service = FleetService::new(fleet_config(pool, budget));
    let ids = pio_fleetd::feed(&service, &spec, &traces, threads);
    service.shutdown();

    let checks = pio_fleetd::check(&service, &spec, &ids);
    let rows: Vec<FleetJobRow> = ids
        .iter()
        .map(|&id| {
            let r = service.report(id).expect("every job completed");
            FleetJobRow {
                name: r.name.clone(),
                records: r.ingested,
                shed: r.shed,
                frozen: r.frozen,
                verdict: {
                    let v = r.verdict();
                    (v != pio_core::diagnosis::Verdict::Clean).then(|| v.label())
                },
                slowest_s: r.top_slow.first().map_or(0.0, |op| op.secs),
            }
        })
        .collect();
    let contention: Vec<OstContentionRow> = service
        .interference()
        .into_iter()
        .map(|c| OstContentionRow {
            ost: c.ost,
            jobs: c.jobs,
        })
        .collect();
    let panel = fleet_panel(&service.rollup(), &rows, &contention, 40);
    // A reader that has gone away (`pio-fleetd | head`) only ends the
    // printing: `--out` and the attribution exit code still follow.
    if let Err(e) = writeln!(std::io::stdout().lock(), "{panel}") {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("pio-fleetd: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &panel) {
            eprintln!("pio-fleetd: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("pio-fleetd: roll-up written to {path}");
    }

    let mut failed = 0;
    for c in &checks {
        if !c.ok {
            failed += 1;
            eprintln!(
                "pio-fleetd: MISATTRIBUTED {}: expected {:?}, fleet said {:?} ({} records, {} shed)",
                c.name, c.expected, c.verdict, c.records, c.shed
            );
        }
    }
    if failed > 0 {
        eprintln!("pio-fleetd: {failed}/{} jobs misattributed", checks.len());
        std::process::exit(1);
    }
    eprintln!(
        "pio-fleetd: all {} jobs attributed correctly ({} faulted, {} clean)",
        checks.len(),
        cfg.faulted,
        cfg.jobs - cfg.faulted
    );
}
