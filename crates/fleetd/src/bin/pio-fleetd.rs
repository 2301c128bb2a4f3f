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
//! cross-job interference view. A job frozen over its budget is named
//! and not judged, since its verdict covers only the records admitted
//! before the freeze. Exits 1 if any judged faulted job is misattributed
//! or any judged clean job is flagged; exits 2 with the usage line on an
//! unknown flag, a flag without its value (another flag in its place
//! counts as none), a malformed value, a zero `--pool` or `--threads`,
//! or `--scale 0`.

use pio_fleetd::{fleet_config, fleet_spec, FleetService, SimConfig};
use pio_viz::{fleet_panel, FleetJobRow, OstContentionRow};
use std::io::{ErrorKind, Write};

const USAGE: &str = "usage: pio-fleetd [--jobs N] [--faulted M] [--pool P] [--scale S] \
                     [--budget BYTES] [--threads T] [--out FILE]";

/// Exit 2 with the usage line: a typo (`--pol 4`) or a missing value
/// must never run the default fleet.
fn usage_error(msg: &str) -> ! {
    eprintln!("pio-fleetd: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parse the value that follows `flag`. The flag owns the next argument
/// unless that argument is itself a flag the usage line declares (as
/// `[--flag VALUE]`): `--out --pool` leaves `--out` without its value,
/// never a roll-up written to a file named `--pool`.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> T {
    let raw = raw
        .filter(|raw| !USAGE.contains(&format!("[{raw} ")))
        .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")));
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("bad value for {flag}: {raw}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let mut cfg = SimConfig::default();
    let (mut pool, mut budget, mut threads) = (4usize, 1usize << 20, 4usize);
    let mut out: Option<String> = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--jobs" => cfg.jobs = value(flag, rest.next()),
            "--faulted" => cfg.faulted = value(flag, rest.next()),
            "--scale" => cfg.scale = value(flag, rest.next()),
            "--pool" => pool = value(flag, rest.next()),
            "--budget" => budget = value(flag, rest.next()),
            "--threads" => threads = value(flag, rest.next()),
            "--out" => out = Some(value(flag, rest.next())),
            other if other.starts_with('-') => usage_error(&format!("unknown flag {other:?}")),
            other => usage_error(&format!("unexpected argument {other:?}")),
        }
    }
    if pool == 0 || threads == 0 {
        usage_error("--pool and --threads must be at least 1");
    }
    if cfg.scale == 0 {
        usage_error("--scale must be at least 1");
    }
    if cfg.faulted > cfg.jobs {
        usage_error("--faulted cannot exceed --jobs");
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

    let frozen: Vec<&str> = checks
        .iter()
        .filter(|c| c.frozen)
        .map(|c| c.name.as_str())
        .collect();
    if !frozen.is_empty() {
        eprintln!(
            "pio-fleetd: {}/{} jobs frozen over budget, not judged: {}",
            frozen.len(),
            checks.len(),
            frozen.join(", ")
        );
    }
    // Frozen tenants are `ok`: only judged ones can fail the run.
    let judged = checks.len() - frozen.len();
    let mut failed = 0;
    for c in checks.iter().filter(|c| !c.ok) {
        failed += 1;
        eprintln!(
            "pio-fleetd: MISATTRIBUTED {}: expected {:?}, fleet said {:?} ({} records, {} shed)",
            c.name, c.expected, c.verdict, c.records, c.shed
        );
    }
    if failed > 0 {
        eprintln!("pio-fleetd: {failed}/{judged} jobs misattributed");
        std::process::exit(1);
    }
    let faulted = checks
        .iter()
        .filter(|c| !c.frozen && c.expected.is_some())
        .count();
    eprintln!(
        "pio-fleetd: all {judged} jobs attributed correctly ({faulted} faulted, {} clean)",
        judged - faulted
    );
}
