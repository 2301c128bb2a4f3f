//! Perf-regression harness: run the fixed hot-path scenarios and write
//! `BENCH_summary.json` (events/sec, ns/op, peak RSS) so the performance
//! trajectory is machine-readable commit-to-commit.
//!
//! Usage:
//!
//! ```text
//! bench_summary [--out PATH] [--reps N] [--only PREFIX]...
//!               [--baseline PATH [--gate METRIC]... [--tolerance PCT]]
//! ```
//!
//! `--only` restricts the run to metrics whose name starts with the
//! given prefix (repeatable; whole sections are skipped when nothing in
//! them matches). A filtered run is a partial summary, so `--only`
//! requires an explicit `--out` (exit 2 without one): it never
//! overwrites the full `BENCH_summary.json` baseline.
//!
//! `--baseline` enables the regression gate: each
//! `--gate` metric (default `fleetd/pipeline_serial_8x50k`) is compared
//! against the baseline file's `ns_per_op` and the process exits
//! nonzero if any gate regresses by more than `--tolerance` percent
//! (default 25). A failing gate gets one full re-run before the verdict,
//! so a single scheduler hiccup does not fail CI.

use pio_bench::summary::{self, BenchSummary};
use pio_bench::util::{print_stdout, reject_unknown_flags};

fn main() {
    reject_unknown_flags(&[
        "--out PATH",
        "--reps N",
        "--only PREFIX",
        "--baseline PATH",
        "--gate METRIC",
        "--tolerance PCT",
    ]);
    let args: Vec<String> = std::env::args().collect();
    let mut out: Option<String> = None;
    let mut reps: Option<u32> = None;
    let mut only: Vec<String> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut gates: Vec<String> = Vec::new();
    let mut tolerance = 25.0f64;
    for (i, arg) in args.iter().enumerate() {
        let value = || args.get(i + 1).cloned();
        match arg.as_str() {
            "--out" => match value() {
                Some(p) => out = Some(p),
                None => die("--out requires a path"),
            },
            "--reps" => match value().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => reps = Some(n),
                _ => die("--reps requires a positive integer"),
            },
            "--only" => match value() {
                Some(p) => only.push(p),
                None => die("--only requires a metric-name prefix"),
            },
            "--baseline" => match value() {
                Some(p) => baseline = Some(p),
                None => die("--baseline requires a path"),
            },
            "--gate" => match value() {
                Some(m) => gates.push(m),
                None => die("--gate requires a metric name"),
            },
            "--tolerance" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => die("--tolerance requires a non-negative percentage"),
            },
            _ => {}
        }
    }
    if let Err(msg) = only_needs_out(&only, out.as_deref()) {
        die(msg);
    }
    let out = out.unwrap_or_else(|| "BENCH_summary.json".to_string());

    print_stdout("== bench_summary: fixed-scale hot-path scenarios ==\n");
    let mut s = summary::run_filtered(reps, &only);
    print_stdout(&summary::render(&s));

    if let Some(path) = &baseline {
        let base: BenchSummary = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|j| serde_json::from_str(&j).map_err(|e| e.to_string()))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot load baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        if gates.is_empty() {
            gates.push("fleetd/pipeline_serial_8x50k".to_string());
        }
        let mut failures = summary::gate_regressions(&base, &s, &gates, tolerance);
        if !failures.is_empty() {
            eprintln!("gate exceeded tolerance; re-running once for noise:");
            for f in &failures {
                eprintln!("  {f}");
            }
            s = summary::run_filtered(reps, &only);
            print_stdout(&summary::render(&s));
            failures = summary::gate_regressions(&base, &s, &gates, tolerance);
        }
        if failures.is_empty() {
            print_stdout(&format!(
                "gate ok: {} metric(s) within {tolerance}% of {path}\n",
                gates.len()
            ));
        } else {
            for f in &failures {
                eprintln!("gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    }

    let json = serde_json::to_string(&s).expect("serialize summary");
    std::fs::write(&out, &json).expect("write summary JSON");
    print_stdout(&format!("wrote {out}\n"));
}

/// A `--only` run measures a subset, so writing it to the default path
/// would replace the committed full baseline with a partial one.
fn only_needs_out(only: &[String], out: Option<&str>) -> Result<(), &'static str> {
    if !only.is_empty() && out.is_none() {
        return Err("--only writes a partial summary: pass --out PATH \
                    (the default BENCH_summary.json is the full baseline)");
    }
    Ok(())
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_without_out_is_refused() {
        let only = vec!["fault/".to_string()];
        let err = only_needs_out(&only, None).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(only_needs_out(&only, Some("partial.json")).is_ok());
        // A full run may still default to the baseline path.
        assert!(only_needs_out(&[], None).is_ok());
    }
}
