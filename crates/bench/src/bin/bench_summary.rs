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
//! so a single scheduler hiccup does not fail CI. The baseline is read
//! before anything is measured: a missing or unparseable file exits 1
//! at once, naming the path.

use pio_bench::summary;
use pio_bench::util::{file_path, positive, print_stdout, write_or_exit, Args};
use std::path::Path;

fn main() {
    let args = Args::parse(&[
        "--out PATH",
        "--reps N",
        "--only PREFIX",
        "--baseline PATH",
        "--gate METRIC",
        "--tolerance PCT",
    ]);
    let out = args.value("--out", file_path);
    let reps = args.value("--reps", positive);
    let only = args.values("--only");
    let baseline = args.value("--baseline", file_path);
    let mut gates = args.values("--gate");
    let tolerance = args.value("--tolerance", percentage).unwrap_or(25.0);
    if let Err(msg) = only_needs_out(&only, out.as_deref()) {
        args.usage_error(msg);
    }
    let out = out.unwrap_or_else(|| "BENCH_summary.json".into());
    let baseline = baseline.map(|path| match summary::load_baseline(&path) {
        Ok(base) => (path, base),
        Err(e) => {
            eprintln!("error: cannot load baseline {}: {e}", path.display());
            std::process::exit(1);
        }
    });

    print_stdout("== bench_summary: fixed-scale hot-path scenarios ==\n");
    let mut s = summary::run_filtered(reps, &only);
    print_stdout(&summary::render(&s));

    if let Some((path, base)) = &baseline {
        if gates.is_empty() {
            gates.push(summary::DEFAULT_GATE.to_string());
        }
        let mut failures = summary::gate_regressions(base, &s, &gates, tolerance);
        if !failures.is_empty() {
            eprintln!("gate exceeded tolerance; re-running once for noise:");
            for f in &failures {
                eprintln!("  {f}");
            }
            s = summary::run_filtered(reps, &only);
            print_stdout(&summary::render(&s));
            failures = summary::gate_regressions(base, &s, &gates, tolerance);
        }
        if failures.is_empty() {
            print_stdout(&format!(
                "gate ok: {} metric(s) within {tolerance}% of {}\n",
                gates.len(),
                path.display()
            ));
        } else {
            for f in &failures {
                eprintln!("gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    }

    let json = serde_json::to_string(&s).expect("serialize summary");
    write_or_exit(&out, |p| std::fs::write(p, &json));
    print_stdout(&format!("wrote {}\n", out.display()));
}

/// A `--only` run measures a subset, so writing it to the default path
/// would replace the committed full baseline with a partial one.
fn only_needs_out(only: &[String], out: Option<&Path>) -> Result<(), &'static str> {
    if !only.is_empty() && out.is_none() {
        return Err("--only writes a partial summary: pass --out PATH \
                    (the default BENCH_summary.json is the full baseline)");
    }
    Ok(())
}

/// Value parser for `--tolerance`: a non-negative percentage.
fn percentage(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(t) if t >= 0.0 => Ok(t),
        _ => Err(format!("expected a non-negative percentage, got {raw:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_without_out_is_refused() {
        let only = vec!["fault/".to_string()];
        let err = only_needs_out(&only, None).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(only_needs_out(&only, Some(Path::new("partial.json"))).is_ok());
        // A full run may still default to the baseline path.
        assert!(only_needs_out(&[], None).is_ok());
    }
}
