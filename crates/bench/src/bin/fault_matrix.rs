//! Fault × workload matrix driver: every fault class against the
//! workload that exposes its ensemble signature, two seeds each, with a
//! baseline-clean, signature-present, and bit-reproducibility check per
//! cell. Exits non-zero if any cell fails — CI smoke-runs this at
//! `--scale 16` and uploads the rendered table (`--out`) plus the
//! compound cells' per-window fingerprint evidence (`--windows`) as
//! artifacts.

use pio_bench::fault_matrix::{empty_plan_is_inert, per_window_report, render, run_matrix};
use pio_bench::util::{file_path, positive, print_stdout, write_or_exit, Args};

fn main() {
    let args = Args::parse(&["--scale N", "--out PATH", "--windows PATH"]);
    let scale = args.value("--scale", positive).unwrap_or(8);
    let out = args.value("--out", file_path);
    let windows_out = args.value("--windows", file_path);
    let seeds = [101, 202];

    // A closed stdout only ends the printing (`print_stdout`): `--out`,
    // `--windows` and the exit code still follow.
    let header = format!("== fault x workload matrix (scale {scale}, seeds {seeds:?}) ==");
    print_stdout(&format!("{header}\n"));
    let cells = run_matrix(scale, &seeds);
    let table = render(&cells);
    print_stdout(&table);

    let inert = empty_plan_is_inert(scale, seeds[0]);
    let inert_line = format!(
        "no-fault inertness (empty plan == no plan): {}",
        if inert { "exact" } else { "VIOLATED" }
    );
    print_stdout(&format!("{inert_line}\n"));

    let failed = cells.iter().filter(|c| !c.pass()).count();
    let verdict = if failed > 0 || !inert {
        format!("FAIL: {failed} cell(s) failed")
    } else {
        format!("PASS: all {} cells", cells.len())
    };

    if let Some(path) = out {
        let body = format!("{header}\n{table}{inert_line}\n{verdict}\n");
        write_or_exit(&path, |p| std::fs::write(p, body));
    }

    // Per-window evidence for the compound cells: which fingerprint
    // fired in which time window, next to the verdict it produced.
    if let Some(path) = windows_out {
        let body = format!(
            "== per-window attribution evidence (scale {scale}, seeds {seeds:?}) ==\n\n{}",
            per_window_report(scale, &seeds)
        );
        write_or_exit(&path, |p| std::fs::write(p, body));
    }

    if failed > 0 || !inert {
        eprintln!("{verdict}");
        std::process::exit(1);
    }
    print_stdout(&format!("{verdict}\n"));
}
