//! Regenerate Figure 5: MADbench on Franklin before vs after the Lustre
//! read-ahead patch — (a) per-read progress curves deteriorating from
//! read 4 to read 8, (b) the read histogram before/after, (c) the 4.2×
//! run-time recovery.
//!
//! Usage: `fig5_patch [--scale N]`.

use pio_bench::fig5;
use pio_bench::util::{positive, print_rows, print_stdout, results_dir, write_or_exit, Args, Row};
use pio_core::compare;
use pio_viz::ascii;
use pio_viz::csv as vcsv;

fn main() {
    let args = Args::parse(&["--scale N"]);
    let scale = args.value("--scale", positive).unwrap_or(1);
    print_stdout(&format!(
        "# Figure 5 — the Lustre strided read-ahead bug (scale 1/{scale})\n"
    ));
    let r = fig5::run(scale, 5);

    // Panel (a): per-read-index progress (quantiles of the CDFs).
    print_stdout("\n## (a) middle-phase reads by index (buggy run)\n");
    print_stdout(&format!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}\n",
        "read", "p50(s)", "p90(s)", "p99(s)", "max(s)"
    ));
    for (m, d) in &r.phase_reads {
        print_stdout(&format!(
            "{:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
            m,
            d.median(),
            d.quantile(0.9),
            d.quantile(0.99),
            d.max()
        ));
    }
    match &r.deterioration {
        Some(f) => print_stdout(&format!("diagnosis: {f}\n")),
        None => print_stdout("diagnosis: no progressive deterioration flagged\n"),
    }
    let curves: Vec<(String, Vec<(f64, f64)>)> = r
        .phase_reads
        .iter()
        .map(|(m, d)| (format!("read {m}"), d.progress_curve()))
        .collect();
    print_stdout(&format!(
        "\n{}\n",
        ascii::cdf_text(&curves, 90, "fraction of reads complete vs time")
    ));

    // Panel (b): before/after read distributions.
    print_stdout("\n## (b) read ensemble before vs after the patch\n");
    print_stdout(&format!(
        "before: p50 {:.1}s  p99 {:.1}s  max {:.1}s   ({} degraded reads)\n",
        r.before.read_dist.median(),
        r.before.read_dist.quantile(0.99),
        r.before.read_dist.max(),
        r.before.degraded_reads
    ));
    print_stdout(&format!(
        "after:  p50 {:.1}s  p99 {:.1}s  max {:.1}s   ({} degraded reads)\n",
        r.after.read_dist.median(),
        r.after.read_dist.quantile(0.99),
        r.after.read_dist.max(),
        r.after.degraded_reads
    ));

    // Per-class before/after comparison (the KS view of panel b).
    print_stdout("\n## per-class comparison (before vs after)\n");
    print_stdout(&format!(
        "{}\n",
        compare::render(&compare::compare(&r.before.trace, &r.after.trace))
    ));

    // Panel (c): run times.
    let rows = vec![
        Row::new("run time before patch", 2200.0, r.before.runtime_s, "s"),
        Row::new("run time after patch", 520.0, r.after.runtime_s, "s"),
        Row::new("speedup from the patch", 4.2, r.speedup, "x"),
    ];
    print_rows("Figure 5: paper vs measured", &rows);

    let dir = results_dir();
    for (m, d) in &r.phase_reads {
        write_or_exit(&dir.join(format!("fig5_progress_read{m}.csv")), |p| {
            vcsv::save(p, |w| {
                vcsv::xy_csv("t_s,fraction_complete", &d.progress_curve(), w)
            })
        });
    }
    write_or_exit(&dir.join("fig5_read_hist_before.csv"), |p| {
        vcsv::save(p, |w| vcsv::log_histogram_csv(&r.before.read_hist, w))
    });
    write_or_exit(&dir.join("fig5_read_hist_after.csv"), |p| {
        vcsv::save(p, |w| vcsv::log_histogram_csv(&r.after.read_hist, w))
    });
    print_stdout(&format!("\nCSV series written to {}\n", dir.display()));
}
