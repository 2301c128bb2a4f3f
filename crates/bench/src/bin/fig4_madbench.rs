//! Regenerate Figure 4: MADbench at 256 tasks on Franklin (buggy
//! read-ahead) and Jaguar — traces, aggregate read/write rates, and
//! log-log duration histograms with Franklin's "broad right shoulder".
//!
//! Usage: `fig4_madbench [--scale N] [--fault <plan>] [--fault-schedule <spec>]`.

use pio_bench::fig4;
use pio_bench::util::{
    fault_plan, positive, print_rows, print_stdout, results_dir, write_or_exit, Args, Row,
    FIGURE_USAGE,
};
use pio_fs::FsConfig;
use pio_viz::ascii;
use pio_viz::csv as vcsv;

fn main() {
    let args = Args::parse(&FIGURE_USAGE);
    let scale = args.value("--scale", positive).unwrap_or(1);
    let fault = fault_plan(&args);
    let faulted = if fault.is_some() { ", faulted" } else { "" };
    print_stdout(&format!(
        "# Figure 4 — MADbench on Franklin vs Jaguar (scale 1/{scale}{faulted})\n"
    ));
    let franklin = fig4::run(FsConfig::franklin(), scale, 5, fault.clone());
    let jaguar = fig4::run(FsConfig::jaguar(), scale, 5, fault);

    for r in [&franklin, &jaguar] {
        print_stdout(&format!(
            "\n## {} — run time {:.0} s\n",
            r.platform, r.runtime_s
        ));
        print_stdout(&format!("{}\n", ascii::trace_diagram(&r.trace, 16, 100)));
        print_stdout(&format!(
            "{}\n",
            ascii::rate_curve_text(&r.read_rate, 6, "aggregate read rate")
        ));
        print_stdout(&format!(
            "{}\n",
            ascii::rate_curve_text(&r.write_rate, 6, "aggregate write rate")
        ));
        print_stdout("log-log read histogram (center s, count):\n");
        for (c, n) in r.read_hist.series() {
            print_stdout(&format!("  {c:>10.3}  {n}\n"));
        }
        print_stdout(&format!(
            "read p50 {:.1}s  p99 {:.1}s  max {:.1}s   write p50 {:.1}s p99 {:.1}s\n",
            r.read_dist.median(),
            r.read_dist.quantile(0.99),
            r.read_dist.max(),
            r.write_dist.median(),
            r.write_dist.quantile(0.99)
        ));
        match &r.shoulder {
            Some(f) => print_stdout(&format!("diagnosis: {f}\n")),
            None => print_stdout("diagnosis: reads look healthy\n"),
        }
        print_stdout(&format!(
            "degraded reads (bug path): {}\n",
            r.degraded_reads
        ));
    }

    let rows = vec![
        Row::new("Franklin run time", 2200.0, franklin.runtime_s, "s"),
        Row::new("Jaguar run time", 275.0, jaguar.runtime_s, "s"),
        Row::new(
            "Franklin/Jaguar ratio",
            2200.0 / 275.0,
            franklin.runtime_s / jaguar.runtime_s,
            "x",
        ),
        Row::new(
            "Franklin slowest read (30-500 s band)",
            500.0,
            franklin.read_dist.max(),
            "s",
        ),
        Row::new("Jaguar slowest read", 30.0, jaguar.read_dist.max(), "s"),
    ];
    print_rows("Figure 4: paper vs measured", &rows);

    let dir = results_dir();
    for r in [&franklin, &jaguar] {
        let base = format!("fig4_{}", r.platform.replace(['-', '/'], "_"));
        write_or_exit(&dir.join(format!("{base}_read_hist.csv")), |p| {
            vcsv::save(p, |w| vcsv::log_histogram_csv(&r.read_hist, w))
        });
        write_or_exit(&dir.join(format!("{base}_write_hist.csv")), |p| {
            vcsv::save(p, |w| vcsv::log_histogram_csv(&r.write_hist, w))
        });
        write_or_exit(&dir.join(format!("{base}_read_rate.csv")), |p| {
            vcsv::save(p, |w| vcsv::rate_curve_csv(&r.read_rate, w))
        });
    }
    print_stdout(&format!("\nCSV series written to {}\n", dir.display()));
}
