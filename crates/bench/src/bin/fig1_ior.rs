//! Regenerate Figure 1: IOR 512 MB × 1024 tasks × 5 phases on Franklin.
//!
//! Prints the trace diagram (panel a), the aggregate write-rate profile
//! (panel b), the completion-time histogram with its harmonic modes
//! (panel c), and the scratch-vs-scratch2 reproducibility comparison;
//! exports the series as CSV under `results/`.
//!
//! Usage: `fig1_ior [--scale N] [--fault <plan>] [--fault-schedule <spec>]`
//! (scale 1 = the paper's size; `--fault` re-runs the experiment under a
//! named fault plan, e.g. `slow-ost`).

use pio_bench::fig1;
use pio_bench::util::{
    fault_plan, positive, print_rows, print_stdout, results_dir, write_or_exit, Args, Row,
    FIGURE_USAGE,
};
use pio_core::hist::Histogram;
use pio_viz::ascii;
use pio_viz::csv as vcsv;

fn main() {
    let args = Args::parse(&FIGURE_USAGE);
    let scale = args.value("--scale", positive).unwrap_or(1);
    let fault = fault_plan(&args);
    let faulted = if fault.is_some() { ", faulted" } else { "" };
    print_stdout(&format!(
        "# Figure 1 — IOR ensembles (scale 1/{scale}{faulted})\n"
    ));
    let r = fig1::run(scale, 1, fault);

    // Panel (a): trace diagram.
    print_stdout(&format!("\n{}\n", ascii::trace_diagram(&r.trace, 24, 100)));

    // Panel (b): aggregate write rate.
    print_stdout(&format!(
        "{}\n",
        ascii::rate_curve_text(&r.rate_curve, 10, "aggregate write rate")
    ));

    // Panel (c): completion-time histogram + modes.
    let hist = Histogram::from_samples(r.write_dist.samples(), 48);
    print_stdout(&format!(
        "{}\n",
        ascii::histogram_text(&hist, 50, "write() completion times")
    ));
    print_stdout("detected modes:\n");
    for m in &r.modes {
        print_stdout(&format!(
            "  {:.2} s  (mass {:.0}%)\n",
            m.location,
            m.mass * 100.0
        ));
    }
    match &r.harmonics {
        Some(h) => print_stdout(&format!(
            "harmonic structure: T = {:.1}s with orders {:?} — intra-node \
             serialization fingerprint (paper: R, R/2, R/4)\n",
            h.fundamental, h.orders
        )),
        None => print_stdout("no harmonic structure recognized\n"),
    }

    let scale_f = scale as f64;
    let rows = vec![
        Row::new(
            "aggregate write rate (x scale)",
            11_610.0,
            r.rate_curve.average() * scale_f,
            "MB/s",
        ),
        Row::new(
            "phase time (~45 s per 512 MB phase)",
            45.0,
            r.runtime_s / 5.0,
            "s",
        ),
        Row::new(
            "fair-share time T = 512MB/(BW/N)",
            32.0,
            r.fair_share_time_s,
            "s",
        ),
        Row::new(
            "scratch vs scratch2 KS distance",
            0.0,
            r.ks_between_runs,
            "",
        ),
    ];
    print_rows("Figure 1: paper vs measured", &rows);
    print_stdout(&format!(
        "\nreproducibility: KS = {:.3} between the two file systems' \
         distributions ({} vs {} events) — 'almost identical' as the paper \
         reports, while the traces differ event-by-event.\n",
        r.ks_between_runs,
        r.write_dist.n(),
        r.write_dist2.n()
    ));

    // CSV exports.
    let dir = results_dir();
    write_or_exit(&dir.join("fig1_rate_curve.csv"), |p| {
        vcsv::save(p, |w| vcsv::rate_curve_csv(&r.rate_curve, w))
    });
    write_or_exit(&dir.join("fig1_write_hist.csv"), |p| {
        vcsv::save(p, |w| vcsv::histogram_csv(&hist, w))
    });
    let hist2 = Histogram::from_samples(r.write_dist2.samples(), 48);
    write_or_exit(&dir.join("fig1_write_hist_scratch2.csv"), |p| {
        vcsv::save(p, |w| vcsv::histogram_csv(&hist2, w))
    });
    print_stdout(&format!("CSV series written to {}\n", dir.display()));
}
