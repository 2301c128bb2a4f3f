//! Regenerate Figure 2 and the §III-A rate table: IOR with the 512 MB
//! block split into k = 1, 2, 4, 8 write() calls.
//!
//! Prints the per-k distribution of per-task totals t_k (narrowing with
//! k — Law of Large Numbers), the measured rate table against the
//! paper's 11,610 → 13,486 MB/s, and the convolution-based prediction
//! from the k=1 distribution.
//!
//! Usage: `fig2_lln [--scale N] [--fault <plan>] [--fault-schedule <spec>]`.

use pio_bench::fig2;
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
        "# Figure 2 — Law of Large Numbers (scale 1/{scale}{faulted})\n"
    ));
    let rows = fig2::run(scale, 21, fault);

    for r in &rows {
        let hist = Histogram::from_samples(r.tk_dist.samples(), 32);
        print_stdout(&format!(
            "\n{}\n",
            ascii::histogram_text(
                &hist,
                40,
                &format!("t_k distribution, k = {} ({} MB calls)", r.k, r.xfer_mb)
            )
        ));
        print_stdout(&format!(
            "  cv = {:.3}   (1/sqrt(k) prediction from k=1: {:.3})\n",
            r.cv_tk,
            rows[0].cv_tk / (r.k as f64).sqrt()
        ));
    }

    let scale_f = scale as f64;
    let table: Vec<Row> = rows
        .iter()
        .map(|r| {
            Row::new(
                format!("IOR rate at k={} ({} MB transfers)", r.k, r.xfer_mb),
                r.paper_rate,
                r.rate_mb_s * scale_f,
                "MB/s",
            )
        })
        .collect();
    print_rows("Figure 2 / §III-A table: paper vs measured", &table);
    print_stdout(&format!(
        "\nspeedup k=8 over k=1: measured {:.1}% (paper: {:.1}%)\n",
        (rows[3].speedup - 1.0) * 100.0,
        (13_486.0 / 11_610.0 - 1.0) * 100.0
    ));

    let pred = fig2::predict_from_k1(&rows);
    print_stdout("\nconvolution prediction from the k=1 ensemble alone:\n");
    for (k, rate) in &pred {
        print_stdout(&format!(
            "  k={k}: predicted {:.0} MB/s (x scale)\n",
            rate * scale_f
        ));
    }

    let dir = results_dir();
    let series: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.k as f64, r.rate_mb_s * scale_f))
        .collect();
    write_or_exit(&dir.join("fig2_rate_vs_k.csv"), |p| {
        vcsv::save(p, |w| vcsv::xy_csv("k,rate_mb_s", &series, w))
    });
    for r in &rows {
        let hist = Histogram::from_samples(r.tk_dist.samples(), 32);
        write_or_exit(&dir.join(format!("fig2_tk_hist_k{}.csv", r.k)), |p| {
            vcsv::save(p, |w| vcsv::histogram_csv(&hist, w))
        });
    }
    print_stdout(&format!("CSV series written to {}\n", dir.display()));
}
