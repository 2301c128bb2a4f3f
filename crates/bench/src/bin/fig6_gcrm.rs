//! Regenerate Figure 6: the GCRM optimization ladder at 10,240 tasks —
//! baseline → collective buffering (80 writers) → 1 MiB alignment →
//! aggregated metadata; per stage the trace, aggregate write rate, and
//! the size-normalized (sec/MB) histograms split into data and metadata
//! classes.
//!
//! Usage: `fig6_gcrm [--scale N] [--fault <plan>] [--fault-schedule <spec>]`.

use pio_bench::fig6;
use pio_bench::util::{
    fault_plan, positive, print_rows, print_stdout, results_dir, write_or_exit, Args, Row,
    FIGURE_USAGE,
};
use pio_des::hist::LogHistogram;
use pio_viz::ascii;
use pio_viz::csv as vcsv;

fn main() {
    let args = Args::parse(&FIGURE_USAGE);
    let scale = args.value("--scale", positive).unwrap_or(1);
    let fault = fault_plan(&args);
    let faulted = if fault.is_some() { ", faulted" } else { "" };
    print_stdout(&format!(
        "# Figure 6 — GCRM optimization ladder (scale 1/{scale}{faulted})\n"
    ));
    let results = fig6::run_all(scale, 11, fault);
    let dir = results_dir();
    let scale_f = scale as f64;

    for r in &results {
        print_stdout(&format!(
            "\n## stage {}: {} — {:.0} s\n",
            r.stage, r.label, r.runtime_s
        ));
        print_stdout(&format!("{}\n", ascii::trace_diagram(&r.trace, 12, 100)));
        print_stdout(&format!(
            "{}\n",
            ascii::rate_curve_text(&r.write_rate, 6, "aggregate write rate")
        ));
        print_stdout(&format!(
            "data records: {:.3} s/MB median ({:.2} MB/s per task); worst {:.3} s/MB\n",
            r.data_sec_per_mb.median(),
            1.0 / r.data_sec_per_mb.median().max(1e-12),
            r.data_sec_per_mb.quantile(0.99)
        ));
        if let Some(meta) = &r.meta_sec_per_mb {
            print_stdout(&format!(
                "metadata ops: {:.3} s/MB median over {} ops\n",
                meta.median(),
                meta.n()
            ));
        }
        print_stdout(&format!(
            "lock conflicts {}  sync writes {}  peak write rate {:.0} MB/s (x scale: {:.0})\n",
            r.lock_conflicts,
            r.sync_writes,
            r.write_rate.peak(),
            r.write_rate.peak() * scale_f
        ));
        match &r.serialized {
            Some(f) => print_stdout(&format!("diagnosis: {f}\n")),
            None => print_stdout("diagnosis: no rank-serialization flagged\n"),
        }

        let data_hist = LogHistogram::from_samples(r.data_sec_per_mb.samples(), 60);
        write_or_exit(
            &dir.join(format!("fig6_stage{}_data_secmb.csv", r.stage)),
            |p| vcsv::save(p, |w| vcsv::log_histogram_csv(&data_hist, w)),
        );
        if let Some(meta) = &r.meta_sec_per_mb {
            let meta_hist = LogHistogram::from_samples(meta.samples(), 60);
            write_or_exit(
                &dir.join(format!("fig6_stage{}_meta_secmb.csv", r.stage)),
                |p| vcsv::save(p, |w| vcsv::log_histogram_csv(&meta_hist, w)),
            );
        }
        write_or_exit(
            &dir.join(format!("fig6_stage{}_write_rate.csv", r.stage)),
            |p| vcsv::save(p, |w| vcsv::rate_curve_csv(&r.write_rate, w)),
        );
    }

    let mut rows: Vec<Row> = results
        .iter()
        .map(|r| {
            Row::new(
                format!("stage {} ({}) run time", r.stage, r.label),
                fig6::PAPER_RUNTIMES[r.stage as usize],
                r.runtime_s,
                "s",
            )
        })
        .collect();
    rows.push(Row::new(
        "overall improvement",
        310.0 / 75.0,
        results[0].runtime_s / results[3].runtime_s.max(1e-9),
        "x",
    ));
    print_rows("Figure 6: paper vs measured", &rows);
    print_stdout(&format!("\nCSV series written to {}\n", dir.display()));
}
