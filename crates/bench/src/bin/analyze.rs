//! Offline trace analysis — the tool a user points at a saved IPM-I/O
//! trace (JSONL or binary ptb2, as written by `pio_trace::io` or any
//! conforming producer) to get the paper's full ensemble treatment
//! without re-running anything. The input format is sniffed from the
//! file's bytes (`pio_trace::io::load` / `stream_file`);
//! `--format jsonl|ptb2` forces it (`TraceFormat::read` / `stream`).
//!
//! Usage: `analyze <trace> [--stream] [--format jsonl|ptb2] [--diagram] [--csv DIR]`
//!
//! A flag it does not know (`--strem`), a second positional, `--csv`
//! without a directory, or `--stream` with `--csv` or `--diagram` exits
//! 2 with the usage line before the trace is read.
//!
//! Prints the run's totals (run time, aggregate and write rates),
//! per-call-class ensemble statistics and modes, the bottleneck
//! diagnosis, a per-phase breakdown and the slowest rank; optionally the
//! ASCII trace diagram and CSV exports of the duration histograms and
//! CDFs. A CSV file it cannot write exits 1 naming the path.
//!
//! With `--stream`, the trace is never loaded into memory: records are
//! decoded one block at a time into the online diagnoser, which keeps
//! its whole-run evidence in the ensemble snapshot it owns (as a
//! `pio-fleetd` tenant does), and the report is rendered from that
//! mergeable snapshot — constant memory regardless of trace size. The
//! diagram and the CSV exports need the loaded trace, so `--stream`
//! takes neither.
//!
//! A reader that closes stdout early (`analyze t.jsonl | head`) ends the
//! printing, not the run: CSV exports are still written and the exit
//! status is 0.

use pio_bench::util::{file_path, print_stdout, trace_format, write_or_exit, Args};
use pio_core::empirical::EmpiricalDist;
use pio_core::rates::write_rate_curve;
use pio_core::report;
use pio_des::hist::LogHistogram;
use pio_ingest::StreamDiagnoser;
use pio_trace::phase::phase_summaries;
use pio_trace::{io as trace_io, CallKind, TraceFormat};
use pio_viz::ascii;
use pio_viz::csv as vcsv;
use std::io::BufReader;

fn main() {
    let args = Args::parse(&[
        "<trace>",
        "--stream",
        "--format jsonl|ptb2",
        "--diagram",
        "--csv DIR",
    ]);
    let Some(path) = args.positional(0) else {
        args.usage_error("missing <trace>");
    };
    let forced_format = args.value("--format", trace_format);
    let csv_dir = args.value("--csv", file_path);
    let want_diagram = args.switch("--diagram");
    if args.switch("--stream") {
        if want_diagram || csv_dir.is_some() {
            args.usage_error("--stream cannot take --csv or --diagram: both need the loaded trace");
        }
        stream_analyze(path, forced_format);
        return;
    }

    let loaded = match forced_format {
        // A forced format bypasses sniffing (e.g. a trace behind a
        // pipe-unfriendly name); mismatches fail with a parse error.
        Some(format) => std::fs::File::open(path).and_then(|f| format.read(BufReader::new(f))),
        None => trace_io::load(std::path::Path::new(path)),
    };
    let trace = match loaded {
        Ok(t) => t,
        Err(e) => {
            eprintln!("analyze: cannot load {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = trace.validate() {
        eprintln!("analyze: warning: trace fails validation: {e}");
    }

    // The full ensemble report (stats, modes, diagnosis).
    print_stdout(&format!("{}\n", report::render(&trace)));

    // Per-phase breakdown.
    let phases = phase_summaries(&trace);
    if !phases.is_empty() {
        let mut table = format!(
            "## Phases\n{:>6} {:>10} {:>10} {:>12} {:>12} {:>12}\n",
            "phase", "start(s)", "dur(s)", "read(MB)", "write(MB)", "slowest(s)"
        );
        for p in &phases {
            table += &format!(
                "{:>6} {:>10.2} {:>10.2} {:>12.1} {:>12.1} {:>12.3}\n",
                p.phase,
                p.start.as_secs_f64(),
                p.duration().as_secs_f64(),
                p.bytes_read as f64 / 1e6,
                p.bytes_written as f64 / 1e6,
                p.slowest_op.as_secs_f64()
            );
        }
        print_stdout(&table);
    }

    // Slowest rank — the "slowest individual performer".
    if let Some((rank, secs)) = trace.slowest_rank() {
        print_stdout(&format!(
            "\nslowest rank: {rank} ({secs:.1} s of I/O time)\n"
        ));
    }

    if want_diagram {
        print_stdout(&format!("\n{}\n", ascii::trace_diagram(&trace, 24, 100)));
        let curve = write_rate_curve(&trace, trace.makespan().as_secs_f64().max(1e-9) / 100.0);
        print_stdout(&format!(
            "{}\n",
            ascii::rate_curve_text(&curve, 8, "aggregate write rate")
        ));
    }

    if let Some(dir) = csv_dir {
        for kind in [CallKind::Read, CallKind::Write, CallKind::MetaWrite] {
            let durs = trace.durations_of(kind);
            if durs.len() < 2 {
                continue;
            }
            let hist = LogHistogram::from_samples(&durs, 60);
            write_or_exit(&dir.join(format!("{}_hist.csv", kind.name())), |p| {
                vcsv::save(p, |w| vcsv::log_histogram_csv(&hist, w))
            });
            let d = EmpiricalDist::new(&durs);
            write_or_exit(&dir.join(format!("{}_cdf.csv", kind.name())), |p| {
                vcsv::save(p, |w| vcsv::xy_csv("t_s,fraction", &d.progress_curve(), w))
            });
        }
        print_stdout(&format!("\nCSV exports written to {}\n", dir.display()));
    }
}

/// The `--stream` path: one block in memory at a time, report rendered
/// from the mergeable ensemble snapshot and the online diagnoser, whose
/// findings end with the run's one verdict.
fn stream_analyze(path: &str, forced_format: Option<TraceFormat>) {
    let mut diagnoser = StreamDiagnoser::with_defaults();
    let p = std::path::Path::new(path);
    let streamed = match forced_format {
        // A forced format bypasses sniffing (e.g. a trace behind a
        // pipe-unfriendly name); mismatches fail with a parse error.
        Some(format) => {
            std::fs::File::open(p).and_then(|f| format.stream(BufReader::new(f), &mut diagnoser))
        }
        None => trace_io::stream_file(p, &mut diagnoser),
    };
    let (meta, n) = match streamed {
        Ok(out) => out,
        Err(e) => {
            eprintln!("analyze: cannot stream {path}: {e}");
            std::process::exit(1);
        }
    };
    let (findings, builder) = diagnoser.into_parts();
    let snap = builder.into_snapshot(0);
    print_stdout(&format!(
        "# {} [{}]: {} ranks, seed {}, {} records (streamed)\n\n",
        meta.experiment, meta.platform, meta.ranks, meta.seed, n
    ));
    print_stdout(&format!("{}\n", pio_viz::snapshot_panel(&snap, 40)));
    print_stdout("## Online findings\n");
    if n == 0 {
        // A valid but empty stream (header only): a clean "no data"
        // verdict, not a healthy-looking report over zero events.
        print_stdout("no data: the stream contained zero records — nothing to diagnose\n");
        return;
    }
    print_stdout(&pio_viz::findings_text(&findings));
}
