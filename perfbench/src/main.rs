//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every end-to-end metric with its unit
//! and sample count (or, with `--trace 1`, the per-layer table), then a
//! one-line JSON result as the last line of stdout. Exits 1 when a job
//! broke an invariant, 2 on bad arguments; a verdict miss is counted,
//! never fatal.

use perfbench::{end_to_end, result_json, run, span, Outcome, Params, Seeds, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <ior-paper|fault-sweep|fleet-replay> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && (0.0..=600.0).contains(&s)) {
                    return Err(format!("--seconds {value:?}: want 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_report(o: &Outcome, a: &Args) {
    println!(
        "perfbench {}  seed {}  seconds {}  trace {}",
        o.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("closed loop, load from one process; threads: {}", o.threads);
    let seeds: Vec<String> = o.seeds_used.iter().map(u64::to_string).collect();
    println!("job seeds ({}): {}", o.seed_rule, seeds.join(" "));
    for n in &o.notes {
        println!("{n}");
    }
    let t = &o.tally;
    let rounds = if a.trace {
        "untraced rounds"
    } else {
        "timed part"
    };
    let (records, wall_s) = o.untraced_totals();
    let windows = o.windows.len();
    let fewest = o.windows.iter().map(|w| w.job_ms.len()).min().unwrap_or(0);
    let readings: usize = o.windows.iter().map(|w| w.slowdowns.len()).sum();
    println!(
        "host slowdown against the reference: {:.3} (median over {windows} windows of \
         {readings} readings); time figures below are at the reference speed",
        o.slowdown()
    );
    let wall_median = |f: &dyn Fn(&perfbench::Window) -> f64| o.window_median(f);
    for (name, value, unit) in end_to_end(o) {
        let detail = match name {
            "setup_s" => format!(
                "median of {} set-ups spread over the run; {:.6} s as timed",
                o.setups.len(),
                o.setup_median_s().1
            ),
            "records_per_s" => format!(
                "median of {windows} windows; {:.1} as timed; {records} records in {wall_s:.3} s of {rounds}",
                wall_median(&perfbench::Window::records_per_s)
            ),
            "job_p50_ms" => format!(
                "median over {windows} windows of the window median; {:.6} as timed; {} jobs",
                wall_median(&|w| perfbench::median(&w.job_ms)),
                o.jobs_timed()
            ),
            "job_p99_ms" => format!(
                "median over {windows} windows of the window p99; {:.6} as timed; >= {} jobs beyond it per window",
                wall_median(&|w| perfbench::quantile(&w.job_ms, 0.99)),
                fewest - (0.99 * fewest as f64).ceil() as usize
            ),
            _ => "VmHWM of this process".to_string(),
        };
        println!("{name:<20} {value:>16.6} {unit:<6} ({detail})");
    }
    println!(
        "{:<20} {:>16.6} {:<6} ({} of {} jobs broke an invariant)",
        "fail_share",
        t.fail_share(),
        "share",
        t.failed,
        t.attempted
    );
    let missed: Vec<String> = t
        .missed_as
        .iter()
        .map(|(v, n)| format!("{v} x{n}"))
        .collect();
    println!(
        "{:<20} {:>16.6} {:<6} ({} of {} diagnosed; missed as: {})",
        "verdict_miss_share",
        t.miss_share(),
        "share",
        t.misses,
        t.diagnosed,
        if missed.is_empty() {
            "-".to_string()
        } else {
            missed.join(", ")
        }
    );
    for m in &t.missed_jobs {
        println!("missed: {m}");
    }
    for f in &t.failures {
        println!("FAILED: {f}");
    }
    if a.trace {
        println!(
            "per-layer ({} records in {:.3} s of traced rounds; in-situ = traced rounds, \
             replay = the workload's own records replayed after the timed part):",
            o.traced_records, o.traced_wall_s
        );
        for m in &o.layers {
            println!(
                "  {:<38} {:>16.6} {:<9} {}",
                m.name, m.value, m.unit, m.source
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
    };
    let outcome = run(args.workload, &Seeds::Derived(args.seed), &params);
    print_report(&outcome, &args);
    if args.trace {
        let path = std::path::PathBuf::from(".bench_spans").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match span::write_jsonl(&path, &outcome.spans) {
            Ok(()) => println!(
                "spans: {} written to {} ({} more not retained)",
                outcome.spans.len(),
                path.display(),
                outcome.spans_dropped
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&outcome, args.trace));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
