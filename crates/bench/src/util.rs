//! Shared helpers for the experiment drivers.

use pio_core::empirical::EmpiricalDist;
use pio_fault::{Fault, FaultPlan, FaultSchedule};
use pio_trace::{CallKind, Trace, TraceFormat};
use std::io::{ErrorKind, Write};
use std::path::PathBuf;

/// Write `text` to stdout and flush it. A reader that has gone away
/// (`analyze trace.jsonl | head -3`) only ends the printing: the
/// broken-pipe error is ignored, and so is every later one (the runtime
/// ignores SIGPIPE, so each later write fails the same way), so the
/// binary still writes its files and sets its exit code. Any other write
/// error is fatal (exit 1).
pub fn print_stdout(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Exit 2 with the usage line unless every argument is one of `known`,
/// the value that follows one, or a positional `known` declares. Each
/// entry is written as the usage line shows it: a flag and its value
/// (`"--scale N"`), a switch that takes no value (`"--stream"`), or a
/// positional (`"<trace>"`, anything not starting with `-`). Without
/// this, a typo (`--scael 64`, `--strem`) or a retired flag silently
/// runs the default. Returns the positional arguments in order; fewer
/// than declared is the caller's to judge (see [`usage_error`]).
pub fn reject_unknown_flags(known: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    check_flags(args.get(1..).unwrap_or_default(), known)
        .unwrap_or_else(|msg| usage_error(known, &msg))
}

/// Exit 2 with `msg` and the usage line built from `known` (flags and
/// switches bracketed, positionals as declared).
pub fn usage_error(known: &[&str], msg: &str) -> ! {
    let program = std::env::args().next().unwrap_or_else(|| "bench".into());
    let usage: Vec<String> = known
        .iter()
        .map(|k| {
            if k.starts_with('-') {
                format!("[{k}]")
            } else {
                k.to_string()
            }
        })
        .collect();
    eprintln!("error: {msg}");
    eprintln!("usage: {program} {}", usage.join(" "));
    std::process::exit(2);
}

/// The testable core of [`reject_unknown_flags`]: `args` without the
/// program name; returns the positionals.
fn check_flags(args: &[String], known: &[&str]) -> Result<Vec<String>, String> {
    let slots = known.iter().filter(|k| !k.starts_with('-')).count();
    let mut positionals = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some(flag) = known
            .iter()
            .find(|k| k.starts_with('-') && k.split(' ').next() == Some(arg.as_str()))
        {
            if flag.contains(' ') {
                // The flag owns the next argument, whatever it looks
                // like; the flag's own parser judges it.
                rest.next();
            }
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag {arg:?}"));
        } else if positionals.len() < slots {
            positionals.push(arg.clone());
        } else {
            return Err(format!("unexpected argument {arg:?}"));
        }
    }
    Ok(positionals)
}

/// Parse `--scale N` from argv (default `default`). Scale divides task
/// counts and transfer sizes so the full experiments can be smoke-run
/// quickly; scale 1 is the paper's configuration.
///
/// A malformed or missing value after `--scale` is an error, not a
/// silent fall-through to the default: exits with status 2.
pub fn scale_from_args(default: u32) -> u32 {
    let args: Vec<String> = std::env::args().collect();
    match parse_scale(&args, default) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: {} [--scale N]", args.first().map_or("bench", |a| a));
            std::process::exit(2);
        }
    }
}

/// The testable core of [`scale_from_args`]: find `--scale N` in `args`.
pub fn parse_scale(args: &[String], default: u32) -> Result<u32, String> {
    let mut scale = default;
    for (i, arg) in args.iter().enumerate() {
        if arg == "--scale" {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| "--scale requires a value".to_string())?;
            let v: u32 = raw.parse().map_err(|_| {
                format!("invalid --scale value {raw:?}: expected a positive integer")
            })?;
            if v == 0 {
                return Err("--scale must be at least 1".to_string());
            }
            scale = v;
        }
    }
    Ok(scale)
}

/// Parse `--fault <plan>` from argv; `None` when the flag is absent, so
/// every figure driver can re-run its experiment under a named fault
/// plan without changing its clean-run default.
///
/// Like [`scale_from_args`], a malformed plan name is an error (exit 2),
/// not a silent clean run — a typo must never masquerade as a baseline.
pub fn fault_from_args() -> Option<FaultPlan> {
    let args: Vec<String> = std::env::args().collect();
    match parse_fault(&args) {
        Ok(plan) => plan,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: {} [--scale N] [--fault {}]",
                args.first().map_or("bench", |a| a),
                FAULT_PLAN_NAMES.join("|"),
            );
            std::process::exit(2);
        }
    }
}

/// The named plans [`parse_fault`] accepts.
pub const FAULT_PLAN_NAMES: [&str; 5] = [
    "slow-ost",
    "flaky-fabric",
    "mds-stall",
    "straggler",
    "drop-retry",
];

/// The testable core of [`fault_from_args`]: find `--fault <plan>` in
/// `args` (last occurrence wins, matching `--scale`).
pub fn parse_fault(args: &[String]) -> Result<Option<FaultPlan>, String> {
    let mut plan = None;
    for (i, arg) in args.iter().enumerate() {
        if arg == "--fault" {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| "--fault requires a plan name".to_string())?;
            plan = Some(named_fault_plan(raw)?);
        }
    }
    Ok(plan)
}

/// A named single-fault plan with representative parameters — strong
/// enough that every driver's ensemble shows the fault's shape
/// signature, mild enough that runs still complete at small scales.
pub fn named_fault_plan(name: &str) -> Result<FaultPlan, String> {
    let plan = match name {
        // One OST serving 4x slow: right shoulder + OST imbalance.
        "slow-ost" => FaultPlan::new().with(Fault::SlowOst {
            ost: 0,
            slowdown: 4.0,
            ramp_per_s: 0.0,
        }),
        // Duty-cycled fabric collapse: shoulder, OST pool stays balanced.
        "flaky-fabric" => FaultPlan::new().with(Fault::FlakyFabric {
            period_s: 2.0,
            duty: 0.2,
            slowdown: 8.0,
        }),
        // Recurring metadata blackouts: shoulder on the metadata class.
        "mds-stall" => FaultPlan::new().with(Fault::MdsStall {
            period_s: 5.0,
            stall_s: 1.0,
        }),
        // One slow client node: rank-correlated mode split.
        "straggler" => FaultPlan::new().with(Fault::StragglerNode {
            node: 0,
            slowdown: 4.0,
        }),
        // Transient request loss: right-tail mass tracks the drop rate.
        "drop-retry" => FaultPlan::new().with(Fault::DropRetry {
            prob: 0.02,
            timeout_s: 0.5,
            max_retries: 4,
        }),
        other => {
            return Err(format!(
                "unknown --fault plan {other:?}: expected one of {}",
                FAULT_PLAN_NAMES.join(", ")
            ))
        }
    };
    Ok(plan)
}

/// Ceiling on concurrently active faults in a `--fault-schedule` spec.
/// The injectors compose any number of envelopes, but a spec stacking
/// more than this many overlapping faults is a typo (or an experiment
/// nobody can interpret), so the parser refuses it.
pub const MAX_SCHEDULED_FAULTS: usize = 8;

/// Parse `--fault-schedule <spec>` from argv; `None` when the flag is
/// absent. The spec is a comma-separated list of scheduled fault
/// entries, each `name[@START..END][~RAMP]`:
///
/// * `name` — one of [`FAULT_PLAN_NAMES`], with the same representative
///   parameters `--fault` uses;
/// * `@START..END` — the live window in simulated seconds (absent =
///   whole run);
/// * `~RAMP` — linear ramp-in length at the head of the window.
///
/// `slow-ost@0..2,flaky-fabric@2..64~1.2` is the corpus's
/// time-disjoint compound plan. Like [`scale_from_args`], a malformed
/// spec is an error (exit 2), never a silent clean run.
pub fn fault_schedule_from_args() -> Option<FaultPlan> {
    let args: Vec<String> = std::env::args().collect();
    match parse_fault_schedule(&args) {
        Ok(plan) => plan,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: {} [--fault-schedule name[@START..END][~RAMP],...]  (names: {})",
                args.first().map_or("bench", |a| a),
                FAULT_PLAN_NAMES.join("|"),
            );
            std::process::exit(2);
        }
    }
}

/// The testable core of [`fault_schedule_from_args`]: find
/// `--fault-schedule <spec>` in `args` (last occurrence wins).
pub fn parse_fault_schedule(args: &[String]) -> Result<Option<FaultPlan>, String> {
    let mut plan = None;
    for (i, arg) in args.iter().enumerate() {
        if arg == "--fault-schedule" {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| "--fault-schedule requires a spec".to_string())?;
            plan = Some(fault_plan_from_spec(raw)?);
        }
    }
    Ok(plan)
}

/// Build a [`FaultPlan`] from a schedule spec string (the
/// `--fault-schedule` grammar). Every entry is validated: unknown fault
/// names, windows that end at or before their start, negative starts or
/// ramps, and plans stacking more than [`MAX_SCHEDULED_FAULTS`]
/// concurrently active faults are all hard errors.
pub fn fault_plan_from_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(format!("empty entry in --fault-schedule spec {spec:?}"));
        }
        let (fault, schedule) = parse_schedule_entry(entry)?;
        plan = plan.with_scheduled(fault, schedule);
    }
    let live = plan.max_concurrent();
    if live > MAX_SCHEDULED_FAULTS {
        return Err(format!(
            "--fault-schedule stacks {live} concurrently active faults; \
             at most {MAX_SCHEDULED_FAULTS} are supported"
        ));
    }
    Ok(plan)
}

/// One `name[@START..END][~RAMP]` entry of the schedule grammar.
fn parse_schedule_entry(entry: &str) -> Result<(Fault, FaultSchedule), String> {
    let (head, ramp_s) = match entry.split_once('~') {
        Some((head, raw)) => {
            let ramp: f64 = raw.parse().map_err(|_| {
                format!("invalid ramp {raw:?} in entry {entry:?}: expected seconds")
            })?;
            (head, ramp)
        }
        None => (entry, 0.0),
    };
    let (name, window) = match head.split_once('@') {
        Some((name, raw)) => {
            let (s, e) = raw.split_once("..").ok_or_else(|| {
                format!("invalid window {raw:?} in entry {entry:?}: expected START..END")
            })?;
            let start: f64 = s.parse().map_err(|_| {
                format!("invalid window start {s:?} in entry {entry:?}: expected seconds")
            })?;
            let end: f64 = e.parse().map_err(|_| {
                format!("invalid window end {e:?} in entry {entry:?}: expected seconds")
            })?;
            (name, Some((start, end)))
        }
        None => (head, None),
    };
    let fault = named_fault_plan(name)?.entries()[0].fault.clone();
    let schedule = match window {
        Some((start, _)) if !start.is_finite() || start < 0.0 => {
            return Err(format!(
                "window start must be finite and >= 0 in entry {entry:?}"
            ));
        }
        // A window that ends at or before its start is invariably a
        // typo: FaultSchedule would accept the (inert) empty window,
        // but nobody schedules a fault to not happen.
        Some((start, end)) if end.is_nan() || end <= start => {
            return Err(format!("window end must be > start in entry {entry:?}"));
        }
        Some((start, end)) => FaultSchedule::window(start, end),
        None => FaultSchedule::ALWAYS,
    };
    if !ramp_s.is_finite() || ramp_s < 0.0 {
        return Err(format!("ramp must be finite and >= 0 in entry {entry:?}"));
    }
    let schedule = schedule.with_ramp(ramp_s);
    schedule
        .validate()
        .map_err(|e| format!("entry {entry:?}: {e}"))?;
    Ok((fault, schedule))
}

/// The combined `--fault` / `--fault-schedule` plan from argv: either
/// flag alone yields its plan, both together merge into one compound
/// plan (the named plan whole-run, the scheduled entries on their
/// windows). `None` when neither flag is present — the clean run.
pub fn fault_or_schedule_from_args() -> Option<FaultPlan> {
    match (fault_from_args(), fault_schedule_from_args()) {
        (Some(named), Some(scheduled)) => Some(named.merged(&scheduled)),
        (named, scheduled) => named.or(scheduled),
    }
}

/// Parse `--format jsonl|ptb2` from argv; `None` when absent so callers
/// keep their own default (sniffing on input, JSONL on output).
///
/// Like [`scale_from_args`], a malformed format name is an error (exit
/// 2), not a silent fall-through.
pub fn format_from_args() -> Option<TraceFormat> {
    let args: Vec<String> = std::env::args().collect();
    match parse_format(&args) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: {} [--format jsonl|ptb2]",
                args.first().map_or("bench", |a| a)
            );
            std::process::exit(2);
        }
    }
}

/// The testable core of [`format_from_args`]: find `--format <name>` in
/// `args` (last occurrence wins, matching `--scale`).
pub fn parse_format(args: &[String]) -> Result<Option<TraceFormat>, String> {
    let mut format = None;
    for (i, arg) in args.iter().enumerate() {
        if arg == "--format" {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| "--format requires a value".to_string())?;
            format = Some(
                TraceFormat::from_name(raw)
                    .ok_or_else(|| format!("unknown --format {raw:?}: expected jsonl or ptb2"))?,
            );
        }
    }
    Ok(format)
}

/// Parse `--out <path>` from argv; `None` when the flag is absent. The
/// fault-matrix driver uses it to drop the rendered attribution table
/// where CI can pick it up as a workflow artifact.
pub fn parse_out(args: &[String]) -> Result<Option<PathBuf>, String> {
    parse_path_flag(args, "--out")
}

/// Last occurrence of an arbitrary `--flag PATH` pair, if present.
pub fn parse_path_flag(args: &[String], flag: &str) -> Result<Option<PathBuf>, String> {
    let mut out = None;
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} requires a path"))?;
            out = Some(PathBuf::from(raw));
        }
    }
    Ok(out)
}

/// Output directory for CSV exports (`results/`, or `$PIO_RESULTS`).
pub fn results_dir() -> PathBuf {
    std::env::var("PIO_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Duration distribution of one call kind, or `None` if absent.
pub fn dist_of(trace: &Trace, kind: CallKind) -> Option<EmpiricalDist> {
    let d = trace.durations_of(kind);
    if d.is_empty() {
        None
    } else {
        Some(EmpiricalDist::new(&d))
    }
}

/// Time from the first record of `kind` starting to the last ending —
/// the "phase time" IOR-style rates are computed over.
pub fn span_of(trace: &Trace, kind: CallKind) -> f64 {
    let start = trace.of_kind(kind).map(|r| r.start_ns).min().unwrap_or(0);
    let end = trace.of_kind(kind).map(|r| r.end_ns).max().unwrap_or(0);
    (end.saturating_sub(start)) as f64 / 1e9
}

/// MB/s over all bytes of `kind` during its span.
pub fn rate_of(trace: &Trace, kind: CallKind) -> f64 {
    let secs = span_of(trace, kind);
    if secs <= 0.0 {
        return 0.0;
    }
    trace.bytes_of(kind) as f64 / 1e6 / secs
}

/// A paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Label (what the paper reports).
    pub label: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measurement.
    pub measured: f64,
    /// Unit for display.
    pub unit: &'static str,
    /// The paper's claims the row must meet (empty: printed for
    /// comparison only).
    pub bounds: Vec<Bound>,
}

impl Row {
    /// Build a row.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64, unit: &'static str) -> Self {
        Row {
            label: label.into(),
            paper,
            measured,
            unit,
            bounds: Vec::new(),
        }
    }

    /// The same row, also held to `bound` (builder style).
    pub fn bound(mut self, bound: Bound) -> Self {
        self.bounds.push(bound);
        self
    }

    /// measured / paper.
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            f64::NAN
        } else {
            self.measured / self.paper
        }
    }

    /// The bounds this row breaks, in the order they were attached.
    pub fn broken_bounds(&self) -> Vec<&Bound> {
        self.bounds.iter().filter(|b| !b.holds(self)).collect()
    }
}

/// A claim of the paper that a [`Row`] must meet for the reproduction to
/// hold. It is written next to the row in the source, from the paper,
/// never from a previous run's value.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// `lo <= measured / paper <= hi`: the rule for a row where the paper
    /// gives only a number.
    Ratio(f64, f64),
    /// `measured >= x`.
    AtLeast(f64),
    /// `measured <= x`.
    AtMost(f64),
    /// `measured > x`.
    Above(f64),
    /// A shape claim the row's own number does not carry (a populated
    /// band, an ordering across rows), decided where the row is built:
    /// the claim as printed, and whether the run meets it.
    Claim(String, bool),
}

impl Bound {
    /// Whether `row` meets this bound (a NaN ratio never does).
    pub fn holds(&self, row: &Row) -> bool {
        match *self {
            Bound::Ratio(lo, hi) => (lo..=hi).contains(&row.ratio()),
            Bound::AtLeast(x) => row.measured >= x,
            Bound::AtMost(x) => row.measured <= x,
            Bound::Above(x) => row.measured > x,
            Bound::Claim(_, holds) => holds,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Ratio(lo, hi) => write!(f, "{lo}–{hi}× paper"),
            Bound::AtLeast(x) => write!(f, "≥ {x}"),
            Bound::AtMost(x) => write!(f, "≤ {x}"),
            Bound::Above(x) => write!(f, "> {x}"),
            Bound::Claim(claim, _) => f.write_str(claim),
        }
    }
}

/// Print rows as a fixed-width paper-vs-measured table, with the rows'
/// bounds as a last column when any row carries one.
pub fn print_rows(title: &str, rows: &[Row]) {
    let bounded = rows.iter().any(|r| !r.bounds.is_empty());
    let mut out = format!(
        "\n== {title} ==\n{:<44} {:>12} {:>12} {:>8}{}\n",
        "quantity",
        "paper",
        "measured",
        "ratio",
        if bounded { "  bound" } else { "" }
    );
    for r in rows {
        out += &format!(
            "{:<44} {:>9.1} {:>2} {:>9.1} {:>2} {:>7.2}x",
            r.label,
            r.paper,
            r.unit,
            r.measured,
            r.unit,
            r.ratio()
        );
        if bounded {
            let bounds: Vec<String> = r.bounds.iter().map(Bound::to_string).collect();
            out += &format!("  {}", bounds.join("; "));
        }
        out.push('\n');
    }
    print_stdout(&out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_trace::{Record, TraceMeta};

    #[test]
    fn span_and_rate() {
        let mut t = Trace::new(TraceMeta::default());
        t.push(Record {
            rank: 0,
            call: CallKind::Write,
            fd: 3,
            offset: 0,
            bytes: 10_000_000,
            start_ns: 1_000_000_000,
            end_ns: 2_000_000_000,
            phase: 0,
        });
        t.push(Record {
            rank: 1,
            call: CallKind::Write,
            fd: 3,
            offset: 0,
            bytes: 10_000_000,
            start_ns: 1_500_000_000,
            end_ns: 3_000_000_000,
            phase: 0,
        });
        assert!((span_of(&t, CallKind::Write) - 2.0).abs() < 1e-12);
        assert!((rate_of(&t, CallKind::Write) - 10.0).abs() < 1e-9);
        assert_eq!(rate_of(&t, CallKind::Read), 0.0);
        assert!(dist_of(&t, CallKind::Write).is_some());
        assert!(dist_of(&t, CallKind::Read).is_none());
    }

    #[test]
    fn parse_scale_accepts_valid_and_rejects_malformed() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_scale(&args(&["bench"]), 16), Ok(16));
        assert_eq!(parse_scale(&args(&["bench", "--scale", "8"]), 16), Ok(8));
        // Last occurrence wins.
        assert_eq!(
            parse_scale(&args(&["bench", "--scale", "8", "--scale", "4"]), 16),
            Ok(4)
        );
        // Malformed values are errors, not silent defaults.
        assert!(parse_scale(&args(&["bench", "--scale"]), 16).is_err());
        assert!(parse_scale(&args(&["bench", "--scale", "abc"]), 16).is_err());
        assert!(parse_scale(&args(&["bench", "--scale", "-3"]), 16).is_err());
        assert!(parse_scale(&args(&["bench", "--scale", "0"]), 16).is_err());
        assert!(parse_scale(&args(&["bench", "--scale", "8x"]), 16).is_err());
    }

    #[test]
    fn parse_out_takes_a_path() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_out(&args(&["bench"])), Ok(None));
        assert_eq!(
            parse_out(&args(&["bench", "--out", "matrix.txt"])),
            Ok(Some(PathBuf::from("matrix.txt")))
        );
        assert!(parse_out(&args(&["bench", "--out"])).is_err());
    }

    #[test]
    fn parse_fault_resolves_named_plans() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_fault(&args(&["bench"])), Ok(None));
        for name in FAULT_PLAN_NAMES {
            let plan = parse_fault(&args(&["bench", "--fault", name]))
                .expect("named plan parses")
                .expect("plan present");
            assert!(!plan.is_empty(), "{name} produced an empty plan");
        }
        // Last occurrence wins, matching --scale.
        let plan = parse_fault(&args(&[
            "bench",
            "--fault",
            "slow-ost",
            "--fault",
            "mds-stall",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(plan, named_fault_plan("mds-stall").unwrap());
        // Malformed input is an error, not a silent clean run.
        assert!(parse_fault(&args(&["bench", "--fault"])).is_err());
        assert!(parse_fault(&args(&["bench", "--fault", "bogus"])).is_err());
    }

    #[test]
    fn parse_fault_schedule_builds_scheduled_plans() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_fault_schedule(&args(&["bench"])), Ok(None));

        // Bare name = the whole-run schedule, same fault as --fault.
        let plan = parse_fault_schedule(&args(&["bench", "--fault-schedule", "slow-ost"]))
            .unwrap()
            .unwrap();
        assert_eq!(plan.entries().len(), 1);
        assert!(plan.entries()[0].schedule.is_always());
        assert_eq!(
            plan.entries()[0].fault,
            named_fault_plan("slow-ost").unwrap().entries()[0].fault
        );

        // Windows, ramps, and composition.
        let plan = fault_plan_from_spec("slow-ost@0..2,flaky-fabric@2..64~1.2").unwrap();
        assert_eq!(plan.entries().len(), 2);
        assert_eq!(plan.entries()[0].schedule, FaultSchedule::window(0.0, 2.0));
        assert_eq!(
            plan.entries()[1].schedule,
            FaultSchedule::window(2.0, 64.0).with_ramp(1.2)
        );
        assert_eq!(plan.max_concurrent(), 1, "time-disjoint windows");

        // Ramp without a window rides the whole-run schedule.
        let plan = fault_plan_from_spec("mds-stall~0.5").unwrap();
        assert_eq!(
            plan.entries()[0].schedule,
            FaultSchedule::ALWAYS.with_ramp(0.5)
        );

        // Last flag occurrence wins, matching --scale.
        let plan = parse_fault_schedule(&args(&[
            "bench",
            "--fault-schedule",
            "slow-ost",
            "--fault-schedule",
            "straggler",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(
            plan.entries()[0].fault,
            named_fault_plan("straggler").unwrap().entries()[0].fault
        );
    }

    #[test]
    fn schedule_spec_rejects_missing_value() {
        let args: Vec<String> = ["bench", "--fault-schedule"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_fault_schedule(&args).unwrap_err();
        assert!(err.contains("requires a spec"), "{err}");
    }

    #[test]
    fn schedule_spec_rejects_unknown_fault_name() {
        let err = fault_plan_from_spec("bogus@0..2").unwrap_err();
        assert!(err.contains("unknown --fault plan"), "{err}");
    }

    #[test]
    fn schedule_spec_rejects_window_ending_at_or_before_start() {
        for spec in ["slow-ost@2..2", "slow-ost@5..2"] {
            let err = fault_plan_from_spec(spec).unwrap_err();
            assert!(err.contains("window end must be > start"), "{spec}: {err}");
        }
    }

    #[test]
    fn schedule_spec_rejects_negative_start() {
        let err = fault_plan_from_spec("slow-ost@-1..2").unwrap_err();
        assert!(
            err.contains("window start must be finite and >= 0"),
            "{err}"
        );
    }

    #[test]
    fn schedule_spec_rejects_negative_ramp() {
        let err = fault_plan_from_spec("flaky-fabric@0..4~-0.5").unwrap_err();
        assert!(err.contains("ramp must be finite and >= 0"), "{err}");
    }

    #[test]
    fn schedule_spec_rejects_malformed_windows_and_numbers() {
        let err = fault_plan_from_spec("slow-ost@012").unwrap_err();
        assert!(err.contains("expected START..END"), "{err}");
        let err = fault_plan_from_spec("slow-ost@a..2").unwrap_err();
        assert!(err.contains("invalid window start"), "{err}");
        let err = fault_plan_from_spec("slow-ost@0..b").unwrap_err();
        assert!(err.contains("invalid window end"), "{err}");
        let err = fault_plan_from_spec("slow-ost~fast").unwrap_err();
        assert!(err.contains("invalid ramp"), "{err}");
        let err = fault_plan_from_spec("slow-ost,,straggler").unwrap_err();
        assert!(err.contains("empty entry"), "{err}");
    }

    #[test]
    fn schedule_spec_rejects_more_than_eight_concurrent_faults() {
        // Nine whole-run entries all overlap; eight are fine.
        let nine = ["slow-ost"; 9].join(",");
        let err = fault_plan_from_spec(&nine).unwrap_err();
        assert!(err.contains("at most 8 are supported"), "{err}");
        let eight = ["slow-ost"; 8].join(",");
        assert!(fault_plan_from_spec(&eight).is_ok());
        // Nine entries that never overlap in time are fine too: the
        // ceiling is on *concurrency*, not plan length.
        let staggered: Vec<String> = (0..9)
            .map(|i| format!("slow-ost@{}..{}", i, i + 1))
            .collect();
        assert!(fault_plan_from_spec(&staggered.join(",")).is_ok());
    }

    #[test]
    fn parse_format_accepts_valid_and_rejects_malformed() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_format(&args(&["bench"])), Ok(None));
        assert_eq!(
            parse_format(&args(&["bench", "--format", "jsonl"])),
            Ok(Some(TraceFormat::Jsonl))
        );
        assert_eq!(
            parse_format(&args(&["bench", "--format", "ptb2"])),
            Ok(Some(TraceFormat::Ptb2))
        );
        // Last occurrence wins, matching --scale.
        assert_eq!(
            parse_format(&args(&["bench", "--format", "ptb2", "--format", "jsonl"])),
            Ok(Some(TraceFormat::Jsonl))
        );
        assert!(parse_format(&args(&["bench", "--format"])).is_err());
        assert!(parse_format(&args(&["bench", "--format", "csv"])).is_err());
        // The retired v1 name is no longer a format.
        let err = parse_format(&args(&["bench", "--format", "ptb"])).unwrap_err();
        assert!(err.contains("expected jsonl or ptb2"), "{err}");
    }

    #[test]
    fn row_ratio() {
        let r = Row::new("runtime", 100.0, 50.0, "s");
        assert!((r.ratio() - 0.5).abs() < 1e-12);
        assert!(Row::new("x", 0.0, 1.0, "s").ratio().is_nan());
    }

    #[test]
    fn bounds_pass_a_row_inside_and_name_what_a_row_outside_breaks() {
        let jaguar = |measured| {
            Row::new("fig4 Jaguar", 275.0, measured, "s")
                .bound(Bound::Ratio(0.5, 2.0))
                .bound(Bound::Claim("reads healthy".into(), true))
        };
        assert!(jaguar(240.9).broken_bounds().is_empty());
        // 848 s is 3.08x the paper's 275 s; the claim beside it holds.
        assert_eq!(jaguar(848.0).broken_bounds(), [&Bound::Ratio(0.5, 2.0)]);
        // Strict where the paper's claim is; a NaN ratio never passes.
        assert!(!Bound::Above(4.0).holds(&Row::new("x", 4.1, 4.0, "x")));
        assert!(!Bound::Ratio(0.5, 2.0).holds(&Row::new("x", 0.0, 1.0, "")));
    }

    #[test]
    fn check_flags_accepts_known_flags_and_rejects_the_rest() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let known = ["--scale N", "--out PATH"];
        assert_eq!(
            check_flags(&args(&["--scale", "16", "--out", "t"]), &known),
            Ok(vec![])
        );
        // A value-taking flag owns the next argument; its own parser
        // judges a bad or missing value.
        assert_eq!(
            check_flags(&args(&["--out", "--scale"]), &known),
            Ok(vec![])
        );
        assert_eq!(check_flags(&args(&["--scale"]), &known), Ok(vec![]));
        let err = check_flags(&args(&["--scale", "4", "--shards", "4"]), &known).unwrap_err();
        assert_eq!(err, "unknown flag \"--shards\"");
        let err = check_flags(&args(&["64"]), &known).unwrap_err();
        assert_eq!(err, "unexpected argument \"64\"");
    }

    #[test]
    fn check_flags_switches_take_no_value_and_positionals_fill_their_slots() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let known = ["<in>", "<out>", "--format F", "--verify"];
        // A switch does not swallow the positional after it.
        assert_eq!(
            check_flags(&args(&["--verify", "a", "--format", "ptb2", "b"]), &known),
            Ok(args(&["a", "b"]))
        );
        // Fewer positionals than declared is the caller's to judge.
        assert_eq!(check_flags(&args(&["a"]), &known), Ok(args(&["a"])));
        let err = check_flags(&args(&["a", "b", "c"]), &known).unwrap_err();
        assert_eq!(err, "unexpected argument \"c\"");
        let err = check_flags(&args(&["a", "b", "--verfy"]), &known).unwrap_err();
        assert_eq!(err, "unknown flag \"--verfy\"");
        // A positional's declared name is not a flag.
        let err = check_flags(&args(&["--in"]), &known).unwrap_err();
        assert_eq!(err, "unknown flag \"--in\"");
    }
}
