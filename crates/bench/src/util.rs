//! Shared helpers for the experiment drivers.

use pio_core::empirical::EmpiricalDist;
use pio_fault::{Fault, FaultPlan, FaultSchedule};
use pio_trace::{CallKind, Trace, TraceFormat};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

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

/// Write the file at `path` through `write`, or exit 1 with a message
/// naming the path: an output a binary cannot write fails the run
/// instead of panicking.
pub fn write_or_exit(path: &Path, write: impl FnOnce(&Path) -> std::io::Result<()>) {
    if let Err(e) = write(path) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// A binary's command line, read once and checked against its usage.
///
/// The usage is a list of entries written as the usage line shows them:
/// a flag and its value (`"--scale N"`), a switch that takes no value
/// (`"--stream"`), or a positional (`"<trace>"`, anything not starting
/// with `-`). A flag owns the next argument unless that argument is
/// itself a declared flag or switch, which leaves the flag without its
/// value (`--out --scale 4` is an error, never a file named `--scale`);
/// positionals fill their declared slots in order (fewer than declared is
/// the caller's to judge); a flag given more than once has every value
/// checked and the last one wins. Without this check a typo
/// (`--scael 64`, `--strem`) or a retired flag would silently run the
/// default.
#[derive(Debug)]
pub struct Args {
    program: String,
    usage: Vec<String>,
    positionals: Vec<String>,
    /// Flags and switches in the order given; a switch has no value.
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Read argv against `usage`. An unknown flag, a flag without its
    /// value or a positional beyond the declared slots exits 2 with the
    /// usage line ([`Args::usage_error`]).
    pub fn parse(usage: &[&str]) -> Args {
        let mut argv = std::env::args();
        let mut args = Args::new(argv.next().unwrap_or_else(|| "bench".into()), usage);
        if let Err(msg) = args.read(argv) {
            args.usage_error(&msg);
        }
        args
    }

    fn new(program: String, usage: &[&str]) -> Args {
        Args {
            program,
            usage: usage.iter().map(|u| u.to_string()).collect(),
            positionals: Vec::new(),
            given: Vec::new(),
        }
    }

    /// The testable core of [`Args::parse`]: `argv` without the program
    /// name.
    fn read(&mut self, argv: impl IntoIterator<Item = String>) -> Result<(), String> {
        let slots = self.usage.iter().filter(|u| !u.starts_with('-')).count();
        let mut rest = argv.into_iter();
        while let Some(arg) = rest.next() {
            match self.entry(&arg).map(|u| u.contains(' ')) {
                Some(true) => match rest.next() {
                    Some(value) if self.entry(&value).is_none() => {
                        self.given.push((arg, Some(value)));
                    }
                    _ => return Err(format!("{arg} requires a value")),
                },
                Some(false) => self.given.push((arg, None)),
                None if arg.starts_with('-') => return Err(format!("unknown flag {arg:?}")),
                None if self.positionals.len() < slots => self.positionals.push(arg),
                None => return Err(format!("unexpected argument {arg:?}")),
            }
        }
        Ok(())
    }

    /// The `i`-th positional argument, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        debug_assert!(self.entry(flag).is_some(), "{flag} is not in the usage");
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// Every value given for `flag`, in order (for repeatable flags).
    pub fn values(&self, flag: &str) -> Vec<String> {
        debug_assert!(self.entry(flag).is_some(), "{flag} is not in the usage");
        self.given
            .iter()
            .filter(|(f, _)| f == flag)
            .filter_map(|(_, v)| v.clone())
            .collect()
    }

    /// The last value given for `flag`, read by `parse`; `None` when the
    /// flag is absent. A value `parse` rejects exits 2 with the usage
    /// line.
    pub fn value<T>(&self, flag: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
        self.try_value(flag, parse)
            .unwrap_or_else(|msg| self.usage_error(&msg))
    }

    /// The testable core of [`Args::value`].
    fn try_value<T>(
        &self,
        flag: &str,
        parse: fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for raw in self.values(flag) {
            last = Some(parse(&raw).map_err(|e| format!("{flag}: {e}"))?);
        }
        Ok(last)
    }

    /// The usage entry of the flag or switch `flag`, if it is declared.
    fn entry(&self, flag: &str) -> Option<&str> {
        self.usage
            .iter()
            .find(|u| u.starts_with('-') && u.split(' ').next() == Some(flag))
            .map(String::as_str)
    }

    /// Exit 2 with `msg` and the binary's one usage line (flags and
    /// switches bracketed, positionals as declared).
    pub fn usage_error(&self, msg: &str) -> ! {
        let usage: Vec<String> = self
            .usage
            .iter()
            .map(|u| {
                if u.starts_with('-') {
                    format!("[{u}]")
                } else {
                    u.clone()
                }
            })
            .collect();
        eprintln!("error: {msg}");
        eprintln!("usage: {} {}", self.program, usage.join(" "));
        std::process::exit(2);
    }
}

/// The usage of the figure drivers that re-run their experiment under a
/// fault plan (see [`fault_plan`]).
pub const FIGURE_USAGE: [&str; 3] = [
    "--scale N",
    "--fault <plan>",
    "--fault-schedule <plan>[@START..END][~RAMP],...",
];

/// Value parser for `--scale` and other counts: a positive integer.
/// Scale divides task counts and transfer sizes so the full experiments
/// can be smoke-run quickly; scale 1 is the paper's configuration.
pub fn positive(raw: &str) -> Result<u32, String> {
    match raw.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("expected a positive integer, got {raw:?}")),
    }
}

/// Value parser for a path (any string).
pub fn file_path(raw: &str) -> Result<PathBuf, String> {
    Ok(PathBuf::from(raw))
}

/// Value parser for `--format jsonl|ptb2`.
pub fn trace_format(raw: &str) -> Result<TraceFormat, String> {
    TraceFormat::from_name(raw)
        .ok_or_else(|| format!("unknown format {raw:?}: expected jsonl or ptb2"))
}

/// The run's fault plan from `--fault` and `--fault-schedule`: either
/// flag alone yields its plan, both together merge into one compound
/// plan (the named plan whole-run, the scheduled entries on their
/// windows). `None` when neither is given — the clean run. A malformed
/// plan exits 2: a typo must never masquerade as a baseline.
pub fn fault_plan(args: &Args) -> Option<FaultPlan> {
    let named = args.value("--fault", named_fault_plan);
    let scheduled = args.value("--fault-schedule", fault_plan_from_spec);
    match (named, scheduled) {
        (Some(named), Some(scheduled)) => Some(named.merged(&scheduled)),
        (named, scheduled) => named.or(scheduled),
    }
}

/// The named plans [`named_fault_plan`] accepts.
pub const FAULT_PLAN_NAMES: [&str; 5] = [
    "slow-ost",
    "flaky-fabric",
    "mds-stall",
    "straggler",
    "drop-retry",
];

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
                "unknown fault plan {other:?}: expected one of {}",
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

/// Build a [`FaultPlan`] from a schedule spec, the `--fault-schedule`
/// grammar: a comma-separated list of entries, each
/// `name[@START..END][~RAMP]`:
///
/// * `name` — one of [`FAULT_PLAN_NAMES`], with the same representative
///   parameters `--fault` uses;
/// * `@START..END` — the live window in simulated seconds (absent =
///   whole run);
/// * `~RAMP` — linear ramp-in length at the head of the window.
///
/// `slow-ost@0..2,flaky-fabric@2..64~1.2` is the corpus's time-disjoint
/// compound plan. Every entry is validated: unknown fault names, windows
/// that end at or before their start, negative starts or ramps, and
/// plans stacking more than [`MAX_SCHEDULED_FAULTS`] concurrently active
/// faults are all errors, never a silent clean run.
pub fn fault_plan_from_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(format!("empty entry in spec {spec:?}"));
        }
        let (fault, schedule) = parse_schedule_entry(entry)?;
        plan = plan.with_scheduled(fault, schedule);
    }
    let live = plan.max_concurrent();
    if live > MAX_SCHEDULED_FAULTS {
        return Err(format!(
            "the spec stacks {live} concurrently active faults; \
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

    /// [`Args`] over `argv` (without the program name).
    fn args(usage: &[&str], argv: &[&str]) -> Result<Args, String> {
        let mut args = Args::new("bench".into(), usage);
        args.read(argv.iter().map(|a| a.to_string()))?;
        Ok(args)
    }

    #[test]
    fn parse_scale_accepts_valid_and_rejects_malformed() {
        let scale = |argv: &[&str]| -> Result<u32, String> {
            Ok(args(&FIGURE_USAGE, argv)?
                .try_value("--scale", positive)?
                .unwrap_or(16))
        };
        assert_eq!(scale(&[]), Ok(16));
        assert_eq!(scale(&["--scale", "8"]), Ok(8));
        // Last occurrence wins.
        assert_eq!(scale(&["--scale", "8", "--scale", "4"]), Ok(4));
        // Malformed values are errors, not silent defaults.
        assert!(scale(&["--scale"]).is_err());
        assert!(scale(&["--scale", "abc"]).is_err());
        assert!(scale(&["--scale", "-3"]).is_err());
        assert!(scale(&["--scale", "0"]).is_err());
        assert!(scale(&["--scale", "8x"]).is_err());
        // Every occurrence is checked, not only the one that wins.
        assert!(scale(&["--scale", "abc", "--scale", "4"]).is_err());
    }

    #[test]
    fn parse_out_takes_a_path() {
        let out = |argv: &[&str]| -> Result<Option<PathBuf>, String> {
            args(&["--out PATH"], argv)?.try_value("--out", file_path)
        };
        assert_eq!(out(&[]), Ok(None));
        assert_eq!(
            out(&["--out", "matrix.txt"]),
            Ok(Some(PathBuf::from("matrix.txt")))
        );
        assert!(out(&["--out"]).is_err());
    }

    #[test]
    fn parse_fault_resolves_named_plans() {
        let fault = |argv: &[&str]| -> Result<Option<FaultPlan>, String> {
            args(&FIGURE_USAGE, argv)?.try_value("--fault", named_fault_plan)
        };
        assert_eq!(fault(&[]), Ok(None));
        for name in FAULT_PLAN_NAMES {
            let plan = fault(&["--fault", name])
                .expect("named plan parses")
                .expect("plan present");
            assert!(!plan.is_empty(), "{name} produced an empty plan");
        }
        // Last occurrence wins, matching --scale.
        let plan = fault(&["--fault", "slow-ost", "--fault", "mds-stall"])
            .unwrap()
            .unwrap();
        assert_eq!(plan, named_fault_plan("mds-stall").unwrap());
        // Malformed input is an error, not a silent clean run.
        assert!(fault(&["--fault"]).is_err());
        assert!(fault(&["--fault", "bogus"]).is_err());
    }

    /// `--fault-schedule` read through [`Args`].
    fn schedule(argv: &[&str]) -> Result<Option<FaultPlan>, String> {
        args(&FIGURE_USAGE, argv)?.try_value("--fault-schedule", fault_plan_from_spec)
    }

    #[test]
    fn parse_fault_schedule_builds_scheduled_plans() {
        assert_eq!(schedule(&[]), Ok(None));

        // Bare name = the whole-run schedule, same fault as --fault.
        let plan = schedule(&["--fault-schedule", "slow-ost"])
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
        let plan = schedule(&[
            "--fault-schedule",
            "slow-ost",
            "--fault-schedule",
            "straggler",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            plan.entries()[0].fault,
            named_fault_plan("straggler").unwrap().entries()[0].fault
        );
    }

    #[test]
    fn fault_plan_merges_named_and_scheduled_plans() {
        let plan = |argv: &[&str]| fault_plan(&args(&FIGURE_USAGE, argv).unwrap());
        assert_eq!(plan(&["--scale", "4"]), None);
        let named = named_fault_plan("straggler").unwrap();
        let scheduled = fault_plan_from_spec("slow-ost@0..2").unwrap();
        assert_eq!(plan(&["--fault", "straggler"]), Some(named.clone()));
        assert_eq!(
            plan(&["--fault-schedule", "slow-ost@0..2"]),
            Some(scheduled.clone())
        );
        assert_eq!(
            plan(&["--fault-schedule", "slow-ost@0..2", "--fault", "straggler"]),
            Some(named.merged(&scheduled))
        );
    }

    #[test]
    fn schedule_spec_rejects_missing_value() {
        let err = schedule(&["--fault-schedule"]).unwrap_err();
        assert!(err.contains("--fault-schedule requires a value"), "{err}");
    }

    #[test]
    fn schedule_spec_rejects_unknown_fault_name() {
        let err = fault_plan_from_spec("bogus@0..2").unwrap_err();
        assert!(err.contains("unknown fault plan \"bogus\""), "{err}");
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
        let format = |argv: &[&str]| -> Result<Option<TraceFormat>, String> {
            args(&["--format jsonl|ptb2"], argv)?.try_value("--format", trace_format)
        };
        assert_eq!(format(&[]), Ok(None));
        assert_eq!(format(&["--format", "jsonl"]), Ok(Some(TraceFormat::Jsonl)));
        assert_eq!(format(&["--format", "ptb2"]), Ok(Some(TraceFormat::Ptb2)));
        // Last occurrence wins, matching --scale.
        assert_eq!(
            format(&["--format", "ptb2", "--format", "jsonl"]),
            Ok(Some(TraceFormat::Jsonl))
        );
        assert!(format(&["--format"]).is_err());
        assert!(format(&["--format", "csv"]).is_err());
        // The retired v1 name is no longer a format.
        let err = format(&["--format", "ptb"]).unwrap_err();
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
    fn args_accept_known_flags_and_reject_the_rest() {
        let positionals =
            |argv: &[&str]| args(&["--scale N", "--out PATH"], argv).map(|a| a.positionals);
        assert_eq!(positionals(&["--scale", "16", "--out", "t"]), Ok(vec![]));
        // A value-taking flag owns the next argument unless it is another
        // declared flag; a flag with no value left is an error.
        let err = positionals(&["--out", "--scale"]).unwrap_err();
        assert_eq!(err, "--out requires a value");
        let err = positionals(&["--out", "--scale", "4"]).unwrap_err();
        assert_eq!(err, "--out requires a value");
        let out = args(&["--scale N", "--out PATH"], &["--out", "-x.txt"]).unwrap();
        assert_eq!(out.values("--out"), ["-x.txt"]);
        let err = positionals(&["--scale"]).unwrap_err();
        assert_eq!(err, "--scale requires a value");
        let err = positionals(&["--scale", "4", "--shards", "4"]).unwrap_err();
        assert_eq!(err, "unknown flag \"--shards\"");
        let err = positionals(&["64"]).unwrap_err();
        assert_eq!(err, "unexpected argument \"64\"");
    }

    #[test]
    fn args_switches_take_no_value_and_positionals_fill_their_slots() {
        let usage = ["<in>", "<out>", "--format F", "--verify"];
        let positionals = |argv: &[&str]| args(&usage, argv).map(|a| a.positionals);
        let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A switch does not swallow the positional after it.
        let a = args(&usage, &["--verify", "a", "--format", "ptb2", "b"]).unwrap();
        assert_eq!(a.positionals, strings(&["a", "b"]));
        assert!(a.switch("--verify"));
        assert_eq!((a.positional(0), a.positional(1)), (Some("a"), Some("b")));
        // Fewer positionals than declared is the caller's to judge.
        assert_eq!(positionals(&["a"]), Ok(strings(&["a"])));
        assert_eq!(args(&usage, &["a"]).unwrap().positional(1), None);
        let err = positionals(&["a", "b", "c"]).unwrap_err();
        assert_eq!(err, "unexpected argument \"c\"");
        let err = positionals(&["a", "b", "--verfy"]).unwrap_err();
        assert_eq!(err, "unknown flag \"--verfy\"");
        // A declared switch is not a flag's value either.
        let err = positionals(&["a", "b", "--format", "--verify"]).unwrap_err();
        assert_eq!(err, "--format requires a value");
        // A positional's declared name is not a flag.
        let err = positionals(&["--in"]).unwrap_err();
        assert_eq!(err, "unknown flag \"--in\"");
    }

    #[test]
    fn repeatable_flags_keep_every_value_in_order() {
        let usage = ["--only PREFIX", "--out PATH"];
        let a = args(&usage, &["--only", "des/", "--out", "x", "--only", "size/"]).unwrap();
        assert_eq!(a.values("--only"), ["des/", "size/"]);
        assert!(args(&usage, &[]).unwrap().values("--only").is_empty());
    }
}
