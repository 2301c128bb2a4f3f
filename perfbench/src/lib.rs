//! End-to-end benchmark of the simulate → capture → diagnose stack.
//!
//! Three closed-loop workloads, each generating its load from one
//! thread and calling only the crates' public APIs:
//!
//! * `ior-paper` — the paper's Figure 1 IOR at full scale streamed
//!   through a live capture (`StreamDiagnoser` beside a `Ptb2Writer`);
//!   the simulator's write path does nearly all the work.
//! * `fault-sweep` — every fault-matrix cell, baseline and faulted, at
//!   derived seeds: buffered simulation, batch `diagnose`, `run_verdict`;
//!   batch diagnosis carries the load beside small read/metadata runs.
//! * `fleet-replay` — pre-simulated tenants replayed from ptb2 bytes
//!   into a 2-worker `FleetService`; the analysis plane alone.
//!
//! A run times a set-up phase several times, then runs rounds of jobs
//! until the requested seconds have passed. The traced run alternates
//! untraced and traced rounds: untraced rounds give the end-to-end
//! figures, traced rounds the per-layer spans, and the ratio of the two
//! the tracing overhead. Layer figures that cannot be taken in situ come
//! from replays of the workload's own records after the timed part and
//! are labelled as such. End-to-end time figures are given at a
//! reference host speed, measured by a fixed calibration kernel between
//! rounds ([`calib`]), so that a shared host's slow spells do not move
//! them; the report prints them as timed too.

pub mod calib;
pub mod span;

mod fleet;
mod ior;
mod replay;
mod sweep;

use pio_bench::fault_matrix::Expect;
use pio_core::attribution::FaultClass;
use pio_core::diagnosis::Verdict;
use pio_mpi::RunReport;
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IorPaper,
    FaultSweep,
    FleetReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IorPaper,
        Workload::FaultSweep,
        Workload::FleetReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IorPaper => "ior-paper",
            Workload::FaultSweep => "fault-sweep",
            Workload::FleetReplay => "fleet-replay",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Where per-job simulation seeds come from. The workload seed is the
/// only input; everything the program under test receives is derived
/// from it.
#[derive(Debug, Clone)]
pub enum Seeds {
    /// Job `k` runs at `seed + k * 1_000_003` (wrapping).
    Derived(u64),
    /// Job `k` runs at `list[k % len]` — e.g. the attribution corpus
    /// seeds, where every verdict is known to be right.
    Fixed(Vec<u64>),
}

impl Seeds {
    pub fn job(&self, k: u64) -> u64 {
        match self {
            Seeds::Derived(s) => s.wrapping_add(k.wrapping_mul(1_000_003)),
            Seeds::Fixed(list) => list[(k % list.len() as u64) as usize],
        }
    }

    pub fn describe(&self) -> String {
        match self {
            Seeds::Derived(s) => format!("seed {s} + k * 1000003"),
            Seeds::Fixed(list) => format!("fixed {list:?}"),
        }
    }
}

/// Run shape.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Minimum wall seconds of rounds.
    pub seconds: f64,
    /// Alternate traced rounds and report per-layer figures.
    pub trace: bool,
    /// Shrink every workload to a test-sized job.
    pub tiny: bool,
}

/// What a job's verdict must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    Clean,
    Single(FaultClass),
    /// Both implicated, confidently or as candidates, and nothing else.
    Pair(FaultClass, FaultClass),
    /// A shape finding with no class named.
    Shape,
}

impl Expected {
    pub fn of_cell(e: &Expect) -> Expected {
        match e {
            Expect::Shape => Expected::Shape,
            Expect::Single(c) => Expected::Single(*c),
            Expect::Pair(a, b) => Expected::Pair(*a, *b),
        }
    }

    pub fn of_tenant(c: Option<FaultClass>) -> Expected {
        c.map_or(Expected::Clean, Expected::Single)
    }

    pub fn holds(&self, v: &Verdict) -> bool {
        match self {
            Expected::Clean => *v == Verdict::Clean,
            Expected::Single(c) => *v == Verdict::Single(*c),
            Expected::Pair(a, b) => {
                v.implicates(*a) && v.implicates(*b) && v.classes().iter().all(|c| c == a || c == b)
            }
            Expected::Shape => v.classes().is_empty(),
        }
    }

    fn classes(&self) -> Vec<FaultClass> {
        match self {
            Expected::Clean | Expected::Shape => Vec::new(),
            Expected::Single(c) => vec![*c],
            Expected::Pair(a, b) => vec![*a, *b],
        }
    }
}

/// Job accounting: attempts, broken invariants, verdicts.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few broken invariants, verbatim.
    pub failures: Vec<String>,
    pub diagnosed: u64,
    pub misses: u64,
    /// Jobs expected clean, and those given a fault class anyway.
    pub clean: u64,
    pub false_positives: u64,
    /// Per injected class: (jobs where the verdict names it, jobs).
    pub detect: BTreeMap<FaultClass, (u64, u64)>,
    /// Verdict label → count, over missed jobs.
    pub missed_as: BTreeMap<String, u64>,
    /// The first few missed jobs, as `job: verdict`.
    pub missed_jobs: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Count `job`'s verdict against its expectation.
    pub fn verdict(&mut self, job: &str, want: &Expected, got: &Verdict) {
        self.diagnosed += 1;
        if !want.holds(got) {
            self.misses += 1;
            *self.missed_as.entry(got.label()).or_default() += 1;
            if self.missed_jobs.len() < 8 {
                self.missed_jobs.push(format!("{job}: {}", got.label()));
            }
        }
        if *want == Expected::Clean {
            self.clean += 1;
            if !got.classes().is_empty() {
                self.false_positives += 1;
            }
        }
        for c in want.classes() {
            let e = self.detect.entry(c).or_default();
            e.1 += 1;
            if got.implicates(c) {
                e.0 += 1;
            }
        }
    }

    pub fn fail_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn miss_share(&self) -> f64 {
        ratio(self.misses as f64, self.diagnosed as f64)
    }
}

/// One per-layer figure.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// `in-situ` (traced rounds), `set-up`, or `replay` (the workload's
    /// own records, after the timed part).
    pub source: &'static str,
}

pub(crate) fn lm(name: &str, value: f64, unit: &'static str, source: &'static str) -> LayerMetric {
    LayerMetric {
        name: name.to_string(),
        value,
        unit,
        source,
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    /// The set-up repetitions.
    pub setups: Vec<SetupTime>,
    /// The untraced rounds, cut into windows of about [`WINDOW_S`].
    pub windows: Vec<Window>,
    /// Records and wall seconds of traced rounds.
    pub traced_records: u64,
    pub traced_wall_s: f64,
    pub tally: Tally,
    /// Seeds the program under test received, in order.
    pub seeds_used: Vec<u64>,
    pub seed_rule: String,
    /// Threads that generate or serve the load.
    pub threads: &'static str,
    /// Per-layer figures (traced runs only).
    pub layers: Vec<LayerMetric>,
    /// Free-form lines worth printing (e.g. verdict facts).
    pub notes: Vec<String>,
    /// Spans of the traced rounds, and how many were not retained.
    pub spans: Vec<span::Span>,
    pub spans_dropped: u64,
}

impl Outcome {
    fn new(workload: Workload, seeds: &Seeds, threads: &'static str) -> Self {
        Outcome {
            workload,
            setups: Vec::new(),
            windows: Vec::new(),
            traced_records: 0,
            traced_wall_s: 0.0,
            tally: Tally::default(),
            seeds_used: Vec::new(),
            seed_rule: seeds.describe(),
            threads,
            layers: Vec::new(),
            notes: Vec::new(),
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    /// Records and wall seconds over every untraced round.
    pub fn untraced_totals(&self) -> (u64, f64) {
        self.windows
            .iter()
            .fold((0, 0.0), |(r, s), w| (r + w.records, s + w.wall_s))
    }

    /// Jobs timed in untraced rounds.
    pub fn jobs_timed(&self) -> usize {
        self.windows.iter().map(|w| w.job_ms.len()).sum()
    }

    /// Median set-up seconds, at the reference host speed and as timed.
    pub fn setup_median_s(&self) -> (f64, f64) {
        let at_ref: Vec<f64> = self.setups.iter().map(|s| s.wall_s / s.slowdown).collect();
        let wall: Vec<f64> = self.setups.iter().map(|s| s.wall_s).collect();
        (median(&at_ref), median(&wall))
    }

    /// Median seconds in the job builders per set-up.
    pub fn build_median_s(&self) -> f64 {
        median(&self.setups.iter().map(|s| s.build_s).collect::<Vec<_>>())
    }

    /// Median host slowdown against the reference over every window.
    pub fn slowdown(&self) -> f64 {
        self.window_median(Window::slowdown)
    }

    /// Median over windows of a per-window figure.
    pub fn window_median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }

    fn set_timing(&mut self, t: Timing) {
        self.windows = t.windows;
        self.traced_records = t.traced_records;
        self.traced_wall_s = t.traced_wall_s;
    }

    /// Layer figures replayed over the workload's own records (one
    /// tenant per entry) after the timed part: the serial ingest pass,
    /// the diagnoser's sub-kernels, the codec, batch diagnosis (unless
    /// measured in situ) and, for workloads that do not run it, the
    /// fleet service.
    fn replay_layers(
        &mut self,
        records: &[Vec<pio_trace::Record>],
        diag: &pio_ingest::DiagnoserConfig,
        layout: pio_fleetd::OstLayout,
        codec_block: usize,
        diagnose_in_situ: Option<f64>,
    ) {
        let (rows, diagnoser_ns) = replay::ingest(records, diag, layout);
        self.layers.extend(rows);
        self.layers
            .extend(replay::kernels(records, diag, diagnoser_ns));
        self.layers.extend(replay::codec(records, codec_block));
        self.layers.push(match diagnose_in_situ {
            Some(ns) => lm("core.diagnose_ns_per_record", ns, "ns", "in-situ"),
            None => lm(
                "core.diagnose_ns_per_record",
                replay::diagnose_ns(records),
                "ns",
                "replay",
            ),
        });
        if self.workload != Workload::FleetReplay {
            self.layers.extend(fleet::service_replay(records, layout));
        }
    }

    /// Collect the traced rounds' spans; returns the per-name totals.
    fn take_spans(&mut self) -> BTreeMap<&'static str, span::Totals> {
        let (totals, spans, dropped) = span::take();
        self.span_layers(&totals);
        self.spans = spans;
        self.spans_dropped = dropped;
        totals
    }

    /// Shares of the traced wall per layer, the residual, and the
    /// tracing overhead, from the traced rounds' spans.
    fn span_layers(&mut self, totals: &BTreeMap<&'static str, span::Totals>) {
        let wall = self.traced_wall_s;
        let self_s = |layer: &str| -> f64 {
            totals
                .iter()
                .filter(|(n, _)| n.split('.').next() == Some(layer))
                .map(|(_, t)| t.self_ns as f64 / 1e9)
                .fold(0.0, |a, b| a + b)
        };
        let mut covered = 0.0;
        for (layer, metric) in [
            ("mpi", "mpi.share"),
            ("core", "core.diagnose_share"),
            ("ingest", "ingest.share"),
            ("trace", "trace.share"),
            ("fleetd", "fleetd.share"),
        ] {
            let s = self_s(layer);
            covered += s;
            self.layers
                .push(lm(&format!("{layer}.self_s"), s, "s", "in-situ"));
            self.layers
                .push(lm(metric, ratio(s, wall), "share", "in-situ"));
        }
        self.layers
            .push(lm("residual_s", wall - covered, "s", "in-situ"));
        let (records, wall_s) = self.untraced_totals();
        self.layers.push(lm(
            "trace_overhead",
            ratio(
                ratio(records as f64, wall_s),
                ratio(self.traced_records as f64, self.traced_wall_s),
            ) - 1.0,
            "ratio",
            "in-situ",
        ));
    }

    fn verdict_layers(&mut self) {
        let t = &self.tally;
        let mut rows = vec![lm(
            "core.false_positive_rate",
            ratio(t.false_positives as f64, t.clean as f64),
            "share",
            "in-situ",
        )];
        for (c, (hit, n)) in &t.detect {
            rows.push(lm(
                &format!("core.detect_rate.{}", c.name()),
                ratio(*hit as f64, *n as f64),
                "share",
                "in-situ",
            ));
        }
        self.layers.extend(rows);
    }

    pub fn layer(&self, name: &str) -> Option<&LayerMetric> {
        self.layers.iter().find(|m| m.name == name)
    }
}

/// Untraced rounds are cut into windows of about this many seconds.
/// Each time figure is taken per window and the median over windows
/// reported, so a disturbance covering less than half the run does not
/// move it.
pub const WINDOW_S: f64 = 2.0;

/// A window's open segment of rounds is closed by a reading of the
/// host's slowdown after the first round that ends this many seconds or
/// more after the last reading, and when the window closes.
const CALIB_EVERY_S: f64 = 0.1;

/// One set-up repetition.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Wall seconds of the whole set-up.
    pub wall_s: f64,
    /// Wall seconds of it spent in the job builders.
    pub build_s: f64,
    /// The host's slowdown against the reference, read right after.
    pub slowdown: f64,
}

impl SetupTime {
    /// A set-up just timed; reads the host's slowdown now.
    pub(crate) fn measured(wall_s: f64, build_s: f64) -> Self {
        SetupTime {
            wall_s,
            build_s,
            slowdown: calib::slowdown(),
        }
    }
}

/// One window of untraced rounds. Its rounds are cut into segments,
/// each closed by a reading of the host's slowdown ([`calib::slowdown`]);
/// the mean of the readings that open and close a segment scales its
/// times to the reference speed.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub records: u64,
    /// Wall seconds, as timed and at the reference speed.
    pub wall_s: f64,
    pub ref_s: f64,
    /// Per-job latency in ms, as timed and at the reference speed.
    pub job_ms: Vec<f64>,
    pub job_ref_ms: Vec<f64>,
    /// The slowdown each segment was scaled by.
    pub slowdowns: Vec<f64>,
    /// Wall seconds of the open segment.
    segment_s: f64,
}

impl Window {
    /// Records per wall second, as timed.
    pub fn records_per_s(&self) -> f64 {
        ratio(self.records as f64, self.wall_s)
    }

    /// Records per second at the reference speed.
    pub fn records_per_ref_s(&self) -> f64 {
        ratio(self.records as f64, self.ref_s)
    }

    /// The host's slowdown against the reference, weighted by time.
    pub fn slowdown(&self) -> f64 {
        ratio(self.wall_s, self.ref_s)
    }

    /// Read the host's slowdown and scale the open segment by its mean
    /// with `opening`, the reading taken when the segment opened. Returns
    /// the new reading, which opens the next segment.
    fn close_segment(&mut self, opening: f64) -> f64 {
        let closing = calib::slowdown();
        let s = (opening + closing) / 2.0;
        self.ref_s += self.segment_s / s;
        self.segment_s = 0.0;
        let scaled = self.job_ref_ms.len();
        self.job_ref_ms
            .extend(self.job_ms[scaled..].iter().map(|ms| ms / s));
        self.slowdowns.push(s);
        closing
    }
}

/// The windows of untraced rounds, and the traced rounds' totals.
#[derive(Debug, Default)]
pub(crate) struct Timing {
    windows: Vec<Window>,
    traced_records: u64,
    traced_wall_s: f64,
}

/// Time rounds in windows until `p.seconds` of rounds have run and at
/// least `min_rounds` did. A window closes once it holds
/// `min(WINDOW_S, seconds / 10)` of untraced time and `window_jobs`
/// jobs; `between` runs after each window but the last, outside the
/// timing (the workloads re-time their set-up there, so set-up samples
/// spread over the run like the windows do). With tracing on, odd rounds
/// are traced. `round` gets the round index, whether it is traced, and
/// a buffer for per-job latencies in ms; it returns the records it
/// processed.
pub(crate) fn rounds(
    p: &Params,
    min_rounds: u64,
    window_jobs: usize,
    mut round: impl FnMut(u64, bool, &mut Vec<f64>) -> u64,
    mut between: impl FnMut(),
) -> Timing {
    let min_rounds = if p.trace {
        min_rounds.max(2)
    } else {
        min_rounds
    };
    let window_s = WINDOW_S.min(p.seconds / 10.0);
    let mut t = Timing::default();
    let mut jobs = Vec::new();
    let mut reading = calib::slowdown();
    let mut last_reading = Instant::now();
    let (mut k, mut elapsed) = (0u64, 0.0);
    loop {
        let mut w = Window::default();
        loop {
            let traced = p.trace && k % 2 == 1;
            span::set_enabled(traced);
            let t0 = Instant::now();
            let records = round(k, traced, &mut jobs);
            let dt = t0.elapsed().as_secs_f64();
            span::set_enabled(false);
            if traced {
                t.traced_records += records;
                t.traced_wall_s += dt;
                jobs.clear();
            } else {
                w.records += records;
                w.wall_s += dt;
                w.segment_s += dt;
                w.job_ms.append(&mut jobs);
            }
            elapsed += dt;
            k += 1;
            let traced_seen = !p.trace || t.traced_wall_s > 0.0;
            let full = w.wall_s > 0.0
                && w.wall_s >= window_s
                && w.job_ms.len() >= window_jobs
                && traced_seen;
            if full || last_reading.elapsed().as_secs_f64() >= CALIB_EVERY_S {
                reading = w.close_segment(reading);
                last_reading = Instant::now();
            }
            if full {
                break;
            }
        }
        t.windows.push(w);
        if k >= min_rounds && elapsed >= p.seconds {
            return t;
        }
        between();
    }
}

/// Simulator counters summed over runs, reported per job.
#[derive(Debug, Default)]
pub(crate) struct SimCounters {
    jobs: u64,
    records: u64,
    events: u64,
    data_rpcs: u64,
    meta_ops: u64,
    degraded_reads: u64,
    sync_writes: u64,
    lock_contended: u64,
    lock_revoked: u64,
    ost_switches: u64,
    ost_direction_switches: u64,
}

impl SimCounters {
    pub(crate) fn add(&mut self, r: &RunReport, records: u64) {
        self.jobs += 1;
        self.records += records;
        self.events += r.events;
        self.data_rpcs += r.stats.data_rpcs;
        self.meta_ops += r.stats.meta_ops;
        self.degraded_reads += r.stats.degraded_reads;
        self.sync_writes += r.stats.sync_writes;
        self.lock_contended += r.lock_stats.contended;
        self.lock_revoked += r.lock_stats.revoked;
        self.ost_switches += r.util.ost_switches.iter().sum::<u64>();
        self.ost_direction_switches += r.util.ost_direction_switches.iter().sum::<u64>();
    }

    /// Rows for the simulator layers, given the `Runner`'s self time
    /// over the same runs.
    pub(crate) fn rows(&self, runner_self_s: f64, source: &'static str) -> Vec<LayerMetric> {
        let per_job = |v: u64| ratio(v as f64, self.jobs as f64);
        vec![
            lm(
                "mpi.ns_per_event",
                ratio(runner_self_s * 1e9, self.events as f64),
                "ns",
                source,
            ),
            lm(
                "mpi.ns_per_record",
                ratio(runner_self_s * 1e9, self.records as f64),
                "ns",
                source,
            ),
            lm("des.events", per_job(self.events), "count/job", source),
            lm(
                "des.events_per_record",
                ratio(self.events as f64, self.records as f64),
                "count",
                source,
            ),
            lm("fs.data_rpcs", per_job(self.data_rpcs), "count/job", source),
            lm("fs.meta_ops", per_job(self.meta_ops), "count/job", source),
            lm(
                "fs.degraded_reads",
                per_job(self.degraded_reads),
                "count/job",
                source,
            ),
            lm(
                "fs.sync_writes",
                per_job(self.sync_writes),
                "count/job",
                source,
            ),
            lm(
                "fs.lock_contended",
                per_job(self.lock_contended),
                "count/job",
                source,
            ),
            lm(
                "fs.lock_revoked",
                per_job(self.lock_revoked),
                "count/job",
                source,
            ),
            lm(
                "fs.ost_switches",
                per_job(self.ost_switches),
                "count/job",
                source,
            ),
            lm(
                "fs.ost_direction_switches",
                per_job(self.ost_direction_switches),
                "count/job",
                source,
            ),
        ]
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The baseline verdict facts, regenerated: the `ior-paper` live-capture
/// miss at seed 1 (and how batch and replayed diagnosis see the same
/// records), `fault-sweep` misses at seeds 1-10, and `fleet-replay`
/// misses over 240 tenants at non-corpus seeds.
pub fn baseline_verdict_facts() -> Vec<String> {
    vec![
        ior::verdict_fact(1),
        sweep::verdict_fact(&(1..=10).collect::<Vec<_>>()),
        fleet::verdict_fact(&Seeds::Derived(1), 240),
    ]
}

/// Run one workload.
pub fn run(workload: Workload, seeds: &Seeds, p: &Params) -> Outcome {
    let mut out = match workload {
        Workload::IorPaper => ior::run(seeds, p),
        Workload::FaultSweep => sweep::run(seeds, p),
        Workload::FleetReplay => fleet::run(seeds, p),
    };
    out.layers
        .push(lm("workloads.build_s", out.build_median_s(), "s", "set-up"));
    if p.trace {
        out.verdict_layers();
    }
    out
}

/// End-to-end metrics a run reports, with units, in `BENCHMARK.json`
/// order. `fail_share` and `verdict_miss_share` are printed beside them
/// but not registered: both are 0 on good runs, and the share of failed
/// jobs is the result's `failed / attempted`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics the traced run reports on every workload, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 43] = [
    "mpi.share",
    "core.diagnose_share",
    "ingest.share",
    "trace.share",
    "fleetd.share",
    "residual_s",
    "trace_overhead",
    "mpi.ns_per_event",
    "mpi.ns_per_record",
    "des.events",
    "des.events_per_record",
    "fs.data_rpcs",
    "fs.meta_ops",
    "fs.degraded_reads",
    "fs.sync_writes",
    "fs.lock_contended",
    "fs.lock_revoked",
    "fs.ost_switches",
    "fs.ost_direction_switches",
    "core.diagnose_ns_per_record",
    "core.false_positive_rate",
    "core.tail_profile_ns",
    "core.windowed_profile_ns",
    "ingest.quantile_sketch_ns",
    "ingest.heavy_hitters_ns",
    "ingest.kernel_residual_ns",
    "ingest.tenant_setup_us",
    "ingest.diagnoser_ns_per_record",
    "ingest.snapshot_ns_per_record",
    "ingest.phase_end_us",
    "ingest.first_finding_after_records",
    "trace.decode_ns_per_record",
    "trace.encode_ns_per_record",
    "trace.bytes_per_record",
    "fleetd.push_ns_per_record",
    "fleetd.blocked_share",
    "fleetd.report_lag_ms",
    "fleetd.ledger_ns_per_record",
    "fleetd.rollup_ms",
    "fleetd.interference_ms",
    "fleetd.shutdown_s",
    "fleetd.shed",
    "workloads.build_s",
];

/// The end-to-end figures of a run: (name, value, unit). Time figures
/// are given at the reference host speed (see [`calib`]): every job,
/// segment of rounds and set-up is scaled by the host's slowdown read
/// beside it, before medians are taken.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let values = [
        o.setup_median_s().0,
        o.window_median(Window::records_per_ref_s),
        o.window_median(|w| median(&w.job_ref_ms)),
        o.window_median(|w| quantile(&w.job_ref_ms, 0.99)),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// The result line: the end-to-end figures, or with `trace` the
/// registered per-layer figures.
pub fn result_json(o: &Outcome, trace: bool) -> String {
    let metrics: Vec<(String, f64, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|&name| {
                let m = o.layer(name);
                (
                    name.to_string(),
                    m.map_or(0.0, |m| m.value),
                    m.map_or("count", |m| m.unit),
                )
            })
            .collect()
    } else {
        end_to_end(o)
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0 && o.tally.attempted > 0,
        o.tally.attempted.max(1),
        o.tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closing_a_segment_scales_only_its_own_time_and_jobs() {
        let mut w = Window {
            wall_s: 2.0,
            segment_s: 2.0,
            job_ms: vec![10.0, 20.0],
            ..Window::default()
        };
        let reading = w.close_segment(1.0);
        w.wall_s += 1.0;
        w.segment_s = 1.0;
        w.job_ms.push(30.0);
        w.close_segment(reading);
        let (a, b) = (w.slowdowns[0], w.slowdowns[1]);
        assert!(a > 0.0 && b > 0.0 && a.is_finite() && b.is_finite());
        assert_eq!(w.job_ref_ms, vec![10.0 / a, 20.0 / a, 30.0 / b]);
        assert!((w.ref_s - (2.0 / a + 1.0 / b)).abs() < 1e-12);
        assert_eq!(w.segment_s, 0.0);
    }
}
