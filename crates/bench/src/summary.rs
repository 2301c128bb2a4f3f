//! The perf-regression harness behind the `bench_summary` binary.
//!
//! Runs a fixed set of hot-path scenarios — event-queue churn, the IOR
//! simulation, one fault-matrix cell, batch diagnosis of the fault
//! matrix's traces, and the KDE/bootstrap statistics kernels — and
//! reports each as a machine-readable [`Metric`]
//! (ns/op and ops/sec), plus peak RSS. The binary serializes the result
//! to `BENCH_summary.json` so the performance trajectory of the repo is
//! comparable commit-to-commit.
//!
//! Scenario scales are fixed (they are part of the metric's identity);
//! timings take the best of several repetitions to shave scheduler
//! noise. All inputs are deterministic, so two runs on the same machine
//! measure the same work.

use crate::fault_matrix::{matrix_traces, run_cell, scenarios};
use pio_core::bootstrap::median_ci;
use pio_core::empirical::EmpiricalDist;
use pio_core::kde::Kde;
use pio_des::{EventQueue, SimTime};
use pio_fs::FsConfig;
use pio_mpi::{RunConfig, Runner};
use pio_trace::{CallKind, NullSink, Record, Trace, TraceFormat, TraceMeta};
use pio_workloads::IorConfig;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The metric the regression gate checks when `--gate` is not given
/// (CI's perf gate names it explicitly too).
pub const DEFAULT_GATE: &str = "fleetd/pipeline_serial_8x50k";

/// One measured scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    /// Stable scenario name (the trajectory key).
    pub name: String,
    /// What one "op" is for this scenario.
    pub unit: String,
    /// Operations per repetition.
    pub ops: u64,
    /// Best-of-reps wall time for one repetition, nanoseconds.
    pub wall_ns: u64,
    /// Nanoseconds per op (best repetition).
    pub ns_per_op: f64,
    /// Ops per second (best repetition).
    pub ops_per_sec: f64,
}

/// One on-disk size measurement (compression-trajectory key).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SizeMetric {
    /// Stable scenario name (the trajectory key).
    pub name: String,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// Records in the serialized trace.
    pub records: u64,
    /// Bytes per record.
    pub bytes_per_record: f64,
    /// How many times smaller than JSONL this encoding is (1.0 for JSONL
    /// itself; < 1.0 means larger).
    pub ratio_vs_jsonl: f64,
}

/// The whole summary: every metric plus process-level peak memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// Metrics in scenario order.
    pub metrics: Vec<Metric>,
    /// On-disk encoding sizes for the 1M-record ingest trace.
    pub sizes: Vec<SizeMetric>,
    /// Peak resident set size of this process, kilobytes (0 if unknown).
    pub peak_rss_kb: u64,
}

/// Time `scenario` `reps` times; it returns the op count per repetition.
fn measure(name: &str, unit: &str, reps: u32, mut scenario: impl FnMut() -> u64) -> Metric {
    assert!(reps >= 1);
    let mut best = u64::MAX;
    let mut ops = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        ops = scenario();
        let dt = t0.elapsed().as_nanos() as u64;
        best = best.min(dt.max(1));
    }
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        ops,
        wall_ns: best,
        ns_per_op: best as f64 / ops.max(1) as f64,
        ops_per_sec: ops as f64 / (best as f64 / 1e9),
    }
}

/// Deterministic tri-modal samples shaped like an IOR ensemble (the same
/// generator the criterion kernels use).
pub fn trimodal_samples(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let base = match i % 8 {
                0 => 8.0,
                1..=2 => 16.0,
                _ => 32.0,
            };
            base + (i % 97) as f64 * 0.01
        })
        .collect()
}

/// Event-queue churn: interleaved pushes and pops with a scattered time
/// key — the pure queue cost of the DES hot loop.
fn event_queue_churn() -> u64 {
    const N: u64 = 100_000;
    let mut q = EventQueue::new();
    for i in 0..N {
        q.push(SimTime(i * 7919 % 1_000_000), i);
    }
    let mut acc = 0u64;
    while let Some((_, e)) = q.pop() {
        acc = acc.wrapping_add(e);
    }
    black_box(acc);
    N
}

/// Near-future churn: the steady-state DES pattern — every pop schedules
/// a follow-up a short span ahead, so the working set stays small while
/// the event count is large.
fn event_queue_followups() -> u64 {
    const N: u64 = 200_000;
    let mut q = EventQueue::new();
    for i in 0..64u64 {
        q.push(SimTime(i * 131), i);
    }
    let mut processed = 0u64;
    while processed < N {
        let Some((t, e)) = q.pop() else { break };
        processed += 1;
        q.push(SimTime(t.nanos() + 1 + (e * 2654435761) % 10_000), e);
    }
    black_box(q.len());
    processed
}

/// The IOR simulation at 1/64 scale: events per second of real time.
fn ior_sim() -> u64 {
    let cfg = IorConfig {
        repetitions: 1,
        ..IorConfig::paper_fig1().scaled(64)
    };
    let job = cfg.job();
    let res = Runner::new(
        &job,
        RunConfig::new(FsConfig::franklin().scaled(64), 1, "bench_summary"),
    )
    .execute_one()
    .expect("ior run");
    res.events
}

/// One fault-matrix cell (slow-OST × read-heavy at 1/8 scale): the cost
/// of a full baseline + faulted + reproducibility check.
fn fault_matrix_cell() -> u64 {
    let s = scenarios(8).into_iter().next().expect("scenarios");
    let cell = run_cell(&s, 101);
    assert!(cell.pass(), "fault cell must pass while being timed");
    1
}

/// A plan of eight scheduled faults whose windows all closed before the
/// simulation starts doing I/O: every injector hook runs its time gate
/// on every event and must take the zero-envelope early-out each time.
fn expired_schedule_plan() -> pio_fault::FaultPlan {
    use pio_fault::{Fault, FaultPlan, FaultSchedule};
    let mut plan = FaultPlan::new();
    for i in 0..8usize {
        plan = plan.with_scheduled(
            Fault::SlowOst {
                ost: i,
                slowdown: 100.0,
                ramp_per_s: 0.0,
            },
            FaultSchedule::window(0.0, 0.0),
        );
    }
    plan
}

/// The schedule-overhead scenario's simulation: paper-scale Figure 1
/// IOR (~1M engine events), with or without a fault plan installed.
fn ior_sim_schedule_gate(fault: Option<pio_fault::FaultPlan>) -> pio_mpi::RunReport {
    let cfg = IorConfig {
        repetitions: 2,
        ..IorConfig::paper_fig1()
    };
    let job = cfg.job();
    let mut rc = RunConfig::new(FsConfig::franklin(), 1, "bench_summary");
    if let Some(plan) = fault {
        rc = rc.with_fault(plan);
    }
    Runner::new(&job, rc).execute_one().expect("ior run")
}

/// The schedule-gate overhead check behind `fault/schedule_overhead_1m`:
/// the expired-schedule run must be bit-identical to the clean one (the
/// inertness guarantee), and its best-of-reps wall time at most
/// `tolerance_pct` percent above the clean run's. Returns the scheduled
/// run's metric (renamed to the gate's key) or panics with the
/// violation — a silent slow-down of the simulator hot loop is exactly
/// what this metric exists to catch.
fn schedule_overhead_metric(reps: u32, tolerance_pct: f64) -> Metric {
    let scheduled = ior_sim_schedule_gate(Some(expired_schedule_plan()));
    let clean = ior_sim_schedule_gate(None);
    assert_eq!(
        scheduled.trace().records,
        clean.trace().records,
        "expired schedules must be bit-inert"
    );
    assert_eq!(scheduled.events, clean.events);
    drop((scheduled, clean));

    // Interleave clean and scheduled repetitions so both sides see the
    // same thermal/frequency conditions; a serial block-of-reps layout
    // lets machine drift masquerade as schedule overhead.
    let mut best_clean = u64::MAX;
    let mut best_sched = u64::MAX;
    let mut ops = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        ops = ior_sim_schedule_gate(None).events;
        best_clean = best_clean.min((t0.elapsed().as_nanos() as u64).max(1));
        let t0 = Instant::now();
        let sched_ops = ior_sim_schedule_gate(Some(expired_schedule_plan())).events;
        best_sched = best_sched.min((t0.elapsed().as_nanos() as u64).max(1));
        assert_eq!(sched_ops, ops);
    }
    let clean_ns = best_clean as f64 / ops.max(1) as f64;
    let sched_ns = best_sched as f64 / ops.max(1) as f64;
    let overhead_pct = (sched_ns - clean_ns) / clean_ns * 100.0;
    assert!(
        overhead_pct <= tolerance_pct,
        "schedule gate overhead {overhead_pct:.1}% exceeds {tolerance_pct:.0}% \
         ({sched_ns:.1} ns/event scheduled vs {clean_ns:.1} clean)",
    );
    Metric {
        name: "fault/schedule_overhead_1m".to_string(),
        unit: format!("event (+{overhead_pct:.1}% vs clean)"),
        ops,
        wall_ns: best_sched,
        ns_per_op: sched_ns,
        ops_per_sec: ops as f64 / (best_sched as f64 / 1e9),
    }
}

/// Fleet-service ingest throughput: 8 synthetic tenants streamed
/// concurrently (one feeder thread each) into a 4-worker `pio-fleetd`
/// service with unlimited budget; ops = records the service admitted
/// across all tenants, verified against the machine roll-up.
fn fleetd_ingest(trace: &Trace) -> u64 {
    use pio_fleetd::{FleetConfig, FleetService, JobSink};
    use pio_trace::RecordSink;
    const JOBS: usize = 8;
    let mut svc = FleetService::new(FleetConfig {
        workers: 4,
        ..FleetConfig::default()
    });
    let sinks: Vec<JobSink> = (0..JOBS)
        .map(|j| svc.register(&format!("bench-{j}")))
        .collect();
    pio_des::par::map_claimed(sinks, JOBS, |mut sink| {
        // Decoder-sized blocks, as `TraceFormat::stream` delivers them.
        for chunk in trace.records.chunks(512) {
            sink.push_block(chunk);
        }
        sink.finish();
    });
    svc.shutdown();
    let total = svc.rollup().ingested;
    assert_eq!(total, (JOBS * trace.records.len()) as u64);
    total
}

/// The analytical pipeline of one fleet tenant — stream diagnoser (with
/// the ensemble-snapshot sketch it owns), per-OST usage ledger, top-k
/// slow-op tracking — run serially over the same 8×50k record load as
/// `fleetd/ingest_8x50k_pool4`, with no threads, channels, record
/// clones, or map locks. Records flow in service-sized blocks (the
/// fleet worker's batch of 256) through the columnar `push_block`
/// kernel, exactly as `TenantState::ingest_block` drives it. The delta
/// between the two metrics is the service's transport cost; this one is
/// the analysis floor a fleet worker must pay per admitted record.
fn fleetd_pipeline_serial(trace: &Trace) -> u64 {
    use pio_fleetd::{OstLayout, OstUsage};
    use pio_ingest::StreamDiagnoser;
    use pio_trace::RecordSink;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    const JOBS: usize = 8;
    const TOP_K: usize = 8;
    const BATCH: usize = 256;
    let layout = OstLayout::new(1 << 20, 48, 0);
    let mut total = 0u64;
    for _ in 0..JOBS {
        let mut diagnoser = StreamDiagnoser::new(pio_ingest::DiagnoserConfig::default());
        let mut ost = OstUsage::new(48);
        // Positive-f64 bit patterns order like the floats themselves.
        let mut slow: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        for chunk in trace.records.chunks(BATCH) {
            diagnoser.push_block(chunk);
            for r in chunk {
                if matches!(r.call, CallKind::Read | CallKind::Write) {
                    ost.add(layout.ost_of(r.offset), r.secs());
                }
                let key = r.secs().to_bits();
                if slow.len() < TOP_K {
                    slow.push(Reverse(key));
                } else if let Some(&Reverse(min)) = slow.peek() {
                    if key > min {
                        slow.pop();
                        slow.push(Reverse(key));
                    }
                }
                total += 1;
            }
        }
        diagnoser.finish();
        black_box((diagnoser, ost, slow));
    }
    total
}

/// A deterministic MADbench-shaped trace for the parse-throughput
/// metrics (same generator shape as the criterion ingest bench).
pub fn ingest_trace(n: usize) -> Trace {
    let mut t = Trace::new(TraceMeta {
        experiment: "bench_summary".into(),
        platform: "synthetic".into(),
        ranks: 64,
        seed: 0,
    });
    for i in 0..n {
        let call = match i % 4 {
            0 | 1 => CallKind::Read,
            2 => CallKind::Write,
            _ => CallKind::MetaWrite,
        };
        let dur = if i % 97 == 0 {
            5.0 + (i % 13) as f64
        } else {
            0.01 + (i % 31) as f64 * 0.002
        };
        t.push(Record {
            rank: (i % 64) as u32,
            call,
            fd: 3,
            offset: (i as u64) << 20,
            bytes: 1 << 20,
            start_ns: i as u64 * 1000,
            end_ns: i as u64 * 1000 + (dur * 1e9) as u64,
            phase: (i / (n / 8).max(1)) as u32,
        });
    }
    t
}

/// The pre-fast-path JSONL loop (`serde_json` on every line) — kept as
/// the in-file baseline the `ingest/parse_jsonl_1m` speedup is measured
/// against.
fn parse_jsonl_serde(bytes: &[u8]) -> u64 {
    use std::io::BufRead;
    let mut lines = bytes.lines();
    let meta: TraceMeta =
        serde_json::from_str(&lines.next().expect("meta line").expect("meta read"))
            .expect("meta parse");
    black_box(meta);
    let mut n = 0u64;
    for line in lines {
        let line = line.expect("line read");
        if line.trim().is_empty() {
            continue;
        }
        let rec: Record = serde_json::from_str(&line).expect("record parse");
        black_box(&rec);
        n += 1;
    }
    n
}

/// All scenarios, measured with per-metric default repetition counts.
pub fn run_all() -> BenchSummary {
    run_all_with(None)
}

/// [`run_all`] with every metric's repetition count overridden by
/// `reps` (best-of-reps is reported either way; more reps means more
/// robustness against scheduler noise at linear cost).
pub fn run_all_with(reps: Option<u32>) -> BenchSummary {
    run_filtered(reps, &[])
}

/// [`run_all_with`] restricted to metrics whose name starts with any of
/// the `only` prefixes (empty = everything). Whole sections are skipped
/// when nothing in them matches, so a `--only fleetd` run does not pay
/// for building and encoding the 1M-record parse trace.
pub fn run_filtered(reps: Option<u32>, only: &[String]) -> BenchSummary {
    let r = |default: u32| reps.unwrap_or(default).max(1);
    let want = |name: &str| only.is_empty() || only.iter().any(|p| name.starts_with(p.as_str()));
    let mut metrics: Vec<Metric> = Vec::new();
    let mut sizes: Vec<SizeMetric> = Vec::new();

    if want("des/event_queue_churn_100k") {
        metrics.push(measure(
            "des/event_queue_churn_100k",
            "event",
            r(5),
            event_queue_churn,
        ));
    }
    if want("des/event_queue_followups_200k") {
        metrics.push(measure(
            "des/event_queue_followups_200k",
            "event",
            r(5),
            event_queue_followups,
        ));
    }
    // Whole-simulation throughput; ops = engine events.
    if want("sim/ior_scale64") {
        metrics.push(measure("sim/ior_scale64", "event", r(3), ior_sim));
    }
    if want("sim/fault_matrix_cell_scale8") {
        metrics.push(measure(
            "sim/fault_matrix_cell_scale8",
            "cell",
            r(1),
            fault_matrix_cell,
        ));
    }
    // Schedule-gate overhead: the same sim as sim/ior_scale64 but with
    // eight expired scheduled faults installed. Bit-inertness and the
    // <5% wall-clock ceiling are asserted inside, not just reported.
    if want("fault/schedule_overhead_1m") {
        metrics.push(schedule_overhead_metric(r(3), 5.0));
    }

    // Batch diagnosis (every detector over one buffered trace) of the
    // fault matrix's traces at scale 16 (9 cells x 2 seeds x baseline/
    // faulted = 36); ops = records. The traces are simulated before
    // timing, so only `diagnose` is measured.
    if want("core/diagnose_fault_matrix_scale16") {
        let traces = matrix_traces(16, &[101, 202]);
        let records: u64 = traces.iter().map(|t| t.records.len() as u64).sum();
        metrics.push(measure(
            "core/diagnose_fault_matrix_scale16",
            "record",
            r(5),
            || {
                for t in &traces {
                    black_box(pio_core::diagnose(t));
                }
                records
            },
        ));
    }

    // Statistics kernels.
    if want("stats/kde_grid_512_n100k") {
        let data = trimodal_samples(100_000);
        let dist = EmpiricalDist::new(&data);
        let kde = Kde::new(&dist);
        metrics.push(measure(
            "stats/kde_grid_512_n100k",
            "grid-point",
            r(3),
            || black_box(kde.grid(512)).len() as u64,
        ));
    }
    // Exact-path reference at a size the binned path normally handles —
    // the denominator of the binned speedup.
    if want("stats/kde_grid_exact_512_n10k") {
        let exact_ref = EmpiricalDist::new(&trimodal_samples(10_000));
        let kde_exact = Kde::new(&exact_ref);
        metrics.push(measure(
            "stats/kde_grid_exact_512_n10k",
            "grid-point",
            r(3),
            || black_box(kde_exact.grid_exact(512)).len() as u64,
        ));
    }
    if want("stats/bootstrap_median_200x_n10k") {
        let small = EmpiricalDist::new(&trimodal_samples(10_000));
        metrics.push(measure(
            "stats/bootstrap_median_200x_n10k",
            "resample",
            r(3),
            || {
                black_box(median_ci(&small, 200, 0.95, 42));
                200
            },
        ));
    }

    // The columnar sketch kernel in isolation: 1M durations through
    // `QuantileSketch::add_block` with a prebuilt bin table — the
    // per-sample floor of the batched binning (no log2, no dispatch).
    if want("ingest/sketch_block_1m") {
        use pio_core::attribution::{FINE_HIST_BINS, TAIL_HIST_HI, TAIL_HIST_LO};
        use pio_des::hist::{BinTable, LogBins};
        use pio_ingest::QuantileSketch;
        let durs: Vec<f64> = (0..1_000_000)
            .map(|i| {
                if i % 97 == 0 {
                    5.0 + (i % 13) as f64
                } else {
                    0.01 + (i % 31) as f64 * 0.002
                }
            })
            .collect();
        let table = BinTable::new(LogBins::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS));
        metrics.push(measure("ingest/sketch_block_1m", "sample", r(3), || {
            let mut s = QuantileSketch::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS);
            s.add_block(&durs, &table);
            black_box(s.count());
            durs.len() as u64
        }));
    }

    // Trace-plane parse throughput: the same 1M-record trace through
    // the serde baseline, the fast JSONL scanner, and the binary ptb2
    // block decoder. The trace itself is dropped before timing so only
    // the serialized bytes stay resident.
    let parse_metrics = [
        "ingest/parse_jsonl_serde_1m",
        "ingest/parse_jsonl_1m",
        "ingest/parse_ptb2_1m",
    ];
    let size_metrics = ["size/jsonl_1m", "size/ptb2_1m"];
    if parse_metrics.iter().chain(&size_metrics).any(|n| want(n)) {
        let (jsonl_bytes, ptb2_bytes) = {
            let trace = ingest_trace(1_000_000);
            let mut jsonl = Vec::new();
            pio_trace::io::write_jsonl(&trace, &mut jsonl).expect("jsonl encode");
            let mut ptb2 = Vec::new();
            pio_trace::ptb2::write_ptb2(&trace, &mut ptb2).expect("ptb2 encode");
            (jsonl, ptb2)
        };
        let n_records = 1_000_000u64;
        let size = |name: &str, bytes: &[u8]| SizeMetric {
            name: name.to_string(),
            bytes: bytes.len() as u64,
            records: n_records,
            bytes_per_record: bytes.len() as f64 / n_records as f64,
            ratio_vs_jsonl: jsonl_bytes.len() as f64 / bytes.len() as f64,
        };
        for (name, bytes) in [
            ("size/jsonl_1m", &jsonl_bytes),
            ("size/ptb2_1m", &ptb2_bytes),
        ] {
            if want(name) {
                sizes.push(size(name, bytes));
            }
        }
        if want("ingest/parse_jsonl_serde_1m") {
            metrics.push(measure(
                "ingest/parse_jsonl_serde_1m",
                "record",
                r(2),
                || parse_jsonl_serde(&jsonl_bytes),
            ));
        }
        if want("ingest/parse_jsonl_1m") {
            metrics.push(measure("ingest/parse_jsonl_1m", "record", r(2), || {
                let mut sink = NullSink;
                let (meta, n) = TraceFormat::Jsonl
                    .stream(&jsonl_bytes[..], &mut sink)
                    .expect("jsonl stream");
                black_box(meta);
                n
            }));
        }
        if want("ingest/parse_ptb2_1m") {
            metrics.push(measure("ingest/parse_ptb2_1m", "record", r(2), || {
                let mut sink = NullSink;
                let (meta, n) = TraceFormat::Ptb2
                    .stream(&ptb2_bytes[..], &mut sink)
                    .expect("ptb2 stream");
                black_box(meta);
                n
            }));
        }
    }

    // Fleet-service ingest: end-to-end record throughput of the
    // multi-tenant diagnosis service (sketches + diagnoser + budgets).
    if want("fleetd/ingest_8x50k_pool4") || want("fleetd/pipeline_serial_8x50k") {
        let fleet_trace = ingest_trace(50_000);
        if want("fleetd/ingest_8x50k_pool4") {
            metrics.push(measure("fleetd/ingest_8x50k_pool4", "record", r(2), || {
                fleetd_ingest(&fleet_trace)
            }));
        }
        if want("fleetd/pipeline_serial_8x50k") {
            metrics.push(measure(
                "fleetd/pipeline_serial_8x50k",
                "record",
                r(2),
                || fleetd_pipeline_serial(&fleet_trace),
            ));
        }
    }

    BenchSummary {
        schema: "pio-bench/summary/v2".to_string(),
        metrics,
        sizes,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Read a saved summary, the regression gate's `--baseline`. A missing
/// or unparseable file is an error; the message does not name the
/// path, which the caller prints.
pub fn load_baseline(path: &Path) -> Result<BenchSummary, String> {
    let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&json).map_err(|e| e.to_string())
}

/// Compare `fresh` against `baseline` on the `gates` metric names:
/// returns one human-readable failure line per gate whose `ns_per_op`
/// regressed by more than `tolerance_pct` percent (or was not measured
/// at all). Gates absent from the baseline pass — a metric's first
/// commit has nothing to regress against.
pub fn gate_regressions(
    baseline: &BenchSummary,
    fresh: &BenchSummary,
    gates: &[String],
    tolerance_pct: f64,
) -> Vec<String> {
    let find = |s: &BenchSummary, name: &str| {
        s.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.ns_per_op)
    };
    let mut failures = Vec::new();
    for gate in gates {
        let Some(base) = find(baseline, gate) else {
            continue;
        };
        let Some(new) = find(fresh, gate) else {
            failures.push(format!("{gate}: gated but not measured in this run"));
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        let pct = (new - base) / base * 100.0;
        if pct > tolerance_pct {
            failures.push(format!(
                "{gate}: {new:.1} ns/op vs baseline {base:.1} (+{pct:.1}%, tolerance {tolerance_pct:.0}%)"
            ));
        }
    }
    failures
}

/// Peak RSS (VmHWM) from `/proc/self/status`; 0 when unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Render the summary as an aligned human-readable table.
pub fn render(s: &BenchSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36} {:>12} {:>14} {:>16}",
        "scenario", "ops", "ns/op", "ops/sec"
    );
    for m in &s.metrics {
        let _ = writeln!(
            out,
            "{:<36} {:>12} {:>14.1} {:>16.0}",
            m.name, m.ops, m.ns_per_op, m.ops_per_sec
        );
    }
    if !s.sizes.is_empty() {
        let _ = writeln!(
            out,
            "{:<36} {:>12} {:>14} {:>16}",
            "encoding", "bytes", "bytes/record", "vs jsonl"
        );
        for z in &s.sizes {
            let _ = writeln!(
                out,
                "{:<36} {:>12} {:>14.1} {:>15.2}x",
                z.name, z.bytes, z.bytes_per_record, z.ratio_vs_jsonl
            );
        }
    }
    let _ = writeln!(out, "peak RSS: {} kB", s.peak_rss_kb);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_consistent_rates() {
        let m = measure("test/noop", "op", 3, || {
            black_box((0..1000u64).sum::<u64>());
            1000
        });
        assert_eq!(m.ops, 1000);
        assert!(m.wall_ns >= 1);
        assert!((m.ns_per_op - m.wall_ns as f64 / 1000.0).abs() < 1e-9);
        assert!(m.ops_per_sec > 0.0);
    }

    #[test]
    fn filter_restricts_to_matching_prefixes() {
        let s = run_filtered(Some(1), &["des/".to_string()]);
        assert_eq!(s.metrics.len(), 2);
        assert!(s.metrics.iter().all(|m| m.name.starts_with("des/")));
        assert!(s.sizes.is_empty());
        // A full metric name is also a valid prefix.
        let s = run_filtered(Some(1), &["des/event_queue_churn_100k".to_string()]);
        assert_eq!(s.metrics.len(), 1);
        assert_eq!(s.metrics[0].name, "des/event_queue_churn_100k");
    }

    #[test]
    fn gate_flags_regressions_misses_and_new_metrics() {
        let m = |name: &str, ns: f64| Metric {
            name: name.into(),
            unit: "op".into(),
            ops: 1,
            wall_ns: ns as u64,
            ns_per_op: ns,
            ops_per_sec: 1e9 / ns,
        };
        let summary = |ms: Vec<Metric>| BenchSummary {
            schema: "pio-bench/summary/v2".into(),
            metrics: ms,
            sizes: vec![],
            peak_rss_kb: 0,
        };
        let base = summary(vec![m("a", 100.0), m("b", 100.0)]);
        let gates: Vec<String> = vec!["a".into(), "b".into(), "c".into()];

        // Within tolerance, and "c" absent from the baseline: all pass.
        let ok = summary(vec![m("a", 120.0), m("b", 90.0), m("c", 1.0)]);
        assert!(gate_regressions(&base, &ok, &gates, 25.0).is_empty());

        // "a" regresses past tolerance; "b" gated but not measured.
        let bad = summary(vec![m("a", 130.0)]);
        let failures = gate_regressions(&base, &bad, &gates, 25.0);
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("a:") && failures[0].contains("+30.0%"));
        assert!(failures[1].contains("not measured"));
    }

    /// The committed summary loads as a baseline and carries the
    /// default gate metric, so a schema change fails here rather than at
    /// the end of CI's perf job.
    #[test]
    fn committed_summary_loads_as_a_baseline_with_the_default_gate() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_summary.json");
        let base = load_baseline(&path).expect("BENCH_summary.json loads");
        assert!(
            base.metrics.iter().any(|m| m.name == DEFAULT_GATE),
            "{DEFAULT_GATE} missing from {}",
            path.display()
        );
    }

    #[test]
    fn summary_serializes_with_schema() {
        let s = BenchSummary {
            schema: "pio-bench/summary/v2".into(),
            metrics: vec![measure("a", "op", 1, || 1)],
            sizes: vec![SizeMetric {
                name: "size/x".into(),
                bytes: 450,
                records: 10,
                bytes_per_record: 45.0,
                ratio_vs_jsonl: 1.0,
            }],
            peak_rss_kb: peak_rss_kb(),
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("pio-bench/summary/v2"));
        assert!(json.contains("ns_per_op"));
        assert!(json.contains("ratio_vs_jsonl"));
        assert!(!render(&s).is_empty());
    }
}
