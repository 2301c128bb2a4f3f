//! `fleet-replay`: the analysis plane alone. Set-up simulates distinct
//! tenants from the fleet's job mix and encodes each to ptb2; the timed
//! part replays them, each several times as a new tenant, through a
//! 2-worker `FleetService` from one feeder thread.

use crate::span::{self, span};
use crate::{
    lm, median, ratio, replay, rounds, Expected, LayerMetric, Outcome, Params, Seeds, SetupTime,
    SimCounters, Tally, Workload,
};
use pio_fleetd::{fleet_config, fleet_spec, FleetService, JobId, JobSink, OstLayout, SimConfig};
use pio_mpi::{RunConfig, Runner};
use pio_trace::codec::PhaseTracker;
use pio_trace::ptb2::read_ptb2;
use pio_trace::{Ptb2BlockReader, Record, Trace, TraceMeta};
use std::time::Instant;

/// Set-up repetitions before the first window; one more runs after
/// each window.
const SETUP_REPS: usize = 2;

/// A block push slower than this waited for a worker: an unblocked push
/// copies one block into the sink and enqueues it in a few µs, while a
/// worker takes tens of µs to drain a block.
const BLOCKED_NS: u64 = 20_000;

/// One distinct tenant, encoded.
pub(crate) struct Tenant {
    pub name: String,
    pub bytes: Vec<u8>,
    pub records: u64,
    pub expected: Expected,
    pub layout: OstLayout,
}

/// What the service did over one or more sessions.
#[derive(Debug, Default)]
pub(crate) struct ServiceStats {
    pub records: u64,
    /// First block pushed → `report` returned, per tenant.
    pub latency_ms: Vec<f64>,
    /// End of stream sent → `report` returned, per tenant.
    pub lag_ms: Vec<f64>,
    pub pushes: u64,
    pub blocked: u64,
    pub push_ns: u64,
    pub shutdown_s: Vec<f64>,
    pub rollup_ms: Vec<f64>,
    pub interference_ms: Vec<f64>,
    pub shed: u64,
}

impl ServiceStats {
    pub(crate) fn rows(&self, source: &'static str) -> Vec<LayerMetric> {
        vec![
            lm(
                "fleetd.push_ns_per_record",
                ratio(self.push_ns as f64, self.records as f64),
                "ns",
                source,
            ),
            lm(
                "fleetd.blocked_share",
                ratio(self.blocked as f64, self.pushes as f64),
                "share",
                source,
            ),
            lm("fleetd.report_lag_ms", median(&self.lag_ms), "ms", source),
            lm("fleetd.rollup_ms", median(&self.rollup_ms), "ms", source),
            lm(
                "fleetd.interference_ms",
                median(&self.interference_ms),
                "ms",
                source,
            ),
            lm("fleetd.shutdown_s", median(&self.shutdown_s), "s", source),
            lm("fleetd.shed", self.shed as f64, "count", source),
        ]
    }
}

struct Live<'t> {
    tenant: usize,
    job: u64,
    reader: Ptb2BlockReader<&'t [u8]>,
    tracker: PhaseTracker,
    sink: JobSink,
    first: Option<Instant>,
    fed: u64,
}

struct Waiting {
    tenant: usize,
    job: u64,
    id: JobId,
    first: Instant,
    finished: Instant,
    fed: u64,
}

/// One service lifetime: start a 2-worker service, replay `count`
/// tenants starting at `tenants[first]` (cycling), `live` at a time,
/// interleaved one block each, then shut down, roll up and query the
/// interference view. Every tenant is checked and its verdict tallied.
/// A service keeps every completed report, so a run is cut into
/// lifetimes of `count` tenants to keep its memory bounded.
pub(crate) fn session(
    tenants: &[Tenant],
    first: usize,
    count: usize,
    live_max: usize,
    job_base: u64,
    tally: &mut Tally,
    stats: &mut ServiceStats,
) {
    let mut svc = FleetService::new(fleet_config(2, 0));
    let mut issued = 0usize;
    let mut live: Vec<Live> = Vec::with_capacity(live_max);
    let mut waiting: Vec<Waiting> = Vec::new();
    let mut fed_total = 0u64;
    loop {
        while live.len() < live_max && issued < count {
            let tenant = (first + issued) % tenants.len();
            let job = job_base + issued as u64;
            issued += 1;
            let t = &tenants[tenant];
            let name = format!("{}#{job}", t.name);
            let sink = span("fleetd.register", job, || {
                svc.register_with_layout(&name, t.layout)
            });
            match Ptb2BlockReader::new(&t.bytes[..]) {
                Ok(reader) => live.push(Live {
                    tenant,
                    job,
                    reader,
                    tracker: PhaseTracker::new(),
                    sink,
                    first: None,
                    fed: 0,
                }),
                Err(e) => {
                    tally.attempted += 1;
                    tally.fail(format!("{name}: ptb2 header: {e}"));
                }
            }
        }
        if live.is_empty() && waiting.is_empty() {
            break;
        }
        let mut i = 0;
        while i < live.len() {
            let l = &mut live[i];
            let decode = span::enter("trace.decode", l.job);
            let next = l.reader.next_block();
            drop(decode);
            match next {
                Ok(Some(block)) => {
                    let n = block.len() as u64;
                    let t0 = Instant::now();
                    l.first.get_or_insert(t0);
                    let push = span::enter("fleetd.push", l.job);
                    l.tracker.on_block(block, &mut l.sink);
                    drop(push);
                    let ns = t0.elapsed().as_nanos() as u64;
                    stats.pushes += 1;
                    stats.push_ns += ns;
                    stats.blocked += u64::from(ns >= BLOCKED_NS);
                    l.fed += n;
                    i += 1;
                }
                Ok(None) => {
                    let push = span::enter("fleetd.push", l.job);
                    l.tracker.finish(&mut l.sink);
                    drop(push);
                    let done = live.swap_remove(i);
                    waiting.push(Waiting {
                        tenant: done.tenant,
                        job: done.job,
                        id: done.sink.id(),
                        first: done.first.unwrap_or_else(Instant::now),
                        finished: Instant::now(),
                        fed: done.fed,
                    });
                }
                Err(e) => {
                    tally.attempted += 1;
                    tally.fail(format!("{}: ptb2 decode: {e}", tenants[l.tenant].name));
                    live.swap_remove(i);
                }
            }
        }
        waiting.retain(|w| {
            let Some(report) = span("fleetd.report", w.job, || svc.report(w.id)) else {
                return true;
            };
            let now = Instant::now();
            stats.latency_ms.push((now - w.first).as_secs_f64() * 1e3);
            stats.lag_ms.push((now - w.finished).as_secs_f64() * 1e3);
            let t = &tenants[w.tenant];
            tally.attempted += 1;
            if report.ingested != w.fed || w.fed != t.records || report.shed != 0 {
                tally.fail(format!(
                    "{}: fed {} of {} records, service ingested {} and shed {}",
                    t.name, w.fed, t.records, report.ingested, report.shed
                ));
            }
            stats.shed += report.shed;
            stats.records += w.fed;
            fed_total += w.fed;
            let verdict = span("fleetd.verdict", w.job, || report.verdict());
            tally.verdict(&t.name, &t.expected, &verdict);
            false
        });
        if live.is_empty() && !waiting.is_empty() {
            // Nothing left to feed: leave the cores to the workers (the
            // feeder and two workers may outnumber the cores) while the
            // last reports are filed.
            std::thread::sleep(std::time::Duration::from_micros(20));
        }
    }
    let t0 = Instant::now();
    span("fleetd.shutdown", job_base, || svc.shutdown());
    stats.shutdown_s.push(t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let rollup = span("fleetd.rollup", job_base, || svc.rollup());
    stats.rollup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    if rollup.ingested != fed_total {
        tally.fail(format!(
            "roll-up ingested {} records, tenants were fed {fed_total}",
            rollup.ingested
        ));
    }
    let t0 = Instant::now();
    span("fleetd.interference", job_base, || svc.interference());
    stats.interference_ms.push(t0.elapsed().as_secs_f64() * 1e3);
}

pub(crate) fn run(seeds: &Seeds, p: &Params) -> Outcome {
    let mut out = Outcome::new(Workload::FleetReplay, seeds, "1 feeder + 2 service workers");
    // Distinct tenants, tenants per service lifetime, tenants live at once.
    let (distinct, per_session, live) = if p.tiny { (10, 20, 4) } else { (240, 512, 16) };
    let faulted = distinct * 2 / 5;

    let mut built = None;
    for _ in 0..SETUP_REPS {
        let b = setup(seeds, distinct, faulted);
        out.setups.push(SetupTime::measured(b.total_s, b.build_s));
        built = Some(b);
    }
    let Setup {
        tenants,
        sim,
        sim_s,
        encode_s,
        failures,
        ..
    } = built.expect("set-up ran");
    for f in failures {
        out.tally.attempted += 1;
        out.tally.fail(f);
    }
    out.seeds_used = (0..distinct as u64).map(|i| seeds.job(i)).collect();
    if tenants.is_empty() {
        return out;
    }

    let mut traced_stats = ServiceStats::default();
    let (min_sessions, window_jobs) = if p.tiny {
        (1, 0)
    } else {
        (1000u64.div_ceil(per_session as u64), 1000)
    };
    let (tally, setups) = (&mut out.tally, &mut out.setups);
    let round = |k: u64, traced: bool, job_ms: &mut Vec<f64>| {
        let mut untraced = ServiceStats::default();
        let stats = if traced {
            &mut traced_stats
        } else {
            &mut untraced
        };
        let before = stats.records;
        let first = (k as usize * per_session) % tenants.len();
        session(
            &tenants,
            first,
            per_session,
            live,
            k * per_session as u64,
            tally,
            stats,
        );
        let records = stats.records - before;
        job_ms.extend_from_slice(&untraced.latency_ms);
        records
    };
    let timing = rounds(p, min_sessions, window_jobs, round, || {
        let b = setup(seeds, distinct, faulted);
        setups.push(SetupTime::measured(b.total_s, b.build_s));
    });
    out.set_timing(timing);
    out.notes.push(format!(
        "tenants: {} distinct ({faulted} faulted), replayed {per_session} per service lifetime, {live} live",
        tenants.len()
    ));

    if p.trace {
        out.take_spans();
        let records: u64 = tenants.iter().map(|t| t.records).sum();
        out.layers.extend(sim.rows(sim_s, "set-up"));
        out.layers.push(lm(
            "trace.setup_encode_ns_per_record",
            ratio(encode_s * 1e9, records as f64),
            "ns",
            "set-up",
        ));
        out.layers.extend(traced_stats.rows("in-situ"));
        let decoded: Vec<Vec<Record>> = tenants
            .iter()
            .filter_map(|t| read_ptb2(&t.bytes[..]).ok().map(|t| t.records))
            .collect();
        out.replay_layers(
            &decoded,
            &fleet_config(2, 0).diagnoser,
            tenants[0].layout,
            replay::BLOCK,
            None,
        );
    }
    out
}

/// The set-up's product: distinct tenants, encoded, and what it cost.
struct Setup {
    tenants: Vec<Tenant>,
    sim: SimCounters,
    /// Seconds simulating, encoding, building job specs, and in all.
    sim_s: f64,
    encode_s: f64,
    build_s: f64,
    total_s: f64,
    /// Tenants that failed to simulate or encode.
    failures: Vec<String>,
}

/// Simulate `distinct` tenants of the fleet's job mix (`faulted` of them
/// under fault plans) at derived seeds, and encode each as ptb2.
fn setup(seeds: &Seeds, distinct: usize, faulted: usize) -> Setup {
    let t0 = Instant::now();
    let mut spec = fleet_spec(&SimConfig {
        jobs: distinct,
        faulted,
        scale: 16,
    });
    let build_s = t0.elapsed().as_secs_f64();
    for (i, s) in spec.iter_mut().enumerate() {
        s.seed = seeds.job(i as u64);
    }
    let mut out = Setup {
        tenants: Vec::with_capacity(spec.len()),
        sim: SimCounters::default(),
        sim_s: 0.0,
        encode_s: 0.0,
        build_s,
        total_s: 0.0,
        failures: Vec::new(),
    };
    for s in &spec {
        let ts = Instant::now();
        let mut cfg = RunConfig::new(s.fs.clone(), s.seed, s.name.clone());
        if let Some(plan) = &s.plan {
            cfg = cfg.with_fault(plan.clone());
        }
        let mut trace = Trace::new(TraceMeta {
            experiment: s.name.clone(),
            platform: s.fs.name.clone(),
            ranks: s.job.ranks(),
            seed: s.seed,
        });
        let report = Runner::new(&s.job, cfg).sink(&mut trace).execute_one();
        // Corpus arrival order, as `pio_fleetd::simulate` orders it.
        trace.records.sort_by_key(|r| (r.start_ns, r.rank));
        out.sim_s += ts.elapsed().as_secs_f64();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.failures
                    .push(format!("set-up {} seed {}: {e}", s.name, s.seed));
                continue;
            }
        };
        out.sim.add(&report, trace.records.len() as u64);
        let te = Instant::now();
        let bytes = replay::encode(&trace.meta, &trace.records, replay::BLOCK);
        out.encode_s += te.elapsed().as_secs_f64();
        match bytes {
            Ok(bytes) => out.tenants.push(Tenant {
                name: s.name.clone(),
                bytes,
                records: trace.records.len() as u64,
                expected: Expected::of_tenant(s.expected),
                layout: s.layout(),
            }),
            Err(e) => out
                .failures
                .push(format!("set-up {}: ptb2 encode: {e}", s.name)),
        }
    }
    out.total_s = t0.elapsed().as_secs_f64();
    out
}

/// Replay `records` (one tenant per entry) through one service lifetime
/// and report the `fleetd.*` figures — for workloads whose timed part
/// does not run the service.
pub(crate) fn service_replay(records: &[Vec<Record>], layout: OstLayout) -> Vec<LayerMetric> {
    let meta = TraceMeta {
        experiment: "replay".into(),
        platform: "replay".into(),
        ranks: 0,
        seed: 0,
    };
    let tenants: Vec<Tenant> = records
        .iter()
        .enumerate()
        .filter_map(|(i, recs)| {
            Some(Tenant {
                name: format!("replay-{i}"),
                bytes: replay::encode(&meta, recs, replay::BLOCK).ok()?,
                records: recs.len() as u64,
                expected: Expected::Clean,
                layout,
            })
        })
        .collect();
    let mut stats = ServiceStats::default();
    let mut unchecked = Tally::default();
    session(
        &tenants,
        0,
        tenants.len(),
        16,
        0,
        &mut unchecked,
        &mut stats,
    );
    stats.rows("replay")
}

/// The fleet verdict fact: `distinct` tenants (40% faulted) at derived
/// seeds, each replayed once through one service lifetime.
pub(crate) fn verdict_fact(seeds: &Seeds, distinct: usize) -> String {
    let built = setup(seeds, distinct, distinct * 2 / 5);
    let mut tally = Tally::default();
    let mut stats = ServiceStats::default();
    let n = built.tenants.len();
    session(&built.tenants, 0, n, 16, 0, &mut tally, &mut stats);
    format!(
        "fleet-replay {distinct} tenants ({}): {} of {} misattributed ({:?}), {} failed",
        seeds.describe(),
        tally.misses,
        tally.diagnosed,
        tally.missed_as,
        tally.failed + built.failures.len() as u64
    )
}
