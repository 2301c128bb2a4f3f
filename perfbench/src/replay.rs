//! Per-layer replays over a workload's own records, run after the timed
//! part of a traced run. They time layers the timed part cannot time
//! from its one thread (the fleet workers' ingest) or does not run at
//! all (the codec on `fault-sweep`), and split the stream diagnoser into
//! its sub-kernels. Every figure here is a replay, not an in-situ time.

use crate::{lm, ratio, LayerMetric};
use pio_core::attribution::{TailProfile, WindowedProfile};
use pio_core::diagnose;
use pio_core::diagnosis::Thresholds;
use pio_des::hist::{BinTable, LogBins};
use pio_fleetd::{OstLayout, OstUsage};
use pio_ingest::{
    DiagnoserConfig, HeavyHitters, QuantileSketch, SnapshotBuilder, SnapshotConfig, StreamDiagnoser,
};
use pio_trace::codec::PhaseTracker;
use pio_trace::{CallKind, Ptb2BlockReader, Ptb2Writer, Record, RecordSink, Trace, TraceMeta};
use std::hint::black_box;
use std::time::Instant;

/// Each replay repeats whole passes until it has run this long, so its
/// per-record figure averages over enough work to be steady.
const MIN_REPLAY_S: f64 = 0.15;

/// Records per block, as the fleet service's sinks ship them.
pub(crate) const BLOCK: usize = 256;

/// Encode records as ptb2 with `block` records per block.
pub(crate) fn encode(
    meta: &TraceMeta,
    records: &[Record],
    block: usize,
) -> std::io::Result<Vec<u8>> {
    let mut w = Ptb2Writer::with_block_records(Vec::new(), meta, block)?;
    for r in records {
        w.push_record(r)?;
    }
    w.into_inner()
}

fn total_records(tenants: &[Vec<Record>]) -> u64 {
    tenants.iter().map(|t| t.len() as u64).sum()
}

/// Run `pass` until [`MIN_REPLAY_S`] has elapsed; each pass returns the
/// seconds it measured, and the mean over passes is returned.
fn repeat(mut pass: impl FnMut() -> f64) -> f64 {
    let t0 = Instant::now();
    let (mut n, mut sum) = (0u32, 0.0);
    loop {
        sum += pass();
        n += 1;
        if t0.elapsed().as_secs_f64() >= MIN_REPLAY_S {
            return sum / n as f64;
        }
    }
}

/// Seconds since `t0`.
fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// One tenant as a fleet worker holds it — diagnoser, snapshot builder
/// and OST ledger — with each component's time accumulated.
struct SerialTenant<'a> {
    diag: StreamDiagnoser,
    builder: SnapshotBuilder,
    ledger: OstUsage,
    layout: OstLayout,
    t: &'a mut SerialTimes,
}

#[derive(Default)]
struct SerialTimes {
    setup_ns: u64,
    diag_ns: u64,
    snap_ns: u64,
    ledger_ns: u64,
    phase_ns: u64,
    phase_calls: u64,
    tenants: u64,
    records: u64,
}

impl RecordSink for SerialTenant<'_> {
    fn push(&mut self, r: &Record) {
        self.push_block(std::slice::from_ref(r));
    }

    fn push_block(&mut self, block: &[Record]) {
        let t0 = Instant::now();
        self.diag.push_block(block);
        let t1 = Instant::now();
        self.builder.accumulate_block(block);
        let t2 = Instant::now();
        for r in block {
            if matches!(r.call, CallKind::Read | CallKind::Write) {
                self.ledger.add(self.layout.ost_of(r.offset), r.secs());
            }
        }
        let t3 = Instant::now();
        self.t.diag_ns += (t1 - t0).as_nanos() as u64;
        self.t.snap_ns += (t2 - t1).as_nanos() as u64;
        self.t.ledger_ns += (t3 - t2).as_nanos() as u64;
        self.t.records += block.len() as u64;
    }

    fn phase_end(&mut self, phase: u32) {
        let t0 = Instant::now();
        self.diag.phase_end(phase);
        self.t.phase_ns += t0.elapsed().as_nanos() as u64;
        self.t.phase_calls += 1;
    }

    fn finish(&mut self) {
        let t0 = Instant::now();
        self.diag.finish();
        self.t.diag_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Serial pass through the public ingest and fleetd types, the way a
/// fleet worker processes each tenant: set-up, block ingest with phase
/// ends, finish, OST ledger. Returns the `ingest.*` rows, the
/// diagnoser's ns/record, and `fleetd.ledger_ns_per_record`.
pub(crate) fn ingest(
    tenants: &[Vec<Record>],
    cfg: &DiagnoserConfig,
    layout: OstLayout,
) -> (Vec<LayerMetric>, f64) {
    let mut t = SerialTimes::default();
    let mut first_finding = Vec::new();
    let mut first_pass = true;
    repeat(|| {
        for records in tenants {
            let t0 = Instant::now();
            let diag = StreamDiagnoser::new(cfg.clone());
            let builder = SnapshotBuilder::new(SnapshotConfig::default());
            t.setup_ns += t0.elapsed().as_nanos() as u64;
            t.tenants += 1;
            let mut tenant = SerialTenant {
                diag,
                builder,
                ledger: OstUsage::new(layout.n_osts),
                layout,
                t: &mut t,
            };
            let mut tracker = PhaseTracker::new();
            for block in records.chunks(BLOCK) {
                tracker.on_block(block, &mut tenant);
            }
            tracker.finish(&mut tenant);
            if first_pass {
                if let Some(f) = tenant.diag.findings().first() {
                    first_finding.push(f.after_records as f64);
                }
            }
            black_box((tenant.builder, tenant.ledger));
        }
        first_pass = false;
        0.0
    });
    let per_rec = |ns: u64| ratio(ns as f64, t.records as f64);
    let diag_ns = per_rec(t.diag_ns);
    let rows = vec![
        lm(
            "ingest.tenant_setup_us",
            ratio(t.setup_ns as f64 / 1e3, t.tenants as f64),
            "us",
            "replay",
        ),
        lm("ingest.diagnoser_ns_per_record", diag_ns, "ns", "replay"),
        lm(
            "ingest.snapshot_ns_per_record",
            per_rec(t.snap_ns),
            "ns",
            "replay",
        ),
        lm(
            "ingest.phase_end_us",
            ratio(t.phase_ns as f64 / 1e3, t.phase_calls as f64),
            "us",
            "replay",
        ),
        lm(
            "ingest.first_finding_after_records",
            crate::median(&first_finding),
            "records",
            "replay",
        ),
        lm(
            "fleetd.ledger_ns_per_record",
            per_rec(t.ledger_ns),
            "ns",
            "replay",
        ),
    ];
    (rows, diag_ns)
}

/// The diagnoser's sub-kernels, replayed one at a time over the watched
/// records: `TailProfile::add`, `WindowedProfile::add`,
/// `QuantileSketch::add_block` with a `BinTable`, and `HeavyHitters` on
/// the metadata records. Each is reported per record of the whole
/// stream, so the residual against `diagnoser_ns` is what the diagnoser
/// spends beyond them.
pub(crate) fn kernels(
    tenants: &[Vec<Record>],
    cfg: &DiagnoserConfig,
    diagnoser_ns: f64,
) -> Vec<LayerMetric> {
    let th: &Thresholds = &cfg.thresholds;
    let records = total_records(tenants) as f64;
    // Per tenant, per watched class: (rank, offset, start_ns, secs).
    type Event = (u32, u64, u64, f64);
    let watched: Vec<Vec<Vec<Event>>> = tenants
        .iter()
        .map(|recs| {
            cfg.watch
                .iter()
                .map(|k| {
                    recs.iter()
                        .filter(|r| r.call == *k)
                        .map(|r| (r.rank, r.offset, r.start_ns, r.secs()))
                        .collect()
                })
                .collect()
        })
        .collect();
    let secs: Vec<Vec<Vec<f64>>> = watched
        .iter()
        .map(|kinds| {
            kinds
                .iter()
                .map(|v| v.iter().map(|e| e.3).collect())
                .collect()
        })
        .collect();
    let meta: Vec<Vec<(u32, f64)>> = tenants
        .iter()
        .map(|recs| {
            recs.iter()
                .filter(|r| matches!(r.call, CallKind::MetaRead | CallKind::MetaWrite))
                .map(|r| (r.rank, r.secs()))
                .collect()
        })
        .collect();

    // Accumulators are built before each timed loop: construction is
    // per-tenant set-up, not per-record work.
    let tail_s = repeat(|| {
        let mut tail: Vec<TailProfile> = watched
            .iter()
            .flatten()
            .map(|_| TailProfile::new(th.stripe_bytes))
            .collect();
        let t0 = Instant::now();
        for (p, evs) in tail.iter_mut().zip(watched.iter().flatten()) {
            for &(rank, offset, _, s) in evs {
                p.add(rank, offset, s);
            }
        }
        let s = since(t0);
        black_box(tail);
        s
    });
    let windows_s = repeat(|| {
        let mut windows: Vec<WindowedProfile> = watched
            .iter()
            .flatten()
            .map(|_| {
                WindowedProfile::new(
                    th.attr_window_s,
                    th.attr_max_windows,
                    th.stripe_bytes,
                    cfg.hist_bins,
                )
            })
            .collect();
        let t0 = Instant::now();
        for (w, evs) in windows.iter_mut().zip(watched.iter().flatten()) {
            for &(rank, offset, start_ns, s) in evs {
                w.add(rank, offset, start_ns, s);
            }
        }
        let s = since(t0);
        black_box(windows);
        s
    });
    let table = BinTable::new(LogBins::new(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins));
    let sketch_s = repeat(|| {
        let mut sketches: Vec<QuantileSketch> = secs
            .iter()
            .flatten()
            .map(|_| QuantileSketch::new(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins))
            .collect();
        let t0 = Instant::now();
        for (q, v) in sketches.iter_mut().zip(secs.iter().flatten()) {
            for block in v.chunks(BLOCK) {
                q.add_block(block, &table);
            }
        }
        let s = since(t0);
        black_box(sketches);
        s
    });
    let hitters_s = repeat(|| {
        let mut hitters: Vec<HeavyHitters> = meta
            .iter()
            .map(|_| HeavyHitters::new(cfg.hitter_capacity))
            .collect();
        let t0 = Instant::now();
        for (h, m) in hitters.iter_mut().zip(&meta) {
            for &(rank, s) in m {
                h.add(rank, s);
            }
        }
        let s = since(t0);
        black_box(hitters);
        s
    });
    let per_rec = |s: f64| ratio(s * 1e9, records);
    let split = [
        ("core.tail_profile_ns", per_rec(tail_s)),
        ("core.windowed_profile_ns", per_rec(windows_s)),
        ("ingest.quantile_sketch_ns", per_rec(sketch_s)),
        ("ingest.heavy_hitters_ns", per_rec(hitters_s)),
    ];
    let sum: f64 = split.iter().map(|(_, v)| v).sum();
    let mut rows: Vec<LayerMetric> = split
        .iter()
        .map(|(n, v)| lm(n, *v, "ns", "replay"))
        .collect();
    rows.push(lm(
        "ingest.kernel_residual_ns",
        diagnoser_ns - sum,
        "ns",
        "replay",
    ));
    rows
}

/// ptb2 encode and decode of the records, with the given block size.
pub(crate) fn codec(tenants: &[Vec<Record>], block_records: usize) -> Vec<LayerMetric> {
    let records = total_records(tenants) as f64;
    let meta = TraceMeta {
        experiment: "replay".into(),
        platform: "replay".into(),
        ranks: 0,
        seed: 0,
    };
    let encode_all = || -> Vec<Vec<u8>> {
        tenants
            .iter()
            .map(|recs| encode(&meta, recs, block_records).expect("in-memory ptb2"))
            .collect()
    };
    let encoded = encode_all();
    let enc_s = repeat(|| {
        let t0 = Instant::now();
        black_box(encode_all());
        since(t0)
    });
    let dec_s = repeat(|| {
        let t0 = Instant::now();
        for bytes in &encoded {
            let mut r = Ptb2BlockReader::new(&bytes[..]).expect("ptb2 header");
            while let Some(block) = r.next_block().expect("ptb2 block") {
                black_box(block);
            }
        }
        since(t0)
    });
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    vec![
        lm(
            "trace.encode_ns_per_record",
            ratio(enc_s * 1e9, records),
            "ns",
            "replay",
        ),
        lm(
            "trace.decode_ns_per_record",
            ratio(dec_s * 1e9, records),
            "ns",
            "replay",
        ),
        lm(
            "trace.bytes_per_record",
            ratio(bytes as f64, records),
            "bytes",
            "replay",
        ),
    ]
}

/// Batch `diagnose` over each tenant's records.
pub(crate) fn diagnose_ns(tenants: &[Vec<Record>]) -> f64 {
    let traces: Vec<Trace> = tenants
        .iter()
        .map(|recs| {
            let mut t = Trace::new(TraceMeta {
                experiment: "replay".into(),
                platform: "replay".into(),
                ranks: recs.iter().map(|r| r.rank + 1).max().unwrap_or(0),
                seed: 0,
            });
            t.records = recs.clone();
            t
        })
        .collect();
    let s = repeat(|| {
        let t0 = Instant::now();
        for t in &traces {
            black_box(diagnose(t));
        }
        since(t0)
    });
    ratio(s * 1e9, total_records(tenants) as f64)
}
