//! Online diagnosis: the paper's detectors, incrementally, mid-run.
//!
//! [`StreamDiagnoser`] is a [`RecordSink`] that watches the record stream
//! as it is produced and raises the same findings as
//! `pio_core::diagnosis::diagnose` — through the *same* verdict
//! functions, fed sketch estimates instead of exact order statistics:
//!
//! * **Right shoulder** and **harmonic modes** are evaluated over a
//!   tumbling window of recent records, so a pathology that develops
//!   mid-run (Franklin's read-ahead bug) is flagged long before the job
//!   ends.
//! * **Progressive deterioration** closes a per-phase quantile sketch at
//!   every barrier boundary ([`RecordSink::phase_end`]) and re-tests the
//!   median ladder.
//! * **Serialized metadata rank** keeps a weighted heavy-hitter sketch
//!   by rank and re-tests at each barrier.
//!
//! The whole-run evidence — metadata heavy hitters, the small-write
//! aggregate, metadata and I/O time totals, and the per-kind tail
//! profiles — is the diagnoser's own, accumulated once per record and
//! read nowhere else. Beside it the diagnoser owns the stream's
//! [`SnapshotBuilder`], the ensemble a snapshot panel or fleet roll-up
//! shows, whose rank and record counts the verdicts read too.
//!
//! Records come in through one path, [`RecordSink::push_block`] (a
//! single [`RecordSink::push`] is a block of one): the findings, their
//! stamps, the evidence and the owned snapshot are bit-identical for
//! any block partition of the stream.
//!
//! Memory is O(window bins + active phases × bins + heavy-hitter k +
//! profiled ranks + snapshot shards × bins): constant in the number of
//! records.

use crate::shard::{SnapshotBuilder, SnapshotConfig};
use crate::sketch::{HeavyHitters, QuantileSketch};
use pio_core::attribution::{
    attribute_data_tail_windowed, attribute_meta_tail, tail_bin_table, Attribution,
    DataTailEvidence, TailEvent, TailProfile, WindowedProfile, FINE_HIST_BINS, MODULI,
    TAIL_HIST_BINS, TAIL_HIST_HI, TAIL_HIST_LO, TAIL_KINDS,
};
use pio_core::diagnosis::{
    deterioration_verdict, harmonic_verdict, metadata_shoulder_verdict, rank_tail_verdict,
    serialized_meta_verdict, shoulder_verdict, Finding, Thresholds,
};
use pio_core::modes::find_modes_on_grid;
use pio_des::hist::{BinTable, LogHistogram};
use pio_trace::{CallKind, Record, RecordSink};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Number of call classes; per-kind state is direct-indexed by
/// `call as usize` instead of hashed.
const KINDS: usize = CallKind::ALL.len();

/// Ceiling on the retained slowest-event reservoir (per call class):
/// enough to establish burst periodicity and front structure, bounded
/// however long the run is. Past the cap only the slowest events are
/// kept — which are the tail by definition.
const TAIL_STARTS_CAP: usize = 4096;

/// Online-diagnoser tuning knobs.
#[derive(Debug, Clone)]
pub struct DiagnoserConfig {
    /// Detector thresholds (shared with the batch path).
    pub thresholds: Thresholds,
    /// Tumbling-window length in records, per watched call class.
    pub window: usize,
    /// Call classes watched for windowed distributional pathologies.
    /// Attribution reads a watched class's whole-run tail profile from
    /// the diagnoser's evidence, which profiles exactly [`TAIL_KINDS`] —
    /// the default's kinds, and the only value any caller uses.
    pub watch: Vec<CallKind>,
    /// Duration geometry: lower bound, seconds.
    pub hist_lo: f64,
    /// Duration geometry: upper bound, seconds.
    pub hist_hi: f64,
    /// Duration geometry: bucket count.
    pub hist_bins: usize,
    /// Heavy-hitter sketch capacity (metadata time and small writes,
    /// by rank).
    pub hitter_capacity: usize,
}

impl Default for DiagnoserConfig {
    fn default() -> Self {
        DiagnoserConfig {
            thresholds: Thresholds::default(),
            window: 2048,
            watch: vec![
                CallKind::Write,
                CallKind::Read,
                CallKind::MetaRead,
                CallKind::MetaWrite,
            ],
            hist_lo: TAIL_HIST_LO,
            hist_hi: TAIL_HIST_HI,
            hist_bins: FINE_HIST_BINS,
            hitter_capacity: 16,
        }
    }
}

impl DiagnoserConfig {
    /// The shape of the diagnoser's ensemble snapshot: this duration
    /// geometry with the default rank groups. The default
    /// configuration's is [`SnapshotConfig::default`].
    pub fn snapshot_config(&self) -> SnapshotConfig {
        SnapshotConfig {
            hist_lo: self.hist_lo,
            hist_hi: self.hist_hi,
            hist_bins: self.hist_bins,
            ..SnapshotConfig::default()
        }
    }
}

/// A finding plus when the stream first produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedFinding {
    /// The diagnosis.
    pub finding: Finding,
    /// Records ingested when it first fired.
    pub after_records: u64,
    /// Barrier phase in effect when it first fired.
    pub phase: u32,
}

/// Cumulative per-kind attribution state beyond the snapshot's tail
/// profile: unlike the tumbling windows, these never reset — a verdict
/// needs the whole run's evidence.
struct KindTail {
    /// Cumulative duration sketch (supplies the provisional median; its
    /// counts are the fine histogram the quantized-level test reads).
    cum: QuantileSketch,
    /// Per-window slices of the evidence — a fault that clears mid-run
    /// is localized to the windows it was live in.
    windows: WindowedProfile,
    /// Bounded reservoir of the slowest events seen so far, keyed by
    /// `(secs bit pattern, start_ns, rank)` in a min-heap. The tail cut
    /// is applied at *attribution* time against the current median, so
    /// the start-time evidence (periodicity, synchronized fronts) covers
    /// the whole run — including events that arrived before any
    /// provisional median existed. Non-negative f64 bit patterns order
    /// like the floats themselves.
    slow: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl KindTail {
    fn new(cfg: &DiagnoserConfig) -> Self {
        KindTail {
            cum: QuantileSketch::new(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins),
            windows: WindowedProfile::new(
                cfg.thresholds.attr_window_s,
                cfg.thresholds.attr_max_windows,
                cfg.thresholds.stripe_bytes,
                cfg.hist_bins,
            ),
            slow: BinaryHeap::new(),
        }
    }

    /// Offer one event to the slow-event reservoir. Once it is warm, a
    /// single peek-compare rejects sub-threshold events without touching
    /// the heap.
    #[inline]
    fn offer_slow(&mut self, r: &Record, secs: f64) {
        let key = (secs.max(0.0).to_bits(), r.start_ns, r.rank);
        if self.slow.len() < TAIL_STARTS_CAP {
            self.slow.push(Reverse(key));
        } else if self.slow.peek().is_some_and(|Reverse(min)| key > *min) {
            self.slow.pop();
            self.slow.push(Reverse(key));
        }
    }

    /// Rank-tagged tail events beyond the given cut, from the reservoir.
    fn tail_events(&self, cut: f64) -> Vec<TailEvent> {
        self.slow
            .iter()
            .filter(|Reverse((bits, _, _))| f64::from_bits(*bits) > cut)
            .map(|Reverse((bits, ns, rank))| TailEvent {
                start_ns: *ns,
                rank: *rank,
                secs: f64::from_bits(*bits),
            })
            .collect()
    }
}

/// Cumulative small-write size-class aggregate, the evidence behind the
/// metadata-storm detector.
#[derive(Debug, Clone, PartialEq)]
struct SmallWriteAgg {
    /// Write-direction operations below the small-write cut.
    ops: u64,
    /// Seconds spent in the small class.
    secs: f64,
    /// Seconds spent in *all* write-direction calls.
    write_secs: f64,
    /// Small-class seconds by rank (weighted heavy hitters).
    per_rank: HeavyHitters,
    /// Earliest small-class start, nanoseconds.
    first_ns: u64,
    /// Latest small-class end, nanoseconds.
    last_ns: u64,
}

impl SmallWriteAgg {
    fn new(hitter_capacity: usize) -> Self {
        SmallWriteAgg {
            ops: 0,
            secs: 0.0,
            write_secs: 0.0,
            per_rank: HeavyHitters::new(hitter_capacity),
            first_ns: u64::MAX,
            last_ns: 0,
        }
    }

    /// Accumulate one record (no-op for non-write-direction calls).
    fn accumulate(&mut self, r: &Record, small_write_bytes: u64) {
        if !matches!(r.call, CallKind::Write | CallKind::MetaWrite) {
            return;
        }
        let secs = r.secs();
        self.write_secs += secs;
        if r.bytes > 0 && r.bytes < small_write_bytes {
            self.ops += 1;
            self.secs += secs;
            self.per_rank.add(r.rank, secs);
            self.first_ns = self.first_ns.min(r.start_ns);
            self.last_ns = self.last_ns.max(r.end_ns);
        }
    }

    /// The metadata-storm verdict over this aggregate: the heaviest
    /// small-writer and the small class's wall-clock span.
    fn verdict(&self, th: &Thresholds) -> Option<Finding> {
        let top = self.per_rank.top().first().map(|h| (h.key, h.weight));
        let span_secs = if self.last_ns > self.first_ns {
            (self.last_ns - self.first_ns) as f64 / 1e9
        } else {
            0.0
        };
        metadata_shoulder_verdict(self.ops, self.secs, self.write_secs, top, span_secs, th)
    }
}

/// A stream's whole-run evidence: the cumulative state a verdict reads
/// beyond the windows, never reset. Each record updates it once, right
/// after the owned [`SnapshotBuilder`]'s shard step; nothing outside
/// this module reads it.
#[derive(Debug, Clone)]
struct Evidence {
    /// Metadata-time heavy hitters by rank.
    meta_hitters: HeavyHitters,
    /// Scratch buffer for grouped heavy-hitter runs (reused per block).
    run_buf: Vec<f64>,
    /// Small-write size-class aggregate (metadata storms).
    small: SmallWriteAgg,
    /// Per-rank, per-target tail profiles, direct-indexed by
    /// `call as usize`; only [`TAIL_KINDS`] are ever profiled.
    profiles: Vec<Option<TailProfile>>,
    /// Classifier for the tail-profile geometry ([`tail_bin_table`]),
    /// looked up once here so the block path takes no lock.
    tail_table: &'static BinTable,
    /// The configured geometry is the tail geometry at exactly double
    /// resolution (same range, 2× bins): a tail bin is the configured
    /// bin halved — `floor(f·2n)/2 = floor(f·n)` exactly, range checks
    /// and edge clamps included — saving the second lookup per record.
    tail_nested: bool,
    /// Total metadata seconds (exact).
    meta_secs: f64,
    /// Total I/O seconds across data + metadata calls (exact).
    io_secs: f64,
}

/// Equal evidence is every accumulator equal; the per-block scratch and
/// the shared classifier (fixed by the configuration) are not evidence.
impl PartialEq for Evidence {
    fn eq(&self, other: &Self) -> bool {
        self.meta_hitters == other.meta_hitters
            && self.small == other.small
            && self.profiles == other.profiles
            && self.meta_secs == other.meta_secs
            && self.io_secs == other.io_secs
    }
}

impl Evidence {
    fn new(cfg: &DiagnoserConfig) -> Self {
        let tail_table = tail_bin_table();
        let tg = tail_table.geometry();
        Evidence {
            meta_hitters: HeavyHitters::new(cfg.hitter_capacity),
            run_buf: Vec::new(),
            small: SmallWriteAgg::new(cfg.hitter_capacity),
            profiles: (0..KINDS).map(|_| None).collect(),
            tail_table,
            tail_nested: cfg.hist_lo == tg.lo()
                && cfg.hist_hi == tg.hi()
                && cfg.hist_bins == 2 * tg.bins(),
            meta_secs: 0.0,
            io_secs: 0.0,
        }
    }

    /// The block path's first pass: metadata heavy hitters, grouped by
    /// rank run over the block's metadata subsequence. The sketch sees
    /// the same per-key weight sequence as per-record adds, and it is
    /// only *read* between blocks (at phase boundaries), so hoisting it
    /// ahead of the record loop is unobservable.
    fn add_meta_runs(&mut self, block: &[Record]) {
        let mut run = std::mem::take(&mut self.run_buf);
        let mut i = 0;
        while i < block.len() {
            let r = &block[i];
            i += 1;
            if !matches!(r.call, CallKind::MetaRead | CallKind::MetaWrite) {
                continue;
            }
            run.clear();
            run.push(r.secs());
            let key = r.rank;
            while i < block.len() {
                let n = &block[i];
                if matches!(n.call, CallKind::MetaRead | CallKind::MetaWrite) {
                    if n.rank != key {
                        break;
                    }
                    run.push(n.secs());
                }
                i += 1;
            }
            self.meta_hitters.add_run(key, &run);
        }
        self.run_buf = run;
    }

    /// The block path's per-record step — everything except the
    /// metadata heavy hitters ([`Self::add_meta_runs`]) — for a record
    /// whose duration `secs` falls in `bin` of the configured geometry.
    /// Returns the record's bin in the tail-profile geometry, so a
    /// caller classifies each record once.
    #[inline]
    fn accumulate(&mut self, r: &Record, secs: f64, bin: usize, th: &Thresholds) -> usize {
        if matches!(r.call, CallKind::MetaRead | CallKind::MetaWrite) {
            self.meta_secs += secs;
        }
        if r.call.is_io() {
            self.io_secs += secs;
        }
        // `add_binned` debug-asserts that the halving shortcut equals
        // the tail-geometry classification.
        let tail_bin = if self.tail_nested {
            bin >> 1
        } else {
            self.tail_table.index_clamped(secs)
        };
        if TAIL_KINDS.contains(&r.call) {
            self.profiles[r.call as usize]
                .get_or_insert_with(|| TailProfile::new(th.stripe_bytes))
                .add_binned(r.rank, r.offset, secs, tail_bin);
        }
        self.small.accumulate(r, th.small_write_bytes);
        tail_bin
    }

    /// The whole-run tail profile of one call class, once a record of
    /// it has arrived.
    fn profile(&self, kind: CallKind) -> Option<&TailProfile> {
        self.profiles[kind as usize].as_ref()
    }

    /// The serialized-metadata-rank verdict over everything so far, from
    /// the metadata heavy hitters and time totals of a run of `ranks`
    /// ranks.
    fn serialized_verdict(&self, ranks: u32, th: &Thresholds) -> Option<Finding> {
        let per_rank: Vec<(u32, f64, usize)> = self
            .meta_hitters
            .top()
            .into_iter()
            .map(|h| (h.key, h.weight, h.ops as usize))
            .collect();
        serialized_meta_verdict(&per_rank, self.meta_secs, ranks, self.io_secs, th)
    }

    /// Rough resident size in bytes: tracked metadata hitters plus each
    /// profile's per-rank cells and fixed residue tables.
    fn approx_bytes(&self) -> usize {
        let bins = TAIL_HIST_BINS;
        self.meta_hitters.tracked() * std::mem::size_of::<(u32, f64, u64)>()
            + self
                .profiles
                .iter()
                .flatten()
                .map(|p| {
                    p.ranks_observed() * (bins + 2) * std::mem::size_of::<u64>()
                        + MODULI.iter().sum::<usize>() * bins * std::mem::size_of::<u64>()
                })
                .sum::<usize>()
    }
}

/// Streaming, constant-memory implementation of the paper's detectors.
///
/// Per-kind state (windows, cumulative tails, per-phase sketches) is
/// stored in `CallKind`-indexed arrays rather than hash maps. Each
/// record goes through the owned [`SnapshotBuilder`]'s shard step, then
/// the whole-run evidence, then the diagnoser's windows, so a window
/// that fills mid-block attributes from a profile holding exactly the
/// records up to the one that filled it.
/// Records come in through [`RecordSink::push_block`] alone (a single
/// [`RecordSink::push`] is a block of one), which classifies each
/// duration once against a precomputed [`BinTable`] shared by every
/// same-geometry accumulator (and, via [`BinTable::shared`], by every
/// diagnoser in the process). The log-domain arithmetic of [`LogBins`]
/// stays only as the oracle: every table lookup and every bin fanned out
/// to a sketch, profile or window slot is debug-asserted against it.
///
/// [`LogBins`]: pio_des::hist::LogBins
pub struct StreamDiagnoser {
    cfg: DiagnoserConfig,
    /// The stream's ensemble snapshot, and its rank and record counts.
    builder: SnapshotBuilder,
    /// Whole-run evidence, read only by this diagnoser's verdicts.
    evidence: Evidence,
    /// The configured geometry's range equals the window slots' fine
    /// range (slot bins are `cfg.hist_bins` by construction), so the
    /// block path reuses the per-record cfg-geometry bin for the slot
    /// fine histogram instead of reclassifying.
    slot_fine_direct: bool,
    /// `watch_mask[call as usize]` ⟺ `cfg.watch.contains(call)`.
    watch_mask: [bool; KINDS],
    /// Per-kind tumbling windows, cleared in place when they tumble (an
    /// empty window holds no buckets).
    windows: Vec<QuantileSketch>,
    phase_sketches: Vec<Vec<(u32, QuantileSketch)>>,
    phase_medians: Vec<Vec<(u32, f64)>>,
    tails: Vec<Option<KindTail>>,
    current_phase: u32,
    findings: Vec<TimedFinding>,
    seen: HashSet<(u8, Option<CallKind>, Option<Attribution>)>,
}

impl StreamDiagnoser {
    /// A diagnoser with the given configuration.
    pub fn new(cfg: DiagnoserConfig) -> Self {
        let builder = SnapshotBuilder::new(cfg.snapshot_config());
        let mut watch_mask = [false; KINDS];
        for k in &cfg.watch {
            watch_mask[*k as usize] = true;
        }
        let tg = tail_bin_table().geometry();
        let slot_fine_direct = cfg.hist_lo == tg.lo() && cfg.hist_hi == tg.hi();
        let windows = (0..KINDS)
            .map(|_| QuantileSketch::new(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins))
            .collect();
        StreamDiagnoser {
            evidence: Evidence::new(&cfg),
            cfg,
            builder,
            slot_fine_direct,
            watch_mask,
            windows,
            phase_sketches: (0..KINDS).map(|_| Vec::new()).collect(),
            phase_medians: (0..KINDS).map(|_| Vec::new()).collect(),
            tails: (0..KINDS).map(|_| None).collect(),
            current_phase: 0,
            findings: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// A diagnoser with default configuration.
    pub fn with_defaults() -> Self {
        StreamDiagnoser::new(DiagnoserConfig::default())
    }

    /// Every finding raised so far, in the order they first fired.
    pub fn findings(&self) -> &[TimedFinding] {
        &self.findings
    }

    /// Records ingested so far.
    pub fn records(&self) -> u64 {
        self.builder.ingested()
    }

    /// The stream's ensemble snapshot builder (its shape is
    /// [`DiagnoserConfig::snapshot_config`]).
    pub fn builder(&self) -> &SnapshotBuilder {
        &self.builder
    }

    /// Rough resident size in bytes of the diagnoser's whole-run state —
    /// the snapshot's shards at their dense-equivalent charge
    /// ([`SnapshotBuilder::approx_bytes`]), the tracked metadata hitters
    /// and the tail profiles — and the fleet budget's currency.
    /// `O(shards)` to compute; bounded by shards × bins, hitter capacity
    /// and profiled ranks, never by the record count.
    pub fn approx_bytes(&self) -> usize {
        self.builder.approx_bytes() + self.evidence.approx_bytes()
    }

    /// Split a finished diagnoser into its findings and its snapshot
    /// builder.
    pub fn into_parts(self) -> (Vec<TimedFinding>, SnapshotBuilder) {
        (self.findings, self.builder)
    }

    /// One dedup key per (finding variant, call class, attribution):
    /// repeated windows re-confirming a known pathology stay one finding,
    /// but a shoulder whose attribution *refines* as evidence accumulates
    /// (unattributed → named class → compound verdict) is raised again —
    /// the refined verdict is new information.
    fn dedup_key(f: &Finding) -> (u8, Option<CallKind>, Option<Attribution>) {
        match f {
            Finding::HarmonicModes { kind, .. } => (0, Some(*kind), None),
            Finding::RightShoulder {
                kind, attribution, ..
            } => (1, Some(*kind), attribution.clone()),
            Finding::ProgressiveDeterioration { kind, .. } => (2, Some(*kind), None),
            Finding::SerializedRank { .. } => (3, None, None),
            Finding::RankCorrelatedTail { kind, .. } => (4, Some(*kind), None),
            Finding::MetadataShoulder { .. } => (5, None, None),
        }
    }

    fn raise(&mut self, f: Finding) {
        if self.seen.insert(Self::dedup_key(&f)) {
            self.findings.push(TimedFinding {
                finding: f,
                after_records: self.builder.ingested(),
                phase: self.current_phase,
            });
        }
    }

    /// Evaluate and reset `kind`'s window once it holds `cfg.window`
    /// records.
    fn tumble(&mut self, kind: CallKind) {
        if self.windows[kind as usize].count() as usize >= self.cfg.window {
            self.evaluate_window(kind);
            self.windows[kind as usize].clear();
        }
    }

    /// Evaluate the distributional detectors over one kind's window; an
    /// empty window raises nothing and re-tests nothing.
    fn evaluate_window(&mut self, kind: CallKind) {
        let w = &self.windows[kind as usize];
        let n = w.count() as usize;
        let th = self.cfg.thresholds.clone();
        if n == 0 || n < th.min_samples {
            return;
        }
        let mut raised = Vec::new();
        let grid = density_grid(&w.to_histogram(), self.builder.table);
        if let Some(f) = harmonic_verdict(kind, &find_modes_on_grid(&grid)) {
            raised.push(f);
        }
        if let (Some(median), Some(p99)) = (w.quantile(0.5), w.quantile(0.99)) {
            let tail = w.fraction_above(th.tail_cut(median));
            let attribution = self.attribute(kind);
            if let Some(f) = shoulder_verdict(kind, n, median, p99, tail, attribution, &th) {
                raised.push(f);
            }
        }
        for f in raised {
            self.raise(f);
        }
        self.evaluate_rank_tails();
    }

    /// Attribute `kind`'s tail from the cumulative (whole-run-so-far)
    /// state — the whole-run profile, per-window slices, and the
    /// rank-tagged slow-event reservoir; `None` until the evidence
    /// supports anything.
    fn attribute(&self, kind: CallKind) -> Option<Attribution> {
        let kt = self.tails[kind as usize].as_ref()?;
        let profile = self.evidence.profile(kind)?;
        let th = &self.cfg.thresholds;
        if matches!(kind, CallKind::MetaRead | CallKind::MetaWrite) {
            return Some(Attribution::single(attribute_meta_tail(profile, th)));
        }
        let median = kt.cum.quantile(0.5)?;
        let events = kt.tail_events(th.tail_cut(median));
        let hist = kt.cum.to_histogram();
        let ev = DataTailEvidence {
            profile,
            hist: &hist,
            windows: &kt.windows,
            events: &events,
        };
        attribute_data_tail_windowed(&ev, median, th)
    }

    /// Re-test the rank-correlated-tail detector over every data class's
    /// cumulative profile.
    fn evaluate_rank_tails(&mut self) {
        let th = self.cfg.thresholds.clone();
        let mut raised = Vec::new();
        // Array order is discriminant order — the same order the map
        // version produced after its sort.
        for kind in CallKind::ALL {
            if matches!(kind, CallKind::MetaRead | CallKind::MetaWrite) {
                continue;
            }
            let (Some(kt), Some(profile)) = (
                self.tails[kind as usize].as_ref(),
                self.evidence.profile(kind),
            ) else {
                continue;
            };
            if (kt.cum.count() as usize) < th.min_samples {
                continue;
            }
            let Some(median) = kt.cum.quantile(0.5) else {
                continue;
            };
            if let Some(f) = rank_tail_verdict(kind, profile, th.tail_cut(median), &th) {
                raised.push(f);
            }
        }
        for f in raised {
            self.raise(f);
        }
    }
}

/// Find or create the sketch for `phase` in one kind's per-phase list.
/// Streams deliver phases mostly in order, so the last entry matches
/// almost always; the fallback scan keeps arbitrary phase interleavings
/// correct. Open phases per kind are few (they close at each barrier),
/// so the scan is short even when it runs.
fn phase_sketch(
    v: &mut Vec<(u32, QuantileSketch)>,
    phase: u32,
    lo: f64,
    hi: f64,
    bins: usize,
) -> &mut QuantileSketch {
    if v.last().is_some_and(|e| e.0 == phase) {
        return &mut v.last_mut().expect("non-empty").1;
    }
    if let Some(i) = v.iter().position(|e| e.0 == phase) {
        return &mut v[i].1;
    }
    v.push((phase, QuantileSketch::new(lo, hi, bins)));
    &mut v.last_mut().expect("just pushed").1
}

/// A smoothed `(duration, density)` grid for mode detection from a
/// diagnoser window's duration histogram. Bin centers and edges come
/// from `table`, which must be the histogram geometry's [`BinTable`].
fn density_grid(hist: &LogHistogram, table: &BinTable) -> Vec<(f64, f64)> {
    debug_assert_eq!(table.geometry(), hist.geometry());
    let total = hist.in_range() as f64;
    if total == 0.0 {
        return Vec::new();
    }
    let raw: Vec<(f64, f64)> = hist
        .counts()
        .iter()
        .zip(table.centers())
        .zip(table.bin_edges())
        .map(|((&c, &center), e)| (center, c as f64 / (total * (e.right - e.left))))
        .collect();
    // Light 1-2-1 smoothing: mode finding should not trip over
    // single-bin quantization noise.
    (0..raw.len())
        .map(|i| {
            let prev = if i > 0 { raw[i - 1].1 } else { raw[i].1 };
            let next = if i + 1 < raw.len() {
                raw[i + 1].1
            } else {
                raw[i].1
            };
            (raw[i].0, 0.25 * prev + 0.5 * raw[i].1 + 0.25 * next)
        })
        .collect()
}

impl RecordSink for StreamDiagnoser {
    /// The ingest path, bit-identical for any partition of the stream.
    /// The evidence's metadata heavy hitters take the block in one
    /// grouped pass; then each record gets one [`BinTable`]
    /// classification, which feeds the builder's shard step, the
    /// evidence step and every cfg-geometry accumulator here (window,
    /// cumulative and phase sketches), and the tail-geometry bin the
    /// evidence returns feeds the window slices — no `ln` per record.
    fn push_block(&mut self, block: &[Record]) {
        self.evidence.add_meta_runs(block);
        // The builder's record count and `current_phase` advance per
        // record so a window that fills mid-block raises its finding
        // with the `after_records` / `phase` stamp of the record that
        // filled it, whatever the block boundaries.
        for r in block {
            let secs = r.secs();
            let bin = self.builder.table.index_clamped(secs);
            self.builder.accumulate_binned(r, secs, bin);
            let tail_bin = self.evidence.accumulate(r, secs, bin, &self.cfg.thresholds);
            self.current_phase = self.current_phase.max(r.phase);
            let k = r.call as usize;
            if !self.watch_mask[k] {
                continue;
            }
            let cfg = &self.cfg;
            // Cumulative attribution state. No tail cut is applied here
            // — the slow-event reservoir and the profile both have the
            // cut applied at diagnosis time, so the evidence stays
            // insensitive to the provisional medians seen mid-stream.
            let kt = self.tails[k].get_or_insert_with(|| KindTail::new(cfg));
            kt.cum.add_at(secs, bin);
            if self.slot_fine_direct {
                kt.windows
                    .add_binned(r.rank, r.offset, r.start_ns, secs, tail_bin, bin);
            } else {
                kt.windows.add(r.rank, r.offset, r.start_ns, secs);
            }
            kt.offer_slow(r, secs);
            let (lo, hi, bins) = (cfg.hist_lo, cfg.hist_hi, cfg.hist_bins);
            self.windows[k].add_at(secs, bin);
            phase_sketch(&mut self.phase_sketches[k], r.phase, lo, hi, bins).add_at(secs, bin);
            self.tumble(r.call);
        }
    }

    fn phase_end(&mut self, phase: u32) {
        self.current_phase = self.current_phase.max(phase);
        let min_n = self.cfg.thresholds.min_samples.min(8);
        let kinds: Vec<CallKind> = self.cfg.watch.clone();
        for kind in kinds {
            // Close every sketch for phases up to the barrier (phases
            // complete in order; anything still open at `phase` is done).
            // Closure order is irrelevant: phase keys are distinct, and
            // the ladder is sorted before the verdict.
            let mut closed: Vec<(u32, f64)> = Vec::new();
            self.phase_sketches[kind as usize].retain(|(p, s)| {
                if *p <= phase {
                    if s.count() as usize >= min_n {
                        if let Some(m) = s.quantile(0.5) {
                            closed.push((*p, m));
                        }
                    }
                    false
                } else {
                    true
                }
            });
            if closed.is_empty() {
                continue;
            }
            let medians = &mut self.phase_medians[kind as usize];
            medians.extend(closed);
            medians.sort_by_key(|&(p, _)| p);
            let medians = medians.clone();
            if let Some(f) = deterioration_verdict(kind, &medians, &self.cfg.thresholds) {
                self.raise(f);
            }
        }
        let th = &self.cfg.thresholds;
        if let Some(f) = self.evidence.serialized_verdict(self.builder.ranks(), th) {
            self.raise(f);
        }
        self.evaluate_rank_tails();
        if let Some(f) = self.evidence.small.verdict(&self.cfg.thresholds) {
            self.raise(f);
        }
    }

    fn finish(&mut self) {
        // Flush partially filled windows and any never-closed phases.
        let kinds: Vec<CallKind> = self.cfg.watch.clone();
        for kind in &kinds {
            self.evaluate_window(*kind);
        }
        self.phase_end(u32::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_core::attribution::FaultClass;

    fn rec(rank: u32, call: CallKind, dur: f64, phase: u32) -> Record {
        Record {
            rank,
            call,
            fd: 3,
            offset: 0,
            bytes: 1 << 20,
            start_ns: 0,
            end_ns: (dur * 1e9) as u64,
            phase,
        }
    }

    #[test]
    fn tenants_share_one_bin_table() {
        let a = StreamDiagnoser::with_defaults();
        let b = StreamDiagnoser::with_defaults();
        let s = crate::SnapshotBuilder::new(crate::SnapshotConfig::default());
        assert!(std::ptr::eq(a.builder.table, b.builder.table));
        assert!(std::ptr::eq(a.builder.table, s.table));
    }

    #[test]
    fn shoulder_flagged_mid_stream() {
        let mut d = StreamDiagnoser::new(DiagnoserConfig {
            window: 128,
            ..DiagnoserConfig::default()
        });
        // First window: healthy. Second window: the read-ahead pathology
        // appears. The finding must fire before the stream ends.
        for i in 0..128u32 {
            d.push(&rec(i % 16, CallKind::Read, 10.0 + (i % 5) as f64 * 0.1, 0));
        }
        assert!(d.findings().is_empty());
        for i in 0..128u32 {
            let dur = if i % 8 == 0 {
                250.0
            } else {
                10.0 + (i % 5) as f64 * 0.1
            };
            d.push(&rec(i % 16, CallKind::Read, dur, 0));
        }
        let shoulder = d
            .findings()
            .iter()
            .find(|t| {
                matches!(
                    t.finding,
                    Finding::RightShoulder {
                        kind: CallKind::Read,
                        ..
                    }
                )
            })
            .expect("shoulder must fire from the second window");
        assert!(shoulder.after_records <= 256, "{}", shoulder.after_records);
        // Still only one finding after more pathological windows.
        for i in 0..512u32 {
            let dur = if i % 8 == 0 { 250.0 } else { 10.0 };
            d.push(&rec(i % 16, CallKind::Read, dur, 0));
        }
        let shoulders = d
            .findings()
            .iter()
            .filter(|t| matches!(t.finding, Finding::RightShoulder { .. }))
            .count();
        assert_eq!(shoulders, 1);
    }

    #[test]
    fn healthy_stream_stays_clean() {
        let mut d = StreamDiagnoser::new(DiagnoserConfig {
            window: 256,
            ..DiagnoserConfig::default()
        });
        for p in 0..4u32 {
            for i in 0..512u32 {
                d.push(&rec(
                    i % 32,
                    CallKind::Write,
                    5.0 + (i % 7) as f64 * 0.05,
                    p,
                ));
                d.push(&rec(i % 32, CallKind::Read, 2.0 + (i % 5) as f64 * 0.04, p));
            }
            d.phase_end(p);
        }
        d.finish();
        assert!(d.findings().is_empty(), "{:?}", d.findings());
    }

    #[test]
    fn deterioration_flagged_at_barrier() {
        let mut d = StreamDiagnoser::with_defaults();
        for (p, m) in [8.0, 8.1, 11.0, 17.0, 28.0, 45.0].iter().enumerate() {
            for i in 0..64u32 {
                d.push(&rec(
                    i % 16,
                    CallKind::Read,
                    m + (i % 3) as f64 * 0.05,
                    p as u32,
                ));
            }
            d.phase_end(p as u32);
        }
        let t = d
            .findings()
            .iter()
            .find(|t| {
                matches!(
                    t.finding,
                    Finding::ProgressiveDeterioration {
                        kind: CallKind::Read,
                        ..
                    }
                )
            })
            .expect("deterioration fires at a barrier");
        // Fired at a phase_end, not only at finish().
        assert!(t.phase <= 5);
    }

    #[test]
    fn serialized_rank_flagged_from_heavy_hitters() {
        let mut d = StreamDiagnoser::with_defaults();
        for i in 0..500u32 {
            d.push(&rec(0, CallKind::MetaWrite, 0.3, 0));
            d.push(&rec(i % 256, CallKind::Write, 1.0, 0));
        }
        d.phase_end(0);
        assert!(
            d.findings()
                .iter()
                .any(|t| matches!(t.finding, Finding::SerializedRank { rank: 0, .. })),
            "{:?}",
            d.findings()
        );
    }

    #[test]
    fn straggler_named_mid_stream() {
        let mut d = StreamDiagnoser::new(DiagnoserConfig {
            window: 128,
            ..DiagnoserConfig::default()
        });
        // Rank 3 is slow on every operation — the node, not the storage.
        for i in 0..512u32 {
            let rank = i % 16;
            let dur = if rank == 3 { 0.8 } else { 0.02 };
            d.push(&rec(rank, CallKind::Read, dur, 0));
        }
        let t = d
            .findings()
            .iter()
            .find(|t| matches!(t.finding, Finding::RankCorrelatedTail { .. }))
            .expect("rank-correlated tail fires mid-stream");
        assert!(t.after_records < 512, "{}", t.after_records);
        match &t.finding {
            Finding::RankCorrelatedTail { ranks, .. } => assert_eq!(ranks, &vec![3]),
            _ => unreachable!(),
        }
        assert_eq!(
            t.finding.attribution(),
            Some(Attribution::single(FaultClass::StragglerNode))
        );
        // The shoulder refines as evidence accumulates: the first window
        // has too few tail events to attribute, a later one names the
        // fault — the attributed verdict must appear.
        assert!(
            d.findings()
                .iter()
                .filter(|t| matches!(t.finding, Finding::RightShoulder { .. }))
                .any(|t| t
                    .finding
                    .attribution()
                    .is_some_and(|a| a.is(FaultClass::StragglerNode))),
            "{:?}",
            d.findings()
        );
    }

    #[test]
    fn meta_shoulder_attributed_to_mds_stall() {
        let mut d = StreamDiagnoser::new(DiagnoserConfig {
            window: 256,
            ..DiagnoserConfig::default()
        });
        // Meta reads stall 90x on a spread of ranks — the server, not a
        // serialized client.
        for i in 0..512u32 {
            let dur = if i % 10 == 0 { 0.9 } else { 0.01 };
            d.push(&rec(i % 16, CallKind::MetaRead, dur, 0));
        }
        let t = d
            .findings()
            .iter()
            .find(|t| {
                matches!(
                    t.finding,
                    Finding::RightShoulder {
                        kind: CallKind::MetaRead,
                        ..
                    }
                )
            })
            .expect("meta shoulder fires");
        assert_eq!(
            t.finding.attribution(),
            Some(Attribution::single(FaultClass::MdsStall))
        );
    }

    #[test]
    fn metadata_storm_flagged_at_barrier() {
        let mut d = StreamDiagnoser::with_defaults();
        // Rank 0 issues 200 serialized 2KB writes; everyone else writes
        // big blocks.
        for i in 0..200u32 {
            let mut r = rec(0, CallKind::Write, 0.1, 0);
            r.bytes = 2048;
            r.start_ns = (i as f64 * 0.1 * 1e9) as u64;
            r.end_ns = r.start_ns + (0.1 * 1e9) as u64;
            d.push(&r);
        }
        for i in 0..256u32 {
            d.push(&rec(i, CallKind::Write, 0.5, 0));
        }
        d.phase_end(0);
        let t = d
            .findings()
            .iter()
            .find(|t| matches!(t.finding, Finding::MetadataShoulder { .. }))
            .expect("metadata storm fires at the barrier");
        match &t.finding {
            Finding::MetadataShoulder {
                rank, small_ops, ..
            } => {
                assert_eq!(*rank, 0);
                assert_eq!(*small_ops, 200);
            }
            _ => unreachable!(),
        }
        assert_eq!(
            t.finding.attribution(),
            Some(Attribution::single(FaultClass::MetadataStorm))
        );
    }

    /// The block path must raise byte-identical findings at identical
    /// stamps for every partitioning of the same stream — pathological
    /// streams included, so windows fill and verdicts fire mid-block.
    /// Blocks of one (`push`) are the reference.
    #[test]
    fn push_block_matches_push_for_any_partition() {
        let mk = || {
            StreamDiagnoser::new(DiagnoserConfig {
                window: 128,
                ..DiagnoserConfig::default()
            })
        };
        // A stream that trips several detectors: a shoulder + straggler
        // rank on reads, serialized metadata on rank 0, small writes,
        // phase-to-phase deterioration, and out-of-order phase stamps.
        let mut stream: Vec<Record> = Vec::new();
        for p in 0..4u32 {
            for i in 0..400u32 {
                let rank = i % 16;
                let dur = if rank == 3 {
                    0.9
                } else {
                    0.02 * (p + 1) as f64
                };
                stream.push(rec(rank, CallKind::Read, dur, p));
                if i % 3 == 0 {
                    stream.push(rec(0, CallKind::MetaWrite, 0.25, p));
                    stream.push(rec(0, CallKind::MetaWrite, 0.20, p));
                }
                if i % 5 == 0 {
                    let mut w = rec(rank, CallKind::Write, 0.1, p);
                    w.bytes = 2048;
                    w.start_ns = (i as u64) * 1_000_000;
                    w.end_ns = w.start_ns + 100_000_000;
                    stream.push(w);
                }
                if i % 7 == 0 {
                    // A phase stamp from the past (late arrival).
                    stream.push(rec(rank, CallKind::Read, 0.03, p.saturating_sub(1)));
                }
            }
        }
        let mut reference = mk();
        for r in &stream {
            reference.push(r);
        }
        reference.phase_end(1);
        for r in &stream {
            reference.push(r);
        }
        reference.finish();
        assert!(!reference.findings().is_empty());
        for block in [2usize, 7, 64, 333, stream.len()] {
            let mut d = mk();
            for c in stream.chunks(block) {
                d.push_block(c);
            }
            d.phase_end(1);
            for c in stream.chunks(block) {
                d.push_block(c);
            }
            d.finish();
            assert_eq!(
                d.findings(),
                reference.findings(),
                "block size {block} diverged"
            );
            assert_eq!(d.records(), reference.records());
            assert_eq!(d.evidence, reference.evidence, "block size {block}");
        }
    }

    /// The evidence the block path accumulates equals a per-record
    /// reference built from each sketch's own adds (heavy hitters one
    /// record at a time, tail profiles classified in the log domain),
    /// on a stream of every call kind with scattered offsets, small
    /// writes, metadata runs and interleaved phases; and the metadata
    /// hitters stay capped at `hitter_capacity` when more ranks than
    /// that touch metadata.
    #[test]
    fn evidence_matches_per_record_reference() {
        let recs: Vec<Record> = (0..1200u64)
            .map(|i| {
                let x = i.wrapping_mul(6364136223846793005).wrapping_add(17);
                let mut r = rec(
                    (x % 64) as u32,
                    CallKind::ALL[(x % 12) as usize],
                    1e-4 * (1 + (x >> 16) % 40_010) as f64,
                    ((x >> 32) % 4) as u32,
                );
                r.bytes = ((x >> 8) % 5) << 11;
                r.offset = (x >> 3) % (1 << 30);
                r.start_ns = (x >> 5) % 1_000_000_000;
                r.end_ns = r.start_ns + ((x >> 16) % 40_010) * 100_000;
                r
            })
            .collect();
        let cfg = DiagnoserConfig::default();
        let th = &cfg.thresholds;
        let mut reference = Evidence::new(&cfg);
        for r in &recs {
            let secs = r.secs();
            if matches!(r.call, CallKind::MetaRead | CallKind::MetaWrite) {
                reference.meta_hitters.add(r.rank, secs);
                reference.meta_secs += secs;
            }
            if r.call.is_io() {
                reference.io_secs += secs;
            }
            if TAIL_KINDS.contains(&r.call) {
                reference.profiles[r.call as usize]
                    .get_or_insert_with(|| TailProfile::new(th.stripe_bytes))
                    .add(r.rank, r.offset, secs);
            }
            reference.small.accumulate(r, th.small_write_bytes);
        }
        assert!(reference.profiles.iter().flatten().count() > 1);
        assert!(reference.small.ops > 0);
        let meta_ranks: HashSet<u32> = recs
            .iter()
            .filter(|r| matches!(r.call, CallKind::MetaRead | CallKind::MetaWrite))
            .map(|r| r.rank)
            .collect();
        assert!(meta_ranks.len() > cfg.hitter_capacity);
        assert_eq!(reference.meta_hitters.tracked(), cfg.hitter_capacity);
        for block in [1usize, 3, 17, 256, recs.len()] {
            let mut d = StreamDiagnoser::new(cfg.clone());
            for c in recs.chunks(block) {
                d.push_block(c);
            }
            assert_eq!(d.evidence, reference, "block size {block}");
        }
    }

    #[test]
    fn finish_flushes_partial_windows() {
        let mut d = StreamDiagnoser::new(DiagnoserConfig {
            window: 100_000,
            ..DiagnoserConfig::default()
        });
        for i in 0..120u32 {
            let dur = if i % 8 == 0 { 300.0 } else { 12.0 };
            d.push(&rec(i % 16, CallKind::Read, dur, 0));
        }
        assert!(d.findings().is_empty());
        d.finish();
        assert!(
            d.findings()
                .iter()
                .any(|t| matches!(t.finding, Finding::RightShoulder { .. })),
            "{:?}",
            d.findings()
        );
    }
}
