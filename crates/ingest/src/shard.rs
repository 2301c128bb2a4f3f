//! Per-shard accumulators and the merged ensemble snapshot.
//!
//! A shard is keyed by `(call kind, rank group, barrier phase)` and holds
//! only mergeable sketches, so a snapshot's memory is O(shards × bins)
//! regardless of how many events stream through. An
//! [`EnsembleSnapshot`] is the order-independent merge of every shard,
//! plus the global scalars, metadata heavy hitters and per-kind tail
//! profiles: an ensemble, not a diagnosis. A run's verdict comes from the
//! [`StreamDiagnoser`](crate::StreamDiagnoser) that owns the stream's
//! [`SnapshotBuilder`] and reads its whole-run evidence from it.
//! Snapshots of many jobs merge into the fleet roll-up, which carries
//! no verdict of its own: its rank cells pool the ranks of every tenant.
//!
//! A builder takes records through one path,
//! [`SnapshotBuilder::accumulate_block`] (its [`RecordSink::push_block`]):
//! one table classification per record, bit-identical for any block
//! partition. The log-domain [`ShardStats::accumulate`] stays as the
//! reference that classification is tested against.

use crate::sketch::{HeavyHitters, OnlineMoments, QuantileSketch};
use pio_core::attribution::{
    tail_bin_table, TailProfile, FINE_HIST_BINS, MODULI, TAIL_HIST_HI, TAIL_HIST_LO, TAIL_KINDS,
};
use pio_core::diagnosis::{
    metadata_shoulder_verdict, serialized_meta_verdict, Finding, Thresholds,
};
use pio_des::hist::{BinTable, LogBins, LogHistogram};
use pio_des::FxHashMap;
use pio_trace::{CallKind, Record, RecordSink};

/// Number of call classes (shard slots are direct-indexed by
/// `call as usize`).
const KINDS: usize = CallKind::ALL.len();

/// "No shard yet" marker in the per-`(kind, group)` direct index.
const NO_SHARD: u32 = u32::MAX;

/// Cumulative small-write size-class aggregate — the snapshot-side state
/// behind the metadata-storm detector. Mergeable and order-independent
/// like every other snapshot component.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallWriteAgg {
    /// Write-direction operations below the small-write cut.
    pub ops: u64,
    /// Seconds spent in the small class.
    pub secs: f64,
    /// Seconds spent in *all* write-direction calls.
    pub write_secs: f64,
    /// Small-class seconds by rank (weighted heavy hitters).
    pub per_rank: HeavyHitters,
    /// Earliest small-class start, nanoseconds.
    pub first_ns: u64,
    /// Latest small-class end, nanoseconds.
    pub last_ns: u64,
}

impl SmallWriteAgg {
    /// An empty aggregate with the given heavy-hitter capacity.
    pub fn new(hitter_capacity: usize) -> Self {
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
    pub fn accumulate(&mut self, r: &Record, small_write_bytes: u64) {
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

    /// Merge another aggregate.
    pub fn merge(&mut self, other: &SmallWriteAgg) {
        self.ops += other.ops;
        self.secs += other.secs;
        self.write_secs += other.write_secs;
        self.per_rank.merge(&other.per_rank);
        self.first_ns = self.first_ns.min(other.first_ns);
        self.last_ns = self.last_ns.max(other.last_ns);
    }

    /// Wall-clock span of the small class, seconds.
    pub fn span_secs(&self) -> f64 {
        if self.last_ns > self.first_ns {
            (self.last_ns - self.first_ns) as f64 / 1e9
        } else {
            0.0
        }
    }

    /// The heaviest small-writer: `(rank, seconds)`.
    pub fn top(&self) -> Option<(u32, f64)> {
        self.per_rank.top().first().map(|h| (h.key, h.weight))
    }

    /// The metadata-storm verdict over this aggregate.
    pub(crate) fn verdict(&self, th: &Thresholds) -> Option<Finding> {
        metadata_shoulder_verdict(
            self.ops,
            self.secs,
            self.write_secs,
            self.top(),
            self.span_secs(),
            th,
        )
    }
}

/// Rough resident size in bytes of a snapshot's components — the tenant
/// budget's currency. Bounded by shards × bins, tracked hitters, and
/// profiled ranks and moduli, never by the record count.
fn approx_bytes<'a>(
    shards: &[(ShardKey, ShardStats)],
    hitters: &HeavyHitters,
    profiles: impl Iterator<Item = &'a TailProfile>,
) -> usize {
    let bins = pio_core::attribution::TAIL_HIST_BINS;
    shards
        .iter()
        .map(|(_, s)| {
            std::mem::size_of::<(ShardKey, ShardStats)>()
                + s.hist.bins() * std::mem::size_of::<u64>()
                + s.sketch.geometry().bins()
                    * (std::mem::size_of::<u64>() + std::mem::size_of::<f64>())
        })
        .sum::<usize>()
        + hitters.tracked() * std::mem::size_of::<(u32, f64, u64)>()
        + profiles
            .map(|p| {
                // Per-rank cells plus the fixed residue tables.
                p.ranks_observed() * (bins + 2) * std::mem::size_of::<u64>()
                    + MODULI.iter().sum::<usize>() * bins * std::mem::size_of::<u64>()
            })
            .sum::<usize>()
}

/// Which accumulator a record lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardKey {
    /// The intercepted call.
    pub kind: CallKind,
    /// Rank group (`rank % groups`) — coarse spatial resolution.
    pub group: u32,
    /// Barrier-phase index.
    pub phase: u32,
}

impl ShardKey {
    /// The snapshot's shard order: kind, then group, then phase.
    fn order(&self) -> (u8, u32, u32) {
        (self.kind as u8, self.group, self.phase)
    }
}

/// The mergeable statistics one shard accumulates.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Duration histogram (clamped, capture-style).
    pub hist: LogHistogram,
    /// Duration quantile sketch.
    pub sketch: QuantileSketch,
    /// Duration moments (mean/variance/skew/kurtosis).
    pub moments: OnlineMoments,
    /// Operation count.
    pub ops: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Total seconds spent in the call class.
    pub secs: f64,
}

impl ShardStats {
    /// An empty shard over the given duration geometry.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        ShardStats {
            hist: LogHistogram::new(lo, hi, bins),
            sketch: QuantileSketch::new(lo, hi, bins),
            moments: OnlineMoments::new(),
            ops: 0,
            bytes: 0,
            secs: 0.0,
        }
    }

    /// Accumulate one record, its duration classified by the
    /// geometry's log-domain arithmetic ([`LogBins::index_clamped`]).
    pub fn accumulate(&mut self, r: &Record) {
        let secs = r.secs();
        self.accumulate_binned(r, secs, self.hist.geometry().index_clamped(secs));
    }

    /// Accumulate one record whose duration bin is already classified
    /// (`bin` from a [`BinTable`] over this shard's geometry): one table
    /// lookup serves the histogram and the sketch, which debug-asserts
    /// the bin against [`LogBins`].
    #[inline]
    pub fn accumulate_binned(&mut self, r: &Record, secs: f64, bin: usize) {
        self.hist.add_clamped_at(bin);
        self.sketch.add_at(secs, bin);
        self.moments.record(secs);
        self.ops += 1;
        self.bytes += r.bytes;
        self.secs += secs;
    }

    /// Merge another shard (same geometry); equivalent to having
    /// accumulated both record streams into one shard.
    pub fn merge(&mut self, other: &ShardStats) {
        self.hist.merge(&other.hist);
        self.sketch.merge(&other.sketch);
        self.moments.merge(&other.moments);
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.secs += other.secs;
    }
}

/// Geometry and capacity knobs shared by every snapshot accumulator —
/// `analyze --stream`, a fleet tenant, or a test harness. Two
/// accumulators are mergeable exactly when they share one of these.
#[derive(Debug, Clone)]
pub struct SnapshotConfig {
    /// Rank groups for shard keys (`rank % rank_groups`).
    pub rank_groups: u32,
    /// Duration geometry: lower bound, seconds.
    pub hist_lo: f64,
    /// Duration geometry: upper bound, seconds.
    pub hist_hi: f64,
    /// Duration geometry: bucket count.
    pub hist_bins: usize,
    /// Heavy-hitter sketch capacity (tracked ranks).
    pub hitter_capacity: usize,
    /// Writes strictly below this byte count feed the small-write
    /// (metadata-storm) aggregate.
    pub small_write_bytes: u64,
    /// Stripe width for the per-target residue decomposition in the
    /// tail profiles.
    pub stripe_bytes: u64,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        let th = Thresholds::default();
        SnapshotConfig {
            rank_groups: 8,
            hist_lo: TAIL_HIST_LO,
            hist_hi: TAIL_HIST_HI,
            hist_bins: FINE_HIST_BINS,
            hitter_capacity: 16,
            small_write_bytes: th.small_write_bytes,
            stripe_bytes: th.stripe_bytes,
        }
    }
}

/// The sequential snapshot accumulator: one record stream in, an
/// [`EnsembleSnapshot`] out, in `O(shards × bins)` memory. Every
/// [`StreamDiagnoser`](crate::StreamDiagnoser) owns one and reads its
/// whole-run evidence from it, so `analyze --stream` and a fleet tenant
/// keep one accumulator per stream; as a [`RecordSink`] it also stands
/// alone. Builders over the same [`SnapshotConfig`] merge freely through
/// [`EnsembleSnapshot::merge`].
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    cfg: SnapshotConfig,
    /// Bit-exact bin classifier for the configured duration geometry,
    /// shared process-wide ([`BinTable::shared`]).
    pub(crate) table: &'static BinTable,
    /// Classifier for the tail-profile geometry ([`tail_bin_table`]),
    /// looked up once here so the block path takes no lock.
    tail_table: &'static BinTable,
    /// The configured geometry is the tail geometry at exactly double
    /// resolution (same range, 2× bins): a tail bin is the configured
    /// bin halved — `floor(f·2n)/2 = floor(f·n)` exactly, range checks
    /// and edge clamps included — saving the second lookup per record.
    tail_nested: bool,
    /// Dense shard storage; order is insertion order (the snapshot
    /// assembly sorts, so storage order is unobservable).
    shards: Vec<(ShardKey, ShardStats)>,
    /// Direct index: slot `(kind as usize) * rank_groups + group` holds
    /// the position of that slot's most-recently-touched phase's shard
    /// (`NO_SHARD` when untouched). Streams revisit the same `(kind,
    /// group)` within a phase run, so the common case is one array read.
    index: Vec<u32>,
    /// Complete key → position fallback for phase changes (fast
    /// non-SipHash hashing; never on the per-record fast path).
    lookup: FxHashMap<ShardKey, u32>,
    hitters: HeavyHitters,
    profiles: Vec<Option<TailProfile>>,
    small: SmallWriteAgg,
    meta_secs: f64,
    io_secs: f64,
    ranks: u32,
    ingested: u64,
    /// Scratch buffer for grouped heavy-hitter runs (reused per block).
    run_buf: Vec<f64>,
}

impl SnapshotBuilder {
    /// An empty builder over `cfg`'s geometry.
    pub fn new(cfg: SnapshotConfig) -> Self {
        let groups = cfg.rank_groups.max(1) as usize;
        let tail_table = tail_bin_table();
        SnapshotBuilder {
            hitters: HeavyHitters::new(cfg.hitter_capacity),
            small: SmallWriteAgg::new(cfg.hitter_capacity),
            table: BinTable::shared(LogBins::new(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins)),
            tail_table,
            tail_nested: {
                let tg = tail_table.geometry();
                cfg.hist_lo == tg.lo() && cfg.hist_hi == tg.hi() && cfg.hist_bins == 2 * tg.bins()
            },
            shards: Vec::new(),
            index: vec![NO_SHARD; KINDS * groups],
            lookup: FxHashMap::default(),
            profiles: (0..KINDS).map(|_| None).collect(),
            meta_secs: 0.0,
            io_secs: 0.0,
            ranks: 0,
            ingested: 0,
            cfg,
            run_buf: Vec::new(),
        }
    }

    /// Position of the shard for `(kind, group, phase)`, creating it on
    /// first touch. One array read when the slot's cached phase matches;
    /// a hash lookup only on phase change.
    #[inline]
    fn shard_pos(&mut self, kind: CallKind, group: u32, phase: u32) -> usize {
        let groups = self.cfg.rank_groups.max(1) as usize;
        let slot = kind as usize * groups + group as usize;
        let cached = self.index[slot];
        if cached != NO_SHARD && self.shards[cached as usize].0.phase == phase {
            return cached as usize;
        }
        let key = ShardKey { kind, group, phase };
        let pos = match self.lookup.get(&key) {
            Some(&p) => p,
            None => {
                let p = self.shards.len() as u32;
                self.shards.push((
                    key,
                    ShardStats::new(self.cfg.hist_lo, self.cfg.hist_hi, self.cfg.hist_bins),
                ));
                self.lookup.insert(key, p);
                p
            }
        };
        self.index[slot] = pos;
        pos as usize
    }

    /// Accumulate a block of records into every snapshot component —
    /// the builder's one ingest path, bit-identical for any partition of
    /// the stream. One [`BinTable`] classification per record serves the
    /// shard histogram and quantile sketch, and (halved, or through
    /// [`tail_bin_table`]) the attribution profile — no `ln` per record
    /// — and heavy-hitter updates are grouped by key run before hashing.
    pub fn accumulate_block(&mut self, block: &[Record]) {
        self.add_meta_runs(block);
        for r in block {
            let secs = r.secs();
            let bin = self.table.index_clamped(secs);
            self.accumulate_binned(r, secs, bin);
        }
    }

    /// The block path's first pass: metadata heavy hitters, grouped by
    /// rank run over the block's metadata subsequence. The sketch sees
    /// the same per-key weight sequence as per-record adds, and it is
    /// only *read* between blocks (at phase boundaries and snapshots),
    /// so hoisting it ahead of the record loop is unobservable.
    pub(crate) fn add_meta_runs(&mut self, block: &[Record]) {
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
            self.hitters.add_run(key, &run);
        }
        self.run_buf = run;
    }

    /// The block path's per-record step — every component except the
    /// metadata heavy hitters ([`Self::add_meta_runs`]) — for a record
    /// whose duration `secs` falls in `bin` of the configured geometry.
    /// Returns the record's bin in the tail-profile geometry, so a
    /// caller classifies each record once.
    #[inline]
    pub(crate) fn accumulate_binned(&mut self, r: &Record, secs: f64, bin: usize) -> usize {
        let group = r.rank % self.cfg.rank_groups.max(1);
        let pos = self.shard_pos(r.call, group, r.phase);
        self.shards[pos].1.accumulate_binned(r, secs, bin);
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
            let stripe = self.cfg.stripe_bytes;
            self.profiles[r.call as usize]
                .get_or_insert_with(|| TailProfile::new(stripe))
                .add_binned(r.rank, r.offset, secs, tail_bin);
        }
        self.small.accumulate(r, self.cfg.small_write_bytes);
        self.ranks = self.ranks.max(r.rank + 1);
        self.ingested += 1;
        tail_bin
    }

    /// The whole-run tail profile of one call class (profiled classes
    /// are [`TAIL_KINDS`]), once a record of it has arrived.
    pub(crate) fn profile(&self, kind: CallKind) -> Option<&TailProfile> {
        self.profiles[kind as usize].as_ref()
    }

    /// The serialized-metadata-rank verdict over everything so far, from
    /// the whole-run metadata heavy hitters and time totals.
    pub(crate) fn serialized_verdict(&self, th: &Thresholds) -> Option<Finding> {
        let per_rank: Vec<(u32, f64, usize)> = self
            .hitters
            .top()
            .into_iter()
            .map(|h| (h.key, h.weight, h.ops as usize))
            .collect();
        serialized_meta_verdict(&per_rank, self.meta_secs, self.ranks, self.io_secs, th)
    }

    /// The small-write size-class aggregate so far.
    pub(crate) fn small(&self) -> &SmallWriteAgg {
        &self.small
    }

    /// Records accumulated so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// The geometry this builder accumulates under.
    pub fn config(&self) -> &SnapshotConfig {
        &self.cfg
    }

    /// Rough resident size in bytes — the budget-enforcement currency,
    /// equal to the size of the snapshot it would produce. `O(shards)`
    /// to compute; bounded by shards × bins, never by the record count
    /// (see the bounded-memory tests).
    pub fn approx_bytes(&self) -> usize {
        approx_bytes(&self.shards, &self.hitters, self.profiles.iter().flatten())
    }

    /// Snapshot the current state (cloning the builder); `dropped` is
    /// the caller's shed-record count for this stream.
    pub fn snapshot(&self, dropped: u64) -> EnsembleSnapshot {
        self.clone().into_snapshot(dropped)
    }

    /// Consume the builder into its final snapshot without cloning. A
    /// builder holds one shard per key, so assembly is a sort of the
    /// shard store by key plus the kind-indexed profiles in kind order.
    pub fn into_snapshot(mut self, dropped: u64) -> EnsembleSnapshot {
        self.shards.sort_unstable_by_key(|(k, _)| k.order());
        EnsembleSnapshot {
            shards: self.shards,
            meta_hitters: self.hitters,
            meta_secs: self.meta_secs,
            io_secs: self.io_secs,
            ranks: self.ranks,
            ingested: self.ingested,
            dropped,
            profiles: CallKind::ALL
                .into_iter()
                .zip(self.profiles)
                .filter_map(|(k, p)| p.map(|p| (k, p)))
                .collect(),
            small: self.small,
        }
    }
}

/// A builder consumes a record stream directly: `push_block` is
/// [`SnapshotBuilder::accumulate_block`]. Phase marks and end of stream
/// carry nothing a snapshot keeps (phases are read off the records).
impl RecordSink for SnapshotBuilder {
    fn push_block(&mut self, block: &[Record]) {
        self.accumulate_block(block);
    }
}

/// The merged, order-independent view of everything ingested so far.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSnapshot {
    /// Every populated shard, sorted for deterministic iteration.
    pub shards: Vec<(ShardKey, ShardStats)>,
    /// Metadata-time heavy hitters by rank.
    pub meta_hitters: HeavyHitters,
    /// Total metadata seconds (exact).
    pub meta_secs: f64,
    /// Total I/O seconds across data + metadata calls (exact).
    pub io_secs: f64,
    /// Number of ranks observed (max rank + 1).
    pub ranks: u32,
    /// Records ingested.
    pub ingested: u64,
    /// Records dropped by the overflow policy.
    pub dropped: u64,
    /// Per-call-class tail profiles for attribution, sorted by kind.
    pub profiles: Vec<(CallKind, TailProfile)>,
    /// Small-write size-class aggregate (metadata-storm detection).
    pub small: SmallWriteAgg,
}

impl EnsembleSnapshot {
    /// An empty snapshot over `cfg`'s capacities — the identity of
    /// [`EnsembleSnapshot::merge`].
    pub fn empty(cfg: &SnapshotConfig) -> Self {
        EnsembleSnapshot {
            shards: Vec::new(),
            meta_hitters: HeavyHitters::new(cfg.hitter_capacity),
            meta_secs: 0.0,
            io_secs: 0.0,
            ranks: 0,
            ingested: 0,
            dropped: 0,
            profiles: Vec::new(),
            small: SmallWriteAgg::new(cfg.hitter_capacity),
        }
    }

    /// No records were ingested (a zero-record stream; dropped records
    /// may still have been counted).
    pub fn is_empty(&self) -> bool {
        self.ingested == 0
    }

    /// Merge another snapshot into this one — the fleet roll-up law.
    ///
    /// Equivalent to having accumulated both record streams into one
    /// snapshot: exact fields (histograms, counts, bytes) are
    /// order-independent outright; f64 accumulators merge in call order,
    /// so a roll-up that folds snapshots in a canonical order (e.g.
    /// sorted by job id) is bit-deterministic. Both snapshots must share
    /// one [`SnapshotConfig`] geometry. `ranks` merges as a maximum:
    /// tenants each number their ranks from zero, so the roll-up's rank
    /// count is the widest job, not a sum.
    ///
    /// Both shard lists are sorted by key, so one walk merges every
    /// shared key in place; keys only `other` has are appended and the
    /// list re-sorted, so the accumulator is never rebuilt.
    pub fn merge(&mut self, other: &EnsembleSnapshot) {
        let mut only_other = Vec::new();
        let mut i = 0;
        for (k, s) in &other.shards {
            while i < self.shards.len() && self.shards[i].0.order() < k.order() {
                i += 1;
            }
            match self.shards.get_mut(i) {
                Some((mine, stats)) if mine == k => {
                    stats.merge(s);
                    i += 1;
                }
                _ => only_other.push((*k, s.clone())),
            }
        }
        if !only_other.is_empty() {
            self.shards.extend(only_other);
            self.shards.sort_unstable_by_key(|(k, _)| k.order());
        }
        for (k, p) in &other.profiles {
            match self.profiles.iter_mut().find(|(pk, _)| pk == k) {
                Some((_, mine)) => mine.merge(p),
                None => self.profiles.push((*k, p.clone())),
            }
        }
        self.profiles.sort_by_key(|(k, _)| *k as u8);
        self.meta_hitters.merge(&other.meta_hitters);
        self.small.merge(&other.small);
        self.meta_secs += other.meta_secs;
        self.io_secs += other.io_secs;
        self.ranks = self.ranks.max(other.ranks);
        self.ingested += other.ingested;
        self.dropped += other.dropped;
    }

    /// Merge every shard of one call class, across groups and phases.
    pub fn kind_stats(&self, kind: CallKind) -> Option<ShardStats> {
        let mut acc: Option<ShardStats> = None;
        for (k, s) in &self.shards {
            if k.kind != kind {
                continue;
            }
            match &mut acc {
                Some(a) => a.merge(s),
                None => acc = Some(s.clone()),
            }
        }
        acc
    }

    /// Rough resident size of the snapshot in bytes — the bounded-memory
    /// invariant is `O(shards × bins)`, independent of record count.
    pub fn approx_bytes(&self) -> usize {
        approx_bytes(
            &self.shards,
            &self.meta_hitters,
            self.profiles.iter().map(|(_, p)| p),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn rec(rank: u32, call: CallKind, bytes: u64, dur: f64, phase: u32) -> Record {
        Record {
            rank,
            call,
            fd: 3,
            offset: 0,
            bytes,
            start_ns: 0,
            end_ns: (dur * 1e9) as u64,
            phase,
        }
    }

    fn snapshot_of(records: &[Record], groups: u32) -> EnsembleSnapshot {
        let cfg = SnapshotConfig {
            rank_groups: groups,
            hitter_capacity: 8,
            ..SnapshotConfig::default()
        };
        assemble_reference(records, &cfg)
    }

    /// A snapshot accumulated per record into keyed maps under `cfg`,
    /// then sorted by key — the reference the builder's slot-indexed
    /// accumulation and sort-based assembly must equal.
    fn assemble_reference(records: &[Record], cfg: &SnapshotConfig) -> EnsembleSnapshot {
        let mut map: HashMap<ShardKey, ShardStats> = HashMap::new();
        let mut hitters = HeavyHitters::new(cfg.hitter_capacity);
        let mut profiles: HashMap<CallKind, TailProfile> = HashMap::new();
        let mut small = SmallWriteAgg::new(cfg.hitter_capacity);
        let (mut meta_secs, mut io_secs) = (0.0, 0.0);
        let mut ranks = 0;
        for r in records {
            let key = ShardKey {
                kind: r.call,
                group: r.rank % cfg.rank_groups,
                phase: r.phase,
            };
            map.entry(key)
                .or_insert_with(|| ShardStats::new(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins))
                .accumulate(r);
            if matches!(r.call, CallKind::MetaRead | CallKind::MetaWrite) {
                hitters.add(r.rank, r.secs());
                meta_secs += r.secs();
            }
            if r.call.is_io() {
                io_secs += r.secs();
            }
            if pio_core::attribution::TAIL_KINDS.contains(&r.call) {
                profiles
                    .entry(r.call)
                    .or_insert_with(|| TailProfile::new(cfg.stripe_bytes))
                    .add(r.rank, r.offset, r.secs());
            }
            small.accumulate(r, cfg.small_write_bytes);
            ranks = ranks.max(r.rank + 1);
        }
        let mut shards: Vec<(ShardKey, ShardStats)> = map.into_iter().collect();
        shards.sort_by_key(|(k, _)| k.order());
        let mut profiles: Vec<(CallKind, TailProfile)> = profiles.into_iter().collect();
        profiles.sort_by_key(|(k, _)| *k as u8);
        EnsembleSnapshot {
            shards,
            meta_hitters: hitters,
            meta_secs,
            io_secs,
            ranks,
            ingested: records.len() as u64,
            dropped: 0,
            profiles,
            small,
        }
    }

    #[test]
    fn shard_merge_equals_union() {
        let recs: Vec<Record> = (0..200)
            .map(|i| rec(i % 8, CallKind::Read, 1 << 20, 0.01 * (i + 1) as f64, 0))
            .collect();
        let mut a = ShardStats::new(1e-6, 1e3, 96);
        let mut b = a.clone();
        let mut whole = a.clone();
        for (i, r) in recs.iter().enumerate() {
            if i % 2 == 0 {
                a.accumulate(r);
            } else {
                b.accumulate(r);
            }
            whole.accumulate(r);
        }
        a.merge(&b);
        assert_eq!(a.hist, whole.hist);
        assert_eq!(a.sketch.count(), whole.sketch.count());
        assert_eq!(a.ops, whole.ops);
        assert_eq!(a.bytes, whole.bytes);
        assert!((a.secs - whole.secs).abs() < 1e-9);
        assert!((a.moments.mean().unwrap() - whole.moments.mean().unwrap()).abs() < 1e-12);
    }

    /// A default-shape builder fed `records` in blocks of one.
    fn build(records: &[Record]) -> SnapshotBuilder {
        let mut b = SnapshotBuilder::new(SnapshotConfig::default());
        for r in records {
            b.push(r);
        }
        b
    }

    /// Canonical roll-up: fold per-job snapshots in job-id order — the
    /// fleet's merge discipline.
    fn rollup(jobs: &[(u64, EnsembleSnapshot)]) -> EnsembleSnapshot {
        let mut sorted: Vec<&(u64, EnsembleSnapshot)> = jobs.iter().collect();
        sorted.sort_by_key(|(id, _)| *id);
        let mut acc = EnsembleSnapshot::empty(&SnapshotConfig::default());
        for (_, s) in sorted {
            acc.merge(s);
        }
        acc
    }

    #[test]
    fn builder_snapshot_matches_assemble_reference() {
        let recs: Vec<Record> = (0..600u32)
            .map(|i| {
                rec(
                    i % 16,
                    CallKind::ALL[(i % 12) as usize],
                    (i as u64 % 5) << 18,
                    1e-3 * (1 + i % 311) as f64,
                    i / 150,
                )
            })
            .collect();
        let snap = build(&recs).into_snapshot(0);
        assert_eq!(snap.ingested, 600);
        assert_eq!(snap.ranks, 16);
        // The cloning snapshot and the consuming one agree.
        let reference = build(&recs).snapshot(0);
        assert_eq!(snap, reference);
        // Both equal the map-and-sort reference under the builder's own
        // configuration (8 rank groups, hitter capacity 16).
        let cfg = SnapshotConfig::default();
        assert_eq!((cfg.rank_groups, cfg.hitter_capacity), (8, 16));
        assert!(snap.shards.len() > 1 && snap.profiles.len() > 1);
        assert_eq!(snap, assemble_reference(&recs, &cfg));
    }

    /// One size formula: a builder reports the size of the snapshot it
    /// would produce, on a stream with several shards and tail profiles
    /// and more metadata ranks than the hitter capacity.
    #[test]
    fn builder_and_snapshot_approx_bytes_agree() {
        let recs: Vec<Record> = (0..960u32)
            .map(|i| {
                rec(
                    i % 64,
                    CallKind::ALL[(i % 12) as usize],
                    (i as u64 % 3) << 12,
                    1e-3 * (1 + i % 53) as f64,
                    i / 240,
                )
            })
            .collect();
        let b = build(&recs);
        let snap = b.snapshot(0);
        assert!(snap.shards.len() > 1 && snap.profiles.len() > 1);
        let meta_ranks: std::collections::HashSet<u32> = recs
            .iter()
            .filter(|r| matches!(r.call, CallKind::MetaRead | CallKind::MetaWrite))
            .map(|r| r.rank)
            .collect();
        assert!(meta_ranks.len() > b.config().hitter_capacity);
        assert_eq!(snap.meta_hitters.tracked(), b.config().hitter_capacity);
        assert_eq!(b.approx_bytes(), snap.approx_bytes());
    }

    /// The block path must produce a byte-identical snapshot for every
    /// partitioning of the same stream — including interleaved phases
    /// (late arrivals) and metadata runs. Blocks of one are the
    /// reference, and they equal the map-and-sort reference.
    #[test]
    fn accumulate_block_matches_blocks_of_one() {
        let recs: Vec<Record> = (0..1200u32)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(17);
                let mut r = rec(
                    (x % 24) as u32,
                    CallKind::ALL[(x % 12) as usize],
                    ((x >> 8) % 5) << 11,
                    1e-4 * (1 + (x >> 16) % 40_010) as f64,
                    ((x >> 32) % 4) as u32,
                );
                r.offset = (x >> 3) % (1 << 30);
                r.start_ns = (x >> 5) % 1_000_000_000;
                r.end_ns = r.start_ns + ((x >> 16) % 40_010) * 100_000;
                r
            })
            .collect();
        let reference = build(&recs).into_snapshot(0);
        assert_eq!(
            reference,
            assemble_reference(&recs, &SnapshotConfig::default())
        );
        for block in [3usize, 17, 256, recs.len()] {
            let mut b = SnapshotBuilder::new(SnapshotConfig::default());
            for c in recs.chunks(block) {
                b.accumulate_block(c);
            }
            assert_eq!(b.ingested(), reference.ingested);
            assert_eq!(b.into_snapshot(0), reference, "block size {block} diverged");
        }
        // Mixed single-record and block accumulation also agrees.
        let mut mixed = SnapshotBuilder::new(SnapshotConfig::default());
        let (head, tail) = recs.split_at(311);
        for r in head {
            mixed.push(r);
        }
        mixed.accumulate_block(tail);
        assert_eq!(mixed.into_snapshot(0), reference);
    }

    #[test]
    fn snapshot_merge_equals_union() {
        let recs: Vec<Record> = (0..900u32)
            .map(|i| {
                rec(
                    i % 24,
                    CallKind::ALL[(i % 12) as usize],
                    1 << 18,
                    1e-3 * (1 + i % 97) as f64,
                    i / 300,
                )
            })
            .collect();
        let whole = build(&recs).into_snapshot(0);
        let (a, b) = recs.split_at(411);
        let mut merged = build(a).into_snapshot(0);
        merged.merge(&build(b).into_snapshot(0));
        // Exact components are bit-identical; f64 accumulators agree to
        // rounding (different grouping of the same sums).
        assert_eq!(merged.ingested, whole.ingested);
        assert_eq!(merged.ranks, whole.ranks);
        assert_eq!(merged.shards.len(), whole.shards.len());
        for ((ka, sa), (kb, sb)) in merged.shards.iter().zip(&whole.shards) {
            assert_eq!(ka, kb);
            assert_eq!(sa.hist, sb.hist);
            assert_eq!(sa.ops, sb.ops);
            assert_eq!(sa.bytes, sb.bytes);
            assert!((sa.secs - sb.secs).abs() <= 1e-9 * sb.secs.abs().max(1.0));
        }
        assert!((merged.meta_secs - whole.meta_secs).abs() < 1e-9);
        assert!((merged.io_secs - whole.io_secs).abs() < 1e-9);
        assert_eq!(merged.small.ops, whole.small.ops);
    }

    #[test]
    fn empty_snapshot_is_merge_identity() {
        let recs: Vec<Record> = (0..300u32)
            .map(|i| {
                rec(
                    i % 8,
                    CallKind::Read,
                    1 << 20,
                    0.01 * (1 + i % 40) as f64,
                    0,
                )
            })
            .collect();
        let snap = build(&recs).into_snapshot(3);
        let mut left = EnsembleSnapshot::empty(&SnapshotConfig::default());
        left.merge(&snap);
        assert_eq!(left, snap);
        let mut right = snap.clone();
        right.merge(&EnsembleSnapshot::empty(&SnapshotConfig::default()));
        assert_eq!(right, snap);
        assert!(EnsembleSnapshot::empty(&SnapshotConfig::default()).is_empty());
        assert!(!snap.is_empty());
    }

    mod rollup_props {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic per-job record streams: job `j` gets `len`
        /// records shaped by the generator parameters.
        fn job_records(j: u64, len: usize) -> Vec<Record> {
            (0..len as u64)
                .map(|i| {
                    let x = i
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(j * 97 + 13);
                    rec(
                        (x % 24) as u32,
                        CallKind::ALL[(x % 12) as usize],
                        ((x >> 8) % 5) << 18,
                        1e-4 * (1 + (x >> 16) % 4001) as f64,
                        ((x >> 32) % 4) as u32,
                    )
                })
                .collect()
        }

        /// Fisher–Yates with an inline LCG: a deterministic permutation
        /// of the job list from one u64.
        fn permute<T>(items: &mut [T], mut seed: u64) {
            for i in (1..items.len()).rev() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                items.swap(i, (seed >> 33) as usize % (i + 1));
            }
        }

        /// The rebuild-style merge the in-place [`EnsembleSnapshot::merge`]
        /// replaced, kept as its oracle: every call walks both sorted
        /// shard lists into a fresh `Vec`.
        fn merge_rebuild(acc: &mut EnsembleSnapshot, other: &EnsembleSnapshot) {
            let key = |k: &ShardKey| (k.kind as u8, k.group, k.phase);
            let mut merged = Vec::with_capacity(acc.shards.len().max(other.shards.len()));
            let mut a = std::mem::take(&mut acc.shards).into_iter().peekable();
            let mut b = other.shards.iter().peekable();
            loop {
                match (a.peek(), b.peek()) {
                    (Some((ka, _)), Some((kb, _))) => match key(ka).cmp(&key(kb)) {
                        std::cmp::Ordering::Less => merged.push(a.next().expect("peeked")),
                        std::cmp::Ordering::Greater => {
                            let (k, s) = b.next().expect("peeked");
                            merged.push((*k, s.clone()));
                        }
                        std::cmp::Ordering::Equal => {
                            let (k, mut s) = a.next().expect("peeked");
                            s.merge(&b.next().expect("peeked").1);
                            merged.push((k, s));
                        }
                    },
                    (Some(_), None) => merged.push(a.next().expect("peeked")),
                    (None, Some(_)) => {
                        let (k, s) = b.next().expect("peeked");
                        merged.push((*k, s.clone()));
                    }
                    (None, None) => break,
                }
            }
            acc.shards = merged;
            let mut profiles = std::mem::take(&mut acc.profiles);
            for (k, p) in &other.profiles {
                match profiles.iter_mut().find(|(pk, _)| pk == k) {
                    Some((_, mine)) => mine.merge(p),
                    None => profiles.push((*k, p.clone())),
                }
            }
            profiles.sort_by_key(|(k, _)| *k as u8);
            acc.profiles = profiles;
            acc.meta_hitters.merge(&other.meta_hitters);
            acc.small.merge(&other.small);
            acc.meta_secs += other.meta_secs;
            acc.io_secs += other.io_secs;
            acc.ranks = acc.ranks.max(other.ranks);
            acc.ingested += other.ingested;
            acc.dropped += other.dropped;
        }

        proptest! {
            /// The in-place merge equals the rebuild oracle bit for bit
            /// (full `PartialEq`, f64 accumulators included) at every
            /// step of a fold, in both fold directions. Snapshot `i`
            /// streams its own records plus one anchor record per phase
            /// residue, keeping only phases not `≡ -(start + i) (mod 3)`,
            /// so consecutive snapshots always share keys (with
            /// different records behind them) and each hold keys the
            /// other lacks.
            #[test]
            fn in_place_merge_matches_rebuild_oracle(
                seed in 0u64..1 << 32,
                len in 20usize..300,
                n in 2usize..7,
                start in 0u32..3,
            ) {
                let snaps: Vec<EnsembleSnapshot> = (0..n as u32)
                    .map(|i| {
                        let shift = (start + i) % 3;
                        let mut recs = job_records(seed + u64::from(i), len);
                        for phase in 0..3 {
                            let secs = 1e-3 * (phase + 1) as f64;
                            recs.push(rec(phase, CallKind::Read, 1 << 18, secs, phase));
                        }
                        recs.retain(|r| (r.phase + shift) % 3 != 0);
                        build(&recs).into_snapshot(u64::from(i))
                    })
                    .collect();
                let keys = |s: &EnsembleSnapshot| -> std::collections::HashSet<ShardKey> {
                    s.shards.iter().map(|(k, _)| *k).collect()
                };
                let (left, right) = (keys(&snaps[0]), keys(&snaps[1]));
                prop_assert!(left.difference(&right).next().is_some());
                prop_assert!(right.difference(&left).next().is_some());
                prop_assert!(left.intersection(&right).next().is_some());

                let empty = EnsembleSnapshot::empty(&SnapshotConfig::default());
                for order in [snaps.clone(), snaps.iter().rev().cloned().collect()] {
                    let (mut fast, mut oracle) = (empty.clone(), empty.clone());
                    for s in &order {
                        fast.merge(s);
                        merge_rebuild(&mut oracle, s);
                        prop_assert_eq!(&fast, &oracle);
                    }
                    // A small accumulator absorbing a large one.
                    let (mut fast_small, mut oracle_small) = (order[0].clone(), order[0].clone());
                    fast_small.merge(&fast);
                    merge_rebuild(&mut oracle_small, &oracle);
                    prop_assert_eq!(fast_small, oracle_small);
                }
            }

            /// Satellite: fleet roll-up merges of per-job snapshots are
            /// order-invariant — the canonical (job-id-sorted) fold is
            /// bit-identical no matter how the snapshots were supplied.
            #[test]
            fn rollup_is_supply_order_invariant(
                n_jobs in 2usize..7,
                lens in proptest::collection::vec(1usize..120, 6),
                perm_seed in 0u64..u64::MAX,
            ) {
                let mut jobs: Vec<(u64, EnsembleSnapshot)> = (0..n_jobs)
                    .map(|j| {
                        let recs = job_records(j as u64, lens[j % lens.len()]);
                        (j as u64, build(&recs).into_snapshot(0))
                    })
                    .collect();
                let canonical = rollup(&jobs);
                permute(&mut jobs, perm_seed);
                prop_assert_eq!(rollup(&jobs), canonical);
            }

            /// Satellite: the roll-up is shard-count-invariant — splitting
            /// one job's stream across any number of sub-accumulators and
            /// merging leaves every exact component identical (and the
            /// f64 accumulators equal to rounding).
            #[test]
            fn rollup_is_shard_count_invariant(
                len in 50usize..400,
                splits in 1usize..6,
            ) {
                let recs = job_records(7, len);
                let whole = build(&recs).into_snapshot(0);
                let chunk = len.div_ceil(splits);
                let mut merged = EnsembleSnapshot::empty(&SnapshotConfig::default());
                for part in recs.chunks(chunk) {
                    merged.merge(&build(part).into_snapshot(0));
                }
                prop_assert_eq!(merged.ingested, whole.ingested);
                prop_assert_eq!(merged.ranks, whole.ranks);
                prop_assert_eq!(merged.shards.len(), whole.shards.len());
                for ((ka, sa), (kb, sb)) in merged.shards.iter().zip(&whole.shards) {
                    prop_assert_eq!(ka, kb);
                    prop_assert_eq!(&sa.hist, &sb.hist);
                    prop_assert_eq!(sa.ops, sb.ops);
                    prop_assert_eq!(sa.bytes, sb.bytes);
                    prop_assert!((sa.secs - sb.secs).abs() <= 1e-9 * sb.secs.abs().max(1.0));
                }
                prop_assert_eq!(merged.small.ops, whole.small.ops);
                prop_assert!((merged.meta_secs - whole.meta_secs).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn snapshot_memory_is_bounded_by_shards_not_records() {
        let few: Vec<Record> = (0..100u32)
            .map(|i| rec(i % 8, CallKind::Read, 1 << 20, 1.0, 0))
            .collect();
        let many: Vec<Record> = (0..50_000u32)
            .map(|i| {
                rec(
                    i % 8,
                    CallKind::Read,
                    1 << 20,
                    1.0 + (i % 100) as f64 * 0.01,
                    0,
                )
            })
            .collect();
        let (a, b) = (snapshot_of(&few, 4), snapshot_of(&many, 4));
        assert_eq!(a.approx_bytes(), b.approx_bytes());
        assert_eq!(b.ingested, 50_000);
    }
}
