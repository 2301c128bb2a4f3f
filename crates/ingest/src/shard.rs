//! Per-shard accumulators and the merged ensemble snapshot.
//!
//! A shard is keyed by `(call kind, rank group, barrier phase)` and holds
//! only mergeable sketches, so a snapshot's memory is O(shards × bins)
//! however many events stream through and however many ranks produce
//! them. Its duration histogram is its quantile sketch's counts
//! ([`ShardStats::hist`]), and the sketch stores only the buckets its
//! records touched, so a shard of a healthy, few-moded ensemble holds a
//! handful of buckets, not the geometry's 96. The tenant budget still
//! charges each shard its dense-equivalent size, a fixed currency that
//! the storage layout does not move.
//!
//! An [`EnsembleSnapshot`] is the order-independent merge of every
//! shard plus the rank and record counts: an ensemble, not a diagnosis.
//! The whole-run evidence a verdict reads (metadata heavy hitters, the
//! small-write aggregate, per-rank tail profiles, time totals) belongs
//! to the [`StreamDiagnoser`](crate::StreamDiagnoser), its one reader,
//! which owns the stream's [`SnapshotBuilder`] beside it. Snapshots of
//! many jobs merge into the fleet roll-up, which carries no verdict and
//! merges shards only, never one tenant's per-rank state with another's.
//!
//! A builder takes records through one path,
//! [`SnapshotBuilder::accumulate_block`] (its [`RecordSink::push_block`]):
//! one table classification per record, bit-identical for any block
//! partition. The log-domain [`ShardStats::accumulate`] stays as the
//! reference that classification is tested against.

use crate::sketch::{OnlineMoments, QuantileSketch};
use pio_core::attribution::{FINE_HIST_BINS, TAIL_HIST_HI, TAIL_HIST_LO};
use pio_des::hist::{BinTable, LogBins, LogHistogram};
use pio_des::FxHashMap;
use pio_trace::{CallKind, Record, RecordSink};

/// Number of call classes (shard slots are direct-indexed by
/// `call as usize`).
const KINDS: usize = CallKind::ALL.len();

/// "No shard yet" marker in the per-`(kind, group)` direct index.
const NO_SHARD: u32 = u32::MAX;

/// The tenant budget's fixed charge per shard, in bytes: the
/// dense-equivalent size of a shard entry, as the metered size has
/// always counted it (`size_of::<(ShardKey, ShardStats)>()` on x86-64
/// while a shard stored a duration histogram beside its sketch). A
/// currency, not a measurement: a shard's resident size is smaller and
/// grows with the buckets it touches, but a charge that moved with the
/// layout would move every freeze point.
const SHARD_CHARGE_BYTES: usize = 224;

/// The budget's charge per geometry bucket of a shard: a histogram
/// count, a sketch count and a sketch sum, dense (see
/// [`SHARD_CHARGE_BYTES`]).
const BIN_CHARGE_BYTES: usize = 24;

/// The budget's charge for a snapshot's shards: each shard at its
/// dense-equivalent size. Bounded by shards × bins, never by the record
/// or rank count.
fn approx_bytes(shards: &[(ShardKey, ShardStats)]) -> usize {
    shards
        .iter()
        .map(|(_, s)| SHARD_CHARGE_BYTES + BIN_CHARGE_BYTES * s.sketch.geometry().bins())
        .sum()
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
    /// Duration quantile sketch; its counts are the shard's clamped
    /// duration histogram ([`ShardStats::hist`]).
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
        self.accumulate_binned(r, secs, self.sketch.geometry().index_clamped(secs));
    }

    /// The clamped duration histogram (capture-style) of the shard's
    /// records, built from the sketch's counts.
    pub fn hist(&self) -> LogHistogram {
        self.sketch.to_histogram()
    }

    /// Accumulate one record whose duration bin is already classified
    /// (`bin` from a [`BinTable`] over this shard's geometry); the
    /// sketch debug-asserts the bin against [`LogBins`].
    #[inline]
    pub fn accumulate_binned(&mut self, r: &Record, secs: f64, bin: usize) {
        self.sketch.add_at(secs, bin);
        self.moments.record(secs);
        self.ops += 1;
        self.bytes += r.bytes;
        self.secs += secs;
    }

    /// Merge another shard (same geometry); equivalent to having
    /// accumulated both record streams into one shard.
    pub fn merge(&mut self, other: &ShardStats) {
        self.sketch.merge(&other.sketch);
        self.moments.merge(&other.moments);
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.secs += other.secs;
    }
}

/// Geometry knobs shared by every snapshot accumulator —
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
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            rank_groups: 8,
            hist_lo: TAIL_HIST_LO,
            hist_hi: TAIL_HIST_HI,
            hist_bins: FINE_HIST_BINS,
        }
    }
}

/// The sequential snapshot accumulator: one record stream in, an
/// [`EnsembleSnapshot`] out, in `O(shards × bins)` memory. Every
/// [`StreamDiagnoser`](crate::StreamDiagnoser) owns one beside its
/// whole-run evidence, so `analyze --stream` and a fleet tenant keep
/// one per stream; as a [`RecordSink`] it also stands alone. Builders
/// over the same [`SnapshotConfig`] merge freely through
/// [`EnsembleSnapshot::merge`].
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    cfg: SnapshotConfig,
    /// Bit-exact bin classifier for the configured duration geometry,
    /// shared process-wide ([`BinTable::shared`]).
    pub(crate) table: &'static BinTable,
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
    ranks: u32,
    ingested: u64,
}

impl SnapshotBuilder {
    /// An empty builder over `cfg`'s geometry.
    pub fn new(cfg: SnapshotConfig) -> Self {
        let groups = cfg.rank_groups.max(1) as usize;
        SnapshotBuilder {
            table: BinTable::shared(LogBins::new(cfg.hist_lo, cfg.hist_hi, cfg.hist_bins)),
            shards: Vec::new(),
            index: vec![NO_SHARD; KINDS * groups],
            lookup: FxHashMap::default(),
            ranks: 0,
            ingested: 0,
            cfg,
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

    /// Accumulate a block of records — the builder's one ingest path,
    /// bit-identical for any partition of the stream. One [`BinTable`]
    /// classification per record serves the shard's quantile sketch: no
    /// `ln` per record.
    pub fn accumulate_block(&mut self, block: &[Record]) {
        for r in block {
            let secs = r.secs();
            self.accumulate_binned(r, secs, self.table.index_clamped(secs));
        }
    }

    /// The per-record step for a record whose duration `secs` falls in
    /// `bin` of the configured geometry.
    #[inline]
    pub(crate) fn accumulate_binned(&mut self, r: &Record, secs: f64, bin: usize) {
        let group = r.rank % self.cfg.rank_groups.max(1);
        let pos = self.shard_pos(r.call, group, r.phase);
        self.shards[pos].1.accumulate_binned(r, secs, bin);
        self.ranks = self.ranks.max(r.rank + 1);
        self.ingested += 1;
    }

    /// Records accumulated so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Ranks observed so far (max rank + 1).
    pub(crate) fn ranks(&self) -> u32 {
        self.ranks
    }

    /// The budget's charge for the builder's shards, each at its
    /// dense-equivalent size (224 B + 24 B per geometry bucket, whatever
    /// the sketch stores): equal to the charge of the snapshot it would
    /// produce. `O(shards)` to compute; bounded by shards × bins, never
    /// by the record count (see the bounded-memory tests).
    pub fn approx_bytes(&self) -> usize {
        approx_bytes(&self.shards)
    }

    /// Snapshot the current state, cloning the shards alone (the index,
    /// lookup and configuration stay with the builder); `dropped` is the
    /// caller's shed-record count for this stream.
    pub fn snapshot(&self, dropped: u64) -> EnsembleSnapshot {
        self.assemble(self.shards.clone(), dropped)
    }

    /// Consume the builder into its final snapshot without cloning.
    pub fn into_snapshot(mut self, dropped: u64) -> EnsembleSnapshot {
        let shards = std::mem::take(&mut self.shards);
        self.assemble(shards, dropped)
    }

    /// A snapshot of `shards`, this builder's store or a copy of it. A
    /// builder holds one shard per key, so assembly is a sort by key.
    fn assemble(&self, mut shards: Vec<(ShardKey, ShardStats)>, dropped: u64) -> EnsembleSnapshot {
        shards.sort_unstable_by_key(|(k, _)| k.order());
        EnsembleSnapshot {
            shards,
            ranks: self.ranks,
            ingested: self.ingested,
            dropped,
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
    /// Number of ranks observed (max rank + 1).
    pub ranks: u32,
    /// Records ingested.
    pub ingested: u64,
    /// Records dropped by the overflow policy.
    pub dropped: u64,
}

impl EnsembleSnapshot {
    /// An empty snapshot — the identity of [`EnsembleSnapshot::merge`].
    pub fn empty() -> Self {
        EnsembleSnapshot {
            shards: Vec::new(),
            ranks: 0,
            ingested: 0,
            dropped: 0,
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

    /// The budget's dense-equivalent charge for the snapshot's shards,
    /// in bytes (see [`SnapshotBuilder::approx_bytes`]) — `O(shards ×
    /// bins)`, independent of the record and rank counts.
    pub fn approx_bytes(&self) -> usize {
        approx_bytes(&self.shards)
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
            ..SnapshotConfig::default()
        };
        assemble_reference(records, &cfg)
    }

    /// A snapshot accumulated per record into keyed maps under `cfg`,
    /// then sorted by key — the reference the builder's slot-indexed
    /// accumulation and sort-based assembly must equal.
    fn assemble_reference(records: &[Record], cfg: &SnapshotConfig) -> EnsembleSnapshot {
        let mut map: HashMap<ShardKey, ShardStats> = HashMap::new();
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
            ranks = ranks.max(r.rank + 1);
        }
        let mut shards: Vec<(ShardKey, ShardStats)> = map.into_iter().collect();
        shards.sort_by_key(|(k, _)| k.order());
        EnsembleSnapshot {
            shards,
            ranks,
            ingested: records.len() as u64,
            dropped: 0,
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
        assert_eq!(a.hist(), whole.hist());
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
        let mut acc = EnsembleSnapshot::empty();
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
        // configuration (8 rank groups).
        let cfg = SnapshotConfig::default();
        assert_eq!(cfg.rank_groups, 8);
        assert!(snap.shards.len() > 1);
        assert_eq!(snap, assemble_reference(&recs, &cfg));
    }

    /// One size formula: a builder reports the size of the snapshot it
    /// would produce, on a stream with several shards.
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
        assert!(snap.shards.len() > 1);
        assert_eq!(b.approx_bytes(), snap.approx_bytes());
    }

    /// The budget's currency is the named dense-equivalent charge,
    /// 2,528 B per 96-bucket shard: the builder above meters the value
    /// pinned from the layout that stored a histogram beside each
    /// sketch, however few buckets its compact sketches hold, so no
    /// tenant's freeze point moves with the storage.
    #[test]
    fn approx_bytes_is_the_dense_equivalent_charge() {
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
        assert_eq!(b.shards.len(), 96);
        assert_eq!(b.approx_bytes(), 242_688);
        let stored: usize = b.shards.iter().map(|(_, s)| s.sketch.span().len()).sum();
        assert!(stored < b.shards.len() * FINE_HIST_BINS / 4, "{stored}");
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
            assert_eq!(sa.hist(), sb.hist());
            assert_eq!(sa.ops, sb.ops);
            assert_eq!(sa.bytes, sb.bytes);
            assert!((sa.secs - sb.secs).abs() <= 1e-9 * sb.secs.abs().max(1.0));
        }
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
        let mut left = EnsembleSnapshot::empty();
        left.merge(&snap);
        assert_eq!(left, snap);
        let mut right = snap.clone();
        right.merge(&EnsembleSnapshot::empty());
        assert_eq!(right, snap);
        assert!(EnsembleSnapshot::empty().is_empty());
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

                let empty = EnsembleSnapshot::empty();
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
                let mut merged = EnsembleSnapshot::empty();
                for part in recs.chunks(chunk) {
                    merged.merge(&build(part).into_snapshot(0));
                }
                prop_assert_eq!(merged.ingested, whole.ingested);
                prop_assert_eq!(merged.ranks, whole.ranks);
                prop_assert_eq!(merged.shards.len(), whole.shards.len());
                for ((ka, sa), (kb, sb)) in merged.shards.iter().zip(&whole.shards) {
                    prop_assert_eq!(ka, kb);
                    prop_assert_eq!(sa.hist(), sb.hist());
                    prop_assert_eq!(sa.ops, sb.ops);
                    prop_assert_eq!(sa.bytes, sb.bytes);
                    prop_assert!((sa.secs - sb.secs).abs() <= 1e-9 * sb.secs.abs().max(1.0));
                }
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

    /// Nor does a snapshot grow with its ranks: two streams with the
    /// same shard keys (kinds, phases and `rank % 8` groups), one from
    /// ranks 0–7 and one from ranks 0–4095, give snapshots of one size,
    /// and so does their merge.
    #[test]
    fn snapshot_memory_is_bounded_by_shards_not_ranks() {
        let stream = |ranks: u32| -> Vec<Record> {
            (0..8192u32)
                .map(|i| {
                    rec(
                        i % ranks,
                        CallKind::ALL[(i / 8 % 12) as usize],
                        1 << 12,
                        1e-3 * (1 + i % 97) as f64,
                        i / 96 % 3,
                    )
                })
                .collect()
        };
        let few = build(&stream(8)).into_snapshot(0);
        let many = build(&stream(4096)).into_snapshot(0);
        assert_eq!((few.ranks, many.ranks), (8, 4096));
        let keys = |s: &EnsembleSnapshot| s.shards.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(keys(&few), keys(&many));
        assert_eq!(few.approx_bytes(), many.approx_bytes());
        let mut merged = few.clone();
        merged.merge(&many);
        assert_eq!(merged.approx_bytes(), few.approx_bytes());
    }
}
