//! Fault-class attribution: from "the ensemble has a slow tail" to
//! *which class of fault* put it there.
//!
//! The paper's thesis is that fault classes leave reproducible
//! fingerprints on the ensemble. This module holds the decomposition
//! machinery that turns a histogram anomaly into a verdict:
//!
//! * **Rank decomposition** — a tail whose mass concentrates on a small
//!   fraction of ranks (which are slow on *every* operation, not just
//!   the tail) is a straggler client node, not a storage problem.
//! * **Storage-target decomposition** — records are folded onto stripe
//!   residue classes `(offset / stripe) mod m` for small `m`; a tail
//!   that concentrates on one residue class *while the bulk does not*
//!   is a degraded storage target (slow OST).
//! * **Quantized tail levels** — retry-on-timeout faults put the tail
//!   at discrete levels (base + k·timeout): several narrow, separated
//!   islands in the duration histogram instead of one smear.
//! * **Periodic tail bursts** — a duty-cycled fabric fault clusters the
//!   tail events into regularly spaced bursts in wall-clock time.
//!
//! Everything operates on [`TailProfile`], a mergeable order-independent
//! accumulator shared by the batch detectors (`diagnosis`) and the
//! online `StreamDiagnoser` in `pio-ingest` (whose ensemble snapshot
//! keeps the whole-run profiles) — one source of truth for what
//! "rank-correlated" means, estimated from the same statistic
//! everywhere. Both paths hand the data-tail chain the same evidence:
//! the profile, a fine histogram, per-window slices and the tail
//! events' arrival times. The tail cut itself
//! ([`Thresholds::tail_cut`]) is applied at *diagnosis* time, never at
//! accumulation time, so profiles stay insensitive to record order and
//! to the provisional medians a streaming consumer sees.

use crate::diagnosis::Thresholds;
use pio_des::hist::{BinTable, LogBins, LogHistogram};
use pio_des::FxHashMap;
use pio_trace::CallKind;
use std::sync::OnceLock;

/// Duration geometry shared by every tail profile: 1 µs to 1000 s.
pub const TAIL_HIST_LO: f64 = 1e-6;
/// Upper duration bound, seconds.
pub const TAIL_HIST_HI: f64 = 1e3;
/// Per-rank histogram resolution (each bin spans a ~1.54× factor —
/// coarse, but the tail/bulk split only needs one cut).
pub const TAIL_HIST_BINS: usize = 48;
/// The fine duration geometry's resolution over the same span: each bin
/// a ~1.24× factor, so a median/p99 ratio is resolved well inside the 4×
/// shoulder threshold. Every fine duration histogram, sketch and
/// windowed profile uses it — batch and stream alike, which their
/// parity needs — and exactly two fine bins nest in each tail bin, which
/// lets the snapshot builder halve a fine bin into its tail bin.
pub const FINE_HIST_BINS: usize = 2 * TAIL_HIST_BINS;

/// Stripe-residue moduli the storage-target decomposition folds onto.
/// Any OST pool whose size shares a factor with one of these shows a
/// residue-class concentration when a single target degrades.
pub const MODULI: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];

/// The call classes worth profiling for attribution.
pub const TAIL_KINDS: [CallKind; 4] = [
    CallKind::Read,
    CallKind::Write,
    CallKind::MetaRead,
    CallKind::MetaWrite,
];

/// The fault class a finding is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// One degraded storage target: tail concentrates on a stripe
    /// residue class that the bulk does not.
    SlowOst,
    /// Duty-cycled interconnect degradation: tail events arrive in
    /// periodic bursts, with ranks and targets both balanced.
    FlakyFabric,
    /// Metadata-server stalls: the shoulder sits on a metadata call
    /// class, spread evenly over ranks.
    MdsStall,
    /// A straggler client node: the tail is rank-correlated and the
    /// culprit ranks are slow on every operation.
    StragglerNode,
    /// Request loss with timeout retry: the tail is quantized at
    /// base + k·timeout levels.
    DropRetry,
    /// Serialized small-write metadata storm (the paper's GCRM case):
    /// a sub-3KB write class owned by one rank, executed serially.
    MetadataStorm,
}

impl FaultClass {
    /// Stable lowercase identifier (matrix tables, CI artifacts).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::SlowOst => "slow-ost",
            FaultClass::FlakyFabric => "flaky-fabric",
            FaultClass::MdsStall => "mds-stall",
            FaultClass::StragglerNode => "straggler-node",
            FaultClass::DropRetry => "drop-retry",
            FaultClass::MetadataStorm => "metadata-storm",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            FaultClass::SlowOst => "degraded storage target (slow OST)",
            FaultClass::FlakyFabric => "periodic fabric degradation",
            FaultClass::MdsStall => "metadata-server stall windows",
            FaultClass::StragglerNode => "straggler client node",
            FaultClass::DropRetry => "request loss with timeout retry",
            FaultClass::MetadataStorm => "serialized small-write metadata storm",
        };
        write!(f, "{text}")
    }
}

/// The process-wide [`BinTable`] for the shared tail-profile geometry
/// (`TAIL_HIST_LO..TAIL_HIST_HI` × `TAIL_HIST_BINS`) — every profile
/// uses the same constants, so batch ingest paths classify against one
/// table instead of calling `ln` per record, and the profile detectors
/// read bin centers from it instead of calling `powf` per bin. It is
/// [`BinTable::shared`] of that geometry, remembered after the first
/// call so later lookups take no lock.
pub fn tail_bin_table() -> &'static BinTable {
    static TABLE: OnceLock<&'static BinTable> = OnceLock::new();
    TABLE.get_or_init(|| BinTable::shared(LogBins::new(TAIL_HIST_LO, TAIL_HIST_HI, TAIL_HIST_BINS)))
}

/// Per-rank slice of a [`TailProfile`].
#[derive(Debug, Clone, PartialEq)]
struct RankCell {
    counts: Vec<u64>,
    secs: f64,
    ops: u64,
}

impl RankCell {
    fn empty() -> Self {
        RankCell {
            counts: vec![0; TAIL_HIST_BINS],
            secs: 0.0,
            ops: 0,
        }
    }
}

/// Ranks below this index live in the direct-indexed table; higher ones
/// spill to a hash map. HPC rank ids are dense from zero, so in practice
/// the per-record cell access is one bounds-checked array read.
const DENSE_RANKS: usize = 4096;

/// Mergeable per-rank + per-stripe-residue duration decomposition of one
/// call class. Order-independent: merging profiles built from disjoint
/// record streams equals one profile fed the union (counts exactly, f64
/// accumulators up to rounding), the same law as every other sketch in
/// the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TailProfile {
    geom: LogBins,
    stripe_bytes: u64,
    /// `log2(stripe_bytes)` when it is a power of two, so the hot path
    /// shifts instead of dividing.
    stripe_shift: Option<u32>,
    /// Cells for ranks `< DENSE_RANKS`, direct-indexed by rank and grown
    /// on demand; the hot path touches one bounds-checked slot instead
    /// of hashing.
    dense: Vec<Option<RankCell>>,
    /// Spill table for out-of-range rank ids.
    sparse: FxHashMap<u32, RankCell>,
    /// Flat residue histograms: the duration histogram of records whose
    /// stripe index ≡ r (mod `MODULI[mi]`) occupies
    /// `RES_OFF[mi] + r * TAIL_HIST_BINS ..+ TAIL_HIST_BINS`. One
    /// contiguous allocation (35 rows × 48 bins) instead of dozens of
    /// scattered vectors keeps the eight per-record increments of
    /// `add_binned` inside a 13 kB working set.
    residues: Vec<u64>,
}

/// Row offsets of each modulus's residue block in the flat storage.
const RES_OFF: [usize; MODULI.len()] = {
    let mut off = [0usize; MODULI.len()];
    let mut acc = 0;
    let mut i = 0;
    while i < MODULI.len() {
        off[i] = acc;
        acc += MODULI[i] * TAIL_HIST_BINS;
        i += 1;
    }
    off
};

/// Total flat residue slots across all moduli.
const RES_TOTAL: usize = RES_OFF[MODULI.len() - 1] + MODULI[MODULI.len() - 1] * TAIL_HIST_BINS;

/// Verdict data from [`TailProfile::rank_correlated`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankTail {
    /// Culprit ranks, ascending.
    pub ranks: Vec<u32>,
    /// Culprits as a fraction of ranks observed in the class.
    pub rank_frac: f64,
    /// Fraction of the tail mass the culprits own.
    pub tail_share: f64,
    /// Culprit per-op mean over the rest's per-op mean.
    pub mean_ratio: f64,
}

/// Verdict data from [`TailProfile::target_correlated`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetTail {
    /// The modulus the concentration shows at.
    pub modulus: u32,
    /// The hot residue class.
    pub residue: u32,
    /// Its share of the tail mass.
    pub tail_share: f64,
    /// Its share of the bulk (sub-cut) mass — low when the tail is
    /// target-correlated but the workload itself is spread.
    pub bulk_share: f64,
}

impl TailProfile {
    /// An empty profile; `stripe_bytes` maps offsets onto stripe indices.
    pub fn new(stripe_bytes: u64) -> Self {
        let stripe_bytes = stripe_bytes.max(1);
        TailProfile {
            geom: LogBins::new(TAIL_HIST_LO, TAIL_HIST_HI, TAIL_HIST_BINS),
            stripe_bytes,
            stripe_shift: stripe_bytes
                .is_power_of_two()
                .then(|| stripe_bytes.trailing_zeros()),
            dense: Vec::new(),
            sparse: FxHashMap::default(),
            residues: vec![0u64; RES_TOTAL],
        }
    }

    /// The duration histogram of records on residue `r` mod `MODULI[mi]`.
    #[inline]
    fn residue_row(&self, mi: usize, r: usize) -> &[u64] {
        let at = RES_OFF[mi] + r * TAIL_HIST_BINS;
        &self.residues[at..at + TAIL_HIST_BINS]
    }

    /// The (created-on-demand) cell for `rank`.
    #[inline]
    fn cell_mut(&mut self, rank: u32) -> &mut RankCell {
        let i = rank as usize;
        if i < DENSE_RANKS {
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].get_or_insert_with(RankCell::empty)
        } else {
            self.sparse.entry(rank).or_insert_with(RankCell::empty)
        }
    }

    /// All populated cells, dense ranks first (ascending), then spills.
    fn rank_cells(&self) -> impl Iterator<Item = (u32, &RankCell)> {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i as u32, c)))
            .chain(self.sparse.iter().map(|(&r, c)| (r, c)))
    }

    /// Accumulate one record.
    pub fn add(&mut self, rank: u32, offset: u64, secs: f64) {
        let bin = self.geom.index_clamped(secs);
        self.add_binned(rank, offset, secs, bin);
    }

    /// [`Self::add`] with the duration bin pre-classified. `bin` must
    /// equal `self.geometry().index_clamped(secs)` — batch ingest paths
    /// compute it once via [`tail_bin_table`] and fan it out; passing
    /// any other value corrupts the histograms (an out-of-range bin
    /// panics).
    #[inline]
    pub fn add_binned(&mut self, rank: u32, offset: u64, secs: f64, bin: usize) {
        debug_assert_eq!(bin, self.geom.index_clamped(secs));
        let cell = self.cell_mut(rank);
        cell.counts[bin] += 1;
        cell.secs += secs;
        cell.ops += 1;
        let stripe = match self.stripe_shift {
            Some(sh) => offset >> sh,
            None => offset / self.stripe_bytes,
        };
        // 840 = lcm(2..=8): reducing once preserves every residue while
        // turning the eight divisions into constant-divisor multiplies.
        let s = (stripe % 840) as usize;
        for (mi, &m) in MODULI.iter().enumerate() {
            self.residues[RES_OFF[mi] + (s % m) * TAIL_HIST_BINS + bin] += 1;
        }
    }

    /// The profile's bin geometry.
    pub fn geometry(&self) -> LogBins {
        self.geom
    }

    /// Merge another profile (same stripe geometry); equivalent to having
    /// accumulated both record streams into one profile.
    pub fn merge(&mut self, other: &TailProfile) {
        assert_eq!(
            self.stripe_bytes, other.stripe_bytes,
            "merging tail profiles with different stripe geometry"
        );
        for (rank, cell) in other.rank_cells() {
            let mine = self.cell_mut(rank);
            for (i, &c) in cell.counts.iter().enumerate() {
                mine.counts[i] += c;
            }
            mine.secs += cell.secs;
            mine.ops += cell.ops;
        }
        for (slot, &c) in self.residues.iter_mut().zip(&other.residues) {
            *slot += c;
        }
    }

    /// Ranks that produced at least one record of the class.
    pub fn ranks_observed(&self) -> usize {
        self.rank_cells().count()
    }

    /// Records accumulated.
    pub fn ops(&self) -> u64 {
        self.rank_cells().map(|(_, c)| c.ops).sum()
    }

    /// Is the profile empty?
    pub fn is_empty(&self) -> bool {
        self.rank_cells().next().is_none()
    }

    /// The heaviest rank by class seconds and its share of the class
    /// total, or `None` if empty. Ties break to the lowest rank.
    pub fn top_rank_share(&self) -> Option<(u32, f64)> {
        let total: f64 = {
            let mut rows: Vec<(u32, f64)> = self.rank_cells().map(|(r, c)| (r, c.secs)).collect();
            rows.sort_by_key(|&(r, _)| r);
            rows.iter().map(|&(_, s)| s).sum()
        };
        if total <= 0.0 {
            return None;
        }
        let (rank, secs) = self
            .rank_cells()
            .map(|(r, c)| (r, c.secs))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))?;
        Some((rank, secs / total))
    }

    /// Rank-correlated-tail test: fires when the tail mass (duration mass
    /// in bins beyond `cut`) concentrates on at most
    /// `tail_rank_frac` of the observed ranks — *and* those ranks are
    /// slower per operation overall, which separates a straggler node
    /// (slow on everything) from harmonic arbitration losers (slow on a
    /// rotating subset of operations).
    pub fn rank_correlated(&self, cut: f64, th: &Thresholds) -> Option<RankTail> {
        let ranks_observed = self.ranks_observed();
        if ranks_observed < 8 {
            return None;
        }
        let centers = tail_bin_table().centers();
        // (rank, tail mass, total secs, total ops, tail events)
        let mut rows: Vec<(u32, f64, f64, u64, u64)> = self
            .rank_cells()
            .map(|(rank, cell)| {
                let (mut mass, mut events) = (0.0, 0u64);
                for (&c, &center) in cell.counts.iter().zip(centers) {
                    if c > 0 && center > cut {
                        mass += c as f64 * center;
                        events += c;
                    }
                }
                (rank, mass, cell.secs, cell.ops, events)
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let total_mass: f64 = rows.iter().map(|r| r.1).sum();
        let total_events: u64 = rows.iter().map(|r| r.4).sum();
        if total_mass <= 0.0 || (total_events as usize) < th.tail_min_events {
            return None;
        }
        // Smallest prefix of (tail-heaviest) ranks covering the share…
        let mut acc = 0.0;
        let mut k = 0;
        while k < rows.len() && acc < th.tail_rank_share * total_mass {
            acc += rows[k].1;
            k += 1;
        }
        // …extended to peers of comparable mass, so a 4-rank node whose
        // first 3 ranks already cover the share still names all 4.
        while k < rows.len() && k > 0 && rows[k].1 >= 0.5 * rows[k - 1].1 && rows[k].1 > 0.0 {
            acc += rows[k].1;
            k += 1;
        }
        let rank_frac = k as f64 / ranks_observed as f64;
        if rank_frac > th.tail_rank_frac {
            return None;
        }
        let (mut cul_secs, mut cul_ops, mut rest_secs, mut rest_ops) = (0.0, 0u64, 0.0, 0u64);
        for (i, r) in rows.iter().enumerate() {
            if i < k {
                cul_secs += r.2;
                cul_ops += r.3;
            } else {
                rest_secs += r.2;
                rest_ops += r.3;
            }
        }
        if cul_ops == 0 || rest_ops == 0 {
            return None;
        }
        let mean_ratio = (cul_secs / cul_ops as f64) / (rest_secs / rest_ops as f64).max(1e-300);
        if mean_ratio < th.tail_mean_ratio {
            return None;
        }
        let mut culprits: Vec<u32> = rows[..k].iter().map(|r| r.0).collect();
        culprits.sort_unstable();
        Some(RankTail {
            ranks: culprits,
            rank_frac,
            tail_share: acc / total_mass,
            mean_ratio,
        })
    }

    /// Storage-target test: fold the class onto stripe residue classes
    /// and fire when, for some small modulus, one residue owns the tail
    /// while the others do not. The differential is *event-rate* based:
    /// the hot residue's events must land in the tail at ≥2.5× the rate
    /// of everyone else's — which separates "one degraded target" (its
    /// accesses slow, the rest fine) from a workload that simply *uses*
    /// a skewed offset pattern, where every residue in use is slow at
    /// the same rate. A modulus the workload never spreads over (all
    /// events on one residue) carries no differential signal and is
    /// skipped.
    pub fn target_correlated(&self, cut: f64, th: &Thresholds) -> Option<TargetTail> {
        let centers = tail_bin_table().centers();
        for (mi, &m) in MODULI.iter().enumerate() {
            let mut tails = vec![0.0f64; m];
            let mut bulks = vec![0.0f64; m];
            let mut tail_ev = vec![0u64; m];
            let mut ev = vec![0u64; m];
            for res in 0..m {
                let counts = self.residue_row(mi, res);
                for (&c, &center) in counts.iter().zip(centers) {
                    if c == 0 {
                        continue;
                    }
                    let mass = c as f64 * center;
                    ev[res] += c;
                    if center > cut {
                        tails[res] += mass;
                        tail_ev[res] += c;
                    } else {
                        bulks[res] += mass;
                    }
                }
            }
            let tail_total: f64 = tails.iter().sum();
            let bulk_total: f64 = bulks.iter().sum();
            let tail_ev_total: u64 = tail_ev.iter().sum();
            if tail_total <= 0.0 || (tail_ev_total as usize) < th.tail_min_events {
                continue;
            }
            let mut best = 0usize;
            for r in 1..m {
                if tails[r] > tails[best] {
                    best = r;
                }
            }
            let rest_ev: u64 = ev.iter().sum::<u64>() - ev[best];
            if ev[best] == 0 || rest_ev == 0 {
                continue;
            }
            let tail_share = tails[best] / tail_total;
            let bulk_share = if bulk_total > 0.0 {
                bulks[best] / bulk_total
            } else {
                0.0
            };
            let hot_rate = tail_ev[best] as f64 / ev[best] as f64;
            let rest_rate = (tail_ev_total - tail_ev[best]) as f64 / rest_ev as f64;
            if tail_share >= th.target_tail_share && hot_rate >= 2.5 * rest_rate {
                return Some(TargetTail {
                    modulus: m as u32,
                    residue: best as u32,
                    tail_share,
                    bulk_share,
                });
            }
        }
        None
    }
}

/// Coefficient of variation, or `None` when undefined.
fn cv(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean <= 0.0 {
        return None;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    Some(var.sqrt() / mean)
}

/// Quantized-tail test over a fine duration histogram: a retry-on-timeout
/// fault puts the tail at discrete base + k·timeout levels, which show as
/// two or more *narrow* occupied islands beyond the cut, separated by
/// empty territory. One island (a uniform slowdown) or a broad smear
/// (a continuum) both return `None`. Bin centers come from the
/// geometry's [`BinTable::shared`] table, so `hist` must use a
/// configured geometry, not one derived from data.
pub fn quantized_tail_levels(hist: &LogHistogram, cut: f64, min_events: usize) -> Option<usize> {
    let counts = hist.counts();
    let centers = BinTable::shared(hist.geometry()).centers();
    let tail_total: u64 = counts
        .iter()
        .zip(centers)
        .filter(|&(_, &center)| center > cut)
        .map(|(&c, _)| c)
        .sum();
    if (tail_total as usize) < min_events {
        return None;
    }
    // Occupancy floor: stray single events must not mint islands.
    let sig = (tail_total / 64).max(2);
    let mut islands: Vec<usize> = Vec::new(); // island widths, in bins
    let mut run = 0usize;
    for (&count, &center) in counts.iter().zip(centers) {
        let significant = center > cut && count >= sig;
        if significant {
            run += 1;
        } else if run > 0 {
            islands.push(run);
            run = 0;
        }
    }
    if run > 0 {
        islands.push(run);
    }
    if islands.len() >= 2 && islands.iter().all(|&w| w <= 3) {
        Some(islands.len())
    } else {
        None
    }
}

/// Fraction of burst gaps that must sit within ±25% of the median gap
/// for the burst train to count as phase-locked (periodic). Exponential
/// (memoryless) gaps only land ~17% of their mass in that band, so a
/// Poisson tail cannot reach it.
const PHASE_LOCK_FRAC: f64 = 0.6;

/// Candidate burst boundaries in units of the mean inter-arrival gap.
/// Each scale is tried in turn; a gap above the boundary closes one
/// burst and opens the next. Several scales are scanned because the
/// right one depends on how many tail events each blackout window
/// catches — every scale is still gated by the phase-lock test.
const BURST_GAP_FACTORS: [f64; 3] = [4.0, 3.0, 2.0];

/// Periodic-burst test over tail-event start times: a duty-cycled fault
/// clusters the tail into regularly spaced bursts. Returns
/// `(bursts, period CV)` when the train is long and regular enough.
///
/// Two stages: the raw gap train itself may be regular (one slow event
/// per blackout window); otherwise events are segmented into bursts at
/// gaps well above the mean and the burst spacing must be phase-locked —
/// at least `PHASE_LOCK_FRAC` (0.6) of the burst gaps within ±25% of their
/// median. Phase lock is what separates a duty-cycled fault from random
/// timeouts: exponential gaps never concentrate that tightly, and
/// windows that catch no tail events only add near-harmonic outliers
/// that the locked majority outvotes.
pub fn periodic_bursts(starts: &[f64], th: &Thresholds) -> Option<(usize, f64)> {
    if starts.len() < th.flaky_min_bursts {
        return None;
    }
    let mut s = starts.to_vec();
    s.sort_by(f64::total_cmp);
    let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
    // The tail events themselves may form the periodic train.
    if let Some(c) = cv(&gaps) {
        if c <= th.flaky_period_cv {
            return Some((s.len(), c));
        }
    }
    let span = s[s.len() - 1] - s[0];
    if span <= 0.0 {
        return None;
    }
    for factor in BURST_GAP_FACTORS {
        let boundary = factor * span / gaps.len() as f64;
        let mut burst_starts = vec![s[0]];
        for (i, g) in gaps.iter().enumerate() {
            if *g > boundary {
                burst_starts.push(s[i + 1]);
            }
        }
        if burst_starts.len() < th.flaky_min_bursts {
            continue;
        }
        let mut burst_gaps: Vec<f64> = burst_starts.windows(2).map(|w| w[1] - w[0]).collect();
        let Some(c) = cv(&burst_gaps) else { continue };
        let mut sorted = burst_gaps.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        burst_gaps.retain(|g| *g >= 0.75 * median && *g <= 1.25 * median);
        let locked = burst_gaps.len() as f64 / sorted.len() as f64;
        if c <= th.flaky_period_cv || locked >= PHASE_LOCK_FRAC {
            return Some((burst_starts.len(), c));
        }
    }
    None
}

/// Minimum number of tail events sharing a start instant to count as a
/// synchronized front (all ranks released from a barrier together).
const FRONT_MIN_GROUP: usize = 8;

/// Fraction of tail events belonging to synchronized fronts above which
/// position-correlated evidence (stripe residues, latency levels) is
/// considered an artifact of the access pattern.
const FRONT_SHARE_VETO: f64 = 0.5;

/// Share of the tail carried by synchronized fronts: groups of at least
/// `FRONT_MIN_GROUP` (8) events whose start times agree to the
/// millisecond. When a barrier releases, every rank issues its next
/// transfer at the same instant and the queue drains slowly — those
/// events are slow because of *where they sit in the access pattern*
/// (the block-aligned first stripe of each phase), so their residue and
/// latency-level structure mimics a degraded target. A genuinely slow
/// resource serves requests one at a time and spreads its tail over
/// distinct instants.
pub fn sync_front_share(starts: &[f64]) -> f64 {
    if starts.is_empty() {
        return 0.0;
    }
    let mut quantized: Vec<i64> = starts.iter().map(|t| (t * 1e3).round() as i64).collect();
    quantized.sort_unstable();
    let (mut covered, mut run, mut prev) = (0usize, 0usize, i64::MIN);
    for q in quantized {
        if q == prev {
            run += 1;
        } else {
            if run >= FRONT_MIN_GROUP {
                covered += run;
            }
            run = 1;
            prev = q;
        }
    }
    if run >= FRONT_MIN_GROUP {
        covered += run;
    }
    covered as f64 / starts.len() as f64
}

/// Attribute a data-class (read/write) tail from its profile, its fine
/// histogram, and the tail events' start times in seconds. Checks run
/// from the most to the least specific evidence: rank concentration
/// (straggler node), stripe-residue concentration (slow OST), periodic
/// bursts (flaky fabric), then quantized levels (drop + retry). `None`
/// falls back to the paper's middleware-pathology reading.
///
/// A tail that is not rank-correlated and is dominated by synchronized
/// fronts ([`sync_front_share`] ≥ 1/2) attributes to nothing: barrier
/// drains land on block-aligned stripes and quantized service levels,
/// mimicking both a hot residue and a retry ladder.
pub fn attribute_data_tail(
    profile: &TailProfile,
    hist: &LogHistogram,
    tail_starts: &[f64],
    median: f64,
    th: &Thresholds,
) -> Option<FaultClass> {
    if median <= 0.0 || profile.is_empty() {
        return None;
    }
    let cut = th.tail_cut(median);
    if profile.rank_correlated(cut, th).is_some() {
        return Some(FaultClass::StragglerNode);
    }
    if sync_front_share(tail_starts) >= FRONT_SHARE_VETO {
        return None;
    }
    if profile.target_correlated(cut, th).is_some() {
        return Some(FaultClass::SlowOst);
    }
    if periodic_bursts(tail_starts, th).is_some() {
        return Some(FaultClass::FlakyFabric);
    }
    if quantized_tail_levels(hist, cut, th.tail_min_events).is_some() {
        return Some(FaultClass::DropRetry);
    }
    None
}

/// Attribute a metadata-class shoulder: concentrated on one rank it is
/// the GCRM-style serialized metadata storm; spread over the ranks it is
/// the metadata server itself stalling.
pub fn attribute_meta_tail(profile: &TailProfile, th: &Thresholds) -> FaultClass {
    if let Some((_, share)) = profile.top_rank_share() {
        if share >= th.serialized_share {
            return FaultClass::MetadataStorm;
        }
    }
    FaultClass::MdsStall
}

// ---------------------------------------------------------------------------
// Time-windowed evidence: compound and ambiguous verdicts
// ---------------------------------------------------------------------------

/// A (possibly multi-class) attribution verdict for one finding.
///
/// Production faults overlap: a rebuild degrades one OST while a noisy
/// neighbor flaps the fabric. A single `FaultClass` cannot express
/// that, and silently naming one culprit when two are present is worse
/// than saying so. `classes` is always sorted ascending and deduplicated:
///
/// * `ambiguous == false` — every class is independently evidenced
///   (one class: the classic verdict; several: a compound fault whose
///   components were isolated in time, rank space, or call class).
/// * `ambiguous == true` — the evidence could not isolate a single
///   culprit: `classes` are the *candidates* whose tests fire, listed
///   honestly instead of picking a winner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribution {
    /// Implicated fault classes, ascending and deduplicated, ≥ 1 entry.
    pub classes: Vec<FaultClass>,
    /// True when `classes` are unseparated candidates rather than a
    /// joint verdict.
    pub ambiguous: bool,
}

impl Attribution {
    /// A confident single-class verdict.
    pub fn single(class: FaultClass) -> Self {
        Attribution {
            classes: vec![class],
            ambiguous: false,
        }
    }

    /// A confident verdict over `classes` (sorted and deduplicated
    /// here). Panics if empty — "no attribution" is `None`, not an
    /// empty list.
    pub fn confident(mut classes: Vec<FaultClass>) -> Self {
        classes.sort_unstable();
        classes.dedup();
        assert!(!classes.is_empty(), "attribution needs at least one class");
        Attribution {
            classes,
            ambiguous: false,
        }
    }

    /// An ambiguous verdict listing unseparated candidates.
    pub fn candidates(mut classes: Vec<FaultClass>) -> Self {
        classes.sort_unstable();
        classes.dedup();
        assert!(!classes.is_empty(), "attribution needs at least one class");
        Attribution {
            classes,
            ambiguous: true,
        }
    }

    /// Whether this is a confident single-class verdict for `class` —
    /// the exact shape the pre-compound-era consumers asserted on.
    pub fn is(&self, class: FaultClass) -> bool {
        !self.ambiguous && self.classes == [class]
    }

    /// Whether `class` appears (confidently or as a candidate).
    pub fn implicates(&self, class: FaultClass) -> bool {
        self.classes.contains(&class)
    }

    /// Stable identifier: `"slow-ost"`, `"mds-stall+slow-ost"`,
    /// `"ambiguous(flaky-fabric|straggler-node)"` (matrix tables, CI
    /// artifacts).
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.classes.iter().map(|c| c.name()).collect();
        if self.ambiguous {
            format!("ambiguous({})", names.join("|"))
        } else {
            names.join("+")
        }
    }
}

impl std::fmt::Display for Attribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ambiguous {
            write!(f, "ambiguous between ")?;
        }
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// One tail event with everything the windowed/residual passes need:
/// when it started (integer ns — window assignment must not depend on
/// float rounding), who issued it, and how slow it was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailEvent {
    /// Call entry time, nanoseconds of virtual time.
    pub start_ns: u64,
    /// Issuing rank.
    pub rank: u32,
    /// Call duration, seconds.
    pub secs: f64,
}

impl TailEvent {
    /// Start instant in seconds (the same conversion every detector
    /// uses, so burst tests see identical floats on every path).
    pub fn start_s(&self) -> f64 {
        pio_des::SimTime(self.start_ns).as_secs_f64()
    }
}

/// Per-window slice of the evidence: the same profile + fine histogram
/// pair the global detectors run on, restricted to records whose start
/// time falls in the window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSlot {
    /// Rank/residue decomposition of the window's records.
    pub profile: TailProfile,
    /// Fine duration histogram of the window's records.
    pub hist: LogHistogram,
}

/// Fixed-width time windows of [`TailProfile`] + fine-histogram
/// evidence, indexed by integer division of the record's `start_ns` —
/// exact, so window membership is identical across record order,
/// thread count, shard count, and trace format.
///
/// Slots allocate lazily (only windows that receive records exist) and
/// the index clamps at `max_windows − 1`: a run longer than the covered
/// span pools its late records into the last window, degrading
/// localization gracefully instead of growing without bound.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedProfile {
    width_ns: u64,
    max_windows: usize,
    stripe_bytes: u64,
    fine_bins: usize,
    slots: Vec<Option<Box<WindowSlot>>>,
}

impl WindowedProfile {
    /// Windows of `width_s` simulated seconds, at most `max_windows` of
    /// them; `stripe_bytes`/`fine_bins` fix the slot evidence geometry
    /// (callers pass the same values they use for the global evidence).
    pub fn new(width_s: f64, max_windows: usize, stripe_bytes: u64, fine_bins: usize) -> Self {
        let width_ns = ((width_s * 1e9).round() as u64).max(1);
        WindowedProfile {
            width_ns,
            max_windows: max_windows.max(1),
            stripe_bytes,
            fine_bins,
            slots: Vec::new(),
        }
    }

    /// Window index for a record starting at `start_ns` (clamped into
    /// the last window).
    #[inline]
    pub fn index(&self, start_ns: u64) -> usize {
        ((start_ns / self.width_ns) as usize).min(self.max_windows - 1)
    }

    /// Window width in seconds.
    pub fn width_s(&self) -> f64 {
        self.width_ns as f64 / 1e9
    }

    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut WindowSlot {
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].get_or_insert_with(|| {
            Box::new(WindowSlot {
                profile: TailProfile::new(self.stripe_bytes),
                hist: LogHistogram::new(TAIL_HIST_LO, TAIL_HIST_HI, self.fine_bins),
            })
        })
    }

    /// Accumulate one record.
    pub fn add(&mut self, rank: u32, offset: u64, start_ns: u64, secs: f64) {
        let i = self.index(start_ns);
        let slot = self.slot_mut(i);
        slot.profile.add(rank, offset, secs);
        slot.hist.add_clamped(secs);
    }

    /// [`Self::add`] with both duration bins pre-classified (`bin` for
    /// the coarse profile geometry, `fine` for the fine histogram) —
    /// the block ingest path computes them once per record and fans
    /// them out. Both are debug-asserted against [`LogBins`].
    #[inline]
    pub fn add_binned(
        &mut self,
        rank: u32,
        offset: u64,
        start_ns: u64,
        secs: f64,
        bin: usize,
        fine: usize,
    ) {
        let i = self.index(start_ns);
        let slot = self.slot_mut(i);
        slot.profile.add_binned(rank, offset, secs, bin);
        debug_assert_eq!(fine, slot.hist.geometry().index_clamped(secs));
        slot.hist.add_clamped_at(fine);
    }

    /// Populated windows, ascending by index.
    pub fn populated(&self) -> impl Iterator<Item = (usize, &WindowSlot)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref().map(|s| (i, s)))
    }

    /// Is any window populated?
    pub fn is_empty(&self) -> bool {
        self.populated().next().is_none()
    }
}

/// Tail event count and duration mass beyond `cut` in a fine histogram.
fn hist_tail(hist: &LogHistogram, cut: f64) -> (u64, f64) {
    let centers = BinTable::shared(hist.geometry()).centers();
    let mut events = 0u64;
    let mut mass = 0.0;
    for (&c, &center) in hist.counts().iter().zip(centers) {
        if c > 0 && center > cut {
            events += c;
            mass += c as f64 * center;
        }
    }
    (events, mass)
}

/// Everything the windowed attribution sees for one data call class.
pub struct DataTailEvidence<'a> {
    /// Whole-run rank/residue decomposition.
    pub profile: &'a TailProfile,
    /// Whole-run fine duration histogram.
    pub hist: &'a LogHistogram,
    /// Per-window evidence.
    pub windows: &'a WindowedProfile,
    /// Tail events (`secs > cut`), rank-tagged. Order does not matter.
    pub events: &'a [TailEvent],
}

/// Which positional test carries a class's fingerprint inside a single
/// window. Fabric bursts are too sparse per window to test positively
/// (a burst train needs a long span), so a `FlakyFabric` primary
/// explains a window *negatively*: only if no *positional* fingerprint
/// claims it — a window decisively owned by a rank set or a stripe
/// target is evidence the fabric primary cannot account for, and it
/// goes to the pooled residual re-chain (which still applies the
/// substantiality and compound-share gates, so a single spurious window
/// cannot flip a single-fault verdict). Per-window *quantized* levels
/// deliberately do not count against a fabric primary: a duty-cycled
/// slowdown produces genuinely level-like durations inside each burst,
/// so that fingerprint is expected under fabric, not residue. The
/// metadata classes never reach this path and count as explained.
fn window_supports(class: FaultClass, slot: &WindowSlot, cut: f64, th: &Thresholds) -> bool {
    match class {
        FaultClass::StragglerNode => slot.profile.rank_correlated(cut, th).is_some(),
        FaultClass::SlowOst => slot.profile.target_correlated(cut, th).is_some(),
        FaultClass::DropRetry => {
            quantized_tail_levels(&slot.hist, cut, th.tail_min_events).is_some()
        }
        FaultClass::FlakyFabric => {
            slot.profile.rank_correlated(cut, th).is_none()
                && slot.profile.target_correlated(cut, th).is_none()
        }
        _ => true,
    }
}

/// Classes (excluding `known`) whose *global* test fires on the
/// whole-run evidence — the candidate list an unexplained residue is
/// ambiguous between.
fn cofiring_classes(
    ev: &DataTailEvidence<'_>,
    starts: &[f64],
    cut: f64,
    th: &Thresholds,
    known: &[FaultClass],
) -> Vec<FaultClass> {
    let mut out = Vec::new();
    let mut consider = |class: FaultClass, fires: bool| {
        if fires && !known.contains(&class) {
            out.push(class);
        }
    };
    consider(
        FaultClass::StragglerNode,
        ev.profile.rank_correlated(cut, th).is_some(),
    );
    consider(
        FaultClass::SlowOst,
        ev.profile.target_correlated(cut, th).is_some(),
    );
    consider(
        FaultClass::FlakyFabric,
        periodic_bursts(starts, th).is_some(),
    );
    consider(
        FaultClass::DropRetry,
        quantized_tail_levels(ev.hist, cut, th.tail_min_events).is_some(),
    );
    out
}

/// Attribute a data-class tail with time-windowed evidence: the global
/// priority chain ([`attribute_data_tail`]) names a primary class, then
/// two residual passes look for a *second* fault the primary's evidence
/// does not explain:
///
/// * **Time residual** — active windows (≥ `tail_min_events` tail
///   events) where the primary's own positional test does not fire are
///   pooled and re-attributed with the full chain. A fault that was
///   only live in part of the run (a scheduled episode) is confirmed on
///   exactly the windows it owned.
/// * **Rank residual** — when the primary is a straggler node, the tail
///   events of the *non-culprit* ranks are re-tested (burst periodicity,
///   quantized levels), since a concurrent whole-run fault hides under
///   the culprits' mass in every window.
///
/// A residue that is substantial (≥ `compound_share` of the tail) but
/// that no test explains yields an **ambiguous** verdict listing the
/// classes whose global tests fire; a residue that is explained yields
/// a confident compound verdict. With no primary, per-window
/// classification takes over: each active window votes with its
/// positional tests, window groups are confirmed class-by-class, and
/// unclassified windows are pooled for the burst test. Thresholds keep
/// every pass conservative, so a clean single-fault run keeps its
/// single-class verdict.
pub fn attribute_data_tail_windowed(
    ev: &DataTailEvidence<'_>,
    median: f64,
    th: &Thresholds,
) -> Option<Attribution> {
    if median <= 0.0 || ev.profile.is_empty() {
        return None;
    }
    let cut = th.tail_cut(median);
    let starts: Vec<f64> = ev.events.iter().map(|e| e.start_s()).collect();
    let primary = attribute_data_tail(ev.profile, ev.hist, &starts, median, th);

    let mut confident: Vec<FaultClass> = primary.into_iter().collect();
    let mut unresolved: Vec<FaultClass> = Vec::new();

    // --- time residual ---
    let (_, total_mass) = hist_tail(ev.hist, cut);
    struct Active<'s> {
        idx: usize,
        slot: &'s WindowSlot,
        events: u64,
        mass: f64,
    }
    let active: Vec<Active<'_>> = ev
        .windows
        .populated()
        .filter_map(|(idx, slot)| {
            let (events, mass) = hist_tail(&slot.hist, cut);
            ((events as usize) >= th.tail_min_events).then_some(Active {
                idx,
                slot,
                events,
                mass,
            })
        })
        .collect();

    // Pool a window subset and run the full chain over it.
    let pooled_verdict = |group: &[&Active<'_>]| -> Option<FaultClass> {
        let mut profile = group[0].slot.profile.clone();
        let mut hist = group[0].slot.hist.clone();
        for a in &group[1..] {
            profile.merge(&a.slot.profile);
            hist.merge(&a.slot.hist);
        }
        let idxs: Vec<usize> = group.iter().map(|a| a.idx).collect();
        let pooled_starts: Vec<f64> = ev
            .events
            .iter()
            .filter(|e| idxs.contains(&ev.windows.index(e.start_ns)))
            .map(|e| e.start_s())
            .collect();
        attribute_data_tail(&profile, &hist, &pooled_starts, median, th)
    };
    let substantial = |events: u64, mass: f64| {
        (events as usize) >= th.tail_min_events && mass >= th.compound_share * total_mass
    };

    match primary {
        Some(p) => {
            let residue: Vec<&Active<'_>> = active
                .iter()
                .filter(|a| !window_supports(p, a.slot, cut, th))
                .collect();
            let ev_n: u64 = residue.iter().map(|a| a.events).sum();
            let mass: f64 = residue.iter().map(|a| a.mass).sum();
            if !residue.is_empty() && substantial(ev_n, mass) {
                match pooled_verdict(&residue) {
                    Some(c) if c != p => confident.push(c),
                    Some(_) => {}
                    None => unresolved.extend(cofiring_classes(ev, &starts, cut, th, &confident)),
                }
            }
        }
        None => {
            // No global verdict: per-window classification votes,
            // then each class group is confirmed on its own pool.
            let mut groups: Vec<(FaultClass, Vec<&Active<'_>>)> = Vec::new();
            let mut leftover: Vec<&Active<'_>> = Vec::new();
            for a in &active {
                let class = if a.slot.profile.rank_correlated(cut, th).is_some() {
                    Some(FaultClass::StragglerNode)
                } else if a.slot.profile.target_correlated(cut, th).is_some() {
                    Some(FaultClass::SlowOst)
                } else if quantized_tail_levels(&a.slot.hist, cut, th.tail_min_events).is_some() {
                    Some(FaultClass::DropRetry)
                } else {
                    None
                };
                match class {
                    Some(c) => match groups.iter_mut().find(|(g, _)| *g == c) {
                        Some((_, v)) => v.push(a),
                        None => groups.push((c, vec![a])),
                    },
                    None => leftover.push(a),
                }
            }
            for (_, group) in &groups {
                let ev_n: u64 = group.iter().map(|a| a.events).sum();
                let mass: f64 = group.iter().map(|a| a.mass).sum();
                if substantial(ev_n, mass) {
                    if let Some(c) = pooled_verdict(group) {
                        confident.push(c);
                    }
                }
            }
            let ev_n: u64 = leftover.iter().map(|a| a.events).sum();
            let mass: f64 = leftover.iter().map(|a| a.mass).sum();
            if !leftover.is_empty() && substantial(ev_n, mass) {
                match pooled_verdict(&leftover) {
                    Some(c) => confident.push(c),
                    None if !confident.is_empty() => {
                        unresolved.extend(cofiring_classes(ev, &starts, cut, th, &confident))
                    }
                    None => {}
                }
            }
        }
    }

    // --- rank residual ---
    if primary == Some(FaultClass::StragglerNode) {
        if let Some(rt) = ev.profile.rank_correlated(cut, th) {
            let residual: Vec<&TailEvent> = ev
                .events
                .iter()
                .filter(|e| e.secs > cut && !rt.ranks.contains(&e.rank))
                .collect();
            let tail_total = ev.events.iter().filter(|e| e.secs > cut).count();
            if residual.len() >= th.tail_min_events
                && (residual.len() as f64) >= th.compound_share * tail_total as f64
            {
                let rs: Vec<f64> = residual.iter().map(|e| e.start_s()).collect();
                let mut rh = LogHistogram::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS);
                for e in &residual {
                    rh.add_clamped(e.secs);
                }
                if sync_front_share(&rs) < FRONT_SHARE_VETO && periodic_bursts(&rs, th).is_some() {
                    confident.push(FaultClass::FlakyFabric);
                } else if quantized_tail_levels(&rh, cut, th.tail_min_events).is_some() {
                    confident.push(FaultClass::DropRetry);
                } else {
                    unresolved.extend(cofiring_classes(ev, &starts, cut, th, &confident));
                }
            }
        }
    }

    confident.sort_unstable();
    confident.dedup();
    unresolved.retain(|c| !confident.contains(c));
    unresolved.sort_unstable();
    unresolved.dedup();
    if !unresolved.is_empty() {
        let mut all = confident;
        all.extend(unresolved);
        return Some(Attribution::candidates(all));
    }
    if confident.is_empty() {
        None
    } else {
        Some(Attribution::confident(confident))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn th() -> Thresholds {
        Thresholds::default()
    }

    fn uniform_profile(ranks: u32, per_rank: usize, secs: f64) -> TailProfile {
        let mut p = TailProfile::new(1 << 20);
        for rank in 0..ranks {
            for i in 0..per_rank {
                p.add(rank, (rank as u64 * 64 + i as u64) << 20, secs);
            }
        }
        p
    }

    #[test]
    fn planted_straggler_is_rank_correlated() {
        let mut p = uniform_profile(16, 32, 0.02);
        // Ranks 0–3 slow on everything (their 32 ops land at 0.6 s).
        for rank in 0..4u32 {
            for i in 0..32 {
                p.add(rank, (i as u64) << 20, 0.6);
            }
        }
        let rt = p.rank_correlated(0.04, &th()).expect("must fire");
        assert_eq!(rt.ranks, vec![0, 1, 2, 3]);
        assert!(rt.tail_share > 0.9);
        assert!(rt.mean_ratio > 2.0);
    }

    #[test]
    fn uniform_tail_is_not_rank_correlated() {
        let mut p = uniform_profile(16, 32, 0.02);
        // Every rank contributes the same tail mass.
        for rank in 0..16u32 {
            for i in 0..4 {
                p.add(rank, (i as u64) << 20, 0.5);
            }
        }
        assert!(p.rank_correlated(0.04, &th()).is_none());
    }

    #[test]
    fn hot_residue_is_target_correlated_only_differentially() {
        let mut p = TailProfile::new(1 << 20);
        // Bulk spread over stripes 0..48 (uniform mod 3), tail only on
        // stripes ≡ 1 (mod 3).
        for rank in 0..16u32 {
            for s in 0..48u64 {
                let secs = if s % 3 == 1 { 0.8 } else { 0.02 };
                p.add(rank, s << 20, secs);
            }
        }
        let tt = p.target_correlated(0.04, &th()).expect("must fire");
        assert_eq!(tt.modulus, 3);
        assert_eq!(tt.residue, 1);
        assert!(tt.tail_share > 0.95);

        // A workload whose tail *and* bulk share the residue pattern
        // (strided access, not a slow target) must stay quiet: the slow
        // events scatter across ranks' stripe sets, so no modulus shows
        // a *differential* concentration.
        let mut q = TailProfile::new(1 << 20);
        for rank in 0..16u32 {
            for i in 0..48u64 {
                let secs = if (i + rank as u64).is_multiple_of(10) {
                    0.8
                } else {
                    0.02
                };
                q.add(rank, (i * 3 + 1) << 20, secs); // everything ≡ 1 (mod 3)
            }
        }
        assert!(q.target_correlated(0.04, &th()).is_none());
    }

    #[test]
    fn profile_merge_equals_union() {
        let mut a = TailProfile::new(1 << 20);
        let mut b = TailProfile::new(1 << 20);
        let mut whole = TailProfile::new(1 << 20);
        for i in 0..500u64 {
            let (rank, off, secs) = ((i % 13) as u32, i << 18, 0.001 * (1 + i % 97) as f64);
            if i % 2 == 0 {
                a.add(rank, off, secs);
            } else {
                b.add(rank, off, secs);
            }
            whole.add(rank, off, secs);
        }
        a.merge(&b);
        assert_eq!(a.ops(), whole.ops());
        assert_eq!(a.residues, whole.residues);
        let merged: Vec<_> = a.rank_cells().collect();
        for (i, (rank, cell)) in whole.rank_cells().enumerate() {
            let (got_rank, got) = merged[i];
            assert_eq!(got_rank, rank);
            assert_eq!(got.counts, cell.counts);
            assert_eq!(got.ops, cell.ops);
            assert!((got.secs - cell.secs).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_bin_table_is_the_shared_tail_geometry_table() {
        let g = LogBins::new(TAIL_HIST_LO, TAIL_HIST_HI, TAIL_HIST_BINS);
        assert!(std::ptr::eq(tail_bin_table(), BinTable::shared(g)));
        assert!(tail_bin_table().is_exact());
    }

    #[test]
    fn quantized_levels_need_separated_narrow_islands() {
        let mut hist = LogHistogram::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS);
        for _ in 0..500 {
            hist.add_clamped(0.02);
        }
        // Two retry levels: 0.35 s and 0.65 s.
        for _ in 0..30 {
            hist.add_clamped(0.35);
        }
        for _ in 0..8 {
            hist.add_clamped(0.65);
        }
        assert_eq!(quantized_tail_levels(&hist, 0.04, 16), Some(2));

        // One uniform slow cluster: not quantized.
        let mut one = LogHistogram::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS);
        for _ in 0..500 {
            one.add_clamped(0.02);
        }
        for _ in 0..40 {
            one.add_clamped(0.16);
        }
        assert_eq!(quantized_tail_levels(&one, 0.04, 16), None);

        // A broad continuum: not quantized.
        let mut smear = LogHistogram::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS);
        for _ in 0..500 {
            smear.add_clamped(0.02);
        }
        for i in 0..200 {
            smear.add_clamped(0.05 * 1.06f64.powi(i % 40));
        }
        assert_eq!(quantized_tail_levels(&smear, 0.04, 16), None);
    }

    #[test]
    fn periodic_bursts_fire_on_duty_cycle_not_on_noise() {
        // 20 blackout windows, 3 tail events each, period 0.25 s.
        let mut starts = Vec::new();
        for w in 0..20 {
            for j in 0..3 {
                starts.push(w as f64 * 0.25 + j as f64 * 0.004);
            }
        }
        assert!(periodic_bursts(&starts, &th()).is_some());

        // Pseudo-random arrivals (LCG, high bits): no periodicity.
        let mut x = 0x2545f4914f6cdd1du64;
        let noisy: Vec<f64> = (0..60)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 10_000) as f64 * 1e-3
            })
            .collect();
        assert!(periodic_bursts(&noisy, &th()).is_none());
    }

    #[test]
    fn meta_attribution_splits_on_rank_concentration() {
        let mut storm = TailProfile::new(1 << 20);
        for i in 0..200u64 {
            storm.add(0, i << 12, 0.3);
        }
        assert_eq!(
            attribute_meta_tail(&storm, &th()),
            FaultClass::MetadataStorm
        );

        let mut stall = TailProfile::new(1 << 20);
        for rank in 0..16u32 {
            for i in 0..20u64 {
                stall.add(rank, i << 12, if i % 7 == 0 { 0.7 } else { 0.01 });
            }
        }
        assert_eq!(attribute_meta_tail(&stall, &th()), FaultClass::MdsStall);
    }

    #[test]
    fn fault_class_names_are_stable() {
        assert_eq!(FaultClass::SlowOst.name(), "slow-ost");
        assert_eq!(FaultClass::StragglerNode.name(), "straggler-node");
        assert!(FaultClass::MetadataStorm.to_string().contains("metadata"));
    }

    #[test]
    fn attribution_labels_are_stable() {
        assert_eq!(Attribution::single(FaultClass::SlowOst).label(), "slow-ost");
        let compound = Attribution::confident(vec![FaultClass::SlowOst, FaultClass::MdsStall]);
        assert_eq!(compound.label(), "slow-ost+mds-stall");
        assert!(compound.implicates(FaultClass::MdsStall));
        assert!(!compound.is(FaultClass::SlowOst));
        let amb = Attribution::candidates(vec![
            FaultClass::StragglerNode,
            FaultClass::FlakyFabric,
            FaultClass::FlakyFabric,
        ]);
        assert_eq!(amb.label(), "ambiguous(flaky-fabric|straggler-node)");
        assert!(amb.implicates(FaultClass::FlakyFabric));
        assert!(!amb.is(FaultClass::FlakyFabric));
    }

    #[test]
    fn window_index_uses_integer_ns_division() {
        let w = WindowedProfile::new(2.0, 16, 1 << 20, FINE_HIST_BINS);
        assert_eq!(w.index(0), 0);
        assert_eq!(w.index(1_999_999_999), 0);
        assert_eq!(w.index(2_000_000_000), 1); // boundary lands right
        assert_eq!(w.index(2_000_000_001), 1);
        // Clamped into the last window.
        assert_eq!(w.index(u64::MAX), 15);
        assert_eq!(w.width_s(), 2.0);
    }

    #[test]
    fn windowed_profile_separates_episodes() {
        let mut w = WindowedProfile::new(1.0, 8, 1 << 20, FINE_HIST_BINS);
        // Window 0: fast ops; window 3: slow ops.
        for i in 0..32u64 {
            w.add(i as u32 % 8, i << 20, i * 10_000_000, 0.01);
            w.add(i as u32 % 8, i << 20, 3_000_000_000 + i * 10_000_000, 0.5);
        }
        let populated: Vec<usize> = w.populated().map(|(i, _)| i).collect();
        assert_eq!(populated, vec![0, 3]);
        let (ev0, _) = hist_tail(&w.populated().next().unwrap().1.hist, 0.1);
        let (ev3, _) = hist_tail(&w.populated().nth(1).unwrap().1.hist, 0.1);
        assert_eq!(ev0, 0);
        assert_eq!(ev3, 32);
    }

    /// Build the canonical two-episode compound: an early window where
    /// the tail concentrates on one stripe residue (slow OST) and a
    /// late window where it arrives in periodic bursts (flaky fabric).
    fn two_episode_evidence() -> (TailProfile, LogHistogram, WindowedProfile, Vec<TailEvent>) {
        let mut profile = TailProfile::new(1 << 20);
        let mut hist = LogHistogram::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS);
        let mut windows = WindowedProfile::new(2.0, 16, 1 << 20, FINE_HIST_BINS);
        let mut events = Vec::new();
        let mut feed = |rank: u32, offset: u64, start_ns: u64, secs: f64| {
            profile.add(rank, offset, secs);
            hist.add_clamped(secs);
            windows.add(rank, offset, start_ns, secs);
            if secs > 0.04 {
                events.push(TailEvent {
                    start_ns,
                    rank,
                    secs,
                });
            }
        };
        // Bulk everywhere: 16 ranks, spread stripes, 20 ms.
        for rank in 0..16u32 {
            for i in 0..60u64 {
                feed(rank, (i * 16 + rank as u64) << 20, i * 100_000_000, 0.02);
            }
        }
        // Episode A, 0–2 s: tail on stripes ≡ 1 (mod 4), scattered starts.
        for rank in 0..16u32 {
            for i in 0..3u64 {
                let start = 100_000_000 + rank as u64 * 110_000_000 + i * 37_000_000;
                feed(rank, (i * 4 + 1) << 20, start, 0.9);
            }
        }
        // Episode B, 8–14 s: periodic bursts every 0.25 s, spread stripes.
        for b in 0..24u64 {
            for j in 0..3u64 {
                let start = 8_000_000_000 + b * 250_000_000 + j * 3_000_000;
                feed((b * 3 + j) as u32 % 16, (b * 16 + j * 5) << 20, start, 0.7);
            }
        }
        (profile, hist, windows, events)
    }

    #[test]
    fn time_separated_pair_yields_compound_verdict() {
        let (profile, hist, windows, events) = two_episode_evidence();
        let a = attribute_data_tail_windowed(
            &DataTailEvidence {
                profile: &profile,
                hist: &hist,
                windows: &windows,
                events: &events,
            },
            0.02,
            &th(),
        )
        .expect("compound evidence must attribute");
        assert!(
            !a.ambiguous
                && a.implicates(FaultClass::SlowOst)
                && a.implicates(FaultClass::FlakyFabric),
            "want confident slow-ost + flaky-fabric, got {a:?}"
        );
    }

    #[test]
    fn single_fault_evidence_keeps_single_verdict() {
        // Same generator, episode A only: windowing must not invent a
        // second class.
        let mut profile = TailProfile::new(1 << 20);
        let mut hist = LogHistogram::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS);
        let mut windows = WindowedProfile::new(2.0, 16, 1 << 20, FINE_HIST_BINS);
        let mut events = Vec::new();
        for rank in 0..16u32 {
            for i in 0..60u64 {
                let (offset, start, secs) = ((i * 16 + rank as u64) << 20, i * 100_000_000, 0.02);
                profile.add(rank, offset, secs);
                hist.add_clamped(secs);
                windows.add(rank, offset, start, secs);
            }
            for i in 0..6u64 {
                let start = 100_000_000 + rank as u64 * 110_000_000 + i * 37_000_000;
                let offset = (i * 4 + 1) << 20;
                profile.add(rank, offset, 0.9);
                hist.add_clamped(0.9);
                windows.add(rank, offset, start, 0.9);
                events.push(TailEvent {
                    start_ns: start,
                    rank,
                    secs: 0.9,
                });
            }
        }
        let a = attribute_data_tail_windowed(
            &DataTailEvidence {
                profile: &profile,
                hist: &hist,
                windows: &windows,
                events: &events,
            },
            0.02,
            &th(),
        )
        .expect("planted slow target must attribute");
        assert!(a.is(FaultClass::SlowOst), "want single slow-ost, got {a:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::diagnosis::Thresholds;
    use proptest::prelude::*;

    fn th() -> Thresholds {
        Thresholds::default()
    }

    proptest! {
        /// A tail spread uniformly over the ranks is never pinned on a
        /// rank subset, whatever the population and latency scale.
        #[test]
        fn uniform_tail_never_rank_correlates(
            ranks in 8u32..48,
            bulk_per_rank in 4u64..40,
            tail_per_rank in 1u64..6,
            slow_num in 16u64..256,
        ) {
            let mut p = TailProfile::new(1 << 20);
            let slow = slow_num as f64 / 64.0; // exactly representable
            for rank in 0..ranks {
                for i in 0..bulk_per_rank {
                    p.add(rank, i * (1 << 20), 1.0 / 64.0);
                }
                for i in 0..tail_per_rank {
                    p.add(rank, i * (1 << 20), slow);
                }
            }
            prop_assert_eq!(p.rank_correlated(0.1, &th()), None);
        }

        /// A planted straggler subset always fires and is named exactly,
        /// as long as it is a small fraction of the job.
        #[test]
        fn planted_straggler_always_fires_and_is_named(
            ranks in 16u32..64,
            culprit_count in 1u32..4,
            slow_num in 64u64..512,
        ) {
            let culprit_count = culprit_count.min(ranks / 8);
            let mut p = TailProfile::new(1 << 20);
            let slow = slow_num as f64 / 64.0;
            for rank in 0..ranks {
                for i in 0..20u64 {
                    let secs = if rank < culprit_count { slow } else { 1.0 / 64.0 };
                    p.add(rank, i * (1 << 20), secs);
                }
            }
            let hit = p.rank_correlated(0.5, &th());
            prop_assert!(hit.is_some(), "straggler not flagged: {:?}", hit);
            let want: Vec<u32> = (0..culprit_count).collect();
            prop_assert_eq!(hit.unwrap().ranks, want);
        }

        /// Verdicts are invariant under the ingest order of the records:
        /// the profile is a pure aggregate.
        #[test]
        fn verdicts_are_shuffle_invariant(
            events in proptest::collection::vec(
                (0u32..16, 0u64..64, 1u64..512),
                16..200,
            ),
            seed in 0u64..1024,
        ) {
            // Dyadic latencies make the accumulated sums exact, so the
            // comparison is bit-for-bit rather than epsilon-close.
            let build = |order: &[usize]| {
                let mut p = TailProfile::new(1 << 20);
                for &i in order {
                    let (rank, block, num) = events[i];
                    p.add(rank, block * (1 << 20), num as f64 / 64.0);
                }
                p
            };
            let forward: Vec<usize> = (0..events.len()).collect();
            let mut shuffled = forward.clone();
            let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for i in (1..shuffled.len()).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
            }
            let (a, b) = (build(&forward), build(&shuffled));
            let cut = 2.0;
            prop_assert_eq!(a.rank_correlated(cut, &th()), b.rank_correlated(cut, &th()));
            prop_assert_eq!(a.target_correlated(cut, &th()), b.target_correlated(cut, &th()));
            prop_assert_eq!(a.top_rank_share(), b.top_rank_share());
            prop_assert_eq!(a.ops(), b.ops());
        }

        /// Window membership is a pure function of `start_ns`: whatever
        /// order events arrive in — including events exactly on window
        /// boundaries — the per-window evidence is bit-identical.
        #[test]
        fn windowed_profile_is_insertion_order_invariant(
            events in proptest::collection::vec(
                // (rank, block, dyadic latency numerator, window qs)
                (0u32..16, 0u64..64, 1u64..512, 0u64..40),
                8..120,
            ),
            boundary_events in proptest::collection::vec(
                (0u32..16, 0u64..64, 1u64..512, 0u64..8, 0i64..3),
                0..16,
            ),
            seed in 0u64..1024,
        ) {
            const WIDTH_NS: u64 = 2_000_000_000;
            // Regular events land mid-window; boundary events land
            // exactly at k·width − 1, k·width, and k·width + 1 ns.
            let mut all: Vec<(u32, u64, f64, u64)> = events
                .iter()
                .map(|&(rank, block, num, q)| {
                    (rank, block << 20, num as f64 / 64.0, q * 250_000_000 + 7)
                })
                .collect();
            for &(rank, block, num, k, off) in &boundary_events {
                let base = (k + 1) * WIDTH_NS;
                let start = (base as i64 + (off - 1)) as u64;
                all.push((rank, block << 20, num as f64 / 64.0, start));
            }
            let build = |order: &[usize]| {
                let mut w = WindowedProfile::new(2.0, 16, 1 << 20, FINE_HIST_BINS);
                for &i in order {
                    let (rank, offset, secs, start_ns) = all[i];
                    w.add(rank, offset, start_ns, secs);
                }
                w
            };
            let forward: Vec<usize> = (0..all.len()).collect();
            let mut shuffled = forward.clone();
            let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for i in (1..shuffled.len()).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
            }
            // Dyadic latencies make the f64 accumulators exact, so the
            // windows compare bit-for-bit, boundary events included.
            prop_assert_eq!(build(&forward), build(&shuffled));
        }
    }
}
