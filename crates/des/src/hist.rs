//! Mergeable log-spaced histograms — the single binning implementation
//! shared by the analysis layer (`pio-core`, the paper's log-log plots of
//! Figures 4(c,f) and 6(c,f,i,l), where "the different modes, especially
//! the slowest modes, stand out"), the capture layer
//! (`pio-trace::profile`), and the streaming-ingest sketches
//! (`pio-ingest`).
//!
//! Two pieces: [`LogBins`] is the pure geometry (which bin does a value
//! fall in, where is a bin centered), and [`LogHistogram`] is geometry
//! plus mergeable counts. Merging two histograms with the same geometry
//! is exactly equivalent to accumulating the union of their streams,
//! which is what makes per-shard and per-rank collection safe.

use serde::{Deserialize, Serialize};
use std::sync::{Mutex, PoisonError};

/// Where a value lands relative to a [`LogBins`] geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinSlot {
    /// Below the range (or non-positive).
    Under,
    /// In-range bin index.
    In(usize),
    /// At or above the upper bound.
    Over,
}

/// The `[left, right)` bounds of one histogram bin.
///
/// Named fields replace the old `(f64, f64)` return of
/// [`LogBins::edges`] / [`LogHistogram::bin_edges`]: at call sites a
/// bare `.1` gave no hint whether it was the upper edge or a count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinEdges {
    /// Lower edge (inclusive).
    pub left: f64,
    /// Upper edge (exclusive).
    pub right: f64,
}

impl BinEdges {
    /// Geometric width `right / left` (log-bin "width" is a ratio).
    pub fn ratio(&self) -> f64 {
        self.right / self.left
    }

    /// Does `v` fall inside `[left, right)`?
    pub fn contains(&self, v: f64) -> bool {
        self.left <= v && v < self.right
    }
}

/// Logarithmically spaced bin geometry over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogBins {
    lo: f64,
    hi: f64,
    bins: usize,
}

impl LogBins {
    /// `bins` log-spaced bins over `[lo, hi)`; both bounds must be positive.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && bins > 0, "invalid log bin geometry");
        LogBins { lo, hi, bins }
    }

    /// Lower bound (inclusive).
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound (exclusive).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Classify a value.
    pub fn slot(&self, v: f64) -> BinSlot {
        if v <= 0.0 || v < self.lo {
            BinSlot::Under
        } else if v >= self.hi {
            BinSlot::Over
        } else {
            let frac = (v / self.lo).ln() / (self.hi / self.lo).ln();
            BinSlot::In(((frac * self.bins as f64) as usize).min(self.bins - 1))
        }
    }

    /// Bin index with out-of-range values clamped to the edge bins.
    pub fn index_clamped(&self, v: f64) -> usize {
        match self.slot(v) {
            BinSlot::Under => 0,
            BinSlot::In(i) => i,
            BinSlot::Over => self.bins - 1,
        }
    }

    /// Geometric center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.lo * (self.hi / self.lo).powf((i as f64 + 0.5) / self.bins as f64)
    }

    /// Bounds of bin `i`.
    pub fn edges(&self, i: usize) -> BinEdges {
        let n = self.bins as f64;
        BinEdges {
            left: self.lo * (self.hi / self.lo).powf(i as f64 / n),
            right: self.lo * (self.hi / self.lo).powf((i as f64 + 1.0) / n),
        }
    }
}

/// Precomputed branch-light binning kernel for one [`LogBins`] geometry.
///
/// Classifies values bit-identically to [`LogBins::slot`] without a
/// `ln` call per value: the 11-bit biased exponent of the `f64` indexes
/// a per-octave rank base, and a short sorted run of exact bin
/// boundaries inside that octave resolves the final bin with `<=`
/// comparisons only (log-spaced duration geometries put ~3-4 boundaries
/// per octave, so the scan is a handful of flops).
///
/// Boundaries are found by bisecting the positive `f64` bit space
/// against the reference `slot`, then each boundary is verified against
/// its one-ULP predecessor. If any check fails (a geometry so tight
/// that bins are narrower than a ULP, or a non-monotone libm `ln`), the
/// table marks itself inexact and every lookup falls through to the
/// reference implementation — so the kernel is bit-identical to
/// [`LogBins::slot`] *by construction*, never by assumption.
///
/// The table also keeps every bin's center and edges, evaluated once
/// with the [`LogBins::center`] / [`LogBins::edges`] expressions.
#[derive(Debug, Clone)]
pub struct BinTable {
    geom: LogBins,
    /// CSR offsets into `edges`, indexed by biased exponent (2049
    /// entries). `starts[e]` doubles as the rank base for octave `e`:
    /// it counts the boundaries strictly below the octave's first
    /// value, so `rank(v) = starts[e] + |{edges in octave e} <= v|`
    /// and `rank == 0` means Under, `rank == r` means `In(r - 1)`.
    starts: Vec<u32>,
    /// Every bin's exact lower boundary (the smallest positive `f64`
    /// classified into that bin by the reference `slot`), ascending.
    edges: Vec<f64>,
    /// Construction-time verification passed; lookups may use the table.
    exact: bool,
    /// [`LogBins::center`] of every bin, computed once so detectors
    /// scanning bins per rank or per residue call no `powf`.
    centers: Vec<f64>,
    /// [`LogBins::edges`] of every bin, computed once.
    bin_edges: Vec<BinEdges>,
}

impl BinTable {
    /// Build the kernel for `geom`. Always succeeds; if exact boundary
    /// recovery fails the table transparently degrades to the reference
    /// path (see the type docs).
    pub fn new(geom: LogBins) -> Self {
        // ord(v): Under = 0, In(i) = i + 1, Over = bins + 1 — monotone
        // in v for the reference slot (division by a positive constant,
        // ln, and scaling are all monotone).
        let ord = |v: f64| -> usize {
            match geom.slot(v) {
                BinSlot::Under => 0,
                BinSlot::In(i) => i + 1,
                BinSlot::Over => geom.bins + 1,
            }
        };
        let lo_bits = geom.lo.to_bits();
        let hi_bits = geom.hi.to_bits();
        let mut edges = Vec::with_capacity(geom.bins);
        let mut exact = true;
        for i in 0..geom.bins {
            // Smallest positive finite v with ord(v) >= i + 1, by
            // bisection over the (order-preserving) positive bit space.
            let (mut lo_b, mut hi_b) = (lo_bits, hi_bits);
            if ord(f64::from_bits(lo_b)) > i {
                hi_b = lo_b;
            }
            while lo_b < hi_b {
                let mid = lo_b + (hi_b - lo_b) / 2;
                if ord(f64::from_bits(mid)) > i {
                    hi_b = mid;
                } else {
                    lo_b = mid + 1;
                }
            }
            let b = f64::from_bits(hi_b);
            // The boundary must land exactly on its bin and its one-ULP
            // predecessor exactly on the previous slot.
            let prev = f64::from_bits(hi_b.wrapping_sub(1));
            if ord(b) != i + 1 || ord(prev) != i {
                exact = false;
                break;
            }
            edges.push(b);
        }
        let starts = if exact {
            let mut starts = Vec::with_capacity(2049);
            for e in 0..2048u64 {
                let octave_start = f64::from_bits(e << 52);
                starts.push(edges.partition_point(|b| *b < octave_start) as u32);
            }
            starts.push(edges.len() as u32);
            starts
        } else {
            edges.clear();
            Vec::new()
        };
        BinTable {
            geom,
            starts,
            edges,
            exact,
            centers: (0..geom.bins).map(|i| geom.center(i)).collect(),
            bin_edges: (0..geom.bins).map(|i| geom.edges(i)).collect(),
        }
    }

    /// The process-wide table for `geom`, built with [`Self::new`] on
    /// first request and shared by every later caller.
    ///
    /// A build runs about 60 `ln`-based bisection steps per bin plus
    /// boundary verification (~170 µs for the 96-bin duration geometry
    /// on a 2-vCPU Xeon host), so two builds per job cost more than
    /// analysing a job of a thousand records. Per-job accumulators
    /// therefore take their tables from here, and detectors read bin
    /// centers and edges from them. Keyed by the geometry's
    /// bits; a table lives for the rest of the process, so callers pass
    /// geometries from configuration, not from data (the code defaults
    /// use two).
    pub fn shared(geom: LogBins) -> &'static BinTable {
        static TABLES: Mutex<Vec<&'static BinTable>> = Mutex::new(Vec::new());
        let key = |g: &LogBins| (g.lo.to_bits(), g.hi.to_bits(), g.bins);
        // Every update is a single push of a finished table, so a
        // poisoned memo is still consistent.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tables.iter().find(|t| key(&t.geom) == key(&geom)) {
            return t;
        }
        let t: &'static BinTable = Box::leak(Box::new(BinTable::new(geom)));
        tables.push(t);
        t
    }

    /// The geometry this table classifies for.
    pub fn geometry(&self) -> LogBins {
        self.geom
    }

    /// Every bin's geometric center, bit-identical to
    /// [`LogBins::center`].
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// Every bin's bounds, bit-identical to [`LogBins::edges`].
    pub fn bin_edges(&self) -> &[BinEdges] {
        &self.bin_edges
    }

    /// Did construction verify exact boundaries (i.e. lookups avoid
    /// `ln`)? The classification result is reference-identical either
    /// way.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Classify a value — bit-identical to [`LogBins::slot`].
    #[inline]
    pub fn slot(&self, v: f64) -> BinSlot {
        if !self.exact {
            return self.geom.slot(v);
        }
        // lo > 0, so `v < lo` covers negatives, zeros, and (0, lo).
        // NaN fails every comparison and lands in In(0), exactly like
        // the reference's `(NaN * bins) as usize` saturation.
        if v < self.geom.lo {
            return BinSlot::Under;
        }
        if v >= self.geom.hi {
            return BinSlot::Over;
        }
        if v.is_nan() {
            return BinSlot::In(0);
        }
        let e = ((v.to_bits() >> 52) & 0x7ff) as usize;
        let mut rank = self.starts[e] as usize;
        let lo = self.starts[e] as usize;
        let hi = self.starts[e + 1] as usize;
        for &b in &self.edges[lo..hi] {
            rank += (b <= v) as usize;
        }
        debug_assert_eq!(BinSlot::In(rank - 1), self.geom.slot(v));
        BinSlot::In(rank - 1)
    }

    /// Bin index with out-of-range values clamped to the edge bins —
    /// bit-identical to [`LogBins::index_clamped`].
    #[inline]
    pub fn index_clamped(&self, v: f64) -> usize {
        match self.slot(v) {
            BinSlot::Under => 0,
            BinSlot::In(i) => i,
            BinSlot::Over => self.geom.bins - 1,
        }
    }
}

/// A histogram with logarithmically spaced bins over `[lo, hi)`.
///
/// Out-of-range samples land in dedicated under/overflow counters by
/// default ([`LogHistogram::add`]); capture-style collectors that prefer
/// clamping use [`LogHistogram::add_clamped`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl LogHistogram {
    /// `bins` log-spaced bins over `[lo, hi)`; both bounds must be positive.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        let geom = LogBins::new(lo, hi, bins);
        LogHistogram {
            lo: geom.lo,
            hi: geom.hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Build from positive samples, range padded to cover all of them.
    /// Non-positive samples land in the underflow counter.
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        let positives: Vec<f64> = samples.iter().cloned().filter(|&v| v > 0.0).collect();
        assert!(!positives.is_empty(), "no positive samples");
        let min = positives.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = positives.iter().cloned().fold(0.0f64, f64::max);
        let mut h = LogHistogram::new(min / 1.05, max * 1.05, bins);
        for &s in samples {
            h.add(s);
        }
        h
    }

    /// Rebuild from raw parts — for container formats (e.g. saved
    /// profiles) that store the counts of several histograms side by side.
    /// Panics on invalid geometry or empty counts.
    pub fn from_parts(lo: f64, hi: f64, counts: Vec<u64>, underflow: u64, overflow: u64) -> Self {
        LogBins::new(lo, hi, counts.len());
        LogHistogram {
            lo,
            hi,
            counts,
            underflow,
            overflow,
        }
    }

    /// The bin geometry.
    pub fn geometry(&self) -> LogBins {
        LogBins::new(self.lo, self.hi, self.counts.len())
    }

    /// Record one sample (non-positive values count as underflow).
    pub fn add(&mut self, v: f64) {
        match self.geometry().slot(v) {
            BinSlot::Under => self.underflow += 1,
            BinSlot::In(i) => self.counts[i] += 1,
            BinSlot::Over => self.overflow += 1,
        }
    }

    /// Record one sample, clamping out-of-range values to the edge bins.
    pub fn add_clamped(&mut self, v: f64) {
        let i = self.geometry().index_clamped(v);
        self.counts[i] += 1;
    }

    /// Record one sample already clamped to bin `i`. Equivalent to
    /// [`Self::add_clamped`] when `i` came from this histogram's
    /// geometry ([`BinTable::index_clamped`]).
    #[inline]
    pub fn add_clamped_at(&mut self, i: usize) {
        self.counts[i] += 1;
    }

    /// Geometric center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.geometry().center(i)
    }

    /// Bounds of bin `i`.
    pub fn bin_edges(&self, i: usize) -> BinEdges {
        self.geometry().edges(i)
    }

    /// Raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bin count.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Samples below the range (or non-positive).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples including out-of-range.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// In-range samples.
    pub fn in_range(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(center, count)` pairs with nonzero counts — ready for log-log
    /// plotting.
    pub fn series(&self) -> Vec<(f64, u64)> {
        (0..self.counts.len())
            .filter(|&i| self.counts[i] > 0)
            .map(|i| (self.bin_center(i), self.counts[i]))
            .collect()
    }

    /// Fraction of in-range mass at or beyond `threshold` — quantifies a
    /// "right shoulder" like Franklin's slow reads.
    pub fn tail_fraction(&self, threshold: f64) -> f64 {
        let total = self.in_range();
        if total == 0 {
            return 0.0;
        }
        let tail: u64 = (0..self.counts.len())
            .filter(|&i| self.bin_edges(i).right > threshold)
            .map(|i| self.counts[i])
            .sum();
        tail as f64 / total as f64 + self.overflow as f64 / total as f64
    }

    /// Approximate quantile over the in-range mass (bin-center resolution),
    /// or `None` if empty. `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.in_range();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for i in 0..self.counts.len() {
            acc += self.counts[i];
            if acc >= target {
                return Some(self.bin_center(i));
            }
        }
        Some(self.bin_center(self.counts.len() - 1))
    }

    /// Merge another histogram with the same geometry into this one; the
    /// result is identical to having accumulated both streams into one
    /// histogram. Panics if geometries differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "merging log histograms with different bin geometry"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_partition_the_line() {
        let g = LogBins::new(0.1, 10.0, 20);
        assert_eq!(g.slot(-1.0), BinSlot::Under);
        assert_eq!(g.slot(0.05), BinSlot::Under);
        assert_eq!(g.slot(0.1), BinSlot::In(0));
        assert_eq!(g.slot(10.0), BinSlot::Over);
        assert_eq!(g.index_clamped(1e-9), 0);
        assert_eq!(g.index_clamped(1e9), 19);
    }

    #[test]
    fn centers_inside_edges() {
        let g = LogBins::new(0.01, 100.0, 32);
        for i in 0..32 {
            let c = g.center(i);
            let e = g.edges(i);
            assert!(e.contains(c), "bin {i}: {} {c} {}", e.left, e.right);
            assert!(e.ratio() > 1.0);
            assert_eq!(g.slot(c), BinSlot::In(i));
        }
    }

    #[test]
    fn merge_equals_union() {
        let vals: Vec<f64> = (1..200).map(|i| 0.01 * i as f64 * i as f64).collect();
        let mut a = LogHistogram::new(0.05, 50.0, 24);
        let mut b = a.clone();
        let mut union = a.clone();
        for (i, &v) in vals.iter().enumerate() {
            if i % 3 == 0 {
                a.add(v);
            } else {
                b.add(v);
            }
            union.add(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_geometry() {
        let mut a = LogHistogram::new(0.1, 10.0, 8);
        let b = LogHistogram::new(0.1, 10.0, 16);
        a.merge(&b);
    }

    /// Deterministic 64-bit mixer for test-value generation.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn table_geometries() -> Vec<LogBins> {
        vec![
            // The duration geometry every ingest sketch uses.
            LogBins::new(1e-6, 1e3, 96),
            LogBins::new(0.1, 10.0, 20),
            LogBins::new(1e-3, 1e3, 64),
            LogBins::new(0.05, 50.0, 24),
            // One bin, power-of-two aligned bounds, subnormal lows.
            LogBins::new(1.0, 2.0, 1),
            LogBins::new(0.25, 1024.0, 7),
            LogBins::new(1e-310, 1e-300, 12),
        ]
    }

    #[test]
    fn bin_table_matches_reference_on_specials_and_edges() {
        for g in table_geometries() {
            for t in [&BinTable::new(g), BinTable::shared(g)] {
                assert!(t.is_exact(), "expected exact table for {g:?}");
                let mut probes = vec![
                    0.0,
                    -0.0,
                    -1.0,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::MIN_POSITIVE,
                    5e-324,
                    g.lo(),
                    g.hi(),
                    f64::MAX,
                ];
                // Every bin boundary ± 64 ULPs, plus exact edges/centers.
                for i in 0..g.bins() {
                    let e = g.edges(i);
                    for anchor in [e.left, e.right, g.center(i)] {
                        let bits = anchor.to_bits();
                        for d in 0..64u64 {
                            probes.push(f64::from_bits(bits.wrapping_add(d)));
                            probes.push(f64::from_bits(bits.wrapping_sub(d)));
                        }
                    }
                }
                for v in probes {
                    assert_eq!(t.slot(v), g.slot(v), "slot({v:e}) on {g:?}");
                    assert_eq!(
                        t.index_clamped(v),
                        g.index_clamped(v),
                        "index_clamped({v:e}) on {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bin_table_geometry_is_the_reference_bit_for_bit() {
        for g in [
            // Duration geometry, tail-profile geometry, an odd one.
            LogBins::new(1e-6, 1e3, 96),
            LogBins::new(1e-6, 1e3, 48),
            LogBins::new(0.05, 50.0, 24),
        ] {
            let t = BinTable::new(g);
            assert_eq!(t.centers().len(), g.bins());
            assert_eq!(t.bin_edges().len(), g.bins());
            for i in 0..g.bins() {
                let (e, want) = (t.bin_edges()[i], g.edges(i));
                assert_eq!(
                    t.centers()[i].to_bits(),
                    g.center(i).to_bits(),
                    "{g:?} bin {i}"
                );
                assert_eq!(e.left.to_bits(), want.left.to_bits(), "{g:?} bin {i}");
                assert_eq!(e.right.to_bits(), want.right.to_bits(), "{g:?} bin {i}");
            }
        }
    }

    #[test]
    fn shared_tables_are_one_per_geometry() {
        let a = LogBins::new(1e-6, 1e3, 96);
        let b = LogBins::new(1e-6, 1e3, 48);
        assert!(std::ptr::eq(BinTable::shared(a), BinTable::shared(a)));
        assert!(std::ptr::eq(
            BinTable::shared(LogBins::new(1e-6, 1e3, 96)),
            BinTable::shared(a)
        ));
        assert!(!std::ptr::eq(BinTable::shared(a), BinTable::shared(b)));
        assert_eq!(BinTable::shared(b).geometry(), b);
    }

    #[test]
    fn bin_table_matches_reference_on_dense_random_sweep() {
        let mut state = 0x5eed_1234u64;
        for g in table_geometries() {
            let t = BinTable::new(g);
            let (lo_bits, hi_bits) = (g.lo().to_bits(), g.hi().to_bits());
            for _ in 0..200_000 {
                // Log-uniform over the geometry's own range (uniform in
                // bit space), widened a little past both ends.
                let span = hi_bits - lo_bits;
                let bits = lo_bits
                    .wrapping_sub(span / 8)
                    .wrapping_add(splitmix(&mut state) % (span + span / 4).max(1));
                let v = f64::from_bits(bits);
                assert_eq!(t.slot(v), g.slot(v), "slot({v:e}) on {g:?}");
            }
        }
    }

    #[test]
    fn bin_table_degrades_to_reference_when_bins_are_subulp() {
        // 1000 bins across a 2-ULP interval: boundaries can't be
        // recovered exactly, so the table must fall back — and still
        // agree with the reference everywhere.
        let lo = 1.0f64;
        let hi = f64::from_bits(lo.to_bits() + 2);
        let g = LogBins::new(lo, hi, 1000);
        let t = BinTable::new(g);
        assert!(!t.is_exact());
        for v in [0.0, lo, f64::from_bits(lo.to_bits() + 1), hi, 2.0] {
            assert_eq!(t.slot(v), g.slot(v));
        }
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LogHistogram::new(1e-3, 1e3, 64);
        for i in 1..=100 {
            h.add(i as f64 * 0.1);
        }
        let q50 = h.quantile(0.5).unwrap();
        assert!(q50 > 2.5 && q50 < 10.0, "{q50}");
        assert!(h.quantile(1.0).unwrap() >= q50);
        assert!(LogHistogram::new(0.1, 1.0, 4).quantile(0.5).is_none());
    }

    #[test]
    fn spans_decades() {
        let mut h = LogHistogram::new(0.001, 1000.0, 60);
        for v in [0.002, 0.02, 0.2, 2.0, 20.0, 200.0] {
            h.add(v);
        }
        assert_eq!(h.in_range(), 6);
        // Each sample in its own bin (decade apart, 10 bins per decade).
        assert_eq!(h.series().len(), 6);
    }

    #[test]
    fn nonpositive_goes_to_underflow() {
        let mut h = LogHistogram::new(0.1, 10.0, 4);
        h.add(0.0);
        h.add(-5.0);
        h.add(1.0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.in_range(), 1);
    }

    #[test]
    fn from_samples_covers_everything_positive() {
        let samples: Vec<f64> = (1..=500).map(|i| i as f64 * 0.01).collect();
        let h = LogHistogram::from_samples(&samples, 40);
        assert_eq!(h.in_range(), 500);
    }

    #[test]
    fn bin_center_round_trips() {
        let h = LogHistogram::new(0.01, 100.0, 32);
        for i in 0..32 {
            let c = h.bin_center(i);
            let e = h.bin_edges(i);
            assert!(e.contains(c), "bin {i}: {} {c} {}", e.left, e.right);
        }
    }

    #[test]
    fn tail_fraction_measures_the_shoulder() {
        let mut h = LogHistogram::new(0.1, 1000.0, 40);
        // 90 fast events at ~1, 10 slow at ~100.
        for _ in 0..90 {
            h.add(1.0);
        }
        for _ in 0..10 {
            h.add(100.0);
        }
        let tail = h.tail_fraction(10.0);
        assert!((tail - 0.1).abs() < 0.02, "{tail}");
        assert!(h.tail_fraction(0.05) > 0.99);
        assert_eq!(h.tail_fraction(2000.0), 0.0);
    }

    #[test]
    fn series_skips_empty_bins() {
        let mut h = LogHistogram::new(0.1, 10.0, 20);
        h.add(1.0);
        assert_eq!(h.series().len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Mass conservation across decades.
        #[test]
        fn mass_conserved(samples in proptest::collection::vec(1e-6f64..1e6, 1..300)) {
            let h = LogHistogram::from_samples(&samples, 64);
            prop_assert_eq!(h.total() as usize, samples.len());
            prop_assert_eq!(h.in_range() as usize, samples.len());
        }

        /// Bins are monotone in value.
        #[test]
        fn binning_monotone(a in 1e-3f64..1e3, b in 1e-3f64..1e3) {
            let g = LogBins::new(1e-4, 1e4, 48);
            let bin = |v: f64| match g.slot(v) {
                BinSlot::In(i) => i,
                _ => unreachable!("in-range by construction"),
            };
            if a <= b {
                prop_assert!(bin(a) <= bin(b));
            } else {
                prop_assert!(bin(a) >= bin(b));
            }
        }
    }
}
