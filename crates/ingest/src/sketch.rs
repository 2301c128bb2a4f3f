//! Streaming sketches.
//!
//! The snapshot's sketches satisfy the same law as
//! [`pio_des::hist::LogHistogram`]: merging two sketches built from
//! disjoint streams gives the same state (counts exactly, float
//! accumulators up to rounding) as one sketch fed the concatenated
//! stream. That law is what lets shards, and a fleet's snapshots, merge
//! in any order.
//!
//! * [`QuantileSketch`] — mergeable log-bucketed quantile estimator.
//!   Buckets follow a [`LogBins`] geometry; each keeps a count *and* a
//!   sum so quantiles are reported at the mean of the in-bucket samples
//!   rather than the geometric bin center, which tightens the estimate
//!   considerably for the concentrated unimodal distributions healthy
//!   I/O produces. It stores only the span of buckets its samples
//!   touched, and keeps its sample count, so `count`, `min` and `max`
//!   are O(1). Its counts are the clamped [`LogHistogram`] of the
//!   samples ([`QuantileSketch::to_histogram`], built on demand), which
//!   the stream diagnoser's histogram-based detectors and a shard's
//!   duration panel read; nothing stores them a second time.
//! * [`OnlineMoments`] (re-exported) — mergeable mean/variance/skew/
//!   kurtosis accumulator from `pio-des`.
//! * [`HeavyHitters`] — weighted Space-Saving top-k over ranks, which
//!   the stream diagnoser keeps to spot one rank monopolizing metadata
//!   time or small writes without a per-rank table. It is one run's
//!   evidence and does not merge.

use pio_des::hist::{BinTable, LogBins, LogHistogram};
pub use pio_des::stats::OnlineMoments;
use std::collections::HashMap;

/// Streaming quantile sketch over log-spaced buckets.
///
/// Out-of-range samples are clamped into the edge buckets (capture-style:
/// nothing is dropped), and the exact global min/max are tracked so the
/// extreme quantiles never report outside the observed range.
///
/// Storage is compact: `buckets` holds a `(count, sum)` pair for
/// exactly the span from the lowest to the highest bucket any sample
/// has touched, starting at bucket `first`, and grows on a cold path
/// when a sample lands outside it. A healthy ensemble sits in a few modes, so a shard or window
/// holds a handful of buckets, not the geometry's 96. Every reading
/// equals the dense layout's bit for bit: buckets outside the span are
/// empty and contribute nothing to a count, a quantile walk or a sum.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    geom: LogBins,
    /// Bucket index of `buckets[0]` (0 while the sketch is empty).
    first: usize,
    /// `(count, sum)` of each bucket in the span.
    buckets: Vec<(u64, f64)>,
    /// Samples recorded: the sum of the counts, kept so `count()` is O(1).
    total: u64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// A sketch with `bins` log-spaced buckets over `[lo, hi)`. It
    /// allocates nothing until the first sample.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        QuantileSketch {
            geom: LogBins::new(lo, hi, bins),
            first: 0,
            buckets: Vec::new(),
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket geometry.
    pub fn geometry(&self) -> LogBins {
        self.geom
    }

    /// The bucket counts as a [`LogHistogram`] over the sketch's
    /// geometry: the histogram `add_clamped` builds from the same
    /// samples. Built on demand, dense, so a sketch stores its counts
    /// once.
    pub fn to_histogram(&self) -> LogHistogram {
        let mut counts = vec![0; self.geom.bins()];
        for (c, &(n, _)) in counts[self.span()].iter_mut().zip(&self.buckets) {
            *c = n;
        }
        LogHistogram::from_parts(self.geom.lo(), self.geom.hi(), counts, 0, 0)
    }

    /// The stored bucket span: exactly the lowest to the highest touched
    /// bucket, empty for an empty sketch.
    pub(crate) fn span(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.buckets.len()
    }

    /// Record one sample.
    pub fn add(&mut self, v: f64) {
        let i = self.geom.index_clamped(v);
        self.add_at(v, i);
    }

    /// Record one pre-classified sample. `i` must equal
    /// `self.geometry().index_clamped(v)` — batch paths classify once
    /// against a shared [`BinTable`] and fan the index out to every
    /// collector with this geometry. Bit-identical to [`Self::add`].
    #[inline]
    pub fn add_at(&mut self, v: f64, i: usize) {
        debug_assert_eq!(i, self.geom.index_clamped(v));
        let b = self.bucket_mut(i);
        b.0 += 1;
        b.1 += v;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Bucket `i`'s `(count, sum)`, widening the span to it first if a
    /// sample lands outside it.
    #[inline]
    fn bucket_mut(&mut self, i: usize) -> &mut (u64, f64) {
        // Below `first` the offset wraps past any length: one compare
        // checks both sides of the span.
        if i.wrapping_sub(self.first) >= self.buckets.len() {
            self.cover(i, i);
        }
        &mut self.buckets[i - self.first]
    }

    /// Widen the stored span to include buckets `lo..=hi`, the new
    /// buckets empty. Capacity grows exactly, so a filed sketch holds
    /// no slack; a cleared one keeps its allocation for reuse.
    #[cold]
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.buckets.is_empty() {
            self.first = lo;
        }
        let first = self.first.min(lo);
        let len = (self.first + self.buckets.len()).max(hi + 1) - first;
        self.buckets.reserve_exact(len - self.buckets.len());
        let front = self.first - first;
        if front > 0 {
            self.buckets
                .splice(0..0, std::iter::repeat_n((0, 0.0), front));
            self.first = first;
        }
        self.buckets.resize(len, (0, 0.0));
    }

    /// Record a slice of samples, classifying against `table` (which
    /// must carry this sketch's geometry). Bit-identical to calling
    /// [`Self::add`] per element, without a `ln` per value. The running
    /// extremes stay in registers for the block: the widening call
    /// inside the loop would otherwise make every sample reload and
    /// store them.
    pub fn add_block(&mut self, vs: &[f64], table: &BinTable) {
        debug_assert_eq!(table.geometry(), self.geom);
        let (mut min, mut max) = (self.min, self.max);
        for &v in vs {
            let b = self.bucket_mut(table.index_clamped(v));
            b.0 += 1;
            b.1 += v;
            min = min.min(v);
            max = max.max(v);
        }
        self.total += vs.len() as u64;
        (self.min, self.max) = (min, max);
    }

    /// Forget every sample, keeping the geometry and the allocation: a
    /// tumbling window reuses its sketch instead of building a new one.
    pub(crate) fn clear(&mut self) {
        self.first = 0;
        self.buckets.clear();
        self.total = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples, bucket by bucket in bucket order (`+0.0` when
    /// empty): the sum over every bucket of the geometry, since a bucket
    /// outside the span holds `+0.0` and adding it changes nothing.
    pub fn sum(&self) -> f64 {
        self.buckets.iter().fold(0.0, |acc, &(_, s)| acc + s)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Estimated value of the bucket at span offset `j`: the mean of its
    /// samples, falling back to the geometric center for empty buckets.
    fn bucket_value(&self, j: usize) -> f64 {
        let (n, s) = self.buckets[j];
        if n > 0 {
            s / n as f64
        } else {
            self.geom.center(self.first + j)
        }
    }

    /// Approximate quantile, `q` in `[0, 1]`, or `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (j, &(n, _)) in self.buckets.iter().enumerate() {
            acc += n;
            if acc >= target {
                return Some(self.bucket_value(j).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Estimated fraction of samples above `x` (buckets count wholly by
    /// their in-bucket mean).
    pub fn fraction_above(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let above: u64 = (0..self.buckets.len())
            .filter(|&j| self.buckets[j].0 > 0 && self.bucket_value(j) > x)
            .map(|j| self.buckets[j].0)
            .sum();
        above as f64 / self.total as f64
    }

    /// Merge another sketch with the same geometry; equivalent to having
    /// fed both streams into one sketch. Panics if geometries differ.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.geom == other.geom,
            "merging quantile sketches with different bucket geometry"
        );
        if other.total == 0 {
            return;
        }
        let span = other.span();
        self.cover(span.start, span.end - 1);
        let at = span.start - self.first;
        for (b, o) in self.buckets[at..].iter_mut().zip(&other.buckets) {
            b.0 += o.0;
            b.1 += o.1;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One tracked key in a [`HeavyHitters`] sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hitter {
    /// The key (an MPI rank).
    pub key: u32,
    /// Accumulated weight (seconds), an overestimate by at most the
    /// weight of the smallest entry ever evicted.
    pub weight: f64,
    /// Accumulated operation count (same overestimate caveat).
    pub ops: u64,
}

/// Weighted Space-Saving heavy-hitter sketch: tracks the top-`k` keys by
/// total weight in O(k) memory. A key whose true weight share exceeds
/// `1/k` of the total is guaranteed to be present; reported weights
/// overestimate by at most the evicted minimum, which is harmless for
/// "one rank owns ≥25% of metadata time" style questions.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyHitters {
    capacity: usize,
    entries: HashMap<u32, (f64, u64)>,
    total_weight: f64,
    total_ops: u64,
}

impl HeavyHitters {
    /// Track up to `capacity` keys (must be nonzero).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "heavy-hitter capacity must be nonzero");
        HeavyHitters {
            capacity,
            entries: HashMap::new(),
            total_weight: 0.0,
            total_ops: 0,
        }
    }

    /// Record `weight` for `key` (one operation).
    pub fn add(&mut self, key: u32, weight: f64) {
        self.add_many(key, weight, 1);
    }

    /// Record `weight` spread over `ops` operations for `key`.
    pub fn add_many(&mut self, key: u32, weight: f64, ops: u64) {
        self.total_weight += weight;
        self.total_ops += ops;
        if let Some(e) = self.entries.get_mut(&key) {
            e.0 += weight;
            e.1 += ops;
            return;
        }
        self.insert_new(key, weight, ops);
    }

    /// Record a run of single-op weights that all belong to `key` — one
    /// hash lookup for the whole run instead of one per record. The
    /// per-record float adds are preserved in order, so the result is
    /// bit-identical to calling [`Self::add`] once per weight (each
    /// accumulator sees exactly the same add sequence; only the lookup
    /// is hoisted).
    pub fn add_run(&mut self, key: u32, weights: &[f64]) {
        let Some((&first, rest)) = weights.split_first() else {
            return;
        };
        for &w in weights {
            self.total_weight += w;
        }
        self.total_ops += weights.len() as u64;
        let e = match self.entries.get_mut(&key) {
            Some(e) => {
                e.0 += first;
                e.1 += 1;
                e
            }
            None => {
                self.insert_new(key, first, 1);
                self.entries.get_mut(&key).expect("just inserted")
            }
        };
        for &w in rest {
            e.0 += w;
            e.1 += 1;
        }
    }

    /// Start tracking `key` with `weight` over `ops`. A full sketch
    /// first evicts its [`lightest`](Self::lightest) key, whose counters
    /// the newcomer absorbs (Space-Saving), bounding the underestimate
    /// of any true heavy hitter.
    fn insert_new(&mut self, key: u32, weight: f64, ops: u64) {
        if self.entries.len() < self.capacity {
            self.entries.insert(key, (weight, ops));
            return;
        }
        let (evict, w0, n0) = self.lightest();
        self.entries.remove(&evict);
        self.entries.insert(key, (w0 + weight, n0 + ops));
    }

    /// The eviction victim: the lightest tracked key, ties going to the
    /// highest key — the entry [`Self::top`] lists last. The choice
    /// never depends on hash order, so equal streams keep equal keys.
    fn lightest(&self) -> (u32, f64, u64) {
        let (&key, &(weight, ops)) = self
            .entries
            .iter()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(b.0.cmp(a.0)))
            .expect("capacity > 0");
        (key, weight, ops)
    }

    /// Total weight seen (exact).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Total operations seen (exact).
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Number of keys tracked (at most the capacity) — [`Self::top`]'s
    /// length, without sorting.
    pub(crate) fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Tracked keys, heaviest first.
    pub fn top(&self) -> Vec<Hitter> {
        let mut v: Vec<Hitter> = self
            .entries
            .iter()
            .map(|(&key, &(weight, ops))| Hitter { key, weight, ops })
            .collect();
        v.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.key.cmp(&b.key)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_core::attribution::{FINE_HIST_BINS, TAIL_HIST_HI, TAIL_HIST_LO};

    /// A sketch over the fine duration geometry the diagnoser uses.
    fn durations() -> QuantileSketch {
        QuantileSketch::new(TAIL_HIST_LO, TAIL_HIST_HI, FINE_HIST_BINS)
    }

    #[test]
    fn sketch_quantiles_track_exact_order_stats() {
        let mut s = durations();
        let mut vals: Vec<f64> = (1..=1000).map(|i| 0.001 * i as f64).collect();
        for &v in &vals {
            s.add(v);
        }
        vals.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = vals[((q * 1000.0) as usize).min(999)];
            let est = s.quantile(q).unwrap();
            // Log buckets span a 1.24 factor; in-bucket means do better.
            assert!(
                est / exact < 1.3 && exact / est < 1.3,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(s.count(), 1000);
        assert!((s.min().unwrap() - 0.001).abs() < 1e-12);
        assert!((s.max().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sketch_merge_matches_single_stream() {
        let mut a = QuantileSketch::new(1e-3, 1e2, 48);
        let mut b = a.clone();
        let mut whole = a.clone();
        for i in 1..500 {
            let v = 0.002 * i as f64;
            if i % 2 == 0 {
                a.add(v);
            } else {
                b.add(v);
            }
            whole.add(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.quantile(0.5), whole.quantile(0.5));
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    /// Storage covers exactly the lowest to the highest touched bucket
    /// however samples arrive: after adds above, below and inside the
    /// span and clamped at both edges, after merges of disjoint,
    /// overlapping and empty spans, and after `clear`, which leaves a
    /// sketch equal to a new one.
    #[test]
    fn storage_spans_exactly_the_touched_buckets() {
        let new = || QuantileSketch::new(1e-6, 1e3, 96);
        let geom = LogBins::new(1e-6, 1e3, 96);
        let at = |i: usize| geom.center(i);
        let of = |bins: &[usize]| {
            let mut s = new();
            bins.iter().for_each(|&i| s.add(at(i)));
            s
        };
        let spans = |s: &QuantileSketch, lo: usize, hi: usize| {
            assert_eq!(s.span(), lo..hi + 1);
            assert!(s.buckets[0].0 > 0 && s.buckets[s.buckets.len() - 1].0 > 0);
        };
        let mut s = new();
        assert!(s.span().is_empty());
        for (i, lo, hi) in [(40, 40, 40), (43, 40, 43), (12, 12, 43), (20, 12, 43)] {
            s.add(at(i));
            spans(&s, lo, hi);
        }
        s.add(1e-9);
        spans(&s, 0, 43);
        s.add(5e4);
        spans(&s, 0, 95);
        assert_eq!(s.count(), 6);

        let mut m = of(&[30, 31]);
        m.merge(&of(&[60]));
        spans(&m, 30, 60);
        m.merge(&of(&[10, 35]));
        spans(&m, 10, 60);
        m.merge(&new());
        spans(&m, 10, 60);
        let mut e = new();
        e.merge(&m);
        assert_eq!(e, m);

        m.clear();
        assert!(m.span().is_empty());
        assert_eq!(m, new());
        assert_eq!((m.count(), m.sum().to_bits()), (0, 0.0f64.to_bits()));
        assert_eq!((m.min(), m.quantile(0.5)), (None, None));
        m.add(at(70));
        spans(&m, 70, 70);
    }

    #[test]
    #[should_panic]
    fn sketch_merge_rejects_mismatched_geometry() {
        let mut a = QuantileSketch::new(1e-3, 1e2, 48);
        let b = QuantileSketch::new(1e-3, 1e2, 32);
        a.merge(&b);
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = durations();
        assert!(s.quantile(0.5).is_none());
        assert!(s.min().is_none());
        assert_eq!(s.fraction_above(0.0), 0.0);
    }

    #[test]
    fn fraction_above_splits_at_threshold() {
        let mut s = QuantileSketch::new(1e-3, 1e3, 96);
        for _ in 0..90 {
            s.add(1.0);
        }
        for _ in 0..10 {
            s.add(100.0);
        }
        let f = s.fraction_above(10.0);
        assert!((f - 0.10).abs() < 1e-9, "{f}");
    }

    #[test]
    fn heavy_hitter_finds_dominant_rank() {
        let mut hh = HeavyHitters::new(4);
        // Rank 7 owns ~70% of the weight among 64 ranks.
        for round in 0..50 {
            hh.add(7, 1.0);
            hh.add(round % 64, 0.01);
        }
        let top = hh.top();
        assert_eq!(top[0].key, 7);
        assert!(top[0].weight / hh.total_weight() > 0.6);
        assert_eq!(hh.total_ops(), 100);
    }

    /// Eviction picks its victim by weight, then key, never by hash
    /// order: 64 fresh capacity-2 sketches fed three equal weights all
    /// evict key 2, the tied key `top()` lists last.
    #[test]
    fn tied_eviction_is_deterministic() {
        for _ in 0..64 {
            let mut hh = HeavyHitters::new(2);
            for key in [1, 2, 3] {
                hh.add(key, 1.0);
            }
            let mut kept: Vec<u32> = hh.top().iter().map(|h| h.key).collect();
            kept.sort_unstable();
            assert_eq!(kept, vec![1, 3]);
        }
    }

    #[test]
    fn add_run_is_bit_identical_to_per_record_adds() {
        // Small capacity so eviction fires constantly, including on the
        // first record of a run.
        let mut grouped = HeavyHitters::new(3);
        let mut per_record = HeavyHitters::new(3);
        let runs: Vec<(u32, Vec<f64>)> = (0..200)
            .map(|i| {
                let key = (i * 7) % 11;
                let len = (i % 5) + 1;
                let ws = (0..len).map(|j| 0.013 * (i + j + 1) as f64).collect();
                (key, ws)
            })
            .collect();
        for (key, ws) in &runs {
            grouped.add_run(*key, ws);
            for &w in ws {
                per_record.add(*key, w);
            }
        }
        assert_eq!(grouped, per_record);
        grouped.add_run(42, &[]);
        assert_eq!(grouped, per_record);
    }
}
