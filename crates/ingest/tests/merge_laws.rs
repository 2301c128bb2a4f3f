//! Property-based merge laws for the mergeable sketches: `merge(a, b)`
//! must equal batch accumulation over the concatenated streams, and the
//! shard-level merge must be commutative and associative. These laws are
//! what make concurrent sharded ingestion exact — any snapshot equals
//! the sequential single-accumulator run over the union of the inputs.
//!
//! The compact [`QuantileSketch`] stores only its touched bucket span;
//! [`Dense`] here is the every-bucket layout it replaced, kept as the
//! oracle its readings must equal bit for bit.

use pio_des::hist::{BinTable, LogBins, LogHistogram};
use pio_ingest::shard::ShardStats;
use pio_ingest::{OnlineMoments, QuantileSketch};
use pio_trace::{CallKind, Record};
use proptest::prelude::*;

/// Positive durations spanning the default sketch geometry, including
/// out-of-range values that exercise bucket clamping.
fn arb_durations() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-7f64..5e3, 0..200)
}

fn hist_of(xs: &[f64]) -> LogHistogram {
    let mut h = LogHistogram::new(1e-6, 1e3, 96);
    for &x in xs {
        h.add_clamped(x);
    }
    h
}

fn sketch_of(xs: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new(1e-6, 1e3, 96);
    for &x in xs {
        s.add(x);
    }
    s
}

fn moments_of(xs: &[f64]) -> OnlineMoments {
    let mut m = OnlineMoments::new();
    for &x in xs {
        m.record(x);
    }
    m
}

fn stats_of(records: &[Record]) -> ShardStats {
    let mut s = ShardStats::new(1e-6, 1e3, 96);
    for r in records {
        s.accumulate(r);
    }
    s
}

/// Records with varied durations/sizes; rank and phase do not matter for
/// the per-shard laws.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    let rec = (1u64..10_000_000, 0u64..1 << 24).prop_map(|(dur_us, bytes)| Record {
        rank: 0,
        call: CallKind::Read,
        fd: 3,
        offset: 0,
        bytes,
        start_ns: 0,
        end_ns: dur_us * 1000,
        phase: 0,
    });
    proptest::collection::vec(rec, 0..120)
}

fn assert_stats_eq(a: &ShardStats, b: &ShardStats) {
    assert_eq!(a.hist().counts(), b.hist().counts());
    assert_eq!(a.sketch.count(), b.sketch.count());
    assert!((a.sketch.sum() - b.sketch.sum()).abs() <= 1e-6 * a.sketch.sum().abs().max(1.0));
    assert_eq!(a.moments.count(), b.moments.count());
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.bytes, b.bytes);
    assert!((a.secs - b.secs).abs() <= 1e-6 * a.secs.abs().max(1.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram merge is exactly the histogram of the concatenation.
    #[test]
    fn histogram_merge_is_concatenation(a in arb_durations(), b in arb_durations()) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let union: Vec<f64> = a.iter().chain(&b).cloned().collect();
        prop_assert_eq!(merged.counts(), hist_of(&union).counts());
    }

    /// Histogram merge is commutative.
    #[test]
    fn histogram_merge_commutes(a in arb_durations(), b in arb_durations()) {
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(ab.counts(), ba.counts());
    }

    /// Sketch merge: counts/min/max exact, per-bucket sums to float
    /// tolerance, so every quantile estimate matches the batch sketch.
    #[test]
    fn sketch_merge_is_concatenation(a in arb_durations(), b in arb_durations()) {
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let union: Vec<f64> = a.iter().chain(&b).cloned().collect();
        let batch = sketch_of(&union);
        prop_assert_eq!(merged.count(), batch.count());
        prop_assert_eq!(merged.min(), batch.min());
        prop_assert_eq!(merged.max(), batch.max());
        prop_assert!((merged.sum() - batch.sum()).abs() <= 1e-6 * batch.sum().abs().max(1.0));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            match (merged.quantile(q), batch.quantile(q)) {
                (Some(m), Some(bq)) => prop_assert!((m - bq).abs() <= 1e-9 * bq.abs().max(1.0)),
                (m, bq) => prop_assert_eq!(m, bq),
            }
        }
    }

    /// Sketch merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn sketch_merge_associates(
        a in arb_durations(),
        b in arb_durations(),
        c in arb_durations(),
    ) {
        let mut left = sketch_of(&a);
        left.merge(&sketch_of(&b));
        left.merge(&sketch_of(&c));
        let mut bc = sketch_of(&b);
        bc.merge(&sketch_of(&c));
        let mut right = sketch_of(&a);
        right.merge(&bc);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        prop_assert!((left.sum() - right.sum()).abs() <= 1e-6 * right.sum().abs().max(1.0));
    }

    /// Moments merge (Chan/Terriberry) matches streaming the union.
    #[test]
    fn moments_merge_is_concatenation(a in arb_durations(), b in arb_durations()) {
        let mut merged = moments_of(&a);
        merged.merge(&moments_of(&b));
        let union: Vec<f64> = a.iter().chain(&b).cloned().collect();
        let batch = moments_of(&union);
        prop_assert_eq!(merged.count(), batch.count());
        if let (Some(m), Some(bm)) = (merged.mean(), batch.mean()) {
            prop_assert!((m - bm).abs() <= 1e-9 * bm.abs().max(1.0));
        }
        if let (Some(v), Some(bv)) = (merged.variance(), batch.variance()) {
            prop_assert!((v - bv).abs() <= 1e-6 * bv.abs().max(1.0));
        }
    }

    /// ShardStats merge is commutative and equals batch accumulation.
    #[test]
    fn shard_merge_commutes_and_matches_batch(a in arb_records(), b in arb_records()) {
        let mut ab = stats_of(&a);
        ab.merge(&stats_of(&b));
        let mut ba = stats_of(&b);
        ba.merge(&stats_of(&a));
        assert_stats_eq(&ab, &ba);
        let union: Vec<Record> = a.iter().chain(&b).cloned().collect();
        assert_stats_eq(&ab, &stats_of(&union));
    }

    /// ShardStats merge is associative.
    #[test]
    fn shard_merge_associates(a in arb_records(), b in arb_records(), c in arb_records()) {
        let mut left = stats_of(&a);
        left.merge(&stats_of(&b));
        left.merge(&stats_of(&c));
        let mut bc = stats_of(&b);
        bc.merge(&stats_of(&c));
        let mut right = stats_of(&a);
        right.merge(&bc);
        assert_stats_eq(&left, &right);
    }
}

/// The dense sketch layout: every bucket of the geometry stored, every
/// reading a walk over all of them, exactly as the sketch computed them
/// before it stored only its touched span.
#[derive(Clone)]
struct Dense {
    geom: LogBins,
    counts: Vec<u64>,
    sums: Vec<f64>,
    min: f64,
    max: f64,
}

impl Dense {
    fn new(lo: f64, hi: f64, bins: usize) -> Self {
        Dense {
            geom: LogBins::new(lo, hi, bins),
            counts: vec![0; bins],
            sums: vec![0.0; bins],
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn add(&mut self, v: f64) {
        let i = self.geom.index_clamped(v);
        self.counts[i] += 1;
        self.sums[i] += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Dense) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        for (s, o) in self.sums.iter_mut().zip(&other.sums) {
            *s += o;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn sum(&self) -> f64 {
        self.sums.iter().sum()
    }

    fn min(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.min)
    }

    fn max(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.max)
    }

    fn bucket_value(&self, i: usize) -> f64 {
        if self.counts[i] > 0 {
            self.sums[i] / self.counts[i] as f64
        } else {
            self.geom.center(i)
        }
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for i in 0..self.counts.len() {
            acc += self.counts[i];
            if acc >= target {
                return Some(self.bucket_value(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    fn fraction_above(&self, x: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let above: u64 = (0..self.counts.len())
            .filter(|&i| self.counts[i] > 0 && self.bucket_value(i) > x)
            .map(|i| self.counts[i])
            .sum();
        above as f64 / total as f64
    }

    fn to_histogram(&self) -> LogHistogram {
        LogHistogram::from_parts(self.geom.lo(), self.geom.hi(), self.counts.clone(), 0, 0)
    }
}

/// Every reading of `s` equals the dense model's, floats by bit pattern.
fn assert_matches_dense(s: &QuantileSketch, d: &Dense) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(s.count(), d.count());
    assert_eq!(s.sum().to_bits(), d.sum().to_bits());
    assert_eq!(bits(s.min()), bits(d.min()));
    assert_eq!(bits(s.max()), bits(d.max()));
    for q in (0..=20).map(|i| f64::from(i) / 20.0).chain([0.99, 0.999]) {
        assert_eq!(bits(s.quantile(q)), bits(d.quantile(q)), "q={q}");
    }
    for cut in [1e-6, 1e-4, 1e-3, 1e-2, 1.0, 100.0] {
        let (got, want) = (s.fraction_above(cut), d.fraction_above(cut));
        assert_eq!(got.to_bits(), want.to_bits(), "cut={cut}");
    }
    assert_eq!(s.to_histogram(), d.to_histogram());
}

/// Values a quarter of the samples take: the geometry's exact edges,
/// zero, values beyond both edges, and two that stack in one bucket.
const SPECIAL: [f64; 7] = [0.0, 1e-6, 1e3, 1e-9, 5e4, 0.25, 3.0];

/// Samples in any bucket order: log-uniform over and beyond the
/// `[1e-6, 1e3)` geometry (clamped at both edges), plus [`SPECIAL`].
fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    let v = (0..4 * SPECIAL.len(), -8.5f64..4.5)
        .prop_map(|(k, e)| SPECIAL.get(k).copied().unwrap_or(10f64.powf(e)));
    proptest::collection::vec(v, 0..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compact sketch reads as the dense model, bit for bit, on a
    /// whole stream, on each part of the stream split in two (often one
    /// part is empty) and on the parts merged back in either order.
    /// `how` picks the split: interleaved by a mask (overlapping spans),
    /// by a value cut (disjoint spans) or at an index (a prefix,
    /// possibly empty); merging in an empty sketch, on either side,
    /// changes nothing. The stream fed through `add_block` in blocks of
    /// `at` equals it fed sample by sample.
    #[test]
    fn compact_sketch_matches_dense_model(
        xs in arb_samples(),
        mask in proptest::collection::vec(0u8..2, 160),
        how in 0usize..3,
        cut in -7.0f64..4.0,
        at in 0usize..160,
        b_first in 0u8..2,
    ) {
        let (mut whole, mut dense) = (sketch_of(&[]), Dense::new(1e-6, 1e3, 96));
        for &x in &xs {
            whole.add(x);
            dense.add(x);
        }
        assert_matches_dense(&whole, &dense);
        let table = BinTable::shared(whole.geometry());
        let mut blocks = sketch_of(&[]);
        for block in xs.chunks(at.max(1)) {
            blocks.add_block(block, table);
        }
        assert_eq!(blocks, whole);

        let cut = 10f64.powf(cut);
        let in_a = |i: usize, x: f64| match how {
            0 => mask[i] == 1,
            1 => x < cut,
            _ => i < at,
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (i, &x) in xs.iter().enumerate() {
            if in_a(i, x) { a.push(x) } else { b.push(x) }
        }
        let dense_of = |xs: &[f64]| {
            let mut d = Dense::new(1e-6, 1e3, 96);
            xs.iter().for_each(|&x| d.add(x));
            d
        };
        let (first, second) = if b_first == 1 { (&b, &a) } else { (&a, &b) };
        for part in [first, second] {
            assert_matches_dense(&sketch_of(part), &dense_of(part));
        }
        let mut merged = sketch_of(first);
        merged.merge(&sketch_of(second));
        let mut model = dense_of(first);
        model.merge(&dense_of(second));
        assert_matches_dense(&merged, &model);

        let mut left = sketch_of(&[]);
        left.merge(&merged);
        merged.merge(&sketch_of(&[]));
        prop_assert_eq!(&left, &merged);
        assert_matches_dense(&left, &model);
    }
}
