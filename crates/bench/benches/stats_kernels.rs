//! Criterion microbenchmarks for the ensemble-statistics kernels — the
//! operations a production IPM-I/O reduction would run at scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pio_core::distance::{ks_statistic, wasserstein1};
use pio_core::empirical::EmpiricalDist;
use pio_core::hist::Histogram;
use pio_core::kde::Kde;
use pio_core::lln::GridPdf;
use pio_core::modes::find_modes;
use pio_core::order_stats;
use pio_des::hist::LogHistogram;
use std::hint::black_box;

fn samples(n: usize) -> Vec<f64> {
    // Deterministic tri-modal data shaped like an IOR ensemble.
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

fn bench_histograms(c: &mut Criterion) {
    let data = samples(100_000);
    c.bench_function("hist/linear_fill_100k", |b| {
        b.iter(|| Histogram::from_samples(black_box(&data), 64))
    });
    c.bench_function("hist/log_fill_100k", |b| {
        b.iter(|| LogHistogram::from_samples(black_box(&data), 64))
    });
}

fn bench_empirical(c: &mut Criterion) {
    let data = samples(100_000);
    c.bench_function("empirical/build_100k", |b| {
        b.iter(|| EmpiricalDist::new(black_box(&data)))
    });
    let d = EmpiricalDist::new(&data);
    c.bench_function("empirical/quantiles_x100", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += d.quantile(i as f64 / 100.0);
            }
            black_box(acc)
        })
    });
    c.bench_function("empirical/moments_100k", |b| {
        b.iter(|| (d.mean(), d.variance(), d.skewness(), d.excess_kurtosis()))
    });
}

fn bench_distances(c: &mut Criterion) {
    let a = EmpiricalDist::new(&samples(10_000));
    let b2 = EmpiricalDist::new(&samples(10_000).iter().map(|x| x * 1.01).collect::<Vec<_>>());
    c.bench_function("distance/ks_10k", |b| {
        b.iter(|| ks_statistic(black_box(&a), black_box(&b2)))
    });
    c.bench_function("distance/wasserstein_10k", |b| {
        b.iter(|| wasserstein1(black_box(&a), black_box(&b2)))
    });
}

fn bench_modes_and_order_stats(c: &mut Criterion) {
    let d = EmpiricalDist::new(&samples(5_000));
    c.bench_function("modes/kde_grid_512", |b| {
        let kde = Kde::new(&d);
        b.iter(|| kde.grid(black_box(512)))
    });
    // The same evaluation forced down the exact O(n·points) path — the
    // before/after pair for the linear-binned fast path.
    c.bench_function("modes/kde_grid_exact_512", |b| {
        let kde = Kde::new(&d);
        b.iter(|| kde.grid_exact(black_box(512)))
    });
    c.bench_function("modes/find_modes_5k", |b| {
        b.iter(|| find_modes(black_box(&d)))
    });
    // A small ensemble on the batch harmonic detector's grid: its step
    // (0.065) resolves the bandwidth (1.39), so the grid is binned.
    let small = EmpiricalDist::new(&samples(256));
    c.bench_function("modes/find_modes_256", |b| {
        b.iter(|| find_modes(black_box(&small)))
    });
    c.bench_function("order_stats/expected_max_1024", |b| {
        b.iter(|| order_stats::expected_max(black_box(&d), 1024))
    });
}

fn bench_convolution(c: &mut Criterion) {
    let d = EmpiricalDist::new(&samples(5_000));
    c.bench_function("lln/convolve_k8_96bins", |b| {
        b.iter_batched(
            || GridPdf::from_empirical(&d, 96),
            |g| g.convolve_k(8),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_histograms,
    bench_empirical,
    bench_distances,
    bench_modes_and_order_stats,
    bench_convolution
);
criterion_main!(benches);
