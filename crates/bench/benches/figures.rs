//! Criterion benchmarks regenerating each figure of the paper at reduced
//! scale — one bench per table/figure, so `cargo bench` exercises every
//! experiment path (the full-scale numbers come from the `figN_*`
//! binaries and `all_experiments`).

use criterion::{criterion_group, criterion_main, Criterion};
use pio_bench::{fig1, fig2, fig4, fig5, fig6};
use pio_fs::FsConfig;
use std::hint::black_box;

fn bench_fig1(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig1_ior_scale64", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(fig1::run(64, seed, None).runtime_s)
        })
    });
    g.finish();
}

fn bench_fig2(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig2_lln_sweep_scale64", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(fig2::run(64, seed, None).len())
        })
    });
    g.finish();
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig4_madbench_franklin_scale64", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(fig4::run(FsConfig::franklin(), 64, seed, None).runtime_s)
        })
    });
    g.finish();
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig5_patch_comparison_scale64", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(fig5::run(64, seed).speedup)
        })
    });
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig6_gcrm_ladder_scale256", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(fig6::run_all(256, seed, None).len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fig1, bench_fig2, bench_fig4, bench_fig5, bench_fig6);
criterion_main!(benches);
