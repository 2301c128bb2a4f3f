//! Criterion benchmarks for streaming ingest: streaming vs batch
//! analysis throughput and trace parse throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use pio_core::diagnose;
use pio_ingest::{DiagnoserConfig, StreamDiagnoser};
use pio_trace::{CallKind, Record, RecordSink, Trace, TraceFormat, TraceMeta};
use std::hint::black_box;

/// A deterministic MADbench-shaped record stream: phased reads/writes
/// with a slow right-shoulder tail.
fn records(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let call = match i % 4 {
                0 | 1 => CallKind::Read,
                2 => CallKind::Write,
                _ => CallKind::MetaWrite,
            };
            let dur = if i % 97 == 0 {
                5.0 + (i % 13) as f64
            } else {
                0.01 + (i % 31) as f64 * 0.002
            };
            Record {
                rank: (i % 64) as u32,
                call,
                fd: 3,
                offset: (i as u64) << 20,
                bytes: 1 << 20,
                start_ns: i as u64 * 1000,
                end_ns: i as u64 * 1000 + (dur * 1e9) as u64,
                phase: (i / (n / 8).max(1)) as u32,
            }
        })
        .collect()
}

fn bench_streaming_vs_batch(c: &mut Criterion) {
    let recs = records(50_000);
    let meta = TraceMeta {
        experiment: "bench".into(),
        platform: "synthetic".into(),
        ranks: 64,
        seed: 0,
    };
    let mut group = c.benchmark_group("ingest/50k_records");
    group.bench_function("batch_trace_then_diagnose", |b| {
        b.iter(|| {
            let mut trace = Trace::new(meta.clone());
            for r in black_box(&recs) {
                trace.push(r.clone());
            }
            black_box(diagnose(&trace))
        })
    });
    group.bench_function("stream_diagnoser", |b| {
        b.iter(|| {
            let mut d = StreamDiagnoser::new(DiagnoserConfig::default());
            for r in black_box(&recs) {
                d.push(r);
            }
            d.finish();
            black_box(d.findings().len())
        })
    });
    group.finish();
}

/// Parse throughput of the trace readers over the same records: the
/// serde_json-per-line baseline, the hand-rolled JSONL fast path, and
/// the binary ptb2 block reader.
fn bench_parse_formats(c: &mut Criterion) {
    let meta = TraceMeta {
        experiment: "bench".into(),
        platform: "synthetic".into(),
        ranks: 64,
        seed: 0,
    };
    let mut trace = Trace::new(meta);
    for r in records(50_000) {
        trace.push(r);
    }
    let mut jsonl = Vec::new();
    pio_trace::io::write_jsonl(&trace, &mut jsonl).unwrap();
    let mut ptb2 = Vec::new();
    pio_trace::ptb2::write_ptb2(&trace, &mut ptb2).unwrap();

    let mut group = c.benchmark_group("ingest/parse_50k");
    group.bench_function("jsonl_serde_baseline", |b| {
        b.iter(|| {
            use std::io::BufRead;
            let mut n = 0u64;
            for line in black_box(&jsonl[..]).lines().skip(1) {
                let rec: Record = serde_json::from_str(&line.unwrap()).unwrap();
                black_box(&rec);
                n += 1;
            }
            n
        })
    });
    group.bench_function("jsonl_fast", |b| {
        b.iter(|| {
            let mut sink = pio_trace::NullSink;
            TraceFormat::Jsonl
                .stream(black_box(&jsonl[..]), &mut sink)
                .unwrap()
                .1
        })
    });
    group.bench_function("ptb2", |b| {
        b.iter(|| {
            let mut sink = pio_trace::NullSink;
            TraceFormat::Ptb2
                .stream(black_box(&ptb2[..]), &mut sink)
                .unwrap()
                .1
        })
    });
    group.finish();
}

criterion_group!(benches, bench_streaming_vs_batch, bench_parse_formats);
criterion_main!(benches);
