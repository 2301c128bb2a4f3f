//! # pio-ingest — streaming trace ingestion and online ensemble diagnosis
//!
//! The paper closes by proposing that its ensemble methodology move from
//! post-mortem analysis to *online* monitoring: histograms and summary
//! statistics are small and mergeable, so they can be maintained while
//! the job runs and pathologies flagged before it ends. This crate is
//! that pipeline:
//!
//! * [`sketch`] — building blocks: the mergeable log-bucketed
//!   [`sketch::QuantileSketch`] and the shared
//!   [`sketch::OnlineMoments`] / log-histogram from `pio-des` (merging
//!   two equals accumulating the concatenated stream, which makes
//!   sharding safe), and a weighted Space-Saving
//!   [`sketch::HeavyHitters`] sketch for one stream's evidence.
//! * [`shard`] — per-`(call kind, rank group, phase)` accumulators and
//!   the merged [`shard::EnsembleSnapshot`], whose memory is
//!   O(shards × bins) regardless of event or rank count. The
//!   [`shard::SnapshotBuilder`] that fills it is a
//!   [`RecordSink`](pio_trace::RecordSink).
//! * [`diagnose`] — the [`diagnose::StreamDiagnoser`]:
//!   incremental versions of the `pio-core` detectors over tumbling
//!   windows and barrier boundaries, raising the paper's findings
//!   mid-run through the same verdict functions as the batch path. It
//!   keeps the stream's whole-run evidence (metadata heavy hitters,
//!   small writes, per-rank tail profiles, time totals), which nothing
//!   else reads, and owns the stream's snapshot builder beside it, so
//!   one diagnoser is the whole analysis of a stream. Saved traces
//!   reach it through `pio_trace::io::stream_file` (format sniffed, one
//!   decoded block in memory at a time), as `analyze --stream` does.
//! * [`tenant`] — multi-stream accounting: a per-job
//!   [`tenant::TenantMeter`] enforcing a resident-memory budget (a
//!   tenant over it is frozen, and its later records counted as shed),
//!   for fleet-style services that ingest many jobs at once
//!   (`pio-fleetd`).

pub mod diagnose;
pub mod shard;
pub mod sketch;
pub mod tenant;

pub use diagnose::{DiagnoserConfig, StreamDiagnoser, TimedFinding};
pub use shard::{EnsembleSnapshot, ShardKey, ShardStats, SnapshotBuilder, SnapshotConfig};
pub use sketch::{HeavyHitters, OnlineMoments, QuantileSketch};
pub use tenant::{Admission, TenantMeter};
