//! # pio-trace — an IPM-I/O reimplementation
//!
//! The paper extends IPM (Integrated Performance Monitoring) with I/O
//! tracing: every POSIX I/O call is intercepted and recorded as a
//! timestamped entry containing the call, its arguments, and its duration,
//! with a lookup table of open file descriptors associating events that
//! touch the same file. This crate reproduces that record stream for the
//! simulated POSIX layer:
//!
//! * [`record`] — the trace-entry schema (`Record`, `CallKind`).
//! * [`fdtable`] — the open-descriptor lookup table.
//! * [`trace`] — the in-memory trace: filters, slices, aggregate queries.
//! * [`phase`] — barrier-phase segmentation (synchronous I/O phases are
//!   the unit of the paper's order-statistics argument).
//! * [`profile`] — the *online profiling* mode the paper's future-work
//!   section proposes: accumulate duration histograms at capture time and
//!   never store individual events.
//! * [`sink`] — streaming record sinks: consume events as they happen
//!   instead of buffering a whole trace (`pio-ingest` builds on this).
//! * [`io`] — JSONL / ptb2 / CSV serialization of traces. The
//!   [`TraceFormat`] enum is the one switch over the two on-disk
//!   formats (sniff, read, write, stream: one `match` each), and
//!   `load` / `save_as` / `stream_file` are the front door for trace
//!   files.
//! * [`jsonl`] — the hot hand-rolled JSONL record parser (with
//!   `serde_json` as the strict fallback).
//! * [`ptb2`] — the compact CRC-checked binary trace format:
//!   structure-of-arrays blocks with frame-of-reference/delta
//!   timestamps, dictionary-coded call kinds and varint sizes, decoded
//!   by branch-free columnar loops; a streaming block reader and a
//!   `RecordSink` encoder.
//! * [`codec`] — the [`PhaseTracker`] every format's stream decoder
//!   runs through, synthesizing barrier-phase boundaries from the
//!   records' phase indices.
//! * [`summary`] — an IPM-style per-call summary report.

pub mod codec;
pub mod fdtable;
pub mod io;
pub mod jsonl;
pub mod phase;
pub mod profile;
pub mod ptb2;
pub mod record;
pub mod sink;
pub mod summary;
pub mod trace;

pub use codec::PhaseTracker;
pub use fdtable::FdTable;
pub use io::TraceFormat;
pub use profile::OnlineProfile;
pub use ptb2::{Ptb2BlockReader, Ptb2Writer};
pub use record::{CallKind, Record};
pub use sink::{NullSink, RecordSink, Tee};
pub use trace::{Trace, TraceMeta};
