//! # pio-fleetd — always-on multi-tenant fleet diagnosis
//!
//! The paper's analysis runs one job at a time; a production center
//! runs hundreds at once, and the interesting question is often not
//! "is this job slow" but "which jobs are slow *together*, and on
//! what". This crate hosts the workspace's streaming diagnosis as a
//! long-running service:
//!
//! * [`service`] — the [`FleetService`]: job registration, per-job
//!   [`StreamDiagnoser`](pio_ingest::StreamDiagnoser) state (online
//!   findings over the job's ensemble sketch) sharded over a bounded
//!   worker pool behind lossless, blocking channels, per-tenant memory
//!   budgets (a [`TenantMeter`](pio_ingest::TenantMeter) freezes a
//!   tenant over its budget), eviction at end of stream, and the query
//!   surface (verdicts, snapshots, top-k slowest operations,
//!   machine-wide roll-up).
//! * [`interference`] — the cross-job view: per-job per-OST usage
//!   ledgers, placed through the simulator's own
//!   [`StripeLayout`](pio_fs::StripeLayout) (re-exported as
//!   [`OstLayout`]), intersected into "jobs A and B are both slow on
//!   OST k".
//! * [`sim`] — the simulated fleet driver: dozens of concurrent
//!   [`pio_mpi`] jobs (mixed workloads, a configurable fraction
//!   faulted), simulated and fed through the service over
//!   [`pio_des::par::map_claimed`], used by the `pio-fleetd` binary,
//!   the benchmarks, and the integration tests.
//!
//! Determinism is load-bearing: jobs are sharded onto workers by id,
//! each job's stream is processed in order by one owner, and the
//! roll-up folds sketches in job-id order — so every verdict, sketch,
//! and roll-up is bit-identical across worker-pool sizes.

pub mod interference;
pub mod service;
pub mod sim;

pub use interference::{contention, OstContention, OstLayout, OstUsage};
pub use service::{FleetConfig, FleetService, JobId, JobReport, JobSink, SlowOp};
pub use sim::{check, feed, fleet_config, fleet_spec, simulate, FleetCheck, SimConfig, SimJob};
