//! # pio-mpi — simulated MPI execution substrate
//!
//! The paper's applications are MPI programs whose I/O happens in
//! synchronous phases. This crate provides what the analysis needs from
//! MPI — ranks, program order, barriers, and point-to-point messages for
//! collective buffering — executed in virtual time against the
//! [`pio_fs`] file-system simulator, with every intercepted call recorded
//! through [`pio_trace`] exactly as IPM-I/O would.
//!
//! * [`program`] — the per-rank I/O program IR ([`program::Op`]) and a
//!   builder; a [`program::Job`] bundles one program per rank plus the
//!   file table.
//! * [`world`] — the discrete-event world: rank scheduling, barrier
//!   bookkeeping, send/recv matching, fd tables, trace recording.
//! * [`runner`] — the [`Runner`] builder: job + platform + seeds →
//!   one [`RunReport`] per run, buffered or streaming, with optional
//!   deterministic fault injection. Several seeds fan out over
//!   [`pio_des::par::map_claimed`], the workspace's one parallel map; a
//!   fleet of different jobs (`pio-fleetd`'s simulated tenants) runs
//!   one streaming [`Runner`] per job through the same map.

pub mod program;
pub mod runner;
pub mod world;

pub use program::{FileSpec, Job, Op, Program, ProgramBuilder};
pub use runner::{RunConfig, RunError, RunReport, Runner};
