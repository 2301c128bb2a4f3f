//! # pio-workloads — the paper's workloads as program generators
//!
//! * [`ior`] — the Interleaved-Or-Random benchmark: N tasks each writing
//!   a block to a unique offset of a shared file in `k` transfers,
//!   barriered and repeated (Figures 1 and 2).
//! * [`madbench`] — the MADbench out-of-core CMB solver's I/O kernel:
//!   8 matrix writes, 8 × (seek, read, seek, write), 8 reads of ~300 MB
//!   matrices in 1 MB-aligned slots of a shared file (Figures 4 and 5).
//! * [`gcrm`] — the GCRM/H5Part I/O kernel: 10,240 tasks writing 1.6 MB
//!   records of six variables to a shared HDF5-like file, in four
//!   configurations: baseline, collective buffering, 1 MiB alignment,
//!   and aggregated metadata (Figure 6).
//! * [`presets`] — the paper's exact experiment parameterizations plus
//!   scaled-down variants for tests.
//! * [`matrix`] — the fault × workload matrix's small probe jobs
//!   (read-heavy IOR, paced reads, metadata streams), shared by the
//!   fault matrix and the simulated fleet.
//! * [`checkpoint`] — the generic periodic-checkpoint pattern §III
//!   motivates with (not measured in the paper; provided as the natural
//!   fourth workload for the ensemble tooling).

pub mod checkpoint;
pub mod gcrm;
pub mod ior;
pub mod madbench;
pub mod matrix;
pub mod presets;

pub use checkpoint::CheckpointConfig;
pub use gcrm::{GcrmConfig, GcrmStage};
pub use ior::IorConfig;
pub use madbench::MadbenchConfig;
