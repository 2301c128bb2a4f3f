//! # pio-des — discrete-event simulation kernel
//!
//! The substrate under the parallel-I/O simulator: a virtual clock with
//! nanosecond resolution, a deterministic event queue, reproducible
//! random-number streams with the samplers the file-system model needs
//! (log-normal service overheads, Pareto outliers), and FIFO service
//! centers that model shared hardware resources (NICs, the fabric, OSTs)
//! by eager completion-time computation — contention and bandwidth
//! sharing fall out of their queues. [`par::map_claimed`] is the one
//! parallel fan-out every ensemble and fleet path runs through.
//!
//! Everything here is deterministic: the same seed produces the same
//! simulation, which is what lets the ensemble analysis treat the seed as
//! the only source of run-to-run variability (mirroring the paper's
//! repeated runs of a single *experiment*).

pub mod engine;
pub mod hash;
pub mod hist;
pub mod par;
pub mod queue;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use engine::{Scheduler, Simulator, World};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use server::{MultiServiceCenter, ServiceCenter};
pub use time::{SimSpan, SimTime};
