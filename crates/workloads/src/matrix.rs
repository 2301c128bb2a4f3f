//! The fault × workload matrix's jobs: small workloads shaped so that a
//! fault touching a minority of resources shows up as a minority of slow
//! events. `pio-bench`'s `fault_matrix` cells and `pio-fleetd`'s
//! simulated tenants both build their jobs here, so a fleet tenant runs
//! exactly the job of the matrix cell that certifies its verdict.

use crate::ior::IorConfig;
use pio_des::SimSpan;
use pio_mpi::program::{FileSpec, Job, Op, Program};

const MB: u64 = 1 << 20;

/// A read-heavy IOR: per-task 1 MiB calls so every data RPC lands on a
/// single OST — faults touching a minority of resources surface as a
/// minority of slow *events* (a shoulder), not a uniform shift.
pub fn read_heavy(tasks: u32, repetitions: u32) -> Job {
    IorConfig {
        tasks,
        block_bytes: 8 << 20,
        segments: 8,
        repetitions,
        read_back: true,
        file_per_process: false,
    }
    .job()
}

/// Paced 1 MiB reads: each rank reads on a fixed compute cadence with a
/// per-rank stagger, so the OSTs never see a barrier burst and the
/// baseline distribution stays tight — queueing noise would otherwise
/// put a right shoulder on the *healthy* ensemble.
pub fn paced_reads(tasks: u32, reads_per_rank: u32, gap_s: f64) -> Job {
    let programs = (0..tasks)
        .map(|t| {
            let mut ops = vec![
                Op::Open { file: 0 },
                Op::Barrier,
                // Spread rank start times over several gaps: the first
                // read of every rank would otherwise arrive as one burst
                // whose queue drain puts a tail on the baseline.
                Op::Compute {
                    span: SimSpan::from_secs_f64(t as f64 * gap_s * 0.37),
                },
            ];
            for i in 0..reads_per_rank {
                // Deterministic cadence jitter (0.7-1.3x the gap) so the
                // ranks fall out of lockstep: resonant arrivals would
                // queue at the OSTs and put a tail on the baseline.
                let jitter = 0.7 + 0.6 * ((t * 31 + i * 17) % 16) as f64 / 16.0;
                ops.push(Op::Compute {
                    span: SimSpan::from_secs_f64(gap_s * jitter),
                });
                ops.push(Op::ReadAt {
                    file: 0,
                    offset: (t as u64 * reads_per_rank as u64 + i as u64) * MB,
                    bytes: MB,
                });
            }
            ops.push(Op::Close { file: 0 });
            Program { ops }
        })
        .collect();
    Job {
        programs,
        files: vec![FileSpec { shared: true }],
    }
}

/// A metadata-heavy job: every rank issues a stream of small metadata
/// reads spread over virtual time (staggered by rank, paced by compute),
/// so recurring MDS blackout windows catch a fraction of them.
pub fn meta_heavy(tasks: u32, ops_per_rank: u32) -> Job {
    let programs = (0..tasks)
        .map(|t| {
            let mut ops = vec![
                Op::Open { file: 0 },
                Op::Barrier,
                // Stagger ranks so arrivals cover the stall period.
                Op::Compute {
                    span: SimSpan::from_secs_f64(t as f64 * 0.007),
                },
            ];
            for i in 0..ops_per_rank {
                ops.push(Op::Compute {
                    span: SimSpan::from_secs_f64(0.2),
                });
                ops.push(Op::MetaRead {
                    file: 0,
                    offset: (t as u64 * ops_per_rank as u64 + i as u64) * 4096,
                    bytes: 4096,
                });
            }
            ops.push(Op::Close { file: 0 });
            Program { ops }
        })
        .collect();
    Job {
        programs,
        files: vec![FileSpec { shared: true }],
    }
}

/// Paced reads with an interleaved metadata stream: each read is
/// followed by a small `MetaRead`, so one job exercises *both* the data
/// path (OSTs) and the metadata path (MDS). A compound plan touching
/// one fault per path then yields two shoulders on separate call
/// classes — the cleanest compound-verdict evidence there is.
pub fn paced_mixed(tasks: u32, reads_per_rank: u32, gap_s: f64) -> Job {
    let programs = (0..tasks)
        .map(|t| {
            let mut ops = vec![
                Op::Open { file: 0 },
                Op::Barrier,
                Op::Compute {
                    span: SimSpan::from_secs_f64(t as f64 * gap_s * 0.37),
                },
            ];
            for i in 0..reads_per_rank {
                let jitter = 0.7 + 0.6 * ((t * 31 + i * 17) % 16) as f64 / 16.0;
                ops.push(Op::Compute {
                    span: SimSpan::from_secs_f64(gap_s * jitter),
                });
                ops.push(Op::ReadAt {
                    file: 0,
                    offset: (t as u64 * reads_per_rank as u64 + i as u64) * MB,
                    bytes: MB,
                });
                ops.push(Op::MetaRead {
                    file: 0,
                    offset: (t as u64 * reads_per_rank as u64 + i as u64) * 4096,
                    bytes: 4096,
                });
            }
            ops.push(Op::Close { file: 0 });
            Program { ops }
        })
        .collect();
    Job {
        programs,
        files: vec![FileSpec { shared: true }],
    }
}
