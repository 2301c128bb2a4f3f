//! Host-speed reference: a fixed kernel of benchmark-owned code, timed
//! beside the workload so that time figures can be given at a reference
//! host speed.
//!
//! The machines this benchmark runs on are shared: the same binary runs
//! up to 1.5x slower for tens of seconds to minutes while other tenants
//! of the host are busy, long enough to cover whole runs. The kernel
//! does a fixed amount of work shaped like the workloads' (an event
//! heap, random reads and writes over a table, floating-point logs,
//! short-lived allocations) and calls nothing in the crates under test,
//! so a change to them cannot move it: how long it takes measures the
//! host alone. Dividing a time figure by [`slowdown`] measured beside it
//! gives the figure at the reference speed.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`sample`] takes on the reference host: a 2-vCPU Intel
/// Xeon VM, in its fast regime.
pub const REF_S: f64 = 5.0e-3;

/// Iterations of the kernel's loop.
const STEPS: u64 = 100_000;
/// Table entries: 2 MiB of `u64`, a core's L2 on the reference host. Of 512 KiB, 2 MiB and 16 MiB tables timed beside the same
/// windows, 2 MiB tracked the workloads' slowdown best; 16 MiB mostly
/// tracks memory traffic the workloads do not make.
const TABLE: usize = 1 << 18;
/// Pending events kept in the heap.
const HEAP: usize = 4096;

/// The kernel's buffers, allocated once per thread so every sample
/// times the same work.
struct Buffers {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
}

thread_local! {
    static BUF: RefCell<Buffers> = RefCell::new(Buffers {
        table: vec![0; TABLE],
        heap: BinaryHeap::with_capacity(HEAP + 1),
    });
}

/// Run the kernel once; returns its wall seconds.
pub fn sample() -> f64 {
    BUF.with(|b| {
        let Buffers { table, heap } = &mut *b.borrow_mut();
        table.fill(0);
        heap.clear();
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0.0f64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push(Reverse(x >> 16));
            if heap.len() > HEAP {
                let Reverse(t) = heap.pop().unwrap_or(Reverse(0));
                table[(t as usize) % TABLE] ^= i;
            }
            let slot = (x as usize) % TABLE;
            table[slot] = table[slot].wrapping_add(x >> 32);
            acc += (((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) + 1.0).ln();
            if i % 64 == 0 {
                let v: Vec<u64> = (0..32).map(|k| x.rotate_left(k)).collect();
                acc += black_box(v)[(x % 32) as usize] as f64 * 1e-30;
            }
        }
        black_box((acc, &*table));
        t0.elapsed().as_secs_f64()
    })
}

/// How much slower than the reference the host runs now: one kernel
/// sample over [`REF_S`]. A first sample is discarded: it reloads the
/// kernel's table, which the workload has just evicted from cache, and
/// timing that refill would make the reading depend on the code under
/// test.
pub fn slowdown() -> f64 {
    sample();
    sample() / REF_S
}
