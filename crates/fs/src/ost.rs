//! Object storage target model: a FIFO server with stochastic service.
//!
//! Service for an RPC of `b` bytes is `b / ost_bw` plus a log-normal
//! per-RPC overhead, plus a stream-switch penalty when the previous RPC
//! served came from a different client stream (disk seek / request
//! reordering). The switch penalty is what makes 10,240 interleaved
//! writers slower per byte than 80 streaming aggregators — the mechanism
//! behind the GCRM collective-buffering win.

use crate::config::FsConfig;
use pio_des::{ServiceCenter, SimRng, SimSpan, SimTime};

/// One OST.
#[derive(Debug)]
pub struct Ost {
    center: ServiceCenter,
    last_stream: Option<u64>,
    last_was_read: Option<bool>,
    switches: u64,
    direction_switches: u64,
    bytes: u64,
}

impl Ost {
    /// An idle OST.
    pub fn new() -> Self {
        Ost {
            center: ServiceCenter::new(),
            last_stream: None,
            last_was_read: None,
            switches: 0,
            direction_switches: 0,
            bytes: 0,
        }
    }

    /// Submit an RPC of `bytes` from `stream` arriving at `at`.
    ///
    /// `streaming` is the RPC's `bytes / ost_bw` term, computed by the
    /// caller (the file system keeps the full-stripe value). `noise` is
    /// the per-call slow-path multiplier applied to the overhead terms
    /// (not to the streaming term — bandwidth does not get "unlucky",
    /// queues and seeks do). `extra` is additional service demand (e.g.
    /// read-modify-write of a partial stripe).
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &mut self,
        at: SimTime,
        bytes: u64,
        streaming: SimSpan,
        stream: u64,
        is_read: bool,
        noise: f64,
        extra: SimSpan,
        cfg: &FsConfig,
        rng: &mut SimRng,
    ) -> SimTime {
        let mut overhead = rng.lognormal(cfg.ost_overhead_median, cfg.ost_overhead_sigma);
        if self.last_stream != Some(stream) {
            if self.last_stream.is_some() {
                self.switches += 1;
            }
            overhead += rng.lognormal(cfg.stream_switch_median, cfg.ost_overhead_sigma);
            self.last_stream = Some(stream);
        }
        if self.last_was_read.is_some_and(|r| r != is_read) {
            // Disk-head direction thrash: interleaved reads and writes
            // (MADbench's middle phase) cost extra service per turnaround.
            self.direction_switches += 1;
            overhead += rng.lognormal(cfg.direction_switch_median, cfg.ost_overhead_sigma);
        }
        self.last_was_read = Some(is_read);
        let svc = streaming + SimSpan::from_secs_f64(overhead * noise) + extra;
        self.bytes += bytes;
        self.center.submit(at, svc)
    }

    /// Read↔write turnarounds served.
    pub fn direction_switches(&self) -> u64 {
        self.direction_switches
    }

    /// Stream switches served (seek-ish events).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Bytes served.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// RPCs served.
    pub fn served(&self) -> u64 {
        self.center.served()
    }

    /// Total busy time.
    pub fn busy_time(&self) -> SimSpan {
        self.center.busy_time()
    }

    /// When this OST next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.center.next_free()
    }
}

impl Default for Ost {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FsConfig {
        let mut c = FsConfig::tiny_test();
        // Make overheads deterministic-ish for assertions.
        c.ost_overhead_sigma = 1e-9;
        c.ost_bw = 100e6;
        c.ost_overhead_median = 1e-3;
        c.stream_switch_median = 10e-3;
        c
    }

    #[test]
    fn streaming_term_scales_with_bytes() {
        let c = cfg();
        let mut rng = SimRng::new(1);
        let mut ost = Ost::new();
        let t1 = ost.submit(
            SimTime::ZERO,
            100_000_000,
            SimSpan::for_bytes(100_000_000, c.ost_bw),
            1,
            false,
            1.0,
            SimSpan::ZERO,
            &c,
            &mut rng,
        );
        // 100 MB at 100 MB/s ≈ 1 s (+ ~1ms overhead + ~10ms first-stream switch).
        let secs = t1.as_secs_f64();
        assert!(secs > 1.0 && secs < 1.1, "{secs}");
    }

    #[test]
    fn same_stream_avoids_switch_penalty() {
        let c = cfg();
        let mut rng = SimRng::new(2);
        let mut ost = Ost::new();
        ost.submit(
            SimTime::ZERO,
            1000,
            SimSpan::for_bytes(1000, c.ost_bw),
            5,
            false,
            1.0,
            SimSpan::ZERO,
            &c,
            &mut rng,
        );
        let before = ost.switches();
        ost.submit(
            SimTime::ZERO,
            1000,
            SimSpan::for_bytes(1000, c.ost_bw),
            5,
            false,
            1.0,
            SimSpan::ZERO,
            &c,
            &mut rng,
        );
        assert_eq!(ost.switches(), before);
        ost.submit(
            SimTime::ZERO,
            1000,
            SimSpan::for_bytes(1000, c.ost_bw),
            6,
            false,
            1.0,
            SimSpan::ZERO,
            &c,
            &mut rng,
        );
        assert_eq!(ost.switches(), before + 1);
    }

    #[test]
    fn interleaved_streams_cost_more_than_batched() {
        let c = cfg();
        let mut rng_a = SimRng::new(3);
        let mut rng_b = SimRng::new(3);
        let mut interleaved = Ost::new();
        let mut batched = Ost::new();
        // 20 RPCs alternating between 2 streams vs grouped by stream.
        for i in 0..20u64 {
            interleaved.submit(
                SimTime::ZERO,
                1000,
                SimSpan::for_bytes(1000, c.ost_bw),
                i % 2,
                false,
                1.0,
                SimSpan::ZERO,
                &c,
                &mut rng_a,
            );
        }
        for i in 0..20u64 {
            batched.submit(
                SimTime::ZERO,
                1000,
                SimSpan::for_bytes(1000, c.ost_bw),
                i / 10,
                false,
                1.0,
                SimSpan::ZERO,
                &c,
                &mut rng_b,
            );
        }
        assert!(interleaved.busy_time() > batched.busy_time());
        assert_eq!(interleaved.switches(), 19);
        assert_eq!(batched.switches(), 1);
    }

    #[test]
    fn noise_multiplier_slows_overheads_only() {
        let c = cfg();
        let mut ost_quiet = Ost::new();
        let mut ost_noisy = Ost::new();
        let mut r1 = SimRng::new(4);
        let mut r2 = SimRng::new(4);
        let a = ost_quiet.submit(
            SimTime::ZERO,
            1000,
            SimSpan::for_bytes(1000, c.ost_bw),
            1,
            false,
            1.0,
            SimSpan::ZERO,
            &c,
            &mut r1,
        );
        let b = ost_noisy.submit(
            SimTime::ZERO,
            1000,
            SimSpan::for_bytes(1000, c.ost_bw),
            1,
            false,
            5.0,
            SimSpan::ZERO,
            &c,
            &mut r2,
        );
        assert!(b > a);
        // The slowdown is bounded by 5x of the overhead terms.
        assert!(b.as_secs_f64() < 5.0 * a.as_secs_f64() + 1e-9);
    }

    #[test]
    fn extra_service_is_additive() {
        let c = cfg();
        let mut r1 = SimRng::new(5);
        let mut r2 = SimRng::new(5);
        let mut x = Ost::new();
        let mut y = Ost::new();
        let a = x.submit(
            SimTime::ZERO,
            1000,
            SimSpan::for_bytes(1000, c.ost_bw),
            1,
            false,
            1.0,
            SimSpan::ZERO,
            &c,
            &mut r1,
        );
        let b = y.submit(
            SimTime::ZERO,
            1000,
            SimSpan::for_bytes(1000, c.ost_bw),
            1,
            false,
            1.0,
            SimSpan::from_secs(2),
            &c,
            &mut r2,
        );
        assert_eq!(b.since(a), SimSpan::from_secs(2));
    }

    #[test]
    fn counters_accumulate() {
        let c = cfg();
        let mut rng = SimRng::new(6);
        let mut ost = Ost::new();
        for _ in 0..5 {
            ost.submit(
                SimTime::ZERO,
                100,
                SimSpan::for_bytes(100, c.ost_bw),
                1,
                false,
                1.0,
                SimSpan::ZERO,
                &c,
                &mut rng,
            );
        }
        assert_eq!(ost.served(), 5);
        assert_eq!(ost.bytes(), 500);
    }
}
