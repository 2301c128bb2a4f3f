//! Deterministic event queue.
//!
//! Pop order is strictly ascending `(time, sequence)`: events at equal
//! times pop in insertion order, so simulation results never depend on
//! container internals.
//!
//! Internally the queue is split into a **near-future front** — a short
//! deque kept sorted by `(time, seq)` — and an **overflow** binary heap
//! for everything at or beyond the front's `horizon`. The split targets
//! the steady-state DES pattern: handlers schedule follow-ups a short
//! span ahead of `now`, and those land in the front with a cheap ordered
//! insert (usually an append) instead of a heap push + pop round trip.
//! When the working set is small the heap is never touched at all.
//!
//! Invariant (checked by the property tests): every front entry orders
//! strictly before every overflow entry under `(time, seq)`, the front
//! is sorted, front times are `<= horizon`, and overflow times are
//! `>= horizon`. Pop therefore always takes the head of the front,
//! refilling it from the heap when it drains.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Entries migrated from the overflow heap per refill.
const REFILL_CAP: usize = 64;
/// Front length that triggers spilling its tail back to the heap,
/// bounding the cost of an ordered middle insert.
const FRONT_MAX: usize = 128;
/// Entries kept in the front after a spill.
const FRONT_KEEP: usize = 64;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A time-ordered queue of pending events with FIFO tie-breaking.
pub struct EventQueue<E> {
    /// Near-future entries, ascending `(time, seq)`; popped from the head.
    front: VecDeque<Entry<E>>,
    /// Entries at or beyond `horizon`.
    overflow: BinaryHeap<Entry<E>>,
    /// Pushes strictly before this instant go to the front.
    horizon: SimTime,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            front: VecDeque::new(),
            overflow: BinaryHeap::new(),
            horizon: SimTime::MAX,
            seq: 0,
        }
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, event };
        if time >= self.horizon {
            // `seq` is the largest so far, so among equal times this
            // entry orders after everything already in the front.
            self.overflow.push(entry);
            return;
        }
        match self.front.back() {
            // Common case: later than (or tied with) the current back —
            // append. Ties keep insertion order because seq grows.
            Some(back) if back.time <= time => self.front.push_back(entry),
            None => self.front.push_back(entry),
            // Ordered middle insert; cost bounded by FRONT_MAX.
            Some(_) => {
                let idx = self.front.partition_point(|e| e.time <= time);
                self.front.insert(idx, entry);
            }
        }
        if self.front.len() > FRONT_MAX {
            self.spill();
        }
    }

    /// Drain `pending` into the queue in order (batched follow-up push).
    pub fn push_batch(&mut self, pending: &mut Vec<(SimTime, E)>) {
        for (time, event) in pending.drain(..) {
            self.push(time, event);
        }
    }

    /// Move the tail of an oversized front to the overflow heap and pull
    /// the horizon down to the smallest spilled time.
    fn spill(&mut self) {
        let mut spilled_min = SimTime::MAX;
        while self.front.len() > FRONT_KEEP {
            let e = self.front.pop_back().expect("non-empty front");
            spilled_min = e.time; // monotonically non-increasing
            self.overflow.push(e);
        }
        self.horizon = spilled_min;
    }

    /// Refill an empty front with the earliest overflow entries.
    fn refill(&mut self) {
        debug_assert!(self.front.is_empty());
        for _ in 0..REFILL_CAP {
            match self.overflow.pop() {
                Some(e) => self.front.push_back(e),
                None => break,
            }
        }
        self.horizon = self.overflow.peek().map_or(SimTime::MAX, |e| e.time);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            self.refill();
        }
        self.front.pop_front().map(|e| (e.time, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.front.front() {
            Some(e) => Some(e.time),
            None => self.overflow.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.front.len() + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty() && self.overflow.is_empty()
    }

    /// Total events ever scheduled (the sequence counter).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            let (pt, e) = q.pop().unwrap();
            assert_eq!(pt, t);
            assert_eq!(e, i);
        }
    }

    #[test]
    fn equal_times_pop_fifo_across_the_spill_boundary() {
        // More ties than FRONT_MAX forces spills mid-stream; order must
        // still be pure insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        let n = 10 * FRONT_MAX;
        for i in 0..n {
            q.push(t, i);
        }
        for i in 0..n {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(9), ());
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn push_batch_preserves_order_and_reuses_the_buffer() {
        let mut q = EventQueue::new();
        let mut batch = vec![
            (SimTime::from_secs(2), "b"),
            (SimTime::from_secs(1), "a"),
            (SimTime::from_secs(2), "c"),
        ];
        q.push_batch(&mut batch);
        assert!(batch.is_empty(), "batch is drained, not consumed");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn interleaved_pushes_during_drain_stay_ordered() {
        // The steady-state DES pattern the front fast path serves: each
        // pop schedules a follow-up slightly ahead.
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.push(SimTime(i * 100), i);
        }
        let mut last = SimTime::ZERO;
        let mut processed = 0u64;
        while let Some((t, e)) = q.pop() {
            assert!(t >= last, "queue went backwards");
            last = t;
            processed += 1;
            if processed < 5_000 {
                q.push(SimTime(t.nanos() + 1 + e % 977), e);
            }
        }
        assert_eq!(processed, 5_000 + 49);
    }

    #[test]
    fn large_scattered_load_pops_sorted() {
        // Forces constant spill/refill traffic between front and heap.
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime(i * 7919 % 1_000_000), i);
        }
        let mut prev: Option<(SimTime, u64)> = None;
        let mut count = 0;
        while let Some((t, e)) = q.pop() {
            if let Some((pt, pe)) = prev {
                assert!(t > pt || (t == pt && e > pe), "order violated");
            }
            prev = Some((t, e));
            count += 1;
        }
        assert_eq!(count, 10_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping must yield a non-decreasing time sequence, and events
        /// pushed with identical timestamps must come out in push order.
        #[test]
        fn pop_order_is_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                prop_assert_eq!(SimTime(times[idx]), t);
                last = Some((t, idx));
            }
        }

        /// Interleaved push/pop against a sorted-vector reference model:
        /// the split queue must match a total `(time, seq)` order exactly,
        /// whatever the traffic pattern does to the front/overflow split.
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec(
            // `Some(t)` = push at time t (3 of 4 draws), `None` = pop.
            proptest::option::of(0u64..500),
            1..400,
        )) {
            let mut q = EventQueue::new();
            // Reference: all (time, seq, id) triples, popped by min scan.
            let mut model: Vec<(u64, u64, u64)> = Vec::new();
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    Some(t) => {
                        model.push((t, next_id, next_id));
                        q.push(SimTime(t), next_id);
                        next_id += 1;
                    }
                    None => {
                        let got = q.pop();
                        if model.is_empty() {
                            prop_assert!(got.is_none());
                        } else {
                            let min_idx = model
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, &(t, s, _))| (t, s))
                                .map(|(i, _)| i)
                                .unwrap();
                            let (t, _, id) = model.remove(min_idx);
                            let (gt, gid) = got.expect("queue non-empty");
                            prop_assert_eq!(gt, SimTime(t));
                            prop_assert_eq!(gid, id);
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
    }
}
