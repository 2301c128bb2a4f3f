//! Deterministic event queue.
//!
//! Pop order is strictly ascending `(time, sequence)`: events at equal
//! times pop in insertion order, so simulation results never depend on
//! container internals.
//!
//! Internally the queue is a radix heap keyed on event time. `last` is
//! the minimum time of the bucket most recently refilled from. An entry
//! after `last` goes to one of 256 buckets, named by the highest of the
//! sixteen 4-bit digits where its time differs from `last` together with
//! its value of that digit. Every entry of a lower bucket is earlier
//! than every entry of a higher one, so a `[u64; 4]` occupancy mask
//! finds the earliest bucket. Pop takes the head of the *now list*, the
//! entries at or before `last`. When that list is empty, pop refills it:
//! `last` becomes the earliest bucket's minimum time, and the bucket's
//! entries move, in list order, to the now list (those at `last`) or to
//! buckets of lower levels. An entry moves down at most sixteen times.
//!
//! Entries live in one slab `Vec`, recycled through a free list. Each
//! bucket is an intrusive FIFO list over the slab that records its
//! minimum time as entries arrive, so a refill walks its list once and
//! the queue's memory is its high-water mark of pending events.
//!
//! FIFO among equal times needs no stored sequence number. Entries at
//! equal times always share a bucket, a bucket receives entries in push
//! order, and it is refilled into only while every lower bucket is
//! empty, so the entries a refill moves arrive ahead of any later push.
//!
//! The simulator never schedules before `now` (its `Scheduler` clamps),
//! but the contract allows it: a push before `last` is an ordered insert
//! into the now list, after the entries at or before its time.

use crate::time::SimTime;

/// End of a slab-linked list.
const NIL: u32 = u32::MAX;

/// One queued event, or a free slot whose `next` links the free list.
struct Node<E> {
    time: u64,
    next: u32,
    event: Option<E>,
}

/// An intrusive FIFO list of slab nodes.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// Link node `i` (whose `next` is `NIL`) at the tail of `list`.
fn append<E>(slab: &mut [Node<E>], list: &mut List, i: u32) {
    if list.tail == NIL {
        list.head = i;
    } else {
        slab[list.tail as usize].next = i;
    }
    list.tail = i;
}

/// The bucket of `time` relative to `last` (`time > last`): the highest
/// 4-bit digit where they differ, and `time`'s value of that digit.
fn bucket_of(time: u64, last: u64) -> usize {
    debug_assert!(time > last);
    let level = (63 - (time ^ last).leading_zeros()) / 4;
    (level * 16) as usize + ((time >> (level * 4)) & 15) as usize
}

/// A time-ordered queue of pending events with FIFO tie-breaking.
pub struct EventQueue<E> {
    /// Every node ever allocated; free ones are linked from `free`.
    slab: Vec<Node<E>>,
    free: u32,
    /// Entries at or before `last`, ascending time, FIFO among ties.
    now: List,
    /// Entries after `last`, by [`bucket_of`].
    buckets: [List; 256],
    /// Each bucket's minimum time since it was last empty.
    mins: [u64; 256],
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: [u64; 4],
    last: u64,
    len: usize,
    scheduled: u64,
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
            slab: Vec::new(),
            free: NIL,
            now: List::EMPTY,
            buckets: [List::EMPTY; 256],
            mins: [u64::MAX; 256],
            occupied: [0; 4],
            last: 0,
            len: 0,
            scheduled: 0,
        }
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.scheduled += 1;
        self.len += 1;
        let t = time.nanos();
        let i = self.alloc(t, event);
        if t > self.last {
            self.file_in_bucket(i, t);
        } else if t == self.last {
            append(&mut self.slab, &mut self.now, i);
        } else {
            self.insert_now(i);
        }
    }

    /// Drain `pending` into the queue in order (batched follow-up push).
    pub fn push_batch(&mut self, pending: &mut Vec<(SimTime, E)>) {
        for (time, event) in pending.drain(..) {
            self.push(time, event);
        }
    }

    /// A node holding `event` at `time`, from the free list if it has one.
    fn alloc(&mut self, time: u64, event: E) -> u32 {
        let node = Node {
            time,
            next: NIL,
            event: Some(event),
        };
        if self.free != NIL {
            let i = self.free;
            self.free = std::mem::replace(&mut self.slab[i as usize], node).next;
            return i;
        }
        let i = u32::try_from(self.slab.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("event queue exceeds u32 slab indices");
        self.slab.push(node);
        i
    }

    /// Link node `i`, at `time` after `last`, into its bucket.
    fn file_in_bucket(&mut self, i: u32, time: u64) {
        let b = bucket_of(time, self.last);
        self.occupied[b / 64] |= 1 << (b % 64);
        self.mins[b] = self.mins[b].min(time);
        append(&mut self.slab, &mut self.buckets[b], i);
    }

    /// Link node `i`, earlier than `last`, into the now list after every
    /// entry at or before its time.
    fn insert_now(&mut self, i: u32) {
        let time = self.slab[i as usize].time;
        let (mut prev, mut cur) = (NIL, self.now.head);
        while cur != NIL && self.slab[cur as usize].time <= time {
            prev = cur;
            cur = self.slab[cur as usize].next;
        }
        self.slab[i as usize].next = cur;
        if prev == NIL {
            self.now.head = i;
        } else {
            self.slab[prev as usize].next = i;
        }
        if cur == NIL {
            self.now.tail = i;
        }
    }

    /// The earliest non-empty bucket.
    fn lowest_bucket(&self) -> Option<usize> {
        let (word, bits) = self.occupied.iter().enumerate().find(|(_, &w)| w != 0)?;
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Refill the empty now list from the earliest bucket; false if the
    /// queue is empty.
    fn refill(&mut self) -> bool {
        debug_assert_eq!(self.now.head, NIL);
        let Some(b) = self.lowest_bucket() else {
            return false;
        };
        let mut cur = std::mem::replace(&mut self.buckets[b], List::EMPTY).head;
        self.occupied[b / 64] &= !(1 << (b % 64));
        self.last = std::mem::replace(&mut self.mins[b], u64::MAX);
        while cur != NIL {
            let node = &mut self.slab[cur as usize];
            let (time, next) = (node.time, node.next);
            node.next = NIL;
            if time == self.last {
                append(&mut self.slab, &mut self.now, cur);
            } else {
                self.file_in_bucket(cur, time);
            }
            cur = next;
        }
        true
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.now.head == NIL && !self.refill() {
            return None;
        }
        let i = self.now.head;
        let node = &mut self.slab[i as usize];
        let time = node.time;
        let event = node.event.take().expect("a queued node holds its event");
        self.now.head = std::mem::replace(&mut node.next, self.free);
        self.free = i;
        if self.now.head == NIL {
            self.now = List::EMPTY;
        }
        self.len -= 1;
        Some((SimTime(time), event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.now.head != NIL {
            return Some(SimTime(self.slab[self.now.head as usize].time));
        }
        self.lowest_bucket().map(|b| SimTime(self.mins[b]))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled
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
        // 1,280 ties share one bucket and then one refill; order must
        // still be pure insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        let n = 1_280;
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
        // The steady-state DES pattern: each pop schedules a follow-up
        // slightly ahead.
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
        // Spreads entries over every level below 2^20, so pops refill
        // through several levels.
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

    #[test]
    fn peek_time_matches_the_next_pop_across_a_refill() {
        // Leads of 1–8 s (2^30–2^33 ns), Fig. 1's traffic: every pop
        // after the first at a time refills from a higher level.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime((1 << 30) + i * 123_456_789 % (7 << 30)), i);
        }
        let mut pops = 0;
        while let Some(peeked) = q.peek_time() {
            let (t, e) = q.pop().expect("peek saw an entry");
            assert_eq!(peeked, t);
            pops += 1;
            if pops < 200 {
                q.push(SimTime(t.nanos() + (1 << 30) + e * 7_919), e);
            }
        }
        assert_eq!(pops, 64 + 199);
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_drained_queue_reuses_its_slab() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            for i in 0..100u64 {
                q.push(SimTime(round << 34 | (i * 7_919) << 20), i);
            }
            while q.pop().is_some() {}
            assert!(q.is_empty());
            assert_eq!(q.slab.len(), 100, "round {round} grew the slab");
        }
        assert_eq!(q.scheduled_total(), 300);
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

        /// The reference model again, at the simulator's spans: leads up
        /// to 2^40 ns, `SimTime::MAX`, runs of equal times and pushes
        /// before the last pop, interleaved with pops.
        #[test]
        fn matches_reference_model_at_traffic_spans(ops in proptest::collection::vec(
            (0u8..10, 0u32..=40, 0u64..u64::MAX, 1usize..8),
            1..300,
        )) {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, u64)> = Vec::new();
            let mut last_pop = 0u64;
            let mut next_id = 0u64;
            for (kind, bits, raw, run) in ops {
                let span = raw & ((1u64 << bits) - 1);
                let (time, count) = match kind {
                    0..=2 => {
                        let got = q.pop();
                        match model.iter().enumerate().min_by_key(|(_, &(t, id))| (t, id)) {
                            None => prop_assert!(got.is_none()),
                            Some((at, _)) => {
                                let (t, id) = model.remove(at);
                                prop_assert_eq!(got, Some((SimTime(t), id)));
                                last_pop = t;
                            }
                        }
                        continue;
                    }
                    3 => (u64::MAX, 1),
                    4 => (last_pop.saturating_sub(span), 1),
                    5 => (last_pop.saturating_add(span), run),
                    _ => (last_pop.saturating_add(span), 1),
                };
                for _ in 0..count {
                    model.push((time, next_id));
                    q.push(SimTime(time), next_id);
                    next_id += 1;
                }
                prop_assert_eq!(q.peek_time(), model.iter().map(|&(t, _)| SimTime(t)).min());
            }
            prop_assert_eq!(q.len(), model.len());
        }
    }
}
