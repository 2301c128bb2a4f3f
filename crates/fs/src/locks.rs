//! Distributed extent locks over file stripes.
//!
//! Lustre's DLM grants extent locks per client; when two clients write
//! into the same stripe of a shared file, ownership ping-pongs: each
//! write pays a revocation round-trip, and a partial-stripe write under a
//! foreign lock implies reading the stripe back first (read-modify-write).
//! "The Lustre file system prefers aligned offsets when writing to a
//! shared file" — the GCRM alignment optimization exists precisely to
//! eliminate these shared boundary stripes.

use crate::NodeId;
use pio_des::FxHashMap;
use std::collections::BTreeMap;
use std::ops::Range;

/// What a write into a stripe costs in lock terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// This node already owns the stripe lock — free.
    Owned,
    /// Nobody held the stripe — a fresh grant (cheap, counted but free of
    /// revocation cost).
    Granted,
    /// Another node held the stripe: revocation round-trip required; if
    /// the write is partial the stripe must be read back (RMW).
    Conflict {
        /// Whether a read-modify-write of the stripe is needed.
        rmw: bool,
    },
}

/// Aggregate lock-table counters for a run.
///
/// Replaces the old positional `(grants, conflicts, rmws)` tuple so call
/// sites name what they read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Fresh extent-lock grants (nobody held the stripe).
    pub acquired: u64,
    /// Acquisitions that hit a foreign owner — each costs a revocation
    /// round-trip through the DLM.
    pub contended: u64,
    /// Contended acquisitions whose partial-stripe write also had to read
    /// the stripe back (read-modify-write) under the revoked lock — the
    /// expensive subset of `contended`.
    pub revoked: u64,
}

/// Locked stripes of one file: `start → (end, owner)` over disjoint
/// half-open stripe ranges, adjacent ranges of one owner coalesced.
type FileLocks = BTreeMap<u64, (u64, NodeId)>;

/// Lock table for all shared files.
///
/// Ownership is kept per file as coalesced stripe intervals, not one
/// entry per stripe: a writer's contiguous range is one interval however
/// many stripes it spans, and a write costs a few ordered-map operations
/// instead of one hash probe per stripe.
#[derive(Debug, Default)]
pub struct LockMap {
    files: FxHashMap<u32, FileLocks>,
    grants: u64,
    conflicts: u64,
    rmws: u64,
}

/// Split the interval straddling stripe `at` (if any) into two at `at`,
/// so every interval either ends at or before `at` or starts at or
/// after it.
fn split_at(locks: &mut FileLocks, at: u64) {
    if let Some((&start, &(end, owner))) = locks.range(..at).next_back() {
        if end > at {
            locks.insert(start, (at, owner));
            locks.insert(at, (end, owner));
        }
    }
}

impl LockMap {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a write by `node` covering `stripe` of `file`;
    /// `full_stripe` is whether the write covers the stripe completely.
    pub fn write_stripe(
        &mut self,
        file: u32,
        stripe: u64,
        node: NodeId,
        full_stripe: bool,
    ) -> LockOutcome {
        let mut outcome = LockOutcome::Owned;
        let granted = self.write_range(
            file,
            stripe..stripe + 1,
            node,
            full_stripe,
            full_stripe,
            |_, rmw| outcome = LockOutcome::Conflict { rmw },
        );
        if granted > 0 {
            LockOutcome::Granted
        } else {
            outcome
        }
    }

    /// Record a write by `node` covering the contiguous `stripes` of
    /// `file`, which `node` owns afterwards. Only the edge stripes of a
    /// contiguous write can be partial: `first_full` and `last_full` say
    /// whether the first and the last stripe are covered completely (a
    /// one-stripe range is full only if both are set).
    ///
    /// Each stripe another node held is a conflict, passed to
    /// `on_conflict(stripe, rmw)` in stripe order, with `rmw` set when
    /// the stripe is partial. Returns the number of fresh grants (stripes
    /// nobody held). The counters move exactly as one
    /// [`LockMap::write_stripe`] call per stripe would move them.
    pub fn write_range(
        &mut self,
        file: u32,
        stripes: Range<u64>,
        node: NodeId,
        first_full: bool,
        last_full: bool,
        mut on_conflict: impl FnMut(u64, bool),
    ) -> u64 {
        let Range { start: lo, end: hi } = stripes;
        if lo >= hi {
            return 0;
        }
        let locks = self.files.entry(file).or_default();
        // Common case: the node rewrites stripes it already owns.
        if let Some((_, &(end, owner))) = locks.range(..=lo).next_back() {
            if end >= hi && owner == node {
                return 0;
            }
        }
        split_at(locks, lo);
        split_at(locks, hi);
        let full = |s: u64| (s != lo || first_full) && (s != hi - 1 || last_full);
        // Every interval starting in [lo, hi) now lies inside it: count
        // the gaps between them as grants and foreign ones as conflicts,
        // removing them as we go.
        let mut granted = 0;
        let mut at = lo;
        while let Some((&start, &(end, owner))) = locks.range(lo..hi).next() {
            granted += start - at;
            if owner != node {
                for s in start..end {
                    let rmw = !full(s);
                    self.conflicts += 1;
                    self.rmws += u64::from(rmw);
                    on_conflict(s, rmw);
                }
            }
            locks.remove(&start);
            at = end;
        }
        granted += hi - at;
        self.grants += granted;
        // Take ownership, merging with same-owner neighbours.
        let mut start = lo;
        let mut end = hi;
        if let Some((&s, &(e, owner))) = locks.range(..lo).next_back() {
            if e == lo && owner == node {
                start = s;
            }
        }
        if let Some(&(e, owner)) = locks.get(&hi) {
            if owner == node {
                locks.remove(&hi);
                end = e;
            }
        }
        locks.insert(start, (end, node));
        granted
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> LockStats {
        LockStats {
            acquired: self.grants,
            contended: self.conflicts,
            revoked: self.rmws,
        }
    }

    /// Total fresh grants.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total cross-node conflicts.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Conflicts that also required read-modify-write.
    pub fn rmws(&self) -> u64 {
        self.rmws
    }

    /// Drop all locks of a file (close/unlink).
    pub fn drop_file(&mut self, file: u32) {
        self.files.remove(&file);
    }

    /// Stripes currently locked.
    pub fn held(&self) -> usize {
        self.files
            .values()
            .flat_map(|locks| locks.iter())
            .map(|(&start, &(end, _))| (end - start) as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_writer_gets_grant_then_owns() {
        let mut l = LockMap::new();
        assert_eq!(l.write_stripe(1, 0, 10, true), LockOutcome::Granted);
        assert_eq!(l.write_stripe(1, 0, 10, true), LockOutcome::Owned);
        assert_eq!(l.grants(), 1);
        assert_eq!(l.conflicts(), 0);
    }

    #[test]
    fn cross_node_write_conflicts() {
        let mut l = LockMap::new();
        l.write_stripe(1, 5, 10, true);
        assert_eq!(
            l.write_stripe(1, 5, 11, true),
            LockOutcome::Conflict { rmw: false }
        );
        // Ownership transferred: node 11 now owns.
        assert_eq!(l.write_stripe(1, 5, 11, true), LockOutcome::Owned);
        // Ping-pong back.
        assert_eq!(
            l.write_stripe(1, 5, 10, false),
            LockOutcome::Conflict { rmw: true }
        );
        assert_eq!(l.conflicts(), 2);
        assert_eq!(l.rmws(), 1);
    }

    #[test]
    fn partial_stripe_conflict_requires_rmw() {
        let mut l = LockMap::new();
        l.write_stripe(2, 7, 1, false);
        let out = l.write_stripe(2, 7, 2, false);
        assert_eq!(out, LockOutcome::Conflict { rmw: true });
    }

    #[test]
    fn files_and_stripes_are_independent() {
        let mut l = LockMap::new();
        l.write_stripe(1, 0, 10, true);
        assert_eq!(l.write_stripe(2, 0, 11, true), LockOutcome::Granted);
        assert_eq!(l.write_stripe(1, 1, 11, true), LockOutcome::Granted);
        assert_eq!(l.conflicts(), 0);
        assert_eq!(l.held(), 3);
    }

    #[test]
    fn drop_file_releases_locks() {
        let mut l = LockMap::new();
        l.write_stripe(1, 0, 10, true);
        l.write_stripe(1, 1, 10, true);
        l.write_stripe(2, 0, 10, true);
        l.drop_file(1);
        assert_eq!(l.held(), 1);
        // Re-acquiring file 1 stripes is a fresh grant, not a conflict.
        assert_eq!(l.write_stripe(1, 0, 11, true), LockOutcome::Granted);
    }

    #[test]
    fn aligned_writers_never_conflict() {
        // Each of 8 nodes writes its own stripe range — the aligned GCRM
        // pattern: zero conflicts by construction.
        let mut l = LockMap::new();
        for node in 0..8u32 {
            for s in 0..4u64 {
                let stripe = node as u64 * 4 + s;
                assert_eq!(l.write_stripe(1, stripe, node, true), LockOutcome::Granted);
            }
        }
        assert_eq!(l.conflicts(), 0);
    }

    #[test]
    fn unaligned_boundaries_conflict_between_neighbours() {
        // Each writer's range spills one partial stripe into the next
        // writer's first stripe — the unaligned GCRM pattern.
        let mut l = LockMap::new();
        let mut conflicts = 0;
        for node in 0..8u32 {
            let first = node as u64 * 3; // overlaps previous node's last
            for s in first..first + 4 {
                let full = s != first + 3; // last stripe partial
                if matches!(
                    l.write_stripe(1, s, node, full),
                    LockOutcome::Conflict { .. }
                ) {
                    conflicts += 1;
                }
            }
        }
        assert!(conflicts >= 7, "neighbour boundary stripes must conflict");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The per-stripe lock table the interval table replaced: one entry
    /// per (file, stripe) ever written.
    #[derive(Default)]
    struct PerStripe {
        owners: FxHashMap<(u32, u64), NodeId>,
        grants: u64,
        conflicts: u64,
        rmws: u64,
    }

    impl PerStripe {
        fn write_stripe(
            &mut self,
            file: u32,
            stripe: u64,
            node: NodeId,
            full: bool,
        ) -> LockOutcome {
            match self.owners.insert((file, stripe), node) {
                None => {
                    self.grants += 1;
                    LockOutcome::Granted
                }
                Some(owner) if owner == node => LockOutcome::Owned,
                Some(_) => {
                    self.conflicts += 1;
                    let rmw = !full;
                    if rmw {
                        self.rmws += 1;
                    }
                    LockOutcome::Conflict { rmw }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random range writes (several files and nodes; overlapping,
        /// adjacent and single-stripe ranges; full and partial edges)
        /// mixed with `drop_file`: the interval table reports the same
        /// conflicts, grants, counters and held stripes as one
        /// per-stripe write per stripe.
        #[test]
        fn range_writes_match_per_stripe_table(
            ops in proptest::collection::vec(
                (0u32..12, 0u32..3, 0u64..40, 1u64..9, 0u32..4, 0u8..4),
                1..60,
            ),
        ) {
            let mut table = LockMap::new();
            let mut oracle = PerStripe::default();
            for (kind, file, first, n, node, edges) in ops {
                if kind == 0 {
                    table.drop_file(file);
                    oracle.owners.retain(|&(f, _), _| f != file);
                } else {
                    let (first_full, last_full) = (edges & 1 == 0, edges & 2 == 0);
                    let last = first + n - 1;
                    let mut want = Vec::new();
                    let mut want_grants = 0;
                    for s in first..=last {
                        let full = (s != first || first_full) && (s != last || last_full);
                        match oracle.write_stripe(file, s, node, full) {
                            LockOutcome::Conflict { rmw } => want.push((s, rmw)),
                            LockOutcome::Granted => want_grants += 1,
                            LockOutcome::Owned => {}
                        }
                    }
                    let mut got = Vec::new();
                    let grants = table.write_range(
                        file,
                        first..last + 1,
                        node,
                        first_full,
                        last_full,
                        |s, rmw| got.push((s, rmw)),
                    );
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(grants, want_grants);
                }
                prop_assert_eq!(table.grants(), oracle.grants);
                prop_assert_eq!(table.conflicts(), oracle.conflicts);
                prop_assert_eq!(table.rmws(), oracle.rmws);
                prop_assert_eq!(table.held(), oracle.owners.len());
            }
        }
    }
}
