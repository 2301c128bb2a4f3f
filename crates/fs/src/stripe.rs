//! Stripe layout: mapping byte ranges of a file onto OSTs.
//!
//! Lustre stripes a file round-robin over its OSTs in fixed-size stripes
//! (1 MiB on the paper's systems). Every client transfer is decomposed
//! into per-stripe RPCs; whether a transfer starts and ends on stripe
//! boundaries decides whether stripes are shared between writers — the
//! alignment effect the GCRM study exploits.

/// Striping of one file over `n_osts` targets.
///
/// ```
/// use pio_fs::StripeLayout;
/// let l = StripeLayout::new(1 << 20, 48, 0);
/// // An unaligned 1.6 MB record spans three stripes on three OSTs:
/// let ex = l.extents(1_600_000, 1_600_000);
/// assert_eq!(ex.len(), 3);
/// assert!(!ex[0].is_full_stripe(1 << 20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    /// Stripe size in bytes.
    pub stripe_bytes: u64,
    /// Stripe count (number of OSTs the file is striped over).
    pub n_osts: usize,
    /// First OST index (files start on different OSTs to spread load).
    pub ost_offset: usize,
}

/// One stripe-contained piece of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Global stripe index within the file (`offset / stripe_bytes`).
    pub stripe: u64,
    /// Target OST.
    pub ost: usize,
    /// Byte offset within the file.
    pub offset: u64,
    /// Length in bytes (≤ stripe size).
    pub len: u64,
}

impl Extent {
    /// Whether this extent covers its stripe completely.
    pub fn is_full_stripe(&self, stripe_bytes: u64) -> bool {
        self.len == stripe_bytes && self.offset.is_multiple_of(stripe_bytes)
    }
}

impl StripeLayout {
    /// Layout with `stripe_bytes` stripes over `n_osts` OSTs starting at
    /// OST `ost_offset`.
    pub fn new(stripe_bytes: u64, n_osts: usize, ost_offset: usize) -> Self {
        assert!(stripe_bytes > 0 && n_osts > 0);
        StripeLayout {
            stripe_bytes,
            n_osts,
            ost_offset: ost_offset % n_osts,
        }
    }

    /// OST serving a given stripe index.
    pub fn ost_of_stripe(&self, stripe: u64) -> usize {
        ((stripe as usize) + self.ost_offset) % self.n_osts
    }

    /// Stripe index containing a byte offset.
    pub fn stripe_of(&self, offset: u64) -> u64 {
        offset / self.stripe_bytes
    }

    /// OST serving a byte offset — how a trace record's offset maps to
    /// the target the simulator placed it on.
    #[inline]
    pub fn ost_of(&self, offset: u64) -> usize {
        self.ost_of_stripe(self.stripe_of(offset))
    }

    /// Decompose `[offset, offset+len)` into stripe-contained extents,
    /// in file order. Empty ranges yield no extents.
    pub fn extents(&self, offset: u64, len: u64) -> Vec<Extent> {
        let mut out = Vec::new();
        let mut at = offset;
        let end = offset + len;
        while at < end {
            let stripe = at / self.stripe_bytes;
            let stripe_end = (stripe + 1) * self.stripe_bytes;
            let piece = end.min(stripe_end) - at;
            out.push(Extent {
                stripe,
                ost: self.ost_of_stripe(stripe),
                offset: at,
                len: piece,
            });
            at += piece;
        }
        out
    }

    /// Extent `i` of `[offset, offset+len)`, i.e. `extents(offset,
    /// len)[i]`, computed without building the list: the simulator
    /// derives RPC `i` of an I/O this way, so an I/O stores no
    /// per-stripe plan. `i` must be below
    /// [`StripeLayout::stripes_touched`].
    pub fn extent(&self, offset: u64, len: u64, i: u64) -> Extent {
        debug_assert!(i < self.stripes_touched(offset, len));
        let stripe = offset / self.stripe_bytes + i;
        let from = offset.max(stripe * self.stripe_bytes);
        let to = (offset + len).min((stripe + 1) * self.stripe_bytes);
        Extent {
            stripe,
            ost: self.ost_of_stripe(stripe),
            offset: from,
            len: to - from,
        }
    }

    /// Number of stripes a range touches.
    pub fn stripes_touched(&self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = offset / self.stripe_bytes;
        let last = (offset + len - 1) / self.stripe_bytes;
        last - first + 1
    }

    /// Round `offset` up to the next stripe boundary (identity if aligned)
    /// — the "padded and aligned to 1 MB boundaries" optimization.
    pub fn align_up(&self, offset: u64) -> u64 {
        offset.div_ceil(self.stripe_bytes) * self.stripe_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn aligned_transfer_splits_into_full_stripes() {
        let l = StripeLayout::new(MB, 4, 0);
        let ex = l.extents(0, 3 * MB);
        assert_eq!(ex.len(), 3);
        for (i, e) in ex.iter().enumerate() {
            assert_eq!(e.stripe, i as u64);
            assert_eq!(e.ost, i % 4);
            assert_eq!(e.len, MB);
            assert!(e.is_full_stripe(MB));
        }
    }

    #[test]
    fn unaligned_transfer_has_partial_edges() {
        // 1.6 MB at offset 1.6 MB — the GCRM record shape.
        let l = StripeLayout::new(MB, 48, 0);
        let off = (16 * MB) / 10;
        let len = (16 * MB) / 10;
        let ex = l.extents(off, len);
        assert_eq!(ex.len(), 3); // partial, full?, partial
        assert!(!ex[0].is_full_stripe(MB));
        assert!(!ex[ex.len() - 1].is_full_stripe(MB));
        let total: u64 = ex.iter().map(|e| e.len).sum();
        assert_eq!(total, len);
        // Consecutive, no gaps.
        for w in ex.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
    }

    #[test]
    fn round_robin_wraps_with_offset() {
        let l = StripeLayout::new(MB, 3, 2);
        assert_eq!(l.ost_of_stripe(0), 2);
        assert_eq!(l.ost_of_stripe(1), 0);
        assert_eq!(l.ost_of_stripe(2), 1);
        assert_eq!(l.ost_of_stripe(3), 2);
    }

    #[test]
    fn ost_of_maps_offsets_round_robin() {
        let l = StripeLayout::new(MB, 3, 0);
        assert_eq!(l.ost_of(0), 0);
        assert_eq!(l.ost_of(MB - 1), 0);
        assert_eq!(l.ost_of(MB), 1);
        assert_eq!(l.ost_of(2 * MB), 2);
        assert_eq!(l.ost_of(3 * MB), 0);
        let shifted = StripeLayout::new(MB, 3, 2);
        assert_eq!(shifted.ost_of(0), 2);
        assert_eq!(shifted.ost_of(MB), 0);
    }

    #[test]
    fn stripes_touched_counts_boundaries() {
        let l = StripeLayout::new(MB, 4, 0);
        assert_eq!(l.stripes_touched(0, MB), 1);
        assert_eq!(l.stripes_touched(0, MB + 1), 2);
        assert_eq!(l.stripes_touched(MB - 1, 2), 2);
        assert_eq!(l.stripes_touched(5, 0), 0);
    }

    #[test]
    fn align_up_behaviour() {
        let l = StripeLayout::new(MB, 4, 0);
        assert_eq!(l.align_up(0), 0);
        assert_eq!(l.align_up(1), MB);
        assert_eq!(l.align_up(MB), MB);
        assert_eq!(l.align_up(MB + 1), 2 * MB);
    }

    #[test]
    fn zero_length_range_is_empty() {
        let l = StripeLayout::new(MB, 4, 0);
        assert!(l.extents(123, 0).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Extents partition the byte range exactly: contiguous, in order,
        /// summing to len, each within one stripe, OSTs consistent.
        #[test]
        fn extents_partition_range(
            stripe_kb in 1u64..64,
            n_osts in 1usize..16,
            ost_off in 0usize..16,
            offset in 0u64..10_000_000,
            len in 1u64..10_000_000,
        ) {
            let l = StripeLayout::new(stripe_kb << 10, n_osts, ost_off);
            let ex = l.extents(offset, len);
            prop_assert!(!ex.is_empty());
            prop_assert_eq!(ex[0].offset, offset);
            let mut at = offset;
            for e in &ex {
                prop_assert_eq!(e.offset, at);
                prop_assert!(e.len > 0 && e.len <= l.stripe_bytes);
                prop_assert_eq!(e.stripe, e.offset / l.stripe_bytes);
                // An extent never crosses a stripe boundary.
                prop_assert_eq!((e.offset + e.len - 1) / l.stripe_bytes, e.stripe);
                prop_assert_eq!(e.ost, l.ost_of_stripe(e.stripe));
                at += e.len;
            }
            prop_assert_eq!(at, offset + len);
            prop_assert_eq!(ex.len() as u64, l.stripes_touched(offset, len));
        }

        /// Every extent computed by index equals the decomposition's: same
        /// stripe, offset, length, OST and full-stripe flag.
        #[test]
        fn extent_by_index_matches_extents(
            stripe_bytes in 1u64..5_000_000,
            n_osts in 1usize..16,
            ost_off in 0usize..16,
            offset in 0u64..100_000_000,
            (whole, rest) in (0u64..40, 0u64..5_000_000),
        ) {
            // Any length up to ~40 stripes, so tiny stripes stay cheap.
            let len = (whole * stripe_bytes + rest % stripe_bytes).max(1);
            let l = StripeLayout::new(stripe_bytes, n_osts, ost_off);
            let ex = l.extents(offset, len);
            prop_assert_eq!(ex.len() as u64, l.stripes_touched(offset, len));
            for (i, e) in ex.iter().enumerate() {
                let got = l.extent(offset, len, i as u64);
                prop_assert_eq!(got, *e);
                prop_assert_eq!(got.is_full_stripe(stripe_bytes), e.is_full_stripe(stripe_bytes));
            }
        }

        /// Aligning an offset never decreases it and lands on a boundary.
        #[test]
        fn align_up_is_sound(stripe_kb in 1u64..64, offset in 0u64..10_000_000) {
            let l = StripeLayout::new(stripe_kb << 10, 4, 0);
            let a = l.align_up(offset);
            prop_assert!(a >= offset);
            prop_assert_eq!(a % l.stripe_bytes, 0);
            prop_assert!(a - offset < l.stripe_bytes);
        }
    }
}
