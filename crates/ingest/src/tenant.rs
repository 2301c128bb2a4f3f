//! Per-tenant accounting for multi-stream ingest: one job on a shared
//! service gets a resident-memory budget, and the [`TenantMeter`]
//! decides what happens to its record blocks once the tenant's
//! accumulator state reaches that budget.
//!
//! One [`OverflowPolicy`] governs both boundaries a fleet service has:
//! a full transport channel (the service applies it there) and a tenant
//! over its memory budget (this meter applies it here):
//!
//! * [`OverflowPolicy::DropAndCount`] — blocks arriving while the tenant
//!   is over budget are shed whole and every record in them is counted,
//!   so `ingested + shed == pushed` stays exact and the job keeps its
//!   (budget-truncated) diagnosis.
//! * [`OverflowPolicy::Block`] — a budget breach cannot apply
//!   backpressure retroactively (the memory is already resident), so the
//!   lossless policy escalates: the tenant is **frozen** — finalized
//!   early with whatever evidence fits the budget — and later blocks are
//!   counted against it. A frozen tenant is reported as over-budget
//!   rather than silently lossy.
//!
//! Budget decisions depend only on the tenant's own stream (its state
//! grows deterministically with its records), so admission is
//! reproducible for any worker-pool size or cross-tenant interleaving.

/// What a producer does when its destination is full — a transport
/// channel at capacity, or a tenant over its memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Wait for the worker to catch up (lossless).
    Block,
    /// Drop the block and count its records (non-stalling).
    DropAndCount,
}

/// What to do with an arriving block, given the tenant's budget state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Under budget: accumulate the block.
    Admit,
    /// Over budget under [`OverflowPolicy::DropAndCount`]: shed the
    /// block (already counted), keep the tenant live.
    Shed,
    /// Over budget under [`OverflowPolicy::Block`]: finalize the tenant
    /// now; this and later blocks are counted, not accumulated.
    Freeze,
}

/// Resident-memory budget meter for one tenant stream.
#[derive(Debug, Clone)]
pub struct TenantMeter {
    budget_bytes: usize,
    policy: OverflowPolicy,
    ingested: u64,
    shed: u64,
    frozen: bool,
}

impl TenantMeter {
    /// A meter enforcing `budget_bytes` of accumulator state under
    /// `policy`. A budget of 0 disables enforcement (unlimited).
    pub fn new(budget_bytes: usize, policy: OverflowPolicy) -> Self {
        TenantMeter {
            budget_bytes,
            policy,
            ingested: 0,
            shed: 0,
            frozen: false,
        }
    }

    /// Decide one arriving block of `records` records, given the
    /// tenant's current resident accumulator size. Counts the block as
    /// ingested or shed accordingly.
    pub fn admit(&mut self, resident_bytes: usize, records: u64) -> Admission {
        let over = self.budget_bytes > 0 && resident_bytes > self.budget_bytes;
        if self.frozen || over {
            self.shed += records;
            return if self.policy == OverflowPolicy::Block || self.frozen {
                self.frozen = true;
                Admission::Freeze
            } else {
                Admission::Shed
            };
        }
        self.ingested += records;
        Admission::Admit
    }

    /// Records accumulated for this tenant.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Records shed (or frozen out) by budget enforcement.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The configured budget in bytes (0 = unlimited).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The tenant breached its budget under the lossless policy and was
    /// finalized early.
    pub fn frozen(&self) -> bool {
        self.frozen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_admits_everything() {
        let mut m = TenantMeter::new(0, OverflowPolicy::DropAndCount);
        for _ in 0..100 {
            assert_eq!(m.admit(usize::MAX - 1, 10), Admission::Admit);
        }
        assert_eq!(m.ingested(), 1000);
        assert_eq!(m.shed(), 0);
    }

    #[test]
    fn drop_and_count_sheds_over_budget_exactly() {
        let mut m = TenantMeter::new(1024, OverflowPolicy::DropAndCount);
        assert_eq!(m.admit(512, 7), Admission::Admit);
        assert_eq!(m.admit(2048, 5), Admission::Shed);
        // Shrinking back under budget (e.g. after eviction elsewhere)
        // re-admits: the meter is stateless about *why* memory moved.
        assert_eq!(m.admit(900, 3), Admission::Admit);
        assert_eq!(m.ingested(), 10);
        assert_eq!(m.shed(), 5);
        assert!(!m.frozen());
    }

    #[test]
    fn block_policy_freezes_on_first_breach() {
        let mut m = TenantMeter::new(1024, OverflowPolicy::Block);
        assert_eq!(m.admit(512, 4), Admission::Admit);
        assert_eq!(m.admit(4096, 6), Admission::Freeze);
        // Frozen is sticky even if memory drops.
        assert_eq!(m.admit(10, 2), Admission::Freeze);
        assert_eq!(m.ingested(), 4);
        assert_eq!(m.shed(), 8);
        assert!(m.frozen());
    }
}
