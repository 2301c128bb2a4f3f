//! Per-tenant accounting for multi-stream ingest: one job on a shared
//! service gets a resident-memory budget, and the [`TenantMeter`]
//! decides what happens to its record blocks once the tenant's
//! accumulator state reaches that budget.
//!
//! A budget breach cannot apply backpressure retroactively (the memory
//! is already resident), so the tenant is **frozen** — finalized early
//! with whatever evidence fits the budget — and later blocks are
//! counted against it as shed, so `ingested + shed == pushed` stays
//! exact. A frozen tenant is reported as over-budget rather than
//! silently lossy.
//!
//! Budget decisions depend only on the tenant's own stream (its state
//! grows deterministically with its records), so admission is
//! reproducible for any worker-pool size or cross-tenant interleaving.

/// What to do with an arriving block, given the tenant's budget state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Under budget: accumulate the block.
    Admit,
    /// Over budget: finalize the tenant now; this and later blocks are
    /// counted, not accumulated.
    Freeze,
}

/// Resident-memory budget meter for one tenant stream.
#[derive(Debug, Clone)]
pub struct TenantMeter {
    budget_bytes: usize,
    ingested: u64,
    shed: u64,
    frozen: bool,
}

impl TenantMeter {
    /// A meter enforcing `budget_bytes` of accumulator state. A budget
    /// of 0 disables enforcement (unlimited).
    pub fn new(budget_bytes: usize) -> Self {
        TenantMeter {
            budget_bytes,
            ingested: 0,
            shed: 0,
            frozen: false,
        }
    }

    /// Decide one arriving block of `records` records, given the
    /// tenant's current resident accumulator size. Counts the block as
    /// ingested or shed accordingly.
    pub fn admit(&mut self, resident_bytes: usize, records: u64) -> Admission {
        self.frozen |= self.budget_bytes > 0 && resident_bytes > self.budget_bytes;
        if self.frozen {
            self.shed += records;
            return Admission::Freeze;
        }
        self.ingested += records;
        Admission::Admit
    }

    /// Records accumulated for this tenant.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Records frozen out by budget enforcement.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The configured budget in bytes (0 = unlimited).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The tenant breached its budget and was finalized early.
    pub fn frozen(&self) -> bool {
        self.frozen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_admits_everything() {
        let mut m = TenantMeter::new(0);
        for _ in 0..100 {
            assert_eq!(m.admit(usize::MAX - 1, 10), Admission::Admit);
        }
        assert_eq!(m.ingested(), 1000);
        assert_eq!(m.shed(), 0);
    }

    #[test]
    fn freezes_on_first_breach() {
        let mut m = TenantMeter::new(1024);
        assert_eq!(m.admit(512, 4), Admission::Admit);
        assert_eq!(m.admit(4096, 6), Admission::Freeze);
        // Frozen is sticky even if memory drops.
        assert_eq!(m.admit(10, 2), Admission::Freeze);
        assert_eq!(m.ingested(), 4);
        assert_eq!(m.shed(), 8);
        assert!(m.frozen());
    }
}
