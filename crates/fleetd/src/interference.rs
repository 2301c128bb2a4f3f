//! Cross-job interference: which jobs are slow on which storage
//! targets, and where they collide.
//!
//! The per-job diagnosers attribute each tenant's own tail; this module
//! answers the machine operator's next question — *is the slow resource
//! shared?* Every job accumulates per-OST operation counts and service
//! time from its data calls (offsets map to object storage targets
//! through the job's stripe layout, the simulator's own placement),
//! and the fleet view intersects the per-job outliers: an
//! OST flagged slow by two or more tenants is a contended target, and
//! the view names the jobs, LASSi-style.

/// How a job's file offsets map onto object storage targets: the
/// simulator's own [`StripeLayout`](pio_fs::StripeLayout), so the
/// ledger places every data call where the simulator served it.
pub use pio_fs::StripeLayout as OstLayout;

/// Per-OST usage one job accumulated from its data calls.
#[derive(Debug, Clone, PartialEq)]
pub struct OstUsage {
    ops: Vec<u64>,
    secs: Vec<f64>,
}

impl OstUsage {
    /// Zeroed usage over `n_osts` targets.
    pub fn new(n_osts: usize) -> Self {
        OstUsage {
            ops: vec![0; n_osts],
            secs: vec![0.0; n_osts],
        }
    }

    /// Record one data call of `secs` service time against `ost`.
    pub fn add(&mut self, ost: usize, secs: f64) {
        if ost < self.ops.len() {
            self.ops[ost] += 1;
            self.secs[ost] += secs;
        }
    }

    /// Operation counts per target.
    pub fn ops(&self) -> &[u64] {
        &self.ops
    }

    /// Summed service time per target.
    pub fn secs(&self) -> &[f64] {
        &self.secs
    }

    /// Total data calls over all targets.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Targets whose mean service time stands out against the rest of
    /// the pool: `(ost, severity)` for every target with at least
    /// `min_ops` calls whose mean is `>= ratio` times the mean over all
    /// *other* targets' calls. Severity is that multiple.
    pub fn flagged(&self, min_ops: u64, ratio: f64) -> Vec<(usize, f64)> {
        let total_ops: u64 = self.ops.iter().sum();
        let total_secs: f64 = self.secs.iter().sum();
        let mut out = Vec::new();
        for (ost, (&ops, &secs)) in self.ops.iter().zip(&self.secs).enumerate() {
            if ops < min_ops {
                continue;
            }
            let rest_ops = total_ops - ops;
            if rest_ops == 0 {
                continue; // a single active target has no peer baseline
            }
            let mine = secs / ops as f64;
            let rest = (total_secs - secs) / rest_ops as f64;
            if rest > 0.0 && mine / rest >= ratio {
                out.push((ost, mine / rest));
            }
        }
        out
    }
}

/// One contended target: an OST that two or more jobs independently see
/// slow, with the jobs that flagged it.
#[derive(Debug, Clone, PartialEq)]
pub struct OstContention {
    /// The shared target.
    pub ost: usize,
    /// `(job name, severity)` for every tenant that flagged it, in
    /// fleet job order.
    pub jobs: Vec<(String, f64)>,
}

/// Intersect per-job OST outliers into the fleet contention view.
///
/// `per_job` pairs each tenant's name with its usage ledger (in fleet
/// job order, which the output preserves). Targets flagged by fewer
/// than two jobs are dropped — one slow tenant on one target is that
/// tenant's problem, not contention.
pub fn contention(per_job: &[(String, &OstUsage)], min_ops: u64, ratio: f64) -> Vec<OstContention> {
    let mut by_ost: Vec<(usize, Vec<(String, f64)>)> = Vec::new();
    for (name, usage) in per_job {
        for (ost, severity) in usage.flagged(min_ops, ratio) {
            match by_ost.iter_mut().find(|(o, _)| *o == ost) {
                Some((_, jobs)) => jobs.push((name.clone(), severity)),
                None => by_ost.push((ost, vec![(name.clone(), severity)])),
            }
        }
    }
    by_ost.sort_by_key(|(ost, _)| *ost);
    by_ost
        .into_iter()
        .filter(|(_, jobs)| jobs.len() >= 2)
        .map(|(ost, jobs)| OstContention { ost, jobs })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flagged_names_the_slow_target_only() {
        let mut u = OstUsage::new(4);
        for i in 0..4 {
            for _ in 0..100 {
                u.add(i, if i == 2 { 0.08 } else { 0.01 });
            }
        }
        let flags = u.flagged(32, 2.0);
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].0, 2);
        assert!(flags[0].1 > 5.0, "severity {} should be ~8x", flags[0].1);
    }

    #[test]
    fn flagged_requires_volume_and_a_peer_baseline() {
        let mut u = OstUsage::new(4);
        u.add(1, 10.0); // one slow op: below min_ops
        for _ in 0..100 {
            u.add(0, 0.01);
        }
        assert!(u.flagged(32, 2.0).is_empty());
        // A single active target cannot be judged against itself.
        let mut solo = OstUsage::new(1);
        for _ in 0..100 {
            solo.add(0, 5.0);
        }
        assert!(solo.flagged(32, 2.0).is_empty());
    }

    #[test]
    fn contention_needs_two_jobs_on_the_same_target() {
        let mut a = OstUsage::new(3);
        let mut b = OstUsage::new(3);
        let mut c = OstUsage::new(3);
        for i in 0..3 {
            for _ in 0..100 {
                a.add(i, if i == 1 { 0.1 } else { 0.01 });
                b.add(i, if i == 1 { 0.2 } else { 0.02 });
                c.add(i, 0.01); // healthy tenant
            }
        }
        let rows = contention(
            &[
                ("job-a".into(), &a),
                ("job-b".into(), &b),
                ("job-c".into(), &c),
            ],
            32,
            2.0,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].ost, 1);
        let names: Vec<&str> = rows[0].jobs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["job-a", "job-b"]);
    }
}
