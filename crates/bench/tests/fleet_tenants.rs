//! The simulated fleet's tenants are copies of fault-matrix cells:
//! `pio_fleetd::sim::fleet_spec` writes each tenant's plan, job and
//! platform by hand, so this pins that every copy still equals the cell
//! it names. The fleet-replay benchmark replays these tenants' traces,
//! so a mismatch is mended in the doc or the cell, never by moving a
//! tenant.

use pio_bench::fault_matrix::{scenarios, Expect, Scenario};
use pio_fleetd::sim::{fleet_spec, SimConfig, SimJob};
use pio_fs::FsConfig;

const SCALE: u32 = 16;

/// The tenant's label: its name without the `job-NN-` prefix.
fn label(tenant: &SimJob) -> &str {
    tenant.name.splitn(3, '-').nth(2).expect("job-NN-<label>")
}

/// Job and platform have no `PartialEq`; their `Debug` forms carry every
/// field.
fn same_job_and_platform(tenant: &SimJob, cell: &Scenario) -> bool {
    format!("{:?}", tenant.job) == format!("{:?}", cell.job())
        && format!("{:?}", tenant.fs) == format!("{:?}", cell.fs())
}

#[test]
fn faulted_tenants_and_their_baselines_are_the_matrix_cells() {
    let cells = scenarios(SCALE);
    let spec = fleet_spec(&SimConfig {
        jobs: 8,
        faulted: 5,
        scale: SCALE,
    });
    let single_cells = |pick: &dyn Fn(&Scenario) -> bool| -> Vec<&Scenario> {
        cells
            .iter()
            .filter(|c| matches!(c.expected, Expect::Single(_)) && pick(c))
            .collect()
    };

    // The first five tenants run the five single-fault cells.
    for tenant in &spec[..5] {
        let found = single_cells(&|c| c.fault == label(tenant));
        let [cell] = found[..] else {
            panic!(
                "{}: {} single-fault cells named so",
                tenant.name,
                found.len()
            );
        };
        assert_eq!(tenant.plan.as_ref(), Some(cell.plan()), "{}", tenant.name);
        assert_eq!(
            tenant.expected.map(Expect::Single),
            Some(cell.expected.clone()),
            "{}",
            tenant.name
        );
        assert!(same_job_and_platform(tenant, cell), "{}", tenant.name);
    }

    // The rest are clean: meta-stream, ior-read, paced-read.
    let clean: Vec<&str> = spec[5..].iter().map(label).collect();
    assert_eq!(clean, ["meta-stream", "ior-read", "paced-read"]);
    for tenant in &spec[5..] {
        assert_eq!(tenant.plan, None, "{}", tenant.name);
        assert_eq!(tenant.expected, None, "{}", tenant.name);
    }
    // The paced-read and meta-stream baselines are the clean runs of
    // every single-fault cell on that workload.
    for tenant in [&spec[5], &spec[7]] {
        let found = single_cells(&|c| c.workload == label(tenant));
        assert!(!found.is_empty(), "{}: no cell runs it", tenant.name);
        for cell in found {
            assert!(
                same_job_and_platform(tenant, cell),
                "{} differs from the {} cell",
                tenant.name,
                cell.fault
            );
        }
    }
    // ior-read runs the slow-ost cell's job, but on the default platform
    // where that cell pins the calm one: it is no matrix cell's baseline.
    let ior = &spec[6];
    let slow_ost = single_cells(&|c| c.fault == "slow-ost")[0];
    assert_eq!(
        format!("{:?}", ior.job),
        format!("{:?}", slow_ost.job()),
        "{}",
        ior.name
    );
    assert_eq!(
        format!("{:?}", ior.fs),
        format!("{:?}", FsConfig::franklin().scaled(SCALE)),
        "{}",
        ior.name
    );
    assert!(!cells.iter().any(|c| same_job_and_platform(ior, c)));
}
