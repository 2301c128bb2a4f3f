//! The benchmark's own tests: every workload at a tiny size at the
//! attribution corpus seeds (101, 202), where every verdict is known.

use perfbench::{result_json, run, Outcome, Params, Seeds, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(
        workload,
        &Seeds::Fixed(vec![101, 202]),
        &Params {
            seconds: 0.0,
            trace,
            tiny: true,
        },
    )
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing {key}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

/// The registered metrics, (name, unit) in file order, from
/// `BENCHMARK.json` at the repository root.
fn registered(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse_value(&json).expect("BENCHMARK.json parses");
    let Value::Seq(list) = field(&doc, key) else {
        panic!("{key} is not a list");
    };
    list.iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// The result line's metrics as (name, value, unit), after checking its
/// other keys.
fn result_metrics(o: &Outcome, trace: bool) -> Vec<(String, f64, String)> {
    let line = result_json(o, trace);
    let doc = serde_json::parse_value(&line).expect("result line is JSON");
    let Value::Map(keys) = &doc else {
        panic!("result is not an object: {line}");
    };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        ["correct", "attempted", "failed", "metrics"],
        "{line}"
    );
    assert_eq!(field(&doc, "correct"), &Value::Bool(true), "{line}");
    assert_eq!(number(field(&doc, "failed")), 0.0, "{line}");
    assert!(number(field(&doc, "attempted")) >= 1.0, "{line}");
    let Value::Map(metrics) = field(&doc, "metrics") else {
        panic!("metrics is not an object: {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                number(field(m, "value")),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Runs `workload` tiny, untraced and traced. Every verdict must hold
/// except on jobs whose label starts with one of `known_misses` (`None`:
/// verdicts are not checked).
fn check(workload: Workload, known_misses: Option<&[&str]>) {
    for trace in [false, true] {
        let o = tiny(workload, trace);
        let t = &o.tally;
        assert!(t.attempted > 0);
        assert_eq!(t.fail_share(), 0.0, "{workload:?}: {:?}", t.failures);
        if let Some(known) = known_misses {
            assert!(
                t.missed_jobs
                    .iter()
                    .all(|m| known.iter().any(|k| m.starts_with(k))),
                "{workload:?} missed verdicts: {:?}",
                t.missed_jobs
            );
        }
        assert!(o.seeds_used.iter().all(|s| [101, 202].contains(s)));
        let key = if trace { "per_layer" } else { "end_to_end" };
        let printed: Vec<(String, String)> = result_metrics(&o, trace)
            .into_iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "{workload:?}: {name} = {value}");
                (name, unit)
            })
            .collect();
        assert_eq!(printed, registered(key), "{workload:?} {key}");
        if trace {
            for (name, _) in &printed {
                assert!(o.layer(name).is_some(), "{workload:?}: {name} not measured");
            }
        }
    }
}

#[test]
fn ior_paper_keeps_its_invariants() {
    check(Workload::IorPaper, None);
}

/// The ramp cell asserts a shape, and its expectation here is that no
/// class is named; at corpus seed 202 the all-OST ramp is attributed to
/// slow-ost, a measured baseline miss recorded in LAYERS.md.
#[test]
fn fault_sweep_keeps_invariants_and_verdicts() {
    check(
        Workload::FaultSweep,
        Some(&["slow-ost-ramp faulted seed 202"]),
    );
}

#[test]
fn fleet_replay_keeps_invariants_and_verdicts() {
    check(Workload::FleetReplay, Some(&[]));
}

#[test]
fn code_registry_matches_benchmark_json() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(registered("end_to_end"), e2e);
    let layers: Vec<String> = registered("per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(layers, PER_LAYER.map(String::from).to_vec());
}

#[test]
fn derived_seeds_depend_only_on_the_workload_seed() {
    let seq = |s: &Seeds| (0..50).map(|k| s.job(k)).collect::<Vec<_>>();
    assert_eq!(seq(&Seeds::Derived(7)), seq(&Seeds::Derived(7)));
    let mut distinct = seq(&Seeds::Derived(7));
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 50);
    assert_ne!(seq(&Seeds::Derived(7)), seq(&Seeds::Derived(8)));
}

/// Regenerates the baseline verdict facts recorded in `LAYERS.md`
/// (a few seconds at full scale): `cargo test --release --manifest-path
/// perfbench/Cargo.toml -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_baseline_verdict_facts() {
    for fact in perfbench::baseline_verdict_facts() {
        println!("{fact}");
    }
}
