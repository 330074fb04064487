//! Same seed, same work: two invocations with one seed report identical
//! work counters and simulated results, traced runs report exactly the
//! per-layer metrics `BENCHMARK.json` declares, and another seed changes
//! the mesh counters and the netlist part of `verify`.
//!
//! Each case runs the release benchmark for its minimum of one traced and
//! one untraced repetition; run with `cargo test --release`.

use std::collections::BTreeMap;
use std::process::Command;

type Metrics = BTreeMap<String, (f64, String)>;

fn run(workload: &str, seed: u64, trace: bool) -> Metrics {
    let out = Command::new(env!("CARGO_BIN_EXE_turnbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    parse_metrics(last)
}

/// The `"name": {"value": v, "unit": "u"}` pairs of a result line.
fn parse_metrics(line: &str) -> Metrics {
    const KEY: &str = ": {\"value\": ";
    let mut out = Metrics::new();
    let mut rest = &line[line.find("\"metrics\"").expect("metrics object")..];
    while let Some(i) = rest.find(KEY) {
        let name_end = rest[..i].rfind('"').expect("quoted name");
        let name_start = rest[..name_end].rfind('"').expect("quoted name");
        let name = rest[name_start + 1..name_end].to_string();
        let after = &rest[i + KEY.len()..];
        let comma = after.find(',').expect("value then unit");
        let value: f64 = after[..comma].parse().expect("numeric value");
        let unit_start = after.find("\"unit\": \"").expect("unit") + 9;
        let unit_end = unit_start + after[unit_start..].find('"').expect("closing quote");
        out.insert(name, (value, after[unit_start..unit_end].to_string()));
        rest = &after[unit_end..];
    }
    out
}

/// Metrics that must repeat exactly for one seed: work counters and
/// simulated results, not host times or repetition counts.
fn deterministic(m: &Metrics) -> Metrics {
    m.iter()
        .filter(|(name, (_, unit))| {
            let exact_unit = matches!(unit.as_str(), "count" | "cycles" | "flit/node/cycle");
            let exact_ratio =
                name.ends_with("grant_ratio") || name.ends_with("states_per_transition");
            !name.starts_with("bench.") && (exact_unit || exact_ratio)
        })
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(m: &Metrics) -> Vec<String> {
    let mut v: Vec<String> = m.keys().cloned().collect();
    v.sort();
    v
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn mesh_counters_repeat_per_seed_and_change_with_it() {
    let a = run("mesh16_sparse", 11, true);
    let b = run("mesh16_sparse", 11, true);
    let c = run("mesh16_sparse", 12, true);
    assert_eq!(names(&a), sorted(declared("per_layer")));
    assert_eq!(deterministic(&a), deterministic(&b));
    for counter in [
        "sim.flit_hops",
        "sim.grants",
        "routing.route_calls",
        "vc.route_calls",
    ] {
        assert!(a[counter].0 > 0.0, "{counter} is zero");
        assert_ne!(a[counter], c[counter], "{counter} ignores the seed");
    }
    assert_eq!(
        a["analysis.extract.deps"].0, 0.0,
        "no graph work on a mesh workload"
    );
}

#[test]
fn saturated_counters_repeat_per_seed() {
    let a = run("mesh16_saturated", 5, true);
    let b = run("mesh16_saturated", 5, true);
    assert_eq!(deterministic(&a), deterministic(&b));
    assert!(a["sim.packets_retained"].0 > 0.0);
}

#[test]
fn verify_counters_repeat_per_seed_and_netlists_change_with_it() {
    let a = run("verify", 11, true);
    let b = run("verify", 11, true);
    let c = run("verify", 12, true);
    assert_eq!(deterministic(&a), deterministic(&b));
    assert_ne!(a["analysis.extract.deps"], c["analysis.extract.deps"]);
    // The model-checking matrix is fixed; only the netlists follow the seed.
    assert_eq!(a["analysis.mc.states"], c["analysis.mc.states"]);
    assert_eq!(a["sim.grants"].0, 0.0, "no streaming simulation in verify");
}

#[test]
fn untraced_run_prints_the_end_to_end_metrics() {
    let m = run("mesh16_sparse", 3, false);
    assert_eq!(names(&m), sorted(declared("end_to_end")));
    for (name, (value, _)) in &m {
        assert!(*value > 0.0, "{name} is {value}");
    }
}
