//! Smoke-size runs of every workload, each made twice: every metric named
//! in `BENCHMARK.json` is emitted, finite and carries a unit, the output
//! checks hold, and the exact counts repeat exactly.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Metrics that are exact at a fixed seed and size.
const EXACT: [&str; 8] = [
    "sims_per_analysis",
    "gis.search_evals",
    "model.batches",
    "linalg.fill_nnz",
    "circuit.newton_per_step",
    "serve.cache_hit_frac",
    "sweep.checkpoint_bytes_per_cell",
    "serve.journal_bytes_per_cell",
];

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(manifest: &Value, key: &str) -> Vec<String> {
    match manifest.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| match item.get("name") {
                Some(Value::String(name)) => name.clone(),
                other => panic!("{key} entry without a name: {other:?}"),
            })
            .collect(),
        other => panic!("BENCHMARK.json has no {key} list: {other:?}"),
    }
}

/// Runs one smoke-size workload and returns its result line.
fn run(workload: &str, trace: bool, scratch: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", scratch)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn metric(result: &Value, name: &str) -> (f64, String) {
    let entry = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("metric {name} is missing"));
    let value = match entry.get("value") {
        Some(Value::Float(v)) => *v,
        Some(Value::UInt(v)) => *v as f64,
        Some(Value::Int(v)) => *v as f64,
        other => panic!("metric {name} has no numeric value: {other:?}"),
    };
    let unit = match entry.get("unit") {
        Some(Value::String(unit)) => unit.clone(),
        other => panic!("metric {name} has no unit: {other:?}"),
    };
    (value, unit)
}

fn check_twice(workload: &str) {
    let manifest = manifest();
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("perfbench-smoke-{workload}-{}", std::process::id()));
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let first = run(workload, trace, &scratch);
        let second = run(workload, trace, &scratch);
        for result in [&first, &second] {
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed"), Some(&Value::UInt(0)));
        }
        for name in names(&manifest, key) {
            let (value, unit) = metric(&first, &name);
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert!(!unit.is_empty(), "{workload}: {name} has an empty unit");
            if EXACT.contains(&name.as_str()) {
                assert_eq!(
                    value.to_bits(),
                    metric(&second, &name).0.to_bits(),
                    "{workload}: exact count {name} did not repeat"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn transient_gis_smoke() {
    check_twice("transient-gis");
}

#[test]
fn analytic_ladder_smoke() {
    check_twice("analytic-ladder");
}

#[test]
fn served_sweep_smoke() {
    check_twice("served-sweep");
}
