//! The trace summariser: per-layer self time and its share of the
//! workload's traced time, plus the tracing overhead.
//!
//! `perfbench summarize <trace file>...` reads the files a traced run
//! writes; a traced run also prints the same summary when it finishes.

use crate::trace::{self_time_by_name, Span};
use serde::Value;
use std::collections::BTreeMap;

/// Every span name the benchmark records, with the layer it times.
pub const SPAN_LAYERS: [(&str, &str); 14] = [
    ("job", "benchmark loop"),
    ("round", "benchmark loop"),
    ("analysis", "estimators + gis_stats"),
    ("model.evaluate_batch", "model (and what it calls)"),
    ("sweep.run", "gis_core::sweep"),
    ("sweep.status", "gis_core::sweep"),
    ("serve.bind", "gis_serve"),
    ("serve.job", "gis_serve"),
    ("serve.cell", "gis_serve"),
    ("serve.status", "gis_serve"),
    ("sram.run_batch", "gis_sram (replay)"),
    ("circuit.transient", "gis_circuit (replay)"),
    ("circuit.newton", "gis_circuit (replay)"),
    ("linalg.lu", "gis_linalg (replay)"),
];

fn field_u64(value: &Value, key: &str) -> Option<u64> {
    match value.get(key)? {
        Value::UInt(v) => Some(*v),
        _ => None,
    }
}

fn field_f64(value: &Value, key: &str) -> Option<f64> {
    match value.get(key)? {
        Value::Float(v) => Some(*v),
        Value::UInt(v) => Some(*v as f64),
        Value::Int(v) => Some(*v as f64),
        _ => None,
    }
}

fn parse_span(value: &Value) -> Option<Span> {
    let name = match value.get("name")? {
        Value::String(name) => SPAN_LAYERS.iter().find(|(n, _)| n == name)?.0,
        _ => return None,
    };
    Some(Span {
        id: field_u64(value, "id")?,
        parent: field_u64(value, "parent"),
        trace: field_u64(value, "trace")?,
        name,
        start_ns: field_u64(value, "start_ns")?,
        end_ns: field_u64(value, "end_ns")?,
        thread: field_u64(value, "thread")?,
    })
}

/// Prints the summary of one traced run.
pub fn print(header: &Value, spans: &[Span]) {
    let text = |key: &str| match header.get(key) {
        Some(Value::String(s)) => s.clone(),
        Some(other) => serde_json::to_string(other).unwrap_or_default(),
        None => "?".to_string(),
    };
    let own = self_time_by_name(spans);
    let is_replay = |name: &str| {
        SPAN_LAYERS
            .iter()
            .any(|(n, layer)| *n == name && layer.ends_with("(replay)"))
    };
    // Concurrent spans (two evaluation threads, two matrix cells, two
    // clients) each count, so shares are of the summed self time.
    let workload_ns: u64 = own
        .iter()
        .filter(|(name, _)| !is_replay(name))
        .map(|(_, ns)| ns)
        .sum();
    eprintln!(
        "\n== trace summary: {} seed {} ({} spans, {:.3} s of self time outside replay)",
        text("workload"),
        text("seed"),
        spans.len(),
        workload_ns as f64 / 1e9
    );
    eprintln!(
        "{:<22} {:<28} {:>8} {:>12} {:>8}",
        "span", "layer", "count", "self [s]", "share"
    );
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for span in spans {
        *counts.entry(span.name).or_insert(0) += 1;
    }
    for (name, layer) in SPAN_LAYERS {
        let Some(&ns) = own.get(name) else { continue };
        let share = if is_replay(name) || workload_ns == 0 {
            "replay".to_string()
        } else {
            format!("{:.1}%", 100.0 * ns as f64 / workload_ns as f64)
        };
        eprintln!(
            "{name:<22} {layer:<28} {:>8} {:>12.4} {share:>8}",
            counts[name],
            ns as f64 / 1e9
        );
    }
    let metric = |run: &str, name: &str| {
        header
            .get(run)
            .and_then(|m| m.get(name))
            .and_then(|m| field_f64(m, "value"))
    };
    eprintln!("tracing overhead (traced vs untraced end-to-end):");
    for name in ["cells_per_s", "analysis_s_p50", "job_s_p50"] {
        if let (Some(untraced), Some(traced)) = (metric("untraced", name), metric("traced", name)) {
            eprintln!(
                "  {name:<16} untraced {untraced:>12.6} traced {traced:>12.6} ({:+.2}%)",
                100.0 * (traced / untraced - 1.0)
            );
        }
    }
    if let Some(overhead) = field_f64(header, "overhead_frac") {
        eprintln!("  timed wall time {:+.2}%", 100.0 * overhead);
    }
}

/// `perfbench summarize <trace file>...`; returns the exit code.
pub fn main(files: &[String]) -> i32 {
    if files.is_empty() {
        eprintln!("usage: perfbench summarize <trace file>...");
        return 2;
    }
    for file in files {
        let contents = match std::fs::read_to_string(file) {
            Ok(contents) => contents,
            Err(e) => {
                eprintln!("perfbench: cannot read {file}: {e}");
                return 1;
            }
        };
        let mut lines = contents.lines();
        let Some(Ok(header)) = lines.next().map(serde_json::from_str::<Value>) else {
            eprintln!("perfbench: {file} has no trace header");
            return 1;
        };
        let spans: Vec<Span> = lines
            .filter_map(|line| serde_json::from_str::<Value>(line).ok())
            .filter_map(|value| parse_span(&value))
            .collect();
        print(&header, &spans);
    }
    0
}
