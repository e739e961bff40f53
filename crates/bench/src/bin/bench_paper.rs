//! The paper's evaluation: runs every experiment of
//! [`gis_bench::paper::manifest`] and writes one row per estimator result.
//!
//! Flags:
//!
//! * `--fast` — the reduced manifest (fewer rungs, smaller budgets), the CI
//!   smoke. It writes `results/BENCH_paper_fast.json` (git-ignored), so a
//!   local smoke run never replaces the committed artifact.
//! * `--connect HOST:PORT` — ships every job to a `gis-serve` daemon instead
//!   of running it here. The rows equal the local rows on every column but
//!   `wall_time_s`, which the daemon does not send.
//!
//! At full size it writes the committed `BENCH_paper.json` at the workspace
//! root, then exits non-zero unless gradient IS agrees with every Monte
//! Carlo anchor of both ladders within three combined standard errors. The
//! artifact is written first, so a disagreement stays on record.
//!
//! Run with `cargo run --release -p gis-bench --bin bench_paper`.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::paper::{manifest, rows, run_local, PaperRow};
use gis_bench::{fast_mode, parse_flag_value, results_dir, submit_served_job, workspace_root};
use serde::Serialize;

#[derive(Serialize)]
struct PaperArtifact {
    fast_mode: bool,
    rows: Vec<PaperRow>,
}

/// The disagreement of a ladder job's Monte Carlo anchor with its gradient
/// IS row, if any. An anchor that saw no failure anchors nothing, so it
/// counts as a disagreement too. (The Monte Carlo row of the convergence
/// experiment is no anchor: it shows why Monte Carlo cannot converge.)
fn anchor_disagreement(rows: &[PaperRow]) -> Option<String> {
    let mc = rows.iter().find(|r| r.estimator == "monte-carlo")?;
    let gis = rows
        .iter()
        .find(|r| r.estimator == "gradient-is")
        .expect("every ladder job runs gradient IS");
    let combined = gis.standard_error.hypot(mc.standard_error);
    let gap = (gis.estimate - mc.estimate).abs();
    if mc.estimate > 0.0 && gap <= 3.0 * combined {
        return None;
    }
    Some(format!(
        "{} {}x: gradient IS {:.4e} ± {:.2e} disagrees with Monte Carlo {:.4e} ± {:.2e} \
         ({:.1} combined standard errors apart)",
        mc.experiment,
        mc.spec_factor,
        gis.estimate,
        gis.standard_error,
        mc.estimate,
        mc.standard_error,
        gap / combined
    ))
}

fn print_row(row: &PaperRow) {
    let estimator = match &row.variant {
        Some(variant) => format!("{}:{variant}", row.estimator),
        None => row.estimator.clone(),
    };
    println!(
        "{:<17} {:>5.2} {:>4} {:<42} {:>11.4e} {:>6.3} {:>9.1} {:>8} {:>5} {:>6.3} {:>8.3}",
        row.metric,
        row.spec_factor,
        row.padded_dimensions,
        estimator,
        row.estimate,
        row.sigma,
        row.rel90 * 100.0,
        row.simulations,
        row.converged,
        row.mpfp_beta.unwrap_or(f64::NAN),
        row.wall_time_s
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = fast_mode();
    let connect = parse_flag_value(&args, "--connect");
    let mut all = Vec::new();
    let mut disagreements = Vec::new();
    for experiment in manifest(fast) {
        println!(
            "\n=== {} ({} jobs) ===",
            experiment.name,
            experiment.jobs.len()
        );
        println!(
            "{:<17} {:>5} {:>4} {:<42} {:>11} {:>6} {:>9} {:>8} {:>5} {:>6} {:>8}",
            "metric",
            "spec",
            "pad",
            "estimator",
            "P_fail",
            "sigma",
            "rel90[%]",
            "#sims",
            "conv",
            "beta",
            "wall[s]"
        );
        for job in &experiment.jobs {
            let report = match &connect {
                Some(addr) => submit_served_job(addr, &job.spec).report,
                None => run_local(&job.spec).expect("manifest jobs are valid"),
            };
            let rows = rows(experiment.name, job, &report);
            rows.iter().for_each(print_row);
            if !fast && experiment.name.ends_with("-ladder") {
                disagreements.extend(anchor_disagreement(&rows));
            }
            all.extend(rows);
        }
    }

    let path = if fast {
        results_dir().join("BENCH_paper_fast.json")
    } else {
        workspace_root().join("BENCH_paper.json")
    };
    let artifact = PaperArtifact {
        fast_mode: fast,
        rows: all,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("paper rows serialize");
    std::fs::write(&path, json).expect("paper artifact is writable");
    println!("[artifact] {}", path.display());

    if !disagreements.is_empty() {
        for disagreement in &disagreements {
            eprintln!("anchor check failed: {disagreement}");
        }
        std::process::exit(1);
    }
}
