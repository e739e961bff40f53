//! Statistical calibration harness over the analytic benchmark-problem
//! library: is every estimator's reported error bar honest?
//!
//! Runs N independent replications of all five estimators on the
//! [`gis_core::problems`] suite (closed-form ground truth) and reduces them
//! to empirical confidence-interval coverage (tested against the binomial
//! acceptance band of the nominal level), relative bias, relative RMSE and
//! sample efficiency per estimator — the standing yardstick every numerics
//! or estimator change is judged against.
//!
//! Flags:
//!
//! * `--fast` — the reduced CI matrix ([`BenchmarkProblem::fast_suite`],
//!   100 replications). In this mode the binary **asserts** that every
//!   (problem, estimator) cell's empirical coverage lies within the binomial
//!   acceptance band, and that the report is bit-identical when the
//!   replication matrix is dispatched at 1 and 4 threads — the CI gate for
//!   the calibration contract.
//! * (default) — the full matrix ([`BenchmarkProblem::standard_suite`],
//!   100 replications), which includes the 576-dimension ladder rung and the
//!   far-tail cells; honesty violations are *reported*, not asserted (they
//!   are findings, e.g. scaled-sigma extrapolation on union geometries).
//!
//! In both modes the binary also runs the fast suite under the production
//! stopping rule (±10% target, ≥20 failures, early stops allowed) and
//! asserts that every cell of that report is within the band.
//!
//! Output: the full matrix writes the committed `BENCH_calibration.json` at
//! the workspace root; `--fast` writes `BENCH_calibration_fast.json` under
//! the git-ignored `results/`, so a local gate run never replaces the
//! committed artifact.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{results_dir, workspace_root, MASTER_SEED};
use gis_core::{
    standard_estimators, BenchmarkProblem, CalibrationReport, Calibrator, ConvergencePolicy,
    ExecutionConfig,
};
use serde::Serialize;

/// Evaluation budget per replication in the gated fast matrix.
const FAST_BUDGET: u64 = 16_000;
/// Two-sided binomial acceptance-band alpha. Tightened from 0.002 (band
/// [80, 98]/100) to 0.005 (band [81, 97]/100) once the first-passage
/// stopping correction landed: coverage under the production stopping rule
/// no longer leans anti-conservative, so the wider guard band was slack.
const BAND_ALPHA: f64 = 0.005;
/// Evaluation budget per replication in the full matrix (kept lower because
/// a 576-dimension replication costs ~10⁷ quantile/normal evaluations).
const FULL_BUDGET: u64 = 20_000;

#[derive(Debug, Serialize)]
struct CalibrationArtifact {
    master_seed: u64,
    fast_mode: bool,
    replications: u32,
    confidence_level: f64,
    band_alpha: f64,
    evaluation_budget: u64,
    all_within_band: bool,
    worst_band_margin: f64,
    /// Coverage of the fast suite under the production stopping rule
    /// (±10% target, ≥20 failures, early stops allowed).
    production_rule: CalibrationReport,
    report: CalibrationReport,
}

/// The fast suite under the production stopping rule (±10% target, ≥20
/// failures).
///
/// The main calibration matrix pins every method to its full budget, so it
/// calibrates the error-bar *formula* and is blind to optional stopping.
/// This run lets every sequential estimator stop early under the one
/// stopping rule of `gis_core::stopping` and checks the coverage of the
/// error bars it reports. Scaled-sigma sampling has no sequential stopping
/// rule (fixed per-scale sample counts) and serves as the in-band control.
fn production_rule_report(matrix: ExecutionConfig) -> CalibrationReport {
    Calibrator::new()
        .master_seed(MASTER_SEED + 53)
        .replications(100)
        .confidence_level(0.9)
        .band_alpha(BAND_ALPHA)
        .convergence_policy(
            ConvergencePolicy::with_budget(FAST_BUDGET)
                .target_relative_error(0.1)
                .min_failures(20),
        )
        .problems(BenchmarkProblem::fast_suite())
        .estimators(standard_estimators())
        .matrix(matrix)
        .run()
}

fn calibrator(fast: bool) -> Calibrator {
    // 100 replications give a [80, 98]/100 acceptance band at alpha 0.002.
    let (suite, replications) = if fast {
        (BenchmarkProblem::fast_suite(), 100)
    } else {
        (BenchmarkProblem::standard_suite(), 100)
    };
    let budget = budget(fast);
    // The gated fast matrix pins every method to the full budget (an
    // unreachable accuracy target disables early stopping): what is being
    // calibrated is the *error-bar formula* at a fixed cost. The full matrix
    // keeps the production stopping rule (±10% at 90%, as the evaluation
    // tables quote); the fast suite under that rule is the separate
    // `production_rule` report.
    let policy = if fast {
        ConvergencePolicy::with_budget(budget)
            .target_relative_error(1e-12)
            .min_failures(u64::MAX)
    } else {
        ConvergencePolicy::with_budget(budget)
            .target_relative_error(0.1)
            .min_failures(20)
    };
    Calibrator::new()
        .master_seed(MASTER_SEED + 53)
        .replications(replications)
        .confidence_level(0.9)
        .band_alpha(BAND_ALPHA)
        .convergence_policy(policy)
        .problems(suite)
        .estimators(standard_estimators())
}

fn budget(fast: bool) -> u64 {
    if fast {
        FAST_BUDGET
    } else {
        FULL_BUDGET
    }
}

fn print_report(report: &CalibrationReport) {
    println!(
        "\ncalibration: {} replications/cell, {:.0}% nominal intervals, acceptance band \
         [{:.0}%, {:.0}%] (alpha {})",
        report.replications,
        report.confidence_level * 100.0,
        report.rows.first().map_or(0.0, |r| r.band_lower * 100.0),
        report.rows.first().map_or(0.0, |r| r.band_upper * 100.0),
        report.band_alpha
    );
    println!(
        "{:<28} {:<22} {:>9} {:>5} {:>8} {:>8} {:>8} {:>8} {:>10} {:>6}",
        "problem",
        "method",
        "coverage",
        "band",
        "bias[%]",
        "rmse[%]",
        "claim[%]",
        "conv[%]",
        "evals",
        "FOM"
    );
    for row in &report.rows {
        println!(
            "{:<28} {:<22} {:>3}/{:<5} {:>5} {:>8.1} {:>8.1} {:>8.1} {:>8.0} {:>10.0} {:>6.3}",
            row.problem,
            row.estimator,
            row.covered,
            row.replications,
            if row.within_band { "ok" } else { "FAIL" },
            row.relative_bias * 100.0,
            row.relative_rmse * 100.0,
            row.mean_reported_relative_error * 100.0,
            row.converged_fraction * 100.0,
            row.mean_evaluations,
            row.empirical_figure_of_merit * 1e3,
        );
    }
}

fn main() {
    let fast = gis_bench::fast_mode();
    println!(
        "bench_calibration: {} matrix, master seed {}",
        if fast { "fast (CI gate)" } else { "full" },
        MASTER_SEED + 53
    );

    let report = calibrator(fast).matrix(ExecutionConfig::from_env()).run();
    print_report(&report);

    // The production stopping rule on the fast suite: the error bars of
    // runs that stop early must cover too. Asserted in both modes (it always
    // runs on the fast suite, so the gate is mode-independent).
    let production = production_rule_report(ExecutionConfig::from_env());
    println!("\nproduction stopping rule (±10% target, ≥20 failures):");
    print_report(&production);
    assert!(
        production.all_within_band(),
        "production stopping rule outside the acceptance band in {} cell(s), worst margin {:+.0}",
        production.violations().len(),
        production.worst_band_margin()
    );

    if fast {
        // CI gate 1: every cell's coverage inside its binomial band.
        let violations = report.violations();
        assert!(
            violations.is_empty(),
            "coverage outside the acceptance band in {} cell(s): {}",
            violations.len(),
            violations
                .iter()
                .map(|r| format!(
                    "{}/{} ({}/{})",
                    r.problem, r.estimator, r.covered, r.replications
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
        // CI gate 2: the replication matrix is bit-identical across dispatch
        // widths. The first report ran at the environment's width (1 locally,
        // 4 under CI's GIS_THREADS); one cross-check at a width guaranteed to
        // differ from both proves the invariance without a third full run.
        let cross = calibrator(true)
            .matrix(ExecutionConfig::with_threads(3))
            .run();
        assert_eq!(
            cross, report,
            "calibration report diverged across matrix thread counts"
        );
        println!(
            "\nfast gate: all {} cells within the acceptance band \
             (worst margin {:+.0} replications); report bit-identical across matrix widths",
            report.rows.len(),
            report.worst_band_margin()
        );
    } else if !report.all_within_band() {
        println!(
            "\nnote: {} cell(s) outside the acceptance band (full matrix includes \
             stress geometries where some baselines are knowingly dishonest):",
            report.violations().len()
        );
        for row in report.violations() {
            println!(
                "  {}/{} covered {}/{} (band [{:.0}, {:.0}])",
                row.problem,
                row.estimator,
                row.covered,
                row.replications,
                row.band_lower * row.replications as f64,
                row.band_upper * row.replications as f64
            );
        }
    }

    let artifact = CalibrationArtifact {
        master_seed: MASTER_SEED + 53,
        fast_mode: fast,
        replications: report.replications,
        confidence_level: report.confidence_level,
        band_alpha: report.band_alpha,
        evaluation_budget: budget(fast),
        all_within_band: report.all_within_band(),
        worst_band_margin: report.worst_band_margin(),
        production_rule: production,
        report,
    };
    let path = if fast {
        results_dir().join("BENCH_calibration_fast.json")
    } else {
        workspace_root().join("BENCH_calibration.json")
    };
    let json = serde_json::to_string_pretty(&artifact).expect("calibration report serializes");
    std::fs::write(&path, json).expect("calibration report is writable");
    println!("[artifact] {}", path.display());
}
