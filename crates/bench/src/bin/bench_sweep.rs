//! Scenario-sweep harness: matrix-parallel orchestration with durable
//! checkpoint/resume over an operating-condition grid.
//!
//! Builds a [`gis_core::SweepPlan`] spanning process corners × supply
//! voltages × temperatures × Pelgrom coefficients × metrics, runs every
//! (scenario, estimator) cell through [`gis_core::SweepRunner`], and writes
//! `results/SWEEP_report.json` with the full report, the per-cell summary
//! (sigma levels against the array-capacity targets) and the final status.
//!
//! Flags:
//!
//! * `--fast` — CI-sized grid and budgets.
//! * `--status` — print checkpoint progress and exit without running.
//! * `--fresh` — delete the checkpoint before running.
//! * `--max-cells N` — stop after N new cells (simulates a killed run; the
//!   checkpoint keeps what finished).
//! * `--verify-resume` — after the (possibly resumed) run completes, re-run
//!   the whole sweep uninterrupted in memory and assert the two reports are
//!   exactly equal. This is the CI gate for the checkpoint/resume contract.
//! * `--checkpoint PATH` — checkpoint file (default
//!   `results/sweep_checkpoint.jsonl`).
//! * `--connect HOST:PORT` — thin-client mode: ship the identical sweep as
//!   a job to a running `gis-serve` daemon instead of executing locally.
//!   The streamed rows are bit-identical to the direct path (the daemon
//!   derives every per-cell seed from the same master seed and policy), so
//!   the summary and `SWEEP_report.json` artifact are unchanged.
//!   Incompatible with the checkpoint flags — the daemon owns durability.
//! * `--warm-ab` — warm-vs-blind A/B mode: run a TT grid (5 supplies × 3
//!   temperatures × all 5 estimators = 75 cells at the fast budget) once
//!   blind and once in dependency-aware continuation mode, **assert** the
//!   warm estimates agree with the blind ones within their 90% error bars
//!   and that continuation saves evaluations, and write the measured block
//!   (`evals_saved`, `speedup_vs_blind`, agreement counters) to
//!   `results/warm_vs_blind.json`. Incompatible with the checkpoint flags and
//!   `--connect`.
//!
//! The kill-and-resume smoke in CI is:
//! `bench_sweep --fast --fresh --max-cells 7` (partial, "killed"), then
//! `bench_sweep --fast --verify-resume` (resumes and proves equality).

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{
    parse_flag_value, results_dir, submit_served_job, write_json_artifact, MASTER_SEED,
};
use gis_core::sweep::clear_checkpoint;
use gis_core::{
    standard_estimators, AnalysisReport, ConvergencePolicy, ExecutionConfig, SramMetric, SweepPlan,
    SweepRunner, SweepStatus, SweepSummaryRow, YieldAnalysis,
};
use gis_serve::{EstimatorSpec, JobSpec, ProblemSpec};
use gis_variation::GlobalCorner;
use serde::Serialize;
use std::path::PathBuf;

#[derive(Debug, Serialize)]
struct SweepArtifact {
    master_seed: u64,
    fast_mode: bool,
    matrix_threads: usize,
    status: SweepStatus,
    sigma_requirements: Vec<(String, f64)>,
    summary: Vec<SweepSummaryRow>,
    report: AnalysisReport,
}

fn plan(fast: bool) -> SweepPlan {
    let plan = SweepPlan::new()
        .spec_factor(1.5)
        .capacity_target("16Mb+8r", 16 * 1024 * 1024, 8, 0.99)
        .capacity_target("256Mb+64r", 256 * 1024 * 1024, 64, 0.99);
    if fast {
        plan.corners([GlobalCorner::TypicalTypical, GlobalCorner::SlowSlow])
            .supply_voltages([0.9, 1.0])
    } else {
        plan.corners(GlobalCorner::all())
            .supply_voltages([0.9, 1.0])
            .temperatures([-40.0, 25.0, 125.0])
            .metrics([SramMetric::ReadAccessTime, SramMetric::WriteDelay])
    }
}

fn policy(fast: bool) -> ConvergencePolicy {
    ConvergencePolicy::with_budget(if fast { 2_000 } else { 20_000 })
        .target_relative_error(0.1)
        .min_failures(20)
}

fn analysis(plan: &SweepPlan, fast: bool) -> YieldAnalysis {
    plan.analysis()
        .master_seed(MASTER_SEED + 41)
        .convergence_policy(policy(fast))
        .estimators(standard_estimators())
}

/// The warm-vs-blind A/B grid: one corner with two continuous axes, sized
/// to satisfy the evaluation contract (≥ 5 × 3 operating points) while
/// staying CI-cheap at the fast budget. Every non-origin cell has a warm
/// donor along the supply or temperature axis.
fn warm_ab_plan() -> SweepPlan {
    SweepPlan::new()
        .spec_factor(1.5)
        .corners([GlobalCorner::TypicalTypical])
        .supply_voltages([0.85, 0.90, 0.95, 1.00, 1.05])
        .temperatures([-40.0, 25.0, 125.0])
}

/// The `results/warm_vs_blind.json` artifact of `--warm-ab`.
#[derive(Debug, Serialize)]
struct WarmVsBlindArtifact {
    master_seed: u64,
    matrix_threads: usize,
    grid: String,
    cells: usize,
    /// Cells whose warm row was bit-identical to the blind row (origin
    /// cells and estimators that ignore hints, Monte Carlo in particular).
    bit_identical_cells: usize,
    /// Cells where the warm estimate differed but stayed inside the
    /// overlapping 90% confidence intervals (asserted, so always
    /// `cells - bit_identical_cells`).
    agreeing_cells: usize,
    blind_evaluations: u64,
    warm_evaluations: u64,
    /// Model evaluations the continuation schedule avoided (blind − warm).
    evals_saved: i64,
    /// Evaluation-count ratio blind/warm. Reported as an eval ratio rather
    /// than wall-clock so the artifact is reproducible on any machine.
    speedup_vs_blind: f64,
}

/// Warm-vs-blind A/B mode: run the [`warm_ab_plan`] grid blind (the
/// reproducibility reference) and warm (dependency-aware continuation),
/// assert estimate agreement cell by cell, and write the measured
/// `evals_saved` / `speedup_vs_blind` block to `results/warm_vs_blind.json`.
fn run_warm_ab(matrix: &ExecutionConfig) {
    let plan = warm_ab_plan();
    // A/B budget: 4x the fast sweep budget. At 2 000 the minimum-norm
    // baseline's error bars are not yet trustworthy on the ~1e-6 cells of
    // this grid (its fast-budget CI can miss the high-budget reference), so
    // the agreement gate would test CI calibration rather than warm-start
    // correctness. The grid is surrogate-cheap; the whole A/B stays sub-second.
    let ab_policy = ConvergencePolicy::with_budget(8_000)
        .target_relative_error(0.1)
        .min_failures(20);
    let ab_analysis = || {
        plan.analysis()
            .master_seed(MASTER_SEED + 41)
            .convergence_policy(ab_policy)
            .estimators(standard_estimators())
    };
    println!(
        "bench_sweep --warm-ab: {} scenarios x 5 estimators, matrix threads {}",
        plan.scenarios().len(),
        matrix.resolved_threads()
    );

    let blind = SweepRunner::new()
        .matrix(*matrix)
        .run(&mut ab_analysis())
        .report
        .expect("blind sweep completes");
    let warm = SweepRunner::new()
        .matrix(*matrix)
        .warm_start(plan.warm_donors())
        .run(&mut ab_analysis())
        .report
        .expect("warm sweep completes");

    let mut cells = 0usize;
    let mut bit_identical = 0usize;
    let mut blind_evals: u64 = 0;
    let mut warm_evals: u64 = 0;
    for (bp, wp) in blind.problems.iter().zip(&warm.problems) {
        assert_eq!(bp.problem, wp.problem, "A/B grids diverged");
        for (b, w) in bp.methods.iter().zip(&wp.methods) {
            assert_eq!(b.estimator, w.estimator, "A/B estimator order diverged");
            cells += 1;
            blind_evals += b.row.evaluations;
            warm_evals += w.row.evaluations;
            if b.row == w.row {
                bit_identical += 1;
                continue;
            }
            // Agreement gate: the 90% confidence intervals of the blind and
            // warm estimates must overlap (half-widths are relative in the
            // row schema; a non-finite half-width collapses to a point).
            let half = |p: f64, rel: f64| if rel.is_finite() { p * rel } else { 0.0 };
            let hb = half(b.row.failure_probability, b.row.relative_confidence_90);
            let hw = half(w.row.failure_probability, w.row.relative_confidence_90);
            let gap = (b.row.failure_probability - w.row.failure_probability).abs();
            assert!(
                gap <= hb + hw,
                "{}/{}: warm estimate {} disagrees with blind {} ± {} (warm half-width {})",
                bp.problem,
                b.estimator,
                w.row.failure_probability,
                b.row.failure_probability,
                hb,
                hw
            );
        }
    }
    let evals_saved = blind_evals as i64 - warm_evals as i64;
    assert!(
        evals_saved > 0,
        "continuation mode must save evaluations on the A/B grid \
         (blind {blind_evals}, warm {warm_evals})"
    );

    let artifact = WarmVsBlindArtifact {
        master_seed: MASTER_SEED + 41,
        matrix_threads: matrix.resolved_threads(),
        grid: format!("TT x 5 supplies x 3 temperatures ({} cells)", cells),
        cells,
        bit_identical_cells: bit_identical,
        agreeing_cells: cells - bit_identical,
        blind_evaluations: blind_evals,
        warm_evaluations: warm_evals,
        evals_saved,
        speedup_vs_blind: blind_evals as f64 / warm_evals as f64,
    };
    println!(
        "warm-vs-blind: {} cells, {} bit-identical, {} agreeing within error bars, \
         {} evaluations saved ({:.3}x vs blind)",
        artifact.cells,
        artifact.bit_identical_cells,
        artifact.agreeing_cells,
        artifact.evals_saved,
        artifact.speedup_vs_blind
    );
    write_json_artifact("warm_vs_blind", &artifact);
}

/// Thin-client mode: ship the sweep to a `gis-serve` daemon as a job. The
/// plan itself travels over the wire (it is fully serializable), the daemon
/// rebuilds the identical scenario problems, and the returned rows feed the
/// same summary/artifact path as a local run.
fn run_served(addr: &str, plan: &SweepPlan, fast: bool, matrix: &ExecutionConfig) {
    let job = JobSpec {
        problem: ProblemSpec::Plan { plan: plan.clone() },
        estimators: EstimatorSpec::standard(),
        master_seed: MASTER_SEED + 41,
        policy: Some(policy(fast)),
        warm_start: None,
        deadline_ms: None,
    };
    let receipt = submit_served_job(addr, &job);

    let total = receipt.cells_executed + receipt.cells_cached;
    for (problem, estimator) in receipt.report.failed_cells() {
        println!("  FAILED (quarantined server-side, never cached): {problem} / {estimator}");
    }
    let summary = plan.summarize(&receipt.report);
    print_summary(&summary, &plan.sigma_requirements());
    let artifact = SweepArtifact {
        master_seed: MASTER_SEED + 41,
        fast_mode: fast,
        matrix_threads: matrix.resolved_threads(),
        // Served runs have no local checkpoint; cache hits play the role of
        // restored cells in the artifact's status block.
        status: SweepStatus {
            total_cells: total,
            completed_cells: total,
            restored_cells: receipt.cells_cached,
            discarded_records: 0,
            pending: Vec::new(),
            failed_cells: receipt.report.failed_cells(),
        },
        sigma_requirements: plan.sigma_requirements(),
        summary,
        report: receipt.report,
    };
    write_json_artifact("SWEEP_report", &artifact);
}

fn print_status(status: &SweepStatus) {
    println!(
        "sweep status: {}/{} cells complete ({:.0}%), {} restored from checkpoint, \
         {} records discarded, {} pending",
        status.completed_cells,
        status.total_cells,
        100.0 * status.fraction_complete(),
        status.restored_cells,
        status.discarded_records,
        status.pending.len()
    );
    for (problem, estimator) in &status.failed_cells {
        println!("  FAILED (quarantined, will re-run on resume): {problem} / {estimator}");
    }
}

fn print_summary(rows: &[SweepSummaryRow], requirements: &[(String, f64)]) {
    println!(
        "\n{:<42} {:<22} {:>12} {:>7} {}",
        "scenario",
        "method",
        "P_fail",
        "sigma",
        requirements
            .iter()
            .map(|(n, s)| format!("{n} (≥{s:.2}σ)"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let margins = row
            .capacity_margins
            .iter()
            .map(|m| {
                format!(
                    "{} {:+.2}σ",
                    if m.meets { "pass" } else { "FAIL" },
                    m.margin_sigma
                )
            })
            .collect::<Vec<_>>()
            .join("  ");
        println!(
            "{:<42} {:<22} {:>12.3e} {:>7.3} {}",
            row.problem, row.estimator, row.failure_probability, row.sigma_level, margins
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let fresh = args.iter().any(|a| a == "--fresh");
    let status_only = args.iter().any(|a| a == "--status");
    let verify_resume = args.iter().any(|a| a == "--verify-resume");
    let max_cells = parse_flag_value(&args, "--max-cells")
        .map(|v| v.parse::<usize>().expect("--max-cells takes a number"));
    let checkpoint = parse_flag_value(&args, "--checkpoint")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("sweep_checkpoint.jsonl"));

    let connect = parse_flag_value(&args, "--connect");
    let warm_ab = args.iter().any(|a| a == "--warm-ab");

    let plan = plan(fast);
    let matrix = ExecutionConfig::from_env();

    if warm_ab {
        assert!(
            connect.is_none() && !fresh && !status_only && !verify_resume && max_cells.is_none(),
            "--warm-ab is incompatible with --connect and the checkpoint flags"
        );
        run_warm_ab(&matrix);
        return;
    }

    if let Some(addr) = connect {
        assert!(
            !fresh && !status_only && !verify_resume && max_cells.is_none(),
            "--connect is incompatible with the local checkpoint flags"
        );
        println!(
            "bench_sweep: {} scenarios x 5 estimators, served by {addr}",
            plan.scenarios().len()
        );
        run_served(&addr, &plan, fast, &matrix);
        return;
    }

    println!(
        "bench_sweep: {} scenarios x 5 estimators, matrix threads {}, checkpoint {}",
        plan.scenarios().len(),
        matrix.resolved_threads(),
        checkpoint.display()
    );

    if fresh {
        clear_checkpoint(&checkpoint).expect("checkpoint is clearable");
    }

    let mut runner = SweepRunner::new().matrix(matrix).checkpoint(&checkpoint);
    if let Some(budget) = max_cells {
        runner = runner.cell_budget(budget);
    }

    if status_only {
        let status = runner.status(&mut analysis(&plan, fast));
        print_status(&status);
        return;
    }

    let outcome = runner.run(&mut analysis(&plan, fast));
    print_status(&outcome.status);

    let Some(report) = outcome.report else {
        println!(
            "sweep paused by --max-cells; re-run without it to resume from {}",
            checkpoint.display()
        );
        return;
    };

    if verify_resume {
        // Prove the checkpoint-resume contract: an uninterrupted in-memory
        // run of the identical sweep must equal the (restored + fresh)
        // report bit for bit (PartialEq ignores wall-clock metadata only).
        let uninterrupted = analysis(&plan, fast).run();
        assert_eq!(
            report, uninterrupted,
            "resumed sweep diverged from the uninterrupted run"
        );
        println!(
            "verify-resume: resumed report ({} cells restored) equals the uninterrupted run",
            outcome.status.restored_cells
        );
    }

    let summary = plan.summarize(&report);
    print_summary(&summary, &plan.sigma_requirements());
    let artifact = SweepArtifact {
        master_seed: MASTER_SEED + 41,
        fast_mode: fast,
        matrix_threads: matrix.resolved_threads(),
        status: outcome.status,
        sigma_requirements: plan.sigma_requirements(),
        summary,
        report,
    };
    write_json_artifact("SWEEP_report", &artifact);
}
