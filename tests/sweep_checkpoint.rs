//! Integration tests of the sweep orchestration subsystem: the matrix
//! scheduler's bit-identity contract against the sequential driver, and the
//! checkpoint/resume contract (a killed-and-resumed sweep reproduces the
//! uninterrupted report exactly).

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sram_highsigma::highsigma::sweep::clear_checkpoint;
use sram_highsigma::highsigma::{
    standard_estimators, ConvergencePolicy, ExecutionConfig, FailureProblem, LinearLimitState,
    QuadraticLimitState, SweepPlan, SweepRunner, YieldAnalysis,
};
use sram_highsigma::variation::GlobalCorner;
use std::path::PathBuf;

/// A small but non-trivial matrix: 3 problems (two analytic families) × all
/// 5 estimators = 15 cells, cheap budgets.
fn analysis() -> YieldAnalysis {
    YieldAnalysis::new()
        .master_seed(20180319)
        .convergence_policy(
            ConvergencePolicy::with_budget(3_000)
                .target_relative_error(0.1)
                .min_failures(10),
        )
        .problem(
            "linear-3s",
            FailureProblem::from_model(
                LinearLimitState::along_first_axis(4, 3.0),
                LinearLimitState::spec(),
            ),
        )
        .problem(
            "linear-4s",
            FailureProblem::from_model(
                LinearLimitState::along_first_axis(4, 4.0),
                LinearLimitState::spec(),
            ),
        )
        .problem(
            "quadratic",
            FailureProblem::from_model(
                QuadraticLimitState::new(4, 3.0, 0.05),
                QuadraticLimitState::spec(),
            ),
        )
        .estimators(standard_estimators())
}

fn temp_checkpoint(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gis_sweep_integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    clear_checkpoint(&path).expect("clearable");
    path
}

#[test]
fn matrix_parallel_sweep_is_bit_identical_to_sequential_run() {
    // The acceptance contract: the matrix-dispatched report equals the
    // sequential `YieldAnalysis::run` path bit for bit at matrix thread
    // counts 1, 2 and 8 (and regardless of GIS_THREADS, which only feeds the
    // within-estimator executors — exercised by the CI's GIS_THREADS=1/4
    // runs of this very test).
    let sequential = analysis().run();
    for threads in [1, 2, 8] {
        let via_runner = SweepRunner::new()
            .matrix(ExecutionConfig::with_threads(threads))
            .run(&mut analysis());
        assert!(via_runner.status.is_complete());
        assert_eq!(
            via_runner.report.expect("complete"),
            sequential,
            "SweepRunner diverged at {threads} matrix threads"
        );
    }
}

#[test]
fn killed_sweep_resumes_to_the_exact_uninterrupted_report() {
    let path = temp_checkpoint("kill_resume.jsonl");
    let uninterrupted = analysis().run();

    // "Kill" the sweep twice mid-run via cell budgets (5 cells, then 5 more
    // of the 15), at different matrix thread counts for good measure.
    for (budget, threads) in [(5, 2), (5, 1)] {
        let partial = SweepRunner::new()
            .matrix(ExecutionConfig::with_threads(threads))
            .checkpoint(&path)
            .cell_budget(budget)
            .run(&mut analysis());
        assert!(partial.report.is_none(), "budgeted run must stay partial");
        assert!(!partial.status.is_complete());
    }

    // Progress is visible without running anything.
    let status = SweepRunner::new().checkpoint(&path).status(&mut analysis());
    assert_eq!(status.total_cells, 15);
    assert_eq!(status.completed_cells, 10);
    assert_eq!(status.pending.len(), 5);

    // The final resume completes the matrix and reproduces the uninterrupted
    // report exactly (PartialEq; wall-clock metadata excluded by design).
    let resumed = SweepRunner::new()
        .matrix(ExecutionConfig::with_threads(4))
        .checkpoint(&path)
        .run(&mut analysis());
    assert!(resumed.status.is_complete());
    assert_eq!(resumed.status.restored_cells, 10);
    assert_eq!(resumed.report.expect("complete"), uninterrupted);

    // A second full run is now a pure restore: zero fresh cells.
    let restored = SweepRunner::new().checkpoint(&path).run(&mut analysis());
    assert_eq!(restored.status.restored_cells, 15);
    assert_eq!(restored.report.expect("complete"), uninterrupted);
    clear_checkpoint(&path).expect("clearable");
}

#[test]
fn truncated_checkpoint_tail_is_survived() {
    let path = temp_checkpoint("truncated.jsonl");
    let uninterrupted = analysis().run();

    let partial = SweepRunner::new()
        .checkpoint(&path)
        .cell_budget(7)
        .run(&mut analysis());
    assert_eq!(partial.status.completed_cells, 7);

    // Simulate a kill mid-append: chop the file in the middle of its last
    // line.
    let contents = std::fs::read(&path).expect("checkpoint readable");
    std::fs::write(&path, &contents[..contents.len() - 40]).expect("truncatable");

    let resumed = SweepRunner::new().checkpoint(&path).run(&mut analysis());
    assert!(resumed.status.is_complete());
    // The torn record is discarded and its cell re-ran; the other six
    // restore.
    assert_eq!(resumed.status.restored_cells, 6);
    assert_eq!(resumed.status.discarded_records, 1);
    assert_eq!(resumed.report.expect("complete"), uninterrupted);
    clear_checkpoint(&path).expect("clearable");
}

#[test]
fn reseeded_analysis_ignores_the_whole_checkpoint() {
    let path = temp_checkpoint("reseeded.jsonl");
    let done = SweepRunner::new().checkpoint(&path).run(&mut analysis());
    assert!(done.status.is_complete());

    // Same problems, different master seed: every stored cell is stale, and
    // the re-run must equal a fresh run under the new seed.
    let mut reseeded = analysis().master_seed(42);
    let status = SweepRunner::new().checkpoint(&path).status(&mut reseeded);
    assert_eq!(status.restored_cells, 0);
    assert_eq!(status.discarded_records, 15);

    let fresh = analysis().master_seed(42).run();
    let rerun = SweepRunner::new()
        .checkpoint(&path)
        .run(&mut analysis().master_seed(42));
    assert_eq!(rerun.status.restored_cells, 0);
    assert_eq!(rerun.report.expect("complete"), fresh);
    clear_checkpoint(&path).expect("clearable");
}

#[test]
fn scenario_sweep_plan_end_to_end() {
    // A 2-scenario plan through the full runner, with capacity targets
    // summarized — the production shape of the subsystem, minus the grid
    // size.
    let plan = SweepPlan::new()
        .corners([GlobalCorner::TypicalTypical, GlobalCorner::SlowSlow])
        .capacity_target("1Mb", 1 << 20, 0, 0.99);
    let mut analysis = plan
        .analysis()
        .master_seed(9)
        .convergence_policy(ConvergencePolicy::with_budget(2_000))
        .estimators(standard_estimators());
    let outcome = SweepRunner::new()
        .matrix(ExecutionConfig::with_threads(2))
        .run(&mut analysis);
    let report = outcome.report.expect("complete");
    assert_eq!(report.problems.len(), 2);
    let rows = plan.summarize(&report);
    assert_eq!(rows.len(), 2 * 5);
    for row in &rows {
        assert_eq!(row.capacity_margins.len(), 1);
        assert_eq!(row.capacity_margins[0].target, "1Mb");
        assert!(row.capacity_margins[0].required_sigma > 4.0);
        assert_eq!(
            row.capacity_margins[0].meets,
            row.capacity_margins[0].margin_sigma >= 0.0
        );
    }
}
