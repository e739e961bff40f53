//! Evaluation-engine performance harness.
//!
//! Runs every estimator on the four canonical problem classes (linear limit
//! state, quadratic limit state, transient SRAM read, transient SRAM write)
//! twice — once strictly serial, once at the configured thread count — and
//! records wall-time, evaluations/second, and the parallel speedup. The
//! determinism contract of the batched evaluation engine is asserted on the
//! way: both runs must produce bit-identical estimates and identical
//! evaluation counts.
//!
//! For the transient problems the harness additionally runs the **dense
//! reference kernel** serially and asserts that every estimator's failure
//! probability is bit-identical to the sparse production kernel — the
//! end-to-end guarantee of the sparse/workspace solver — and records the
//! kernel-vs-kernel speedup in the `*_dense` fields.
//!
//! The workload per method is pinned (no early stopping), so all runs of one
//! method perform exactly the same work and every speedup column is a clean
//! wall-clock ratio.
//!
//! Output: `BENCH_evaluation.json` at the workspace root.
//!
//! Run with `cargo run --release -p gis-bench --bin bench_evaluation`
//! (`-- --fast` for a CI smoke run with reduced budgets). The parallel thread
//! count comes from `GIS_THREADS`, falling back to the machine's available
//! parallelism (capped at 8).

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{
    problem_with_relative_spec, transient_model_with_kernel, workspace_root, MASTER_SEED,
};
use gis_core::{
    standard_estimators, ConvergencePolicy, EstimatorOutcome, ExecutionConfig, FailureProblem,
    LinearLimitState, QuadraticLimitState, SramMetric, TransientKernel, YieldAnalysis,
};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct BenchEntry {
    problem: String,
    method: String,
    /// Production solver kernel under the model: "sparse" for the transient
    /// problems, "none" for analytic models with no circuit kernel. The
    /// dense reference kernel never gets rows of its own; its serial
    /// throughput lives in the `*_dense` fields of the sparse entries.
    kernel: String,
    /// Worker threads of the parallel run.
    threads: usize,
    /// Metric evaluations performed (identical in both runs).
    evaluations: u64,
    /// Failure-probability estimate (bit-identical in both runs).
    failure_probability: f64,
    wall_time_seconds_1thread: f64,
    wall_time_seconds: f64,
    evaluations_per_second_1thread: f64,
    evaluations_per_second: f64,
    /// Wall-clock ratio serial / parallel.
    speedup_vs_1thread: f64,
    /// Whether the serial and parallel runs agreed bit for bit (must be true;
    /// recorded so a regression is visible in the artifact).
    bit_identical_across_threads: bool,
    /// Dense-reference-kernel serial throughput (transient problems only).
    evaluations_per_second_dense: Option<f64>,
    /// Serial wall-clock ratio dense kernel / sparse kernel.
    speedup_vs_dense_kernel: Option<f64>,
    /// Whether the dense kernel reproduced the failure probability bit for
    /// bit (asserted; recorded for the artifact trail).
    bit_identical_vs_dense_kernel: Option<bool>,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    master_seed: u64,
    threads: usize,
    /// Physical parallelism of the machine the bench ran on. Speedups are
    /// bounded by this: on a single-core host `speedup_vs_1thread` hovers
    /// around 1.0 regardless of the configured thread count.
    available_parallelism: usize,
    fast_mode: bool,
    entries: Vec<BenchEntry>,
}

/// One benchmark problem plus the fixed evaluation budget its methods run to.
struct BenchProblem {
    name: &'static str,
    problem: FailureProblem,
    /// Same workload on the dense reference kernel, where applicable.
    dense_problem: Option<FailureProblem>,
    kernel: &'static str,
    budget: u64,
}

fn transient_bench(name: &'static str, metric: SramMetric, fast: bool) -> BenchProblem {
    let sparse = transient_model_with_kernel(metric, TransientKernel::Sparse);
    let nominal = sparse.nominal_metric();
    let dense = transient_model_with_kernel(metric, TransientKernel::Dense);
    BenchProblem {
        name,
        // 1.3x the nominal metric: failures are reachable by every method
        // within a small simulation budget.
        problem: problem_with_relative_spec(sparse, nominal, 1.3),
        dense_problem: Some(problem_with_relative_spec(dense, nominal, 1.3)),
        kernel: "sparse",
        budget: if fast { 160 } else { 2_000 },
    }
}

fn bench_problems(fast: bool) -> Vec<BenchProblem> {
    vec![
        BenchProblem {
            name: "linear-6d-4sigma",
            problem: FailureProblem::from_model(
                LinearLimitState::along_first_axis(6, 4.0),
                LinearLimitState::spec(),
            ),
            dense_problem: None,
            kernel: "none",
            budget: if fast { 5_000 } else { 50_000 },
        },
        BenchProblem {
            name: "quadratic-6d",
            problem: FailureProblem::from_model(
                QuadraticLimitState::new(6, 4.0, 0.05),
                QuadraticLimitState::spec(),
            ),
            dense_problem: None,
            kernel: "none",
            budget: if fast { 5_000 } else { 50_000 },
        },
        transient_bench("sram-transient-read", SramMetric::ReadAccessTime, fast),
        transient_bench("sram-transient-write", SramMetric::WriteDelay, fast),
    ]
}

/// Runs all estimators on one problem at a fixed thread count. The policy
/// disables early stopping (unreachable accuracy target) so every run
/// performs the identical, budget-pinned workload.
fn run_all(
    name: &str,
    problem: &FailureProblem,
    budget: u64,
    threads: usize,
) -> Vec<(String, EstimatorOutcome, f64)> {
    let report = YieldAnalysis::new()
        .master_seed(MASTER_SEED + 29)
        .convergence_policy(
            ConvergencePolicy::with_budget(budget)
                .target_relative_error(1e-12)
                .min_failures(u64::MAX),
        )
        .execution(ExecutionConfig::with_threads(threads))
        .problem(name, problem.fork())
        .estimators(standard_estimators())
        .run();
    report.problems[0]
        .methods
        .iter()
        .map(|m| {
            (
                m.estimator.clone(),
                m.outcome.clone(),
                m.row.wall_time_seconds,
            )
        })
        .collect()
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // An explicit GIS_THREADS wins outright (even when lower than the core
    // count); only an unset/invalid variable falls back to the machine's
    // parallelism, capped at 8.
    let threads = gis_core::exec::threads_from_env().unwrap_or_else(|| available.min(8));
    println!(
        "bench_evaluation: {threads} threads vs 1 thread \
         ({available} cores available, fast = {fast})"
    );

    let mut entries = Vec::new();
    for bench in bench_problems(fast) {
        let serial = run_all(bench.name, &bench.problem, bench.budget, 1);
        let parallel = run_all(bench.name, &bench.problem, bench.budget, threads);
        // Dense reference kernel: same seeds, same budget, serial.
        let dense = bench
            .dense_problem
            .as_ref()
            .map(|p| run_all(bench.name, p, bench.budget, 1));
        for (index, ((method, outcome_1, wall_1), (_, outcome_n, wall_n))) in
            serial.into_iter().zip(parallel).enumerate()
        {
            let identical = outcome_1.result.failure_probability.to_bits()
                == outcome_n.result.failure_probability.to_bits()
                && outcome_1.result.evaluations == outcome_n.result.evaluations
                && outcome_1.result.failures_observed == outcome_n.result.failures_observed;
            assert!(
                identical,
                "{}/{method}: parallel run diverged from the serial run",
                bench.name
            );
            let evaluations = outcome_1.result.evaluations;

            let mut dense_rate = None;
            let mut dense_speedup = None;
            let mut dense_identical = None;
            if let Some(dense_runs) = &dense {
                let (dense_method, dense_outcome, dense_wall) = &dense_runs[index];
                assert_eq!(*dense_method, method, "kernel run ordering diverged");
                let matches = dense_outcome.result.failure_probability.to_bits()
                    == outcome_1.result.failure_probability.to_bits()
                    && dense_outcome.result.evaluations == evaluations;
                assert!(
                    matches,
                    "{}/{method}: dense kernel diverged from the sparse kernel \
                     ({:e} vs {:e})",
                    bench.name,
                    dense_outcome.result.failure_probability,
                    outcome_1.result.failure_probability,
                );
                dense_rate = Some(evaluations as f64 / dense_wall.max(1e-12));
                dense_speedup = Some(dense_wall / wall_1.max(1e-12));
                dense_identical = Some(matches);
            }

            let entry = BenchEntry {
                problem: bench.name.to_string(),
                method,
                kernel: bench.kernel.to_string(),
                threads,
                evaluations,
                failure_probability: outcome_1.result.failure_probability,
                wall_time_seconds_1thread: wall_1,
                wall_time_seconds: wall_n,
                evaluations_per_second_1thread: evaluations as f64 / wall_1.max(1e-12),
                evaluations_per_second: evaluations as f64 / wall_n.max(1e-12),
                speedup_vs_1thread: wall_1 / wall_n.max(1e-12),
                bit_identical_across_threads: identical,
                evaluations_per_second_dense: dense_rate,
                speedup_vs_dense_kernel: dense_speedup,
                bit_identical_vs_dense_kernel: dense_identical,
            };
            match entry.speedup_vs_dense_kernel {
                Some(dense_speedup) => println!(
                    "{:<22} {:<22} {:>8} evals | 1T {:>8.3}s | {}T {:>8.3}s | vs dense {:>5.2}x",
                    entry.problem,
                    entry.method,
                    entry.evaluations,
                    entry.wall_time_seconds_1thread,
                    entry.threads,
                    entry.wall_time_seconds,
                    dense_speedup
                ),
                None => println!(
                    "{:<22} {:<22} {:>8} evals | 1T {:>8.3}s | {}T {:>8.3}s | speedup {:>5.2}x",
                    entry.problem,
                    entry.method,
                    entry.evaluations,
                    entry.wall_time_seconds_1thread,
                    entry.threads,
                    entry.wall_time_seconds,
                    entry.speedup_vs_1thread
                ),
            }
            entries.push(entry);
        }
    }

    let report = BenchReport {
        master_seed: MASTER_SEED + 29,
        threads,
        available_parallelism: available,
        fast_mode: fast,
        entries,
    };
    let path = workspace_root().join("BENCH_evaluation.json");
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    std::fs::write(&path, json).expect("bench report is writable");
    println!("[artifact] {}", path.display());
}
