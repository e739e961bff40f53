//! Side-by-side comparison of every extraction method in the library.
//!
//! All five estimators attack the same problem — the surrogate read-access-time
//! failure at roughly 4.5σ — with comparable budgets, driven by the unified
//! [`YieldAnalysis`] API: the estimators are registered as `Box<dyn Estimator>`,
//! a uniform convergence policy caps every method's budget, and each method's
//! RNG stream is derived deterministically from one master seed. The example
//! prints a table in the style of the paper's evaluation: estimate, sigma
//! level, confidence, simulator calls and speed-up versus brute-force Monte
//! Carlo.
//!
//! Run with `cargo run --release --example method_comparison`.
//!
//! [`YieldAnalysis`]: sram_highsigma::highsigma::YieldAnalysis

// Example code: abort-on-error keeps the walkthrough linear.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sram_highsigma::highsigma::{
    default_sram_variation_space, ComparisonRow, ConvergencePolicy, Estimator, ExecutionConfig,
    FailureProblem, GisConfig, GradientImportanceSampling, MinimumNormIs, MnisConfig, MonteCarlo,
    MonteCarloConfig, ScaledSigmaSampling, Spec, SphericalSampling, SphericalSamplingConfig,
    SramMetric, SramSurrogateModel, SssConfig, YieldAnalysis,
};
use sram_highsigma::sram::{SramCellConfig, SramSurrogate};
use sram_highsigma::variation::PelgromModel;

fn build_problem() -> FailureProblem {
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    let model = SramSurrogateModel::new(
        SramSurrogate::typical_45nm(),
        space,
        SramMetric::ReadAccessTime,
    );
    let nominal = model.nominal_metric();
    FailureProblem::from_model(model, Spec::UpperLimit(2.0 * nominal))
}

fn print_row(row: &ComparisonRow) {
    println!(
        "{:<24} {:>12.3e} {:>8.2} {:>10.1} {:>12} {:>10.0} {:>10}",
        row.method,
        row.failure_probability,
        row.sigma_level,
        row.relative_confidence_90 * 100.0,
        row.evaluations,
        row.speedup_vs_monte_carlo,
        row.converged
    );
}

fn main() {
    println!("problem: surrogate 6T read access time > 2.0x nominal");
    println!(
        "\n{:<24} {:>12} {:>8} {:>10} {:>12} {:>10} {:>10}",
        "method", "P_fail", "sigma", "+/-90% [%]", "#sims", "speedup", "converged"
    );

    // All five methods behind the same trait, each with its own budget (the
    // IS methods keep their 50k defaults; Monte Carlo gets 500k). The second
    // table below shows the same line-up under one uniform policy instead.
    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(GradientImportanceSampling::new(GisConfig::default())),
        Box::new(MinimumNormIs::new(MnisConfig::default())),
        Box::new(SphericalSampling::new(SphericalSamplingConfig {
            directions: 1_000,
            ..SphericalSamplingConfig::default()
        })),
        Box::new(ScaledSigmaSampling::new(SssConfig {
            samples_per_scale: 4_000,
            ..SssConfig::default()
        })),
        // Brute-force Monte Carlo with a 500k budget: demonstrates why it
        // cannot reach high sigma.
        Box::new(MonteCarlo::new(MonteCarloConfig {
            max_samples: 500_000,
            batch_size: 50_000,
            target_relative_error: 0.1,
            min_failures: 10,
        })),
    ];

    // Parallelism is picked once on the driver (here: the GIS_THREADS
    // environment variable, serial by default). Per the determinism contract
    // of the evaluation engine, the thread count never changes the estimates —
    // only the wall-clock.
    let report = YieldAnalysis::new()
        .master_seed(2018)
        .execution(ExecutionConfig::from_env())
        .problem("surrogate-read", build_problem())
        .estimators(estimators)
        .run();

    for row in report.problems[0].rows() {
        print_row(&row);
    }

    // The same comparison under one uniform budget, via the convergence
    // policy: every estimator is capped at 20k sampling evaluations.
    println!("\nsame line-up under a uniform 20k-evaluation policy:");
    let report = YieldAnalysis::new()
        .master_seed(2018)
        .convergence_policy(
            ConvergencePolicy::with_budget(20_000)
                .target_relative_error(0.1)
                .min_failures(30),
        )
        .problem("surrogate-read", build_problem())
        .estimators(sram_highsigma::highsigma::standard_estimators())
        .run();
    for row in report.problems[0].rows() {
        print_row(&row);
    }

    println!(
        "\nnote: speed-up is measured against the analytical brute-force cost for 10% relative error\n      at each method's own estimate; `NaN` means the method produced no usable estimate."
    );
}
