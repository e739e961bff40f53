//! Figure 4 — Convergence of the failure-probability estimate versus the
//! number of simulations for each method.
//!
//! All methods attack the same surrogate read-access-time problem through the
//! unified [`gis_core::YieldAnalysis`] driver. The printed series (one CSV
//! block per method) show the running estimate and its relative error as a
//! function of cumulative simulator calls; the reference line is a long
//! fixed-proposal importance-sampling run centred on the MPFP the gradient
//! search found.
//!
//! Run with `cargo run --release -p gis-bench --bin fig4_convergence`.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{
    print_csv, problem_with_relative_spec, scaled, surrogate_read_model, write_json_artifact,
    MASTER_SEED,
};
use gis_core::{
    run_importance_sampling, Estimator, Executor, GisConfig, GradientImportanceSampling,
    ImportanceSamplingConfig, MinimumNormIs, MnisConfig, MonteCarlo, MonteCarloConfig, Proposal,
    ScaledSigmaSampling, SphericalSampling, SphericalSamplingConfig, SssConfig, YieldAnalysis,
};
use gis_linalg::Vector;
use gis_stats::RngStream;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ConvergenceSeries {
    method: String,
    evaluations: Vec<u64>,
    estimates: Vec<f64>,
    relative_errors: Vec<f64>,
    /// The method's final reported estimate (for scaled-sigma sampling this is
    /// the extrapolated value, not the last raw trace point).
    final_estimate: f64,
}

fn series_from_trace(
    method: &str,
    trace: &[gis_core::ConvergencePoint],
    final_estimate: f64,
) -> ConvergenceSeries {
    ConvergenceSeries {
        method: method.to_string(),
        evaluations: trace.iter().map(|p| p.evaluations).collect(),
        estimates: trace.iter().map(|p| p.estimate).collect(),
        relative_errors: trace.iter().map(|p| p.relative_error).collect(),
        final_estimate,
    }
}

fn print_series(series: &ConvergenceSeries) {
    let rows: Vec<String> = series
        .evaluations
        .iter()
        .zip(series.estimates.iter())
        .zip(series.relative_errors.iter())
        .map(|((n, p), r)| format!("{n},{p:.6e},{r:.4}"))
        .collect();
    print_csv(
        &format!("fig4_convergence_{}", series.method),
        "evaluations,estimate,relative_error",
        &rows,
    );
}

fn main() {
    let spec_factor = 1.8;
    let model = surrogate_read_model();
    let nominal = model.nominal_metric();
    let base = problem_with_relative_spec(model, nominal, spec_factor);
    let master = RngStream::from_seed(MASTER_SEED + 7);

    // The convergence-focused budgets differ per method, so each estimator is
    // registered with its own configuration rather than a uniform policy.
    let sampling = ImportanceSamplingConfig {
        max_samples: scaled(50_000, 5_000),
        batch_size: 500,
        target_relative_error: 0.02,
        min_failures: 50,
        ..ImportanceSamplingConfig::default()
    };
    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(GradientImportanceSampling::new(GisConfig {
            sampling: sampling.clone(),
            ..GisConfig::default()
        })),
        Box::new(MinimumNormIs::new(MnisConfig {
            sampling,
            ..MnisConfig::default()
        })),
        Box::new(SphericalSampling::new(SphericalSamplingConfig {
            directions: scaled(3_000, 300),
            target_relative_error: 0.02,
            ..SphericalSamplingConfig::default()
        })),
        Box::new(ScaledSigmaSampling::new(SssConfig {
            samples_per_scale: scaled(10_000, 1_000),
            ..SssConfig::default()
        })),
        // Brute-force Monte Carlo will not converge at this sigma level; its
        // trace demonstrates why.
        Box::new(MonteCarlo::new(MonteCarloConfig {
            max_samples: scaled(200_000, 20_000),
            batch_size: 10_000,
            target_relative_error: 0.1,
            min_failures: 10,
        })),
    ];

    let report = YieldAnalysis::new()
        .master_seed(MASTER_SEED + 7)
        .problem("surrogate-read", base.fork())
        .estimators(estimators)
        .run();
    let problem_report = &report.problems[0];

    // Reference value: a long importance-sampling run centred on the MPFP the
    // gradient search found (200k samples).
    let reference = {
        let shift = Vector::from_slice(
            problem_report
                .method("gradient-is")
                .and_then(|m| m.outcome.shift())
                .expect("GIS reports a shift"),
        );
        let long_problem = base.fork();
        let (result, _) = run_importance_sampling(
            &long_problem,
            &Proposal::defensive_mixture(shift, 0.1),
            &ImportanceSamplingConfig {
                max_samples: scaled(200_000, 20_000),
                batch_size: scaled(10_000, 2_000),
                target_relative_error: 0.01,
                min_failures: scaled(500, 50),
                ..ImportanceSamplingConfig::default()
            },
            &mut master.split(100),
            &Executor::from_env(),
            "reference-is",
            0,
            None,
        );
        result.failure_probability
    };
    println!("reference P_fail = {reference:.4e} (long importance-sampling run)");

    let mut all_series = Vec::new();
    for method in &problem_report.methods {
        let series = series_from_trace(
            &method.estimator,
            &method.outcome.result.trace,
            method.outcome.result.failure_probability,
        );
        print_series(&series);
        all_series.push(series);
    }

    for s in &all_series {
        let final_estimate = s.final_estimate;
        let final_evals = s.evaluations.last().copied().unwrap_or(0);
        let error_vs_reference = if reference > 0.0 && final_estimate > 0.0 {
            (final_estimate - reference).abs() / reference
        } else {
            f64::NAN
        };
        println!(
            "{:<24} final estimate {:.4e} after {:>8} sims (deviation from reference: {:.1}%)",
            s.method,
            final_estimate,
            final_evals,
            error_vs_reference * 100.0
        );
    }

    write_json_artifact("fig4_convergence", &all_series);
}
