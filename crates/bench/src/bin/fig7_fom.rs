//! Figure 7 — Figure of merit (1 / (ρ²·N)) versus the number of simulations.
//!
//! The figure of merit normalizes estimator efficiency by cost, so methods can
//! be compared independently of where they were stopped. The series are
//! derived from the convergence traces of each method on the surrogate
//! read-access-time problem; a higher, flatter curve is better.
//!
//! Run with `cargo run --release -p gis-bench --bin fig7_fom`.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{
    print_csv, problem_with_relative_spec, scaled, surrogate_read_model, write_json_artifact,
    MASTER_SEED,
};
use gis_core::{
    figure_of_merit, Estimator, GisConfig, GradientImportanceSampling, ImportanceSamplingConfig,
    MinimumNormIs, MnisConfig, MonteCarlo, MonteCarloConfig, SphericalSampling,
    SphericalSamplingConfig,
};
use gis_stats::RngStream;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct FomSeries {
    method: String,
    evaluations: Vec<u64>,
    figure_of_merit: Vec<f64>,
}

fn fom_series(method: &str, trace: &[gis_core::ConvergencePoint]) -> FomSeries {
    let evaluations: Vec<u64> = trace.iter().map(|p| p.evaluations).collect();
    let fom: Vec<f64> = trace
        .iter()
        .map(|p| figure_of_merit(p.relative_error, p.evaluations))
        .collect();
    let rows: Vec<String> = evaluations
        .iter()
        .zip(fom.iter())
        .map(|(n, f)| format!("{n},{f:.6e}"))
        .collect();
    print_csv(
        &format!("fig7_fom_{method}"),
        "evaluations,figure_of_merit",
        &rows,
    );
    FomSeries {
        method: method.to_string(),
        evaluations,
        figure_of_merit: fom,
    }
}

fn main() {
    let model = surrogate_read_model();
    let nominal = model.nominal_metric();
    let base = problem_with_relative_spec(model, nominal, 1.8);
    let master = RngStream::from_seed(MASTER_SEED + 13);
    let mut all = Vec::new();

    let sampling = ImportanceSamplingConfig {
        max_samples: scaled(40_000, 4_000),
        batch_size: 500,
        target_relative_error: 0.02,
        min_failures: 50,
        ..ImportanceSamplingConfig::default()
    };

    {
        let gis = GradientImportanceSampling::new(GisConfig {
            sampling: sampling.clone(),
            ..GisConfig::default()
        });
        let outcome = gis.estimate(&base.fork(), &mut master.split(1));
        all.push(fom_series("gradient-is", &outcome.result.trace));
    }
    {
        let mnis = MinimumNormIs::new(MnisConfig {
            sampling: sampling.clone(),
            ..MnisConfig::default()
        });
        let result = mnis.estimate(&base.fork(), &mut master.split(2)).result;
        all.push(fom_series("minimum-norm-is", &result.trace));
    }
    {
        let spherical = SphericalSampling::new(SphericalSamplingConfig {
            directions: scaled(3_000, 300),
            target_relative_error: 0.02,
            ..SphericalSamplingConfig::default()
        });
        let result = spherical
            .estimate(&base.fork(), &mut master.split(3))
            .result;
        all.push(fom_series("spherical-sampling", &result.trace));
    }
    {
        let mc = MonteCarlo::new(MonteCarloConfig {
            max_samples: scaled(200_000, 20_000),
            batch_size: 10_000,
            target_relative_error: 0.02,
            min_failures: 10,
        });
        let result = mc.estimate(&base.fork(), &mut master.split(4)).result;
        all.push(fom_series("monte-carlo", &result.trace));
    }

    println!("\nfinal figures of merit (higher is better):");
    for series in &all {
        let last = series.figure_of_merit.last().copied().unwrap_or(0.0);
        let evals = series.evaluations.last().copied().unwrap_or(0);
        println!(
            "{:<24} {:>12.3e}  (after {} sims)",
            series.method, last, evals
        );
    }

    write_json_artifact("fig7_fom", &all);
}
