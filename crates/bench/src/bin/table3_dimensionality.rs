//! Table 3 — Scaling of each method with the number of variation parameters.
//!
//! The 6 cell transistors are augmented with padded peripheral parameters
//! (column mux, sense amplifier, write driver devices sharing the path) to
//! produce problems of dimension 6, 12, 24 and 48. Every method runs against
//! the same accuracy target on the surrogate model; the table reports the
//! number of simulations each needed (or spent before giving up).
//!
//! Run with `cargo run --release -p gis-bench --bin table3_dimensionality`.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{problem_with_relative_spec, scaled, write_json_artifact, MASTER_SEED};
use gis_core::{
    default_sram_variation_space, Estimator, GisConfig, GradientImportanceSampling,
    ImportanceSamplingConfig, MinimumNormIs, MnisConfig, SphericalSampling,
    SphericalSamplingConfig, SramMetric, SramSurrogateModel,
};
use gis_sram::{SramCellConfig, SramSurrogate};
use gis_stats::RngStream;
use gis_variation::PelgromModel;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct DimensionalityRow {
    dimension: usize,
    method: String,
    failure_probability: f64,
    sigma_level: f64,
    evaluations: u64,
    converged: bool,
}

fn padded_model(extra: usize) -> SramSurrogateModel {
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    SramSurrogateModel::new(
        SramSurrogate::typical_45nm(),
        space,
        SramMetric::ReadAccessTime,
    )
    .with_padded_dimensions(extra, 0.02)
}

fn main() {
    let spec_factor = 2.0;
    let dimensions: &[usize] = scaled(&[6, 12, 24, 48], &[6, 12]);
    let master = RngStream::from_seed(MASTER_SEED + 3);
    let mut rows: Vec<DimensionalityRow> = Vec::new();

    println!(
        "{:<6} {:<20} {:>12} {:>8} {:>12} {:>10}",
        "dim", "method", "P_fail", "sigma", "#sims", "converged"
    );

    for (index, &dim) in dimensions.iter().enumerate() {
        let extra = dim - 6;
        let model = padded_model(extra);
        let nominal = model.nominal_metric();
        let problem = problem_with_relative_spec(model, nominal, spec_factor);

        // Gradient IS.
        {
            let fork = problem.fork();
            let gis = GradientImportanceSampling::new(GisConfig {
                sampling: ImportanceSamplingConfig {
                    max_samples: scaled(100_000, 10_000),
                    batch_size: 1_000,
                    target_relative_error: 0.1,
                    min_failures: 30,
                    ..ImportanceSamplingConfig::default()
                },
                ..GisConfig::default()
            });
            let outcome = gis.estimate(&fork, &mut master.split((index * 10 + 1) as u64));
            rows.push(DimensionalityRow {
                dimension: dim,
                method: "gradient-is".to_string(),
                failure_probability: outcome.result.failure_probability,
                sigma_level: outcome.result.sigma_level,
                evaluations: outcome.result.evaluations,
                converged: outcome.result.converged,
            });
        }

        // Minimum-norm IS: presampling cost grows with dimension.
        {
            let fork = problem.fork();
            let mnis = MinimumNormIs::new(MnisConfig {
                presamples_per_round: 1_000 * (dim / 6).max(1),
                presample_scales: vec![2.0, 2.5, 3.0, 3.5],
                sampling: ImportanceSamplingConfig {
                    max_samples: scaled(100_000, 10_000),
                    batch_size: 1_000,
                    target_relative_error: 0.1,
                    min_failures: 30,
                    ..ImportanceSamplingConfig::default()
                },
                ..MnisConfig::default()
            });
            let result = mnis
                .estimate(&fork, &mut master.split((index * 10 + 2) as u64))
                .result;
            rows.push(DimensionalityRow {
                dimension: dim,
                method: "minimum-norm-is".to_string(),
                failure_probability: result.failure_probability,
                sigma_level: result.sigma_level,
                evaluations: result.evaluations,
                converged: result.converged,
            });
        }

        // Spherical sampling: the failing cone shrinks with dimension.
        {
            let fork = problem.fork();
            let spherical = SphericalSampling::new(SphericalSamplingConfig {
                directions: scaled(3_000, 300),
                max_radius: 8.0,
                bisection_steps: 12,
                target_relative_error: 0.1,
                min_failing_directions: 10,
            });
            let result = spherical
                .estimate(&fork, &mut master.split((index * 10 + 3) as u64))
                .result;
            rows.push(DimensionalityRow {
                dimension: dim,
                method: "spherical-sampling".to_string(),
                failure_probability: result.failure_probability,
                sigma_level: result.sigma_level,
                evaluations: result.evaluations,
                converged: result.converged,
            });
        }

        for row in rows.iter().filter(|r| r.dimension == dim) {
            println!(
                "{:<6} {:<20} {:>12.4e} {:>8.3} {:>12} {:>10}",
                row.dimension,
                row.method,
                row.failure_probability,
                row.sigma_level,
                row.evaluations,
                row.converged
            );
        }
    }

    write_json_artifact("table3_dimensionality", &rows);
}
