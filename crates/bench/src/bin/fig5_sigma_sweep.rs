//! Figure 5 — Accuracy and cost versus sigma level.
//!
//! The specification limit of the surrogate read-access-time problem is swept
//! so that the true failure probability ranges from roughly 3σ to 5.5σ. Every
//! sweep point is registered as a named problem on one
//! [`gis_core::YieldAnalysis`] driver running Gradient IS and the minimum-norm
//! baseline to a 10% relative-error target; their estimates are compared
//! against a high-budget reference importance-sampling run. The figure shows
//! (a) the deviation from the reference and (b) the number of simulations,
//! both as a function of the sigma level.
//!
//! Run with `cargo run --release -p gis-bench --bin fig5_sigma_sweep`.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{
    print_csv, problem_with_relative_spec, scaled, surrogate_read_model, write_json_artifact,
    MASTER_SEED,
};
use gis_core::{
    run_importance_sampling, ConvergencePolicy, Estimator, Executor, GisConfig,
    GradientImportanceSampling, ImportanceSamplingConfig, MinimumNormIs, MnisConfig, Proposal,
    YieldAnalysis,
};
use gis_linalg::Vector;
use gis_stats::RngStream;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct SigmaSweepPoint {
    spec_factor: f64,
    reference_probability: f64,
    reference_sigma: f64,
    gis_probability: f64,
    gis_deviation: f64,
    gis_evaluations: u64,
    mnis_probability: f64,
    mnis_deviation: f64,
    mnis_evaluations: u64,
}

fn main() {
    let spec_factors: &[f64] = scaled(&[1.35, 1.5, 1.7, 1.9, 2.2, 2.6], &[1.5, 2.2]);
    let master = RngStream::from_seed(MASTER_SEED + 11);

    // One driver, one problem per sweep point, both methods at the production
    // accuracy target (10% relative error, 60k budget).
    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(GradientImportanceSampling::new(GisConfig::default())),
        Box::new(MinimumNormIs::new(MnisConfig::default())),
    ];
    let mut analysis = YieldAnalysis::new()
        .master_seed(MASTER_SEED + 11)
        .convergence_policy(
            ConvergencePolicy::with_budget(scaled(60_000, 10_000))
                .target_relative_error(0.1)
                .min_failures(30),
        )
        .estimators(estimators);
    for &factor in spec_factors {
        let model = surrogate_read_model();
        let nominal = model.nominal_metric();
        analysis = analysis.problem(
            format!("spec-{factor:.2}"),
            problem_with_relative_spec(model, nominal, factor),
        );
    }
    let report = analysis.run();

    let mut points = Vec::new();
    for (index, (&factor, problem_report)) in
        spec_factors.iter().zip(report.problems.iter()).enumerate()
    {
        let gis = problem_report.method("gradient-is").expect("GIS ran");
        let mnis = problem_report.method("minimum-norm-is").expect("MNIS ran");

        // Reference: a long fixed-proposal IS run centred on the MPFP the
        // gradient search located for this sweep point.
        let shift = Vector::from_slice(gis.outcome.shift().expect("GIS reports a shift"));
        let model = surrogate_read_model();
        let nominal = model.nominal_metric();
        let (reference, _) = run_importance_sampling(
            &problem_with_relative_spec(model, nominal, factor),
            &Proposal::defensive_mixture(shift, 0.1),
            &ImportanceSamplingConfig {
                max_samples: scaled(300_000, 30_000),
                batch_size: scaled(20_000, 5_000),
                target_relative_error: 0.01,
                min_failures: scaled(1_000, 100),
                ..ImportanceSamplingConfig::default()
            },
            &mut master.split((index * 10 + 1) as u64),
            &Executor::from_env(),
            "reference-is",
            0,
            None,
        );

        let deviation = |estimate: f64| {
            if reference.failure_probability > 0.0 && estimate > 0.0 {
                (estimate - reference.failure_probability).abs() / reference.failure_probability
            } else {
                f64::NAN
            }
        };
        let point = SigmaSweepPoint {
            spec_factor: factor,
            reference_probability: reference.failure_probability,
            reference_sigma: reference.sigma_level,
            gis_probability: gis.row.failure_probability,
            gis_deviation: deviation(gis.row.failure_probability),
            gis_evaluations: gis.row.evaluations,
            mnis_probability: mnis.row.failure_probability,
            mnis_deviation: deviation(mnis.row.failure_probability),
            mnis_evaluations: mnis.row.evaluations,
        };
        println!(
            "spec {:>4.2}x: sigma {:>5.2}, ref {:.3e} | GIS {:.3e} (dev {:>5.1}%, {:>6} sims) | MNIS {:.3e} (dev {:>5.1}%, {:>6} sims)",
            point.spec_factor,
            point.reference_sigma,
            point.reference_probability,
            point.gis_probability,
            point.gis_deviation * 100.0,
            point.gis_evaluations,
            point.mnis_probability,
            point.mnis_deviation * 100.0,
            point.mnis_evaluations
        );
        points.push(point);
    }

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{:.2},{:.3},{:.6e},{:.6e},{:.4},{},{:.6e},{:.4},{}",
                p.spec_factor,
                p.reference_sigma,
                p.reference_probability,
                p.gis_probability,
                p.gis_deviation,
                p.gis_evaluations,
                p.mnis_probability,
                p.mnis_deviation,
                p.mnis_evaluations
            )
        })
        .collect();
    print_csv(
        "fig5_sigma_sweep",
        "spec_factor,sigma,reference_p,gis_p,gis_deviation,gis_evals,mnis_p,mnis_deviation,mnis_evals",
        &rows,
    );
    write_json_artifact("fig5_sigma_sweep", &points);
}
