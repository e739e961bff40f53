//! Table 1 — Read-access-time failure extraction on the transient 6T testbench.
//!
//! Compares the proposed Gradient Importance Sampling against the minimum-norm
//! IS, spherical-sampling and scaled-sigma-sampling baselines on the same
//! failure problem: the read access time of the 45 nm 6T cell exceeding its
//! specification (a fixed multiple of the nominal access time). Every method is
//! charged for all simulator calls it makes, including its search phase.
//!
//! All four methods run through the unified [`gis_core::YieldAnalysis`]
//! driver, which derives a deterministic seed per method from the master seed.
//!
//! Run with `cargo run --release -p gis-bench --bin table1_read_failure`.
//! With `--connect HOST:PORT` the identical configuration is shipped to a
//! running `gis-serve` daemon instead (the estimator configs below travel
//! over the wire in full fidelity), and the returned rows are bit-identical
//! to the local path.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{
    connect_addr, print_comparison_table, problem_with_relative_spec, scaled, submit_served_job,
    transient_model, write_json_artifact, MASTER_SEED,
};
use gis_core::{
    GisConfig, ImportanceSamplingConfig, MnisConfig, SphericalSamplingConfig, SramMetric,
    SssConfig, YieldAnalysis,
};
use gis_serve::{EstimatorSpec, JobSpec, ProblemSpec};

fn main() {
    let spec_factor = 2.0;
    let model = transient_model(SramMetric::ReadAccessTime);
    let nominal = model.nominal_metric();
    println!("nominal read access time: {:.4e} s", nominal);
    println!(
        "specification (upper limit): {:.4e} s ({spec_factor}x nominal)",
        nominal * spec_factor
    );

    let sampling = ImportanceSamplingConfig {
        corrected_stopping: true,
        max_samples: scaled(4_000, 400),
        batch_size: scaled(250, 100),
        target_relative_error: 0.1,
        min_failures: scaled(30, 10),
    };
    // One spec list drives both paths: built locally for a direct run,
    // shipped verbatim to the daemon in thin-client mode.
    let estimators = vec![
        EstimatorSpec::GradientIs {
            config: GisConfig {
                sampling: sampling.clone(),
                ..GisConfig::default()
            },
        },
        EstimatorSpec::MinimumNormIs {
            config: MnisConfig {
                presamples_per_round: scaled(1_500, 300),
                presample_scales: vec![2.0, 2.5, 3.0],
                sampling,
                ..MnisConfig::default()
            },
        },
        EstimatorSpec::SphericalSampling {
            config: SphericalSamplingConfig {
                corrected_stopping: true,
                directions: scaled(200, 30),
                max_radius: 8.0,
                bisection_steps: 12,
                target_relative_error: 0.1,
                min_failing_directions: scaled(10, 5),
            },
        },
        EstimatorSpec::ScaledSigmaSampling {
            config: SssConfig {
                scales: scaled(vec![1.6, 2.0, 2.4, 2.8, 3.2], vec![1.6, 2.4, 3.2]),
                samples_per_scale: scaled(1_600, 150),
                min_failures_per_scale: scaled(10, 5),
            },
        },
    ];

    let report = if let Some(addr) = connect_addr() {
        let job = JobSpec {
            problem: ProblemSpec::TransientSram {
                metric: SramMetric::ReadAccessTime,
                spec_factor,
                timing: None,
            },
            estimators,
            master_seed: MASTER_SEED,
            policy: None,
            warm_start: None,
            deadline_ms: None,
        };
        submit_served_job(&addr, &job).report
    } else {
        YieldAnalysis::new()
            .master_seed(MASTER_SEED)
            .problem(
                "read-access-time",
                problem_with_relative_spec(model, nominal, spec_factor),
            )
            .estimators(estimators.iter().map(|spec| spec.build()).collect())
            .run()
    };

    let problem_report = &report.problems[0];
    if let Some(mpfp) = problem_report
        .method("gradient-is")
        .and_then(|m| m.outcome.mpfp())
    {
        println!(
            "[gradient-is] MPFP beta = {:.3} sigma after {} search simulations",
            mpfp.beta, mpfp.evaluations
        );
    }
    if let Some(search) = problem_report
        .method("minimum-norm-is")
        .and_then(|m| m.outcome.search())
    {
        println!(
            "[minimum-norm-is] search beta = {:.3} sigma after {} simulations",
            search.beta, search.evaluations
        );
    }
    if let Some(points) = problem_report
        .method("scaled-sigma-sampling")
        .and_then(|m| m.outcome.scale_points())
    {
        for p in points {
            println!(
                "[scaled-sigma] s = {:.1}: {} / {} failures (P = {:.3e})",
                p.scale, p.failures, p.samples, p.probability
            );
        }
    }

    let rows = problem_report.rows();
    print_comparison_table(
        "Table 1: 6T read-access-time failure (transient testbench)",
        &rows,
    );
    println!(
        "\nBrute-force Monte Carlo reference cost (10% rel. error) at the GIS estimate: {:.3e} simulations",
        gis_core::required_samples(rows[0].failure_probability.clamp(1e-12, 0.5), 0.1)
    );
    write_json_artifact("table1_read_failure", &report);
}
