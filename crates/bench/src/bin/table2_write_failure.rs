//! Table 2 — Write-failure extraction on the transient 6T testbench.
//!
//! Same comparison as Table 1, but the dynamic characteristic is the write
//! delay: the time from the wordline half-rise until the cell actually flips.
//! A sample fails when that delay exceeds the specification (a fraction of the
//! wordline pulse width); samples whose cell never flips are censored at the
//! simulation window and therefore always fail.
//!
//! All four methods run through the unified [`gis_core::YieldAnalysis`]
//! driver, which derives a deterministic seed per method from the master seed.
//!
//! Run with `cargo run --release -p gis-bench --bin table2_write_failure`.
//! With `--connect HOST:PORT` the identical configuration — custom testbench
//! timing included — is shipped to a running `gis-serve` daemon instead, and
//! the returned rows are bit-identical to the local path.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{
    connect_addr, print_comparison_table, problem_with_relative_spec, scaled, submit_served_job,
    write_json_artifact, MASTER_SEED,
};
use gis_core::{
    default_sram_variation_space, GisConfig, ImportanceSamplingConfig, MnisConfig,
    SphericalSamplingConfig, SramMetric, SramTransientModel, SssConfig, YieldAnalysis,
};
use gis_serve::{EstimatorSpec, JobSpec, ProblemSpec};
use gis_sram::{SramCellConfig, SramTestbench, TestbenchTiming};
use gis_variation::PelgromModel;

fn main() {
    let spec_factor = 3.0;
    // The nominal write completes within a couple of picoseconds of the
    // wordline rise, so the write-delay measurement needs a finer integration
    // step than the read testbench to resolve the specification boundary.
    let cell = SramCellConfig::typical_45nm();
    let timing = TestbenchTiming {
        time_step: 1e-12,
        stop_time: 1.5e-9,
        ..TestbenchTiming::default()
    };
    let testbench =
        SramTestbench::new(cell.clone(), timing.clone()).expect("valid write testbench");
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    let model = SramTransientModel::new(testbench, space, SramMetric::WriteDelay);
    let nominal = model.nominal_metric();
    println!("nominal write delay: {:.4e} s", nominal);
    println!(
        "specification (upper limit): {:.4e} s ({spec_factor}x nominal)",
        nominal * spec_factor
    );

    let sampling = ImportanceSamplingConfig {
        max_samples: scaled(6_000, 300),
        batch_size: scaled(250, 100),
        target_relative_error: 0.1,
        min_failures: scaled(30, 10),
        ..ImportanceSamplingConfig::default()
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
                presamples_per_round: scaled(1_000, 250),
                presample_scales: vec![2.0, 2.5, 3.0],
                sampling,
                ..MnisConfig::default()
            },
        },
        EstimatorSpec::SphericalSampling {
            config: SphericalSamplingConfig {
                directions: scaled(150, 25),
                max_radius: 8.0,
                bisection_steps: 12,
                target_relative_error: 0.1,
                min_failing_directions: scaled(10, 5),
            },
        },
        EstimatorSpec::ScaledSigmaSampling {
            config: SssConfig {
                scales: scaled(vec![1.6, 2.0, 2.4, 2.8, 3.2], vec![1.6, 2.4, 3.2]),
                samples_per_scale: scaled(800, 120),
                min_failures_per_scale: scaled(10, 5),
            },
        },
    ];

    let report = if let Some(addr) = connect_addr() {
        let job = JobSpec {
            problem: ProblemSpec::TransientSram {
                metric: SramMetric::WriteDelay,
                spec_factor,
                timing: Some(timing),
            },
            estimators,
            master_seed: MASTER_SEED + 2,
            policy: None,
            warm_start: None,
            deadline_ms: None,
        };
        submit_served_job(&addr, &job).report
    } else {
        YieldAnalysis::new()
            .master_seed(MASTER_SEED + 2)
            .problem(
                "write-delay",
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
        "Table 2: 6T write-failure extraction (transient testbench)",
        &rows,
    );
    println!(
        "\nBrute-force Monte Carlo reference cost (10% rel. error) at the GIS estimate: {:.3e} simulations",
        gis_core::required_samples(rows[0].failure_probability.clamp(1e-12, 0.5), 0.1)
    );
    write_json_artifact("table2_write_failure", &report);
}
