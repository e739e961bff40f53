//! Figure 8 / Table 4 — Ablation of the Gradient Importance Sampling design
//! choices.
//!
//! Each row disables or re-tunes one ingredient of GIS and measures the impact
//! on accuracy (deviation from a long reference run) and cost (simulations to
//! the 10% target) on the surrogate read-access-time problem:
//!
//! * pure mean shift (no defensive component),
//! * no adaptive re-centring,
//! * bridge component on/off,
//! * finite-difference step size of the gradient,
//! * defensive-mixture weight.
//!
//! Run with `cargo run --release -p gis-bench --bin fig8_ablation`.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{
    print_csv, problem_with_relative_spec, scaled, surrogate_read_model, write_json_artifact,
    MASTER_SEED,
};
use gis_core::{
    run_importance_sampling, Estimator, Executor, GisConfig, GradientImportanceSampling,
    ImportanceSamplingConfig, MpfpConfig, Proposal,
};
use gis_linalg::Vector;
use gis_stats::RngStream;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct AblationRow {
    variant: String,
    failure_probability: f64,
    deviation_from_reference: f64,
    relative_confidence_90: f64,
    evaluations: u64,
    effective_sample_size: f64,
    converged: bool,
}

fn base_sampling() -> ImportanceSamplingConfig {
    ImportanceSamplingConfig {
        max_samples: scaled(40_000, 4_000),
        batch_size: 500,
        target_relative_error: 0.1,
        min_failures: 30,
        ..ImportanceSamplingConfig::default()
    }
}

fn main() {
    let model = surrogate_read_model();
    let nominal = model.nominal_metric();
    let base = problem_with_relative_spec(model, nominal, 1.8);
    let master = RngStream::from_seed(MASTER_SEED + 17);

    // Reference from a long run.
    let reference = {
        let gis = GradientImportanceSampling::new(GisConfig::default());
        let outcome = gis.estimate(&base.fork(), &mut master.split(999));
        let shift = Vector::from_slice(outcome.shift().expect("GIS reports a shift"));
        let (result, _) = run_importance_sampling(
            &base.fork(),
            &Proposal::defensive_mixture(shift, 0.1),
            &ImportanceSamplingConfig {
                max_samples: scaled(300_000, 30_000),
                batch_size: scaled(20_000, 5_000),
                target_relative_error: 0.01,
                min_failures: scaled(1_000, 100),
                ..ImportanceSamplingConfig::default()
            },
            &mut master.split(1000),
            &Executor::from_env(),
            "reference-is",
            0,
            None,
        );
        result.failure_probability
    };
    println!("reference P_fail = {reference:.4e}");

    let variants: Vec<(&str, GisConfig)> = vec![
        ("default", GisConfig::default()),
        (
            "pure-mean-shift",
            GisConfig {
                defensive_fraction: 0.0,
                ..GisConfig::default()
            },
        ),
        (
            "no-adaptation",
            GisConfig {
                adaptive_recentering: false,
                ..GisConfig::default()
            },
        ),
        (
            "bridge-mixture",
            GisConfig {
                bridge_fraction: 0.25,
                bridge_position: 0.75,
                ..GisConfig::default()
            },
        ),
        (
            "coarse-gradient-step",
            GisConfig {
                mpfp: MpfpConfig {
                    finite_difference_step: 0.5,
                    ..MpfpConfig::default()
                },
                ..GisConfig::default()
            },
        ),
        (
            "fine-gradient-step",
            GisConfig {
                mpfp: MpfpConfig {
                    finite_difference_step: 0.01,
                    ..MpfpConfig::default()
                },
                ..GisConfig::default()
            },
        ),
        (
            "heavy-defensive-0.3",
            GisConfig {
                defensive_fraction: 0.3,
                ..GisConfig::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    println!(
        "{:<24} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "variant", "P_fail", "dev[%]", "rel90[%]", "#sims", "ESS", "converged"
    );
    for (index, (name, mut config)) in variants.into_iter().enumerate() {
        config.sampling = base_sampling();
        let gis = GradientImportanceSampling::new(config);
        let outcome = gis.estimate(&base.fork(), &mut master.split(index as u64));
        let deviation = if reference > 0.0 {
            (outcome.result.failure_probability - reference).abs() / reference
        } else {
            f64::NAN
        };
        let row = AblationRow {
            variant: name.to_string(),
            failure_probability: outcome.result.failure_probability,
            deviation_from_reference: deviation,
            relative_confidence_90: outcome.result.relative_confidence_90(),
            evaluations: outcome.result.evaluations,
            effective_sample_size: outcome
                .is_diagnostics()
                .map(|d| d.effective_sample_size)
                .unwrap_or(0.0),
            converged: outcome.result.converged,
        };
        println!(
            "{:<24} {:>12.4e} {:>10.1} {:>10.1} {:>10} {:>10.1} {:>10}",
            row.variant,
            row.failure_probability,
            row.deviation_from_reference * 100.0,
            row.relative_confidence_90 * 100.0,
            row.evaluations,
            row.effective_sample_size,
            row.converged
        );
        rows.push(row);
    }

    let csv_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{:.6e},{:.4},{:.4},{},{:.1},{}",
                r.variant,
                r.failure_probability,
                r.deviation_from_reference,
                r.relative_confidence_90,
                r.evaluations,
                r.effective_sample_size,
                r.converged
            )
        })
        .collect();
    print_csv(
        "fig8_ablation",
        "variant,p_fail,deviation,rel90,evaluations,ess,converged",
        &csv_rows,
    );
    write_json_artifact("fig8_ablation", &rows);
}
