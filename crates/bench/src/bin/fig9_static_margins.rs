//! Figure 9 — Static margins of the 6T cell under variation, extracted with
//! the same framework as the dynamic characteristics.
//!
//! Reports the nominal hold/read static noise margins and the data-retention
//! voltage, a small Monte Carlo population of the read SNM, and a
//! Gradient-Importance-Sampling extraction of the read-stability failure
//! probability `P(read SNM < limit)` — demonstrating that the statistical layer
//! is metric-agnostic (dynamic and static characteristics share the estimators).
//!
//! Run with `cargo run --release -p gis-bench --bin fig9_static_margins`.

// Experiment driver: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{print_csv, scaled, write_json_artifact, MASTER_SEED};
use gis_core::{
    default_sram_variation_space, Estimator, FailureProblem, FnModel, GisConfig,
    GradientImportanceSampling, ImportanceSamplingConfig, MpfpConfig, Spec,
};
use gis_sram::{SramCellConfig, StaticAnalysis};
use gis_stats::{OnlineStats, RngStream};
use gis_variation::PelgromModel;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct StaticMarginReport {
    nominal_hold_snm: f64,
    nominal_read_snm: f64,
    data_retention_voltage: f64,
    monte_carlo_samples: u64,
    read_snm_mean: f64,
    read_snm_std: f64,
    read_snm_min: f64,
    snm_limit: f64,
    failure_probability: f64,
    sigma_level: f64,
    evaluations: u64,
}

fn main() {
    let analysis = StaticAnalysis::typical_45nm();
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());

    // Nominal static characterization.
    let hold = analysis.hold_snm(&[0.0; 6]).expect("hold SNM");
    let read = analysis.read_snm(&[0.0; 6]).expect("read SNM");
    let drv = analysis
        .data_retention_voltage(&[0.0; 6], 0.05, 0.05)
        .expect("retention voltage");
    println!("nominal hold SNM  : {:.1} mV", hold * 1e3);
    println!("nominal read SNM  : {:.1} mV", read * 1e3);
    println!("data retention Vdd: {:.2} V", drv);

    // Small Monte Carlo population of the read SNM.
    let mut rng = RngStream::from_seed(MASTER_SEED + 23);
    let mc_samples = scaled(300u64, 60);
    let mut stats = OnlineStats::new();
    let mut values = Vec::new();
    for _ in 0..mc_samples {
        let (_, deltas) = space.sample(&mut rng);
        let snm = analysis.read_snm(deltas.as_slice()).unwrap_or(0.0);
        stats.push(snm);
        values.push(snm);
    }
    println!(
        "read SNM under variation: mean {:.1} mV, sigma {:.1} mV, min {:.1} mV ({} samples)",
        stats.mean() * 1e3,
        stats.std_dev() * 1e3,
        stats.min() * 1e3,
        mc_samples
    );
    let rows: Vec<String> = values.iter().map(|v| format!("{:.5}", v)).collect();
    print_csv("fig9_read_snm_samples", "read_snm_v", &rows);

    // High-sigma extraction of P(read SNM < limit) with the shared framework.
    // The limit is placed several MC sigmas below the mean so the event is rare.
    let snm_limit = (stats.mean() - 4.5 * stats.std_dev()).max(0.005);
    let analysis_for_model = analysis.clone();
    let space_for_model = space.clone();
    let model = FnModel::new("read-snm", 6, move |z: &gis_linalg::Vector| {
        let deltas = space_for_model.to_physical(z);
        analysis_for_model
            .read_snm(deltas.as_slice())
            .unwrap_or(0.0)
    });
    let problem = FailureProblem::from_model(model, Spec::LowerLimit(snm_limit));
    let gis = GradientImportanceSampling::new(GisConfig {
        mpfp: MpfpConfig {
            max_evaluations: scaled(600, 300),
            ..MpfpConfig::default()
        },
        sampling: ImportanceSamplingConfig {
            max_samples: scaled(1_500, 500),
            batch_size: 250,
            target_relative_error: 0.2,
            min_failures: 15,
            ..ImportanceSamplingConfig::default()
        },
        ..GisConfig::default()
    });
    let outcome = gis.estimate(&problem, &mut rng);
    println!(
        "P(read SNM < {:.1} mV) = {:.3e} ({:.2} sigma) using {} DC-sweep evaluations",
        snm_limit * 1e3,
        outcome.result.failure_probability,
        outcome.result.sigma_level,
        outcome.result.evaluations
    );

    let report = StaticMarginReport {
        nominal_hold_snm: hold,
        nominal_read_snm: read,
        data_retention_voltage: drv,
        monte_carlo_samples: mc_samples,
        read_snm_mean: stats.mean(),
        read_snm_std: stats.std_dev(),
        read_snm_min: stats.min(),
        snm_limit,
        failure_probability: outcome.result.failure_probability,
        sigma_level: outcome.result.sigma_level,
        evaluations: outcome.result.evaluations,
    };
    write_json_artifact("fig9_static_margins", &report);
}
