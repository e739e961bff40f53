//! End-to-end integration tests of the full stack: variation model → SRAM
//! testbench / surrogate → failure problem → extraction.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sram_highsigma::highsigma::{
    default_sram_variation_space, Estimator, Executor, FailureProblem, GisConfig,
    GradientImportanceSampling, GradientMpfpSearch, ImportanceSamplingConfig, MonteCarlo,
    MonteCarloConfig, MpfpConfig, Spec, SramMetric, SramSurrogateModel, SramTransientModel,
};
use sram_highsigma::linalg::Vector;
use sram_highsigma::sram::{
    CellTransistor, SramCellConfig, SramSurrogate, SramTestbench, TestbenchTiming,
};
use sram_highsigma::stats::RngStream;
use sram_highsigma::variation::PelgromModel;

fn surrogate_model(metric: SramMetric) -> SramSurrogateModel {
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    SramSurrogateModel::new(SramSurrogate::typical_45nm(), space, metric)
}

#[test]
fn gis_agrees_with_brute_force_at_moderate_sigma_on_surrogate() {
    // A loose spec (1.25x nominal) puts the failure probability around 1e-2 to
    // 1e-3, where brute-force Monte Carlo is cheap enough to serve as ground
    // truth for the whole surrogate-backed pipeline.
    let model = surrogate_model(SramMetric::ReadAccessTime);
    let nominal = model.nominal_metric();
    let problem = FailureProblem::from_model(model, Spec::UpperLimit(1.25 * nominal));

    let mc = MonteCarlo::new(MonteCarloConfig {
        max_samples: 400_000,
        batch_size: 20_000,
        target_relative_error: 0.05,
        min_failures: 100,
    });
    let mc_result = mc
        .estimate(&problem.fork(), &mut RngStream::from_seed(1))
        .result;
    assert!(
        mc_result.failures_observed >= 100,
        "spec too tight for the MC reference"
    );

    let gis = GradientImportanceSampling::new(GisConfig {
        sampling: ImportanceSamplingConfig {
            max_samples: 40_000,
            batch_size: 1_000,
            target_relative_error: 0.05,
            min_failures: 50,
            ..ImportanceSamplingConfig::default()
        },
        ..GisConfig::default()
    });
    let gis_outcome = gis.estimate(&problem.fork(), &mut RngStream::from_seed(2));

    let mc_p = mc_result.failure_probability;
    let gis_p = gis_outcome.result.failure_probability;
    let rel = (gis_p - mc_p).abs() / mc_p;
    assert!(
        rel < 0.2,
        "GIS ({gis_p:e}) and brute-force MC ({mc_p:e}) disagree by {rel:.2}"
    );
}

#[test]
fn high_sigma_read_extraction_on_surrogate_is_consistent_and_cheap() {
    // A 1.6x-nominal spec puts the true failure probability in the 4σ–5σ range
    // for the default Pelgrom mismatch — squarely "high sigma" yet still
    // resolvable with tight confidence by the default GIS budget.
    let model = surrogate_model(SramMetric::ReadAccessTime);
    let nominal = model.nominal_metric();
    let problem = FailureProblem::from_model(model, Spec::UpperLimit(1.6 * nominal));

    let gis = GradientImportanceSampling::new(GisConfig::default());
    let outcome = gis.estimate(&problem, &mut RngStream::from_seed(3));
    assert!(
        outcome.result.converged,
        "GIS did not converge: {:?}",
        outcome.result
    );
    // The failure probability must be genuinely high-sigma for this spec.
    assert!(outcome.result.failure_probability < 1e-3);
    assert!(outcome.result.failure_probability > 1e-12);
    assert!(outcome.result.sigma_level > 3.0);
    // And the extraction must be cheap.
    assert!(outcome.result.evaluations < 100_000);
    // The MPFP must point towards a weaker read path (positive shifts on the
    // pass-gate / pull-down parameters).
    let shift = outcome.shift().unwrap().to_vec();
    assert!(
        shift[CellTransistor::PassGateLeft.index()] > 0.0
            || shift[CellTransistor::PullDownLeft.index()] > 0.0,
        "MPFP direction {shift:?} does not weaken the read path"
    );
}

#[test]
fn write_and_disturb_metrics_are_extractable() {
    for metric in [SramMetric::WriteDelay, SramMetric::ReadDisturb] {
        let model = surrogate_model(metric);
        let nominal = model.nominal_metric();
        let spec = match metric {
            SramMetric::WriteDelay => Spec::UpperLimit(3.0 * nominal),
            SramMetric::ReadDisturb => Spec::UpperLimit(0.5),
            SramMetric::ReadAccessTime => unreachable!(),
        };
        let problem = FailureProblem::from_model(model, spec);
        let gis = GradientImportanceSampling::new(GisConfig {
            sampling: ImportanceSamplingConfig {
                max_samples: 60_000,
                batch_size: 1_000,
                target_relative_error: 0.1,
                min_failures: 30,
                ..ImportanceSamplingConfig::default()
            },
            ..GisConfig::default()
        });
        let outcome = gis.estimate(&problem, &mut RngStream::from_seed(7));
        assert!(
            outcome.result.failure_probability > 0.0,
            "{metric:?}: no failures found"
        );
        assert!(
            outcome.result.sigma_level > 2.0,
            "{metric:?}: spec not in the tail (sigma {})",
            outcome.result.sigma_level
        );
    }
}

#[test]
fn transient_and_surrogate_rank_variation_directions_identically() {
    // The surrogate is only useful if it agrees with the transient testbench on
    // *which* variations hurt. Check the sign and ordering of the sensitivity
    // of the read access time on a few probe points.
    let tb = SramTestbench::typical_45nm();
    let surrogate = SramSurrogate::calibrated_to(&tb).expect("calibration succeeds");
    let probe = 0.08; // 80 mV, ≈ 2 sigma of the pass-gate mismatch

    for which in [CellTransistor::PassGateLeft, CellTransistor::PullDownLeft] {
        let mut deltas = [0.0; 6];
        deltas[which.index()] = probe;
        let slow_tb = tb.read(&deltas).unwrap().access_time;
        let slow_sur = surrogate.read_access_time(&deltas);
        let nominal_tb = tb.read(&[0.0; 6]).unwrap().access_time;
        let nominal_sur = surrogate.read_access_time(&[0.0; 6]);
        assert!(slow_tb > nominal_tb, "{which:?}: transient not slower");
        assert!(slow_sur > nominal_sur, "{which:?}: surrogate not slower");
    }
    // A weaker pull-up barely matters for the read path in either model.
    let mut deltas = [0.0; 6];
    deltas[CellTransistor::PullUpLeft.index()] = probe;
    let tb_change =
        (tb.read(&deltas).unwrap().access_time - tb.read(&[0.0; 6]).unwrap().access_time).abs()
            / tb.read(&[0.0; 6]).unwrap().access_time;
    assert!(
        tb_change < 0.2,
        "pull-up should be a second-order effect, saw {tb_change}"
    );
}

#[test]
fn gis_runs_against_the_full_transient_simulator() {
    // Smoke-level budget: every evaluation is a real backward-Euler transient,
    // so keep the counts small but exercise the complete path.
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    let model = SramTransientModel::new(
        SramTestbench::typical_45nm(),
        space,
        SramMetric::ReadAccessTime,
    );
    let nominal = model.nominal_metric();
    assert!(nominal > 0.0 && nominal < 2e-9);

    let problem = FailureProblem::from_model(model, Spec::UpperLimit(1.6 * nominal));
    let gis = GradientImportanceSampling::new(GisConfig {
        mpfp: MpfpConfig {
            max_evaluations: 400,
            max_iterations: 25,
            ..MpfpConfig::default()
        },
        sampling: ImportanceSamplingConfig {
            max_samples: 400,
            batch_size: 100,
            target_relative_error: 0.3,
            min_failures: 10,
            ..ImportanceSamplingConfig::default()
        },
        ..GisConfig::default()
    });
    let outcome = gis.estimate(&problem, &mut RngStream::from_seed(13));
    assert!(outcome.result.evaluations > 0);
    assert!(outcome.result.failure_probability >= 0.0);
    assert!(outcome.mpfp().unwrap().beta > 0.0);
    // The proposal shift must describe a weakened read path, as with the surrogate.
    let shift = Vector::from_slice(outcome.shift().unwrap());
    assert!(shift.norm() > 1.0);
}

/// Runs the default gradient MPFP search on table 2's write testbench (1 ps
/// step, 1.5 ns window) at 2.0×, 2.5× and 3.0× the nominal write delay, once
/// per seed, serially. Every search must converge, and per spec the β values
/// must agree within 0.05 across seeds. Write-delay margins are in seconds,
/// so their gradients are around 1e-12 s/σ: a plateau test that is not
/// relative to the margin mistakes them for flat ground and random-walks.
fn assert_write_mpfp_search_converges(seeds: std::ops::RangeInclusive<u64>) {
    let cell = SramCellConfig::typical_45nm();
    let timing = TestbenchTiming {
        time_step: 1e-12,
        stop_time: 1.5e-9,
        ..TestbenchTiming::default()
    };
    let model = SramTransientModel::new(
        SramTestbench::new(cell.clone(), timing).unwrap(),
        default_sram_variation_space(&cell, &PelgromModel::typical_45nm()),
        SramMetric::WriteDelay,
    );
    let nominal = model.nominal_metric();
    let search = GradientMpfpSearch::new(MpfpConfig::default());
    for spec_factor in [2.0, 2.5, 3.0] {
        let problem =
            FailureProblem::from_model(model.clone(), Spec::UpperLimit(spec_factor * nominal));
        let betas: Vec<f64> = seeds
            .clone()
            .map(|seed| {
                let result = search.search_on(
                    &problem.fork(),
                    &mut RngStream::from_seed(seed),
                    &Executor::serial(),
                );
                assert!(
                    result.converged,
                    "write search at {spec_factor}x spec, seed {seed}: β {} after {} iterations",
                    result.beta, result.iterations
                );
                result.beta
            })
            .collect();
        let spread = betas.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - betas.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            spread <= 0.05,
            "write β spread {spread} at {spec_factor}x spec: {betas:?}"
        );
    }
}

#[test]
fn write_mpfp_search_converges() {
    assert_write_mpfp_search_converges(1..=2);
}

/// The same check on ten seeds; run with
/// `cargo test --release --test sram_end_to_end -- --ignored`.
#[test]
#[ignore = "30 write MPFP searches; run in release with --ignored"]
fn write_mpfp_search_converges_on_ten_seeds() {
    assert_write_mpfp_search_converges(1..=10);
}

#[test]
fn spec_helpers_are_consistent_with_metrics() {
    let model = surrogate_model(SramMetric::ReadAccessTime);
    let nominal = model.nominal_metric();
    let spec = Spec::UpperLimit(1.5 * nominal);
    // The nominal design passes its own spec.
    assert!(!spec.is_failure(nominal));
    assert!(spec.failure_margin(nominal) < 0.0);
    // A metric beyond the limit fails.
    assert!(spec.is_failure(2.0 * nominal));
    // Evaluating through the problem counts simulations.
    let problem = FailureProblem::from_model(model, spec);
    let z = Vector::zeros(problem.dim());
    assert!(!problem.is_failure(&z));
    assert_eq!(problem.evaluations(), 1);
}
