//! Cross-method consistency: all five estimators, driven purely through
//! `dyn Estimator`, must agree with the exactly known probabilities of the
//! analytic limit states.
//!
//! This is the integration-level guarantee behind the unified API: a driver
//! that only sees trait objects gets correct estimates from every method, and
//! the `YieldAnalysis` report exposes enough information (convergence flags,
//! diagnostics) to judge each estimate.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sram_highsigma::highsigma::{
    ConvergencePolicy, Estimator, FailureProblem, GisConfig, GradientImportanceSampling,
    ImportanceSamplingConfig, LinearLimitState, MinimumNormIs, MnisConfig, MonteCarlo,
    MonteCarloConfig, QuadraticLimitState, ScaledSigmaSampling, SphericalSampling,
    SphericalSamplingConfig, SssConfig, YieldAnalysis,
};
use sram_highsigma::stats::RngStream;

/// The five methods with budgets suited to a ~3.5σ analytic validation
/// problem, boxed so the test only ever touches `dyn Estimator`.
fn validation_estimators() -> Vec<Box<dyn Estimator>> {
    let sampling = ImportanceSamplingConfig {
        max_samples: 60_000,
        batch_size: 1_000,
        target_relative_error: 0.05,
        min_failures: 50,
        ..ImportanceSamplingConfig::default()
    };
    vec![
        Box::new(GradientImportanceSampling::new(GisConfig {
            sampling: sampling.clone(),
            ..GisConfig::default()
        })),
        Box::new(MonteCarlo::new(MonteCarloConfig {
            max_samples: 3_000_000,
            batch_size: 50_000,
            target_relative_error: 0.05,
            min_failures: 100,
        })),
        Box::new(MinimumNormIs::new(MnisConfig {
            sampling,
            ..MnisConfig::default()
        })),
        Box::new(SphericalSampling::new(SphericalSamplingConfig {
            directions: 4_000,
            target_relative_error: 0.05,
            ..SphericalSamplingConfig::default()
        })),
        Box::new(ScaledSigmaSampling::new(SssConfig {
            samples_per_scale: 30_000,
            ..SssConfig::default()
        })),
    ]
}

/// Per-method accuracy tolerance (relative deviation from the exact value).
/// The boundary-mapping and extrapolation baselines carry a model error on a
/// half-space problem — exactly the weakness the paper's comparison tables
/// document — so their tolerances are wider.
fn tolerance(method: &str) -> f64 {
    match method {
        "gradient-is" => 0.15,
        "monte-carlo" => 0.15,
        "minimum-norm-is" => 0.2,
        "spherical-sampling" => 1.5,
        "scaled-sigma-sampling" => 3.0,
        other => panic!("unexpected method {other}"),
    }
}

#[test]
fn all_five_estimators_recover_the_linear_limit_state_through_dyn_estimator() {
    let limit_state = LinearLimitState::along_first_axis(4, 3.5);
    let exact = limit_state.exact_failure_probability();
    let problem = FailureProblem::from_model(limit_state, LinearLimitState::spec());

    for estimator in validation_estimators() {
        // Everything below goes through the trait object only.
        let estimator: Box<dyn Estimator> = estimator;
        let outcome = estimator.estimate(&problem.fork(), &mut RngStream::from_seed(2024));
        assert_eq!(outcome.result.method, estimator.name());
        // Spherical sampling's estimator variance on a half-space decays too
        // slowly for its stopping rule to fire within the direction budget —
        // the weakness the paper's tables document — so convergence is only
        // required of the other methods.
        if estimator.name() != "spherical-sampling" {
            assert!(
                outcome.result.converged,
                "{} did not converge",
                estimator.name()
            );
        }
        let rel = (outcome.result.failure_probability - exact).abs() / exact;
        assert!(
            rel < tolerance(estimator.name()),
            "{}: estimate {:e} deviates from exact {exact:e} by {rel:.3}",
            estimator.name(),
            outcome.result.failure_probability
        );
    }
}

#[test]
fn is_methods_recover_the_quadratic_limit_state_through_dyn_estimator() {
    // The curved boundary stresses the mean-shift methods' defensive
    // mixtures; spherical/SSS are exercised on the linear state above.
    let limit_state = QuadraticLimitState::new(5, 4.0, 0.06);
    let reference = limit_state.reference_failure_probability();
    let problem = FailureProblem::from_model(limit_state, QuadraticLimitState::spec());

    let methods: Vec<Box<dyn Estimator>> = validation_estimators()
        .into_iter()
        .filter(|e| matches!(e.name(), "gradient-is" | "minimum-norm-is"))
        .collect();
    assert_eq!(methods.len(), 2);
    for estimator in methods {
        let outcome = estimator.estimate(&problem.fork(), &mut RngStream::from_seed(77));
        let rel = (outcome.result.failure_probability - reference).abs() / reference;
        assert!(
            rel < 0.3,
            "{}: curved-boundary estimate {:e} deviates from reference {reference:e} by {rel:.3}",
            estimator.name(),
            outcome.result.failure_probability
        );
    }
}

/// The analytic problem shared by the driver test and its replay step
/// (fresh evaluation counter each call).
fn linear_validation_problem() -> FailureProblem {
    FailureProblem::from_model(
        LinearLimitState::along_first_axis(4, 3.5),
        LinearLimitState::spec(),
    )
}

#[test]
fn yield_analysis_driver_reproduces_the_comparison_end_to_end() {
    let limit_state = LinearLimitState::along_first_axis(4, 3.5);
    let exact = limit_state.exact_failure_probability();

    let report = YieldAnalysis::new()
        .master_seed(20180319)
        .problem(
            "linear-3.5-sigma",
            FailureProblem::from_model(limit_state, LinearLimitState::spec()),
        )
        .estimators(validation_estimators())
        .run();

    let problem_report = report.problem("linear-3.5-sigma").expect("problem ran");
    assert_eq!(problem_report.methods.len(), 5);
    for method in &problem_report.methods {
        let rel = (method.row.failure_probability - exact).abs() / exact;
        assert!(
            rel < tolerance(&method.estimator),
            "{}: driver estimate {:e} deviates from exact {exact:e} by {rel:.3}",
            method.estimator,
            method.row.failure_probability
        );
        // The recorded seed reproduces the outcome in isolation.
        let replay: Vec<Box<dyn Estimator>> = validation_estimators()
            .into_iter()
            .filter(|e| e.name() == method.estimator)
            .collect();
        let replayed = replay[0].estimate(
            &linear_validation_problem(),
            &mut RngStream::from_seed(method.seed),
        );
        assert_eq!(
            replayed.result.failure_probability, method.row.failure_probability,
            "{}: replay from recorded seed diverged",
            method.estimator
        );
    }
}

#[test]
fn uniform_policy_caps_every_method_in_the_driver() {
    let report = YieldAnalysis::new()
        .master_seed(5)
        .convergence_policy(
            ConvergencePolicy::with_budget(8_000)
                .target_relative_error(0.2)
                .min_failures(10),
        )
        .problem(
            "linear-3-sigma",
            FailureProblem::from_model(
                LinearLimitState::along_first_axis(3, 3.0),
                LinearLimitState::spec(),
            ),
        )
        .estimators(validation_estimators())
        .run();
    for method in &report.problems[0].methods {
        assert!(
            method.outcome.result.sampling_evaluations <= 8_000 + 32,
            "{} ignored the policy budget: {}",
            method.estimator,
            method.outcome.result.sampling_evaluations
        );
    }
}
