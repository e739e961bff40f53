//! Determinism contract of the batched evaluation engine.
//!
//! Three guarantees are asserted end to end:
//!
//! 1. **Batched ≡ scalar** — `evaluate_batch` / the `FailureProblem` batch
//!    methods produce bit-identical metrics (and identical evaluation counts)
//!    to the point-by-point path, including the session-backed transient SRAM
//!    override.
//! 2. **Thread-count invariance** — every estimator produces bit-identical
//!    estimates, evaluation counts and traces at 1, 2 and 8 worker threads
//!    (`GIS_THREADS=1,2,8` resolve to exactly these executors).
//! 3. **Driver invariance** — whole `YieldAnalysis` reports compare equal
//!    across thread counts.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sram_highsigma::highsigma::{
    default_sram_variation_space, standard_estimators, ConvergencePolicy, Estimator,
    ExecutionConfig, Executor, FailureProblem, GisConfig, GradientImportanceSampling,
    ImportanceSamplingConfig, LinearLimitState, MinimumNormIs, MnisConfig, MonteCarlo,
    MonteCarloConfig, PerformanceModel, QuadraticLimitState, ScaledSigmaSampling,
    SphericalSampling, SphericalSamplingConfig, SramMetric, SramTransientModel, SssConfig,
    YieldAnalysis,
};
use sram_highsigma::linalg::Vector;
use sram_highsigma::sram::{SramCellConfig, SramTestbench};
use sram_highsigma::stats::RngStream;
use sram_highsigma::variation::PelgromModel;

fn quick_estimators() -> Vec<Box<dyn Estimator>> {
    let sampling = ImportanceSamplingConfig {
        max_samples: 8_000,
        batch_size: 500,
        target_relative_error: 0.05,
        min_failures: 30,
        ..ImportanceSamplingConfig::default()
    };
    vec![
        Box::new(GradientImportanceSampling::new(GisConfig {
            sampling: sampling.clone(),
            ..GisConfig::default()
        })),
        Box::new(MonteCarlo::new(MonteCarloConfig {
            max_samples: 40_000,
            batch_size: 2_000,
            target_relative_error: 0.05,
            min_failures: 20,
        })),
        Box::new(MinimumNormIs::new(MnisConfig {
            presamples_per_round: 1_000,
            sampling,
            ..MnisConfig::default()
        })),
        Box::new(SphericalSampling::new(SphericalSamplingConfig {
            directions: 400,
            ..SphericalSamplingConfig::default()
        })),
        Box::new(ScaledSigmaSampling::new(SssConfig {
            samples_per_scale: 2_000,
            ..SssConfig::default()
        })),
    ]
}

#[test]
fn every_estimator_is_bit_identical_across_thread_counts() {
    let problem = FailureProblem::from_model(
        QuadraticLimitState::new(4, 3.2, 0.05),
        QuadraticLimitState::spec(),
    );
    for mut estimator in quick_estimators() {
        estimator.set_execution(ExecutionConfig::serial());
        let reference = estimator.estimate(&problem.fork(), &mut RngStream::from_seed(314));
        for threads in [2, 8] {
            estimator.set_execution(ExecutionConfig::with_threads(threads));
            let run = estimator.estimate(&problem.fork(), &mut RngStream::from_seed(314));
            assert_eq!(
                run.result.failure_probability.to_bits(),
                reference.result.failure_probability.to_bits(),
                "{}: estimate diverged at {threads} threads",
                estimator.name()
            );
            assert_eq!(run.result.evaluations, reference.result.evaluations);
            assert_eq!(
                run.result.failures_observed,
                reference.result.failures_observed
            );
            assert_eq!(run.result.trace, reference.result.trace);
            assert_eq!(run.diagnostics, reference.diagnostics);
        }
    }
}

#[test]
fn chunk_size_does_not_change_estimates() {
    // The estimators pin their randomness to the sequential caller stream, so
    // even the chunk size (which does shape `Executor::map_rng` substreams) is
    // irrelevant to their output.
    let problem = FailureProblem::from_model(
        LinearLimitState::along_first_axis(5, 3.0),
        LinearLimitState::spec(),
    );
    let run = |chunk: usize| {
        MonteCarlo::new(MonteCarloConfig::with_budget(30_000))
            .with_execution(ExecutionConfig::with_threads(3).with_chunk_size(chunk))
            .estimate(&problem.fork(), &mut RngStream::from_seed(55))
            .result
    };
    let reference = run(32);
    for chunk in [1, 7, 1024] {
        assert_eq!(run(chunk), reference, "diverged at chunk size {chunk}");
    }
}

#[test]
fn yield_analysis_reports_are_equal_across_thread_counts() {
    let run = |execution: ExecutionConfig| {
        YieldAnalysis::new()
            .master_seed(20180319)
            .convergence_policy(
                ConvergencePolicy::with_budget(6_000)
                    .target_relative_error(0.1)
                    .min_failures(20),
            )
            .execution(execution)
            .problem(
                "linear",
                FailureProblem::from_model(
                    LinearLimitState::along_first_axis(4, 3.5),
                    LinearLimitState::spec(),
                ),
            )
            .problem(
                "quadratic",
                FailureProblem::from_model(
                    QuadraticLimitState::new(4, 3.0, 0.08),
                    QuadraticLimitState::spec(),
                ),
            )
            .estimators(standard_estimators())
            .run()
    };
    let serial = run(ExecutionConfig::serial());
    let two = run(ExecutionConfig::with_threads(2));
    let eight = run(ExecutionConfig::with_threads(8));
    assert_eq!(serial, two);
    assert_eq!(serial, eight);
    // The execution metadata still reflects each run's configuration.
    assert_eq!(serial.problems[0].methods[0].row.threads, 1);
    assert_eq!(eight.problems[0].methods[0].row.threads, 8);
}

#[test]
fn transient_sram_batch_path_matches_scalar_path() {
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    for metric in [SramMetric::ReadAccessTime, SramMetric::WriteDelay] {
        let model = SramTransientModel::new(SramTestbench::typical_45nm(), space.clone(), metric);
        let mut rng = RngStream::from_seed(404);
        let points: Vec<Vector> = (0..4).map(|_| rng.standard_normal_vector(6)).collect();
        let scalar: Vec<f64> = points.iter().map(|z| model.evaluate(z)).collect();
        let batched = model.evaluate_batch(&points);
        for (s, b) in scalar.iter().zip(&batched) {
            assert_eq!(s.to_bits(), b.to_bits(), "{metric:?} batch diverged");
        }

        // Through the problem layer with an executor: same values, same count.
        let problem = FailureProblem::from_model(
            SramTransientModel::new(SramTestbench::typical_45nm(), space.clone(), metric),
            sram_highsigma::highsigma::Spec::UpperLimit(f64::INFINITY),
        );
        let on_threads = problem.metrics_batch_on(&Executor::new(4).with_chunk_size(2), &points);
        assert_eq!(problem.evaluations(), points.len() as u64);
        for (s, b) in scalar.iter().zip(&on_threads) {
            assert_eq!(s.to_bits(), b.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn executor_map_is_thread_invariant(
        values in prop::collection::vec(-50.0f64..50.0, 1..200),
        threads in 1usize..9,
        chunk in 1usize..40,
    ) {
        let exec = Executor::new(threads).with_chunk_size(chunk);
        let serial: Vec<f64> = values.iter().map(|x| (x * 1.7).sin() + x * x).collect();
        let mapped = exec.map(&values, |x| (x * 1.7).sin() + x * x);
        prop_assert_eq!(serial, mapped);
    }

    #[test]
    fn executor_map_rng_is_thread_invariant(
        seed in 0u64..u64::MAX,
        count in 1usize..120,
        threads in 2usize..9,
    ) {
        let rng = RngStream::from_seed(seed);
        let reference = Executor::serial()
            .with_chunk_size(16)
            .map_rng(&rng, count, |s, _| s.standard_normal());
        let parallel = Executor::new(threads)
            .with_chunk_size(16)
            .map_rng(&rng, count, |s, _| s.standard_normal());
        for (a, b) in reference.iter().zip(&parallel) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn monte_carlo_thread_invariance_over_dims_and_seeds(
        dim in 1usize..8,
        seed in 0u64..10_000,
        threads in 2usize..9,
    ) {
        let problem = FailureProblem::from_model(
            LinearLimitState::along_first_axis(dim, 2.0),
            LinearLimitState::spec(),
        );
        let serial = MonteCarlo::new(MonteCarloConfig::with_budget(4_000))
            .with_execution(ExecutionConfig::serial())
            .estimate(&problem.fork(), &mut RngStream::from_seed(seed))
            .result;
        let parallel = MonteCarlo::new(MonteCarloConfig::with_budget(4_000))
            .with_execution(ExecutionConfig::with_threads(threads))
            .estimate(&problem.fork(), &mut RngStream::from_seed(seed))
            .result;
        prop_assert_eq!(
            serial.failure_probability.to_bits(),
            parallel.failure_probability.to_bits()
        );
        prop_assert_eq!(serial.evaluations, parallel.evaluations);
    }

    #[test]
    fn batch_metrics_match_scalar_metrics(
        dim in 1usize..7,
        seed in 0u64..10_000,
        count in 1usize..60,
        threads in 1usize..5,
    ) {
        let problem = FailureProblem::from_model(
            QuadraticLimitState::new(dim, 2.5, 0.04),
            QuadraticLimitState::spec(),
        );
        let mut rng = RngStream::from_seed(seed);
        let points: Vec<Vector> = (0..count).map(|_| rng.standard_normal_vector(dim)).collect();
        let scalar_fork = problem.fork();
        let scalar: Vec<f64> = points.iter().map(|z| scalar_fork.metric(z)).collect();
        let batch_fork = problem.fork();
        let batched = batch_fork.metrics_batch_on(&Executor::new(threads), &points);
        prop_assert_eq!(scalar_fork.evaluations(), batch_fork.evaluations());
        for (s, b) in scalar.iter().zip(&batched) {
            prop_assert_eq!(s.to_bits(), b.to_bits());
        }
    }
}
