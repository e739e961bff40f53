//! Brute-force (standard) Monte Carlo failure-probability estimation.
//!
//! This is both the accuracy reference for every other method and the baseline
//! whose cost the evaluation tables compare against. Samples are drawn from the
//! nominal standard normal density of the whitened variation space; the
//! estimator is the failure fraction with its binomial standard error.
//!
//! The inner loop is batched: each batch of points is generated sequentially
//! (preserving the draw order of the stream) into one reused buffer,
//! evaluated on the configured [`crate::exec::Executor`] worker threads, and
//! reduced in sample order — so the estimate is bit-identical at every thread
//! count, and memory scales with the batch size, not with the budget.

use crate::estimator::{ConvergencePolicy, Diagnostics, Estimator, EstimatorOutcome, WarmStart};
use crate::exec::ExecutionConfig;
use crate::model::FailureProblem;
use crate::result::{ConvergencePoint, ExtractionResult};
use crate::stopping::StoppingRule;
use gis_linalg::Vector;
use gis_stats::RngStream;
use serde::{Deserialize, Serialize};

/// Configuration of the brute-force Monte Carlo estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Maximum number of samples (simulator calls) to spend.
    pub max_samples: u64,
    /// Samples drawn between convergence checks / trace snapshots.
    pub batch_size: u64,
    /// Target relative standard error (σ/μ); the run stops early once reached.
    pub target_relative_error: f64,
    /// Minimum number of observed failures before the stopping rule may fire
    /// (protects against spuriously "converged" estimates from 1–2 failures).
    pub min_failures: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            max_samples: 1_000_000,
            batch_size: 1_000,
            target_relative_error: 0.1,
            min_failures: 10,
        }
    }
}

impl MonteCarloConfig {
    /// Creates a configuration with the given sample budget and defaults for
    /// the remaining fields.
    pub fn with_budget(max_samples: u64) -> Self {
        MonteCarloConfig {
            max_samples,
            ..MonteCarloConfig::default()
        }
    }

    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_samples == 0 || self.batch_size == 0 {
            return Err("sample budget and batch size must be positive".to_string());
        }
        if !(self.target_relative_error > 0.0) {
            return Err("target relative error must be positive".to_string());
        }
        Ok(())
    }

    /// Bytes a run preallocates on a `dim`-dimensional problem: one batch
    /// of points and their outcomes.
    pub fn working_set(&self, dim: usize) -> u64 {
        crate::estimator::batch_bytes(self.batch_size.min(self.max_samples), dim)
    }
}

/// Brute-force Monte Carlo estimator.
#[derive(Debug, Clone, Default)]
pub struct MonteCarlo {
    config: MonteCarloConfig,
    exec: ExecutionConfig,
}

impl MonteCarlo {
    /// Creates an estimator with the given configuration (execution defaults
    /// to [`ExecutionConfig::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero budget, non-positive
    /// tolerance).
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn new(config: MonteCarloConfig) -> Self {
        config
            .validate()
            .expect("invalid Monte Carlo configuration");
        MonteCarlo {
            config,
            exec: ExecutionConfig::default(),
        }
    }

    /// Sets the parallel-execution configuration (thread count changes
    /// wall-clock only, never the estimate).
    pub fn with_execution(mut self, exec: ExecutionConfig) -> Self {
        self.exec = exec;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &MonteCarloConfig {
        &self.config
    }

    /// The parallel-execution configuration in use.
    pub fn execution(&self) -> ExecutionConfig {
        self.exec
    }
}

impl Estimator for MonteCarlo {
    fn name(&self) -> &str {
        "monte-carlo"
    }

    fn estimate_warm(
        &self,
        problem: &FailureProblem,
        rng: &mut RngStream,
        _warm: Option<&WarmStart>,
    ) -> EstimatorOutcome {
        let dim = problem.dim();
        let executor = self.exec.executor();
        let start_evals = problem.evaluations();
        let mut samples = 0u64;
        let mut failures = 0u64;
        let mut trace = Vec::new();
        let mut converged = false;
        let mut stop =
            StoppingRule::new(self.config.target_relative_error, self.config.min_failures);
        let mut buffer: Vec<Vector> = (0..self.config.batch_size.min(self.config.max_samples))
            .map(|_| Vector::zeros(dim))
            .collect();

        while samples < self.config.max_samples {
            let batch = self
                .config
                .batch_size
                .min(self.config.max_samples - samples);
            // Generate sequentially (fixed draw order) into the reused batch
            // buffer, evaluate on the executor, reduce in sample order.
            let points = &mut buffer[..batch as usize];
            for z in points.iter_mut() {
                rng.fill_standard_normal(z.as_mut_slice());
            }
            failures += problem
                .is_failure_batch_on(&executor, points)
                .into_iter()
                .filter(|&failed| failed)
                .count() as u64;
            samples += batch;

            let estimate = failures as f64 / samples as f64;
            let rel_err = relative_standard_error(failures, samples);
            trace.push(ConvergencePoint {
                evaluations: samples,
                estimate,
                relative_error: rel_err,
            });
            if stop.check(failures as f64, rel_err) {
                converged = true;
                break;
            }
        }

        let estimate = failures as f64 / samples as f64;
        let standard_error = stop.reported_standard_error(
            binomial_standard_error(failures, samples),
            failures as f64,
            converged,
        );
        EstimatorOutcome {
            result: ExtractionResult {
                method: "monte-carlo".to_string(),
                failure_probability: estimate,
                standard_error,
                sigma_level: ExtractionResult::sigma_from_probability(estimate),
                evaluations: problem.evaluations() - start_evals,
                sampling_evaluations: samples,
                failures_observed: failures,
                converged,
                trace,
            },
            diagnostics: Diagnostics::MonteCarlo,
        }
    }

    fn configure(&mut self, policy: &ConvergencePolicy) {
        self.config.max_samples = policy.max_evaluations.max(1);
        self.config.target_relative_error = policy.target_relative_error;
        self.config.min_failures = policy.min_failures;
    }

    fn set_execution(&mut self, exec: ExecutionConfig) {
        self.exec = exec;
    }

    fn effective_execution(&self) -> ExecutionConfig {
        self.exec
    }
}

/// Binomial standard error `sqrt(p(1−p)/n)` of a failure fraction.
pub fn binomial_standard_error(failures: u64, samples: u64) -> f64 {
    if samples == 0 {
        return f64::INFINITY;
    }
    let p = failures as f64 / samples as f64;
    (p * (1.0 - p) / samples as f64).sqrt()
}

/// Relative standard error of a failure fraction; `inf` with zero failures.
pub fn relative_standard_error(failures: u64, samples: u64) -> f64 {
    if failures == 0 || samples == 0 {
        return f64::INFINITY;
    }
    let p = failures as f64 / samples as f64;
    binomial_standard_error(failures, samples) / p
}

/// Number of Monte Carlo samples required to reach a target relative standard
/// error for a given failure probability: `N ≈ (1 − p) / (p · ρ²)`.
///
/// This is the "what would brute force cost" column of the comparison tables
/// when running it outright is infeasible.
pub fn required_samples(failure_probability: f64, target_relative_error: f64) -> f64 {
    assert!(
        failure_probability > 0.0 && failure_probability < 1.0,
        "failure probability must be in (0, 1)"
    );
    assert!(
        target_relative_error > 0.0,
        "target relative error must be positive"
    );
    (1.0 - failure_probability)
        / (failure_probability * target_relative_error * target_relative_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FailureProblem, LinearLimitState};

    #[test]
    fn estimates_low_sigma_probability_accurately() {
        // β = 2 → P_fail ≈ 2.28e-2: easily reachable by plain MC.
        let ls = LinearLimitState::along_first_axis(4, 2.0);
        let exact = ls.exact_failure_probability();
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let mc = MonteCarlo::new(MonteCarloConfig {
            max_samples: 200_000,
            batch_size: 5_000,
            target_relative_error: 0.05,
            min_failures: 10,
        });
        let mut rng = RngStream::from_seed(11);
        let result = mc.estimate(&problem, &mut rng).result;
        assert!(result.converged);
        let rel = (result.failure_probability - exact).abs() / exact;
        assert!(rel < 0.15, "MC estimate off by {rel}");
        assert!(result.failures_observed > 0);
        assert_eq!(result.evaluations, result.sampling_evaluations);
        assert!(!result.trace.is_empty());
        assert!((result.sigma_level - 2.0).abs() < 0.1);
    }

    #[test]
    fn stops_at_budget_for_rare_events() {
        // β = 5 → P_fail ≈ 2.9e-7: a 20k budget cannot converge.
        let ls = LinearLimitState::along_first_axis(3, 5.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let mc = MonteCarlo::new(MonteCarloConfig {
            max_samples: 20_000,
            batch_size: 5_000,
            target_relative_error: 0.1,
            min_failures: 10,
        });
        let mut rng = RngStream::from_seed(3);
        let result = mc.estimate(&problem, &mut rng).result;
        assert!(!result.converged);
        assert_eq!(result.sampling_evaluations, 20_000);
        assert!(result.failure_probability < 1e-3);
    }

    #[test]
    fn trace_is_monotone_in_evaluations() {
        let ls = LinearLimitState::along_first_axis(2, 1.5);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let mc = MonteCarlo::new(MonteCarloConfig {
            max_samples: 30_000,
            batch_size: 1_000,
            target_relative_error: 0.02,
            min_failures: 10,
        });
        let mut rng = RngStream::from_seed(7);
        let result = mc.estimate(&problem, &mut rng).result;
        for pair in result.trace.windows(2) {
            assert!(pair[1].evaluations > pair[0].evaluations);
        }
    }

    #[test]
    fn reproducible_with_same_seed() {
        let ls = LinearLimitState::along_first_axis(2, 2.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let mc = MonteCarlo::new(MonteCarloConfig::with_budget(10_000));
        let a = mc
            .estimate(&problem.fork(), &mut RngStream::from_seed(42))
            .result;
        let b = mc
            .estimate(&problem.fork(), &mut RngStream::from_seed(42))
            .result;
        assert_eq!(a.failure_probability, b.failure_probability);
        assert_eq!(a.failures_observed, b.failures_observed);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let ls = LinearLimitState::along_first_axis(3, 2.5);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let reference = MonteCarlo::new(MonteCarloConfig::with_budget(20_000))
            .with_execution(ExecutionConfig::serial())
            .estimate(&problem.fork(), &mut RngStream::from_seed(6))
            .result;
        for threads in [2, 8] {
            let parallel = MonteCarlo::new(MonteCarloConfig::with_budget(20_000))
                .with_execution(ExecutionConfig::with_threads(threads))
                .estimate(&problem.fork(), &mut RngStream::from_seed(6))
                .result;
            assert_eq!(parallel, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn error_helpers() {
        assert!(binomial_standard_error(0, 0).is_infinite());
        assert!(relative_standard_error(0, 100).is_infinite());
        assert!((binomial_standard_error(50, 100) - 0.05).abs() < 1e-12);
        // 10% relative error at p = 1e-6 needs ~1e8 samples.
        let n = required_samples(1e-6, 0.1);
        assert!(n > 9.0e7 && n < 1.1e8);
    }

    #[test]
    #[should_panic(expected = "failure probability must be in (0, 1)")]
    fn required_samples_rejects_bad_probability() {
        let _ = required_samples(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "invalid Monte Carlo configuration")]
    fn invalid_config_rejected() {
        let _ = MonteCarlo::new(MonteCarloConfig {
            max_samples: 0,
            ..MonteCarloConfig::default()
        });
    }
}
