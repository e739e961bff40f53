//! Scaled-sigma sampling (SSS) baseline.
//!
//! SSS runs plain Monte Carlo at artificially inflated process variation
//! (σ → s·σ for several scale factors s > 1), where failures are common enough
//! to count directly, and extrapolates the failure probability back to the
//! nominal σ through the analytical model
//!
//! `ln P(s) ≈ α + β·ln s − γ / s²`
//!
//! (the model of Sun & Li, derived from the dominant-exponent behaviour of a
//! Gaussian tail). The fit is an ordinary least-squares problem solved with the
//! QR decomposition from `gis-linalg`; the extrapolated value is
//! `ln P(1) = α − γ`.
//!
//! SSS needs no search phase and makes no shape assumption beyond the model
//! above, but its extrapolation step contributes a model error that grows with
//! the distance between the largest affordable scale and 1 — visible in the
//! comparison tables as a wider confidence band at equal cost.
//!
//! Each scale's cloud is streamed: its points are drawn, in stream order,
//! into one buffer of at most 4 096 points that every batch and every scale
//! reuse, and a scale's failure count is the sum of its batches' counts. The
//! count does not depend on the batch size, and memory scales with the
//! batch, not with `samples_per_scale`.

use crate::estimator::{ConvergencePolicy, Diagnostics, Estimator, EstimatorOutcome, WarmStart};
use crate::exec::ExecutionConfig;
use crate::model::FailureProblem;
use crate::result::{ConvergencePoint, ExtractionResult};
use gis_linalg::{least_squares, LuDecomposition, Matrix, Vector};
use gis_stats::RngStream;
use serde::{Deserialize, Serialize};

/// Points per streamed batch of a scale's cloud. Large enough that a
/// threaded executor opens only a few thread scopes per scale (40 000 points
/// per scale, the benchmark budget, is ten batches of 128 chunks each), small
/// enough that the buffer stays a fraction of a whole cloud.
const BATCH_POINTS: u64 = 4_096;

/// Configuration of the scaled-sigma-sampling baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SssConfig {
    /// Scale factors applied to the nominal sigma (all must be > 1).
    pub scales: Vec<f64>,
    /// Monte Carlo samples per scale factor.
    pub samples_per_scale: u64,
    /// Minimum number of failures a scale must observe to enter the regression
    /// (at least 1: a scale with no failures has no logarithm to fit).
    pub min_failures_per_scale: u64,
}

impl Default for SssConfig {
    fn default() -> Self {
        SssConfig {
            scales: vec![1.6, 2.0, 2.4, 2.8, 3.2],
            samples_per_scale: 5_000,
            min_failures_per_scale: 10,
        }
    }
}

impl SssConfig {
    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.scales.len() < 3 {
            return Err("SSS needs at least three scale factors to fit its model".to_string());
        }
        if self.scales.iter().any(|&s| !(s > 1.0 && s.is_finite())) {
            return Err("all scale factors must be finite and greater than 1".to_string());
        }
        if self.samples_per_scale == 0 {
            return Err("samples per scale must be positive".to_string());
        }
        if self.min_failures_per_scale == 0 {
            return Err("min failures per scale must be at least 1".to_string());
        }
        Ok(())
    }

    /// Bytes a run preallocates on a `dim`-dimensional problem: one
    /// streamed batch of at most 4 096 points of a scale's cloud.
    pub fn working_set(&self, dim: usize) -> u64 {
        crate::estimator::batch_bytes(BATCH_POINTS.min(self.samples_per_scale), dim)
    }
}

/// Per-scale measurement, exposed for the diagnostic figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Sigma scale factor.
    pub scale: f64,
    /// Number of samples drawn at this scale.
    pub samples: u64,
    /// Number of failures observed.
    pub failures: u64,
    /// Failure probability at this scale.
    pub probability: f64,
}

/// The scaled-sigma-sampling estimator.
#[derive(Debug, Clone, Default)]
pub struct ScaledSigmaSampling {
    config: SssConfig,
    exec: ExecutionConfig,
}

impl ScaledSigmaSampling {
    /// Creates the estimator (execution defaults to
    /// [`ExecutionConfig::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn new(config: SssConfig) -> Self {
        config.validate().expect("invalid SSS configuration");
        ScaledSigmaSampling {
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
    pub fn config(&self) -> &SssConfig {
        &self.config
    }

    /// The parallel-execution configuration in use.
    pub fn execution(&self) -> ExecutionConfig {
        self.exec
    }
}

impl ScaledSigmaSampling {
    /// The scale factors a warm hint leaves active: a neighbor's usable
    /// (failure-producing) scales tell us which of *our* configured scales
    /// are likely to waste their whole Monte Carlo budget observing nothing.
    /// Scales below the neighbor's smallest usable scale are dropped —
    /// `samples_per_scale` evaluations saved each — as long as at least
    /// three scales remain (the regression minimum); otherwise the hint is
    /// ignored and the blind scale list runs unchanged.
    fn active_scales(&self, warm: Option<&WarmStart>) -> Vec<f64> {
        if let Some(WarmStart::UsableScales { scales }) = warm {
            let threshold = scales
                .iter()
                .copied()
                .filter(|s| s.is_finite())
                .fold(f64::INFINITY, f64::min);
            if threshold.is_finite() {
                let kept: Vec<f64> = self
                    .config
                    .scales
                    .iter()
                    .copied()
                    .filter(|&s| s >= threshold - 1e-12)
                    .collect();
                if kept.len() >= 3 {
                    return kept;
                }
            }
        }
        self.config.scales.clone()
    }
}

impl Estimator for ScaledSigmaSampling {
    fn name(&self) -> &str {
        "scaled-sigma-sampling"
    }

    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    fn estimate_warm(
        &self,
        problem: &FailureProblem,
        rng: &mut RngStream,
        warm: Option<&WarmStart>,
    ) -> EstimatorOutcome {
        let dim = problem.dim();
        let executor = self.exec.executor();
        let start_evals = problem.evaluations();
        let scales = self.active_scales(warm);
        let mut points = Vec::with_capacity(scales.len());
        let mut trace = Vec::new();
        let batch_points = self.config.samples_per_scale.min(BATCH_POINTS) as usize;
        let mut buffer: Vec<Vector> = (0..batch_points).map(|_| Vector::zeros(dim)).collect();

        for &scale in &scales {
            // Stream the inflated-sigma cloud through the batch buffer: draw
            // each batch sequentially, evaluate it on the executor, count its
            // failures.
            let mut failures = 0u64;
            let mut drawn = 0u64;
            while drawn < self.config.samples_per_scale {
                let batch = (self.config.samples_per_scale - drawn).min(BATCH_POINTS) as usize;
                let cloud = &mut buffer[..batch];
                for z in cloud.iter_mut() {
                    rng.fill_standard_normal(z.as_mut_slice());
                    z.scale_in_place(scale);
                }
                failures += problem
                    .is_failure_batch_on(&executor, cloud)
                    .into_iter()
                    .filter(|&failed| failed)
                    .count() as u64;
                drawn += batch as u64;
            }
            let probability = failures as f64 / self.config.samples_per_scale as f64;
            points.push(ScalePoint {
                scale,
                samples: self.config.samples_per_scale,
                failures,
                probability,
            });
            trace.push(ConvergencePoint {
                evaluations: problem.evaluations() - start_evals,
                estimate: probability,
                relative_error: crate::montecarlo::relative_standard_error(
                    failures,
                    self.config.samples_per_scale,
                ),
            });
        }

        // Regression on the scales with enough observed failures.
        let usable: Vec<&ScalePoint> = points
            .iter()
            .filter(|p| p.failures >= self.config.min_failures_per_scale)
            .collect();

        let (estimate, standard_error, converged) = if usable.len() >= 3 {
            // Design matrix rows: [1, ln s, −1/s²].
            let rows = usable.len();
            let design = Matrix::from_fn(rows, 3, |i, j| {
                let s = usable[i].scale;
                match j {
                    0 => 1.0,
                    1 => s.ln(),
                    _ => -1.0 / (s * s),
                }
            });
            let observations: Vector = usable.iter().map(|p| p.probability.ln()).collect();
            // A non-finite extrapolation is reported like a failed solve,
            // never clamped into a probability.
            let fit = least_squares(&design, &observations)
                .ok()
                .filter(|fit| (fit.solution[0] - fit.solution[2]).is_finite());
            match fit {
                Some(fit) => {
                    let alpha = fit.solution[0];
                    let gamma = fit.solution[2];
                    let ln_p1 = alpha - gamma;
                    // The extrapolation model can misbehave when the target
                    // sigma is far beyond the sampled scales; clamp to a valid
                    // probability so downstream consumers never see P > 1.
                    let estimate = ln_p1.exp().min(1.0);
                    // Delta-method error bar. The prediction is the linear
                    // functional cᵀβ̂ of the OLS coefficients with
                    // c = [1, ln 1, −1/1²] = [1, 0, −1], evaluated *outside*
                    // the sampled scale range — so the binomial noise of each
                    // ln p̂ᵢ is amplified by the extrapolation leverage
                    // a = X(XᵀX)⁻¹c:
                    //
                    //   Var[ln P̂(1)] ≈ Σᵢ aᵢ²·σᵢ²  +  s²·cᵀ(XᵀX)⁻¹c
                    //
                    // with σᵢ² = (1−pᵢ)/(nᵢ·pᵢ) (delta method on ln p̂ᵢ) and
                    // s² the residual variance capturing model misfit. The
                    // previous heuristic (residual + smallest-scale binomial
                    // noise, no leverage) under-reported the error by up to an
                    // order of magnitude — measurably dishonest confidence
                    // intervals in the calibration harness (17–27% empirical
                    // coverage at 90% nominal on the analytic benchmarks).
                    let c = Vector::from_slice(&[1.0, 0.0, -1.0]);
                    let xtx = design.transposed().matmul(&design).expect("3-column fit");
                    let ln_variance = LuDecomposition::new(&xtx)
                        .ok()
                        .and_then(|lu| lu.solve(&c).ok())
                        .map(|w| {
                            let leverage = design.matvec(&w).expect("dimensions match");
                            let statistical: f64 = usable
                                .iter()
                                .zip(leverage.iter())
                                .map(|(point, &a)| {
                                    let p = point.probability;
                                    a * a * (1.0 - p) / (point.samples as f64 * p)
                                })
                                .sum();
                            let dof = (usable.len() as f64 - 3.0).max(1.0);
                            let residual_variance = fit.residual_norm * fit.residual_norm / dof;
                            let prediction_leverage = c.dot(&w).expect("length 3").max(0.0);
                            statistical + residual_variance * prediction_leverage
                        });
                    match ln_variance {
                        Some(var) if var.is_finite() => {
                            // Symmetrized log-space → linear-space conversion:
                            // sinh(σ) averages the up/down factors exp(±σ)−1,
                            // matching the two-sided intervals the suite
                            // quotes (the one-sided exp(σ)−1 overstates and
                            // measurably over-covers).
                            let standard_error = estimate * var.sqrt().sinh();
                            (estimate, standard_error, true)
                        }
                        _ => (estimate, f64::INFINITY, false),
                    }
                }
                None => (0.0, f64::INFINITY, false),
            }
        } else {
            (0.0, f64::INFINITY, false)
        };

        let failures_total: u64 = points.iter().map(|p| p.failures).sum();
        let result = ExtractionResult {
            method: "scaled-sigma-sampling".to_string(),
            failure_probability: estimate,
            standard_error,
            sigma_level: ExtractionResult::sigma_from_probability(estimate),
            evaluations: problem.evaluations() - start_evals,
            sampling_evaluations: problem.evaluations() - start_evals,
            failures_observed: failures_total,
            converged,
            trace,
        };
        EstimatorOutcome {
            result,
            diagnostics: Diagnostics::ScaledSigmaSampling {
                scale_points: points,
            },
        }
    }

    fn configure(&mut self, policy: &ConvergencePolicy) {
        // The whole budget is split evenly across the scale factors; the
        // stopping-rule fields have no SSS equivalent (it never stops early).
        let scales = (self.config.scales.len() as u64).max(1);
        self.config.samples_per_scale = (policy.max_evaluations / scales).max(1);
    }

    fn set_execution(&mut self, exec: ExecutionConfig) {
        self.exec = exec;
    }

    fn effective_execution(&self) -> ExecutionConfig {
        self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FailureProblem, LinearLimitState};

    #[test]
    fn extrapolates_linear_tail_within_model_error() {
        // For a linear limit state ln P(s) = ln Q(β/s) which the SSS model fits
        // well; the extrapolation is typically within a small factor of truth.
        let ls = LinearLimitState::along_first_axis(4, 4.0);
        let exact = ls.exact_failure_probability();
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let sss = ScaledSigmaSampling::new(SssConfig {
            samples_per_scale: 20_000,
            ..SssConfig::default()
        });
        let mut rng = RngStream::from_seed(8);
        let outcome = sss.estimate(&problem, &mut rng);
        let (result, points) = (&outcome.result, outcome.scale_points().unwrap());
        assert!(result.converged);
        assert_eq!(points.len(), 5);
        let ratio = result.failure_probability / exact;
        assert!(
            (0.2..5.0).contains(&ratio),
            "SSS extrapolation off by factor {ratio}: {:e} vs {exact:e}",
            result.failure_probability
        );
        // Probabilities at larger scales must be larger (more spread → more failures).
        for pair in points.windows(2) {
            assert!(pair[1].probability >= pair[0].probability * 0.5);
        }
        assert_eq!(
            result.evaluations,
            5 * 20_000,
            "SSS cost is exactly scales × samples"
        );
    }

    #[test]
    fn fails_gracefully_with_insufficient_failures() {
        // Tiny per-scale budgets at a 6-sigma problem observe almost nothing.
        let ls = LinearLimitState::along_first_axis(4, 6.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let sss = ScaledSigmaSampling::new(SssConfig {
            scales: vec![1.2, 1.3, 1.4],
            samples_per_scale: 200,
            ..SssConfig::default()
        });
        let mut rng = RngStream::from_seed(9);
        let result = sss.estimate(&problem, &mut rng).result;
        assert!(!result.converged);
        assert_eq!(result.failure_probability, 0.0);
    }

    #[test]
    fn reproducible_with_same_seed() {
        let ls = LinearLimitState::along_first_axis(3, 3.5);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let sss = ScaledSigmaSampling::new(SssConfig::default());
        let a = sss
            .estimate(&problem.fork(), &mut RngStream::from_seed(4))
            .result;
        let b = sss
            .estimate(&problem.fork(), &mut RngStream::from_seed(4))
            .result;
        assert_eq!(a.failure_probability, b.failure_probability);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let ls = LinearLimitState::along_first_axis(3, 3.5);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let reference = ScaledSigmaSampling::new(SssConfig::default())
            .with_execution(ExecutionConfig::serial())
            .estimate(&problem.fork(), &mut RngStream::from_seed(4));
        for threads in [2, 8] {
            let parallel = ScaledSigmaSampling::new(SssConfig::default())
                .with_execution(ExecutionConfig::with_threads(threads))
                .estimate(&problem.fork(), &mut RngStream::from_seed(4));
            assert_eq!(parallel.result, reference.result);
            assert_eq!(parallel.diagnostics, reference.diagnostics);
        }
    }

    #[test]
    fn validate_rejects_fits_that_could_take_ln_zero_or_infinite_scales() {
        let zero_failures = SssConfig {
            min_failures_per_scale: 0,
            ..SssConfig::default()
        };
        assert!(zero_failures.validate().is_err());
        let infinite_scale = SssConfig {
            scales: vec![1.5, 2.0, f64::INFINITY],
            ..SssConfig::default()
        };
        assert!(infinite_scale.validate().is_err());
        assert!(SssConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid SSS configuration")]
    fn zero_min_failures_cannot_report_certain_failure() {
        // Accepted, this configuration reported p = 1.0 with an infinite
        // error on `BenchmarkProblem::linear(6, 5.0)` (exact 2.87e-7) at
        // seed 1: a scale with no failures entered the fit as ln 0.
        let _ = ScaledSigmaSampling::new(SssConfig {
            scales: vec![1.2, 1.5, 2.0, 3.0, 4.0],
            samples_per_scale: 2_000,
            min_failures_per_scale: 0,
        });
    }

    #[test]
    #[should_panic(expected = "invalid SSS configuration")]
    fn invalid_config_rejected() {
        let _ = ScaledSigmaSampling::new(SssConfig {
            scales: vec![2.0, 3.0],
            ..SssConfig::default()
        });
    }
}
