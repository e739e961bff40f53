//! Gradient Importance Sampling (GIS) — the paper's proposed methodology.
//!
//! The method has three ingredients:
//!
//! 1. **Gradient MPFP search** ([`crate::mpfp`]): finite-difference gradients
//!    of the simulated dynamic characteristic drive a damped HL–RF iteration to
//!    the most-probable failure point `z*`, typically in a few tens of
//!    simulator calls — orders of magnitude cheaper than the blind presampling
//!    used by earlier minimum-norm and spherical methods.
//! 2. **Defensive mean-shift proposal**: a Gaussian mixture
//!    `(1 − ε)·N(z*, I) + ε·N(0, I)` centres the sampling effort on the failure
//!    region while the nominal component bounds the importance weights,
//!    protecting the estimator when `z*` is imperfect (curved or multiple
//!    failure regions).
//! 3. **Gradient-informed adaptation**: as failing samples accumulate, the
//!    shifted component is re-centred on their weighted mean, refining the
//!    proposal without further gradient evaluations. The sampling phase is
//!    [`run_importance_sampling`] with this re-centring as its per-batch
//!    adaptation step; fixed-proposal IS is the same loop with no
//!    adaptation.
//!
//! The output is the failure probability with confidence information, the
//! equivalent sigma level, and the full cost accounting used by the
//! evaluation tables.

use crate::estimator::{ConvergencePolicy, Diagnostics, Estimator, EstimatorOutcome, WarmStart};
use crate::exec::ExecutionConfig;
use crate::importance::{
    run_importance_sampling, shifts_disagree, Adaptation, ImportanceSamplingConfig, Proposal,
};
use crate::model::FailureProblem;
use crate::mpfp::{GradientMpfpSearch, MpfpConfig};
use gis_linalg::Vector;
use gis_stats::RngStream;
use serde::{Deserialize, Serialize};

/// Configuration of the Gradient Importance Sampling estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GisConfig {
    /// Configuration of the gradient MPFP search phase.
    pub mpfp: MpfpConfig,
    /// Configuration of the sampling phase.
    pub sampling: ImportanceSamplingConfig,
    /// Weight of the nominal density in the defensive mixture (0 disables the
    /// defensive component and uses a pure mean shift).
    pub defensive_fraction: f64,
    /// Weight of an additional "bridge" component centred at
    /// `bridge_position × shift`. Useful when the failure boundary is strongly
    /// curved or steep (e.g. SRAM write contention), where the region between
    /// the nominal point and the MPFP carries non-negligible probability mass;
    /// 0 disables the component.
    pub bridge_fraction: f64,
    /// Relative position of the bridge component along the shift direction
    /// (only used when `bridge_fraction > 0`).
    pub bridge_position: f64,
    /// Re-centre the shifted component on the weighted mean of observed
    /// failures every `recenter_every_batches` batches.
    pub adaptive_recentering: bool,
    /// Batches between re-centring steps.
    pub recenter_every_batches: usize,
    /// Minimum number of failing samples required before a re-centring step.
    pub recenter_min_failures: u64,
}

impl Default for GisConfig {
    fn default() -> Self {
        GisConfig {
            mpfp: MpfpConfig::default(),
            sampling: ImportanceSamplingConfig::default(),
            defensive_fraction: 0.1,
            bridge_fraction: 0.0,
            bridge_position: 0.75,
            adaptive_recentering: true,
            recenter_every_batches: 5,
            recenter_min_failures: 30,
        }
    }
}

impl GisConfig {
    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.defensive_fraction) {
            return Err(format!(
                "defensive fraction must be in [0, 1), got {}",
                self.defensive_fraction
            ));
        }
        if !(0.0..1.0).contains(&self.bridge_fraction)
            || self.defensive_fraction + self.bridge_fraction >= 1.0
        {
            return Err(format!(
                "bridge fraction must be in [0, 1) and defensive + bridge must stay below 1, got {} + {}",
                self.defensive_fraction, self.bridge_fraction
            ));
        }
        if self.bridge_fraction > 0.0 && !(0.0..=1.0).contains(&self.bridge_position) {
            return Err(format!(
                "bridge position must be in [0, 1], got {}",
                self.bridge_position
            ));
        }
        if self.adaptive_recentering && self.recenter_every_batches == 0 {
            return Err("recenter_every_batches must be at least 1".to_string());
        }
        self.mpfp.validate()?;
        self.sampling.validate()
    }

    /// Bytes a run preallocates on a `dim`-dimensional problem: the larger
    /// of one gradient's `dim + 1` points and one sampling batch.
    pub fn working_set(&self, dim: usize) -> u64 {
        let gradient = crate::estimator::batch_bytes(dim as u64 + 1, dim);
        gradient.max(self.sampling.working_set(dim))
    }
}

/// The Gradient Importance Sampling estimator.
#[derive(Debug, Clone, Default)]
pub struct GradientImportanceSampling {
    config: GisConfig,
    exec: ExecutionConfig,
}

impl GradientImportanceSampling {
    /// Creates the estimator with the given configuration (execution defaults
    /// to [`ExecutionConfig::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn new(config: GisConfig) -> Self {
        config.validate().expect("invalid GIS configuration");
        GradientImportanceSampling {
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
    pub fn config(&self) -> &GisConfig {
        &self.config
    }

    /// The parallel-execution configuration in use.
    pub fn execution(&self) -> ExecutionConfig {
        self.exec
    }

    fn proposal_for_shift(&self, shift: Vector) -> Proposal {
        if self.config.bridge_fraction > 0.0 {
            let bridge = shift.scaled(self.config.bridge_position);
            return Proposal::bridged_mixture(
                shift,
                bridge,
                self.config.bridge_fraction,
                self.config.defensive_fraction,
            );
        }
        if self.config.defensive_fraction > 0.0 {
            Proposal::defensive_mixture(shift, self.config.defensive_fraction)
        } else {
            Proposal::shifted(shift)
        }
    }
}

/// Detects re-centring oscillation in a shift history: two successive
/// adaptation steps that move in substantially opposing directions. A
/// unimodal failure region pulls the shift monotonically towards its mass
/// centre; large back-and-forth jumps mean the weighted failure mean is
/// alternating between separated failure clusters.
fn shift_history_oscillates(history: &[Vector]) -> bool {
    history.windows(3).any(|w| {
        let d1 = &w[1] - &w[0];
        let d2 = &w[2] - &w[1];
        match d1.dot(&d2) {
            Ok(dot) => dot < 0.0 && d1.norm() > 1.0 && d2.norm() > 1.0,
            Err(_) => false,
        }
    })
}

impl Estimator for GradientImportanceSampling {
    fn name(&self) -> &str {
        "gradient-is"
    }

    fn estimate_warm(
        &self,
        problem: &FailureProblem,
        rng: &mut RngStream,
        warm: Option<&WarmStart>,
    ) -> EstimatorOutcome {
        let dim = problem.dim();
        let executor = self.exec.executor();
        let start_evals = problem.evaluations();

        // An applicable hint is a converged neighbor MPFP of the right
        // dimension; anything else falls back to the blind search.
        let warm_shift = match warm {
            Some(WarmStart::MpfpShift { shift, beta }) => {
                if shift.len() == dim && shift.is_finite() && *beta > 0.0 {
                    Some(shift.clone())
                } else {
                    None
                }
            }
            _ => None,
        };
        let warm_seeded = warm_shift.is_some();

        // Phase 1: gradient search for the most-probable failure point (the
        // finite-difference probes of each iteration run as one batch). A
        // warm hint seeds the iterate at the neighbor's MPFP; the blind path
        // starts from the origin (`search_on` == `search_from_on` at zero).
        let mpfp_search = GradientMpfpSearch::new(self.config.mpfp.clone());
        let mpfp = match warm_shift {
            Some(start) => mpfp_search.search_from_on(problem, start, rng, &executor),
            None => mpfp_search.search_on(problem, rng, &executor),
        };
        let search_evaluations = problem.evaluations() - start_evals;

        // Phase 2: the shared importance-sampling loop, drawing from the
        // defensive mean-shift proposal at the MPFP. Its adaptation step
        // re-centres the shifted component on the weighted mean of all
        // failures so far, once enough batches and new failures have
        // arrived since the last re-centring.
        let mut shift_history = vec![mpfp.mpfp.clone()];
        let mut failing_weight_sum = 0.0;
        let mut failing_weighted_mean = Vector::zeros(dim);
        let mut failures_since_recenter = 0u64;
        let mut batches_since_recenter = 0usize;
        let mut recenter = |points: &[Vector], weights: &[f64], failed: &[bool]| {
            for ((z, &weight), &failed) in points.iter().zip(weights).zip(failed) {
                if failed && weight.is_finite() && weight > 0.0 {
                    failing_weight_sum += weight;
                    for (m, &zi) in failing_weighted_mean.iter_mut().zip(z.iter()) {
                        *m += weight * zi;
                    }
                    failures_since_recenter += 1;
                }
            }
            batches_since_recenter += 1;
            if !(batches_since_recenter >= self.config.recenter_every_batches
                && failures_since_recenter >= self.config.recenter_min_failures
                && failing_weight_sum > 0.0)
            {
                return None;
            }
            batches_since_recenter = 0;
            failures_since_recenter = 0;
            let shift = failing_weighted_mean.scaled(1.0 / failing_weight_sum);
            if !(shift.is_finite() && shift.norm() > 1e-9) {
                return None;
            }
            shift_history.push(shift.clone());
            Some(self.proposal_for_shift(shift))
        };
        let (result, mut is) = run_importance_sampling(
            problem,
            &self.proposal_for_shift(mpfp.mpfp.clone()),
            &self.config.sampling,
            rng,
            &executor,
            "gradient-is",
            search_evaluations,
            self.config
                .adaptive_recentering
                .then_some(&mut recenter as &mut Adaptation<'_>),
        );

        // Multimodality heuristics: (a) a warm-seeded search that converged
        // somewhere far from the donor's MPFP means the two grid neighbors
        // see different dominant failure regions; (b) large opposing
        // re-centring jumps mean the failure mass itself is split. Either
        // way a single mean-shift proposal may be missing a mode.
        let warm_disagrees = match warm {
            Some(WarmStart::MpfpShift { shift: hint, .. }) => {
                warm_seeded
                    && mpfp.converged
                    && shifts_disagree(hint.as_slice(), mpfp.mpfp.as_slice())
            }
            _ => false,
        };
        is.multimodal_suspected = warm_disagrees || shift_history_oscillates(&shift_history);
        EstimatorOutcome {
            result,
            diagnostics: Diagnostics::GradientImportanceSampling {
                is,
                mpfp,
                shift_history,
            },
        }
    }

    fn configure(&mut self, policy: &ConvergencePolicy) {
        self.config.sampling.max_samples = policy.max_evaluations.max(1);
        self.config.sampling.target_relative_error = policy.target_relative_error;
        self.config.sampling.min_failures = policy.min_failures;
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
    use crate::model::{FailureProblem, LinearLimitState, QuadraticLimitState};

    fn quick_config() -> GisConfig {
        GisConfig {
            sampling: ImportanceSamplingConfig {
                max_samples: 30_000,
                batch_size: 1_000,
                target_relative_error: 0.05,
                min_failures: 50,
                ..ImportanceSamplingConfig::default()
            },
            ..GisConfig::default()
        }
    }

    #[test]
    fn recovers_linear_tail_probability_at_high_sigma() {
        for beta in [4.0_f64, 5.0, 6.0] {
            let ls =
                LinearLimitState::new(Vector::from_slice(&[1.0, -0.5, 2.0, 0.3, 1.0, -1.0]), beta);
            let exact = ls.exact_failure_probability();
            let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
            let gis = GradientImportanceSampling::new(quick_config());
            let mut rng = RngStream::from_seed(100 + beta as u64);
            let outcome = gis.estimate(&problem, &mut rng);
            assert!(
                outcome.result.converged,
                "GIS did not converge at beta {beta}"
            );
            let rel = (outcome.result.failure_probability - exact).abs() / exact;
            assert!(
                rel < 0.15,
                "GIS estimate off by {rel} at beta {beta}: {:e} vs {exact:e}",
                outcome.result.failure_probability
            );
            assert!((outcome.result.sigma_level - beta).abs() < 0.1);
            // The whole extraction must be enormously cheaper than brute force.
            let mc_cost = crate::montecarlo::required_samples(exact, 0.1);
            assert!(
                (outcome.result.evaluations as f64) < mc_cost / 50.0,
                "GIS used {} evaluations, brute force needs {mc_cost:.0}",
                outcome.result.evaluations
            );
            assert!(outcome.mpfp().unwrap().beta > beta - 0.3);
            assert!(outcome.is_diagnostics().unwrap().shift_norm.unwrap() > beta - 0.5);
            assert!(!outcome.shift_history().unwrap().is_empty());
        }
    }

    #[test]
    fn handles_curved_boundary() {
        let q = QuadraticLimitState::new(6, 4.2, 0.06);
        let reference = q.reference_failure_probability();
        let problem = FailureProblem::from_model(q, QuadraticLimitState::spec());
        let gis = GradientImportanceSampling::new(quick_config());
        let mut rng = RngStream::from_seed(7);
        let outcome = gis.estimate(&problem, &mut rng);
        let rel = (outcome.result.failure_probability - reference).abs() / reference;
        assert!(
            rel < 0.25,
            "curved-boundary estimate off by {rel}: {:e} vs {reference:e}",
            outcome.result.failure_probability
        );
    }

    #[test]
    fn pure_mean_shift_variant_also_works() {
        let ls = LinearLimitState::along_first_axis(4, 4.5);
        let exact = ls.exact_failure_probability();
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let config = GisConfig {
            defensive_fraction: 0.0,
            adaptive_recentering: false,
            ..quick_config()
        };
        let gis = GradientImportanceSampling::new(config);
        let mut rng = RngStream::from_seed(13);
        let outcome = gis.estimate(&problem, &mut rng);
        let rel = (outcome.result.failure_probability - exact).abs() / exact;
        assert!(rel < 0.15, "pure mean shift off by {rel}");
        assert_eq!(outcome.shift_history().unwrap().len(), 1);
    }

    #[test]
    fn bridged_mixture_variant_remains_unbiased() {
        let ls = LinearLimitState::along_first_axis(5, 4.5);
        let exact = ls.exact_failure_probability();
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let config = GisConfig {
            bridge_fraction: 0.25,
            bridge_position: 0.75,
            ..quick_config()
        };
        let gis = GradientImportanceSampling::new(config);
        let mut rng = RngStream::from_seed(77);
        let outcome = gis.estimate(&problem, &mut rng);
        let rel = (outcome.result.failure_probability - exact).abs() / exact;
        assert!(rel < 0.2, "bridged GIS off by {rel}");
    }

    #[test]
    #[should_panic(expected = "invalid GIS configuration")]
    fn bridge_fraction_validation() {
        let _ = GradientImportanceSampling::new(GisConfig {
            bridge_fraction: 0.95,
            defensive_fraction: 0.1,
            ..GisConfig::default()
        });
    }

    #[test]
    fn adaptation_records_shift_history() {
        // Start the search on a problem whose MPFP the search slightly
        // misses (curved boundary), so re-centring has something to do.
        let q = QuadraticLimitState::new(4, 4.0, 0.1);
        let problem = FailureProblem::from_model(q, QuadraticLimitState::spec());
        let config = GisConfig {
            recenter_every_batches: 2,
            recenter_min_failures: 10,
            ..quick_config()
        };
        let gis = GradientImportanceSampling::new(config);
        let mut rng = RngStream::from_seed(21);
        let outcome = gis.estimate(&problem, &mut rng);
        let shift_history = outcome.shift_history().unwrap();
        assert!(shift_history.len() >= 2, "no adaptation happened");
        for shift in shift_history {
            assert!(shift.is_finite());
        }
    }

    #[test]
    fn cost_accounting_is_consistent() {
        let ls = LinearLimitState::along_first_axis(3, 4.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let gis = GradientImportanceSampling::new(quick_config());
        let mut rng = RngStream::from_seed(5);
        let outcome = gis.estimate(&problem, &mut rng);
        let mpfp = outcome.mpfp().unwrap();
        assert_eq!(problem.evaluations(), outcome.result.evaluations);
        assert!(outcome.result.evaluations >= outcome.result.sampling_evaluations);
        assert_eq!(
            outcome.result.evaluations - outcome.result.sampling_evaluations,
            mpfp.evaluations
        );
        // Trace evaluations are cumulative and include the search cost.
        assert!(outcome.result.trace[0].evaluations >= mpfp.evaluations);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let ls = LinearLimitState::along_first_axis(3, 3.5);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let reference = GradientImportanceSampling::new(quick_config())
            .with_execution(ExecutionConfig::serial())
            .estimate(&problem.fork(), &mut RngStream::from_seed(33));
        for threads in [2, 8] {
            let parallel = GradientImportanceSampling::new(quick_config())
                .with_execution(ExecutionConfig::with_threads(threads))
                .estimate(&problem.fork(), &mut RngStream::from_seed(33));
            assert_eq!(parallel.result, reference.result);
            assert_eq!(parallel.diagnostics, reference.diagnostics);
        }
    }

    #[test]
    #[should_panic(expected = "invalid GIS configuration")]
    fn invalid_config_rejected() {
        let _ = GradientImportanceSampling::new(GisConfig {
            defensive_fraction: 1.5,
            ..GisConfig::default()
        });
    }
}
