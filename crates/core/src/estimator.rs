//! The unified estimator abstraction shared by all five extraction methods.
//!
//! The paper's evaluation is a *comparison*: the same failure problems are
//! attacked by Gradient Importance Sampling, brute-force Monte Carlo,
//! minimum-norm IS, spherical sampling and scaled-sigma sampling, and the
//! estimates/costs are tabulated side by side. The [`Estimator`] trait is the
//! object-safe common denominator that makes such comparisons a one-liner:
//! every method produces an [`EstimatorOutcome`] carrying the shared
//! [`ExtractionResult`] plus a typed [`Diagnostics`] payload preserving the
//! method-specific extras (MPFP trace, search outcome, scale points, …).
//!
//! Drivers — most prominently [`crate::analysis::YieldAnalysis`] — operate on
//! `Box<dyn Estimator>` and never need to know which concrete method they are
//! running.
//!
//! ```
//! use gis_core::{
//!     Estimator, GisConfig, GradientImportanceSampling, FailureProblem,
//!     LinearLimitState, MonteCarlo, MonteCarloConfig,
//! };
//! use gis_stats::RngStream;
//!
//! let methods: Vec<Box<dyn Estimator>> = vec![
//!     Box::new(GradientImportanceSampling::new(GisConfig::default())),
//!     Box::new(MonteCarlo::new(MonteCarloConfig::default())),
//! ];
//! let problem = FailureProblem::from_model(
//!     LinearLimitState::along_first_axis(4, 3.0),
//!     LinearLimitState::spec(),
//! );
//! for method in &methods {
//!     let outcome = method.estimate(&problem.fork(), &mut RngStream::from_seed(1));
//!     assert_eq!(outcome.result.method, method.name());
//! }
//! ```

use crate::baselines::mnis::MnisSearchOutcome;
use crate::baselines::sss::ScalePoint;
use crate::exec::ExecutionConfig;
use crate::importance::IsDiagnostics;
use crate::model::FailureProblem;
use crate::mpfp::MpfpResult;
use crate::result::ExtractionResult;
use gis_linalg::Vector;
use gis_stats::RngStream;
use serde::{Deserialize, Serialize};

/// Method-specific diagnostics attached to an [`EstimatorOutcome`].
///
/// Each variant preserves exactly the extra information the corresponding
/// method used to return from its bespoke `run` signature, so nothing is lost
/// by going through the unified API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Diagnostics {
    /// Gradient Importance Sampling: importance-sampling health, the MPFP
    /// search result and the adaptation history of the shift vector.
    GradientImportanceSampling {
        /// Importance-sampling diagnostics (ESS, max weight, final shift).
        is: IsDiagnostics,
        /// The gradient MPFP search result, including its trace.
        mpfp: MpfpResult,
        /// Shift vectors across adaptation steps (first entry is the MPFP).
        shift_history: Vec<Vector>,
    },
    /// Brute-force Monte Carlo carries no extras beyond the shared result.
    MonteCarlo,
    /// Minimum-norm IS: importance-sampling health plus the presampling
    /// search outcome.
    MinimumNormIs {
        /// Importance-sampling diagnostics (ESS, max weight, shift).
        is: IsDiagnostics,
        /// The derivative-free minimum-norm search outcome.
        search: MnisSearchOutcome,
    },
    /// Spherical sampling: the boundary-geometry summary of the run.
    SphericalSampling {
        /// Smallest failing boundary radius found across all directions (the
        /// spherical estimate of the reliability index β), `None` when no
        /// direction failed within the radius cap. This is what a grid
        /// neighbor warm-starts its bisection bracket from.
        min_beta: Option<f64>,
    },
    /// Scaled-sigma sampling: the per-scale measurements behind the
    /// extrapolation.
    ScaledSigmaSampling {
        /// Failure counts and probabilities at each inflated sigma.
        scale_points: Vec<ScalePoint>,
    },
}

/// Outcome of running any [`Estimator`]: the shared extraction result plus the
/// method's typed diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorOutcome {
    /// The failure-probability extraction result (estimate, errors, cost).
    pub result: ExtractionResult,
    /// Method-specific diagnostics.
    pub diagnostics: Diagnostics,
}

impl EstimatorOutcome {
    /// Importance-sampling diagnostics, for the IS-based methods.
    pub fn is_diagnostics(&self) -> Option<&IsDiagnostics> {
        match &self.diagnostics {
            Diagnostics::GradientImportanceSampling { is, .. } => Some(is),
            Diagnostics::MinimumNormIs { is, .. } => Some(is),
            _ => None,
        }
    }

    /// The gradient MPFP search result, when the method ran one.
    pub fn mpfp(&self) -> Option<&MpfpResult> {
        match &self.diagnostics {
            Diagnostics::GradientImportanceSampling { mpfp, .. } => Some(mpfp),
            _ => None,
        }
    }

    /// The final proposal shift vector, when the method used a mean shift.
    pub fn shift(&self) -> Option<&[f64]> {
        self.is_diagnostics().and_then(|d| d.shift.as_deref())
    }

    /// The shift adaptation history, for Gradient Importance Sampling.
    pub fn shift_history(&self) -> Option<&[Vector]> {
        match &self.diagnostics {
            Diagnostics::GradientImportanceSampling { shift_history, .. } => Some(shift_history),
            _ => None,
        }
    }

    /// The minimum-norm search outcome, for MNIS.
    pub fn search(&self) -> Option<&MnisSearchOutcome> {
        match &self.diagnostics {
            Diagnostics::MinimumNormIs { search, .. } => Some(search),
            _ => None,
        }
    }

    /// The per-scale measurements, for scaled-sigma sampling.
    pub fn scale_points(&self) -> Option<&[ScalePoint]> {
        match &self.diagnostics {
            Diagnostics::ScaledSigmaSampling { scale_points } => Some(scale_points),
            _ => None,
        }
    }

    /// Whether the method's diagnostics flagged a suspected second failure
    /// mode (`false` for methods without the heuristic).
    pub fn multimodal_suspected(&self) -> bool {
        self.is_diagnostics()
            .map(|d| d.multimodal_suspected)
            .unwrap_or(false)
    }

    /// The smallest failing boundary radius, for spherical sampling.
    pub fn min_beta(&self) -> Option<f64> {
        match &self.diagnostics {
            Diagnostics::SphericalSampling { min_beta } => *min_beta,
            _ => None,
        }
    }

    /// Extracts the warm-start hint a grid neighbor of the *same estimator*
    /// could seed its search from, or `None` when this outcome carries
    /// nothing worth continuing from (Monte Carlo, failed searches,
    /// zero-failure runs).
    ///
    /// The extraction is a pure function of the diagnostics, so a hint
    /// rebuilt from a checkpoint-restored outcome is bit-identical to the
    /// one the live run produced — the property warm-sweep resume relies on.
    pub fn warm_hint(&self) -> Option<WarmStart> {
        match &self.diagnostics {
            Diagnostics::GradientImportanceSampling { mpfp, .. } => {
                if mpfp.converged && mpfp.mpfp.is_finite() && mpfp.beta > 0.0 {
                    Some(WarmStart::MpfpShift {
                        shift: mpfp.mpfp.clone(),
                        beta: mpfp.beta,
                    })
                } else {
                    None
                }
            }
            Diagnostics::MonteCarlo => None,
            Diagnostics::MinimumNormIs { search, .. } => {
                if search.found_failure && search.center.is_finite() && search.beta > 0.0 {
                    Some(WarmStart::MinimumNormCenter {
                        center: search.center.clone(),
                        beta: search.beta,
                    })
                } else {
                    None
                }
            }
            Diagnostics::SphericalSampling { min_beta } => min_beta
                .filter(|beta| beta.is_finite() && *beta > 0.0)
                .map(|min_beta| WarmStart::RadiusBracket { min_beta }),
            Diagnostics::ScaledSigmaSampling { scale_points } => {
                let scales: Vec<f64> = scale_points
                    .iter()
                    .filter(|point| point.failures > 0)
                    .map(|point| point.scale)
                    .collect();
                if scales.is_empty() {
                    None
                } else {
                    Some(WarmStart::UsableScales { scales })
                }
            }
        }
    }
}

/// A warm-start hint: the search state a completed grid neighbor donates to
/// an adjacent cell of the *same estimator*, so the recipient can skip or
/// shorten its own search phase. Hints are advisory — every estimator
/// validates the hint against its own problem (dimension, finiteness) and
/// falls back to the blind path when it does not apply. Monte Carlo has no
/// search phase and ignores hints entirely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WarmStart {
    /// Gradient IS: seed the damped HL–RF iteration at a neighbor's
    /// converged MPFP instead of the origin. Near-identical neighbor
    /// geometry converges in one or two iterations.
    MpfpShift {
        /// The neighbor's converged most-probable failure point.
        shift: Vector,
        /// Its reliability index (norm of the shift), kept for provenance
        /// and disagreement diagnostics.
        beta: f64,
    },
    /// Minimum-norm IS: center the proposal search on a neighbor's
    /// minimum-norm failing point, skipping the LHS presampling rounds.
    MinimumNormCenter {
        /// The neighbor's minimum-norm failing point.
        center: Vector,
        /// Its norm in sigmas.
        beta: f64,
    },
    /// Spherical sampling: tighten the radial bisection bracket around a
    /// neighbor's smallest failing radius.
    RadiusBracket {
        /// The neighbor's smallest failing boundary radius.
        min_beta: f64,
    },
    /// Scaled-sigma sampling: spend samples only on the scales that
    /// produced failures for the neighbor (the extrapolation's usable
    /// points), skipping scales whose clouds were all-passing.
    UsableScales {
        /// Scale factors that produced at least one failure.
        scales: Vec<f64>,
    },
}

/// Budget and stopping policy a driver imposes uniformly on every estimator.
///
/// Each method maps the policy onto its own configuration: the sampling-based
/// methods take the fields directly; spherical sampling converts the
/// evaluation budget into a direction budget; scaled-sigma sampling divides it
/// across its scale factors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePolicy {
    /// Maximum sampling-phase metric evaluations per method.
    pub max_evaluations: u64,
    /// Target relative standard error at which a method may stop early.
    pub target_relative_error: f64,
    /// Minimum observed failures before the stopping rule may fire.
    pub min_failures: u64,
}

impl Default for ConvergencePolicy {
    fn default() -> Self {
        ConvergencePolicy {
            max_evaluations: 50_000,
            target_relative_error: 0.1,
            min_failures: 20,
        }
    }
}

impl ConvergencePolicy {
    /// Creates a policy with the given evaluation budget and defaults for the
    /// stopping rule.
    pub fn with_budget(max_evaluations: u64) -> Self {
        ConvergencePolicy {
            max_evaluations,
            ..ConvergencePolicy::default()
        }
    }

    /// Sets the target relative standard error.
    pub fn target_relative_error(mut self, target: f64) -> Self {
        self.target_relative_error = target;
        self
    }

    /// Sets the minimum-failures guard of the stopping rule.
    pub fn min_failures(mut self, min_failures: u64) -> Self {
        self.min_failures = min_failures;
        self
    }

    /// Validates the policy, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_evaluations == 0 {
            return Err("convergence policy needs a positive evaluation budget".to_string());
        }
        if !(self.target_relative_error > 0.0) {
            return Err("convergence policy needs a positive relative-error target".to_string());
        }
        Ok(())
    }
}

/// A failure-probability estimator: the object-safe interface implemented by
/// all five extraction methods.
///
/// Implementations must be deterministic given the same problem and RNG
/// stream, and must charge every metric evaluation (search and sampling
/// phases alike) to the problem's counter so cost comparisons stay honest.
/// Parallelism ([`ExecutionConfig`]) must never change what an implementation
/// computes — estimates and evaluation counts are required to be bit-identical
/// at every thread count (see [`crate::exec`]).
pub trait Estimator: Send + Sync {
    /// Stable method name, identical to the `method` field of the produced
    /// [`ExtractionResult`] (e.g. `"gradient-is"`).
    fn name(&self) -> &str;

    /// Runs the extraction on `problem`, drawing randomness from `rng`,
    /// seeded from a grid neighbor's [`WarmStart`] hint when one is given.
    ///
    /// `None` is the blind path, the reproducibility reference. An
    /// inapplicable hint (wrong dimension, non-finite, wrong variant) must
    /// fall back to it, and an estimator without a search phase (Monte
    /// Carlo) ignores hints.
    fn estimate_warm(
        &self,
        problem: &FailureProblem,
        rng: &mut RngStream,
        warm: Option<&WarmStart>,
    ) -> EstimatorOutcome;

    /// Runs the full extraction on `problem` without a hint: exactly
    /// `estimate_warm(problem, rng, None)`.
    fn estimate(&self, problem: &FailureProblem, rng: &mut RngStream) -> EstimatorOutcome {
        self.estimate_warm(problem, rng, None)
    }

    /// Maps a driver-imposed budget/stopping policy onto the method's own
    /// configuration. The default implementation ignores the policy.
    fn configure(&mut self, policy: &ConvergencePolicy) {
        let _ = policy;
    }

    /// Sets the parallel-execution configuration used by
    /// [`estimate`](Estimator::estimate). The default implementation ignores
    /// it (a serial estimator is always a valid implementation).
    fn set_execution(&mut self, exec: ExecutionConfig) {
        let _ = exec;
    }

    /// The parallel-execution configuration [`estimate`](Estimator::estimate)
    /// will use — what drivers record as run metadata. Implementations that
    /// parallelize must override this together with
    /// [`set_execution`](Estimator::set_execution) and report the configured
    /// value; the default declares "no managed parallelism" (serial), which is
    /// accurate for an estimator that ignores `set_execution`.
    fn effective_execution(&self) -> ExecutionConfig {
        ExecutionConfig::serial()
    }
}

impl std::fmt::Debug for dyn Estimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Estimator({})", self.name())
    }
}

/// Bytes of `points` sample points of `dim` coordinates and one weight or
/// outcome each: the unit of the estimators' `working_set` bounds, which
/// count the buffers a run preallocates before it evaluates anything.
/// Saturates instead of overflowing, so every configuration has a bound.
pub(crate) fn batch_bytes(points: u64, dim: usize) -> u64 {
    let values = (dim as u64).saturating_add(1);
    points
        .saturating_mul(values)
        .saturating_mul(std::mem::size_of::<f64>() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{
        MinimumNormIs, MnisConfig, ScaledSigmaSampling, SphericalSampling, SphericalSamplingConfig,
        SssConfig,
    };
    use crate::gis::{GisConfig, GradientImportanceSampling};
    use crate::model::LinearLimitState;
    use crate::montecarlo::{MonteCarlo, MonteCarloConfig};

    fn all_methods() -> Vec<Box<dyn Estimator>> {
        vec![
            Box::new(GradientImportanceSampling::new(GisConfig::default())),
            Box::new(MonteCarlo::new(MonteCarloConfig::default())),
            Box::new(MinimumNormIs::new(MnisConfig::default())),
            Box::new(SphericalSampling::new(SphericalSamplingConfig::default())),
            Box::new(ScaledSigmaSampling::new(SssConfig::default())),
        ]
    }

    #[test]
    fn names_are_stable_and_match_results() {
        let problem = FailureProblem::from_model(
            LinearLimitState::along_first_axis(3, 3.0),
            LinearLimitState::spec(),
        );
        let expected = [
            "gradient-is",
            "monte-carlo",
            "minimum-norm-is",
            "spherical-sampling",
            "scaled-sigma-sampling",
        ];
        for (method, expected_name) in all_methods().iter().zip(expected) {
            assert_eq!(method.name(), expected_name);
            let outcome = method.estimate(&problem.fork(), &mut RngStream::from_seed(5));
            assert_eq!(outcome.result.method, expected_name);
        }
    }

    #[test]
    fn diagnostics_accessors_route_to_the_right_variant() {
        let problem = FailureProblem::from_model(
            LinearLimitState::along_first_axis(3, 3.0),
            LinearLimitState::spec(),
        );
        let gis = GradientImportanceSampling::new(GisConfig::default());
        let outcome = Estimator::estimate(&gis, &problem.fork(), &mut RngStream::from_seed(2));
        assert!(outcome.mpfp().is_some());
        assert!(outcome.is_diagnostics().is_some());
        assert!(outcome.shift_history().is_some());
        assert!(outcome.search().is_none());
        assert!(outcome.scale_points().is_none());

        let mc = MonteCarlo::new(MonteCarloConfig::with_budget(5_000));
        let outcome = Estimator::estimate(&mc, &problem.fork(), &mut RngStream::from_seed(2));
        assert_eq!(outcome.diagnostics, Diagnostics::MonteCarlo);
        assert!(outcome.mpfp().is_none());

        let sss = ScaledSigmaSampling::new(SssConfig::default());
        let outcome = Estimator::estimate(&sss, &problem.fork(), &mut RngStream::from_seed(2));
        assert!(outcome.scale_points().is_some());
    }

    #[test]
    fn policy_configures_every_method() {
        let policy = ConvergencePolicy::with_budget(4_000)
            .target_relative_error(0.3)
            .min_failures(5);
        let problem = FailureProblem::from_model(
            LinearLimitState::along_first_axis(2, 2.0),
            LinearLimitState::spec(),
        );
        for mut method in all_methods() {
            method.configure(&policy);
            let fork = problem.fork();
            let outcome = method.estimate(&fork, &mut RngStream::from_seed(9));
            // The sampling-phase cost respects the budget; search phases may
            // add their own (bounded) evaluations on top.
            assert!(
                outcome.result.sampling_evaluations <= 4_000 + 32,
                "{} overspent: {}",
                method.name(),
                outcome.result.sampling_evaluations
            );
        }
    }

    #[test]
    fn outcomes_serialize_round_trip() {
        let problem = FailureProblem::from_model(
            LinearLimitState::along_first_axis(3, 3.5),
            LinearLimitState::spec(),
        );
        for method in all_methods() {
            let outcome = method.estimate(&problem.fork(), &mut RngStream::from_seed(3));
            let json = serde_json::to_string(&outcome).expect("outcome serializes");
            let back: EstimatorOutcome = serde_json::from_str(&json).expect("round trip");
            assert_eq!(back.result.method, outcome.result.method);
            assert_eq!(back.result.evaluations, outcome.result.evaluations);
            assert_eq!(back.diagnostics, outcome.diagnostics);
        }
    }
}
