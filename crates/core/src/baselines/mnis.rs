//! Minimum-norm importance sampling (MNIS) baseline.
//!
//! The classic optimization-based mean-shift method (Kanj / Joshi / Nassif
//! style): a derivative-free presampling phase scans the variation space for
//! failing samples, the failing sample with the smallest norm is refined by a
//! radial bisection towards the origin, and a mean-shift Gaussian centred at
//! that point drives the importance-sampling phase.
//!
//! The difference from Gradient Importance Sampling is precisely the search
//! phase: MNIS spends a large, dimension-dependent presampling budget to find
//! the failure region blindly, while GIS walks there along the gradient in a
//! handful of simulator calls. The sampling phases are identical, so the
//! comparison isolates the value of gradient information.

use crate::estimator::{ConvergencePolicy, Diagnostics, Estimator, EstimatorOutcome, WarmStart};
use crate::exec::{ExecutionConfig, Executor};
use crate::importance::{
    run_importance_sampling, ImportanceSamplingConfig, IsDiagnostics, Proposal,
};
use crate::model::FailureProblem;
use crate::result::ExtractionResult;
use gis_linalg::Vector;
use gis_stats::{sampling::latin_hypercube_normal, RngStream};
use serde::{Deserialize, Serialize};

/// Configuration of the MNIS baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MnisConfig {
    /// Number of presampling points per round.
    pub presamples_per_round: usize,
    /// Scale factors applied to the presampling cloud, tried in order until a
    /// failing sample is found.
    pub presample_scales: Vec<f64>,
    /// Radial bisection steps used to refine the minimum-norm failing sample
    /// towards the failure boundary.
    pub bisection_steps: usize,
    /// Sampling-phase configuration (shared with the other IS methods).
    pub sampling: ImportanceSamplingConfig,
    /// Defensive mixture fraction for the sampling phase (0 = pure mean shift).
    pub defensive_fraction: f64,
}

impl Default for MnisConfig {
    fn default() -> Self {
        MnisConfig {
            presamples_per_round: 2_000,
            presample_scales: vec![1.5, 2.0, 2.5, 3.0],
            bisection_steps: 12,
            sampling: ImportanceSamplingConfig::default(),
            defensive_fraction: 0.1,
        }
    }
}

impl MnisConfig {
    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.presamples_per_round == 0 || self.presample_scales.is_empty() {
            return Err("presampling needs a positive budget and at least one scale".to_string());
        }
        if self.presample_scales.iter().any(|&s| !(s > 0.0)) {
            return Err("presample scales must be positive".to_string());
        }
        if !(0.0..1.0).contains(&self.defensive_fraction) {
            return Err("defensive fraction must be in [0, 1)".to_string());
        }
        self.sampling.validate()
    }

    /// Bytes a run preallocates on a `dim`-dimensional problem: the larger
    /// of a presampling round (the Latin hypercube's uniform cloud, its
    /// normal image and the scaled copy, three clouds at once) and one
    /// sampling batch.
    pub fn working_set(&self, dim: usize) -> u64 {
        let round = (self.presamples_per_round as u64).saturating_mul(3);
        crate::estimator::batch_bytes(round, dim).max(self.sampling.working_set(dim))
    }
}

/// Outcome of the MNIS search phase (exposed for the comparison figures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MnisSearchOutcome {
    /// The minimum-norm failing point found by presampling + bisection.
    pub center: Vector,
    /// Its norm in sigmas.
    pub beta: f64,
    /// Evaluations spent on the search phase.
    pub evaluations: u64,
    /// Whether any failing sample was found at all.
    pub found_failure: bool,
}

/// The minimum-norm importance-sampling estimator.
#[derive(Debug, Clone, Default)]
pub struct MinimumNormIs {
    config: MnisConfig,
    exec: ExecutionConfig,
}

impl MinimumNormIs {
    /// Creates the estimator (execution defaults to
    /// [`ExecutionConfig::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn new(config: MnisConfig) -> Self {
        config.validate().expect("invalid MNIS configuration");
        MinimumNormIs {
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
    pub fn config(&self) -> &MnisConfig {
        &self.config
    }

    /// The parallel-execution configuration in use.
    pub fn execution(&self) -> ExecutionConfig {
        self.exec
    }

    /// Derivative-free search for a minimum-norm failing point.
    pub fn search(&self, problem: &FailureProblem, rng: &mut RngStream) -> MnisSearchOutcome {
        self.search_on(problem, rng, &self.exec.executor())
    }

    /// Derivative-free search with each presampling cloud evaluated as one
    /// batch on `exec`. The minimum-norm selection and the radial bisection
    /// reduce sequentially, so the outcome is identical at any thread count.
    fn search_on(
        &self,
        problem: &FailureProblem,
        rng: &mut RngStream,
        exec: &Executor,
    ) -> MnisSearchOutcome {
        let dim = problem.dim();
        let start_evals = problem.evaluations();
        let mut best: Option<Vector> = None;

        'scales: for &scale in &self.config.presample_scales {
            // Stratified (Latin hypercube) normal presampling, inflated by the
            // current scale so later rounds probe further into the tails.
            let cloud: Vec<Vector> =
                latin_hypercube_normal(rng, self.config.presamples_per_round, dim)
                    .into_iter()
                    .map(|z| z.scaled(scale))
                    .collect();
            let outcomes = problem.is_failure_batch_on(exec, &cloud);
            for (z, failed) in cloud.into_iter().zip(outcomes) {
                if failed {
                    let better = match &best {
                        Some(current) => z.norm() < current.norm(),
                        None => true,
                    };
                    if better {
                        best = Some(z);
                    }
                }
            }
            if best.is_some() {
                break 'scales;
            }
        }

        let (center, found_failure) = match best {
            Some(z) => (self.bisect_radially(problem, &z), true),
            None => (Vector::zeros(dim), false),
        };

        MnisSearchOutcome {
            beta: center.norm(),
            center,
            evaluations: problem.evaluations() - start_evals,
            found_failure,
        }
    }

    /// Radial bisection from the failing point `z` towards the origin: the
    /// smallest radius along `z`'s direction that still fails (assumes radial
    /// monotonicity, the standard MNIS assumption).
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    fn bisect_radially(&self, problem: &FailureProblem, z: &Vector) -> Vector {
        let direction = z.normalized().expect("failing point is non-zero");
        let mut hi = z.norm();
        let mut lo = 0.0;
        for _ in 0..self.config.bisection_steps {
            let mid = 0.5 * (lo + hi);
            if problem.is_failure(&direction.scaled(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        direction.scaled(hi)
    }

    /// Warm search seeded at a neighbor's minimum-norm failing point: probe
    /// the hinted point (and a few outward inflations of it, in case this
    /// cell's boundary sits further out), then run the usual radial bisection
    /// along its direction. Skipping the blind Latin-hypercube presampling is
    /// where almost all of MNIS's warm-start evaluation savings come from. If
    /// no inflation of the hint fails, the hint is useless here and the
    /// search falls back to the full blind path.
    fn search_warm_on(
        &self,
        problem: &FailureProblem,
        hint: &Vector,
        rng: &mut RngStream,
        exec: &Executor,
    ) -> MnisSearchOutcome {
        let start_evals = problem.evaluations();
        let probes: Vec<Vector> = [1.0, 1.25, 1.5, 2.0]
            .iter()
            .map(|&scale| hint.scaled(scale))
            .collect();
        let outcomes = problem.is_failure_batch_on(exec, &probes);
        let failing = probes
            .into_iter()
            .zip(outcomes)
            .find_map(|(z, failed)| failed.then_some(z));
        let Some(z) = failing else {
            // The neighbor's failure direction does not reach failure within
            // 2x here; the grid step changed the geometry too much for the
            // hint to be trusted. Blind restart (its own evaluation counter
            // already includes the wasted probes via `start_evals` below).
            let mut blind = self.search_on(problem, rng, exec);
            blind.evaluations = problem.evaluations() - start_evals;
            return blind;
        };

        let center = self.bisect_radially(problem, &z);
        MnisSearchOutcome {
            beta: center.norm(),
            center,
            evaluations: problem.evaluations() - start_evals,
            found_failure: true,
        }
    }
}

impl Estimator for MinimumNormIs {
    fn name(&self) -> &str {
        "minimum-norm-is"
    }

    fn estimate_warm(
        &self,
        problem: &FailureProblem,
        rng: &mut RngStream,
        warm: Option<&WarmStart>,
    ) -> EstimatorOutcome {
        let executor = self.exec.executor();
        // An applicable hint is a neighbor's found minimum-norm failing point
        // of the right dimension; anything else takes the blind path.
        let warm_center = match warm {
            Some(WarmStart::MinimumNormCenter { center, beta }) => {
                if center.len() == problem.dim()
                    && center.is_finite()
                    && *beta > 0.0
                    && center.norm() > 1e-9
                {
                    Some(center)
                } else {
                    None
                }
            }
            _ => None,
        };
        let search = match warm_center {
            Some(hint) => self.search_warm_on(problem, hint, rng, &executor),
            None => self.search_on(problem, rng, &executor),
        };
        if !search.found_failure {
            let result = ExtractionResult {
                method: "minimum-norm-is".to_string(),
                failure_probability: 0.0,
                standard_error: f64::INFINITY,
                sigma_level: f64::NAN,
                evaluations: search.evaluations,
                sampling_evaluations: 0,
                failures_observed: 0,
                converged: false,
                trace: vec![],
            };
            let diagnostics = IsDiagnostics {
                effective_sample_size: 0.0,
                max_weight: 0.0,
                shift: None,
                shift_norm: None,
                multimodal_suspected: false,
            };
            return EstimatorOutcome {
                result,
                diagnostics: Diagnostics::MinimumNormIs {
                    is: diagnostics,
                    search,
                },
            };
        }

        let proposal = if self.config.defensive_fraction > 0.0 {
            Proposal::defensive_mixture(search.center.clone(), self.config.defensive_fraction)
        } else {
            Proposal::shifted(search.center.clone())
        };
        let (result, diagnostics) = run_importance_sampling(
            problem,
            &proposal,
            &self.config.sampling,
            rng,
            &executor,
            "minimum-norm-is",
            search.evaluations,
            None,
        );
        EstimatorOutcome {
            result,
            diagnostics: Diagnostics::MinimumNormIs {
                is: diagnostics,
                search,
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
    use crate::model::{FailureProblem, LinearLimitState};

    fn quick_config() -> MnisConfig {
        MnisConfig {
            presamples_per_round: 1_000,
            sampling: ImportanceSamplingConfig {
                max_samples: 30_000,
                batch_size: 1_000,
                target_relative_error: 0.05,
                min_failures: 50,
                ..ImportanceSamplingConfig::default()
            },
            ..MnisConfig::default()
        }
    }

    #[test]
    fn search_finds_a_near_minimum_norm_point() {
        let ls = LinearLimitState::along_first_axis(4, 4.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let mnis = MinimumNormIs::new(quick_config());
        let mut rng = RngStream::from_seed(31);
        let search = mnis.search(&problem, &mut rng);
        assert!(search.found_failure);
        // The bisection pulls the point back to the failure boundary, so the
        // norm cannot be much below the true beta and should not be wildly
        // above it either.
        assert!(search.beta >= 3.7, "beta {}", search.beta);
        assert!(search.beta < 6.5, "beta {}", search.beta);
        assert!(search.evaluations > 0);
    }

    #[test]
    fn estimates_linear_tail_probability() {
        let ls = LinearLimitState::along_first_axis(6, 4.0);
        let exact = ls.exact_failure_probability();
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let mnis = MinimumNormIs::new(quick_config());
        // Seed chosen so the blind presampling phase finds a reasonable
        // minimum-norm center; bad draws (a known MNIS weakness) are covered
        // by `gives_up_gracefully_when_no_failure_is_reachable` below.
        let mut rng = RngStream::from_seed(42);
        let outcome = mnis.estimate(&problem, &mut rng);
        let result = &outcome.result;
        let diag = outcome.is_diagnostics().unwrap();
        let search = outcome.search().unwrap();
        assert!(search.found_failure);
        let rel = (result.failure_probability - exact).abs() / exact;
        assert!(rel < 0.2, "MNIS estimate off by {rel}");
        assert!(diag.effective_sample_size > 5.0);
        // The presampling phase makes MNIS markedly more expensive than the
        // equivalent gradient search would be.
        assert!(result.evaluations > result.sampling_evaluations);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let ls = LinearLimitState::along_first_axis(6, 4.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let reference = MinimumNormIs::new(quick_config())
            .with_execution(ExecutionConfig::serial())
            .estimate(&problem.fork(), &mut RngStream::from_seed(42));
        for threads in [2, 8] {
            let parallel = MinimumNormIs::new(quick_config())
                .with_execution(ExecutionConfig::with_threads(threads))
                .estimate(&problem.fork(), &mut RngStream::from_seed(42));
            assert_eq!(parallel.result, reference.result);
            assert_eq!(parallel.diagnostics, reference.diagnostics);
        }
    }

    #[test]
    fn gives_up_gracefully_when_no_failure_is_reachable() {
        // 7-sigma failure plane: the presampling scales used here cannot reach it.
        let ls = LinearLimitState::along_first_axis(8, 7.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let config = MnisConfig {
            presamples_per_round: 200,
            presample_scales: vec![1.0],
            ..quick_config()
        };
        let mnis = MinimumNormIs::new(config);
        let mut rng = RngStream::from_seed(17);
        let outcome = mnis.estimate(&problem, &mut rng);
        let (result, search) = (&outcome.result, outcome.search().unwrap());
        assert!(!search.found_failure);
        assert!(!result.converged);
        assert_eq!(result.failure_probability, 0.0);
        assert_eq!(result.sampling_evaluations, 0);
    }

    #[test]
    #[should_panic(expected = "invalid MNIS configuration")]
    fn invalid_config_rejected() {
        let _ = MinimumNormIs::new(MnisConfig {
            presample_scales: vec![],
            ..MnisConfig::default()
        });
    }
}
