//! Spherical (shell) sampling baseline.
//!
//! The method exploits the rotational symmetry of the whitened space: a
//! standard normal vector factors into an independent direction (uniform on the
//! sphere) and radius (chi-distributed). Assuming the failure region is
//! *radially monotone* — once a direction fails at radius `r` it fails for all
//! larger radii, which holds for SRAM metrics that degrade monotonically with
//! device weakening — the failure probability is
//!
//! `P_fail = E_direction[ P(χ_d > r(θ)) ]`
//!
//! where `r(θ)` is the failure-boundary radius along direction `θ`. The method
//! estimates `r(θ)` by bisection along randomly drawn directions and averages
//! the chi-tail probabilities. Its cost therefore scales with the number of
//! directions times the bisection depth, independent of how rare the failure
//! is — but it degrades in high dimensions, where most random directions miss
//! the failure cone entirely.

use crate::estimator::{ConvergencePolicy, Diagnostics, Estimator, EstimatorOutcome, WarmStart};
use crate::exec::{ExecutionConfig, Executor};
use crate::model::FailureProblem;
use crate::result::{ConvergencePoint, ExtractionResult};
use crate::special::chi_survival;
use crate::stopping::StoppingRule;
use gis_linalg::Vector;
use gis_stats::{uniform_on_sphere, OnlineStats, RngStream};
use serde::{Deserialize, Serialize};

/// Directions per processing block. This is also the convergence-checkpoint
/// interval, preserved from the historical serial loop so traces and stopping
/// decisions are unchanged.
const DIRECTION_BLOCK: usize = 20;

/// Configuration of the spherical-sampling baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SphericalSamplingConfig {
    /// Number of random directions to probe.
    pub directions: usize,
    /// Maximum radius (in sigmas) probed along each direction.
    pub max_radius: f64,
    /// Bisection iterations per direction that reaches the failure region.
    pub bisection_steps: usize,
    /// Target relative standard error; probing stops early once reached.
    pub target_relative_error: f64,
    /// Minimum number of failing directions before the stopping rule may fire.
    pub min_failing_directions: usize,
}

impl Default for SphericalSamplingConfig {
    fn default() -> Self {
        SphericalSamplingConfig {
            directions: 300,
            max_radius: 8.0,
            bisection_steps: 12,
            target_relative_error: 0.1,
            min_failing_directions: 10,
        }
    }
}

impl SphericalSamplingConfig {
    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.directions == 0 || self.bisection_steps == 0 {
            return Err("directions and bisection steps must be positive".to_string());
        }
        if !(self.max_radius > 0.0) {
            return Err("max radius must be positive".to_string());
        }
        if !(self.target_relative_error > 0.0) {
            return Err("target relative error must be positive".to_string());
        }
        Ok(())
    }

    /// Bytes a run preallocates on a `dim`-dimensional problem: one block
    /// of 20 directions with their probe points (the
    /// directions, the far points and the bisection midpoints). It does not
    /// grow with [`SphericalSamplingConfig::directions`].
    pub fn working_set(&self, dim: usize) -> u64 {
        crate::estimator::batch_bytes(3 * DIRECTION_BLOCK as u64, dim)
    }
}

/// The spherical-sampling estimator.
#[derive(Debug, Clone, Default)]
pub struct SphericalSampling {
    config: SphericalSamplingConfig,
    exec: ExecutionConfig,
}

impl SphericalSampling {
    /// Creates the estimator (execution defaults to
    /// [`ExecutionConfig::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn new(config: SphericalSamplingConfig) -> Self {
        config
            .validate()
            .expect("invalid spherical sampling configuration");
        SphericalSampling {
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
    pub fn config(&self) -> &SphericalSamplingConfig {
        &self.config
    }

    /// The parallel-execution configuration in use.
    pub fn execution(&self) -> ExecutionConfig {
        self.exec
    }

    /// Failure-boundary radii for a block of directions, found by *lockstep*
    /// bisection: first every direction's maximum-radius point is evaluated as
    /// one batch, then each bisection step evaluates the midpoints of all
    /// still-active (failing) directions as one batch. Per direction this
    /// performs exactly the decisions and evaluation count of the classic
    /// one-direction-at-a-time bisection, so results are independent of both
    /// the batching and the thread count. Returns `None` for directions that do
    /// not fail at the maximum radius.
    ///
    /// `bracket_lo` is the inner edge of the bisection bracket: `0.0` on the
    /// blind path; a warm start raises it towards the neighbor's known
    /// minimum failure radius, which spends the same number of bisection
    /// steps on a tighter interval (a per-direction radius resolution gain,
    /// not an evaluation saving — documented in the README).
    fn boundary_radii(
        &self,
        problem: &FailureProblem,
        directions: &[Vector],
        bracket_lo: f64,
        exec: &Executor,
    ) -> Vec<Option<f64>> {
        let max_points: Vec<Vector> = directions
            .iter()
            .map(|d| d.scaled(self.config.max_radius))
            .collect();
        let reaches_failure = problem.is_failure_batch_on(exec, &max_points);

        // (direction index, lo, hi) for the directions still being bisected.
        let mut active: Vec<(usize, f64, f64)> = reaches_failure
            .iter()
            .enumerate()
            .filter(|&(_, &fails)| fails)
            .map(|(i, _)| (i, bracket_lo, self.config.max_radius))
            .collect();
        for _ in 0..self.config.bisection_steps {
            let midpoints: Vec<Vector> = active
                .iter()
                .map(|&(i, lo, hi)| directions[i].scaled(0.5 * (lo + hi)))
                .collect();
            let fails = problem.is_failure_batch_on(exec, &midpoints);
            for ((_, lo, hi), failed) in active.iter_mut().zip(fails) {
                let mid = 0.5 * (*lo + *hi);
                if failed {
                    *hi = mid;
                } else {
                    *lo = mid;
                }
            }
        }

        let mut radii = vec![None; directions.len()];
        for (i, _, hi) in active {
            radii[i] = Some(hi);
        }
        radii
    }
}

impl Estimator for SphericalSampling {
    fn name(&self) -> &str {
        "spherical-sampling"
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
        let mut tail_stats = OnlineStats::new();
        let mut failing_directions = 0usize;
        let mut min_beta = f64::INFINITY;
        let mut trace = Vec::new();
        let mut converged = false;
        let mut stop = StoppingRule::new(
            self.config.target_relative_error,
            self.config.min_failing_directions as u64,
        );

        // A neighbor's minimum failure radius tightens the bisection bracket:
        // no direction's boundary is plausibly closer than the neighbor's
        // closest boundary minus a generous 2-sigma adjacency margin. The
        // blind bracket (`lo = 0`) is the fallback for absent or inapplicable
        // hints and stays the reproducibility reference.
        let bracket_lo = match warm {
            Some(WarmStart::RadiusBracket { min_beta }) if min_beta.is_finite() => {
                (min_beta - 2.0).clamp(0.0, 0.9 * self.config.max_radius)
            }
            _ => 0.0,
        };

        let mut probed = 0usize;
        'blocks: while probed < self.config.directions {
            let block = DIRECTION_BLOCK.min(self.config.directions - probed);
            let directions: Vec<Vector> = (0..block).map(|_| uniform_on_sphere(rng, dim)).collect();
            let radii = self.boundary_radii(problem, &directions, bracket_lo, &executor);
            for radius in radii {
                probed += 1;
                let contribution = match radius {
                    Some(radius) => {
                        failing_directions += 1;
                        min_beta = min_beta.min(radius);
                        chi_survival(dim, radius)
                    }
                    None => 0.0,
                };
                tail_stats.push(contribution);
            }

            let estimate = tail_stats.mean();
            let rel_err = if estimate > 0.0 {
                tail_stats.standard_error() / estimate
            } else {
                f64::INFINITY
            };
            trace.push(ConvergencePoint {
                evaluations: problem.evaluations() - start_evals,
                estimate,
                relative_error: rel_err,
            });
            if stop.check(failing_directions as f64, rel_err) {
                converged = true;
                break 'blocks;
            }
        }

        let estimate = tail_stats.mean();
        EstimatorOutcome {
            result: ExtractionResult {
                method: "spherical-sampling".to_string(),
                failure_probability: estimate,
                standard_error: stop.reported_standard_error(
                    tail_stats.standard_error(),
                    failing_directions as f64,
                    converged,
                ),
                sigma_level: ExtractionResult::sigma_from_probability(estimate),
                evaluations: problem.evaluations() - start_evals,
                sampling_evaluations: problem.evaluations() - start_evals,
                failures_observed: failing_directions as u64,
                converged,
                trace,
            },
            diagnostics: Diagnostics::SphericalSampling {
                min_beta: min_beta.is_finite().then_some(min_beta),
            },
        }
    }

    fn configure(&mut self, policy: &ConvergencePolicy) {
        // Each probed direction costs one boundary check plus, when it fails,
        // a full bisection; budget directions accordingly.
        let per_direction = 1 + self.config.bisection_steps as u64;
        self.config.directions = (policy.max_evaluations / per_direction).max(1) as usize;
        self.config.target_relative_error = policy.target_relative_error;
        self.config.min_failing_directions = policy.min_failures.max(1) as usize;
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
    fn estimates_linear_tail_within_a_factor() {
        // Spherical sampling is exact only for radially symmetric failure
        // regions; for a half-space it systematically works but with larger
        // spread, so we accept a generous tolerance (this is exactly the
        // weakness the comparison tables highlight).
        let ls = LinearLimitState::along_first_axis(2, 3.0);
        let exact = ls.exact_failure_probability();
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let spherical = SphericalSampling::new(SphericalSamplingConfig {
            directions: 2_000,
            target_relative_error: 0.05,
            ..SphericalSamplingConfig::default()
        });
        let mut rng = RngStream::from_seed(41);
        let result = spherical.estimate(&problem, &mut rng).result;
        assert!(result.failure_probability > 0.0);
        let ratio = result.failure_probability / exact;
        assert!(
            (0.4..2.5).contains(&ratio),
            "spherical estimate off by factor {ratio}: {:e} vs {exact:e}",
            result.failure_probability
        );
        assert!(result.failures_observed > 0);
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn radially_symmetric_region_is_estimated_accurately() {
        // Failure when ‖z‖ > 4: the exact probability is the chi-square tail,
        // and spherical sampling should nail it with very few evaluations.
        let dim = 3;
        let model = crate::model::FnModel::new("norm", dim, |z: &Vector| z.norm());
        let problem = FailureProblem::from_model(model, crate::model::Spec::UpperLimit(4.0));
        let exact = crate::special::chi_survival(dim, 4.0);
        let spherical = SphericalSampling::new(SphericalSamplingConfig {
            directions: 50,
            ..SphericalSamplingConfig::default()
        });
        let mut rng = RngStream::from_seed(13);
        let result = spherical.estimate(&problem, &mut rng).result;
        let rel = (result.failure_probability - exact).abs() / exact;
        assert!(rel < 0.02, "symmetric-region estimate off by {rel}");
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let ls = LinearLimitState::along_first_axis(3, 3.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let config = SphericalSamplingConfig {
            directions: 250,
            ..SphericalSamplingConfig::default()
        };
        let reference = SphericalSampling::new(config.clone())
            .with_execution(ExecutionConfig::serial())
            .estimate(&problem.fork(), &mut RngStream::from_seed(9))
            .result;
        for threads in [2, 8] {
            let parallel = SphericalSampling::new(config.clone())
                .with_execution(ExecutionConfig::with_threads(threads))
                .estimate(&problem.fork(), &mut RngStream::from_seed(9))
                .result;
            assert_eq!(parallel, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn no_failure_inside_max_radius_gives_zero() {
        let ls = LinearLimitState::along_first_axis(3, 10.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let spherical = SphericalSampling::new(SphericalSamplingConfig {
            directions: 50,
            max_radius: 6.0,
            ..SphericalSamplingConfig::default()
        });
        let mut rng = RngStream::from_seed(2);
        let result = spherical.estimate(&problem, &mut rng).result;
        assert_eq!(result.failure_probability, 0.0);
        assert!(!result.converged);
        assert_eq!(result.failures_observed, 0);
    }

    #[test]
    fn cost_grows_with_dimension_due_to_missed_directions() {
        // In higher dimensions the cone of failing directions shrinks, so fewer
        // directions contribute and the relative error for a fixed direction
        // budget grows — the scaling weakness the paper's Table 3 demonstrates.
        let run_dim = |dim: usize| {
            let ls = LinearLimitState::along_first_axis(dim, 3.5);
            let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
            let spherical = SphericalSampling::new(SphericalSamplingConfig {
                directions: 400,
                target_relative_error: 1e-9, // never stop early
                ..SphericalSamplingConfig::default()
            });
            let mut rng = RngStream::from_seed(55);
            let result = spherical.estimate(&problem, &mut rng).result;
            result.failures_observed
        };
        let low_dim_hits = run_dim(2);
        let high_dim_hits = run_dim(12);
        assert!(
            low_dim_hits > high_dim_hits,
            "expected fewer failing directions in high dimension ({low_dim_hits} vs {high_dim_hits})"
        );
    }

    #[test]
    #[should_panic(expected = "invalid spherical sampling configuration")]
    fn invalid_config_rejected() {
        let _ = SphericalSampling::new(SphericalSamplingConfig {
            directions: 0,
            ..SphericalSamplingConfig::default()
        });
    }
}
