//! Gradient-guided search for the most-probable failure point (MPFP).
//!
//! The MPFP (also called the design point or β-point in reliability theory) is
//! the failing point closest to the origin of the whitened variation space:
//!
//! `z* = argmin ‖z‖  subject to  g(z) ≥ 0`
//!
//! where `g` is the signed failure margin. Its norm β = ‖z*‖ is the dominant
//! factor of the failure probability, and centering an importance-sampling
//! proposal at `z*` is what turns a 10⁸-sample brute-force problem into a
//! few-thousand-sample one.
//!
//! This module implements the *gradient* search that gives Gradient Importance
//! Sampling its name: finite-difference gradients of the simulator metric drive
//! a damped HL–RF (Hasofer–Lind / Rackwitz–Fiessler) iteration. The
//! derivative-free alternative used by the minimum-norm baseline lives in
//! [`crate::baselines::mnis`].

use crate::exec::Executor;
use crate::model::FailureProblem;
use gis_linalg::Vector;
use gis_stats::RngStream;
use serde::{Deserialize, Serialize};

/// Configuration of the gradient MPFP search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpfpConfig {
    /// Finite-difference step (in sigmas) used for gradient estimation.
    pub finite_difference_step: f64,
    /// Maximum number of HL–RF iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the change of the iterate (in sigmas).
    pub tolerance: f64,
    /// Maximum movement per iteration (in sigmas), damping the HL–RF update.
    pub max_step: f64,
    /// Hard cap on metric evaluations spent by the search.
    pub max_evaluations: u64,
}

impl Default for MpfpConfig {
    fn default() -> Self {
        MpfpConfig {
            finite_difference_step: 0.05,
            max_iterations: 50,
            tolerance: 0.02,
            max_step: 1.5,
            max_evaluations: 5_000,
        }
    }
}

impl MpfpConfig {
    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.finite_difference_step > 0.0) {
            return Err("finite difference step must be positive".to_string());
        }
        if self.max_iterations == 0 {
            return Err("at least one iteration is required".to_string());
        }
        if !(self.tolerance > 0.0) || !(self.max_step > 0.0) {
            return Err("tolerance and max step must be positive".to_string());
        }
        Ok(())
    }
}

/// One iteration of the MPFP search, recorded for the convergence-trace figure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpfpIteration {
    /// Iteration index (0 = initial point).
    pub iteration: usize,
    /// Distance of the iterate from the origin, in sigmas.
    pub beta: f64,
    /// Failure margin at the iterate (≥ 0 means failing).
    pub margin: f64,
    /// Norm of the finite-difference gradient at the iterate.
    pub gradient_norm: f64,
    /// Cumulative metric evaluations after this iteration.
    pub evaluations: u64,
}

/// Result of an MPFP search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpfpResult {
    /// The located most-probable failure point (whitened coordinates).
    pub mpfp: Vector,
    /// Its distance from the origin in sigmas (the reliability index β).
    pub beta: f64,
    /// Failure margin at the returned point.
    pub margin: f64,
    /// Whether the iteration converged within the budget.
    pub converged: bool,
    /// Number of HL–RF iterations performed.
    pub iterations: usize,
    /// Metric evaluations spent by the search.
    pub evaluations: u64,
    /// Per-iteration trace.
    pub trace: Vec<MpfpIteration>,
}

/// Gradient-guided MPFP search.
#[derive(Debug, Clone, Default)]
pub struct GradientMpfpSearch {
    config: MpfpConfig,
}

impl GradientMpfpSearch {
    /// Creates a search with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn new(config: MpfpConfig) -> Self {
        config.validate().expect("invalid MPFP configuration");
        GradientMpfpSearch { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MpfpConfig {
        &self.config
    }

    /// Estimates the gradient of the failure margin at `z` by forward finite
    /// differences (`dim + 1` evaluations; the margin at `z` is returned too).
    ///
    /// The `dim` forward probes are independent simulator calls and are
    /// evaluated as one batch on `exec` — for a simulation-backed metric this
    /// is where the search's wall-clock goes. They are written into `probes`,
    /// which the search allocates on first use and refills on every call.
    fn margin_and_gradient(
        &self,
        problem: &FailureProblem,
        z: &Vector,
        exec: &Executor,
        probes: &mut Vec<Vector>,
    ) -> (f64, Vector) {
        let h = self.config.finite_difference_step;
        let margin = problem.failure_margin(z);
        let mut gradient = Vector::zeros(z.len());
        // A censored metric (e.g. the simulation window) produces an infinite
        // or constant margin; finite differences against it are meaningless, so
        // treat non-finite margins as "no gradient information here". (The
        // probes are skipped entirely, keeping the evaluation count identical
        // to the historical scalar loop.)
        if !margin.is_finite() {
            return (margin, gradient);
        }
        if probes.is_empty() {
            probes.resize_with(z.len(), || Vector::zeros(z.len()));
        }
        for (i, z_step) in probes.iter_mut().enumerate() {
            z_step.as_mut_slice().copy_from_slice(z.as_slice());
            z_step[i] += h;
        }
        let forwards = problem.failure_margins_batch_on(exec, probes);
        for (i, forward) in forwards.into_iter().enumerate() {
            gradient[i] = if forward.is_finite() {
                (forward - margin) / h
            } else {
                // Stepping into a censored region: strong positive slope.
                1.0 / h
            };
        }
        (margin, gradient)
    }

    /// Runs the search from the origin with the environment-resolved executor
    /// (`GIS_THREADS`, serial when unset). See
    /// [`GradientMpfpSearch::search_on`].
    pub fn search(&self, problem: &FailureProblem, rng: &mut RngStream) -> MpfpResult {
        self.search_on(problem, rng, &Executor::from_env())
    }

    /// Runs the search from the origin, batching the per-iteration gradient
    /// probes on `exec`. The random stream is only used to break out of
    /// zero-gradient plateaus (censored regions), so the search is
    /// deterministic whenever the metric is smooth — and bit-identical at any
    /// thread count either way.
    pub fn search_on(
        &self,
        problem: &FailureProblem,
        rng: &mut RngStream,
        exec: &Executor,
    ) -> MpfpResult {
        self.search_from_on(problem, Vector::zeros(problem.dim()), rng, exec)
    }

    /// Runs the search from an arbitrary starting iterate instead of the
    /// origin — the warm-start entry point used when a sweep neighbor's
    /// converged MPFP is available. The HL–RF iteration is identical to
    /// [`search_on`](GradientMpfpSearch::search_on) (which delegates here
    /// with a zero start), so a zero `start` is bit-identical to the blind
    /// search; a good `start` near the true MPFP converges in a small number
    /// of iterations and skips most of the gradient probes.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn search_from_on(
        &self,
        problem: &FailureProblem,
        start: Vector,
        rng: &mut RngStream,
        exec: &Executor,
    ) -> MpfpResult {
        let dim = problem.dim();
        debug_assert_eq!(start.len(), dim, "start point dimension mismatch");
        let start_evals = problem.evaluations();
        let mut z = start;
        let mut trace = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        let mut last_margin = f64::NEG_INFINITY;
        let mut probes = Vec::new();

        for iteration in 0..self.config.max_iterations {
            iterations = iteration + 1;
            if problem.evaluations() - start_evals >= self.config.max_evaluations {
                break;
            }
            let (margin, gradient) = self.margin_and_gradient(problem, &z, exec, &mut probes);
            last_margin = margin;
            let gradient_norm = gradient.norm();
            trace.push(MpfpIteration {
                iteration,
                beta: z.norm(),
                margin,
                gradient_norm,
                evaluations: problem.evaluations() - start_evals,
            });

            // Relative to the margin, so the test is as scale-free as the
            // HL–RF step itself: metrics in seconds have gradients far below
            // any absolute threshold. An infinite margin always plateaus.
            if !(gradient_norm > 1e-12 * margin.abs()) {
                // Plateau (deep inside a censored region or a totally flat
                // passing region): take a random unit step to regain slope.
                let direction = gis_stats::uniform_on_sphere(rng, dim);
                z = z.axpy(self.config.max_step, &direction).expect("same dim");
                continue;
            }

            // Damped HL–RF update:
            // z_new = [ (∇g·z − g) / ‖∇g‖² ] ∇g
            let projection =
                (gradient.dot(&z).expect("same dim") - margin) / (gradient_norm * gradient_norm);
            let target = gradient.scaled(projection);
            let mut step = &target - &z;
            let step_norm = step.norm();
            if step_norm > self.config.max_step {
                step.scale_in_place(self.config.max_step / step_norm);
            }
            let z_new = &z + &step;
            let moved = (&z_new - &z).norm();
            z = z_new;

            if moved < self.config.tolerance {
                converged = true;
                // Record the final point.
                let (final_margin, final_gradient) =
                    self.margin_and_gradient(problem, &z, exec, &mut probes);
                last_margin = final_margin;
                trace.push(MpfpIteration {
                    iteration: iteration + 1,
                    beta: z.norm(),
                    margin: final_margin,
                    gradient_norm: final_gradient.norm(),
                    evaluations: problem.evaluations() - start_evals,
                });
                break;
            }
        }

        // Make sure the returned point actually fails: nudge it outward along
        // its own direction until the margin is non-negative (at most a few
        // small pushes; keeps the IS proposal centred inside the failure
        // region rather than marginally outside it).
        let mut margin = if last_margin.is_finite() {
            problem.failure_margin(&z)
        } else {
            last_margin
        };
        let mut pushes = 0;
        while margin.is_finite() && margin < 0.0 && pushes < 20 && z.norm() > 1e-9 {
            z = z.scaled(1.0 + 0.01);
            margin = problem.failure_margin(&z);
            pushes += 1;
        }

        MpfpResult {
            beta: z.norm(),
            margin,
            mpfp: z,
            converged,
            iterations,
            evaluations: problem.evaluations() - start_evals,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FailureProblem, LinearLimitState, QuadraticLimitState};

    #[test]
    fn finds_exact_mpfp_of_linear_limit_state() {
        for beta in [3.0, 4.0, 5.0] {
            let ls = LinearLimitState::new(Vector::from_slice(&[1.0, 2.0, -1.0, 0.5]), beta);
            let exact = ls.exact_mpfp();
            let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
            let search = GradientMpfpSearch::new(MpfpConfig::default());
            let mut rng = RngStream::from_seed(1);
            let result = search.search(&problem, &mut rng);
            assert!(result.converged, "did not converge for beta {beta}");
            assert!(
                (result.beta - beta).abs() < 0.1,
                "beta estimate {} vs {beta}",
                result.beta
            );
            assert!(
                (&result.mpfp - &exact).norm() < 0.2,
                "MPFP location error {}",
                (&result.mpfp - &exact).norm()
            );
            assert!(result.margin >= -1e-9, "returned point should fail");
            // A linear problem needs only a handful of iterations.
            assert!(result.iterations <= 10);
            assert!(result.evaluations < 500);
            assert!(!result.trace.is_empty());
        }
    }

    #[test]
    fn handles_curved_limit_state() {
        let q = QuadraticLimitState::new(5, 4.0, 0.08);
        let problem = FailureProblem::from_model(q, QuadraticLimitState::spec());
        let search = GradientMpfpSearch::new(MpfpConfig::default());
        let mut rng = RngStream::from_seed(2);
        let result = search.search(&problem, &mut rng);
        assert!(result.converged);
        // The curved boundary still has its closest point near z0 = beta along
        // the first axis (curvature only helps), so beta <= 4.
        assert!(
            result.beta <= 4.05 && result.beta > 3.0,
            "beta {}",
            result.beta
        );
        assert!(result.mpfp[0] > 3.0);
    }

    #[test]
    fn trace_is_recorded_and_evaluations_counted() {
        let ls = LinearLimitState::along_first_axis(6, 4.5);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let search = GradientMpfpSearch::new(MpfpConfig::default());
        let mut rng = RngStream::from_seed(3);
        let result = search.search(&problem, &mut rng);
        assert_eq!(problem.evaluations(), result.evaluations);
        // The trace marches towards the failure plane: beta grows towards 4.5.
        let first = result.trace.first().unwrap();
        let last = result.trace.last().unwrap();
        assert!(first.beta < last.beta);
        assert!(last.margin.abs() < 0.5);
        for pair in result.trace.windows(2) {
            assert!(pair[1].evaluations >= pair[0].evaluations);
        }
    }

    #[test]
    fn budget_is_respected() {
        let ls = LinearLimitState::along_first_axis(10, 5.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let search = GradientMpfpSearch::new(MpfpConfig {
            max_evaluations: 60,
            ..MpfpConfig::default()
        });
        let mut rng = RngStream::from_seed(4);
        let result = search.search(&problem, &mut rng);
        // 10-dimensional gradient costs 11 evaluations per iteration; the cap
        // allows only a few iterations (plus the final failure nudges).
        assert!(result.evaluations <= 60 + 11 + 10);
    }

    #[test]
    fn search_is_bit_identical_across_thread_counts() {
        let q = QuadraticLimitState::new(6, 4.0, 0.05);
        let problem = FailureProblem::from_model(q, QuadraticLimitState::spec());
        let search = GradientMpfpSearch::new(MpfpConfig::default());
        let reference = search.search_on(
            &problem.fork(),
            &mut RngStream::from_seed(3),
            &Executor::serial(),
        );
        for threads in [2, 8] {
            let parallel = search.search_on(
                &problem.fork(),
                &mut RngStream::from_seed(3),
                &Executor::new(threads).with_chunk_size(2),
            );
            assert_eq!(parallel, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "invalid MPFP configuration")]
    fn invalid_config_rejected() {
        let _ = GradientMpfpSearch::new(MpfpConfig {
            finite_difference_step: 0.0,
            ..MpfpConfig::default()
        });
    }

    #[test]
    fn plateau_fallback_still_returns_a_point() {
        // A metric that is completely flat (censored) in the passing region and
        // fails only beyond 3.5 sigma along the first axis.
        let model = crate::model::FnModel::new(
            "censored",
            3,
            |z: &Vector| {
                if z[0] > 3.5 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let problem = FailureProblem::from_model(model, crate::model::Spec::UpperLimit(0.5));
        let search = GradientMpfpSearch::new(MpfpConfig {
            max_iterations: 120,
            max_evaluations: 20_000,
            ..MpfpConfig::default()
        });
        let mut rng = RngStream::from_seed(9);
        let result = search.search(&problem, &mut rng);
        // The random-walk fallback cannot guarantee the exact MPFP, but it must
        // return a finite point without panicking.
        assert!(result.mpfp.is_finite());
        assert!(result.beta >= 0.0);
    }
}
