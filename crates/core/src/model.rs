//! Performance-model abstraction: the function from whitened variation space to
//! a scalar dynamic characteristic, plus the specification that defines failure.
//!
//! Every estimator in this crate sees the circuit only through the
//! [`PerformanceModel`] trait: a deterministic map `z ↦ metric(z)` where `z`
//! lives in the whitened variation space (independent standard normals). The
//! [`Spec`] turns the metric into a pass/fail indicator, and
//! [`FailureProblem`] bundles the two together with an evaluation counter so
//! every method reports exactly how many simulator calls it spent — the central
//! cost metric of the evaluation tables.

use crate::exec::Executor;
use crate::special::ln_gamma;
use gis_linalg::Vector;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A deterministic performance metric defined over the whitened variation space.
///
/// Implementations must be deterministic (same `z` → same value) and should
/// return a *censored but finite* value (e.g. the simulation window length)
/// rather than `NaN` when the underlying simulation cannot produce the metric;
/// `f64::INFINITY` is acceptable and is always treated as a failure.
pub trait PerformanceModel: Send + Sync {
    /// Dimensionality of the whitened variation space.
    fn dim(&self) -> usize;

    /// Evaluates the metric at the whitened point `z`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `z.len() != self.dim()`.
    fn evaluate(&self, z: &Vector) -> f64;

    /// Evaluates the metric at every point of a batch, returning one value per
    /// point in input order.
    ///
    /// The default implementation is the scalar loop, so overriding is never
    /// required for correctness. Models with expensive per-point setup (e.g.
    /// the transient SRAM testbench, which otherwise rebuilds its netlist and
    /// solver structure on every call) override this to hoist that setup out
    /// of the loop. Implementations must return exactly `points.len()` values
    /// and must be *batch-transparent*: `evaluate_batch(points)[i]` must be
    /// bit-identical to `evaluate(&points[i])` — the determinism contract of
    /// [`crate::exec`] depends on it.
    fn evaluate_batch(&self, points: &[Vector]) -> Vec<f64> {
        points.iter().map(|z| self.evaluate(z)).collect()
    }

    /// Human-readable name used in reports.
    fn name(&self) -> &str {
        "performance-model"
    }
}

/// Adapter turning a closure into a [`PerformanceModel`].
///
/// ```
/// use gis_core::{FnModel, PerformanceModel};
/// use gis_linalg::Vector;
///
/// let model = FnModel::new("sum", 3, |z: &Vector| z.sum());
/// assert_eq!(model.dim(), 3);
/// assert_eq!(model.evaluate(&Vector::from_slice(&[1.0, 2.0, 3.0])), 6.0);
/// ```
pub struct FnModel<F> {
    name: String,
    dim: usize,
    function: F,
}

impl<F: Fn(&Vector) -> f64 + Send + Sync> FnModel<F> {
    /// Wraps a closure as a performance model.
    pub fn new(name: impl Into<String>, dim: usize, function: F) -> Self {
        FnModel {
            name: name.into(),
            dim,
            function,
        }
    }
}

impl<F: Fn(&Vector) -> f64 + Send + Sync> PerformanceModel for FnModel<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn evaluate(&self, z: &Vector) -> f64 {
        (self.function)(z)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<F> std::fmt::Debug for FnModel<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnModel")
            .field("name", &self.name)
            .field("dim", &self.dim)
            .finish()
    }
}

/// Specification limit defining when a metric value constitutes a failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Spec {
    /// Failure when the metric exceeds the limit (e.g. read access time).
    UpperLimit(f64),
    /// Failure when the metric falls below the limit (e.g. noise margin).
    LowerLimit(f64),
}

impl Spec {
    /// The numeric limit value.
    pub fn limit(&self) -> f64 {
        match self {
            Spec::UpperLimit(v) | Spec::LowerLimit(v) => *v,
        }
    }

    /// Returns `true` if `metric` violates the specification.
    ///
    /// Non-finite metric values (`NaN`, `±inf` in the failing direction) are
    /// conservatively treated as failures.
    pub fn is_failure(&self, metric: f64) -> bool {
        if metric.is_nan() {
            return true;
        }
        match self {
            Spec::UpperLimit(limit) => metric > *limit,
            Spec::LowerLimit(limit) => metric < *limit,
        }
    }

    /// Signed failure margin: positive inside the failure region, negative in
    /// the passing region, zero exactly on the specification boundary.
    ///
    /// `NaN` metrics map to `+inf` (worst case).
    pub fn failure_margin(&self, metric: f64) -> f64 {
        if metric.is_nan() {
            return f64::INFINITY;
        }
        match self {
            Spec::UpperLimit(limit) => metric - limit,
            Spec::LowerLimit(limit) => limit - metric,
        }
    }
}

/// A failure-probability problem: a performance model together with its
/// specification, instrumented with an evaluation counter.
///
/// The counter is shared (`Arc`) so cloned handles — e.g. one per method in a
/// comparison table — can either share or reset their accounting as needed.
pub struct FailureProblem {
    model: Arc<dyn PerformanceModel>,
    spec: Spec,
    evaluations: Arc<AtomicU64>,
}

impl FailureProblem {
    /// Creates a problem from a model and a specification.
    pub fn new(model: Arc<dyn PerformanceModel>, spec: Spec) -> Self {
        FailureProblem {
            model,
            spec,
            evaluations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Convenience constructor taking ownership of a concrete model.
    pub fn from_model<M: PerformanceModel + 'static>(model: M, spec: Spec) -> Self {
        FailureProblem::new(Arc::new(model), spec)
    }

    /// Dimensionality of the variation space.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The specification.
    pub fn spec(&self) -> Spec {
        self.spec
    }

    /// Name of the underlying model.
    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// Evaluates the raw metric at `z`, incrementing the evaluation counter.
    pub fn metric(&self, z: &Vector) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.model.evaluate(z)
    }

    /// Evaluates the signed failure margin at `z` (counts one evaluation).
    pub fn failure_margin(&self, z: &Vector) -> f64 {
        self.spec.failure_margin(self.metric(z))
    }

    /// Returns `true` if the sample at `z` fails the specification (counts one
    /// evaluation).
    pub fn is_failure(&self, z: &Vector) -> bool {
        self.spec.is_failure(self.metric(z))
    }

    /// Evaluates the raw metric at every point of a batch, charging the
    /// evaluation counter once per point. Results are in input order and
    /// bit-identical to calling [`FailureProblem::metric`] point by point.
    pub fn metrics_batch(&self, points: &[Vector]) -> Vec<f64> {
        self.evaluations
            .fetch_add(points.len() as u64, Ordering::Relaxed);
        self.model.evaluate_batch(points)
    }

    /// Like [`FailureProblem::metrics_batch`], with the chunks of the batch
    /// evaluated on the worker threads of `exec`. The thread count changes
    /// wall-clock only: results (and the evaluation count) are identical to
    /// the serial path.
    pub fn metrics_batch_on(&self, exec: &Executor, points: &[Vector]) -> Vec<f64> {
        self.evaluations
            .fetch_add(points.len() as u64, Ordering::Relaxed);
        exec.map_chunks(points, |chunk| self.model.evaluate_batch(chunk))
    }

    /// Signed failure margins for a batch, evaluated on `exec`.
    pub fn failure_margins_batch_on(&self, exec: &Executor, points: &[Vector]) -> Vec<f64> {
        self.metrics_batch_on(exec, points)
            .into_iter()
            .map(|m| self.spec.failure_margin(m))
            .collect()
    }

    /// Pass/fail indicators for a batch, evaluated on `exec`.
    pub fn is_failure_batch_on(&self, exec: &Executor, points: &[Vector]) -> Vec<bool> {
        self.metrics_batch_on(exec, points)
            .into_iter()
            .map(|m| self.spec.is_failure(m))
            .collect()
    }

    /// Number of metric evaluations performed so far through this problem
    /// (shared across clones).
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Creates a handle to the same model and spec with an *independent*
    /// evaluation counter — used when several methods must be charged
    /// separately against the same problem.
    pub fn fork(&self) -> FailureProblem {
        FailureProblem {
            model: Arc::clone(&self.model),
            spec: self.spec,
            evaluations: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Clone for FailureProblem {
    fn clone(&self) -> Self {
        FailureProblem {
            model: Arc::clone(&self.model),
            spec: self.spec,
            evaluations: Arc::clone(&self.evaluations),
        }
    }
}

impl std::fmt::Debug for FailureProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureProblem")
            .field("model", &self.model.name())
            .field("spec", &self.spec)
            .field("dim", &self.dim())
            .field("evaluations", &self.evaluations())
            .finish()
    }
}

/// Analytic benchmark: linear limit state `g(z) = aᵀz − β‖a‖` with exactly
/// known failure probability `P_fail = Φ(−β) = Q(β)`.
///
/// This is the canonical validation problem of the reliability/IS literature:
/// every estimator in this crate is tested against it because the answer is
/// known in closed form at any sigma level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearLimitState {
    direction: Vector,
    beta: f64,
}

impl LinearLimitState {
    /// Creates the limit state with failure plane at distance `beta` along
    /// `direction` (which is normalized internally).
    ///
    /// # Panics
    ///
    /// Panics if `direction` has zero norm or `beta` is not finite.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn new(direction: Vector, beta: f64) -> Self {
        assert!(beta.is_finite(), "beta must be finite");
        let direction = direction
            .normalized()
            .expect("limit-state direction must be non-zero");
        LinearLimitState { direction, beta }
    }

    /// Axis-aligned variant: failure plane perpendicular to the first axis.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn along_first_axis(dim: usize, beta: f64) -> Self {
        LinearLimitState::new(Vector::basis(dim, 0).expect("dim must be at least 1"), beta)
    }

    /// The exact failure probability of this limit state under the standard
    /// normal density.
    pub fn exact_failure_probability(&self) -> f64 {
        gis_stats::normal::upper_tail_probability(self.beta)
    }

    /// Reliability index β (distance of the failure plane from the origin).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The most-probable failure point `β·a`.
    pub fn exact_mpfp(&self) -> Vector {
        self.direction.scaled(self.beta)
    }

    /// The spec to pair this model with so that "metric > 0" means failure.
    pub fn spec() -> Spec {
        Spec::UpperLimit(0.0)
    }
}

impl PerformanceModel for LinearLimitState {
    fn dim(&self) -> usize {
        self.direction.len()
    }

    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    fn evaluate(&self, z: &Vector) -> f64 {
        self.direction.dot(z).expect("dimension mismatch") - self.beta
    }

    fn name(&self) -> &str {
        "linear-limit-state"
    }
}

/// Analytic benchmark with a curved (quadratic) limit state:
/// `g(z) = z₀ − β + κ·Σ_{i>0} z_i²`. For `κ > 0` the failure region bulges
/// towards the origin, stressing methods that assume a flat boundary.
///
/// The exact failure probability is not available in closed form but a
/// high-accuracy reference can be computed cheaply by one-dimensional
/// quadrature ([`QuadraticLimitState::reference_failure_probability`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuadraticLimitState {
    dim: usize,
    beta: f64,
    curvature: f64,
}

impl QuadraticLimitState {
    /// Creates the limit state.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or the parameters are not finite.
    pub fn new(dim: usize, beta: f64, curvature: f64) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        assert!(
            beta.is_finite() && curvature.is_finite(),
            "parameters must be finite"
        );
        QuadraticLimitState {
            dim,
            beta,
            curvature,
        }
    }

    /// Reliability index of the underlying linear part.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Curvature κ.
    pub fn curvature(&self) -> f64 {
        self.curvature
    }

    /// The spec to pair this model with.
    pub fn spec() -> Spec {
        Spec::UpperLimit(0.0)
    }

    /// Reference failure probability computed by integrating
    /// `P(z₀ > β − κ·s)` against the χ²_{d−1} density of `s = Σ_{i>0} z_i²`
    /// with adaptive trapezoidal quadrature. Accurate to well below 1% for the
    /// parameter ranges used in the tests.
    pub fn reference_failure_probability(&self) -> f64 {
        use gis_stats::normal::upper_tail_probability;
        // gis-analyze: allow(float-eq, exact-zero curvature selects the closed-form linear limit)
        if self.dim == 1 || self.curvature == 0.0 {
            return upper_tail_probability(self.beta);
        }
        let k = (self.dim - 1) as f64;
        // Integrate over s ∈ [0, s_max] where the chi-square density is
        // negligible beyond s_max.
        let s_max = k + 12.0 * (2.0 * k).sqrt() + 40.0;
        let steps = 20_000;
        let h = s_max / steps as f64;
        let chi_log_norm = -0.5 * k * std::f64::consts::LN_2 - ln_gamma(0.5 * k);
        let chi_pdf = |s: f64| {
            if s <= 0.0 {
                0.0
            } else {
                (chi_log_norm + (0.5 * k - 1.0) * s.ln() - 0.5 * s).exp()
            }
        };
        let mut integral = 0.0;
        for i in 0..steps {
            let s0 = i as f64 * h;
            let s1 = s0 + h;
            let f0 = chi_pdf(s0) * upper_tail_probability(self.beta - self.curvature * s0);
            let f1 = chi_pdf(s1) * upper_tail_probability(self.beta - self.curvature * s1);
            integral += 0.5 * (f0 + f1) * h;
        }
        integral
    }
}

impl PerformanceModel for QuadraticLimitState {
    fn dim(&self) -> usize {
        self.dim
    }

    fn evaluate(&self, z: &Vector) -> f64 {
        assert_eq!(z.len(), self.dim, "dimension mismatch");
        let tail: f64 = (1..self.dim).map(|i| z[i] * z[i]).sum();
        z[0] - self.beta + self.curvature * tail
    }

    fn name(&self) -> &str {
        "quadratic-limit-state"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_failure_and_margin() {
        let upper = Spec::UpperLimit(2.0);
        assert!(upper.is_failure(2.5));
        assert!(!upper.is_failure(1.5));
        assert!(upper.is_failure(f64::NAN));
        assert_eq!(upper.failure_margin(3.0), 1.0);
        assert_eq!(upper.failure_margin(1.0), -1.0);
        assert_eq!(upper.limit(), 2.0);

        let lower = Spec::LowerLimit(0.5);
        assert!(lower.is_failure(0.1));
        assert!(!lower.is_failure(0.9));
        assert_eq!(lower.failure_margin(0.2), 0.3);
        assert!(lower.failure_margin(f64::NAN).is_infinite());
    }

    #[test]
    fn fn_model_adapts_closures() {
        let m = FnModel::new("norm", 2, |z: &Vector| z.norm());
        assert_eq!(m.dim(), 2);
        assert_eq!(m.name(), "norm");
        assert_eq!(m.evaluate(&Vector::from_slice(&[3.0, 4.0])), 5.0);
        assert!(format!("{m:?}").contains("norm"));
    }

    #[test]
    fn failure_problem_counts_evaluations() {
        let problem = FailureProblem::from_model(
            LinearLimitState::along_first_axis(2, 3.0),
            LinearLimitState::spec(),
        );
        assert_eq!(problem.evaluations(), 0);
        let z = Vector::from_slice(&[4.0, 0.0]);
        assert!(problem.is_failure(&z));
        assert!(problem.failure_margin(&z) > 0.0);
        let _ = problem.metric(&Vector::zeros(2));
        assert_eq!(problem.evaluations(), 3);

        // Clones share the counter, forks do not.
        let clone = problem.clone();
        let _ = clone.metric(&Vector::zeros(2));
        assert_eq!(problem.evaluations(), 4);
        let fork = problem.fork();
        let _ = fork.metric(&Vector::zeros(2));
        assert_eq!(fork.evaluations(), 1);
        assert_eq!(problem.evaluations(), 4);

        assert_eq!(problem.dim(), 2);
        assert_eq!(problem.model_name(), "linear-limit-state");
        assert!(format!("{problem:?}").contains("linear-limit-state"));
    }

    #[test]
    fn batch_paths_match_scalar_paths_and_charge_per_point() {
        let problem = FailureProblem::from_model(
            QuadraticLimitState::new(3, 2.0, 0.1),
            QuadraticLimitState::spec(),
        );
        let points: Vec<Vector> = [
            [0.0, 0.0, 0.0],
            [2.5, 0.3, -0.4],
            [1.0, -1.0, 2.0],
            [3.0, 0.0, 0.0],
        ]
        .iter()
        .map(|p| Vector::from_slice(p))
        .collect();

        let scalar_fork = problem.fork();
        let scalar_metrics: Vec<f64> = points.iter().map(|z| scalar_fork.metric(z)).collect();
        assert_eq!(scalar_fork.evaluations(), points.len() as u64);

        let batch_fork = problem.fork();
        let batch_metrics = batch_fork.metrics_batch(&points);
        assert_eq!(batch_fork.evaluations(), points.len() as u64);
        for (a, b) in scalar_metrics.iter().zip(&batch_metrics) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        for exec in [Executor::serial(), Executor::new(4).with_chunk_size(2)] {
            let fork = problem.fork();
            let margins = fork.failure_margins_batch_on(&exec, &points);
            let fails = fork.is_failure_batch_on(&exec, &points);
            assert_eq!(fork.evaluations(), 2 * points.len() as u64);
            for (i, z) in points.iter().enumerate() {
                assert_eq!(
                    margins[i].to_bits(),
                    problem.spec().failure_margin(scalar_metrics[i]).to_bits()
                );
                assert_eq!(fails[i], problem.fork().is_failure(z));
            }
        }
        assert_eq!(
            problem
                .fork()
                .failure_margins_batch_on(&Executor::serial(), &points),
            problem
                .fork()
                .failure_margins_batch_on(&Executor::new(8), &points)
        );
        assert_eq!(
            problem
                .fork()
                .is_failure_batch_on(&Executor::serial(), &points),
            problem
                .fork()
                .is_failure_batch_on(&Executor::new(3), &points)
        );
    }

    #[test]
    fn default_evaluate_batch_is_the_scalar_loop() {
        let model = FnModel::new("sum", 2, |z: &Vector| z.sum());
        let points = vec![
            Vector::from_slice(&[1.0, 2.0]),
            Vector::from_slice(&[-3.0, 0.5]),
        ];
        assert_eq!(
            model.evaluate_batch(&points),
            points.iter().map(|z| model.evaluate(z)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn linear_limit_state_properties() {
        let ls = LinearLimitState::new(Vector::from_slice(&[3.0, 4.0]), 4.0);
        // Direction is normalized.
        assert!((ls.exact_mpfp().norm() - 4.0).abs() < 1e-12);
        assert_eq!(ls.beta(), 4.0);
        // At the MPFP the limit state is exactly zero.
        assert!(ls.evaluate(&ls.exact_mpfp()).abs() < 1e-12);
        // At the origin it is −β.
        assert!((ls.evaluate(&Vector::zeros(2)) + 4.0).abs() < 1e-12);
        // Exact probability matches the normal tail.
        let p = ls.exact_failure_probability();
        assert!((p - gis_stats::normal::upper_tail_probability(4.0)).abs() < 1e-18);
        assert_eq!(LinearLimitState::spec(), Spec::UpperLimit(0.0));
    }

    #[test]
    fn quadratic_limit_state_reference_probability() {
        // Zero curvature reduces to the linear case.
        let q = QuadraticLimitState::new(4, 3.0, 0.0);
        let expected = gis_stats::normal::upper_tail_probability(3.0);
        assert!((q.reference_failure_probability() - expected).abs() / expected < 1e-6);

        // Positive curvature enlarges the failure region.
        let q_curved = QuadraticLimitState::new(4, 3.0, 0.05);
        assert!(q_curved.reference_failure_probability() > expected);
        assert_eq!(q_curved.beta(), 3.0);
        assert_eq!(q_curved.curvature(), 0.05);

        // Evaluation agrees with the definition.
        let z = Vector::from_slice(&[1.0, 2.0, 0.0, 0.0]);
        assert!((q_curved.evaluate(&z) - (1.0 - 3.0 + 0.05 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn quadratic_monte_carlo_cross_check() {
        // Cheap sanity check of the quadrature reference at a low sigma level
        // where plain Monte Carlo converges quickly.
        use gis_stats::RngStream;
        let q = QuadraticLimitState::new(3, 1.5, 0.1);
        let reference = q.reference_failure_probability();
        let mut rng = RngStream::from_seed(77);
        let n = 200_000;
        let mut failures = 0u64;
        for _ in 0..n {
            let z = rng.standard_normal_vector(3);
            if QuadraticLimitState::spec().is_failure(q.evaluate(&z)) {
                failures += 1;
            }
        }
        let p_mc = failures as f64 / n as f64;
        let rel = (p_mc - reference).abs() / reference;
        assert!(rel < 0.05, "quadrature {reference:e} vs MC {p_mc:e}");
    }
}
