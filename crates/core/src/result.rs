//! Common result types reported by every failure-probability estimator.

use serde::{Deserialize, Serialize};

/// One point of a convergence trace: the running estimate after a given number
/// of simulator evaluations.
///
/// Equality compares the floats by bit pattern (see [`ExtractionResult`] for
/// why).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Cumulative number of metric evaluations when the snapshot was taken.
    pub evaluations: u64,
    /// Failure-probability estimate at that point.
    pub estimate: f64,
    /// Relative standard error (σ/μ) of the estimate at that point; `inf` when
    /// no failure has been observed yet.
    pub relative_error: f64,
}

impl PartialEq for ConvergencePoint {
    fn eq(&self, other: &Self) -> bool {
        self.evaluations == other.evaluations
            && self.estimate.to_bits() == other.estimate.to_bits()
            && self.relative_error.to_bits() == other.relative_error.to_bits()
    }
}

/// Figure of merit `1 / (ρ² · N)` where `ρ` is the relative standard error
/// after `N` evaluations — the standard efficiency measure used to compare
/// rare-event estimators independent of where they were stopped.
pub fn figure_of_merit(relative_error: f64, evaluations: u64) -> f64 {
    if relative_error <= 0.0 || !relative_error.is_finite() || evaluations == 0 {
        return 0.0;
    }
    1.0 / (relative_error * relative_error * evaluations as f64)
}

/// Result of a failure-probability extraction.
///
/// Equality compares every float by bit pattern, like
/// [`crate::analysis::ComparisonRow`]: "same statistical content, bit for
/// bit" must hold for results that legitimately contain non-finite values —
/// `sigma_level` is `NaN` when no failure was observed, early trace points
/// carry an `inf` relative error — and the IEEE rule `NaN ≠ NaN` would
/// otherwise make such a result compare unequal *to itself*, breaking
/// determinism and checkpoint-resume assertions for exactly the far-tail runs
/// they matter most for.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtractionResult {
    /// Name of the method that produced the result (e.g. `"gradient-is"`).
    pub method: String,
    /// Estimated failure probability.
    pub failure_probability: f64,
    /// Standard error of the estimate.
    pub standard_error: f64,
    /// Equivalent sigma level `Φ⁻¹(1 − P_fail)`; `NaN` if the estimate is zero.
    pub sigma_level: f64,
    /// Total number of metric (simulator) evaluations consumed, including any
    /// search/presampling phase.
    pub evaluations: u64,
    /// Number of sampling-phase evaluations only (excludes MPFP search etc.).
    pub sampling_evaluations: u64,
    /// Number of observed failing samples.
    pub failures_observed: u64,
    /// The estimator's own convergence claim, which means different things
    /// for different estimators:
    ///
    /// * Monte Carlo, GIS, minimum-norm IS and spherical sampling: the
    ///   sequential stopping rule of [`crate::stopping`] stopped the run
    ///   before its budget ran out, so the relative error met the target
    ///   with at least the minimum number of failures (effective failures
    ///   for the importance-sampling methods). Minimum-norm IS
    ///   whose search found no failure reports `false`.
    /// * Scaled-sigma sampling has no accuracy target. The flag is `true`
    ///   whenever at least three scales saw enough failures and the
    ///   extrapolation's variance is finite, however wide the error bar; it
    ///   says nothing about accuracy.
    pub converged: bool,
    /// Convergence trace (running estimate vs evaluations).
    pub trace: Vec<ConvergencePoint>,
}

impl PartialEq for ExtractionResult {
    fn eq(&self, other: &Self) -> bool {
        self.method == other.method
            && self.failure_probability.to_bits() == other.failure_probability.to_bits()
            && self.standard_error.to_bits() == other.standard_error.to_bits()
            && self.sigma_level.to_bits() == other.sigma_level.to_bits()
            && self.evaluations == other.evaluations
            && self.sampling_evaluations == other.sampling_evaluations
            && self.failures_observed == other.failures_observed
            && self.converged == other.converged
            && self.trace == other.trace
    }
}

impl ExtractionResult {
    /// Relative standard error σ/μ of the estimate (`inf` when the estimate is zero).
    pub fn relative_error(&self) -> f64 {
        if self.failure_probability > 0.0 {
            self.standard_error / self.failure_probability
        } else {
            f64::INFINITY
        }
    }

    /// 90% confidence interval half-width expressed relative to the estimate —
    /// the stopping quantity quoted in the evaluation tables ("±10% at 90%").
    pub fn relative_confidence_90(&self) -> f64 {
        1.6448536269514722 * self.relative_error()
    }

    /// Figure of merit `1/(ρ²·N)` of this extraction.
    pub fn figure_of_merit(&self) -> f64 {
        figure_of_merit(self.relative_error(), self.evaluations)
    }

    /// Builds the sigma level from a failure probability, handling edge cases.
    pub fn sigma_from_probability(p_fail: f64) -> f64 {
        if p_fail <= 0.0 || p_fail >= 1.0 {
            f64::NAN
        } else {
            gis_stats::normal::sigma_level(p_fail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(p: f64, se: f64, evals: u64) -> ExtractionResult {
        ExtractionResult {
            method: "test".to_string(),
            failure_probability: p,
            standard_error: se,
            sigma_level: ExtractionResult::sigma_from_probability(p),
            evaluations: evals,
            sampling_evaluations: evals,
            failures_observed: 10,
            converged: true,
            trace: vec![],
        }
    }

    #[test]
    fn relative_error_and_fom() {
        let r = result(1e-6, 1e-7, 1000);
        assert!((r.relative_error() - 0.1).abs() < 1e-12);
        assert!((r.figure_of_merit() - 1.0 / (0.01 * 1000.0)).abs() < 1e-9);
        assert!((r.relative_confidence_90() - 0.16448536269514722).abs() < 1e-9);
    }

    #[test]
    fn zero_probability_edge_cases() {
        let r = result(0.0, 0.0, 1000);
        assert!(r.relative_error().is_infinite());
        assert_eq!(r.figure_of_merit(), 0.0);
        assert!(r.sigma_level.is_nan());
    }

    #[test]
    fn sigma_conversion() {
        let s = ExtractionResult::sigma_from_probability(
            gis_stats::normal::upper_tail_probability(4.5),
        );
        assert!((s - 4.5).abs() < 1e-3);
        assert!(ExtractionResult::sigma_from_probability(0.0).is_nan());
        assert!(ExtractionResult::sigma_from_probability(1.5).is_nan());
    }

    #[test]
    fn figure_of_merit_edge_cases() {
        assert_eq!(figure_of_merit(0.0, 100), 0.0);
        assert_eq!(figure_of_merit(f64::INFINITY, 100), 0.0);
        assert_eq!(figure_of_merit(0.1, 0), 0.0);
        assert!(figure_of_merit(0.1, 100) > 0.0);
    }
}
