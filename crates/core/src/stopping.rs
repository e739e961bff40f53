//! The sequential stopping rule of every sampling estimator.
//!
//! # Why a plain first-passage rule is not enough
//!
//! Every sequential estimator (Monte Carlo, the importance-sampling loop
//! shared by GIS and minimum-norm IS, spherical sampling) checks after each
//! batch whether the *measured* relative standard error has reached the
//! target. The measured relative error is itself a noisy estimate: with `k`
//! observed failures its own relative standard deviation is ≈ `1/√(2k)` (the
//! delta-method dispersion of a binomial/weighted standard-error estimate).
//! Stopping at the *first passage* below the target therefore preferentially
//! selects downward fluctuations of the error estimate — the run halts
//! precisely when the error bar happens to look small — so the reported
//! confidence intervals come out narrower than the truth and empirical
//! coverage sits below nominal.
//!
//! # The rule
//!
//! [`StoppingRule`] scales both the stop check and the reported error bar by
//! the same first-passage dispersion factor `c(k) = 1 + 1/√(2k)`
//! ([`first_passage_inflation`]):
//!
//! 1. **Stop later**: a check passes when at least the failure floor has
//!    been observed and `rel_err · c(k) ≤ target`, i.e. the target holds
//!    even if the measured error is one standard deviation of itself too
//!    optimistic.
//! 2. **Persist**: the run stops at the *second consecutive* passing check.
//!    For weighted importance sampling the error estimate's own dispersion
//!    can be far heavier-tailed than `1/√(2k)` suggests (a misaligned
//!    proposal makes the variance estimator itself high-variance); a
//!    genuinely converged run passes back-to-back batches at the cost of one
//!    extra batch, while a single lucky dip no longer stops it.
//! 3. **Report honestly**: an early-stopped run reports its standard error
//!    inflated by `c(k)`, so the bar covers the selection bias of the
//!    optional stop. A run that used up its budget took no optional stop and
//!    reports its measured error untouched.
//!
//! On the fast calibration suite (100 replications, binomial band
//! [81, 97]/100) the plain first-passage rule this replaced covered 80/100
//! for minimum-norm IS on two geometries, where this rule covers 82/100; the
//! frozen comparison is the `stopping_rule_ab` block of the committed
//! `BENCH_calibration.json`.
//!
//! # Which failure count `k`?
//!
//! For unweighted samplers (Monte Carlo, spherical) `k` is the raw failure
//! count. For weighted importance sampling the raw count overstates the
//! information in the error bar when the weights are degenerate, so the IS
//! loop passes the *effective* failure count — the Kish effective sample
//! size of the failing weights
//! ([`crate::IsAccumulator::effective_failures`]), which equals the raw
//! count for equal weights and shrinks with weight spread.

/// First-passage dispersion factor `c(k) = 1 + 1/√(2k)`: one relative
/// standard deviation of the error-bar estimate itself at `k` failures.
///
/// `k` is `f64` because weighted IS feeds an *effective* failure count (a
/// Kish effective sample size); unweighted samplers pass their integer
/// count exactly. `k ≤ 0` yields `inf` (an error bar based on zero failures
/// carries no information), which composes correctly with the stopping
/// criterion — an infinite inflated error never passes a finite target.
pub fn first_passage_inflation(failures: f64) -> f64 {
    if failures <= 0.0 {
        return f64::INFINITY;
    }
    1.0 + 1.0 / (2.0 * failures).sqrt()
}

/// The per-run sequential stopping rule: built from the run's target
/// relative error and failure floor, fed once per batch.
#[derive(Debug, Clone, Copy)]
pub struct StoppingRule {
    target_relative_error: f64,
    min_failures: u64,
    passed_previous: bool,
}

impl StoppingRule {
    /// A fresh rule for one run (no checks passed yet).
    pub fn new(target_relative_error: f64, min_failures: u64) -> Self {
        StoppingRule {
            target_relative_error,
            min_failures,
            passed_previous: false,
        }
    }

    /// Feeds one convergence check; returns `true` when the run may stop.
    ///
    /// A check passes when `failures` reaches the floor and
    /// `relative_error · c(failures)` is at or below the target; the run
    /// stops at the second *consecutive* passing check, and a failing check
    /// resets the persistence requirement.
    pub fn check(&mut self, failures: f64, relative_error: f64) -> bool {
        let pass = failures >= self.min_failures as f64
            && relative_error * first_passage_inflation(failures) <= self.target_relative_error;
        let stop = pass && self.passed_previous;
        self.passed_previous = pass;
        stop
    }

    /// The standard error a run reports: inflated by `c(failures)` when the
    /// run stopped early (`converged`), untouched when it used up its budget.
    pub fn reported_standard_error(
        &self,
        standard_error: f64,
        failures: f64,
        converged: bool,
    ) -> f64 {
        if converged {
            standard_error * first_passage_inflation(failures)
        } else {
            standard_error
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflation_decays_with_failures() {
        assert!(first_passage_inflation(0.0).is_infinite());
        assert!((first_passage_inflation(2.0) - (1.0 + 0.5)).abs() < 1e-12);
        assert!((first_passage_inflation(50.0) - 1.1).abs() < 1e-12);
        assert!(first_passage_inflation(20.0) > first_passage_inflation(200.0));
        assert!(first_passage_inflation(1_000_000.0) < 1.001);
    }

    /// Whether one check passes, judged by two consecutive identical checks
    /// on a fresh rule.
    fn passes(failures: f64, min_failures: u64, relative_error: f64, target: f64) -> bool {
        let mut rule = StoppingRule::new(target, min_failures);
        rule.check(failures, relative_error);
        rule.check(failures, relative_error)
    }

    #[test]
    fn a_check_demands_the_inflated_error_under_the_target() {
        // A measured error exactly at the target does not pass...
        assert!(!passes(20.0, 20, 0.1, 0.1));
        // ...one with enough margin does.
        assert!(passes(20.0, 20, 0.08, 0.1));
        // The failure floor dominates — including a fractional effective
        // count just under it.
        assert!(!passes(5.0, 20, 0.01, 0.1));
        assert!(!passes(19.4, 20, 0.01, 0.1));
    }

    #[test]
    fn inflated_threshold_converges_to_the_target() {
        // As failures grow the correction vanishes: the rule accepts errors
        // approaching the full target.
        let target = 0.1;
        let k = 500_000.0;
        let accepted = target / first_passage_inflation(k);
        assert!(accepted > 0.099);
        assert!(passes(k, 20, accepted, target));
    }

    #[test]
    fn rule_requires_two_consecutive_passes() {
        let mut rule = StoppingRule::new(0.1, 20);
        // A single dip below the target is not enough...
        assert!(!rule.check(50.0, 0.05));
        // ...a failing check resets the persistence...
        assert!(!rule.check(50.0, 0.2));
        assert!(!rule.check(60.0, 0.05));
        // ...and the second consecutive pass stops the run.
        assert!(rule.check(70.0, 0.05));
    }

    #[test]
    fn reported_error_inflated_only_on_early_stop() {
        let rule = StoppingRule::new(0.1, 20);
        let se = 0.02;
        let inflated = rule.reported_standard_error(se, 25.0, true);
        assert!((inflated - se * first_passage_inflation(25.0)).abs() < 1e-15);
        assert_eq!(rule.reported_standard_error(se, 25.0, false), se);
        assert_eq!(rule.reported_standard_error(se, 0.0, false), se);
    }
}
