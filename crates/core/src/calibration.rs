//! Statistical calibration harness: are the reported error bars honest?
//!
//! Every estimator in this crate reports a failure probability *and* a
//! standard error, and every table of the evaluation quotes confidence
//! intervals built from them. This module measures whether those intervals
//! deserve their nominal level: it runs `N` independent replications of each
//! [`Estimator`] on each [`BenchmarkProblem`] (whose true probability is
//! known in closed form) and reduces them to
//!
//! * **empirical coverage** — the fraction of replications whose reported
//!   confidence interval contains the truth, tested against the *binomial
//!   acceptance band* of the nominal level
//!   ([`gis_stats::binomial_acceptance_band`]): with honest error bars the
//!   covered count is `Binomial(N, level)`, so landing outside the band
//!   convicts the method (at the band's `alpha`) of over- or
//!   under-confidence;
//! * **relative bias** — `(mean(p̂) − p) / p`;
//! * **relative RMSE** — the actual accuracy achieved, independent of what
//!   the method claims;
//! * **sample efficiency** — mean evaluations spent and the empirical figure
//!   of merit `1 / (rRMSE² · N̄_evals)`, comparable across methods.
//!
//! Replications are dispatched onto the worker threads of a matrix
//! [`crate::exec::Executor`]; every replication derives its own RNG seed from the master
//! seed, the problem name, the estimator name and the replication index —
//! order-independently — so the report is **bit-identical at any thread
//! count** (and under any `GIS_THREADS`).
//!
//! ```
//! use gis_core::calibration::Calibrator;
//! use gis_core::problems::BenchmarkProblem;
//! use gis_core::{ConvergencePolicy, MonteCarlo, MonteCarloConfig};
//!
//! let report = Calibrator::new()
//!     .master_seed(7)
//!     .replications(20)
//!     .convergence_policy(ConvergencePolicy::with_budget(4_000))
//!     .problem(BenchmarkProblem::linear(4, 2.5))
//!     .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
//!     .run();
//! let row = &report.rows[0];
//! assert_eq!(row.replications, 20);
//! assert!(row.coverage >= 0.0 && row.coverage <= 1.0);
//! ```

use crate::analysis::{assert_unique, configure_estimators};
use crate::estimator::{ConvergencePolicy, Estimator};
use crate::exec::ExecutionConfig;
use crate::problems::BenchmarkProblem;
use gis_stats::rng::{fnv1a, splitmix64};
use gis_stats::{binomial_acceptance_band, normal, RngStream};
use serde::{Deserialize, Serialize};

/// One replication of one estimator on one problem, reduced to the fields
/// the calibration statistics need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Replication {
    /// The derived RNG seed (reproduces this replication in isolation).
    pub seed: u64,
    /// Reported failure probability.
    pub estimate: f64,
    /// Reported standard error.
    pub standard_error: f64,
    /// Total metric evaluations spent.
    pub evaluations: u64,
    /// Whether the method reported convergence.
    pub converged: bool,
    /// Whether the reported confidence interval covered the true probability.
    /// A replication without a usable error bar (non-finite standard error,
    /// e.g. no failures observed) never covers.
    pub covered: bool,
}

/// Calibration statistics of one (problem, estimator) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationRow {
    /// Benchmark problem name.
    pub problem: String,
    /// Estimator name.
    pub estimator: String,
    /// True failure probability of the problem.
    pub exact_probability: f64,
    /// Number of replications run.
    pub replications: u32,
    /// Replications whose reported confidence interval covered the truth.
    pub covered: u32,
    /// Empirical coverage `covered / replications`.
    pub coverage: f64,
    /// Lower edge of the binomial acceptance band (as a proportion).
    pub band_lower: f64,
    /// Upper edge of the binomial acceptance band (as a proportion).
    pub band_upper: f64,
    /// Whether the empirical coverage lies within the acceptance band —
    /// the honesty verdict of this cell.
    pub within_band: bool,
    /// Mean of the reported estimates.
    pub mean_estimate: f64,
    /// Relative bias `(mean(p̂) − p) / p`.
    pub relative_bias: f64,
    /// Relative root-mean-square error `rms(p̂ − p) / p` — the accuracy the
    /// method actually achieved.
    pub relative_rmse: f64,
    /// Mean of the *reported* relative standard errors (`se/p̂` over the
    /// replications with a usable error bar); compare against
    /// `relative_rmse` to see whether the method's self-assessment matches
    /// reality.
    pub mean_reported_relative_error: f64,
    /// Fraction of replications that reported convergence.
    pub converged_fraction: f64,
    /// Replications that produced a zero estimate (no failure observed).
    pub zero_estimates: u32,
    /// Mean metric evaluations spent per replication.
    pub mean_evaluations: f64,
    /// Empirical figure of merit `1 / (relative_rmse² · mean_evaluations)`:
    /// accuracy actually delivered per simulator call. `0` when the RMSE is
    /// not finite or no evaluations were spent.
    pub empirical_figure_of_merit: f64,
}

impl CalibrationRow {
    /// Signed distance of the covered count from the nearest band edge, in
    /// replications (positive inside the band). Useful for spotting cells
    /// that pass with no margin.
    pub fn band_margin(&self) -> f64 {
        let n = self.replications as f64;
        let lo = self.band_lower * n;
        let hi = self.band_upper * n;
        (self.covered as f64 - lo).min(hi - self.covered as f64)
    }
}

/// The full output of a [`Calibrator`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Master seed every replication seed was derived from.
    pub master_seed: u64,
    /// Nominal confidence level of the tested intervals (e.g. `0.9`).
    pub confidence_level: f64,
    /// Tail mass of the binomial acceptance band.
    pub band_alpha: f64,
    /// Replications per (problem, estimator) cell.
    pub replications: u32,
    /// One row per (problem, estimator) cell, problems outermost, both in
    /// registration order.
    pub rows: Vec<CalibrationRow>,
}

impl CalibrationReport {
    /// Looks up the row of a (problem, estimator) cell.
    pub fn row(&self, problem: &str, estimator: &str) -> Option<&CalibrationRow> {
        self.rows
            .iter()
            .find(|r| r.problem == problem && r.estimator == estimator)
    }

    /// `true` when every cell's empirical coverage lies within its binomial
    /// acceptance band — the pass verdict of the calibration gate.
    pub fn all_within_band(&self) -> bool {
        self.rows.iter().all(|r| r.within_band)
    }

    /// Rows whose coverage falls outside the acceptance band.
    pub fn violations(&self) -> Vec<&CalibrationRow> {
        self.rows.iter().filter(|r| !r.within_band).collect()
    }

    /// The smallest [`CalibrationRow::band_margin`] across all cells.
    pub fn worst_band_margin(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.band_margin())
            .fold(f64::INFINITY, f64::min)
    }
}

/// Derives the deterministic seed of one calibration replication from the
/// master seed, both names and the replication index. Like
/// [`crate::YieldAnalysis::derived_seed`] the derivation hashes the names, so
/// it is independent of registration order and of the replication count of
/// any other cell.
pub fn replication_seed(
    master_seed: u64,
    problem_name: &str,
    estimator_name: &str,
    replication: u32,
) -> u64 {
    let mix = fnv1a(problem_name)
        ^ fnv1a(estimator_name).rotate_left(17)
        ^ splitmix64(0xC2B2_AE3D_27D4_EB4F ^ replication as u64);
    RngStream::from_seed(master_seed).split(mix).seed()
}

/// Builder-style calibration driver: registers benchmark problems and
/// estimators, runs the replication matrix, reduces it to a
/// [`CalibrationReport`]. See the [module documentation](self).
#[derive(Default)]
pub struct Calibrator {
    problems: Vec<BenchmarkProblem>,
    estimators: Vec<Box<dyn Estimator>>,
    master_seed: u64,
    replications: u32,
    confidence_level: f64,
    band_alpha: f64,
    policy: Option<ConvergencePolicy>,
    execution: Option<ExecutionConfig>,
    matrix: ExecutionConfig,
}

impl Calibrator {
    /// Creates an empty calibrator: 100 replications, 90% nominal intervals,
    /// an acceptance band with `alpha = 0.002`, matrix threads from
    /// `GIS_THREADS`.
    pub fn new() -> Self {
        Calibrator {
            problems: Vec::new(),
            estimators: Vec::new(),
            master_seed: 0,
            replications: 100,
            confidence_level: 0.9,
            band_alpha: 0.002,
            policy: None,
            execution: None,
            matrix: ExecutionConfig::default(),
        }
    }

    /// Sets the master seed all replication seeds derive from.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the number of replications per (problem, estimator) cell.
    pub fn replications(mut self, replications: u32) -> Self {
        self.replications = replications;
        self
    }

    /// Sets the nominal confidence level whose coverage is tested
    /// (default 0.9).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `(0, 1)`.
    pub fn confidence_level(mut self, level: f64) -> Self {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must be in (0, 1)"
        );
        self.confidence_level = level;
        self
    }

    /// Sets the tail mass `alpha` of the binomial acceptance band
    /// (default 0.002).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1)`.
    pub fn band_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "band alpha must be in (0, 1)");
        self.band_alpha = alpha;
        self
    }

    /// Imposes a uniform budget/stopping policy on every estimator.
    pub fn convergence_policy(mut self, policy: ConvergencePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Imposes one within-estimator parallelism configuration on every
    /// estimator (results are invariant to it by the [`crate::exec`]
    /// contract).
    pub fn execution(mut self, execution: ExecutionConfig) -> Self {
        self.execution = Some(execution);
        self
    }

    /// Sets the matrix parallelism used to dispatch replications (results
    /// are invariant to it; wall-clock is not).
    pub fn matrix(mut self, matrix: ExecutionConfig) -> Self {
        self.matrix = matrix;
        self
    }

    /// Registers one benchmark problem.
    pub fn problem(mut self, problem: BenchmarkProblem) -> Self {
        self.problems.push(problem);
        self
    }

    /// Registers several benchmark problems (e.g.
    /// [`BenchmarkProblem::standard_suite`]).
    pub fn problems(mut self, problems: Vec<BenchmarkProblem>) -> Self {
        self.problems.extend(problems);
        self
    }

    /// Registers one estimator.
    pub fn estimator(mut self, estimator: Box<dyn Estimator>) -> Self {
        self.estimators.push(estimator);
        self
    }

    /// Registers several estimators (e.g. [`crate::standard_estimators`]).
    pub fn estimators(mut self, estimators: Vec<Box<dyn Estimator>>) -> Self {
        self.estimators.extend(estimators);
        self
    }

    /// Runs the full replication matrix and reduces it to a report.
    ///
    /// Replications are dispatched as independent tasks onto the matrix
    /// executor; each derives its seed via [`replication_seed`] and runs
    /// against its own [`BenchmarkProblem::fork`], so the report depends
    /// only on the registered configuration — never on scheduling.
    ///
    /// # Panics
    ///
    /// Panics if no problems, no estimators or zero replications are
    /// registered, if two problems or two estimators share a name, or if a
    /// configured [`ConvergencePolicy`] is invalid.
    pub fn run(&mut self) -> CalibrationReport {
        assert!(
            !self.problems.is_empty(),
            "Calibrator: no problems registered"
        );
        assert!(
            !self.estimators.is_empty(),
            "Calibrator: no estimators registered"
        );
        assert!(self.replications > 0, "Calibrator: zero replications");
        assert_unique("problem", self.problems.iter().map(BenchmarkProblem::name));
        assert_unique("estimator", self.estimators.iter().map(|e| e.name()));
        configure_estimators(
            "Calibrator",
            &mut self.estimators,
            self.policy,
            self.execution,
        );

        let z = normal::quantile(0.5 + self.confidence_level / 2.0);
        let reps = self.replications as usize;
        let estimators = self.estimators.len();
        let total = self.problems.len() * estimators * reps;
        let executor = self.matrix.executor();
        // One flat task per replication: task → (problem, estimator, rep) is
        // a pure function of the index, so the output is deterministic at
        // any matrix thread count.
        let flat: Vec<Replication> = executor.map_tasks(total, |index| {
            let pi = index / (estimators * reps);
            let rest = index % (estimators * reps);
            let (ei, rep) = (rest / reps, (rest % reps) as u32);
            let bench = &self.problems[pi];
            let estimator = &self.estimators[ei];
            let seed = replication_seed(self.master_seed, bench.name(), estimator.name(), rep);
            let outcome = estimator.estimate(&bench.fork(), &mut RngStream::from_seed(seed));
            let result = outcome.result;
            let covered = result.standard_error.is_finite()
                && (result.failure_probability - bench.exact_probability()).abs()
                    <= z * result.standard_error;
            Replication {
                seed,
                estimate: result.failure_probability,
                standard_error: result.standard_error,
                evaluations: result.evaluations,
                converged: result.converged,
                covered,
            }
        });

        let (band_lo, band_hi) = binomial_acceptance_band(
            self.replications as u64,
            self.confidence_level,
            self.band_alpha,
        );
        let mut rows = Vec::with_capacity(self.problems.len() * estimators);
        for (pi, bench) in self.problems.iter().enumerate() {
            for (ei, estimator) in self.estimators.iter().enumerate() {
                let start = (pi * estimators + ei) * reps;
                let cell = &flat[start..start + reps];
                rows.push(self.reduce_cell(bench, estimator.name(), cell, band_lo, band_hi));
            }
        }
        CalibrationReport {
            master_seed: self.master_seed,
            confidence_level: self.confidence_level,
            band_alpha: self.band_alpha,
            replications: self.replications,
            rows,
        }
    }

    fn reduce_cell(
        &self,
        bench: &BenchmarkProblem,
        estimator: &str,
        cell: &[Replication],
        band_lo: u64,
        band_hi: u64,
    ) -> CalibrationRow {
        let n = cell.len() as f64;
        let truth = bench.exact_probability();
        let covered = cell.iter().filter(|r| r.covered).count() as u32;
        let mean_estimate = cell.iter().map(|r| r.estimate).sum::<f64>() / n;
        let mse = cell
            .iter()
            .map(|r| (r.estimate - truth) * (r.estimate - truth))
            .sum::<f64>()
            / n;
        let relative_rmse = mse.sqrt() / truth;
        let usable: Vec<f64> = cell
            .iter()
            .filter(|r| r.standard_error.is_finite() && r.estimate > 0.0)
            .map(|r| r.standard_error / r.estimate)
            .collect();
        let mean_reported_relative_error = if usable.is_empty() {
            f64::INFINITY
        } else {
            usable.iter().sum::<f64>() / usable.len() as f64
        };
        let mean_evaluations = cell.iter().map(|r| r.evaluations as f64).sum::<f64>() / n;
        let empirical_figure_of_merit =
            if relative_rmse.is_finite() && relative_rmse > 0.0 && mean_evaluations > 0.0 {
                1.0 / (relative_rmse * relative_rmse * mean_evaluations)
            } else {
                0.0
            };
        CalibrationRow {
            problem: bench.name().to_string(),
            estimator: estimator.to_string(),
            exact_probability: truth,
            replications: cell.len() as u32,
            covered,
            coverage: covered as f64 / n,
            band_lower: band_lo as f64 / n,
            band_upper: band_hi as f64 / n,
            within_band: (band_lo..=band_hi).contains(&(covered as u64)),
            mean_estimate,
            relative_bias: (mean_estimate - truth) / truth,
            relative_rmse,
            mean_reported_relative_error,
            converged_fraction: cell.iter().filter(|r| r.converged).count() as f64 / n,
            zero_estimates: cell.iter().filter(|r| r.estimate == 0.0).count() as u32, // gis-analyze: allow(float-eq, exact-zero sentinel counting estimators that saw no failures)
            mean_evaluations,
            empirical_figure_of_merit,
        }
    }
}

impl std::fmt::Debug for Calibrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calibrator")
            .field("master_seed", &self.master_seed)
            .field("replications", &self.replications)
            .field("confidence_level", &self.confidence_level)
            .field("band_alpha", &self.band_alpha)
            .field(
                "problems",
                &self.problems.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .field(
                "estimators",
                &self.estimators.iter().map(|e| e.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{MonteCarlo, MonteCarloConfig};
    use crate::problems::BenchmarkProblem;

    fn small_calibrator() -> Calibrator {
        Calibrator::new()
            .master_seed(13)
            .replications(24)
            .convergence_policy(ConvergencePolicy::with_budget(3_000))
            .problem(BenchmarkProblem::linear(4, 2.0))
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
    }

    #[test]
    fn monte_carlo_coverage_is_close_to_nominal_at_low_sigma() {
        // β = 2, 3k samples → ~68 failures/rep: the binomial CI is in its
        // comfort zone, so coverage must land inside a generous band.
        let report = small_calibrator().run();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.replications, 24);
        assert!(row.coverage > 0.6, "coverage {}", row.coverage);
        assert!(row.relative_bias.abs() < 0.2);
        assert!(row.relative_rmse < 0.5);
        assert!(row.mean_evaluations > 0.0);
        assert!(row.empirical_figure_of_merit > 0.0);
        assert!(report.row("linear-4d-2.0s", "monte-carlo").is_some());
        assert!(report.row("linear-4d-2.0s", "nope").is_none());
    }

    #[test]
    fn report_is_bit_identical_at_any_matrix_thread_count() {
        let reference = small_calibrator().matrix(ExecutionConfig::serial()).run();
        for threads in [2, 8] {
            let parallel = small_calibrator()
                .matrix(ExecutionConfig::with_threads(threads))
                .run();
            assert_eq!(parallel, reference, "diverged at {threads} matrix threads");
        }
    }

    #[test]
    fn replication_seeds_are_order_independent_and_distinct() {
        let a = replication_seed(5, "p", "monte-carlo", 0);
        // Independent of anything registered elsewhere — pure function.
        assert_eq!(a, replication_seed(5, "p", "monte-carlo", 0));
        assert_ne!(a, replication_seed(5, "p", "monte-carlo", 1));
        assert_ne!(a, replication_seed(5, "q", "monte-carlo", 0));
        assert_ne!(a, replication_seed(5, "p", "gradient-is", 0));
        assert_ne!(a, replication_seed(6, "p", "monte-carlo", 0));
        // Replication 0 must differ from the YieldAnalysis cell seed so a
        // calibration never reuses the driver's stream.
        let analysis_seed = crate::YieldAnalysis::new()
            .master_seed(5)
            .derived_seed("p", "monte-carlo");
        assert_ne!(a, analysis_seed);
    }

    #[test]
    fn report_serializes_round_trip() {
        let report = small_calibrator().run();
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        let back: CalibrationReport = serde_json::from_str(&json).expect("round trips");
        assert_eq!(back, report);
    }

    #[test]
    fn report_with_non_finite_fields_round_trips() {
        // A cell where no replication ever observes a failure reports an
        // infinite mean relative error; the serializer's ±1e999 convention
        // (valid JSON number syntax) must carry it through the artifact.
        let mut calibrator = Calibrator::new()
            .master_seed(3)
            .replications(4)
            .convergence_policy(ConvergencePolicy::with_budget(300))
            .problem(BenchmarkProblem::linear(4, 4.5))
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())));
        let report = calibrator.run();
        assert!(report.rows[0].mean_reported_relative_error.is_infinite());
        assert_eq!(report.rows[0].zero_estimates, 4);
        let json = serde_json::to_string(&report).expect("serializes");
        assert!(json.contains("1e999"), "non-finite convention missing");
        let back: CalibrationReport = serde_json::from_str(&json).expect("round trips");
        assert_eq!(back, report);
    }

    #[test]
    fn band_margin_is_positive_inside_the_band() {
        let report = small_calibrator().run();
        let row = &report.rows[0];
        if row.within_band {
            assert!(row.band_margin() >= 0.0);
        } else {
            assert!(row.band_margin() < 0.0);
        }
        assert_eq!(report.all_within_band(), report.violations().is_empty());
        assert!(report.worst_band_margin() <= row.band_margin());
    }

    #[test]
    #[should_panic(expected = "no estimators registered")]
    fn empty_estimators_rejected() {
        let _ = Calibrator::new()
            .problem(BenchmarkProblem::linear(3, 2.0))
            .run();
    }

    #[test]
    #[should_panic(expected = "no problems registered")]
    fn empty_problems_rejected() {
        let _ = Calibrator::new()
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
            .run();
    }

    #[test]
    #[should_panic(expected = "positive evaluation budget")]
    fn zero_budget_policy_rejected() {
        let _ = Calibrator::new()
            .replications(2)
            .convergence_policy(ConvergencePolicy::with_budget(0))
            .problem(BenchmarkProblem::linear(3, 2.0))
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
            .run();
    }

    #[test]
    #[should_panic(expected = "duplicate estimator name \"monte-carlo\"")]
    fn duplicate_estimator_names_rejected() {
        // Both would derive the same replication seeds, and the report's
        // row lookup would only ever return the first.
        let _ = Calibrator::new()
            .replications(2)
            .convergence_policy(ConvergencePolicy::with_budget(300))
            .problem(BenchmarkProblem::linear(3, 2.0))
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
            .run();
    }
}
