//! The [`YieldAnalysis`] driver: one builder that runs any set of estimators
//! on any set of failure problems with reproducible per-run seeding.
//!
//! Before this driver existed every table binary, example and integration
//! test hand-rolled the same comparison loop (build problem → fork → seed →
//! run method → format row). `YieldAnalysis` centralizes that loop on top of
//! the object-safe [`Estimator`] trait:
//!
//! * problems are registered by name,
//! * estimators are registered as `Box<dyn Estimator>`,
//! * every (problem, estimator) pair gets a deterministic RNG stream derived
//!   from one master seed — independent of registration order, so adding a
//!   method never perturbs another method's stream,
//! * an optional [`ConvergencePolicy`] imposes a uniform evaluation budget and
//!   stopping rule across methods, and
//! * the output is a serde-serializable [`AnalysisReport`] holding both the
//!   formatted [`ComparisonRow`]s and the full per-method
//!   [`EstimatorOutcome`]s.
//!
//! ```
//! use gis_core::{
//!     standard_estimators, ConvergencePolicy, FailureProblem, LinearLimitState,
//!     YieldAnalysis,
//! };
//!
//! let report = YieldAnalysis::new()
//!     .master_seed(7)
//!     .convergence_policy(ConvergencePolicy::with_budget(20_000))
//!     .problem(
//!         "linear-4sigma",
//!         FailureProblem::from_model(
//!             LinearLimitState::along_first_axis(4, 4.0),
//!             LinearLimitState::spec(),
//!         ),
//!     )
//!     .estimators(standard_estimators())
//!     .run();
//! assert_eq!(report.problems.len(), 1);
//! assert_eq!(report.problems[0].methods.len(), 5);
//! ```

use crate::baselines::{
    MinimumNormIs, MnisConfig, ScaledSigmaSampling, SphericalSampling, SphericalSamplingConfig,
    SssConfig,
};
use crate::estimator::{ConvergencePolicy, Estimator, EstimatorOutcome, WarmStart};
use crate::exec::ExecutionConfig;
use crate::fault::CellFailure;
use crate::gis::{GisConfig, GradientImportanceSampling};
use crate::model::FailureProblem;
use crate::montecarlo::{required_samples, MonteCarlo, MonteCarloConfig};
use crate::result::ExtractionResult;
use gis_stats::RngStream;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One row of a method-comparison table, in the format of the paper's
/// evaluation tables, extended with execution metadata (worker threads,
/// wall-clock time).
///
/// Equality deliberately ignores `threads` and `wall_time_seconds`: the
/// determinism contract of [`crate::exec`] guarantees that the *statistical*
/// content is identical at every thread count, and `PartialEq` compares
/// exactly that content — so reports produced at different parallelism levels
/// (or on machines of different speeds) compare equal.
///
/// `wall_time_seconds` is excluded from the serialized form (it is restored
/// as `NaN`, "not measured"): the JSON artifacts the table binaries write
/// must stay byte-reproducible run over run for a fixed configuration, and a
/// wall-clock can't be. `threads` *is* serialized — it is deterministic for a
/// fixed configuration, so artifacts remain reproducible; runs at different
/// thread counts produce artifacts differing in this one metadata field while
/// every statistical field stays byte-identical. Timing artifacts belong to
/// the repository benchmark (`perfbench`), which records wall-clock through
/// its own schema.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Method name.
    pub method: String,
    /// Estimated failure probability.
    pub failure_probability: f64,
    /// Equivalent sigma level.
    pub sigma_level: f64,
    /// Relative 90% confidence half-width.
    pub relative_confidence_90: f64,
    /// Total simulator evaluations spent (search + sampling).
    pub evaluations: u64,
    /// Speed-up versus the analytical brute-force Monte Carlo cost for the
    /// same probability at 10% relative error; `NaN` when the method produced
    /// no usable estimate.
    pub speedup_vs_monte_carlo: f64,
    /// Whether the method converged to its accuracy target.
    pub converged: bool,
    /// Whether the method's diagnostics suggest more than one dominant
    /// failure region (see
    /// [`IsDiagnostics::multimodal_suspected`](crate::importance::IsDiagnostics::multimodal_suspected)).
    /// Always `false` for methods without the heuristic (Monte Carlo,
    /// spherical, SSS) and for rows built from a bare [`ExtractionResult`].
    pub multimodal_suspected: bool,
    /// Worker threads the run was configured with (0 when unknown, e.g. a row
    /// built directly from an [`ExtractionResult`]).
    pub threads: usize,
    /// Wall-clock seconds the extraction took (`NaN` when not measured).
    pub wall_time_seconds: f64,
}

impl Serialize for ComparisonRow {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("method".to_string(), self.method.to_value()),
            (
                "failure_probability".to_string(),
                self.failure_probability.to_value(),
            ),
            ("sigma_level".to_string(), self.sigma_level.to_value()),
            (
                "relative_confidence_90".to_string(),
                self.relative_confidence_90.to_value(),
            ),
            ("evaluations".to_string(), self.evaluations.to_value()),
            (
                "speedup_vs_monte_carlo".to_string(),
                self.speedup_vs_monte_carlo.to_value(),
            ),
            ("converged".to_string(), self.converged.to_value()),
            (
                "multimodal_suspected".to_string(),
                self.multimodal_suspected.to_value(),
            ),
            ("threads".to_string(), self.threads.to_value()),
        ])
    }
}

impl Deserialize for ComparisonRow {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ComparisonRow {
            method: serde::from_field(value, "method")?,
            failure_probability: serde::from_field(value, "failure_probability")?,
            sigma_level: serde::from_field(value, "sigma_level")?,
            relative_confidence_90: serde::from_field(value, "relative_confidence_90")?,
            evaluations: serde::from_field(value, "evaluations")?,
            speedup_vs_monte_carlo: serde::from_field(value, "speedup_vs_monte_carlo")?,
            converged: serde::from_field(value, "converged")?,
            // Rows serialized before the multimodality heuristic existed load
            // as "not suspected".
            multimodal_suspected: serde::from_field(value, "multimodal_suspected").unwrap_or(false),
            // Rows serialized before the execution metadata existed load as
            // "unknown threads".
            threads: serde::from_field(value, "threads").unwrap_or(0),
            wall_time_seconds: f64::NAN,
        })
    }
}

impl PartialEq for ComparisonRow {
    fn eq(&self, other: &Self) -> bool {
        self.method == other.method
            && self.failure_probability.to_bits() == other.failure_probability.to_bits()
            && self.sigma_level.to_bits() == other.sigma_level.to_bits()
            && self.relative_confidence_90.to_bits() == other.relative_confidence_90.to_bits()
            && self.evaluations == other.evaluations
            && self.speedup_vs_monte_carlo.to_bits() == other.speedup_vs_monte_carlo.to_bits()
            && self.converged == other.converged
            && self.multimodal_suspected == other.multimodal_suspected
        // threads / wall_time_seconds are execution metadata, not results.
    }
}

impl ComparisonRow {
    /// Builds a row from an extraction result, measuring speed-up against the
    /// analytical brute-force cost for the same probability and 10% accuracy.
    /// Execution metadata is unset (use [`ComparisonRow::with_timing`]).
    pub fn from_result(result: &ExtractionResult) -> ComparisonRow {
        let mc_cost = if result.failure_probability > 0.0 && result.failure_probability < 1.0 {
            required_samples(result.failure_probability, 0.1)
        } else {
            f64::NAN
        };
        let speedup = if result.evaluations > 0 && mc_cost.is_finite() {
            mc_cost / result.evaluations as f64
        } else {
            f64::NAN
        };
        ComparisonRow {
            method: result.method.clone(),
            failure_probability: result.failure_probability,
            sigma_level: result.sigma_level,
            relative_confidence_90: result.relative_confidence_90(),
            evaluations: result.evaluations,
            speedup_vs_monte_carlo: speedup,
            converged: result.converged,
            multimodal_suspected: false,
            threads: 0,
            wall_time_seconds: f64::NAN,
        }
    }

    /// Builds a row from a full estimator outcome, surfacing the
    /// diagnostics-level multimodality suspicion alongside the statistical
    /// content of [`ComparisonRow::from_result`].
    pub fn from_outcome(outcome: &EstimatorOutcome) -> ComparisonRow {
        let mut row = ComparisonRow::from_result(&outcome.result);
        row.multimodal_suspected = outcome.multimodal_suspected();
        row
    }

    /// Attaches execution metadata (worker threads and measured wall-clock).
    pub fn with_timing(mut self, threads: usize, wall_time_seconds: f64) -> ComparisonRow {
        self.threads = threads;
        self.wall_time_seconds = wall_time_seconds;
        self
    }

    /// Metric evaluations per wall-clock second (`NaN` when not measured).
    pub fn evaluations_per_second(&self) -> f64 {
        if self.wall_time_seconds > 0.0 {
            self.evaluations as f64 / self.wall_time_seconds
        } else {
            f64::NAN
        }
    }
}

/// Result of one estimator on one problem, inside an [`AnalysisReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodReport {
    /// Estimator name.
    pub estimator: String,
    /// The derived RNG seed this run used (reproducible in isolation via
    /// `RngStream::from_seed`).
    pub seed: u64,
    /// The formatted comparison row.
    pub row: ComparisonRow,
    /// The full outcome, including method-specific diagnostics.
    pub outcome: EstimatorOutcome,
    /// `Some` when the cell was quarantined by the containment plane
    /// ([`crate::fault::run_contained`]): `row`/`outcome` then hold the inert
    /// NaN placeholder of [`crate::fault::failed_report`] instead of a
    /// result. `None` for every healthy cell (and for records written before
    /// fault containment existed — the field deserializes as absent).
    pub failed: Option<CellFailure>,
}

impl MethodReport {
    /// Whether this cell was quarantined instead of completing.
    pub fn is_failed(&self) -> bool {
        self.failed.is_some()
    }
}

/// All method results for one named problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemReport {
    /// Problem name as registered on the driver.
    pub problem: String,
    /// One entry per estimator, in registration order.
    pub methods: Vec<MethodReport>,
}

impl ProblemReport {
    /// The comparison rows of this problem, in registration order.
    pub fn rows(&self) -> Vec<ComparisonRow> {
        self.methods.iter().map(|m| m.row.clone()).collect()
    }

    /// Looks up a method's report by estimator name.
    pub fn method(&self, name: &str) -> Option<&MethodReport> {
        self.methods.iter().find(|m| m.estimator == name)
    }
}

/// The full output of a [`YieldAnalysis`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// The master seed every per-run stream was derived from.
    pub master_seed: u64,
    /// One entry per registered problem, in registration order.
    pub problems: Vec<ProblemReport>,
}

impl AnalysisReport {
    /// Looks up a problem's report by name.
    pub fn problem(&self, name: &str) -> Option<&ProblemReport> {
        self.problems.iter().find(|p| p.problem == name)
    }

    /// The quarantined `(problem, estimator)` cells of this report, in
    /// registration order — empty for a fault-free run.
    pub fn failed_cells(&self) -> Vec<(String, String)> {
        self.problems
            .iter()
            .flat_map(|p| {
                p.methods
                    .iter()
                    .filter(|m| m.is_failed())
                    .map(|m| (p.problem.clone(), m.estimator.clone()))
            })
            .collect()
    }
}

/// FNV-1a hash used for order-independent seed derivation (shared with the
/// replication-seed derivation in [`crate::calibration`]).
pub(crate) fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The default estimator line-up of the paper's evaluation: all five methods
/// with their default configurations, boxed for use with [`YieldAnalysis`].
pub fn standard_estimators() -> Vec<Box<dyn Estimator>> {
    vec![
        Box::new(GradientImportanceSampling::new(GisConfig::default())),
        Box::new(MonteCarlo::new(MonteCarloConfig::default())),
        Box::new(MinimumNormIs::new(MnisConfig::default())),
        Box::new(SphericalSampling::new(SphericalSamplingConfig::default())),
        Box::new(ScaledSigmaSampling::new(SssConfig::default())),
    ]
}

/// Builder-style driver running every registered estimator on every
/// registered problem. See the [module documentation](self) for an example.
#[derive(Default)]
pub struct YieldAnalysis {
    problems: Vec<(String, FailureProblem)>,
    estimators: Vec<Box<dyn Estimator>>,
    master_seed: u64,
    policy: Option<ConvergencePolicy>,
    execution: Option<ExecutionConfig>,
}

impl YieldAnalysis {
    /// Creates an empty analysis (master seed 0, no uniform policy, execution
    /// resolved from `GIS_THREADS` by each estimator).
    pub fn new() -> Self {
        YieldAnalysis::default()
    }

    /// Sets the master seed all per-run streams are derived from.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Imposes a uniform evaluation budget and stopping rule on every
    /// registered estimator (applied when [`run`](Self::run) is called).
    pub fn convergence_policy(mut self, policy: ConvergencePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Imposes one parallel-execution configuration on every registered
    /// estimator (applied when [`run`](Self::run) is called). Callers pick
    /// parallelism once here; per the [`crate::exec`] determinism contract the
    /// choice changes wall-clock only, never the report's estimates.
    pub fn execution(mut self, execution: ExecutionConfig) -> Self {
        self.execution = Some(execution);
        self
    }

    /// Registers a named failure problem. Each estimator runs against its own
    /// [`FailureProblem::fork`], so evaluation counters never mix.
    pub fn problem(mut self, name: impl Into<String>, problem: FailureProblem) -> Self {
        self.problems.push((name.into(), problem));
        self
    }

    /// Registers one estimator.
    pub fn estimator(mut self, estimator: Box<dyn Estimator>) -> Self {
        self.estimators.push(estimator);
        self
    }

    /// Registers several estimators at once (e.g. [`standard_estimators`]).
    pub fn estimators(mut self, estimators: Vec<Box<dyn Estimator>>) -> Self {
        self.estimators.extend(estimators);
        self
    }

    /// Derives the deterministic seed for a (problem, estimator) pair.
    ///
    /// The derivation hashes both names, so it is independent of registration
    /// order: adding or removing a method never changes the stream any other
    /// method sees.
    pub fn derived_seed(&self, problem_name: &str, estimator_name: &str) -> u64 {
        let mix = fnv1a(problem_name) ^ fnv1a(estimator_name).rotate_left(17);
        RngStream::from_seed(self.master_seed).split(mix).seed()
    }

    /// Validates the matrix and applies the registered [`ConvergencePolicy`]
    /// and [`ExecutionConfig`] to every estimator. Idempotent. Must be called
    /// before dispatching individual cells via [`run_cell`](Self::run_cell);
    /// [`run`](Self::run) and [`crate::sweep::SweepRunner`] call it
    /// themselves.
    ///
    /// # Panics
    ///
    /// Panics if no problems or no estimators are registered, or if a
    /// configured [`ConvergencePolicy`] is invalid.
    pub fn prepare(&mut self) {
        assert!(
            !self.problems.is_empty(),
            "YieldAnalysis: no problems registered"
        );
        assert!(
            !self.estimators.is_empty(),
            "YieldAnalysis: no estimators registered"
        );
        if let Some(policy) = self.policy {
            let verdict = policy.validate();
            assert!(verdict.is_ok(), "YieldAnalysis: {verdict:?}");
            for estimator in &mut self.estimators {
                estimator.configure(&policy);
            }
        }
        if let Some(execution) = self.execution {
            for estimator in &mut self.estimators {
                estimator.set_execution(execution);
            }
        }
    }

    /// The configured master seed (see [`master_seed`](Self::master_seed)).
    pub fn master_seed_value(&self) -> u64 {
        self.master_seed
    }

    /// The configured uniform convergence policy, if any (see
    /// [`convergence_policy`](Self::convergence_policy)).
    pub fn convergence_policy_value(&self) -> Option<ConvergencePolicy> {
        self.policy
    }

    /// Registered problem names, in registration order.
    pub fn problem_names(&self) -> Vec<&str> {
        self.problems.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Registered estimator names, in registration order.
    pub fn estimator_names(&self) -> Vec<&str> {
        self.estimators.iter().map(|e| e.name()).collect()
    }

    /// Runs one (problem, estimator) cell of the analysis matrix.
    ///
    /// Every cell is self-contained — its own [`FailureProblem::fork`]
    /// (independent evaluation counter) and its own RNG stream from
    /// [`YieldAnalysis::derived_seed`] — so the result depends only on the
    /// cell's inputs, never on which other cells ran before it or
    /// concurrently with it. This is the invariant the matrix scheduler in
    /// [`crate::sweep`] (batch and served alike) relies on. Call
    /// [`prepare`](Self::prepare) first.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn run_cell(&self, problem_index: usize, estimator_index: usize) -> MethodReport {
        self.run_cell_warm(problem_index, estimator_index, None)
    }

    /// Runs one cell with an optional [`WarmStart`] hint from a completed
    /// neighbor (the continuation-mode entry point; see [`crate::sweep`]).
    ///
    /// `run_cell_warm(pi, ei, None)` is exactly [`run_cell`](Self::run_cell):
    /// the cell's seed, fork and estimator dispatch are identical, and
    /// every estimator's `estimate_warm(.., None)` is bit-identical to its
    /// blind `estimate`. The hint never touches the RNG derivation, so a
    /// warm cell differs from its blind twin only through the estimator's
    /// documented hint semantics.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn run_cell_warm(
        &self,
        problem_index: usize,
        estimator_index: usize,
        warm: Option<&WarmStart>,
    ) -> MethodReport {
        let (problem_name, problem) = &self.problems[problem_index];
        let estimator = &self.estimators[estimator_index];
        let seed = self.derived_seed(problem_name, estimator.name());
        let fork = problem.fork();
        let mut rng = RngStream::from_seed(seed);
        // Recorded per method: each estimator's own effective config
        // (driver-wide `execution` has been applied by `prepare`,
        // but an estimator configured individually keeps its setting).
        let threads = estimator.effective_execution().resolved_threads();
        let started = Instant::now();
        let outcome = estimator.estimate_warm(&fork, &mut rng, warm);
        let wall_time_seconds = started.elapsed().as_secs_f64();
        MethodReport {
            estimator: estimator.name().to_string(),
            seed,
            row: ComparisonRow::from_outcome(&outcome).with_timing(threads, wall_time_seconds),
            outcome,
            failed: None,
        }
    }

    /// Assembles per-cell method reports (indexed `[problem][estimator]` in
    /// registration order) into an [`AnalysisReport`].
    pub(crate) fn assemble_report(&self, cells: Vec<Vec<MethodReport>>) -> AnalysisReport {
        AnalysisReport {
            master_seed: self.master_seed,
            problems: self
                .problems
                .iter()
                .zip(cells)
                .map(|((name, _), methods)| ProblemReport {
                    problem: name.clone(),
                    methods,
                })
                .collect(),
        }
    }

    /// Runs every estimator on every problem sequentially and collects the
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if no problems or no estimators are registered, or if a
    /// configured [`ConvergencePolicy`] maps onto an invalid method
    /// configuration.
    pub fn run(&mut self) -> AnalysisReport {
        self.prepare();
        let cells = (0..self.problems.len())
            .map(|pi| {
                (0..self.estimators.len())
                    .map(|ei| self.run_cell(pi, ei))
                    .collect()
            })
            .collect();
        self.assemble_report(cells)
    }
}

impl std::fmt::Debug for YieldAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("YieldAnalysis")
            .field("master_seed", &self.master_seed)
            .field(
                "problems",
                &self.problems.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field(
                "estimators",
                &self.estimators.iter().map(|e| e.name()).collect::<Vec<_>>(),
            )
            .field("policy", &self.policy)
            .field("execution", &self.execution)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearLimitState;
    use crate::sweep::SweepRunner;

    fn linear_problem(beta: f64) -> FailureProblem {
        FailureProblem::from_model(
            LinearLimitState::along_first_axis(4, beta),
            LinearLimitState::spec(),
        )
    }

    #[test]
    fn runs_all_estimators_on_all_problems() {
        let report = YieldAnalysis::new()
            .master_seed(11)
            .convergence_policy(ConvergencePolicy::with_budget(10_000))
            .problem("beta-3", linear_problem(3.0))
            .problem("beta-4", linear_problem(4.0))
            .estimators(standard_estimators())
            .run();
        assert_eq!(report.problems.len(), 2);
        for problem in &report.problems {
            assert_eq!(problem.methods.len(), 5);
            for method in &problem.methods {
                assert_eq!(method.row.method, method.estimator);
                assert!(method.row.evaluations > 0);
            }
        }
        assert!(report.problem("beta-3").is_some());
        assert!(report
            .problem("beta-3")
            .unwrap()
            .method("gradient-is")
            .is_some());
    }

    #[test]
    fn reports_are_reproducible_from_the_master_seed() {
        let run = || {
            YieldAnalysis::new()
                .master_seed(99)
                .convergence_policy(ConvergencePolicy::with_budget(5_000))
                .problem("p", linear_problem(3.5))
                .estimators(standard_estimators())
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_derivation_is_order_independent() {
        let analysis = YieldAnalysis::new().master_seed(5);
        let seed_direct = analysis.derived_seed("p", "gradient-is");
        // Registering more problems/estimators must not perturb the seed.
        let crowded = YieldAnalysis::new()
            .master_seed(5)
            .problem("other", linear_problem(3.0))
            .estimators(standard_estimators());
        assert_eq!(seed_direct, crowded.derived_seed("p", "gradient-is"));
        // Distinct pairs get distinct seeds.
        assert_ne!(seed_direct, analysis.derived_seed("p", "monte-carlo"));
        assert_ne!(seed_direct, analysis.derived_seed("q", "gradient-is"));
    }

    #[test]
    fn execution_config_changes_wall_clock_only() {
        let run = |execution: ExecutionConfig| {
            YieldAnalysis::new()
                .master_seed(23)
                .convergence_policy(ConvergencePolicy::with_budget(6_000))
                .execution(execution)
                .problem("p", linear_problem(3.0))
                .estimators(standard_estimators())
                .run()
        };
        let serial = run(ExecutionConfig::serial());
        let parallel = run(ExecutionConfig::with_threads(4));
        // Rows compare equal across thread counts by design: equality covers
        // the statistical content, not the execution metadata.
        assert_eq!(serial, parallel);
        for (a, b) in serial.problems[0]
            .methods
            .iter()
            .zip(&parallel.problems[0].methods)
        {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.row.threads, 1);
            assert_eq!(b.row.threads, 4);
            assert!(a.row.wall_time_seconds >= 0.0);
            assert!(b.row.evaluations_per_second() > 0.0);
        }
    }

    #[test]
    fn matrix_parallel_run_is_bit_identical_to_sequential() {
        let build = || {
            YieldAnalysis::new()
                .master_seed(77)
                .convergence_policy(ConvergencePolicy::with_budget(4_000))
                .problem("beta-3", linear_problem(3.0))
                .problem("beta-35", linear_problem(3.5))
                .estimators(standard_estimators())
        };
        let sequential = build().run();
        for matrix_threads in [1, 2, 8] {
            let parallel = SweepRunner::new()
                .matrix(ExecutionConfig::with_threads(matrix_threads))
                .run(&mut build())
                .report
                .expect("complete without a checkpoint");
            // PartialEq on reports compares the statistical content bit for
            // bit (timing excluded) — the matrix scheduler must not perturb
            // a single bit of it.
            assert_eq!(
                parallel, sequential,
                "matrix run diverged at {matrix_threads} threads"
            );
        }
    }

    #[test]
    fn cell_accessors_expose_registration_order() {
        let analysis = YieldAnalysis::new()
            .problem("a", linear_problem(3.0))
            .problem("b", linear_problem(3.5))
            .estimators(standard_estimators());
        assert_eq!(analysis.problem_names(), vec!["a", "b"]);
        assert_eq!(analysis.estimator_names()[0], "gradient-is");
        assert_eq!(analysis.estimator_names().len(), 5);
    }

    #[test]
    fn report_serializes_round_trip() {
        let report = YieldAnalysis::new()
            .master_seed(1)
            .convergence_policy(ConvergencePolicy::with_budget(2_000))
            .problem("p", linear_problem(2.5))
            .estimators(standard_estimators())
            .run();
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        let back: AnalysisReport = serde_json::from_str(&json).expect("report round trips");
        assert_eq!(back, report);
    }

    #[test]
    #[should_panic(expected = "no estimators registered")]
    fn empty_estimator_list_is_rejected() {
        let _ = YieldAnalysis::new().problem("p", linear_problem(3.0)).run();
    }

    #[test]
    #[should_panic(expected = "no problems registered")]
    fn empty_problem_list_is_rejected() {
        let _ = YieldAnalysis::new().estimators(standard_estimators()).run();
    }
}
