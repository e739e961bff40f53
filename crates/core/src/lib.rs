//! Gradient importance sampling and baseline estimators for high-sigma SRAM
//! statistical extraction.
//!
//! This crate is the reproduction of the paper's primary contribution. It
//! estimates the probability that an SRAM dynamic characteristic (read access
//! time, write delay, read-disturb margin) violates its specification, when
//! that probability lives far in the tail of the process-variation
//! distribution (4σ–6σ, i.e. 10⁻⁵…10⁻⁹).
//!
//! # Methods
//!
//! | Method | Type | Search phase | Module |
//! |---|---|---|---|
//! | Brute-force Monte Carlo | reference | none | [`montecarlo`] |
//! | **Gradient Importance Sampling** (the contribution) | mean-shift IS | finite-difference gradient HL–RF | [`gis`], [`mpfp`] |
//! | Minimum-norm IS | mean-shift IS | blind presampling + bisection | [`baselines::mnis`] |
//! | Spherical sampling | boundary integration | radial bisection per direction | [`baselines::spherical`] |
//! | Scaled-sigma sampling | extrapolation | none | [`baselines::sss`] |
//!
//! All methods consume a [`FailureProblem`]: a [`PerformanceModel`] (the map
//! from whitened variation space to the metric) plus a [`Spec`]. Models backed
//! by the transient SRAM testbench and by the analytical surrogate are provided
//! in [`sram_models`]; analytic limit states with exactly known probabilities
//! (used for validation everywhere) are in [`model`].
//!
//! # Batched, multi-threaded evaluation
//!
//! Every estimator structures its hot loop as *generate-batch →
//! evaluate-batch → reduce*: metric evaluations fan out over the worker
//! threads of an [`exec::Executor`] while generation and reduction stay
//! sequential, so estimates and evaluation counts are **bit-identical at any
//! thread count** (see [`exec`] for the contract). Parallelism is configured
//! once — via the `GIS_THREADS` environment variable, a method's
//! `with_execution`, or [`YieldAnalysis::execution`] — and models with
//! expensive per-point setup (the transient testbench) override
//! [`PerformanceModel::evaluate_batch`] to hoist it out of the loop.
//!
//! # The unified `Estimator` API
//!
//! Every method implements the object-safe [`Estimator`] trait and returns an
//! [`EstimatorOutcome`]: the shared [`ExtractionResult`] plus a typed
//! [`Diagnostics`] payload with the method's extras (MPFP trace, search
//! outcome, scale points). Comparisons across methods go through the
//! [`YieldAnalysis`] driver, which handles problem registration, per-method
//! deterministic seeding from a master seed, uniform budgets via
//! [`ConvergencePolicy`], and serde-serializable reports.
//!
//! # Sweep orchestration
//!
//! Production sign-off runs the matrix at scale: many operating scenarios ×
//! many estimators. The [`sweep`] module adds a matrix scheduler that
//! dispatches independent (problem, estimator) cells onto worker threads
//! ([`YieldAnalysis::run_on`] / [`SweepRunner`]) with reports bit-identical
//! to the sequential path, durable JSON-lines checkpointing so a killed
//! sweep resumes without re-simulating ([`SweepRunner::checkpoint`],
//! [`SweepStatus`]), and a scenario library spanning supply-voltage /
//! temperature / process-corner / Pelgrom-mismatch grids with array-capacity
//! sigma targets ([`SweepPlan`], [`CapacityTarget`]).
//!
//! # Validation: benchmark problems & statistical calibration
//!
//! The claims above are statistical, so the crate carries its own yardstick:
//! [`problems`] generates analytic benchmark problems with *exactly* known
//! failure probabilities (tilted hyperplanes at arbitrary sigma, disjoint
//! multi-region and union geometries, Cholesky-correlated specifications,
//! curved boundaries, a 6→576 dimensionality ladder), and [`calibration`]
//! runs N independent replications of any [`Estimator`] on them and reduces
//! the replications to empirical confidence-interval coverage (tested
//! against binomial acceptance bands), relative bias, RMSE and sample
//! efficiency. Every numerics or estimator change is judged against this
//! harness (`bench_calibration` in `gis-bench`).
//!
//! # Quick example: one method
//!
//! ```
//! use gis_core::{
//!     Estimator, FailureProblem, GisConfig, GradientImportanceSampling, LinearLimitState,
//! };
//! use gis_stats::RngStream;
//!
//! // A 4.5-sigma failure plane in 6 dimensions: P_fail ≈ 3.4e-6.
//! let limit_state = LinearLimitState::along_first_axis(6, 4.5);
//! let exact = limit_state.exact_failure_probability();
//! let problem = FailureProblem::from_model(limit_state, LinearLimitState::spec());
//!
//! let gis = GradientImportanceSampling::new(GisConfig::default());
//! let mut rng = RngStream::from_seed(7);
//! let outcome = gis.estimate(&problem, &mut rng);
//!
//! let relative_error = (outcome.result.failure_probability - exact).abs() / exact;
//! assert!(relative_error < 0.2);
//! assert!(outcome.result.evaluations < 100_000); // brute force would need ~3e7
//! assert!(outcome.mpfp().unwrap().beta > 4.0); // the gradient search found the MPFP
//! ```
//!
//! # Quick example: comparing all five methods
//!
//! ```
//! use gis_core::{
//!     standard_estimators, ConvergencePolicy, FailureProblem, LinearLimitState, YieldAnalysis,
//! };
//!
//! let report = YieldAnalysis::new()
//!     .master_seed(20180319)
//!     .convergence_policy(ConvergencePolicy::with_budget(20_000))
//!     .problem(
//!         "linear-4-sigma",
//!         FailureProblem::from_model(
//!             LinearLimitState::along_first_axis(6, 4.0),
//!             LinearLimitState::spec(),
//!         ),
//!     )
//!     .estimators(standard_estimators())
//!     .run();
//!
//! for method in &report.problems[0].methods {
//!     println!(
//!         "{:<22} P_fail = {:.3e} after {} simulations",
//!         method.estimator, method.row.failure_probability, method.row.evaluations
//!     );
//! }
//! # assert_eq!(report.problems[0].methods.len(), 5);
//! ```

// The workspace has zero unsafe code; lock that in per crate. (A crate
// attribute rather than a workspace lint so the counting-allocator
// integration test, which needs an unsafe GlobalAlloc impl, stays possible.)
#![forbid(unsafe_code)]
// Library code must justify every panic site (clippy::unwrap_used/expect_used
// are warn in [workspace.lints.clippy]); tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod analysis;
pub mod array_yield;
pub mod baselines;
pub mod calibration;
pub mod estimator;
pub mod exec;
pub mod fault;
pub mod gis;
pub mod importance;
pub mod model;
pub mod montecarlo;
pub mod mpfp;
pub mod problems;
pub mod result;
pub mod special;
pub mod sram_models;
pub mod stopping;
pub mod sweep;

pub use analysis::{
    standard_estimators, AnalysisReport, ComparisonRow, MethodReport, ProblemReport, YieldAnalysis,
};
pub use array_yield::ArrayYield;
pub use baselines::{
    MinimumNormIs, MnisConfig, MnisSearchOutcome, ScalePoint, ScaledSigmaSampling,
    SphericalSampling, SphericalSamplingConfig, SssConfig,
};
pub use calibration::{CalibrationReport, CalibrationRow, Calibrator, Replication};
pub use estimator::{ConvergencePolicy, Diagnostics, Estimator, EstimatorOutcome, WarmStart};
pub use exec::{ExecutionConfig, Executor};
pub use fault::{
    crc32, run_contained, CellFailure, CellFailureReason, CellOutcome, FaultPlan,
    DEFAULT_CELL_ATTEMPTS, FAULTS_ENV_VAR,
};
pub use gis::{GisConfig, GradientImportanceSampling};
pub use gis_sram::TransientKernel;
pub use importance::{
    run_importance_sampling, ImportanceSamplingConfig, IsAccumulator, IsDiagnostics, Proposal,
};
pub use model::{
    FailureProblem, FnModel, LinearLimitState, PerformanceModel, QuadraticLimitState, Spec,
};
pub use montecarlo::{required_samples, MonteCarlo, MonteCarloConfig};
pub use mpfp::{GradientMpfpSearch, MpfpConfig, MpfpResult};
pub use problems::{BenchmarkProblem, GroundTruth};
pub use result::{figure_of_merit, ConvergencePoint, ExtractionResult};
pub use sram_models::{
    default_sram_variation_space, SramMetric, SramSurrogateModel, SramTransientModel,
};
pub use sweep::{
    CapacityMargin, CapacityTarget, CellClaim, CellStore, Scenario, SweepCellRecord,
    SweepCellUpdate, SweepLog, SweepLogEntry, SweepOutcome, SweepPlan, SweepRunner, SweepStatus,
    SweepSummaryRow, SWEEP_LOG_KIND_CELL, SWEEP_LOG_KIND_JOB, SWEEP_LOG_VERSION,
};
