//! Serializable job model: which problems to solve, with which estimators,
//! under which seed and policy — plus the canonical cell identity the
//! content-addressed result cache and the journal are keyed by.
//!
//! A [`JobSpec`] travels over the wire, so it carries *specifications*
//! (serializable configs), not live objects: [`ProblemSpec`] names a family
//! of failure problems the server can rebuild deterministically, and
//! [`EstimatorSpec`] wraps the five estimator config structs of `gis_core`
//! in full fidelity (a custom-tuned `GisConfig` survives the round trip
//! bit for bit). The cache key of a cell ([`cell_key`]) canonically
//! serializes everything the sweep checkpoint already validates — problem
//! identity, estimator spec, master seed, convergence policy and the
//! derived per-cell seed — so two jobs share a cell's result exactly when
//! the batch engine would have produced identical rows for it.

use gis_core::{
    default_sram_variation_space, BenchmarkProblem, ConvergencePolicy, Estimator, ExecutionConfig,
    FailureProblem, GisConfig, GradientImportanceSampling, MinimumNormIs, MnisConfig, MonteCarlo,
    MonteCarloConfig, ScaledSigmaSampling, Scenario, Spec, SphericalSampling,
    SphericalSamplingConfig, SramMetric, SramSurrogateModel, SramTransientModel, SssConfig,
    SweepPlan, YieldAnalysis,
};
use gis_sram::{SramCellConfig, SramSurrogate, SramTestbench, TestbenchTiming};
use gis_stats::rng::fnv1a;
use gis_variation::PelgromModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Most padded variation parameters a [`ProblemSpec::SurrogateSram`] may ask
/// for: seven times the 576-d top of the dimensionality ladder. Larger
/// requests are refused before any model is built, because a failed
/// allocation aborts the daemon instead of unwinding.
const MAX_PADDED_DIMENSIONS: usize = 4096;

/// Most integration steps, `ceil(stop_time / time_step)`, in the window of a
/// [`ProblemSpec::TransientSram`] timing override. The default window is 500
/// steps and table 2's is 1 500; waveform storage grows with the window, so
/// a larger request is refused before any model is built.
const MAX_WINDOW_STEPS: u32 = 20_000;

/// Largest estimator working set ([`EstimatorSpec::working_set`]) a job may
/// ask for: 1 GiB of preallocated sample buffers. The largest standard or
/// paper-manifest estimator needs a few hundred MB at the 4 096 padded
/// dimensions a problem may have, while a batch of 2⁵⁰ points would abort
/// the daemon.
pub const MAX_WORKING_SET_BYTES: u64 = 1 << 30;

/// A family of failure problems the server can rebuild deterministically
/// from the specification alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProblemSpec {
    /// A named benchmark suite of `gis_core::problems` (analytically
    /// tractable problems with known ground truth): `"fast"`
    /// ([`BenchmarkProblem::fast_suite`]) or `"standard"`
    /// ([`BenchmarkProblem::standard_suite`]).
    Suite {
        /// Suite name: `"fast"` or `"standard"`.
        suite: String,
    },
    /// The full scenario grid of a [`SweepPlan`] — the daemon-served form
    /// of `bench_sweep`. One problem per scenario, in grid order.
    Plan {
        /// The sweep plan (axes, spec factor, capacity targets).
        plan: SweepPlan,
    },
    /// A single problem on the closed-form SRAM surrogate.
    SurrogateSram {
        /// Dynamic characteristic under test.
        metric: SramMetric,
        /// Spec limit as a multiple of the nominal metric (upper limit).
        spec_factor: f64,
        /// Extra padded variation parameters (peripheral devices), as in
        /// the dimensionality-scaling experiments. 0 = bare 6T cell; at most
        /// 4 096.
        padded_dimensions: usize,
    },
    /// A single problem on the transient 6T testbench, integrated on the
    /// sparse kernel.
    TransientSram {
        /// Dynamic characteristic under test.
        metric: SramMetric,
        /// Spec limit as a multiple of the nominal metric (upper limit).
        spec_factor: f64,
        /// Testbench timing override (`None` = the typical 45 nm timing); its
        /// window holds at most 20 000 steps.
        timing: Option<TestbenchTiming>,
    },
}

/// One rebuilt problem of a [`ProblemSpec`]: its registration name, its
/// canonical identity (the part of the spec that pins *this* problem,
/// independent of what else the spec expands to) and the live problem.
pub struct BuiltProblem {
    /// Registration (and checkpoint/report) name.
    pub name: String,
    /// Canonical identity serialized into the cell cache key.
    pub identity: serde::Value,
    /// The rebuilt failure problem.
    pub problem: FailureProblem,
}

impl ProblemSpec {
    /// Rebuilds the problem family, in deterministic registration order.
    ///
    /// All validation is typed: an unknown suite name, an invalid or
    /// oversized timing override, too many padded dimensions or an
    /// operating point outside the model's domain returns a
    /// [`JobError`] instead of panicking the connection thread.
    pub fn build(&self) -> Result<Vec<BuiltProblem>, JobError> {
        match self {
            ProblemSpec::Suite { suite } => {
                let problems = match suite.as_str() {
                    "fast" => BenchmarkProblem::fast_suite(),
                    "standard" => BenchmarkProblem::standard_suite(),
                    other => {
                        return Err(JobError::UnknownSuite {
                            suite: other.to_string(),
                        })
                    }
                };
                Ok(problems
                    .into_iter()
                    .map(|p| {
                        let identity = serde::Value::Object(vec![
                            ("kind".to_string(), "suite".to_string().to_value()),
                            ("suite".to_string(), suite.to_value()),
                            ("problem".to_string(), p.name().to_value()),
                        ]);
                        BuiltProblem {
                            name: p.name().to_string(),
                            identity,
                            problem: p.fork(),
                        }
                    })
                    .collect())
            }
            ProblemSpec::Plan { plan } => {
                // SweepPlan::scenarios panics on empty axes or aliased
                // names; pre-validate the axes and let guarded building
                // catch the rest.
                if plan.corners.is_empty()
                    || plan.supply_voltages.is_empty()
                    || plan.temperatures_celsius.is_empty()
                    || plan.pelgrom_avts.is_empty()
                    || plan.metrics.is_empty()
                {
                    return Err(JobError::BadSpec {
                        detail: "every sweep axis needs at least one point".to_string(),
                    });
                }
                if !(plan.spec_factor.is_finite() && plan.spec_factor > 0.0) {
                    return Err(JobError::BadSpec {
                        detail: "spec factor must be positive and finite".to_string(),
                    });
                }
                let scenarios = guarded(|| plan.scenarios())?;
                scenarios
                    .into_iter()
                    .map(|scenario| {
                        let problem = guarded(|| scenario.problem(plan.spec_factor))?;
                        Ok(BuiltProblem {
                            name: scenario.name.clone(),
                            identity: scenario_identity(&scenario, plan.spec_factor),
                            problem,
                        })
                    })
                    .collect()
            }
            ProblemSpec::SurrogateSram {
                metric,
                spec_factor,
                padded_dimensions,
            } => {
                validate_spec_factor(*spec_factor)?;
                if *padded_dimensions > MAX_PADDED_DIMENSIONS {
                    return Err(JobError::BadSpec {
                        detail: format!(
                            "{padded_dimensions} padded dimensions exceed the limit of \
                             {MAX_PADDED_DIMENSIONS}"
                        ),
                    });
                }
                let cell = SramCellConfig::typical_45nm();
                let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
                let mut model =
                    SramSurrogateModel::new(SramSurrogate::typical_45nm(), space, *metric);
                if *padded_dimensions > 0 {
                    model = model.with_padded_dimensions(*padded_dimensions, 0.02);
                }
                let nominal = model.nominal_metric();
                Ok(vec![BuiltProblem {
                    name: metric.name().to_string(),
                    identity: self.to_value(),
                    problem: FailureProblem::from_model(
                        model,
                        Spec::UpperLimit(nominal * spec_factor),
                    ),
                }])
            }
            ProblemSpec::TransientSram {
                metric,
                spec_factor,
                timing,
            } => {
                validate_spec_factor(*spec_factor)?;
                let cell = SramCellConfig::typical_45nm();
                let testbench = match timing {
                    Some(timing) => {
                        SramTestbench::new(cell.clone(), timing.clone()).map_err(|e| {
                            JobError::BadSpec {
                                detail: format!("invalid testbench timing: {e}"),
                            }
                        })?
                    }
                    None => SramTestbench::typical_45nm(),
                };
                let window = testbench.timing();
                let steps = (window.stop_time / window.time_step).ceil();
                if !(steps <= f64::from(MAX_WINDOW_STEPS)) {
                    return Err(JobError::BadSpec {
                        detail: format!(
                            "a window of {steps} steps exceeds the limit of {MAX_WINDOW_STEPS}"
                        ),
                    });
                }
                let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
                let model = SramTransientModel::new(testbench, space, *metric);
                let nominal = guarded(|| model.nominal_metric())?;
                Ok(vec![BuiltProblem {
                    name: metric.name().to_string(),
                    identity: self.to_value(),
                    problem: FailureProblem::from_model(
                        model,
                        Spec::UpperLimit(nominal * spec_factor),
                    ),
                }])
            }
        }
    }
}

/// The per-scenario identity of a plan cell: the scenario (which pins the
/// operating point and the metric) plus the plan's spec factor, which the
/// scenario name does not encode. Two plans sharing a scenario at the same
/// spec factor share its cells.
fn scenario_identity(scenario: &Scenario, spec_factor: f64) -> serde::Value {
    serde::Value::Object(vec![
        ("kind".to_string(), "scenario".to_string().to_value()),
        ("scenario".to_string(), scenario.to_value()),
        ("spec_factor".to_string(), spec_factor.to_value()),
    ])
}

fn validate_spec_factor(spec_factor: f64) -> Result<(), JobError> {
    if spec_factor.is_finite() && spec_factor > 0.0 {
        Ok(())
    } else {
        Err(JobError::BadSpec {
            detail: "spec factor must be positive and finite".to_string(),
        })
    }
}

/// Runs `f` converting any panic into a typed [`JobError`] — the model
/// builders of `gis_core` assert their domain (e.g. an operating point
/// that drives a threshold voltage negative), and a hostile or buggy job
/// spec must fail its own submission, never the server.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, JobError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "model construction panicked".to_string()
        };
        JobError::BadSpec { detail }
    })
}

/// One estimator, specified by its full serializable configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EstimatorSpec {
    /// Gradient importance sampling (`"gradient-is"`).
    GradientIs {
        /// Full estimator configuration.
        config: GisConfig,
    },
    /// Brute-force Monte Carlo (`"monte-carlo"`).
    MonteCarlo {
        /// Full estimator configuration.
        config: MonteCarloConfig,
    },
    /// Minimum-norm importance sampling (`"minimum-norm-is"`).
    MinimumNormIs {
        /// Full estimator configuration.
        config: MnisConfig,
    },
    /// Spherical sampling (`"spherical-sampling"`).
    SphericalSampling {
        /// Full estimator configuration.
        config: SphericalSamplingConfig,
    },
    /// Scaled-sigma sampling (`"scaled-sigma-sampling"`).
    ScaledSigmaSampling {
        /// Full estimator configuration.
        config: SssConfig,
    },
}

impl EstimatorSpec {
    /// The five standard estimators with default configurations — the
    /// serializable mirror of [`gis_core::standard_estimators`].
    pub fn standard() -> Vec<EstimatorSpec> {
        vec![
            EstimatorSpec::GradientIs {
                config: GisConfig::default(),
            },
            EstimatorSpec::MonteCarlo {
                config: MonteCarloConfig::default(),
            },
            EstimatorSpec::MinimumNormIs {
                config: MnisConfig::default(),
            },
            EstimatorSpec::SphericalSampling {
                config: SphericalSamplingConfig::default(),
            },
            EstimatorSpec::ScaledSigmaSampling {
                config: SssConfig::default(),
            },
        ]
    }

    /// The estimator's stable method name (matches
    /// [`gis_core::Estimator::name`] of the built estimator).
    pub fn method_name(&self) -> &'static str {
        match self {
            EstimatorSpec::GradientIs { .. } => "gradient-is",
            EstimatorSpec::MonteCarlo { .. } => "monte-carlo",
            EstimatorSpec::MinimumNormIs { .. } => "minimum-norm-is",
            EstimatorSpec::SphericalSampling { .. } => "spherical-sampling",
            EstimatorSpec::ScaledSigmaSampling { .. } => "scaled-sigma-sampling",
        }
    }

    /// Validates the estimator configuration, returning a description of the
    /// first problem. A spec that passes builds without panicking.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            EstimatorSpec::GradientIs { config } => config.validate(),
            EstimatorSpec::MonteCarlo { config } => config.validate(),
            EstimatorSpec::MinimumNormIs { config } => config.validate(),
            EstimatorSpec::SphericalSampling { config } => config.validate(),
            EstimatorSpec::ScaledSigmaSampling { config } => config.validate(),
        }
    }

    /// Bytes the estimator preallocates on a `dim`-dimensional problem
    /// (see [`MAX_WORKING_SET_BYTES`]), from its validated configuration.
    pub fn working_set(&self, dim: usize) -> u64 {
        match self {
            EstimatorSpec::GradientIs { config } => config.working_set(dim),
            EstimatorSpec::MonteCarlo { config } => config.working_set(dim),
            EstimatorSpec::MinimumNormIs { config } => config.working_set(dim),
            EstimatorSpec::SphericalSampling { config } => config.working_set(dim),
            EstimatorSpec::ScaledSigmaSampling { config } => config.working_set(dim),
        }
    }

    /// Builds the live estimator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`EstimatorSpec::validate`]).
    pub fn build(&self) -> Box<dyn Estimator> {
        match self {
            EstimatorSpec::GradientIs { config } => {
                Box::new(GradientImportanceSampling::new(config.clone()))
            }
            EstimatorSpec::MonteCarlo { config } => Box::new(MonteCarlo::new(config.clone())),
            EstimatorSpec::MinimumNormIs { config } => Box::new(MinimumNormIs::new(config.clone())),
            EstimatorSpec::SphericalSampling { config } => {
                Box::new(SphericalSampling::new(config.clone()))
            }
            EstimatorSpec::ScaledSigmaSampling { config } => {
                Box::new(ScaledSigmaSampling::new(config.clone()))
            }
        }
    }
}

/// One submitted job: a problem family, an estimator line-up, and the
/// seeding/stopping configuration the sweep checkpoint validates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Which problems to run.
    pub problem: ProblemSpec,
    /// Which estimators to run against every problem.
    pub estimators: Vec<EstimatorSpec>,
    /// Master seed all per-cell streams derive from.
    pub master_seed: u64,
    /// Uniform convergence policy (`None` = each estimator's own config).
    pub policy: Option<ConvergencePolicy>,
    /// Dependency-aware continuation mode (`Some(true)` = warm): cells of a
    /// [`ProblemSpec::Plan`] grid seed their searches from their donor
    /// scenario's diagnostics ([`SweepPlan::warm_donors`]). `None` or
    /// `Some(false)` — and every non-plan problem family, which has no grid
    /// adjacency — runs blind. Warm cells carry their donor in the cache
    /// key, so a warm job never aliases a blind job's cells. Optional so
    /// pre-continuation clients (which omit the field) keep submitting
    /// blind jobs unchanged.
    pub warm_start: Option<bool>,
    /// Per-job wall-clock deadline in milliseconds, enforced server-side:
    /// once it elapses, cells not yet started are quarantined as typed
    /// `deadline-exceeded` failures (never cached) and the job terminates
    /// with a partial [`crate::protocol::Reply::Done`]. `None` (and absent,
    /// for pre-deadline clients) = no deadline. The deadline is excluded
    /// from [`cell_key`], so cells computed under a deadline are shared
    /// with deadline-free jobs and vice versa.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// Content-addressed job id, the FNV-1a hash of the canonical spec JSON:
    /// identical specs — same problems, same estimator configs, same seed
    /// and policy — get identical ids.
    pub fn job_id(&self) -> String {
        // Serializing an in-memory spec cannot fail.
        let canonical = serde_json::to_string(self).unwrap_or_else(|_| format!("{self:?}"));
        format!("job-{:016x}", fnv1a(&canonical))
    }
}

/// Typed rejection of a job submission.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job listed no estimators.
    NoEstimators,
    /// Two estimators of the job share a method name: the per-cell seed
    /// derivation and the report are keyed by name, so duplicates would
    /// alias each other's cells.
    DuplicateEstimator {
        /// The repeated method name.
        name: String,
    },
    /// The suite name is not one the server knows.
    UnknownSuite {
        /// The offending name.
        suite: String,
    },
    /// The problem, estimator or policy specification is invalid (bad axis,
    /// bad timing, bad spec factor, a model-domain violation, an estimator
    /// configuration its constructor would reject, or a policy with a zero
    /// budget or a non-positive target).
    BadSpec {
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::NoEstimators => write!(f, "job lists no estimators"),
            JobError::DuplicateEstimator { name } => {
                write!(
                    f,
                    "duplicate estimator {name:?}: cells are keyed by method name"
                )
            }
            JobError::UnknownSuite { suite } => {
                write!(
                    f,
                    "unknown suite {suite:?} (expected \"fast\" or \"standard\")"
                )
            }
            JobError::BadSpec { detail } => write!(f, "invalid job spec: {detail}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A validated, ready-to-run job: the prepared [`YieldAnalysis`] plus the
/// content-addressed cache key of every cell and, for a warm job, its
/// donor map.
pub struct JobPlan {
    /// Content-addressed job id.
    pub job_id: String,
    /// The analysis: problems and estimators registered, seed, policy and
    /// execution set. The sweep runner applies them when it runs.
    pub analysis: YieldAnalysis,
    /// The cache key ([`cell_key`]) of every (problem, estimator) cell, in
    /// registration order (problem-major, estimator-minor).
    pub keys: Vec<String>,
    /// The warm-start donor map ([`SweepPlan::warm_donors`]) of a warm
    /// plan job; `None` for a blind job.
    pub warm_donors: Option<BTreeMap<String, String>>,
}

/// Canonical cache key of one cell: the canonical JSON of everything that
/// pins the cell's result — problem identity, problem name, the full
/// estimator spec, master seed, convergence policy, the derived per-cell
/// seed and (for continuation-mode cells) the warm-start donor. This is
/// the same identity set the sweep checkpoint validates on restore, so
/// "cache hit" and "checkpoint restore" agree on when two cells are the
/// same computation.
///
/// A warm cell's result depends on its donor's diagnostics, so the donor
/// name is part of the identity — a warm cell and the blind cell of the
/// same scenario never alias. The `warm_from` entry is appended only when
/// present, which keeps blind keys byte-identical to pre-continuation
/// journals (their replayed entries still hit).
pub fn cell_key(
    identity: &serde::Value,
    problem: &str,
    estimator: &EstimatorSpec,
    master_seed: u64,
    policy: &Option<ConvergencePolicy>,
    derived_seed: u64,
    warm_from: Option<&str>,
) -> String {
    let mut fields = vec![
        ("v".to_string(), 1u32.to_value()),
        ("problem".to_string(), identity.clone()),
        ("name".to_string(), problem.to_value()),
        ("estimator".to_string(), estimator.to_value()),
        ("master_seed".to_string(), master_seed.to_value()),
        ("policy".to_string(), policy.to_value()),
        ("seed".to_string(), derived_seed.to_value()),
    ];
    if let Some(donor) = warm_from {
        fields.push(("warm_from".to_string(), donor.to_value()));
    }
    let value = serde::Value::Object(fields);
    // Serializing an in-memory value cannot fail.
    serde_json::to_string(&value).unwrap_or_else(|_| format!("{value:?}"))
}

/// Validates `spec` and prepares it for execution under the server's
/// `execution` configuration: problems rebuilt, estimators constructed,
/// per-cell seeds derived, cache keys computed and, for a warm plan job,
/// the donor map built.
pub fn plan_job(spec: &JobSpec, execution: ExecutionConfig) -> Result<JobPlan, JobError> {
    if spec.estimators.is_empty() {
        return Err(JobError::NoEstimators);
    }
    let mut seen = std::collections::BTreeSet::new();
    for estimator in &spec.estimators {
        if !seen.insert(estimator.method_name()) {
            return Err(JobError::DuplicateEstimator {
                name: estimator.method_name().to_string(),
            });
        }
        estimator.validate().map_err(|detail| JobError::BadSpec {
            detail: format!("{}: {detail}", estimator.method_name()),
        })?;
    }
    if let Some(policy) = &spec.policy {
        policy
            .validate()
            .map_err(|detail| JobError::BadSpec { detail })?;
    }
    let problems = spec.problem.build()?;
    {
        let mut names = std::collections::BTreeSet::new();
        for p in &problems {
            if !names.insert(p.name.as_str()) {
                return Err(JobError::BadSpec {
                    detail: format!("duplicate problem name {:?}", p.name),
                });
            }
        }
    }
    // A failed allocation aborts the process, which no unwinding contains,
    // so an estimator whose buffers would not fit is refused here.
    let dim = problems.iter().map(|p| p.problem.dim()).max().unwrap_or(0);
    for estimator in &spec.estimators {
        let bytes = estimator.working_set(dim);
        if bytes > MAX_WORKING_SET_BYTES {
            return Err(JobError::BadSpec {
                detail: format!(
                    "{}: preallocates {bytes} bytes on {dim} dimensions, above the \
                     {MAX_WORKING_SET_BYTES}-byte bound",
                    estimator.method_name()
                ),
            });
        }
    }

    let mut analysis = YieldAnalysis::new()
        .master_seed(spec.master_seed)
        .execution(execution);
    if let Some(policy) = spec.policy {
        analysis = analysis.convergence_policy(policy);
    }
    // Continuation mode only has grid adjacency to exploit on a sweep
    // plan; every other problem family stays blind even when requested.
    let warm_donors = match (&spec.problem, spec.warm_start.unwrap_or(false)) {
        (ProblemSpec::Plan { plan }, true) => Some(plan.warm_donors()),
        _ => None,
    };
    let mut keys = Vec::with_capacity(problems.len() * spec.estimators.len());
    for built in problems {
        let warm_from = warm_donors
            .as_ref()
            .and_then(|donors| donors.get(&built.name));
        for estimator in &spec.estimators {
            keys.push(cell_key(
                &built.identity,
                &built.name,
                estimator,
                spec.master_seed,
                &spec.policy,
                analysis.derived_seed(&built.name, estimator.method_name()),
                warm_from.map(String::as_str),
            ));
        }
        analysis = analysis.problem(built.name, built.problem);
    }
    for estimator in &spec.estimators {
        analysis = analysis.estimator(estimator.build());
    }
    Ok(JobPlan {
        job_id: spec.job_id(),
        analysis,
        keys,
        warm_donors,
    })
}
