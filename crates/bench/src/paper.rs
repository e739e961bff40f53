//! The paper's evaluation as data: the manifest of experiments `bench_paper`
//! runs, and the rows of the `BENCH_paper.json` it writes.
//!
//! Every experiment is a list of [`gis_serve::JobSpec`]s, so
//! [`ProblemSpec::build`] is the only code that builds a paper problem. A
//! local run goes through [`gis_serve::plan_job`] and the served run ships
//! the same specs to a daemon, and both turn the returned
//! [`AnalysisReport`] into rows with [`rows`]: the two cannot drift apart.
//!
//! Figures 4 and 7 are views of the `convergence` rows' traces (fig 7's
//! figure of merit is `1/(ρ²N)` of each trace point). Figures 5 and 8
//! compare against a reference that is an ordinary GIS job at ten times
//! the budget of the runs it checks.

use crate::MASTER_SEED;
use gis_core::{
    AnalysisReport, ConvergencePoint, ConvergencePolicy, EstimatorOutcome, ExecutionConfig,
    GisConfig, ImportanceSamplingConfig, MnisConfig, MonteCarloConfig, MpfpConfig,
    SphericalSamplingConfig, SramMetric, SssConfig,
};
use gis_serve::{plan_job, EstimatorSpec, JobError, JobSpec, ProblemSpec};
use gis_sram::TestbenchTiming;
use serde::Serialize;

/// One named experiment of the evaluation: its jobs, in run order.
pub struct Experiment {
    /// Unique experiment name (the `experiment` column of its rows).
    pub name: &'static str,
    /// The jobs, each run on its own.
    pub jobs: Vec<PaperJob>,
}

/// One job of an experiment.
pub struct PaperJob {
    /// Names the estimator configuration when an experiment runs one
    /// estimator on one problem more than once: the ablation's `GisConfig`
    /// variants and the 10×-budget references. `plan_job` rejects two
    /// estimators of one name in a job, so each such run is a job of its
    /// own.
    pub variant: Option<&'static str>,
    /// The job as it is planned locally or shipped to a daemon.
    pub spec: JobSpec,
}

/// One row of `BENCH_paper.json`: one estimator's result on one problem.
///
/// Every column but `wall_time_s` is a pure function of the manifest, so
/// it is equal at every thread count and between local and served runs.
#[derive(Debug, Clone, Serialize)]
pub struct PaperRow {
    /// Experiment name.
    pub experiment: String,
    /// Metric under test (`read-access-time`, `write-delay`).
    pub metric: String,
    /// The spec rung: the spec limit as a multiple of the nominal metric.
    pub spec_factor: f64,
    /// Variation parameters added to the cell's six (table 3's axis).
    pub padded_dimensions: usize,
    /// Estimator method name.
    pub estimator: String,
    /// The job's [`PaperJob::variant`].
    pub variant: Option<String>,
    /// Failure-probability estimate.
    pub estimate: f64,
    /// Its standard error.
    pub standard_error: f64,
    /// Equivalent sigma level (`null` for a zero estimate).
    pub sigma: f64,
    /// Relative 90% confidence half-width (infinite for a zero estimate).
    pub rel90: f64,
    /// Simulations spent, search included.
    pub simulations: u64,
    /// The estimator's `converged` flag (see
    /// [`gis_core::ExtractionResult::converged`] for what it means per
    /// estimator).
    pub converged: bool,
    /// Distance in sigmas to the closest failure the method found: the
    /// MPFP for GIS, the minimum-norm point for MNIS, the smallest failing
    /// radius for spherical sampling; `None` for Monte Carlo and SSS.
    pub mpfp_beta: Option<f64>,
    /// Wall-clock seconds of the local run (`null` when served: the daemon
    /// does not send it).
    pub wall_time_s: f64,
    /// Convergence trace: running estimate against simulations.
    pub trace: Vec<ConvergencePoint>,
}

/// Plans `spec` as a daemon would, with this process's `GIS_THREADS`, and
/// runs it.
pub fn run_local(spec: &JobSpec) -> Result<AnalysisReport, JobError> {
    Ok(plan_job(spec, ExecutionConfig::from_env())?.analysis.run())
}

/// The rows of one job's report, in report order.
pub fn rows(experiment: &str, job: &PaperJob, report: &AnalysisReport) -> Vec<PaperRow> {
    let (metric, spec_factor, padded_dimensions) = match &job.spec.problem {
        ProblemSpec::SurrogateSram {
            metric,
            spec_factor,
            padded_dimensions,
        } => (*metric, *spec_factor, *padded_dimensions),
        ProblemSpec::TransientSram {
            metric,
            spec_factor,
            ..
        } => (*metric, *spec_factor, 0),
        // The manifest holds single-problem SRAM jobs only.
        other => unreachable!("not a paper problem: {other:?}"),
    };
    report
        .problems
        .iter()
        .flat_map(|problem| &problem.methods)
        .map(|method| {
            let result = &method.outcome.result;
            PaperRow {
                experiment: experiment.to_string(),
                metric: metric.name().to_string(),
                spec_factor,
                padded_dimensions,
                estimator: method.estimator.clone(),
                variant: job.variant.map(str::to_string),
                estimate: result.failure_probability,
                standard_error: result.standard_error,
                sigma: result.sigma_level,
                rel90: result.relative_confidence_90(),
                simulations: result.evaluations,
                converged: result.converged,
                mpfp_beta: closest_failure(&method.outcome),
                wall_time_s: method.row.wall_time_seconds,
                trace: result.trace.clone(),
            }
        })
        .collect()
}

fn closest_failure(outcome: &EstimatorOutcome) -> Option<f64> {
    outcome
        .mpfp()
        .map(|mpfp| mpfp.beta)
        .or_else(|| outcome.search().map(|search| search.beta))
        .or_else(|| outcome.min_beta())
}

/// The whole evaluation, at full or at `--fast` size.
pub fn manifest(fast: bool) -> Vec<Experiment> {
    vec![
        // Spec rungs from about 3σ to 6σ; 2.0× is table 1's spec.
        ladder(
            "read-ladder",
            1,
            SramMetric::ReadAccessTime,
            None,
            size(fast, &[1.5, 1.6, 1.7, 2.0, 2.2, 2.4], &[1.5, 2.0]),
            fast,
        ),
        // Table 2's spec (3×) and timing: the nominal write completes within
        // a couple of picoseconds of the wordline rise, so the write delay
        // needs a finer step than the read to resolve the spec boundary.
        ladder(
            "write-ladder",
            2,
            SramMetric::WriteDelay,
            Some(TestbenchTiming {
                time_step: 1e-12,
                stop_time: 1.5e-9,
                ..TestbenchTiming::default()
            }),
            size(fast, &[1.3, 1.35, 1.5, 2.0, 2.5, 3.0], &[1.3, 3.0]),
            fast,
        ),
        sigma_sweep(fast),
        dimensionality(fast),
        convergence(fast),
        ablation(fast),
    ]
}

fn size<T>(fast: bool, full: T, reduced: T) -> T {
    if fast {
        reduced
    } else {
        full
    }
}

/// Job `index` of experiment `n` takes master seed
/// `MASTER_SEED + 1000·n + index`, so no two jobs share a stream and adding
/// an experiment moves no other.
fn job(
    n: u64,
    index: usize,
    variant: Option<&'static str>,
    problem: ProblemSpec,
    estimators: Vec<EstimatorSpec>,
) -> PaperJob {
    let spec = JobSpec {
        problem,
        estimators,
        master_seed: MASTER_SEED + 1_000 * n + index as u64,
        policy: None,
        warm_start: None,
        deadline_ms: None,
    };
    PaperJob { variant, spec }
}

fn surrogate_read(spec_factor: f64, padded_dimensions: usize) -> ProblemSpec {
    ProblemSpec::SurrogateSram {
        metric: SramMetric::ReadAccessTime,
        spec_factor,
        padded_dimensions,
    }
}

fn is_config(
    max_samples: u64,
    target_relative_error: f64,
    min_failures: u64,
) -> ImportanceSamplingConfig {
    ImportanceSamplingConfig {
        max_samples,
        target_relative_error,
        min_failures,
        ..ImportanceSamplingConfig::default()
    }
}

fn gis(sampling: ImportanceSamplingConfig) -> EstimatorSpec {
    EstimatorSpec::GradientIs {
        config: GisConfig {
            sampling,
            ..GisConfig::default()
        },
    }
}

/// The reference of figures 5 and 8: default GIS at ten times `budget`
/// and a 1% target, a tenth of the 10% the checked runs stop at.
fn reference(budget: u64, fast: bool) -> EstimatorSpec {
    gis(is_config(10 * budget, 0.01, size(fast, 1_000, 100)))
}

/// GIS, MNIS, spherical and scaled-sigma sampling at every rung of a
/// transient ladder, with Monte Carlo anchors at the two lowest rungs. A
/// write costs about 40 times a read, so the write baselines get smaller
/// presampling and per-scale budgets (tables 1 and 2's settings).
fn ladder(
    name: &'static str,
    n: u64,
    metric: SramMetric,
    timing: Option<TestbenchTiming>,
    rungs: &[f64],
    fast: bool,
) -> Experiment {
    let write = metric == SramMetric::WriteDelay;
    let sampling = ImportanceSamplingConfig {
        max_samples: size(
            fast,
            if write { 6_000 } else { 4_000 },
            if write { 300 } else { 400 },
        ),
        batch_size: size(fast, 250, 100),
        target_relative_error: 0.1,
        min_failures: size(fast, 30, 10),
        ..ImportanceSamplingConfig::default()
    };
    let jobs = rungs
        .iter()
        .enumerate()
        .map(|(index, &spec_factor)| {
            let mut estimators = vec![
                gis(sampling.clone()),
                EstimatorSpec::MinimumNormIs {
                    config: MnisConfig {
                        presamples_per_round: size(
                            fast,
                            if write { 1_000 } else { 1_500 },
                            if write { 250 } else { 300 },
                        ),
                        presample_scales: vec![2.0, 2.5, 3.0],
                        sampling: sampling.clone(),
                        ..MnisConfig::default()
                    },
                },
                EstimatorSpec::SphericalSampling {
                    config: SphericalSamplingConfig {
                        directions: size(
                            fast,
                            if write { 150 } else { 200 },
                            if write { 25 } else { 30 },
                        ),
                        min_failing_directions: size(fast, 10, 5),
                        ..SphericalSamplingConfig::default()
                    },
                },
                EstimatorSpec::ScaledSigmaSampling {
                    config: SssConfig {
                        scales: size(fast, vec![1.6, 2.0, 2.4, 2.8, 3.2], vec![1.6, 2.4, 3.2]),
                        samples_per_scale: size(
                            fast,
                            if write { 800 } else { 1_600 },
                            if write { 120 } else { 150 },
                        ),
                        min_failures_per_scale: size(fast, 10, 5),
                    },
                },
            ];
            if index < 2 {
                estimators.push(EstimatorSpec::MonteCarlo {
                    config: MonteCarloConfig {
                        max_samples: size(fast, 1_000_000, 2_000),
                        ..MonteCarloConfig::default()
                    },
                });
            }
            let problem = ProblemSpec::TransientSram {
                metric,
                spec_factor,
                timing: timing.clone(),
            };
            job(n, index, None, problem, estimators)
        })
        .collect();
    Experiment { name, jobs }
}

/// Figure 5: GIS and MNIS across surrogate spec rungs under one uniform
/// policy, each rung with its reference.
fn sigma_sweep(fast: bool) -> Experiment {
    let budget = size(fast, 60_000, 10_000);
    let rungs: &[f64] = size(fast, &[1.35, 1.5, 1.7, 1.9, 2.2, 2.6], &[1.5, 2.2]);
    let mut jobs = Vec::new();
    for &spec_factor in rungs {
        let mut compared = job(
            3,
            jobs.len(),
            None,
            surrogate_read(spec_factor, 0),
            vec![
                EstimatorSpec::GradientIs {
                    config: GisConfig::default(),
                },
                EstimatorSpec::MinimumNormIs {
                    config: MnisConfig::default(),
                },
            ],
        );
        compared.spec.policy = Some(
            ConvergencePolicy::with_budget(budget)
                .target_relative_error(0.1)
                .min_failures(30),
        );
        jobs.push(compared);
        jobs.push(job(
            3,
            jobs.len(),
            Some("reference"),
            surrogate_read(spec_factor, 0),
            vec![reference(budget, fast)],
        ));
    }
    Experiment {
        name: "sigma-sweep",
        jobs,
    }
}

/// Table 3: GIS, MNIS and spherical sampling as padded peripheral
/// parameters raise the dimension from 6 to 48. MNIS's presampling grows
/// with the dimension.
fn dimensionality(fast: bool) -> Experiment {
    let dimensions: &[usize] = size(fast, &[6, 12, 24, 48], &[6, 12]);
    let sampling = ImportanceSamplingConfig {
        batch_size: 1_000,
        ..is_config(size(fast, 100_000, 10_000), 0.1, 30)
    };
    let jobs = dimensions
        .iter()
        .enumerate()
        .map(|(index, &dim)| {
            job(
                4,
                index,
                None,
                surrogate_read(2.0, dim - 6),
                vec![
                    gis(sampling.clone()),
                    EstimatorSpec::MinimumNormIs {
                        config: MnisConfig {
                            presamples_per_round: 1_000 * (dim / 6),
                            presample_scales: vec![2.0, 2.5, 3.0, 3.5],
                            sampling: sampling.clone(),
                            ..MnisConfig::default()
                        },
                    },
                    EstimatorSpec::SphericalSampling {
                        config: SphericalSamplingConfig {
                            directions: size(fast, 3_000, 300),
                            ..SphericalSamplingConfig::default()
                        },
                    },
                ],
            )
        })
        .collect();
    Experiment {
        name: "dimensionality",
        jobs,
    }
}

/// Figures 4 and 7: all five estimators on the surrogate at 1.8×, to a 2%
/// target, so that the traces show how each converges.
fn convergence(fast: bool) -> Experiment {
    let sampling = ImportanceSamplingConfig {
        batch_size: 500,
        ..is_config(size(fast, 50_000, 5_000), 0.02, 50)
    };
    let estimators = vec![
        gis(sampling.clone()),
        EstimatorSpec::MinimumNormIs {
            config: MnisConfig {
                sampling,
                ..MnisConfig::default()
            },
        },
        EstimatorSpec::SphericalSampling {
            config: SphericalSamplingConfig {
                directions: size(fast, 3_000, 300),
                target_relative_error: 0.02,
                ..SphericalSamplingConfig::default()
            },
        },
        EstimatorSpec::ScaledSigmaSampling {
            config: SssConfig {
                samples_per_scale: size(fast, 10_000, 1_000),
                ..SssConfig::default()
            },
        },
        // Monte Carlo cannot converge at this sigma; its trace shows why.
        EstimatorSpec::MonteCarlo {
            config: MonteCarloConfig {
                max_samples: size(fast, 200_000, 20_000),
                batch_size: 10_000,
                ..MonteCarloConfig::default()
            },
        },
    ];
    Experiment {
        name: "convergence",
        jobs: vec![job(5, 0, None, surrogate_read(1.8, 0), estimators)],
    }
}

/// Figure 8: GIS with one design choice changed at a time, on the
/// surrogate at 1.8×, against a reference.
fn ablation(fast: bool) -> Experiment {
    let budget = size(fast, 40_000, 4_000);
    let variants = [
        ("default", GisConfig::default()),
        (
            "pure-mean-shift",
            GisConfig {
                defensive_fraction: 0.0,
                ..GisConfig::default()
            },
        ),
        (
            "no-adaptation",
            GisConfig {
                adaptive_recentering: false,
                ..GisConfig::default()
            },
        ),
        (
            "bridge-mixture",
            GisConfig {
                bridge_fraction: 0.25,
                bridge_position: 0.75,
                ..GisConfig::default()
            },
        ),
        (
            "coarse-gradient-step",
            GisConfig {
                mpfp: MpfpConfig {
                    finite_difference_step: 0.5,
                    ..MpfpConfig::default()
                },
                ..GisConfig::default()
            },
        ),
        (
            "fine-gradient-step",
            GisConfig {
                mpfp: MpfpConfig {
                    finite_difference_step: 0.01,
                    ..MpfpConfig::default()
                },
                ..GisConfig::default()
            },
        ),
        (
            "heavy-defensive-0.3",
            GisConfig {
                defensive_fraction: 0.3,
                ..GisConfig::default()
            },
        ),
    ];
    let mut jobs: Vec<PaperJob> = variants
        .into_iter()
        .enumerate()
        .map(|(index, (variant, config))| {
            let config = GisConfig {
                sampling: is_config(budget, 0.1, 30),
                ..config
            };
            job(
                6,
                index,
                Some(variant),
                surrogate_read(1.8, 0),
                vec![EstimatorSpec::GradientIs { config }],
            )
        })
        .collect();
    jobs.push(job(
        6,
        jobs.len(),
        Some("reference"),
        surrogate_read(1.8, 0),
        vec![reference(budget, fast)],
    ));
    Experiment {
        name: "ablation",
        jobs,
    }
}
