//! `analytic-ladder`: all five estimators on `gis_core::problems` problems
//! whose failure probability is known exactly, run as 2-wide `SweepRunner`
//! matrices with a checkpoint file.
//!
//! The models cost nanoseconds, so the estimators and gis_stats do the work
//! and the circuit kernels are bypassed. A job is one sweep of two
//! matrices: every estimator on three low-sigma problems (a linear plane,
//! one equicorrelated and one curved quadratic problem), then the
//! dimensionality ladder (6 → 576-d) at 4σ and 5σ under gradient IS. The baselines stay off the ladder: on its high rungs they
//! either cost tens of seconds per cell (minimum-norm IS) or miss the exact
//! probability by more than four of their own standard errors (spherical,
//! scaled-sigma and budget-capped Monte Carlo), which would make the
//! correctness score fail by design rather than by regression.

use crate::probe::{mean, record_calls, ModelCall, TimedModel};
use crate::trace::{Span, Tracer};
use crate::Run;
use gis_core::{
    BenchmarkProblem, ConvergencePolicy, Estimator, ExecutionConfig, FailureProblem, FaultPlan,
    GisConfig, GradientImportanceSampling, MethodReport, SweepRunner, YieldAnalysis,
    DEFAULT_CELL_ATTEMPTS,
};
use gis_stats::RngStream;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sweep jobs per requested second (one job takes about 1.3 s on two cores).
const JOBS_PER_SECOND: f64 = 0.77;
const SETUP_REPETITIONS: usize = 5;
/// An estimate misses the exact probability beyond this many of its own
/// reported standard errors.
const MAX_Z: f64 = 4.0;
/// Estimators whose miss counts as a failed analysis. Their intervals are
/// honest on these problems: over 400 seeds of a low-sigma matrix neither
/// missed once. Minimum-norm IS, scaled-sigma and spherical sampling missed
/// 0.1–0.25% of the time (their reported errors are known to be too small),
/// which would fail about one analysis per run by design; their misses are
/// reported as `estimator.z4_miss_frac` instead.
const SCORED: [&str; 2] = ["gradient-is", "monte-carlo"];

struct Matrix {
    name: &'static str,
    problems: Vec<BenchmarkProblem>,
    estimators: fn() -> Vec<Box<dyn Estimator>>,
    budget: u64,
}

/// The five estimators, the two fixed-cost ones first: a matrix's first
/// result then times scheduler start-up plus a ~10 ms cell, not a
/// sub-millisecond one dominated by thread-start jitter.
fn five_estimators() -> Vec<Box<dyn Estimator>> {
    let mut estimators = gis_core::standard_estimators();
    estimators.sort_by_key(|e| match e.name() {
        "scaled-sigma-sampling" => 0,
        "monte-carlo" => 1,
        _ => 2,
    });
    estimators
}

fn ladder_estimators() -> Vec<Box<dyn Estimator>> {
    vec![Box::new(GradientImportanceSampling::new(
        GisConfig::default(),
    ))]
}

/// Set-up: problem construction, quadrature reference included.
fn setup() -> Vec<Matrix> {
    vec![
        Matrix {
            name: "five",
            problems: vec![
                BenchmarkProblem::linear(6, 3.0),
                BenchmarkProblem::correlated(8, 2.5, 0.5),
                BenchmarkProblem::quadratic(6, 2.5, 0.05),
            ],
            estimators: five_estimators,
            budget: 200_000,
        },
        Matrix {
            name: "ladder",
            // Largest rungs first, so the two 576-d cells always run side by
            // side on the two matrix threads.
            problems: [576, 96, 24, 6]
                .into_iter()
                .flat_map(|dim| [4.0, 5.0].map(|beta| BenchmarkProblem::linear(dim, beta)))
                .collect(),
            estimators: ladder_estimators,
            budget: 200_000,
        },
    ]
}

/// One finished cell as the sweep observer saw it.
struct CellEnd {
    problem: String,
    report: MethodReport,
    end: Instant,
    thread: u64,
}

pub fn run(seed: u64, seconds: u64, tracer: Option<&Tracer>, work: &Path) -> Run {
    let mut run = Run::default();
    let mut built = None;
    for _ in 0..SETUP_REPETITIONS {
        let start = Instant::now();
        built = Some(setup());
        run.setup_s.push(start.elapsed().as_secs_f64());
    }
    let matrices = built.expect("set-up ran");
    let exact: BTreeMap<String, f64> = matrices
        .iter()
        .flat_map(|m| &m.problems)
        .map(|p| (p.name().to_string(), p.exact_probability()))
        .collect();
    let jobs = ((seconds as f64 * JOBS_PER_SECOND).round() as u64).max(1);
    let seeds = RngStream::from_seed(seed);
    let mut traced = TracedTotals::default();
    let (mut bytes, mut restore_ms, mut overlap) = (Vec::new(), Vec::new(), Vec::new());
    let mut misses = Vec::new();

    let timed_start = Instant::now();
    for job in 0..jobs {
        let (cells_before, evals_before) = (run.analyses.len(), run.evals_executed);
        let master_seed = seeds.split(job).seed();
        let job_start = Instant::now();
        // The job's time excludes the checkpoint checks between matrices.
        let mut job_wall = std::time::Duration::ZERO;
        let (trace, job_span) = tracer.map_or((0, 0), |t| (t.new_id(), t.new_id()));
        for matrix in &matrices {
            let matrix_start = Instant::now();
            // With tracing, each problem's model sits behind a TimedModel.
            let mut timed = Vec::new();
            let mut analysis = YieldAnalysis::new()
                .master_seed(master_seed)
                .convergence_policy(
                    ConvergencePolicy::with_budget(matrix.budget).target_relative_error(0.1),
                )
                .execution(ExecutionConfig::serial())
                .estimators((matrix.estimators)());
            for bench in &matrix.problems {
                let problem = if tracer.is_some() {
                    let model = Arc::new(TimedModel::new(bench.fork(), false));
                    timed.push(model.clone());
                    FailureProblem::new(model, bench.problem().spec())
                } else {
                    bench.fork()
                };
                analysis = analysis.problem(bench.name(), problem);
            }
            let checkpoint = work.join(format!("{}-{job}.jsonl", matrix.name));
            let runner = SweepRunner::new()
                .matrix(ExecutionConfig::with_threads(2))
                .checkpoint(&checkpoint)
                .cell_attempts(DEFAULT_CELL_ATTEMPTS)
                .faults(FaultPlan::default());
            let cells: Mutex<Vec<CellEnd>> = Mutex::new(Vec::new());
            let start = Instant::now();
            let outcome = runner.run_observed(&mut analysis, &|update| {
                let end = Instant::now();
                cells.lock().expect("cell list lock").push(CellEnd {
                    problem: update.problem.to_string(),
                    report: update.report.clone(),
                    end,
                    thread: crate::trace::thread_tag(),
                });
            });
            let end = Instant::now();
            job_wall += end - matrix_start;
            let cells = cells.into_inner().expect("cell list lock");
            if matrix.name == "five" {
                if let Some(first) = cells.iter().map(|c| c.end).min() {
                    run.first_cells.push((first - job_start).as_secs_f64());
                }
            }
            let makespan = (end - start).as_secs_f64();
            let mut busy = 0.0;
            for cell in &cells {
                let row = &cell.report.row;
                busy += row.wall_time_seconds;
                run.analyses.push(row.wall_time_seconds);
                run.analysis_evals.push(row.evaluations);
                run.evals_executed += row.evaluations;
                let p = row.failure_probability;
                let se = cell.report.outcome.result.standard_error;
                let z = (p - exact[&cell.problem]).abs() / se;
                let miss = z.is_nan() || z > MAX_Z;
                misses.push(f64::from(u8::from(miss)));
                let scored = SCORED.contains(&cell.report.estimator.as_str());
                if cell.report.is_failed() || !p.is_finite() || (miss && scored) {
                    run.failed += 1;
                    eprintln!(
                        "perfbench: job {job} {} / {} failed: estimate {p:e}, exact {:e}, \
                         {z:.2} standard errors",
                        cell.problem, cell.report.estimator, exact[&cell.problem]
                    );
                }
            }
            overlap.push(busy / makespan);
            match &outcome.report {
                Some(report) if outcome.status.failed_cells.is_empty() => {
                    run.fingerprint.push(crate::digest(report))
                }
                _ => run.checks.push(format!(
                    "{} matrix of job {job} did not complete",
                    matrix.name
                )),
            }
            bytes.push(
                std::fs::metadata(&checkpoint).map_or(0, |m| m.len()) as f64 / cells.len() as f64,
            );
            let status_start = Instant::now();
            let status = runner.status(&mut analysis);
            let status_end = Instant::now();
            restore_ms.push((status_end - status_start).as_secs_f64() * 1e3);
            if status.restored_cells != status.total_cells || status.discarded_records != 0 {
                run.checks.push(format!(
                    "{} checkpoint of job {job} restored {}/{} cells, discarded {}",
                    matrix.name,
                    status.restored_cells,
                    status.total_cells,
                    status.discarded_records
                ));
            }
            let _ = std::fs::remove_file(&checkpoint);
            if let Some(tracer) = tracer {
                let sweep = tracer.record("sweep.run", trace, Some(job_span), start, end);
                tracer.record(
                    "sweep.status",
                    trace,
                    Some(job_span),
                    status_start,
                    status_end,
                );
                let calls: Vec<ModelCall> = timed.iter().flat_map(|m| m.take_calls()).collect();
                traced.add_cells(tracer, &cells, &calls, trace, sweep);
            }
        }
        let job_end = Instant::now();
        run.jobs.push(job_wall.as_secs_f64());
        run.end_unit(job_wall, cells_before, evals_before);
        run.sample_host();
        if let Some(tracer) = tracer {
            tracer.push(Span {
                id: job_span,
                parent: None,
                trace,
                name: "job",
                start_ns: tracer.ns(job_start),
                end_ns: tracer.ns(job_end),
                thread: crate::trace::thread_tag(),
            });
        }
    }
    run.timed_wall_s = timed_start.elapsed().as_secs_f64();

    if tracer.is_some() {
        let layers = &mut run.layers;
        traced.report(layers);
        layers.insert("sweep.checkpoint_bytes_per_cell", mean(&bytes));
        layers.insert("sweep.restore_ms", crate::probe::median(&restore_ms));
        layers.insert("sweep.matrix_overlap", mean(&overlap));
        layers.insert("estimator.z4_miss_frac", mean(&misses));
    }
    run
}

/// Model and estimator totals of the traced run.
#[derive(Default)]
struct TracedTotals {
    model: crate::probe::CallTotals,
    analysis_ns: f64,
    analyses: u64,
    self_ns: BTreeMap<String, Vec<f64>>,
    search: Vec<f64>,
    sampling: Vec<f64>,
    ess: Vec<f64>,
}

impl TracedTotals {
    /// Records one analysis span per cell under `parent` and attributes each
    /// model call to the first cell that finished after it on the same
    /// thread (a matrix thread runs its cells one after another).
    fn add_cells(
        &mut self,
        tracer: &Tracer,
        cells: &[CellEnd],
        calls: &[ModelCall],
        trace: u64,
        parent: u64,
    ) {
        let mut order: Vec<&CellEnd> = cells.iter().collect();
        order.sort_by_key(|c| (c.thread, c.end));
        for (i, cell) in order.iter().enumerate() {
            let previous_end = i
                .checked_sub(1)
                .map(|j| order[j])
                .filter(|p| p.thread == cell.thread)
                .map(|p| p.end);
            let wall = std::time::Duration::from_secs_f64(cell.report.row.wall_time_seconds);
            let start = cell.end.checked_sub(wall).unwrap_or(cell.end);
            let start = previous_end.map_or(start, |p| start.max(p));
            let span = tracer.record("analysis", trace, Some(parent), start, cell.end);
            let mine: Vec<ModelCall> = calls
                .iter()
                .filter(|c| {
                    c.thread == cell.thread
                        && c.end <= cell.end
                        && previous_end.is_none_or(|p| c.start >= p)
                })
                .copied()
                .collect();
            let totals = record_calls(tracer, &mine, trace, span);
            let wall_ns = wall.as_nanos() as f64;
            self.model.add(totals);
            self.analysis_ns += wall_ns;
            self.analyses += 1;
            let outcome = &cell.report.outcome;
            self.self_ns
                .entry(cell.report.estimator.clone())
                .or_default()
                .push(wall_ns - totals.union_ns as f64);
            if let Some(mpfp) = outcome.mpfp() {
                self.search.push(mpfp.evaluations as f64);
                self.sampling
                    .push((outcome.result.evaluations - mpfp.evaluations) as f64);
            }
            if let Some(is) = outcome.is_diagnostics() {
                let samples = outcome.result.sampling_evaluations.max(1) as f64;
                self.ess.push(is.effective_sample_size / samples);
            }
        }
    }

    fn report(&self, layers: &mut crate::Layers) {
        let m = &self.model;
        layers.insert("model.batches", m.calls as f64 / self.analyses as f64);
        layers.insert("model.batch_mean", m.points as f64 / m.calls as f64);
        layers.insert("model.eval_us", m.busy_ns as f64 / m.points as f64 / 1e3);
        layers.insert("model.busy_frac", m.union_ns as f64 / self.analysis_ns);
        layers.insert("exec.overlap", m.busy_ns as f64 / m.union_ns as f64);
        for (method, samples) in &self.self_ns {
            if let Some(name) = crate::estimator_self_metric(method) {
                layers.insert(name, mean(samples) / 1e9);
            }
        }
        layers.insert("gis.search_evals", mean(&self.search));
        layers.insert("gis.sampling_evals", mean(&self.sampling));
        layers.insert("is.ess_frac", mean(&self.ess));
    }
}
