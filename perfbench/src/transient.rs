//! `transient-gis`: the paper's sign-off task. Gradient importance sampling
//! runs to its ±10% relative-error target on the transient 6T read
//! testbench, one analysis at a time on a two-thread evaluation engine.
//!
//! A job is one die seed's sign-off at three read-access specs (2.0×, 2.2×
//! and 2.4× nominal, about 5.1σ, 5.6σ and 6.0σ). The GIS search and
//! sampling overhead is about a microsecond per evaluation against a few
//! hundred microseconds per simulation, so nearly all time sits under
//! `evaluate_batch` in gis_sram → gis_circuit → gis_linalg.
//!
//! The traced run additionally replays a seeded sample of the points GIS
//! evaluated through the lower layers' public functions (session
//! `run_batch`, `transient_analysis_with`, `solve_newton_in`, `SparseLu`)
//! to measure them one layer at a time.

use crate::probe::{mean, median, record_calls, time_per_call_ns, CallTotals, TimedModel};
use crate::trace::{Span, Tracer};
use crate::{Layers, Run};
use gis_circuit::mna::MAX_NEWTON_ITERATIONS;
use gis_circuit::{
    transient_analysis_with, Circuit, MnaSystem, SimulationWorkspace, SourceWaveform,
    TransientConfig,
};
use gis_core::{
    default_sram_variation_space, Estimator, ExecutionConfig, FailureProblem, GisConfig,
    GradientImportanceSampling, ImportanceSamplingConfig, PerformanceModel, Spec, SramMetric,
    SramTransientModel, TransientKernel,
};
use gis_linalg::sparse::SparseLu;
use gis_linalg::Vector;
use gis_sram::{build_6t_cell, SramCellConfig, SramTestbench, TestbenchTiming};
use gis_stats::RngStream;
use gis_variation::{PelgromModel, VariationSpace};
use std::sync::Arc;
use std::time::Instant;

/// Read-access specs of one sign-off job, as multiples of the nominal.
const SPEC_FACTORS: [f64; 3] = [2.0, 2.2, 2.4];
/// Jobs per requested second: one job takes about 0.65 s on two idle
/// cores, and a 20-second run makes 34 jobs, so 102 analyses (at least
/// ten beyond the p90).
const JOBS_PER_SECOND: f64 = 1.7;
const SETUP_REPETITIONS: usize = 5;
/// Replayed points per lower-layer probe.
const REPLAY_POINTS: usize = 96;

/// The estimator under test, with every setting that changes what is
/// measured pinned here: two evaluation threads, 16-point work chunks, and
/// 64-point batches (four chunks, so both threads work on every batch).
fn gis() -> GradientImportanceSampling {
    GradientImportanceSampling::new(GisConfig {
        sampling: ImportanceSamplingConfig {
            max_samples: 4_000,
            batch_size: 64,
            target_relative_error: 0.1,
            min_failures: 30,
            corrected_stopping: true,
        },
        ..GisConfig::default()
    })
    .with_execution(ExecutionConfig::with_threads(2).with_chunk_size(16))
}

fn space(cell: &SramCellConfig) -> VariationSpace {
    default_sram_variation_space(cell, &PelgromModel::typical_45nm())
}

/// Set-up: the read model on the sparse kernel, its nominal simulation, and
/// one problem per spec. With `wrap`, the problems share a [`TimedModel`].
fn setup(wrap: bool) -> (Vec<FailureProblem>, Option<Arc<TimedModel>>) {
    let cell = SramCellConfig::typical_45nm();
    let model = SramTransientModel::new(
        SramTestbench::typical_45nm(),
        space(&cell),
        SramMetric::ReadAccessTime,
    )
    .with_kernel(TransientKernel::Sparse);
    let nominal = model.nominal_metric();
    let (shared, timed): (Arc<dyn PerformanceModel>, _) = if wrap {
        let spec = Spec::UpperLimit(nominal);
        let timed = Arc::new(TimedModel::new(
            FailureProblem::from_model(model, spec),
            true,
        ));
        (timed.clone(), Some(timed))
    } else {
        (Arc::new(model), None)
    };
    let problems = SPEC_FACTORS
        .iter()
        .map(|factor| FailureProblem::new(shared.clone(), Spec::UpperLimit(nominal * factor)))
        .collect();
    (problems, timed)
}

pub fn run(seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Run {
    let mut run = Run::default();
    let mut built = None;
    for _ in 0..SETUP_REPETITIONS {
        let start = Instant::now();
        built = Some(setup(tracer.is_some()));
        run.setup_s.push(start.elapsed().as_secs_f64());
    }
    let (problems, timed) = built.expect("set-up ran");
    let estimator = gis();
    let jobs = ((seconds as f64 * JOBS_PER_SECOND).round() as u64).max(1);
    let streams = RngStream::from_seed(seed);

    let mut model = CallTotals::default();
    let mut self_ns = Vec::new();
    let (mut search, mut sampling, mut ess) = (Vec::new(), Vec::new(), Vec::new());
    let timed_start = Instant::now();
    for job in 0..jobs {
        let (cells_before, evals_before) = (run.analyses.len(), run.evals_executed);
        let job_start = Instant::now();
        let (trace, job_span) = tracer.map_or((0, 0), |t| (t.new_id(), t.new_id()));
        for (k, problem) in problems.iter().enumerate() {
            let mut rng = streams.split(job * SPEC_FACTORS.len() as u64 + k as u64);
            let start = Instant::now();
            let outcome = estimator.estimate(&problem.fork(), &mut rng);
            let end = Instant::now();
            run.analyses.push((end - start).as_secs_f64());
            if k == 0 {
                run.first_cells.push((end - job_start).as_secs_f64());
            }
            let result = &outcome.result;
            run.analysis_evals.push(result.evaluations);
            run.evals_executed += result.evaluations;
            let p = result.failure_probability;
            if !(p.is_finite() && p > 0.0 && result.converged) {
                run.failed += 1;
            }
            run.fingerprint.push(format!(
                "{job}/{k}:{:016x}:{}:{}",
                p.to_bits(),
                result.evaluations,
                result.failures_observed
            ));
            if let (Some(tracer), Some(timed)) = (tracer, &timed) {
                let span = tracer.record("analysis", trace, Some(job_span), start, end);
                let calls = record_calls(tracer, &timed.take_calls(), trace, span);
                self_ns.push((end - start).as_nanos() as f64 - calls.union_ns as f64);
                model.add(calls);
                let search_evals = outcome.mpfp().map_or(0, |m| m.evaluations);
                search.push(search_evals as f64);
                sampling.push((result.evaluations - search_evals) as f64);
                if let Some(is) = outcome.is_diagnostics() {
                    ess.push(is.effective_sample_size / result.sampling_evaluations.max(1) as f64);
                }
            }
        }
        let job_end = Instant::now();
        run.jobs.push((job_end - job_start).as_secs_f64());
        run.end_unit(job_end - job_start, cells_before, evals_before);
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

    if let (Some(tracer), Some(timed)) = (tracer, timed) {
        let analyses = run.analyses.len() as f64;
        let wall_ns: f64 = run.analyses.iter().sum::<f64>() * 1e9;
        let layers = &mut run.layers;
        layers.insert("model.batches", model.calls as f64 / analyses);
        layers.insert("model.batch_mean", model.points as f64 / model.calls as f64);
        layers.insert(
            "model.eval_us",
            model.busy_ns as f64 / model.points as f64 / 1e3,
        );
        layers.insert("model.busy_frac", model.union_ns as f64 / wall_ns);
        layers.insert("exec.overlap", model.busy_ns as f64 / model.union_ns as f64);
        layers.insert("estimator.self_s.gradient-is", mean(&self_ns) / 1e9);
        layers.insert("gis.search_evals", mean(&search));
        layers.insert("gis.sampling_evals", mean(&sampling));
        layers.insert("is.ess_frac", mean(&ess));
        replay_layers(tracer, timed.take_points(), seed, layers);
    }
    run
}

/// The read-testbench netlist of `SramTestbench::read_session`, built with
/// the sample's threshold shifts: supply, pulsed wordline, and precharged
/// floating bitlines.
fn read_circuit(
    cell: &SramCellConfig,
    timing: &TestbenchTiming,
    deltas: &[f64],
) -> (Circuit, TransientConfig) {
    let vdd = cell.vdd;
    let mut ckt = Circuit::new();
    let nodes = build_6t_cell(&mut ckt, cell, deltas).expect("replayed shifts are valid");
    let ground = Circuit::ground();
    ckt.add_voltage_source("V_VDD", nodes.vdd, ground, SourceWaveform::dc(vdd));
    let wordline = SourceWaveform::pulse(
        0.0,
        vdd,
        timing.wordline_delay,
        timing.wordline_edge,
        timing.wordline_width,
    );
    ckt.add_voltage_source("V_WL", nodes.wordline, ground, wordline);
    for (name, node) in [("C_BL", nodes.bitline), ("C_BLB", nodes.bitline_bar)] {
        ckt.add_capacitor(name, node, ground, cell.bitline_capacitance)
            .expect("positive capacitance");
    }
    let mut ic = vec![0.0; ckt.num_nodes()];
    for node in [nodes.vdd, nodes.bitline, nodes.bitline_bar, nodes.q_bar] {
        ic[node] = vdd;
    }
    let config =
        TransientConfig::new(timing.stop_time, timing.time_step).with_initial_conditions(ic);
    (ckt, config)
}

/// Measures gis_sram, gis_circuit and gis_linalg on a seeded sample of the
/// points the traced GIS run evaluated.
fn replay_layers(tracer: &Tracer, mut points: Vec<Vector>, seed: u64, layers: &mut Layers) {
    let cell = SramCellConfig::typical_45nm();
    let space = space(&cell);
    // The evaluation threads capture points in completion order; sort them
    // so the seeded sample does not depend on thread timing.
    points.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut pick = RngStream::from_seed(seed ^ 0x5eed_5eed);
    let deltas: Vec<Vector> = (0..REPLAY_POINTS.min(points.len()))
        .map(|_| space.to_physical(&points[pick.uniform_index(points.len())]))
        .collect();
    let refs: Vec<&[f64]> = deltas.iter().map(Vector::as_slice).collect();
    let trace = tracer.new_id();
    let per_sample_us = |elapsed: f64| elapsed * 1e6 / refs.len() as f64;

    // gis_sram: session build and run_batch per sample, read and write.
    let read_bench = SramTestbench::typical_45nm();
    layers.insert(
        "sram.session_us",
        time_per_call_ns(5, 20, || {
            std::hint::black_box(read_bench.read_session().expect("read session"));
        }) / 1e3,
    );
    let mut read = read_bench.read_session().expect("read session");
    let read_us: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let results = read.run_batch(&refs);
            let end = Instant::now();
            assert!(results.iter().all(Result::is_ok), "replayed read failed");
            tracer.record("sram.run_batch", trace, None, start, end);
            per_sample_us((end - start).as_secs_f64())
        })
        .collect();
    layers.insert("sram.sim_us.read", median(&read_us));
    // Table 2's finer write timing.
    let write_timing = TestbenchTiming {
        time_step: 1e-12,
        stop_time: 1.5e-9,
        ..TestbenchTiming::default()
    };
    let write_bench = SramTestbench::new(cell.clone(), write_timing).expect("write testbench");
    let mut write = write_bench.write_session().expect("write session");
    let start = Instant::now();
    let results = write.run_batch(&refs);
    let end = Instant::now();
    assert!(results.iter().all(Result::is_ok), "replayed write failed");
    tracer.record("sram.run_batch", trace, None, start, end);
    layers.insert(
        "sram.sim_us.write",
        per_sample_us((end - start).as_secs_f64()),
    );

    // gis_circuit: one transient per replayed point on a shared workspace.
    let timing = TestbenchTiming::default();
    let mut workspace = SimulationWorkspace::new();
    let (mut steps, mut newton) = (0usize, 0usize);
    let mut transient_us = Vec::new();
    for sample in &refs {
        let (ckt, config) = read_circuit(&cell, &timing, sample);
        let start = Instant::now();
        let result = transient_analysis_with(&ckt, &config, &mut workspace).expect("transient");
        let end = Instant::now();
        tracer.record("circuit.transient", trace, None, start, end);
        transient_us.push((end - start).as_secs_f64() * 1e6);
        steps += result.num_points();
        newton += result.newton_iterations_total();
    }
    layers.insert("circuit.steps_per_sim", steps as f64 / refs.len() as f64);
    layers.insert("circuit.newton_per_step", newton as f64 / steps as f64);
    layers.insert("circuit.transient_us", median(&transient_us));

    // Warm DC Newton solve with the wordline held high (the bitlines then
    // have a resistive path, so the DC system is well-posed).
    let mut dc = Circuit::new();
    let nodes = build_6t_cell(&mut dc, &cell, &[0.0; 6]).expect("nominal cell");
    let ground = Circuit::ground();
    dc.add_voltage_source("V_VDD", nodes.vdd, ground, SourceWaveform::dc(cell.vdd));
    dc.add_voltage_source("V_WL", nodes.wordline, ground, SourceWaveform::dc(cell.vdd));
    for (name, node) in [("C_BL", nodes.bitline), ("C_BLB", nodes.bitline_bar)] {
        dc.add_capacitor(name, node, ground, cell.bitline_capacitance)
            .expect("positive capacitance");
    }
    let system = MnaSystem::new(&dc).expect("DC system");
    let mut dc_workspace = SimulationWorkspace::new();
    let mut newton_solve = || {
        system
            .solve_newton_in(&mut dc_workspace, 0.0, None, "dc", MAX_NEWTON_ITERATIONS)
            .expect("DC Newton converges")
    };
    newton_solve();
    let start = Instant::now();
    let newton_ns = time_per_call_ns(5, 200, || {
        std::hint::black_box(newton_solve());
    });
    tracer.record("circuit.newton", trace, None, start, Instant::now());
    layers.insert("circuit.newton_us", newton_ns / 1e3);

    // gis_linalg: the read netlist's symbolic plan, and one numeric
    // clear + stamp + factorize + solve on it.
    let symbolic = workspace.symbolic().expect("workspace bound").clone();
    layers.insert("linalg.fill_nnz", symbolic.fill_nnz() as f64);
    let n = symbolic.n();
    let entries: Vec<(usize, usize)> = (0..n)
        .flat_map(|r| {
            let pattern = symbolic.stamp_pattern();
            pattern
                .row_cols(r)
                .iter()
                .map(move |&c| (r, c as usize))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut lu = SparseLu::new(symbolic);
    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let mut x = vec![0.0; n];
    let start = Instant::now();
    let lu_ns = time_per_call_ns(5, 2_000, || {
        lu.clear();
        for &(r, c) in &entries {
            let value = if r == c {
                4.0 + r as f64
            } else {
                -1.0 / (1.0 + (r + c) as f64)
            };
            lu.add_at(r, c, value);
        }
        lu.factorize().expect("diagonally dominant matrix factors");
        lu.solve(&rhs, &mut x).expect("solve");
        std::hint::black_box(&x);
    });
    tracer.record("linalg.lu", trace, None, start, Instant::now());
    layers.insert("linalg.lu_ns", lu_ns);
}
