//! Golden and property tests for the sparse transient kernel.
//!
//! The sparse, workspace-reusing solver must be **bit-identical** to the
//! dense reference kernel — same node voltages at every time point, same
//! Newton iteration counts, same singularity verdicts — on every netlist, so
//! that every fixed-seed statistical result in the suite is independent of
//! the kernel. These tests pin that contract on the production SRAM
//! testbench netlists and on randomized circuits/matrices.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sram_highsigma::circuit::mna::MAX_NEWTON_ITERATIONS;
use sram_highsigma::circuit::transient::LANES;
use sram_highsigma::circuit::{
    dc_sweep, transient_analysis, transient_analysis_dense, Circuit, CrossingDirection, Device,
    MnaSystem, MosfetParams, SimulationWorkspace, SourceWaveform, TransientConfig, TransientKernel,
    GROUND,
};
use sram_highsigma::highsigma::{
    default_sram_variation_space, standard_estimators, ConvergencePolicy, Estimator,
    FailureProblem, GisConfig, GradientImportanceSampling, ImportanceSamplingConfig, MpfpConfig,
    Spec, SramMetric, SramTransientModel, YieldAnalysis,
};
use sram_highsigma::linalg::sparse::{PatternBuilder, SparseLu, SymbolicLu};
use sram_highsigma::linalg::{LuDecomposition, Matrix, Vector};
use sram_highsigma::sram::{build_6t_cell, CellNodes, SramCellConfig, SramError, SramTestbench};
use sram_highsigma::stats::RngStream;
use sram_highsigma::variation::PelgromModel;

/// Asserts two transient results agree bit for bit on every node and step,
/// including the Newton iteration count.
fn assert_transients_bit_identical(circuit: &Circuit, config: &TransientConfig, label: &str) {
    let sparse = transient_analysis(circuit, config).expect("sparse transient");
    let dense = transient_analysis_dense(circuit, config).expect("dense transient");
    assert_eq!(
        sparse.newton_iterations_total(),
        dense.newton_iterations_total(),
        "{label}: Newton iteration counts diverged"
    );
    assert_eq!(sparse.num_points(), dense.num_points(), "{label}: steps");
    for (ts, td) in sparse.times().iter().zip(dense.times()) {
        assert_eq!(ts.to_bits(), td.to_bits(), "{label}: time axis");
    }
    for node in 0..circuit.num_nodes() {
        let s = sparse.node_voltage_samples(node).unwrap();
        let d = dense.node_voltage_samples(node).unwrap();
        for (step, (a, b)) in s.iter().zip(d).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: node {node} step {step}: {a:e} vs {b:e}"
            );
        }
    }
}

/// The read testbench netlist (cell + precharged floating bitlines).
fn read_circuit(vth_deltas: &[f64; 6]) -> (Circuit, TransientConfig) {
    let (ckt, config, _) = read_netlist(vth_deltas);
    (ckt, config)
}

/// [`read_circuit`], also returning the cell's nodes for measurement.
fn read_netlist(vth_deltas: &[f64; 6]) -> (Circuit, TransientConfig, CellNodes) {
    let cell = SramCellConfig::typical_45nm();
    let vdd = cell.vdd;
    let mut ckt = Circuit::new();
    let nodes = build_6t_cell(&mut ckt, &cell, vth_deltas).unwrap();
    ckt.add_voltage_source("V_VDD", nodes.vdd, GROUND, SourceWaveform::dc(vdd));
    ckt.add_voltage_source(
        "V_WL",
        nodes.wordline,
        GROUND,
        SourceWaveform::pulse(0.0, vdd, 0.1e-9, 20e-12, 2.0e-9),
    );
    ckt.add_capacitor("C_BL", nodes.bitline, GROUND, cell.bitline_capacitance)
        .unwrap();
    ckt.add_capacitor("C_BLB", nodes.bitline_bar, GROUND, cell.bitline_capacitance)
        .unwrap();
    let mut ic = vec![0.0; ckt.num_nodes()];
    ic[nodes.vdd] = vdd;
    ic[nodes.bitline] = vdd;
    ic[nodes.bitline_bar] = vdd;
    ic[nodes.q_bar] = vdd;
    let config = TransientConfig::new(2.5e-9, 5e-12).with_initial_conditions(ic);
    (ckt, config, nodes)
}

/// The write testbench netlist (cell + bitlines driven to the opposite
/// value), with the cell's nodes for measurement.
fn write_netlist(vth_deltas: &[f64; 6]) -> (Circuit, TransientConfig, CellNodes) {
    let cell = SramCellConfig::typical_45nm();
    let vdd = cell.vdd;
    let mut ckt = Circuit::new();
    let nodes = build_6t_cell(&mut ckt, &cell, vth_deltas).unwrap();
    ckt.add_voltage_source("V_VDD", nodes.vdd, GROUND, SourceWaveform::dc(vdd));
    ckt.add_voltage_source(
        "V_WL",
        nodes.wordline,
        GROUND,
        SourceWaveform::pulse(0.0, vdd, 0.1e-9, 20e-12, 2.0e-9),
    );
    ckt.add_voltage_source("V_BL", nodes.bitline, GROUND, SourceWaveform::dc(0.0));
    ckt.add_voltage_source("V_BLB", nodes.bitline_bar, GROUND, SourceWaveform::dc(vdd));
    let mut ic = vec![0.0; ckt.num_nodes()];
    ic[nodes.vdd] = vdd;
    ic[nodes.bitline_bar] = vdd;
    ic[nodes.q] = vdd;
    let config = TransientConfig::new(2.5e-9, 5e-12).with_initial_conditions(ic);
    (ckt, config, nodes)
}

#[test]
fn sram_read_netlist_golden_bit_identity() {
    for deltas in [
        [0.0; 6],
        [0.12, -0.03, 0.05, 0.0, 0.08, -0.02],
        [-0.15, 0.2, 0.1, -0.05, 0.0, 0.3],
    ] {
        let (ckt, config) = read_circuit(&deltas);
        assert_transients_bit_identical(&ckt, &config, "6T read");
    }
}

#[test]
fn sram_write_netlist_golden_bit_identity() {
    let (ckt, config, _) = write_netlist(&[0.02, -0.04, 0.0, 0.1, -0.06, 0.05]);
    assert_transients_bit_identical(&ckt, &config, "6T write");
}

/// The ΔV_T vectors (canonical order, volts) whose metrics are pinned below:
/// the nominal cell and three fixed skews.
const GOLDEN_DELTAS: [[f64; 6]; 4] = [
    [0.0; 6],
    [0.12, -0.03, 0.05, 0.0, 0.08, -0.02],
    [-0.15, 0.2, 0.1, -0.05, 0.0, 0.3],
    [0.02, -0.04, 0.0, 0.1, -0.06, 0.05],
];

/// `(f64::to_bits(read access time), newton_iterations_total)` of
/// [`read_netlist`] at each of [`GOLDEN_DELTAS`] on the sparse kernel.
const READ_GOLDEN: [(u64, usize); 4] = [
    (4449768041582671852, 647), // 30.47 ps
    (4451777062223859376, 667), // 43.45 ps
    (4449475969504896512, 665), // 28.84 ps
    (4449904278969474888, 646), // 31.35 ps
];

/// `(f64::to_bits(write delay), newton_iterations_total)` of
/// [`write_netlist`] at each of [`GOLDEN_DELTAS`] on the sparse kernel.
const WRITE_GOLDEN: [(u64, usize); 4] = [
    (4440646079429645056, 529), // 7.432 ps
    (4441046345528994384, 527), // 8.079 ps
    (4435109469291058144, 537), // 3.260 ps
    (4440811044149455168, 529), // 7.699 ps
];

/// `(f64::to_bits(failure probability), evaluations)` of the fixed-seed,
/// small-budget GIS run in [`golden_metrics_and_gis_estimate_are_pinned`].
const GIS_GOLDEN: (u64, u64) = (4548044093173199153, 193); // p = 1.1405e-4

/// Time from the wordline's half-rise to `node` crossing `level` in
/// `direction`, censored at the window when it never does.
fn delay_after_wordline(
    ckt: &Circuit,
    config: &TransientConfig,
    nodes: &CellNodes,
    node: usize,
    level: f64,
    direction: CrossingDirection,
) -> (f64, usize) {
    let vdd = SramCellConfig::typical_45nm().vdd;
    let result = transient_analysis(ckt, config).expect("sparse transient");
    let wl = result.waveform_view(nodes.wordline).unwrap();
    let t_wl = wl
        .crossing_time(vdd / 2.0, CrossingDirection::Rising, 0.0)
        .unwrap();
    let delay = result
        .waveform_view(node)
        .unwrap()
        .crossing_time(level, direction, t_wl)
        .map_or(config.stop_time, |t| t - t_wl);
    (delay, result.newton_iterations_total())
}

#[test]
fn golden_metrics_and_gis_estimate_are_pinned() {
    // Absolute values, not a sparse-vs-dense comparison: a change to the
    // shared MOSFET or MNA code would move both kernels together and pass
    // every comparison test, but not this one.
    let vdd = SramCellConfig::typical_45nm().vdd;
    let mut read = Vec::new();
    let mut write = Vec::new();
    for deltas in &GOLDEN_DELTAS {
        let (ckt, config, nodes) = read_netlist(deltas);
        let (t, n) = delay_after_wordline(
            &ckt,
            &config,
            &nodes,
            nodes.bitline,
            vdd - 0.1,
            CrossingDirection::Falling,
        );
        read.push((t.to_bits(), n));
        let (ckt, config, nodes) = write_netlist(deltas);
        let (t, n) = delay_after_wordline(
            &ckt,
            &config,
            &nodes,
            nodes.q,
            vdd / 2.0,
            CrossingDirection::Falling,
        );
        write.push((t.to_bits(), n));
    }

    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    let model = SramTransientModel::new(
        SramTestbench::typical_45nm(),
        space,
        SramMetric::ReadAccessTime,
    );
    let nominal = model.nominal_metric();
    let problem = FailureProblem::from_model(model, Spec::UpperLimit(1.6 * nominal));
    let gis = GradientImportanceSampling::new(GisConfig {
        mpfp: MpfpConfig {
            max_evaluations: 200,
            max_iterations: 15,
            ..MpfpConfig::default()
        },
        sampling: ImportanceSamplingConfig {
            max_samples: 200,
            batch_size: 50,
            target_relative_error: 0.3,
            min_failures: 10,
            ..ImportanceSamplingConfig::default()
        },
        ..GisConfig::default()
    });
    let outcome = gis.estimate(&problem, &mut RngStream::from_seed(20180318));
    let estimate = (
        outcome.result.failure_probability.to_bits(),
        outcome.result.evaluations,
    );
    assert_eq!(
        nominal.to_bits(),
        READ_GOLDEN[0].0,
        "nominal read metric moved"
    );

    assert_eq!(read, READ_GOLDEN, "read metrics moved");
    assert_eq!(write, WRITE_GOLDEN, "write metrics moved");
    assert_eq!(estimate, GIS_GOLDEN, "GIS estimate moved");
}

/// Driver-level: a fixed-seed analysis of `metric` (registered as problem
/// `label`, which seeds its runs) on the dense-kernel model must reproduce
/// the sparse-kernel report bit for bit, estimator by estimator.
fn assert_estimators_identical_across_kernels(metric: SramMetric, label: &str) {
    let run = |kernel: TransientKernel| {
        let cell = SramCellConfig::typical_45nm();
        let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
        let model = SramTransientModel::new(SramTestbench::typical_45nm(), space, metric)
            .with_kernel(kernel);
        let nominal = model.nominal_metric();
        let problem = FailureProblem::from_model(model, Spec::UpperLimit(nominal * 1.3));
        YieldAnalysis::new()
            .master_seed(20180318)
            .convergence_policy(
                ConvergencePolicy::with_budget(60)
                    .target_relative_error(1e-12)
                    .min_failures(u64::MAX),
            )
            .problem(label, problem)
            .estimators(standard_estimators())
            .run()
    };
    let sparse = run(TransientKernel::Sparse);
    assert_eq!(sparse.problems[0].methods.len(), 5);
    let dense = run(TransientKernel::Dense);
    for (s, d) in sparse.problems[0]
        .methods
        .iter()
        .zip(&dense.problems[0].methods)
    {
        assert_eq!(s.estimator, d.estimator);
        assert_eq!(
            s.outcome.result.failure_probability.to_bits(),
            d.outcome.result.failure_probability.to_bits(),
            "{}: dense kernel diverged",
            s.estimator
        );
        assert_eq!(s.outcome.result.evaluations, d.outcome.result.evaluations);
    }
}

#[test]
fn estimator_results_identical_across_kernels() {
    assert_estimators_identical_across_kernels(SramMetric::ReadAccessTime, "read");
}

/// The write twin of [`estimator_results_identical_across_kernels`]. The
/// write transient runs its whole window on both kernels, so this takes about
/// a minute in a debug build; run it in release with
/// `cargo test --release --test sparse_kernel -- --ignored`.
#[test]
#[ignore = "slow in debug builds; run in release with --ignored"]
fn write_estimator_results_identical_across_kernels() {
    assert_estimators_identical_across_kernels(SramMetric::WriteDelay, "write");
}

#[test]
fn workspace_is_reusable_across_topologies() {
    // One workspace driven across alternating netlist topologies must rebind
    // and still match the dense kernel on each.
    let mut ws = SimulationWorkspace::new();
    let configs: Vec<(Circuit, TransientConfig)> = vec![
        {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.add_voltage_source("V", a, GROUND, SourceWaveform::dc(1.0));
            ckt.add_resistor("R", a, b, 1e3).unwrap();
            ckt.add_capacitor("C", b, GROUND, 1e-9).unwrap();
            (
                ckt,
                TransientConfig::new(2e-6, 1e-8).with_initial_conditions(vec![0.0, 1.0, 0.0]),
            )
        },
        read_circuit(&[0.0; 6]),
        {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let input = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_voltage_source("VDD", vdd, GROUND, SourceWaveform::dc(1.0));
            ckt.add_voltage_source(
                "VIN",
                input,
                GROUND,
                SourceWaveform::pulse(0.0, 1.0, 0.2e-9, 20e-12, 2e-9),
            );
            ckt.add_mosfet("MP", out, input, vdd, vdd, MosfetParams::pmos_45nm())
                .unwrap();
            ckt.add_mosfet("MN", out, input, GROUND, GROUND, MosfetParams::nmos_45nm())
                .unwrap();
            ckt.add_capacitor("CL", out, GROUND, 2e-15).unwrap();
            (
                ckt,
                TransientConfig::new(1e-9, 2e-12).with_initial_conditions(vec![0.0, 1.0, 0.0, 1.0]),
            )
        },
    ];
    for round in 0..2 {
        for (i, (ckt, config)) in configs.iter().enumerate() {
            let reused =
                sram_highsigma::circuit::transient_analysis_with(ckt, config, &mut ws).unwrap();
            let dense = transient_analysis_dense(ckt, config).unwrap();
            for node in 0..ckt.num_nodes() {
                let a = reused.node_voltage_samples(node).unwrap();
                let b = dense.node_voltage_samples(node).unwrap();
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "round {round} circuit {i} node {node}"
                    );
                }
            }
        }
    }
}

/// Asserts that [`dc_sweep`] equals, bit for bit at every point, a chain of
/// dense-reference solves of `source` over `values`: the first from the
/// node voltages `initial`, each later one warm-started from the previous
/// point's solution.
fn assert_sweep_matches_dense_chain(
    circuit: &Circuit,
    source: &str,
    values: &[f64],
    initial: &[f64],
) {
    let sweep = dc_sweep(circuit, source, values, Some(initial)).expect("sparse sweep");
    let mut working = circuit.clone();
    let index = working
        .devices()
        .iter()
        .position(|device| device.name() == source)
        .unwrap();
    let mut guess: Option<Vector> = None;
    let mut dense = Vec::new();
    for &value in values {
        if let Device::VoltageSource { waveform, .. } = &mut working.devices_mut()[index] {
            *waveform = SourceWaveform::Dc(value);
        }
        let system = MnaSystem::new(&working).unwrap();
        let x0 = guess.take().unwrap_or_else(|| {
            let mut x0 = Vector::zeros(system.dim());
            for node in 1..working.num_nodes().min(initial.len()) {
                x0[node - 1] = initial[node];
            }
            x0
        });
        let (x, _) = system
            .solve_newton_counted(x0, 0.0, None, "dc", MAX_NEWTON_ITERATIONS)
            .expect("dense solve");
        dense.push(system.node_voltages(&x));
        guess = Some(x);
    }
    for node in 0..circuit.num_nodes() {
        let sparse = sweep.node_voltage_samples(node).unwrap();
        for (point, (a, b)) in sparse.iter().zip(&dense).enumerate() {
            assert_eq!(
                a.to_bits(),
                b[node].to_bits(),
                "{source} = {}: node {node}: {a:e} vs {:e}",
                values[point],
                b[node]
            );
        }
    }
}

#[test]
fn dc_sweeps_match_a_chain_of_dense_solves() {
    let vdd = 1.0;
    let inputs: Vec<f64> = (0..=80).map(|i| vdd * f64::from(i) / 80.0).collect();
    // A CMOS inverter, and the same inverter loaded by a pass gate with its
    // wordline and bitline at VDD (the read half-cell of the static-noise-
    // margin analysis), at nominal and at shifted thresholds.
    for (shift_up, shift_down, shift_pass) in [(0.0, 0.0, 0.0), (0.08, -0.11, 0.05)] {
        for loaded in [false, true] {
            let mut ckt = Circuit::new();
            let vdd_node = ckt.node("vdd");
            let input = ckt.node("in");
            let output = ckt.node("out");
            ckt.add_voltage_source("V_VDD", vdd_node, GROUND, SourceWaveform::dc(vdd));
            ckt.add_voltage_source("V_IN", input, GROUND, SourceWaveform::dc(0.0));
            let pull_up = MosfetParams::pmos_45nm().with_vth_shift(shift_up);
            let pull_down = MosfetParams::nmos_45nm().with_vth_shift(shift_down);
            ckt.add_mosfet("M_PU", output, input, vdd_node, vdd_node, pull_up)
                .unwrap();
            ckt.add_mosfet("M_PD", output, input, GROUND, GROUND, pull_down)
                .unwrap();
            let mut initial = vec![0.0, vdd, 0.0, vdd];
            if loaded {
                let wordline = ckt.node("wl");
                let bitline = ckt.node("bl");
                ckt.add_voltage_source("V_WL", wordline, GROUND, SourceWaveform::dc(vdd));
                ckt.add_voltage_source("V_BL", bitline, GROUND, SourceWaveform::dc(vdd));
                let pass = MosfetParams::nmos_45nm().with_vth_shift(shift_pass);
                ckt.add_mosfet("M_PG", bitline, wordline, output, GROUND, pass)
                    .unwrap();
                initial.extend([vdd, vdd]);
            }
            assert_sweep_matches_dense_chain(&ckt, "V_IN", &inputs, &initial);
        }
    }
}

/// Builds a randomized two-node-chain circuit from proptest inputs. The
/// structure guarantees a solvable system (everything has a DC path to
/// ground through resistors or GMIN).
fn random_chain_circuit(
    resistances: &[f64],
    capacitances: &[f64],
    mosfet_every: usize,
    supply: f64,
) -> (Circuit, TransientConfig) {
    let mut ckt = Circuit::new();
    let first = ckt.node("n0");
    ckt.add_voltage_source(
        "VS",
        first,
        GROUND,
        SourceWaveform::pulse(0.0, supply, 1e-9, 0.5e-9, 4e-9),
    );
    let mut prev = first;
    for (i, &r) in resistances.iter().enumerate() {
        let next = ckt.node(&format!("n{}", i + 1));
        ckt.add_resistor(&format!("R{i}"), prev, next, r).unwrap();
        if let Some(&c) = capacitances.get(i) {
            ckt.add_capacitor(&format!("C{i}"), next, GROUND, c)
                .unwrap();
        }
        if mosfet_every != 0 && i % mosfet_every == 0 {
            let params = if i % (2 * mosfet_every) == 0 {
                MosfetParams::nmos_45nm()
            } else {
                MosfetParams::pmos_45nm()
            };
            // Diode-connected to the previous node: gate = drain = next.
            ckt.add_mosfet(&format!("M{i}"), next, next, GROUND, GROUND, params)
                .unwrap();
        }
        prev = next;
    }
    ckt.add_resistor("Rend", prev, GROUND, 10e3).unwrap();
    let config = TransientConfig::new(10e-9, 50e-12);
    (ckt, config)
}

/// A read that never senses: both transistors of the read path far too weak.
const CENSORED_READ: [f64; 6] = [0.6, 0.6, 0.0, 0.0, 0.0, 0.0];
/// A read whose transient stops converging at 120 ps, before it senses.
const NON_CONVERGING_READ: [f64; 6] = [
    -0.2849444829352378,
    0.18934646934693464,
    0.026645392871643574,
    0.3296846785590373,
    -0.17995042881905712,
    0.10261358031617059,
];
/// A write whose transient stops converging at 120 ps.
const NON_CONVERGING_WRITE: [f64; 6] = [
    0.11084935876617302,
    -0.05780097897726894,
    -0.06995547734607833,
    0.10029856564664925,
    -0.03329678854961908,
    -0.2387551294882656,
];

/// Asserts that a lane batch slot equals the one-lane result: the same bits
/// (compared by `bits`), or the same error.
fn assert_same_slot<T: std::fmt::Debug>(
    lanes: &Result<T, SramError>,
    single: &Result<T, SramError>,
    bits: impl Fn(&T) -> Vec<u64>,
    label: &str,
) {
    match (lanes, single) {
        (Ok(a), Ok(b)) => assert_eq!(bits(a), bits(b), "{label}: {a:?} vs {b:?}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}"),
        (a, b) => panic!("{label}: lanes {a:?} vs one lane {b:?}"),
    }
}

/// Runs `queue` through the lanes of every metric — `access_times`, the
/// read `run_batch` (access time and disturb peak) and the write
/// `run_batch` — and checks each slot against `access_time` and `run` on a
/// one-lane session.
fn assert_lanes_match_one_lane(queue: &[Vec<f64>]) {
    let tb = SramTestbench::typical_45nm();
    let refs: Vec<&[f64]> = queue.iter().map(Vec::as_slice).collect();
    let (mut lanes, mut single) = (tb.read_session().unwrap(), tb.read_session().unwrap());
    let access_times = lanes.access_times(&refs);
    let reads = lanes.run_batch(&refs);
    let (mut lanes_w, mut single_w) = (tb.write_session().unwrap(), tb.write_session().unwrap());
    let writes = lanes_w.run_batch(&refs);
    assert_eq!(access_times.len(), queue.len());
    for (i, deltas) in refs.iter().enumerate() {
        let label = format!("sample {i} of {}: {deltas:?}", queue.len());
        assert_same_slot(
            &access_times[i],
            &single.access_time(deltas),
            |t| vec![t.to_bits()],
            &label,
        );
        assert_same_slot(
            &reads[i],
            &single.run(deltas),
            |r| {
                vec![
                    r.access_time.to_bits(),
                    r.disturb_peak.to_bits(),
                    u64::from(r.sensed),
                ]
            },
            &label,
        );
        assert_same_slot(
            &writes[i],
            &single_w.run(deltas),
            |w| vec![w.write_delay.to_bits(), u64::from(w.flipped)],
            &label,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lanes equal the one-lane path bit for bit on every metric. Queues of
    /// 1 to 3·LANES + 1 samples fill, refill and drain the lanes unevenly;
    /// each holds a random ΔV_T cloud (per-transistor σ up to 0.3 V) and, at
    /// random places, a censored read, a malformed shift vector and
    /// transients that stop converging. Pivot deviations inside a lane are
    /// exercised on circuits built to cause them (the `transient` unit
    /// tests), since the 6T netlists never deviate.
    #[test]
    fn lanes_match_the_one_lane_path_bit_for_bit(
        len in 1usize..(3 * LANES + 2),
        seed in 1u64..u64::MAX,
        sigma in 0.0f64..0.3,
        specials in prop::collection::vec(0usize..4, 0..3),
        positions in prop::collection::vec(0usize..64, 3),
    ) {
        let mut rng = RngStream::from_seed(seed);
        let mut queue: Vec<Vec<f64>> = (0..len)
            .map(|_| (0..6).map(|_| sigma * rng.standard_normal()).collect())
            .collect();
        for (&special, &at) in specials.iter().zip(&positions) {
            let deltas = match special {
                0 => CENSORED_READ.to_vec(),
                1 => vec![f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0],
                2 => NON_CONVERGING_READ.to_vec(),
                _ => NON_CONVERGING_WRITE.to_vec(),
            };
            queue[at % len] = deltas;
        }
        assert_lanes_match_one_lane(&queue);
    }
}

#[test]
fn lane_batches_place_every_special_sample_like_one_lane() {
    let mut queue = vec![
        vec![0.0; 6],
        CENSORED_READ.to_vec(),
        vec![0.0; 5],
        NON_CONVERGING_READ.to_vec(),
        vec![0.05, -0.02, 0.01, 0.0, 0.03, -0.01],
        NON_CONVERGING_WRITE.to_vec(),
        vec![f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0],
    ];
    queue.extend((0..LANES).map(|i| vec![0.02 * i as f64; 6]));
    assert_lanes_match_one_lane(&queue);
    // The special samples really are what their names say.
    let tb = SramTestbench::typical_45nm();
    assert!(!tb.read(&CENSORED_READ).unwrap().sensed);
    assert!(tb.read(&NON_CONVERGING_READ).is_err());
    assert!(tb.write(&NON_CONVERGING_WRITE).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random small circuits: the two kernels agree bit for bit on the whole
    /// trajectory (or fail identically).
    #[test]
    fn random_circuits_bit_identical(
        resistances in prop::collection::vec(100.0f64..100e3, 1..6),
        capacitances in prop::collection::vec(1e-15f64..1e-9, 0..6),
        mosfet_every in 0usize..3,
        supply in 0.5f64..1.2,
    ) {
        let (ckt, config) = random_chain_circuit(&resistances, &capacitances, mosfet_every, supply);
        let sparse = transient_analysis(&ckt, &config);
        let dense = transient_analysis_dense(&ckt, &config);
        match (sparse, dense) {
            (Ok(s), Ok(d)) => {
                prop_assert_eq!(s.newton_iterations_total(), d.newton_iterations_total());
                for node in 0..ckt.num_nodes() {
                    let a = s.node_voltage_samples(node).unwrap();
                    let b = d.node_voltage_samples(node).unwrap();
                    for (x, y) in a.iter().zip(b) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
            (Err(es), Err(ed)) => prop_assert_eq!(format!("{es}"), format!("{ed}")),
            (s, d) => prop_assert!(false, "kernels disagreed on success: {s:?} vs {d:?}"),
        }
    }

    /// Random sparse matrices: the sparse LU reproduces the dense LU bit for
    /// bit across repeated refactorizations of the same plan. About half the
    /// cases are wider than one 64-column mask word.
    #[test]
    fn random_matrices_bit_identical(
        small_n in 1usize..12,
        density in 0.15f64..0.9,
        seed in 1u64..u64::MAX,
        scale_second in 0.25f64..4.0,
        wide in prop::bool::ANY,
        wide_n in 65usize..81,
    ) {
        let n = if wide { wide_n } else { small_n };
        // Deterministic xorshift fill from the seed.
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut builder = PatternBuilder::new(n);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j || (next() + 1.0) / 2.0 < density {
                    builder.insert(i, j);
                    dense[(i, j)] = next() + if i == j { n as f64 } else { 0.0 };
                }
            }
        }
        let pattern = builder.build();
        let mut sparse = SparseLu::new(SymbolicLu::analyze(&pattern));
        let b: Vector = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
        for round in 0..2 {
            let factor = if round == 0 { 1.0 } else { scale_second };
            sparse.clear();
            for r in 0..n {
                for &c in pattern.row_cols(r) {
                    sparse.add_at(r, c as usize, dense[(r, c as usize)] * factor);
                }
            }
            sparse.factorize().unwrap();
            let scaled = dense.scaled(factor);
            let dense_lu = LuDecomposition::new(&scaled).unwrap();
            let x_dense = dense_lu.solve(&b).unwrap();
            let mut x_sparse = vec![0.0; n];
            sparse.solve(b.as_slice(), &mut x_sparse).unwrap();
            for i in 0..n {
                prop_assert_eq!(x_dense[i].to_bits(), x_sparse[i].to_bits());
            }
            prop_assert_eq!(
                dense_lu.determinant().to_bits(),
                sparse.determinant().to_bits()
            );
        }
    }
}
