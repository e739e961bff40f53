//! Fixed-step transient analysis with backward-Euler integration.
//!
//! The SRAM dynamic metrics (read access time, write delay) are measured on
//! nanosecond-scale transients of a dozen-node circuit. A fixed, user-chosen
//! time step with backward Euler is robust (strongly stable, no ringing from
//! the integrator) and — because the statistical layer compares *relative*
//! behaviour across millions of samples — more important than a higher-order
//! integrator is that every sample sees the identical discretization.
//!
//! # Kernels
//!
//! [`transient_analysis`] runs on the sparse, allocation-free kernel (see
//! [`crate::mna::SimulationWorkspace`]); [`transient_analysis_with`] is the
//! Monte-Carlo hot path, reusing a caller-owned workspace across samples so
//! even the per-call symbolic analysis disappears.
//! [`transient_analysis_until`] is the one sparse time loop behind both: it
//! also takes a stop predicate and returns the bit-identical prefix up to
//! the first point the predicate accepts.
//! [`transient_analysis_dense`] is the dense reference kernel kept for golden
//! tests; all paths produce bit-identical results.

use crate::error::CircuitError;
use crate::mna::{DynamicState, MnaSystem, SimulationWorkspace, MAX_NEWTON_ITERATIONS};
use crate::netlist::{Circuit, NodeId};
use crate::waveform::WaveformView;
use gis_linalg::Vector;
use serde::{Deserialize, Serialize};

/// Which solver kernel a transient runs on. [`TransientKernel::Sparse`] is
/// the production kernel; [`TransientKernel::Dense`] is the allocation-heavy
/// reference the sparse kernel is verified against, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransientKernel {
    /// Sparse, workspace-reusing kernel (default).
    Sparse,
    /// Dense reference kernel.
    Dense,
}

impl TransientKernel {
    /// Stable name used in benchmark artifacts ("sparse"/"dense").
    pub fn name(self) -> &'static str {
        match self {
            TransientKernel::Sparse => "sparse",
            TransientKernel::Dense => "dense",
        }
    }
}

/// Configuration of a transient analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientConfig {
    /// Total simulated time in seconds.
    pub stop_time: f64,
    /// Fixed time step in seconds.
    pub time_step: f64,
    /// Initial node voltages indexed by node id (missing/short vectors are
    /// zero-padded). When `None`, the initial state is the DC operating point.
    pub initial_conditions: Option<Vec<f64>>,
    /// Maximum Newton iterations per time point.
    pub max_newton_iterations: usize,
}

impl TransientConfig {
    /// Creates a configuration with the given stop time and step, starting from
    /// the DC operating point.
    pub fn new(stop_time: f64, time_step: f64) -> Self {
        TransientConfig {
            stop_time,
            time_step,
            initial_conditions: None,
            max_newton_iterations: MAX_NEWTON_ITERATIONS,
        }
    }

    /// Starts the transient from explicit initial node voltages (SPICE `uic`).
    pub fn with_initial_conditions(mut self, node_voltages: Vec<f64>) -> Self {
        self.initial_conditions = Some(node_voltages);
        self
    }

    /// Validates the configuration.
    fn validate(&self) -> Result<(), CircuitError> {
        if !(self.stop_time > 0.0) || !self.stop_time.is_finite() {
            return Err(CircuitError::InvalidAnalysis(format!(
                "stop time must be positive and finite, got {}",
                self.stop_time
            )));
        }
        if !(self.time_step > 0.0) || self.time_step > self.stop_time {
            return Err(CircuitError::InvalidAnalysis(format!(
                "time step must be positive and no larger than the stop time, got {}",
                self.time_step
            )));
        }
        if self.max_newton_iterations == 0 {
            return Err(CircuitError::InvalidAnalysis(
                "max_newton_iterations must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// Result of a transient analysis: node voltages over time.
///
/// [`TransientResult::waveform_view`] measures a node in place, without
/// copying either axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `node_voltages[node][step]`.
    node_voltages: Vec<Vec<f64>>,
    newton_iterations_total: usize,
}

impl TransientResult {
    /// Simulated time points (including `t = 0`).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored time points.
    pub fn num_points(&self) -> usize {
        self.times.len()
    }

    /// Total Newton iterations spent across all time points (a cheap proxy for
    /// simulation cost reported by the benchmark harness). Identical between
    /// the sparse and dense kernels.
    pub fn newton_iterations_total(&self) -> usize {
        self.newton_iterations_total
    }

    /// Voltage samples of `node` over time.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if the node does not exist.
    pub fn node_voltage_samples(&self, node: NodeId) -> Result<&[f64], CircuitError> {
        self.node_voltages
            .get(node)
            .map(|v| v.as_slice())
            .ok_or(CircuitError::UnknownNode {
                node,
                num_nodes: self.node_voltages.len(),
            })
    }

    /// A zero-copy measurement view of `node`'s waveform — the hot path for
    /// metric extraction (nothing is cloned).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if the node does not exist.
    pub fn waveform_view(&self, node: NodeId) -> Result<WaveformView<'_>, CircuitError> {
        let values = self.node_voltage_samples(node)?;
        Ok(WaveformView::new(&self.times, values))
    }

    /// Final voltage of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if the node does not exist.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn final_voltage(&self, node: NodeId) -> Result<f64, CircuitError> {
        Ok(*self
            .node_voltage_samples(node)?
            .last()
            .expect("transient result always contains t = 0"))
    }
}

/// Runs a backward-Euler transient analysis of `circuit` on the sparse kernel.
///
/// # Errors
///
/// * [`CircuitError::InvalidAnalysis`] for an inconsistent configuration.
/// * [`CircuitError::NewtonDidNotConverge`] / [`CircuitError::SingularSystem`]
///   if a time point cannot be solved.
///
/// # Examples
///
/// ```
/// use gis_circuit::{Circuit, SourceWaveform, TransientConfig, transient_analysis, GROUND};
///
/// # fn main() -> Result<(), gis_circuit::CircuitError> {
/// // RC low-pass step response.
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add_voltage_source("V1", vin, GROUND, SourceWaveform::dc(1.0));
/// ckt.add_resistor("R1", vin, out, 1e3)?;
/// ckt.add_capacitor("C1", out, GROUND, 1e-9)?;
/// let cfg = TransientConfig::new(5e-6, 10e-9).with_initial_conditions(vec![0.0, 1.0, 0.0]);
/// let result = transient_analysis(&ckt, &cfg)?;
/// let v_end = result.final_voltage(out)?;
/// assert!((v_end - 1.0).abs() < 1e-2); // fully charged after 5 time constants
/// # Ok(())
/// # }
/// ```
pub fn transient_analysis(
    circuit: &Circuit,
    config: &TransientConfig,
) -> Result<TransientResult, CircuitError> {
    let mut workspace = SimulationWorkspace::new();
    transient_analysis_with(circuit, config, &mut workspace)
}

/// Runs a transient analysis on the sparse kernel, reusing `workspace`.
///
/// This is the Monte-Carlo hot path: when the same netlist topology is
/// simulated repeatedly with different device values (the SRAM sessions), the
/// workspace's symbolic LU plan and every numeric buffer carry over between
/// calls, leaving only the result storage to allocate. Bit-identical to
/// [`transient_analysis`] and [`transient_analysis_dense`].
///
/// # Errors
///
/// See [`transient_analysis`].
pub fn transient_analysis_with(
    circuit: &Circuit,
    config: &TransientConfig,
    workspace: &mut SimulationWorkspace,
) -> Result<TransientResult, CircuitError> {
    transient_analysis_until(circuit, config, workspace, |_, _| false)
}

/// Runs a transient analysis on the sparse kernel, reusing `workspace`, and
/// stops at the first recorded point where `stop` returns `true`.
///
/// `stop` sees every recorded point in order, `t = 0` included, as its time
/// and node voltages (indexed by node id). The result is the prefix of the
/// full-window result up to and including that point: every point is
/// computed exactly as [`transient_analysis_with`] computes it, so the
/// prefix is bit-identical. If `stop` never returns `true`, the whole window
/// runs. This is SPICE's auto-stop: a measurement that is taken once an
/// event has happened need not integrate the rest of the window.
///
/// # Errors
///
/// See [`transient_analysis`]. A time point after the stop is never solved,
/// so it cannot fail the analysis.
pub fn transient_analysis_until(
    circuit: &Circuit,
    config: &TransientConfig,
    workspace: &mut SimulationWorkspace,
    mut stop: impl FnMut(f64, &[f64]) -> bool,
) -> Result<TransientResult, CircuitError> {
    config.validate()?;
    let system = MnaSystem::new(circuit)?;
    let num_nodes = circuit.num_nodes();
    workspace.bind(&system);

    // Initial state.
    match &config.initial_conditions {
        Some(ic) => {
            let mut x0 = vec![0.0; system.dim()];
            for node in 1..num_nodes {
                if node < ic.len() {
                    x0[node - 1] = ic[node];
                }
            }
            // Solve the t = 0 system with the capacitors holding their initial
            // voltages (treated as ideal voltage history) so branch currents of
            // the voltage sources start consistent.
            workspace.set_state(&x0);
        }
        None => {
            workspace.set_state(&[]);
            system.solve_newton_in(workspace, 0.0, None, "dc", MAX_NEWTON_ITERATIONS)?;
        }
    }

    let num_steps = (config.stop_time / config.time_step).ceil() as usize; // gis-analyze: allow(float-cast, step count from ceil of validated positive durations)
    let mut times = Vec::with_capacity(num_steps + 1);
    let mut node_voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(num_steps + 1); num_nodes];

    let record = |t: f64, voltages: &[f64], times: &mut Vec<f64>, store: &mut Vec<Vec<f64>>| {
        times.push(t);
        for (node, value) in voltages.iter().enumerate() {
            store[node].push(*value);
        }
    };

    let mut previous = vec![0.0; num_nodes];
    system.node_voltages_into(workspace.state(), &mut previous);
    // If explicit initial conditions were given they take precedence over the
    // (zero-filled) solution vector for the recorded t = 0 point.
    if let Some(ic) = &config.initial_conditions {
        for node in 0..num_nodes {
            if node < ic.len() {
                previous[node] = ic[node];
            }
        }
    }
    record(0.0, &previous, &mut times, &mut node_voltages);

    let mut newton_total = 0usize;
    let steps = if stop(0.0, &previous) { 0 } else { num_steps };
    for step in 1..=steps {
        let t = (step as f64 * config.time_step).min(config.stop_time);
        let dynamic = DynamicState {
            previous_node_voltages: &previous,
            dt: config.time_step,
        };
        newton_total += system.solve_newton_prebound(
            workspace,
            t,
            Some(&dynamic),
            "transient",
            config.max_newton_iterations,
        )?;
        system.node_voltages_into(workspace.state(), &mut previous);
        record(t, &previous, &mut times, &mut node_voltages);
        if t >= config.stop_time || stop(t, &previous) {
            break;
        }
    }

    Ok(TransientResult {
        times,
        node_voltages,
        newton_iterations_total: newton_total,
    })
}

/// Runs a transient analysis on the dense reference kernel.
///
/// Allocates fresh dense systems every Newton iteration; kept as the golden
/// reference the sparse kernel is validated against (and selectable through
/// the SRAM layer for end-to-end verification). Bit-identical to
/// [`transient_analysis`].
///
/// # Errors
///
/// See [`transient_analysis`].
pub fn transient_analysis_dense(
    circuit: &Circuit,
    config: &TransientConfig,
) -> Result<TransientResult, CircuitError> {
    config.validate()?;
    let system = MnaSystem::new(circuit)?;
    let num_nodes = circuit.num_nodes();

    // Initial state.
    let x0 = match &config.initial_conditions {
        Some(ic) => {
            let mut x = Vector::zeros(system.dim());
            for node in 1..num_nodes {
                if node < ic.len() {
                    x[node - 1] = ic[node];
                }
            }
            x
        }
        None => system.dc_operating_point(None)?,
    };

    let num_steps = (config.stop_time / config.time_step).ceil() as usize; // gis-analyze: allow(float-cast, step count from ceil of validated positive durations)
    let mut times = Vec::with_capacity(num_steps + 1);
    let mut node_voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(num_steps + 1); num_nodes];

    let record = |t: f64, voltages: &[f64], times: &mut Vec<f64>, store: &mut Vec<Vec<f64>>| {
        times.push(t);
        for (node, value) in voltages.iter().enumerate() {
            store[node].push(*value);
        }
    };

    let mut previous = system.node_voltages(&x0);
    if let Some(ic) = &config.initial_conditions {
        for node in 0..num_nodes {
            if node < ic.len() {
                previous[node] = ic[node];
            }
        }
    }
    record(0.0, &previous, &mut times, &mut node_voltages);

    let mut x = x0;
    let mut newton_total = 0usize;
    for step in 1..=num_steps {
        let t = (step as f64 * config.time_step).min(config.stop_time);
        let dynamic = DynamicState {
            previous_node_voltages: &previous,
            dt: config.time_step,
        };
        let (x_next, iterations) = system.solve_newton_counted(
            x,
            t,
            Some(&dynamic),
            "transient",
            config.max_newton_iterations,
        )?;
        x = x_next;
        newton_total += iterations;
        system.node_voltages_into(x.as_slice(), &mut previous);
        record(t, &previous, &mut times, &mut node_voltages);
        if t >= config.stop_time {
            break;
        }
    }

    Ok(TransientResult {
        times,
        node_voltages,
        newton_iterations_total: newton_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosfetParams;
    use crate::netlist::{SourceWaveform, GROUND};

    #[test]
    fn config_validation() {
        assert!(TransientConfig::new(0.0, 1e-9).validate().is_err());
        assert!(TransientConfig::new(1e-9, 0.0).validate().is_err());
        assert!(TransientConfig::new(1e-9, 2e-9).validate().is_err());
        let mut c = TransientConfig::new(1e-9, 1e-11);
        c.max_newton_iterations = 0;
        assert!(c.validate().is_err());
        assert!(TransientConfig::new(1e-9, 1e-11).validate().is_ok());
    }

    #[test]
    fn rc_charging_matches_analytic_solution() {
        let r = 1e3;
        let c = 1e-9;
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("V1", vin, GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, GROUND, c).unwrap();
        let cfg = TransientConfig::new(5.0 * tau, tau / 200.0)
            .with_initial_conditions(vec![0.0, 1.0, 0.0]);
        let result = transient_analysis(&ckt, &cfg).unwrap();
        let wave = result.waveform_view(out).unwrap();
        for &t_check in &[0.5 * tau, tau, 2.0 * tau, 4.0 * tau] {
            let expected = 1.0 - (-t_check / tau).exp();
            let got = wave.value_at(t_check);
            assert!(
                (got - expected).abs() < 0.01,
                "RC mismatch at t={t_check:e}: {got} vs {expected}"
            );
        }
        assert!(result.newton_iterations_total() > 0);
        assert_eq!(result.num_points(), result.times().len());
        // The view borrows the result's own axes.
        assert_eq!(wave.times().as_ptr(), result.times().as_ptr());
        assert_eq!(wave.final_value(), result.final_voltage(out).unwrap());
    }

    #[test]
    fn rc_discharge_from_initial_condition() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_resistor("R1", out, GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", out, GROUND, 1e-9).unwrap();
        let tau = 1e-6;
        let cfg =
            TransientConfig::new(3.0 * tau, tau / 100.0).with_initial_conditions(vec![0.0, 1.0]);
        let result = transient_analysis(&ckt, &cfg).unwrap();
        let wave = result.waveform_view(out).unwrap();
        let expected = (-1.0f64).exp();
        assert!((wave.value_at(tau) - expected).abs() < 0.01);
        assert!(wave.value_at(0.0) > 0.99);
    }

    #[test]
    fn inverter_switching_delay_is_positive_and_finite() {
        // CMOS inverter driving a load capacitor, input pulse.
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
        let cfg =
            TransientConfig::new(3e-9, 2e-12).with_initial_conditions(vec![0.0, 1.0, 0.0, 1.0]);
        let result = transient_analysis(&ckt, &cfg).unwrap();
        let win = result.waveform_view(input).unwrap();
        let wout = result.waveform_view(out).unwrap();
        // Output falls after the input rises.
        let delay = win.delay_to(0.5, &wout, 0.5, 0.1e-9).unwrap();
        assert!(delay > 0.0 && delay < 1e-9, "implausible delay {delay:e}");
        // Output returns high after the input falls again.
        assert!(wout.final_value() > 0.9);
    }

    #[test]
    fn unknown_node_in_result_is_an_error() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_resistor("R1", out, GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", out, GROUND, 1e-9).unwrap();
        let cfg = TransientConfig::new(1e-6, 1e-8);
        let result = transient_analysis(&ckt, &cfg).unwrap();
        assert!(result.waveform_view(57).is_err());
        assert!(result.final_voltage(57).is_err());
        assert!(result.node_voltage_samples(out).is_ok());
    }

    #[test]
    fn sparse_and_dense_transients_are_bit_identical() {
        // Inverter + load: nonlinear devices, voltage sources, capacitor.
        let (ckt, cfg) = inverter();
        let sparse = transient_analysis(&ckt, &cfg).unwrap();
        let dense = transient_analysis_dense(&ckt, &cfg).unwrap();
        assert_eq!(
            sparse.newton_iterations_total(),
            dense.newton_iterations_total()
        );
        assert_eq!(sparse.times().len(), dense.times().len());
        for node in 0..ckt.num_nodes() {
            let s = sparse.node_voltage_samples(node).unwrap();
            let d = dense.node_voltage_samples(node).unwrap();
            for (i, (a, b)) in s.iter().zip(d).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "node {node} step {i}: {a:e} vs {b:e}"
                );
            }
        }
    }

    /// The CMOS inverter of the kernel-equivalence test, with its config.
    fn inverter() -> (Circuit, TransientConfig) {
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
        let cfg =
            TransientConfig::new(1e-9, 2e-12).with_initial_conditions(vec![0.0, 1.0, 0.0, 1.0]);
        (ckt, cfg)
    }

    #[test]
    fn never_stopping_runs_the_whole_window() {
        let (ckt, cfg) = inverter();
        let mut ws = SimulationWorkspace::new();
        let full = transient_analysis_with(&ckt, &cfg, &mut ws).unwrap();
        let mut seen = 0usize;
        let until = transient_analysis_until(&ckt, &cfg, &mut ws, |_, _| {
            seen += 1;
            false
        })
        .unwrap();
        assert_eq!(until, full);
        // Every point but the last is offered to the predicate.
        assert_eq!(seen, full.num_points() - 1);
    }

    #[test]
    fn stopping_at_point_k_returns_a_bit_identical_prefix() {
        let (ckt, cfg) = inverter();
        let mut ws = SimulationWorkspace::new();
        let full = transient_analysis_with(&ckt, &cfg, &mut ws).unwrap();
        for k in [0, 1, 37, full.num_points() - 2] {
            let mut index = 0usize;
            let stopped = transient_analysis_until(&ckt, &cfg, &mut ws, |t, voltages| {
                assert_eq!(t.to_bits(), full.times()[index].to_bits());
                assert_eq!(voltages.len(), ckt.num_nodes());
                index += 1;
                index > k
            })
            .unwrap();
            assert_eq!(stopped.num_points(), k + 1, "stop at point {k}");
            assert_eq!(stopped.times(), &full.times()[..=k]);
            for node in 0..ckt.num_nodes() {
                let prefix = &full.node_voltage_samples(node).unwrap()[..=k];
                let got = stopped.node_voltage_samples(node).unwrap();
                assert_eq!(got.len(), prefix.len());
                for (i, (a, b)) in got.iter().zip(prefix).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "node {node} point {i} (stop {k})");
                }
            }
            assert!(stopped.newton_iterations_total() <= full.newton_iterations_total());
        }
    }

    #[test]
    fn workspace_reuse_across_samples_is_bit_identical() {
        // The session pattern: same topology, different device values, one
        // long-lived workspace.
        let build = |r: f64| {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_voltage_source("V1", vin, GROUND, SourceWaveform::dc(1.0));
            ckt.add_resistor("R1", vin, out, r).unwrap();
            ckt.add_capacitor("C1", out, GROUND, 1e-9).unwrap();
            ckt
        };
        let cfg = TransientConfig::new(2e-6, 2e-8).with_initial_conditions(vec![0.0, 1.0, 0.0]);
        let mut ws = SimulationWorkspace::new();
        for r in [1e3, 3.3e3, 470.0, 1e3] {
            let ckt = build(r);
            let reused = transient_analysis_with(&ckt, &cfg, &mut ws).unwrap();
            let fresh = transient_analysis(&ckt, &cfg).unwrap();
            assert_eq!(reused, fresh, "workspace reuse diverged at R={r}");
        }
    }
}
