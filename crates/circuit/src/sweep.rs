//! DC sweep analysis: repeatedly solve the operating point while stepping the
//! value of one independent voltage source.
//!
//! The SRAM static analyses (static noise margin, trip points, data-retention
//! voltage) are built on voltage-transfer curves obtained this way.

use crate::error::CircuitError;
use crate::mna::{MnaSystem, SimulationWorkspace, MAX_NEWTON_ITERATIONS};
use crate::netlist::{Circuit, Device, NodeId, SourceWaveform};

/// Result of a DC sweep: the swept source values and the corresponding node
/// voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSweepResult {
    swept_values: Vec<f64>,
    node_voltages: Vec<Vec<f64>>,
}

impl DcSweepResult {
    /// The swept source values.
    pub fn swept_values(&self) -> &[f64] {
        &self.swept_values
    }

    /// Number of sweep points.
    pub fn num_points(&self) -> usize {
        self.swept_values.len()
    }

    /// Voltage of `node` across the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if the node does not exist.
    pub fn node_voltage_samples(&self, node: NodeId) -> Result<Vec<f64>, CircuitError> {
        if self.node_voltages.is_empty() || node >= self.node_voltages[0].len() {
            return Err(CircuitError::UnknownNode {
                node,
                num_nodes: self.node_voltages.first().map(|v| v.len()).unwrap_or(0),
            });
        }
        Ok(self.node_voltages.iter().map(|v| v[node]).collect())
    }
}

/// Sweeps the DC value of the voltage source named `source_name` over `values`,
/// solving the operating point at every step (each solution warm-starts the
/// next, which is what makes sweeps through bistable regions well-behaved).
///
/// Every point is solved on the sparse kernel in one [`SimulationWorkspace`],
/// so the sweep compiles its plan once. The first point starts from
/// `initial_node_voltages` (index = node id; ground entry ignored) on the
/// node unknowns and zeros elsewhere; the results are bit-identical to a
/// chain of dense-reference solves.
///
/// # Errors
///
/// * [`CircuitError::InvalidAnalysis`] if the source does not exist, is not a
///   voltage source, or `values` is empty.
/// * Any Newton/singularity error from the per-point solves.
pub fn dc_sweep(
    circuit: &Circuit,
    source_name: &str,
    values: &[f64],
    initial_node_voltages: Option<&[f64]>,
) -> Result<DcSweepResult, CircuitError> {
    if values.is_empty() {
        return Err(CircuitError::InvalidAnalysis(
            "dc sweep needs at least one value".to_string(),
        ));
    }
    let source_index = circuit
        .devices()
        .iter()
        .position(|d| matches!(d, Device::VoltageSource { .. }) && d.name() == source_name)
        .ok_or_else(|| {
            CircuitError::InvalidAnalysis(format!(
                "no voltage source named `{source_name}` in the circuit"
            ))
        })?;

    let mut working = circuit.clone();
    let mut swept_values = Vec::with_capacity(values.len());
    let mut node_voltages = Vec::with_capacity(values.len());
    let mut workspace = SimulationWorkspace::new();

    for &value in values {
        if let Device::VoltageSource { waveform, .. } = &mut working.devices_mut()[source_index] {
            *waveform = SourceWaveform::Dc(value);
        }
        let system = MnaSystem::new(&working)?;
        if swept_values.is_empty() {
            workspace.bind(&system);
            workspace.set_state(system.dc_guess(initial_node_voltages).as_slice());
        }
        // Later points start from the state the previous solve left.
        system.solve_newton_in(&mut workspace, 0.0, None, "dc", MAX_NEWTON_ITERATIONS)?;
        let mut voltages = vec![0.0; working.num_nodes()];
        system.node_voltages_into(workspace.state(), &mut voltages);
        swept_values.push(value);
        node_voltages.push(voltages);
    }

    Ok(DcSweepResult {
        swept_values,
        node_voltages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosfetParams;
    use crate::netlist::GROUND;
    use crate::waveform::{CrossingDirection, WaveformView};

    fn inverter_circuit() -> (Circuit, NodeId, NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let input = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("VDD", vdd, GROUND, SourceWaveform::dc(1.0));
        ckt.add_voltage_source("VIN", input, GROUND, SourceWaveform::dc(0.0));
        ckt.add_mosfet("MP", out, input, vdd, vdd, MosfetParams::pmos_45nm())
            .unwrap();
        ckt.add_mosfet("MN", out, input, GROUND, GROUND, MosfetParams::nmos_45nm())
            .unwrap();
        (ckt, input, out)
    }

    #[test]
    fn inverter_transfer_curve_is_monotone_decreasing() {
        let (ckt, _input, out) = inverter_circuit();
        let values: Vec<f64> = (0..=50).map(|i| i as f64 / 50.0).collect();
        let sweep = dc_sweep(&ckt, "VIN", &values, Some(&[0.0, 1.0, 0.0, 1.0])).unwrap();
        assert_eq!(sweep.num_points(), 51);
        let vtc = sweep.node_voltage_samples(out).unwrap();
        assert!(
            vtc[0] > 0.95,
            "output should be high at Vin = 0, got {}",
            vtc[0]
        );
        assert!(
            vtc[50] < 0.05,
            "output should be low at Vin = 1, got {}",
            vtc[50]
        );
        for pair in vtc.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-6, "VTC must be non-increasing");
        }
        // The switching threshold is somewhere mid-rail.
        let curve = WaveformView::new(sweep.swept_values(), &vtc);
        let trip = curve
            .crossing_time(0.5, CrossingDirection::Falling, 0.0)
            .unwrap();
        assert!(trip > 0.3 && trip < 0.7, "trip point {trip}");
    }

    #[test]
    fn sweep_validation_errors() {
        let (ckt, _, _) = inverter_circuit();
        assert!(dc_sweep(&ckt, "VIN", &[], None).is_err());
        assert!(dc_sweep(&ckt, "NOPE", &[0.0], None).is_err());
        let sweep = dc_sweep(&ckt, "VIN", &[0.0, 0.5], None).unwrap();
        assert!(sweep.node_voltage_samples(99).is_err());
    }

    #[test]
    fn resistor_divider_sweep_is_linear() {
        let mut ckt = Circuit::new();
        let input = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_voltage_source("VIN", input, GROUND, SourceWaveform::dc(0.0));
        ckt.add_resistor("R1", input, mid, 1e3).unwrap();
        ckt.add_resistor("R2", mid, GROUND, 1e3).unwrap();
        let values = [0.0, 0.5, 1.0, 1.5, 2.0];
        let sweep = dc_sweep(&ckt, "VIN", &values, None).unwrap();
        let mids = sweep.node_voltage_samples(mid).unwrap();
        for (v, m) in values.iter().zip(mids.iter()) {
            assert!((m - v / 2.0).abs() < 1e-6);
        }
    }
}
