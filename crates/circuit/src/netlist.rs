//! Circuit (netlist) representation and builder.
//!
//! A [`Circuit`] is a flat list of devices connected between named nodes.
//! Node 0 is always ground. The builder API is deliberately close to how a
//! SPICE deck reads:
//!
//! ```
//! use gis_circuit::{Circuit, SourceWaveform, MosfetParams};
//!
//! let mut ckt = Circuit::new();
//! let vdd = ckt.node("vdd");
//! let out = ckt.node("out");
//! let gnd = Circuit::ground();
//! ckt.add_voltage_source("VDD", vdd, gnd, SourceWaveform::dc(1.0));
//! ckt.add_resistor("R1", vdd, out, 10e3).unwrap();
//! ckt.add_capacitor("C1", out, gnd, 1e-12).unwrap();
//! assert_eq!(ckt.num_nodes(), 3); // ground + vdd + out
//! ```

use crate::error::CircuitError;
use crate::mosfet::MosfetParams;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a circuit node. Node 0 is ground.
pub type NodeId = usize;

/// Ground node id.
pub const GROUND: NodeId = 0;

/// Time-dependent value of an independent source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceWaveform {
    /// Constant value.
    Dc(f64),
    /// SPICE-style pulse waveform.
    Pulse {
        /// Initial value.
        initial: f64,
        /// Pulsed value.
        pulsed: f64,
        /// Delay before the rising edge begins, in seconds.
        delay: f64,
        /// Rise time in seconds.
        rise: f64,
        /// Fall time in seconds.
        fall: f64,
        /// Pulse width (time spent at `pulsed`), in seconds.
        width: f64,
    },
    /// Piece-wise linear waveform given as `(time, value)` breakpoints sorted by time.
    Pwl(Vec<(f64, f64)>),
}

impl SourceWaveform {
    /// Shorthand for a DC source.
    pub fn dc(value: f64) -> Self {
        SourceWaveform::Dc(value)
    }

    /// A single rectangular-ish pulse with symmetric rise/fall times.
    pub fn pulse(initial: f64, pulsed: f64, delay: f64, edge: f64, width: f64) -> Self {
        SourceWaveform::Pulse {
            initial,
            pulsed,
            delay,
            rise: edge,
            fall: edge,
            width,
        }
    }

    /// Evaluates the waveform at time `t` (seconds).
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWaveform::Dc(v) => *v,
            SourceWaveform::Pulse {
                initial,
                pulsed,
                delay,
                rise,
                fall,
                width,
            } => {
                let rise = rise.max(1e-15);
                let fall = fall.max(1e-15);
                if t < *delay {
                    *initial
                } else if t < delay + rise {
                    initial + (pulsed - initial) * (t - delay) / rise
                } else if t < delay + rise + width {
                    *pulsed
                } else if t < delay + rise + width + fall {
                    pulsed + (initial - pulsed) * (t - delay - rise - width) / fall
                } else {
                    *initial
                }
            }
            SourceWaveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for pair in points.windows(2) {
                    let (t0, v0) = pair[0];
                    let (t1, v1) = pair[1];
                    if t <= t1 {
                        if t1 <= t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("non-empty checked above").1
            }
        }
    }
}

/// A circuit element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Device {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (> 0).
        resistance: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (> 0).
        capacitance: f64,
    },
    /// Independent voltage source from `positive` to `negative`.
    VoltageSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        positive: NodeId,
        /// Negative terminal.
        negative: NodeId,
        /// Value over time.
        waveform: SourceWaveform,
    },
    /// Independent current source injecting current into `into` and pulling it
    /// from `from`.
    CurrentSource {
        /// Instance name.
        name: String,
        /// Terminal the current is pulled from.
        from: NodeId,
        /// Terminal the current is injected into.
        into: NodeId,
        /// Value over time.
        waveform: SourceWaveform,
    },
    /// Four-terminal MOSFET.
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal.
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// Body/bulk terminal.
        body: NodeId,
        /// Model-card parameters (already including any per-instance variation).
        params: MosfetParams,
    },
}

impl Device {
    /// Instance name of the device.
    pub fn name(&self) -> &str {
        match self {
            Device::Resistor { name, .. }
            | Device::Capacitor { name, .. }
            | Device::VoltageSource { name, .. }
            | Device::CurrentSource { name, .. }
            | Device::Mosfet { name, .. } => name,
        }
    }

    /// Node ids this device connects to.
    pub fn terminals(&self) -> Vec<NodeId> {
        match self {
            Device::Resistor { a, b, .. } | Device::Capacitor { a, b, .. } => vec![*a, *b],
            Device::VoltageSource {
                positive, negative, ..
            } => vec![*positive, *negative],
            Device::CurrentSource { from, into, .. } => vec![*from, *into],
            Device::Mosfet {
                drain,
                gate,
                source,
                body,
                ..
            } => vec![*drain, *gate, *source, *body],
        }
    }
}

/// A flat transistor-level circuit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Circuit {
    /// Node ids by name; ids are dense, so the map's size is the node count.
    name_to_node: BTreeMap<String, NodeId>,
    devices: Vec<Device>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut ckt = Circuit {
            name_to_node: BTreeMap::new(),
            devices: Vec::new(),
        };
        ckt.name_to_node.insert("0".to_string(), GROUND);
        ckt
    }

    /// The ground node id (always 0).
    pub fn ground() -> NodeId {
        GROUND
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.name_to_node.get(name) {
            return id;
        }
        let id = self.name_to_node.len();
        self.name_to_node.insert(name.to_string(), id);
        id
    }

    /// Total number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.name_to_node.len()
    }

    /// The devices of the circuit, in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable access to the devices (used by the SRAM layer to inject
    /// per-sample threshold-voltage shifts without rebuilding the netlist).
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    fn check_node(&self, node: NodeId) -> Result<(), CircuitError> {
        if node >= self.num_nodes() {
            Err(CircuitError::UnknownNode {
                node,
                num_nodes: self.num_nodes(),
            })
        } else {
            Ok(())
        }
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidDevice`] for a non-positive or non-finite
    /// resistance, or [`CircuitError::UnknownNode`] for a bad terminal.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        resistance: f64,
    ) -> Result<(), CircuitError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(resistance > 0.0) || !resistance.is_finite() {
            return Err(CircuitError::InvalidDevice {
                device: name.to_string(),
                reason: format!("resistance must be positive and finite, got {resistance}"),
            });
        }
        self.devices.push(Device::Resistor {
            name: name.to_string(),
            a,
            b,
            resistance,
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidDevice`] for a non-positive or non-finite
    /// capacitance, or [`CircuitError::UnknownNode`] for a bad terminal.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        capacitance: f64,
    ) -> Result<(), CircuitError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(capacitance > 0.0) || !capacitance.is_finite() {
            return Err(CircuitError::InvalidDevice {
                device: name.to_string(),
                reason: format!("capacitance must be positive and finite, got {capacitance}"),
            });
        }
        self.devices.push(Device::Capacitor {
            name: name.to_string(),
            a,
            b,
            capacitance,
        });
        Ok(())
    }

    /// Adds an independent voltage source. Terminal validity is checked lazily
    /// at analysis time for sources because testbench builders commonly create
    /// them before all internal nodes exist; an out-of-range node will still be
    /// rejected when the MNA system is built.
    pub fn add_voltage_source(
        &mut self,
        name: &str,
        positive: NodeId,
        negative: NodeId,
        waveform: SourceWaveform,
    ) {
        self.devices.push(Device::VoltageSource {
            name: name.to_string(),
            positive,
            negative,
            waveform,
        });
    }

    /// Adds an independent current source injecting into `into` and drawing
    /// from `from`.
    pub fn add_current_source(
        &mut self,
        name: &str,
        from: NodeId,
        into: NodeId,
        waveform: SourceWaveform,
    ) {
        self.devices.push(Device::CurrentSource {
            name: name.to_string(),
            from,
            into,
            waveform,
        });
    }

    /// Adds a MOSFET.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidDevice`] if the model card fails
    /// validation, or [`CircuitError::UnknownNode`] for a bad terminal.
    pub fn add_mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        body: NodeId,
        params: MosfetParams,
    ) -> Result<(), CircuitError> {
        for node in [drain, gate, source, body] {
            self.check_node(node)?;
        }
        params
            .validate()
            .map_err(|reason| CircuitError::InvalidDevice {
                device: name.to_string(),
                reason,
            })?;
        self.devices.push(Device::Mosfet {
            name: name.to_string(),
            drain,
            gate,
            source,
            body,
            params,
        });
        Ok(())
    }

    /// Validates that every device terminal refers to an existing node.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] naming the first offending node.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for d in &self.devices {
            for t in d.terminals() {
                self.check_node(t)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_creation_is_idempotent() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.num_nodes(), 2);
        assert_eq!(Circuit::ground(), 0);
    }

    #[test]
    fn device_addition_and_counts() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, GROUND, 1e-15).unwrap();
        ckt.add_voltage_source("V1", a, GROUND, SourceWaveform::dc(1.0));
        ckt.add_current_source("I1", GROUND, b, SourceWaveform::dc(1e-6));
        ckt.add_mosfet("M1", a, b, GROUND, GROUND, MosfetParams::nmos_45nm())
            .unwrap();
        assert_eq!(ckt.num_devices(), 5);
        assert!(ckt.validate().is_ok());
        assert_eq!(ckt.devices()[0].name(), "R1");
        assert_eq!(ckt.devices()[4].terminals().len(), 4);
    }

    #[test]
    fn invalid_devices_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        assert!(ckt.add_resistor("R", a, GROUND, 0.0).is_err());
        assert!(ckt.add_resistor("R", a, GROUND, -5.0).is_err());
        assert!(ckt.add_resistor("R", a, 99, 1.0).is_err());
        assert!(ckt.add_capacitor("C", a, GROUND, f64::NAN).is_err());
        let mut bad = MosfetParams::nmos_45nm();
        bad.k_prime = -1.0;
        assert!(ckt.add_mosfet("M", a, a, GROUND, GROUND, bad).is_err());
        assert_eq!(ckt.num_devices(), 0);
    }

    #[test]
    fn validate_catches_dangling_source_nodes() {
        let mut ckt = Circuit::new();
        ckt.add_voltage_source("V1", 5, GROUND, SourceWaveform::dc(1.0));
        assert!(ckt.validate().is_err());
    }

    #[test]
    fn dc_waveform() {
        let w = SourceWaveform::dc(1.8);
        assert_eq!(w.value_at(0.0), 1.8);
        assert_eq!(w.value_at(1.0), 1.8);
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = SourceWaveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 2e-9);
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(0.99e-9), 0.0);
        assert!((w.value_at(1.05e-9) - 0.5).abs() < 1e-9);
        assert_eq!(w.value_at(2.0e-9), 1.0);
        assert_eq!(w.value_at(3.05e-9), 1.0);
        // Falling edge midpoint.
        assert!((w.value_at(3.15e-9) - 0.5).abs() < 1e-6);
        assert_eq!(w.value_at(4.0e-9), 0.0);
    }

    #[test]
    fn pwl_waveform_interpolation() {
        let w = SourceWaveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0), (4.0, 0.0)]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 1.0);
        assert_eq!(w.value_at(2.0), 2.0);
        assert_eq!(w.value_at(3.5), 1.0);
        assert_eq!(w.value_at(10.0), 0.0);
        assert_eq!(SourceWaveform::Pwl(vec![]).value_at(1.0), 0.0);
    }
}
