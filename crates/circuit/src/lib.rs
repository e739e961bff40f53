//! Transistor-level circuit simulation substrate for high-sigma SRAM extraction.
//!
//! The published methodology this repository reproduces evaluates SRAM dynamic
//! characteristics with a commercial SPICE simulator. No mature SPICE engine
//! exists as a Rust crate, so this crate implements the required subset from
//! scratch:
//!
//! * a netlist/builder API ([`Circuit`]) with resistors, capacitors,
//!   independent sources and four-terminal MOSFETs,
//! * a smooth square-law/EKV MOSFET compact model with subthreshold conduction
//!   and linearized body effect ([`MosfetParams`]),
//! * modified nodal analysis with damped Newton–Raphson for DC operating
//!   points ([`MnaSystem`]), and
//! * fixed-step backward-Euler transient analysis with SPICE-style `.measure`
//!   operations on the resulting waveforms ([`transient_analysis`],
//!   [`Waveform`]).
//!
//! # Quick example
//!
//! ```
//! use gis_circuit::{Circuit, SourceWaveform, TransientConfig, transient_analysis, GROUND};
//!
//! # fn main() -> Result<(), gis_circuit::CircuitError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_voltage_source("V1", vin, GROUND, SourceWaveform::dc(1.0));
//! ckt.add_resistor("R1", vin, out, 1e3)?;
//! ckt.add_capacitor("C1", out, GROUND, 1e-9)?;
//! let result = transient_analysis(
//!     &ckt,
//!     &TransientConfig::new(5e-6, 10e-9).with_initial_conditions(vec![0.0, 1.0, 0.0]),
//! )?;
//! assert!(result.final_voltage(out)? > 0.99);
//! # Ok(())
//! # }
//! ```

// The workspace has zero unsafe code; lock that in per crate. (A crate
// attribute rather than a workspace lint so the counting-allocator
// integration test, which needs an unsafe GlobalAlloc impl, stays possible.)
#![forbid(unsafe_code)]
// Library code must justify every panic site (clippy::unwrap_used/expect_used
// are warn in [workspace.lints.clippy]); tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

mod error;
pub mod mna;
pub mod mosfet;
pub mod netlist;
pub mod sweep;
pub mod transient;
pub mod waveform;

pub use error::CircuitError;
pub use mna::{DynamicState, MnaSystem, SimulationWorkspace};
pub use mosfet::{MosfetOperatingPoint, MosfetParams, MosfetPolarity};
pub use netlist::{Circuit, Device, NodeId, SourceWaveform, GROUND};
pub use sweep::{dc_sweep, DcSweepResult};
pub use transient::{
    transient_analysis, transient_analysis_dense, transient_analysis_with, TransientConfig,
    TransientKernel, TransientResult,
};
pub use waveform::{CrossingDirection, Waveform, WaveformView};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
