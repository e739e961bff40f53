//! 6T SRAM bitcell testbenches and dynamic characteristic extraction.
//!
//! This crate sits between the circuit simulator ([`gis_circuit`]) and the
//! statistical extraction layer (`gis-core`). It provides:
//!
//! * [`SramCellConfig`] / [`build_6t_cell`] — a parametric 6T bitcell with
//!   per-transistor threshold-voltage shifts (the variation hook),
//! * [`SramTestbench`] — transient read, write and read-disturb testbenches
//!   that extract the paper's dynamic characteristics (read access time, write
//!   delay, disturb margin) from full circuit simulation, and
//! * [`SramSurrogate`] — a smooth analytical stand-in with the same failure
//!   mechanisms, used when an experiment needs millions of evaluations.
//!
//! # Example
//!
//! ```
//! use gis_sram::SramTestbench;
//!
//! # fn main() -> Result<(), gis_sram::SramError> {
//! let tb = SramTestbench::typical_45nm();
//! let nominal = tb.read(&[0.0; 6])?;
//! assert!(nominal.sensed);
//!
//! // Weaken the left pass gate by 150 mV: the read slows down.
//! let mut deltas = [0.0; 6];
//! deltas[0] = 0.15;
//! let slow = tb.read(&deltas)?;
//! assert!(slow.access_time > nominal.access_time);
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

pub mod cell;
mod error;
pub mod static_analysis;
pub mod surrogate;
pub mod testbench;

pub use cell::{build_6t_cell, CellNodes, CellTransistor, SramCellConfig};
pub use error::SramError;
pub use static_analysis::{StaticAnalysis, StaticCondition};
pub use surrogate::SramSurrogate;
pub use testbench::{
    ReadResult, ReadSession, SramTestbench, TestbenchTiming, WriteResult, WriteSession,
};
// The kernel selector travels with the sessions so downstream layers can
// request the dense reference kernel for verification runs.
pub use gis_circuit::TransientKernel;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SramError>;
