//! Transient testbenches extracting the dynamic characteristics of the 6T cell.
//!
//! Three characteristics are extracted, matching the standard set evaluated in
//! the high-sigma SRAM literature:
//!
//! * **Read access time** — wordline 50% rise to a `ΔV_sense` differential on
//!   the bitlines, with the cell storing a `0` on the accessed side.
//! * **Write delay** — wordline 50% rise to the storage node crossing half the
//!   supply while writing the opposite value into the cell.
//! * **Read disturb margin** — how far the low storage node is pulled up during
//!   a read; a dynamic-stability metric (the cell flips when it exceeds the
//!   trip point).
//!
//! A sample whose transient never reaches the measured event within the
//! simulation window is *censored*: the metric is reported as the window length
//! (read/write) or the supply voltage (disturb), which is always beyond any
//! sensible specification and therefore counts as a failure without biasing
//! non-failing statistics.
//!
//! # Batched evaluation
//!
//! Statistical extraction runs these transients millions of times with only
//! the six threshold voltages changing between samples. [`ReadSession`] and
//! [`WriteSession`] hoist everything else — netlist construction, node lookup,
//! initial conditions, integration config — out of the per-sample loop: a
//! session is built once, and each [`ReadSession::run`] injects the sample's
//! ΔV_T values into the prebuilt netlist before solving the transient. The
//! scalar [`SramTestbench::read`]/[`SramTestbench::write`] entry points are
//! thin wrappers over a fresh session, so both paths produce bit-identical
//! metrics. [`ReadSession::run_batch`]/[`WriteSession::run_batch`] run the
//! samples one after another on the session's workspace.

use crate::cell::{build_6t_cell, CellNodes, CellTransistor, SramCellConfig};
use crate::error::SramError;
use gis_circuit::{
    transient_analysis_dense, transient_analysis_with, Circuit, CircuitError, CrossingDirection,
    Device, MosfetParams, SimulationWorkspace, SourceWaveform, TransientConfig, TransientKernel,
    TransientResult,
};
use serde::{Deserialize, Serialize};

/// Timing and sensing parameters shared by the testbenches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbenchTiming {
    /// Delay before the wordline rises, in seconds.
    pub wordline_delay: f64,
    /// Wordline rise/fall time, in seconds.
    pub wordline_edge: f64,
    /// Wordline pulse width, in seconds.
    pub wordline_width: f64,
    /// Total simulated window, in seconds.
    pub stop_time: f64,
    /// Fixed integration step, in seconds.
    pub time_step: f64,
    /// Bitline differential (volts) that the sense amplifier needs.
    pub sense_margin: f64,
}

impl Default for TestbenchTiming {
    fn default() -> Self {
        TestbenchTiming {
            wordline_delay: 0.1e-9,
            wordline_edge: 20e-12,
            wordline_width: 2.0e-9,
            stop_time: 2.5e-9,
            time_step: 5e-12,
            sense_margin: 0.1,
        }
    }
}

impl TestbenchTiming {
    /// Validates the timing parameters.
    pub fn validate(&self) -> Result<(), SramError> {
        let all_positive = self.wordline_delay >= 0.0
            && self.wordline_edge > 0.0
            && self.wordline_width > 0.0
            && self.stop_time > 0.0
            && self.time_step > 0.0
            && self.sense_margin > 0.0;
        if !all_positive {
            return Err(SramError::InvalidConfig(
                "testbench timing values must be positive".to_string(),
            ));
        }
        if self.stop_time <= self.wordline_delay + self.wordline_edge {
            return Err(SramError::InvalidConfig(
                "simulation window ends before the wordline finishes rising".to_string(),
            ));
        }
        if self.time_step >= self.stop_time {
            return Err(SramError::InvalidConfig(
                "time step must be smaller than the simulation window".to_string(),
            ));
        }
        Ok(())
    }
}

/// Result of one read-access transient.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadResult {
    /// Read access time in seconds (censored at the simulation window if the
    /// sense margin was never developed).
    pub access_time: f64,
    /// Peak voltage reached by the low storage node during the read, in volts.
    pub disturb_peak: f64,
    /// Whether the sense margin was actually developed inside the window.
    pub sensed: bool,
}

/// Result of one write transient.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WriteResult {
    /// Write delay in seconds (censored at the simulation window when the cell
    /// did not flip).
    pub write_delay: f64,
    /// Whether the cell actually flipped inside the wordline pulse.
    pub flipped: bool,
}

/// Transient testbench for the 6T cell dynamic characteristics.
///
/// The testbench owns the cell configuration and timing; each call to
/// [`SramTestbench::read`] / [`SramTestbench::write`] builds a fresh netlist
/// with the supplied per-transistor threshold shifts and runs one transient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SramTestbench {
    cell: SramCellConfig,
    timing: TestbenchTiming,
}

impl SramTestbench {
    /// Creates a testbench.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::InvalidConfig`] if the cell or timing parameters are
    /// inconsistent.
    pub fn new(cell: SramCellConfig, timing: TestbenchTiming) -> Result<Self, SramError> {
        cell.validate().map_err(SramError::InvalidConfig)?;
        timing.validate()?;
        Ok(SramTestbench { cell, timing })
    }

    /// Testbench with the default 45 nm cell and timing.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn typical_45nm() -> Self {
        SramTestbench::new(SramCellConfig::typical_45nm(), TestbenchTiming::default())
            .expect("default configuration is valid")
    }

    /// The cell configuration.
    pub fn cell(&self) -> &SramCellConfig {
        &self.cell
    }

    /// The timing configuration.
    pub fn timing(&self) -> &TestbenchTiming {
        &self.timing
    }

    fn wordline_waveform(&self) -> SourceWaveform {
        SourceWaveform::pulse(
            0.0,
            self.cell.vdd,
            self.timing.wordline_delay,
            self.timing.wordline_edge,
            self.timing.wordline_width,
        )
    }

    /// Runs the read-access transient with the given per-transistor ΔV_T
    /// (canonical order, volts). The cell stores `Q = 0`, both bitlines start
    /// precharged to VDD, and the access time is measured from the wordline
    /// half-rise to the true bitline dropping by the sense margin.
    ///
    /// Equivalent to `self.read_session()?.run(vth_deltas)`; when evaluating
    /// many samples, build one [`ReadSession`] and reuse it.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] if the netlist cannot be built or the
    /// transient does not converge.
    pub fn read(&self, vth_deltas: &[f64]) -> Result<ReadResult, SramError> {
        self.read_session()?.run(vth_deltas)
    }

    /// Runs the write transient with the given per-transistor ΔV_T. The cell
    /// initially stores `Q = 1`; the bitlines drive `0` onto Q through the left
    /// pass gate. The write delay is measured from the wordline half-rise to Q
    /// falling below VDD/2.
    ///
    /// Equivalent to `self.write_session()?.run(vth_deltas)`; when evaluating
    /// many samples, build one [`WriteSession`] and reuse it.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] if the netlist cannot be built or the
    /// transient does not converge.
    pub fn write(&self, vth_deltas: &[f64]) -> Result<WriteResult, SramError> {
        self.write_session()?.run(vth_deltas)
    }

    /// Builds a reusable read-transient session: the netlist, initial
    /// conditions and integration config are constructed once; each
    /// [`ReadSession::run`] only injects the sample's threshold shifts.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] if the nominal netlist cannot be built.
    pub fn read_session(&self) -> Result<ReadSession, SramError> {
        let vdd = self.cell.vdd;
        let mut ckt = Circuit::new();
        let nodes = build_6t_cell(&mut ckt, &self.cell, &[0.0; 6])?;
        ckt.add_voltage_source(
            "V_VDD",
            nodes.vdd,
            Circuit::ground(),
            SourceWaveform::dc(vdd),
        );
        ckt.add_voltage_source(
            "V_WL",
            nodes.wordline,
            Circuit::ground(),
            self.wordline_waveform(),
        );
        // Floating, precharged bitlines.
        ckt.add_capacitor(
            "C_BL",
            nodes.bitline,
            Circuit::ground(),
            self.cell.bitline_capacitance,
        )?;
        ckt.add_capacitor(
            "C_BLB",
            nodes.bitline_bar,
            Circuit::ground(),
            self.cell.bitline_capacitance,
        )?;

        // Initial conditions: Q = 0 / QB = VDD, bitlines precharged, wordline low.
        let mut ic = vec![0.0; ckt.num_nodes()];
        ic[nodes.vdd] = vdd;
        ic[nodes.wordline] = 0.0;
        ic[nodes.bitline] = vdd;
        ic[nodes.bitline_bar] = vdd;
        ic[nodes.q] = 0.0;
        ic[nodes.q_bar] = vdd;

        let config = TransientConfig::new(self.timing.stop_time, self.timing.time_step)
            .with_initial_conditions(ic);
        let cell = CellParameterInjector::new(&ckt, &self.cell);
        Ok(ReadSession {
            circuit: ckt,
            nodes,
            cell,
            config,
            vdd,
            sense_level: vdd - self.timing.sense_margin,
            kernel: TransientKernel::Sparse,
            workspace: SimulationWorkspace::new(),
        })
    }

    /// Builds a reusable write-transient session (see
    /// [`SramTestbench::read_session`]).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] if the nominal netlist cannot be built.
    pub fn write_session(&self) -> Result<WriteSession, SramError> {
        let vdd = self.cell.vdd;
        let mut ckt = Circuit::new();
        let nodes = build_6t_cell(&mut ckt, &self.cell, &[0.0; 6])?;
        ckt.add_voltage_source(
            "V_VDD",
            nodes.vdd,
            Circuit::ground(),
            SourceWaveform::dc(vdd),
        );
        ckt.add_voltage_source(
            "V_WL",
            nodes.wordline,
            Circuit::ground(),
            self.wordline_waveform(),
        );
        // Write drivers hold the bitlines at the target data.
        ckt.add_voltage_source(
            "V_BL",
            nodes.bitline,
            Circuit::ground(),
            SourceWaveform::dc(0.0),
        );
        ckt.add_voltage_source(
            "V_BLB",
            nodes.bitline_bar,
            Circuit::ground(),
            SourceWaveform::dc(vdd),
        );

        // Initial conditions: Q = VDD / QB = 0, wordline low.
        let mut ic = vec![0.0; ckt.num_nodes()];
        ic[nodes.vdd] = vdd;
        ic[nodes.wordline] = 0.0;
        ic[nodes.bitline] = 0.0;
        ic[nodes.bitline_bar] = vdd;
        ic[nodes.q] = vdd;
        ic[nodes.q_bar] = 0.0;

        let config = TransientConfig::new(self.timing.stop_time, self.timing.time_step)
            .with_initial_conditions(ic);
        let cell = CellParameterInjector::new(&ckt, &self.cell);
        Ok(WriteSession {
            circuit: ckt,
            nodes,
            cell,
            config,
            vdd,
            kernel: TransientKernel::Sparse,
            workspace: SimulationWorkspace::new(),
        })
    }
}

/// Maps the six cell transistors of a prebuilt netlist to their device slots
/// so per-sample threshold shifts can be injected without rebuilding anything.
#[derive(Debug, Clone)]
struct CellParameterInjector {
    /// Device index of each cell transistor, canonical order.
    device_indices: [usize; 6],
    /// Nominal (unvaried) model card of each cell transistor, canonical order.
    nominal_params: [MosfetParams; 6],
}

impl CellParameterInjector {
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    fn new(circuit: &Circuit, cell: &SramCellConfig) -> Self {
        let mut device_indices = [0usize; 6];
        let mut nominal_params = [cell.pass_gate; 6];
        for transistor in CellTransistor::all() {
            let index = circuit
                .devices()
                .iter()
                .position(|d| d.name() == transistor.instance_name())
                .expect("the 6T cell instantiates every cell transistor");
            device_indices[transistor.index()] = index;
            nominal_params[transistor.index()] = cell.nominal_params(transistor);
        }
        CellParameterInjector {
            device_indices,
            nominal_params,
        }
    }

    /// Writes `nominal + delta` model cards into the netlist, validating each
    /// shifted card exactly as [`build_6t_cell`] would.
    fn inject(&self, circuit: &mut Circuit, vth_deltas: &[f64]) -> Result<(), SramError> {
        if vth_deltas.len() != 6 {
            return Err(SramError::Circuit(CircuitError::InvalidDevice {
                device: "6T cell".to_string(),
                reason: format!("expected 6 threshold deltas, got {}", vth_deltas.len()),
            }));
        }
        for transistor in CellTransistor::all() {
            let i = transistor.index();
            let shifted = self.nominal_params[i].with_vth_shift(vth_deltas[i]);
            shifted
                .validate()
                .map_err(|reason| CircuitError::InvalidDevice {
                    device: transistor.instance_name().to_string(),
                    reason,
                })?;
            match &mut circuit.devices_mut()[self.device_indices[i]] {
                Device::Mosfet { params, .. } => *params = shifted,
                other => unreachable!("device {} is a MOSFET", other.name()),
            }
        }
        Ok(())
    }
}

/// A reusable read-access transient with the netlist built once.
///
/// Produced by [`SramTestbench::read_session`]. Each [`ReadSession::run`] is
/// bit-identical to [`SramTestbench::read`] for the same ΔV_T vector. The
/// session owns a [`SimulationWorkspace`], so the sparse kernel's symbolic
/// plan and numeric buffers are shared by every sample of a batch; metric
/// extraction measures zero-copy [`gis_circuit::WaveformView`]s.
#[derive(Debug, Clone)]
pub struct ReadSession {
    circuit: Circuit,
    nodes: CellNodes,
    cell: CellParameterInjector,
    config: TransientConfig,
    vdd: f64,
    sense_level: f64,
    kernel: TransientKernel,
    workspace: SimulationWorkspace,
}

impl ReadSession {
    /// Selects the solver kernel (default [`TransientKernel::Sparse`]). The
    /// dense kernel exists for end-to-end verification; results are
    /// bit-identical either way.
    pub fn with_kernel(mut self, kernel: TransientKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The kernel this session solves on.
    pub fn kernel(&self) -> TransientKernel {
        self.kernel
    }

    /// Runs one read transient with the given per-transistor ΔV_T (canonical
    /// order, volts).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] for an invalid shift vector or a
    /// non-converging transient.
    pub fn run(&mut self, vth_deltas: &[f64]) -> Result<ReadResult, SramError> {
        self.cell.inject(&mut self.circuit, vth_deltas)?;
        let result = run_transient(
            &self.circuit,
            &self.config,
            self.kernel,
            &mut self.workspace,
        )?;
        self.measure(&result)
    }

    /// Runs one read transient per ΔV_T sample, in order. Each sample's
    /// result slot is independent: a rejected shift vector or a
    /// non-converging transient yields an `Err` in its own slot without
    /// disturbing its neighbours.
    pub fn run_batch(&mut self, samples: &[&[f64]]) -> Vec<Result<ReadResult, SramError>> {
        samples.iter().map(|deltas| self.run(deltas)).collect()
    }

    /// Extracts the read metrics from a solved transient.
    fn measure(&self, result: &TransientResult) -> Result<ReadResult, SramError> {
        let wl = result.waveform_view(self.nodes.wordline)?;
        let bl = result.waveform_view(self.nodes.bitline)?;
        let q = result.waveform_view(self.nodes.q)?;

        let t_wl = wl.crossing_time(self.vdd / 2.0, CrossingDirection::Rising, 0.0)?;
        let (access_time, sensed) =
            match bl.crossing_time(self.sense_level, CrossingDirection::Falling, t_wl) {
                Ok(t_sense) => (t_sense - t_wl, true),
                Err(_) => (self.config.stop_time, false),
            };
        let disturb_peak = q.max_value();

        Ok(ReadResult {
            access_time,
            disturb_peak,
            sensed,
        })
    }
}

/// A reusable write transient with the netlist built once.
///
/// Produced by [`SramTestbench::write_session`]. Each [`WriteSession::run`] is
/// bit-identical to [`SramTestbench::write`] for the same ΔV_T vector. See
/// [`ReadSession`] for the workspace/kernel mechanics.
#[derive(Debug, Clone)]
pub struct WriteSession {
    circuit: Circuit,
    nodes: CellNodes,
    cell: CellParameterInjector,
    config: TransientConfig,
    vdd: f64,
    kernel: TransientKernel,
    workspace: SimulationWorkspace,
}

impl WriteSession {
    /// Selects the solver kernel (default [`TransientKernel::Sparse`]). The
    /// dense kernel exists for end-to-end verification; results are
    /// bit-identical either way.
    pub fn with_kernel(mut self, kernel: TransientKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The kernel this session solves on.
    pub fn kernel(&self) -> TransientKernel {
        self.kernel
    }

    /// Runs one write transient with the given per-transistor ΔV_T (canonical
    /// order, volts).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] for an invalid shift vector or a
    /// non-converging transient.
    pub fn run(&mut self, vth_deltas: &[f64]) -> Result<WriteResult, SramError> {
        self.cell.inject(&mut self.circuit, vth_deltas)?;
        let result = run_transient(
            &self.circuit,
            &self.config,
            self.kernel,
            &mut self.workspace,
        )?;
        self.measure(&result)
    }

    /// Runs one write transient per ΔV_T sample; see
    /// [`ReadSession::run_batch`].
    pub fn run_batch(&mut self, samples: &[&[f64]]) -> Vec<Result<WriteResult, SramError>> {
        samples.iter().map(|deltas| self.run(deltas)).collect()
    }

    /// Extracts the write metrics from a solved transient.
    fn measure(&self, result: &TransientResult) -> Result<WriteResult, SramError> {
        let wl = result.waveform_view(self.nodes.wordline)?;
        let q = result.waveform_view(self.nodes.q)?;
        let q_bar = result.waveform_view(self.nodes.q_bar)?;

        let t_wl = wl.crossing_time(self.vdd / 2.0, CrossingDirection::Rising, 0.0)?;
        // The cell has flipped when Q falls below VDD/2 *and* stays flipped
        // (QB latched high by the end of the window).
        let flipped_latched =
            q.final_value() < self.vdd / 2.0 && q_bar.final_value() > self.vdd / 2.0;
        let (write_delay, flipped) =
            match q.crossing_time(self.vdd / 2.0, CrossingDirection::Falling, t_wl) {
                Ok(t_flip) if flipped_latched => (t_flip - t_wl, true),
                _ => (self.config.stop_time, false),
            };

        Ok(WriteResult {
            write_delay,
            flipped,
        })
    }
}

/// Dispatches one transient to the selected kernel.
fn run_transient(
    circuit: &Circuit,
    config: &TransientConfig,
    kernel: TransientKernel,
    workspace: &mut SimulationWorkspace,
) -> Result<TransientResult, CircuitError> {
    match kernel {
        TransientKernel::Sparse => transient_analysis_with(circuit, config, workspace),
        TransientKernel::Dense => transient_analysis_dense(circuit, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellTransistor;

    #[test]
    fn timing_validation() {
        assert!(TestbenchTiming::default().validate().is_ok());
        let t = TestbenchTiming {
            time_step: -1.0,
            ..TestbenchTiming::default()
        };
        assert!(t.validate().is_err());
        let t = TestbenchTiming {
            stop_time: 1e-12,
            ..TestbenchTiming::default()
        };
        assert!(t.validate().is_err());
        let t = TestbenchTiming {
            sense_margin: 0.0,
            ..TestbenchTiming::default()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn testbench_construction() {
        let tb = SramTestbench::typical_45nm();
        assert!(tb.cell().validate().is_ok());
        assert!(tb.timing().validate().is_ok());
        let mut bad_cell = SramCellConfig::typical_45nm();
        bad_cell.vdd = -1.0;
        assert!(SramTestbench::new(bad_cell, TestbenchTiming::default()).is_err());
    }

    #[test]
    fn nominal_read_is_fast_and_stable() {
        let tb = SramTestbench::typical_45nm();
        let r = tb.read(&[0.0; 6]).unwrap();
        assert!(r.sensed, "nominal cell must develop the sense margin");
        assert!(
            r.access_time > 1e-12 && r.access_time < 1.5e-9,
            "implausible nominal read access time {:e}",
            r.access_time
        );
        assert!(
            r.disturb_peak < tb.cell().vdd / 2.0,
            "nominal cell must not be disturbed during read (peak {})",
            r.disturb_peak
        );
    }

    #[test]
    fn nominal_write_flips_the_cell() {
        let tb = SramTestbench::typical_45nm();
        let w = tb.write(&[0.0; 6]).unwrap();
        assert!(w.flipped, "nominal cell must be writable");
        assert!(
            w.write_delay > 1e-12 && w.write_delay < 1.5e-9,
            "implausible nominal write delay {:e}",
            w.write_delay
        );
    }

    #[test]
    fn weak_pass_gate_slows_the_read() {
        let tb = SramTestbench::typical_45nm();
        let nominal = tb.read(&[0.0; 6]).unwrap();
        let mut deltas = [0.0; 6];
        deltas[CellTransistor::PassGateLeft.index()] = 0.15; // +0.15 V on PGL
        let slow = tb.read(&deltas).unwrap();
        assert!(
            slow.access_time > nominal.access_time * 1.3,
            "weak pass gate should slow the read: {:e} vs {:e}",
            slow.access_time,
            nominal.access_time
        );
    }

    #[test]
    fn extremely_weak_path_censors_the_read() {
        let tb = SramTestbench::typical_45nm();
        let mut deltas = [0.0; 6];
        deltas[CellTransistor::PassGateLeft.index()] = 0.6;
        deltas[CellTransistor::PullDownLeft.index()] = 0.6;
        let r = tb.read(&deltas).unwrap();
        assert!(!r.sensed);
        assert_eq!(r.access_time, tb.timing().stop_time);
    }

    #[test]
    fn strong_pull_up_contention_slows_or_blocks_the_write() {
        let tb = SramTestbench::typical_45nm();
        let nominal = tb.write(&[0.0; 6]).unwrap();
        let mut deltas = [0.0; 6];
        // Stronger PUL (negative shift) and weaker PGL fight the write.
        deltas[CellTransistor::PullUpLeft.index()] = -0.15;
        deltas[CellTransistor::PassGateLeft.index()] = 0.15;
        let contended = tb.write(&deltas).unwrap();
        assert!(
            contended.write_delay > nominal.write_delay,
            "write contention should increase delay: {:e} vs {:e}",
            contended.write_delay,
            nominal.write_delay
        );
        // An extreme imbalance makes the write fail outright.
        let mut extreme = [0.0; 6];
        extreme[CellTransistor::PullUpLeft.index()] = -0.3;
        extreme[CellTransistor::PassGateLeft.index()] = 0.45;
        let failed = tb.write(&extreme).unwrap();
        assert!(!failed.flipped, "extreme contention should block the write");
        assert_eq!(failed.write_delay, tb.timing().stop_time);
    }

    #[test]
    fn sessions_match_scalar_entry_points_bit_for_bit() {
        let tb = SramTestbench::typical_45nm();
        let mut read_session = tb.read_session().unwrap();
        let mut write_session = tb.write_session().unwrap();
        let samples: [[f64; 6]; 3] = [
            [0.0; 6],
            [0.12, -0.03, 0.05, 0.0, 0.08, -0.02],
            [-0.08, 0.15, -0.05, 0.1, 0.0, 0.07],
        ];
        for deltas in &samples {
            let scalar_read = tb.read(deltas).unwrap();
            let session_read = read_session.run(deltas).unwrap();
            assert_eq!(
                scalar_read.access_time.to_bits(),
                session_read.access_time.to_bits()
            );
            assert_eq!(
                scalar_read.disturb_peak.to_bits(),
                session_read.disturb_peak.to_bits()
            );
            assert_eq!(scalar_read.sensed, session_read.sensed);

            let scalar_write = tb.write(deltas).unwrap();
            let session_write = write_session.run(deltas).unwrap();
            assert_eq!(
                scalar_write.write_delay.to_bits(),
                session_write.write_delay.to_bits()
            );
            assert_eq!(scalar_write.flipped, session_write.flipped);
        }
        // Session reuse is stateless across samples: running the nominal cell
        // after a heavily skewed one reproduces the first result exactly.
        let nominal_again = read_session.run(&[0.0; 6]).unwrap();
        assert_eq!(
            nominal_again.access_time.to_bits(),
            tb.read(&[0.0; 6]).unwrap().access_time.to_bits()
        );
    }

    #[test]
    fn sparse_and_dense_kernels_agree_bit_for_bit() {
        let tb = SramTestbench::typical_45nm();
        let mut sparse_read = tb.read_session().unwrap();
        let mut dense_read = tb
            .read_session()
            .unwrap()
            .with_kernel(TransientKernel::Dense);
        let mut sparse_write = tb.write_session().unwrap();
        let mut dense_write = tb
            .write_session()
            .unwrap()
            .with_kernel(TransientKernel::Dense);
        assert_eq!(sparse_read.kernel(), TransientKernel::Sparse);
        assert_eq!(dense_read.kernel(), TransientKernel::Dense);
        let samples: [[f64; 6]; 3] = [
            [0.0; 6],
            [0.12, -0.03, 0.05, 0.0, 0.08, -0.02],
            [-0.08, 0.15, -0.05, 0.1, 0.0, 0.07],
        ];
        for deltas in &samples {
            let s = sparse_read.run(deltas).unwrap();
            let d = dense_read.run(deltas).unwrap();
            assert_eq!(s.access_time.to_bits(), d.access_time.to_bits());
            assert_eq!(s.disturb_peak.to_bits(), d.disturb_peak.to_bits());
            assert_eq!(s.sensed, d.sensed);
            let sw = sparse_write.run(deltas).unwrap();
            let dw = dense_write.run(deltas).unwrap();
            assert_eq!(sw.write_delay.to_bits(), dw.write_delay.to_bits());
            assert_eq!(sw.flipped, dw.flipped);
        }
    }

    #[test]
    fn batch_isolates_rejected_samples() {
        let tb = SramTestbench::typical_45nm();
        let mut session = tb.read_session().unwrap();
        let good = [0.0; 6];
        let bad = [f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0];
        let refs: Vec<&[f64]> = vec![&good, &bad, &good];
        let batch = session.run_batch(&refs);
        assert!(batch[0].is_ok());
        assert!(batch[1].is_err());
        assert!(batch[2].is_ok());
        let nominal = tb.read(&good).unwrap();
        for slot in [&batch[0], &batch[2]] {
            assert_eq!(
                slot.as_ref().unwrap().access_time.to_bits(),
                nominal.access_time.to_bits()
            );
        }
    }

    #[test]
    fn sessions_reject_bad_delta_vectors() {
        let tb = SramTestbench::typical_45nm();
        let mut session = tb.read_session().unwrap();
        assert!(session.run(&[0.0; 5]).is_err());
        assert!(session.run(&[f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0]).is_err());
        // The session stays usable after a rejected sample.
        assert!(session.run(&[0.0; 6]).is_ok());
    }

    #[test]
    fn read_metric_is_monotone_in_pass_gate_vth() {
        let tb = SramTestbench::typical_45nm();
        let mut previous = 0.0;
        for (i, shift) in [-0.05, 0.0, 0.05, 0.10].iter().enumerate() {
            let mut deltas = [0.0; 6];
            deltas[CellTransistor::PassGateLeft.index()] = *shift;
            let r = tb.read(&deltas).unwrap();
            if i > 0 {
                assert!(
                    r.access_time >= previous,
                    "read access time should increase with PGL Vth"
                );
            }
            previous = r.access_time;
        }
    }
}
