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
//! the six threshold voltages changing between samples. A [`Session`] hoists
//! everything else — netlist construction, node lookup, initial conditions,
//! integration config — out of the per-sample loop: a session is built once,
//! and each [`Session::run`] injects the sample's ΔV_T values into the
//! prebuilt netlist before solving the transient. [`ReadSession`] and
//! [`WriteSession`] are the two kinds; one builder makes both netlists, and
//! one private solve step injects the shifts and picks the kernel. The
//! scalar [`SramTestbench::read`]/[`SramTestbench::write`] entry points are
//! thin wrappers over a fresh session, so both paths produce bit-identical
//! metrics.
//!
//! A batch ([`Session::run_batch`], or [`Session::access_times`] for the
//! read access time) runs on sample lanes: the session keeps one netlist
//! per lane, and [`gis_circuit::transient::transient_lanes`] advances
//! [`LANES`] transients by one Newton iteration per pass, sharing the stamp
//! program and the recorded elimination program. A lane is refilled from
//! the batch as soon as its sample senses, reaches the end of the window or
//! fails, so lanes retire at different steps and the batch keeps them full
//! until its last samples. Every result keeps the bits of the one-lane
//! [`Session::run`] or [`Session::access_time`]. A single sample, and the
//! dense reference kernel, run one lane at a time.
//!
//! Only the read access time stops early. [`Session::access_time`] ends the
//! transient at the first recorded point where the bitline has crossed the
//! sense level after the wordline's half-rise, as SPICE's auto-stop ends a
//! run once its last `.measure` is taken; a nominal read needs about 35 of
//! the window's 501 points. The result is exact: every point up to the stop
//! is computed as in the full window, the stop test and the measurement use
//! the same per-segment crossing ([`gis_circuit::segment_crossing`]), and the
//! stopped prefix therefore holds the same first crossings. A read that
//! never senses runs the whole window and is censored as usual. One edge
//! differs: a transient that would stop converging only *after* its sense
//! event used to fail and now reports its access time. [`Session::run`]
//! passes a stop test that never fires, so it, the disturb peak (a maximum
//! over the whole window) and the write delay (which reads the latched state
//! at the window's end) always run the whole window, and so does the dense
//! reference kernel.

use crate::cell::{build_6t_cell, CellNodes, CellTransistor, SramCellConfig};
use crate::error::SramError;
use gis_circuit::transient::{transient_lanes, TransientFeed, LANES};
use gis_circuit::{
    segment_crossing, transient_analysis_dense, transient_analysis_until, Circuit, CircuitError,
    CrossingDirection, Device, MosfetParams, SimulationWorkspace, SourceWaveform, TransientConfig,
    TransientKernel, TransientResult,
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
    /// [`Session::run`] only injects the sample's threshold shifts.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] if the nominal netlist cannot be built.
    pub fn read_session(&self) -> Result<ReadSession, SramError> {
        let sense_level = self.cell.vdd - self.timing.sense_margin;
        self.session(ReadBench { sense_level }, false)
    }

    /// Builds a reusable write-transient session (see
    /// [`SramTestbench::read_session`]).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] if the nominal netlist cannot be built.
    pub fn write_session(&self) -> Result<WriteSession, SramError> {
        self.session(WriteBench, true)
    }

    /// Builds the nominal netlist, initial conditions and config of one
    /// session: the cell, `V_VDD` and `V_WL`, then the bitlines. A read
    /// leaves them floating on `C_BL`/`C_BLB`, precharged to VDD, with the
    /// cell storing `Q = 0`. A write holds them with the drivers
    /// `V_BL`/`V_BLB` at the opposite data, with the cell storing `Q = 1`.
    fn session<B: Bench>(&self, bench: B, write: bool) -> Result<Session<B>, SramError> {
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
        let (bitline, q, q_bar) = if write {
            for (name, node, level) in [
                ("V_BL", nodes.bitline, 0.0),
                ("V_BLB", nodes.bitline_bar, vdd),
            ] {
                ckt.add_voltage_source(name, node, Circuit::ground(), SourceWaveform::dc(level));
            }
            (0.0, vdd, 0.0)
        } else {
            for (name, node) in [("C_BL", nodes.bitline), ("C_BLB", nodes.bitline_bar)] {
                ckt.add_capacitor(name, node, Circuit::ground(), self.cell.bitline_capacitance)?;
            }
            (vdd, 0.0, vdd)
        };

        // The wordline starts low and BLB at VDD in both testbenches.
        let mut ic = vec![0.0; ckt.num_nodes()];
        ic[nodes.vdd] = vdd;
        ic[nodes.bitline] = bitline;
        ic[nodes.bitline_bar] = vdd;
        ic[nodes.q] = q;
        ic[nodes.q_bar] = q_bar;

        let config = TransientConfig::new(self.timing.stop_time, self.timing.time_step)
            .with_initial_conditions(ic);
        let cell = CellParameterInjector::new(&ckt, &self.cell);
        Ok(Session {
            circuit: ckt,
            nodes,
            cell,
            config,
            vdd,
            kernel: TransientKernel::Sparse,
            workspace: SimulationWorkspace::new(),
            lane_circuits: Vec::new(),
            bench,
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

/// A reusable transient of one testbench with the netlist built once: a
/// [`ReadSession`] or a [`WriteSession`].
///
/// Produced by [`SramTestbench::read_session`] and
/// [`SramTestbench::write_session`]. Each [`Session::run`] is bit-identical
/// to [`SramTestbench::read`] or [`SramTestbench::write`] for the same ΔV_T
/// vector. The session owns a [`SimulationWorkspace`], so the sparse
/// kernel's symbolic plan and numeric buffers are shared by every sample of
/// a batch; metric extraction measures zero-copy
/// [`gis_circuit::WaveformView`]s. A batch runs on [`LANES`] sample lanes,
/// each refilled from the batch as soon as its sample ends, with one
/// netlist per lane cloned by the first batch.
///
/// [`Session::access_time`] is the read's fast path for the access time
/// alone: it stops the transient at the sense event and returns the same
/// bits as `run(..)?.access_time`, except that a transient failing only
/// after it sensed reports its access time instead of an error.
#[derive(Debug, Clone)]
pub struct Session<B> {
    circuit: Circuit,
    nodes: CellNodes,
    cell: CellParameterInjector,
    config: TransientConfig,
    vdd: f64,
    kernel: TransientKernel,
    workspace: SimulationWorkspace,
    /// One netlist per lane of a batch, cloned from `circuit` by the first
    /// batch that runs on lanes.
    lane_circuits: Vec<Circuit>,
    bench: B,
}

/// A reusable read-access transient; see [`Session`].
pub type ReadSession = Session<ReadBench>;

/// A reusable write transient; see [`Session`].
pub type WriteSession = Session<WriteBench>;

/// The testbench a [`Session`] runs, and what it measures from each
/// transient: [`ReadBench`] or [`WriteBench`].
pub trait Bench: Sized {
    /// The metrics of one transient.
    type Output;

    /// Extracts the metrics from a solved full-window transient of `session`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] if `result` lacks a measured node or
    /// its wordline never rises.
    fn measure(
        session: &Session<Self>,
        result: &TransientResult,
    ) -> Result<Self::Output, SramError>;
}

/// The read-access testbench: floating precharged bitlines, `Q = 0`.
#[derive(Debug, Clone, Copy)]
pub struct ReadBench {
    /// Bitline level (volts) at which the sense amplifier resolves.
    sense_level: f64,
}

/// The write testbench: driven bitlines writing `0` over a stored `1`.
#[derive(Debug, Clone, Copy)]
pub struct WriteBench;

impl<B: Bench> Session<B> {
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

    /// Runs one transient over the whole window with the given
    /// per-transistor ΔV_T (canonical order, volts).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] for an invalid shift vector or a
    /// non-converging transient.
    pub fn run(&mut self, vth_deltas: &[f64]) -> Result<B::Output, SramError> {
        let result = self.solve(vth_deltas, |_, _| false)?;
        B::measure(self, &result)
    }

    /// Runs one full-window transient per ΔV_T sample; the results come
    /// back in sample order, each bit-identical to [`Session::run`]. Each
    /// sample's result slot is independent: a rejected shift vector or a
    /// non-converging transient yields an `Err` in its own slot without
    /// disturbing its neighbours.
    ///
    /// On the sparse kernel a batch of two or more samples runs on
    /// [`LANES`] lanes ([`gis_circuit::transient::transient_lanes`]): each
    /// Newton iteration advances every lane's transient, and a lane whose
    /// sample finishes or fails takes the next sample of the batch at once.
    pub fn run_batch(&mut self, samples: &[&[f64]]) -> Vec<Result<B::Output, SramError>> {
        self.batch(samples, |_| |_: f64, _: &[f64]| false, B::measure)
    }

    /// Runs `samples` with a stop test from `stop` each, and measures each
    /// stopped transient with `measure`: one after another through
    /// [`Session::solve`] for a single sample or on the dense kernel, else
    /// on the lanes, filled in sample order.
    fn batch<T, S>(
        &mut self,
        samples: &[&[f64]],
        stop: impl Fn(&Self) -> S,
        measure: impl Fn(&Self, &TransientResult) -> Result<T, SramError>,
    ) -> Vec<Result<T, SramError>>
    where
        S: FnMut(f64, &[f64]) -> bool,
    {
        if samples.len() < 2 || self.kernel == TransientKernel::Dense {
            return samples
                .iter()
                .map(|deltas| {
                    let stop = stop(self);
                    let result = self.solve(deltas, stop)?;
                    measure(self, &result)
                })
                .collect();
        }
        if self.lane_circuits.is_empty() {
            self.lane_circuits = vec![self.circuit.clone(); LANES];
        }
        let mut circuits = std::mem::take(&mut self.lane_circuits);
        let mut workspace = std::mem::take(&mut self.workspace);
        let mut feed = LaneFeed {
            session: &*self,
            circuits: &mut circuits,
            samples,
            next: 0,
            in_lane: [0; LANES],
            outputs: samples.iter().map(|_| None).collect(),
            stop: &stop,
            measure: &measure,
        };
        let setup = transient_lanes(&self.config, &mut workspace, &mut feed);
        let outputs = feed.outputs;
        self.workspace = workspace;
        self.lane_circuits = circuits;
        outputs
            .into_iter()
            .map(|output| match (output, &setup) {
                (Some(output), _) => output,
                (None, Err(error)) => Err(error.clone().into()),
                (None, Ok(())) => unreachable!("the lanes finish every sample they load"),
            })
            .collect()
    }

    /// Injects the sample's threshold shifts and solves the transient. The
    /// sparse kernel stops at the first recorded point where `stop` returns
    /// `true`; the dense reference kernel always runs the whole window.
    fn solve(
        &mut self,
        vth_deltas: &[f64],
        stop: impl FnMut(f64, &[f64]) -> bool,
    ) -> Result<TransientResult, SramError> {
        self.cell.inject(&mut self.circuit, vth_deltas)?;
        Ok(match self.kernel {
            TransientKernel::Sparse => {
                transient_analysis_until(&self.circuit, &self.config, &mut self.workspace, stop)?
            }
            TransientKernel::Dense => transient_analysis_dense(&self.circuit, &self.config)?,
        })
    }
}

/// The [`TransientFeed`] of [`Session::batch`]: injects each sample into a
/// lane's netlist and measures each finished transient into the sample's
/// output slot.
struct LaneFeed<'a, B, T, MS, MM> {
    session: &'a Session<B>,
    circuits: &'a mut [Circuit],
    samples: &'a [&'a [f64]],
    /// Index of the next sample to load.
    next: usize,
    /// Index of the sample in each lane.
    in_lane: [usize; LANES],
    outputs: Vec<Option<Result<T, SramError>>>,
    stop: &'a MS,
    measure: &'a MM,
}

impl<B, T, S, MS, MM> TransientFeed for LaneFeed<'_, B, T, MS, MM>
where
    S: FnMut(f64, &[f64]) -> bool,
    MS: Fn(&Session<B>) -> S,
    MM: Fn(&Session<B>, &TransientResult) -> Result<T, SramError>,
{
    type Stop = S;

    fn circuit(&self, lane: usize) -> &Circuit {
        &self.circuits[lane]
    }

    fn load(&mut self, lane: usize) -> Option<S> {
        while let Some(deltas) = self.samples.get(self.next) {
            let sample = self.next;
            self.next += 1;
            match self.session.cell.inject(&mut self.circuits[lane], deltas) {
                Ok(()) => {
                    self.in_lane[lane] = sample;
                    return Some((self.stop)(self.session));
                }
                Err(error) => self.outputs[sample] = Some(Err(error)),
            }
        }
        None
    }

    fn finish(&mut self, lane: usize, result: Result<&mut TransientResult, CircuitError>) {
        let output = match result {
            Ok(result) => (self.measure)(self.session, result),
            Err(error) => Err(error.into()),
        };
        self.outputs[self.in_lane[lane]] = Some(output);
    }
}

impl Bench for ReadBench {
    type Output = ReadResult;

    fn measure(session: &ReadSession, result: &TransientResult) -> Result<ReadResult, SramError> {
        let (access_time, sensed) = session.measure_access(result)?;
        let disturb_peak = result.waveform_view(session.nodes.q)?.max_value();
        Ok(ReadResult {
            access_time,
            disturb_peak,
            sensed,
        })
    }
}

impl Bench for WriteBench {
    type Output = WriteResult;

    fn measure(session: &WriteSession, result: &TransientResult) -> Result<WriteResult, SramError> {
        let half_vdd = session.vdd / 2.0;
        let wl = result.waveform_view(session.nodes.wordline)?;
        let q = result.waveform_view(session.nodes.q)?;
        let q_bar = result.waveform_view(session.nodes.q_bar)?;

        let t_wl = wl.crossing_time(half_vdd, CrossingDirection::Rising, 0.0)?;
        // The cell has flipped when Q falls below VDD/2 *and* stays flipped
        // (QB latched high by the end of the window).
        let flipped_latched = q.final_value() < half_vdd && q_bar.final_value() > half_vdd;
        let (write_delay, flipped) =
            match q.crossing_time(half_vdd, CrossingDirection::Falling, t_wl) {
                Ok(t_flip) if flipped_latched => (t_flip - t_wl, true),
                _ => (session.config.stop_time, false),
            };

        Ok(WriteResult {
            write_delay,
            flipped,
        })
    }
}

impl ReadSession {
    /// Runs one read transient and returns only its access time,
    /// bit-identical to `self.run(vth_deltas)?.access_time`.
    ///
    /// On the sparse kernel the transient stops at the first recorded point
    /// where the bitline has crossed the sense level after the wordline's
    /// half-rise; a nominal read ends about 35 steps into a 501-step window.
    /// The crossings are tracked point by point with
    /// [`gis_circuit::segment_crossing`], the step that
    /// [`gis_circuit::WaveformView::crossing_time`] repeats, and the stopped
    /// prefix is then measured exactly as [`Session::run`] measures the full
    /// window. Every recorded point is computed as before, so the prefix
    /// holds the same first crossings and the access time keeps its bits. A
    /// sample that never senses runs the whole window and is censored as
    /// usual. The dense kernel always runs the whole window, as the
    /// reference the early stop is checked against.
    ///
    /// One edge differs from `run`: a transient that would stop converging
    /// only *after* its sense event is an `Err` from `run` but reports its
    /// access time here, since the failing point is never solved.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::Circuit`] for an invalid shift vector or a
    /// transient that does not converge before it senses.
    pub fn access_time(&mut self, vth_deltas: &[f64]) -> Result<f64, SramError> {
        let result = self.run_until_sensed(vth_deltas)?;
        Ok(self.measure_access(&result)?.0)
    }

    /// [`Session::access_time`] of each ΔV_T sample, in sample order and
    /// with the same bits, each in its own result slot. On the sparse
    /// kernel a batch runs on the lanes as [`Session::run_batch`] does, and
    /// each lane stops its transient at the sample's sense event.
    pub fn access_times(&mut self, samples: &[&[f64]]) -> Vec<Result<f64, SramError>> {
        self.batch(samples, Self::sense_stop, |session, result| {
            Ok(session.measure_access(result)?.0)
        })
    }

    /// The transient behind [`Session::access_time`]: on the sparse kernel,
    /// the prefix of the window up to the sense event.
    fn run_until_sensed(&mut self, vth_deltas: &[f64]) -> Result<TransientResult, SramError> {
        let stop = self.sense_stop();
        self.solve(vth_deltas, stop)
    }

    /// The stop test of one read: true at the first point where the bitline
    /// has crossed the sense level after the wordline's half-rise.
    fn sense_stop(&self) -> impl FnMut(f64, &[f64]) -> bool {
        use CrossingDirection::{Falling, Rising};
        let (wordline, bitline) = (self.nodes.wordline, self.nodes.bitline);
        let (half_rise, sense_level) = (self.vdd / 2.0, self.bench.sense_level);
        // Previous point (t, wordline, bitline) and the wordline's half-rise
        // time once it has been seen.
        let mut previous: Option<(f64, f64, f64)> = None;
        let mut t_wl: Option<f64> = None;
        move |t, voltages| {
            let (wl, bl) = (voltages[wordline], voltages[bitline]);
            let mut sensed = false;
            if let Some((t0, wl0, bl0)) = previous {
                t_wl = t_wl.or_else(|| segment_crossing(t0, wl0, t, wl, half_rise, Rising));
                // The scan of `crossing_time(sense_level, Falling, after)`.
                if let Some(after) = t_wl {
                    sensed = t >= after
                        && segment_crossing(t0, bl0, t, bl, sense_level, Falling)
                            .is_some_and(|t_sense| t_sense >= after);
                }
            }
            previous = Some((t, wl, bl));
            sensed
        }
    }

    /// Measures the access time of a solved (possibly stopped) transient:
    /// wordline half-rise to the bitline falling to the sense level, or the
    /// censored window length with `false` when it never does.
    fn measure_access(&self, result: &TransientResult) -> Result<(f64, bool), SramError> {
        let wl = result.waveform_view(self.nodes.wordline)?;
        let bl = result.waveform_view(self.nodes.bitline)?;
        let t_wl = wl.crossing_time(self.vdd / 2.0, CrossingDirection::Rising, 0.0)?;
        Ok(
            match bl.crossing_time(self.bench.sense_level, CrossingDirection::Falling, t_wl) {
                Ok(t_sense) => (t_sense - t_wl, true),
                Err(_) => (self.config.stop_time, false),
            },
        )
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

    /// Checks [`Session::access_time`] against the full-window
    /// [`Session::run`] on a seeded cloud of `samples` ΔV_T vectors,
    /// spread from the nominal cell out to censored reads, after the nominal
    /// cell, a censored read and two malformed vectors (indices 2 and 3).
    /// Returns how many reads were censored and how many full windows
    /// failed only after the sense event.
    fn assert_access_time_matches_run(samples: usize) -> (usize, usize) {
        let tb = SramTestbench::typical_45nm();
        let mut full = tb.read_session().unwrap();
        let mut stopped = tb.read_session().unwrap();
        let mut rng = gis_stats::RngStream::from_seed(17);
        let mut censored_deltas = [0.0; 6];
        censored_deltas[CellTransistor::PassGateLeft.index()] = 0.6;
        censored_deltas[CellTransistor::PullDownLeft.index()] = 0.6;
        let mut cloud: Vec<Vec<f64>> = vec![
            vec![0.0; 6],
            censored_deltas.to_vec(),
            vec![f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0; 5],
        ];
        // Per-transistor sigma grows linearly to 0.3 V, so the far end of
        // the cloud reaches reads that never sense.
        cloud.extend((0..samples).map(|i| {
            let sigma = 0.3 * i as f64 / samples as f64;
            (0..6).map(|_| sigma * rng.standard_normal()).collect()
        }));
        let (mut censored, mut post_sense_failures) = (0, 0);
        for (i, deltas) in cloud.iter().enumerate() {
            match (full.run(deltas), stopped.access_time(deltas)) {
                (Ok(reference), Ok(access_time)) => {
                    assert!(i != 2 && i != 3, "malformed vector {deltas:?} was accepted");
                    assert_eq!(
                        access_time.to_bits(),
                        reference.access_time.to_bits(),
                        "access time diverged at {deltas:?}"
                    );
                    censored += usize::from(!reference.sensed);
                }
                // Rejected shifts, and far-out transients that stop
                // converging before they sense, fail on both paths.
                (Err(_), Err(_)) => {}
                // The documented edge: the full window fails to converge
                // only after the stopped transient has already sensed.
                (
                    Err(SramError::Circuit(CircuitError::NewtonDidNotConverge { time, .. })),
                    Ok(_),
                ) => {
                    let prefix = stopped.run_until_sensed(deltas).unwrap();
                    assert!(time > prefix.times()[prefix.num_points() - 1]);
                    post_sense_failures += 1;
                }
                (reference, access_time) => {
                    panic!("paths disagree at {deltas:?}: {reference:?} vs {access_time:?}")
                }
            }
        }
        assert!(censored >= 1);
        (censored, post_sense_failures)
    }

    #[test]
    fn stopped_access_time_matches_the_full_window() {
        assert_eq!(assert_access_time_matches_run(200).1, 0);
        // The nominal read senses early, so its transient stops early.
        let tb = SramTestbench::typical_45nm();
        let mut session = tb.read_session().unwrap();
        let stopped = session.run_until_sensed(&[0.0; 6]).unwrap();
        assert!(
            stopped.num_points() <= 40,
            "nominal read ran {} points",
            stopped.num_points()
        );
        // A read that never senses runs the whole window.
        let mut censored = [0.0; 6];
        censored[CellTransistor::PassGateLeft.index()] = 0.6;
        censored[CellTransistor::PullDownLeft.index()] = 0.6;
        let full_window = session.run_until_sensed(&censored).unwrap();
        assert_eq!(full_window.times().last(), Some(&tb.timing().stop_time));
        // The dense reference session always runs the whole window.
        let mut dense = tb
            .read_session()
            .unwrap()
            .with_kernel(TransientKernel::Dense);
        let dense_nominal = dense.run_until_sensed(&[0.0; 6]).unwrap();
        assert_eq!(dense_nominal.num_points(), full_window.num_points());
        assert_eq!(
            dense.access_time(&[0.0; 6]).unwrap().to_bits(),
            session.access_time(&[0.0; 6]).unwrap().to_bits()
        );
    }

    /// The same check on 10 000 samples; run with
    /// `cargo test --release -p gis-sram -- --ignored`.
    #[test]
    #[ignore = "about 10 000 transients; run in release with --ignored"]
    fn stopped_access_time_matches_the_full_window_at_scale() {
        let (censored, post_sense_failures) = assert_access_time_matches_run(10_000);
        eprintln!("{censored} censored reads, {post_sense_failures} post-sense failures");
        assert!(censored > 1);
    }

    /// Runs the seeded cloud of [`assert_access_time_matches_run`] (and
    /// its special vectors) through the lanes of every metric, in queues of
    /// 1 to 3·[`LANES`] + 1 samples, and checks each result against the
    /// one-lane `access_time` and `run` bit for bit, errors included.
    fn assert_lanes_match_one_lane(samples: usize) {
        let tb = SramTestbench::typical_45nm();
        let mut rng = gis_stats::RngStream::from_seed(17);
        let mut cloud: Vec<Vec<f64>> = vec![
            vec![0.0; 6],
            vec![0.6, 0.6, 0.0, 0.0, 0.0, 0.0],
            vec![f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0; 5],
        ];
        cloud.extend((0..samples).map(|i| {
            let sigma = 0.3 * i as f64 / samples as f64;
            (0..6).map(|_| sigma * rng.standard_normal()).collect()
        }));
        let (mut lanes, mut single) = (tb.read_session().unwrap(), tb.read_session().unwrap());
        let (mut lanes_w, mut single_w) =
            (tb.write_session().unwrap(), tb.write_session().unwrap());
        let same = |a: String, b: String, at: &[f64]| assert_eq!(a, b, "diverged at {at:?}");
        let mut rest = cloud.as_slice();
        for len in (1..=3 * LANES + 1).cycle() {
            if rest.is_empty() {
                break;
            }
            let (queue, tail) = rest.split_at(len.min(rest.len()));
            rest = tail;
            let refs: Vec<&[f64]> = queue.iter().map(Vec::as_slice).collect();
            let bits =
                |r: &Result<f64, SramError>| format!("{:?}", r.as_ref().map(|t| t.to_bits()));
            for (d, lane) in refs.iter().zip(lanes.access_times(&refs)) {
                same(bits(&lane), bits(&single.access_time(d)), d);
            }
            let read_bits = |r: &Result<ReadResult, SramError>| {
                format!(
                    "{:?}",
                    r.as_ref().map(|r| (
                        r.access_time.to_bits(),
                        r.disturb_peak.to_bits(),
                        r.sensed
                    ))
                )
            };
            for (d, lane) in refs.iter().zip(lanes.run_batch(&refs)) {
                same(read_bits(&lane), read_bits(&single.run(d)), d);
            }
            let write_bits = |w: &Result<WriteResult, SramError>| {
                format!(
                    "{:?}",
                    w.as_ref().map(|w| (w.write_delay.to_bits(), w.flipped))
                )
            };
            for (d, lane) in refs.iter().zip(lanes_w.run_batch(&refs)) {
                same(write_bits(&lane), write_bits(&single_w.run(d)), d);
            }
        }
    }

    #[test]
    fn lanes_match_one_lane_on_a_seeded_cloud() {
        assert_lanes_match_one_lane(40);
    }

    /// The lane check on 10 000 samples; run with
    /// `cargo test --release -p gis-sram -- --ignored`.
    #[test]
    #[ignore = "about 60 000 transients; run in release with --ignored"]
    fn lanes_match_one_lane_at_scale() {
        assert_lanes_match_one_lane(10_000);
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
