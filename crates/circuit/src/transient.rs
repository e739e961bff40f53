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
//! [`transient_analysis_until`] also takes a stop predicate and returns the
//! bit-identical prefix up to the first point the predicate accepts.
//! [`transient_lanes`] runs a queue of samples of one topology [`LANES`] at
//! a time, each lane advancing its own transient by one Newton iteration
//! per pass and taking the next sample as soon as its own ends. All of them
//! run the one sparse time loop: [`transient_analysis_until`] is its
//! one-lane instance. [`transient_analysis_dense`] is the dense reference
//! kernel kept for golden tests; all paths produce bit-identical results.

use crate::error::CircuitError;
use crate::mna::{
    DynamicState, LaneClock, Lanes, MnaSystem, NewtonStep, Plan, SimulationWorkspace,
    MAX_NEWTON_ITERATIONS,
};
use crate::netlist::{Circuit, Device, NodeId};
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
/// This is the one-lane instance of the lane time loop behind
/// [`transient_lanes`], so a sample's bits are the same on either.
///
/// # Errors
///
/// See [`transient_analysis`]. A time point after the stop is never solved,
/// so it cannot fail the analysis.
#[allow(clippy::expect_used)] // invariants stated in the expect messages
pub fn transient_analysis_until<S: FnMut(f64, &[f64]) -> bool>(
    circuit: &Circuit,
    config: &TransientConfig,
    workspace: &mut SimulationWorkspace,
    stop: S,
) -> Result<TransientResult, CircuitError> {
    let mut feed = SingleFeed {
        circuit,
        stop: Some(stop),
        result: None,
    };
    run_lanes(
        config,
        workspace,
        &mut feed,
        SimulationWorkspace::single,
        true,
    )?;
    feed.result
        .expect("the time loop finishes the sample it loads")
}

/// Samples in flight in the lane kernel of [`transient_lanes`]. Four lanes
/// measured fastest on the 6T read (README, "Sample lanes"): they overlap
/// four independent dependency chains per Newton iteration, while eight
/// lanes lose more to half-filled lanes at the end of a batch than they
/// gain in the elimination.
pub const LANES: usize = 4;

/// The samples a lane transient ([`transient_lanes`]) runs, and where their
/// results go.
///
/// [`transient_lanes`] asks for a sample whenever a lane is free, so samples start
/// in [`TransientFeed::load`] order and finish in whatever order their
/// transients end; the feed keeps track of which sample is in which lane.
pub trait TransientFeed {
    /// The stop test of one sample, as in [`transient_analysis_until`].
    type Stop: FnMut(f64, &[f64]) -> bool;

    /// The netlist simulated in `lane`. Every lane's netlist has the
    /// topology of lane 0's; only device values may differ.
    fn circuit(&self, lane: usize) -> &Circuit;

    /// Loads the next sample into `lane`'s netlist and returns its stop
    /// test, or `None` once no sample is left.
    fn load(&mut self, lane: usize) -> Option<Self::Stop>;

    /// Receives the outcome of the sample in `lane`: its transient up to
    /// the stop, or the error that ended it. The time loop reuses the result's
    /// buffers for the lane's next sample unless the feed takes them (with
    /// [`std::mem::take`]).
    fn finish(&mut self, lane: usize, result: Result<&mut TransientResult, CircuitError>);
}

/// Runs every sample of `feed` through a sparse transient, [`LANES`] at a
/// time, reusing `workspace`.
///
/// Each Newton iteration assembles, factors and solves all lanes together:
/// one stamp replay, one replay of the recorded elimination program over
/// lane-major slots ([`gis_linalg::sparse::LaneLu`]), and one damped
/// update. Each lane keeps its own time, iteration count, history, stop test
/// and result, and a lane is refilled from the feed as soon as its sample
/// stops, reaches the end of the window or fails. Every lane performs
/// exactly the arithmetic of a one-lane run, so each sample's result is
/// bit-identical to [`transient_analysis_until`] on its netlist with its
/// stop test. A lane whose pivots leave the shared elimination program
/// finishes that iteration on the scalar plan, which re-records the program
/// for all lanes.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidAnalysis`] for an inconsistent
/// configuration and the netlist errors of [`MnaSystem::new`] on lane 0's
/// netlist, before any sample is loaded. A sample's own failure goes to
/// [`TransientFeed::finish`].
pub fn transient_lanes<F: TransientFeed>(
    config: &TransientConfig,
    workspace: &mut SimulationWorkspace,
    feed: &mut F,
) -> Result<(), CircuitError> {
    run_lanes(config, workspace, feed, SimulationWorkspace::wide, false)
}

/// The feed of [`transient_analysis_until`]: one netlist, one sample.
struct SingleFeed<'a, S> {
    circuit: &'a Circuit,
    stop: Option<S>,
    result: Option<Result<TransientResult, CircuitError>>,
}

impl<S: FnMut(f64, &[f64]) -> bool> TransientFeed for SingleFeed<'_, S> {
    type Stop = S;

    fn circuit(&self, _lane: usize) -> &Circuit {
        self.circuit
    }

    fn load(&mut self, _lane: usize) -> Option<S> {
        self.stop.take()
    }

    fn finish(&mut self, _lane: usize, result: Result<&mut TransientResult, CircuitError>) {
        self.result = Some(result.map(std::mem::take));
    }
}

/// The one sparse time loop, on `L` lanes: binds `workspace` to lane 0's
/// netlist, then advances every lane by one Newton iteration at a time
/// until the feed is empty and every lane idle. `lanes_of` picks the
/// workspace's `L`-lane buffers. With `reserve_window`, each sample's
/// result reserves the whole window up front, as a result that is handed
/// over whole should; otherwise the lanes' result buffers grow as needed
/// and keep their capacity from sample to sample.
fn run_lanes<const L: usize, F: TransientFeed>(
    config: &TransientConfig,
    workspace: &mut SimulationWorkspace,
    feed: &mut F,
    lanes_of: fn(&mut SimulationWorkspace) -> (&mut Plan, &mut Lanes<L>),
    reserve_window: bool,
) -> Result<(), CircuitError> {
    config.validate()?;
    workspace.bind(&MnaSystem::new(feed.circuit(0))?);
    let (plan, lanes) = lanes_of(workspace);
    let num_nodes = plan.num_nodes();
    let mut time_loop = LaneLoop {
        config,
        num_steps: (config.stop_time / config.time_step).ceil() as usize, // gis-analyze: allow(float-cast, step count from ceil of validated positive durations)
        reserve_window,
        plan,
        lanes,
        feed,
        runs: std::array::from_fn(|_| LaneRun::default()),
        point: vec![0.0; num_nodes],
    };
    for lane in 0..L {
        time_loop.start(lane);
    }
    time_loop.run();
    Ok(())
}

/// One lane's sample: where its transient stands and what it recorded.
struct LaneRun<S> {
    /// The sample's stop test; `None` while the lane is idle.
    stop: Option<S>,
    /// The time point being solved; 0 is the DC operating point.
    step: usize,
    /// Time of that point and the step to it.
    time: f64,
    dt: f64,
    /// Newton iterations spent on that point so far.
    iteration: usize,
}

impl<S> Default for LaneRun<S> {
    fn default() -> Self {
        LaneRun {
            stop: None,
            step: 0,
            time: 0.0,
            dt: 0.0,
            iteration: 0,
        }
    }
}

/// The state of [`run_lanes`].
struct LaneLoop<'a, const L: usize, F: TransientFeed> {
    config: &'a TransientConfig,
    num_steps: usize,
    reserve_window: bool,
    plan: &'a mut Plan,
    lanes: &'a mut Lanes<L>,
    feed: &'a mut F,
    runs: [LaneRun<F::Stop>; L],
    /// One lane's node voltages at its last accepted point.
    point: Vec<f64>,
}

impl<const L: usize, F: TransientFeed> LaneLoop<'_, L, F> {
    /// Newton iterations until every lane is idle.
    /// gis-analyze: no_alloc
    fn run(&mut self) {
        loop {
            let clocks: [Option<LaneClock>; L] = std::array::from_fn(|l| self.clock(l));
            if clocks.iter().all(Option::is_none) {
                return;
            }
            let feed = &*self.feed;
            let devices: [&[Device]; L] = std::array::from_fn(|l| feed.circuit(l).devices());
            let steps = self.plan.newton_iteration(self.lanes, &devices, &clocks);
            for (lane, step) in steps.into_iter().enumerate() {
                let Some(clock) = clocks[lane] else {
                    continue;
                };
                match step {
                    NewtonStep::Converged => self.converged(lane),
                    NewtonStep::Failed(source) => self.finish(
                        lane,
                        Err(CircuitError::SingularSystem {
                            time: clock.time,
                            source,
                        }),
                    ),
                    NewtonStep::Pending(residual)
                        if clock.iteration + 1 == clock.max_iterations =>
                    {
                        let analysis = if clock.dt.is_some() {
                            "transient"
                        } else {
                            "dc"
                        };
                        self.finish(
                            lane,
                            Err(CircuitError::NewtonDidNotConverge {
                                analysis,
                                time: clock.time,
                                iterations: clock.max_iterations,
                                residual,
                            }),
                        );
                    }
                    NewtonStep::Pending(_) => self.runs[lane].iteration += 1,
                }
            }
        }
    }

    /// The clock of `lane`'s current Newton iteration, `None` when idle.
    fn clock(&self, lane: usize) -> Option<LaneClock> {
        let run = &self.runs[lane];
        run.stop.as_ref()?;
        Some(if run.step == 0 {
            LaneClock {
                time: 0.0,
                dt: None,
                iteration: run.iteration,
                max_iterations: MAX_NEWTON_ITERATIONS,
            }
        } else {
            LaneClock {
                time: run.time,
                dt: Some(run.dt),
                iteration: run.iteration,
                max_iterations: self.config.max_newton_iterations,
            }
        })
    }

    /// Loads the feed's next sample into the idle `lane`: its initial
    /// state, and its `t = 0` point unless that comes from a DC solve. A
    /// sample that stops at `t = 0` finishes at once and the next is
    /// loaded; the lane stays idle once the feed is empty.
    fn start(&mut self, lane: usize) {
        while let Some(mut stop) = self.feed.load(lane) {
            if !self.plan.matches(self.feed.circuit(lane)) {
                self.feed.finish(
                    lane,
                    Err(CircuitError::InvalidAnalysis(
                        "lane netlist differs in topology from lane 0's".to_string(),
                    )),
                );
                continue;
            }
            let run = &mut self.runs[lane];
            run.step = 0;
            run.iteration = 0;
            let reserve = if self.reserve_window {
                self.num_steps + 1
            } else {
                0
            };
            let result = &mut self.lanes.results[lane];
            result.times.clear();
            result.times.reserve(reserve);
            result.node_voltages.resize_with(self.point.len(), Vec::new);
            for values in &mut result.node_voltages {
                values.clear();
                values.reserve(reserve);
            }
            result.newton_iterations_total = 0;
            let Some(ic) = &self.config.initial_conditions else {
                // The t = 0 point is the DC operating point, solved from zero.
                for x in self.lanes.x.iter_mut() {
                    x[lane] = 0.0;
                }
                self.runs[lane].stop = Some(stop);
                return;
            };
            // Capacitors start at their initial voltages (ideal voltage
            // history), branch currents at zero.
            let num_nodes = self.point.len();
            for (unknown, x) in self.lanes.x.iter_mut().enumerate() {
                let node = unknown + 1;
                x[lane] = if node < num_nodes && node < ic.len() {
                    ic[node]
                } else {
                    0.0
                };
            }
            self.lanes.accept_point(lane);
            // Explicit initial conditions take precedence over the
            // (zero-filled) solution vector for the recorded t = 0 point.
            for (slot, &value) in self.lanes.previous.iter_mut().zip(ic) {
                slot[lane] = value;
            }
            if self.record(lane, 0.0, &mut stop) {
                self.deliver(lane, Ok(()));
            } else {
                self.runs[lane].stop = Some(stop);
                self.advance(lane);
                return;
            }
        }
    }

    /// Records `lane`'s accepted point at `t` and returns whether its
    /// sample is done: when `stop` accepts the point, or (after `t = 0`)
    /// at the end of the window.
    fn record(&mut self, lane: usize, t: f64, stop: &mut F::Stop) -> bool {
        for (value, slot) in self.point.iter_mut().zip(&self.lanes.previous) {
            *value = slot[lane];
        }
        let result = &mut self.lanes.results[lane];
        result.times.push(t);
        for (values, &v) in result.node_voltages.iter_mut().zip(&self.point) {
            values.push(v);
        }
        let run = &self.runs[lane];
        if run.step == 0 {
            return stop(t, &self.point);
        }
        t >= self.config.stop_time || stop(t, &self.point) || run.step == self.num_steps
    }

    /// Moves `lane` on to its next time point.
    fn advance(&mut self, lane: usize) {
        let run = &mut self.runs[lane];
        run.step += 1;
        run.iteration = 0;
        (run.time, run.dt) = step_time(self.config, run.step);
    }

    /// Accepts `lane`'s converged iterate as its current point: the DC
    /// operating point at `t = 0`, or the point at its clock's time.
    fn converged(&mut self, lane: usize) {
        let run = &mut self.runs[lane];
        let t = if run.step == 0 {
            0.0
        } else {
            self.lanes.results[lane].newton_iterations_total += run.iteration + 1;
            run.time
        };
        let Some(mut stop) = run.stop.take() else {
            return;
        };
        self.lanes.accept_point(lane);
        if self.record(lane, t, &mut stop) {
            self.finish(lane, Ok(()));
        } else {
            self.runs[lane].stop = Some(stop);
            self.advance(lane);
        }
    }

    /// Hands `lane`'s sample to the feed and loads the next one.
    fn finish(&mut self, lane: usize, outcome: Result<(), CircuitError>) {
        self.deliver(lane, outcome);
        self.start(lane);
    }

    /// Hands `lane`'s sample to the feed, leaving the lane idle.
    fn deliver(&mut self, lane: usize, outcome: Result<(), CircuitError>) {
        self.runs[lane].stop = None;
        let result = &mut self.lanes.results[lane];
        self.feed.finish(lane, outcome.map(|()| result));
    }
}

/// Time of point `step` of the window and the backward-Euler step to it:
/// `step · time_step`, except that a point past the stop time is clamped
/// to it and integrates only the rest of the window.
fn step_time(config: &TransientConfig, step: usize) -> (f64, f64) {
    let t = step as f64 * config.time_step;
    if t > config.stop_time {
        let t_prev = (step - 1) as f64 * config.time_step;
        (config.stop_time, config.stop_time - t_prev)
    } else {
        (t, config.time_step)
    }
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
        let (t, dt) = step_time(config, step);
        let dynamic = DynamicState {
            previous_node_voltages: &previous,
            dt,
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
    use crate::waveform::CrossingDirection;
    use crate::Device;

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
        let rise = win
            .crossing_time(0.5, CrossingDirection::Either, 0.1e-9)
            .unwrap();
        let fall = wout
            .crossing_time(0.5, CrossingDirection::Either, rise)
            .unwrap();
        let delay = fall - rise;
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
    fn clamped_last_step_integrates_only_the_rest_of_the_window() {
        // RC charging toward 1 V over a window of 10.3 steps. Backward Euler
        // gives v' = (v + a) / (1 + a) with a = dt / RC per step, where the
        // clamped last step's dt is the 0.3 step left of the window (GMIN
        // moves the simulated values by about 1e-10; a full last step would
        // move the last one by about 0.03).
        let (r, c) = (1e3, 1e-9);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("V1", vin, GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, GROUND, c).unwrap();
        let (stop, step) = (1.03e-6, 0.1e-6);
        let cfg = TransientConfig::new(stop, step).with_initial_conditions(vec![0.0, 1.0, 0.0]);
        let mut expected = vec![0.0];
        for k in 1..=11 {
            let t_prev = (k - 1) as f64 * step;
            let dt = (k as f64 * step).min(stop) - t_prev;
            let a = dt / (r * c);
            let v = expected[k - 1];
            expected.push((v + a) / (1.0 + a));
        }
        for result in [
            transient_analysis(&ckt, &cfg).unwrap(),
            transient_analysis_dense(&ckt, &cfg).unwrap(),
        ] {
            assert_eq!(result.times().len(), 12);
            assert_eq!(result.times()[11], stop);
            let got = result.node_voltage_samples(out).unwrap();
            for (k, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert!((g - e).abs() < 1e-8, "point {k}: {g} vs {e}");
            }
        }
    }

    /// A feed of RC netlists whose series resistance differs per sample:
    /// 0.1 Ω pivots the input column on its node row, 1 kΩ on the source's
    /// branch row, so lanes holding both leave each other's recorded program.
    struct ResistorFeed {
        circuits: Vec<Circuit>,
        resistances: Vec<f64>,
        next: usize,
        in_lane: Vec<usize>,
        results: Vec<Option<Result<TransientResult, CircuitError>>>,
    }

    impl TransientFeed for ResistorFeed {
        type Stop = fn(f64, &[f64]) -> bool;

        fn circuit(&self, lane: usize) -> &Circuit {
            &self.circuits[lane]
        }

        fn load(&mut self, lane: usize) -> Option<Self::Stop> {
            let r = *self.resistances.get(self.next)?;
            if let Device::Resistor { resistance, .. } = &mut self.circuits[lane].devices_mut()[1] {
                *resistance = r;
            }
            self.in_lane[lane] = self.next;
            self.next += 1;
            Some(|_, _| false)
        }

        fn finish(&mut self, lane: usize, result: Result<&mut TransientResult, CircuitError>) {
            self.results[self.in_lane[lane]] = Some(result.map(|r| r.clone()));
        }
    }

    fn rc(r: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("V1", vin, GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, GROUND, 1e-9).unwrap();
        ckt
    }

    #[test]
    fn lanes_match_one_lane_runs_through_pivot_deviations() {
        let resistances: Vec<f64> = (0..2 * LANES + 3)
            .map(|i| {
                if i % 3 == 1 {
                    0.1
                } else {
                    1e3 * (1.0 + i as f64)
                }
            })
            .collect();
        let cfg = TransientConfig::new(2e-6, 2e-8).with_initial_conditions(vec![0.0, 1.0, 0.0]);
        let mut feed = ResistorFeed {
            circuits: vec![rc(1e3); LANES],
            resistances: resistances.clone(),
            next: 0,
            in_lane: vec![0; LANES],
            results: vec![None; resistances.len()],
        };
        let mut ws = SimulationWorkspace::new();
        transient_lanes(&cfg, &mut ws, &mut feed).unwrap();
        for (r, lane) in resistances.iter().zip(feed.results) {
            let single = transient_analysis(&rc(*r), &cfg).unwrap();
            assert_eq!(lane.unwrap().unwrap(), single, "R = {r}");
        }
    }

    #[test]
    fn lanes_solve_the_dc_point_without_initial_conditions() {
        let resistances = vec![1e3, 0.1, 4.7e3];
        let cfg = TransientConfig::new(1e-6, 5e-8);
        let mut feed = ResistorFeed {
            circuits: vec![rc(1e3); LANES],
            resistances: resistances.clone(),
            next: 0,
            in_lane: vec![0; LANES],
            results: vec![None; resistances.len()],
        };
        transient_lanes(&cfg, &mut SimulationWorkspace::new(), &mut feed).unwrap();
        for (r, lane) in resistances.iter().zip(feed.results) {
            let single = transient_analysis(&rc(*r), &cfg).unwrap();
            assert_eq!(lane.unwrap().unwrap(), single, "R = {r}");
            assert_eq!(single, transient_analysis_dense(&rc(*r), &cfg).unwrap());
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
