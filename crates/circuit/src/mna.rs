//! Modified nodal analysis (MNA): system assembly and Newton–Raphson solution.
//!
//! Unknown ordering: the voltages of all non-ground nodes come first
//! (node `k` maps to index `k − 1`), followed by one branch current per
//! independent voltage source. Nonlinear devices (MOSFETs) are stamped as their
//! Norton linearization around the current iterate; capacitors are stamped as
//! backward-Euler companion models during transient analysis and are open
//! circuits during DC analysis.
//!
//! # Two kernels, one arithmetic
//!
//! The solver exists in two bit-identical flavours:
//!
//! * the **dense reference kernel** ([`MnaSystem::solve_newton_counted`],
//!   behind [`MnaSystem::dc_operating_point`] and
//!   [`crate::transient::transient_analysis_dense`]) allocates a fresh
//!   [`Matrix`]/[`Vector`]/[`LuDecomposition`] per Newton iteration and
//!   stamps them by walking the netlist ([`MnaSystem::assemble`]) — simple,
//!   kept as the golden reference;
//! * the **sparse production kernel** ([`MnaSystem::solve_newton_in`]) runs
//!   every transient and every DC sweep ([`crate::sweep::dc_sweep`]). It
//!   compiles the netlist once per topology into a stamp program whose
//!   slots also give the pattern of its symbolic LU plan, and replays that
//!   program into a reusable [`SimulationWorkspace`]; the steady-state
//!   Newton loop performs zero heap allocations and skips all
//!   structurally-zero arithmetic, which is floating-point exact (see
//!   [`gis_linalg::sparse`]).
//!
//! The program replays the walk's stamps in the walk's order, so every sum
//! is accumulated in the same order and fixed-seed results are bit-identical
//! regardless of the kernel.
//!
//! # Sample lanes
//!
//! The sparse kernel's Newton iteration runs on `L` samples of one topology
//! at once, lane-major: every value slot holds one value per lane, the
//! stamp program and the recorded elimination program are replayed once for
//! all lanes ([`gis_linalg::sparse::LaneLu`]), and each lane performs
//! exactly the operations of a one-lane iteration, so its bits do not
//! depend on its neighbours. [`MnaSystem::solve_newton_in`] is the one-lane
//! instance; [`crate::transient::transient_lanes`] drives
//! [`crate::transient::LANES`] lanes.

use crate::error::CircuitError;
use crate::netlist::{Circuit, Device, NodeId, GROUND};
use crate::transient::TransientResult;
use gis_linalg::sparse::{LaneLu, PatternBuilder, SparseLu, SymbolicLu};
use gis_linalg::LinalgError;
use gis_linalg::{LuDecomposition, Matrix, Vector};

/// Minimum conductance tied from every non-ground node to ground. Prevents
/// singular systems from floating nodes (e.g. the internal node of a stack of
/// off transistors) at the cost of a negligible leakage path.
pub const GMIN: f64 = 1e-12;

/// Absolute voltage convergence tolerance for Newton iterations, in volts.
pub const VOLTAGE_TOLERANCE: f64 = 1e-6;

/// Relative convergence tolerance for Newton iterations.
pub const RELATIVE_TOLERANCE: f64 = 1e-4;

/// Maximum voltage change applied per Newton iteration, in volts (damping).
pub const MAX_VOLTAGE_STEP: f64 = 0.3;

/// Default Newton iteration limit.
pub const MAX_NEWTON_ITERATIONS: usize = 200;

/// State carried between transient time points, enabling the capacitor
/// companion models. Borrows the previous time point's node voltages so the
/// per-step clone of the dense-era implementation is gone.
#[derive(Debug, Clone, Copy)]
pub struct DynamicState<'a> {
    /// Node voltages (full, including ground at index 0) at the previous accepted time point.
    pub previous_node_voltages: &'a [f64],
    /// Time step in seconds.
    pub dt: f64,
}

/// Sentinel slot/index for "terminal is ground / stamp absent".
const NONE_SLOT: u32 = u32::MAX;

/// One precompiled assembly action of a [`SimulationWorkspace`].
///
/// The sparse hot loop re-assembles the MNA system hundreds of times per
/// sample with the *same* topology; the workspace therefore compiles the
/// netlist walk once into a flat program with every matrix slot and unknown
/// index precomputed, leaving only the value arithmetic for the per-iteration
/// replay. The replay performs the identical floating-point operations in the
/// identical order as [`MnaSystem::assemble`]'s generic walk (asserted by the
/// kernel-equivalence golden tests).
#[derive(Debug, Clone)]
enum StampOp {
    /// Conductance `g = 1/R` from device `dev`: `+g` on the diagonal slots,
    /// `-g` on the cross slots ([`NONE_SLOT`] entries are skipped).
    Resistor {
        dev: u32,
        diag: [u32; 2],
        cross: [u32; 2],
    },
    /// Backward-Euler companion stamp (transient only): conductance
    /// `geq = C/dt` plus the history current `geq · v_prev` into the RHS.
    /// `node_a`/`node_b` index the previous-step node-voltage array;
    /// `rhs_into`/`rhs_from` are unknown rows.
    Capacitor {
        dev: u32,
        node_a: u32,
        node_b: u32,
        diag: [u32; 2],
        cross: [u32; 2],
        rhs_into: u32,
        rhs_from: u32,
    },
    /// Voltage-source branch stamps (`±1` incidence) and the RHS drive.
    VoltageSource {
        dev: u32,
        row: u32,
        plus: [u32; 2],
        minus: [u32; 2],
    },
    /// Current-source RHS stamps.
    CurrentSource {
        dev: u32,
        rhs_into: u32,
        rhs_from: u32,
    },
    /// MOSFET Norton linearization stamps. `eval` indexes the per-iteration
    /// scratch filled by the batched evaluation pass; the slot arrays hold
    /// the 8 Jacobian stamp destinations for the normal and the
    /// drain/source-swapped orientation, and `rhs_*` the equivalent-current
    /// rows (eff-drain, eff-source).
    Mosfet {
        eval: u32,
        slots_normal: [u32; 8],
        slots_swapped: [u32; 8],
        rhs_normal: [u32; 2],
        rhs_swapped: [u32; 2],
    },
}

impl StampOp {
    /// The matrix slots this op stamps ([`NONE_SLOT`] entries skipped). A
    /// MOSFET's swapped orientation touches the same eight entries as its
    /// normal one.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        let (first, second): (&[u32], &[u32]) = match self {
            StampOp::Resistor { diag, cross, .. } | StampOp::Capacitor { diag, cross, .. } => {
                (diag, cross)
            }
            StampOp::VoltageSource { plus, minus, .. } => (plus, minus),
            StampOp::CurrentSource { .. } => (&[], &[]),
            StampOp::Mosfet {
                slots_normal,
                slots_swapped,
                ..
            } => (slots_normal, slots_swapped),
        };
        first
            .iter()
            .chain(second)
            .copied()
            .filter(|&slot| slot != NONE_SLOT)
    }
}

/// One MOSFET's evaluation inputs for the batched model pass: device index
/// plus the four terminal unknown indices ([`NONE_SLOT`] = ground).
#[derive(Debug, Clone, Copy)]
struct MosfetEvalSpec {
    dev: u32,
    d: u32,
    g: u32,
    s: u32,
    b: u32,
}

/// Output of one MOSFET's evaluation on `L` lanes, consumed by the stamp
/// replay, lane-major.
///
/// Evaluating all transistors *before* stamping lets their independent
/// floating-point dependency chains overlap in the out-of-order window; the
/// stamp replay then applies the results in exact netlist order, so the
/// assembled system is bit-identical to the interleaved walk.
#[derive(Debug, Clone, Copy)]
struct MosfetScratch<const L: usize> {
    /// The 8 Jacobian stamp values in `stamp_mosfet`'s order.
    values: [[f64; L]; 8],
    /// Norton equivalent current.
    ieq: [f64; L],
    /// Whether the symmetric-conduction swap is active this iterate.
    swapped: [bool; L],
}

impl<const L: usize> Default for MosfetScratch<L> {
    fn default() -> Self {
        MosfetScratch {
            values: [[0.0; L]; 8],
            ieq: [0.0; L],
            swapped: [false; L],
        }
    }
}

/// Compact per-device topology signature used to detect whether a workspace's
/// symbolic plan is still valid for a circuit. Values (resistances, model
/// cards, waveforms) are deliberately excluded: only connectivity determines
/// the stamp pattern.
type DeviceSignature = (u8, NodeId, NodeId, NodeId, NodeId);

fn device_signature(device: &Device) -> DeviceSignature {
    match device {
        Device::Resistor { a, b, .. } => (0, *a, *b, 0, 0),
        Device::Capacitor { a, b, .. } => (1, *a, *b, 0, 0),
        Device::VoltageSource {
            positive, negative, ..
        } => (2, *positive, *negative, 0, 0),
        Device::CurrentSource { from, into, .. } => (3, *from, *into, 0, 0),
        Device::Mosfet {
            drain,
            gate,
            source,
            body,
            ..
        } => (4, *drain, *gate, *source, *body),
    }
}

/// Reusable, allocation-free state for the sparse transient kernel.
///
/// A workspace binds lazily to a netlist *topology*: the first
/// [`MnaSystem::solve_newton_in`] (or [`SimulationWorkspace::bind`]) call
/// builds the stamp pattern and the symbolic LU plan; every further solve with
/// the same connectivity — Newton iterations, time steps, and Monte-Carlo
/// samples that only change device *values* — reuses the plan and the numeric
/// buffers without touching the heap.
///
/// One plan serves any number of samples in flight: the one-lane buffers
/// behind [`SimulationWorkspace::state`] and
/// [`crate::transient_analysis_until`], and the
/// [`LANES`](crate::transient::LANES)-wide buffers of
/// [`crate::transient::transient_lanes`], allocated on first use.
///
/// The SRAM sessions hold one workspace each, so an executor work chunk
/// carries exactly one plan for its whole batch.
#[derive(Debug, Clone, Default)]
pub struct SimulationWorkspace {
    core: Option<WorkspaceCore>,
}

#[derive(Debug, Clone)]
struct WorkspaceCore {
    plan: Plan,
    /// One sample in flight: [`MnaSystem::solve_newton_in`] and the
    /// one-lane transient.
    single: Lanes<1>,
    /// [`crate::transient::LANES`] samples in flight.
    wide: Option<Lanes<{ crate::transient::LANES }>>,
}

/// What every sample of one topology shares: the compiled stamp program and
/// the sparse LU plan with its recorded elimination program.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    num_nodes: usize,
    dim: usize,
    signature: Vec<DeviceSignature>,
    /// The compiled assembly program (netlist walk with precomputed slots).
    program: Vec<StampOp>,
    /// Evaluation inputs of every MOSFET, in netlist order.
    mosfet_evals: Vec<MosfetEvalSpec>,
    /// The recorded elimination program, and the scalar factorization of a
    /// lane whose replay leaves it.
    lu: SparseLu,
    /// Right-hand side and solution of a lane finished on `lu`.
    scalar_z: Vec<f64>,
    scalar_x: Vec<f64>,
}

/// The numeric state of `L` samples in flight on one [`Plan`], lane-major:
/// each slot holds one value per lane.
#[derive(Debug, Clone)]
pub(crate) struct Lanes<const L: usize> {
    lu: LaneLu<L>,
    /// Right-hand side of each lane's linearized system.
    z: Vec<[f64; L]>,
    /// Each lane's Newton iterate (its solution after convergence).
    pub(crate) x: Vec<[f64; L]>,
    /// Raw solution of each lane's linearized system before damping.
    x_new: Vec<[f64; L]>,
    /// Node voltages (index = node id) of each lane's previous accepted time
    /// point: the history of the capacitor companion models.
    pub(crate) previous: Vec<[f64; L]>,
    /// Per-iteration outputs of the batched MOSFET evaluation pass.
    mosfet_scratch: Vec<MosfetScratch<L>>,
    /// The points each lane's sample has recorded.
    pub(crate) results: [TransientResult; L],
}

/// Where one lane stands in its Newton iteration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneClock {
    /// Time of the point being solved.
    pub(crate) time: f64,
    /// Backward-Euler step to that point, or `None` for a DC solve
    /// (capacitors open).
    pub(crate) dt: Option<f64>,
    /// Iterations already spent on this point (sets the relaxation).
    pub(crate) iteration: usize,
    /// The iteration limit of this point.
    pub(crate) max_iterations: usize,
}

/// How one lane's Newton iteration ended.
#[derive(Debug, Clone)]
pub(crate) enum NewtonStep {
    /// Not converged yet; the damped update's largest node-voltage change.
    Pending(f64),
    /// Converged: the lane's iterate is the solution.
    Converged,
    /// The linearized system is singular.
    Failed(LinalgError),
}

impl SimulationWorkspace {
    /// Creates an empty workspace; it binds to a topology on first use.
    pub fn new() -> Self {
        SimulationWorkspace::default()
    }

    /// Returns `true` if the workspace's symbolic plan matches `system`'s
    /// topology (same dimension, node count, and device connectivity).
    fn matches(&self, system: &MnaSystem) -> bool {
        self.core.as_ref().is_some_and(|core| {
            core.plan.dim == system.dim
                && core.plan.num_nodes == system.num_nodes
                && core.plan.matches(system.circuit)
        })
    }

    /// Binds the workspace to `system`, rebuilding the symbolic plan only if
    /// the topology changed. Value-only changes (the Monte-Carlo hot path)
    /// are free.
    pub fn bind(&mut self, system: &MnaSystem) {
        if self.matches(system) {
            return;
        }
        let plan = Plan::new(system);
        let single = Lanes::new(&plan);
        self.core = Some(WorkspaceCore {
            plan,
            single,
            wide: None,
        });
    }

    /// The current solution/iterate vector (length = system dimension).
    ///
    /// # Panics
    ///
    /// Panics if the workspace has never been bound.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn state(&self) -> &[f64] {
        self.core
            .as_ref()
            .expect("workspace is bound")
            .single
            .x
            .as_flattened()
    }

    /// Seeds the Newton iterate. Entries beyond `x0.len()` are zeroed, which
    /// mirrors the dense kernel's zero-padding of short initial guesses.
    ///
    /// # Panics
    ///
    /// Panics if the workspace has never been bound.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn set_state(&mut self, x0: &[f64]) {
        let core = self.core.as_mut().expect("workspace is bound");
        let x = core.single.x.as_flattened_mut();
        let n = x.len().min(x0.len());
        x[..n].copy_from_slice(&x0[..n]);
        for v in &mut x[n..] {
            *v = 0.0;
        }
    }

    /// The symbolic plan, if the workspace is bound (for diagnostics/tests).
    pub fn symbolic(&self) -> Option<&SymbolicLu> {
        self.core.as_ref().map(|c| c.plan.lu.symbolic())
    }

    /// The plan and one-lane buffers of a bound workspace.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub(crate) fn single(&mut self) -> (&mut Plan, &mut Lanes<1>) {
        let core = self.core.as_mut().expect("caller bound the workspace");
        (&mut core.plan, &mut core.single)
    }

    /// The plan and [`crate::transient::LANES`]-wide buffers of a bound
    /// workspace, allocating the buffers on first use.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub(crate) fn wide(&mut self) -> (&mut Plan, &mut Lanes<{ crate::transient::LANES }>) {
        let core = self.core.as_mut().expect("caller bound the workspace");
        let wide = core.wide.get_or_insert_with(|| Lanes::new(&core.plan));
        (&mut core.plan, wide)
    }
}

impl Plan {
    /// Compiles `system`'s stamp program and analyzes its pattern.
    fn new(system: &MnaSystem) -> Self {
        let dim = system.dim;
        let (program, mosfet_evals) = compile_program(system);
        // The LU pattern is what the program can stamp: the GMIN diagonal
        // and every slot of every op. Capacitor companion slots are included
        // so one plan covers both DC and transient solves; they hold exact
        // zeros during DC, which is arithmetic-exact.
        let mut builder = PatternBuilder::new(dim);
        for i in 0..system.num_nodes - 1 {
            builder.insert(i, i);
        }
        for slot in program.iter().flat_map(StampOp::slots) {
            builder.insert(slot as usize / dim, slot as usize % dim);
        }
        let symbolic = SymbolicLu::analyze(&builder.build());
        Plan {
            num_nodes: system.num_nodes,
            dim,
            signature: system
                .circuit
                .devices()
                .iter()
                .map(device_signature)
                .collect(),
            program,
            mosfet_evals,
            lu: SparseLu::new(symbolic),
            scalar_z: vec![0.0; dim],
            scalar_x: vec![0.0; dim],
        }
    }

    /// Whether `circuit` has this plan's device connectivity, so its values
    /// can be stamped through the compiled program.
    pub(crate) fn matches(&self, circuit: &Circuit) -> bool {
        self.signature.len() == circuit.num_devices()
            && self
                .signature
                .iter()
                .zip(circuit.devices())
                .all(|(sig, dev)| *sig == device_signature(dev))
    }

    /// Number of nodes, ground included.
    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// One damped Newton iteration on every lane with a clock; a lane
    /// without one is idle and its outcome is meaningless. `devices[l]` is
    /// lane `l`'s netlist, with this plan's topology.
    ///
    /// Each lane performs exactly the arithmetic of a one-lane iteration:
    /// the batched MOSFET evaluation, the stamp replay, the factorization,
    /// the solve and the damped update. The lanes share the recorded
    /// elimination program; a lane whose pivots leave it (or go singular)
    /// is re-assembled and finished on the scalar plan, which re-records,
    /// so its bits do not depend on which program was recorded.
    /// gis-analyze: no_alloc
    pub(crate) fn newton_iteration<const L: usize>(
        &mut self,
        lanes: &mut Lanes<L>,
        devices: &[&[Device]; L],
        clocks: &[Option<LaneClock>; L],
    ) -> [NewtonStep; L] {
        self.assemble_lanes(lanes, devices, clocks);
        let factored = lanes.lu.factorize(&self.lu);
        lanes.lu.solve(&self.lu, &lanes.z, &mut lanes.x_new);
        let left: [bool; L] = std::array::from_fn(|l| clocks[l].is_some() && !factored[l]);
        let failed = left
            .contains(&true)
            .then(|| self.solve_on_plan(lanes, devices, clocks, &left));
        let relaxation =
            clocks.map(|clock| clock.map_or(1.0, |c| relaxation(c.iteration, c.max_iterations)));
        let (max_delta, norm_inf) =
            newton_update(&mut lanes.x, &lanes.x_new, self.num_nodes - 1, relaxation);
        let mut steps = std::array::from_fn(|l| {
            if newton_converged(max_delta[l], norm_inf[l]) {
                NewtonStep::Converged
            } else {
                NewtonStep::Pending(max_delta[l])
            }
        });
        for (step, error) in steps.iter_mut().zip(failed.into_iter().flatten()) {
            if let Some(error) = error {
                *step = NewtonStep::Failed(error);
            }
        }
        steps
    }

    /// The cold path of [`Plan::newton_iteration`] for the lanes marked in
    /// `left`, whose replay left the recorded program: the assembly is
    /// repeated (same inputs, same bits) and each such lane is factored and
    /// solved on the scalar plan, which re-records. Returns each lane's
    /// singular-system error.
    #[cold]
    fn solve_on_plan<const L: usize>(
        &mut self,
        lanes: &mut Lanes<L>,
        devices: &[&[Device]; L],
        clocks: &[Option<LaneClock>; L],
        left: &[bool; L],
    ) -> [Option<LinalgError>; L] {
        self.assemble_lanes(lanes, devices, clocks);
        std::array::from_fn(|l| {
            if !left[l] {
                return None;
            }
            self.lu.load_lane(&lanes.lu, l);
            for (dst, src) in self.scalar_z.iter_mut().zip(&lanes.z) {
                *dst = src[l];
            }
            let solved = self
                .lu
                .factorize()
                .and_then(|()| self.lu.solve(&self.scalar_z, &mut self.scalar_x));
            for (dst, src) in lanes.x_new.iter_mut().zip(&self.scalar_x) {
                dst[l] = *src;
            }
            solved.err()
        })
    }

    /// Clears the lanes' systems and assembles each lane's linearization
    /// around its iterate: the batched MOSFET evaluation, then the stamp
    /// replay. Idle lanes skip the evaluation.
    /// gis-analyze: no_alloc
    fn assemble_lanes<const L: usize>(
        &self,
        lanes: &mut Lanes<L>,
        devices: &[&[Device]; L],
        clocks: &[Option<LaneClock>; L],
    ) {
        lanes.lu.clear(&self.lu);
        lanes.z.fill([0.0; L]);
        let active = clocks.map(|clock| clock.is_some());
        evaluate_mosfets(
            &self.mosfet_evals,
            devices,
            &active,
            &lanes.x,
            &mut lanes.mosfet_scratch,
        );
        execute_program(
            &self.program,
            &lanes.mosfet_scratch,
            devices,
            clocks,
            &lanes.previous,
            self.num_nodes - 1,
            &mut lanes.lu,
            &mut lanes.z,
        );
    }
}

impl<const L: usize> Lanes<L> {
    fn new(plan: &Plan) -> Self {
        Lanes {
            lu: LaneLu::new(&plan.lu),
            z: vec![[0.0; L]; plan.dim],
            x: vec![[0.0; L]; plan.dim],
            x_new: vec![[0.0; L]; plan.dim],
            previous: vec![[0.0; L]; plan.num_nodes],
            mosfet_scratch: vec![MosfetScratch::default(); plan.mosfet_evals.len()],
            results: std::array::from_fn(|_| TransientResult::default()),
        }
    }

    /// Writes lane `lane`'s node voltages (index = node id, ground 0.0)
    /// into its previous-point slots.
    pub(crate) fn accept_point(&mut self, lane: usize) {
        self.previous[0][lane] = 0.0;
        for (node, slot) in self.previous.iter_mut().enumerate().skip(1) {
            slot[lane] = self.x[node - 1][lane];
        }
    }
}

/// An assembled view of a circuit ready for MNA analysis.
#[derive(Debug, Clone)]
pub struct MnaSystem<'a> {
    circuit: &'a Circuit,
    num_nodes: usize,
    vsrc_branch: Vec<Option<usize>>,
    dim: usize,
}

impl<'a> MnaSystem<'a> {
    /// Builds the unknown mapping for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if any device references a node
    /// that does not exist, or [`CircuitError::InvalidAnalysis`] if the circuit
    /// has no devices.
    pub fn new(circuit: &'a Circuit) -> Result<Self, CircuitError> {
        circuit.validate()?;
        if circuit.num_devices() == 0 {
            return Err(CircuitError::InvalidAnalysis(
                "circuit has no devices".to_string(),
            ));
        }
        let num_nodes = circuit.num_nodes();
        let mut vsrc_branch = vec![None; circuit.num_devices()];
        let mut next_branch = 0usize;
        for (i, d) in circuit.devices().iter().enumerate() {
            if matches!(d, Device::VoltageSource { .. }) {
                vsrc_branch[i] = Some(next_branch);
                next_branch += 1;
            }
        }
        let dim = (num_nodes - 1) + next_branch;
        Ok(MnaSystem {
            circuit,
            num_nodes,
            vsrc_branch,
            dim,
        })
    }

    /// Number of unknowns (non-ground node voltages plus voltage-source branch currents).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The circuit this system was built from.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Index of node `node` in the unknown vector, or `None` for ground.
    #[inline]
    fn node_index(&self, node: NodeId) -> Option<usize> {
        if node == GROUND {
            None
        } else {
            Some(node - 1)
        }
    }

    /// Voltage of `node` in the solution vector `x` (0 for ground).
    pub fn node_voltage(&self, x: &Vector, node: NodeId) -> f64 {
        self.node_voltage_in(x.as_slice(), node)
    }

    /// Voltage of `node` in the solution slice `x` (0 for ground).
    #[inline]
    pub fn node_voltage_in(&self, x: &[f64], node: NodeId) -> f64 {
        match self.node_index(node) {
            None => 0.0,
            Some(i) => x[i],
        }
    }

    /// Expands a solution vector into per-node voltages (index = node id,
    /// ground included as 0.0).
    pub fn node_voltages(&self, x: &Vector) -> Vec<f64> {
        let mut out = vec![0.0; self.num_nodes];
        self.node_voltages_into(x.as_slice(), &mut out);
        out
    }

    /// Writes per-node voltages of the solution slice `x` into `out`
    /// (index = node id, ground as 0.0), without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_nodes`.
    pub fn node_voltages_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.num_nodes, "node voltage buffer mismatch");
        for (n, slot) in out.iter_mut().enumerate() {
            *slot = self.node_voltage_in(x, n);
        }
    }

    #[inline]
    fn stamp_conductance(&self, a: NodeId, b: NodeId, g: f64, matrix: &mut Matrix) {
        let ia = self.node_index(a);
        let ib = self.node_index(b);
        if let Some(i) = ia {
            matrix.add_at(i, i, g);
        }
        if let Some(j) = ib {
            matrix.add_at(j, j, g);
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            matrix.add_at(i, j, -g);
            matrix.add_at(j, i, -g);
        }
    }

    #[inline]
    fn stamp_current(&self, from: NodeId, into: NodeId, current: f64, rhs: &mut Vector) {
        if let Some(i) = self.node_index(into) {
            rhs[i] += current;
        }
        if let Some(i) = self.node_index(from) {
            rhs[i] += -current;
        }
    }

    /// Assembles the linearized MNA system `A · x_new = z` around the iterate
    /// `x` into fresh dense storage, walking the netlist in device order.
    /// This is the dense reference; the sparse kernel
    /// ([`MnaSystem::solve_newton_in`]) replays the same stamps in the same
    /// order from a compiled program.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn assemble(
        &self,
        x: &Vector,
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
    ) -> (Matrix, Vector) {
        let mut a = Matrix::zeros(self.dim, self.dim);
        let mut z = Vector::zeros(self.dim);
        // GMIN from every non-ground node to ground.
        for n in 1..self.num_nodes {
            let i = n - 1;
            a.add_at(i, i, GMIN);
        }

        for (dev_index, device) in self.circuit.devices().iter().enumerate() {
            match device {
                Device::Resistor {
                    a: na,
                    b: nb,
                    resistance,
                    ..
                } => {
                    self.stamp_conductance(*na, *nb, 1.0 / resistance, &mut a);
                }
                Device::Capacitor {
                    a: na,
                    b: nb,
                    capacitance,
                    ..
                } => {
                    if let Some(state) = dynamic {
                        // Backward-Euler companion model.
                        let geq = capacitance / state.dt;
                        let v_prev =
                            state.previous_node_voltages[*na] - state.previous_node_voltages[*nb];
                        self.stamp_conductance(*na, *nb, geq, &mut a);
                        // The history term acts as a current source from b into a.
                        self.stamp_current(*nb, *na, geq * v_prev, &mut z);
                    }
                    // DC: capacitor is an open circuit — nothing to stamp.
                }
                Device::VoltageSource {
                    positive,
                    negative,
                    waveform,
                    ..
                } => {
                    let branch = self.vsrc_branch[dev_index]
                        .expect("voltage source has a branch index by construction");
                    let row = (self.num_nodes - 1) + branch;
                    if let Some(i) = self.node_index(*positive) {
                        a.add_at(i, row, 1.0);
                        a.add_at(row, i, 1.0);
                    }
                    if let Some(i) = self.node_index(*negative) {
                        a.add_at(i, row, -1.0);
                        a.add_at(row, i, -1.0);
                    }
                    z[row] = waveform.value_at(time);
                }
                Device::CurrentSource {
                    from,
                    into,
                    waveform,
                    ..
                } => {
                    self.stamp_current(*from, *into, waveform.value_at(time), &mut z);
                }
                Device::Mosfet {
                    drain,
                    gate,
                    source,
                    body,
                    params,
                    ..
                } => {
                    self.stamp_mosfet(
                        *drain,
                        *gate,
                        *source,
                        *body,
                        params,
                        x.as_slice(),
                        &mut a,
                        &mut z,
                    );
                }
            }
        }
        (a, z)
    }

    #[allow(clippy::too_many_arguments)]
    fn stamp_mosfet(
        &self,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        body: NodeId,
        params: &crate::mosfet::MosfetParams,
        x: &[f64],
        matrix: &mut Matrix,
        rhs: &mut Vector,
    ) {
        let sign = params.polarity.sign();
        let vd = self.node_voltage_in(x, drain);
        let vg = self.node_voltage_in(x, gate);
        let vs = self.node_voltage_in(x, source);
        let vb = self.node_voltage_in(x, body);

        // Normalize to an N-type device: for PMOS flip all voltages.
        let (nvd, nvg, nvs, nvb) = (sign * vd, sign * vg, sign * vs, sign * vb);
        // Symmetric conduction: pick the higher of the two channel terminals as
        // the effective drain.
        let swapped = nvd < nvs;
        let (evd, evs) = if swapped { (nvs, nvd) } else { (nvd, nvs) };
        let vgs = nvg - evs;
        let vds = evd - evs;
        let vbs = nvb - evs;

        let op = params.evaluate_normalized(vgs, vds, vbs);

        // Norton linearization around the iterate:
        // i_d ≈ id0 + gm·Δvgs + gds·Δvds + gmb·Δvbs
        // Equivalent current source: ieq = ±(id0 − gm·vgs − gds·vds − gmb·vbs).
        // The polarity sign appears only here: expressed in terms of *real*
        // node-voltage differences the conductance stamps of NMOS and PMOS are
        // identical, while the current injected at the effective drain flips.
        let ieq = sign * (op.id - op.gm * vgs - op.gds * vds - op.gmb * vbs);

        // Terminals in the normalized (possibly swapped) frame.
        let (eff_drain, eff_source) = if swapped {
            (source, drain)
        } else {
            (drain, source)
        };

        // In the normalized frame current `id` flows from eff_drain to eff_source
        // inside the device. For PMOS (sign = −1) the real current direction is
        // reversed, which is equivalent to stamping in the flipped frame with
        // flipped voltage differences — handled by multiplying the stamped
        // current by `sign` while conductances stay positive.
        let gd = self.node_index(eff_drain);
        let gs_idx = self.node_index(eff_source);
        let gg = self.node_index(gate);
        let gb = self.node_index(body);

        // Conductance stamps (Jacobian contributions). Row for eff_drain gets
        // +∂i/∂v_terminal, row for eff_source gets the negative.
        // i depends on vgs = vg − vs, vds = vd − vs, vbs = vb − vs
        // (all in the normalized frame; the sign flip for PMOS cancels because
        // both the current and the voltages flip).
        let mut add = |row: Option<usize>, col: Option<usize>, val: f64| {
            if let (Some(r), Some(c)) = (row, col) {
                matrix.add_at(r, c, val);
            }
        };

        // Row eff_drain.
        add(gd, gg, op.gm);
        add(gd, gd, op.gds);
        add(gd, gb, op.gmb);
        add(gd, gs_idx, -(op.gm + op.gds + op.gmb));
        // Row eff_source (current leaves the source terminal).
        add(gs_idx, gg, -op.gm);
        add(gs_idx, gd, -op.gds);
        add(gs_idx, gb, -op.gmb);
        add(gs_idx, gs_idx, op.gm + op.gds + op.gmb);

        // Equivalent current source: flows out of eff_drain, into eff_source.
        if let Some(r) = gd {
            rhs[r] += -ieq;
        }
        if let Some(r) = gs_idx {
            rhs[r] += ieq;
        }
    }

    /// Runs damped Newton–Raphson from the initial guess `x0` on the dense
    /// reference kernel, returning the solution and the iterations spent. A
    /// guess of the wrong length starts from zeros.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::SingularSystem`] if a linearized system cannot be solved.
    /// * [`CircuitError::NewtonDidNotConverge`] if the iteration limit is reached.
    pub fn solve_newton_counted(
        &self,
        x0: Vector,
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
        analysis: &'static str,
        max_iterations: usize,
    ) -> Result<(Vector, usize), CircuitError> {
        let mut x = if x0.len() == self.dim {
            x0
        } else {
            Vector::zeros(self.dim)
        };
        let mut last_delta = f64::INFINITY;
        for iteration in 0..max_iterations {
            let (a, z) = self.assemble(&x, time, dynamic);
            let lu = LuDecomposition::new(&a)
                .map_err(|source| CircuitError::SingularSystem { time, source })?;
            let x_new = lu
                .solve(&z)
                .map_err(|source| CircuitError::SingularSystem { time, source })?;

            let ([max_delta], [norm_inf]) = newton_update(
                x.as_mut_slice().as_chunks_mut::<1>().0,
                x_new.as_slice().as_chunks::<1>().0,
                self.num_nodes - 1,
                [relaxation(iteration, max_iterations)],
            );
            last_delta = max_delta;
            if newton_converged(max_delta, norm_inf) {
                return Ok((x, iteration + 1));
            }
        }
        Err(CircuitError::NewtonDidNotConverge {
            analysis,
            time,
            iterations: max_iterations,
            residual: last_delta,
        })
    }

    /// Runs damped Newton–Raphson in place on `workspace` using the sparse
    /// kernel, returning the iterations spent. The converged solution is left
    /// in [`SimulationWorkspace::state`]; the incoming state is the initial
    /// guess (warm start).
    ///
    /// The workspace binds (or re-binds) to this system's topology
    /// automatically; in the steady state — same topology, new values — the
    /// entire call is allocation-free. The arithmetic is bit-identical to
    /// [`MnaSystem::solve_newton_counted`]: each iteration is the one-lane instance
    /// of the lane kernel behind [`crate::transient::transient_lanes`].
    ///
    /// # Errors
    ///
    /// See [`MnaSystem::solve_newton_counted`].
    /// gis-analyze: no_alloc
    pub fn solve_newton_in(
        &self,
        workspace: &mut SimulationWorkspace,
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
        analysis: &'static str,
        max_iterations: usize,
    ) -> Result<usize, CircuitError> {
        workspace.bind(self);
        let (plan, lanes) = workspace.single();
        if let Some(state) = dynamic {
            for (slot, &v) in lanes.previous.iter_mut().zip(state.previous_node_voltages) {
                *slot = [v];
            }
        }
        let devices = [self.circuit.devices()];
        let mut last_delta = f64::INFINITY;
        for iteration in 0..max_iterations {
            let clock = LaneClock {
                time,
                dt: dynamic.map(|state| state.dt),
                iteration,
                max_iterations,
            };
            match plan.newton_iteration(lanes, &devices, &[Some(clock)]) {
                [NewtonStep::Converged] => return Ok(iteration + 1),
                [NewtonStep::Pending(delta)] => last_delta = delta,
                [NewtonStep::Failed(source)] => {
                    return Err(CircuitError::SingularSystem { time, source })
                }
            }
        }
        Err(CircuitError::NewtonDidNotConverge {
            analysis,
            time,
            iterations: max_iterations,
            residual: last_delta,
        })
    }

    /// Computes the DC operating point, optionally warm-started from
    /// `initial_node_voltages` (index = node id; ground entry ignored).
    ///
    /// # Errors
    ///
    /// See [`MnaSystem::solve_newton_counted`].
    pub fn dc_operating_point(
        &self,
        initial_node_voltages: Option<&[f64]>,
    ) -> Result<Vector, CircuitError> {
        self.solve_newton_counted(
            self.dc_guess(initial_node_voltages),
            0.0,
            None,
            "dc",
            MAX_NEWTON_ITERATIONS,
        )
        .map(|(x, _)| x)
    }

    /// The Newton guess of a DC solve: `initial_node_voltages` (index = node
    /// id; ground entry ignored) on the node unknowns, zeros elsewhere.
    pub(crate) fn dc_guess(&self, initial_node_voltages: Option<&[f64]>) -> Vector {
        let mut x0 = Vector::zeros(self.dim);
        if let Some(init) = initial_node_voltages {
            for node in 1..self.num_nodes.min(init.len()) {
                x0[node - 1] = init[node];
            }
        }
        x0
    }
}

/// The relaxation of a Newton iteration: if the iteration has not settled
/// after half the budget (typically a limit cycle between two
/// near-solutions in weak inversion), the step shrinks progressively to
/// force convergence.
#[inline]
fn relaxation(iteration: usize, max_iterations: usize) -> f64 {
    if iteration * 2 > max_iterations {
        0.25
    } else {
        1.0
    }
}

/// The damped Newton update shared by both kernels, on `L` lanes: applies
/// each lane's step from `x_new` onto `x` in place, limiting every
/// node-voltage change to [`MAX_VOLTAGE_STEP`] times the lane's
/// `relaxation`, and returns each lane's `(max_delta, norm_inf(x))` of the
/// updated iterate. Identical arithmetic to the historical dense loop (which
/// cloned `x` per iteration and took `norm_inf` in a second pass — `max` is a
/// pure selection, so fusing the passes returns the same value).
#[inline]
/// gis-analyze: no_alloc
fn newton_update<const L: usize>(
    x: &mut [[f64; L]],
    x_new: &[[f64; L]],
    node_unknowns: usize,
    relaxation: [f64; L],
) -> ([f64; L], [f64; L]) {
    let mut max_delta = [0.0f64; L];
    let mut norm_inf = [0.0f64; L];
    for (i, (xi, new)) in x.iter_mut().zip(x_new).enumerate() {
        for l in 0..L {
            let mut delta = new[l] - xi[l];
            if i < node_unknowns {
                delta = relaxation[l] * delta.clamp(-MAX_VOLTAGE_STEP, MAX_VOLTAGE_STEP);
                max_delta[l] = max_delta[l].max(delta.abs());
            }
            let updated = xi[l] + delta;
            xi[l] = updated;
            norm_inf[l] = norm_inf[l].max(updated.abs());
        }
    }
    (max_delta, norm_inf)
}

/// The convergence test shared by both kernels (same expression as the
/// historical dense loop).
#[inline]
fn newton_converged(max_delta: f64, norm_inf: f64) -> bool {
    max_delta < VOLTAGE_TOLERANCE + RELATIVE_TOLERANCE * norm_inf.min(1.0)
}

/// Compiles the netlist walk of `system` into a flat stamp program with every
/// matrix slot precomputed (see [`StampOp`]).
#[allow(clippy::expect_used)] // invariants stated in the expect messages
fn compile_program(system: &MnaSystem) -> (Vec<StampOp>, Vec<MosfetEvalSpec>) {
    let n = system.dim;
    let idx = |node: NodeId| -> u32 {
        match system.node_index(node) {
            None => NONE_SLOT,
            Some(i) => i as u32,
        }
    };
    let slot = |r: u32, c: u32| -> u32 {
        if r == NONE_SLOT || c == NONE_SLOT {
            NONE_SLOT
        } else {
            r * n as u32 + c
        }
    };
    // Conductance stamp destinations in the generic walk's order:
    // (ia,ia), (ib,ib) on the diagonal, then (ia,ib), (ib,ia) across.
    let conductance = |a: NodeId, b: NodeId| -> ([u32; 2], [u32; 2]) {
        let ia = idx(a);
        let ib = idx(b);
        ([slot(ia, ia), slot(ib, ib)], [slot(ia, ib), slot(ib, ia)])
    };

    let mut program = Vec::with_capacity(system.circuit.num_devices());
    let mut mosfet_evals = Vec::new();
    for (dev_index, device) in system.circuit.devices().iter().enumerate() {
        let dev = dev_index as u32;
        match device {
            Device::Resistor { a, b, .. } => {
                let (diag, cross) = conductance(*a, *b);
                program.push(StampOp::Resistor { dev, diag, cross });
            }
            Device::Capacitor { a, b, .. } => {
                let (diag, cross) = conductance(*a, *b);
                program.push(StampOp::Capacitor {
                    dev,
                    node_a: *a as u32,
                    node_b: *b as u32,
                    diag,
                    cross,
                    // stamp_current(from = b, into = a): rhs[a] += i, rhs[b] -= i.
                    rhs_into: idx(*a),
                    rhs_from: idx(*b),
                });
            }
            Device::VoltageSource {
                positive, negative, ..
            } => {
                let branch = system.vsrc_branch[dev_index]
                    .expect("voltage source has a branch index by construction");
                let row = ((system.num_nodes - 1) + branch) as u32;
                let ip = idx(*positive);
                let ineg = idx(*negative);
                program.push(StampOp::VoltageSource {
                    dev,
                    row,
                    plus: [slot(ip, row), slot(row, ip)],
                    minus: [slot(ineg, row), slot(row, ineg)],
                });
            }
            Device::CurrentSource { from, into, .. } => {
                program.push(StampOp::CurrentSource {
                    dev,
                    rhs_into: idx(*into),
                    rhs_from: idx(*from),
                });
            }
            Device::Mosfet {
                drain,
                gate,
                source,
                body,
                ..
            } => {
                let d = idx(*drain);
                let g = idx(*gate);
                let s = idx(*source);
                let b = idx(*body);
                // The 8 Jacobian stamps of `stamp_mosfet`, in its exact order,
                // for eff_drain/eff_source = (d, s) and the swapped (s, d).
                let jacobian = |gd: u32, gs: u32| -> [u32; 8] {
                    [
                        slot(gd, g),
                        slot(gd, gd),
                        slot(gd, b),
                        slot(gd, gs),
                        slot(gs, g),
                        slot(gs, gd),
                        slot(gs, b),
                        slot(gs, gs),
                    ]
                };
                program.push(StampOp::Mosfet {
                    eval: mosfet_evals.len() as u32,
                    slots_normal: jacobian(d, s),
                    slots_swapped: jacobian(s, d),
                    rhs_normal: [d, s],
                    rhs_swapped: [s, d],
                });
                mosfet_evals.push(MosfetEvalSpec { dev, d, g, s, b });
            }
        }
    }
    (program, mosfet_evals)
}

/// The batched MOSFET evaluation pass: runs every transistor's compact model
/// against each active lane's iterate and leaves the stamp values in
/// `scratch`. Each evaluation is the identical arithmetic `stamp_mosfet`
/// performs in-line; only the scheduling differs (all evaluations before any
/// stamp, and one transistor's lanes side by side).
#[inline]
/// gis-analyze: no_alloc
fn evaluate_mosfets<const L: usize>(
    evals: &[MosfetEvalSpec],
    devices: &[&[Device]; L],
    active: &[bool; L],
    x: &[[f64; L]],
    scratch: &mut [MosfetScratch<L>],
) {
    for (spec, out) in evals.iter().zip(scratch) {
        for l in 0..L {
            if !active[l] {
                continue;
            }
            let Device::Mosfet { params, .. } = &devices[l][spec.dev as usize] else {
                unreachable!("program op desynchronized from netlist");
            };
            let volt = |i: u32| {
                if i == NONE_SLOT {
                    0.0
                } else {
                    x[i as usize][l]
                }
            };
            let sign = params.polarity.sign();
            let vd = volt(spec.d);
            let vg = volt(spec.g);
            let vs = volt(spec.s);
            let vb = volt(spec.b);

            // Identical normalization as `stamp_mosfet` (see there for the
            // sign conventions).
            let (nvd, nvg, nvs, nvb) = (sign * vd, sign * vg, sign * vs, sign * vb);
            let swapped = nvd < nvs;
            let (evd, evs) = if swapped { (nvs, nvd) } else { (nvd, nvs) };
            let vgs = nvg - evs;
            let vds = evd - evs;
            let vbs = nvb - evs;
            let op_point = params.evaluate_normalized(vgs, vds, vbs);
            let ieq =
                sign * (op_point.id - op_point.gm * vgs - op_point.gds * vds - op_point.gmb * vbs);

            let total = op_point.gm + op_point.gds + op_point.gmb;
            let values = [
                op_point.gm,
                op_point.gds,
                op_point.gmb,
                -total,
                -op_point.gm,
                -op_point.gds,
                -op_point.gmb,
                total,
            ];
            for (lanes, value) in out.values.iter_mut().zip(values) {
                lanes[l] = value;
            }
            out.ieq[l] = ieq;
            out.swapped[l] = swapped;
        }
    }
}

/// Replays a compiled stamp program on `L` lanes: the allocation-free,
/// dispatch-free equivalent of [`MnaSystem::assemble`] used by the sparse
/// Newton loop. Every lane gets the identical floating-point operations in
/// the identical order as the generic walk on its own netlist, time and
/// history; a lane without a clock stamps as a DC solve at `t = 0`.
#[allow(clippy::too_many_arguments)]
#[inline]
/// gis-analyze: no_alloc
fn execute_program<const L: usize>(
    program: &[StampOp],
    mosfet_scratch: &[MosfetScratch<L>],
    devices: &[&[Device]; L],
    clocks: &[Option<LaneClock>; L],
    previous: &[[f64; L]],
    num_node_unknowns: usize,
    lu: &mut LaneLu<L>,
    z: &mut [[f64; L]],
) {
    let n = z.len() as u32;
    let time = clocks.map(|clock| clock.map_or(0.0, |c| c.time));
    // An idle lane stamps as a transient lane with an infinite step; only a
    // DC lane leaves its capacitors open.
    let dt = clocks.map(|clock| clock.map_or(f64::INFINITY, |c| c.dt.unwrap_or(f64::INFINITY)));
    let any_dc = clocks.iter().flatten().any(|clock| clock.dt.is_none());
    // GMIN from every non-ground node to ground.
    for i in 0..num_node_unknowns as u32 {
        lu.add_lanes_to_slot(i * n + i, &[GMIN; L]);
    }
    let stamp = |lu: &mut LaneLu<L>, slot: u32, values: &[f64; L]| {
        if slot != NONE_SLOT {
            lu.add_lanes_to_slot(slot, values);
        }
    };
    let stamp_lane = |lu: &mut LaneLu<L>, slot: u32, lane: usize, v: f64| {
        if slot != NONE_SLOT {
            lu.add_to_slot(slot, lane, v);
        }
    };
    let rhs = |z: &mut [[f64; L]], row: u32, lane: usize, v: f64| {
        if row != NONE_SLOT {
            z[row as usize][lane] += v;
        }
    };
    let rhs_lanes = |z: &mut [[f64; L]], row: u32, values: &[f64; L]| {
        if row != NONE_SLOT {
            let entry = &mut z[row as usize];
            for l in 0..L {
                entry[l] += values[l];
            }
        }
    };
    for op in program {
        match op {
            StampOp::Resistor { dev, diag, cross } => {
                let g: [f64; L] = std::array::from_fn(|l| {
                    let Device::Resistor { resistance, .. } = &devices[l][*dev as usize] else {
                        unreachable!("program op desynchronized from netlist");
                    };
                    1.0 / resistance
                });
                let minus_g = g.map(|v| -v);
                stamp(lu, diag[0], &g);
                stamp(lu, diag[1], &g);
                stamp(lu, cross[0], &minus_g);
                stamp(lu, cross[1], &minus_g);
            }
            StampOp::Capacitor {
                dev,
                node_a,
                node_b,
                diag,
                cross,
                rhs_into,
                rhs_from,
            } => {
                let capacitance: [f64; L] = std::array::from_fn(|l| {
                    let Device::Capacitor { capacitance, .. } = &devices[l][*dev as usize] else {
                        unreachable!("program op desynchronized from netlist");
                    };
                    *capacitance
                });
                if !any_dc {
                    // Backward-Euler companion model on every lane.
                    let geq: [f64; L] = std::array::from_fn(|l| capacitance[l] / dt[l]);
                    let (a, b) = (&previous[*node_a as usize], &previous[*node_b as usize]);
                    let current: [f64; L] = std::array::from_fn(|l| geq[l] * (a[l] - b[l]));
                    let minus_geq = geq.map(|v| -v);
                    stamp(lu, diag[0], &geq);
                    stamp(lu, diag[1], &geq);
                    stamp(lu, cross[0], &minus_geq);
                    stamp(lu, cross[1], &minus_geq);
                    rhs_lanes(z, *rhs_into, &current);
                    rhs_lanes(z, *rhs_from, &current.map(|v| -v));
                    continue;
                }
                for (l, clock) in clocks.iter().enumerate() {
                    // DC: capacitor is an open circuit — nothing to stamp.
                    let Some(dt) = clock.and_then(|c| c.dt) else {
                        continue;
                    };
                    // Backward-Euler companion model.
                    let geq = capacitance[l] / dt;
                    let v_prev = previous[*node_a as usize][l] - previous[*node_b as usize][l];
                    stamp_lane(lu, diag[0], l, geq);
                    stamp_lane(lu, diag[1], l, geq);
                    stamp_lane(lu, cross[0], l, -geq);
                    stamp_lane(lu, cross[1], l, -geq);
                    let current = geq * v_prev;
                    rhs(z, *rhs_into, l, current);
                    rhs(z, *rhs_from, l, -current);
                }
            }
            StampOp::VoltageSource {
                dev,
                row,
                plus,
                minus,
            } => {
                stamp(lu, plus[0], &[1.0; L]);
                stamp(lu, plus[1], &[1.0; L]);
                stamp(lu, minus[0], &[-1.0; L]);
                stamp(lu, minus[1], &[-1.0; L]);
                for l in 0..L {
                    let Device::VoltageSource { waveform, .. } = &devices[l][*dev as usize] else {
                        unreachable!("program op desynchronized from netlist");
                    };
                    z[*row as usize][l] = waveform.value_at(time[l]);
                }
            }
            StampOp::CurrentSource {
                dev,
                rhs_into,
                rhs_from,
            } => {
                for l in 0..L {
                    let Device::CurrentSource { waveform, .. } = &devices[l][*dev as usize] else {
                        unreachable!("program op desynchronized from netlist");
                    };
                    let current = waveform.value_at(time[l]);
                    rhs(z, *rhs_into, l, current);
                    rhs(z, *rhs_from, l, -current);
                }
            }
            StampOp::Mosfet {
                eval,
                slots_normal,
                slots_swapped,
                rhs_normal,
                rhs_swapped,
            } => {
                let result = &mosfet_scratch[*eval as usize];
                let orient = |swapped: bool| {
                    if swapped {
                        (slots_swapped, rhs_swapped)
                    } else {
                        (slots_normal, rhs_normal)
                    }
                };
                let mut seen = [false; 2];
                for (clock, &swapped) in clocks.iter().zip(&result.swapped) {
                    seen[usize::from(swapped)] |= clock.is_some();
                }
                if seen != [true; 2] {
                    // Every active lane conducts the same way: one stamp
                    // sequence for all lanes (an idle lane's values are
                    // meaningless either way).
                    let (slots, rhs_rows) = orient(seen[1]);
                    for (&slot_id, values) in slots.iter().zip(&result.values) {
                        stamp(lu, slot_id, values);
                    }
                    rhs_lanes(z, rhs_rows[0], &result.ieq.map(|v| -v));
                    rhs_lanes(z, rhs_rows[1], &result.ieq);
                } else {
                    for l in 0..L {
                        let (slots, rhs_rows) = orient(result.swapped[l]);
                        for (&slot_id, values) in slots.iter().zip(&result.values) {
                            stamp_lane(lu, slot_id, l, values[l]);
                        }
                        rhs(z, rhs_rows[0], l, -result.ieq[l]);
                        rhs(z, rhs_rows[1], l, result.ieq[l]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosfetParams;
    use crate::netlist::SourceWaveform;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_voltage_source("V1", vin, GROUND, SourceWaveform::dc(2.0));
        ckt.add_resistor("R1", vin, mid, 1e3).unwrap();
        ckt.add_resistor("R2", mid, GROUND, 1e3).unwrap();
        let sys = MnaSystem::new(&ckt).unwrap();
        assert_eq!(sys.dim(), 3);
        let x = sys.dc_operating_point(None).unwrap();
        assert!((sys.node_voltage(&x, mid) - 1.0).abs() < 1e-6);
        assert!((sys.node_voltage(&x, vin) - 2.0).abs() < 1e-9);
        // Current through the source: 2 V across 2 kΩ = 1 mA, flowing out of the
        // positive terminal, so the MNA branch current (after the node
        // unknowns) is −1 mA.
        let i = x[sys.circuit().num_nodes() - 1];
        assert!((i + 1e-3).abs() < 1e-6, "source current {i}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_current_source("I1", GROUND, out, SourceWaveform::dc(1e-3));
        ckt.add_resistor("R1", out, GROUND, 2e3).unwrap();
        let sys = MnaSystem::new(&ckt).unwrap();
        let x = sys.dc_operating_point(None).unwrap();
        assert!((sys.node_voltage(&x, out) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        // NMOS with gate at 1.0 V, drain pulled to 1.0 V through 10 kΩ.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let drain = ckt.node("d");
        ckt.add_voltage_source("VDD", vdd, GROUND, SourceWaveform::dc(1.0));
        ckt.add_voltage_source("VG", gate, GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("RD", vdd, drain, 10e3).unwrap();
        ckt.add_mosfet("M1", drain, gate, GROUND, GROUND, MosfetParams::nmos_45nm())
            .unwrap();
        let sys = MnaSystem::new(&ckt).unwrap();
        let x = sys.dc_operating_point(None).unwrap();
        let vd = sys.node_voltage(&x, drain);
        // The transistor is on, so the drain must be pulled well below VDD but
        // stay above ground.
        assert!(vd > 0.0 && vd < 0.9, "drain voltage {vd}");
        // KCL check: resistor current equals transistor current.
        let i_r = (1.0 - vd) / 10e3;
        let op = MosfetParams::nmos_45nm().evaluate_normalized(1.0, vd, 0.0);
        assert!(
            (i_r - op.id).abs() / i_r < 0.02,
            "KCL violated: {i_r} vs {}",
            op.id
        );
    }

    #[test]
    fn pmos_pull_up() {
        // PMOS source at VDD, gate at 0: device on, pulls output high through itself
        // against a resistor to ground.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.add_voltage_source("VDD", vdd, GROUND, SourceWaveform::dc(1.0));
        ckt.add_mosfet("MP", out, GROUND, vdd, vdd, MosfetParams::pmos_45nm())
            .unwrap();
        ckt.add_resistor("RL", out, GROUND, 100e3).unwrap();
        let sys = MnaSystem::new(&ckt).unwrap();
        let x = sys.dc_operating_point(None).unwrap();
        let vout = sys.node_voltage(&x, out);
        assert!(vout > 0.8, "PMOS failed to pull up: {vout}");
    }

    #[test]
    fn cmos_inverter_transfer() {
        let build = |vin: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let input = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_voltage_source("VDD", vdd, GROUND, SourceWaveform::dc(1.0));
            ckt.add_voltage_source("VIN", input, GROUND, SourceWaveform::dc(vin));
            ckt.add_mosfet("MP", out, input, vdd, vdd, MosfetParams::pmos_45nm())
                .unwrap();
            ckt.add_mosfet("MN", out, input, GROUND, GROUND, MosfetParams::nmos_45nm())
                .unwrap();
            ckt
        };
        let solve = |vin: f64, guess: f64| {
            let ckt = build(vin);
            let sys = MnaSystem::new(&ckt).unwrap();
            let init = vec![0.0, 1.0, vin, guess];
            let x = sys.dc_operating_point(Some(&init)).unwrap();
            sys.node_voltage(&x, 3)
        };
        let high = solve(0.0, 1.0);
        let low = solve(1.0, 0.0);
        assert!(high > 0.95, "inverter output should be high, got {high}");
        assert!(low < 0.05, "inverter output should be low, got {low}");
    }

    #[test]
    fn empty_circuit_rejected() {
        let ckt = Circuit::new();
        assert!(MnaSystem::new(&ckt).is_err());
    }

    #[test]
    fn dangling_node_rejected() {
        let mut ckt = Circuit::new();
        ckt.add_voltage_source("V", 3, GROUND, SourceWaveform::dc(1.0));
        assert!(MnaSystem::new(&ckt).is_err());
    }

    #[test]
    fn node_voltages_expansion() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V", a, GROUND, SourceWaveform::dc(0.7));
        ckt.add_resistor("R", a, GROUND, 1e3).unwrap();
        let sys = MnaSystem::new(&ckt).unwrap();
        let x = sys.dc_operating_point(None).unwrap();
        let v = sys.node_voltages(&x);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 0.7).abs() < 1e-9);
    }

    /// Solves the same system with both kernels and asserts bit-identity.
    fn assert_kernels_agree(ckt: &Circuit, init: Option<&[f64]>) {
        let sys = MnaSystem::new(ckt).unwrap();
        let mut x0 = Vector::zeros(sys.dim());
        if let Some(init) = init {
            for node in 1..sys.circuit().num_nodes().min(init.len()) {
                x0[node - 1] = init[node];
            }
        }
        let (dense_x, dense_iters) = sys
            .solve_newton_counted(x0.clone(), 0.0, None, "dc", MAX_NEWTON_ITERATIONS)
            .unwrap();
        let mut ws = SimulationWorkspace::new();
        ws.bind(&sys);
        ws.set_state(x0.as_slice());
        let sparse_iters = sys
            .solve_newton_in(&mut ws, 0.0, None, "dc", MAX_NEWTON_ITERATIONS)
            .unwrap();
        assert_eq!(dense_iters, sparse_iters);
        for i in 0..sys.dim() {
            assert_eq!(
                dense_x[i].to_bits(),
                ws.state()[i].to_bits(),
                "kernel divergence at unknown {i}"
            );
        }
    }

    #[test]
    fn sparse_kernel_matches_dense_on_dc_solves() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let input = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("VDD", vdd, GROUND, SourceWaveform::dc(1.0));
        ckt.add_voltage_source("VIN", input, GROUND, SourceWaveform::dc(0.45));
        ckt.add_mosfet("MP", out, input, vdd, vdd, MosfetParams::pmos_45nm())
            .unwrap();
        ckt.add_mosfet("MN", out, input, GROUND, GROUND, MosfetParams::nmos_45nm())
            .unwrap();
        assert_kernels_agree(&ckt, Some(&[0.0, 1.0, 0.45, 0.5]));

        let mut divider = Circuit::new();
        let a = divider.node("a");
        let b = divider.node("b");
        divider.add_voltage_source("V", a, GROUND, SourceWaveform::dc(1.8));
        divider.add_resistor("R1", a, b, 4.7e3).unwrap();
        divider.add_resistor("R2", b, GROUND, 10e3).unwrap();
        assert_kernels_agree(&divider, None);
    }

    #[test]
    fn workspace_rebinds_on_topology_change_only() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V", a, GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R", a, GROUND, 1e3).unwrap();
        let sys = MnaSystem::new(&ckt).unwrap();
        let mut ws = SimulationWorkspace::new();
        assert!(ws.symbolic().is_none());
        ws.bind(&sys);
        assert!(ws.symbolic().unwrap().stamp_pattern().nnz() > 0);
        // Value-only change: same plan (binding is a no-op and keeps state).
        ws.set_state(&[0.0, 0.123]);
        let mut changed = ckt.clone();
        if let Device::Resistor { resistance, .. } = &mut changed.devices_mut()[1] {
            *resistance = 2e3;
        }
        let sys2 = MnaSystem::new(&changed).unwrap();
        assert!(ws.matches(&sys2));
        ws.bind(&sys2);
        assert_eq!(ws.state()[1], 0.123);
        // Topology change: rebind.
        let mut grown = ckt.clone();
        let b = grown.node("b");
        grown.add_resistor("R2", a, b, 1e3).unwrap();
        grown.add_capacitor("C", b, GROUND, 1e-12).unwrap();
        let sys3 = MnaSystem::new(&grown).unwrap();
        assert!(!ws.matches(&sys3));
        ws.bind(&sys3);
        assert_eq!(ws.state().len(), sys3.dim());
    }

    #[test]
    fn workspace_pattern_is_genuinely_sparse() {
        // A chain of resistors produces a tridiagonal-ish pattern; the fill
        // bound must stay far below dense.
        let mut ckt = Circuit::new();
        let first = ckt.node("n0");
        ckt.add_voltage_source("V", first, GROUND, SourceWaveform::dc(1.0));
        let mut prev = first;
        for i in 1..12 {
            let next = ckt.node(&format!("n{i}"));
            ckt.add_resistor(&format!("R{i}"), prev, next, 1e3).unwrap();
            prev = next;
        }
        ckt.add_resistor("Rend", prev, GROUND, 1e3).unwrap();
        let sys = MnaSystem::new(&ckt).unwrap();
        let mut ws = SimulationWorkspace::new();
        ws.bind(&sys);
        let sym = ws.symbolic().unwrap();
        assert!(
            sym.fill_nnz() * 2 < sym.n() * sym.n(),
            "chain circuit should be sparse, fill {} of {}²",
            sym.fill_nnz(),
            sym.n()
        );
        assert!(sym.fill_nnz() >= sym.stamp_pattern().nnz());
        // And the kernels still agree on it.
        assert_kernels_agree(&ckt, None);
    }
}
