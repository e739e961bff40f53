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
//! * the **dense reference kernel** ([`MnaSystem::solve_newton`]) allocates a
//!   fresh [`Matrix`]/[`Vector`]/[`LuDecomposition`] per Newton iteration —
//!   simple, kept as the golden reference;
//! * the **sparse production kernel** ([`MnaSystem::solve_newton_in`])
//!   assembles into a reusable [`SimulationWorkspace`] whose symbolic LU plan
//!   is computed once per netlist topology; the steady-state Newton loop
//!   performs zero heap allocations and skips all structurally-zero
//!   arithmetic, which is floating-point exact (see [`gis_linalg::sparse`]).
//!
//! Both kernels stamp through the same generic assembly walk, so every sum is
//! accumulated in the same order and fixed-seed results are bit-identical
//! regardless of the kernel.

use crate::error::CircuitError;
use crate::netlist::{Circuit, Device, NodeId, GROUND};
use gis_linalg::sparse::{PatternBuilder, SparseLu, SymbolicLu};
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

/// Destination of an assembly walk: the dense matrix, the sparse workspace,
/// and the pattern extractor all receive the identical stamp sequence.
trait Stamper {
    fn mat_add(&mut self, i: usize, j: usize, v: f64);
    fn rhs_add(&mut self, i: usize, v: f64);
    fn rhs_set(&mut self, i: usize, v: f64);
}

/// Stamps into a dense [`Matrix`]/[`Vector`] pair (reference kernel).
struct DenseStamper<'a> {
    a: &'a mut Matrix,
    z: &'a mut Vector,
}

impl Stamper for DenseStamper<'_> {
    #[inline]
    fn mat_add(&mut self, i: usize, j: usize, v: f64) {
        self.a.add_at(i, j, v);
    }
    #[inline]
    fn rhs_add(&mut self, i: usize, v: f64) {
        self.z[i] += v;
    }
    #[inline]
    fn rhs_set(&mut self, i: usize, v: f64) {
        self.z[i] = v;
    }
}

/// Records the set of touched matrix slots (symbolic pre-pass).
struct PatternStamper<'a> {
    pattern: &'a mut PatternBuilder,
}

impl Stamper for PatternStamper<'_> {
    #[inline]
    fn mat_add(&mut self, i: usize, j: usize, _v: f64) {
        self.pattern.insert(i, j);
    }
    #[inline]
    fn rhs_add(&mut self, _i: usize, _v: f64) {}
    #[inline]
    fn rhs_set(&mut self, _i: usize, _v: f64) {}
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

/// Output of one MOSFET evaluation, consumed by the stamp replay.
///
/// Evaluating all transistors *before* stamping lets their independent
/// floating-point dependency chains overlap in the out-of-order window; the
/// stamp replay then applies the results in exact netlist order, so the
/// assembled system is bit-identical to the interleaved walk.
#[derive(Debug, Clone, Copy, Default)]
struct MosfetScratch {
    /// The 8 Jacobian stamp values in `stamp_mosfet`'s order.
    values: [f64; 8],
    /// Norton equivalent current.
    ieq: f64,
    /// Whether the symmetric-conduction swap is active this iterate.
    swapped: bool,
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
/// The SRAM sessions hold one workspace each, so an executor work chunk
/// carries exactly one plan for its whole batch.
#[derive(Debug, Clone, Default)]
pub struct SimulationWorkspace {
    core: Option<WorkspaceCore>,
}

#[derive(Debug, Clone)]
struct WorkspaceCore {
    num_nodes: usize,
    dim: usize,
    signature: Vec<DeviceSignature>,
    /// The compiled assembly program (netlist walk with precomputed slots).
    program: Vec<StampOp>,
    /// Evaluation inputs of every MOSFET, in netlist order.
    mosfet_evals: Vec<MosfetEvalSpec>,
    /// Per-iteration outputs of the batched MOSFET evaluation pass.
    mosfet_scratch: Vec<MosfetScratch>,
    lu: SparseLu,
    /// Right-hand side of the linearized system.
    z: Vec<f64>,
    /// Newton iterate (the solution after a successful solve).
    x: Vec<f64>,
    /// Raw solution of one linearized system before damping.
    x_new: Vec<f64>,
}

impl SimulationWorkspace {
    /// Creates an empty workspace; it binds to a topology on first use.
    pub fn new() -> Self {
        SimulationWorkspace::default()
    }

    /// Returns `true` if the workspace's symbolic plan matches `system`'s
    /// topology (same dimension, node count, and device connectivity).
    fn matches(&self, system: &MnaSystem) -> bool {
        let Some(core) = &self.core else {
            return false;
        };
        core.dim == system.dim
            && core.num_nodes == system.num_nodes
            && core.signature.len() == system.circuit.num_devices()
            && core
                .signature
                .iter()
                .zip(system.circuit.devices())
                .all(|(sig, dev)| *sig == device_signature(dev))
    }

    /// Binds the workspace to `system`, rebuilding the symbolic plan only if
    /// the topology changed. Value-only changes (the Monte-Carlo hot path)
    /// are free.
    pub fn bind(&mut self, system: &MnaSystem) {
        if self.matches(system) {
            return;
        }
        let dim = system.dim;
        let mut builder = PatternBuilder::new(dim);
        // Symbolic pre-pass over the same assembly walk as the numeric
        // kernels. Capacitor companion stamps are included (dummy dynamic
        // state) so one plan covers both DC and transient solves; the extra
        // slots hold exact zeros during DC, which is arithmetic-exact.
        let zeros_x = vec![0.0; dim];
        let zeros_nodes = vec![0.0; system.num_nodes];
        let dynamic = DynamicState {
            previous_node_voltages: &zeros_nodes,
            dt: 1.0,
        };
        system.assemble_with(
            &zeros_x,
            0.0,
            Some(&dynamic),
            &mut PatternStamper {
                pattern: &mut builder,
            },
        );
        let symbolic = SymbolicLu::analyze(&builder.build());
        let (program, mosfet_evals) = compile_program(system);
        let mosfet_scratch = vec![MosfetScratch::default(); mosfet_evals.len()];
        self.core = Some(WorkspaceCore {
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
            mosfet_scratch,
            lu: SparseLu::new(symbolic),
            z: vec![0.0; dim],
            x: vec![0.0; dim],
            x_new: vec![0.0; dim],
        });
    }

    /// The current solution/iterate vector (length = system dimension).
    ///
    /// # Panics
    ///
    /// Panics if the workspace has never been bound.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn state(&self) -> &[f64] {
        &self.core.as_ref().expect("workspace is bound").x
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
        let n = core.x.len().min(x0.len());
        core.x[..n].copy_from_slice(&x0[..n]);
        for v in &mut core.x[n..] {
            *v = 0.0;
        }
    }

    /// The symbolic plan, if the workspace is bound (for diagnostics/tests).
    pub fn symbolic(&self) -> Option<&SymbolicLu> {
        self.core.as_ref().map(|c| c.lu.symbolic())
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

    /// Branch current through the `k`-th voltage source in the solution `x`.
    ///
    /// Returns `None` if the device at `device_index` is not a voltage source.
    pub fn voltage_source_current(&self, x: &Vector, device_index: usize) -> Option<f64> {
        let branch = self.vsrc_branch.get(device_index).copied().flatten()?;
        Some(x[(self.num_nodes - 1) + branch])
    }

    #[inline]
    fn stamp_conductance<S: Stamper>(&self, a: NodeId, b: NodeId, g: f64, stamper: &mut S) {
        let ia = self.node_index(a);
        let ib = self.node_index(b);
        if let Some(i) = ia {
            stamper.mat_add(i, i, g);
        }
        if let Some(j) = ib {
            stamper.mat_add(j, j, g);
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            stamper.mat_add(i, j, -g);
            stamper.mat_add(j, i, -g);
        }
    }

    #[inline]
    fn stamp_current<S: Stamper>(&self, from: NodeId, into: NodeId, current: f64, stamper: &mut S) {
        if let Some(i) = self.node_index(into) {
            stamper.rhs_add(i, current);
        }
        if let Some(i) = self.node_index(from) {
            stamper.rhs_add(i, -current);
        }
    }

    /// Assembles the linearized MNA system `A · x_new = z` around the iterate
    /// `x` into fresh dense storage. This is the reference path; the hot loop
    /// uses the workspace-backed sparse assembly via
    /// [`MnaSystem::solve_newton_in`].
    pub fn assemble(
        &self,
        x: &Vector,
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
    ) -> (Matrix, Vector) {
        let mut a = Matrix::zeros(self.dim, self.dim);
        let mut z = Vector::zeros(self.dim);
        self.assemble_with(
            x.as_slice(),
            time,
            dynamic,
            &mut DenseStamper {
                a: &mut a,
                z: &mut z,
            },
        );
        (a, z)
    }

    /// The single assembly walk shared by every kernel: identical stamp order
    /// (and therefore identical floating-point accumulation order) regardless
    /// of the destination.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    fn assemble_with<S: Stamper>(
        &self,
        x: &[f64],
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
        stamper: &mut S,
    ) {
        // GMIN from every non-ground node to ground.
        for n in 1..self.num_nodes {
            let i = n - 1;
            stamper.mat_add(i, i, GMIN);
        }

        for (dev_index, device) in self.circuit.devices().iter().enumerate() {
            match device {
                Device::Resistor {
                    a: na,
                    b: nb,
                    resistance,
                    ..
                } => {
                    self.stamp_conductance(*na, *nb, 1.0 / resistance, stamper);
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
                        self.stamp_conductance(*na, *nb, geq, stamper);
                        // The history term acts as a current source from b into a.
                        self.stamp_current(*nb, *na, geq * v_prev, stamper);
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
                        stamper.mat_add(i, row, 1.0);
                        stamper.mat_add(row, i, 1.0);
                    }
                    if let Some(i) = self.node_index(*negative) {
                        stamper.mat_add(i, row, -1.0);
                        stamper.mat_add(row, i, -1.0);
                    }
                    stamper.rhs_set(row, waveform.value_at(time));
                }
                Device::CurrentSource {
                    from,
                    into,
                    waveform,
                    ..
                } => {
                    self.stamp_current(*from, *into, waveform.value_at(time), stamper);
                }
                Device::Mosfet {
                    drain,
                    gate,
                    source,
                    body,
                    params,
                    ..
                } => {
                    self.stamp_mosfet(*drain, *gate, *source, *body, params, x, stamper);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn stamp_mosfet<S: Stamper>(
        &self,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        body: NodeId,
        params: &crate::mosfet::MosfetParams,
        x: &[f64],
        stamper: &mut S,
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
        let add = |s: &mut S, row: Option<usize>, col: Option<usize>, val: f64| {
            if let (Some(r), Some(c)) = (row, col) {
                s.mat_add(r, c, val);
            }
        };

        // Row eff_drain.
        add(stamper, gd, gg, op.gm);
        add(stamper, gd, gd, op.gds);
        add(stamper, gd, gb, op.gmb);
        add(stamper, gd, gs_idx, -(op.gm + op.gds + op.gmb));
        // Row eff_source (current leaves the source terminal).
        add(stamper, gs_idx, gg, -op.gm);
        add(stamper, gs_idx, gd, -op.gds);
        add(stamper, gs_idx, gb, -op.gmb);
        add(stamper, gs_idx, gs_idx, op.gm + op.gds + op.gmb);

        // Equivalent current source: flows out of eff_drain, into eff_source.
        if let Some(r) = gd {
            stamper.rhs_add(r, -ieq);
        }
        if let Some(r) = gs_idx {
            stamper.rhs_add(r, ieq);
        }
    }

    /// Runs damped Newton–Raphson from the initial guess `x0` using the dense
    /// reference kernel.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::SingularSystem`] if a linearized system cannot be solved.
    /// * [`CircuitError::NewtonDidNotConverge`] if the iteration limit is reached.
    pub fn solve_newton(
        &self,
        x0: Vector,
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
        analysis: &'static str,
        max_iterations: usize,
    ) -> Result<Vector, CircuitError> {
        self.solve_newton_counted(x0, time, dynamic, analysis, max_iterations)
            .map(|(x, _)| x)
    }

    /// Dense-kernel Newton solve that also reports the iterations spent.
    ///
    /// # Errors
    ///
    /// See [`MnaSystem::solve_newton`].
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

            let (max_delta, norm_inf) = newton_update(
                x.as_mut_slice(),
                x_new.as_slice(),
                self.num_nodes - 1,
                iteration,
                max_iterations,
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
    /// [`MnaSystem::solve_newton`].
    ///
    /// # Errors
    ///
    /// See [`MnaSystem::solve_newton`].
    /// gis-analyze: no_alloc
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn solve_newton_in(
        &self,
        workspace: &mut SimulationWorkspace,
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
        analysis: &'static str,
        max_iterations: usize,
    ) -> Result<usize, CircuitError> {
        workspace.bind(self);
        let core = workspace.core.as_mut().expect("workspace bound above");
        self.solve_newton_bound(core, time, dynamic, analysis, max_iterations)
    }

    /// Like [`MnaSystem::solve_newton_in`] but assumes the workspace is
    /// already bound to this system (used by the transient driver, which
    /// binds once per analysis instead of once per time step).
    /// gis-analyze: no_alloc
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub(crate) fn solve_newton_prebound(
        &self,
        workspace: &mut SimulationWorkspace,
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
        analysis: &'static str,
        max_iterations: usize,
    ) -> Result<usize, CircuitError> {
        debug_assert!(workspace.matches(self), "workspace not bound to system");
        let core = workspace.core.as_mut().expect("caller bound the workspace");
        self.solve_newton_bound(core, time, dynamic, analysis, max_iterations)
    }

    /// The bound sparse Newton loop: `core` must already belong to this
    /// system's topology (the transient driver binds once per analysis and
    /// then skips the per-step signature check).
    /// gis-analyze: no_alloc
    fn solve_newton_bound(
        &self,
        core: &mut WorkspaceCore,
        time: f64,
        dynamic: Option<&DynamicState<'_>>,
        analysis: &'static str,
        max_iterations: usize,
    ) -> Result<usize, CircuitError> {
        let devices = self.circuit.devices();
        let node_unknowns = self.num_nodes - 1;
        let mut last_delta = f64::INFINITY;
        for iteration in 0..max_iterations {
            core.lu.clear();
            core.z.iter_mut().for_each(|v| *v = 0.0);
            execute_program(
                &core.program,
                &core.mosfet_evals,
                &mut core.mosfet_scratch,
                devices,
                node_unknowns,
                &core.x,
                time,
                dynamic,
                &mut core.lu,
                &mut core.z,
            );
            core.lu
                .factorize()
                .map_err(|source| CircuitError::SingularSystem { time, source })?;
            core.lu
                .solve(&core.z, &mut core.x_new)
                .map_err(|source| CircuitError::SingularSystem { time, source })?;

            let (max_delta, norm_inf) = newton_update(
                &mut core.x,
                &core.x_new,
                node_unknowns,
                iteration,
                max_iterations,
            );
            last_delta = max_delta;
            if newton_converged(max_delta, norm_inf) {
                return Ok(iteration + 1);
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
    /// See [`MnaSystem::solve_newton`].
    pub fn dc_operating_point(
        &self,
        initial_node_voltages: Option<&[f64]>,
    ) -> Result<Vector, CircuitError> {
        let mut x0 = Vector::zeros(self.dim);
        if let Some(init) = initial_node_voltages {
            for node in 1..self.num_nodes.min(init.len()) {
                x0[node - 1] = init[node];
            }
        }
        self.solve_newton(x0, 0.0, None, "dc", MAX_NEWTON_ITERATIONS)
    }
}

/// The damped Newton update shared by both kernels: applies the step from
/// `x_new` onto `x` in place and returns `(max_delta, norm_inf(x))` of the
/// updated iterate. Identical arithmetic to the historical dense loop (which
/// cloned `x` per iteration and took `norm_inf` in a second pass — `max` is a
/// pure selection, so fusing the passes returns the same value).
#[inline]
/// gis-analyze: no_alloc
fn newton_update(
    x: &mut [f64],
    x_new: &[f64],
    node_unknowns: usize,
    iteration: usize,
    max_iterations: usize,
) -> (f64, f64) {
    // Damped update: limit per-iteration voltage change. If the iteration has
    // not settled after half the budget (typically a limit cycle between two
    // near-solutions in weak inversion), shrink the step progressively to
    // force convergence.
    let relaxation = if iteration * 2 > max_iterations {
        0.25
    } else {
        1.0
    };
    let mut max_delta: f64 = 0.0;
    let mut norm_inf: f64 = 0.0;
    for i in 0..x.len() {
        let mut delta = x_new[i] - x[i];
        if i < node_unknowns {
            delta = relaxation * delta.clamp(-MAX_VOLTAGE_STEP, MAX_VOLTAGE_STEP);
            max_delta = max_delta.max(delta.abs());
        }
        let updated = x[i] + delta;
        x[i] = updated;
        norm_inf = norm_inf.max(updated.abs());
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
/// against the current iterate and leaves the stamp values in `scratch`.
/// Each evaluation is the identical arithmetic `stamp_mosfet` performs
/// in-line; only the scheduling differs (all evaluations before any stamp).
#[inline]
fn evaluate_mosfets(
    evals: &[MosfetEvalSpec],
    devices: &[Device],
    x: &[f64],
    scratch: &mut [MosfetScratch],
) {
    for (spec, out) in evals.iter().zip(scratch) {
        let Device::Mosfet { params, .. } = &devices[spec.dev as usize] else {
            unreachable!("program op desynchronized from netlist");
        };
        let volt = |i: u32| if i == NONE_SLOT { 0.0 } else { x[i as usize] };
        let sign = params.polarity.sign();
        let vd = volt(spec.d);
        let vg = volt(spec.g);
        let vs = volt(spec.s);
        let vb = volt(spec.b);

        // Identical normalization as `stamp_mosfet` (see there for the sign
        // conventions).
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
        out.values = [
            op_point.gm,
            op_point.gds,
            op_point.gmb,
            -total,
            -op_point.gm,
            -op_point.gds,
            -op_point.gmb,
            total,
        ];
        out.ieq = ieq;
        out.swapped = swapped;
    }
}

/// Replays a compiled stamp program: the allocation-free, dispatch-free
/// equivalent of [`MnaSystem::assemble`] used by the sparse Newton loop.
/// Performs the identical floating-point operations in the identical order.
#[allow(clippy::too_many_arguments)]
#[inline]
/// gis-analyze: no_alloc
fn execute_program(
    program: &[StampOp],
    mosfet_evals: &[MosfetEvalSpec],
    mosfet_scratch: &mut [MosfetScratch],
    devices: &[Device],
    num_node_unknowns: usize,
    x: &[f64],
    time: f64,
    dynamic: Option<&DynamicState<'_>>,
    lu: &mut SparseLu,
    z: &mut [f64],
) {
    evaluate_mosfets(mosfet_evals, devices, x, mosfet_scratch);
    let n = z.len() as u32;
    // GMIN from every non-ground node to ground.
    for i in 0..num_node_unknowns as u32 {
        lu.add_to_slot(i * n + i, GMIN);
    }
    let stamp = |lu: &mut SparseLu, slot: u32, v: f64| {
        if slot != NONE_SLOT {
            lu.add_to_slot(slot, v);
        }
    };
    let rhs = |z: &mut [f64], row: u32, v: f64| {
        if row != NONE_SLOT {
            z[row as usize] += v;
        }
    };
    for op in program {
        match op {
            StampOp::Resistor { dev, diag, cross } => {
                let Device::Resistor { resistance, .. } = &devices[*dev as usize] else {
                    unreachable!("program op desynchronized from netlist");
                };
                let g = 1.0 / resistance;
                stamp(lu, diag[0], g);
                stamp(lu, diag[1], g);
                stamp(lu, cross[0], -g);
                stamp(lu, cross[1], -g);
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
                if let Some(state) = dynamic {
                    let Device::Capacitor { capacitance, .. } = &devices[*dev as usize] else {
                        unreachable!("program op desynchronized from netlist");
                    };
                    // Backward-Euler companion model.
                    let geq = capacitance / state.dt;
                    let v_prev = state.previous_node_voltages[*node_a as usize]
                        - state.previous_node_voltages[*node_b as usize];
                    stamp(lu, diag[0], geq);
                    stamp(lu, diag[1], geq);
                    stamp(lu, cross[0], -geq);
                    stamp(lu, cross[1], -geq);
                    let current = geq * v_prev;
                    rhs(z, *rhs_into, current);
                    rhs(z, *rhs_from, -current);
                }
                // DC: capacitor is an open circuit — nothing to stamp.
            }
            StampOp::VoltageSource {
                dev,
                row,
                plus,
                minus,
            } => {
                let Device::VoltageSource { waveform, .. } = &devices[*dev as usize] else {
                    unreachable!("program op desynchronized from netlist");
                };
                stamp(lu, plus[0], 1.0);
                stamp(lu, plus[1], 1.0);
                stamp(lu, minus[0], -1.0);
                stamp(lu, minus[1], -1.0);
                z[*row as usize] = waveform.value_at(time);
            }
            StampOp::CurrentSource {
                dev,
                rhs_into,
                rhs_from,
            } => {
                let Device::CurrentSource { waveform, .. } = &devices[*dev as usize] else {
                    unreachable!("program op desynchronized from netlist");
                };
                let current = waveform.value_at(time);
                rhs(z, *rhs_into, current);
                rhs(z, *rhs_from, -current);
            }
            StampOp::Mosfet {
                eval,
                slots_normal,
                slots_swapped,
                rhs_normal,
                rhs_swapped,
            } => {
                let result = &mosfet_scratch[*eval as usize];
                let (slots, rhs_rows) = if result.swapped {
                    (slots_swapped, rhs_swapped)
                } else {
                    (slots_normal, rhs_normal)
                };
                for (&slot_id, &v) in slots.iter().zip(&result.values) {
                    stamp(lu, slot_id, v);
                }
                rhs(z, rhs_rows[0], -result.ieq);
                rhs(z, rhs_rows[1], result.ieq);
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
        // positive terminal, so the MNA branch current is −1 mA.
        let i = sys.voltage_source_current(&x, 0).unwrap();
        assert!((i + 1e-3).abs() < 1e-6, "source current {i}");
        assert!(sys.voltage_source_current(&x, 1).is_none());
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
        let nnz = ws.symbolic().unwrap().stamp_nnz();
        assert!(nnz > 0);
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
            sym.fill_fraction() < 0.5,
            "chain circuit should be sparse, fill fraction {}",
            sym.fill_fraction()
        );
        assert!(sym.fill_nnz() >= sym.stamp_nnz());
        // And the kernels still agree on it.
        assert_kernels_agree(&ckt, None);
    }
}
