//! Runtime half of the determinism & hot-path contract (see `gis-analyze` and
//! README "Static analysis & invariants"): a counting global allocator proves
//! that the paths *marked* `gis-analyze: no_alloc` — the sparse Newton kernel
//! and the estimator accumulators — really perform zero steady-state heap
//! allocations, that a full transient evaluation settles to a constant
//! per-sample allocation count once its workspace is warm, that a warm lane
//! batch allocates nothing per sample, and that an
//! importance-sampling proposal needs memory linear in its dimension, and
//! that the estimators' sampling phases draw into reused batch buffers.
//!
//! The static analyzer rejects allocation *syntax* inside marked functions;
//! this test closes the remaining gap (allocations reached through calls into
//! other crates) by measuring the real allocator.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sram_highsigma::circuit::mna::MAX_NEWTON_ITERATIONS;
use sram_highsigma::circuit::transient::LANES;
use sram_highsigma::circuit::{Circuit, MnaSystem, SimulationWorkspace, SourceWaveform};
use sram_highsigma::highsigma::{
    ConvergencePolicy, Estimator, ExecutionConfig, FailureProblem, FnModel,
    GradientImportanceSampling, IsAccumulator, MonteCarlo, Proposal, ScaledSigmaSampling, Spec,
};
use sram_highsigma::linalg::Vector;
use sram_highsigma::sram::{build_6t_cell, SramCellConfig, SramTestbench};
use sram_highsigma::stats::RngStream;

/// A pass-through allocator over [`System`] that counts every allocation
/// request (`alloc`, `alloc_zeroed`, `realloc`) of a thread, and the bytes
/// each one asks for, inside a [`measured`] window. Deallocations are not
/// counted: the contract under test is "no new heap traffic", and a free
/// without a matching measured alloc cannot occur inside a measurement
/// window that starts and ends on the same thread.
struct CountingAllocator;

thread_local! {
    /// Whether this thread is inside an [`allocations_during`] window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocation requests this thread issued while armed. Counting per
    /// thread keeps the test harness's own threads (spawning tests,
    /// capturing output) out of every measurement.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those requests asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// The largest single request among them.
    static LARGEST: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation request of `bytes` if the current thread is armed.
/// The thread-locals are const-initialised without a destructor, so
/// touching them never allocates and never fails, even during thread
/// teardown.
fn count_allocation(bytes: usize) {
    if ARMED.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
        LARGEST.set(LARGEST.get().max(bytes as u64));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Every test takes this lock, so the measurements never overlap in time.
/// Exactness comes from the per-thread counters, not from the lock, so a
/// test that panics while holding it must not fail the others as well.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The allocation requests a [`measured`] window issued on its thread.
#[derive(Debug, Clone, Copy)]
struct Allocations {
    requests: u64,
    bytes: u64,
    largest: u64,
}

/// Runs `f` and returns the allocation requests it issued on this thread.
fn measured<R>(f: impl FnOnce() -> R) -> (Allocations, R) {
    ALLOCATIONS.set(0);
    BYTES.set(0);
    LARGEST.set(0);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    let allocations = Allocations {
        requests: ALLOCATIONS.get(),
        bytes: BYTES.get(),
        largest: LARGEST.get(),
    };
    (allocations, result)
}

/// Runs `f` and returns how many allocation requests it issued on this
/// thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (allocations, result) = measured(f);
    (allocations.requests, result)
}

/// Builds the read-condition 6T netlist from `SramTestbench::read_session`
/// (supply + asserted wordline + precharged-bitline capacitors) for driving
/// the sparse Newton kernel directly.
fn read_condition_circuit(cfg: &SramCellConfig, vth_deltas: &[f64; 6]) -> Circuit {
    let mut ckt = Circuit::new();
    let nodes = build_6t_cell(&mut ckt, cfg, vth_deltas).unwrap();
    ckt.add_voltage_source(
        "V_VDD",
        nodes.vdd,
        Circuit::ground(),
        SourceWaveform::dc(cfg.vdd),
    );
    // Wordline asserted: the access transistors conduct, so the bitline nodes
    // have a resistive path and the DC system is well-posed.
    ckt.add_voltage_source(
        "V_WL",
        nodes.wordline,
        Circuit::ground(),
        SourceWaveform::dc(cfg.vdd),
    );
    ckt.add_capacitor(
        "C_BL",
        nodes.bitline,
        Circuit::ground(),
        cfg.bitline_capacitance,
    )
    .unwrap();
    ckt.add_capacitor(
        "C_BLB",
        nodes.bitline_bar,
        Circuit::ground(),
        cfg.bitline_capacitance,
    )
    .unwrap();
    ckt
}

/// The PR 5 claim, enforced: once a [`SimulationWorkspace`] is bound to a
/// topology, repeated `solve_newton_in` calls perform **zero** heap
/// allocations — the whole symbolic plan and every numeric buffer are reused.
#[test]
fn sparse_newton_steady_state_is_allocation_free() {
    let _serial = serial();
    let cfg = SramCellConfig::typical_45nm();
    let ckt = read_condition_circuit(&cfg, &[0.0; 6]);
    let system = MnaSystem::new(&ckt).unwrap();
    let mut ws = SimulationWorkspace::new();

    // Warm-up: the first call binds the workspace (symbolic factorization,
    // numeric buffers) and is allowed to allocate.
    system
        .solve_newton_in(&mut ws, 0.0, None, "dc", MAX_NEWTON_ITERATIONS)
        .unwrap();

    for round in 0..5 {
        let (allocs, iterations) = allocations_during(|| {
            system
                .solve_newton_in(&mut ws, 0.0, None, "dc", MAX_NEWTON_ITERATIONS)
                .unwrap()
        });
        assert!(iterations <= MAX_NEWTON_ITERATIONS);
        assert_eq!(
            allocs, 0,
            "steady-state sparse Newton solve allocated on round {round}"
        );
    }
}

/// The estimator-reduce hot path (`IsAccumulator::push`/`merge`, both marked
/// `no_alloc`) must not touch the heap: it runs once per Monte Carlo sample.
#[test]
fn is_accumulator_push_and_merge_do_not_allocate() {
    let _serial = serial();
    let mut lane_a = IsAccumulator::new();
    let mut lane_b = IsAccumulator::new();

    let (allocs, ()) = allocations_during(|| {
        lane_a.push(0.25, true);
        lane_a.push(0.0, false);
        lane_a.push(1.5e-3, true);
        lane_b.push(0.75, true);
        lane_a.merge(&lane_b);
    });

    assert_eq!(allocs, 0, "IsAccumulator push/merge allocated");
    assert_eq!(lane_a.samples(), 4);
    assert_eq!(lane_a.failures(), 3);
}

/// A full transient evaluation through a warm session must settle to a
/// *constant* per-sample allocation count: whatever a run allocates is result
/// storage with a fixed shape, not traffic that grows or varies with reuse.
/// (The Newton/LU inner loops contribute zero — the test above — so any
/// constant here is parameter injection and waveform bookkeeping.) The read
/// session's early-stopping `access_time` path is held to the same contract
/// and may allocate no more than a full-window `run`.
#[test]
fn transient_sessions_have_constant_per_eval_allocations() {
    let _serial = serial();
    let tb = SramTestbench::typical_45nm();
    let deltas = [0.01, -0.02, 0.005, -0.01, 0.015, 0.0];

    let mut read = tb.read_session().unwrap();
    read.run(&deltas).unwrap(); // warm-up: binds the workspace
    let (read_allocs_1, r1) = allocations_during(|| read.run(&deltas).unwrap());
    let (read_allocs_2, r2) = allocations_during(|| read.run(&deltas).unwrap());
    assert_eq!(r1, r2, "warm read session must stay bit-identical");
    assert_eq!(
        read_allocs_1, read_allocs_2,
        "per-eval allocation count of a warm read session must be constant"
    );

    // The early-stopping access-time path stores a shorter prefix of the
    // same result shape, so it allocates no more than a full run.
    read.access_time(&deltas).unwrap(); // warm-up on the stopping path
    let (access_allocs_1, a1) = allocations_during(|| read.access_time(&deltas).unwrap());
    let (access_allocs_2, a2) = allocations_during(|| read.access_time(&deltas).unwrap());
    assert_eq!(
        a1.to_bits(),
        a2.to_bits(),
        "warm access-time path must stay bit-identical"
    );
    assert_eq!(a1.to_bits(), r1.access_time.to_bits());
    assert_eq!(
        access_allocs_1, access_allocs_2,
        "per-eval allocation count of the access-time path must be constant"
    );
    assert!(
        access_allocs_1 <= read_allocs_1,
        "access-time path allocated {access_allocs_1} times, a full read {read_allocs_1}"
    );

    let mut write = tb.write_session().unwrap();
    write.run(&deltas).unwrap(); // warm-up: binds the workspace
    let (write_allocs_1, w1) = allocations_during(|| write.run(&deltas).unwrap());
    let (write_allocs_2, w2) = allocations_during(|| write.run(&deltas).unwrap());
    assert_eq!(w1, w2, "warm write session must stay bit-identical");
    assert_eq!(
        write_allocs_1, write_allocs_2,
        "per-eval allocation count of a warm write session must be constant"
    );
}

/// The lane kernel's steady state: once a session's lanes are warm (their
/// netlists cloned, their result buffers grown to the batch's longest
/// transient), a batch allocates only its output vectors, whatever its
/// length. The Newton loop, the stamp and LU replays, the injection, the
/// stop test and the measurement allocate nothing per sample, on all three
/// metrics.
#[test]
fn warm_lane_batches_allocate_nothing_per_sample() {
    let _serial = serial();
    let tb = SramTestbench::typical_45nm();
    let cloud: Vec<Vec<f64>> = (0..2 * LANES + 1)
        .map(|i| {
            let s = 0.01 * i as f64;
            vec![s, -s, 0.5 * s, -0.5 * s, 0.0, s]
        })
        .collect();
    let batch: Vec<&[f64]> = cloud.iter().map(Vec::as_slice).collect();
    let double: Vec<&[f64]> = batch.iter().chain(&batch).copied().collect();
    let mut read = tb.read_session().unwrap();
    let mut write = tb.write_session().unwrap();
    for queue in [&batch, &double] {
        // Warm-up: each queue fills the lanes in its own order.
        read.access_times(queue);
        read.run_batch(queue);
        write.run_batch(queue);
    }
    let (access_short, a1) = allocations_during(|| read.access_times(&batch));
    let (access_long, a2) = allocations_during(|| read.access_times(&double));
    let (read_short, r1) = allocations_during(|| read.run_batch(&batch));
    let (read_long, r2) = allocations_during(|| read.run_batch(&double));
    let (write_short, w1) = allocations_during(|| write.run_batch(&batch));
    let (write_long, w2) = allocations_during(|| write.run_batch(&double));
    assert_eq!(
        access_short, access_long,
        "access-time lanes allocated per sample"
    );
    assert_eq!(read_short, read_long, "read lanes allocated per sample");
    assert_eq!(write_short, write_long, "write lanes allocated per sample");
    // Every slot is a real result, and a repeated sample repeats its bits.
    for (first, second) in a2[..batch.len()].iter().zip(&a2[batch.len()..]) {
        assert_eq!(
            first.as_ref().unwrap().to_bits(),
            second.as_ref().unwrap().to_bits()
        );
    }
    let a1: Vec<u64> = a1.iter().map(|t| t.as_ref().unwrap().to_bits()).collect();
    let a2: Vec<u64> = a2[..batch.len()]
        .iter()
        .map(|t| t.as_ref().unwrap().to_bits())
        .collect();
    assert_eq!(a1, a2);
    assert_eq!(r1.len() + batch.len(), r2.len());
    assert_eq!(w1.len() + batch.len(), w2.len());
}

/// Every proposal is an isotropic normal, so building one, drawing a sample
/// and weighting it needs memory linear in the dimension: a few d-vectors,
/// never a d×d covariance or factor (at 576-d one such matrix is 2.6 MB).
#[test]
fn isotropic_proposal_memory_is_linear_in_dimension() {
    let _serial = serial();
    let dim = 576;
    let shift = Vector::filled(dim, 4.0 / 24.0);
    let mut rng = RngStream::from_seed(576);

    let (allocations, weight) = measured(|| {
        let proposal = Proposal::defensive_mixture(shift, 0.1);
        let z = proposal.sample(&mut rng);
        proposal.importance_weight(&z)
    });

    assert!(weight.is_finite() && weight > 0.0);
    let bytes = allocations.bytes;
    let bound = 64 * dim as u64 * 8;
    assert!(
        bytes < bound,
        "a {dim}-d defensive mixture requested {bytes} bytes, bound {bound}"
    );
}

/// The sampling phases of scaled-sigma sampling, Monte Carlo and GIS draw
/// each batch into buffers they reuse, so their heap traffic is a few
/// requests per batch, not one or two per point, and their largest single
/// request is set by the batch size: doubling the budget leaves it unchanged.
#[test]
fn sampling_phases_reuse_their_batch_buffers() {
    let _serial = serial();
    let problem = FailureProblem::from_model(
        FnModel::new("plane", 6, |z: &Vector| z[0]),
        Spec::UpperLimit(2.5),
    );
    // Each base budget spans many batch buffers (scaled-sigma sampling's
    // holds 4 096 points, Monte Carlo's 1 000, the IS loop's 500), and keeps
    // the convergence trace, one 24-byte point per batch, smaller than the
    // batch buffer at twice the budget.
    let estimators: [(Box<dyn Estimator>, u64); 3] = [
        (Box::new(ScaledSigmaSampling::default()), 200_000),
        (Box::new(MonteCarlo::default()), 200_000),
        (Box::new(GradientImportanceSampling::default()), 50_000),
    ];
    for (mut estimator, base_budget) in estimators {
        estimator.set_execution(ExecutionConfig::serial());
        let mut largest = Vec::new();
        for budget in [base_budget, 2 * base_budget] {
            // The target error is out of reach, so every run spends its
            // whole budget.
            estimator
                .configure(&ConvergencePolicy::with_budget(budget).target_relative_error(1e-9));
            let fork = problem.fork();
            let mut rng = RngStream::from_seed(16);
            let (allocations, outcome) = measured(|| estimator.estimate(&fork, &mut rng));
            let name = estimator.name();
            assert_eq!(outcome.result.sampling_evaluations, budget, "{name}");
            let points = fork.evaluations();
            assert!(
                allocations.requests * 16 < points,
                "{name}: {} allocation requests for {points} points",
                allocations.requests
            );
            largest.push(allocations.largest);
        }
        assert_eq!(
            largest[0],
            largest[1],
            "{}: the largest request grew with the budget",
            estimator.name()
        );
    }
}
