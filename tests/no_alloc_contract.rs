//! Runtime half of the determinism & hot-path contract (see `gis-analyze` and
//! README "Static analysis & invariants"): a counting global allocator proves
//! that the paths *marked* `gis-analyze: no_alloc` — the sparse Newton kernel
//! and the estimator accumulators — really perform zero steady-state heap
//! allocations, and that a full transient evaluation settles to a constant
//! per-sample allocation count once its workspace is warm.
//!
//! The static analyzer rejects allocation *syntax* inside marked functions;
//! this test closes the remaining gap (allocations reached through calls into
//! other crates) by measuring the real allocator.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sram_highsigma::circuit::mna::MAX_NEWTON_ITERATIONS;
use sram_highsigma::circuit::{Circuit, MnaSystem, SimulationWorkspace, SourceWaveform};
use sram_highsigma::highsigma::IsAccumulator;
use sram_highsigma::sram::{build_6t_cell, SramCellConfig, SramTestbench};

/// A pass-through allocator over [`System`] that counts every allocation
/// request (`alloc`, `alloc_zeroed`, `realloc`). Deallocations are not
/// counted: the contract under test is "no new heap traffic", and a free
/// without a matching measured alloc cannot occur inside a measurement
/// window that starts and ends on the same thread.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The allocation counter is process-wide, so the tests in this file must not
/// run concurrently: libtest's parallel runner would attribute one test's
/// allocations to another's measurement window. Every test takes this lock
/// before doing any work.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` and returns how many allocation requests it issued.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, result)
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
    let _serial = SERIAL.lock().unwrap();
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
    let _serial = SERIAL.lock().unwrap();
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
/// constant here is parameter injection and waveform bookkeeping.)
#[test]
fn transient_sessions_have_constant_per_eval_allocations() {
    let _serial = SERIAL.lock().unwrap();
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
