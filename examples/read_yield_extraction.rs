//! Full read-yield extraction flow on the transient 6T testbench.
//!
//! This mirrors how a memory designer would use the library:
//!
//! 1. characterize the nominal cell (read access time, write delay, disturb),
//! 2. define the timing specification from the array's sense-amp window,
//! 3. extract the per-cell failure probability with Gradient Importance
//!    Sampling against the *full transient simulator* (every sample is a
//!    backward-Euler transient of the 6T netlist),
//! 4. translate the per-cell probability into array-level yield for several
//!    array sizes.
//!
//! Run with `cargo run --release --example read_yield_extraction`.

// Example code: abort-on-error keeps the walkthrough linear.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use sram_highsigma::highsigma::{
    default_sram_variation_space, Estimator, FailureProblem, GisConfig, GradientImportanceSampling,
    ImportanceSamplingConfig, Spec, SramMetric, SramTransientModel,
};
use sram_highsigma::sram::{SramCellConfig, SramTestbench};
use sram_highsigma::stats::RngStream;
use sram_highsigma::variation::PelgromModel;

fn main() {
    // Step 1: nominal characterization.
    let testbench = SramTestbench::typical_45nm();
    let nominal_read = testbench.read(&[0.0; 6]).expect("nominal read converges");
    let nominal_write = testbench.write(&[0.0; 6]).expect("nominal write converges");
    println!("--- nominal cell characterization (transient simulation) ---");
    println!(
        "read access time : {:.1} ps (disturb peak {:.0} mV)",
        nominal_read.access_time * 1e12,
        nominal_read.disturb_peak * 1e3
    );
    println!(
        "write delay      : {:.1} ps",
        nominal_write.write_delay * 1e12
    );

    // Step 2: specification — the sense amplifier fires 2x the nominal access
    // time after wordline rise; any cell slower than that reads wrong data.
    let spec_limit = 2.0 * nominal_read.access_time;
    println!("\nread timing specification: {:.1} ps", spec_limit * 1e12);

    // Step 3: high-sigma extraction against the transient simulator.
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    let model = SramTransientModel::new(testbench, space, SramMetric::ReadAccessTime);
    let problem = FailureProblem::from_model(model, Spec::UpperLimit(spec_limit));

    let gis = GradientImportanceSampling::new(GisConfig {
        sampling: ImportanceSamplingConfig {
            max_samples: 3_000,
            batch_size: 250,
            target_relative_error: 0.15,
            min_failures: 20,
            ..ImportanceSamplingConfig::default()
        },
        ..GisConfig::default()
    });
    let mut rng = RngStream::from_seed(7);
    let outcome = gis.estimate(&problem, &mut rng);
    let p_cell = outcome.result.failure_probability;
    println!("\n--- gradient importance sampling (transient-backed) ---");
    println!("per-cell failure probability : {:.3e}", p_cell);
    println!(
        "equivalent sigma             : {:.2}",
        outcome.result.sigma_level
    );
    println!(
        "transient simulations used   : {}",
        outcome.result.evaluations
    );
    let mpfp = outcome.mpfp().expect("GIS reports its MPFP search");
    println!("MPFP found at                : {:.2} sigma", mpfp.beta);
    if let Some(shift) = outcome.shift() {
        println!("dominant variation direction (whitened shift vector):");
        let names = ["PGL", "PDL", "PUL", "PGR", "PDR", "PUR"];
        for (name, value) in names.iter().zip(shift.iter()) {
            println!("  {name:<4} {value:+.2} sigma");
        }
    }

    // Step 4: array-level yield.
    println!("\n--- array-level read yield ---");
    println!(
        "{:<12} {:>14} {:>12}",
        "array size", "P(any fail)", "yield [%]"
    );
    for &bits in &[64 * 1024u64, 1024 * 1024, 8 * 1024 * 1024, 64 * 1024 * 1024] {
        let p_any = 1.0 - (1.0 - p_cell).powf(bits as f64);
        println!(
            "{:<12} {:>14.3e} {:>12.4}",
            format_bits(bits),
            p_any,
            (1.0 - p_any) * 100.0
        );
    }
}

fn format_bits(bits: u64) -> String {
    if bits >= 1024 * 1024 {
        format!("{} Mb", bits / (1024 * 1024))
    } else {
        format!("{} kb", bits / 1024)
    }
}
