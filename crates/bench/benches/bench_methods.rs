//! Criterion benchmark: wall-clock cost of each extraction method on the
//! surrogate read-access-time problem at a fixed accuracy target.
//!
//! Complements the per-table simulation counts: it shows that the framework
//! overhead (proposal evaluation, weight bookkeeping) is negligible relative to
//! the simulator calls themselves.

// Benchmark harness: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use gis_bench::{problem_with_relative_spec, surrogate_read_model, MASTER_SEED};
use gis_core::{
    Estimator, GisConfig, GradientImportanceSampling, ImportanceSamplingConfig, MinimumNormIs,
    MnisConfig, MonteCarlo, MonteCarloConfig, ScaledSigmaSampling, SphericalSampling,
    SphericalSamplingConfig, SssConfig,
};
use gis_stats::RngStream;

fn sampling_config() -> ImportanceSamplingConfig {
    ImportanceSamplingConfig {
        max_samples: 10_000,
        batch_size: 500,
        target_relative_error: 0.1,
        min_failures: 30,
        ..ImportanceSamplingConfig::default()
    }
}

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("methods_surrogate_read");
    group.sample_size(10);

    group.bench_function("gradient_is", |b| {
        b.iter(|| {
            let model = surrogate_read_model();
            let nominal = model.nominal_metric();
            let problem = problem_with_relative_spec(model, nominal, 1.8);
            let gis = GradientImportanceSampling::new(GisConfig {
                sampling: sampling_config(),
                ..GisConfig::default()
            });
            gis.estimate(&problem, &mut RngStream::from_seed(MASTER_SEED))
        })
    });

    group.bench_function("minimum_norm_is", |b| {
        b.iter(|| {
            let model = surrogate_read_model();
            let nominal = model.nominal_metric();
            let problem = problem_with_relative_spec(model, nominal, 1.8);
            let mnis = MinimumNormIs::new(MnisConfig {
                sampling: sampling_config(),
                ..MnisConfig::default()
            });
            mnis.estimate(&problem, &mut RngStream::from_seed(MASTER_SEED))
        })
    });

    group.bench_function("spherical_sampling", |b| {
        b.iter(|| {
            let model = surrogate_read_model();
            let nominal = model.nominal_metric();
            let problem = problem_with_relative_spec(model, nominal, 1.8);
            let spherical = SphericalSampling::new(SphericalSamplingConfig {
                directions: 500,
                ..SphericalSamplingConfig::default()
            });
            spherical.estimate(&problem, &mut RngStream::from_seed(MASTER_SEED))
        })
    });

    group.bench_function("scaled_sigma_sampling", |b| {
        b.iter(|| {
            let model = surrogate_read_model();
            let nominal = model.nominal_metric();
            let problem = problem_with_relative_spec(model, nominal, 1.8);
            let sss = ScaledSigmaSampling::new(SssConfig {
                samples_per_scale: 2_000,
                ..SssConfig::default()
            });
            sss.estimate(&problem, &mut RngStream::from_seed(MASTER_SEED))
        })
    });

    group.bench_function("monte_carlo_100k_budget", |b| {
        b.iter(|| {
            let model = surrogate_read_model();
            let nominal = model.nominal_metric();
            let problem = problem_with_relative_spec(model, nominal, 1.8);
            let mc = MonteCarlo::new(MonteCarloConfig {
                max_samples: 100_000,
                batch_size: 10_000,
                target_relative_error: 0.1,
                min_failures: 10,
            });
            mc.estimate(&problem, &mut RngStream::from_seed(MASTER_SEED))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
