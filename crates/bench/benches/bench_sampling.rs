//! Criterion benchmark: throughput of the statistical primitives.
//!
//! Sampling and density evaluation dominate the framework overhead of every
//! estimator; these micro-benchmarks track them.

// Benchmark harness: abort-on-error is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use gis_linalg::Vector;
use gis_stats::{latin_hypercube, normal, MultivariateNormal, RngStream};
use std::hint::black_box;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling_primitives");

    group.bench_function("standard_normal_vector_6d", |b| {
        let mut rng = RngStream::from_seed(1);
        b.iter(|| rng.standard_normal_vector(black_box(6)))
    });

    group.bench_function("mvn_sample_and_logpdf_6d", |b| {
        let mut rng = RngStream::from_seed(2);
        let shift = Vector::filled(6, 3.0);
        let dist = MultivariateNormal::shifted_standard(shift);
        b.iter(|| {
            let x = dist.sample(&mut rng);
            dist.log_pdf(black_box(&x)).expect("dimension matches")
        })
    });

    group.bench_function("mvn_sample_and_logpdf_576d", |b| {
        let mut rng = RngStream::from_seed(3);
        let shift = Vector::filled(576, 4.0 / 24.0);
        let dist = MultivariateNormal::shifted_standard(shift);
        b.iter(|| {
            let x = dist.sample(&mut rng);
            dist.log_pdf(black_box(&x)).expect("dimension matches")
        })
    });

    group.bench_function("latin_hypercube_1000x6", |b| {
        let mut rng = RngStream::from_seed(4);
        b.iter(|| latin_hypercube(&mut rng, black_box(1000), black_box(6)))
    });

    group.bench_function("normal_quantile", |b| {
        b.iter(|| normal::quantile(black_box(1e-7)))
    });

    group.bench_function("normal_upper_tail", |b| {
        b.iter(|| normal::upper_tail_probability(black_box(5.5)))
    });

    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
