//! Property tests of `RngStream::split` substream independence — the
//! statistical foundation of randomized work split by chunk index.
//!
//! A workload that draws chunk `c` from the substream `rng.split(c)` is
//! reproducible at any thread count; if those substreams were correlated
//! (or non-uniform), it would be silently biased. These tests pin the
//! substreams at chunk indices of the default chunk size with chi-square
//! uniformity tests and cross-stream correlation bounds, using the
//! goodness-of-fit helpers from `gis_stats` and the chi-square survival
//! function from `gis_core::special`.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sram_highsigma::highsigma::exec::DEFAULT_CHUNK_SIZE;
use sram_highsigma::highsigma::special::chi_square_survival;
use sram_highsigma::stats::{chi_square_statistic, pearson_correlation, RngStream};

/// Chi-square uniformity p-value of `samples` over equiprobable bins.
fn uniformity_p_value(samples: &[f64], bins: usize) -> f64 {
    let mut observed = vec![0u64; bins];
    for &u in samples {
        assert!((0.0..1.0).contains(&u), "uniform sample out of range: {u}");
        observed[((u * bins as f64) as usize).min(bins - 1)] += 1;
    }
    let expected = vec![samples.len() as f64 / bins as f64; bins];
    let statistic = chi_square_statistic(&observed, &expected);
    chi_square_survival(bins - 1, statistic)
}

/// Draws `n` uniforms from the substream of chunk `c`.
fn substream_uniforms(parent: &RngStream, chunk: u64, n: usize) -> Vec<f64> {
    let mut stream = parent.split(chunk);
    (0..n).map(|_| stream.uniform()).collect()
}

#[test]
fn substreams_at_map_rng_chunk_boundaries_are_uniform() {
    // The substreams of 10 default-sized chunks: chunk indices 0..10. Each must individually pass a
    // chi-square uniformity test at a comfortable significance level.
    let parent = RngStream::from_seed(20180319);
    for chunk in 0..10u64 {
        let samples = substream_uniforms(&parent, chunk, 4_000);
        let p = uniformity_p_value(&samples, 20);
        assert!(
            p > 1e-4,
            "substream for chunk {chunk} fails uniformity (p = {p:.2e})"
        );
    }
    // The *concatenation* in chunk order — what a consumer observes across
    // chunk boundaries — must also be uniform.
    let concatenated: Vec<f64> = (0..10u64)
        .flat_map(|c| substream_uniforms(&parent, c, DEFAULT_CHUNK_SIZE))
        .collect();
    let p = uniformity_p_value(&concatenated, 16);
    assert!(
        p > 1e-4,
        "concatenated chunk streams fail uniformity (p = {p:.2e})"
    );
}

#[test]
fn adjacent_and_distant_substreams_are_uncorrelated() {
    let parent = RngStream::from_seed(7);
    let n = 4_000;
    // 4/sqrt(n) ≈ 4-sigma bound on the correlation of independent samples.
    let bound = 4.0 / (n as f64).sqrt();
    let reference = substream_uniforms(&parent, 0, n);
    for other in [1u64, 2, 31, 32, 33, 1_000, u64::MAX / 2] {
        let stream = substream_uniforms(&parent, other, n);
        let r = pearson_correlation(&reference, &stream);
        assert!(
            r.abs() < bound,
            "chunks 0 and {other} correlate (r = {r:.4}, bound {bound:.4})"
        );
    }
    // Parent stream vs its own substream: deriving children must not
    // correlate with continuing to draw from the parent.
    let mut parent_draws = RngStream::from_seed(7);
    let parent_samples: Vec<f64> = (0..n).map(|_| parent_draws.uniform()).collect();
    let r = pearson_correlation(&parent_samples, &reference);
    assert!(
        r.abs() < bound,
        "parent and split(0) correlate (r = {r:.4})"
    );
}

#[test]
fn lagged_self_correlation_within_a_substream_is_bounded() {
    // A weak generator can pass marginal uniformity while successive draws
    // correlate; substream consumers draw vectors, so serial correlation would
    // bias whole sample points.
    let parent = RngStream::from_seed(99);
    let samples = substream_uniforms(&parent, 3, 8_001);
    let bound = 4.0 / (8_000f64).sqrt();
    for lag in [1usize, 2, 6] {
        let r = pearson_correlation(&samples[..samples.len() - lag], &samples[lag..]);
        assert!(
            r.abs() < bound,
            "lag-{lag} self-correlation {r:.4} exceeds {bound:.4}"
        );
    }
}

#[test]
fn map_rng_output_is_statistically_sound_end_to_end() {
    // Draw normal variates chunk by chunk, each default-sized chunk `c` from
    // `rng.split(c)`, and test the *moments* of the concatenated output:
    // mean ~ 0, variance ~ 1 within 4-sigma Monte Carlo bounds.
    let rng = RngStream::from_seed(42);
    let n: usize = 20_000;
    let normals: Vec<f64> = (0..n.div_ceil(DEFAULT_CHUNK_SIZE))
        .flat_map(|c| {
            let mut stream = rng.split(c as u64);
            let len = DEFAULT_CHUNK_SIZE.min(n - c * DEFAULT_CHUNK_SIZE);
            (0..len).map(move |_| stream.standard_normal())
        })
        .collect();
    assert_eq!(normals.len(), n);
    let nf = n as f64;
    let mean = normals.iter().sum::<f64>() / nf;
    let variance = normals.iter().map(|z| z * z).sum::<f64>() / nf - mean * mean;
    assert!(mean.abs() < 4.0 / nf.sqrt(), "mean {mean} biased");
    // Var of the sample variance of a normal is ~2/n.
    assert!(
        (variance - 1.0).abs() < 4.0 * (2.0 / nf).sqrt(),
        "variance {variance} biased"
    );
    // And the probability-integral transform of the normals is uniform.
    let transformed: Vec<f64> = normals
        .iter()
        .map(|&z| sram_highsigma::stats::normal::cdf(z).clamp(0.0, 1.0 - f64::EPSILON))
        .collect();
    let p = uniformity_p_value(&transformed, 24);
    assert!(
        p > 1e-4,
        "PIT of the chunked normals fails uniformity (p = {p:.2e})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary parent seeds and chunk pairs, substreams stay
    /// reproducible, distinct and uncorrelated (loose 5-sigma bound; the
    /// fixed-seed tests above carry the tight assertions).
    #[test]
    fn split_independence_holds_for_arbitrary_seeds(
        seed in 0u64..u64::MAX,
        chunk_a in 0u64..1_000,
        offset in 1u64..1_000,
    ) {
        let parent = RngStream::from_seed(seed);
        let chunk_b = chunk_a + offset;
        let n = 800;
        let a1 = substream_uniforms(&parent, chunk_a, n);
        let a2 = substream_uniforms(&parent, chunk_a, n);
        prop_assert_eq!(&a1, &a2, "substreams must be reproducible");
        let b = substream_uniforms(&parent, chunk_b, n);
        prop_assert!(a1 != b, "distinct chunks must give distinct streams");
        let r = pearson_correlation(&a1, &b);
        prop_assert!(r.abs() < 5.0 / (n as f64).sqrt(), "correlation {} too large", r);
        // Both children individually uniform at a forgiving level.
        prop_assert!(uniformity_p_value(&a1, 10) > 1e-5);
        prop_assert!(uniformity_p_value(&b, 10) > 1e-5);
    }
}
