//! Reproducible random number streams.
//!
//! Every estimator in the suite takes an explicit [`RngStream`] so that whole
//! experiments are reproducible from a single seed and so that independent
//! replications (the "20 Monte Carlo runs" style of evaluation) can be derived
//! from one master seed without accidental stream overlap.
//!
//! Normal variates have one in-place primitive,
//! [`RngStream::fill_standard_normal`], which writes a caller-owned buffer;
//! [`RngStream::standard_normal_vector`] allocates a vector and fills it. The
//! estimators' hot loops reuse their batch buffers through the primitive, so
//! drawing a point costs no heap traffic, and both forms consume the stream
//! in the same order.

use gis_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded, splittable random number stream.
///
/// Internally wraps [`rand::rngs::StdRng`] (ChaCha-based) and adds the normal
/// variate generation and stream-splitting conveniences used across the suite.
///
/// # Examples
///
/// ```
/// use gis_stats::RngStream;
///
/// let mut a = RngStream::from_seed(7);
/// let mut b = RngStream::from_seed(7);
/// assert_eq!(a.uniform(), b.uniform());
///
/// // Derived streams are independent of the parent and of each other.
/// let mut c = a.split(0);
/// let mut d = a.split(1);
/// assert_ne!(c.uniform(), d.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: StdRng,
    seed: u64,
    /// Cached second Box–Muller variate.
    cached_normal: Option<f64>,
}

impl RngStream {
    /// Creates a stream from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        RngStream {
            rng: StdRng::seed_from_u64(seed),
            seed,
            cached_normal: None,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `index`.
    ///
    /// The child seed mixes the parent seed and the index through a
    /// SplitMix64-style finalizer, so `split(0)`, `split(1)`, … are
    /// statistically independent of each other and of the parent.
    pub fn split(&self, index: u64) -> RngStream {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        RngStream::from_seed(z)
    }

    /// Uniform random number in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform random number in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform_in(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "uniform_in requires low < high");
        low + (high - low) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_index requires n > 0");
        self.rng.gen_range(0..n)
    }

    /// Standard normal variate via the Box–Muller transform (with caching of
    /// the second variate of each pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        // Box–Muller: avoid u1 == 0.
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Overwrites `out` with independent standard normal variates, drawn in
    /// slice order.
    /// gis-analyze: no_alloc
    pub fn fill_standard_normal(&mut self, out: &mut [f64]) {
        for x in out {
            *x = self.standard_normal();
        }
    }

    /// Vector of `dim` independent standard normal variates: a fresh vector
    /// filled by [`RngStream::fill_standard_normal`].
    pub fn standard_normal_vector(&mut self, dim: usize) -> Vector {
        let mut v = Vector::zeros(dim);
        self.fill_standard_normal(v.as_mut_slice());
        v
    }

    /// Fisher–Yates shuffle of a mutable slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.uniform_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples an index according to the (unnormalized, non-negative) weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative value, or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must not be empty");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0, "weights must be non-negative");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let target = self.uniform() * total;
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            if target < acc {
                return i;
            }
        }
        weights.len() - 1
    }
}

impl RngCore for RngStream {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> std::result::Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::from_seed(123);
        let mut b = RngStream::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::from_seed(1);
        let mut b = RngStream::from_seed(2);
        let same = (0..50).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 5);
    }

    #[test]
    fn split_streams_are_reproducible_and_distinct() {
        let parent = RngStream::from_seed(99);
        let mut c1 = parent.split(3);
        let mut c2 = parent.split(3);
        assert_eq!(c1.uniform(), c2.uniform());
        let mut c3 = parent.split(4);
        assert_ne!(c1.uniform(), c3.uniform());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = RngStream::from_seed(2024);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let z = rng.standard_normal();
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn uniform_in_respects_bounds() {
        let mut rng = RngStream::from_seed(5);
        for _ in 0..1000 {
            let x = rng.uniform_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn uniform_index_in_range() {
        let mut rng = RngStream::from_seed(5);
        for _ in 0..1000 {
            assert!(rng.uniform_index(7) < 7);
        }
    }

    #[test]
    fn normal_vector_has_right_length() {
        let mut rng = RngStream::from_seed(5);
        let v = rng.standard_normal_vector(12);
        assert_eq!(v.len(), 12);
        assert!(v.is_finite());
    }

    #[test]
    fn fill_matches_the_allocating_form_bit_for_bit() {
        for dim in [0, 1, 5, 576] {
            let mut alloc = RngStream::from_seed(31 + dim as u64);
            let mut fill = alloc.clone();
            let mut buf = vec![f64::NAN; dim];
            for _ in 0..3 {
                let v = alloc.standard_normal_vector(dim);
                fill.fill_standard_normal(&mut buf);
                let expected: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                let got: Vec<u64> = buf.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expected, "d = {dim}");
            }
            // Both streams stand at the same position afterwards, the cached
            // second Box–Muller variate included.
            assert_eq!(
                alloc.standard_normal().to_bits(),
                fill.standard_normal().to_bits()
            );
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = RngStream::from_seed(11);
        let mut data: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = RngStream::from_seed(8);
        let weights = [0.0, 0.0, 1.0];
        for _ in 0..100 {
            assert_eq!(rng.weighted_index(&weights), 2);
        }
        // Roughly proportional sampling.
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..20_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn weighted_index_rejects_all_zero() {
        RngStream::from_seed(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn normal_with_mean_and_std() {
        let mut rng = RngStream::from_seed(77);
        let n = 50_000;
        let mean_target = 3.0;
        let std_target = 0.5;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += rng.normal(mean_target, std_target);
        }
        assert!((sum / n as f64 - mean_target).abs() < 0.02);
    }
}
