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

use gis_linalg::elementary::{ln, sin_cos};
use gis_linalg::Vector;

/// The golden-ratio increment of SplitMix64's Weyl sequence.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): one step of the Weyl
/// sequence from `z`, then the variant-13 finalizer. It expands a stream's
/// seed into the generator state, derives child seeds in
/// [`RngStream::split`], and mixes the replication index into calibration
/// seeds.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a hash of `text`. It derives seeds from problem and
/// estimator names independently of registration order, and short
/// content-addressed job ids from canonical job JSON.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A seeded, splittable random number stream.
///
/// The generator is xoshiro256++ (Blackman & Vigna, *ACM TOMS* 2021), whose
/// 256-bit state is expanded from the 64-bit seed by [`splitmix64`]. On top of
/// it the stream provides uniform and normal variates and stream splitting.
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
    /// xoshiro256++ state.
    state: [u64; 4],
    seed: u64,
    /// Cached second Box–Muller variate.
    cached_normal: Option<f64>,
}

impl RngStream {
    /// Creates a stream from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = [0; 4];
        let mut z = seed;
        for word in &mut state {
            *word = splitmix64(z);
            z = z.wrapping_add(GOLDEN_GAMMA);
        }
        RngStream {
            state,
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
    /// The child seed is [`splitmix64`] of the parent seed plus `index`
    /// times an odd constant, so `split(0)`, `split(1)`, … are
    /// statistically independent of each other and of the parent.
    pub fn split(&self, index: u64) -> RngStream {
        RngStream::from_seed(splitmix64(
            self.seed
                .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
        ))
    }

    /// Next 64 bits of the xoshiro256++ sequence.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform random number in `[0, 1)`: the top 53 bits of the next
    /// output, scaled by 2⁻⁵³.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`, without bias: Lemire's widening
    /// multiply, rejecting the low products that would over-represent some
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_index requires n > 0");
        let bound = n as u64;
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            if m as u64 >= threshold {
                return (m >> 64) as usize;
            }
        }
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
        let r = (-2.0 * ln(u1)).sqrt();
        let (sin, cos) = sin_cos(2.0 * std::f64::consts::PI * u2);
        self.cached_normal = Some(r * sin);
        r * cos
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
    fn uniform_index_in_range() {
        let mut rng = RngStream::from_seed(5);
        for _ in 0..1000 {
            assert!(rng.uniform_index(7) < 7);
        }
    }

    #[test]
    fn uniform_index_is_unbiased_enough() {
        let mut rng = RngStream::from_seed(3);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.uniform_index(5)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts = {counts:?}");
        }
    }

    /// Pins the stream's own output, so a change to the generator, its
    /// seeding, the index sampler, Box–Muller or splitting shows up here
    /// before it shows up as a moved golden estimate.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn stream_output_is_pinned() {
        struct Pin {
            seed: u64,
            uniforms: [u64; 4],
            indices: [usize; 5],
            normals: [u64; 3],
            split_seed: u64,
            split_uniform: u64,
        }
        let pins = [
            Pin {
                seed: 0,
                uniforms: [
                    0x3fd4c5d7585242c8,
                    0x3fd8769bcf70e034,
                    0x3fd703f7e47b269e,
                    0x3f8775fc61ddf2c0,
                ],
                indices: [0, 1, 2, 11, 9136120204379184873],
                normals: [0xbff1b9fe5de16e94, 0x3ff02edd6bb4b03a, 0x3ff6d2df1cdbcf62],
                split_seed: 3768759642134115001,
                split_uniform: 0x3fe8f9938e175418,
            },
            Pin {
                seed: 1,
                uniforms: [
                    0x3fe9f8ba0fede078,
                    0x3fe7e8482652c7fc,
                    0x3fb9a37d5757aaf0,
                    0x3fe7e10233e0b9aa,
                ],
                indices: [0, 3, 0, 746, 3406718355780431779],
                normals: [0xbf8812140a29bbcd, 0xbfe4ac1a702eeceb, 0xbfaa1b2454243d07],
                split_seed: 1033284918006472414,
                split_uniform: 0x3feec7c6b94a3c63,
            },
            Pin {
                seed: 7,
                uniforms: [
                    0x3fac583400555d20,
                    0x3fc607e46efd274c,
                    0x3fe6f66236761a8b,
                    0x3fdb5767da98c600,
                ],
                indices: [0, 0, 5, 427, 17776380574336353141],
                normals: [0x3ff21805dbb01b35, 0x4000fcc51eab333d, 0xbfe7642aac8d9be3],
                split_seed: 13757315976164597679,
                split_uniform: 0x3fef7425960f4746,
            },
            Pin {
                seed: 20180319,
                uniforms: [
                    0x3fd1d8f60c5eeea4,
                    0x3fe112dc6df4e018,
                    0x3feb41dfa7407c69,
                    0x3fcf258f5723ab80,
                ],
                indices: [0, 2, 5, 243, 14130766017099912274],
                normals: [0xbff9010a7f4ce33b, 0xbfd5672ca39d19cd, 0x3f98496ec08c33f0],
                split_seed: 16441682848830326983,
                split_uniform: 0x3fcb7d078cef9b4c,
            },
            Pin {
                seed: u64::MAX,
                uniforms: [
                    0x3fd5b33e33a52388,
                    0x3fecd0b10865cb4b,
                    0x3fec7d36b4902339,
                    0x3fd183c652554caa,
                ],
                indices: [0, 4, 6, 273, 12093889312535503840],
                normals: [0x3ff3143e7e338dbd, 0xbfeb8cc55c7896fa, 0xbfb2493e64d7c020],
                split_seed: 11883330800029047368,
                split_uniform: 0x3fe6b4406d0276b5,
            },
        ];
        for pin in pins {
            let mut rng = RngStream::from_seed(pin.seed);
            let uniforms = [(); 4].map(|_| rng.uniform().to_bits());
            assert_eq!(uniforms, pin.uniforms, "uniforms, seed {}", pin.seed);

            let mut rng = RngStream::from_seed(pin.seed);
            let indices = [1, 5, 7, 1000, usize::MAX].map(|n| rng.uniform_index(n));
            assert_eq!(indices, pin.indices, "indices, seed {}", pin.seed);

            let mut rng = RngStream::from_seed(pin.seed);
            let normals = [(); 3].map(|_| rng.standard_normal().to_bits());
            assert_eq!(normals, pin.normals, "normals, seed {}", pin.seed);

            let mut child = RngStream::from_seed(pin.seed).split(3);
            assert_eq!(
                child.seed(),
                pin.split_seed,
                "split seed, seed {}",
                pin.seed
            );
            assert_eq!(
                child.uniform().to_bits(),
                pin.split_uniform,
                "split uniform, seed {}",
                pin.seed
            );
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
}
