//! Multivariate normal distributions used as importance-sampling proposals.
//!
//! Every proposal in the estimators is an isotropic normal `N(μ, σ²·I)` in the
//! whitened variation space, so drawing a sample (`x = μ + σ z`) and evaluating
//! a log-density are both O(d). Together they give the importance weights
//! `w(x) = f(x) / q(x)`.
//!
//! Sampling has one in-place primitive per distribution: `sample_into` writes
//! a caller-owned buffer, and `sample` allocates a zero vector and calls it.
//! The importance-sampling loop draws every batch into buffers it reuses, so
//! its memory scales with the batch, not with the sample budget. A mixture's
//! log-density works on a fixed stack array of at most
//! [`MAX_MIXTURE_COMPONENTS`] terms, so it allocates nothing either.

use crate::{Result, RngStream, StatsError};
use gis_linalg::elementary::{exp, ln};
use gis_linalg::Vector;

/// An isotropic multivariate normal distribution `N(μ, σ²·I)`.
///
/// # Examples
///
/// ```
/// use gis_stats::{MultivariateNormal, RngStream};
/// use gis_linalg::Vector;
///
/// # fn main() -> Result<(), gis_stats::StatsError> {
/// let dist = MultivariateNormal::standard(3);
/// let mut rng = RngStream::from_seed(1);
/// let x = dist.sample(&mut rng);
/// assert_eq!(x.len(), 3);
/// // The standard normal density at the origin is (2π)^{-3/2}.
/// let log_p0 = dist.log_pdf(&Vector::zeros(3))?;
/// assert!((log_p0 - (-1.5 * (2.0 * std::f64::consts::PI).ln())).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vector,
    /// Standard deviation of every coordinate.
    sigma: f64,
    log_norm_constant: f64,
}

impl MultivariateNormal {
    fn with_sigma(mean: Vector, sigma: f64) -> Self {
        let dim = mean.len();
        // log det(σ²·I) = 2 Σ ln σ, summed term by term rather than taken as
        // 2·d·ln σ, so it rounds like a Cholesky log-determinant.
        let log_determinant = (0..dim).map(|_| sigma.ln()).sum::<f64>() * 2.0;
        let log_norm_constant =
            -0.5 * (dim as f64 * (2.0 * std::f64::consts::PI).ln() + log_determinant);
        MultivariateNormal {
            mean,
            sigma,
            log_norm_constant,
        }
    }

    /// The standard normal `N(0, I)` in `dim` dimensions.
    pub fn standard(dim: usize) -> Self {
        MultivariateNormal::with_sigma(Vector::zeros(dim), 1.0)
    }

    /// A mean-shifted standard normal `N(μ, I)` — the canonical mean-shift
    /// importance-sampling proposal.
    pub fn shifted_standard(mean: Vector) -> Self {
        MultivariateNormal::with_sigma(mean, 1.0)
    }

    /// An isotropic normal `N(μ, s²·I)` — used by scaled-sigma sampling.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0` or `scale²` underflows to zero.
    pub fn isotropic(mean: Vector, scale: f64) -> Self {
        // √(s²) is the Cholesky diagonal of `s²·I`; taking it rather than `s`
        // keeps every result bit-identical to the dense factorisation.
        let sigma = (scale * scale).sqrt();
        assert!(scale > 0.0 && sigma > 0.0, "scale must be positive");
        MultivariateNormal::with_sigma(mean, sigma)
    }

    /// Dimensionality of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The mean vector.
    pub fn mean(&self) -> &Vector {
        &self.mean
    }

    /// Draws one sample `x = μ + σ z` with `z` standard normal.
    pub fn sample(&self, rng: &mut RngStream) -> Vector {
        let mut x = Vector::zeros(self.dim());
        self.sample_into(rng, x.as_mut_slice());
        x
    }

    /// Draws one sample `x = μ + σ z` into `x`, overwriting it. Consumes the
    /// stream exactly as [`MultivariateNormal::sample`] does.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the dimension.
    /// gis-analyze: no_alloc
    pub fn sample_into(&self, rng: &mut RngStream, x: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "sample buffer has the wrong dimension");
        rng.fill_standard_normal(x);
        for (xi, mi) in x.iter_mut().zip(self.mean.iter()) {
            // `0.0 + σ z` rounds like a dense `L z` row whose off-diagonal
            // terms are zero (a `-0.0` product becomes `+0.0`).
            *xi = mi + (0.0 + self.sigma * *xi);
        }
    }

    /// Log-density `log N(x | μ, σ²·I)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] if `x` has the wrong dimension.
    pub fn log_pdf(&self, x: &Vector) -> Result<f64> {
        if x.len() != self.dim() {
            return Err(StatsError::InvalidArgument(format!(
                "point has dimension {}, distribution has dimension {}",
                x.len(),
                self.dim()
            )));
        }
        let maha = x
            .iter()
            .zip(self.mean.iter())
            .map(|(xi, mi)| {
                let w = (xi - mi) / self.sigma;
                w * w
            })
            .sum::<f64>();
        Ok(self.log_norm_constant - 0.5 * maha)
    }
}

/// Largest number of components a [`GaussianMixture`] may have. The
/// proposals built on it have two (defensive) or three (bridged) components,
/// and the log-density sums its terms in a stack array of this length.
pub const MAX_MIXTURE_COMPONENTS: usize = 3;

/// A finite mixture of multivariate normals with fixed component weights.
///
/// Mixture proposals are the standard "defensive" importance-sampling device:
/// mixing the shifted proposal with the nominal density bounds the weights and
/// protects the estimator when the shift is imperfect.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    components: Vec<MultivariateNormal>,
    weights: Vec<f64>,
    log_weights: Vec<f64>,
}

impl GaussianMixture {
    /// Creates a mixture from components and (unnormalized, positive) weights.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] if the lists are empty, have
    /// mismatched lengths or more than [`MAX_MIXTURE_COMPONENTS`] entries,
    /// contain non-positive weights, or the components have differing
    /// dimensions.
    pub fn new(components: Vec<MultivariateNormal>, weights: Vec<f64>) -> Result<Self> {
        if components.is_empty() || components.len() != weights.len() {
            return Err(StatsError::InvalidArgument(
                "mixture needs equal, non-zero numbers of components and weights".to_string(),
            ));
        }
        if components.len() > MAX_MIXTURE_COMPONENTS {
            return Err(StatsError::InvalidArgument(format!(
                "mixture has {} components, at most {MAX_MIXTURE_COMPONENTS} are supported",
                components.len()
            )));
        }
        let dim = components[0].dim();
        if components.iter().any(|c| c.dim() != dim) {
            return Err(StatsError::InvalidArgument(
                "all mixture components must have the same dimension".to_string(),
            ));
        }
        if weights.iter().any(|&w| w <= 0.0 || !w.is_finite()) {
            return Err(StatsError::InvalidArgument(
                "mixture weights must be positive and finite".to_string(),
            ));
        }
        let total: f64 = weights.iter().sum();
        let weights: Vec<f64> = weights.into_iter().map(|w| w / total).collect();
        let log_weights = weights.iter().map(|w| w.ln()).collect();
        Ok(GaussianMixture {
            components,
            weights,
            log_weights,
        })
    }

    /// Dimensionality of the mixture.
    pub fn dim(&self) -> usize {
        self.components[0].dim()
    }

    /// Normalized component weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Borrow the mixture components.
    pub fn components(&self) -> &[MultivariateNormal] {
        &self.components
    }

    /// Draws one sample: pick a component by weight, then sample from it.
    pub fn sample(&self, rng: &mut RngStream) -> Vector {
        let mut x = Vector::zeros(self.dim());
        self.sample_into(rng, x.as_mut_slice());
        x
    }

    /// Draws one sample into `x`, overwriting it. Consumes the stream exactly
    /// as [`GaussianMixture::sample`] does.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the dimension.
    pub fn sample_into(&self, rng: &mut RngStream, x: &mut [f64]) {
        let k = rng.weighted_index(&self.weights);
        self.components[k].sample_into(rng, x);
    }

    /// Log-density of the mixture, computed with the log-sum-exp trick.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the component densities.
    pub fn log_pdf(&self, x: &Vector) -> Result<f64> {
        let mut buffer = [0.0; MAX_MIXTURE_COMPONENTS];
        let terms = &mut buffer[..self.components.len()];
        for ((term, c), lw) in terms
            .iter_mut()
            .zip(&self.components)
            .zip(&self.log_weights)
        {
            *term = lw + c.log_pdf(x)?;
        }
        let max = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // gis-analyze: allow(float-eq, all-terms-at--inf sentinel before the log-sum-exp shift)
        if max == f64::NEG_INFINITY {
            return Ok(f64::NEG_INFINITY);
        }
        let sum: f64 = terms.iter().map(|t| exp(t - max)).sum();
        Ok(max + ln(sum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal;
    use gis_linalg::{Cholesky, Matrix};

    #[test]
    fn standard_log_pdf_matches_univariate_product() {
        let dist = MultivariateNormal::standard(4);
        let x = Vector::from_slice(&[0.5, -1.0, 2.0, 0.0]);
        let expected: f64 = x.iter().map(|&xi| normal::log_pdf(xi)).sum();
        assert!((dist.log_pdf(&x).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn shifted_standard_peaks_at_mean() {
        let mean = Vector::from_slice(&[1.0, 2.0]);
        let dist = MultivariateNormal::shifted_standard(mean.clone());
        let at_mean = dist.log_pdf(&mean).unwrap();
        let away = dist.log_pdf(&Vector::zeros(2)).unwrap();
        assert!(at_mean > away);
    }

    #[test]
    fn isotropic_scales_density() {
        let dist = MultivariateNormal::isotropic(Vector::zeros(1), 2.0);
        // N(0 | 0, 4) = 1/(2*sqrt(2π))
        let expected = normal::log_pdf(0.0) - 2.0f64.ln();
        assert!((dist.log_pdf(&Vector::zeros(1)).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn sample_moments_match_parameters() {
        let mean = Vector::from_slice(&[1.0, -2.0]);
        let dist = MultivariateNormal::isotropic(mean, 1.5);
        let mut rng = RngStream::from_seed(31);
        let n = 50_000;
        let mut sum = Vector::zeros(2);
        let mut sum_sq = Vector::zeros(2);
        let mut cross = 0.0;
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            sum += &x;
            sum_sq[0] += x[0] * x[0];
            sum_sq[1] += x[1] * x[1];
            cross += x[0] * x[1];
        }
        let m0 = sum[0] / n as f64;
        let m1 = sum[1] / n as f64;
        assert!((m0 - 1.0).abs() < 0.05);
        assert!((m1 + 2.0).abs() < 0.05);
        let var0 = sum_sq[0] / n as f64 - m0 * m0;
        let var1 = sum_sq[1] / n as f64 - m1 * m1;
        let cov01 = cross / n as f64 - m0 * m1;
        assert!((var0 - 2.25).abs() < 0.1);
        assert!((var1 - 2.25).abs() < 0.1);
        assert!(cov01.abs() < 0.05);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let d = MultivariateNormal::standard(2);
        assert!(matches!(
            d.log_pdf(&Vector::zeros(3)),
            Err(StatsError::InvalidArgument(_))
        ));
    }

    /// Dense reference for `N(μ, s²·I)`: a Cholesky factor of the diagonal
    /// covariance colors `z` for sampling and whitens `x − μ` for the density.
    struct DenseReference<'a> {
        mean: Vector,
        chol: &'a Cholesky,
        log_norm_constant: f64,
    }

    impl<'a> DenseReference<'a> {
        fn new(mean: Vector, chol: &'a Cholesky) -> Self {
            let dim = mean.len() as f64;
            let log_norm_constant =
                -0.5 * (dim * (2.0 * std::f64::consts::PI).ln() + chol.log_determinant());
            DenseReference {
                mean,
                chol,
                log_norm_constant,
            }
        }

        fn sample(&self, rng: &mut RngStream) -> Vector {
            let z = rng.standard_normal_vector(self.mean.len());
            &self.mean + &self.chol.color(&z).unwrap()
        }

        fn log_pdf(&self, x: &Vector) -> f64 {
            let centered = x - &self.mean;
            self.log_norm_constant - 0.5 * self.chol.mahalanobis_squared(&centered).unwrap()
        }
    }

    fn bits(v: &Vector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn isotropic_path_matches_dense_cholesky_bit_for_bit() {
        let mut rng = RngStream::from_seed(577);
        let mut stream = 0;
        for dim in [1, 6, 96, 576] {
            let shift = rng.standard_normal_vector(dim).scaled(2.0);
            for scale in [1.0, 0.5, 2.5, 3.0] {
                let chol =
                    Cholesky::new(&Matrix::from_diagonal(&vec![scale * scale; dim])).unwrap();
                let mut cases = vec![(
                    MultivariateNormal::isotropic(shift.clone(), scale),
                    shift.clone(),
                )];
                if scale == 1.0 {
                    cases.push((MultivariateNormal::standard(dim), Vector::zeros(dim)));
                    cases.push((
                        MultivariateNormal::shifted_standard(shift.clone()),
                        shift.clone(),
                    ));
                }
                for (dist, mean) in cases {
                    let reference = DenseReference::new(mean, &chol);
                    stream += 1;
                    let mut fast_rng = rng.split(stream);
                    let mut dense_rng = rng.split(stream);
                    for _ in 0..4 {
                        let x = dist.sample(&mut fast_rng);
                        assert_eq!(bits(&x), bits(&reference.sample(&mut dense_rng)));
                        for point in [&x, dist.mean(), &Vector::zeros(dim)] {
                            assert_eq!(
                                dist.log_pdf(point).unwrap().to_bits(),
                                reference.log_pdf(point).to_bits(),
                                "d = {dim}, s = {scale}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mixture_log_pdf_matches_manual_sum() {
        let c1 = MultivariateNormal::standard(1);
        let c2 = MultivariateNormal::shifted_standard(Vector::from_slice(&[3.0]));
        let mix = GaussianMixture::new(vec![c1.clone(), c2.clone()], vec![0.25, 0.75]).unwrap();
        let x = Vector::from_slice(&[1.0]);
        let density = |c: &MultivariateNormal| c.log_pdf(&x).unwrap().exp();
        let expected = (0.25 * density(&c1) + 0.75 * density(&c2)).ln();
        assert!((mix.log_pdf(&x).unwrap() - expected).abs() < 1e-14);
        assert_eq!(mix.dim(), 1);
        assert!((mix.weights()[0] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn mixture_sampling_respects_weights() {
        let c1 = MultivariateNormal::shifted_standard(Vector::from_slice(&[-10.0]));
        let c2 = MultivariateNormal::shifted_standard(Vector::from_slice(&[10.0]));
        let mix = GaussianMixture::new(vec![c1, c2], vec![1.0, 4.0]).unwrap();
        let mut rng = RngStream::from_seed(17);
        let n = 20_000;
        let right = (0..n).filter(|_| mix.sample(&mut rng)[0] > 0.0).count() as f64;
        assert!((right / n as f64 - 0.8).abs() < 0.02);
    }

    #[test]
    fn mixture_validation() {
        let c = MultivariateNormal::standard(1);
        assert!(GaussianMixture::new(vec![], vec![]).is_err());
        assert!(GaussianMixture::new(vec![c.clone()], vec![1.0, 2.0]).is_err());
        assert!(GaussianMixture::new(vec![c.clone()], vec![0.0]).is_err());
        let too_many = MAX_MIXTURE_COMPONENTS + 1;
        assert!(GaussianMixture::new(vec![c.clone(); too_many], vec![1.0; too_many]).is_err());
        let c2 = MultivariateNormal::standard(2);
        assert!(GaussianMixture::new(vec![c, c2], vec![1.0, 1.0]).is_err());
    }

    /// A defensive (two-component) and a bridged (three-component) mixture
    /// in `dim` dimensions, as the importance-sampling proposals build them.
    fn proposal_mixtures(rng: &mut RngStream, dim: usize) -> Vec<GaussianMixture> {
        let shift = rng.standard_normal_vector(dim).scaled(2.0);
        let shifted = MultivariateNormal::shifted_standard(shift.clone());
        let bridge = MultivariateNormal::shifted_standard(shift.scaled(0.75));
        let nominal = MultivariateNormal::standard(dim);
        vec![
            GaussianMixture::new(vec![shifted.clone(), nominal.clone()], vec![0.9, 0.1]).unwrap(),
            GaussianMixture::new(vec![shifted, bridge, nominal], vec![0.6, 0.3, 0.1]).unwrap(),
        ]
    }

    /// Draws 16 points from two copies of `stream` through both forms and
    /// asserts equal bits and equal stream positions afterwards.
    fn assert_in_place_matches(
        stream: &RngStream,
        dim: usize,
        sample: impl Fn(&mut RngStream) -> Vector,
        sample_into: impl Fn(&mut RngStream, &mut [f64]),
    ) {
        let mut alloc_rng = stream.clone();
        let mut fill_rng = stream.clone();
        let mut buf = vec![f64::NAN; dim];
        for _ in 0..16 {
            let x = sample(&mut alloc_rng);
            sample_into(&mut fill_rng, &mut buf);
            assert_eq!(bits(&x), bits(&Vector::from_slice(&buf)), "d = {dim}");
        }
        assert_eq!(alloc_rng.uniform().to_bits(), fill_rng.uniform().to_bits());
    }

    #[test]
    fn sample_into_matches_sample_bit_for_bit() {
        let mut rng = RngStream::from_seed(4242);
        for dim in [1, 6, 96] {
            let shift = rng.standard_normal_vector(dim);
            for n in [
                MultivariateNormal::standard(dim),
                MultivariateNormal::isotropic(shift, 2.5),
            ] {
                assert_in_place_matches(
                    &rng.split(1),
                    dim,
                    |r| n.sample(r),
                    |r, x| n.sample_into(r, x),
                );
            }
            for m in proposal_mixtures(&mut rng, dim) {
                assert_in_place_matches(
                    &rng.split(2),
                    dim,
                    |r| m.sample(r),
                    |r, x| m.sample_into(r, x),
                );
            }
        }
    }

    #[test]
    fn mixture_log_pdf_matches_a_vec_log_sum_exp_bit_for_bit() {
        let mut rng = RngStream::from_seed(808);
        for dim in [1, 6, 96] {
            for mix in proposal_mixtures(&mut rng, dim) {
                let log_weights: Vec<f64> = mix.weights().iter().map(|w| w.ln()).collect();
                for _ in 0..8 {
                    let x = mix.sample(&mut rng).scaled(1.5);
                    let mut terms = Vec::new();
                    for (c, lw) in mix.components().iter().zip(&log_weights) {
                        terms.push(lw + c.log_pdf(&x).unwrap());
                    }
                    let max = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let sum: f64 = terms.iter().map(|t| (t - max).exp()).sum();
                    assert_eq!(
                        mix.log_pdf(&x).unwrap().to_bits(),
                        (max + sum.ln()).to_bits(),
                        "d = {dim}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sample buffer has the wrong dimension")]
    fn sample_into_rejects_a_wrong_length_buffer() {
        MultivariateNormal::standard(3).sample_into(&mut RngStream::from_seed(1), &mut [0.0; 2]);
    }
}
