//! Multivariate normal distributions used as importance-sampling proposals.
//!
//! Every proposal in the estimators is an isotropic normal `N(μ, σ²·I)` in the
//! whitened variation space, so drawing a sample (`x = μ + σ z`) and evaluating
//! a log-density are both O(d). Together they give the importance weights
//! `w(x) = f(x) / q(x)`.

use crate::{Result, RngStream, StatsError};
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
        let mut x = rng.standard_normal_vector(self.dim());
        for (xi, mi) in x.iter_mut().zip(self.mean.iter()) {
            // `0.0 + σ z` rounds like a dense `L z` row whose off-diagonal
            // terms are zero (a `-0.0` product becomes `+0.0`).
            *xi = mi + (0.0 + self.sigma * *xi);
        }
        x
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

    /// Density `N(x | μ, σ²·I)`.
    ///
    /// # Errors
    ///
    /// See [`MultivariateNormal::log_pdf`].
    pub fn pdf(&self, x: &Vector) -> Result<f64> {
        Ok(self.log_pdf(x)?.exp())
    }
}

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
    /// mismatched lengths, contain non-positive weights, or the components have
    /// differing dimensions.
    pub fn new(components: Vec<MultivariateNormal>, weights: Vec<f64>) -> Result<Self> {
        if components.is_empty() || components.len() != weights.len() {
            return Err(StatsError::InvalidArgument(
                "mixture needs equal, non-zero numbers of components and weights".to_string(),
            ));
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

    /// Number of mixture components.
    pub fn num_components(&self) -> usize {
        self.components.len()
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
        let k = rng.weighted_index(&self.weights);
        self.components[k].sample(rng)
    }

    /// Log-density of the mixture, computed with the log-sum-exp trick.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the component densities.
    pub fn log_pdf(&self, x: &Vector) -> Result<f64> {
        let mut terms = Vec::with_capacity(self.components.len());
        for (c, lw) in self.components.iter().zip(self.log_weights.iter()) {
            terms.push(lw + c.log_pdf(x)?);
        }
        let max = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // gis-analyze: allow(float-eq, all-terms-at--inf sentinel before the log-sum-exp shift)
        if max == f64::NEG_INFINITY {
            return Ok(f64::NEG_INFINITY);
        }
        let sum: f64 = terms.iter().map(|t| (t - max).exp()).sum();
        Ok(max + sum.ln())
    }

    /// Density of the mixture.
    ///
    /// # Errors
    ///
    /// See [`GaussianMixture::log_pdf`].
    pub fn pdf(&self, x: &Vector) -> Result<f64> {
        Ok(self.log_pdf(x)?.exp())
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
        let expected = normal::pdf_general(0.0, 0.0, 2.0);
        assert!((dist.pdf(&Vector::zeros(1)).unwrap() - expected).abs() < 1e-12);
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
        let expected = 0.25 * c1.pdf(&x).unwrap() + 0.75 * c2.pdf(&x).unwrap();
        assert!((mix.pdf(&x).unwrap() - expected).abs() < 1e-14);
        assert_eq!(mix.num_components(), 2);
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
        let c2 = MultivariateNormal::standard(2);
        assert!(GaussianMixture::new(vec![c, c2], vec![1.0, 1.0]).is_err());
    }
}
