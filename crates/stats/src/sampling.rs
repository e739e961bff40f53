//! Space-filling and directional sampling plans.
//!
//! * **Latin hypercube sampling** is used to seed the minimum-norm search with
//!   well-spread starting points.
//! * **Uniform-on-sphere sampling** drives the spherical (shell) presampling
//!   baseline, which probes the failure region direction-by-direction.

use crate::{normal, RngStream};
use gis_linalg::Vector;

/// Generates a Latin hypercube sample of `n` points in `dim` dimensions on the
/// unit cube `[0, 1)^dim`.
///
/// Each one-dimensional projection of the returned points hits every one of the
/// `n` equal-width strata exactly once.
///
/// # Panics
///
/// Panics if `n == 0` or `dim == 0`.
///
/// ```
/// use gis_stats::{latin_hypercube, RngStream};
/// let mut rng = RngStream::from_seed(3);
/// let pts = latin_hypercube(&mut rng, 8, 2);
/// assert_eq!(pts.len(), 8);
/// assert!(pts.iter().all(|p| p.len() == 2));
/// ```
pub fn latin_hypercube(rng: &mut RngStream, n: usize, dim: usize) -> Vec<Vector> {
    assert!(
        n > 0 && dim > 0,
        "latin_hypercube requires n > 0 and dim > 0"
    );
    let mut coordinates: Vec<Vec<f64>> = Vec::with_capacity(dim);
    for _ in 0..dim {
        let mut strata: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut strata);
        let column: Vec<f64> = strata
            .into_iter()
            .map(|s| (s as f64 + rng.uniform()) / n as f64)
            .collect();
        coordinates.push(column);
    }
    (0..n)
        .map(|i| (0..dim).map(|d| coordinates[d][i]).collect())
        .collect()
}

/// Generates a Latin hypercube sample mapped through the standard normal
/// quantile, producing stratified standard-normal points in `dim` dimensions.
pub fn latin_hypercube_normal(rng: &mut RngStream, n: usize, dim: usize) -> Vec<Vector> {
    latin_hypercube(rng, n, dim)
        .into_iter()
        .map(|p| {
            p.iter()
                .map(|&u| normal::quantile(u.clamp(1e-12, 1.0 - 1e-12)))
                .collect()
        })
        .collect()
}

/// Draws a point uniformly distributed on the unit sphere in `dim` dimensions.
///
/// # Panics
///
/// Panics if `dim == 0`.
pub fn uniform_on_sphere(rng: &mut RngStream, dim: usize) -> Vector {
    assert!(dim > 0, "uniform_on_sphere requires dim > 0");
    loop {
        let z = rng.standard_normal_vector(dim);
        let n = z.norm();
        if n > 1e-12 {
            return z.scaled(1.0 / n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latin_hypercube_stratification() {
        let mut rng = RngStream::from_seed(9);
        let n = 16;
        let pts = latin_hypercube(&mut rng, n, 3);
        assert_eq!(pts.len(), n);
        // Each dimension must have exactly one point per stratum.
        for d in 0..3 {
            let mut strata: Vec<usize> = pts
                .iter()
                .map(|p| (p[d] * n as f64).floor() as usize)
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn latin_hypercube_normal_is_finite_and_spread() {
        let mut rng = RngStream::from_seed(10);
        let pts = latin_hypercube_normal(&mut rng, 100, 2);
        assert!(pts.iter().all(|p| p.is_finite()));
        let mean: f64 = pts.iter().map(|p| p[0]).sum::<f64>() / 100.0;
        assert!(mean.abs() < 0.3);
    }

    #[test]
    fn sphere_points_have_unit_norm() {
        let mut rng = RngStream::from_seed(4);
        for dim in [1, 2, 5, 20] {
            let p = uniform_on_sphere(&mut rng, dim);
            assert!((p.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sphere_is_roughly_isotropic() {
        let mut rng = RngStream::from_seed(21);
        let n = 20_000;
        let mut mean = Vector::zeros(3);
        for _ in 0..n {
            mean += &uniform_on_sphere(&mut rng, 3);
        }
        mean.scale_in_place(1.0 / n as f64);
        assert!(mean.norm() < 0.02, "mean norm {}", mean.norm());
    }
}
