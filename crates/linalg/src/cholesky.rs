//! Cholesky decomposition of symmetric positive-definite matrices.
//!
//! Used to factor covariance matrices of correlated process variations so that
//! whitened standard-normal samples can be colored (`x = L z`), and to evaluate
//! multivariate normal densities via the log-determinant.

use crate::{LinalgError, Matrix, Result, Vector};

/// Cholesky factorization `A = L Lᵀ` with `L` lower triangular.
///
/// # Examples
///
/// ```
/// use gis_linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), gis_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let l = chol.lower();
/// let reconstructed = l.matmul(&l.transposed())?;
/// assert!((&reconstructed - &a).norm_frobenius() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    lower: Matrix,
}

impl Cholesky {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so mild asymmetry from floating
    /// point noise in the caller is tolerated.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a non-positive pivot appears.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lower = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= lower[(i, k)] * lower[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite {
                            index: i,
                            value: sum,
                        });
                    }
                    lower[(i, j)] = sum.sqrt();
                } else {
                    lower[(i, j)] = sum / lower[(j, j)];
                }
            }
        }
        Ok(Cholesky { lower })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lower.rows()
    }

    /// Borrow the lower-triangular factor `L`.
    pub fn lower(&self) -> &Matrix {
        &self.lower
    }

    /// Solves `A x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "cholesky_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward: L y = b.
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.lower[(i, j)] * y[j];
            }
            y[i] = acc / self.lower[(i, i)];
        }
        // Backward: Lᵀ x = y.
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.lower[(j, i)] * x[j];
            }
            x[i] = acc / self.lower[(i, i)];
        }
        Ok(x)
    }

    /// Applies the coloring transform `x = L z`, mapping an uncorrelated
    /// standard-normal vector `z` to a sample with covariance `A`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `z.len() != dim()`.
    pub fn color(&self, z: &Vector) -> Result<Vector> {
        self.lower.matvec(z)
    }

    /// Applies the whitening transform `z = L⁻¹ x` (forward substitution only).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != dim()`.
    pub fn whiten(&self, x: &Vector) -> Result<Vector> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "whiten",
                left: (n, n),
                right: (x.len(), 1),
            });
        }
        let mut z = Vector::zeros(n);
        for i in 0..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lower[(i, j)] * z[j];
            }
            z[i] = acc / self.lower[(i, i)];
        }
        Ok(z)
    }

    /// Natural logarithm of the determinant of `A`, computed stably from the
    /// factor diagonal: `log det A = 2 Σ log L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim())
            .map(|i| self.lower[(i, i)].ln())
            .sum::<f64>()
            * 2.0
    }

    /// Mahalanobis quadratic form `xᵀ A⁻¹ x`, evaluated as `‖L⁻¹x‖²`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != dim()`.
    pub fn mahalanobis_squared(&self, x: &Vector) -> Result<f64> {
        Ok(self.whiten(x)?.norm_squared())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        // Build A = B Bᵀ + n·I which is guaranteed SPD.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transposed()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        for n in [1, 2, 4, 8, 16] {
            let a = spd_matrix(n, 3 + n as u64);
            let chol = Cholesky::new(&a).unwrap();
            let l = chol.lower();
            let recon = l.matmul(&l.transposed()).unwrap();
            assert!((&recon - &a).norm_frobenius() < 1e-9 * a.norm_frobenius());
        }
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd_matrix(6, 99);
        let b: Vector = (0..6).map(|i| i as f64 + 0.5).collect();
        let x_chol = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        assert!((&x_chol - &x_lu).norm() < 1e-9);
    }

    #[test]
    fn whiten_inverts_color() {
        let a = spd_matrix(5, 12);
        let chol = Cholesky::new(&a).unwrap();
        let z = Vector::from_slice(&[0.3, -1.2, 0.7, 2.0, -0.1]);
        let x = chol.color(&z).unwrap();
        let z_back = chol.whiten(&x).unwrap();
        assert!((&z - &z_back).norm() < 1e-10);
    }

    #[test]
    fn log_determinant_matches_lu_determinant() {
        let a = spd_matrix(4, 5);
        let chol = Cholesky::new(&a).unwrap();
        let det_lu = crate::LuDecomposition::new(&a).unwrap().determinant();
        assert!((chol.log_determinant() - det_lu.ln()).abs() < 1e-9);
    }

    #[test]
    fn mahalanobis_of_identity_is_norm_squared() {
        let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
        let x = Vector::from_slice(&[1.0, 2.0, 2.0]);
        assert!((chol.mahalanobis_squared(&x).unwrap() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_dimension() {
        let chol = Cholesky::new(&Matrix::identity(2)).unwrap();
        assert!(chol.solve(&Vector::zeros(3)).is_err());
        assert!(chol.whiten(&Vector::zeros(3)).is_err());
    }
}
