//! LU decomposition with partial pivoting.
//!
//! The circuit simulator's Newton–Raphson loop solves one dense linear system
//! per iteration. Those systems are unsymmetric (MOSFET transconductance stamps
//! break symmetry), so LU with partial pivoting is the right general-purpose
//! factorization.

use crate::{LinalgError, Matrix, Result, Vector, SINGULARITY_TOLERANCE};

/// LU decomposition `P A = L U` of a square matrix with partial (row) pivoting.
///
/// # Examples
///
/// ```
/// use gis_linalg::{Matrix, Vector, LuDecomposition};
///
/// # fn main() -> Result<(), gis_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0],
///                             &[4.0, -6.0, 0.0],
///                             &[-2.0, 7.0, 2.0]])?;
/// let lu = LuDecomposition::new(&a)?;
/// let b = Vector::from_slice(&[5.0, -2.0, 9.0]);
/// let x = lu.solve(&b)?;
/// assert!((&a.matvec(&x)? - &b).norm() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (strictly lower, unit diagonal implied) and U (upper) factors.
    factors: Matrix,
    /// Row permutation applied to the input matrix.
    permutation: Vec<usize>,
    /// Sign of the permutation, used for the determinant.
    permutation_sign: f64,
}

impl LuDecomposition {
    /// Factors the square matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot below [`SINGULARITY_TOLERANCE`]
    ///   (relative to the largest entry of the matrix) is encountered.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut factors = a.clone();
        let mut permutation: Vec<usize> = (0..n).collect();
        let mut permutation_sign = 1.0;
        let scale = a.norm_max().max(1.0);

        for k in 0..n {
            // Find the pivot row.
            let mut pivot_row = k;
            let mut pivot_value = factors[(k, k)].abs();
            for i in (k + 1)..n {
                let v = factors[(i, k)].abs();
                if v > pivot_value {
                    pivot_value = v;
                    pivot_row = i;
                }
            }
            if pivot_value < SINGULARITY_TOLERANCE * scale {
                return Err(LinalgError::Singular {
                    pivot: k,
                    value: pivot_value,
                });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = factors[(k, j)];
                    factors[(k, j)] = factors[(pivot_row, j)];
                    factors[(pivot_row, j)] = tmp;
                }
                permutation.swap(k, pivot_row);
                permutation_sign = -permutation_sign;
            }
            let pivot = factors[(k, k)];
            for i in (k + 1)..n {
                let multiplier = factors[(i, k)] / pivot;
                factors[(i, k)] = multiplier;
                // gis-analyze: allow(float-eq, structural-zero skip: exact zeros stay exact in elimination)
                if multiplier != 0.0 {
                    for j in (k + 1)..n {
                        let delta = multiplier * factors[(k, j)];
                        factors[(i, j)] -= delta;
                    }
                }
            }
        }

        Ok(LuDecomposition {
            factors,
            permutation,
            permutation_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation: y = P b.
        let mut x = Vector::zeros(n);
        for i in 0..n {
            x[i] = b[self.permutation[i]];
        }
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.factors[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.factors[(i, j)] * x[j];
            }
            x[i] = acc / self.factors[(i, i)];
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.permutation_sign;
        for i in 0..self.dim() {
            det *= self.factors[(i, i)];
        }
        det
    }
}

/// Solves `A x = b` in one call, factoring `a` internally.
///
/// Prefer constructing a [`LuDecomposition`] when the same matrix is solved
/// against several right-hand sides.
///
/// # Errors
///
/// Propagates factorization and dimension errors from [`LuDecomposition`].
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector> {
    LuDecomposition::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_like_matrix(n: usize, seed: u64) -> Matrix {
        // Simple deterministic pseudo-random fill (xorshift): gis-linalg sits
        // below gis-stats, so its tests cannot draw from an RngStream.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::from_fn(n, n, |_, _| next());
        // Diagonally dominate to guarantee non-singularity.
        for i in 0..n {
            m[(i, i)] += n as f64;
        }
        m
    }

    #[test]
    fn solve_small_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[3.0, 5.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn residual_small_for_larger_systems() {
        for n in [1, 2, 5, 10, 30] {
            let a = random_like_matrix(n, 42 + n as u64);
            let b: Vector = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
            let lu = LuDecomposition::new(&a).unwrap();
            let x = lu.solve(&b).unwrap();
            let residual = &a.matvec(&x).unwrap() - &b;
            assert!(
                residual.norm() < 1e-9 * b.norm().max(1.0),
                "residual too large for n={n}: {}",
                residual.norm()
            );
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = Vector::from_slice(&[2.0, 3.0]);
        let x = solve(&a, &b).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn determinant_matches_closed_form() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() - (-2.0)).abs() < 1e-12);
        let i = Matrix::identity(4);
        assert!((LuDecomposition::new(&i).unwrap().determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = Matrix::identity(3);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&Vector::zeros(2)).is_err());
    }
}
