//! Dense, row-major matrix of `f64` values.

use crate::{LinalgError, Result, Vector};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// The circuit simulator assembles its modified-nodal-analysis Jacobian into a
/// `Matrix`, and the statistics layer uses it for covariance matrices and
/// design matrices. Storage is a flat `Vec<f64>` in row-major order.
///
/// # Examples
///
/// ```
/// use gis_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), gis_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let x = Vector::from_slice(&[1.0, 1.0]);
/// assert_eq!(a.matvec(&x)?.as_slice(), &[3.0, 7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the rows have differing lengths
    /// or if no rows are given.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "matrix must have at least one row".to_string(),
            ));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidArgument(
                "all rows must have the same length".to_string(),
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the flat row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `i` as a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> Vector {
        assert!(i < self.rows, "row index out of range");
        Vector::from_slice(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Returns column `j` as a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn column(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Sets every entry to zero, keeping the allocation. Used by the MNA
    /// assembler between Newton iterations.
    pub fn clear(&mut self) {
        for x in &mut self.data {
            *x = 0.0;
        }
    }

    /// Adds `value` to entry `(i, j)` — the fundamental "stamping" operation of
    /// modified nodal analysis.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, value: f64) {
        self[(i, j)] += value;
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "matvec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        let mut out = Vector::zeros(self.rows);
        for i in 0..self.rows {
            let mut acc = 0.0;
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows`.
    pub fn matvec_transposed(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matvec_transposed",
                left: (self.cols, self.rows),
                right: (x.len(), 1),
            });
        }
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, a) in row.iter().enumerate() {
                out[j] += a * xi;
            }
        }
        Ok(out)
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                // gis-analyze: allow(float-eq, structural-zero skip preserves sparsity without rounding)
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Returns a new matrix scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Extracts the main diagonal as a [`Vector`]. For rectangular matrices the
    /// diagonal has `min(rows, cols)` entries.
    pub fn diagonal(&self) -> Vector {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Computes the outer product `x yᵀ`.
    pub fn outer(x: &Vector, y: &Vector) -> Matrix {
        Matrix::from_fn(x.len(), y.len(), |i, j| x[i] * y[j])
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of range");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add dimension mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub dimension mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i.diagonal().as_slice(), &[1.0, 1.0, 1.0]);
        let d = Matrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_validation() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let x = Vector::from_slice(&[1.0, -1.0]);
        assert_eq!(a.matvec(&x).unwrap().as_slice(), &[-1.0, -1.0, -1.0]);
        let y = Vector::from_slice(&[1.0, 1.0, 1.0]);
        assert_eq!(a.matvec_transposed(&y).unwrap().as_slice(), &[9.0, 12.0]);
        assert_eq!(a.transposed().shape(), (2, 3));
        assert_eq!(a.transposed()[(0, 2)], 5.0);
    }

    #[test]
    fn matvec_dimension_mismatch() {
        let a = Matrix::zeros(2, 2);
        assert!(a.matvec(&Vector::zeros(3)).is_err());
        assert!(a.matvec_transposed(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn matmul_matches_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(1, 1)], 50.0);
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn row_and_column_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1).as_slice(), &[3.0, 4.0]);
        assert_eq!(a.column(0).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn stamping_and_clear() {
        let mut m = Matrix::zeros(2, 2);
        m.add_at(0, 0, 1.0);
        m.add_at(0, 0, 2.0);
        assert_eq!(m[(0, 0)], 3.0);
        m.clear();
        assert_eq!(m.norm_max(), 0.0);
    }

    #[test]
    fn norms_and_finiteness() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(a.norm_frobenius(), 5.0);
        assert_eq!(a.norm_max(), 4.0);
        assert!(a.is_finite());
    }

    #[test]
    fn outer_product() {
        let x = Vector::from_slice(&[1.0, 2.0]);
        let y = Vector::from_slice(&[3.0, 4.0, 5.0]);
        let o = Matrix::outer(&x, &y);
        assert_eq!(o.shape(), (2, 3));
        assert_eq!(o[(1, 2)], 10.0);
    }

    #[test]
    fn operators() {
        let a = Matrix::identity(2);
        let b = Matrix::from_diagonal(&[2.0, 2.0]);
        assert_eq!((&a + &a), b);
        assert_eq!((&b - &a), a);
        assert_eq!((&a * 2.0), b);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Matrix::identity(2)).is_empty());
    }
}
