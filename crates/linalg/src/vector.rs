//! Dense, heap-allocated vector of `f64` with the arithmetic needed by the suite.

use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense vector of `f64` values.
///
/// `Vector` is the workhorse container for node voltages, variation vectors in
/// whitened z-space, gradients and sample points. It intentionally supports a
/// rich but small set of operations; anything fancier lives in the consumers.
///
/// # Examples
///
/// ```
/// use gis_linalg::Vector;
///
/// let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
/// let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
/// assert_eq!(a.dot(&b).unwrap(), 32.0);
/// assert!((a.norm() - 14.0_f64.sqrt()).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` entries, all equal to `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Creates a vector from a slice, copying the values.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector taking ownership of `values`.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Vector { data: values }
    }

    /// Creates a unit basis vector `e_i` of dimension `len`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `index >= len`.
    pub fn basis(len: usize, index: usize) -> Result<Self> {
        if index >= len {
            return Err(LinalgError::InvalidArgument(format!(
                "basis index {index} out of range for length {len}"
            )));
        }
        let mut v = Vector::zeros(len);
        v.data[index] = 1.0;
        Ok(v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying storage as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the underlying storage as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the vector and return the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterate over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Iterate mutably over the entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "dot",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Squared Euclidean norm, cheaper than [`Vector::norm`] when the square is what you need.
    pub fn norm_squared(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>()
    }

    /// Infinity norm (largest absolute entry). Returns `0.0` for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Returns a new vector scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Scales the vector in place.
    pub fn scale_in_place(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// `self + alpha * other` (BLAS `axpy`), returning a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn axpy(&self, alpha: f64, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "axpy",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(Vector {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + alpha * b)
                .collect(),
        })
    }

    /// Returns the unit vector in the direction of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the vector has (near-)zero norm.
    pub fn normalized(&self) -> Result<Vector> {
        let n = self.norm();
        if n < crate::SINGULARITY_TOLERANCE {
            return Err(LinalgError::InvalidArgument(
                "cannot normalize a zero vector".to_string(),
            ));
        }
        Ok(self.scaled(1.0 / n))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of the entries. Returns `0.0` for an empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Largest entry, or `f64::NEG_INFINITY` for an empty vector.
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .fold(f64::NEG_INFINITY, |acc, &x| acc.max(x))
    }

    /// Smallest entry, or `f64::INFINITY` for an empty vector.
    pub fn min(&self) -> f64 {
        self.data.iter().fold(f64::INFINITY, |acc, &x| acc.min(x))
    }

    /// Returns `true` if every entry is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Set every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        for x in &mut self.data {
            *x = value;
        }
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6e}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f64>> for Vector {
    fn from(values: Vec<f64>) -> Self {
        Vector::from_vec(values)
    }
}

impl From<Vector> for Vec<f64> {
    fn from(v: Vector) -> Self {
        v.into_vec()
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

// Element-wise operators panic on dimension mismatch: they are used in hot inner
// loops where the dimensions are fixed by construction, and the fallible
// equivalents (`axpy`, `dot`) exist for boundary code.
impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector add dimension mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector sub dimension mismatch");
        Vector {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector add dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector sub dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Vector::zeros(4);
        assert_eq!(z.len(), 4);
        assert_eq!(z.sum(), 0.0);
        let f = Vector::filled(3, 2.5);
        assert_eq!(f.sum(), 7.5);
    }

    #[test]
    fn basis_vector() {
        let e1 = Vector::basis(3, 1).unwrap();
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
        assert!(Vector::basis(3, 3).is_err());
    }

    #[test]
    fn dot_and_norm() {
        let a = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_squared(), 25.0);
        assert_eq!(a.norm_inf(), 4.0);
        let b = Vector::from_slice(&[1.0, -1.0]);
        assert_eq!(a.dot(&b).unwrap(), -1.0);
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn axpy_matches_manual() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[10.0, 20.0]);
        let c = a.axpy(0.5, &b).unwrap();
        assert_eq!(c.as_slice(), &[6.0, 12.0]);
    }

    #[test]
    fn normalized_unit_norm() {
        let a = Vector::from_slice(&[3.0, 4.0]);
        let u = a.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert!(Vector::zeros(2).normalized().is_err());
    }

    #[test]
    fn statistics_helpers() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert!(a.is_finite());
        let mut b = a.clone();
        b[0] = f64::NAN;
        assert!(!b.is_finite());
    }

    #[test]
    fn operator_overloads() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn conversions_and_iteration() {
        let v: Vector = vec![1.0, 2.0].into();
        let back: Vec<f64> = v.clone().into();
        assert_eq!(back, vec![1.0, 2.0]);
        let collected: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(collected.as_slice(), &[0.0, 1.0, 2.0]);
        let total: f64 = (&collected).into_iter().sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from_slice(&[1.0]);
        assert!(!format!("{v}").is_empty());
        assert!(!format!("{}", Vector::zeros(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_panics_on_mismatch() {
        let _ = &Vector::zeros(2) + &Vector::zeros(3);
    }
}
