//! Dense linear algebra kernels for the high-sigma SRAM extraction suite.
//!
//! This crate provides the small-to-medium dense linear algebra needed by the
//! circuit simulator (modified nodal analysis systems, typically 5–200 unknowns)
//! and by the statistical layer (covariance factorization, least squares for
//! scaled-sigma regression). It is deliberately self-contained: no BLAS, no
//! external math crates, so the whole reproduction builds offline.
//!
//! # Quick example
//!
//! ```
//! use gis_linalg::{Matrix, Vector, LuDecomposition};
//!
//! # fn main() -> Result<(), gis_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&b)?;
//! let residual = &a.matvec(&x)? - &b;
//! assert!(residual.norm() < 1e-12);
//! # Ok(())
//! # }
//! ```

// The workspace has zero unsafe code; lock that in per crate. (A crate
// attribute rather than a workspace lint so the counting-allocator
// integration test, which needs an unsafe GlobalAlloc impl, stays possible.)
#![forbid(unsafe_code)]
// Library code must justify every panic site (clippy::unwrap_used/expect_used
// are warn in [workspace.lints.clippy]); tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

mod cholesky;
pub mod elementary;
mod error;
mod lu;
mod matrix;
mod qr;
pub mod sparse;
mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lu::{solve, LuDecomposition};
pub use matrix::Matrix;
pub use qr::{least_squares, LeastSquares, QrDecomposition};
pub use vector::Vector;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Tolerance below which a pivot is considered numerically singular.
pub const SINGULARITY_TOLERANCE: f64 = 1e-14;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_compiles() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0]);
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let residual = &a.matvec(&x).unwrap() - &b;
        assert!(residual.norm() < 1e-12);
    }
}
