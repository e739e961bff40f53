//! Probability distributions, random streams, sampling plans and summary
//! statistics for high-sigma statistical extraction.
//!
//! The estimators in `gis-core` operate in a *whitened* variation space where
//! every process parameter is an independent standard normal. This crate
//! supplies everything that layer needs:
//!
//! * accurate standard-normal `Φ`, `Φ⁻¹` and density functions (the tail
//!   accuracy of `Φ⁻¹` directly controls how well failure probabilities map to
//!   equivalent sigma levels),
//! * isotropic multivariate normal proposal distributions `N(μ, s²·I)` with
//!   arbitrary mean shift and scale, and mixtures of them (for importance
//!   sampling),
//! * reproducible, splittable random streams,
//! * space-filling sampling plans (Latin hypercube, uniform-on-sphere shells)
//!   used by the spherical-presampling baseline, and
//! * streaming summary statistics (Welford), histograms and the binomial and
//!   chi-square tests the calibration harness applies.
//!
//! # Example
//!
//! ```
//! use gis_stats::{normal, RngStream};
//!
//! // 3-sigma upper-tail probability, and back.
//! let p = normal::upper_tail_probability(3.0);
//! assert!((normal::sigma_level(p) - 3.0).abs() < 1e-9);
//!
//! // Reproducible random stream.
//! let mut stream = RngStream::from_seed(42);
//! let z = stream.standard_normal();
//! assert!(z.is_finite());
//! ```

// The workspace has zero unsafe code; lock that in per crate. (A crate
// attribute rather than a workspace lint so the counting-allocator
// integration test, which needs an unsafe GlobalAlloc impl, stays possible.)
#![forbid(unsafe_code)]
// Library code must justify every panic site (clippy::unwrap_used/expect_used
// are warn in [workspace.lints.clippy]); tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod histogram;
pub mod mvn;
pub mod normal;
pub mod rng;
pub mod sampling;
pub mod summary;

pub use histogram::Histogram;
pub use mvn::{GaussianMixture, MultivariateNormal};
pub use rng::RngStream;
pub use sampling::{latin_hypercube, uniform_on_sphere};
pub use summary::{
    binomial_acceptance_band, binomial_cdf, chi_square_statistic, pearson_correlation, quantile_of,
    OnlineStats,
};

/// Error type for statistics routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// An argument was outside its valid domain.
    InvalidArgument(String),
    /// A linear algebra operation failed (e.g. a covariance matrix that is not
    /// positive definite).
    Linalg(gis_linalg::LinalgError),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            StatsError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for StatsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StatsError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gis_linalg::LinalgError> for StatsError {
    fn from(e: gis_linalg::LinalgError) -> Self {
        StatsError::Linalg(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = StatsError::InvalidArgument("nope".into());
        assert!(e.to_string().contains("nope"));
        let le = gis_linalg::LinalgError::NotSquare { rows: 1, cols: 2 };
        let e: StatsError = le.into();
        assert!(e.to_string().contains("linear algebra"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
