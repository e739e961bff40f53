//! Process-variation modelling for statistical SRAM analysis.
//!
//! The dominant variation mechanism for minimum-size SRAM transistors is local
//! threshold-voltage mismatch caused by random dopant fluctuation. Its standard
//! deviation follows the Pelgrom law `σ(ΔV_T) = A_VT / sqrt(W·L)`. This crate
//! provides:
//!
//! * [`PelgromModel`] — the mismatch coefficient and the σ(ΔV_T) it implies for
//!   a given device geometry,
//! * [`VariationParameter`] / [`VariationSpace`] — the mapping between the
//!   *whitened* space (independent standard normal `z` variables, where all
//!   estimators operate) and physical parameter deltas (ΔV_T per transistor),
//!   one independent Gaussian per parameter, and
//! * [`GlobalCorner`] — systematic (die-to-die) shifts that can be layered on
//!   top of the local mismatch.
//!
//! # Example
//!
//! ```
//! use gis_variation::{PelgromModel, VariationSpace, VariationParameter};
//! use gis_stats::RngStream;
//!
//! let pelgrom = PelgromModel::new(2.5e-9); // 2.5 mV·µm
//! let sigma = pelgrom.sigma_vth(90e-9, 45e-9);
//! let space = VariationSpace::independent(
//!     (0..6).map(|i| VariationParameter::new(format!("M{i}.dVth"), sigma)),
//! );
//! let mut rng = RngStream::from_seed(1);
//! let (z, deltas) = space.sample(&mut rng);
//! assert_eq!(z.len(), 6);
//! assert_eq!(deltas.len(), 6);
//! ```

// The workspace has zero unsafe code; lock that in per crate. (A crate
// attribute rather than a workspace lint so the counting-allocator
// integration test, which needs an unsafe GlobalAlloc impl, stays possible.)
#![forbid(unsafe_code)]
// Library code must justify every panic site (clippy::unwrap_used/expect_used
// are warn in [workspace.lints.clippy]); tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

use gis_linalg::Vector;
use gis_stats::RngStream;
use serde::{Deserialize, Serialize};

/// Pelgrom mismatch model for threshold voltage variation.
///
/// `σ(ΔV_T) = A_VT / sqrt(W · L)` with `A_VT` in V·m (e.g. `2.5e-9` V·m
/// ≡ 2.5 mV·µm, a typical 45 nm-class value).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PelgromModel {
    a_vt: f64,
}

impl PelgromModel {
    /// Creates a model with the mismatch coefficient `a_vt` in V·m.
    ///
    /// # Panics
    ///
    /// Panics if `a_vt` is not positive and finite.
    pub fn new(a_vt: f64) -> Self {
        assert!(
            a_vt > 0.0 && a_vt.is_finite(),
            "Pelgrom coefficient must be positive and finite"
        );
        PelgromModel { a_vt }
    }

    /// Typical coefficient for a 45 nm-class low-power process (2.5 mV·µm).
    pub fn typical_45nm() -> Self {
        PelgromModel::new(2.5e-9)
    }

    /// The mismatch coefficient `A_VT` in V·m.
    pub fn a_vt(&self) -> f64 {
        self.a_vt
    }

    /// Standard deviation of ΔV_T in volts for a device of the given width and
    /// length (metres).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `length` is not positive.
    pub fn sigma_vth(&self, width: f64, length: f64) -> f64 {
        assert!(
            width > 0.0 && length > 0.0,
            "device geometry must be positive"
        );
        self.a_vt / (width * length).sqrt()
    }
}

/// Systematic process corners applied on top of local mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GlobalCorner {
    /// Typical NMOS, typical PMOS.
    TypicalTypical,
    /// Fast NMOS, fast PMOS (lower thresholds).
    FastFast,
    /// Slow NMOS, slow PMOS (higher thresholds).
    SlowSlow,
    /// Fast NMOS, slow PMOS.
    FastSlow,
    /// Slow NMOS, fast PMOS.
    SlowFast,
}

impl GlobalCorner {
    /// Systematic threshold shift `(ΔV_T,NMOS, ΔV_T,PMOS)` in volts, using a
    /// global spread of `magnitude` volts.
    pub fn vth_shifts(self, magnitude: f64) -> (f64, f64) {
        match self {
            GlobalCorner::TypicalTypical => (0.0, 0.0),
            GlobalCorner::FastFast => (-magnitude, -magnitude),
            GlobalCorner::SlowSlow => (magnitude, magnitude),
            GlobalCorner::FastSlow => (-magnitude, magnitude),
            GlobalCorner::SlowFast => (magnitude, -magnitude),
        }
    }

    /// All five corners, convenient for sweeps.
    pub fn all() -> [GlobalCorner; 5] {
        [
            GlobalCorner::TypicalTypical,
            GlobalCorner::FastFast,
            GlobalCorner::SlowSlow,
            GlobalCorner::FastSlow,
            GlobalCorner::SlowFast,
        ]
    }
}

/// One scalar process parameter subject to variation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationParameter {
    /// Human-readable name, e.g. `"M_PGL.dVth"`.
    pub name: String,
    /// Physical standard deviation (volts for ΔV_T).
    pub std_dev: f64,
}

impl VariationParameter {
    /// Creates a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is not positive and finite.
    pub fn new(name: impl Into<String>, std_dev: f64) -> Self {
        assert!(
            std_dev > 0.0 && std_dev.is_finite(),
            "standard deviation must be positive and finite"
        );
        VariationParameter {
            name: name.into(),
            std_dev,
        }
    }
}

/// The variation space: a named, ordered set of Gaussian process parameters and
/// the transform between whitened `z`-space and physical deltas.
///
/// All estimators in `gis-core` work in `z`-space, where the nominal design sits
/// at the origin and distance is measured in sigmas.
#[derive(Debug, Clone)]
pub struct VariationSpace {
    parameters: Vec<VariationParameter>,
}

impl VariationSpace {
    /// Creates a space of independent parameters.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields no parameters.
    pub fn independent(parameters: impl IntoIterator<Item = VariationParameter>) -> Self {
        let parameters: Vec<_> = parameters.into_iter().collect();
        assert!(
            !parameters.is_empty(),
            "variation space needs at least one parameter"
        );
        VariationSpace { parameters }
    }

    /// Number of variation parameters (the dimension of `z`-space).
    pub fn dim(&self) -> usize {
        self.parameters.len()
    }

    /// The parameters, in order.
    pub fn parameters(&self) -> &[VariationParameter] {
        &self.parameters
    }

    /// Parameter names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.parameters.iter().map(|p| p.name.as_str()).collect()
    }

    /// Physical standard deviations, in order.
    pub fn std_devs(&self) -> Vector {
        self.parameters.iter().map(|p| p.std_dev).collect()
    }

    /// Maps a whitened point `z` to physical parameter deltas
    /// `Δ = diag(σ) · z`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != dim()`.
    pub fn to_physical(&self, z: &Vector) -> Vector {
        let mut deltas = Vector::zeros(z.len());
        self.to_physical_into(z.as_slice(), deltas.as_mut_slice());
        deltas
    }

    /// Writes the physical deltas `Δ = diag(σ) · z` of the whitened point `z`
    /// into `deltas`: the in-place form of [`VariationSpace::to_physical`].
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` or `deltas.len()` differs from `dim()`.
    pub fn to_physical_into(&self, z: &[f64], deltas: &mut [f64]) {
        assert_eq!(z.len(), self.dim(), "dimension mismatch in to_physical");
        assert_eq!(
            deltas.len(),
            self.dim(),
            "dimension mismatch in to_physical"
        );
        for ((d, p), &c) in deltas.iter_mut().zip(&self.parameters).zip(z) {
            *d = p.std_dev * c;
        }
    }

    /// Maps physical parameter deltas back to the whitened space (inverse of
    /// [`VariationSpace::to_physical`]).
    ///
    /// # Panics
    ///
    /// Panics if `deltas.len() != dim()`.
    pub fn to_whitened(&self, deltas: &Vector) -> Vector {
        assert_eq!(
            deltas.len(),
            self.dim(),
            "dimension mismatch in to_whitened"
        );
        self.parameters
            .iter()
            .zip(deltas.iter())
            .map(|(p, &d)| d / p.std_dev)
            .collect()
    }

    /// Draws one sample: a whitened point and its physical deltas.
    pub fn sample(&self, rng: &mut RngStream) -> (Vector, Vector) {
        let z = rng.standard_normal_vector(self.dim());
        let physical = self.to_physical(&z);
        (z, physical)
    }
}

/// Builds the canonical 6-transistor SRAM variation space: one ΔV_T parameter
/// per transistor with Pelgrom-scaled standard deviation.
///
/// The order of the parameters is fixed and matches
/// `gis-sram`: `[PGL, PDL, PUL, PGR, PDR, PUR]` (pass-gate, pull-down, pull-up;
/// left then right).
pub fn sram_6t_variation_space(
    pelgrom: &PelgromModel,
    widths_lengths: &[(f64, f64); 6],
) -> VariationSpace {
    const NAMES: [&str; 6] = [
        "PGL.dVth", "PDL.dVth", "PUL.dVth", "PGR.dVth", "PDR.dVth", "PUR.dVth",
    ];
    VariationSpace::independent(
        NAMES
            .iter()
            .zip(widths_lengths.iter())
            .map(|(name, (w, l))| VariationParameter::new(*name, pelgrom.sigma_vth(*w, *l))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pelgrom_scaling() {
        let m = PelgromModel::new(2.5e-9);
        let s1 = m.sigma_vth(90e-9, 45e-9);
        let s2 = m.sigma_vth(180e-9, 45e-9);
        // Doubling the area by doubling W reduces sigma by sqrt(2).
        assert!((s1 / s2 - 2f64.sqrt()).abs() < 1e-12);
        // Typical 45nm minimum device lands in the tens of millivolts.
        assert!(s1 > 0.02 && s1 < 0.06, "sigma {s1}");
        assert_eq!(m.a_vt(), 2.5e-9);
        assert_eq!(PelgromModel::typical_45nm().a_vt(), 2.5e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn pelgrom_rejects_bad_coefficient() {
        let _ = PelgromModel::new(0.0);
    }

    #[test]
    #[should_panic(expected = "geometry must be positive")]
    fn pelgrom_rejects_bad_geometry() {
        let _ = PelgromModel::typical_45nm().sigma_vth(0.0, 45e-9);
    }

    #[test]
    fn corners() {
        assert_eq!(GlobalCorner::TypicalTypical.vth_shifts(0.03), (0.0, 0.0));
        assert_eq!(GlobalCorner::FastFast.vth_shifts(0.03), (-0.03, -0.03));
        assert_eq!(GlobalCorner::SlowSlow.vth_shifts(0.03), (0.03, 0.03));
        assert_eq!(GlobalCorner::FastSlow.vth_shifts(0.03), (-0.03, 0.03));
        assert_eq!(GlobalCorner::SlowFast.vth_shifts(0.03), (0.03, -0.03));
        assert_eq!(GlobalCorner::all().len(), 5);
    }

    #[test]
    fn independent_space_round_trip() {
        let space = VariationSpace::independent([
            VariationParameter::new("a", 0.01),
            VariationParameter::new("b", 0.05),
        ]);
        assert_eq!(space.dim(), 2);
        assert_eq!(space.names(), vec!["a", "b"]);
        assert_eq!(space.std_devs().as_slice(), &[0.01, 0.05]);
        let z = Vector::from_slice(&[2.0, -1.0]);
        let phys = space.to_physical(&z);
        assert!((phys[0] - 0.02).abs() < 1e-15);
        assert!((phys[1] + 0.05).abs() < 1e-15);
        let back = space.to_whitened(&phys);
        assert!((&back - &z).norm() < 1e-12);
        assert_eq!(space.parameters().len(), 2);
    }

    #[test]
    fn sample_moments() {
        let space = VariationSpace::independent([VariationParameter::new("a", 0.03)]);
        let mut rng = RngStream::from_seed(9);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let (_, p) = space.sample(&mut rng);
            sum += p[0];
            sum_sq += p[0] * p[0];
        }
        let mean = sum / n as f64;
        let std = (sum_sq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 5e-4);
        assert!((std - 0.03).abs() < 5e-4);
    }

    #[test]
    fn sram_space_has_six_parameters() {
        let pelgrom = PelgromModel::typical_45nm();
        let wl = [(90e-9, 45e-9); 6];
        let space = sram_6t_variation_space(&pelgrom, &wl);
        assert_eq!(space.dim(), 6);
        assert!(space.names()[0].contains("PGL"));
        assert!(space.names()[5].contains("PUR"));
    }

    #[test]
    #[should_panic(expected = "at least one parameter")]
    fn independent_rejects_empty() {
        let _ = VariationSpace::independent(std::iter::empty());
    }
}
