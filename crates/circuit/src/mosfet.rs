//! MOSFET compact model.
//!
//! The model is a smooth long-channel square-law/EKV hybrid:
//!
//! * the effective overdrive is a soft-plus interpolation
//!   `V_ov,eff = 2nφ_t · ln(1 + exp((V_GS − V_T)/(2nφ_t)))`, which gives the
//!   classic square law in strong inversion and an exponential subthreshold
//!   characteristic in weak inversion — both matter for high-sigma SRAM
//!   failures, where one transistor can easily be pushed 5σ into subthreshold;
//! * triode and saturation regions are joined continuously at `V_DS = V_ov,eff`
//!   with channel-length modulation `(1 + λ V_DS)`;
//! * a linearized body effect `V_T = V_T0 + γ_lin · V_SB` captures the
//!   source-degeneration of the SRAM pass gates.
//!
//! The model returns the drain current and its partial derivatives
//! (`g_m`, `g_ds`, `g_mb`) so that the Newton solver can stamp a consistent
//! linearization.

use gis_linalg::elementary::{exp, ln};
use serde::{Deserialize, Serialize};

/// Thermal voltage at room temperature, in volts.
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// MOSFET channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosfetPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl MosfetPolarity {
    /// Sign convention multiplier: +1 for NMOS, −1 for PMOS.
    pub fn sign(self) -> f64 {
        match self {
            MosfetPolarity::Nmos => 1.0,
            MosfetPolarity::Pmos => -1.0,
        }
    }
}

/// Technology/model-card parameters of a MOSFET.
///
/// The defaults approximate a generic 45 nm low-power CMOS device and are the
/// basis of the SRAM cell used throughout the evaluation; per-instance
/// threshold-voltage shifts (process variation) are applied on top via
/// [`MosfetParams::with_vth_shift`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosfetParams {
    /// Channel polarity.
    pub polarity: MosfetPolarity,
    /// Zero-bias threshold voltage magnitude in volts (positive for both polarities).
    pub vth0: f64,
    /// Transconductance factor `k' · W/L` in A/V².
    pub k_prime: f64,
    /// Channel width in metres (used by the Pelgrom mismatch model).
    pub width: f64,
    /// Channel length in metres (used by the Pelgrom mismatch model).
    pub length: f64,
    /// Channel-length modulation coefficient λ in 1/V.
    pub lambda: f64,
    /// Subthreshold slope factor `n` (dimensionless, ≥ 1).
    pub subthreshold_slope: f64,
    /// Linearized body-effect coefficient γ_lin (dimensionless): `ΔV_T = γ_lin · V_SB`.
    pub body_effect: f64,
}

impl MosfetParams {
    /// Generic NMOS device for the 45 nm-class SRAM cell.
    pub fn nmos_45nm() -> Self {
        MosfetParams {
            polarity: MosfetPolarity::Nmos,
            vth0: 0.45,
            k_prime: 4.0e-4,
            width: 90e-9,
            length: 45e-9,
            lambda: 0.08,
            subthreshold_slope: 1.4,
            body_effect: 0.15,
        }
    }

    /// Generic PMOS device for the 45 nm-class SRAM cell (weaker than NMOS,
    /// reflecting the hole-mobility deficit).
    pub fn pmos_45nm() -> Self {
        MosfetParams {
            polarity: MosfetPolarity::Pmos,
            vth0: 0.45,
            k_prime: 2.0e-4,
            width: 90e-9,
            length: 45e-9,
            lambda: 0.10,
            subthreshold_slope: 1.4,
            body_effect: 0.15,
        }
    }

    /// Returns a copy with the channel width scaled by `factor` (the drive
    /// strength `k' W/L` scales along with it).
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn with_width_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "width factor must be positive");
        self.width *= factor;
        self.k_prime *= factor;
        self
    }

    /// Returns a copy with the threshold voltage shifted by `delta_v` volts.
    ///
    /// This is the hook through which the process-variation layer perturbs each
    /// transistor of the SRAM cell.
    pub fn with_vth_shift(mut self, delta_v: f64) -> Self {
        self.vth0 += delta_v;
        self
    }

    /// Validates the parameter set, returning a human-readable reason when invalid.
    pub fn validate(&self) -> Result<(), String> {
        if !self.vth0.is_finite() {
            return Err(format!("vth0 must be finite, got {}", self.vth0));
        }
        if !(self.k_prime > 0.0) || !self.k_prime.is_finite() {
            return Err(format!("k_prime must be positive, got {}", self.k_prime));
        }
        if !(self.width > 0.0) || !(self.length > 0.0) {
            return Err("width and length must be positive".to_string());
        }
        if self.lambda < 0.0 || !self.lambda.is_finite() {
            return Err(format!("lambda must be non-negative, got {}", self.lambda));
        }
        if self.subthreshold_slope < 1.0 {
            return Err(format!(
                "subthreshold slope factor must be >= 1, got {}",
                self.subthreshold_slope
            ));
        }
        if self.body_effect < 0.0 {
            return Err(format!(
                "body effect coefficient must be non-negative, got {}",
                self.body_effect
            ));
        }
        Ok(())
    }
}

/// Operating-point evaluation of a MOSFET: drain current and small-signal
/// conductances, all in the *device's own* polarity convention (current flows
/// drain→source for positive overdrive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetOperatingPoint {
    /// Drain current in amperes (positive flowing into the drain terminal for
    /// NMOS in normal operation; sign handled by the caller for PMOS).
    pub id: f64,
    /// Transconductance ∂I_D/∂V_GS in siemens.
    pub gm: f64,
    /// Output conductance ∂I_D/∂V_DS in siemens.
    pub gds: f64,
    /// Body transconductance ∂I_D/∂V_BS in siemens.
    pub gmb: f64,
}

/// Numerically safe soft-plus `s·ln(1 + exp(x/s))` and its derivative (the
/// logistic function).
///
/// This is the hot transcendental of the whole transient kernel: one `exp`
/// (and usually one `ln`) per MOSFET per Newton iteration, both
/// [`gis_linalg::elementary`]'s inlined routines rather than libm calls.
/// Each branch computes its `exp` exactly once.
#[inline]
fn softplus(x: f64, s: f64) -> (f64, f64) {
    let t = x / s;
    if t > 40.0 {
        (x, 1.0)
    } else if t < -40.0 {
        let e = exp(t);
        (s * e, e)
    } else {
        let e = exp(t);
        (s * ln(1.0 + e), e / (1.0 + e))
    }
}

impl MosfetParams {
    /// Evaluates the drain current and conductances for the *normalized* bias
    /// voltages of an N-type device: `vgs`, `vds ≥ 0`, `vbs ≤ 0` (for a PMOS
    /// the caller flips terminal voltages before calling and flips the current
    /// sign afterwards — see [`crate::mna`]).
    ///
    /// The returned current is guaranteed finite for finite inputs.
    #[inline]
    pub fn evaluate_normalized(&self, vgs: f64, vds: f64, vbs: f64) -> MosfetOperatingPoint {
        debug_assert!(vds >= 0.0, "evaluate_normalized requires vds >= 0");
        let n_phi_t = self.subthreshold_slope * THERMAL_VOLTAGE;
        // Linearized body effect: VT rises as the source rises above the body
        // (reverse body bias, vbs < 0) and drops symmetrically for forward bias.
        let vt = self.vth0 - self.body_effect * vbs;
        let dvt_dvbs = -self.body_effect;

        let vov = vgs - vt;
        let (vov_eff, dvov_eff_dvov) = softplus(vov, 2.0 * n_phi_t);
        // Guard against a zero effective overdrive deep in subthreshold.
        let vov_eff = vov_eff.max(1e-30);

        let clm = 1.0 + self.lambda * vds;
        let k = self.k_prime;

        let (id, did_dvoveff, did_dvds) = if vds < vov_eff {
            // Triode region.
            let core = vov_eff * vds - 0.5 * vds * vds;
            let id = k * core * clm;
            let did_dvoveff = k * vds * clm;
            let did_dvds = k * (vov_eff - vds) * clm + k * core * self.lambda;
            (id, did_dvoveff, did_dvds)
        } else {
            // Saturation region.
            let core = 0.5 * vov_eff * vov_eff;
            let id = k * core * clm;
            let did_dvoveff = k * vov_eff * clm;
            let did_dvds = k * core * self.lambda;
            (id, did_dvoveff, did_dvds)
        };

        let gm = did_dvoveff * dvov_eff_dvov;
        // VT depends on VBS; VOV = VGS − VT, so ∂I/∂VBS = −∂I/∂VOV · ∂VT/∂VBS.
        let gmb = -did_dvoveff * dvov_eff_dvov * dvt_dvbs;
        MosfetOperatingPoint {
            id: id.max(0.0),
            gm: gm.max(0.0),
            gds: did_dvds.max(0.0),
            gmb: gmb.max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(MosfetParams::nmos_45nm().validate().is_ok());
        assert!(MosfetParams::pmos_45nm().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut p = MosfetParams::nmos_45nm();
        p.k_prime = -1.0;
        assert!(p.validate().is_err());
        let mut p = MosfetParams::nmos_45nm();
        p.subthreshold_slope = 0.5;
        assert!(p.validate().is_err());
        let mut p = MosfetParams::nmos_45nm();
        p.vth0 = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = MosfetParams::nmos_45nm();
        p.width = 0.0;
        assert!(p.validate().is_err());
        let mut p = MosfetParams::nmos_45nm();
        p.lambda = -0.1;
        assert!(p.validate().is_err());
        let mut p = MosfetParams::nmos_45nm();
        p.body_effect = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn vth_shift_and_width_factor() {
        let p = MosfetParams::nmos_45nm();
        let shifted = p.with_vth_shift(0.05);
        assert!((shifted.vth0 - (p.vth0 + 0.05)).abs() < 1e-15);
        let wide = p.with_width_factor(2.0);
        assert!((wide.k_prime - 2.0 * p.k_prime).abs() < 1e-15);
        assert!((wide.width - 2.0 * p.width).abs() < 1e-15);
    }

    #[test]
    fn strong_inversion_square_law() {
        let p = MosfetParams::nmos_45nm();
        // Deep saturation: vds large, vgs well above threshold.
        let op = p.evaluate_normalized(1.0, 1.0, 0.0);
        let vov = 1.0 - p.vth0;
        let expected = 0.5 * p.k_prime * vov * vov * (1.0 + p.lambda * 1.0);
        let rel = (op.id - expected).abs() / expected;
        assert!(rel < 0.02, "square law mismatch: {} vs {expected}", op.id);
        assert!(op.gm > 0.0 && op.gds > 0.0);
    }

    #[test]
    fn subthreshold_is_exponential() {
        let p = MosfetParams::nmos_45nm();
        // 200 mV below threshold vs 300 mV below threshold at fixed vds — deep
        // enough that the soft-plus interpolation has converged to its
        // exponential asymptote.
        let i1 = p.evaluate_normalized(p.vth0 - 0.2, 0.5, 0.0).id;
        let i2 = p.evaluate_normalized(p.vth0 - 0.3, 0.5, 0.0).id;
        assert!(i1 > i2);
        let decade_ratio = i1 / i2;
        // 100 mV / (n · φt · ln 10) ≈ 1.2 decades for n = 1.4.
        let expected = 10f64.powf(0.1 / (p.subthreshold_slope * THERMAL_VOLTAGE * 10f64.ln()));
        let rel = (decade_ratio - expected).abs() / expected;
        assert!(
            rel < 0.1,
            "subthreshold slope off: {decade_ratio} vs {expected}"
        );
    }

    #[test]
    fn cutoff_current_is_negligible() {
        let p = MosfetParams::nmos_45nm();
        let op = p.evaluate_normalized(0.0, 1.0, 0.0);
        assert!(op.id < 1e-9, "off current too large: {}", op.id);
        assert!(op.id > 0.0, "off current should be positive (leakage)");
    }

    #[test]
    fn triode_current_increases_with_vds_and_is_continuous_at_vdsat() {
        let p = MosfetParams::nmos_45nm();
        let vgs = 1.0;
        let vov = vgs - p.vth0;
        let below = p.evaluate_normalized(vgs, vov - 1e-6, 0.0).id;
        let above = p.evaluate_normalized(vgs, vov + 1e-6, 0.0).id;
        assert!(
            (below - above).abs() / above < 1e-3,
            "discontinuity at vdsat"
        );
        let low = p.evaluate_normalized(vgs, 0.05, 0.0).id;
        let high = p.evaluate_normalized(vgs, 0.3, 0.0).id;
        assert!(high > low);
    }

    #[test]
    fn body_effect_raises_threshold() {
        let p = MosfetParams::nmos_45nm();
        let no_body = p.evaluate_normalized(0.8, 0.8, 0.0).id;
        let with_body = p.evaluate_normalized(0.8, 0.8, -0.3).id;
        assert!(with_body < no_body);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let p = MosfetParams::nmos_45nm();
        let cases = [
            (0.9, 0.7, -0.1),
            (0.6, 0.2, 0.0),
            (0.4, 0.9, -0.2), // near/below threshold
            (1.1, 0.05, 0.0), // deep triode
        ];
        let h = 1e-7;
        for (vgs, vds, vbs) in cases {
            let op = p.evaluate_normalized(vgs, vds, vbs);
            let gm_fd = (p.evaluate_normalized(vgs + h, vds, vbs).id
                - p.evaluate_normalized(vgs - h, vds, vbs).id)
                / (2.0 * h);
            let gds_fd = (p.evaluate_normalized(vgs, vds + h, vbs).id
                - p.evaluate_normalized(vgs, vds - h, vbs).id)
                / (2.0 * h);
            let gmb_fd = (p.evaluate_normalized(vgs, vds, vbs + h).id
                - p.evaluate_normalized(vgs, vds, vbs - h).id)
                / (2.0 * h);
            let check = |analytic: f64, fd: f64, name: &str| {
                let scale = analytic.abs().max(fd.abs()).max(1e-12);
                assert!(
                    (analytic - fd).abs() / scale < 1e-3,
                    "{name} mismatch at ({vgs},{vds},{vbs}): {analytic} vs {fd}"
                );
            };
            check(op.gm, gm_fd, "gm");
            check(op.gds, gds_fd, "gds");
            check(op.gmb, gmb_fd, "gmb");
        }
    }

    #[test]
    fn polarity_sign() {
        assert_eq!(MosfetPolarity::Nmos.sign(), 1.0);
        assert_eq!(MosfetPolarity::Pmos.sign(), -1.0);
    }

    #[test]
    fn current_monotone_in_vgs() {
        let p = MosfetParams::nmos_45nm();
        let mut prev = 0.0;
        let mut vgs = 0.0;
        while vgs <= 1.2 {
            let id = p.evaluate_normalized(vgs, 0.6, 0.0).id;
            assert!(id >= prev, "current not monotone at vgs={vgs}");
            prev = id;
            vgs += 0.02;
        }
    }
}
