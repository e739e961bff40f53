//! Analytical surrogate model of the 6T cell dynamic characteristics.
//!
//! Large experiments (dimensionality sweeps, 10⁷-sample brute-force Monte Carlo
//! references) are infeasible on the transient simulator even though one sample
//! only costs milliseconds. The surrogate captures the *mechanism* of each
//! metric — series drive strength of the read path, write contention between
//! pass gate and pull-up — with smooth closed-form expressions, so that:
//!
//! * the metric grows without bound as the responsible devices weaken (the same
//!   heavy right tail the transient shows),
//! * the failure region lies in the same corner of the variation space as in
//!   the transient testbench (weak pass-gate/pull-down for read, weak pass-gate
//!   plus strong pull-up for write), and
//! * gradients are smooth, so the gradient-guided search behaves the same way.
//!
//! The nominal time constants can be calibrated against the transient
//! testbench ([`SramSurrogate::calibrated_to`]) so absolute values line up.

use crate::cell::{CellTransistor, SramCellConfig};
use crate::error::SramError;
use crate::testbench::SramTestbench;
use gis_linalg::elementary::{exp, ln};
use serde::{Deserialize, Serialize};

/// Smooth, strictly positive drive-strength function.
///
/// `drive(x) ≈ x^alpha` for healthy overdrive (`x ≳ 0.2`) and decays smoothly
/// to (almost) zero as the overdrive collapses, mimicking the transition of a
/// MOSFET into subthreshold.
fn drive(normalized_overdrive: f64, alpha: f64) -> f64 {
    let s = 0.05; // smoothness of the subthreshold corner
    let x = normalized_overdrive;
    let softplus = if x / s > 40.0 {
        x
    } else {
        s * ln(1.0 + exp(x / s))
    };
    softplus.powf(alpha)
}

/// Closed-form surrogate of the 6T cell dynamic characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SramSurrogate {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Nominal NMOS threshold (pass gate / pull down) in volts.
    pub vth_n: f64,
    /// Nominal PMOS threshold magnitude in volts.
    pub vth_p: f64,
    /// Read-path beta ratio (pull-down strength / pass-gate strength).
    pub beta_ratio: f64,
    /// Write contention ratio (pull-up strength / pass-gate strength).
    pub contention_ratio: f64,
    /// Velocity-saturation exponent of the drive current.
    pub alpha: f64,
    /// Nominal read access time in seconds.
    pub t_read_nominal: f64,
    /// Nominal write delay in seconds.
    pub t_write_nominal: f64,
    /// Ceiling applied to returned times, in seconds (keeps the metric finite).
    pub time_ceiling: f64,
}

impl Default for SramSurrogate {
    fn default() -> Self {
        SramSurrogate::typical_45nm()
    }
}

impl SramSurrogate {
    /// Surrogate matching the default 45 nm cell of [`SramCellConfig`].
    pub fn typical_45nm() -> Self {
        let cell = SramCellConfig::typical_45nm();
        SramSurrogate {
            vdd: cell.vdd,
            vth_n: cell.pass_gate.vth0,
            vth_p: cell.pull_up.vth0,
            beta_ratio: cell.pull_down.k_prime / cell.pass_gate.k_prime,
            contention_ratio: cell.pull_up.k_prime / cell.pass_gate.k_prime,
            alpha: 1.3,
            t_read_nominal: 0.25e-9,
            t_write_nominal: 0.12e-9,
            time_ceiling: 1.0e-6,
        }
    }

    /// Builds a surrogate whose nominal read and write times are calibrated to
    /// one nominal run of the transient testbench.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the testbench.
    pub fn calibrated_to(testbench: &SramTestbench) -> Result<Self, SramError> {
        let mut surrogate = SramSurrogate {
            vdd: testbench.cell().vdd,
            vth_n: testbench.cell().pass_gate.vth0,
            vth_p: testbench.cell().pull_up.vth0,
            beta_ratio: testbench.cell().pull_down.k_prime / testbench.cell().pass_gate.k_prime,
            contention_ratio: testbench.cell().pull_up.k_prime / testbench.cell().pass_gate.k_prime,
            ..SramSurrogate::typical_45nm()
        };
        let nominal_read = testbench.read(&[0.0; 6])?;
        let nominal_write = testbench.write(&[0.0; 6])?;
        if !nominal_read.sensed || !nominal_write.flipped {
            return Err(SramError::InvalidConfig(
                "nominal cell fails; cannot calibrate the surrogate".to_string(),
            ));
        }
        surrogate.t_read_nominal = nominal_read.access_time;
        surrogate.t_write_nominal = nominal_write.write_delay;
        Ok(surrogate)
    }

    /// Normalized drive strength of an NMOS with threshold shift `delta`.
    fn nmos_drive(&self, delta: f64) -> f64 {
        let nominal_overdrive = self.vdd - self.vth_n;
        drive((nominal_overdrive - delta) / nominal_overdrive, self.alpha)
    }

    /// Normalized drive strength of a PMOS with threshold shift `delta`
    /// (positive `delta` = higher |V_T| = weaker device).
    fn pmos_drive(&self, delta: f64) -> f64 {
        let nominal_overdrive = self.vdd - self.vth_p;
        drive((nominal_overdrive - delta) / nominal_overdrive, self.alpha)
    }

    /// Read access time in seconds for the given per-transistor ΔV_T (canonical
    /// order, volts).
    ///
    /// # Panics
    ///
    /// Panics if `vth_deltas.len() != 6`.
    pub fn read_access_time(&self, vth_deltas: &[f64]) -> f64 {
        assert_eq!(vth_deltas.len(), 6, "expected 6 threshold deltas");
        let d_pgl = vth_deltas[CellTransistor::PassGateLeft.index()];
        let d_pdl = vth_deltas[CellTransistor::PullDownLeft.index()];
        let d_pur = vth_deltas[CellTransistor::PullUpRight.index()];
        let d_pdr = vth_deltas[CellTransistor::PullDownRight.index()];

        // Series discharge path: pass gate and pull-down.
        let g_pg = self.nmos_drive(d_pgl);
        let g_pd = self.beta_ratio * self.nmos_drive(d_pdl);
        let series = 1.0 / (1.0 / g_pg.max(1e-12) + 1.0 / g_pd.max(1e-12));
        let g_pg0 = self.nmos_drive(0.0);
        let g_pd0 = self.beta_ratio * self.nmos_drive(0.0);
        let series0 = 1.0 / (1.0 / g_pg0 + 1.0 / g_pd0);

        // Weak coupling to the opposite inverter: a skewed trip point slightly
        // modulates how hard the internal node is held down during the read.
        let trip_skew = 1.0 + 0.08 * (d_pur - d_pdr) / self.vdd;

        (self.t_read_nominal * (series0 / series) * trip_skew).min(self.time_ceiling)
    }

    /// Peak read-disturb voltage (volts) on the low storage node during a read.
    ///
    /// # Panics
    ///
    /// Panics if `vth_deltas.len() != 6`.
    pub fn read_disturb_voltage(&self, vth_deltas: &[f64]) -> f64 {
        assert_eq!(vth_deltas.len(), 6, "expected 6 threshold deltas");
        let d_pgl = vth_deltas[CellTransistor::PassGateLeft.index()];
        let d_pdl = vth_deltas[CellTransistor::PullDownLeft.index()];
        let g_pg = self.nmos_drive(d_pgl);
        let g_pd = self.beta_ratio * self.nmos_drive(d_pdl);
        self.vdd * g_pg / (g_pg + g_pd).max(1e-12)
    }

    /// Write delay in seconds for the given per-transistor ΔV_T (canonical
    /// order, volts). Values close to [`SramSurrogate::time_ceiling`] indicate a
    /// failed (never-completing) write.
    ///
    /// # Panics
    ///
    /// Panics if `vth_deltas.len() != 6`.
    pub fn write_delay(&self, vth_deltas: &[f64]) -> f64 {
        assert_eq!(vth_deltas.len(), 6, "expected 6 threshold deltas");
        let d_pgl = vth_deltas[CellTransistor::PassGateLeft.index()];
        let d_pul = vth_deltas[CellTransistor::PullUpLeft.index()];
        let d_pdr = vth_deltas[CellTransistor::PullDownRight.index()];
        let d_pur = vth_deltas[CellTransistor::PullUpRight.index()];

        // Contention between the pass gate pulling Q down and the pull-up
        // holding it high.
        let pull = self.nmos_drive(d_pgl);
        let oppose = self.contention_ratio * self.pmos_drive(d_pul);
        let net = pull - oppose;
        let pull0 = self.nmos_drive(0.0);
        let oppose0 = self.contention_ratio * self.pmos_drive(0.0);
        let net0 = pull0 - oppose0;

        // Smooth barrier: as the net pull-down strength collapses the delay
        // diverges (the write fails).
        let s = 0.02;
        let net_soft = s * ln(1.0 + exp(net / s));
        let net_soft = if net / s > 40.0 { net } else { net_soft };

        // The second half of the flip is completed by the cross-coupled
        // inverter pair; a skewed right inverter modulates it weakly.
        let trip_skew = 1.0 + 0.06 * (d_pdr - d_pur) / self.vdd;

        (self.t_write_nominal * (net0 / net_soft).max(0.0) * trip_skew).min(self.time_ceiling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deltas_with(which: CellTransistor, value: f64) -> [f64; 6] {
        let mut d = [0.0; 6];
        d[which.index()] = value;
        d
    }

    #[test]
    fn nominal_values_match_configuration() {
        let s = SramSurrogate::typical_45nm();
        let t_read = s.read_access_time(&[0.0; 6]);
        let t_write = s.write_delay(&[0.0; 6]);
        assert!((t_read - s.t_read_nominal).abs() / s.t_read_nominal < 1e-9);
        assert!((t_write - s.t_write_nominal).abs() / s.t_write_nominal < 1e-9);
        assert_eq!(s, SramSurrogate::default());
    }

    #[test]
    fn read_time_increases_with_weak_read_path() {
        let s = SramSurrogate::typical_45nm();
        let nominal = s.read_access_time(&[0.0; 6]);
        for which in [CellTransistor::PassGateLeft, CellTransistor::PullDownLeft] {
            let slow = s.read_access_time(&deltas_with(which, 0.1));
            assert!(slow > nominal, "{which:?} +100mV should slow the read");
            let fast = s.read_access_time(&deltas_with(which, -0.1));
            assert!(fast < nominal, "{which:?} -100mV should speed the read");
        }
    }

    #[test]
    fn read_time_diverges_for_dead_path() {
        let s = SramSurrogate::typical_45nm();
        let dead = s.read_access_time(&deltas_with(CellTransistor::PassGateLeft, 0.6));
        assert!(dead > 50.0 * s.t_read_nominal);
        assert!(dead <= s.time_ceiling);
    }

    #[test]
    fn read_time_is_monotone_in_pass_gate_delta() {
        let s = SramSurrogate::typical_45nm();
        let mut prev = 0.0;
        let mut delta = -0.2;
        while delta <= 0.4 {
            let t = s.read_access_time(&deltas_with(CellTransistor::PassGateLeft, delta));
            assert!(t >= prev, "not monotone at {delta}");
            prev = t;
            delta += 0.01;
        }
    }

    #[test]
    fn write_delay_increases_with_contention() {
        let s = SramSurrogate::typical_45nm();
        let nominal = s.write_delay(&[0.0; 6]);
        // Weaker pass gate slows the write.
        assert!(s.write_delay(&deltas_with(CellTransistor::PassGateLeft, 0.1)) > nominal);
        // Stronger pull-up (negative delta) also slows the write.
        assert!(s.write_delay(&deltas_with(CellTransistor::PullUpLeft, -0.1)) > nominal);
        // Weaker pull-up makes the write easier.
        assert!(s.write_delay(&deltas_with(CellTransistor::PullUpLeft, 0.1)) < nominal);
    }

    #[test]
    fn write_delay_diverges_when_contention_wins() {
        let s = SramSurrogate::typical_45nm();
        let mut d = [0.0; 6];
        d[CellTransistor::PassGateLeft.index()] = 0.4;
        d[CellTransistor::PullUpLeft.index()] = -0.3;
        let blocked = s.write_delay(&d);
        assert!(blocked > 100.0 * s.t_write_nominal);
    }

    #[test]
    fn disturb_voltage_behaviour() {
        let s = SramSurrogate::typical_45nm();
        let nominal = s.read_disturb_voltage(&[0.0; 6]);
        assert!(nominal > 0.0 && nominal < s.vdd / 2.0);
        // Weak pull-down raises the disturb level.
        let weak_pd = s.read_disturb_voltage(&deltas_with(CellTransistor::PullDownLeft, 0.2));
        assert!(weak_pd > nominal);
        // Weak pass gate lowers it.
        let weak_pg = s.read_disturb_voltage(&deltas_with(CellTransistor::PassGateLeft, 0.2));
        assert!(weak_pg < nominal);
    }

    #[test]
    fn metrics_are_finite_for_extreme_inputs() {
        let s = SramSurrogate::typical_45nm();
        let extreme = [0.8, 0.8, -0.8, 0.8, -0.8, 0.8];
        assert!(s.read_access_time(&extreme).is_finite());
        assert!(s.write_delay(&extreme).is_finite());
        assert!(s.read_disturb_voltage(&extreme).is_finite());
    }

    #[test]
    #[should_panic(expected = "expected 6 threshold deltas")]
    fn wrong_delta_count_panics() {
        let _ = SramSurrogate::typical_45nm().read_access_time(&[0.0; 3]);
    }

    #[test]
    fn calibration_against_testbench() {
        let tb = SramTestbench::typical_45nm();
        let s = SramSurrogate::calibrated_to(&tb).unwrap();
        let r = tb.read(&[0.0; 6]).unwrap();
        let w = tb.write(&[0.0; 6]).unwrap();
        assert!((s.t_read_nominal - r.access_time).abs() / r.access_time < 1e-9);
        assert!((s.t_write_nominal - w.write_delay).abs() / w.write_delay < 1e-9);
    }
}
