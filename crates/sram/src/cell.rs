//! Parametric 6T SRAM bitcell and its construction inside a testbench circuit.

use gis_circuit::{Circuit, CircuitError, MosfetParams, NodeId};
use serde::{Deserialize, Serialize};

/// Index of each transistor of the 6T cell.
///
/// The order is the canonical order used by the variation space
/// (`gis_variation::sram_6t_variation_space`): pass-gate, pull-down, pull-up —
/// left column first, then the right column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellTransistor {
    /// Left pass gate (bitline BL ↔ storage node Q, gated by the wordline).
    PassGateLeft = 0,
    /// Left pull-down NMOS (Q ↔ ground, gated by QB).
    PullDownLeft = 1,
    /// Left pull-up PMOS (Q ↔ VDD, gated by QB).
    PullUpLeft = 2,
    /// Right pass gate (BLB ↔ QB).
    PassGateRight = 3,
    /// Right pull-down NMOS (QB ↔ ground, gated by Q).
    PullDownRight = 4,
    /// Right pull-up PMOS (QB ↔ VDD, gated by Q).
    PullUpRight = 5,
}

impl CellTransistor {
    /// All six transistors in canonical order.
    pub fn all() -> [CellTransistor; 6] {
        [
            CellTransistor::PassGateLeft,
            CellTransistor::PullDownLeft,
            CellTransistor::PullUpLeft,
            CellTransistor::PassGateRight,
            CellTransistor::PullDownRight,
            CellTransistor::PullUpRight,
        ]
    }

    /// Canonical index (0–5).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short instance name used in netlists.
    pub fn instance_name(self) -> &'static str {
        match self {
            CellTransistor::PassGateLeft => "M_PGL",
            CellTransistor::PullDownLeft => "M_PDL",
            CellTransistor::PullUpLeft => "M_PUL",
            CellTransistor::PassGateRight => "M_PGR",
            CellTransistor::PullDownRight => "M_PDR",
            CellTransistor::PullUpRight => "M_PUR",
        }
    }
}

/// Geometry and electrical configuration of the 6T bitcell and its bitline
/// environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SramCellConfig {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Pass-gate NMOS model card.
    pub pass_gate: MosfetParams,
    /// Pull-down NMOS model card (typically ~1.5× wider than the pass gate for
    /// read stability).
    pub pull_down: MosfetParams,
    /// Pull-up PMOS model card (typically minimum size).
    pub pull_up: MosfetParams,
    /// Bitline capacitance in farads (models the column of cells sharing the bitline).
    pub bitline_capacitance: f64,
    /// Parasitic capacitance on the internal storage nodes, in farads.
    pub node_capacitance: f64,
}

impl Default for SramCellConfig {
    fn default() -> Self {
        SramCellConfig::typical_45nm()
    }
}

impl SramCellConfig {
    /// A typical 45 nm-class low-power bitcell: β-ratio ≈ 1.5, γ-ratio ≈ 1,
    /// 10 fF bitlines.
    pub fn typical_45nm() -> Self {
        SramCellConfig {
            vdd: 1.0,
            pass_gate: MosfetParams::nmos_45nm(),
            pull_down: MosfetParams::nmos_45nm().with_width_factor(1.5),
            pull_up: MosfetParams::pmos_45nm(),
            bitline_capacitance: 10e-15,
            node_capacitance: 0.2e-15,
        }
    }

    /// Device width/length pairs in canonical transistor order, for feeding the
    /// Pelgrom mismatch model.
    pub fn widths_lengths(&self) -> [(f64, f64); 6] {
        [
            (self.pass_gate.width, self.pass_gate.length),
            (self.pull_down.width, self.pull_down.length),
            (self.pull_up.width, self.pull_up.length),
            (self.pass_gate.width, self.pass_gate.length),
            (self.pull_down.width, self.pull_down.length),
            (self.pull_up.width, self.pull_up.length),
        ]
    }

    /// Nominal (unvaried) model card of the given transistor.
    pub fn nominal_params(&self, which: CellTransistor) -> MosfetParams {
        match which {
            CellTransistor::PassGateLeft | CellTransistor::PassGateRight => self.pass_gate,
            CellTransistor::PullDownLeft | CellTransistor::PullDownRight => self.pull_down,
            CellTransistor::PullUpLeft | CellTransistor::PullUpRight => self.pull_up,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.vdd > 0.0) || !self.vdd.is_finite() {
            return Err(format!("vdd must be positive, got {}", self.vdd));
        }
        if !(self.bitline_capacitance > 0.0) || !(self.node_capacitance > 0.0) {
            return Err("capacitances must be positive".to_string());
        }
        self.pass_gate.validate()?;
        self.pull_down.validate()?;
        self.pull_up.validate()?;
        Ok(())
    }
}

/// The circuit nodes of an instantiated bitcell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellNodes {
    /// Supply node.
    pub vdd: NodeId,
    /// Wordline node.
    pub wordline: NodeId,
    /// True bitline.
    pub bitline: NodeId,
    /// Complement bitline.
    pub bitline_bar: NodeId,
    /// Internal storage node Q.
    pub q: NodeId,
    /// Internal storage node QB (complement).
    pub q_bar: NodeId,
}

/// Instantiates the 6T cell into `circuit`, applying the per-transistor
/// threshold shifts `vth_deltas` (volts, canonical order; positive = weaker
/// device for both polarities).
///
/// Returns the nodes of the instantiated cell.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidDevice`] if `vth_deltas` does not have six
/// entries or a shifted model card becomes invalid.
pub fn build_6t_cell(
    circuit: &mut Circuit,
    config: &SramCellConfig,
    vth_deltas: &[f64],
) -> Result<CellNodes, CircuitError> {
    if vth_deltas.len() != 6 {
        return Err(CircuitError::InvalidDevice {
            device: "6T cell".to_string(),
            reason: format!("expected 6 threshold deltas, got {}", vth_deltas.len()),
        });
    }
    config
        .validate()
        .map_err(|reason| CircuitError::InvalidDevice {
            device: "6T cell".to_string(),
            reason,
        })?;

    let vdd = circuit.node("vdd");
    let wordline = circuit.node("wl");
    let bitline = circuit.node("bl");
    let bitline_bar = circuit.node("blb");
    let q = circuit.node("q");
    let q_bar = circuit.node("qb");
    let gnd = Circuit::ground();

    let nodes = CellNodes {
        vdd,
        wordline,
        bitline,
        bitline_bar,
        q,
        q_bar,
    };

    let param = |which: CellTransistor| {
        config
            .nominal_params(which)
            .with_vth_shift(vth_deltas[which.index()])
    };

    // Left half: storage node Q.
    circuit.add_mosfet(
        CellTransistor::PullUpLeft.instance_name(),
        q,
        q_bar,
        vdd,
        vdd,
        param(CellTransistor::PullUpLeft),
    )?;
    circuit.add_mosfet(
        CellTransistor::PullDownLeft.instance_name(),
        q,
        q_bar,
        gnd,
        gnd,
        param(CellTransistor::PullDownLeft),
    )?;
    circuit.add_mosfet(
        CellTransistor::PassGateLeft.instance_name(),
        bitline,
        wordline,
        q,
        gnd,
        param(CellTransistor::PassGateLeft),
    )?;

    // Right half: storage node QB.
    circuit.add_mosfet(
        CellTransistor::PullUpRight.instance_name(),
        q_bar,
        q,
        vdd,
        vdd,
        param(CellTransistor::PullUpRight),
    )?;
    circuit.add_mosfet(
        CellTransistor::PullDownRight.instance_name(),
        q_bar,
        q,
        gnd,
        gnd,
        param(CellTransistor::PullDownRight),
    )?;
    circuit.add_mosfet(
        CellTransistor::PassGateRight.instance_name(),
        bitline_bar,
        wordline,
        q_bar,
        gnd,
        param(CellTransistor::PassGateRight),
    )?;

    // Storage-node parasitics.
    circuit.add_capacitor("C_Q", q, gnd, config.node_capacitance)?;
    circuit.add_capacitor("C_QB", q_bar, gnd, config.node_capacitance)?;

    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transistor_order_matches_variation_space() {
        let all = CellTransistor::all();
        assert_eq!(all[0].index(), 0);
        assert_eq!(all[5].index(), 5);
        assert_eq!(all[0].instance_name(), "M_PGL");
        assert_eq!(all[2].instance_name(), "M_PUL");
        assert_eq!(all[5].instance_name(), "M_PUR");
    }

    #[test]
    fn default_config_is_valid() {
        let cfg = SramCellConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg, SramCellConfig::typical_45nm());
        // Pull-down is stronger than the pass gate (read stability β-ratio).
        assert!(cfg.pull_down.k_prime > cfg.pass_gate.k_prime);
        let wl = cfg.widths_lengths();
        assert_eq!(wl.len(), 6);
        assert!(wl[1].0 > wl[0].0);
    }

    #[test]
    fn config_validation_catches_errors() {
        let mut cfg = SramCellConfig::typical_45nm();
        cfg.vdd = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = SramCellConfig::typical_45nm();
        cfg.bitline_capacitance = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = SramCellConfig::typical_45nm();
        cfg.pull_up.k_prime = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn nominal_params_selects_the_right_card() {
        let cfg = SramCellConfig::typical_45nm();
        assert_eq!(
            cfg.nominal_params(CellTransistor::PullUpLeft).polarity,
            gis_circuit::MosfetPolarity::Pmos
        );
        assert_eq!(
            cfg.nominal_params(CellTransistor::PassGateRight).polarity,
            gis_circuit::MosfetPolarity::Nmos
        );
    }

    #[test]
    fn build_cell_creates_devices_and_nodes() {
        let mut ckt = Circuit::new();
        let cfg = SramCellConfig::typical_45nm();
        let nodes = build_6t_cell(&mut ckt, &cfg, &[0.0; 6]).unwrap();
        // 6 transistors + 2 node caps.
        assert_eq!(ckt.num_devices(), 8);
        assert!(ckt.validate().is_ok());
        assert_ne!(nodes.q, nodes.q_bar);
        let num_nodes = ckt.num_nodes();
        assert_eq!(ckt.node("q"), nodes.q);
        assert_eq!(ckt.node("wl"), nodes.wordline);
        assert_eq!(ckt.num_nodes(), num_nodes, "both names already exist");
    }

    #[test]
    fn build_cell_applies_vth_shift() {
        let mut ckt = Circuit::new();
        let cfg = SramCellConfig::typical_45nm();
        let mut deltas = [0.0; 6];
        deltas[CellTransistor::PassGateLeft.index()] = 0.05;
        build_6t_cell(&mut ckt, &cfg, &deltas).unwrap();
        let pgl = ckt
            .devices()
            .iter()
            .find(|d| d.name() == "M_PGL")
            .expect("PGL exists");
        if let gis_circuit::Device::Mosfet { params, .. } = pgl {
            assert!((params.vth0 - (cfg.pass_gate.vth0 + 0.05)).abs() < 1e-12);
        } else {
            panic!("M_PGL is not a MOSFET");
        }
    }

    #[test]
    fn build_cell_rejects_wrong_delta_count() {
        let mut ckt = Circuit::new();
        let cfg = SramCellConfig::typical_45nm();
        assert!(build_6t_cell(&mut ckt, &cfg, &[0.0; 5]).is_err());
    }
}
