//! Adapters exposing the SRAM testbenches and surrogate as [`PerformanceModel`]s.
//!
//! The statistical layer works in the whitened variation space; these adapters
//! own a [`VariationSpace`] (the Pelgrom-scaled ΔV_T parameters of the six cell
//! transistors) and translate each whitened sample into physical threshold
//! shifts before invoking either the transient testbench or the analytical
//! surrogate.

use crate::model::PerformanceModel;
use gis_linalg::Vector;
use gis_sram::{SramSurrogate, SramTestbench, TransientKernel};
use gis_variation::VariationSpace;
use serde::{Deserialize, Serialize};

/// Which dynamic characteristic of the cell a model evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SramMetric {
    /// Read access time (seconds); spec is an upper limit.
    ReadAccessTime,
    /// Write delay (seconds); spec is an upper limit.
    WriteDelay,
    /// Peak read-disturb voltage on the low storage node (volts); spec is an
    /// upper limit (typically half the supply).
    ReadDisturb,
}

impl SramMetric {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SramMetric::ReadAccessTime => "read-access-time",
            SramMetric::WriteDelay => "write-delay",
            SramMetric::ReadDisturb => "read-disturb",
        }
    }
}

/// [`PerformanceModel`] backed by the closed-form SRAM surrogate.
///
/// Optionally pads the variation space with extra parameters representing the
/// peripheral devices that share the read/write path (column mux, sense
/// amplifier input pair, write driver). Each padded parameter contributes a
/// small additive perturbation to the metric, which is the standard way the
/// dimensionality-scaling experiments of the high-sigma literature are set up.
#[derive(Debug, Clone)]
pub struct SramSurrogateModel {
    surrogate: SramSurrogate,
    space: VariationSpace,
    metric: SramMetric,
    padded_dimensions: usize,
    padding_coefficient: f64,
    name: String,
}

impl SramSurrogateModel {
    /// Creates a surrogate-backed model.
    ///
    /// # Panics
    ///
    /// Panics if the variation space does not have exactly six parameters.
    pub fn new(surrogate: SramSurrogate, space: VariationSpace, metric: SramMetric) -> Self {
        assert_eq!(
            space.dim(),
            6,
            "the 6T surrogate expects a 6-parameter variation space"
        );
        let name = format!("sram-surrogate-{}", metric.name());
        SramSurrogateModel {
            surrogate,
            space,
            metric,
            padded_dimensions: 0,
            padding_coefficient: 0.02,
            name,
        }
    }

    /// Adds `extra` padded variation parameters (peripheral devices). Each one
    /// shifts the metric by `coefficient × nominal-metric × z_i`, so the metric
    /// remains dominated by the six cell transistors while the search space
    /// grows — exactly the stress the dimensionality-scaling table applies.
    ///
    /// # Panics
    ///
    /// Panics if `coefficient` is negative or not finite.
    pub fn with_padded_dimensions(mut self, extra: usize, coefficient: f64) -> Self {
        assert!(
            coefficient >= 0.0 && coefficient.is_finite(),
            "padding coefficient must be non-negative and finite"
        );
        self.padded_dimensions = extra;
        self.padding_coefficient = coefficient;
        self
    }

    /// The metric this model evaluates.
    pub fn metric(&self) -> SramMetric {
        self.metric
    }

    /// Metric value of the nominal (unvaried) cell — the anchor from which
    /// specification limits are usually derived (e.g. "1.5× nominal").
    pub fn nominal_metric(&self) -> f64 {
        let nominal = [0.0; 6];
        match self.metric {
            SramMetric::ReadAccessTime => self.surrogate.read_access_time(&nominal),
            SramMetric::WriteDelay => self.surrogate.write_delay(&nominal),
            SramMetric::ReadDisturb => self.surrogate.read_disturb_voltage(&nominal),
        }
    }
}

impl PerformanceModel for SramSurrogateModel {
    fn dim(&self) -> usize {
        6 + self.padded_dimensions
    }

    fn evaluate(&self, z: &Vector) -> f64 {
        assert_eq!(z.len(), self.dim(), "dimension mismatch");
        let cell_z: Vector = (0..6).map(|i| z[i]).collect();
        let deltas = self.space.to_physical(&cell_z);
        let base = match self.metric {
            SramMetric::ReadAccessTime => self.surrogate.read_access_time(deltas.as_slice()),
            SramMetric::WriteDelay => self.surrogate.write_delay(deltas.as_slice()),
            SramMetric::ReadDisturb => self.surrogate.read_disturb_voltage(deltas.as_slice()),
        };
        if self.padded_dimensions == 0 {
            return base;
        }
        let nominal = self.nominal_metric();
        let padding: f64 = (6..self.dim()).map(|i| z[i]).sum();
        base + self.padding_coefficient * nominal * padding
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// [`PerformanceModel`] backed by the full transient testbench.
///
/// Every evaluation builds the 6T netlist with the sampled threshold shifts and
/// runs one backward-Euler transient — this is the "SPICE-accurate" model of
/// the evaluation. Simulation errors (non-convergence) are mapped to
/// `f64::INFINITY`, i.e. counted as failures, mirroring how a production flow
/// treats a sample whose simulation dies.
#[derive(Debug, Clone)]
pub struct SramTransientModel {
    testbench: SramTestbench,
    space: VariationSpace,
    metric: SramMetric,
    kernel: TransientKernel,
    name: String,
}

impl SramTransientModel {
    /// Creates a transient-simulation-backed model on the sparse kernel.
    ///
    /// # Panics
    ///
    /// Panics if the variation space does not have exactly six parameters.
    pub fn new(testbench: SramTestbench, space: VariationSpace, metric: SramMetric) -> Self {
        assert_eq!(
            space.dim(),
            6,
            "the 6T testbench expects a 6-parameter variation space"
        );
        let name = format!("sram-transient-{}", metric.name());
        SramTransientModel {
            testbench,
            space,
            metric,
            kernel: TransientKernel::Sparse,
            name,
        }
    }

    /// Selects the solver kernel (default [`TransientKernel::Sparse`]). The
    /// dense reference kernel produces bit-identical metrics; the tests and
    /// the benchmark harness use it to assert end-to-end kernel equivalence.
    pub fn with_kernel(mut self, kernel: TransientKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The kernel this model simulates on.
    pub fn kernel(&self) -> TransientKernel {
        self.kernel
    }

    /// The metric this model evaluates.
    pub fn metric(&self) -> SramMetric {
        self.metric
    }

    /// Metric value of the nominal (unvaried) cell.
    ///
    /// # Panics
    ///
    /// Panics if the nominal simulation itself fails, which indicates a broken
    /// testbench configuration rather than a statistical event.
    pub fn nominal_metric(&self) -> f64 {
        self.evaluate_deltas(&[0.0; 6])
    }

    fn evaluate_deltas(&self, deltas: &[f64]) -> f64 {
        match self.metric {
            SramMetric::ReadAccessTime => self
                .testbench
                .read_session()
                .map(|s| s.with_kernel(self.kernel))
                .and_then(|mut s| s.run(deltas))
                .map(|r| r.access_time)
                .unwrap_or(f64::INFINITY),
            SramMetric::WriteDelay => self
                .testbench
                .write_session()
                .map(|s| s.with_kernel(self.kernel))
                .and_then(|mut s| s.run(deltas))
                .map(|w| w.write_delay)
                .unwrap_or(f64::INFINITY),
            SramMetric::ReadDisturb => self
                .testbench
                .read_session()
                .map(|s| s.with_kernel(self.kernel))
                .and_then(|mut s| s.run(deltas))
                .map(|r| r.disturb_peak)
                .unwrap_or(f64::INFINITY),
        }
    }
}

impl PerformanceModel for SramTransientModel {
    fn dim(&self) -> usize {
        6
    }

    fn evaluate(&self, z: &Vector) -> f64 {
        assert_eq!(z.len(), 6, "dimension mismatch");
        let deltas = self.space.to_physical(z);
        self.evaluate_deltas(deltas.as_slice())
    }

    /// Batched transient evaluation: one [`gis_sram::ReadSession`] /
    /// [`gis_sram::WriteSession`] is built per batch, hoisting the netlist
    /// construction and solver setup out of the per-point loop; each point then
    /// only injects its six threshold shifts and solves the transient. The
    /// executor calls this once per work chunk, so batches evaluate
    /// concurrently on worker threads while every metric stays bit-identical
    /// to the scalar path; failed points — rejected shifts or non-converging
    /// transients — evaluate to `f64::INFINITY` individually.
    fn evaluate_batch(&self, points: &[Vector]) -> Vec<f64> {
        let deltas: Vec<Vector> = points
            .iter()
            .map(|z| {
                assert_eq!(z.len(), 6, "dimension mismatch");
                self.space.to_physical(z)
            })
            .collect();
        let delta_refs: Vec<&[f64]> = deltas.iter().map(Vector::as_slice).collect();
        match self.metric {
            SramMetric::ReadAccessTime | SramMetric::ReadDisturb => {
                match self.testbench.read_session() {
                    Ok(session) => session
                        .with_kernel(self.kernel)
                        .run_batch(&delta_refs)
                        .into_iter()
                        .map(|result| {
                            result
                                .map(|r| match self.metric {
                                    SramMetric::ReadAccessTime => r.access_time,
                                    _ => r.disturb_peak,
                                })
                                .unwrap_or(f64::INFINITY)
                        })
                        .collect(),
                    Err(_) => vec![f64::INFINITY; points.len()],
                }
            }
            SramMetric::WriteDelay => match self.testbench.write_session() {
                Ok(session) => session
                    .with_kernel(self.kernel)
                    .run_batch(&delta_refs)
                    .into_iter()
                    .map(|result| result.map(|w| w.write_delay).unwrap_or(f64::INFINITY))
                    .collect(),
                Err(_) => vec![f64::INFINITY; points.len()],
            },
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Builds the canonical 6-parameter variation space for a given cell
/// configuration using the supplied Pelgrom coefficient.
pub fn default_sram_variation_space(
    cell: &gis_sram::SramCellConfig,
    pelgrom: &gis_variation::PelgromModel,
) -> VariationSpace {
    gis_variation::sram_6t_variation_space(pelgrom, &cell.widths_lengths())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_sram::SramCellConfig;
    use gis_variation::PelgromModel;

    fn space() -> VariationSpace {
        default_sram_variation_space(
            &SramCellConfig::typical_45nm(),
            &PelgromModel::typical_45nm(),
        )
    }

    #[test]
    fn surrogate_model_basics() {
        let model = SramSurrogateModel::new(
            SramSurrogate::typical_45nm(),
            space(),
            SramMetric::ReadAccessTime,
        );
        assert_eq!(model.dim(), 6);
        assert_eq!(model.metric(), SramMetric::ReadAccessTime);
        assert!(model.name().contains("read-access-time"));
        let nominal = model.evaluate(&Vector::zeros(6));
        assert!((nominal - model.nominal_metric()).abs() < 1e-18);
        // Weakening the pass gate (z0 > 0 → ΔVth > 0) slows the read.
        let mut z = Vector::zeros(6);
        z[0] = 3.0;
        assert!(model.evaluate(&z) > nominal);
    }

    #[test]
    fn surrogate_metric_variants() {
        let write = SramSurrogateModel::new(
            SramSurrogate::typical_45nm(),
            space(),
            SramMetric::WriteDelay,
        );
        let disturb = SramSurrogateModel::new(
            SramSurrogate::typical_45nm(),
            space(),
            SramMetric::ReadDisturb,
        );
        assert!(write.nominal_metric() > 0.0);
        assert!(disturb.nominal_metric() > 0.0 && disturb.nominal_metric() < 1.0);
        assert_eq!(SramMetric::WriteDelay.name(), "write-delay");
        assert_eq!(SramMetric::ReadDisturb.name(), "read-disturb");
    }

    #[test]
    fn padded_dimensions_extend_the_space() {
        let model = SramSurrogateModel::new(
            SramSurrogate::typical_45nm(),
            space(),
            SramMetric::ReadAccessTime,
        )
        .with_padded_dimensions(6, 0.02);
        assert_eq!(model.dim(), 12);
        let nominal = model.evaluate(&Vector::zeros(12));
        // Padding parameters perturb the metric but only mildly.
        let mut z = Vector::zeros(12);
        z[8] = 3.0;
        let perturbed = model.evaluate(&z);
        assert!(perturbed > nominal);
        assert!((perturbed - nominal) / nominal < 0.2);
    }

    #[test]
    fn transient_model_matches_testbench() {
        let tb = SramTestbench::typical_45nm();
        let model = SramTransientModel::new(tb.clone(), space(), SramMetric::ReadAccessTime);
        assert_eq!(model.dim(), 6);
        let nominal_direct = tb.read(&[0.0; 6]).unwrap().access_time;
        let nominal_model = model.evaluate(&Vector::zeros(6));
        assert!((nominal_direct - nominal_model).abs() / nominal_direct < 1e-12);
        assert!(model.name().contains("transient"));
        assert!((model.nominal_metric() - nominal_direct).abs() / nominal_direct < 1e-12);
    }

    #[test]
    fn transient_batch_evaluation_matches_scalar_path() {
        let tb = SramTestbench::typical_45nm();
        for metric in [
            SramMetric::ReadAccessTime,
            SramMetric::WriteDelay,
            SramMetric::ReadDisturb,
        ] {
            let model = SramTransientModel::new(tb.clone(), space(), metric);
            let points = vec![
                Vector::zeros(6),
                Vector::from_slice(&[2.0, -1.0, 0.5, 0.0, 1.5, -0.5]),
            ];
            let batch = model.evaluate_batch(&points);
            for (z, batched) in points.iter().zip(batch) {
                assert_eq!(
                    batched.to_bits(),
                    model.evaluate(z).to_bits(),
                    "{metric:?} batch diverged from scalar evaluation"
                );
            }
        }
    }

    #[test]
    fn dense_kernel_model_is_bit_identical() {
        let tb = SramTestbench::typical_45nm();
        for metric in [SramMetric::ReadAccessTime, SramMetric::WriteDelay] {
            let sparse = SramTransientModel::new(tb.clone(), space(), metric);
            let dense = SramTransientModel::new(tb.clone(), space(), metric)
                .with_kernel(TransientKernel::Dense);
            assert_eq!(sparse.kernel(), TransientKernel::Sparse);
            assert_eq!(dense.kernel(), TransientKernel::Dense);
            let points = vec![
                Vector::zeros(6),
                Vector::from_slice(&[2.0, -1.0, 0.5, 0.0, 1.5, -0.5]),
            ];
            let s = sparse.evaluate_batch(&points);
            let d = dense.evaluate_batch(&points);
            for (a, b) in s.iter().zip(&d) {
                assert_eq!(a.to_bits(), b.to_bits(), "{metric:?} kernels diverged");
            }
        }
    }

    #[test]
    fn transient_write_and_disturb_metrics() {
        let tb = SramTestbench::typical_45nm();
        let write = SramTransientModel::new(tb.clone(), space(), SramMetric::WriteDelay);
        let disturb = SramTransientModel::new(tb, space(), SramMetric::ReadDisturb);
        let w = write.evaluate(&Vector::zeros(6));
        let d = disturb.evaluate(&Vector::zeros(6));
        assert!(w > 0.0 && w < 2e-9);
        assert!((0.0..0.5).contains(&d));
    }

    #[test]
    #[should_panic(expected = "6-parameter variation space")]
    fn wrong_space_dimension_rejected() {
        let bad_space =
            VariationSpace::independent([gis_variation::VariationParameter::new("only-one", 0.03)]);
        let _ = SramSurrogateModel::new(
            SramSurrogate::typical_45nm(),
            bad_space,
            SramMetric::ReadAccessTime,
        );
    }
}
