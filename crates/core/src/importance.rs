//! Shared importance-sampling machinery: proposal distributions, the weighted
//! estimator/accumulator, and the one IS sampling loop, whose optional
//! per-batch adaptation step turns fixed-proposal IS into adaptive IS.
//!
//! The failure probability is written as an expectation under the nominal
//! standard-normal density `f` of the whitened variation space and re-expressed
//! under a proposal `q`:
//!
//! `P_fail = E_f[ 1_fail(z) ] = E_q[ 1_fail(z) · f(z)/q(z) ]`
//!
//! so the estimator is the sample mean of `w(z)·1_fail(z)` with
//! `w = exp(log f − log q)`. All concrete methods (gradient IS, minimum-norm
//! IS, scaled-sigma sampling) reduce to choosing `q` — they share the machinery
//! in this module.

use crate::exec::Executor;
use crate::model::FailureProblem;
use crate::result::{ConvergencePoint, ExtractionResult};
use crate::stopping::StoppingRule;
use gis_linalg::Vector;
use gis_stats::{GaussianMixture, MultivariateNormal, RngStream};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A proposal distribution for importance sampling in whitened space.
#[derive(Debug, Clone)]
pub enum Proposal {
    /// A single multivariate normal.
    Gaussian(MultivariateNormal),
    /// A finite Gaussian mixture (e.g. defensive mixture with the nominal density).
    Mixture(GaussianMixture),
}

impl Proposal {
    /// Mean-shifted standard normal centred at `shift` — the classic
    /// minimum-norm / mean-shift proposal.
    pub fn shifted(shift: Vector) -> Self {
        Proposal::Gaussian(MultivariateNormal::shifted_standard(shift))
    }

    /// Isotropic Gaussian with standard deviation `scale` centred at the origin
    /// — the scaled-sigma-sampling proposal.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    pub fn scaled(dim: usize, scale: f64) -> Self {
        Proposal::Gaussian(MultivariateNormal::isotropic(Vector::zeros(dim), scale))
    }

    /// Defensive mixture: weight `1 − defensive_fraction` on the shifted
    /// proposal and `defensive_fraction` on the nominal standard normal. The
    /// nominal component bounds the importance weights by
    /// `1/defensive_fraction`, protecting the estimator when the shift is
    /// imperfect.
    ///
    /// # Panics
    ///
    /// Panics if `defensive_fraction` is not in `(0, 1)`.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn defensive_mixture(shift: Vector, defensive_fraction: f64) -> Self {
        assert!(
            defensive_fraction > 0.0 && defensive_fraction < 1.0,
            "defensive fraction must be in (0, 1)"
        );
        let dim = shift.len();
        let shifted = MultivariateNormal::shifted_standard(shift);
        let nominal = MultivariateNormal::standard(dim);
        let mixture = GaussianMixture::new(
            vec![shifted, nominal],
            vec![1.0 - defensive_fraction, defensive_fraction],
        )
        .expect("two valid components with positive weights");
        Proposal::Mixture(mixture)
    }

    /// Three-component mixture used for steep or curved failure boundaries:
    /// the main component at `shift`, a "bridge" component at `bridge`
    /// (typically a fraction of the shift, covering the region between the
    /// nominal point and the MPFP), and the nominal density as a defensive
    /// component. `defensive_fraction` may be zero; the remaining weight is
    /// assigned to the main component.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are outside `[0, 1)` or sum to 1 or more, or if
    /// the two centres have different dimensions.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn bridged_mixture(
        shift: Vector,
        bridge: Vector,
        bridge_fraction: f64,
        defensive_fraction: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&bridge_fraction)
                && (0.0..1.0).contains(&defensive_fraction)
                && bridge_fraction + defensive_fraction < 1.0,
            "bridge and defensive fractions must be in [0, 1) and sum below 1"
        );
        assert_eq!(
            shift.len(),
            bridge.len(),
            "shift and bridge dimensions differ"
        );
        let dim = shift.len();
        let main_weight = 1.0 - bridge_fraction - defensive_fraction;
        let mut components = vec![
            MultivariateNormal::shifted_standard(shift),
            MultivariateNormal::shifted_standard(bridge),
        ];
        let mut weights = vec![main_weight, bridge_fraction];
        if defensive_fraction > 0.0 {
            components.push(MultivariateNormal::standard(dim));
            weights.push(defensive_fraction);
        }
        let mixture =
            GaussianMixture::new(components, weights).expect("valid components and weights");
        Proposal::Mixture(mixture)
    }

    /// Dimensionality of the proposal.
    pub fn dim(&self) -> usize {
        match self {
            Proposal::Gaussian(g) => g.dim(),
            Proposal::Mixture(m) => m.dim(),
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut RngStream) -> Vector {
        let mut z = Vector::zeros(self.dim());
        self.sample_into(rng, z.as_mut_slice());
        z
    }

    /// Draws one sample into `z`, overwriting it. Consumes the stream exactly
    /// as [`Proposal::sample`] does.
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` differs from the proposal's dimension.
    pub fn sample_into(&self, rng: &mut RngStream, z: &mut [f64]) {
        match self {
            Proposal::Gaussian(g) => g.sample_into(rng, z),
            Proposal::Mixture(m) => m.sample_into(rng, z),
        }
    }

    /// Log-density of the proposal at `z`.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn log_pdf(&self, z: &Vector) -> f64 {
        match self {
            Proposal::Gaussian(g) => g.log_pdf(z).expect("dimension fixed at construction"),
            Proposal::Mixture(m) => m.log_pdf(z).expect("dimension fixed at construction"),
        }
    }

    /// Importance weight `f(z)/q(z)` against the nominal standard normal `f`.
    pub fn importance_weight(&self, z: &Vector) -> f64 {
        let log_f: f64 = z.iter().map(|&zi| gis_stats::normal::log_pdf(zi)).sum();
        gis_linalg::elementary::exp(log_f - self.log_pdf(z))
    }
}

/// Streaming accumulator of the unnormalized importance-sampling estimator.
///
/// Tracks everything needed for the estimate, its standard error, the effective
/// sample size and the weight diagnostics — without storing samples.
///
/// The variance is carried in the Welford form (running mean + sum of squared
/// deviations `M2`), not the textbook `E[x²] − mean²`: the latter cancels
/// catastrophically when the weighted indicators are concentrated (all weights
/// similar, as a well-shifted proposal produces) and forced silent clamping of
/// negative variances to zero — under-reporting the relative error exactly
/// when the stopping rule leaned on it. `M2` is non-negative by construction
/// (each Welford increment is a product of same-signed factors), which
/// [`IsAccumulator::standard_error`] asserts instead of masking. Merging two
/// accumulators combines the moments with Chan's parallel update, so chunked /
/// multi-threaded accumulation reproduces the sequential statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IsAccumulator {
    samples: u64,
    failures: u64,
    sum_weighted_indicator: f64,
    mean_weighted_indicator: f64,
    m2_weighted_indicator: f64,
    sum_weights_failing: f64,
    sum_weights_sq_failing: f64,
    max_weight_failing: f64,
}

impl IsAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        IsAccumulator::default()
    }

    /// Records one sample with importance weight `weight` and failure indicator
    /// `failed`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    /// gis-analyze: no_alloc
    pub fn push(&mut self, weight: f64, failed: bool) {
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "importance weight must be non-negative and finite, got {weight}"
        );
        self.samples += 1;
        // Welford update on x = w·1_fail (zero for passing samples: they still
        // shape the variance of the mean).
        let x = if failed { weight } else { 0.0 };
        let delta = x - self.mean_weighted_indicator;
        self.mean_weighted_indicator += delta / self.samples as f64;
        self.m2_weighted_indicator += delta * (x - self.mean_weighted_indicator);
        if failed {
            self.failures += 1;
            self.sum_weighted_indicator += weight; // gis-analyze: allow(naive-accum, asserted non-negative terms: no cancellation; Welford tracks variance)
            self.sum_weights_failing += weight; // gis-analyze: allow(naive-accum, asserted non-negative terms: no cancellation; Welford tracks variance)
            self.sum_weights_sq_failing += weight * weight; // gis-analyze: allow(naive-accum, asserted non-negative squared terms: no cancellation possible)
            self.max_weight_failing = self.max_weight_failing.max(weight);
        }
        debug_assert!(
            self.mean_weighted_indicator.is_finite() && self.m2_weighted_indicator.is_finite(),
            "IsAccumulator moments went non-finite after push (mean={}, m2={})",
            self.mean_weighted_indicator,
            self.m2_weighted_indicator
        );
    }

    /// Merges another accumulator (e.g. from a different batch or thread),
    /// combining the variance moments with Chan's parallel update so the
    /// merged statistics match sequential accumulation.
    /// gis-analyze: no_alloc
    pub fn merge(&mut self, other: &IsAccumulator) {
        if other.samples == 0 {
            return;
        }
        let n_a = self.samples as f64;
        let n_b = other.samples as f64;
        let n = n_a + n_b;
        let delta = other.mean_weighted_indicator - self.mean_weighted_indicator;
        self.m2_weighted_indicator += other.m2_weighted_indicator + delta * delta * (n_a * n_b / n);
        self.mean_weighted_indicator += delta * (n_b / n);
        self.samples += other.samples;
        self.failures += other.failures;
        self.sum_weighted_indicator += other.sum_weighted_indicator; // gis-analyze: allow(naive-accum, merge of non-negative partial sums in deterministic lane order)
        self.sum_weights_failing += other.sum_weights_failing; // gis-analyze: allow(naive-accum, merge of non-negative partial sums in deterministic lane order)
        self.sum_weights_sq_failing += other.sum_weights_sq_failing; // gis-analyze: allow(naive-accum, merge of non-negative partial sums in deterministic lane order)
        self.max_weight_failing = self.max_weight_failing.max(other.max_weight_failing);
        debug_assert!(
            self.mean_weighted_indicator.is_finite()
                && self.m2_weighted_indicator.is_finite()
                && self.sum_weighted_indicator.is_finite(),
            "IsAccumulator moments went non-finite after merge (mean={}, m2={}, sum={})",
            self.mean_weighted_indicator,
            self.m2_weighted_indicator,
            self.sum_weighted_indicator
        );
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Number of failing samples recorded.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Unbiased failure-probability estimate `Σ(w·1_fail)/N`.
    pub fn estimate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_weighted_indicator / self.samples as f64
        }
    }

    /// Standard error of the estimate, from the merge-safe Welford moments.
    ///
    /// # Panics
    ///
    /// Panics if the internal sum of squared deviations has gone negative,
    /// which the Welford/Chan updates make impossible for valid inputs — a
    /// negative value indicates corruption and must not be silently clamped
    /// into an optimistic error bar.
    pub fn standard_error(&self) -> f64 {
        if self.samples < 2 {
            return f64::INFINITY;
        }
        assert!(
            self.m2_weighted_indicator >= 0.0,
            "negative sum of squared deviations ({}) in IsAccumulator",
            self.m2_weighted_indicator
        );
        let n = self.samples as f64;
        // Sample variance of x over n, i.e. the variance of the sample mean.
        (self.m2_weighted_indicator / (n - 1.0) / n).sqrt()
    }

    /// Relative standard error (σ/μ); `inf` until a failure has been observed.
    pub fn relative_error(&self) -> f64 {
        let est = self.estimate();
        if est <= 0.0 {
            f64::INFINITY
        } else {
            self.standard_error() / est
        }
    }

    /// Effective failure count for the stopping rule: the Kish
    /// effective sample size of the failing weights, capped by the raw
    /// count. Equal weights give back the raw count (rounded to absorb
    /// accumulation round-off); weight degeneracy shrinks it, which both
    /// delays the optional stop and widens the first-passage inflation —
    /// with heavy weight tails the raw count overstates the information
    /// actually present in the error bar.
    pub fn effective_failures(&self) -> f64 {
        let ess = self.effective_sample_size();
        if !ess.is_finite() {
            return self.failures as f64;
        }
        ess.round().min(self.failures as f64)
    }

    /// Kish effective sample size of the failing-sample weights.
    pub fn effective_sample_size(&self) -> f64 {
        // gis-analyze: allow(float-eq, division guard: the sum of squares is exactly 0.0 only when empty)
        if self.sum_weights_sq_failing == 0.0 {
            0.0
        } else {
            self.sum_weights_failing * self.sum_weights_failing / self.sum_weights_sq_failing
        }
    }

    /// Largest importance weight observed on a failing sample (weight
    /// degeneracy diagnostic).
    pub fn max_weight(&self) -> f64 {
        self.max_weight_failing
    }
}

/// Configuration shared by the importance-sampling methods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportanceSamplingConfig {
    /// Maximum number of sampling-phase evaluations.
    pub max_samples: u64,
    /// Samples per batch (between convergence checks / adaptation steps).
    pub batch_size: u64,
    /// Target relative standard error.
    pub target_relative_error: f64,
    /// Minimum number of failing samples before the stopping rule may fire.
    pub min_failures: u64,
    /// Leftover toggle of the removed first-passage stopping rule, kept so
    /// callers that still name it compile. It must be `true`, which
    /// [`ImportanceSamplingConfig::validate`] enforces: every IS run uses
    /// the one rule of [`crate::stopping`].
    pub corrected_stopping: bool,
}

impl Default for ImportanceSamplingConfig {
    fn default() -> Self {
        ImportanceSamplingConfig {
            max_samples: 50_000,
            batch_size: 500,
            target_relative_error: 0.1,
            min_failures: 20,
            corrected_stopping: true,
        }
    }
}

impl ImportanceSamplingConfig {
    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_samples == 0 || self.batch_size == 0 {
            return Err("sample budget and batch size must be positive".to_string());
        }
        if !(self.target_relative_error > 0.0) {
            return Err("target relative error must be positive".to_string());
        }
        if !self.corrected_stopping {
            return Err(
                "corrected_stopping must be true: the legacy stopping rule was removed".to_string(),
            );
        }
        Ok(())
    }

    /// Bytes the sampling loop preallocates on a `dim`-dimensional problem:
    /// one batch of points and their weights.
    pub fn working_set(&self, dim: usize) -> u64 {
        crate::estimator::batch_bytes(self.batch_size.min(self.max_samples), dim)
    }
}

/// Diagnostics of an importance-sampling run, reported alongside the estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsDiagnostics {
    /// Effective sample size of the failing-sample weights.
    pub effective_sample_size: f64,
    /// Largest importance weight among failing samples.
    pub max_weight: f64,
    /// Final shift vector (mean of the proposal's dominant component), if
    /// applicable to the method.
    pub shift: Option<Vec<f64>>,
    /// Norm of the final shift vector (the β distance), if applicable.
    pub shift_norm: Option<f64>,
    /// Whether the run saw evidence of a multimodal failure region that a
    /// single mean-shift proposal cannot cover honestly: the adaptive shift
    /// history oscillated between distant centers, or a warm-start neighbor's
    /// MPFP disagreed with the locally found one beyond
    /// [`shifts_disagree`]'s threshold. When set, the reported error bar
    /// covers only the mode the proposal found — treat the estimate as a
    /// lower bound, not a clean interval.
    pub multimodal_suspected: bool,
}

/// Whether two mean-shift centers are far enough apart to suggest they sit on
/// different failure modes: the distance between them exceeds one sigma *and*
/// a quarter of the larger center's norm (so far-tail centers tolerate
/// proportionally more drift before raising suspicion).
pub fn shifts_disagree(a: &[f64], b: &[f64]) -> bool {
    if a.len() != b.len() {
        return true;
    }
    let distance = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let scale = norm(a).max(norm(b));
    distance > 1.0 && distance > 0.25 * scale
}

/// A per-batch adaptation step of [`run_importance_sampling`]. It sees one
/// batch's points, importance weights and failure flags, in sample order,
/// and may return the proposal for the next batch.
pub type Adaptation<'a> = dyn FnMut(&[Vector], &[f64], &[bool]) -> Option<Proposal> + 'a;

/// Runs importance sampling on `problem` and reports the result under
/// `method` name, charging `search_evaluations` extra evaluations (spent
/// earlier, e.g. on an MPFP search) to the total.
///
/// This is the one sampling loop of every IS method. With `adapt` set to
/// `None` the proposal stays fixed; otherwise `adapt` runs after the stop
/// check of every batch that did not stop (the last batch of the budget
/// included) and its returned proposal, if any, draws the following batches.
/// The reported shift is the mean of the final proposal's first component.
///
/// Each batch is generated sequentially from `rng` (fixed draw order),
/// evaluated on the worker threads of `exec`, and reduced in sample order, so
/// the result is bit-identical at every thread count. Every batch is drawn
/// into the same point and weight buffers, so the loop's memory scales with
/// the batch size, not with the budget.
#[allow(clippy::expect_used)] // invariants stated in the expect messages
#[allow(clippy::too_many_arguments)] // the optional adaptation step is the one input fixed-proposal IS lacks
pub fn run_importance_sampling(
    problem: &FailureProblem,
    proposal: &Proposal,
    config: &ImportanceSamplingConfig,
    rng: &mut RngStream,
    exec: &Executor,
    method: &str,
    search_evaluations: u64,
    mut adapt: Option<&mut Adaptation<'_>>,
) -> (ExtractionResult, IsDiagnostics) {
    config
        .validate()
        .expect("invalid importance sampling configuration");
    assert_eq!(
        proposal.dim(),
        problem.dim(),
        "proposal dimension must match the problem"
    );

    let mut proposal = Cow::Borrowed(proposal);
    let mut acc = IsAccumulator::new();
    let mut trace = Vec::new();
    let mut converged = false;
    let mut stop = StoppingRule::new(config.target_relative_error, config.min_failures);
    let largest_batch = config.batch_size.min(config.max_samples) as usize;
    let mut buffer: Vec<Vector> = (0..largest_batch)
        .map(|_| Vector::zeros(problem.dim()))
        .collect();
    let mut weights = Vec::with_capacity(largest_batch);

    while acc.samples() < config.max_samples {
        let batch = config.batch_size.min(config.max_samples - acc.samples()) as usize;
        let points = &mut buffer[..batch];
        weights.clear();
        for z in points.iter_mut() {
            proposal.sample_into(rng, z.as_mut_slice());
            weights.push(proposal.importance_weight(z));
        }
        let failed = problem.is_failure_batch_on(exec, points);
        for (&weight, &failed) in weights.iter().zip(&failed) {
            acc.push(weight, failed);
        }
        trace.push(ConvergencePoint {
            evaluations: search_evaluations + acc.samples(),
            estimate: acc.estimate(),
            relative_error: acc.relative_error(),
        });
        // The rule counts *effective* (weight-adjusted) failures: with
        // degenerate importance weights the raw count overstates how much
        // information the error bar rests on.
        if stop.check(acc.effective_failures(), acc.relative_error()) {
            converged = true;
            break;
        }
        if let Some(next) = adapt
            .as_mut()
            .and_then(|step| step(points, &weights, &failed))
        {
            proposal = Cow::Owned(next);
        }
    }

    let estimate = acc.estimate();
    let shift = match proposal.as_ref() {
        Proposal::Gaussian(g) => Some(g.mean().as_slice().to_vec()),
        Proposal::Mixture(m) => Some(m.components()[0].mean().as_slice().to_vec()),
    };
    let shift_norm = shift
        .as_ref()
        .map(|s| s.iter().map(|x| x * x).sum::<f64>().sqrt());

    let result = ExtractionResult {
        method: method.to_string(),
        failure_probability: estimate,
        standard_error: stop.reported_standard_error(
            acc.standard_error(),
            acc.effective_failures(),
            converged,
        ),
        sigma_level: ExtractionResult::sigma_from_probability(estimate),
        evaluations: search_evaluations + acc.samples(),
        sampling_evaluations: acc.samples(),
        failures_observed: acc.failures(),
        converged,
        trace,
    };
    let diagnostics = IsDiagnostics {
        effective_sample_size: acc.effective_sample_size(),
        max_weight: acc.max_weight(),
        shift,
        shift_norm,
        multimodal_suspected: false,
    };
    (result, diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FailureProblem, LinearLimitState};

    #[test]
    fn proposal_constructors_and_weights() {
        let shift = Vector::from_slice(&[3.0, 0.0]);
        let p = Proposal::shifted(shift.clone());
        assert_eq!(p.dim(), 2);
        // At the shift point the nominal density is much smaller than the
        // proposal density, so the weight is < 1.
        assert!(p.importance_weight(&shift) < 1.0);
        // At the origin the weight is > 1 (proposal rarely goes there).
        assert!(p.importance_weight(&Vector::zeros(2)) > 1.0);

        let scaled = Proposal::scaled(3, 2.0);
        assert_eq!(scaled.dim(), 3);
        // Scaled proposal is wider, so at the origin nominal/scaled > 1.
        assert!(scaled.importance_weight(&Vector::zeros(3)) > 1.0);

        let defensive = Proposal::defensive_mixture(Vector::from_slice(&[4.0]), 0.2);
        // Defensive mixture bounds weights by 1/0.2 = 5.
        for x in [-3.0, 0.0, 2.0, 4.0, 8.0] {
            let w = defensive.importance_weight(&Vector::from_slice(&[x]));
            assert!(w <= 5.0 + 1e-9, "weight {w} exceeds the defensive bound");
        }
    }

    #[test]
    fn proposal_sample_into_matches_sample_bit_for_bit() {
        let shift = Vector::from_slice(&[3.0, -1.0, 0.5, 0.0, 2.0, -0.25]);
        let proposals = [
            Proposal::shifted(shift.clone()),
            Proposal::scaled(6, 2.5),
            Proposal::defensive_mixture(shift.clone(), 0.1),
            Proposal::bridged_mixture(shift.clone(), shift.scaled(0.75), 0.2, 0.1),
        ];
        for (case, proposal) in proposals.iter().enumerate() {
            let mut alloc_rng = RngStream::from_seed(90 + case as u64);
            let mut fill_rng = alloc_rng.clone();
            let mut z = Vector::filled(6, f64::NAN);
            for _ in 0..32 {
                let expected = proposal.sample(&mut alloc_rng);
                proposal.sample_into(&mut fill_rng, z.as_mut_slice());
                let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&z), bits(&expected), "proposal {case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "defensive fraction")]
    fn defensive_fraction_validated() {
        let _ = Proposal::defensive_mixture(Vector::zeros(2), 1.5);
    }

    #[test]
    fn accumulator_basics() {
        let mut acc = IsAccumulator::new();
        assert_eq!(acc.estimate(), 0.0);
        assert!(acc.standard_error().is_infinite());
        acc.push(0.5, true);
        acc.push(0.1, false);
        acc.push(0.3, true);
        acc.push(2.0, false);
        assert_eq!(acc.samples(), 4);
        assert_eq!(acc.failures(), 2);
        assert!((acc.estimate() - 0.2).abs() < 1e-12);
        assert!(acc.standard_error() > 0.0);
        assert!(acc.relative_error().is_finite());
        assert!(acc.effective_sample_size() > 1.0);
        assert_eq!(acc.max_weight(), 0.5);

        let mut other = IsAccumulator::new();
        other.push(1.0, true);
        acc.merge(&other);
        assert_eq!(acc.samples(), 5);
        assert_eq!(acc.failures(), 3);
        assert_eq!(acc.max_weight(), 1.0);
    }

    #[test]
    #[should_panic(expected = "importance weight must be non-negative")]
    fn accumulator_rejects_bad_weight() {
        IsAccumulator::new().push(f64::NAN, true);
    }

    /// Two-pass reference: exact mean, then exact sum of squared deviations —
    /// the ground truth any streaming variance must reproduce.
    fn two_pass_standard_error(samples: &[(f64, bool)]) -> f64 {
        let n = samples.len() as f64;
        let xs: Vec<f64> = samples
            .iter()
            .map(|&(w, failed)| if failed { w } else { 0.0 })
            .collect();
        let mean = xs.iter().sum::<f64>() / n;
        let m2 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
        (m2 / (n - 1.0) / n).sqrt()
    }

    #[test]
    fn standard_error_matches_two_pass_reference_under_chunked_merging() {
        // Weights spanning ten orders of magnitude, accumulated three ways:
        // sequentially, merged in chunks, and merged in a different chunking.
        let mut rng = RngStream::from_seed(321);
        let samples: Vec<(f64, bool)> = (0..5_000)
            .map(|_| {
                let w = (10.0 * rng.uniform() - 5.0).exp();
                (w, rng.uniform() < 0.3)
            })
            .collect();
        let reference = two_pass_standard_error(&samples);

        let mut sequential = IsAccumulator::new();
        for &(w, failed) in &samples {
            sequential.push(w, failed);
        }
        for chunk_size in [1, 7, 128, 5_000] {
            let mut merged = IsAccumulator::new();
            for chunk in samples.chunks(chunk_size) {
                let mut acc = IsAccumulator::new();
                for &(w, failed) in chunk {
                    acc.push(w, failed);
                }
                merged.merge(&acc);
            }
            assert_eq!(merged.samples(), sequential.samples());
            assert_eq!(merged.failures(), sequential.failures());
            let rel = (merged.standard_error() - reference).abs() / reference;
            assert!(
                rel < 1e-10,
                "chunk {chunk_size}: merged SE {} vs reference {reference}, rel {rel:e}",
                merged.standard_error()
            );
        }
        let rel = (sequential.standard_error() - reference).abs() / reference;
        assert!(rel < 1e-10, "sequential SE off by {rel:e}");
    }

    #[test]
    fn concentrated_weights_keep_a_truthful_error_bar() {
        // All samples fail with nearly identical large weights — the regime a
        // well-centred proposal produces. The textbook E[x²] − mean² form
        // cancels to round-off garbage here (mean² ≈ 1e16, true variance
        // ≈ 1e-2) and the old clamp reported a standard error of exactly 0,
        // i.e. spurious instant convergence. The Welford form keeps ~15
        // digits.
        let mut rng = RngStream::from_seed(99);
        let samples: Vec<(f64, bool)> = (0..2_000)
            .map(|_| (1.0e8 * (1.0 + 1.0e-9 * (rng.uniform() - 0.5)), true))
            .collect();
        let reference = two_pass_standard_error(&samples);
        assert!(reference > 0.0);

        let mut acc = IsAccumulator::new();
        for &(w, failed) in &samples {
            acc.push(w, failed);
        }
        let se = acc.standard_error();
        assert!(se > 0.0, "standard error collapsed to zero");
        let rel = (se - reference).abs() / reference;
        assert!(rel < 1e-6, "SE {se} vs two-pass {reference}, rel {rel:e}");
        // And the relative error is honest instead of a free convergence pass.
        assert!(acc.relative_error() > 0.0);
    }

    #[test]
    fn shifted_is_recovers_exact_tail_probability() {
        // β = 4: brute force would need ~3e7 samples for 10% error; shifted IS
        // needs a few thousand.
        let ls = LinearLimitState::along_first_axis(4, 4.0);
        let exact = ls.exact_failure_probability();
        let mpfp = ls.exact_mpfp();
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let proposal = Proposal::shifted(mpfp);
        let config = ImportanceSamplingConfig {
            max_samples: 20_000,
            batch_size: 1_000,
            target_relative_error: 0.05,
            min_failures: 50,
            ..ImportanceSamplingConfig::default()
        };
        let mut rng = RngStream::from_seed(5);
        let (result, diag) = run_importance_sampling(
            &problem,
            &proposal,
            &config,
            &mut rng,
            &Executor::serial(),
            "mean-shift-is",
            0,
            None,
        );
        assert!(result.converged);
        let rel = (result.failure_probability - exact).abs() / exact;
        assert!(rel < 0.1, "IS estimate off by {rel}: {result:?}");
        assert!((result.sigma_level - 4.0).abs() < 0.05);
        assert!(diag.effective_sample_size > 10.0);
        assert!(diag.shift_norm.unwrap() > 3.9);
        assert!(result.sampling_evaluations < 25_000);
    }

    #[test]
    fn defensive_mixture_is_also_unbiased() {
        let ls = LinearLimitState::along_first_axis(3, 3.5);
        let exact = ls.exact_failure_probability();
        let mpfp = ls.exact_mpfp();
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let proposal = Proposal::defensive_mixture(mpfp, 0.1);
        let config = ImportanceSamplingConfig {
            max_samples: 40_000,
            batch_size: 2_000,
            target_relative_error: 0.05,
            min_failures: 50,
            ..ImportanceSamplingConfig::default()
        };
        let mut rng = RngStream::from_seed(19);
        let (result, _) = run_importance_sampling(
            &problem,
            &proposal,
            &config,
            &mut rng,
            &Executor::new(4),
            "defensive-is",
            100,
            None,
        );
        let rel = (result.failure_probability - exact).abs() / exact;
        assert!(rel < 0.12, "defensive IS off by {rel}");
        // The search cost is charged on top of the sampling cost.
        assert_eq!(result.evaluations, result.sampling_evaluations + 100);
    }

    #[test]
    fn badly_shifted_proposal_does_not_converge_quickly() {
        // Shift pointing away from the failure region: weights of failing
        // samples are huge, ESS collapses, and the stopping rule refuses to
        // declare convergence within a small budget.
        let ls = LinearLimitState::along_first_axis(2, 4.0);
        let problem = FailureProblem::from_model(ls, LinearLimitState::spec());
        let proposal = Proposal::shifted(Vector::from_slice(&[-4.0, 0.0]));
        let config = ImportanceSamplingConfig {
            max_samples: 5_000,
            batch_size: 1_000,
            target_relative_error: 0.1,
            min_failures: 10,
            ..ImportanceSamplingConfig::default()
        };
        let mut rng = RngStream::from_seed(23);
        let (result, _) = run_importance_sampling(
            &problem,
            &proposal,
            &config,
            &mut rng,
            &Executor::serial(),
            "bad-is",
            0,
            None,
        );
        assert!(!result.converged);
    }

    #[test]
    fn adaptation_sees_every_unstopped_batch_and_moves_the_reported_shift() {
        let ls = LinearLimitState::along_first_axis(3, 4.0);
        let problem = FailureProblem::from_model(ls.clone(), LinearLimitState::spec());
        // A target no run of this budget reaches: all three batches run.
        let config = ImportanceSamplingConfig {
            max_samples: 2_500,
            batch_size: 1_000,
            target_relative_error: 1e-6,
            min_failures: 50,
            ..ImportanceSamplingConfig::default()
        };
        let start = Proposal::shifted(Vector::from_slice(&[3.0, 0.0, 0.0]));
        let run = |adapt: Option<&mut Adaptation<'_>>| {
            run_importance_sampling(
                &problem.fork(),
                &start,
                &config,
                &mut RngStream::from_seed(3),
                &Executor::serial(),
                "is",
                0,
                adapt,
            )
        };
        let fixed = run(None);

        // A step that never adapts leaves the run bit-identical, and it runs
        // on the final, budget-exhausting batch too.
        let mut batch_sizes = Vec::new();
        let observed = run(Some(&mut |points, weights, failed| {
            assert!(points.len() == weights.len() && weights.len() == failed.len());
            batch_sizes.push(points.len());
            None
        }));
        assert_eq!(batch_sizes, [1_000, 1_000, 500]);
        assert_eq!(observed, fixed);

        // A returned proposal draws the following batches and is the one
        // whose shift is reported.
        let (moved, diag) = run(Some(&mut |_, _, _| {
            Some(Proposal::shifted(ls.exact_mpfp()))
        }));
        assert_eq!(diag.shift.as_deref(), Some(ls.exact_mpfp().as_slice()));
        assert_eq!(moved.trace[0], fixed.0.trace[0]);
        assert_ne!(moved.trace[1], fixed.0.trace[1]);
    }

    #[test]
    fn importance_sampling_is_bit_identical_across_thread_counts() {
        let ls = LinearLimitState::along_first_axis(5, 4.0);
        let problem = FailureProblem::from_model(ls.clone(), LinearLimitState::spec());
        let proposal = Proposal::defensive_mixture(ls.exact_mpfp(), 0.1);
        let config = ImportanceSamplingConfig {
            max_samples: 10_000,
            batch_size: 500,
            target_relative_error: 0.05,
            min_failures: 30,
            ..ImportanceSamplingConfig::default()
        };
        let run = |threads: usize| {
            run_importance_sampling(
                &problem.fork(),
                &proposal,
                &config,
                &mut RngStream::from_seed(11),
                &Executor::new(threads).with_chunk_size(13),
                "is",
                7,
                None,
            )
        };
        let (reference, reference_diag) = run(1);
        for threads in [2, 8] {
            let (result, diag) = run(threads);
            assert_eq!(result, reference, "diverged at {threads} threads");
            assert_eq!(diag, reference_diag);
        }
    }
}
