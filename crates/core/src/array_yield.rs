//! Array-level yield arithmetic: translating a per-cell failure probability
//! into memory-array yield, with and without redundant (spare) rows, and the
//! inverse problem of deriving the per-cell sigma target for a capacity/yield
//! requirement — the numbers a memory architect actually asks the extraction
//! flow for.

use serde::{Deserialize, Serialize};

/// Numerically stable `ln(exp(a) + exp(b))`.
fn log_sum_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    // gis-analyze: allow(float-eq, empty-accumulator sentinel: log-sum-exp of nothing is -inf)
    if lo == f64::NEG_INFINITY {
        return hi;
    }
    let out = hi + (lo - hi).exp().ln_1p();
    debug_assert!(!out.is_nan(), "log_sum_exp({a}, {b}) produced NaN");
    out
}

/// Array-level yield model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayYield {
    /// Number of bitcells in the array.
    pub cells: u64,
    /// Number of defective cells that can be repaired (spare rows/columns,
    /// expressed in repairable cells).
    pub repairable_cells: u64,
}

impl ArrayYield {
    /// An array of `cells` bitcells without redundancy.
    pub fn without_redundancy(cells: u64) -> Self {
        ArrayYield {
            cells,
            repairable_cells: 0,
        }
    }

    /// An array of `cells` bitcells that can repair up to `repairable_cells`
    /// failing cells.
    pub fn with_redundancy(cells: u64, repairable_cells: u64) -> Self {
        ArrayYield {
            cells,
            repairable_cells,
        }
    }

    /// Probability that the array yields (all failures repairable) for a given
    /// per-cell failure probability.
    ///
    /// Uses the Poisson approximation of the binomial count of failing cells,
    /// `λ = N·p`, which is accurate to many digits in the regime of interest
    /// (`p ≤ 1e-4`, `N ≥ 1e3`).
    ///
    /// Equal to `exp(log_yield_probability(p))` capped at 1; see
    /// [`ArrayYield::log_yield_probability`] for the far-tail regime where the
    /// probability itself underflows f64.
    ///
    /// # Panics
    ///
    /// Panics if `per_cell_failure_probability` is not in `[0, 1]`.
    pub fn yield_probability(&self, per_cell_failure_probability: f64) -> f64 {
        self.log_yield_probability(per_cell_failure_probability)
            .exp()
            .min(1.0)
    }

    /// Natural log of [`ArrayYield::yield_probability`]: `ln P(X ≤ k)` for
    /// `X ~ Poisson(N·p)`, exact in log space.
    ///
    /// The Poisson CDF is accumulated by a streaming log-sum-exp over the
    /// recursive term ratio `term_i = term_{i-1} · λ/i`, so no individual term
    /// is ever exponentiated on its own — the naive linear-space sum underflows
    /// term by term once `λ ≳ 750` even when the log of the CDF is perfectly
    /// representable, and pays a fresh `ln_gamma` per term on top. An
    /// upper-tail shortcut answers `0.0` (yield = 1) without touching the
    /// `O(k)` loop whenever a Chernoff bound proves the missed tail mass is
    /// below 1e-18, which is what keeps
    /// [`ArrayYield::required_cell_failure_probability`] (200 bisection steps,
    /// each calling this) cheap for generously-repairable arrays.
    ///
    /// # Panics
    ///
    /// Panics if `per_cell_failure_probability` is not in `[0, 1]`.
    pub fn log_yield_probability(&self, per_cell_failure_probability: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&per_cell_failure_probability),
            "per-cell failure probability must be in [0, 1]"
        );
        if self.cells == 0 {
            return 0.0;
        }
        let lambda = self.cells as f64 * per_cell_failure_probability;
        // gis-analyze: allow(float-eq, exact-zero rate short-circuits the Poisson tail)
        if lambda == 0.0 {
            return 0.0;
        }
        let k = self.repairable_cells;
        let k_f = k as f64;
        // Chernoff upper-tail shortcut: for k > λ,
        //   ln P(X > k) ≤ k − λ − k·ln(k/λ),
        // so once that bound drops below ln(1e-18) the CDF is 1 to within
        // f64 round-off and the term loop is pure waste.
        if k_f > lambda && k_f - lambda - k_f * (k_f / lambda).ln() < -41.5 {
            return 0.0;
        }
        // Streaming log-sum-exp of ln(term_i) = -λ + i·ln λ − ln i!, built
        // incrementally: ln(term_i) = ln(term_{i-1}) + ln λ − ln i.
        let ln_lambda = lambda.ln();
        let mut log_term = -lambda;
        let mut log_sum = log_term;
        for i in 1..=k {
            log_term += ln_lambda - (i as f64).ln();
            log_sum = log_sum_exp(log_sum, log_term);
        }
        debug_assert!(
            !log_sum.is_nan(),
            "Poisson log-CDF accumulation produced NaN (lambda={lambda}, k={k})"
        );
        log_sum.min(0.0)
    }

    /// The largest per-cell failure probability that still achieves the target
    /// array yield, found by bisection.
    ///
    /// # Panics
    ///
    /// Panics if `target_yield` is not in `(0, 1)`.
    pub fn required_cell_failure_probability(&self, target_yield: f64) -> f64 {
        assert!(
            target_yield > 0.0 && target_yield < 1.0,
            "target yield must be in (0, 1)"
        );
        if self.cells == 0 {
            return 1.0;
        }
        let mut lo = 0.0_f64;
        let mut hi = 1.0_f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.yield_probability(mid) >= target_yield {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The per-cell sigma target corresponding to
    /// [`ArrayYield::required_cell_failure_probability`].
    ///
    /// # Panics
    ///
    /// Panics if `target_yield` is not in `(0, 1)`.
    pub fn required_cell_sigma(&self, target_yield: f64) -> f64 {
        let p = self.required_cell_failure_probability(target_yield);
        if p <= 0.0 {
            f64::INFINITY
        } else if p >= 1.0 {
            0.0
        } else {
            gis_stats::normal::sigma_level(p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_without_redundancy_matches_closed_form() {
        let array = ArrayYield::without_redundancy(1_000_000);
        let p = 1e-7_f64;
        // Exact binomial yield (1-p)^N vs the Poisson approximation.
        let exact = (1.0 - p).powf(1e6);
        let approx = array.yield_probability(p);
        assert!((exact - approx).abs() < 1e-6, "{exact} vs {approx}");
        // Edge cases.
        assert_eq!(array.yield_probability(0.0), 1.0);
        assert_eq!(
            ArrayYield::without_redundancy(0).yield_probability(0.5),
            1.0
        );
    }

    #[test]
    fn redundancy_improves_yield() {
        let p = 2e-6;
        let plain = ArrayYield::without_redundancy(1 << 20);
        let repaired = ArrayYield::with_redundancy(1 << 20, 4);
        let y_plain = plain.yield_probability(p);
        let y_repaired = repaired.yield_probability(p);
        assert!(y_repaired > y_plain);
        assert!(
            y_repaired > 0.9,
            "4 spare cells should rescue the yield, got {y_repaired}"
        );
        // With enough spares the yield approaches 1.
        let generous = ArrayYield::with_redundancy(1 << 20, 64);
        assert!(generous.yield_probability(p) > 0.999999);
    }

    #[test]
    fn required_probability_inverts_yield() {
        let array = ArrayYield::with_redundancy(8 * 1024 * 1024, 8);
        let target = 0.99;
        let p_req = array.required_cell_failure_probability(target);
        assert!(p_req > 0.0 && p_req < 1e-4);
        let achieved = array.yield_probability(p_req);
        assert!((achieved - target).abs() < 0.01, "achieved {achieved}");
        // Tighter target → smaller allowed probability.
        let p_tighter = array.required_cell_failure_probability(0.999);
        assert!(p_tighter < p_req);
    }

    #[test]
    fn sigma_targets_grow_with_capacity() {
        // The classic statement "a 64 Mb array needs ~6 sigma cells".
        let small = ArrayYield::without_redundancy(64 * 1024);
        let large = ArrayYield::without_redundancy(64 * 1024 * 1024);
        let sigma_small = small.required_cell_sigma(0.99);
        let sigma_large = large.required_cell_sigma(0.99);
        assert!(sigma_large > sigma_small);
        assert!(sigma_small > 4.0 && sigma_small < 6.0, "{sigma_small}");
        assert!(sigma_large > 5.5 && sigma_large < 7.5, "{sigma_large}");
    }

    /// Exact binomial CDF `P(X ≤ k)` for `X ~ Binomial(n, p)`, accumulated in
    /// log space — the ground truth the Poisson approximation is checked
    /// against.
    fn binomial_cdf(n: u64, p: f64, k: u64) -> f64 {
        use crate::special::ln_gamma;
        let ln_n1 = ln_gamma(n as f64 + 1.0);
        let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
        let mut log_sum = f64::NEG_INFINITY;
        for i in 0..=k {
            let i_f = i as f64;
            let log_term = ln_n1 - ln_gamma(i_f + 1.0) - ln_gamma(n as f64 - i_f + 1.0)
                + i_f * ln_p
                + (n as f64 - i_f) * ln_q;
            log_sum = super::log_sum_exp(log_sum, log_term);
        }
        log_sum.exp().min(1.0)
    }

    #[test]
    fn poisson_cdf_cross_checks_exact_binomial_at_large_lambda() {
        // λ = N·p = 1000 with p small enough that the Poisson approximation
        // is tight (total-variation distance ≤ λ·p). k spans the meaningful
        // part of the CDF: well below, at, and well above the mean.
        let n = 100_000_000u64;
        let p = 1e-5;
        for k in [900u64, 968, 1000, 1032, 1100] {
            let array = ArrayYield::with_redundancy(n, k);
            let poisson = array.yield_probability(p);
            let binomial = binomial_cdf(n, p, k);
            assert!(
                (poisson - binomial).abs() < 2e-2,
                "k={k}: poisson {poisson} vs binomial {binomial}"
            );
        }
        // Small-λ regime: the approximation is many digits tight.
        let n = 1_000_000u64;
        let p = 1e-6; // λ = 1
        for k in [0u64, 1, 2, 5] {
            let array = ArrayYield::with_redundancy(n, k);
            let poisson = array.yield_probability(p);
            let binomial = binomial_cdf(n, p, k);
            assert!(
                (poisson - binomial).abs() < 1e-5,
                "k={k}: poisson {poisson} vs binomial {binomial}"
            );
        }
    }

    #[test]
    fn log_yield_survives_lambda_where_linear_terms_underflow() {
        // λ = 2000: every individual Poisson term for i ≤ 100 is below
        // exp(-745) and underflows to 0.0 in linear space — the old
        // accumulation returned exactly 0. The log-space CDF is still exact.
        let array = ArrayYield::with_redundancy(2_000_000, 100);
        let log_yield = array.log_yield_probability(1e-3);
        assert!(log_yield.is_finite());
        // ln P(X ≤ 100 | λ = 2000) is dominated by the i = 100 term:
        // -2000 + 100·ln(2000) - ln(100!) ≈ -1603.
        assert!(
            log_yield > -1610.0 && log_yield < -1595.0,
            "log yield {log_yield}"
        );
        // The linear-space probability genuinely underflows...
        assert_eq!(array.yield_probability(1e-3), 0.0);
        // ...but moderate cases agree with the straightforward sum.
        let moderate = ArrayYield::with_redundancy(1 << 20, 4);
        let p = 2e-6;
        let lambda = (1u64 << 20) as f64 * p;
        let direct: f64 = (0..=4u64)
            .map(|i| {
                (-lambda + i as f64 * lambda.ln() - crate::special::ln_gamma(i as f64 + 1.0)).exp()
            })
            .sum();
        assert!((moderate.yield_probability(p) - direct).abs() < 1e-14);
    }

    #[test]
    fn upper_tail_shortcut_agrees_with_full_sum() {
        // k far above λ: the shortcut fires and must agree (to f64 round-off)
        // with what the full summation would have produced, i.e. exactly 1.
        let array = ArrayYield::with_redundancy(1_000_000, 400);
        let p = 5e-6; // λ = 5, k = 400 → P(X > k) astronomically small
        assert_eq!(array.yield_probability(p), 1.0);
        assert_eq!(array.log_yield_probability(p), 0.0);
        // Just inside the shortcut boundary the full sum runs and lands on
        // the same answer within round-off.
        let near = ArrayYield::with_redundancy(1_000_000, 30);
        let y = near.yield_probability(5e-6);
        assert!((y - 1.0).abs() < 1e-12, "{y}");
        // Monotonicity across the boundary: more spares never hurts.
        let mut prev = 0.0;
        for k in 0..50 {
            let y = ArrayYield::with_redundancy(1_000_000, k).yield_probability(1e-5);
            assert!(y >= prev - 1e-15, "non-monotone at k={k}");
            prev = y;
        }
    }

    #[test]
    #[should_panic(expected = "target yield must be in (0, 1)")]
    fn invalid_target_yield_rejected() {
        let _ = ArrayYield::without_redundancy(100).required_cell_failure_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "per-cell failure probability must be in [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = ArrayYield::without_redundancy(100).yield_probability(-0.1);
    }
}
