//! Summary statistics: a streaming mean and variance, binomial and
//! chi-square tests, correlation and empirical quantiles.
//!
//! Failure-probability estimators accumulate millions of indicator evaluations;
//! [`OnlineStats`] keeps mean and variance in a numerically stable, single-pass
//! (Welford) form.

use serde::{Deserialize, Serialize};

/// Streaming (Welford) accumulator of count, mean and variance.
///
/// ```
/// use gis_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    /// gis-analyze: no_alloc
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel-friendly).
    /// gis-analyze: no_alloc
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n − 1` denominator); 0 when fewer than two
    /// observations have been seen.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Cumulative distribution function of the binomial distribution:
/// `P(X ≤ k)` for `X ~ Binomial(n, p)`.
///
/// The probability mass is accumulated iteratively in log space (term-ratio
/// recurrence), so the function stays accurate for the `n` in the hundreds
/// used by replication studies and does not underflow for small `p`.
///
/// ```
/// use gis_stats::summary::binomial_cdf;
/// // Fair coin, 4 tosses: P(X ≤ 1) = (1 + 4) / 16.
/// assert!((binomial_cdf(1, 4, 0.5) - 5.0 / 16.0).abs() < 1e-12);
/// assert_eq!(binomial_cdf(4, 4, 0.5), 1.0);
/// ```
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `n == 0`.
pub fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    assert!(n > 0, "binomial_cdf needs at least one trial");
    if k >= n {
        return 1.0;
    }
    // gis-analyze: allow(float-eq, exact boundary p = 0: every trial fails, CDF is 1)
    if p == 0.0 {
        return 1.0;
    }
    // gis-analyze: allow(float-eq, exact boundary p = 1: all trials succeed, CDF is 0)
    if p == 1.0 {
        return 0.0; // k < n and all trials succeed.
    }
    // ln P(X = 0) = n·ln(1−p); ln ratio of consecutive terms:
    // P(i+1)/P(i) = (n−i)/(i+1) · p/(1−p).
    let ln_odds = p.ln() - (-p).ln_1p();
    let mut ln_term = n as f64 * (-p).ln_1p();
    let mut cdf = ln_term.exp();
    for i in 0..k {
        ln_term += ((n - i) as f64).ln() - ((i + 1) as f64).ln() + ln_odds;
        cdf += ln_term.exp();
    }
    cdf.min(1.0)
}

/// Central binomial acceptance band `[k_lo, k_hi]` for the number of successes
/// in `n` trials at success probability `p`: the tightest count interval with
/// `P(X < k_lo) ≤ alpha/2` and `P(X > k_hi) ≤ alpha/2`, so
/// `P(k_lo ≤ X ≤ k_hi) ≥ 1 − alpha`.
///
/// This is the acceptance test for *empirical coverage*: if a method's
/// confidence intervals are honest at nominal level `p`, the number of
/// replications whose interval covers the truth falls inside this band except
/// with probability `alpha`.
///
/// ```
/// use gis_stats::summary::binomial_acceptance_band;
/// let (lo, hi) = binomial_acceptance_band(100, 0.9, 0.002);
/// assert!(lo >= 78 && lo <= 85);
/// assert!(hi >= 96 && hi <= 100);
/// ```
///
/// # Panics
///
/// Panics if `n == 0`, `p` is outside `(0, 1)` or `alpha` is outside `(0, 1)`.
pub fn binomial_acceptance_band(n: u64, p: f64, alpha: f64) -> (u64, u64) {
    assert!(n > 0, "acceptance band needs at least one trial");
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    let half = alpha / 2.0;
    // Smallest k with P(X ≤ k) > alpha/2 ⇒ P(X < k) ≤ alpha/2.
    let mut k_lo = 0;
    while k_lo < n && binomial_cdf(k_lo, n, p) <= half {
        k_lo += 1;
    }
    // Largest k with P(X ≥ k) > alpha/2, i.e. 1 − P(X ≤ k−1) > alpha/2.
    let mut k_hi = n;
    while k_hi > 0 && 1.0 - binomial_cdf(k_hi - 1, n, p) <= half {
        k_hi -= 1;
    }
    (k_lo, k_hi)
}

/// Pearson's chi-square goodness-of-fit statistic
/// `Σ (observed − expected)² / expected` over the bins.
///
/// Pair with a chi-square survival function at `bins − 1` degrees of freedom
/// (e.g. `gis_core::special::chi_square_survival`) for a p-value; used by the
/// RNG substream-independence tests.
///
/// ```
/// use gis_stats::summary::chi_square_statistic;
/// // Perfect agreement gives a zero statistic.
/// assert_eq!(chi_square_statistic(&[10, 10], &[10.0, 10.0]), 0.0);
/// ```
///
/// # Panics
///
/// Panics if the slices are empty, have different lengths, or any expected
/// count is not strictly positive.
pub fn chi_square_statistic(observed: &[u64], expected: &[f64]) -> f64 {
    assert!(!observed.is_empty(), "chi-square needs at least one bin");
    assert_eq!(
        observed.len(),
        expected.len(),
        "observed and expected bin counts differ in length"
    );
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| {
            assert!(e > 0.0, "expected counts must be strictly positive");
            let d = o as f64 - e;
            d * d / e
        })
        .sum()
}

/// Pearson correlation coefficient of two equally long samples; `0` when
/// either sample has zero variance.
///
/// ```
/// use gis_stats::summary::pearson_correlation;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson_correlation(&xs, &ys) - 1.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the slices are empty or have different lengths.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "correlation of empty samples");
    assert_eq!(xs.len(), ys.len(), "samples differ in length");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    // gis-analyze: allow(float-eq, division guard: zero variance leaves correlation undefined)
    if var_x == 0.0 || var_y == 0.0 {
        0.0
    } else {
        cov / (var_x * var_y).sqrt()
    }
}

/// Computes the `q`-quantile (0 ≤ q ≤ 1) of a slice by sorting a copy
/// (linear interpolation between order statistics).
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
#[allow(clippy::expect_used)] // invariants stated in the expect messages
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize; // gis-analyze: allow(float-cast, quantile bracketing: floor of an in-range rank position)
    let hi = pos.ceil() as usize; // gis-analyze: allow(float-cast, quantile bracketing: ceil of an in-range rank position)
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.5, 2.5, 2.5, 2.75, 3.25, 4.75];
        let stats: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((stats.mean() - mean).abs() < 1e-12);
        assert!((stats.sample_variance() - var).abs() < 1e-12);
        assert_eq!(stats.min(), 1.5);
        assert_eq!(stats.max(), 4.75);
    }

    #[test]
    fn merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0];
        let b_data = [10.0, 20.0, 30.0, 40.0];
        let mut a: OnlineStats = a_data.iter().copied().collect();
        let b: OnlineStats = b_data.iter().copied().collect();
        a.merge(&b);
        let all: OnlineStats = a_data.iter().chain(b_data.iter()).copied().collect();
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-12);
        assert_eq!(a.count(), 7);

        // Merging into/with empty accumulators.
        let mut empty = OnlineStats::new();
        empty.merge(&all);
        assert_eq!(empty.count(), all.count());
        let mut full = all;
        full.merge(&OnlineStats::new());
        assert_eq!(full.count(), all.count());
    }

    #[test]
    fn standard_error_of_a_balanced_indicator() {
        let stats: OnlineStats = (0..10_000).map(|i| (i % 2) as f64).collect();
        assert_eq!(stats.mean(), 0.5);
        // s = 0.5·sqrt(n/(n−1)), so the standard error is about 0.005.
        let expected = 0.5 * (10_000.0f64 / 9_999.0).sqrt() / 100.0;
        assert!((stats.standard_error() - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn quantiles() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_of(&data, 0.0), 1.0);
        assert_eq!(quantile_of(&data, 1.0), 5.0);
        assert_eq!(quantile_of(&data, 0.5), 3.0);
        assert!((quantile_of(&data, 0.25) - 2.0).abs() < 1e-12);
        // Unsorted input is fine.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile_of(&shuffled, 0.5), 3.0);
    }

    #[test]
    #[should_panic(expected = "quantile of empty slice")]
    fn quantile_empty_panics() {
        let _ = quantile_of(&[], 0.5);
    }

    /// Direct-summation reference for the binomial CDF (exact for small n).
    fn binomial_cdf_reference(k: u64, n: u64, p: f64) -> f64 {
        let mut cdf = 0.0;
        for i in 0..=k.min(n) {
            let mut ln_coeff = 0.0;
            for j in 0..i {
                ln_coeff += ((n - j) as f64).ln() - ((j + 1) as f64).ln();
            }
            cdf += (ln_coeff + i as f64 * p.ln() + (n - i) as f64 * (1.0 - p).ln()).exp();
        }
        cdf
    }

    #[test]
    fn binomial_cdf_matches_reference_and_edge_cases() {
        for &(n, p) in &[(10u64, 0.3), (25, 0.9), (100, 0.5), (400, 0.95)] {
            for k in [0, n / 4, n / 2, n - 1, n] {
                let got = binomial_cdf(k, n, p);
                let want = binomial_cdf_reference(k, n, p);
                assert!(
                    (got - want).abs() < 1e-10,
                    "CDF({k}; {n}, {p}) = {got} vs {want}"
                );
            }
        }
        // Monotone in k, exact endpoints.
        let mut prev = 0.0;
        for k in 0..=50 {
            let c = binomial_cdf(k, 50, 0.7);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(binomial_cdf(50, 50, 0.7), 1.0);
        assert_eq!(binomial_cdf(0, 5, 0.0), 1.0);
        assert_eq!(binomial_cdf(4, 5, 1.0), 0.0);
    }

    #[test]
    fn acceptance_band_has_guaranteed_coverage() {
        for &(n, p, alpha) in &[
            (100u64, 0.9, 0.002),
            (100, 0.9, 0.05),
            (250, 0.95, 0.001),
            (60, 0.5, 0.01),
        ] {
            let (lo, hi) = binomial_acceptance_band(n, p, alpha);
            assert!(lo <= hi, "band inverted for n={n}, p={p}");
            // P(X < lo) ≤ alpha/2 and P(X > hi) ≤ alpha/2.
            if lo > 0 {
                assert!(binomial_cdf(lo - 1, n, p) <= alpha / 2.0 + 1e-12);
            }
            assert!(1.0 - binomial_cdf(hi, n, p) <= alpha / 2.0 + 1e-12);
            // Total coverage of the band is at least 1 − alpha.
            let inside = binomial_cdf(hi, n, p)
                - if lo > 0 {
                    binomial_cdf(lo - 1, n, p)
                } else {
                    0.0
                };
            assert!(inside >= 1.0 - alpha - 1e-12);
            // The band brackets the mean.
            let mean = n as f64 * p;
            assert!((lo as f64) <= mean && mean <= hi as f64);
        }
        // A tighter alpha can only widen the band.
        let (lo_wide, hi_wide) = binomial_acceptance_band(100, 0.9, 0.001);
        let (lo_narrow, hi_narrow) = binomial_acceptance_band(100, 0.9, 0.1);
        assert!(lo_wide <= lo_narrow && hi_wide >= hi_narrow);
    }

    #[test]
    fn chi_square_statistic_detects_misfit() {
        // Uniform observed counts against a uniform expectation: statistic 0.
        assert_eq!(chi_square_statistic(&[25, 25, 25, 25], &[25.0; 4]), 0.0);
        // A skewed observation produces the textbook value.
        let stat = chi_square_statistic(&[30, 20], &[25.0, 25.0]);
        assert!((stat - 2.0).abs() < 1e-12);
        // More skew, larger statistic.
        assert!(chi_square_statistic(&[45, 5], &[25.0, 25.0]) > stat);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn chi_square_rejects_zero_expected() {
        let _ = chi_square_statistic(&[1, 2], &[0.0, 3.0]);
    }

    #[test]
    fn pearson_correlation_behaviour() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let neg: Vec<f64> = xs.iter().map(|x| -2.0 * x + 5.0).collect();
        assert!((pearson_correlation(&xs, &neg) + 1.0).abs() < 1e-12);
        // Constant sample has zero variance → correlation defined as 0.
        assert_eq!(pearson_correlation(&xs, &vec![1.0; 100]), 0.0);
        // Independent-ish alternating pattern correlates weakly.
        let alt: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(pearson_correlation(&xs, &alt).abs() < 0.1);
    }
}
