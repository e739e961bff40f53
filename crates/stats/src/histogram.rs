//! Fixed-bin histograms for metric distributions (Figure 3 of the evaluation).

use serde::{Deserialize, Serialize};

/// A histogram with uniform bins over `[low, high)`.
///
/// Values outside the range are counted in underflow/overflow buckets so that
/// no sample is silently dropped — important when plotting heavy metric tails.
///
/// ```
/// use gis_stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// for x in [1.0, 2.5, 2.6, 7.0, 11.0] {
///     h.add(x);
/// }
/// assert_eq!(h.total_count(), 5);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.counts()[1], 2); // bin [2,4)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    low: f64,
    high: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[low, high)`.
    ///
    /// Returns `None` if `bins == 0`, `low >= high`, or either bound is not
    /// finite.
    pub fn new(low: f64, high: f64, bins: usize) -> Option<Self> {
        if bins == 0 || low >= high || !low.is_finite() || !high.is_finite() {
            return None;
        }
        Some(Histogram {
            low,
            high,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Adds one value.
    pub fn add(&mut self, value: f64) {
        if value.is_nan() {
            // NaNs count as overflow so they remain visible in totals.
            self.overflow += 1;
            return;
        }
        if value < self.low {
            self.underflow += 1;
        } else if value >= self.high {
            self.overflow += 1;
        } else {
            let width = (self.high - self.low) / self.counts.len() as f64;
            let idx = ((value - self.low) / width) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of values below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values at or above the upper bound (including NaNs).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of values added (including under/overflow).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_bins()`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.high - self.low) / self.counts.len() as f64;
        self.low + width * (i as f64 + 0.5)
    }

    /// Probability density estimate for bin `i` (count / (total · width)).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_bins()`.
    pub fn density(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let total = self.total_count();
        if total == 0 {
            return 0.0;
        }
        let width = (self.high - self.low) / self.counts.len() as f64;
        self.counts[i] as f64 / (total as f64 * width)
    }

    /// Iterator over `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.counts.len()).map(move |i| (self.bin_center(i), self.counts[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 1.0, 4).is_none());
        assert!(Histogram::new(2.0, 1.0, 4).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_none());
        assert!(Histogram::new(0.0, 1.0, 4).is_some());
    }

    #[test]
    fn binning_and_bounds() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.add(-1.0);
        h.add(0.0);
        h.add(9.999);
        h.add(10.0);
        h.add(f64::NAN);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total_count(), 5);
    }

    #[test]
    fn bin_centers_and_density() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        assert_eq!(h.bin_center(0), 0.5);
        assert_eq!(h.bin_center(3), 3.5);
        for _ in 0..4 {
            h.add(1.5);
        }
        // All mass in bin 1 with width 1 → density 1.0.
        assert!((h.density(1) - 1.0).abs() < 1e-12);
        assert_eq!(h.density(0), 0.0);
    }

    #[test]
    fn iter_yields_every_bin() {
        let h = Histogram::new(0.0, 1.0, 8).unwrap();
        assert_eq!(h.iter().count(), 8);
    }
}
