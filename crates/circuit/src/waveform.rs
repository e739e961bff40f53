//! Sampled waveforms and SPICE-style `.measure` operations.
//!
//! [`WaveformView`] is a zero-copy view over a borrowed time axis and value
//! axis: a node of a transient result, or a DC transfer curve. The SRAM
//! sessions measure thousands of transients per second and never need an
//! owned copy.

use crate::error::CircuitError;
use serde::{Deserialize, Serialize};

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossingDirection {
    /// Signal passes the level going up.
    Rising,
    /// Signal passes the level going down.
    Falling,
    /// Either direction counts.
    Either,
}

/// Time at which the sampled segment from `(t0, v0)` to `(t1, v1)` crosses
/// `level` in `direction`, by linear interpolation, or `None` if it does not.
///
/// A segment crosses going up when `v0 < level <= v1` and going down when
/// `v0 > level >= v1`. This is the per-segment step of
/// [`WaveformView::crossing_time`]; a caller that watches a transient point
/// by point (to stop it at a measured event) uses it so that its test and the
/// later measurement cannot disagree.
///
/// ```
/// use gis_circuit::{segment_crossing, CrossingDirection};
///
/// let t = segment_crossing(0.0, 1.0, 2.0, 0.0, 0.25, CrossingDirection::Falling);
/// assert_eq!(t, Some(1.5));
/// assert_eq!(segment_crossing(0.0, 1.0, 2.0, 0.0, 0.25, CrossingDirection::Rising), None);
/// ```
pub fn segment_crossing(
    t0: f64,
    v0: f64,
    t1: f64,
    v1: f64,
    level: f64,
    direction: CrossingDirection,
) -> Option<f64> {
    let rising = v0 < level && v1 >= level;
    let falling = v0 > level && v1 <= level;
    let hit = match direction {
        CrossingDirection::Rising => rising,
        CrossingDirection::Falling => falling,
        CrossingDirection::Either => rising || falling,
    };
    if !hit {
        return None;
    }
    let frac = if (v1 - v0).abs() < f64::MIN_POSITIVE {
        0.0
    } else {
        (level - v0) / (v1 - v0)
    };
    Some(t0 + frac * (t1 - t0))
}

/// A borrowed, zero-copy waveform: a strictly increasing time axis with one
/// value each, and the `.measure` operations on it.
///
/// Obtained from [`crate::TransientResult::waveform_view`] or built with
/// [`WaveformView::new`]. The constructor does *not* validate monotonicity:
/// a transient result's time axis is strictly increasing by construction.
///
/// ```
/// use gis_circuit::{CrossingDirection, WaveformView};
///
/// let w = WaveformView::new(&[0.0, 1.0, 2.0], &[0.0, 1.0, 0.0]);
/// let t = w.crossing_time(0.5, CrossingDirection::Rising, 0.0).unwrap();
/// assert!((t - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WaveformView<'a> {
    times: &'a [f64],
    values: &'a [f64],
}

impl<'a> WaveformView<'a> {
    /// Creates a view over parallel borrowed axes.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or of different lengths (monotonicity is
    /// the caller's contract, see the type-level docs).
    pub fn new(times: &'a [f64], values: &'a [f64]) -> Self {
        assert!(
            !times.is_empty() && times.len() == values.len(),
            "waveform view needs equal, non-zero numbers of times and values"
        );
        WaveformView { times, values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Always `false` for a constructed view.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sampled time points.
    pub fn times(&self) -> &'a [f64] {
        self.times
    }

    /// Sampled values.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Last time point.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn end_time(&self) -> f64 {
        *self.times.last().expect("waveform is never empty")
    }

    /// Value at the final time point.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn final_value(&self) -> f64 {
        *self.values.last().expect("waveform is never empty")
    }

    /// Maximum value over the whole waveform.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Linearly interpolated value at time `t`. Clamps to the first/last sample
    /// outside the sampled range.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn value_at(&self, t: f64) -> f64 {
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= self.end_time() {
            return self.final_value();
        }
        // Binary search for the bracketing interval.
        let idx = match self
            .times
            .binary_search_by(|probe| probe.partial_cmp(&t).expect("times are finite"))
        {
            Ok(i) => return self.values[i],
            Err(i) => i,
        };
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.values[idx - 1], self.values[idx]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Time of the first crossing of `level` in the given `direction` at or
    /// after `after` (linear interpolation between samples).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::MeasurementFailed`] if no such crossing exists.
    pub fn crossing_time(
        &self,
        level: f64,
        direction: CrossingDirection,
        after: f64,
    ) -> Result<f64, CircuitError> {
        for i in 1..self.times.len() {
            let (t0, t1) = (self.times[i - 1], self.times[i]);
            if t1 < after {
                continue;
            }
            let (v0, v1) = (self.values[i - 1], self.values[i]);
            match segment_crossing(t0, v0, t1, v1, level, direction) {
                Some(t_cross) if t_cross >= after => return Ok(t_cross),
                _ => {}
            }
        }
        Err(CircuitError::MeasurementFailed(format!(
            "signal never crosses {level} ({direction:?}) after t = {after:.3e}s"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RAMP_TIMES: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];
    const RAMP_VALUES: [f64; 5] = [0.0, 1.0, 2.0, 1.0, 0.0];

    fn ramp() -> WaveformView<'static> {
        WaveformView::new(&RAMP_TIMES, &RAMP_VALUES)
    }

    #[test]
    fn basic_accessors() {
        let w = ramp();
        assert_eq!(w.len(), 5);
        assert!(!w.is_empty());
        assert_eq!(w.times(), &RAMP_TIMES);
        assert_eq!(w.values(), &RAMP_VALUES);
        assert_eq!(w.end_time(), 4.0);
        assert_eq!(w.final_value(), 0.0);
        assert_eq!(w.max_value(), 2.0);
    }

    #[test]
    fn interpolation() {
        let w = ramp();
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 0.5);
        assert_eq!(w.value_at(1.0), 1.0);
        assert_eq!(w.value_at(2.5), 1.5);
        assert_eq!(w.value_at(9.0), 0.0);
    }

    #[test]
    fn crossings() {
        let w = ramp();
        let t = w
            .crossing_time(1.5, CrossingDirection::Rising, 0.0)
            .unwrap();
        assert!((t - 1.5).abs() < 1e-12);
        let t = w
            .crossing_time(1.5, CrossingDirection::Falling, 0.0)
            .unwrap();
        assert!((t - 2.5).abs() < 1e-12);
        let t = w
            .crossing_time(1.5, CrossingDirection::Either, 2.0)
            .unwrap();
        assert!((t - 2.5).abs() < 1e-12);
        assert!(w
            .crossing_time(5.0, CrossingDirection::Rising, 0.0)
            .is_err());
        assert!(w
            .crossing_time(1.5, CrossingDirection::Rising, 3.0)
            .is_err());
    }

    #[test]
    fn segment_crossings_interpolate_rising_falling_and_flat_segments() {
        use CrossingDirection::{Either, Falling, Rising};
        // Rising 0 → 2 over [1, 3]: level 0.5 is a quarter of the way.
        assert_eq!(segment_crossing(1.0, 0.0, 3.0, 2.0, 0.5, Rising), Some(1.5));
        assert_eq!(segment_crossing(1.0, 0.0, 3.0, 2.0, 0.5, Either), Some(1.5));
        assert_eq!(segment_crossing(1.0, 0.0, 3.0, 2.0, 0.5, Falling), None);
        // Falling 2 → 0 over [1, 3]; ending exactly on the level counts.
        assert_eq!(
            segment_crossing(1.0, 2.0, 3.0, 0.0, 0.5, Falling),
            Some(2.5)
        );
        assert_eq!(
            segment_crossing(1.0, 2.0, 3.0, 0.0, 0.0, Falling),
            Some(3.0)
        );
        assert_eq!(segment_crossing(1.0, 2.0, 3.0, 0.0, 0.5, Rising), None);
        // Starting on the level is not a crossing.
        assert_eq!(segment_crossing(1.0, 0.5, 3.0, 0.0, 0.5, Falling), None);
        // A flat segment never crosses, and a step smaller than the
        // smallest normal number crosses at its start (frac = 0).
        assert_eq!(segment_crossing(1.0, 0.5, 3.0, 0.5, 0.5, Either), None);
        let tiny = f64::MIN_POSITIVE / 4.0;
        assert_eq!(
            segment_crossing(1.0, 0.0, 3.0, tiny, tiny, Rising),
            Some(1.0)
        );
        // crossing_time is the first segment_crossing at or after `after`.
        let w = ramp();
        let times = w.times();
        let values = w.values();
        for (level, direction) in [(1.5, Rising), (1.5, Falling), (0.25, Either)] {
            let expected = (1..times.len())
                .find_map(|i| {
                    segment_crossing(
                        times[i - 1],
                        values[i - 1],
                        times[i],
                        values[i],
                        level,
                        direction,
                    )
                })
                .unwrap();
            let got = w.crossing_time(level, direction, 0.0).unwrap();
            assert_eq!(got.to_bits(), expected.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "equal, non-zero")]
    fn view_construction_validates_lengths() {
        let _ = WaveformView::new(&[0.0, 1.0], &[1.0]);
    }
}
