//! The timing wrapper around the `PerformanceModel` an estimator calls, and
//! the small statistics the benchmark reports with.

use crate::trace::{thread_tag, union_ns, Span, Tracer};
use gis_core::{FailureProblem, PerformanceModel};
use gis_linalg::Vector;
use std::sync::Mutex;
use std::time::Instant;

/// One `evaluate_batch` (or scalar `evaluate`) call seen by [`TimedModel`].
#[derive(Debug, Clone, Copy)]
pub struct ModelCall {
    pub start: Instant,
    pub end: Instant,
    pub points: usize,
    pub thread: u64,
}

/// Forwards every model call to the wrapped problem's model and records its
/// interval. The metric values are the inner model's own, so results stay
/// bit-identical to running without the wrapper.
pub struct TimedModel {
    inner: FailureProblem,
    calls: Mutex<Vec<ModelCall>>,
    captured: Option<Mutex<Vec<Vector>>>,
}

impl TimedModel {
    /// Wraps `inner`; with `capture`, every evaluated point is also kept for
    /// replay against the lower layers.
    pub fn new(inner: FailureProblem, capture: bool) -> Self {
        TimedModel {
            inner,
            calls: Mutex::new(Vec::new()),
            captured: capture.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Drains the calls recorded so far.
    pub fn take_calls(&self) -> Vec<ModelCall> {
        std::mem::take(&mut *self.calls.lock().expect("model call lock"))
    }

    /// Drains the captured points.
    pub fn take_points(&self) -> Vec<Vector> {
        self.captured.as_ref().map_or_else(Vec::new, |points| {
            std::mem::take(&mut *points.lock().expect("capture lock"))
        })
    }

    fn timed(&self, points: &[Vector], f: impl FnOnce() -> Vec<f64>) -> Vec<f64> {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.calls.lock().expect("model call lock").push(ModelCall {
            start,
            end,
            points: points.len(),
            thread: thread_tag(),
        });
        if let Some(captured) = &self.captured {
            captured
                .lock()
                .expect("capture lock")
                .extend_from_slice(points);
        }
        out
    }
}

impl PerformanceModel for TimedModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn evaluate(&self, z: &Vector) -> f64 {
        let point = std::slice::from_ref(z);
        self.timed(point, || vec![self.inner.metric(z)])[0]
    }

    fn evaluate_batch(&self, points: &[Vector]) -> Vec<f64> {
        self.timed(points, || self.inner.metrics_batch(points))
    }

    fn name(&self) -> &str {
        self.inner.model_name()
    }
}

/// Model-layer totals over a set of calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTotals {
    pub calls: u64,
    pub points: u64,
    /// Sum of call durations.
    pub busy_ns: u64,
    /// Length of the union of call intervals.
    pub union_ns: u64,
}

impl CallTotals {
    pub fn add(&mut self, other: CallTotals) {
        self.calls += other.calls;
        self.points += other.points;
        self.busy_ns += other.busy_ns;
        self.union_ns += other.union_ns;
    }
}

/// Turns `calls` into `model.evaluate_batch` spans under `parent` and sums
/// them up.
pub fn record_calls(tracer: &Tracer, calls: &[ModelCall], trace: u64, parent: u64) -> CallTotals {
    let mut intervals = Vec::with_capacity(calls.len());
    let mut totals = CallTotals::default();
    for call in calls {
        let (start_ns, end_ns) = (tracer.ns(call.start), tracer.ns(call.end));
        tracer.push(Span {
            id: tracer.new_id(),
            parent: Some(parent),
            trace,
            name: "model.evaluate_batch",
            start_ns,
            end_ns,
            thread: call.thread,
        });
        intervals.push((start_ns, end_ns));
        totals.calls += 1;
        totals.points += call.points as u64;
        totals.busy_ns += end_ns.saturating_sub(start_ns);
    }
    totals.union_ns = union_ns(&mut intervals);
    totals
}

/// Work items of the reference kernel, and iterations per item (together
/// about 4 ms on two idle cores of a 2-vCPU Xeon host).
const REFERENCE_ITEMS: u32 = 64;
const REFERENCE_ITERATIONS: u32 = 4_700;

/// Times a fixed arithmetic kernel, independent of the crates under test:
/// two threads claim its items from a shared counter, as the evaluation
/// engine's workers claim chunks, so a host that slows one core slows it as
/// much as it slows the workloads. The workloads sample it between jobs and
/// scale their timings to a fixed host speed, because the shared host's
/// speed drifts by tens of percent between runs and they drift with it.
pub fn reference_kernel_s() -> f64 {
    let next = std::sync::atomic::AtomicU32::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut x = 1.0;
                while next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < REFERENCE_ITEMS {
                    for i in 0..REFERENCE_ITERATIONS {
                        x = (x * 1.000_000_1 + f64::from(i).sqrt()).ln_1p();
                    }
                }
                std::hint::black_box(x);
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let fraction = position - lower as f64;
    sorted[lower] + (sorted[upper] - sorted[lower]) * fraction
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median nanoseconds per repetition of `f`, over `rounds` rounds of
/// `reps` calls each.
pub fn time_per_call_ns(rounds: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(mean(&values), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
