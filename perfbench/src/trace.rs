//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer's public functions (Dapper-style: name, start, end,
//! parent, and a trace id shared by the spans of one analysis or job). They
//! stay in memory while the workload runs and are written out once, at exit.
//! A layer's self time is its spans' duration minus the part of that
//! interval covered by their child spans.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// A small stable id for the calling thread (spans of concurrent cells are
/// told apart by it).
pub fn thread_tag() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    hasher.finish() & 0xffff_ffff
}

impl Tracer {
    /// Nanoseconds since the epoch for an instant taken by the caller.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span or trace id.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.new_id();
        self.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            thread: thread_tag(),
        });
        id
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children.get_mut(&span.id).map_or(0, |intervals| {
                for interval in intervals.iter_mut() {
                    interval.0 = interval.0.clamp(span.start_ns, span.end_ns);
                    interval.1 = interval.1.clamp(span.start_ns, span.end_ns);
                }
                union_ns(intervals)
            });
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name).or_insert(0) += own[&span.id];
    }
    by_name
}

/// JSON-lines form of one span.
pub fn span_json(span: &Span) -> Value {
    Value::Object(vec![
        ("id".to_string(), span.id.to_value()),
        ("parent".to_string(), span.parent.to_value()),
        ("trace".to_string(), span.trace.to_value()),
        ("name".to_string(), span.name.to_string().to_value()),
        ("start_ns".to_string(), span.start_ns.to_value()),
        ("end_ns".to_string(), span.end_ns.to_value()),
        ("thread".to_string(), span.thread.to_value()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "x",
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 10, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 10);
    }
}
