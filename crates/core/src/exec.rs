//! Deterministic multi-threaded batch execution.
//!
//! Every estimator in this crate structures its hot loop as
//! *generate-batch → evaluate-batch → reduce*: sample points are generated
//! sequentially (cheap, preserves the published RNG draw order), the expensive
//! metric evaluations fan out over an [`Executor`], and the results are reduced
//! sequentially in sample order. Because the evaluation of each point is a pure
//! function and both generation and reduction happen in a fixed order on the
//! calling thread, **estimates are bit-identical regardless of the thread
//! count** — `GIS_THREADS=1` and `GIS_THREADS=64` produce the same bits, only
//! the wall-clock differs.
//!
//! # The determinism contract
//!
//! * [`Executor::map`] / [`Executor::map_chunks`] cut the input into
//!   consecutive work units of at most [`Executor::chunk_size`] items. Worker
//!   threads race only for *which* unit to run next; each unit's results land
//!   at the unit's fixed output position, so the assembled output is always
//!   in input order. The unit sizes depend only on the input length, the
//!   thread count and the chunk size, never on timing.
//! * Units shrink toward the end of a batch (guided self-scheduling,
//!   Polychronopoulos & Kuck 1987): each takes `ceil(rest / (2·threads))`
//!   of the remaining items, rounded up to a multiple of the transient
//!   kernel's sample lanes ([`gis_circuit::LANES`]) and at most the chunk
//!   size, so the last units are small, no worker idles long while another
//!   finishes, and every lane of a unit has a sample. Because every item is
//!   evaluated by a pure function, the cut changes latency only, never a
//!   result.
//!
//! # Picking a thread count
//!
//! [`ExecutionConfig`] is the serializable knob plumbed through estimator
//! configurations and [`crate::analysis::YieldAnalysis`]. Its default resolves
//! the thread count from the `GIS_THREADS` environment variable (falling back
//! to 1, i.e. fully serial), so a deployment picks parallelism once without
//! touching call sites:
//!
//! ```
//! use gis_core::exec::{ExecutionConfig, Executor};
//!
//! let serial = Executor::serial();
//! let four = Executor::new(4);
//! let squares_a = serial.map(&[1.0_f64, 2.0, 3.0], |x| x * x);
//! let squares_b = four.map(&[1.0_f64, 2.0, 3.0], |x| x * x);
//! assert_eq!(squares_a, squares_b); // bit-identical at any thread count
//! assert_eq!(ExecutionConfig::serial().resolved_threads(), 1);
//! ```

use gis_circuit::LANES;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted when [`ExecutionConfig::threads`] is 0.
pub const THREADS_ENV_VAR: &str = "GIS_THREADS";

/// Reads the `GIS_THREADS` environment variable: `Some(n)` for a positive
/// integer value, `None` when unset or invalid. This is the single definition
/// of the variable's contract — reuse it instead of re-parsing the variable.
pub fn threads_from_env() -> Option<usize> {
    std::env::var(THREADS_ENV_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Default number of items per work chunk.
pub const DEFAULT_CHUNK_SIZE: usize = 32;

/// Batches that split into at most this many chunks run inline on the calling
/// thread even when worker threads are configured.
///
/// Spawning a thread scope, contending the result mutex and tearing the scope
/// back down costs tens of microseconds per batch: perfbench's
/// `transient-gis` traces show the second of two workers starting 41–51 µs
/// after the first on a 2-vCPU host. That is a few percent of a 64-point
/// transient batch, but more than a whole 64-point batch of perfbench's
/// `analytic-ladder` models, which evaluate in about 0.1 µs a point. A batch
/// of at most two chunks can gain at most 2× from threads, so the executor
/// keeps such batches inline. Inline and scoped
/// execution assemble results in the same input order, so the cutover
/// changes latency only — output stays bit-identical.
pub const INLINE_CHUNK_THRESHOLD: usize = 2;

/// Serializable parallelism configuration carried by every estimator.
///
/// The thread count never changes *what* an estimator computes — only how fast
/// (see the [module documentation](self) for the determinism contract) — so
/// this config deliberately lives outside the statistical fields of each
/// method's configuration and is excluded from nothing: two configs with
/// different thread counts still describe the same estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Number of worker threads. `0` means "resolve from the `GIS_THREADS`
    /// environment variable at run time, falling back to 1 (serial)".
    pub threads: usize,
    /// Most points per work unit handed to a worker thread. Must be
    /// positive. It bounds the batch one
    /// [`crate::PerformanceModel::evaluate_batch`] call receives and decides
    /// when a batch runs inline; it never changes a result.
    pub chunk_size: usize,
}

impl Default for ExecutionConfig {
    /// Auto mode: threads from `GIS_THREADS` (default 1), default chunk size.
    fn default() -> Self {
        ExecutionConfig {
            threads: 0,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl ExecutionConfig {
    /// Strictly serial execution (one thread, ignoring `GIS_THREADS`).
    pub fn serial() -> Self {
        ExecutionConfig {
            threads: 1,
            ..ExecutionConfig::default()
        }
    }

    /// A fixed thread count (`0` restores auto/environment resolution).
    pub fn with_threads(threads: usize) -> Self {
        ExecutionConfig {
            threads,
            ..ExecutionConfig::default()
        }
    }

    /// Auto mode: resolve the thread count from `GIS_THREADS` at run time.
    pub fn from_env() -> Self {
        ExecutionConfig::default()
    }

    /// Sets the work chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is 0.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// The effective thread count: `threads` if non-zero, otherwise the value
    /// of the `GIS_THREADS` environment variable, otherwise 1.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        threads_from_env().unwrap_or(1)
    }

    /// Builds the executor described by this configuration.
    pub fn executor(&self) -> Executor {
        Executor::new(self.resolved_threads()).with_chunk_size(self.chunk_size.max(1))
    }
}

/// A scoped-thread work-chunking executor with deterministic output order.
///
/// See the [module documentation](self) for the determinism contract. The
/// executor holds no threads between calls: each `map` spawns scoped workers
/// (`std::thread::scope`), which keeps it trivially `Send + Sync` and free of
/// shutdown hazards. On perfbench's `transient-gis` (64-point batches of
/// stopped reads, two threads, a 2-vCPU host) a unit's reads run on four
/// sample lanes at about 30 µs each, against about 40 µs one at a time, so
/// the 41–51 µs by which the spawn delays the second worker is about 4% of
/// a batch. The larger loss is the tail: read times vary by about ±20%, so
/// four fixed 16-point chunks leave one thread idle for a mean 86–229 µs at
/// the end of each 0.9–1.0 ms batch, and guided units hold that to 57–71 µs
/// (seeds 1–3, 8-second runs, a 2-vCPU host). Units in multiples of the
/// four lanes (16, 12, 12, 8, 4, 4, 4, 4) idle a little longer at the end
/// than units that shrink to two points (44–48 µs), but never leave a lane
/// empty: their median batch was 4–14% shorter in three alternating runs.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    chunk_size: usize,
}

impl Default for Executor {
    /// Equivalent to [`ExecutionConfig::default`]: threads from `GIS_THREADS`.
    fn default() -> Self {
        ExecutionConfig::default().executor()
    }
}

impl Executor {
    /// Creates an executor with the given worker thread count (minimum 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// A strictly serial executor.
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// An executor with the thread count resolved from `GIS_THREADS`
    /// (falling back to serial).
    pub fn from_env() -> Self {
        ExecutionConfig::from_env().executor()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Most items per work unit.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Sets the work chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is 0.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// The output is bit-identical regardless of the thread count (and of the
    /// chunk size) as long as `f` is a pure function of its argument.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_chunks(items, |chunk| chunk.iter().map(&f).collect())
    }

    /// Maps a chunk-at-a-time function over `items`, returning the
    /// concatenated results in input order.
    ///
    /// `f` receives consecutive sub-slices of `items` (each of at most
    /// [`Executor::chunk_size`] elements) and must return exactly one result
    /// per input element. Inline batches go in chunks of exactly
    /// `chunk_size`; threaded batches go in guided units that shrink toward
    /// the end of the batch (see the [module documentation](self)). This is
    /// the primitive behind
    /// [`crate::FailureProblem::metrics_batch_on`]: handing whole units to a
    /// [`crate::PerformanceModel::evaluate_batch`] override lets the model
    /// hoist per-batch setup (netlist construction, solver structure) while the
    /// executor supplies the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a different number of results than the slice it
    /// was handed. A panic raised by `f` itself is contained per unit on the
    /// worker threads and re-raised on the calling thread — always the
    /// panic of the *first* failing unit in input order, so a panicking
    /// workload fails deterministically at any thread count.
    #[allow(clippy::expect_used)] // invariants stated in the expect messages
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> Vec<R> + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let run_chunk = |chunk: &[T]| {
            let out = f(chunk);
            assert_eq!(
                out.len(),
                chunk.len(),
                "chunk function must return one result per input item"
            );
            out
        };
        // Serial executors and sub-threshold batches skip the scoped-thread
        // machinery entirely; see [`INLINE_CHUNK_THRESHOLD`].
        if self.threads == 1 || items.len().div_ceil(self.chunk_size) <= INLINE_CHUNK_THRESHOLD {
            let mut out = Vec::with_capacity(items.len());
            for chunk in items.chunks(self.chunk_size) {
                out.extend(run_chunk(chunk));
            }
            return out;
        }
        // Guided units: each takes ceil(rest / (2·threads)) of the remaining
        // items rounded up to a multiple of LANES, at most `chunk_size`.
        // `saturating_mul` keeps any positive `GIS_THREADS` from overflowing.
        let mut units: Vec<&[T]> = Vec::new();
        let mut rest = items;
        while !rest.is_empty() {
            let size = rest
                .len()
                .div_ceil(self.threads.saturating_mul(2))
                .next_multiple_of(LANES)
                .min(self.chunk_size)
                .min(rest.len());
            let (unit, tail) = rest.split_at(size);
            units.push(unit);
            rest = tail;
        }

        // Fault containment: each unit runs behind `catch_unwind`, so one
        // panicking unit no longer tears down the scope (and poisons the
        // slot mutex) while sibling workers are mid-unit. Every unit still
        // executes; the first failure *in input order* is re-raised on the
        // calling thread afterwards, so a panicking workload fails
        // deterministically at any thread count — and a caller that catches
        // it (the sweep/serve containment plane) observes a fully quiesced
        // executor. `AssertUnwindSafe` is justified because `f` is shared
        // immutably and the panic payload is propagated, never swallowed.
        type CaughtChunk<R> = std::thread::Result<Vec<R>>;
        let slots: Mutex<Vec<Option<CaughtChunk<R>>>> =
            Mutex::new((0..units.len()).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(units.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= units.len() {
                        break;
                    }
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_chunk(units[index])
                    }));
                    // Workers cannot panic outside the caught closure, so the
                    // mutex is never poisoned; recover defensively anyway.
                    let mut guard = match slots.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard[index] = Some(out);
                });
            }
        });
        let results = match slots.into_inner() {
            Ok(results) => results,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut out = Vec::with_capacity(items.len());
        for slot in results {
            match slot.expect("every unit was executed") // gis-analyze: allow(panic-site, the worker loop fills every slot before the scope joins, by construction)
            {
                Ok(chunk) => out.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }

    /// Runs `count` independent coarse-grained tasks on the worker threads,
    /// returning their results in task order.
    ///
    /// Unlike [`Executor::map`] — whose chunking amortizes per-item dispatch
    /// for fine-grained metric evaluations — every task here is its own work
    /// unit regardless of the configured [`Executor::chunk_size`], so a slow
    /// task never holds hostages queued behind it in the same chunk. This is
    /// the dispatch primitive of the matrix scheduler in
    /// [`crate::sweep`], where one
    /// "task" is an entire (problem, estimator) extraction. `f` must be a pure
    /// function of the task index for the output to be deterministic; the
    /// worker assignment is not.
    pub fn map_tasks<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let indices: Vec<usize> = (0..count).collect();
        Executor {
            threads: self.threads,
            chunk_size: 1,
        }
        .map(&indices, |&i| f(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolution_and_builders() {
        assert_eq!(ExecutionConfig::serial().resolved_threads(), 1);
        assert_eq!(ExecutionConfig::with_threads(7).resolved_threads(), 7);
        let cfg = ExecutionConfig::with_threads(3).with_chunk_size(5);
        assert_eq!(cfg.chunk_size, 5);
        let exec = cfg.executor();
        assert_eq!(exec.threads(), 3);
        assert_eq!(exec.chunk_size(), 5);
        // threads = 0 resolves from the environment; without the variable the
        // fallback is serial. (The variable is not set in unit-test runs unless
        // the whole suite runs under GIS_THREADS, in which case any positive
        // value is acceptable.)
        assert!(ExecutionConfig::default().resolved_threads() >= 1);
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn map_preserves_input_order_at_any_thread_count() {
        let items: Vec<f64> = (0..997).map(|i| i as f64).collect();
        let expected: Vec<f64> = items.iter().map(|x| x * x + 1.0).collect();
        for threads in [1, 2, 3, 8] {
            let exec = Executor::new(threads).with_chunk_size(16);
            assert_eq!(exec.map(&items, |x| x * x + 1.0), expected);
        }
    }

    #[test]
    fn map_chunks_hands_out_shrinking_guided_units() {
        // Each item reports the (start, len) of the slice it travelled in.
        let units = |exec: &Executor, len: usize| {
            let items: Vec<usize> = (0..len).collect();
            let tags = exec.map_chunks(&items, |unit| vec![(unit[0], unit.len()); unit.len()]);
            let mut units: Vec<(usize, usize)> = tags;
            units.dedup();
            units
        };
        for (threads, chunk, len) in [
            (2, 16, 64),
            (4, 7, 100),
            (3, 5, 11),
            (2, 1, 9),
            (8, 32, 997),
        ] {
            let exec = Executor::new(threads).with_chunk_size(chunk);
            let units = units(&exec, len);
            let mut next = 0;
            for &(start, size) in &units {
                assert_eq!(start, next, "units are consecutive");
                assert!(
                    (1..=chunk).contains(&size),
                    "unit of {size} at chunk {chunk}"
                );
                next += size;
            }
            assert_eq!(next, len, "units cover the input");
            assert!(
                units.windows(2).all(|w| w[1].1 <= w[0].1),
                "unit sizes never increase: {units:?}"
            );
            assert!(
                units[..units.len() - 1]
                    .iter()
                    .all(|&(_, size)| size % LANES == 0 || size == chunk),
                "all but the last unit fill whole lane groups: {units:?}"
            );
        }
        // A transient GIS batch: four fixed chunks would leave a thread idle
        // for the whole last chunk; guided units split it finer, and keep
        // all four sample lanes of every unit busy.
        let exec = Executor::new(2).with_chunk_size(16);
        let sizes: Vec<usize> = units(&exec, 64).iter().map(|u| u.1).collect();
        assert_eq!(sizes, [16, 12, 12, 8, 4, 4, 4, 4]);
    }

    #[test]
    fn huge_thread_counts_do_not_overflow_the_unit_size() {
        let items: Vec<u64> = (0..100).collect();
        let serial = Executor::serial().map(&items, |x| x * 3 + 1);
        assert_eq!(Executor::new(usize::MAX).map(&items, |x| x * 3 + 1), serial);
    }

    #[test]
    fn map_tasks_is_order_preserving_and_thread_invariant() {
        let expected: Vec<usize> = (0..57).map(|i| i * i).collect();
        for threads in [1, 3, 8] {
            // A deliberately large chunk size must not batch tasks together.
            let exec = Executor::new(threads).with_chunk_size(64);
            assert_eq!(exec.map_tasks(57, |i| i * i), expected);
        }
        let exec = Executor::new(4);
        let empty: Vec<usize> = exec.map_tasks(0, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn sub_threshold_batches_run_inline_and_match_scoped_output() {
        // Batch sizes straddling the inline cutover (1, 2 and 3 chunks at
        // chunk_size 4) produce identical results on a threaded executor;
        // the ≤-threshold sizes never spawn a scope.
        for len in [3usize, 8, 12] {
            let items: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let expected: Vec<f64> = items.iter().map(|x| 3.0 * x - 1.0).collect();
            let exec = Executor::new(4).with_chunk_size(4);
            assert_eq!(exec.map(&items, |x| 3.0 * x - 1.0), expected);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let exec = Executor::new(4);
        let out: Vec<f64> = exec.map(&[] as &[f64], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "one result per input item")]
    fn miscounted_chunk_results_are_rejected() {
        let exec = Executor::serial();
        let _ = exec.map_chunks(&[1, 2, 3], |_| vec![0u8]);
    }

    #[test]
    fn scoped_panic_is_contained_and_first_failure_wins() {
        // Two chunks panic (indices 3 and 7 at chunk_size 1); the panic that
        // reaches the caller is always the first one in *input* order,
        // regardless of which worker hit it first.
        for threads in [2, 4, 8] {
            let exec = Executor::new(threads).with_chunk_size(1);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.map(&(0..16).collect::<Vec<usize>>(), |&i| {
                    if i == 3 || i == 7 {
                        panic!("chunk {i} failed");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("panicking map must re-raise");
            let message = payload
                .downcast_ref::<String>()
                .expect("panic payload is a string");
            assert_eq!(message, "chunk 3 failed");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_rejected() {
        let _ = Executor::serial().with_chunk_size(0);
    }
}
