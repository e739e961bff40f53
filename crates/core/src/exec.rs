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
//! * [`Executor::map`] / [`Executor::map_chunks`] split the input into fixed
//!   chunks of [`Executor::chunk_size`] items. Worker threads race only for
//!   *which* chunk to run next; each chunk's results land at the chunk's fixed
//!   output position, so the assembled output is always in input order.
//! * [`Executor::map_rng`] additionally derives one RNG substream per chunk via
//!   [`RngStream::split`], keyed by the chunk index. The substreams depend only
//!   on the parent stream's seed and the chunk index — never on how chunks are
//!   interleaved across threads — so randomized parallel work is reproducible
//!   from a single seed at any thread count.
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

use gis_stats::RngStream;
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
/// back down costs more than it recovers on tiny batches — the evaluation
/// benchmark's small analytic problems recorded `speedup_vs_1thread` of
/// 0.72–0.96× (pure dispatch overhead) before this cutover existed. With at
/// most two chunks the theoretical win is ≤2× on work that is already cheap,
/// so the executor keeps such batches inline. Inline and scoped execution
/// assemble results in the same input order, so the cutover changes latency
/// only — output stays bit-identical.
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
    /// Number of points per work chunk handed to a worker thread. Must be
    /// positive. Results are invariant to this value for the plain batch
    /// methods; only [`Executor::map_rng`] substreams are keyed by chunk.
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
/// shutdown hazards; for the simulation-bound batches it serves, the spawn cost
/// is noise.
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

    /// Number of items per work chunk.
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
    /// per input element. This is the primitive behind
    /// [`crate::FailureProblem::metrics_batch_on`]: handing whole chunks to a
    /// [`crate::PerformanceModel::evaluate_batch`] override lets the model
    /// hoist per-batch setup (netlist construction, solver structure) while the
    /// executor supplies the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a different number of results than the chunk it
    /// was handed. A panic raised by `f` itself is contained per chunk on the
    /// worker threads and re-raised on the calling thread — always the
    /// panic of the *first* failing chunk in input order, so a panicking
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
        let chunks: Vec<&[T]> = items.chunks(self.chunk_size).collect();

        // Fault containment: each chunk runs behind `catch_unwind`, so one
        // panicking chunk no longer tears down the scope (and poisons the
        // slot mutex) while sibling workers are mid-chunk. Every chunk still
        // executes; the first failure *in input order* is re-raised on the
        // calling thread afterwards, so a panicking workload fails
        // deterministically at any thread count — and a caller that catches
        // it (the sweep/serve containment plane) observes a fully quiesced
        // executor. `AssertUnwindSafe` is justified because `f` is shared
        // immutably and the panic payload is propagated, never swallowed.
        type CaughtChunk<R> = std::thread::Result<Vec<R>>;
        let slots: Mutex<Vec<Option<CaughtChunk<R>>>> =
            Mutex::new((0..chunks.len()).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(chunks.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= chunks.len() {
                        break;
                    }
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_chunk(chunks[index])
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
            match slot.expect("every chunk was executed") // gis-analyze: allow(panic-site, the worker loop fills every slot before the scope joins, by construction)
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

    /// Produces `count` results from a randomized per-item function, with one
    /// RNG substream per chunk derived via [`RngStream::split`].
    ///
    /// Chunk `c` (items `c·chunk_size ..`) draws from `rng.split(c)`; `f` is
    /// called as `f(&mut substream, item_index)` with the items of a chunk in
    /// ascending order. Because the substream assignment depends only on the
    /// parent stream's seed and the chunk index, the output is bit-identical
    /// at every thread count. (It *does* depend on the chunk size, which is why
    /// the estimators pin their randomness to the sequential caller-side
    /// streams instead — this entry point serves workloads where generation
    /// itself must scale, e.g. raw sampling throughput benchmarks.)
    pub fn map_rng<R, F>(&self, rng: &RngStream, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut RngStream, usize) -> R + Sync,
    {
        let indices: Vec<usize> = (0..count).collect();
        self.map_chunks(&indices, |chunk| {
            let chunk_index = chunk[0] / self.chunk_size;
            let mut substream = rng.split(chunk_index as u64);
            chunk.iter().map(|&i| f(&mut substream, i)).collect()
        })
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
    fn map_chunks_hands_out_fixed_chunks() {
        let items: Vec<u32> = (0..100).collect();
        let exec = Executor::new(4).with_chunk_size(7);
        let sizes = exec.map_chunks(&items, |chunk| vec![chunk.len() as u32; chunk.len()]);
        // Every item reports the size of the chunk it travelled in: chunks are
        // 7 items except the last (100 = 14*7 + 2).
        assert_eq!(sizes.len(), 100);
        assert!(sizes[..98].iter().all(|&s| s == 7));
        assert_eq!(sizes[98], 2);
        assert_eq!(sizes[99], 2);
    }

    #[test]
    fn map_rng_is_thread_count_invariant() {
        let rng = RngStream::from_seed(42);
        let reference = Executor::new(1)
            .with_chunk_size(10)
            .map_rng(&rng, 137, |stream, _| stream.standard_normal());
        for threads in [2, 4, 8] {
            let run = Executor::new(threads)
                .with_chunk_size(10)
                .map_rng(&rng, 137, |stream, _| stream.standard_normal());
            let same = reference
                .iter()
                .zip(&run)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "map_rng diverged at {threads} threads");
        }
    }

    #[test]
    fn map_rng_substreams_depend_only_on_seed_and_chunk() {
        // Advancing the parent stream does not perturb the substreams: split
        // derives from the seed, not the stream position.
        let mut rng = RngStream::from_seed(7);
        let before = Executor::serial().map_rng(&rng, 20, |s, _| s.uniform());
        let _ = rng.uniform();
        let after = Executor::serial().map_rng(&rng, 20, |s, _| s.uniform());
        assert_eq!(before, after);
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
