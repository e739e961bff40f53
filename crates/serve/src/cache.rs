//! Content-addressed result cache: one completed [`MethodReport`] per
//! canonical cell key, with single-flight execution.
//!
//! The cache is the dedup point of the daemon: when two clients submit
//! jobs sharing a cell (same problem identity, estimator spec, master
//! seed, policy and derived seed — see `job::cell_key`), the first claim
//! wins the right to execute and every other claimant blocks on the
//! condvar until the result lands. The evaluation counter is therefore
//! charged exactly once per distinct cell, which the cache tests assert.
//!
//! Quarantined failures are never cached: when a cell completes as a typed
//! failure (see `gis_core::fault`), the server journals the placeholder
//! for audit but drops its [`ComputeGuard`] unfulfilled, abandoning the
//! key — a later claim (same job retried, another client, or a restart)
//! gives the cell a fresh chance instead of serving the failure forever.

use gis_core::MethodReport;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What a [`ResultCache::claim`] call resolved to.
pub enum Claim<'a> {
    /// The caller owns the cell: execute it and call
    /// [`ComputeGuard::fulfill`] with the result. Dropping the guard
    /// without fulfilling — an early return, or a panic anywhere between
    /// the claim and the fulfill (a journal-append failure, for instance)
    /// — abandons the key, so it becomes claimable again and every blocked
    /// claimant re-races instead of hanging forever.
    Compute(ComputeGuard<'a>),
    /// The cell is already done (fresh or replayed); here is the result.
    Ready(Box<MethodReport>),
}

/// RAII ownership of an in-flight cell. Exactly one of two things happens
/// to the key: [`fulfill`](ComputeGuard::fulfill) stores the result and
/// charges the execution counter, or the guard drops unfulfilled and the
/// key is abandoned (removed, not counted as executed). Either way every
/// claimant blocked on the key wakes.
pub struct ComputeGuard<'a> {
    cache: &'a ResultCache,
    key: String,
    fulfilled: bool,
}

impl ComputeGuard<'_> {
    /// Completes the claimed cell: stores the result, charges the
    /// execution counter, and wakes every blocked claimant of the key.
    pub fn fulfill(mut self, report: MethodReport) {
        self.fulfilled = true;
        self.cache.fulfill(&self.key, report);
    }
}

impl Drop for ComputeGuard<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.cache.abandon(&self.key);
        }
    }
}

// `Done` dwarfs `InFlight`, but each map slot is overwritten in place and
// short-lived relative to the cell it caches — boxing would only add a hop.
#[allow(clippy::large_enum_variant)]
enum CellState {
    /// A claimant is computing the cell right now.
    InFlight,
    /// The cell is done.
    Done(MethodReport),
}

struct Inner {
    cells: BTreeMap<String, CellState>,
    /// Cells computed through the cache since boot (cache misses).
    executed: u64,
    /// Claims served from a `Done` entry since boot.
    hits: u64,
}

/// Lifetime counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells computed (cache misses that ran to completion).
    pub executed: u64,
    /// Claims served from the cache.
    pub hits: u64,
    /// Completed cells currently held (replayed entries included).
    pub entries: usize,
}

/// Thread-safe single-flight result cache keyed by canonical cell JSON.
pub struct ResultCache {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new()
    }
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                cells: BTreeMap::new(),
                executed: 0,
                hits: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned cache lock only follows a panic inside another
        // claimant's critical section (plain map bookkeeping); recover the
        // guard rather than cascade the poison into every connection.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Claims `key`: returns [`Claim::Ready`] when the cell is done,
    /// [`Claim::Compute`] (with the RAII guard) when the caller must
    /// execute it, and blocks while another claimant is executing the same
    /// key.
    pub fn claim(&self, key: &str) -> Claim<'_> {
        let mut inner = self.lock();
        loop {
            match inner.cells.get(key) {
                None => {
                    inner.cells.insert(key.to_string(), CellState::InFlight);
                    return Claim::Compute(ComputeGuard {
                        cache: self,
                        key: key.to_string(),
                        fulfilled: false,
                    });
                }
                Some(CellState::Done(report)) => {
                    let report = report.clone();
                    inner.hits += 1;
                    return Claim::Ready(Box::new(report));
                }
                Some(CellState::InFlight) => {
                    inner = match self.ready.wait(inner) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            }
        }
    }

    /// Completes a claimed cell: stores the result, charges the execution
    /// counter, and wakes every blocked claimant of the key. Private — the
    /// only path here is [`ComputeGuard::fulfill`], which guarantees a
    /// claimed key is always either fulfilled or abandoned.
    fn fulfill(&self, key: &str, report: MethodReport) {
        let mut inner = self.lock();
        inner.executed += 1;
        inner.cells.insert(key.to_string(), CellState::Done(report));
        drop(inner);
        self.ready.notify_all();
    }

    /// Releases a claimed cell without a result (the computation failed or
    /// panicked): the key becomes claimable again and every blocked
    /// claimant is woken to re-race for it. Private — invoked by
    /// [`ComputeGuard`]'s `Drop` so no code path can forget it.
    fn abandon(&self, key: &str) {
        let mut inner = self.lock();
        if matches!(inner.cells.get(key), Some(CellState::InFlight)) {
            inner.cells.remove(key);
        }
        drop(inner);
        self.ready.notify_all();
    }

    /// Inserts a replayed result (journal boot replay): counts as neither
    /// an execution nor a hit, and never downgrades a `Done` entry.
    pub fn seed(&self, key: &str, report: MethodReport) {
        let mut inner = self.lock();
        match inner.cells.get(key) {
            Some(CellState::Done(_)) => {}
            _ => {
                inner.cells.insert(key.to_string(), CellState::Done(report));
            }
        }
        drop(inner);
        self.ready.notify_all();
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        let entries = inner
            .cells
            .values()
            .filter(|state| matches!(state, CellState::Done(_)))
            .count();
        CacheStats {
            executed: inner.executed,
            hits: inner.hits,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_core::{
        BenchmarkProblem, ConvergencePolicy, MonteCarlo, MonteCarloConfig, YieldAnalysis,
    };
    use std::panic::AssertUnwindSafe;
    use std::time::Duration;

    fn sample_report() -> MethodReport {
        let problem = BenchmarkProblem::fast_suite().remove(0);
        let mut analysis = YieldAnalysis::new()
            .master_seed(7)
            .convergence_policy(ConvergencePolicy::with_budget(200))
            .problem("cell", problem.fork())
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())));
        analysis.prepare();
        analysis.run_cell(0, 0)
    }

    #[test]
    fn dropped_guard_abandons_and_key_is_reclaimable() {
        let cache = ResultCache::new();
        match cache.claim("k") {
            Claim::Compute(guard) => drop(guard),
            Claim::Ready(_) => panic!("fresh key cannot be ready"),
        }
        // Abandoned: claimable again, and nothing was charged as executed.
        assert_eq!(cache.stats().executed, 0);
        let guard = match cache.claim("k") {
            Claim::Compute(guard) => guard,
            Claim::Ready(_) => panic!("abandoned key must be re-claimable"),
        };
        let report = sample_report();
        guard.fulfill(report.clone());
        let stats = cache.stats();
        assert_eq!((stats.executed, stats.hits, stats.entries), (1, 0, 1));
        match cache.claim("k") {
            Claim::Ready(ready) => assert_eq!(*ready, report),
            Claim::Compute(_) => panic!("fulfilled key must be ready"),
        }
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn panicking_computer_unblocks_waiting_claimants() {
        // Regression: a panic between claim and fulfill (a journal-append
        // failure, for instance) used to leave the key `InFlight` forever,
        // hanging every other claimant of the cell. The guard's `Drop` now
        // abandons the key during unwind, so waiters re-race it.
        let cache = ResultCache::new();
        let report = sample_report();
        std::thread::scope(|s| {
            let guard = match cache.claim("cell") {
                Claim::Compute(guard) => guard,
                Claim::Ready(_) => panic!("fresh key cannot be ready"),
            };
            let waiter = s.spawn(|| match cache.claim("cell") {
                Claim::Compute(guard) => {
                    guard.fulfill(report.clone());
                    true
                }
                Claim::Ready(_) => false,
            });
            // Give the waiter time to block on the in-flight key, then
            // panic while owning the claim.
            std::thread::sleep(Duration::from_millis(50));
            let panicked = std::panic::catch_unwind(AssertUnwindSafe(move || {
                let _guard = guard;
                panic!("simulated journal-append failure mid-compute");
            }));
            assert!(panicked.is_err());
            assert!(
                waiter.join().expect("waiter thread completes"),
                "waiter must win the re-race, not observe a phantom result"
            );
        });
        // Exactly the successful computation was charged; the panicked
        // attempt left no trace beyond the re-race.
        let stats = cache.stats();
        assert_eq!((stats.executed, stats.hits, stats.entries), (1, 0, 1));
        match cache.claim("cell") {
            Claim::Ready(ready) => assert_eq!(*ready, report),
            Claim::Compute(_) => panic!("re-raced key must hold the waiter's result"),
        }
        assert_eq!(cache.stats().hits, 1);
    }
}
