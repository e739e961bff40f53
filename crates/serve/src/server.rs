//! The daemon: a std::net TCP accept loop multiplexing concurrent clients
//! onto one shared execution configuration, with a content-addressed
//! result cache and a durable JSON-lines journal.
//!
//! # Job lifecycle
//!
//! The daemon is a transport over the sweep engine: every job runs through
//! the one cell scheduler, [`SweepRunner`], with a per-job [`CellStore`]
//! made of the single-flight [`ResultCache`], the journal and the compute
//! slots.
//!
//! 1. A connection opens; the server sends [`Reply::Hello`].
//! 2. The client sends [`Request::Submit`]. The spec is validated and
//!    journaled (`kind = "job"` [`SweepLogEntry`] line), then answered
//!    with [`Reply::Accepted`].
//! 3. The runner claims the job's cells one at a time, in registration
//!    order, or in donor-wave order for a warm job (wave by wave, and
//!    registration order within a wave). That order does not depend on
//!    the cache, so a resubmitted job streams its rows in the same order
//!    as a cold run. A cache hit streams immediately as `cached`. A miss
//!    executes under a compute slot (bounding concurrent cell computations
//!    across *all* connections), is appended to the journal (`kind =
//!    "cell"` line with the cache `key`, flushed) and only then streamed
//!    as [`Reply::Cell`] — a row a client has seen is always durable.
//! 4. [`Reply::Done`] carries the assembled [`AnalysisReport`],
//!    bit-identical to the same plan run through the batch `SweepRunner`.
//!
//! # Restart semantics
//!
//! On boot the server reads its journal with [`read_log`], the validator
//! the sweep checkpoint restore uses: every intact cell line seeds the
//! cache under its recorded key; torn tails (a kill mid-append), alien
//! lines and quarantined failures are skipped. A client that resubmits a
//! job after a server kill therefore streams the already-completed cells
//! from cache and only pays for the rest.
//!
//! [`AnalysisReport`]: gis_core::AnalysisReport

use crate::cache::{Claim, ComputeGuard, ResultCache};
use crate::job::{plan_job, JobPlan, JobSpec};
use crate::protocol::{
    encode_reply, parse_request, read_frame, write_reply, Reply, Request, ServerStatus,
    PROTOCOL_VERSION,
};
use gis_core::fault::{self, CellFailure, CellFailureReason};
use gis_core::sweep::{read_log, CellClaim, CellStore, SweepCellRecord, SweepLog, SweepLogEntry};
use gis_core::{ExecutionConfig, FaultPlan, SweepRunner};
use serde::Serialize;
use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Counting semaphore bounding concurrent cell computations across every
/// connection — the knob that multiplexes all clients onto one shared
/// execution budget instead of letting each connection fork unbounded
/// parallelism.
struct ComputeSlots {
    free: Mutex<usize>,
    available: Condvar,
}

impl ComputeSlots {
    fn new(permits: usize) -> Self {
        ComputeSlots {
            free: Mutex::new(permits.max(1)),
            available: Condvar::new(),
        }
    }

    fn acquire(&self) -> SlotPermit<'_> {
        let mut free = match self.free.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        while *free == 0 {
            free = match self.available.wait(free) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        *free -= 1;
        SlotPermit { slots: self }
    }

    /// Slots currently free (heartbeat snapshot; racy by nature).
    fn free_now(&self) -> usize {
        match self.free.lock() {
            Ok(guard) => *guard,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }

    fn release(&self) {
        let mut free = match self.free.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *free += 1;
        drop(free);
        self.available.notify_one();
    }
}

/// RAII permit of [`ComputeSlots`]; releases on drop (panic included).
struct SlotPermit<'a> {
    slots: &'a ComputeSlots,
}

impl Drop for SlotPermit<'_> {
    fn drop(&mut self) {
        self.slots.release();
    }
}

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 = ephemeral).
    pub bind_addr: String,
    /// Journal file (JSON-lines [`SweepLogEntry`] envelopes). `None`
    /// disables durability: the cache is memory-only and a restart starts
    /// cold.
    pub journal: Option<PathBuf>,
    /// Execution configuration applied to every job's estimators (the
    /// shared parallelism budget).
    pub execution: ExecutionConfig,
    /// Concurrent cell computations across all connections.
    pub compute_slots: usize,
    /// Per-request size cap in bytes.
    pub max_request_bytes: usize,
    /// Read timeout per request line — a silent peer cannot hang a
    /// connection thread forever.
    pub read_timeout: Duration,
    /// How many times a failing cell is retried (same derived seed) before
    /// it is quarantined as a typed failure.
    pub cell_attempts: u32,
    /// Deterministic fault plan for this server (tests and chaos drills).
    /// `None` falls back to the process-wide `GIS_FAULTS` plan; both unset
    /// means no injection.
    pub faults: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let execution = ExecutionConfig::from_env();
        let compute_slots = execution.resolved_threads().max(1);
        ServerConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            journal: None,
            execution,
            compute_slots,
            max_request_bytes: crate::protocol::DEFAULT_MAX_REQUEST_BYTES,
            read_timeout: Duration::from_secs(120),
            cell_attempts: fault::DEFAULT_CELL_ATTEMPTS,
            faults: None,
        }
    }
}

struct Shared {
    cache: ResultCache,
    journal: Option<SweepLog>,
    execution: ExecutionConfig,
    slots: ComputeSlots,
    slots_total: usize,
    jobs_submitted: AtomicU64,
    shutdown: AtomicBool,
    max_request_bytes: usize,
    read_timeout: Duration,
    cell_attempts: u32,
    /// The effective fault plan: the configured one, else the process-wide
    /// `GIS_FAULTS` plan.
    faults: Option<FaultPlan>,
    started: Instant,
    in_flight: AtomicU64,
    /// Remaining injected socket drops (from the fault plan's
    /// `drop-frame:<n>:<times>` budget) — shared across connections so a
    /// reconnecting client eventually gets through.
    drop_budget: AtomicU64,
}

/// RAII in-flight-jobs counter (decrements on drop, panic included).
struct InFlightGuard<'a>(&'a AtomicU64);

impl<'a> InFlightGuard<'a> {
    fn enter(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        InFlightGuard(counter)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound, journal-replayed server ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, replays the journal (if any) into the cache and
    /// opens the journal appender. IO failures here are returned, not
    /// panicked: the caller (usually `main`) decides how to abort.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let cache = ResultCache::new();
        let journal = match &config.journal {
            Some(path) => {
                let mut replayed = 0usize;
                for (key, record) in read_log(path).0 {
                    if let Some(key) = key {
                        cache.seed(&key, record.report);
                        replayed += 1;
                    }
                }
                if replayed > 0 {
                    eprintln!(
                        "gis-serve: replayed {replayed} completed cells from {}",
                        path.display()
                    );
                }
                Some(SweepLog::open(path)?)
            }
            None => None,
        };
        let slots_total = config.compute_slots.max(1);
        let faults = config.faults.or_else(|| fault::global().cloned());
        let drop_budget = faults
            .as_ref()
            .and_then(|plan| plan.drop_frame.as_ref())
            .map_or(0, |drop| drop.times);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cache,
                journal,
                execution: config.execution,
                slots: ComputeSlots::new(slots_total),
                slots_total,
                jobs_submitted: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                max_request_bytes: config.max_request_bytes,
                read_timeout: config.read_timeout,
                cell_attempts: config.cell_attempts.max(1),
                faults,
                started: Instant::now(),
                in_flight: AtomicU64::new(0),
                drop_budget: AtomicU64::new(drop_budget),
            }),
        })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop until a client requests shutdown. Each
    /// connection gets its own thread; accept errors are logged and the
    /// loop continues (a bad handshake must not kill the daemon).
    pub fn run(self) {
        let local_addr = self.listener.local_addr().ok();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let shared = Arc::clone(&self.shared);
                    let addr = local_addr;
                    std::thread::spawn(move || {
                        handle_connection(stream, &shared, addr);
                    });
                }
                Err(e) => {
                    eprintln!("gis-serve: accept failed: {e}");
                }
            }
        }
    }
}

/// The reply side of one connection: wraps the stream so every outgoing
/// frame passes one choke point, where the `drop-frame:<n>:<times>` fault
/// injects a half-written frame followed by a hard close — the shape a
/// network partition or server kill leaves a streaming client in.
struct ReplyChannel<'a> {
    writer: &'a mut TcpStream,
    shared: &'a Shared,
    /// Frames attempted on this connection ([`Reply::Hello`] included).
    frames: u64,
}

impl ReplyChannel<'_> {
    fn send(&mut self, reply: &Reply) -> std::io::Result<()> {
        self.frames += 1;
        if let Some(drop) = self
            .shared
            .faults
            .as_ref()
            .and_then(|f| f.drop_frame.as_ref())
        {
            let armed = self.frames == drop.nth
                && self
                    .shared
                    .drop_budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |budget| {
                        budget.checked_sub(1)
                    })
                    .is_ok();
            if armed {
                // Half a frame, then a hard close: the client sees a torn
                // frame (or an IO error) mid-stream and must reconnect.
                let line = encode_reply(reply);
                let _ = self.writer.write_all(&line.as_bytes()[..line.len() / 2]);
                let _ = self.writer.flush();
                let _ = self.writer.shutdown(std::net::Shutdown::Both);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected socket drop",
                ));
            }
        }
        write_reply(self.writer, reply)
    }
}

/// The daemon's [`CellStore`] for one job: claims go through the shared
/// single-flight cache, computed cells are journaled and then cached. Its
/// cache was seeded from the journal at bind, so it restores nothing.
struct JobStore<'a> {
    shared: &'a Shared,
    /// Cache keys in registration order (problem-major).
    keys: &'a [String],
    estimators: usize,
    /// When the job's deadline passes, and its length in milliseconds.
    deadline: Option<(Instant, u64)>,
    deadline_hit: AtomicBool,
    client_gone: AtomicBool,
}

/// Permission to compute one cell: the cache claim, the compute slot, and
/// the key the journal line carries.
struct Ticket<'a> {
    guard: ComputeGuard<'a>,
    permit: SlotPermit<'a>,
    key: &'a str,
}

impl<'a> CellStore for JobStore<'a> {
    type Ticket = Ticket<'a>;

    /// Refuses every cell once the client is gone or the deadline has
    /// passed: a started cell runs to completion (its result is journaled
    /// and cached, so the work is not wasted), but no new cell starts.
    fn claim(&self, problem: usize, estimator: usize) -> CellClaim<Ticket<'a>> {
        if self.client_gone.load(Ordering::SeqCst) {
            return CellClaim::Cancelled;
        }
        if let Some((deadline, ms)) = self.deadline {
            if Instant::now() >= deadline {
                self.deadline_hit.store(true, Ordering::SeqCst);
                return CellClaim::Refused(CellFailure {
                    reason: CellFailureReason::DeadlineExceeded {
                        detail: format!("job deadline of {ms} ms elapsed before this cell started"),
                    },
                    attempts: 0,
                });
            }
        }
        let shared = self.shared;
        let key = self.keys[problem * self.estimators + estimator].as_str();
        match shared.cache.claim(key) {
            Claim::Ready(report) => CellClaim::Ready(report),
            Claim::Compute(guard) => CellClaim::Compute(Ticket {
                guard,
                permit: shared.slots.acquire(),
                key,
            }),
        }
    }

    /// Journal before fulfil (durability before visibility). If the append
    /// panics, the guard drops unfulfilled and abandons the key, so blocked
    /// claimants re-race instead of hanging on a cell nobody is computing.
    /// A quarantined cell is journaled for audit but never cached: dropping
    /// its guard abandons the key, so a later claim gives it a fresh chance.
    fn commit(&self, ticket: Ticket<'a>, record: SweepCellRecord) {
        let Ticket { guard, permit, key } = ticket;
        drop(permit);
        let healthy = (!record.report.is_failed()).then(|| record.report.clone());
        if let Some(journal) = &self.shared.journal {
            journal.append(
                SweepLogEntry::cell(record).with_key(key),
                self.shared.faults.as_ref(),
            );
        }
        if let Some(report) = healthy {
            guard.fulfill(report);
        }
    }
}

/// Runs one submitted job: validate, journal, stream cells, assemble.
/// Returns `Ok(())` while the connection is still writable; an `Err` means
/// the peer is gone and the connection loop should end. Cache state stays
/// consistent even when the client disconnects mid-stream: a computed
/// cell is journaled and fulfilled before the stream write is attempted,
/// and no further cell starts once a write has failed.
///
/// The per-job matrix is one thread wide, so cells stream in the
/// scheduler's deterministic order. A panicking or non-converging cell is
/// quarantined as a typed failure (retried up to the configured attempts
/// first), streams with `cached = false`, and the job *continues*. When
/// the job's deadline elapses, cells not yet started become
/// `deadline-exceeded` placeholders (neither journaled nor streamed) and
/// the final [`Reply::Done`] is marked partial.
fn run_job(channel: &mut ReplyChannel<'_>, shared: &Shared, job: &JobSpec) -> std::io::Result<()> {
    shared.jobs_submitted.fetch_add(1, Ordering::SeqCst);
    let _in_flight = InFlightGuard::enter(&shared.in_flight);
    let JobPlan {
        job_id,
        mut analysis,
        keys,
        warm_donors,
    } = match plan_job(job, shared.execution) {
        Ok(plan) => plan,
        Err(e) => {
            return channel.send(&Reply::Error {
                code: "bad-job".to_string(),
                message: e.to_string(),
            });
        }
    };
    if let Some(journal) = &shared.journal {
        journal.append(
            SweepLogEntry::job(job.to_value()).with_key(job_id.clone()),
            shared.faults.as_ref(),
        );
    }
    channel.send(&Reply::Accepted {
        job_id: job_id.clone(),
        total_cells: keys.len(),
    })?;

    let store = JobStore {
        shared,
        keys: &keys,
        estimators: job.estimators.len(),
        deadline: job
            .deadline_ms
            .map(|ms| (Instant::now() + Duration::from_millis(ms), ms)),
        deadline_hit: AtomicBool::new(false),
        client_gone: AtomicBool::new(false),
    };
    let mut runner = SweepRunner::new()
        .matrix(ExecutionConfig::serial())
        .cell_attempts(shared.cell_attempts);
    if let Some(plan) = &shared.faults {
        runner = runner.faults(plan.clone());
    }
    if let Some(donors) = warm_donors {
        runner = runner.warm_start(donors);
    }
    let (executed, cached) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let channel = Mutex::new(channel);
    let outcome = runner.run_with_store(&mut analysis, &store, &|update| {
        let counter = if update.restored { &cached } else { &executed };
        counter.fetch_add(1, Ordering::SeqCst);
        let reply = Reply::Cell {
            job_id: job_id.clone(),
            problem: update.problem.to_string(),
            estimator: update.estimator.to_string(),
            completed_cells: update.completed_cells,
            total_cells: update.total_cells,
            cached: update.restored,
            report: update.report.clone(),
        };
        let mut channel = channel.lock().unwrap_or_else(PoisonError::into_inner);
        if channel.send(&reply).is_err() {
            store.client_gone.store(true, Ordering::SeqCst);
        }
    });
    let channel = channel.into_inner().unwrap_or_else(PoisonError::into_inner);
    match outcome.report {
        Some(report) if !store.client_gone.load(Ordering::SeqCst) => channel.send(&Reply::Done {
            job_id,
            cells_executed: executed.into_inner(),
            cells_cached: cached.into_inner(),
            report,
            partial: store.deadline_hit.load(Ordering::SeqCst).then_some(true),
        }),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "client went away mid-job",
        )),
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, local_addr: Option<std::net::SocketAddr>) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    // Cell replies are small frames written one at a time; without
    // TCP_NODELAY each waits on the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut channel = ReplyChannel {
        writer: &mut writer,
        shared,
        frames: 0,
    };
    if channel
        .send(&Reply::Hello {
            server: "gis-serve".to_string(),
            protocol: PROTOCOL_VERSION,
        })
        .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader, shared.max_request_bytes) {
            Ok(None) => return,
            Ok(Some(line)) => line,
            Err(e) => {
                let _ = channel.send(&Reply::Error {
                    code: e.code().to_string(),
                    message: e.to_string(),
                });
                if e.is_fatal() {
                    return;
                }
                continue;
            }
        };
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(e) => {
                // Content errors (bad JSON, wrong version) are
                // line-delimited: report and keep the connection.
                if channel
                    .send(&Reply::Error {
                        code: e.code().to_string(),
                        message: e.to_string(),
                    })
                    .is_err()
                {
                    return;
                }
                continue;
            }
        };
        match request {
            Request::Submit { job } => {
                if run_job(&mut channel, shared, &job).is_err() {
                    return;
                }
            }
            Request::Status => {
                let stats = shared.cache.stats();
                let status = ServerStatus {
                    jobs_submitted: shared.jobs_submitted.load(Ordering::SeqCst),
                    cells_executed: stats.executed,
                    cache_hits: stats.hits,
                    cache_entries: stats.entries,
                    uptime_seconds: Some(shared.started.elapsed().as_secs()),
                    in_flight_jobs: Some(shared.in_flight.load(Ordering::SeqCst)),
                    slots_total: Some(shared.slots_total as u64),
                    slots_free: Some(shared.slots.free_now() as u64),
                    journal_lines: Some(shared.journal.as_ref().map_or(0, SweepLog::appends)),
                    journal_healthy: Some(shared.journal.as_ref().is_none_or(SweepLog::healthy)),
                };
                if channel.send(&Reply::Status { status }).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = channel.send(&Reply::ShuttingDown);
                shared.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                if let Some(addr) = local_addr {
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
                }
                return;
            }
        }
    }
}
