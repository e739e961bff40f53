//! `served-sweep`: an in-process `gis_serve::Server` with its journal in the
//! benchmark's work directory, and two closed-loop clients.
//!
//! The grid is five corners × three supplies × three temperatures of the
//! surrogate read-access problem, five estimators each at a ±10% target. A
//! job is one (corner, supply) slice: three scenarios, fifteen cells of
//! about 5 ms each. Before timing, a journal is prepared that caches one
//! temperature of every slice, balanced so that each temperature is cached
//! in exactly a third of the slices. Every round then restarts the daemon
//! on a copy of that journal (the set-up), and the two clients submit the
//! fifteen slices between them, so exactly a third of the cells are cache
//! reads and the rest compute and append to the journal. Framing, JSON of
//! ~3 KB records, journal append+flush, the single-flight cache and the
//! per-job serial scheduling take a visible share; the circuit kernels are
//! bypassed.

use crate::probe::{mean, median, quantile};
use crate::trace::{thread_tag, Span, Tracer};
use crate::Run;
use gis_core::{
    AnalysisReport, ConvergencePolicy, ExecutionConfig, FaultPlan, SramMetric, SweepPlan,
    SweepRunner, DEFAULT_CELL_ATTEMPTS,
};
use gis_serve::{
    plan_job, submit_with_recovery, Client, EstimatorSpec, JobSpec, ProblemSpec, RetryPolicy,
    Server, ServerConfig,
};
use gis_stats::RngStream;
use gis_variation::GlobalCorner;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

const SUPPLIES: [f64; 3] = [0.9, 1.0, 1.1];
const TEMPERATURES: [f64; 3] = [-40.0, 25.0, 125.0];
/// Daemon rounds per requested second (one round takes about 0.5 s).
const ROUNDS_PER_SECOND: f64 = 2.0;
/// Jobs checked against an in-process `SweepRunner` per run.
const CHECKED_JOBS: usize = 2;

fn plan(corner: GlobalCorner, supply: f64, temperatures: &[f64]) -> SweepPlan {
    SweepPlan::new()
        .spec_factor(1.5)
        .corners([corner])
        .supply_voltages([supply])
        .temperatures(temperatures.iter().copied())
        .metrics([SramMetric::ReadAccessTime])
}

fn job(plan: SweepPlan, master_seed: u64) -> JobSpec {
    JobSpec {
        problem: ProblemSpec::Plan { plan },
        estimators: EstimatorSpec::standard(),
        master_seed,
        policy: Some(ConvergencePolicy::with_budget(20_000).target_relative_error(0.1)),
        warm_start: Some(false),
        deadline_ms: None,
    }
}

/// Every server setting that changes what is measured, pinned.
fn server_config(journal: &Path) -> ServerConfig {
    ServerConfig {
        bind_addr: "127.0.0.1:0".to_string(),
        journal: Some(journal.to_path_buf()),
        execution: ExecutionConfig::serial(),
        compute_slots: 2,
        cell_attempts: DEFAULT_CELL_ATTEMPTS,
        faults: Some(FaultPlan::default()),
        ..ServerConfig::default()
    }
}

/// Binds a server and runs its accept loop on a thread.
fn start(journal: &Path) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(server_config(journal)).expect("server binds");
    let addr = server.local_addr().expect("bound address").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn stop(addr: &str, handle: std::thread::JoinHandle<()>) {
    Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .expect("server shuts down");
    handle.join().expect("server thread exits cleanly");
}

/// What one client saw of one job.
struct JobRecord {
    index: usize,
    wall_s: f64,
    first_cell_s: f64,
    /// Gap before each `Cell` reply, with its `cached` flag and evaluations.
    cells: Vec<(f64, bool, u64)>,
    report: AnalysisReport,
    failed: usize,
    reconnects: u32,
    start: Instant,
    end: Instant,
    cell_ends: Vec<Instant>,
}

/// Submits one job. An error, a partial `Done` or a reconnect fails all of
/// its `cells_per_job` analyses; so does a missing `Cell` reply.
fn submit(addr: &str, index: usize, spec: &JobSpec, cells_per_job: usize) -> JobRecord {
    let start = Instant::now();
    let mut last = start;
    let mut cells = Vec::new();
    let mut cell_ends = Vec::new();
    let receipt = submit_with_recovery(addr, spec, &RetryPolicy::default(), &mut |cell| {
        let now = Instant::now();
        cells.push((
            (now - last).as_secs_f64(),
            cell.cached,
            cell.report.row.evaluations,
        ));
        cell_ends.push(now);
        last = now;
    });
    let end = Instant::now();
    let (report, failed, reconnects) = match receipt {
        Ok(receipt) => {
            let bad = receipt
                .report
                .problems
                .iter()
                .flat_map(|p| &p.methods)
                .filter(|m| m.is_failed() || !m.row.failure_probability.is_finite())
                .count();
            let failed = if receipt.partial || receipt.reconnects > 0 {
                cells_per_job
            } else {
                (bad + cells_per_job.saturating_sub(cells.len())).min(cells_per_job)
            };
            (receipt.report, failed, receipt.reconnects)
        }
        Err(e) => {
            eprintln!("served job {index} failed: {e}");
            let report = AnalysisReport {
                master_seed: spec.master_seed,
                problems: Vec::new(),
            };
            (report, cells_per_job, 0)
        }
    };
    JobRecord {
        index,
        wall_s: (end - start).as_secs_f64(),
        first_cell_s: cells.first().map_or(0.0, |c| c.0),
        cells,
        report,
        failed,
        reconnects,
        start,
        end,
        cell_ends,
    }
}

pub fn run(seed: u64, seconds: u64, tracer: Option<&Tracer>, work: &Path) -> Run {
    let mut run = Run::default();
    let mut streams = RngStream::from_seed(seed);
    let master_seed = streams.split(0).seed();
    let slices: Vec<(GlobalCorner, f64)> = GlobalCorner::all()
        .into_iter()
        .flat_map(|c| SUPPLIES.map(|v| (c, v)))
        .collect();
    // Each temperature is cached in exactly a third of the slices.
    let mut cached_temperature: Vec<usize> = (0..slices.len()).map(|i| i % 3).collect();
    shuffle(&mut cached_temperature, &mut streams);
    let mut order: Vec<usize> = (0..slices.len()).collect();
    shuffle(&mut order, &mut streams);
    let jobs: Vec<JobSpec> = slices
        .iter()
        .map(|&(corner, supply)| job(plan(corner, supply, &TEMPERATURES), master_seed))
        .collect();
    let cells_per_job = TEMPERATURES.len() * EstimatorSpec::standard().len();
    let expected_hits = (slices.len() * EstimatorSpec::standard().len()) as u64;
    let expected_executed = (slices.len() * cells_per_job) as u64 - expected_hits;

    // Prepare the journal (untimed): one single-scenario job per cached cell.
    let prepared = work.join("prepared.jsonl");
    let journal = work.join("journal.jsonl");
    let _ = std::fs::remove_file(&prepared);
    let (addr, handle) = start(&prepared);
    for (&(corner, supply), &t) in slices.iter().zip(&cached_temperature) {
        let spec = job(plan(corner, supply, &[TEMPERATURES[t]]), master_seed);
        let mut client = Client::connect(&addr).expect("client connects");
        client
            .submit(&spec, &mut |_| {})
            .expect("preparation job runs");
    }
    stop(&addr, handle);
    let prepared_bytes = std::fs::metadata(&prepared).map_or(0, |m| m.len());

    let rounds = ((seconds as f64 * ROUNDS_PER_SECOND).round() as usize).max(1);
    let (mut replay_ms, mut rtt_us, mut journal_bytes, mut hit_frac) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut fresh_ms, mut cached_us) = (Vec::new(), Vec::new());
    let mut reconnects = 0u32;
    let mut first_round: Vec<AnalysisReport> = Vec::new();
    for round in 0..rounds {
        std::fs::copy(&prepared, &journal).expect("journal copy");
        let bind_start = Instant::now();
        let server = Server::bind(server_config(&journal)).expect("server binds");
        let bind_end = Instant::now();
        run.setup_s.push((bind_end - bind_start).as_secs_f64());
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = std::thread::spawn(move || server.run());

        let records: Mutex<Vec<JobRecord>> = Mutex::new(Vec::new());
        let round_start = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..2 {
                let (addr, jobs, order, records) = (&addr, &jobs, &order, &records);
                scope.spawn(move || {
                    for &index in order.iter().skip(client).step_by(2) {
                        let record = submit(addr, index, &jobs[index], cells_per_job);
                        records.lock().expect("record lock").push(record);
                    }
                });
            }
        });
        let round_end = Instant::now();
        run.timed_wall_s += (round_end - round_start).as_secs_f64();
        let (cells_before, evals_before) = (run.analyses.len(), run.evals_executed);

        let status_start = Instant::now();
        let mut client = Client::connect(&addr).expect("status client connects");
        let status = client.status().expect("status");
        let status_end = Instant::now();
        client.shutdown().expect("server shuts down");
        handle.join().expect("server thread exits cleanly");
        if status.cache_hits != expected_hits || status.cells_executed != expected_executed {
            run.checks.push(format!(
                "round {round}: {} hits and {} executed cells, expected {expected_hits} and \
                 {expected_executed}",
                status.cache_hits, status.cells_executed
            ));
        }
        let grown = std::fs::metadata(&journal).map_or(0, |m| m.len()) - prepared_bytes;

        let mut records = records.into_inner().expect("record lock");
        records.sort_by_key(|r| r.index);
        for record in &records {
            run.jobs.push(record.wall_s);
            run.first_cells.push(record.first_cell_s);
            run.failed += record.failed;
            run.missing += cells_per_job.saturating_sub(record.cells.len());
            reconnects += record.reconnects;
            // Replies arrive in bursts (see `serve.fresh_cell_ms`), so the
            // gap before one reply does not time its analysis; each cell is
            // charged its job's Submit-to-Done time per cell instead.
            let per_cell = record.wall_s / record.cells.len().max(1) as f64;
            for &(gap, cached, evals) in &record.cells {
                run.analyses.push(per_cell);
                run.analysis_evals.push(evals);
                if cached {
                    cached_us.push(gap * 1e6);
                } else {
                    run.evals_executed += evals;
                    fresh_ms.push(gap * 1e3);
                }
            }
        }
        run.end_unit(round_end - round_start, cells_before, evals_before);
        run.sample_host();
        if round == 0 {
            run.fingerprint = records.iter().map(|r| crate::digest(&r.report)).collect();
            first_round = records.iter().map(|r| r.report.clone()).collect();
        } else if records
            .iter()
            .zip(&first_round)
            .any(|(record, first)| record.report != *first)
        {
            run.checks
                .push(format!("round {round} served reports differ from round 0"));
        }

        if let Some(tracer) = tracer {
            replay_ms.push((bind_end - bind_start).as_secs_f64() * 1e3);
            rtt_us.push((status_end - status_start).as_secs_f64() * 1e6);
            journal_bytes.push(grown as f64 / status.cells_executed.max(1) as f64);
            hit_frac.push(
                status.cache_hits as f64 / (status.cache_hits + status.cells_executed) as f64,
            );
            let trace = tracer.new_id();
            let root = tracer.new_id();
            tracer.record("serve.bind", trace, Some(root), bind_start, bind_end);
            tracer.record("serve.status", trace, Some(root), status_start, status_end);
            for record in &records {
                let span = tracer.record("serve.job", trace, Some(root), record.start, record.end);
                let mut previous = record.start;
                for &end in &record.cell_ends {
                    tracer.record("serve.cell", trace, Some(span), previous, end);
                    previous = end;
                }
            }
            tracer.push(Span {
                id: root,
                parent: None,
                trace,
                name: "round",
                start_ns: tracer.ns(bind_start),
                end_ns: tracer.ns(status_end),
                thread: thread_tag(),
            });
        }
    }

    // A seeded sample of served jobs must match the batch sweep bit for bit.
    for _ in 0..CHECKED_JOBS {
        let index = streams.uniform_index(jobs.len());
        let mut analysis = plan_job(&jobs[index], ExecutionConfig::serial())
            .expect("job plans")
            .analysis;
        let batch = SweepRunner::new()
            .matrix(ExecutionConfig::serial())
            .cell_attempts(DEFAULT_CELL_ATTEMPTS)
            .faults(FaultPlan::default())
            .run(&mut analysis)
            .report;
        if batch.as_ref() != first_round.get(index) {
            run.checks.push(format!(
                "served job {index} differs from the in-process sweep"
            ));
        }
    }

    if tracer.is_some() {
        let layers = &mut run.layers;
        layers.insert("serve.replay_ms", median(&replay_ms));
        layers.insert("serve.fresh_cell_ms", median(&fresh_ms));
        layers.insert("serve.cached_cell_us", median(&cached_us));
        layers.insert("serve.journal_bytes_per_cell", mean(&journal_bytes));
        layers.insert("serve.cache_hit_frac", mean(&hit_frac));
        layers.insert("serve.status_rtt_us", median(&rtt_us));
        layers.insert("serve.reconnects", f64::from(reconnects));
        layers.insert("serve.job_s_p90", quantile(&run.jobs, 0.9));
    }
    run
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut RngStream) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.uniform_index(i + 1));
    }
}
