//! Integration tests of the yield-analysis daemon: the determinism
//! contract (served rows bit-identical to the batch path — fresh, cached,
//! and after a journal-backed restart), the content-addressed cache
//! (identical jobs charged once, seed/policy changes are misses), and
//! concurrent-client multiplexing.
//!
//! The SIGKILL variant of the restart contract lives in
//! `crates/serve/tests/kill_resume.rs` (it needs the daemon binary); here
//! the server runs in-process so the cache and journal state are directly
//! observable.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_serve::{CellProgress, Client, EstimatorSpec, JobSpec, ProblemSpec, Server, ServerConfig};
use sram_highsigma::highsigma::{
    standard_estimators, BenchmarkProblem, ConvergencePolicy, GisConfig,
    GradientImportanceSampling, MonteCarlo, MonteCarloConfig, SweepPlan, SweepRunner,
    YieldAnalysis,
};
use std::path::PathBuf;

const MASTER_SEED: u64 = 20180319;

/// Per-test scratch directory under the system temp dir.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("gis_serve_tests")
        .join(format!("{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

/// Starts an in-process server and returns its address. The server thread
/// exits when a client sends `Shutdown` (or when the test process ends).
fn start_server(config: ServerConfig) -> String {
    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || server.run());
    addr
}

fn policy() -> ConvergencePolicy {
    ConvergencePolicy::with_budget(2_000)
        .target_relative_error(0.1)
        .min_failures(10)
}

/// A cheap job: the 7 analytic fast-suite problems under two estimators.
fn fast_job(master_seed: u64) -> JobSpec {
    JobSpec {
        problem: ProblemSpec::Suite {
            suite: "fast".to_string(),
        },
        estimators: vec![
            EstimatorSpec::GradientIs {
                config: GisConfig::default(),
            },
            EstimatorSpec::MonteCarlo {
                config: MonteCarloConfig::default(),
            },
        ],
        master_seed,
        policy: Some(policy()),
        warm_start: None,
        deadline_ms: None,
    }
}

/// The batch-path analysis equivalent to [`fast_job`].
fn fast_batch_analysis(master_seed: u64) -> YieldAnalysis {
    let mut analysis = YieldAnalysis::new()
        .master_seed(master_seed)
        .convergence_policy(policy());
    for problem in BenchmarkProblem::fast_suite() {
        let name = problem.name().to_string();
        analysis = analysis.problem(name, problem.fork());
    }
    analysis
        .estimator(Box::new(GradientImportanceSampling::new(
            GisConfig::default(),
        )))
        .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
}

#[test]
fn served_job_is_bit_identical_to_batch_run() {
    let addr = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("client connects");

    let mut streamed = Vec::new();
    let receipt = client
        .submit(&fast_job(MASTER_SEED), &mut |cell| {
            streamed.push((
                cell.problem.to_string(),
                cell.estimator.to_string(),
                cell.completed_cells,
                cell.total_cells,
                cell.cached,
            ));
        })
        .expect("job runs");

    // 7 fast-suite problems × 2 estimators, streamed in registration
    // order, none cached on a cold server.
    assert_eq!(streamed.len(), 14);
    assert!(streamed.iter().all(|s| s.3 == 14 && !s.4));
    assert_eq!(
        streamed.iter().map(|s| s.2).collect::<Vec<_>>(),
        (1..=14).collect::<Vec<_>>()
    );
    assert_eq!(receipt.cells_executed, 14);
    assert_eq!(receipt.cells_cached, 0);

    // The determinism contract: the served report equals the batch run of
    // the identical configuration (PartialEq compares every statistical
    // field bit for bit and ignores only wall-clock metadata).
    let batch = fast_batch_analysis(MASTER_SEED).run();
    assert_eq!(receipt.report, batch);

    // ... and equals the batch SweepRunner path over the same analysis.
    let swept = SweepRunner::new()
        .run(&mut fast_batch_analysis(MASTER_SEED))
        .report
        .expect("sweep completes");
    assert_eq!(receipt.report, swept);
    client.shutdown().expect("clean shutdown");

    // A partly cached job streams its rows in the cold run's order (the
    // self-healing client's high-water dedup relies on it): a Monte-Carlo
    // only job warms the cache, then the full job mixes hits and misses.
    let addr = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("client connects");
    let mut mc_only = fast_job(MASTER_SEED);
    mc_only.estimators.remove(0);
    client
        .submit(&mc_only, &mut |_| {})
        .expect("warm-up job runs");
    let mut partly_cached = Vec::new();
    let receipt = client
        .submit(&fast_job(MASTER_SEED), &mut record_rows(&mut partly_cached))
        .expect("partly cached job runs");
    assert_eq!((receipt.cells_executed, receipt.cells_cached), (7, 7));
    let cold_rows: Vec<_> = streamed
        .iter()
        .map(|s| (s.0.clone(), s.1.clone(), s.2))
        .collect();
    assert_eq!(partly_cached, cold_rows);
    assert_eq!(receipt.report, batch);
    client.shutdown().expect("clean shutdown");
}

/// A warm-start grid whose donor-wave order differs from its registration
/// order: the third temperature of the first supply is two donor hops from
/// the family origin, the first temperature of the second supply only one.
fn warm_plan() -> SweepPlan {
    SweepPlan::new()
        .supply_voltages([0.9, 1.0])
        .temperatures([-40.0, 25.0, 125.0])
}

fn warm_job(estimators: Vec<EstimatorSpec>) -> JobSpec {
    JobSpec {
        problem: ProblemSpec::Plan { plan: warm_plan() },
        estimators,
        master_seed: MASTER_SEED,
        policy: Some(policy()),
        warm_start: Some(true),
        deadline_ms: None,
    }
}

fn warm_estimators() -> Vec<EstimatorSpec> {
    vec![
        EstimatorSpec::GradientIs {
            config: GisConfig::default(),
        },
        EstimatorSpec::MonteCarlo {
            config: MonteCarloConfig::default(),
        },
    ]
}

/// A progress callback recording each streamed row's cell and position.
fn record_rows(stream: &mut Vec<(String, String, usize)>) -> impl FnMut(&CellProgress<'_>) + '_ {
    move |cell| {
        stream.push((
            cell.problem.to_string(),
            cell.estimator.to_string(),
            cell.completed_cells,
        ))
    }
}

fn warm_batch_analysis() -> YieldAnalysis {
    warm_plan()
        .analysis()
        .master_seed(MASTER_SEED)
        .convergence_policy(policy())
        .estimator(Box::new(GradientImportanceSampling::new(
            GisConfig::default(),
        )))
        .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
}

#[test]
fn warm_plan_job_matches_the_warm_batch_sweep_and_caches() {
    let cells = 6 * 2;
    let addr = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("client connects");
    let mut cold = Vec::new();
    let fresh = client
        .submit(&warm_job(warm_estimators()), &mut record_rows(&mut cold))
        .expect("warm job runs");
    assert_eq!((fresh.cells_executed, fresh.cells_cached), (cells, 0));
    assert_eq!(cold.len(), cells);

    // Bit-identical to the batch continuation sweep over the same grid...
    let batch = SweepRunner::new()
        .warm_start(warm_plan().warm_donors())
        .run(&mut warm_batch_analysis())
        .report
        .expect("warm sweep completes");
    assert_eq!(fresh.report, batch);
    // ...and genuinely warm: the hinted searches differ from a blind run.
    assert_ne!(fresh.report, warm_batch_analysis().run());

    // Resubmission is served entirely from the cache.
    let again = client
        .submit(&warm_job(warm_estimators()), &mut |cell| {
            assert!(cell.cached)
        })
        .expect("cached warm job runs");
    assert_eq!((again.cells_executed, again.cells_cached), (0, cells));
    assert_eq!(again.report, fresh.report);
    client.shutdown().expect("clean shutdown");

    // A partly cached warm job streams in the cold run's order.
    let addr = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("client connects");
    let gis_only = warm_job(warm_estimators()[..1].to_vec());
    client
        .submit(&gis_only, &mut |_| {})
        .expect("warm-up job runs");
    let mut partly_cached = Vec::new();
    let mixed = client
        .submit(
            &warm_job(warm_estimators()),
            &mut record_rows(&mut partly_cached),
        )
        .expect("partly cached warm job runs");
    assert_eq!((mixed.cells_executed, mixed.cells_cached), (6, 6));
    assert_eq!(partly_cached, cold);
    assert_eq!(mixed.report, fresh.report);
    client.shutdown().expect("clean shutdown");
}

#[test]
fn identical_resubmission_is_served_from_cache_and_charged_once() {
    let addr = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("client connects");

    let fresh = client
        .submit(&fast_job(77), &mut |_| {})
        .expect("fresh run");
    assert_eq!(fresh.cells_executed, 14);

    // Second, identical submission (a new connection, as a second client
    // would): every cell is a cache hit, the report is identical.
    let mut second = Client::connect(&addr).expect("second client connects");
    let cached = second
        .submit(&fast_job(77), &mut |_| {})
        .expect("cached run");
    assert_eq!(cached.cells_executed, 0);
    assert_eq!(cached.cells_cached, 14);
    assert_eq!(cached.report, fresh.report);

    // The evaluation counter was charged exactly once per cell.
    let status = second.status().expect("status");
    assert_eq!(status.cells_executed, 14);
    assert_eq!(status.cache_hits, 14);
    assert_eq!(status.jobs_submitted, 2);

    second.shutdown().expect("clean shutdown");
}

#[test]
fn master_seed_and_policy_changes_are_cache_misses() {
    let addr = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("client connects");

    let base = client
        .submit(&fast_job(100), &mut |_| {})
        .expect("base run");
    assert_eq!(base.cells_executed, 14);

    // A different master seed re-derives every per-cell stream: no cell
    // may be shared with the base job.
    let reseeded = client
        .submit(&fast_job(101), &mut |_| {})
        .expect("reseeded run");
    assert_eq!(reseeded.cells_executed, 14);
    assert_eq!(reseeded.cells_cached, 0);

    // A different convergence policy changes the budget/stopping rule:
    // also a miss for every cell — the configuration-mixing bug class the
    // checkpoint validation guards against.
    let mut repoliced = fast_job(100);
    repoliced.policy = Some(ConvergencePolicy::with_budget(4_000));
    let repoliced_run = client
        .submit(&repoliced, &mut |_| {})
        .expect("repoliced run");
    assert_eq!(repoliced_run.cells_executed, 14);
    assert_eq!(repoliced_run.cells_cached, 0);

    // Resubmitting the base job still hits the original results.
    let cached = client.submit(&fast_job(100), &mut |_| {}).expect("cached");
    assert_eq!(cached.cells_cached, 14);
    assert_eq!(cached.report, base.report);

    client.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_identical_clients_share_one_execution() {
    let addr = start_server(ServerConfig::default());

    // Two clients race the identical job. The single-flight cache must
    // charge every cell exactly once across both, and both must receive
    // the identical report.
    let addr_a = addr.clone();
    let addr_b = addr.clone();
    let job = fast_job(500);
    let job_a = job.clone();
    let job_b = job.clone();
    let a = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_a).expect("client a connects");
        client.submit(&job_a, &mut |_| {}).expect("job a runs")
    });
    let b = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_b).expect("client b connects");
        client.submit(&job_b, &mut |_| {}).expect("job b runs")
    });
    let receipt_a = a.join().expect("thread a");
    let receipt_b = b.join().expect("thread b");

    assert_eq!(receipt_a.report, receipt_b.report);
    assert_eq!(receipt_a.cells_executed + receipt_b.cells_executed, 14);

    let mut client = Client::connect(&addr).expect("client connects");
    let status = client.status().expect("status");
    assert_eq!(status.cells_executed, 14);

    // The cached report also equals the batch run — concurrency corrupted
    // nothing.
    let batch = fast_batch_analysis(500).run();
    assert_eq!(receipt_a.report, batch);

    client.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_distinct_clients_multiplex_without_corruption() {
    let addr = start_server(ServerConfig::default());

    // Two clients submit *different* jobs concurrently (different master
    // seeds force disjoint cells). Each must stream exactly its own job's
    // rows, equal to its own batch reference.
    let addr_a = addr.clone();
    let addr_b = addr.clone();
    let a = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_a).expect("client a connects");
        client.submit(&fast_job(600), &mut |_| {}).expect("job a")
    });
    let b = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_b).expect("client b connects");
        client.submit(&fast_job(601), &mut |_| {}).expect("job b")
    });
    let receipt_a = a.join().expect("thread a");
    let receipt_b = b.join().expect("thread b");

    assert_eq!(receipt_a.report, fast_batch_analysis(600).run());
    assert_eq!(receipt_b.report, fast_batch_analysis(601).run());

    let mut client = Client::connect(&addr).expect("client connects");
    client.shutdown().expect("clean shutdown");
}

#[test]
fn journal_restart_serves_completed_cells_from_cache() {
    let dir = scratch_dir("journal_restart");
    let journal = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal);

    // First server lifetime: run the job fresh, then shut down.
    let addr = start_server(ServerConfig {
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("client connects");
    let fresh = client
        .submit(&fast_job(900), &mut |_| {})
        .expect("fresh run");
    assert_eq!(fresh.cells_executed, 14);
    client.shutdown().expect("clean shutdown");

    // Second server lifetime on the same journal: the replay must serve
    // every cell from cache, and the report must be identical.
    let addr = start_server(ServerConfig {
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("client reconnects");
    let resumed = client
        .submit(&fast_job(900), &mut |_| {})
        .expect("resumed run");
    assert_eq!(resumed.cells_executed, 0);
    assert_eq!(resumed.cells_cached, 14);
    assert_eq!(resumed.report, fresh.report);
    client.shutdown().expect("clean shutdown");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_journal_is_replayable_as_a_sweep_checkpoint() {
    let dir = scratch_dir("journal_as_checkpoint");
    let journal = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal);

    let addr = start_server(ServerConfig {
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).expect("client connects");
    let served = client
        .submit(&fast_job(1234), &mut |_| {})
        .expect("job runs");
    client.shutdown().expect("clean shutdown");

    // The daemon's journal uses the same envelope format as the sweep
    // checkpoint, so the batch engine can restore every cell from it: the
    // job line is skipped, the cell lines restore, nothing re-runs.
    let outcome = SweepRunner::new()
        .checkpoint(&journal)
        .run(&mut fast_batch_analysis(1234));
    assert_eq!(outcome.status.restored_cells, 14);
    assert_eq!(outcome.status.discarded_records, 0);
    assert_eq!(outcome.report.expect("complete"), served.report);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn standard_estimator_specs_mirror_the_library_line_up() {
    let specs = EstimatorSpec::standard();
    let library = standard_estimators();
    assert_eq!(specs.len(), library.len());
    for (spec, estimator) in specs.iter().zip(&library) {
        assert_eq!(spec.method_name(), estimator.name());
    }
}
