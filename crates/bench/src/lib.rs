//! Shared helpers for the experiment binaries and criterion benchmarks that
//! regenerate the tables and figures of the evaluation.
//!
//! Each table/figure of the paper's evaluation has a dedicated binary in
//! `src/bin/` (see the README section "Reproducing the paper's evaluation"
//! for the index). The helpers here build the standard problems
//! (read/write/disturb on the surrogate or the transient testbench), format
//! comparison rows consistently, and dump machine-readable JSON next to the
//! printed tables so the README can reference stable artifacts.

// The workspace has zero unsafe code; lock that in per crate. (A crate
// attribute rather than a workspace lint so the counting-allocator
// integration test, which needs an unsafe GlobalAlloc impl, stays possible.)
#![forbid(unsafe_code)]
// Library code must justify every panic site (clippy::unwrap_used/expect_used
// are warn in [workspace.lints.clippy]); tests are free to unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use gis_core::{
    default_sram_variation_space, AnalysisReport, FailureProblem, PerformanceModel, Spec,
    SramMetric, SramSurrogateModel, SramTransientModel,
};
use gis_sram::{SramCellConfig, SramSurrogate, SramTestbench};
use gis_variation::PelgromModel;
use serde::Serialize;
use std::path::{Path, PathBuf};

pub use gis_core::ComparisonRow;

/// Master seed from which every experiment derives its random streams, so the
/// whole evaluation is reproducible end to end.
pub const MASTER_SEED: u64 = 20180319;

/// Directory (relative to the workspace root) where experiment binaries drop
/// their JSON artifacts.
pub const RESULTS_DIR: &str = "results";

/// `true` when `--fast` was passed on the command line: every experiment
/// binary supports a reduced CI-smoke mode that shrinks its budgets/grids so
/// the whole artifact set regenerates in seconds while still exercising the
/// full code path and emitting parseable JSON.
pub fn fast_mode() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// Picks the full or the reduced (`--fast`) value of a budget knob.
pub fn scaled<T>(full: T, fast: T) -> T {
    if fast_mode() {
        fast
    } else {
        full
    }
}

/// Returns the value following `flag` in `args`, if present.
pub fn parse_flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Returns the `--connect HOST:PORT` address when the binary was asked to
/// run as a thin client against a `gis-serve` daemon.
pub fn connect_addr() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flag_value(&args, "--connect")
}

/// Thin-client mode shared by the experiment binaries: submits `job` to the
/// `gis-serve` daemon at `addr`, streams per-cell progress to stdout and
/// returns the receipt. The returned report is bit-identical to running the
/// identical configuration locally.
///
/// Submission is self-healing: a server that dies or drops the socket
/// mid-stream is retried under the default [`gis_serve::RetryPolicy`]
/// (exponential backoff with deterministic jitter). Resubmission is
/// idempotent — completed cells replay from the daemon's journal-backed
/// cache, and already-printed progress rows are never repeated.
///
/// Panics on final connection or job failure — abort-on-error is the right
/// failure mode for experiment drivers.
pub fn submit_served_job(addr: &str, job: &gis_serve::JobSpec) -> gis_serve::JobReceipt {
    let policy = gis_serve::RetryPolicy::default();
    let receipt = gis_serve::submit_with_recovery(addr, job, &policy, &mut |cell| {
        println!(
            "  [{}/{}] {} / {}{}",
            cell.completed_cells,
            cell.total_cells,
            cell.problem,
            cell.estimator,
            if cell.cached { " (cached)" } else { "" }
        );
    })
    .unwrap_or_else(|e| panic!("served job failed after retries: {e}"));
    if receipt.reconnects > 0 {
        println!(
            "  (stream interrupted; reconnected {} time{} and resumed from the server cache)",
            receipt.reconnects,
            if receipt.reconnects == 1 { "" } else { "s" }
        );
    }
    println!(
        "served job {}: {} cells executed, {} from cache",
        receipt.job_id, receipt.cells_executed, receipt.cells_cached
    );
    receipt
}

/// Builds the default surrogate-backed read-access-time model.
pub fn surrogate_read_model() -> SramSurrogateModel {
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    SramSurrogateModel::new(
        SramSurrogate::typical_45nm(),
        space,
        SramMetric::ReadAccessTime,
    )
}

/// Builds the default surrogate-backed write-delay model.
pub fn surrogate_write_model() -> SramSurrogateModel {
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    SramSurrogateModel::new(SramSurrogate::typical_45nm(), space, SramMetric::WriteDelay)
}

/// Builds the default transient-simulation-backed model for `metric` on the
/// sparse kernel.
pub fn transient_model(metric: SramMetric) -> SramTransientModel {
    let cell = SramCellConfig::typical_45nm();
    let space = default_sram_variation_space(&cell, &PelgromModel::typical_45nm());
    SramTransientModel::new(SramTestbench::typical_45nm(), space, metric)
}

/// Builds a failure problem whose spec is `spec_factor ×` the nominal metric of
/// `model` (an upper limit).
pub fn problem_with_relative_spec<M>(model: M, nominal: f64, spec_factor: f64) -> FailureProblem
where
    M: PerformanceModel + 'static,
{
    FailureProblem::from_model(model, Spec::UpperLimit(nominal * spec_factor))
}

/// Prints a comparison table in the fixed-width format used by every
/// table-generating binary. The rows come straight from a
/// [`gis_core::YieldAnalysis`] report (or [`ComparisonRow::from_result`]).
pub fn print_comparison_table(title: &str, rows: &[ComparisonRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<24} {:>12} {:>8} {:>10} {:>12} {:>12} {:>10} {:>8} {:>10}",
        "method",
        "P_fail",
        "sigma",
        "rel90[%]",
        "#sims",
        "speedup",
        "converged",
        "threads",
        "wall[s]"
    );
    for row in rows {
        println!(
            "{:<24} {:>12.4e} {:>8.3} {:>10.1} {:>12} {:>12.1} {:>10} {:>8} {:>10.3}",
            row.method,
            row.failure_probability,
            row.sigma_level,
            row.relative_confidence_90 * 100.0,
            row.evaluations,
            row.speedup_vs_monte_carlo,
            row.converged,
            row.threads,
            row.wall_time_seconds
        );
    }
}

/// Prints every problem of a [`gis_core::YieldAnalysis`] report as a
/// comparison table.
pub fn print_analysis_report(report: &AnalysisReport) {
    for problem in &report.problems {
        print_comparison_table(&problem.problem, &problem.rows());
    }
}

/// Resolves the workspace root (the directory holding the top-level
/// `Cargo.toml` and `ROADMAP.md`) regardless of the invoking cwd: this crate
/// lives at `<workspace>/crates/bench`, so the root is two levels above the
/// compile-time manifest dir. A binary moved away from its build tree falls
/// back to the cwd. The `BENCH_*.json` harness artifacts and [`results_dir`]
/// anchor here.
pub fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    if root.join("Cargo.toml").exists() {
        root
    } else {
        Path::new(".").to_path_buf()
    }
}

/// Resolves the results directory under [`workspace_root`], creating it if
/// needed.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join(RESULTS_DIR);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Serializes `data` as pretty JSON into `<dir>/<name>.json`. Failures to
/// write are reported on stderr but never abort an experiment. This is the
/// primitive behind [`write_json_artifact`]; tests use it with a temporary
/// directory so unit-test artifacts never land in the tracked `results/`
/// tree.
pub fn write_json_artifact_in<T: Serialize>(dir: &Path, name: &str, data: &T) {
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(data) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Serializes `data` as pretty JSON into `results/<name>.json`. Failures to
/// write are reported on stderr but never abort an experiment.
pub fn write_json_artifact<T: Serialize>(name: &str, data: &T) {
    write_json_artifact_in(&results_dir(), name, data);
}

/// Prints a CSV block (header + rows) to stdout, prefixed by a `# <name>`
/// marker so figure data can be extracted from captured logs.
pub fn print_csv(name: &str, header: &str, rows: &[String]) {
    println!("\n# {name}");
    println!("{header}");
    for row in rows {
        println!("{row}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_core::{Estimator, GisConfig, GradientImportanceSampling, ImportanceSamplingConfig};
    use gis_stats::RngStream;

    /// A per-test scratch directory under the system temp dir, cleaned up on
    /// drop, so unit tests never write into the repository's `results/`.
    struct TempArtifactDir(PathBuf);

    impl TempArtifactDir {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir()
                .join("gis_bench_unit_tests")
                .join(format!("{test}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir is creatable");
            TempArtifactDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempArtifactDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn surrogate_models_have_sane_nominals() {
        let read = surrogate_read_model();
        let write = surrogate_write_model();
        assert!(read.nominal_metric() > 1e-11 && read.nominal_metric() < 1e-8);
        assert!(write.nominal_metric() > 1e-11 && write.nominal_metric() < 1e-8);
    }

    #[test]
    fn comparison_row_from_gis_run() {
        let read = surrogate_read_model();
        let nominal = read.nominal_metric();
        let problem = problem_with_relative_spec(read, nominal, 2.0);
        let gis = GradientImportanceSampling::new(GisConfig {
            sampling: ImportanceSamplingConfig {
                max_samples: 5_000,
                ..ImportanceSamplingConfig::default()
            },
            ..GisConfig::default()
        });
        let outcome = gis.estimate(&problem, &mut RngStream::from_seed(MASTER_SEED));
        let row = ComparisonRow::from_result(&outcome.result);
        assert_eq!(row.method, "gradient-is");
        assert!(row.evaluations > 0);
        print_comparison_table("smoke", &[row]);
    }

    #[test]
    fn analysis_report_prints_and_serializes() {
        let read = surrogate_read_model();
        let nominal = read.nominal_metric();
        let report = gis_core::YieldAnalysis::new()
            .master_seed(MASTER_SEED)
            .convergence_policy(gis_core::ConvergencePolicy::with_budget(2_000))
            .problem(
                "surrogate-read",
                problem_with_relative_spec(read, nominal, 2.0),
            )
            .estimator(Box::new(GradientImportanceSampling::new(
                GisConfig::default(),
            )))
            .run();
        print_analysis_report(&report);
        let scratch = TempArtifactDir::new("report");
        write_json_artifact_in(scratch.path(), "unit_test_report", &report);
        assert!(scratch.path().join("unit_test_report.json").exists());
    }

    #[test]
    fn artifacts_are_written() {
        #[derive(Serialize)]
        struct Dummy {
            value: u32,
        }
        let scratch = TempArtifactDir::new("artifact");
        write_json_artifact_in(scratch.path(), "unit_test_artifact", &Dummy { value: 42 });
        let path = scratch.path().join("unit_test_artifact.json");
        assert!(path.exists());
        let contents = std::fs::read_to_string(path).unwrap();
        assert!(contents.contains("42"));
        print_csv("unit", "a,b", &["1,2".to_string()]);
    }
}
