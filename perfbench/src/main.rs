//! The repository's benchmark: three workloads, each putting most of its
//! time in a different layer, with end-to-end metrics from an untraced run
//! and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <transient-gis|analytic-ladder|served-sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench summarize <trace file>...
//! ```
//!
//! Inputs are made from `--seed`; the amount of work is sized from
//! `--seconds` at a fixed rate, so the exact counts repeat at a fixed
//! (seed, seconds). The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run runs
//! the workload untraced and then traced (each at half the size), checks
//! that both produce bit-identical reports, reports the tracing overhead,
//! and writes its spans to `<target dir>/perfbench-traces/`. The process
//! exits non-zero when an output check fails. End-to-end timings are scaled
//! to a nominal host speed, measured by a reference kernel between jobs.
//! See `README.md` for what each metric should move.

mod analytic;
mod probe;
mod served;
mod summarize;
mod trace;
mod transient;

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Set-up repetitions, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of every analysis (one problem × estimator cell).
    pub analyses: Vec<f64>,
    /// Model evaluations of every analysis.
    pub analysis_evals: Vec<u64>,
    /// Wall time of every job, and the time to its first analysis.
    pub jobs: Vec<f64>,
    pub first_cells: Vec<f64>,
    /// Wall time of the timed phase (set-up excluded).
    pub timed_wall_s: f64,
    /// Analyses and executed evaluations per second of each closed-loop
    /// unit (a job; a daemon round on served-sweep).
    pub cell_rates: Vec<f64>,
    pub eval_rates: Vec<f64>,
    /// Reference-kernel times sampled between units (host speed).
    pub reference_s: Vec<f64>,
    /// Evaluations the timed phase executed (cache reads excluded).
    pub evals_executed: u64,
    /// Analyses that failed the workload's correctness score.
    pub failed: usize,
    /// Analyses that never reported (attempted, and counted in `failed`).
    pub missing: usize,
    /// Output checks that did not hold.
    pub checks: Vec<String>,
    /// Deterministic digest of every report, for the traced == untraced check.
    pub fingerprint: Vec<String>,
    pub layers: Layers,
}

impl Run {
    /// Records the throughput of one closed-loop unit that ran for `wall`,
    /// given the analysis and evaluation counts before it started.
    pub fn end_unit(&mut self, wall: std::time::Duration, cells_before: usize, evals_before: u64) {
        let wall = wall.as_secs_f64();
        self.cell_rates
            .push((self.analyses.len() - cells_before) as f64 / wall);
        self.eval_rates
            .push((self.evals_executed - evals_before) as f64 / wall);
    }

    /// Samples the host's speed between units.
    pub fn sample_host(&mut self) {
        self.reference_s.push(probe::reference_kernel_s());
    }

    /// Host slowness during this run: the median reference-kernel time over
    /// its nominal value (above 1 on a slower host); 1 when not sampled.
    pub fn host_slowness(&self) -> f64 {
        if self.reference_s.is_empty() {
            1.0
        } else {
            probe::median(&self.reference_s) / REFERENCE_NOMINAL_S
        }
    }
}

/// Reference-kernel time of the host the benchmark was calibrated on. The
/// time metrics of a sampled run are divided, and its rates multiplied, by
/// the run's host slowness, so they read as at this speed.
const REFERENCE_NOMINAL_S: f64 = 0.004;

/// FNV-1a digest of a report's JSON form (wall-clock fields are not
/// serialized, so equal results give equal digests).
pub fn digest<T: Serialize>(report: &T) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("analysis_s_p50", "s"),
    ("analysis_s_p90", "s"),
    ("cells_per_s", "1/s"),
    ("sims_per_analysis", "count"),
    ("evals_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("first_cell_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. A layer a workload bypasses reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("linalg.fill_nnz", "count"),
    ("linalg.lu_ns", "ns"),
    ("circuit.steps_per_sim", "count"),
    ("circuit.newton_per_step", "count"),
    ("circuit.transient_us", "us"),
    ("circuit.newton_us", "us"),
    ("sram.sim_us.read", "us"),
    ("sram.sim_us.write", "us"),
    ("sram.session_us", "us"),
    ("model.batches", "count"),
    ("model.batch_mean", "count"),
    ("model.eval_us", "us"),
    ("model.busy_frac", "ratio"),
    ("exec.overlap", "ratio"),
    ("estimator.self_s.gradient-is", "s"),
    ("estimator.self_s.monte-carlo", "s"),
    ("estimator.self_s.minimum-norm-is", "s"),
    ("estimator.self_s.spherical-sampling", "s"),
    ("estimator.self_s.scaled-sigma-sampling", "s"),
    ("estimator.z4_miss_frac", "ratio"),
    ("gis.search_evals", "count"),
    ("gis.sampling_evals", "count"),
    ("is.ess_frac", "ratio"),
    ("stats.normal_ns", "ns"),
    ("sweep.checkpoint_bytes_per_cell", "bytes"),
    ("sweep.restore_ms", "ms"),
    ("sweep.matrix_overlap", "ratio"),
    ("serve.replay_ms", "ms"),
    ("serve.fresh_cell_ms", "ms"),
    ("serve.cached_cell_us", "us"),
    ("serve.journal_bytes_per_cell", "bytes"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.status_rtt_us", "us"),
    ("serve.reconnects", "count"),
    ("serve.job_s_p90", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-layer metric holding an estimator's self time.
pub fn estimator_self_metric(method: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_prefix("estimator.self_s.") == Some(method))
}

const WORKLOADS: [&str; 3] = ["transient-gis", "analytic-ladder", "served-sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

/// Where runs keep scratch files and traces: under the cargo target
/// directory, which the checkout's `.gitignore` excludes.
fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
}

/// Runs one pass of the workload. A traced run makes two passes (untraced,
/// then traced) of half the size each, so it takes as long as an untraced
/// run.
fn run_workload(args: &Args, tracer: Option<&trace::Tracer>) -> Run {
    let work = target_dir().join("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("work directory is creatable");
    let seconds = if args.trace {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    };
    let run = match args.workload.as_str() {
        "transient-gis" => transient::run(args.seed, seconds, tracer),
        "analytic-ladder" => analytic::run(args.seed, seconds, tracer, &work),
        _ => served::run(args.seed, seconds, tracer, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    run
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(run: &Run) -> Vec<(&'static str, f64)> {
    use probe::{mean, median, quantile};
    let evals: Vec<f64> = run.analysis_evals.iter().map(|&e| e as f64).collect();
    let slowness = run.host_slowness();
    let values = [
        median(&run.setup_s) / slowness,
        median(&run.analyses) / slowness,
        quantile(&run.analyses, 0.9) / slowness,
        median(&run.cell_rates) * slowness,
        mean(&evals),
        median(&run.eval_rates) * slowness,
        median(&run.jobs) / slowness,
        median(&run.first_cells) * 1e3 / slowness,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .map(|(name, _)| *name)
        .zip(values)
        .collect()
}

/// The ambient settings the benchmark overrides, recorded with every result.
fn environment() -> Value {
    let var = |name: &str| std::env::var(name).ok().to_value();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        ("GIS_THREADS".to_string(), var("GIS_THREADS")),
        ("GIS_FAST_LANE".to_string(), var("GIS_FAST_LANE")),
        ("GIS_FAULTS".to_string(), var("GIS_FAULTS")),
        ("nproc".to_string(), nproc.to_value()),
        ("commit".to_string(), git_commit().to_value()),
    ])
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git work tree.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_json(values: &[(&'static str, f64)], units: &[(&str, &str)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|(name, value)| {
                let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), value.to_value()),
                        ("unit".to_string(), unit.to_string().to_value()),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("summarize") {
        std::process::exit(summarize::main(&args[1..]));
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let environment = environment();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} environment {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serde_json::to_string(&environment).expect("environment serializes")
    );

    let untraced = run_workload(&args, None);
    let mut checks = untraced.checks.clone();
    let (run, metrics) = if args.trace {
        let tracer = trace::Tracer::default();
        let start = Instant::now();
        let mut traced = run_workload(&args, Some(&tracer));
        let traced_wall_s = start.elapsed().as_secs_f64();
        checks.extend(traced.checks.iter().cloned());
        if traced.fingerprint != untraced.fingerprint {
            checks.push("traced and untraced reports differ".to_string());
        }
        let overhead = traced.timed_wall_s / untraced.timed_wall_s - 1.0;
        traced.layers.insert("trace.overhead_frac", overhead);
        let mut rng = gis_stats::RngStream::from_seed(args.seed);
        traced.layers.insert(
            "stats.normal_ns",
            probe::time_per_call_ns(5, 200_000, || {
                std::hint::black_box(rng.standard_normal());
            }),
        );
        let spans = tracer.take();
        let header = Value::Object(vec![
            ("workload".to_string(), args.workload.to_value()),
            ("seed".to_string(), args.seed.to_value()),
            ("seconds".to_string(), args.seconds.to_value()),
            ("environment".to_string(), environment),
            (
                "untraced".to_string(),
                metric_json(&end_to_end(&untraced), &END_TO_END),
            ),
            (
                "traced".to_string(),
                metric_json(&end_to_end(&traced), &END_TO_END),
            ),
            ("traced_wall_s".to_string(), traced_wall_s.to_value()),
            ("overhead_frac".to_string(), overhead.to_value()),
        ]);
        let dir = target_dir().join("perfbench-traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let mut lines = vec![serde_json::to_string(&header).expect("header serializes")];
        lines.extend(
            spans
                .iter()
                .map(|s| serde_json::to_string(&trace::span_json(s)).expect("span serializes")),
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, lines.join("\n") + "\n"));
        match written {
            Ok(()) => {
                eprintln!("perfbench: trace written to {}", path.display());
                summarize::print(&header, &spans);
            }
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        let metrics: Vec<(&'static str, f64)> = PER_LAYER
            .iter()
            .map(|(name, _)| (*name, traced.layers.get(name).copied().unwrap_or(0.0)))
            .collect();
        (traced, metric_json(&metrics, &PER_LAYER))
    } else {
        let metrics = end_to_end(&untraced);
        (untraced, metric_json(&metrics, &END_TO_END))
    };

    for check in &checks {
        eprintln!("perfbench: CHECK FAILED: {check}");
    }
    let attempted = run.analyses.len() + run.missing;
    eprintln!(
        "perfbench: {attempted} analyses in {} jobs, {} failed, {:.3} s timed, \
         host slowness {:.4}",
        run.jobs.len(),
        run.failed,
        run.timed_wall_s,
        run.host_slowness()
    );
    let result = Value::Object(vec![
        ("correct".to_string(), checks.is_empty().to_value()),
        ("attempted".to_string(), attempted.to_value()),
        ("failed".to_string(), run.failed.to_value()),
        ("metrics".to_string(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if !checks.is_empty() {
        std::process::exit(1);
    }
}
