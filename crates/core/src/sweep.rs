//! Sweep orchestration: matrix-parallel scheduling of (problem × estimator)
//! cells, durable JSON-lines checkpointing with kill-safe resume, and a
//! scenario library spanning the operating grids a production sign-off sweep
//! walks.
//!
//! [`crate::analysis::YieldAnalysis`] runs one analysis matrix; this module
//! turns it into a *sweep*: many scenarios (supply voltage × temperature ×
//! process corner × Pelgrom mismatch grids) × many estimators, dispatched as
//! independent cells onto an [`crate::exec::Executor`] and persisted cell by cell so a
//! killed run resumes without re-simulating anything it already finished.
//!
//! # The three layers
//!
//! * **Scenario library** — [`Scenario`] describes one operating point
//!   (corner via [`GlobalCorner`], supply, temperature, Pelgrom `A_VT`) and
//!   knows how to build the corresponding [`FailureProblem`] on the SRAM
//!   surrogate. [`SweepPlan`] is the cartesian builder over those axes, plus
//!   the array-capacity targets ([`CapacityTarget`], backed by
//!   [`ArrayYield::required_cell_sigma`]) each scenario's extracted sigma is
//!   judged against.
//! * **Matrix scheduler** — [`SweepRunner`] dispatches the pending cells of a
//!   [`YieldAnalysis`] onto the worker threads of its matrix
//!   [`ExecutionConfig`] (via [`crate::exec::Executor::map_tasks`]). Each cell's seed is
//!   derived order-independently from the master seed, so the assembled
//!   [`AnalysisReport`] is **bit-identical** to the sequential
//!   [`YieldAnalysis::run`] at any matrix thread count.
//! * **Checkpoint / resume** — with [`SweepRunner::checkpoint`], every
//!   completed cell is appended to a JSON-lines file the moment it finishes
//!   (one [`SweepCellRecord`] per line, flushed). On the next run, records
//!   whose master seed, convergence policy and derived per-cell seed still
//!   match are restored verbatim and only the missing cells execute; a
//!   truncated trailing line
//!   (the signature of a kill mid-append) is skipped harmlessly. Because
//!   restored rows and fresh rows are assembled in registration order, a
//!   resumed sweep reproduces the uninterrupted report exactly (`PartialEq`,
//!   which ignores wall-clock metadata). The checkpoint is one
//!   [`CellStore`]; the `gis-serve` daemon runs its jobs through the same
//!   scheduler with its cache and journal as another.
//!
//! ```no_run
//! use gis_core::sweep::{SweepPlan, SweepRunner};
//! use gis_core::{standard_estimators, ConvergencePolicy, ExecutionConfig};
//! use gis_variation::GlobalCorner;
//!
//! let plan = SweepPlan::new()
//!     .corners(GlobalCorner::all())
//!     .supply_voltages([0.9, 1.0])
//!     .capacity_target("64Mb", 64 * 1024 * 1024, 8, 0.99);
//! let mut analysis = plan
//!     .analysis()
//!     .master_seed(7)
//!     .convergence_policy(ConvergencePolicy::with_budget(20_000))
//!     .estimators(standard_estimators());
//! let outcome = SweepRunner::new()
//!     .matrix(ExecutionConfig::with_threads(4))
//!     .checkpoint("sweep.jsonl")
//!     .run(&mut analysis);
//! // Kill and re-run: completed cells come back from sweep.jsonl.
//! let report = outcome.report.expect("all cells completed");
//! for row in plan.summarize(&report) {
//!     println!("{:<40} {:>6.2}σ", row.problem, row.sigma_level);
//! }
//! ```

use crate::analysis::{AnalysisReport, MethodReport, YieldAnalysis};
use crate::array_yield::ArrayYield;
use crate::estimator::{ConvergencePolicy, WarmStart};
use crate::exec::ExecutionConfig;
use crate::fault::{self, crc32, CellFailure, FaultPlan};
use crate::model::{FailureProblem, Spec};
use crate::sram_models::{SramMetric, SramSurrogateModel};
use gis_sram::{SramCellConfig, SramSurrogate};
use gis_variation::{GlobalCorner, PelgromModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Threshold-voltage temperature coefficient applied by the scenario library:
/// `ΔV_T = VTH_TEMPERATURE_COEFFICIENT · (T − 25 °C)` for both polarities
/// (thresholds drop as the die heats up), a typical bulk-CMOS value.
pub const VTH_TEMPERATURE_COEFFICIENT: f64 = -1.0e-3;

/// Length of the warm-start donor chain rooted at `name` (0 for a problem
/// without a donor — a blind family origin). Cells execute in ascending
/// donor depth, which is exactly the wave order of the donor forest.
///
/// # Panics
///
/// Panics when the donor map contains a cycle. Maps built by
/// [`SweepPlan::warm_donors`] are acyclic by construction (every donor
/// decrements a grid index), so this only fires on a hand-built map.
fn donor_depth(donors: &BTreeMap<String, String>, name: &str) -> usize {
    let mut depth = 0usize;
    let mut cursor = name;
    while let Some(donor) = donors.get(cursor) {
        depth += 1;
        assert!(
            depth <= donors.len(),
            "warm-start donor map contains a cycle reachable from {name:?}"
        );
        cursor = donor;
    }
    depth
}

/// Panics when `names` contains a duplicate — the sweep scheduler and
/// checkpoint key cells by name, so aliased names would silently clone one
/// cell's results into another.
fn assert_unique(kind: &str, names: &[String]) {
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        assert!(
            seen.insert(name.as_str()),
            "duplicate {kind} name {name:?}: the sweep scheduler keys cells by \
             name and cannot tell aliased {kind}s apart"
        );
    }
}

/// Short lower-case tag of a corner, used in scenario names.
fn corner_tag(corner: GlobalCorner) -> &'static str {
    match corner {
        GlobalCorner::TypicalTypical => "tt",
        GlobalCorner::FastFast => "ff",
        GlobalCorner::SlowSlow => "ss",
        GlobalCorner::FastSlow => "fs",
        GlobalCorner::SlowFast => "sf",
    }
}

/// One operating point of a sweep: a process corner, supply voltage,
/// junction temperature and Pelgrom mismatch coefficient, plus the dynamic
/// metric under test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Deterministic name, also used as the problem name (and therefore as
    /// part of the per-cell seed derivation and the checkpoint key).
    pub name: String,
    /// Systematic process corner.
    pub corner: GlobalCorner,
    /// Supply voltage in volts.
    pub supply_voltage: f64,
    /// Junction temperature in °C.
    pub temperature_celsius: f64,
    /// Pelgrom mismatch coefficient `A_VT` in V·m.
    pub pelgrom_avt: f64,
    /// Dynamic characteristic under test.
    pub metric: SramMetric,
    /// Systematic ΔV_T magnitude of the corner, in volts.
    pub corner_vth_magnitude: f64,
}

impl Scenario {
    /// Builds the scenario's failure problem on the SRAM surrogate: the
    /// typical 45 nm cell re-biased to this operating point, with the spec an
    /// upper limit at `spec_factor ×` the scenario's own nominal metric.
    ///
    /// The corner and temperature shift the nominal thresholds
    /// (`GlobalCorner::vth_shifts` + [`VTH_TEMPERATURE_COEFFICIENT`]), the
    /// supply re-biases the surrogate, and the Pelgrom coefficient sets the
    /// per-transistor mismatch sigmas of the variation space.
    ///
    /// # Panics
    ///
    /// Panics if the operating point pushes a threshold to or past zero (no
    /// such point exists on the library's grids).
    pub fn problem(&self, spec_factor: f64) -> FailureProblem {
        let mut cell = SramCellConfig::typical_45nm();
        cell.vdd = self.supply_voltage;
        let (shift_n, shift_p) = self.corner.vth_shifts(self.corner_vth_magnitude);
        let thermal = VTH_TEMPERATURE_COEFFICIENT * (self.temperature_celsius - 25.0);
        cell.pass_gate.vth0 += shift_n + thermal;
        cell.pull_down.vth0 += shift_n + thermal;
        cell.pull_up.vth0 += shift_p + thermal;
        assert!(
            cell.pass_gate.vth0 > 0.0 && cell.pull_up.vth0 > 0.0,
            "scenario {} drives a threshold voltage non-positive",
            self.name
        );
        assert!(
            cell.vdd > cell.pass_gate.vth0 && cell.vdd > cell.pull_up.vth0,
            "scenario {} leaves no overdrive (vdd at or below a threshold)",
            self.name
        );
        let mut surrogate = SramSurrogate {
            vdd: cell.vdd,
            vth_n: cell.pass_gate.vth0,
            vth_p: cell.pull_up.vth0,
            ..SramSurrogate::typical_45nm()
        };
        // The surrogate's metrics are normalized to its nominal constants, so
        // re-biasing vdd/vth alone changes only the *sensitivity* to mismatch.
        // Rescale the absolute nominal times with the first-order drive model
        // t ∝ swing / I_on ∝ vdd / (vdd − vth)^α relative to the typical
        // cell, so a slow-corner or low-voltage scenario is genuinely slower
        // in absolute terms (and a hot die, with its lower thresholds at
        // these overdrives, exhibits the classic temperature inversion).
        let typical = SramSurrogate::typical_45nm();
        let nmos_time_scale = |s: &SramSurrogate| s.vdd / (s.vdd - s.vth_n).powf(s.alpha);
        let scale = nmos_time_scale(&surrogate) / nmos_time_scale(&typical);
        surrogate.t_read_nominal *= scale;
        surrogate.t_write_nominal *= scale;
        let pelgrom = PelgromModel::new(self.pelgrom_avt);
        let space = crate::sram_models::default_sram_variation_space(&cell, &pelgrom);
        let model = SramSurrogateModel::new(surrogate, space, self.metric);
        let nominal = model.nominal_metric();
        FailureProblem::from_model(model, Spec::UpperLimit(nominal * spec_factor))
    }
}

/// One array-capacity requirement: "an array of `cells` bitcells with this
/// much repair must yield `target_yield`", which
/// [`ArrayYield::required_cell_sigma`] converts into the per-cell sigma bar a
/// scenario's extraction is judged against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityTarget {
    /// Human-readable name (e.g. `"64Mb"`).
    pub name: String,
    /// The array-yield model (capacity + redundancy).
    pub array: ArrayYield,
    /// Required array yield in `(0, 1)`.
    pub target_yield: f64,
}

impl CapacityTarget {
    /// The per-cell sigma level required to meet this target.
    pub fn required_sigma(&self) -> f64 {
        self.array.required_cell_sigma(self.target_yield)
    }
}

/// Cartesian scenario-grid builder: the cross product of the configured
/// corner / supply / temperature / Pelgrom / metric axes, one failure problem
/// per grid point.
///
/// Defaults to the single typical point (TT, 1.0 V, 25 °C, 2.5 mV·µm, read
/// access time) with a `1.5×` nominal spec — every `with_`-style method
/// widens one axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPlan {
    /// Process corners to span.
    pub corners: Vec<GlobalCorner>,
    /// Supply voltages (volts) to span.
    pub supply_voltages: Vec<f64>,
    /// Junction temperatures (°C) to span.
    pub temperatures_celsius: Vec<f64>,
    /// Pelgrom `A_VT` coefficients (V·m) to span.
    pub pelgrom_avts: Vec<f64>,
    /// Dynamic metrics to extract per operating point.
    pub metrics: Vec<SramMetric>,
    /// Spec limit as a multiple of each scenario's nominal metric.
    pub spec_factor: f64,
    /// Systematic ΔV_T magnitude of the non-typical corners, in volts.
    pub corner_vth_magnitude: f64,
    /// Array-capacity requirements the sweep's sigmas are compared against.
    pub capacity_targets: Vec<CapacityTarget>,
}

impl Default for SweepPlan {
    fn default() -> Self {
        SweepPlan {
            corners: vec![GlobalCorner::TypicalTypical],
            supply_voltages: vec![1.0],
            temperatures_celsius: vec![25.0],
            pelgrom_avts: vec![PelgromModel::typical_45nm().a_vt()],
            metrics: vec![SramMetric::ReadAccessTime],
            spec_factor: 1.5,
            corner_vth_magnitude: 0.03,
            capacity_targets: Vec::new(),
        }
    }
}

impl SweepPlan {
    /// The default single-point plan; widen axes from here.
    pub fn new() -> Self {
        SweepPlan::default()
    }

    /// Sets the process corners to span.
    pub fn corners(mut self, corners: impl IntoIterator<Item = GlobalCorner>) -> Self {
        self.corners = corners.into_iter().collect();
        self
    }

    /// Sets the supply voltages (volts) to span.
    pub fn supply_voltages(mut self, volts: impl IntoIterator<Item = f64>) -> Self {
        self.supply_voltages = volts.into_iter().collect();
        self
    }

    /// Sets the junction temperatures (°C) to span.
    pub fn temperatures(mut self, celsius: impl IntoIterator<Item = f64>) -> Self {
        self.temperatures_celsius = celsius.into_iter().collect();
        self
    }

    /// Sets the Pelgrom `A_VT` coefficients (V·m) to span.
    pub fn pelgrom_avts(mut self, avts: impl IntoIterator<Item = f64>) -> Self {
        self.pelgrom_avts = avts.into_iter().collect();
        self
    }

    /// Sets the dynamic metrics to extract at each operating point.
    pub fn metrics(mut self, metrics: impl IntoIterator<Item = SramMetric>) -> Self {
        self.metrics = metrics.into_iter().collect();
        self
    }

    /// Sets the spec limit as a multiple of each scenario's nominal metric.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn spec_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "spec factor must be positive and finite"
        );
        self.spec_factor = factor;
        self
    }

    /// Adds an array-capacity requirement of `cells` bitcells with
    /// `repairable_cells` of repair at `target_yield` array yield.
    pub fn capacity_target(
        mut self,
        name: impl Into<String>,
        cells: u64,
        repairable_cells: u64,
        target_yield: f64,
    ) -> Self {
        self.capacity_targets.push(CapacityTarget {
            name: name.into(),
            array: ArrayYield::with_redundancy(cells, repairable_cells),
            target_yield,
        });
        self
    }

    /// The scenario grid, in deterministic (nested-axis) order: corner ▸
    /// supply ▸ temperature ▸ A_VT ▸ metric.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty, or if two grid points collide on the same
    /// scenario name (names round supply to 10 mV, temperature to 1 °C and
    /// `A_VT` to 0.1 mV·µm; grid points closer than that would silently alias
    /// one (problem, estimator) cell in the checkpoint and the report).
    pub fn scenarios(&self) -> Vec<Scenario> {
        assert!(
            !self.corners.is_empty()
                && !self.supply_voltages.is_empty()
                && !self.temperatures_celsius.is_empty()
                && !self.pelgrom_avts.is_empty()
                && !self.metrics.is_empty(),
            "every sweep axis needs at least one point"
        );
        let mut out = Vec::new();
        for &corner in &self.corners {
            for &vdd in &self.supply_voltages {
                for &temp in &self.temperatures_celsius {
                    for &avt in &self.pelgrom_avts {
                        for &metric in &self.metrics {
                            out.push(Scenario {
                                name: format!(
                                    "{}_v{:.2}_t{:+.0}c_avt{:.1}_{}",
                                    corner_tag(corner),
                                    vdd,
                                    temp,
                                    avt * 1e9,
                                    metric.name()
                                ),
                                corner,
                                supply_voltage: vdd,
                                temperature_celsius: temp,
                                pelgrom_avt: avt,
                                metric,
                                corner_vth_magnitude: self.corner_vth_magnitude,
                            });
                        }
                    }
                }
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for scenario in &out {
            assert!(
                seen.insert(scenario.name.as_str()),
                "scenario name {:?} is not unique: grid points closer than the \
                 name's rounding (10 mV / 1 °C / 0.1 mV·µm) would alias each other",
                scenario.name
            );
        }
        out
    }

    /// Builds a [`YieldAnalysis`] with one registered problem per scenario
    /// (in grid order). Chain the usual builder calls — master seed, policy,
    /// estimators — onto the result.
    pub fn analysis(&self) -> YieldAnalysis {
        let mut analysis = YieldAnalysis::new();
        for scenario in self.scenarios() {
            let problem = scenario.problem(self.spec_factor);
            analysis = analysis.problem(scenario.name, problem);
        }
        analysis
    }

    /// The warm-start adjacency of this plan's grid: each scenario name
    /// mapped to the name of the *donor* scenario it may seed its searches
    /// from in continuation mode ([`SweepRunner::warm_start`]).
    ///
    /// Adjacency follows the continuous operating axes only — supply,
    /// temperature, `A_VT` — because failure geometry moves smoothly along
    /// them; corner and metric changes swap the problem qualitatively, so
    /// every (corner, metric) family warm-starts independently. The donor of
    /// a grid point is its predecessor along the first continuous axis with a
    /// non-zero index (supply first, then temperature, then `A_VT`), which
    /// makes the donor graph a forest rooted at each family's origin cell
    /// (all continuous indices zero); origin cells have no donor and always
    /// run blind, anchoring every chain to the reproducibility reference.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`scenarios`](Self::scenarios).
    pub fn warm_donors(&self) -> BTreeMap<String, String> {
        let scenarios = self.scenarios();
        let s = self.supply_voltages.len();
        let t = self.temperatures_celsius.len();
        let a = self.pelgrom_avts.len();
        let m = self.metrics.len();
        let flat = |ci: usize, si: usize, ti: usize, ai: usize, mi: usize| {
            (((ci * s + si) * t + ti) * a + ai) * m + mi
        };
        let mut donors = BTreeMap::new();
        for (idx, scenario) in scenarios.iter().enumerate() {
            let mi = idx % m;
            let ai = (idx / m) % a;
            let ti = (idx / (m * a)) % t;
            let si = (idx / (m * a * t)) % s;
            let ci = idx / (m * a * t * s);
            let donor = if si > 0 {
                Some(flat(ci, si - 1, ti, ai, mi))
            } else if ti > 0 {
                Some(flat(ci, si, ti - 1, ai, mi))
            } else if ai > 0 {
                Some(flat(ci, si, ti, ai - 1, mi))
            } else {
                None
            };
            if let Some(donor) = donor {
                donors.insert(scenario.name.clone(), scenarios[donor].name.clone());
            }
        }
        donors
    }

    /// The per-cell sigma requirement of every registered capacity target.
    pub fn sigma_requirements(&self) -> Vec<(String, f64)> {
        self.capacity_targets
            .iter()
            .map(|t| (t.name.clone(), t.required_sigma()))
            .collect()
    }

    /// Flattens a finished report into one row per (scenario, estimator)
    /// cell, each annotated with the margin against every capacity target.
    pub fn summarize(&self, report: &AnalysisReport) -> Vec<SweepSummaryRow> {
        let requirements = self.sigma_requirements();
        let mut rows = Vec::new();
        for problem in &report.problems {
            for method in &problem.methods {
                rows.push(SweepSummaryRow {
                    problem: problem.problem.clone(),
                    estimator: method.estimator.clone(),
                    failure_probability: method.row.failure_probability,
                    sigma_level: method.row.sigma_level,
                    converged: method.row.converged,
                    capacity_margins: requirements
                        .iter()
                        .map(|(name, required)| CapacityMargin {
                            target: name.clone(),
                            required_sigma: *required,
                            margin_sigma: method.row.sigma_level - required,
                            meets: method.row.sigma_level >= *required,
                        })
                        .collect(),
                });
            }
        }
        rows
    }
}

/// One line of [`SweepPlan::summarize`]: a cell's extracted sigma next to
/// every capacity requirement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummaryRow {
    /// Scenario (problem) name.
    pub problem: String,
    /// Estimator name.
    pub estimator: String,
    /// Extracted failure probability.
    pub failure_probability: f64,
    /// Equivalent sigma level.
    pub sigma_level: f64,
    /// Whether the estimator converged to its accuracy target.
    pub converged: bool,
    /// Margin against each capacity target of the plan.
    pub capacity_margins: Vec<CapacityMargin>,
}

/// Sigma margin of one cell against one [`CapacityTarget`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityMargin {
    /// Capacity-target name.
    pub target: String,
    /// Required per-cell sigma.
    pub required_sigma: f64,
    /// Extracted sigma minus required sigma (positive = passing).
    pub margin_sigma: f64,
    /// `margin_sigma >= 0`.
    pub meets: bool,
}

/// Version of the checkpoint-log line format ([`SweepLogEntry`]). Bump when
/// the envelope or the embedded record schema changes incompatibly; replay
/// discards lines from any other version instead of misreading them.
pub const SWEEP_LOG_VERSION: u32 = 1;

/// [`SweepLogEntry::kind`] of a completed-cell line.
pub const SWEEP_LOG_KIND_CELL: &str = "cell";
/// [`SweepLogEntry::kind`] of a job-submission line (written by job servers
/// layered on the sweep engine; the batch runner skips them on restore).
pub const SWEEP_LOG_KIND_JOB: &str = "job";

/// One line of a sweep checkpoint / job-server journal: a protocol-versioned
/// envelope around either a completed-cell record or a job submission.
///
/// The batch [`SweepRunner`] writes `kind = "cell"` lines and, on restore,
/// accepts both enveloped lines and the pre-envelope bare
/// [`SweepCellRecord`] format (so existing checkpoints stay replayable).
/// A job server (the `gis-serve` daemon) additionally writes `kind = "job"`
/// lines carrying the submitted job spec (opaque to this crate) and tags its
/// cell lines with the content-addressed cache `key`; the batch runner
/// ignores both extras, so a daemon journal is replayable as a plain sweep
/// checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepLogEntry {
    /// Format version ([`SWEEP_LOG_VERSION`]). Mismatched lines are
    /// discarded on replay.
    pub v: u32,
    /// Line kind: [`SWEEP_LOG_KIND_CELL`] or [`SWEEP_LOG_KIND_JOB`].
    pub kind: String,
    /// Content-addressed cell-cache key (job-server lines only).
    pub key: Option<String>,
    /// Opaque job payload (`kind = "job"` lines only).
    pub job: Option<serde::Value>,
    /// The completed cell (`kind = "cell"` lines only).
    pub record: Option<SweepCellRecord>,
    /// CRC-32 ([`crate::fault::crc32`]) of the entry's serialization with
    /// this field set to `None` — see [`SweepLogEntry::sealed`]. `None` on
    /// lines written before checksumming existed; such legacy lines still
    /// replay (validated by JSON parse alone).
    pub crc: Option<u32>,
}

impl SweepLogEntry {
    /// Wraps a completed-cell record in a current-version envelope
    /// (unsealed; call [`sealed`](Self::sealed) before writing).
    pub fn cell(record: SweepCellRecord) -> Self {
        SweepLogEntry {
            v: SWEEP_LOG_VERSION,
            kind: SWEEP_LOG_KIND_CELL.to_string(),
            key: None,
            job: None,
            record: Some(record),
            crc: None,
        }
    }

    /// Wraps an opaque job payload in a current-version envelope
    /// (unsealed; call [`sealed`](Self::sealed) before writing).
    pub fn job(job: serde::Value) -> Self {
        SweepLogEntry {
            v: SWEEP_LOG_VERSION,
            kind: SWEEP_LOG_KIND_JOB.to_string(),
            key: None,
            job: Some(job),
            record: None,
            crc: None,
        }
    }

    /// Attaches a content-addressed cache key (job-server cell lines).
    pub fn with_key(mut self, key: impl Into<String>) -> Self {
        self.key = Some(key.into());
        self
    }

    /// Seals the entry for writing: sets `crc` to the CRC-32 of the entry's
    /// canonical serialization with `crc = None`. A torn or bit-rotted line
    /// is then detected by checksum on replay even when the damage happens
    /// to still parse as JSON.
    #[allow(clippy::expect_used)] // serializing an in-memory record cannot fail
    pub fn sealed(mut self) -> Self {
        self.crc = None;
        let payload = serde_json::to_string(&self).expect("sweep log entry serializes"); // gis-analyze: allow(panic-site, serializing an in-memory record to a string cannot fail)
        self.crc = Some(crc32(payload.as_bytes()));
        self
    }

    /// Verifies the line checksum. `true` for unsealed legacy lines (no
    /// `crc` recorded); a sealed line must re-serialize (with `crc = None`)
    /// to exactly the bytes its checksum was computed over — the vendored
    /// serializer's canonical field order and shortest-roundtrip float
    /// formatting make that re-serialization deterministic.
    pub fn crc_valid(&self) -> bool {
        let Some(expected) = self.crc else {
            return true;
        };
        let mut unsealed = self.clone();
        unsealed.crc = None;
        serde_json::to_string(&unsealed)
            .map(|payload| crc32(payload.as_bytes()) == expected)
            .unwrap_or(false)
    }
}

/// The append side of a sweep log: the one writer of sealed
/// [`SweepLogEntry`] lines, shared by the batch checkpoint and the
/// `gis-serve` journal.
#[derive(Debug)]
pub struct SweepLog {
    file: Mutex<std::fs::File>,
    appends: AtomicU64,
    healthy: AtomicBool,
}

impl SweepLog {
    /// Opens the log at `path` for appending, creating it (and its parent
    /// directory) on first use.
    pub fn open(path: &Path) -> std::io::Result<SweepLog> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(SweepLog {
            file: Mutex::new(file),
            appends: AtomicU64::new(0),
            healthy: AtomicBool::new(true),
        })
    }

    /// Seals `entry`, appends it as one line and flushes. Under an injected
    /// `torn-journal:<n>` fault the `n`-th append to this log writes only
    /// half its line and no newline — the shape a kill mid-append leaves.
    ///
    /// # Panics
    ///
    /// Panics when the write or flush fails, after marking the log
    /// unhealthy: a lost line would silently fake resume safety, so the
    /// cell (or the daemon connection) aborts instead.
    #[allow(clippy::expect_used)] // serializing an in-memory record cannot fail
    pub fn append(&self, entry: SweepLogEntry, faults: Option<&FaultPlan>) {
        let line = serde_json::to_string(&entry.sealed()).expect("sweep log entry serializes"); // gis-analyze: allow(panic-site, serializing an in-memory record to a string cannot fail)

        // A poisoned lock only follows a panic in another appender; every
        // append is line-atomic under the lock, so the file is still valid.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let n = self.appends.fetch_add(1, Ordering::SeqCst) + 1;
        let written = if faults.is_some_and(|f| f.tears_journal_line(n)) {
            write!(file, "{}", &line[..line.len() / 2])
        } else {
            writeln!(file, "{line}")
        };
        if let Err(e) = written.and_then(|()| file.flush()) {
            self.healthy.store(false, Ordering::SeqCst);
            panic!("sweep log append failed: {e}"); // gis-analyze: allow(panic-site, deliberate fail-fast: a lost log line would silently fake resume safety)
        }
    }

    /// Appends attempted so far, torn ones included.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::SeqCst)
    }

    /// `false` once an append has failed.
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }
}

/// Reads every intact cell line of the sweep log at `path`, in file order,
/// as `(cache key, record)` pairs, plus the number of discarded lines. This
/// is the one validator of the log-line format, behind both the checkpoint
/// restore and the `gis-serve` journal replay.
///
/// A line is discarded when it is torn or corrupt (it does not parse, or a
/// sealed line fails its CRC), has another version or kind, is a cell line
/// without a record, or records a quarantined failure: quarantine is never
/// sticky, so a resume gives that cell a fresh chance. Job lines are
/// skipped without counting as discarded. Unsealed legacy lines and bare
/// pre-envelope [`SweepCellRecord`] lines (which have no key) still read.
/// A missing file reads as empty.
pub fn read_log(path: &Path) -> (Vec<(Option<String>, SweepCellRecord)>, usize) {
    let mut cells = Vec::new();
    let mut discarded = 0usize;
    let Ok(contents) = std::fs::read_to_string(path) else {
        return (cells, discarded);
    };
    for line in contents.lines().filter(|line| !line.trim().is_empty()) {
        let cell = match serde_json::from_str::<SweepLogEntry>(line) {
            Ok(entry) if !entry.crc_valid() => None,
            Ok(entry) if entry.v == SWEEP_LOG_VERSION && entry.kind == SWEEP_LOG_KIND_JOB => {
                continue;
            }
            Ok(entry) if entry.v == SWEEP_LOG_VERSION && entry.kind == SWEEP_LOG_KIND_CELL => {
                entry.record.map(|record| (entry.key, record))
            }
            _ => serde_json::from_str::<SweepCellRecord>(line)
                .ok()
                .map(|record| (None, record)),
        };
        match cell {
            Some((key, record)) if !record.report.is_failed() => cells.push((key, record)),
            _ => discarded += 1,
        }
    }
    (cells, discarded)
}

/// What [`CellStore::claim`] resolved one pending cell to.
#[derive(Debug)]
pub enum CellClaim<T> {
    /// The store already holds the cell (a result-cache hit): it completes
    /// with this report and is observed as restored.
    Ready(Box<MethodReport>),
    /// The runner computes the cell and hands the ticket back to
    /// [`CellStore::commit`].
    Compute(T),
    /// The cell completes as this typed placeholder without running (a job
    /// deadline has passed). It is neither committed nor observed.
    Refused(CellFailure),
    /// The cell stays pending, as if a cell budget had stopped the run:
    /// whoever consumes the run has gone away.
    Cancelled,
}

/// Where a [`SweepRunner`] run restores, claims and commits its cells.
///
/// The runner owns scheduling, contained execution with retry, warm-start
/// hints and their provenance; a store owns durability. The checkpoint file
/// ([`SweepRunner::checkpoint`]) is the batch store. The `gis-serve` daemon's
/// single-flight result cache plus journal is the other, passed to
/// [`SweepRunner::run_with_store`].
pub trait CellStore: Sync {
    /// Permission to compute one claimed cell, returned on commit.
    type Ticket;

    /// Cells completed before this run, keyed by `(problem, estimator)`,
    /// and the number of discarded records. The default restores nothing.
    fn restore(
        &self,
        _analysis: &YieldAnalysis,
    ) -> (BTreeMap<(String, String), MethodReport>, usize) {
        (BTreeMap::new(), 0)
    }

    /// Claims the pending cell at registration indices `(problem, estimator)`.
    fn claim(&self, problem: usize, estimator: usize) -> CellClaim<Self::Ticket>;

    /// Records a computed cell — quarantined failures included — and
    /// releases its ticket.
    fn commit(&self, ticket: Self::Ticket, record: SweepCellRecord);
}

/// The batch store: the checkpoint file, when one is configured. Every
/// pending cell is computed.
struct CheckpointStore<'a> {
    runner: &'a SweepRunner,
    log: Option<SweepLog>,
}

impl CellStore for CheckpointStore<'_> {
    type Ticket = ();

    fn restore(
        &self,
        analysis: &YieldAnalysis,
    ) -> (BTreeMap<(String, String), MethodReport>, usize) {
        self.runner.restore(analysis)
    }

    fn claim(&self, _problem: usize, _estimator: usize) -> CellClaim<()> {
        CellClaim::Compute(())
    }

    fn commit(&self, (): (), record: SweepCellRecord) {
        if let Some(log) = &self.log {
            log.append(SweepLogEntry::cell(record), self.runner.effective_faults());
        }
    }
}

/// One durably-persisted cell of a sweep: the checkpoint file holds one of
/// these per line (JSON lines).
///
/// A record is only restored when `master_seed`, the uniform
/// [`ConvergencePolicy`] and the [`MethodReport::seed`] inside all match what
/// the current analysis derives for that (problem, estimator) pair — a
/// checkpoint written against a different seeding, budget or problem set is
/// silently treated as stale and the cell re-runs. (An estimator configured
/// *individually*, outside the driver-level policy, is not captured here;
/// keep per-estimator configuration identical across resumed invocations.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCellRecord {
    /// Master seed of the analysis that produced this cell.
    pub master_seed: u64,
    /// The uniform convergence policy of the analysis that produced this
    /// cell, if one was configured.
    pub policy: Option<ConvergencePolicy>,
    /// Problem (scenario) name.
    pub problem: String,
    /// The completed method report, estimator name and derived seed included.
    pub report: MethodReport,
    /// Donor problem this cell warm-started from, when the sweep ran in
    /// continuation mode and the cell had a donor. `None` marks a blind
    /// cell; the distinction is part of the cell's identity, so warm and
    /// blind records never alias on restore (absent in pre-continuation
    /// checkpoints, which deserialize as blind).
    pub warm_from: Option<String>,
    /// The exact warm-start hint passed to the estimator, extracted from the
    /// donor's diagnostics at execution time (`None` when the donor produced
    /// no usable hint — e.g. a Monte Carlo donor). Stored so a resume can
    /// verify the donor still yields the same hint before trusting the
    /// record.
    pub warm_hint: Option<WarmStart>,
    /// `Some(true)` when this cell's donor completed as a quarantined
    /// failure, so the cell fell back to a blind run despite having a donor
    /// — degradation provenance for audit. `None`/absent for healthy donors,
    /// blind cells, and pre-containment checkpoints.
    pub donor_failed: Option<bool>,
}

/// Progress summary of a (possibly partial) sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepStatus {
    /// Total (problem, estimator) cells in the matrix.
    pub total_cells: usize,
    /// Cells completed so far (restored + freshly run).
    pub completed_cells: usize,
    /// Cells restored from the checkpoint file (or served by a store's
    /// [`CellClaim::Ready`]) rather than executed.
    pub restored_cells: usize,
    /// Checkpoint lines discarded as stale (seed mismatch, unknown cell) or
    /// corrupt (e.g. the truncated last line of a killed run).
    pub discarded_records: usize,
    /// Names of the cells still pending, as `(problem, estimator)` pairs.
    pub pending: Vec<(String, String)>,
    /// Cells that completed as quarantined failures (typed placeholder
    /// reports, see [`crate::fault::CellOutcome`]), as `(problem, estimator)`
    /// pairs. They count as completed — the run finished — but their
    /// estimates are NaN placeholders and they re-run on resume.
    pub failed_cells: Vec<(String, String)>,
}

impl SweepStatus {
    /// Whether every cell of the matrix is complete.
    pub fn is_complete(&self) -> bool {
        self.completed_cells == self.total_cells
    }

    /// Completed fraction in `[0, 1]` (1 for an empty matrix).
    pub fn fraction_complete(&self) -> f64 {
        if self.total_cells == 0 {
            1.0
        } else {
            self.completed_cells as f64 / self.total_cells as f64
        }
    }
}

/// One incremental cell-completion event of [`SweepRunner::run_observed`]:
/// emitted for every restored cell (in registration order, before any fresh
/// execution) and for every pending cell the moment it completes, fresh
/// or [`CellClaim::Ready`] (from the worker thread that ran it, hence the
/// `Sync` bound on observers). `completed_cells` counts restored + fresh cells reported so
/// far, including this one — a progress bar needs nothing else.
#[derive(Debug)]
pub struct SweepCellUpdate<'a> {
    /// Problem (scenario) name of the completed cell.
    pub problem: &'a str,
    /// Estimator name of the completed cell.
    pub estimator: &'a str,
    /// Cells reported so far, this one included.
    pub completed_cells: usize,
    /// Total cells in the matrix.
    pub total_cells: usize,
    /// `true` when the cell came back from the store (checkpoint or cache)
    /// instead of running.
    pub restored: bool,
    /// The cell's full method report.
    pub report: &'a MethodReport,
}

/// Outcome of one [`SweepRunner::run`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The assembled report — `Some` exactly when every cell is complete
    /// (`status.is_complete()`); `None` when a cell budget stopped the run
    /// early, in which case the checkpoint holds everything finished so far.
    pub report: Option<AnalysisReport>,
    /// Progress summary after this invocation.
    pub status: SweepStatus,
}

/// Matrix scheduler with durable checkpoint/resume on top of
/// [`YieldAnalysis`].
///
/// See the [module documentation](self) for the guarantees; in short:
/// bit-identical to [`YieldAnalysis::run`] at any matrix thread count, and a
/// resumed run reproduces the uninterrupted report exactly.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    matrix: ExecutionConfig,
    checkpoint: Option<PathBuf>,
    cell_budget: Option<usize>,
    warm_donors: Option<BTreeMap<String, String>>,
    cell_attempts: u32,
    faults: Option<FaultPlan>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A runner with matrix parallelism resolved from `GIS_THREADS` and no
    /// checkpointing.
    pub fn new() -> Self {
        SweepRunner {
            matrix: ExecutionConfig::from_env(),
            checkpoint: None,
            cell_budget: None,
            warm_donors: None,
            cell_attempts: fault::DEFAULT_CELL_ATTEMPTS,
            faults: None,
        }
    }

    /// Sets the matrix-level execution configuration (how many cells run
    /// concurrently — independent of each estimator's own thread count).
    pub fn matrix(mut self, matrix: ExecutionConfig) -> Self {
        self.matrix = matrix;
        self
    }

    /// Enables durable checkpointing to the JSON-lines file at `path`
    /// (created on first use; existing completed cells are restored).
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Caps how many *new* cells this invocation may execute — the remaining
    /// cells stay pending in the checkpoint. Useful for time-boxed batch
    /// slots, and for deterministically exercising kill/resume in tests.
    pub fn cell_budget(mut self, cells: usize) -> Self {
        self.cell_budget = Some(cells);
        self
    }

    /// Enables dependency-aware continuation mode: every cell whose problem
    /// has a donor in `donors` (usually [`SweepPlan::warm_donors`]) seeds its
    /// search from that donor's completed diagnostics instead of starting
    /// blind. Cells execute in dependency waves — a full barrier between
    /// depths guarantees each donor's diagnostics exist before any dependent
    /// starts — and the checkpoint records carry the donor name and the exact
    /// hint used, so a resumed warm cell replays identically and warm records
    /// never alias blind ones. Problems without a donor (family origins) and
    /// estimators that ignore hints run exactly the blind path.
    ///
    /// Off by default: the blind schedule is the reproducibility reference.
    pub fn warm_start(mut self, donors: BTreeMap<String, String>) -> Self {
        self.warm_donors = Some(donors);
        self
    }

    /// Caps how many times a failing cell is retried (same derived seed —
    /// retries only help against injected or environmental faults, never
    /// against deterministic estimator behaviour) before it is quarantined
    /// as a typed [`crate::fault::CellOutcome::Failed`]. Default
    /// [`fault::DEFAULT_CELL_ATTEMPTS`]; clamped to at least 1.
    pub fn cell_attempts(mut self, attempts: u32) -> Self {
        self.cell_attempts = attempts.max(1);
        self
    }

    /// Injects a deterministic fault plan into this run (tests and chaos
    /// drills). When unset, the process-wide plan from the `GIS_FAULTS`
    /// environment variable applies ([`FaultPlan::from_env`]); both unset
    /// means no injection and no hot-path overhead.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The effective fault plan: an explicit per-runner plan wins, otherwise
    /// the process-wide `GIS_FAULTS` plan applies. `None` (the production
    /// default) keeps the hot path free of any injection work.
    fn effective_faults(&self) -> Option<&FaultPlan> {
        match &self.faults {
            Some(plan) => Some(plan),
            None => fault::global(),
        }
    }

    /// Reads the checkpoint and reports sweep progress without running any
    /// cell. `analysis` is not mutated beyond configuration validation.
    pub fn status(&self, analysis: &mut YieldAnalysis) -> SweepStatus {
        analysis.apply_configuration();
        let (restored, discarded) = self.restore(analysis);
        self.build_status(analysis, &restored, restored.len(), discarded)
    }

    /// Runs every pending cell (up to the cell budget), checkpointing each as
    /// it completes, and assembles the full report once nothing is pending.
    /// Equivalent to [`run_observed`](Self::run_observed) with a no-op
    /// observer.
    ///
    /// # Panics
    ///
    /// Panics on an unrunnable matrix (same conditions as
    /// [`YieldAnalysis::run`]), on duplicate problem or estimator names (the
    /// scheduler keys cells by name), or when the checkpoint file cannot be
    /// opened or appended to — durability failures must not be silent.
    pub fn run(&self, analysis: &mut YieldAnalysis) -> SweepOutcome {
        self.run_observed(analysis, &|_| {})
    }

    /// [`run`](Self::run) with an incremental cell-completion observer: the
    /// streaming entry point behind progress displays and result servers.
    /// The observer receives one [`SweepCellUpdate`] per restored cell (in
    /// registration order, before anything executes) and one per fresh cell
    /// as it completes; fresh events fire on worker threads, so the observer
    /// must be `Sync` and is responsible for its own ordering if it needs
    /// any beyond the per-event `completed_cells` counter.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run`](Self::run).
    #[allow(clippy::expect_used)] // invariant stated in the expect message
    pub fn run_observed(
        &self,
        analysis: &mut YieldAnalysis,
        observer: &(dyn Fn(SweepCellUpdate<'_>) + Sync),
    ) -> SweepOutcome {
        let store = CheckpointStore {
            runner: self,
            // Open the appender before spending any work, so an unwritable
            // checkpoint fails fast instead of after hours of simulation.
            log: self.checkpoint.as_ref().map(|path| {
                // gis-analyze: allow(panic-site, deliberate fail-fast: an unopenable checkpoint file must abort before work starts)
                SweepLog::open(path).expect("checkpoint file is openable for append")
            }),
        };
        self.run_with_store(analysis, &store, observer)
    }

    /// [`run_observed`](Self::run_observed) against a caller's [`CellStore`]
    /// in place of the checkpoint file, which this entry point ignores. It is
    /// the hook a job server schedules its cells through. Pending cells are
    /// claimed in schedule order: registration order, or donor-wave order
    /// under [`warm_start`](Self::warm_start). On a matrix of one thread,
    /// cells also complete, commit and reach the observer in that order.
    ///
    /// # Panics
    ///
    /// Same conditions as [`run`](Self::run), with the store's own commit
    /// failures in place of the checkpoint's.
    pub fn run_with_store<S: CellStore>(
        &self,
        analysis: &mut YieldAnalysis,
        store: &S,
        observer: &(dyn Fn(SweepCellUpdate<'_>) + Sync),
    ) -> SweepOutcome {
        analysis.apply_configuration();
        let estimator_names: Vec<String> = analysis
            .estimator_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let problem_names: Vec<String> = analysis
            .problem_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        // The scheduler keys cells by (problem, estimator) name; duplicate
        // names would silently alias cells that the sequential path computes
        // independently, so reject them up front.
        assert_unique("problem", &problem_names);
        assert_unique("estimator", &estimator_names);
        let (mut completed, discarded) = store.restore(analysis);
        let total_cells = problem_names.len() * estimator_names.len();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut reported = 0usize;
        for (pi, problem) in problem_names.iter().enumerate() {
            for (ei, estimator) in estimator_names.iter().enumerate() {
                if let Some(report) = completed.get(&(problem.clone(), estimator.clone())) {
                    reported += 1;
                    observer(SweepCellUpdate {
                        problem,
                        estimator,
                        completed_cells: reported,
                        total_cells,
                        restored: true,
                        report,
                    });
                } else {
                    pending.push((pi, ei));
                }
            }
        }
        let progress = AtomicUsize::new(reported);
        let restored_cells = AtomicUsize::new(reported);
        // Pending cells run in dependency waves: donors strictly before
        // dependents, registration order within a wave, so a cell budget can
        // never strand a dependent ahead of its donor. Blind mode is a
        // single wave in registration order.
        let donors = self.warm_donors.as_ref();
        let depth = |pi: usize| donors.map_or(0, |d| donor_depth(d, &problem_names[pi]));
        pending.sort_by_key(|&(pi, _)| depth(pi));
        if let Some(budget) = self.cell_budget {
            pending.truncate(budget);
        }

        let master_seed = analysis.master_seed_value();
        let policy = analysis.convergence_policy_value();
        let analysis = &*analysis;
        let faults = self.effective_faults();
        let executor = self.matrix.executor();
        let mut cursor = 0usize;
        while cursor < pending.len() {
            let wave_depth = depth(pending[cursor].0);
            let end = cursor
                + pending[cursor..]
                    .iter()
                    .take_while(|&&(pi, _)| depth(pi) == wave_depth)
                    .count();
            let wave = &pending[cursor..end];
            // Per cell: claim it from the store, run it contained (warm when
            // it has a donor), commit it with its warm provenance and notify
            // the observer. A panicking or non-converging cell is quarantined
            // as a typed placeholder report instead of tearing down the
            // sweep; healthy cells are returned exactly as computed. `None`
            // means the store cancelled the cell and it stays pending.
            let fresh = executor.map_tasks(wave.len(), |task| {
                let (pi, ei) = wave[task];
                let (problem, estimator) = (&problem_names[pi], &estimator_names[ei]);
                let seed = analysis.derived_seed(problem, estimator);
                // The barrier between waves guarantees the donor's report is
                // in `completed`. A quarantined donor yields no hint (its
                // placeholder diagnostics carry none), so the dependent
                // degrades to a blind run, recorded as provenance.
                let warm_from = donors.and_then(|d| d.get(problem)).cloned();
                let donor_report = warm_from
                    .as_ref()
                    .and_then(|d| completed.get(&(d.clone(), estimator.clone())));
                let warm_hint = donor_report.and_then(|r| r.outcome.warm_hint());
                let donor_failed = donor_report.and_then(|r| r.failed.as_ref().map(|_| true));
                let (report, restored) = match store.claim(pi, ei) {
                    CellClaim::Cancelled => return None,
                    CellClaim::Refused(failure) => {
                        return Some((pi, ei, fault::failed_report(estimator, seed, failure)))
                    }
                    CellClaim::Ready(report) => {
                        restored_cells.fetch_add(1, Ordering::SeqCst);
                        (*report, true)
                    }
                    CellClaim::Compute(ticket) => {
                        let report = fault::run_contained(
                            problem,
                            estimator,
                            self.cell_attempts,
                            faults,
                            || analysis.run_cell_warm(pi, ei, warm_hint.as_ref()),
                        )
                        .into_report(estimator, seed);
                        let record = SweepCellRecord {
                            master_seed,
                            policy,
                            problem: problem.clone(),
                            report: report.clone(),
                            warm_from,
                            warm_hint,
                            donor_failed,
                        };
                        store.commit(ticket, record);
                        (report, false)
                    }
                };
                observer(SweepCellUpdate {
                    problem,
                    estimator,
                    completed_cells: progress.fetch_add(1, Ordering::SeqCst) + 1,
                    total_cells,
                    restored,
                    report: &report,
                });
                Some((pi, ei, report))
            });
            for (pi, ei, report) in fresh.into_iter().flatten() {
                completed.insert(
                    (problem_names[pi].clone(), estimator_names[ei].clone()),
                    report,
                );
            }
            cursor = end;
        }

        let status =
            self.build_status(analysis, &completed, restored_cells.into_inner(), discarded);
        // Every cell present exactly when the status is complete.
        let cells: Option<Vec<Vec<MethodReport>>> = problem_names
            .iter()
            .map(|p| {
                estimator_names
                    .iter()
                    .map(|e| completed.remove(&(p.clone(), e.clone())))
                    .collect()
            })
            .collect();
        let report = cells.map(|cells| analysis.assemble_report(cells));
        SweepOutcome { report, status }
    }

    /// Loads the checkpoint (if configured and present), keeping only records
    /// that match the analysis' current cells and seed derivation. Returns
    /// the restored map and the number of discarded lines.
    fn restore(
        &self,
        analysis: &YieldAnalysis,
    ) -> (BTreeMap<(String, String), MethodReport>, usize) {
        let mut restored = BTreeMap::new();
        let Some(path) = &self.checkpoint else {
            return (restored, 0);
        };
        let (cells, mut discarded) = read_log(path);
        let problem_names = analysis.problem_names();
        let estimator_names = analysis.estimator_names();
        for (_, record) in cells {
            let known_cell = problem_names.contains(&record.problem.as_str())
                && estimator_names.contains(&record.report.estimator.as_str());
            // Seeds pin the *randomness*; the policy pins the *budget and
            // stopping rule*. Both must match, or a resume after a
            // configuration change would smuggle differently-configured
            // results into a report claimed complete.
            let configuration_matches = record.master_seed == analysis.master_seed_value()
                && record.policy == analysis.convergence_policy_value()
                && known_cell
                && record.report.seed
                    == analysis.derived_seed(&record.problem, &record.report.estimator);
            if !configuration_matches {
                discarded += 1;
                continue;
            }
            // Warm provenance is part of the cell's identity. A blind run
            // never absorbs warm cells (their estimates depend on the donor)
            // and a warm run never absorbs blind non-origin cells (a resume
            // must replay the hinted search). A warm record is additionally
            // only valid while its donor is already restored and still
            // yields the recorded hint — checkpoint lines are appended in
            // wave order, so a valid donor always precedes its dependents,
            // and a discarded donor transitively re-runs them.
            let expected_donor = self
                .warm_donors
                .as_ref()
                .and_then(|donors| donors.get(&record.problem));
            let provenance_matches = match (&record.warm_from, expected_donor) {
                (None, None) => record.warm_hint.is_none(),
                (Some(from), Some(donor)) if from == donor => restored
                    .get(&(donor.clone(), record.report.estimator.clone()))
                    .is_some_and(|donor_report: &MethodReport| {
                        donor_report.outcome.warm_hint() == record.warm_hint
                    }),
                _ => false,
            };
            if !provenance_matches {
                discarded += 1;
                continue;
            }
            let key = (record.problem.clone(), record.report.estimator.clone());
            if restored.insert(key, record.report).is_some() {
                // Duplicate cell (e.g. overlapping partial runs): the newest
                // line wins, the older one counts as discarded.
                discarded += 1;
            }
        }
        (restored, discarded)
    }

    fn build_status(
        &self,
        analysis: &YieldAnalysis,
        completed: &BTreeMap<(String, String), MethodReport>,
        restored: usize,
        discarded: usize,
    ) -> SweepStatus {
        let mut pending = Vec::new();
        let mut failed_cells = Vec::new();
        for p in analysis.problem_names() {
            for e in analysis.estimator_names() {
                match completed.get(&(p.to_string(), e.to_string())) {
                    None => pending.push((p.to_string(), e.to_string())),
                    Some(report) if report.is_failed() => {
                        failed_cells.push((p.to_string(), e.to_string()));
                    }
                    Some(_) => {}
                }
            }
        }
        let total = analysis.problem_names().len() * analysis.estimator_names().len();
        SweepStatus {
            total_cells: total,
            completed_cells: total - pending.len(),
            restored_cells: restored,
            discarded_records: discarded,
            pending,
            failed_cells,
        }
    }
}

/// Convenience: deletes the checkpoint file at `path` if it exists (start a
/// sweep fresh). Missing files are fine; other IO errors are returned.
pub fn clear_checkpoint(path: impl AsRef<Path>) -> std::io::Result<()> {
    match std::fs::remove_file(path.as_ref()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearLimitState;
    use crate::montecarlo::{MonteCarlo, MonteCarloConfig};

    fn tiny_analysis() -> YieldAnalysis {
        let linear = |beta| {
            FailureProblem::from_model(
                LinearLimitState::along_first_axis(3, beta),
                LinearLimitState::spec(),
            )
        };
        YieldAnalysis::new()
            .master_seed(5)
            .convergence_policy(ConvergencePolicy::with_budget(2_000))
            .problem("p-low", linear(2.0))
            .problem("p-high", linear(3.0))
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
    }

    #[test]
    fn scenario_grid_is_the_cartesian_product_in_order() {
        let plan = SweepPlan::new()
            .corners([GlobalCorner::TypicalTypical, GlobalCorner::SlowSlow])
            .supply_voltages([0.9, 1.0])
            .temperatures([-40.0, 125.0])
            .metrics([SramMetric::ReadAccessTime, SramMetric::WriteDelay]);
        let scenarios = plan.scenarios();
        assert_eq!(scenarios.len(), 2 * 2 * 2 * 2);
        // Names are unique and deterministic.
        let names: std::collections::HashSet<_> =
            scenarios.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), scenarios.len());
        assert_eq!(scenarios[0].name, "tt_v0.90_t-40c_avt2.5_read-access-time");
        // Innermost axis varies fastest.
        assert_eq!(scenarios[1].metric, SramMetric::WriteDelay);
        assert_eq!(scenarios[0].corner, GlobalCorner::TypicalTypical);
        assert_eq!(scenarios.last().unwrap().corner, GlobalCorner::SlowSlow);
    }

    #[test]
    fn scenarios_build_working_problems() {
        let plan = SweepPlan::new()
            .corners([GlobalCorner::SlowSlow])
            .supply_voltages([0.85]);
        let scenarios = plan.scenarios();
        let problem = scenarios[0].problem(plan.spec_factor);
        assert_eq!(problem.dim(), 6);
        // The nominal point passes its own 1.5x spec.
        assert!(!problem.is_failure(&gis_linalg::Vector::zeros(6)));
        // A slow-corner low-voltage cell is slower (larger nominal read time)
        // than the typical one: both effects cut the overdrive.
        let typical = SweepPlan::new().scenarios()[0].problem(1.5);
        let nominal_stressed = problem.spec().limit() / 1.5;
        let nominal_typical = typical.spec().limit() / 1.5;
        assert!(
            nominal_stressed > nominal_typical,
            "stressed {nominal_stressed} vs typical {nominal_typical}"
        );
        // The temperature axis re-biases the thresholds: a hot die has lower
        // V_T under the library's coefficient, so its nominal metric differs
        // from the 25 °C point (temperature inversion: at these overdrives
        // the hot cell reads *faster*).
        let hot = SweepPlan::new().temperatures([125.0]).scenarios()[0].problem(1.5);
        assert!(hot.spec().limit() < typical.spec().limit());
        // The Pelgrom axis widens the variation space: same nominal, larger
        // mismatch sigma, so the same whitened point sits further out
        // physically and fails a spec the tighter-mismatch cell meets.
        let wide = SweepPlan::new().pelgrom_avts([5.0e-9]).scenarios()[0].problem(1.5);
        let stress = gis_linalg::Vector::from_slice(&[4.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let wide_fork = wide.fork();
        assert!(wide_fork.failure_margin(&stress) > typical.fork().failure_margin(&stress));
    }

    #[test]
    fn capacity_targets_translate_to_sigma_requirements() {
        let plan = SweepPlan::new()
            .capacity_target("64Kb", 64 * 1024, 0, 0.99)
            .capacity_target("64Mb", 64 * 1024 * 1024, 0, 0.99);
        let reqs = plan.sigma_requirements();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].0, "64Kb");
        // Bigger arrays demand more sigma.
        assert!(reqs[1].1 > reqs[0].1);
        assert!(reqs[0].1 > 4.0 && reqs[1].1 < 7.5);
    }

    #[test]
    fn runner_without_checkpoint_matches_sequential_run() {
        let sequential = tiny_analysis().run();
        for threads in [1, 2, 8] {
            let outcome = SweepRunner::new()
                .matrix(ExecutionConfig::with_threads(threads))
                .run(&mut tiny_analysis());
            assert!(outcome.status.is_complete());
            assert_eq!(outcome.status.restored_cells, 0);
            assert_eq!(outcome.report.expect("complete"), sequential);
        }
    }

    #[test]
    fn cell_budget_pauses_and_resume_completes() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("budget.jsonl");
        clear_checkpoint(&path).unwrap();

        let reference = tiny_analysis().run();
        let partial = SweepRunner::new()
            .checkpoint(&path)
            .cell_budget(1)
            .run(&mut tiny_analysis());
        assert!(partial.report.is_none());
        assert_eq!(partial.status.completed_cells, 1);
        assert_eq!(partial.status.pending.len(), 1);
        assert!((partial.status.fraction_complete() - 0.5).abs() < 1e-12);

        // Status is readable without running anything.
        let status = SweepRunner::new()
            .checkpoint(&path)
            .status(&mut tiny_analysis());
        assert_eq!(status.completed_cells, 1);
        assert!(!status.is_complete());

        let resumed = SweepRunner::new()
            .checkpoint(&path)
            .run(&mut tiny_analysis());
        assert!(resumed.status.is_complete());
        assert_eq!(resumed.status.restored_cells, 1);
        assert_eq!(resumed.report.expect("complete"), reference);
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    fn policy_change_invalidates_the_checkpoint() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("policy.jsonl");
        clear_checkpoint(&path).unwrap();

        let done = SweepRunner::new()
            .checkpoint(&path)
            .run(&mut tiny_analysis());
        assert!(done.status.is_complete());

        // Same seed, bigger budget: every stored cell ran under the old
        // policy and must not be restored into the new report.
        let repoliced =
            || tiny_analysis().convergence_policy(ConvergencePolicy::with_budget(4_000));
        let status = SweepRunner::new()
            .checkpoint(&path)
            .status(&mut repoliced());
        assert_eq!(status.restored_cells, 0);
        assert_eq!(status.discarded_records, 2);

        let rerun = SweepRunner::new().checkpoint(&path).run(&mut repoliced());
        assert_eq!(rerun.status.restored_cells, 0);
        assert_eq!(rerun.report.expect("complete"), repoliced().run());
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate problem name")]
    fn duplicate_problem_names_are_rejected_by_the_runner() {
        let linear = |beta| {
            FailureProblem::from_model(
                LinearLimitState::along_first_axis(2, beta),
                LinearLimitState::spec(),
            )
        };
        let mut analysis = YieldAnalysis::new()
            .problem("same", linear(2.0))
            .problem("same", linear(3.0))
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())));
        let _ = SweepRunner::new().run(&mut analysis);
    }

    #[test]
    #[should_panic(expected = "is not unique")]
    fn colliding_scenario_names_are_rejected() {
        // Two temperatures that round to the same whole degree alias the
        // scenario name; the grid must refuse instead of silently merging
        // two operating points.
        let _ = SweepPlan::new().temperatures([25.2, 25.4]).scenarios();
    }

    #[test]
    fn stale_and_corrupt_checkpoint_lines_are_discarded() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("stale.jsonl");
        clear_checkpoint(&path).unwrap();

        // Complete a sweep under one master seed...
        let done = SweepRunner::new()
            .checkpoint(&path)
            .run(&mut tiny_analysis());
        assert!(done.status.is_complete());
        // ...corrupt the file with a truncated line...
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"master_seed\": 5, \"problem\": \"p-l").unwrap();
        }
        // ...then re-open it under a *different* master seed: every stored
        // cell is stale and re-runs.
        let mut reseeded = tiny_analysis().master_seed(6);
        let status = SweepRunner::new().checkpoint(&path).status(&mut reseeded);
        assert_eq!(status.restored_cells, 0);
        assert_eq!(status.discarded_records, 3); // 2 stale + 1 corrupt
        assert_eq!(status.pending.len(), 2);

        // Under the original seed the two good lines restore and the corrupt
        // tail is skipped.
        let status = SweepRunner::new()
            .checkpoint(&path)
            .status(&mut tiny_analysis());
        assert_eq!(status.restored_cells, 2);
        assert_eq!(status.discarded_records, 1);
        assert!(status.is_complete());
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    fn run_observed_reports_every_cell_exactly_once() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("observed.jsonl");
        clear_checkpoint(&path).unwrap();

        // Fresh run: one event per cell, monotone progress up to the total,
        // no cell reported twice.
        let events = std::sync::Mutex::new(Vec::new());
        let outcome = SweepRunner::new().checkpoint(&path).run_observed(
            &mut tiny_analysis(),
            &|update: SweepCellUpdate<'_>| {
                events.lock().unwrap().push((
                    update.problem.to_string(),
                    update.estimator.to_string(),
                    update.completed_cells,
                    update.total_cells,
                    update.restored,
                ));
            },
        );
        assert!(outcome.status.is_complete());
        let mut seen = events.into_inner().unwrap();
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|e| e.3 == 2 && !e.4));
        seen.sort_by_key(|e| e.2);
        assert_eq!(seen[0].2, 1);
        assert_eq!(seen[1].2, 2);
        let cells: std::collections::HashSet<_> =
            seen.iter().map(|e| (e.0.clone(), e.1.clone())).collect();
        assert_eq!(cells.len(), 2, "each cell reported exactly once");

        // Every checkpoint line written by the run is a versioned envelope.
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            let entry: SweepLogEntry = serde_json::from_str(line).unwrap();
            assert_eq!(entry.v, SWEEP_LOG_VERSION);
            assert_eq!(entry.kind, SWEEP_LOG_KIND_CELL);
            assert!(entry.record.is_some());
        }

        // A job envelope interleaved into the log is tolerated: it is
        // neither restored nor counted as discarded.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            let job = SweepLogEntry::job(serde_json::to_value(&"fast-suite".to_string()).unwrap())
                .with_key("job-demo");
            writeln!(f, "{}", serde_json::to_string(&job).unwrap()).unwrap();
        }

        // Resume replays the completed cells as restored events, in order,
        // before any fresh work would run.
        let replayed = std::sync::Mutex::new(Vec::new());
        let resumed = SweepRunner::new().checkpoint(&path).run_observed(
            &mut tiny_analysis(),
            &|update: SweepCellUpdate<'_>| {
                replayed
                    .lock()
                    .unwrap()
                    .push((update.completed_cells, update.restored));
            },
        );
        assert!(resumed.status.is_complete());
        assert_eq!(resumed.status.restored_cells, 2);
        assert_eq!(resumed.status.discarded_records, 0);
        assert_eq!(replayed.into_inner().unwrap(), vec![(1, true), (2, true)]);
        clear_checkpoint(&path).unwrap();
    }

    fn warm_test_analysis() -> YieldAnalysis {
        let linear = |beta| {
            FailureProblem::from_model(
                LinearLimitState::along_first_axis(3, beta),
                LinearLimitState::spec(),
            )
        };
        YieldAnalysis::new()
            .master_seed(5)
            .convergence_policy(ConvergencePolicy::with_budget(4_000))
            .problem("p-low", linear(2.0))
            .problem("p-high", linear(3.0))
            .estimator(Box::new(crate::gis::GradientImportanceSampling::new(
                crate::gis::GisConfig::default(),
            )))
            .estimator(Box::new(MonteCarlo::new(MonteCarloConfig::default())))
    }

    fn warm_test_donors() -> BTreeMap<String, String> {
        [("p-high".to_string(), "p-low".to_string())]
            .into_iter()
            .collect()
    }

    /// A store that serves, computes, refuses or cancels cells by index.
    struct ScriptedStore {
        ready: MethodReport,
        cancel: bool,
        commits: Mutex<Vec<(String, String)>>,
    }

    impl CellStore for ScriptedStore {
        type Ticket = ();

        fn claim(&self, problem: usize, estimator: usize) -> CellClaim<()> {
            match (problem, estimator) {
                (0, 0) => CellClaim::Ready(Box::new(self.ready.clone())),
                (1, 0) => CellClaim::Refused(crate::fault::CellFailure {
                    reason: crate::fault::CellFailureReason::DeadlineExceeded {
                        detail: "scripted".to_string(),
                    },
                    attempts: 0,
                }),
                (1, 1) if self.cancel => CellClaim::Cancelled,
                _ => CellClaim::Compute(()),
            }
        }

        fn commit(&self, (): (), record: SweepCellRecord) {
            let cell = (record.problem, record.report.estimator);
            self.commits.lock().unwrap().push(cell);
        }
    }

    #[test]
    fn store_claims_serve_refuse_and_cancel_cells() {
        let reference = warm_test_analysis().run();
        for cancel in [true, false] {
            let store = ScriptedStore {
                ready: reference.problems[0].methods[0].clone(),
                cancel,
                commits: Mutex::new(Vec::new()),
            };
            let events = Mutex::new(Vec::new());
            let outcome = SweepRunner::new().run_with_store(
                &mut warm_test_analysis(),
                &store,
                &|update: SweepCellUpdate<'_>| {
                    let cell = (update.problem.to_string(), update.estimator.to_string());
                    events.lock().unwrap().push((cell, update.restored));
                },
            );
            let cell = |p: &str, e: &str| (p.to_string(), e.to_string());
            // Refused cells are neither committed nor observed; a ready
            // cell is observed as restored and never committed.
            let mut expected = vec![
                (cell("p-low", "gradient-is"), true),
                (cell("p-low", "monte-carlo"), false),
            ];
            let mut commits = vec![cell("p-low", "monte-carlo")];
            if !cancel {
                expected.push((cell("p-high", "monte-carlo"), false));
                commits.push(cell("p-high", "monte-carlo"));
            }
            assert_eq!(events.into_inner().unwrap(), expected);
            assert_eq!(store.commits.into_inner().unwrap(), commits);
            assert_eq!(outcome.status.restored_cells, 1);
            assert_eq!(
                outcome.status.failed_cells,
                vec![cell("p-high", "gradient-is")]
            );
            // A cancelled cell stays pending, so no report is assembled.
            match outcome.report {
                None => {
                    assert!(cancel && outcome.status.pending == vec![cell("p-high", "monte-carlo")])
                }
                Some(report) => {
                    assert!(!cancel);
                    assert!(report.problems[1].methods[0].is_failed());
                    assert_eq!(report.problems[0], reference.problems[0]);
                    assert_eq!(
                        report.problems[1].methods[1],
                        reference.problems[1].methods[1]
                    );
                }
            }
        }
    }

    #[test]
    fn warm_donors_follow_the_grid_axes() {
        let plan = SweepPlan::new()
            .corners([GlobalCorner::TypicalTypical, GlobalCorner::SlowSlow])
            .supply_voltages([0.9, 1.0])
            .temperatures([-40.0, 25.0]);
        let donors = plan.warm_donors();
        let scenarios = plan.scenarios();
        // Per (corner, metric) family exactly one origin has no donor.
        assert_eq!(donors.len(), scenarios.len() - 2);
        let name = |c: &str, v: &str, t: &str| format!("{c}_v{v}_t{t}c_avt2.5_read-access-time");
        // The supply axis decrements first...
        assert_eq!(
            donors[&name("tt", "1.00", "-40")],
            name("tt", "0.90", "-40")
        );
        assert_eq!(
            donors[&name("tt", "1.00", "+25")],
            name("tt", "0.90", "+25")
        );
        // ...then temperature, only at the supply origin...
        assert_eq!(
            donors[&name("tt", "0.90", "+25")],
            name("tt", "0.90", "-40")
        );
        // ...and the family origin runs blind.
        assert!(!donors.contains_key(&name("tt", "0.90", "-40")));
        // Corners are independent families: no cross-corner edges.
        assert_eq!(
            donors[&name("ss", "1.00", "-40")],
            name("ss", "0.90", "-40")
        );
        for (cell, donor) in &donors {
            assert_eq!(cell[..2], donor[..2], "donor crossed a corner family");
        }
    }

    #[test]
    fn warm_mode_records_provenance_and_blind_cells_stay_bit_identical() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("warm_prov.jsonl");
        clear_checkpoint(&path).unwrap();

        let blind = warm_test_analysis().run();
        let outcome = SweepRunner::new()
            .checkpoint(&path)
            .warm_start(warm_test_donors())
            .run(&mut warm_test_analysis());
        assert!(outcome.status.is_complete());
        let report = outcome.report.expect("complete");

        // The origin problem has no donor: its cells are bit-identical to
        // the blind reference. So is the Monte Carlo cell of the warm
        // problem — Monte Carlo ignores hints by contract.
        assert_eq!(report.problems[0], blind.problems[0]);
        assert_eq!(report.problems[1].methods[1], blind.problems[1].methods[1]);

        // Every checkpoint record carries its provenance: the donor name
        // and the exact hint the estimator consumed.
        let mut records = BTreeMap::new();
        for line in std::fs::read_to_string(&path).unwrap().lines() {
            let entry: SweepLogEntry = serde_json::from_str(line).unwrap();
            let record = entry.record.unwrap();
            records.insert(
                (record.problem.clone(), record.report.estimator.clone()),
                record,
            );
        }
        let origin = &records[&("p-low".to_string(), "gradient-is".to_string())];
        assert_eq!(origin.warm_from, None);
        assert_eq!(origin.warm_hint, None);
        let warm_gis = &records[&("p-high".to_string(), "gradient-is".to_string())];
        assert_eq!(warm_gis.warm_from, Some("p-low".to_string()));
        assert!(
            warm_gis.warm_hint.is_some(),
            "the converged donor MPFP must yield a hint"
        );
        assert_eq!(
            warm_gis.warm_hint,
            report.problems[0].methods[0].outcome.warm_hint()
        );
        let warm_mc = &records[&("p-high".to_string(), "monte-carlo".to_string())];
        assert_eq!(warm_mc.warm_from, Some("p-low".to_string()));
        assert_eq!(warm_mc.warm_hint, None, "a Monte Carlo donor has no hint");
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    fn warm_resume_replays_bit_identically() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("warm_resume.jsonl");
        clear_checkpoint(&path).unwrap();

        let reference = SweepRunner::new()
            .warm_start(warm_test_donors())
            .run(&mut warm_test_analysis())
            .report
            .expect("complete");

        // Budget 2 runs exactly the depth-0 wave (both origin cells), then
        // the resume restores them and runs the warm wave.
        let partial = SweepRunner::new()
            .checkpoint(&path)
            .warm_start(warm_test_donors())
            .cell_budget(2)
            .run(&mut warm_test_analysis());
        assert!(partial.report.is_none());
        assert_eq!(partial.status.completed_cells, 2);
        for (problem, _) in &partial.status.pending {
            assert_eq!(problem, "p-high", "the budget must fill donor cells first");
        }

        let resumed = SweepRunner::new()
            .checkpoint(&path)
            .warm_start(warm_test_donors())
            .run(&mut warm_test_analysis());
        assert!(resumed.status.is_complete());
        assert_eq!(resumed.status.restored_cells, 2);
        assert_eq!(resumed.status.discarded_records, 0);
        assert_eq!(resumed.report.expect("complete"), reference);
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    fn warm_and_blind_checkpoints_never_alias() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("warm_alias.jsonl");
        clear_checkpoint(&path).unwrap();

        // A completed blind checkpoint resumed warm: the non-origin cells
        // carry no provenance, so only the origin cells restore.
        let blind = SweepRunner::new()
            .checkpoint(&path)
            .run(&mut warm_test_analysis());
        assert!(blind.status.is_complete());
        let status = SweepRunner::new()
            .checkpoint(&path)
            .warm_start(warm_test_donors())
            .status(&mut warm_test_analysis());
        assert_eq!(status.restored_cells, 2);
        assert_eq!(status.discarded_records, 2);

        // And a completed warm checkpoint resumed blind discards the warm
        // cells symmetrically.
        clear_checkpoint(&path).unwrap();
        let warm = SweepRunner::new()
            .checkpoint(&path)
            .warm_start(warm_test_donors())
            .run(&mut warm_test_analysis());
        assert!(warm.status.is_complete());
        let status = SweepRunner::new()
            .checkpoint(&path)
            .status(&mut warm_test_analysis());
        assert_eq!(status.restored_cells, 2);
        assert_eq!(status.discarded_records, 2);
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    fn sealed_entries_verify_and_tampered_entries_do_not() {
        let record = SweepCellRecord {
            master_seed: 5,
            policy: Some(ConvergencePolicy::with_budget(2_000)),
            problem: "p-low".to_string(),
            report: tiny_analysis().run().problems[0].methods[0].clone(),
            warm_from: None,
            warm_hint: None,
            donor_failed: None,
        };
        let sealed = SweepLogEntry::cell(record).sealed();
        assert!(sealed.crc.is_some());
        assert!(sealed.crc_valid());
        // The seal survives a JSON round trip (the serializer's canonical
        // formatting is what makes re-serialization deterministic).
        let line = serde_json::to_string(&sealed).unwrap();
        let reread: SweepLogEntry = serde_json::from_str(&line).unwrap();
        assert!(reread.crc_valid());
        // Tampering with any sealed content breaks verification.
        let mut tampered = sealed.clone();
        tampered.kind = "job".to_string();
        assert!(!tampered.crc_valid());
        // Legacy lines without a checksum still verify (parse-only trust).
        let mut legacy = sealed;
        legacy.crc = None;
        assert!(legacy.crc_valid());
    }

    #[test]
    fn injected_panic_is_quarantined_and_healthy_cells_are_bit_identical() {
        let reference = tiny_analysis().run();
        let faults = FaultPlan::parse("panic:p-low/monte-carlo").unwrap();
        let outcome = SweepRunner::new()
            .matrix(ExecutionConfig::with_threads(2))
            .faults(faults)
            .run(&mut tiny_analysis());
        // The run completes: one poisoned cell no longer aborts the sweep.
        assert!(outcome.status.is_complete());
        assert_eq!(
            outcome.status.failed_cells,
            vec![("p-low".to_string(), "monte-carlo".to_string())]
        );
        let report = outcome.report.expect("complete");
        let failed = &report.problems[0].methods[0];
        assert!(failed.is_failed());
        assert!(failed.row.failure_probability.is_nan());
        let failure = failed.failed.as_ref().unwrap();
        assert_eq!(failure.attempts, crate::fault::DEFAULT_CELL_ATTEMPTS);
        assert!(matches!(
            failure.reason,
            crate::fault::CellFailureReason::Panic { .. }
        ));
        // The healthy cell is bit-identical to the fault-free run.
        assert_eq!(report.problems[1], reference.problems[1]);
    }

    #[test]
    fn fault_clearing_within_the_attempt_budget_is_bit_identical() {
        // The fault fires on attempt 1 only; the seed-deterministic retry
        // reruns the identical cell and the report shows no trace of it.
        let reference = tiny_analysis().run();
        let faults = FaultPlan::parse("panic:p-low/monte-carlo:1").unwrap();
        let outcome = SweepRunner::new().faults(faults).run(&mut tiny_analysis());
        assert!(outcome.status.failed_cells.is_empty());
        assert_eq!(outcome.report.expect("complete"), reference);
    }

    #[test]
    fn singular_and_nan_injections_are_typed_distinctly() {
        let faults = FaultPlan::parse("singular:p-low/monte-carlo,nan:p-high/monte-carlo").unwrap();
        let outcome = SweepRunner::new().faults(faults).run(&mut tiny_analysis());
        assert_eq!(outcome.status.failed_cells.len(), 2);
        let report = outcome.report.expect("complete");
        assert!(matches!(
            report.problems[0].methods[0]
                .failed
                .as_ref()
                .unwrap()
                .reason,
            crate::fault::CellFailureReason::NonConvergence { .. }
        ));
        assert!(matches!(
            report.problems[1].methods[0]
                .failed
                .as_ref()
                .unwrap()
                .reason,
            crate::fault::CellFailureReason::NanMetric { .. }
        ));
    }

    #[test]
    fn quarantined_cells_rerun_on_resume_and_converge_to_the_reference() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("quarantine.jsonl");
        clear_checkpoint(&path).unwrap();

        let reference = tiny_analysis().run();
        let faults = FaultPlan::parse("panic:p-low/monte-carlo").unwrap();
        let faulted = SweepRunner::new()
            .matrix(ExecutionConfig::with_threads(1))
            .checkpoint(&path)
            .faults(faults)
            .run(&mut tiny_analysis());
        assert!(faulted.status.is_complete());
        assert_eq!(faulted.status.failed_cells.len(), 1);

        // Quarantine is not sticky: the journaled failure is discarded on
        // restore and the cell re-runs — now fault-free — to the exact
        // fault-free report.
        let resumed = SweepRunner::new()
            .checkpoint(&path)
            .run(&mut tiny_analysis());
        assert!(resumed.status.is_complete());
        assert_eq!(resumed.status.restored_cells, 1);
        assert_eq!(resumed.status.discarded_records, 1);
        assert!(resumed.status.failed_cells.is_empty());
        assert_eq!(resumed.report.expect("complete"), reference);
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    fn injected_torn_journal_line_discards_only_that_cell_on_resume() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("torn.jsonl");
        clear_checkpoint(&path).unwrap();

        let reference = tiny_analysis().run();
        // Threads pinned to 1 so append order is registration order: line 2
        // (the torn one) is the p-high cell, and it is the checkpoint tail.
        let faults = FaultPlan::parse("torn-journal:2").unwrap();
        let torn = SweepRunner::new()
            .matrix(ExecutionConfig::with_threads(1))
            .checkpoint(&path)
            .faults(faults)
            .run(&mut tiny_analysis());
        // The in-memory run is unaffected — only durability was damaged.
        assert!(torn.status.is_complete());
        assert!(torn.status.failed_cells.is_empty());
        assert_eq!(torn.report.expect("complete"), reference);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(!contents.ends_with('\n'), "the tail must be torn");

        let resumed = SweepRunner::new()
            .checkpoint(&path)
            .run(&mut tiny_analysis());
        assert_eq!(resumed.status.restored_cells, 1);
        assert_eq!(resumed.status.discarded_records, 1);
        assert_eq!(resumed.report.expect("complete"), reference);
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    fn checksum_catches_corruption_that_still_parses() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bitrot.jsonl");
        clear_checkpoint(&path).unwrap();

        let reference = tiny_analysis().run();
        let done = SweepRunner::new()
            .matrix(ExecutionConfig::with_threads(1))
            .checkpoint(&path)
            .run(&mut tiny_analysis());
        assert!(done.status.is_complete());

        // Flip a digit of the first record's evaluation count. The line
        // still parses and still passes every configuration check — only
        // the checksum knows the result is not what was computed.
        let contents = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = contents.lines().map(|l| l.to_string()).collect();
        let needle = "\"evaluations\":";
        let pos = lines[0].find(needle).unwrap() + needle.len();
        let digit = lines[0][pos..pos + 1].parse::<u32>().unwrap();
        lines[0].replace_range(pos..pos + 1, &format!("{}", (digit + 1) % 10));
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let resumed = SweepRunner::new()
            .checkpoint(&path)
            .run(&mut tiny_analysis());
        assert_eq!(resumed.status.restored_cells, 1);
        assert_eq!(resumed.status.discarded_records, 1);
        // The corrupted cell re-ran and the report matches bit for bit.
        assert_eq!(resumed.report.expect("complete"), reference);
        clear_checkpoint(&path).unwrap();
    }

    #[test]
    fn quarantined_donor_degrades_dependent_to_blind_with_provenance() {
        let dir = std::env::temp_dir().join("gis_sweep_unit");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("donor_failed.jsonl");
        clear_checkpoint(&path).unwrap();

        let blind_reference = SweepRunner::new()
            .run(&mut warm_test_analysis())
            .report
            .expect("complete");
        let faults = FaultPlan::parse("panic:p-low/gradient-is").unwrap();
        let outcome = SweepRunner::new()
            .matrix(ExecutionConfig::with_threads(1))
            .checkpoint(&path)
            .warm_start(warm_test_donors())
            .faults(faults)
            .run(&mut warm_test_analysis());
        assert!(outcome.status.is_complete());
        assert_eq!(
            outcome.status.failed_cells,
            vec![("p-low".to_string(), "gradient-is".to_string())]
        );
        let report = outcome.report.expect("complete");
        // The dependent of the quarantined donor fell back to a blind run:
        // bit-identical to the blind reference despite continuation mode.
        assert_eq!(report.problems[1], blind_reference.problems[1]);

        // And the degradation is recorded as provenance in the checkpoint.
        let contents = std::fs::read_to_string(&path).unwrap();
        let dependent = contents
            .lines()
            .filter_map(|line| serde_json::from_str::<SweepLogEntry>(line).ok())
            .filter_map(|entry| entry.record)
            .find(|r| r.problem == "p-high" && r.report.estimator == "gradient-is")
            .expect("dependent cell is journaled");
        assert_eq!(dependent.warm_from.as_deref(), Some("p-low"));
        assert_eq!(dependent.warm_hint, None);
        assert_eq!(dependent.donor_failed, Some(true));
        clear_checkpoint(&path).unwrap();
    }
}
