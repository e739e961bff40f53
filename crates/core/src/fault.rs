//! Fault containment and deterministic fault injection.
//!
//! Long sweeps must degrade gracefully: a single panicking estimator, a
//! singular MNA matrix or a NaN-poisoned metric must not abort hours of
//! completed work. This module provides the two halves of that contract.
//!
//! # Containment
//!
//! [`run_contained`] wraps one (problem, estimator) cell execution in
//! [`std::panic::catch_unwind`] and a bounded retry loop, and classifies any
//! failure into a typed [`CellOutcome::Failed`] carrying a
//! [`CellFailureReason`] and the attempt count. The one cell scheduler,
//! [`crate::sweep::SweepRunner`], records the failure in its store (the
//! checkpoint, or the `gis-serve` journal) and keeps going; healthy cells are returned
//! **unmodified**, so the determinism contract of [`crate::exec`] extends to
//! partial failure: every non-failed cell is bit-identical to a fault-free
//! run. Retries are seed-deterministic for free — a cell is a pure function
//! of its derived seed, so re-running it cannot diverge; the retry loop only
//! matters for *injected* faults bounded to the first k attempts (and for
//! genuinely transient environmental failures in deployments).
//!
//! # Injection
//!
//! [`FaultPlan`] describes a deterministic fault schedule, parsed from the
//! `GIS_FAULTS` environment variable (see [`FAULTS_ENV_VAR`]) or built
//! directly via [`FaultPlan::parse`] in tests. Injection is **off by
//! default**: when the variable is unset, [`global`] caches `None` once and
//! the hot path reduces to a single `Option` check. Faults are keyed by the
//! cell's problem/estimator names — the same identifiers the derived cell
//! seeds hash — so every injected failure is reproducible.
//!
//! Directives (comma-separated):
//!
//! | directive | effect |
//! |---|---|
//! | `panic:<problem>/<estimator>[:<k>]` | the cell's worker panics (first `k` attempts; default: all) |
//! | `singular:<problem>/<estimator>[:<k>]` | typed singular-matrix non-convergence |
//! | `nan:<problem>/<estimator>[:<k>]` | the cell's estimate is NaN-poisoned |
//! | `torn-journal:<n>` | the `n`-th checkpoint/journal append is torn mid-line |
//! | `drop-frame:<n>[:<times>]` | the server tears the `n`-th reply frame of a connection and drops the socket (at most `times` times; default 1) |
//!
//! # Checkpoint integrity
//!
//! [`crc32`] is the hand-rolled (std-only) CRC-32/ISO-HDLC used to checksum
//! checkpoint and journal lines, so a torn write is detected by checksum even
//! when the truncated prefix happens to parse as JSON.

use crate::analysis::{ComparisonRow, MethodReport};
use crate::estimator::{Diagnostics, EstimatorOutcome};
use crate::result::ExtractionResult;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Environment variable holding the fault-injection schedule (see the
/// [module documentation](self) for the directive grammar). Unset (the
/// default) means no injection anywhere.
pub const FAULTS_ENV_VAR: &str = "GIS_FAULTS";

/// Default bounded retry budget: one retry after the first failure. Retries
/// are cheap to reason about (cells are pure functions of their seed) but a
/// deterministic failure will fail every attempt, so a small bound quarantines
/// it quickly.
pub const DEFAULT_CELL_ATTEMPTS: u32 = 2;

/// Why a cell failed — the failure taxonomy of the containment plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellFailureReason {
    /// The cell's worker panicked; the payload message is preserved.
    Panic {
        /// The panic payload, downcast to a string when possible.
        message: String,
    },
    /// The estimator reported a structural non-convergence (e.g. a singular
    /// system matrix) rather than completing with a result.
    NonConvergence {
        /// Human-readable description of the non-convergence.
        detail: String,
    },
    /// The cell completed but its failure-probability estimate is NaN — a
    /// poisoned metric that must not silently enter a report.
    NanMetric {
        /// Which quantity was poisoned.
        detail: String,
    },
    /// The job's server-side deadline expired before the cell ran.
    DeadlineExceeded {
        /// The deadline that expired.
        detail: String,
    },
}

impl std::fmt::Display for CellFailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailureReason::Panic { message } => write!(f, "panic: {message}"),
            CellFailureReason::NonConvergence { detail } => write!(f, "non-convergence: {detail}"),
            CellFailureReason::NanMetric { detail } => write!(f, "NaN metric: {detail}"),
            CellFailureReason::DeadlineExceeded { detail } => {
                write!(f, "deadline exceeded: {detail}")
            }
        }
    }
}

/// A quarantined cell failure: the typed reason plus how many bounded
/// attempts were spent before giving up. Attached to the placeholder
/// [`MethodReport`] recorded for the cell (see [`MethodReport::failed`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Why the final attempt failed.
    pub reason: CellFailureReason,
    /// Number of attempts made (the retry budget that was exhausted).
    pub attempts: u32,
}

/// Outcome of one contained cell execution.
// `Completed` dwarfs `Failed`, but the outcome lives only between
// `run_contained` and the immediate `into_report` call — boxing the report
// would only add a hop on the per-cell hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CellOutcome {
    /// The cell completed; the report is bit-identical to an uncontained run.
    Completed(MethodReport),
    /// Every attempt failed; the cell is quarantined with a typed reason.
    Failed {
        /// Why the final attempt failed.
        reason: CellFailureReason,
        /// Number of attempts made before quarantine.
        attempts: u32,
    },
}

impl CellOutcome {
    /// Whether this outcome is a quarantined failure.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }

    /// Converts the outcome into the uniform per-cell record: the healthy
    /// report unchanged, or the typed placeholder from [`failed_report`].
    pub fn into_report(self, estimator: &str, seed: u64) -> MethodReport {
        match self {
            CellOutcome::Completed(report) => report,
            CellOutcome::Failed { reason, attempts } => {
                failed_report(estimator, seed, CellFailure { reason, attempts })
            }
        }
    }
}

/// Builds the placeholder [`MethodReport`] recorded for a quarantined cell:
/// NaN estimate, zero evaluations, not converged, and the typed
/// [`CellFailure`] attached. The diagnostics are [`Diagnostics::MonteCarlo`]
/// (the empty payload), whose [`EstimatorOutcome::warm_hint`] is `None` — so
/// warm-start dependents of a quarantined donor automatically fall back to
/// blind execution.
pub fn failed_report(estimator: &str, seed: u64, failure: CellFailure) -> MethodReport {
    let result = ExtractionResult {
        method: estimator.to_string(),
        failure_probability: f64::NAN,
        standard_error: f64::NAN,
        sigma_level: f64::NAN,
        evaluations: 0,
        sampling_evaluations: 0,
        failures_observed: 0,
        converged: false,
        trace: Vec::new(),
    };
    let outcome = EstimatorOutcome {
        result,
        diagnostics: Diagnostics::MonteCarlo,
    };
    MethodReport {
        estimator: estimator.to_string(),
        seed,
        row: ComparisonRow::from_outcome(&outcome),
        outcome,
        failed: Some(failure),
    }
}

/// Runs one cell under containment: up to `max_attempts` executions of `run`
/// behind [`catch_unwind`], with deterministic fault injection from `faults`
/// applied per attempt. A healthy completion is returned **unmodified** (the
/// report is bit-identical to an uncontained run); exhausting the attempts
/// yields a typed [`CellOutcome::Failed`].
///
/// `run` must be a pure function of the cell's inputs (the invariant every
/// cell already satisfies — see [`crate::analysis::YieldAnalysis::run_cell`]),
/// which is what justifies the `AssertUnwindSafe` below: a panicking attempt
/// leaves no state a retry could observe.
pub fn run_contained<F>(
    problem: &str,
    estimator: &str,
    max_attempts: u32,
    faults: Option<&FaultPlan>,
    run: F,
) -> CellOutcome
where
    F: Fn() -> MethodReport,
{
    let max_attempts = max_attempts.max(1);
    let mut last_reason = None;
    for attempt in 1..=max_attempts {
        let injected = faults
            .and_then(|plan| plan.cell_fault(problem, estimator))
            .filter(|fault| attempt <= fault.attempts)
            .map(|fault| fault.kind);
        if injected == Some(FaultKind::Singular) {
            last_reason = Some(CellFailureReason::NonConvergence {
                detail: format!(
                    "injected singular-matrix non-convergence for cell ({problem}, {estimator})"
                ),
            });
            continue;
        }
        let attempt_result = catch_unwind(AssertUnwindSafe(|| {
            if injected == Some(FaultKind::Panic) {
                // gis-analyze: allow(panic-site, deterministic injected fault, caught by the surrounding catch_unwind)
                panic!("injected worker panic for cell ({problem}, {estimator})");
            }
            run()
        }));
        match attempt_result {
            Err(payload) => {
                last_reason = Some(CellFailureReason::Panic {
                    message: panic_message(payload.as_ref()),
                });
            }
            Ok(mut report) => {
                if injected == Some(FaultKind::Nan) {
                    report.row.failure_probability = f64::NAN;
                    report.outcome.result.failure_probability = f64::NAN;
                }
                if report.outcome.result.failure_probability.is_nan() {
                    last_reason = Some(CellFailureReason::NanMetric {
                        detail: format!(
                            "failure_probability is NaN for cell ({problem}, {estimator})"
                        ),
                    });
                } else {
                    return CellOutcome::Completed(report);
                }
            }
        }
    }
    CellOutcome::Failed {
        // A reason was recorded on every attempt path before reaching here.
        reason: last_reason.unwrap_or(CellFailureReason::NonConvergence {
            detail: "no attempt was made".to_string(),
        }),
        attempts: max_attempts,
    }
}

/// Renders a caught panic payload as a string (the common `&str`/`String`
/// payloads verbatim, anything else as a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Which cell-level fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the cell's worker.
    Panic,
    /// Typed singular-matrix/non-convergence error (the cell never runs).
    Singular,
    /// NaN-poison the cell's failure-probability estimate.
    Nan,
}

/// One cell-level fault directive: which (problem, estimator) cell, which
/// fault, and for how many attempts it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFault {
    /// Problem (scenario) name the fault is keyed on.
    pub problem: String,
    /// Estimator name the fault is keyed on.
    pub estimator: String,
    /// What to inject.
    pub kind: FaultKind,
    /// The fault fires on attempts `1..=attempts` (so `1` with a retry budget
    /// of 2 exercises the retry-then-success path); `u32::MAX` means every
    /// attempt.
    pub attempts: u32,
}

/// Nth-frame socket-drop directive for the serve wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropFrame {
    /// 1-based reply-frame index (per connection, after the `Hello` banner)
    /// at which the server tears the frame and drops the socket.
    pub nth: u64,
    /// Total number of drops across the server's lifetime; once spent, the
    /// fault disarms (so a reconnecting client can finish the job).
    pub times: u64,
}

/// A deterministic fault-injection schedule. Off by default; see the
/// [module documentation](self) for the directive grammar and [`global`] for
/// the process-wide env-driven instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Cell-level faults (panic / singular / NaN), keyed by cell names.
    pub cell_faults: Vec<CellFault>,
    /// Tear the `n`-th (1-based) checkpoint/journal line append mid-line.
    pub torn_journal_line: Option<u64>,
    /// Drop the socket at the `n`-th reply frame of a connection.
    pub drop_frame: Option<DropFrame>,
}

impl FaultPlan {
    /// Parses a comma-separated directive list (the `GIS_FAULTS` grammar).
    /// Whitespace around directives is ignored; an empty string parses to the
    /// empty (no-fault) plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for directive in spec.split(',') {
            let directive = directive.trim();
            if directive.is_empty() {
                continue;
            }
            let mut parts = directive.splitn(2, ':');
            let head = parts.next().unwrap_or("");
            let rest = parts
                .next()
                .ok_or_else(|| format!("fault directive `{directive}` is missing an argument"))?;
            match head {
                "panic" | "singular" | "nan" => {
                    let kind = match head {
                        "panic" => FaultKind::Panic,
                        "singular" => FaultKind::Singular,
                        _ => FaultKind::Nan,
                    };
                    plan.cell_faults
                        .push(parse_cell_fault(directive, kind, rest)?);
                }
                "torn-journal" => {
                    let n: u64 = rest.parse().map_err(|_| {
                        format!("fault directive `{directive}`: line number must be an integer")
                    })?;
                    plan.torn_journal_line = Some(n);
                }
                "drop-frame" => {
                    let mut args = rest.splitn(2, ':');
                    let nth: u64 = args.next().unwrap_or("").parse().map_err(|_| {
                        format!("fault directive `{directive}`: frame number must be an integer")
                    })?;
                    let times: u64 = match args.next() {
                        Some(times) => times.parse().map_err(|_| {
                            format!("fault directive `{directive}`: drop count must be an integer")
                        })?,
                        None => 1,
                    };
                    plan.drop_frame = Some(DropFrame { nth, times });
                }
                _ => return Err(format!("unknown fault directive `{directive}`")),
            }
        }
        Ok(plan)
    }

    /// Parses the `GIS_FAULTS` environment variable; `None` when unset or
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics on a malformed schedule — an invalid injection spec is operator
    /// error and failing fast beats silently running fault-free.
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var(FAULTS_ENV_VAR).ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            // gis-analyze: allow(panic-site, malformed GIS_FAULTS is operator error; failing fast beats silently running fault-free)
            Err(e) => panic!("invalid {FAULTS_ENV_VAR}: {e}"),
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.cell_faults.is_empty() && self.torn_journal_line.is_none() && self.drop_frame.is_none()
    }

    /// The cell-level fault keyed on `(problem, estimator)`, if any.
    pub fn cell_fault(&self, problem: &str, estimator: &str) -> Option<&CellFault> {
        self.cell_faults
            .iter()
            .find(|f| f.problem == problem && f.estimator == estimator)
    }

    /// Whether the `line`-th (1-based) journal append should be torn.
    pub fn tears_journal_line(&self, line: u64) -> bool {
        self.torn_journal_line == Some(line)
    }
}

fn parse_cell_fault(directive: &str, kind: FaultKind, rest: &str) -> Result<CellFault, String> {
    let mut args = rest.splitn(2, ':');
    let cell = args.next().unwrap_or("");
    let attempts = match args.next() {
        Some(k) => k.parse().map_err(|_| {
            format!("fault directive `{directive}`: attempt count must be an integer")
        })?,
        None => u32::MAX,
    };
    let (problem, estimator) = cell.split_once('/').ok_or_else(|| {
        format!("fault directive `{directive}`: cell must be `<problem>/<estimator>`")
    })?;
    if problem.is_empty() || estimator.is_empty() {
        return Err(format!(
            "fault directive `{directive}`: cell must name both a problem and an estimator"
        ));
    }
    Ok(CellFault {
        problem: problem.to_string(),
        estimator: estimator.to_string(),
        kind,
        attempts,
    })
}

/// The process-wide fault plan from `GIS_FAULTS`, parsed once and cached.
/// `None` (the overwhelmingly common case) costs one atomic load per call, so
/// disabled injection compiles down to a no-op on the hot path.
pub fn global() -> Option<&'static FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(FaultPlan::from_env).as_ref()
}

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial, reflected 0xEDB88320) over
/// `bytes` — hand-rolled and std-only, used to checksum checkpoint/journal
/// lines so torn writes are detected by checksum rather than only by JSON
/// parse failure.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn parses_full_directive_list() {
        let plan = FaultPlan::parse(
            "panic:p/gradient-is, singular:q/monte-carlo:1, nan:r/sss, torn-journal:5, drop-frame:3:2",
        )
        .unwrap();
        assert_eq!(plan.cell_faults.len(), 3);
        let panic_fault = plan.cell_fault("p", "gradient-is").unwrap();
        assert_eq!(panic_fault.kind, FaultKind::Panic);
        assert_eq!(panic_fault.attempts, u32::MAX);
        let singular = plan.cell_fault("q", "monte-carlo").unwrap();
        assert_eq!(singular.kind, FaultKind::Singular);
        assert_eq!(singular.attempts, 1);
        assert_eq!(plan.cell_fault("r", "sss").unwrap().kind, FaultKind::Nan);
        assert!(plan.tears_journal_line(5));
        assert!(!plan.tears_journal_line(4));
        assert_eq!(plan.drop_frame, Some(DropFrame { nth: 3, times: 2 }));
        assert!(plan.cell_fault("p", "monte-carlo").is_none());
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn malformed_directives_are_rejected() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic:no-slash").is_err());
        assert!(FaultPlan::parse("panic:/e").is_err());
        assert!(FaultPlan::parse("panic:p/").is_err());
        assert!(FaultPlan::parse("torn-journal:x").is_err());
        assert!(FaultPlan::parse("drop-frame:1:y").is_err());
        assert!(FaultPlan::parse("meteor-strike:now").is_err());
    }

    fn healthy_report() -> MethodReport {
        let result = ExtractionResult {
            method: "unit".to_string(),
            failure_probability: 1e-6,
            standard_error: 1e-7,
            sigma_level: 4.75,
            evaluations: 100,
            sampling_evaluations: 100,
            failures_observed: 10,
            converged: true,
            trace: Vec::new(),
        };
        let outcome = EstimatorOutcome {
            result,
            diagnostics: Diagnostics::MonteCarlo,
        };
        MethodReport {
            estimator: "unit".to_string(),
            seed: 7,
            row: ComparisonRow::from_outcome(&outcome),
            outcome,
            failed: None,
        }
    }

    #[test]
    fn healthy_cell_passes_through_unmodified() {
        let reference = healthy_report();
        let outcome = run_contained("p", "unit", 2, None, healthy_report);
        match outcome {
            CellOutcome::Completed(report) => assert_eq!(report, reference),
            CellOutcome::Failed { .. } => panic!("healthy cell must not fail"),
        }
    }

    #[test]
    fn injected_panic_is_contained_and_typed() {
        let plan = FaultPlan::parse("panic:p/unit").unwrap();
        let outcome = run_contained("p", "unit", 2, Some(&plan), healthy_report);
        match outcome {
            CellOutcome::Failed { reason, attempts } => {
                assert_eq!(attempts, 2);
                match reason {
                    CellFailureReason::Panic { message } => {
                        assert!(message.contains("injected worker panic"))
                    }
                    other => panic!("expected a panic reason, got {other:?}"),
                }
            }
            CellOutcome::Completed(_) => panic!("injected panic must quarantine the cell"),
        }
    }

    #[test]
    fn real_panic_is_contained_with_its_message() {
        let outcome = run_contained("p", "unit", 1, None, || -> MethodReport {
            panic!("the estimator exploded");
        });
        match outcome {
            CellOutcome::Failed { reason, attempts } => {
                assert_eq!(attempts, 1);
                assert_eq!(
                    reason,
                    CellFailureReason::Panic {
                        message: "the estimator exploded".to_string()
                    }
                );
            }
            CellOutcome::Completed(_) => panic!("panicking cell must quarantine"),
        }
    }

    #[test]
    fn bounded_injection_exercises_retry_then_success() {
        // The fault fires on attempt 1 only; the retry completes with a
        // report bit-identical to the fault-free reference.
        let plan = FaultPlan::parse("panic:p/unit:1").unwrap();
        let outcome = run_contained("p", "unit", 2, Some(&plan), healthy_report);
        match outcome {
            CellOutcome::Completed(report) => assert_eq!(report, healthy_report()),
            CellOutcome::Failed { .. } => panic!("retry after a bounded fault must succeed"),
        }
    }

    #[test]
    fn singular_injection_is_typed_non_convergence() {
        let plan = FaultPlan::parse("singular:p/unit").unwrap();
        let outcome = run_contained("p", "unit", 3, Some(&plan), healthy_report);
        match outcome {
            CellOutcome::Failed { reason, attempts } => {
                assert_eq!(attempts, 3);
                assert!(matches!(reason, CellFailureReason::NonConvergence { .. }));
            }
            CellOutcome::Completed(_) => panic!("singular injection must quarantine"),
        }
    }

    #[test]
    fn nan_injection_and_detection_are_typed() {
        let plan = FaultPlan::parse("nan:p/unit").unwrap();
        let outcome = run_contained("p", "unit", 2, Some(&plan), healthy_report);
        assert!(outcome.is_failed());
        match outcome {
            CellOutcome::Failed { reason, .. } => {
                assert!(matches!(reason, CellFailureReason::NanMetric { .. }))
            }
            CellOutcome::Completed(_) => unreachable!(),
        }
        // A genuinely NaN-poisoned (non-injected) estimate is caught too.
        let poisoned = || {
            let mut report = healthy_report();
            report.outcome.result.failure_probability = f64::NAN;
            report
        };
        assert!(run_contained("p", "unit", 1, None, poisoned).is_failed());
    }

    #[test]
    fn failed_report_placeholder_is_inert() {
        let failure = CellFailure {
            reason: CellFailureReason::Panic {
                message: "boom".to_string(),
            },
            attempts: 2,
        };
        let report = failed_report("gradient-is", 99, failure.clone());
        assert_eq!(report.estimator, "gradient-is");
        assert_eq!(report.seed, 99);
        assert_eq!(report.failed, Some(failure));
        assert!(report.row.failure_probability.is_nan());
        assert!(!report.row.converged);
        assert_eq!(report.row.evaluations, 0);
        // The placeholder donates no warm-start hint: dependents of a
        // quarantined donor fall back to blind execution automatically.
        assert!(report.outcome.warm_hint().is_none());
        // The placeholder round-trips through the checkpoint format.
        let json = serde_json::to_string(&report).unwrap();
        let back: MethodReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn failure_reasons_render() {
        let reasons = [
            CellFailureReason::Panic {
                message: "m".into(),
            },
            CellFailureReason::NonConvergence { detail: "d".into() },
            CellFailureReason::NanMetric { detail: "d".into() },
            CellFailureReason::DeadlineExceeded { detail: "d".into() },
        ];
        let rendered: Vec<String> = reasons.iter().map(|r| r.to_string()).collect();
        assert!(rendered[0].contains("panic"));
        assert!(rendered[1].contains("non-convergence"));
        assert!(rendered[2].contains("NaN"));
        assert!(rendered[3].contains("deadline"));
    }
}
