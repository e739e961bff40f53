//! Yield-analysis as a service: a zero-dependency job server over the
//! sweep engine of `gis_core`.
//!
//! The paper's workload — rare-event SRAM yield extraction across
//! operating grids — is a many-client, long-running-job shape. This crate
//! turns the existing batch machinery ([`gis_core::SweepRunner`] matrix
//! scheduling, durable JSON-lines checkpointing, the deterministic
//! executor) into a long-running daemon:
//!
//! * **[`protocol`]** — the JSON-lines TCP wire format: versioned frames,
//!   bounded reads, typed errors for torn/oversized/garbage input.
//! * **[`job`]** — serializable job specifications ([`JobSpec`]: problem
//!   family × estimator configs × seed × policy) and the canonical
//!   content-addressed cell identity ([`job::cell_key`]).
//! * **[`cache`]** — the single-flight result cache: identical cells
//!   submitted by any number of clients execute exactly once.
//! * **[`server`]** — the daemon, a transport over [`gis_core::SweepRunner`]:
//!   thread-per-connection accept loop, a shared compute-slot budget across
//!   all clients, and a durable journal
//!   (the same [`gis_core::SweepLogEntry`] envelope format as the sweep
//!   checkpoint) replayed on boot, so a kill/restart never recomputes a
//!   finished cell.
//! * **[`client`]** — the typed client the thin CLI drivers
//!   (`bench_sweep --connect`, the table binaries) and the tests use,
//!   including the self-healing entry points ([`submit_with_recovery`],
//!   [`connect_with_retry`]): exponential backoff with deterministic
//!   jitter, idempotent resubmission over the content-addressed cache,
//!   and cell-progress dedup so an interrupted stream resumes without
//!   repeating rows.
//!
//! # Determinism contract
//!
//! A job's rows are bit-identical whether the plan runs batch
//! (`SweepRunner::run`), is served fresh, is served from cache, or is
//! resumed after a kill — the integration tests assert all four paths
//! against each other.

// The workspace has zero unsafe code; lock that in per crate.
#![forbid(unsafe_code)]
// Library code must justify every panic site (clippy::unwrap_used /
// expect_used are warn in [workspace.lints.clippy]); tests are free to
// unwrap.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod job;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, Claim, ResultCache};
pub use client::{
    connect_with_retry, submit_with_recovery, CellProgress, Client, ClientError, JobReceipt,
    RetryPolicy,
};
pub use job::{cell_key, plan_job, EstimatorSpec, JobError, JobPlan, JobSpec, ProblemSpec};
pub use protocol::{
    ProtocolError, Reply, ReplyFrame, Request, RequestFrame, ServerStatus, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
