//! Client side of the daemon protocol: connect, submit, stream, collect.
//!
//! This is the library the thin CLI clients (`bench_sweep --connect`, the
//! table drivers) and the tests are built on. All wire failures map to a
//! typed [`ClientError`]; nothing here panics on network data.

use crate::job::JobSpec;
use crate::protocol::{
    parse_reply, read_frame, write_request, ProtocolError, Reply, Request, ServerStatus,
    DEFAULT_MAX_REPLY_BYTES, PROTOCOL_VERSION,
};
use gis_core::{AnalysisReport, MethodReport};
use gis_stats::rng::splitmix64;
use std::io::BufReader;
use std::net::TcpStream;

/// Typed client-side failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The transport failed (connect, read, write, or mid-stream EOF —
    /// the signature of a server killed while streaming).
    Io {
        /// IO detail.
        detail: String,
    },
    /// The server spoke something this client cannot parse, or replied
    /// out of protocol (e.g. a `Cell` before an `Accepted`).
    Protocol {
        /// Detail.
        detail: String,
    },
    /// The server rejected the request with a typed error reply.
    Server {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io { detail } => write!(f, "transport error: {detail}"),
            ClientError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Io { detail } => ClientError::Io { detail },
            other => ClientError::Protocol {
                detail: other.to_string(),
            },
        }
    }
}

fn io_err(e: std::io::Error) -> ClientError {
    ClientError::Io {
        detail: e.to_string(),
    }
}

/// One streamed cell of a running job, handed to the progress callback of
/// [`Client::submit`].
#[derive(Debug)]
pub struct CellProgress<'a> {
    /// Problem (scenario) name.
    pub problem: &'a str,
    /// Estimator name.
    pub estimator: &'a str,
    /// Cells completed so far, this one included.
    pub completed_cells: usize,
    /// Total cells of the job.
    pub total_cells: usize,
    /// `true` when the cell came from the server's cache.
    pub cached: bool,
    /// The cell's full method report.
    pub report: &'a MethodReport,
}

/// Everything a finished job returns.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReceipt {
    /// Content-addressed job id.
    pub job_id: String,
    /// Cells the server executed for this job.
    pub cells_executed: usize,
    /// Cells the server served from its cache.
    pub cells_cached: usize,
    /// The assembled report, bit-identical to the batch path.
    pub report: AnalysisReport,
    /// `true` when the job's deadline elapsed mid-run and cells past it
    /// are typed `deadline-exceeded` placeholders.
    pub partial: bool,
    /// Reconnections [`submit_with_recovery`] performed before the job
    /// finished (0 from plain [`Client::submit`]).
    pub reconnects: u32,
}

/// A connected daemon client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_reply_bytes: usize,
}

impl Client {
    /// Connects and validates the server's hello (name and protocol
    /// version).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        // Requests and replies are small frames; without TCP_NODELAY each
        // waits on the peer's delayed ACK.
        stream.set_nodelay(true).map_err(io_err)?;
        let writer = stream.try_clone().map_err(io_err)?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            max_reply_bytes: DEFAULT_MAX_REPLY_BYTES,
        };
        match client.read_reply()? {
            Reply::Hello { protocol, .. } if protocol == PROTOCOL_VERSION => Ok(client),
            Reply::Hello { protocol, .. } => Err(ClientError::Protocol {
                detail: format!(
                    "server speaks protocol {protocol}, this client speaks {PROTOCOL_VERSION}"
                ),
            }),
            other => Err(ClientError::Protocol {
                detail: format!("expected a hello, got {other:?}"),
            }),
        }
    }

    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        let line = read_frame(&mut self.reader, self.max_reply_bytes)?;
        let Some(line) = line else {
            return Err(ClientError::Io {
                detail: "connection closed by server".to_string(),
            });
        };
        Ok(parse_reply(&line)?)
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_request(&mut self.writer, request).map_err(io_err)
    }

    /// Submits a job and streams it to completion. `on_cell` fires once
    /// per cell, in registration order; the receipt carries the assembled
    /// report. A server kill mid-stream surfaces as [`ClientError::Io`].
    pub fn submit(
        &mut self,
        job: &JobSpec,
        on_cell: &mut dyn FnMut(&CellProgress<'_>),
    ) -> Result<JobReceipt, ClientError> {
        self.send(&Request::Submit { job: job.clone() })?;
        let job_id = match self.read_reply()? {
            Reply::Accepted { job_id, .. } => job_id,
            Reply::Error { code, message } => return Err(ClientError::Server { code, message }),
            other => {
                return Err(ClientError::Protocol {
                    detail: format!("expected accepted/error, got {other:?}"),
                })
            }
        };
        loop {
            match self.read_reply()? {
                Reply::Cell {
                    problem,
                    estimator,
                    completed_cells,
                    total_cells,
                    cached,
                    report,
                    ..
                } => {
                    on_cell(&CellProgress {
                        problem: &problem,
                        estimator: &estimator,
                        completed_cells,
                        total_cells,
                        cached,
                        report: &report,
                    });
                }
                Reply::Done {
                    job_id: done_id,
                    cells_executed,
                    cells_cached,
                    report,
                    partial,
                } => {
                    if done_id != job_id {
                        return Err(ClientError::Protocol {
                            detail: format!("done for job {done_id}, expected {job_id}"),
                        });
                    }
                    return Ok(JobReceipt {
                        job_id: done_id,
                        cells_executed,
                        cells_cached,
                        report,
                        partial: partial.unwrap_or(false),
                        reconnects: 0,
                    });
                }
                Reply::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                other => {
                    return Err(ClientError::Protocol {
                        detail: format!("unexpected reply mid-job: {other:?}"),
                    })
                }
            }
        }
    }

    /// Fetches the server's lifetime counters.
    pub fn status(&mut self) -> Result<ServerStatus, ClientError> {
        self.send(&Request::Status)?;
        match self.read_reply()? {
            Reply::Status { status } => Ok(status),
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol {
                detail: format!("expected status, got {other:?}"),
            }),
        }
    }

    /// Asks the server to shut down; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match self.read_reply()? {
            Reply::ShuttingDown => Ok(()),
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol {
                detail: format!("expected shutdown ack, got {other:?}"),
            }),
        }
    }
}

/// Reconnect/retry policy of the self-healing client entry points.
///
/// Delays grow exponentially from `base_delay_ms`, capped at
/// `max_delay_ms`, with deterministic jitter derived by hashing
/// `(jitter_seed, attempt)` — no clock or OS randomness, so tests and
/// replays see identical schedules. The jitter spreads a fleet of clients
/// that lost the same server across ±25 % of the nominal delay.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total connection/submission attempts (the first try included).
    pub max_attempts: u32,
    /// Delay before the second attempt, in milliseconds.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (1 = the delay after the
    /// first failure). Exponential with cap, plus deterministic ±25 %
    /// jitter.
    pub fn delay_for(&self, attempt: u32) -> std::time::Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let nominal = self
            .base_delay_ms
            .saturating_mul(1u64 << doublings)
            .min(self.max_delay_ms.max(1));
        // SplitMix64 output number `attempt` of the stream seeded with
        // `jitter_seed`: well-spread, no OS randomness.
        let z = splitmix64(
            self.jitter_seed.wrapping_add(
                u64::from(attempt)
                    .wrapping_sub(1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
        );
        // Map the hash to [-nominal/4, +nominal/4].
        let half_span = (nominal / 2).max(1);
        let jitter = (z % half_span) as i64 - (half_span / 2) as i64;
        let delayed = nominal.saturating_add_signed(jitter);
        std::time::Duration::from_millis(delayed.min(self.max_delay_ms.max(1)))
    }
}

/// Whether an error is worth a reconnect: transport failures and torn
/// mid-stream frames (a dying server) are transient; a typed server
/// rejection is a property of the request and retries would re-fail.
fn is_transient(error: &ClientError) -> bool {
    matches!(error, ClientError::Io { .. } | ClientError::Protocol { .. })
}

/// [`Client::connect`] with reconnection: retries transient failures under
/// `policy`, sleeping the policy's backoff between attempts.
pub fn connect_with_retry(addr: &str, policy: &RetryPolicy) -> Result<Client, ClientError> {
    let mut last = None;
    for attempt in 0..policy.max_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(policy.delay_for(attempt));
        }
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) if is_transient(&e) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or(ClientError::Io {
        detail: "no connection attempt was made".to_string(),
    }))
}

/// Submits `job` and survives the server dying mid-stream: on a transient
/// failure the job is resubmitted over a fresh connection under `policy`.
///
/// Resubmission is idempotent by construction — the job id is
/// content-addressed and every completed cell is in the server's
/// journal-backed cache, so a resubmitted job replays finished cells as
/// cache hits and only computes what the interruption left undone.
/// `on_cell` never sees a cell twice: progress replayed below the
/// high-water mark of an earlier attempt is swallowed. The receipt's
/// `reconnects` counts how many fresh connections the job needed beyond
/// the first.
pub fn submit_with_recovery(
    addr: &str,
    job: &JobSpec,
    policy: &RetryPolicy,
    on_cell: &mut dyn FnMut(&CellProgress<'_>),
) -> Result<JobReceipt, ClientError> {
    let mut reconnects = 0u32;
    let mut high_water = 0usize;
    let mut last = None;
    for attempt in 0..policy.max_attempts.max(1) {
        if attempt > 0 {
            reconnects += 1;
            std::thread::sleep(policy.delay_for(attempt));
        }
        let mut client = match Client::connect(addr) {
            Ok(client) => client,
            Err(e) if is_transient(&e) => {
                last = Some(e);
                continue;
            }
            Err(e) => return Err(e),
        };
        let mut dedup = |progress: &CellProgress<'_>| {
            if progress.completed_cells > high_water {
                high_water = progress.completed_cells;
                on_cell(progress);
            }
        };
        match client.submit(job, &mut dedup) {
            Ok(mut receipt) => {
                receipt.reconnects = reconnects;
                return Ok(receipt);
            }
            Err(e) if is_transient(&e) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or(ClientError::Io {
        detail: "no submission attempt was made".to_string(),
    }))
}
