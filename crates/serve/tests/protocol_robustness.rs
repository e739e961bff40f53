//! Robustness tests of the wire protocol: torn lines, truncated frames,
//! oversized requests, garbage bytes and interleaved clients must all map
//! to typed errors — the framing layer never panics and the daemon never
//! hangs or dies on hostile input.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_core::{
    ConvergencePolicy, ExecutionConfig, GisConfig, ImportanceSamplingConfig, MnisConfig,
    MonteCarloConfig, MpfpConfig, SphericalSamplingConfig, SramMetric, SssConfig,
};
use gis_serve::job::MAX_WORKING_SET_BYTES;
use gis_serve::protocol::{
    encode_request, parse_reply, parse_request, read_frame, write_request, ProtocolError, Reply,
    Request, PROTOCOL_VERSION,
};
use gis_serve::{plan_job, EstimatorSpec, JobError, JobSpec, ProblemSpec, Server, ServerConfig};
use gis_sram::TestbenchTiming;
use proptest::prelude::*;
use std::io::{BufReader, Cursor, Write};
use std::net::TcpStream;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Pure framing layer
// ---------------------------------------------------------------------------

#[test]
fn clean_end_of_stream_is_none() {
    let mut reader = Cursor::new(Vec::<u8>::new());
    assert_eq!(read_frame(&mut reader, 1024).unwrap(), None);
}

#[test]
fn terminated_line_roundtrips_and_strips_crlf() {
    let mut reader = Cursor::new(b"{\"v\":1}\n".to_vec());
    assert_eq!(read_frame(&mut reader, 1024).unwrap().unwrap(), "{\"v\":1}");

    let mut reader = Cursor::new(b"{\"v\":1}\r\nnext\n".to_vec());
    assert_eq!(read_frame(&mut reader, 1024).unwrap().unwrap(), "{\"v\":1}");
    assert_eq!(read_frame(&mut reader, 1024).unwrap().unwrap(), "next");
    assert_eq!(read_frame(&mut reader, 1024).unwrap(), None);
}

#[test]
fn stream_ending_mid_line_is_a_torn_frame() {
    let mut reader = Cursor::new(b"{\"v\":1,\"request\"".to_vec());
    assert_eq!(read_frame(&mut reader, 1024), Err(ProtocolError::TornFrame));
}

#[test]
fn line_over_the_limit_is_oversized_not_unbounded() {
    // A line longer than the cap errors without buffering the rest.
    let mut line = vec![b'a'; 2048];
    line.push(b'\n');
    let mut reader = Cursor::new(line);
    assert_eq!(
        read_frame(&mut reader, 1024),
        Err(ProtocolError::Oversized { limit: 1024 })
    );
}

#[test]
fn line_exactly_at_the_limit_fits() {
    // `max_bytes` bounds the buffered line including its terminator.
    let mut line = vec![b'x'; 1023];
    line.push(b'\n');
    let mut reader = Cursor::new(line);
    assert_eq!(read_frame(&mut reader, 1024).unwrap().unwrap().len(), 1023);
}

#[test]
fn invalid_utf8_is_malformed_not_a_panic() {
    let mut reader = Cursor::new(b"\xff\xfe\xfd\n".to_vec());
    match read_frame(&mut reader, 1024) {
        Err(ProtocolError::MalformedJson { .. }) => {}
        other => panic!("expected MalformedJson, got {other:?}"),
    }
}

#[test]
fn garbage_json_is_malformed() {
    for garbage in ["", "not json", "{", "[1,2", "{\"v\":\"one\"}", "null"] {
        match parse_request(garbage) {
            Err(ProtocolError::MalformedJson { .. }) => {}
            other => panic!("{garbage:?}: expected MalformedJson, got {other:?}"),
        }
    }
}

#[test]
fn wrong_protocol_version_is_rejected_with_the_offending_version() {
    let line = format!("{{\"v\":{},\"request\":\"Status\"}}", PROTOCOL_VERSION + 41);
    assert_eq!(
        parse_request(&line),
        Err(ProtocolError::UnsupportedVersion {
            got: PROTOCOL_VERSION + 41
        })
    );
}

#[test]
fn request_frames_roundtrip() {
    for request in [Request::Status, Request::Shutdown] {
        let line = encode_request(&request);
        assert!(line.ends_with('\n'));
        assert_eq!(parse_request(line.trim_end()).unwrap(), request);
    }
}

#[test]
fn error_codes_and_fatality_are_stable() {
    let torn = ProtocolError::TornFrame;
    let oversized = ProtocolError::Oversized { limit: 7 };
    let io = ProtocolError::Io {
        detail: "x".to_string(),
    };
    let malformed = ProtocolError::MalformedJson {
        detail: "x".to_string(),
    };
    let version = ProtocolError::UnsupportedVersion { got: 2 };
    // Framing errors leave the stream position undefined: fatal. Content
    // errors are line-delimited: the connection survives.
    assert!(torn.is_fatal() && oversized.is_fatal() && io.is_fatal());
    assert!(!malformed.is_fatal() && !version.is_fatal());
    assert_eq!(torn.code(), "torn-frame");
    assert_eq!(oversized.code(), "oversized-request");
    assert_eq!(io.code(), "io");
    assert_eq!(malformed.code(), "malformed-json");
    assert_eq!(version.code(), "unsupported-version");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes through the framing layer: never a panic, and a
    /// successfully framed line never contains a terminator.
    #[test]
    fn read_frame_never_panics_on_arbitrary_bytes(
        raw in prop::collection::vec(0u32..256, 0..300),
        max in 1usize..128,
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let mut reader = Cursor::new(bytes);
        loop {
            match read_frame(&mut reader, max) {
                Ok(None) => break,
                Ok(Some(line)) => {
                    prop_assert!(!line.contains('\n'));
                    prop_assert!(line.len() <= max);
                }
                // Any typed error is acceptable; fatal ones end the stream.
                Err(e) => {
                    prop_assert!(!e.code().is_empty());
                    if e.is_fatal() {
                        break;
                    }
                }
            }
        }
    }

    /// Arbitrary near-JSON text through the parsers: typed errors only.
    #[test]
    fn parsers_never_panic_on_mangled_frames(
        raw in prop::collection::vec(0u32..128, 0..120),
        cut in 0usize..200,
    ) {
        // Mangle a valid frame: truncate it and splice in random ASCII.
        let valid = encode_request(&Request::Status);
        let keep = cut.min(valid.len());
        let mut mangled = valid[..keep].to_string();
        mangled.extend(raw.iter().map(|&b| (b as u8) as char));
        let _ = parse_request(&mangled);
        let _ = parse_reply(&mangled);
    }
}

// ---------------------------------------------------------------------------
// Live server under hostile clients
// ---------------------------------------------------------------------------

fn start_server(config: ServerConfig) -> String {
    let server = Server::bind(config).expect("server binds");
    let addr = server.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || server.run());
    addr
}

/// Connects raw, consumes the `Hello` line, returns (reader, writer).
fn raw_connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let hello = read_frame(&mut reader, 1 << 20)
        .expect("hello")
        .expect("hello line");
    match parse_reply(&hello).expect("hello parses") {
        Reply::Hello { protocol, .. } => assert_eq!(protocol, PROTOCOL_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    (reader, writer)
}

fn read_one_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let line = read_frame(reader, 1 << 20)
        .expect("reply")
        .expect("reply line");
    parse_reply(&line).expect("reply parses")
}

#[test]
fn garbage_line_gets_typed_error_and_connection_survives() {
    let addr = start_server(ServerConfig::default());
    let (mut reader, mut writer) = raw_connect(&addr);

    writer.write_all(b"complete garbage\n").expect("write");
    writer.flush().expect("flush");
    match read_one_reply(&mut reader) {
        Reply::Error { code, .. } => assert_eq!(code, "malformed-json"),
        other => panic!("expected Error, got {other:?}"),
    }

    // The connection is still usable after a content error.
    write_request(&mut writer, &Request::Status).expect("status request");
    match read_one_reply(&mut reader) {
        Reply::Status { .. } => {}
        other => panic!("expected Status, got {other:?}"),
    }

    write_request(&mut writer, &Request::Shutdown).expect("shutdown request");
}

#[test]
fn wrong_version_frame_gets_typed_error_and_connection_survives() {
    let addr = start_server(ServerConfig::default());
    let (mut reader, mut writer) = raw_connect(&addr);

    writer
        .write_all(b"{\"v\":99,\"request\":\"Status\"}\n")
        .expect("write");
    writer.flush().expect("flush");
    match read_one_reply(&mut reader) {
        Reply::Error { code, .. } => assert_eq!(code, "unsupported-version"),
        other => panic!("expected Error, got {other:?}"),
    }

    write_request(&mut writer, &Request::Status).expect("status request");
    match read_one_reply(&mut reader) {
        Reply::Status { .. } => {}
        other => panic!("expected Status, got {other:?}"),
    }

    write_request(&mut writer, &Request::Shutdown).expect("shutdown request");
}

#[test]
fn oversized_request_gets_typed_error_and_connection_closes() {
    let addr = start_server(ServerConfig {
        max_request_bytes: 1024,
        ..ServerConfig::default()
    });
    let (mut reader, mut writer) = raw_connect(&addr);

    let mut line = vec![b'a'; 4096];
    line.push(b'\n');
    writer.write_all(&line).expect("write");
    writer.flush().expect("flush");
    match read_one_reply(&mut reader) {
        Reply::Error { code, .. } => assert_eq!(code, "oversized-request"),
        other => panic!("expected Error, got {other:?}"),
    }
    // Framing errors are fatal: the server closes the connection.
    assert_eq!(read_frame(&mut reader, 1 << 20).expect("eof"), None);

    let (_reader, mut writer) = raw_connect(&addr);
    write_request(&mut writer, &Request::Shutdown).expect("shutdown request");
}

#[test]
fn truncated_frame_gets_torn_frame_error_and_connection_closes() {
    let addr = start_server(ServerConfig::default());
    let (mut reader, writer) = raw_connect(&addr);

    // Half a request, then the write side dies — a peer killed mid-write.
    (&writer).write_all(b"{\"v\":1,\"request\"").expect("write");
    (&writer).flush().expect("flush");
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    match read_one_reply(&mut reader) {
        Reply::Error { code, .. } => assert_eq!(code, "torn-frame"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(read_frame(&mut reader, 1 << 20).expect("eof"), None);

    let (_reader, mut writer) = raw_connect(&addr);
    write_request(&mut writer, &Request::Shutdown).expect("shutdown request");
}

/// A fast-suite job running one GIS estimator with `config`.
fn gis_job(config: GisConfig) -> JobSpec {
    JobSpec {
        problem: ProblemSpec::Suite {
            suite: "fast".to_string(),
        },
        estimators: vec![EstimatorSpec::GradientIs { config }],
        master_seed: 1,
        policy: None,
        warm_start: None,
        deadline_ms: None,
    }
}

/// A fast-suite job running `estimator` alone.
fn job_with(estimator: EstimatorSpec) -> JobSpec {
    JobSpec {
        estimators: vec![estimator],
        ..gis_job(GisConfig::default())
    }
}

/// GIS, Monte Carlo and MNIS asking for batches of 2⁵⁰ points and of
/// `u64::MAX` points: each would preallocate more than any machine holds.
fn oversized_estimators() -> Vec<EstimatorSpec> {
    [1u64 << 50, u64::MAX]
        .into_iter()
        .flat_map(|points| {
            let sampling = ImportanceSamplingConfig {
                max_samples: points,
                batch_size: points,
                ..ImportanceSamplingConfig::default()
            };
            [
                EstimatorSpec::GradientIs {
                    config: GisConfig {
                        sampling,
                        ..GisConfig::default()
                    },
                },
                EstimatorSpec::MonteCarlo {
                    config: MonteCarloConfig {
                        max_samples: points,
                        batch_size: points,
                        ..MonteCarloConfig::default()
                    },
                },
                EstimatorSpec::MinimumNormIs {
                    config: MnisConfig {
                        presamples_per_round: usize::try_from(points).unwrap_or(usize::MAX),
                        ..MnisConfig::default()
                    },
                },
            ]
        })
        .collect()
}

#[test]
fn working_sets_are_bounded_before_anything_is_built() {
    for estimator in oversized_estimators() {
        assert!(estimator.working_set(6) > MAX_WORKING_SET_BYTES);
        match plan_job(&job_with(estimator.clone()), ExecutionConfig::serial()) {
            Err(JobError::BadSpec { detail }) => {
                assert!(detail.contains(estimator.method_name()), "{detail}")
            }
            Err(other) => panic!(
                "{}: expected BadSpec, got {other:?}",
                estimator.method_name()
            ),
            Ok(_) => panic!(
                "{}: an oversized estimator planned",
                estimator.method_name()
            ),
        }
    }
    // Spherical sampling probes blocks of directions and scaled-sigma
    // sampling streams its clouds, so neither preallocates more for a
    // larger budget: both plan at any budget.
    for budget in [1u64 << 50, u64::MAX] {
        let bounded = [
            EstimatorSpec::SphericalSampling {
                config: SphericalSamplingConfig {
                    directions: usize::try_from(budget).unwrap_or(usize::MAX),
                    ..SphericalSamplingConfig::default()
                },
            },
            EstimatorSpec::ScaledSigmaSampling {
                config: SssConfig {
                    samples_per_scale: budget,
                    ..SssConfig::default()
                },
            },
        ];
        for estimator in bounded {
            let default = EstimatorSpec::standard()
                .into_iter()
                .find(|s| s.method_name() == estimator.method_name())
                .unwrap();
            assert_eq!(estimator.working_set(576), default.working_set(576));
            assert!(plan_job(&job_with(estimator), ExecutionConfig::serial()).is_ok());
        }
    }
    // The standard line-up fits at the largest problem a job may ask for.
    let widest = JobSpec {
        problem: ProblemSpec::SurrogateSram {
            metric: SramMetric::ReadAccessTime,
            spec_factor: 1.5,
            padded_dimensions: 4096,
        },
        estimators: EstimatorSpec::standard(),
        ..gis_job(GisConfig::default())
    };
    assert!(plan_job(&widest, ExecutionConfig::serial()).is_ok());
}

/// The integer edges every integer field is drawn from.
const INTEGER_EDGES: [u64; 5] = [0, 1, 1 << 32, 1 << 50, u64::MAX];

/// The float edges every float field is drawn from (next to its default).
const FLOAT_EDGES: [f64; 4] = [0.0, -1.0, f64::NAN, f64::INFINITY];

/// Turns a list of random choice indices into edge values, one index per
/// field in declaration order.
struct Edges<'a> {
    picks: std::slice::Iter<'a, usize>,
    /// Whether float fields are drawn too; otherwise they keep their
    /// defaults, so the integer edges alone decide the plan.
    floats: bool,
}

impl Edges<'_> {
    fn pick(&mut self) -> usize {
        *self.picks.next().expect("enough picks for every field")
    }

    fn u64(&mut self) -> u64 {
        INTEGER_EDGES[self.pick() % INTEGER_EDGES.len()]
    }

    fn usize(&mut self) -> usize {
        usize::try_from(self.u64()).unwrap_or(usize::MAX)
    }

    /// One of [`FLOAT_EDGES`] or `default`.
    fn f64(&mut self, default: f64) -> f64 {
        let pick = self.pick() % (FLOAT_EDGES.len() + 1);
        if self.floats {
            FLOAT_EDGES.get(pick).copied().unwrap_or(default)
        } else {
            default
        }
    }

    fn sampling(&mut self, default: &ImportanceSamplingConfig) -> ImportanceSamplingConfig {
        ImportanceSamplingConfig {
            max_samples: self.u64(),
            batch_size: self.u64(),
            target_relative_error: self.f64(default.target_relative_error),
            min_failures: self.u64(),
            corrected_stopping: default.corrected_stopping,
        }
    }

    /// Every estimator with every integer (and, if drawn, float) field at
    /// an edge.
    fn estimators(&mut self) -> [EstimatorSpec; 5] {
        let gis = GisConfig::default();
        let mc = MonteCarloConfig::default();
        let mnis = MnisConfig::default();
        let spherical = SphericalSamplingConfig::default();
        let sss = SssConfig::default();
        [
            EstimatorSpec::GradientIs {
                config: GisConfig {
                    mpfp: MpfpConfig {
                        finite_difference_step: self.f64(gis.mpfp.finite_difference_step),
                        max_iterations: self.usize(),
                        tolerance: self.f64(gis.mpfp.tolerance),
                        max_step: self.f64(gis.mpfp.max_step),
                        max_evaluations: self.u64(),
                    },
                    sampling: self.sampling(&gis.sampling),
                    defensive_fraction: self.f64(gis.defensive_fraction),
                    bridge_fraction: self.f64(gis.bridge_fraction),
                    bridge_position: self.f64(gis.bridge_position),
                    adaptive_recentering: gis.adaptive_recentering,
                    recenter_every_batches: self.usize(),
                    recenter_min_failures: self.u64(),
                },
            },
            EstimatorSpec::MonteCarlo {
                config: MonteCarloConfig {
                    max_samples: self.u64(),
                    batch_size: self.u64(),
                    target_relative_error: self.f64(mc.target_relative_error),
                    min_failures: self.u64(),
                },
            },
            EstimatorSpec::MinimumNormIs {
                config: MnisConfig {
                    presamples_per_round: self.usize(),
                    presample_scales: mnis.presample_scales.iter().map(|&s| self.f64(s)).collect(),
                    bisection_steps: self.usize(),
                    sampling: self.sampling(&mnis.sampling),
                    defensive_fraction: self.f64(mnis.defensive_fraction),
                },
            },
            EstimatorSpec::SphericalSampling {
                config: SphericalSamplingConfig {
                    directions: self.usize(),
                    max_radius: self.f64(spherical.max_radius),
                    bisection_steps: self.usize(),
                    target_relative_error: self.f64(spherical.target_relative_error),
                    min_failing_directions: self.usize(),
                },
            },
            EstimatorSpec::ScaledSigmaSampling {
                config: SssConfig {
                    scales: sss.scales.iter().map(|&s| self.f64(s)).collect(),
                    samples_per_scale: self.u64(),
                    min_failures_per_scale: self.u64(),
                },
            },
        ]
    }

    /// The fast suite, the surrogate at an edge of padded dimensions, or the
    /// transient testbench with its window at an edge.
    fn problem(&mut self) -> ProblemSpec {
        let metric = SramMetric::ReadAccessTime;
        match self.pick() % 3 {
            0 => ProblemSpec::Suite {
                suite: "fast".to_string(),
            },
            1 => ProblemSpec::SurrogateSram {
                metric,
                spec_factor: 1.5,
                padded_dimensions: self.usize(),
            },
            _ => {
                let default = TestbenchTiming::default();
                // A window bound is a float drawn from the float edges or,
                // as a duration, from the integer edges.
                let mut window = |default: f64| match self.pick() % 3 {
                    0 => self.f64(default),
                    1 => self.u64() as f64,
                    _ => default,
                };
                let stop_time = window(default.stop_time);
                let time_step = window(default.time_step);
                ProblemSpec::TransientSram {
                    metric,
                    spec_factor: 1.5,
                    timing: Some(TestbenchTiming {
                        stop_time,
                        time_step,
                        ..default
                    }),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No estimator or problem field at an edge can make `plan_job` panic,
    /// and a job it plans never preallocates more than the bound.
    #[test]
    fn edge_fields_plan_within_the_working_set_bound_or_are_refused(
        picks in prop::collection::vec(0usize..60, 96),
        floats in prop::bool::ANY,
    ) {
        let mut edges = Edges { picks: picks.iter(), floats };
        let problem = edges.problem();
        let dim = problem
            .build()
            .ok()
            .and_then(|built| built.iter().map(|p| p.problem.dim()).max());
        for estimator in edges.estimators() {
            let job = JobSpec {
                problem: problem.clone(),
                ..job_with(estimator.clone())
            };
            let planned = std::panic::catch_unwind(|| plan_job(&job, ExecutionConfig::serial()))
                .unwrap_or_else(|_| panic!("plan_job panicked on {job:?}"));
            if planned.is_ok() {
                let dim = dim.expect("a planned job's problem builds");
                prop_assert!(
                    estimator.working_set(dim) <= MAX_WORKING_SET_BYTES,
                    "{job:?} planned with a working set of {} bytes",
                    estimator.working_set(dim)
                );
            }
        }
    }
}

#[test]
fn invalid_job_gets_typed_error_and_connection_survives() {
    let addr = start_server(ServerConfig::default());
    let (mut reader, mut writer) = raw_connect(&addr);

    // Well-formed frames, invalid jobs. An unknown suite name:
    let unknown_suite = concat!(
        "{\"v\":1,\"request\":{\"Submit\":{\"job\":{",
        "\"problem\":{\"Suite\":{\"suite\":\"bogus\"}},",
        "\"estimators\":[],\"master_seed\":1,\"policy\":null}}}}\n"
    )
    .to_string();
    // Estimator configs the estimators' constructors would reject:
    let zero_batch = encode_request(&Request::Submit {
        job: gis_job(GisConfig {
            sampling: ImportanceSamplingConfig {
                batch_size: 0,
                ..ImportanceSamplingConfig::default()
            },
            ..GisConfig::default()
        }),
    });
    let zero_mpfp_step = encode_request(&Request::Submit {
        job: gis_job(GisConfig {
            mpfp: MpfpConfig {
                max_step: 0.0,
                ..MpfpConfig::default()
            },
            ..GisConfig::default()
        }),
    });
    // The first-passage stopping rule is gone; a client that still asks for
    // it is told so instead of silently getting the one remaining rule.
    let legacy_rule = encode_request(&Request::Submit {
        job: gis_job(GisConfig::default()),
    })
    .replace(
        "\"corrected_stopping\":true",
        "\"corrected_stopping\":false",
    );
    assert!(legacy_rule.contains("\"corrected_stopping\":false"));
    // A scaled-sigma fit that would admit scales with no failures (ln 0):
    let sss_without_failures = encode_request(&Request::Submit {
        job: JobSpec {
            estimators: vec![EstimatorSpec::ScaledSigmaSampling {
                config: SssConfig {
                    min_failures_per_scale: 0,
                    ..SssConfig::default()
                },
            }],
            ..gis_job(GisConfig::default())
        },
    });
    // A policy the analysis would reject:
    let zero_budget_policy = encode_request(&Request::Submit {
        job: JobSpec {
            policy: Some(ConvergencePolicy::with_budget(0)),
            ..gis_job(GisConfig::default())
        },
    });
    // Specs whose models would not fit in memory; a failed allocation
    // aborts the process, so they must be refused before anything is built.
    let huge_padding = encode_request(&Request::Submit {
        job: JobSpec {
            problem: ProblemSpec::SurrogateSram {
                metric: SramMetric::ReadAccessTime,
                spec_factor: 1.5,
                padded_dimensions: 1 << 40,
            },
            ..gis_job(GisConfig::default())
        },
    });
    let huge_window = encode_request(&Request::Submit {
        job: JobSpec {
            problem: ProblemSpec::TransientSram {
                metric: SramMetric::ReadAccessTime,
                spec_factor: 1.5,
                timing: Some(TestbenchTiming {
                    stop_time: 1.0,
                    time_step: 1e-15,
                    ..TestbenchTiming::default()
                }),
            },
            ..gis_job(GisConfig::default())
        },
    });

    let mut lines = vec![
        unknown_suite,
        zero_batch,
        zero_mpfp_step,
        legacy_rule,
        sss_without_failures,
        zero_budget_policy,
        huge_padding,
        huge_window,
    ];
    // Estimators whose first batch would not fit in memory.
    lines.extend(oversized_estimators().into_iter().map(|estimator| {
        encode_request(&Request::Submit {
            job: job_with(estimator),
        })
    }));

    for line in lines {
        writer.write_all(line.as_bytes()).expect("write");
        writer.flush().expect("flush");
        match read_one_reply(&mut reader) {
            Reply::Error { code, .. } => assert_eq!(code, "bad-job"),
            other => panic!("expected Error, got {other:?}"),
        }
        // The connection thread survived and still serves requests.
        write_request(&mut writer, &Request::Status).expect("status request");
        match read_one_reply(&mut reader) {
            Reply::Status { status } => assert_eq!(status.cells_executed, 0),
            other => panic!("expected Status, got {other:?}"),
        }
    }

    write_request(&mut writer, &Request::Shutdown).expect("shutdown request");
}

#[test]
fn monte_carlo_spec_with_the_removed_stopping_toggle_still_plans() {
    // Monte Carlo configs no longer carry the stopping-rule toggle; a request
    // from an older client that still sends it parses and plans.
    let job: JobSpec = serde_json::from_str(concat!(
        "{\"problem\":{\"Suite\":{\"suite\":\"fast\"}},",
        "\"estimators\":[{\"MonteCarlo\":{\"config\":{",
        "\"max_samples\":1000,\"batch_size\":100,\"target_relative_error\":0.1,",
        "\"min_failures\":10,\"corrected_stopping\":true}}}],",
        "\"master_seed\":1,\"policy\":null,\"warm_start\":null,\"deadline_ms\":null}"
    ))
    .expect("old Monte Carlo spec parses");
    let plan = plan_job(&job, ExecutionConfig::serial()).expect("old Monte Carlo spec plans");
    assert_eq!(plan.keys.len(), 7);
}

#[test]
fn interleaved_clients_are_framed_independently() {
    let addr = start_server(ServerConfig::default());
    let (mut reader_a, mut writer_a) = raw_connect(&addr);
    let (mut reader_b, mut writer_b) = raw_connect(&addr);

    // Client A writes half a request and stalls...
    let full = encode_request(&Request::Status);
    let (head, tail) = full.split_at(full.len() / 2);
    writer_a.write_all(head.as_bytes()).expect("half write");
    writer_a.flush().expect("flush");

    // ...client B completes a whole exchange in the meantime.
    write_request(&mut writer_b, &Request::Status).expect("b request");
    match read_one_reply(&mut reader_b) {
        Reply::Status { .. } => {}
        other => panic!("expected Status for b, got {other:?}"),
    }

    // A finishes its line; its connection was unaffected by B's traffic.
    writer_a.write_all(tail.as_bytes()).expect("tail write");
    writer_a.flush().expect("flush");
    match read_one_reply(&mut reader_a) {
        Reply::Status { .. } => {}
        other => panic!("expected Status for a, got {other:?}"),
    }

    write_request(&mut writer_a, &Request::Shutdown).expect("shutdown request");
}

#[test]
fn random_garbage_lines_never_kill_the_server() {
    let addr = start_server(ServerConfig::default());

    // A deterministic junk generator (no RNG dependency in this crate).
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for round in 0..32 {
        let (mut reader, mut writer) = raw_connect(&addr);
        let len = (next() % 200) as usize;
        let mut junk: Vec<u8> = (0..len)
            .map(|_| (next() % 256) as u8)
            // Keep the junk on one line so the exchange stays framed.
            .map(|b| if b == b'\n' { b'x' } else { b })
            .collect();
        junk.push(b'\n');
        writer.write_all(&junk).expect("junk write");
        writer.flush().expect("flush");

        // The server answers every line with exactly one typed reply (an
        // Error for junk) and never crashes or hangs.
        match read_one_reply(&mut reader) {
            Reply::Error { code, .. } => assert!(!code.is_empty(), "round {round}"),
            other => panic!("round {round}: expected Error, got {other:?}"),
        }

        // Probe liveness on a fresh request over the same connection.
        write_request(&mut writer, &Request::Status).expect("status request");
        match read_one_reply(&mut reader) {
            Reply::Status { .. } => {}
            other => panic!("round {round}: expected Status, got {other:?}"),
        }
    }

    let (_reader, mut writer) = raw_connect(&addr);
    write_request(&mut writer, &Request::Shutdown).expect("shutdown request");
}
