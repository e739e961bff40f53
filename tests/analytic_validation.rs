//! Integration tests validating every estimator against analytic limit states
//! with exactly (or near-exactly) known failure probabilities.
//!
//! These are the ground-truth experiments: if an estimator is biased or its
//! cost accounting is wrong, it shows up here before any SRAM is involved.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::{assert_close_abs, assert_close_rel};
use sram_highsigma::highsigma::{
    required_samples, BenchmarkProblem, Estimator, EstimatorOutcome, FailureProblem, GisConfig,
    GradientImportanceSampling, ImportanceSamplingConfig, LinearLimitState, MinimumNormIs,
    MnisConfig, MonteCarlo, MonteCarloConfig, QuadraticLimitState, ScaledSigmaSampling,
    SphericalSampling, SphericalSamplingConfig, SssConfig,
};
use sram_highsigma::linalg::Vector;
use sram_highsigma::stats::RngStream;

fn gis_quick() -> GradientImportanceSampling {
    GradientImportanceSampling::new(GisConfig {
        sampling: ImportanceSamplingConfig {
            max_samples: 40_000,
            batch_size: 1_000,
            target_relative_error: 0.05,
            min_failures: 50,
            ..ImportanceSamplingConfig::default()
        },
        ..GisConfig::default()
    })
}

#[test]
fn gis_matches_exact_probability_across_sigma_levels() {
    for (seed, beta) in [(1u64, 3.5_f64), (2, 4.5), (3, 5.5)] {
        let limit_state =
            LinearLimitState::new(Vector::from_slice(&[1.0, 0.7, -0.4, 0.2, 1.3, -0.9]), beta);
        let exact = limit_state.exact_failure_probability();
        let problem = FailureProblem::from_model(limit_state, LinearLimitState::spec());
        let outcome = gis_quick().estimate(&problem, &mut RngStream::from_seed(seed));
        let rel = (outcome.result.failure_probability - exact).abs() / exact;
        assert!(
            rel < 0.15,
            "beta {beta}: GIS off by {rel:.3} ({:e} vs {exact:e})",
            outcome.result.failure_probability
        );
        assert!(outcome.result.converged, "beta {beta}: did not converge");
        assert!((outcome.result.sigma_level - beta).abs() < 0.1);
    }
}

#[test]
fn gis_is_orders_of_magnitude_cheaper_than_monte_carlo() {
    let limit_state = LinearLimitState::along_first_axis(6, 5.0);
    let exact = limit_state.exact_failure_probability();
    let problem = FailureProblem::from_model(limit_state, LinearLimitState::spec());
    let outcome = gis_quick().estimate(&problem, &mut RngStream::from_seed(11));
    assert!(outcome.result.converged);
    let mc_cost = required_samples(exact, 0.05);
    let speedup = mc_cost / outcome.result.evaluations as f64;
    assert!(
        speedup > 100.0,
        "expected >100x speedup over brute force, got {speedup:.1}"
    );
}

#[test]
fn gis_and_mnis_agree_with_each_other() {
    let limit_state = LinearLimitState::new(Vector::from_slice(&[0.5, 1.0, 1.0, -0.5]), 4.0);
    let problem = FailureProblem::from_model(limit_state, LinearLimitState::spec());

    let gis_outcome = gis_quick().estimate(&problem.fork(), &mut RngStream::from_seed(5));
    let mnis = MinimumNormIs::new(MnisConfig {
        sampling: ImportanceSamplingConfig {
            max_samples: 40_000,
            batch_size: 1_000,
            target_relative_error: 0.05,
            min_failures: 50,
            ..ImportanceSamplingConfig::default()
        },
        ..MnisConfig::default()
    });
    let mnis_result = mnis
        .estimate(&problem.fork(), &mut RngStream::from_seed(6))
        .result;

    let gis_p = gis_outcome.result.failure_probability;
    let mnis_p = mnis_result.failure_probability;
    assert!(gis_p > 0.0 && mnis_p > 0.0);
    let ratio = gis_p / mnis_p;
    assert!(
        (0.7..1.4).contains(&ratio),
        "GIS ({gis_p:e}) and MNIS ({mnis_p:e}) disagree (ratio {ratio:.2})"
    );
    // The gradient search must be cheaper than blind presampling.
    let gis_search = gis_outcome.result.evaluations - gis_outcome.result.sampling_evaluations;
    let mnis_search = mnis_result.evaluations - mnis_result.sampling_evaluations;
    assert!(
        gis_search < mnis_search,
        "gradient search ({gis_search}) should be cheaper than presampling ({mnis_search})"
    );
}

#[test]
fn monte_carlo_agrees_at_low_sigma() {
    // At 2.5 sigma brute force is cheap, so all three of MC, GIS and the exact
    // value must line up.
    let limit_state = LinearLimitState::along_first_axis(3, 2.5);
    let exact = limit_state.exact_failure_probability();
    let problem = FailureProblem::from_model(limit_state, LinearLimitState::spec());

    let mc = MonteCarlo::new(MonteCarloConfig {
        max_samples: 400_000,
        batch_size: 20_000,
        target_relative_error: 0.05,
        min_failures: 50,
    });
    let mc_result = mc
        .estimate(&problem.fork(), &mut RngStream::from_seed(9))
        .result;
    let gis_outcome = gis_quick().estimate(&problem.fork(), &mut RngStream::from_seed(10));

    let mc_rel = (mc_result.failure_probability - exact).abs() / exact;
    let gis_rel = (gis_outcome.result.failure_probability - exact).abs() / exact;
    assert!(mc_rel < 0.15, "MC off by {mc_rel}");
    assert!(gis_rel < 0.15, "GIS off by {gis_rel}");
}

#[test]
fn quadratic_limit_state_cross_method_consistency() {
    let limit_state = QuadraticLimitState::new(5, 4.0, 0.07);
    let reference = limit_state.reference_failure_probability();
    let problem = FailureProblem::from_model(limit_state, QuadraticLimitState::spec());
    let outcome = gis_quick().estimate(&problem, &mut RngStream::from_seed(21));
    let rel = (outcome.result.failure_probability - reference).abs() / reference;
    assert!(
        rel < 0.25,
        "GIS on curved boundary off by {rel}: {:e} vs {reference:e}",
        outcome.result.failure_probability
    );
}

#[test]
fn spherical_and_sss_produce_right_order_of_magnitude() {
    let limit_state = LinearLimitState::along_first_axis(3, 3.5);
    let exact = limit_state.exact_failure_probability();
    let problem = FailureProblem::from_model(limit_state, LinearLimitState::spec());

    let spherical = SphericalSampling::new(SphericalSamplingConfig {
        directions: 1_500,
        target_relative_error: 0.05,
        ..SphericalSamplingConfig::default()
    });
    let spherical_result = spherical
        .estimate(&problem.fork(), &mut RngStream::from_seed(31))
        .result;
    assert!(spherical_result.failure_probability > 0.0);
    let ratio = spherical_result.failure_probability / exact;
    assert!(
        (0.3..3.0).contains(&ratio),
        "spherical sampling off by factor {ratio}"
    );

    let sss = ScaledSigmaSampling::new(SssConfig {
        samples_per_scale: 20_000,
        ..SssConfig::default()
    });
    let sss_result = sss
        .estimate(&problem.fork(), &mut RngStream::from_seed(32))
        .result;
    assert!(sss_result.converged);
    let ratio = sss_result.failure_probability / exact;
    assert!(
        (0.2..5.0).contains(&ratio),
        "scaled-sigma sampling off by factor {ratio}"
    );
}

#[test]
fn evaluation_counters_are_charged_to_the_right_method() {
    let limit_state = LinearLimitState::along_first_axis(4, 4.0);
    let problem = FailureProblem::from_model(limit_state, LinearLimitState::spec());

    let fork_a = problem.fork();
    let fork_b = problem.fork();
    let outcome = gis_quick().estimate(&fork_a, &mut RngStream::from_seed(41));
    assert_eq!(fork_a.evaluations(), outcome.result.evaluations);
    // The fork used by GIS does not pollute the other fork's accounting.
    assert_eq!(fork_b.evaluations(), 0);
    // The original problem handle is untouched too (forks have separate counters).
    assert_eq!(problem.evaluations(), 0);
}

#[test]
fn far_tail_probability_chain_is_accurate_to_machine_precision() {
    use sram_highsigma::highsigma::ArrayYield;
    use sram_highsigma::stats::normal;

    // The full far-tail conversion chain the extraction flow rests on:
    // exact linear-limit-state probabilities at 6–8σ (golden values from a
    // ~1 ulp libm erfc) and their inversion back to sigma levels. Before the
    // continued-fraction erfc these held only to ~1e-4 relative error.
    let golden = [
        (6.0, 9.865876450377012e-10),
        (6.5, 4.016000583859125e-11),
        (7.0, 1.279812543885835e-12),
        (7.5, 3.19089167291092e-14),
        (8.0, 6.220960574271819e-16),
    ];
    for (beta, expected) in golden {
        let limit_state = LinearLimitState::along_first_axis(4, beta);
        let p = limit_state.exact_failure_probability();
        assert_close_rel(p, expected, 1e-13, &format!("P_fail({beta}σ)"));
        // Round trip through the quantile with far-tail fidelity (sigma
        // units are the natural absolute scale here).
        assert_close_abs(
            normal::sigma_level(p),
            beta,
            1e-11,
            &format!("sigma_level(P({beta}σ))"),
        );
    }

    // Array-capacity arithmetic consumes those tails: a 1 Gb array without
    // redundancy needs p ≤ (1 - yield^(1/N)) ≈ -ln(yield)/N per cell; check
    // the bisection + Poisson CDF against the closed form.
    let cells: u64 = 1 << 30;
    let array = ArrayYield::without_redundancy(cells);
    let target = 0.99_f64;
    let p_req = array.required_cell_failure_probability(target);
    let closed_form = -target.ln() / cells as f64;
    assert_close_rel(
        p_req,
        closed_form,
        1e-6,
        "required cell failure probability",
    );
    // And the sigma target lands where the golden table says it should
    // (p ≈ 9.36e-12 → just under 6.8σ).
    let sigma = array.required_cell_sigma(target);
    assert!(
        (6.5..7.0).contains(&sigma),
        "1Gb @ 99% yield requires {sigma}σ"
    );
    assert_close_rel(
        normal::upper_tail_probability(sigma),
        p_req,
        1e-9,
        "sigma/probability inversion",
    );
}

/// Bit-exact fingerprint of one fixed-seed importance-sampling run.
#[derive(Debug, PartialEq)]
struct IsPin {
    /// `f64::to_bits` of the failure probability.
    probability: u64,
    /// `f64::to_bits` of the reported standard error.
    standard_error: u64,
    evaluations: u64,
    failures_observed: u64,
    converged: bool,
    /// `f64::to_bits` of each component of the final shift.
    shift: Vec<u64>,
    /// Length of the shift history (GIS only).
    shift_history_len: Option<usize>,
}

impl IsPin {
    fn of(outcome: &EstimatorOutcome) -> IsPin {
        let result = &outcome.result;
        IsPin {
            probability: result.failure_probability.to_bits(),
            standard_error: result.standard_error.to_bits(),
            evaluations: result.evaluations,
            failures_observed: result.failures_observed,
            converged: result.converged,
            shift: outcome
                .shift()
                .unwrap()
                .iter()
                .map(|s| s.to_bits())
                .collect(),
            shift_history_len: outcome.shift_history().map(<[Vector]>::len),
        }
    }
}

/// GIS with small batches (200) that re-centres every two of them, so even a
/// short run goes through several adaptation steps.
fn gis_adaptive(max_samples: u64, target_relative_error: f64) -> GradientImportanceSampling {
    GradientImportanceSampling::new(GisConfig {
        sampling: ImportanceSamplingConfig {
            max_samples,
            batch_size: 200,
            target_relative_error,
            min_failures: 50,
            ..ImportanceSamplingConfig::default()
        },
        recenter_every_batches: 2,
        recenter_min_failures: 10,
        ..GisConfig::default()
    })
}

#[test]
fn adaptive_gis_and_mnis_are_pinned_bit_for_bit() {
    // GIS that stops early, after several re-centring steps.
    let problem = FailureProblem::from_model(
        LinearLimitState::along_first_axis(6, 4.0),
        LinearLimitState::spec(),
    );
    let early = gis_adaptive(20_000, 0.05).estimate(&problem, &mut RngStream::from_seed(161));
    assert_eq!(
        IsPin::of(&early),
        IsPin {
            probability: 4539451763247656779,
            standard_error: 4519186957124621040,
            evaluations: 2836,
            failures_observed: 1439,
            converged: true,
            shift: vec![
                4616443120826537988,
                4572761232846587990,
                13811273614932573304,
                4587281353884419259,
                4577676553786556885,
                13790566221543422473
            ],
            shift_history_len: Some(7),
        }
    );

    // GIS on a curved boundary that uses up its budget; the last batch
    // (the sixth) is a re-centring batch too.
    let quadratic = QuadraticLimitState::new(6, 4.0, 0.08);
    let problem = FailureProblem::from_model(quadratic, QuadraticLimitState::spec());
    let spent = gis_adaptive(1_200, 0.01).estimate(&problem, &mut RngStream::from_seed(162));
    assert_eq!(
        IsPin::of(&spent),
        IsPin {
            probability: 4553045382501765478,
            standard_error: 4539621423282750665,
            evaluations: 1237,
            failures_observed: 585,
            converged: false,
            shift: vec![
                4615328834224036181,
                13808421016574541847,
                13820718100152780356,
                4570741153450509383,
                13812336531717021465,
                13817440910799168962
            ],
            shift_history_len: Some(4),
        }
    );

    // MNIS: the fixed-proposal case of the same sampling loop.
    let problem = FailureProblem::from_model(
        LinearLimitState::along_first_axis(3, 4.0),
        LinearLimitState::spec(),
    );
    let mnis = MinimumNormIs::new(MnisConfig {
        sampling: ImportanceSamplingConfig {
            max_samples: 20_000,
            batch_size: 200,
            target_relative_error: 0.1,
            min_failures: 50,
            ..ImportanceSamplingConfig::default()
        },
        ..MnisConfig::default()
    })
    .estimate(&problem, &mut RngStream::from_seed(163));
    assert_eq!(
        IsPin::of(&mnis),
        IsPin {
            probability: 4539661878411187612,
            standard_error: 4523909388542018112,
            evaluations: 4212,
            failures_observed: 992,
            converged: true,
            shift: vec![
                4616190247837057571,
                4604528436103910300,
                13831238282530165255
            ],
            shift_history_len: None,
        }
    );
}

/// Default-config GIS on the 96-d rung of the dimensionality ladder. The
/// other pins are at most 6-d; this one pins proposal sampling and density
/// evaluation at a dimension where most terms of a dense covariance are
/// zero. At this size the run stops before its first re-centring, so the
/// shift is the MPFP.
#[test]
fn default_gis_on_96d_ladder_rung_is_pinned_bit_for_bit() {
    let bench = BenchmarkProblem::linear(96, 4.0);
    let outcome = GradientImportanceSampling::new(GisConfig::default())
        .estimate(bench.problem(), &mut RngStream::from_seed(196));
    assert_eq!(
        IsPin::of(&outcome),
        IsPin {
            probability: 4540075651994662007,
            standard_error: 4521831190902650738,
            evaluations: 1986,
            failures_observed: 653,
            converged: true,
            shift: vec![
                4601562355341872778,
                4603218330087828824,
                4603520324703271390,
                4602884538317149139,
                4600541163229936761,
                4597651633227971733,
                4594710605712008801,
                4595467235562289774,
                4598870443741418331,
                4601626782798616460,
                4603236357285220185,
                4603515686897065950,
                4602859416740073298,
                4600473582674512759,
                4597545365696958611,
                4594683211041145441,
                4595531597893333616,
                4598933368102905692,
                4601690856045641101,
                4603253901026876505,
                4603510486661037790,
                4602833918278620498,
                4600405973950448758,
                4597440519525200529,
                4594658046938599520,
                4595597950930630257,
                4598996699756355933,
                4601754556967692942,
                4603270956352704985,
                4603504725465435229,
                4602808050141899217,
                4600338356172572277,
                4597337124355562127,
                4594635120518954080,
                4595666275914369138,
                4599060420796189535,
                4601817867554786703,
                4603287518440699866,
                4603498404939104349,
                4602781819643536977,
                4600270748458269556,
                4597235209420675726,
                4594614438264124000,
                4595736553527215219,
                4599124513206729056,
                4601880769907294864,
                4603303582608308186,
                4603491526869030109,
                4602755234199609936,
                4600203169922083955,
                4597134803534664844,
                4594596006021551199,
                4595808763899772020,
                4599188958867307617,
                4601943246241011345,
                4603319144313752026,
                4603484093199831389,
                4602728301326546896,
                4600135639670307953,
                4597035935085013642,
                4594579829002532959,
                4595882886616205942,
                4599253739557379938,
                4602005278892172946,
                4603334199157313626,
                4603476106033208029,
                4602701028639004495,
                4600068176795582832,
                4596938632024520840,
                4594565911780749919,
                4595958900720001143,
                4599318836961682019,
                4602066850322461587,
                4603348742882578907,
                4603467567627350109,
                4602668028522781598,
                4600000800371499631,
                4596842921863414919,
                4594554258290983518,
                4596036784719903864,
                4599384232675404900,
                4602127943123956628,
                4603362771377640027,
                4603458480396296669,
                4602612170341958557,
                4599933529447209070,
                4596748831661561477,
                4594544871827989598,
                4596116516595981946,
                4599449908209399141,
                4602188540024059029,
                4603376280676259547,
                4603448846909255389,
                4602555679355520156,
                4599866383042034029,
                4596656388020824195
            ],
            shift_history_len: Some(1),
        }
    );
}

/// Bit-exact fingerprint of one fixed-seed Monte Carlo or spherical run.
#[derive(Debug, PartialEq)]
struct SequentialPin {
    /// `f64::to_bits` of the failure probability.
    probability: u64,
    /// `f64::to_bits` of the reported standard error.
    standard_error: u64,
    evaluations: u64,
    failures_observed: u64,
    converged: bool,
    trace_len: usize,
}

impl SequentialPin {
    fn of(outcome: &EstimatorOutcome) -> SequentialPin {
        let result = &outcome.result;
        SequentialPin {
            probability: result.failure_probability.to_bits(),
            standard_error: result.standard_error.to_bits(),
            evaluations: result.evaluations,
            failures_observed: result.failures_observed,
            converged: result.converged,
            trace_len: result.trace.len(),
        }
    }
}

/// An early stop needs the measured error under the target at the last two
/// checks, and reports an error bar wider than the measured one.
fn assert_stopped_after_two_passes(outcome: &EstimatorOutcome, target: f64) {
    let trace = &outcome.result.trace;
    assert!(outcome.result.converged);
    assert!(trace.len() >= 2);
    for point in &trace[trace.len() - 2..] {
        assert!(point.relative_error <= target, "{point:?}");
    }
    let measured = trace[trace.len() - 1].relative_error * outcome.result.failure_probability;
    assert!(outcome.result.standard_error > measured);
}

#[test]
fn monte_carlo_and_spherical_are_pinned_bit_for_bit() {
    let problem = FailureProblem::from_model(
        LinearLimitState::along_first_axis(3, 2.5),
        LinearLimitState::spec(),
    );
    let monte_carlo = |max_samples: u64| {
        MonteCarlo::new(MonteCarloConfig {
            max_samples,
            batch_size: 2_000,
            target_relative_error: 0.1,
            min_failures: 20,
        })
    };

    // Monte Carlo that stops early.
    let early = monte_carlo(200_000).estimate(&problem.fork(), &mut RngStream::from_seed(171));
    assert_stopped_after_two_passes(&early, 0.1);
    assert_eq!(
        SequentialPin::of(&early),
        SequentialPin {
            probability: 4573829578796007400,
            standard_error: 4558326573682367446,
            evaluations: 22000,
            failures_observed: 137,
            converged: true,
            trace_len: 11,
        }
    );

    // Monte Carlo that uses up its budget.
    let spent = monte_carlo(9_000).estimate(&problem.fork(), &mut RngStream::from_seed(172));
    assert_eq!(
        SequentialPin::of(&spent),
        SequentialPin {
            probability: 4571113589784365702,
            standard_error: 4559190334441640140,
            evaluations: 9000,
            failures_observed: 35,
            converged: false,
            trace_len: 5,
        }
    );

    let problem = FailureProblem::from_model(
        LinearLimitState::along_first_axis(3, 3.5),
        LinearLimitState::spec(),
    );
    let spherical = |directions: usize| {
        SphericalSampling::new(SphericalSamplingConfig {
            directions,
            max_radius: 8.0,
            bisection_steps: 12,
            target_relative_error: 0.1,
            min_failing_directions: 10,
        })
    };

    // Spherical sampling that stops early.
    let early = spherical(2_000).estimate(&problem.fork(), &mut RngStream::from_seed(173));
    assert_stopped_after_two_passes(&early, 0.1);
    assert_eq!(
        SequentialPin::of(&early),
        SequentialPin {
            probability: 4553294755033925581,
            standard_error: 4537972300652741151,
            evaluations: 6600,
            failures_observed: 425,
            converged: true,
            trace_len: 75,
        }
    );

    // Spherical sampling that uses up its budget; the last block is partial.
    let spent = spherical(130).estimate(&problem.fork(), &mut RngStream::from_seed(174));
    assert_eq!(
        SequentialPin::of(&spent),
        SequentialPin {
            probability: 4554494024866302547,
            standard_error: 4546179701153499542,
            evaluations: 562,
            failures_observed: 36,
            converged: false,
            trace_len: 7,
        }
    );
}
