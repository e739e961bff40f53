//! The paper manifest is valid data, and its cheap experiments are pinned:
//! every job plans at both sizes, and the fast surrogate experiments spend
//! exactly the simulations recorded here. A change to the manifest, to an
//! estimator or to the surrogate that moves a count fails this test.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::paper::{manifest, rows, run_local};
use gis_core::ExecutionConfig;
use gis_serve::{plan_job, ProblemSpec};
use std::collections::BTreeSet;

#[test]
fn every_manifest_job_plans_and_experiment_names_are_unique() {
    for fast in [false, true] {
        let mut names = BTreeSet::new();
        for experiment in manifest(fast) {
            assert!(
                names.insert(experiment.name),
                "duplicate experiment {:?}",
                experiment.name
            );
            assert!(
                !experiment.jobs.is_empty(),
                "{} has no jobs",
                experiment.name
            );
            for job in &experiment.jobs {
                if let Err(e) = plan_job(&job.spec, ExecutionConfig::serial()) {
                    panic!("{} (fast = {fast}): {e}", experiment.name);
                }
            }
        }
    }
}

#[test]
fn fast_surrogate_experiments_spend_pinned_simulations() {
    let counts: Vec<(&str, Vec<u64>)> = manifest(true)
        .iter()
        .filter(|experiment| {
            experiment
                .jobs
                .iter()
                .all(|job| matches!(job.spec.problem, ProblemSpec::SurrogateSram { .. }))
        })
        .map(|experiment| {
            let simulations = experiment
                .jobs
                .iter()
                .flat_map(|job| rows(experiment.name, job, &run_local(&job.spec).unwrap()))
                .map(|row| row.simulations)
                .collect();
            (experiment.name, simulations)
        })
        .collect();
    assert_eq!(
        counts,
        vec![
            (
                "sigma-sweep",
                vec![1_558, 14_012, 71_558, 2_072, 16_012, 100_072]
            ),
            (
                "dimensionality",
                vec![3_072, 11_012, 312, 3_132, 14_012, 300]
            ),
            ("convergence", vec![5_065, 9_012, 384, 5_000, 20_000]),
            (
                "ablation",
                vec![1_565, 1_565, 2_065, 2_065, 1_565, 2_065, 2_065, 40_065]
            ),
        ]
    );
}
