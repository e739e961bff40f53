//! The workspace anchor must not depend on the cwd: a harness run from
//! outside the repository still writes its `BENCH_*.json` artifact at the
//! workspace root. This changes the process cwd, so it lives in its own
//! integration-test binary.

// Test code: panicking is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gis_bench::{results_dir, workspace_root, RESULTS_DIR};

#[test]
fn workspace_root_is_independent_of_the_cwd() {
    let elsewhere = std::env::temp_dir().join(format!("gis_bench_cwd_{}", std::process::id()));
    std::fs::create_dir_all(&elsewhere).unwrap();
    std::env::set_current_dir(&elsewhere).unwrap();

    let root = workspace_root();
    assert!(
        root.join("ROADMAP.md").exists(),
        "workspace root {} resolved away from the repository",
        root.display()
    );
    assert_eq!(results_dir(), root.join(RESULTS_DIR));
    assert!(!elsewhere.join(RESULTS_DIR).exists());

    std::env::set_current_dir(&root).unwrap();
    std::fs::remove_dir_all(&elsewhere).unwrap();
}
