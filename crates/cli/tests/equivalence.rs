//! Cross-process, cross-build equivalence against a committed ledger.
//!
//! The prepared-context training API (see DESIGN.md, "Shared binned
//! training context") promises that restructuring *how* models are
//! trained — binning once, training many, caching litmus baselines —
//! never changes *what* they predict on pinned seeds. The run ledger in
//! `fixtures/equivalence-baseline/` was recorded before that redesign;
//! this test regenerates the exact same dirty trace from scratch in a
//! child process, analyzes it, and requires every counter, histogram
//! digest, and model metric to match the fixture bit-for-bit.
//!
//! If a refactor legitimately changes the modeling contract, regenerate
//! the fixture (the pinned invocation is spelled out below) and call the
//! change out in review — this file is the tripwire, not the judge.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use iotax_report::RunDiff;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The pinned invocation the fixture was recorded with: a theta trace of
/// 600 jobs, seed 301, with a 20% deterministic fault plan (seed
/// 20220914) so parsing, recovery, and every litmus stage all execute.
const GEN_ARGS: [&str; 10] = [
    "--system",
    "theta",
    "--jobs",
    "600",
    "--seed",
    "301",
    "--fault-rate",
    "0.20",
    "--fault-seed",
    "20220914",
];

fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing stale workdir");
    }
    std::fs::create_dir_all(&dir).expect("creating workdir");
    dir
}

fn run_tool(exe: &str, args: &[&str]) {
    let output = Command::new(exe).args(args).output().expect("spawning tool");
    assert!(
        output.status.success(),
        "{exe} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn pinned_seed_run_matches_committed_baseline_bit_for_bit() {
    let dir = workdir("equivalence-baseline");
    let trace = dir.join("trace");
    let ledger = dir.join("run");
    let trace_s = trace.to_str().expect("utf-8 tmpdir");

    let mut gen_args: Vec<&str> = GEN_ARGS.to_vec();
    gen_args.extend(["--out", trace_s]);
    run_tool(env!("CARGO_BIN_EXE_iotax-gen"), &gen_args);
    run_tool(
        env!("CARGO_BIN_EXE_iotax-analyze"),
        &[trace_s, "--ledger", ledger.to_str().expect("utf-8 tmpdir")],
    );

    let baseline =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/equivalence-baseline");
    let want = iotax_obs::load_run(&baseline).expect("committed baseline ledger");
    let got = iotax_obs::load_run(&ledger).expect("fresh run ledger");

    let d: RunDiff = iotax_report::diff_runs(&want, &got);
    assert!(
        d.metrics_identical(),
        "pinned-seed run drifted from the committed baseline:\n{}",
        iotax_report::render_diff(&d)
    );
    assert!(d.counter_deltas.is_empty(), "training work changed shape");
    assert!(d.metric_deltas.is_empty(), "model metrics moved");
    assert!(d.new_spans.is_empty() && d.vanished_spans.is_empty(), "stage structure changed");
}
