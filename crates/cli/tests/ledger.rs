//! End-to-end run-ledger determinism: two `iotax-analyze` invocations
//! over the same generated trace, with the same (default) seed, must
//! produce ledgers whose deterministic metrics are identical — counters,
//! histogram digests, per-stage metrics, stage health, and span shape.
//! Only timing is allowed to move between the runs.
//!
//! The two runs are separate *processes* on purpose: counters and
//! histograms are process-global and cumulative, so in-process repeats
//! would double-count and the comparison would be vacuous.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use iotax_report::RunDiff;
use std::path::{Path, PathBuf};
use std::process::Command;

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
fn identical_seed_runs_have_identical_metrics() {
    let dir = workdir("ledger-determinism");
    let trace = dir.join("trace");
    let trace_s = trace.to_str().expect("utf-8 tmpdir");

    run_tool(env!("CARGO_BIN_EXE_iotax-gen"), &["--jobs", "300", "--seed", "7", "--out", trace_s]);

    let runs: Vec<PathBuf> = ["run-a", "run-b"]
        .iter()
        .map(|name| {
            let ledger = dir.join(name);
            run_tool(
                env!("CARGO_BIN_EXE_iotax-analyze"),
                &[trace_s, "--ledger", ledger.to_str().expect("utf-8 tmpdir")],
            );
            ledger
        })
        .collect();

    let a = iotax_obs::load_run(&runs[0]).expect("run A ledger");
    let b = iotax_obs::load_run(&runs[1]).expect("run B ledger");

    // Both manifests describe the same invocation shape.
    assert_eq!(a.manifest.tool, "iotax-analyze");
    assert_eq!(a.manifest.exit_status, 0);
    assert_eq!(a.manifest.config_digest, b.manifest.config_digest);
    assert_eq!(a.manifest.inputs, b.manifest.inputs, "same trace, same digests");
    assert_ne!(a.manifest.run_id, b.manifest.run_id, "run ids are per-invocation");

    // The acceptance bar: zero metric deltas between identical-seed runs.
    let d: RunDiff = iotax_report::diff_runs(&a, &b);
    assert!(
        d.metrics_identical(),
        "identical-seed runs drifted:\n{}",
        iotax_report::render_diff(&d)
    );
    assert!(d.counter_deltas.is_empty());
    assert!(d.metric_deltas.is_empty());
    assert!(d.new_spans.is_empty() && d.vanished_spans.is_empty());

    // And the ledgers actually carried the taxonomy payloads + metrics.
    assert!(a.sections.iter().any(|(name, _)| name == "stages"), "stages section present");
    assert!(!a.counters.is_empty(), "counters snapshotted");
    assert!(!a.spans.is_empty(), "span stream recorded");
}

#[test]
fn store_flag_appends_runs_to_a_clean_scannable_store() {
    let dir = workdir("ledger-store");
    let trace = dir.join("trace");
    let trace_s = trace.to_str().expect("utf-8 tmpdir");
    let store = dir.join("store");
    let store_s = store.to_str().expect("utf-8 tmpdir");

    // Two tool runs appending to the same store: a gen run (store-only,
    // no run directory at all) and a gen run with both sinks.
    run_tool(
        env!("CARGO_BIN_EXE_iotax-gen"),
        &["--jobs", "50", "--seed", "7", "--out", trace_s, "--store", store_s],
    );
    let ledger = dir.join("run-dir");
    let ledger_s = ledger.to_str().expect("utf-8 tmpdir");
    let trace2 = dir.join("trace2");
    run_tool(
        env!("CARGO_BIN_EXE_iotax-gen"),
        &[
            "--jobs",
            "50",
            "--seed",
            "8",
            "--out",
            trace2.to_str().expect("utf-8 tmpdir"),
            "--store",
            store_s,
            "--ledger",
            ledger_s,
        ],
    );

    // The store holds both runs, CRC-clean, in append order.
    let scan = iotax_obs::store::scan_store(&store).expect("scan store");
    assert!(scan.is_clean(), "store damaged: {:?}", scan.damage);
    assert_eq!(scan.records.len(), 2, "both runs appended");
    let runs: Vec<iotax_obs::RunFile> = scan
        .records
        .iter()
        .map(|r| {
            let text = std::str::from_utf8(&r.payload).expect("utf-8 payload");
            serde_json::from_str(text).expect("record decodes as a run")
        })
        .collect();
    assert!(runs.iter().all(|r| r.manifest.tool == "iotax-gen"));
    assert_eq!(runs[0].manifest.seeds, vec![("seed".to_owned(), 7)]);
    assert_eq!(runs[1].manifest.seeds, vec![("seed".to_owned(), 8)]);

    // Dual-sink run: the store record is byte-identical to run.json.
    let dir_copy = std::fs::read(ledger.join("run.json")).expect("run.json");
    assert_eq!(scan.records[1].payload, dir_copy, "store and directory copies must match");
}
