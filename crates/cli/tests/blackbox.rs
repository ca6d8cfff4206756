//! End-to-end flight-recorder coverage: a crash-injected `iotax-analyze`
//! run (via the test-only `IOTAX_PANIC_AT_STAGE` hook) must die nonzero
//! *and* leave a readable black box behind — a CRC-clean segment store
//! under `<ledger>/blackbox/` whose every record decodes as a
//! [`iotax_obs::FlightEvent`]. A healthy `--ledger` run is exercised
//! too: its ledger must carry the heap-accounting gauges and a heartbeat
//! stream, and no black box. A run that fails with an error must write
//! its `run.json` before its black box, so that no watcher takes it for
//! a crash. A reused ledger directory must hold only the latest run's
//! record, heartbeat and black box.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use iotax_obs::FlightEvent;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing stale workdir");
    }
    std::fs::create_dir_all(&dir).expect("creating workdir");
    dir
}

fn gen_trace(dir: &Path) -> PathBuf {
    let trace = dir.join("trace");
    let out = Command::new(env!("CARGO_BIN_EXE_iotax-gen"))
        .args(["--jobs", "300", "--seed", "7", "--out", trace.to_str().expect("utf-8 tmpdir")])
        .output()
        .expect("spawning iotax-gen");
    assert!(out.status.success(), "gen failed:\n{}", String::from_utf8_lossy(&out.stderr));
    trace
}

/// Scans the black box and decodes every record, panicking on damage or
/// undecodable payloads. Returns the decoded events in store order.
fn read_blackbox(dir: &Path) -> Vec<FlightEvent> {
    let scan = iotax_obs::store::scan_store(dir).expect("scan blackbox store");
    assert!(scan.is_clean(), "black box damaged: {:?}", scan.damage);
    assert!(!scan.records.is_empty(), "black box empty");
    scan.records
        .iter()
        .map(|r| {
            FlightEvent::decode(&r.payload)
                .unwrap_or_else(|| panic!("undecodable record at offset {}", r.offset))
        })
        .collect()
}

#[test]
fn injected_panic_leaves_a_clean_replayable_black_box() {
    let dir = workdir("blackbox-crash");
    let trace = gen_trace(&dir);
    let ledger = dir.join("run");

    let out = Command::new(env!("CARGO_BIN_EXE_iotax-analyze"))
        .args([
            trace.to_str().expect("utf-8 tmpdir"),
            "--ledger",
            ledger.to_str().expect("utf-8 tmpdir"),
        ])
        .env("IOTAX_PANIC_AT_STAGE", "app_bound")
        .output()
        .expect("spawning iotax-analyze");
    assert!(!out.status.success(), "crash-injected run must not exit 0");

    // The panic hook flushed the ring before the process died.
    let blackbox = ledger.join(iotax_obs::BLACKBOX_DIR);
    assert!(blackbox.is_dir(), "no blackbox directory at {}", blackbox.display());
    assert!(iotax_obs::run_crashed(&ledger), "a panic leaves a black box and no run.json");
    let events = read_blackbox(&blackbox);

    // The flush header records the panic as its reason, and the ring
    // captured the breadcrumbs up to (and including) the fatal stage.
    let header = &events[0];
    assert_eq!(header.kind, "blackbox", "first record is the flush header: {header:?}");
    assert!(header.detail.contains("panic"), "flush reason records the panic: {header:?}");
    let crumbs: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == "event" && e.name == "analyze.stage")
        .map(|e| e.detail.as_str())
        .collect();
    assert!(
        crumbs.iter().any(|d| d.starts_with("app_bound")),
        "breadcrumb for the crashed stage present: {crumbs:?}"
    );
    assert!(
        events.iter().any(|e| e.kind == "span_close" && e.name == "analyze.duplicates"),
        "completed pipeline spans reached the ring"
    );
    // The root span was open when the process died: the black box shows
    // its open but — unlike a clean run — never a close.
    assert!(events.iter().any(|e| e.kind == "span_open" && e.name == "analyze"));
    assert!(!events.iter().any(|e| e.kind == "span_close" && e.name == "analyze"));

    // A crash-injected second run *appends* to the same black box; both
    // flushes stay readable (reopen path).
    let out2 = Command::new(env!("CARGO_BIN_EXE_iotax-analyze"))
        .args([
            trace.to_str().expect("utf-8 tmpdir"),
            "--ledger",
            dir.join("run2").to_str().expect("utf-8 tmpdir"),
        ])
        .env("IOTAX_PANIC_AT_STAGE", "ingest")
        .output()
        .expect("spawning iotax-analyze");
    assert!(!out2.status.success());
    let events2 = read_blackbox(&dir.join("run2").join(iotax_obs::BLACKBOX_DIR));
    assert_eq!(events2[0].kind, "blackbox");
}

#[test]
fn healthy_ledger_run_carries_heap_gauges_and_a_heartbeat() {
    let dir = workdir("blackbox-healthy");
    let trace = gen_trace(&dir);
    let ledger = dir.join("run");

    let out = Command::new(env!("CARGO_BIN_EXE_iotax-analyze"))
        .args([
            trace.to_str().expect("utf-8 tmpdir"),
            "--ledger",
            ledger.to_str().expect("utf-8 tmpdir"),
        ])
        .output()
        .expect("spawning iotax-analyze");
    assert!(out.status.success(), "run failed:\n{}", String::from_utf8_lossy(&out.stderr));

    let run = iotax_obs::load_run(&ledger).expect("run ledger");
    assert_eq!(run.manifest.exit_status, 0);

    // Heap accounting was latched on by the ledger run: the per-stage
    // peak gauges are in the ledger, and a heartbeat stream was written.
    let gauges = run.gauges.as_deref().expect("gauges snapshotted");
    assert!(
        gauges.iter().any(|g| g.name == "heap.peak_bytes.core.baseline" && g.value > 0),
        "per-stage peak-heap gauge missing: {gauges:?}"
    );
    assert!(
        gauges.iter().any(|g| g.name == "analyze.trace_jobs" && g.value == 300),
        "tool gauge missing: {gauges:?}"
    );
    assert!(ledger.join(iotax_obs::HEARTBEAT_FILE).exists(), "heartbeat stream written");

    // No black box: the run succeeded, so nothing flushed.
    assert!(!ledger.join(iotax_obs::BLACKBOX_DIR).exists(), "no blackbox on a clean run");
}

#[test]
fn a_fatal_exit_is_never_read_as_a_crash() {
    // The run fails with an error, not a panic: its ingest report cannot
    // be created. Watched the whole time, as `iotax-report watch` does,
    // its ledger must never show a black box without run.json.
    let dir = workdir("blackbox-fatal-exit");
    let trace = gen_trace(&dir);
    let ledger = dir.join("run");
    let mut child = Command::new(env!("CARGO_BIN_EXE_iotax-analyze"))
        .arg(&trace)
        .arg("--stats-only")
        .arg("--ledger")
        .arg(&ledger)
        .arg("--ingest-report")
        .arg(dir.join("missing").join("ingest.jsonl"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning iotax-analyze");
    let status = loop {
        assert!(!iotax_obs::run_crashed(&ledger), "a black box landed before run.json");
        if let Some(status) = child.try_wait().expect("polling iotax-analyze") {
            break status;
        }
    };
    assert_eq!(status.code(), Some(74), "a failed ingest-report write is an I/O error");
    assert!(ledger.join(iotax_obs::BLACKBOX_DIR).is_dir(), "a fatal exit flushes a black box");
    let run = iotax_obs::load_run(&ledger).expect("run ledger");
    assert_eq!(run.manifest.exit_status, 74);
    assert!(!iotax_obs::run_crashed(&ledger));
}

/// `iotax-analyze TRACE --stats-only --ledger LEDGER`, crash-injected at
/// the `app_bound` stage when `crash` is set; returns whether it
/// succeeded.
fn stats_run(trace: &Path, ledger: &Path, crash: bool) -> bool {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_iotax-analyze"));
    cmd.arg(trace).arg("--stats-only").arg("--ledger").arg(ledger);
    if crash {
        cmd.env("IOTAX_PANIC_AT_STAGE", "app_bound");
    }
    cmd.output().expect("spawning iotax-analyze").status.success()
}

/// Asserts that `ledger`'s heartbeat stream holds one run's ticks: `seq`
/// counts up from 1 and never starts again.
fn assert_one_runs_ticks(ledger: &Path) {
    let path = ledger.join(iotax_obs::HEARTBEAT_FILE);
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let line = |l: &str| serde_json::from_str::<iotax_obs::HeartbeatLine>(l).expect("tick").seq;
    let seqs: Vec<u64> = text.lines().map(line).collect();
    assert!(seqs.iter().zip(1..).all(|(&seq, n)| seq == n), "ticks of two runs: {seqs:?}");
}

#[test]
fn a_reused_ledger_holds_only_the_latest_run() {
    let dir = workdir("blackbox-reused");
    let trace = gen_trace(&dir);

    // A clean run, then a crash: the crash leaves no run.json, so no
    // reader may find the clean run's record there.
    let clean_then_crash = dir.join("clean-then-crash");
    assert!(stats_run(&trace, &clean_then_crash, false));
    assert!(!stats_run(&trace, &clean_then_crash, true));
    assert!(!clean_then_crash.join("run.json").exists(), "the earlier run's run.json is left");
    assert!(clean_then_crash.join(iotax_obs::BLACKBOX_DIR).is_dir());
    assert_one_runs_ticks(&clean_then_crash);

    // A crash, then a clean run: the crash's black box and heartbeat
    // ticks go with it.
    let crash_then_clean = dir.join("crash-then-clean");
    assert!(!stats_run(&trace, &crash_then_clean, true));
    assert!(stats_run(&trace, &crash_then_clean, false));
    assert!(crash_then_clean.join("run.json").exists());
    assert!(
        !crash_then_clean.join(iotax_obs::BLACKBOX_DIR).exists(),
        "the earlier crash's black box is left"
    );
    assert_one_runs_ticks(&crash_then_clean);
}
