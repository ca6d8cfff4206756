//! End-to-end tests of the `iotax-report` binary against synthetic run
//! ledgers written to disk, exactly as `--ledger` would leave them.

#![expect(
    clippy::disallowed_methods,
    reason = "a wall-clock deadline bounds the wait for a child process; no test output depends on it"
)]

use iotax_obs::store::SegmentStore;
use iotax_obs::{CounterSnapshot, FlightEvent, HeartbeatLine, RunFile, RunManifest, SpanRecord};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A run whose every duration is `scale_us`-proportional, so a "slow"
/// run is just a bigger scale.
fn synthetic_run(scale_us: u64, jobs: u64) -> RunFile {
    let span = |name: &str, path: &str, depth, id, parent, start, dur| SpanRecord {
        name: name.to_owned(),
        path: path.to_owned(),
        depth,
        id,
        parent,
        thread: 1,
        start_us: start,
        duration_us: dur,
    };
    RunFile {
        manifest: RunManifest {
            run_id: "iotax-analyze-feedfacefeedface".to_owned(),
            tool: "iotax-analyze".to_owned(),
            tool_version: "0.1.0".to_owned(),
            args: vec!["trace".to_owned()],
            started_unix_ms: 1_700_000_000_000,
            wall_us: 12 * scale_us,
            exit_status: 0,
            config_digest: "fnv1a:00000000000000aa".to_owned(),
            seeds: vec![("seed".to_owned(), 301)],
            inputs: Vec::new(),
            crate_versions: Vec::new(),
        },
        spans: vec![
            span("ingest", "analyze/ingest", 1, 2, 1, 0, 3 * scale_us),
            span("fit", "analyze/fit", 1, 3, 1, 3 * scale_us, 8 * scale_us),
            span("analyze", "analyze", 0, 1, 0, 0, 12 * scale_us),
        ],
        counters: vec![CounterSnapshot { name: "cli.ingest.files".to_owned(), value: jobs }],
        histograms: Vec::new(),
        sections: Vec::new(),
        gauges: None,
    }
}

/// Writes `run` into `dir/run.json` and returns the directory.
fn write_run(dir: &Path, run: &RunFile) -> PathBuf {
    std::fs::create_dir_all(dir).expect("mkdir");
    let text = serde_json::to_string_pretty(run).expect("encode");
    std::fs::write(dir.join("run.json"), text).expect("write");
    dir.to_path_buf()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iotax-report-test-{}-{name}", std::process::id()))
}

fn report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_iotax-report"))
        .args(args)
        .output()
        .expect("spawn iotax-report")
}

#[test]
fn gate_exits_nonzero_on_a_slowed_run() {
    let base = write_run(&tmp("gate-base"), &synthetic_run(10_000, 500));
    let slow = write_run(&tmp("gate-slow"), &synthetic_run(40_000, 500));
    let out = report(&[
        "gate",
        slow.to_str().unwrap(),
        "--baseline",
        base.to_str().unwrap(),
        "--max-regress",
        "100",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("gate: FAIL"), "{stdout}");
    assert!(stdout.contains("FAIL  wall time"), "{stdout}");

    // The same pair passes once the budget absorbs the slowdown.
    let out = report(&[
        "gate",
        slow.to_str().unwrap(),
        "--baseline",
        base.to_str().unwrap(),
        "--max-regress",
        "1000",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn gate_exits_nonzero_on_counter_drift_even_with_infinite_budget() {
    let base = write_run(&tmp("drift-base"), &synthetic_run(10_000, 500));
    let drifted = write_run(&tmp("drift-run"), &synthetic_run(10_000, 499));
    let out = report(&[
        "gate",
        drifted.to_str().unwrap(),
        "--baseline",
        base.to_str().unwrap(),
        "--max-regress",
        "1000000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL  counter cli.ingest.files"), "{stdout}");
}

#[test]
fn diff_of_identical_runs_reports_zero_metric_deltas() {
    let a = write_run(&tmp("diff-a"), &synthetic_run(10_000, 500));
    let b = write_run(&tmp("diff-b"), &synthetic_run(20_000, 500));
    let out = report(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 metric deltas"), "{stdout}");
}

#[test]
fn chrome_trace_export_round_trips_through_a_schema_check() {
    use serde::Value;
    let dir = write_run(&tmp("export"), &synthetic_run(5_000, 42));
    let out_file = tmp("export-trace.json");
    let out = report(&[
        "export",
        dir.to_str().unwrap(),
        "--format",
        "chrome-trace",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&out_file).expect("read export");
    let doc: Value = serde_json::from_str(&text).expect("export is valid JSON");
    let Value::Object(fields) = doc else { panic!("trace is not a JSON object") };
    let events =
        fields.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v).expect("has traceEvents");
    let Value::Array(events) = events else { panic!("traceEvents is not an array") };
    assert_eq!(events.len(), 3);
    for event in events {
        let Value::Object(e) = event else { panic!("event is not an object") };
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
            assert!(e.iter().any(|(k, _)| k == key), "event missing {key}");
        }
    }
}

#[test]
fn show_renders_manifest_and_critical_path() {
    let dir = write_run(&tmp("show"), &synthetic_run(5_000, 42));
    let out = report(&["show", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("iotax-analyze-feedfacefeedface"), "{stdout}");
    assert!(stdout.contains("seed     seed = 301"), "{stdout}");
    assert!(stdout.contains("critical path: analyze → fit"), "{stdout}");
}

#[test]
fn a_closed_stdout_ends_report_with_exit_74_not_a_panic() {
    let dir = write_run(&tmp("closed-stdout"), &synthetic_run(5_000, 42));
    let run = dir.to_str().unwrap();
    for args in [
        &["--help"][..],
        &["show", run],
        &["diff", run, run],
        &["export", run, "--format", "folded"],
        &["gate", run, "--baseline", run],
    ] {
        let (reader, writer) = std::io::pipe().expect("creating a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_iotax-report"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn iotax-report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(74), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("iotax-report:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(errors[0].contains("writing stdout"), "{args:?}: {stderr}");
    }
}

#[test]
fn usage_errors_exit_with_ex_usage() {
    let out = report(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(64));
    let out = report(&["gate", "/nonexistent"]);
    assert_eq!(out.status.code(), Some(64)); // missing --baseline
}

/// Runs `iotax-report watch DIR` to its exit, killing it after 20 s so a
/// watch that never returns fails the test instead of hanging it.
fn watch_within_deadline(dir: &Path) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_iotax-report"))
        .args(["watch", dir.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn iotax-report watch");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("polling watch").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("killing watch");
            panic!("watch {} still running after 20 s", dir.display());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    child.wait_with_output().expect("watch output")
}

#[test]
fn watch_ends_on_a_crashed_run_and_names_its_black_box() {
    // What a run that panics leaves in its ledger: its heartbeat ticks
    // and the black box the panic hook flushes, but no run.json.
    let dir = tmp("watch-crashed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let tick =
        HeartbeatLine { seq: 1, uptime_us: 1, stacks: vec![], counters: vec![], gauges: vec![] };
    let line = serde_json::to_string(&tick).expect("encode tick") + "\n";
    std::fs::write(dir.join(iotax_obs::HEARTBEAT_FILE), line).expect("write heartbeat");
    let blackbox = dir.join(iotax_obs::BLACKBOX_DIR);
    let header = FlightEvent {
        seq: 0,
        at_us: 2_000,
        thread: 0,
        kind: "blackbox".to_owned(),
        name: "iotax-analyze-crashed".to_owned(),
        detail: "panic: injected crash".to_owned(),
        value: 0,
    };
    SegmentStore::open(&blackbox)
        .expect("open black box")
        .append(&header.encode())
        .expect("append");

    let out = watch_within_deadline(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&blackbox.display().to_string()), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("tick 1 "), "the tick is printed");
    let out = report(&["watch", dir.to_str().unwrap(), "--once"]);
    assert_eq!(out.status.code(), Some(1), "--once: {}", String::from_utf8_lossy(&out.stderr));

    // A fatal exit writes run.json before its black box: that run
    // finished.
    write_run(&dir, &synthetic_run(5_000, 42));
    let out = watch_within_deadline(&dir);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blackbox_of_a_healthy_run_sharing_its_store_is_empty() {
    // What `--ledger X --store X` leaves after a run that exits 0: its
    // run.json and the same record in a segment of the store, but no
    // blackbox/. The run record is not a flight event.
    let dir = tmp("blackbox-shared-store");
    let _ = std::fs::remove_dir_all(&dir);
    let run = synthetic_run(5_000, 42);
    write_run(&dir, &run);
    let text = serde_json::to_string_pretty(&run).expect("encode");
    SegmentStore::open(&dir).expect("open store").append(text.as_bytes()).expect("append");

    let out = report(&["blackbox", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.starts_with("black box: empty"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
