//! End-to-end tests of the store-backed `iotax-report` surface: `scan`,
//! `trajectory`, `import`, `crash-matrix`, and the `STORE@SELECTOR` run
//! resolution used by `diff`/`gate`.

use iotax_obs::store::SegmentStore;
use iotax_obs::{CounterSnapshot, RunFile, RunManifest, SpanRecord};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Same shape the `--ledger` runs of `report_cli.rs` use; wall time and
/// one counter vary so trajectories and drift checks have signal.
fn synthetic_run(run_id: &str, scale_us: u64, jobs: u64) -> RunFile {
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
            run_id: run_id.to_owned(),
            tool: "iotax-analyze".to_owned(),
            tool_version: "0.1.0".to_owned(),
            args: vec!["trace".to_owned()],
            started_unix_ms: 1_700_000_000_000,
            wall_us: 12 * scale_us,
            exit_status: 0,
            config_digest: "fnv1a:00000000000000aa".to_owned(),
            seeds: vec![("seed".to_owned(), 301)],
            inputs: Vec::new(),
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

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iotax-store-cli-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear tmp dir");
    }
    dir
}

/// Appends `runs` to a fresh store at `dir`.
fn build_store(dir: &Path, runs: &[RunFile]) {
    let mut store = SegmentStore::open(dir).expect("open store");
    for run in runs {
        let text = serde_json::to_string_pretty(run).expect("encode run");
        store.append(text.as_bytes()).expect("append run");
    }
}

fn report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_iotax-report"))
        .args(args)
        .output()
        .expect("spawn iotax-report")
}

#[test]
fn scan_lists_runs_and_exits_zero_on_a_clean_store() {
    let dir = tmp("scan-clean");
    build_store(
        &dir,
        &[
            synthetic_run("iotax-analyze-aaaa", 10_000, 500),
            synthetic_run("iotax-analyze-bbbb", 11_000, 500),
        ],
    );
    let out = report(&["scan", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("iotax-analyze-aaaa"), "{stdout}");
    assert!(stdout.contains("iotax-analyze-bbbb"), "{stdout}");
    assert!(stdout.contains("2 record(s)"), "{stdout}");
    assert!(stdout.contains("0 damage"), "{stdout}");
}

#[test]
fn scan_detects_corruption_quarantines_and_exits_65() {
    let dir = tmp("scan-dirty");
    build_store(
        &dir,
        &[
            synthetic_run("iotax-analyze-aaaa", 10_000, 500),
            synthetic_run("iotax-analyze-bbbb", 11_000, 500),
        ],
    );
    // Flip one payload byte in the (single) segment.
    let seg_name = iotax_obs::store::list_segments(&dir).expect("list")[0].clone();
    let seg = dir.join(&seg_name);
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&seg, &bytes).expect("corrupt");

    let out = report(&["scan", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(65), "EX_DATAERR expected\n{stdout}");
    assert!(stdout.contains("CrcMismatch"), "{stdout}");
    // The first run survives and is still listed.
    assert!(stdout.contains("iotax-analyze-aaaa"), "{stdout}");
    // A quarantine sidecar exists next to the damaged segment.
    let sidecar = dir.join(format!("{seg_name}.corrupt"));
    assert!(sidecar.exists(), "missing quarantine sidecar {}", sidecar.display());
    let report_text = std::fs::read_to_string(&sidecar).expect("read sidecar");
    assert!(report_text.contains("CrcMismatch"), "{report_text}");
}

#[test]
fn trajectory_reports_percentiles_over_the_window() {
    let dir = tmp("trajectory");
    let runs: Vec<RunFile> = (0..10u64)
        .map(|i| synthetic_run(&format!("iotax-analyze-{i:04}"), 1_000 * (i + 1), 500))
        .collect();
    build_store(&dir, &runs);
    let out = report(&["trajectory", dir.to_str().unwrap(), "--metric", "wall_us", "--last", "5"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("trajectory of wall_us over 5 run(s)"), "{stdout}");
    // Runs 6..10 → wall 72ms..120ms; p95 of the window is the max.
    assert!(stdout.contains("p95  120000.000000"), "{stdout}");
    assert!(stdout.contains("last 120000.000000"), "{stdout}");

    // Stage span names resolve too (the "p95 of core.ood" style query).
    let out = report(&["trajectory", dir.to_str().unwrap(), "--metric", "fit"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("trajectory of fit over 10 run(s)"), "{stdout}");
}

#[test]
fn store_selectors_resolve_for_diff_and_gate() {
    let dir = tmp("selectors");
    build_store(
        &dir,
        &[
            synthetic_run("iotax-analyze-old0", 10_000, 500),
            synthetic_run("iotax-analyze-new0", 20_000, 500),
        ],
    );
    let store = dir.to_str().unwrap();

    // diff STORE@prefix STORE@last: identical metrics, timing-only move.
    let out = report(&["diff", &format!("{store}@iotax-analyze-old"), &format!("{store}@last")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 metric deltas"), "{stdout}");

    // gate the newest run against the older one by id prefix: no drift,
    // generous budget → pass.
    let out = report(&[
        "gate",
        &format!("{store}@last"),
        "--baseline",
        &format!("{store}@iotax-analyze-old"),
        "--max-regress",
        "1000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");

    // A bare store directory means the newest run.
    let out = report(&["show", store]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("iotax-analyze-new0"), "{stdout}");

    // Unknown and ambiguous prefixes are usage errors.
    let out = report(&["show", &format!("{store}@nope")]);
    assert_eq!(out.status.code(), Some(64));
    let out = report(&["show", &format!("{store}@iotax-analyze-")]);
    assert_eq!(out.status.code(), Some(64));
}

#[test]
fn gate_against_a_store_baseline_catches_drift() {
    let dir = tmp("store-gate-drift");
    build_store(&dir, &[synthetic_run("iotax-analyze-base", 10_000, 500)]);
    let run_dir = tmp("store-gate-run");
    std::fs::create_dir_all(&run_dir).expect("mkdir");
    let drifted = synthetic_run("iotax-analyze-drift", 10_000, 499);
    std::fs::write(
        run_dir.join("run.json"),
        serde_json::to_string_pretty(&drifted).expect("encode"),
    )
    .expect("write run");
    let out = report(&[
        "gate",
        run_dir.to_str().unwrap(),
        "--baseline",
        &format!("{}@last", dir.to_str().unwrap()),
        "--max-regress",
        "1000000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL  counter cli.ingest.files"), "{stdout}");
}

#[test]
fn import_appends_a_directory_run_byte_identically() {
    let run_dir = tmp("import-run");
    std::fs::create_dir_all(&run_dir).expect("mkdir");
    let run = synthetic_run("iotax-analyze-imported", 10_000, 500);
    let text = serde_json::to_string_pretty(&run).expect("encode");
    std::fs::write(run_dir.join("run.json"), &text).expect("write run");
    let store_dir = tmp("import-store");

    let out =
        report(&["import", run_dir.to_str().unwrap(), "--store", store_dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // The stored record is byte-identical to the directory copy, so a
    // gate of the store run against the directory run shows zero drift.
    let out = report(&[
        "gate",
        &format!("{}@last", store_dir.to_str().unwrap()),
        "--baseline",
        run_dir.to_str().unwrap(),
        "--max-regress",
        "1000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let scan = iotax_obs::store::scan_store(&store_dir).expect("scan");
    assert!(scan.is_clean());
    assert_eq!(scan.records[0].payload, text.as_bytes());
}

#[test]
fn crash_matrix_passes_and_uses_documented_exit_codes() {
    let dir = tmp("crash-matrix");
    let out = report(&[
        "crash-matrix",
        "--dir",
        dir.to_str().unwrap(),
        "--seed",
        "20220914",
        "--records",
        "40",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("crash matrix: PASS (5/5 kinds)"), "{stdout}");
    for slug in [
        "truncate-tail",
        "bit-flip-payload",
        "bit-flip-header",
        "duplicate-tail",
        "garbage-interleave",
    ] {
        assert!(stdout.contains(slug), "{stdout}");
        // Every damaged case leaves a quarantine sidecar on disk.
        let case_dir = dir.join(slug);
        let sidecars: Vec<_> = std::fs::read_dir(&case_dir)
            .expect("case dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".corrupt"))
            .collect();
        assert!(!sidecars.is_empty(), "{slug}: no .corrupt sidecar");
    }

    // Missing --dir is a usage error (64).
    let out = report(&["crash-matrix", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(64));
}
