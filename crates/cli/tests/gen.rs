//! `iotax-gen` writing a trace into a directory: what it leaves when `--out`
//! is reused, how it reports a log it cannot write, and the names of the
//! histograms in its run ledger.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use iotax_cli::ingest::load_fault_manifest;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("gen-{name}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing stale workdir");
    }
    std::fs::create_dir_all(&dir).expect("creating workdir");
    dir
}

fn gen(out: &Path, args: &[&str]) -> Output {
    let exe = env!("CARGO_BIN_EXE_iotax-gen");
    Command::new(exe).args(args).arg("--out").arg(out).output().expect("spawning iotax-gen")
}

fn gen_ok(out: &Path, args: &[&str]) {
    let output = gen(out, args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "iotax-gen {args:?} failed:\n{stderr}");
}

/// The job ids of the trace's manifest rows.
fn manifest_ids(trace: &Path) -> HashSet<u64> {
    let text = std::fs::read_to_string(trace.join("manifest.csv")).expect("reading manifest");
    let ids =
        text.lines().skip(1).map(|line| line.split(',').next().and_then(|id| id.parse().ok()));
    ids.map(|id| id.expect("integer job id")).collect()
}

const DIRTY: [&str; 8] =
    ["--jobs", "100", "--seed", "9", "--fault-rate", "0.3", "--fault-seed", "4"];

#[test]
fn a_dirty_trace_over_a_larger_one_describes_only_its_own_jobs() {
    let trace = workdir("reuse-out");
    gen_ok(&trace, &["--jobs", "300", "--seed", "9"]);
    gen_ok(&trace, &DIRTY);
    let ids = manifest_ids(&trace);
    assert_eq!(ids.len(), 100);
    let faults = load_fault_manifest(&trace).expect("faults.json");
    assert_eq!(faults.jobs_seen, 100);
    assert!(!faults.faults.is_empty());
    for fault in &faults.faults {
        assert!(ids.contains(&fault.job_id), "faults.json names job {}", fault.job_id);
    }
}

#[test]
fn a_clean_trace_over_a_dirty_one_removes_its_faults_json() {
    let trace = workdir("clean-over-dirty");
    gen_ok(&trace, &DIRTY);
    assert!(trace.join("faults.json").exists());
    gen_ok(&trace, &["--jobs", "100", "--seed", "9"]);
    assert!(!trace.join("faults.json").exists(), "faults.json of the earlier trace left in place");
}

#[test]
fn a_log_that_cannot_be_written_is_named_with_its_job() {
    let trace = workdir("unwritable-log");
    let log = trace.join("logs").join("7.drn");
    std::fs::create_dir_all(&log).expect("a directory in the log's place");
    let output = gen(&trace, &["--jobs", "50", "--seed", "9"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(74), "{stderr}");
    assert!(stderr.contains(&format!("{} for job 7", log.display())), "{stderr}");
}

#[test]
fn every_histogram_of_a_gen_run_has_a_name_of_its_own() {
    // Every log damaged: the faults that drop the MPI-IO module or
    // duplicate a record decode the log and encode it again, so the run
    // both encodes and parses logs.
    let dir = workdir("histogram-names");
    let ledger = dir.join("run");
    let ledger_arg = ledger.to_str().expect("utf-8 tmpdir");
    let args = ["--jobs", "50", "--seed", "9", "--fault-rate", "1.0", "--ledger", ledger_arg];
    gen_ok(&dir.join("trace"), &args);
    let run = iotax_obs::load_run(&ledger).expect("reading run.json");
    let names: Vec<&str> = run.histograms.iter().map(|h| h.name.as_str()).collect();
    let unique: HashSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "{names:?}");
    // The encoder's and the parser's byte counts, each under its own name.
    assert!(unique.contains("darshan.encoded_log_bytes") && unique.contains("darshan.log_bytes"));
}
