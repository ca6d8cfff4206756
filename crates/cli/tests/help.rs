//! `--help` is a successful request for usage, not a usage error: both
//! pipeline binaries print their usage to stdout and exit 0, while an
//! unknown flag still exits 64, and so does `iotax-gen --jobs 0`. A stdout
//! nobody reads (`iotax-analyze TRACE | head -1`, `iotax-gen --help |
//! true`) is an I/O error, exit 74, not a panic, and so is an ingest
//! report that cannot be written.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "test helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for exe in [env!("CARGO_BIN_EXE_iotax-analyze"), env!("CARGO_BIN_EXE_iotax-gen")] {
        let out = Command::new(exe).arg("--help").output().expect("spawning tool");
        assert_eq!(out.status.code(), Some(0), "{exe}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"), "{exe}");

        let out = Command::new(exe).arg("--no-such-flag").output().expect("spawning tool");
        assert_eq!(out.status.code(), Some(64), "{exe}: unknown flags stay usage errors");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_iotax-gen"))
        .args(["--jobs", "0"])
        .output()
        .expect("spawning tool");
    assert_eq!(out.status.code(), Some(64), "{}", String::from_utf8_lossy(&out.stderr));
}

/// Runs `exe` with a stdout whose read end is already closed.
fn into_a_closed_pipe(exe: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("creating a pipe");
    drop(reader);
    Command::new(exe).args(args).stdout(writer).output().expect("spawning tool")
}

/// Asserts a run ended on its closed stdout: exit 74 and one error line,
/// prefixed `tool:`, naming the write, with no panic.
fn assert_ended_on_closed_stdout(tool: &str, args: &[&str], out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(74), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with(tool)).collect();
    assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
    assert!(errors[0].contains("writing stdout"), "{args:?}: {stderr}");
}

#[test]
fn a_closed_stdout_ends_gen_help_with_exit_74_not_a_panic() {
    let out = into_a_closed_pipe(env!("CARGO_BIN_EXE_iotax-gen"), &["--help"]);
    assert_ended_on_closed_stdout("iotax-gen:", &["--help"], &out);
}

/// A fresh work directory `name` under the test tmpdir, holding a
/// 200-job trace in `trace/`.
fn workdir_with_trace(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing stale workdir");
    }
    let gen = Command::new(env!("CARGO_BIN_EXE_iotax-gen"))
        .args(["--jobs", "200", "--seed", "9", "--out"])
        .arg(dir.join("trace"))
        .output()
        .expect("spawning iotax-gen");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    dir
}

#[test]
fn a_closed_stdout_ends_analyze_with_exit_74_not_a_panic() {
    let dir = workdir_with_trace("closed-stdout");
    let (trace, ledger) = (dir.join("trace"), dir.join("run"));
    let trace = trace.to_str().expect("utf-8 tmpdir");
    let ledger = ledger.to_str().expect("utf-8 tmpdir");

    for args in [&["--help"][..], &[trace, "--stats-only", "--ledger", ledger]] {
        let out = into_a_closed_pipe(env!("CARGO_BIN_EXE_iotax-analyze"), args);
        assert_ended_on_closed_stdout("iotax-analyze:", args, &out);
    }
    // The run still finalized its ledger, with the exit status it ended on.
    let run = iotax_obs::load_run(Path::new(ledger)).expect("the run's ledger");
    assert_eq!(run.manifest.exit_status, 74);
}

#[test]
fn an_unwritable_ingest_report_ends_analyze_before_the_litmus_output() {
    let dir = workdir_with_trace("unwritable-ingest-report");
    let report = dir.join("missing").join("r.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_iotax-analyze"))
        .arg(dir.join("trace"))
        .args(["--stats-only", "--ingest-report"])
        .arg(&report)
        .output()
        .expect("spawning iotax-analyze");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(74), "{stderr}");
    assert!(stderr.contains(&format!("creating ingest report {}", report.display())), "{stderr}");
    assert!(stdout.lines().any(|l| l.starts_with("trace:")), "{stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("ingest:")), "{stdout}");
    assert!(!stdout.contains("duplicates:"), "the litmus output waits for the write: {stdout}");
}
