//! `--help` is a successful request for usage, not a usage error: both
//! pipeline binaries print their usage to stdout and exit 0, while an
//! unknown flag still exits 64, and so does `iotax-gen --jobs 0`. A stdout
//! nobody reads (`iotax-analyze TRACE | head -1`) is an I/O error, exit
//! 74, not a panic.

use std::path::Path;
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

/// Runs `iotax-analyze` with a stdout whose read end is already closed.
fn analyze_into_a_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("creating a pipe");
    drop(reader);
    let exe = env!("CARGO_BIN_EXE_iotax-analyze");
    Command::new(exe).args(args).stdout(writer).output().expect("spawning iotax-analyze")
}

#[test]
fn a_closed_stdout_ends_analyze_with_exit_74_not_a_panic() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing stale workdir");
    }
    let (trace, ledger) = (dir.join("trace"), dir.join("run"));
    let trace = trace.to_str().expect("utf-8 tmpdir");
    let ledger = ledger.to_str().expect("utf-8 tmpdir");
    let gen = Command::new(env!("CARGO_BIN_EXE_iotax-gen"))
        .args(["--jobs", "200", "--seed", "9", "--out", trace])
        .output()
        .expect("spawning iotax-gen");
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));

    for args in [&["--help"][..], &[trace, "--stats-only", "--ledger", ledger]] {
        let out = analyze_into_a_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(74), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let errors: Vec<&str> =
            stderr.lines().filter(|l| l.starts_with("iotax-analyze:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(errors[0].contains("writing stdout"), "{args:?}: {stderr}");
    }
    // The run still finalized its ledger, with the exit status it ended on.
    let run = iotax_obs::load_run(Path::new(ledger)).expect("the run's ledger");
    assert_eq!(run.manifest.exit_status, 74);
}
