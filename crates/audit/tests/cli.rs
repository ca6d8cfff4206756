//! The `iotax-audit` binary's own contract: `--help` is a successful
//! request for usage, and a workspace run in JSONL mode prints only the
//! summary record when the tree is clean.

use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_iotax-audit");

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let out = Command::new(EXE).arg("--help").output().expect("spawning iotax-audit");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));

    let out = Command::new(EXE).arg("--no-such-flag").output().expect("spawning iotax-audit");
    assert_eq!(out.status.code(), Some(64), "unknown flags stay usage errors");
}

#[test]
fn clean_workspace_jsonl_run_prints_one_summary_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(EXE)
        .arg("--workspace")
        .arg("--root")
        .arg(&root)
        .args(["--format", "jsonl"])
        .output()
        .expect("spawning iotax-audit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(lines[0].starts_with(r#"{"record":"summary","new_findings":0,"#), "{stdout}");
}
