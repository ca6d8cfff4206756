//! The `iotax-audit` binary's own contract: `--help` is a successful
//! request for usage, a workspace run in JSONL mode prints only the
//! summary record when the tree is clean, and a stdout nobody reads is an
//! I/O error, exit 74, not a panic.

use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_iotax-audit");

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let out = Command::new(EXE).arg("--help").output().expect("spawning iotax-audit");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));

    // The retired baseline and config flags are unknown flags like any
    // other.
    for args in [
        &["--no-such-flag"][..],
        &["--baseline", "x"],
        &["--write-baseline", "x"],
        &["--config", "x"],
    ] {
        let out = Command::new(EXE).args(args).output().expect("spawning iotax-audit");
        assert_eq!(out.status.code(), Some(64), "{args:?}: unknown flags stay usage errors");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"), "{args:?}");
    }
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

#[test]
fn list_lints_starts_every_summary_in_one_column() {
    let out = Command::new(EXE).arg("--list-lints").output().expect("spawning iotax-audit");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let columns: Vec<usize> = stdout
        .lines()
        .map(|line| {
            let name_end = line.find(' ').unwrap_or(line.len());
            name_end + line[name_end..].find(|c| c != ' ').unwrap_or(0)
        })
        .collect();
    assert_eq!(columns.len(), iotax_audit::LINTS.len(), "{stdout}");
    assert!(columns.iter().all(|&c| c == columns[0]), "{columns:?}\n{stdout}");
}

#[test]
fn a_closed_stdout_ends_the_audit_with_exit_74_not_a_panic() {
    // A one-crate workspace with one text finding.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-closed-stdout");
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clearing stale workdir");
    }
    std::fs::create_dir_all(root.join("crates/demo/src")).expect("creating the workspace");
    for (file, text) in [
        ("crates/demo/Cargo.toml", "[package]\nname = \"demo\"\n"),
        (
            "crates/demo/src/lib.rs",
            "fn publish() -> std::io::Result<()> { std::fs::write(\"x.tmp\", \"x\")?; std::fs::rename(\"x.tmp\", \"x\") }\n",
        ),
    ] {
        std::fs::write(root.join(file), text).expect("writing the workspace");
    }
    let (root_arg, ledger) = (root.to_str().expect("utf-8 tmpdir"), root.join("run"));
    let ledger = ledger.to_str().expect("utf-8 tmpdir");

    for args in [
        &["--help"][..],
        &["--list-lints"],
        &["--explain", "lock-order-cycle"],
        &["--workspace", "--root", root_arg, "--ledger", ledger],
    ] {
        // A stdout whose read end is already closed.
        let (reader, writer) = std::io::pipe().expect("creating a pipe");
        drop(reader);
        let out =
            Command::new(EXE).args(args).stdout(writer).output().expect("spawning iotax-audit");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(74), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("iotax-audit:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(errors[0].contains("writing stdout"), "{args:?}: {stderr}");
    }
    // The workspace run still finalized its session, with the exit status
    // it ended on.
    let run = iotax_obs::load_run(Path::new(ledger)).expect("the run's ledger");
    assert_eq!(run.manifest.exit_status, 74);
}
