//! `--help` is a successful request for usage, not a usage error: both
//! pipeline binaries print their usage to stdout and exit 0, while an
//! unknown flag still exits 64, and so does `iotax-gen --jobs 0`.

use std::process::Command;

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
