//! The workspace audits itself: `cargo test` fails the moment someone
//! introduces a violation without a reasoned suppression. This is the same
//! invariant CI enforces via `iotax-audit --workspace`, whose exit 0 means
//! zero findings.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use iotax_audit::audit_workspace;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let report = audit_workspace(&root, false).expect("workspace walks");
    let rendered: Vec<String> = report.findings.iter().map(iotax_audit::render_text).collect();
    assert!(
        report.findings.is_empty(),
        "workspace has unsuppressed audit findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn every_workspace_suppression_carries_a_reason() {
    // `bad-suppression` (reasonless or unknown-lint waivers) and
    // `unused-suppression` are findings themselves, so a clean workspace
    // report already implies every live suppression has a reason. Check the
    // invariant directly with the real suppression parser, which knows the
    // difference between a live comment, a doc example, and a string
    // literal that merely mentions the marker.
    let root = workspace_root();
    let mut stack = vec![root.join("crates")];
    let mut checked = 0usize;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && name != "fixtures" {
                    stack.push(path);
                }
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read source");
            for sup in &iotax_audit::FileCx::new(&text).suppressions {
                assert!(
                    sup.reason.is_some(),
                    "{}:{}: suppression of {:?} has no `-- reason`",
                    path.display(),
                    sup.comment_line,
                    sup.lints
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "expected at least one suppression in the workspace");
}
