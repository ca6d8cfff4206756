//! Per-lint fixture tests: every lint must fire on its violating fixture,
//! fall silent (with the suppression counted) on its suppressed fixture,
//! and stay quiet on its clean fixture. The fixtures live under
//! `tests/fixtures/` — a directory the workspace walk skips, so the
//! deliberately bad code never shows up in a real audit run.

use iotax_audit::{audit_source, FileReport};

fn audit_fixture(src: &str) -> FileReport {
    audit_source("fixture", "fixture.rs", src, false)
}

/// One (lint, violating, suppressed, clean) quadruple per token lint.
const CASES: &[(&str, &str, &str, &str)] = &[(
    "unsynced-durable-write",
    include_str!("fixtures/unsynced_durable_write_violating.rs"),
    include_str!("fixtures/unsynced_durable_write_suppressed.rs"),
    include_str!("fixtures/unsynced_durable_write_clean.rs"),
)];

/// The findings of `lint` in `report`.
fn of<'r>(report: &'r FileReport, lint: &str) -> Vec<&'r iotax_audit::Finding> {
    report.findings.iter().filter(|f| f.lint == lint).collect()
}

#[test]
fn violating_fixtures_are_fully_detected() {
    for (lint, violating, _, _) in CASES {
        let report = audit_fixture(violating);
        assert!(
            !of(&report, lint).is_empty(),
            "{lint}: violating fixture produced no {lint} finding: {:?}",
            report.findings
        );
    }
}

#[test]
fn suppressed_fixtures_are_quiet_and_counted() {
    for (lint, _, suppressed, _) in CASES {
        let report = audit_fixture(suppressed);
        assert!(
            of(&report, lint).is_empty(),
            "{lint}: suppressed fixture still reports: {:?}",
            report.findings
        );
        assert!(report.suppressed > 0, "{lint}: suppression was not counted");
    }
}

#[test]
fn clean_fixtures_are_silent() {
    for (lint, _, _, clean) in CASES {
        let report = audit_fixture(clean);
        assert!(
            of(&report, lint).is_empty(),
            "{lint}: clean fixture reports: {:?}",
            report.findings
        );
        assert_eq!(report.suppressed, 0, "{lint}: clean fixture suppressed something");
    }
}

#[test]
fn suppression_without_reason_is_flagged_but_still_suppresses() {
    let report = audit_fixture(include_str!("fixtures/meta_missing_reason.rs"));
    assert!(
        report.findings.iter().any(|f| f.lint == "bad-suppression"),
        "missing reason must surface as bad-suppression: {:?}",
        report.findings
    );
    assert!(
        !report.findings.iter().any(|f| f.lint == "unsynced-durable-write"),
        "a reasonless suppression still suppresses (loudly): {:?}",
        report.findings
    );
}

#[test]
fn unused_suppression_is_flagged() {
    let report = audit_fixture(include_str!("fixtures/meta_unused_suppression.rs"));
    assert!(
        report.findings.iter().any(|f| f.lint == "unused-suppression"),
        "{:?}",
        report.findings
    );
}

#[test]
fn unknown_lint_in_suppression_is_flagged() {
    let report = audit_fixture(include_str!("fixtures/meta_unknown_lint.rs"));
    assert!(report.findings.iter().any(|f| f.lint == "bad-suppression"), "{:?}", report.findings);
}

#[test]
fn findings_are_in_source_order() {
    let report = audit_fixture(include_str!("fixtures/unsynced_durable_write_violating.rs"));
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    let lines: Vec<(u32, u32)> = report.findings.iter().map(|f| (f.line, f.col)).collect();
    let sorted = {
        let mut s = lines.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(lines, sorted, "findings must be in source order");
}
