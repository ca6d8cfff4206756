//! Per-lint fixture tests: every lint must fire on its violating fixture,
//! fall silent (with the suppression counted) on its suppressed fixture,
//! and stay quiet on its clean fixture. The fixtures live under
//! `tests/fixtures/` — a directory the workspace walk skips, so the
//! deliberately bad code never shows up in a real audit run.

use iotax_audit::{audit_source, CrateConfig, FileReport};

fn config_for(lint: &str) -> CrateConfig {
    let mut cfg = CrateConfig::default();
    cfg.lints.insert(lint.to_owned(), true);
    cfg.check_indexing = true;
    cfg
}

fn audit_fixture(lint: &str, src: &str) -> FileReport {
    audit_source("fixture", "fixture.rs", src, &config_for(lint), false)
}

/// One (lint, violating, suppressed, clean) quadruple per lint.
const CASES: &[(&str, &str, &str, &str)] = &[
    (
        "nondeterministic-time",
        include_str!("fixtures/nondeterministic_time_violating.rs"),
        include_str!("fixtures/nondeterministic_time_suppressed.rs"),
        include_str!("fixtures/nondeterministic_time_clean.rs"),
    ),
    (
        "ambient-randomness",
        include_str!("fixtures/ambient_randomness_violating.rs"),
        include_str!("fixtures/ambient_randomness_suppressed.rs"),
        include_str!("fixtures/ambient_randomness_clean.rs"),
    ),
    (
        "unordered-iteration",
        include_str!("fixtures/unordered_iteration_violating.rs"),
        include_str!("fixtures/unordered_iteration_suppressed.rs"),
        include_str!("fixtures/unordered_iteration_clean.rs"),
    ),
    (
        "panic-in-parser",
        include_str!("fixtures/panic_in_parser_violating.rs"),
        include_str!("fixtures/panic_in_parser_suppressed.rs"),
        include_str!("fixtures/panic_in_parser_clean.rs"),
    ),
    (
        "unchecked-cast",
        include_str!("fixtures/unchecked_cast_violating.rs"),
        include_str!("fixtures/unchecked_cast_suppressed.rs"),
        include_str!("fixtures/unchecked_cast_clean.rs"),
    ),
    (
        "swallowed-result",
        include_str!("fixtures/swallowed_result_violating.rs"),
        include_str!("fixtures/swallowed_result_suppressed.rs"),
        include_str!("fixtures/swallowed_result_clean.rs"),
    ),
    (
        "unsynced-durable-write",
        include_str!("fixtures/unsynced_durable_write_violating.rs"),
        include_str!("fixtures/unsynced_durable_write_suppressed.rs"),
        include_str!("fixtures/unsynced_durable_write_clean.rs"),
    ),
];

#[test]
fn violating_fixtures_are_fully_detected() {
    for (lint, violating, _, _) in CASES {
        let report = audit_fixture(lint, violating);
        assert!(
            report.findings.iter().any(|f| f.lint == *lint),
            "{lint}: violating fixture produced no {lint} finding: {:?}",
            report.findings
        );
        assert!(
            report.findings.iter().all(|f| f.lint == *lint),
            "{lint}: unexpected extra lint fired: {:?}",
            report.findings
        );
    }
}

#[test]
fn suppressed_fixtures_are_quiet_and_counted() {
    for (lint, _, suppressed, _) in CASES {
        let report = audit_fixture(lint, suppressed);
        assert!(
            report.findings.is_empty(),
            "{lint}: suppressed fixture still reports: {:?}",
            report.findings
        );
        assert!(report.suppressed > 0, "{lint}: suppression was not counted");
    }
}

#[test]
fn clean_fixtures_are_silent() {
    for (lint, _, _, clean) in CASES {
        let report = audit_fixture(lint, clean);
        assert!(report.findings.is_empty(), "{lint}: clean fixture reports: {:?}", report.findings);
        assert_eq!(report.suppressed, 0, "{lint}: clean fixture suppressed something");
    }
}

#[test]
fn panic_fixture_reports_every_panic_site() {
    let report =
        audit_fixture("panic-in-parser", include_str!("fixtures/panic_in_parser_violating.rs"));
    // Three `.unwrap(`, one `.expect(`, one `panic!`.
    assert_eq!(report.findings.len(), 5, "{:?}", report.findings);
}

#[test]
fn suppression_without_reason_is_flagged_but_still_suppresses() {
    let report = audit_fixture("swallowed-result", include_str!("fixtures/meta_missing_reason.rs"));
    assert!(
        report.findings.iter().any(|f| f.lint == "bad-suppression"),
        "missing reason must surface as bad-suppression: {:?}",
        report.findings
    );
    assert!(
        !report.findings.iter().any(|f| f.lint == "swallowed-result"),
        "a reasonless suppression still suppresses (loudly): {:?}",
        report.findings
    );
}

#[test]
fn unused_suppression_is_flagged() {
    let report =
        audit_fixture("panic-in-parser", include_str!("fixtures/meta_unused_suppression.rs"));
    assert!(
        report.findings.iter().any(|f| f.lint == "unused-suppression"),
        "{:?}",
        report.findings
    );
}

#[test]
fn unknown_lint_in_suppression_is_flagged() {
    let report = audit_fixture("panic-in-parser", include_str!("fixtures/meta_unknown_lint.rs"));
    assert!(report.findings.iter().any(|f| f.lint == "bad-suppression"), "{:?}", report.findings);
}

#[test]
fn findings_are_in_source_order() {
    let report =
        audit_fixture("panic-in-parser", include_str!("fixtures/panic_in_parser_violating.rs"));
    let lines: Vec<(u32, u32)> = report.findings.iter().map(|f| (f.line, f.col)).collect();
    let sorted = {
        let mut s = lines.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(lines, sorted, "findings must be in source order");
}
