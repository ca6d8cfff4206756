//! The incremental engine's contract, end to end: a warm `--cache` run
//! must produce byte-identical output to a cold run — for the unchanged
//! tree, for any mutated file subset, and for every cache-damage mode —
//! and an unchanged warm run must parse nothing.
//!
//! These tests drive `audit_sources`, the same seam the workspace
//! walk feeds, with real segment-log cache directories on disk.

use iotax_audit::driver::{audit_sources, AuditOutcome, DriverOptions};
use iotax_audit::symbols::{FileRole, SourceSpec};
use iotax_audit::{write_jsonl, AuditConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const TOML: &str = "[default]\ndead-public-api = true\nerror-context-loss = true\n\
                    untrusted-length-allocation = true\nunordered-float-reduction = true\n\
                    lock-order-cycle = true\nunbounded-corpus-materialization = true\n\
                    unbounded-channel = true\nquadratic-corpus-join = true\n";

fn cfg() -> AuditConfig {
    AuditConfig::from_toml(TOML, "incremental.toml", &iotax_audit::known_lint_names())
        .expect("config parses")
}

fn spec(krate: &str, file: &str, src: &str) -> SourceSpec {
    SourceSpec {
        krate: krate.to_owned(),
        file: file.to_owned(),
        role: FileRole::Lib,
        src: src.to_owned(),
    }
}

/// A small multi-crate corpus exercising per-file, cross-file, and
/// capacity passes: a dead pub item, a live one consumed across crates,
/// and an unbounded materialization.
fn corpus() -> Vec<SourceSpec> {
    vec![
        spec(
            "iotax-a",
            "crates/a/src/lib.rs",
            "pub fn live_helper(n: u64) -> u64 { n }\npub fn orphan() {}\n",
        ),
        spec("iotax-b", "crates/b/src/lib.rs", "fn run() { let _ = iotax_a::live_helper(3); }\n"),
        spec(
            "iotax-ml",
            "crates/ml/src/data.rs",
            include_str!("fixtures/unbounded_corpus_materialization_violating.rs"),
        ),
        spec(
            "iotax-metrics",
            "crates/metrics/src/agg.rs",
            include_str!("fixtures/unordered_float_reduction_violating.rs"),
        ),
    ]
}

fn render(outcome: &AuditOutcome) -> String {
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &outcome.report.findings, 0, outcome.report.suppressed)
        .expect("write to Vec");
    String::from_utf8(buf).expect("jsonl is utf-8")
}

fn run(specs: Vec<SourceSpec>, cache: Option<&Path>) -> AuditOutcome {
    let opts = DriverOptions { cache_dir: cache.map(Path::to_path_buf), changed: None };
    audit_sources(specs, &cfg(), opts)
}

/// A fresh, empty cache directory unique to this test.
fn tmp_cache(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iotax-incr-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create cache dir");
    d
}

#[test]
fn warm_run_is_byte_identical_and_parses_nothing() {
    let dir = tmp_cache("warm");
    let cold = run(corpus(), Some(&dir));
    assert_eq!(cold.parsed, corpus().len(), "cold run parses everything");
    assert!(!cold.report.findings.is_empty(), "corpus must produce findings");

    let warm = run(corpus(), Some(&dir));
    assert_eq!(render(&cold), render(&warm), "warm report must be byte-identical");
    assert_eq!(warm.parsed, 0, "unchanged warm run must parse nothing");
    assert!(warm.cache_warning.is_none(), "{:?}", warm.cache_warning);
}

#[test]
fn changed_file_reparses_only_itself() {
    let dir = tmp_cache("changed");
    run(corpus(), Some(&dir));

    let mut specs = corpus();
    specs[3].src.push_str("fn extra_metric() {}\n");
    let warm = run(specs.clone(), Some(&dir));
    // The report-level key missed (tree changed), and exactly the edited
    // file missed at the facts level.
    assert_eq!(warm.parsed, 1, "only the edited file re-parses");
    let cold = run(specs, None);
    assert_eq!(render(&cold), render(&warm));
}

#[test]
fn edit_that_alters_findings_is_reflected_through_the_cache() {
    let dir = tmp_cache("semantic");
    let before = run(corpus(), Some(&dir));
    assert!(
        before.report.findings.iter().any(|f| f.message.contains("`orphan`")),
        "{:?}",
        before.report.findings
    );

    // Consuming `orphan` from the other crate kills the dead-API finding
    // even though crates/a/src/lib.rs itself did not change — the global
    // rebuild must run on the cached facts, not replay stale findings.
    let mut specs = corpus();
    specs[1].src.push_str("fn also() { iotax_a::orphan(); }\n");
    let warm = run(specs.clone(), Some(&dir));
    assert!(
        !warm.report.findings.iter().any(|f| f.message.contains("`orphan`")),
        "{:?}",
        warm.report.findings
    );
    assert_eq!(render(&run(specs, None)), render(&warm));
}

#[test]
fn poisoned_cache_segment_degrades_to_cold_with_warning() {
    let dir = tmp_cache("poison");
    run(corpus(), Some(&dir));

    // Flip one byte in every segment file: CRC damage in both stores.
    for sub in ["report", "files"] {
        for entry in std::fs::read_dir(dir.join(sub)).expect("cache subdir exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "dlog") {
                let mut bytes = std::fs::read(&path).expect("read segment");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
                std::fs::write(&path, bytes).expect("write poisoned segment");
            }
        }
    }

    let warm = run(corpus(), Some(&dir));
    assert!(warm.cache_warning.is_some(), "damage must surface a warning");
    assert_eq!(warm.parsed, corpus().len(), "damaged cache falls back to cold analysis");
    assert_eq!(render(&run(corpus(), None)), render(&warm), "output must never be wrong");

    // The damaged store was wiped and rewritten: the next run is warm again.
    let healed = run(corpus(), Some(&dir));
    assert!(healed.cache_warning.is_none(), "{:?}", healed.cache_warning);
    assert_eq!(healed.parsed, 0, "rewritten cache serves the whole tree");
}

#[test]
fn truncated_cache_segment_degrades_to_cold_with_warning() {
    let dir = tmp_cache("truncate");
    run(corpus(), Some(&dir));

    for entry in std::fs::read_dir(dir.join("report")).expect("cache subdir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|x| x == "dlog") {
            let bytes = std::fs::read(&path).expect("read segment");
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate segment");
        }
    }

    let warm = run(corpus(), Some(&dir));
    assert!(warm.cache_warning.is_some(), "torn write must surface a warning");
    assert_eq!(render(&run(corpus(), None)), render(&warm));
}

#[test]
fn changed_since_scope_covers_dependents_and_is_reported() {
    let dir = tmp_cache("scope");
    // Changing crates/a/src/lib.rs must pull in crates/b/src/lib.rs,
    // which mentions `live_helper`.
    let opts = DriverOptions {
        cache_dir: Some(dir),
        changed: Some(vec!["crates/a/src/lib.rs".to_owned()]),
    };
    let out = audit_sources(corpus(), &cfg(), opts);
    let scope = out.scope.expect("scoped run reports its coverage");
    assert!(scope.contains(&"crates/a/src/lib.rs".to_owned()), "{scope:?}");
    assert!(scope.contains(&"crates/b/src/lib.rs".to_owned()), "dependent pulled in: {scope:?}");
    assert!(!scope.contains(&"crates/ml/src/data.rs".to_owned()), "unrelated file out: {scope:?}");
    // Findings are restricted to the scope — and say so via `scope`, never
    // by silently presenting a subset as the whole tree.
    assert!(
        out.report.findings.iter().all(|f| scope.contains(&f.file)),
        "{:?}",
        out.report.findings
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For ANY subset of files mutated in ANY of three ways, a warm run
    /// over the mutated corpus equals a cold run over the same corpus,
    /// byte for byte.
    #[test]
    fn warm_equals_cold_under_arbitrary_file_mutations(
        mask in 0u8..16,
        kind in 0u8..3,
        salt in 0u16..1000,
    ) {
        let dir = tmp_cache(&format!("prop-{mask}-{kind}-{salt}"));
        run(corpus(), Some(&dir));

        let mut specs = corpus();
        for (i, s) in specs.iter_mut().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            match kind {
                // New definition: changes facts and the symbol graph.
                0 => s.src.push_str(&format!("fn mutant_{salt}() {{}}\n")),
                // New finding site: changes this file's findings.
                1 => s.src.push_str(
                    "fn grow(ds: &SimDataset) -> Vec<u64> {\n    \
                         ds.jobs.iter().map(|j| j.id).collect()\n}\n",
                ),
                // Comment only: content hash changes, analysis does not.
                _ => s.src.push_str(&format!("// churn {salt}\n")),
            }
        }
        let warm = run(specs.clone(), Some(&dir));
        let cold = run(specs, None);
        prop_assert_eq!(render(&cold), render(&warm));
        prop_assert!(warm.cache_warning.is_none(), "{:?}", warm.cache_warning);
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join(format!(
            "iotax-incr-{}-prop-{mask}-{kind}-{salt}",
            std::process::id()
        )));
    }
}
