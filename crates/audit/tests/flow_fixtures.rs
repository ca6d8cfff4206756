//! Fixture triples for the cross-file flow and dataflow analyses. Each
//! lint has a violating corpus (must fire), a suppressed corpus (silent,
//! suppression counted), and a clean corpus (silent, nothing suppressed)
//! — the same contract the token-lint fixtures pin, lifted to multi-file
//! inputs.
//!
//! The corpora are built in memory and run through `audit_sources`, the
//! same seam the workspace walk feeds, so these tests exercise the real
//! engine: item parsing, the symbol table, and suppression handling
//! across files.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions fail the test by panicking, as the tests do"
)]

use iotax_audit::driver::{audit_sources, AuditReport};
use iotax_audit::symbols::{FileRole, SourceSpec};
use iotax_audit::write_jsonl;

/// Audit `specs` with every lint on, and keep only `lint`'s findings.
fn audit(specs: Vec<SourceSpec>, lint: &str) -> AuditReport {
    let mut report = audit_sources(specs, false);
    report.findings.retain(|f| f.lint == lint);
    report
}

fn spec(krate: &str, file: &str, role: FileRole, src: &str) -> SourceSpec {
    SourceSpec { krate: krate.to_owned(), file: file.to_owned(), role, src: src.to_owned() }
}

// ---------------------------------------------------------------------------
// seed-provenance
// ---------------------------------------------------------------------------

const SEED: &str = "seed-provenance";

fn seed_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-sim", "crates/fixture-sim/src/gen.rs", FileRole::Lib, src)]
}

#[test]
fn seed_provenance_catches_literal_and_ambient_seeds() {
    let r = audit(seed_corpus(include_str!("fixtures/seed_provenance_violating.rs")), SEED);
    assert!(
        r.findings.iter().all(|f| f.lint == "seed-provenance"),
        "unexpected extra lint fired: {:?}",
        r.findings
    );
    // One literal-seeded RNG, one wall-clock-seeded RNG: both caught.
    assert!(
        r.findings.iter().any(|f| f.message.contains("hard-coded literal")),
        "literal seed not caught: {:?}",
        r.findings
    );
    assert!(
        r.findings.iter().any(|f| f.message.contains("ambient source")),
        "wall-clock seed not caught: {:?}",
        r.findings
    );
    assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
}

#[test]
fn seed_provenance_suppressed_corpus_is_quiet_and_counted() {
    let r = audit(seed_corpus(include_str!("fixtures/seed_provenance_suppressed.rs")), SEED);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn seed_provenance_parameter_seeded_rngs_pass() {
    let r = audit(seed_corpus(include_str!("fixtures/seed_provenance_clean.rs")), SEED);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// dead-public-api
// ---------------------------------------------------------------------------

const DEAD: &str = "dead-public-api";

fn dead_corpus(lib_src: &str, consumer_src: &str) -> Vec<SourceSpec> {
    vec![
        spec("fixture-a", "crates/fixture-a/src/lib.rs", FileRole::Lib, lib_src),
        spec("fixture-b", "crates/fixture-b/src/main.rs", FileRole::Bin, consumer_src),
    ]
}

#[test]
fn dead_public_api_catches_unreferenced_pub_item() {
    let r = audit(
        dead_corpus(
            include_str!("fixtures/dead_public_api_violating.rs"),
            include_str!("fixtures/dead_public_api_consumer_quiet.rs"),
        ),
        DEAD,
    );
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].lint, "dead-public-api");
    assert!(r.findings[0].message.contains("`orphan_transform`"), "{:?}", r.findings);
}

#[test]
fn dead_public_api_suppressed_corpus_is_quiet_and_counted() {
    let r = audit(
        dead_corpus(
            include_str!("fixtures/dead_public_api_suppressed.rs"),
            include_str!("fixtures/dead_public_api_consumer_quiet.rs"),
        ),
        DEAD,
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn dead_public_api_cross_crate_consumer_keeps_item_alive() {
    let r = audit(
        dead_corpus(
            include_str!("fixtures/dead_public_api_violating.rs"),
            include_str!("fixtures/dead_public_api_consumer_using.rs"),
        ),
        DEAD,
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

#[test]
fn dead_public_api_test_references_do_not_keep_items_alive() {
    // The same consumer source, but in a `tests/` target: by policy a pub
    // item referenced only by tests is still dead API.
    let specs = vec![
        spec(
            "fixture-a",
            "crates/fixture-a/src/lib.rs",
            FileRole::Lib,
            include_str!("fixtures/dead_public_api_violating.rs"),
        ),
        spec(
            "fixture-b",
            "crates/fixture-b/tests/integration.rs",
            FileRole::Test,
            include_str!("fixtures/dead_public_api_consumer_using.rs"),
        ),
    ];
    let r = audit(specs.clone(), DEAD);
    assert_eq!(r.findings.len(), 1, "test-only consumers must not count: {:?}", r.findings);
}

// ---------------------------------------------------------------------------
// untrusted-length-allocation
// ---------------------------------------------------------------------------

const ULA: &str = "untrusted-length-allocation";

fn ula_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-wire", "crates/fixture-wire/src/parse.rs", FileRole::Lib, src)]
}

#[test]
fn untrusted_length_allocation_catches_uncapped_wire_lengths() {
    let r =
        audit(ula_corpus(include_str!("fixtures/untrusted_length_allocation_violating.rs")), ULA);
    // One tainted `.take(n)`, one tainted `with_capacity(n)`: both caught,
    // each naming the wire source it traced to.
    assert!(r.findings.iter().all(|f| f.lint == "untrusted-length-allocation"), "{:?}", r.findings);
    assert!(r.findings.iter().any(|f| f.message.contains("`varint`")), "{:?}", r.findings);
    assert!(r.findings.iter().any(|f| f.message.contains("`u32_le`")), "{:?}", r.findings);
    assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
}

#[test]
fn untrusted_length_allocation_suppressed_corpus_is_quiet_and_counted() {
    let r =
        audit(ula_corpus(include_str!("fixtures/untrusted_length_allocation_suppressed.rs")), ULA);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn untrusted_length_allocation_capped_lengths_pass() {
    let r = audit(ula_corpus(include_str!("fixtures/untrusted_length_allocation_clean.rs")), ULA);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// lock-order-cycle
// ---------------------------------------------------------------------------

const LOC: &str = "lock-order-cycle";

fn loc_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-locks", "crates/fixture-locks/src/registry.rs", FileRole::Lib, src)]
}

#[test]
fn lock_order_cycle_catches_opposite_acquisition_orders() {
    let r = audit(loc_corpus(include_str!("fixtures/lock_order_cycle_violating.rs")), LOC);
    // One cycle set → exactly one finding, naming both locks.
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].lint, "lock-order-cycle");
    assert!(r.findings[0].message.contains("fixture-locks::index"), "{:?}", r.findings);
    assert!(r.findings[0].message.contains("fixture-locks::store"), "{:?}", r.findings);
}

#[test]
fn lock_order_cycle_suppressed_corpus_is_quiet_and_counted() {
    let r = audit(loc_corpus(include_str!("fixtures/lock_order_cycle_suppressed.rs")), LOC);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn lock_order_cycle_consistent_order_passes() {
    let r = audit(loc_corpus(include_str!("fixtures/lock_order_cycle_clean.rs")), LOC);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// unbounded-corpus-materialization (corpus-cardinality taint)
// ---------------------------------------------------------------------------

const UCM: &str = "unbounded-corpus-materialization";

fn capacity_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-ml", "crates/fixture-ml/src/data.rs", FileRole::Lib, src)]
}

#[test]
fn unbounded_corpus_materialization_catches_collect_and_growing_container() {
    let r = audit(
        capacity_corpus(include_str!("fixtures/unbounded_corpus_materialization_violating.rs")),
        UCM,
    );
    assert!(
        r.findings.iter().all(|f| f.lint == "unbounded-corpus-materialization"),
        "{:?}",
        r.findings
    );
    // One whole-corpus `.collect()`, one per-job push into an outliving
    // container: both caught, each naming the corpus source.
    assert!(r.findings.iter().any(|f| f.message.contains("`.collect(")), "{:?}", r.findings);
    assert!(r.findings.iter().any(|f| f.message.contains("container `out`")), "{:?}", r.findings);
    assert!(r.findings.iter().all(|f| f.message.contains("`jobs`")), "{:?}", r.findings);
    assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
}

#[test]
fn unbounded_corpus_materialization_suppressed_corpus_is_quiet_and_counted() {
    let r = audit(
        capacity_corpus(include_str!("fixtures/unbounded_corpus_materialization_suppressed.rs")),
        UCM,
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn unbounded_corpus_materialization_bounded_streams_pass() {
    let r = audit(
        capacity_corpus(include_str!("fixtures/unbounded_corpus_materialization_clean.rs")),
        UCM,
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// Ordering: one canonical diagnostic order, independent of input order
// and parallel scheduling
// ---------------------------------------------------------------------------

const FLOW_AND_DATAFLOW: &[&str] = &[SEED, DEAD, ULA, LOC, UCM];

/// A corpus that makes every flow and dataflow analysis fire at least once.
fn mixed_corpus() -> Vec<SourceSpec> {
    vec![
        spec(
            "fixture-sim",
            "crates/fixture-sim/src/gen.rs",
            FileRole::Lib,
            include_str!("fixtures/seed_provenance_violating.rs"),
        ),
        spec(
            "fixture-a",
            "crates/fixture-a/src/lib.rs",
            FileRole::Lib,
            include_str!("fixtures/dead_public_api_violating.rs"),
        ),
        spec(
            "fixture-wire",
            "crates/fixture-wire/src/parse.rs",
            FileRole::Lib,
            include_str!("fixtures/untrusted_length_allocation_violating.rs"),
        ),
        spec(
            "fixture-locks",
            "crates/fixture-locks/src/registry.rs",
            FileRole::Lib,
            include_str!("fixtures/lock_order_cycle_violating.rs"),
        ),
        spec(
            "fixture-ml",
            "crates/fixture-ml/src/data.rs",
            FileRole::Lib,
            include_str!("fixtures/unbounded_corpus_materialization_violating.rs"),
        ),
    ]
}

fn render(r: &AuditReport) -> String {
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &r.findings, r.suppressed).expect("write to Vec");
    String::from_utf8(buf).expect("jsonl is utf-8")
}

#[test]
fn report_is_byte_identical_regardless_of_corpus_order() {
    let mut specs = mixed_corpus();
    let forward = render(&audit_sources(specs.clone(), false));
    specs.reverse();
    let backward = render(&audit_sources(specs.clone(), false));
    assert_eq!(forward, backward, "diagnostic order must not depend on input order");
    // And across repeated runs: nothing run-dependent may leak into the
    // report's order.
    specs.reverse();
    for _ in 0..3 {
        assert_eq!(forward, render(&audit_sources(specs.clone(), false)));
    }
}

#[test]
fn mixed_corpus_jsonl_matches_golden() {
    // The golden pins the flow and dataflow lints' findings; the token
    // lints have their own fixtures.
    let mut report = audit_sources(mixed_corpus(), false);
    report.findings.retain(|f| FLOW_AND_DATAFLOW.contains(&f.lint.as_str()));
    let got = render(&report);
    let want = include_str!("golden/flow_overview.jsonl");
    if got != want {
        // Drop the new output next to the golden so an intentional format
        // change is a file copy, not a transcription job.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flow_overview.jsonl.new");
        std::fs::write(path, &got).expect("write regeneration candidate");
    }
    assert_eq!(
        got, want,
        "flow diagnostic order/format drifted from the pinned golden file; if intentional, \
         promote tests/golden/flow_overview.jsonl.new"
    );
}
