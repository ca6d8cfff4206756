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

use iotax_audit::driver::{audit_sources as audit, AuditReport};
use iotax_audit::symbols::{FileRole, SourceSpec};
use iotax_audit::{write_jsonl, AuditConfig};

fn cfg(toml: &str) -> AuditConfig {
    AuditConfig::from_toml(toml, "fixture.toml", &iotax_audit::known_lint_names())
        .expect("fixture config parses")
}

fn spec(krate: &str, file: &str, role: FileRole, src: &str) -> SourceSpec {
    SourceSpec { krate: krate.to_owned(), file: file.to_owned(), role, src: src.to_owned() }
}

// ---------------------------------------------------------------------------
// seed-provenance
// ---------------------------------------------------------------------------

const SEED_TOML: &str = "[default]\nseed-provenance = true\n";

fn seed_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-sim", "crates/fixture-sim/src/gen.rs", FileRole::Lib, src)]
}

#[test]
fn seed_provenance_catches_literal_and_ambient_seeds() {
    let r =
        audit(seed_corpus(include_str!("fixtures/seed_provenance_violating.rs")), &cfg(SEED_TOML));
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
    let r =
        audit(seed_corpus(include_str!("fixtures/seed_provenance_suppressed.rs")), &cfg(SEED_TOML));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn seed_provenance_parameter_seeded_rngs_pass() {
    let r = audit(seed_corpus(include_str!("fixtures/seed_provenance_clean.rs")), &cfg(SEED_TOML));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// dead-public-api
// ---------------------------------------------------------------------------

const DEAD_TOML: &str = "[default]\ndead-public-api = true\n";

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
        &cfg(DEAD_TOML),
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
        &cfg(DEAD_TOML),
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
        &cfg(DEAD_TOML),
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
    let r = audit(specs.clone(), &cfg(DEAD_TOML));
    assert_eq!(r.findings.len(), 1, "test-only consumers must not count: {:?}", r.findings);
}

// ---------------------------------------------------------------------------
// untrusted-length-allocation
// ---------------------------------------------------------------------------

const ULA_TOML: &str = "[default]\nuntrusted-length-allocation = true\n";

fn ula_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-wire", "crates/fixture-wire/src/parse.rs", FileRole::Lib, src)]
}

#[test]
fn untrusted_length_allocation_catches_uncapped_wire_lengths() {
    let r = audit(
        ula_corpus(include_str!("fixtures/untrusted_length_allocation_violating.rs")),
        &cfg(ULA_TOML),
    );
    // One tainted `.take(n)`, one tainted `with_capacity(n)`: both caught,
    // each naming the wire source it traced to.
    assert!(r.findings.iter().all(|f| f.lint == "untrusted-length-allocation"), "{:?}", r.findings);
    assert!(r.findings.iter().any(|f| f.message.contains("`varint`")), "{:?}", r.findings);
    assert!(r.findings.iter().any(|f| f.message.contains("`u32_le`")), "{:?}", r.findings);
    assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
}

#[test]
fn untrusted_length_allocation_suppressed_corpus_is_quiet_and_counted() {
    let r = audit(
        ula_corpus(include_str!("fixtures/untrusted_length_allocation_suppressed.rs")),
        &cfg(ULA_TOML),
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn untrusted_length_allocation_capped_lengths_pass() {
    let r = audit(
        ula_corpus(include_str!("fixtures/untrusted_length_allocation_clean.rs")),
        &cfg(ULA_TOML),
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// unordered-float-reduction
// ---------------------------------------------------------------------------

const UFR_TOML: &str = "[default]\nunordered-float-reduction = true\n";

fn ufr_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-metrics", "crates/fixture-metrics/src/agg.rs", FileRole::Lib, src)]
}

#[test]
fn unordered_float_reduction_catches_hash_ordered_sums() {
    let r = audit(
        ufr_corpus(include_str!("fixtures/unordered_float_reduction_violating.rs")),
        &cfg(UFR_TOML),
    );
    assert!(r.findings.iter().all(|f| f.lint == "unordered-float-reduction"), "{:?}", r.findings);
    assert!(r.findings.iter().any(|f| f.message.contains("hash container")), "{:?}", r.findings);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
}

#[test]
fn unordered_float_reduction_suppressed_corpus_is_quiet_and_counted() {
    let r = audit(
        ufr_corpus(include_str!("fixtures/unordered_float_reduction_suppressed.rs")),
        &cfg(UFR_TOML),
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn unordered_float_reduction_sequential_and_btreemap_reductions_pass() {
    let r = audit(
        ufr_corpus(include_str!("fixtures/unordered_float_reduction_clean.rs")),
        &cfg(UFR_TOML),
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// lock-order-cycle
// ---------------------------------------------------------------------------

const LOC_TOML: &str = "[default]\nlock-order-cycle = true\n";

fn loc_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-locks", "crates/fixture-locks/src/registry.rs", FileRole::Lib, src)]
}

#[test]
fn lock_order_cycle_catches_opposite_acquisition_orders() {
    let r =
        audit(loc_corpus(include_str!("fixtures/lock_order_cycle_violating.rs")), &cfg(LOC_TOML));
    // One cycle set → exactly one finding, naming both locks.
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].lint, "lock-order-cycle");
    assert!(r.findings[0].message.contains("fixture-locks::index"), "{:?}", r.findings);
    assert!(r.findings[0].message.contains("fixture-locks::store"), "{:?}", r.findings);
}

#[test]
fn lock_order_cycle_suppressed_corpus_is_quiet_and_counted() {
    let r =
        audit(loc_corpus(include_str!("fixtures/lock_order_cycle_suppressed.rs")), &cfg(LOC_TOML));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn lock_order_cycle_consistent_order_passes() {
    let r = audit(loc_corpus(include_str!("fixtures/lock_order_cycle_clean.rs")), &cfg(LOC_TOML));
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// unbounded-corpus-materialization (corpus-cardinality taint)
// ---------------------------------------------------------------------------

const UCM_TOML: &str = "[default]\nunbounded-corpus-materialization = true\n";

fn capacity_corpus(src: &str) -> Vec<SourceSpec> {
    vec![spec("fixture-ml", "crates/fixture-ml/src/data.rs", FileRole::Lib, src)]
}

#[test]
fn unbounded_corpus_materialization_catches_collect_and_growing_container() {
    let r = audit(
        capacity_corpus(include_str!("fixtures/unbounded_corpus_materialization_violating.rs")),
        &cfg(UCM_TOML),
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
        &cfg(UCM_TOML),
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn unbounded_corpus_materialization_bounded_streams_pass() {
    let r = audit(
        capacity_corpus(include_str!("fixtures/unbounded_corpus_materialization_clean.rs")),
        &cfg(UCM_TOML),
    );
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 0);
}

// ---------------------------------------------------------------------------
// Ordering: one canonical diagnostic order, independent of input order
// and parallel scheduling
// ---------------------------------------------------------------------------

const ALL_TOML: &str = "[default]\nseed-provenance = true\ndead-public-api = \
                        true\nuntrusted-length-allocation = true\nunordered-float-reduction = \
                        true\nlock-order-cycle = true\nunbounded-corpus-materialization = \
                        true\n";

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
            "fixture-metrics",
            "crates/fixture-metrics/src/agg.rs",
            FileRole::Lib,
            include_str!("fixtures/unordered_float_reduction_violating.rs"),
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
    let forward = render(&audit(specs.clone(), &cfg(ALL_TOML)));
    specs.reverse();
    let backward = render(&audit(specs.clone(), &cfg(ALL_TOML)));
    assert_eq!(forward, backward, "diagnostic order must not depend on input order");
    // And across repeated runs: nothing run-dependent may leak into the
    // report's order.
    specs.reverse();
    for _ in 0..3 {
        assert_eq!(forward, render(&audit(specs.clone(), &cfg(ALL_TOML))));
    }
}

#[test]
fn mixed_corpus_jsonl_matches_golden() {
    let got = render(&audit(mixed_corpus(), &cfg(ALL_TOML)));
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
