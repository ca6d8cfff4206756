//! Property tests for the lexer and analysis layer: total on arbitrary
//! input. The lexer underpins every lint, so it must never panic, never
//! produce an out-of-bounds or empty span, and always terminate — on any
//! byte soup, not just valid Rust.

use iotax_audit::audit_source;
use iotax_audit::driver::audit_sources;
use iotax_audit::items::{parse_items, MAX_DEPTH};
use iotax_audit::symbols::{analyze_file, FileRole, SourceSpec};
use iotax_audit::FileCx;
use proptest::prelude::*;

/// Item-declaration openers prepended to byte soup: the parser enters its
/// per-kind states (fn signatures, struct and enum bodies, use
/// declarations, macro bodies) and then meets garbage where it expects
/// structure.
const MAGIC_PREFIXES: &[&str] = &[
    "pub fn f(",
    "pub struct S {",
    "pub enum E {",
    "#[derive(Serialize)]\npub struct T {",
    "impl A for B {",
    "use iotax_sim::{a, b",
    "macro_rules! m { (",
    "pub mod inner { pub trait Q {",
];

/// Run the full audit pipeline, every lint on, over one in-memory source
/// file; returns the finding count. The engine — including the workspace
/// lock-order graph — must terminate without panicking on arbitrary byte
/// soup.
fn dataflow_findings(src: &str) -> usize {
    let spec = SourceSpec {
        krate: "iotax-prop".to_owned(),
        file: "crates/prop/src/lib.rs".to_owned(),
        role: FileRole::Lib,
        src: src.to_owned(),
    };
    audit_sources(vec![spec], false).findings.len()
}

#[test]
fn dataflow_is_total_on_degenerate_inputs() {
    for src in [
        "",
        "vec![",
        "let = = =",
        "{{{{",
        "fn f( { .lock(",
        "\u{0}\u{ff}",
        "fn g() { fn{} fn h() {} write(); rename(); }",
        "const _: () = { struct S { a: [u8; { fn f() {} 1 }] } };",
    ] {
        let _ = dataflow_findings(src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded) must lex without panicking, with
    /// every token in-bounds, non-empty, and in nondecreasing order.
    #[test]
    fn lexer_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let cx = FileCx::new(&src);
        let mut prev_hi = 0usize;
        for t in &cx.code {
            prop_assert!(t.lo < t.hi, "empty span at {}..{}", t.lo, t.hi);
            prop_assert!(t.hi <= src.len(), "span past EOF: {}..{}", t.lo, t.hi);
            prop_assert!(t.lo >= prev_hi, "overlapping tokens at {}", t.lo);
            prop_assert!(t.line >= 1 && t.col >= 1, "spans are 1-based");
            prev_hi = t.hi;
        }
    }

    /// The full per-file pipeline (lex → suppression parse → every lint)
    /// is total on arbitrary bytes: garbage in, findings or silence out,
    /// never a panic.
    #[test]
    fn audit_source_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = audit_source("fuzz", "fuzz.rs", &src, true);
    }

    /// Mostly-Rust-shaped text (identifiers, punctuation, quotes, comment
    /// starters) exercises the string/comment state machine harder than
    /// uniform bytes do.
    #[test]
    fn lexer_survives_rusty_soup(src in r#"[a-z_:;{}()<>"'/*!#&=.,\ -]{0,400}"#) {
        let cx = FileCx::new(&src);
        for t in &cx.code {
            prop_assert!(src.get(t.lo..t.hi).is_some(), "span must land on char boundaries");
        }
        let _ = audit_source("fuzz", "fuzz.rs", &src, true);
    }

    /// Lexing is deterministic: the same input yields the same tokens.
    #[test]
    fn lexing_is_deterministic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let src = String::from_utf8_lossy(&bytes);
        let a = FileCx::new(&src);
        let b = FileCx::new(&src);
        prop_assert_eq!(a.code.len(), b.code.len());
        for (x, y) in a.code.iter().zip(&b.code) {
            prop_assert_eq!((x.kind, x.lo, x.hi, x.line, x.col), (y.kind, y.lo, y.hi, y.line, y.col));
        }
    }

    /// The item parser is total on arbitrary bytes: no panic, every item
    /// anchored to a real token, and the recorded brace depth bounded.
    #[test]
    fn item_parser_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let cx = FileCx::new(&src);
        let items = parse_items(&cx);
        prop_assert!(items.max_depth <= MAX_DEPTH, "depth {} over bound", items.max_depth);
        for it in &items.items {
            prop_assert!(it.tok < cx.code.len(), "item anchored past EOF");
            if let Some(p) = it.parent {
                prop_assert!(p < items.items.len(), "dangling parent index");
            }
            if let Some((lo, hi)) = it.body {
                prop_assert!(lo <= hi && hi <= cx.code.len(), "body span out of bounds");
            }
        }
    }

    /// Byte soup behind a declaration opener forces the parser's per-kind
    /// states to recover from truncated or mangled structure.
    #[test]
    fn item_parser_is_total_on_magic_prefixed_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        for prefix in MAGIC_PREFIXES {
            let mut src = (*prefix).to_owned();
            src.push_str(&String::from_utf8_lossy(&bytes));
            let cx = FileCx::new(&src);
            let items = parse_items(&cx);
            prop_assert!(items.max_depth <= MAX_DEPTH);
            for it in &items.items {
                if let Some((lo, hi)) = it.body {
                    prop_assert!(lo <= hi && hi <= cx.code.len(), "body span out of bounds");
                }
            }
        }
    }

    /// Pathological nesting: the parser must clamp at MAX_DEPTH instead of
    /// recursing without bound or panicking.
    #[test]
    fn item_parser_bounds_brace_depth(n in 0usize..600) {
        let src = format!("fn f() {}{}", "{".repeat(n), "}".repeat(n));
        let cx = FileCx::new(&src);
        let items = parse_items(&cx);
        prop_assert!(items.max_depth <= MAX_DEPTH, "depth {} over bound", items.max_depth);
    }

    /// The whole per-file analysis (items + mention sets) is total too —
    /// this is what the workspace walk fans out over files.
    #[test]
    fn file_analysis_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let spec = SourceSpec {
            krate: "fuzz".to_owned(),
            file: "crates/fuzz/src/lib.rs".to_owned(),
            role: FileRole::Lib,
            src: String::from_utf8_lossy(&bytes).into_owned(),
        };
        let f = analyze_file(&spec);
        prop_assert!(f.items.max_depth <= MAX_DEPTH);
    }

    /// The dataflow/taint engine (def-use chains, guard scans, lock graph)
    /// is total on arbitrary bytes: garbage in, a finding count out, never
    /// a panic and never unbounded chain-following.
    #[test]
    fn dataflow_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = dataflow_findings(&src);
    }

    /// Byte soup behind a declaration opener lands the dataflow scans
    /// inside half-built fn bodies, struct fields, and macro arms — the
    /// states where def-use resolution meets truncated structure.
    #[test]
    fn dataflow_is_total_on_magic_prefixed_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        for prefix in MAGIC_PREFIXES {
            let mut src = (*prefix).to_owned();
            src.push_str(&String::from_utf8_lossy(&bytes));
            let _ = dataflow_findings(&src);
        }
    }

    /// Sink- and lock-shaped soup: force the taint tracer and acquisition
    /// scanner through their hot paths with mangled surroundings.
    #[test]
    fn dataflow_survives_sink_shaped_soup(
        soup in r#"[a-z_:;{}()<>"'/*!#&=.,|+\ -]{0,200}"#,
        pick in 0usize..5,
    ) {
        let seeds = [
            "fn f(r: &mut R) -> V { let n = r.varint(); Vec::with_capacity(",
            "fn g() { let m = a.lock(); let n = b.lock(); ",
            "fn i(xs: &[f64]) { xs.par_iter().map(|x| x).fold(",
            "fn j(r: &mut R) { let n = r.u32_le(); vec![0u8; ",
            "struct S { a: Mutex<u64>, b: RwLock<",
        ];
        let src = format!("{}{soup}", seeds[pick]);
        let _ = dataflow_findings(&src);
    }
}
