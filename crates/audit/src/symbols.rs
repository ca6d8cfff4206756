//! The workspace symbol layer: per-file analyses bundled with enough
//! cross-file structure (definitions, identifier usage) for the flow
//! analyses in [`crate::flow`] to reason across crate boundaries.
//!
//! The model is deliberately name-based. A real resolver needs type
//! inference; this workspace needs something weaker but trustworthy: "is
//! this public item's name mentioned by any other crate?". Name
//! collisions make the answer conservative (an item shadowed by an
//! unrelated same-name mention counts as referenced), which is the
//! correct failure direction for a linter — missed findings, never false
//! alarms.

use crate::context::FileCx;
use crate::items::{parse_items, FileItems};
use crate::lexer::TokKind;
use std::collections::BTreeSet;

/// What kind of target a source file belongs to. Determines whether its
/// identifier mentions keep a public API alive and whether per-site
/// analyses run on it at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// audit:allow(dead-public-api) -- type of SourceSpec's public `role` field; tests/flow_fixtures.rs builds SourceSpecs
pub enum FileRole {
    /// Library code under `src/` — the definitions being audited.
    Lib,
    /// A binary target (`src/bin/…`, `src/main.rs`).
    Bin,
    /// An example (`examples/…`).
    Example,
    /// A benchmark (`benches/…`).
    Bench,
    /// An integration test (`tests/…`). Mentions here do not keep a
    /// public API alive, and per-site analyses skip these files.
    Test,
}

impl FileRole {
    /// Classify a workspace-relative path (forward slashes).
    pub(crate) fn from_rel(rel: &str) -> Self {
        let has = |seg: &str| {
            rel.split('/').any(|c| c == seg)
                // The segment must be a directory, not the file itself.
                && !rel.ends_with(&format!("{seg}.rs"))
        };
        if has("tests") {
            FileRole::Test
        } else if has("benches") {
            FileRole::Bench
        } else if has("examples") {
            FileRole::Example
        } else if has("bin") || rel.ends_with("src/main.rs") || rel == "main.rs" {
            FileRole::Bin
        } else {
            FileRole::Lib
        }
    }

    /// Does a mention in a file of this role keep a public API alive?
    /// Tests do not — a pub item referenced only by tests is still dead
    /// API by this audit's definition.
    pub(crate) fn counts_as_consumer(self) -> bool {
        !matches!(self, FileRole::Test)
    }
}

/// One source file fed to the corpus: identity plus content. This is the
/// seam fixture tests drive — no filesystem involved.
#[derive(Debug, Clone)]
// audit:allow(dead-public-api) -- input of audit_sources, the corpus seam tests/flow_fixtures.rs drives
pub struct SourceSpec {
    /// Package name (`iotax-sim`).
    pub krate: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// Target classification.
    pub role: FileRole,
    /// File content.
    pub src: String,
}

/// Per-file analysis: token context, item tree, and the identifier sets
/// the cross-file passes consume.
// audit:allow(dead-public-api) -- return type of analyze_file, the seam tests/prop.rs drives
pub struct FileAnalysis<'a> {
    /// The file's identity and source.
    pub spec: &'a SourceSpec,
    /// Token-level context (code tokens, test regions, suppressions).
    pub cx: FileCx<'a>,
    /// Item tree.
    pub items: FileItems,
    /// Identifiers mentioned in non-test code plus words in doc comments.
    /// This is the reference set for dead-API detection: doc examples are
    /// real consumers, `#[cfg(test)]` regions are not.
    pub mentions: BTreeSet<String>,
    /// Identifiers mentioned inside `macro_rules!` bodies. An exported
    /// macro's body expands at *external* call sites, so `$crate::foo`
    /// inside one keeps `foo` alive even with zero direct references.
    pub macro_mentions: BTreeSet<String>,
}

/// Analyze one file. Pure; safe to fan out over files in parallel.
// audit:allow(dead-public-api) -- the per-file analysis seam tests/prop.rs drives
pub fn analyze_file(spec: &SourceSpec) -> FileAnalysis<'_> {
    let cx = FileCx::new(&spec.src);
    let items = parse_items(&cx);
    let mut mentions = BTreeSet::new();
    for i in 0..cx.code.len() {
        if cx.kind(i) == TokKind::Ident && !cx.is_test(i) {
            mentions.insert(cx.text(i).to_owned());
        }
    }
    let mut macro_mentions = BTreeSet::new();
    for item in &items.items {
        if item.kind != crate::items::ItemKind::Macro {
            continue;
        }
        if let Some((lo, hi)) = item.body {
            for i in lo..hi.min(cx.code.len()) {
                if cx.kind(i) == TokKind::Ident {
                    macro_mentions.insert(cx.text(i).to_owned());
                }
            }
        }
    }
    // Doc comments keep an API alive: the facade quickstart and module
    // examples are real consumers. Plain comments are not.
    for body in cx.doc_comments() {
        for word in body.split(|c: char| !c.is_alphanumeric() && c != '_') {
            if !word.is_empty() && !word.starts_with(|c: char| c.is_ascii_digit()) {
                mentions.insert(word.to_owned());
            }
        }
    }
    FileAnalysis { cx, items, mentions, macro_mentions, spec }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(krate: &str, file: &str, src: &str) -> SourceSpec {
        SourceSpec {
            krate: krate.to_owned(),
            file: file.to_owned(),
            role: FileRole::from_rel(file),
            src: src.to_owned(),
        }
    }

    #[test]
    fn roles_from_paths() {
        assert_eq!(FileRole::from_rel("crates/sim/src/fault.rs"), FileRole::Lib);
        assert_eq!(FileRole::from_rel("crates/cli/src/bin/iotax_analyze.rs"), FileRole::Bin);
        assert_eq!(FileRole::from_rel("crates/sim/tests/chaos.rs"), FileRole::Test);
        assert_eq!(FileRole::from_rel("tests/chaos.rs"), FileRole::Test);
        assert_eq!(FileRole::from_rel("examples/quickstart.rs"), FileRole::Example);
        assert_eq!(FileRole::from_rel("crates/bench/benches/obs.rs"), FileRole::Bench);
        // Files merely *named* like the directory markers stay Lib.
        assert_eq!(FileRole::from_rel("crates/sim/src/tests.rs"), FileRole::Lib);
    }

    #[test]
    fn mentions_include_code_and_doc_comments_not_tests() {
        let s = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            r#"
                //! Call [`frobnicate`] to begin.
                fn body() { helper(); }
                #[cfg(test)]
                mod tests {
                    fn t() { test_only(); }
                }
            "#,
        );
        let f = analyze_file(&s);
        assert!(f.mentions.contains("frobnicate"), "doc-comment word");
        assert!(f.mentions.contains("helper"), "code ident");
        assert!(!f.mentions.contains("test_only"), "test region excluded");
    }
}
