//! The lint driver: walks workspace crates, runs every lint on every
//! source file, applies suppressions, and emits [`Finding`]s, each
//! naming the innermost item around it.
//!
//! # Pipeline
//!
//! One pass over the corpus, each phase under its own span:
//!
//! 1. **`audit.parse`**: every file is lexed and parsed once into a
//!    [`FileAnalysis`], and the workspace taint call summaries are
//!    collected from the non-test files;
//! 2. **`audit.flow`**: the workspace pass dead-public-api runs over all
//!    analyses ([`flow`]);
//! 3. **`audit.dataflow`**: the workspace lock-order graph is built and
//!    checked for cycles ([`dataflow`]);
//! 4. **`audit.lint`**: the per-file passes run, their findings merge
//!    with the workspace findings, and every file is finalized: suppressed,
//!    checked by the meta-lints, and named.
//!
//! A reasoned waiver is the one way to accept a finding. Two meta-lints
//! police the waivers; they are always on and cannot be disabled:
//!
//! * `bad-suppression` — an `audit:allow` comment with no `-- reason`, or
//!   naming a lint that does not exist. Unreviewable waivers are findings.
//! * `unused-suppression` — an `audit:allow` that suppressed nothing.
//!   Stale waivers rot into false documentation, so they must be removed.

use crate::context::{FileCx, Suppression};
use crate::dataflow;
use crate::diag::Finding;
use crate::flow;
use crate::items::{parse_items, FileItems};
use crate::lints::{self, RawFinding};
use crate::symbols::{analyze_file, FileAnalysis, FileRole, SourceSpec};
use iotax_obs::{Error, ErrorKind, Result};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Result of auditing one file.
// audit:allow(dead-public-api) -- return type of audit_source, the seam tests/lint_fixtures.rs drives
pub struct FileReport {
    /// Findings that survived suppression, in source order.
    pub findings: Vec<Finding>,
    /// Count of findings removed by (reasoned or not) suppressions.
    pub suppressed: usize,
}

/// Result of auditing the workspace or an in-memory corpus.
#[derive(Default)]
// audit:allow(dead-public-api) -- return type of the public audit_workspace, which the iotax-audit bin calls
pub struct AuditReport {
    /// All surviving findings, ordered by (file, line, col).
    pub findings: Vec<Finding>,
    /// Total suppressed-finding count.
    pub suppressed: usize,
}

/// Audit one in-memory source file with the token lint only: no
/// filesystem and no cross-file passes.
// audit:allow(dead-public-api) -- the single-file seam tests/lint_fixtures.rs and tests/prop.rs drive
pub fn audit_source(krate: &str, file: &str, src: &str, include_tests: bool) -> FileReport {
    let cx = FileCx::new(src);
    let items = parse_items(&cx);
    let mut raw = lints::unsynced_durable_write(&cx, &items, include_tests);
    raw.sort_by_key(|f| (f.line, f.col));
    let (findings, suppressed) = finalize(krate, file, &cx.suppressions, &items, &raw);
    FileReport { findings, suppressed }
}

/// Apply suppressions and meta-lints to a file's position-sorted
/// findings, then assemble [`Finding`]s named by the items around them.
fn finalize(
    krate: &str,
    file: &str,
    suppressions: &[Suppression],
    items: &FileItems,
    sites: &[RawFinding],
) -> (Vec<Finding>, usize) {
    // Apply suppressions. Index i tracks how many findings each used.
    let known: Vec<&str> = lints::known_lint_names();
    let mut used = vec![0usize; suppressions.len()];
    let mut survivors: Vec<&RawFinding> = Vec::new();
    let mut suppressed = 0usize;
    for f in sites {
        let mut hit = false;
        for (si, s) in suppressions.iter().enumerate() {
            let line_match = match s.target_line {
                None => true, // file-level
                Some(line) => line == f.line,
            };
            if line_match && s.lints.iter().any(|l| l == f.lint) {
                used[si] += 1;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            survivors.push(f);
        }
    }

    // Meta-lints over the suppressions themselves. They sit on a comment,
    // not a code token, so their item path is empty.
    let mut meta: Vec<RawFinding> = Vec::new();
    let meta_site = |line: u32, lint: &'static str, message: String| RawFinding {
        lint,
        line,
        col: 1,
        tok: usize::MAX,
        message,
    };
    for (si, s) in suppressions.iter().enumerate() {
        for l in &s.lints {
            if !known.contains(&l.as_str()) {
                meta.push(meta_site(
                    s.comment_line,
                    "bad-suppression",
                    format!("suppression names unknown lint `{l}`"),
                ));
            }
        }
        if s.reason.is_none() {
            meta.push(meta_site(
                s.comment_line,
                "bad-suppression",
                format!(
                    "suppression of `{}` has no `-- reason`; every waiver must say why",
                    s.lints.join(", ")
                ),
            ));
        }
        if used[si] == 0 && s.lints.iter().all(|l| known.contains(&l.as_str())) {
            meta.push(meta_site(
                s.comment_line,
                "unused-suppression",
                format!("suppression of `{}` matched no finding; remove it", s.lints.join(", ")),
            ));
        }
    }

    let mut findings: Vec<Finding> = survivors
        .iter()
        .copied()
        .chain(meta.iter())
        .map(|f| Finding {
            lint: f.lint.to_owned(),
            krate: krate.to_owned(),
            file: file.to_owned(),
            line: f.line,
            col: f.col,
            item: items.path_at(f.tok).to_owned(),
            message: f.message.clone(),
        })
        .collect();
    findings.sort_by_key(|f| (f.line, f.col, f.lint.clone()));
    (findings, suppressed)
}

/// Every per-file lint pass over one analysis, in canonical order: the
/// token lint, then the flow pass, then the dataflow/taint passes.
/// Returns position-sorted findings.
fn file_sites(
    f: &FileAnalysis<'_>,
    include_tests: bool,
    summaries: &BTreeSet<String>,
) -> Vec<RawFinding> {
    let mut raw = if f.spec.role == FileRole::Test && !include_tests {
        Vec::new()
    } else {
        lints::unsynced_durable_write(&f.cx, &f.items, include_tests)
    };
    if f.spec.role != FileRole::Test {
        // Per-site flow + dataflow analyses skip test targets entirely.
        raw.extend(flow::seed_provenance(f));
        raw.extend(dataflow::untrusted_length_allocation(f, summaries));
    }
    raw.sort_by_key(|r| (r.line, r.col));
    raw
}

/// Audit an in-memory corpus: every file analyzed once, the workspace
/// passes over all analyses, then the per-file passes and finalization.
/// This is the engine behind [`audit_workspace`]; see the module docs for
/// the phases.
///
/// Test-target files (`tests/…`) always join the corpus, but the token
/// lint skips them unless `include_tests` is set.
// audit:allow(dead-public-api) -- the in-memory corpus seam tests/flow_fixtures.rs drives
pub fn audit_sources(specs: Vec<SourceSpec>, include_tests: bool) -> AuditReport {
    let (files, summaries) = {
        let _span = iotax_obs::span!("audit.parse");
        iotax_obs::counter!("audit.files").incr(specs.len() as u64);
        let files: Vec<FileAnalysis<'_>> = specs.iter().map(analyze_file).collect();
        // Cross-file taint call summaries: the union the def-use pass
        // consumes. Only non-test targets contribute.
        let summaries: BTreeSet<String> = files
            .iter()
            .filter(|f| f.spec.role != FileRole::Test)
            .flat_map(dataflow::summary_fns)
            .collect();
        (files, summaries)
    };

    // Workspace passes: findings indexed by file.
    let mut workspace: Vec<Vec<RawFinding>> = files.iter().map(|_| Vec::new()).collect();
    {
        let _span = iotax_obs::span!("audit.flow");
        for (fi, s) in flow::dead_public_api(&files) {
            workspace[fi].push(s);
        }
    }
    {
        let _span = iotax_obs::span!("audit.dataflow");
        for (fi, s) in dataflow::lock_order_cycle(&files) {
            workspace[fi].push(s);
        }
    }

    // Per-file passes, then finalize: merge, suppress, name.
    let _span = iotax_obs::span!("audit.lint");
    let sites: Vec<Vec<RawFinding>> =
        files.iter().map(|f| file_sites(f, include_tests, &summaries)).collect();
    let mut report = AuditReport::default();
    for ((f, mut merged), mut ws) in files.iter().zip(sites).zip(workspace) {
        merged.append(&mut ws);
        merged.sort_by_key(|a| (a.line, a.col)); // stable
        let (findings, suppressed) =
            finalize(&f.spec.krate, &f.spec.file, &f.cx.suppressions, &f.items, &merged);
        report.findings.extend(findings);
        report.suppressed += suppressed;
    }

    sort_report(&mut report.findings);
    report
}

/// The one canonical diagnostic order: path, then position, then lint,
/// then message. Every entry point sorts with this before returning, so
/// output never depends on directory-walk or scheduling order.
fn sort_report(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.lint, &a.message)
            .cmp(&(&b.file, b.line, b.col, &b.lint, &b.message))
    });
}

/// Load every source file of the package rooted at `dir` into `specs`.
/// Test targets always load; the token lint decides per file whether to
/// skip them.
fn collect_package_specs(
    root: &Path,
    dir: &Path,
    krate: &str,
    specs: &mut Vec<SourceSpec>,
) -> Result<()> {
    for sub in ["src", "benches", "examples", "tests"] {
        let base = dir.join(sub);
        if !base.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&base, &mut files)?;
        files.sort();
        for path in files {
            let src = std::fs::read_to_string(&path).map_err(|e| {
                Error::new(ErrorKind::Io, format!("reading {}: {e}", path.display()))
            })?;
            let rel = rel_display(root, &path);
            let role = FileRole::from_rel(&rel);
            specs.push(SourceSpec { krate: krate.to_owned(), file: rel, role, src });
        }
    }
    Ok(())
}

/// Audit the whole workspace: every crate under `<root>/crates/` plus the
/// root facade package. Vendored crates are outside the audit's
/// jurisdiction by construction.
pub fn audit_workspace(root: &Path, include_tests: bool) -> Result<AuditReport> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| Error::new(ErrorKind::Io, format!("reading {}: {e}", crates_dir.display())))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| Error::new(ErrorKind::Io, format!("walking crates/: {e}")))?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            dirs.push(path);
        }
    }
    dirs.sort();

    let mut specs: Vec<SourceSpec> = Vec::new();
    for dir in dirs {
        let name = crate_name(&dir)?;
        collect_package_specs(root, &dir, &name, &mut specs)?;
    }
    // The root facade package (examples, quickstart docs, integration
    // tests) is part of the workspace surface too.
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        let name = crate_name(root)?;
        collect_package_specs(root, root, &name, &mut specs)?;
    }
    specs.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(audit_sources(specs, include_tests))
}

/// Read the `name = "…"` from a crate's `[package]` section. Full TOML is
/// out of scope; Cargo.toml package names in this workspace are plain
/// one-line strings.
fn crate_name(dir: &Path) -> Result<String> {
    let manifest = dir.join("Cargo.toml");
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| Error::new(ErrorKind::Io, format!("reading {}: {e}", manifest.display())))?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']').trim() == "package";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start().strip_prefix('=').unwrap_or("").trim();
                if let Some(name) = value.strip_prefix('"').and_then(|v| v.split('"').next()) {
                    return Ok(name.to_owned());
                }
            }
        }
    }
    Err(Error::new(ErrorKind::Parse, format!("{}: no [package] name found", manifest.display())))
}

/// Directory name skipped anywhere in the tree: the lint fixtures, whose
/// code is deliberately bad.
const FIXTURES_DIR: &str = "fixtures";

/// Recursively collect `.rs` files, skipping [`FIXTURES_DIR`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<()> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| Error::new(ErrorKind::Io, format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry
            .map_err(|e| Error::new(ErrorKind::Io, format!("walking {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != FIXTURES_DIR {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across hosts, so
/// reports match between CI and laptops).
fn rel_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(src: &str) -> FileReport {
        audit_source("c", "f.rs", src, false)
    }

    /// A write published by a rename with no fsync between.
    const TORN: &str = "fn f() { write(); rename(); }";

    #[test]
    fn trailing_suppression_with_reason_is_clean() {
        let r = audit(&format!("{TORN} // audit:allow(unsynced-durable-write) -- test seam\n"));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn suppression_without_reason_is_flagged() {
        let r = audit(&format!("{TORN} // audit:allow(unsynced-durable-write)\n"));
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].lint, "bad-suppression");
        assert_eq!(r.suppressed, 1, "still suppresses, but loudly");
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let src = "fn f() {\n    write();\n    // audit:allow(unsynced-durable-write) -- rebuildable cache\n    rename();\n}\n";
        let r = audit(src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = "// audit:allow(unsynced-durable-write) -- stale\nfn f() { g(); }\n";
        let r = audit(src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].lint, "unused-suppression");
    }

    #[test]
    fn unknown_lint_in_suppression_is_flagged() {
        // The retired lints are unknown too, so a leftover waiver of one
        // is exactly one `bad-suppression`.
        for lint in [
            "no-such-lint",
            "swallowed-result",
            "unordered-iteration",
            "unordered-float-reduction",
            "unbounded-corpus-materialization",
        ] {
            let r = audit(&format!("fn f() {{ g(); }} // audit:allow({lint}) -- why\n"));
            let lints: Vec<&str> = r.findings.iter().map(|f| f.lint.as_str()).collect();
            assert_eq!(lints, ["bad-suppression"], "{lint}");
            assert!(r.findings[0].message.contains(lint), "{lint}: {:?}", r.findings);
        }
    }

    #[test]
    fn file_level_suppression_covers_everything() {
        let src = format!(
            "// audit:allow-file(unsynced-durable-write) -- rebuildable cache\n{TORN}\n{}\n",
            TORN.replace("f()", "g()")
        );
        let r = audit(&src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn findings_name_the_innermost_item_around_them() {
        let cases = [
            (
                "fn kept(xs: &[u8]) -> impl Iterator<Item = &u8> { write(); rename(); xs.iter() }",
                "kept",
            ),
            ("impl E { fn new(c: impl Into<String>) -> Self { write(); rename(); E } }", "E::new"),
            ("impl R { fn push(&mut self, s: &[[f64; 3]]) { {TORN} } }", "R::push::f"),
            ("struct S { bytes: [u8; { {TORN} 1 }] }", "S::f"),
            ("const _: () = { {TORN} };", "_::f"),
        ];
        for (src, want) in cases {
            let src = src.replace("{TORN}", TORN);
            let r = audit(&src);
            assert_eq!(r.findings.len(), 1, "{src}: {:?}", r.findings);
            assert_eq!(r.findings[0].item, want, "{src}");
        }
    }
}
