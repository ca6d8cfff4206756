//! The lint driver: walks workspace crates, runs the configured lints on
//! every source file, applies suppressions, and emits [`Finding`]s with
//! stable fingerprints.
//!
//! # Pipeline
//!
//! One pass over the corpus, each phase under its own span:
//!
//! 1. **`audit.parse`**: every file is lexed and parsed once into a
//!    [`FileAnalysis`], and the workspace taint call summaries are
//!    collected from the non-test files;
//! 2. **`audit.flow`**: the workspace passes dead-public-api and
//!    schema-drift run over all analyses ([`flow`]);
//! 3. **`audit.dataflow`**: the workspace lock-order graph is built and
//!    checked for cycles ([`dataflow`]);
//! 4. **`audit.lint`**: the per-file passes run, their findings merge
//!    with the workspace findings, and every file is finalized: suppressed,
//!    checked by the meta-lints, and fingerprinted.
//!
//! Two meta-lints are always on and cannot be disabled:
//!
//! * `bad-suppression` — an `audit:allow` comment with no `-- reason`, or
//!   naming a lint that does not exist. Unreviewable waivers are findings.
//! * `unused-suppression` — an `audit:allow` that suppressed nothing.
//!   Stale waivers rot into false documentation, so they must be removed.

use crate::config::{AuditConfig, CrateConfig};
use crate::context::FileCx;
use crate::dataflow;
use crate::diag::{fingerprint, Finding};
use crate::flow;
use crate::lints::{self, LintOptions, RawFinding, LINTS};
use crate::symbols::{analyze_file, FileAnalysis, FileRole, SourceSpec};
use iotax_obs::{Error, ErrorKind, Result};
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
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

/// Audit one in-memory source file with the token lints only: no
/// filesystem and no cross-file passes.
// audit:allow(dead-public-api) -- the single-file seam tests/lint_fixtures.rs and tests/prop.rs drive
pub fn audit_source(
    krate: &str,
    file: &str,
    src: &str,
    cfg: &CrateConfig,
    include_tests: bool,
) -> FileReport {
    let cx = FileCx::new(src);
    let opts = lint_options(cfg, include_tests);
    let mut raw = token_lints(&cx, cfg, &opts);
    raw.sort_by_key(|f| (f.line, f.col));
    let (findings, suppressed) = finalize(krate, file, &cx, &raw);
    FileReport { findings, suppressed }
}

fn lint_options(cfg: &CrateConfig, include_tests: bool) -> LintOptions {
    LintOptions {
        include_tests,
        check_indexing: cfg.check_indexing,
        stage_functions: cfg.stage_functions.clone(),
    }
}

/// Run every enabled token lint on one file.
fn token_lints(cx: &FileCx<'_>, cfg: &CrateConfig, opts: &LintOptions) -> Vec<RawFinding> {
    let mut raw: Vec<RawFinding> = Vec::new();
    for spec in LINTS {
        if cfg.enabled(spec.name) {
            raw.extend(lints::run_lint(spec.name, cx, opts));
        }
    }
    raw
}

/// Apply suppressions and meta-lints to a file's position-sorted
/// findings, then assemble [`Finding`]s with occurrence-indexed
/// fingerprints.
fn finalize(
    krate: &str,
    file: &str,
    cx: &FileCx<'_>,
    sites: &[RawFinding],
) -> (Vec<Finding>, usize) {
    // Apply suppressions. Index i tracks how many findings each used.
    let suppressions = &cx.suppressions;
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

    // Assemble findings with occurrence-indexed fingerprints. Occurrence
    // counters are keyed on the fingerprint identity so identical findings
    // in one item stay distinct and stable.
    let mut occurrence: BTreeMap<(&str, &str, &str), usize> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    for f in survivors.iter().copied().chain(meta.iter()) {
        let item = cx.item(f.tok);
        let k = occurrence.entry((f.lint, item, &f.message)).or_insert(0);
        let fp = fingerprint(krate, file, f.lint, item, &f.message, *k);
        *k += 1;
        findings.push(Finding {
            lint: f.lint.to_owned(),
            krate: krate.to_owned(),
            file: file.to_owned(),
            line: f.line,
            col: f.col,
            item: item.to_owned(),
            message: f.message.clone(),
            fingerprint: fp,
        });
    }
    findings.sort_by_key(|f| (f.line, f.col, f.lint.clone()));
    (findings, suppressed)
}

/// Every per-file lint pass over one analysis, in canonical order:
/// token lints, then the flow passes, then the dataflow/taint passes.
/// Returns position-sorted findings.
fn file_sites(
    f: &FileAnalysis<'_>,
    cfg: &AuditConfig,
    wire_sum: &BTreeSet<String>,
    corpus_sum: &BTreeSet<String>,
) -> Vec<RawFinding> {
    let cc = cfg.for_crate(&f.spec.krate);
    let opts = lint_options(&cc, cfg.include_tests);
    let mut raw = if f.spec.role == FileRole::Test && !cfg.include_tests {
        Vec::new()
    } else {
        token_lints(&f.cx, &cc, &opts)
    };
    if f.spec.role != FileRole::Test {
        // Per-site flow + dataflow analyses skip test targets entirely.
        if cc.enabled("seed-provenance") {
            raw.extend(flow::seed_provenance(f));
        }
        if cc.enabled("error-context-loss") {
            raw.extend(flow::error_context_loss(f));
        }
        if cc.enabled("untrusted-length-allocation") {
            raw.extend(dataflow::untrusted_length_allocation(f, &dataflow::wire_vocab(), wire_sum));
        }
        if cc.enabled("unordered-float-reduction") {
            raw.extend(dataflow::unordered_float_reduction(f));
        }
        let on = dataflow::CapacityOn {
            materialize: cc.enabled("unbounded-corpus-materialization"),
            channel: cc.enabled("unbounded-channel"),
            join: cc.enabled("quadratic-corpus-join"),
        };
        if on.materialize || on.channel || on.join {
            raw.extend(dataflow::capacity_findings(f, &on, &dataflow::corpus_vocab(), corpus_sum));
        }
    }
    raw.sort_by_key(|r| (r.line, r.col));
    raw
}

/// Audit an in-memory corpus: every file analyzed once, the workspace
/// passes over all analyses, then the per-file passes and finalization.
/// This is the engine behind [`audit_workspace`]; see the module docs for
/// the phases.
///
/// Test-target files (`tests/…`) always join the corpus — schema-drift
/// reader probes live there — but token lints skip them unless
/// `cfg.include_tests` is set.
// audit:allow(dead-public-api) -- the in-memory corpus seam tests/flow_fixtures.rs drives
pub fn audit_sources(specs: Vec<SourceSpec>, cfg: &AuditConfig) -> AuditReport {
    let (files, wire_sum, corpus_sum) = {
        let _span = iotax_obs::span!("audit.parse");
        iotax_obs::counter!("audit.files").incr(specs.len() as u64);
        let files: Vec<FileAnalysis<'_>> = specs.par_iter().map(analyze_file).collect();
        // Cross-file taint call summaries: the union every def-use pass
        // consumes. Only non-test targets contribute.
        let mut wire_sum: BTreeSet<String> = BTreeSet::new();
        let mut corpus_sum: BTreeSet<String> = BTreeSet::new();
        for f in files.iter().filter(|f| f.spec.role != FileRole::Test) {
            wire_sum.extend(dataflow::summary_fns(f, dataflow::wire_vocab().sources));
            corpus_sum.extend(dataflow::summary_fns(f, dataflow::corpus_vocab().sources));
        }
        (files, wire_sum, corpus_sum)
    };

    // Workspace passes: findings indexed by file, plus config-level ones.
    let mut workspace: Vec<Vec<RawFinding>> = files.iter().map(|_| Vec::new()).collect();
    let config_sites = {
        let _span = iotax_obs::span!("audit.flow");
        for (fi, s) in flow::dead_public_api(&files, cfg) {
            workspace[fi].push(s);
        }
        let (sites, config_sites) = flow::schema_drift(&files, cfg);
        for (fi, s) in sites {
            workspace[fi].push(s);
        }
        config_sites
    };
    {
        let _span = iotax_obs::span!("audit.dataflow");
        for (fi, s) in dataflow::lock_order_cycle(&files, cfg) {
            workspace[fi].push(s);
        }
    }

    // Per-file passes, then finalize: merge, suppress, fingerprint.
    let _span = iotax_obs::span!("audit.lint");
    let sites: Vec<Vec<RawFinding>> =
        files.par_iter().map(|f| file_sites(f, cfg, &wire_sum, &corpus_sum)).collect();
    let mut report = AuditReport::default();
    for ((f, mut merged), mut ws) in files.iter().zip(sites).zip(workspace) {
        merged.append(&mut ws);
        merged.sort_by_key(|a| (a.line, a.col)); // stable
        let (findings, suppressed) = finalize(&f.spec.krate, &f.spec.file, &f.cx, &merged);
        report.findings.extend(findings);
        report.suppressed += suppressed;
    }

    // Crate-level check: a configured stage function defined in no file of
    // its crate is a config bug. Attributed to the crate manifest.
    let mut stage_fns_seen: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for f in &files {
        let opts = lint_options(&cfg.for_crate(&f.spec.krate), cfg.include_tests);
        stage_fns_seen
            .entry(f.spec.krate.as_str())
            .or_default()
            .extend(lints::stage_functions_defined(&f.cx, &opts));
    }
    for (krate, seen) in &stage_fns_seen {
        let cc = cfg.for_crate(krate);
        if !cc.enabled("unspanned-stage") {
            continue;
        }
        for wanted in &cc.stage_functions {
            if !seen.contains(wanted) {
                let file = manifest_path(&specs, krate);
                let message = format!(
                    "configured stage function `{wanted}` is not defined anywhere in \
                     crate `{krate}`; fix audit.toml or restore the function"
                );
                let fp = fingerprint(krate, &file, "unspanned-stage", "", &message, 0);
                report.findings.push(Finding {
                    lint: "unspanned-stage".to_owned(),
                    krate: (*krate).to_owned(),
                    file,
                    line: 1,
                    col: 1,
                    item: String::new(),
                    message,
                    fingerprint: fp,
                });
            }
        }
    }

    // Config-level findings (e.g. a [schema.*] section naming a struct
    // that no longer exists) have no source file to suppress in; they
    // are attributed to audit.toml and always surface.
    for s in config_sites {
        let fp = fingerprint("workspace", "audit.toml", s.lint, "", &s.message, 0);
        report.findings.push(Finding {
            lint: s.lint.to_owned(),
            krate: "workspace".to_owned(),
            file: "audit.toml".to_owned(),
            line: 1,
            col: 1,
            item: String::new(),
            message: s.message,
            fingerprint: fp,
        });
    }

    sort_report(&mut report.findings);
    report
}

/// The manifest path a crate-level finding attaches to, derived from the
/// crate's file paths (`crates/sim/src/…` → `crates/sim/Cargo.toml`; the
/// root package's `src/…` → `Cargo.toml`).
fn manifest_path(specs: &[SourceSpec], krate: &str) -> String {
    for s in specs {
        if s.krate != krate {
            continue;
        }
        for marker in ["src/", "tests/", "benches/", "examples/"] {
            if let Some(pos) = s.file.find(marker) {
                return format!("{}Cargo.toml", &s.file[..pos]);
            }
        }
    }
    "Cargo.toml".to_owned()
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
/// Test targets always load (schema-drift readers live there); the token
/// lints decide per-file whether to skip them.
fn collect_package_specs(
    root: &Path,
    dir: &Path,
    krate: &str,
    cfg: &AuditConfig,
    specs: &mut Vec<SourceSpec>,
) -> Result<()> {
    for sub in ["src", "benches", "examples", "tests"] {
        let base = dir.join(sub);
        if !base.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&base, &cfg.exclude_dirs, &mut files)?;
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
pub fn audit_workspace(root: &Path, cfg: &AuditConfig) -> Result<AuditReport> {
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
        collect_package_specs(root, &dir, &name, cfg, &mut specs)?;
    }
    // The root facade package (examples, quickstart docs, integration
    // tests) is part of the workspace surface too.
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        let name = crate_name(root)?;
        collect_package_specs(root, root, &name, cfg, &mut specs)?;
    }
    specs.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(audit_sources(specs, cfg))
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

/// Recursively collect `.rs` files, skipping excluded directory names.
fn collect_rs_files(dir: &Path, exclude: &[String], out: &mut Vec<PathBuf>) -> Result<()> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| Error::new(ErrorKind::Io, format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry
            .map_err(|e| Error::new(ErrorKind::Io, format!("walking {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if exclude.iter().any(|d| d == name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, exclude, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across hosts, so
/// fingerprints match between CI and laptops).
fn rel_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(lints: &[&str]) -> CrateConfig {
        let mut c = CrateConfig { check_indexing: true, ..CrateConfig::default() };
        for l in lints {
            c.lints.insert((*l).to_owned(), true);
        }
        c
    }

    #[test]
    fn trailing_suppression_with_reason_is_clean() {
        let src = "fn f() { x.unwrap(); } // audit:allow(panic-in-parser) -- test seam\n";
        let r = audit_source("c", "f.rs", src, &cfg(&["panic-in-parser"]), false);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn suppression_without_reason_is_flagged() {
        let src = "fn f() { x.unwrap(); } // audit:allow(panic-in-parser)\n";
        let r = audit_source("c", "f.rs", src, &cfg(&["panic-in-parser"]), false);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].lint, "bad-suppression");
        assert_eq!(r.suppressed, 1, "still suppresses, but loudly");
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let src = "fn f() {\n    // audit:allow(panic-in-parser) -- caller checked bounds\n    x.unwrap();\n}\n";
        let r = audit_source("c", "f.rs", src, &cfg(&["panic-in-parser"]), false);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = "// audit:allow(panic-in-parser) -- stale\nfn f() { g(); }\n";
        let r = audit_source("c", "f.rs", src, &cfg(&["panic-in-parser"]), false);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].lint, "unused-suppression");
    }

    #[test]
    fn unknown_lint_in_suppression_is_flagged() {
        let src = "fn f() { g(); } // audit:allow(no-such-lint) -- why\n";
        let r = audit_source("c", "f.rs", src, &cfg(&[]), false);
        assert!(r.findings.iter().any(|f| f.lint == "bad-suppression"));
    }

    #[test]
    fn file_level_suppression_covers_everything() {
        let src = "// audit:allow-file(panic-in-parser) -- generated parser tables\nfn f() { a.unwrap(); }\nfn g() { b.unwrap(); }\n";
        let r = audit_source("c", "f.rs", src, &cfg(&["panic-in-parser"]), false);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn identical_findings_get_distinct_fingerprints() {
        let src = "fn f() { a.unwrap(); a.unwrap(); }\n";
        let r = audit_source("c", "f.rs", src, &cfg(&["panic-in-parser"]), false);
        assert_eq!(r.findings.len(), 2);
        assert_ne!(r.findings[0].fingerprint, r.findings[1].fingerprint);
    }

    #[test]
    fn fingerprints_survive_line_shifts() {
        let a = audit_source(
            "c",
            "f.rs",
            "fn f() { x.unwrap(); }\n",
            &cfg(&["panic-in-parser"]),
            false,
        );
        let b = audit_source(
            "c",
            "f.rs",
            "\n\n\nfn f() { x.unwrap(); }\n",
            &cfg(&["panic-in-parser"]),
            false,
        );
        assert_eq!(a.findings[0].fingerprint, b.findings[0].fingerprint);
        assert_ne!(a.findings[0].line, b.findings[0].line);
    }
}
