//! The lint driver: walks workspace crates, runs the configured lints on
//! every source file, applies suppressions, and emits [`Finding`]s with
//! stable fingerprints.
//!
//! # Pipeline
//!
//! Since the incremental engine landed, the corpus pipeline is organized
//! around per-file **facts** ([`crate::facts`]) instead of live token
//! streams:
//!
//! 1. **wave 1 — facts**: every file is either looked up in the cache
//!    (key: content hash + config digest + registry digest) or parsed
//!    and summarized into a serializable [`FileFacts`];
//! 2. **global rebuild**: the cross-file passes (dead-public-api,
//!    schema-drift, lock-order-cycle) run over facts only;
//! 3. **wave 2 — sites**: per-file lint findings are looked up (key
//!    additionally covers the workspace taint-summary digest, which the
//!    def-use passes consume) or computed from a live analysis;
//! 4. **finalize**: per-file sites merge with the global findings, pass
//!    through suppressions and meta-lints, and become fingerprinted
//!    [`Finding`]s.
//!
//! A cold run and a warm run execute the *same* steps 2 and 4 over the
//! same facts — caching swaps where steps 1 and 3 get their data, never
//! what the report is computed from, which is why warm output is
//! byte-identical by construction.
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
use crate::facts::{self, FileFacts, FileMeta, SiteFinding, SuppressionFacts};
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
pub struct AuditReport {
    /// All surviving findings, ordered by (file, line, col).
    pub findings: Vec<Finding>,
    /// Total suppressed-finding count.
    pub suppressed: usize,
}

/// Knobs for the corpus pipeline beyond the lint config itself.
#[derive(Default)]
pub struct DriverOptions {
    /// Persist and reuse per-file analysis artifacts under this
    /// directory (`--cache DIR`).
    pub cache_dir: Option<PathBuf>,
    /// Restrict site analysis and findings to these files plus their
    /// symbol-graph dependents (`--changed-since REF`). Paths are
    /// workspace-relative with forward slashes.
    pub changed: Option<Vec<String>>,
}

/// What a corpus run produced, beyond the report itself.
// audit:allow(dead-public-api) -- return type of the public audit_workspace, which the iotax-audit bin calls
pub struct AuditOutcome {
    /// The findings.
    pub report: AuditReport,
    /// Corpus size.
    pub files: usize,
    /// How many files were actually lexed+parsed (vs served from cache).
    pub parsed: usize,
    /// A cache problem worth surfacing on stderr (the run itself fell
    /// back to cold analysis and is unaffected).
    pub cache_warning: Option<String>,
    /// When scoped by [`DriverOptions::changed`]: the files actually
    /// covered (changed set plus dependents), for honest CI logs.
    pub scope: Option<Vec<String>>,
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
    let (findings, suppressed) = finalize_file(krate, file, &cx, &raw);
    FileReport { findings, suppressed }
}

pub(crate) fn lint_options(cfg: &CrateConfig, include_tests: bool) -> LintOptions {
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

/// Apply suppressions and meta-lints to a file's raw findings, then
/// assemble [`Finding`]s with occurrence-indexed fingerprints.
fn finalize_file(
    krate: &str,
    file: &str,
    cx: &FileCx<'_>,
    raw: &[RawFinding],
) -> (Vec<Finding>, usize) {
    let sites: Vec<SiteFinding> = raw.iter().map(|r| SiteFinding::from_raw(cx, r)).collect();
    let supp: Vec<SuppressionFacts> = cx
        .suppressions
        .iter()
        .map(|s| SuppressionFacts {
            lints: s.lints.clone(),
            reason: s.reason.clone(),
            comment_line: s.comment_line,
            target_line: s.target_line,
        })
        .collect();
    finalize_sites(krate, file, &supp, &sites)
}

/// The one finalization path: apply suppressions, run the suppression
/// meta-lints, assemble fingerprinted findings. Operates on serializable
/// facts only, so cached and freshly computed sites take the same route.
fn finalize_sites(
    krate: &str,
    file: &str,
    suppressions: &[SuppressionFacts],
    sites: &[SiteFinding],
) -> (Vec<Finding>, usize) {
    // Apply suppressions. Index i tracks how many findings each used.
    let known: Vec<&str> = lints::known_lint_names();
    let mut used = vec![0usize; suppressions.len()];
    let mut survivors: Vec<&SiteFinding> = Vec::new();
    let mut suppressed = 0usize;
    for f in sites {
        let mut hit = false;
        for (si, s) in suppressions.iter().enumerate() {
            let line_match = match s.target_line {
                None => true, // file-level
                Some(line) => line == f.line,
            };
            if line_match && s.lints.contains(&f.lint) {
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

    // Meta-lints over the suppressions themselves.
    let mut meta: Vec<SiteFinding> = Vec::new();
    let meta_site = |line: u32, lint: &str, message: String| SiteFinding {
        lint: lint.to_owned(),
        line,
        col: 1,
        item: String::new(),
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
    let mut occurrence: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    for f in survivors.iter().copied().chain(meta.iter()) {
        let key = (f.lint.clone(), f.item.clone(), f.message.clone());
        let k = occurrence.entry(key).or_insert(0);
        let fp = fingerprint(krate, file, &f.lint, &f.item, &f.message, *k);
        *k += 1;
        findings.push(Finding {
            lint: f.lint.clone(),
            krate: krate.to_owned(),
            file: file.to_owned(),
            line: f.line,
            col: f.col,
            item: f.item.clone(),
            message: f.message.clone(),
            fingerprint: fp,
        });
    }
    findings.sort_by_key(|f| (f.line, f.col, f.lint.clone()));
    (findings, suppressed)
}

/// Every per-file lint pass over one live analysis, in canonical order:
/// token lints, then the flow passes, then the dataflow/taint passes.
/// Returns position-sorted, fully rendered sites — exactly what the
/// cache stores, so cold and warm runs merge identical vectors.
fn file_sites(
    f: &FileAnalysis<'_>,
    cfg: &AuditConfig,
    wire_sum: &BTreeSet<String>,
    corpus_sum: &BTreeSet<String>,
) -> Vec<SiteFinding> {
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
            raw.extend(dataflow::untrusted_length_allocation(
                f,
                &dataflow::wire_vocab(&cc),
                wire_sum,
            ));
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
            raw.extend(dataflow::capacity_findings(
                f,
                &on,
                &dataflow::corpus_vocab(&cc),
                corpus_sum,
            ));
        }
    }
    raw.sort_by_key(|r| (r.line, r.col));
    raw.iter().map(|r| SiteFinding::from_raw(&f.cx, r)).collect()
}

/// Audit an in-memory corpus: token lints per file plus the cross-file
/// analyses rebuilt from per-file facts, with the caching and scoping of
/// [`DriverOptions`]. This is the engine behind [`audit_workspace`]; see
/// the module docs for the wave structure.
///
/// Test-target files (`tests/…`) always join the corpus — schema-drift
/// reader probes live there — but token lints skip them unless
/// `cfg.include_tests` is set, matching the old walk's semantics.
// audit:allow(dead-public-api) -- the in-memory corpus seam tests/flow_fixtures.rs and tests/incremental.rs drive
pub fn audit_sources(
    specs: Vec<SourceSpec>,
    cfg: &AuditConfig,
    opts: DriverOptions,
) -> AuditOutcome {
    let cfg_digest = iotax_obs::digest_bytes(format!("{cfg:?}").as_bytes());
    let reg_digest = crate::cache::registry_digest();
    let contents: Vec<String> =
        specs.iter().map(|s| iotax_obs::digest_bytes(s.src.as_bytes())).collect();
    let scoped = opts.changed.is_some();
    let mut cache = opts.cache_dir.as_deref().map(crate::cache::AuditCache::open);

    // Whole-corpus report key: any file added, removed, renamed, edited,
    // re-rolled, or reconfigured changes it.
    let report_key = {
        let mut s = format!("report\0{reg_digest}\0{cfg_digest}\0");
        for (spec, digest) in specs.iter().zip(&contents) {
            s.push_str(&format!("{}\0{}\0{:?}\0{digest}\0", spec.file, spec.krate, spec.role));
        }
        iotax_obs::digest_bytes(s.as_bytes())
    };
    if !scoped {
        let hit = cache.as_ref().and_then(|c| c.report_hit(&report_key));
        if let Some((findings, suppressed)) = hit {
            // Emit the phase spans even though every phase is a no-op:
            // dashboards and CI assertions key on their presence.
            {
                let _span = iotax_obs::span!("audit.parse");
                iotax_obs::counter!("audit.files").incr(specs.len() as u64);
            }
            {
                let _span = iotax_obs::span!("audit.flow");
            }
            {
                let _span = iotax_obs::span!("audit.dataflow");
            }
            {
                let _span = iotax_obs::span!("audit.lint");
            }
            let cache_warning = cache.and_then(crate::cache::AuditCache::flush);
            return AuditOutcome {
                report: AuditReport { findings, suppressed },
                files: specs.len(),
                parsed: 0,
                cache_warning,
                scope: None,
            };
        }
    }

    let metas: Vec<FileMeta> = specs
        .iter()
        .map(|s| FileMeta { krate: s.krate.clone(), file: s.file.clone(), role: s.role })
        .collect();
    let facts_key =
        |i: usize| format!("facts\0{}\0{}\0{cfg_digest}\0{reg_digest}", specs[i].file, contents[i]);
    let mut parsed = 0usize;
    let mut analyses: Vec<Option<FileAnalysis<'_>>> = specs.iter().map(|_| None).collect();

    // ---- wave 1: per-file facts, from cache or a fresh parse. ---------
    let mut file_facts: Vec<Option<FileFacts>> = Vec::with_capacity(specs.len());
    {
        let _span = iotax_obs::span!("audit.parse");
        iotax_obs::counter!("audit.files").incr(specs.len() as u64);
        for i in 0..specs.len() {
            file_facts.push(cache.as_mut().and_then(|c| c.facts(&facts_key(i))));
        }
        let need: Vec<usize> = (0..specs.len()).filter(|&i| file_facts[i].is_none()).collect();
        let fresh: Vec<(usize, FileAnalysis<'_>)> =
            need.par_iter().map(|&i| (i, analyze_file(&specs[i]))).collect();
        parsed += fresh.len();
        for (i, fa) in fresh {
            let fx = facts::extract_facts(&fa, cfg);
            if let Some(c) = cache.as_mut() {
                c.put_facts(facts_key(i), &fx);
            }
            file_facts[i] = Some(fx);
            analyses[i] = Some(fa);
        }
    }
    let file_facts: Vec<FileFacts> = file_facts
        .into_iter()
        // audit:allow(panic-in-parser) -- invariant: the wave-1 loop above fills every miss slot; a None is a driver bug, not input-shaped
        .map(|f| f.expect("wave 1 fills every slot"))
        .collect();

    // Cross-file taint call summaries: the union every def-use pass
    // consumes. Their digest joins the wave-2 key because a summary
    // change can alter findings in files that did not themselves change.
    let mut wire_sum: BTreeSet<String> = BTreeSet::new();
    let mut corpus_sum: BTreeSet<String> = BTreeSet::new();
    for fx in &file_facts {
        wire_sum.extend(fx.wire_summary_fns.iter().cloned());
        corpus_sum.extend(fx.corpus_summary_fns.iter().cloned());
    }
    let ctx_digest = iotax_obs::digest_bytes(format!("{wire_sum:?}|{corpus_sum:?}").as_bytes());

    // Scope resolution: the changed files plus every file whose mention
    // set intersects a name the changed files define.
    let scope_idx: Option<BTreeSet<usize>> = opts.changed.as_ref().map(|changed| {
        let changed_files: BTreeSet<&str> = changed.iter().map(String::as_str).collect();
        let mut names: BTreeSet<&str> = BTreeSet::new();
        let mut idx: BTreeSet<usize> = BTreeSet::new();
        for (i, m) in metas.iter().enumerate() {
            if changed_files.contains(m.file.as_str()) {
                idx.insert(i);
                names.extend(file_facts[i].defined_names.iter().map(String::as_str));
            }
        }
        let mentions_any = |sorted: &[String]| {
            names.iter().any(|n| sorted.binary_search_by(|p| p.as_str().cmp(n)).is_ok())
        };
        for (i, fx) in file_facts.iter().enumerate() {
            if !idx.contains(&i) && (mentions_any(&fx.mentions) || mentions_any(&fx.macro_mentions))
            {
                idx.insert(i);
            }
        }
        idx
    });
    let in_scope = |i: usize| scope_idx.as_ref().is_none_or(|s| s.contains(&i));

    // ---- global rebuild: cross-file passes over facts only. -----------
    let (global_sites, config_sites) = {
        let _span = iotax_obs::span!("audit.flow");
        facts::global_findings(&metas, &file_facts, cfg)
    };
    let lock_sites = {
        let _span = iotax_obs::span!("audit.dataflow");
        facts::lock_findings(&metas, &file_facts, cfg)
    };
    let mut global_by_file: Vec<Vec<SiteFinding>> = metas.iter().map(|_| Vec::new()).collect();
    for (fi, s) in global_sites.into_iter().chain(lock_sites) {
        global_by_file[fi].push(s);
    }

    // ---- wave 2: per-file sites, from cache or a live analysis. -------
    let _span = iotax_obs::span!("audit.lint");
    let site_key = |i: usize| {
        format!(
            "sites\0{}\0{}\0{cfg_digest}\0{reg_digest}\0{ctx_digest}",
            specs[i].file, contents[i]
        )
    };
    let mut sites: Vec<Option<Vec<SiteFinding>>> = (0..specs.len())
        .map(|i| {
            if !in_scope(i) {
                return Some(Vec::new()); // out of scope: no per-file work
            }
            cache.as_mut().and_then(|c| c.sites(&site_key(i)))
        })
        .collect();
    let need_parse: Vec<usize> =
        (0..specs.len()).filter(|&i| sites[i].is_none() && analyses[i].is_none()).collect();
    let fresh: Vec<(usize, FileAnalysis<'_>)> =
        need_parse.par_iter().map(|&i| (i, analyze_file(&specs[i]))).collect();
    parsed += fresh.len();
    for (i, fa) in fresh {
        analyses[i] = Some(fa);
    }
    let miss: Vec<usize> = (0..specs.len()).filter(|&i| sites[i].is_none()).collect();
    let computed: Vec<(usize, Vec<SiteFinding>)> = miss
        .par_iter()
        .map(|&i| {
            // audit:allow(panic-in-parser) -- invariant: every site miss was parsed in wave 1 or the loop above
            let fa = analyses[i].as_ref().expect("parsed above");
            (i, file_sites(fa, cfg, &wire_sum, &corpus_sum))
        })
        .collect();
    for (i, s) in computed {
        if let Some(c) = cache.as_mut() {
            c.put_sites(site_key(i), &s);
        }
        sites[i] = Some(s);
    }
    iotax_obs::counter!("audit.parsed").incr(parsed as u64);

    // ---- finalize: merge, suppress, fingerprint. ----------------------
    let mut report = AuditReport::default();
    for i in 0..specs.len() {
        if !in_scope(i) {
            continue;
        }
        // audit:allow(panic-in-parser) -- invariant: wave 2 fills every in-scope slot; a None is a driver bug, not input-shaped
        let mut merged = sites[i].take().expect("wave 2 fills every slot");
        merged.append(&mut global_by_file[i]);
        merged.sort_by_key(|a| (a.line, a.col)); // stable
        let (findings, suppressed) =
            finalize_sites(&metas[i].krate, &metas[i].file, &file_facts[i].suppressions, &merged);
        report.findings.extend(findings);
        report.suppressed += suppressed;
    }

    // Crate-level check: a configured stage function defined in no file of
    // its crate is a config bug. Attributed to the crate manifest.
    let mut stage_fns_seen: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (m, fx) in metas.iter().zip(&file_facts) {
        stage_fns_seen
            .entry(m.krate.as_str())
            .or_default()
            .extend(fx.stage_fns_defined.iter().map(String::as_str));
    }
    let crates: BTreeSet<&str> = metas.iter().map(|m| m.krate.as_str()).collect();
    for krate in crates {
        let cc = cfg.for_crate(krate);
        if !cc.enabled("unspanned-stage") {
            continue;
        }
        let empty = BTreeSet::new();
        let seen = stage_fns_seen.get(krate).unwrap_or(&empty);
        for wanted in &cc.stage_functions {
            if !seen.contains(wanted.as_str()) {
                let file = manifest_path(&metas, krate);
                let message = format!(
                    "configured stage function `{wanted}` is not defined anywhere in \
                     crate `{krate}`; fix audit.toml or restore the function"
                );
                let fp = fingerprint(krate, &file, "unspanned-stage", "", &message, 0);
                report.findings.push(Finding {
                    lint: "unspanned-stage".to_owned(),
                    krate: krate.to_owned(),
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
        let fp = fingerprint("workspace", "audit.toml", &s.lint, "", &s.message, 0);
        report.findings.push(Finding {
            lint: s.lint,
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
    if !scoped {
        if let Some(c) = cache.as_mut() {
            c.put_report(report_key, &report.findings, report.suppressed);
        }
    }
    let cache_warning = cache.and_then(crate::cache::AuditCache::flush);
    let scope =
        scope_idx.map(|s| s.iter().map(|&i| metas[i].file.clone()).collect::<Vec<String>>());
    AuditOutcome { report, files: specs.len(), parsed, cache_warning, scope }
}

/// The manifest path a crate-level finding attaches to, derived from the
/// crate's file paths (`crates/sim/src/…` → `crates/sim/Cargo.toml`; the
/// root package's `src/…` → `Cargo.toml`).
fn manifest_path(metas: &[FileMeta], krate: &str) -> String {
    for m in metas {
        if m.krate != krate {
            continue;
        }
        for marker in ["src/", "tests/", "benches/", "examples/"] {
            if let Some(pos) = m.file.find(marker) {
                return format!("{}Cargo.toml", &m.file[..pos]);
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
/// root facade package, with caching and scoping ([`DriverOptions`]).
/// Vendored crates are outside the audit's jurisdiction by construction.
pub fn audit_workspace(
    root: &Path,
    cfg: &AuditConfig,
    opts: DriverOptions,
) -> Result<AuditOutcome> {
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
    Ok(audit_sources(specs, cfg, opts))
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
