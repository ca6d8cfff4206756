//! The four cross-file flow analyses.
//!
//! Where the token lints in [`crate::lints`] check one token window in
//! one file, these passes reason about the bugs that live at the *seams*
//! between crates:
//!
//! | lint | seam it guards |
//! |------|----------------|
//! | `seed-provenance`    | every RNG is a pure function of a threaded seed, not the wall clock or a buried literal |
//! | `schema-drift`       | JSONL writers and their readers agree on field names across crates |
//! | `dead-public-api`    | `pub` in a library crate means *somebody outside consumes this* |
//! | `error-context-loss` | a `?` crossing a crate boundary attaches local context first |
//!
//! All four are conservative by construction: unresolvable provenance,
//! ambiguous names, and unknown call targets are passes, not findings.
//! The suppression machinery (`// audit:allow(lint) -- reason`) applies
//! to these findings exactly as it does to token lints.
//!
//! `seed-provenance` and `error-context-loss` are per-file passes (the
//! import map a `?` check needs comes from the file's own `use` edges).
//! `dead-public-api` and `schema-drift` are workspace passes over every
//! file's analysis: each sits next to the per-file helpers it uses.

use crate::config::{AuditConfig, SchemaPair};
use crate::items::{Item, ItemKind, Vis};
use crate::lexer::TokKind;
use crate::lints::{LintSpec, RawFinding};
use crate::symbols::{FileAnalysis, FileRole};
use std::collections::{BTreeMap, BTreeSet};

/// The flow analyses, in reporting order (extends [`crate::lints::LINTS`]
/// for config validation and `--list-lints`).
pub const FLOW_LINTS: &[LintSpec] = &[
    LintSpec {
        name: "seed-provenance",
        summary: "RNG seed does not trace back to a parameter or run seed (ambient/literal)",
    },
    LintSpec {
        name: "schema-drift",
        summary: "JSONL writer and reader disagree on serialized field names across crates",
    },
    LintSpec {
        name: "dead-public-api",
        summary: "pub item in a library crate with zero workspace references outside it",
    },
    LintSpec {
        name: "error-context-loss",
        summary: "`?` propagates an error across a crate boundary without attaching context",
    },
];

// ---------------------------------------------------------------------------
// seed-provenance
// ---------------------------------------------------------------------------

/// RNG constructors whose seed argument must trace to a parameter.
const RNG_CTORS: &[&str] = &["substream", "rng_from_seed", "seed_from_u64", "from_seed"];

/// Identifiers whose presence anywhere in a seed's def-use chain marks it
/// ambient: different on every run, so the experiment is unreproducible.
const AMBIENT_MARKERS: &[&str] = &[
    "now",
    "elapsed",
    "UNIX_EPOCH",
    "SystemTime",
    "Instant",
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "random",
];

/// How deep the `let`-chain resolver follows bindings before giving up
/// (an unresolved name is a pass, so the bound only limits work).
const MAX_TAINT_DEPTH: usize = 8;

#[derive(PartialEq)]
enum SeedVerdict {
    /// Traces to a fn parameter, `self`, or something unresolvable.
    Ok,
    /// An ambient marker appears in the chain.
    Ambient(String),
    /// Every chain bottoms out in literals — the seed is hard-coded.
    LiteralOnly,
}

pub(crate) fn seed_provenance(f: &FileAnalysis<'_>) -> Vec<RawFinding> {
    let cx = &f.cx;
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if cx.is_test(i) || cx.kind(i) != TokKind::Ident {
            continue;
        }
        let ctor = cx.text(i);
        if !RNG_CTORS.contains(&ctor) || !cx.punct_at(i + 1, "(") {
            continue;
        }
        // `.seed_from_u64(` as a *method* (rare) still counts: the
        // receiver is the RNG type, the argument is the seed either way.
        let (idents, any_ident) = first_arg_idents(f, i + 1);
        let verdict = classify_seed(f, i, &idents, any_ident);
        match verdict {
            SeedVerdict::Ok => {}
            SeedVerdict::Ambient(marker) => out.push(raw(
                cx,
                "seed-provenance",
                i,
                format!(
                    "seed for `{ctor}(…)` derives from ambient source `{marker}`; thread the \
                     run seed through a parameter so the experiment replays bit-for-bit"
                ),
            )),
            SeedVerdict::LiteralOnly => out.push(raw(
                cx,
                "seed-provenance",
                i,
                format!(
                    "seed for `{ctor}(…)` is a hard-coded literal; derive it from the run \
                     seed (a function parameter or config field) so one flag reseeds the \
                     whole experiment"
                ),
            )),
        }
    }
    out
}

/// Identifiers of the first call argument starting at the `(` token
/// `open`, plus whether the argument contained any identifier at all.
/// Shared with the dataflow engine in [`crate::dataflow`].
pub(crate) fn first_arg_idents(f: &FileAnalysis<'_>, open: usize) -> (Vec<String>, bool) {
    let cx = &f.cx;
    let mut idents = Vec::new();
    let mut depth = 0i64;
    let mut j = open;
    while j < cx.code.len() {
        match cx.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => break,
            _ => {
                if cx.kind(j) == TokKind::Ident {
                    idents.push(cx.text(j).to_owned());
                }
            }
        }
        j += 1;
    }
    let any = !idents.is_empty();
    (idents, any)
}

fn classify_seed(
    f: &FileAnalysis<'_>,
    site: usize,
    idents: &[String],
    any_ident: bool,
) -> SeedVerdict {
    if !any_ident {
        return SeedVerdict::LiteralOnly;
    }
    let fn_item = f.items.enclosing_fn(site);
    let params: &[String] = fn_item.map_or(&[], |i| &f.items.items[i].params);
    let body_lo = fn_item.and_then(|i| f.items.items[i].body).map_or(0, |(lo, _)| lo);

    let mut visited: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<(String, usize)> = idents.iter().map(|s| (s.clone(), 0)).collect();
    let mut saw_param = false;
    let mut saw_unknown = false;
    while let Some((name, depth)) = queue.pop() {
        if !visited.insert(name.clone()) {
            continue;
        }
        if AMBIENT_MARKERS.contains(&name.as_str()) {
            return SeedVerdict::Ambient(name);
        }
        if name == "self" || params.contains(&name) {
            saw_param = true;
            continue;
        }
        if depth >= MAX_TAINT_DEPTH {
            saw_unknown = true;
            continue;
        }
        // A `let name = …;` earlier in the enclosing fn body.
        if let Some(rhs) = last_let_binding(f, &name, body_lo, site) {
            if rhs.is_empty() {
                // RHS with no identifiers: a literal binding.
                continue;
            }
            queue.extend(rhs.into_iter().map(|s| (s, depth + 1)));
            continue;
        }
        // A `const`/`static` in the same file.
        if let Some(rhs) = const_init_idents(f, &name) {
            if rhs.is_empty() {
                continue; // literal const — still literal-only
            }
            queue.extend(rhs.into_iter().map(|s| (s, depth + 1)));
            continue;
        }
        // Field names, free fns, cross-file consts: unresolvable here.
        saw_unknown = true;
    }
    if saw_param || saw_unknown {
        SeedVerdict::Ok
    } else {
        SeedVerdict::LiteralOnly
    }
}

/// RHS identifiers of the last `let [mut] name = …;` between `lo` and
/// `site` in token space. `Some(vec![])` means a binding was found whose
/// RHS holds no identifiers (a literal).
fn last_let_binding(
    f: &FileAnalysis<'_>,
    name: &str,
    lo: usize,
    site: usize,
) -> Option<Vec<String>> {
    let cx = &f.cx;
    let mut found: Option<Vec<String>> = None;
    let mut j = lo;
    while j + 2 < site {
        if cx.ident_at(j, "let") {
            let name_at = if cx.ident_at(j + 1, "mut") { j + 2 } else { j + 1 };
            if cx.ident_at(name_at, name) && cx.punct_at(name_at + 1, "=") {
                let mut rhs = Vec::new();
                let mut k = name_at + 2;
                let mut depth = 0i64;
                while k < cx.code.len() {
                    match cx.text(k) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth <= 0 => break,
                        _ => {
                            if cx.kind(k) == TokKind::Ident {
                                rhs.push(cx.text(k).to_owned());
                            }
                        }
                    }
                    k += 1;
                }
                found = Some(rhs);
            }
        }
        j += 1;
    }
    found
}

/// Initializer identifiers of a same-file `const NAME` / `static NAME`.
/// Shared with the dataflow engine in [`crate::dataflow`].
pub(crate) fn const_init_idents(f: &FileAnalysis<'_>, name: &str) -> Option<Vec<String>> {
    let cx = &f.cx;
    for j in 0..cx.code.len() {
        if !(cx.ident_at(j, "const") || cx.ident_at(j, "static")) {
            continue;
        }
        let name_at = if cx.ident_at(j + 1, "mut") { j + 2 } else { j + 1 };
        if !cx.ident_at(name_at, name) {
            continue;
        }
        let mut rhs = Vec::new();
        let mut seen_eq = false;
        let mut k = name_at + 1;
        while k < cx.code.len() && !cx.punct_at(k, ";") {
            if cx.punct_at(k, "=") {
                seen_eq = true;
            } else if seen_eq && cx.kind(k) == TokKind::Ident {
                rhs.push(cx.text(k).to_owned());
            }
            k += 1;
        }
        return Some(rhs);
    }
    None
}

// ---------------------------------------------------------------------------
// error-context-loss
// ---------------------------------------------------------------------------

/// The file-local import map: local name → source crate identifier, for
/// names imported from workspace (`iotax_*`) crates. `use
/// iotax_sim::fault::FaultPlan` maps `FaultPlan` → `iotax_sim`; `use
/// iotax_darshan::parse_log as pl` maps `pl` → `iotax_darshan`.
fn import_map(f: &FileAnalysis<'_>) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for edge in &f.items.uses {
        if edge.root.starts_with("iotax_") && edge.leaf != "*" {
            map.insert(edge.local_name().to_owned(), edge.root.clone());
        }
    }
    map
}

pub(crate) fn error_context_loss(f: &FileAnalysis<'_>) -> Vec<RawFinding> {
    let cx = &f.cx;
    let imports = import_map(f);
    let mut out = Vec::new();
    for i in 1..cx.code.len() {
        if cx.is_test(i) || !cx.punct_at(i, "?") || !cx.punct_at(i - 1, ")") {
            continue;
        }
        // Match the `(` of the call the `?` applies to.
        let mut depth = 0i64;
        let mut open = i - 1;
        loop {
            match cx.text(open) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if open == 0 {
                break;
            }
            open -= 1;
        }
        if open == 0 || cx.kind(open - 1) != TokKind::Ident {
            continue; // macro call, closure call, tuple — not a plain fn path
        }
        // Walk the path back: `a::b::c(` → segments [a, b, c].
        let mut seg_start = open - 1;
        while seg_start >= 2
            && cx.punct_at(seg_start - 1, "::")
            && cx.kind(seg_start - 2) == TokKind::Ident
        {
            seg_start -= 2;
        }
        if seg_start >= 1 && cx.punct_at(seg_start - 1, ".") {
            continue; // method call: `.map_err(…)?` and friends attach context
        }
        let first = cx.text(seg_start);
        let target = if first.starts_with("iotax_") {
            first.to_owned()
        } else if let Some(root) = imports.get(first) {
            root.clone()
        } else {
            continue; // local or std call — no crate boundary crossed
        };
        if target == f.krate_ident || target == "iotax_obs" {
            // Same crate, or the shared error/obs layer itself: calls like
            // `JsonLinesSink::create(…)?` construct infra, not stage data.
            continue;
        }
        let path: Vec<&str> = (seg_start..open).step_by(2).map(|k| cx.text(k)).collect();
        out.push(raw(
            cx,
            "error-context-loss",
            seg_start,
            format!(
                "`{}(…)?` propagates a `{target}` error across the crate boundary with no \
                 added context; wrap it first (e.g. `.map_err(|e| e.wrap(\"while …\"))`) so \
                 the failure names the file or stage that caused it",
                path.join("::")
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// dead-public-api
// ---------------------------------------------------------------------------

/// Names that are conventionally referenced implicitly (trait machinery,
/// constructors invoked through generic code) — never flagged.
const IMPLICIT_NAMES: &[&str] = &[
    "new", "default", "main", "fmt", "from", "into", "clone", "eq", "hash", "next", "drop", "deref",
];

/// Flaggable `pub` items of library files that no file outside their
/// crate mentions, as findings indexed by file.
pub(crate) fn dead_public_api(
    files: &[FileAnalysis<'_>],
    cfg: &AuditConfig,
) -> Vec<(usize, RawFinding)> {
    let mut out = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let krate = &f.spec.krate;
        if f.spec.role != FileRole::Lib || !cfg.for_crate(krate).enabled("dead-public-api") {
            continue;
        }
        for it in &f.items.items {
            if !flaggable_pub_item(f, it) || referenced_outside(files, krate, &it.name) {
                continue;
            }
            out.push((
                fi,
                RawFinding {
                    lint: "dead-public-api",
                    line: it.line,
                    col: it.col,
                    tok: it.tok,
                    message: format!(
                        "pub {} `{}` has no references outside crate `{krate}` (tests excluded); \
                         demote it to pub(crate), remove it, or waive it with a reason if it is \
                         deliberate API surface",
                        kind_noun(it.kind),
                        it.name
                    ),
                },
            ));
        }
    }
    out
}

/// Is `name` mentioned by any file that keeps crate `krate`'s public API
/// alive — another crate, or this crate's own bin/example/bench targets?
/// Test files never count.
fn referenced_outside(files: &[FileAnalysis<'_>], krate: &str, name: &str) -> bool {
    files.iter().any(|f| {
        let consumer = f.spec.role.counts_as_consumer();
        let external = consumer
            && (f.spec.krate != krate || f.spec.role != FileRole::Lib)
            && f.mentions.contains(name);
        // A macro body expands wherever the macro is invoked, so a
        // `$crate::name` reference inside one is an external use of
        // `name` even when the macro is defined in `name`'s own crate.
        let via_macro = consumer && f.macro_mentions.contains(name);
        external || via_macro
    })
}

/// Is `item` a dead-API *candidate*: a flaggable `pub` item whose name,
/// if referenced nowhere outside its crate, is a finding?
fn flaggable_pub_item(f: &FileAnalysis<'_>, item: &Item) -> bool {
    if item.vis != Vis::Pub || item.name.is_empty() || f.cx.is_test(item.tok) {
        return false;
    }
    if !matches!(
        item.kind,
        ItemKind::Fn
            | ItemKind::Struct
            | ItemKind::Enum
            | ItemKind::Trait
            | ItemKind::Const
            | ItemKind::Static
            | ItemKind::TypeAlias
            | ItemKind::Macro
    ) {
        return false;
    }
    if IMPLICIT_NAMES.contains(&item.name.as_str()) {
        return false;
    }
    if item.kind == ItemKind::Fn {
        if item.trait_impl {
            return false; // trait impls are invoked through the trait
        }
        if let Some(p) = item.parent {
            if f.items.items[p].kind == ItemKind::Trait {
                return false; // trait method declarations
            }
        }
    }
    // Items nested inside fn bodies are locals regardless of `pub`.
    let mut p = item.parent;
    while let Some(pi) = p {
        if f.items.items[pi].kind == ItemKind::Fn {
            return false;
        }
        p = f.items.items[pi].parent;
    }
    true
}

fn kind_noun(kind: ItemKind) -> &'static str {
    match kind {
        ItemKind::Fn => "fn",
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Trait => "trait",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::TypeAlias => "type alias",
        ItemKind::Macro => "macro",
        ItemKind::Mod => "mod",
        ItemKind::Impl => "impl",
    }
}

// ---------------------------------------------------------------------------
// schema-drift
// ---------------------------------------------------------------------------

/// Resolve every `[schema.*]` pair, then match the reader probes and
/// compare same-named serialized structs across crates. Returns findings
/// indexed by file, and config-level findings (attributed to
/// `audit.toml` by the driver, bypassing per-file suppressions).
pub(crate) fn schema_drift(
    files: &[FileAnalysis<'_>],
    cfg: &AuditConfig,
) -> (Vec<(usize, RawFinding)>, Vec<RawFinding>) {
    let on: Vec<bool> =
        files.iter().map(|f| cfg.for_crate(&f.spec.krate).enabled("schema-drift")).collect();
    let mut out: Vec<(usize, RawFinding)> = Vec::new();
    let mut config_out: Vec<RawFinding> = Vec::new();

    let mut resolved: Vec<ResolvedSchema> = Vec::new();
    for pair in &cfg.schemas {
        match resolve_schema(files, pair, &mut out, &mut config_out) {
            Some(r) => resolved.push(r),
            None => config_out.push(config_finding(format!(
                "[schema.{}] names struct `{}`, which is not defined in any library \
                 crate; fix audit.toml or restore the struct",
                pair.name, pair.strukt
            ))),
        }
    }
    // Reader probes: per file, a probe must match the union of every
    // schema that lists the file — readers often multiplex record kinds
    // (e.g. spans and counters in one JSONL stream).
    for (fi, f) in files.iter().enumerate() {
        let mine: Vec<&ResolvedSchema> =
            resolved.iter().filter(|r| r.readers.iter().any(|p| f.spec.file.contains(p))).collect();
        if mine.is_empty() || !on[fi] {
            continue;
        }
        let union: BTreeSet<&str> =
            mine.iter().flat_map(|r| r.keys.iter().map(String::as_str)).collect();
        for (tok, key) in reader_probes(f) {
            if union.contains(key.as_str()) {
                continue;
            }
            let sources: Vec<String> =
                mine.iter().map(|r| format!("{} ({})", r.strukt, r.pair_name)).collect();
            out.push((
                fi,
                raw(
                    &f.cx,
                    "schema-drift",
                    tok,
                    format!(
                        "reader probes field `{key}`, which no paired writer serializes \
                         ({}); the writer and reader have drifted apart",
                        sources.join(", ")
                    ),
                ),
            ));
        }
    }
    duplicate_struct_drift(files, &on, &mut out);
    (out, config_out)
}

/// A config-level `schema-drift` finding: no file, no position.
fn config_finding(message: String) -> RawFinding {
    RawFinding { lint: "schema-drift", line: 1, col: 1, tok: usize::MAX, message }
}

/// A struct's serialized field names (skip-marked fields excluded).
fn wire_fields(it: &Item) -> BTreeSet<String> {
    it.fields.iter().filter(|fl| !fl.skipped).map(|fl| fl.wire_name.clone()).collect()
}

struct ResolvedSchema {
    pair_name: String,
    strukt: String,
    /// Effective wire keys: struct fields − writer filters + writer tags.
    keys: BTreeSet<String>,
    readers: Vec<String>,
}

/// Resolve one `[schema.*]` pair: find the struct, apply the writer-fn
/// mining. Emits writer-side findings (stale filters) into `out` and
/// config errors into `config_out` directly.
fn resolve_schema(
    files: &[FileAnalysis<'_>],
    pair: &SchemaPair,
    out: &mut Vec<(usize, RawFinding)>,
    config_out: &mut Vec<RawFinding>,
) -> Option<ResolvedSchema> {
    // The struct's first definition in a library file, in corpus order.
    let (sfi, strukt) = files.iter().enumerate().find_map(|(fi, f)| {
        if f.spec.role != FileRole::Lib {
            return None;
        }
        f.items
            .items
            .iter()
            .find(|it| it.kind == ItemKind::Struct && it.name == pair.strukt)
            .map(|it| (fi, it))
    })?;
    let mut keys = wire_fields(strukt);

    if let Some(writer_fn) = &pair.writer_fn {
        let wfi = match &pair.writer_file {
            Some(pat) => files.iter().position(|f| f.spec.file.contains(pat)),
            None => Some(sfi),
        };
        let Some(wfi) = wfi else {
            config_out.push(config_finding(format!(
                "[schema.{}] writer-file `{}` matches no workspace file",
                pair.name,
                pair.writer_file.as_deref().unwrap_or("")
            )));
            return None;
        };
        let wf = &files[wfi];
        if let Some((added, removed)) = mine_writer_fn(wf, writer_fn) {
            for (tok, key) in removed {
                if keys.remove(&key) {
                    continue;
                }
                out.push((
                    wfi,
                    raw(
                        &wf.cx,
                        "schema-drift",
                        tok,
                        format!(
                            "writer `{writer_fn}` filters field `{key}`, which `{}` does \
                             not serialize; the filter is stale",
                            pair.strukt
                        ),
                    ),
                ));
            }
            keys.extend(added);
        } else {
            config_out.push(config_finding(format!(
                "[schema.{}] writer-fn `{writer_fn}` is not defined in `{}`",
                pair.name, wf.spec.file
            )));
        }
    }

    Some(ResolvedSchema {
        pair_name: pair.name.clone(),
        strukt: pair.strukt.clone(),
        keys,
        readers: pair.readers.clone(),
    })
}

/// Same-named `#[derive(Serialize/Deserialize)]` structs defined in two
/// different crates must agree on wire fields — they are two halves of
/// one format.
fn duplicate_struct_drift(
    files: &[FileAnalysis<'_>],
    on: &[bool],
    out: &mut Vec<(usize, RawFinding)>,
) {
    let mut by_name: BTreeMap<&str, Vec<(usize, &Item)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        if f.spec.role != FileRole::Lib {
            continue;
        }
        for it in &f.items.items {
            let serde = it.derives.iter().any(|d| d == "Serialize" || d == "Deserialize");
            if it.kind == ItemKind::Struct && serde && !f.cx.is_test(it.tok) {
                by_name.entry(it.name.as_str()).or_default().push((fi, it));
            }
        }
    }
    for (name, defs) in by_name {
        if defs.len() < 2 {
            continue;
        }
        let crates: BTreeSet<&str> =
            defs.iter().map(|(fi, _)| files[*fi].spec.krate.as_str()).collect();
        if crates.len() < 2 {
            continue; // cfg-gated duplicates within one crate are fine
        }
        let first = wire_fields(defs[0].1);
        for (fi, it) in &defs[1..] {
            let theirs = wire_fields(it);
            if theirs == first || !on[*fi] {
                continue;
            }
            let diff: Vec<String> =
                first.symmetric_difference(&theirs).map(|s| format!("`{s}`")).collect();
            out.push((
                *fi,
                RawFinding {
                    lint: "schema-drift",
                    line: it.line,
                    col: it.col,
                    tok: it.tok,
                    message: format!(
                        "struct `{name}` is defined in {} crates with different wire \
                         fields ({} disagree: {}); the copies have drifted apart",
                        crates.len(),
                        diff.len(),
                        diff.join(", ")
                    ),
                },
            ));
        }
    }
}

/// Mine a hand-rolled writer fn body: `("key".to_owned(), …)` tuple keys
/// it *adds*, and `!= "key"` comparisons that *filter* struct fields.
/// Returns `None` when the fn is not defined in the file.
#[allow(clippy::type_complexity)]
fn mine_writer_fn(
    f: &FileAnalysis<'_>,
    name: &str,
) -> Option<(BTreeSet<String>, Vec<(usize, String)>)> {
    let (lo, hi) = f
        .items
        .items
        .iter()
        .find(|it| it.kind == ItemKind::Fn && it.name == name)
        .and_then(|it| it.body)?;
    let cx = &f.cx;
    let mut added = BTreeSet::new();
    let mut removed = Vec::new();
    let mut j = lo;
    while j < hi {
        // `( "key" . to_owned ( ) ,` — a literal key entering the record.
        if cx.punct_at(j, "(")
            && cx.kind(j + 1) == TokKind::Str
            && cx.punct_at(j + 2, ".")
            && (cx.ident_at(j + 3, "to_owned") || cx.ident_at(j + 3, "to_string"))
            && cx.punct_at(j + 4, "(")
            && cx.punct_at(j + 5, ")")
            && cx.punct_at(j + 6, ",")
        {
            added.insert(strip_str(cx.text(j + 1)));
        }
        // `!= "key"` — a struct field filtered out of the record.
        if cx.punct_at(j, "!") && cx.punct_at(j + 1, "=") && cx.kind(j + 2) == TokKind::Str {
            removed.push((j + 2, strip_str(cx.text(j + 2))));
        }
        j += 1;
    }
    Some((added, removed))
}

/// Field probes in a reader file: `.get("key")` calls and `"key":`
/// patterns inside string literals (JSON prefixes asserted by tests).
fn reader_probes(f: &FileAnalysis<'_>) -> Vec<(usize, String)> {
    let cx = &f.cx;
    let mut out = Vec::new();
    for j in 0..cx.code.len() {
        if cx.punct_at(j, ".")
            && cx.ident_at(j + 1, "get")
            && cx.punct_at(j + 2, "(")
            && cx.kind(j + 3) == TokKind::Str
            && cx.punct_at(j + 4, ")")
        {
            out.push((j + 3, strip_str(cx.text(j + 3))));
        }
        if cx.kind(j) == TokKind::Str {
            for key in json_keys_in_literal(cx.text(j)) {
                out.push((j, key));
            }
        }
    }
    out
}

/// Extract `"key":` patterns from the *source text* of a string literal
/// (quotes may be escaped: `"{\"record\": …"` probes `record`).
pub(crate) fn json_keys_in_literal(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut p = 0usize;
    // Skip the opening delimiter so it never pairs with an inner quote.
    if bytes.first() == Some(&b'"') {
        p = 1;
    }
    while p < bytes.len() {
        // An opening quote: either `\"` or a bare `"` (raw strings).
        let q = if bytes[p] == b'\\' && bytes.get(p + 1) == Some(&b'"') {
            2
        } else if bytes[p] == b'"' {
            1
        } else {
            p += 1;
            continue;
        };
        let start = p + q;
        let mut e = start;
        while e < bytes.len() && (bytes[e].is_ascii_alphanumeric() || bytes[e] == b'_') {
            e += 1;
        }
        if e == start {
            p += q;
            continue;
        }
        // Closing quote (either form), optional spaces, then `:`.
        let close = if bytes.get(e) == Some(&b'\\') && bytes.get(e + 1) == Some(&b'"') {
            e + 2
        } else if bytes.get(e) == Some(&b'"') {
            e + 1
        } else {
            p = e;
            continue;
        };
        let mut c = close;
        while bytes.get(c) == Some(&b' ') {
            c += 1;
        }
        if bytes.get(c) == Some(&b':') {
            // `String::from_utf8_lossy` is exact here: the range is ASCII.
            out.push(String::from_utf8_lossy(&bytes[start..e]).into_owned());
        }
        p = e;
    }
    out
}

pub(crate) fn strip_str(text: &str) -> String {
    text.trim_matches('"').to_owned()
}

pub(crate) fn raw(
    cx: &crate::context::FileCx<'_>,
    lint: &'static str,
    tok: usize,
    message: String,
) -> RawFinding {
    let t = cx.code.get(tok).copied();
    RawFinding { lint, line: t.map_or(0, |t| t.line), col: t.map_or(0, |t| t.col), tok, message }
}

#[cfg(test)]
mod tests {
    use super::{json_keys_in_literal, referenced_outside};
    use crate::config::{AuditConfig, SchemaPair};
    use crate::diag::Finding;
    use crate::driver::audit_sources;
    use crate::symbols::{analyze_file, FileAnalysis, FileRole, SourceSpec};

    fn spec(krate: &str, file: &str, src: &str) -> SourceSpec {
        SourceSpec {
            krate: krate.to_owned(),
            file: file.to_owned(),
            role: FileRole::from_rel(file),
            src: src.to_owned(),
        }
    }

    fn cfg_all() -> AuditConfig {
        let toml = "[default]\nseed-provenance = true\nschema-drift = true\n\
                    dead-public-api = true\nerror-context-loss = true\n";
        AuditConfig::from_toml(toml, "test", &crate::lints::known_lint_names()).unwrap()
    }

    fn run(specs: Vec<SourceSpec>, cfg: &AuditConfig) -> Vec<Finding> {
        audit_sources(specs, cfg).findings
    }

    #[test]
    fn reference_scope_excludes_own_lib_and_tests() {
        let specs = [
            spec(
                "iotax-x",
                "crates/x/src/lib.rs",
                "pub fn used_by_bin() {}\nfn own() { used_by_bin(); }",
            ),
            spec("iotax-x", "crates/x/src/bin/tool.rs", "fn main() { used_by_bin(); }"),
            spec("iotax-x", "crates/x/tests/t.rs", "fn t() { test_user(); }"),
            spec("iotax-y", "crates/y/src/lib.rs", "fn f() { cross_user(); }"),
        ];
        let files: Vec<FileAnalysis<'_>> = specs.iter().map(analyze_file).collect();
        let refd = |name| referenced_outside(&files, "iotax-x", name);
        assert!(refd("used_by_bin"), "own bin counts");
        assert!(!refd("test_user"), "tests never count");
        assert!(refd("cross_user"), "other crate counts");
        assert!(!refd("own"), "own lib does not count");
    }

    #[test]
    fn macro_bodies_count_as_external_references() {
        // `span!` expands `$crate::Guard::enter_under` at downstream call
        // sites, so the macro body keeps `enter_under` alive even though
        // no other file spells the name out.
        let specs = [spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub struct Guard;\nimpl Guard { pub fn enter_under() -> Guard { Guard } }\n\
             #[macro_export]\nmacro_rules! open {\n    () => { $crate::Guard::enter_under() };\n}",
        )];
        let files: Vec<FileAnalysis<'_>> = specs.iter().map(analyze_file).collect();
        assert!(referenced_outside(&files, "iotax-x", "enter_under"), "macro body counts");
    }

    #[test]
    fn seed_from_param_is_clean_ambient_is_not() {
        let clean = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn run(seed: u64) { let rng = substream(seed ^ 0xFA, 7); }",
        );
        let found = run(vec![clean], &cfg_all());
        assert!(found.iter().all(|f| f.lint != "seed-provenance"), "{found:?}");

        let dirty = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn run() { let t = SystemTime::now(); let s = hashof(t); \
             let rng = substream(s, 7); }",
        );
        let found = run(vec![dirty], &cfg_all());
        assert!(
            found
                .iter()
                .any(|f| f.lint == "seed-provenance" && f.message.contains("ambient source `now`")),
            "{:?}",
            found.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn literal_seed_is_flagged_unresolved_is_not() {
        let lit =
            spec("iotax-x", "crates/x/src/lib.rs", "pub fn run() { let r = substream(42, 1); }");
        let seeds: Vec<String> = run(vec![lit], &cfg_all())
            .into_iter()
            .filter(|f| f.lint == "seed-provenance")
            .map(|f| f.lint)
            .collect();
        assert_eq!(seeds, vec!["seed-provenance"]);

        // `cfg.seed` resolves `cfg` to a parameter → clean.
        let field = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn run(cfg: &Config) { let r = substream(cfg.seed, 1); }",
        );
        assert!(run(vec![field], &cfg_all()).iter().all(|f| f.lint != "seed-provenance"));

        // A free fn result is unresolvable → conservative pass.
        let unknown = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn run() { let r = substream(derive_seed(), 1); }",
        );
        assert!(run(vec![unknown], &cfg_all()).iter().all(|f| f.lint != "seed-provenance"));
    }

    #[test]
    fn cross_crate_question_mark_needs_context() {
        let src = "use iotax_darshan::parse_log;\n\
                   pub fn ingest(b: &[u8]) -> iotax_obs::Result<Log> { let l = parse_log(b)?; Ok(l) }";
        let bare = spec("iotax-cli", "crates/cli/src/lib.rs", src);
        let found = run(vec![bare], &cfg_all());
        assert!(
            found.iter().any(|f| f.lint == "error-context-loss"),
            "{:?}",
            found.iter().map(|f| &f.message).collect::<Vec<_>>()
        );

        // Context attached via .map_err → the `?` follows a method call.
        let wrapped = spec(
            "iotax-cli",
            "crates/cli/src/lib.rs",
            "use iotax_darshan::parse_log;\n\
             pub fn ingest(b: &[u8]) -> iotax_obs::Result<Log> {\n\
                 let l = parse_log(b).map_err(|e| e.wrap(\"x\"))?; Ok(l) }",
        );
        assert!(run(vec![wrapped], &cfg_all()).iter().all(|f| f.lint != "error-context-loss"));

        // Same-crate call → no boundary crossed.
        let own = spec(
            "iotax-darshan",
            "crates/darshan/src/salvage.rs",
            "use iotax_darshan::parse_log;\n\
             pub fn f(b: &[u8]) -> iotax_obs::Result<Log> { Ok(parse_log(b)?) }",
        );
        assert!(run(vec![own], &cfg_all()).iter().all(|f| f.lint != "error-context-loss"));
    }

    #[test]
    fn dead_public_api_spares_referenced_items() {
        let lib = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn used() {}\npub fn unused_helper() {}\npub(crate) fn internal() {}",
        );
        let user = spec("iotax-y", "crates/y/src/lib.rs", "fn f() { used(); }");
        let found = run(vec![lib, user], &cfg_all());
        let dead: Vec<&str> = found
            .iter()
            .filter(|f| f.lint == "dead-public-api")
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert!(dead[0].contains("unused_helper"));
    }

    #[test]
    fn schema_probe_against_missing_field_is_flagged() {
        let writer = spec(
            "iotax-x",
            "crates/x/src/report.rs",
            r#"
                #[derive(Serialize)]
                pub struct Report { pub total: u64, pub renamed_field: u64 }
            "#,
        );
        let reader = spec(
            "iotax-x",
            "crates/x/tests/probe.rs",
            r#"fn t(v: &Value) { v.get("total"); v.get("old_name"); }"#,
        );
        let mut cfg = cfg_all();
        cfg.schemas.push(SchemaPair {
            name: "report".into(),
            strukt: "Report".into(),
            writer_fn: None,
            writer_file: None,
            readers: vec!["tests/probe.rs".into()],
        });
        let found = run(vec![writer, reader], &cfg);
        let drift: Vec<&String> =
            found.iter().filter(|f| f.lint == "schema-drift").map(|f| &f.message).collect();
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("`old_name`"));
    }

    #[test]
    fn writer_fn_tags_and_filters_are_honored() {
        let writer_src = r#"
            #[derive(Serialize)]
            pub struct Report { pub total: u64, pub bulky: Vec<u8> }
            fn tagged(r: &Report) -> String {
                let mut fields = vec![("record".to_owned(), tag())];
                fields.extend(rest.into_iter().filter(|(k, _)| k != "bulky"));
                ser(fields)
            }
        "#;
        let writer = spec("iotax-x", "crates/x/src/report.rs", writer_src);
        let reader = spec(
            "iotax-x",
            "crates/x/tests/probe.rs",
            r#"fn t(s: &str) { assert!(s.starts_with("{\"record\": \"summary\"")); }"#,
        );
        let mut cfg = cfg_all();
        cfg.schemas.push(SchemaPair {
            name: "report".into(),
            strukt: "Report".into(),
            writer_fn: Some("tagged".into()),
            writer_file: Some("crates/x/src/report.rs".into()),
            readers: vec!["tests/probe.rs".into()],
        });
        let found = run(vec![writer, reader], &cfg);
        assert!(
            found.iter().all(|f| f.lint != "schema-drift"),
            "{:?}",
            found.iter().map(|f| &f.message).collect::<Vec<_>>()
        );

        // A probe for the *filtered* field must flag: it never hits the wire.
        let writer2 = spec("iotax-x", "crates/x/src/report.rs", writer_src);
        let reader2 =
            spec("iotax-x", "crates/x/tests/probe.rs", r#"fn t(v: &Value) { v.get("bulky"); }"#);
        let found2 = run(vec![writer2, reader2], &cfg);
        assert!(found2.iter().any(|f| f.lint == "schema-drift" && f.message.contains("`bulky`")));
    }

    #[test]
    fn duplicate_structs_across_crates_must_agree() {
        let a = spec(
            "iotax-a",
            "crates/a/src/lib.rs",
            "#[derive(Serialize)]\npub struct Shared { pub x: u64, pub y: u64 }",
        );
        let b = spec(
            "iotax-b",
            "crates/b/src/lib.rs",
            "#[derive(Deserialize)]\npub struct Shared { pub x: u64, pub z: u64 }",
        );
        let found = run(vec![a, b], &cfg_all());
        assert!(found
            .iter()
            .any(|f| f.lint == "schema-drift" && f.message.contains("drifted apart")));
    }

    #[test]
    fn json_keys_in_literal_handles_escapes_and_raw() {
        assert_eq!(
            json_keys_in_literal(r#""{\"record\": \"summary\", \"total\": 3}""#),
            vec!["record", "total"]
        );
        assert_eq!(json_keys_in_literal(r#""fault rate drifted: {x}""#), Vec::<String>::new());
        assert_eq!(json_keys_in_literal(r##"r#"{"type": "span"}"#"##), vec!["type"]);
    }

    #[test]
    fn missing_struct_is_a_config_finding() {
        let lib = spec("iotax-x", "crates/x/src/lib.rs", "pub fn used() {}");
        let mut cfg = cfg_all();
        cfg.schemas.push(SchemaPair {
            name: "ghost".into(),
            strukt: "NoSuchStruct".into(),
            writer_fn: None,
            writer_file: None,
            readers: vec![],
        });
        let found = run(vec![lib], &cfg);
        assert!(
            found.iter().any(|f| f.file == "audit.toml" && f.message.contains("NoSuchStruct")),
            "{found:?}"
        );
    }
}
