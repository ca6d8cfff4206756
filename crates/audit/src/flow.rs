//! The two cross-file flow analyses.
//!
//! Where the token lint in [`crate::lints`] checks one token window in
//! one file, these passes reason about the bugs that live at the *seams*
//! between crates:
//!
//! | lint | seam it guards |
//! |------|----------------|
//! | `seed-provenance`    | every RNG is a pure function of a threaded seed, not the wall clock or a buried literal |
//! | `dead-public-api`    | `pub` in a library crate means *somebody outside consumes this* |
//!
//! Both are conservative by construction: unresolvable provenance,
//! ambiguous names, and unknown call targets are passes, not findings.
//! The suppression machinery (`// audit:allow(lint) -- reason`) applies
//! to these findings exactly as it does to the token lint.
//!
//! `seed-provenance` is a per-file pass; `dead-public-api` is a workspace
//! pass over every file's analysis. `seed-provenance` follows a seed's
//! bindings (`let` and bare reassignment alike) with the dataflow
//! engine's def-use resolver, `dataflow::last_def`, under the
//! same depth bound, so `s = 42;` after `let mut s = seed;` is a literal.

use crate::dataflow::{last_def, MAX_CHAIN_DEPTH};
use crate::items::{Item, ItemKind, Vis};
use crate::lexer::TokKind;
use crate::lints::{raw, RawFinding};
use crate::symbols::{FileAnalysis, FileRole};
use std::collections::BTreeSet;

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
        if depth >= MAX_CHAIN_DEPTH {
            saw_unknown = true;
            continue;
        }
        // The last `let name = …;` or `name = …;` earlier in the enclosing
        // fn body.
        if let Some(rhs) = last_def(f, &name, body_lo, site) {
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
// dead-public-api
// ---------------------------------------------------------------------------

/// Names that are conventionally referenced implicitly (trait machinery,
/// constructors invoked through generic code) — never flagged.
const IMPLICIT_NAMES: &[&str] = &[
    "new", "default", "main", "fmt", "from", "into", "clone", "eq", "hash", "next", "drop", "deref",
];

/// Flaggable `pub` items of library files that no file outside their
/// crate mentions, as findings indexed by file.
pub(crate) fn dead_public_api(files: &[FileAnalysis<'_>]) -> Vec<(usize, RawFinding)> {
    let mut out = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let krate = &f.spec.krate;
        if f.spec.role != FileRole::Lib {
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
    // Items nested inside a fn body, an initializer or a type's fields
    // are locals regardless of `pub`.
    let mut p = item.parent;
    while let Some(pi) = p {
        if !matches!(f.items.items[pi].kind, ItemKind::Mod | ItemKind::Impl | ItemKind::Trait) {
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

#[cfg(test)]
mod tests {
    use super::referenced_outside;
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

    fn run(specs: Vec<SourceSpec>) -> Vec<Finding> {
        audit_sources(specs, false).findings
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
        let found = run(vec![clean]);
        assert!(found.iter().all(|f| f.lint != "seed-provenance"), "{found:?}");

        let dirty = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn run() { let t = SystemTime::now(); let s = hashof(t); \
             let rng = substream(s, 7); }",
        );
        let found = run(vec![dirty]);
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
        let seeds: Vec<String> = run(vec![lit])
            .into_iter()
            .filter(|f| f.lint == "seed-provenance")
            .map(|f| f.lint)
            .collect();
        assert_eq!(seeds, vec!["seed-provenance"]);

        // A seed reassigned to a literal is the literal, whatever it was
        // bound to first.
        let reassigned = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn run(seed: u64) { let mut s = seed; s = 42; let r = substream(s, 1); }",
        );
        let found = run(vec![reassigned]);
        assert!(
            found.iter().any(|f| f.lint == "seed-provenance" && f.message.contains("literal")),
            "{found:?}"
        );

        // `cfg.seed` resolves `cfg` to a parameter → clean.
        let field = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn run(cfg: &Config) { let r = substream(cfg.seed, 1); }",
        );
        assert!(run(vec![field]).iter().all(|f| f.lint != "seed-provenance"));

        // A free fn result is unresolvable → conservative pass.
        let unknown = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn run() { let r = substream(derive_seed(), 1); }",
        );
        assert!(run(vec![unknown]).iter().all(|f| f.lint != "seed-provenance"));
    }

    #[test]
    fn dead_public_api_spares_referenced_items() {
        let lib = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn used() {}\npub fn unused_helper() {}\npub(crate) fn internal() {}",
        );
        let user = spec("iotax-y", "crates/y/src/lib.rs", "fn f() { used(); }");
        let found = run(vec![lib, user]);
        let dead: Vec<&str> = found
            .iter()
            .filter(|f| f.lint == "dead-public-api")
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert!(dead[0].contains("unused_helper"));
    }

    #[test]
    fn dead_public_api_spares_items_local_to_a_body() {
        let lib = spec(
            "iotax-x",
            "crates/x/src/lib.rs",
            "pub fn outer() { pub fn in_fn() {} }\n\
             pub const C: () = { pub fn in_const() {} };\n\
             pub struct S { a: [u8; { pub fn in_field() {} 1 }] }",
        );
        let user = spec("iotax-y", "crates/y/src/lib.rs", "fn f() { outer(); C; S; }");
        let dead: Vec<String> = run(vec![lib, user])
            .into_iter()
            .filter(|f| f.lint == "dead-public-api")
            .map(|f| f.message)
            .collect();
        assert!(dead.is_empty(), "{dead:?}");
    }
}
