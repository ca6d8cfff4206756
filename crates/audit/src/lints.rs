//! The ten domain lints.
//!
//! Each lint turns one of the taxonomy pipeline's *dynamic* guarantees
//! (proptests, the pinned-seed chaos gate) into a *static* check that
//! holds for every future change, not just the seeds the tests pin:
//!
//! | lint | guarantee it defends |
//! |------|----------------------|
//! | `nondeterministic-time`  | byte-determinism: wall-clock reads stay inside `iotax-obs` |
//! | `ambient-randomness`     | seed-reproducibility: all RNGs derive from seed substreams |
//! | `unordered-iteration`    | byte-determinism: hash-order never reaches serialized bytes or statistics |
//! | `panic-in-parser`        | totality: parsers return errors, never panic |
//! | `unchecked-cast`         | counter/offset integrity: no silent truncation |
//! | `swallowed-result`       | no silent data loss: every `Result` is handled or loudly waived |
//! | `unspanned-stage`        | observability: taxonomy stages are traceable |
//! | `unbound-span`           | observability: span guards live for the region they time |
//! | `unsynced-durable-write` | crash durability: written bytes are fsynced before the publishing rename |
//! | `event-outside-span`     | observability: flight-recorder breadcrumbs carry a span context |
//!
//! Lints are token-sequence matchers over [`FileCx`] — deliberately
//! simple and predictable. Where a pattern is provably safe (a masked
//! cast, an iteration whose order is erased by a sort), the code carries
//! an inline `// audit:allow(lint) -- reason` with the proof.

use crate::context::FileCx;
use crate::lexer::TokKind;

/// A raw finding before crate/file attribution.
#[derive(Debug, Clone)]
pub(crate) struct RawFinding {
    /// Lint that fired.
    pub lint: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Index of the offending code token (for item attribution).
    pub tok: usize,
    /// Message.
    pub message: String,
}

/// Static description of one lint.
// audit:allow(dead-public-api) -- element type of the public LINTS table, which the iotax-audit bin lists
pub struct LintSpec {
    /// Lint name as written in config and suppressions.
    pub name: &'static str,
    /// One-line description for `--list-lints`.
    pub summary: &'static str,
}

/// All domain lints, in reporting order. The two meta-lints
/// (`bad-suppression`, `unused-suppression`) are always on and live in
/// the driver.
pub const LINTS: &[LintSpec] = &[
    LintSpec {
        name: "nondeterministic-time",
        summary: "Instant::now/SystemTime::now outside iotax-obs breaks replay determinism",
    },
    LintSpec {
        name: "ambient-randomness",
        summary: "RNG not derived from seed substreams breaks bit-for-bit reproducibility",
    },
    LintSpec {
        name: "unordered-iteration",
        summary: "HashMap/HashSet iteration feeding bytes or statistics is order-nondeterministic",
    },
    LintSpec {
        name: "panic-in-parser",
        summary: "unwrap/expect/panic!/indexing in parser code paths violates totality",
    },
    LintSpec {
        name: "unchecked-cast",
        summary: "lossy `as` cast on counter/offset math can truncate silently",
    },
    LintSpec {
        name: "swallowed-result",
        summary: "`let _ =` or trailing `.ok()` silently discards a Result",
    },
    LintSpec {
        name: "unspanned-stage",
        summary: "configured stage entry points must open an iotax-obs span",
    },
    LintSpec {
        name: "unbound-span",
        summary: "`span!` statement drops its guard immediately, timing nothing",
    },
    LintSpec {
        name: "unsynced-durable-write",
        summary: "file written then renamed into place with no fsync between; a crash can publish a torn file",
    },
    LintSpec {
        name: "event-outside-span",
        summary: "`event!` breadcrumb in a function that opens no span attributes to nothing in the black box",
    },
];

/// Names of all lints, for config validation (includes the meta-lints so
/// they can be listed in suppressions without tripping validation).
pub fn known_lint_names() -> Vec<&'static str> {
    LINTS
        .iter()
        .chain(crate::flow::FLOW_LINTS)
        .chain(crate::dataflow::DATAFLOW_LINTS)
        .map(|l| l.name)
        .chain(["bad-suppression", "unused-suppression"])
        .collect()
}

/// Options threaded from [`crate::config::CrateConfig`] into the lints.
pub(crate) struct LintOptions {
    /// Lint `#[cfg(test)]` regions too.
    pub include_tests: bool,
    /// `panic-in-parser` also flags direct indexing.
    pub check_indexing: bool,
    /// `unspanned-stage` required functions.
    pub stage_functions: Vec<String>,
}

/// Run one lint over a file. Returns raw findings; the driver applies
/// test-region filtering via `opts.include_tests` is already honored here.
pub(crate) fn run_lint(name: &str, cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    match name {
        "nondeterministic-time" => nondeterministic_time(cx, opts),
        "ambient-randomness" => ambient_randomness(cx, opts),
        "unordered-iteration" => unordered_iteration(cx, opts),
        "panic-in-parser" => panic_in_parser(cx, opts),
        "unchecked-cast" => unchecked_cast(cx, opts),
        "swallowed-result" => swallowed_result(cx, opts),
        "unspanned-stage" => unspanned_stage(cx, opts),
        "unbound-span" => unbound_span(cx, opts),
        "unsynced-durable-write" => unsynced_durable_write(cx, opts),
        "event-outside-span" => event_outside_span(cx, opts),
        _ => Vec::new(),
    }
}

/// Functions named in `stage_functions` that are *defined* in this file
/// (used by the driver to flag configured-but-missing stages).
pub(crate) fn stage_functions_defined(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if cx.ident_at(i, "fn") && !skip(cx, i, opts) {
            let name = cx.text(i + 1);
            if opts.stage_functions.iter().any(|f| f == name) {
                out.push(name.to_owned());
            }
        }
    }
    out
}

fn skip(cx: &FileCx<'_>, i: usize, opts: &LintOptions) -> bool {
    !opts.include_tests && cx.is_test(i)
}

fn finding(cx: &FileCx<'_>, lint: &'static str, i: usize, message: String) -> RawFinding {
    let t = cx.code.get(i).copied();
    RawFinding { lint, line: t.map_or(0, |t| t.line), col: t.map_or(0, |t| t.col), tok: i, message }
}

// ---------------------------------------------------------------------------
// nondeterministic-time
// ---------------------------------------------------------------------------

fn nondeterministic_time(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if skip(cx, i, opts) {
            continue;
        }
        for source in ["Instant", "SystemTime"] {
            if cx.ident_at(i, source) && cx.seq_at(i + 1, &["::", "now"]) {
                out.push(finding(
                    cx,
                    "nondeterministic-time",
                    i,
                    format!(
                        "`{source}::now()` reads the wall clock; route timing through \
                         iotax-obs spans so replays stay deterministic"
                    ),
                ));
            }
        }
        if cx.ident_at(i, "UNIX_EPOCH") {
            out.push(finding(
                cx,
                "nondeterministic-time",
                i,
                "`UNIX_EPOCH` arithmetic reads the wall clock; route timing through \
                 iotax-obs spans so replays stay deterministic"
                    .to_owned(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// ambient-randomness
// ---------------------------------------------------------------------------

fn ambient_randomness(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if skip(cx, i, opts) || cx.kind(i) != TokKind::Ident {
            continue;
        }
        let (what, why) = match cx.text(i) {
            "thread_rng" | "rng" if cx.punct_at(i + 1, "(") && cx.punct_at(i - 1, "::") => {
                ("an ambient thread RNG", "is seeded from the OS")
            }
            "thread_rng" if cx.punct_at(i + 1, "(") => {
                ("an ambient thread RNG", "is seeded from the OS")
            }
            "from_entropy" | "from_os_rng" | "OsRng" => ("OS entropy", "differs on every run"),
            "seed_from_u64" => (
                "a directly seeded RNG",
                "bypasses the substream derivation, so parallel scheduling can reorder draws",
            ),
            _ => continue,
        };
        out.push(finding(
            cx,
            "ambient-randomness",
            i,
            format!(
                "{what} {why}; derive RNGs with `iotax_stats::rng::substream(seed, stream)` \
                 so every draw is a pure function of the experiment seed"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// unordered-iteration
// ---------------------------------------------------------------------------

/// Iteration-order-sensitive methods on hash containers.
const ORDERED_SINKS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

fn unordered_iteration(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    // Pass 1: names bound to HashMap/HashSet in `let` statements or
    // `name: HashMap<…>` parameter/field positions.
    let mut hash_names: Vec<String> = Vec::new();
    for i in 0..cx.code.len() {
        if !(cx.ident_at(i, "HashMap") || cx.ident_at(i, "HashSet")) {
            continue;
        }
        // Walk back to the statement head looking for `let [mut] name`.
        let lo = i.saturating_sub(16);
        for j in (lo..i).rev() {
            if matches!(cx.text(j), ";" | "{" | "}") {
                break;
            }
            if cx.ident_at(j, "let") {
                let name_at = if cx.ident_at(j + 1, "mut") { j + 2 } else { j + 1 };
                if cx.kind(name_at) == TokKind::Ident {
                    hash_names.push(cx.text(name_at).to_owned());
                }
                break;
            }
        }
        // `name : [& mut] HashMap` parameter form.
        if cx.punct_at(i.saturating_sub(1), ":") && cx.kind(i.saturating_sub(2)) == TokKind::Ident {
            hash_names.push(cx.text(i - 2).to_owned());
        } else if cx.punct_at(i.saturating_sub(1), "&") || cx.ident_at(i.saturating_sub(1), "mut") {
            let mut j = i.saturating_sub(1);
            while j > 0
                && (cx.punct_at(j, "&") || cx.ident_at(j, "mut") || cx.kind(j) == TokKind::Lifetime)
            {
                j -= 1;
            }
            if cx.punct_at(j, ":") && cx.kind(j.saturating_sub(1)) == TokKind::Ident {
                hash_names.push(cx.text(j - 1).to_owned());
            }
        }
    }
    hash_names.sort();
    hash_names.dedup();

    // Pass 2: flag order-sensitive consumption of those names.
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if skip(cx, i, opts) || cx.kind(i) != TokKind::Ident {
            continue;
        }
        let name = cx.text(i);
        if !hash_names.iter().any(|n| n == name) {
            continue;
        }
        // `name.iter()` / `.keys()` / `.into_values()` / `.drain()` …
        if cx.punct_at(i + 1, ".")
            && ORDERED_SINKS.contains(&cx.text(i + 2))
            && cx.punct_at(i + 3, "(")
        {
            out.push(finding(
                cx,
                "unordered-iteration",
                i,
                format!(
                    "iterating hash container `{name}` (`.{}()`) yields a different order \
                     every run; sort the result, use a BTreeMap, or prove the order is \
                     erased downstream",
                    cx.text(i + 2)
                ),
            ));
            continue;
        }
        // `for x in [&[mut]] name {` — iteration by loop header.
        let mut j = i;
        let mut saw_in = false;
        while j > 0 && !matches!(cx.text(j), ";" | "{" | "}") {
            if cx.ident_at(j, "in") {
                saw_in = true;
            }
            if cx.ident_at(j, "for") && saw_in && cx.punct_at(i + 1, "{") {
                out.push(finding(
                    cx,
                    "unordered-iteration",
                    i,
                    format!(
                        "looping over hash container `{name}` yields a different order \
                         every run; sort first or use a BTreeMap"
                    ),
                ));
                break;
            }
            j -= 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// panic-in-parser
// ---------------------------------------------------------------------------

/// Keywords that legitimately precede `[` without being an indexed value.
const NOT_INDEXABLE: &[&str] = &[
    "let", "mut", "in", "return", "if", "else", "match", "as", "move", "ref", "where", "dyn",
    "impl", "fn", "for", "while", "loop", "break", "continue", "const", "static", "type", "pub",
    "use", "mod", "crate", "self", "super", "unsafe", "box", "yield",
];

fn panic_in_parser(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if skip(cx, i, opts) {
            continue;
        }
        // `.unwrap()` / `.expect(`.
        if cx.punct_at(i, ".") {
            let m = cx.text(i + 1);
            if matches!(m, "unwrap" | "expect") && cx.punct_at(i + 2, "(") {
                out.push(finding(
                    cx,
                    "panic-in-parser",
                    i + 1,
                    format!(
                        "`.{m}()` can panic on attacker-shaped input; return a typed \
                         error (`ParseError` / `iotax::Error`) instead"
                    ),
                ));
            }
            continue;
        }
        // `panic!` family.
        if cx.kind(i) == TokKind::Ident
            && matches!(cx.text(i), "panic" | "unreachable" | "todo" | "unimplemented")
            && cx.punct_at(i + 1, "!")
        {
            out.push(finding(
                cx,
                "panic-in-parser",
                i,
                format!(
                    "`{}!` aborts the pipeline; parser code paths must degrade to a \
                     typed error",
                    cx.text(i)
                ),
            ));
            continue;
        }
        // Direct indexing `expr[…]`: `[` directly after an ident, `)` or
        // `]` — never after keywords, `#`, `=`, type positions, etc.
        if opts.check_indexing && cx.punct_at(i, "[") && i > 0 {
            let prev_ok = match cx.kind(i - 1) {
                TokKind::Ident => !NOT_INDEXABLE.contains(&cx.text(i - 1)),
                TokKind::Punct => matches!(cx.text(i - 1), ")" | "]"),
                _ => false,
            };
            if prev_ok {
                out.push(finding(
                    cx,
                    "panic-in-parser",
                    i,
                    "direct indexing panics when out of bounds; use `.get()` and map \
                     the miss to a typed error"
                        .to_owned(),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unchecked-cast
// ---------------------------------------------------------------------------

/// Target types a cast can silently truncate into. 64-bit targets are
/// exempt: the workspace's counter/offset math is at most 64 bits wide.
/// `usize`/`isize` are treated as 32-bit so the code stays correct on
/// 32-bit hosts.
fn cast_target_max(ty: &str) -> Option<u128> {
    Some(match ty {
        "u8" => u8::MAX as u128,
        "u16" => u16::MAX as u128,
        "u32" => u32::MAX as u128,
        "i8" => i8::MAX as u128,
        "i16" => i16::MAX as u128,
        "i32" => i32::MAX as u128,
        "usize" => u32::MAX as u128,
        "isize" => i32::MAX as u128,
        _ => return None,
    })
}

fn unchecked_cast(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if skip(cx, i, opts) || !cx.ident_at(i, "as") {
            continue;
        }
        let ty = cx.text(i + 1);
        let Some(max) = cast_target_max(ty) else { continue };
        // Exemption 1: literal source that provably fits: `255 as u8`.
        if cx.kind(i.saturating_sub(1)) == TokKind::Int {
            let fits =
                cx.code.get(i - 1).and_then(|t| t.int_value(cx.src)).is_some_and(|v| v <= max);
            if fits {
                continue;
            }
        }
        // Exemption 2: masked source that provably fits:
        // `(expr & 0x7F) as u8` — tokens `& LIT ) as ty`.
        if i >= 3
            && cx.punct_at(i - 1, ")")
            && cx.kind(i - 2) == TokKind::Int
            && cx.punct_at(i - 3, "&")
        {
            let fits =
                cx.code.get(i - 2).and_then(|t| t.int_value(cx.src)).is_some_and(|v| v <= max);
            if fits {
                continue;
            }
        }
        out.push(finding(
            cx,
            "unchecked-cast",
            i,
            format!(
                "`as {ty}` silently truncates out-of-range values; use \
                 `{ty}::try_from` with a typed error, widen the intermediate type, \
                 or mask the value to a provably fitting range"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// swallowed-result
// ---------------------------------------------------------------------------

fn swallowed_result(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if skip(cx, i, opts) {
            continue;
        }
        // `let _ = …;` (exact wildcard, not `_name`).
        if cx.ident_at(i, "let") && cx.ident_at(i + 1, "_") && cx.punct_at(i + 2, "=") {
            out.push(finding(
                cx,
                "swallowed-result",
                i,
                "`let _ =` silently discards a Result; handle the error, propagate it \
                 with `?`, or waive it with a reasoned suppression"
                    .to_owned(),
            ));
            continue;
        }
        // Statement-position `….ok();` — a Result reduced to Option and
        // dropped. Bound forms (`let x = r.ok();`) are fine.
        if cx.punct_at(i, ".")
            && cx.ident_at(i + 1, "ok")
            && cx.punct_at(i + 2, "(")
            && cx.punct_at(i + 3, ")")
            && cx.punct_at(i + 4, ";")
        {
            let mut bound = false;
            let mut j = i;
            while j > 0 {
                j -= 1;
                match cx.text(j) {
                    ";" | "{" | "}" => break,
                    "=" | "let" | "return" | "=>" => {
                        bound = true;
                        break;
                    }
                    _ => {}
                }
            }
            if !bound {
                out.push(finding(
                    cx,
                    "swallowed-result",
                    i + 1,
                    "trailing `.ok()` swallows the error; handle it, propagate it, or \
                     waive it with a reasoned suppression"
                        .to_owned(),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unspanned-stage
// ---------------------------------------------------------------------------

fn unspanned_stage(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if !cx.ident_at(i, "fn") || skip(cx, i, opts) {
            continue;
        }
        let name = cx.text(i + 1);
        if !opts.stage_functions.iter().any(|f| f == name) {
            continue;
        }
        // Find the body `{ … }` and look for `span !` inside it.
        let mut j = i + 2;
        while j < cx.code.len() && !cx.punct_at(j, "{") {
            if cx.punct_at(j, ";") {
                break; // declaration without body (trait fn)
            }
            j += 1;
        }
        if !cx.punct_at(j, "{") {
            continue;
        }
        let mut depth = 0i32;
        let mut has_span = false;
        while j < cx.code.len() {
            if cx.punct_at(j, "{") {
                depth += 1;
            } else if cx.punct_at(j, "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if cx.ident_at(j, "span") && cx.punct_at(j + 1, "!") {
                has_span = true;
            }
            j += 1;
        }
        if !has_span {
            out.push(finding(
                cx,
                "unspanned-stage",
                i + 1,
                format!(
                    "stage entry point `{name}` opens no iotax-obs span; add \
                     `let _span = iotax_obs::span!(\"…\");` so the stage appears in \
                     TaxonomyReport timings"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unbound-span
// ---------------------------------------------------------------------------

fn unbound_span(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if skip(cx, i, opts)
            || !cx.ident_at(i, "span")
            || !cx.punct_at(i + 1, "!")
            || !cx.punct_at(i + 2, "(")
        {
            continue;
        }
        // Find the macro's closing paren.
        let mut j = i + 2;
        let mut depth = 0i32;
        while j < cx.code.len() {
            if cx.punct_at(j, "(") {
                depth += 1;
            } else if cx.punct_at(j, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        // Only a whole statement drops the guard on the spot; a bound or
        // nested use (`let _s = span!(…)`, `f(span!(…))`, tail position)
        // hands it to someone.
        if !cx.punct_at(j + 1, ";") {
            continue;
        }
        // Strip an optional path prefix (`iotax_obs::`, `crate::`, …).
        let mut k = i;
        while k >= 2 && cx.punct_at(k - 1, "::") && cx.kind(k - 2) == TokKind::Ident {
            k -= 2;
        }
        let statement_head = k == 0 || matches!(cx.text(k - 1), ";" | "{" | "}");
        // `let _ = span!(…);` discards the guard just as immediately.
        let wildcard_bound = k >= 3
            && cx.punct_at(k - 1, "=")
            && cx.ident_at(k - 2, "_")
            && cx.ident_at(k - 3, "let");
        if statement_head || wildcard_bound {
            out.push(finding(
                cx,
                "unbound-span",
                i,
                "this `span!` guard is dropped immediately, so the span closes before \
                 the work it should time; bind it (`let _span = span!(…);`) for the \
                 lifetime of the region"
                    .to_owned(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unsynced-durable-write
// ---------------------------------------------------------------------------

/// Calls that put bytes into a file the function later publishes.
const DURABLE_WRITES: &[&str] = &["create", "create_new", "write", "write_all"];

/// Calls that make those bytes durable before the publish.
const SYNC_CALLS: &[&str] = &["sync_all", "sync_data", "fsync", "fsync_dir"];

/// The durable-publish protocol the store and ledger rely on is
/// write → fsync → rename: a rename is atomic, but it atomically
/// publishes whatever the page cache holds, so renaming an unsynced file
/// can install an empty or torn file after a crash. Within one function,
/// flag any `rename(…)` that follows a file create/write with no
/// `sync_all`/`sync_data` in between. Functions that only move files
/// (no write) are fine, as is syncing and then renaming.
fn unsynced_durable_write(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if !cx.ident_at(i, "fn") || skip(cx, i, opts) {
            continue;
        }
        // Find the body `{ … }`; a `;` first means a bodyless trait fn.
        let mut j = i + 2;
        while j < cx.code.len() && !cx.punct_at(j, "{") {
            if cx.punct_at(j, ";") {
                break;
            }
            j += 1;
        }
        if !cx.punct_at(j, "{") {
            continue;
        }
        let mut depth = 0i32;
        let mut wrote = false; // an unsynced durable write happened earlier
        while j < cx.code.len() {
            if cx.punct_at(j, "{") {
                depth += 1;
            } else if cx.punct_at(j, "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if cx.kind(j) == TokKind::Ident && cx.punct_at(j + 1, "(") {
                let name = cx.text(j);
                if DURABLE_WRITES.contains(&name) {
                    wrote = true;
                } else if SYNC_CALLS.contains(&name) {
                    wrote = false;
                } else if name == "rename" && wrote {
                    out.push(finding(
                        cx,
                        "unsynced-durable-write",
                        j,
                        "this rename publishes bytes that were never fsynced; a crash can \
                         install an empty or torn file — call `sync_all()`/`sync_data()` on \
                         the written file (and fsync the parent directory after the rename) \
                         before publishing"
                            .to_owned(),
                    ));
                }
            }
            j += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// event-outside-span
// ---------------------------------------------------------------------------

/// A flight-recorder breadcrumb (`event!`) fired in a function that has
/// opened no span by that point attributes to nothing: in the black box
/// it floats between span opens, and `iotax-report blackbox` cannot tie
/// it to a stage. Within one function body, flag any `event!(…)` with no
/// `span!(…)` earlier in the same body. A breadcrumb that genuinely
/// belongs to the caller's span (helpers invoked under an enclosing
/// guard) carries a reasoned `audit:allow(event-outside-span)`.
fn event_outside_span(cx: &FileCx<'_>, opts: &LintOptions) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if !cx.ident_at(i, "fn") || skip(cx, i, opts) {
            continue;
        }
        // Find the body `{ … }`; a `;` first means a bodyless trait fn.
        let mut j = i + 2;
        while j < cx.code.len() && !cx.punct_at(j, "{") {
            if cx.punct_at(j, ";") {
                break;
            }
            j += 1;
        }
        if !cx.punct_at(j, "{") {
            continue;
        }
        let mut depth = 0i32;
        let mut has_span = false;
        while j < cx.code.len() {
            if cx.punct_at(j, "{") {
                depth += 1;
            } else if cx.punct_at(j, "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if cx.ident_at(j, "span") && cx.punct_at(j + 1, "!") && cx.punct_at(j + 2, "(") {
                has_span = true;
            } else if !has_span
                && cx.ident_at(j, "event")
                && cx.punct_at(j + 1, "!")
                && cx.punct_at(j + 2, "(")
            {
                out.push(finding(
                    cx,
                    "event-outside-span",
                    j,
                    "this `event!` breadcrumb fires before any span opens in this \
                     function, so the black box cannot attribute it to a stage; open a \
                     span first (`let _span = iotax_obs::span!(\"…\");`) or waive it if \
                     the caller's span is the intended context"
                        .to_owned(),
                ));
            }
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lint: &str, src: &str) -> Vec<RawFinding> {
        let cx = FileCx::new(src);
        let opts = LintOptions {
            include_tests: false,
            check_indexing: true,
            stage_functions: vec!["baseline".to_owned()],
        };
        run_lint(lint, &cx, &opts)
    }

    #[test]
    fn time_lint_fires_on_instant_now_only_in_code() {
        let hits = run("nondeterministic-time", "fn f() { let t = Instant::now(); }");
        assert_eq!(hits.len(), 1);
        assert!(run("nondeterministic-time", "// Instant::now() in a comment").is_empty());
        assert!(run("nondeterministic-time", "fn f() { let i = Instant::other(); }").is_empty());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f() { x.unwrap(); }
            }
            fn g() { y.unwrap(); }
        "#;
        let hits = run("panic-in-parser", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 6);
    }

    #[test]
    fn cast_mask_and_literal_exemptions() {
        assert_eq!(run("unchecked-cast", "fn f(v: u64) { let b = v as u8; }").len(), 1);
        assert!(run("unchecked-cast", "fn f(v: u64) { let b = (v & 0x7F) as u8; }").is_empty());
        assert!(run("unchecked-cast", "fn f() { let b = 255 as u8; }").is_empty());
        assert_eq!(run("unchecked-cast", "fn f(v: u64) { let b = (v & 0x1FF) as u8; }").len(), 1);
        assert!(run("unchecked-cast", "fn f(v: u32) { let b = v as u64; }").is_empty());
    }

    #[test]
    fn indexing_detection_avoids_types_and_attrs() {
        assert_eq!(run("panic-in-parser", "fn f(d: &[u8]) { let x = d[0]; }").len(), 1);
        assert!(run("panic-in-parser", "fn f(d: &[u8]) -> [u8; 2] { [0, 0] }").is_empty());
        assert!(run("panic-in-parser", "#[derive(Debug)] struct S;").is_empty());
        assert!(run("panic-in-parser", "fn f() { let v = vec![1]; }").is_empty());
        assert_eq!(run("panic-in-parser", "fn f(m: &M) { m.x()[0]; }").len(), 1);
    }

    #[test]
    fn swallowed_result_statement_vs_bound() {
        assert_eq!(run("swallowed-result", "fn f() { let _ = g(); }").len(), 1);
        assert!(run("swallowed-result", "fn f() { let _g = g(); }").is_empty());
        assert_eq!(run("swallowed-result", "fn f() { g().ok(); }").len(), 1);
        assert!(run("swallowed-result", "fn f() { let v = g().ok(); }").is_empty());
        assert!(run("swallowed-result", "fn f() -> bool { g().ok().is_some() }").is_empty());
    }

    #[test]
    fn unordered_iteration_tracks_bindings() {
        let src = r#"
            fn f() {
                let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
                let sets: Vec<_> = groups.into_values().collect();
                let v = vec![1];
                let s: Vec<_> = v.iter().collect();
            }
        "#;
        let hits = run("unordered-iteration", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("groups"));
    }

    #[test]
    fn unspanned_stage_requires_span() {
        let with = "impl X { pub fn baseline(self) -> Y { let _span = span!(\"s\"); y() } }";
        assert!(run("unspanned-stage", with).is_empty());
        let without = "impl X { pub fn baseline(self) -> Y { y() } }";
        assert_eq!(run("unspanned-stage", without).len(), 1);
        let other = "fn unrelated() { }";
        assert!(run("unspanned-stage", other).is_empty());
    }

    #[test]
    fn unbound_span_flags_only_immediately_dropped_guards() {
        assert_eq!(run("unbound-span", "fn f() { span!(\"s\"); work(); }").len(), 1);
        assert_eq!(run("unbound-span", "fn f() { iotax_obs::span!(\"s\"); work(); }").len(), 1);
        assert_eq!(run("unbound-span", "fn f() { let _ = span!(\"s\"); work(); }").len(), 1);
        assert!(run("unbound-span", "fn f() { let _span = span!(\"s\"); work(); }").is_empty());
        assert!(run("unbound-span", "fn f() { let _s = crate::span!(\"s\"); work(); }").is_empty());
        assert!(run("unbound-span", "fn f() -> G { span!(\"s\") }").is_empty());
        assert!(run("unbound-span", "fn f() { g(span!(\"s\")); }").is_empty());
    }

    #[test]
    fn unsynced_durable_write_needs_fsync_between_write_and_rename() {
        let torn = "fn publish(d: &Path) -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            fs::rename(&tmp, d)
        }";
        assert_eq!(run("unsynced-durable-write", torn).len(), 1);
        let synced = "fn publish(d: &Path) -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, d)
        }";
        assert!(run("unsynced-durable-write", synced).is_empty());
        // A sync AFTER the rename is too late.
        let late = "fn publish(d: &Path) { fs::write(&tmp, b).unwrap();
            fs::rename(&tmp, d).unwrap(); f.sync_all().unwrap(); }";
        assert_eq!(run("unsynced-durable-write", late).len(), 1);
        // Pure moves (no write in the function) are not publishes.
        let mv = "fn quarantine(a: &Path, b: &Path) { let _r = fs::rename(a, b); }";
        assert!(run("unsynced-durable-write", mv).is_empty());
    }

    #[test]
    fn event_outside_span_requires_a_preceding_span() {
        let bare = "fn f() { iotax_obs::event!(\"stage\", \"msg\"); work(); }";
        assert_eq!(run("event-outside-span", bare).len(), 1);
        let spanned = "fn f() { let _s = span!(\"f\"); iotax_obs::event!(\"stage\", \"msg\"); }";
        assert!(run("event-outside-span", spanned).is_empty());
        // Order matters: a span opened AFTER the breadcrumb is too late.
        let late = "fn f() { event!(\"stage\", \"msg\"); let _s = span!(\"f\"); }";
        assert_eq!(run("event-outside-span", late).len(), 1);
        // Nested block spans still count — same function body.
        let nested = "fn f() { { let _s = span!(\"f\"); } event!(\"stage\", \"msg\"); }";
        assert!(run("event-outside-span", nested).is_empty());
        // `event` as a plain identifier is not the macro.
        let ident = "fn f(event: u32) { let x = event + 1; }";
        assert!(run("event-outside-span", ident).is_empty());
    }

    #[test]
    fn ambient_randomness_symbols() {
        assert_eq!(run("ambient-randomness", "fn f() { let r = thread_rng(); }").len(), 1);
        assert_eq!(
            run("ambient-randomness", "fn f() { let r = StdRng::seed_from_u64(7); }").len(),
            1
        );
        assert!(run("ambient-randomness", "fn f() { let r = substream(seed, 2); }").is_empty());
    }
}
