//! The intra-procedural dataflow/taint engine and the three lints built
//! on it: two safety checks and one corpus-cardinality capacity check.
//!
//! Where [`crate::flow`] resolves *provenance* (does this seed trace to a
//! parameter?), this module resolves *trust* and *scale*: statement-level
//! def-use chains over the token stream decide whether a value that sizes
//! an allocation was derived from the wire, whether two locks are ever
//! taken in opposite orders — and, with a second taint vocabulary,
//! whether a value whose *cardinality* scales with the job corpus is ever
//! materialized without a bound.
//!
//! | lint | hazard it guards |
//! |------|------------------|
//! | `untrusted-length-allocation` | a parse-derived integer reaches `with_capacity` / `vec![_; n]` / `reserve` / `take(n)` with no cap between source and sink |
//! | `lock-order-cycle`            | the workspace lock-acquisition graph contains a cycle, the classic deadlock precondition |
//! | `unbounded-corpus-materialization` | a corpus-scale stream reaches `collect`/`to_vec`/`read_to_end`/`extend`, or a per-job loop pushes into a container that outlives it |
//!
//! The taint lattice is deliberately two-point (`Tainted(source)` /
//! `Clean`) with a *positive-evidence* rule: a value is tainted only when
//! a chain of local defs links it to a declared source with no sanitizer
//! or comparison guard on the way. Unresolvable names — fields, cross-file
//! consts, free fns without a summary — are passes, matching the flow
//! analyses' conservatism. Both vocabularies are built in.
//!
//! `lock-order-cycle` is a workspace pass over every file's analysis; the
//! other two lints are per-file passes.

use crate::flow::{const_init_idents, first_arg_idents};
use crate::lexer::TokKind;
use crate::lints::{raw, RawFinding};
use crate::symbols::{FileAnalysis, FileRole};
use std::collections::{BTreeMap, BTreeSet};

/// Built-in taint sources: callables whose integer result is attacker- or
/// file-controlled (the little-endian readers and varint decoders every
/// parser in this workspace is built from).
const BUILTIN_SOURCES: &[&str] =
    &["varint", "zigzag", "u16_le", "u32_le", "u64_le", "f64_le", "from_le_bytes", "from_be_bytes"];

/// Built-in sanitizers: calls that bound a value regardless of its input
/// (`n.min(CAP)`, `n.clamp(0, CAP)`, `r.remaining()` — the latter cannot
/// exceed the bytes actually held).
const BUILTIN_SANITIZERS: &[&str] = &["min", "clamp", "remaining", "saturating_sub"];

/// Built-in corpus-cardinality sources: `jobs` is the canonical
/// whole-corpus accessor throughout this workspace, and `read_dir` walks
/// a directory whose entry count the code does not control.
const BUILTIN_CORPUS_SOURCES: &[&str] = &["jobs", "read_dir"];

/// Built-in corpus sanitizers: adapters that cap cardinality regardless
/// of corpus size.
const BUILTIN_CORPUS_SANITIZERS: &[&str] = &["take", "chunks", "min", "clamp"];

/// How deep the def-use resolver follows bindings before giving up (an
/// unresolved name is a pass, so the bound only limits work).
const MAX_CHAIN_DEPTH: usize = 8;

/// One taint vocabulary: source names and sanitizer names. The engine
/// runs twice per file with different vocabularies — wire-length taint
/// for `untrusted-length-allocation`, corpus-cardinality taint for
/// `unbounded-corpus-materialization`.
pub(crate) struct TaintVocab {
    pub sources: &'static [&'static str],
    pub sanitizers: &'static [&'static str],
}

/// The wire-length vocabulary.
pub(crate) fn wire_vocab() -> TaintVocab {
    TaintVocab { sources: BUILTIN_SOURCES, sanitizers: BUILTIN_SANITIZERS }
}

/// The corpus-cardinality vocabulary.
pub(crate) fn corpus_vocab() -> TaintVocab {
    TaintVocab { sources: BUILTIN_CORPUS_SOURCES, sanitizers: BUILTIN_CORPUS_SANITIZERS }
}

// ---------------------------------------------------------------------------
// def-use chains
// ---------------------------------------------------------------------------

/// Scan `[lo, site)` for the last definition of `name` — the last
/// `let [mut] name = …;` or bare reassignment `name = …;` — and return
/// the identifiers on its RHS (empty: a pure-literal binding). Handles
/// both forms, so `let mut n = src(); n = n.min(CAP);` resolves to the
/// sanitized RHS, not the tainted one.
pub(crate) fn last_def(
    f: &FileAnalysis<'_>,
    name: &str,
    lo: usize,
    site: usize,
) -> Option<Vec<String>> {
    let cx = &f.cx;
    let mut found = None;
    let mut j = lo;
    while j + 2 < site {
        let rhs_at = if cx.ident_at(j, "let") {
            let name_at = if cx.ident_at(j + 1, "mut") { j + 2 } else { j + 1 };
            if cx.ident_at(name_at, name)
                && cx.punct_at(name_at + 1, "=")
                && !cx.punct_at(name_at + 2, "=")
            {
                Some(name_at + 2)
            } else {
                None
            }
        } else if cx.ident_at(j, name)
            && cx.punct_at(j + 1, "=")
            && !cx.punct_at(j + 2, "=")
            // `==`, `<=`, `>=`, `!=`, `+=`, … lex as two puncts; a bare
            // `=` preceded by an operator half is not an assignment. A
            // preceding `.` is a field store on some other place.
            && !(j > 0
                && (matches!(cx.text(j - 1), "=" | "<" | ">" | "!" | "." )
                    || cx.ident_at(j - 1, "let")
                    || cx.ident_at(j - 1, "mut")))
        {
            Some(j + 2)
        } else {
            None
        };
        if let Some(start) = rhs_at {
            let mut idents = Vec::new();
            let mut depth = 0i64;
            let mut k = start;
            while k < cx.code.len() {
                match cx.text(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => break,
                    t if cx.kind(k) == TokKind::Ident => idents.push(t.to_owned()),
                    _ => {}
                }
                k += 1;
            }
            found = Some(idents);
        }
        j += 1;
    }
    found
}

/// Is `name` compared against something between `lo` and `site`? A
/// token-adjacent `<` or `>` (which also covers `<=`/`>=`, lexed as two
/// puncts) is taken as a cap guard: `if n > MAX { return Err(…) }` and
/// `while i < n` both count. Generic arguments never look like this —
/// the guarded side is a lowercase local, not a type path.
fn guarded(f: &FileAnalysis<'_>, name: &str, lo: usize, site: usize) -> bool {
    let cx = &f.cx;
    for j in lo..site {
        if !cx.ident_at(j, name) {
            continue;
        }
        if cx.punct_at(j + 1, "<") || cx.punct_at(j + 1, ">") {
            return true;
        }
        if j > 0 && (cx.punct_at(j - 1, "<") || cx.punct_at(j - 1, ">")) {
            return true;
        }
    }
    false
}

/// One resolution step over an identifier list (a sink argument or a
/// definition RHS): a sanitizer anywhere in the expression beats a
/// source; a source with no sanitizer is positive evidence; anything
/// else keeps following the chain.
enum Step {
    Clean,
    Tainted(String),
    Follow,
}

fn step(idents: &[String], vocab: &TaintVocab, summaries: &BTreeSet<String>) -> Step {
    if idents.iter().any(|i| vocab.sanitizers.contains(&i.as_str())) {
        return Step::Clean;
    }
    if let Some(src) =
        idents.iter().find(|i| vocab.sources.contains(&i.as_str()) || summaries.contains(*i))
    {
        return Step::Tainted(src.clone());
    }
    Step::Follow
}

/// Classify the expression whose identifiers are `idents`, used at token
/// `site`: `Some(source)` when a def-use chain positively links it to a
/// taint source with no sanitizer or comparison guard on the way.
fn trace_taint(
    f: &FileAnalysis<'_>,
    site: usize,
    idents: &[String],
    vocab: &TaintVocab,
    summaries: &BTreeSet<String>,
) -> Option<String> {
    match step(idents, vocab, summaries) {
        Step::Clean => return None,
        Step::Tainted(src) => return Some(src),
        Step::Follow => {}
    }
    let body_lo = f.items.enclosing_fn(site).and_then(|i| f.items.items[i].body).map_or(0, |b| b.0);
    let mut visited: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<(String, usize)> = idents.iter().map(|s| (s.clone(), 0)).collect();
    while let Some((name, depth)) = queue.pop() {
        if !visited.insert(name.clone()) || depth >= MAX_CHAIN_DEPTH {
            continue;
        }
        if guarded(f, &name, body_lo, site) {
            continue; // a cap comparison dominates the sink
        }
        // Fields, params, cross-file consts: unresolvable → pass.
        let Some(rhs) = last_def(f, &name, body_lo, site).or_else(|| const_init_idents(f, &name))
        else {
            continue;
        };
        match step(&rhs, vocab, summaries) {
            Step::Clean => {}
            Step::Tainted(src) => return Some(src),
            Step::Follow => queue.extend(rhs.into_iter().map(|s| (s, depth + 1))),
        }
    }
    None
}

/// One-level call summaries, per file: names of fns in this file whose
/// body calls a taint source and that return a value (`->` in the
/// signature). A call to such a fn propagates taint across the function
/// boundary — one level deep, by name, which is as far as a token-level
/// engine can honestly see. The workspace-global summary set is the
/// union of these over non-test files.
pub(crate) fn summary_fns(f: &FileAnalysis<'_>, sources: &[&str]) -> Vec<String> {
    let cx = &f.cx;
    let mut out = Vec::new();
    for item in &f.items.items {
        if item.kind != crate::items::ItemKind::Fn || cx.is_test(item.tok) {
            continue;
        }
        let Some((body_lo, body_hi)) = item.body else { continue };
        let returns = (item.tok..body_lo).any(|j| cx.punct_at(j, "->"));
        if !returns {
            continue;
        }
        let calls_source = (body_lo..body_hi).any(|j| {
            cx.kind(j) == TokKind::Ident && sources.contains(&cx.text(j)) && cx.punct_at(j + 1, "(")
        });
        if calls_source && !sources.contains(&item.name.as_str()) && !out.contains(&item.name) {
            out.push(item.name.clone());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// untrusted-length-allocation
// ---------------------------------------------------------------------------

/// Method sinks: `recv.take(n)`, `recv.reserve(n)`, `recv.reserve_exact(n)`.
const METHOD_SINKS: &[&str] = &["take", "reserve", "reserve_exact"];

pub(crate) fn untrusted_length_allocation(
    f: &FileAnalysis<'_>,
    vocab: &TaintVocab,
    summaries: &BTreeSet<String>,
) -> Vec<RawFinding> {
    let cx = &f.cx;
    let mut out = Vec::new();
    let flag = |site: usize, sink: &str, src: &str, out: &mut Vec<_>| {
        out.push(raw(
            cx,
            "untrusted-length-allocation",
            site,
            format!(
                "`{sink}` is sized by a value derived from wire source `{src}` with no \
                 intervening cap; bound it first (`.min(CAP)`, `.clamp(…)`, or an explicit \
                 comparison guard) so a forged length cannot drive the allocation"
            ),
        ));
    };
    for i in 0..cx.code.len() {
        if cx.is_test(i) || cx.kind(i) != TokKind::Ident {
            continue;
        }
        let name = cx.text(i);
        // `Type::with_capacity(n)` / free `with_capacity(n)`.
        if name == "with_capacity" && cx.punct_at(i + 1, "(") {
            let (idents, _) = first_arg_idents(f, i + 1);
            if let Some(src) = trace_taint(f, i, &idents, vocab, summaries) {
                flag(i, "with_capacity(…)", &src, &mut out);
            }
            continue;
        }
        // `recv.take(n)` / `recv.reserve(n)` / `recv.reserve_exact(n)`.
        if METHOD_SINKS.contains(&name)
            && i > 0
            && cx.punct_at(i - 1, ".")
            && cx.punct_at(i + 1, "(")
        {
            let (idents, _) = first_arg_idents(f, i + 1);
            if let Some(src) = trace_taint(f, i, &idents, vocab, summaries) {
                flag(i, &format!(".{name}(…)"), &src, &mut out);
            }
            continue;
        }
        // `vec![elem; n]` — the repeat count is the sink.
        if name == "vec" && cx.punct_at(i + 1, "!") && cx.punct_at(i + 2, "[") {
            let mut depth = 0i64;
            let mut semi = None;
            let mut close = None;
            let mut j = i + 2;
            while j < cx.code.len() {
                match cx.text(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            close = Some(j);
                            break;
                        }
                    }
                    ";" if depth == 1 => semi = semi.or(Some(j)),
                    _ => {}
                }
                j += 1;
            }
            if let (Some(semi), Some(close)) = (semi, close) {
                let idents: Vec<String> = (semi + 1..close)
                    .filter(|&k| cx.kind(k) == TokKind::Ident)
                    .map(|k| cx.text(k).to_owned())
                    .collect();
                if let Some(src) = trace_taint(f, i, &idents, vocab, summaries) {
                    flag(i, "vec![…; n]", &src, &mut out);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unbounded-corpus-materialization (corpus-cardinality taint)
// ---------------------------------------------------------------------------

/// Materializing chain sinks: `stream.collect()` / `::<…>(…)`,
/// `slice.to_vec()`, `reader.read_to_end(&mut buf)`.
const MATERIALIZE_SINKS: &[&str] = &["collect", "to_vec", "read_to_end"];

/// The capacity lint in a single token scan over one file, under the
/// corpus-cardinality vocabulary: a loop header or method chain is
/// *per-job* when [`trace_taint`] links it to a corpus source.
pub(crate) fn unbounded_corpus_materialization(
    f: &FileAnalysis<'_>,
    vocab: &TaintVocab,
    summaries: &BTreeSet<String>,
) -> Vec<RawFinding> {
    let cx = &f.cx;
    let mut out = Vec::new();
    // Per-token dedup: an `extend` can match both the chain-sink arm and
    // the loop-body arm. One finding per site.
    let mut flagged: BTreeSet<usize> = BTreeSet::new();

    for i in 0..cx.code.len() {
        if cx.is_test(i) || cx.kind(i) != TokKind::Ident {
            continue;
        }
        let name = cx.text(i);
        // Arm 1: a materializing method at the end of a corpus-tainted
        // chain. The receiver is every ident in the chain back to the
        // statement start; a bounded adapter anywhere in the chain is a
        // sanitizer and wins.
        if MATERIALIZE_SINKS.contains(&name)
            && i > 0
            && cx.punct_at(i - 1, ".")
            && (cx.punct_at(i + 1, "(") || cx.punct_at(i + 1, "::"))
        {
            let idents = receiver_chain_idents(f, i - 1);
            if let Some(src) = trace_taint(f, i, &idents, vocab, summaries) {
                if flagged.insert(i) {
                    out.push(raw(
                        cx,
                        "unbounded-corpus-materialization",
                        i,
                        format!(
                            "`.{name}(…)` materializes a corpus-scale stream derived from \
                             `{src}` in memory at once; bound it (`.take(k)`, `.chunks(n)`) \
                             or fold it into a fixed-size mergeable accumulator so peak \
                             memory stays O(1) in the job count"
                        ),
                    ));
                }
            }
            continue;
        }
        // Arm 2: `sink.extend(corpus_stream)` — the argument carries the
        // cardinality.
        if name == "extend" && i > 0 && cx.punct_at(i - 1, ".") && cx.punct_at(i + 1, "(") {
            let (idents, _) = first_arg_idents(f, i + 1);
            if let Some(src) = trace_taint(f, i, &idents, vocab, summaries) {
                if flagged.insert(i) {
                    out.push(raw(
                        cx,
                        "unbounded-corpus-materialization",
                        i,
                        format!(
                            "`.extend(…)` appends a corpus-scale stream derived from `{src}` \
                             in one shot; bound it (`.take(k)`, `.chunks(n)`) or fold it into \
                             a fixed-size mergeable accumulator so peak memory stays O(1) in \
                             the job count"
                        ),
                    ));
                }
            }
            continue;
        }
        // Arm 3: `outlived.push(…)` / `.extend(…)` inside a per-job loop
        // `for job in <corpus-tainted> { … }`, where the receiver is a
        // local defined *before* the loop — it accumulates one entry per
        // job.
        if name != "for" {
            continue;
        }
        let Some((open, header_idents)) = for_header(f, i) else { continue };
        let Some(src) = trace_taint(f, i, &header_idents, vocab, summaries) else {
            continue;
        };
        let close = match_brace(f, open);
        let body_lo =
            f.items.enclosing_fn(i).and_then(|x| f.items.items[x].body).map_or(0, |b| b.0);
        for j in open..close {
            if (cx.ident_at(j, "push") || cx.ident_at(j, "extend"))
                && j > 0
                && cx.punct_at(j - 1, ".")
                && cx.punct_at(j + 1, "(")
            {
                let Some(recv) = receiver_name(f, j - 1) else { continue };
                if last_def(f, &recv, body_lo, i).is_some() && flagged.insert(j) {
                    out.push(raw(
                        cx,
                        "unbounded-corpus-materialization",
                        j,
                        format!(
                            "container `{recv}` gains one entry per job of corpus source \
                             `{src}` and outlives the loop; bound the loop (`.take(k)`) or \
                             fold into a fixed-size mergeable accumulator so peak memory \
                             stays O(1) in the job count"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Identifiers of the method chain ending at the `.` token `dot`, walked
/// backward to the statement start (an unmatched opening bracket, or a
/// `;` / `,` / `=` / `{` at chain depth). Bounded, so degenerate token
/// soup cannot make the walk quadratic.
fn receiver_chain_idents(f: &FileAnalysis<'_>, dot: usize) -> Vec<String> {
    let cx = &f.cx;
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut j = dot;
    let mut steps = 0;
    while j > 0 && steps < 96 {
        j -= 1;
        steps += 1;
        match cx.text(j) {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" | "," | "=" if depth == 0 => break,
            t => {
                if cx.kind(j) == TokKind::Ident {
                    out.push(t.to_owned());
                }
            }
        }
    }
    out
}

/// Parse a `for … in … {` header starting at the `for` token: the loop
/// `{` and every identifier after `in` (the iterated expression). `None`
/// when no `{` appears within a sane header length.
fn for_header(f: &FileAnalysis<'_>, for_tok: usize) -> Option<(usize, Vec<String>)> {
    let cx = &f.cx;
    let mut idents = Vec::new();
    let mut saw_in = false;
    let mut j = for_tok + 1;
    while j < cx.code.len() && j < for_tok + 32 {
        if cx.punct_at(j, "{") {
            return Some((j, idents));
        }
        if !saw_in && cx.ident_at(j, "in") {
            saw_in = true;
        } else if saw_in && cx.kind(j) == TokKind::Ident {
            idents.push(cx.text(j).to_owned());
        }
        j += 1;
    }
    None
}

/// Token index of the `}` matching the `{` at `open` (or the end of the
/// token stream for unbalanced input — the caller's range scan simply
/// ends there).
fn match_brace(f: &FileAnalysis<'_>, open: usize) -> usize {
    let cx = &f.cx;
    let mut depth = 0i64;
    let mut j = open;
    while j < cx.code.len() {
        match cx.text(j) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth <= 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    cx.code.len()
}

// ---------------------------------------------------------------------------
// lock-order-cycle
// ---------------------------------------------------------------------------

/// Receivers never treated as locks even though `.lock()` parses: the
/// std stream handles, whose guards are short-lived formatting locks.
const STREAM_RECEIVERS: &[&str] = &["stdout", "stderr", "stdin"];

/// Lock names declared in one file: `name: [&'a] [Arc<] Mutex/RwLock`,
/// `let name = [Arc::new(] Mutex::new(…)`, and fns whose return type
/// mentions Mutex/RwLock (accessor fns like a global sink slot).
fn declared_locks(f: &FileAnalysis<'_>) -> BTreeSet<String> {
    let cx = &f.cx;
    let mut out = BTreeSet::new();
    for j in 0..cx.code.len() {
        if !(cx.ident_at(j, "Mutex") || cx.ident_at(j, "RwLock")) {
            continue;
        }
        // Walk back over type/ctor noise to the `:` or `=` introducer.
        let mut k = j;
        let mut steps = 0;
        while k > 0 && steps < 8 {
            k -= 1;
            steps += 1;
            let t = cx.text(k);
            if matches!(t, "&" | "<" | "(" | "::" | "Arc" | "new" | "mut" | "dyn")
                || cx.kind(k) == TokKind::Lifetime
            {
                continue;
            }
            if (t == ":" || t == "=") && k > 0 && cx.kind(k - 1) == TokKind::Ident {
                out.insert(cx.text(k - 1).to_owned());
            }
            break;
        }
    }
    for item in &f.items.items {
        if item.kind != crate::items::ItemKind::Fn {
            continue;
        }
        let Some((body_lo, _)) = item.body else { continue };
        let returns_lock = (item.tok..body_lo).any(|j| {
            cx.punct_at(j, "->")
                && (j..body_lo).any(|k| cx.ident_at(k, "Mutex") || cx.ident_at(k, "RwLock"))
        });
        if returns_lock {
            out.insert(item.name.clone());
        }
    }
    out
}

/// One candidate lock acquisition inside a fn body: `.lock()` /
/// `.try_lock()` on any receiver (`broad`), or `.read()` / `.write()` /
/// `.try_read()` / `.try_write()` (`!broad`) — the latter only count
/// against the crate's declared-lock vocabulary, which the workspace
/// graph applies, because another file of the crate may declare the lock.
struct LockCand {
    recv: String,
    broad: bool,
    tok: usize,
}

/// Candidate acquisition sequences, one per non-test fn body, in token
/// order and *undeduped* — the graph replays each sequence, drops narrow
/// candidates outside the declared-lock set, and dedups by name.
fn fn_lock_candidates(f: &FileAnalysis<'_>) -> Vec<Vec<LockCand>> {
    let cx = &f.cx;
    let mut out = Vec::new();
    for item in &f.items.items {
        if item.kind != crate::items::ItemKind::Fn || cx.is_test(item.tok) {
            continue;
        }
        let Some((lo, hi)) = item.body else { continue };
        let mut seq = Vec::new();
        for j in lo..hi {
            if cx.kind(j) != TokKind::Ident || j == 0 || !cx.punct_at(j - 1, ".") {
                continue;
            }
            let method = cx.text(j);
            let broad = matches!(method, "lock" | "try_lock");
            let narrow = matches!(method, "read" | "write" | "try_read" | "try_write");
            if (!broad && !narrow) || !cx.punct_at(j + 1, "(") {
                continue;
            }
            let Some(recv) = receiver_name(f, j - 1) else { continue };
            if STREAM_RECEIVERS.contains(&recv.as_str()) {
                continue;
            }
            seq.push(LockCand { recv, broad, tok: j });
        }
        if !seq.is_empty() {
            out.push(seq);
        }
    }
    out
}

/// The name of the receiver ending at the `.` token `dot`: the preceding
/// ident (`slot.lock()` → `slot`, `self.spans.lock()` → `spans`), or for
/// a call receiver (`sink_slot().read()`) the callee ident before the
/// matched `(`.
fn receiver_name(f: &FileAnalysis<'_>, dot: usize) -> Option<String> {
    let cx = &f.cx;
    if dot == 0 {
        return None;
    }
    let prev = dot - 1;
    if cx.kind(prev) == TokKind::Ident {
        return Some(cx.text(prev).to_owned());
    }
    if cx.punct_at(prev, ")") {
        let mut depth = 0i64;
        let mut k = prev;
        loop {
            match cx.text(k) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
        if k > 0 && cx.kind(k - 1) == TokKind::Ident {
            return Some(cx.text(k - 1).to_owned());
        }
    }
    None
}

/// A lock node: (crate, receiver name). Receiver names are file-local
/// text, so same-named locks in *different* crates stay distinct; two
/// same-named receivers in one crate merge — a documented imprecision
/// that errs toward reporting.
type LockNode = (String, String);

/// Build the workspace lock-acquisition graph and report order cycles,
/// as findings indexed by file.
pub(crate) fn lock_order_cycle(files: &[FileAnalysis<'_>]) -> Vec<(usize, RawFinding)> {
    // Pass 1: per-crate lock vocabularies — names declared as (or
    // returning) Mutex / RwLock. `.read()` / `.write()` acquisitions are
    // only attributed against this set, so `io::Read::read` never counts.
    let mut lock_names: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for f in files.iter().filter(|f| f.spec.role != FileRole::Test) {
        lock_names.entry(f.spec.krate.as_str()).or_default().extend(declared_locks(f));
    }

    // Pass 2: acquisition sequences per fn body → ordered edges. The
    // first edge site is chosen by (file path, token), not corpus index,
    // so output is independent of corpus order.
    let mut edges: BTreeMap<(LockNode, LockNode), (&str, usize, usize)> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let krate = &f.spec.krate;
        if f.spec.role == FileRole::Test {
            continue;
        }
        let empty = BTreeSet::new();
        let known = lock_names.get(krate.as_str()).unwrap_or(&empty);
        for body in fn_lock_candidates(f) {
            // Replay the candidate sequence: drop narrow acquisitions on
            // undeclared receivers, then dedup by name.
            let mut seq: Vec<&LockCand> = Vec::new();
            for cand in &body {
                if !cand.broad && !known.contains(&cand.recv) {
                    continue;
                }
                if !seq.iter().any(|c| c.recv == cand.recv) {
                    seq.push(cand);
                }
            }
            for (i, a) in seq.iter().enumerate() {
                for b in &seq[i + 1..] {
                    if a.recv == b.recv {
                        continue;
                    }
                    let key = ((krate.clone(), a.recv.clone()), (krate.clone(), b.recv.clone()));
                    let site = (f.spec.file.as_str(), fi, b.tok);
                    let e = edges.entry(key).or_insert(site);
                    if (site.0, site.2) < (e.0, e.2) {
                        *e = site;
                    }
                }
            }
        }
    }

    // Pass 3: cycle detection. The graphs here are tiny (a handful of
    // lock names per crate), so a direct DFS per node finding a path
    // back to itself is plenty — and trivially deterministic.
    let adj: BTreeMap<&LockNode, Vec<&LockNode>> = {
        let mut m: BTreeMap<&LockNode, Vec<&LockNode>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            m.entry(a).or_default().push(b);
        }
        m
    };
    let mut out = Vec::new();
    let mut reported: BTreeSet<BTreeSet<&LockNode>> = BTreeSet::new();
    for start in adj.keys() {
        if let Some(cycle) = find_cycle(&adj, start) {
            let members: BTreeSet<&LockNode> = cycle.iter().copied().collect();
            if !reported.insert(members.clone()) {
                continue; // one finding per distinct cycle set
            }
            // Attach at the canonically-first edge site within the cycle.
            let site = cycle
                .iter()
                .zip(cycle.iter().cycle().skip(1))
                .filter_map(|(a, b)| edges.get(&((*a).clone(), (*b).clone())))
                .min_by(|x, y| (x.0, x.2).cmp(&(y.0, y.2)));
            let Some(&(_, fi, tok)) = site else { continue };
            let path: Vec<String> = cycle.iter().map(|(k, n)| format!("{k}::{n}")).collect();
            out.push((
                fi,
                raw(
                    &files[fi].cx,
                    "lock-order-cycle",
                    tok,
                    format!(
                        "lock acquisition order forms a cycle: {} → {}; impose one global \
                         acquisition order (or merge the critical sections) so no pair of \
                         threads can each hold one lock while waiting for the other",
                        path.join(" → "),
                        path[0]
                    ),
                ),
            ));
        }
    }
    out
}

/// DFS from `start` over the sorted adjacency map; returns the node
/// sequence of a cycle passing through `start`, if any.
fn find_cycle<'a>(
    adj: &BTreeMap<&'a LockNode, Vec<&'a LockNode>>,
    start: &'a LockNode,
) -> Option<Vec<&'a LockNode>> {
    fn dfs<'a>(
        adj: &BTreeMap<&'a LockNode, Vec<&'a LockNode>>,
        start: &'a LockNode,
        here: &'a LockNode,
        path: &mut Vec<&'a LockNode>,
        seen: &mut BTreeSet<&'a LockNode>,
    ) -> bool {
        for next in adj.get(here).map_or(&[][..], |v| v.as_slice()) {
            if *next == start {
                return true;
            }
            if seen.insert(next) {
                path.push(next);
                if dfs(adj, start, next, path, seen) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
    let mut path = vec![start];
    let mut seen = BTreeSet::from([start]);
    if dfs(adj, start, start, &mut path, &mut seen) {
        Some(path)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::diag::Finding;
    use crate::driver::audit_sources;
    use crate::symbols::{FileRole, SourceSpec};

    fn spec(krate: &str, file: &str, src: &str) -> SourceSpec {
        SourceSpec {
            krate: krate.to_owned(),
            file: file.to_owned(),
            role: FileRole::from_rel(file),
            src: src.to_owned(),
        }
    }

    fn lints_of(found: &[Finding]) -> Vec<&str> {
        found.iter().map(|f| f.lint.as_str()).collect()
    }

    /// The three dataflow lints' findings on one library file.
    fn run_one(src: &str) -> Vec<Finding> {
        let specs = vec![spec("iotax-x", "crates/x/src/lib.rs", src)];
        let dataflow =
            ["untrusted-length-allocation", "lock-order-cycle", "unbounded-corpus-materialization"];
        let found = audit_sources(specs, false).findings;
        found.into_iter().filter(|f| dataflow.contains(&f.lint.as_str())).collect()
    }

    #[test]
    fn tainted_length_reaching_with_capacity_is_flagged() {
        let found = run_one(
            "pub fn parse(r: &mut Reader) -> Result<Vec<u8>> {\n\
                 let n = r.varint()? as usize;\n\
                 let out = Vec::with_capacity(n);\n\
                 Ok(out)\n\
             }",
        );
        assert_eq!(lints_of(&found), vec!["untrusted-length-allocation"], "{found:?}",);
        assert!(found[0].message.contains("`varint`"));
    }

    #[test]
    fn min_cap_and_comparison_guard_sanitize() {
        // `.min(CAP)` on the binding RHS.
        let capped = run_one(
            "pub fn parse(r: &mut Reader) -> Result<Vec<u8>> {\n\
                 let n = (r.varint()? as usize).min(1 << 16);\n\
                 Ok(Vec::with_capacity(n))\n\
             }",
        );
        assert!(capped.is_empty(), "{capped:?}");

        // Reassignment replaces the tainted def with a sanitized one.
        let reassigned = run_one(
            "pub fn parse(r: &mut Reader) -> Result<Vec<u8>> {\n\
                 let mut n = r.varint()? as usize;\n\
                 n = n.min(CAP);\n\
                 Ok(Vec::with_capacity(n))\n\
             }",
        );
        assert!(reassigned.is_empty(), "{reassigned:?}");

        // An explicit comparison guard dominates the sink.
        let guarded = run_one(
            "pub fn parse(r: &mut Reader) -> Result<Vec<u8>> {\n\
                 let n = r.varint()? as usize;\n\
                 if n > MAX_LEN { return Err(too_big()); }\n\
                 Ok(Vec::with_capacity(n))\n\
             }",
        );
        assert!(guarded.is_empty(), "{guarded:?}");
    }

    #[test]
    fn vec_macro_reserve_and_take_sinks_fire() {
        let found = run_one(
            "pub fn parse(r: &mut Reader) -> Result<()> {\n\
                 let n = r.u32_le()? as usize;\n\
                 let zeros = vec![0u8; n];\n\
                 buf.reserve(n);\n\
                 let body = r.take(n)?;\n\
                 Ok(())\n\
             }",
        );
        assert_eq!(
            lints_of(&found),
            vec![
                "untrusted-length-allocation",
                "untrusted-length-allocation",
                "untrusted-length-allocation"
            ],
            "{found:?}",
        );
    }

    #[test]
    fn call_summary_propagates_taint_one_level() {
        let found = run_one(
            "fn frame_len(r: &mut Reader) -> usize { r.u64_le().unwrap_or(0) as usize }\n\
             pub fn parse(r: &mut Reader) -> Vec<u8> {\n\
                 let n = frame_len(r);\n\
                 Vec::with_capacity(n)\n\
             }",
        );
        assert_eq!(lints_of(&found), vec!["untrusted-length-allocation"], "{found:?}");
        assert!(found[0].message.contains("`frame_len`"));
    }

    #[test]
    fn unresolvable_names_pass_conservatively() {
        let found = run_one(
            "pub fn build(cfg: &Config) -> Vec<u8> {\n\
                 Vec::with_capacity(cfg.capacity)\n\
             }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn opposite_lock_orders_form_a_cycle() {
        let src = "pub struct S { a: Mutex<u64>, b: Mutex<u64> }\n\
                   impl S {\n\
                       pub fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n\
                       pub fn ba(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }\n\
                   }";
        let found = run_one(src);
        assert_eq!(lints_of(&found), vec!["lock-order-cycle"], "{found:?}");
        assert!(found[0].message.contains("iotax-x::a"), "{}", found[0].message);
        assert!(found[0].message.contains("iotax-x::b"), "{}", found[0].message);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "pub struct S { a: Mutex<u64>, b: Mutex<u64> }\n\
                   impl S {\n\
                       pub fn ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n\
                       pub fn also_ab(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n\
                   }";
        let found = run_one(src);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn rwlock_read_write_only_counts_declared_locks() {
        // `file.read(&mut buf)` is io::Read, not a lock acquisition; only
        // the declared RwLock's `.read()` enters the graph, and a single
        // lock can never form a cycle.
        let src = "pub struct S { slot: RwLock<u64> }\n\
                   impl S {\n\
                       pub fn go(&self, file: &mut File) {\n\
                           let _g = self.slot.read();\n\
                           file.read(&mut buf);\n\
                       }\n\
                   }";
        let found = run_one(src);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn call_receiver_locks_resolve_to_the_callee() {
        let src = "fn slot_a() -> &'static RwLock<u64> { &A }\n\
                   fn slot_b() -> &'static RwLock<u64> { &B }\n\
                   pub fn ab() { let _x = slot_a().write(); let _y = slot_b().write(); }\n\
                   pub fn ba() { let _y = slot_b().write(); let _x = slot_a().write(); }";
        let found = run_one(src);
        assert_eq!(lints_of(&found), vec!["lock-order-cycle"], "{found:?}");
        assert!(found[0].message.contains("slot_a"), "{}", found[0].message);
    }

    #[test]
    fn corpus_collect_is_flagged_and_take_sanitizes() {
        let bad = run_one(
            "pub fn all(ds: &SimDataset) -> Vec<Row> {\n\
                 ds.jobs.iter().map(row_of).collect()\n\
             }",
        );
        assert_eq!(lints_of(&bad), vec!["unbounded-corpus-materialization"], "{bad:?}");
        assert!(bad[0].message.contains("`jobs`"), "{}", bad[0].message);

        let bounded = run_one(
            "pub fn head(ds: &SimDataset) -> Vec<Row> {\n\
                 ds.jobs.iter().take(100).map(row_of).collect()\n\
             }",
        );
        assert!(bounded.is_empty(), "{bounded:?}");
    }

    #[test]
    fn per_job_push_into_outliving_container_is_flagged() {
        let bad = run_one(
            "pub fn ids(ds: &SimDataset) -> Vec<u64> {\n\
                 let mut out = Vec::new();\n\
                 for j in ds.jobs.iter() { out.push(j.id); }\n\
                 out\n\
             }",
        );
        assert_eq!(lints_of(&bad), vec!["unbounded-corpus-materialization"], "{bad:?}");
        assert!(bad[0].message.contains("`out`"), "{}", bad[0].message);

        // A fixed-size accumulator (no push/extend) stays silent.
        let fold = run_one(
            "pub fn total(ds: &SimDataset) -> u64 {\n\
                 let mut sum = 0u64;\n\
                 for j in ds.jobs.iter() { sum += j.bytes; }\n\
                 sum\n\
             }",
        );
        assert!(fold.is_empty(), "{fold:?}");
    }

    #[test]
    fn unresolvable_push_receiver_passes() {
        // `self.notes.push(…)` — the receiver is a field, not a local
        // defined before the loop; conservative pass.
        let found = run_one(
            "impl R { pub fn note_all(&mut self, ds: &SimDataset) {\n\
                 for j in ds.jobs.iter() { self.notes.push(j.id); }\n\
             } }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn corpus_summary_fn_propagates_cardinality() {
        let found = run_one(
            "fn load_all(dir: &Path) -> Vec<Entry> { read_dir(dir).unwrap() }\n\
             pub fn scan(dir: &Path) -> Vec<Entry> {\n\
                 let xs = load_all(dir);\n\
                 xs.iter().cloned().collect()\n\
             }",
        );
        assert_eq!(lints_of(&found), vec!["unbounded-corpus-materialization"], "{found:?}");
        assert!(found[0].message.contains("`load_all`"), "{}", found[0].message);
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n\
                       fn t(r: &mut Reader) { Vec::with_capacity(r.varint().unwrap() as usize); }\n\
                   }";
        assert!(run_one(src).is_empty());
    }
}
