//! The intra-procedural dataflow/taint engine and the two safety lints
//! built on it.
//!
//! Where [`crate::flow`] resolves *provenance* (does this seed trace to a
//! parameter?), this module resolves *trust* and *ordering*:
//! statement-level def-use chains over the token stream decide whether a
//! value that sizes an allocation was derived from the wire, and whether
//! two locks are ever taken in opposite orders. The def-use resolver,
//! `last_def`, also serves `seed-provenance`.
//!
//! | lint | hazard it guards |
//! |------|------------------|
//! | `untrusted-length-allocation` | a parse-derived integer reaches `with_capacity` / `vec![_; n]` / `reserve` / `take(n)` with no cap between source and sink |
//! | `lock-order-cycle`            | the workspace lock-acquisition graph contains a cycle, the classic deadlock precondition |
//!
//! The taint lattice is deliberately two-point (`Tainted(source)` /
//! `Clean`) with a *positive-evidence* rule: a value is tainted only when
//! a chain of local defs links it to a wire source with no sanitizer or
//! comparison guard on the way. Unresolvable names — fields, cross-file
//! consts, free fns without a summary — are passes, matching the flow
//! analyses' conservatism. The sources and sanitizers are built in.
//!
//! `lock-order-cycle` is a workspace pass over every file's analysis;
//! `untrusted-length-allocation` is a per-file pass.

use crate::flow::{const_init_idents, first_arg_idents};
use crate::lexer::TokKind;
use crate::lints::{raw, RawFinding};
use crate::symbols::{FileAnalysis, FileRole};
use std::collections::{BTreeMap, BTreeSet};

/// Taint sources: callables whose integer result is attacker- or
/// file-controlled (the little-endian readers and varint decoders every
/// parser in this workspace is built from).
const SOURCES: &[&str] =
    &["varint", "zigzag", "u16_le", "u32_le", "u64_le", "f64_le", "from_le_bytes", "from_be_bytes"];

/// Sanitizers: calls that bound a value regardless of its input
/// (`n.min(CAP)`, `n.clamp(0, CAP)`, `r.remaining()` — the latter cannot
/// exceed the bytes actually held).
const SANITIZERS: &[&str] = &["min", "clamp", "remaining", "saturating_sub"];

/// How deep a def-use chain is followed before giving up (an unresolved
/// name is a pass, so the bound only limits work).
pub(crate) const MAX_CHAIN_DEPTH: usize = 8;

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

fn step(idents: &[String], summaries: &BTreeSet<String>) -> Step {
    if idents.iter().any(|i| SANITIZERS.contains(&i.as_str())) {
        return Step::Clean;
    }
    if let Some(src) =
        idents.iter().find(|i| SOURCES.contains(&i.as_str()) || summaries.contains(*i))
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
    summaries: &BTreeSet<String>,
) -> Option<String> {
    match step(idents, summaries) {
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
        match step(&rhs, summaries) {
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
pub(crate) fn summary_fns(f: &FileAnalysis<'_>) -> Vec<String> {
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
            cx.kind(j) == TokKind::Ident && SOURCES.contains(&cx.text(j)) && cx.punct_at(j + 1, "(")
        });
        if calls_source && !SOURCES.contains(&item.name.as_str()) && !out.contains(&item.name) {
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
            if let Some(src) = trace_taint(f, i, &idents, summaries) {
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
            if let Some(src) = trace_taint(f, i, &idents, summaries) {
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
                if let Some(src) = trace_taint(f, i, &idents, summaries) {
                    flag(i, "vec![…; n]", &src, &mut out);
                }
            }
        }
    }
    out
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

    /// The two dataflow lints' findings on one library file.
    fn run_one(src: &str) -> Vec<Finding> {
        let specs = vec![spec("iotax-x", "crates/x/src/lib.rs", src)];
        let dataflow = ["untrusted-length-allocation", "lock-order-cycle"];
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
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n\
                       fn t(r: &mut Reader) { Vec::with_capacity(r.varint().unwrap() as usize); }\n\
                   }";
        assert!(run_one(src).is_empty());
    }
}
