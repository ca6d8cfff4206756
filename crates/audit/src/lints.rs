//! The lint catalogue and the three token lints.
//!
//! Each lint turns one of the taxonomy pipeline's *dynamic* guarantees
//! (proptests, the pinned-seed chaos gate) into a *static* check that
//! holds for every future change, not just the seeds the tests pin:
//!
//! | lint | guarantee it defends |
//! |------|----------------------|
//! | `unordered-iteration`    | byte-determinism: hash-order never reaches serialized bytes or statistics |
//! | `swallowed-result`       | no silent data loss: every `Result` is handled or loudly waived |
//! | `unsynced-durable-write` | crash durability: written bytes are fsynced before the publishing rename |
//!
//! Lints are token-sequence matchers over [`FileCx`] — deliberately
//! simple and predictable — and run on every crate. Where a pattern is
//! provably safe (an iteration whose order is erased by a sort), the code
//! carries an inline `// audit:allow(lint) -- reason` with the proof.
//! The contracts that types decide (wall-clock reads, directly seeded
//! RNGs, panics and indexing in parsers, truncating casts) are clippy's:
//! see the `[lints.clippy]` tables and the root `clippy.toml`.

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

/// One lint's entry in the catalogue: its name and the texts
/// `--list-lints` and `--explain` print.
// audit:allow(dead-public-api) -- element type of the public LINTS table, which the iotax-audit bin lists
pub struct LintSpec {
    /// Lint name as written in suppressions.
    pub name: &'static str,
    /// One-line description for `--list-lints`.
    pub summary: &'static str,
    /// Why the pattern is a hazard in this workspace specifically.
    rationale: &'static str,
    /// A minimal violating snippet.
    bad: &'static str,
    /// The sanctioned fix idiom.
    good: &'static str,
}

/// The one lint catalogue, in reporting order: the three token lints
/// (this module), the two flow lints ([`crate::flow`]), the four dataflow
/// lints ([`crate::dataflow`]), then the two meta-lints
/// (`bad-suppression`, `unused-suppression`), which are always on and live
/// in [`crate::driver`].
pub const LINTS: &[LintSpec] = &[
    LintSpec {
        name: "unordered-iteration",
        summary: "HashMap/HashSet iteration feeding bytes or statistics is order-nondeterministic",
        rationale: "HashMap/HashSet iteration order changes every process (randomized hasher), \
                    so bytes or statistics derived from it differ run to run and break the \
                    byte-determinism contract on serialized traces.",
        bad: "for (name, stat) in &by_feature { writeln!(out, \"{name} {stat}\")?; }",
        good: "let mut rows: Vec<_> = by_feature.iter().collect();\n\
               rows.sort_by_key(|(name, _)| *name);\n\
               for (name, stat) in rows { writeln!(out, \"{name} {stat}\")?; }",
    },
    LintSpec {
        name: "swallowed-result",
        summary: "`let _ =` or trailing `.ok()` silently discards a Result",
        rationale: "`.ok()` / `let _ =` on a Result hides I/O and parse failures, so a stage \
                    reports success while its output is missing or partial — the exact silent \
                    absorption of error sources the taxonomy exists to expose.",
        bad: "std::fs::write(&path, bytes).ok();",
        good: "std::fs::write(&path, bytes).map_err(|e| Error::io(\"writing report\", e))?;",
    },
    LintSpec {
        name: "unsynced-durable-write",
        summary: "file written then renamed into place with no fsync between; a crash can publish a torn file",
        rationale: "A rename or create-then-write without fsync leaves the durability to the \
                    kernel's writeback timing: after a crash the file may be empty or torn even \
                    though the write returned Ok. Durable paths fsync the file and its parent \
                    directory.",
        bad: "std::fs::rename(&tmp, &path)?;",
        good: "std::fs::rename(&tmp, &path)?;\nfsync_dir(path.parent().unwrap())?;",
    },
    LintSpec {
        name: "seed-provenance",
        summary: "RNG seed does not trace back to a parameter or run seed (ambient/literal)",
        rationale: "An RNG seeded from the wall clock or a buried literal cannot be replayed or \
                    varied from the command line. Every seed must trace (through let-chains) to \
                    a function parameter or config field fed by the run seed.",
        bad: "let rng = substream(42, STREAM_FIT);",
        good: "pub fn fit(seed: u64, …) {\n    let rng = substream(seed, STREAM_FIT);",
    },
    LintSpec {
        name: "dead-public-api",
        summary: "pub item in a library crate with zero workspace references outside it",
        rationale: "`pub` in a library crate is a promise that somebody outside consumes the \
                    item; unreferenced pub surface accretes, hides real API, and silently \
                    bit-rots because nothing exercises it.",
        bad: "pub fn helper_nobody_calls() {}",
        good: "pub(crate) fn helper() {} // or delete it, or waive with a reasoned audit:allow",
    },
    LintSpec {
        name: "untrusted-length-allocation",
        summary: "wire-derived integer sizes an allocation or read with no intervening cap guard",
        rationale: "A length decoded from the wire (varint, u32_le, …) that reaches \
                    with_capacity/vec![_; n]/reserve/take un-capped lets a forged record drive \
                    an allocation of arbitrary size — one corrupt segment can OOM the whole \
                    analysis. Every wire length must be bounded before it sizes anything.",
        bad: "let n = r.varint()? as usize;\nlet mut buf = Vec::with_capacity(n);",
        good: "let n = (r.varint()? as usize).min(MAX_RECORD_LEN);\n\
               let mut buf = Vec::with_capacity(n);",
    },
    LintSpec {
        name: "unordered-float-reduction",
        summary: "hash-ordered float reduction breaks bit-identical metric replay",
        rationale: "Float addition is not associative, so a sum/fold/reduce over a hash \
                    container's iteration order groups differently per process, which \
                    violates the f64::to_bits-exact equivalence contract the perf gate \
                    enforces. Reduce over a fixed order: sort the entries or use a BTreeMap.",
        bad: "let total: f64 = scores_by_job.values().sum(); // HashMap order",
        good: "let total: f64 = scores_by_job.values().sum(); // BTreeMap: key order",
    },
    LintSpec {
        name: "lock-order-cycle",
        summary: "locks acquired in conflicting orders across functions (deadlock precondition)",
        rationale: "Two locks acquired in opposite orders on different paths is the classic \
                    deadlock precondition: each thread holds one and waits for the other. The \
                    workspace lock graph must stay acyclic — one global acquisition order.",
        bad: "fn ingest(&self) { let _a = self.index.lock(); let _b = self.store.lock(); }\n\
              fn query(&self)  { let _b = self.store.lock(); let _a = self.index.lock(); }",
        good: "fn query(&self) { let _a = self.index.lock(); let _b = self.store.lock(); }\n\
               // same order everywhere: index before store",
    },
    LintSpec {
        name: "unbounded-corpus-materialization",
        summary: "corpus-scale stream is materialized in memory with no cardinality bound",
        rationale: "The paper's Cori corpus is ~1.1M jobs. A collect/to_vec/read_to_end — or a \
                    push-per-job into a container that outlives the loop — over a corpus-scale \
                    stream holds the whole corpus in memory at once, which the planned \
                    out-of-core pipeline cannot afford. Every site flagged here is an entry on \
                    the streaming-refactor work-list; suppressions must carry an `out-of-core:` \
                    plan.",
        bad: "let rows: Vec<Row> = ds.jobs().map(featurize).collect();",
        good: "let mut acc = StreamingMoments::default();\n\
               for job in ds.jobs().take(budget) { acc.push(featurize(job)); }",
    },
    LintSpec {
        name: "bad-suppression",
        summary: "suppression without reason or naming an unknown lint (always on)",
        rationale: "An audit:allow with no `-- reason`, or naming a lint that does not exist, \
                    is an unreviewable waiver: nobody can judge later whether it still applies.",
        bad: "let _ = fs::remove_file(&tmp); // audit:allow(swallowed-result)",
        good: "let _ = fs::remove_file(&tmp); // audit:allow(swallowed-result) -- best-effort cleanup",
    },
    LintSpec {
        name: "unused-suppression",
        summary: "suppression that matched no finding (always on)",
        rationale: "A suppression that matches no finding is stale documentation: it claims a \
                    hazard exists where none does, and it will silently mask a future finding \
                    at that line. Dead waivers must be deleted.",
        bad: "// audit:allow(swallowed-result) -- best-effort   (but the `let _ =` was removed)",
        good: "(delete the comment)",
    },
];

/// Names of all lints, for suppression validation (includes the
/// meta-lints so they can be listed in suppressions too).
pub fn known_lint_names() -> Vec<&'static str> {
    LINTS.iter().map(|l| l.name).collect()
}

/// `--explain LINT`: the rationale, a violating snippet and the fix idiom,
/// rendered for the terminal; `None` for unknown names.
pub fn explain(name: &str) -> Option<String> {
    let l = LINTS.iter().find(|l| l.name == name)?;
    let indent =
        |s: &str| s.lines().map(|line| format!("    {line}")).collect::<Vec<_>>().join("\n");
    Some(format!(
        "{}\n\n{}\n\nviolating:\n{}\n\nfix:\n{}\n",
        l.name,
        l.rationale,
        indent(l.bad),
        indent(l.good)
    ))
}

/// Run the three token lints over one file, skipping `#[cfg(test)]`
/// items unless `include_tests`.
pub(crate) fn token_lints(cx: &FileCx<'_>, include_tests: bool) -> Vec<RawFinding> {
    let mut out = unordered_iteration(cx, include_tests);
    out.extend(swallowed_result(cx, include_tests));
    out.extend(unsynced_durable_write(cx, include_tests));
    out
}

fn skip(cx: &FileCx<'_>, i: usize, include_tests: bool) -> bool {
    !include_tests && cx.is_test(i)
}

fn finding(cx: &FileCx<'_>, lint: &'static str, i: usize, message: String) -> RawFinding {
    let t = cx.code.get(i).copied();
    RawFinding { lint, line: t.map_or(0, |t| t.line), col: t.map_or(0, |t| t.col), tok: i, message }
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

fn unordered_iteration(cx: &FileCx<'_>, include_tests: bool) -> Vec<RawFinding> {
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
        if skip(cx, i, include_tests) || cx.kind(i) != TokKind::Ident {
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
// swallowed-result
// ---------------------------------------------------------------------------

fn swallowed_result(cx: &FileCx<'_>, include_tests: bool) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if skip(cx, i, include_tests) {
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
fn unsynced_durable_write(cx: &FileCx<'_>, include_tests: bool) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..cx.code.len() {
        if !cx.ident_at(i, "fn") || skip(cx, i, include_tests) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The `lint` findings among the token lints' findings on `src`.
    fn run(lint: &str, src: &str) -> Vec<RawFinding> {
        token_lints(&FileCx::new(src), false).into_iter().filter(|f| f.lint == lint).collect()
    }

    #[test]
    fn explain_includes_all_sections() {
        let text = explain("untrusted-length-allocation").unwrap();
        assert!(text.contains("violating:"));
        assert!(text.contains("fix:"));
        assert!(text.contains("with_capacity"));
    }

    #[test]
    fn unknown_lint_explains_nothing() {
        assert!(explain("no-such-lint").is_none());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f() { x.ok(); }
            }
            fn g() { y.ok(); }
        "#;
        let hits = run("swallowed-result", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 6);
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
}
