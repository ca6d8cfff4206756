//! The lint catalogue and the one token lint.
//!
//! Each lint turns one of the taxonomy pipeline's *dynamic* guarantees
//! (proptests, the pinned-seed chaos gate) into a *static* check that
//! holds for every future change, not just the seeds the tests pin. The
//! token lint here, `unsynced-durable-write`, defends crash durability:
//! written bytes are fsynced before the publishing rename.
//!
//! It is a token-sequence matcher over [`FileCx`] — deliberately simple
//! and predictable — and runs on every crate. Where a pattern is provably
//! safe, the code carries an inline `// audit:allow(lint) -- reason` with
//! the proof. The contracts that types decide (wall-clock reads, directly
//! seeded RNGs, panics and indexing in parsers, truncating casts,
//! discarded `Result`s, hash-ordered containers) are clippy's: see the
//! `[lints.clippy]` tables and the root `clippy.toml`.
//!
//! The catalogue holds five lints, each guarding a contract the code
//! keeps. A lint whose every site is waived as accepted design is a
//! work-list, not a contract, and has no place here: memory that grows
//! with the job count, for one, is measured per stage (the
//! `heap.peak_bytes.*` gauges of a `--ledger` run), and the sites that
//! hold a whole trace carry plain out-of-core notes.

use crate::context::FileCx;
use crate::items::{FileItems, ItemKind};
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

/// The finding of `lint` at code token `tok`.
pub(crate) fn raw(cx: &FileCx<'_>, lint: &'static str, tok: usize, message: String) -> RawFinding {
    let t = cx.code.get(tok).copied();
    RawFinding { lint, line: t.map_or(0, |t| t.line), col: t.map_or(0, |t| t.col), tok, message }
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

/// The one lint catalogue, in reporting order: the token lint (this
/// module), the two flow lints ([`crate::flow`]), the two dataflow
/// lints ([`crate::dataflow`]), then the two meta-lints
/// (`bad-suppression`, `unused-suppression`), which are always on and live
/// in [`crate::driver`].
pub const LINTS: &[LintSpec] = &[
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
                    varied from the command line. Every seed must trace (through its bindings) \
                    to a function parameter or config field fed by the run seed.",
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
        name: "bad-suppression",
        summary: "suppression without reason or naming an unknown lint (always on)",
        rationale: "An audit:allow with no `-- reason`, or naming a lint that does not exist, \
                    is an unreviewable waiver: nobody can judge later whether it still applies.",
        bad: "fs::rename(&tmp, &path)?; // audit:allow(unsynced-durable-write)",
        good: "fs::rename(&tmp, &path)?; // audit:allow(unsynced-durable-write) -- rebuildable cache",
    },
    LintSpec {
        name: "unused-suppression",
        summary: "suppression that matched no finding (always on)",
        rationale: "A suppression that matches no finding is stale documentation: it claims a \
                    hazard exists where none does, and it will silently mask a future finding \
                    at that line. Dead waivers must be deleted.",
        bad: "// audit:allow(unsynced-durable-write) -- rebuildable cache   (but the rename was removed)",
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
/// (no write) are fine, as is syncing and then renaming. Each fn's body
/// comes from the item parser, and each token counts for the innermost fn
/// whose body holds it, so a nested fn is checked on its own and once.
/// `#[cfg(test)]` items are skipped unless `include_tests`.
pub(crate) fn unsynced_durable_write(
    cx: &FileCx<'_>,
    items: &FileItems,
    include_tests: bool,
) -> Vec<RawFinding> {
    // (body start, body end, walked) of every fn with a body, in body
    // order: the item list is preorder, so a nested body starts after the
    // bodies around it.
    let mut fns = items
        .items
        .iter()
        .filter(|item| item.kind == ItemKind::Fn)
        .filter_map(|item| {
            let walked = include_tests || !cx.is_test(item.tok);
            item.body.map(|(lo, hi)| (lo, hi, walked))
        })
        .peekable();
    // (body end, walked, wrote) of the fns whose bodies hold the current
    // token, innermost last; `wrote` says an unsynced durable write
    // happened earlier in that fn.
    let mut open: Vec<(usize, bool, bool)> = Vec::new();
    let mut out = Vec::new();
    for j in 0..cx.code.len() {
        while let Some((_, hi, walked)) = fns.next_if(|f| f.0 <= j) {
            open.push((hi, walked, false));
        }
        while open.last().is_some_and(|f| f.0 <= j) {
            open.pop();
        }
        let Some((_, true, wrote)) = open.last_mut() else { continue };
        if cx.kind(j) != TokKind::Ident || !cx.punct_at(j + 1, "(") {
            continue;
        }
        let name = cx.text(j);
        if DURABLE_WRITES.contains(&name) {
            *wrote = true;
        } else if SYNC_CALLS.contains(&name) {
            *wrote = false;
        } else if name == "rename" && *wrote {
            out.push(raw(
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<RawFinding> {
        let cx = FileCx::new(src);
        unsynced_durable_write(&cx, &crate::items::parse_items(&cx), false)
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
                fn f() { fs::write(&tmp, b).unwrap(); fs::rename(&tmp, d).unwrap(); }
            }
            fn g() { fs::write(&tmp, b).unwrap(); fs::rename(&tmp, d).unwrap(); }
        "#;
        let hits = run(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 6);
    }

    #[test]
    fn unsynced_durable_write_needs_fsync_between_write_and_rename() {
        let torn = "fn publish(d: &Path) -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            fs::rename(&tmp, d)
        }";
        assert_eq!(run(torn).len(), 1);
        let synced = "fn publish(d: &Path) -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, d)
        }";
        assert!(run(synced).is_empty());
        // A sync AFTER the rename is too late.
        let late = "fn publish(d: &Path) { fs::write(&tmp, b).unwrap();
            fs::rename(&tmp, d).unwrap(); f.sync_all().unwrap(); }";
        assert_eq!(run(late).len(), 1);
        // Pure moves (no write in the function) are not publishes.
        let mv = "fn quarantine(a: &Path, b: &Path) { let _r = fs::rename(a, b); }";
        assert!(run(mv).is_empty());
    }

    #[test]
    fn a_semicolon_in_the_signature_does_not_hide_the_body() {
        let src = "fn push(s: &[[f64; 3]]) { fs::write(&tmp, b).ok(); fs::rename(&tmp, d).ok(); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn a_nested_fn_is_walked_once() {
        let src = "fn outer() {
            fn inner() { fs::write(&tmp, b).ok(); fs::rename(&tmp, d).ok(); }
        }";
        assert_eq!(run(src).len(), 1);
        // An empty nested body ends where it starts, and the outer fn's
        // state runs on past it.
        let (write, rename) = ("fs::write(&t, b).ok();", "fs::rename(&t, d).ok();");
        for inner in [
            "fn inner() {}",
            "fn assert_send<T: Send>() {}",
            "impl Drop for G { fn drop(&mut self) {} }",
        ] {
            for src in [
                format!("fn outer() {{ {inner} {write} {rename} }}"),
                format!("fn outer() {{ {write} {inner} {rename} }}"),
            ] {
                assert_eq!(run(&src).len(), 1, "{src}");
            }
        }
        let waived = "fn outer() {
            fn inner() {
                fs::write(&tmp, b).ok();
                // audit:allow(unsynced-durable-write) -- rebuildable cache
                fs::rename(&tmp, d).ok();
            }
        }";
        let report = crate::driver::audit_source("k", "f.rs", waived, false);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn fns_the_item_parser_records_are_walked_and_no_others() {
        let torn = "fn f() { fs::write(&t, b).ok(); fs::rename(&t, d).ok(); }";
        for (src, want) in [
            (format!("const _: () = {{ {torn} }};"), 1),
            (format!("static S: u8 = {{ {torn} 1 }};"), 1),
            (format!("struct S {{ bytes: [u8; {{ {torn} 1 }}] }}"), 1),
            (format!("enum E {{ A = {{ {torn} 1 }} }}"), 1),
            // The parser records no item in a `macro_rules!` body (a token
            // template) or in the tokens it skips between an item's name
            // and its body: a tuple struct's fields, a fn's signature.
            (format!("macro_rules! m {{ () => {{ {torn} }} }}"), 0),
            (format!("struct T([u8; {{ {torn} 1 }}]);"), 0),
            (format!("fn g(x: [u8; {{ {torn} 1 }}]) {{}}"), 0),
        ] {
            assert_eq!(run(&src).len(), want, "{src}");
        }
    }
}
