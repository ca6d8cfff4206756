//! `iotax-audit --explain <lint>`: the rationale, a violating snippet,
//! and the sanctioned fix idiom for every lint the engine ships.
//!
//! The lint *summaries* ([`crate::lints::LINTS`] et al.) are one-liners
//! for `--list-lints`; the entries here are the long form a developer
//! reads when a finding fires on their diff. A test pins the table to
//! [`crate::lints::known_lint_names`] in both directions, so adding a
//! lint without an explanation (or vice versa) fails the build's tests.

/// One `--explain` entry.
pub(crate) struct LintExplain {
    /// Lint name as written in config and suppressions.
    pub(crate) name: &'static str,
    /// Why the pattern is a hazard in this workspace specifically.
    pub(crate) rationale: &'static str,
    /// A minimal violating snippet.
    pub(crate) bad: &'static str,
    /// The sanctioned fix idiom.
    pub(crate) good: &'static str,
}

/// Render one lint's explanation for the terminal; `None` for unknown names.
pub fn render(name: &str) -> Option<String> {
    let e = EXPLAINS.iter().find(|e| e.name == name)?;
    Some(format!(
        "{}\n\n{}\n\nviolating:\n{}\n\nfix:\n{}\n",
        e.name,
        e.rationale,
        indent(e.bad),
        indent(e.good)
    ))
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}")).collect::<Vec<_>>().join("\n")
}

/// Explanations for every lint, in [`crate::lints::known_lint_names`]
/// order: token lints, flow lints, dataflow lints, meta-lints.
pub(crate) const EXPLAINS: &[LintExplain] = &[
    LintExplain {
        name: "nondeterministic-time",
        rationale: "Instant::now/SystemTime::now outside iotax-obs makes stage output depend on \
                    the wall clock, so a replayed run cannot reproduce its trace byte-for-byte. \
                    All timing flows through obs spans, which the replay harness can stub.",
        bad: "let t0 = Instant::now();\nrecord.elapsed_us = t0.elapsed().as_micros();",
        good: "let _span = iotax_obs::span!(\"stage.fit\"); // timing lives in the span sink",
    },
    LintExplain {
        name: "ambient-randomness",
        rationale: "thread_rng/from_entropy seed from the OS, so two runs with the same --seed \
                    diverge. Every RNG must derive from the run seed through substreams.",
        bad: "let mut rng = rand::thread_rng();",
        good: "let mut rng = substream(run_seed, STREAM_FIT);",
    },
    LintExplain {
        name: "unordered-iteration",
        rationale: "HashMap/HashSet iteration order changes every process (randomized hasher), \
                    so bytes or statistics derived from it differ run to run and break the \
                    byte-determinism contract on serialized traces.",
        bad: "for (name, stat) in &by_feature { writeln!(out, \"{name} {stat}\")?; }",
        good: "let mut rows: Vec<_> = by_feature.iter().collect();\n\
               rows.sort_by_key(|(name, _)| *name);\n\
               for (name, stat) in rows { writeln!(out, \"{name} {stat}\")?; }",
    },
    LintExplain {
        name: "panic-in-parser",
        rationale: "unwrap/expect/panic in parsing code turns malformed telemetry into a crash; \
                    the salvage pipeline requires parsers to be total and return Err so bad \
                    records quarantine instead of killing the run.",
        bad: "let count = header.records.unwrap();",
        good: "let count = header.records.ok_or_else(|| Error::parse(\"missing record count\"))?;",
    },
    LintExplain {
        name: "unchecked-cast",
        rationale: "`as` silently truncates (u64 → u32 drops high bits, f64 → usize saturates \
                    differently per platform), corrupting counters parsed from logs. Fallible \
                    conversions make the truncation a handled error.",
        bad: "let n = record_count as u32;",
        good: "let n = u32::try_from(record_count).map_err(|_| Error::parse(\"count overflow\"))?;",
    },
    LintExplain {
        name: "swallowed-result",
        rationale: "`.ok()` / `let _ =` on a Result hides I/O and parse failures, so a stage \
                    reports success while its output is missing or partial — the exact silent \
                    absorption of error sources the taxonomy exists to expose.",
        bad: "std::fs::write(&path, bytes).ok();",
        good: "std::fs::write(&path, bytes).map_err(|e| Error::io(\"writing report\", e))?;",
    },
    LintExplain {
        name: "unsynced-durable-write",
        rationale: "A rename or create-then-write without fsync leaves the durability to the \
                    kernel's writeback timing: after a crash the file may be empty or torn even \
                    though the write returned Ok. Durable paths fsync the file and its parent \
                    directory.",
        bad: "std::fs::rename(&tmp, &path)?;",
        good: "std::fs::rename(&tmp, &path)?;\nfsync_dir(path.parent().unwrap())?;",
    },
    LintExplain {
        name: "seed-provenance",
        rationale: "An RNG seeded from the wall clock or a buried literal cannot be replayed or \
                    varied from the command line. Every seed must trace (through let-chains) to \
                    a function parameter or config field fed by the run seed.",
        bad: "let rng = substream(42, STREAM_FIT);",
        good: "pub fn fit(seed: u64, …) {\n    let rng = substream(seed, STREAM_FIT);",
    },
    LintExplain {
        name: "dead-public-api",
        rationale: "`pub` in a library crate is a promise that somebody outside consumes the \
                    item; unreferenced pub surface accretes, hides real API, and silently \
                    bit-rots because nothing exercises it.",
        bad: "pub fn helper_nobody_calls() {}",
        good: "pub(crate) fn helper() {} // or delete it, or waive with a reasoned audit:allow",
    },
    LintExplain {
        name: "untrusted-length-allocation",
        rationale: "A length decoded from the wire (varint, u32_le, …) that reaches \
                    with_capacity/vec![_; n]/reserve/take un-capped lets a forged record drive \
                    an allocation of arbitrary size — one corrupt segment can OOM the whole \
                    analysis. Every wire length must be bounded before it sizes anything.",
        bad: "let n = r.varint()? as usize;\nlet mut buf = Vec::with_capacity(n);",
        good: "let n = (r.varint()? as usize).min(MAX_RECORD_LEN);\n\
               let mut buf = Vec::with_capacity(n);",
    },
    LintExplain {
        name: "unordered-float-reduction",
        rationale: "Float addition is not associative, so a sum/fold/reduce over a hash \
                    container's iteration order groups differently per process, which \
                    violates the f64::to_bits-exact equivalence contract the perf gate \
                    enforces. Reduce over a fixed order: sort the entries or use a BTreeMap.",
        bad: "let total: f64 = scores_by_job.values().sum(); // HashMap order",
        good: "let total: f64 = scores_by_job.values().sum(); // BTreeMap: key order",
    },
    LintExplain {
        name: "lock-order-cycle",
        rationale: "Two locks acquired in opposite orders on different paths is the classic \
                    deadlock precondition: each thread holds one and waits for the other. The \
                    workspace lock graph must stay acyclic — one global acquisition order.",
        bad: "fn ingest(&self) { let _a = self.index.lock(); let _b = self.store.lock(); }\n\
              fn query(&self)  { let _b = self.store.lock(); let _a = self.index.lock(); }",
        good: "fn query(&self) { let _a = self.index.lock(); let _b = self.store.lock(); }\n\
               // same order everywhere: index before store",
    },
    LintExplain {
        name: "unbounded-corpus-materialization",
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
    LintExplain {
        name: "bad-suppression",
        rationale: "An audit:allow with no `-- reason`, or naming a lint that does not exist, \
                    is an unreviewable waiver: nobody can judge later whether it still applies.",
        bad: "x.unwrap() // audit:allow(panic-in-parser)",
        good: "x.unwrap() // audit:allow(panic-in-parser) -- index bounds checked on line above",
    },
    LintExplain {
        name: "unused-suppression",
        rationale: "A suppression that matches no finding is stale documentation: it claims a \
                    hazard exists where none does, and it will silently mask a future finding \
                    at that line. Dead waivers must be deleted.",
        bad: "// audit:allow(unchecked-cast) -- fits in u32   (but the cast was removed)",
        good: "(delete the comment)",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lint_has_an_explanation_and_vice_versa() {
        let known = crate::lints::known_lint_names();
        for name in &known {
            assert!(render(name).is_some(), "lint `{name}` has no --explain entry");
        }
        for e in EXPLAINS {
            assert!(known.contains(&e.name), "--explain entry `{}` is not a known lint", e.name);
        }
        assert_eq!(known.len(), EXPLAINS.len(), "duplicate explain entries");
    }

    #[test]
    fn render_includes_all_sections() {
        let text = render("untrusted-length-allocation").unwrap();
        assert!(text.contains("violating:"));
        assert!(text.contains("fix:"));
        assert!(text.contains("with_capacity"));
    }

    #[test]
    fn unknown_lint_renders_nothing() {
        assert!(render("no-such-lint").is_none());
    }
}
