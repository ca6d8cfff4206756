//! `iotax-audit` — syntax-aware static analysis for the iotax workspace.
//!
//! The taxonomy pipeline's headline guarantees — byte-determinism of
//! serialized traces, seed-reproducibility of simulations, totality of
//! the Darshan parsers, durability of the run store — are properties of
//! *code*, but until now they were only enforced by *tests*, which sample
//! a handful of seeds and inputs. Where types decide a contract (wall-clock
//! reads, directly seeded RNGs, panics and indexing in parsers, truncating
//! casts, discarded `Result`s, hash-ordered containers), clippy checks it:
//! the root `clippy.toml` and the crates' `[lints.clippy]` tables. This
//! crate checks the rest, on every line of every crate, on every commit: a
//! small, dependency-free Rust lexer plus one token-level lint ([`lints`])
//! — and, on top of the lexer, an item parser, a workspace symbol table,
//! and two cross-file flow analyses ([`flow`]) that check the properties
//! that live at crate seams: seed provenance and dead public API. A
//! statement-level def-use engine ([`dataflow`]) runs the same taint
//! machinery under two vocabularies — wire-derived lengths and corpus-scale
//! cardinality — for its three allocation, lock-order, and capacity lints.
//! Every lint is on in every crate, so the audit keeps no configuration;
//! its one setting is `--include-tests`. Every run analyzes each file once,
//! in one uncached pass ([`driver`]).
//!
//! Design constraints, in order:
//!
//! 1. **Total.** The lexer never panics, on any byte sequence — the
//!    auditor of panic-free parsers must itself be panic-free (enforced
//!    by a proptest over arbitrary inputs).
//! 2. **No dependencies.** The workspace vendors its few deps for
//!    offline builds; a real Rust parser is out of budget. Token-level
//!    matching is less precise than HIR analysis but catches every
//!    pattern this workspace actually writes, and false positives have a
//!    first-class escape: reasoned suppressions.
//! 3. **Reviewable waivers.** `// audit:allow(lint) -- reason` is the
//!    only way to accept a finding, the reason is mandatory, and unused
//!    or malformed waivers are themselves findings.
//! 4. **CI-stable.** Findings come out in one canonical order (path,
//!    position, lint), whatever the walk or input order; exit codes are
//!    fixed contract.
//!
//! Exit codes (sysexits, matching `iotax_obs::ErrorKind`):
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | clean |
//! | 1 | findings |
//! | 64 | usage error |
//! | 65 | a crate manifest without a package name |
//! | 74 | I/O error |

pub mod context;
pub mod dataflow;
pub mod diag;
pub mod driver;
pub mod flow;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod symbols;

pub use context::FileCx;
pub use diag::{render_text, write_jsonl, Finding};
pub use driver::{audit_source, audit_workspace, AuditReport, FileReport};
pub use lints::{explain, known_lint_names, LintSpec, LINTS};
