//! `iotax-audit` — syntax-aware static analysis for the iotax workspace.
//!
//! The taxonomy pipeline's headline guarantees — byte-determinism of
//! serialized traces, seed-reproducibility of simulations, totality of
//! the Darshan parsers — are properties of *code*, but until now they
//! were only enforced by *tests*, which sample a handful of seeds and
//! inputs. This crate closes that gap: a small, dependency-free Rust
//! lexer plus ten token-level lints that check the properties on every
//! line of every crate, on every commit — and, on top of the lexer, an
//! item parser, a workspace symbol table, and four cross-file flow
//! analyses ([`flow`]) that check the properties that live at crate
//! seams: seed provenance, writer/reader schema agreement, dead public
//! API, and error-context loss across crate boundaries. A statement-level
//! def-use engine ([`dataflow`]) runs the same taint machinery under two
//! vocabularies — wire-derived lengths and corpus-scale cardinality —
//! for its six allocation, float-ordering, lock-order, and capacity
//! lints. Every run analyzes each file once, in one uncached pass
//! ([`driver`]).
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
//!    only way to silence a finding, the reason is mandatory, and unused
//!    or malformed waivers are themselves findings.
//! 4. **CI-stable.** Fingerprints ignore line numbers, so a `--baseline`
//!    file survives reformatting; exit codes are fixed contract.
//!
//! Exit codes (sysexits, matching `iotax_obs::ErrorKind`):
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | clean (or all findings baselined) |
//! | 1 | new findings |
//! | 64 | usage error |
//! | 65 | config / baseline parse error |
//! | 74 | I/O error |

pub mod baseline;
pub mod config;
pub mod context;
pub mod dataflow;
pub mod diag;
pub mod driver;
pub mod explain;
pub mod flow;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod symbols;

pub use baseline::Baseline;
pub use config::{AuditConfig, CrateConfig};
pub use context::FileCx;
pub use dataflow::DATAFLOW_LINTS;
pub use diag::{render_text, write_jsonl, Finding};
pub use driver::{audit_source, audit_workspace, AuditReport, FileReport};
pub use lints::{known_lint_names, LintSpec, LINTS};
