//! `iotax-audit` — run the workspace lints.
//!
//! ```sh
//! iotax-audit --workspace                          # audit crates/*
//! iotax-audit --workspace --format jsonl
//! iotax-audit --workspace --ledger runs/audit-1    # write a run ledger
//! iotax-audit --list-lints
//! ```
//!
//! Exit codes: 0 clean (and `--help`), 1 findings, 64 usage,
//! 65 a crate manifest without a package name, 74 I/O.
//!
//! The observability flags (`--ledger`, `--store`) are shared with the
//! other workspace bins; see `iotax_obs::ObsArgs`. A ledger run records
//! a `"audit"` section with the finding counts, so `iotax-report diff` can
//! show lint drift between two audits.

use iotax_audit::{audit_workspace, render_text, write_jsonl, LINTS};
use iotax_obs::{digest_bytes, Error, ErrorKind, ObsArgs, ObsSession, OBS_USAGE};
use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

struct Args {
    workspace: bool,
    root: PathBuf,
    format: Format,
    jsonl_out: Option<PathBuf>,
    obs: ObsArgs,
    include_tests: bool,
    list_lints: bool,
    explain: Option<String>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Jsonl,
    /// GitHub Actions workflow commands: one `::warning` line per finding,
    /// which the runner turns into inline PR annotations.
    Github,
}

/// The `"audit"` ledger section: finding counts for cross-run diffing.
#[derive(Serialize)]
struct AuditSection {
    fresh: u64,
    suppressed: u64,
}

fn usage() -> String {
    format!(
        "usage: iotax-audit (--workspace | --list-lints | --explain LINT) \
         [--root DIR] [--format text|jsonl|github] \
         [--jsonl-out PATH] {OBS_USAGE} [--include-tests]"
    )
}

fn parse_args() -> Result<Args, Error> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        format: Format::Text,
        jsonl_out: None,
        obs: ObsArgs::default(),
        include_tests: false,
        list_lints: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| Error::usage(format!("{name} needs a value")));
        match flag.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "jsonl" => Format::Jsonl,
                    "github" => Format::Github,
                    other => {
                        return Err(Error::usage(format!(
                            "--format {other:?} (expected text, jsonl, or github)"
                        )))
                    }
                }
            }
            "--jsonl-out" => args.jsonl_out = Some(PathBuf::from(value("--jsonl-out")?)),
            "--include-tests" => args.include_tests = true,
            "--list-lints" => args.list_lints = true,
            "--explain" => args.explain = Some(value("--explain")?),
            "--help" | "-h" => {
                let mut out = std::io::stdout().lock();
                writeln!(out, "{}", usage()).and_then(|()| out.flush()).map_err(Error::stdout)?;
                std::process::exit(0);
            }
            other => {
                if !args.obs.accept(other, &mut value)? {
                    return Err(Error::usage(format!("unknown flag {other} (try --help)")));
                }
            }
        }
    }
    if !args.list_lints && args.explain.is_none() && !args.workspace {
        return Err(Error::usage(format!("no target given\n{}", usage())));
    }
    Ok(args)
}

/// Runs the audit (or lists or explains lints), writing its report to
/// `out`.
fn run(args: &Args, session: &mut ObsSession, out: &mut impl Write) -> Result<i32, Error> {
    if args.list_lints {
        for l in LINTS {
            writeln!(out, "{:<28} {}", l.name, l.summary).map_err(Error::stdout)?;
        }
        return Ok(0);
    }
    if let Some(name) = &args.explain {
        let Some(text) = iotax_audit::explain(name) else {
            return Err(Error::usage(format!(
                "unknown lint `{name}` (known: {})",
                iotax_audit::known_lint_names().join(", ")
            )));
        };
        write!(out, "{text}").map_err(Error::stdout)?;
        return Ok(0);
    }

    if let Some(ledger) = session.ledger_mut() {
        ledger.set_config_digest(digest_bytes(b"default"));
    }
    let report = {
        let _span = iotax_obs::span!("audit");
        audit_workspace(&args.root, args.include_tests)?
    };

    let findings = &report.findings;
    if let Some(ledger) = session.ledger_mut() {
        ledger.add_section(
            "audit",
            &AuditSection { fresh: findings.len() as u64, suppressed: report.suppressed as u64 },
        );
    }

    if let Some(path) = &args.jsonl_out {
        let mut f = std::fs::File::create(path)
            .map_err(|e| Error::new(ErrorKind::Io, format!("creating {}: {e}", path.display())))?;
        write_jsonl(&mut f, findings, report.suppressed)
            .map_err(|e| Error::new(ErrorKind::Io, format!("writing {}: {e}", path.display())))?;
    }

    match args.format {
        Format::Text => {
            for f in findings {
                writeln!(out, "{}\n", render_text(f)).map_err(Error::stdout)?;
            }
        }
        Format::Jsonl => {
            write_jsonl(out, findings, report.suppressed).map_err(Error::stdout)?;
        }
        Format::Github => {
            for f in findings {
                writeln!(
                    out,
                    "::warning file={},line={},col={},title={}::{}",
                    gh_property(&f.file),
                    f.line,
                    f.col,
                    gh_property(&f.lint),
                    gh_message(&format!("{} (in `{}`)", f.message, f.item)),
                )
                .map_err(Error::stdout)?;
            }
        }
    }
    if args.format != Format::Jsonl {
        eprintln!(
            "iotax-audit: {} new finding(s), {} suppressed",
            findings.len(),
            report.suppressed
        );
    }

    Ok(if findings.is_empty() { 0 } else { 1 })
}

/// Escape a GitHub workflow-command *message* (the part after `::`).
fn gh_message(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escape a GitHub workflow-command *property* (file=, title=), which
/// additionally reserves `:` and `,`.
fn gh_property(s: &str) -> String {
    gh_message(s).replace(':', "%3A").replace(',', "%2C")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("iotax-audit: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    };
    let mut session = match args.obs.install("iotax-audit") {
        Ok(session) => session,
        Err(e) => {
            eprintln!("iotax-audit: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    };
    // Wall time and per-phase spans reach the sinks only on the explicit
    // flush inside `finish`; `process::exit` skips Drop (and would drop a
    // failed final flush of stdout silently).
    let mut out = std::io::stdout().lock();
    let done = run(&args, &mut session, &mut out)
        .and_then(|code| out.flush().map(|()| code).map_err(Error::stdout));
    match done {
        Ok(code) => std::process::exit(session.finish(code)),
        Err(e) => {
            eprintln!("iotax-audit: {e}");
            std::process::exit(session.finish(i32::from(e.exit_code())));
        }
    }
}
