//! `iotax-audit` — run the workspace lints.
//!
//! ```sh
//! iotax-audit --workspace                          # audit crates/*
//! iotax-audit --workspace --baseline audit-baseline.json
//! iotax-audit --workspace --format jsonl
//! iotax-audit --workspace --write-baseline audit-baseline.json
//! iotax-audit --workspace --ledger runs/audit-1    # write a run ledger
//! iotax-audit --list-lints
//! ```
//!
//! Exit codes: 0 clean (and `--help`), 1 new findings, 64 usage,
//! 65 config parse, 74 I/O.
//!
//! The observability flags (`--metrics-out`, `--ledger`, `--store`,
//! `--profile-hz`) are shared with the other workspace bins; see
//! `iotax_cli::obsargs`. A ledger run records the effective `audit.toml`
//! digest and a `"audit"` section with the finding counts, so
//! `iotax-report diff` can show lint drift between two audits.

use iotax_audit::flow::FLOW_LINTS;
use iotax_audit::{
    audit_workspace, explain, render_text, write_jsonl, AuditConfig, Baseline, DATAFLOW_LINTS,
    LINTS,
};
use iotax_cli::{ObsArgs, ObsSession, OBS_USAGE};
use iotax_obs::{digest_bytes, Error, ErrorKind};
use serde::Serialize;
use std::path::PathBuf;

struct Args {
    workspace: bool,
    root: PathBuf,
    config: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
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
    baselined: u64,
    suppressed: u64,
}

fn usage() -> String {
    format!(
        "usage: iotax-audit (--workspace | --list-lints | --explain LINT) \
         [--root DIR] [--config PATH] [--baseline PATH] [--write-baseline PATH] \
         [--format text|jsonl|github] [--jsonl-out PATH] {OBS_USAGE} \
         [--include-tests]"
    )
}

fn parse_args() -> Result<Args, Error> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        config: None,
        baseline: None,
        write_baseline: None,
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
            "--config" => args.config = Some(PathBuf::from(value("--config")?)),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--write-baseline" => {
                args.write_baseline = Some(PathBuf::from(value("--write-baseline")?))
            }
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
                println!("{}", usage());
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

fn load_config(args: &Args) -> Result<(AuditConfig, Option<PathBuf>), Error> {
    let known = iotax_audit::known_lint_names();
    let path = match &args.config {
        Some(p) => p.clone(),
        None => {
            let default = args.root.join("audit.toml");
            if !default.is_file() {
                let mut cfg = AuditConfig::default();
                cfg.include_tests |= args.include_tests;
                return Ok((cfg, None));
            }
            default
        }
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| Error::new(ErrorKind::Io, format!("reading {}: {e}", path.display())))?;
    let mut cfg = AuditConfig::from_toml(&text, &path.display().to_string(), &known)?;
    cfg.include_tests |= args.include_tests;
    Ok((cfg, Some(path)))
}

fn run(args: &Args, session: &mut ObsSession) -> Result<i32, Error> {
    if args.list_lints {
        for l in LINTS.iter().chain(FLOW_LINTS).chain(DATAFLOW_LINTS) {
            println!("{:<28} {}", l.name, l.summary);
        }
        println!(
            "{:<28} suppression without reason or naming an unknown lint (always on)",
            "bad-suppression"
        );
        println!("{:<28} suppression that matched no finding (always on)", "unused-suppression");
        return Ok(0);
    }
    if let Some(name) = &args.explain {
        let Some(text) = explain::render(name) else {
            return Err(Error::usage(format!(
                "unknown lint `{name}` (known: {})",
                iotax_audit::known_lint_names().join(", ")
            )));
        };
        print!("{text}");
        return Ok(0);
    }

    let (cfg, cfg_path) = load_config(args)?;
    if let Some(ledger) = session.ledger_mut() {
        match &cfg_path {
            Some(path) => ledger.add_input(path),
            None => ledger.set_config_digest(digest_bytes(b"default")),
        }
    }
    let report = {
        let _span = iotax_obs::span!("audit");
        audit_workspace(&args.root, &cfg)?
    };

    if let Some(path) = &args.write_baseline {
        Baseline::from_findings(&report.findings).save(path)?;
        eprintln!(
            "iotax-audit: wrote baseline with {} fingerprint(s) to {}",
            report.findings.len(),
            path.display()
        );
        return Ok(0);
    }

    let (fresh, baselined) = match &args.baseline {
        Some(path) => Baseline::load(path)?.partition(report.findings),
        None => (report.findings, 0),
    };
    if let Some(ledger) = session.ledger_mut() {
        ledger.add_section(
            "audit",
            &AuditSection {
                fresh: fresh.len() as u64,
                baselined: baselined as u64,
                suppressed: report.suppressed as u64,
            },
        );
    }

    if let Some(path) = &args.jsonl_out {
        let mut f = std::fs::File::create(path)
            .map_err(|e| Error::new(ErrorKind::Io, format!("creating {}: {e}", path.display())))?;
        write_jsonl(&mut f, &fresh, baselined, report.suppressed)
            .map_err(|e| Error::new(ErrorKind::Io, format!("writing {}: {e}", path.display())))?;
    }

    match args.format {
        Format::Text => {
            for f in &fresh {
                println!("{}\n", render_text(f));
            }
            eprintln!(
                "iotax-audit: {} new finding(s), {} baselined, {} suppressed",
                fresh.len(),
                baselined,
                report.suppressed
            );
        }
        Format::Jsonl => {
            let mut out = std::io::stdout();
            write_jsonl(&mut out, &fresh, baselined, report.suppressed)
                .map_err(|e| Error::new(ErrorKind::Io, format!("writing stdout: {e}")))?;
        }
        Format::Github => {
            for f in &fresh {
                println!(
                    "::warning file={},line={},col={},title={}::{}",
                    gh_property(&f.file),
                    f.line,
                    f.col,
                    gh_property(&f.lint),
                    gh_message(&format!("{} (in `{}`)", f.message, f.item)),
                );
            }
            eprintln!(
                "iotax-audit: {} new finding(s), {} baselined, {} suppressed",
                fresh.len(),
                baselined,
                report.suppressed
            );
        }
    }

    Ok(if fresh.is_empty() { 0 } else { 1 })
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
    // flush inside `finish`; `process::exit` skips Drop.
    match run(&args, &mut session) {
        Ok(code) => std::process::exit(session.finish(code)),
        Err(e) => {
            eprintln!("iotax-audit: {e}");
            std::process::exit(session.finish(i32::from(e.exit_code())));
        }
    }
}
