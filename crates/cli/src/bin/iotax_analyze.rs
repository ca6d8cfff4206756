//! `iotax-analyze` — run the taxonomy litmus tests on a trace directory
//! produced by `iotax-gen` (or by anything that writes the same format
//! from real logs).
//!
//! ```sh
//! iotax-analyze /tmp/theta-trace
//! iotax-analyze /tmp/theta-trace --ledger runs/analyze-1
//! iotax-analyze /tmp/theta-trace --stats-only
//! ```
//!
//! First prints the duplicate census, the application-modeling bound (§VI),
//! and the concurrent-duplicate noise floor (§IX) — the litmus tests that
//! need nothing but logs. Then (unless `--stats-only`) reconstructs a
//! dataset from the parsed logs and drives the full five-stage taxonomy
//! through the staged `TaxonomyRun` API, printing the error-source report.
//!
//! With `--ledger DIR`, a self-contained run directory is written
//! (manifest, span tree with the five `core.*` stage spans, counters,
//! histogram digests, gauges, stage health and per-stage metrics) for
//! `iotax-report` to show, diff, export, or gate against.
//!
//! Ingestion is **lenient by default**: corrupt logs are salvaged (every
//! intact record before the damage point is recovered), unsalvageable
//! files are quarantined and the analysis continues, and transient read
//! errors are retried with exponential backoff (`--retries N`, default 3).
//! `--strict` restores the legacy fail-fast contract. `--quarantine DIR`
//! moves unsalvageable files aside; `--ingest-report PATH` writes the
//! per-file ingest accounting as JSON lines (the CI chaos job uploads it).
//!
//! The report, and `--help`, go to stdout through one lock. A write that
//! fails there (`iotax-analyze TRACE | head -1` once `head` has exited)
//! ends the run like any other I/O error: exit 74, one line on stderr, and
//! the ledger still written.

use iotax_cli::{
    ingest_trace, trace_duplicate_sets, trace_to_dataset, IngestOptions, IngestReport,
};
use iotax_core::{
    app_modeling_bound, concurrent_noise_floor, empirical_coverage, interval_from_floor,
    TaxonomyRun, ThroughputInterval,
};
use iotax_obs::{digest_bytes, Error, ObsArgs, ObsSession, OBS_USAGE};
use std::io::Write;
use std::path::{Path, PathBuf};

fn usage() -> String {
    format!(
        "usage: iotax-analyze TRACE_DIR {OBS_USAGE} [--stats-only] [--strict] [--retries N] \
         [--quarantine DIR] [--ingest-report PATH]"
    )
}

/// Deliberate crash injection for the flight-recorder path: panics when
/// the `IOTAX_PANIC_AT_STAGE` environment variable names `stage`. The
/// blackbox e2e test and the CI blackbox job use it to kill a ledger run
/// mid-stage and then assert the black box survived.
#[expect(clippy::panic, reason = "test-only crash injection, reachable solely via the env var")]
fn crash_hook(stage: &str) {
    if std::env::var("IOTAX_PANIC_AT_STAGE").is_ok_and(|v| v == stage) {
        panic!("injected crash at stage {stage}");
    }
}

struct Args {
    dir: PathBuf,
    obs: ObsArgs,
    stats_only: bool,
    strict: bool,
    retries: u32,
    quarantine: Option<PathBuf>,
    ingest_report: Option<PathBuf>,
}

fn parse_args() -> Result<Args, Error> {
    let mut dir = None;
    let mut obs = ObsArgs::default();
    let mut stats_only = false;
    let mut strict = false;
    let mut retries = IngestOptions::default().max_retries;
    let mut quarantine = None;
    let mut ingest_report = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| Error::usage(format!("{name} needs a value")));
        match arg.as_str() {
            "--help" | "-h" => {
                let mut out = std::io::stdout().lock();
                writeln!(out, "{}", usage()).and_then(|()| out.flush()).map_err(Error::stdout)?;
                std::process::exit(0);
            }
            "--stats-only" => stats_only = true,
            "--strict" => strict = true,
            "--retries" => {
                retries = value("--retries")?
                    .parse()
                    .map_err(|e| Error::usage(format!("--retries: {e}")))?
            }
            "--quarantine" => quarantine = Some(PathBuf::from(value("--quarantine")?)),
            "--ingest-report" => ingest_report = Some(PathBuf::from(value("--ingest-report")?)),
            other => {
                if obs.accept(other, &mut value)? {
                } else if dir.is_none() && !other.starts_with('-') {
                    dir = Some(PathBuf::from(other));
                } else {
                    return Err(Error::usage(format!("unexpected argument {other} ({})", usage())));
                }
            }
        }
    }
    let dir = dir.ok_or_else(|| Error::usage(usage()))?;
    Ok(Args { dir, obs, stats_only, strict, retries, quarantine, ingest_report })
}

fn run(args: &Args, session: &mut ObsSession) -> Result<(), Error> {
    let _span = iotax_obs::span!("analyze");
    let mut out = std::io::stdout().lock();
    if let Some(ledger) = session.ledger_mut() {
        ledger.set_config_digest(digest_bytes(
            format!(
                "stats_only={} strict={} retries={}",
                args.stats_only, args.strict, args.retries
            )
            .as_bytes(),
        ));
        ledger.add_input(args.dir.join("manifest.csv"));
    }
    let opts = IngestOptions {
        strict: args.strict,
        max_retries: args.retries,
        quarantine_dir: args.quarantine.clone(),
        ..Default::default()
    };
    iotax_obs::event!("analyze.stage", "ingest: {}", args.dir.display());
    crash_hook("ingest");
    let (jobs, report) = ingest_trace(&args.dir, &opts)?;
    iotax_obs::gauge!("analyze.trace_jobs").set(jobs.len() as u64);
    writeln!(out, "trace: {} jobs from {}", jobs.len(), args.dir.display())
        .map_err(Error::stdout)?;
    writeln!(out, "ingest: {}", report.summary()).map_err(Error::stdout)?;
    for q in &report.quarantined {
        eprintln!("  quarantined job {}: {}", q.job_id, q.reason);
    }

    // The log-only litmus tests run on this thread while a second one
    // writes the ingest report. Their output waits for the write, so a
    // failed write still ends the run before any of it is printed.
    let (litmus, written) = iotax_stats::fanout::join(
        || {
            if jobs.is_empty() {
                return None;
            }
            iotax_obs::event!("analyze.stage", "duplicates: {} jobs", jobs.len());
            crash_hook("duplicates");
            let dup = {
                let _span = iotax_obs::span!("analyze.duplicates");
                trace_duplicate_sets(&jobs)
            };
            // out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
            let y: Vec<f64> = jobs.iter().map(|j| j.log10_throughput()).collect();
            iotax_obs::event!("analyze.stage", "app_bound: {} duplicate sets", dup.sets.len());
            crash_hook("app_bound");
            let bound = {
                let _span = iotax_obs::span!("analyze.app_bound");
                app_modeling_bound(&y, &dup)
            };
            // out-of-core: whole-trace column for quantile/bound math; stream via a mergeable quantile sketch when traces outgrow memory
            let starts: Vec<i64> = jobs.iter().map(|j| j.start_time).collect();
            iotax_obs::event!("analyze.stage", "noise_floor");
            crash_hook("noise_floor");
            let floor = {
                let _span = iotax_obs::span!("analyze.noise_floor");
                concurrent_noise_floor(&y, &starts, &dup, &[], 1, 30)
            };
            Some((dup, y, bound, floor))
        },
        || args.ingest_report.as_deref().map(|path| write_ingest_report(&report, path)).transpose(),
    );
    if let Some(path) = written? {
        eprintln!("ingest report written to {}", path.display());
    }
    let Some((dup, y, bound, floor)) = litmus else {
        return Err(Error::usage(format!(
            "no usable jobs in {} ({} quarantined)",
            args.dir.display(),
            report.quarantined.len()
        )));
    };
    writeln!(
        out,
        "\nduplicates: {} jobs ({:.1} % of trace) in {} sets",
        bound.n_duplicates,
        bound.duplicate_fraction * 100.0,
        bound.n_sets
    )
    .map_err(Error::stdout)?;
    writeln!(
        out,
        "application-modeling bound (§VI): no model sees below {:.2} % median error",
        bound.median_abs_pct
    )
    .map_err(Error::stdout)?;

    match floor {
        Some(floor) => {
            writeln!(
                out,
                "\nnoise floor (§IX): {} concurrent duplicates in {} sets",
                floor.n_concurrent, floor.n_sets
            )
            .map_err(Error::stdout)?;
            writeln!(
                out,
                "  expect throughput within ±{:.2} % of predictions 68 % of the time, \
                 ±{:.2} % 95 % of the time",
                floor.pct_68, floor.pct_95
            )
            .map_err(Error::stdout)?;
            writeln!(
                out,
                "  distribution: Student-t (ν = {:.1}) preferred over normal: {}",
                floor.t_df, floor.t_preferred
            )
            .map_err(Error::stdout)?;
            // The paper's closing, user-facing number (§XI): wrap the trace's
            // median throughput in the floor-derived band, and validate the
            // band's nominal coverage against the duplicate sets themselves
            // (each set's mean stands in for a point prediction).
            let mut sorted = y.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted.get(sorted.len() / 2).copied().unwrap_or(f64::NAN);
            let iv: ThroughputInterval = interval_from_floor(median, &floor, 0.68);
            writeln!(
                out,
                "  a job predicted at {:.2e} B/s lands in [{:.2e}, {:.2e}] B/s 68 % of the time",
                iv.predicted, iv.lo, iv.hi
            )
            .map_err(Error::stdout)?;
            let pairs: Vec<(f64, f64)> = dup
                .sets
                .iter()
                .filter(|set| set.len() >= 2)
                .flat_map(|set| {
                    let vals: Vec<f64> = set.iter().filter_map(|&j| y.get(j).copied()).collect();
                    let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
                    vals.into_iter().map(|v| (mean, v)).collect::<Vec<_>>()
                })
                .collect();
            if !pairs.is_empty() {
                writeln!(
                    out,
                    "  empirical coverage over {} duplicate pairs: {:.0} % at nominal 68 %, \
                     {:.0} % at nominal 95 %",
                    pairs.len(),
                    empirical_coverage(&pairs, &floor, 0.68) * 100.0,
                    empirical_coverage(&pairs, &floor, 0.95) * 100.0,
                )
                .map_err(Error::stdout)?;
            }
        }
        None => writeln!(
            out,
            "\nnoise floor: fewer than 30 simultaneous duplicates — schedule batched \
             benchmark runs to measure it"
        )
        .map_err(Error::stdout)?,
    }

    if !args.stats_only {
        eprintln!(
            "\nrunning the five-stage taxonomy (baseline GBM, grid search, golden model, \
                   ensemble UQ, noise floor)..."
        );
        iotax_obs::event!("analyze.stage", "taxonomy: {} jobs", jobs.len());
        crash_hook("taxonomy");
        let ds = trace_to_dataset(&jobs);
        let mut report = TaxonomyRun::new(&ds)
            .baseline()?
            .app_litmus()?
            .system_litmus()?
            .ood()?
            .noise_floor()?
            .finish();
        if let Some(id) = session.run_id() {
            report = report.with_run_id(id);
        }
        writeln!(out, "\n{}", report.render_text()).map_err(Error::stdout)?;
        if let Some(ledger) = session.ledger_mut() {
            // The taxonomy payload rides in named ledger sections so
            // iotax-report can read it without a dependency on iotax-core.
            ledger.add_section("stages", &report.stages);
            ledger.add_section("stage_metrics", &report.stage_metrics);
        }
    }
    out.flush().map_err(Error::stdout)
}

/// Writes the ingest report to `path` as JSON lines; returns `path`.
fn write_ingest_report<'a>(report: &IngestReport, path: &'a Path) -> Result<&'a Path, Error> {
    let failed = |e| Error::io(format!("writing ingest report {}", path.display()), e);
    let file = std::fs::File::create(path)
        .map_err(|e| Error::io(format!("creating ingest report {}", path.display()), e))?;
    let mut out = std::io::BufWriter::new(file);
    report.write_jsonl(&mut out).map_err(failed)?;
    // Flush explicitly: dropping a BufWriter would discard the error.
    out.flush().map_err(failed)?;
    Ok(path)
}

fn main() {
    // Returning `Err` from `main` would exit 1; the sysexits contract
    // (64 usage, 65 parse, 74 I/O) needs the explicit code.
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("iotax-analyze: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    };
    let mut session = match args.obs.install("iotax-analyze") {
        Ok(session) => session,
        Err(e) => {
            eprintln!("iotax-analyze: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    };
    match run(&args, &mut session) {
        Ok(()) => std::process::exit(session.finish(0)),
        Err(e) => {
            eprintln!("iotax-analyze: {e}");
            std::process::exit(session.finish(i32::from(e.exit_code())));
        }
    }
}
