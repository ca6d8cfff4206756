//! `iotax-report` — inspect, compare, export, and gate run ledgers.
//!
//! ```sh
//! iotax-report show runs/analyze-1
//! iotax-report diff runs/analyze-1 runs/analyze-2
//! iotax-report export runs/analyze-1 --format chrome-trace --out trace.json
//! iotax-report export runs/analyze-1 --format folded
//! iotax-report gate runs/analyze-2 --baseline ci/perf-baseline --max-regress 300
//! iotax-report scan runs-store
//! iotax-report trajectory runs-store --metric core.ood --last 50
//! iotax-report import runs/analyze-2 --store runs-store
//! iotax-report crash-matrix --dir /tmp/crash --seed 20220914 --records 40
//! iotax-report blackbox runs/analyze-1 --last 50
//! iotax-report watch runs/analyze-1
//! ```
//!
//! A RUN argument is a directory written by `--ledger` (or a direct
//! path to its `run.json`) — or a run inside a `--store` segment log:
//! `STORE@last`, `STORE@<run-id-prefix>`, or a bare store directory
//! (meaning its newest run). Like `diff(1)`, `diff` exits 1 when the
//! runs' deterministic metrics differ (timing-only movement is not a
//! difference); `gate` exits 1 when the run drifts or regresses past
//! its budget; `scan` exits 65 (EX_DATAERR) after quarantining when a
//! store holds damaged or undecodable records; `crash-matrix` exits 1
//! when any fault kind goes undetected or loses an acknowledged
//! record; `watch` exits 1 when the run crashed (its ledger holds a
//! black box and no `run.json`); everything else exits 0 on success.
//! Chrome traces open in `chrome://tracing` or
//! <https://ui.perfetto.dev>; folded output feeds `flamegraph.pl` /
//! inferno.

use iotax_obs::{load_run, Error, FlightEvent, HeartbeatLine, RunFile};
use iotax_report::{
    diff_runs, evaluate_gate, render_crash_matrix, render_diff, render_gate, render_scan,
    render_show, render_trajectory, resolve_run, run_crash_matrix, scan_ledger_store, store_runs,
    to_chrome_trace, to_folded, trajectory, GateOutcome, RunDiff,
};
use std::io::Write;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: iotax-report <command>
  show RUN
  diff RUN_A RUN_B
  export RUN --format chrome-trace|folded [--out PATH]
  gate RUN --baseline RUN [--max-regress PCT]
  scan STORE
  trajectory STORE --metric KEY [--last N]
  import RUN --store STORE
  crash-matrix --dir DIR [--seed N] [--records M]
  blackbox RUN [--last N]
  watch RUN [--once]
RUN may be a --ledger directory, a run.json path, STORE@last,
STORE@<run-id-prefix>, or a bare store directory (newest run);
blackbox and watch take the --ledger directory itself";

/// Pulls the next positional argument or fails with usage context.
fn positional(it: &mut impl Iterator<Item = String>, what: &str) -> Result<String, Error> {
    match it.next() {
        Some(arg) if !arg.starts_with('-') => Ok(arg),
        _ => Err(Error::usage(format!("expected {what}\n{USAGE}"))),
    }
}

/// Pulls the value of flag `name` or fails with usage context.
fn value(it: &mut impl Iterator<Item = String>, name: &str) -> Result<String, Error> {
    it.next().ok_or_else(|| Error::usage(format!("{name} needs a value")))
}

/// Loads a RUN argument: a run directory, a `run.json` path, or a
/// store selector (`STORE@last`, `STORE@<prefix>`, bare store dir).
fn load(path: &str) -> Result<RunFile, Error> {
    resolve_run(path)
}

/// Runs one command, writing its report to `out`.
fn run(out: &mut impl Write) -> Result<i32, Error> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or_else(|| Error::usage(USAGE))?;
    match command.as_str() {
        "show" => {
            let run = load(&positional(&mut it, "a RUN directory")?)?;
            write!(out, "{}", render_show(&run)).map_err(Error::stdout)?;
            Ok(0)
        }
        "diff" => {
            let a = load(&positional(&mut it, "RUN_A")?)?;
            let b = load(&positional(&mut it, "RUN_B")?)?;
            let d: RunDiff = diff_runs(&a, &b);
            write!(out, "{}", render_diff(&d)).map_err(Error::stdout)?;
            Ok(i32::from(!d.metrics_identical()))
        }
        "export" => {
            let run_path = positional(&mut it, "a RUN directory")?;
            let mut format = None;
            let mut out_path = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--format" => format = Some(value(&mut it, "--format")?),
                    "--out" => out_path = Some(PathBuf::from(value(&mut it, "--out")?)),
                    other => return Err(Error::usage(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            let run = load(&run_path)?;
            let rendered = match format.as_deref() {
                Some("chrome-trace") => to_chrome_trace(&run),
                Some("folded") => to_folded(&run),
                Some(other) => {
                    return Err(Error::usage(format!(
                        "--format {other:?} (expected chrome-trace or folded)"
                    )))
                }
                None => return Err(Error::usage(format!("--format is required\n{USAGE}"))),
            };
            match out_path {
                Some(path) => {
                    std::fs::write(&path, rendered)
                        .map_err(|e| Error::io(format!("writing {}", path.display()), e))?;
                    eprintln!("exported to {}", path.display());
                }
                None => write!(out, "{rendered}").map_err(Error::stdout)?,
            }
            Ok(0)
        }
        "gate" => {
            let run_path = positional(&mut it, "a RUN directory")?;
            let mut baseline = None;
            let mut max_regress = 100.0;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--baseline" => baseline = Some(value(&mut it, "--baseline")?),
                    "--max-regress" => {
                        max_regress = value(&mut it, "--max-regress")?
                            .parse()
                            .map_err(|e| Error::usage(format!("--max-regress: {e}")))?
                    }
                    other => return Err(Error::usage(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            let baseline =
                baseline.ok_or_else(|| Error::usage(format!("--baseline is required\n{USAGE}")))?;
            let run = load(&run_path)?;
            let base = load(&baseline)?;
            let outcome: GateOutcome = evaluate_gate(&run, &base, max_regress);
            write!(out, "{}", render_gate(&outcome)).map_err(Error::stdout)?;
            Ok(if outcome.passed() { 0 } else { 1 })
        }
        "scan" => {
            let dir = PathBuf::from(positional(&mut it, "a STORE directory")?);
            let (report, raw) = scan_ledger_store(&dir)?;
            write!(out, "{}", render_scan(&report)).map_err(Error::stdout)?;
            let sidecars = iotax_obs::store::write_quarantine(&dir, &raw)?;
            for path in &sidecars {
                eprintln!("quarantine report written to {}", path.display());
            }
            if report.is_clean() {
                Ok(0)
            } else {
                // EX_DATAERR, same code strict ingestion uses for
                // damaged telemetry: the store's *data* is hurt, the
                // invocation and the I/O were fine.
                Ok(65)
            }
        }
        "trajectory" => {
            let dir = PathBuf::from(positional(&mut it, "a STORE directory")?);
            let mut metric = None;
            let mut last = 50usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--metric" => metric = Some(value(&mut it, "--metric")?),
                    "--last" => {
                        last = value(&mut it, "--last")?
                            .parse()
                            .map_err(|e| Error::usage(format!("--last: {e}")))?
                    }
                    other => return Err(Error::usage(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            let metric =
                metric.ok_or_else(|| Error::usage(format!("--metric is required\n{USAGE}")))?;
            let runs = store_runs(&dir)?;
            let t = trajectory(&runs, &metric, last);
            write!(out, "{}", render_trajectory(&t)).map_err(Error::stdout)?;
            Ok(0)
        }
        "import" => {
            let run_path = positional(&mut it, "a RUN directory")?;
            let mut store = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--store" => store = Some(PathBuf::from(value(&mut it, "--store")?)),
                    other => return Err(Error::usage(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            let store_dir =
                store.ok_or_else(|| Error::usage(format!("--store is required\n{USAGE}")))?;
            // Validate the run decodes, but append the original bytes so
            // the stored record is byte-identical to the directory copy.
            let path = PathBuf::from(&run_path);
            let file = if path.is_dir() { path.join("run.json") } else { path };
            let run = load_run(&file)?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| Error::io(format!("reading {}", file.display()), e))?;
            let mut seg = iotax_obs::store::SegmentStore::open(&store_dir)?;
            let offset = seg.append(text.as_bytes())?;
            eprintln!(
                "imported {} into {} at offset {offset}",
                run.manifest.run_id,
                store_dir.display()
            );
            Ok(0)
        }
        "crash-matrix" => {
            let mut dir = None;
            let mut seed = 20220914u64;
            let mut records = 40usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--dir" => dir = Some(PathBuf::from(value(&mut it, "--dir")?)),
                    "--seed" => {
                        seed = value(&mut it, "--seed")?
                            .parse()
                            .map_err(|e| Error::usage(format!("--seed: {e}")))?
                    }
                    "--records" => {
                        records = value(&mut it, "--records")?
                            .parse()
                            .map_err(|e| Error::usage(format!("--records: {e}")))?
                    }
                    other => return Err(Error::usage(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            let dir = dir.ok_or_else(|| Error::usage(format!("--dir is required\n{USAGE}")))?;
            let matrix = run_crash_matrix(&dir, seed, records)?;
            write!(out, "{}", render_crash_matrix(&matrix)).map_err(Error::stdout)?;
            Ok(i32::from(!matrix.passed()))
        }
        "blackbox" => {
            let run_dir = PathBuf::from(positional(&mut it, "a --ledger RUN directory")?);
            let mut last = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--last" => {
                        last = Some(
                            value(&mut it, "--last")?
                                .parse::<usize>()
                                .map_err(|e| Error::usage(format!("--last: {e}")))?,
                        )
                    }
                    other => return Err(Error::usage(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            // Flight events live only in DIR/blackbox: a run that neither
            // crashed nor failed leaves none, and a `--store` sharing the
            // ledger directory holds run records, not events. A missing
            // DIR fails in the scan.
            let dir = run_dir.join(iotax_obs::BLACKBOX_DIR);
            let scan = if run_dir.is_dir() && !dir.exists() {
                None
            } else {
                Some(iotax_obs::store::scan_store(&dir)?)
            };
            let Some(scan) = scan.filter(|s| !s.records.is_empty() || !s.damage.is_empty()) else {
                writeln!(out, "black box: empty ({})", dir.display()).map_err(Error::stdout)?;
                return Ok(0);
            };
            let mut undecodable = 0usize;
            let mut events: Vec<FlightEvent> = Vec::new();
            for record in &scan.records {
                match FlightEvent::decode(&record.payload) {
                    Some(event) => events.push(event),
                    None => undecodable += 1,
                }
            }
            let total = events.len();
            let skip = last.map_or(0, |n| total.saturating_sub(n));
            for event in &events[skip..] {
                writeln!(out, "{}", render_flight_event(event)).map_err(Error::stdout)?;
            }
            writeln!(
                out,
                "black box: {} event(s), {} undecodable, {} damaged record(s)",
                total,
                undecodable,
                scan.damage.len()
            )
            .map_err(Error::stdout)?;
            if scan.damage.is_empty() && undecodable == 0 {
                Ok(0)
            } else {
                // EX_DATAERR, like `scan`: the recorder's data is hurt.
                Ok(65)
            }
        }
        "watch" => {
            let run_dir = PathBuf::from(positional(&mut it, "a --ledger RUN directory")?);
            let mut once = false;
            for flag in it.by_ref() {
                match flag.as_str() {
                    "--once" => once = true,
                    other => return Err(Error::usage(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            watch_heartbeat(out, &run_dir, once)
        }
        "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(Error::stdout)?;
            Ok(0)
        }
        other => Err(Error::usage(format!("unknown command {other}\n{USAGE}"))),
    }
}

/// One human-readable line per flight-recorder event.
fn render_flight_event(e: &FlightEvent) -> String {
    let t = e.at_us as f64 / 1_000_000.0;
    match e.kind.as_str() {
        "blackbox" => {
            format!(
                "[{t:>10.6}] ─── black box: run {} ({}; {} dropped) ───",
                e.name, e.detail, e.value
            )
        }
        "span_open" => format!("[{t:>10.6}] t{} open  {}", e.thread, e.detail),
        "span_close" => {
            format!("[{t:>10.6}] t{} close {} ({} µs)", e.thread, e.detail, e.value)
        }
        "counter" => format!("[{t:>10.6}] counter {} +{}", e.name, e.value),
        "event" if e.detail.is_empty() => format!("[{t:>10.6}] t{} event {}", e.thread, e.name),
        "event" => format!("[{t:>10.6}] t{} event {}: {}", e.thread, e.name, e.detail),
        other => format!("[{t:>10.6}] {other} {} {} {}", e.name, e.detail, e.value),
    }
}

/// One line per heartbeat tick: uptime, live span stacks, headline heap.
fn render_heartbeat(line: &HeartbeatLine) -> String {
    let stacks = if line.stacks.is_empty() {
        "idle".to_owned()
    } else {
        line.stacks.iter().map(|(t, p)| format!("t{t}:{p}")).collect::<Vec<_>>().join("  ")
    };
    let heap = line
        .gauges
        .iter()
        .find(|g| g.name == "heap.current_bytes")
        .map(|g| format!("  heap {:.1} MiB", g.value as f64 / (1024.0 * 1024.0)))
        .unwrap_or_default();
    format!(
        "tick {:<5} up {:>9.3} s  {} counter(s){heap}  {stacks}",
        line.seq,
        line.uptime_us as f64 / 1_000_000.0,
        line.counters.len()
    )
}

/// Tails `<run>/heartbeat.jsonl`, printing each new tick to `out`, until
/// the run's `run.json` lands (the run finished: exit 0) or the run
/// crashed (exit 1; see [`iotax_obs::run_crashed`]). With `once`, prints
/// what is there and returns: 1 if the run crashed, else 0.
fn watch_heartbeat(out: &mut impl Write, run_dir: &Path, once: bool) -> Result<i32, Error> {
    let path = run_dir.join(iotax_obs::HEARTBEAT_FILE);
    let mut printed = 0usize;
    loop {
        let crashed = iotax_obs::run_crashed(run_dir);
        let finished = !crashed && run_dir.join("run.json").exists();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        for line in text.lines().skip(printed) {
            printed += 1;
            let rendered = match serde_json::from_str::<HeartbeatLine>(line) {
                Ok(beat) => render_heartbeat(&beat),
                Err(_) => "(torn heartbeat line skipped)".to_owned(),
            };
            writeln!(out, "{rendered}").map_err(Error::stdout)?;
        }
        if crashed {
            let blackbox = run_dir.join(iotax_obs::BLACKBOX_DIR);
            eprintln!("run crashed: no run.json, black box at {}", blackbox.display());
            return Ok(1);
        }
        if once || finished {
            if finished {
                eprintln!("run finished (run.json present); watch done");
            } else if printed == 0 {
                eprintln!("no heartbeat yet at {}", path.display());
            }
            return Ok(0);
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

fn main() {
    let mut out = std::io::stdout().lock();
    // `process::exit` would drop a failed final flush silently.
    match run(&mut out).and_then(|code| out.flush().map(|()| code).map_err(Error::stdout)) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("iotax-report: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    }
}
