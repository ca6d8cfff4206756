//! Observability-overhead gate: the whole in-flight layer — flight
//! recorder and heap-accounting allocator — must cost at most a few
//! percent of pipeline wall time, or it is not "always-on"
//! instrumentation at all.
//!
//! Method: run the quick taxonomy pipeline `trials` times with the
//! in-flight layer off (the cold baseline) and again with recorder +
//! heap tracking armed (hot), take the **minimum** wall
//! time of each side on the span clock ([`iotax_obs::uptime_us`]), and
//! compare. Min-of-trials is the standard noise-robust estimator here:
//! scheduler hiccups only ever add time, so the minimum is the cleanest
//! observation of each configuration. Cold trials run first — heap
//! accounting latches on for the life of the process by design.
//!
//! Writes `BENCH_obs.json` and exits nonzero when the overhead exceeds
//! `--max-overhead-pct` (default 5).

use iotax_core::Taxonomy;
use iotax_obs::uptime_us;
use serde::Serialize;

const USAGE: &str = "usage: obs_overhead [--trials N] [--jobs N] \
                     [--max-overhead-pct P] [--out PATH]";

#[derive(Serialize)]
struct BenchReport {
    jobs: usize,
    trials: u32,
    cold_us: u64,
    hot_us: u64,
    overhead_pct: f64,
    max_overhead_pct: f64,
}

fn one_trial(jobs: usize, seed: u64) -> u64 {
    let dataset =
        iotax_sim::Platform::new(iotax_sim::SimConfig::theta().with_jobs(jobs).with_seed(seed))
            .generate();
    let start = uptime_us();
    let report = Taxonomy::quick().run(&dataset);
    let wall = uptime_us().saturating_sub(start);
    std::hint::black_box(report);
    wall
}

fn min_of_trials(trials: u32, jobs: usize) -> u64 {
    (0..trials).map(|t| one_trial(jobs, 301 + u64::from(t))).min().unwrap_or(u64::MAX)
}

fn run() -> Result<i32, String> {
    let mut trials: u32 = 3;
    let mut jobs: usize = 2_000;
    let mut max_overhead_pct: f64 = 5.0;
    let mut out = "BENCH_obs.json".to_owned();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().map(|v| v.to_owned()).ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--trials" => {
                trials = value("--trials")?.parse().map_err(|e| format!("--trials: {e}"))?;
            }
            "--jobs" => jobs = value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--max-overhead-pct" => {
                max_overhead_pct = value("--max-overhead-pct")?
                    .parse()
                    .map_err(|e| format!("--max-overhead-pct: {e}"))?;
            }
            "--out" => out = value("--out")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if trials == 0 {
        return Err("--trials must be at least 1".to_owned());
    }

    // Cold: instrumentation compiled in (spans, counters — those are the
    // pipeline's steady state) but the in-flight layer dark.
    let cold_us = min_of_trials(trials, jobs);

    // Hot: flight recorder ring and heap-accounting latch.
    let blackbox = std::env::temp_dir().join(format!("obs-overhead-{}", std::process::id()));
    iotax_obs::install_recorder(&blackbox, "bench-obs-overhead", None);
    iotax_obs::install_heap_accounting();
    let hot_us = min_of_trials(trials, jobs);
    // audit:allow(swallowed-result) -- best-effort cleanup of the bench's own temp blackbox dir; a leftover dir cannot affect the measurement already taken
    let _ = std::fs::remove_dir_all(&blackbox);

    let overhead_pct = if cold_us == 0 {
        0.0
    } else {
        ((hot_us as f64 - cold_us as f64) / cold_us as f64 * 100.0).max(0.0)
    };
    let report = BenchReport { jobs, trials, cold_us, hot_us, overhead_pct, max_overhead_pct };
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(&out, format!("{json}\n")).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "obs overhead: cold {cold_us} µs, hot {hot_us} µs → {overhead_pct:.2} % \
         (budget {max_overhead_pct:.1} %) → {out}"
    );

    if overhead_pct > max_overhead_pct {
        eprintln!(
            "FAIL: in-flight observability costs {overhead_pct:.2} % \
             (> {max_overhead_pct:.1} % budget)"
        );
        return Ok(1);
    }
    Ok(0)
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(64);
        }
    }
}
