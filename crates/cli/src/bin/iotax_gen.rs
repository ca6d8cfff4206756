//! `iotax-gen` — generate a simulated HPC trace as an on-disk directory of
//! binary Darshan logs plus a scheduler manifest.
//!
//! ```sh
//! iotax-gen --system theta --jobs 5000 --seed 42 --out /tmp/theta-trace
//! iotax-gen --jobs 2000 --ledger runs/gen-1     # write a run ledger
//! iotax-gen --jobs 2000 --fault-rate 0.2 --fault-seed 7   # dirty trace
//! ```
//!
//! With `--fault-rate`, a deterministic `FaultPlan` corrupts that fraction
//! of the emitted logs post-serialization (truncation, bit flips, zeroed
//! counters, dropped modules, trailing garbage, duplicated records,
//! transient unreadability), in memory before each log's one write, and
//! writes the ground-truth `faults.json` manifest so recovery can be
//! scored by `iotax-analyze`. Without it, a `faults.json` left in `--out`
//! by an earlier run is removed.
//!
//! The per-job work — assembling each job in the simulator, then encoding,
//! damaging and writing its log — runs on every available core, in fixed
//! chunks of jobs that each thread claims as it frees up, and the trace is
//! byte-identical at any thread count (`taskset -c 0` gives one). The
//! simulator reads each job's features straight off the log it generates,
//! so a clean run encodes every log once and parses none.
//!
//! The observability flags (`--ledger`, `--store`) are shared with
//! `iotax-analyze` and `iotax-audit`; see `iotax_obs::ObsArgs`.

use iotax_cli::{export_trace, export_trace_with_faults};
use iotax_obs::{digest_bytes, Error, ObsArgs, ObsSession, OBS_USAGE};
use iotax_sim::{FaultPlan, Platform, SimConfig};
use std::io::Write;
use std::path::PathBuf;

struct Args {
    system: String,
    jobs: usize,
    seed: u64,
    out: PathBuf,
    obs: ObsArgs,
    fault_rate: f64,
    fault_seed: Option<u64>,
}

fn parse_args() -> Result<Args, Error> {
    let mut args = Args {
        system: "theta".to_owned(),
        jobs: 5_000,
        seed: 42,
        out: PathBuf::from("iotax-trace"),
        obs: ObsArgs::default(),
        fault_rate: 0.0,
        fault_seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| Error::usage(format!("{name} needs a value")));
        match flag.as_str() {
            "--system" => args.system = value("--system")?,
            "--jobs" => {
                args.jobs =
                    value("--jobs")?.parse().map_err(|e| Error::usage(format!("--jobs: {e}")))?;
                if args.jobs == 0 {
                    return Err(Error::usage("--jobs must be positive"));
                }
            }
            "--seed" => {
                args.seed =
                    value("--seed")?.parse().map_err(|e| Error::usage(format!("--seed: {e}")))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--fault-rate" => {
                args.fault_rate = value("--fault-rate")?
                    .parse()
                    .map_err(|e| Error::usage(format!("--fault-rate: {e}")))?;
                if !(0.0..=1.0).contains(&args.fault_rate) {
                    return Err(Error::usage("--fault-rate must be in [0, 1]"));
                }
            }
            "--fault-seed" => {
                args.fault_seed = Some(
                    value("--fault-seed")?
                        .parse()
                        .map_err(|e| Error::usage(format!("--fault-seed: {e}")))?,
                )
            }
            "--help" | "-h" => {
                let mut out = std::io::stdout().lock();
                writeln!(
                    out,
                    "usage: iotax-gen [--system theta|cori] [--jobs N] \
                     [--seed N] [--out DIR] {OBS_USAGE} \
                     [--fault-rate F] [--fault-seed N]"
                )
                .and_then(|()| out.flush())
                .map_err(Error::stdout)?;
                std::process::exit(0);
            }
            other => {
                if !args.obs.accept(other, &mut value)? {
                    return Err(Error::usage(format!("unknown flag {other} (try --help)")));
                }
            }
        }
    }
    Ok(args)
}

fn run(args: &Args, session: &mut ObsSession) -> Result<(), Error> {
    let _span = iotax_obs::span!("gen");
    let config = match args.system.as_str() {
        "theta" => SimConfig::theta(),
        "cori" => SimConfig::cori(),
        other => return Err(Error::usage(format!("unknown system {other:?}; use theta or cori"))),
    }
    .with_jobs(args.jobs)
    .with_seed(args.seed);
    if let Some(ledger) = session.ledger_mut() {
        ledger.set_config_digest(digest_bytes(
            format!("system={} jobs={} fault_rate={}", args.system, args.jobs, args.fault_rate)
                .as_bytes(),
        ));
        ledger.add_seed("seed", args.seed);
        if let Some(fs) = args.fault_seed {
            ledger.add_seed("fault_seed", fs);
        }
    }
    eprintln!(
        "generating {} {} jobs over {:.0} days (seed {})...",
        config.n_jobs,
        args.system,
        config.horizon_seconds as f64 / 86_400.0,
        args.seed
    );
    let dataset = Platform::new(config).generate();
    if args.fault_rate > 0.0 {
        let plan = FaultPlan::new(args.fault_seed.unwrap_or(args.seed), args.fault_rate);
        let manifest = export_trace_with_faults(&dataset, &args.out, &plan)?;
        eprintln!("wrote {} jobs to {}", dataset.jobs.len(), args.out.display());
        eprintln!(
            "injected {} faults across {} logs (rate {:.0} %, seed {}); \
             ground truth in faults.json",
            manifest.faults.len(),
            manifest.jobs_seen,
            plan.rate * 100.0,
            plan.seed
        );
    } else {
        let n = export_trace(&dataset, &args.out)?;
        eprintln!("wrote {n} jobs to {}", args.out.display());
    }
    if let Some(ledger) = session.ledger_mut() {
        // Digest the written manifest so two gen runs can be compared for
        // output byte-determinism straight from their ledgers.
        ledger.add_input(args.out.join("manifest.csv"));
    }
    Ok(())
}

fn main() {
    // Returning `Err` from `main` would exit 1; the sysexits contract
    // (64 usage, 65 parse, 74 I/O) needs the explicit code.
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("iotax-gen: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    };
    let mut session = match args.obs.install("iotax-gen") {
        Ok(session) => session,
        Err(e) => {
            eprintln!("iotax-gen: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    };
    match run(&args, &mut session) {
        Ok(()) => std::process::exit(session.finish(0)),
        Err(e) => {
            eprintln!("iotax-gen: {e}");
            std::process::exit(session.finish(i32::from(e.exit_code())));
        }
    }
}
