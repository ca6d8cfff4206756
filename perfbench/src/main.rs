//! `perfbench-trace`: the traced run of the benchmark driven by `run.py`.
//!
//! Replays the work of a benchmark workload in-process, calling each
//! layer's public function directly with a timer span around the call:
//!
//! 1. write side, building the headline-size trace (`--model-jobs`):
//!    `Platform::generate`, `export_trace`, `inject_faults`;
//! 2. read side, on the workload's input trace (`--trace`, built by
//!    `iotax-gen`): `ingest_trace`, `trace_duplicate_sets`,
//!    `app_modeling_bound`, `concurrent_noise_floor`, then the Darshan
//!    codec (`parse_log`, `parse_log_lenient`, `extract_*_features`,
//!    `write_log`) on a sample of its log bytes;
//! 3. model side, on the headline-size trace: the obs session,
//!    `trace_to_dataset`, each `TaxonomyRun` stage call and
//!    `ObsSession::finish`, then the `iotax_ml` / `iotax_uq` fits called
//!    directly on the POSIX feature matrix with the stages' quick-effort
//!    parameters.
//!
//! Every workload runs all three parts, so every traced run reports every
//! per-layer metric. Spans stay in memory and are written to
//! `<work>/spans.json` at the end. The last line of stdout is one JSON
//! object with the per-layer values and the traced wall time of the
//! workloads' command, `iotax-analyze --stats-only`.
//!
//! The headline-size trace gets the fault plan recorded in the input
//! trace's `faults.json`, so both traces carry the same plan.
//!
//! ```sh
//! perfbench-trace --trace TRACE_DIR --seed 301 --model-jobs 2000 --work WORK_DIR
//! ```

use iotax_cli::ingest::load_fault_manifest;
use iotax_cli::{
    export_trace, ingest_trace, inject_faults, trace_duplicate_sets, trace_to_dataset,
    IngestOptions, ObsArgs, TraceJob,
};
use iotax_core::{app_modeling_bound, concurrent_noise_floor, Taxonomy, TaxonomyRun};
use iotax_darshan::features::{extract_mpiio_features, extract_posix_features};
use iotax_darshan::{parse_log, parse_log_lenient, write_log, JobLog};
use iotax_ml::data::Dataset;
use iotax_ml::nn::MlpContext;
use iotax_ml::{grid_search, GbmParams, Mlp, PreparedDataset, Trainer};
use iotax_obs::{Error, MemorySink, NoopSink, Result};
use iotax_sim::{FaultPlan, FeatureSet, Platform, SimConfig, SimDataset};
use iotax_uq::DeepEnsemble;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: perfbench-trace --trace DIR --seed N --model-jobs N --work DIR";

/// Logs fed to the Darshan codec passes. A fixed cap keeps the codec's
/// working set the same on every workload whatever the trace size.
const CODEC_SAMPLE: usize = 5_000;

/// Each codec pass repeats until it has run this long, so the rate of a
/// pass over a few hundred salvageable logs is not a single timer tick.
const CODEC_MIN_S: f64 = 0.05;

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    trace: PathBuf,
    seed: u64,
    model_jobs: usize,
    work: PathBuf,
}

fn parse_args() -> Result<Args> {
    let mut vals: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| Error::usage(format!("{flag} needs a value")))?;
        vals.insert(flag, value);
    }
    let mut take = |flag: &str| {
        vals.remove(flag).ok_or_else(|| Error::usage(format!("missing {flag} ({USAGE})")))
    };
    fn parse<T: std::str::FromStr>(flag: &str, v: String) -> Result<T> {
        v.parse().map_err(|_| Error::usage(format!("{flag}: not a number: {v}")))
    }
    let args = Args {
        trace: PathBuf::from(take("--trace")?),
        seed: parse("--seed", take("--seed")?)?,
        model_jobs: parse("--model-jobs", take("--model-jobs")?)?,
        work: PathBuf::from(take("--work")?),
    };
    if let Some(flag) = vals.keys().next() {
        return Err(Error::usage(format!("unexpected argument {flag} ({USAGE})")));
    }
    Ok(args)
}

/// One timed layer call: name, and start/end seconds since the tracer
/// was created. Every span is a child of the run; calls never nest.
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
}

/// In-memory recorder for the benchmark's own spans around layer calls.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_s = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start_s, end_s });
        out
    }

    /// Total seconds spent in spans called `name`.
    fn seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).sum()
    }

    fn total(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.seconds(n)).sum()
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                    s.name,
                    num(s.start_s),
                    num(s.end_s)
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Current value of every registered obs counter. The installed sink is
/// swapped for a collector only for the length of the flush.
fn counters() -> BTreeMap<String, u64> {
    let collector = Arc::new(MemorySink::new());
    let previous = iotax_obs::set_sink(collector.clone());
    iotax_obs::flush_metrics();
    iotax_obs::restore_sink(previous);
    collector.counter_snapshots().into_iter().map(|c| (c.name, c.value)).collect()
}

fn counter(name: &str) -> u64 {
    counters().get(name).copied().unwrap_or(0)
}

/// `iotax-gen`'s work: simulate, export, inject the input trace's faults.
fn write_side(
    t: &mut Tracer,
    args: &Args,
    dir: &Path,
    m: &mut BTreeMap<String, f64>,
) -> Result<()> {
    let manifest = load_fault_manifest(&args.trace)?;
    let plan = FaultPlan::new(manifest.seed, manifest.rate);
    let config = SimConfig::theta().with_jobs(args.model_jobs).with_seed(args.seed);
    let dataset = t.span("sim.generate", || Platform::new(config).generate());
    m.insert("sim.generate.jobs_per_s".into(), args.model_jobs as f64 / t.seconds("sim.generate"));
    t.span("cli.export_trace", || export_trace(&dataset, dir))?;
    t.span("cli.inject_faults", || inject_faults(dir, &plan))?;
    Ok(())
}

/// `iotax-analyze --stats-only`'s work: ingest, duplicates, the two
/// log-only litmus tests. Writes the ingest report to `report_path`.
fn read_side(
    t: &mut Tracer,
    dir: &Path,
    report_path: &Path,
    m: &mut BTreeMap<String, f64>,
) -> Result<()> {
    const EXACT: [&str; 3] =
        ["darshan.logs_parsed", "darshan.logs_salvage_attempted", "darshan.records_salvaged"];
    let before = counters();
    let (jobs, report) =
        t.span("cli.ingest_trace", || ingest_trace(dir, &IngestOptions::default()))?;
    let after = counters();
    for name in EXACT {
        let delta = after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);
        m.insert(name.into(), delta as f64);
    }
    m.insert(
        "cli.ingest_trace.files_per_s".into(),
        report.total_files as f64 / t.seconds("cli.ingest_trace"),
    );
    let mut file = std::fs::File::create(report_path)
        .map_err(|e| Error::io(format!("creating {}", report_path.display()), e))?;
    report.write_jsonl(&mut file)?;

    let dup = t.span("cli.trace_duplicate_sets", || trace_duplicate_sets(&jobs));
    let y: Vec<f64> = jobs.iter().map(|j| j.log10_throughput()).collect();
    let starts: Vec<i64> = jobs.iter().map(|j| j.start_time).collect();
    black_box(t.span("core.app_modeling_bound", || app_modeling_bound(&y, &dup)));
    black_box(t.span("core.concurrent_noise_floor", || {
        concurrent_noise_floor(&y, &starts, &dup, &[], 1, 30)
    }));
    Ok(())
}

/// Runs `pass` inside one span until [`CODEC_MIN_S`] has elapsed; returns
/// the last pass's output and the number of passes.
fn repeat_pass<T>(t: &mut Tracer, name: &'static str, mut pass: impl FnMut() -> T) -> (T, usize) {
    t.span(name, || {
        let start = Instant::now();
        let mut passes = 1;
        let mut out = black_box(pass());
        while start.elapsed().as_secs_f64() < CODEC_MIN_S {
            out = black_box(pass());
            passes += 1;
        }
        (out, passes)
    })
}

/// Darshan codec throughput on the first [`CODEC_SAMPLE`] logs of the
/// trace, in file-name order.
fn darshan_codec(t: &mut Tracer, dir: &Path, m: &mut BTreeMap<String, f64>) -> Result<()> {
    let logs_dir = dir.join("logs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&logs_dir)
        .map_err(|e| Error::io(format!("reading {}", logs_dir.display()), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "drn"))
        .collect();
    paths.sort();
    paths.truncate(CODEC_SAMPLE);
    let blobs = paths.iter().map(std::fs::read).collect::<std::io::Result<Vec<Vec<u8>>>>()?;
    let bytes = |set: &[&Vec<u8>]| set.iter().map(|b| b.len()).sum::<usize>() as f64 / MIB;
    let all: Vec<&Vec<u8>> = blobs.iter().collect();

    let (parsed, passes) = repeat_pass(t, "darshan.parse_log", || {
        all.iter().map(|b| parse_log(b).ok()).collect::<Vec<Option<JobLog>>>()
    });
    m.insert(
        "darshan.parse_log.mib_per_s".into(),
        bytes(&all) * passes as f64 / t.seconds("darshan.parse_log"),
    );

    let rejected: Vec<&Vec<u8>> =
        all.iter().zip(&parsed).filter(|(_, p)| p.is_none()).map(|(b, _)| *b).collect();
    let (salvaged, passes) = repeat_pass(t, "darshan.parse_log_lenient", || {
        rejected
            .iter()
            .filter_map(|b| parse_log_lenient(b).ok())
            .map(|(s, _)| s.log)
            .collect::<Vec<_>>()
    });
    m.insert(
        "darshan.parse_log_lenient.mib_per_s".into(),
        bytes(&rejected) * passes as f64 / t.seconds("darshan.parse_log_lenient"),
    );

    let logs: Vec<JobLog> = parsed.into_iter().flatten().chain(salvaged).collect();
    let (_, passes) = repeat_pass(t, "darshan.extract_features", || {
        logs.iter()
            .map(|l| (extract_posix_features(l), extract_mpiio_features(l)))
            .collect::<Vec<_>>()
    });
    m.insert(
        "darshan.extract_features.logs_per_s".into(),
        (logs.len() * passes) as f64 / t.seconds("darshan.extract_features"),
    );

    let (encoded, passes) =
        repeat_pass(t, "darshan.write_log", || logs.iter().map(write_log).collect::<Vec<_>>());
    let out_mib = encoded.iter().map(Vec::len).sum::<usize>() as f64 / MIB;
    m.insert(
        "darshan.write_log.mib_per_s".into(),
        out_mib * passes as f64 / t.seconds("darshan.write_log"),
    );
    Ok(())
}

/// The five taxonomy stages as `iotax-analyze` runs them, inside an obs
/// session with a run ledger and a store, as `--ledger RUN --store STORE`
/// arms it. Returns the program's own per-stage span totals.
fn taxonomy(
    t: &mut Tracer,
    jobs: &[TraceJob],
    work: &Path,
    m: &mut BTreeMap<String, f64>,
) -> Result<(SimDataset, BTreeMap<String, u64>)> {
    let obs = ObsArgs {
        ledger: Some(work.join("run")),
        store: Some(work.join("store")),
        ..ObsArgs::default()
    };
    let mut session = t.span("obs.install", || obs.install("perfbench-trace"))?;
    let ds = t.span("cli.trace_to_dataset", || trace_to_dataset(jobs));
    let stage = t.span("core.baseline", || TaxonomyRun::new(&ds).baseline())?;
    let stage = t.span("core.app_litmus", || stage.app_litmus())?;
    let trees_before = counter("ml.gbm.trees_fit");
    let stage = t.span("core.system_litmus", || stage.system_litmus())?;
    m.insert(
        "core.system_litmus.trees_fit".into(),
        (counter("ml.gbm.trees_fit") - trees_before) as f64,
    );
    let stage = t.span("core.ood", || stage.ood())?;
    let stage = t.span("core.noise_floor", || stage.noise_floor())?;
    let report = t.span("core.finish", || stage.finish());
    if let Some(ledger) = session.ledger_mut() {
        ledger.add_section("stages", &report.stages);
        ledger.add_section("stage_metrics", &report.stage_metrics);
    }
    let appends_before = counter("obs.store.appends");
    let status = t.span("obs.session_finish", || session.finish(0));
    if status != 0 {
        return Err(Error::usage(format!("obs session finished with status {status}")));
    }
    m.insert("obs.store.appends".into(), (counter("obs.store.appends") - appends_before) as f64);
    // The ledger sink is done; later spans go nowhere, as in a run
    // without --ledger.
    iotax_obs::restore_sink(Arc::new(NoopSink));
    let program =
        report.timings.iter().map(|node| (node.name.clone(), node.total_us(&node.name))).collect();
    Ok((ds, program))
}

/// The `iotax_ml` / `iotax_uq` fits the stages make, called directly on
/// the POSIX feature matrix with the quick-effort parameters.
fn model_fits(t: &mut Tracer, ds: &SimDataset, m: &mut BTreeMap<String, f64>) -> Result<()> {
    let cfg = Taxonomy::quick();
    let fm = ds.feature_matrix(FeatureSet::posix());
    let (data, _) = Dataset::sanitized(fm.data, fm.n_rows, fm.n_cols, fm.y, fm.names);
    let (train, val, _test) = data.split_random(0.70, 0.15, cfg.seed ^ 0xA11);

    let params = cfg.effort.baseline_params();
    let prepared = t.span("ml.prepared_fit", || PreparedDataset::fit(&train, params.max_bins));
    let trees_before = counter("ml.gbm.trees_fit");
    black_box(
        t.span("ml.trainer_fit", || Trainer::new(&prepared).with_validation(&val).fit(params)),
    );
    let trees = counter("ml.gbm.trees_fit") - trees_before;
    m.insert("ml.trainer_fit.trees_per_s".into(), trees as f64 / t.seconds("ml.trainer_fit"));
    black_box(t.span("ml.grid_search", || {
        grid_search(
            &prepared,
            &val,
            &cfg.grid_trees,
            &cfg.grid_depths,
            &[1.0],
            &[1.0],
            GbmParams { seed: cfg.seed, ..GbmParams::default() },
        )
    })?);

    let ood = &cfg.ood;
    let ensemble = t.span("uq.ensemble_fit", || {
        DeepEnsemble::fit_default(&train, ood.ensemble_size, ood.member_params.clone(), ood.seed)
    });
    let mut member = ood.member_params.clone();
    member.heteroscedastic = true;
    member.seed = ood.seed;
    let ctx = MlpContext::prepare(&train);
    black_box(t.span("uq.member_fit", || Mlp::fit_prepared(&ctx, member.clone())));
    black_box(t.span("uq.predict_uq_batch", || ensemble.predict_uq_batch(&data)));

    // Computed, not counted: a dense layer costs 2·in·out flops forward
    // and 4·in·out backward per row, for every row of every epoch.
    let mut widths = vec![train.n_cols];
    widths.extend(&member.hidden);
    widths.push(2);
    let macs: usize = widths.windows(2).map(|w| w[0] * w[1]).sum();
    let gflop = 6.0 * macs as f64 * train.n_rows as f64 * member.epochs as f64 / 1e9;
    m.insert("uq.mlp.gflop_per_s".into(), gflop / t.seconds("uq.member_fit"));
    Ok(())
}

fn run(args: &Args) -> Result<String> {
    let mut t = Tracer::new();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let model_dir = args.work.join("model");
    write_side(&mut t, args, &model_dir, &mut m)?;
    read_side(&mut t, &args.trace, &args.work.join("ingest.jsonl"), &mut m)?;
    darshan_codec(&mut t, &args.trace, &mut m)?;
    // Untraced: the model side's own ingest of the headline-size trace.
    let (model_jobs, _) = ingest_trace(&model_dir, &IngestOptions::default())?;
    let (ds, program) = taxonomy(&mut t, &model_jobs, &args.work, &mut m)?;
    model_fits(&mut t, &ds, &mut m)?;

    for name in [
        "sim.generate",
        "cli.export_trace",
        "cli.inject_faults",
        "cli.ingest_trace",
        "cli.trace_duplicate_sets",
        "cli.trace_to_dataset",
        "core.app_modeling_bound",
        "core.concurrent_noise_floor",
        "core.baseline",
        "core.app_litmus",
        "core.system_litmus",
        "core.ood",
        "core.noise_floor",
        "ml.prepared_fit",
        "ml.grid_search",
        "uq.ensemble_fit",
        "uq.member_fit",
        "uq.predict_uq_batch",
        "obs.session_finish",
    ] {
        m.insert(format!("{name}.s"), t.seconds(name));
    }

    let stats = t.total(&[
        "cli.ingest_trace",
        "cli.trace_duplicate_sets",
        "core.app_modeling_bound",
        "core.concurrent_noise_floor",
    ]);

    let spans_path = args.work.join("spans.json");
    std::fs::write(&spans_path, t.to_json())
        .map_err(|e| Error::io(format!("writing {}", spans_path.display()), e))?;

    let values: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{}", num(*v))).collect();
    let program: Vec<String> = program.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    Ok(format!(
        "{{\"values\":{{{}}},\"stats_chain_s\":{},\"program_stage_us\":{{{}}}}}",
        values.join(","),
        num(stats),
        program.join(",")
    ))
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::exit(i32::from(e.exit_code()));
        }
    }
}
