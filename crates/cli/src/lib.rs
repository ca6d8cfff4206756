//! # iotax-cli
//!
//! On-disk trace format and the two command-line tools built on it:
//!
//! * `iotax-gen` — generate a simulated trace and write it out as a
//!   directory of **binary Darshan logs** (one `.drn` file per job, through
//!   the real `iotax-darshan` encoder) plus a `manifest.csv` with the
//!   scheduler-visible fields and the measured throughput. With a fault
//!   plan, each log is damaged in memory before its one write, and the
//!   ground truth goes to `faults.json`. The logs are encoded, damaged and
//!   written on every available core, with the same bytes at any thread
//!   count (see [`export_trace_with_faults`]).
//! * `iotax-analyze` — read such a directory back (through the real
//!   parser), detect duplicate jobs from the *parsed* features, and run the
//!   application-bound and noise-floor litmus tests — the workflow a
//!   site operator would run on their own logs.
//!
//! The directory layout:
//!
//! ```text
//! <trace>/
//!   manifest.csv      job_id,arrival,start,end,nodes,cores,nprocs,throughput
//!   logs/<job_id>.drn binary Darshan log per job
//!   faults.json       ground truth of the damaged logs (dirty traces only)
//! ```

pub mod ingest;

pub use ingest::{
    ingest_trace, ingest_trace_with_reader, inject_faults, simulated_transient_reader,
    IngestOptions, IngestReport, QuarantinedFile, SalvageNote,
};
// `perfbench-trace`, outside the workspace, imports `iotax_cli::ObsArgs`.
pub use iotax_obs::{ObsArgs, ObsSession, OBS_USAGE};

use iotax_darshan::format::write_log;
use iotax_darshan::record::{FileRecord, JobLog, ModuleData, ModuleId};
use iotax_darshan::{MPIIO_COUNTERS, POSIX_COUNTERS};
use iotax_obs::{Error, Result};
use iotax_sim::fault::FaultRecord;
use iotax_sim::{FaultManifest, FaultPlan, GroundTruth, SimConfig, SimDataset, SimJob, Weather};
use std::io::{self, Write};
use std::path::Path;

/// POSIX job-level features per job; the MPI-IO ones follow them.
const POSIX_FEATURES: usize = POSIX_COUNTERS.len();

/// Job-level features per job: 48 POSIX, then 48 MPI-IO.
const FEATURES: usize = POSIX_FEATURES + MPIIO_COUNTERS.len();

/// One job as read back from a trace directory: its manifest fields and
/// the row its Darshan log reduces to. The per-file records are not kept.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of the public ingest_trace's return, which iotax-analyze calls
pub struct TraceJob {
    /// Job id from the manifest.
    pub job_id: u64,
    /// Queue arrival time, seconds.
    pub arrival_time: i64,
    /// Start time, seconds.
    pub start_time: i64,
    /// End time, seconds.
    pub end_time: i64,
    /// Nodes allocated.
    pub nodes: u32,
    /// Cores allocated.
    pub cores: u32,
    /// Process count (also in the Darshan log; manifest copy for sanity).
    pub nprocs: u32,
    /// Measured I/O throughput, bytes/s.
    pub throughput: f64,
    /// Executable name from the log header.
    pub exe: String,
    /// Whether the log has an MPI-IO section.
    pub uses_mpiio: bool,
    /// The 48 POSIX then the 48 MPI-IO job-level features, exactly as
    /// `extract_posix_features` and `extract_mpiio_features` return them.
    pub features: Box<[f64; FEATURES]>,
    /// Observable-feature duplicate signature (same convention — and the
    /// same stable FNV-1a hash — as `iotax_core::job_signature`, over the
    /// log's process count).
    pub signature: u64,
}

impl TraceJob {
    /// log10 of the measured throughput.
    pub fn log10_throughput(&self) -> f64 {
        self.throughput.log10()
    }
}

/// Reconstruct a job-level Darshan log from a [`SimJob`]'s aggregate
/// features: one record per module carrying the job-level counters.
/// Feature extraction of the result reproduces the job's features exactly
/// (aggregation of a single record is the identity for both sums and
/// maxima), which the round-trip test asserts.
pub(crate) fn job_to_log(job: &SimJob) -> JobLog {
    let mut log = JobLog::new(job.job_id, 1000, job.nprocs, job.start_time, job.end_time, &job.exe);
    let mut rec = FileRecord::zeroed(ModuleId::Posix, job.job_id, job.nprocs);
    rec.counters.copy_from_slice(&job.posix);
    log.posix.records.push(rec);
    if job.uses_mpiio {
        let mut m = ModuleData::new(ModuleId::Mpiio);
        let mut rec = FileRecord::zeroed(ModuleId::Mpiio, job.job_id, job.nprocs);
        rec.counters.copy_from_slice(&job.mpiio);
        m.records.push(rec);
        log.mpiio = Some(m);
    }
    log
}

/// Write a dataset out as a clean trace directory, removing a
/// `faults.json` an earlier run left there. Returns the number of jobs
/// written.
pub fn export_trace(ds: &SimDataset, dir: &Path) -> Result<usize> {
    let _span = iotax_obs::span!("cli.export_trace");
    write_trace_on(ds, dir, None, iotax_stats::fanout::current_num_threads())?;
    // The ground truth of an earlier, dirty trace must not outlive it.
    let faults = dir.join("faults.json");
    match std::fs::remove_file(&faults) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(Error::io(format!("removing {}", faults.display()), e)),
    }
    Ok(ds.jobs.len())
}

/// Write a dataset out as a trace directory with `plan`'s damage applied
/// to each log before its one write, and the ground-truth `faults.json`
/// next to `manifest.csv`. The bytes are the ones [`export_trace`]
/// followed by [`inject_faults`] leave in an empty directory. Returns the
/// fault manifest.
pub fn export_trace_with_faults(
    ds: &SimDataset,
    dir: &Path,
    plan: &FaultPlan,
) -> Result<FaultManifest> {
    let _span = iotax_obs::span!("cli.export_trace");
    let faults = write_trace_on(ds, dir, Some(plan), iotax_stats::fanout::current_num_threads())?;
    let jobs_seen = ds.jobs.len() as u64;
    let manifest = FaultManifest { seed: plan.seed, rate: plan.rate, jobs_seen, faults };
    ingest::write_fault_manifest(dir, &manifest)?;
    Ok(manifest)
}

/// Write `manifest.csv` and every job's log on `threads` threads, in
/// three phases, so the bytes written are the same at any thread count:
///
/// 1. one sequential pass writes `manifest.csv`;
/// 2. the jobs are cut into the executor's fixed chunks, and each worker
///    encodes the logs of each chunk it claims, applies `plan`'s damage in
///    memory and writes each file once;
/// 3. one sequential merge walks the outcomes in manifest order and
///    returns the error at the lowest manifest position, or the fault
///    records in the order of their logs' file names (`10.drn` before
///    `2.drn`, the order `inject_faults`'s sorted listing gives).
fn write_trace_on(
    ds: &SimDataset,
    dir: &Path,
    plan: Option<&FaultPlan>,
    threads: usize,
) -> Result<Vec<FaultRecord>> {
    let logs = dir.join("logs");
    std::fs::create_dir_all(&logs)
        .map_err(|e| Error::io(format!("creating {}", logs.display()), e))?;
    write_manifest(&ds.jobs, &dir.join("manifest.csv"))?;
    let written = iotax_stats::fanout::map_in_order(&ds.jobs, threads, &|_: &mut (), _, job| {
        write_job_log(&logs, job, plan)
    });
    let mut faults = Vec::new();
    for fault in written {
        if let Some(fault) = fault? {
            iotax_obs::counter!("sim.faults_injected").incr(1);
            // out-of-core: faults.json lists every damaged log in file-name order; spill sorted runs and merge them if traces outgrow memory
            faults.push(fault);
        }
    }
    faults.sort_by_cached_key(|f| f.job_id.to_string());
    Ok(faults)
}

/// Write `manifest.csv`: the scheduler-visible fields and the throughput
/// of every job, in dataset order.
fn write_manifest(jobs: &[SimJob], path: &Path) -> Result<()> {
    let write = || -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "job_id,arrival,start,end,nodes,cores,nprocs,throughput")?;
        for job in jobs {
            writeln!(
                w,
                "{},{},{},{},{},{},{},{:.6e}",
                job.job_id,
                job.arrival_time,
                job.start_time,
                job.end_time,
                job.nodes,
                job.cores,
                job.nprocs,
                job.throughput
            )?;
        }
        w.flush()
    };
    write().map_err(|e| Error::io(format!("writing {}", path.display()), e))
}

/// Encode one job's log, apply `plan`'s damage to the bytes and write the
/// file once. Returns the fault record of a damaged log. Pure apart from
/// the file and the darshan and fault counters, so any thread may run it.
fn write_job_log(
    logs: &Path,
    job: &SimJob,
    plan: Option<&FaultPlan>,
) -> Result<Option<FaultRecord>> {
    let clean = write_log(&job_to_log(job));
    let (bytes, fault) = match plan.and_then(|plan| plan.corrupt(job.job_id, &clean)) {
        Some((dirty, fault)) => (dirty, Some(fault)),
        None => (clean, None),
    };
    let path = ingest::log_path(logs, job.job_id);
    std::fs::write(&path, bytes).map_err(|e| {
        Error::io(format!("writing darshan log {} for job {}", path.display(), job.job_id), e)
    })?;
    Ok(fault)
}

/// Rebuild an in-memory [`SimDataset`] from an ingested trace so the full
/// five-stage taxonomy (`iotax_core::TaxonomyRun`) can run against on-disk
/// logs.
///
/// A real trace carries no simulator-internal state, so the hidden fields
/// get placeholders: ground-truth components are zeroed, the weather
/// timeline is a seeded stand-in, and `config_id` is the observable
/// duplicate signature. None of the five taxonomy stages reads any of
/// those — they only matter to simulator-validation tests — so the report
/// is exactly what the pipeline would produce on the observable features.
pub fn trace_to_dataset(jobs: &[TraceJob]) -> SimDataset {
    let horizon = jobs.iter().map(|j| j.end_time).max().unwrap_or(0) + 1;
    let mut config = SimConfig::theta().with_jobs(jobs.len()).with_seed(42);
    config.horizon_seconds = horizon;
    let sim_jobs = jobs
        .iter()
        .map(|j| {
            let (posix, mpiio) = j.features.split_at(POSIX_FEATURES);
            SimJob {
                job_id: j.job_id,
                // By construction exe is "<archetype>_<app id>".
                app_id: j.exe.rsplit_once('_').and_then(|(_, id)| id.parse().ok()).unwrap_or(0),
                config_id: j.signature,
                exe: j.exe.clone(),
                arrival_time: j.arrival_time,
                start_time: j.start_time,
                end_time: j.end_time,
                nodes: j.nodes,
                cores: j.cores,
                placement_first: 0,
                nprocs: j.nprocs,
                posix: posix.to_vec(),
                mpiio: mpiio.to_vec(),
                uses_mpiio: j.uses_mpiio,
                lmt: None,
                throughput: j.throughput,
                truth: GroundTruth {
                    log10_app: 0.0,
                    log10_weather: 0.0,
                    log10_contention: 0.0,
                    log10_noise: 0.0,
                    is_novel_era: false,
                    is_rare: false,
                },
            }
        })
        .collect();
    let weather = Weather::generate(
        &mut iotax_stats::rng::rng_from_seed(config.seed),
        horizon,
        config.incidents_per_year,
    );
    SimDataset { config, jobs: sim_jobs, weather, lmt: None }
}

/// Duplicate-set detection over trace jobs (the on-disk counterpart of
/// `iotax_core::find_duplicate_sets`): groups the signatures ingest
/// computed, through the same grouping.
pub fn trace_duplicate_sets(jobs: &[TraceJob]) -> iotax_core::DuplicateSets {
    iotax_core::group_signatures(jobs.iter().map(|j| j.signature))
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "best-effort cleanup of the tests' temp dirs; a leftover dir fails no test"
)]
mod tests {
    use super::*;
    use iotax_core::{app_modeling_bound, concurrent_noise_floor, find_duplicate_sets};
    use iotax_obs::ErrorKind;
    use iotax_sim::{Platform, SimConfig};
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("iotax-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// The bytes of every file under `dir`, by path relative to `dir`.
    fn files_of(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = BTreeMap::new();
        let mut dirs = vec![dir.to_path_buf()];
        while let Some(next) = dirs.pop() {
            for entry in std::fs::read_dir(&next).expect("list dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    let bytes = std::fs::read(&path).expect("read file");
                    files.insert(path.strip_prefix(dir).expect("under dir").to_path_buf(), bytes);
                }
            }
        }
        files
    }

    /// The pinned chaos trace's jobs: theta, 2 000 jobs, seed 301.
    fn chaos_dataset() -> SimDataset {
        Platform::new(SimConfig::theta().with_jobs(2_000).with_seed(301)).generate()
    }

    #[test]
    fn writer_is_byte_identical_at_1_2_and_3_threads() {
        // The pinned chaos trace, 20 % of its logs damaged with fault seed
        // 20220914. Each thread count hands the chunks out to a different
        // number of workers.
        let ds = chaos_dataset();
        let plan = FaultPlan::new(20_220_914, 0.20);
        let write = |threads: usize| {
            let dir = temp_dir(&format!("writer-{threads}"));
            let faults = write_trace_on(&ds, &dir, Some(&plan), threads).expect("write trace");
            let files = files_of(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            (faults, files)
        };
        let one = write(1);
        assert_eq!(one.1.len(), 1 + 2_000, "manifest.csv and one log per job");
        assert!(!one.0.is_empty());
        for threads in [2, 3] {
            let other = write(threads);
            assert_eq!(other.0, one.0, "{threads} threads: fault records differ");
            assert!(other.1 == one.1, "{threads} threads: files differ");
        }
    }

    #[test]
    fn fused_writer_equals_export_then_inject() {
        // Job ids of 1 to 4 digits, so faults.json's file-name order
        // (`10.drn` before `2.drn`) differs from numeric order at every rate.
        let ds = chaos_dataset();
        for rate in [0.02, 0.20, 1.0] {
            let plan = FaultPlan::new(20_220_914, rate);
            let fused = temp_dir(&format!("fused-{rate}"));
            let manifest = export_trace_with_faults(&ds, &fused, &plan).expect("fused writer");
            let reference = temp_dir(&format!("reference-{rate}"));
            export_trace(&ds, &reference).expect("export");
            let want = inject_faults(&reference, &plan).expect("inject");
            assert_eq!(manifest, want, "rate {rate}: fault manifest differs");
            assert!(files_of(&fused) == files_of(&reference), "rate {rate}: files differ");
            for dir in [fused, reference] {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn write_error_is_the_lowest_manifest_position_at_any_thread_count() {
        let ds = Platform::new(SimConfig::theta().with_jobs(120).with_seed(101)).generate();
        let (early, late) = (ds.jobs[11].job_id, ds.jobs[110].job_id);
        for threads in [1, 2, 3] {
            let dir = temp_dir(&format!("write-error-{threads}"));
            let logs = dir.join("logs");
            for id in [early, late] {
                std::fs::create_dir_all(ingest::log_path(&logs, id)).expect("dir in a log's place");
            }
            let err = write_trace_on(&ds, &dir, None, threads).unwrap_err();
            assert_eq!((err.kind(), err.exit_code()), (ErrorKind::Io, 74));
            let want = format!("{} for job {early}", ingest::log_path(&logs, early).display());
            assert!(err.to_string().contains(&want), "{threads} threads: {err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn export_import_round_trip() {
        let ds = Platform::new(SimConfig::theta().with_jobs(300).with_seed(81)).generate();
        let dir = temp_dir("roundtrip");
        let n = export_trace(&ds, &dir).expect("export");
        assert_eq!(n, 300);
        let (jobs, _) = ingest_trace(&dir, &IngestOptions::strict()).expect("import");
        assert_eq!(jobs.len(), 300);
        for (mem, disk) in ds.jobs.iter().zip(&jobs) {
            assert_eq!(mem.job_id, disk.job_id);
            assert_eq!(mem.start_time, disk.start_time);
            assert!((mem.throughput - disk.throughput).abs() < 1e-3 * mem.throughput);
            // Features survive the log round trip exactly.
            assert_eq!(disk.features[..POSIX_FEATURES], mem.posix[..]);
            assert_eq!(disk.features[POSIX_FEATURES..], mem.mpiio[..]);
            assert_eq!(disk.uses_mpiio, mem.uses_mpiio);
            assert_eq!(disk.exe, mem.exe);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn on_disk_litmus_matches_in_memory() {
        let ds = Platform::new(SimConfig::theta().with_jobs(1_500).with_seed(82)).generate();
        let dir = temp_dir("litmus");
        export_trace(&ds, &dir).expect("export");
        let (jobs, _) = ingest_trace(&dir, &IngestOptions::strict()).expect("import");

        // In-memory path.
        let dup_mem = find_duplicate_sets(&ds.jobs);
        let y_mem: Vec<f64> = ds.jobs.iter().map(|j| j.log10_throughput()).collect();
        let bound_mem = app_modeling_bound(&y_mem, &dup_mem);

        // On-disk path.
        let dup_disk = trace_duplicate_sets(&jobs);
        let y_disk: Vec<f64> = jobs.iter().map(|j| j.log10_throughput()).collect();
        let bound_disk = app_modeling_bound(&y_disk, &dup_disk);

        // Ingest orders jobs by (start, id), as the simulator does, so the
        // positions, and with them the whole set structure, agree.
        assert_eq!(dup_mem, dup_disk);
        // Throughput goes through a %.6e text round trip; tolerance ~1e-6.
        assert!(
            (bound_mem.median_abs_log10 - bound_disk.median_abs_log10).abs() < 1e-5,
            "bound {} vs {}",
            bound_mem.median_abs_log10,
            bound_disk.median_abs_log10
        );

        // Noise floor agrees too.
        let t_disk: Vec<i64> = jobs.iter().map(|j| j.start_time).collect();
        let floor = concurrent_noise_floor(&y_disk, &t_disk, &dup_disk, &[], 1, 10);
        assert!(floor.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_taxonomy_runs_on_reconstructed_trace() {
        let ds = Platform::new(SimConfig::theta().with_jobs(1_200).with_seed(84)).generate();
        let dir = temp_dir("taxonomy");
        export_trace(&ds, &dir).expect("export");
        let (jobs, _) = ingest_trace(&dir, &IngestOptions::strict()).expect("import");
        let rds = trace_to_dataset(&jobs);
        // The observable duplicate structure survives reconstruction.
        assert_eq!(find_duplicate_sets(&rds.jobs).n_sets(), find_duplicate_sets(&ds.jobs).n_sets());
        let report = iotax_core::TaxonomyRun::new(&rds)
            .baseline()
            .and_then(iotax_core::BaselineStage::app_litmus)
            .and_then(iotax_core::AppLitmusStage::system_litmus)
            .and_then(iotax_core::SystemLitmusStage::ood)
            .and_then(iotax_core::OodStage::noise_floor)
            .map(iotax_core::NoiseFloorStage::finish)
            .expect("taxonomy on reconstructed trace");
        assert_eq!(report.timings.len(), 5, "one span tree per stage");
        assert!(report.baseline_median_error_pct > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_reported() {
        let dir = temp_dir("missing");
        let err = ingest_trace(&dir, &IngestOptions::strict()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert!(err.context().contains("manifest.csv"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_log_is_reported_with_job_id() {
        let ds = Platform::new(SimConfig::theta().with_jobs(50).with_seed(83)).generate();
        let dir = temp_dir("corrupt");
        export_trace(&ds, &dir).expect("export");
        // Flip a byte in one log.
        let victim = ds.jobs[10].job_id;
        let path = dir.join("logs").join(format!("{victim}.drn"));
        let mut bytes = std::fs::read(&path).expect("read log");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).expect("write log");
        let err = ingest_trace(&dir, &IngestOptions::strict()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse);
        assert!(err.context().contains(&victim.to_string()), "{err}");
        // The typed parser error survives as the source of the chain.
        let source = std::error::Error::source(&err).expect("cause preserved");
        assert!(source.is::<iotax_darshan::format::ParseError>(), "{source}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
