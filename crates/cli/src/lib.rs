//! # iotax-cli
//!
//! On-disk trace format and the two command-line tools built on it:
//!
//! * `iotax-gen` — generate a simulated trace and write it out as a
//!   directory of **binary Darshan logs** (one `.drn` file per job, through
//!   the real `iotax-darshan` encoder) plus a `manifest.csv` with the
//!   scheduler-visible fields and the measured throughput.
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
//! ```

mod fanout;
pub mod ingest;
pub mod obsargs;

pub use ingest::{
    ingest_trace, ingest_trace_with_reader, inject_faults, simulated_transient_reader,
    IngestOptions, IngestReport, QuarantinedFile, SalvageNote,
};
pub use obsargs::{ObsArgs, ObsSession, OBS_USAGE};

use iotax_darshan::format::write_log;
use iotax_darshan::record::{FileRecord, JobLog, ModuleData, ModuleId};
use iotax_darshan::{MPIIO_COUNTERS, POSIX_COUNTERS};
use iotax_obs::{Error, Result};
use iotax_sim::{GroundTruth, SimConfig, SimDataset, SimJob, Weather};
use std::io::Write;
use std::path::Path;

/// POSIX job-level features per job; the MPI-IO ones follow them.
const POSIX_FEATURES: usize = POSIX_COUNTERS.len();

/// Job-level features per job: 48 POSIX, then 48 MPI-IO.
const FEATURES: usize = POSIX_FEATURES + MPIIO_COUNTERS.len();

/// One job as read back from a trace directory: its manifest fields and
/// the row its Darshan log reduces to. The per-file records are not kept.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of ingest_trace's public return
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

/// Write a dataset out as a trace directory. Returns the number of jobs
/// written.
pub fn export_trace(ds: &SimDataset, dir: &Path) -> Result<usize> {
    let _span = iotax_obs::span!("cli.export_trace");
    let logs_dir = dir.join("logs");
    std::fs::create_dir_all(&logs_dir)
        .map_err(|e| Error::io(format!("creating {}", logs_dir.display()), e))?;
    let mut manifest = std::io::BufWriter::new(std::fs::File::create(dir.join("manifest.csv"))?);
    writeln!(manifest, "job_id,arrival,start,end,nodes,cores,nprocs,throughput")?;
    for job in &ds.jobs {
        writeln!(
            manifest,
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
        let log = job_to_log(job);
        std::fs::write(logs_dir.join(format!("{}.drn", job.job_id)), write_log(&log))?;
    }
    manifest.flush()?;
    Ok(ds.jobs.len())
}

/// Read a trace directory back, parsing every log **strictly**: the first
/// unreadable or unparseable file aborts the import. This is the legacy
/// fail-fast contract; [`ingest_trace`] is the resilient path (salvage,
/// retry, quarantine) and [`IngestOptions::strict`] reproduces this
/// behavior with a report attached.
// audit:allow(dead-public-api) -- legacy strict import path kept as the lenient ingester's behavioral baseline in unit tests (test refs are excluded by policy)
pub fn import_trace(dir: &Path) -> Result<Vec<TraceJob>> {
    let _span = iotax_obs::span!("cli.import_trace");
    ingest_trace(dir, &IngestOptions::strict()).map(|(jobs, _report)| jobs)
}

/// Rebuild an in-memory [`SimDataset`] from an imported trace so the full
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
mod tests {
    use super::*;
    use iotax_core::{app_modeling_bound, concurrent_noise_floor, find_duplicate_sets};
    use iotax_obs::ErrorKind;
    use iotax_sim::{Platform, SimConfig};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("iotax-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn export_import_round_trip() {
        let ds = Platform::new(SimConfig::theta().with_jobs(300).with_seed(81)).generate();
        let dir = temp_dir("roundtrip");
        let n = export_trace(&ds, &dir).expect("export");
        assert_eq!(n, 300);
        let jobs = import_trace(&dir).expect("import");
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
        let jobs = import_trace(&dir).expect("import");

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
        let jobs = import_trace(&dir).expect("import");
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
        let err = import_trace(&dir).unwrap_err();
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
        let err = import_trace(&dir).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse);
        assert!(err.context().contains(&victim.to_string()), "{err}");
        // The typed parser error survives as the source of the chain.
        let source = std::error::Error::source(&err).expect("cause preserved");
        assert!(source.is::<iotax_darshan::format::ParseError>(), "{source}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
