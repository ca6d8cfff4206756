//! Deterministic Darshan log synthesis from a job configuration.
//!
//! Two jobs with the same `JobConfig` must produce byte-identical counter
//! sets — that is what makes them *duplicates* in the §VI sense ("all their
//! observable application features are identical"). Everything here is a
//! pure function of the config; no RNG.
//!
//! **Substitution note (see DESIGN.md):** real Darshan records *measured*
//! read/write times, from which its throughput estimate is derived. Feeding
//! measured times to the models would leak the prediction target (the
//! paper's earlier work \[2\] removes such features for exactly this reason).
//! We therefore record *nominal* times — the durations implied by the
//! archetype's ideal throughput — which keeps the time counters informative
//! about application behaviour without leaking the label.

use crate::archetype::{ideal_throughput, JobConfig};
use iotax_darshan::counters::{size_bin, MpiioCounter as M, PosixCounter as P};
use iotax_darshan::record::{FileRecord, JobLog, ModuleData, ModuleId};

/// Cap on per-module file records; N-N jobs with thousands of ranks are
/// folded into this many representative records (Darshan's shared-file
/// reduction plays the same role at scale).
const MAX_FILE_RECORDS: usize = 8;

/// Deterministic 64-bit hash for synthetic file record ids.
fn file_hash(config_fingerprint: u64, file_index: u64) -> u64 {
    let mut z = config_fingerprint ^ (file_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Generate the POSIX module records for a config.
fn posix_module(cfg: &JobConfig, peak_bandwidth: f64, fingerprint: u64) -> ModuleData {
    let mut module = ModuleData::new(ModuleId::Posix);
    let n_records = (cfg.n_files as usize).clamp(1, MAX_FILE_RECORDS);
    let files_per_record = cfg.n_files as f64 / n_records as f64;

    let bytes_read_total = cfg.volume_bytes * cfg.read_fraction;
    let bytes_written_total = cfg.volume_bytes * (1.0 - cfg.read_fraction);
    let reads_total = (bytes_read_total / cfg.transfer_size).ceil();
    let writes_total = (bytes_written_total / cfg.transfer_size).ceil();
    let nominal_bw = ideal_throughput(cfg, peak_bandwidth);
    let meta_total = cfg.total_meta_ops();

    for k in 0..n_records {
        let mut rec = FileRecord::zeroed(
            ModuleId::Posix,
            file_hash(fingerprint, k as u64),
            if cfg.shared {
                cfg.nprocs
            } else {
                iotax_stats::cast::f64_to_u32(files_per_record.ceil())
            },
        );
        let share = 1.0 / n_records as f64;
        let c = &mut rec.counters;
        let reads = reads_total * share;
        let writes = writes_total * share;
        let bytes_read = bytes_read_total * share;
        let bytes_written = bytes_written_total * share;

        c[P::PosixOpens.index()] = (files_per_record * 1.0).max(1.0);
        c[P::PosixReads.index()] = reads;
        c[P::PosixWrites.index()] = writes;
        c[P::PosixSeeks.index()] = (reads + writes) * (1.0 - cfg.seq_fraction);
        c[P::PosixStats.index()] = meta_total * share * 0.5;
        c[P::PosixMmaps.index()] = 0.0;
        c[P::PosixFsyncs.index()] = writes * 0.02;
        c[P::PosixFdsyncs.index()] = writes * 0.005;
        c[P::PosixBytesRead.index()] = bytes_read;
        c[P::PosixBytesWritten.index()] = bytes_written;
        c[P::PosixMaxByteRead.index()] =
            if bytes_read > 0.0 { bytes_read / files_per_record } else { 0.0 };
        c[P::PosixMaxByteWritten.index()] =
            if bytes_written > 0.0 { bytes_written / files_per_record } else { 0.0 };
        c[P::PosixConsecReads.index()] = reads * cfg.seq_fraction * 0.7;
        c[P::PosixConsecWrites.index()] = writes * cfg.seq_fraction * 0.7;
        c[P::PosixSeqReads.index()] = reads * cfg.seq_fraction;
        c[P::PosixSeqWrites.index()] = writes * cfg.seq_fraction;
        c[P::PosixRwSwitches.index()] = reads.min(writes) * 0.2;
        c[P::PosixStrideOps.index()] = (reads + writes) * (1.0 - cfg.seq_fraction) * 0.4;
        c[P::PosixMemNotAligned.index()] = (reads + writes) * 0.15;
        c[P::PosixFileNotAligned.index()] = (reads + writes) * (1.0 - cfg.seq_fraction) * 0.5;

        // Access-size histograms: the dominant transfer size, split 80/20
        // with the next-smaller bin (real apps are not perfectly uniform).
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a transfer size in bytes; `as` saturates, and size_bin only buckets it"
        )]
        let bin = size_bin(cfg.transfer_size as u64);
        let read_base = P::PosixSizeRead0_100.index();
        let write_base = P::PosixSizeWrite0_100.index();
        c[read_base + bin] += reads * 0.8;
        c[read_base + bin.saturating_sub(1)] += reads * 0.2;
        c[write_base + bin] += writes * 0.8;
        c[write_base + bin.saturating_sub(1)] += writes * 0.2;

        let ro = cfg.read_fraction > 0.95;
        let wo = cfg.read_fraction < 0.05;
        c[P::PosixSharedFiles.index()] = if cfg.shared { 1.0 } else { 0.0 };
        c[P::PosixUniqueFiles.index()] = if cfg.shared { 0.0 } else { files_per_record };
        c[P::PosixReadOnlyFiles.index()] = if ro { files_per_record } else { 0.0 };
        c[P::PosixWriteOnlyFiles.index()] = if wo { files_per_record } else { 0.0 };
        c[P::PosixReadWriteFiles.index()] = if !ro && !wo { files_per_record } else { 0.0 };

        // Nominal times (see the substitution note in the module docs).
        c[P::PosixFReadTime.index()] = bytes_read / nominal_bw;
        c[P::PosixFWriteTime.index()] = bytes_written / nominal_bw;
        c[P::PosixFMetaTime.index()] = meta_total * share * 1e-3;

        module.records.push(rec);
    }
    module
}

/// Generate the MPI-IO module records, mirroring the POSIX traffic at the
/// higher level (all MPI-IO requests are also visible at POSIX level, §V).
fn mpiio_module(cfg: &JobConfig, peak_bandwidth: f64, fingerprint: u64) -> ModuleData {
    let mut module = ModuleData::new(ModuleId::Mpiio);
    let n_records = (cfg.n_files as usize).clamp(1, MAX_FILE_RECORDS);
    let collective = cfg.shared; // N-1 apps use collective I/O
    let bytes_read_total = cfg.volume_bytes * cfg.read_fraction;
    let bytes_written_total = cfg.volume_bytes * (1.0 - cfg.read_fraction);
    // Collective aggregation turns nprocs small requests into one large one.
    let agg_factor = if collective { cfg.nprocs as f64 } else { 1.0 };
    let agg_size = cfg.transfer_size * agg_factor;
    let reads_total = (bytes_read_total / agg_size).ceil();
    let writes_total = (bytes_written_total / agg_size).ceil();
    let nominal_bw = ideal_throughput(cfg, peak_bandwidth);

    for k in 0..n_records {
        let mut rec = FileRecord::zeroed(
            ModuleId::Mpiio,
            file_hash(fingerprint ^ 0x4D50_4949, k as u64), // "MPII"
            cfg.nprocs,
        );
        let share = 1.0 / n_records as f64;
        let c = &mut rec.counters;
        let reads = reads_total * share;
        let writes = writes_total * share;
        if collective {
            c[M::MpiioCollOpens.index()] = 1.0;
            c[M::MpiioCollReads.index()] = reads;
            c[M::MpiioCollWrites.index()] = writes;
            c[M::MpiioCollRatio.index()] = 1.0;
        } else {
            c[M::MpiioIndepOpens.index()] = 1.0;
            c[M::MpiioIndepReads.index()] = reads;
            c[M::MpiioIndepWrites.index()] = writes;
        }
        c[M::MpiioSyncs.index()] = writes * 0.01;
        c[M::MpiioRwSwitches.index()] = reads.min(writes) * 0.2;
        c[M::MpiioBytesRead.index()] = bytes_read_total * share;
        c[M::MpiioBytesWritten.index()] = bytes_written_total * share;
        c[M::MpiioMaxReadTimeSize.index()] = agg_size.min(bytes_read_total);
        c[M::MpiioMaxWriteTimeSize.index()] = agg_size.min(bytes_written_total);

        #[expect(
            clippy::cast_possible_truncation,
            reason = "a transfer size in bytes; `as` saturates, and size_bin only buckets it"
        )]
        let bin = size_bin(agg_size as u64);
        c[M::MpiioSizeReadAgg0_100.index() + bin] += reads;
        c[M::MpiioSizeWriteAgg0_100.index() + bin] += writes;

        c[M::MpiioViews.index()] = if collective { cfg.nprocs as f64 } else { 0.0 };
        c[M::MpiioHints.index()] = 2.0;
        c[M::MpiioAccess1Count.index()] = (reads + writes) * 0.9;
        c[M::MpiioAccess2Count.index()] = (reads + writes) * 0.1;
        c[M::MpiioSharedFiles.index()] = if cfg.shared { 1.0 } else { 0.0 };
        c[M::MpiioUniqueFiles.index()] = if cfg.shared { 0.0 } else { 1.0 };
        c[M::MpiioFReadTime.index()] = bytes_read_total * share / nominal_bw;
        c[M::MpiioFWriteTime.index()] = bytes_written_total * share / nominal_bw;
        c[M::MpiioFMetaTime.index()] = cfg.total_meta_ops() * share * 5e-4;
        module.records.push(rec);
    }
    module
}

/// Build the complete Darshan log for one job instance.
///
/// `fingerprint` identifies the *config* (not the job), so duplicate jobs
/// get identical record ids and counters; start/end/job-id are the only
/// per-instance fields.
#[allow(clippy::too_many_arguments, reason = "mirrors the log header fields")]
pub(crate) fn generate_job_log(
    job_id: u64,
    uid: u32,
    exe: &str,
    start_time: i64,
    end_time: i64,
    cfg: &JobConfig,
    peak_bandwidth: f64,
    fingerprint: u64,
) -> JobLog {
    let mut log = JobLog::new(job_id, uid, cfg.nprocs, start_time, end_time, exe);
    log.posix = posix_module(cfg, peak_bandwidth, fingerprint);
    if cfg.uses_mpiio {
        log.mpiio = Some(mpiio_module(cfg, peak_bandwidth, fingerprint));
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{generate_population, generate_workload};
    use crate::config::SimConfig;
    use iotax_darshan::features::{extract_mpiio_features, extract_posix_features};
    use iotax_darshan::format::{parse_log, write_log};
    use iotax_stats::rng::substream;
    use iotax_stats::rng_from_seed;

    fn features(log: &JobLog) -> ([f64; 48], [f64; 48]) {
        (extract_posix_features(log), extract_mpiio_features(log))
    }

    fn cfg(seed: u64) -> JobConfig {
        let mut rng = rng_from_seed(seed);
        JobConfig::sample(0, &mut rng, 1.0)
    }

    #[test]
    fn duplicates_have_identical_features() {
        let c = cfg(1);
        let a = generate_job_log(1, 10, "app", 100, 200, &c, 200e9, 777);
        let b = generate_job_log(2, 10, "app", 5_000, 6_000, &c, 200e9, 777);
        assert_eq!(features(&a), features(&b), "duplicate jobs must be observationally identical");
    }

    #[test]
    fn different_configs_have_different_features() {
        let a = generate_job_log(1, 10, "app", 0, 1, &cfg(1), 200e9, 1);
        let b = generate_job_log(2, 10, "app", 0, 1, &cfg(2), 200e9, 2);
        assert_ne!(features(&a), features(&b));
    }

    #[test]
    fn byte_totals_match_config() {
        let c = cfg(3);
        let log = generate_job_log(1, 10, "app", 0, 1, &c, 200e9, 3);
        let read: f64 = log.posix.total(P::PosixBytesRead.index());
        let written: f64 = log.posix.total(P::PosixBytesWritten.index());
        assert!((read - c.volume_bytes * c.read_fraction).abs() < 1.0);
        assert!((written - c.volume_bytes * (1.0 - c.read_fraction)).abs() < 1.0);
    }

    #[test]
    fn histogram_counts_match_operation_counts() {
        let c = cfg(4);
        let log = generate_job_log(1, 10, "app", 0, 1, &c, 200e9, 4);
        let reads: f64 = log.posix.total(P::PosixReads.index());
        let hist: f64 = (0..10).map(|b| log.posix.total(P::PosixSizeRead0_100.index() + b)).sum();
        assert!((reads - hist).abs() < 1e-6 * reads.max(1.0), "reads {reads} hist {hist}");
    }

    #[test]
    fn logs_survive_the_binary_format() {
        // The simulator reads each job's features straight off its log, so
        // every config a workload draws must give a log the binary format
        // carries exactly: finite counters, and a parse that equals it.
        let (mut mpiio, mut posix_only, mut capped) = (0, 0, 0);
        for sim in [SimConfig::theta().with_seed(5), SimConfig::cori().with_seed(7)] {
            let sim = sim.with_jobs(3_000);
            let population = generate_population(&mut substream(sim.seed, 1), &sim);
            let workload = generate_workload(&mut substream(sim.seed, 2), &sim, &population);
            for (id, (c, &app)) in workload.configs.iter().zip(&workload.config_app).enumerate() {
                let app = &population.apps[app];
                let log = generate_job_log(
                    id as u64,
                    app.uid,
                    &app.exe,
                    0,
                    3600,
                    c,
                    sim.peak_bandwidth,
                    id as u64,
                );
                let modules = std::iter::once(&log.posix).chain(&log.mpiio);
                let mut counters = modules.flat_map(|m| &m.records).flat_map(|r| &r.counters);
                assert!(counters.all(|v| v.is_finite()), "config {id}: non-finite counter");
                assert_eq!(parse_log(&write_log(&log)).as_ref(), Ok(&log), "config {id}");
                if c.uses_mpiio {
                    mpiio += 1;
                } else {
                    posix_only += 1;
                }
                if !c.shared && c.n_files as usize > MAX_FILE_RECORDS {
                    assert_eq!(log.posix.records.len(), MAX_FILE_RECORDS, "config {id}");
                    capped += 1;
                }
            }
        }
        assert!(mpiio > 0 && posix_only > 0 && capped > 0, "{mpiio} {posix_only} {capped}");
    }

    #[test]
    fn mpiio_only_present_when_used() {
        let mut c = cfg(6);
        c.uses_mpiio = false;
        assert!(generate_job_log(1, 1, "a", 0, 1, &c, 200e9, 6).mpiio.is_none());
        c.uses_mpiio = true;
        assert!(generate_job_log(1, 1, "a", 0, 1, &c, 200e9, 6).mpiio.is_some());
    }

    #[test]
    fn record_count_is_capped() {
        let mut c = cfg(7);
        c.n_files = 4096;
        c.shared = false;
        let log = generate_job_log(1, 1, "a", 0, 1, &c, 200e9, 7);
        assert!(log.posix.records.len() <= MAX_FILE_RECORDS);
    }

    #[test]
    fn nominal_times_do_not_depend_on_realized_throughput() {
        // The time counters must be a function of the config alone.
        let c = cfg(8);
        let a = generate_job_log(1, 1, "a", 0, 10, &c, 200e9, 8);
        let b = generate_job_log(2, 1, "a", 0, 99_999, &c, 200e9, 8);
        assert_eq!(
            a.posix.total(P::PosixFWriteTime.index()),
            b.posix.total(P::PosixFWriteTime.index())
        );
    }
}
