//! The platform orchestrator: wires workload → scheduler → weather →
//! contention → noise → logs into a [`SimDataset`].
//!
//! Every job's throughput is assembled in log10 space exactly as the
//! paper's Eq. 3 decomposes it, and the components are **retained** as
//! [`GroundTruth`] so the litmus tests can be validated against what was
//! actually injected.
//!
//! A job's observable features are read straight off the records of the
//! Darshan log generated for it (step 6 of [`Platform::generate`]). The
//! binary format carries a log with finite counters exactly, which
//! `darshan_gen`'s tests check for every config of a theta and a cori
//! workload, so no job is encoded and parsed back here; its counters are
//! still checked to be finite, the one thing the parser would refuse.

use crate::apps::{generate_population, generate_workload};
use crate::archetype::{ideal_throughput, JobConfig};
use crate::config::SimConfig;
use crate::contention::{assign_stripe, contention_factor, LoadGrid};
use crate::darshan_gen::generate_job_log;
use crate::telemetry::build_telemetry;
use crate::weather::Weather;
use iotax_darshan::features::{extract_mpiio_features, extract_posix_features};
use iotax_darshan::format::ParseError;
use iotax_lmt::recorder::LmtRecorder;
use iotax_sched::{JobRequest, Scheduler, SchedulerConfig};
use iotax_stats::dist::{ContinuousDist, Normal};
use iotax_stats::fanout::{current_num_threads, map_in_order};
use iotax_stats::rng::{splitmix64, substream};
use serde::{Deserialize, Serialize};

/// The hidden log10-space components of one job's throughput — what the
/// paper calls f_a, f_g, f_l, f_n — plus novelty flags.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// log10 of the ideal application throughput f_a(j).
    pub log10_app: f64,
    /// Mean log10 global weather factor over the job's window.
    pub log10_weather: f64,
    /// log10 of the contention factor (≤ 0).
    pub log10_contention: f64,
    /// The inherent-noise draw ω (log10 space).
    pub log10_noise: f64,
    /// Whether the job belongs to a novel-era app (§VIII drift).
    pub is_novel_era: bool,
    /// Whether the job belongs to a rare, widened app.
    pub is_rare: bool,
}

/// One simulated job with observable logs and hidden truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimJob {
    /// Job id (dense, stable across runs of the same config/seed).
    pub job_id: u64,
    /// Application id.
    pub app_id: u32,
    /// Duplicate-set key: jobs sharing it are observational duplicates.
    pub config_id: u64,
    /// Executable name, as Darshan records it (archetype prefix + app id).
    pub exe: String,
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
    /// First node of the placement.
    pub placement_first: u32,
    /// MPI process count.
    pub nprocs: u32,
    /// The 48 POSIX job-level features.
    pub posix: Vec<f64>,
    /// The 48 MPI-IO job-level features (zeros when unused).
    pub mpiio: Vec<f64>,
    /// Whether the job used MPI-IO.
    pub uses_mpiio: bool,
    /// The 37 LMT features, when the system collects LMT.
    pub lmt: Option<Vec<f64>>,
    /// Measured I/O throughput, bytes/s — the prediction target.
    pub throughput: f64,
    /// Hidden decomposition of the throughput.
    pub truth: GroundTruth,
}

impl SimJob {
    /// log10 of the throughput (the regression target used everywhere).
    pub fn log10_throughput(&self) -> f64 {
        self.throughput.log10()
    }
}

/// A complete simulated trace.
#[derive(Debug, Clone)]
pub struct SimDataset {
    /// The configuration that generated this dataset.
    pub config: SimConfig,
    /// All jobs, sorted by start time.
    pub jobs: Vec<SimJob>,
    /// The weather timeline (hidden from models; used for validation).
    pub weather: Weather,
    /// LMT telemetry, when collected.
    pub lmt: Option<LmtRecorder>,
}

/// The simulated HPC platform.
#[derive(Debug, Clone)]
pub struct Platform {
    config: SimConfig,
}

impl Platform {
    /// Create a platform; panics on invalid configuration.
    pub fn new(config: SimConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Run the full generation pipeline, with the per-job assembly on
    /// every available core.
    pub fn generate(&self) -> SimDataset {
        self.generate_on(current_num_threads())
    }

    /// [`Platform::generate`] with the per-job assembly on `threads`
    /// threads. The jobs are the same at any thread count.
    fn generate_on(&self, threads: usize) -> SimDataset {
        let _span = iotax_obs::span!("sim.generate");
        let cfg = &self.config;
        let seed = cfg.seed;

        // 1. Population and workload.
        let workload_span = iotax_obs::span!("sim.workload");
        let mut pop_rng = substream(seed, 1);
        let population = generate_population(&mut pop_rng, cfg);
        let mut wl_rng = substream(seed, 2);
        let workload = generate_workload(&mut wl_rng, cfg, &population);
        drop(workload_span);

        // 2. Scheduler: requests → placed records.
        let schedule_span = iotax_obs::span!("sim.schedule");
        let requests: Vec<JobRequest> = workload
            .submissions
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let jc = &workload.configs[dense_idx(s.config_id)];
                JobRequest {
                    job_id: i as u64,
                    arrival_time: s.arrival,
                    nodes: job_nodes(jc, cfg),
                    runtime: job_runtime(jc, cfg),
                }
            })
            .collect();
        let scheduler = Scheduler::new(SchedulerConfig {
            total_nodes: cfg.total_nodes,
            cores_per_node: cfg.cores_per_node,
            backfill: true,
        });
        let mut records = scheduler.schedule(&requests);
        records.sort_by_key(|r| r.job_id);
        drop(schedule_span);

        // 3. Weather.
        let weather_span = iotax_obs::span!("sim.weather");
        let mut weather_rng = substream(seed, 3);
        let weather =
            Weather::generate(&mut weather_rng, cfg.horizon_seconds, cfg.incidents_per_year);
        drop(weather_span);

        // 4. Contention: deposit every job, then read back external loads.
        let contention_span = iotax_obs::span!("sim.contention");
        let mut grid = LoadGrid::new(
            cfg.horizon_seconds + 40 * 86_400, // queue delays can spill past the horizon
            cfg.bucket_seconds,
            cfg.n_osts(),
        );
        let stripes: Vec<_> = records
            .iter()
            .map(|r| {
                let s = &workload.submissions[dense_idx(r.job_id)];
                let jc = &workload.configs[dense_idx(s.config_id)];
                assign_stripe(splitmix64(seed ^ r.job_id), jc, cfg.n_osts())
            })
            .collect();
        // Jobs run periodic I/O phases throughout their runtime; at bucket
        // resolution that is a sustained offered rate of volume/runtime on
        // the job's stripe. Burst-coincidence microphysics is folded into
        // `contention_strength`/`contention_reference` (see DESIGN.md).
        for (r, stripe) in records.iter().zip(&stripes) {
            let s = &workload.submissions[dense_idx(r.job_id)];
            let jc = &workload.configs[dense_idx(s.config_id)];
            grid.deposit(stripe, jc, r.start_time, r.end_time);
        }
        drop(contention_span);

        // 5. Telemetry (before moving the grid into job assembly).
        let lmt = cfg.collect_lmt.then(|| {
            let _span = iotax_obs::span!("sim.telemetry");
            build_telemetry(&grid, &weather, cfg)
        });

        // 6. Per-job assembly: throughput composition + Darshan log, on the
        // executor's fixed chunks of the records, merged in record order. A
        // job reads only what the phases above built and its own noise
        // substream, so it is the same whichever thread assembles it.
        // Workers open no spans.
        let assemble_span = iotax_obs::span!("sim.assemble");
        let jobs: Vec<SimJob> = map_in_order(&records, threads, &|_: &mut (), i, rec| {
            let stripe = &stripes[i];
            let sub = &workload.submissions[dense_idx(rec.job_id)];
            let jc = &workload.configs[dense_idx(sub.config_id)];
            let app = &population.apps[sub.app_idx];

            // Eq. 3, log-additively.
            let f_a = ideal_throughput(jc, cfg.peak_bandwidth);
            let log10_app = f_a.log10();
            let log10_weather = weather.mean_log10_factor(rec.start_time, rec.end_time);
            let ext_ratio = grid.external_load(stripe, jc, rec.start_time, rec.end_time)
                / cfg.contention_reference;
            let log10_contention =
                contention_factor(ext_ratio, jc.contention_sensitivity, cfg.contention_strength)
                    .log10();
            let mut noise_rng = substream(seed, 10_000 + rec.job_id);
            let log10_noise = Normal::new(0.0, cfg.noise_sigma_log10 * jc.noise_sensitivity)
                .sample(&mut noise_rng);
            let log10_phi = log10_app + log10_weather + log10_contention + log10_noise;

            // Darshan log. Its features are read straight off its records:
            // the binary format round-trips a log exactly unless a counter is
            // not finite, which the parser refuses, and so does this, with
            // the message an encode-and-parse round trip would panic with.
            let log = generate_job_log(
                rec.job_id,
                app.uid,
                &app.exe,
                rec.start_time,
                rec.end_time,
                jc,
                cfg.peak_bandwidth,
                sub.config_id,
            );
            let modules = std::iter::once(&log.posix).chain(&log.mpiio);
            let mut counters = modules.flat_map(|m| &m.records).flat_map(|r| &r.counters);
            assert!(
                counters.all(|c| c.is_finite()),
                "format round trip: {:?}",
                ParseError::NonFiniteCounter
            );
            let posix = extract_posix_features(&log).to_vec();
            let mpiio = extract_mpiio_features(&log).to_vec();

            let lmt_features =
                lmt.as_ref().map(|r| r.window_features(rec.start_time, rec.end_time).to_vec());

            SimJob {
                job_id: rec.job_id,
                app_id: app.app_id,
                config_id: sub.config_id,
                exe: app.exe.clone(),
                arrival_time: rec.arrival_time,
                start_time: rec.start_time,
                end_time: rec.end_time,
                nodes: rec.nodes,
                cores: rec.cores,
                placement_first: rec.placement_first,
                nprocs: jc.nprocs,
                posix,
                mpiio,
                uses_mpiio: jc.uses_mpiio,
                lmt: lmt_features,
                throughput: 10f64.powf(log10_phi),
                truth: GroundTruth {
                    log10_app,
                    log10_weather,
                    log10_contention,
                    log10_noise,
                    is_novel_era: app.is_novel_era,
                    is_rare: app.is_rare,
                },
            }
        })
        .collect();
        drop(assemble_span);

        let mut jobs = jobs;
        jobs.sort_by_key(|j| (j.start_time, j.job_id));
        iotax_obs::counter!("sim.jobs_generated").incr(jobs.len() as u64);
        SimDataset { config: cfg.clone(), jobs, weather, lmt }
    }
}

/// Nodes a config occupies on this machine.
/// Look up a dense id (`job_id`, `config_id`) as a vector index.
/// These ids are `enumerate()` positions round-tripped through `u64`,
/// so the cast back to `usize` cannot lose bits.
#[expect(
    clippy::cast_possible_truncation,
    reason = "ids are enumerate() indices round-tripped through u64"
)]
fn dense_idx(id: u64) -> usize {
    id as usize
}

fn job_nodes(jc: &JobConfig, cfg: &SimConfig) -> u32 {
    jc.nprocs.div_ceil(cfg.cores_per_node).clamp(1, cfg.total_nodes / 4)
}

/// Runtime: compute plus nominal I/O, clamped to scheduler limits.
/// Deterministic per config, so duplicate jobs request identical walltimes.
#[expect(
    clippy::cast_possible_truncation,
    reason = "`as` saturates and the clamp bounds it; the rounding is part of the pinned traces"
)]
fn job_runtime(jc: &JobConfig, cfg: &SimConfig) -> i64 {
    let io = jc.nominal_io_seconds(cfg.peak_bandwidth);
    ((jc.compute_seconds + io) as i64).clamp(60, 86_400)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small() -> SimDataset {
        Platform::new(SimConfig::theta().with_jobs(2_000).with_seed(11)).generate()
    }

    #[test]
    fn generates_requested_job_count() {
        let ds = small();
        assert_eq!(ds.jobs.len(), 2_000);
        assert!(ds.jobs.windows(2).all(|w| w[0].start_time <= w[1].start_time));
    }

    #[test]
    fn throughput_decomposition_is_consistent() {
        let ds = small();
        for j in &ds.jobs {
            let t = &j.truth;
            let recomposed = t.log10_app + t.log10_weather + t.log10_contention + t.log10_noise;
            assert!((j.log10_throughput() - recomposed).abs() < 1e-9);
            assert!(t.log10_contention <= 1e-12);
            assert!(j.throughput > 0.0);
        }
    }

    #[test]
    fn duplicates_share_observables_but_not_throughput() {
        let ds = small();
        let mut by_config: BTreeMap<u64, Vec<&SimJob>> = BTreeMap::new();
        for j in &ds.jobs {
            by_config.entry(j.config_id).or_default().push(j);
        }
        let mut checked = 0;
        for group in by_config.values().filter(|g| g.len() >= 2) {
            let first = group[0];
            for j in &group[1..] {
                assert_eq!(j.posix, first.posix, "duplicate posix features differ");
                assert_eq!(j.mpiio, first.mpiio);
                assert_eq!(j.nprocs, first.nprocs);
                checked += 1;
            }
        }
        assert!(checked > 50, "too few duplicates to be meaningful: {checked}");
        // And at least some duplicates differ in throughput (noise).
        let any_differ = by_config
            .values()
            .filter(|g| g.len() >= 2)
            .any(|g| (g[0].throughput - g[1].throughput).abs() > 1e-6 * g[0].throughput);
        assert!(any_differ);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.jobs, b.jobs);
    }

    /// Every `f64` of a job as its bits: `==` on `f64` equates 0.0 and
    /// -0.0, which bit identity must not.
    fn float_bits(job: &SimJob) -> Vec<u64> {
        let t = &job.truth;
        let truth = [t.log10_app, t.log10_weather, t.log10_contention, t.log10_noise];
        let lmt = job.lmt.iter().flatten();
        let all = job.posix.iter().chain(&job.mpiio).chain(lmt).chain(&truth);
        all.chain([&job.throughput]).map(|v| v.to_bits()).collect()
    }

    #[test]
    fn generate_is_identical_at_1_2_and_3_threads() {
        // Each thread count hands the chunks out to a different number of
        // workers; cori also assembles each job's LMT window.
        let theta = SimConfig::theta().with_jobs(1_500).with_seed(11);
        let cori = SimConfig::cori().with_jobs(800).with_seed(12);
        for config in [theta, cori] {
            let platform = Platform::new(config);
            let one = platform.generate_on(1);
            let lmt = one.jobs.iter().all(|j| j.lmt.is_some());
            assert_eq!(lmt, platform.config.collect_lmt, "{:?}", platform.config.system);
            for threads in [2, 3] {
                let other = platform.generate_on(threads);
                assert!(other.jobs == one.jobs, "{threads} threads: jobs differ");
                let bits = |ds: &SimDataset| ds.jobs.iter().map(float_bits).collect::<Vec<_>>();
                assert!(bits(&other) == bits(&one), "{threads} threads: float bits differ");
            }
        }
    }

    #[test]
    fn theta_has_no_lmt_cori_does() {
        let theta = small();
        assert!(theta.lmt.is_none());
        assert!(theta.jobs.iter().all(|j| j.lmt.is_none()));
        let cori = Platform::new(SimConfig::cori().with_jobs(500).with_seed(1)).generate();
        assert!(cori.lmt.is_some());
        assert!(cori.jobs.iter().all(|j| j.lmt.is_some()));
    }

    #[test]
    fn novel_jobs_cluster_late() {
        let ds = Platform::new(SimConfig::theta().with_jobs(5_000).with_seed(5)).generate();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the same cast as generate_population's"
        )]
        let novel_start =
            (ds.config.horizon_seconds as f64 * (1.0 - ds.config.novel_era_fraction)) as i64;
        let novel: Vec<_> = ds.jobs.iter().filter(|j| j.truth.is_novel_era).collect();
        assert!(!novel.is_empty(), "no novel jobs generated");
        for j in novel {
            assert!(j.arrival_time >= novel_start);
        }
    }

    #[test]
    fn noise_magnitude_matches_config() {
        let ds = small();
        let noises: Vec<f64> = ds.jobs.iter().map(|j| j.truth.log10_noise).collect();
        let std = iotax_stats::describe::Summary::of(&noises).std;
        // Mixture over noise sensitivities (0.8 .. 2.2, mean ~1.2): the
        // pooled std should be near sigma × mean sensitivity.
        assert!(std > ds.config.noise_sigma_log10 * 0.8);
        assert!(std < ds.config.noise_sigma_log10 * 2.5, "std {std}");
    }

    #[test]
    fn contention_is_nonzero_for_some_jobs() {
        let ds = small();
        let contended = ds.jobs.iter().filter(|j| j.truth.log10_contention < -0.001).count();
        assert!(contended > 20, "only {contended} contended jobs");
    }
}
