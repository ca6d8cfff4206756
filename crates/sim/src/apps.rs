//! Application population and workload (submission) generation.
//!
//! The generator reproduces the *population structure* the litmus tests
//! depend on:
//!
//! * **duplicate sets** — jobs that reuse an existing configuration of
//!   their application ("same code, same data", §VI); benchmark apps like
//!   IOR reuse aggressively, which is why production systems have huge
//!   duplicate sets;
//! * **batched duplicates** — reused configs sometimes arrive as
//!   simultaneous batches, producing the Δt = 0 concurrent duplicates §IX
//!   measures noise with;
//! * **novel-era apps** — a slice of the population that only appears late
//!   in the trace (deployment-time distribution shift, §VIII);
//! * **rare apps** — one-or-two-run apps drawn from widened parameter
//!   distributions (in-period out-of-distribution jobs).

use crate::archetype::{popularity_weight, JobConfig, ARCHETYPES};
use crate::config::SimConfig;
use iotax_stats::dist::Categorical;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// One application in the population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct App {
    /// Dense application id.
    pub app_id: u32,
    /// Executable name (archetype prefix + id).
    pub exe: String,
    /// Owning user id.
    pub uid: u32,
    /// Index into [`ARCHETYPES`].
    pub archetype: usize,
    /// Relative submission weight.
    pub popularity: f64,
    /// Earliest time this app appears (0, or the novel-era start).
    pub first_time: i64,
    /// Parameter-range widening factor (1.0 nominal, > 1 for rare apps).
    pub widen: f64,
    /// Whether this is a rare (widened, low-volume) app.
    pub is_rare: bool,
    /// Whether this app only exists in the novel era.
    pub is_novel_era: bool,
    /// Config-reuse probability for this app (benchmarks reuse heavily).
    pub p_reuse: f64,
}

/// The generated population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AppPopulation {
    /// All applications.
    pub apps: Vec<App>,
}

/// One job submission: which app/config, and when it arrives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Submission {
    /// Index into [`AppPopulation::apps`].
    pub app_idx: usize,
    /// Global config id (duplicate-set key).
    pub config_id: u64,
    /// Queue arrival time, seconds.
    pub arrival: i64,
}

/// The workload: submissions plus the config table they reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Workload {
    /// All submissions, sorted by arrival time.
    pub submissions: Vec<Submission>,
    /// Config table: `configs[config_id]`.
    pub configs: Vec<JobConfig>,
    /// Owning app of each config.
    pub config_app: Vec<usize>,
}

/// Generate the application population.
pub(crate) fn generate_population<R: Rng + ?Sized>(rng: &mut R, cfg: &SimConfig) -> AppPopulation {
    let arch_weights: Vec<f64> = ARCHETYPES.iter().map(|a| a.weight).collect();
    let arch_dist = Categorical::new(&arch_weights);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a fraction of the i64 horizon; `as` rounds toward zero, which the pinned traces encode"
    )]
    let novel_start = (cfg.horizon_seconds as f64 * (1.0 - cfg.novel_era_fraction)) as i64;
    let mut apps = Vec::with_capacity(cfg.n_apps);
    for app_id in 0..u32::try_from(cfg.n_apps).unwrap_or(u32::MAX) {
        let archetype = arch_dist.sample(rng);
        let u: f64 = rng.random();
        let is_novel_era = u < cfg.novel_app_fraction;
        let is_rare = !is_novel_era && u < cfg.novel_app_fraction + cfg.rare_app_fraction;
        let is_benchmark = ARCHETYPES[archetype].name == "ior_benchmark";
        let popularity = if is_rare {
            // Rare apps submit a handful of jobs over the whole trace.
            0.02 * popularity_weight(rng).min(1.0)
        } else {
            popularity_weight(rng)
        };
        apps.push(App {
            app_id,
            exe: format!("{}_{app_id:04}", ARCHETYPES[archetype].name),
            uid: 1000 + (app_id % 97),
            archetype,
            popularity,
            first_time: if is_novel_era { novel_start } else { 0 },
            widen: if is_rare || is_novel_era { 1.9 } else { 1.0 },
            is_rare,
            is_novel_era,
            // Benchmarks rerun the same config almost always.
            p_reuse: if is_benchmark { 0.97 } else { cfg.p_reuse_config },
        });
    }
    AppPopulation { apps }
}

/// Generate the workload: `cfg.n_jobs` submissions over the horizon.
pub(crate) fn generate_workload<R: Rng + ?Sized>(
    rng: &mut R,
    cfg: &SimConfig,
    population: &AppPopulation,
) -> Workload {
    let apps = &population.apps;
    // Per-app config lists; configs are global so duplicate-set keys are
    // unique across apps.
    let mut configs: Vec<JobConfig> = Vec::new();
    let mut config_app: Vec<usize> = Vec::new();
    let mut app_configs: Vec<Vec<u64>> = vec![Vec::new(); apps.len()];
    let mut submissions: Vec<Submission> = Vec::with_capacity(cfg.n_jobs);

    // Two availability regimes: apps with first_time == 0 and novel-era
    // apps. Build a categorical over each regime.
    let base_weights: Vec<f64> =
        apps.iter().map(|a| if a.is_novel_era { 0.0 } else { a.popularity }).collect();
    let all_weights: Vec<f64> = apps.iter().map(|a| a.popularity).collect();
    let base_dist = Categorical::new(&base_weights);
    let all_dist = Categorical::new(&all_weights);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a fraction of the i64 horizon; `as` rounds toward zero, which the pinned traces encode"
    )]
    let novel_start = (cfg.horizon_seconds as f64 * (1.0 - cfg.novel_era_fraction)) as i64;

    // Uniform arrivals over the horizon (a Poisson process conditioned on
    // its count); sorted afterwards.
    let mut arrivals: Vec<i64> =
        (0..cfg.n_jobs).map(|_| rng.random_range(0..cfg.horizon_seconds)).collect();
    arrivals.sort_unstable();

    let mut i = 0usize;
    while i < arrivals.len() {
        let arrival = arrivals[i];
        let app_idx =
            if arrival >= novel_start { all_dist.sample(rng) } else { base_dist.sample(rng) };
        let app = &apps[app_idx];
        // Pick or create a config.
        let reuse = !app_configs[app_idx].is_empty() && rng.random::<f64>() < app.p_reuse;
        let config_id = if reuse {
            let list = &app_configs[app_idx];
            list[rng.random_range(0..list.len())]
        } else {
            let id = configs.len() as u64;
            configs.push(JobConfig::sample(app.archetype, rng, app.widen));
            config_app.push(app_idx);
            app_configs[app_idx].push(id);
            id
        };
        submissions.push(Submission { app_idx, config_id, arrival });
        i += 1;
        // Batched duplicates: consume upcoming arrival slots but submit at
        // the *same* instant (Δt = 0 sets).
        if reuse && rng.random::<f64>() < cfg.p_batch {
            let extra = 1 + sample_geometric(rng, cfg.batch_extra_mean);
            for _ in 0..extra {
                if i >= arrivals.len() {
                    break;
                }
                submissions.push(Submission { app_idx, config_id, arrival });
                i += 1;
            }
        }
    }
    submissions.sort_by_key(|s| s.arrival);
    Workload { submissions, configs, config_app }
}

/// Geometric(p) sample parameterized by its mean (support 0, 1, 2, ...).
fn sample_geometric<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let p = 1.0 / (1.0 + mean);
    let u: f64 = rng.random::<f64>().max(1e-300);
    iotax_stats::cast::f64_to_usize((u.ln() / (1.0 - p).ln()).floor())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotax_stats::rng_from_seed;
    use std::collections::HashMap;

    fn small_cfg() -> SimConfig {
        SimConfig::theta().with_jobs(5_000).with_seed(3)
    }

    #[test]
    fn population_respects_fractions() {
        let cfg = small_cfg();
        let mut rng = rng_from_seed(1);
        let pop = generate_population(&mut rng, &cfg);
        assert_eq!(pop.apps.len(), cfg.n_apps);
        let novel = pop.apps.iter().filter(|a| a.is_novel_era).count() as f64;
        let rare = pop.apps.iter().filter(|a| a.is_rare).count() as f64;
        let n = cfg.n_apps as f64;
        assert!((novel / n - cfg.novel_app_fraction).abs() < 0.04);
        assert!((rare / n - cfg.rare_app_fraction).abs() < 0.04);
        // Novel apps start late; others start at zero.
        for a in &pop.apps {
            if a.is_novel_era {
                assert!(a.first_time > 0);
            } else {
                assert_eq!(a.first_time, 0);
            }
        }
    }

    #[test]
    fn workload_has_requested_size_and_is_sorted() {
        let cfg = small_cfg();
        let mut rng = rng_from_seed(2);
        let pop = generate_population(&mut rng, &cfg);
        let wl = generate_workload(&mut rng, &cfg, &pop);
        assert_eq!(wl.submissions.len(), cfg.n_jobs);
        assert!(wl.submissions.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(wl.configs.len(), wl.config_app.len());
    }

    #[test]
    fn duplicate_fraction_tracks_reuse_probability() {
        let mut rng = rng_from_seed(3);
        let theta = SimConfig::theta().with_jobs(8_000);
        let pop = generate_population(&mut rng, &theta);
        let wl = generate_workload(&mut rng, &theta, &pop);
        let dup_frac_theta = duplicate_fraction(&wl);
        let mut rng = rng_from_seed(3);
        let cori = SimConfig::cori().with_jobs(8_000);
        let pop = generate_population(&mut rng, &cori);
        let wl = generate_workload(&mut rng, &cori, &pop);
        let dup_frac_cori = duplicate_fraction(&wl);
        // Cori duplicates more than Theta (paper: 54 % vs 23.5 %).
        assert!(
            dup_frac_cori > dup_frac_theta + 0.1,
            "theta {dup_frac_theta:.3} vs cori {dup_frac_cori:.3}"
        );
        assert!(dup_frac_theta > 0.12 && dup_frac_theta < 0.35, "{dup_frac_theta}");
        assert!(dup_frac_cori > 0.42 && dup_frac_cori < 0.68, "{dup_frac_cori}");
    }

    fn duplicate_fraction(wl: &Workload) -> f64 {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for s in &wl.submissions {
            *counts.entry(s.config_id).or_default() += 1;
        }
        let dups: usize = counts.values().filter(|&&c| c >= 2).sum();
        dups as f64 / wl.submissions.len() as f64
    }

    #[test]
    fn batches_create_simultaneous_duplicates() {
        let cfg = small_cfg();
        let mut rng = rng_from_seed(4);
        let pop = generate_population(&mut rng, &cfg);
        let wl = generate_workload(&mut rng, &cfg, &pop);
        let simultaneous = wl
            .submissions
            .windows(2)
            .filter(|w| w[0].arrival == w[1].arrival && w[0].config_id == w[1].config_id)
            .count();
        assert!(simultaneous > 20, "only {simultaneous} batched pairs");
    }

    #[test]
    fn novel_apps_only_appear_late() {
        let cfg = SimConfig::theta().with_jobs(10_000);
        let mut rng = rng_from_seed(5);
        let pop = generate_population(&mut rng, &cfg);
        let wl = generate_workload(&mut rng, &cfg, &pop);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the same cast as generate_population's"
        )]
        let novel_start = (cfg.horizon_seconds as f64 * (1.0 - cfg.novel_era_fraction)) as i64;
        for s in &wl.submissions {
            if pop.apps[s.app_idx].is_novel_era {
                assert!(s.arrival >= novel_start, "novel app ran early at {}", s.arrival);
            }
        }
        // And they do appear.
        assert!(wl.submissions.iter().any(|s| pop.apps[s.app_idx].is_novel_era));
    }

    #[test]
    fn geometric_mean_matches() {
        let mut rng = rng_from_seed(6);
        let n = 20_000;
        let total: usize = (0..n).map(|_| sample_geometric(&mut rng, 1.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn workload_is_deterministic() {
        let cfg = small_cfg();
        let run = || {
            let mut rng = rng_from_seed(7);
            let pop = generate_population(&mut rng, &cfg);
            generate_workload(&mut rng, &cfg, &pop)
        };
        assert_eq!(run(), run());
    }
}
