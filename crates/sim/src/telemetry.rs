//! LMT telemetry synthesis from the actual simulated load.
//!
//! The recorder is driven by the same [`LoadGrid`] the contention model
//! uses, plus the weather: OSS CPU rises with the utilization of its OSTs
//! and with service degradations, OST byte rates are the deposited job
//! traffic, MDS rates follow the metadata load. LMT features therefore
//! *genuinely encode* ζ_g and part of ζ_l, which is why the Lustre-enriched
//! model of §VII.B can recover most of the system modeling error.

use crate::config::SimConfig;
use crate::contention::LoadGrid;
use crate::weather::Weather;
use iotax_lmt::metrics::LmtMetric as Lm;
use iotax_lmt::recorder::LmtRecorder;
use iotax_lmt::N_METRICS;
use iotax_stats::rng::splitmix64;

/// Deterministic small jitter in [-amp, amp] for (server, bucket, metric).
fn jitter(server: usize, bucket: usize, metric: usize, amp: f64) -> f64 {
    let h = splitmix64((server as u64) << 40 ^ (bucket as u64) << 8 ^ metric as u64 ^ 0x7E1E_0E70);
    amp * ((h as f64 / u64::MAX as f64) * 2.0 - 1.0)
}

/// Build the LMT recorder for a simulated trace.
pub(crate) fn build_telemetry(grid: &LoadGrid, weather: &Weather, cfg: &SimConfig) -> LmtRecorder {
    let mut recorder = LmtRecorder::new(0, grid.bucket_seconds());
    let ost_capacity = cfg.ost_capacity();
    let horizon = weather.horizon() as f64;
    let mut servers: Vec<[f64; N_METRICS]> = vec![[0.0; N_METRICS]; cfg.n_oss];
    for bucket in 0..grid.n_buckets() {
        let t = bucket as i64 * grid.bucket_seconds();
        let wf = weather.factor(t);
        // Degradations show up as server stress.
        let stress = (1.0 - wf).max(0.0);
        let meta_rate = grid.meta_load(bucket);
        // Fullness climbs over the trace with a quarterly purge sawtooth.
        let phase = (t as f64 % (90.0 * 86_400.0)) / (90.0 * 86_400.0);
        let fullness_base = (0.45 + 0.25 * (t as f64 / horizon) + 0.15 * phase).min(0.95);
        for (s, out) in servers.iter_mut().enumerate() {
            let mut read = 0.0;
            let mut write = 0.0;
            for k in 0..cfg.osts_per_oss {
                let (r, w) = grid.ost_load(bucket, s * cfg.osts_per_oss + k);
                read += r;
                write += w;
            }
            let util = ((read + write) / (cfg.osts_per_oss as f64 * ost_capacity)).min(3.0);
            out[Lm::OssCpuLoad.index()] =
                (0.05 + 0.45 * util + 0.5 * stress + jitter(s, bucket, 0, 0.02)).clamp(0.0, 1.0);
            out[Lm::OssMemLoad.index()] =
                (0.25 + 0.3 * util + 0.1 * stress + jitter(s, bucket, 1, 0.03)).clamp(0.0, 1.0);
            out[Lm::OstReadBytes.index()] = read * (1.0 + jitter(s, bucket, 2, 0.05));
            out[Lm::OstWriteBytes.index()] = write * (1.0 + jitter(s, bucket, 3, 0.05));
            out[Lm::OstIops.index()] = (read + write) / 1.0e6 * (1.0 + jitter(s, bucket, 4, 0.05));
            out[Lm::OstFullness.index()] =
                (fullness_base + jitter(s, bucket, 5, 0.02)).clamp(0.0, 1.0);
            out[Lm::MdsOpsRate.index()] =
                (meta_rate / cfg.n_oss as f64) * (1.0 + jitter(s, bucket, 6, 0.08));
            out[Lm::MdsCpuLoad.index()] =
                (0.1 + meta_rate / 5.0e4 + 0.4 * stress + jitter(s, bucket, 7, 0.03))
                    .clamp(0.0, 1.0);
            out[Lm::MdtOpsRate.index()] =
                (meta_rate * 0.8 / cfg.n_oss as f64) * (1.0 + jitter(s, bucket, 8, 0.08));
        }
        recorder.push_tick(&servers);
    }
    recorder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::JobConfig;
    use crate::contention::{assign_stripe, LoadGrid};
    use iotax_stats::rng_from_seed;

    fn setup() -> (LoadGrid, Weather, SimConfig) {
        let mut cfg = SimConfig::cori().with_jobs(10);
        cfg.horizon_seconds = 200 * 600;
        let grid = LoadGrid::new(cfg.horizon_seconds, cfg.bucket_seconds, cfg.n_osts());
        let weather = Weather::flat(cfg.horizon_seconds);
        (grid, weather, cfg)
    }

    #[test]
    fn recorder_covers_every_bucket() {
        let (grid, weather, cfg) = setup();
        let rec = build_telemetry(&grid, &weather, &cfg);
        assert_eq!(rec.len(), grid.n_buckets());
        let tick = serde::Serialize::to_value(&rec).get("tick_seconds").and_then(|t| t.as_i64());
        assert_eq!(tick, Some(cfg.bucket_seconds));
    }

    #[test]
    fn idle_system_has_low_cpu_and_zero_bytes() {
        let (grid, weather, cfg) = setup();
        let rec = build_telemetry(&grid, &weather, &cfg);
        let f = rec.window_features(0, 10 * cfg.bucket_seconds);
        let names = iotax_lmt::recorder::lmt_feature_names();
        let mean_of = |name: &str| {
            let i = names.iter().position(|n| n == name).expect("feature");
            f[i]
        };
        assert!(mean_of("LmtOssCpuLoadMean") < 0.15);
        assert!(mean_of("LmtOstReadBytesMean").abs() < 1e-6);
    }

    #[test]
    fn deposited_load_appears_in_ost_bytes() {
        let (mut grid, weather, cfg) = setup();
        let mut rng = rng_from_seed(1);
        let mut job = JobConfig::sample(0, &mut rng, 1.0);
        job.volume_bytes = 1e13;
        job.read_fraction = 0.0;
        let stripe = assign_stripe(1, &job, cfg.n_osts());
        grid.deposit(&stripe, &job, 0, 50 * cfg.bucket_seconds);
        let rec = build_telemetry(&grid, &weather, &cfg);
        let f = rec.window_features(0, 50 * cfg.bucket_seconds);
        let names = iotax_lmt::recorder::lmt_feature_names();
        let max_write = f[names.iter().position(|n| n == "LmtOstWriteBytesMax").expect("feature")];
        assert!(max_write > 1e5, "write bytes did not register: {max_write}");
    }

    #[test]
    fn degradations_raise_cpu_stress() {
        let (grid, _, cfg) = setup();
        let mut rng = rng_from_seed(2);
        // A stormy sky: many incidents.
        let weather = Weather::generate(&mut rng, cfg.horizon_seconds, 2000.0);
        let stormy = build_telemetry(&grid, &weather, &cfg);
        let calm = build_telemetry(&grid, &Weather::flat(cfg.horizon_seconds), &cfg);
        let names = iotax_lmt::recorder::lmt_feature_names();
        let idx = names.iter().position(|n| n == "LmtOssCpuLoadMean").expect("feature");
        let end = cfg.horizon_seconds - 1;
        assert!(stormy.window_features(0, end)[idx] > calm.window_features(0, end)[idx] + 0.01);
    }

    #[test]
    fn telemetry_is_deterministic() {
        let (grid, weather, cfg) = setup();
        let a = build_telemetry(&grid, &weather, &cfg);
        let b = build_telemetry(&grid, &weather, &cfg);
        assert_eq!(a.window_features(0, 1000), b.window_features(0, 1000));
    }
}
