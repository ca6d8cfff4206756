//! Tick-based telemetry recorder and per-job window aggregation.
//!
//! Real LMT samples every server every 5 seconds. Storing raw per-server
//! series over a multi-year trace is infeasible, so the recorder reduces
//! each tick's per-server samples to (min, max, mean, M2) on arrival —
//! memory is O(ticks), not O(ticks × servers) — and window queries combine
//! tick aggregates into the paper's 37 job-level features.

use crate::metrics::{LMT_METRICS, N_METRICS};
use iotax_stats::Welford;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Number of LMT job-level features (9 metrics × 4 stats + fullness at
/// job start), matching the paper's 37.
pub(crate) const LMT_FEATURE_COUNT: usize = 37;

/// Names of the 37 LMT features, in feature order:
/// `Lmt<Metric><Stat>` for each metric × {Min, Max, Mean, Std}, then
/// `LmtFullnessAtStart`.
pub(crate) static LMT_FEATURE_NAMES: OnceLock<Vec<String>> = OnceLock::new();

/// Accessor for `LMT_FEATURE_NAMES`; builds the list on first use.
pub fn lmt_feature_names() -> &'static [String] {
    LMT_FEATURE_NAMES.get_or_init(|| {
        let mut names = Vec::with_capacity(LMT_FEATURE_COUNT);
        for m in LMT_METRICS {
            for stat in ["Min", "Max", "Mean", "Std"] {
                names.push(format!("Lmt{}{stat}", m.name()));
            }
        }
        names.push("LmtFullnessAtStart".to_owned());
        names
    })
}

/// Per-tick reduction of one metric across all servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct TickStat {
    min: f32,
    max: f32,
    mean: f32,
    /// Across-server variance (population) at this tick.
    var: f32,
}

/// Telemetry recorder over a fixed-tick timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LmtRecorder {
    /// Timeline origin, seconds.
    t0: i64,
    /// Seconds between ticks (real LMT: 5; presets may coarsen).
    tick_seconds: i64,
    /// `ticks[t][m]` = across-server stats of metric `m` at tick `t`.
    ticks: Vec<[TickStat; N_METRICS]>,
}

impl LmtRecorder {
    /// New recorder starting at `t0` with the given tick length.
    pub fn new(t0: i64, tick_seconds: i64) -> Self {
        assert!(tick_seconds >= 1, "tick must be at least one second");
        Self { t0, tick_seconds, ticks: Vec::new() }
    }

    /// Number of recorded ticks.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Record the next tick from per-server samples.
    ///
    /// `servers[s][m]` is metric `m` on server `s`. Panics when `servers`
    /// is empty.
    pub fn push_tick(&mut self, servers: &[[f64; N_METRICS]]) {
        assert!(!servers.is_empty(), "tick needs at least one server sample");
        let mut stats = [TickStat { min: 0.0, max: 0.0, mean: 0.0, var: 0.0 }; N_METRICS];
        for (m, stat) in stats.iter_mut().enumerate() {
            let mut w = Welford::new();
            for s in servers {
                w.push(s[m]);
            }
            *stat = TickStat {
                min: w.min() as f32,
                max: w.max() as f32,
                mean: w.mean() as f32,
                var: if servers.len() > 1 { w.variance_biased() as f32 } else { 0.0 },
            };
        }
        self.ticks.push(stats);
    }

    /// Tick index containing time `t`, clamped into the recorded range.
    fn tick_index(&self, t: i64) -> usize {
        if self.ticks.is_empty() {
            return 0;
        }
        let idx = (t - self.t0).div_euclid(self.tick_seconds);
        idx.clamp(0, self.ticks.len() as i64 - 1) as usize
    }

    /// The paper's 37 LMT features for a job window `[start, end]` seconds.
    ///
    /// Per metric: min over ticks of across-server mins, max of maxes, mean
    /// of means, and a pooled standard deviation combining within-tick
    /// (across-server) variance with across-tick variance of the means.
    /// The 37th feature is the filesystem fullness at the start tick.
    ///
    /// Panics when nothing has been recorded.
    pub fn window_features(&self, start: i64, end: i64) -> [f64; LMT_FEATURE_COUNT] {
        assert!(!self.ticks.is_empty(), "no telemetry recorded");
        let a = self.tick_index(start);
        let b = self.tick_index(end.max(start));
        let mut out = [0.0f64; LMT_FEATURE_COUNT];
        for m in 0..N_METRICS {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut mean_acc = Welford::new();
            let mut var_within = 0.0f64;
            for tick in &self.ticks[a..=b] {
                let st = tick[m];
                min = min.min(st.min as f64);
                max = max.max(st.max as f64);
                mean_acc.push(st.mean as f64);
                var_within += st.var as f64;
            }
            let n_ticks = (b - a + 1) as f64;
            let var_between = if mean_acc.count() > 1 { mean_acc.variance_biased() } else { 0.0 };
            let pooled_std = (var_within / n_ticks + var_between).sqrt();
            out[m * 4] = min;
            out[m * 4 + 1] = max;
            out[m * 4 + 2] = mean_acc.mean();
            out[m * 4 + 3] = pooled_std;
        }
        out[LMT_FEATURE_COUNT - 1] =
            self.ticks[a][crate::metrics::LmtMetric::OstFullness.index()].mean as f64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LmtMetric;

    fn flat_tick(v: f64) -> [[f64; N_METRICS]; 2] {
        [[v; N_METRICS], [v; N_METRICS]]
    }

    #[test]
    fn feature_names_are_37_and_unique() {
        let names = lmt_feature_names();
        assert_eq!(names.len(), LMT_FEATURE_COUNT);
        let mut sorted = names.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), LMT_FEATURE_COUNT);
    }

    #[test]
    fn constant_series_yields_flat_window_stats() {
        let mut rec = LmtRecorder::new(0, 5);
        for _ in 0..10 {
            rec.push_tick(&flat_tick(3.0));
        }
        let f = rec.window_features(0, 49);
        for m in 0..N_METRICS {
            assert_eq!(f[m * 4], 3.0, "min");
            assert_eq!(f[m * 4 + 1], 3.0, "max");
            assert_eq!(f[m * 4 + 2], 3.0, "mean");
            assert!(f[m * 4 + 3].abs() < 1e-9, "std");
        }
    }

    #[test]
    fn window_selects_correct_ticks() {
        let mut rec = LmtRecorder::new(100, 10);
        rec.push_tick(&flat_tick(1.0)); // [100, 110)
        rec.push_tick(&flat_tick(2.0)); // [110, 120)
        rec.push_tick(&flat_tick(3.0)); // [120, 130)
        let f = rec.window_features(110, 119);
        assert_eq!(f[2], 2.0); // OssCpuLoad mean == tick 1 value
        let f = rec.window_features(100, 129);
        assert_eq!(f[0], 1.0); // min across all three
        assert_eq!(f[1], 3.0); // max
        assert!((f[2] - 2.0).abs() < 1e-9); // mean
    }

    #[test]
    fn across_server_spread_feeds_min_max_std() {
        let mut rec = LmtRecorder::new(0, 5);
        let mut servers = [[0.0; N_METRICS]; 4];
        for (i, s) in servers.iter_mut().enumerate() {
            s[LmtMetric::OstReadBytes.index()] = (i + 1) as f64; // 1..4
        }
        rec.push_tick(&servers);
        let f = rec.window_features(0, 4);
        let base = LmtMetric::OstReadBytes.index() * 4;
        assert_eq!(f[base], 1.0);
        assert_eq!(f[base + 1], 4.0);
        assert!((f[base + 2] - 2.5).abs() < 1e-6);
        // Population std of {1,2,3,4} = sqrt(1.25).
        assert!((f[base + 3] - 1.25f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_windows_clamp() {
        let mut rec = LmtRecorder::new(0, 5);
        rec.push_tick(&flat_tick(7.0));
        let f = rec.window_features(-100, -50);
        assert_eq!(f[2], 7.0);
        let f = rec.window_features(1_000, 2_000);
        assert_eq!(f[2], 7.0);
    }

    #[test]
    fn fullness_snapshot_is_start_tick() {
        let mut rec = LmtRecorder::new(0, 5);
        let mut t0 = flat_tick(0.0);
        t0[0][LmtMetric::OstFullness.index()] = 0.4;
        t0[1][LmtMetric::OstFullness.index()] = 0.6;
        rec.push_tick(&t0);
        rec.push_tick(&flat_tick(0.9));
        let f = rec.window_features(0, 9);
        assert!((f[LMT_FEATURE_COUNT - 1] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "no telemetry")]
    fn empty_recorder_window_panics() {
        LmtRecorder::new(0, 5).window_features(0, 10);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_tick_panics() {
        LmtRecorder::new(0, 5).push_tick(&[]);
    }
}
