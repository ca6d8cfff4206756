//! # iotax-report
//!
//! Cross-run reporting over the run ledgers written by `--ledger` (see
//! `iotax_obs::Ledger`). Four views, one per subcommand of the
//! `iotax-report` binary:
//!
//! * [`show`] — one run: manifest, span tree with self/total time, the
//!   critical path, final counters/histograms, and the taxonomy stage
//!   payloads when present.
//! * [`diff`] — two runs: per-span timing deltas, new/vanished spans,
//!   and exact drift in counters, histogram digests, and per-stage
//!   metrics (all of which are deterministic under a pinned seed — any
//!   delta there is a real behavior change, not noise).
//! * [`export`] — the span stream as a `chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev) JSON trace or as
//!   `inferno`/`flamegraph.pl` folded stacks.
//! * [`gate`] — a run against a committed baseline: fail CI when a
//!   deterministic metric drifts or a span's wall time regresses past a
//!   threshold.
//!
//! Plus the store-level views over the durable segment-log ledger store
//! (`--store`, see [`iotax_obs::store`]):
//!
//! * [`scan`] — list a store's runs with per-record integrity status,
//!   and write `.corrupt` quarantine sidecars for damaged segments.
//! * [`trajectory`](mod@trajectory) — a metric's min/p50/p95/max over
//!   the last N runs.
//! * [`crash`] — the seeded crash-injection matrix proving detection
//!   and acked-record durability for every fault kind.
//!
//! Anywhere a RUN is accepted, `STORE@last` / `STORE@<run-id-prefix>`
//! (or a bare store directory, meaning the newest run) works too — see
//! [`resolve_run`].
//!
//! The crate deliberately depends only on `iotax-obs`: tool-specific
//! payloads (taxonomy stages, audit counts) arrive as named ledger
//! sections and are decoded into local mirror structs, so `iotax-core`
//! never becomes a dependency of the reporting layer.

pub mod crash;
pub mod diff;
pub mod export;
pub mod gate;
pub mod scan;
pub mod show;
pub mod trajectory;

pub use crash::{render_crash_matrix, run_crash_matrix, CrashCase, CrashMatrix};
pub use diff::{diff_runs, render_diff, GaugeDelta, MetricDelta, RunDiff, SpanDelta};
pub use export::{to_chrome_trace, to_folded};
pub use gate::{evaluate_gate, render_gate, GateCheck, GateOutcome};
pub use scan::{
    render_scan, resolve_run, scan_ledger_store, store_runs, RecordStatus, RunEntry, StoreReport,
};
pub use show::render_show;
pub use trajectory::{render_trajectory, trajectory, Trajectory, TrajectoryPoint};

use iotax_obs::RunFile;
use serde::Deserialize;

/// Mirror of `iotax_core::StageHealth`, decoded from the `"stages"`
/// ledger section an `iotax-analyze --ledger` run attaches.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct StageHealthView {
    /// Stage span name (`core.baseline`, ...).
    pub stage: String,
    /// Whether the stage ran on degraded inputs.
    pub degraded: bool,
    /// Why, when degraded.
    pub reason: Option<String>,
}

/// Mirror of `iotax_core::StageMetric`, decoded from the
/// `"stage_metrics"` ledger section: one scalar a pipeline stage
/// measured.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct StageMetricView {
    /// Stage span name, or `attribution` for the final shares.
    pub stage: String,
    /// Metric name within the stage.
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

/// Decodes the `"stages"` section, empty when the run carried none
/// (e.g. `--stats-only`, or a non-analyze tool).
pub(crate) fn stage_health(run: &RunFile) -> Vec<StageHealthView> {
    run.section("stages").unwrap_or_default()
}

/// Decodes the `"stage_metrics"` section, empty when the run carried
/// none.
pub(crate) fn stage_metrics(run: &RunFile) -> Vec<StageMetricView> {
    run.section("stage_metrics").unwrap_or_default()
}

/// Renders a microsecond quantity at human scale (`421 µs`, `3.2 ms`,
/// `1.47 s`).
pub(crate) fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.1} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use iotax_obs::{RunFile, RunManifest, SpanRecord};

    /// A minimal synthetic run for unit tests: a root span `tool` with
    /// two children, plus whatever the caller layers on.
    pub fn synthetic_run(tool: &str, scale_us: u64) -> RunFile {
        let spans = vec![
            SpanRecord {
                name: "load".into(),
                path: format!("{tool}/load"),
                depth: 1,
                id: 2,
                parent: 1,
                thread: 1,
                start_us: 0,
                duration_us: 2 * scale_us,
            },
            SpanRecord {
                name: "fit".into(),
                path: format!("{tool}/fit"),
                depth: 1,
                id: 3,
                parent: 1,
                thread: 1,
                start_us: 2 * scale_us,
                duration_us: 7 * scale_us,
            },
            SpanRecord {
                name: tool.to_owned(),
                path: tool.to_owned(),
                depth: 0,
                id: 1,
                parent: 0,
                thread: 1,
                start_us: 0,
                duration_us: 10 * scale_us,
            },
        ];
        RunFile {
            manifest: RunManifest {
                run_id: format!("{tool}-0000000000000000"),
                tool: tool.to_owned(),
                tool_version: "0.0.0".into(),
                args: vec!["--ledger".into(), "x".into()],
                started_unix_ms: 0,
                wall_us: 10 * scale_us,
                exit_status: 0,
                config_digest: "fnv1a:0000000000000000".into(),
                seeds: vec![("seed".into(), 42)],
                inputs: Vec::new(),
            },
            spans,
            counters: Vec::new(),
            histograms: Vec::new(),
            sections: Vec::new(),
            gauges: None,
        }
    }

    #[test]
    fn fmt_us_picks_a_readable_scale() {
        assert_eq!(super::fmt_us(421), "421 µs");
        assert_eq!(super::fmt_us(3_200), "3.2 ms");
        assert_eq!(super::fmt_us(1_470_000), "1.47 s");
    }
}
