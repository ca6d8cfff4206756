//! Cross-run trajectory queries over a ledger store.
//!
//! The taxonomy's whole point is that drift, OOD shifts, and noise-floor
//! effects only show up *across* runs — `iotax-report trajectory` answers
//! questions like "p95 of `core.ood` over the last 50 runs" directly
//! against a store. A metric KEY resolves, in order: `wall_us` (run wall
//! time), an exact counter name, `STAGE.METRIC` against the
//! `stage_metrics` section, and finally a span name (summed duration of
//! matching spans, e.g. `core.ood` for that stage's wall time).

use iotax_obs::RunFile;

/// One run's value of the queried metric.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of Trajectory's public `points` field; the iotax-report bin renders it
pub struct TrajectoryPoint {
    /// The run the value came from.
    pub run_id: String,
    /// The resolved metric value.
    pub value: f64,
}

/// A metric's values over a window of runs, oldest first.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- return type of the public trajectory(), which the iotax-report bin calls
pub struct Trajectory {
    /// The queried metric key.
    pub metric: String,
    /// Resolved values in store (chronological) order.
    pub points: Vec<TrajectoryPoint>,
    /// Runs in the window that did not carry the metric.
    pub missing: usize,
}

impl Trajectory {
    /// Nearest-rank percentile over the window, `p` in `0..=100`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let mut values: Vec<f64> = self.points.iter().map(|pt| pt.value).collect();
        values.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
        Some(values[rank.clamp(1, values.len()) - 1])
    }

    /// Smallest value in the window.
    pub fn min(&self) -> Option<f64> {
        self.points.iter().map(|p| p.value).min_by(f64::total_cmp)
    }

    /// Largest value in the window.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|p| p.value).max_by(f64::total_cmp)
    }

    /// Arithmetic mean over the window.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64)
    }

    /// The newest value in the window.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }
}

/// Resolves `key` against one run, trying each namespace in order.
fn metric_value(run: &RunFile, key: &str) -> Option<f64> {
    if key == "wall_us" {
        return Some(run.manifest.wall_us as f64);
    }
    if let Some(c) = run.counters.iter().find(|c| c.name == key) {
        return Some(c.value as f64);
    }
    if let Some(m) =
        crate::stage_metrics(run).iter().find(|m| format!("{}.{}", m.stage, m.metric) == *key)
    {
        return Some(m.value);
    }
    let span_total: u64 = run.spans.iter().filter(|s| s.name == key).map(|s| s.duration_us).sum();
    if run.spans.iter().any(|s| s.name == key) {
        return Some(span_total as f64);
    }
    None
}

/// Extracts `metric` from the newest `last` runs of `runs` (which must be
/// in chronological order, as [`store_runs`](crate::store_runs) returns).
pub fn trajectory(runs: &[RunFile], metric: &str, last: usize) -> Trajectory {
    let window_start = runs.len().saturating_sub(last);
    let mut points = Vec::new();
    let mut missing = 0usize;
    for run in &runs[window_start..] {
        match metric_value(run, metric) {
            Some(value) => {
                points.push(TrajectoryPoint { run_id: run.manifest.run_id.clone(), value })
            }
            None => missing += 1,
        }
    }
    Trajectory { metric: metric.to_owned(), points, missing }
}

/// Renders the trajectory summary plus the per-run tail.
pub fn render_trajectory(t: &Trajectory) -> String {
    let mut out = String::new();
    #[expect(clippy::let_underscore_must_use, reason = "fmt::Write into a String is infallible")]
    let _ = render_trajectory_into(&mut out, t);
    out
}

fn render_trajectory_into(out: &mut String, t: &Trajectory) -> std::fmt::Result {
    use std::fmt::Write as _;
    writeln!(out, "trajectory of {} over {} run(s)", t.metric, t.points.len())?;
    if t.missing > 0 {
        writeln!(out, "  ({} run(s) in the window did not carry the metric)", t.missing)?;
    }
    match (t.min(), t.max(), t.mean(), t.percentile(50.0), t.percentile(95.0), t.last()) {
        (Some(min), Some(max), Some(mean), Some(p50), Some(p95), Some(last)) => {
            writeln!(out, "  min  {min:.6}")?;
            writeln!(out, "  p50  {p50:.6}")?;
            writeln!(out, "  mean {mean:.6}")?;
            writeln!(out, "  p95  {p95:.6}")?;
            writeln!(out, "  max  {max:.6}")?;
            writeln!(out, "  last {last:.6}")?;
        }
        _ => {
            writeln!(out, "  no data")?;
        }
    }
    for p in &t.points {
        writeln!(out, "  {:<34} {:.6}", p.run_id, p.value)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_run;

    fn runs_with_wall(walls: &[u64]) -> Vec<RunFile> {
        walls
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut run = synthetic_run("iotax-analyze", 100);
                run.manifest.run_id = format!("iotax-analyze-{i:03}");
                run.manifest.wall_us = w;
                run
            })
            .collect()
    }

    #[test]
    fn wall_us_trajectory_with_window_and_percentiles() {
        let runs = runs_with_wall(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        let t = trajectory(&runs, "wall_us", 5);
        assert_eq!(t.points.len(), 5);
        assert_eq!(t.points[0].value, 60.0);
        assert_eq!(t.last(), Some(100.0));
        assert_eq!(t.percentile(50.0), Some(80.0));
        assert_eq!(t.percentile(95.0), Some(100.0));
        assert_eq!(t.min(), Some(60.0));
        assert_eq!(t.max(), Some(100.0));
        assert_eq!(t.mean(), Some(80.0));
    }

    #[test]
    fn span_name_resolves_to_summed_stage_duration() {
        let runs = runs_with_wall(&[1000]);
        // synthetic_run has a depth-1 span "fit" with duration 7*scale.
        let t = trajectory(&runs, "fit", 10);
        assert_eq!(t.points.len(), 1);
        assert_eq!(t.points[0].value, 700.0);
        assert_eq!(t.missing, 0);
    }

    #[test]
    fn missing_metric_is_counted_not_invented() {
        let runs = runs_with_wall(&[1000, 2000]);
        let t = trajectory(&runs, "no.such.metric", 10);
        assert!(t.points.is_empty());
        assert_eq!(t.missing, 2);
        assert_eq!(t.percentile(95.0), None);
        assert!(render_trajectory(&t).contains("no data"));
    }
}
