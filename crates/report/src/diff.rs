//! `iotax-report diff`: structural comparison of two run ledgers.
//!
//! The comparison splits what it finds into two classes:
//!
//! * **timing** — wall time and per-span durations. These always move
//!   between runs and are reported as deltas, never as drift.
//! * **metrics** — counters, histogram digests, per-stage metrics, and
//!   stage health. Under a pinned seed these are bit-deterministic, so
//!   *any* difference is a behavior change worth reading.

use crate::{fmt_us, stage_health, stage_metrics};
use iotax_obs::{HistogramSummary, RunFile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate timing of one span path in both runs.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of RunDiff's public `span_deltas` field; the iotax-report bin calls diff_runs
pub struct SpanDelta {
    /// Slash-joined span path (`analyze/core.baseline/ml.gbm.fit`).
    pub path: String,
    /// Total microseconds across all occurrences, run A.
    pub a_us: u64,
    /// Total microseconds, run B.
    pub b_us: u64,
    /// Occurrence count, run A.
    pub a_count: u64,
    /// Occurrence count, run B.
    pub b_count: u64,
}

/// One counter whose final value differs (a missing counter counts as 0).
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of RunDiff's public `counter_deltas` field; the iotax-report bin calls diff_runs
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Final value in run A.
    pub a: u64,
    /// Final value in run B.
    pub b: u64,
}

/// One per-stage metric that differs between the runs. A side is `None`
/// when the metric exists only in the other run.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of RunDiff's public `metric_deltas` field; the iotax-report bin calls diff_runs
pub struct MetricDelta {
    /// Stage span name.
    pub stage: String,
    /// Metric name within the stage.
    pub metric: String,
    /// Value in run A.
    pub a: Option<f64>,
    /// Value in run B.
    pub b: Option<f64>,
}

/// One gauge whose value differs between the runs. Gauges are
/// informational (heap peaks, trace sizes): scheduling-dependent by
/// nature, so their movement is reported but never counts as drift.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of RunDiff's public `gauge_deltas` field; the iotax-report bin calls diff_runs
pub struct GaugeDelta {
    /// Gauge name.
    pub name: String,
    /// Value in run A (`None` when only run B has it).
    pub a: Option<u64>,
    /// Value in run B (`None` when only run A has it).
    pub b: Option<u64>,
}

/// Everything [`diff_runs`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Wall time of (A, B), microseconds.
    pub wall: (u64, u64),
    /// Per-path timing aggregates for paths present in both runs.
    pub span_deltas: Vec<SpanDelta>,
    /// Span paths only run B has.
    pub new_spans: Vec<String>,
    /// Span paths only run A has.
    pub vanished_spans: Vec<String>,
    /// Counters whose final values differ.
    pub counter_deltas: Vec<CounterDelta>,
    /// Histograms whose digests (count/sum/quantiles) differ.
    pub histogram_drift: Vec<String>,
    /// Per-stage metrics that differ.
    pub metric_deltas: Vec<MetricDelta>,
    /// Stage-health transitions, rendered (`core.ood: ok → DEGRADED (…)`).
    pub stage_changes: Vec<String>,
    /// Gauges whose values differ — informational only, never drift.
    pub gauge_deltas: Vec<GaugeDelta>,
}

impl RunDiff {
    /// Whether every deterministic quantity matched: no counter,
    /// histogram, stage-metric, or stage-health difference, and no span
    /// appeared or vanished. Timing deltas are ignored — two healthy
    /// identical-seed runs satisfy this. Gauge deltas are ignored too,
    /// by contract: gauges carry scheduling-dependent numbers (heap
    /// peaks), so comparing them would fail every honest gate.
    pub fn metrics_identical(&self) -> bool {
        self.counter_deltas.is_empty()
            && self.histogram_drift.is_empty()
            && self.metric_deltas.is_empty()
            && self.stage_changes.is_empty()
            && self.new_spans.is_empty()
            && self.vanished_spans.is_empty()
    }
}

/// Sums span durations and occurrence counts by path.
fn span_totals(run: &RunFile) -> BTreeMap<String, (u64, u64)> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in &run.spans {
        let entry = totals.entry(s.path.clone()).or_insert((0, 0));
        entry.0 += s.duration_us;
        entry.1 += 1;
    }
    totals
}

/// Bitwise f64 equality: NaN equals NaN, and a deterministic pipeline
/// reproduces the exact bit pattern or it drifted.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Whether two histogram digests agree on everything deterministic:
/// count, sum, and the recorded quantiles. (`mean` is derived from
/// count and sum, so it is not compared separately.)
fn same_histogram(x: &HistogramSummary, y: &HistogramSummary) -> bool {
    x.count == y.count && x.sum == y.sum && x.p50 == y.p50 && x.p95 == y.p95 && x.p99 == y.p99
}

/// Compares run A against run B.
pub fn diff_runs(a: &RunFile, b: &RunFile) -> RunDiff {
    let (ta, tb) = (span_totals(a), span_totals(b));
    let mut span_deltas = Vec::new();
    let mut vanished_spans = Vec::new();
    for (path, &(a_us, a_count)) in &ta {
        match tb.get(path) {
            Some(&(b_us, b_count)) => {
                span_deltas.push(SpanDelta { path: path.clone(), a_us, b_us, a_count, b_count })
            }
            None => vanished_spans.push(path.clone()),
        }
    }
    let new_spans: Vec<String> = tb.keys().filter(|p| !ta.contains_key(*p)).cloned().collect();

    let ca: BTreeMap<&str, u64> = a.counters.iter().map(|c| (c.name.as_str(), c.value)).collect();
    let cb: BTreeMap<&str, u64> = b.counters.iter().map(|c| (c.name.as_str(), c.value)).collect();
    let mut counter_deltas = Vec::new();
    let names: std::collections::BTreeSet<&str> = ca.keys().chain(cb.keys()).copied().collect();
    for name in names {
        let (va, vb) = (ca.get(name).copied().unwrap_or(0), cb.get(name).copied().unwrap_or(0));
        if va != vb {
            counter_deltas.push(CounterDelta { name: name.to_owned(), a: va, b: vb });
        }
    }

    let ha: BTreeMap<&str, _> = a.histograms.iter().map(|h| (h.name.as_str(), h)).collect();
    let hb: BTreeMap<&str, _> = b.histograms.iter().map(|h| (h.name.as_str(), h)).collect();
    let hnames: std::collections::BTreeSet<&str> = ha.keys().chain(hb.keys()).copied().collect();
    let mut histogram_drift = Vec::new();
    for name in hnames {
        let same = match (ha.get(name), hb.get(name)) {
            (Some(x), Some(y)) => same_histogram(x, y),
            _ => false,
        };
        if !same {
            histogram_drift.push(name.to_owned());
        }
    }

    let ma = stage_metrics(a);
    let mb = stage_metrics(b);
    let ka: BTreeMap<(String, String), f64> =
        ma.iter().map(|m| ((m.stage.clone(), m.metric.clone()), m.value)).collect();
    let kb: BTreeMap<(String, String), f64> =
        mb.iter().map(|m| ((m.stage.clone(), m.metric.clone()), m.value)).collect();
    let keys: std::collections::BTreeSet<&(String, String)> = ka.keys().chain(kb.keys()).collect();
    let mut metric_deltas = Vec::new();
    for key in keys {
        let (va, vb) = (ka.get(key).copied(), kb.get(key).copied());
        let same = match (va, vb) {
            (Some(x), Some(y)) => same_bits(x, y),
            _ => false,
        };
        if !same {
            metric_deltas.push(MetricDelta {
                stage: key.0.clone(),
                metric: key.1.clone(),
                a: va,
                b: vb,
            });
        }
    }

    let sa: BTreeMap<String, _> =
        stage_health(a).into_iter().map(|s| (s.stage.clone(), s)).collect();
    let sb: BTreeMap<String, _> =
        stage_health(b).into_iter().map(|s| (s.stage.clone(), s)).collect();
    let snames: std::collections::BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
    let mut stage_changes = Vec::new();
    for name in snames {
        let describe = |s: Option<&crate::StageHealthView>| match s {
            None => "absent".to_owned(),
            Some(s) if s.degraded => {
                format!("DEGRADED ({})", s.reason.as_deref().unwrap_or("unspecified"))
            }
            Some(_) => "ok".to_owned(),
        };
        let (da, db) = (describe(sa.get(name.as_str())), describe(sb.get(name.as_str())));
        if da != db {
            stage_changes.push(format!("{name}: {da} → {db}"));
        }
    }

    let ga: BTreeMap<&str, u64> = a
        .gauges
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|g| (g.name.as_str(), g.value))
        .collect();
    let gb: BTreeMap<&str, u64> = b
        .gauges
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|g| (g.name.as_str(), g.value))
        .collect();
    let gnames: std::collections::BTreeSet<&str> = ga.keys().chain(gb.keys()).copied().collect();
    let mut gauge_deltas = Vec::new();
    for name in gnames {
        let (va, vb) = (ga.get(name).copied(), gb.get(name).copied());
        if va != vb {
            gauge_deltas.push(GaugeDelta { name: name.to_owned(), a: va, b: vb });
        }
    }

    RunDiff {
        wall: (a.manifest.wall_us, b.manifest.wall_us),
        span_deltas,
        new_spans,
        vanished_spans,
        counter_deltas,
        histogram_drift,
        metric_deltas,
        stage_changes,
        gauge_deltas,
    }
}

/// Renders a diff for a human: drift first (the part that matters),
/// then the largest timing movements.
pub fn render_diff(d: &RunDiff) -> String {
    let mut out = String::new();
    #[expect(clippy::let_underscore_must_use, reason = "fmt::Write into a String is infallible")]
    let _ = render_diff_into(&mut out, d);
    out
}

fn render_diff_into(out: &mut String, d: &RunDiff) -> std::fmt::Result {
    writeln!(out, "wall     {} → {}", fmt_us(d.wall.0), fmt_us(d.wall.1))?;

    if d.metrics_identical() {
        writeln!(out, "metrics  identical (0 metric deltas)")?;
    } else {
        for m in &d.metric_deltas {
            let fmt = |v: Option<f64>| v.map_or("absent".to_owned(), |x| format!("{x:.6}"));
            writeln!(out, "metric   {}/{}: {} → {}", m.stage, m.metric, fmt(m.a), fmt(m.b))?;
        }
        for c in &d.counter_deltas {
            writeln!(out, "counter  {}: {} → {}", c.name, c.a, c.b)?;
        }
        for h in &d.histogram_drift {
            writeln!(out, "histogram {h}: digest drifted")?;
        }
        for s in &d.stage_changes {
            writeln!(out, "stage    {s}")?;
        }
        for p in &d.new_spans {
            writeln!(out, "span     {p}: new in B")?;
        }
        for p in &d.vanished_spans {
            writeln!(out, "span     {p}: vanished in B")?;
        }
    }

    if !d.gauge_deltas.is_empty() {
        writeln!(out, "\ngauges (informational, not drift):")?;
        for g in &d.gauge_deltas {
            let fmt = |v: Option<u64>| v.map_or("absent".to_owned(), |x| x.to_string());
            writeln!(out, "  {:<40} {} → {}", g.name, fmt(g.a), fmt(g.b))?;
        }
    }

    let mut timed: Vec<&SpanDelta> = d.span_deltas.iter().collect();
    timed.sort_by_key(|s| std::cmp::Reverse(s.a_us.abs_diff(s.b_us)));
    if !timed.is_empty() {
        writeln!(out, "\ntiming (largest movements first):")?;
        for s in timed.iter().take(15) {
            writeln!(
                out,
                "  {:<44} {:>10} → {:<10} (×{} → ×{})",
                s.path,
                fmt_us(s.a_us),
                fmt_us(s.b_us),
                s.a_count,
                s.b_count
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_run;
    use iotax_obs::{CounterSnapshot, HistogramSummary};

    #[test]
    fn identical_runs_have_identical_metrics() {
        let a = synthetic_run("tool", 1_000);
        let b = synthetic_run("tool", 2_000); // same shape, different timing
        let d = diff_runs(&a, &b);
        assert!(d.metrics_identical());
        assert_eq!(d.span_deltas.len(), 3);
        assert!(render_diff(&d).contains("0 metric deltas"));
    }

    #[test]
    fn counter_and_metric_drift_is_reported() {
        let mut a = synthetic_run("tool", 1_000);
        let mut b = synthetic_run("tool", 1_000);
        a.counters.push(CounterSnapshot { name: "jobs".into(), value: 100 });
        b.counters.push(CounterSnapshot { name: "jobs".into(), value: 99 });
        b.histograms.push(HistogramSummary {
            name: "bytes".into(),
            count: 1,
            sum: 7,
            mean: 7.0,
            p50: 7,
            p95: 7,
            p99: 7,
        });
        let d = diff_runs(&a, &b);
        assert!(!d.metrics_identical());
        assert_eq!(d.counter_deltas, vec![CounterDelta { name: "jobs".into(), a: 100, b: 99 }]);
        assert_eq!(d.histogram_drift, vec!["bytes".to_owned()]);
        let text = render_diff(&d);
        assert!(text.contains("counter  jobs: 100 → 99"), "{text}");
    }

    #[test]
    fn gauge_movement_is_reported_but_never_drift() {
        let mut a = synthetic_run("tool", 1_000);
        let mut b = synthetic_run("tool", 1_000);
        a.gauges =
            Some(vec![iotax_obs::GaugeSnapshot { name: "heap.peak_bytes".into(), value: 1024 }]);
        b.gauges =
            Some(vec![iotax_obs::GaugeSnapshot { name: "heap.peak_bytes".into(), value: 4096 }]);
        let d = diff_runs(&a, &b);
        assert_eq!(
            d.gauge_deltas,
            vec![GaugeDelta { name: "heap.peak_bytes".into(), a: Some(1024), b: Some(4096) }]
        );
        assert!(d.metrics_identical(), "gauges are informational, not drift");
        let text = render_diff(&d);
        assert!(text.contains("gauges (informational, not drift)"), "{text}");
        assert!(text.contains("heap.peak_bytes"), "{text}");
        // An old-format run (gauges: None) against a gauge-carrying run
        // reports the gauges as one-sided, still without drift.
        a.gauges = None;
        let d = diff_runs(&a, &b);
        assert_eq!(d.gauge_deltas[0].a, None);
        assert!(d.metrics_identical());
    }

    #[test]
    fn new_and_vanished_spans_break_identity() {
        let a = synthetic_run("tool", 1_000);
        let mut b = synthetic_run("tool", 1_000);
        b.spans.retain(|s| s.name != "fit");
        let d = diff_runs(&a, &b);
        assert_eq!(d.vanished_spans, vec!["tool/fit".to_owned()]);
        assert!(!d.metrics_identical());
    }
}
