//! `iotax-report gate`: fail CI when a run regresses against a
//! committed baseline.
//!
//! Two kinds of teeth, matched to what is and is not deterministic:
//!
//! * **drift checks** — counters, histogram digests, and per-stage
//!   metrics must match the baseline exactly. Under CI's pinned seed
//!   these are bit-reproducible; any difference is a behavior change,
//!   regardless of how small.
//! * **time checks** — wall time and per-span totals may regress by at
//!   most `max_regress` percent. Spans whose baseline total is under
//!   10 ms are skipped (µs-scale spans are all scheduler noise).

use crate::diff::{diff_runs, RunDiff};
use iotax_obs::RunFile;
use std::fmt::Write as _;

/// Span totals below this baseline duration are exempt from the
/// regression threshold.
const MIN_GATED_SPAN_US: u64 = 10_000;

/// One evaluated gate condition.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(dead-public-api) -- element type of GateOutcome's public `checks` field; the iotax-report bin calls evaluate_gate
pub struct GateCheck {
    /// What was checked (`metric core.baseline/...`, `span analyze/...`).
    pub name: String,
    /// Whether the run stayed within bounds.
    pub passed: bool,
    /// Human-readable evidence (values, percentages).
    pub detail: String,
}

/// The full verdict of one gate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Every condition evaluated, failures first.
    pub checks: Vec<GateCheck>,
}

impl GateOutcome {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Percent change from `base` to `new`, +∞ when growing from zero.
fn regress_pct(base: u64, new: u64) -> f64 {
    if base == 0 {
        if new == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new as f64 - base as f64) / base as f64 * 100.0
    }
}

/// Evaluates `run` against `baseline` with a timing budget of
/// `max_regress` percent.
pub fn evaluate_gate(run: &RunFile, baseline: &RunFile, max_regress: f64) -> GateOutcome {
    // diff_runs(A, B) reports A → B; the baseline is the "from" side.
    let d: RunDiff = diff_runs(baseline, run);
    let mut checks = Vec::new();

    for m in &d.metric_deltas {
        let fmt = |v: Option<f64>| v.map_or("absent".to_owned(), |x| format!("{x:.9}"));
        checks.push(GateCheck {
            name: format!("metric {}/{}", m.stage, m.metric),
            passed: false,
            detail: format!("baseline {} → run {}", fmt(m.a), fmt(m.b)),
        });
    }
    for c in &d.counter_deltas {
        checks.push(GateCheck {
            name: format!("counter {}", c.name),
            passed: false,
            detail: format!("baseline {} → run {}", c.a, c.b),
        });
    }
    for h in &d.histogram_drift {
        checks.push(GateCheck {
            name: format!("histogram {h}"),
            passed: false,
            detail: "digest drifted from baseline".to_owned(),
        });
    }
    for s in &d.stage_changes {
        checks.push(GateCheck {
            name: "stage health".to_owned(),
            passed: false,
            detail: s.clone(),
        });
    }
    for p in &d.new_spans {
        checks.push(GateCheck {
            name: format!("span {p}"),
            passed: false,
            detail: "not present in baseline".to_owned(),
        });
    }
    for p in &d.vanished_spans {
        checks.push(GateCheck {
            name: format!("span {p}"),
            passed: false,
            detail: "present in baseline, missing from run".to_owned(),
        });
    }
    if checks.is_empty() {
        checks.push(GateCheck {
            name: "determinism".to_owned(),
            passed: true,
            detail: "all counters, histograms, and stage metrics match baseline".to_owned(),
        });
    }

    let wall = regress_pct(d.wall.0, d.wall.1);
    checks.push(GateCheck {
        name: "wall time".to_owned(),
        passed: wall <= max_regress,
        detail: format!(
            "{} → {} ({wall:+.1} %, budget {max_regress:.0} %)",
            crate::fmt_us(d.wall.0),
            crate::fmt_us(d.wall.1)
        ),
    });
    for s in &d.span_deltas {
        if s.a_us < MIN_GATED_SPAN_US {
            continue;
        }
        let pct = regress_pct(s.a_us, s.b_us);
        checks.push(GateCheck {
            name: format!("span {}", s.path),
            passed: pct <= max_regress,
            detail: format!(
                "{} → {} ({pct:+.1} %, budget {max_regress:.0} %)",
                crate::fmt_us(s.a_us),
                crate::fmt_us(s.b_us)
            ),
        });
    }

    checks.sort_by_key(|c| c.passed);
    GateOutcome { checks }
}

/// Renders the verdict, one line per check, failures first.
pub fn render_gate(outcome: &GateOutcome) -> String {
    let mut out = String::new();
    #[expect(clippy::let_underscore_must_use, reason = "fmt::Write into a String is infallible")]
    let _ = render_gate_into(&mut out, outcome);
    out
}

fn render_gate_into(out: &mut String, outcome: &GateOutcome) -> std::fmt::Result {
    for c in &outcome.checks {
        let tag = if c.passed { "PASS" } else { "FAIL" };
        writeln!(out, "{tag}  {:<44} {}", c.name, c.detail)?;
    }
    let verdict = if outcome.passed() { "gate: PASS" } else { "gate: FAIL" };
    writeln!(out, "{verdict}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_run;
    use iotax_obs::CounterSnapshot;

    #[test]
    fn identical_runs_pass_any_budget() {
        let base = synthetic_run("tool", 10_000);
        let run = synthetic_run("tool", 10_000);
        let outcome = evaluate_gate(&run, &base, 0.0);
        assert!(outcome.passed(), "{:#?}", outcome.checks);
    }

    #[test]
    fn slow_run_fails_the_timing_budget() {
        let base = synthetic_run("tool", 10_000);
        let run = synthetic_run("tool", 30_000); // 3× slower everywhere
        let outcome = evaluate_gate(&run, &base, 50.0);
        assert!(!outcome.passed());
        let text = render_gate(&outcome);
        assert!(text.contains("FAIL  wall time"), "{text}");
        assert!(text.contains("gate: FAIL"), "{text}");
        // A generous budget forgives pure timing.
        assert!(evaluate_gate(&run, &base, 500.0).passed());
    }

    #[test]
    fn counter_drift_fails_regardless_of_budget() {
        let base = synthetic_run("tool", 10_000);
        let mut run = synthetic_run("tool", 10_000);
        run.counters.push(CounterSnapshot { name: "jobs".into(), value: 1 });
        let outcome = evaluate_gate(&run, &base, 1_000_000.0);
        assert!(!outcome.passed());
        assert!(render_gate(&outcome).contains("FAIL  counter jobs"));
    }

    #[test]
    fn tiny_spans_are_exempt_from_the_timing_budget() {
        let base = synthetic_run("tool", 10); // µs-scale spans
        let run = synthetic_run("tool", 1_000); // 100× slower, still tiny
        let outcome = evaluate_gate(&run, &base, 10.0);
        // Only wall time is budgeted at this scale; span checks skipped.
        let span_checks = outcome.checks.iter().filter(|c| c.name.starts_with("span ")).count();
        assert_eq!(span_checks, 0);
    }
}
