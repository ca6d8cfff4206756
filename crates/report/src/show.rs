//! `iotax-report show`: render one run ledger for a human.

use crate::fmt_us;
use iotax_obs::{assemble_span_tree, RunFile, RunManifest, SpanNode};
use std::fmt::Write as _;

/// Renders a run ledger: manifest header, span tree annotated with total
/// and self time, the critical path, final metrics, and the taxonomy
/// stage payloads when the run carried them.
pub fn render_show(run: &RunFile) -> String {
    let mut out = String::new();
    #[expect(clippy::let_underscore_must_use, reason = "fmt::Write into a String is infallible")]
    let _ = render_show_into(&mut out, run);
    out
}

fn render_show_into(out: &mut String, run: &RunFile) -> std::fmt::Result {
    manifest_into(out, &run.manifest)?;

    let forest = assemble_span_tree(&run.spans);
    if !forest.is_empty() {
        writeln!(out, "\nspans (total, self):")?;
        for root in &forest {
            render_node(out, root, 1)?;
        }
        if let Some((names, leaf_us)) = critical_path(&forest) {
            let total: u64 = forest.iter().map(|r| r.duration_us).sum();
            writeln!(
                out,
                "critical path: {}  ({} of {})",
                names.join(" → "),
                fmt_us(leaf_us),
                fmt_us(total)
            )?;
        }
    }

    if !run.counters.is_empty() {
        writeln!(out, "\ncounters:")?;
        for c in &run.counters {
            writeln!(out, "  {:<40} {}", c.name, c.value)?;
        }
    }
    if !run.histograms.is_empty() {
        writeln!(out, "\nhistograms (count / mean / p50 / p95 / p99):")?;
        for h in &run.histograms {
            writeln!(
                out,
                "  {:<40} {} / {:.1} / {} / {} / {}",
                h.name, h.count, h.mean, h.p50, h.p95, h.p99
            )?;
        }
    }

    if let Some(gauges) = run.gauges.as_deref() {
        if !gauges.is_empty() {
            writeln!(out, "\ngauges (informational):")?;
            for g in gauges {
                writeln!(out, "  {:<40} {}", g.name, g.value)?;
            }
        }
    }

    let stages = crate::stage_health(run);
    if !stages.is_empty() {
        writeln!(out, "\nstages:")?;
        for s in &stages {
            let status = if s.degraded {
                format!("DEGRADED — {}", s.reason.as_deref().unwrap_or("unspecified"))
            } else {
                "ok".to_owned()
            };
            writeln!(out, "  {:<22} {status}", s.stage)?;
        }
    }
    let metrics = crate::stage_metrics(run);
    if !metrics.is_empty() {
        writeln!(out, "\nstage metrics:")?;
        for m in &metrics {
            writeln!(out, "  {:<22} {:<28} {:.6}", m.stage, m.metric, m.value)?;
        }
    }
    Ok(())
}

/// The identity block: run id, tool, args, wall time, config digest,
/// seeds, and the [`iotax_obs::InputDigest`] line per recorded input.
fn manifest_into(out: &mut String, m: &RunManifest) -> std::fmt::Result {
    writeln!(out, "run      {}", m.run_id)?;
    writeln!(out, "tool     {} v{}", m.tool, m.tool_version)?;
    writeln!(out, "args     {}", m.args.join(" "))?;
    writeln!(out, "wall     {}   exit {}", fmt_us(m.wall_us), m.exit_status)?;
    writeln!(out, "config   {}", m.config_digest)?;
    for (name, value) in &m.seeds {
        writeln!(out, "seed     {name} = {value}")?;
    }
    for input in &m.inputs {
        writeln!(out, "input    {} ({} B, {})", input.path, input.bytes, input.digest)?;
    }
    Ok(())
}

/// One line per span: indentation by depth, then total and self time.
fn render_node(out: &mut String, node: &SpanNode, depth: usize) -> std::fmt::Result {
    let children_us: u64 = node.children.iter().map(|c| c.duration_us).sum();
    let self_us = node.duration_us.saturating_sub(children_us);
    writeln!(
        out,
        "{}{:<w$} {:>10}  {:>10}",
        "  ".repeat(depth),
        node.name,
        fmt_us(node.duration_us),
        fmt_us(self_us),
        w = 32usize.saturating_sub(2 * depth),
    )?;
    for child in &node.children {
        render_node(out, child, depth + 1)?;
    }
    Ok(())
}

/// The chain of heaviest spans from the heaviest root down to a leaf,
/// with the leaf's duration. `None` on an empty forest.
pub(crate) fn critical_path(forest: &[SpanNode]) -> Option<(Vec<String>, u64)> {
    let mut node = forest.iter().max_by_key(|r| r.duration_us)?;
    let mut names = vec![node.name.clone()];
    while let Some(next) = node.children.iter().max_by_key(|c| c.duration_us) {
        names.push(next.name.clone());
        node = next;
    }
    Some((names, node.duration_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_run;

    #[test]
    fn show_includes_tree_and_critical_path() {
        let run = synthetic_run("tool", 1_000);
        let text = render_show(&run);
        assert!(text.contains("run      tool-0000000000000000"), "{text}");
        assert!(text.contains("seed     seed = 42"), "{text}");
        // Root total 10 ms, self 10 − 9 = 1 ms.
        assert!(text.contains("10.0 ms"), "{text}");
        assert!(text.contains("1.0 ms"), "{text}");
        assert!(text.contains("critical path: tool → fit"), "{text}");
    }

    #[test]
    fn show_renders_gauges_when_present() {
        let mut run = synthetic_run("tool", 1_000);
        assert!(!render_show(&run).contains("gauges"), "no section without gauges");
        run.gauges = Some(vec![iotax_obs::GaugeSnapshot {
            name: "heap.peak_bytes.core.baseline".into(),
            value: 123_456,
        }]);
        let text = render_show(&run);
        assert!(text.contains("gauges (informational):"), "{text}");
        assert!(text.contains("heap.peak_bytes.core.baseline"), "{text}");
        assert!(text.contains("123456"), "{text}");
    }

    #[test]
    fn critical_path_follows_heaviest_child() {
        let run = synthetic_run("t", 10);
        let forest = assemble_span_tree(&run.spans);
        let (names, leaf_us) = critical_path(&forest).expect("non-empty");
        assert_eq!(names, vec!["t".to_owned(), "fit".to_owned()]);
        assert_eq!(leaf_us, 70);
    }

    #[test]
    fn critical_path_of_empty_forest_is_none() {
        assert!(critical_path(&[]).is_none());
    }
}
