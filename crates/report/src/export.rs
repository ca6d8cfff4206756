//! `iotax-report export`: the span stream in interchange formats.
//!
//! * **chrome-trace** — the Trace Event JSON format understood by
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//!   complete (`"ph": "X"`) event per span, timestamps in microseconds.
//! * **folded** — `flamegraph.pl` / inferno folded stacks: one line per
//!   span path with its *self* time, ready for `inferno-flamegraph`.

use iotax_obs::{RunFile, SpanRecord};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builds one chrome-trace event object from a span record.
fn trace_event(span: &SpanRecord) -> Value {
    Value::Object(vec![
        ("name".to_owned(), Value::Str(span.name.clone())),
        ("cat".to_owned(), Value::Str("span".to_owned())),
        ("ph".to_owned(), Value::Str("X".to_owned())),
        ("ts".to_owned(), Value::UInt(span.start_us)),
        ("dur".to_owned(), Value::UInt(span.duration_us)),
        ("pid".to_owned(), Value::UInt(1)),
        ("tid".to_owned(), Value::UInt(span.thread)),
        (
            "args".to_owned(),
            Value::Object(vec![("path".to_owned(), Value::Str(span.path.clone()))]),
        ),
    ])
}

/// Serializes the run's spans as a Trace Event JSON document. The
/// result is a single JSON object with a `traceEvents` array — the
/// envelope form both `chrome://tracing` and Perfetto accept.
pub fn to_chrome_trace(run: &RunFile) -> String {
    let events: Vec<Value> = run.spans.iter().map(trace_event).collect();
    let doc = Value::Object(vec![
        ("traceEvents".to_owned(), Value::Array(events)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
        (
            "otherData".to_owned(),
            Value::Object(vec![
                ("run_id".to_owned(), Value::Str(run.manifest.run_id.clone())),
                ("tool".to_owned(), Value::Str(run.manifest.tool.clone())),
            ]),
        ),
    ]);
    // Value serializes itself; the vendored encoder cannot fail on it.
    serde_json::to_string_pretty(&doc).unwrap_or_default()
}

/// Serializes the run's spans as folded stacks, one `path self_us` line
/// per span path, self time summed over occurrences and frames joined
/// with `;` as flamegraph tooling expects.
pub fn to_folded(run: &RunFile) -> String {
    // Self time of each record: its duration minus its direct children's.
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &run.spans {
        if s.parent != 0 {
            *child_us.entry(s.parent).or_insert(0) += s.duration_us;
        }
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for s in &run.spans {
        let self_us = s.duration_us.saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        *folded.entry(s.path.replace('/', ";")).or_insert(0) += self_us;
    }
    let mut out = String::new();
    for (path, us) in &folded {
        // audit:allow(swallowed-result) -- fmt::Write into a String is infallible
        let _ = writeln!(out, "{path} {us}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_run;

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let run = synthetic_run("tool", 1_000);
        let text = to_chrome_trace(&run);
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let Value::Object(fields) = &doc else { panic!("not an object") };
        let events =
            fields.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v).expect("traceEvents");
        let Value::Array(events) = events else { panic!("not an array") };
        assert_eq!(events.len(), 3);
        for event in events {
            let Value::Object(e) = event else { panic!("event not an object") };
            for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
                assert!(e.iter().any(|(k, _)| k == key), "missing {key}");
            }
            let ph = e.iter().find(|(k, _)| k == "ph").map(|(_, v)| v);
            assert!(matches!(ph, Some(Value::Str(s)) if s == "X"));
        }
    }

    #[test]
    fn folded_stacks_carry_self_time() {
        let run = synthetic_run("tool", 1_000);
        let text = to_folded(&run);
        // Root: 10 ms total − 9 ms children = 1 ms self.
        assert!(text.contains("tool 1000\n"), "{text}");
        assert!(text.contains("tool;fit 7000\n"), "{text}");
        assert!(text.contains("tool;load 2000\n"), "{text}");
    }

    #[test]
    fn folded_is_deserializable_as_plain_text_lines() {
        // Guard against accidental JSON-ification: every line must be
        // `path space integer`.
        let run = synthetic_run("tool", 3);
        for line in to_folded(&run).lines() {
            let (path, us) = line.rsplit_once(' ').expect("two fields");
            assert!(!path.is_empty());
            let _: u64 = us.parse().expect("integer self time");
        }
        // And the envelope really is not JSON.
        assert!(serde_json::from_str::<Value>(&to_folded(&run)).is_err());
    }
}
