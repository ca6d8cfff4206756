//! Pins the `run.json` wire format. `iotax-report` diffs and CI gates
//! parse these ledgers across commits, so any drift in field names,
//! nesting, or the pretty-printed layout is a breaking change that must
//! show up here as a golden-file diff.
//!
//! Volatile fields (run id, timestamps, durations, absolute input
//! paths) are normalized to fixed placeholders before comparison; all
//! structure and every deterministic value is compared verbatim.
//!
//! This file holds exactly one test on purpose: it installs the global
//! metrics sink and snapshots the process-wide counter registry, which
//! would race with sibling tests in the same binary.

use serde::Value;
use std::path::PathBuf;

/// Replaces `key` in an object with `v`; missing keys are a structural
/// drift the later golden comparison will surface on its own.
fn set(obj: &mut [(String, Value)], key: &str, v: Value) {
    if let Some(slot) = obj.iter_mut().find(|(k, _)| k == key) {
        slot.1 = v;
    }
}

/// Zeroes every field of `run.json` that legitimately varies between
/// invocations, leaving the shape and the deterministic payload intact.
fn normalize(doc: &mut Value) {
    let Value::Object(root) = doc else { panic!("run.json is not an object") };
    for (key, value) in root.iter_mut() {
        match (key.as_str(), value) {
            ("manifest", Value::Object(m)) => {
                set(m, "run_id", Value::Str("<run-id>".to_owned()));
                set(m, "started_unix_ms", Value::UInt(0));
                set(m, "wall_us", Value::UInt(0));
                if let Some((_, Value::Array(inputs))) = m.iter_mut().find(|(k, _)| k == "inputs") {
                    for input in inputs.iter_mut() {
                        if let Value::Object(i) = input {
                            set(i, "path", Value::Str("<input-path>".to_owned()));
                        }
                    }
                }
            }
            ("spans", Value::Array(spans)) => {
                for span in spans.iter_mut() {
                    if let Value::Object(s) = span {
                        set(s, "start_us", Value::UInt(0));
                        set(s, "duration_us", Value::UInt(0));
                    }
                }
            }
            _ => {}
        }
    }
}

#[test]
fn run_json_matches_golden() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("run-ledger-golden");
    std::fs::create_dir_all(&dir).expect("creating workdir");
    let input = dir.join("manifest.csv");
    std::fs::write(&input, "job,bytes\n1,4096\n").expect("writing input fixture");

    let mut ledger = iotax_obs::Ledger::create(
        dir.join("run"),
        "iotax-test",
        "0.1.0",
        vec!["--ledger".to_owned(), "run".to_owned()],
    )
    .expect("creating ledger");
    ledger.set_config_digest(iotax_obs::digest_bytes(b"golden-config"));
    ledger.add_seed("seed", 42);
    ledger.add_input(&input);
    ledger.add_section("notes", &vec![("accuracy".to_owned(), 0.5f64)]);

    let previous = iotax_obs::set_sink(ledger.sink());
    {
        let _root = iotax_obs::span!("golden.root");
        let _inner = iotax_obs::span!("golden.inner");
        iotax_obs::counter!("golden.files").incr(3);
        let h = iotax_obs::histogram!("golden.bytes");
        for v in [100, 200, 300, 400] {
            h.record(v);
        }
    }
    iotax_obs::restore_sink(previous);
    let path = ledger.finish(0).expect("writing run.json");

    let text = std::fs::read_to_string(&path).expect("reading run.json");
    assert!(text.ends_with('\n'), "run.json ends with a newline");
    let mut doc: Value = serde_json::from_str(&text).expect("run.json is valid JSON");
    normalize(&mut doc);
    let got = serde_json::to_string_pretty(&doc).expect("re-encoding") + "\n";
    let want = include_str!("golden/run.json");
    assert_eq!(got, want, "run.json wire format drifted from the pinned golden file");
}
