//! Pins the machine-readable diagnostic format. CI parses this JSONL, so
//! any drift in field names, ordering, or item naming is a breaking change
//! that must show up here.

use iotax_audit::{audit_source, write_jsonl};

#[test]
fn jsonl_output_matches_golden() {
    let src = include_str!("fixtures/unsynced_durable_write_violating.rs");
    let report =
        audit_source("fixture", "tests/fixtures/unsynced_durable_write_violating.rs", src, false);
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &report.findings, report.suppressed).expect("write to Vec");
    let got = String::from_utf8(buf).expect("jsonl is utf-8");
    let want = include_str!("golden/unsynced_durable_write.jsonl");
    assert_eq!(got, want, "JSONL diagnostic format drifted from the pinned golden file");
}

#[test]
fn every_jsonl_line_is_valid_json_with_a_record_tag() {
    for line in include_str!("golden/unsynced_durable_write.jsonl").lines() {
        let v: serde::Value = serde_json::from_str(line).expect("valid JSON line");
        match v {
            serde::Value::Object(fields) => {
                assert!(
                    fields.iter().any(|(k, _)| k == "record"),
                    "line missing record discriminator: {line}"
                );
            }
            _ => panic!("JSONL line is not an object: {line}"),
        }
    }
}
