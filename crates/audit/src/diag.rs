//! Findings: the diagnostic record every lint produces, and the text /
//! JSON-lines renderers.

use serde::Serialize;
use std::io;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
// audit:allow(dead-public-api) -- element type of AuditReport's public `findings` field; the iotax-audit bin renders them
pub struct Finding {
    /// Lint name (`swallowed-result`, …).
    pub lint: String,
    /// Crate the file belongs to (`iotax-darshan`).
    pub krate: String,
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Innermost item path (`salvage::parse_log_lenient`), possibly empty.
    pub item: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// Render one finding in the compiler-style text format.
pub fn render_text(f: &Finding) -> String {
    let item = if f.item.is_empty() { String::new() } else { format!(" in `{}`", f.item) };
    format!("warning[{}]: {}\n  --> {}:{}:{}{}", f.lint, f.message, f.file, f.line, f.col, item)
}

/// Write findings plus a trailing summary as JSON lines (the CI artifact
/// format; same `"record"` discriminator convention as the ingest report).
pub fn write_jsonl<W: io::Write>(
    w: &mut W,
    findings: &[Finding],
    suppressed: usize,
) -> io::Result<()> {
    for f in findings {
        let line = tagged("finding", f).map_err(io::Error::other)?;
        writeln!(w, "{line}")?;
    }
    let summary = serde::Value::Object(vec![
        ("record".to_owned(), serde::Value::Str("summary".to_owned())),
        ("new_findings".to_owned(), serde::Value::UInt(findings.len() as u64)),
        ("suppressed".to_owned(), serde::Value::UInt(suppressed as u64)),
    ]);
    let line = serde_json::to_string(&summary).map_err(io::Error::other)?;
    writeln!(w, "{line}")?;
    Ok(())
}

/// Render `value` as one JSON object line with a `"record": tag` field
/// prepended.
fn tagged<T: Serialize>(tag: &str, value: &T) -> Result<String, serde_json::Error> {
    let mut fields = vec![("record".to_owned(), serde::Value::Str(tag.to_owned()))];
    if let serde::Value::Object(rest) = value.to_value() {
        fields.extend(rest);
    }
    serde_json::to_string(&serde::Value::Object(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_has_discriminators_and_summary() {
        let f = Finding {
            lint: "swallowed-result".into(),
            krate: "iotax-darshan".into(),
            file: "crates/darshan/src/format.rs".into(),
            line: 10,
            col: 5,
            item: "parse_log".into(),
            message: "`let _ =` silently discards a Result".into(),
        };
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[f], 3).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"record\":\"finding\"")
                || lines[0].contains("\"record\": \"finding\"")
        );
        assert_eq!(lines[1], r#"{"record":"summary","new_findings":1,"suppressed":3}"#);
    }
}
