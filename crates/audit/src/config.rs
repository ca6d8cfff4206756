//! `audit.toml`: per-crate lint configuration.
//!
//! The workspace vendors no TOML crate, so this module parses the small
//! subset the config needs: `[section]` headers, `key = value` pairs with
//! boolean, integer, string, and string-array values, and `#` comments.
//! Anything outside that subset is a hard [`iotax_obs::ErrorKind::Parse`]
//! error — a silently misread lint config is worse than a loud one.
//!
//! ```toml
//! [workspace]
//! include-tests = false
//! exclude-dirs = ["fixtures"]
//!
//! [default]
//! nondeterministic-time = true
//!
//! [crate.iotax-darshan]
//! panic-in-parser = true
//!
//! [crate.iotax-core]
//! unspanned-stage = true
//! stage-functions = ["baseline", "app_litmus"]
//! ```

use iotax_obs::{Error, ErrorKind, Result};
use std::collections::BTreeMap;

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TomlValue {
    /// `true` / `false`.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// `"…"`.
    Str(String),
    /// `["a", "b"]`.
    StrArray(Vec<String>),
}

/// Parsed config file: section name → key → value. Section names keep
/// their dotted form (`crate.iotax-darshan`) verbatim.
pub(crate) type Sections = BTreeMap<String, BTreeMap<String, TomlValue>>;

/// Parse the TOML subset. `origin` names the file in error messages.
pub(crate) fn parse_toml_subset(text: &str, origin: &str) -> Result<Sections> {
    let mut sections: Sections = BTreeMap::new();
    let mut current = String::from("");
    sections.entry(current.clone()).or_default();
    for (no, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| {
            Error::new(ErrorKind::Parse, format!("{origin}:{}: {msg}: {raw:?}", no + 1))
        };
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err("unterminated section header"));
            };
            current = name.trim().to_owned();
            sections.entry(current.clone()).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err("expected `key = value`"));
        };
        let value = parse_value(value.trim()).ok_or_else(|| err("unsupported value"))?;
        sections.entry(current.clone()).or_default().insert(key.trim().to_owned(), value);
    }
    Ok(sections)
}

/// Drop a trailing `# comment`, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return line.get(..i).unwrap_or(line),
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Option<TomlValue> {
    match v {
        "true" => return Some(TomlValue::Bool(true)),
        "false" => return Some(TomlValue::Bool(false)),
        _ => {}
    }
    if let Some(inner) = v.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Some(TomlValue::StrArray(Vec::new()));
        }
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            items.push(part.strip_prefix('"')?.strip_suffix('"')?.to_owned());
        }
        return Some(TomlValue::StrArray(items));
    }
    if let Some(s) = v.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Some(TomlValue::Str(s.to_owned()));
    }
    v.parse::<i64>().ok().map(TomlValue::Int)
}

/// Effective lint settings for one crate.
#[derive(Debug, Clone, Default)]
// audit:allow(dead-public-api) -- parameter type of audit_source, the seam tests/lint_fixtures.rs drives
pub struct CrateConfig {
    /// lint name → enabled.
    pub lints: BTreeMap<String, bool>,
    /// `panic-in-parser`: also flag direct indexing (`x[i]`).
    pub check_indexing: bool,
    /// `unspanned-stage`: functions that must open an obs span.
    pub stage_functions: Vec<String>,
}

impl CrateConfig {
    /// Is `lint` enabled for this crate?
    pub(crate) fn enabled(&self, lint: &str) -> bool {
        self.lints.get(lint).copied().unwrap_or(false)
    }
}

/// One writer/reader schema pair for the `schema-drift` analysis: a
/// serialized struct, an optional hand-rolled writer function whose body
/// is mined for added/filtered keys, and the reader files whose field
/// probes must match what the writer emits.
///
/// ```toml
/// [schema.ingest-report]
/// struct = "IngestReport"
/// writer-fn = "tagged"
/// writer-file = "crates/cli/src/ingest.rs"
/// readers = ["tests/chaos.rs"]
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
// audit:allow(dead-public-api) -- element type of AuditConfig's public `schemas` field; the iotax-audit bin loads AuditConfig
pub struct SchemaPair {
    /// Pair name (the `NAME` in `[schema.NAME]`), used in messages.
    pub name: String,
    /// The `#[derive(Serialize)]` struct whose fields go on the wire.
    pub strukt: String,
    /// Hand-rolled writer function to mine for `("key".to_owned(), …)`
    /// additions and `!= "key"` filters. `None` means the struct
    /// serializes as-is.
    pub writer_fn: Option<String>,
    /// Path substring locating the writer function's file. Defaults to
    /// the file defining the struct.
    pub writer_file: Option<String>,
    /// Path substrings of reader files whose `get("…")` calls and
    /// JSON-key string probes are checked against the writer's fields.
    pub readers: Vec<String>,
}

/// The whole audit configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Also lint `tests/` directories and `#[cfg(test)]` items.
    pub include_tests: bool,
    /// Directory names skipped anywhere in the tree (e.g. lint fixtures).
    pub exclude_dirs: Vec<String>,
    /// `[schema.NAME]` writer/reader pairs for `schema-drift`.
    pub schemas: Vec<SchemaPair>,
    /// `[default]` settings.
    default: CrateConfig,
    /// `[crate.NAME]` overrides.
    per_crate: BTreeMap<String, CrateConfig>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            include_tests: false,
            exclude_dirs: vec!["fixtures".to_owned()],
            schemas: Vec::new(),
            default: CrateConfig::default(),
            per_crate: BTreeMap::new(),
        }
    }
}

impl AuditConfig {
    /// Parse from `audit.toml` text. Unknown lint names in the config are
    /// a parse error so typos cannot silently disable a check.
    pub fn from_toml(text: &str, origin: &str, known_lints: &[&str]) -> Result<Self> {
        let sections = parse_toml_subset(text, origin)?;
        let mut cfg = AuditConfig::default();
        for (section, keys) in &sections {
            if section.is_empty() && keys.is_empty() {
                continue;
            }
            match section.as_str() {
                "workspace" => {
                    for (k, v) in keys {
                        match (k.as_str(), v) {
                            ("include-tests", TomlValue::Bool(b)) => cfg.include_tests = *b,
                            ("exclude-dirs", TomlValue::StrArray(a)) => {
                                cfg.exclude_dirs = a.clone()
                            }
                            _ => {
                                return Err(Error::new(
                                    ErrorKind::Parse,
                                    format!("{origin}: unknown [workspace] key `{k}`"),
                                ))
                            }
                        }
                    }
                }
                "default" => apply_crate_keys(&mut cfg.default, keys, origin, known_lints)?,
                other => {
                    if let Some(name) = other.strip_prefix("schema.") {
                        cfg.schemas.push(parse_schema_pair(name, keys, origin)?);
                        continue;
                    }
                    let Some(name) = other.strip_prefix("crate.") else {
                        return Err(Error::new(
                            ErrorKind::Parse,
                            format!("{origin}: unknown section [{other}]"),
                        ));
                    };
                    let mut crate_cfg = cfg.per_crate.remove(name).unwrap_or_default();
                    apply_crate_keys(&mut crate_cfg, keys, origin, known_lints)?;
                    cfg.per_crate.insert(name.to_owned(), crate_cfg);
                }
            }
        }
        Ok(cfg)
    }

    /// Effective settings for `crate_name`: `[default]` with the crate's
    /// overrides applied on top.
    pub(crate) fn for_crate(&self, crate_name: &str) -> CrateConfig {
        let mut eff = self.default.clone();
        if let Some(over) = self.per_crate.get(crate_name) {
            for (k, v) in &over.lints {
                eff.lints.insert(k.clone(), *v);
            }
            if !over.stage_functions.is_empty() {
                eff.stage_functions = over.stage_functions.clone();
            }
            eff.check_indexing = over.check_indexing;
        }
        eff
    }
}

fn parse_schema_pair(
    name: &str,
    keys: &BTreeMap<String, TomlValue>,
    origin: &str,
) -> Result<SchemaPair> {
    let mut pair = SchemaPair { name: name.to_owned(), ..SchemaPair::default() };
    for (k, v) in keys {
        match (k.as_str(), v) {
            ("struct", TomlValue::Str(s)) => pair.strukt = s.clone(),
            ("writer-fn", TomlValue::Str(s)) => pair.writer_fn = Some(s.clone()),
            ("writer-file", TomlValue::Str(s)) => pair.writer_file = Some(s.clone()),
            ("readers", TomlValue::StrArray(a)) => pair.readers = a.clone(),
            _ => {
                return Err(Error::new(
                    ErrorKind::Parse,
                    format!(
                        "{origin}: unknown [schema.{name}] key `{k}` \
                         (known: struct, writer-fn, writer-file, readers)"
                    ),
                ))
            }
        }
    }
    if pair.strukt.is_empty() {
        return Err(Error::new(
            ErrorKind::Parse,
            format!("{origin}: [schema.{name}] needs a `struct = \"…\"` key"),
        ));
    }
    Ok(pair)
}

fn apply_crate_keys(
    cfg: &mut CrateConfig,
    keys: &BTreeMap<String, TomlValue>,
    origin: &str,
    known_lints: &[&str],
) -> Result<()> {
    // `check-indexing` defaults true wherever a crate section appears.
    cfg.check_indexing = true;
    for (k, v) in keys {
        match (k.as_str(), v) {
            ("check-indexing", TomlValue::Bool(b)) => cfg.check_indexing = *b,
            ("stage-functions", TomlValue::StrArray(a)) => cfg.stage_functions = a.clone(),
            (lint, TomlValue::Bool(b)) if known_lints.contains(&lint) => {
                cfg.lints.insert(lint.to_owned(), *b);
            }
            (lint, _) => {
                return Err(Error::new(
                    ErrorKind::Parse,
                    format!(
                        "{origin}: `{lint}` is not a known lint or option \
                         (known: {})",
                        known_lints.join(", ")
                    ),
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINTS: &[&str] = &["panic-in-parser", "unspanned-stage", "nondeterministic-time"];

    #[test]
    fn parses_sections_values_and_comments() {
        let text = r#"
            # top comment
            [workspace]
            include-tests = false
            exclude-dirs = ["fixtures", "golden"]  # inline comment

            [default]
            nondeterministic-time = true

            [crate.iotax-core]
            unspanned-stage = true
            stage-functions = ["baseline", "ood"]
        "#;
        let cfg = AuditConfig::from_toml(text, "audit.toml", LINTS).unwrap();
        assert!(!cfg.include_tests);
        assert_eq!(cfg.exclude_dirs, vec!["fixtures", "golden"]);
        let core = cfg.for_crate("iotax-core");
        assert!(core.enabled("unspanned-stage"));
        assert!(core.enabled("nondeterministic-time"), "default inherited");
        assert_eq!(core.stage_functions, vec!["baseline", "ood"]);
        let other = cfg.for_crate("iotax-ml");
        assert!(!other.enabled("unspanned-stage"));
    }

    #[test]
    fn unknown_lint_is_a_parse_error() {
        let err = AuditConfig::from_toml("[default]\npanick = true", "a.toml", LINTS).unwrap_err();
        assert_eq!(err.kind(), iotax_obs::ErrorKind::Parse);
        assert!(err.context().contains("panick"));
    }

    #[test]
    fn malformed_lines_are_loud() {
        for bad in ["[unclosed", "just words", "k = {}"] {
            let err = parse_toml_subset(bad, "a.toml").unwrap_err();
            assert_eq!(err.kind(), iotax_obs::ErrorKind::Parse, "{bad}");
        }
    }

    #[test]
    fn schema_sections_parse_and_validate() {
        let text = r#"
            [schema.ingest-report]
            struct = "IngestReport"
            writer-fn = "tagged"
            writer-file = "crates/cli/src/ingest.rs"
            readers = ["tests/chaos.rs"]
        "#;
        let cfg = AuditConfig::from_toml(text, "a.toml", LINTS).unwrap();
        assert_eq!(cfg.schemas.len(), 1);
        let p = &cfg.schemas[0];
        assert_eq!(p.name, "ingest-report");
        assert_eq!(p.strukt, "IngestReport");
        assert_eq!(p.writer_fn.as_deref(), Some("tagged"));
        assert_eq!(p.readers, vec!["tests/chaos.rs"]);

        let missing = AuditConfig::from_toml("[schema.x]\nreaders = []", "a.toml", LINTS);
        assert!(missing.is_err(), "schema without struct must fail");
        let unknown =
            AuditConfig::from_toml("[schema.x]\nstruct = \"S\"\nfrobs = true", "a.toml", LINTS);
        assert!(unknown.is_err(), "unknown schema key must fail");
    }

    #[test]
    fn crate_override_beats_default() {
        let text = "[default]\npanic-in-parser = true\n[crate.x]\npanic-in-parser = false";
        let cfg = AuditConfig::from_toml(text, "a.toml", LINTS).unwrap();
        assert!(cfg.for_crate("y").enabled("panic-in-parser"));
        assert!(!cfg.for_crate("x").enabled("panic-in-parser"));
    }
}
