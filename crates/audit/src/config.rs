//! `audit.toml`: per-crate lint configuration.
//!
//! The workspace vendors no TOML crate, so this module parses the small
//! subset the config needs: `[section]` headers, `key = value` pairs with
//! boolean and string-array values, and `#` comments.
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
//! ```

use iotax_obs::{Error, ErrorKind, Result};
use std::collections::BTreeMap;

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TomlValue {
    /// `true` / `false`.
    Bool(bool),
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
    None
}

/// Effective lint settings for one crate.
#[derive(Debug, Clone, Default)]
// audit:allow(dead-public-api) -- parameter type of audit_source, the seam tests/lint_fixtures.rs drives
pub struct CrateConfig {
    /// lint name → enabled.
    pub lints: BTreeMap<String, bool>,
    /// `panic-in-parser`: also flag direct indexing (`x[i]`).
    pub check_indexing: bool,
}

impl CrateConfig {
    /// Is `lint` enabled for this crate?
    pub(crate) fn enabled(&self, lint: &str) -> bool {
        self.lints.get(lint).copied().unwrap_or(false)
    }
}

/// The whole audit configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Also lint `tests/` directories and `#[cfg(test)]` items.
    pub include_tests: bool,
    /// Directory names skipped anywhere in the tree (e.g. lint fixtures).
    pub exclude_dirs: Vec<String>,
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
            eff.check_indexing = over.check_indexing;
        }
        eff
    }
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

    const LINTS: &[&str] = &["panic-in-parser", "unchecked-cast", "nondeterministic-time"];

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
            unchecked-cast = true
        "#;
        let cfg = AuditConfig::from_toml(text, "audit.toml", LINTS).unwrap();
        assert!(!cfg.include_tests);
        assert_eq!(cfg.exclude_dirs, vec!["fixtures", "golden"]);
        let core = cfg.for_crate("iotax-core");
        assert!(core.enabled("unchecked-cast"));
        assert!(core.enabled("nondeterministic-time"), "default inherited");
        let other = cfg.for_crate("iotax-ml");
        assert!(!other.enabled("unchecked-cast"));
    }

    #[test]
    fn unknown_lint_is_a_parse_error() {
        let err = AuditConfig::from_toml("[default]\npanick = true", "a.toml", LINTS).unwrap_err();
        assert_eq!(err.kind(), iotax_obs::ErrorKind::Parse);
        assert!(err.context().contains("panick"));
        // Unknown sections and keys are as loud as unknown lints.
        for bad in ["[schema.ingest-report]\nreaders = []", "[workspace]\ncache = true"] {
            let err = AuditConfig::from_toml(bad, "a.toml", LINTS).unwrap_err();
            assert_eq!(err.kind(), iotax_obs::ErrorKind::Parse, "{bad}");
        }
    }

    #[test]
    fn malformed_lines_are_loud() {
        for bad in ["[unclosed", "just words", "k = {}", "k = 3", "k = \"s\""] {
            let err = parse_toml_subset(bad, "a.toml").unwrap_err();
            assert_eq!(err.kind(), iotax_obs::ErrorKind::Parse, "{bad}");
        }
    }

    #[test]
    fn crate_override_beats_default() {
        let text = "[default]\npanic-in-parser = true\n[crate.x]\npanic-in-parser = false";
        let cfg = AuditConfig::from_toml(text, "a.toml", LINTS).unwrap();
        assert!(cfg.for_crate("y").enabled("panic-in-parser"));
        assert!(!cfg.for_crate("x").enabled("panic-in-parser"));
    }
}
