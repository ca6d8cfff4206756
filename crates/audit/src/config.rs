//! `audit.toml`: per-crate lint configuration.
//!
//! The workspace vendors no TOML crate, so this module parses the small
//! subset the config needs: `[section]` headers, `key = true|false`
//! pairs, and `#` comments. Anything outside that subset — an unknown
//! section, key or value — is a hard [`iotax_obs::ErrorKind::Parse`]
//! error: a silently misread lint config is worse than a loud one.
//!
//! ```toml
//! [default]
//! nondeterministic-time = true
//!
//! [crate.iotax-darshan]
//! panic-in-parser = true
//! ```

use iotax_obs::{Error, ErrorKind, Result};
use std::collections::BTreeMap;

/// Parsed config file: section name → key → value. Section names keep
/// their dotted form (`crate.iotax-darshan`) verbatim.
pub(crate) type Sections = BTreeMap<String, BTreeMap<String, bool>>;

/// Parse the TOML subset. `origin` names the file in error messages.
pub(crate) fn parse_toml_subset(text: &str, origin: &str) -> Result<Sections> {
    let mut sections: Sections = BTreeMap::new();
    let mut current: Option<String> = None;
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
            let name = name.trim();
            // Checked before any key, so a retired section fails as one.
            if name != "default" && !name.starts_with("crate.") {
                return Err(err("unknown section"));
            }
            sections.entry(name.to_owned()).or_default();
            current = Some(name.to_owned());
            continue;
        }
        let Some(section) = &current else {
            return Err(err("key before any section header"));
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(err("expected `key = value`"));
        };
        let value = match value.trim() {
            "true" => true,
            "false" => false,
            _ => return Err(err("unsupported value")),
        };
        sections.entry(section.clone()).or_default().insert(key.trim().to_owned(), value);
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
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// Also lint `tests/` directories and `#[cfg(test)]` items
    /// (`--include-tests`; `audit.toml` has no key for it).
    pub include_tests: bool,
    /// `[default]` settings.
    default: CrateConfig,
    /// `[crate.NAME]` overrides.
    per_crate: BTreeMap<String, CrateConfig>,
}

impl AuditConfig {
    /// Parse from `audit.toml` text. Unknown lint names in the config are
    /// a parse error so typos cannot silently disable a check.
    pub fn from_toml(text: &str, origin: &str, known_lints: &[&str]) -> Result<Self> {
        let sections = parse_toml_subset(text, origin)?;
        let mut cfg = AuditConfig::default();
        for (section, keys) in &sections {
            let target = match section.strip_prefix("crate.") {
                Some(name) => cfg.per_crate.entry(name.to_owned()).or_default(),
                None => &mut cfg.default,
            };
            apply_crate_keys(target, keys, origin, known_lints)?;
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
    keys: &BTreeMap<String, bool>,
    origin: &str,
    known_lints: &[&str],
) -> Result<()> {
    // `check-indexing` defaults true wherever a crate section appears.
    cfg.check_indexing = true;
    for (k, &v) in keys {
        match k.as_str() {
            "check-indexing" => cfg.check_indexing = v,
            lint if known_lints.contains(&lint) => {
                cfg.lints.insert(lint.to_owned(), v);
            }
            lint => {
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
            [default]
            nondeterministic-time = true  # inline comment

            [crate.iotax-core]
            unchecked-cast = true
        "#;
        let cfg = AuditConfig::from_toml(text, "audit.toml", LINTS).unwrap();
        assert!(!cfg.include_tests, "only --include-tests sets it");
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
        // Unknown sections are as loud as unknown lints; the retired
        // `[workspace]` section is one.
        let retired = "[workspace]\ninclude-tests = false\nexclude-dirs = [\"fixtures\"]";
        for bad in ["[schema.ingest-report]\nreaders = true", retired] {
            let err = AuditConfig::from_toml(bad, "a.toml", LINTS).unwrap_err();
            assert_eq!(err.kind(), iotax_obs::ErrorKind::Parse, "{bad}");
            assert!(err.context().contains("unknown section"), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_lines_are_loud() {
        for bad in [
            "[unclosed",
            "k = true", // a key before any section
            "[default]\njust words",
            "[default]\nk = {}",
            "[default]\nk = 3",
            "[default]\nk = \"s\"",
            "[default]\nk = [\"a\"]",
        ] {
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
