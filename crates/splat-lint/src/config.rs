//! Linter configuration: excluded paths and the lock rule's heavy calls,
//! loaded from `splat-lint.toml` at the workspace root.
//!
//! The parser is a deliberately tiny TOML subset — `[section]` headers,
//! `key = "string"` and `key = ["a", "b", ...]` (arrays may span lines) —
//! because the workspace is offline and dependency-free by policy.

use std::fmt;
use std::path::Path;

/// Parsed configuration with workspace-specific scopes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes (workspace-relative) excluded from the walk.
    pub exclude: Vec<String>,
    /// Identifiers that must not be called while the registry guard is
    /// held (allocation-heavy scene preparation).
    pub heavy_calls: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            exclude: Vec::new(),
            heavy_calls: vec!["prepare".to_string(), "PreparedScene".to_string()],
        }
    }
}

/// A configuration-file problem (I/O or syntax).
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "splat-lint.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Loads `root/splat-lint.toml` when present, otherwise defaults.
    pub fn load(root: &Path) -> Result<Self, ConfigError> {
        let path = root.join("splat-lint.toml");
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(ConfigError(format!("{}: {e}", path.display()))),
        }
    }

    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut config = Self::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError(format!(
                    "line {}: expected `key = value`",
                    n + 1
                )));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Arrays may span lines: accumulate until brackets balance.
            while value.starts_with('[') && !balanced(&value) {
                match lines.next() {
                    Some((_, next)) => {
                        value.push(' ');
                        value.push_str(strip_comment(next).trim());
                    }
                    None => return Err(ConfigError(format!("line {}: unterminated array", n + 1))),
                }
            }
            config.apply(&section, key, &value, n + 1)?;
        }
        Ok(config)
    }

    fn apply(
        &mut self,
        section: &str,
        key: &str,
        value: &str,
        line: usize,
    ) -> Result<(), ConfigError> {
        match (section, key) {
            ("files", "exclude") => self.exclude = parse_array(value, line)?,
            ("lock-discipline", "heavy-calls") => self.heavy_calls = parse_array(value, line)?,
            _ => {
                return Err(ConfigError(format!(
                    "line {line}: unknown key `{key}` in section `[{section}]`"
                )))
            }
        }
        Ok(())
    }
}

/// Strips a `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escape = false;
    for (i, ch) in line.char_indices() {
        match ch {
            _ if escape => escape = false,
            '\\' if in_string => escape = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced(value: &str) -> bool {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escape = false;
    for ch in value.chars() {
        match ch {
            _ if escape => escape = false,
            '\\' if in_string => escape = true,
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string(value: &str, line: usize) -> Result<String, ConfigError> {
    let value = value.trim();
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(|v| v.replace("\\\"", "\"").replace("\\\\", "\\"))
        .ok_or_else(|| {
            ConfigError(format!(
                "line {line}: expected a quoted string, got `{value}`"
            ))
        })
}

fn parse_array(value: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ConfigError(format!("line {line}: expected an array")))?;
    let mut items = Vec::new();
    for item in split_top_level(inner) {
        let item = item.trim();
        if !item.is_empty() {
            items.push(parse_string(item, line)?);
        }
    }
    Ok(items)
}

/// Splits on commas outside of strings.
fn split_top_level(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escape = false;
    for (i, ch) in text.char_indices() {
        match ch {
            _ if escape => escape = false,
            '\\' if in_string => escape = true,
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_and_arrays() {
        let config = Config::parse(
            "# top comment\n[files]\nexclude = [\"a/\", \"b/\"] # trailing\n\n[lock-discipline]\nheavy-calls = [\n    \"prepare\",\n    \"rebuild\",\n]\n",
        )
        .unwrap();
        assert_eq!(config.exclude, ["a/", "b/"]);
        assert_eq!(config.heavy_calls, ["prepare", "rebuild"]);
    }

    #[test]
    fn unknown_keys_and_bad_severities_error() {
        assert!(Config::parse("[files]\nnope = \"x\"\n").is_err());
        // Every finding is an error: a severity override is an unknown key.
        assert!(Config::parse("[severity]\nlock-discipline = \"warn\"\n").is_err());
        assert!(Config::parse("[files]\nexclude = [\"unterminated\"\n").is_err());
    }
}
