//! Structural cross-check rules: error variants and prelude exports are
//! parsed from their definitions and matched against the surfaces that
//! must cover them, so adding a variant or config knob without covering it
//! is a lint error. (Counters need no such rule: the `counters!`
//! definition generates every surface from the one field list.)

use crate::config::{Config, Severity};
use crate::diag::Diagnostic;
use crate::source::{FileKind, Workspace};

use super::{code_tokens, contains_ident, enum_variants, finding, Rule};
use crate::lexer::TokenKind;

/// The error enums whose every variant must be exercised by
/// `tests/error_paths.rs`.
const ERROR_ENUMS: [(&str, &str); 2] = [
    ("RenderError", "crates/splat-types/src/error.rs"),
    ("DecodeError", "crates/splat-scene/src/io.rs"),
];

/// `error-coverage`: every error variant appears in the error-path test.
pub struct ErrorCoverage;

impl Rule for ErrorCoverage {
    fn id(&self) -> &'static str {
        "error-coverage"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, workspace: &Workspace, _config: &Config, out: &mut Vec<Diagnostic>) {
        for (name, path) in ERROR_ENUMS {
            let Some(file) = workspace.file(path) else {
                continue;
            };
            let variants = enum_variants(file, name);
            if variants.is_empty() {
                continue;
            }
            let Some(test_file) = workspace.file("tests/error_paths.rs") else {
                let (_, token) = &variants[0];
                out.push(finding(
                    file,
                    token,
                    self,
                    format!("`{name}` has variants but `tests/error_paths.rs` does not exist"),
                ));
                continue;
            };
            for (variant, token) in &variants {
                if !contains_ident(test_file, variant) {
                    out.push(finding(
                        file,
                        token,
                        self,
                        format!(
                            "`{name}::{variant}` is never mentioned in \
                             `tests/error_paths.rs`: every error variant must be \
                             constructible through the public API and have its `Display` \
                             pinned"
                        ),
                    ));
                }
            }
        }
    }
}

/// `prelude-coverage`: every public config-knob type (`*Config`,
/// `*Policy`, `*Mode`) defined in a runtime crate is re-exported from the
/// umbrella prelude, so serving configuration never requires deep paths.
pub struct PreludeCoverage;

impl Rule for PreludeCoverage {
    fn id(&self) -> &'static str {
        "prelude-coverage"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, workspace: &Workspace, config: &Config, out: &mut Vec<Diagnostic>) {
        let Some(prelude) = workspace.file(&config.prelude_file) else {
            return; // fixture workspaces without an umbrella crate
        };
        for file in workspace
            .files
            .iter()
            .filter(|f| f.is_runtime_crate() && f.kind == FileKind::Lib)
        {
            let code = code_tokens(file);
            for w in 0..code.len().saturating_sub(2) {
                let (idx, token) = code[w];
                if !token.is_ident(&file.text, "pub") || file.in_test_code(idx) {
                    continue;
                }
                // `pub struct Name` / `pub enum Name` — `pub(crate)` and
                // deeper visibilities are not public API.
                let (_, kw) = code[w + 1];
                if !(kw.is_ident(&file.text, "struct") || kw.is_ident(&file.text, "enum")) {
                    continue;
                }
                let (_, name_token) = code[w + 2];
                if name_token.kind != TokenKind::Ident {
                    continue;
                }
                let name = name_token.text(&file.text);
                let is_knob = ["Config", "Policy", "Mode"]
                    .iter()
                    .any(|suffix| name.ends_with(suffix) && name.len() > suffix.len());
                if !is_knob || config.prelude_exclude.iter().any(|e| e == name) {
                    continue;
                }
                if !contains_ident(prelude, name) {
                    out.push(finding(
                        file,
                        &name_token,
                        self,
                        format!(
                            "public config knob `{name}` is not re-exported from the \
                             prelude (`{}`): add it, or exclude it in `splat-lint.toml` \
                             with a rationale",
                            config.prelude_file
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_variants_must_reach_the_error_path_test() {
        let workspace = Workspace::from_sources(vec![
            (
                "crates/splat-types/src/error.rs",
                "pub enum RenderError { EmptyScene, Overloaded { capacity: usize } }\n",
            ),
            (
                "tests/error_paths.rs",
                "fn t() { let _ = RenderError::EmptyScene; }\n",
            ),
        ]);
        let mut out = Vec::new();
        ErrorCoverage.check(&workspace, &Config::default(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Overloaded"));
    }

    #[test]
    fn config_knobs_must_be_in_the_prelude() {
        let workspace = Workspace::from_sources(vec![
            (
                "crates/splat-render/src/config.rs",
                "pub struct RenderConfig { pub x: u32 }\npub enum PrepassMode { A }\npub(crate) struct InternalConfig { y: u32 }\n",
            ),
            ("src/lib.rs", "pub mod prelude { pub use splat_render::RenderConfig; }\n"),
        ]);
        let mut out = Vec::new();
        PreludeCoverage.check(&workspace, &Config::default(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("PrepassMode"));
    }

    #[test]
    fn prelude_exclusions_suppress_the_finding() {
        let workspace = Workspace::from_sources(vec![
            (
                "crates/splat-render/src/config.rs",
                "pub enum PrepassMode { A }\n",
            ),
            ("src/lib.rs", "pub mod prelude {}\n"),
        ]);
        let mut config = Config::default();
        config.prelude_exclude.push("PrepassMode".to_string());
        let mut out = Vec::new();
        PreludeCoverage.check(&workspace, &config, &mut out);
        assert!(out.is_empty());
    }
}
