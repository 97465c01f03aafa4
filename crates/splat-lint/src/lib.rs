//! `splat-lint` — a dependency-free static-analysis pass enforcing the
//! one workspace invariant clippy has no stock lint for:
//! **`lock-discipline`** — engine mutexes are leaf locks, and scene
//! preparation runs outside the registry guard.
//!
//! The panic paths (`.unwrap()`, `.expect(`, `panic!`, `todo!`,
//! `unimplemented!`) and the determinism rules (hash collections, wall
//! clocks, RNG construction) are clippy lints, denied at each runtime
//! crate root with the lists in `clippy.toml`; `tests/lint_clean.rs` pins
//! the count of `clippy::indexing_slicing` sites in runtime library code.
//!
//! Every finding is an error. Findings are suppressed inline with
//! `// lint:allow(rule-id): reason` — the reason is mandatory, the
//! waiver applies to its own line and the next, and a waiver that never
//! fires is itself an error (`unused-waiver`), so stale exemptions
//! cannot accumulate. Scoped configuration lives in `splat-lint.toml`.
//!
//! Run it as `cargo run -p splat-lint -- check [--json]`; the library
//! entry point is [`check_workspace`] (used by `tests/lint_clean.rs` to
//! pin the live tree at zero findings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use std::path::Path;

pub use config::{Config, ConfigError};
pub use diag::{Diagnostic, Report};
pub use source::{SourceFile, Workspace};

/// Runs every rule over a lexed workspace, applies waivers, and reports
/// meta-findings (malformed/unused waivers).
pub fn run_rules(workspace: &Workspace, config: &Config) -> Report {
    let mut raw: Vec<Diagnostic> = Vec::new();
    for rule in rules::all_rules() {
        rule.check(workspace, config, &mut raw);
    }

    // Waivers: `// lint:allow(rule): reason` suppresses findings of that
    // rule on the waiver's line and the line below it.
    let mut kept: Vec<Diagnostic> = Vec::new();
    for diagnostic in raw {
        let waived = workspace
            .file(&diagnostic.file)
            .map(|file| {
                file.waivers.iter().any(|waiver| {
                    let applies = !waiver.malformed
                        && waiver.rules.iter().any(|r| r == &diagnostic.rule)
                        && (waiver.line == diagnostic.line || waiver.line + 1 == diagnostic.line);
                    if applies {
                        waiver.used.set(true);
                    }
                    applies
                })
            })
            .unwrap_or(false);
        if !waived {
            kept.push(diagnostic);
        }
    }

    // Meta-rules: waivers must be well-formed, name known rules, and
    // actually suppress something.
    let known = rules::known_rule_ids();
    for file in &workspace.files {
        for waiver in &file.waivers {
            let snippet = file.line_text(waiver.line).to_string();
            if waiver.malformed {
                kept.push(Diagnostic {
                    file: file.path.clone(),
                    line: waiver.line,
                    col: 1,
                    rule: "waiver-syntax".to_string(),
                    message: "malformed waiver: use `// lint:allow(rule-id): reason` \
                              (the reason is mandatory)"
                        .to_string(),
                    snippet,
                });
                continue;
            }
            if let Some(unknown) = waiver.rules.iter().find(|r| !known.contains(&r.as_str())) {
                kept.push(Diagnostic {
                    file: file.path.clone(),
                    line: waiver.line,
                    col: 1,
                    rule: "waiver-syntax".to_string(),
                    message: format!("waiver names unknown rule `{unknown}`"),
                    snippet,
                });
                continue;
            }
            if !waiver.used.get() {
                kept.push(Diagnostic {
                    file: file.path.clone(),
                    line: waiver.line,
                    col: 1,
                    rule: "unused-waiver".to_string(),
                    message: format!(
                        "waiver for `{}` suppresses nothing: remove it (stale exemptions \
                         hide real regressions)",
                        waiver.rules.join(", ")
                    ),
                    snippet,
                });
            }
        }
    }

    kept.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule.as_str(),
        ))
    });
    Report { diagnostics: kept }
}

/// Loads `root/splat-lint.toml`, walks the workspace and runs every
/// rule. This is the entry point used by the CLI and `lint_clean.rs`.
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    let config = Config::load(root).map_err(|e| e.to_string())?;
    let workspace = Workspace::load(root, &config.exclude)
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    Ok(run_rules(&workspace, &config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waivers_suppress_and_unused_waivers_error() {
        let workspace = Workspace::from_sources(vec![(
            "crates/splat-engine/src/x.rs",
            "fn f(&self) {\n    let a = self.queue.lock();\n    // lint:allow(lock-discipline): the queue guard is released first\n    let b = self.registry.lock();\n}\n\npub fn clean() {}\n// lint:allow(lock-discipline): nothing here\n",
        )]);
        let report = run_rules(&workspace, &Config::default());
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(rules, ["unused-waiver"], "{report:?}");
    }

    #[test]
    fn malformed_and_unknown_rule_waivers_are_errors() {
        let workspace = Workspace::from_sources(vec![(
            "crates/gstg/src/x.rs",
            "// lint:allow(lock-discipline)\n// lint:allow(imaginary-rule): because\n",
        )]);
        let report = run_rules(&workspace, &Config::default());
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(rules, ["waiver-syntax", "waiver-syntax"]);
    }
}
