//! The rule engine: the [`Rule`] trait, the rule registry, and shared
//! token-level parsing helpers (identifiers, enum variants) used by the
//! structural cross-check rules.

mod coverage;
mod locks;
mod nondeterminism;
mod panic_paths;

use crate::config::{Config, Severity};
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::source::{SourceFile, Workspace};

pub use coverage::{ErrorCoverage, PreludeCoverage};
pub use locks::LockDiscipline;
pub use nondeterminism::NoNondeterminism;
pub use panic_paths::{NoIndexPanic, NoPanicPaths};

/// A single named check over the lexed workspace.
pub trait Rule {
    /// Stable rule identifier (used in waivers, config and JSON output).
    fn id(&self) -> &'static str;
    /// Severity applied when `splat-lint.toml` does not override it.
    fn default_severity(&self) -> Severity;
    /// Scans the workspace and pushes findings.
    fn check(&self, workspace: &Workspace, config: &Config, out: &mut Vec<Diagnostic>);
}

/// All project rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicPaths),
        Box::new(NoIndexPanic),
        Box::new(NoNondeterminism),
        Box::new(LockDiscipline),
        Box::new(ErrorCoverage),
        Box::new(PreludeCoverage),
    ]
}

/// Every known rule id (waivers naming anything else are malformed).
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all_rules().iter().map(|r| r.id()).collect();
    ids.extend(["waiver-syntax", "unused-waiver"]);
    ids
}

/// Builds a diagnostic anchored at `token`, with the source line as the
/// snippet. The severity is provisional; the engine applies overrides.
pub fn finding(file: &SourceFile, token: &Token, rule: &dyn Rule, message: String) -> Diagnostic {
    Diagnostic {
        file: file.path.clone(),
        line: token.line,
        col: token.col,
        rule: rule.id().to_string(),
        severity: rule.default_severity(),
        message,
        snippet: file.line_text(token.line).to_string(),
    }
}

/// `(index, token)` pairs of non-comment tokens, materialized once so
/// rules can look behind/ahead cheaply.
pub fn code_tokens(file: &SourceFile) -> Vec<(usize, Token)> {
    file.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokenKind::Comment)
        .map(|(i, t)| (i, *t))
        .collect()
}

/// Whether the identifier `name` occurs as a code token in `file`.
pub fn contains_ident(file: &SourceFile, name: &str) -> bool {
    file.tokens
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text(&file.text) == name)
}

/// Parses the variant names of `enum name { A, B(..), C{..} }`.
pub fn enum_variants(file: &SourceFile, name: &str) -> Vec<(String, Token)> {
    let code = code_tokens(file);
    let mut variants = Vec::new();
    let Some(open) = find_item_open(&code, file, "enum", name) else {
        return variants;
    };
    let mut depth = 1i64;
    let mut expecting = true;
    let mut i = open + 1;
    while i < code.len() && depth > 0 {
        let t = &code[i].1;
        match t.kind {
            // Skip `#[...]` attributes between variants.
            TokenKind::Punct('#') if depth == 1 => {
                let mut d = 0i64;
                i += 1;
                while i < code.len() {
                    match code[i].1.kind {
                        TokenKind::Punct('[') => d += 1,
                        TokenKind::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            TokenKind::Punct('{') | TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct('}') | TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct(',') if depth == 1 => expecting = true,
            TokenKind::Ident if depth == 1 && expecting => {
                variants.push((t.text(&file.text).to_string(), *t));
                expecting = false;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// Finds the code-token index of the `{` opening `kind name ... {`.
fn find_item_open(
    code: &[(usize, Token)],
    file: &SourceFile,
    kind: &str,
    name: &str,
) -> Option<usize> {
    for i in 0..code.len().saturating_sub(1) {
        if code[i].1.is_ident(&file.text, kind) && code[i + 1].1.is_ident(&file.text, name) {
            let mut j = i + 2;
            while j < code.len() {
                match code[j].1.kind {
                    TokenKind::Punct('{') => return Some(j),
                    TokenKind::Punct(';') => return None, // tuple/unit struct
                    _ => j += 1,
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_variants_skip_payloads_and_attributes() {
        let file = SourceFile::new(
            "crates/splat-types/src/error.rs",
            "pub enum RenderError {\n    EmptyScene,\n    #[non_exhaustive]\n    Overloaded { capacity: usize },\n    Unknown(u64, String),\n}\n",
        );
        let names: Vec<String> = enum_variants(&file, "RenderError")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["EmptyScene", "Overloaded", "Unknown"]);
    }
}
