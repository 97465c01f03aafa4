//! The rule engine: the [`Rule`] trait, the rule registry, and the shared
//! helpers every rule builds its findings with.

mod locks;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::source::{SourceFile, Workspace};

pub use locks::LockDiscipline;

/// A single named check over the lexed workspace.
pub trait Rule {
    /// Stable rule identifier (used in waivers, config and JSON output).
    fn id(&self) -> &'static str;
    /// Scans the workspace and pushes findings.
    fn check(&self, workspace: &Workspace, config: &Config, out: &mut Vec<Diagnostic>);
}

/// All project rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(LockDiscipline)]
}

/// Every known rule id (waivers naming anything else are malformed).
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all_rules().iter().map(|r| r.id()).collect();
    ids.extend(["waiver-syntax", "unused-waiver"]);
    ids
}

/// Builds a diagnostic anchored at `token`, with the source line as the
/// snippet.
pub fn finding(file: &SourceFile, token: &Token, rule: &dyn Rule, message: String) -> Diagnostic {
    Diagnostic {
        file: file.path.clone(),
        line: token.line,
        col: token.col,
        rule: rule.id().to_string(),
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
