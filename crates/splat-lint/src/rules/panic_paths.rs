//! `no-index-panic`: the audit of computed index expressions.
//!
//! Every `xs[i]` in the library code of the ten runtime crates is a latent
//! panic. The rule reports them as warnings, and `tests/lint_clean.rs`
//! pins their count. Tests, benches, examples and binaries are exempt, as
//! is `#[cfg(test)]` code inside library files. The other panic paths
//! (`.unwrap()`, `.expect(`, `panic!`, `todo!`, `unimplemented!`) are
//! clippy lints denied at each runtime crate root.

use crate::config::{Config, Severity};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile, Workspace};

use super::{code_tokens, finding, Rule};

/// Flags index expressions (`xs[i]`) in runtime-crate library code: each
/// one is a latent panic. Default severity is `warn` — bounds-checked
/// indexing with locally-provable bounds is idiomatic in the hot loops —
/// but the finding list is the audit surface, and `splat-lint.toml` can
/// raise it to `error` per project policy.
pub struct NoIndexPanic;

/// Keywords that can directly precede a `[` without forming an index
/// expression (slice patterns, array types, attribute openers, …).
const NON_INDEX_PREFIX: [&str; 24] = [
    "let", "mut", "ref", "in", "box", "move", "static", "const", "if", "else", "match", "return",
    "break", "continue", "use", "crate", "dyn", "impl", "for", "where", "as", "pub", "fn", "mod",
];

impl Rule for NoIndexPanic {
    fn id(&self) -> &'static str {
        "no-index-panic"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warn
    }

    fn check(&self, workspace: &Workspace, _config: &Config, out: &mut Vec<Diagnostic>) {
        for file in workspace.files.iter().filter(|f| in_scope(f)) {
            let code = code_tokens(file);
            for w in 1..code.len() {
                let (idx, token) = code[w];
                if !token.is_punct('[') || file.in_test_code(idx) {
                    continue;
                }
                let (_, prev) = code[w - 1];
                let indexes_a_value = match prev.kind {
                    TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                    TokenKind::Ident => {
                        let text = prev.text(&file.text);
                        !NON_INDEX_PREFIX.contains(&text)
                    }
                    _ => false,
                };
                // `x[0]` — a bare integer-literal index on a fixed-size
                // array is checked at compile time; only computed indices
                // are latent runtime panics.
                let literal_index = code.get(w + 1).is_some_and(|(_, t)| {
                    t.kind == TokenKind::Literal
                        && t.text(&file.text)
                            .bytes()
                            .all(|b| b.is_ascii_digit() || b == b'_')
                }) && code.get(w + 2).is_some_and(|(_, t)| t.is_punct(']'));
                if indexes_a_value && !literal_index {
                    out.push(finding(
                        file,
                        &token,
                        self,
                        "index expression in library code: panics when out of bounds; \
                         prefer `.get(..)` or document the bound"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

fn in_scope(file: &SourceFile) -> bool {
    file.is_runtime_crate() && file.kind == FileKind::Lib
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let workspace = Workspace::from_sources(vec![("crates/splat-core/src/x.rs", src)]);
        let mut out = Vec::new();
        NoIndexPanic.check(&workspace, &Config::default(), &mut out);
        out
    }

    #[test]
    fn index_expressions_warn_but_patterns_and_types_do_not() {
        let src = "pub fn f(xs: &[u32], i: usize) -> u32 {\n    let _t: [u32; 2] = [0, 0];\n    let [_a, _b] = [1u32, 2];\n    xs[i]\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 4);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn literal_indices_are_compile_checked_and_exempt() {
        let src = "pub fn f(xs: [u32; 4], i: usize) -> u32 {\n    xs[0] + xs[1_000]\n    + xs[i] + xs[i + 1] + xs[..2][0]\n}\n";
        let out = run(src);
        // `xs[0]` and `xs[1_000]` are exempt; `xs[i]`, `xs[i + 1]` and the
        // `xs[..2]` range slice still warn.
        assert_eq!(out.iter().map(|d| d.line).collect::<Vec<_>>(), [3, 3, 3]);
    }
}
