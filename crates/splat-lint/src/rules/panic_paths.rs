//! `no-panic-paths` / `no-index-panic`: the typed-`RenderError` policy.
//!
//! Library code of the ten runtime crates must not contain reachable
//! panic sites: errors cross the API boundary as typed
//! `RenderError`/`DecodeError` values, never as unwinds. Tests, benches,
//! examples and binaries are exempt, as is `#[cfg(test)]` code inside
//! library files.

use crate::config::{Config, Severity};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile, Workspace};

use super::{code_tokens, finding, Rule};

/// Flags `.unwrap()`, `.expect(`, `panic!`, `todo!` and `unimplemented!`
/// in runtime-crate library code.
pub struct NoPanicPaths;

impl Rule for NoPanicPaths {
    fn id(&self) -> &'static str {
        "no-panic-paths"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, workspace: &Workspace, _config: &Config, out: &mut Vec<Diagnostic>) {
        for file in workspace.files.iter().filter(|f| in_scope(f)) {
            let code = code_tokens(file);
            for w in 0..code.len() {
                let (idx, token) = code[w];
                if token.kind != TokenKind::Ident || file.in_test_code(idx) {
                    continue;
                }
                let text = token.text(&file.text);
                let next_is = |ch: char| code.get(w + 1).is_some_and(|(_, t)| t.is_punct(ch));
                let prev_is = |ch: char| w > 0 && code[w - 1].1.is_punct(ch);
                let message = match text {
                    "unwrap" | "expect" if next_is('(') && prev_is('.') => format!(
                        "`.{text}(` in library code: return a typed `RenderError`/`Option` \
                         instead of panicking (or waive with a reason)"
                    ),
                    "panic" | "todo" | "unimplemented" if next_is('!') => format!(
                        "`{text}!` in library code: the serving path must stay panic-free; \
                         return a typed error (or waive with a reason)"
                    ),
                    _ => continue,
                };
                out.push(finding(file, &token, self, message));
            }
        }
    }
}

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

    fn run<R: Rule>(rule: R, path: &str, src: &str) -> Vec<Diagnostic> {
        let workspace = Workspace::from_sources(vec![(path, src)]);
        let mut out = Vec::new();
        rule.check(&workspace, &Config::default(), &mut out);
        out
    }

    #[test]
    fn unwrap_in_library_code_fires() {
        let out = run(
            NoPanicPaths,
            "crates/gstg/src/x.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
        assert!(out[0].message.contains(".unwrap("));
    }

    #[test]
    fn unwrap_in_string_comment_test_or_bin_does_not_fire() {
        // String literal and comment.
        assert!(run(
            NoPanicPaths,
            "crates/gstg/src/x.rs",
            "pub fn f() -> &'static str { /* x.unwrap() */ \"x.unwrap()\" }\n",
        )
        .is_empty());
        // cfg(test) module.
        assert!(run(
            NoPanicPaths,
            "crates/gstg/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }\n",
        )
        .is_empty());
        // Test, bench, example and bin targets.
        for path in [
            "crates/gstg/tests/t.rs",
            "crates/splat-bench/benches/b.rs",
            "examples/e.rs",
            "crates/splat-bench/src/bin/fig.rs",
        ] {
            assert!(
                run(NoPanicPaths, path, "fn f() { g().unwrap(); }\n").is_empty(),
                "{path}"
            );
        }
        // Non-runtime crate.
        assert!(run(
            NoPanicPaths,
            "crates/splat-lint/src/lib.rs",
            "fn f() { g().unwrap(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        assert!(run(
            NoPanicPaths,
            "crates/gstg/src/x.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n",
        )
        .is_empty());
    }

    #[test]
    fn panic_todo_unimplemented_fire() {
        let src = "pub fn f(x: u32) {\n    if x > 3 { panic!(\"x\") }\n    if x > 2 { todo!() }\n    if x > 1 { unimplemented!() }\n}\n";
        let out = run(NoPanicPaths, "crates/splat-render/src/x.rs", src);
        assert_eq!(out.len(), 3);
        assert_eq!(out.iter().map(|d| d.line).collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn index_expressions_warn_but_patterns_and_types_do_not() {
        let src = "pub fn f(xs: &[u32], i: usize) -> u32 {\n    let _t: [u32; 2] = [0, 0];\n    let [_a, _b] = [1u32, 2];\n    xs[i]\n}\n";
        let out = run(NoIndexPanic, "crates/splat-core/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 4);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn literal_indices_are_compile_checked_and_exempt() {
        let src = "pub fn f(xs: [u32; 4], i: usize) -> u32 {\n    xs[0] + xs[1_000]\n    + xs[i] + xs[i + 1] + xs[..2][0]\n}\n";
        let out = run(NoIndexPanic, "crates/splat-core/src/x.rs", src);
        // `xs[0]` and `xs[1_000]` are exempt; `xs[i]`, `xs[i + 1]` and the
        // `xs[..2]` range slice still warn.
        assert_eq!(out.iter().map(|d| d.line).collect::<Vec<_>>(), [3, 3, 3]);
    }
}
