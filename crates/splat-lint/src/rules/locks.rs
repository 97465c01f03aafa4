//! `lock-discipline`: the PR 5 contention/deadlock rule for
//! `splat-engine`.
//!
//! The engine's mutexes (queue state, registry state, job phases, the
//! session pool slots) are leaf locks: no code path may take one while a
//! guard on a *different* mutex is live in an enclosing scope, and the
//! allocation-heavy scene preparation (`PreparedScene::prepare` and
//! friends) must run *outside* any guard — the fast per-job serving path
//! must never wait on an O(n) scan.
//!
//! The scan is token-level and scope-accurate rather than type-accurate:
//! a guard is "live" from a `let g = <recv>.lock()` binding until its
//! scope closes or `drop(g)`; unbound `.lock()` temporaries live to the
//! end of the statement. Receivers are compared by their source chain
//! (`self`, `self.shared.pool[_]`, …) with index expressions normalized,
//! so two pool slots look alike but the pool and the queue do not.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::source::{SourceFile, Workspace};

use super::{code_tokens, finding, Rule};

/// Flags nested `.lock()` calls and heavy calls under a live guard in
/// `crates/splat-engine/src/`.
pub struct LockDiscipline;

#[derive(Debug)]
struct Guard {
    /// Normalized receiver chain (`self`, `self.shared.pool[_]`, …).
    key: String,
    /// The `let` binding name, when bound (`drop(name)` releases it).
    name: Option<String>,
    /// Unbound guards die at the next `;` in their scope.
    statement_temporary: bool,
    /// Line of the `.lock()` call, for the diagnostic cross-reference.
    line: u32,
}

impl Rule for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn check(&self, workspace: &Workspace, config: &Config, out: &mut Vec<Diagnostic>) {
        for file in workspace
            .files
            .iter()
            .filter(|f| f.path.starts_with("crates/splat-engine/src/"))
        {
            self.check_file(file, config, out);
        }
    }
}

impl LockDiscipline {
    fn check_file(&self, file: &SourceFile, config: &Config, out: &mut Vec<Diagnostic>) {
        let code = code_tokens(file);
        let mut scopes: Vec<Vec<Guard>> = vec![Vec::new()];
        for w in 0..code.len() {
            let (idx, token) = code[w];
            match token.kind {
                TokenKind::Punct('{') => scopes.push(Vec::new()),
                TokenKind::Punct('}') => {
                    scopes.pop();
                    if scopes.is_empty() {
                        scopes.push(Vec::new()); // unbalanced file; stay total
                    }
                }
                TokenKind::Punct(';') => {
                    if let Some(top) = scopes.last_mut() {
                        top.retain(|g| !g.statement_temporary);
                    }
                }
                TokenKind::Ident => {
                    if file.in_test_code(idx) {
                        continue;
                    }
                    let text = token.text(&file.text);
                    // `drop(name)` releases the named guard early.
                    if text == "drop"
                        && code.get(w + 1).is_some_and(|(_, t)| t.is_punct('('))
                        && code.get(w + 3).is_some_and(|(_, t)| t.is_punct(')'))
                    {
                        if let Some((_, dropped)) = code.get(w + 2) {
                            if dropped.kind == TokenKind::Ident {
                                let name = dropped.text(&file.text);
                                for scope in &mut scopes {
                                    scope.retain(|g| g.name.as_deref() != Some(name));
                                }
                            }
                        }
                        continue;
                    }
                    // `<recv>.lock()`.
                    if text == "lock"
                        && w > 0
                        && code[w - 1].1.is_punct('.')
                        && code.get(w + 1).is_some_and(|(_, t)| t.is_punct('('))
                    {
                        let key = receiver_key(&code, file, w - 1);
                        for guard in scopes.iter().flatten() {
                            let message = if guard.key == key {
                                format!(
                                    "`.lock()` on `{key}` while its own guard (line {}) is \
                                     still live: self-deadlock",
                                    guard.line
                                )
                            } else {
                                format!(
                                    "`.lock()` on `{key}` while the guard on `{}` (line {}) \
                                     is live: engine mutexes are leaf locks; release the \
                                     first guard before taking the second",
                                    guard.key, guard.line
                                )
                            };
                            out.push(finding(file, &token, self, message));
                        }
                        let (name, bound) = binding_name(&code, file, w - 1);
                        if let Some(scope) = scopes.last_mut() {
                            scope.push(Guard {
                                key,
                                name,
                                statement_temporary: !bound,
                                line: token.line,
                            });
                        }
                        continue;
                    }
                    // Heavy calls under any live guard.
                    let live = scopes.iter().flatten().next_back();
                    if let Some(guard) = live {
                        let is_call = code.get(w + 1).is_some_and(|(_, t)| t.is_punct('('))
                            || code.get(w + 1).is_some_and(|(_, t)| t.is_punct(':'));
                        if is_call && config.heavy_calls.iter().any(|h| h == text) {
                            out.push(finding(
                                file,
                                &token,
                                self,
                                format!(
                                    "`{text}` called while the guard on `{}` (line {}) is \
                                     live: scene preparation is O(n) in splats and must run \
                                     outside the registry mutex",
                                    guard.key, guard.line
                                ),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Walks backwards from the `.` before `lock`, collecting the receiver
/// chain. Balanced `[...]`/`(...)` groups are normalized to `[_]`/`(_)`.
fn receiver_key(code: &[(usize, Token)], file: &SourceFile, dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut i = dot; // points at the `.`
    loop {
        if i == 0 {
            break;
        }
        let (_, prev) = code[i - 1];
        match prev.kind {
            TokenKind::Punct(']') | TokenKind::Punct(')') => {
                let (open, close) = if prev.is_punct(']') {
                    ('[', ']')
                } else {
                    ('(', ')')
                };
                let mut depth = 0i64;
                let mut j = i - 1;
                loop {
                    let t = code[j].1;
                    if t.is_punct(close) {
                        depth += 1;
                    } else if t.is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                parts.push(if open == '[' {
                    "[_]".into()
                } else {
                    "(_)".into()
                });
                i = j;
            }
            TokenKind::Ident => {
                parts.push(prev.text(&file.text).to_string());
                i -= 1;
            }
            TokenKind::Punct('.') => {
                parts.push(".".into());
                i -= 1;
            }
            _ => break,
        }
    }
    parts.reverse();
    let mut key = String::new();
    for part in parts {
        key.push_str(&part);
    }
    if key.is_empty() {
        key.push('?');
    }
    key
}

/// Looks behind the receiver for a `let [mut] name =` binding. Returns
/// `(binding name, bound)`.
fn binding_name(code: &[(usize, Token)], file: &SourceFile, dot: usize) -> (Option<String>, bool) {
    // Find the receiver start the same way receiver_key walks.
    let mut i = dot;
    loop {
        if i == 0 {
            return (None, false);
        }
        let (_, prev) = code[i - 1];
        match prev.kind {
            TokenKind::Punct(']') | TokenKind::Punct(')') => {
                let (open, close) = if prev.is_punct(']') {
                    ('[', ']')
                } else {
                    ('(', ')')
                };
                let mut depth = 0i64;
                let mut j = i - 1;
                loop {
                    let t = code[j].1;
                    if t.is_punct(close) {
                        depth += 1;
                    } else if t.is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                i = j;
            }
            TokenKind::Ident => i -= 1,
            TokenKind::Punct('.') => i -= 1,
            _ => break,
        }
    }
    // Expect `= name [mut] let` walking further back.
    if i == 0 || !code[i - 1].1.is_punct('=') {
        return (None, false);
    }
    let mut j = i - 1;
    if j == 0 {
        return (None, false);
    }
    let (_, name_token) = code[j - 1];
    if name_token.kind != TokenKind::Ident {
        return (None, false);
    }
    let name = name_token.text(&file.text).to_string();
    j -= 1;
    let mut k = j;
    if k > 0 && code[k - 1].1.is_ident(&file.text, "mut") {
        k -= 1;
    }
    if k > 0 && code[k - 1].1.is_ident(&file.text, "let") {
        (Some(name), true)
    } else {
        // Reassignment (`inner = q.lock()`) keeps the old binding name.
        (Some(name), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let workspace = Workspace::from_sources(vec![("crates/splat-engine/src/x.rs", src)]);
        let mut out = Vec::new();
        LockDiscipline.check(&workspace, &Config::default(), &mut out);
        out
    }

    #[test]
    fn nested_locks_on_different_mutexes_fire() {
        let src = "fn f(&self) {\n    let queue = self.queue.lock();\n    let registry = self.registry.lock();\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("self.queue"));
    }

    #[test]
    fn sequential_locks_and_drop_are_clean() {
        let clean = "fn f(&self) {\n    let a = self.queue.lock();\n    drop(a);\n    let b = self.registry.lock();\n}\n";
        assert!(run(clean).is_empty());
        let scoped = "fn f(&self) {\n    { let a = self.queue.lock(); }\n    let b = self.registry.lock();\n}\n";
        assert!(run(scoped).is_empty());
    }

    #[test]
    fn pool_slots_normalize_their_index() {
        let src = "fn f(&self) {\n    let a = self.pool[i].lock();\n    let b = self.pool[j].lock();\n}\n";
        let out = run(src);
        // Same normalized receiver: reported as a self-deadlock, which is
        // exactly what locking two slots of one pool in sequence risks.
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("self-deadlock"));
    }

    #[test]
    fn statement_temporaries_do_not_leak_liveness() {
        let src = "fn f(&self) {\n    self.queue.lock().paused = true;\n    let b = self.registry.lock();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn heavy_calls_under_a_guard_fire() {
        let src = "fn f(&self, scene: Arc<Scene>) {\n    let inner = self.lock();\n    let p = PreparedScene::prepare(scene);\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 2); // the type mention and the call
        assert!(out[0].message.contains("outside the registry mutex"));
    }

    #[test]
    fn heavy_calls_outside_guards_are_clean() {
        let src = "fn f(&self, scene: Arc<Scene>) {\n    let p = PreparedScene::prepare(scene);\n    let inner = self.lock();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn outside_splat_engine_is_out_of_scope() {
        let workspace = Workspace::from_sources(vec![(
            "crates/splat-core/src/x.rs",
            "fn f(&self) { let a = self.a.lock(); let b = self.b.lock(); }\n",
        )]);
        let mut out = Vec::new();
        LockDiscipline.check(&workspace, &Config::default(), &mut out);
        assert!(out.is_empty());
    }
}
