//! Source-file model: workspace walking, waiver parsing and
//! `#[cfg(test)]` item detection over the token stream.

use std::cell::Cell;
use std::fs;
use std::path::Path;

use crate::lexer::{tokenize, Token, TokenKind};

/// One inline waiver: `// lint:allow(rule-a, rule-b): reason`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rules this waiver suppresses.
    pub rules: Vec<String>,
    /// The mandatory justification after the colon.
    pub reason: String,
    /// Line the comment sits on; it suppresses findings on this line and
    /// the next (so it can trail the offending code or precede it).
    pub line: u32,
    /// Set to true when a finding was actually suppressed; a waiver that
    /// never fires is itself reported (`unused-waiver`).
    pub used: Cell<bool>,
    /// True when the waiver is malformed (no reason): reported as
    /// `waiver-syntax` and never suppresses anything.
    pub malformed: bool,
}

/// A lexed source file plus everything rules need to scope themselves.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Full source text.
    pub text: String,
    /// Token stream (comments included).
    pub tokens: Vec<Token>,
    /// Token-index ranges `[start, end)` covering `#[cfg(test)]` /
    /// `#[test]` items — exempt from `lock-discipline`.
    pub test_ranges: Vec<(usize, usize)>,
    /// Parsed inline waivers.
    pub waivers: Vec<Waiver>,
}

impl SourceFile {
    /// Builds a file from a path and its contents (used both by the disk
    /// walker and by in-memory fixtures in tests).
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        let path = path.into();
        let text = text.into();
        let tokens = tokenize(&text);
        let test_ranges = find_test_ranges(&text, &tokens);
        let waivers = parse_waivers(&text, &tokens);
        Self {
            path,
            text,
            tokens,
            test_ranges,
            waivers,
        }
    }

    /// Whether the token at `index` sits inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, index: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| index >= start && index < end)
    }

    /// The source line (1-based) as text, for diagnostic snippets.
    pub fn line_text(&self, line: u32) -> &str {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim_end()
    }

    /// Non-comment tokens as `(index, token)` pairs.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokenKind::Comment)
    }
}

/// The lexed workspace handed to every rule.
pub struct Workspace {
    /// All lexed `.rs` files, in sorted path order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root` for `.rs` files, skipping `target/`, `.git/` and the
    /// `exclude` path prefixes (workspace-relative, `/`-separated).
    pub fn load(root: &Path, exclude: &[String]) -> std::io::Result<Self> {
        let mut paths = Vec::new();
        collect_rust_files(root, root, exclude, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for rel in paths {
            let text = fs::read_to_string(root.join(&rel))?;
            files.push(SourceFile::new(rel, text));
        }
        Ok(Self { files })
    }

    /// Builds a workspace from in-memory `(path, text)` pairs (fixtures).
    pub fn from_sources<P: Into<String>, T: Into<String>>(sources: Vec<(P, T)>) -> Self {
        let mut files: Vec<SourceFile> = sources
            .into_iter()
            .map(|(p, t)| SourceFile::new(p, t))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Self { files }
    }

    /// Finds a file by exact workspace-relative path.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

fn collect_rust_files(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = match path.strip_prefix(root) {
            Ok(rel) => rel.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == ".git" || excluded(&rel, exclude) {
                continue;
            }
            collect_rust_files(root, &path, exclude, out)?;
        } else if name.ends_with(".rs") && !excluded(&rel, exclude) {
            out.push(rel);
        }
    }
    Ok(())
}

fn excluded(rel: &str, exclude: &[String]) -> bool {
    exclude
        .iter()
        .any(|prefix| rel.starts_with(prefix.as_str()))
}

/// Finds token ranges of items annotated `#[cfg(test)]` or `#[test]`
/// (including e.g. `#[cfg(all(test, feature = "x"))]`): from the
/// attribute's `#` through the item's closing `}` or `;`.
fn find_test_ranges(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokenKind::Comment)
        .collect();
    let mut i = 0;
    while i < code.len() {
        if code[i].1.is_punct('#') && i + 1 < code.len() && code[i + 1].1.is_punct('[') {
            // Scan the bracketed attribute body for the ident `test`,
            // ignoring occurrences under a `not(...)` combinator so
            // `#[cfg(not(test))]` items stay linted.
            let mut j = i + 1;
            let mut is_test_attr = false;
            let mut depth = 0usize;
            // Ident immediately preceding each open paren, per depth.
            let mut group_names: Vec<String> = Vec::new();
            let mut last_ident = String::new();
            while j < code.len() {
                let t = code[j].1;
                match t.kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct('(') => {
                        depth += 1;
                        group_names.push(std::mem::take(&mut last_ident));
                    }
                    TokenKind::Punct(')') => {
                        // Saturate: a malformed attribute (stray `)`
                        // before any `(`) must not underflow the scan.
                        depth = depth.saturating_sub(1);
                        group_names.pop();
                    }
                    TokenKind::Punct(']') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Ident => {
                        last_ident = t.text(src).to_string();
                        if last_ident == "test" && !group_names.iter().any(|g| g == "not") {
                            is_test_attr = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr && j < code.len() {
                // Skip any further attributes, then span the item.
                let mut k = j + 1;
                while k + 1 < code.len() && code[k].1.is_punct('#') && code[k + 1].1.is_punct('[') {
                    let mut d = 0usize;
                    k += 1;
                    while k < code.len() {
                        match code[k].1.kind {
                            TokenKind::Punct('[') => d += 1,
                            TokenKind::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Item body: everything to the first `;` at depth 0, or
                // the matching `}` of the first `{` at depth 0.
                let mut d = 0i64;
                let mut end = k;
                while end < code.len() {
                    match code[end].1.kind {
                        TokenKind::Punct('{') | TokenKind::Punct('(') | TokenKind::Punct('[') => {
                            d += 1
                        }
                        TokenKind::Punct('}') | TokenKind::Punct(')') | TokenKind::Punct(']') => {
                            d -= 1;
                            if d == 0 && code[end].1.is_punct('}') {
                                break;
                            }
                        }
                        TokenKind::Punct(';') if d == 0 => break,
                        _ => {}
                    }
                    end += 1;
                }
                let start_idx = code[i].0;
                let end_idx = if end < code.len() {
                    code[end].0 + 1
                } else {
                    tokens.len()
                };
                ranges.push((start_idx, end_idx));
                i = code
                    .iter()
                    .position(|(idx, _)| *idx >= end_idx)
                    .unwrap_or(code.len());
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Parses `// lint:allow(rule-a, rule-b): reason` comments.
fn parse_waivers(src: &str, tokens: &[Token]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for token in tokens.iter().filter(|t| t.kind == TokenKind::Comment) {
        let text = token.text(src);
        let Some(rest) = text.strip_prefix("//").map(str::trim_start) else {
            continue;
        };
        let Some(body) = rest.strip_prefix("lint:allow") else {
            continue;
        };
        let (rules, reason, malformed) =
            match body.strip_prefix('(').and_then(|b| b.split_once(')')) {
                Some((list, after)) => {
                    let rules: Vec<String> = list
                        .split(',')
                        .map(|r| r.trim().to_string())
                        .filter(|r| !r.is_empty())
                        .collect();
                    let reason = after
                        .trim_start()
                        .strip_prefix(':')
                        .map(str::trim)
                        .unwrap_or("");
                    let malformed = rules.is_empty() || reason.is_empty();
                    (rules, reason.to_string(), malformed)
                }
                None => (Vec::new(), String::new(), true),
            };
        waivers.push(Waiver {
            rules,
            reason,
            line: token.line,
            used: Cell::new(false),
            malformed,
        });
    }
    waivers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_excluded() {
        let file = SourceFile::new(
            "crates/splat-core/src/x.rs",
            "pub fn a() { b.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { c.unwrap(); }\n}\n",
        );
        let unwraps: Vec<bool> = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident(&file.text, "unwrap"))
            .map(|(i, _)| file.in_test_code(i))
            .collect();
        assert_eq!(unwraps, [false, true]);
    }

    #[test]
    fn cfg_all_test_counts_as_test_code() {
        let file = SourceFile::new(
            "crates/splat-core/src/x.rs",
            "#[cfg(all(test, feature = \"slow\"))]\nmod harness { fn t() { c.unwrap(); } }\nfn live() { d.unwrap(); }\n",
        );
        let flags: Vec<bool> = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident(&file.text, "unwrap"))
            .map(|(i, _)| file.in_test_code(i))
            .collect();
        assert_eq!(flags, [true, false]);
    }

    #[test]
    fn waiver_parsing_extracts_rules_and_reason() {
        let file = SourceFile::new(
            "crates/gstg/src/x.rs",
            "x(); // lint:allow(lock-discipline, unused-waiver): the slot is released above\n",
        );
        assert_eq!(file.waivers.len(), 1);
        let w = &file.waivers[0];
        assert!(!w.malformed);
        assert_eq!(w.rules, ["lock-discipline", "unused-waiver"]);
        assert_eq!(w.reason, "the slot is released above");
        assert_eq!(w.line, 1);
    }

    #[test]
    fn waiver_without_reason_is_malformed() {
        let file = SourceFile::new("crates/gstg/src/x.rs", "// lint:allow(lock-discipline)\n");
        assert!(file.waivers[0].malformed);
        let file = SourceFile::new(
            "crates/gstg/src/x.rs",
            "// lint:allow(lock-discipline):   \n",
        );
        assert!(file.waivers[0].malformed);
    }
}
