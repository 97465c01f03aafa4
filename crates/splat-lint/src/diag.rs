//! Diagnostics: the finding type, the report, and its human/JSON
//! renderings.

use std::fmt;

/// One finding, anchored to a source position. Every finding is an error.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The rule that fired (`lock-discipline`, …).
    pub rule: String,
    /// What is wrong and why it matters.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error[{}]: {}:{}:{}: {}",
            self.rule, self.file, self.line, self.col, self.message
        )?;
        if !self.snippet.is_empty() {
            writeln!(f, "    | {}", self.snippet.trim())?;
        }
        Ok(())
    }
}

/// The outcome of a lint run: the findings that survive waivers, sorted
/// by position.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether the run should exit non-zero.
    pub fn has_errors(&self) -> bool {
        !self.diagnostics.is_empty()
    }

    /// Human-readable rendering, one block per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for diagnostic in &self.diagnostics {
            out.push_str(&diagnostic.to_string());
        }
        let errors = self.diagnostics.len();
        out.push_str(&format!(
            "splat-lint: {} error{}\n",
            errors,
            if errors == 1 { "" } else { "s" },
        ));
        out
    }

    /// Machine-readable rendering: one JSON document with a `findings`
    /// array of `{file, line, col, rule, message, snippet}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"tool\":\"splat-lint\",\"findings\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{},\"snippet\":{}}}",
                json_string(&d.file),
                d.line,
                d.col,
                json_string(&d.rule),
                json_string(&d.message),
                json_string(&d.snippet),
            ));
        }
        out.push_str(&format!("],\"errors\":{}}}", self.diagnostics.len()));
        out
    }
}

/// Escapes a string for embedding in JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                col: 7,
                rule: "lock-discipline".into(),
                message: "say \"no\"\nplease".into(),
                snippet: "let queue = self.queue.lock();".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("say \\\"no\\\"\\nplease"));
        assert!(json.contains("\"errors\":1"));
    }
}
