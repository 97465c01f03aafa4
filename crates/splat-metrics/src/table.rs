//! Aligned markdown table emission for experiment binaries.

/// A simple column-oriented results table.
///
/// Every figure-regeneration binary prints one or more of these so the
/// output can be compared directly against the paper's tables and figure
/// series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row length does not match the header count.
    pub fn add_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, &width)| format!("{c:width$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |", sep.join(" | ")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["scene", "speedup"]);
        t.add_row(["train".to_string(), "1.33".to_string()]);
        t.add_row(["residence".to_string(), "1.58".to_string()]);
        t
    }

    #[test]
    fn markdown_contains_headers_separator_and_rows() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("scene") && lines[0].contains("speedup"));
        assert!(lines[1].contains("---"));
        assert!(lines[2].contains("train"));
        assert!(lines[3].contains("1.58"));
    }

    #[test]
    fn markdown_columns_are_aligned() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        // All lines have identical length when padded.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.add_row(["only one".to_string()]);
    }
}
