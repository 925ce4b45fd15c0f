//! Plain-text table rendering for the benchmark binaries.

use std::fmt::Write as _;

/// Builds fixed-width tables in the layout the paper's tables use.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    header: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// A table with the given column headers.
    pub fn new<S: AsRef<str>>(header: &[S]) -> Self {
        let header: Vec<String> = header.iter().map(|s| s.as_ref().to_string()).collect();
        let widths = header.iter().map(|h| h.len()).collect();
        TableBuilder { header, widths, rows: Vec::new() }
    }

    /// Appends a row (cell count must match the header).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
        self
    }

    /// Convenience: a label plus float cells at 4 decimals.
    pub fn metric_row(&mut self, label: &str, values: &[f64]) -> &mut Self {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.4}")));
        self.row(cells)
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String], widths: &[usize]| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i == 0 {
                    let _ = write!(out, "{c:<w$}");
                } else {
                    let _ = write!(out, "  {c:>w$}");
                }
            }
            let _ = writeln!(out);
        };
        line(&mut out, &self.header, &self.widths);
        let total: usize = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            line(&mut out, r, &self.widths);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableBuilder::new(&["Method", "AUC", "RANK"]);
        t.metric_row("MLP", &[0.75, 9.0]);
        t.metric_row("MLP+MAMDR (DN+DR)", &[0.7957, 2.5]);
        let s = t.render();
        assert!(s.contains("Method"));
        assert!(s.contains("0.7957"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // all rows equal width
        assert_eq!(lines[0].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TableBuilder::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
