//! Plain-text and markdown table rendering for experiment binaries.

use std::fmt;

/// A simple table with a header row and data rows, rendered either as aligned
/// plain text or as GitHub-flavoured markdown.
///
/// # Example
///
/// ```
/// use analysis::Table;
/// let mut t = Table::new(vec!["n", "measured", "paper"]);
/// t.add_row(vec!["64".into(), "1.23".into(), "1.30".into()]);
/// let text = t.to_plain_text();
/// assert!(text.contains("measured"));
/// let md = t.to_markdown();
/// assert!(md.starts_with("| n "));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if no headers are given.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table { headers, rows: Vec::new() }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the number of columns.
    pub fn add_row(&mut self, row: Vec<String>) -> &mut Self {
        assert_eq!(row.len(), self.headers.len(), "row length must match the header");
        self.rows.push(row);
        self
    }

    /// Renders the table as aligned plain text.
    pub fn to_plain_text(&self) -> String {
        let widths = self.column_widths();
        let mut out = String::new();
        out.push_str(&Self::render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&Self::render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }

    fn render_row(cells: &[String], widths: &[usize]) -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(cell, width)| format!("{cell:<width$}"))
            .collect::<Vec<_>>()
            .join("  ")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_plain_text())
    }
}

/// Formats a float with three significant decimals, switching to scientific
/// notation for very large or very small magnitudes.
pub fn format_value(value: f64) -> String {
    let magnitude = value.abs();
    if magnitude != 0.0 && !(1e-3..1e6).contains(&magnitude) {
        format!("{value:.3e}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_aligns_columns() {
        let mut t = Table::new(vec!["n", "time"]);
        t.add_row(vec!["8".into(), "1.0".into()]);
        t.add_row(vec!["1024".into(), "123.456".into()]);
        let text = t.to_plain_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("n"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn markdown_has_separator_row() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        let md = t.to_markdown();
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| 1 | 2 | 3 |"));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.add_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_panics() {
        let _ = Table::new(Vec::<String>::new());
    }

    #[test]
    fn value_formatting_switches_to_scientific() {
        assert_eq!(format_value(1.5), "1.500");
        assert_eq!(format_value(0.0), "0.000");
        assert!(format_value(1.0e7).contains('e'));
        assert!(format_value(1.0e-5).contains('e'));
    }

    #[test]
    fn display_matches_plain_text() {
        let mut t = Table::new(vec!["x"]);
        t.add_row(vec!["1".into()]);
        assert_eq!(t.to_string(), t.to_plain_text());
    }
}
