//! Minimal aligned-column ASCII table printing for the report binary.

/// A printable table: header row plus data rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given headers.
    pub(crate) fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub(crate) fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio like the paper's speedup annotations ("8.4x").
pub(crate) fn ratio(numerator: std::time::Duration, denominator: std::time::Duration) -> String {
    let d = denominator.as_secs_f64();
    if d <= 0.0 {
        return "-".into();
    }
    format!("{:.1}x", numerator.as_secs_f64() / d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["topo", "cost"]);
        t.row(["A", "4.0"]);
        t.row(["E-DMAG", "5.0"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("topo"));
        assert!(lines[2].starts_with("A"));
        // Columns align: "cost" starts at the same offset in all rows.
        let col = lines[0].find("cost").unwrap();
        assert_eq!(&lines[3][col..col + 3], "5.0");
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["x"]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(
            ratio(Duration::from_secs(3), Duration::from_secs(2)),
            "1.5x"
        );
        assert_eq!(ratio(Duration::from_secs(1), Duration::ZERO), "-");
    }
}
