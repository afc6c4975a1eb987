//! Minimal aligned-text table rendering for the experiment subcommands.

/// A simple table: header plus rows of strings.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Build from string-ish headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

/// Render a table with aligned columns (first column left-aligned, the
/// rest right-aligned, like the paper's tables).
pub fn render_table(t: &Table) -> String {
    let ncols = t.header.len();
    let mut width = vec![0usize; ncols];
    for (c, h) in t.header.iter().enumerate() {
        width[c] = width[c].max(h.len());
    }
    for r in &t.rows {
        for (c, cell) in r.iter().enumerate() {
            width[c] = width[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], width: &[usize]| -> String {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate() {
            if c == 0 {
                line.push_str(&format!("{:<w$}", cell, w = width[0]));
            } else {
                line.push_str(&format!("  {:>w$}", cell, w = width[c]));
            }
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(&t.header, &width));
    let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for r in &t.rows {
        out.push_str(&fmt_row(r, &width));
    }
    out
}

/// Format a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format `part` as a percentage of `whole`, one decimal.
pub fn pct(part: f64, whole: f64) -> String {
    format!("{:.1}%", 100.0 * part / whole.max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["Program", "Msgs"]);
        t.row(vec!["Jacobi", "8538"]);
        t.row(vec!["3-D FFT", "52818"]);
        let s = render_table(&t);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Program"));
        assert!(lines[2].starts_with("Jacobi"));
        // Right alignment of the numeric column.
        assert!(lines[2].ends_with("8538"));
        assert!(lines[3].ends_with("52818"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }
}
