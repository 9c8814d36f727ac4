//! Fixed-width text tables (the report format of the benchmark binaries).

use std::fmt::Write as _;

/// A simple column-aligned table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Set the column headers.
    pub fn header<S: Into<String>>(mut self, cols: impl IntoIterator<Item = S>) -> Self {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append a row (must match the header width if a header was set).
    pub fn row<S: Into<String>>(&mut self, cols: impl IntoIterator<Item = S>) -> &mut Self {
        let r: Vec<String> = cols.into_iter().map(Into::into).collect();
        if !self.header.is_empty() {
            assert_eq!(r.len(), self.header.len(), "row width mismatch");
        }
        self.rows.push(r);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncol = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut width = vec![0usize; ncol];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = width[c].max(h.chars().count());
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.chars().count());
            }
        }
        let total: usize = width.iter().sum::<usize>() + 3 * ncol.saturating_sub(1);
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
            let _ = writeln!(out, "{}", "=".repeat(self.title.chars().count().max(total)));
        }
        let fmt_row = |row: &[String], out: &mut String| {
            let mut line = String::new();
            for (c, w) in width.iter().enumerate() {
                let cell = row.get(c).map(String::as_str).unwrap_or("");
                if c + 1 < ncol {
                    let _ = write!(line, "{cell:<w$}   ");
                } else {
                    let _ = write!(line, "{cell:<w$}");
                }
            }
            let _ = writeln!(out, "{}", line.trim_end());
        };
        if !self.header.is_empty() {
            fmt_row(&self.header, &mut out);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T").header(["a", "bbbb", "c"]);
        t.row(["1", "2", "3"]);
        t.row(["10", "20", "30"]);
        let s = t.render();
        assert!(s.contains("a    bbbb   c"));
        assert!(s.lines().count() >= 5);
        let lines: Vec<&str> = s.lines().collect();
        // Layout: title, rule, header, rule, then the data rows.
        assert!(lines[4].starts_with("1 "));
        assert!(lines[5].starts_with("10"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("T").header(["a", "b"]);
        t.row(["only one"]);
    }
}
