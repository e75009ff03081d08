//! Fixed-width tables with CSV export.
//!
//! Every experiment prints one of these to stdout and (optionally) writes
//! the same rows as CSV under a chosen directory, so every reported table
//! is a regenerable artifact.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of displayable cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(ToString::to_string).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let mut line = String::new();
        for (i, (h, w)) in self.headers.iter().zip(&widths).enumerate() {
            let _ = write!(line, "{h:>w$}");
            if i + 1 < ncols {
                line.push_str("  ");
            }
        }
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(line.len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                let _ = write!(line, "{cell:>w$}");
                if i + 1 < ncols {
                    line.push_str("  ");
                }
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Serialises the rows as CSV (headers first, RFC-4180 quoting for cells
    /// containing commas, quotes or newlines).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendition to `dir/name.csv`, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: impl AsRef<Path>, name: &str) -> io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float compactly for table cells.
#[must_use]
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "inf".to_string()
        } else {
            "-inf".to_string()
        }
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long-header", "x"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        t.row(&["100".into(), "20000".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-header"));
        let lines: Vec<&str> = s.lines().collect();
        // Data rows share the same width.
        assert_eq!(lines[3].len(), lines[4].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("asgd-metrics-test");
        let mut t = Table::new("t", &["k", "v"]);
        t.row_display(&[&1, &2.5]);
        let path = t.write_csv(&dir, "demo").expect("write");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert!(content.starts_with("k,v"));
        assert!(content.contains("1,2.5"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(f64::INFINITY), "inf");
        assert_eq!(fmt_f(f64::NEG_INFINITY), "-inf");
        assert!(fmt_f(123456.0).contains('e'));
        assert!(fmt_f(0.0001).contains('e'));
        assert_eq!(fmt_f(1.5), "1.5000");
    }
}
