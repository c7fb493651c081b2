//! Plain-text table rendering and CSV export for experiment output.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A rectangular result table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows (each must match the header length).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length does not match the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{cell:>w$}", w = w);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Serializes the table as CSV (headers first; quotes around cells
    /// containing commas or quotes).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes the CSV form to `dir/<name>.csv`, creating `dir` if needed.
    pub fn write_csv(&self, dir: &Path, name: &str) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{name}.csv")), self.to_csv())
    }
}

/// Formats a float with `digits` decimals.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1.5".into()]);
        t.push_row(vec!["b".into(), "22".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains("name"));
        assert!(lines[3].trim_start().starts_with("alpha"));
    }

    #[test]
    fn csv_round_trippable() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "name,value");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("q", &["a"]);
        t.push_row(vec!["x,y".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("r", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir()
            .join(format!("spammass-eval-{}-write_csv_creates_file", std::process::id()));
        sample().write_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert!(content.starts_with("name,value"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.4567), "45.7%");
    }
}
