//! Result output: CSV files plus aligned ASCII tables on stdout.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple results table: named columns, rows of cells.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned ASCII table.
    pub fn ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> =
            self.columns.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Render as CSV.
    pub fn csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Write `<name>.csv` under `dir` and print the ASCII table.
    pub fn emit(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{name}.csv")), self.csv())?;
        println!("{}", self.ascii());
        Ok(())
    }
}

/// Format helpers.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_and_csv_render() {
        let mut t = Table::new("demo", &["a", "long_column"]);
        t.row(vec!["1".into(), "x".into()]);
        t.row(vec!["22".into(), "y,z".into()]);
        let a = t.ascii();
        assert!(a.contains("demo"));
        assert!(a.contains("long_column"));
        let c = t.csv();
        assert!(c.contains("\"y,z\""));
        assert_eq!(c.lines().count(), 3);
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
