//! Minimal table rendering for the `repro` harness.
//!
//! We deliberately avoid a serialization dependency: figures are reported as
//! fixed-width text tables, the form `PAPER_SHAPES.md` records.

use std::fmt::Write as _;

/// A simple rectangular table builder.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data rows, in insertion order (tests enumerate figure
    /// contents through this).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }

    /// Render as a fixed-width text table.
    pub fn render_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: String = w
            .iter()
            .map(|n| "-".repeat(n + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:>width$} ", c, width = w[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

/// Format a float with three significant decimals, trimming noise.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a byte count in a human unit (B/KiB/MiB/GiB).
pub fn bytes_human(n: u64) -> String {
    const KIB: f64 = 1024.0;
    let x = n as f64;
    if x >= KIB * KIB * KIB {
        format!("{:.2} GiB", x / (KIB * KIB * KIB))
    } else if x >= KIB * KIB {
        format!("{:.2} MiB", x / (KIB * KIB))
    } else if x >= KIB {
        format!("{:.2} KiB", x / KIB)
    } else {
        format!("{n} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["bb".into(), "2".into()]);
        t
    }

    #[test]
    fn text_render_aligns_columns() {
        let s = sample().render_text();
        assert!(s.contains("== demo =="));
        assert!(s.contains(" bb "));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn bytes_human_units() {
        assert_eq!(bytes_human(512), "512 B");
        assert_eq!(bytes_human(2048), "2.00 KiB");
        assert_eq!(bytes_human(3 * 1024 * 1024), "3.00 MiB");
    }
}
