//! Fixed-width table rendering for the report binaries (mirrors the
//! layout of the paper's tables).

use std::fmt::Write as _;

/// A simple fixed-width text table: a header row plus data rows, each
/// column right-aligned to its widest cell.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row's cell count differs from the header's.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells, header has {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table: header, separator, rows. The first column is
    /// left-aligned (names), the rest right-aligned (numbers).
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                width[i] = width[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&fixed_width_line(&self.header, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fixed_width_line(row, &width));
        }
        out
    }
}

/// One table line, newline included: each cell padded to its column's
/// `width`, the first left-aligned (names), the rest right-aligned
/// (numbers), columns two spaces apart. A report that prints rows as
/// they finish fixes the widths up front and calls this per row.
#[must_use]
pub fn fixed_width_line<S: AsRef<str>>(row: &[S], width: &[usize]) -> String {
    let mut out = String::new();
    for (i, cell) in row.iter().enumerate() {
        let cell = cell.as_ref();
        if i > 0 {
            out.push_str("  ");
        }
        let pad = width[i].saturating_sub(cell.chars().count());
        if i == 0 {
            let _ = write!(out, "{cell}{}", " ".repeat(pad));
        } else {
            let _ = write!(out, "{}{cell}", " ".repeat(pad));
        }
    }
    out.push('\n');
    out
}

/// Formats a `Duration`-like seconds value with a sensible unit.
#[must_use]
pub fn fmt_seconds(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1}us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

/// Formats a speedup factor in the paper's style (`1.2e4x`).
#[must_use]
pub fn fmt_speedup(x: f64) -> String {
    if x >= 1000.0 {
        format!("{x:.2e}x")
    } else {
        format!("{x:.1}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(["Circuit", "SysT", "%Dif"]);
        t.push_row(["s953", "0.354", "4.3"]);
        t.push_row(["s38417", "14.180", "6.0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Circuit"));
        assert!(lines[1].starts_with('-'));
        // Numbers right-aligned: both rows end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_width_checked() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn second_formatting() {
        assert_eq!(fmt_seconds(0.0000005), "0.5us");
        assert_eq!(fmt_seconds(0.0123), "12.30ms");
        assert_eq!(fmt_seconds(2.5), "2.50s");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(12.0), "12.0x");
        assert!(fmt_speedup(93072.0).contains('e'));
    }
}
