//! Plain-text aligned tables.
//!
//! The benchmark harness prints every reproduced figure/table as an aligned
//! text table so the "rows/series the paper reports" can be read directly
//! from terminal output.

/// A simple text table builder with a header row. The first column
/// (labels) is left-aligned, every other column (numbers) right-aligned.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match column count"
        );
        self.rows.push(cells);
        self
    }

    /// Render the table to a string with a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.len();
                if i == 0 {
                    line.push_str(cell);
                    if ncols > 1 {
                        line.push_str(&" ".repeat(pad));
                    }
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a float with two decimals, for table cells.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["strategy", "p99 (ms)"]);
        t.row(vec!["C3", "20.10"]);
        t.row(vec!["Dynamic Snitching", "61.30"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("strategy"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numbers right-aligned: both rows end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[2].ends_with("20.10"));
        assert!(lines[3].ends_with("61.30"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["1"]);
        assert_eq!(format!("{t}"), t.render());
    }

    #[test]
    fn left_alignment_pads_right() {
        let mut t = Table::new(vec!["name", "v"]);
        t.row(vec!["ab", "1"]);
        t.row(vec!["abcd", "2"]);
        assert!(t.render().contains("ab    1"));
    }

    #[test]
    fn f2_formats_two_decimals() {
        assert_eq!(f2(1.0), "1.00");
        assert_eq!(f2(2.46802), "2.47");
    }
}
