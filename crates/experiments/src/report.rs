//! The one printer of experiment results.
//!
//! Every experiment returns [`Table`]s; [`render`] prints them — each through
//! [`render_table`], its s-curve through [`render_series_csv`] — so the output of `repro`
//! can be eyeballed against the paper (`docs/repro-guide.md` has the expected excerpts).

/// One printed result: a title, notes, an aligned table and an optional CSV series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Heading line(s) above the table; empty prints none.
    pub title: String,
    /// Lines between the title and the table (caveats about how it was measured).
    pub notes: Vec<String>,
    /// Column names; a table without columns is a heading only.
    pub header: Vec<String>,
    /// One row of cells per line, in column order.
    pub rows: Vec<Vec<String>>,
    /// A per-workload series printed as CSV after the table (an s-curve).
    pub series: Option<Series>,
}

impl Table {
    /// A table with a title, columns and rows, and no notes or series.
    pub fn new<H: Into<String>>(
        title: impl Into<String>,
        header: impl IntoIterator<Item = H>,
        rows: Vec<Vec<String>>,
    ) -> Self {
        Table {
            title: title.into(),
            header: header.into_iter().map(Into::into).collect(),
            rows,
            ..Table::default()
        }
    }
}

/// Named columns of values, printed by [`render_series_csv`] under their own heading.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Heading line above the CSV.
    pub title: String,
    /// One named column per curve.
    pub columns: Vec<(String, Vec<f64>)>,
}

/// How an experiment's tables follow one another on the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Back to back.
    Packed,
    /// A blank line between tables.
    Spaced,
    /// A blank line after every table, the last one included (Figure 8's panels).
    Panels,
}

/// Print an experiment's tables in its layout.
pub fn render(tables: &[Table], layout: Layout) -> String {
    let parts: Vec<String> = tables.iter().map(render_table).collect();
    match layout {
        Layout::Packed => parts.concat(),
        Layout::Spaced => parts.join("\n"),
        Layout::Panels => parts.iter().map(|p| p.clone() + "\n").collect(),
    }
}

/// Print one table: its title and notes, the columns padded to the widest cell under a
/// header row, then its series.
pub fn render_table(table: &Table) -> String {
    let mut out = String::new();
    for line in std::iter::once(&table.title)
        .filter(|t| !t.is_empty())
        .chain(&table.notes)
    {
        out.push_str(line);
        out.push('\n');
    }
    if !table.header.is_empty() {
        let mut widths: Vec<usize> = table.header.iter().map(|h| h.len()).collect();
        for row in &table.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        for cells in [&table.header, &separator].into_iter().chain(&table.rows) {
            let line: String = cells
                .iter()
                .zip(&widths)
                .map(|(cell, width)| format!("{cell:width$}  "))
                .collect();
            out.push_str(line.trim_end());
            out.push('\n');
        }
    }
    if let Some(series) = &table.series {
        out.push('\n');
        out.push_str(&series.title);
        out.push('\n');
        out.push_str(&render_series_csv(&series.columns));
    }
    out
}

/// Render a named series (an s-curve) as CSV: `index,value` lines prefixed by a header.
pub fn render_series_csv(series: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str("workload_index");
    for (name, _) in series {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    let len = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    for i in 0..len {
        out.push_str(&(i + 1).to_string());
        for (_, values) in series {
            out.push(',');
            if let Some(v) = values.get(i) {
                out.push_str(&format!("{v:.4}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Format a fraction as a signed percentage with two decimals ("+4.70%").
pub fn pct(value: f64) -> String {
    format!("{:+.2}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_contains_all_cells() {
        let table = Table::new(
            "speedups",
            ["policy", "speedup"],
            vec![
                vec!["ADAPT".into(), "1.047".into()],
                vec!["TA-DRRIP".into(), "1.000".into()],
            ],
        );
        let out = render_table(&table);
        assert!(out.contains("ADAPT"));
        assert!(out.contains("1.047"));
        assert_eq!(out.lines().count(), 5);
        // Header and separator align.
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "speedups");
        assert_eq!(lines[1], "policy    speedup");
        assert!(lines[2].starts_with("--"));
        // A heading-only table prints its title; layouts place the blank lines.
        let heading = Table::new("heading", Vec::<String>::new(), vec![]);
        assert_eq!(render_table(&heading), "heading\n");
        let pair = [heading.clone(), heading];
        assert_eq!(render(&pair, Layout::Packed), "heading\nheading\n");
        assert_eq!(render(&pair, Layout::Spaced), "heading\n\nheading\n");
        assert_eq!(render(&pair, Layout::Panels), "heading\n\nheading\n\n");
    }

    #[test]
    fn series_csv_has_one_row_per_workload() {
        let csv = render_series_csv(&[("A".into(), vec![1.0, 1.1]), ("B".into(), vec![0.9, 1.0])]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "workload_index,A,B");
        assert!(lines[1].starts_with("1,1.0000,0.9000"));
    }

    #[test]
    fn pct_is_signed_with_two_decimals() {
        assert_eq!(pct(0.047), "+4.70%");
        assert_eq!(pct(-0.011), "-1.10%");
    }
}
