//! Plain-text rendering helpers for experiment results.
//!
//! Every figure/table driver returns structured data; these helpers render the rows/series
//! the paper reports as aligned text tables or CSV so the output of `repro` can be eyeballed
//! against the paper (`docs/repro-guide.md` has the expected excerpts).

/// Render a table with a header row; columns are padded to the widest cell.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&render_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&render_row(
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
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

/// Geometric mean of a slice (0 if empty) — convenience used by figure summaries.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (s / values.len() as f64).exp()
}

/// Arithmetic mean of a slice (0 if empty).
pub fn amean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_contains_all_cells() {
        let out = render_table(
            &["policy", "speedup"],
            &[
                vec!["ADAPT".into(), "1.047".into()],
                vec!["TA-DRRIP".into(), "1.000".into()],
            ],
        );
        assert!(out.contains("ADAPT"));
        assert!(out.contains("1.047"));
        assert_eq!(out.lines().count(), 4);
        // Header and separator align.
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with("--"));
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
    fn pct_and_means() {
        assert_eq!(pct(0.047), "+4.70%");
        assert_eq!(pct(-0.011), "-1.10%");
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((amean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
        assert_eq!(amean(&[]), 0.0);
    }
}
