//! Table 2: hardware-cost comparison.
//!
//! Wraps `adapt_core::cost::table2_rows` for the paper's 16 MB / 16-way LLC shared by
//! 24 applications, and renders it in the same layout as the paper.

use adapt_core::{table2_rows, AdaptConfig, HardwareCostRow};

use crate::report::render_table;
use crate::scale::ExperimentScale;
use workloads::StudyKind;

/// Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Number of applications (cores) the costs are computed for.
    pub num_apps: usize,
    /// Number of blocks in the LLC the costs are computed for.
    pub llc_blocks: usize,
    /// One row per compared policy.
    pub rows: Vec<HardwareCostRow>,
}

/// Regenerate Table 2 for the given scale's 24-core configuration (the paper's N = 24).
pub fn run(scale: ExperimentScale) -> Table2Result {
    let cfg = scale.system_config(StudyKind::Cores24);
    let llc_blocks = cfg.llc.geometry.num_blocks();
    let num_apps = cfg.num_cores;
    Table2Result {
        num_apps,
        llc_blocks,
        rows: table2_rows(&AdaptConfig::paper(), llc_blocks, num_apps),
    }
}

/// Regenerate Table 2 exactly as printed in the paper (16 MB LLC, 24 applications),
/// independent of the experiment scale.
pub fn run_paper_exact() -> Table2Result {
    let llc_blocks = 16 * 1024 * 1024 / 64;
    Table2Result {
        num_apps: 24,
        llc_blocks,
        rows: table2_rows(&AdaptConfig::paper(), llc_blocks, 24),
    }
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.2} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// Render the table.
pub fn render(r: &Table2Result) -> String {
    let mut out = format!(
        "Table 2: hardware cost (LLC blocks = {}, N = {} applications)\n",
        r.llc_blocks, r.num_apps
    );
    out.push_str(&render_table(
        &["policy", "storage rule", "total"],
        &r.rows
            .iter()
            .map(|row| {
                vec![
                    row.policy.clone(),
                    row.storage_rule.clone(),
                    human_bytes(row.total_bytes),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_exact_table_matches_published_numbers() {
        let r = run_paper_exact();
        assert_eq!(r.rows.len(), 4);
        let text = render(&r);
        assert!(text.contains("TA-DRRIP"));
        assert!(text.contains("48 B"));
        assert!(text.contains("256.00 KB"));
        assert!(text.contains("ADAPT"));
    }

    #[test]
    fn scaled_table_uses_the_scaled_llc() {
        let r = run(ExperimentScale::Scaled);
        assert_eq!(r.num_apps, 24);
        assert!(r.llc_blocks < 256 * 1024);
    }
}
