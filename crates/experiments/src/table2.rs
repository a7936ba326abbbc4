//! Table 2: hardware-cost comparison.
//!
//! Wraps `adapt_core::cost::table2_rows` for the paper's 16 MB / 16-way LLC shared by
//! 24 applications, and renders it in the same layout as the paper.

use adapt_core::{table2_rows, AdaptConfig};
use workloads::StudyKind;

use crate::report::Table;
use crate::scale::ExperimentScale;

/// Table 2 exactly as printed in the paper (16 MB LLC, 24 applications), then for
/// `study`'s configuration at `scale` (the registry asks for the paper's N = 24).
pub(crate) fn tables(scale: ExperimentScale, study: StudyKind) -> Vec<Table> {
    let cfg = scale.system_config(study);
    let paper_blocks = 16 * 1024 * 1024 / 64;
    [
        (paper_blocks, 24),
        (cfg.llc.geometry.num_blocks(), cfg.num_cores),
    ]
    .into_iter()
    .map(|(llc_blocks, apps)| {
        let rows = table2_rows(&AdaptConfig::paper(), llc_blocks, apps)
            .into_iter()
            .map(|row| vec![row.policy, row.storage_rule, human_bytes(row.total_bytes)]);
        Table::new(
            format!("Table 2: hardware cost (LLC blocks = {llc_blocks}, N = {apps} applications)"),
            ["policy", "storage rule", "total"],
            rows.collect(),
        )
    })
    .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_table;

    #[test]
    fn paper_exact_table_matches_published_numbers() {
        let paper = &tables(ExperimentScale::Smoke, StudyKind::Cores24)[0];
        assert_eq!(paper.rows.len(), 4);
        let text = render_table(paper);
        assert!(text.contains("LLC blocks = 262144, N = 24"));
        assert!(text.contains("TA-DRRIP"));
        assert!(text.contains("48 B"));
        assert!(text.contains("256.00 KB"));
        assert!(text.contains("ADAPT"));
    }

    #[test]
    fn scaled_table_uses_the_scaled_llc() {
        let scaled = &tables(ExperimentScale::Scaled, StudyKind::Cores24)[1];
        let blocks = ExperimentScale::Scaled
            .system_config(StudyKind::Cores24)
            .llc
            .geometry
            .num_blocks();
        assert!(blocks < 256 * 1024);
        assert_eq!(
            scaled.title,
            format!("Table 2: hardware cost (LLC blocks = {blocks}, N = 24 applications)")
        );
    }
}
