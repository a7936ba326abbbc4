//! Figure 8: scalability with respect to the number of applications.
//!
//! The paper repeats the Figure 3 comparison for 4-, 8-, 20- and 24-core workloads
//! (Table 6's studies) and reports per-workload s-curves. ADAPT outperforms the prior
//! policies at every scale: up to 20% / 4.8% on average at 4 cores, ~3.5% at 8 cores, and
//! 5.8% / 5.9% on average at 20 / 24 cores (which share the 16 MB, 16-way LLC, i.e. the
//! `#cores >= #ways` regime).

use workloads::StudyKind;

use crate::figure3::{render as render_curves, run_study, SCurveResult};
use crate::scale::ExperimentScale;

/// Figure 8: one s-curve panel per study.
#[derive(Debug, Clone)]
pub struct Figure8Result {
    /// One s-curve panel per study (4/8/20/24 cores).
    pub panels: Vec<SCurveResult>,
}

/// The studies shown in Figure 8 (Figure 3 already covers 16 cores).
pub fn figure8_studies() -> Vec<StudyKind> {
    vec![
        StudyKind::Cores4,
        StudyKind::Cores8,
        StudyKind::Cores20,
        StudyKind::Cores24,
    ]
}

/// Run selected studies (used by tests/benches to bound runtime).
pub fn run_studies(scale: ExperimentScale, studies: &[StudyKind]) -> Figure8Result {
    Figure8Result {
        panels: studies.iter().map(|s| run_study(scale, *s)).collect(),
    }
}

/// Run the full Figure 8.
pub fn run(scale: ExperimentScale) -> Figure8Result {
    run_studies(scale, &figure8_studies())
}

/// Render every panel.
pub fn render(r: &Figure8Result) -> String {
    let mut out = String::new();
    for panel in &r.panels {
        out.push_str(&format!(
            "Figure 8 panel: {}-core workloads\n",
            panel.study_cores
        ));
        out.push_str(&render_curves(panel));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_panel_smoke_run() {
        let r = run_studies(ExperimentScale::Smoke, &[StudyKind::Cores4]);
        assert_eq!(r.panels.len(), 1);
        assert_eq!(r.panels[0].study_cores, 4);
        assert_eq!(r.panels[0].curves.len(), 5);
        assert!(render(&r).contains("4-core"));
    }

    #[test]
    fn figure8_covers_the_paper_studies() {
        let cores: Vec<usize> = figure8_studies().iter().map(|s| s.num_cores()).collect();
        assert_eq!(cores, vec![4, 8, 20, 24]);
    }
}
