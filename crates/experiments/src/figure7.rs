//! Figure 7: sensitivity to larger last-level caches.
//!
//! The paper grows the LLC from 16 MB/16-way to 24 MB/24-way and 32 MB/32-way (keeping the
//! set count constant) for the 16-, 20- and 24-core studies and shows ADAPT still improves
//! the weighted speedup — certain applications keep thrashing even with the larger caches,
//! so the Footprint-number based priority assignment designed for 16-way caches carries
//! over to higher associativities.

use workloads::{generate_mixes, StudyKind};

use crate::policies::PolicyKind;
use crate::report::{amean, pct, render_table};
use crate::runner::{evaluate_policies_on_mixes, speedups_over_baseline};
use crate::scale::ExperimentScale;

/// One bar of Figure 7: a (core count, LLC configuration) pair.
#[derive(Debug, Clone)]
pub struct LargeCachePoint {
    /// Core count of the study.
    pub cores: usize,
    /// LLC configuration label (e.g. "24MB/24-way").
    pub llc_label: String,
    /// Mean weighted speedup of ADAPT_bp32 over TA-DRRIP.
    pub adapt_speedup: f64,
}

/// Figure 7 result.
#[derive(Debug, Clone)]
pub struct Figure7Result {
    /// One bar per (core count, LLC configuration) pair.
    pub points: Vec<LargeCachePoint>,
}

/// The LLC configurations of Figure 7 (paper sizes; scaled proportionally by the scale).
pub fn llc_variants() -> Vec<(&'static str, u64, usize)> {
    vec![
        ("24MB/24-way", 24 * 1024 * 1024, 24),
        ("32MB/32-way", 32 * 1024 * 1024, 32),
    ]
}

/// Run the Figure 7 experiment.
pub fn run(scale: ExperimentScale) -> Figure7Result {
    let studies = [StudyKind::Cores16, StudyKind::Cores20, StudyKind::Cores24];
    let mut points = Vec::new();
    for study in studies {
        for (label, bytes, ways) in llc_variants() {
            let config = scale.system_config_with_llc(study, bytes, ways);
            let mixes = generate_mixes(study, scale.mixes_for(study), scale.seed());
            let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
            let evals = evaluate_policies_on_mixes(
                &config,
                &mixes,
                &policies,
                scale.instructions_per_core(),
                scale.seed(),
            );
            let speedup = amean(&speedups_over_baseline(
                &evals,
                PolicyKind::AdaptBp32,
                PolicyKind::TaDrrip,
            ));
            points.push(LargeCachePoint {
                cores: study.num_cores(),
                llc_label: label.to_string(),
                adapt_speedup: speedup,
            });
        }
    }
    Figure7Result { points }
}

/// Render Figure 7.
pub fn render(r: &Figure7Result) -> String {
    let mut out =
        String::from("Figure 7: ADAPT weighted speedup over TA-DRRIP with larger caches\n");
    out.push_str(&render_table(
        &["cores", "LLC", "speedup", "gain"],
        &r.points
            .iter()
            .map(|p| {
                vec![
                    p.cores.to_string(),
                    p.llc_label.clone(),
                    format!("{:.4}", p.adapt_speedup),
                    pct(p.adapt_speedup - 1.0),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

/// A cheaper single-point variant used by benches and tests.
pub fn run_point(
    scale: ExperimentScale,
    study: StudyKind,
    llc_bytes: u64,
    ways: usize,
) -> LargeCachePoint {
    let config = scale.system_config_with_llc(study, llc_bytes, ways);
    let mixes = generate_mixes(study, scale.mixes_for(study), scale.seed());
    let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
    let evals = evaluate_policies_on_mixes(
        &config,
        &mixes,
        &policies,
        scale.instructions_per_core(),
        scale.seed(),
    );
    LargeCachePoint {
        cores: study.num_cores(),
        llc_label: format!("{}B/{}-way", llc_bytes, ways),
        adapt_speedup: amean(&speedups_over_baseline(
            &evals,
            PolicyKind::AdaptBp32,
            PolicyKind::TaDrrip,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_smoke_run_works() {
        let p = run_point(
            ExperimentScale::Smoke,
            StudyKind::Cores16,
            24 * 1024 * 1024,
            24,
        );
        assert_eq!(p.cores, 16);
        assert!(p.adapt_speedup > 0.0);
    }

    #[test]
    fn render_lists_every_point() {
        let r = Figure7Result {
            points: vec![
                LargeCachePoint {
                    cores: 16,
                    llc_label: "24MB/24-way".into(),
                    adapt_speedup: 1.03,
                },
                LargeCachePoint {
                    cores: 24,
                    llc_label: "32MB/32-way".into(),
                    adapt_speedup: 1.05,
                },
            ],
        };
        let text = render(&r);
        assert!(text.contains("24MB/24-way"));
        assert!(text.contains("+5.00%"));
    }
}
