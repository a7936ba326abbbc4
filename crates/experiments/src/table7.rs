//! Table 7: ADAPT's improvement under alternative multi-core metrics.
//!
//! For every study (4/8/16/20/24 cores) the paper reports ADAPT_bp32's improvement over
//! TA-DRRIP on weighted speedup, the harmonic mean of normalized IPCs, and the geometric /
//! harmonic / arithmetic means of raw IPCs.

use workloads::{generate_mixes, StudyKind};

use crate::policies::PolicyKind;
use crate::report::{amean, pct, render_table};
use crate::runner::{evaluate_policies_on_mixes, group_by_policy};
use crate::scale::ExperimentScale;

/// ADAPT-vs-TA-DRRIP improvements (fractions) for one study.
#[derive(Debug, Clone)]
pub struct StudyMetrics {
    /// Core count of the study.
    pub cores: usize,
    /// Improvement in weighted speedup.
    pub weighted_speedup: f64,
    /// Improvement in the harmonic mean of normalized IPCs (fairness).
    pub harmonic_mean_normalized: f64,
    /// Improvement in the geometric mean of raw IPCs.
    pub geometric_mean_ipc: f64,
    /// Improvement in the harmonic mean of raw IPCs.
    pub harmonic_mean_ipc: f64,
    /// Improvement in the arithmetic mean of raw IPCs.
    pub arithmetic_mean_ipc: f64,
}

/// Table 7 result.
#[derive(Debug, Clone)]
pub struct Table7Result {
    /// One row per study, in core-count order.
    pub studies: Vec<StudyMetrics>,
}

/// Compute one study's row.
pub fn run_study(scale: ExperimentScale, study: StudyKind) -> StudyMetrics {
    let config = scale.system_config(study);
    let mixes = generate_mixes(study, scale.mixes_for(study), scale.seed());
    let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
    let evals = evaluate_policies_on_mixes(
        &config,
        &mixes,
        &policies,
        scale.instructions_per_core(),
        scale.seed(),
    );
    let grouped = group_by_policy(&evals, &policies);
    let (base, adapt) = (&grouped[0], &grouped[1]);

    let mean_improvement = |f: &dyn Fn(&crate::runner::MixEvaluation) -> f64| -> f64 {
        let per_mix: Vec<f64> = base
            .iter()
            .zip(adapt.iter())
            .map(|(b, a)| {
                let bv = f(b);
                if bv > 0.0 {
                    f(a) / bv - 1.0
                } else {
                    0.0
                }
            })
            .collect();
        amean(&per_mix)
    };

    StudyMetrics {
        cores: study.num_cores(),
        weighted_speedup: mean_improvement(&|e| e.metrics.weighted_speedup),
        harmonic_mean_normalized: mean_improvement(&|e| e.metrics.harmonic_mean_normalized),
        geometric_mean_ipc: mean_improvement(&|e| e.metrics.geometric_mean_ipc),
        harmonic_mean_ipc: mean_improvement(&|e| e.metrics.harmonic_mean_ipc),
        arithmetic_mean_ipc: mean_improvement(&|e| e.metrics.arithmetic_mean_ipc),
    }
}

/// Run all five of the paper's studies (the many-core scaling studies are reported by
/// `experiments::scaling`, not Table 7).
pub fn run(scale: ExperimentScale) -> Table7Result {
    Table7Result {
        studies: StudyKind::paper_studies()
            .iter()
            .map(|s| run_study(scale, *s))
            .collect(),
    }
}

/// Render the table in the paper's layout (metrics as rows, studies as columns).
pub fn render(r: &Table7Result) -> String {
    let mut out = String::from("Table 7: ADAPT improvement over TA-DRRIP under other metrics\n");
    let header: Vec<String> = std::iter::once("metric".to_string())
        .chain(r.studies.iter().map(|s| format!("{}-core", s.cores)))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    type MetricFn = Box<dyn Fn(&StudyMetrics) -> f64>;
    let metric_rows: Vec<(&str, MetricFn)> = vec![
        (
            "Wt.Speed-up",
            Box::new(|s: &StudyMetrics| s.weighted_speedup),
        ),
        (
            "Norm. HM",
            Box::new(|s: &StudyMetrics| s.harmonic_mean_normalized),
        ),
        (
            "GM of IPCs",
            Box::new(|s: &StudyMetrics| s.geometric_mean_ipc),
        ),
        (
            "HM of IPCs",
            Box::new(|s: &StudyMetrics| s.harmonic_mean_ipc),
        ),
        (
            "AM of IPCs",
            Box::new(|s: &StudyMetrics| s.arithmetic_mean_ipc),
        ),
    ];
    let rows: Vec<Vec<String>> = metric_rows
        .iter()
        .map(|(name, f)| {
            std::iter::once(name.to_string())
                .chain(r.studies.iter().map(|s| pct(f(s))))
                .collect()
        })
        .collect();
    out.push_str(&render_table(&header_refs, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_study_smoke_run_produces_finite_improvements() {
        let m = run_study(ExperimentScale::Smoke, StudyKind::Cores4);
        assert_eq!(m.cores, 4);
        for v in [
            m.weighted_speedup,
            m.harmonic_mean_normalized,
            m.geometric_mean_ipc,
            m.harmonic_mean_ipc,
            m.arithmetic_mean_ipc,
        ] {
            assert!(v.is_finite());
            assert!(v > -1.0 && v < 5.0, "improvement {v} outside sane bounds");
        }
    }

    #[test]
    fn render_places_metrics_in_rows() {
        let r = Table7Result {
            studies: vec![StudyMetrics {
                cores: 16,
                weighted_speedup: 0.047,
                harmonic_mean_normalized: 0.066,
                geometric_mean_ipc: 0.053,
                harmonic_mean_ipc: 0.054,
                arithmetic_mean_ipc: 0.048,
            }],
        };
        let text = render(&r);
        assert!(text.contains("Wt.Speed-up"));
        assert!(text.contains("16-core"));
        assert!(text.contains("+4.70%"));
    }
}
