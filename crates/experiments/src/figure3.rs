//! Figure 3: weighted speedup of ADAPT and prior policies on 16-core workloads.
//!
//! The paper's headline result: over 60 16-core workloads on a 16 MB / 16-way LLC,
//! ADAPT_bp32 consistently outperforms TA-DRRIP (up to 7%, 4.7% on average), ADAPT_ins and
//! EAF are comparable to each other, and LRU/SHiP hover around (or slightly below) the
//! TA-DRRIP baseline. Results are presented as an s-curve: per-workload speedups relative
//! to TA-DRRIP, sorted ascending.

use serde::{Deserialize, Serialize};
use workloads::{generate_mixes, StudyKind};

use crate::policies::PolicyKind;
use crate::report::{amean, pct, render_series_csv, render_table};
use crate::runner::{evaluate_policies_on_mixes, speedups_over_baseline, MixEvaluation};
use crate::scale::ExperimentScale;

/// One policy's s-curve plus its average speedup over the baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyCurve {
    /// Display name of the policy.
    pub policy: String,
    /// Per-workload speedups over TA-DRRIP, sorted ascending (the s-curve).
    pub s_curve: Vec<f64>,
    /// Arithmetic mean of the per-workload speedups.
    pub mean_speedup: f64,
    /// Best per-workload speedup.
    pub max_speedup: f64,
}

/// Figure 3 (and, reused by Figure 8, any per-study s-curve panel).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SCurveResult {
    /// Cores in the study (= applications per mix).
    pub study_cores: usize,
    /// Number of workload mixes evaluated.
    pub workloads: usize,
    /// Total replay wraps reported by the sweep engine, in passes: Σ over mixes and
    /// cores of the most passes any one policy's run made over that core's stream. Zero
    /// for synthetic sweeps and
    /// for corpora whose capture budget covered every run; non-zero means some corpus
    /// stream was re-executed (the paper's methodology for early-finishing
    /// applications) because the capture budget was smaller than the run, so results
    /// may differ from a live-generator sweep. See `SweepOutcome::mix_wraps` and
    /// `docs/repro-guide.md`.
    pub replay_wraps: u64,
    /// One curve per non-baseline policy.
    pub curves: Vec<PolicyCurve>,
}

/// Evaluate the Figure 3/8 policy lineup on one study and build s-curves.
pub fn run_study(scale: ExperimentScale, study: StudyKind) -> SCurveResult {
    let config = scale.system_config(study);
    let mixes = generate_mixes(study, scale.mixes_for(study), scale.seed());
    let mut policies = vec![PolicyKind::TaDrrip];
    policies.extend(PolicyKind::figure3_lineup());
    let evals = evaluate_policies_on_mixes(
        &config,
        &mixes,
        &policies,
        scale.instructions_per_core(),
        scale.seed(),
    );
    SCurveResult {
        study_cores: study.num_cores(),
        workloads: mixes.len(),
        replay_wraps: 0, // synthetic generators never wrap
        curves: build_curves(&evals),
    }
}

/// Build per-policy curves (relative to TA-DRRIP) from a finished evaluation sweep.
pub fn build_curves(evals: &[MixEvaluation]) -> Vec<PolicyCurve> {
    PolicyKind::figure3_lineup()
        .into_iter()
        .map(|p| {
            let speedups = speedups_over_baseline(evals, p, PolicyKind::TaDrrip);
            let mut sorted = speedups.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN speedups"));
            PolicyCurve {
                policy: p.label(),
                mean_speedup: amean(&speedups),
                max_speedup: sorted.last().copied().unwrap_or(0.0),
                s_curve: sorted,
            }
        })
        .collect()
}

/// The 16-core headline experiment.
pub fn run(scale: ExperimentScale) -> SCurveResult {
    run_study(scale, StudyKind::Cores16)
}

/// Render the summary table plus the s-curve series as CSV.
pub fn render(r: &SCurveResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 3: weighted speedup over TA-DRRIP ({}-core, {} workloads)\n",
        r.study_cores, r.workloads
    ));
    if r.replay_wraps > 0 {
        out.push_str(&format!(
            "note: corpus replay re-executed its streams ({} pass(es), summed over cores \
             and mixes) — capture budget smaller than the run; results follow \
             re-execution semantics (docs/repro-guide.md)\n",
            r.replay_wraps
        ));
    }
    out.push_str(&render_table(
        &["policy", "mean speedup", "mean gain", "max speedup"],
        &r.curves
            .iter()
            .map(|c| {
                vec![
                    c.policy.clone(),
                    format!("{:.4}", c.mean_speedup),
                    pct(c.mean_speedup - 1.0),
                    format!("{:.4}", c.max_speedup),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out.push_str("\nS-curve series (per-workload speedup over TA-DRRIP, sorted):\n");
    out.push_str(&render_series_csv(
        &r.curves
            .iter()
            .map(|c| (c.policy.clone(), c.s_curve.clone()))
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_a_curve_per_policy() {
        let r = run(ExperimentScale::Smoke);
        assert_eq!(r.study_cores, 16);
        assert_eq!(r.curves.len(), 5);
        for c in &r.curves {
            assert_eq!(c.s_curve.len(), r.workloads);
            assert!(c.mean_speedup > 0.0);
            assert!(
                c.s_curve.windows(2).all(|w| w[0] <= w[1]),
                "s-curve must be sorted"
            );
        }
        let text = render(&r);
        assert!(text.contains("ADAPT_bp32"));
        assert!(text.contains("workload_index"));
    }
}
