//! Figures 4 and 5: per-application MPKI and IPC impact on 16-core workloads.
//!
//! Figure 4 reports, for each *thrashing* application (Footprint-number >= 16), the change
//! in LLC MPKI and the IPC speedup of LRU, SHiP, EAF, ADAPT_ins and ADAPT_bp32 relative to
//! TA-DRRIP, averaged over the 16-core workloads. Figure 5 reports the same quantities for
//! the non-thrashing applications. The paper's observation: bypassing barely affects the
//! thrashing applications (cactusADM being the exception) while substantially improving the
//! cache-friendly ones.

use workloads::{generate_mixes, StudyKind};

use crate::policies::PolicyKind;
use crate::report::render_table;
use crate::runner::{evaluate_policies_on_mixes, MixEvaluation};
use crate::scale::ExperimentScale;

/// Per-benchmark, per-policy aggregate.
#[derive(Debug, Clone)]
pub struct AppPolicyImpact {
    /// Benchmark name (Table 4 identifier).
    pub benchmark: String,
    /// Display name of the policy.
    pub policy: String,
    /// Percent reduction in LLC MPKI relative to TA-DRRIP (positive = fewer misses).
    pub mpki_reduction_percent: f64,
    /// IPC speedup relative to TA-DRRIP.
    pub ipc_speedup: f64,
}

/// Figures 4 (thrashing) and 5 (non-thrashing).
#[derive(Debug, Clone)]
pub struct Figure45Result {
    /// Figure 4: impact on thrashing applications.
    pub thrashing: Vec<AppPolicyImpact>,
    /// Figure 5: impact on non-thrashing applications.
    pub non_thrashing: Vec<AppPolicyImpact>,
}

/// The per-application comparison policies (Figure 4/5 legends).
pub fn comparison_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::Ship,
        PolicyKind::Eaf,
        PolicyKind::AdaptIns,
        PolicyKind::AdaptBp32,
    ]
}

fn impacts(evals: &[MixEvaluation], thrashing: bool) -> Vec<AppPolicyImpact> {
    use std::collections::HashMap;
    // (benchmark, policy) -> (sum mpki reduction, sum ipc ratio, count)
    let mut acc: HashMap<(String, String), (f64, f64, u64)> = HashMap::new();
    for base in evals.iter().filter(|e| e.policy == PolicyKind::TaDrrip) {
        for policy in comparison_policies() {
            let Some(pol) = evals
                .iter()
                .find(|e| e.policy == policy && e.mix_id == base.mix_id)
            else {
                continue;
            };
            for (b, p) in base.per_app.iter().zip(&pol.per_app) {
                if b.is_thrashing != thrashing || b.ipc <= 0.0 {
                    continue;
                }
                let red = if b.llc_mpki > 0.0 {
                    mc_metrics::mpki_reduction_percent(p.llc_mpki, b.llc_mpki)
                } else {
                    0.0
                };
                let ipc_ratio = p.ipc / b.ipc;
                let e = acc
                    .entry((b.name.clone(), policy.label()))
                    .or_insert((0.0, 0.0, 0));
                e.0 += red;
                e.1 += ipc_ratio;
                e.2 += 1;
            }
        }
    }
    let mut rows: Vec<AppPolicyImpact> = acc
        .into_iter()
        .map(|((benchmark, policy), (red, ipc, n))| AppPolicyImpact {
            benchmark,
            policy,
            mpki_reduction_percent: red / n as f64,
            ipc_speedup: ipc / n as f64,
        })
        .collect();
    rows.sort_by(|a, b| a.benchmark.cmp(&b.benchmark).then(a.policy.cmp(&b.policy)));
    rows
}

/// Run Figures 4 and 5 from a shared 16-core sweep.
pub fn run(scale: ExperimentScale) -> Figure45Result {
    let study = StudyKind::Cores16;
    let config = scale.system_config(study);
    let mixes = generate_mixes(study, scale.mixes_for(study), scale.seed());
    let mut policies = vec![PolicyKind::TaDrrip];
    policies.extend(comparison_policies());
    let evals = evaluate_policies_on_mixes(
        &config,
        &mixes,
        &policies,
        scale.instructions_per_core(),
        scale.seed(),
    );
    Figure45Result {
        thrashing: impacts(&evals, true),
        non_thrashing: impacts(&evals, false),
    }
}

fn render_panel(title: &str, rows: &[AppPolicyImpact]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&render_table(
        &["benchmark", "policy", "MPKI reduction %", "IPC speedup"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    r.policy.clone(),
                    format!("{:.1}", r.mpki_reduction_percent),
                    format!("{:.3}", r.ipc_speedup),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out
}

/// Render both figures.
pub fn render(r: &Figure45Result) -> String {
    let mut out = render_panel(
        "Figure 4: MPKI / IPC impact on thrashing applications (vs TA-DRRIP)",
        &r.thrashing,
    );
    out.push('\n');
    out.push_str(&render_panel(
        "Figure 5: MPKI / IPC impact on non-thrashing applications (vs TA-DRRIP)",
        &r.non_thrashing,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reports_both_groups_for_every_policy() {
        let r = run(ExperimentScale::Smoke);
        assert!(!r.thrashing.is_empty());
        assert!(!r.non_thrashing.is_empty());
        let policies: std::collections::HashSet<&str> =
            r.thrashing.iter().map(|x| x.policy.as_str()).collect();
        assert!(policies.contains("ADAPT_bp32"));
        assert!(policies.contains("LRU"));
        let text = render(&r);
        assert!(text.contains("Figure 4"));
        assert!(text.contains("Figure 5"));
    }
}
