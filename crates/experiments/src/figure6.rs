//! Figure 6: impact of bypassing distant-priority insertions on each replacement policy.
//!
//! For TA-DRRIP, SHiP, EAF and ADAPT the paper compares the "insertion" flavour (distant
//! lines are installed at RRPV 3) with the "bypass" flavour (distant lines skip the LLC).
//! Bypassing helps TA-DRRIP and EAF, helps ADAPT the most, and slightly hurts SHiP (whose
//! few distant predictions are mostly wrong). LRU has no distant insertions, so it has no
//! bypass variant.

use workloads::{generate_mixes, StudyKind};

use crate::policies::PolicyKind;
use crate::report::{amean, render_table};
use crate::runner::{evaluate_policies_on_mixes, speedups_over_baseline};
use crate::scale::ExperimentScale;

/// Insertion-vs-bypass comparison for one policy family.
#[derive(Debug, Clone)]
pub struct BypassImpact {
    /// Policy family name (e.g. "ADAPT", "DRRIP").
    pub family: String,
    /// Mean weighted speedup over TA-DRRIP of the insertion flavour.
    pub insertion_speedup: f64,
    /// Mean weighted speedup over TA-DRRIP of the bypass flavour.
    pub bypass_speedup: f64,
}

/// Figure 6 result.
#[derive(Debug, Clone)]
pub struct Figure6Result {
    /// One insertion-vs-bypass comparison per policy family.
    pub impacts: Vec<BypassImpact>,
}

/// The (family, insertion flavour, bypass flavour) triples of Figure 6.
pub fn families() -> Vec<(&'static str, PolicyKind, PolicyKind)> {
    vec![
        ("TA-DRRIP", PolicyKind::TaDrrip, PolicyKind::TaDrripBypass),
        ("SHiP", PolicyKind::Ship, PolicyKind::ShipBypass),
        ("EAF", PolicyKind::Eaf, PolicyKind::EafBypass),
        ("ADAPT", PolicyKind::AdaptIns, PolicyKind::AdaptBp32),
    ]
}

/// Run the Figure 6 experiment on the 16-core study.
pub fn run(scale: ExperimentScale) -> Figure6Result {
    let study = StudyKind::Cores16;
    let config = scale.system_config(study);
    let mixes = generate_mixes(study, scale.mixes_for(study), scale.seed());
    let mut policies = vec![PolicyKind::TaDrrip];
    for (_, ins, byp) in families() {
        if !policies.contains(&ins) {
            policies.push(ins);
        }
        if !policies.contains(&byp) {
            policies.push(byp);
        }
    }
    let evals = evaluate_policies_on_mixes(
        &config,
        &mixes,
        &policies,
        scale.instructions_per_core(),
        scale.seed(),
    );
    let impacts = families()
        .into_iter()
        .map(|(family, ins, byp)| BypassImpact {
            family: family.to_string(),
            insertion_speedup: amean(&speedups_over_baseline(&evals, ins, PolicyKind::TaDrrip)),
            bypass_speedup: amean(&speedups_over_baseline(&evals, byp, PolicyKind::TaDrrip)),
        })
        .collect();
    Figure6Result { impacts }
}

/// Render the figure as a table.
pub fn render(r: &Figure6Result) -> String {
    let mut out = String::from("Figure 6: weighted speedup over TA-DRRIP, insertion vs bypass\n");
    out.push_str(&render_table(
        &["policy", "insertion", "bypass", "bypass gain"],
        &r.impacts
            .iter()
            .map(|i| {
                vec![
                    i.family.clone(),
                    format!("{:.4}", i.insertion_speedup),
                    format!("{:.4}", i.bypass_speedup),
                    format!("{:+.2}%", (i.bypass_speedup - i.insertion_speedup) * 100.0),
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
    fn smoke_run_covers_all_four_families() {
        let r = run(ExperimentScale::Smoke);
        assert_eq!(r.impacts.len(), 4);
        let names: Vec<&str> = r.impacts.iter().map(|i| i.family.as_str()).collect();
        assert_eq!(names, vec!["TA-DRRIP", "SHiP", "EAF", "ADAPT"]);
        for i in &r.impacts {
            assert!(i.insertion_speedup > 0.0);
            assert!(i.bypass_speedup > 0.0);
        }
        // The TA-DRRIP insertion flavour is the baseline itself.
        assert!((r.impacts[0].insertion_speedup - 1.0).abs() < 1e-9);
        assert!(render(&r).contains("Figure 6"));
    }
}
