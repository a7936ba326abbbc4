//! Figure 1: forcing BRRIP on thrashing applications under TA-DRRIP.
//!
//! The paper's motivation experiment: on 16-core workloads, TA-DRRIP learns SRRIP for every
//! application — including the thrashing ones — and loses performance. Forcing BRRIP on the
//! applications whose working sets exceed the cache (Footprint-number >= 16) improves the
//! weighted speedup substantially (Figure 1a; the paper reports ~2.8x relative gain over
//! baseline TA-DRRIP on its speedup normalization), barely hurts the thrashing applications
//! themselves (Figure 1b) and strongly reduces the MPKI of the others (Figure 1c, up to 72%
//! for art). Figure 1a also shows the result is insensitive to the number of dueling sets
//! (SD = 64 vs 128).

use workloads::{generate_mixes, StudyKind};

use crate::policies::PolicyKind;
use crate::report::{amean, render_table};
use crate::runner::{evaluate_policies_on_mixes, speedups_over_baseline, MixEvaluation};
use crate::scale::ExperimentScale;

/// Per-benchmark MPKI reduction (percent, positive = fewer misses) under forced BRRIP.
#[derive(Debug, Clone)]
pub struct MpkiReduction {
    /// Benchmark name (Table 4 identifier).
    pub benchmark: String,
    /// Percent LLC-MPKI reduction relative to the baseline (positive = fewer misses).
    pub reduction_percent: f64,
}

/// Figure 1 results.
#[derive(Debug, Clone)]
pub struct Figure1Result {
    /// Mean weighted-speedup ratio over baseline TA-DRRIP with set-dueling over 64 sets.
    pub speedup_sd64: f64,
    /// Mean weighted-speedup ratio over baseline TA-DRRIP with set-dueling over 128 sets.
    pub speedup_sd128: f64,
    /// Mean weighted-speedup ratio when thrashing applications are forced to BRRIP.
    pub speedup_forced: f64,
    /// Figure 1b: thrashing applications.
    pub thrashing: Vec<MpkiReduction>,
    /// Figure 1c: non-thrashing applications.
    pub non_thrashing: Vec<MpkiReduction>,
}

/// Average per-benchmark LLC-MPKI reduction of `policy` relative to `baseline`.
pub(crate) fn mpki_reductions(
    evals: &[MixEvaluation],
    policy: PolicyKind,
    baseline: PolicyKind,
    thrashing: bool,
) -> Vec<MpkiReduction> {
    use std::collections::HashMap;
    // benchmark -> (sum of reductions, count)
    let mut acc: HashMap<String, (f64, u64)> = HashMap::new();
    for base_eval in evals.iter().filter(|e| e.policy == baseline) {
        if let Some(pol_eval) = evals
            .iter()
            .find(|e| e.policy == policy && e.mix_id == base_eval.mix_id)
        {
            for (b, p) in base_eval.per_app.iter().zip(&pol_eval.per_app) {
                if b.is_thrashing != thrashing {
                    continue;
                }
                if b.llc_mpki <= 0.0 {
                    continue;
                }
                let red = mc_metrics::mpki_reduction_percent(p.llc_mpki, b.llc_mpki);
                let e = acc.entry(b.name.clone()).or_insert((0.0, 0));
                e.0 += red;
                e.1 += 1;
            }
        }
    }
    let mut rows: Vec<MpkiReduction> = acc
        .into_iter()
        .map(|(benchmark, (sum, n))| MpkiReduction {
            benchmark,
            reduction_percent: sum / n as f64,
        })
        .collect();
    rows.sort_by(|a, b| a.benchmark.cmp(&b.benchmark));
    rows
}

/// Run the Figure 1 experiment.
pub fn run(scale: ExperimentScale) -> Figure1Result {
    let study = StudyKind::Cores16;
    let config = scale.system_config(study);
    let mixes = generate_mixes(study, scale.mixes_for(study), scale.seed());
    let policies = [
        PolicyKind::TaDrrip,
        PolicyKind::TaDrripSd(64),
        PolicyKind::TaDrripSd(128),
        PolicyKind::TaDrripForced,
    ];
    let evals = evaluate_policies_on_mixes(
        &config,
        &mixes,
        &policies,
        scale.instructions_per_core(),
        scale.seed(),
    );

    let mean_ratio = |p: PolicyKind| amean(&speedups_over_baseline(&evals, p, PolicyKind::TaDrrip));
    Figure1Result {
        speedup_sd64: mean_ratio(PolicyKind::TaDrripSd(64)),
        speedup_sd128: mean_ratio(PolicyKind::TaDrripSd(128)),
        speedup_forced: mean_ratio(PolicyKind::TaDrripForced),
        thrashing: mpki_reductions(&evals, PolicyKind::TaDrripForced, PolicyKind::TaDrrip, true),
        non_thrashing: mpki_reductions(
            &evals,
            PolicyKind::TaDrripForced,
            PolicyKind::TaDrrip,
            false,
        ),
    }
}

/// Render the three panels of Figure 1 as text.
pub fn render(r: &Figure1Result) -> String {
    let mut out = String::new();
    out.push_str("Figure 1a: speedup over TA-DRRIP (16-core workloads)\n");
    out.push_str(&render_table(
        &["configuration", "speedup over TA-DRRIP"],
        &[
            vec!["TA-DRRIP(SD=64)".into(), format!("{:.3}", r.speedup_sd64)],
            vec!["TA-DRRIP(SD=128)".into(), format!("{:.3}", r.speedup_sd128)],
            vec![
                "TA-DRRIP(forced)".into(),
                format!("{:.3}", r.speedup_forced),
            ],
        ],
    ));
    out.push_str("\nFigure 1b: % reduction in MPKI, thrashing applications\n");
    out.push_str(&render_table(
        &["benchmark", "reduction %"],
        &r.thrashing
            .iter()
            .map(|m| vec![m.benchmark.clone(), format!("{:.1}", m.reduction_percent)])
            .collect::<Vec<_>>(),
    ));
    out.push_str("\nFigure 1c: % reduction in MPKI, non-thrashing applications\n");
    out.push_str(&render_table(
        &["benchmark", "reduction %"],
        &r.non_thrashing
            .iter()
            .map(|m| vec![m.benchmark.clone(), format!("{:.1}", m.reduction_percent)])
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_three_panels() {
        let r = run(ExperimentScale::Smoke);
        assert!(r.speedup_sd64 > 0.0);
        assert!(r.speedup_forced > 0.0);
        assert!(
            !r.thrashing.is_empty(),
            "16-core mixes always contain thrashing apps"
        );
        assert!(!r.non_thrashing.is_empty());
        let text = render(&r);
        assert!(text.contains("Figure 1a"));
        assert!(text.contains("TA-DRRIP(forced)"));
    }
}
