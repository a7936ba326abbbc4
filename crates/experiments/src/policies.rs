//! Unified policy naming and construction for the experiment drivers.
//!
//! [`PolicyKind`] spans the baselines (`llc-policies`), ADAPT (`adapt-core`), the bypass
//! ablation variants of Figure 6 and the forced-BRRIP TA-DRRIP variants of Figure 1, so
//! every experiment can be expressed as "run this list of [`PolicyKind`]s over these
//! workload mixes".

use adapt_core::{AdaptConfig, AdaptPolicy};
use cache_sim::config::SystemConfig;
use llc_policies::{
    build_baseline_any, AnyPolicy, BaselineKind, BypassDistant, EafPolicy, ShipPolicy,
    TaDrripPolicy,
};
use serde::{Deserialize, Serialize};

/// A policy an experiment can ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// True least-recently-used replacement.
    Lru,
    /// Static RRIP (long re-reference prediction on insert).
    Srrip,
    /// Bimodal RRIP (mostly distant insertions).
    Brrip,
    /// Dynamic RRIP (set-dueling between SRRIP and BRRIP).
    Drrip,
    /// The paper's baseline (thread-aware DRRIP with 32 dueling sets per policy).
    TaDrrip,
    /// TA-DRRIP with an explicit number of dueling sets (Figure 1a: 64 and 128).
    TaDrripSd(usize),
    /// TA-DRRIP with BRRIP forced for the mix's thrashing applications (Figure 1).
    TaDrripForced,
    /// Signature-based hit prediction (SHiP-PC).
    Ship,
    /// Evicted-address-filter insertion policy.
    Eaf,
    /// ADAPT with Least-priority insertion (no bypass).
    AdaptIns,
    /// ADAPT with Least-priority bypass, 1-in-32 installs (the paper's best variant).
    AdaptBp32,
    /// Figure 6 ablations: distant insertions of the baseline become bypasses.
    TaDrripBypass,
    /// Figure 6: SHiP with distant insertions turned into bypasses.
    ShipBypass,
    /// Figure 6: EAF with distant insertions turned into bypasses.
    EafBypass,
}

impl PolicyKind {
    /// Label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Lru => "LRU".into(),
            PolicyKind::Srrip => "SRRIP".into(),
            PolicyKind::Brrip => "BRRIP".into(),
            PolicyKind::Drrip => "DRRIP".into(),
            PolicyKind::TaDrrip => "TA-DRRIP".into(),
            PolicyKind::TaDrripSd(n) => format!("TA-DRRIP(SD={n})"),
            PolicyKind::TaDrripForced => "TA-DRRIP(forced)".into(),
            PolicyKind::Ship => "SHiP".into(),
            PolicyKind::Eaf => "EAF".into(),
            PolicyKind::AdaptIns => "ADAPT_ins".into(),
            PolicyKind::AdaptBp32 => "ADAPT_bp32".into(),
            PolicyKind::TaDrripBypass => "TA-DRRIP+bypass".into(),
            PolicyKind::ShipBypass => "SHiP+bypass".into(),
            PolicyKind::EafBypass => "EAF+bypass".into(),
        }
    }

    /// Parse a figure-legend label back into its policy — the exact inverse of
    /// [`PolicyKind::label`] (`parse(kind.label()) == Some(kind)` for every variant),
    /// so external callers (the `sweepd` API, CLI flags) can name policies by the
    /// strings the reports print.
    pub fn parse(label: &str) -> Option<PolicyKind> {
        Some(match label {
            "LRU" => PolicyKind::Lru,
            "SRRIP" => PolicyKind::Srrip,
            "BRRIP" => PolicyKind::Brrip,
            "DRRIP" => PolicyKind::Drrip,
            "TA-DRRIP" => PolicyKind::TaDrrip,
            "TA-DRRIP(forced)" => PolicyKind::TaDrripForced,
            "SHiP" => PolicyKind::Ship,
            "EAF" => PolicyKind::Eaf,
            "ADAPT_ins" => PolicyKind::AdaptIns,
            "ADAPT_bp32" => PolicyKind::AdaptBp32,
            "TA-DRRIP+bypass" => PolicyKind::TaDrripBypass,
            "SHiP+bypass" => PolicyKind::ShipBypass,
            "EAF+bypass" => PolicyKind::EafBypass,
            other => {
                let n = other.strip_prefix("TA-DRRIP(SD=")?.strip_suffix(')')?;
                PolicyKind::TaDrripSd(n.parse().ok()?)
            }
        })
    }

    /// The lineup of the paper's Figure 3 / Figure 8 comparisons, in legend order.
    pub fn figure3_lineup() -> Vec<PolicyKind> {
        vec![
            PolicyKind::AdaptBp32,
            PolicyKind::Lru,
            PolicyKind::Ship,
            PolicyKind::Eaf,
            PolicyKind::AdaptIns,
        ]
    }

    /// Construct the policy for a system in the monomorphized enum-dispatched form the
    /// simulator hot path is instantiated with. `thrashing_slots` lists the cores running
    /// applications with Footprint-number >= 16 (needed only by `TaDrripForced`).
    ///
    /// Baselines map to dedicated [`AnyPolicy`] variants (direct calls in the LLC);
    /// ADAPT — which lives in `adapt-core`, outside the baseline crate — rides the
    /// retained [`AnyPolicy::Custom`] dynamic path, costing exactly what the old
    /// all-boxed design cost.
    pub fn build_dispatch(&self, config: &SystemConfig, thrashing_slots: &[usize]) -> AnyPolicy {
        let llc = &config.llc;
        let sets = llc.geometry.num_sets();
        let ways = llc.geometry.ways;
        let cores = config.num_cores;
        match self {
            PolicyKind::Lru => build_baseline_any(BaselineKind::Lru, llc, cores),
            PolicyKind::Srrip => build_baseline_any(BaselineKind::Srrip, llc, cores),
            PolicyKind::Brrip => build_baseline_any(BaselineKind::Brrip, llc, cores),
            PolicyKind::Drrip => build_baseline_any(BaselineKind::Drrip, llc, cores),
            PolicyKind::TaDrrip => build_baseline_any(BaselineKind::TaDrrip, llc, cores),
            PolicyKind::TaDrripSd(n) => {
                AnyPolicy::TaDrrip(TaDrripPolicy::with_dueling_sets(sets, ways, cores, *n))
            }
            PolicyKind::TaDrripForced => {
                let mut p = TaDrripPolicy::new(sets, ways, cores);
                p.force_brrip_for(thrashing_slots);
                AnyPolicy::TaDrrip(p)
            }
            PolicyKind::Ship => build_baseline_any(BaselineKind::Ship, llc, cores),
            PolicyKind::Eaf => build_baseline_any(BaselineKind::Eaf, llc, cores),
            PolicyKind::AdaptIns => AnyPolicy::custom(Box::new(AdaptPolicy::new(
                AdaptConfig::paper_insert_only(),
                llc,
                cores,
            ))),
            PolicyKind::AdaptBp32 => {
                AnyPolicy::custom(Box::new(AdaptPolicy::new(AdaptConfig::paper(), llc, cores)))
            }
            PolicyKind::TaDrripBypass => AnyPolicy::BypassDistant(BypassDistant::new(Box::new(
                TaDrripPolicy::new(sets, ways, cores),
            ))),
            PolicyKind::ShipBypass => AnyPolicy::BypassDistant(BypassDistant::new(Box::new(
                ShipPolicy::new(sets, ways, cores),
            ))),
            PolicyKind::EafBypass => {
                AnyPolicy::BypassDistant(BypassDistant::new(Box::new(EafPolicy::new(sets, ways))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::replacement::LlcReplacementPolicy;

    #[test]
    fn every_kind_builds_and_labels() {
        let cfg = SystemConfig::tiny(4);
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::Srrip,
            PolicyKind::Brrip,
            PolicyKind::Drrip,
            PolicyKind::TaDrrip,
            PolicyKind::TaDrripSd(64),
            PolicyKind::TaDrripForced,
            PolicyKind::Ship,
            PolicyKind::Eaf,
            PolicyKind::AdaptIns,
            PolicyKind::AdaptBp32,
            PolicyKind::TaDrripBypass,
            PolicyKind::ShipBypass,
            PolicyKind::EafBypass,
        ];
        for k in kinds {
            let p = k.build_dispatch(&cfg, &[1, 3]);
            assert!(!p.name().is_empty());
            assert!(!k.label().is_empty());
            assert_eq!(
                PolicyKind::parse(&k.label()),
                Some(k),
                "parse must invert label for {k:?}"
            );
        }
        assert_eq!(
            PolicyKind::parse("TA-DRRIP(SD=128)"),
            Some(PolicyKind::TaDrripSd(128))
        );
        assert_eq!(PolicyKind::parse("NOPE"), None);
        assert_eq!(PolicyKind::parse("TA-DRRIP(SD=x)"), None);
    }

    #[test]
    fn forced_variant_reports_forced_name() {
        let cfg = SystemConfig::tiny(4);
        let p = PolicyKind::TaDrripForced.build_dispatch(&cfg, &[0]);
        assert_eq!(p.name(), "TA-DRRIP(forced)");
    }

    #[test]
    fn figure3_lineup_matches_legend() {
        let labels: Vec<String> = PolicyKind::figure3_lineup()
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(
            labels,
            vec!["ADAPT_bp32", "LRU", "SHiP", "EAF", "ADAPT_ins"]
        );
    }
}
