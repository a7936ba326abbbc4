//! Policy naming, construction and dispatch for the experiment drivers — the one place
//! all three live.
//!
//! [`PolicyKind`] names a policy: the baselines (`llc-policies`), ADAPT (`adapt-core`),
//! the bypass ablation variants of Figure 6 and the TA-DRRIP variants of Figure 1, so
//! every experiment can be expressed as "run this list of [`PolicyKind`]s over these
//! workload mixes". [`PolicyKind::build_dispatch`] is the only constructor, and it returns
//! [`AnyPolicy`], an enum with one variant per concrete policy type. Instantiating
//! `cache_sim::llc::SharedLlc<AnyPolicy>` with it turns every per-access policy callback
//! (`on_access`, `on_hit`, `insertion_decision`, ...) into a direct, inlinable match;
//! ADAPT and the baselines take the same path, and nothing on it is boxed.

use adapt_core::{AdaptConfig, AdaptPolicy};
use cache_sim::config::SystemConfig;
use cache_sim::replacement::{AccessContext, InsertionDecision, LineView, LlcReplacementPolicy};
use llc_policies::{
    BrripPolicy, BypassDistant, DrripPolicy, EafPolicy, LruPolicy, ShipPolicy, SrripPolicy,
    TaDrripPolicy,
};

/// Largest `SD=` operand [`PolicyKind::parse`] accepts. The paper sweeps 32/64/128, and
/// with half the sets kept as followers no shipped `SystemConfig` can host more than 256
/// dueling sets per thread.
const MAX_DUELING_SETS: usize = 4096;

/// Enum dispatch over every policy a [`PolicyKind`] can name: one variant per concrete
/// type, none boxed. Built by [`PolicyKind::build_dispatch`].
pub enum AnyPolicy {
    /// Classic least-recently-used replacement.
    Lru(LruPolicy),
    /// Static RRIP.
    Srrip(SrripPolicy),
    /// Bimodal RRIP.
    Brrip(BrripPolicy),
    /// Set-dueling DRRIP.
    Drrip(DrripPolicy),
    /// Thread-aware DRRIP (the paper's baseline; also the SD and forced variants).
    TaDrrip(TaDrripPolicy),
    /// SHiP-PC signature-based hit prediction.
    Ship(ShipPolicy),
    /// Evicted-address-filter insertion.
    Eaf(EafPolicy),
    /// ADAPT (the paper's policy), under any [`AdaptConfig`].
    Adapt(AdaptPolicy),
    /// Figure 6: TA-DRRIP with distant insertions converted to bypasses.
    TaDrripBypass(BypassDistant<TaDrripPolicy>),
    /// Figure 6: SHiP with distant insertions converted to bypasses.
    ShipBypass(BypassDistant<ShipPolicy>),
    /// Figure 6: EAF with distant insertions converted to bypasses.
    EafBypass(BypassDistant<EafPolicy>),
}

macro_rules! each_variant {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::Lru($p) => $body,
            AnyPolicy::Srrip($p) => $body,
            AnyPolicy::Brrip($p) => $body,
            AnyPolicy::Drrip($p) => $body,
            AnyPolicy::TaDrrip($p) => $body,
            AnyPolicy::Ship($p) => $body,
            AnyPolicy::Eaf($p) => $body,
            AnyPolicy::Adapt($p) => $body,
            AnyPolicy::TaDrripBypass($p) => $body,
            AnyPolicy::ShipBypass($p) => $body,
            AnyPolicy::EafBypass($p) => $body,
        }
    };
}

impl LlcReplacementPolicy for AnyPolicy {
    fn name(&self) -> String {
        each_variant!(self, p => p.name())
    }

    fn on_access(&mut self, ctx: &AccessContext) {
        each_variant!(self, p => p.on_access(ctx))
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        each_variant!(self, p => p.on_hit(ctx, way))
    }

    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        each_variant!(self, p => p.insertion_decision(ctx))
    }

    fn choose_victim(&mut self, ctx: &AccessContext, lines: &[LineView]) -> usize {
        each_variant!(self, p => p.choose_victim(ctx, lines))
    }

    fn on_evict(&mut self, ctx: &AccessContext, evicted_block: u64, owner: usize) {
        each_variant!(self, p => p.on_evict(ctx, evicted_block, owner))
    }

    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
        each_variant!(self, p => p.on_fill(ctx, way, decision))
    }

    fn on_interval(&mut self) {
        each_variant!(self, p => p.on_interval())
    }
}

/// A policy an experiment can ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// [`PolicyKind::label`] (`parse(kind.label()) == Some(kind)` for every variant
    /// `parse` can return), so external callers (the `sweepd` API, CLI flags) can name
    /// policies by the strings the reports print. Labels arrive from the wire, so the
    /// `SD=` operand is bounded: zero and anything above 4096 are rejected.
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
                let n: usize = n.parse().ok()?;
                if !(1..=MAX_DUELING_SETS).contains(&n) {
                    return None;
                }
                PolicyKind::TaDrripSd(n)
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

    /// Construct the policy for a system, as the [`AnyPolicy`] variant of its concrete
    /// type. `thrashing_slots` lists the cores running applications with
    /// Footprint-number >= 16 (needed only by `TaDrripForced`).
    pub fn build_dispatch(&self, config: &SystemConfig, thrashing_slots: &[usize]) -> AnyPolicy {
        let llc = &config.llc;
        let sets = llc.geometry.num_sets();
        let ways = llc.geometry.ways;
        let cores = config.num_cores;
        match self {
            PolicyKind::Lru => AnyPolicy::Lru(LruPolicy::new(sets, ways)),
            PolicyKind::Srrip => AnyPolicy::Srrip(SrripPolicy::new(sets, ways)),
            PolicyKind::Brrip => AnyPolicy::Brrip(BrripPolicy::new(sets, ways)),
            PolicyKind::Drrip => AnyPolicy::Drrip(DrripPolicy::new(sets, ways)),
            PolicyKind::TaDrrip => AnyPolicy::TaDrrip(TaDrripPolicy::new(sets, ways, cores)),
            PolicyKind::TaDrripSd(n) => {
                AnyPolicy::TaDrrip(TaDrripPolicy::with_dueling_sets(sets, ways, cores, *n))
            }
            PolicyKind::TaDrripForced => {
                let mut p = TaDrripPolicy::new(sets, ways, cores);
                p.force_brrip_for(thrashing_slots);
                AnyPolicy::TaDrrip(p)
            }
            PolicyKind::Ship => AnyPolicy::Ship(ShipPolicy::new(sets, ways, cores)),
            PolicyKind::Eaf => AnyPolicy::Eaf(EafPolicy::new(sets, ways)),
            PolicyKind::AdaptIns => AnyPolicy::Adapt(AdaptPolicy::new(
                AdaptConfig::paper_insert_only(),
                llc,
                cores,
            )),
            PolicyKind::AdaptBp32 => {
                AnyPolicy::Adapt(AdaptPolicy::new(AdaptConfig::paper(), llc, cores))
            }
            PolicyKind::TaDrripBypass => {
                AnyPolicy::TaDrripBypass(BypassDistant::new(TaDrripPolicy::new(sets, ways, cores)))
            }
            PolicyKind::ShipBypass => {
                AnyPolicy::ShipBypass(BypassDistant::new(ShipPolicy::new(sets, ways, cores)))
            }
            PolicyKind::EafBypass => {
                AnyPolicy::EafBypass(BypassDistant::new(EafPolicy::new(sets, ways)))
            }
        }
    }
}

/// Every [`PolicyKind`] (with one representative `SD=` count), for tests that must
/// cover the whole set.
#[cfg(test)]
pub(crate) fn all_kinds() -> [PolicyKind; 14] {
    [
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
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_labels() {
        let cfg = SystemConfig::tiny(4);
        for k in all_kinds() {
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
        // The operand comes off the wire: out-of-range counts are not policies.
        assert_eq!(PolicyKind::parse("TA-DRRIP(SD=0)"), None);
        assert_eq!(
            PolicyKind::parse("TA-DRRIP(SD=4096)"),
            Some(PolicyKind::TaDrripSd(4096))
        );
        assert_eq!(PolicyKind::parse("TA-DRRIP(SD=4097)"), None);
        assert_eq!(PolicyKind::parse("TA-DRRIP(SD=18446744073709551615)"), None);
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
