//! End-to-end bit-identity of the data-oriented hot path against the frozen
//! pre-refactor reference engine (`cache_sim::reference`).
//!
//! The fast path differs from the seed in line layout (structure-of-arrays tags +
//! packed valid/dirty bitmasks), policy dispatch (monomorphized enum instead of
//! `Box<dyn ...>`), way prediction, core scheduling (linear scan instead of a binary
//! heap) and core-timing arithmetic (integer halving instead of f64 rounding) — every
//! one of which must be invisible in results. These tests run whole systems under every
//! `PolicyKind`, in flat and contended bank configurations, and require per-core
//! IPC/MPKI, LLC global statistics (including interval counts), per-bank statistics and
//! final cycles to agree exactly.

use adapt_llc::experiments::{ExperimentScale, PolicyKind};
use adapt_llc::sim::config::{BankContentionConfig, SystemConfig};
use adapt_llc::sim::reference::reference_system;
use adapt_llc::sim::stats::SystemResults;
use adapt_llc::sim::system::MultiCoreSystem;
use adapt_llc::workloads::{generate_mixes, StudyKind, WorkloadMix};

const INSTRUCTIONS: u64 = 20_000;
const SEED: u64 = 1;

/// Run `mix` under `kind` on the production engine and on the frozen reference engine
/// (which takes the same policy boxed), returning `(fast, reference)`.
fn run_both(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    kind: PolicyKind,
) -> (SystemResults, SystemResults) {
    let llc_sets = cfg.llc.geometry.num_sets();
    let build = || kind.build_dispatch(cfg, &mix.thrashing_slots());
    let fast = MultiCoreSystem::new(cfg.clone(), mix.trace_sources(llc_sets, SEED), build())
        .run(INSTRUCTIONS);
    let reference = reference_system(
        cfg.clone(),
        mix.trace_sources(llc_sets, SEED),
        Box::new(build()),
    )
    .run(INSTRUCTIONS);
    (fast, reference)
}

fn all_policy_kinds() -> Vec<PolicyKind> {
    vec![
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

fn assert_identical(a: &SystemResults, b: &SystemResults, what: &str) {
    assert_eq!(a.policy, b.policy, "{what}: label");
    assert_eq!(a.per_core.len(), b.per_core.len(), "{what}: core count");
    for (x, y) in a.per_core.iter().zip(&b.per_core) {
        assert_eq!(x.label, y.label, "{what}");
        assert_eq!(x.ipc(), y.ipc(), "{what}: {} IPC", x.label);
        assert_eq!(x.l2_mpki(), y.l2_mpki(), "{what}: {} L2 MPKI", x.label);
        assert_eq!(x.llc_mpki(), y.llc_mpki(), "{what}: {} LLC MPKI", x.label);
        assert_eq!(x.llc, y.llc, "{what}: {} LLC per-core stats", x.label);
    }
    assert_eq!(a.llc_global, b.llc_global, "{what}: LLC global stats");
    assert_eq!(a.llc_banks, b.llc_banks, "{what}: per-bank stats");
    assert_eq!(a.core_stalls, b.core_stalls, "{what}: stall attribution");
    assert_eq!(a.final_cycle, b.final_cycle, "{what}: final cycle");
}

#[test]
fn every_policy_kind_is_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mix = &generate_mixes(StudyKind::Cores4, 1, scale.seed())[0];
    for kind in all_policy_kinds() {
        let (fast, reference) = run_both(&cfg, mix, kind);
        assert_identical(&fast, &reference, &format!("{kind:?}"));
        assert!(
            fast.llc_global.intervals_completed > 0,
            "{kind:?}: the run must exercise interval rollover"
        );
    }
}

#[test]
fn contended_banks_stay_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    let mut cfg = scale.system_config(StudyKind::Cores4);
    cfg.llc.contention = BankContentionConfig::contended(2, 4);
    cfg.dram.contention = BankContentionConfig::contended(2, 4);
    let mix = &generate_mixes(StudyKind::Cores4, 1, scale.seed())[0];
    for kind in [
        PolicyKind::TaDrrip,
        PolicyKind::AdaptBp32,
        PolicyKind::Eaf,
        PolicyKind::Ship,
    ] {
        let (fast, reference) = run_both(&cfg, mix, kind);
        assert_identical(&fast, &reference, &format!("contended {kind:?}"));
        assert!(
            fast.llc_banks.iter().any(|b| b.requests > 0),
            "contended run must exercise the banks"
        );
    }
}

#[test]
fn eight_core_mix_is_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores8);
    let mix = &generate_mixes(StudyKind::Cores8, 1, scale.seed())[0];
    let (fast, reference) = run_both(&cfg, mix, PolicyKind::AdaptBp32);
    assert_identical(&fast, &reference, "8-core AdaptBp32");
    assert_eq!(fast.per_core.len(), 8);
}
