//! End-to-end bit-identity of the data-oriented hot path against the frozen
//! pre-refactor reference engine (`cache_sim::reference`).
//!
//! The fast path differs from the seed in line layout (structure-of-arrays tags +
//! packed valid/dirty bitmasks), policy dispatch (monomorphized enum instead of
//! `Box<dyn ...>`), way prediction, core scheduling (a winner tree consulted once per
//! shared-state event, with L1 hits retired out of global order by private run-ahead,
//! instead of a binary heap popped once per record) and core-timing arithmetic (integer
//! halving instead of f64 rounding) — every one of which must be invisible in results.
//! These tests run whole systems under every `PolicyKind`, in flat and contended bank
//! configurations, at power-of-two and odd core counts up to 128, and require per-core
//! IPC/MPKI, LLC global statistics (including interval counts), per-bank statistics and
//! final cycles to agree exactly. The one thing run-ahead may change — how many records
//! a trace source has been asked for when `run` returns — is bounded here too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adapt_llc::experiments::{ExperimentScale, MemSystem, PolicyKind};
use adapt_llc::sim::config::{BankContentionConfig, SystemConfig};
use adapt_llc::sim::reference::reference_system;
use adapt_llc::sim::stats::SystemResults;
use adapt_llc::sim::system::{MultiCoreSystem, RUN_AHEAD};
use adapt_llc::sim::trace::{MemAccess, TraceSource};
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
    run_both_for(cfg, mix, kind, INSTRUCTIONS)
}

fn run_both_for(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    kind: PolicyKind,
    instructions: u64,
) -> (SystemResults, SystemResults) {
    let llc_sets = cfg.llc.geometry.num_sets();
    let build = || kind.build_dispatch(cfg, &mix.thrashing_slots());
    let fast = MultiCoreSystem::new(cfg.clone(), mix.trace_sources(llc_sets, SEED), build())
        .run(instructions);
    let reference = reference_system(
        cfg.clone(),
        mix.trace_sources(llc_sets, SEED),
        Box::new(build()),
    )
    .run(instructions);
    (fast, reference)
}

/// The first `cores` applications of a generated `study` mix: a mix for a core count
/// no study has (the scheduler pads odd counts to a power of two).
fn truncated_mix(study: StudyKind, cores: usize) -> WorkloadMix {
    let mut mix = generate_mixes(study, 1, ExperimentScale::Smoke.seed()).remove(0);
    mix.benchmarks.truncate(cores);
    assert_eq!(mix.benchmarks.len(), cores);
    mix
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

#[test]
fn odd_core_counts_are_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    for (study, cores) in [
        (StudyKind::Cores4, 3),
        (StudyKind::Cores8, 5),
        (StudyKind::Cores32, 24),
    ] {
        let cfg = scale.scaling_config(cores, true);
        let mix = truncated_mix(study, cores);
        for kind in [PolicyKind::TaDrrip, PolicyKind::AdaptBp32] {
            let (fast, reference) = run_both(&cfg, &mix, kind);
            assert_identical(&fast, &reference, &format!("{cores}-core {kind:?}"));
            assert_eq!(fast.per_core.len(), cores);
        }
    }
}

#[test]
fn many128_memsys_is_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.scaling_config_memsys(128, MemSystem::FrFcfsNuca);
    let mix = &generate_mixes(StudyKind::Cores128, 1, scale.seed())[0];
    let (fast, reference) = run_both_for(&cfg, mix, PolicyKind::TaDrrip, 4_000);
    assert_identical(&fast, &reference, "128-core FR-FCFS+NUCA TaDrrip");
    assert_eq!(fast.dram, reference.dram, "128-core DRAM stats");
    assert_eq!(fast.per_core.len(), 128);
}

/// Counts the records the simulator asks a source for.
struct Counted {
    inner: Box<dyn TraceSource>,
    fetched: Arc<AtomicU64>,
}

impl TraceSource for Counted {
    fn next_access(&mut self) -> MemAccess {
        self.fetched.fetch_add(1, Ordering::Relaxed);
        self.inner.next_access()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

fn counted(sources: Vec<Box<dyn TraceSource>>) -> (Vec<Box<dyn TraceSource>>, Vec<Arc<AtomicU64>>) {
    let counters: Vec<Arc<AtomicU64>> = sources.iter().map(|_| Arc::default()).collect();
    let wrapped = sources
        .into_iter()
        .zip(&counters)
        .map(|(inner, fetched)| {
            Box::new(Counted {
                inner,
                fetched: Arc::clone(fetched),
            }) as Box<dyn TraceSource>
        })
        .collect();
    (wrapped, counters)
}

/// Run-ahead's only observable effect: when `run` returns, each source has been asked
/// for at least the records the per-record reference engine consumed and at most
/// `RUN_AHEAD` retired hits plus one parked record more — and for exactly the
/// reference's while `sim_obs` sampling is on, which reads every core's clock and so
/// turns run-ahead off. (Tests running beside the sampled leg merely get sampled too;
/// results do not depend on it.)
#[test]
fn run_ahead_overfetch_is_bounded_per_core() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores8);
    let mix = &generate_mixes(StudyKind::Cores8, 1, scale.seed())[0];
    let llc_sets = cfg.llc.geometry.num_sets();
    let build = || PolicyKind::TaDrrip.build_dispatch(&cfg, &mix.thrashing_slots());
    let fetched = |counts: Vec<Arc<AtomicU64>>| -> Vec<u64> {
        counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    };
    let run_fast = || {
        let (sources, counts) = counted(mix.trace_sources(llc_sets, SEED));
        let results = MultiCoreSystem::new(cfg.clone(), sources, build()).run(INSTRUCTIONS);
        (results, fetched(counts))
    };

    let (fast, fast_fetched) = run_fast();
    sim_obs::enable();
    let (sampled, sampled_fetched) = run_fast();
    sim_obs::disable();
    sim_obs::reset();
    let (sources, counts) = counted(mix.trace_sources(llc_sets, SEED));
    let reference = reference_system(cfg.clone(), sources, Box::new(build())).run(INSTRUCTIONS);
    let ref_fetched = fetched(counts);
    assert_identical(&fast, &reference, "counted 8-core TaDrrip");
    assert_identical(&sampled, &reference, "counted, sampled 8-core TaDrrip");

    assert_eq!(sampled_fetched, ref_fetched, "a sampled run ran ahead");
    for (core, (&fast, &reference)) in fast_fetched.iter().zip(&ref_fetched).enumerate() {
        assert!(
            (reference..=reference + RUN_AHEAD + 1).contains(&fast),
            "core {core}: fetched {fast} records, the reference engine {reference}"
        );
    }
    assert!(
        fast_fetched.iter().sum::<u64>() > ref_fetched.iter().sum::<u64>(),
        "run-ahead never ran: the bound was not exercised"
    );
}
