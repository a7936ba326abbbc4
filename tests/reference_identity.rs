//! End-to-end bit-identity of the production engine against the naive oracle in
//! `tests/oracle/` — an independent model of the same machine (per-way `Option<Line>`
//! caches searched linearly, float-form core timing, a `(cycle, id)` min-scan driver
//! that steps one trace record at a time), written against the facade's public API.
//!
//! The production path differs from it in line layout (structure-of-arrays tags +
//! packed valid/dirty bitmasks), policy dispatch (monomorphized enum instead of
//! `Box<dyn ...>`), way prediction, core scheduling (a winner tree consulted once per
//! event of a core's private stage, whose private-only records are retired out of
//! global order as one summed gap — and, in a sweep, simulated once and replayed by
//! every policy's system) and core-timing arithmetic (integer halving instead of f64 rounding) — every one of
//! which must be invisible in results. These tests run whole systems under every
//! `PolicyKind`, in flat and contended bank configurations, at power-of-two and odd
//! core counts up to 128 and at non-power-of-two LLC bank counts, and require **every
//! field** of `SystemResults` and of each core's `CoreStats` to agree exactly. The one
//! thing coalescing and sharing may change — how many records a trace source has been
//! asked for when `run` returns — is bounded here too, and closed-form cases (a cyclic working
//! set one block larger than a set under LRU; working sets that fit a level) tie both
//! engines to answers that come from outside the repository.

mod lone_system;
mod oracle;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use adapt_llc::experiments::runner::{
    evaluate_prepared, synthetic_capture_budget, MixSource, ReplayConfig,
};
use adapt_llc::experiments::{ExperimentScale, MemSystem, PolicyKind};
use adapt_llc::sim::config::{BankContentionConfig, PrivatePolicyKind, SystemConfig};
use adapt_llc::sim::private::{
    MemoPool, SharedStage, SharedStageUsage, StageParams, CHUNK_RECORDS, MAX_CHUNK_BYTES,
};
use adapt_llc::sim::stats::{CoreStats, SystemResults};
use adapt_llc::sim::system::{MultiCoreSystem, RUN_AHEAD};
use adapt_llc::sim::trace::{MemAccess, SharedReplayTrace, StridedTrace, TraceSource};
use adapt_llc::traces::{capture_mix, MappedTrace, TraceCaptureOptions};
use adapt_llc::workloads::{generate_mixes, StudyKind, WorkloadMix};
use lone_system::{assert_evaluation_matches, lone_run};
use oracle::NaiveSystem;

const INSTRUCTIONS: u64 = 20_000;
const SEED: u64 = 1;

/// One fresh set of per-core sources per call: each engine consumes its own.
type Sources<'a> = &'a dyn Fn() -> Vec<Box<dyn TraceSource>>;

/// Run `sources` under `kind` on the production engine and on the oracle (which takes
/// the same policy boxed), returning `(fast, reference)`.
fn run_both_on(
    cfg: &SystemConfig,
    kind: PolicyKind,
    thrashing_slots: &[usize],
    sources: Sources,
    instructions: u64,
) -> (SystemResults, SystemResults) {
    let build = || kind.build_dispatch(cfg, thrashing_slots);
    let fast = MultiCoreSystem::new(cfg.clone(), sources(), build()).run(instructions);
    let reference = NaiveSystem::new(cfg.clone(), sources(), Box::new(build())).run(instructions);
    (fast, reference)
}

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
    let sources = || mix.trace_sources(llc_sets, SEED);
    run_both_on(cfg, kind, &mix.thrashing_slots(), &sources, instructions)
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

/// Every field of both result types. The patterns are exhaustive on purpose: a field
/// added to `SystemResults` or `CoreStats` stops this compiling until it is compared.
fn assert_identical(a: &SystemResults, b: &SystemResults, what: &str) {
    let SystemResults {
        policy,
        per_core,
        llc_global,
        llc_banks,
        dram,
        core_stalls,
        final_cycle,
    } = a;
    assert_eq!(policy, &b.policy, "{what}: label");
    assert_eq!(per_core.len(), b.per_core.len(), "{what}: core count");
    for (x, y) in per_core.iter().zip(&b.per_core) {
        let CoreStats {
            core_id,
            label,
            instructions,
            cycles,
            compute_cycles,
            mem_stall_cycles,
            l1d,
            l2,
            llc,
            prefetch,
            dram_reads,
        } = x;
        let who = format!("{what}: core {core_id} ({label})");
        assert_eq!(core_id, &y.core_id, "{who}: core id");
        assert_eq!(label, &y.label, "{who}: label");
        assert_eq!(instructions, &y.instructions, "{who}: instructions");
        assert_eq!(cycles, &y.cycles, "{who}: cycles");
        assert_eq!(compute_cycles, &y.compute_cycles, "{who}: compute cycles");
        assert_eq!(mem_stall_cycles, &y.mem_stall_cycles, "{who}: stall cycles");
        assert_eq!(l1d, &y.l1d, "{who}: L1D stats");
        assert_eq!(l2, &y.l2, "{who}: L2 stats");
        assert_eq!(llc, &y.llc, "{who}: LLC per-core stats");
        assert_eq!(prefetch, &y.prefetch, "{who}: prefetcher stats");
        assert_eq!(dram_reads, &y.dram_reads, "{who}: DRAM reads");
    }
    assert_eq!(llc_global, &b.llc_global, "{what}: LLC global stats");
    assert_eq!(llc_banks, &b.llc_banks, "{what}: per-bank stats");
    assert_eq!(dram, &b.dram, "{what}: DRAM stats");
    assert_eq!(core_stalls, &b.core_stalls, "{what}: stall attribution");
    assert_eq!(final_cycle, &b.final_cycle, "{what}: final cycle");
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

/// Every pair of private policies, prefetcher on and off. The engine's levels keep only
/// their own policy's replacement state and fill without re-checking presence; the
/// oracle keeps every policy's state, probes the L1 again before a prefetch and checks
/// presence on every fill, so a pair where either shortcut is inexact shows here.
#[test]
fn every_private_policy_pair_is_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    let mix = &generate_mixes(StudyKind::Cores4, 1, scale.seed())[0];
    let policies = [PrivatePolicyKind::Lru, PrivatePolicyKind::Drrip];
    for l1d in policies {
        for l2 in policies {
            for prefetch in [true, false] {
                let mut cfg = scale.system_config(StudyKind::Cores4);
                cfg.l1d.policy = l1d;
                cfg.l2.policy = l2;
                cfg.l1_next_line_prefetch = prefetch;
                for kind in [PolicyKind::TaDrrip, PolicyKind::AdaptBp32] {
                    let what = format!("L1 {l1d:?}, L2 {l2:?}, prefetch {prefetch}, {kind:?}");
                    let (fast, reference) = run_both(&cfg, mix, kind);
                    assert_identical(&fast, &reference, &what);
                    let prefetches: u64 = fast.per_core.iter().map(|c| c.prefetch.issued).sum();
                    assert_eq!(prefetches > 0, prefetch, "{what}");
                }
            }
        }
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

/// The banks' request-order contract: the LLC's request times never decrease, but the
/// DRAM's step back — a demand read is issued after its LLC lookup, a write-back at the
/// core's cycle — and a bank serves in call order regardless. A contended smoke run
/// shows such steps in the oracle, whose DRAM sees exactly the engine's requests, and
/// the engine still equals it.
#[test]
fn dram_request_times_step_back_in_a_contended_smoke_run() {
    let scale = ExperimentScale::Smoke;
    let mut cfg = scale.system_config(StudyKind::Cores4);
    cfg.llc.contention = BankContentionConfig::contended(2, 4);
    cfg.dram.contention = BankContentionConfig::contended(2, 4);
    let mix = &generate_mixes(StudyKind::Cores4, 1, scale.seed())[0];
    let slots = mix.thrashing_slots();
    let sources = || mix.trace_sources(cfg.llc.geometry.num_sets(), SEED);
    let build = || PolicyKind::TaDrrip.build_dispatch(&cfg, &slots);
    let fast = MultiCoreSystem::new(cfg.clone(), sources(), build()).run(INSTRUCTIONS);
    let mut oracle = NaiveSystem::new(cfg.clone(), sources(), Box::new(build()));
    let reference = oracle.run(INSTRUCTIONS);
    assert_identical(&fast, &reference, "contended TaDrrip");
    let (llc_steps, dram_steps) = oracle.step_backs();
    assert_eq!(llc_steps, 0, "an LLC request arrived before an earlier one");
    assert!(
        dram_steps > 0,
        "no DRAM request stepped back in {} requests",
        reference.dram.reads + reference.dram.writes
    );
}

/// Two MSHRs and two write-back entries keep both windows full, so every miss waits on
/// the earliest completion: the engine's heap and the oracle's scan must agree on it.
#[test]
fn full_mshr_and_write_back_windows_stay_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    let mix = &generate_mixes(StudyKind::Cores4, 1, scale.seed())[0];
    for contention in [
        BankContentionConfig::flat(),
        BankContentionConfig::contended(2, 4),
    ] {
        let mut cfg = scale.system_config(StudyKind::Cores4);
        cfg.llc.mshr_entries = 2;
        cfg.llc.wb_entries = 2;
        cfg.llc.contention = contention;
        cfg.dram.contention = contention;
        for kind in [
            PolicyKind::TaDrrip,
            PolicyKind::Lru,
            PolicyKind::Eaf,
            PolicyKind::AdaptBp32,
        ] {
            let what = format!("2 MSHRs, {contention:?}, {kind:?}");
            let (fast, reference) = run_both(&cfg, mix, kind);
            assert_identical(&fast, &reference, &what);
            assert!(
                fast.llc_global.mshr_full_events > 0,
                "{what}: MSHRs never filled"
            );
        }
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
        let cfg = scale.scaling_config_memsys(cores, MemSystem::FcfsContended);
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
    assert_eq!(fast.per_core.len(), 128);
}

/// `SystemConfig::validate` used to reject the non-power-of-two LLC bank counts the LLC
/// model maps with a modulo, so no whole system could run at one: every bank must
/// serve requests, and the engines must agree there too.
#[test]
fn non_power_of_two_llc_bank_counts_are_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    let mix = truncated_mix(StudyKind::Cores32, 24);
    for banks in [3, 6] {
        let mut cfg = scale.scaling_config_memsys(24, MemSystem::FrFcfsNuca);
        cfg.llc.banks = banks;
        for kind in [PolicyKind::TaDrrip, PolicyKind::AdaptBp32] {
            let (fast, reference) = run_both(&cfg, &mix, kind);
            assert_identical(&fast, &reference, &format!("{banks}-bank {kind:?}"));
            assert_eq!(fast.llc_banks.len(), banks);
            assert!(
                fast.llc_banks.iter().all(|b| b.requests > 0),
                "{banks} banks: one served nothing: {:?}",
                fast.llc_banks
            );
        }
    }
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

/// The `sim_obs` recorder is process-global; tests that turn it on, or count records
/// drawn, take this lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run-ahead's and chunking's only observable effect: when `run` returns, each source
/// has been asked for at least the records the per-record oracle consumed and at most
/// [`shared_bound`] of them — `RUN_AHEAD` retired hits plus one parked record, and the
/// rest of the consumer's chunk and one chunk read ahead — whether or not `sim_obs`
/// sampling is on, which only reads the cores. (Tests running beside the sampled leg
/// merely get sampled too; results do not depend on it.) Every system reads its stages
/// through cursors, so this is the bound of shared stages too
/// (`shared_stages_under_concurrency_equal_inline_and_the_oracle`,
/// `replayed_mixes_share_their_stages_and_equal_the_oracle_and_the_live_generators`);
/// `tests/draw_contract.rs` holds a lone one-core system to exactly the oracle's count.
#[test]
fn run_ahead_overfetch_is_bounded_per_core() {
    let _obs = obs_lock();
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
    let reference = NaiveSystem::new(cfg.clone(), sources, Box::new(build())).run(INSTRUCTIONS);
    let ref_fetched = fetched(counts);
    assert_identical(&fast, &reference, "counted 8-core TaDrrip");
    assert_identical(&sampled, &reference, "counted, sampled 8-core TaDrrip");

    for (core, &reference) in ref_fetched.iter().enumerate() {
        for (what, fetched) in [("fast", &fast_fetched), ("sampled", &sampled_fetched)] {
            let fetched = fetched[core];
            assert!(
                (reference..=shared_bound(reference)).contains(&fetched),
                "{what} core {core}: fetched {fetched} records, the oracle {reference}"
            );
        }
    }
    assert!(
        fast_fetched.iter().sum::<u64>() > ref_fetched.iter().sum::<u64>(),
        "run-ahead never ran: the bound was not exercised"
    );
}

/// Gapless reads over `blocks`, round-robin, forever — after `gapped` records that
/// carry 3 non-memory instructions each.
struct Cyclic {
    blocks: Vec<u64>,
    gapped: u64,
    served: u64,
}

impl TraceSource for Cyclic {
    fn next_access(&mut self) -> MemAccess {
        let i = self.served;
        self.served += 1;
        MemAccess {
            addr: self.blocks[(i % self.blocks.len() as u64) as usize] * 64,
            pc: 0x400,
            is_write: false,
            non_mem_instrs: if i < self.gapped { 3 } else { 0 },
        }
    }
    fn reset(&mut self) {
        self.served = 0;
    }
}

/// Regression for the re-execution livelock: a core whose (replayed) stream is
/// entirely L1-resident with zero instruction gaps advances zero cycles per step
/// once warmed up; after it reaches its instruction target it used to remain the
/// scheduler's earliest core forever and starve the unfinished cores — `run` never
/// returned. Imported trace files make such streams trivial to construct. Both
/// engines must terminate and stay bit-identical to each other — with the frozen
/// core on either side of the tie-break, and when the stream turns gapless only
/// after its core has finished, so the whole 2^22-step count happens inside the
/// production engine's run-ahead loop.
#[test]
fn finished_cache_resident_core_cannot_livelock_the_run() {
    let cfg = SystemConfig::tiny(2);
    let target = 30_000;
    // Four L1-resident blocks: a stream that freezes its core's clock once it is gapless
    // and the L1 is warm, so only after `4 * gapped` instructions have retired.
    let resident = |gapped| -> Box<dyn TraceSource> {
        Box::new(Cyclic {
            blocks: vec![0x40, 0x41, 0x42, 0x43],
            gapped,
            served: 0,
        })
    };
    // Gapless from the first record: zero-cycle steps as soon as the L1 is warm.
    let frozen = || resident(0);
    // Finishes at record 7_500 with a moving clock, freezes from record 8_000 on.
    let freezes_late = || resident(8_000);
    // A big sweep that misses constantly, so it finishes far later than the
    // frozen core (which pre-fix starved it forever).
    let sweep = || -> Box<dyn TraceSource> { Box::new(StridedTrace::new(1 << 32, 64, 1 << 20, 2)) };
    let cases: [(&str, Sources); 3] = [
        ("frozen core 0", &|| vec![frozen(), sweep()]),
        ("frozen core 1", &|| vec![sweep(), frozen()]),
        ("freezes after finishing", &|| vec![sweep(), freezes_late()]),
    ];
    for (what, sources) in cases {
        let (fast, reference) = run_both_on(&cfg, PolicyKind::Srrip, &[], sources, target);
        assert_identical(&fast, &reference, what);
        assert!(fast.per_core.iter().all(|c| c.instructions >= target));
    }
}

/// `run` every kind on a thread of its own, all released together.
fn at_once<T: Send>(kinds: &[PolicyKind], run: &(dyn Fn(PolicyKind) -> T + Sync)) -> Vec<T> {
    let start = Barrier::new(kinds.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = kinds
            .iter()
            .map(|&kind| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    run(kind)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// One mix's private stages simulated once and replayed by four policies on four
/// threads at once: every system is the oracle's, field for field, and the generators
/// were drawn from once — not once per policy.
#[test]
fn shared_stages_under_concurrency_equal_inline_and_the_oracle() {
    let _obs = obs_lock();
    // Long enough that most cores consume several chunks of their stage's memo.
    let instructions = 5 * INSTRUCTIONS;
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores8);
    let mix = &generate_mixes(StudyKind::Cores8, 1, scale.seed())[0];
    let llc_sets = cfg.llc.geometry.num_sets();
    let slots = mix.thrashing_slots();
    let kinds = [
        PolicyKind::TaDrrip,
        PolicyKind::AdaptBp32,
        PolicyKind::Ship,
        PolicyKind::Lru,
    ];
    // The oracle over fresh generators, and the records it drew from each.
    let oracle = |cfg: &SystemConfig, kind: PolicyKind| {
        let (sources, counts) = counted(mix.trace_sources(llc_sets, SEED));
        let built = Box::new(kind.build_dispatch(cfg, &slots));
        let results = NaiveSystem::new(cfg.clone(), sources, built).run(instructions);
        let drawn: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (results, drawn)
    };
    let references: Vec<(SystemResults, Vec<u64>)> =
        kinds.iter().map(|&kind| oracle(&cfg, kind)).collect();

    // The simulator's own constructor over cursors, so every field can be compared.
    let params = StageParams::latch(&cfg, instructions);
    let unbounded = MemoPool::new(u64::MAX);
    let stages: Vec<SharedStage> = (0..cfg.num_cores)
        .map(|core| {
            let mix = mix.clone();
            let source = move |at| {
                assert_eq!(at, 0, "an unbounded memo never hands over");
                mix.trace_source(core, llc_sets, SEED)
            };
            SharedStage::new(params, source, unbounded.clone(), Arc::default())
        })
        .collect();
    let run_shared = |kind: PolicyKind| {
        let cursors = stages.iter().map(SharedStage::cursor).collect();
        let built = kind.build_dispatch(&cfg, &slots);
        MultiCoreSystem::with_stages(cfg.clone(), cursors, built).run(instructions)
    };
    let shared = at_once(&kinds, &run_shared);
    for ((kind, shared), (reference, _)) in kinds.iter().zip(&shared).zip(&references) {
        assert_identical(shared, reference, &format!("shared stages, {kind:?}"));
    }
    // The memo was built unsampled; a sampled run over it reads the same events.
    sim_obs::enable();
    let sampled = run_shared(kinds[0]);
    sim_obs::disable();
    sim_obs::reset();
    assert_identical(
        &sampled,
        &references[0].0,
        "sampled run over unsampled stages",
    );

    // The runner's path: one materialization, four concurrent `evaluate_prepared`.
    let prepared = MixSource::synthetic(mix.clone())
        .materialize_with(llc_sets, SEED, &ReplayConfig::default())
        .unwrap();
    let evaluate = |cfg: &SystemConfig, kind: PolicyKind| {
        let built = kind.build_dispatch(cfg, &slots);
        evaluate_prepared(cfg, &prepared, kind, built, instructions, SEED)
    };
    let evaluations = at_once(&kinds, &|kind| evaluate(&cfg, kind));
    for ((kind, fast), (reference, _)) in kinds.iter().zip(&evaluations).zip(&references) {
        assert_evaluation_matches(fast, reference, &format!("evaluate_prepared, {kind:?}"));
    }

    // (i) Sharing happened: each generator was drawn from as far as its furthest
    // consumer went (a per-record consumer's count, plus the driver's run-ahead) and at
    // most the rest of its chunk and one chunk read ahead further — not once per policy.
    let furthest = |references: &[(SystemResults, Vec<u64>)]| -> Vec<u64> {
        (0..cfg.num_cores)
            .map(|core| {
                references
                    .iter()
                    .map(|(_, drawn)| drawn[core])
                    .max()
                    .unwrap()
            })
            .collect()
    };
    let drawn = prepared.records_per_core();
    for (core, (&drawn, &furthest)) in drawn.iter().zip(&furthest(&references)).enumerate() {
        assert!(
            (furthest..=shared_bound(furthest)).contains(&(drawn as u64)),
            "core {core}: drew {drawn} records, the furthest consumer used {furthest}"
        );
    }
    let per_policy: u64 = references.iter().flat_map(|(_, drawn)| drawn).sum();
    let bounds: u64 = furthest(&references).into_iter().map(shared_bound).sum();
    assert!(
        2 * bounds < per_policy,
        "the bound ({bounds} records) does not tell sharing from drawing once per policy \
         ({per_policy})"
    );

    // (ii) A configuration that differs only where the stage does not read shares the
    // memo: the same bound holds with this consumer counted in.
    let mut other_interval = cfg.clone();
    other_interval.interval_misses /= 2;
    let mut references = references;
    references.push(oracle(&other_interval, kinds[0]));
    let fast = evaluate(&other_interval, kinds[0]);
    assert_evaluation_matches(&fast, &references[4].0, "other interval");
    assert_ne!(fast.llc_global, evaluations[0].llc_global, "same interval");
    let drawn = prepared.records_per_core();
    for (&drawn, &furthest) in drawn.iter().zip(&furthest(&references)) {
        assert!((furthest..=shared_bound(furthest)).contains(&(drawn as u64)));
    }
}

/// Records a shared stage may have drawn when its furthest consumer — counted per
/// record, by the oracle — used `furthest`: the driver's run-ahead, and fewer than
/// `2 × (CHUNK_RECORDS + RUN_AHEAD)` records the stage drew ahead of that consumer —
/// the rest of the consumer's chunk and one chunk read ahead.
fn shared_bound(furthest: u64) -> u64 {
    furthest + RUN_AHEAD + 1 + 2 * (CHUNK_RECORDS + RUN_AHEAD)
}

/// Instructions per core of the memo-pool test: long enough that the hungriest stream's
/// memo outweighs a chunk of slack per core and generating thread.
const POOL_INSTRUCTIONS: u64 = 5 * INSTRUCTIONS;

/// A 16-core mix, captured and replayed through the runner and live from its generators,
/// at a budget whose memo keeps the whole run, at one whose pool covers the mix only if
/// the hungriest core takes what the light ones leave, and at one whose pool runs out
/// mid-run: whatever the provenance, the one budget bounds the memo, four policies
/// evaluated at once on *one* materialization share one set of private stages — across
/// the hand-over, where the pool is short — and each equals the oracle over the same
/// records and, the capture covering the run, the live generators. Stages built
/// straight over the decoded records, so that every `SystemResults` field can be
/// compared, agree at every pool size too.
#[test]
fn synthetic_and_replayed_mixes_share_their_stages_and_equal_the_oracle_and_the_live_generators() {
    let _obs = obs_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores16);
    let mix = &generate_mixes(StudyKind::Cores16, 1, scale.seed())[0];
    let llc_sets = cfg.llc.geometry.num_sets();
    let slots = mix.thrashing_slots();
    let kinds = [
        PolicyKind::TaDrrip,
        PolicyKind::Lru,
        PolicyKind::Ship,
        PolicyKind::AdaptBp32,
    ];
    let path = std::env::temp_dir().join("reference_identity_replayed16.atrc");
    let accesses = synthetic_capture_budget(POOL_INSTRUCTIONS);
    let opts = TraceCaptureOptions::for_llc_sets(llc_sets);
    capture_mix(&path, mix, SEED, accesses, None, opts).unwrap();
    let lone: Vec<SystemResults> = kinds
        .iter()
        .map(|&kind| lone_run(&cfg, mix, kind, POOL_INSTRUCTIONS, SEED))
        .collect();

    let trace = MappedTrace::open(&path).unwrap();
    // The oracle's results and draws, per provenance; the two agree, and the last serves
    // the pool sizes below.
    let mut references = Vec::new();
    for source in [
        MixSource::replayed_with_id(&path, 0).unwrap(),
        MixSource::synthetic(mix.clone()),
    ] {
        let provenance = source.provenance();
        // What a budget leaves the mix's one memo pool: the budget less a corpus's
        // decode buffers, one block of the core's largest and one decompression scratch
        // charged as a second block per core, whatever the budget; a generator has none.
        let replayed = matches!(source, MixSource::Replayed { .. });
        let buffers = match replayed {
            true => {
                let blocks = (0..cfg.num_cores).map(|core| trace.largest_block_records(core));
                let record = std::mem::size_of::<MemAccess>();
                (2 * blocks.sum::<usize>() * record) as u64
            }
            false => 0,
        };
        let memo_pool = |budget: u64| budget.saturating_sub(buffers);
        // The budget that leaves the pool exactly `pool` bytes.
        let budget_for = |pool: u64| pool + buffers;
        // The oracle over the mix's records, and the records it drew from each core.
        let prepared = source
            .materialize_with(llc_sets, SEED, &ReplayConfig::default())
            .unwrap();
        references = kinds
            .iter()
            .map(|&kind| {
                let (sources, counts) = counted(prepared.sources());
                let built = Box::new(kind.build_dispatch(&cfg, &slots));
                let results = NaiveSystem::new(cfg.clone(), sources, built).run(POOL_INSTRUCTIONS);
                let drawn: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                (results, drawn)
            })
            .collect();
        assert_eq!(prepared.replay_wraps(), 0, "the capture covers the run");

        // Four policies at once on one materialization at `budget`, each against the
        // oracle and the live generators; what the stages of each core cost.
        let evaluate_at = |what: &str, budget: u64| -> Vec<SharedStageUsage> {
            let what = format!("{provenance}, {what}");
            let replay = ReplayConfig {
                arena_budget_bytes: budget,
            };
            let prepared = source.materialize_with(llc_sets, SEED, &replay).unwrap();
            let evaluations = at_once(&kinds, &|kind| {
                let built = kind.build_dispatch(&cfg, &slots);
                evaluate_prepared(&cfg, &prepared, kind, built, POOL_INSTRUCTIONS, SEED)
            });
            for (((kind, fast), (reference, _)), live) in
                kinds.iter().zip(&evaluations).zip(&references).zip(&lone)
            {
                assert_evaluation_matches(fast, reference, &format!("{what}, {kind:?}"));
                let against = format!("{what}, {kind:?}: the live generators");
                assert_evaluation_matches(fast, live, &against);
            }
            assert_eq!(prepared.replay_wraps(), 0, "{what}");

            let usage = prepared.stage_usage();
            let total: SharedStageUsage = usage.iter().copied().sum();
            assert_eq!(
                total.cursors,
                (kinds.len() * cfg.num_cores) as u64,
                "{what}"
            );
            // The memos and checkpoints of every core draw on one pool, whatever each
            // core takes of it.
            let pool = memo_pool(budget);
            assert!(total.memo_bytes > 0, "{what}: nothing was memoized");
            assert!(
                total.memo_bytes + total.checkpoint_bytes <= pool,
                "{what}: the memos outgrew the mix's pool, {pool} bytes: {usage:?}"
            );
            usage
        };

        // The default budget's memos keep the whole run. One set of stages served all
        // four policies: each stream was drawn from as far as its furthest consumer went
        // and less than two chunks further.
        let what = "memo covers the run";
        let usage = evaluate_at(what, ReplayConfig::default().arena_budget_bytes);
        let handovers: u64 = usage.iter().map(|u| u.handovers).sum();
        assert_eq!(handovers, 0, "{provenance}, {what}");
        for (core, usage) in usage.iter().enumerate() {
            let furthest = references.iter().map(|(_, d)| d[core]).max().unwrap();
            assert!(
                (furthest..=shared_bound(furthest)).contains(&usage.records),
                "{provenance}, {what}, core {core}: drew {} records, the furthest consumer \
                 used {furthest}",
                usage.records
            );
        }

        // A pool that covers what the mix held — a chunk more per core, which a read-ahead
        // may have generated in one run and not in the other, and a chunk's reservation
        // per thread generating one (a policy's or the read-ahead thread) — but that,
        // split equally, would leave the hungriest core less than it held: the light
        // cores' leftovers go to it, and nothing is handed over.
        let held = |u: &SharedStageUsage| u.memo_bytes + u.checkpoint_bytes;
        let mix_held: u64 = usage.iter().map(held).sum();
        let hungriest = usage.iter().map(held).max().unwrap();
        let slack = (cfg.num_cores + kinds.len() + 1) as u64 * MAX_CHUNK_BYTES;
        let pool = mix_held + slack;
        let what = "one pool covers the mix";
        assert!(
            pool < cfg.num_cores as u64 * hungriest,
            "{provenance}, {what}: an equal split of {pool} bytes would cover every \
             core's {hungriest}-byte memo"
        );
        let usage = evaluate_at(what, budget_for(pool));
        let handovers: u64 = usage.iter().map(|u| u.handovers).sum();
        assert_eq!(handovers, 0, "{provenance}, {what}: {usage:?}");

        // A pool a quarter of what the mix held — less than it holds in any run, a chunk
        // per core fewer included — runs out mid-run.
        let what = "memo runs dry";
        let usage = evaluate_at(what, budget_for(mix_held / 4));
        assert!(
            usage.iter().any(|u| u.handovers > 0),
            "{provenance}, {what}: the pool never ran out"
        );
        assert!(
            usage.iter().any(|u| u.events > 0 && u.handovers > 0),
            "{provenance}, {what}: no hand-over happened mid-run: {usage:?}"
        );
    }

    // Every field, at every pool size: stages straight over the decoded records.
    let records: Vec<Arc<Vec<MemAccess>>> = (0..cfg.num_cores)
        .map(|core| Arc::new(trace.decode_core(core).unwrap()))
        .collect();
    let params = StageParams::latch(&cfg, POOL_INSTRUCTIONS);
    for pool_bytes in [0, 3 * cfg.num_cores as u64 * MAX_CHUNK_BYTES, u64::MAX] {
        let pool = MemoPool::new(pool_bytes);
        let stages: Vec<SharedStage> = records
            .iter()
            .zip(&mix.benchmarks)
            .map(|(records, label)| {
                let (records, label) = (records.clone(), label.clone());
                let source = move |at| -> Box<dyn TraceSource> {
                    Box::new(SharedReplayTrace::new(label.clone(), records.clone()).seek(at))
                };
                SharedStage::new(params, source, pool.clone(), Arc::default())
            })
            .collect();
        let shared = at_once(&kinds, &|kind| {
            let cursors = stages.iter().map(SharedStage::cursor).collect();
            let built = kind.build_dispatch(&cfg, &slots);
            MultiCoreSystem::with_stages(cfg.clone(), cursors, built).run(POOL_INSTRUCTIONS)
        });
        for ((kind, shared), (reference, _)) in kinds.iter().zip(&shared).zip(&references) {
            assert_identical(shared, reference, &format!("pool {pool_bytes}, {kind:?}"));
        }
    }
    std::fs::remove_file(path).ok();
}

/// A closed form for the private stage itself. Core 0 cycles over as many conflicting
/// blocks as the L2 has ways — more than the L1 holds, so every access misses it — with
/// 3 instructions between accesses and no prefetcher: once each block has been fetched,
/// nothing core 0 does reaches the LLC again, before or after it finishes, while core 1
/// sweeps on. Its stage must keep forming events all the same (the bound on a gap), or a
/// run whose other core is unfinished never ends.
#[test]
fn l2_resident_finished_core_reaches_the_llc_once_per_block_and_the_run_terminates() {
    let mut cfg = SystemConfig::tiny(2);
    cfg.l1d.policy = PrivatePolicyKind::Lru;
    cfg.l2.policy = PrivatePolicyKind::Lru;
    cfg.l1_next_line_prefetch = false;
    let llc_sets = cfg.llc.geometry.num_sets() as u64;
    let l2_ways = cfg.l2.geometry.ways as u64;
    assert!((cfg.l1d.geometry.ways as u64) < l2_ways);
    let target = 30_000;
    let sources = || -> Vec<Box<dyn TraceSource>> {
        vec![
            Box::new(Cyclic {
                blocks: (0..l2_ways).map(|k| k * llc_sets).collect(),
                gapped: u64::MAX,
                served: 0,
            }),
            Box::new(StridedTrace::new(1 << 32, 64, 1 << 20, 2)),
        ]
    };
    let (fast, reference) = run_both_on(&cfg, PolicyKind::Lru, &[], &sources, target);
    assert_identical(&fast, &reference, "L2-resident core beside a sweep");
    let (resident, sweep) = (&fast.per_core[0], &fast.per_core[1]);
    assert!(
        resident.cycles < sweep.cycles,
        "core 0 must finish first and be re-executed"
    );
    assert_eq!(resident.l1d.hits, 0);
    assert_eq!(resident.l2.misses, l2_ways);
    assert_eq!(resident.llc.demand_accesses, l2_ways);
    // The whole run's LLC traffic of core 0 is still those accesses: it formed no
    // shared event after warm-up, finished or not.
    assert_eq!(
        fast.llc_global.total_demand_misses,
        sweep.llc.demand_misses + l2_ways
    );
}

/// The runner's entry point reports what the oracle computes: every evaluation takes
/// this path — a mix materialized from its generators once, then each `PolicyKind`
/// built and run over its shared stages — so this holds the path from a `PolicyKind`
/// and a mix to a `MixEvaluation` to the independent model.
#[test]
fn evaluate_prepared_is_bit_identical_to_the_reference_engine() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let llc_sets = cfg.llc.geometry.num_sets();
    for mix in &generate_mixes(StudyKind::Cores4, 2, scale.seed()) {
        let prepared = MixSource::synthetic(mix.clone())
            .materialize_with(llc_sets, SEED, &ReplayConfig::default())
            .unwrap();
        for kind in [
            PolicyKind::TaDrrip,
            PolicyKind::AdaptBp32,
            PolicyKind::Eaf,
            PolicyKind::Ship,
        ] {
            let built = kind.build_dispatch(&cfg, &mix.thrashing_slots());
            let sources = mix.trace_sources(llc_sets, SEED);
            let reference =
                NaiveSystem::new(cfg.clone(), sources, Box::new(built)).run(INSTRUCTIONS);
            let built = kind.build_dispatch(&cfg, &mix.thrashing_slots());
            let fast = evaluate_prepared(&cfg, &prepared, kind, built, INSTRUCTIONS, SEED);
            let what = format!("mix {} {kind:?}", mix.id);
            assert_evaluation_matches(&fast, &reference, &what);
            assert!(fast.llc_global.total_demand_misses > 0, "{what}: idle LLC");
        }
    }
}

/// Closed forms from the replacement literature (the analytic multi-level/LLC review in
/// PAPERS.md) that bind *both* engines to something neither of them wrote. One core,
/// LRU private levels, no prefetcher, and a cyclic stream of blocks that all map to
/// set 0 of every level (multiples of the LLC set count), one instruction per access:
///
/// 1. `ways + 1` blocks under LRU: every access evicts the block needed furthest in
///    the past — which is the next one needed. Miss rate 1.0 at every level.
/// 2. `ways` blocks: the set holds them all, so a policy that does not bypass may miss
///    each block once and never again, however it ranks them.
/// 3. `l2.ways` blocks: the L2 holds them all, so the LLC sees each block exactly once.
#[test]
fn closed_form_anchors_hold_on_both_engines() {
    const ACCESSES: u64 = 10_000;
    let mut cfg = SystemConfig::tiny(1);
    cfg.l1d.policy = PrivatePolicyKind::Lru;
    cfg.l2.policy = PrivatePolicyKind::Lru;
    cfg.l1_next_line_prefetch = false;
    let llc_sets = cfg.llc.geometry.num_sets() as u64;
    let llc_ways = cfg.llc.geometry.ways as u64;
    let l2_ways = cfg.l2.geometry.ways as u64;
    assert!(cfg.l1d.geometry.ways as u64 <= l2_ways && l2_ways < llc_ways);

    // Run `kind` over a cycle of `blocks` blocks on both engines; core 0's statistics.
    let run = |kind: PolicyKind, blocks: u64| -> CoreStats {
        let source = || -> Vec<Box<dyn TraceSource>> {
            vec![Box::new(Cyclic {
                blocks: (0..blocks).map(|k| k * llc_sets).collect(),
                gapped: 0,
                served: 0,
            })]
        };
        let (fast, reference) = run_both_on(&cfg, kind, &[], &source, ACCESSES);
        assert_identical(
            &fast,
            &reference,
            &format!("{kind:?}, {blocks} cyclic blocks"),
        );
        let core = fast.per_core[0].clone();
        assert_eq!(core.instructions, ACCESSES);
        assert_eq!(core.l1d.accesses, ACCESSES);
        core
    };

    let thrash = run(PolicyKind::Lru, llc_ways + 1);
    assert_eq!(thrash.llc.demand_hits, 0);
    assert_eq!(thrash.llc.demand_misses, ACCESSES);
    assert_eq!(thrash.llc.demand_accesses, thrash.l1d.accesses);

    for kind in [
        PolicyKind::Lru,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::TaDrrip,
        PolicyKind::Ship,
        PolicyKind::AdaptIns,
    ] {
        let fits = run(kind, llc_ways);
        assert_eq!(
            fits.llc.demand_accesses, ACCESSES,
            "{kind:?}: L2 must thrash"
        );
        assert_eq!(
            fits.llc.demand_misses, llc_ways,
            "{kind:?}: compulsory misses only"
        );
    }

    let private = run(PolicyKind::Lru, l2_ways);
    assert_eq!(private.l2.misses, l2_ways);
    assert_eq!(private.llc.demand_accesses, l2_ways);
}
