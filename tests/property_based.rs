//! Property-based tests (proptest) over the core data structures and invariants.

mod oracle;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use adapt_llc::adapt::{
    AdaptConfig, AdaptPolicy, FootprintMonitor, InsertionPriorityPredictor, LeastPriorityMode,
    PriorityLevel,
};
use adapt_llc::experiments::{ablation, ExperimentScale, PolicyKind};
use adapt_llc::metrics as mc;
use adapt_llc::policies::{
    BrripPolicy, BypassDistant, EafPolicy, LruPolicy, ShipPolicy, SrripPolicy, TaDrripPolicy,
};
use adapt_llc::sim::addr::{block_of, BlockAddr};
use adapt_llc::sim::bank::BankModel;
use adapt_llc::sim::config::{
    BankContentionConfig, CacheGeometry, LlcConfig, PrivateCacheConfig, PrivatePolicyKind,
    RowModelConfig, SystemConfig,
};
use adapt_llc::sim::llc::SharedLlc;
use adapt_llc::sim::private::{PrivateStats, SharedStage, StageParams};
use adapt_llc::sim::private_cache::{Lookup, PrivateCache};
use adapt_llc::sim::replacement::{
    AccessContext, InsertionDecision, LlcReplacementPolicy, RrpvArray,
};
use adapt_llc::sim::trace::{MemAccess, SharedReplayTrace, TraceSource};
use adapt_llc::workloads::{classify, generate_mixes, MemIntensity, StudyKind};
use oracle::{core_timing, Below, NaiveBanks, NaiveLlc, NaivePrivate, NaivePrivateCache};

/// Every [`PolicyKind`], with one representative `SD=` count.
const ALL_POLICY_KINDS: [PolicyKind; 14] = [
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

/// The policy `kind` names, constructed from its concrete type without going through
/// `PolicyKind::build_dispatch`, and boxed the way the oracle (`tests/oracle/`) takes it.
fn policy_by_hand(
    kind: PolicyKind,
    llc: &LlcConfig,
    cores: usize,
    thrashing_slots: &[usize],
) -> Box<dyn LlcReplacementPolicy> {
    let sets = llc.geometry.num_sets();
    let ways = llc.geometry.ways;
    match kind {
        PolicyKind::Lru => Box::new(LruPolicy::new(sets, ways)),
        PolicyKind::Srrip => Box::new(SrripPolicy::new(sets, ways)),
        PolicyKind::Brrip => Box::new(BrripPolicy::new(sets, ways)),
        PolicyKind::Drrip => Box::new(TaDrripPolicy::new(sets, ways, 1)),
        PolicyKind::TaDrrip => Box::new(TaDrripPolicy::new(sets, ways, cores)),
        PolicyKind::TaDrripSd(n) => {
            Box::new(TaDrripPolicy::with_dueling_sets(sets, ways, cores, n))
        }
        PolicyKind::TaDrripForced => {
            let mut p = TaDrripPolicy::new(sets, ways, cores);
            p.force_brrip_for(thrashing_slots);
            Box::new(p)
        }
        PolicyKind::Ship => Box::new(ShipPolicy::new(sets, ways)),
        PolicyKind::Eaf => Box::new(EafPolicy::new(sets, ways)),
        PolicyKind::AdaptIns => Box::new(AdaptPolicy::new(
            AdaptConfig::paper_insert_only(),
            llc,
            cores,
        )),
        PolicyKind::AdaptBp32 => Box::new(AdaptPolicy::new(AdaptConfig::paper(), llc, cores)),
        PolicyKind::TaDrripBypass => {
            Box::new(BypassDistant::new(TaDrripPolicy::new(sets, ways, cores)))
        }
        PolicyKind::ShipBypass => Box::new(BypassDistant::new(ShipPolicy::new(sets, ways))),
        PolicyKind::EafBypass => Box::new(BypassDistant::new(EafPolicy::new(sets, ways))),
    }
}

/// What a private stage hands the shared side while it consumes `records` once, up to
/// the record that reaches the instruction target (always the last one, and in order,
/// so a stage and the per-record oracle stop on the same record).
#[derive(Debug, PartialEq)]
struct StageOutput {
    /// Everything the LLC or the DRAM is asked to do, in order: each record that leaves
    /// the private levels, then what it sends below the L2.
    shared_ops: Vec<SharedOp>,
    /// Σ instructions, compute cycles, stall cycles of every record that does not.
    private_timing: [u64; 3],
    stats: PrivateStats,
    events: usize,
}

#[derive(Debug, PartialEq)]
enum SharedOp {
    /// A record that leaves the private levels: block, PC, store, non-memory instructions.
    Record(u64, u64, bool, u32),
    Below(Below),
}

impl StageOutput {
    fn new() -> Self {
        StageOutput {
            shared_ops: Vec::new(),
            private_timing: [0; 3],
            stats: PrivateStats::default(),
            events: 0,
        }
    }

    /// A private-only record: `non_mem` instructions ahead of an access that exposed
    /// `exposed` cycles beyond the L1D, charged as the oracle charges it.
    fn retire_private(&mut self, non_mem: u64, exposed: u64) {
        let (compute, stall) = core_timing(non_mem, exposed);
        self.private_timing[0] += non_mem + 1;
        self.private_timing[1] += compute;
        self.private_timing[2] += stall;
    }
}

/// `records`, looped, counting the records drawn.
struct Drawn(SharedReplayTrace, Arc<AtomicU64>);

impl TraceSource for Drawn {
    fn next_access(&mut self) -> MemAccess {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.next_access()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// A stage over `records` read through its sole cursor.
fn drive_stage(params: StageParams, records: &[MemAccess]) -> StageOutput {
    let drawn = Arc::new(AtomicU64::new(0));
    let trace = Drawn(
        SharedReplayTrace::new("prop", records.to_vec().into()),
        drawn.clone(),
    );
    let mut cursor = SharedStage::sole(params, Box::new(trace));
    let mut out = StageOutput::new();
    loop {
        let event = *cursor.next_event();
        let writebacks = cursor.writebacks();
        out.events += 1;
        out.private_timing[0] += u64::from(event.gap_instructions);
        out.private_timing[1] += u64::from(event.gap_compute_cycles);
        out.private_timing[2] += event.gap_stall_cycles(params.l2_hit_stall());
        assert_eq!(writebacks.len(), event.writebacks());
        let non_mem = u64::from(event.non_mem_instrs);
        let leaves = !event.l1_hit()
            && (!event.l2_hit() || event.prefetch_reaches_llc() || !writebacks.is_empty());
        if leaves {
            let (block, pc) = (event.block, event.pc);
            let ops = &mut out.shared_ops;
            ops.push(SharedOp::Record(
                block.0,
                pc,
                event.is_write(),
                event.non_mem_instrs,
            ));
            if !event.l2_hit() {
                let is_write = event.is_write();
                ops.push(SharedOp::Below(Below::Demand {
                    pc,
                    block,
                    is_write,
                }));
            }
            let (demand, prefetch) = writebacks.split_at(event.demand_writebacks());
            let writeback = |&b: &BlockAddr| SharedOp::Below(Below::Writeback(b));
            ops.extend(demand.iter().map(writeback));
            if event.prefetch_reaches_llc() {
                let block = block.next();
                ops.push(SharedOp::Below(Below::Prefetch { pc, block }));
            }
            ops.extend(prefetch.iter().map(writeback));
        } else {
            let exposed = if event.l1_hit() { 0 } else { params.l2.latency };
            out.retire_private(non_mem, exposed);
        }
        assert!(!event.frozen(), "an unfinished core cannot freeze");
        if event.reaches_target() {
            // The chunk ends at the target, and no read-ahead draws past it.
            assert_eq!(drawn.load(Ordering::Relaxed), records.len() as u64);
            out.stats = cursor.target_stats().expect("the target was reached");
            return out;
        }
    }
}

/// The oracle's private half (`tests/oracle/`) over `records`, one record at a time:
/// what a stage must hand the shared side, one event per record.
fn per_record(config: &SystemConfig, records: &[MemAccess]) -> StageOutput {
    let mut private = NaivePrivate::new(config);
    let mut out = StageOutput::new();
    for access in records {
        let mut below = Vec::new();
        let latency = private.access(access, &mut |op| {
            below.push(op);
            0
        });
        let non_mem = u64::from(access.non_mem_instrs);
        if below.is_empty() {
            out.retire_private(non_mem, latency - config.l1d.latency);
        } else {
            let block = block_of(access.addr).0;
            let record = SharedOp::Record(block, access.pc, access.is_write, access.non_mem_instrs);
            out.shared_ops.push(record);
            out.shared_ops
                .extend(below.into_iter().map(SharedOp::Below));
        }
        out.events += 1;
    }
    out.stats = PrivateStats {
        l1d: private.l1d.stats,
        l2: private.l2.stats,
        prefetch: *private.prefetcher.stats(),
    };
    out
}

fn ctx(core: usize, set: usize, block: u64) -> AccessContext {
    AccessContext {
        core_id: core,
        pc: 0,
        block_addr: block,
        set_index: set,
    }
}

/// A Footprint-number in Table 1 bucket `level` (0 High `[0, 3]`, 1 Medium `(3, 12]`,
/// 2 Low `(12, 16)`, 3 Least `>= 16`): `pick` 0 and 1 take the bucket's lowest and highest
/// double, 2 takes NaN in the Low bucket, and otherwise the point `at` ∈ [0, 1) of the way
/// between them.
fn fpn_in(level: usize, pick: usize, at: f64) -> f64 {
    let (lo, hi) = [
        (0.0, 3.0),
        (3.0f64.next_up(), 12.0),
        (12.0f64.next_up(), 16.0f64.next_down()),
        (16.0, 40.0),
    ][level];
    match pick {
        0 => lo,
        1 => hi,
        2 if level == 2 => f64::NAN,
        _ => lo + (hi - lo) * at,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A private cache never reports more hits+misses than accesses, never exceeds its
    /// capacity, and hits exactly the blocks that are present.
    #[test]
    fn private_cache_bookkeeping_is_consistent(
        addrs in proptest::collection::vec(0u64..4096, 1..400),
        write_mask in proptest::collection::vec(any::<bool>(), 1..400),
    ) {
        let cfg = PrivateCacheConfig {
            geometry: CacheGeometry::new(4 * 1024, 4),
            latency: 1,
            policy: PrivatePolicyKind::Lru,
        };
        let mut cache = PrivateCache::new(cfg);
        for (i, addr) in addrs.iter().enumerate() {
            let block = BlockAddr(*addr);
            let is_write = *write_mask.get(i % write_mask.len()).unwrap_or(&false);
            if cache.access(block, is_write) == Lookup::Miss {
                cache.fill(block, is_write, false);
            }
            prop_assert!(cache.probe(block), "a just-filled block must be present");
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert!(cache.occupancy() <= cache.capacity_lines());
        prop_assert!(s.writebacks <= s.evictions);
    }

    /// RRPV arrays stay within 2-bit bounds and victim search always returns a valid way.
    #[test]
    fn rrpv_array_invariants(ops in proptest::collection::vec((0usize..8, 0usize..8, 0u8..8), 1..200)) {
        let mut arr = RrpvArray::new(8, 8);
        for (set, way, value) in ops {
            arr.set(set, way, value);
            prop_assert!(arr.get(set, way) <= 3);
            let victim = arr.find_victim(set);
            prop_assert!(victim < 8);
            prop_assert_eq!(arr.get(set, victim), 3);
        }
    }

    /// The Footprint-number of any access stream never exceeds the number of distinct
    /// blocks per set in that stream (no over-counting for streams that fit the sampler),
    /// and never exceeds the saturation bound.
    #[test]
    fn footprint_bounded_by_distinct_blocks(
        blocks in proptest::collection::vec(0u64..12, 1..500),
    ) {
        use std::collections::HashSet;
        let sets = 4usize;
        let mut monitor = FootprintMonitor::new(AdaptConfig::all_sets_profiler(), sets, 1);
        let mut per_set: Vec<HashSet<u64>> = vec![HashSet::new(); sets];
        for b in &blocks {
            let set = (*b as usize) % sets;
            monitor.observe(0, set, *b);
            per_set[set].insert(*b);
        }
        let fpn = monitor.end_interval()[0];
        let max_distinct = per_set.iter().map(|s| s.len()).max().unwrap_or(0) as f64;
        prop_assert!(fpn <= max_distinct + 1e-9, "fpn {} > max distinct {}", fpn, max_distinct);
        prop_assert!(fpn <= 32.0 + 1e-9);
    }

    /// Priority classification is monotonic in the Footprint-number and total.
    #[test]
    fn priority_classification_is_monotonic(a in 0.0f64..40.0, b in 0.0f64..40.0) {
        let cfg = AdaptConfig::paper();
        let mut pa = InsertionPriorityPredictor::new(cfg);
        let mut pb = InsertionPriorityPredictor::new(cfg);
        pa.update(a.min(b));
        pb.update(a.max(b));
        let rank = |p: PriorityLevel| match p {
            PriorityLevel::High => 0,
            PriorityLevel::Medium => 1,
            PriorityLevel::Low => 2,
            PriorityLevel::Least => 3,
        };
        prop_assert!(rank(pa.priority()) <= rank(pb.priority()));
    }

    /// Priority is a pure, discrete function of the Footprint-number's Table 1 bucket: two
    /// predictors fed different Footprint-numbers from the same buckets — the edges 3, 12
    /// and 16 themselves, the doubles just past them, and NaN (not yet measured: Low)
    /// among them — with any number of decisions between updates, decide alike.
    #[test]
    fn priority_depends_only_on_the_footprint_bucket(
        steps in proptest::collection::vec(
            (0usize..4, (0usize..4, 0.0f64..1.0), (0usize..4, 0.0f64..1.0), 0usize..80),
            1..40,
        ),
    ) {
        use adapt_llc::adapt::priority::classify as bucket;
        const LEVELS: [PriorityLevel; 4] = [
            PriorityLevel::High,
            PriorityLevel::Medium,
            PriorityLevel::Low,
            PriorityLevel::Least,
        ];
        for config in [AdaptConfig::paper(), AdaptConfig::paper_insert_only()] {
            let mut a = InsertionPriorityPredictor::new(config);
            let mut b = InsertionPriorityPredictor::new(config);
            for &(level, (pick_a, at_a), (pick_b, at_b), decisions) in &steps {
                let (fa, fb) = (fpn_in(level, pick_a, at_a), fpn_in(level, pick_b, at_b));
                prop_assert_eq!(bucket(&config, fa), LEVELS[level], "Fpn {}", fa);
                prop_assert_eq!(bucket(&config, fb), LEVELS[level], "Fpn {}", fb);
                a.update(fa);
                b.update(fb);
                for _ in 0..decisions {
                    prop_assert_eq!(a.decide(), b.decide());
                }
            }
        }
    }

    /// Insertion decisions always carry a legal RRPV and only Least priority may bypass.
    #[test]
    fn insertion_decisions_are_legal(fpn in 0.0f64..40.0, n in 1usize..200) {
        let mut p = InsertionPriorityPredictor::new(AdaptConfig::paper());
        p.update(fpn);
        for _ in 0..n {
            match p.decide() {
                InsertionDecision::Insert { rrpv } => prop_assert!(rrpv <= 3),
                InsertionDecision::Bypass => {
                    prop_assert_eq!(p.priority(), PriorityLevel::Least);
                }
            }
        }
    }

    /// Under Footprint-numbers that move between decisions, a bypass is decided only at
    /// Least priority, of every 32 consecutive Least decisions exactly one installs, every
    /// Least install is at RRPV 3, and ADAPT_ins never bypasses.
    #[test]
    fn bypass_installs_exactly_one_least_fill_in_32(
        steps in proptest::collection::vec((0.0f64..40.0, 0usize..40), 1..60),
    ) {
        for config in [AdaptConfig::paper(), AdaptConfig::paper_insert_only()] {
            let mut p = InsertionPriorityPredictor::new(config);
            // Whether each Least decision installed, in order.
            let mut least_installs = Vec::new();
            for &(fpn, decisions) in &steps {
                p.update(fpn);
                for _ in 0..decisions {
                    let decision = p.decide();
                    if p.priority() == PriorityLevel::Least {
                        prop_assert!(
                            decision.is_bypass() || decision == InsertionDecision::Insert { rrpv: 3 },
                            "{:?} at Least", decision
                        );
                        least_installs.push(!decision.is_bypass());
                    } else {
                        prop_assert!(!decision.is_bypass(), "bypass at {:?}", p.priority());
                    }
                }
            }
            if config.least_mode == LeastPriorityMode::InsertDistant {
                prop_assert!(least_installs.iter().all(|&installed| installed));
            } else {
                for window in least_installs.windows(32) {
                    prop_assert_eq!(window.iter().filter(|&&installed| installed).count(), 1);
                }
            }
        }
    }

    /// An access to an unmonitored set changes no Footprint-number.
    #[test]
    fn unmonitored_sets_change_no_footprint_number(
        accesses in proptest::collection::vec((0usize..512, 0u64..64, 0usize..2), 1..800),
    ) {
        let config = AdaptConfig::paper();
        let mut every_access = FootprintMonitor::new(config, 512, 2);
        let mut monitored_only = FootprintMonitor::new(config, 512, 2);
        for &(set, tag, app) in &accesses {
            let block = (tag << 9) | set as u64;
            every_access.observe(app, set, block);
            if monitored_only.is_monitored(set) {
                monitored_only.observe(app, set, block);
            }
        }
        prop_assert_eq!(every_access.end_interval(), monitored_only.end_interval());
    }

    /// LRU and SRRIP victim selection always returns an in-range way.
    #[test]
    fn llc_policies_return_valid_victims(
        hits in proptest::collection::vec((0usize..16, 0usize..16), 1..200),
    ) {
        let mut lru = LruPolicy::new(16, 16);
        let mut srrip = SrripPolicy::new(16, 16);
        for (set, way) in hits {
            lru.on_hit(&ctx(0, set, way as u64), way);
            srrip.on_hit(&ctx(0, set, way as u64), way);
            prop_assert!(lru.choose_victim(&ctx(0, set, 0), &[]) < 16);
            prop_assert!(srrip.choose_victim(&ctx(0, set, 0), &[]) < 16);
        }
    }

    /// Weighted speedup is bounded by the core count when no application runs faster shared
    /// than alone, and the mean-of-IPCs ordering HM <= GM <= AM always holds.
    #[test]
    fn metric_bounds_hold(
        alone in proptest::collection::vec(0.05f64..4.0, 1..24),
        degradation in proptest::collection::vec(0.05f64..1.0, 1..24),
    ) {
        let n = alone.len().min(degradation.len());
        let alone = &alone[..n];
        let shared: Vec<f64> = alone.iter().zip(&degradation[..n]).map(|(a, d)| a * d).collect();
        let ws = mc::weighted_speedup(&shared, alone);
        prop_assert!(ws <= n as f64 + 1e-9);
        prop_assert!(ws >= 0.0);
        let hm = mc::harmonic_mean(&shared);
        let gm = mc::geometric_mean(&shared);
        let am = mc::arithmetic_mean(&shared);
        prop_assert!(hm <= gm + 1e-9 && gm <= am + 1e-9);
        let hmn = mc::harmonic_mean_normalized(&shared, alone);
        prop_assert!(hmn <= 1.0 + 1e-9);
    }

    /// Table 5 classification is total and consistent with its thresholds.
    #[test]
    fn classification_is_total_and_threshold_consistent(fpn in 0.0f64..64.0, mpki in 0.0f64..100.0) {
        let class = classify(fpn, mpki);
        if fpn < 16.0 && mpki < 1.0 {
            prop_assert_eq!(class, MemIntensity::VeryLow);
        }
        if fpn >= 16.0 && mpki > 25.0 {
            prop_assert_eq!(class, MemIntensity::VeryHigh);
        }
    }

    /// Workload-mix generation always satisfies Table 6's composition rules, for any seed.
    #[test]
    fn mix_generation_respects_composition_rules(seed in 0u64..10_000) {
        let mixes = generate_mixes(StudyKind::Cores16, 2, seed);
        for m in &mixes {
            prop_assert_eq!(m.benchmarks.len(), 16);
            for class in MemIntensity::all() {
                let n = m.specs().iter().filter(|s| s.paper_class == class).count();
                prop_assert!(n >= 2, "class {:?} has {} members", class, n);
            }
        }
        let four = generate_mixes(StudyKind::Cores4, 2, seed);
        for m in &four {
            prop_assert!(!m.thrashing_slots().is_empty());
        }
    }
}

/// A Footprint monitor samples exactly the configured sets.
/// At the scaled and the paper LLC, and at every sampled-set count the ablation sweeps, it
/// monitors `min(n, sets)` sets spread at one stride over the index space; `AllSets`
/// monitors every set. Every ablation point reaches the monitor of the policy it builds,
/// so the sweep's flat result comes from the workloads, not from a lost setting.
#[test]
fn footprint_monitors_sample_exactly_the_configured_sets() {
    let scaled = ExperimentScale::Scaled
        .system_config(StudyKind::Cores16)
        .llc;
    let paper = SystemConfig::paper_baseline(16).llc;
    assert_eq!(scaled.geometry.num_sets(), 512);
    assert_eq!(paper.geometry.num_sets(), 16384);
    for llc in [&scaled, &paper] {
        let sets = llc.geometry.num_sets();
        for n in [8, 16, 40, 64, 128] {
            let config = AdaptConfig {
                sampled_sets: n,
                ..AdaptConfig::paper()
            };
            let monitor = FootprintMonitor::new(config, sets, 1);
            let count = n.min(sets);
            let stride = sets / count;
            let monitored: Vec<usize> = (0..sets).filter(|&s| monitor.is_monitored(s)).collect();
            assert_eq!(monitor.monitored_sets(), count, "{n} of {sets} sets");
            assert_eq!(
                monitored,
                (0..count).map(|i| i * stride).collect::<Vec<_>>(),
                "{n} of {sets} sets"
            );
        }
        let all = FootprintMonitor::new(AdaptConfig::all_sets_profiler(), sets, 1);
        assert_eq!(all.monitored_sets(), sets);
        assert!((0..sets).all(|s| all.is_monitored(s)));
    }
    for sweep in ablation::sweeps() {
        for (label, config, _) in &sweep.points {
            let policy = AdaptPolicy::new(*config, &scaled, 16);
            assert_eq!(
                policy.monitor().monitored_sets(),
                config.sampled_sets.min(512),
                "{label}"
            );
        }
    }
}

// The engine-vs-oracle properties run under the default case count (256), which CI's
// "Engine identity fuzz pass" raises through `PROPTEST_CASES` — an explicit
// `with_cases` would pin it.
proptest! {

    /// The structure-of-arrays fast-path LLC is bit-identical to the oracle's naive LLC
    /// (`tests/oracle/`) across random geometries (including non-power-of-two bank
    /// counts), every `PolicyKind` (the enum `build_dispatch` returns on the fast side,
    /// the same policy built by hand and boxed on the oracle's side), and access
    /// streams mixing demand/prefetch reads, writes (dirty lines), L2 write-backs and
    /// interval rollovers: every lookup outcome, fill outcome, per-core/global/bank
    /// statistic and the occupancy map must agree.
    #[test]
    fn soa_llc_is_bit_identical_to_reference(
        set_exp in 3u32..7,
        ways in 1usize..34,
        banks in 1usize..6,
        cores_minus_one in 0usize..4,
        contended in any::<bool>(),
        ops in proptest::collection::vec(
            (0u64..2048, 0usize..16, any::<bool>(), 0usize..8),
            1..400,
        ),
    ) {
        let num_cores = cores_minus_one + 1;
        let sets = 1usize << set_exp;
        let cfg = LlcConfig {
            geometry: CacheGeometry::with_sets(sets, ways),
            latency: 10,
            banks,
            bank_busy_cycles: 4,
            mshr_entries: 4,
            wb_entries: 4,
            contention: if contended {
                BankContentionConfig::contended(2, 4)
            } else {
                BankContentionConfig::flat()
            },
            nuca: cache_sim::config::NucaConfig::disabled(),
        };
        // Small interval so the interval hook rolls over many times inside one case.
        let interval_misses = 8;
        // Core 0 exists in every case, so the forced variant does force something.
        let thrashing_slots = [0];
        let system = SystemConfig {
            num_cores,
            llc: cfg,
            ..SystemConfig::tiny(num_cores)
        };
        // Every kind sees every generated case, so none is left to the luck of the draw.
        for kind in ALL_POLICY_KINDS {
            let fast_policy = kind.build_dispatch(&system, &thrashing_slots);
            let ref_policy = policy_by_hand(kind, &cfg, num_cores, &thrashing_slots);
            prop_assert_eq!(fast_policy.name(), ref_policy.name());
            let mut fast = SharedLlc::new(cfg, num_cores, interval_misses, fast_policy);
            let mut reference = NaiveLlc::new(cfg, num_cores, interval_misses, ref_policy);

            for (i, &(addr, pc_sel, is_write, op_sel)) in ops.iter().enumerate() {
                let block = BlockAddr(addr);
                let core = i % num_cores;
                let pc = 0x400 + pc_sel as u64 * 8;
                let now = (i as u64) * 3;
                match op_sel {
                    // L2 write-back arriving at the LLC.
                    0 => {
                        prop_assert_eq!(
                            fast.writeback(core, block, now),
                            reference.writeback(core, block, now)
                        );
                    }
                    // Prefetch lookup (never fills).
                    1 => {
                        let a = fast.access(core, pc, block, false, false, now);
                        let b = reference.access(core, pc, block, false, false, now);
                        prop_assert_eq!(a, b);
                    }
                    // Demand access; fill on miss like the system driver does.
                    _ => {
                        let a = fast.access(core, pc, block, true, is_write, now);
                        let b = reference.access(core, pc, block, true, is_write, now);
                        prop_assert_eq!(a, b, "{:?}: lookup diverged at op {}", kind, i);
                        if !a.hit {
                            let fa = fast.fill(core, pc, block, is_write, now);
                            let fb = reference.fill(core, pc, block, is_write, now);
                            prop_assert_eq!(fa, fb, "{:?}: fill diverged at op {}", kind, i);
                        }
                    }
                }
            }

            prop_assert_eq!(fast.global_stats(), &reference.global);
            for core in 0..num_cores {
                prop_assert_eq!(fast.core_stats(core), &reference.per_core[core]);
            }
            prop_assert_eq!(fast.bank_stats(), &reference.banks.stats[..]);
            let lines_by_core = reference.occupancy_by_core();
            prop_assert_eq!(fast.occupancy(), lines_by_core.iter().sum::<usize>());
            prop_assert_eq!(fast.occupancy_by_core(), lines_by_core);
        }
    }

    /// The engine's banks — a register per flat bank, one queue per contended bank — are
    /// bit-identical to the oracle's queue formulation (`NaiveBanks`) for 1–3 ports,
    /// queue depths 0, 1 and 16, the row model off and on, 1–96
    /// banks and service windows 1–30, over request times that step back by up to 300
    /// cycles as the DRAM's do: every request, row class, per-bank statistic and per-core
    /// stall must agree.
    #[test]
    fn bank_model_is_bit_identical_to_the_naive_banks(
        ports in 1usize..4,
        depth_sel in 0usize..3,
        rows in any::<bool>(),
        banks in 1usize..97,
        service in 1u64..31,
        cap in 1u32..6,
        ops in proptest::collection::vec((0usize..96, 0u64..64, 0usize..8, 0u64..6), 1..400),
    ) {
        let contention = BankContentionConfig::contended(ports, [0, 1, 16][depth_sel]);
        let row_model = rows.then(|| RowModelConfig::frfcfs(10, 20, 30, cap));
        let mut fast = BankModel::new(banks, service, contention, row_model);
        let mut reference = NaiveBanks::new(banks, service, contention, row_model);
        let mut now = 1_000u64;
        for (i, &(bank, step, core, row)) in ops.iter().enumerate() {
            // A quarter of the steps go back, by up to 300 cycles.
            now = if step < 48 { now + step } else { now.saturating_sub((step - 48) * 20) };
            let bank = bank % banks;
            let got = fast.schedule(bank, now, core, row);
            let (request, class) = reference.schedule(bank, now, core, row);
            prop_assert_eq!(got.request, request, "request {} diverged", i);
            prop_assert_eq!(got.class, class, "request {} classed differently", i);
        }
        prop_assert_eq!(fast.stats(), &reference.stats[..]);
        prop_assert_eq!(fast.core_stalls(), &reference.core_stalls[..]);
    }

    /// The structure-of-arrays private cache is bit-identical to the oracle's naive one
    /// across geometries, replacement policies and access/fill/write-back streams.
    #[test]
    fn soa_private_cache_is_bit_identical_to_reference(
        set_exp in 2u32..6,
        ways in 1usize..21,
        policy_idx in 0usize..2,
        ops in proptest::collection::vec((0u64..1024, any::<bool>(), 0usize..8), 1..400),
    ) {
        let policy = [PrivatePolicyKind::Lru, PrivatePolicyKind::Drrip][policy_idx];
        let cfg = PrivateCacheConfig {
            geometry: CacheGeometry::with_sets(1 << set_exp, ways),
            latency: 2,
            policy,
        };
        let mut fast = PrivateCache::new(cfg);
        let mut reference = NaivePrivateCache::new(cfg);

        for &(addr, is_write, op_sel) in &ops {
            let block = BlockAddr(addr);
            match op_sel {
                0 => {
                    prop_assert_eq!(
                        fast.writeback(block),
                        reference.writeback(block)
                    );
                }
                1 => {
                    prop_assert_eq!(fast.probe(block), reference.probe(block));
                }
                _ => {
                    let a = fast.access(block, is_write);
                    let b = reference.access(block, is_write);
                    prop_assert_eq!(a, b);
                    if a == Lookup::Miss {
                        // Alternate demand and prefetch fills (prefetch inserts distant).
                        let prefetch = op_sel == 2;
                        prop_assert_eq!(
                            fast.fill(block, is_write, prefetch),
                            reference.fill(block, is_write, prefetch)
                        );
                    }
                }
            }
        }

        prop_assert_eq!(fast.stats(), &reference.stats);
    }

    /// The private stage's output does not depend on how many private-only records it
    /// coalesces per event: it equals the oracle's private half stepped one record at a
    /// time. The same operations reach the shared side in the same order, the records
    /// that do not reach it retire the same instructions and cycles, and the private
    /// levels end in the same state — over streams whose small address space makes both
    /// levels conflict and write back, with runs of gapless records, prefetcher on and
    /// off, every private policy.
    #[test]
    fn private_stage_output_is_invariant_under_the_bound(
        l1_policy in 0usize..2,
        l2_policy in 0usize..2,
        prefetch in any::<bool>(),
        blocks in 8u64..96,
        stream in proptest::collection::vec(
            (0u64..96, any::<bool>(), 0u32..16, 0u64..4),
            1..600,
        ),
    ) {
        let policies = [PrivatePolicyKind::Lru, PrivatePolicyKind::Drrip];
        let mut config = SystemConfig::tiny(1);
        config.l1d.geometry = CacheGeometry::with_sets(4, 2);
        config.l1d.policy = policies[l1_policy];
        config.l2.geometry = CacheGeometry::with_sets(8, 2);
        config.l2.policy = policies[l2_policy];
        config.l1_next_line_prefetch = prefetch;
        config.validate().unwrap();

        // More than half the records are gapless, so runs of them occur.
        let records: Vec<MemAccess> = stream
            .iter()
            .map(|&(block, is_write, gap, pc)| MemAccess {
                addr: (block % blocks) * 64,
                pc: 0x400 + pc * 4,
                is_write,
                non_mem_instrs: gap.saturating_sub(8),
            })
            .collect();
        let instructions = records.iter().map(MemAccess::instructions).sum();

        let per_record = per_record(&config, &records);
        prop_assert_eq!(per_record.stats.l1d.accesses, records.len() as u64);
        let coalesced = drive_stage(StageParams::latch(&config, instructions), &records);
        prop_assert!(coalesced.events <= per_record.events);
        prop_assert_eq!(
            StageOutput { events: per_record.events, ..coalesced },
            per_record
        );
    }
}
