//! Shared, banked last-level cache with a pluggable replacement policy.
//!
//! The LLC owns tags, valid/dirty bits and per-core statistics; all replacement state lives
//! in the policy (see [`crate::replacement`]). Timing: a fixed hit latency plus the
//! cycle-accounted bank contention model of [`crate::bank`] (paper §4.1: "We model
//! bank-conflicts, but with fixed latency for all banks" — the default flat configuration
//! reproduces exactly that, while contended configurations add finite service ports and
//! bounded per-bank queues); MSHR and write-back buffer occupancy is modeled with
//! [`crate::mshr::OccupancyWindow`].
//!
//! Simplifications relative to BADCO:
//! * prefetch misses do not allocate in the LLC (demand misses do); prefetch hits do not
//!   update recency state — this directly implements the paper's rule that only demand
//!   accesses update recency,
//! * write-backs arriving from a private L2 update a present line's dirty bit or are
//!   forwarded to memory if absent; they never allocate.

use crate::addr::BlockAddr;
use crate::bank::{BankModel, BankStats};
use crate::config::LlcConfig;
use crate::mshr::OccupancyWindow;
use crate::replacement::{AccessContext, LlcReplacementPolicy};

/// Outcome of an LLC lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcLookup {
    pub hit: bool,
    /// LLC-side latency (hit latency + bank queuing), charged on hits and misses alike.
    pub latency: u64,
}

/// A line evicted by an LLC fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcEvicted {
    pub block: BlockAddr,
    pub dirty: bool,
    pub owner: usize,
}

/// Outcome of an LLC fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcFill {
    /// True if the policy chose to bypass the LLC (the line was not allocated).
    pub bypassed: bool,
    pub evicted: Option<LlcEvicted>,
}

/// Per-core LLC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcCoreStats {
    pub demand_accesses: u64,
    pub demand_hits: u64,
    pub demand_misses: u64,
    /// Demand fills the policy chose not to allocate.
    pub bypassed_fills: u64,
    pub prefetch_accesses: u64,
    pub prefetch_hits: u64,
    /// Write-backs received from this core's L2.
    pub writebacks_in: u64,
    /// Lines belonging to this core evicted from the LLC.
    pub lines_evicted: u64,
}

/// Whole-LLC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcGlobalStats {
    pub total_demand_misses: u64,
    pub intervals_completed: u64,
    /// Cycles requests spent waiting for a bank (admitted, port busy), summed.
    pub bank_queue_cycles: u64,
    /// Cycles requests spent stalled because a bank's finite queue was full
    /// (back-pressure; always zero under the flat contention model).
    pub bank_admission_stall_cycles: u64,
    pub dirty_evictions: u64,
    pub mshr_stall_cycles: u64,
    pub mshr_full_events: u64,
    pub wb_stall_cycles: u64,
    /// NUCA mesh wire cycles charged on top of bank latency, summed across requests.
    /// Always zero with [`crate::config::NucaConfig::disabled`] (the default).
    pub nuca_cycles: u64,
}

/// Upper bound on LLC associativity: the valid/dirty state of one set is packed into a
/// single `u64` bitmask, so a set holds at most 64 ways (the paper's largest
/// configuration, Figure 7's 32-way LLC, uses half of that).
pub const MAX_WAYS: usize = 64;

/// Bitmask with one bit per way (shared by the LLC and private-cache SoA layouts).
#[inline]
pub(crate) fn way_mask(ways: usize) -> u64 {
    debug_assert!((1..=MAX_WAYS).contains(&ways));
    if ways == MAX_WAYS {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

/// Bit `w` set where way `w` holds `tag`: the one tag-match kernel of every cache level.
///
/// The caller masks off invalid ways; the lowest set bit is the lowest matching way. One
/// body per target, equal bit for bit: SSE2 on `x86_64`, where it is part of the baseline
/// (no runtime detection), and a portable body everywhere else.
#[inline]
pub fn tag_matches(tags: &[u64], tag: u64) -> u64 {
    debug_assert!(tags.len() <= MAX_WAYS);
    #[cfg(target_arch = "x86_64")]
    {
        tag_matches_sse2(tags, tag)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        tag_matches_portable(tags, tag)
    }
}

/// [`tag_matches`] two ways per SSE2 step. Baseline x86-64 has no 64-bit lane compare
/// (`pcmpeqq` is SSE4.1), so a step compares 32-bit halves (`pcmpeqd`), swaps the halves
/// of each lane (`pshufd`) and ANDs the two (`pand`): a lane is all ones where its way
/// matches. Two steps pack into one mask of four ways (`packssdw`, `movmskps`); a
/// leftover pair takes `movmskpd`, and an odd last way is compared alone.
#[cfg(target_arch = "x86_64")]
#[inline]
fn tag_matches_sse2(tags: &[u64], tag: u64) -> u64 {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_castsi128_pd, _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128,
        _mm_movemask_pd, _mm_movemask_ps, _mm_packs_epi32, _mm_set1_epi64x, _mm_shuffle_epi32,
    };
    let (pairs, last) = tags.as_chunks::<2>();
    let (quads, pair) = pairs.as_chunks::<2>();
    let mut matches = 0u64;
    // SAFETY: SSE2 is part of the x86_64 baseline, so every intrinsic here is available
    // on every x86_64 host; each load reads one in-bounds pair, and `loadu` has no
    // alignment requirement.
    unsafe {
        let needle = _mm_set1_epi64x(tag as i64);
        let step = |pair: &[u64; 2]| {
            let halves = _mm_cmpeq_epi32(_mm_loadu_si128(pair.as_ptr().cast()), needle);
            _mm_and_si128(halves, _mm_shuffle_epi32::<0b10_11_00_01>(halves))
        };
        for (q, [lo, hi]) in quads.iter().enumerate() {
            let lanes = _mm_packs_epi32(step(lo), step(hi));
            matches |= (_mm_movemask_ps(_mm_castsi128_ps(lanes)) as u64) << (4 * q);
        }
        if let [pair] = pair {
            let lanes = _mm_castsi128_pd(step(pair));
            matches |= (_mm_movemask_pd(lanes) as u64) << (4 * quads.len());
        }
    }
    if let [last] = last {
        matches |= u64::from(*last == tag) << (tags.len() - 1);
    }
    matches
}

/// [`tag_matches`] on every target but `x86_64`. Whole groups of 8 ways are compared
/// branch-free at a compile-time width, so the compiler unrolls them; a remainder is
/// compared way by way. Test builds compile it on every target, so x86 CI tests it too.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
fn tag_matches_portable(tags: &[u64], tag: u64) -> u64 {
    const GROUP: usize = 8;
    let (groups, rest) = tags.as_chunks::<GROUP>();
    let mut matches = 0u64;
    for (g, group) in groups.iter().enumerate() {
        let mut bits = 0u64;
        for (w, &t) in group.iter().enumerate() {
            bits |= u64::from(t == tag) << w;
        }
        matches |= bits << (g * GROUP);
    }
    let base = tags.len() - rest.len();
    for (w, &t) in rest.iter().enumerate() {
        matches |= u64::from(t == tag) << (base + w);
    }
    matches
}

/// The shared last-level cache.
///
/// Line metadata is stored structure-of-arrays: one contiguous `u64` tag array indexed by
/// `set * ways + way`, plus one packed valid bitmask and one packed dirty bitmask per set
/// and a compact `u32` owner array. A lookup therefore scans a single cache-line-sized
/// slice of tags with the branch-free match mask of [`tag_matches`] instead of striding
/// over 32-byte line structs, and set/tag extraction uses shifts precomputed from the
/// power-of-two geometry. Generic over the replacement policy: the experiment drivers
/// instantiate it with the `experiments::policies::AnyPolicy` dispatch enum, so
/// per-access policy callbacks compile to direct calls.
pub struct SharedLlc<P: LlcReplacementPolicy> {
    config: LlcConfig,
    num_sets: usize,
    ways: usize,
    /// Block-address bits selecting the set (`num_sets - 1`).
    set_mask: u64,
    /// Shift dropping the set-index bits from a block address (`log2(num_sets)`).
    set_shift: u32,
    /// True when the bank count is a power of two (mask instead of modulo in `bank_of`).
    banks_pow2: bool,
    /// Line tags, `num_sets * ways`, contiguous per set.
    tags: Vec<u64>,
    /// Per-set valid bitmask (bit `w` = way `w` holds a line).
    valid: Vec<u64>,
    /// Per-set dirty bitmask.
    dirty: Vec<u64>,
    /// Inserting core per line, `num_sets * ways`.
    owners: Vec<u32>,
    policy: P,
    banks: BankModel,
    mshr: OccupancyWindow,
    wb_buffer: OccupancyWindow,
    per_core: Vec<LlcCoreStats>,
    global: LlcGlobalStats,
    /// NUCA wire delay per `(core, bank)` pair, `core * banks + bank`; empty when the
    /// mesh model is disabled (the flat default adds exactly zero cycles).
    nuca: Vec<u64>,
    /// MSHR stall cycles attributed per requesting core.
    mshr_core_stalls: Vec<u64>,
    interval_misses: u64,
    misses_in_interval: u64,
}

impl<P: LlcReplacementPolicy> SharedLlc<P> {
    pub fn new(config: LlcConfig, num_cores: usize, interval_misses: u64, policy: P) -> Self {
        let num_sets = config.geometry.num_sets();
        let ways = config.geometry.ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "associativity must be in 1..={MAX_WAYS}"
        );
        assert!(config.banks > 0, "need at least one bank");
        let nuca = if config.nuca.is_disabled() {
            Vec::new()
        } else {
            let mut table = Vec::with_capacity(num_cores * config.banks);
            for core in 0..num_cores {
                for bank in 0..config.banks {
                    table.push(
                        config.nuca.hop_cycles
                            * crate::config::mesh_hops(core, num_cores, bank, config.banks),
                    );
                }
            }
            table
        };
        SharedLlc {
            num_sets,
            ways,
            set_mask: num_sets as u64 - 1,
            set_shift: num_sets.trailing_zeros(),
            banks_pow2: config.banks.is_power_of_two(),
            tags: vec![0; num_sets * ways],
            valid: vec![0; num_sets],
            dirty: vec![0; num_sets],
            owners: vec![0; num_sets * ways],
            policy,
            banks: BankModel::new(
                config.banks,
                config.bank_busy_cycles,
                config.contention,
                None,
            ),
            mshr: OccupancyWindow::new(config.mshr_entries),
            wb_buffer: OccupancyWindow::new(config.wb_entries),
            per_core: vec![LlcCoreStats::default(); num_cores],
            global: LlcGlobalStats::default(),
            nuca,
            mshr_core_stalls: vec![0; num_cores],
            interval_misses,
            misses_in_interval: 0,
            config,
        }
    }

    /// Geometry helpers.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }
    pub fn ways(&self) -> usize {
        self.ways
    }
    pub fn hit_latency(&self) -> u64 {
        self.config.latency
    }

    /// Split a block address into (set, tag) with the precomputed shifts.
    #[inline]
    fn decompose(&self, block: BlockAddr) -> (usize, u64) {
        (
            (block.0 & self.set_mask) as usize,
            block.0 >> self.set_shift,
        )
    }

    /// Build the policy context for a demand access whose set index is already known.
    /// Prefetch accesses and write-backs call no policy hook, so they never build one.
    #[inline]
    fn ctx_at(&self, core_id: usize, pc: u64, block: BlockAddr, set: usize) -> AccessContext {
        AccessContext {
            core_id,
            pc,
            block_addr: block.0,
            set_index: set,
        }
    }

    /// Bank of a set. Power-of-two bank counts (every shipped configuration) use a mask;
    /// other counts fall back to a modulo so sets still spread uniformly over all banks —
    /// the seed's unconditional `set & (banks - 1)` skipped banks entirely for counts
    /// like 3 or 6.
    #[inline]
    fn bank_of(&self, set: usize) -> usize {
        let bank = if self.banks_pow2 {
            set & (self.config.banks - 1)
        } else {
            set % self.config.banks
        };
        debug_assert!(bank < self.config.banks);
        bank
    }

    /// Charge bank occupancy for an access from `core_id` arriving at `now`; returns
    /// the queuing delay (port wait plus any admission stall from a full bank queue)
    /// plus the NUCA wire delay between the core's tile and the bank's tile. Queue
    /// and admission cycles are attributed to `core_id`; NUCA cycles are pure wire
    /// latency and never enter the bank's queue accounting (the flat default table is
    /// empty, keeping this function bit-identical to the seed's arithmetic).
    fn bank_delay(&mut self, core_id: usize, set: usize, now: u64) -> u64 {
        let bank = self.bank_of(set);
        let req = self.banks.request(bank, now, core_id);
        self.global.bank_queue_cycles += req.delay - req.admission_stall;
        self.global.bank_admission_stall_cycles += req.admission_stall;
        let nuca = if self.nuca.is_empty() {
            0
        } else {
            self.nuca[core_id * self.config.banks + bank]
        };
        self.global.nuca_cycles += nuca;
        req.delay + nuca
    }

    /// Way lookup over the set's contiguous tag slice (lowest valid match wins, like
    /// the original per-way scan). No way-prediction hint: at the LLC it confirmed too
    /// few probes to pay for itself.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let matches = tag_matches(&self.tags[base..base + self.ways], tag) & self.valid[set];
        (matches != 0).then(|| matches.trailing_zeros() as usize)
    }

    /// Demand or prefetch lookup.
    pub fn access(
        &mut self,
        core_id: usize,
        pc: u64,
        block: BlockAddr,
        demand: bool,
        is_write: bool,
        now: u64,
    ) -> LlcLookup {
        let (set, tag) = self.decompose(block);
        if !demand {
            // Prefetch path: no policy involvement at all, so no context is built.
            self.per_core[core_id].prefetch_accesses += 1;
            let delay = self.bank_delay(core_id, set, now);
            let latency = self.config.latency + delay;
            return match self.find_way(set, tag) {
                Some(way) => {
                    self.per_core[core_id].prefetch_hits += 1;
                    if is_write {
                        self.dirty[set] |= 1 << way;
                    }
                    LlcLookup { hit: true, latency }
                }
                None => LlcLookup {
                    hit: false,
                    latency,
                },
            };
        }

        self.per_core[core_id].demand_accesses += 1;
        let ctx = self.ctx_at(core_id, pc, block, set);
        self.policy.on_access(&ctx);

        let delay = self.bank_delay(core_id, set, now);
        let latency = self.config.latency + delay;

        match self.find_way(set, tag) {
            Some(way) => {
                self.per_core[core_id].demand_hits += 1;
                self.policy.on_hit(&ctx, way);
                if is_write {
                    self.dirty[set] |= 1 << way;
                }
                LlcLookup { hit: true, latency }
            }
            None => {
                self.per_core[core_id].demand_misses += 1;
                self.global.total_demand_misses += 1;
                self.misses_in_interval += 1;
                // The very first interval fires at a quarter of the configured length so
                // interval-based policies (ADAPT) leave their cold-start default
                // quickly; subsequent intervals use the full length. At the paper's
                // 300M-instruction scale this is indistinguishable from a fixed
                // interval, at reduced scale it keeps warm-up from dominating the run.
                let threshold = if self.global.intervals_completed == 0 {
                    (self.interval_misses / 4).max(1)
                } else {
                    self.interval_misses
                };
                if self.misses_in_interval >= threshold {
                    self.misses_in_interval = 0;
                    self.global.intervals_completed += 1;
                    self.policy.on_interval();
                }
                LlcLookup {
                    hit: false,
                    latency,
                }
            }
        }
    }

    /// Reserve an MSHR entry for a miss from `core_id` issued at `now` whose fill
    /// completes after `fill_latency` cycles. Returns the extra stall if the MSHRs
    /// were full; the stall is attributed to `core_id`.
    pub fn reserve_mshr(&mut self, core_id: usize, now: u64, fill_latency: u64) -> u64 {
        let (extra, _) = self.mshr.reserve(now, fill_latency);
        self.charge_mshr_stall(core_id, extra)
    }

    /// Back-pressure form of MSHR allocation: wait for a free entry at `now` (returning
    /// the stall) **without** occupying it, so the caller can delay the downstream DRAM
    /// issue by the stall and then record the true completion via
    /// [`SharedLlc::complete_mshr`]. Used when the LLC's
    /// [`crate::config::BankContentionConfig`] is not flat. The stall is attributed to
    /// `core_id`.
    pub fn begin_mshr(&mut self, core_id: usize, now: u64) -> u64 {
        let extra = self.mshr.acquire(now);
        self.charge_mshr_stall(core_id, extra)
    }

    /// Account an MSHR stall of `extra` cycles to `core_id` and return it.
    fn charge_mshr_stall(&mut self, core_id: usize, extra: u64) -> u64 {
        self.global.mshr_stall_cycles += extra;
        self.mshr_core_stalls[core_id] += extra;
        if extra > 0 {
            self.global.mshr_full_events += 1;
        }
        extra
    }

    /// Occupy the MSHR entry acquired by [`SharedLlc::begin_mshr`] until `completion`.
    pub fn complete_mshr(&mut self, completion: u64) {
        self.mshr.insert(completion);
    }

    /// Fill a demand miss: the block must be absent (it has just missed here, and every
    /// caller fills right after that miss). The policy decides between allocation
    /// (possibly evicting) and bypassing; a bypass calls no further hook. Returns what
    /// happened so the caller can issue any required write-back.
    pub fn fill(
        &mut self,
        core_id: usize,
        pc: u64,
        block: BlockAddr,
        is_write: bool,
        now: u64,
    ) -> LlcFill {
        let (set, tag) = self.decompose(block);
        let ctx = self.ctx_at(core_id, pc, block, set);
        debug_assert!(
            self.find_way(set, tag).is_none(),
            "fill of a present block {block:?}"
        );

        let decision = self.policy.insertion_decision(&ctx);
        if decision.is_bypass() {
            self.per_core[core_id].bypassed_fills += 1;
            return LlcFill {
                bypassed: true,
                evicted: None,
            };
        }

        let base = set * self.ways;
        let invalid = !self.valid[set] & way_mask(self.ways);
        let (way, evicted) = if invalid != 0 {
            // Lowest invalid way, matching the original first-invalid scan.
            (invalid.trailing_zeros() as usize, None)
        } else {
            // Every policy keeps its own per-way state, so none is handed the set's lines.
            let w = self.policy.choose_victim(&ctx, &[]);
            assert!(w < self.ways, "policy returned out-of-range victim way {w}");
            let victim_owner = self.owners[base + w] as usize;
            let victim_dirty = (self.dirty[set] >> w) & 1 == 1;
            let victim_block = BlockAddr((self.tags[base + w] << self.set_shift) | set as u64);
            self.policy.on_evict(&ctx, victim_block.0, victim_owner);
            self.per_core[victim_owner].lines_evicted += 1;
            if victim_dirty {
                self.global.dirty_evictions += 1;
                let (stall, _) = self.wb_buffer.reserve(now, self.config.latency);
                self.global.wb_stall_cycles += stall;
            }
            (
                w,
                Some(LlcEvicted {
                    block: victim_block,
                    dirty: victim_dirty,
                    owner: victim_owner,
                }),
            )
        };

        self.tags[base + way] = tag;
        self.owners[base + way] = core_id as u32;
        self.valid[set] |= 1 << way;
        if is_write {
            self.dirty[set] |= 1 << way;
        } else {
            self.dirty[set] &= !(1 << way);
        }
        self.policy.on_fill(&ctx, way, &decision);
        LlcFill {
            bypassed: false,
            evicted,
        }
    }

    /// A write-back arriving from a private L2: update the line if present, otherwise the
    /// caller forwards it to memory. Returns true if the LLC absorbed it.
    pub fn writeback(&mut self, core_id: usize, block: BlockAddr, now: u64) -> bool {
        let (set, tag) = self.decompose(block);
        self.per_core[core_id].writebacks_in += 1;
        let _ = self.bank_delay(core_id, set, now);
        if let Some(way) = self.find_way(set, tag) {
            self.dirty[set] |= 1 << way;
            true
        } else {
            false
        }
    }

    /// Per-core statistics.
    pub fn core_stats(&self, core_id: usize) -> &LlcCoreStats {
        &self.per_core[core_id]
    }

    /// All per-core statistics.
    pub fn all_core_stats(&self) -> &[LlcCoreStats] {
        &self.per_core
    }

    /// Whole-cache statistics.
    pub fn global_stats(&self) -> &LlcGlobalStats {
        &self.global
    }

    /// Per-bank occupancy/stall statistics, indexed by bank.
    pub fn bank_stats(&self) -> &[BankStats] {
        self.banks.stats()
    }

    /// Name of the installed replacement policy.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// The installed replacement policy, for reading its state after a run.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Occupancy (valid lines) per core — used to inspect cache sharing behaviour in tests
    /// and experiments.
    pub fn occupancy_by_core(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.per_core.len()];
        for set in 0..self.num_sets {
            let mut mask = self.valid[set];
            while mask != 0 {
                let w = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                occ[self.owners[set * self.ways + w] as usize] += 1;
            }
        }
        occ
    }

    /// Total number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Bank queue/admission stall cycles attributed per requesting core. Summing the
    /// vector reproduces [`LlcGlobalStats::bank_queue_cycles`] and
    /// [`LlcGlobalStats::bank_admission_stall_cycles`] exactly.
    pub fn bank_core_stalls(&self) -> &[crate::bank::CoreBankStalls] {
        self.banks.core_stalls()
    }

    /// MSHR stall cycles attributed per requesting core. Sums to
    /// [`LlcGlobalStats::mshr_stall_cycles`].
    pub fn mshr_core_stalls(&self) -> &[u64] {
        &self.mshr_core_stalls
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use crate::replacement::{InsertionDecision, LineView, RrpvArray};

    /// Minimal SRRIP policy used only by the crate's unit tests (the real baselines live
    /// in the `llc-policies` crate, which depends on this one).
    pub(crate) struct TestSrrip {
        rrpv: RrpvArray,
    }

    impl TestSrrip {
        pub(crate) fn new(sets: usize, ways: usize) -> Self {
            TestSrrip {
                rrpv: RrpvArray::new(sets, ways),
            }
        }
    }

    impl LlcReplacementPolicy for TestSrrip {
        fn name(&self) -> String {
            "test-srrip".into()
        }
        fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
            self.rrpv.promote(ctx.set_index, way);
        }
        fn insertion_decision(&mut self, _ctx: &AccessContext) -> InsertionDecision {
            InsertionDecision::insert(2)
        }
        fn choose_victim(&mut self, ctx: &AccessContext, _lines: &[LineView]) -> usize {
            self.rrpv.find_victim(ctx.set_index)
        }
        fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
            if let InsertionDecision::Insert { rrpv } = decision {
                self.rrpv.set(ctx.set_index, way, *rrpv);
            }
        }
    }

    struct AlwaysBypass;
    impl LlcReplacementPolicy for AlwaysBypass {
        fn name(&self) -> String {
            "bypass".into()
        }
        fn on_hit(&mut self, _ctx: &AccessContext, _way: usize) {}
        fn insertion_decision(&mut self, _ctx: &AccessContext) -> InsertionDecision {
            InsertionDecision::Bypass
        }
        fn choose_victim(&mut self, _ctx: &AccessContext, _lines: &[LineView]) -> usize {
            0
        }
        fn on_fill(&mut self, _ctx: &AccessContext, _way: usize, _d: &InsertionDecision) {}
    }

    fn llc_config() -> LlcConfig {
        LlcConfig {
            geometry: CacheGeometry::new(64 * 1024, 16), // 64 sets x 16 ways
            latency: 24,
            banks: 4,
            bank_busy_cycles: 4,
            mshr_entries: 8,
            wb_entries: 8,
            contention: crate::config::BankContentionConfig::flat(),
            nuca: crate::config::NucaConfig::disabled(),
        }
    }

    fn make_llc() -> SharedLlc<TestSrrip> {
        let cfg = llc_config();
        let sets = cfg.geometry.num_sets();
        let ways = cfg.geometry.ways;
        SharedLlc::new(cfg, 2, 100, TestSrrip::new(sets, ways))
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let mut llc = make_llc();
        let b = BlockAddr(0x42);
        let l1 = llc.access(0, 0, b, true, false, 0);
        assert!(!l1.hit);
        llc.fill(0, 0, b, false, 0);
        let l2 = llc.access(0, 0, b, true, false, 1000);
        assert!(l2.hit);
        assert_eq!(llc.core_stats(0).demand_hits, 1);
        assert_eq!(llc.core_stats(0).demand_misses, 1);
    }

    #[test]
    fn hit_latency_includes_bank_conflict_delay() {
        let mut llc = make_llc();
        let b = BlockAddr(0x42);
        llc.access(0, 0, b, true, false, 0);
        llc.fill(0, 0, b, false, 0);
        // Two back-to-back accesses to the same set/bank at the same cycle: the second one
        // queues behind the first's bank busy window.
        let first = llc.access(0, 0, b, true, false, 2000);
        let second = llc.access(1, 0, b, true, false, 2000);
        assert_eq!(first.latency, 24);
        assert_eq!(second.latency, 24 + 4);
    }

    #[test]
    fn eviction_reports_owner_and_dirty_state() {
        let mut llc = make_llc();
        let sets = llc.num_sets() as u64;
        // Fill one set completely with core 0's dirty lines.
        for i in 0..16u64 {
            let b = BlockAddr(i * sets);
            llc.access(0, 0, b, true, true, 0);
            llc.fill(0, 0, b, true, 0);
        }
        // One more block in the same set from core 1 forces an eviction of core 0's line.
        let extra = BlockAddr(16 * sets);
        llc.access(1, 0, extra, true, false, 0);
        let fill = llc.fill(1, 0, extra, false, 0);
        let evicted = fill.evicted.expect("set was full");
        assert_eq!(evicted.owner, 0);
        assert!(evicted.dirty);
        assert_eq!(llc.core_stats(0).lines_evicted, 1);
        assert_eq!(llc.global_stats().dirty_evictions, 1);
    }

    #[test]
    fn bypass_policy_never_allocates() {
        let cfg = llc_config();
        let mut llc = SharedLlc::new(cfg, 1, 100, Box::new(AlwaysBypass));
        for i in 0..100u64 {
            let b = BlockAddr(i);
            llc.access(0, 0, b, true, false, 0);
            let f = llc.fill(0, 0, b, false, 0);
            assert!(f.bypassed);
        }
        assert_eq!(llc.occupancy(), 0);
        assert_eq!(llc.core_stats(0).bypassed_fills, 100);
    }

    #[test]
    fn interval_hook_fires_early_once_then_every_n_demand_misses() {
        let mut llc = make_llc();
        // interval_misses = 100 in make_llc: the first interval fires after 25 misses
        // (quarter-length warm-up), subsequent ones every 100 misses.
        for i in 0..250u64 {
            let b = BlockAddr(i * 997);
            let l = llc.access(0, 0, b, true, false, 0);
            if !l.hit {
                llc.fill(0, 0, b, false, 0);
            }
        }
        let misses = llc.global_stats().total_demand_misses;
        let expected = if misses >= 25 {
            1 + (misses - 25) / 100
        } else {
            0
        };
        assert_eq!(llc.global_stats().intervals_completed, expected);
    }

    #[test]
    fn prefetch_accesses_do_not_count_as_demand() {
        let mut llc = make_llc();
        let b = BlockAddr(5);
        llc.access(0, 0, b, false, false, 0);
        assert_eq!(llc.core_stats(0).prefetch_accesses, 1);
        assert_eq!(llc.core_stats(0).demand_accesses, 0);
        assert_eq!(llc.global_stats().total_demand_misses, 0);
    }

    /// [`TestSrrip`] that counts every hook the LLC calls.
    struct CountingPolicy {
        inner: TestSrrip,
        calls: u64,
    }

    impl LlcReplacementPolicy for CountingPolicy {
        fn name(&self) -> String {
            "counting".into()
        }
        fn on_access(&mut self, _ctx: &AccessContext) {
            self.calls += 1;
        }
        fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
            self.calls += 1;
            self.inner.on_hit(ctx, way);
        }
        fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
            self.calls += 1;
            self.inner.insertion_decision(ctx)
        }
        fn choose_victim(&mut self, ctx: &AccessContext, lines: &[LineView]) -> usize {
            self.calls += 1;
            self.inner.choose_victim(ctx, lines)
        }
        fn on_evict(&mut self, _ctx: &AccessContext, _evicted_block: u64, _owner: usize) {
            self.calls += 1;
        }
        fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
            self.calls += 1;
            self.inner.on_fill(ctx, way, decision);
        }
        fn on_interval(&mut self) {
            self.calls += 1;
        }
    }

    #[test]
    fn a_prefetch_access_and_a_write_back_call_no_policy_hook() {
        let cfg = llc_config();
        let (sets, ways) = (cfg.geometry.num_sets(), cfg.geometry.ways);
        let inner = TestSrrip::new(sets, ways);
        let mut llc = SharedLlc::new(cfg, 1, 1, CountingPolicy { inner, calls: 0 });
        let present = BlockAddr(3);
        llc.access(0, 0, present, true, false, 0);
        llc.fill(0, 0, present, false, 0);
        // A demand miss and its fill: on_access, on_interval (one miss ends an interval
        // here), insertion_decision and on_fill.
        assert_eq!(llc.policy().calls, 4);
        for block in [present, BlockAddr(4)] {
            llc.access(0, 0, block, false, false, 10);
            llc.access(0, 0, block, false, true, 20);
            llc.writeback(0, block, 30);
        }
        assert_eq!(
            llc.policy().calls,
            4,
            "prefetches and write-backs reach no hook"
        );
        assert_eq!(llc.core_stats(0).prefetch_hits, 2);
        assert_eq!(llc.core_stats(0).writebacks_in, 2);
    }

    #[test]
    fn writeback_updates_present_line_and_reports_absent_line() {
        let mut llc = make_llc();
        let b = BlockAddr(9);
        llc.access(0, 0, b, true, false, 0);
        llc.fill(0, 0, b, false, 0);
        assert!(llc.writeback(0, b, 10));
        assert!(!llc.writeback(0, BlockAddr(12345), 10));
        assert_eq!(llc.core_stats(0).writebacks_in, 2);
    }

    #[test]
    fn occupancy_by_core_tracks_ownership() {
        let mut llc = make_llc();
        for i in 0..10u64 {
            let b = BlockAddr(i);
            llc.access(0, 0, b, true, false, 0);
            llc.fill(0, 0, b, false, 0);
        }
        for i in 100..105u64 {
            let b = BlockAddr(i);
            llc.access(1, 0, b, true, false, 0);
            llc.fill(1, 0, b, false, 0);
        }
        let occ = llc.occupancy_by_core();
        assert_eq!(occ[0], 10);
        assert_eq!(occ[1], 5);
        assert_eq!(llc.occupancy(), 15);
    }

    /// The kernel against a naive loop at every width, both through whole groups of 8
    /// and the remainder: duplicate tags set every matching bit, and once invalid ways
    /// are masked off the lowest valid match is the one a scan would find first.
    #[test]
    fn tag_matches_equals_a_naive_loop_at_every_width() {
        for ways in 1..=MAX_WAYS {
            for seed in 0..8u64 {
                // Tags drawn from a small alphabet, so duplicates are common.
                let tags: Vec<u64> = (0..ways as u64).map(|w| (w * 7 + seed * 13) % 5).collect();
                let valid = way_mask(ways) & (u64::MAX / 3).rotate_left(seed as u32);
                for tag in 0..6 {
                    let naive = tags
                        .iter()
                        .enumerate()
                        .filter(|&(_, &t)| t == tag)
                        .fold(0u64, |m, (w, _)| m | 1 << w);
                    assert_eq!(tag_matches(&tags, tag), naive, "{ways} ways, tag {tag}");
                    let first_valid = (0..ways).find(|&w| tags[w] == tag && valid >> w & 1 == 1);
                    let masked = tag_matches(&tags, tag) & valid;
                    let lowest = (masked != 0).then(|| masked.trailing_zeros() as usize);
                    assert_eq!(lowest, first_valid, "{ways} ways, tag {tag}");
                }
            }
        }
    }

    /// The target's body of [`tag_matches`] (SSE2 on `x86_64`) equals the portable body,
    /// which x86 builds would otherwise never run: every width from 1 to 64 ways, odd ones
    /// included, with stale copies of the tag left in ways the valid mask drops.
    #[test]
    fn tag_match_bodies_agree_at_every_width() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for ways in 1..=MAX_WAYS {
            for round in 0..64 {
                // Random 64-bit tags, then copies of the needle in about a quarter of the
                // ways; only one of them counts as valid below.
                let mut tags = Vec::with_capacity(ways);
                for _ in 0..ways {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    tags.push(x);
                }
                let tag = tags[round % ways] | (round as u64) << 60;
                for (w, t) in tags.iter_mut().enumerate() {
                    if (x >> w) & 3 == 0 || w == round % ways {
                        *t = tag;
                    }
                }
                // A near miss in one half only: equal low or equal high 32 bits.
                if ways > 1 {
                    tags[(round + 1) % ways] = tag ^ (1 << (round % 64));
                }
                let got = tag_matches(&tags, tag);
                assert_eq!(got, tag_matches_portable(&tags, tag), "{ways} ways");
                let live = way_mask(ways) & x.rotate_left(round as u32);
                let first = (0..ways).find(|&w| tags[w] == tag && live >> w & 1 == 1);
                let masked = got & live;
                let lowest = (masked != 0).then(|| masked.trailing_zeros() as usize);
                assert_eq!(lowest, first, "{ways} ways, round {round}");
            }
        }
    }

    /// `fill` requires an absent block: every caller fills what has just missed.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fill of a present block")]
    fn fill_of_a_present_block_panics() {
        let mut llc = make_llc();
        let b = BlockAddr(77);
        llc.access(0, 0, b, true, false, 0);
        llc.fill(0, 0, b, false, 0);
        llc.fill(0, 0, b, false, 0);
    }

    #[test]
    fn contended_banks_absorb_parallelism_and_bound_queues() {
        // Two ports: two same-cycle accesses to one bank both see the bare hit latency;
        // the flat model would queue the second one.
        let mut cfg = llc_config();
        cfg.contention = crate::config::BankContentionConfig::contended(2, 4);
        let sets = cfg.geometry.num_sets();
        let ways = cfg.geometry.ways;
        let mut llc = SharedLlc::new(cfg, 2, 100, TestSrrip::new(sets, ways));
        let b = BlockAddr(0x42);
        llc.access(0, 0, b, true, false, 0);
        llc.fill(0, 0, b, false, 0);
        let first = llc.access(0, 0, b, true, false, 2000);
        let second = llc.access(1, 0, b, true, false, 2000);
        assert_eq!(first.latency, 24);
        assert_eq!(
            second.latency, 24,
            "second port absorbs the concurrent access"
        );
        // A burst deeper than ports + queue depth triggers admission stalls.
        for _ in 0..10 {
            llc.access(0, 0, b, true, false, 3000);
        }
        assert!(llc.global_stats().bank_admission_stall_cycles > 0);
        let bank = b.set_index(llc.num_sets()) & 3;
        assert!(llc.bank_stats()[bank].stall_share() > 0.0);
    }

    #[test]
    fn flat_contention_never_stalls_admission() {
        let mut llc = make_llc();
        let b = BlockAddr(0x42);
        for _ in 0..100 {
            llc.access(0, 0, b, true, false, 0);
        }
        assert_eq!(llc.global_stats().bank_admission_stall_cycles, 0);
        assert!(llc.global_stats().bank_queue_cycles > 0);
        let total_requests: u64 = llc.bank_stats().iter().map(|s| s.requests).sum();
        assert_eq!(total_requests, 100);
    }

    #[test]
    fn backpressure_mshr_accounts_like_reserve() {
        let mut llc = make_llc();
        let mut two_phase = make_llc();
        for now in [0u64, 0, 0, 0, 0, 0, 0, 0, 5, 10] {
            let a = llc.reserve_mshr(0, now, 1000);
            let b = two_phase.begin_mshr(0, now);
            two_phase.complete_mshr(now + b + 1000);
            assert_eq!(a, b);
        }
        assert_eq!(
            llc.global_stats().mshr_stall_cycles,
            two_phase.global_stats().mshr_stall_cycles
        );
        assert_eq!(
            llc.global_stats().mshr_full_events,
            two_phase.global_stats().mshr_full_events
        );
    }

    #[test]
    fn non_pow2_bank_counts_map_all_banks_uniformly() {
        // The seed's `set & (banks - 1)` skipped banks entirely for non-power-of-two
        // counts (banks = 3 would never touch bank 1); the modulo fallback must spread
        // sets across every bank, off by at most one request.
        let mut cfg = llc_config();
        cfg.banks = 3;
        let sets = cfg.geometry.num_sets();
        let ways = cfg.geometry.ways;
        let mut llc = SharedLlc::new(cfg, 1, 100, TestSrrip::new(sets, ways));
        for s in 0..sets as u64 {
            llc.access(0, 0, BlockAddr(s), true, false, 0);
        }
        let per_bank: Vec<u64> = llc.bank_stats().iter().map(|b| b.requests).collect();
        assert_eq!(per_bank.len(), 3);
        assert_eq!(per_bank.iter().sum::<u64>(), sets as u64);
        assert!(per_bank.iter().all(|&r| r > 0), "a bank saw no requests");
        let max = per_bank.iter().max().unwrap();
        let min = per_bank.iter().min().unwrap();
        assert!(max - min <= 1, "non-uniform bank mapping: {per_bank:?}");
    }

    #[test]
    fn mshr_pressure_adds_stall() {
        let mut llc = make_llc();
        let mut total_extra = 0;
        for _ in 0..10 {
            total_extra += llc.reserve_mshr(0, 0, 1000);
        }
        assert!(
            total_extra > 0,
            "9th/10th reservations should stall on an 8-entry MSHR"
        );
        assert!(llc.global_stats().mshr_full_events > 0);
        // All of it was charged to core 0, none elsewhere.
        assert_eq!(llc.mshr_core_stalls()[0], total_extra);
        assert_eq!(llc.mshr_core_stalls()[1], 0);
        assert_eq!(
            llc.mshr_core_stalls().iter().sum::<u64>(),
            llc.global_stats().mshr_stall_cycles
        );
    }

    #[test]
    fn ninety_six_banks_map_uniformly_and_account_peak_waiting() {
        // Regression for non-power-of-two bank counts >= 96: the modulo fallback must
        // spread sets over all 96 banks, and `peak_waiting` must reflect the true
        // instantaneous queue population on whichever bank the burst lands on.
        let mut cfg = llc_config();
        cfg.banks = 96;
        // 1024 sets so every one of the 96 banks owns 10 or 11 sets (the default
        // 64-set test geometry would leave banks 64..95 without any sets at all).
        cfg.geometry = CacheGeometry::new(1024 * 1024, 16);
        let sets = cfg.geometry.num_sets();
        let ways = cfg.geometry.ways;
        let mut llc = SharedLlc::new(cfg, 1, 100, TestSrrip::new(sets, ways));
        for pass in 0..3u64 {
            for s in 0..sets as u64 {
                llc.access(0, 0, BlockAddr(s), true, false, pass * 100_000);
            }
        }
        let per_bank: Vec<u64> = llc.bank_stats().iter().map(|b| b.requests).collect();
        assert_eq!(per_bank.len(), 96);
        assert_eq!(per_bank.iter().sum::<u64>(), 3 * sets as u64);
        let max = per_bank.iter().max().unwrap();
        let min = per_bank.iter().min().unwrap();
        assert!(*min > 0, "a bank saw no requests: {per_bank:?}");
        assert!(max - min <= 3, "non-uniform 96-bank mapping: {per_bank:?}");

        // Direct peak accounting at 96 banks: k same-cycle requests to one bank leave
        // k-1 of them simultaneously waiting.
        let flat = crate::config::BankContentionConfig::flat();
        let mut m = BankModel::new(96, 10, flat, None);
        for _ in 0..7 {
            m.request(95, 0, 0);
        }
        assert_eq!(m.stats()[95].peak_waiting, 6);
        assert!(m.stats()[..95].iter().all(|s| s.peak_waiting == 0));
    }

    #[test]
    fn nuca_adds_distance_dependent_latency_without_touching_queues() {
        let mut cfg = llc_config();
        cfg.nuca = crate::config::NucaConfig::mesh(3);
        let sets = cfg.geometry.num_sets();
        let ways = cfg.geometry.ways;
        let cores = 16;
        let mut llc = SharedLlc::new(cfg, cores, 100, TestSrrip::new(sets, ways));
        let mut flat = make_llc();
        // Single isolated access per (core, set): latency differs from the flat model
        // by exactly hop_cycles * mesh_hops, and bank queue accounting is untouched.
        let mut any_distance = false;
        for core in 0..2 {
            for set in 0..4u64 {
                let now = 1_000_000 * (core as u64 * 4 + set + 1);
                let block = BlockAddr(set);
                let got = llc.access(core, 0, block, true, false, now);
                let base = flat.access(core.min(1), 0, block, true, false, now);
                let hops = crate::config::mesh_hops(core, cores, set as usize & 3, 4);
                assert_eq!(got.latency, base.latency + 3 * hops);
                any_distance |= hops > 0;
            }
        }
        assert!(any_distance, "test must cover a nonzero-distance pair");
        assert_eq!(llc.global_stats().bank_queue_cycles, 0);
        assert!(llc.global_stats().nuca_cycles > 0);
    }
}
