//! Frozen reference implementations of the simulator hot path.
//!
//! The production [`crate::llc::SharedLlc`] and [`crate::private_cache::PrivateCache`]
//! use a data-oriented structure-of-arrays line layout (contiguous per-set tag arrays,
//! packed valid/dirty bitmasks), precomputed set/tag shifts, lazily-built
//! [`AccessContext`]s and (through [`crate::replacement::LlcReplacementPolicy`] generics)
//! monomorphized policy dispatch. This module retains the pre-refactor array-of-structs
//! implementations **unchanged in behaviour** so that the property tests and end-to-end
//! tests (`tests/reference_identity.rs`) can assert the fast path is bit-identical to the
//! original simulator (same hits, latencies, evictions, per-core and per-bank
//! statistics, interval counts).
//!
//! Do not optimize this module: it is the oracle the optimized path is compared against.
//! The only intentional deviation from the seed code is `ReferenceLlc::bank_of`, which
//! uses a modulo instead of the seed's `set & (banks - 1)` mask so that non-power-of-two
//! bank counts map sets uniformly (the two are identical for the power-of-two bank
//! counts every shipped configuration uses; the mask was a latent bug for anything else).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::addr::BlockAddr;
use crate::bank::{BankModel, BankStats};
use crate::config::{LlcConfig, PrivateCacheConfig, PrivatePolicyKind, SystemConfig};
use crate::core_model::CoreModel;
use crate::dram::Dram;
use crate::llc::{LlcCoreStats, LlcEvicted, LlcFill, LlcGlobalStats, LlcLookup, LlcModel};
use crate::mshr::OccupancyWindow;
use crate::prefetch::NextLinePrefetcher;
use crate::private_cache::{EvictedLine, Lookup, PrivateCacheModel, PrivateCacheStats};
use crate::replacement::{AccessContext, LineView, LlcReplacementPolicy, RrpvArray, RRPV_MAX};
use crate::stats::{CoreStats, SystemResults};
use crate::trace::TraceSource;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    dirty: bool,
    owner: usize,
}

/// The pre-refactor array-of-structs shared LLC (dynamic policy dispatch, eager
/// [`AccessContext`] construction, per-way struct scan in `find_way`).
pub struct ReferenceLlc {
    config: LlcConfig,
    num_sets: usize,
    ways: usize,
    lines: Vec<Line>,
    policy: Box<dyn LlcReplacementPolicy>,
    banks: BankModel,
    mshr: OccupancyWindow,
    wb_buffer: OccupancyWindow,
    per_core: Vec<LlcCoreStats>,
    global: LlcGlobalStats,
    /// NUCA wire delay per `(core, bank)`; empty when the mesh model is disabled.
    nuca: Vec<u64>,
    /// MSHR stall cycles attributed per requesting core.
    mshr_core_stalls: Vec<u64>,
    interval_misses: u64,
    misses_in_interval: u64,
}

impl ReferenceLlc {
    /// Build the reference LLC exactly like the seed `SharedLlc::new` did.
    pub fn new(
        config: LlcConfig,
        num_cores: usize,
        interval_misses: u64,
        policy: Box<dyn LlcReplacementPolicy>,
    ) -> Self {
        let num_sets = config.geometry.num_sets();
        let ways = config.geometry.ways;
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
        ReferenceLlc {
            num_sets,
            ways,
            lines: vec![Line::default(); num_sets * ways],
            policy,
            banks: BankModel::new(config.banks, config.contention),
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

    fn ctx(
        &self,
        core_id: usize,
        pc: u64,
        block: BlockAddr,
        is_demand: bool,
        is_write: bool,
    ) -> AccessContext {
        AccessContext {
            core_id,
            pc,
            block_addr: block.0,
            set_index: block.set_index(self.num_sets),
            is_demand,
            is_write,
        }
    }

    fn bank_of(&self, set: usize) -> usize {
        set % self.config.banks
    }

    fn bank_delay(&mut self, core_id: usize, set: usize, now: u64) -> u64 {
        let bank = self.bank_of(set);
        let before = self.banks.stats()[bank].admission_stall_cycles;
        let req = self
            .banks
            .request_from(bank, now, self.config.bank_busy_cycles, core_id);
        let admission = self.banks.stats()[bank].admission_stall_cycles - before;
        self.global.bank_queue_cycles += req.delay - admission;
        self.global.bank_admission_stall_cycles += admission;
        let nuca = if self.nuca.is_empty() {
            0
        } else {
            self.nuca[core_id * self.config.banks + bank]
        };
        self.global.nuca_cycles += nuca;
        req.delay + nuca
    }

    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        (0..self.ways).find(|&w| {
            let l = &self.lines[base + w];
            l.valid && l.tag == tag
        })
    }

    fn access_impl(
        &mut self,
        core_id: usize,
        pc: u64,
        block: BlockAddr,
        is_demand: bool,
        is_write: bool,
        now: u64,
    ) -> LlcLookup {
        let set = block.set_index(self.num_sets);
        let tag = block.tag(self.num_sets);
        let ctx = self.ctx(core_id, pc, block, is_demand, is_write);
        let stats = &mut self.per_core[core_id];
        if is_demand {
            stats.demand_accesses += 1;
        } else {
            stats.prefetch_accesses += 1;
        }

        if is_demand {
            self.policy.on_access(&ctx);
        }

        let delay = self.bank_delay(core_id, set, now);
        let latency = self.config.latency + delay;

        match self.find_way(set, tag) {
            Some(way) => {
                let stats = &mut self.per_core[core_id];
                if is_demand {
                    stats.demand_hits += 1;
                    self.policy.on_hit(&ctx, way);
                } else {
                    stats.prefetch_hits += 1;
                }
                if is_write {
                    self.lines[set * self.ways + way].dirty = true;
                }
                LlcLookup { hit: true, latency }
            }
            None => {
                if is_demand {
                    let stats = &mut self.per_core[core_id];
                    stats.demand_misses += 1;
                    self.global.total_demand_misses += 1;
                    self.misses_in_interval += 1;
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
                }
                LlcLookup {
                    hit: false,
                    latency,
                }
            }
        }
    }

    fn fill_impl(
        &mut self,
        core_id: usize,
        pc: u64,
        block: BlockAddr,
        is_write: bool,
        now: u64,
    ) -> LlcFill {
        let set = block.set_index(self.num_sets);
        let tag = block.tag(self.num_sets);
        let ctx = self.ctx(core_id, pc, block, true, is_write);

        if self.find_way(set, tag).is_some() {
            return LlcFill {
                bypassed: false,
                evicted: None,
            };
        }

        let decision = self.policy.insertion_decision(&ctx);
        if decision.is_bypass() {
            self.per_core[core_id].bypassed_fills += 1;
            self.policy.on_fill(&ctx, usize::MAX, &decision);
            return LlcFill {
                bypassed: true,
                evicted: None,
            };
        }

        let base = set * self.ways;
        let invalid_way = (0..self.ways).find(|&w| !self.lines[base + w].valid);
        let (way, evicted) = match invalid_way {
            Some(w) => (w, None),
            None => {
                let views: Vec<LineView> = (0..self.ways)
                    .map(|w| {
                        let l = &self.lines[base + w];
                        LineView {
                            valid: l.valid,
                            owner: l.owner,
                            block_addr: (l.tag << self.num_sets.trailing_zeros()) | set as u64,
                            dirty: l.dirty,
                        }
                    })
                    .collect();
                let w = self.policy.choose_victim(&ctx, &views);
                assert!(w < self.ways, "policy returned out-of-range victim way {w}");
                let victim = self.lines[base + w];
                let victim_block =
                    BlockAddr((victim.tag << self.num_sets.trailing_zeros()) | set as u64);
                self.policy.on_evict(&ctx, victim_block.0, victim.owner);
                self.per_core[victim.owner].lines_evicted += 1;
                if victim.dirty {
                    self.global.dirty_evictions += 1;
                    let (stall, _) = self.wb_buffer.reserve(now, self.config.latency);
                    self.global.wb_stall_cycles += stall;
                }
                (
                    w,
                    Some(LlcEvicted {
                        block: victim_block,
                        dirty: victim.dirty,
                        owner: victim.owner,
                    }),
                )
            }
        };

        self.lines[base + way] = Line {
            valid: true,
            tag,
            dirty: is_write,
            owner: core_id,
        };
        self.policy.on_fill(&ctx, way, &decision);
        LlcFill {
            bypassed: false,
            evicted,
        }
    }

    /// Occupancy (valid lines) per core.
    pub fn occupancy_by_core(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.per_core.len()];
        for l in &self.lines {
            if l.valid {
                occ[l.owner] += 1;
            }
        }
        occ
    }

    /// Total number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

impl LlcModel for ReferenceLlc {
    fn access(
        &mut self,
        core_id: usize,
        pc: u64,
        block: BlockAddr,
        is_demand: bool,
        is_write: bool,
        now: u64,
    ) -> LlcLookup {
        self.access_impl(core_id, pc, block, is_demand, is_write, now)
    }

    fn fill(
        &mut self,
        core_id: usize,
        pc: u64,
        block: BlockAddr,
        is_write: bool,
        now: u64,
    ) -> LlcFill {
        self.fill_impl(core_id, pc, block, is_write, now)
    }

    fn writeback(&mut self, core_id: usize, block: BlockAddr, now: u64) -> bool {
        let set = block.set_index(self.num_sets);
        let tag = block.tag(self.num_sets);
        self.per_core[core_id].writebacks_in += 1;
        let _ = self.bank_delay(core_id, set, now);
        if let Some(way) = self.find_way(set, tag) {
            self.lines[set * self.ways + way].dirty = true;
            true
        } else {
            false
        }
    }

    fn reserve_mshr(&mut self, core_id: usize, now: u64, fill_latency: u64) -> u64 {
        let (extra, _) = self.mshr.reserve(now, fill_latency);
        self.global.mshr_stall_cycles += extra;
        self.mshr_core_stalls[core_id] += extra;
        if extra > 0 {
            self.global.mshr_full_events += 1;
        }
        extra
    }

    fn begin_mshr(&mut self, core_id: usize, now: u64) -> u64 {
        let extra = self.mshr.acquire(now);
        self.global.mshr_stall_cycles += extra;
        self.mshr_core_stalls[core_id] += extra;
        if extra > 0 {
            self.global.mshr_full_events += 1;
        }
        extra
    }

    fn complete_mshr(&mut self, completion: u64) {
        self.mshr.insert(completion);
    }

    fn core_stats(&self, core_id: usize) -> &LlcCoreStats {
        &self.per_core[core_id]
    }

    fn global_stats(&self) -> &LlcGlobalStats {
        &self.global
    }

    fn bank_stats(&self) -> &[BankStats] {
        self.banks.stats()
    }

    fn policy_name(&self) -> String {
        self.policy.name()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PrivLine {
    valid: bool,
    tag: u64,
    dirty: bool,
}

#[derive(Debug, Clone)]
struct DuelState {
    psel: u16,
    brip_ctr: u32,
    num_sets: usize,
}

impl DuelState {
    const PSEL_MAX: u16 = 1023;
    const PSEL_THRESHOLD: u16 = 512;
    const LEADER_PERIOD: usize = 32;

    fn new(num_sets: usize) -> Self {
        DuelState {
            psel: Self::PSEL_THRESHOLD,
            brip_ctr: 0,
            num_sets,
        }
    }

    fn leader(&self, set: usize) -> Option<bool> {
        let period = (self.num_sets / Self::LEADER_PERIOD).max(2);
        match set % period {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    fn on_miss(&mut self, set: usize) {
        match self.leader(set) {
            Some(true) => self.psel = (self.psel + 1).min(Self::PSEL_MAX),
            Some(false) => self.psel = self.psel.saturating_sub(1),
            None => {}
        }
    }

    fn insertion_rrpv(&mut self, set: usize) -> u8 {
        let use_srrip = match self.leader(set) {
            Some(true) => true,
            Some(false) => false,
            None => self.psel < Self::PSEL_THRESHOLD,
        };
        if use_srrip {
            RRPV_MAX - 1
        } else {
            self.brip_ctr = self.brip_ctr.wrapping_add(1);
            if self.brip_ctr.is_multiple_of(32) {
                RRPV_MAX - 1
            } else {
                RRPV_MAX
            }
        }
    }
}

/// The pre-refactor array-of-structs private cache level.
#[derive(Debug, Clone)]
pub struct ReferencePrivateCache {
    config: PrivateCacheConfig,
    num_sets: usize,
    ways: usize,
    lines: Vec<PrivLine>,
    stamps: Vec<u64>,
    stamp_clock: u64,
    rrpv: RrpvArray,
    duel: Option<DuelState>,
    stats: PrivateCacheStats,
}

impl ReferencePrivateCache {
    /// Build an empty cache exactly like the seed `PrivateCache::new` did.
    pub fn new(config: PrivateCacheConfig) -> Self {
        let num_sets = config.geometry.num_sets();
        let ways = config.geometry.ways;
        let duel = match config.policy {
            PrivatePolicyKind::Drrip => Some(DuelState::new(num_sets)),
            _ => None,
        };
        ReferencePrivateCache {
            config,
            num_sets,
            ways,
            lines: vec![PrivLine::default(); num_sets * ways],
            stamps: vec![0; num_sets * ways],
            stamp_clock: 0,
            rrpv: RrpvArray::new(num_sets, ways),
            duel,
            stats: PrivateCacheStats::default(),
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        block.set_index(self.num_sets)
    }
}

impl PrivateCacheModel for ReferencePrivateCache {
    fn latency(&self) -> u64 {
        self.config.latency
    }

    fn stats(&self) -> &PrivateCacheStats {
        &self.stats
    }

    fn access(&mut self, block: BlockAddr, is_write: bool) -> Lookup {
        self.stats.accesses += 1;
        let set = self.set_of(block);
        let tag = block.tag(self.num_sets);
        let base = set * self.ways;
        for way in 0..self.ways {
            let idx = base + way;
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                self.stats.hits += 1;
                self.stamp_clock += 1;
                self.stamps[idx] = self.stamp_clock;
                self.rrpv.promote(set, way);
                if is_write {
                    self.lines[idx].dirty = true;
                }
                return Lookup::Hit;
            }
        }
        self.stats.misses += 1;
        if let Some(duel) = &mut self.duel {
            duel.on_miss(set);
        }
        Lookup::Miss
    }

    fn probe(&self, block: BlockAddr) -> bool {
        let set = self.set_of(block);
        let tag = block.tag(self.num_sets);
        let base = set * self.ways;
        (base..base + self.ways).any(|idx| self.lines[idx].valid && self.lines[idx].tag == tag)
    }

    fn fill(&mut self, block: BlockAddr, dirty: bool, prefetch: bool) -> Option<EvictedLine> {
        let set = self.set_of(block);
        let tag = block.tag(self.num_sets);
        let base = set * self.ways;

        for way in 0..self.ways {
            let idx = base + way;
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                if dirty {
                    self.lines[idx].dirty = true;
                }
                return None;
            }
        }

        if prefetch {
            self.stats.prefetch_fills += 1;
        }

        let mut target_way = None;
        for way in 0..self.ways {
            if !self.lines[base + way].valid {
                target_way = Some(way);
                break;
            }
        }
        let (way, evicted) = match target_way {
            Some(way) => (way, None),
            None => {
                let way = match self.config.policy {
                    PrivatePolicyKind::Lru => {
                        let mut victim = 0;
                        let mut oldest = u64::MAX;
                        for w in 0..self.ways {
                            if self.stamps[base + w] < oldest {
                                oldest = self.stamps[base + w];
                                victim = w;
                            }
                        }
                        victim
                    }
                    PrivatePolicyKind::Srrip | PrivatePolicyKind::Drrip => {
                        self.rrpv.find_victim(set)
                    }
                };
                let line = self.lines[base + way];
                self.stats.evictions += 1;
                if line.dirty {
                    self.stats.writebacks += 1;
                }
                let evicted_block =
                    BlockAddr((line.tag << self.num_sets.trailing_zeros()) | set as u64);
                (
                    way,
                    Some(EvictedLine {
                        block: evicted_block,
                        dirty: line.dirty,
                    }),
                )
            }
        };

        let idx = base + way;
        self.lines[idx] = PrivLine {
            valid: true,
            tag,
            dirty,
        };
        self.stamp_clock += 1;
        self.stamps[idx] = self.stamp_clock;
        let insert_rrpv = match self.config.policy {
            PrivatePolicyKind::Lru => 0,
            PrivatePolicyKind::Srrip => {
                if prefetch {
                    RRPV_MAX
                } else {
                    RRPV_MAX - 1
                }
            }
            PrivatePolicyKind::Drrip => {
                if prefetch {
                    RRPV_MAX
                } else {
                    self.duel.as_mut().expect("drrip state").insertion_rrpv(set)
                }
            }
        };
        self.rrpv.set(set, way, insert_rrpv);
        evicted
    }

    fn writeback(&mut self, block: BlockAddr) -> bool {
        let set = self.set_of(block);
        let tag = block.tag(self.num_sets);
        let base = set * self.ways;
        for way in 0..self.ways {
            let idx = base + way;
            if self.lines[idx].valid && self.lines[idx].tag == tag {
                self.lines[idx].dirty = true;
                return true;
            }
        }
        false
    }
}

/// Frozen copy of the seed's `CoreModel::advance`: the overlap division always goes
/// through the f64 unit (the production model halves integer-side when
/// `mlp_overlap == 2.0`). Outputs are identical; only the cost differs.
fn reference_advance(model: &mut CoreModel, non_mem_instrs: u64, mem_latency: u64) -> u64 {
    let cfg = *model.config();
    let compute = non_mem_instrs.div_ceil(cfg.issue_width);
    let exposed = mem_latency.saturating_sub(cfg.l1_hit_cycles);
    let overlapped = (exposed as f64 / cfg.mlp_overlap).round() as u64;
    let rob_hide_bound = cfg.rob_size / cfg.issue_width;
    let stall = overlapped.max(exposed.saturating_sub(rob_hide_bound));
    model.cycle += compute + stall;
    model.compute_cycles += compute;
    model.mem_stall_cycles += stall;
    model.instructions += non_mem_instrs + 1;
    compute + stall
}

/// One core of the reference system.
struct RefCoreNode {
    model: CoreModel,
    l1d: ReferencePrivateCache,
    l2: ReferencePrivateCache,
    prefetcher: NextLinePrefetcher,
    trace: Box<dyn TraceSource>,
    dram_reads: u64,
    snapshot: Option<CoreStats>,
}

/// Frozen copy of the seed's multi-core driver: binary-heap core scheduling,
/// per-access `cores[core_id]` indexing, float-path core timing, array-of-structs
/// caches and boxed policy dispatch. This is the end-to-end "before" engine; see the
/// module docs.
pub struct ReferenceSystem {
    config: SystemConfig,
    cores: Vec<RefCoreNode>,
    llc: ReferenceLlc,
    dram: Dram,
}

impl ReferenceSystem {
    /// Build the reference system exactly like the seed `MultiCoreSystem::new` did.
    pub fn new(
        config: SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: Box<dyn LlcReplacementPolicy>,
    ) -> Self {
        config.validate().expect("invalid system configuration");
        assert_eq!(
            traces.len(),
            config.num_cores,
            "need exactly one trace source per core"
        );
        let llc = ReferenceLlc::new(config.llc, config.num_cores, config.interval_misses, policy);
        let dram = Dram::new(config.dram);
        let cores = traces
            .into_iter()
            .map(|trace| RefCoreNode {
                model: CoreModel::new(config.core),
                l1d: ReferencePrivateCache::new(config.l1d),
                l2: ReferencePrivateCache::new(config.l2),
                prefetcher: NextLinePrefetcher::new(config.l1_next_line_prefetch),
                trace,
                dram_reads: 0,
                snapshot: None,
            })
            .collect();
        ReferenceSystem {
            config,
            cores,
            llc,
            dram,
        }
    }

    /// Run until every core has retired at least `instructions_per_core` instructions;
    /// returns statistics snapshotted at each core's target (the seed heap scheduler).
    pub fn run(&mut self, instructions_per_core: u64) -> SystemResults {
        assert!(instructions_per_core > 0);
        let n = self.cores.len();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..n).map(|i| Reverse((0, i))).collect();
        let mut frozen_steps: Vec<u64> = vec![0; n];
        let mut remaining = n;

        while remaining > 0 {
            let Reverse((_, core_id)) = heap.pop().expect("heap never empties while cores remain");
            let cycle_before = self.cores[core_id].model.cycle;
            self.step_core(core_id);
            let core = &mut self.cores[core_id];
            // Whether the core was already finished BEFORE this step — the step that
            // takes the snapshot itself is not counted, matching the fast engine.
            let was_finished = core.snapshot.is_some();
            if core.snapshot.is_none() && core.model.instructions >= instructions_per_core {
                let snap = Self::snapshot_core(core_id, core, &self.llc);
                core.snapshot = Some(snap);
                remaining -= 1;
            }
            if remaining > 0 {
                // Same livelock breaker as the fast engine (see
                // `crate::system::LIVELOCK_STEPS`): a finished core whose re-executed
                // stream stops advancing its clock must not starve unfinished cores.
                let core = &self.cores[core_id];
                let retire = if was_finished {
                    if core.model.cycle > cycle_before {
                        frozen_steps[core_id] = 0;
                        false
                    } else {
                        frozen_steps[core_id] += 1;
                        frozen_steps[core_id] >= crate::system::LIVELOCK_STEPS
                    }
                } else {
                    false
                };
                if !retire {
                    heap.push(Reverse((core.model.cycle, core_id)));
                }
            }
        }

        let final_cycle = self
            .cores
            .iter()
            .map(|c| c.snapshot.as_ref().map(|s| s.cycles).unwrap_or(0))
            .max()
            .unwrap_or(0);

        SystemResults {
            policy: self.llc.policy_name(),
            per_core: self
                .cores
                .iter()
                .map(|c| c.snapshot.clone().expect("all cores snapshotted"))
                .collect(),
            llc_global: *self.llc.global_stats(),
            llc_banks: self.llc.bank_stats().to_vec(),
            dram: *self.dram.stats(),
            core_stalls: crate::stats::assemble_core_stalls(
                n,
                self.llc.banks.core_stalls(),
                &self.llc.mshr_core_stalls,
                self.dram.core_stalls(),
            ),
            final_cycle,
        }
    }

    fn snapshot_core(core_id: usize, core: &RefCoreNode, llc: &ReferenceLlc) -> CoreStats {
        CoreStats {
            core_id,
            label: core.trace.label(),
            instructions: core.model.instructions,
            cycles: core.model.cycle,
            compute_cycles: core.model.compute_cycles,
            mem_stall_cycles: core.model.mem_stall_cycles,
            l1d: *core.l1d.stats(),
            l2: *core.l2.stats(),
            llc: *llc.core_stats(core_id),
            prefetch: *core.prefetcher.stats(),
            dram_reads: core.dram_reads,
        }
    }

    fn step_core(&mut self, core_id: usize) {
        let access = self.cores[core_id].trace.next_access();
        let block = crate::addr::block_of(access.addr);
        let now = self.cores[core_id].model.cycle;

        let (mem_latency, prefetch_candidate) =
            self.demand_access(core_id, block, access.pc, access.is_write, now);

        if let Some(pf_block) = prefetch_candidate {
            self.prefetch_access(core_id, pf_block, access.pc, now);
        }

        reference_advance(
            &mut self.cores[core_id].model,
            access.non_mem_instrs as u64,
            mem_latency,
        );
    }

    fn demand_access(
        &mut self,
        core_id: usize,
        block: BlockAddr,
        pc: u64,
        is_write: bool,
        now: u64,
    ) -> (u64, Option<BlockAddr>) {
        let l1_latency = self.config.core.l1_hit_cycles;

        if self.cores[core_id].l1d.access(block, is_write) == Lookup::Hit {
            return (l1_latency, None);
        }

        let prefetch_candidate = {
            let core = &mut self.cores[core_id];
            let l1 = &core.l1d;
            core.prefetcher.on_demand_miss(block, |b| l1.probe(b))
        };

        let l2_latency = self.cores[core_id].l2.latency();
        let mut latency;
        if self.cores[core_id].l2.access(block, false) == Lookup::Hit {
            latency = l2_latency;
        } else {
            let llc_lookup = self.llc.access(core_id, pc, block, true, is_write, now);
            if llc_lookup.hit {
                latency = l2_latency + llc_lookup.latency;
            } else {
                let (mshr_stall, dram_latency) = if self.config.llc.contention.mshr_backpressure {
                    let stall = self.llc.begin_mshr(core_id, now);
                    let issue = now + llc_lookup.latency + stall;
                    let dram_out = self.dram.access(block, issue, false, core_id);
                    self.llc.complete_mshr(issue + dram_out.latency);
                    (stall, dram_out.latency)
                } else {
                    let dram_out =
                        self.dram
                            .access(block, now + llc_lookup.latency, false, core_id);
                    let stall =
                        self.llc
                            .reserve_mshr(core_id, now, llc_lookup.latency + dram_out.latency);
                    (stall, dram_out.latency)
                };
                latency = l2_latency + llc_lookup.latency + mshr_stall + dram_latency;
                self.cores[core_id].dram_reads += 1;

                let fill = self.llc.fill(core_id, pc, block, false, now);
                if let Some(evicted) = fill.evicted {
                    if evicted.dirty {
                        self.dram.access(evicted.block, now, true, core_id);
                    }
                }
            }
            if let Some(evicted) = self.cores[core_id].l2.fill(block, false, false) {
                if evicted.dirty {
                    self.writeback_from_l2(core_id, evicted.block, now);
                }
            }
        }

        if let Some(evicted) = self.cores[core_id].l1d.fill(block, is_write, false) {
            if evicted.dirty && !self.cores[core_id].l2.writeback(evicted.block) {
                self.writeback_from_l2(core_id, evicted.block, now);
            }
        }

        latency += l1_latency;
        (latency, prefetch_candidate)
    }

    fn writeback_from_l2(&mut self, core_id: usize, block: BlockAddr, now: u64) {
        if !self.llc.writeback(core_id, block, now) {
            self.dram.access(block, now, true, core_id);
        }
    }

    fn prefetch_access(&mut self, core_id: usize, block: BlockAddr, pc: u64, now: u64) {
        if self.cores[core_id].l1d.probe(block) {
            return;
        }
        if !self.cores[core_id].l2.probe(block) {
            let llc_lookup = self.llc.access(core_id, pc, block, false, false, now);
            if !llc_lookup.hit {
                self.dram
                    .access(block, now + llc_lookup.latency, false, core_id);
                self.cores[core_id].dram_reads += 1;
            }
            if let Some(evicted) = self.cores[core_id].l2.fill(block, false, true) {
                if evicted.dirty {
                    self.writeback_from_l2(core_id, evicted.block, now);
                }
            }
        }
        if let Some(evicted) = self.cores[core_id].l1d.fill(block, false, true) {
            if evicted.dirty && !self.cores[core_id].l2.writeback(evicted.block) {
                self.writeback_from_l2(core_id, evicted.block, now);
            }
        }
    }
}

/// Build a [`ReferenceSystem`] — the frozen end-to-end "before" engine the optimized
/// default path is compared against.
pub fn reference_system(
    config: SystemConfig,
    traces: Vec<Box<dyn TraceSource>>,
    policy: Box<dyn LlcReplacementPolicy>,
) -> ReferenceSystem {
    ReferenceSystem::new(config, traces, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use crate::system::DefaultSrripPolicy;

    fn llc_config() -> LlcConfig {
        LlcConfig {
            geometry: CacheGeometry::new(64 * 1024, 16),
            latency: 24,
            banks: 4,
            bank_busy_cycles: 4,
            mshr_entries: 8,
            wb_entries: 8,
            wb_retire_at: 6,
            contention: crate::config::BankContentionConfig::flat(),
            nuca: crate::config::NucaConfig::disabled(),
        }
    }

    #[test]
    fn reference_llc_round_trips() {
        let cfg = llc_config();
        let policy = Box::new(DefaultSrripPolicy::new(
            cfg.geometry.num_sets(),
            cfg.geometry.ways,
        ));
        let mut llc = ReferenceLlc::new(cfg, 2, 100, policy);
        let b = BlockAddr(0x42);
        assert!(!llc.access(0, 0, b, true, false, 0).hit);
        llc.fill(0, 0, b, false, 0);
        assert!(llc.access(0, 0, b, true, false, 1000).hit);
        assert_eq!(llc.occupancy(), 1);
        assert_eq!(llc.occupancy_by_core(), vec![1, 0]);
    }

    #[test]
    fn reference_private_cache_round_trips() {
        let mut c = ReferencePrivateCache::new(PrivateCacheConfig {
            geometry: CacheGeometry::new(4 * 1024, 4),
            latency: 2,
            policy: PrivatePolicyKind::Lru,
        });
        let b = BlockAddr(42);
        assert_eq!(c.access(b, false), Lookup::Miss);
        assert!(c.fill(b, false, false).is_none());
        assert_eq!(c.access(b, false), Lookup::Hit);
        assert!(c.probe(b));
        assert!(c.writeback(b));
    }
}
