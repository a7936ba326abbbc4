//! A naive model of the simulated machine: the oracle the production engine is held to,
//! bit for bit, by `tests/reference_identity.rs` (whole systems) and
//! `tests/property_based.rs` (one cache at a time).
//!
//! It is written against `adapt_llc::sim`'s public API only, and it is a different
//! formulation of the same machine rather than a copy of the engine's code:
//!
//! * a cache is `Vec<Vec<Option<Line>>>` — one [`Line`] per way holding the *whole* block
//!   address, found by linear search; the set is `block % sets`; a fill takes the lowest
//!   free way. No tag/shift split, no bitmasks, no way prediction, no parallel arrays;
//! * the RRIP victim is "age every line by `3 − max rrpv`, take the first at 3"; DRRIP's
//!   leader sets and PSEL arithmetic are written out from the paper's constants;
//! * NUCA wire delay is computed per request from `config::mesh_hops`;
//! * core timing is the float form of the overlap rule, `(x as f64 / 2.0).round()`, on
//!   four plain `u64` counters, with the 4-wide issue and 128-entry ROB as literals;
//! * MSHR and write-back occupancy is a `Vec` of completion cycles, pruned by `retain`
//!   and searched by `min`;
//! * a bank is [`NaiveBanks`]' queues: a `Vec` of port free times scanned for the
//!   earliest, a deque of waiting starts, and for FR-FCFS a second deque of the same
//!   requests with their rows and bypass counts, scanned for one at the starvation cap
//!   (the engine keeps a register per flat bank and one queue per contended bank);
//! * DRAM ([`NaiveDram`]) divides the byte address by the row size and permutes banks
//!   with `%` and `/` (XOR mapping), and keeps an open-row register per bank: pages stay
//!   open;
//! * the driver steps the unretired core with the smallest `(cycle, id)` one trace
//!   record at a time: a linear min-scan, no scheduler structure, nothing retired out
//!   of global order.
//!
//! What it shares with the product is only what has a wall of its own: the next-line
//! prefetcher, `stats::assemble_core_stalls`, the `LIVELOCK_STEPS` constant, the
//! configuration/statistics/result types (a bank's `BankRequest`, `BankStats`,
//! `CoreBankStalls` and `RowClass`, the DRAM's `DramStats`) and the
//! `LlcReplacementPolicy` trait the policies under test implement.
#![allow(dead_code)] // each test binary drives its own part of the model

use std::collections::VecDeque;

use adapt_llc::sim::addr::{block_of, BlockAddr};
use adapt_llc::sim::config::{
    mesh_hops, BankContentionConfig, DramConfig, LlcConfig, PrivateCacheConfig, PrivatePolicyKind,
    RowModelConfig, SystemConfig,
};
use adapt_llc::sim::llc::{LlcCoreStats, LlcEvicted, LlcFill, LlcGlobalStats, LlcLookup};
use adapt_llc::sim::prefetch::NextLinePrefetcher;
use adapt_llc::sim::private_cache::{EvictedLine, Lookup, PrivateCacheStats};
use adapt_llc::sim::replacement::{AccessContext, LineView, LlcReplacementPolicy};
use adapt_llc::sim::stats::{assemble_core_stalls, CoreStats, SystemResults};
use adapt_llc::sim::system::LIVELOCK_STEPS;
use adapt_llc::sim::trace::{MemAccess, TraceSource};
use adapt_llc::sim::{BankRequest, BankStats, CoreBankStalls, DramStats, RowClass};

/// 2-bit re-reference predictions: 3 is "distant" (the eviction candidate), 2 "long".
const DISTANT: u8 = 3;
const LONG: u8 = 2;

/// One cached block. `owner` is used by the LLC only, `stamp` and `rrpv` by the private
/// levels only (the LLC's replacement state lives in its policy).
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    block: u64,
    dirty: bool,
    owner: usize,
    stamp: u64,
    rrpv: u8,
}

type Sets = Vec<Vec<Option<Line>>>;

fn set_of(sets: &Sets, block: BlockAddr) -> usize {
    (block.0 % sets.len() as u64) as usize
}

fn way_of(set: &[Option<Line>], block: BlockAddr) -> Option<usize> {
    set.iter()
        .position(|line| line.is_some_and(|l| l.block == block.0))
}

fn line_of(set: &mut [Option<Line>], block: BlockAddr) -> Option<&mut Line> {
    set.iter_mut().flatten().find(|l| l.block == block.0)
}

/// A private L1D or L2: LRU by last-touch stamp, SRRIP, or single-PSEL DRRIP.
pub struct NaivePrivateCache {
    config: PrivateCacheConfig,
    sets: Sets,
    /// Touch counter the LRU stamps are drawn from.
    touches: u64,
    /// DRRIP's 10-bit selector, starting at its midpoint: below 512 followers insert
    /// like SRRIP, from 512 up like BRRIP.
    psel: u32,
    /// BRRIP insertions so far; every 32nd is inserted "long" instead of "distant".
    brrip_fills: u32,
    pub stats: PrivateCacheStats,
}

impl NaivePrivateCache {
    pub fn new(config: PrivateCacheConfig) -> Self {
        let geometry = config.geometry;
        NaivePrivateCache {
            config,
            sets: vec![vec![None; geometry.ways]; geometry.num_sets()],
            touches: 0,
            psel: 512,
            brrip_fills: 0,
            stats: PrivateCacheStats::default(),
        }
    }

    /// DRRIP set dueling with 32 leader sets per policy: in every run of `sets / 32`
    /// sets the first leads SRRIP (`Some(true)`) and the second BRRIP (`Some(false)`).
    fn leader(&self, set: usize) -> Option<bool> {
        match set % (self.sets.len() / 32).max(2) {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> Lookup {
        self.stats.accesses += 1;
        let set = set_of(&self.sets, block);
        if let Some(line) = line_of(&mut self.sets[set], block) {
            self.stats.hits += 1;
            self.touches += 1;
            line.stamp = self.touches;
            line.rrpv = 0;
            line.dirty |= is_write;
            return Lookup::Hit;
        }
        self.stats.misses += 1;
        if self.config.policy == PrivatePolicyKind::Drrip {
            // A miss in a leader set is a vote against the policy it leads.
            match self.leader(set) {
                Some(true) => self.psel = (self.psel + 1).min(1023),
                Some(false) => self.psel = self.psel.saturating_sub(1),
                None => {}
            }
        }
        Lookup::Miss
    }

    pub fn probe(&self, block: BlockAddr) -> bool {
        way_of(&self.sets[set_of(&self.sets, block)], block).is_some()
    }

    pub fn fill(&mut self, block: BlockAddr, dirty: bool, prefetch: bool) -> Option<EvictedLine> {
        let set = set_of(&self.sets, block);
        if let Some(line) = line_of(&mut self.sets[set], block) {
            line.dirty |= dirty;
            return None;
        }
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        let policy = self.config.policy;
        let rrpv = match policy {
            PrivatePolicyKind::Lru => 0,
            _ if prefetch => DISTANT,
            PrivatePolicyKind::Drrip if self.leader(set).unwrap_or(self.psel < 512) => LONG,
            PrivatePolicyKind::Drrip => {
                self.brrip_fills = self.brrip_fills.wrapping_add(1);
                if self.brrip_fills.is_multiple_of(32) {
                    LONG
                } else {
                    DISTANT
                }
            }
        };
        let lines = &mut self.sets[set];
        let free = lines.iter().position(Option::is_none);
        // From a full set: the least recently touched line, or the first line to reach
        // "distant" once every line has aged by what the oldest lacks.
        let way = free.or_else(|| match policy {
            PrivatePolicyKind::Lru => (0..lines.len()).min_by_key(|&w| lines[w].map(|l| l.stamp)),
            PrivatePolicyKind::Drrip => {
                let oldest = lines.iter().flatten().map(|l| l.rrpv).max()?;
                for line in lines.iter_mut().flatten() {
                    line.rrpv += DISTANT - oldest;
                }
                lines
                    .iter()
                    .position(|l| l.is_some_and(|l| l.rrpv == DISTANT))
            }
        });
        let way = way.expect("a set has a way");
        let evicted = lines[way].map(|victim| {
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(victim.dirty);
            EvictedLine {
                block: BlockAddr(victim.block),
                dirty: victim.dirty,
            }
        });
        self.touches += 1;
        lines[way] = Some(Line {
            block: block.0,
            dirty,
            stamp: self.touches,
            rrpv,
            ..Line::default()
        });
        evicted
    }

    pub fn writeback(&mut self, block: BlockAddr) -> bool {
        let set = set_of(&self.sets, block);
        line_of(&mut self.sets[set], block)
            .map(|line| line.dirty = true)
            .is_some()
    }
}

/// The MSHRs or the write-back buffer: the completion cycles of the entries in flight.
/// A request that finds every entry taken waits for the earliest one to retire.
struct NaiveWindow {
    capacity: usize,
    completions: Vec<u64>,
}

impl NaiveWindow {
    fn new(capacity: usize) -> Self {
        NaiveWindow {
            capacity: capacity.max(1),
            completions: Vec::new(),
        }
    }

    /// Wait at `now` for a free entry without taking it; returns the wait.
    fn acquire(&mut self, now: u64) -> u64 {
        self.completions.retain(|&c| c > now);
        if self.completions.len() < self.capacity {
            return 0;
        }
        let earliest = *self
            .completions
            .iter()
            .min()
            .expect("a full window holds entries");
        self.completions.retain(|&c| c > earliest);
        earliest - now
    }

    fn insert(&mut self, completion: u64) {
        self.completions.push(completion);
    }

    /// Take an entry at `now` for `latency` cycles after any wait; returns the wait.
    fn reserve(&mut self, now: u64, latency: u64) -> u64 {
        let wait = self.acquire(now);
        self.insert(now + wait + latency);
        wait
    }
}

/// A queued request as FR-FCFS sees it: when it starts, its row, and how many ready
/// requests have been granted ahead of it.
#[derive(Debug, Clone, Copy)]
struct Pending {
    start: u64,
    row: u64,
    bypassed: u32,
}

/// One bank: when each port frees up, the starts of the requests admitted but not yet
/// started, and — under a row model — the open row and those same requests again with
/// their rows and bypass counts.
#[derive(Debug, Clone, Default)]
struct NaiveBank {
    port_free: Vec<u64>,
    waiting: VecDeque<u64>,
    open_row: Option<u64>,
    pending: VecDeque<Pending>,
    /// The latest request time seen.
    latest: u64,
}

/// A group of banks as queues: FCFS on the earliest-free port, a waiting queue that a
/// full bounded queue refuses admission to, and FR-FCFS's queue of pending rows. Every
/// request is charged to its core.
pub struct NaiveBanks {
    service: u64,
    contention: BankContentionConfig,
    row_model: Option<RowModelConfig>,
    banks: Vec<NaiveBank>,
    pub stats: Vec<BankStats>,
    pub core_stalls: Vec<CoreBankStalls>,
    /// Requests that arrived earlier than one their bank had already seen.
    pub step_backs: u64,
}

impl NaiveBanks {
    pub fn new(
        banks: usize,
        service: u64,
        contention: BankContentionConfig,
        row_model: Option<RowModelConfig>,
    ) -> Self {
        let bank = NaiveBank {
            port_free: vec![0; contention.ports],
            ..NaiveBank::default()
        };
        NaiveBanks {
            service,
            contention,
            row_model,
            banks: vec![bank; banks],
            stats: vec![BankStats::default(); banks],
            core_stalls: Vec::new(),
            step_backs: 0,
        }
    }

    /// A request from `core` to `bank` at `now`, first come first served.
    pub fn request(&mut self, bank: usize, now: u64, core: usize) -> BankRequest {
        let b = &mut self.banks[bank];
        let st = &mut self.stats[bank];
        st.requests += 1;
        self.step_backs += u64::from(now < b.latest);
        b.latest = b.latest.max(now);
        while b.waiting.front().is_some_and(|&start| start <= now) {
            b.waiting.pop_front();
        }
        // A full queue admits the request when the entry `queue_depth` from its back
        // starts.
        let depth = self.contention.queue_depth;
        let admit = if depth > 0 && b.waiting.len() >= depth {
            b.waiting[b.waiting.len() - depth]
        } else {
            now
        };
        let port = (0..b.port_free.len())
            .min_by_key(|&p| (b.port_free[p], p))
            .expect("a bank has a port");
        let start = admit.max(b.port_free[port]);
        b.port_free[port] = start + self.service;
        st.busy_cycles += self.service;
        st.admission_stall_cycles += admit - now;
        if start > now {
            st.queued_requests += 1;
            st.queue_cycles += start - admit;
            b.waiting.push_back(start);
            // The waiting population at `admit`: bisect the starts for the first one
            // past it, probing them as they lie (two ports and times that step back
            // leave them unsorted).
            let (mut lo, mut hi) = (0, b.waiting.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if b.waiting[mid] <= admit {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            st.peak_waiting = st.peak_waiting.max(b.waiting.len() - lo);
        }
        if self.core_stalls.len() <= core {
            self.core_stalls.resize(core + 1, CoreBankStalls::default());
        }
        let charged = &mut self.core_stalls[core];
        charged.admission_stall_cycles += admit - now;
        charged.queue_cycles += start - admit;
        BankRequest {
            delay: start - now,
            admission_stall: admit - now,
            start,
            completion: start + self.service,
        }
    }

    /// A request for `row`: its FR-FCFS class against the bank's open row, then its
    /// place in the queue. Without a row model this is [`NaiveBanks::request`].
    pub fn schedule(
        &mut self,
        bank: usize,
        now: u64,
        core: usize,
        row: u64,
    ) -> (BankRequest, Option<RowClass>) {
        let Some(rm) = self.row_model else {
            return (self.request(bank, now, core), None);
        };
        let b = &mut self.banks[bank];
        while b.pending.front().is_some_and(|p| p.start <= now) {
            let served = b.pending.pop_front().expect("a front");
            b.open_row = Some(served.row);
        }
        let pinned = b.pending.iter().any(|p| p.bypassed >= rm.starvation_cap);
        let class = match b.open_row {
            Some(open) if open == row && !pinned => RowClass::Hit,
            None => RowClass::Miss,
            Some(_) => RowClass::Conflict,
        };
        let st = &mut self.stats[bank];
        match class {
            RowClass::Hit => st.row_hits += 1,
            RowClass::Miss => st.row_misses += 1,
            RowClass::Conflict => st.row_conflicts += 1,
        }
        if class == RowClass::Hit {
            for p in b.pending.iter_mut().filter(|p| p.row != row) {
                p.bypassed += 1;
                st.starvation_pins += u64::from(p.bypassed == rm.starvation_cap);
                st.max_bypass = st.max_bypass.max(p.bypassed);
            }
        }
        let request = self.request(bank, now, core);
        let b = &mut self.banks[bank];
        if request.start > now {
            b.pending.push_back(Pending {
                start: request.start,
                row,
                bypassed: 0,
            });
        } else {
            b.open_row = Some(row);
        }
        (request, Some(class))
    }
}

/// Main memory: rows of `row_bytes` bytes, XOR-permuted over the banks, each bank with
/// an open-row register that classifies a request as a row hit or a conflict — unless
/// the banks schedule rows FR-FCFS themselves.
pub struct NaiveDram {
    config: DramConfig,
    pub banks: NaiveBanks,
    open_rows: Vec<Option<u64>>,
    pub stats: DramStats,
}

impl NaiveDram {
    pub fn new(config: DramConfig) -> Self {
        NaiveDram {
            banks: NaiveBanks::new(
                config.banks,
                config.bank_busy_cycles,
                config.contention,
                config.row_model,
            ),
            open_rows: vec![None; config.banks],
            config,
            stats: DramStats::default(),
        }
    }

    /// A read (or a write-back) of `block` from `core` at `now`; returns its latency.
    pub fn access(&mut self, block: BlockAddr, now: u64, is_write: bool, core: usize) -> u64 {
        let row = block.byte_addr() / self.config.row_bytes;
        let banks = self.config.banks as u64;
        let bank = ((row % banks) ^ (row / banks % banks)) as usize;
        let stats = &mut self.stats;
        let (class_cycles, delay) = if let Some(rm) = self.config.row_model {
            let (request, class) = self.banks.schedule(bank, now, core, row);
            let class = class.expect("the row model is on");
            match class {
                RowClass::Hit => stats.row_hits += 1,
                RowClass::Miss => stats.row_misses += 1,
                RowClass::Conflict => stats.row_conflicts += 1,
            }
            (class.cycles(&rm), request.delay)
        } else {
            let hit = self.open_rows[bank] == Some(row);
            self.open_rows[bank] = Some(row);
            let cycles = if hit {
                stats.row_hits += 1;
                self.config.row_hit_cycles
            } else {
                stats.row_conflicts += 1;
                self.config.row_conflict_cycles
            };
            (cycles, self.banks.request(bank, now, core).delay)
        };
        if is_write {
            stats.writes += 1;
        } else {
            stats.reads += 1;
        }
        stats.queue_cycles += delay;
        delay + class_cycles
    }
}

/// The shared LLC: lines and statistics here, every replacement decision in `policy`.
pub struct NaiveLlc {
    config: LlcConfig,
    sets: Sets,
    policy: Box<dyn LlcReplacementPolicy>,
    pub banks: NaiveBanks,
    mshr: NaiveWindow,
    wb_buffer: NaiveWindow,
    pub per_core: Vec<LlcCoreStats>,
    pub global: LlcGlobalStats,
    mshr_core_stalls: Vec<u64>,
    interval_misses: u64,
    misses_in_interval: u64,
}

impl NaiveLlc {
    pub fn new(
        config: LlcConfig,
        num_cores: usize,
        interval_misses: u64,
        policy: Box<dyn LlcReplacementPolicy>,
    ) -> Self {
        NaiveLlc {
            config,
            sets: vec![vec![None; config.geometry.ways]; config.geometry.num_sets()],
            policy,
            banks: NaiveBanks::new(
                config.banks,
                config.bank_busy_cycles,
                config.contention,
                None,
            ),
            mshr: NaiveWindow::new(config.mshr_entries),
            wb_buffer: NaiveWindow::new(config.wb_entries),
            per_core: vec![LlcCoreStats::default(); num_cores],
            global: LlcGlobalStats::default(),
            mshr_core_stalls: vec![0; num_cores],
            interval_misses,
            misses_in_interval: 0,
        }
    }

    fn ctx(&self, core: usize, pc: u64, block: BlockAddr) -> AccessContext {
        AccessContext {
            core_id: core,
            pc,
            block_addr: block.0,
            set_index: set_of(&self.sets, block),
        }
    }

    /// Queue at the set's bank (sets are interleaved over banks) and cross the mesh to
    /// it; the LLC's global queue/admission totals are whatever the bank says it added.
    fn bank_delay(&mut self, core: usize, set: usize, now: u64) -> u64 {
        let bank = set % self.config.banks;
        let before = self.banks.stats[bank];
        let queued = self.banks.request(bank, now, core).delay;
        let after = self.banks.stats[bank];
        self.global.bank_queue_cycles += after.queue_cycles - before.queue_cycles;
        self.global.bank_admission_stall_cycles +=
            after.admission_stall_cycles - before.admission_stall_cycles;
        let wire = self.config.nuca.hop_cycles
            * mesh_hops(core, self.per_core.len(), bank, self.config.banks);
        self.global.nuca_cycles += wire;
        queued + wire
    }

    /// Demand or prefetch lookup. Only demand accesses reach the policy or count towards
    /// the interval; the first interval is a quarter of the configured length.
    pub fn access(
        &mut self,
        core: usize,
        pc: u64,
        block: BlockAddr,
        demand: bool,
        is_write: bool,
        now: u64,
    ) -> LlcLookup {
        let ctx = self.ctx(core, pc, block);
        if demand {
            self.per_core[core].demand_accesses += 1;
            self.policy.on_access(&ctx);
        } else {
            self.per_core[core].prefetch_accesses += 1;
        }
        let latency = self.config.latency + self.bank_delay(core, ctx.set_index, now);
        let way = way_of(&self.sets[ctx.set_index], block);
        let stats = &mut self.per_core[core];
        match way {
            Some(way) => {
                if demand {
                    stats.demand_hits += 1;
                    self.policy.on_hit(&ctx, way);
                } else {
                    stats.prefetch_hits += 1;
                }
                if let Some(line) = &mut self.sets[ctx.set_index][way] {
                    line.dirty |= is_write;
                }
            }
            None if demand => {
                stats.demand_misses += 1;
                self.global.total_demand_misses += 1;
                self.misses_in_interval += 1;
                let length = match self.global.intervals_completed {
                    0 => (self.interval_misses / 4).max(1),
                    _ => self.interval_misses,
                };
                if self.misses_in_interval >= length {
                    self.misses_in_interval = 0;
                    self.global.intervals_completed += 1;
                    self.policy.on_interval();
                }
            }
            None => {}
        }
        LlcLookup {
            hit: way.is_some(),
            latency,
        }
    }

    /// Fill a demand miss: the policy inserts or bypasses (and hears nothing more), and
    /// picks the victim of a full set. A dirty victim takes a write-back buffer entry for
    /// one LLC latency.
    pub fn fill(
        &mut self,
        core: usize,
        pc: u64,
        block: BlockAddr,
        is_write: bool,
        now: u64,
    ) -> LlcFill {
        let ctx = self.ctx(core, pc, block);
        let set = ctx.set_index;
        let mut outcome = LlcFill {
            bypassed: false,
            evicted: None,
        };
        if way_of(&self.sets[set], block).is_some() {
            return outcome;
        }
        let decision = self.policy.insertion_decision(&ctx);
        if decision.is_bypass() {
            self.per_core[core].bypassed_fills += 1;
            outcome.bypassed = true;
            return outcome;
        }
        let free = self.sets[set].iter().position(Option::is_none);
        let way = free.unwrap_or_else(|| {
            let views: Vec<LineView> = self.sets[set]
                .iter()
                .flatten()
                .map(|l| LineView {
                    valid: true,
                    owner: l.owner,
                    block_addr: l.block,
                    dirty: l.dirty,
                })
                .collect();
            self.policy.choose_victim(&ctx, &views)
        });
        if let Some(victim) = self.sets[set][way] {
            self.policy.on_evict(&ctx, victim.block, victim.owner);
            self.per_core[victim.owner].lines_evicted += 1;
            if victim.dirty {
                self.global.dirty_evictions += 1;
                self.global.wb_stall_cycles += self.wb_buffer.reserve(now, self.config.latency);
            }
            outcome.evicted = Some(LlcEvicted {
                block: BlockAddr(victim.block),
                dirty: victim.dirty,
                owner: victim.owner,
            });
        }
        self.sets[set][way] = Some(Line {
            block: block.0,
            dirty: is_write,
            owner: core,
            ..Line::default()
        });
        self.policy.on_fill(&ctx, way, &decision);
        outcome
    }

    /// A write-back from a private L2 marks a present line dirty and never allocates;
    /// it occupies the bank either way. False: the caller sends it on to memory.
    pub fn writeback(&mut self, core: usize, block: BlockAddr, now: u64) -> bool {
        let set = set_of(&self.sets, block);
        self.per_core[core].writebacks_in += 1;
        self.bank_delay(core, set, now);
        line_of(&mut self.sets[set], block)
            .map(|line| line.dirty = true)
            .is_some()
    }

    /// Valid lines per inserting core.
    pub fn occupancy_by_core(&self) -> Vec<usize> {
        let mut lines = vec![0; self.per_core.len()];
        for line in self.sets.iter().flatten().flatten() {
            lines[line.owner] += 1;
        }
        lines
    }
}

/// What a core's private levels send below the L2, in the order they send it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Below {
    /// A demand that missed both levels, answered with its latency below the L2.
    Demand {
        pc: u64,
        block: BlockAddr,
        is_write: bool,
    },
    /// A next-line prefetch that missed both levels; it charges the core nothing.
    Prefetch { pc: u64, block: BlockAddr },
    /// A dirty line leaving the L2, or falling through it.
    Writeback(BlockAddr),
}

/// One core's private half: its two private levels and the prefetcher, stepped one
/// trace record at a time.
pub struct NaivePrivate {
    pub l1d: NaivePrivateCache,
    pub l2: NaivePrivateCache,
    pub prefetcher: NextLinePrefetcher,
}

impl NaivePrivate {
    pub fn new(config: &SystemConfig) -> Self {
        NaivePrivate {
            l1d: NaivePrivateCache::new(config.l1d),
            l2: NaivePrivateCache::new(config.l2),
            prefetcher: NextLinePrefetcher::new(config.l1_next_line_prefetch),
        }
    }

    /// Resolve one record's access through the private levels and issue the next-line
    /// prefetch it triggered, handing `below` whatever leaves them; returns the access's
    /// latency, the L1D's included.
    pub fn access(&mut self, access: &MemAccess, below: &mut impl FnMut(Below) -> u64) -> u64 {
        let block = block_of(access.addr);
        let mut latency = self.l1d.config.latency;
        if self.l1d.access(block, access.is_write) == Lookup::Hit {
            return latency;
        }
        let l1d = &self.l1d;
        let next_line = self.prefetcher.on_demand_miss(block, |b| l1d.probe(b));
        latency += self.l2.config.latency;
        if self.l2.access(block, false) == Lookup::Miss {
            let (pc, is_write) = (access.pc, access.is_write);
            latency += below(Below::Demand {
                pc,
                block,
                is_write,
            });
            self.install_in_l2(block, false, below);
        }
        self.install_in_l1(block, access.is_write, false, below);
        if let Some(next_line) = next_line {
            self.prefetch(access.pc, next_line, below);
        }
        latency
    }

    /// Bring the next line into L2 and L1 without charging the core.
    fn prefetch(&mut self, pc: u64, block: BlockAddr, below: &mut impl FnMut(Below) -> u64) {
        if self.l1d.probe(block) {
            return;
        }
        if !self.l2.probe(block) {
            below(Below::Prefetch { pc, block });
            self.install_in_l2(block, true, below);
        }
        self.install_in_l1(block, false, true, below);
    }

    fn install_in_l1(
        &mut self,
        block: BlockAddr,
        dirty: bool,
        prefetch: bool,
        below: &mut impl FnMut(Below) -> u64,
    ) {
        if let Some(victim) = self.l1d.fill(block, dirty, prefetch) {
            if victim.dirty && !self.l2.writeback(victim.block) {
                below(Below::Writeback(victim.block));
            }
        }
    }

    fn install_in_l2(
        &mut self,
        block: BlockAddr,
        prefetch: bool,
        below: &mut impl FnMut(Below) -> u64,
    ) {
        if let Some(victim) = self.l2.fill(block, false, prefetch) {
            if victim.dirty {
                below(Below::Writeback(victim.block));
            }
        }
    }
}

/// What a record costs the core, `(compute, stall)` cycles: its `non_mem` non-memory
/// instructions retire 4 a cycle, and the latency its access `exposed` beyond the
/// L1D's is overlapped with other misses (halved) by the ROB, which hides no more than
/// the 128 / 4 cycles of work it holds.
pub fn core_timing(non_mem: u64, exposed: u64) -> (u64, u64) {
    let compute = non_mem.div_ceil(4);
    let overlapped = (exposed as f64 / 2.0).round() as u64;
    (compute, overlapped.max(exposed.saturating_sub(128 / 4)))
}

/// One core: its private half, a trace and its counters.
struct NaiveCore {
    private: NaivePrivate,
    trace: Box<dyn TraceSource>,
    /// The core's own counters, live: `cycles` is its clock, and `instructions`,
    /// `compute_cycles`, `mem_stall_cycles` and `dram_reads` count as it goes. The
    /// cache, LLC and prefetcher fields are filled in only in the `snapshot`.
    stats: CoreStats,
    /// Statistics frozen when the core reached its instruction target; it keeps
    /// executing afterwards so the others keep seeing its traffic.
    snapshot: Option<CoreStats>,
    /// Consecutive zero-cycle steps since then; at `LIVELOCK_STEPS` the core is retired:
    /// the driver stops stepping it.
    idle_steps: u64,
}

/// The whole machine, stepped one trace record at a time in `(cycle, core id)` order.
pub struct NaiveSystem {
    config: SystemConfig,
    cores: Vec<NaiveCore>,
    llc: NaiveLlc,
    dram: NaiveDram,
}

impl NaiveSystem {
    pub fn new(
        config: SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: Box<dyn LlcReplacementPolicy>,
    ) -> Self {
        assert_eq!(traces.len(), config.num_cores, "one trace per core");
        let cores = traces
            .into_iter()
            .map(|trace| NaiveCore {
                private: NaivePrivate::new(&config),
                trace,
                stats: CoreStats::default(),
                snapshot: None,
                idle_steps: 0,
            })
            .collect();
        NaiveSystem {
            llc: NaiveLlc::new(config.llc, config.num_cores, config.interval_misses, policy),
            dram: NaiveDram::new(config.dram),
            cores,
            config,
        }
    }

    /// Requests that reached an LLC bank and a DRAM bank earlier than one that bank had
    /// already seen, so far.
    pub fn step_backs(&self) -> (u64, u64) {
        (self.llc.banks.step_backs, self.dram.banks.step_backs)
    }

    /// Run until every core has retired `target` instructions; statistics are those at
    /// each core's own target.
    pub fn run(&mut self, target: u64) -> SystemResults {
        let n = self.cores.len();
        let mut unfinished = n;
        while unfinished > 0 {
            let id = (0..n)
                .filter(|&i| self.cores[i].idle_steps < LIVELOCK_STEPS)
                .min_by_key(|&i| (self.cores[i].stats.cycles, i))
                .expect("an unfinished core is never retired");
            let before = self.cores[id].stats.cycles;
            self.step(id);
            let core = &mut self.cores[id];
            if core.snapshot.is_some() {
                // A finished core whose re-executed stream no longer moves its clock
                // would stay the earliest forever and starve the rest.
                let moved = core.stats.cycles > before;
                core.idle_steps = if moved { 0 } else { core.idle_steps + 1 };
            } else if core.stats.instructions >= target {
                core.snapshot = Some(CoreStats {
                    core_id: id,
                    label: core.trace.label(),
                    l1d: core.private.l1d.stats,
                    l2: core.private.l2.stats,
                    llc: self.llc.per_core[id],
                    prefetch: *core.private.prefetcher.stats(),
                    ..core.stats.clone()
                });
                unfinished -= 1;
            }
        }
        let snapshots = self.cores.iter().filter_map(|c| c.snapshot.clone());
        let per_core: Vec<CoreStats> = snapshots.collect();
        SystemResults {
            policy: self.llc.policy.name(),
            final_cycle: per_core.iter().map(|c| c.cycles).max().unwrap_or(0),
            per_core,
            llc_global: self.llc.global,
            llc_banks: self.llc.banks.stats.clone(),
            dram: self.dram.stats,
            core_stalls: assemble_core_stalls(
                n,
                &self.llc.banks.core_stalls,
                &self.llc.mshr_core_stalls,
                &self.dram.banks.core_stalls,
            ),
        }
    }

    /// Execute one trace record of core `id`: resolve the access through the hierarchy
    /// at the core's current cycle, issue the next-line prefetch it triggered, then
    /// charge the core.
    fn step(&mut self, id: usize) {
        let NaiveSystem {
            config,
            cores,
            llc,
            dram,
        } = self;
        let core = &mut cores[id];
        let access = core.trace.next_access();
        let now = core.stats.cycles;
        let dram_reads = &mut core.stats.dram_reads;
        let latency = core.private.access(&access, &mut |below| match below {
            Below::Demand {
                pc,
                block,
                is_write,
            } => demand_below_l2(llc, dram, dram_reads, id, pc, block, is_write, now),
            Below::Prefetch { pc, block } => {
                // A prefetch that misses the LLC goes to memory and does not allocate
                // in the LLC.
                let lookup = llc.access(id, pc, block, false, false, now);
                if !lookup.hit {
                    dram.access(block, now + lookup.latency, false, id);
                    *dram_reads += 1;
                }
                0
            }
            Below::Writeback(block) => {
                // Dirty data leaving the private levels: the LLC if it holds the line,
                // else memory.
                if !llc.writeback(id, block, now) {
                    dram.access(block, now, true, id);
                }
                0
            }
        });
        let exposed = latency - config.l1d.latency;
        let (compute, stall) = core_timing(u64::from(access.non_mem_instrs), exposed);
        let counters = &mut core.stats;
        counters.cycles += compute + stall;
        counters.compute_cycles += compute;
        counters.mem_stall_cycles += stall;
        counters.instructions += u64::from(access.non_mem_instrs) + 1;
    }
}

/// A demand access of core `id` that missed both private levels; returns the latency
/// below the L2.
#[allow(clippy::too_many_arguments)]
fn demand_below_l2(
    llc: &mut NaiveLlc,
    dram: &mut NaiveDram,
    dram_reads: &mut u64,
    id: usize,
    pc: u64,
    block: BlockAddr,
    is_write: bool,
    now: u64,
) -> u64 {
    let lookup = llc.access(id, pc, block, true, is_write, now);
    if lookup.hit {
        return lookup.latency;
    }
    // The miss holds an MSHR entry until memory answers. Behind contended banks a full
    // MSHR file delays the DRAM request itself; behind flat ones the request is timed
    // first and the stall charged on top.
    let (stall, memory) = if llc.config.contention != BankContentionConfig::flat() {
        let stall = llc.mshr.acquire(now);
        let issue = now + lookup.latency + stall;
        let memory = dram.access(block, issue, false, id);
        llc.mshr.insert(issue + memory);
        (stall, memory)
    } else {
        let issue = now + lookup.latency;
        let memory = dram.access(block, issue, false, id);
        (llc.mshr.reserve(now, lookup.latency + memory), memory)
    };
    llc.global.mshr_stall_cycles += stall;
    llc.global.mshr_full_events += u64::from(stall > 0);
    llc.mshr_core_stalls[id] += stall;
    *dram_reads += 1;
    // The line comes back clean (the store dirties the L1 copy); a dirty victim drains
    // to memory in the background, costing bandwidth only.
    if let Some(victim) = llc.fill(id, pc, block, false, now).evicted {
        if victim.dirty {
            dram.access(victim.block, now, true, id);
        }
    }
    lookup.latency + stall + memory
}
