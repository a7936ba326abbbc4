//! The private stage: everything of a core that is a function of its trace alone.
//!
//! The hierarchy is non-inclusive and each core is in-order over its own stream, so a
//! core's L1D/L2/prefetcher/write-back sequence does not depend on the LLC policy, on
//! what the LLC or the DRAM answer, or on the other cores. A [`PrivateStage`] owns that
//! half of a core — trace source, L1D, L2, next-line prefetcher and the private part of
//! the core timing — and turns the trace into a stream of [`Event`]s for
//! [`crate::system::MultiCoreSystem::run`], which owns the other half (LLC, DRAM, the
//! cores' clocks). Every system replays a [`SharedStage`]'s events: the P policies of a
//! sweep share one per core, so the private half is simulated once; a system built over
//! trace sources reads a sole stage of its own.
//!
//! ```text
//!   TraceSource ─► L1D ─► L2 ─► prefetcher          LLC ─► MSHR ─► DRAM ─► CoreModel
//!   └────────────── PrivateStage ──────────────┘    └──── MultiCoreSystem::run ────┘
//!                        │   Event: gap + one in-order record    ▲
//!                        └─► SharedStage memo (chunks) ─► StageCursor × P
//!                            or a sole stage's one cursor, released behind it
//! ```
//!
//! **Events.** An event is a coalesced run of *private-only* records — the **gap**: Σ
//! instructions, Σ compute cycles and how many of them missed the L1 (each such record
//! hit the L2 and stalls the core by the same cycles, [`StageParams::l2_hit_stall`]) —
//! followed by exactly one record the driver executes in global order. A record is
//! private-only when it hits the L1, or misses the L1, hits the L2 and neither its
//! prefetch candidate nor a dirty victim leaves the L2: nothing the LLC, the DRAM or
//! another core can observe. When the driver moves a core's cursor to an event it keys
//! the core by the start cycle of the in-order record (the core's clock plus the gap),
//! and the core's in-order step retires the gap before running that record; this is
//! exact for the reason given in [`crate::system`] (removing private-only records from
//! the k-way merge does not reorder the rest).
//!
//! **Order inside a record.** The stage performs the private side in the order a
//! per-record engine does: prefetcher consult (L1 probe of `block.next()`) → L2 access →
//! L2 fill (miss only) → L1 fill → `l2.writeback` of the dirty L1 victim → prefetch: L2
//! probe → L2 fill → L1 fill → `l2.writeback`. The prefetch does not probe the L1 again:
//! the consult just found `block.next()` absent there, and the demand fills in between
//! insert only `block`. Every fill is therefore of a block its level has just seen miss,
//! which [`PrivateCache::fill`] requires. None of it reads a shared outcome. The event
//! records what the shared side must do, in its own fixed order: LLC demand access
//! (skipped on an L2 hit) → the demand's write-backs (L2 victim, then L1 victim) → LLC
//! prefetch access of `block.next()` → the prefetch's write-backs → the core's clock.
//! Write-back blocks (0–4 per event) live in a side array next to the events.
//!
//! **The bound.** A gap ends after [`RUN_AHEAD`] private records and the next record
//! executes in order whatever it is: a finished core whose stream is cache-resident
//! *with* instruction gaps would otherwise never produce an event. Every stage coalesces
//! so, whether or not `sim_obs` records: an interval sample reads each core as of its
//! last in-order record ([`crate::system`]). The gap's instruction and compute counters
//! are `u32`, and a gap ends early rather than overflow them; its L2 hits and an event's
//! wraps are counted in a byte, which the bound keeps from overflowing.
//!
//! **Target and snapshot.** The record that takes a core to its instruction target is
//! always in order and flagged ([`Event::reaches_target`]). The stage runs ahead of its
//! consumers, so it captures the L1D/L2/prefetch statistics at that record
//! ([`PrivateStage::target_stats`]) for the consumer's `CoreStats` snapshot; the LLC
//! statistics are still read in global order. The target is therefore a stage parameter.
//!
//! **Livelock.** [`LIVELOCK_STEPS`] consecutive zero-advance steps of a finished core
//! retire it. A zero-advance record is an L1 hit with no gap instructions —
//! `SystemConfig::validate` guarantees an L1 miss always advances the clock — so the
//! stage counts them itself and ends its stream with a flagged event
//! ([`Event::frozen`]).
//!
//! **The memo.** A [`SharedStage`] generates events on demand in chunks (of
//! [`CHUNK_EVENTS`] events or [`CHUNK_RECORDS`] records, whichever comes first) and keeps
//! them; any number of [`StageCursor`]s replay them without regenerating. A chunk is
//! generated outside the memo's lock: the live stage leaves the memo while it works, the
//! retained chunks — and the records drawn and the target statistics, which the memo
//! notes at every chunk — stay readable, and a cursor that needs the chunk in flight
//! waits for it. The stage owns the live trace source, so records are not memoized a
//! second time. Its events depend on its trace and its [`StageParams`] alone — not on the
//! LLC, the DRAM or the policy — so every system with that private hierarchy and
//! instruction target may replay them. A consumer never sees the chunks; the trace
//! source does: a stage may have drawn the rest of its furthest consumer's chunk and one
//! chunk read ahead of it, on top of the driver's own `RUN_AHEAD + 1` records — fewer
//! than `2 × (CHUNK_RECORDS + RUN_AHEAD)` beyond that consumer. Two rules spare a lone
//! run more: (a) a chunk ends after the event that reaches the instruction target, and
//! (b) `run` fetches nothing after its last snapshot; a one-core run no one reads ahead
//! draws exactly the records a per-record engine consumes.
//!
//! **Release-behind.** A sole stage ([`SharedStage::sole`]) hands out one cursor and
//! keeps no prefix: its memo drops each chunk the cursor leaves and generates the next
//! one into that chunk's buffer, so it holds two chunk buffers at most — the one being
//! read and the one being generated — and shrinks none. It draws on no pool and never
//! stops retaining. Dropping the cursor takes the stage out of the read-ahead queue and
//! waits for every thread serving it, so the trace source is gone when `drop` returns.
//! [`MultiCoreSystem::run`](crate::system::MultiCoreSystem::run) builds one per trace
//! source, and a hand-over continues on one.
//!
//! **Read-ahead.** A lone evaluation would otherwise run its halves back to back: the
//! private stages generate a chunk, then the system replays it. When the furthest cursor
//! of a system's stage takes the memo's last chunk, it queues the stage in the process's
//! read-ahead queue, and whoever serves the stage generates the next chunk while that
//! cursor's system works through the current one, so the evaluation costs about
//! max(private, shared) instead of their sum. Two kinds of thread serve the queue, one
//! chunk per stage they take out of it:
//!
//! * the process's one read-ahead thread, while fewer
//!   [`MultiCoreSystem::run`](crate::system::MultiCoreSystem::run) calls are in progress
//!   than the host has hardware threads; a run that ends wakes it;
//! * a **helper**: a cursor that finds the chunk it needs in flight serves one queued
//!   stage on its own thread, then looks again, and sleeps only when the queue is empty.
//!   A sweep with a cell on every worker runs the cells of a mix in lockstep over the
//!   same stages, so instead of sleeping while another worker generates the chunk they
//!   both need, a worker generates a chunk one of them will need next.
//!
//! The idle-thread gate therefore sits where the thread serves, not where a stage is
//! queued: a queued stage costs nothing until someone takes it, and an idle hardware
//! thread is a question only for the read-ahead thread, which would take one. A helper
//! holds one already, which would otherwise sleep. Whoever serves generates only if the
//! stage's furthest cursor still stands at the memo's end — so no stage runs more than
//! one chunk ahead of it — and the pool covers the chunk; when the pool is dry the cursor
//! makes the checkpoint there, as it would without a read-ahead. A helper cannot wait on
//! itself: it lets go of its memo's lock before it serves, and a generation never waits
//! — it runs from a live stage to the end of its chunk on the thread that started it —
//! so the chunk the helper's cursor needs is completed by the thread generating it
//! whatever the helper serves meanwhile.
//! [`SharedStage::usage`] and dropping a [`SharedStage`] take the stage out of the queue
//! and wait only for the threads serving it, so neither depends on an idle hardware
//! thread. A corpus stage's next block is decoded there too: the trace source decodes on
//! the thread that reads it. No cursor waits on a request that is only queued: one that
//! finds neither its chunk nor a generation in flight generates inline.
//!
//! **The memo pool and the hand-over.** The stages over every stream of a mix retain
//! events out of one [`MemoPool`] — what the mix's decode buffers (none for a
//! generator) leave of its memory budget — in the order they need it, and register what
//! they hold with [`ArenaTracker`]. A stage first reserves its checkpoint
//! ([`StageState::bytes`]: the caches and counters, a few KB), then a whole chunk
//! ([`MAX_CHUNK_BYTES`]) before it generates one, returning what the chunk did not
//! need. When the pool cannot cover another chunk the stage stops retaining for good —
//! where that happens depends on which stages drew on the pool first, so on thread
//! timing; what any cursor sees does not: the retained chunks stay a prefix every
//! cursor replays, and the live stage becomes the **checkpoint** — its [`StageState`],
//! kept by the memo, while its trace source (its decode buffer) is dropped. A cursor
//! that runs off the prefix continues on a sole stage of its own, read ahead like the
//! memo: a clone of the checkpoint over a fresh source that starts where the prefix
//! ends (the stage's source factory takes that record, and a replayed stream seeks
//! there through its file's chunk index). Every cursor, the first included, hands over
//! this one way, at the cost of a clone and a seek whatever the prefix's length. A pool
//! that cannot cover the checkpoint retains nothing; its checkpoint is the empty stage
//! at record 0, so every cursor reads a sole stage from the first record, as a system
//! built over trace sources does. No cursor waits for another or fails, and the events
//! are the same whatever the pool holds.
//!
//! **Wraps.** A finite stream is replayed in a loop. An event carries how often its
//! records crossed the stream's end ([`Event::wraps`]); a cursor adds that up as it
//! *moves to* an event and folds its total into the stream's counter with `fetch_max`.
//! The counter therefore holds the most passes any one consumer completed: it does not
//! grow with the number of cursors, does not include what a shared stage drew ahead of
//! its furthest consumer, and is the same whatever the pool holds.
//!
//! **Faults.** A trace source over a corpus file reports corruption by unwinding with a
//! typed [`ReplayFault`]. If that happens while a chunk is generated — by a cursor, a
//! helper or the read-ahead thread — the memo records the fault at its frontier: its
//! private hierarchy stopped mid-record, so no chunk follows. The retained chunks and the
//! target statistics stay readable; a cursor that was generating its own chunk raises
//! the fault (a helper does not), and so does every cursor that needs the failed chunk
//! afterwards, so each evaluation that
//! reads the corrupt block fails the typed way, and one that stops short of it — a
//! read-ahead may run a chunk past the end of a run — does not.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use crate::addr::{block_of, BlockAddr};
use crate::config::{PrivateCacheConfig, SystemConfig};
use crate::core_model::{compute_cycles, stall_cycles};
use crate::prefetch::{NextLinePrefetcher, PrefetchStats};
use crate::private_cache::{Lookup, PrivateCache, PrivateCacheStats};
use crate::system::{LIVELOCK_STEPS, RUN_AHEAD};
use crate::trace::{raise_replay_fault, replay_fault_from, ArenaTracker, ReplayFault, TraceSource};

/// Most events in one chunk of a [`SharedStage`]'s memo.
pub const CHUNK_EVENTS: usize = 1024;

/// Records after which a chunk ends even with fewer events: the events of a
/// cache-resident core cover `RUN_AHEAD + 1` records each, and two chunks — the furthest
/// consumer's and the one read ahead — are how far a shared stage may run ahead of that
/// consumer. The event that crosses the line is completed, so a chunk draws fewer than
/// `CHUNK_RECORDS + RUN_AHEAD + 1` records. A chunk also ends after the event that
/// reaches the instruction target (module docs, rule (a)).
pub const CHUNK_RECORDS: u64 = 4096;

/// Most bytes one chunk holds: [`CHUNK_EVENTS`] 32-byte events with four write-backs
/// each, 64 KiB. A memo retains another chunk only if its pool covers this much, so the
/// pool is never overdrawn and the live stage always stands at the end of what is
/// retained.
pub const MAX_CHUNK_BYTES: u64 =
    (CHUNK_EVENTS * (std::mem::size_of::<Event>() + 4 * std::mem::size_of::<BlockAddr>())) as u64;

/// Everything a stage reads: a [`SharedStage`]'s events serve every system whose private
/// hierarchy and instruction target these are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageParams {
    pub l1d: PrivateCacheConfig,
    pub l2: PrivateCacheConfig,
    pub l1_next_line_prefetch: bool,
    /// Instructions after which the core's statistics are snapshotted.
    pub instruction_target: u64,
}

impl StageParams {
    /// The parameters of a stage for `config`'s private hierarchy.
    pub fn latch(config: &SystemConfig, instruction_target: u64) -> Self {
        StageParams {
            l1d: config.l1d,
            l2: config.l2,
            l1_next_line_prefetch: config.l1_next_line_prefetch,
            instruction_target,
        }
    }

    /// Whether a stage with these parameters models the private hierarchy of `config`.
    pub fn models(&self, config: &SystemConfig) -> bool {
        *self == Self::latch(config, self.instruction_target)
    }

    /// Cycles the clock advances for an L1 miss that hits the L2, beyond its compute
    /// cycles: what each of a gap's [L2 hits](Event::gap_l2_hits) adds to it.
    pub fn l2_hit_stall(&self) -> u64 {
        stall_cycles(self.l2.latency)
    }
}

const WRITE: u8 = 1;
const L1_HIT: u8 = 1 << 1;
const L2_HIT: u8 = 1 << 2;
const PREFETCH_REACHES_LLC: u8 = 1 << 3;
const REACHES_TARGET: u8 = 1 << 4;
const FROZEN: u8 = 1 << 5;

/// A gap of private-only records followed by one record to execute in global order
/// (module docs, "Events"). 32 bytes: a chunk of them is what a memo retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Event {
    /// Block the in-order record accesses.
    pub block: BlockAddr,
    /// Program counter of the in-order record.
    pub pc: u64,
    /// Instructions retired by the gap's records.
    pub gap_instructions: u32,
    /// Compute cycles of the gap's records.
    pub gap_compute_cycles: u32,
    /// Non-memory instructions preceding the in-order record's access.
    pub non_mem_instrs: u32,
    /// The gap's L1 misses, each of which hit the L2 and stalls the core by the same
    /// cycles ([`gap_stall_cycles`](Self::gap_stall_cycles)); at most [`RUN_AHEAD`].
    pub gap_l2_hits: u8,
    /// How often the event's records — the gap's and the in-order one — crossed the end
    /// of a finite stream (module docs, "Wraps"): at most once each, so at most
    /// `RUN_AHEAD + 1`; 0 over a generator.
    pub wraps: u8,
    flags: u8,
    /// Write-backs the in-order record's demand access (low nibble) and its prefetch
    /// (high nibble) sent below the L2, 0–2 each.
    writebacks: u8,
}

const _: () = assert!(std::mem::size_of::<Event>() == 32);
const _: () = assert!(RUN_AHEAD < u8::MAX as u64, "a gap's counts must fit a byte");

impl Event {
    /// The in-order record is a store.
    pub fn is_write(&self) -> bool {
        self.flags & WRITE != 0
    }
    /// The in-order record hit the L1: it touches no shared state at all.
    pub fn l1_hit(&self) -> bool {
        self.flags & L1_HIT != 0
    }
    /// The in-order record missed the L1 and hit the L2: no LLC demand access.
    pub fn l2_hit(&self) -> bool {
        self.flags & L2_HIT != 0
    }
    /// The record's prefetch of `block.next()` missed both private levels.
    pub fn prefetch_reaches_llc(&self) -> bool {
        self.flags & PREFETCH_REACHES_LLC != 0
    }
    /// The in-order record takes the core to its instruction target.
    pub fn reaches_target(&self) -> bool {
        self.flags & REACHES_TARGET != 0
    }
    /// The in-order record is the [`LIVELOCK_STEPS`]-th consecutive zero-advance step of
    /// a finished core: the stream ends here and the core is retired from scheduling.
    pub fn frozen(&self) -> bool {
        self.flags & FROZEN != 0
    }
    /// Memory-stall cycles of the gap's records, given the stall of one private L2 hit
    /// ([`StageParams::l2_hit_stall`] of the stage that produced the event).
    #[inline]
    pub fn gap_stall_cycles(&self, l2_hit_stall: u64) -> u64 {
        u64::from(self.gap_l2_hits) * l2_hit_stall
    }
    /// Write-backs the in-order record's demand access sent below the L2 (0–2).
    pub fn demand_writebacks(&self) -> usize {
        usize::from(self.writebacks & 0xf)
    }
    /// Write-backs its prefetch sent below the L2 (0–2); they follow the demand's in the
    /// side array.
    pub fn prefetch_writebacks(&self) -> usize {
        usize::from(self.writebacks >> 4)
    }
    /// Write-back blocks this event owns in the side array.
    pub fn writebacks(&self) -> usize {
        self.demand_writebacks() + self.prefetch_writebacks()
    }
}

/// Statistics of the private levels, as a `CoreStats` snapshot needs them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivateStats {
    pub l1d: PrivateCacheStats,
    pub l2: PrivateCacheStats,
    pub prefetch: PrefetchStats,
}

/// The trace-independent half of a [`PrivateStage`] — the caches, the prefetcher and the
/// counters, everything but the trace source — and so a value a memo can keep and clone:
/// the checkpoint of module docs, "The memo pool and the hand-over".
#[derive(Clone)]
pub struct StageState {
    params: StageParams,
    l1d: PrivateCache,
    l2: PrivateCache,
    prefetcher: NextLinePrefetcher,
    records: u64,
    instructions: u64,
    /// The trace source's [`passes`](TraceSource::passes) after the event last
    /// produced; `None` over a source that cannot wrap, which is then never asked again.
    passes: Option<u64>,
    /// Statistics at the record that reached the target; `Some` means finished.
    target_stats: Option<PrivateStats>,
    /// Consecutive zero-advance records since the core finished.
    frozen_steps: u64,
    ended: bool,
}

/// One core's private half (module docs).
pub struct PrivateStage {
    state: StageState,
    trace: Box<dyn TraceSource>,
}

impl PrivateStage {
    /// A stage over `trace`, which is consumed from wherever it stands.
    pub fn new(params: StageParams, trace: Box<dyn TraceSource>) -> Self {
        let state = StageState {
            params,
            l1d: PrivateCache::new(params.l1d),
            l2: PrivateCache::new(params.l2),
            prefetcher: NextLinePrefetcher::new(params.l1_next_line_prefetch),
            records: 0,
            instructions: 0,
            passes: trace.passes(),
            target_stats: None,
            frozen_steps: 0,
            ended: false,
        };
        Self::resume(state, trace)
    }

    /// Continue `state` over `trace`, which must stand where the state's stage stopped:
    /// [`StageState::records`] into the stream, having completed as many passes.
    pub fn resume(state: StageState, trace: Box<dyn TraceSource>) -> Self {
        assert_eq!(
            trace.passes(),
            state.passes,
            "the source does not stand where the stage stopped"
        );
        PrivateStage { state, trace }
    }

    /// The stage's trace-independent half, as it stands.
    pub fn state(&self) -> &StageState {
        &self.state
    }

    pub fn params(&self) -> &StageParams {
        &self.state.params
    }

    /// Label of the trace source.
    pub fn label(&self) -> String {
        self.trace.label()
    }

    /// Records drawn from the trace source so far.
    pub fn records(&self) -> u64 {
        self.state.records
    }

    /// Statistics of the private levels as they stood right after the record that
    /// reached the instruction target; `None` until the stage has produced that event.
    pub fn target_stats(&self) -> Option<PrivateStats> {
        self.state.target_stats
    }

    /// Produce the next event, appending the blocks its record wrote back below the L2
    /// to `writebacks`. Panics after a [frozen](Event::frozen) event.
    fn next_event(&mut self, writebacks: &mut Vec<BlockAddr>) -> Event {
        let PrivateStage { state: s, trace } = self;
        assert!(!s.ended, "the stage ended with a frozen event");
        let instruction_target = s.params.instruction_target;
        let (mut gap_instructions, mut gap_compute) = (0u64, 0u64);
        let (mut coalesced, mut gap_l2_hits) = (0u64, 0u8);
        loop {
            let access = trace.next_access();
            s.records += 1;
            let block = block_of(access.addr);
            let non_mem = u64::from(access.non_mem_instrs);
            let finished = s.target_stats.is_some();
            s.instructions += non_mem + 1;
            let reaches_target = !finished && s.instructions >= instruction_target;

            let outcome = if s.l1d.access(block, access.is_write) == Lookup::Hit {
                Outcome::L1_HIT
            } else {
                s.resolve_l1_miss(block, access.is_write, writebacks)
            };

            // Livelock accounting; the record that takes the snapshot is not counted. An
            // L1 hit advances the clock by its compute cycles alone.
            let mut frozen = false;
            if finished {
                if outcome.flags == L1_HIT && non_mem == 0 {
                    s.frozen_steps += 1;
                    frozen = s.frozen_steps >= LIVELOCK_STEPS;
                } else {
                    s.frozen_steps = 0;
                }
            }

            if outcome.is_private()
                && !reaches_target
                && !frozen
                && coalesced < RUN_AHEAD
                && gap_instructions + non_mem < u64::from(u32::MAX)
            {
                gap_instructions += non_mem + 1;
                gap_compute += compute_cycles(non_mem);
                gap_l2_hits += u8::from(outcome.flags == L2_HIT);
                coalesced += 1;
                continue;
            }

            let mut flags = outcome.flags;
            if access.is_write {
                flags |= WRITE;
            }
            if reaches_target {
                flags |= REACHES_TARGET;
                s.target_stats = Some(s.stats());
            }
            if frozen {
                flags |= FROZEN;
                s.ended = true;
            }
            let crossed = match s.passes {
                Some(before) => {
                    s.passes = trace.passes();
                    s.passes.unwrap_or(before) - before
                }
                None => 0,
            };
            return Event {
                block,
                pc: access.pc,
                // The gap's instructions were bounded above; compute cycles never exceed
                // them.
                gap_instructions: gap_instructions as u32,
                gap_compute_cycles: gap_compute as u32,
                non_mem_instrs: access.non_mem_instrs,
                gap_l2_hits,
                wraps: u8::try_from(crossed)
                    .expect("a record crosses the stream's end at most once"),
                flags,
                writebacks: outcome.demand_writebacks | outcome.prefetch_writebacks << 4,
            };
        }
    }
}

impl StageState {
    /// Records the stage has drawn: where a source that continues it must stand.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes the state holds, caches included.
    pub fn bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.l1d.heap_bytes() + self.l2.heap_bytes()) as u64
    }

    fn stats(&self) -> PrivateStats {
        PrivateStats {
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            prefetch: *self.prefetcher.stats(),
        }
    }

    /// The private side of a record that missed the L1 (module docs, "Order inside a
    /// record"); collects the write-backs that leave the L2.
    #[inline]
    fn resolve_l1_miss(
        &mut self,
        block: BlockAddr,
        is_write: bool,
        writebacks: &mut Vec<BlockAddr>,
    ) -> Outcome {
        let mut outcome = Outcome::default();
        let l1d = &self.l1d;
        let candidate = self.prefetcher.on_demand_miss(block, |b| l1d.probe(b));

        if self.l2.access(block, false) == Lookup::Hit {
            outcome.flags |= L2_HIT;
        } else {
            outcome.demand_writebacks += self.fill_l2(block, false, writebacks);
        }
        outcome.demand_writebacks += self.fill_l1(block, is_write, false, writebacks);

        // The prefetch brings the line into L2 and L1 without charging the core.
        let Some(next) = candidate else {
            return outcome;
        };
        // The consult found `next` absent, and the demand fills inserted only `block`.
        debug_assert!(!self.l1d.probe(next), "prefetch of a present block");
        if !self.l2.probe(next) {
            outcome.flags |= PREFETCH_REACHES_LLC;
            outcome.prefetch_writebacks += self.fill_l2(next, true, writebacks);
        }
        outcome.prefetch_writebacks += self.fill_l1(next, false, true, writebacks);
        outcome
    }

    /// Fill the L2; a dirty victim leaves it. Returns the write-backs collected (0 or 1).
    #[inline]
    fn fill_l2(&mut self, block: BlockAddr, prefetch: bool, writebacks: &mut Vec<BlockAddr>) -> u8 {
        match self.l2.fill(block, false, prefetch) {
            Some(victim) if victim.dirty => {
                writebacks.push(victim.block);
                1
            }
            _ => 0,
        }
    }

    /// Fill the L1; a dirty victim goes to the L2, and below it if the L2 no longer
    /// holds the line. Returns the write-backs collected (0 or 1).
    #[inline]
    fn fill_l1(
        &mut self,
        block: BlockAddr,
        dirty: bool,
        prefetch: bool,
        writebacks: &mut Vec<BlockAddr>,
    ) -> u8 {
        match self.l1d.fill(block, dirty, prefetch) {
            Some(victim) if victim.dirty && !self.l2.writeback(victim.block) => {
                writebacks.push(victim.block);
                1
            }
            _ => 0,
        }
    }
}

/// What the private levels made of one record: its hit/prefetch flags and how many
/// write-backs of its demand access and of its prefetch left the L2.
#[derive(Clone, Copy, Default)]
struct Outcome {
    flags: u8,
    demand_writebacks: u8,
    prefetch_writebacks: u8,
}

impl Outcome {
    const L1_HIT: Outcome = Outcome {
        flags: L1_HIT,
        demand_writebacks: 0,
        prefetch_writebacks: 0,
    };

    /// Private-only: an L1 hit, or an L2 hit of which nothing — prefetch, write-back —
    /// leaves the L2.
    fn is_private(self) -> bool {
        let writebacks = self.demand_writebacks + self.prefetch_writebacks;
        self.flags == L1_HIT || (self.flags == L2_HIT && writebacks == 0)
    }
}

/// The bytes the event memos of the stages that share it may still retain — in a sweep,
/// the stages of every core of one mix (module docs, "The memo pool and the
/// hand-over").
#[derive(Debug)]
pub struct MemoPool {
    left: AtomicU64,
}

impl MemoPool {
    /// A pool of `bytes` bytes.
    pub fn new(bytes: u64) -> Arc<Self> {
        Arc::new(MemoPool {
            left: AtomicU64::new(bytes),
        })
    }

    /// The bytes the pool holds now.
    pub fn bytes_left(&self) -> u64 {
        self.left.load(Ordering::Relaxed)
    }

    /// Take `bytes` out of the pool, if it holds as much.
    fn reserve(&self, bytes: u64) -> bool {
        self.left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(bytes)
            })
            .is_ok()
    }

    /// Return `bytes` of an earlier reservation.
    fn release(&self, bytes: u64) {
        self.left.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// One memoized run of events with their write-back side array.
#[derive(Default)]
struct Chunk {
    events: Vec<Event>,
    writebacks: Vec<BlockAddr>,
}

impl Chunk {
    /// Replace the chunk's events with `stage`'s next [`CHUNK_EVENTS`] events or
    /// [`CHUNK_RECORDS`] records, whichever come first, ending early at the target (rule (a)).
    fn generate(&mut self, stage: &mut PrivateStage) {
        self.events.clear();
        self.writebacks.clear();
        let record_limit = stage.records() + CHUNK_RECORDS;
        while self.events.len() < CHUNK_EVENTS
            && stage.records() < record_limit
            && !stage.state.ended
        {
            let event = stage.next_event(&mut self.writebacks);
            self.events.push(event);
            if event.reaches_target() {
                break;
            }
        }
        assert!(
            !self.events.is_empty(),
            "the stage ended with a frozen event"
        );
    }

    fn bytes(&self) -> u64 {
        (self.events.capacity() * std::mem::size_of::<Event>()
            + self.writebacks.capacity() * std::mem::size_of::<BlockAddr>()) as u64
    }
}

/// What a [`SharedStage`] and its cursors share.
struct Shared {
    params: StageParams,
    label: String,
    /// `None` for a sole stage (module docs, "Release-behind").
    retain: Option<Retain>,
    /// The stream's wrap counter (module docs, "Wraps").
    stream_wraps: Arc<AtomicU64>,
    cursors: AtomicU64,
    handovers: AtomicU64,
    memo: Mutex<Memo>,
    /// Signalled whenever the memo's head leaves [`Head::Busy`] or its stage leaves the
    /// read-ahead queue.
    ready: Condvar,
}

/// What a memo that retains a prefix draws on (module docs, "The memo pool and the
/// hand-over"): fresh sources over its stream, standing at a given record of the endless
/// stream, and the pool its bytes come from.
struct Retain {
    source: Box<dyn Fn(u64) -> Box<dyn TraceSource> + Send + Sync>,
    pool: Arc<MemoPool>,
}

/// Where a memo's retained prefix ends.
#[derive(Default)]
enum Head {
    /// The memo retains: the live stage stands right after the last retained chunk.
    Live(Box<PrivateStage>),
    /// The live stage is out generating the chunk after the last retained one, on a
    /// cursor's thread, a helper's or the read-ahead thread.
    #[default]
    Busy,
    /// The memo retains no further chunk: the state the live stage had there, its trace
    /// source dropped. Every cursor that runs off the prefix continues on a clone.
    Checkpoint(Arc<StageState>),
    /// The trace source unwound under the live stage, which cannot continue: the typed
    /// fault it raised, or `None` for any other panic (module docs, "Faults").
    Failed(Option<ReplayFault>),
}

#[derive(Default)]
struct Memo {
    head: Head,
    /// The retained chunks, from chunk `first` on: the prefix, or those a sole cursor has not left.
    chunks: Vec<Arc<Chunk>>,
    first: usize,
    /// A sole stage's chunk its cursor has left: the buffer the next generation fills.
    spare: Option<Chunk>,
    events: u64,
    bytes: u64,
    /// Bytes reserved for the checkpoint; 0 when the pool could not cover it, and then
    /// nothing is retained.
    checkpoint_bytes: u64,
    /// Records the live stage had drawn, and its target statistics, after the last
    /// retained chunk: readable while the stage is out.
    records: u64,
    target_stats: Option<PrivateStats>,
    /// Chunks the furthest cursor has taken.
    furthest: usize,
    /// The stage waits in the read-ahead queue.
    queued: bool,
    /// Chunks the read-ahead thread generated.
    read_aheads: u64,
    /// Chunks a cursor of another stage generated while it waited for its own.
    helps: u64,
    /// Times a cursor found the chunk it needed in flight and waited for it.
    waits: u64,
    tracker: ArenaTracker,
}

impl Memo {
    /// Retain nothing more: the live stage becomes the checkpoint, and its trace source —
    /// its decode buffer — is dropped.
    fn stop_retaining(&mut self) {
        if let Head::Live(stage) = &self.head {
            self.head = Head::Checkpoint(Arc::new(stage.state().clone()));
        }
    }

    /// Retain `chunk`, which `stage` has just generated into a [`MAX_CHUNK_BYTES`]
    /// reservation from `pool`, if it has one; what the chunk does not need goes back.
    fn push(&mut self, mut chunk: Chunk, stage: &PrivateStage, pool: Option<&MemoPool>) {
        if let Some(pool) = pool {
            chunk.events.shrink_to_fit();
            chunk.writebacks.shrink_to_fit();
            pool.release(MAX_CHUNK_BYTES.saturating_sub(chunk.bytes()));
            self.bytes += chunk.bytes();
            self.tracker.set_bytes(self.bytes + self.checkpoint_bytes);
        }
        self.events += chunk.events.len() as u64;
        self.records = stage.records();
        self.target_stats = stage.target_stats();
        self.chunks.push(Arc::new(chunk));
    }

    /// Whether a read-ahead should generate the next chunk: the furthest cursor has
    /// taken the last retained one, the live stage stands after it and nothing is queued
    /// yet.
    fn wants_read_ahead(&self) -> bool {
        matches!(self.head, Head::Live(_))
            && self.first + self.chunks.len() == self.furthest
            && !self.queued
    }

    /// Drop the chunks behind a sole stage's cursor, which asks for chunk `index`, and
    /// keep `left`, the chunk it has read, as the buffer of the next generation.
    fn release_behind(&mut self, index: usize, left: Arc<Chunk>) {
        self.chunks.drain(..index - self.first);
        self.first = index;
        if let Ok(chunk) = Arc::try_unwrap(left) {
            self.spare = Some(chunk);
        }
    }
}

impl Shared {
    /// A stage over `stage` that retains as `retain` says, or a sole one; its cursors
    /// fold the passes they complete into `stream_wraps`.
    fn new(stage: PrivateStage, retain: Option<Retain>, stream_wraps: Arc<AtomicU64>) -> Arc<Self> {
        let (params, label) = (*stage.params(), stage.label());
        let checkpoint_bytes = stage.state().bytes();
        let mut memo = Memo {
            records: stage.records(),
            target_stats: stage.target_stats(),
            head: Head::Live(Box::new(stage)),
            ..Memo::default()
        };
        match &retain {
            // Every cursor continues from the empty stage at record 0.
            Some(retain) if !retain.pool.reserve(checkpoint_bytes) => memo.stop_retaining(),
            Some(_) => {
                memo.checkpoint_bytes = checkpoint_bytes;
                memo.tracker.set_bytes(checkpoint_bytes);
            }
            None => {}
        }
        Arc::new(Shared {
            params,
            label,
            retain,
            stream_wraps,
            cursors: AtomicU64::new(0),
            handovers: AtomicU64::new(0),
            memo: Mutex::new(memo),
            ready: Condvar::new(),
        })
    }

    /// Take a chunk's worth of bytes out of the pool before generating one; a sole stage
    /// draws on none.
    fn reserve_chunk(&self) -> bool {
        self.retain
            .as_ref()
            .is_none_or(|retain| retain.pool.reserve(MAX_CHUNK_BYTES))
    }

    /// The memo, whatever state it is in. No update panics half-way — a generation runs
    /// outside the lock and is recorded in the head either way — so a poisoned lock
    /// carries no more information than the memo itself.
    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memo once the stage is out of the read-ahead queue and no chunk is in flight.
    fn quiescent(self: &Arc<Self>) -> MutexGuard<'_, Memo> {
        let unqueued = READ_AHEAD.get().is_some_and(|queue| queue.release(self));
        let mut memo = self
            .ready
            .wait_while(self.lock(), |memo| matches!(memo.head, Head::Busy))
            .unwrap_or_else(PoisonError::into_inner);
        // Taken out of the queue unserved: a cursor may queue it again.
        if unqueued {
            memo.queued = false;
        }
        memo
    }

    /// Chunk `index` of the memo, for a cursor that has read `left`: retained, in flight
    /// (waited for), or generated now if the pool covers it — or, past the retained
    /// prefix, the checkpoint to continue from. A cursor that `reads_ahead` and is the
    /// first to take the memo's last chunk queues the stage for read-ahead. Raises a
    /// fault recorded at `index`.
    fn next_chunk(
        self: &Arc<Self>,
        index: usize,
        reads_ahead: bool,
        left: Arc<Chunk>,
    ) -> Result<Arc<Chunk>, Arc<StageState>> {
        let mut memo = self.lock();
        if self.retain.is_none() {
            memo.release_behind(index, left);
        }
        let mut waited = false;
        loop {
            if let Some(chunk) = memo.chunks.get(index - memo.first).cloned() {
                let furthest = index >= memo.furthest;
                memo.furthest = memo.furthest.max(index + 1);
                let queue = furthest && reads_ahead && memo.wants_read_ahead();
                memo.queued |= queue;
                drop(memo);
                if queue {
                    read_ahead_thread().queue(Arc::downgrade(self));
                }
                return Ok(chunk);
            }
            match &memo.head {
                Head::Live(_) => {
                    if self.reserve_chunk() {
                        memo = self.generate(memo).unwrap_or_else(|p| resume_unwind(p));
                    } else {
                        memo.stop_retaining();
                    }
                }
                Head::Busy => {
                    memo.waits += u64::from(!waited);
                    waited = true;
                    memo = self.help_or_wait(memo);
                }
                Head::Checkpoint(checkpoint) => return Err(checkpoint.clone()),
                Head::Failed(fault) => {
                    let fault = fault.clone();
                    drop(memo);
                    match fault {
                        Some(fault) => raise_replay_fault(&fault.stream, fault.message),
                        None => panic!(
                            "the trace source of stage {:?} panicked generating a chunk",
                            self.label
                        ),
                    }
                }
            }
        }
    }

    /// The chunk a cursor needs is in flight: serve one stage of the read-ahead queue on
    /// this thread meanwhile, or, if the queue is empty, sleep until the memo changes
    /// (module docs, "Read-ahead"). Out of line: it is rare, and `next_event` is inlined
    /// into the driver's loop.
    #[cold]
    #[inline(never)]
    fn help_or_wait<'a>(&'a self, memo: MutexGuard<'a, Memo>) -> MutexGuard<'a, Memo> {
        drop(memo);
        let helped = READ_AHEAD.get().is_some_and(|queue| queue.help());
        let memo = self.lock();
        if helped || !matches!(memo.head, Head::Busy) {
            return memo;
        }
        self.ready
            .wait(memo)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Generate the next chunk on the live stage outside the lock — the head is
    /// [`Head::Busy`] meanwhile — and retain it; the caller has reserved
    /// [`MAX_CHUNK_BYTES`] for it. If the trace source unwinds, the memo records the
    /// fault at its frontier and the payload is handed back.
    fn generate<'a>(
        &'a self,
        mut memo: MutexGuard<'a, Memo>,
    ) -> Result<MutexGuard<'a, Memo>, Box<dyn Any + Send>> {
        let Head::Live(mut stage) = std::mem::replace(&mut memo.head, Head::Busy) else {
            unreachable!("only the live stage generates")
        };
        let mut chunk = memo.spare.take().unwrap_or_default();
        drop(memo);
        let generated = catch_unwind(AssertUnwindSafe(|| chunk.generate(&mut stage)));
        let mut memo = self.lock();
        let pool = self.retain.as_ref().map(|retain| &*retain.pool);
        let generated = match generated {
            Ok(()) => {
                memo.push(chunk, &stage, pool);
                memo.head = Head::Live(stage);
                Ok(())
            }
            Err(payload) => {
                if let Some(pool) = pool {
                    pool.release(MAX_CHUNK_BYTES);
                }
                memo.head = Head::Failed(replay_fault_from(payload.as_ref()).cloned());
                Err(payload)
            }
        };
        self.ready.notify_all();
        generated.map(|()| memo)
    }

    /// Serve the stage out of the read-ahead queue, on the read-ahead thread or as a
    /// `helper`: generate the next chunk if the stage still stands where it was queued
    /// and the pool covers it. A fault stays recorded in the memo for the cursor that
    /// needs the chunk; it is not raised here.
    fn read_ahead(&self, helper: bool) {
        let mut memo = self.lock();
        memo.queued = false;
        if memo.wants_read_ahead() && self.reserve_chunk() {
            match self.generate(memo) {
                Ok(generated) => memo = generated,
                Err(_) => return,
            }
            if helper {
                memo.helps += 1;
            } else {
                memo.read_aheads += 1;
            }
        }
        drop(memo);
        self.ready.notify_all();
    }
}

/// `MultiCoreSystem::run` calls in progress in the process.
static RUNNING: AtomicUsize = AtomicUsize::new(0);

/// A [`crate::system::MultiCoreSystem::run`] in progress, counted for the read-ahead
/// thread's gate while the value lives; the thread is woken when one ends.
pub(crate) struct Running(());

impl Running {
    pub(crate) fn enter() -> Self {
        RUNNING.fetch_add(1, Ordering::Relaxed);
        Running(())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        RUNNING.fetch_sub(1, Ordering::Relaxed);
        if let Some(queue) = READ_AHEAD.get() {
            // Under the queue's lock, so the thread cannot miss it between checking the
            // count and parking.
            let _state = queue.lock();
            queue.queued.notify_one();
        }
    }
}

/// Fewer systems run than the host has hardware threads, so the read-ahead thread takes
/// none from them.
fn hardware_thread_idle() -> bool {
    static THREADS: OnceLock<usize> = OnceLock::new();
    let threads =
        *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    RUNNING.load(Ordering::Relaxed) < threads
}

/// The process's read-ahead queue and its one thread (module docs, "Read-ahead"),
/// started on first use. The thread parks while the queue is empty or no hardware thread
/// is idle; it lives as long as the process: nothing joins it. The thread and helpers
/// hold a stage only while they serve it.
struct ReadAhead {
    state: Mutex<ReadAheadState>,
    /// Signalled when a stage is queued or a run ends.
    queued: Condvar,
    /// Signalled when a thread lets go of a stage.
    released: Condvar,
}

#[derive(Default)]
struct ReadAheadState {
    queue: VecDeque<Weak<Shared>>,
    /// The addresses of the stages being served, once per thread serving one: the
    /// read-ahead thread and a helper may both hold a stage.
    serving: Vec<usize>,
}

impl ReadAheadState {
    /// Take the first queued stage whose handles are not all gone (one that is needs
    /// nothing) and note that it is being served.
    fn take(&mut self) -> Option<Arc<Shared>> {
        while let Some(stage) = self.queue.pop_front() {
            if let Some(stage) = stage.upgrade() {
                self.serving.push(Arc::as_ptr(&stage) as usize);
                return Some(stage);
            }
        }
        None
    }
}

static READ_AHEAD: OnceLock<&'static ReadAhead> = OnceLock::new();

fn read_ahead_thread() -> &'static ReadAhead {
    READ_AHEAD.get_or_init(|| {
        let thread: &'static ReadAhead = Box::leak(Box::new(ReadAhead {
            state: Mutex::default(),
            queued: Condvar::new(),
            released: Condvar::new(),
        }));
        std::thread::Builder::new()
            .name("stage-read-ahead".to_string())
            .spawn(|| thread.serve())
            .expect("spawn the read-ahead thread");
        thread
    })
}

impl ReadAhead {
    /// The queue; no update panics half-way, so a poisoned lock is as good as any.
    fn lock(&self) -> MutexGuard<'_, ReadAheadState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn queue(&self, stage: Weak<Shared>) {
        self.lock().queue.push_back(stage);
        self.queued.notify_one();
    }

    /// The read-ahead thread: serve the queue while a hardware thread is idle.
    fn serve(&self) -> ! {
        loop {
            let stage = {
                let mut state = self.lock();
                loop {
                    if hardware_thread_idle() {
                        if let Some(stage) = state.take() {
                            break stage;
                        }
                    }
                    state = self
                        .queued
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            stage.read_ahead(false);
            self.let_go(stage);
        }
    }

    /// Serve one queued stage on the calling thread, a cursor's that would otherwise
    /// wait; false if the queue is empty.
    fn help(&self) -> bool {
        let Some(stage) = self.lock().take() else {
            return false;
        };
        stage.read_ahead(true);
        self.let_go(stage);
        true
    }

    /// Stop serving `stage`.
    fn let_go(&self, stage: Arc<Shared>) {
        let at = Arc::as_ptr(&stage) as usize;
        drop(stage);
        let mut state = self.lock();
        let serving = state.serving.iter().position(|&s| s == at);
        state
            .serving
            .swap_remove(serving.expect("the stage is being served"));
        drop(state);
        self.released.notify_all();
    }

    /// Take `stage` out of the queue and wait until no thread serves it: after this no
    /// server can be the one that drops it. Whether it was queued.
    fn release(&self, stage: &Arc<Shared>) -> bool {
        let at = Arc::as_ptr(stage);
        let mut state = self.lock();
        let queued = state.queue.len();
        state
            .queue
            .retain(|queued| !std::ptr::eq(queued.as_ptr(), at));
        let unqueued = state.queue.len() < queued;
        while state.serving.contains(&(at as usize)) {
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        unqueued
    }
}

/// A [`PrivateStage`] whose events are generated on demand, memoized in shared chunks
/// and replayed by any number of concurrent [`StageCursor`]s (module docs, "The memo").
pub struct SharedStage(Arc<Shared>);

/// What a [`SharedStage`] has cost so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStageUsage {
    /// Records the shared stage drew from its trace source (the high-water mark across
    /// the cursors it served, rounded up to a chunk, plus any chunk read ahead); a cursor
    /// that left the memo draws its own, which are not counted here.
    pub records: u64,
    /// Events memoized.
    pub events: u64,
    /// Chunks memoized.
    pub chunks: u64,
    /// Bytes the memoized chunks hold.
    pub memo_bytes: u64,
    /// Bytes reserved for the checkpoint the memo keeps where it stops retaining (module
    /// docs, "The memo pool and the hand-over"); 0 when its pool could not cover them.
    pub checkpoint_bytes: u64,
    /// Cursors handed out.
    pub cursors: u64,
    /// Cursors that ran off a full memo and continued on a sole stage of their own.
    pub handovers: u64,
    /// Chunks the read-ahead thread generated (module docs, "Read-ahead").
    pub read_aheads: u64,
    /// Chunks a cursor of another stage generated while the chunk it needed was in
    /// flight (module docs, "Read-ahead").
    pub helps: u64,
    /// Times a cursor found the chunk it needed in flight and waited for it.
    pub waits: u64,
}

impl std::iter::Sum for SharedStageUsage {
    fn sum<I: Iterator<Item = Self>>(usages: I) -> Self {
        usages.fold(Self::default(), |a, b| SharedStageUsage {
            records: a.records + b.records,
            events: a.events + b.events,
            chunks: a.chunks + b.chunks,
            memo_bytes: a.memo_bytes + b.memo_bytes,
            checkpoint_bytes: a.checkpoint_bytes + b.checkpoint_bytes,
            cursors: a.cursors + b.cursors,
            handovers: a.handovers + b.handovers,
            read_aheads: a.read_aheads + b.read_aheads,
            helps: a.helps + b.helps,
            waits: a.waits + b.waits,
        })
    }
}

impl SharedStage {
    /// Share a stage over the stream `source` opens: `source(at)` must return a source
    /// standing at record `at` of the endless stream — what a source from the first
    /// record yields after `at` records, with as many [passes](TraceSource::passes)
    /// completed. The memo retains what `pool` covers, and cursors fold the passes they
    /// complete into `stream_wraps` — so the sources themselves should report to no
    /// shared counter.
    pub fn new(
        params: StageParams,
        source: impl Fn(u64) -> Box<dyn TraceSource> + Send + Sync + 'static,
        pool: Arc<MemoPool>,
        stream_wraps: Arc<AtomicU64>,
    ) -> Self {
        let stage = PrivateStage::new(params, source(0));
        let retain = Retain {
            source: Box::new(source),
            pool,
        };
        SharedStage(Shared::new(stage, Some(retain), stream_wraps))
    }

    pub fn params(&self) -> &StageParams {
        &self.0.params
    }

    /// A new independent cursor positioned at the first event.
    pub fn cursor(&self) -> StageCursor {
        self.0.cursors.fetch_add(1, Ordering::Relaxed);
        StageCursor {
            shared: self.0.clone(),
            chunk: Arc::default(),
            chunks_taken: 0,
            pos: 0,
            writebacks: 0..0,
            wraps: 0,
            reads_ahead: false,
        }
    }

    /// The one cursor of a stage over `trace` that can never hand out another: its memo
    /// keeps no prefix, only the chunk being read and the one being generated (module
    /// docs, "Release-behind"). Dropping the cursor drops `trace`.
    pub fn sole(params: StageParams, trace: Box<dyn TraceSource>) -> StageCursor {
        let stage = PrivateStage::new(params, trace);
        SharedStage(Shared::new(stage, None, Arc::default())).cursor()
    }

    /// What the stage has cost, once it is out of the read-ahead queue and no chunk is in
    /// flight: the numbers do not move unless a cursor asks for more.
    pub fn usage(&self) -> SharedStageUsage {
        let memo = self.0.quiescent();
        SharedStageUsage {
            records: memo.records,
            events: memo.events,
            chunks: memo.chunks.len() as u64,
            memo_bytes: memo.bytes,
            checkpoint_bytes: memo.checkpoint_bytes,
            cursors: self.0.cursors.load(Ordering::Relaxed),
            handovers: self.0.handovers.load(Ordering::Relaxed),
            read_aheads: memo.read_aheads,
            helps: memo.helps,
            waits: memo.waits,
        }
    }
}

impl Drop for SharedStage {
    /// The stage leaves the read-ahead queue and every thread serving it lets go of it
    /// first, so a stage whose cursors are gone returns its memo's bytes before `drop`
    /// does. (Cursors that outlive it read on, though they may no longer read ahead.)
    fn drop(&mut self) {
        if let Some(queue) = READ_AHEAD.get() {
            queue.release(&self.0);
        }
    }
}

/// One consumer's position over a [`SharedStage`].
pub struct StageCursor {
    shared: Arc<Shared>,
    /// Local handle on the chunk being read (no lock between chunk boundaries).
    chunk: Arc<Chunk>,
    chunks_taken: usize,
    /// The next event in `chunk`.
    pos: usize,
    /// The last event's blocks in the chunk's write-back side array.
    writebacks: std::ops::Range<usize>,
    /// Passes over the stream completed by the events moved to so far.
    wraps: u64,
    /// The cursor feeds a system, whose replay of a chunk a read-ahead may overlap with
    /// generating the next (module docs, "Read-ahead").
    reads_ahead: bool,
}

impl StageCursor {
    pub fn params(&self) -> &StageParams {
        &self.shared.params
    }

    /// Queue the stage for read-ahead of the chunk after the one this cursor takes when
    /// it is the furthest: what a system's cursors do.
    pub(crate) fn read_ahead(mut self) -> Self {
        self.reads_ahead = true;
        self
    }

    /// Label of the stage's trace source.
    pub fn label(&self) -> &str {
        &self.shared.label
    }

    /// Move to the next event; it and its [`writebacks`](Self::writebacks) are read in
    /// place, from the chunk. Panics past a [frozen](Event::frozen) event, like the
    /// stage.
    pub fn next_event(&mut self) -> &Event {
        if self.pos == self.chunk.events.len() {
            self.take_chunk();
        }
        let event = &self.chunk.events[self.pos];
        self.pos += 1;
        self.writebacks = self.writebacks.end..self.writebacks.end + event.writebacks();
        if event.wraps > 0 {
            self.wraps += u64::from(event.wraps);
            self.shared
                .stream_wraps
                .fetch_max(self.wraps, Ordering::Relaxed);
        }
        event
    }

    /// The event last moved to. Panics before the first [`next_event`](Self::next_event).
    pub fn event(&self) -> &Event {
        &self.chunk.events[self.pos - 1]
    }

    /// Write-back blocks of the event last moved to: the demand's, then the prefetch's.
    pub fn writebacks(&self) -> &[BlockAddr] {
        &self.chunk.writebacks[self.writebacks.clone()]
    }

    /// [`PrivateStage::target_stats`] of the stage the cursor reads: `Some` once any
    /// consumer of it has been handed the event that reached the target.
    pub fn target_stats(&self) -> Option<PrivateStats> {
        self.shared.lock().target_stats
    }

    /// Move to the next chunk: of the memo — generated now if no cursor needed it before
    /// and the pool covers it — or, off the retained prefix, of a sole stage of the
    /// cursor's own, continued from the memo's checkpoint over a source that starts there.
    fn take_chunk(&mut self) {
        self.pos = 0;
        self.writebacks = 0..0;
        let left = std::mem::take(&mut self.chunk);
        match self
            .shared
            .next_chunk(self.chunks_taken, self.reads_ahead, left)
        {
            Ok(chunk) => {
                self.chunk = chunk;
                self.chunks_taken += 1;
            }
            Err(checkpoint) => {
                let retain = self.shared.retain.as_ref();
                let source = &retain.expect("a sole stage never stops retaining").source;
                let state = StageState::clone(&checkpoint);
                let trace = source(state.records());
                self.shared.handovers.fetch_add(1, Ordering::Relaxed);
                let stream_wraps = self.shared.stream_wraps.clone();
                self.shared = Shared::new(PrivateStage::resume(state, trace), None, stream_wraps);
                self.chunks_taken = 0;
                self.take_chunk();
            }
        }
    }
}

impl Drop for StageCursor {
    /// A sole stage's cursor is its only handle: it releases the stage as dropping a
    /// [`SharedStage`] does, so the trace source is gone when `drop` returns.
    fn drop(&mut self) {
        if let (None, Some(queue)) = (&self.shared.retain, READ_AHEAD.get()) {
            queue.release(&self.shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MemAccess, SharedReplayTrace};
    use std::sync::{mpsc, Barrier};
    use std::time::{Duration, Instant};

    fn params() -> StageParams {
        StageParams::latch(&SystemConfig::tiny(1), 3_000)
    }

    /// Reads and writes scattered over 600 blocks (more than the tiny L2 holds), so
    /// events carry every flag and dirty victims leave the L2; 5000 records, then over.
    fn scatter() -> SharedReplayTrace {
        let records = (0..5000u64)
            .map(|i| MemAccess {
                addr: (i * 7919 % 600) * 64,
                pc: 0x400 + i % 13 * 4,
                is_write: i % 3 == 0,
                non_mem_instrs: (i % 4) as u32,
            })
            .collect();
        SharedReplayTrace::new("scatter", Arc::new(records))
    }

    fn source() -> Box<dyn TraceSource> {
        Box::new(scatter())
    }

    /// The next event of `stage` and its write-back blocks.
    fn step(stage: &mut PrivateStage) -> (Event, Vec<BlockAddr>) {
        let mut writebacks = Vec::new();
        (stage.next_event(&mut writebacks), writebacks)
    }

    /// The next chunk of `stage`.
    fn chunk_of(stage: &mut PrivateStage) -> Chunk {
        let mut chunk = Chunk::default();
        chunk.generate(stage);
        chunk
    }

    /// A stage over `trace` whose memo keeps everything, so it never asks for a source
    /// standing anywhere but at the first record, and so for no second one.
    fn unbounded(trace: Box<dyn TraceSource>) -> SharedStage {
        unbounded_at(params(), trace)
    }

    fn unbounded_at(params: StageParams, trace: Box<dyn TraceSource>) -> SharedStage {
        let trace = Mutex::new(Some(trace));
        SharedStage::new(
            params,
            move |at| {
                assert_eq!(at, 0, "an unbounded memo never hands over");
                trace.lock().unwrap().take().expect("one source")
            },
            MemoPool::new(u64::MAX),
            Arc::default(),
        )
    }

    /// The scatter stream from record `next` on, counting every record it serves in
    /// `draws`, by its index in the endless stream.
    struct Counted {
        inner: SharedReplayTrace,
        next: u64,
        draws: Arc<Mutex<Vec<u32>>>,
    }

    impl TraceSource for Counted {
        fn next_access(&mut self) -> MemAccess {
            let mut draws = self.draws.lock().unwrap();
            let at = self.next as usize;
            if draws.len() <= at {
                draws.resize(at + 1, 0);
            }
            draws[at] += 1;
            self.next += 1;
            self.inner.next_access()
        }
        fn reset(&mut self) {
            unreachable!("a stage never resets its source")
        }
        fn label(&self) -> String {
            self.inner.label()
        }
        fn passes(&self) -> Option<u64> {
            self.inner.passes()
        }
    }

    #[test]
    fn shared_stage_matches_an_inline_stage_and_generates_once() {
        let shared = unbounded(source());
        let (mut a, mut b) = (shared.cursor().read_ahead(), shared.cursor().read_ahead());
        assert_eq!(a.label(), source().label());
        // Drive each cursor past two chunk boundaries, beside a stage of its own.
        let n = 2 * CHUNK_EVENTS + 100;
        let mut last_records = 0;
        for cursor in [&mut a, &mut b] {
            let mut inline = PrivateStage::new(params(), source());
            let mut seen_writebacks = 0;
            for i in 0..n {
                let (want, writebacks) = step(&mut inline);
                assert_eq!(*cursor.next_event(), want, "event {i}");
                assert_eq!(cursor.writebacks(), writebacks, "event {i}");
                seen_writebacks += cursor.writebacks().len();
                if want.reaches_target() {
                    assert_eq!(cursor.target_stats(), inline.target_stats());
                    assert!(inline.target_stats().is_some());
                }
            }
            assert!(seen_writebacks > 0, "no dirty victim left the L2");
            assert!(inline.target_stats().is_some(), "target never reached");
            last_records = inline.records();
        }
        // Both cursors consumed n events; the stage ran once, at most the rest of the
        // furthest cursor's chunk and one chunk read ahead further.
        let usage = shared.usage();
        assert_eq!((usage.cursors, usage.handovers), (2, 0));
        assert!((n as u64..n as u64 + 2 * CHUNK_EVENTS as u64).contains(&usage.events));
        assert!(usage.chunks >= 3 && usage.chunks <= usage.events);
        assert!(
            (last_records..last_records + 2 * (CHUNK_RECORDS + RUN_AHEAD)).contains(&usage.records),
            "drew {} records for {last_records} consumed",
            usage.records
        );
        let event_bytes = usage.events * std::mem::size_of::<Event>() as u64;
        assert!(usage.memo_bytes >= event_bytes && usage.memo_bytes < 2 * event_bytes);
        assert!(usage.memo_bytes <= usage.chunks * MAX_CHUNK_BYTES);
    }

    /// Three cursors over one stage whose pool covers nothing, the checkpoint and one
    /// chunk, everything: each sees an inline stage's events and write-backs, across the
    /// hand-over — every cursor continues from the memo's checkpoint over a source that
    /// starts exactly where the retained prefix ends, so no record below it is drawn
    /// twice — and the stream's wrap counter ends at one consumer's passes, not at three
    /// times that or at what the shared stage drew ahead.
    #[test]
    fn cursors_continue_on_their_own_stage_past_a_full_memo() {
        let n = 5 * CHUNK_EVENTS + 100;
        let mut inline = PrivateStage::new(params(), source());
        let want: Vec<(Event, Vec<BlockAddr>)> = (0..n).map(|_| step(&mut inline)).collect();
        let passes: u64 = want.iter().map(|(e, _)| u64::from(e.wraps)).sum();
        assert!(passes > 0, "the stream must wrap under the cursors");
        let target_stats = inline.target_stats();
        assert!(target_stats.is_some());

        let checkpoint = inline.state().bytes();
        for (share, retained) in [(0, 0), (checkpoint + MAX_CHUNK_BYTES, 1), (u64::MAX, 6)] {
            let stream_wraps = Arc::new(AtomicU64::new(0));
            let pool = MemoPool::new(share);
            let asked = Arc::new(Mutex::new(Vec::new()));
            let draws: Arc<Mutex<Vec<u32>>> = Arc::default();
            let counted = {
                let (asked, draws) = (asked.clone(), draws.clone());
                move |at| -> Box<dyn TraceSource> {
                    asked.lock().unwrap().push(at);
                    Box::new(Counted {
                        inner: scatter().seek(at),
                        next: at,
                        draws: draws.clone(),
                    })
                }
            };
            let shared = SharedStage::new(params(), counted, pool.clone(), stream_wraps.clone());
            // The first cursor runs to the end alone; the other two in lock-step.
            let mut cursors = [shared.cursor(), shared.cursor(), shared.cursor()];
            let (first, rest) = cursors.split_at_mut(1);
            for (i, (event, writebacks)) in want.iter().enumerate() {
                assert_eq!(first[0].next_event(), event, "share {share}, event {i}");
                assert_eq!(
                    first[0].writebacks(),
                    writebacks,
                    "share {share}, event {i}"
                );
                assert_eq!(first[0].event(), event);
            }
            for (i, (event, writebacks)) in want.iter().enumerate() {
                for cursor in rest.iter_mut() {
                    assert_eq!(cursor.next_event(), event, "share {share}, event {i}");
                    assert_eq!(cursor.writebacks(), writebacks, "share {share}, event {i}");
                }
            }
            for cursor in &cursors {
                assert_eq!(cursor.target_stats(), target_stats, "share {share}");
            }
            let usage = shared.usage();
            assert_eq!(usage.chunks, retained, "share {share}");
            assert!(usage.memo_bytes <= share);
            assert_eq!(
                usage.checkpoint_bytes,
                if share == 0 { 0 } else { checkpoint }
            );
            if share != u64::MAX {
                let left = pool.left.load(Ordering::Relaxed);
                let held = usage.memo_bytes + usage.checkpoint_bytes;
                assert_eq!(left + held, share, "the pool lost bytes");
            }
            assert_eq!(usage.handovers, if share == u64::MAX { 0 } else { 3 });
            // The stage opened one source at the first record, and every hand-over one
            // where the retained prefix ends; below it, only the live stage drew.
            let handovers = usage.handovers as usize;
            let mut want_asked = vec![usage.records; handovers + 1];
            want_asked[0] = 0;
            assert_eq!(*asked.lock().unwrap(), want_asked, "share {share}");
            let draws: &[u32] = &draws.lock().unwrap();
            for (at, &drawn) in draws.iter().enumerate() {
                let want = if (at as u64) < usage.records {
                    1
                } else {
                    handovers
                };
                assert_eq!(drawn as usize, want, "share {share}, record {at}");
            }
            assert_eq!(
                stream_wraps.load(Ordering::Relaxed),
                passes,
                "share {share}"
            );
        }
    }

    type Stall = (mpsc::Sender<()>, mpsc::Receiver<()>);

    /// The scatter stream, which at its `left`-th record announces it on `stall` and
    /// waits to be let go, if asked to, and then raises a typed fault, like a decoder that
    /// meets corruption — or, if not `fault`, reads on.
    struct Faulty {
        inner: Box<dyn TraceSource>,
        left: u64,
        stall: Option<Stall>,
        fault: bool,
    }

    impl TraceSource for Faulty {
        fn next_access(&mut self) -> MemAccess {
            if self.left == 0 {
                if let Some((reached, release)) = self.stall.take() {
                    reached.send(()).unwrap();
                    release.recv().unwrap();
                }
                if self.fault {
                    raise_replay_fault("scatter", "injected".to_string());
                }
            } else {
                self.left -= 1;
            }
            self.inner.next_access()
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    fn faulty(left: u64, stall: Option<Stall>) -> Box<Faulty> {
        Box::new(Faulty {
            inner: source(),
            left,
            stall,
            fault: true,
        })
    }

    /// The scatter stream, pausing at its `left`-th record until let go.
    fn parked(left: u64, stall: Stall) -> Box<Faulty> {
        Box::new(Faulty {
            stall: Some(stall),
            fault: false,
            ..*faulty(left, None)
        })
    }

    /// Lets a parked source go when dropped.
    struct LetGo(mpsc::Sender<()>);

    impl Drop for LetGo {
        fn drop(&mut self) {
            // A source that met no stall has hung up.
            let _ = self.0.send(());
        }
    }

    /// Every hardware thread counted as running a system while the guards live: the
    /// read-ahead thread leaves the queue alone, to helpers.
    fn occupy_hardware_threads() -> Vec<Running> {
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        (0..threads).map(|_| Running::enter()).collect()
    }

    /// `stage`, whose furthest cursor has just taken the memo's first chunk, is in the
    /// read-ahead queue, or a helper of a test running beside this one has taken it out.
    fn queued_or_served(stage: &SharedStage) -> bool {
        let memo = stage.0.lock();
        memo.queued || memo.chunks.len() > 1 || !matches!(memo.head, Head::Live(_))
    }

    /// Poll `done` until it holds, for at most a minute.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    /// The records the first chunk over the scatter stream draws, and the events of its
    /// first two chunks.
    fn first_two_chunks() -> (u64, Vec<Event>) {
        let mut stage = PrivateStage::new(params(), source());
        let mut events = chunk_of(&mut stage).events;
        let first_records = stage.records();
        events.extend(chunk_of(&mut stage).events);
        (first_records, events)
    }

    /// The typed fault `cursor` raises when it reads on.
    fn fault_of(cursor: &mut StageCursor) -> ReplayFault {
        let unwound = catch_unwind(AssertUnwindSafe(|| loop {
            cursor.next_event();
        }));
        let payload = unwound.expect_err("the source faults");
        replay_fault_from(payload.as_ref())
            .expect("a typed replay fault")
            .clone()
    }

    /// A fault under the cursor that generates reaches every other cursor as the same
    /// typed fault, not as a poisoned lock; what was memoized before it stays readable.
    /// A fault under the read-ahead thread is recorded at the memo's frontier: cursors
    /// that stop short of it finish, one that waits on the failing chunk wakes up to it,
    /// and the thread goes on serving other stages.
    #[test]
    fn a_replay_fault_under_one_cursor_is_raised_to_every_cursor() {
        let shared = unbounded(faulty(CHUNK_RECORDS + 100, None));
        let (mut a, mut b) = (shared.cursor(), shared.cursor());
        // `a` generates chunks until the source faults under it; `b` replays those from
        // the memo and is told of the fault when it needs the next one.
        for cursor in [&mut a, &mut b] {
            let fault = fault_of(cursor);
            assert_eq!(
                (fault.stream.as_str(), fault.message.as_str()),
                ("scatter", "injected")
            );
        }
        let memoized = shared.usage().events;
        assert!(memoized >= CHUNK_EVENTS as u64);
        assert_eq!(fault_of(&mut shared.cursor()).message, "injected");
        assert_eq!(shared.usage().events, memoized);

        // Where the stream's first two chunks end, in records and events, and the events
        // two cursors then read: into the second chunk, past the target.
        let mut stage = PrivateStage::new(params(), source());
        let first = chunk_of(&mut stage).events.len();
        let first_records = stage.records();
        let second = chunk_of(&mut stage).events.len();
        let second_records = stage.records();
        let mut inline = PrivateStage::new(params(), source());
        let mut want = Vec::new();
        while want.len() <= first || inline.target_stats().is_none() {
            want.push(step(&mut inline).0);
        }
        assert!(
            want.len() <= first + second,
            "the target lies past the second chunk"
        );

        // The fault lies in the third chunk, which only a read-ahead generates.
        let shared = unbounded(faulty(second_records + 1, None));
        let mut cursors = [shared.cursor().read_ahead(), shared.cursor().read_ahead()];
        for cursor in &mut cursors {
            for (i, event) in want.iter().enumerate() {
                assert_eq!(cursor.next_event(), event, "event {i}");
            }
        }
        eventually("no read-ahead met the fault", || {
            matches!(shared.0.lock().head, Head::Failed(Some(_)))
        });
        assert_eq!(shared.usage().chunks, 2);
        for cursor in &cursors {
            assert_eq!(cursor.target_stats(), inline.target_stats());
        }
        assert_eq!(fault_of(&mut shared.cursor()).message, "injected");
        let other = unbounded(source());
        other.cursor().read_ahead().next_event();
        eventually("the read-ahead queue is no longer served", || {
            let memo = other.0.lock();
            memo.read_aheads + memo.helps == 1
        });

        // The fault lies in the second chunk; the read-ahead thread stalls on it until
        // the cursor that needs that chunk waits for it.
        let timeout = Duration::from_secs(60);
        let (reached, reached_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let shared = unbounded(faulty(first_records + 1, Some((reached, release_rx))));
        let mut cursor = shared.cursor().read_ahead();
        cursor.next_event();
        reached_rx
            .recv_timeout(timeout)
            .expect("the read-ahead thread generates the second chunk");
        let (raised, raised_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || raised.send(fault_of(&mut cursor)).unwrap());
        let deadline = Instant::now() + timeout;
        while shared.0.lock().waits == 0 {
            assert!(Instant::now() < deadline, "the cursor never waited");
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        let fault = raised_rx
            .recv_timeout(timeout)
            .expect("the waiting cursor wakes up");
        assert_eq!(fault.message, "injected");
        waiter.join().unwrap();
        let usage = shared.usage();
        assert_eq!(
            (usage.chunks, usage.read_aheads, usage.helps, usage.waits),
            (1, 0, 0, 1)
        );
    }

    /// While a cursor of stage A generates A's second chunk, parked, a second cursor of A
    /// needs that chunk and serves the read-ahead queue instead of sleeping: it generates
    /// the next chunk of `b`, which a read-ahead cursor has just queued (the gate keeps
    /// the read-ahead thread off). Returns that cursor, standing in `b`'s first chunk,
    /// once the chunk is generated or has failed; A's cursors have each seen an inline
    /// stage's events by then.
    fn help_while_parked(b: &SharedStage) -> StageCursor {
        let _busy = occupy_hardware_threads();
        let (first_records, want) = first_two_chunks();
        let (reached, reached_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let a = unbounded(parked(first_records + 1, (reached, release_rx)));
        let read = |mut cursor: StageCursor, want: &[Event]| {
            for (i, event) in want.iter().enumerate() {
                assert_eq!(cursor.next_event(), event, "event {i} of A");
            }
        };

        let mut queued = b.cursor().read_ahead();
        queued.next_event();
        assert!(queued_or_served(b), "a busy host still queues");
        std::thread::scope(|scope| {
            // Lets A's generation go however the checks below end, so the scope can join.
            let release = LetGo(release);
            let generating = scope.spawn(|| read(a.cursor(), &want));
            reached_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a cursor of A generates its second chunk");
            let helping = scope.spawn(|| read(a.cursor(), &want));
            eventually("the second cursor of A never waited", || {
                a.0.lock().waits == 1
            });
            eventually("no cursor served the queued stage", || {
                let memo = b.0.lock();
                memo.helps == 1 || matches!(memo.head, Head::Failed(_))
            });
            assert!(
                matches!(a.0.lock().head, Head::Busy),
                "A's generation moved on"
            );
            drop(release);
            generating.join().unwrap();
            helping.join().unwrap();
        });
        let usage = a.usage();
        assert_eq!((usage.chunks, usage.read_aheads, usage.helps), (2, 0, 0));
        queued
    }

    #[test]
    fn read_ahead_by_a_cursor_waiting_on_another_stage() {
        let b = unbounded(source());
        let mut cursor = help_while_parked(&b);
        let usage = b.usage();
        assert_eq!((usage.chunks, usage.read_aheads, usage.helps), (2, 0, 1));
        let mut inline = PrivateStage::new(params(), source());
        assert_eq!(*cursor.event(), step(&mut inline).0);
        for i in 1..3 * CHUNK_EVENTS {
            let (event, writebacks) = step(&mut inline);
            assert_eq!(*cursor.next_event(), event, "event {i} of B");
            assert_eq!(cursor.writebacks(), writebacks, "event {i} of B");
        }
    }

    /// The helper that meets a fault goes on waiting for its own chunk; the fault is
    /// recorded in the helped stage and raised, typed, to the cursor that needs the
    /// failed chunk — and to no cursor that stops short of it.
    #[test]
    fn read_ahead_fault_under_a_helper_reaches_only_the_cursor_that_needs_it() {
        let (first_records, want) = first_two_chunks();
        let b = unbounded(faulty(first_records + 1, None));
        let mut cursor = help_while_parked(&b);
        assert!(matches!(b.0.lock().head, Head::Failed(Some(_))));
        let usage = b.usage();
        assert_eq!((usage.chunks, usage.read_aheads, usage.helps), (1, 0, 0));
        let first = usage.events as usize;
        let mut short = b.cursor();
        for (i, event) in want[..first].iter().enumerate() {
            assert_eq!(short.next_event(), event, "event {i} of B");
        }
        for event in &want[1..first] {
            assert_eq!(cursor.next_event(), event);
        }
        let fault = fault_of(&mut cursor);
        assert_eq!(
            (fault.stream.as_str(), fault.message.as_str()),
            ("scatter", "injected")
        );
    }

    /// Chunk buffers a sole stage holds: the retained chunks (the one its cursor reads,
    /// and one read ahead), the spare, and the one in flight.
    fn buffers(cursor: &StageCursor) -> usize {
        let memo = cursor.shared.lock();
        memo.chunks.len()
            + usize::from(memo.spare.is_some())
            + usize::from(matches!(memo.head, Head::Busy))
    }

    /// Over a long generator, a sole stage's memo keeps the chunk its cursor reads and
    /// at most one more buffer — the chunk read ahead, the spare or the one in flight —
    /// and its cursor sees the stage's events.
    #[test]
    fn read_ahead_of_a_sole_stage_holds_at_most_two_chunk_buffers() {
        let mut inline = PrivateStage::new(params(), source());
        let mut cursor = SharedStage::sole(params(), source()).read_ahead();
        let mut most = 0;
        for i in 0..40 * CHUNK_EVENTS {
            let (event, writebacks) = step(&mut inline);
            assert_eq!(*cursor.next_event(), event, "event {i}");
            assert_eq!(cursor.writebacks(), writebacks, "event {i}");
            most = most.max(buffers(&cursor));
        }
        assert!(most <= 2, "a sole stage held {most} chunk buffers");
        assert!(
            cursor.chunks_taken > 40,
            "the stream ran over {} chunks",
            cursor.chunks_taken
        );
        let memo = cursor.shared.lock();
        assert_eq!(
            memo.first + 1,
            cursor.chunks_taken,
            "a chunk behind the cursor is kept"
        );
        assert_eq!(
            (memo.bytes, memo.checkpoint_bytes),
            (0, 0),
            "a sole stage drew on a pool"
        );
    }

    /// Lets `dropped` know when the source is dropped.
    struct Watched {
        inner: Box<dyn TraceSource>,
        dropped: Arc<std::sync::atomic::AtomicBool>,
    }

    impl TraceSource for Watched {
        fn next_access(&mut self) -> MemAccess {
            self.inner.next_access()
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    impl Drop for Watched {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    /// A one-core system whose run ends inside its stage's first chunk, with the second
    /// chunk's read-ahead parked in its source: dropping the system waits for the thread
    /// serving the stage, so the source has been dropped by the time `drop` returns.
    #[test]
    fn read_ahead_parked_under_a_dropped_system_lets_go_of_its_source_first() {
        // A target inside the first chunk, which therefore ends at it.
        let params = StageParams {
            instruction_target: 1_000,
            ..params()
        };
        let mut stage = PrivateStage::new(params, source());
        let first = chunk_of(&mut stage);
        assert!(first.events.last().unwrap().reaches_target());
        let first_records = stage.records();
        let (reached, reached_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let source = Watched {
            inner: parked(first_records + 1, (reached, release_rx)),
            dropped: dropped.clone(),
        };
        let config = SystemConfig::tiny(1);

        let policy = crate::llc::tests::TestSrrip::new(
            config.llc.geometry.num_sets(),
            config.llc.geometry.ways,
        );
        let mut system = crate::system::MultiCoreSystem::with_stages(
            config,
            vec![SharedStage::sole(params, Box::new(source))],
            policy,
        );
        // Lets the parked generation go however the checks below end, before the system
        // is dropped.
        let release = LetGo(release);
        system.run(params.instruction_target);
        // The read-ahead thread or a helper serves the queued stage and parks.
        reached_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a read-ahead generates the second chunk");
        let (done, done_rx) = mpsc::channel();
        let dropping = std::thread::spawn({
            let dropped = dropped.clone();
            move || {
                drop(system);
                done.send(dropped.load(Ordering::SeqCst)).unwrap();
            }
        });
        // The serving thread holds the stage until it is let go.
        assert!(
            !dropped.load(Ordering::SeqCst),
            "the parked source was dropped"
        );
        drop(release);
        let source_dropped = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the drop returns once the read-ahead lets go");
        assert!(source_dropped, "the system's source outlived its drop");
        dropping.join().unwrap();
    }

    /// A cursor that runs off a one-chunk memo continues on a sole stage of its own,
    /// which is read ahead like the memo was: its second chunk is generated while the
    /// cursor reads the first.
    #[test]
    fn read_ahead_of_a_cursor_that_handed_over() {
        let checkpoint = PrivateStage::new(params(), source()).state().bytes();
        let seek = |at| -> Box<dyn TraceSource> { Box::new(scatter().seek(at)) };
        let pool = MemoPool::new(checkpoint + MAX_CHUNK_BYTES);
        let shared = SharedStage::new(params(), seek, pool, Arc::default());
        let mut inline = PrivateStage::new(params(), source());
        let mut cursor = shared.cursor().read_ahead();
        let mut i = 0;
        while Arc::ptr_eq(&cursor.shared, &shared.0) {
            assert_eq!(*cursor.next_event(), step(&mut inline).0, "event {i}");
            i += 1;
        }
        assert_eq!((shared.usage().chunks, shared.usage().handovers), (1, 1));
        eventually("the sole stage's second chunk is not read ahead", || {
            let memo = cursor.shared.lock();
            memo.read_aheads + memo.helps == 1
        });
        for i in i..i + 3 * CHUNK_EVENTS {
            let (event, writebacks) = step(&mut inline);
            assert_eq!(*cursor.next_event(), event, "event {i}");
            assert_eq!(cursor.writebacks(), writebacks, "event {i}");
        }
    }

    /// `usage` takes a queued stage out of the queue rather than wait for the read-ahead
    /// thread, which the gate keeps off while every hardware thread runs a system; the
    /// stage is queued again when its furthest cursor takes the memo's last chunk.
    #[test]
    fn read_ahead_queue_holds_up_no_usage_on_a_busy_host() {
        let busy = occupy_hardware_threads();
        let shared = unbounded(source());
        let mut cursor = shared.cursor().read_ahead();
        cursor.next_event();
        assert!(queued_or_served(&shared), "a busy host still queues");
        let (done, done_rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let usage = shared.usage();
            done.send((shared, usage)).unwrap();
        });
        let (shared, usage) = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("usage returns on a busy host");
        reader.join().unwrap();
        // A helper of a test running beside this one may have served the stage.
        assert_eq!((usage.chunks, usage.read_aheads), (1 + usage.helps, 0));
        assert!(!shared.0.lock().queued);

        // Through the first chunk, and one event into the second.
        let first = chunk_of(&mut PrivateStage::new(params(), source()))
            .events
            .len();
        for _ in 0..first {
            cursor.next_event();
        }
        eventually("the stage is not queued again", || {
            let memo = shared.0.lock();
            memo.queued || memo.chunks.len() > memo.furthest
        });
        drop(busy);
    }

    /// Four cursors on four threads against the read-ahead thread and one another as
    /// helpers, at a pool of `share` bytes: each sees an inline stage's events, write-backs and target
    /// statistics, the pool loses no byte, and the quiescent memo holds the chunks the
    /// furthest cursor took, or one more read ahead.
    fn read_ahead_against_four_cursors(share: u64) {
        let n = 5 * CHUNK_EVENTS + 100;
        let mut inline = PrivateStage::new(params(), source());
        let want: Vec<(Event, Vec<BlockAddr>)> = (0..n).map(|_| step(&mut inline)).collect();
        let target_stats = inline.target_stats();
        assert!(target_stats.is_some());

        let pool = MemoPool::new(share);
        let seek = |at| -> Box<dyn TraceSource> { Box::new(scatter().seek(at)) };
        let shared = SharedStage::new(params(), seek, pool.clone(), Arc::default());
        let (start, memo) = (Barrier::new(4), &shared.0);
        let taken: Vec<Option<usize>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|reader| {
                    let (mut cursor, want, start) = (shared.cursor().read_ahead(), &want, &start);
                    scope.spawn(move || {
                        start.wait();
                        for (i, (event, writebacks)) in want.iter().enumerate() {
                            assert_eq!(cursor.next_event(), event, "reader {reader}, event {i}");
                            assert_eq!(
                                cursor.writebacks(),
                                writebacks,
                                "reader {reader}, event {i}"
                            );
                        }
                        assert_eq!(cursor.target_stats(), target_stats, "reader {reader}");
                        // A cursor that handed over took every retained chunk.
                        let on_memo = Arc::ptr_eq(&cursor.shared, memo);
                        on_memo.then_some(cursor.chunks_taken)
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });

        let usage = shared.usage();
        let furthest = taken
            .iter()
            .map(|&taken| taken.map_or(usage.chunks, |taken| taken as u64))
            .max()
            .unwrap();
        assert!(
            (furthest..=furthest + 1).contains(&usage.chunks),
            "{} chunks retained, the furthest cursor took {furthest}",
            usage.chunks
        );
        // The first chunk is generated by a cursor: nothing is queued before it exists.
        assert!(usage.read_aheads + usage.helps < usage.chunks.max(1));
        assert_eq!(usage.handovers, if share == u64::MAX { 0 } else { 4 });
        if share != u64::MAX {
            let left = pool.left.load(Ordering::Relaxed);
            let held = usage.memo_bytes + usage.checkpoint_bytes;
            assert_eq!(left + held, share, "the pool lost bytes");
        }
    }

    #[test]
    fn read_ahead_with_an_empty_pool() {
        read_ahead_against_four_cursors(0);
    }

    #[test]
    fn read_ahead_with_a_pool_of_the_checkpoint_and_one_chunk() {
        let checkpoint = PrivateStage::new(params(), source()).state().bytes();
        read_ahead_against_four_cursors(checkpoint + MAX_CHUNK_BYTES);
    }

    #[test]
    fn read_ahead_with_an_unbounded_pool() {
        read_ahead_against_four_cursors(u64::MAX);
    }

    #[test]
    fn stage_cursors_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<StageCursor>();
        assert_send::<SharedStage>();
    }

    /// A stream that stays in the L1 forms no event of its own accord; a chunk still
    /// ends after `CHUNK_RECORDS` records, however few events that is (the target lies
    /// beyond them).
    #[test]
    fn chunks_of_a_cache_resident_core_are_bounded_in_records() {
        let resident = || -> Box<dyn TraceSource> {
            Box::new(crate::trace::StridedTrace::new(0, 64, 1024, 3))
        };
        let params = StageParams {
            instruction_target: u64::MAX,
            ..params()
        };
        let shared = unbounded_at(params, resident());
        shared.cursor().next_event();
        let usage = shared.usage();
        assert_eq!(usage.chunks, 1);
        assert!(usage.events < CHUNK_EVENTS as u64);
        assert!((CHUNK_RECORDS..CHUNK_RECORDS + RUN_AHEAD + 1).contains(&usage.records));
    }

    #[test]
    fn a_gap_ends_before_its_counters_overflow() {
        // L1-resident after two records, u32::MAX non-memory instructions each: the
        // second private record would overflow the gap's instruction count.
        let records = vec![
            MemAccess {
                addr: 0,
                pc: 0,
                is_write: false,
                non_mem_instrs: u32::MAX,
            };
            8
        ];
        let trace = SharedReplayTrace::new("wide", Arc::new(records));
        let mut stage = PrivateStage::new(
            StageParams {
                instruction_target: u64::MAX,
                ..params()
            },
            Box::new(trace),
        );
        let miss = step(&mut stage).0;
        assert!(!miss.l1_hit() && miss.gap_instructions == 0);
        let hit = step(&mut stage).0;
        assert!(hit.l1_hit());
        assert_eq!(hit.gap_instructions, 0, "one record fills the counter");
        assert_eq!(stage.records(), 2);
    }

    /// A one-record stream loops on every record — a tiny imported trace — so an event
    /// of a full gap crosses the stream's end `RUN_AHEAD + 1` times, the most its wrap
    /// byte holds. Each event carries exactly the passes its records completed, and
    /// those add up to the source's passes, directly and through a cursor.
    #[test]
    fn events_of_a_one_record_stream_carry_every_pass() {
        let record = MemAccess {
            addr: 0x40,
            pc: 0x400,
            is_write: false,
            non_mem_instrs: 2,
        };
        let one = move || SharedReplayTrace::new("one", Arc::new(vec![record]));
        let mut stage = PrivateStage::new(params(), Box::new(one()));
        let mut want = Vec::new();
        while want.len() < 3 * CHUNK_EVENTS {
            let (records, passes) = (stage.records(), stage.trace.passes().unwrap());
            let event = step(&mut stage).0;
            let completed = stage.trace.passes().unwrap() - passes;
            assert_eq!(completed, stage.records() - records, "a pass per record");
            assert_eq!(u64::from(event.wraps), completed, "event {}", want.len());
            want.push(event);
        }
        let wraps: Vec<u64> = want.iter().map(|e| u64::from(e.wraps)).collect();
        assert_eq!(wraps.iter().max(), Some(&(RUN_AHEAD + 1)), "no full gap");
        let passes = stage.trace.passes().unwrap();
        assert_eq!(wraps.iter().sum::<u64>(), passes);

        let stream_wraps = Arc::new(AtomicU64::new(0));
        let shared = SharedStage::new(
            params(),
            move |at| -> Box<dyn TraceSource> { Box::new(one().seek(at)) },
            MemoPool::new(u64::MAX),
            stream_wraps.clone(),
        );
        let mut cursor = shared.cursor();
        for (i, event) in want.iter().enumerate() {
            assert_eq!(cursor.next_event(), event, "event {i}");
        }
        assert_eq!(stream_wraps.load(Ordering::Relaxed), passes);
    }
}
