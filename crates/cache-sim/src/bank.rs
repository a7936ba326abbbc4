//! Cycle-accounted bank contention model shared by the LLC and DRAM.
//!
//! The seed simulator modeled a bank as a single `busy_until` timestamp: every request
//! waited for the bank to go idle and then occupied it for a fixed window. That is a
//! one-port, infinitely-buffered server — latency-only banking in which concurrent
//! misses are invisible except through a scalar queue delay. [`BankModel`] generalizes
//! it into a cycle-accounted contention subsystem:
//!
//! * **Finite service ports.** Each bank owns [`BankContentionConfig::ports`] parallel
//!   service ports. A request starts service on the earliest-free port (ties broken by
//!   the lowest port index, so retirement order is deterministic) and occupies it for
//!   the model's service window.
//! * **Finite request queues.** Each bank admits at most
//!   [`BankContentionConfig::queue_depth`] waiting requests. When the queue is full, a
//!   new request stalls *before admission* until an earlier request starts service and
//!   frees a slot — back-pressure that propagates to the requesting core as extra
//!   latency rather than vanishing into an unbounded buffer.
//! * **Per-bank statistics.** Every bank tracks how many requests it served, how long
//!   they waited for a port ([`BankStats::queue_cycles`]), how long they were refused
//!   admission ([`BankStats::admission_stall_cycles`]), how many cycles its ports were
//!   occupied ([`BankStats::busy_cycles`]) and the peak number of simultaneous waiters.
//!
//! The service window is a property of the model: every bank of a model is busy for
//! the same `service_cycles` per request (the configuration's `bank_busy_cycles`).
//!
//! # A flat bank is a register
//!
//! The default configuration ([`BankContentionConfig::flat`]: one port, unbounded
//! queue) with no row model is the seed's `busy_until` arithmetic, and that is all it
//! keeps — three values per bank and no queue:
//!
//! * `busy_until`, when the port frees up: a request starts at `max(now, busy_until)`
//!   and moves it to `start + service`;
//! * `seen`, the latest request time the bank has seen (times step back, see below);
//! * the threshold `peak_waiting × service`.
//!
//! The peak is exact in closed form. Every request that waited starts exactly one
//! service window after its predecessor, so the requests still waiting when a request
//! queues form a chain `service` apart that ends at its `start`. Requests that did not
//! wait started at their own arrival, at or before `seen`; so the chain is exactly the
//! starts in `(seen, start]`, and after the first request `busy_until > seen`, so it has
//! at least one member. Its length is `⌈(start − seen) / service⌉`, and it raises the
//! peak exactly when `start − seen` exceeds the threshold — the only time the division
//! runs. A zero-cycle service window stacks starts on one cycle; such a model keeps a
//! queue instead (below).
//!
//! # A contended bank keeps one queue
//!
//! Every other configuration — several ports, a bounded queue, or a row model — keeps
//! per bank one queue of the requests admitted but not yet started, each entry its
//! start, its row and its bypass count, and the bank's port free times (one flat
//! `banks × ports` array). A request drops the entries that have started by its arrival
//! from the front, is refused admission until the entry `queue_depth` from the back
//! starts when the queue is full, and queues on the earliest-free port. The queue keeps
//! call order, not start order: two ports and times that step back leave its starts
//! unsorted, and the drain, the admission slot and the peak's bisection read it as it
//! is.
//!
//! # Row-buffer-aware FR-FCFS scheduling
//!
//! With a [`RowModelConfig`], each bank additionally keeps an open-page row register and
//! [`BankModel::schedule`] classifies every request FR-FCFS style:
//!
//! * a request to the **open row** is *ready* and is granted the row-hit latency —
//!   the scheduler serves it ahead of older queued requests to other rows, so each
//!   such grant increments the bypass count of every queued request to another row;
//! * a request to an **idle (closed) bank** pays the row-miss latency (activate only);
//! * a request that must **close another row** pays the row-conflict latency.
//!
//! A starvation cap bounds the reordering: once any queued request has been bypassed
//! [`RowModelConfig::starvation_cap`] times, the bank reverts to oldest-first — later
//! ready arrivals lose their priority and are charged the conflict latency (by the
//! time the aged request has been served, it has changed the open row), until the aged
//! request drains. A bank counts its entries at the cap: no entry passes it, because
//! ready grants stop as soon as one reaches it. Retirement order remains the
//! deterministic arrival order of the FCFS skeleton (ties broken by port index):
//! FR-FCFS here is a *latency-class* model layered on the cycle-accounted queue, not an
//! out-of-order replay of it — the approximation is documented in
//! `docs/architecture.md`. With the row model disabled, `schedule` is bit-identical to
//! [`BankModel::request`], which the property wall in
//! `crates/cache-sim/tests/frfcfs_properties.rs` enforces.
//!
//! # Per-core stall attribution
//!
//! Both entry points take the requesting core and charge the same queue/admission
//! cycle deltas that flow into [`BankStats`] to a per-core [`CoreBankStalls`] vector,
//! so `Σ_core` attribution equals the global bank accounting exactly (the conservation
//! law tested in `tests/scaling_study.rs`).
//!
//! # Request order
//!
//! Banks serve FCFS in *call* order. The LLC's request times never decrease, but the
//! DRAM's do: a demand read is issued after the LLC lookup (`now + latency`, plus any
//! MSHR stall) while a write-back is issued at `now`. A request whose time steps back
//! behind one the bank has already seen queues behind it — the model does not reorder
//! by time. `tests/reference_identity.rs` pins that a contended run's DRAM sees such
//! steps.

use std::collections::VecDeque;

use crate::config::{BankContentionConfig, RowModelConfig};

/// Occupancy/stall statistics for one bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Requests served by this bank.
    pub requests: u64,
    /// Requests that had to wait at all (for admission or for a port).
    pub queued_requests: u64,
    /// Cycles requests spent admitted but waiting for a free service port.
    pub queue_cycles: u64,
    /// Cycles requests spent stalled *before* admission because the finite queue was
    /// full (back-pressure). Always zero when the queue is unbounded.
    pub admission_stall_cycles: u64,
    /// Cycles a service port of this bank was occupied (summed over ports).
    pub busy_cycles: u64,
    /// Peak number of simultaneously waiting (admitted, not yet started) requests.
    pub peak_waiting: usize,
    /// Requests that hit the open row (always zero when the row model is disabled).
    pub row_hits: u64,
    /// Requests to an idle bank that only had to activate a row.
    pub row_misses: u64,
    /// Requests that had to close another row first (includes ready requests demoted
    /// by the starvation cap).
    pub row_conflicts: u64,
    /// Times the bank reverted to oldest-first because a queued request reached the
    /// starvation cap.
    pub starvation_pins: u64,
    /// Highest bypass count any queued request ever accumulated (<= starvation cap).
    pub max_bypass: u32,
}

impl BankStats {
    /// Total cycles requests spent stalled at this bank (admission + port wait).
    pub fn stall_cycles(&self) -> u64 {
        self.queue_cycles + self.admission_stall_cycles
    }

    /// Fraction of this bank's request time spent stalled rather than in service:
    /// `stall / (stall + busy)`. Zero when the bank saw no traffic.
    pub fn stall_share(&self) -> f64 {
        stall_share(self.stall_cycles(), self.busy_cycles)
    }
}

/// The bank-stall-share formula used at every aggregation level:
/// `stall / (stall + busy)`, zero when there was no traffic at all.
pub fn stall_share(stall_cycles: u64, busy_cycles: u64) -> f64 {
    let total = stall_cycles + busy_cycles;
    if total == 0 {
        0.0
    } else {
        stall_cycles as f64 / total as f64
    }
}

/// Stall share aggregated over a set of banks: `Σstall / (Σstall + Σbusy)`.
pub fn aggregate_stall_share<'a>(banks: impl IntoIterator<Item = &'a BankStats>) -> f64 {
    let (stall, busy) = banks.into_iter().fold((0u64, 0u64), |(s, b), bank| {
        (s + bank.stall_cycles(), b + bank.busy_cycles)
    });
    stall_share(stall, busy)
}

/// Outcome of one bank request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRequest {
    /// Cycles the request waited before starting service (admission stall + port wait).
    pub delay: u64,
    /// The part of `delay` spent refused admission by a full queue; the rest waited for
    /// a port. Always zero on an unbounded queue.
    pub admission_stall: u64,
    /// Absolute cycle at which service started.
    pub start: u64,
    /// Absolute cycle at which service completed (`start + service_cycles`).
    pub completion: u64,
}

/// Row-buffer outcome of a scheduled request (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowClass {
    /// The request hit the bank's open row.
    Hit,
    /// The bank's row buffer was closed; the request only had to activate.
    Miss,
    /// Another row was open (or the request lost its ready priority to an aged
    /// request under the starvation cap) and had to precharge first.
    Conflict,
}

impl RowClass {
    /// Latency class in cycles under `rm`.
    pub fn cycles(self, rm: &RowModelConfig) -> u64 {
        match self {
            RowClass::Hit => rm.row_hit_cycles,
            RowClass::Miss => rm.row_miss_cycles,
            RowClass::Conflict => rm.row_conflict_cycles,
        }
    }
}

/// Stall cycles attributed to one requesting core across all banks of a model.
///
/// The deltas are exactly the amounts simultaneously added to the global
/// [`BankStats`], so summing this vector over cores reproduces the global
/// accounting bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreBankStalls {
    /// Cycles this core's requests spent admitted but waiting for a free port.
    pub queue_cycles: u64,
    /// Cycles this core's requests spent refused admission (full finite queue).
    pub admission_stall_cycles: u64,
}

impl CoreBankStalls {
    /// Total stall cycles attributed to the core (admission + port wait).
    pub fn stall_cycles(&self) -> u64 {
        self.queue_cycles + self.admission_stall_cycles
    }
}

/// Outcome of [`BankModel::schedule`]: the queue-accounted request plus the
/// row-buffer latency class (when the row model is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankSchedule {
    /// The underlying cycle-accounted bank request (queuing delay, start, completion).
    pub request: BankRequest,
    /// Row-buffer outcome, `None` when the row model is disabled.
    pub class: Option<RowClass>,
    /// Latency class in cycles to charge for the access (0 when the row model is
    /// disabled — the caller then applies its own legacy latency classification).
    pub class_cycles: u64,
}

/// A flat bank's registers (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
struct FlatBank {
    /// When the port frees up.
    busy_until: u64,
    /// The latest request time this bank has seen.
    seen: u64,
    /// `peak_waiting × service`: how far past `seen` a queued start must lie to raise
    /// the peak.
    peak_span: u64,
}

/// A request admitted to a contended bank that has not started service yet.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    start: u64,
    /// The DRAM row it targets (unused without a row model).
    row: u64,
    /// Ready grants made ahead of it, at most the starvation cap (row model only).
    bypassed: u32,
}

/// A contended bank: its queue and, under a row model, its row register.
#[derive(Debug, Clone, Default)]
struct QueuedBank {
    /// Admitted, unstarted requests in call order.
    queue: VecDeque<Waiting>,
    /// Entries of `queue` bypassed up to the starvation cap; while non-zero the bank
    /// serves oldest-first.
    at_cap: u32,
    /// The row left open by the last request that started service.
    open_row: Option<u64>,
}

/// Contended banks: port free times, `banks × ports`, plus one queue per bank.
#[derive(Debug, Clone)]
struct QueuedBanks {
    ports: usize,
    queue_depth: usize,
    port_free: Vec<u64>,
    banks: Vec<QueuedBank>,
}

impl QueuedBanks {
    /// The FCFS skeleton: drop started entries, admit, take the earliest-free port, and
    /// queue the request (tagged with `row`) if it has to wait. Returns when the request
    /// was admitted and when it starts (two registers, not a struct in memory). Kept out
    /// of line: [`BankModel::request`] is inlined into every caller, flat or not.
    #[inline(never)]
    fn serve(
        &mut self,
        bank: usize,
        now: u64,
        service: u64,
        row: u64,
        st: &mut BankStats,
    ) -> (u64, u64) {
        let b = &mut self.banks[bank];
        while b.queue.front().is_some_and(|e| e.start <= now) {
            b.queue.pop_front();
        }

        // Admission: a full finite queue delays the request until enough earlier
        // requests start service that a slot frees up.
        let mut admit = now;
        if self.queue_depth > 0 && b.queue.len() >= self.queue_depth {
            admit = b.queue[b.queue.len() - self.queue_depth].start;
        }

        // Service starts on the earliest-free port (lowest index on ties).
        let ports = &mut self.port_free[bank * self.ports..(bank + 1) * self.ports];
        let mut port = 0;
        for (i, &free) in ports.iter().enumerate().skip(1) {
            if free < ports[port] {
                port = i;
            }
        }
        let start = admit.max(ports[port]);
        ports[port] = start + service;

        st.requests += 1;
        st.busy_cycles += service;
        st.admission_stall_cycles += admit - now;
        if start > now {
            st.queued_requests += 1;
            st.queue_cycles += start - admit;
            b.queue.push_back(Waiting {
                start,
                row,
                bypassed: 0,
            });
            // Entries that will still be waiting while this request waits: the queue
            // population at `admit`, by bisection over the starts as they lie.
            let (mut lo, mut hi) = (0, b.queue.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if b.queue[mid].start <= admit {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            st.peak_waiting = st.peak_waiting.max(b.queue.len() - lo);
        }
        (admit, start)
    }
}

/// Per-bank state: registers for flat banks, queues for contended ones.
#[derive(Debug, Clone)]
enum Banks {
    Flat(Vec<FlatBank>),
    Queued(QueuedBanks),
}

/// A group of cycle-accounted banks (see the module documentation).
#[derive(Debug, Clone)]
pub struct BankModel {
    /// Cycles a request occupies a port.
    service: u64,
    /// FR-FCFS row model; `None` keeps the seed's pure FCFS behaviour.
    row_model: Option<RowModelConfig>,
    banks: Banks,
    stats: Vec<BankStats>,
    /// Stall attribution per requesting core, grown on demand.
    core_stalls: Vec<CoreBankStalls>,
}

impl BankModel {
    /// Create `num_banks` banks governed by `contention`, each busy for
    /// `service_cycles` per request, with the FR-FCFS row model `row_model` (`None`
    /// keeps the seed's FCFS behaviour).
    pub fn new(
        num_banks: usize,
        service_cycles: u64,
        contention: BankContentionConfig,
        row_model: Option<RowModelConfig>,
    ) -> Self {
        assert!(
            contention.ports >= 1,
            "banks need at least one service port"
        );
        if let Some(rm) = row_model {
            assert!(rm.starvation_cap >= 1, "starvation cap must be >= 1");
        }
        let register = contention.ports == 1
            && contention.queue_depth == 0
            && row_model.is_none()
            && service_cycles > 0;
        let banks = if register {
            Banks::Flat(vec![FlatBank::default(); num_banks])
        } else {
            Banks::Queued(QueuedBanks {
                ports: contention.ports,
                queue_depth: contention.queue_depth,
                port_free: vec![0; num_banks * contention.ports],
                banks: vec![QueuedBank::default(); num_banks],
            })
        };
        BankModel {
            service: service_cycles,
            row_model,
            banks,
            stats: vec![BankStats::default(); num_banks],
            core_stalls: Vec::new(),
        }
    }

    /// Per-bank statistics, indexed by bank.
    pub fn stats(&self) -> &[BankStats] {
        &self.stats
    }

    /// Stall cycles attributed per requesting core, covering cores `0..=max core seen`.
    pub fn core_stalls(&self) -> &[CoreBankStalls] {
        &self.core_stalls
    }

    /// Issue a request from `core` to `bank` at absolute cycle `now`. Returns when the
    /// request started and completed; the queuing delay (`start - now`) is what the
    /// caller charges on top of its service latency, and it is also charged to `core`.
    /// A model with a row model takes its requests through [`BankModel::schedule`].
    ///
    /// Always inlined: a flat request is a handful of instructions, and a call would
    /// hand its result back through memory.
    #[inline(always)]
    pub fn request(&mut self, bank: usize, now: u64, core: usize) -> BankRequest {
        debug_assert!(
            self.row_model.is_none(),
            "a bank with a row model is scheduled, not requested"
        );
        let st = &mut self.stats[bank];
        let (admit, start) = match &mut self.banks {
            Banks::Flat(banks) => (now, flat_request(&mut banks[bank], now, self.service, st)),
            Banks::Queued(queued) => queued.serve(bank, now, self.service, 0, st),
        };
        self.charge(core, now, admit, start)
    }

    /// Schedule a request from `core` against `bank`'s row buffer (FR-FCFS, see module
    /// docs) and the cycle-accounted queue. `row` is the DRAM row the request targets.
    /// With the row model disabled this is exactly [`BankModel::request`] with
    /// `class: None`.
    pub fn schedule(&mut self, bank: usize, now: u64, core: usize, row: u64) -> BankSchedule {
        let Some(rm) = self.row_model else {
            return BankSchedule {
                request: self.request(bank, now, core),
                class: None,
                class_cycles: 0,
            };
        };
        let Banks::Queued(queued) = &mut self.banks else {
            unreachable!("a bank with a row model keeps a queue")
        };
        let st = &mut self.stats[bank];
        let b = &mut queued.banks[bank];
        // Requests that have started service no longer constrain the scheduler; each
        // one moves the row register to its row as it goes (the register tracks
        // *served* requests, so a queued conflict does not clobber the open row before
        // its service actually begins).
        while let Some(&e) = b.queue.front() {
            if e.start > now {
                break;
            }
            b.queue.pop_front();
            b.at_cap -= u32::from(e.bypassed == rm.starvation_cap);
            b.open_row = Some(e.row);
        }

        // Oldest-first pin: while a queued request has been bypassed to the cap, the
        // bank grants no ready-first priority.
        let ready = b.open_row == Some(row);
        let class = if ready && b.at_cap == 0 {
            RowClass::Hit
        } else if ready {
            // Demoted: by the time the aged request has been served ahead of us, it
            // will have changed the open row, so the former hit pays a conflict.
            RowClass::Conflict
        } else if b.open_row.is_none() {
            RowClass::Miss
        } else {
            RowClass::Conflict
        };
        match class {
            RowClass::Hit => st.row_hits += 1,
            RowClass::Miss => st.row_misses += 1,
            RowClass::Conflict => st.row_conflicts += 1,
        }
        if class == RowClass::Hit {
            // A ready grant bypasses every queued request to another row.
            for e in b.queue.iter_mut().filter(|e| e.row != row) {
                e.bypassed += 1;
                if e.bypassed == rm.starvation_cap {
                    st.starvation_pins += 1;
                    b.at_cap += 1;
                }
                st.max_bypass = st.max_bypass.max(e.bypassed);
            }
        }

        // A queued request moves the row register when its service begins (the drain
        // above, on a later call); one served at once opens its row now.
        let (admit, start) = queued.serve(bank, now, self.service, row, st);
        if start <= now {
            queued.banks[bank].open_row = Some(row);
        }
        BankSchedule {
            request: self.charge(core, now, admit, start),
            class: Some(class),
            class_cycles: class.cycles(&rm),
        }
    }

    /// The outcome of a request from `core` that arrived at `now`, was admitted at
    /// `admit` and starts at `start`; `core` is charged exactly the stall cycles its
    /// bank's stats received.
    #[inline(always)]
    fn charge(&mut self, core: usize, now: u64, admit: u64, start: u64) -> BankRequest {
        if core >= self.core_stalls.len() {
            self.grow_core_stalls(core);
        }
        let cs = &mut self.core_stalls[core];
        cs.admission_stall_cycles += admit - now;
        cs.queue_cycles += start - admit;
        BankRequest {
            delay: start - now,
            admission_stall: admit - now,
            start,
            completion: start + self.service,
        }
    }

    /// Extend the attribution to `core`, seen for the first time.
    #[cold]
    #[inline(never)]
    fn grow_core_stalls(&mut self, core: usize) {
        self.core_stalls.resize(core + 1, CoreBankStalls::default());
    }
}

/// One request to a flat bank (see "A flat bank is a register" in the module docs);
/// returns when it starts.
#[inline(always)]
fn flat_request(b: &mut FlatBank, now: u64, service: u64, st: &mut BankStats) -> u64 {
    let start = now.max(b.busy_until);
    b.busy_until = start + service;
    b.seen = b.seen.max(now);
    st.requests += 1;
    st.busy_cycles += service;
    if start > now {
        st.queued_requests += 1;
        st.queue_cycles += start - now;
        let ahead = start - b.seen;
        if ahead > b.peak_span {
            let peak = ahead.div_ceil(service);
            st.peak_waiting = peak as usize;
            b.peak_span = peak * service;
        }
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat() -> BankContentionConfig {
        BankContentionConfig::flat()
    }

    fn fcfs(banks: usize, service: u64, contention: BankContentionConfig) -> BankModel {
        BankModel::new(banks, service, contention, None)
    }

    /// The seed's latency-only bank: a single `busy_until` timestamp per bank.
    struct FlatReference {
        busy_until: Vec<u64>,
        busy_cycles: u64,
    }

    impl FlatReference {
        fn new(banks: usize, busy_cycles: u64) -> Self {
            FlatReference {
                busy_until: vec![0; banks],
                busy_cycles,
            }
        }
        fn access(&mut self, bank: usize, now: u64) -> u64 {
            let delay = self.busy_until[bank].saturating_sub(now);
            self.busy_until[bank] = now + delay + self.busy_cycles;
            delay
        }
    }

    #[test]
    fn flat_config_reproduces_the_seed_busy_until_model_exactly() {
        // Deterministic pseudo-random request pattern whose times also step back.
        let mut model = fcfs(4, 7, flat());
        let mut reference = FlatReference::new(4, 7);
        let mut now = 100u64;
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now = if x.is_multiple_of(7) {
                now.saturating_sub(x % 40)
            } else {
                now + x % 5
            };
            let bank = (x >> 8) as usize % 4;
            let expected = reference.access(bank, now);
            let got = model.request(bank, now, 0);
            assert_eq!(got.delay, expected);
            assert_eq!(got.completion, now + expected + 7);
        }
        // The flat model never refuses admission.
        for s in model.stats() {
            assert_eq!(s.admission_stall_cycles, 0);
        }
    }

    #[test]
    fn flat_peak_counts_the_chain_above_the_latest_time_seen() {
        let mut m = fcfs(1, 10, flat());
        m.request(0, 100, 0); // serves [100, 110)
        assert_eq!(m.request(0, 50, 0).start, 110, "a step back queues behind");
        assert_eq!(m.stats()[0].peak_waiting, 1);
        // At 105 the starts 110 and 120 are both still ahead.
        assert_eq!(m.request(0, 105, 0).start, 120);
        assert_eq!(m.stats()[0].peak_waiting, 2);
        // At 115 only 120 and this request's 130 are: the peak holds at 2.
        assert_eq!(m.request(0, 115, 0).start, 130);
        assert_eq!(m.stats()[0].peak_waiting, 2);
    }

    #[test]
    fn zero_service_window_keeps_a_queue_and_counts_stacked_starts() {
        let mut m = fcfs(1, 0, flat());
        m.request(0, 100, 0);
        // Two step-backs both start at 100, and wait there together.
        assert_eq!(m.request(0, 40, 0).delay, 60);
        assert_eq!(m.request(0, 50, 0).delay, 50);
        assert_eq!(m.stats()[0].peak_waiting, 2);
    }

    #[test]
    fn idle_bank_adds_no_delay() {
        let mut m = fcfs(2, 10, BankContentionConfig::contended(2, 4));
        let r = m.request(0, 100, 0);
        assert_eq!(r.delay, 0);
        assert_eq!(r.start, 100);
        assert_eq!(r.completion, 110);
        assert_eq!(m.stats()[0].queued_requests, 0);
    }

    #[test]
    fn two_ports_serve_two_concurrent_requests_without_queuing() {
        let mut m = fcfs(1, 10, BankContentionConfig::contended(2, 8));
        let a = m.request(0, 0, 0);
        let b = m.request(0, 0, 0);
        let c = m.request(0, 0, 0);
        assert_eq!(a.delay, 0);
        assert_eq!(b.delay, 0, "second port absorbs the second request");
        assert_eq!(c.delay, 10, "third request waits for a port");
        assert_eq!(m.stats()[0].queued_requests, 1);
        assert_eq!(m.stats()[0].queue_cycles, 10);
    }

    #[test]
    fn full_queue_stalls_admission() {
        // One port, queue depth 1: the third concurrent request cannot even be
        // admitted until the second one starts service.
        let mut m = fcfs(1, 10, BankContentionConfig::contended(1, 1));
        let a = m.request(0, 0, 0); // serves [0, 10)
        let b = m.request(0, 0, 0); // waits, starts at 10
        let c = m.request(0, 0, 0); // queue full: admitted at 10, starts at 20
        assert_eq!(a.delay, 0);
        assert_eq!(b.delay, 10);
        assert_eq!((c.delay, c.admission_stall), (20, 10));
        let st = &m.stats()[0];
        assert_eq!(st.admission_stall_cycles, 10);
        assert_eq!(st.queue_cycles, 10 + 10);
        assert_eq!(st.peak_waiting, 1);
    }

    #[test]
    fn unbounded_queue_never_stalls_admission() {
        let mut m = fcfs(1, 5, flat());
        for _ in 0..100 {
            m.request(0, 0, 0);
        }
        let st = &m.stats()[0];
        assert_eq!(st.admission_stall_cycles, 0);
        assert_eq!(st.queued_requests, 99);
        assert_eq!(st.peak_waiting, 99);
        // Request i waits i * 5 cycles.
        assert_eq!(st.queue_cycles, (0..100u64).map(|i| i * 5).sum::<u64>());
    }

    #[test]
    fn waiters_drain_as_time_advances() {
        let mut m = fcfs(1, 10, BankContentionConfig::contended(1, 2));
        m.request(0, 0, 0);
        m.request(0, 0, 0);
        m.request(0, 0, 0);
        // At cycle 40 everything has retired: a fresh request is served immediately.
        let r = m.request(0, 40, 0);
        assert_eq!(r.delay, 0);
        assert_eq!(m.stats()[0].requests, 4);
    }

    #[test]
    fn stall_share_reflects_queue_pressure() {
        let mut idle = fcfs(1, 10, flat());
        idle.request(0, 0, 0);
        assert_eq!(idle.stats()[0].stall_share(), 0.0);

        let mut busy = fcfs(1, 10, flat());
        busy.request(0, 0, 0);
        busy.request(0, 0, 0); // waits 10, serves 10
        let share = busy.stats()[0].stall_share();
        assert!((share - 10.0 / 30.0).abs() < 1e-12, "share {share}");
    }

    fn frfcfs(cap: u32) -> Option<RowModelConfig> {
        Some(RowModelConfig::frfcfs(180, 260, 340, cap))
    }

    #[test]
    fn disabled_row_model_schedules_bit_identically_to_fcfs_request() {
        let contention = BankContentionConfig::contended(2, 4);
        let mut fcfs = fcfs(4, 9, contention);
        let mut sched = BankModel::new(4, 9, contention, None);
        let mut now = 0u64;
        let mut x = 0xdead_beef_cafe_f00du64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += x % 4;
            let bank = (x >> 8) as usize % 4;
            let core = (x >> 16) as usize % 8;
            let expected = fcfs.request(bank, now, core);
            let got = sched.schedule(bank, now, core, x % 64);
            assert_eq!(got.request, expected);
            assert_eq!(got.class, None);
            assert_eq!(got.class_cycles, 0);
        }
        assert_eq!(fcfs.stats(), sched.stats());
        assert_eq!(fcfs.core_stalls(), sched.core_stalls());
    }

    #[test]
    fn row_register_classifies_hit_miss_conflict() {
        let mut m = BankModel::new(1, 4, flat(), frfcfs(4));
        let a = m.schedule(0, 0, 0, 7);
        assert_eq!(a.class, Some(RowClass::Miss), "idle bank activates only");
        assert_eq!(a.class_cycles, 260);
        let b = m.schedule(0, 100, 0, 7);
        assert_eq!(b.class, Some(RowClass::Hit));
        assert_eq!(b.class_cycles, 180);
        let c = m.schedule(0, 200, 0, 9);
        assert_eq!(c.class, Some(RowClass::Conflict));
        assert_eq!(c.class_cycles, 340);
        let st = &m.stats()[0];
        assert_eq!((st.row_hits, st.row_misses, st.row_conflicts), (1, 1, 1));
    }

    #[test]
    fn starvation_cap_demotes_ready_requests_until_aged_request_drains() {
        // Cap 2: queue a conflicting request behind a stream of row hits. After two
        // bypasses the bank pins; further would-be hits are demoted to conflicts.
        let mut m = BankModel::new(1, 100, flat(), frfcfs(2));
        m.schedule(0, 0, 0, 7); // opens row 7, serves [0, 100)
        let aged = m.schedule(0, 1, 1, 9); // queued for row 9, starts at 100
        assert_eq!(aged.class, Some(RowClass::Conflict));
        assert_eq!(m.schedule(0, 2, 0, 7).class, Some(RowClass::Hit));
        assert_eq!(m.schedule(0, 3, 0, 7).class, Some(RowClass::Hit));
        // The aged request has now been bypassed twice (== cap): pinned.
        let demoted = m.schedule(0, 4, 0, 7);
        assert_eq!(
            demoted.class,
            Some(RowClass::Conflict),
            "ready request demoted"
        );
        let st = &m.stats()[0];
        assert_eq!(st.starvation_pins, 1);
        assert_eq!(st.max_bypass, 2);
        // Once time passes the aged request's start, the pin lifts.
        let later = m.schedule(0, 5_000, 0, 7);
        assert_eq!(later.class, Some(RowClass::Hit));
    }

    #[test]
    fn per_core_stalls_sum_to_global_accounting() {
        let mut m = fcfs(2, 6, BankContentionConfig::contended(1, 2));
        let mut now = 0u64;
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += x % 3;
            m.request((x >> 4) as usize % 2, now, (x >> 9) as usize % 5);
        }
        let global_queue: u64 = m.stats().iter().map(|s| s.queue_cycles).sum();
        let global_adm: u64 = m.stats().iter().map(|s| s.admission_stall_cycles).sum();
        let core_queue: u64 = m.core_stalls().iter().map(|c| c.queue_cycles).sum();
        let core_adm: u64 = m
            .core_stalls()
            .iter()
            .map(|c| c.admission_stall_cycles)
            .sum();
        assert!(global_queue > 0, "test must exercise queuing");
        assert_eq!(core_queue, global_queue);
        assert_eq!(core_adm, global_adm);
        assert_eq!(m.core_stalls().len(), 5);
    }

    #[test]
    fn determinism_identical_sequences_yield_identical_stats() {
        let run = |contention| {
            let mut m = BankModel::new(4, 6, contention, frfcfs(3));
            let mut now = 0;
            for i in 0..5_000u64 {
                now += i % 3;
                m.schedule((i % 4) as usize, now, (i % 5) as usize, i % 7);
            }
            (m.stats().to_vec(), m.core_stalls().to_vec())
        };
        for contention in [flat(), BankContentionConfig::contended(2, 4)] {
            assert_eq!(run(contention), run(contention));
        }
    }
}
