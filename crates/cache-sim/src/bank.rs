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
//!   the service window.
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
//! With the default configuration ([`BankContentionConfig::flat`]: one port, unbounded
//! queue) the model is *algebraically identical* to the seed's `busy_until` arithmetic,
//! which is what keeps every zero-contention configuration bit-for-bit compatible with
//! the flat-latency model — a property enforced by the regression tests in this module
//! and in `llc.rs`.
//!
//! # Row-buffer-aware FR-FCFS scheduling
//!
//! When constructed with an enabled [`RowModelConfig`] (see
//! [`BankModel::with_row_model`]), each bank additionally keeps a row register and
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
//! request drains. Retirement order remains the deterministic arrival order of the
//! FCFS skeleton (ties broken by port index): FR-FCFS here is a *latency-class*
//! model layered on the cycle-accounted queue, not an out-of-order replay of it —
//! the approximation is documented in `docs/architecture.md`. With the row model
//! disabled, `schedule` is bit-identical to [`BankModel::request`], which the
//! property wall in `crates/cache-sim/tests/frfcfs_properties.rs` enforces.
//!
//! # Per-core stall attribution
//!
//! [`BankModel::request_from`] and [`BankModel::schedule`] take the requesting core
//! and charge the same queue/admission cycle deltas that flow into [`BankStats`] to a
//! per-core [`CoreBankStalls`] vector, so `Σ_core` attribution equals the global bank
//! accounting exactly (the conservation law tested in `tests/scaling_study.rs`).
//!
//! The model relies on request times being non-decreasing across calls, which the
//! multi-core driver guarantees by advancing cores in global (cycle, core) order.

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

/// Per-bank state: port free times plus the admitted-but-unstarted request queue.
#[derive(Debug, Clone)]
struct Bank {
    /// When each service port becomes free.
    port_free: Vec<u64>,
    /// Start times of requests that have been admitted but have not begun service,
    /// in non-decreasing order (request times are non-decreasing, see module docs).
    waiting: VecDeque<u64>,
}

/// A queued request tracked by the row scheduler: when it starts service, which row
/// it targets, and how many times a ready request has been granted ahead of it.
#[derive(Debug, Clone, Copy)]
struct PendingRow {
    start: u64,
    row: u64,
    bypassed: u32,
}

/// Row-buffer state of one bank: the open-row register plus the bypass-tracked
/// queue of admitted-but-unstarted requests.
#[derive(Debug, Clone, Default)]
struct RowState {
    open_row: Option<u64>,
    pending: VecDeque<PendingRow>,
}

/// A group of cycle-accounted banks (see the module documentation).
#[derive(Debug, Clone)]
pub struct BankModel {
    config: BankContentionConfig,
    banks: Vec<Bank>,
    stats: Vec<BankStats>,
    /// FR-FCFS row model; `None` keeps the seed's pure FCFS behaviour.
    row_model: Option<RowModelConfig>,
    /// Row-buffer state, one per bank (empty when the row model is disabled).
    rows: Vec<RowState>,
    /// Stall attribution per requesting core, grown on demand.
    core_stalls: Vec<CoreBankStalls>,
}

impl BankModel {
    /// Create `num_banks` banks governed by `config` (no row model — the seed's
    /// FCFS behaviour).
    pub fn new(num_banks: usize, config: BankContentionConfig) -> Self {
        Self::with_row_model(num_banks, config, RowModelConfig::disabled())
    }

    /// Create `num_banks` banks with an explicit row-buffer scheduling model. A
    /// disabled `row_model` is bit-identical to [`BankModel::new`].
    pub fn with_row_model(
        num_banks: usize,
        config: BankContentionConfig,
        row_model: RowModelConfig,
    ) -> Self {
        assert!(config.ports >= 1, "banks need at least one service port");
        let enabled = row_model.enabled;
        if enabled {
            assert!(row_model.starvation_cap >= 1, "starvation cap must be >= 1");
        }
        BankModel {
            banks: vec![
                Bank {
                    port_free: vec![0; config.ports],
                    waiting: VecDeque::new(),
                };
                num_banks
            ],
            stats: vec![BankStats::default(); num_banks],
            row_model: enabled.then_some(row_model),
            rows: vec![RowState::default(); if enabled { num_banks } else { 0 }],
            core_stalls: Vec::new(),
            config,
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// The contention configuration governing every bank.
    pub fn config(&self) -> &BankContentionConfig {
        &self.config
    }

    /// Per-bank statistics, indexed by bank.
    pub fn stats(&self) -> &[BankStats] {
        &self.stats
    }

    /// Stall cycles attributed per requesting core. The vector covers cores
    /// `0..=max core seen` on the attributed entry points ([`BankModel::request_from`]
    /// and [`BankModel::schedule`]); anonymous [`BankModel::request`] calls are not
    /// attributed.
    pub fn core_stalls(&self) -> &[CoreBankStalls] {
        &self.core_stalls
    }

    /// Issue a request to `bank` at absolute cycle `now`, occupying a service port for
    /// `service_cycles`. Returns when the request started and completed; the queuing
    /// delay (`start - now`) is what the caller charges on top of its service latency.
    pub fn request(&mut self, bank: usize, now: u64, service_cycles: u64) -> BankRequest {
        self.request_inner(bank, now, service_cycles, None)
    }

    /// [`BankModel::request`] with per-core stall attribution: the queue/admission
    /// cycles this request contributes to [`BankStats`] are also charged to `core`.
    pub fn request_from(
        &mut self,
        bank: usize,
        now: u64,
        service_cycles: u64,
        core: usize,
    ) -> BankRequest {
        self.request_inner(bank, now, service_cycles, Some(core))
    }

    /// Schedule a request against `bank`'s row buffer (FR-FCFS, see module docs) and
    /// the cycle-accounted queue. `row` is the DRAM row the request targets; `core`
    /// receives the stall attribution. With the row model disabled this is exactly
    /// [`BankModel::request_from`] with `class: None`.
    pub fn schedule(
        &mut self,
        bank: usize,
        now: u64,
        service_cycles: u64,
        core: usize,
        row: u64,
    ) -> BankSchedule {
        let Some(rm) = self.row_model else {
            return BankSchedule {
                request: self.request_inner(bank, now, service_cycles, Some(core)),
                class: None,
                class_cycles: 0,
            };
        };

        {
            // Requests that have started service no longer constrain the scheduler;
            // each one moves the row register to its row as it goes (the register
            // tracks *served* requests, so a queued conflict does not clobber the
            // open row before its service actually begins).
            let rs = &mut self.rows[bank];
            while let Some(&e) = rs.pending.front() {
                if e.start > now {
                    break;
                }
                rs.pending.pop_front();
                rs.open_row = if rm.closed_page { None } else { Some(e.row) };
            }
        }

        // Oldest-first pin: once any queued request has been bypassed to the cap, the
        // bank stops granting ready-first priority until that request drains.
        let pinned = self.rows[bank]
            .pending
            .iter()
            .any(|e| e.bypassed >= rm.starvation_cap);
        let ready = self.rows[bank].open_row == Some(row);
        let class = if ready && !pinned {
            RowClass::Hit
        } else if ready {
            // Demoted: by the time the aged request has been served ahead of us, it
            // will have changed the open row, so the former hit pays a conflict.
            RowClass::Conflict
        } else if self.rows[bank].open_row.is_none() {
            RowClass::Miss
        } else {
            RowClass::Conflict
        };

        let st = &mut self.stats[bank];
        match class {
            RowClass::Hit => st.row_hits += 1,
            RowClass::Miss => st.row_misses += 1,
            RowClass::Conflict => st.row_conflicts += 1,
        }
        if class == RowClass::Hit {
            // A ready grant bypasses every queued request to another row.
            let rs = &mut self.rows[bank];
            for e in rs.pending.iter_mut() {
                if e.row != row {
                    e.bypassed += 1;
                    if e.bypassed == rm.starvation_cap {
                        st.starvation_pins += 1;
                    }
                    st.max_bypass = st.max_bypass.max(e.bypassed);
                }
            }
        }
        let request = self.request_inner(bank, now, service_cycles, Some(core));
        if request.start > now {
            // Queued: the row register moves to this request's row when its service
            // begins (handled by the drain loop above on a later call).
            self.rows[bank].pending.push_back(PendingRow {
                start: request.start,
                row,
                bypassed: 0,
            });
        } else {
            // Service begins immediately: the row opens (or closes again) now.
            self.rows[bank].open_row = if rm.closed_page { None } else { Some(row) };
        }
        BankSchedule {
            request,
            class: Some(class),
            class_cycles: class.cycles(&rm),
        }
    }

    /// The seed-exact FCFS arithmetic shared by every entry point. `core`, when
    /// present, receives exactly the stall deltas added to the global stats.
    fn request_inner(
        &mut self,
        bank: usize,
        now: u64,
        service_cycles: u64,
        core: Option<usize>,
    ) -> BankRequest {
        let b = &mut self.banks[bank];
        let st = &mut self.stats[bank];
        st.requests += 1;

        // Requests whose service already started are no longer waiting.
        while b.waiting.front().is_some_and(|&s| s <= now) {
            b.waiting.pop_front();
        }

        // Admission: a full finite queue delays the request until enough earlier
        // requests start service that a slot frees up.
        let mut admit = now;
        if self.config.queue_depth > 0 && b.waiting.len() >= self.config.queue_depth {
            admit = b.waiting[b.waiting.len() - self.config.queue_depth];
            st.admission_stall_cycles += admit - now;
        }

        // Service starts on the earliest-free port (lowest index on ties).
        let (port, free) = b
            .port_free
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, f)| (f, i))
            .expect("at least one port");
        let start = admit.max(free);
        b.port_free[port] = start + service_cycles;
        st.busy_cycles += service_cycles;

        if start > now {
            st.queued_requests += 1;
            st.queue_cycles += start - admit;
            b.waiting.push_back(start);
            // Entries that will still be waiting while this request waits, i.e. the
            // instantaneous queue population at `admit` (binary search: `waiting` is
            // sorted non-decreasing).
            let mut lo = 0;
            let mut hi = b.waiting.len();
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

        if let Some(core) = core {
            if core >= self.core_stalls.len() {
                self.core_stalls.resize(core + 1, CoreBankStalls::default());
            }
            let cs = &mut self.core_stalls[core];
            // Mirror the global increments exactly: `admit - now` is zero unless the
            // admission branch fired, and queue cycles accrue only when the request
            // actually waited — so summing over cores reproduces the bank totals.
            cs.admission_stall_cycles += admit - now;
            if start > now {
                cs.queue_cycles += start - admit;
            }
        }

        BankRequest {
            delay: start - now,
            start,
            completion: start + service_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat() -> BankContentionConfig {
        BankContentionConfig::flat()
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
        // Deterministic pseudo-random request pattern with non-decreasing times.
        let mut model = BankModel::new(4, flat());
        let mut reference = FlatReference::new(4, 7);
        let mut now = 0u64;
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += x % 5;
            let bank = (x >> 8) as usize % 4;
            let expected = reference.access(bank, now);
            let got = model.request(bank, now, 7);
            assert_eq!(got.delay, expected);
            assert_eq!(got.completion, now + expected + 7);
        }
        // The flat model never refuses admission.
        for s in model.stats() {
            assert_eq!(s.admission_stall_cycles, 0);
        }
    }

    #[test]
    fn idle_bank_adds_no_delay() {
        let mut m = BankModel::new(2, BankContentionConfig::contended(2, 4));
        let r = m.request(0, 100, 10);
        assert_eq!(r.delay, 0);
        assert_eq!(r.start, 100);
        assert_eq!(r.completion, 110);
        assert_eq!(m.stats()[0].queued_requests, 0);
    }

    #[test]
    fn two_ports_serve_two_concurrent_requests_without_queuing() {
        let mut m = BankModel::new(1, BankContentionConfig::contended(2, 8));
        let a = m.request(0, 0, 10);
        let b = m.request(0, 0, 10);
        let c = m.request(0, 0, 10);
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
        let mut m = BankModel::new(1, BankContentionConfig::contended(1, 1));
        let a = m.request(0, 0, 10); // serves [0, 10)
        let b = m.request(0, 0, 10); // waits, starts at 10
        let c = m.request(0, 0, 10); // queue full: admitted at 10, starts at 20
        assert_eq!(a.delay, 0);
        assert_eq!(b.delay, 10);
        assert_eq!(c.delay, 20);
        let st = &m.stats()[0];
        assert_eq!(st.admission_stall_cycles, 10);
        assert_eq!(st.queue_cycles, 10 + 10);
        assert_eq!(st.peak_waiting, 1);
    }

    #[test]
    fn unbounded_queue_never_stalls_admission() {
        let mut m = BankModel::new(1, flat());
        for _ in 0..100 {
            m.request(0, 0, 5);
        }
        let st = &m.stats()[0];
        assert_eq!(st.admission_stall_cycles, 0);
        assert_eq!(st.queued_requests, 99);
        // Request i waits i * 5 cycles.
        assert_eq!(st.queue_cycles, (0..100u64).map(|i| i * 5).sum::<u64>());
    }

    #[test]
    fn waiters_drain_as_time_advances() {
        let mut m = BankModel::new(1, BankContentionConfig::contended(1, 2));
        m.request(0, 0, 10);
        m.request(0, 0, 10);
        m.request(0, 0, 10);
        // At cycle 40 everything has retired: a fresh request is served immediately.
        let r = m.request(0, 40, 10);
        assert_eq!(r.delay, 0);
        assert_eq!(m.stats()[0].requests, 4);
    }

    #[test]
    fn stall_share_reflects_queue_pressure() {
        let mut idle = BankModel::new(1, flat());
        idle.request(0, 0, 10);
        assert_eq!(idle.stats()[0].stall_share(), 0.0);

        let mut busy = BankModel::new(1, flat());
        busy.request(0, 0, 10);
        busy.request(0, 0, 10); // waits 10, serves 10
        let share = busy.stats()[0].stall_share();
        assert!((share - 10.0 / 30.0).abs() < 1e-12, "share {share}");
    }

    fn frfcfs(cap: u32) -> RowModelConfig {
        RowModelConfig::frfcfs(180, 260, 340, cap)
    }

    #[test]
    fn disabled_row_model_schedules_bit_identically_to_fcfs_request() {
        let mut fcfs = BankModel::new(4, BankContentionConfig::contended(2, 4));
        let mut sched = BankModel::with_row_model(
            4,
            BankContentionConfig::contended(2, 4),
            RowModelConfig::disabled(),
        );
        let mut now = 0u64;
        let mut x = 0xdead_beef_cafe_f00du64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += x % 4;
            let bank = (x >> 8) as usize % 4;
            let expected = fcfs.request(bank, now, 9);
            let got = sched.schedule(bank, now, 9, (x >> 16) as usize % 8, x % 64);
            assert_eq!(got.request, expected);
            assert_eq!(got.class, None);
            assert_eq!(got.class_cycles, 0);
        }
        assert_eq!(fcfs.stats(), sched.stats());
    }

    #[test]
    fn row_register_classifies_hit_miss_conflict() {
        let mut m = BankModel::with_row_model(1, flat(), frfcfs(4));
        let a = m.schedule(0, 0, 4, 0, 7);
        assert_eq!(a.class, Some(RowClass::Miss), "idle bank activates only");
        assert_eq!(a.class_cycles, 260);
        let b = m.schedule(0, 100, 4, 0, 7);
        assert_eq!(b.class, Some(RowClass::Hit));
        assert_eq!(b.class_cycles, 180);
        let c = m.schedule(0, 200, 4, 0, 9);
        assert_eq!(c.class, Some(RowClass::Conflict));
        assert_eq!(c.class_cycles, 340);
        let st = &m.stats()[0];
        assert_eq!((st.row_hits, st.row_misses, st.row_conflicts), (1, 1, 1));
    }

    #[test]
    fn closed_page_policy_never_hits() {
        let mut rm = frfcfs(4);
        rm.closed_page = true;
        let mut m = BankModel::with_row_model(1, flat(), rm);
        for i in 0..10 {
            let s = m.schedule(0, i * 1000, 4, 0, 7);
            assert_eq!(s.class, Some(RowClass::Miss));
        }
        assert_eq!(m.stats()[0].row_hits, 0);
    }

    #[test]
    fn starvation_cap_demotes_ready_requests_until_aged_request_drains() {
        // Cap 2: queue a conflicting request behind a stream of row hits. After two
        // bypasses the bank pins; further would-be hits are demoted to conflicts.
        let mut m = BankModel::with_row_model(1, flat(), frfcfs(2));
        m.schedule(0, 0, 100, 0, 7); // opens row 7, serves [0, 100)
        let aged = m.schedule(0, 1, 100, 1, 9); // queued for row 9, starts at 100
        assert_eq!(aged.class, Some(RowClass::Conflict));
        assert_eq!(m.schedule(0, 2, 100, 0, 7).class, Some(RowClass::Hit));
        assert_eq!(m.schedule(0, 3, 100, 0, 7).class, Some(RowClass::Hit));
        // The aged request has now been bypassed twice (== cap): pinned.
        let demoted = m.schedule(0, 4, 100, 0, 7);
        assert_eq!(
            demoted.class,
            Some(RowClass::Conflict),
            "ready request demoted"
        );
        let st = &m.stats()[0];
        assert_eq!(st.starvation_pins, 1);
        assert_eq!(st.max_bypass, 2);
        // Once time passes the aged request's start, the pin lifts.
        let later = m.schedule(0, 5_000, 100, 0, 7);
        assert_eq!(later.class, Some(RowClass::Hit));
    }

    #[test]
    fn per_core_stalls_sum_to_global_accounting() {
        let mut m = BankModel::new(2, BankContentionConfig::contended(1, 2));
        let mut now = 0u64;
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += x % 3;
            m.request_from((x >> 4) as usize % 2, now, 6, (x >> 9) as usize % 5);
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
        let run = || {
            let mut m = BankModel::new(4, BankContentionConfig::contended(2, 4));
            let mut now = 0;
            for i in 0..5_000u64 {
                now += i % 3;
                m.request((i % 4) as usize, now, 4 + i % 9);
            }
            m.stats().to_vec()
        };
        assert_eq!(run(), run());
    }
}
