//! Property wall for the FR-FCFS row-buffer bank scheduler (`cache_sim::bank`).
//!
//! Four guarantees, each over arbitrary request interleavings:
//!
//! 1. scheduling is deterministic — the same request sequence produces the same
//!    grants, stats and per-core attribution, bit for bit;
//! 2. no queued request is ever bypassed past the starvation cap;
//! 3. every grant is charged its configured latency class, and the classes obey
//!    row-hit <= row-miss <= row-conflict;
//! 4. with the row model disabled, `schedule` retires bit-identically to the
//!    seed's FCFS `request` path — the flat-default equivalence the existing
//!    bit-identity walls rely on.
//!
//! Request times step back as well as forward, as the DRAM's do: a demand read is
//! issued after its LLC lookup, a write-back at the requesting core's cycle. Banks
//! serve in call order whatever the times. The service window is one per model.

use cache_sim::bank::{BankModel, BankSchedule, RowClass};
use cache_sim::config::{BankContentionConfig, RowModelConfig};
use proptest::prelude::*;

/// One generated request: which bank, a time step (see [`advance`]), the requesting
/// core (of 8) and the row (of 4).
type RawOp = (usize, u64, usize, u64);

/// The generator tuple mirroring [`RawOp`]: one range strategy per element.
type RawOpStrategy = (
    std::ops::Range<usize>,
    std::ops::Range<u64>,
    std::ops::Range<usize>,
    std::ops::Range<u64>,
);

fn ops(max_banks: usize, len: usize) -> proptest::collection::VecStrategy<RawOpStrategy> {
    proptest::collection::vec((0..max_banks, 0u64..64, 0usize..8, 0u64..4), 1..len)
}

/// The next request time: steps below 48 move forward by that many cycles, the rest
/// (a quarter) move back by up to 300.
fn advance(now: u64, step: u64) -> u64 {
    if step < 48 {
        now + step
    } else {
        now.saturating_sub((step - 48) * 20)
    }
}

fn contention(ports: usize, depth: usize) -> BankContentionConfig {
    if ports == 0 {
        BankContentionConfig::flat()
    } else {
        BankContentionConfig::contended(ports, depth)
    }
}

/// Drive `model` through `ops`, collecting every grant.
fn drive(model: &mut BankModel, ops: &[RawOp]) -> Vec<BankSchedule> {
    let mut now = 0;
    ops.iter()
        .map(|&op| {
            let (bank, step, core, row) = op;
            now = advance(now, step);
            model.schedule(bank, now, core, row)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Property 1: the scheduler is a pure function of the request sequence.
    #[test]
    fn retirement_order_is_deterministic(
        ops in ops(4, 200),
        ports in 0usize..3,
        depth in 0usize..5,
        cap in 1u32..6,
        service in 1u64..30,
    ) {
        let rm = RowModelConfig::frfcfs(10, 20, 30, cap);
        let make = || BankModel::new(4, service, contention(ports, depth), Some(rm));
        let (mut a, mut b) = (make(), make());
        let ga = drive(&mut a, &ops);
        let gb = drive(&mut b, &ops);
        prop_assert_eq!(ga, gb);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.core_stalls(), b.core_stalls());
    }

    // Property 2: ready-first arbitration never bypasses a queued request more
    // than `starvation_cap` times.
    #[test]
    fn no_request_is_bypassed_past_the_starvation_cap(
        ops in ops(2, 300),
        ports in 1usize..3,
        depth in 0usize..4,
        cap in 1u32..5,
        service in 1u64..30,
    ) {
        let rm = RowModelConfig::frfcfs(10, 20, 30, cap);
        let mut model = BankModel::new(2, service, contention(ports, depth), Some(rm));
        drive(&mut model, &ops);
        for st in model.stats() {
            prop_assert!(
                st.max_bypass <= cap,
                "bank bypassed a request {} times past cap {}",
                st.max_bypass,
                cap
            );
        }
    }

    // Property 3: every grant is charged exactly its class's configured latency,
    // the classes obey hit <= miss <= conflict, and the queue arithmetic holds.
    #[test]
    fn latency_classes_are_charged_and_ordered(
        ops in ops(3, 200),
        hit in 1u64..50,
        miss_extra in 0u64..50,
        conflict_extra in 0u64..50,
        cap in 1u32..5,
        service in 1u64..30,
    ) {
        let rm =
            RowModelConfig::frfcfs(hit, hit + miss_extra, hit + miss_extra + conflict_extra, cap);
        let mut model = BankModel::new(3, service, contention(2, 4), Some(rm));
        let mut now = 0;
        for &op in &ops {
            let (bank, step, core, row) = op;
            now = advance(now, step);
            let sched = model.schedule(bank % 3, now, core, row);
            let class = sched.class.expect("row model is enabled");
            prop_assert_eq!(sched.class_cycles, class.cycles(&rm));
            prop_assert!(RowClass::Hit.cycles(&rm) <= RowClass::Miss.cycles(&rm));
            prop_assert!(RowClass::Miss.cycles(&rm) <= RowClass::Conflict.cycles(&rm));
            prop_assert!(sched.request.start >= now);
            prop_assert_eq!(sched.request.completion, sched.request.start + service);
            prop_assert_eq!(sched.request.delay, sched.request.start - now);
            prop_assert!(sched.request.admission_stall <= sched.request.delay);
        }
        let st = model.stats();
        let classified: u64 = st.iter().map(|s| s.row_hits + s.row_misses + s.row_conflicts).sum();
        let total: u64 = st.iter().map(|s| s.requests).sum();
        prop_assert_eq!(classified, total, "every request gets exactly one class");
    }

    // Property 4: a disabled row model is the seed's FCFS bank, bit for bit —
    // grants, per-bank stats and per-core stall attribution.
    #[test]
    fn disabled_row_model_is_bit_identical_to_fcfs(
        ops in ops(4, 300),
        ports in 0usize..3,
        depth in 0usize..5,
        service in 1u64..30,
    ) {
        let cfg = contention(ports, depth);
        let mut frfcfs = BankModel::new(4, service, cfg, None);
        let mut fcfs = BankModel::new(4, service, cfg, None);
        let mut now = 0;
        for &op in &ops {
            let (bank, step, core, row) = op;
            now = advance(now, step);
            let sched = frfcfs.schedule(bank, now, core, row);
            let req = fcfs.request(bank, now, core);
            prop_assert_eq!(sched.request, req);
            prop_assert_eq!(sched.class, None);
            prop_assert_eq!(sched.class_cycles, 0);
        }
        prop_assert_eq!(frfcfs.stats(), fcfs.stats());
        prop_assert_eq!(frfcfs.core_stalls(), fcfs.core_stalls());
    }
}
