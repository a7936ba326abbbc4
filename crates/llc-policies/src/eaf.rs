//! EAF: the Evicted-Address Filter (Seshadri et al., PACT 2012).
//!
//! EAF keeps a filter of recently evicted block addresses sized to track as many addresses
//! as there are blocks in the cache. On a miss, if the missing block is found in the filter
//! the line was evicted "too early" (it still has reuse), so it is inserted with a
//! near-immediate/intermediate prediction (RRPV 2); otherwise it is inserted with a distant
//! prediction (RRPV 3), bimodally upgraded once every 32 fills as in BRRIP. When the filter
//! fills up it is cleared, which is exactly the behaviour the ADAPT paper leans on when it
//! observes that "the presence of thrashing applications causes the filter to get full
//! frequently", making EAF only partially able to track non-thrashing applications
//! (paper §5.1).
//!
//! The original proposal uses a Bloom filter for storage efficiency; we use an exact set
//! with the same capacity and the same clear-when-full behaviour, which preserves the
//! policy's decisions while being simpler to audit (a Bloom filter only adds false
//! positives). The hardware-cost comparison in Table 2 uses the paper's published EAF cost,
//! not this implementation's.

use std::collections::HashSet;

use cache_sim::replacement::{
    AccessContext, InsertionDecision, LineView, LlcReplacementPolicy, RrpvArray, RRPV_MAX,
};

use crate::rrip::{BRRIP_THROTTLE, SRRIP_INSERT_RRPV};

/// The EAF-RRIP policy.
pub struct EafPolicy {
    rrpv: RrpvArray,
    filter: HashSet<u64>,
    capacity: usize,
    throttle: u32,
    /// Number of times the filter filled up and was cleared.
    pub filter_resets: u64,
    /// Insertion outcome counters (for experiment reporting).
    pub near_insertions: u64,
    pub distant_insertions: u64,
}

impl EafPolicy {
    /// `num_sets * ways` gives the cache block count the filter is sized to.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        let capacity = num_sets * ways;
        EafPolicy {
            rrpv: RrpvArray::new(num_sets, ways),
            filter: HashSet::with_capacity(capacity + 1),
            capacity,
            throttle: 0,
            filter_resets: 0,
            near_insertions: 0,
            distant_insertions: 0,
        }
    }

    /// Construct with an explicit filter capacity (used by ablation benches).
    pub fn with_capacity(num_sets: usize, ways: usize, capacity: usize) -> Self {
        let mut p = Self::new(num_sets, ways);
        p.capacity = capacity.max(1);
        p
    }

    /// Current number of addresses tracked by the filter.
    pub fn filter_len(&self) -> usize {
        self.filter.len()
    }
}

impl LlcReplacementPolicy for EafPolicy {
    fn name(&self) -> String {
        "EAF".into()
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        self.rrpv.promote(ctx.set_index, way);
    }

    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        if self.filter.remove(&ctx.block_addr) {
            // Recently evicted and already missed on again: it has reuse.
            self.near_insertions += 1;
            InsertionDecision::insert(SRRIP_INSERT_RRPV)
        } else {
            self.distant_insertions += 1;
            self.throttle = self.throttle.wrapping_add(1);
            if self.throttle.is_multiple_of(BRRIP_THROTTLE) {
                InsertionDecision::insert(SRRIP_INSERT_RRPV)
            } else {
                InsertionDecision::insert(RRPV_MAX)
            }
        }
    }

    fn choose_victim(&mut self, ctx: &AccessContext, _lines: &[LineView]) -> usize {
        self.rrpv.find_victim(ctx.set_index)
    }

    fn on_evict(&mut self, _ctx: &AccessContext, evicted_block: u64, _owner: usize) {
        self.filter.insert(evicted_block);
        if self.filter.len() >= self.capacity {
            self.filter.clear();
            self.filter_resets += 1;
        }
    }

    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
        if let InsertionDecision::Insert { rrpv } = decision {
            self.rrpv.set(ctx.set_index, way, *rrpv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(block: u64, set: usize) -> AccessContext {
        AccessContext {
            core_id: 0,
            pc: 0,
            block_addr: block,
            set_index: set,
        }
    }

    #[test]
    fn address_absent_from_filter_is_distant_mostly() {
        let mut p = EafPolicy::new(16, 4);
        let mut distant = 0;
        for i in 0..31 {
            if let InsertionDecision::Insert { rrpv: 3 } = p.insertion_decision(&ctx(i, 0)) {
                distant += 1;
            }
        }
        assert!(distant >= 30);
    }

    #[test]
    fn recently_evicted_address_is_reinserted_near() {
        let mut p = EafPolicy::new(16, 4);
        p.on_evict(&ctx(0, 0), 0xabc, 0);
        match p.insertion_decision(&ctx(0xabc, 0)) {
            InsertionDecision::Insert { rrpv } => assert_eq!(rrpv, SRRIP_INSERT_RRPV),
            other => panic!("unexpected {other:?}"),
        }
        // The address was consumed from the filter: a second miss is distant again.
        match p.insertion_decision(&ctx(0xabc, 0)) {
            InsertionDecision::Insert { rrpv } => assert_eq!(rrpv, RRPV_MAX),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn filter_clears_when_full() {
        let mut p = EafPolicy::with_capacity(4, 2, 8);
        for i in 0..8u64 {
            p.on_evict(&ctx(0, 0), 1000 + i, 0);
        }
        assert_eq!(p.filter_resets, 1);
        assert_eq!(p.filter_len(), 0);
        // Everything tracked before the reset is forgotten.
        match p.insertion_decision(&ctx(1000, 0)) {
            InsertionDecision::Insert { rrpv } => assert_eq!(rrpv, RRPV_MAX),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn thrashing_floods_the_filter_and_hides_friendly_lines() {
        // The effect the ADAPT paper describes: a thrashing app's evictions fill the filter,
        // so a friendly app's evicted lines may be forgotten by the time they miss again.
        let mut p = EafPolicy::with_capacity(16, 4, 16);
        p.on_evict(&ctx(0, 0), 1, 0); // friendly line evicted
        for i in 0..15u64 {
            p.on_evict(&ctx(0, 0), 0x1000 + i, 1); // thrasher evictions fill + clear
        }
        assert_eq!(p.filter_resets, 1);
        match p.insertion_decision(&ctx(1, 0)) {
            InsertionDecision::Insert { rrpv } => assert_eq!(rrpv, RRPV_MAX),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insertion_counters_track_decisions() {
        let mut p = EafPolicy::new(4, 4);
        p.on_evict(&ctx(0, 0), 5, 0);
        p.insertion_decision(&ctx(5, 0));
        p.insertion_decision(&ctx(6, 0));
        assert_eq!(p.near_insertions, 1);
        assert_eq!(p.distant_insertions, 1);
    }
}
