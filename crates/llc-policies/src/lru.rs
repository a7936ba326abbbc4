//! Least-recently-used replacement.
//!
//! LRU inserts every line at the MRU position and evicts the least recently touched line.
//! The paper uses LRU as one of the comparison points in Figure 3: its weakness in the
//! large-multicore regime is that thrashing applications' MRU insertions pollute the cache
//! and shorten the most-to-least transition time available to cache-friendly applications.

use cache_sim::replacement::{AccessContext, InsertionDecision, LineView, LlcReplacementPolicy};

/// Classic LRU, implemented with per-line monotonic timestamps.
pub struct LruPolicy {
    ways: usize,
    stamps: Vec<u64>,
    clock: u64,
}

impl LruPolicy {
    pub fn new(num_sets: usize, ways: usize) -> Self {
        LruPolicy {
            ways,
            stamps: vec![0; num_sets * ways],
            clock: 0,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        let i = self.idx(set, way);
        self.stamps[i] = self.clock;
    }

    /// Recency rank of a way within its set: 0 = MRU, ways-1 = LRU. Exposed for tests.
    pub fn recency_rank(&self, set: usize, way: usize) -> usize {
        let base = set * self.ways;
        let mine = self.stamps[base + way];
        (0..self.ways)
            .filter(|&w| self.stamps[base + w] > mine)
            .count()
    }
}

impl LlcReplacementPolicy for LruPolicy {
    fn name(&self) -> String {
        "LRU".into()
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        self.touch(ctx.set_index, way);
    }

    fn insertion_decision(&mut self, _ctx: &AccessContext) -> InsertionDecision {
        // MRU insertion; the RRPV value is not used for victimization by this policy but 0
        // communicates "near-immediate reuse" to any observer.
        InsertionDecision::insert(0)
    }

    fn choose_victim(&mut self, ctx: &AccessContext, _lines: &[LineView]) -> usize {
        let base = ctx.set_index * self.ways;
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

    fn on_fill(&mut self, ctx: &AccessContext, way: usize, _decision: &InsertionDecision) {
        self.touch(ctx.set_index, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(set: usize) -> AccessContext {
        AccessContext {
            core_id: 0,
            pc: 0,
            block_addr: 0,
            set_index: set,
        }
    }

    #[test]
    fn victim_is_least_recently_used() {
        let mut p = LruPolicy::new(2, 4);
        for w in 0..4 {
            p.on_fill(&ctx(0), w, &InsertionDecision::insert(0));
        }
        p.on_hit(&ctx(0), 0); // way 1 is now the oldest
        assert_eq!(p.choose_victim(&ctx(0), &[]), 1);
    }

    #[test]
    fn insertion_is_mru() {
        let mut p = LruPolicy::new(1, 4);
        assert_eq!(
            p.insertion_decision(&ctx(0)),
            InsertionDecision::Insert { rrpv: 0 }
        );
        for w in 0..4 {
            p.on_fill(&ctx(0), w, &InsertionDecision::insert(0));
        }
        assert_eq!(p.recency_rank(0, 3), 0, "last filled way is MRU");
        assert_eq!(p.recency_rank(0, 0), 3, "first filled way is LRU");
    }

    #[test]
    fn sets_are_independent() {
        let mut p = LruPolicy::new(2, 2);
        p.on_fill(&ctx(0), 0, &InsertionDecision::insert(0));
        p.on_fill(&ctx(1), 0, &InsertionDecision::insert(0));
        p.on_fill(&ctx(1), 1, &InsertionDecision::insert(0));
        p.on_hit(&ctx(1), 0);
        // Set 1's victim is way 1; set 0 is untouched by set 1's activity.
        assert_eq!(p.choose_victim(&ctx(1), &[]), 1);
        assert_eq!(p.choose_victim(&ctx(0), &[]), 1); // never-touched way has stamp 0
    }

    #[test]
    fn name_is_lru() {
        assert_eq!(LruPolicy::new(1, 1).name(), "LRU");
    }
}
