//! Static and Bimodal Re-Reference Interval Prediction (SRRIP / BRRIP).
//!
//! SRRIP inserts every line with a "long" re-reference prediction (RRPV 2 on a 2-bit scale)
//! and promotes hitting lines to RRPV 0; it handles recency-friendly and mixed
//! (recency + scan) patterns. BRRIP inserts lines with a "distant" prediction (RRPV 3) and
//! only infrequently (1 in 32) with RRPV 2, which preserves a small fraction of a thrashing
//! working set. DRRIP and TA-DRRIP (see [`crate::drrip`]) choose between the two with set
//! dueling. These are the building blocks referenced throughout the paper.

use cache_sim::replacement::{
    AccessContext, InsertionDecision, LineView, LlcReplacementPolicy, RrpvArray, RRPV_MAX,
};

/// Insertion RRPV used by SRRIP ("long" re-reference interval).
pub const SRRIP_INSERT_RRPV: u8 = RRPV_MAX - 1;
/// BRRIP inserts at SRRIP's value once every `BRRIP_THROTTLE` fills, distant otherwise.
pub const BRRIP_THROTTLE: u32 = 32;

/// Static RRIP.
pub struct SrripPolicy {
    rrpv: RrpvArray,
}

impl SrripPolicy {
    pub fn new(num_sets: usize, ways: usize) -> Self {
        SrripPolicy {
            rrpv: RrpvArray::new(num_sets, ways),
        }
    }

    /// Read a line's RRPV (test/inspection helper).
    pub fn rrpv_of(&self, set: usize, way: usize) -> u8 {
        self.rrpv.get(set, way)
    }
}

impl LlcReplacementPolicy for SrripPolicy {
    fn name(&self) -> String {
        "SRRIP".into()
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        self.rrpv.promote(ctx.set_index, way);
    }

    fn insertion_decision(&mut self, _ctx: &AccessContext) -> InsertionDecision {
        InsertionDecision::insert(SRRIP_INSERT_RRPV)
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

/// Bimodal RRIP.
pub struct BrripPolicy {
    rrpv: RrpvArray,
    throttle: u32,
}

impl BrripPolicy {
    pub fn new(num_sets: usize, ways: usize) -> Self {
        BrripPolicy {
            rrpv: RrpvArray::new(num_sets, ways),
            throttle: 0,
        }
    }
}

impl LlcReplacementPolicy for BrripPolicy {
    fn name(&self) -> String {
        "BRRIP".into()
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        self.rrpv.promote(ctx.set_index, way);
    }

    fn insertion_decision(&mut self, _ctx: &AccessContext) -> InsertionDecision {
        self.throttle = self.throttle.wrapping_add(1);
        if self.throttle.is_multiple_of(BRRIP_THROTTLE) {
            InsertionDecision::insert(SRRIP_INSERT_RRPV)
        } else {
            InsertionDecision::insert(RRPV_MAX)
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::addr::{BlockAddr, BLOCK_BYTES};
    use cache_sim::config::{CacheGeometry, SystemConfig};
    use cache_sim::llc::SharedLlc;

    fn ctx(set: usize) -> AccessContext {
        AccessContext {
            core_id: 0,
            pc: 0,
            block_addr: 0,
            set_index: set,
        }
    }

    #[test]
    fn srrip_inserts_long_and_promotes_on_hit() {
        let mut p = SrripPolicy::new(4, 4);
        let d = p.insertion_decision(&ctx(0));
        assert_eq!(d, InsertionDecision::Insert { rrpv: 2 });
        p.on_fill(&ctx(0), 1, &d);
        assert_eq!(p.rrpv_of(0, 1), 2);
        p.on_hit(&ctx(0), 1);
        assert_eq!(p.rrpv_of(0, 1), 0);
    }

    #[test]
    fn srrip_victimizes_distant_lines_first() {
        let mut p = SrripPolicy::new(1, 4);
        for w in 0..4 {
            p.on_fill(&ctx(0), w, &InsertionDecision::insert(2));
        }
        p.on_hit(&ctx(0), 0);
        p.on_hit(&ctx(0), 1);
        // Ways 2 and 3 are at RRPV 2; after aging they reach 3 and way 2 is picked first.
        assert_eq!(p.choose_victim(&ctx(0), &[]), 2);
    }

    #[test]
    fn brrip_inserts_distant_except_one_in_thirtytwo() {
        let mut p = BrripPolicy::new(1, 16);
        let mut long = 0;
        let mut distant = 0;
        for _ in 0..320 {
            match p.insertion_decision(&ctx(0)) {
                InsertionDecision::Insert { rrpv: 3 } => distant += 1,
                InsertionDecision::Insert { rrpv: 2 } => long += 1,
                other => panic!("unexpected decision {other:?}"),
            }
        }
        assert_eq!(long, 10);
        assert_eq!(distant, 310);
    }

    #[test]
    fn brrip_is_deterministic() {
        let run = || {
            let mut p = BrripPolicy::new(1, 16);
            (0..100)
                .map(|_| match p.insertion_decision(&ctx(0)) {
                    InsertionDecision::Insert { rrpv } => rrpv,
                    _ => 255,
                })
                .collect::<Vec<u8>>()
        };
        assert_eq!(run(), run());
    }

    /// Inserts every line at distant (RRPV 3), so only a hit keeps a line.
    struct AlwaysDistant(RrpvArray);

    impl LlcReplacementPolicy for AlwaysDistant {
        fn name(&self) -> String {
            "always-distant".into()
        }
        fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
            self.0.promote(ctx.set_index, way);
        }
        fn insertion_decision(&mut self, _ctx: &AccessContext) -> InsertionDecision {
            InsertionDecision::insert(RRPV_MAX)
        }
        fn choose_victim(&mut self, ctx: &AccessContext, _lines: &[LineView]) -> usize {
            self.0.find_victim(ctx.set_index)
        }
        fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
            if let InsertionDecision::Insert { rrpv } = decision {
                self.0.set(ctx.set_index, way, *rrpv);
            }
        }
    }

    /// Hits in each pass of a cyclic loop over `ways + 1` blocks through a one-set
    /// [`SharedLlc`], driven as the system drives it: a demand access, then a fill on a
    /// miss.
    fn cyclic_hits<P: LlcReplacementPolicy>(ways: usize, passes: usize, policy: P) -> Vec<u64> {
        let mut config = SystemConfig::tiny(1).llc;
        config.geometry = CacheGeometry::new(BLOCK_BYTES * ways as u64, ways);
        let mut llc = SharedLlc::new(config, 1, u64::MAX, policy);
        assert_eq!(llc.num_sets(), 1);
        let mut now = 0;
        (0..passes)
            .map(|_| {
                let before = llc.core_stats(0).demand_hits;
                for b in 0..=ways as u64 {
                    now += 1_000;
                    if !llc.access(0, 0, BlockAddr(b), true, false, now).hit {
                        llc.fill(0, 0, BlockAddr(b), false, now);
                    }
                }
                llc.core_stats(0).demand_hits - before
            })
            .collect()
    }

    /// RRIP closed forms for a cyclic loop over blocks `b0 ..= bW` in one set of
    /// `W = ways` ways (the analytic multi-level/LLC replacement review in PAPERS.md).
    /// Pass 1 fills ways `0..W` with `b0 .. bW-1` in order, and `bW` evicts way 0.
    ///
    /// - **SRRIP: 0 hits.** Every line enters at RRPV 2, and aging lifts the set as a
    ///   whole, so the lowest way at the set's maximum is always the line inserted
    ///   longest ago, which is the next one the loop needs. That is LRU on this loop.
    /// - **Always distant: `W - 1` hits per pass after the first.** `bW` enters way 0 at
    ///   RRPV 3. Then `b0` evicts it from way 0, `b1 .. bW-1` hit and drop to RRPV 0, and
    ///   `bW` evicts way 0 again, the only line at RRPV 3.
    /// - **BRRIP: also `W - 1` hits per pass after the first.** Its throttle inserts
    ///   every 32nd fill at RRPV 2 instead of 3, and at these sizes that does not change
    ///   the count. Pass 1 makes fills `1 ..= W + 1`, so its 32nd fill, if any, is `b31`
    ///   in way 31 (at 32 ways), and `bW` still evicts `b0` from way 0. In pass 2, `b0`
    ///   finds way 0 at RRPV 3, the lowest way at the set's maximum, and evicts it. From
    ///   then on, every miss finds ways `1 .. W` hit since their last aging (so at RRPV
    ///   0 or 1) and way 0 holding the last fill at RRPV 2 or 3. Way 0 is the set's
    ///   unique maximum, so it is the victim, as under always distant.
    #[test]
    fn a_cyclic_ways_plus_one_loop_meets_the_rrip_closed_forms() {
        const PASSES: usize = 100;
        for ways in [4, 8, 16, 32] {
            let what = format!("{ways} ways");
            let srrip = cyclic_hits(ways, PASSES, SrripPolicy::new(1, ways));
            assert_eq!(srrip, vec![0; PASSES], "SRRIP, {what}");
            let reuse = |first: u64| {
                let mut hits = vec![ways as u64 - 1; PASSES];
                hits[0] = first;
                hits
            };
            let distant = cyclic_hits(ways, PASSES, AlwaysDistant(RrpvArray::new(1, ways)));
            assert_eq!(distant, reuse(0), "always distant, {what}");
            // 100 passes make 2 * 99 + ways + 1 fills: the throttle fires at least 6 times.
            let brrip = cyclic_hits(ways, PASSES, BrripPolicy::new(1, ways));
            assert_eq!(brrip, reuse(0), "BRRIP, {what}");
        }
    }

    /// SRRIP that bypasses every miss, and would mark any way it were told was filled.
    struct BypassAll(SrripPolicy);

    impl LlcReplacementPolicy for BypassAll {
        fn name(&self) -> String {
            "bypass-all".into()
        }
        fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
            self.0.on_hit(ctx, way);
        }
        fn insertion_decision(&mut self, _ctx: &AccessContext) -> InsertionDecision {
            InsertionDecision::Bypass
        }
        fn choose_victim(&mut self, ctx: &AccessContext, lines: &[LineView]) -> usize {
            self.0.choose_victim(ctx, lines)
        }
        fn on_fill(&mut self, ctx: &AccessContext, way: usize, _decision: &InsertionDecision) {
            self.0.on_fill(ctx, way, &InsertionDecision::insert(0));
        }
    }

    #[test]
    fn bypass_fills_do_not_touch_rrpv_state() {
        let mut config = SystemConfig::tiny(1).llc;
        config.geometry = CacheGeometry::new(BLOCK_BYTES * 4, 4);
        let mut llc = SharedLlc::new(config, 1, u64::MAX, BypassAll(SrripPolicy::new(1, 4)));
        for b in 0..8 {
            assert!(!llc.access(0, 0, BlockAddr(b), true, false, b).hit);
            assert!(llc.fill(0, 0, BlockAddr(b), false, b).bypassed);
        }
        // A bypass reaches no `on_fill`: all lines still at the initial distant value.
        for w in 0..4 {
            assert_eq!(llc.policy().0.rrpv_of(0, w), 3);
        }
    }
}
