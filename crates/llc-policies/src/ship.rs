//! SHiP-PC: Signature-based Hit Predictor (Wu et al., MICRO 2011).
//!
//! SHiP associates each cache line with the signature (here: a hash of the program counter
//! and core id) of the instruction that inserted it, plus a 1-bit "was re-referenced"
//! outcome. A Signature History Counter Table (SHCT) of saturating counters learns, per
//! signature, whether lines inserted by that signature tend to be re-referenced:
//!
//! * on a hit, the line's outcome bit is set and the SHCT entry is incremented;
//! * on eviction of a never-re-referenced line, the SHCT entry is decremented;
//! * on insertion, a zero SHCT entry predicts a *distant* re-reference (RRPV 3) and any
//!   non-zero entry predicts an intermediate one (SRRIP's RRPV 2).
//!
//! Victimization is SRRIP. The paper observes that, because SHiP learns from hits and
//! misses observed at the *shared* cache, it behaves like TA-DRRIP in the
//! `#cores >= #ways` regime: only ~3% of insertions are predicted distant, so thrashing
//! applications are not tamed (paper §5.1).

use cache_sim::replacement::{
    AccessContext, InsertionDecision, LineView, LlcReplacementPolicy, RrpvArray, RRPV_MAX,
};

use crate::rrip::SRRIP_INSERT_RRPV;

/// Number of SHCT entries (2^14, as in the SHiP paper's PC-based configuration).
pub const SHCT_ENTRIES: usize = 1 << 14;
/// Saturating-counter maximum (3-bit counters).
pub const SHCT_MAX: u8 = 7;
/// Counters start at a weakly-reused value so cold signatures are not immediately distant.
pub const SHCT_INIT: u8 = 1;

#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    signature: u16,
    outcome: bool,
    valid: bool,
}

/// The SHiP-PC policy.
pub struct ShipPolicy {
    rrpv: RrpvArray,
    ways: usize,
    shct: Vec<u8>,
    meta: Vec<LineMeta>,
    /// Statistics: how many insertions were predicted distant (the paper quotes ~3%).
    pub distant_predictions: u64,
    pub total_predictions: u64,
}

impl ShipPolicy {
    /// Signatures are disambiguated per core by `Self::signature`, so SHiP needs no core
    /// count.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        ShipPolicy {
            rrpv: RrpvArray::new(num_sets, ways),
            ways,
            shct: vec![SHCT_INIT; SHCT_ENTRIES],
            meta: vec![LineMeta::default(); num_sets * ways],
            distant_predictions: 0,
            total_predictions: 0,
        }
    }

    /// Signature of an access: PC hashed with the core id so different applications using
    /// the same synthetic PC ranges do not alias.
    fn signature(&self, ctx: &AccessContext) -> u16 {
        let pc = ctx.pc;
        let mixed =
            pc ^ (pc >> 17) ^ ((ctx.core_id as u64) << 9) ^ (ctx.core_id as u64 * 0x9e37_79b9);
        (mixed as usize % SHCT_ENTRIES) as u16
    }

    #[inline]
    fn meta_idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Fraction of insertions predicted distant so far.
    pub fn distant_fraction(&self) -> f64 {
        if self.total_predictions == 0 {
            0.0
        } else {
            self.distant_predictions as f64 / self.total_predictions as f64
        }
    }
}

impl LlcReplacementPolicy for ShipPolicy {
    fn name(&self) -> String {
        "SHiP".into()
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        self.rrpv.promote(ctx.set_index, way);
        let idx = self.meta_idx(ctx.set_index, way);
        if self.meta[idx].valid && !self.meta[idx].outcome {
            self.meta[idx].outcome = true;
            let sig = self.meta[idx].signature as usize;
            self.shct[sig] = (self.shct[sig] + 1).min(SHCT_MAX);
        }
    }

    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        let sig = self.signature(ctx) as usize;
        self.total_predictions += 1;
        if self.shct[sig] == 0 {
            self.distant_predictions += 1;
            InsertionDecision::insert(RRPV_MAX)
        } else {
            InsertionDecision::insert(SRRIP_INSERT_RRPV)
        }
    }

    fn choose_victim(&mut self, ctx: &AccessContext, _lines: &[LineView]) -> usize {
        self.rrpv.find_victim(ctx.set_index)
    }

    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
        let idx = self.meta_idx(ctx.set_index, way);
        // Train down the signature of the line we are overwriting if it was never reused.
        if self.meta[idx].valid && !self.meta[idx].outcome {
            let old_sig = self.meta[idx].signature as usize;
            self.shct[old_sig] = self.shct[old_sig].saturating_sub(1);
        }
        if let InsertionDecision::Insert { rrpv } = decision {
            self.rrpv.set(ctx.set_index, way, *rrpv);
        }
        self.meta[idx] = LineMeta {
            signature: self.signature(ctx),
            outcome: false,
            valid: true,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(core: usize, pc: u64, set: usize) -> AccessContext {
        AccessContext {
            core_id: core,
            pc,
            block_addr: 0,
            set_index: set,
        }
    }

    #[test]
    fn cold_signatures_insert_intermediate() {
        let mut p = ShipPolicy::new(16, 4);
        match p.insertion_decision(&ctx(0, 0x400123, 3)) {
            InsertionDecision::Insert { rrpv } => assert_eq!(rrpv, SRRIP_INSERT_RRPV),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn signatures_with_no_reuse_become_distant() {
        let mut p = ShipPolicy::new(16, 4);
        let c = ctx(0, 0xdead, 0);
        // Insert and overwrite (never reused) enough times to drive the SHCT entry to zero.
        for i in 0..(SHCT_INIT as usize + 2) {
            let d = p.insertion_decision(&c);
            p.on_fill(&c, i % 4, &d);
            // Overwrite the same way with the same signature; the old line had no hit.
            let d2 = p.insertion_decision(&c);
            p.on_fill(&c, i % 4, &d2);
        }
        match p.insertion_decision(&c) {
            InsertionDecision::Insert { rrpv } => assert_eq!(rrpv, RRPV_MAX),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.distant_fraction() > 0.0);
    }

    #[test]
    fn reused_signatures_recover_intermediate_priority() {
        let mut p = ShipPolicy::new(16, 4);
        let c = ctx(1, 0xbeef, 1);
        // Drive the counter to zero with unreused fills.
        for _ in 0..8 {
            let d = p.insertion_decision(&c);
            p.on_fill(&c, 0, &d);
        }
        // Now show reuse: fill then hit, several times.
        for _ in 0..4 {
            let d = p.insertion_decision(&c);
            p.on_fill(&c, 1, &d);
            p.on_hit(&c, 1);
        }
        match p.insertion_decision(&c) {
            InsertionDecision::Insert { rrpv } => assert_eq!(rrpv, SRRIP_INSERT_RRPV),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn different_cores_with_same_pc_use_different_signatures() {
        let p = ShipPolicy::new(16, 4);
        let s0 = p.signature(&ctx(0, 0x1234, 0));
        let s1 = p.signature(&ctx(1, 0x1234, 0));
        assert_ne!(s0, s1);
    }

    #[test]
    fn hit_sets_outcome_only_once() {
        let mut p = ShipPolicy::new(4, 2);
        let c = ctx(0, 0x77, 0);
        let d = p.insertion_decision(&c);
        p.on_fill(&c, 0, &d);
        let sig = p.signature(&c) as usize;
        let before = p.shct[sig];
        p.on_hit(&c, 0);
        p.on_hit(&c, 0);
        p.on_hit(&c, 0);
        assert_eq!(p.shct[sig], (before + 1).min(SHCT_MAX));
    }
}
