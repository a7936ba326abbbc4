//! Bypass wrapper: turn distant-priority insertions into LLC bypasses.
//!
//! The paper's Figure 6 shows that the idea of bypassing distant-reuse cache lines (rather
//! than inserting them at RRPV 3) is not specific to ADAPT: applied to TA-DRRIP and EAF it
//! improves performance, while SHiP (whose few distant predictions are mostly wrong) loses
//! slightly. [`BypassDistant`] wraps any inner policy and converts its
//! `Insert {{ rrpv: 3 }}` decisions into [`InsertionDecision::Bypass`], leaving everything
//! else untouched.

use cache_sim::replacement::{
    AccessContext, InsertionDecision, LineView, LlcReplacementPolicy, RRPV_MAX,
};

/// Wraps an inner policy and bypasses its distant-priority insertions.
///
/// Generic over the wrapped policy, so the Figure 6 variants call straight into
/// `TaDrripPolicy` / `ShipPolicy` / `EafPolicy` instead of through a vtable.
pub struct BypassDistant<P> {
    inner: P,
    /// Number of insertions converted into bypasses.
    pub bypassed: u64,
    /// Number of insertions passed through unchanged.
    pub passed_through: u64,
}

impl<P: LlcReplacementPolicy> BypassDistant<P> {
    pub fn new(inner: P) -> Self {
        BypassDistant {
            inner,
            bypassed: 0,
            passed_through: 0,
        }
    }
}

impl<P: LlcReplacementPolicy> LlcReplacementPolicy for BypassDistant<P> {
    fn name(&self) -> String {
        format!("{}+bypass", self.inner.name())
    }

    fn on_access(&mut self, ctx: &AccessContext) {
        self.inner.on_access(ctx);
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        self.inner.on_hit(ctx, way);
    }

    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        match self.inner.insertion_decision(ctx) {
            InsertionDecision::Insert { rrpv } if rrpv >= RRPV_MAX => {
                self.bypassed += 1;
                InsertionDecision::Bypass
            }
            other => {
                self.passed_through += 1;
                other
            }
        }
    }

    fn choose_victim(&mut self, ctx: &AccessContext, lines: &[LineView]) -> usize {
        self.inner.choose_victim(ctx, lines)
    }

    fn on_evict(&mut self, ctx: &AccessContext, evicted_block: u64, owner: usize) {
        self.inner.on_evict(ctx, evicted_block, owner);
    }

    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
        self.inner.on_fill(ctx, way, decision);
    }

    fn on_interval(&mut self) {
        self.inner.on_interval();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrip::{BrripPolicy, SrripPolicy};

    fn ctx(set: usize) -> AccessContext {
        AccessContext {
            core_id: 0,
            pc: 0,
            block_addr: 0,
            set_index: set,
        }
    }

    #[test]
    fn srrip_insertions_pass_through() {
        let mut p = BypassDistant::new(SrripPolicy::new(4, 4));
        assert_eq!(
            p.insertion_decision(&ctx(0)),
            InsertionDecision::Insert { rrpv: 2 }
        );
        assert_eq!(p.passed_through, 1);
        assert_eq!(p.bypassed, 0);
    }

    #[test]
    fn brrip_distant_insertions_become_bypasses() {
        let mut p = BypassDistant::new(BrripPolicy::new(4, 4));
        let mut bypasses = 0;
        for _ in 0..32 {
            if p.insertion_decision(&ctx(0)).is_bypass() {
                bypasses += 1;
            }
        }
        assert_eq!(bypasses, 31, "BRRIP inserts distant 31 out of 32 times");
        assert_eq!(p.bypassed, 31);
        assert_eq!(p.passed_through, 1);
    }

    #[test]
    fn name_reflects_wrapping() {
        let p = BypassDistant::new(SrripPolicy::new(2, 2));
        assert_eq!(p.name(), "SRRIP+bypass");
    }
}
