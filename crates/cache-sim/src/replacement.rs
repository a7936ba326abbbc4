//! Pluggable replacement-policy interface for the shared last-level cache.
//!
//! The LLC owns the tag array and valid/dirty bits; a policy owns all of its own
//! replacement state (RRPVs, recency stacks, set-dueling counters, samplers, ...). The LLC
//! drives a policy through the following call sequence for every demand or prefetch access:
//!
//! 1. [`LlcReplacementPolicy::on_access`] — observation hook fired for every access before
//!    it is resolved; ADAPT's Footprint-number monitor samples here.
//! 2. On a **hit**: [`LlcReplacementPolicy::on_hit`].
//! 3. On a **miss**: [`LlcReplacementPolicy::insertion_decision`] decides between inserting
//!    (with a 0..=3 re-reference prediction value) and bypassing the LLC entirely.
//!    If inserting and the set is full, [`LlcReplacementPolicy::choose_victim`] picks the
//!    way to evict, [`LlcReplacementPolicy::on_evict`] reports the eviction (EAF consumes
//!    this), and [`LlcReplacementPolicy::on_fill`] reports the completed fill.
//! 4. Every `interval_misses` LLC misses, [`LlcReplacementPolicy::on_interval`] fires
//!    (ADAPT recomputes Footprint-numbers and re-derives priorities there).
//!
//! RRPV conventions follow the RRIP papers and the ADAPT paper: 0 = re-used in the
//! near-immediate future, 3 = distant future (eviction candidate).

/// The largest re-reference prediction value (2-bit RRPV, so 3 = distant).
pub const RRPV_MAX: u8 = 3;

/// Per-access context handed to the replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessContext {
    /// Requesting core (one application per core, per the paper).
    pub core_id: usize,
    /// Program counter of the memory instruction (used by SHiP signatures).
    pub pc: u64,
    /// Block address (byte address >> 6).
    pub block_addr: u64,
    /// LLC set index of the access.
    pub set_index: usize,
    /// True for demand accesses; false for prefetches and write-backs.
    /// Only demand accesses update recency state and are sampled by monitors (paper §3.1).
    pub is_demand: bool,
    /// True if the access is a store.
    pub is_write: bool,
}

/// What to do with a line that missed in the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertionDecision {
    /// Allocate the line and set its re-reference prediction value.
    Insert {
        /// 0 = near-immediate reuse ... 3 = distant reuse.
        rrpv: u8,
    },
    /// Do not allocate in the LLC; the fill goes directly to the private L2
    /// (paper §3.2, "Least Priority" bypassing).
    Bypass,
}

impl InsertionDecision {
    /// Convenience constructor.
    pub fn insert(rrpv: u8) -> Self {
        InsertionDecision::Insert {
            rrpv: rrpv.min(RRPV_MAX),
        }
    }

    /// True if this decision bypasses the cache.
    pub fn is_bypass(&self) -> bool {
        matches!(self, InsertionDecision::Bypass)
    }
}

/// Read-only view of a cache way exposed to `choose_victim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineView {
    pub valid: bool,
    /// Core that inserted the line (application owner).
    pub owner: usize,
    /// Block address stored in the line (meaningless if `!valid`).
    pub block_addr: u64,
    pub dirty: bool,
}

/// A shared-LLC replacement policy.
///
/// Implementations must be deterministic given their construction-time seed: the simulator
/// relies on reproducible runs for regression testing.
pub trait LlcReplacementPolicy: Send {
    /// Human-readable policy name (used in experiment reports).
    fn name(&self) -> String;

    /// Observation hook fired for every access (hit or miss) before resolution.
    fn on_access(&mut self, _ctx: &AccessContext) {}

    /// The access hit in `way`.
    fn on_hit(&mut self, ctx: &AccessContext, way: usize);

    /// Decide whether/with what priority to insert a missing line.
    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision;

    /// Choose a victim way; every entry of `lines` is valid when this is called.
    fn choose_victim(&mut self, ctx: &AccessContext, lines: &[LineView]) -> usize;

    /// A line was evicted from the cache (not called for bypassed fills).
    fn on_evict(&mut self, _ctx: &AccessContext, _evicted_block: u64, _owner: usize) {}

    /// The missing line has been filled into `way` with the given decision.
    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision);

    /// Fired every `interval_misses` LLC misses (paper: 1M), for interval-based adaptation.
    fn on_interval(&mut self) {}
}

/// Boxed policies are policies too, so code generic over `P: LlcReplacementPolicy` can be
/// instantiated with `Box<dyn LlcReplacementPolicy>` as well as with concrete or
/// enum-dispatched policy types. The oracle in the workspace's `tests/oracle/` takes its
/// policy this way, and tests and the benchmark box what they need themselves; no
/// production path does.
impl<P: LlcReplacementPolicy + ?Sized> LlcReplacementPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_access(&mut self, ctx: &AccessContext) {
        (**self).on_access(ctx)
    }
    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        (**self).on_hit(ctx, way)
    }
    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        (**self).insertion_decision(ctx)
    }
    fn choose_victim(&mut self, ctx: &AccessContext, lines: &[LineView]) -> usize {
        (**self).choose_victim(ctx, lines)
    }
    fn on_evict(&mut self, ctx: &AccessContext, evicted_block: u64, owner: usize) {
        (**self).on_evict(ctx, evicted_block, owner)
    }
    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
        (**self).on_fill(ctx, way, decision)
    }
    fn on_interval(&mut self) {
        (**self).on_interval()
    }
}

/// Per-line RRPV state shared by every RRIP-family policy (SRRIP, BRRIP, DRRIP, TA-DRRIP,
/// SHiP, EAF and ADAPT all manage victims identically; only insertion values differ).
///
/// Provided here so both `llc-policies` and `adapt-core` reuse one audited implementation.
#[derive(Debug, Clone)]
pub struct RrpvArray {
    ways: usize,
    rrpv: Vec<u8>,
}

impl RrpvArray {
    /// All lines start at distant (RRPV 3) so that invalid-way fills behave like SRRIP cold
    /// starts.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        RrpvArray {
            ways,
            rrpv: vec![RRPV_MAX; num_sets * ways],
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Bytes the array holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rrpv.capacity()
    }

    /// RRPV of a line.
    #[inline]
    pub fn get(&self, set: usize, way: usize) -> u8 {
        self.rrpv[self.idx(set, way)]
    }

    /// Set the RRPV of a line.
    #[inline]
    pub fn set(&mut self, set: usize, way: usize, value: u8) {
        let i = self.idx(set, way);
        self.rrpv[i] = value.min(RRPV_MAX);
    }

    /// Promote a hitting line to near-immediate reuse (RRPV 0), the hit-priority policy used
    /// by the paper and by the RRIP baselines.
    #[inline]
    pub fn promote(&mut self, set: usize, way: usize) {
        self.set(set, way, 0);
    }

    /// SRRIP-style victim search: find a way at RRPV 3, aging the whole set until one exists.
    /// Returns the chosen way. Deterministic: the lowest way index at RRPV_MAX wins.
    pub fn find_victim(&mut self, set: usize) -> usize {
        loop {
            let base = set * self.ways;
            for way in 0..self.ways {
                if self.rrpv[base + way] == RRPV_MAX {
                    return way;
                }
            }
            for way in 0..self.ways {
                self.rrpv[base + way] += 1;
            }
        }
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_decision_clamps_rrpv() {
        assert_eq!(
            InsertionDecision::insert(7),
            InsertionDecision::Insert { rrpv: 3 }
        );
        assert!(!InsertionDecision::insert(0).is_bypass());
        assert!(InsertionDecision::Bypass.is_bypass());
    }

    #[test]
    fn rrpv_array_initializes_distant() {
        let arr = RrpvArray::new(4, 4);
        for s in 0..4 {
            for w in 0..4 {
                assert_eq!(arr.get(s, w), RRPV_MAX);
            }
        }
    }

    #[test]
    fn promote_sets_zero_and_set_clamps() {
        let mut arr = RrpvArray::new(2, 2);
        arr.promote(1, 1);
        assert_eq!(arr.get(1, 1), 0);
        arr.set(0, 0, 9);
        assert_eq!(arr.get(0, 0), 3);
    }

    #[test]
    fn find_victim_prefers_existing_distant_line() {
        let mut arr = RrpvArray::new(1, 4);
        arr.set(0, 0, 1);
        arr.set(0, 1, 2);
        arr.set(0, 2, 3);
        arr.set(0, 3, 0);
        assert_eq!(arr.find_victim(0), 2);
        // No aging should have happened because a distant line existed.
        assert_eq!(arr.get(0, 0), 1);
        assert_eq!(arr.get(0, 3), 0);
    }

    #[test]
    fn find_victim_ages_until_distant() {
        let mut arr = RrpvArray::new(1, 3);
        arr.set(0, 0, 0);
        arr.set(0, 1, 1);
        arr.set(0, 2, 1);
        let victim = arr.find_victim(0);
        // Ways 1 and 2 reach RRPV 3 after two aging rounds; lowest index wins.
        assert_eq!(victim, 1);
        assert_eq!(arr.get(0, 0), 2);
        assert_eq!(arr.get(0, 1), 3);
        assert_eq!(arr.get(0, 2), 3);
    }

    #[test]
    fn find_victim_terminates_from_all_zero() {
        let mut arr = RrpvArray::new(1, 4);
        for w in 0..4 {
            arr.set(0, w, 0);
        }
        let v = arr.find_victim(0);
        assert_eq!(v, 0);
        for w in 0..4 {
            assert_eq!(arr.get(0, w), 3);
        }
    }
}
