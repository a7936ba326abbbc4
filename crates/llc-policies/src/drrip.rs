//! Thread-Aware Dynamic RRIP (TA-DRRIP), and DRRIP as its one-thread case.
//!
//! DRRIP uses set dueling to choose between SRRIP and BRRIP: a small pool of "leader" sets
//! always uses SRRIP, another pool always uses BRRIP, and a saturating policy-selection
//! counter (PSEL, 10 bits, threshold 512 — paper §2) tracks which pool misses less; all
//! other ("follower") sets use the winning policy.
//!
//! TA-DRRIP is the paper's baseline: each hardware thread (core/application) duels
//! independently with its own PSEL counter and its own leader sets, so each application
//! learns its own insertion policy. With one thread, every core shares one duel, which is
//! DRRIP. The paper's Figure 1 additionally evaluates a variant where applications known
//! to thrash are *forced* to use BRRIP ([`TaDrripPolicy::force_brrip_for`]), and sweeps
//! the number of dueling sets (SD = 64/128), both of which are supported here.

use cache_sim::replacement::{
    AccessContext, InsertionDecision, LineView, LlcReplacementPolicy, RrpvArray, RRPV_MAX,
};

use crate::rrip::{BRRIP_THROTTLE, SRRIP_INSERT_RRPV};

const PSEL_BITS: u32 = 10;
const PSEL_MAX: u32 = (1 << PSEL_BITS) - 1;
const PSEL_THRESHOLD: u32 = 1 << (PSEL_BITS - 1);

/// Leader-set ownership: which core's SDM a set belongs to, and for which sub-policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leader {
    None,
    Srrip(usize),
    Brrip(usize),
}

/// Leader-set map over every thread's duel.
///
/// Leader sets are spread uniformly over the index space, interleaving cores so no core's
/// monitors cluster in one region. If the requested number of dueling sets does not fit the
/// cache, it is scaled down.
#[derive(Debug, Clone)]
struct LeaderMap {
    leaders: Vec<Leader>,
    sets_per_policy: usize,
}

impl LeaderMap {
    fn new(num_sets: usize, num_threads: usize, requested_per_policy: usize) -> Self {
        // A request can never use more than every set; clamping first also keeps the
        // products below from overflowing on a request straight off the wire.
        let mut per_policy = requested_per_policy.clamp(1, num_sets.max(1));
        // Keep at least half of the sets as followers.
        while per_policy > 1 && num_threads * 2 * per_policy > num_sets / 2 {
            per_policy /= 2;
        }
        let total = num_threads * 2 * per_policy;
        let mut leaders = vec![Leader::None; num_sets];
        if total == 0 || total > num_sets {
            return LeaderMap {
                leaders,
                sets_per_policy: 0,
            };
        }
        let stride = num_sets / total;
        for i in 0..total {
            let set = i * stride;
            let thread = i % num_threads;
            let which = (i / num_threads) % 2;
            leaders[set] = if which == 0 {
                Leader::Srrip(thread)
            } else {
                Leader::Brrip(thread)
            };
        }
        LeaderMap {
            leaders,
            sets_per_policy: per_policy,
        }
    }

    #[inline]
    fn leader(&self, set: usize) -> Leader {
        self.leaders[set]
    }

    fn sets_per_policy(&self) -> usize {
        self.sets_per_policy
    }
}

/// Per-thread dueling state.
#[derive(Debug, Clone)]
struct ThreadDuel {
    psel: u32,
    brip_throttle: u32,
    forced_brrip: bool,
}

impl ThreadDuel {
    fn new() -> Self {
        // PSEL starts at zero (strong SRRIP), the conventional DIP/DRRIP initialization.
        // A thrashing application misses equally in both kinds of leader sets, so its PSEL
        // performs a symmetric random walk from zero and effectively never commits to
        // BRRIP — which is exactly the TA-DRRIP behaviour the paper's motivation section
        // reports ("TA-DRRIP learns SRRIP policy for all applications").
        ThreadDuel {
            psel: 0,
            brip_throttle: 0,
            forced_brrip: false,
        }
    }

    fn brrip_insertion(&mut self) -> u8 {
        self.brip_throttle = self.brip_throttle.wrapping_add(1);
        if self.brip_throttle.is_multiple_of(BRRIP_THROTTLE) {
            SRRIP_INSERT_RRPV
        } else {
            RRPV_MAX
        }
    }
}

/// Thread-aware DRRIP: the paper's baseline policy, and DRRIP when built with one thread.
///
/// Core `c` duels as thread `c.min(threads - 1)`, so with one thread every core shares one
/// PSEL and one pool of leader sets.
pub struct TaDrripPolicy {
    rrpv: RrpvArray,
    leaders: LeaderMap,
    threads: Vec<ThreadDuel>,
    forced_label: bool,
}

impl TaDrripPolicy {
    /// Default construction with 32 dueling sets per policy per thread.
    pub fn new(num_sets: usize, ways: usize, num_threads: usize) -> Self {
        Self::with_dueling_sets(num_sets, ways, num_threads, 32)
    }

    /// Construct with an explicit number of dueling sets per policy per thread
    /// (the paper's Figure 1a sweeps SD = 64 and SD = 128).
    pub fn with_dueling_sets(
        num_sets: usize,
        ways: usize,
        num_threads: usize,
        dueling_sets: usize,
    ) -> Self {
        let num_threads = num_threads.max(1);
        TaDrripPolicy {
            rrpv: RrpvArray::new(num_sets, ways),
            leaders: LeaderMap::new(num_sets, num_threads, dueling_sets),
            threads: (0..num_threads).map(|_| ThreadDuel::new()).collect(),
            forced_label: false,
        }
    }

    /// Force BRRIP insertions for the given cores (the paper's Figure 1
    /// "TA-DRRIP(forced)" experiment, where known-thrashing applications are pinned to
    /// BRRIP regardless of what set dueling would have learned).
    pub fn force_brrip_for(&mut self, cores: &[usize]) {
        for &c in cores {
            if c < self.threads.len() {
                self.threads[c].forced_brrip = true;
                self.forced_label = true;
            }
        }
    }

    /// Number of dueling sets per policy actually in use (after fitting to the cache).
    pub fn effective_dueling_sets(&self) -> usize {
        self.leaders.sets_per_policy()
    }

    /// Current PSEL value for a core (inspection helper for tests/experiments).
    pub fn psel_of(&self, core: usize) -> u32 {
        self.threads[core].psel
    }
}

impl LlcReplacementPolicy for TaDrripPolicy {
    fn name(&self) -> String {
        if self.forced_label {
            "TA-DRRIP(forced)".into()
        } else if self.threads.len() == 1 {
            "DRRIP".into()
        } else {
            "TA-DRRIP".into()
        }
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        self.rrpv.promote(ctx.set_index, way);
    }

    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        let thread = ctx.core_id.min(self.threads.len() - 1);
        let t = &mut self.threads[thread];

        // PSEL update: a miss in a leader set owned by this thread votes against that
        // leader's policy (misses in SRRIP leaders increment, misses in BRRIP leaders
        // decrement — paper §2 description of set-dueling). Leader sets use their own
        // policy and followers the winning one, unless the thread is forced to BRRIP.
        let brrip = match self.leaders.leader(ctx.set_index) {
            Leader::Srrip(owner) if owner == thread => {
                t.psel = (t.psel + 1).min(PSEL_MAX);
                false
            }
            Leader::Brrip(owner) if owner == thread => {
                t.psel = t.psel.saturating_sub(1);
                true
            }
            _ => t.psel >= PSEL_THRESHOLD,
        };
        let rrpv = if brrip || t.forced_brrip {
            t.brrip_insertion()
        } else {
            SRRIP_INSERT_RRPV
        };
        InsertionDecision::insert(rrpv)
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

    fn ctx(core: usize, set: usize) -> AccessContext {
        AccessContext {
            core_id: core,
            pc: 0,
            block_addr: 0,
            set_index: set,
        }
    }

    #[test]
    fn leader_map_assigns_disjoint_leaders() {
        let map = LeaderMap::new(1024, 4, 32);
        let mut srrip = 0;
        let mut brrip = 0;
        for s in 0..1024 {
            match map.leader(s) {
                Leader::Srrip(_) => srrip += 1,
                Leader::Brrip(_) => brrip += 1,
                Leader::None => {}
            }
        }
        assert_eq!(srrip, 4 * map.sets_per_policy());
        assert_eq!(brrip, 4 * map.sets_per_policy());
        assert!(srrip + brrip <= 1024 / 2, "followers must dominate");
    }

    #[test]
    fn leader_map_scales_down_when_cache_is_small() {
        let map = LeaderMap::new(64, 16, 32);
        assert!(map.sets_per_policy() >= 1);
        let leaders = (0..64).filter(|&s| map.leader(s) != Leader::None).count();
        assert!(leaders <= 32);
    }

    #[test]
    fn absurd_dueling_set_request_is_fitted_not_overflowed() {
        let p = TaDrripPolicy::with_dueling_sets(1024, 16, 16, usize::MAX);
        // 16 threads x 2 policies x 16 sets = 512 leaders: exactly half the cache.
        assert_eq!(p.effective_dueling_sets(), 16);
    }

    #[test]
    fn forced_brrip_inserts_mostly_distant() {
        let mut p = TaDrripPolicy::new(256, 16, 2);
        p.force_brrip_for(&[1]);
        assert_eq!(p.name(), "TA-DRRIP(forced)");
        let mut distant = 0;
        for i in 0..64 {
            if let InsertionDecision::Insert { rrpv: 3 } =
                p.insertion_decision(&ctx(1, (i * 7) % 256))
            {
                distant += 1;
            }
        }
        assert!(
            distant >= 62,
            "forced core should insert distant nearly always ({distant}/64)"
        );
    }

    #[test]
    fn unforced_cores_default_to_srrip_like_insertions() {
        let mut p = TaDrripPolicy::new(256, 16, 2);
        // Use a follower set (find one that is not a leader by probing a few).
        let mut follower = None;
        for s in 0..256 {
            if matches!(p.leaders.leader(s), Leader::None) {
                follower = Some(s);
                break;
            }
        }
        let s = follower.expect("must have follower sets");
        match p.insertion_decision(&ctx(0, s)) {
            InsertionDecision::Insert { rrpv } => assert_eq!(rrpv, SRRIP_INSERT_RRPV),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn psel_moves_toward_brrip_when_srrip_leaders_miss() {
        let mut p = TaDrripPolicy::new(1024, 16, 2);
        let start = p.psel_of(0);
        // Find core 0's SRRIP leader sets and hammer misses into them.
        let srrip_leaders: Vec<usize> = (0..1024)
            .filter(|&s| matches!(p.leaders.leader(s), Leader::Srrip(0)))
            .collect();
        assert!(!srrip_leaders.is_empty());
        for _ in 0..10 {
            for &s in &srrip_leaders {
                p.insertion_decision(&ctx(0, s));
            }
        }
        assert!(p.psel_of(0) > start, "PSEL should move toward BRRIP");
        // Core 1's PSEL is untouched.
        assert_eq!(p.psel_of(1), start);
    }

    #[test]
    fn drrip_uses_a_single_duel_for_all_cores() {
        let mut p = TaDrripPolicy::new(256, 16, 1);
        assert_eq!(p.name(), "DRRIP");
        // Any core id maps to thread 0; this must not panic even for large core ids.
        let _ = p.insertion_decision(&ctx(7, 3));
        let _ = p.insertion_decision(&ctx(15, 250));
    }

    #[test]
    fn victim_selection_follows_rrip_aging() {
        let mut p = TaDrripPolicy::new(16, 4, 2);
        for w in 0..4 {
            p.on_fill(&ctx(0, 0), w, &InsertionDecision::insert(2));
        }
        p.on_hit(&ctx(0, 0), 3);
        assert_eq!(p.choose_victim(&ctx(0, 0), &[]), 0);
    }
}
