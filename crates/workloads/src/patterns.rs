//! Synthetic memory-access pattern generators.
//!
//! Each generator produces an infinite [`TraceSource`] over an application-private address
//! space (the application slot is encoded in the top address bits so co-running
//! applications never share cache lines, as in the paper's multiprogrammed methodology).
//! The patterns correspond to the behaviours the paper describes:
//!
//! * [`PatternSpec::CyclicSweep`] — a working set of `footprint_per_set x llc_sets` blocks
//!   traversed cyclically; per-LLC-set footprint equals `footprint_per_set` and temporal
//!   reuse exists at the sweep period (recency-friendly or cache-fitting applications).
//! * [`PatternSpec::Streaming`] — an effectively unbounded scan with no reuse (thrashing /
//!   streaming applications such as lbm or STREAM; Footprint-number saturates).
//! * [`PatternSpec::RandomInRegion`] — uniform random accesses within a working set
//!   (pointer-chasing applications such as mcf).
//! * [`PatternSpec::MixedScan`] — the `({a1..am}^k {s1..sn}^d)` mixed recency/scan pattern
//!   the paper attributes to its Low-priority class.
//!
//! Memory intensity is controlled by `reps` (consecutive accesses to the same line, which
//! hit in the L1) and `gap` (non-memory instructions between accesses): together they set
//! the number of instructions per L2 miss and therefore the L2-MPKI class.

use cache_sim::trace::{MemAccess, TraceSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Byte offset used to separate application address spaces.
const APP_SPACE_SHIFT: u32 = 40;
/// Block size (must match the simulator's 64-byte lines).
const BLOCK: u64 = 64;

/// Specification of a synthetic access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternSpec {
    /// Cyclic sequential sweep over `footprint_per_set * llc_sets` blocks.
    CyclicSweep {
        /// Target unique blocks per LLC set.
        footprint_per_set: f64,
        /// Consecutive accesses to each block (L1-resident reuse).
        reps: u32,
        /// Non-memory instructions between memory accesses.
        gap: u32,
    },
    /// Endless streaming scan (no reuse).
    Streaming { reps: u32, gap: u32 },
    /// Uniform random accesses within `footprint_per_set * llc_sets` blocks.
    RandomInRegion {
        footprint_per_set: f64,
        reps: u32,
        gap: u32,
    },
    /// Mixed recency/scan: `recency_blocks` accessed `recency_passes` times, then a scan of
    /// `scan_blocks` fresh blocks, repeated.
    MixedScan {
        recency_blocks: u64,
        recency_passes: u32,
        scan_blocks: u64,
        reps: u32,
        gap: u32,
    },
}

impl PatternSpec {
    /// Instructions per memory access implied by the pattern (1 memory + gap non-memory).
    pub fn instructions_per_access(&self) -> u64 {
        let gap = match self {
            PatternSpec::CyclicSweep { gap, .. }
            | PatternSpec::Streaming { gap, .. }
            | PatternSpec::RandomInRegion { gap, .. }
            | PatternSpec::MixedScan { gap, .. } => *gap,
        };
        u64::from(gap) + 1
    }
}

/// Phase of the mixed recency/scan pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MixedPhase {
    Recency { pass: u32, idx: u64 },
    Scan { idx: u64 },
}

/// An infinite synthetic trace implementing one [`PatternSpec`].
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    name: String,
    spec: PatternSpec,
    base: u64,
    /// Size of the cyclic/random working set in blocks (unused for streaming).
    region_blocks: u64,
    /// Current block index within the pattern.
    cursor: u64,
    /// Remaining repetitions of the current block.
    reps_left: u32,
    /// Counter used to derive writes (every 4th access is a store) and PC rotation.
    access_counter: u64,
    /// Scan offset for streaming / mixed patterns (monotonically increasing, wraps at 2^30).
    scan_cursor: u64,
    mixed_phase: MixedPhase,
    rng: SmallRng,
    seed: u64,
    pc_base: u64,
    /// Reuse skew: every `hot_every`-th access (0 = disabled) is redirected to a small
    /// "hot" subset of the working set, giving part of the footprint a much shorter reuse
    /// distance. Real applications exhibit exactly this skew (a fraction of the working set
    /// is touched far more often); a purely uniform cyclic sweep would make line retention
    /// worthless whenever the aggregate working set exceeds the cache.
    hot_every: u64,
    /// Size of the hot subset in blocks: the working set's first `1/divisor` (default
    /// 8), at least one.
    hot_blocks: u64,
    /// Accesses since the last hot one, counted up to `hot_every`.
    hot_phase: u64,
    hot_cursor: u64,
}

impl SyntheticTrace {
    /// Build a trace. `app_slot` selects the private address space; `llc_sets` scales
    /// per-set footprints into working-set sizes; `seed` drives the (deterministic) RNG.
    pub fn new(
        name: impl Into<String>,
        spec: PatternSpec,
        app_slot: usize,
        llc_sets: usize,
        seed: u64,
    ) -> Self {
        let name = name.into();
        let base = (app_slot as u64 + 1) << APP_SPACE_SHIFT;
        let region_blocks = match spec {
            PatternSpec::CyclicSweep {
                footprint_per_set, ..
            }
            | PatternSpec::RandomInRegion {
                footprint_per_set, ..
            } => ((footprint_per_set * llc_sets as f64).ceil() as u64).max(1),
            PatternSpec::Streaming { .. } => 1 << 30,
            PatternSpec::MixedScan { recency_blocks, .. } => recency_blocks.max(1),
        };
        let reps = match spec {
            PatternSpec::CyclicSweep { reps, .. }
            | PatternSpec::Streaming { reps, .. }
            | PatternSpec::RandomInRegion { reps, .. }
            | PatternSpec::MixedScan { reps, .. } => reps.max(1),
        };
        let mut hashed_seed = seed ^ (app_slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in name.bytes() {
            hashed_seed = hashed_seed.wrapping_mul(31).wrapping_add(u64::from(b));
        }
        SyntheticTrace {
            pc_base: 0x0040_0000 + ((hashed_seed & 0xffff) << 4),
            name,
            spec,
            base,
            region_blocks,
            cursor: 0,
            reps_left: reps,
            access_counter: 0,
            scan_cursor: 0,
            mixed_phase: MixedPhase::Recency { pass: 0, idx: 0 },
            rng: SmallRng::seed_from_u64(hashed_seed),
            seed: hashed_seed,
            hot_every: 0,
            hot_blocks: (region_blocks / 8).max(1),
            hot_phase: 0,
            hot_cursor: 0,
        }
    }

    /// Enable reuse skew: every `every`-th access goes to the hot subset of the working set
    /// (its first `1/divisor` blocks). Only meaningful for cyclic and random patterns; a
    /// no-op when `every` is 0.
    pub fn with_hot_region(mut self, every: u32, divisor: u32) -> Self {
        self.hot_every = u64::from(every);
        self.hot_blocks = (self.region_blocks / u64::from(divisor.max(1))).max(1);
        self
    }

    /// The working-set size in blocks used by cyclic/random patterns.
    pub fn region_blocks(&self) -> u64 {
        self.region_blocks
    }

    /// The pattern specification.
    pub fn spec(&self) -> &PatternSpec {
        &self.spec
    }

    fn gap(&self) -> u32 {
        match self.spec {
            PatternSpec::CyclicSweep { gap, .. }
            | PatternSpec::Streaming { gap, .. }
            | PatternSpec::RandomInRegion { gap, .. }
            | PatternSpec::MixedScan { gap, .. } => gap,
        }
    }

    fn reps(&self) -> u32 {
        match self.spec {
            PatternSpec::CyclicSweep { reps, .. }
            | PatternSpec::Streaming { reps, .. }
            | PatternSpec::RandomInRegion { reps, .. }
            | PatternSpec::MixedScan { reps, .. } => reps.max(1),
        }
    }

    /// Current block index according to the pattern, advancing pattern state when the
    /// repetition budget for the current block is exhausted.
    fn next_block_index(&mut self) -> u64 {
        if self.reps_left == 0 {
            self.advance_block();
            self.reps_left = self.reps();
        }
        self.reps_left -= 1;
        self.current_block_index()
    }

    fn current_block_index(&mut self) -> u64 {
        match self.spec {
            // `advance_block` keeps both cursors inside their range.
            PatternSpec::CyclicSweep { .. } => self.cursor,
            PatternSpec::Streaming { .. } => self.scan_cursor % (1 << 30),
            PatternSpec::RandomInRegion { .. } => self.cursor,
            PatternSpec::MixedScan {
                recency_blocks,
                scan_blocks,
                ..
            } => match self.mixed_phase {
                MixedPhase::Recency { idx, .. } => idx,
                MixedPhase::Scan { idx } => {
                    recency_blocks + (self.scan_cursor * scan_blocks.max(1) + idx) % (1 << 28)
                }
            },
        }
    }

    fn advance_block(&mut self) {
        match self.spec {
            PatternSpec::CyclicSweep { .. } => {
                self.cursor += 1;
                if self.cursor == self.region_blocks {
                    self.cursor = 0;
                }
            }
            PatternSpec::Streaming { .. } => {
                self.scan_cursor = self.scan_cursor.wrapping_add(1);
            }
            PatternSpec::RandomInRegion { .. } => {
                self.cursor = self.rng.gen_range(0..self.region_blocks);
            }
            PatternSpec::MixedScan {
                recency_blocks,
                recency_passes,
                scan_blocks,
                ..
            } => {
                self.mixed_phase = match self.mixed_phase {
                    MixedPhase::Recency { pass, idx } => {
                        let next_idx = idx + 1;
                        if next_idx >= recency_blocks.max(1) {
                            if pass + 1 >= recency_passes.max(1) {
                                MixedPhase::Scan { idx: 0 }
                            } else {
                                MixedPhase::Recency {
                                    pass: pass + 1,
                                    idx: 0,
                                }
                            }
                        } else {
                            MixedPhase::Recency {
                                pass,
                                idx: next_idx,
                            }
                        }
                    }
                    MixedPhase::Scan { idx } => {
                        let next_idx = idx + 1;
                        if next_idx >= scan_blocks.max(1) {
                            self.scan_cursor = self.scan_cursor.wrapping_add(1);
                            MixedPhase::Recency { pass: 0, idx: 0 }
                        } else {
                            MixedPhase::Scan { idx: next_idx }
                        }
                    }
                };
            }
        }
    }
}

impl TraceSource for SyntheticTrace {
    fn next_access(&mut self) -> MemAccess {
        self.access_counter += 1;
        // Every `hot_every`-th access, counted without dividing `access_counter`.
        let hot_turn = self.hot_every > 0 && {
            self.hot_phase += 1;
            if self.hot_phase == self.hot_every {
                self.hot_phase = 0;
            }
            self.hot_phase == 0
        };
        let block = if hot_turn && self.region_blocks > self.hot_blocks {
            // Skewed reuse: revisit the hot subset without advancing the main pattern.
            self.hot_cursor += 1;
            if self.hot_cursor == self.hot_blocks {
                self.hot_cursor = 0;
            }
            self.hot_cursor
        } else {
            self.next_block_index()
        };
        let addr = self.base + block * BLOCK;
        let is_write = self.access_counter.is_multiple_of(4);
        let pc = self.pc_base + (self.access_counter % 13) * 4;
        MemAccess {
            addr,
            pc,
            is_write,
            non_mem_instrs: self.gap(),
        }
    }

    fn reset(&mut self) {
        self.cursor = 0;
        self.reps_left = self.reps();
        self.access_counter = 0;
        self.scan_cursor = 0;
        self.mixed_phase = MixedPhase::Recency { pass: 0, idx: 0 };
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.hot_phase = 0;
        self.hot_cursor = 0;
    }

    fn label(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn drain(t: &mut SyntheticTrace, n: usize) -> Vec<MemAccess> {
        (0..n).map(|_| t.next_access()).collect()
    }

    #[test]
    fn cyclic_sweep_touches_exactly_the_working_set() {
        let spec = PatternSpec::CyclicSweep {
            footprint_per_set: 2.0,
            reps: 1,
            gap: 3,
        };
        let mut t = SyntheticTrace::new("ws", spec, 0, 64, 1);
        assert_eq!(t.region_blocks(), 128);
        let accesses = drain(&mut t, 512);
        let blocks: HashSet<u64> = accesses.iter().map(|a| a.addr / BLOCK).collect();
        assert_eq!(blocks.len(), 128, "exactly footprint*sets distinct blocks");
    }

    #[test]
    fn cyclic_sweep_per_set_footprint_matches_target() {
        let llc_sets = 64usize;
        let spec = PatternSpec::CyclicSweep {
            footprint_per_set: 4.0,
            reps: 2,
            gap: 0,
        };
        let mut t = SyntheticTrace::new("fp4", spec, 1, llc_sets, 7);
        let accesses = drain(&mut t, 4 * llc_sets * 2 * 2);
        let mut per_set: Vec<HashSet<u64>> = vec![HashSet::new(); llc_sets];
        for a in &accesses {
            let block = a.addr / BLOCK;
            per_set[(block % llc_sets as u64) as usize].insert(block);
        }
        let avg: f64 = per_set.iter().map(|s| s.len() as f64).sum::<f64>() / llc_sets as f64;
        assert!((avg - 4.0).abs() < 0.5, "avg per-set footprint = {avg}");
    }

    #[test]
    fn streaming_never_reuses_blocks() {
        let spec = PatternSpec::Streaming { reps: 1, gap: 1 };
        let mut t = SyntheticTrace::new("stream", spec, 0, 64, 1);
        let accesses = drain(&mut t, 10_000);
        let blocks: HashSet<u64> = accesses.iter().map(|a| a.addr / BLOCK).collect();
        assert_eq!(blocks.len(), 10_000);
    }

    #[test]
    fn reps_create_immediate_reuse() {
        let spec = PatternSpec::CyclicSweep {
            footprint_per_set: 1.0,
            reps: 3,
            gap: 0,
        };
        let mut t = SyntheticTrace::new("reps", spec, 0, 16, 1);
        let a = drain(&mut t, 6);
        assert_eq!(a[0].addr, a[1].addr);
        assert_eq!(a[1].addr, a[2].addr);
        assert_ne!(a[2].addr, a[3].addr);
        assert_eq!(a[3].addr, a[4].addr);
    }

    #[test]
    fn random_region_stays_in_bounds_and_is_deterministic() {
        let spec = PatternSpec::RandomInRegion {
            footprint_per_set: 8.0,
            reps: 1,
            gap: 2,
        };
        let mut t1 = SyntheticTrace::new("rand", spec, 2, 64, 42);
        let mut t2 = SyntheticTrace::new("rand", spec, 2, 64, 42);
        let a1 = drain(&mut t1, 1000);
        let a2 = drain(&mut t2, 1000);
        assert_eq!(a1, a2, "same seed, same trace");
        let max_block = 8 * 64;
        for a in &a1 {
            let rel = (a.addr - ((2u64 + 1) << APP_SPACE_SHIFT)) / BLOCK;
            assert!(rel < max_block as u64);
        }
    }

    #[test]
    fn mixed_scan_alternates_recency_and_scan_phases() {
        let spec = PatternSpec::MixedScan {
            recency_blocks: 4,
            recency_passes: 2,
            scan_blocks: 8,
            reps: 1,
            gap: 0,
        };
        let mut t = SyntheticTrace::new("mixed", spec, 0, 64, 3);
        let accesses = drain(&mut t, 16 + 8);
        // The first 8 accesses are two passes over 4 recency blocks.
        let recency: HashSet<u64> = accesses[..8].iter().map(|a| a.addr).collect();
        assert_eq!(recency.len(), 4);
        // The scan that follows touches fresh blocks.
        let scan: HashSet<u64> = accesses[8..16].iter().map(|a| a.addr).collect();
        assert_eq!(scan.len(), 8);
        assert!(scan.is_disjoint(&recency));
    }

    #[test]
    fn different_app_slots_use_disjoint_address_spaces() {
        let spec = PatternSpec::Streaming { reps: 1, gap: 0 };
        let mut t0 = SyntheticTrace::new("a", spec, 0, 64, 1);
        let mut t1 = SyntheticTrace::new("a", spec, 1, 64, 1);
        let b0: HashSet<u64> = drain(&mut t0, 1000).iter().map(|a| a.addr).collect();
        let b1: HashSet<u64> = drain(&mut t1, 1000).iter().map(|a| a.addr).collect();
        assert!(b0.is_disjoint(&b1));
    }

    #[test]
    fn reset_restores_the_initial_sequence() {
        let spec = PatternSpec::RandomInRegion {
            footprint_per_set: 4.0,
            reps: 2,
            gap: 1,
        };
        let mut t = SyntheticTrace::new("reset", spec, 0, 64, 5);
        let first = drain(&mut t, 100);
        t.reset();
        let second = drain(&mut t, 100);
        assert_eq!(first, second);
    }

    /// The full [`TraceSource::reset`] contract (see `cache_sim::trace`): after a reset
    /// the stream must equal the stream of a *freshly constructed* generator, for every
    /// pattern kind, including the hot-region skew, and regardless of where in the stream
    /// the reset happens. Trace capture/replay equivalence depends on this.
    #[test]
    fn reset_contract_equals_fresh_construction_for_every_pattern_kind() {
        let specs = [
            PatternSpec::CyclicSweep {
                footprint_per_set: 3.0,
                reps: 2,
                gap: 1,
            },
            PatternSpec::Streaming { reps: 1, gap: 4 },
            PatternSpec::RandomInRegion {
                footprint_per_set: 6.0,
                reps: 1,
                gap: 2,
            },
            PatternSpec::MixedScan {
                recency_blocks: 24,
                recency_passes: 2,
                scan_blocks: 40,
                reps: 2,
                gap: 0,
            },
        ];
        for spec in specs {
            for hot in [0u32, 2] {
                let fresh = {
                    let mut t = SyntheticTrace::new("rc", spec, 1, 64, 11).with_hot_region(hot, 8);
                    drain(&mut t, 400)
                };
                let mut t = SyntheticTrace::new("rc", spec, 1, 64, 11).with_hot_region(hot, 8);
                // Reset at several mid-stream points, including mid-repetition and
                // (for MixedScan) mid-phase offsets.
                for interrupt in [0usize, 1, 3, 97, 400] {
                    drain(&mut t, interrupt);
                    t.reset();
                    assert_eq!(
                        drain(&mut t, 400),
                        fresh,
                        "reset after {interrupt} accesses diverges for {spec:?} hot={hot}"
                    );
                }
            }
        }
    }

    #[test]
    fn hot_region_adds_reuse_without_new_blocks() {
        let spec = PatternSpec::CyclicSweep {
            footprint_per_set: 4.0,
            reps: 1,
            gap: 0,
        };
        let uniform = {
            let mut t = SyntheticTrace::new("u", spec, 0, 64, 1);
            drain(&mut t, 2048)
                .iter()
                .map(|a| a.addr / BLOCK)
                .collect::<HashSet<u64>>()
        };
        let mut skewed_trace = SyntheticTrace::new("u", spec, 0, 64, 1).with_hot_region(2, 8);
        let skewed_accesses = drain(&mut skewed_trace, 2048);
        let skewed: HashSet<u64> = skewed_accesses.iter().map(|a| a.addr / BLOCK).collect();
        // Hot accesses stay inside the same working set (no new unique blocks)...
        assert!(skewed.is_subset(&uniform));
        // ...but the hot subset is touched far more often than a uniform sweep would.
        let hot_limit = skewed_trace.region_blocks() / 8;
        let base = 1 << 40;
        let hot_hits = skewed_accesses
            .iter()
            .filter(|a| (a.addr - base) / BLOCK < hot_limit)
            .count();
        assert!(
            hot_hits >= 1024,
            "half of the accesses should target the hot subset, got {hot_hits}"
        );
    }

    #[test]
    fn hot_region_is_a_noop_when_disabled() {
        let spec = PatternSpec::CyclicSweep {
            footprint_per_set: 2.0,
            reps: 2,
            gap: 1,
        };
        let mut a = SyntheticTrace::new("a", spec, 0, 64, 9);
        let mut b = SyntheticTrace::new("a", spec, 0, 64, 9).with_hot_region(0, 8);
        assert_eq!(drain(&mut a, 500), drain(&mut b, 500));
    }

    #[test]
    fn writes_occur_but_are_a_minority() {
        let spec = PatternSpec::CyclicSweep {
            footprint_per_set: 2.0,
            reps: 1,
            gap: 0,
        };
        let mut t = SyntheticTrace::new("w", spec, 0, 64, 1);
        let accesses = drain(&mut t, 1000);
        let writes = accesses.iter().filter(|a| a.is_write).count();
        assert_eq!(writes, 250);
    }

    #[test]
    fn instructions_per_access_accounts_for_gap() {
        let spec = PatternSpec::Streaming { reps: 1, gap: 9 };
        assert_eq!(spec.instructions_per_access(), 10);
    }
}
