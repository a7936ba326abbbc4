//! Everything a run feeds the product, derived from `--seed`.
//!
//! The seed decides the random streams of the trace generators, the order of the
//! request schedule and which cells the checks sample. It does not decide which
//! applications a mix holds, nor the core each runs on: simulated throughput differs by
//! ±30 % between randomly composed mixes (one slow application keeps its fifteen
//! co-runners executing until it finishes) and by ±10 % between placements of one
//! composition, which is wider than any bound a regression could be held to, while
//! generator streams move it by ±2 %. Mixes are therefore pinned to the ones `repro`
//! itself evaluates at `ExperimentScale::Scaled`, and the same seed always gives the
//! same inputs.

use experiments::ExperimentScale;
use workloads::{generate_mixes, StudyKind, WorkloadMix};

/// SplitMix64: the benchmark's own generator, so inputs do not depend on which `rand`
/// the product happens to be built against.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`salt`) of one run (`seed`).
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The seed handed to the product's trace generators and recorded in corpus manifests.
pub fn trace_seed(seed: u64) -> u64 {
    Rng::new(seed, 1).next_u64()
}

/// The first `count` mixes of `study` that `repro` evaluates at the scaled
/// configuration.
pub fn pinned_mixes(study: StudyKind, count: usize) -> Vec<WorkloadMix> {
    generate_mixes(study, count, ExperimentScale::Scaled.seed())
}

/// Table 4 rows with an L2-MPKI of 15 or more: the applications that send the largest
/// share of their accesses to the shared cache.
pub const INTENSE: [&str; 10] = [
    "art", "bzip", "lesl", "mcf", "twolf", "libq", "milc", "cact", "lbm", "STRM",
];

/// `count` hand-built 16-core mixes of memory-intense applications: every mix holds
/// each of the ten once plus six more taken round-robin.
pub fn intense_mixes(count: usize) -> Vec<WorkloadMix> {
    (0..count)
        .map(|id| {
            let mut benchmarks: Vec<String> = INTENSE.iter().map(|n| n.to_string()).collect();
            benchmarks.extend((0..6).map(|j| INTENSE[(id * 6 + j) % INTENSE.len()].to_string()));
            WorkloadMix {
                id,
                study: StudyKind::Cores16,
                benchmarks,
            }
        })
        .collect()
}

/// One request of the mixed phase: a cell, and whether this is its repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    pub cell: usize,
    pub repeat: bool,
}

/// The mixed-phase schedule: every cell exactly twice, in an order drawn from `seed`.
/// The first occurrence of a cell is its first touch and the second its repeat, so a
/// repeat always follows its first touch in schedule order (the clients additionally
/// hold a repeat back until the first response has returned).
pub fn request_schedule(cells: usize, seed: u64) -> Vec<Scheduled> {
    let mut tokens: Vec<usize> = (0..cells).chain(0..cells).collect();
    Rng::new(seed, 3).shuffle(&mut tokens);
    let mut seen = vec![false; cells];
    tokens
        .into_iter()
        .map(|cell| Scheduled {
            cell,
            repeat: std::mem::replace(&mut seen[cell], true),
        })
        .collect()
}

/// A seeded visiting order over `cells` cells (each once).
pub fn cell_order(cells: usize, seed: u64, salt: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells).collect();
    Rng::new(seed, salt).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        for seed in [1u64, 7] {
            assert_eq!(request_schedule(16, seed), request_schedule(16, seed));
            assert_eq!(cell_order(16, seed, 4), cell_order(16, seed, 4));
            assert_eq!(trace_seed(seed), trace_seed(seed));
        }
        assert_ne!(request_schedule(16, 1), request_schedule(16, 2));
        assert_ne!(cell_order(16, 1, 4), cell_order(16, 2, 4));
        assert_ne!(trace_seed(1), trace_seed(2));

        // The generators really do produce other records under another seed.
        let mix = pinned_mixes(StudyKind::Cores16, 1).remove(0);
        let records = |seed: u64| -> Vec<cache_sim::trace::MemAccess> {
            mix.trace_sources(512, trace_seed(seed))
                .iter_mut()
                .flat_map(|s| (0..256).map(|_| s.next_access()).collect::<Vec<_>>())
                .collect()
        };
        assert_eq!(records(1), records(1));
        assert_ne!(records(1), records(2));
    }

    #[test]
    fn mixes_are_pinned_and_well_formed() {
        assert_eq!(
            pinned_mixes(StudyKind::Cores16, 2),
            pinned_mixes(StudyKind::Cores16, 2)
        );
        assert_eq!(
            pinned_mixes(StudyKind::Cores128, 1)[0].benchmarks.len(),
            128
        );
        for mix in intense_mixes(3) {
            assert_eq!(mix.benchmarks.len(), 16);
            assert!(mix.specs().iter().all(|s| s.paper_l2_mpki >= 15.0));
            assert!(INTENSE
                .iter()
                .all(|n| mix.benchmarks.iter().any(|b| b == n)));
        }
    }

    #[test]
    fn every_cell_is_scheduled_twice_and_its_repeat_comes_second() {
        let schedule = request_schedule(104, 5);
        assert_eq!(schedule.len(), 208);
        let mut first_at = vec![None; 104];
        for (pos, s) in schedule.iter().enumerate() {
            match (s.repeat, first_at[s.cell]) {
                (false, None) => first_at[s.cell] = Some(pos),
                (true, Some(first)) => assert!(first < pos),
                other => panic!("cell {} scheduled out of order: {other:?}", s.cell),
            }
        }
        assert_eq!(schedule.iter().filter(|s| s.repeat).count(), 104);
    }
}
