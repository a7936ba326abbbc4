//! Multi-programmed workload mix construction (paper Table 6).
//!
//! | Study    | Workloads (paper) | Composition rule                  |
//! |----------|-------------------|-----------------------------------|
//! | 4-core   | 120               | at least 1 thrashing application  |
//! | 8-core   | 80                | at least 1 from each class        |
//! | 16-core  | 60                | at least 2 from each class        |
//! | 20-core  | 40                | at least 3 from each class        |
//! | 24-core  | 40                | at least 3 from each class        |
//! | 32-core  | (extrapolated) 40 | at least 4 from each class        |
//! | 48-core  | (extrapolated) 40 | at least 5 from each class        |
//! | 64-core  | (extrapolated) 40 | at least 6 from each class        |
//! | 128-core | (extrapolated) 40 | at least 8 from each class        |
//! | 256-core | (extrapolated) 40 | at least 10 from each class       |
//!
//! The paper stops at 24 cores; the 32/48/64-core rows extend its composition rules for
//! the many-core scaling study (`experiments::scaling`). A mix never repeats a benchmark
//! until the Table 4 roster is exhausted, so studies wider than the roster (48 and 64
//! cores vs. 40 benchmarks) contain repeats by construction.
//!
//! Mixes are drawn deterministically from a seed, without repeating a benchmark inside a
//! mix, so every experiment (and every policy within an experiment) sees exactly the same
//! workloads. The number of mixes is a parameter: the paper-scale counts above are used by
//! `repro --paper-scale`; the default experiment configuration uses fewer mixes so every
//! figure regenerates in minutes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use cache_sim::trace::TraceSource;

use crate::classify::MemIntensity;
use crate::table4::{all_benchmarks, benchmark_by_name, benchmarks_in_class, BenchmarkSpec};

/// Which multi-core study a mix belongs to (paper Table 6 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyKind {
    Cores4,
    Cores8,
    Cores16,
    Cores20,
    Cores24,
    /// Many-core scaling study beyond the paper (see `experiments::scaling`).
    Cores32,
    /// Many-core scaling study beyond the paper; wider than the Table 4 roster, so
    /// mixes contain repeated benchmarks.
    Cores48,
    /// Many-core scaling study beyond the paper; wider than the Table 4 roster, so
    /// mixes contain repeated benchmarks.
    Cores64,
    /// Many-core scaling study beyond the paper; wider than the Table 4 roster, so
    /// mixes contain repeated benchmarks.
    Cores128,
    /// Many-core scaling study beyond the paper; wider than the Table 4 roster, so
    /// mixes contain repeated benchmarks.
    Cores256,
}

impl StudyKind {
    /// Number of cores (= applications) in this study.
    pub fn num_cores(&self) -> usize {
        match self {
            StudyKind::Cores4 => 4,
            StudyKind::Cores8 => 8,
            StudyKind::Cores16 => 16,
            StudyKind::Cores20 => 20,
            StudyKind::Cores24 => 24,
            StudyKind::Cores32 => 32,
            StudyKind::Cores48 => 48,
            StudyKind::Cores64 => 64,
            StudyKind::Cores128 => 128,
            StudyKind::Cores256 => 256,
        }
    }

    /// Number of workload mixes the paper evaluates for this study. The paper stops at
    /// 24 cores; the scaling studies reuse its largest count (40).
    pub fn paper_workload_count(&self) -> usize {
        match self {
            StudyKind::Cores4 => 120,
            StudyKind::Cores8 => 80,
            StudyKind::Cores16 => 60,
            StudyKind::Cores20 | StudyKind::Cores24 => 40,
            StudyKind::Cores32
            | StudyKind::Cores48
            | StudyKind::Cores64
            | StudyKind::Cores128
            | StudyKind::Cores256 => 40,
        }
    }

    /// Minimum number of benchmarks that must come from each memory-intensity class
    /// (Table 6's "Composition" column, extended linearly beyond the paper for the
    /// scaling studies); the 4-core study instead requires at least one thrashing
    /// application.
    pub fn min_per_class(&self) -> usize {
        match self {
            StudyKind::Cores4 => 0,
            StudyKind::Cores8 => 1,
            StudyKind::Cores16 => 2,
            StudyKind::Cores20 | StudyKind::Cores24 => 3,
            StudyKind::Cores32 => 4,
            StudyKind::Cores48 => 5,
            StudyKind::Cores64 => 6,
            StudyKind::Cores128 => 8,
            StudyKind::Cores256 => 10,
        }
    }

    /// True for the many-core studies beyond the paper's Table 6.
    pub fn is_scaling(&self) -> bool {
        matches!(
            self,
            StudyKind::Cores32
                | StudyKind::Cores48
                | StudyKind::Cores64
                | StudyKind::Cores128
                | StudyKind::Cores256
        )
    }

    /// The paper's Table 6 studies, in the paper's order.
    pub fn paper_studies() -> [StudyKind; 5] {
        [
            StudyKind::Cores4,
            StudyKind::Cores8,
            StudyKind::Cores16,
            StudyKind::Cores20,
            StudyKind::Cores24,
        ]
    }

    /// The many-core scaling studies beyond the paper (32/48/64/128/256 cores).
    pub fn scaling_studies() -> [StudyKind; 5] {
        [
            StudyKind::Cores32,
            StudyKind::Cores48,
            StudyKind::Cores64,
            StudyKind::Cores128,
            StudyKind::Cores256,
        ]
    }

    /// Every study, paper order first, then the scaling studies.
    pub fn all() -> [StudyKind; 10] {
        [
            StudyKind::Cores4,
            StudyKind::Cores8,
            StudyKind::Cores16,
            StudyKind::Cores20,
            StudyKind::Cores24,
            StudyKind::Cores32,
            StudyKind::Cores48,
            StudyKind::Cores64,
            StudyKind::Cores128,
            StudyKind::Cores256,
        ]
    }

    /// Look a study up by its core count; the error names every count a study has.
    pub fn by_cores(num_cores: usize) -> Result<StudyKind, String> {
        Self::all()
            .into_iter()
            .find(|s| s.num_cores() == num_cores)
            .ok_or_else(|| {
                let counts: Vec<String> = Self::all()
                    .iter()
                    .map(|s| s.num_cores().to_string())
                    .collect();
                format!(
                    "no study has {num_cores} cores (one of {})",
                    counts.join("|")
                )
            })
    }

    /// The study a command-line flag's operand names by its core count, surrounding
    /// whitespace ignored; the error starts with `flag`.
    pub fn parse_operand(flag: &str, cores: &str) -> Result<StudyKind, String> {
        let parsed = cores.trim().parse::<usize>();
        let num_cores = parsed.map_err(|e| format!("{flag}: {cores:?}: {e}"))?;
        Self::by_cores(num_cores).map_err(|e| format!("{flag}: {e}"))
    }
}

/// One multi-programmed workload: an ordered list of benchmark names (core i runs entry i).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadMix {
    pub id: usize,
    pub study: StudyKind,
    pub benchmarks: Vec<String>,
}

impl WorkloadMix {
    /// Resolve the benchmark specs backing this mix.
    pub fn specs(&self) -> Vec<&'static BenchmarkSpec> {
        self.benchmarks
            .iter()
            .map(|n| benchmark_by_name(n).expect("mix references a known benchmark"))
            .collect()
    }

    /// Build one trace source per core for a system whose LLC has `llc_sets` sets.
    pub fn trace_sources(&self, llc_sets: usize, seed: u64) -> Vec<Box<dyn TraceSource>> {
        (0..self.benchmarks.len())
            .map(|slot| self.trace_source(slot, llc_sets, seed))
            .collect()
    }

    /// The trace source [`trace_sources`](Self::trace_sources) builds for core `slot`.
    pub fn trace_source(&self, slot: usize, llc_sets: usize, seed: u64) -> Box<dyn TraceSource> {
        let spec =
            benchmark_by_name(&self.benchmarks[slot]).expect("mix references a known benchmark");
        Box::new(spec.trace(slot, llc_sets, seed ^ self.id as u64))
    }

    /// Indices of the cores running thrashing applications (Footprint-number >= 16).
    pub fn thrashing_slots(&self) -> Vec<usize> {
        self.specs()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_thrashing())
            .map(|(i, _)| i)
            .collect()
    }
}

/// File-name convention for a mix's trace inside a corpus directory.
pub fn corpus_file_name(mix_id: usize) -> String {
    format!("mix{mix_id:04}.atrc")
}

/// Generate `count` workload mixes for a study, deterministically from `seed`.
///
/// Panics if a composition rule cannot be satisfied (cannot happen with the Table 4 roster).
pub fn generate_mixes(study: StudyKind, count: usize, seed: u64) -> Vec<WorkloadMix> {
    let mut rng = StdRng::seed_from_u64(seed ^ (study.num_cores() as u64) << 32);
    (0..count)
        .map(|id| generate_one(study, id, &mut rng))
        .collect()
}

fn generate_one(study: StudyKind, id: usize, rng: &mut StdRng) -> WorkloadMix {
    let cores = study.num_cores();
    let mut chosen: Vec<&'static BenchmarkSpec> = Vec::with_capacity(cores);

    // Mandatory picks per composition rule.
    if study == StudyKind::Cores4 {
        let thrashers: Vec<&'static BenchmarkSpec> = all_benchmarks()
            .iter()
            .filter(|b| b.is_thrashing())
            .collect();
        chosen.push(*thrashers.choose(rng).expect("thrashing benchmarks exist"));
    } else {
        for class in MemIntensity::all() {
            let pool = benchmarks_in_class(class);
            let picks = study.min_per_class().min(pool.len());
            let mut shuffled = pool.clone();
            shuffled.shuffle(rng);
            chosen.extend(shuffled.into_iter().take(picks));
        }
    }

    // Fill the remaining slots with distinct random benchmarks.
    let mut remaining: Vec<&'static BenchmarkSpec> = all_benchmarks()
        .iter()
        .filter(|b| !chosen.iter().any(|c| c.name == b.name))
        .collect();
    remaining.shuffle(rng);
    while chosen.len() < cores {
        match remaining.pop() {
            Some(b) => chosen.push(b),
            None => {
                // More cores than distinct benchmarks: allow repeats (not needed for the
                // paper's studies, but keeps the generator total).
                let b = *all_benchmarks()
                    .iter()
                    .collect::<Vec<_>>()
                    .choose(rng)
                    .expect("roster not empty");
                chosen.push(b);
            }
        }
    }

    // Shuffle core placement so mandatory picks are not always on the low-numbered cores.
    chosen.shuffle(rng);
    chosen.truncate(cores);

    WorkloadMix {
        id,
        study,
        benchmarks: chosen.iter().map(|b| b.name.to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table6_constants_match_the_paper() {
        assert_eq!(StudyKind::Cores4.paper_workload_count(), 120);
        assert_eq!(StudyKind::Cores8.paper_workload_count(), 80);
        assert_eq!(StudyKind::Cores16.paper_workload_count(), 60);
        assert_eq!(StudyKind::Cores20.paper_workload_count(), 40);
        assert_eq!(StudyKind::Cores24.paper_workload_count(), 40);
        assert_eq!(StudyKind::Cores16.num_cores(), 16);
        assert_eq!(StudyKind::Cores16.min_per_class(), 2);
        assert_eq!(StudyKind::Cores24.min_per_class(), 3);
    }

    #[test]
    fn mixes_have_the_right_size_and_no_duplicates() {
        // A mix repeats a benchmark only once the Table 4 roster is exhausted (48- and
        // 64-core scaling studies); every paper study stays repeat-free.
        let roster = all_benchmarks().len();
        for study in StudyKind::all() {
            let mixes = generate_mixes(study, 10, 7);
            assert_eq!(mixes.len(), 10);
            for m in &mixes {
                assert_eq!(m.benchmarks.len(), study.num_cores());
                let distinct: HashSet<&String> = m.benchmarks.iter().collect();
                assert_eq!(
                    distinct.len(),
                    m.benchmarks.len().min(roster),
                    "repeats only past the roster size"
                );
            }
        }
    }

    #[test]
    fn scaling_studies_extend_the_paper_composition_rules() {
        assert_eq!(StudyKind::Cores32.num_cores(), 32);
        assert_eq!(StudyKind::Cores64.min_per_class(), 6);
        assert!(StudyKind::Cores48.is_scaling());
        assert!(!StudyKind::Cores24.is_scaling());
        assert_eq!(StudyKind::by_cores(48), Ok(StudyKind::Cores48));
        assert_eq!(
            StudyKind::by_cores(12),
            Err("no study has 12 cores (one of 4|8|16|20|24|32|48|64|128|256)".into())
        );
        assert_eq!(StudyKind::paper_studies().len() + 5, StudyKind::all().len());
        assert_eq!(StudyKind::Cores128.min_per_class(), 8);
        assert_eq!(StudyKind::Cores256.min_per_class(), 10);
        assert_eq!(StudyKind::by_cores(256), Ok(StudyKind::Cores256));
        for m in generate_mixes(StudyKind::Cores32, 5, 17) {
            for class in MemIntensity::all() {
                let n = m.specs().iter().filter(|s| s.paper_class == class).count();
                let pool = benchmarks_in_class(class).len();
                assert!(
                    n >= 4.min(pool),
                    "class {class:?} underrepresented in a 32-core mix"
                );
            }
        }
    }

    #[test]
    fn four_core_mixes_contain_a_thrashing_application() {
        for m in generate_mixes(StudyKind::Cores4, 50, 3) {
            assert!(!m.thrashing_slots().is_empty(), "mix {:?}", m.benchmarks);
        }
    }

    #[test]
    fn sixteen_core_mixes_have_two_from_each_class() {
        for m in generate_mixes(StudyKind::Cores16, 20, 11) {
            for class in MemIntensity::all() {
                let n = m.specs().iter().filter(|s| s.paper_class == class).count();
                assert!(
                    n >= 2,
                    "class {class:?} underrepresented in {:?}",
                    m.benchmarks
                );
            }
        }
    }

    #[test]
    fn twentyfour_core_mixes_have_three_from_each_class() {
        for m in generate_mixes(StudyKind::Cores24, 10, 13) {
            for class in MemIntensity::all() {
                let n = m.specs().iter().filter(|s| s.paper_class == class).count();
                assert!(n >= 3, "class {class:?} underrepresented");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = generate_mixes(StudyKind::Cores16, 5, 99);
        let b = generate_mixes(StudyKind::Cores16, 5, 99);
        let c = generate_mixes(StudyKind::Cores16, 5, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn trace_sources_match_core_count_and_are_labelled() {
        let m = &generate_mixes(StudyKind::Cores8, 1, 1)[0];
        let traces = m.trace_sources(1024, 5);
        assert_eq!(traces.len(), 8);
        for (t, name) in traces.iter().zip(&m.benchmarks) {
            assert_eq!(&t.label(), name);
        }
    }
}
