//! # workloads
//!
//! Synthetic benchmark models and multi-programmed workload construction for the ADAPT
//! reproduction.
//!
//! The paper drives its simulator with 300M-instruction slices of 36 SPEC CPU 2000/2006,
//! PARSEC and STREAM benchmarks (its Table 4). Those traces are not redistributable, so this
//! crate provides the closest synthetic equivalent: every benchmark in
//! Table 4 becomes a parameterized address-stream generator whose
//!
//! * **per-set LLC footprint** matches the benchmark's published Footprint-number, and
//! * **memory intensity** (L2-MPKI class) matches the benchmark's published L2-MPKI,
//!
//! which are exactly the two properties ADAPT's monitoring mechanism keys on. Access
//! patterns (cyclic working-set sweeps, streaming scans, random pointer-chase regions and
//! mixed recency/scan sequences) are chosen per benchmark to mirror the behaviour the paper
//! describes (recency-friendly, scan, mixed, thrashing).
//!
//! [`mix`] reproduces the paper's Table 6 workload composition rules (e.g. a 16-core mix
//! contains at least two benchmarks from every memory-intensity class), seeded and
//! deterministic.

pub mod classify;
pub mod mix;
pub mod patterns;
pub mod table4;

pub use classify::{classify, MemIntensity};
pub use mix::{corpus_file_name, generate_mixes, StudyKind, WorkloadMix};
pub use patterns::{PatternSpec, SyntheticTrace};
pub use table4::{all_benchmarks, benchmark_by_name, BenchmarkSpec, Suite};
