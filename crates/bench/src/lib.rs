//! Shared scale for the paper-artifact Criterion benches.
//!
//! Every paper figure has a bench in `benches/figures.rs`, every table one in
//! `benches/tables.rs`, and `benches/ablations.rs` sweeps ADAPT's design parameters
//! (`docs/policies.md`). They run the experiments at
//! [`experiments::ExperimentScale::Smoke`] so `cargo bench` completes in minutes; the
//! `repro` binary is the tool for full-fidelity regeneration, and performance is
//! measured by the repository's benchmark (`benchmark/README.md`), not here.

use experiments::ExperimentScale;

/// The scale every benchmark uses.
pub const BENCH_SCALE: ExperimentScale = ExperimentScale::Smoke;
