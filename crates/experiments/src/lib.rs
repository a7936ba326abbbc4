//! # experiments
//!
//! Drivers that regenerate every figure and table of the ADAPT paper on top of the
//! simulator substrate (`cache-sim`), the baseline policies (`llc-policies`), ADAPT itself
//! (`adapt-core`), the synthetic workloads (`workloads`) and the multi-core metrics
//! (`mc-metrics`).
//!
//! Each `figure*` / `table*` module exposes a `run(&ExperimentScale) -> ...Result` function
//! returning plain data plus a `render` helper that prints the same rows/series the paper
//! reports. The `repro` binary (in `src/bin/repro.rs`) wires them to a command-line
//! interface.
//!
//! [`policies`] is the single home of policy naming, construction and dispatch:
//! [`PolicyKind`] names a policy and `PolicyKind::build_dispatch` builds it as the
//! [`policies::AnyPolicy`] variant of its concrete type.
//!
//! Every sweep runs on the corpus-backed engine in [`runner`]: each workload mix's access
//! streams are materialized exactly once (shared in-memory capture, or an on-disk
//! [`trace_io::Corpus`] via `repro corpus` / `repro sweep`) and the (policy × mix) grid
//! fans out across rayon workers with deterministic result ordering — see
//! `docs/architecture.md` for the full data-flow walkthrough.
//!
//! Absolute performance numbers differ from the paper (our substrate is an approximate
//! trace-driven simulator fed with synthetic workloads, not BADCO running SPEC), so the
//! reproduction target is the *shape* of every result: which policy wins, by roughly what
//! factor, and where the crossovers lie. `docs/repro-guide.md` gives the recipe and an
//! expected-output excerpt for every experiment.

#![warn(missing_docs)]

pub mod ablation;
pub mod figure1;
pub mod figure3;
pub mod figure45;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod policies;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scaling;
pub mod table2;
pub mod table4;
pub mod table7;

pub use policies::PolicyKind;
pub use runner::{
    evaluate_mix, evaluate_policies_on_mixes, evaluate_policies_serial, MixEvaluation, MixSource,
    PerAppOutcome, SweepOutcome,
};
pub use scale::{ExperimentScale, MemSystem};
