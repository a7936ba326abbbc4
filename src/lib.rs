//! # adapt-llc
//!
//! Facade crate for the reproduction of *"Discrete Cache Insertion Policies for Shared Last
//! Level Cache Management on Large Multicores"* (Sridharan & Seznec). It re-exports the
//! workspace crates so applications can depend on a single crate:
//!
//! * [`sim`] — the multi-core cache-hierarchy simulator substrate (`cache-sim`).
//! * [`policies`] — the baseline LLC replacement policy types (`llc-policies`).
//! * [`adapt`] — the paper's contribution: Footprint-number monitoring and discrete
//!   insertion-priority prediction (`adapt-core`).
//! * [`workloads`] — synthetic SPEC/PARSEC-like benchmark models and workload mixes.
//! * [`metrics`] — multi-programmed throughput/fairness metrics.
//! * [`traces`] — binary trace capture/replay (`trace-io`): durable, checksummed corpora
//!   replayable anywhere the simulator accepts a live generator.
//! * [`experiments`] — drivers that regenerate every figure and table of the paper, and
//!   `experiments::PolicyKind`: the one way to name a policy (baseline or ADAPT) and,
//!   through `build_dispatch`, to construct it for a system.
//!
//! See `examples/` for runnable entry points, `docs/architecture.md` for the system
//! inventory and `docs/repro-guide.md` for the per-figure reproduction recipes.

pub use adapt_core as adapt;
pub use cache_sim as sim;
pub use experiments;
pub use llc_policies as policies;
pub use mc_metrics as metrics;
pub use trace_io as traces;
pub use workloads;
