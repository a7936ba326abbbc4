//! # llc-policies
//!
//! Baseline shared-LLC replacement policies the ADAPT paper compares against, implemented
//! against the [`cache_sim::replacement::LlcReplacementPolicy`] interface:
//!
//! * [`LruPolicy`] — classic least-recently-used (insert at MRU).
//! * [`SrripPolicy`] / [`BrripPolicy`] — static/bimodal re-reference interval prediction
//!   (Jaleel et al., ISCA 2010).
//! * [`TaDrripPolicy`] — thread-aware DRRIP, the paper's baseline; supports the
//!   "forced BRRIP for thrashing applications" mode used by the paper's Figure 1 and a
//!   configurable number of dueling sets (SD=64/128 in Figure 1a). Built with one thread,
//!   it is set-dueling DRRIP (one PSEL counter for every core).
//! * [`ShipPolicy`] — SHiP-PC, signature-based hit prediction (Wu et al., MICRO 2011).
//! * [`EafPolicy`] — the Evicted-Address Filter (Seshadri et al., PACT 2012).
//! * [`BypassDistant`] — a wrapper, generic over its inner policy, that converts
//!   distant-priority insertions into LLC bypasses, reproducing the bypass ablation of
//!   the paper's Figure 6.
//!
//! This crate holds the concrete policy types only. Naming a policy, constructing it for
//! a system and dispatching over the set (together with ADAPT from `adapt-core`) is the
//! job of `experiments::policies` (`PolicyKind` and its `AnyPolicy` enum).
//!
//! All policies are deterministic: "probabilistic" insertions (1/32 bimodal throttles and
//! the like) are realized with small hardware-style counters exactly as the original papers
//! describe, so simulations are exactly reproducible.

pub mod bypass;
pub mod drrip;
pub mod eaf;
pub mod lru;
pub mod rrip;
pub mod ship;

pub use bypass::BypassDistant;
pub use drrip::TaDrripPolicy;
pub use eaf::EafPolicy;
pub use lru::LruPolicy;
pub use rrip::{BrripPolicy, SrripPolicy};
pub use ship::ShipPolicy;
