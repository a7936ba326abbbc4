//! # cache-sim
//!
//! Trace-driven multi-core cache-hierarchy and memory simulator substrate used by the
//! ADAPT reproduction (Sridharan & Seznec, "Discrete Cache Insertion Policies for Shared
//! Last Level Cache Management on Large Multicores").
//!
//! The paper evaluates on BADCO, a proprietary cycle-accurate out-of-order x86 CMP
//! simulator. This crate provides the closest open substitute that preserves the
//! quantities the paper reasons about:
//!
//! * per-core private L1D and L2 caches plus a next-line L1 prefetcher,
//! * a shared, banked last-level cache (LLC) with a pluggable replacement policy
//!   ([`replacement::LlcReplacementPolicy`]) so that baseline policies and ADAPT can be
//!   swapped without touching the cache model,
//! * MSHR and write-back buffer occupancy models,
//! * a DDR-style DRAM model with open rows, bank conflicts and permutation-based
//!   (XOR-mapped) page interleaving (paper Table 3),
//! * an approximate out-of-order core timing model that overlaps independent misses,
//! * a global-time-ordered multi-core driver so that contention at the shared LLC and
//!   DRAM is observed in the same relative order a cycle-accurate simulator would produce.
//!
//! The crate is deterministic: given the same configuration, trace sources and seeds, a
//! simulation produces bit-identical statistics. All randomness used by policies is
//! seeded explicitly.
//!
//! The hot path (LLC, private caches, driver) is written data-oriented —
//! structure-of-arrays tag storage, packed valid/dirty bitmasks, monomorphized policy
//! dispatch. This is the only engine in the crate: the oracle it is held to, bit for
//! bit, is a naive model that lives with the workspace's tests (`tests/oracle/`) and
//! sees only this crate's public API.
//!
//! ## Quick example
//!
//! The study's LLC policies live in the `llc-policies` crate; any
//! [`LlcReplacementPolicy`] runs, such as this bare SRRIP.
//!
//! ```
//! use cache_sim::config::SystemConfig;
//! use cache_sim::replacement::{AccessContext, InsertionDecision, LineView, RrpvArray};
//! use cache_sim::system::MultiCoreSystem;
//! use cache_sim::trace::{StridedTrace, TraceSource};
//! use cache_sim::LlcReplacementPolicy;
//!
//! /// Insert every line at RRPV 2, promote it on a hit, evict a distant one.
//! struct Srrip(RrpvArray);
//!
//! impl LlcReplacementPolicy for Srrip {
//!     fn name(&self) -> String {
//!         "SRRIP".into()
//!     }
//!     fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
//!         self.0.promote(ctx.set_index, way);
//!     }
//!     fn insertion_decision(&mut self, _ctx: &AccessContext) -> InsertionDecision {
//!         InsertionDecision::insert(2)
//!     }
//!     fn choose_victim(&mut self, ctx: &AccessContext, _lines: &[LineView]) -> usize {
//!         self.0.find_victim(ctx.set_index)
//!     }
//!     fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
//!         if let InsertionDecision::Insert { rrpv } = decision {
//!             self.0.set(ctx.set_index, way, *rrpv);
//!         }
//!     }
//! }
//!
//! // Two cores streaming over small arrays, tiny cache configuration.
//! let config = SystemConfig::tiny(2);
//! let traces: Vec<Box<dyn TraceSource>> = vec![
//!     Box::new(StridedTrace::new(0x1000_0000, 64, 4096, 3)),
//!     Box::new(StridedTrace::new(0x2000_0000, 64, 4096, 3)),
//! ];
//! let llc = config.llc.geometry;
//! let policy = Srrip(RrpvArray::new(llc.num_sets(), llc.ways));
//! let mut system = MultiCoreSystem::new(config, traces, policy);
//! let results = system.run(10_000);
//! assert_eq!(results.per_core.len(), 2);
//! assert!(results.per_core[0].instructions >= 10_000);
//! ```

pub mod addr;
pub mod bank;
pub mod config;
pub mod core_model;
pub mod dram;
pub mod llc;
pub mod mshr;
pub mod prefetch;
pub mod private;
pub mod private_cache;
pub mod replacement;
mod sched;
pub mod single;
pub mod stats;
pub mod system;
pub mod trace;

pub use addr::{block_of, BlockAddr, BLOCK_BYTES, BLOCK_SHIFT};
pub use bank::{BankModel, BankRequest, BankStats, CoreBankStalls, RowClass};
pub use config::{
    BankContentionConfig, CacheGeometry, DramConfig, LlcConfig, NucaConfig, RowModelConfig,
    SystemConfig,
};
pub use dram::DramStats;
pub use replacement::{AccessContext, InsertionDecision, LineView, LlcReplacementPolicy};
pub use stats::{CoreStallAttribution, CoreStats, SystemResults};
pub use system::MultiCoreSystem;
pub use trace::{MemAccess, TraceSource};
