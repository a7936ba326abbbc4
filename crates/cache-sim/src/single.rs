//! Single-application ("alone") runs.
//!
//! The paper's headline metric, weighted speedup, normalizes each application's IPC in the
//! shared configuration by the IPC it achieves when it runs *alone* on the same hierarchy
//! (with the whole LLC to itself). This module provides that helper, which also measures
//! a benchmark's standalone L2-MPKI for the paper's Table 4.

use crate::config::SystemConfig;
use crate::replacement::LlcReplacementPolicy;
use crate::stats::CoreStats;
use crate::system::MultiCoreSystem;
use crate::trace::TraceSource;

/// Run one application alone on a single-core version of `config` with the given policy.
///
/// The configuration's LLC, L2 and DRAM parameters are preserved; only the core count is
/// forced to one. The policy may be any [`LlcReplacementPolicy`] value — concrete, enum
/// dispatched, or boxed.
pub fn run_alone<P: LlcReplacementPolicy>(
    config: &SystemConfig,
    trace: Box<dyn TraceSource>,
    policy: P,
    instructions: u64,
) -> CoreStats {
    let mut cfg = config.clone();
    cfg.num_cores = 1;
    let mut system = MultiCoreSystem::new(cfg, vec![trace], policy);
    let mut results = system.run(instructions);
    results.per_core.remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::tests::TestSrrip;
    use crate::trace::StridedTrace;

    /// `trace` alone on `config`'s hierarchy under the crate's test SRRIP.
    fn profile(config: &SystemConfig, trace: StridedTrace, instructions: u64) -> CoreStats {
        let policy = TestSrrip::new(config.llc.geometry.num_sets(), config.llc.geometry.ways);
        run_alone(config, Box::new(trace), policy, instructions)
    }

    #[test]
    fn alone_run_returns_single_core_stats() {
        let cfg = SystemConfig::tiny(8); // core count is overridden to 1
        let stats = profile(&cfg, StridedTrace::new(0, 64, 4096, 3), 20_000);
        assert!(stats.ipc() > 0.0);
        assert!(stats.instructions >= 20_000);
    }

    #[test]
    fn streaming_profile_has_higher_mpki_than_resident_profile() {
        let cfg = SystemConfig::tiny(1);
        let resident = profile(&cfg, StridedTrace::new(0, 64, 2048, 3), 20_000);
        let streaming = profile(&cfg, StridedTrace::new(0, 64, 8 * 1024 * 1024, 3), 20_000);
        assert!(streaming.l2_mpki() > resident.l2_mpki());
        assert!(streaming.ipc() < resident.ipc());
    }
}
