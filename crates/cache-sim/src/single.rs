//! Single-application ("alone") runs.
//!
//! The paper's headline metric, weighted speedup, normalizes each application's IPC in the
//! shared configuration by the IPC it achieves when it runs *alone* on the same hierarchy
//! (with the whole LLC to itself). This module provides that helper plus a convenience for
//! measuring a benchmark's standalone profile (IPC, L2-MPKI, LLC footprint inputs) used to
//! regenerate the paper's Table 4.

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

/// Standalone profile of a benchmark: the quantities the paper's Table 4 reports.
#[derive(Debug, Clone)]
pub struct AloneProfile {
    pub label: String,
    pub ipc: f64,
    pub l2_mpki: f64,
    pub llc_mpki: f64,
    pub stats: CoreStats,
}

/// Run alone with the default SRRIP policy and summarize.
pub fn profile_alone(
    config: &SystemConfig,
    trace: Box<dyn TraceSource>,
    instructions: u64,
) -> AloneProfile {
    let mut cfg = config.clone();
    cfg.num_cores = 1;
    let policy =
        crate::system::DefaultSrripPolicy::new(cfg.llc.geometry.num_sets(), cfg.llc.geometry.ways);
    let stats = run_alone(&cfg, trace, policy, instructions);
    AloneProfile {
        label: stats.label.clone(),
        ipc: stats.ipc(),
        l2_mpki: stats.l2_mpki(),
        llc_mpki: stats.llc_mpki(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StridedTrace;

    #[test]
    fn alone_run_returns_single_core_stats() {
        let cfg = SystemConfig::tiny(8); // core count is overridden to 1
        let trace = Box::new(StridedTrace::new(0, 64, 4096, 3));
        let profile = profile_alone(&cfg, trace, 20_000);
        assert!(profile.ipc > 0.0);
        assert!(profile.stats.instructions >= 20_000);
    }

    #[test]
    fn streaming_profile_has_higher_mpki_than_resident_profile() {
        let cfg = SystemConfig::tiny(1);
        let resident = profile_alone(&cfg, Box::new(StridedTrace::new(0, 64, 2048, 3)), 20_000);
        let streaming = profile_alone(
            &cfg,
            Box::new(StridedTrace::new(0, 64, 8 * 1024 * 1024, 3)),
            20_000,
        );
        assert!(streaming.l2_mpki > resident.l2_mpki);
        assert!(streaming.ipc < resident.ipc);
    }
}
