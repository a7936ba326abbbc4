//! The ADAPT replacement policy (paper §3, Figure 2a).
//!
//! [`AdaptPolicy`] plugs the Footprint-number monitor and the insertion-priority predictor
//! into the simulator's [`LlcReplacementPolicy`] interface:
//!
//! * every demand access to a monitored set is forwarded to the application's sampler,
//! * every `interval_misses` LLC misses the simulator calls
//!   [`AdaptPolicy::on_interval`], which recomputes all Footprint-numbers and refreshes the
//!   per-application priority map,
//! * insertions consult the requesting application's predictor (High/Medium/Low insert at
//!   RRPV 0/1/2 with the Table 1 throttles; Least priority mostly bypasses in ADAPT_bp32),
//! * hits promote to RRPV 0 and victims are selected exactly like SRRIP — ADAPT changes
//!   *only* insertion priorities, never the victimization machinery (paper §6.5).

use cache_sim::config::LlcConfig;
use cache_sim::replacement::{
    AccessContext, InsertionDecision, LineView, LlcReplacementPolicy, RrpvArray,
};

use crate::config::AdaptConfig;
use crate::monitor::FootprintMonitor;
use crate::priority::{InsertionPriorityPredictor, PriorityLevel};

/// The ADAPT shared-LLC replacement policy.
pub struct AdaptPolicy {
    config: AdaptConfig,
    rrpv: RrpvArray,
    monitor: FootprintMonitor,
    predictors: Vec<InsertionPriorityPredictor>,
    /// Per-application count of bypassed insertions (reporting).
    bypasses: Vec<u64>,
    /// Per-application count of installed insertions (reporting).
    installs: Vec<u64>,
}

impl AdaptPolicy {
    /// Build ADAPT for an LLC with the given configuration shared by `num_apps` cores.
    pub fn new(config: AdaptConfig, llc: &LlcConfig, num_apps: usize) -> Self {
        let num_sets = llc.geometry.num_sets();
        let ways = llc.geometry.ways;
        AdaptPolicy {
            rrpv: RrpvArray::new(num_sets, ways),
            monitor: FootprintMonitor::new(config, num_sets, num_apps),
            predictors: (0..num_apps)
                .map(|_| InsertionPriorityPredictor::new(config))
                .collect(),
            bypasses: vec![0; num_apps],
            installs: vec![0; num_apps],
            config,
        }
    }

    /// The ADAPT configuration in use.
    pub fn config(&self) -> &AdaptConfig {
        &self.config
    }

    /// Footprint-number of an application as of the last completed interval.
    pub fn footprint_of(&self, app: usize) -> f64 {
        self.monitor.footprint_of(app)
    }

    /// Mean Footprint-number of an application over all completed intervals.
    pub fn mean_footprint_of(&self, app: usize) -> f64 {
        self.monitor.mean_footprint_of(app)
    }

    /// Current priority class of an application.
    pub fn priority_of(&self, app: usize) -> PriorityLevel {
        self.predictors[app].priority()
    }

    /// Number of completed monitoring intervals.
    pub fn intervals(&self) -> u64 {
        self.monitor.intervals()
    }

    /// Per-application (bypassed, installed) insertion counts.
    pub fn insertion_counts(&self, app: usize) -> (u64, u64) {
        (self.bypasses[app], self.installs[app])
    }

    /// Access to the monitor (inspection from experiments).
    pub fn monitor(&self) -> &FootprintMonitor {
        &self.monitor
    }
}

impl LlcReplacementPolicy for AdaptPolicy {
    fn name(&self) -> String {
        self.config.label().to_string()
    }

    fn on_access(&mut self, ctx: &AccessContext) {
        // Figure 2a: the test logic forwards only demand accesses belonging to monitored
        // sets to the application sampler; the LLC calls this hook for demands only.
        self.monitor
            .observe(ctx.core_id, ctx.set_index, ctx.block_addr);
    }

    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        // "On a cache hit, only the cache line that hits is promoted to RRPV 0" (§3.2).
        self.rrpv.promote(ctx.set_index, way);
    }

    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        let app = ctx.core_id.min(self.predictors.len() - 1);
        let decision = self.predictors[app].decide();
        if decision.is_bypass() {
            self.bypasses[app] += 1;
        } else {
            self.installs[app] += 1;
        }
        decision
    }

    fn choose_victim(&mut self, ctx: &AccessContext, _lines: &[LineView]) -> usize {
        self.rrpv.find_victim(ctx.set_index)
    }

    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
        if let InsertionDecision::Insert { rrpv } = decision {
            self.rrpv.set(ctx.set_index, way, *rrpv);
        }
    }

    fn on_interval(&mut self) {
        // Figure 2a step (c): at the end of the interval, recompute Footprint-numbers and
        // refresh the priority map.
        let footprints = self.monitor.end_interval();
        for (app, fpn) in footprints.into_iter().enumerate() {
            self.predictors[app].update(fpn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::config::SystemConfig;
    use cache_sim::system::MultiCoreSystem;
    use cache_sim::trace::{StridedTrace, TraceSource};

    fn ctx(core: usize, set: usize, block: u64) -> AccessContext {
        AccessContext {
            core_id: core,
            pc: 0,
            block_addr: block,
            set_index: set,
        }
    }

    fn tiny_policy(apps: usize) -> AdaptPolicy {
        let sys = SystemConfig::tiny(apps);
        AdaptPolicy::new(AdaptConfig::paper(), &sys.llc, apps)
    }

    #[test]
    fn policy_name_tracks_variant() {
        let sys = SystemConfig::tiny(2);
        assert_eq!(
            AdaptPolicy::new(AdaptConfig::paper(), &sys.llc, 2).name(),
            "ADAPT_bp32"
        );
        assert_eq!(
            AdaptPolicy::new(AdaptConfig::paper_insert_only(), &sys.llc, 2).name(),
            "ADAPT_ins"
        );
    }

    #[test]
    fn initial_priority_is_low_before_any_interval() {
        // The cold-start default is Low (SRRIP-like) so ADAPT matches the baseline until
        // the first Footprint-numbers are available.
        let p = tiny_policy(3);
        for app in 0..3 {
            assert_eq!(p.priority_of(app), PriorityLevel::Low);
        }
    }

    #[test]
    fn interval_reclassifies_small_and_large_footprints() {
        let mut p = tiny_policy(2);
        let sets = 64; // tiny LLC: 64KB/64B/16 = 64 sets
                       // App 0 touches 2 blocks per monitored set; app 1 touches 30.
        for set in 0..sets {
            if !p.monitor().is_monitored(set) {
                continue;
            }
            for j in 0..2u64 {
                p.on_access(&ctx(0, set, (j << 20) | set as u64));
            }
            for j in 0..30u64 {
                p.on_access(&ctx(1, set, ((j + 50) << 20) | set as u64));
            }
        }
        p.on_interval();
        assert_eq!(p.priority_of(0), PriorityLevel::High);
        assert_eq!(p.priority_of(1), PriorityLevel::Least);
        assert!(p.footprint_of(0) <= 3.0);
        assert!(p.footprint_of(1) >= 16.0);
        assert_eq!(p.intervals(), 1);
    }

    #[test]
    fn least_priority_app_bypasses_most_fills() {
        let mut p = tiny_policy(1);
        // Force Least priority by feeding a huge per-set footprint then closing the interval.
        for set in 0..64 {
            if !p.monitor().is_monitored(set) {
                continue;
            }
            for j in 0..32u64 {
                p.on_access(&ctx(0, set, (j << 20) | set as u64));
            }
        }
        p.on_interval();
        assert_eq!(p.priority_of(0), PriorityLevel::Least);
        let mut bypasses = 0;
        for i in 0..320u64 {
            if p.insertion_decision(&ctx(0, (i % 64) as usize, i))
                .is_bypass()
            {
                bypasses += 1;
            }
        }
        assert_eq!(bypasses, 310, "31 of 32 least-priority fills bypass");
        let (b, ins) = p.insertion_counts(0);
        assert_eq!(b, 310);
        assert_eq!(ins, 10);
    }

    #[test]
    fn adapt_runs_end_to_end_in_the_simulator() {
        // Two friendly cores plus two streaming cores on the tiny system; ADAPT must
        // complete intervals and classify the streamers as Least priority eventually.
        let cfg = SystemConfig::tiny(4);
        let traces: Vec<Box<dyn TraceSource>> = vec![
            Box::new(StridedTrace::new(0x0000_0000, 64, 8 * 1024, 4)),
            Box::new(StridedTrace::new(0x1000_0000, 64, 8 * 1024, 4)),
            Box::new(StridedTrace::new(0x2000_0000, 64, 16 * 1024 * 1024, 4)),
            Box::new(StridedTrace::new(0x3000_0000, 64, 16 * 1024 * 1024, 4)),
        ];
        let policy = AdaptPolicy::new(AdaptConfig::paper(), &cfg.llc, 4);
        let mut sys = MultiCoreSystem::new(cfg, traces, policy);
        let res = sys.run(60_000);
        assert_eq!(res.policy, "ADAPT_bp32");
        assert!(
            res.llc_global.intervals_completed > 0,
            "interval hook must fire"
        );
        // Streaming cores must see some bypassed fills.
        let bypasses: u64 = res.per_core[2..].iter().map(|c| c.llc.bypassed_fills).sum();
        assert!(bypasses > 0, "streaming applications should be bypassed");
    }

    #[test]
    fn core_id_out_of_range_is_clamped() {
        let mut p = tiny_policy(2);
        let d = p.insertion_decision(&ctx(7, 0, 0));
        assert!(!d.is_bypass());
    }
}
