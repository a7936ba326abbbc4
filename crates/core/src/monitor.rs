//! The ADAPT monitoring mechanism: per-application Footprint-number estimation.
//!
//! One [`FootprintMonitor`] serves all applications sharing the LLC. For each application
//! it holds one [`SamplerSet`] per monitored set (paper: 40 monitored sets). Every *demand*
//! access whose set index is monitored is forwarded to the owning application's sampler.
//! At each interval boundary (1M LLC misses in the paper) the per-application
//! Footprint-number is computed as the average unique-access count over that application's
//! sampled sets, and the samplers are cleared so the next interval observes the
//! application's current behaviour (the "sliding" Footprint-number of §3.1).

use crate::config::{AdaptConfig, SamplingMode, PARTIAL_TAG_BITS, SAMPLER_ENTRIES};
use crate::footprint::{SamplerSet, FOOTPRINT_SATURATION};

/// Per-application sampling state plus the last computed Footprint-numbers.
pub struct FootprintMonitor {
    config: AdaptConfig,
    num_sets: usize,
    /// Stride between monitored sets (1 when monitoring all sets).
    stride: usize,
    /// `samplers[app][monitored_slot]`.
    samplers: Vec<Vec<SamplerSet>>,
    /// Footprint-number computed at the last interval boundary, per application.
    footprints: Vec<f64>,
    /// Number of interval boundaries processed.
    intervals: u64,
    /// Running per-application mean of footprints across intervals (for reporting).
    footprint_sums: Vec<f64>,
}

impl FootprintMonitor {
    /// `num_sets` is the LLC set count; `num_apps` the number of cores/applications.
    pub fn new(config: AdaptConfig, num_sets: usize, num_apps: usize) -> Self {
        config.validate().expect("invalid ADAPT configuration");
        let monitored = match config.sampling {
            SamplingMode::AllSets => num_sets,
            SamplingMode::Sampled => config.sampled_sets.min(num_sets),
        };
        let stride = (num_sets / monitored).max(1);
        let samplers = (0..num_apps)
            .map(|_| {
                (0..monitored)
                    .map(|_| {
                        SamplerSet::new(SAMPLER_ENTRIES, PARTIAL_TAG_BITS, FOOTPRINT_SATURATION)
                    })
                    .collect()
            })
            .collect();
        FootprintMonitor {
            config,
            num_sets,
            stride,
            samplers,
            footprints: vec![f64::NAN; num_apps],
            intervals: 0,
            footprint_sums: vec![0.0; num_apps],
        }
    }

    /// Number of monitored sets per application.
    pub fn monitored_sets(&self) -> usize {
        self.samplers.first().map(|s| s.len()).unwrap_or(0)
    }

    /// Map a set index to its monitored slot, if the set is monitored.
    fn slot_of(&self, set_index: usize) -> Option<usize> {
        debug_assert!(set_index < self.num_sets);
        if !set_index.is_multiple_of(self.stride) {
            return None;
        }
        let slot = set_index / self.stride;
        if slot < self.monitored_sets() {
            Some(slot)
        } else {
            None
        }
    }

    /// True if the given set index is monitored (the "test logic" block of Figure 2a).
    pub fn is_monitored(&self, set_index: usize) -> bool {
        self.slot_of(set_index).is_some()
    }

    /// Feed a demand access (application id, set index, block address) to the monitor.
    pub fn observe(&mut self, app: usize, set_index: usize, block_addr: u64) {
        if app >= self.samplers.len() {
            return;
        }
        if let Some(slot) = self.slot_of(set_index) {
            self.samplers[app][slot].sample(block_addr);
        }
    }

    /// Compute each application's Footprint-number (average unique count over its sampled
    /// sets that saw at least one access), store it, clear the samplers, and return the
    /// per-application values. Called at every interval boundary.
    pub fn end_interval(&mut self) -> Vec<f64> {
        self.intervals += 1;
        for (app, sets) in self.samplers.iter_mut().enumerate() {
            let mut sum = 0u64;
            let mut active = 0u64;
            for s in sets.iter() {
                if s.access_count() > 0 {
                    sum += u64::from(s.unique_count());
                    active += 1;
                }
            }
            let fpn = if active == 0 {
                0.0
            } else {
                sum as f64 / active as f64
            };
            self.footprints[app] = fpn;
            self.footprint_sums[app] += fpn;
            for s in sets.iter_mut() {
                s.reset();
            }
        }
        self.footprints.clone()
    }

    /// Footprint-number of an application as of the last interval boundary (NaN before the
    /// first boundary).
    pub fn footprint_of(&self, app: usize) -> f64 {
        self.footprints.get(app).copied().unwrap_or(f64::NAN)
    }

    /// Mean Footprint-number of an application over all completed intervals.
    pub fn mean_footprint_of(&self, app: usize) -> f64 {
        if self.intervals == 0 {
            f64::NAN
        } else {
            self.footprint_sums[app] / self.intervals as f64
        }
    }

    /// Number of completed intervals.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Configuration in use.
    pub fn config(&self) -> &AdaptConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(sampling: SamplingMode, num_sets: usize, apps: usize) -> FootprintMonitor {
        let cfg = AdaptConfig {
            sampling,
            ..AdaptConfig::paper()
        };
        FootprintMonitor::new(cfg, num_sets, apps)
    }

    #[test]
    fn forty_sets_are_monitored_by_default() {
        let m = monitor(SamplingMode::Sampled, 1024, 2);
        assert_eq!(m.monitored_sets(), 40);
        let monitored = (0..1024).filter(|&s| m.is_monitored(s)).count();
        assert_eq!(monitored, 40);
    }

    #[test]
    fn all_sets_mode_monitors_everything() {
        let m = monitor(SamplingMode::AllSets, 256, 1);
        assert_eq!(m.monitored_sets(), 256);
        assert!((0..256).all(|s| m.is_monitored(s)));
    }

    #[test]
    fn footprint_equals_per_set_unique_count_for_uniform_app() {
        let mut m = monitor(SamplingMode::AllSets, 64, 1);
        // The app touches exactly 5 distinct blocks in every set, repeatedly.
        for round in 0..3u64 {
            let _ = round;
            for set in 0..64usize {
                for j in 0..5u64 {
                    m.observe(0, set, (j << 32) | set as u64);
                }
            }
        }
        let fp = m.end_interval();
        assert!((fp[0] - 5.0).abs() < 1e-9, "footprint = {}", fp[0]);
    }

    #[test]
    fn sampled_estimate_tracks_all_set_reference() {
        // Same workload measured with all-sets and with 40-set sampling: the two estimates
        // must agree closely (this is the paper's Table 4 Fpn(A) vs Fpn(S) comparison).
        let run = |mode| {
            let mut m = monitor(mode, 512, 1);
            for set in 0..512usize {
                let uniques = 8 + (set % 3) as u64; // 8..10 unique blocks per set
                for j in 0..uniques {
                    m.observe(0, set, (j << 40) | (set as u64) << 8);
                }
            }
            m.end_interval()[0]
        };
        let all = run(SamplingMode::AllSets);
        let sampled = run(SamplingMode::Sampled);
        assert!((all - sampled).abs() <= 1.0, "all={all}, sampled={sampled}");
    }

    #[test]
    fn applications_are_tracked_independently() {
        let mut m = monitor(SamplingMode::AllSets, 16, 2);
        for set in 0..16usize {
            for j in 0..2u64 {
                m.observe(0, set, j << 24 | set as u64);
            }
            for j in 0..12u64 {
                m.observe(1, set, (j + 100) << 24 | set as u64);
            }
        }
        let fp = m.end_interval();
        assert!((fp[0] - 2.0).abs() < 1e-9);
        assert!((fp[1] - 12.0).abs() < 1e-9);
    }

    #[test]
    fn interval_reset_gives_sliding_footprint() {
        let mut m = monitor(SamplingMode::AllSets, 8, 1);
        for set in 0..8usize {
            for j in 0..10u64 {
                m.observe(0, set, j << 20 | set as u64);
            }
        }
        let first = m.end_interval()[0];
        // Next interval the application only touches 2 blocks per set.
        for set in 0..8usize {
            for j in 0..2u64 {
                m.observe(0, set, j << 20 | set as u64);
            }
        }
        let second = m.end_interval()[0];
        assert!(first > second);
        assert!((second - 2.0).abs() < 1e-9);
        assert_eq!(m.intervals(), 2);
        assert!((m.mean_footprint_of(0) - (first + second) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn unmonitored_sets_and_unknown_apps_are_ignored() {
        let mut m = monitor(SamplingMode::Sampled, 1024, 1);
        let unmonitored = (0..1024).find(|&s| !m.is_monitored(s)).unwrap();
        m.observe(0, unmonitored, 42);
        m.observe(99, 0, 42); // out-of-range app id must not panic
        let fp = m.end_interval();
        assert_eq!(fp[0], 0.0);
    }

    #[test]
    fn footprint_is_nan_before_first_interval() {
        let m = monitor(SamplingMode::Sampled, 1024, 1);
        assert!(m.footprint_of(0).is_nan());
        assert!(m.mean_footprint_of(0).is_nan());
    }
}
