//! ADAPT configuration.
//!
//! Defaults follow the paper exactly: 40 sampled sets per application, 16-entry sampler
//! arrays storing 10-bit partial tags, an interval of 1M LLC misses (the interval itself is
//! owned by the simulator configuration), the Table 1 priority ranges and the 1/16 and 1/32
//! probabilistic-insertion throttles. Every knob the paper sweeps (or that
//! `docs/policies.md` lists for ablation) is exposed.

use serde::{Deserialize, Serialize};

/// How Least-priority (thrashing / cache-filling) applications are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeastPriorityMode {
    /// ADAPT_ins: always install, at distant priority (RRPV 3).
    InsertDistant,
    /// ADAPT_bp32: bypass the LLC; 1 in `bypass_ratio` accesses is installed at distant
    /// priority (the paper's best-performing variant).
    Bypass,
}

/// Sampling mode of the Footprint-number monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingMode {
    /// Sample `sampled_sets` sets spread uniformly over the index space (paper: 40).
    Sampled,
    /// Monitor every set; used to compute the paper's Table 4 "Fpn(A)" reference values.
    AllSets,
}

/// Full ADAPT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// Number of monitored sets per application (paper §3.1: 40 suffice).
    pub sampled_sets: usize,
    /// Entries per sampler array (paper §3.3: the associativity, 16).
    pub sampler_entries: usize,
    /// Partial-tag width stored per sampler entry (paper §3.3: 10 bits).
    pub partial_tag_bits: u32,
    /// Saturation value of the per-set unique-access counter (Table 4 caps at 32).
    pub footprint_saturation: u32,
    /// Sampled vs. all-sets monitoring.
    pub sampling: SamplingMode,
    /// Inclusive upper bound of the High-priority Footprint-number range (paper: 3).
    pub high_max: f64,
    /// Inclusive upper bound of the Medium-priority range (paper: 12).
    pub medium_max: f64,
    /// Exclusive upper bound of the Low-priority range; at or above this value an
    /// application is Least priority (paper: 16, the LLC associativity).
    pub low_max: f64,
    /// Medium priority: one out of `medium_throttle` insertions goes to Low priority.
    pub medium_throttle: u32,
    /// Low priority: one out of `low_throttle` insertions goes to Medium priority.
    pub low_throttle: u32,
    /// Least priority: one out of `bypass_ratio` accesses is installed (rest bypass).
    pub bypass_ratio: u32,
    /// Treatment of Least-priority applications.
    pub least_mode: LeastPriorityMode,
    /// Priority level assumed for every application before the first interval completes.
    pub initial_priority_is_medium: bool,
}

impl AdaptConfig {
    /// The paper's ADAPT_bp32 configuration.
    pub fn paper() -> Self {
        AdaptConfig {
            sampled_sets: 40,
            sampler_entries: 16,
            partial_tag_bits: 10,
            footprint_saturation: 32,
            sampling: SamplingMode::Sampled,
            high_max: 3.0,
            medium_max: 12.0,
            low_max: 16.0,
            medium_throttle: 16,
            low_throttle: 16,
            bypass_ratio: 32,
            least_mode: LeastPriorityMode::Bypass,
            // Before the first interval completes nothing is known about any application;
            // Low priority (RRPV 2) makes the cold-start behave exactly like SRRIP, the
            // baseline's insertion policy, so ADAPT never regresses during warm-up. (The
            // paper does not specify the pre-classification default.)
            initial_priority_is_medium: false,
        }
    }

    /// The paper's ADAPT_ins variant (no bypassing; Least priority inserts at RRPV 3).
    pub fn paper_insert_only() -> Self {
        AdaptConfig {
            least_mode: LeastPriorityMode::InsertDistant,
            ..Self::paper()
        }
    }

    /// All-sets monitoring variant used to compute Table 4's Fpn(A) column.
    pub fn all_sets_profiler() -> Self {
        AdaptConfig {
            sampling: SamplingMode::AllSets,
            ..Self::paper()
        }
    }

    /// Short label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self.least_mode {
            LeastPriorityMode::Bypass => "ADAPT_bp32",
            LeastPriorityMode::InsertDistant => "ADAPT_ins",
        }
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.sampled_sets == 0 && self.sampling == SamplingMode::Sampled {
            return Err("sampled_sets must be > 0 in Sampled mode".into());
        }
        if self.sampler_entries == 0 {
            return Err("sampler_entries must be > 0".into());
        }
        if self.partial_tag_bits == 0 || self.partial_tag_bits > 64 {
            return Err("partial_tag_bits must be in 1..=64".into());
        }
        if !(self.high_max < self.medium_max && self.medium_max < self.low_max) {
            return Err("priority ranges must be strictly ordered".into());
        }
        if self.medium_throttle == 0 || self.low_throttle == 0 || self.bypass_ratio == 0 {
            return Err("throttles must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section3() {
        let c = AdaptConfig::paper();
        assert_eq!(c.sampled_sets, 40);
        assert_eq!(c.sampler_entries, 16);
        assert_eq!(c.partial_tag_bits, 10);
        assert_eq!(c.high_max, 3.0);
        assert_eq!(c.medium_max, 12.0);
        assert_eq!(c.low_max, 16.0);
        assert_eq!(c.medium_throttle, 16);
        assert_eq!(c.low_throttle, 16);
        assert_eq!(c.bypass_ratio, 32);
        assert_eq!(c.least_mode, LeastPriorityMode::Bypass);
        assert_eq!(c.label(), "ADAPT_bp32");
        c.validate().unwrap();
    }

    #[test]
    fn insert_only_variant_changes_only_the_least_mode() {
        let bp = AdaptConfig::paper();
        let ins = AdaptConfig::paper_insert_only();
        assert_eq!(ins.least_mode, LeastPriorityMode::InsertDistant);
        assert_eq!(ins.label(), "ADAPT_ins");
        assert_eq!(ins.sampled_sets, bp.sampled_sets);
        assert_eq!(ins.bypass_ratio, bp.bypass_ratio);
    }

    #[test]
    fn validation_rejects_inverted_ranges() {
        let mut c = AdaptConfig::paper();
        c.medium_max = 2.0;
        assert!(c.validate().is_err());
        let mut c = AdaptConfig::paper();
        c.bypass_ratio = 0;
        assert!(c.validate().is_err());
        let mut c = AdaptConfig::paper();
        c.partial_tag_bits = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn all_sets_profiler_is_valid() {
        AdaptConfig::all_sets_profiler().validate().unwrap();
    }
}
