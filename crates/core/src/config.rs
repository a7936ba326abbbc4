//! ADAPT configuration.
//!
//! Defaults follow the paper exactly: 40 sampled sets per application, an interval of 1M
//! LLC misses (the interval itself is owned by the simulator configuration), the Table 1
//! priority ranges and the 1/32 bypass throttle. [`AdaptConfig`] exposes only what the
//! experiments sweep (the ablation study, Table 4's all-sets profiler and the ADAPT_ins
//! variant); the hardware the paper fixes and Table 2 costs is the constants below.

/// Entries per sampler array (paper §3.3: the associativity, 16).
pub const SAMPLER_ENTRIES: usize = 16;
/// Partial-tag width stored per sampler entry (paper §3.3: 10 bits).
pub const PARTIAL_TAG_BITS: u32 = 10;
/// Exclusive upper bound of the Low-priority Footprint-number range; at or above this
/// value an application is Least priority (paper: 16, the LLC associativity).
pub const LOW_MAX: f64 = 16.0;
/// Medium priority: one out of `MEDIUM_THROTTLE` insertions goes to Low priority.
pub const MEDIUM_THROTTLE: u32 = 16;
/// Low priority: one out of `LOW_THROTTLE` insertions goes to Medium priority.
pub const LOW_THROTTLE: u32 = 16;

/// How Least-priority (thrashing / cache-filling) applications are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeastPriorityMode {
    /// ADAPT_ins: always install, at distant priority (RRPV 3).
    InsertDistant,
    /// ADAPT_bp32: bypass the LLC; 1 in `bypass_ratio` accesses is installed at distant
    /// priority (the paper's best-performing variant).
    Bypass,
}

/// Sampling mode of the Footprint-number monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Sample `sampled_sets` sets spread uniformly over the index space (paper: 40).
    Sampled,
    /// Monitor every set; used to compute the paper's Table 4 "Fpn(A)" reference values.
    AllSets,
}

/// The ADAPT settings the experiments vary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Number of monitored sets per application (paper §3.1: 40 suffice).
    pub sampled_sets: usize,
    /// Sampled vs. all-sets monitoring.
    pub sampling: SamplingMode,
    /// Inclusive upper bound of the High-priority Footprint-number range (paper: 3).
    pub high_max: f64,
    /// Inclusive upper bound of the Medium-priority range (paper: 12).
    pub medium_max: f64,
    /// Least priority: one out of `bypass_ratio` accesses is installed (rest bypass).
    pub bypass_ratio: u32,
    /// Treatment of Least-priority applications.
    pub least_mode: LeastPriorityMode,
}

impl AdaptConfig {
    /// The paper's ADAPT_bp32 configuration.
    pub fn paper() -> Self {
        AdaptConfig {
            sampled_sets: 40,
            sampling: SamplingMode::Sampled,
            high_max: 3.0,
            medium_max: 12.0,
            bypass_ratio: 32,
            least_mode: LeastPriorityMode::Bypass,
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
        if !(self.high_max < self.medium_max && self.medium_max < LOW_MAX) {
            return Err("priority ranges must be strictly ordered".into());
        }
        if self.bypass_ratio == 0 {
            return Err("bypass_ratio must be non-zero".into());
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
        assert_eq!(SAMPLER_ENTRIES, 16);
        assert_eq!(PARTIAL_TAG_BITS, 10);
        assert_eq!(c.high_max, 3.0);
        assert_eq!(c.medium_max, 12.0);
        assert_eq!(LOW_MAX, 16.0);
        assert_eq!(MEDIUM_THROTTLE, 16);
        assert_eq!(LOW_THROTTLE, 16);
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
    }

    #[test]
    fn all_sets_profiler_is_valid() {
        AdaptConfig::all_sets_profiler().validate().unwrap();
    }
}
