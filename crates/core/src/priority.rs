//! Footprint-number based insertion-priority prediction (paper §3.2, Table 1).
//!
//! | Priority | Footprint-number range | Insertion behaviour |
//! |----------|------------------------|---------------------|
//! | High     | `[0, 3]`               | RRPV 0 |
//! | Medium   | `(3, 12]`              | RRPV 1, 1/16 of insertions at RRPV 2 |
//! | Low      | `(12, 16)`             | RRPV 2, 1/16 of insertions at RRPV 1 |
//! | Least    | `>= 16`                | bypass; 1/32 of accesses installed at RRPV 3 (ADAPT_bp32) or always installed at RRPV 3 (ADAPT_ins) |
//!
//! The probabilistic 1/16 and 1/32 choices are realized with small per-level counters
//! ("three more counters each of size one byte" — §3.3), so behaviour is deterministic.

use cache_sim::replacement::{InsertionDecision, RRPV_MAX};

use crate::config::{AdaptConfig, LeastPriorityMode};

/// Discrete application priority classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityLevel {
    High,
    Medium,
    Low,
    Least,
}

impl PriorityLevel {
    /// Short label used in reports ("HP"/"MP"/"LP"/"LstP", as in the paper's Table 1).
    pub fn label(&self) -> &'static str {
        match self {
            PriorityLevel::High => "HP",
            PriorityLevel::Medium => "MP",
            PriorityLevel::Low => "LP",
            PriorityLevel::Least => "LstP",
        }
    }
}

/// Classify a Footprint-number into a priority level using the configured ranges.
///
/// Applications whose Footprint-number has not been measured yet (NaN) are treated as
/// Medium priority when `initial_priority_is_medium` is set, Low otherwise.
pub fn classify(config: &AdaptConfig, footprint: f64) -> PriorityLevel {
    if footprint.is_nan() {
        return if config.initial_priority_is_medium {
            PriorityLevel::Medium
        } else {
            PriorityLevel::Low
        };
    }
    if footprint <= config.high_max {
        PriorityLevel::High
    } else if footprint <= config.medium_max {
        PriorityLevel::Medium
    } else if footprint < config.low_max {
        PriorityLevel::Low
    } else {
        PriorityLevel::Least
    }
}

/// Per-application insertion-decision generator.
///
/// Holds the per-level throttle counters that realize the probabilistic insertions of
/// Table 1. One instance per application (the counters are per-application state in the
/// paper's cost accounting).
#[derive(Debug, Clone)]
pub struct InsertionPriorityPredictor {
    config: AdaptConfig,
    priority: PriorityLevel,
    medium_ctr: u32,
    low_ctr: u32,
    least_ctr: u32,
}

impl InsertionPriorityPredictor {
    pub fn new(config: AdaptConfig) -> Self {
        let priority = classify(&config, f64::NAN);
        InsertionPriorityPredictor {
            config,
            priority,
            medium_ctr: 0,
            low_ctr: 0,
            least_ctr: 0,
        }
    }

    /// Update the application's priority from a freshly computed Footprint-number.
    pub fn update(&mut self, footprint: f64) {
        self.priority = classify(&self.config, footprint);
    }

    /// Force a specific priority (used by tests and by software-override experiments).
    pub fn set_priority(&mut self, priority: PriorityLevel) {
        self.priority = priority;
    }

    /// Current priority class of the application.
    pub fn priority(&self) -> PriorityLevel {
        self.priority
    }

    /// Insertion decision for the next missing line of this application.
    pub fn decide(&mut self) -> InsertionDecision {
        match self.priority {
            PriorityLevel::High => InsertionDecision::insert(0),
            PriorityLevel::Medium => {
                self.medium_ctr = self.medium_ctr.wrapping_add(1);
                if self.medium_ctr.is_multiple_of(self.config.medium_throttle) {
                    InsertionDecision::insert(2)
                } else {
                    InsertionDecision::insert(1)
                }
            }
            PriorityLevel::Low => {
                self.low_ctr = self.low_ctr.wrapping_add(1);
                if self.low_ctr.is_multiple_of(self.config.low_throttle) {
                    InsertionDecision::insert(1)
                } else {
                    InsertionDecision::insert(2)
                }
            }
            PriorityLevel::Least => {
                self.least_ctr = self.least_ctr.wrapping_add(1);
                match self.config.least_mode {
                    LeastPriorityMode::InsertDistant => InsertionDecision::insert(RRPV_MAX),
                    LeastPriorityMode::Bypass => {
                        if self.least_ctr.is_multiple_of(self.config.bypass_ratio) {
                            InsertionDecision::insert(RRPV_MAX)
                        } else {
                            InsertionDecision::Bypass
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdaptConfig {
        AdaptConfig::paper()
    }

    #[test]
    fn classification_follows_table1_ranges() {
        let c = cfg();
        assert_eq!(classify(&c, 0.0), PriorityLevel::High);
        assert_eq!(classify(&c, 3.0), PriorityLevel::High);
        assert_eq!(classify(&c, 3.01), PriorityLevel::Medium);
        assert_eq!(classify(&c, 12.0), PriorityLevel::Medium);
        assert_eq!(classify(&c, 12.5), PriorityLevel::Low);
        assert_eq!(classify(&c, 15.99), PriorityLevel::Low);
        assert_eq!(classify(&c, 16.0), PriorityLevel::Least);
        assert_eq!(classify(&c, 32.0), PriorityLevel::Least);
    }

    #[test]
    fn unknown_footprint_defaults_to_low() {
        assert_eq!(classify(&cfg(), f64::NAN), PriorityLevel::Low);
        let medium_default = AdaptConfig {
            initial_priority_is_medium: true,
            ..cfg()
        };
        assert_eq!(classify(&medium_default, f64::NAN), PriorityLevel::Medium);
    }

    #[test]
    fn high_priority_always_inserts_at_zero() {
        let mut p = InsertionPriorityPredictor::new(cfg());
        p.update(1.5);
        for _ in 0..64 {
            assert_eq!(p.decide(), InsertionDecision::Insert { rrpv: 0 });
        }
    }

    #[test]
    fn medium_priority_inserts_one_in_sixteen_at_low() {
        let mut p = InsertionPriorityPredictor::new(cfg());
        p.update(8.0);
        let decisions: Vec<_> = (0..160).map(|_| p.decide()).collect();
        let at_two = decisions
            .iter()
            .filter(|d| **d == InsertionDecision::Insert { rrpv: 2 })
            .count();
        let at_one = decisions
            .iter()
            .filter(|d| **d == InsertionDecision::Insert { rrpv: 1 })
            .count();
        assert_eq!(at_two, 10);
        assert_eq!(at_one, 150);
    }

    #[test]
    fn low_priority_inserts_one_in_sixteen_at_medium() {
        let mut p = InsertionPriorityPredictor::new(cfg());
        p.update(14.0);
        let decisions: Vec<_> = (0..160).map(|_| p.decide()).collect();
        let at_one = decisions
            .iter()
            .filter(|d| **d == InsertionDecision::Insert { rrpv: 1 })
            .count();
        let at_two = decisions
            .iter()
            .filter(|d| **d == InsertionDecision::Insert { rrpv: 2 })
            .count();
        assert_eq!(at_one, 10);
        assert_eq!(at_two, 150);
    }

    #[test]
    fn least_priority_bypasses_thirtyone_of_thirtytwo() {
        let mut p = InsertionPriorityPredictor::new(cfg());
        p.update(30.0);
        let decisions: Vec<_> = (0..320).map(|_| p.decide()).collect();
        let bypasses = decisions.iter().filter(|d| d.is_bypass()).count();
        let installs = decisions
            .iter()
            .filter(|d| **d == InsertionDecision::Insert { rrpv: 3 })
            .count();
        assert_eq!(bypasses, 310);
        assert_eq!(installs, 10);
    }

    #[test]
    fn insert_only_mode_never_bypasses() {
        let mut p = InsertionPriorityPredictor::new(AdaptConfig::paper_insert_only());
        p.update(30.0);
        for _ in 0..64 {
            assert_eq!(p.decide(), InsertionDecision::Insert { rrpv: 3 });
        }
    }

    #[test]
    fn priority_changes_take_effect_immediately() {
        let mut p = InsertionPriorityPredictor::new(cfg());
        p.update(30.0);
        assert_eq!(p.priority(), PriorityLevel::Least);
        p.update(2.0);
        assert_eq!(p.priority(), PriorityLevel::High);
        assert_eq!(p.decide(), InsertionDecision::Insert { rrpv: 0 });
        p.set_priority(PriorityLevel::Low);
        assert_eq!(p.priority(), PriorityLevel::Low);
    }

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(PriorityLevel::High.label(), "HP");
        assert_eq!(PriorityLevel::Medium.label(), "MP");
        assert_eq!(PriorityLevel::Low.label(), "LP");
        assert_eq!(PriorityLevel::Least.label(), "LstP");
    }
}
