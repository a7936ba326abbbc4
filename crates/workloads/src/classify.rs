//! Memory-intensity classification (paper Table 5).
//!
//! The paper classifies each benchmark from its standalone Footprint-number and L2-MPKI:
//!
//! | Footprint-number | L2-MPKI   | Class |
//! |------------------|-----------|-------|
//! | < 16             | < 1       | Very Low (VL) |
//! | < 16             | [1, 5)    | Low (L) |
//! | < 16             | > 5       | Medium (M) |
//! | >= 16            | < 5       | Medium (M) |
//! | >= 16            | [5, 25)   | High (H) |
//! | >= 16            | > 25      | Very High (VH) |

/// Memory-intensity class of a benchmark (paper Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemIntensity {
    VeryLow,
    Low,
    Medium,
    High,
    VeryHigh,
}

impl MemIntensity {
    /// Short label as used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            MemIntensity::VeryLow => "VL",
            MemIntensity::Low => "L",
            MemIntensity::Medium => "M",
            MemIntensity::High => "H",
            MemIntensity::VeryHigh => "VH",
        }
    }

    /// All classes in ascending intensity order.
    pub fn all() -> [MemIntensity; 5] {
        [
            MemIntensity::VeryLow,
            MemIntensity::Low,
            MemIntensity::Medium,
            MemIntensity::High,
            MemIntensity::VeryHigh,
        ]
    }
}

/// The empirical classification rule of the paper's Table 5.
pub fn classify(footprint: f64, l2_mpki: f64) -> MemIntensity {
    if footprint < 16.0 {
        if l2_mpki < 1.0 {
            MemIntensity::VeryLow
        } else if l2_mpki < 5.0 {
            MemIntensity::Low
        } else {
            MemIntensity::Medium
        }
    } else if l2_mpki < 5.0 {
        MemIntensity::Medium
    } else if l2_mpki < 25.0 {
        MemIntensity::High
    } else {
        MemIntensity::VeryHigh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_rule_small_footprint() {
        assert_eq!(classify(5.0, 0.5), MemIntensity::VeryLow);
        assert_eq!(classify(5.0, 1.0), MemIntensity::Low);
        assert_eq!(classify(5.0, 4.99), MemIntensity::Low);
        assert_eq!(classify(5.0, 6.0), MemIntensity::Medium);
        assert_eq!(classify(15.99, 30.0), MemIntensity::Medium);
    }

    #[test]
    fn table5_rule_large_footprint() {
        assert_eq!(classify(16.0, 1.3), MemIntensity::Medium);
        assert_eq!(classify(32.0, 4.9), MemIntensity::Medium);
        assert_eq!(classify(32.0, 10.0), MemIntensity::High);
        assert_eq!(classify(29.7, 15.11), MemIntensity::High);
        assert_eq!(classify(32.0, 42.11), MemIntensity::VeryHigh);
        assert_eq!(classify(32.0, 26.18), MemIntensity::VeryHigh);
    }

    #[test]
    fn labels_are_paper_abbreviations() {
        let labels: Vec<&str> = MemIntensity::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["VL", "L", "M", "H", "VH"]);
    }

    #[test]
    fn classes_order_by_intensity() {
        assert!(MemIntensity::VeryLow < MemIntensity::Low);
        assert!(MemIntensity::High < MemIntensity::VeryHigh);
    }
}
