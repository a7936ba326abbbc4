//! # mc-metrics
//!
//! Multi-programmed throughput and fairness metrics used by the paper's evaluation
//! (Section 5.6, Table 7):
//!
//! * **Weighted speedup** (Snavely & Tullsen): `Σ_i IPC_shared_i / IPC_alone_i` — the
//!   paper's headline metric (Figures 3, 6, 7, 8).
//! * **Harmonic mean of normalized IPCs** (Luo et al., ISPASS 2001): balances fairness and
//!   throughput.
//! * **Arithmetic / geometric / harmonic means of raw IPCs** (Michaud, CAL 2013): the
//!   "consistent" throughput metrics of Table 7.
//!
//! All functions are pure and panic on length mismatches, which always indicate a harness
//! bug rather than a recoverable condition.

/// Weighted speedup: `Σ_i shared_i / alone_i`.
///
/// A workload of N applications that are all unaffected by sharing scores N.
pub fn weighted_speedup(ipc_shared: &[f64], ipc_alone: &[f64]) -> f64 {
    assert_eq!(
        ipc_shared.len(),
        ipc_alone.len(),
        "per-app IPC vectors must align"
    );
    ipc_shared
        .iter()
        .zip(ipc_alone)
        .map(|(&s, &a)| if a > 0.0 { s / a } else { 0.0 })
        .sum()
}

/// Harmonic mean of normalized IPCs: `N / Σ_i (alone_i / shared_i)`.
pub fn harmonic_mean_normalized(ipc_shared: &[f64], ipc_alone: &[f64]) -> f64 {
    assert_eq!(
        ipc_shared.len(),
        ipc_alone.len(),
        "per-app IPC vectors must align"
    );
    if ipc_shared.is_empty() {
        return 0.0;
    }
    let denom: f64 = ipc_shared
        .iter()
        .zip(ipc_alone)
        .map(|(&s, &a)| if s > 0.0 { a / s } else { f64::INFINITY })
        .sum();
    if denom.is_finite() {
        ipc_shared.len() as f64 / denom
    } else {
        0.0
    }
}

/// Arithmetic mean (0 if empty): of raw IPCs, or of speedups.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean (0 if empty): of raw IPCs, or of speedups.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Harmonic mean (0 if empty or if any value is 0): of raw IPCs, or of speedups.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let denom: f64 = values
        .iter()
        .map(|&v| if v > 0.0 { 1.0 / v } else { f64::INFINITY })
        .sum();
    if denom.is_finite() {
        values.len() as f64 / denom
    } else {
        0.0
    }
}

/// Fairness: the ratio of the smallest to the largest per-application normalized IPC,
/// `min_i(shared_i/alone_i) / max_i(shared_i/alone_i)` (Gabor et al.; the metric
/// fairness-oriented LLC clustering work such as LFOC/LFOC+ optimizes). 1.0 means every
/// application suffers equally from sharing; values near 0 mean some application is
/// starved — e.g. by bank contention — while others run at full speed. Returns 0 for
/// empty inputs or when the best-treated application makes no progress.
pub fn fairness(ipc_shared: &[f64], ipc_alone: &[f64]) -> f64 {
    assert_eq!(
        ipc_shared.len(),
        ipc_alone.len(),
        "per-app IPC vectors must align"
    );
    let normalized: Vec<f64> = ipc_shared
        .iter()
        .zip(ipc_alone)
        .map(|(&s, &a)| if a > 0.0 { s / a } else { 0.0 })
        .collect();
    let max = normalized.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return 0.0;
    }
    let min = normalized.iter().cloned().fold(f64::INFINITY, f64::min);
    min / max
}

/// Relative improvement of `value` over `baseline`, as a fraction (0.05 = +5%).
pub fn relative_improvement(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline - 1.0
    }
}

/// Per-application MPKI reduction relative to a baseline, in percent (positive = fewer
/// misses). This is the quantity plotted in the paper's Figures 1b/1c, 4 and 5.
pub fn mpki_reduction_percent(mpki: f64, baseline_mpki: f64) -> f64 {
    if baseline_mpki == 0.0 {
        0.0
    } else {
        (baseline_mpki - mpki) / baseline_mpki * 100.0
    }
}

/// The full set of Table 7 metrics for one workload under one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulticoreMetrics {
    pub weighted_speedup: f64,
    pub harmonic_mean_normalized: f64,
    pub geometric_mean_ipc: f64,
    pub harmonic_mean_ipc: f64,
    pub arithmetic_mean_ipc: f64,
    /// Min/max ratio of normalized IPCs (see [`fairness`]).
    pub fairness: f64,
}

impl MulticoreMetrics {
    /// Compute every metric from the shared-run and alone-run IPC vectors.
    pub fn compute(ipc_shared: &[f64], ipc_alone: &[f64]) -> Self {
        MulticoreMetrics {
            weighted_speedup: weighted_speedup(ipc_shared, ipc_alone),
            harmonic_mean_normalized: harmonic_mean_normalized(ipc_shared, ipc_alone),
            geometric_mean_ipc: geometric_mean(ipc_shared),
            harmonic_mean_ipc: harmonic_mean(ipc_shared),
            arithmetic_mean_ipc: arithmetic_mean(ipc_shared),
            fairness: fairness(ipc_shared, ipc_alone),
        }
    }
}

/// Max/mean imbalance of per-core stall cycles: `max_i(stalls_i) / mean(stalls)`.
///
/// The fairness lens on per-core memory-system stall attribution: 1.0 means every core
/// pays the same queue/admission/MSHR price; N means one core absorbs the entire
/// N-core system's stall budget. Returns 0.0 for empty input or when no core stalled
/// at all (a flat, contention-free run), so reports can distinguish "balanced" from
/// "nothing to balance".
pub fn stall_imbalance(stalls: &[u64]) -> f64 {
    if stalls.is_empty() {
        return 0.0;
    }
    let total: u64 = stalls.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = *stalls.iter().max().expect("non-empty") as f64;
    let mean = total as f64 / stalls.len() as f64;
    max / mean
}

/// Build an "s-curve": the per-workload speedups sorted ascending, the presentation used by
/// the paper's Figures 3 and 8.
pub fn s_curve(speedups: &[f64]) -> Vec<f64> {
    let mut v = speedups.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("speedups must not be NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_speedup_of_unaffected_apps_equals_n() {
        let shared = [1.0, 2.0, 0.5];
        assert!((weighted_speedup(&shared, &shared) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_penalizes_slowdowns() {
        let alone = [2.0, 2.0];
        let shared = [1.0, 2.0];
        assert!((weighted_speedup(&shared, &alone) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_normalized_matches_hand_computation() {
        let alone = [2.0, 2.0];
        let shared = [1.0, 2.0];
        // normalized IPCs: 0.5 and 1.0; HM = 2 / (2 + 1) = 0.666...
        assert!((harmonic_mean_normalized(&shared, &alone) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_shared_ipc_gives_zero_harmonic_mean() {
        assert_eq!(harmonic_mean_normalized(&[0.0, 1.0], &[1.0, 1.0]), 0.0);
        assert_eq!(harmonic_mean(&[0.0, 1.0]), 0.0);
    }

    #[test]
    fn mean_family_orderings_hold() {
        let ipcs = [0.5, 1.0, 2.0, 4.0];
        let am = arithmetic_mean(&ipcs);
        let gm = geometric_mean(&ipcs);
        let hm = harmonic_mean(&ipcs);
        assert!(hm <= gm && gm <= am, "HM <= GM <= AM must hold");
        assert!((am - 1.875).abs() < 1e-12);
        assert!((gm - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(arithmetic_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert_eq!(weighted_speedup(&[], &[]), 0.0);
        assert_eq!(harmonic_mean_normalized(&[], &[]), 0.0);
    }

    #[test]
    fn relative_improvement_and_mpki_reduction() {
        assert!((relative_improvement(1.047, 1.0) - 0.047).abs() < 1e-12);
        assert_eq!(relative_improvement(1.0, 0.0), 0.0);
        assert!((mpki_reduction_percent(5.0, 10.0) - 50.0).abs() < 1e-12);
        assert!((mpki_reduction_percent(12.0, 10.0) + 20.0).abs() < 1e-12);
        assert_eq!(mpki_reduction_percent(1.0, 0.0), 0.0);
    }

    #[test]
    fn fairness_matches_hand_computation() {
        // normalized IPCs: 0.5 and 1.0 => fairness 0.5.
        assert!((fairness(&[1.0, 2.0], &[2.0, 2.0]) - 0.5).abs() < 1e-12);
        // Equal suffering is perfectly fair.
        assert!((fairness(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-12);
        // A fully starved application drives fairness to 0.
        assert_eq!(fairness(&[0.0, 2.0], &[2.0, 2.0]), 0.0);
        assert_eq!(fairness(&[], &[]), 0.0);
        let m = MulticoreMetrics::compute(&[1.0, 2.0], &[2.0, 2.0]);
        assert!((m.fairness - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stall_imbalance_is_max_over_mean() {
        // mean 2, max 4 => 2.0.
        assert!((stall_imbalance(&[0, 2, 2, 4]) - 2.0).abs() < 1e-12);
        // Perfectly balanced.
        assert!((stall_imbalance(&[3, 3, 3]) - 1.0).abs() < 1e-12);
        // One core absorbing everything in an N-core system scores N.
        assert!((stall_imbalance(&[8, 0, 0, 0]) - 4.0).abs() < 1e-12);
        // Empty and all-zero inputs are 0, not NaN.
        assert_eq!(stall_imbalance(&[]), 0.0);
        assert_eq!(stall_imbalance(&[0, 0]), 0.0);
    }

    #[test]
    fn s_curve_sorts_ascending() {
        assert_eq!(s_curve(&[1.2, 0.9, 1.0]), vec![0.9, 1.0, 1.2]);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        weighted_speedup(&[1.0], &[1.0, 2.0]);
    }
}
