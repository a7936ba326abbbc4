//! Order statistics used by every report: medians, quartiles, and the tail rule.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so a report's spread reads the same as the driver's.
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based axis; like Python, only the index is clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Nearest rank (1-based) of percentile `pct` among `n` samples. The epsilon keeps
/// products such as 99.99 % of 100 000 from rounding up past their exact rank.
fn rank(pct: f64, n: usize) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(ascending: &[f64], pct: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no samples");
    ascending[rank(pct, ascending.len()) - 1]
}

/// The highest percentile of the ladder that still leaves at least ten samples beyond
/// it, with its value: `(pct, value)`. `None` when even the lowest rung leaves fewer —
/// the sample supports a median and nothing more.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&pct| n - rank(pct, n) >= TAIL_MIN_BEYOND)
        .map(|&pct| (pct, percentile(&v, pct)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[2.0, 1.0, 3.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 104 cold requests: p90 is rank 94, leaving exactly 10 beyond; p95 leaves 5.
        assert_eq!(tail(&ramp(104)), Some((90.0, 94.0)));
        // 100 k burst requests support p99.99 (rank 99 990, 10 beyond).
        assert_eq!(tail(&ramp(100_000)), Some((99.99, 99_990.0)));
        // 1 000 samples: p99 leaves exactly 10, p99.9 leaves 1.
        assert_eq!(tail(&ramp(1_000)), Some((99.0, 990.0)));
        // 40 samples: p75 is rank 30, 10 beyond.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 39 samples: p75 is rank 30, 9 beyond -> no tail at all.
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&ramp(16)), None);
    }
}
