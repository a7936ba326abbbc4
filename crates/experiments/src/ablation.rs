//! Ablation sweeps over ADAPT's design parameters (`docs/policies.md`).
//!
//! The paper fixes several constants after internal sweeps: the monitoring interval (1M
//! LLC misses, chosen from {0.25M..4M}), 40 sampled sets, the Table 1 priority ranges
//! (chosen from 36 range combinations) and the 1/32 bypass ratio. [`sweeps`] lists the
//! corresponding sweeps on our substrate so the sensitivity of each choice can be
//! inspected; the registry's `ablation` experiment runs them (`repro ablation`).
//!
//! Every configuration of every sweep is one variant of that experiment: each mix's
//! access streams are materialized once and shared across the TA-DRRIP baseline and
//! every ADAPT configuration, and the baseline runs once per distinct system
//! configuration (once per interval length), not once per variant.

use adapt_core::AdaptConfig;

/// One ablation sweep: its title and the ADAPT configurations it compares, each a
/// (label, configuration, monitoring-interval multiple) — the multiple scales the
/// system's configured interval for that point, `None` keeping it.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Heading of the sweep's table.
    pub title: &'static str,
    /// The configurations it compares, in table order.
    pub points: Vec<(String, AdaptConfig, Option<f64>)>,
}

/// The four sweeps `repro ablation` prints: interval length, sampled sets, bypass ratio
/// and the High/Medium priority boundaries (the paper settles on `[0,3]` and `(3,12]`).
pub fn sweeps() -> Vec<Sweep> {
    let paper = AdaptConfig::paper();
    let mut ranges = Vec::new();
    for high_max in [2.0f64, 3.0, 5.0, 8.0] {
        for medium_max in [10.0f64, 12.0, 14.0] {
            let label = format!("HP<= {high_max}, MP<= {medium_max}");
            let adapt = AdaptConfig {
                high_max,
                medium_max,
                ..paper
            };
            ranges.push((label, adapt, None));
        }
    }
    vec![
        Sweep {
            title: "Interval-length sweep",
            points: [0.25f64, 0.5, 1.0, 2.0, 4.0]
                .map(|m| (format!("interval x{m}"), paper, Some(m)))
                .into(),
        },
        Sweep {
            title: "Sampled-sets sweep",
            points: [8usize, 16, 40, 64, 128]
                .map(|n| {
                    let adapt = AdaptConfig {
                        sampled_sets: n,
                        ..paper
                    };
                    (format!("{n} sampled sets"), adapt, None)
                })
                .into(),
        },
        Sweep {
            title: "Bypass-ratio sweep",
            points: [8u32, 16, 32, 64, 128]
                .map(|r| {
                    let adapt = AdaptConfig {
                        bypass_ratio: r,
                        ..paper
                    };
                    (format!("bypass 1/{r}"), adapt, None)
                })
                .into(),
        },
        Sweep {
            title: "Priority-range sweep",
            points: ranges,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{find, run, Sources};
    use crate::scale::ExperimentScale;

    /// The ablation's tables at smoke scale, one per sweep.
    fn smoke_tables() -> Vec<crate::report::Table> {
        let ablation = find("ablation").unwrap();
        run(&ablation, ExperimentScale::Smoke, &Sources::Generated).unwrap()
    }

    #[test]
    fn bypass_ratio_sweep_produces_one_point_per_ratio() {
        let tables = smoke_tables();
        let titles: Vec<&str> = sweeps().iter().map(|s| s.title).collect();
        assert_eq!(
            tables.iter().map(|t| t.title.as_str()).collect::<Vec<_>>(),
            titles
        );
        for (table, paper_setting) in
            tables
                .iter()
                .zip(["interval x1", "40 sampled sets", "bypass 1/32"])
        {
            assert_eq!(table.rows.len(), 5, "{paper_setting}");
            for row in &table.rows {
                let speedup: f64 = row[1].parse().unwrap();
                assert!(
                    speedup.is_finite() && speedup > 0.0,
                    "{}: {speedup}",
                    row[0]
                );
            }
            assert!(table.rows.iter().any(|row| row[0] == paper_setting));
        }
    }

    #[test]
    fn priority_range_sweep_excludes_degenerate_ranges() {
        let points = &sweeps()[3].points;
        assert!(points.len() >= 9);
        assert!(points
            .iter()
            .all(|(label, adapt, _)| !label.is_empty() && adapt.high_max < adapt.medium_max));
        let table = &smoke_tables()[3];
        assert_eq!(table.rows.len(), points.len());
    }
}
