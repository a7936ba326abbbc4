//! Ablation sweeps over ADAPT's design parameters (`docs/policies.md`).
//!
//! The paper fixes several constants after internal sweeps: the monitoring interval (1M
//! LLC misses, chosen from {0.25M..4M}), 40 sampled sets, the Table 1 priority ranges
//! (chosen from 36 range combinations) and the 1/32 bypass ratio. These functions rerun
//! the corresponding sweeps on our substrate so the sensitivity of each choice can be
//! inspected; `repro ablation` drives them.
//!
//! The sweeps run on the corpus engine: each mix's access streams are materialized once
//! and shared (zero-copy) across the TA-DRRIP baseline and every configuration variant,
//! which are evaluated in parallel. The seed behaviour regenerated every stream — and
//! re-ran the baseline — once *per variant*.

use std::collections::HashMap;

use adapt_core::{AdaptConfig, AdaptPolicy};
use rayon::prelude::*;
use workloads::{generate_mixes, StudyKind, WorkloadMix};

use cache_sim::config::SystemConfig;

use crate::policies::{AnyPolicy, PolicyKind};
use crate::report::render_table;
use crate::runner::{evaluate_prepared, warm_alone_cache, MixSource, ReplayConfig};
use crate::scale::ExperimentScale;

/// One ablation data point: a configuration label and its mean speedup over TA-DRRIP.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Human-readable variant description (e.g. `"bypass 1/32"`).
    pub label: String,
    /// Mean (over mixes) weighted-speedup ratio of the variant to the TA-DRRIP baseline.
    pub speedup_over_tadrrip: f64,
}

/// Shared sweep machinery: evaluate a list of (label, AdaptConfig) variants against the
/// TA-DRRIP baseline on a common set of mixes and, optionally, configuration overrides.
///
/// Each mix is materialized once; the baseline is evaluated once per distinct
/// configuration override (not once per variant) and the variants fan out in parallel
/// over the shared streams.
fn sweep_adapt_variants(
    base_config: &SystemConfig,
    mixes: &[WorkloadMix],
    variants: &[(String, AdaptConfig, Option<u64>)],
    instructions: u64,
    seed: u64,
) -> Vec<AblationPoint> {
    warm_alone_cache(base_config, mixes, instructions, seed);
    let llc_sets = base_config.llc.geometry.num_sets();
    let config_for = |interval_override: &Option<u64>| {
        let mut cfg = base_config.clone();
        if let Some(interval) = interval_override {
            cfg.interval_misses = *interval;
        }
        cfg
    };
    let replay = ReplayConfig::default();
    let mut ratio_sums = vec![0.0f64; variants.len()];
    for mix in mixes {
        let prepared = MixSource::synthetic(mix.clone())
            .materialize_with(llc_sets, seed, &replay)
            .expect("synthetic mixes always materialize");
        // One baseline per distinct override: TA-DRRIP's result depends on the system
        // configuration, not on the ADAPT knobs, so identical overrides share it.
        let mut overrides: Vec<Option<u64>> = variants.iter().map(|v| v.2).collect();
        overrides.sort_unstable();
        overrides.dedup();
        let baselines: HashMap<Option<u64>, f64> = overrides
            .par_iter()
            .map(|ov| {
                let cfg = config_for(ov);
                let built = PolicyKind::TaDrrip.build_dispatch(&cfg, &mix.thrashing_slots());
                let eval = evaluate_prepared(
                    &cfg,
                    &prepared,
                    PolicyKind::TaDrrip,
                    built,
                    instructions,
                    seed,
                );
                (*ov, eval.weighted_speedup())
            })
            .collect();
        let ratios: Vec<f64> = variants
            .par_iter()
            .map(|(_, adapt_cfg, interval_override)| {
                let cfg = config_for(interval_override);
                let policy =
                    AnyPolicy::Adapt(AdaptPolicy::new(*adapt_cfg, &cfg.llc, cfg.num_cores));
                let adapt = evaluate_prepared(
                    &cfg,
                    &prepared,
                    PolicyKind::AdaptBp32,
                    policy,
                    instructions,
                    seed,
                );
                let b = baselines[interval_override];
                if b > 0.0 {
                    adapt.weighted_speedup() / b
                } else {
                    0.0
                }
            })
            .collect();
        for (sum, r) in ratio_sums.iter_mut().zip(&ratios) {
            *sum += r;
        }
        prepared.record_stage_counters();
    }
    variants
        .iter()
        .zip(&ratio_sums)
        .map(|((label, _, _), sum)| AblationPoint {
            label: label.clone(),
            speedup_over_tadrrip: *sum / mixes.len().max(1) as f64,
        })
        .collect()
}

fn setup(scale: ExperimentScale, mixes: usize) -> (SystemConfig, Vec<WorkloadMix>, u64, u64) {
    let study = StudyKind::Cores16;
    let config = scale.system_config(study);
    let workloads = generate_mixes(
        study,
        mixes.min(scale.mixes_for(study)).max(1),
        scale.seed(),
    );
    (
        config,
        workloads,
        scale.instructions_per_core(),
        scale.seed(),
    )
}

/// Sweep the monitoring-interval length (fractions/multiples of the configured interval).
pub fn interval_sweep(scale: ExperimentScale, mixes: usize) -> Vec<AblationPoint> {
    let (config, workloads, instructions, seed) = setup(scale, mixes);
    let base = config.interval_misses;
    let variants: Vec<(String, AdaptConfig, Option<u64>)> = [0.25f64, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|mult| {
            (
                format!("interval x{mult}"),
                AdaptConfig::paper(),
                Some(((base as f64 * mult) as u64).max(1024)),
            )
        })
        .collect();
    sweep_adapt_variants(&config, &workloads, &variants, instructions, seed)
}

/// Sweep the number of sampled sets per application (the paper uses 40).
pub fn sampled_sets_sweep(scale: ExperimentScale, mixes: usize) -> Vec<AblationPoint> {
    let (config, workloads, instructions, seed) = setup(scale, mixes);
    let variants: Vec<(String, AdaptConfig, Option<u64>)> = [8usize, 16, 40, 64, 128]
        .iter()
        .map(|n| {
            (
                format!("{n} sampled sets"),
                AdaptConfig {
                    sampled_sets: *n,
                    ..AdaptConfig::paper()
                },
                None,
            )
        })
        .collect();
    sweep_adapt_variants(&config, &workloads, &variants, instructions, seed)
}

/// Sweep the bypass ratio of the Least-priority class (the paper installs 1 in 32).
pub fn bypass_ratio_sweep(scale: ExperimentScale, mixes: usize) -> Vec<AblationPoint> {
    let (config, workloads, instructions, seed) = setup(scale, mixes);
    let variants: Vec<(String, AdaptConfig, Option<u64>)> = [8u32, 16, 32, 64, 128]
        .iter()
        .map(|r| {
            (
                format!("bypass 1/{r}"),
                AdaptConfig {
                    bypass_ratio: *r,
                    ..AdaptConfig::paper()
                },
                None,
            )
        })
        .collect();
    sweep_adapt_variants(&config, &workloads, &variants, instructions, seed)
}

/// Sweep the High/Medium priority boundaries (the paper settles on `[0,3]` and `(3,12]`).
pub fn priority_range_sweep(scale: ExperimentScale, mixes: usize) -> Vec<AblationPoint> {
    let (config, workloads, instructions, seed) = setup(scale, mixes);
    let mut variants = Vec::new();
    for high_max in [2.0f64, 3.0, 5.0, 8.0] {
        for medium_max in [10.0f64, 12.0, 14.0] {
            if medium_max <= high_max {
                continue;
            }
            variants.push((
                format!("HP<= {high_max}, MP<= {medium_max}"),
                AdaptConfig {
                    high_max,
                    medium_max,
                    ..AdaptConfig::paper()
                },
                None,
            ));
        }
    }
    sweep_adapt_variants(&config, &workloads, &variants, instructions, seed)
}

/// Render an ablation sweep.
pub fn render(title: &str, points: &[AblationPoint]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&render_table(
        &["configuration", "speedup over TA-DRRIP"],
        &points
            .iter()
            .map(|p| vec![p.label.clone(), format!("{:.4}", p.speedup_over_tadrrip)])
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypass_ratio_sweep_produces_one_point_per_ratio() {
        type Sweep = fn(ExperimentScale, usize) -> Vec<AblationPoint>;
        let sweeps: [(Sweep, &str); 3] = [
            (interval_sweep, "interval x1"),
            (sampled_sets_sweep, "40 sampled sets"),
            (bypass_ratio_sweep, "bypass 1/32"),
        ];
        for (sweep, paper_setting) in sweeps {
            let points = sweep(ExperimentScale::Smoke, 1);
            assert_eq!(points.len(), 5, "{paper_setting}");
            for p in &points {
                assert!(
                    p.speedup_over_tadrrip.is_finite() && p.speedup_over_tadrrip > 0.0,
                    "{}: {}",
                    p.label,
                    p.speedup_over_tadrrip
                );
            }
            assert!(render("ablation", &points).contains(paper_setting));
        }
    }

    #[test]
    fn priority_range_sweep_excludes_degenerate_ranges() {
        let points = priority_range_sweep(ExperimentScale::Smoke, 1);
        assert!(points.iter().all(|p| !p.label.is_empty()));
        assert!(points.len() >= 9);
    }
}
