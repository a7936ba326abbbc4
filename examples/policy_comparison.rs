//! Policy comparison on a 16-core workload mix — the scenario the paper's introduction
//! motivates: more applications than LLC ways.
//!
//! Generates one 16-core workload mix with the paper's Table 6 composition rules, runs it
//! under every policy of the paper's Figure 3 lineup plus the TA-DRRIP baseline, and prints
//! the weighted speedup and fairness metrics of each policy.
//!
//! Run with: `cargo run --release --example policy_comparison`

use adapt_llc::experiments::runner::{sweep_policies_on_sources_with, ReplayConfig};
use adapt_llc::experiments::{ExperimentScale, MixSource, PolicyKind};
use adapt_llc::workloads::{generate_mixes, StudyKind};

fn main() {
    let scale = ExperimentScale::Smoke; // keep the example snappy; use Scaled for fidelity
    let study = StudyKind::Cores16;
    let config = scale.system_config(study);
    let mix = generate_mixes(study, 1, scale.seed()).remove(0);

    println!(
        "Workload mix ({}-core): {}\n",
        study.num_cores(),
        mix.benchmarks.join(", ")
    );
    println!(
        "{:<16} {:>16} {:>14} {:>12}",
        "policy", "weighted speedup", "norm. HM", "vs TA-DRRIP"
    );

    let mut policies = vec![PolicyKind::TaDrrip];
    policies.extend(PolicyKind::figure3_lineup());

    // Every policy over one materialization of the mix: its private caches are simulated
    // once, and the policies run in parallel.
    let outcome = sweep_policies_on_sources_with(
        &config,
        &[MixSource::synthetic(mix.clone())],
        &policies,
        scale.instructions_per_core(),
        scale.seed(),
        &ReplayConfig::default(),
    )
    .expect("generated mixes always materialize");

    let mut baseline_ws = None;
    for (&kind, eval) in policies.iter().zip(&outcome.evaluations) {
        let ws = eval.weighted_speedup();
        if kind == PolicyKind::TaDrrip {
            baseline_ws = Some(ws);
        }
        let rel = baseline_ws.map(|b| ws / b).unwrap_or(1.0);
        println!(
            "{:<16} {:>16.3} {:>14.3} {:>11.2}%",
            kind.label(),
            ws,
            eval.metrics.harmonic_mean_normalized,
            (rel - 1.0) * 100.0
        );
    }

    println!("\nThrashing applications in this mix (Footprint-number >= 16):");
    for slot in mix.thrashing_slots() {
        println!("  core {:>2}: {}", slot, mix.benchmarks[slot]);
    }
}
