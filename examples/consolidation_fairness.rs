//! Consolidation fairness study — the commercial-grid scenario from the paper's
//! introduction: many applications with diverse memory demands consolidated on one large
//! multicore, where the hardware must keep latency-sensitive (cache-friendly) tenants
//! responsive despite streaming co-tenants.
//!
//! Builds a 16-core consolidation mix (8 cache-friendly "service" applications + 8
//! thrashing "batch" applications), runs it under TA-DRRIP and under ADAPT_bp32, and
//! reports how each group's IPC and LLC miss rate changes — the per-application view behind
//! the paper's Figures 4 and 5.
//!
//! Run with: `cargo run --release --example consolidation_fairness`

use adapt_llc::experiments::runner::{sweep_policies_on_sources_with, ReplayConfig};
use adapt_llc::experiments::{ExperimentScale, MixSource, PolicyKind};
use adapt_llc::workloads::{StudyKind, WorkloadMix};

fn main() {
    let scale = ExperimentScale::Smoke; // use Scaled for higher fidelity
    let study = StudyKind::Cores16;
    let config = scale.system_config(study);

    // Hand-built consolidation mix: 8 latency-sensitive services, 8 streaming batch jobs.
    let services = [
        "gcc", "mesa", "vort", "sclust", "deal", "hmm", "twolf", "art",
    ];
    let batch = ["lbm", "libq", "milc", "STRM", "apsi", "gzip", "wrf", "cact"];
    let mix = WorkloadMix {
        id: 0,
        study,
        benchmarks: services
            .iter()
            .chain(batch.iter())
            .map(|s| s.to_string())
            .collect(),
    };

    // Both policies over one materialization of the mix, in parallel.
    let outcome = sweep_policies_on_sources_with(
        &config,
        &[MixSource::synthetic(mix)],
        &[PolicyKind::TaDrrip, PolicyKind::AdaptBp32],
        scale.instructions_per_core(),
        scale.seed(),
        &ReplayConfig::default(),
    )
    .expect("generated mixes always materialize");
    let [baseline, adapt] = &outcome.evaluations[..] else {
        unreachable!("one mix, two policies")
    };

    let group_summary = |eval: &adapt_llc::experiments::MixEvaluation, names: &[&str]| {
        let apps: Vec<_> = eval
            .per_app
            .iter()
            .filter(|a| names.contains(&a.name.as_str()))
            .collect();
        let ipc: f64 = apps.iter().map(|a| a.ipc).sum::<f64>() / apps.len() as f64;
        let mpki: f64 = apps.iter().map(|a| a.llc_mpki).sum::<f64>() / apps.len() as f64;
        (ipc, mpki)
    };

    println!(
        "Consolidated 16-core mix: {} services + {} batch jobs\n",
        services.len(),
        batch.len()
    );
    for (label, names) in [("services", &services[..]), ("batch", &batch[..])] {
        let (ipc_b, mpki_b) = group_summary(baseline, names);
        let (ipc_a, mpki_a) = group_summary(adapt, names);
        println!("{label} group:");
        println!(
            "  TA-DRRIP  : mean IPC {:.3}, mean LLC MPKI {:.2}",
            ipc_b, mpki_b
        );
        println!(
            "  ADAPT_bp32: mean IPC {:.3}, mean LLC MPKI {:.2}",
            ipc_a, mpki_a
        );
        println!(
            "  change    : IPC {:+.1}%, MPKI {:+.1}%\n",
            (ipc_a / ipc_b - 1.0) * 100.0,
            (mpki_a / mpki_b - 1.0) * 100.0
        );
    }

    println!(
        "Weighted speedup: TA-DRRIP {:.3} -> ADAPT_bp32 {:.3} ({:+.2}%)",
        baseline.weighted_speedup(),
        adapt.weighted_speedup(),
        (adapt.weighted_speedup() / baseline.weighted_speedup() - 1.0) * 100.0
    );
}
