//! Quickstart: simulate a small multi-core system with ADAPT managing the shared LLC.
//!
//! Builds a 4-core system (scaled-down cache hierarchy), runs two cache-friendly and two
//! streaming applications together, and prints per-application statistics plus ADAPT's view
//! of each application (Footprint-number and priority class).
//!
//! Run with: `cargo run --release --example quickstart`

use adapt_llc::adapt::{AdaptConfig, AdaptPolicy};
use adapt_llc::experiments::ExperimentScale;
use adapt_llc::metrics::MulticoreMetrics;
use adapt_llc::sim::single::run_alone;
use adapt_llc::sim::system::MultiCoreSystem;
use adapt_llc::sim::trace::TraceSource;
use adapt_llc::workloads::{benchmark_by_name, StudyKind};

fn main() {
    // A scaled-down version of the paper's Table 3 system with 4 cores and its 16 MB LLC.
    let config = ExperimentScale::Scaled.system_config_with_llc(StudyKind::Cores4, 16 << 20, 16);
    let llc_sets = config.llc.geometry.num_sets();
    let instructions = 200_000;

    // Two cache-friendly applications and two thrashing ones from the paper's Table 4.
    let names = ["gcc", "mesa", "lbm", "libq"];
    let traces: Vec<Box<dyn TraceSource>> = names
        .iter()
        .enumerate()
        .map(|(slot, name)| {
            Box::new(
                benchmark_by_name(name)
                    .expect("known benchmark")
                    .trace(slot, llc_sets, 42),
            ) as Box<dyn TraceSource>
        })
        .collect();

    // ADAPT_bp32 — the paper's best variant — manages the shared LLC.
    let policy = AdaptPolicy::new(AdaptConfig::paper(), &config.llc, config.num_cores);
    let mut system = MultiCoreSystem::new(config.clone(), traces, policy);
    let results = system.run(instructions);

    println!(
        "Shared run under {} ({} intervals completed)\n",
        results.policy, results.llc_global.intervals_completed
    );
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>12}",
        "app", "IPC", "L2-MPKI", "LLC-MPKI", "LLC bypasses"
    );
    for core in &results.per_core {
        println!(
            "{:<8} {:>8.3} {:>10.2} {:>10.2} {:>12}",
            core.label,
            core.ipc(),
            core.l2_mpki(),
            core.llc_mpki(),
            core.llc.bypassed_fills
        );
    }

    // Normalize against alone runs to get the paper's weighted speedup.
    let mut alone = Vec::new();
    for (slot, name) in names.iter().enumerate() {
        let spec = benchmark_by_name(name).unwrap();
        let stats = run_alone(
            &config,
            Box::new(spec.trace(slot, llc_sets, 42)),
            adapt_llc::policies::TaDrripPolicy::new(llc_sets, config.llc.geometry.ways, 1),
            instructions,
        );
        alone.push(stats.ipc());
    }
    let shared: Vec<f64> = results.per_core.iter().map(|c| c.ipc()).collect();
    let metrics = MulticoreMetrics::compute(&shared, &alone);
    println!(
        "\nWeighted speedup          : {:.3}",
        metrics.weighted_speedup
    );
    println!(
        "Harmonic mean (normalized): {:.3}",
        metrics.harmonic_mean_normalized
    );
}
