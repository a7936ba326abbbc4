//! Shape-level checks of the paper's qualitative claims on a reduced configuration.
//!
//! Absolute numbers differ from the paper (synthetic workloads, approximate core model,
//! scaled caches), so these tests assert *directions* the paper's argument depends on:
//! forcing BRRIP onto thrashing applications does not hurt the baseline, Footprint-number
//! separates thrashing from cache-friendly applications, ADAPT's bypassing reduces the
//! misses of non-thrashing applications relative to inserting everything, and the hardware
//! cost ordering of Table 2 holds.

use adapt_llc::adapt::{adapt_cost_bytes, AdaptConfig};
use adapt_llc::experiments::runner::{evaluate_prepared, ReplayConfig};
use adapt_llc::experiments::{ExperimentScale, MixEvaluation, MixSource, PolicyKind};
use adapt_llc::policies::ShipPolicy;
use adapt_llc::sim::system::MultiCoreSystem;
use adapt_llc::workloads::{benchmark_by_name, generate_mixes, StudyKind};

/// A small but non-trivial configuration: larger than Smoke so the monitoring interval
/// completes several times, much smaller than the full scaled runs.
fn test_scale_config() -> (
    adapt_llc::sim::config::SystemConfig,
    adapt_llc::workloads::WorkloadMix,
    u64,
) {
    let config = ExperimentScale::Scaled.system_config_with_llc(StudyKind::Cores16, 8 << 20, 16);
    let mix = generate_mixes(StudyKind::Cores16, 1, 0xC0FFEE).remove(0);
    (config, mix, 600_000)
}

/// Each of `policies` evaluated over one materialization of `mix`.
fn evaluate_all<const N: usize>(
    config: &adapt_llc::sim::config::SystemConfig,
    mix: &adapt_llc::workloads::WorkloadMix,
    policies: [PolicyKind; N],
    instrs: u64,
) -> [MixEvaluation; N] {
    let prepared = MixSource::synthetic(mix.clone())
        .materialize_with(config.llc.geometry.num_sets(), 1, &ReplayConfig::default())
        .unwrap();
    policies.map(|policy| {
        let built = policy.build_dispatch(config, &mix.thrashing_slots());
        evaluate_prepared(config, &prepared, policy, built, instrs, 1)
    })
}

#[test]
fn footprint_number_separates_thrashing_from_friendly_applications() {
    // Table 4 reproduction in miniature: measured footprints must order correctly.
    use adapt_llc::adapt::FootprintMonitor;
    use adapt_llc::sim::addr::block_of;
    use adapt_llc::sim::trace::TraceSource;

    let llc_sets = 512;
    let measure = |name: &str| -> f64 {
        let mut monitor = FootprintMonitor::new(AdaptConfig::all_sets_profiler(), llc_sets, 1);
        let mut trace = benchmark_by_name(name).unwrap().trace(0, llc_sets, 3);
        for _ in 0..400_000u64 {
            let a = trace.next_access();
            let b = block_of(a.addr);
            monitor.observe(0, b.set_index(llc_sets), b.0);
        }
        monitor.end_interval()[0]
    };
    let calc = measure("calc");
    let gcc = measure("gcc");
    let mcf = measure("mcf");
    let lbm = measure("lbm");
    assert!(calc < 4.0, "calc fpn {calc}");
    assert!(gcc < 8.0, "gcc fpn {gcc}");
    assert!(mcf > gcc, "mcf ({mcf}) should exceed gcc ({gcc})");
    assert!(lbm >= 16.0, "lbm fpn {lbm}");
}

#[test]
fn forced_brrip_on_thrashers_does_not_hurt_weighted_speedup() {
    // Figure 1's motivation: pinning thrashing applications to BRRIP should not lose
    // performance relative to letting TA-DRRIP learn SRRIP for them.
    let (config, mix, instrs) = test_scale_config();
    let policies = [PolicyKind::TaDrrip, PolicyKind::TaDrripForced];
    let [base, forced] = evaluate_all(&config, &mix, policies, instrs);
    assert!(
        forced.weighted_speedup() >= base.weighted_speedup() * 0.99,
        "forced {:.4} vs baseline {:.4}",
        forced.weighted_speedup(),
        base.weighted_speedup()
    );
}

#[test]
fn adapt_bypass_helps_non_thrashing_applications_relative_to_insertion() {
    // Figure 4/5's core claim: bypassing the Least-priority lines leaves more space for the
    // cache-friendly applications than inserting them at distant priority.
    let (config, mix, instrs) = test_scale_config();
    let policies = [PolicyKind::AdaptIns, PolicyKind::AdaptBp32];
    let [ins, byp] = evaluate_all(&config, &mix, policies, instrs);
    let friendly_mpki = |e: &MixEvaluation| -> f64 {
        let apps: Vec<f64> = e
            .per_app
            .iter()
            .filter(|a| !a.is_thrashing)
            .map(|a| a.llc_mpki)
            .collect();
        apps.iter().sum::<f64>() / apps.len() as f64
    };
    let mpki_ins = friendly_mpki(&ins);
    let mpki_byp = friendly_mpki(&byp);
    assert!(
        mpki_byp <= mpki_ins * 1.02,
        "bypassing should not increase friendly-app MPKI (ins {mpki_ins:.3}, bypass {mpki_byp:.3})"
    );
    assert!(
        byp.weighted_speedup() >= ins.weighted_speedup() * 0.98,
        "bypass WS {:.4} vs insert WS {:.4}",
        byp.weighted_speedup(),
        ins.weighted_speedup()
    );
}

#[test]
fn adapt_improves_over_tadrrip_on_a_contended_mix() {
    // The headline direction of Figure 3 on one deterministic 16-core mix.
    let (config, mix, instrs) = test_scale_config();
    let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
    let [base, adapt] = evaluate_all(&config, &mix, policies, instrs);
    assert!(
        adapt.weighted_speedup() >= base.weighted_speedup() * 0.98,
        "ADAPT {:.4} should not lose to TA-DRRIP {:.4} beyond noise",
        adapt.weighted_speedup(),
        base.weighted_speedup()
    );
}

/// A divergence, pinned: §5.1 reports that SHiP predicts distant re-reference for about
/// 3 % of its insertions; here it does so for most of them. Three smoke 16-core mixes
/// measured 0.815, 0.831 and 0.845; the floor is the smallest rounded down to 0.05.
#[test]
fn ship_predicts_distant_for_most_insertions_where_the_paper_reports_3_percent() {
    let scale = ExperimentScale::Smoke;
    let config = scale.system_config(StudyKind::Cores16);
    let llc = config.llc.geometry;
    let fractions: Vec<f64> = generate_mixes(StudyKind::Cores16, 3, scale.seed())
        .iter()
        .map(|mix| {
            let traces = mix.trace_sources(llc.num_sets(), scale.seed());
            let ship = ShipPolicy::new(llc.num_sets(), llc.ways);
            let mut system = MultiCoreSystem::new(config.clone(), traces, ship);
            system.run(scale.instructions_per_core());
            system.llc().policy().distant_fraction()
        })
        .collect();
    for fraction in fractions {
        assert!(fraction >= 0.80, "distant share {fraction:.3}");
    }
}

#[test]
fn table2_cost_ordering_holds_for_the_paper_configuration() {
    // ADAPT costs more than TA-DRRIP but far less than EAF and SHiP at 24 cores / 16 MB.
    let adapt = adapt_cost_bytes(&AdaptConfig::paper(), 24);
    let tadrrip = 2 * 24u64;
    let eaf = 256 * 1024u64;
    let ship = (65.875 * 1024.0) as u64;
    assert!(tadrrip < adapt);
    assert!(adapt < ship);
    assert!(ship < eaf);
    assert!(
        (23_000..=26_000).contains(&adapt),
        "ADAPT ~24KB, got {adapt}"
    );
}

#[test]
fn monitoring_cost_is_a_small_fraction_of_the_llc_tag_array() {
    // Paper §3.3: the monitoring system sees ~1/25th of the accesses of the main tag array
    // (40 sets per app, 16 apps, 16K sets). Check the ratio for the paper geometry.
    let monitored_sets_total = 40.0 * 16.0;
    let llc_sets = 16.0 * 1024.0;
    let ratio = monitored_sets_total / llc_sets;
    assert!(ratio <= 1.0 / 25.0 + 1e-9, "ratio {ratio}");
}
