//! Cross-crate integration tests: workloads -> simulator -> policies -> metrics.
//!
//! These tests exercise the whole pipeline the way the experiment harness does, at smoke
//! scale, and check structural properties that must hold regardless of absolute numbers.

mod lone_system;

use adapt_llc::adapt::{AdaptConfig, AdaptPolicy, PriorityLevel};
use adapt_llc::experiments::policies::AnyPolicy;
use adapt_llc::experiments::runner::{
    evaluate_prepared, evaluate_prepared_system, MaterializedMixStreams, ReplayConfig,
};
use adapt_llc::experiments::{ExperimentScale, MixSource, PolicyKind};
use adapt_llc::sim::config::SystemConfig;
use adapt_llc::sim::system::MultiCoreSystem;
use adapt_llc::workloads::{generate_mixes, StudyKind};

fn smoke_mix(study: StudyKind) -> (SystemConfig, adapt_llc::workloads::WorkloadMix) {
    let scale = ExperimentScale::Smoke;
    let config = scale.system_config(study);
    let mix = generate_mixes(study, 1, scale.seed()).remove(0);
    (config, mix)
}

/// `mix`'s streams, materialized once for every policy a test evaluates on them.
fn prepare(
    config: &SystemConfig,
    mix: &adapt_llc::workloads::WorkloadMix,
    seed: u64,
) -> MaterializedMixStreams {
    let llc_sets = config.llc.geometry.num_sets();
    MixSource::synthetic(mix.clone())
        .materialize_with(llc_sets, seed, &ReplayConfig::default())
        .unwrap()
}

#[test]
fn sixteen_core_mix_runs_under_every_policy() {
    let (config, mix) = smoke_mix(StudyKind::Cores16);
    let policies = [
        PolicyKind::Lru,
        PolicyKind::TaDrrip,
        PolicyKind::Ship,
        PolicyKind::Eaf,
        PolicyKind::AdaptIns,
        PolicyKind::AdaptBp32,
    ];
    let prepared = prepare(&config, &mix, 3);
    for kind in policies {
        let built = kind.build_dispatch(&config, &mix.thrashing_slots());
        let eval = evaluate_prepared(&config, &prepared, kind, built, 30_000, 3);
        assert_eq!(eval.per_app.len(), 16, "{:?}", kind);
        assert!(eval.weighted_speedup() > 0.0, "{:?}", kind);
        assert!(
            eval.weighted_speedup() <= 16.5,
            "{:?} exceeded core count",
            kind
        );
        for app in &eval.per_app {
            assert!(app.ipc.is_finite() && app.ipc > 0.0);
            assert!(app.llc_mpki >= 0.0);
        }
    }
}

#[test]
fn adapt_bypasses_thrashing_applications_but_not_friendly_ones() {
    // Single-application check of the end-to-end classification path: a streaming app must
    // end up Least priority with bypasses; a small-working-set app must not be bypassed.
    let config = SystemConfig::tiny(2);
    let llc_sets = config.llc.geometry.num_sets();
    let friendly = adapt_llc::workloads::benchmark_by_name("gcc").unwrap();
    let thrasher = adapt_llc::workloads::benchmark_by_name("lbm").unwrap();
    let traces: Vec<Box<dyn adapt_llc::sim::trace::TraceSource>> = vec![
        Box::new(friendly.trace(0, llc_sets, 1)),
        Box::new(thrasher.trace(1, llc_sets, 1)),
    ];
    let policy = AdaptPolicy::new(AdaptConfig::paper(), &config.llc, 2);
    let mut system = MultiCoreSystem::new(config, traces, policy);
    let results = system.run(150_000);
    assert!(
        results.llc_global.intervals_completed > 0,
        "monitoring interval must complete"
    );
    let friendly_bypasses = results.per_core[0].llc.bypassed_fills;
    let thrasher_bypasses = results.per_core[1].llc.bypassed_fills;
    assert!(
        thrasher_bypasses > friendly_bypasses,
        "thrasher bypasses ({thrasher_bypasses}) must exceed friendly bypasses ({friendly_bypasses})"
    );
}

/// In a whole 16-core run, the LLC bypasses exactly the fills ADAPT_bp32 decides to
/// bypass, core by core, and nothing under ADAPT_ins or TA-DRRIP.
#[test]
fn the_llc_bypasses_exactly_the_fills_adapt_bypasses() {
    let (mut config, mix) = smoke_mix(StudyKind::Cores16);
    // The smoke interval (2048 misses over 64 sets, shared by 16 cores) is too short for
    // any application to reach 16 unique blocks per sampled set, so none is ever Least
    // priority; twice that, over four intervals, makes the mix's thrashers Least.
    config.interval_misses = 4096;
    let prepared = prepare(&config, &mix, 3);
    for kind in [
        PolicyKind::AdaptBp32,
        PolicyKind::AdaptIns,
        PolicyKind::TaDrrip,
    ] {
        let built = kind.build_dispatch(&config, &mix.thrashing_slots());
        let (_, system) = evaluate_prepared_system(&config, &prepared, kind, built, 100_000, 3);
        let llc = system.llc();
        let mut total = 0;
        for core in 0..16 {
            let bypassed = llc.core_stats(core).bypassed_fills;
            match llc.policy() {
                AnyPolicy::Adapt(adapt) => {
                    assert_eq!(
                        bypassed,
                        adapt.insertion_counts(core).0,
                        "{kind:?} core {core}"
                    )
                }
                _ => assert_eq!(kind, PolicyKind::TaDrrip),
            }
            total += bypassed;
        }
        match kind {
            PolicyKind::AdaptBp32 => assert!(total > 0, "a smoke mix has Least-priority apps"),
            _ => assert_eq!(total, 0, "{kind:?}"),
        }
    }
}

#[test]
fn adapt_policy_classifies_streaming_apps_as_least_priority_in_situ() {
    let mut config = SystemConfig::tiny(4);
    // Give each application enough accesses per monitored set within one interval for the
    // streaming cores to cross the Least-priority (>= associativity) threshold.
    config.interval_misses = 4096;
    let llc_sets = config.llc.geometry.num_sets();
    let names = ["gcc", "mesa", "lbm", "STRM"];
    let traces: Vec<Box<dyn adapt_llc::sim::trace::TraceSource>> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            Box::new(
                adapt_llc::workloads::benchmark_by_name(n)
                    .unwrap()
                    .trace(i, llc_sets, 2),
            ) as Box<dyn adapt_llc::sim::trace::TraceSource>
        })
        .collect();
    // Keep a probe configured identically to verify the classification logic produces the
    // same classes the policy would act on (the policy itself is consumed by the system).
    let policy = AdaptPolicy::new(AdaptConfig::paper(), &config.llc, 4);
    assert_eq!(
        policy.priority_of(0),
        PriorityLevel::Low,
        "pre-interval default is SRRIP-like"
    );
    let mut system = MultiCoreSystem::new(config, traces, policy);
    let results = system.run(150_000);
    // The streaming apps (cores 2 and 3) must have been bypassed at least once.
    assert!(results.per_core[2].llc.bypassed_fills + results.per_core[3].llc.bypassed_fills > 0);
}

#[test]
fn baseline_factory_policies_run_in_the_full_system() {
    let (config, mix) = smoke_mix(StudyKind::Cores4);
    let llc_sets = config.llc.geometry.num_sets();
    for kind in [
        PolicyKind::Lru,
        PolicyKind::TaDrrip,
        PolicyKind::Ship,
        PolicyKind::Eaf,
    ] {
        let traces = mix.trace_sources(llc_sets, 9);
        let policy = kind.build_dispatch(&config, &mix.thrashing_slots());
        let mut system = MultiCoreSystem::new(config.clone(), traces, policy);
        let results = system.run(20_000);
        assert_eq!(results.per_core.len(), 4);
        assert!(results.total_llc_demand_misses() > 0);
    }
}

#[test]
fn two_core_mix_replayed_from_a_trace_file_matches_the_live_run() {
    use adapt_llc::sim::trace::TraceSource;
    use adapt_llc::traces::{capture_benchmarks, open_all, TraceCaptureOptions};

    let config = SystemConfig::tiny(2);
    let llc_sets = config.llc.geometry.num_sets();
    let instructions = 30_000u64;

    // Capture a 2-core gcc+lbm mix with ample slack over the instruction budget.
    let path = std::env::temp_dir().join("e2e_two_core_replay.atrc");
    capture_benchmarks(
        &path,
        &["gcc", "lbm"],
        4,
        2 * instructions,
        None,
        TraceCaptureOptions::for_llc_sets(llc_sets),
    )
    .unwrap();

    let run = |traces: Vec<Box<dyn adapt_llc::sim::trace::TraceSource>>| {
        let policy = AdaptPolicy::new(AdaptConfig::paper(), &config.llc, 2);
        let mut system = MultiCoreSystem::new(config.clone(), traces, policy);
        system.run(instructions)
    };

    let live = run(vec![
        Box::new(
            adapt_llc::workloads::benchmark_by_name("gcc")
                .unwrap()
                .trace(0, llc_sets, 4),
        ),
        Box::new(
            adapt_llc::workloads::benchmark_by_name("lbm")
                .unwrap()
                .trace(1, llc_sets, 4),
        ),
    ]);
    let readers = open_all(&path).unwrap();
    assert_eq!(
        readers.iter().map(|r| r.label()).collect::<Vec<_>>(),
        ["gcc", "lbm"]
    );
    let replayed = run(readers
        .into_iter()
        .map(|r| Box::new(r) as Box<dyn adapt_llc::sim::trace::TraceSource>)
        .collect());

    for (a, b) in live.per_core.iter().zip(&replayed.per_core) {
        assert_eq!(
            a.ipc(),
            b.ipc(),
            "core {} IPC differs under replay",
            a.core_id
        );
        assert_eq!(
            a.llc_mpki(),
            b.llc_mpki(),
            "core {} LLC MPKI differs under replay",
            a.core_id
        );
    }
    assert_eq!(
        live.total_llc_demand_misses(),
        replayed.total_llc_demand_misses(),
        "replay must reproduce the exact miss stream"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn parallel_sweep_is_deterministic_across_invocations() {
    let (config, _) = smoke_mix(StudyKind::Cores8);
    let mixes = generate_mixes(StudyKind::Cores8, 2, 5);
    let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
    let run = || {
        lone_system::grid(&config, &mixes, &policies, 25_000, 5)
            .iter()
            .map(|e| (e.mix_id, e.policy_label.clone(), e.weighted_speedup()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn weighted_speedup_never_exceeds_core_count_by_much() {
    for study in [StudyKind::Cores4, StudyKind::Cores8] {
        let (config, mix) = smoke_mix(study);
        let eval = lone_system::evaluate(&config, &mix, PolicyKind::TaDrrip, 25_000, 1);
        let n = study.num_cores() as f64;
        assert!(
            eval.weighted_speedup() <= n * 1.05,
            "{study:?}: {}",
            eval.weighted_speedup()
        );
        assert!(eval.metrics.harmonic_mean_normalized <= 1.05);
    }
}
