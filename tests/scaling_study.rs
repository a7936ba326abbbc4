//! End-to-end tests of the many-core scaling study and the cycle-accounted bank
//! contention model: a 64-core run completes through the corpus sweep engine with
//! per-bank occupancy/stall metrics, the parallel grid stays bit-identical to lone
//! systems under contention, per-core stall attribution sums exactly to the global
//! accounting (at 4 and 128 cores), blocking cores never fill the scaled MSHRs or
//! write-back buffers, zero-contention configurations reproduce the seed's flat-latency
//! banking exactly, and the alone-run normalization follows the memory system and seed
//! actually evaluated.

mod lone_system;

use cache_sim::addr::BlockAddr;
use cache_sim::config::SystemConfig;
use cache_sim::llc::SharedLlc;
use experiments::experiment::{self, Experiment, Mixes, Sources};
use experiments::report::{render, Layout};
use experiments::runner::MixEvaluation;
use experiments::{ExperimentScale, MemSystem, PolicyKind};
use llc_policies::SrripPolicy;
use lone_system::assert_sweep_matches_lone_runs;
use workloads::{generate_mixes, StudyKind};

const INSTRUCTIONS: u64 = 20_000;

#[test]
fn sixty_four_core_run_completes_with_bank_metrics_and_engine_bit_identity() {
    // The acceptance bar: a 64-core run under the contention model completes via the
    // scaling study's path, reports per-bank occupancy/stall metrics, and the parallel
    // grid reproduces lone systems bit-for-bit.
    let scale = ExperimentScale::Smoke;
    let study = StudyKind::Cores64;
    let cfg = scale.system_config(study);
    assert_eq!(cfg.num_cores, 64);
    assert!(
        !cfg.llc.contention.is_flat(),
        "scaling configs are contended"
    );

    let mixes = generate_mixes(study, 1, scale.seed());
    let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
    let grid = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, scale.seed());
    assert_sweep_matches_lone_runs(&cfg, &mixes, &policies, INSTRUCTIONS, scale.seed(), &grid);
    // Per-bank occupancy/stall metrics are present and the banks saw traffic.
    for eval in &grid {
        assert_eq!(eval.per_app.len(), 64);
        assert_eq!(eval.llc_banks.len(), cfg.llc.banks);
        assert!(eval.llc_banks.iter().any(|b| b.requests > 0));
        assert!((0.0..=1.0).contains(&eval.bank_stall_share()));
        assert!((0.0..=1.0).contains(&eval.fairness()));
    }
}

/// The registry's scaling study at smoke scale, one mix per core count.
fn scaling_study(cores: &[StudyKind]) -> Vec<experiments::report::Table> {
    let exp = Experiment {
        studies: cores.to_vec(),
        mixes: Mixes::Exactly(1),
        ..experiment::find("scale").unwrap()
    };
    experiment::run(&exp, ExperimentScale::Smoke, &Sources::Generated).unwrap()
}

#[test]
fn scaling_study_renders_throughput_fairness_and_bank_stalls_at_64_cores() {
    let tables = scaling_study(&[StudyKind::Cores64]);
    let banks = ExperimentScale::Smoke
        .system_config(StudyKind::Cores64)
        .llc
        .banks;
    let (policies, per_bank) = (&tables[1], &tables[2]);
    assert!(policies.title.starts_with("== 64 cores"));
    assert_eq!(per_bank.rows.len(), banks);
    assert!(policies.rows.len() >= 2);
    assert!(policies
        .rows
        .iter()
        .all(|r| r[1].parse::<f64>().unwrap() > 0.0));
    let text = render(&tables, Layout::Spaced);
    assert!(text.contains("64 cores"));
    assert!(text.contains("bank-stall share"));
    assert!(text.contains("Per-bank occupancy/stalls"));
}

#[test]
fn scaling_study_is_deterministic_across_repeated_runs() {
    let run = || scaling_study(&[StudyKind::Cores32]);
    assert_eq!(run(), run());
}

/// Per-core stall attribution must sum exactly to the global accounting: LLC bank
/// queue/admission and MSHR stalls against `LlcGlobalStats`, DRAM queue+admission
/// against `DramStats.queue_cycles` (whose delay is the sum of both phases).
fn assert_stall_conservation(evals: &[MixEvaluation], num_cores: usize) {
    for e in evals {
        assert_eq!(e.core_stalls.len(), num_cores);
        let llc_queue: u64 = e.core_stalls.iter().map(|c| c.llc_queue_cycles).sum();
        let llc_admission: u64 = e.core_stalls.iter().map(|c| c.llc_admission_cycles).sum();
        let mshr: u64 = e.core_stalls.iter().map(|c| c.mshr_stall_cycles).sum();
        assert_eq!(
            llc_queue, e.llc_global.bank_queue_cycles,
            "policy {:?}: LLC bank queue cycles must be conserved",
            e.policy
        );
        assert_eq!(
            llc_admission, e.llc_global.bank_admission_stall_cycles,
            "policy {:?}: LLC admission stalls must be conserved",
            e.policy
        );
        assert_eq!(
            mshr, e.llc_global.mshr_stall_cycles,
            "policy {:?}: MSHR stalls must be conserved",
            e.policy
        );
        // Per-bank and per-core views aggregate the same underlying cycles.
        let bank_stalls: u64 = e.llc_banks.iter().map(|b| b.stall_cycles()).sum();
        assert_eq!(
            bank_stalls,
            llc_queue + llc_admission,
            "per-bank and per-core LLC stall views must agree"
        );
    }
}

#[test]
fn per_core_stall_attribution_is_conserved_at_4_cores_serial_and_parallel() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.scaling_config_memsys(4, MemSystem::FcfsContended);
    let mixes = generate_mixes(StudyKind::Cores4, 1, scale.seed());
    let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
    let grid = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, scale.seed());
    assert_stall_conservation(&grid, 4);
    assert_sweep_matches_lone_runs(&cfg, &mixes, &policies, INSTRUCTIONS, scale.seed(), &grid);
    // A contended 4-core run actually attributes something.
    assert!(
        grid.iter()
            .any(|e| e.core_stalls.iter().any(|c| c.total() > 0)),
        "contended runs must attribute stall cycles to cores"
    );
}

#[test]
fn per_core_stall_attribution_is_conserved_at_128_cores_serial_and_parallel() {
    // The 128-core wall: the widest point the memsys study reports, under the
    // realistic FR-FCFS + NUCA memory system so every attribution path is exercised
    // (row classes, NUCA wire delay, MSHR pressure, DRAM queues).
    let scale = ExperimentScale::Smoke;
    let cfg = scale.scaling_config_memsys(128, experiments::scale::MemSystem::FrFcfsNuca);
    assert_eq!(cfg.num_cores, 128);
    assert!(cfg.dram.row_model.is_some());
    let mixes = generate_mixes(StudyKind::Cores128, 1, scale.seed());
    let policies = [PolicyKind::TaDrrip];
    let grid = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, scale.seed());
    assert_stall_conservation(&grid, 128);
    assert_sweep_matches_lone_runs(&cfg, &mixes, &policies, INSTRUCTIONS, scale.seed(), &grid);
    // The realistic memory system classified rows and accumulated NUCA cycles.
    for e in &grid {
        assert!(
            e.llc_global.nuca_cycles > 0,
            "mesh NUCA must add wire latency"
        );
    }
}

#[test]
fn blocking_cores_never_fill_the_scaled_mshrs_or_write_back_buffers() {
    // A core stalls for all but at most 32 cycles of a miss (the core model's ROB
    // bound), so it keeps few misses and write-backs in flight: far fewer than the 16
    // MSHRs and 8 write-back entries per core of these machines (Table 3's 256 and 128
    // at 16 cores). Unlike the paper's out-of-order cores, they never fill a window.
    let scale = ExperimentScale::Scaled;
    let machines = [
        (StudyKind::Cores16, scale.system_config(StudyKind::Cores16)),
        (
            StudyKind::Cores128,
            scale.scaling_config_memsys(128, MemSystem::FcfsContended),
        ),
        (
            StudyKind::Cores128,
            scale.scaling_config_memsys(128, MemSystem::FrFcfsNuca),
        ),
    ];
    for (study, cfg) in machines {
        let mix = &generate_mixes(study, 1, scale.seed())[0];
        let results =
            lone_system::lone_run(&cfg, mix, PolicyKind::TaDrrip, INSTRUCTIONS, scale.seed());
        let llc = &results.llc_global;
        assert!(llc.total_demand_misses > 0 && llc.dirty_evictions > 0);
        assert_eq!(
            (llc.mshr_full_events, llc.wb_stall_cycles),
            (0, 0),
            "{} cores, {} MSHRs, {} write-back entries",
            cfg.num_cores,
            cfg.llc.mshr_entries,
            cfg.llc.wb_entries
        );
    }
}

#[test]
fn zero_contention_config_reproduces_the_flat_model_latencies_exactly() {
    // End-to-end regression: drive the shared LLC with a deterministic access burst
    // under the default (flat) contention configuration and hold every latency against
    // an independent reimplementation of the seed's `busy_until` bank arithmetic.
    let cfg = SystemConfig::tiny(4);
    assert!(cfg.llc.contention.is_flat());
    let sets = cfg.llc.geometry.num_sets();
    let ways = cfg.llc.geometry.ways;
    let banks = cfg.llc.banks;
    let hit_latency = cfg.llc.latency;
    let busy = cfg.llc.bank_busy_cycles;
    let mut llc = SharedLlc::new(cfg.llc, 4, 1_000_000, SrripPolicy::new(sets, ways));

    let mut busy_until = vec![0u64; banks];
    let mut x = 0x2545f4914f6cdd1du64;
    let mut now = 0u64;
    for i in 0..5_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        now += x % 7;
        let block = BlockAddr(x % 4096);
        let lookup = llc.access((i % 4) as usize, 0, block, true, false, now);
        // Reference: flat single-port bank with an unbounded queue.
        let bank = block.set_index(sets) & (banks - 1);
        let delay = busy_until[bank].saturating_sub(now);
        busy_until[bank] = now + delay + busy;
        assert_eq!(
            lookup.latency,
            hit_latency + delay,
            "access {i}: zero-contention latency diverged from the flat model"
        );
        if !lookup.hit {
            llc.fill((i % 4) as usize, 0, block, false, now);
        }
    }
    // Flat banking never refuses admission.
    assert_eq!(llc.global_stats().bank_admission_stall_cycles, 0);
    assert!(llc
        .bank_stats()
        .iter()
        .all(|b| b.admission_stall_cycles == 0));
}

#[test]
fn alone_normalization_follows_the_memory_system_and_the_seed() {
    // The alone-run memo is process-wide, so what ran earlier must not leak into a later
    // evaluation: the same mix under a different memory system, or a different seed, is
    // normalized against alone runs on exactly that configuration and seed. Mix 1 holds
    // `art`, whose generator draws on the seed, so the seed leg is not vacuous.
    let scale = ExperimentScale::Smoke;
    let study = StudyKind::Cores16;
    let mix = &generate_mixes(study, 2, scale.seed())[1];
    let legs = [
        (MemSystem::Flat, scale.seed()),
        (MemSystem::FrFcfsNuca, scale.seed()),
        (MemSystem::FrFcfsNuca, scale.seed() + 1),
    ];
    let alone: Vec<Vec<f64>> = legs
        .iter()
        .map(|&(memsys, seed)| {
            let cfg = scale.scaling_config_memsys(study.num_cores(), memsys);
            let geometry = cfg.llc.geometry;
            let eval = lone_system::evaluate(&cfg, mix, PolicyKind::TaDrrip, INSTRUCTIONS, seed);
            for (app, spec) in eval.per_app.iter().zip(mix.specs()) {
                let direct = cache_sim::single::run_alone(
                    &cfg,
                    Box::new(spec.trace(0, geometry.num_sets(), seed)),
                    llc_policies::TaDrripPolicy::new(geometry.num_sets(), geometry.ways, 1),
                    INSTRUCTIONS,
                );
                assert_eq!(
                    app.ipc_alone,
                    direct.ipc(),
                    "{} under {} with seed {seed}",
                    app.name,
                    memsys.label()
                );
            }
            eval.per_app.iter().map(|app| app.ipc_alone).collect()
        })
        .collect();
    assert_ne!(alone[0], alone[1], "the memory system must matter");
    assert_ne!(alone[1], alone[2], "the seed must matter");
}
