//! Replay-equivalence tests for external trace import, plus the corpus acceptance
//! sweep.
//!
//! The import pipeline is only trustworthy if a stream that takes the long way around —
//! generated in-process → exported to a foreign layout → transcoded back through
//! `trace_io::import` into `.atrc` v3 → swept — produces *bit-identical* per-core
//! IPC/MPKI to evaluating the generators directly. Same bar as the capture↔replay
//! equivalence the native path is held to.

mod lone_system;

use std::path::PathBuf;

use adapt_llc::sim::trace::MemAccess;
use experiments::runner::{evaluate_prepared, MixSource, ReplayConfig};
use experiments::{ExperimentScale, PolicyKind};
use lone_system::{assert_evaluation_matches, assert_sweep_matches_lone_runs, lone_run};
use trace_io::import::{export_champsim, import_to_file, ImportFormat, ImportOptions};
use trace_io::{Corpus, TraceCaptureOptions};
use workloads::{generate_mixes, StudyKind, WorkloadMix};

const INSTRUCTIONS: u64 = 20_000;
const SEED: u64 = 1;

fn policies() -> [PolicyKind; 2] {
    [PolicyKind::TaDrrip, PolicyKind::AdaptBp32]
}

/// A [`TraceSource`] wrapper that counts how many records the simulation pulls.
struct CountingSource {
    inner: Box<dyn adapt_llc::sim::trace::TraceSource>,
    pulled: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl adapt_llc::sim::trace::TraceSource for CountingSource {
    fn next_access(&mut self) -> MemAccess {
        self.pulled
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.next_access()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Per-core record counts an `INSTRUCTIONS`-long run of `mix` actually consumes, maxed
/// over `policies`. Re-execution makes this exceed the per-core instruction target —
/// a core that finishes early keeps pulling accesses until the slowest core is done —
/// so the exact count is measured rather than estimated: the captured prefix must cover
/// the whole run or the replay would wrap and diverge from the live generators.
fn consumption(
    cfg: &adapt_llc::sim::config::SystemConfig,
    mix: &WorkloadMix,
    policies: &[PolicyKind],
    llc_sets: usize,
    seed: u64,
) -> Vec<u64> {
    let mut max_pulled = vec![0u64; mix.benchmarks.len()];
    for &policy in policies {
        let counters: Vec<std::sync::Arc<std::sync::atomic::AtomicU64>> = (0..mix.benchmarks.len())
            .map(|_| std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)))
            .collect();
        let sources: Vec<Box<dyn adapt_llc::sim::trace::TraceSource>> = mix
            .trace_sources(llc_sets, seed)
            .into_iter()
            .zip(&counters)
            .map(|(inner, pulled)| {
                Box::new(CountingSource {
                    inner,
                    pulled: pulled.clone(),
                }) as Box<dyn adapt_llc::sim::trace::TraceSource>
            })
            .collect();
        let built = policy.build_dispatch(cfg, &mix.thrashing_slots());
        let mut system = adapt_llc::sim::system::MultiCoreSystem::new(cfg.clone(), sources, built);
        system.run(INSTRUCTIONS);
        for (m, c) in max_pulled.iter_mut().zip(&counters) {
            *m = (*m).max(c.load(std::sync::atomic::Ordering::Relaxed));
        }
    }
    max_pulled
}

/// Capture exactly the prefix of one core's generator stream that the measured run
/// consumes (plus a small safety margin).
fn capture_stream(
    mix: &WorkloadMix,
    core: usize,
    records: u64,
    llc_sets: usize,
    seed: u64,
) -> Vec<MemAccess> {
    let mut sources = mix.trace_sources(llc_sets, seed);
    let source = &mut sources[core];
    source.reset();
    (0..records + 16).map(|_| source.next_access()).collect()
}

fn import_options(mix: &WorkloadMix, llc_sets: usize) -> ImportOptions {
    ImportOptions {
        capture: TraceCaptureOptions::for_llc_sets(llc_sets),
        core_labels: mix.benchmarks.clone(),
        ..Default::default()
    }
}

#[test]
fn champsim_import_sweeps_bit_identical_to_the_direct_path() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let llc_sets = cfg.llc.geometry.num_sets();
    let mix = generate_mixes(StudyKind::Cores4, 1, scale.seed()).remove(0);

    let dir = std::env::temp_dir().join("import_equiv_champsim");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Generated stream → ChampSim-style binary files (one per core), sized to the
    // measured per-core consumption so the replay never wraps.
    let needed = consumption(&cfg, &mix, &policies(), llc_sets, SEED);
    let streams: Vec<Vec<MemAccess>> = needed
        .iter()
        .enumerate()
        .map(|(core, &records)| capture_stream(&mix, core, records, llc_sets, SEED))
        .collect();
    let inputs: Vec<PathBuf> = streams
        .iter()
        .enumerate()
        .map(|(core, records)| {
            let p = dir.join(format!("core{core}.champsim"));
            std::fs::write(&p, export_champsim(records).unwrap()).unwrap();
            p
        })
        .collect();

    // ChampSim → .atrc v3. The transcode must be lossless before any sweep claims.
    let out = dir.join("imported.atrc");
    let opts = import_options(&mix, llc_sets);
    let stats = import_to_file(&inputs, ImportFormat::ChampSim, &out, &opts).unwrap();
    assert_eq!(trace_io::read_header(&out).unwrap().version, 3);
    assert_eq!(trace_io::decode_all(&out).unwrap(), streams);
    assert_eq!(
        stats.instructions(),
        streams
            .iter()
            .flatten()
            .map(|r| r.instructions())
            .sum::<u64>()
    );

    // Sweep: per-core IPC/MPKI bit-identical to evaluating the live generators.
    let prepared = MixSource::replayed_with_id(&out, mix.id)
        .unwrap()
        .materialize_with(llc_sets, SEED, &ReplayConfig::default())
        .unwrap();
    for policy in policies() {
        let direct = lone_run(&cfg, &mix, policy, INSTRUCTIONS, SEED);
        let built = policy.build_dispatch(&cfg, &mix.thrashing_slots());
        let imported = evaluate_prepared(&cfg, &prepared, policy, built, INSTRUCTIONS, SEED);
        assert_evaluation_matches(&imported, &direct, "champsim");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn csv_import_sweeps_bit_identical_to_the_direct_path() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let llc_sets = cfg.llc.geometry.num_sets();
    let mix = generate_mixes(StudyKind::Cores4, 2, scale.seed()).remove(1);

    let dir = std::env::temp_dir().join("import_equiv_csv");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Generated stream → the documented CSV text format, cores interleaved.
    let needed = consumption(&cfg, &mix, &policies(), llc_sets, SEED);
    let streams: Vec<Vec<MemAccess>> = needed
        .iter()
        .enumerate()
        .map(|(core, &records)| capture_stream(&mix, core, records, llc_sets, SEED))
        .collect();
    let mut csv = String::from("core,addr,pc,rw,non_mem\n");
    let longest = streams.iter().map(Vec::len).max().unwrap();
    for i in 0..longest {
        for (core, records) in streams.iter().enumerate() {
            if let Some(r) = records.get(i) {
                csv.push_str(&format!(
                    "{core},0x{:x},0x{:x},{},{}\n",
                    r.addr,
                    r.pc,
                    if r.is_write { 'W' } else { 'R' },
                    r.non_mem_instrs
                ));
            }
        }
    }
    let input = dir.join("mix.csv");
    std::fs::write(&input, csv).unwrap();

    let out = dir.join("imported.atrc");
    let opts = import_options(&mix, llc_sets);
    import_to_file(&[input], ImportFormat::Csv, &out, &opts).unwrap();
    assert_eq!(trace_io::decode_all(&out).unwrap(), streams);

    let prepared = MixSource::replayed_with_id(&out, mix.id)
        .unwrap()
        .materialize_with(llc_sets, SEED, &ReplayConfig::default())
        .unwrap();
    for policy in policies() {
        let direct = lone_run(&cfg, &mix, policy, INSTRUCTIONS, SEED);
        let built = policy.build_dispatch(&cfg, &mix.thrashing_slots());
        let imported = evaluate_prepared(&cfg, &prepared, policy, built, INSTRUCTIONS, SEED);
        assert_evaluation_matches(&imported, &direct, "csv");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance sweep for the written format: a materialized corpus (v3, compressed
/// blocks) must sweep bit-identically to lone systems over the live generators, through
/// the parallel grid engine, without wrapping. That legacy v2 bytes decode to the same records
/// is held at the record level by the golden `tests/data/v2-chunked.atrc` and the
/// assembler-fed legs of `tests/atrc_fuzz.rs`.
#[test]
fn corpus_sweeps_bit_identical_to_the_serial_synthetic_reference() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let llc_sets = cfg.llc.geometry.num_sets();
    let mixes = generate_mixes(StudyKind::Cores4, 2, scale.seed());
    let policies = policies();
    let budget = experiments::runner::synthetic_capture_budget(INSTRUCTIONS);

    let dir = std::env::temp_dir().join("import_equiv_corpus");
    std::fs::remove_dir_all(&dir).ok();
    let (corpus, _) = Corpus::materialize(&dir, "v3", &mixes, llc_sets, SEED, budget).unwrap();
    for entry in corpus.entries() {
        let header = trace_io::read_header(corpus.path_for(entry)).unwrap();
        assert!(header.version == 3 && header.compressed && header.checksums);
    }

    // The corpus through the parallel grid engine vs a lone system per (mix, policy).
    let replay = ReplayConfig::default();
    let from_corpus =
        lone_system::corpus_grid(&cfg, &corpus, &policies, INSTRUCTIONS, &replay).unwrap();
    assert_eq!(
        from_corpus.total_replay_wraps(),
        0,
        "budget must cover the run"
    );
    let evaluations = &from_corpus.evaluations;
    assert_sweep_matches_lone_runs(&cfg, &mixes, &policies, INSTRUCTIONS, SEED, evaluations);
    std::fs::remove_dir_all(&dir).ok();
}
