//! End-to-end tests of the corpus-backed sweep engine: materialize a corpus on disk,
//! sweep it, and hold the results against lone systems over the live generators — the
//! zero-copy replay (constant-memory arenas, blocks decoded by their reader) must be
//! invisible in results at every budget and in the profiled logical story, and a corrupt
//! block must come back as a typed error or not matter.

mod lone_system;

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use cache_sim::trace::{arena_current_bytes, arena_peak_bytes, reset_arena_peak};
use experiments::runner::{
    evaluate_prepared, synthetic_capture_budget, warm_alone_cache, MixEvaluation, MixSource,
    ReplayConfig,
};
use experiments::{ExperimentScale, PolicyKind};
use lone_system::assert_sweep_matches_lone_runs;
use sim_obs::{Drained, EventKind};
use trace_io::{Corpus, TraceError};
use workloads::{generate_mixes, StudyKind};

const INSTRUCTIONS: u64 = 20_000;
const SEED: u64 = 1;

fn policies() -> [PolicyKind; 3] {
    [PolicyKind::TaDrrip, PolicyKind::AdaptBp32, PolicyKind::Eaf]
}

/// Arena accounting and the sim-obs recorder are process-global, and every sweep feeds
/// both; each test that runs one serializes on this lock so concurrent test threads
/// cannot pollute another test's peaks or profile.
fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn assert_evaluations_identical(a: &[MixEvaluation], b: &[MixEvaluation]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.mix_id, y.mix_id);
        assert_eq!(x.policy, y.policy);
        assert_eq!(x.weighted_speedup(), y.weighted_speedup());
        assert_eq!(x.final_cycle, y.final_cycle);
        for (p, q) in x.per_app.iter().zip(&y.per_app) {
            assert_eq!(p.ipc, q.ipc, "{}: IPC differs", p.name);
            assert_eq!(p.llc_mpki, q.llc_mpki, "{}: LLC MPKI differs", p.name);
            assert_eq!(p.l2_mpki, q.l2_mpki, "{}: L2 MPKI differs", p.name);
        }
    }
}

#[test]
fn corpus_sweep_reproduces_the_serial_synthetic_path_bit_for_bit() {
    let _guard = global_state_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mixes = generate_mixes(StudyKind::Cores4, 3, scale.seed());
    let policies = policies();

    let dir = std::env::temp_dir().join("e2e_corpus_sweep");
    std::fs::remove_dir_all(&dir).ok();
    let (corpus, _) = Corpus::materialize(
        &dir,
        "e2e",
        &mixes,
        cfg.llc.geometry.num_sets(),
        SEED,
        synthetic_capture_budget(INSTRUCTIONS),
    )
    .unwrap();

    let grid = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED);
    let from_disk = lone_system::corpus_grid(
        &cfg,
        &corpus,
        &policies,
        INSTRUCTIONS,
        &ReplayConfig::default(),
    )
    .unwrap()
    .evaluations;

    // Both engines, in deterministic (mix, policy) order, against lone systems.
    assert_sweep_matches_lone_runs(&cfg, &mixes, &policies, INSTRUCTIONS, SEED, &grid);
    assert_sweep_matches_lone_runs(&cfg, &mixes, &policies, INSTRUCTIONS, SEED, &from_disk);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn constant_memory_sweep_stays_under_the_arena_cap_and_matches_the_buffered_path() {
    // The zero-copy acceptance bar: a corpus 10x larger than the arena budget must
    // sweep four policies with peak replay-arena bytes — decode buffers, decompression
    // scratch and the event memo of the shared private stages — under the cap, while
    // producing results bit-identical to a sweep whose budget lets the memos keep the
    // whole run.
    let _guard = global_state_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let llc_sets = cfg.llc.geometry.num_sets();
    let mixes = generate_mixes(StudyKind::Cores4, 1, scale.seed());
    let budget: u64 = 1 << 20;
    // 163 840 records per core x 4 cores x `size_of::<MemAccess>()` (24 B): ~15 MiB
    // decoded, 15x the 1 MiB budget, of which the four cores' decode buffers are
    // charged 768 KiB (two 4096-record blocks each) and the memo pool gets the rest.
    let accesses_per_core = 10 * budget / (4 * 16);

    let dir = std::env::temp_dir().join("e2e_constant_memory_sweep");
    std::fs::remove_dir_all(&dir).ok();
    let (corpus, _) =
        Corpus::materialize(&dir, "cm", &mixes, llc_sets, SEED, accesses_per_core).unwrap();
    let entry_path = corpus.path_for(&corpus.entries()[0]);
    let decoded_bytes = trace_io::read_header(&entry_path).unwrap().total_records()
        * std::mem::size_of::<cache_sim::trace::MemAccess>() as u64;
    assert!(
        decoded_bytes >= 10 * budget,
        "corpus must be at least 10x the arena budget (got {decoded_bytes} vs {budget})"
    );

    let policies = [
        PolicyKind::TaDrrip,
        PolicyKind::Lru,
        PolicyKind::Ship,
        PolicyKind::AdaptBp32,
    ];
    let memo_covers_the_run = ReplayConfig::default();
    let baseline =
        lone_system::corpus_grid(&cfg, &corpus, &policies, INSTRUCTIONS, &memo_covers_the_run)
            .unwrap();

    let constant_memory = ReplayConfig {
        arena_budget_bytes: budget,
    };
    reset_arena_peak();
    let capped =
        lone_system::corpus_grid(&cfg, &corpus, &policies, INSTRUCTIONS, &constant_memory).unwrap();
    let peak = arena_peak_bytes();
    assert!(peak > 0, "the sweep must actually have used replay arenas");
    assert!(
        peak <= budget,
        "peak arena bytes {peak} exceeded the {budget}-byte budget"
    );
    assert_evaluations_identical(&baseline.evaluations, &capped.evaluations);
    assert_eq!(baseline.mix_wraps, capped.mix_wraps);

    // The event memo is in that accounting: a resident mix that has served the four
    // policies holds it, registered, until it is dropped.
    let idle = arena_current_bytes();
    let prepared = MixSource::replayed_with_id(&entry_path, corpus.entries()[0].mix_id)
        .unwrap()
        .materialize_with(llc_sets, SEED, &constant_memory)
        .unwrap();
    for (policy, swept) in policies.iter().zip(&capped.evaluations) {
        let built = policy.build_dispatch(&cfg, &prepared.mix().thrashing_slots());
        let resident = evaluate_prepared(&cfg, &prepared, *policy, built, INSTRUCTIONS, SEED);
        assert_evaluations_identical(std::slice::from_ref(swept), &[resident]);
    }
    let memo: u64 = prepared.stage_usage().iter().map(|u| u.memo_bytes).sum();
    assert!(memo > 0, "the policies shared no memoized event");
    assert!(
        arena_current_bytes() >= idle + memo,
        "the {memo}-byte event memo is not registered"
    );
    drop(prepared);
    assert_eq!(arena_current_bytes(), idle);
    std::fs::remove_dir_all(&dir).ok();
}

/// The logical event multiset of a profiled sweep: sweep spans and simulator samples,
/// keyed with context. Worker ids, timestamps and scheduling are excluded — they
/// legitimately differ across worker counts — and so are the zero-copy block spans: a
/// read-ahead decodes on whichever thread serves it, and may decode a block past the
/// run's end.
fn logical_events(
    drained: &Drained,
) -> BTreeMap<(String, &'static str, &'static str, String), usize> {
    let mut set = BTreeMap::new();
    for thread in &drained.threads {
        for event in &thread.events {
            let keep = match event.kind {
                EventKind::Span => event.cat == "sweep",
                EventKind::Sample => event.cat == "sim",
                _ => false,
            };
            if !keep {
                continue;
            }
            let kind = format!("{:?}", event.kind);
            let ctx = drained.context(event.ctx).to_string();
            *set.entry((kind, event.cat, event.name, ctx)).or_insert(0) += 1;
        }
    }
    set
}

#[test]
fn replay_is_deterministic_across_worker_count() {
    // Serial or parallel workers (and with them, which thread decodes a stage's next
    // block) is a pure scheduling choice: both must produce identical per-core
    // IPC/MPKI, wraps and the identical multiset of sweep spans and samples.
    // `tests/reference_identity.rs` bounds what the decodes draw
    // (`run_ahead_overfetch_is_bounded_per_core`).
    let _guard = global_state_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let llc_sets = cfg.llc.geometry.num_sets();
    let mixes = generate_mixes(StudyKind::Cores4, 1, scale.seed());

    let dir = std::env::temp_dir().join("e2e_replay_determinism");
    std::fs::remove_dir_all(&dir).ok();
    let (corpus, _) = Corpus::materialize(
        &dir,
        "det",
        &mixes,
        llc_sets,
        SEED,
        synthetic_capture_budget(INSTRUCTIONS),
    )
    .unwrap();
    let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
    // The alone-run memo is process-wide: warm it before recording, or the first
    // configuration alone carries `alone_run` spans unless another test got there first.
    warm_alone_cache(&cfg, &mixes, INSTRUCTIONS, SEED);

    // Less than the decode buffers' charge: the memos keep nothing, so no read-ahead
    // runs and every evaluation decodes the blocks it reads on its own thread.
    let replay = ReplayConfig {
        arena_budget_bytes: 64 << 10,
    };
    let run = |workers: usize| {
        sim_obs::reset();
        sim_obs::enable();
        let outcome = rayon::with_worker_limit(workers, || {
            lone_system::corpus_grid(&cfg, &corpus, &policies, INSTRUCTIONS, &replay)
        })
        .unwrap();
        sim_obs::disable();
        let drained = sim_obs::drain();
        let events = || drained.threads.iter().flat_map(|t| &t.events);
        let fills = events().filter(|e| e.name == "zero_copy_batch").count();
        let blocks: f64 = events()
            .filter(|e| matches!(e.kind, EventKind::Counter) && e.name == "decode.blocks")
            .map(|e| e.value)
            .sum();
        // One fill decodes one block: the spans count what the mappings decoded.
        assert_eq!(fills as f64, blocks, "{workers} workers");
        (outcome, logical_events(&drained), fills)
    };
    let (serial, serial_events, serial_fills) = run(1);
    let (parallel, parallel_events, _) = run(4);
    assert!(serial_fills > 0, "replay must emit block spans");
    assert_evaluations_identical(&serial.evaluations, &parallel.evaluations);
    assert_eq!(serial.mix_wraps, parallel.mix_wraps, "wrap accounting");
    assert_eq!(serial_events, parallel_events, "logical span multiset");
    std::fs::remove_dir_all(&dir).ok();
}

/// Payload offset and first record index of every block of a v3 file, per core, walked
/// as `docs/atrc-format.md` lays a chunk out: core id, payload length, record count
/// (bit 31 marks a compressed payload) and checksum, four little-endian `u32`s, then
/// the payload.
fn blocks_per_core(path: &std::path::Path) -> Vec<Vec<(usize, u64)>> {
    let bytes = std::fs::read(path).unwrap();
    let header = trace_io::read_header(path).unwrap();
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut blocks = vec![Vec::new(); header.cores.len()];
    let mut first_record = vec![0u64; header.cores.len()];
    let mut at = header.preamble_len() as usize;
    while at < header.data_end as usize {
        let (core, payload_len) = (word(at) as usize, word(at + 4) as usize);
        blocks[core].push((at + 16, first_record[core]));
        first_record[core] += u64::from(word(at + 8) & !(1 << 31));
        at += 16 + payload_len;
    }
    blocks
}

#[test]
fn a_corrupt_block_is_a_typed_error_where_the_run_reads_it_and_invisible_where_it_does_not() {
    // The failure contract of a sweep: a typed error or the bit-identical answer, at
    // every budget. A flipped payload byte in a block a cell replays fails that block's
    // checksum in the fill that decodes it, deep inside the infallible trace source;
    // the sweep hands it back as an error naming the core and the offset, whether the
    // memos keep the run (default budget) or nothing (each cell then decodes on its
    // own). A flip in a block no cell ever asks for changes nothing: replay verifies
    // what it reads, and the whole file is `tracectl stats`' to check.
    let _guard = global_state_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let llc_sets = cfg.llc.geometry.num_sets();
    let mixes = generate_mixes(StudyKind::Cores4, 1, scale.seed());
    let policies = policies();
    let dir = std::env::temp_dir().join("e2e_corrupt_block_sweep");
    std::fs::remove_dir_all(&dir).ok();
    let accesses = synthetic_capture_budget(INSTRUCTIONS);
    let (corpus, _) = Corpus::materialize(&dir, "cb", &mixes, llc_sets, SEED, accesses).unwrap();
    let path = corpus.path_for(&corpus.entries()[0]);
    let clean_bytes = std::fs::read(&path).unwrap();
    let blocks = blocks_per_core(&path);

    let budgets = [
        ReplayConfig::default(),
        ReplayConfig {
            arena_budget_bytes: 1 << 10,
        },
    ];
    let sweep = |replay| lone_system::corpus_grid(&cfg, &corpus, &policies, INSTRUCTIONS, replay);
    let report = |outcome: &experiments::runner::SweepOutcome| {
        format!("{:?} {:?}", outcome.evaluations, outcome.mix_wraps)
    };
    let clean: Vec<String> = budgets
        .iter()
        .map(|replay| report(&sweep(replay).unwrap()))
        .collect();
    assert_eq!(clean[0], clean[1]);

    // How far the furthest policy read each stream (and less than a chunk further).
    let resident = MixSource::replayed_with_id(&path, corpus.entries()[0].mix_id)
        .unwrap()
        .materialize_with(llc_sets, SEED, &budgets[0])
        .unwrap();
    for policy in policies {
        let built = policy.build_dispatch(&cfg, &resident.mix().thrashing_slots());
        evaluate_prepared(&cfg, &resident, policy, built, INSTRUCTIONS, SEED);
    }
    let drawn: Vec<u64> = resident.stage_usage().iter().map(|u| u.records).collect();
    drop(resident);

    // Replaced, not rewritten in place: a prefetch still in flight may hold the old
    // file's mapping.
    let flip = |at: usize| {
        let mut bytes = clean_bytes.clone();
        bytes[at] ^= 0xff;
        let staged = path.with_extension("flipped");
        std::fs::write(&staged, bytes).unwrap();
        std::fs::rename(&staged, &path).unwrap();
    };

    // The first block of core 1: every run reads it.
    flip(blocks[1][0].0 + 3);
    for replay in &budgets {
        let err = sweep(replay).expect_err("a block the run reads is corrupt");
        let text = err.to_string();
        assert!(
            matches!(err, TraceError::Corrupt(_))
                && text.contains("checksum mismatch in core 1's stream at offset 0"),
            "budget {}: {text}",
            replay.arena_budget_bytes
        );
    }

    // The last block of a core whose run stops a whole block short of it: replay
    // decodes one block at a time, so no cell decodes it, at either budget.
    let (core, last) = (0..cfg.num_cores)
        .map(|core| (core, &blocks[core]))
        .find(|&(core, blocks)| drawn[core] < blocks[blocks.len() - 2].1)
        .map(|(core, blocks)| (core, *blocks.last().unwrap()))
        .unwrap_or_else(|| panic!("every core reads into its last two blocks: {drawn:?}"));
    flip(last.0 + 3);
    for (replay, clean) in budgets.iter().zip(&clean) {
        let outcome = sweep(replay).unwrap_or_else(|e| panic!("core {core}: {e}"));
        assert_eq!(&report(&outcome), clean, "core {core}");
    }
    // The flip is there all the same, for the check that reads everything.
    assert!(matches!(
        trace_io::decode_all(&path),
        Err(TraceError::ChecksumMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_sweep_is_deterministic_across_runs() {
    let _guard = global_state_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mixes = generate_mixes(StudyKind::Cores4, 2, scale.seed());
    let policies = policies();
    let a = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED);
    let b = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.mix_id, y.mix_id);
        assert_eq!(x.policy, y.policy);
        assert_eq!(x.weighted_speedup(), y.weighted_speedup());
    }
}

#[test]
fn corpus_sweep_rejects_wrong_geometry_and_tampered_manifests() {
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let llc_sets = cfg.llc.geometry.num_sets();
    let mixes = generate_mixes(StudyKind::Cores4, 1, scale.seed());

    let dir = std::env::temp_dir().join("e2e_corpus_geometry");
    std::fs::remove_dir_all(&dir).ok();
    let (corpus, _) = Corpus::materialize(&dir, "e2e", &mixes, llc_sets * 2, SEED, 500).unwrap();
    let err = lone_system::corpus_grid(
        &cfg,
        &corpus,
        &policies(),
        INSTRUCTIONS,
        &ReplayConfig::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, TraceError::Manifest(_)),
        "geometry mismatch must surface as a manifest error, got {err}"
    );

    // A manifest whose benchmarks disagree with the trace files is rejected at load.
    let manifest = dir.join(trace_io::corpus::MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, text.replace("mix 0", "mix 7")).ok();
    // mix id change alone is fine (ids are free-form) — but swapping the benchmark list
    // must fail.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let tampered: String = text
        .lines()
        .map(|l| {
            if l.starts_with("mix ") {
                let mut parts: Vec<&str> = l.split_whitespace().collect();
                parts[3] = "gcc,gcc,gcc,gcc";
                parts.join(" ") + "\n"
            } else {
                l.to_string() + "\n"
            }
        })
        .collect();
    std::fs::write(&manifest, tampered).unwrap();
    assert!(matches!(Corpus::load(&dir), Err(TraceError::Manifest(_))));
    std::fs::remove_dir_all(&dir).ok();
}
