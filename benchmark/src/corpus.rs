//! `corpus16_roundtrip`: capture memory-intense 16-core mixes to `.atrc` v3, verify
//! them (load, map, checksum, decompress, decode), and replay them through the sweep
//! engine — `trace-io` used in both directions, beside the simulator it feeds.

use std::path::Path;
use std::time::Instant;

use cache_sim::config::SystemConfig;
use cache_sim::replacement::LlcReplacementPolicy;
use experiments::runner::{evaluate_prepared, warm_alone_cache, MixSource, ReplayConfig};
use experiments::{ExperimentScale, PolicyKind};
use trace_io::{Corpus, MappedTrace};
use workloads::{StudyKind, WorkloadMix};

use crate::host::TempDir;
use crate::inputs::{cell_order, intense_mixes, trace_seed};
use crate::pace::{Interleaved, Paced, COMPUTE};
use crate::report::Outcome;
use crate::sim::{
    drain, identical, minstr_per_s, parallel_efficiency, serial_cell, serialize, timed_setups,
    timed_sweep, trace_cells, Rounds, SERIALIZE_UNITS,
};
use crate::span::Tracer;
use crate::wrap::Bracket;
use crate::{stage, stats, Opts};

const MIXES: usize = 1;

/// Records captured per core. 16 × 1.1 M records decode to 282 MB, just past the
/// default 256 MiB replay arena, so replay streams from the mapping (the path corpora
/// larger than memory take) instead of decoding the mix up front.
const RECORDS_PER_CORE: u64 = 1_100_000;

const INSTRUCTIONS: u64 = 500_000;

/// Alternating (boxed, enum) evaluations behind `boxed_dispatch_share`.
const BOXED_VS_ENUM_PAIRS: usize = 5;

/// Four, so that each mix's cells fill both workers of a 2-thread host evenly.
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::TaDrrip,
    PolicyKind::Lru,
    PolicyKind::Ship,
    PolicyKind::AdaptBp32,
];

fn config() -> SystemConfig {
    ExperimentScale::Scaled.system_config(StudyKind::Cores16)
}

fn capture(dir: &Path, mixes: &[WorkloadMix], sets: usize, tseed: u64) -> (Corpus, f64) {
    let t = Instant::now();
    let corpus = Corpus::materialize_compressed(
        dir,
        "benchmark corpus16_roundtrip",
        mixes,
        sets,
        tseed,
        RECORDS_PER_CORE,
    )
    .expect("capturing into the run's scratch directory succeeds");
    (corpus, t.elapsed().as_secs_f64())
}

/// Map `path` afresh and decode every core's stream, one at a time; returns the records
/// decoded. One stream is held at a time (as `tracectl stats` would): materializing all
/// sixteen at once, as `decode_all_mapped` does, spends as long in page faults for its
/// 282 MB as in decoding, and that time varies threefold from one call to the next.
fn decode_file(path: &Path) -> Result<u64, trace_io::TraceError> {
    let mapped = MappedTrace::open(path)?;
    let mut records = 0u64;
    for core in 0..mapped.header().cores.len() {
        records += std::hint::black_box(mapped.decode_core(core)?).len() as u64;
    }
    Ok(records)
}

fn replay_sources(corpus: &Corpus) -> Vec<MixSource> {
    corpus
        .entries()
        .iter()
        .map(|e| {
            MixSource::replayed_with_id(corpus.path_for(e), e.mix_id)
                .expect("a corpus captured a moment ago opens")
        })
        .collect()
}

/// The untraced run: every end-to-end metric.
pub fn run(opts: &Opts, tmp: &TempDir) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let tseed = trace_seed(opts.seed);
    let sets = cfg.llc.geometry.num_sets();
    let per_mix = RECORDS_PER_CORE * cfg.num_cores as u64;

    let workers = opts.host.workers;
    let (mixes, setups) = timed_setups(&cfg, INSTRUCTIONS, tseed, workers, || intense_mixes(MIXES));
    out.metrics.set_paced("setup_s", &setups, |s| s);

    let cells = MIXES * POLICIES.len();
    // As in the live workloads: cell 0 is timed every round, a seeded cell is checked.
    let sampled = cell_order(cells, opts.seed, 4)[0];
    let (mut sweeps, mut cell, mut roundtrips) = (
        Paced::new(COMPUTE),
        Paced::new(COMPUTE),
        Paced::new(COMPUTE),
    );
    let mut serialisations = Interleaved::new(COMPUTE);
    let (mut moved, mut serialised) = (0u64, 0usize);
    let mut rounds = Rounds::new(opts.seconds);
    while let Some(round) = rounds.next() {
        // Capture, then verify: a fresh load and a fresh mapping per file, every block
        // checksummed, decompressed and decoded, one core's stream at a time.
        let dir = tmp.fresh("corpus");
        let (corpus, decoded) = roundtrips.time(workers, || {
            let (corpus, _) = capture(&dir, &mixes, sets, tseed);
            let mut decoded = 0u64;
            match Corpus::load(&dir) {
                Ok(loaded) => {
                    for entry in loaded.entries() {
                        let records = decode_file(&loaded.path_for(entry));
                        decoded += records.as_ref().copied().unwrap_or(0);
                        out.check(records.as_ref().is_ok_and(|&n| n == per_mix), || {
                            format!(
                                "mix {}: decoded {records:?}, captured {per_mix}",
                                entry.mix_id
                            )
                        });
                    }
                }
                Err(e) => out.check(false, || format!("loading the captured corpus: {e}")),
            }
            (corpus, decoded)
        });
        for entry in corpus.entries() {
            out.check(corpus.path_for(entry).is_file(), || {
                format!("capture of mix {} left no file", entry.mix_id)
            });
        }
        moved = per_mix * MIXES as u64 + decoded;

        // Replay through the production sweep engine.
        let sources = replay_sources(&corpus);
        let outcome = sweeps.time(workers, || {
            timed_sweep(&cfg, &sources, &POLICIES, INSTRUCTIONS, tseed).0
        });
        out.attempted += cells as u64;

        let replayed = cell.time(1, || {
            serial_cell(&cfg, &sources[0], POLICIES[0], INSTRUCTIONS, tseed)
        });
        for _ in 0..SERIALIZE_UNITS {
            serialised = serialisations.time(|| serialize(&outcome.evaluations, cfg.num_cores));
        }
        out.check(identical(&replayed, &outcome.evaluations[0]), || {
            "serial replay of cell 0 differs from the parallel sweep".to_string()
        });

        // Lossless capture: the replayed cell equals the live-generator cell wherever
        // the captured budget covered the run. Once per run is enough — inputs repeat.
        if round == 0 {
            let wraps = outcome.total_replay_wraps();
            if wraps == 0 {
                let (m, p) = (sampled / POLICIES.len(), sampled % POLICIES.len());
                let live = MixSource::synthetic(mixes[m].clone());
                let live_eval = serial_cell(&cfg, &live, POLICIES[p], INSTRUCTIONS, tseed);
                out.check(identical(&live_eval, &outcome.evaluations[sampled]), || {
                    format!("replayed cell {sampled} differs from the live generators")
                });
            } else {
                out.notes.push(format!(
                    "replay wrapped {wraps} time(s): the captured budget is shorter than the run, \
                     so replay == live is not checked"
                ));
            }
        }
    }
    out.metrics.set_paced("sim_minstr_per_s", &sweeps, |s| {
        minstr_per_s(cells, cfg.num_cores, INSTRUCTIONS, s)
    });
    out.metrics.set_paced("cell_ms", &cell, |s| s * 1e3);
    out.metrics
        .set_paced("trace_mrec_per_s", &roundtrips, |s| moved as f64 / s / 1e6);
    out.metrics
        .set_interleaved("result_us", &serialisations, |s| {
            s * 1e6 / serialised as f64
        });
    out
}

fn file_bytes(corpus: &Corpus) -> u64 {
    corpus
        .entries()
        .iter()
        .filter_map(|e| std::fs::metadata(corpus.path_for(e)).ok())
        .map(|m| m.len())
        .sum()
}

/// One TA-DRRIP cell with the policy behind `Box<dyn LlcReplacementPolicy>` and with
/// the enum the sweep engine uses, alternating; returns (boxed ms, enum ms) medians.
fn boxed_vs_enum(
    cfg: &SystemConfig,
    prepared: &experiments::runner::MaterializedMixStreams,
    tseed: u64,
) -> (f64, f64) {
    let policy = PolicyKind::TaDrrip;
    let slots = prepared.mix().thrashing_slots();
    let (mut boxed_ms, mut enum_ms) = (vec![], vec![]);
    for _ in 0..BOXED_VS_ENUM_PAIRS {
        let t = Instant::now();
        let boxed: Box<dyn LlcReplacementPolicy> = Box::new(policy.build_dispatch(cfg, &slots));
        std::hint::black_box(evaluate_prepared(
            cfg,
            prepared,
            policy,
            boxed,
            INSTRUCTIONS,
            tseed,
        ));
        boxed_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let direct = policy.build_dispatch(cfg, &slots);
        std::hint::black_box(evaluate_prepared(
            cfg,
            prepared,
            policy,
            direct,
            INSTRUCTIONS,
            tseed,
        ));
        enum_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (stats::median(&boxed_ms), stats::median(&enum_ms))
}

/// The traced run: mix 0 only; the per-layer metrics of `workloads`, `trace-io`,
/// `cache-sim`, the policies and `experiments`.
pub fn trace(opts: &Opts, tmp: &TempDir, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let bracket = Bracket::calibrate();
    let cfg = config();
    let tseed = trace_seed(opts.seed);
    let sets = cfg.llc.geometry.num_sets();
    let records = RECORDS_PER_CORE * cfg.num_cores as u64;

    let t = Instant::now();
    let mixes = intense_mixes(1);
    out.metrics
        .set("workloads.mixgen.ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    warm_alone_cache(&cfg, &mixes, INSTRUCTIONS, tseed);
    out.metrics
        .set("experiments.alone_warm.ms", t.elapsed().as_secs_f64() * 1e3);

    // Capture, and the same records drained from the generators alone: the difference
    // is what encoding, compressing and writing cost.
    let root = tracer.begin("capture + verify", "experiments", None, 900);
    let dir = tmp.fresh("corpus");
    let span = tracer.begin(
        "Corpus::materialize_compressed",
        "trace_io",
        Some(root),
        900,
    );
    let (corpus, capture_s) = capture(&dir, &mixes, sets, tseed);
    tracer.end(span);
    let mut generators = mixes[0].trace_sources(sets, tseed);
    let t = Instant::now();
    let drained = drain(&mut generators, RECORDS_PER_CORE as usize);
    let drain_s = t.elapsed().as_secs_f64();
    tracer.add_busy(
        "generators (measured apart)",
        "workloads",
        span,
        0,
        (drain_s * 1e9) as u64,
    );
    let m = &mut out.metrics;
    m.set("workloads.gen.records", drained as f64);
    m.set(
        "workloads.gen.ns_per_record",
        drain_s * 1e9 / drained as f64,
    );
    m.set("trace_io.capture.records", records as f64);
    m.set(
        "trace_io.capture.mrec_per_s",
        records as f64 / capture_s / 1e6,
    );
    m.set(
        "trace_io.capture.bytes_per_record",
        file_bytes(&corpus) as f64 / records as f64,
    );
    m.set(
        "trace_io.encode.ns_per_record",
        (capture_s - drain_s).max(0.0) * 1e9 / records as f64,
    );

    // Verify, one step at a time.
    let span = tracer.begin("Corpus::load", "trace_io", Some(root), 900);
    let t = Instant::now();
    let loaded = Corpus::load(&dir).expect("a corpus captured a moment ago loads");
    let load_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    let path = loaded.path_for(&loaded.entries()[0]);
    let span = tracer.begin("MappedTrace::open", "trace_io", Some(root), 900);
    let t = Instant::now();
    let mapped = MappedTrace::open(&path).expect("a trace captured a moment ago maps");
    let open_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    let mut errors = 0u64;
    let mut decode_pass = |name: &str, tracer: &mut Tracer| -> (u64, f64) {
        let span = tracer.begin(name, "trace_io", Some(root), 900);
        let t = Instant::now();
        let mut decoded = 0u64;
        for core in 0..cfg.num_cores {
            match mapped.decode_core(core) {
                Ok(stream) => decoded += std::hint::black_box(stream).len() as u64,
                Err(_) => errors += 1,
            }
        }
        let secs = t.elapsed().as_secs_f64();
        tracer.end(span);
        (decoded, secs)
    };
    let (first_records, first_s) = decode_pass("decode, first pass (checksums)", tracer);
    let (steady_records, steady_s) = decode_pass("decode, steady pass", tracer);
    tracer.end(root);
    out.check(
        first_records == records && steady_records == records,
        || format!("decoded {first_records} then {steady_records} records, captured {records}"),
    );
    let m = &mut out.metrics;
    m.set("trace_io.load.ms", load_s * 1e3);
    m.set("trace_io.open.ms_per_file", open_s * 1e3);
    m.set(
        "trace_io.decode.mrec_per_s",
        records as f64 / (load_s + open_s + first_s) / 1e6,
    );
    m.set(
        "trace_io.decode_first.ns_per_record",
        first_s * 1e9 / records as f64,
    );
    m.set(
        "trace_io.decode_steady.ns_per_record",
        steady_s * 1e9 / records as f64,
    );
    m.set(
        "trace_io.checksum_validations",
        mapped.checksum_validations() as f64,
    );
    m.set("trace_io.decode.errors", errors as f64);
    drop(mapped);

    // Replay: the traced pass over mix 0's cells, records now coming from trace-io.
    let source = replay_sources(&corpus).remove(0);
    let t = Instant::now();
    let prepared = source
        .materialize_with(sets, tseed, &ReplayConfig::default())
        .expect("a corpus captured a moment ago materializes");
    out.metrics.set(
        "experiments.materialize.ms_per_mix",
        t.elapsed().as_secs_f64() * 1e3,
    );
    let cells = trace_cells(
        tracer,
        &bracket,
        &cfg,
        &prepared,
        &POLICIES,
        INSTRUCTIONS,
        tseed,
        "trace_io",
        &mut out,
    );

    let efficiency = parallel_efficiency(
        &cfg,
        &source,
        &POLICIES,
        INSTRUCTIONS,
        tseed,
        cells.untraced_s,
        opts.host.workers,
    );
    out.metrics
        .set("experiments.sweep.parallel_efficiency", efficiency);
    out.metrics
        .set("trace_io.replay.wraps", prepared.replay_wraps() as f64);

    let (boxed_ms, enum_ms) = boxed_vs_enum(&cfg, &prepared, tseed);
    out.metrics.set(
        "llc_policies.tadrrip.boxed_dispatch_share",
        boxed_ms / enum_ms - 1.0,
    );
    out.notes.push(format!(
        "TA-DRRIP on the replay phase: {boxed_ms:.1} ms per cell behind Box<dyn>, {enum_ms:.1} ms through \
         the dispatch enum ({:+.2} %; medians of {BOXED_VS_ENUM_PAIRS} alternating pairs)",
        100.0 * (boxed_ms / enum_ms - 1.0)
    ));

    stage::drive(
        tracer,
        &cfg,
        prepared.sources(),
        PolicyKind::TaDrrip.build_dispatch(&cfg, &mixes[0].thrashing_slots()),
        "trace_io",
        &cells,
        &mut out,
    );
    out
}
