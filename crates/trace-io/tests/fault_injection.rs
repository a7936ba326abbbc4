//! Fault-injection wall for the `.atrc` pipeline.
//!
//! Invariant under every seeded fault schedule: an operation either fails with a
//! typed error (`io::Error` from capture, [`TraceError`] from decode, a typed
//! `ReplayFault` unwind from the infallible replay path) or its observable result
//! is bit-identical to the fault-free reference. Silently-wrong bytes are the one
//! outcome that must be impossible.
//!
//! Every test installs a process-global fault plan, so this wall lives in its own
//! integration-test binary and each test holds [`sim_fault::exclusive`] for its
//! whole body.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cache_sim::trace::{replay_fault_from, BatchSource, MemAccess};
use sim_fault::{FaultKind, FaultPlan};
use trace_io::{
    decode_all, read_header, Corpus, MappedStreamDecoder, MappedTrace, PrefetchingSource,
    TraceCaptureOptions, TraceError, TraceWriter,
};
use workloads::{generate_mixes, StudyKind};

const CORES: usize = 2;
const RECORDS: u64 = 200;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trace_io_fault_{name}.atrc"))
}

/// Capture the fixed reference workload at `path`. Every byte of the output is a
/// deterministic function of the inputs, so two clean captures are bit-identical.
fn capture(path: &Path) -> std::io::Result<()> {
    let opts = TraceCaptureOptions {
        records_per_block: 16,
        ..Default::default()
    };
    let mut w = TraceWriter::with_options(path, CORES, "fault-wall", opts)?;
    for i in 0..RECORDS {
        for core in 0..CORES {
            w.push(
                core,
                MemAccess {
                    addr: (core as u64) << 40 | (i * 64),
                    pc: 0x400 + (i % 13) * 4,
                    is_write: i % 4 == 0,
                    non_mem_instrs: (i % 7) as u32,
                },
            )?;
        }
    }
    w.finish().map(|_| ())
}

fn reference(guard: &sim_fault::FaultGuard, name: &str) -> (PathBuf, Vec<u8>, Vec<Vec<MemAccess>>) {
    guard.clear();
    let clean = tmp(name);
    capture(&clean).expect("fault-free capture");
    let bytes = std::fs::read(&clean).expect("read reference bytes");
    let records = decode_all(&clean).expect("fault-free decode");
    (clean, bytes, records)
}

#[test]
fn faulted_captures_fail_typed_or_produce_reference_bytes() {
    let guard = sim_fault::exclusive();
    let (_clean, ref_bytes, ref_records) = reference(&guard, "write_ref");
    let mut failed = 0;
    for seed in 1u64..=10 {
        let path = tmp(&format!("write_{seed}"));
        std::fs::remove_file(&path).ok();
        guard.install(
            FaultPlan::new(seed)
                .rule("atrc.write", FaultKind::TornWrite, 20, 0)
                .rule("atrc.write", FaultKind::DiskFull, 10, 0)
                .rule("atrc.sync", FaultKind::Io, 100, 0),
        );
        let result = capture(&path);
        guard.clear();
        match result {
            Ok(()) => {
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    ref_bytes,
                    "seed {seed}: a capture that reports success must be bit-identical"
                );
            }
            Err(e) => {
                failed += 1;
                assert!(
                    e.to_string().contains("injected"),
                    "seed {seed}: typed error, got {e}"
                );
                // Whatever the fault left on disk must never read back as a
                // *different* valid trace: either the reader rejects it, or (fsync
                // failed after the full write landed) it decodes identically.
                match decode_all(&path) {
                    Err(_) => {}
                    Ok(records) => assert_eq!(
                        records, ref_records,
                        "seed {seed}: failed capture read back as a different trace"
                    ),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(
        failed > 0,
        "the schedule matrix never fired a capture fault"
    );
}

#[test]
fn faulted_reads_fail_typed_or_decode_identically() {
    let guard = sim_fault::exclusive();
    let (clean, _bytes, ref_records) = reference(&guard, "read_ref");
    let mut failed = 0;
    for seed in 1u64..=10 {
        guard.install(
            FaultPlan::new(seed)
                .rule("mmap.open", FaultKind::Io, 300, 0)
                .rule("replay.decode", FaultKind::Io, 30, 0),
        );
        let result = decode_all(&clean);
        guard.clear();
        match result {
            Ok(records) => assert_eq!(
                records, ref_records,
                "seed {seed}: decode succeeded but differs from reference"
            ),
            Err(e) => {
                failed += 1;
                // Typed by construction (TraceError); the message names the site.
                assert!(
                    e.to_string().contains("injected"),
                    "seed {seed}: decode failed for a non-injected reason: {e}"
                );
            }
        }
    }
    assert!(failed > 0, "the schedule matrix never fired a read fault");
}

#[test]
fn decode_faults_unwind_as_typed_replay_faults_through_fill() {
    let guard = sim_fault::exclusive();
    let (clean, _bytes, _ref) = reference(&guard, "typed_ref");
    let trace = Arc::new(MappedTrace::open(&clean).expect("open clean trace"));

    // Direct decoder path.
    let mut decoder = MappedStreamDecoder::new(trace.clone(), 0, 64).expect("decoder");
    guard.install(FaultPlan::new(5).always("replay.decode", FaultKind::Io));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let mut arena = Vec::new();
        decoder.fill(&mut arena);
    }))
    .expect_err("an always-firing decode fault must unwind");
    let fault = replay_fault_from(payload.as_ref()).expect("typed ReplayFault payload");
    assert!(fault.message.contains("injected"), "{}", fault.message);
    guard.clear();

    // The same corruption surfaced through the double-buffered prefetch path must
    // carry the identical typed payload.
    let decoder = MappedStreamDecoder::new(trace, 0, 64).expect("decoder");
    guard.install(FaultPlan::new(5).always("replay.decode", FaultKind::Io));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let mut source = PrefetchingSource::new(decoder);
        let mut arena = Vec::new();
        source.fill(&mut arena);
    }))
    .expect_err("prefetched decode fault must unwind");
    let fault = replay_fault_from(payload.as_ref()).expect("typed ReplayFault via prefetch");
    assert!(fault.message.contains("injected"), "{}", fault.message);
    guard.clear();
}

#[test]
fn identical_plans_replay_identical_fault_schedules() {
    let guard = sim_fault::exclusive();
    let plan = FaultPlan::new(9)
        .rule("atrc.write", FaultKind::TornWrite, 60, 0)
        .rule("atrc.sync", FaultKind::Io, 300, 0);
    let run = |path: &Path| {
        guard.install(plan.clone());
        let outcome = capture(path).map_err(|e| e.to_string());
        let fires = (
            sim_fault::fired_count("atrc.write"),
            sim_fault::fired_count("atrc.sync"),
        );
        guard.clear();
        let bytes = std::fs::read(path).unwrap_or_default();
        (outcome, fires, bytes)
    };
    let a = run(&tmp("det_a"));
    let b = run(&tmp("det_b"));
    assert_eq!(
        a, b,
        "the same plan must produce the same outcome, fire counts, and bytes"
    );
    std::fs::remove_file(tmp("det_a")).ok();
    std::fs::remove_file(tmp("det_b")).ok();
}

#[test]
fn interrupted_rematerialization_never_loads_under_the_old_manifest() {
    // Re-materializing over an existing corpus rewrites `mixNNNN.atrc` in place. If that
    // dies part way, the old manifest (seed 1) must not be left describing files that
    // now hold seed-2 records: labels and geometry still match, so `load` would accept
    // it and every sweep would normalize against alone runs of the wrong seed.
    let guard = sim_fault::exclusive();
    guard.clear();
    let dir = std::env::temp_dir().join("trace_io_fault_rematerialize");
    let mixes = generate_mixes(StudyKind::Cores4, 2, 1);
    let mut failed = 0;
    let mut overwritten_before_failing = 0;
    for plan_seed in 1u64..=10 {
        std::fs::remove_dir_all(&dir).ok();
        Corpus::materialize(&dir, "c", &mixes, 64, 1, 300).expect("fault-free corpus");
        guard.install(FaultPlan::new(plan_seed).rule("atrc.sync", FaultKind::Io, 500, 1));
        let result = Corpus::materialize(&dir, "c", &mixes, 64, 2, 300);
        guard.clear();
        match result {
            Ok(_) => assert_eq!(Corpus::load(&dir).unwrap().meta().seed, 2),
            Err(e) => {
                failed += 1;
                assert!(e.to_string().contains("injected"), "seed {plan_seed}: {e}");
                let first = read_header(dir.join("mix0000.atrc")).expect("synced or not, whole");
                overwritten_before_failing += u32::from(first.label.ends_with("seed2"));
                let loaded = Corpus::load(&dir);
                assert!(
                    matches!(loaded, Err(TraceError::Manifest(_))),
                    "seed {plan_seed}: a half re-materialized corpus loaded as {:?}",
                    loaded.map(|c| c.meta().clone())
                );
            }
        }
    }
    assert!(failed > 0, "the schedule matrix never fired a sync fault");
    assert!(
        overwritten_before_failing > 0,
        "no schedule failed after a trace file had already been replaced"
    );
    // A clean third run repairs the directory.
    Corpus::materialize(&dir, "c", &mixes, 64, 2, 300).expect("fault-free corpus");
    assert_eq!(Corpus::load(&dir).unwrap().meta().seed, 2);
    std::fs::remove_dir_all(&dir).ok();
}
