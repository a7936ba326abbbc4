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

use cache_sim::trace::{replay_fault_from, ArenaReplayTrace, BatchSource, MemAccess, TraceSource};
use sim_fault::{FaultKind, FaultPlan};
use trace_io::{
    capture_mix, decode_all, read_header, Corpus, MappedStreamDecoder, MappedTrace,
    TraceCaptureOptions, TraceError, TraceWriter,
};
use workloads::{generate_mixes, StudyKind, WorkloadMix};

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

/// Blocks of 16 over 2000 records: 125 chunks per core, far more than a capture
/// worker's channel holds, so a write error finds the workers mid-stream.
const MIX_RECORDS: u64 = 2000;
const MIX_OPTS: TraceCaptureOptions = TraceCaptureOptions {
    records_per_block: 16,
    llc_sets: 64,
};

fn mix() -> WorkloadMix {
    generate_mixes(StudyKind::Cores4, 1, 7).remove(0)
}

/// Capture a 4-core mix through the parallel capture path.
fn capture_mix_wall(path: &Path) -> std::io::Result<()> {
    capture_mix(path, &mix(), 7, MIX_RECORDS, Some("fault-wall"), MIX_OPTS).map(|_| ())
}

/// The same mix pushed into a writer one record per core, round robin, on this thread:
/// the single-threaded reference for [`capture_mix_wall`].
fn push_mix_wall(path: &Path) -> std::io::Result<()> {
    let mut sources = mix().trace_sources(64, 7);
    let mut w = TraceWriter::with_options(path, sources.len(), "fault-wall", MIX_OPTS)?;
    for (core, source) in sources.iter_mut().enumerate() {
        w.begin_core(core, &source.label())?;
    }
    for _ in 0..MIX_RECORDS {
        for (core, source) in sources.iter_mut().enumerate() {
            w.push(core, source.next_access())?;
        }
    }
    w.finish().map(|_| ())
}

/// Names of this process's live capture workers (read from `/proc`, so empty where
/// there is none), once they are gone or 10 s have passed. A joined worker has run to
/// its end, but its thread can stay listed a moment longer while the kernel tears it
/// down; one still blocked on a send never leaves.
fn capture_workers() -> Vec<String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return Vec::new();
        };
        let workers: Vec<String> = tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .filter(|name| name.starts_with("atrc-capture"))
            .collect();
        if workers.is_empty() || std::time::Instant::now() > deadline {
            return workers;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
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
    let mut decoder = MappedStreamDecoder::new(trace.clone(), 0).expect("decoder");
    guard.install(FaultPlan::new(5).always("replay.decode", FaultKind::Io));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let mut arena = Vec::new();
        decoder.fill(&mut arena);
    }))
    .expect_err("an always-firing decode fault must unwind");
    let fault = replay_fault_from(payload.as_ref()).expect("typed ReplayFault payload");
    assert!(fault.message.contains("injected"), "{}", fault.message);
    guard.clear();

    // The same corruption surfaced through the stack the runner builds — the decoder
    // under the arena cursor — must carry the identical typed payload.
    let decoder = MappedStreamDecoder::new(trace, 0).expect("decoder");
    guard.install(FaultPlan::new(5).always("replay.decode", FaultKind::Io));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        ArenaReplayTrace::new(Box::new(decoder), Arc::default()).next_access();
    }))
    .expect_err("a decode fault under the arena cursor must unwind");
    let fault = replay_fault_from(payload.as_ref()).expect("typed ReplayFault via the cursor");
    assert!(fault.message.contains("injected"), "{}", fault.message);
    guard.clear();
}

#[test]
fn identical_plans_replay_identical_fault_schedules() {
    let guard = sim_fault::exclusive();
    let plans = [
        FaultPlan::new(9)
            .rule("atrc.write", FaultKind::TornWrite, 60, 0)
            .rule("atrc.sync", FaultKind::Io, 300, 0),
        // Rare enough that some captures reach `finish` and fail at the sync.
        FaultPlan::new(3)
            .rule("atrc.write", FaultKind::DiskFull, 2, 0)
            .rule("atrc.sync", FaultKind::Io, 1000, 0),
    ];
    type Capture = fn(&Path) -> std::io::Result<()>;
    let run = |plan: &FaultPlan, capture: Capture, name: &str| {
        let path = tmp(name);
        guard.install(plan.clone());
        let outcome = capture(&path).map_err(|e| e.to_string());
        let fires = (
            sim_fault::fired_count("atrc.write"),
            sim_fault::fired_count("atrc.sync"),
        );
        guard.clear();
        let bytes = std::fs::read(&path).unwrap_or_default();
        std::fs::remove_file(&path).ok();
        (outcome, fires, bytes)
    };
    for plan in &plans {
        let a = run(plan, capture, "det_a");
        let b = run(plan, capture, "det_b");
        assert_eq!(
            a, b,
            "the same plan must produce the same outcome, fire counts, and bytes"
        );
        // `capture_mix` writes on the calling thread, chunk by chunk in the order a
        // single-threaded round-robin push does, so however many workers encoded the
        // chunks, the plan sees the same hits: same outcome, fire counts and bytes.
        let parallel = run(plan, capture_mix_wall, "det_mix");
        assert!(parallel.1 != (0, 0), "the plan never fired on capture_mix");
        assert_eq!(parallel, run(plan, capture_mix_wall, "det_mix_again"));
        assert_eq!(
            parallel,
            run(plan, push_mix_wall, "det_mix_push"),
            "capture_mix under a fault plan differs from the single-threaded push"
        );
    }
}

#[test]
fn a_write_error_stops_the_capture_workers_and_is_returned_typed() {
    let guard = sim_fault::exclusive();
    guard.clear();
    let clean = tmp("stop_ref");
    capture_mix_wall(&clean).expect("fault-free capture");
    let clean_bytes = std::fs::read(&clean).unwrap();
    std::fs::remove_file(&clean).ok();
    let plans = [
        (
            "torn",
            FaultPlan::new(1).rule("atrc.write", FaultKind::TornWrite, 1000, 1),
        ),
        (
            "io",
            FaultPlan::new(2).rule("atrc.write", FaultKind::Io, 20, 1),
        ),
        ("sync", FaultPlan::new(3).always("atrc.sync", FaultKind::Io)),
    ];
    for (name, plan) in plans {
        let path = tmp(&format!("stop_{name}"));
        guard.install(plan);
        let (tx, rx) = std::sync::mpsc::channel();
        let capture = {
            let path = path.clone();
            std::thread::spawn(move || tx.send(capture_mix_wall(&path).map_err(|e| e.to_string())))
        };
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{name}: the capture hung or panicked"));
        let sent = capture.join().expect("the capture thread ends");
        sent.expect("the result was received");
        guard.clear();
        let err = result.expect_err("an always-firing fault fails the capture");
        assert!(err.contains("injected"), "{name}: typed error, got {err}");
        assert_eq!(
            capture_workers(),
            Vec::<String>::new(),
            "{name}: workers left"
        );
        if name == "sync" {
            // Everything was written before the sync failed.
            assert_eq!(std::fs::read(&path).unwrap(), clean_bytes, "{name}");
        } else {
            assert!(read_header(&path).is_err(), "{name}: the file has a footer");
        }
        std::fs::remove_file(&path).ok();
    }
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
