//! The chaos wall: deterministic fault schedules against a live daemon.
//!
//! The contract under test is the robustness invariant from `docs/robustness.md`:
//! under any injected fault schedule, every request either succeeds with bytes
//! bit-identical to the fault-free reference, or fails with a typed error (correct
//! HTTP status, JSON body) — never silently wrong bytes — and the daemon stays
//! live (`/healthz` answers, quarantined corpora readmit via `/revalidate`,
//! kill-and-restart under progress faults resumes bit-identically once faults
//! clear).
//!
//! Every test holds [`sim_fault::exclusive`] for its whole body — the fault plan
//! is process-global, so fault-installing tests serialize and clean up behind
//! themselves even on panic.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use common::{materialize_corpus, reference_cells_with, test_dir, SCALE};
use experiments::runner::ReplayConfig;
use experiments::PolicyKind;
use sim_fault::{FaultKind, FaultPlan};
use sim_obs::JsonValue;
use sweep_serve::client;
use sweep_serve::json::json_str;
use sweep_serve::memo::{MemoStore, ProgressHeader, ProgressWriter};
use sweep_serve::registry::LoadedCorpus;
use sweep_serve::{Client, Server, ServerConfig, ServerHandle};
use trace_io::corpus::{render_manifest, MANIFEST_FILE};
use trace_io::Corpus;
use workloads::{StudyKind, WorkloadMix};

/// A replay config whose arena budget forces every mix to stream from the mapping,
/// so the `replay.decode` fault site sits on the request path (not only startup).
fn streamed_replay() -> ReplayConfig {
    ReplayConfig {
        arena_budget_bytes: 1,
    }
}

fn spawn_with(
    corpora: Vec<(String, std::path::PathBuf)>,
    workers: usize,
    replay: ReplayConfig,
) -> ServerHandle {
    Server::spawn(ServerConfig {
        workers,
        queue_capacity: 64,
        scale: SCALE,
        replay,
        corpora,
        ..ServerConfig::default()
    })
    .expect("spawn chaos test server")
}

fn eval_body(corpus: &str, policy: &str, mix_id: usize) -> String {
    format!(
        "{{\"corpus\":{},\"policy\":{},\"mix_id\":{mix_id}}}",
        json_str(corpus),
        json_str(policy)
    )
}

/// `true` if the (parsed) body is the typed quarantine 503 payload.
fn is_quarantined_body(body: &str) -> bool {
    let Ok(v) = JsonValue::parse(body) else {
        return false;
    };
    v.get("quarantined") == Some(&JsonValue::Bool(true)) && v.get("error").is_some()
}

fn health_list<'a>(stats: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    stats
        .get("health")
        .and_then(|h| h.get(key))
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("/stats is missing health.{key}"))
}

#[test]
fn replay_corruption_quarantines_and_revalidate_readmits() {
    let guard = sim_fault::exclusive();
    let dir = test_dir("chaos_quarantine");
    materialize_corpus(&dir, "chaos-q", 1);
    let replay = streamed_replay();
    let reference = reference_cells_with(&dir, &[PolicyKind::TaDrrip], &replay);
    let server = spawn_with(vec![("c".to_string(), dir.clone())], 2, replay);
    let addr = server.addr();

    // Every decode faults: the first evaluation unwinds as a typed ReplayFault,
    // the worker quarantines the corpus, and the request answers the typed 503.
    guard.install(FaultPlan::new(7).always("replay.decode", FaultKind::Io));
    let body = eval_body("c", "TA-DRRIP", 0);
    let resp = client::post(addr, "/eval", &body, None).expect("eval roundtrip");
    assert_eq!(
        resp.status, 503,
        "corrupted replay answers 503: {}",
        resp.body
    );
    assert!(is_quarantined_body(&resp.body), "typed body: {}", resp.body);

    // Follow-up requests refuse fast at the routing layer — no repeated panics — and
    // `/sweep` refuses the quarantined corpus with the same bytes as `/eval`.
    let resp = client::post(addr, "/eval", &body, None).expect("eval roundtrip");
    assert_eq!(resp.status, 503);
    assert!(is_quarantined_body(&resp.body));
    let sweep = client::post(addr, "/sweep", "{\"corpus\":\"c\"}", None).expect("sweep roundtrip");
    assert_eq!(sweep.status, 503, "quarantined sweep: {}", sweep.body);
    assert_eq!(sweep.body, resp.body, "/sweep and /eval refuse alike");

    // The daemon is alive and flags the quarantine in /stats.
    let stats = client::get(addr, "/stats").expect("stats");
    assert_eq!(stats.status, 200);
    let stats = JsonValue::parse(&stats.body).expect("stats parses");
    let quarantined = health_list(&stats, "quarantined");
    assert_eq!(quarantined.len(), 1, "one corpus quarantined");
    assert_eq!(
        quarantined[0].get("corpus").and_then(JsonValue::as_str),
        Some("c")
    );
    assert_eq!(client::get(addr, "/healthz").expect("healthz").status, 200);

    // Faults clear → /revalidate reloads from disk and readmits, and the corpus
    // serves bit-identical bytes again without a restart.
    guard.clear();
    let resp = client::post(addr, "/revalidate", "{\"corpus\":\"c\"}", None).expect("revalidate");
    assert_eq!(resp.status, 200, "readmitted: {}", resp.body);
    assert!(resp.body.contains("\"status\":\"readmitted\""));
    let resp = client::post(addr, "/eval", &body, None).expect("eval roundtrip");
    assert_eq!(resp.status, 200, "readmitted corpus serves: {}", resp.body);
    assert_eq!(
        resp.body, reference[0].2,
        "served bytes match the reference"
    );
    let stats = client::get(addr, "/stats").expect("stats");
    let stats = JsonValue::parse(&stats.body).expect("stats parses");
    assert!(health_list(&stats, "quarantined").is_empty());
    server.stop();
}

/// Two cold cells of one mix share the mix's private stages, so a decode fault under
/// whichever request generates events reaches the other through the stage. Both must
/// fail the typed way — a 503 with the quarantine body, never a 500 from a poisoned
/// stage lock — the corpus is quarantined once, and `/revalidate` readmits it with
/// fresh stages that serve the reference bytes.
#[test]
fn concurrent_cold_requests_on_one_mix_fail_typed_through_the_shared_stage() {
    let guard = sim_fault::exclusive();
    let dir = test_dir("chaos_shared_stage");
    materialize_corpus(&dir, "chaos-s", 1);
    // Streams from the mapping (the decoded mix is 5 MiB) and leaves the event memos a
    // pool, so the requests meet in shared stages rather than on stages of their own.
    let replay = ReplayConfig {
        arena_budget_bytes: 2 << 20,
    };
    let policies = [PolicyKind::TaDrrip, PolicyKind::Lru];
    let reference = reference_cells_with(&dir, &policies, &replay);
    let server = spawn_with(vec![("c".to_string(), dir.clone())], 2, replay);
    let addr = server.addr();
    let bodies: Vec<String> = policies
        .iter()
        .map(|p| eval_body("c", &p.label(), 0))
        .collect();
    let both_at_once = || -> Vec<client::HttpResponse> {
        let start = std::sync::Barrier::new(bodies.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .iter()
                .map(|body| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        client::post(addr, "/eval", body, None).expect("eval roundtrip")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };

    guard.install(FaultPlan::new(11).always("replay.decode", FaultKind::Io));
    for resp in both_at_once() {
        assert_eq!(resp.status, 503, "typed failure, not a 500: {}", resp.body);
        assert!(is_quarantined_body(&resp.body), "typed body: {}", resp.body);
    }
    let stats = client::get(addr, "/stats").expect("stats");
    let stats = JsonValue::parse(&stats.body).expect("stats parses");
    assert_eq!(health_list(&stats, "quarantined").len(), 1);
    // The listing reads the failed stages' usage without tripping over the fault.
    assert_eq!(client::get(addr, "/corpora").expect("corpora").status, 200);

    guard.clear();
    let resp = client::post(addr, "/revalidate", "{\"corpus\":\"c\"}", None).expect("revalidate");
    assert_eq!(resp.status, 200, "readmitted: {}", resp.body);
    for (resp, cell) in both_at_once().iter().zip(&reference) {
        assert_eq!(resp.status, 200, "readmitted corpus serves: {}", resp.body);
        assert_eq!(
            resp.body, cell.2,
            "{}: served bytes match `repro sweep`",
            cell.0
        );
    }
    server.stop();
}

#[test]
fn sweep_answers_429_when_workers_never_drain_the_queue() {
    let guard = sim_fault::exclusive();
    let dir = test_dir("chaos_saturated");
    materialize_corpus(&dir, "chaos-s", 1);
    let server = Server::spawn(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        scale: SCALE,
        corpora: vec![("c".to_string(), dir)],
        sweep_push_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .expect("spawn saturated server");
    let addr = server.addr();

    // The lone worker stalls on every job, so the queue never drains: /sweep's
    // blocking enqueue must give up at its bound with 429, not hang the daemon.
    guard.install(FaultPlan::new(3).always("serve.worker", FaultKind::Stall(1500)));
    let body = "{\"corpus\":\"c\",\"policies\":[\"TA-DRRIP\",\"LRU\",\"SRRIP\"]}";
    let resp = client::post(addr, "/sweep", body, None).expect("sweep roundtrip");
    assert_eq!(resp.status, 429, "saturated sweep backs off: {}", resp.body);
    assert!(
        resp.header("retry-after").is_some(),
        "429 carries Retry-After"
    );
    assert_eq!(client::get(addr, "/healthz").expect("healthz").status, 200);
    guard.clear();
    server.stop();
}

#[test]
fn progress_write_faults_degrade_to_memo_only_and_restart_resumes() {
    let guard = sim_fault::exclusive();
    let dir = test_dir("chaos_degraded");
    materialize_corpus(&dir, "chaos-d", 1);
    let policies = [PolicyKind::TaDrrip, PolicyKind::Lru];
    let reference = reference_cells_with(&dir, &policies, &ReplayConfig::default());
    let expected_sweep = format!(
        "{{\"corpus\":\"c\",\"cells\":2,\"results\":[{},{}]}}",
        reference[0].2, reference[1].2
    );
    let sweep_body = "{\"corpus\":\"c\",\"policies\":[\"TA-DRRIP\",\"LRU\"]}";

    let server = spawn_with(
        vec![("c".to_string(), dir.clone())],
        2,
        ReplayConfig::default(),
    );
    let addr = server.addr();

    // Every progress append tears: persistence degrades to memo-only, serving
    // continues with bit-identical bytes, and /stats flags the mode.
    guard.install(FaultPlan::new(11).always("progress.write", FaultKind::TornWrite));
    let resp = client::post(addr, "/sweep", sweep_body, None).expect("sweep roundtrip");
    assert_eq!(
        resp.status, 200,
        "degraded daemon still serves: {}",
        resp.body
    );
    assert_eq!(
        resp.body, expected_sweep,
        "served bytes match the reference"
    );
    let stats = client::get(addr, "/stats").expect("stats");
    let stats = JsonValue::parse(&stats.body).expect("stats parses");
    let degraded = health_list(&stats, "progress_degraded");
    assert_eq!(degraded.len(), 1);
    assert_eq!(degraded[0].as_str(), Some("c"));
    server.stop();

    // Restart with faults still active at shutdown time but cleared now: the torn
    // progress file recovers zero cells (the tail is skipped, never misread) and
    // the re-issued sweep recomputes the identical bytes.
    guard.clear();
    let server = spawn_with(
        vec![("c".to_string(), dir.clone())],
        2,
        ReplayConfig::default(),
    );
    let addr = server.addr();
    let stats = client::get(addr, "/stats").expect("stats");
    let stats = JsonValue::parse(&stats.body).expect("stats parses");
    let recovered = stats
        .get("memo")
        .and_then(|m| m.get("recovered"))
        .and_then(JsonValue::as_number)
        .expect("memo.recovered");
    assert_eq!(recovered, 0.0, "torn progress recovers no cells");
    assert!(health_list(&stats, "progress_degraded").is_empty());
    let resp = client::post(addr, "/sweep", sweep_body, None).expect("sweep roundtrip");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, expected_sweep, "resumed sweep is bit-identical");
    server.stop();

    // Third start: this time the cells persisted, so the sweep resumes from disk.
    let server = spawn_with(vec![("c".to_string(), dir)], 2, ReplayConfig::default());
    let addr = server.addr();
    let stats = client::get(addr, "/stats").expect("stats");
    let stats = JsonValue::parse(&stats.body).expect("stats parses");
    let recovered = stats
        .get("memo")
        .and_then(|m| m.get("recovered"))
        .and_then(JsonValue::as_number)
        .expect("memo.recovered");
    assert_eq!(recovered, 2.0, "clean run persisted both cells");
    let resp = client::post(addr, "/sweep", sweep_body, None).expect("sweep roundtrip");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body, expected_sweep,
        "recovered sweep is bit-identical"
    );
    server.stop();
}

#[test]
fn chaos_wall_requests_are_bit_identical_or_typed_errors() {
    let guard = sim_fault::exclusive();
    let dir = test_dir("chaos_wall");
    materialize_corpus(&dir, "chaos-w", 1);
    let replay = streamed_replay();
    let policies = [PolicyKind::TaDrrip, PolicyKind::Lru];
    let reference = reference_cells_with(&dir, &policies, &replay);
    let server = spawn_with(vec![("c".to_string(), dir)], 2, replay);
    let addr = server.addr();

    // Fixed seed matrix plus one randomized seed (printed so a failure is
    // reproducible by pinning it into the matrix).
    let extra = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) | 1)
        .unwrap_or(1);
    eprintln!("chaos wall: randomized extra seed {extra}");
    let seeds = [1, 2, 3, 5, 8, extra];

    for seed in seeds {
        let plan = FaultPlan::new(seed)
            // Fires once per install: the first streamed decode faults, then heals.
            .rule("replay.decode", FaultKind::Io, 1000, 1)
            .rule("progress.write", FaultKind::TornWrite, 250, 0)
            .rule("progress.sync", FaultKind::Io, 250, 0)
            .rule("serve.worker", FaultKind::Panic, 60, 0)
            .rule("serve.conn.close", FaultKind::Close, 100, 0)
            // The DRAM bank scheduler: a rare stall must leave results
            // bit-identical, a rare panic must surface as a typed error.
            .rule("bank.schedule", FaultKind::Stall(1), 2, 40)
            .rule("bank.schedule", FaultKind::Panic, 1, 2);
        guard.install(plan);

        let mut client = Client::connect(addr, Some("chaos")).ok();
        for i in 0..12usize {
            let (policy, mix_id, expected) = &reference[i % reference.len()];
            let body = eval_body("c", policy, *mix_id);
            let resp = match client.as_mut().map(|c| c.post("/eval", &body)) {
                Some(Ok(resp)) => resp,
                // An injected connection close (or a response torn by it) is a
                // visible I/O failure — reconnect and continue.
                Some(Err(_)) | None => {
                    client = Client::connect(addr, Some("chaos")).ok();
                    continue;
                }
            };
            match resp.status {
                200 => assert_eq!(
                    &resp.body, expected,
                    "seed {seed}: a 200 must carry the exact fault-free bytes"
                ),
                429 => assert!(
                    resp.header("retry-after").is_some(),
                    "seed {seed}: 429 carries Retry-After"
                ),
                500 | 503 => {
                    let v = JsonValue::parse(&resp.body)
                        .unwrap_or_else(|e| panic!("seed {seed}: typed body parses: {e}"));
                    assert!(
                        v.get("error").is_some(),
                        "seed {seed}: error body names the failure: {}",
                        resp.body
                    );
                }
                other => panic!("seed {seed}: unexpected status {other}: {}", resp.body),
            }
        }

        // After every schedule the daemon must answer /healthz and be restorable
        // to full fault-free service.
        guard.clear();
        assert_eq!(
            client::get(addr, "/healthz").expect("healthz").status,
            200,
            "seed {seed}: daemon stays live"
        );
        let stats = client::get(addr, "/stats").expect("stats");
        let stats = JsonValue::parse(&stats.body).expect("stats parses");
        if !health_list(&stats, "quarantined").is_empty() {
            let resp =
                client::post(addr, "/revalidate", "{\"corpus\":\"c\"}", None).expect("revalidate");
            assert_eq!(resp.status, 200, "seed {seed}: readmit: {}", resp.body);
        }
        for (policy, mix_id, expected) in &reference {
            let resp = client::post(addr, "/eval", &eval_body("c", policy, *mix_id), None)
                .expect("probe eval");
            assert_eq!(resp.status, 200, "seed {seed}: probe: {}", resp.body);
            assert_eq!(
                &resp.body, expected,
                "seed {seed}: post-fault service is bit-identical"
            );
        }
    }
    server.stop();
}

#[test]
fn faulted_bank_scheduler_never_wedges_a_sweep() {
    // The DRAM bank scheduler sits on the innermost simulation loop. A stalled
    // bank (wall-clock sleep, no simulated-state change) must keep every answer
    // bit-identical; an injected scheduler panic must surface as a typed 500
    // from the worker's panic isolation — in neither case may the sweep wedge:
    // every request gets a terminating answer and the daemon stays live.
    let guard = sim_fault::exclusive();
    let dir = test_dir("chaos_bank_schedule");
    materialize_corpus(&dir, "chaos-b", 1);
    let replay = streamed_replay();
    let policies = [PolicyKind::TaDrrip, PolicyKind::Lru];
    let reference = reference_cells_with(&dir, &policies, &replay);
    let server = spawn_with(vec![("c".to_string(), dir)], 2, replay);
    let addr = server.addr();

    // Phase 1: stalls only. Results must be bit-identical to the fault-free
    // reference — the scheduler loses wall-clock time, never simulated cycles.
    guard.install(FaultPlan::new(11).rule("bank.schedule", FaultKind::Stall(1), 1000, 25));
    for (policy, mix_id, expected) in &reference {
        let resp =
            client::post(addr, "/eval", &eval_body("c", policy, *mix_id), None).expect("eval");
        assert_eq!(resp.status, 200, "stalled bank: {}", resp.body);
        assert_eq!(
            &resp.body, expected,
            "a stalled bank must not change simulation results"
        );
    }

    // Phase 2: every access panics. Evaluations must fail typed, not hang, and
    // memoized fault-free answers must keep serving bit-identically.
    guard.install(FaultPlan::new(12).rule("bank.schedule", FaultKind::Panic, 1000, 0));
    for (policy, mix_id, expected) in &reference {
        let resp =
            client::post(addr, "/eval", &eval_body("c", policy, *mix_id), None).expect("eval");
        match resp.status {
            // Served from the memo cache warmed in phase 1 — must be exact.
            200 => assert_eq!(&resp.body, expected, "memoized answer must stay exact"),
            500 | 503 => {
                let v = JsonValue::parse(&resp.body).expect("typed error body parses");
                assert!(v.get("error").is_some(), "error body names the failure");
            }
            other => panic!("faulted bank: unexpected status {other}: {}", resp.body),
        }
    }
    assert_eq!(
        client::get(addr, "/healthz").expect("healthz").status,
        200,
        "daemon survives a panicking bank scheduler"
    );

    // Phase 3: faults cleared — full fault-free service restores bit-identically.
    guard.clear();
    for (policy, mix_id, expected) in &reference {
        let resp =
            client::post(addr, "/eval", &eval_body("c", policy, *mix_id), None).expect("eval");
        assert_eq!(resp.status, 200, "post-fault: {}", resp.body);
        assert_eq!(&resp.body, expected, "post-fault service is bit-identical");
    }
    server.stop();
}

#[test]
fn torn_append_between_write_and_sync_is_skipped_and_does_not_glue() {
    let guard = sim_fault::exclusive();
    let dir = test_dir("chaos_progress");
    let path = dir.join("sweep.progress");
    let header = ProgressHeader {
        corpus_hash: 0xc0ffee,
        llc_sets: 64,
        cores: 4,
        seed: 9,
    };

    let (writer, recovered) = ProgressWriter::open(&path, &header).expect("open fresh");
    assert!(recovered.is_empty());
    writer.append("TA-DRRIP", 0, 1000, "{\"a\":1}");

    // A torn append (the crash-between-write-and-sync window: a prefix reaches the
    // file, the sync never happens) latches memo-only mode.
    guard.install(FaultPlan::new(5).always("progress.write", FaultKind::TornWrite));
    assert!(!writer.degraded());
    writer.append("LRU", 1, 1000, "{\"b\":2}");
    assert!(writer.degraded(), "a failed append latches degraded mode");
    guard.clear();
    // The latch is sticky: even fault-free appends are dropped (the tail is torn;
    // more bytes would glue onto it).
    writer.append("BP-32", 2, 1000, "{\"c\":3}");
    drop(writer);

    // Reopen: the complete cell survives, the torn tail is skipped, and the next
    // append lands on a fresh line instead of gluing onto the torn prefix.
    let (writer, recovered) = ProgressWriter::open(&path, &header).expect("reopen");
    assert_eq!(recovered.len(), 1, "exactly the fully-synced cell survives");
    assert_eq!(recovered[0].policy, "TA-DRRIP");
    assert_eq!(recovered[0].json, "{\"a\":1}");
    assert!(!writer.degraded());
    writer.append("LRU", 3, 1000, "{\"d\":4}");
    drop(writer);

    let (_, recovered) = ProgressWriter::open(&path, &header).expect("reopen again");
    assert_eq!(
        recovered.len(),
        2,
        "the post-recovery append parses cleanly"
    );
    assert_eq!(recovered[1].policy, "LRU");
    assert_eq!(recovered[1].mix_id, 3);
    assert_eq!(recovered[1].json, "{\"d\":4}");
}

#[test]
fn server_spawn_fails_typed_when_the_mapping_cannot_open() {
    let guard = sim_fault::exclusive();
    let dir = test_dir("chaos_spawn");
    materialize_corpus(&dir, "chaos-o", 1);
    guard.install(FaultPlan::new(2).always("mmap.open", FaultKind::Io));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Server::spawn(ServerConfig {
            workers: 1,
            queue_capacity: 4,
            scale: SCALE,
            replay: streamed_replay(),
            corpora: vec![("c".to_string(), dir)],
            ..ServerConfig::default()
        })
    }));
    let err = match outcome.expect("startup failure is an Err, not a panic") {
        Ok(_) => panic!("spawn under mmap.open faults must fail"),
        Err(e) => e,
    };
    assert!(
        err.contains("injected"),
        "the startup error names the injected fault: {err}"
    );
}

/// Every corpus is sized by one rule (`experiments::runner::corpus_study`, which
/// `repro`'s corpus experiments share): a corpus whose first mix names no study, or an
/// empty manifest, is refused at load with an error that names the corpus.
#[test]
fn loading_refuses_a_corpus_that_names_no_study() {
    let _guard = sim_fault::exclusive();
    let dir = test_dir("chaos_no_study");
    let three = WorkloadMix {
        id: 0,
        study: StudyKind::Cores4,
        benchmarks: ["gcc", "mcf", "art"].map(String::from).to_vec(),
    };
    let sets = SCALE
        .system_config(StudyKind::Cores4)
        .llc
        .geometry
        .num_sets();
    let (corpus, _) = Corpus::materialize(&dir, "three", &[three], sets, 1, 1000).unwrap();
    let load = || {
        let replay = ReplayConfig::default();
        match LoadedCorpus::load("odd", &dir, SCALE, &replay, &MemoStore::new()) {
            Ok(_) => panic!("a corpus that names no study loaded"),
            Err(e) => e,
        }
    };
    let err = load();
    assert!(
        err.contains("corpus \"odd\"") && err.contains("no study has 3 cores"),
        "{err}"
    );
    let manifest = render_manifest(corpus.meta(), &[]);
    std::fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
    let err = load();
    assert!(
        err.contains("corpus \"odd\"") && err.contains("no mixes"),
        "{err}"
    );
}
