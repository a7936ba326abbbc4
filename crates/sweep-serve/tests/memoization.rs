//! Memoization-correctness wall: a memo hit is bit-identical to the cold run that
//! produced it, `/stats` counters match exactly what clients observed, and editing a
//! corpus on disk (hash change) invalidates exactly the affected keys — other corpora
//! keep their recovered entries.

mod common;

use std::path::Path;

use cache_sim::private::SharedStageUsage;
use experiments::runner::ReplayConfig;
use sim_obs::JsonValue;
use sweep_serve::json::evaluation_json;
use sweep_serve::memo::MemoStore;
use sweep_serve::registry::LoadedCorpus;
use sweep_serve::Client;
use trace_io::corpus::MANIFEST_FILE;

fn eval_body(corpus: &str, policy: &str, mix: usize) -> String {
    format!("{{\"corpus\":\"{corpus}\",\"policy\":\"{policy}\",\"mix_id\":{mix}}}")
}

fn stat(stats: &JsonValue, section: &str, field: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(JsonValue::as_number)
        .unwrap_or_else(|| panic!("missing {section}.{field}")) as u64
}

#[test]
fn hits_are_bit_identical_and_stats_count_exactly_what_clients_observed() {
    let dir = common::test_dir("memoization");
    common::materialize_corpus(&dir, "memo corpus", 2);
    let handle = common::spawn_server(vec![("c".to_string(), dir)], 1);
    let mut client = Client::connect(handle.addr(), Some("counter")).expect("connect");

    // Known request pattern: 2 cold cells, each then repeated twice, then a /sweep of
    // LRU over both mixes — probing (LRU, 0), already memoized, and (LRU, 1), cold.
    let cold_a = client.post("/eval", &eval_body("c", "LRU", 0)).unwrap();
    assert_eq!(cold_a.status, 200, "{}", cold_a.body);
    assert_eq!(cold_a.header("x-memo"), Some("miss"));
    let cold_b = client
        .post("/eval", &eval_body("c", "TA-DRRIP", 0))
        .unwrap();
    assert_eq!(cold_b.status, 200, "{}", cold_b.body);
    assert_eq!(cold_b.header("x-memo"), Some("miss"));

    for (policy, cold) in [("LRU", &cold_a), ("TA-DRRIP", &cold_b)] {
        for _ in 0..2 {
            let hit = client.post("/eval", &eval_body("c", policy, 0)).unwrap();
            assert_eq!(hit.status, 200);
            assert_eq!(hit.header("x-memo"), Some("hit"));
            assert_eq!(
                hit.body, cold.body,
                "memo hit for {policy} is not bit-identical to its cold run"
            );
        }
    }

    // The sweep probes (LRU, 0) — already memoized — and (LRU, 1) — cold.
    let sweep = client
        .post("/sweep", "{\"corpus\":\"c\",\"policies\":[\"LRU\"]}")
        .unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    assert_eq!(sweep.header("x-memo-hits"), Some("1"));

    // Ledger: 2 cold /evals (misses) + 4 repeat /evals (hits) + sweep (1 hit, 1 miss).
    let stats = client.get("/stats").unwrap();
    let parsed = JsonValue::parse(&stats.body).expect("stats JSON");
    assert_eq!(stat(&parsed, "memo", "hits"), 5, "stats: {}", stats.body);
    assert_eq!(stat(&parsed, "memo", "misses"), 3, "stats: {}", stats.body);
    assert_eq!(stat(&parsed, "memo", "entries"), 3, "stats: {}", stats.body);
    assert_eq!(
        stat(&parsed, "jobs", "enqueued"),
        3,
        "stats: {}",
        stats.body
    );
    assert_eq!(
        stat(&parsed, "jobs", "completed"),
        3,
        "stats: {}",
        stats.body
    );

    // What resident sharing holds shows in `/corpora`: the three cold evaluations took
    // cursors over the mixes' private stages, whose event memos stay.
    let corpora = JsonValue::parse(&client.get("/corpora").unwrap().body).expect("corpora JSON");
    let listed = &corpora
        .get("corpora")
        .and_then(JsonValue::as_array)
        .unwrap()[0];
    let field = |name: &str| listed.get(name).and_then(JsonValue::as_number).unwrap() as u64;
    assert_eq!(field("stage_cursors"), 3);
    assert!(field("stage_memo_bytes") > 0);
    // The default budget's memos cover a smoke run: no cursor left one.
    assert_eq!(field("stage_handovers"), 0);
    // One worker runs one evaluation at a time, so a cursor waits only for a chunk the
    // read-ahead thread is generating: never more often than that thread generated one.
    assert!(field("stage_waits") <= field("stage_read_aheads"));
    handle.stop();
}

#[test]
fn a_daemon_whose_memos_run_dry_reports_its_handovers_and_the_same_answers() {
    // A budget whose memo pool covers the four streams' checkpoints but not one chunk of
    // events: the decode buffers, two 4096-record blocks a core, take 768 KiB of it, and
    // the 16 KiB left hold the checkpoints (a few KB each) but never the 16 KiB a stage
    // reserves before it generates a chunk (`MAX_CHUNK_BYTES`). Every evaluation runs off
    // the empty prefix at once and continues from the checkpoint. `/corpora` counts those
    // hand-overs — one per core and evaluation — and the answers do not change.
    let dir = common::test_dir("memoization_dry_memo");
    common::materialize_corpus(&dir, "dry memo corpus", 1);
    let policies = common::test_policies();
    let reference = common::reference_cells(&dir, &policies);
    let handle = sweep_serve::Server::spawn(sweep_serve::ServerConfig {
        workers: 1,
        scale: common::SCALE,
        corpora: vec![("c".to_string(), dir)],
        replay: ReplayConfig {
            arena_budget_bytes: (768 + 16) << 10,
        },
        ..sweep_serve::ServerConfig::default()
    })
    .expect("spawn");
    let mut client = Client::connect(handle.addr(), None).expect("connect");
    for (label, mix, body) in &reference {
        let served = client.post("/eval", &eval_body("c", label, *mix)).unwrap();
        assert_eq!(served.status, 200, "{}", served.body);
        assert_eq!(&served.body, body, "{label}");
    }
    let corpora = JsonValue::parse(&client.get("/corpora").unwrap().body).expect("corpora JSON");
    let listed = &corpora
        .get("corpora")
        .and_then(JsonValue::as_array)
        .unwrap()[0];
    let field = |name: &str| listed.get(name).and_then(JsonValue::as_number).unwrap() as u64;
    let evaluations = policies.len() as u64;
    assert_eq!(field("stage_cursors"), evaluations);
    assert_eq!(field("stage_memo_bytes"), 0);
    assert_eq!(field("stage_handovers"), evaluations * field("cores"));
    // A pool that cannot cover a chunk leaves a read-ahead nothing to do.
    assert_eq!(
        (
            field("stage_read_aheads"),
            field("stage_helps"),
            field("stage_waits")
        ),
        (0, 0, 0)
    );
    handle.stop();
}

#[test]
fn a_resident_mix_keeps_one_set_of_private_stages_across_requests() {
    // The registry keeps each mix's `MaterializedMixStreams`, and with them the mix's
    // shared private stages: P policies evaluated on one mix take P cursors per core
    // over one set of stages, and the records are drawn for the first only.
    let dir = common::test_dir("memoization_resident_stages");
    common::materialize_corpus(&dir, "resident corpus", 1);
    let memo = MemoStore::new();
    let (corpus, _) = LoadedCorpus::load("c", &dir, common::SCALE, &ReplayConfig::default(), &memo)
        .expect("load");
    let cores = corpus.config.num_cores as u64;
    assert_eq!(corpus.stage_usage(), SharedStageUsage::default());

    let policies = common::test_policies();
    let reference = common::reference_cells(&dir, &policies);
    let mut drawn = 0;
    for (served, (policy, cell)) in policies.iter().zip(&reference).enumerate() {
        let eval = corpus.evaluate(*policy, 0).expect("mix 0 is resident");
        assert_eq!(evaluation_json(&eval), cell.2, "{}", cell.0);
        let usage = corpus.stage_usage();
        assert_eq!(usage.cursors, (served as u64 + 1) * cores);
        assert_eq!(usage.handovers, 0);
        // Later policies may run a little further than the first; none starts over.
        assert!(usage.records >= drawn);
        if served > 0 {
            assert!(
                usage.records < drawn + drawn / 2,
                "{}: drew {} records after {drawn}",
                cell.0,
                usage.records
            );
        }
        drawn = usage.records;
    }
    assert!(drawn > 0);
}

#[test]
fn connection_storm_of_memo_hits_is_exact() {
    // 256 keep-alive connections, all open before any of them asks, each asking for the
    // same memoized cell three times: every answer is a 200 carrying the cold body, and
    // the daemon's ledger moves by exactly the hits the clients observed.
    const CONNECTIONS: usize = 256;
    const REQUESTS: usize = 3;
    let dir = common::test_dir("memoization_storm");
    common::materialize_corpus(&dir, "storm corpus", 1);
    let handle = common::spawn_server(vec![("c".to_string(), dir)], 1);
    let addr = handle.addr();
    let body = eval_body("c", "LRU", 0);

    let mut seed = Client::connect(addr, Some("seed")).expect("connect");
    let cold = seed.post("/eval", &body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-memo"), Some("miss"));
    let before = JsonValue::parse(&seed.get("/stats").unwrap().body).expect("stats JSON");

    let all_connected = std::sync::Barrier::new(CONNECTIONS);
    std::thread::scope(|scope| {
        for t in 0..CONNECTIONS {
            let (body, cold, all_connected) = (&body, &cold, &all_connected);
            scope.spawn(move || {
                let client = Client::connect(addr, Some(&format!("storm-{}", t % 8)));
                all_connected.wait();
                let mut client = client.expect("connect");
                for _ in 0..REQUESTS {
                    let hit = client.post("/eval", body).expect("keep-alive /eval");
                    assert_eq!(hit.status, 200, "{}", hit.body);
                    assert_eq!(hit.header("x-memo"), Some("hit"));
                    assert_eq!(hit.body, cold.body, "hit differs from the cold body");
                }
            });
        }
    });

    let after = JsonValue::parse(&seed.get("/stats").unwrap().body).expect("stats JSON");
    assert_eq!(
        stat(&after, "memo", "hits") - stat(&before, "memo", "hits"),
        (CONNECTIONS * REQUESTS) as u64
    );
    assert_eq!(
        stat(&after, "memo", "misses"),
        stat(&before, "memo", "misses")
    );
    handle.stop();
}

/// Rewrite the corpus manifest's free-text label: the corpus hash changes while every
/// evaluation result stays identical — the sharpest possible invalidation probe.
fn edit_manifest_label(dir: &Path, new_label: &str) {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).expect("read manifest");
    let edited: String = text
        .lines()
        .map(|line| {
            if line.starts_with("label ") {
                format!("label {new_label}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_ne!(text, edited, "label line not found");
    std::fs::write(&path, edited).expect("write manifest");
}

#[test]
fn corpus_edit_invalidates_exactly_the_affected_keys() {
    let dir_a = common::test_dir("memoization_inval_a");
    let dir_b = common::test_dir("memoization_inval_b");
    common::materialize_corpus(&dir_a, "corpus a", 1);
    common::materialize_corpus(&dir_b, "corpus b", 1);
    let corpora = vec![
        ("a".to_string(), dir_a.clone()),
        ("b".to_string(), dir_b.clone()),
    ];

    // First lifetime: persist one cell per corpus.
    let first = common::spawn_server(corpora.clone(), 1);
    let mut client = Client::connect(first.addr(), Some("seed")).expect("connect");
    let a_cold = client.post("/eval", &eval_body("a", "LRU", 0)).unwrap();
    assert_eq!(a_cold.header("x-memo"), Some("miss"));
    let b_cold = client.post("/eval", &eval_body("b", "LRU", 0)).unwrap();
    assert_eq!(b_cold.header("x-memo"), Some("miss"));
    let hash_of = |body: &str| {
        let parsed = JsonValue::parse(body).expect("corpora JSON");
        let list = parsed.get("corpora").and_then(JsonValue::as_array).unwrap();
        list.iter()
            .map(|c| {
                (
                    c.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                    c.get("hash")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect::<Vec<_>>()
    };
    let hashes_before = hash_of(&client.get("/corpora").unwrap().body);
    first.stop();

    // Edit corpus A's manifest label: its content hash changes, its results do not.
    edit_manifest_label(&dir_a, "corpus a (edited)");

    // Second lifetime: only B's persisted cell survives recovery; A's progress file
    // (stamped with the old hash) is discarded wholesale.
    let second = common::spawn_server(corpora, 1);
    let mut client = Client::connect(second.addr(), Some("probe")).expect("connect");
    let hashes_after = hash_of(&client.get("/corpora").unwrap().body);
    assert_ne!(
        hashes_before.iter().find(|(n, _)| n == "a").unwrap(),
        hashes_after.iter().find(|(n, _)| n == "a").unwrap(),
        "editing the manifest label must change corpus a's hash"
    );
    assert_eq!(
        hashes_before.iter().find(|(n, _)| n == "b").unwrap(),
        hashes_after.iter().find(|(n, _)| n == "b").unwrap(),
        "corpus b's hash must be untouched"
    );

    let stats = JsonValue::parse(&client.get("/stats").unwrap().body).unwrap();
    assert_eq!(
        stat(&stats, "memo", "recovered"),
        1,
        "only b's cell survives"
    );

    let b_probe = client.post("/eval", &eval_body("b", "LRU", 0)).unwrap();
    assert_eq!(b_probe.header("x-memo"), Some("hit"), "b must be recovered");
    assert_eq!(
        b_probe.body, b_cold.body,
        "recovered b cell must be bit-identical"
    );

    let a_probe = client.post("/eval", &eval_body("a", "LRU", 0)).unwrap();
    assert_eq!(
        a_probe.header("x-memo"),
        Some("miss"),
        "a's stale cell must have been invalidated"
    );
    // The label is metadata, not simulation input: re-evaluation reproduces the
    // pre-edit bytes exactly.
    assert_eq!(a_probe.body, a_cold.body);
    second.stop();
}
