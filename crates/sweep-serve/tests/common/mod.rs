//! Shared fixtures for the serving test walls: materialize a Smoke-scale corpus,
//! spawn an in-process daemon, and compute the serial `repro sweep` reference bytes
//! the served results must match bit-for-bit.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use experiments::runner::{
    corpus_sources, sweep_policies_on_sources_with, synthetic_capture_budget, ReplayConfig,
};
use experiments::{ExperimentScale, PolicyKind};
use sweep_serve::json::evaluation_json;
use sweep_serve::{Server, ServerConfig, ServerHandle};
use trace_io::Corpus;
use workloads::{generate_mixes, StudyKind, WorkloadMix};

/// The scale every serving test runs at (seconds-long evaluations).
pub const SCALE: ExperimentScale = ExperimentScale::Smoke;

/// A unique temp directory for one test's corpus, wiped clean.
pub fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep_serve_test_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test corpus dir");
    dir
}

/// Materialize a fresh Smoke 4-core corpus with `mixes` mixes at `dir`.
pub fn materialize_corpus(dir: &Path, label: &str, mixes: usize) -> Vec<WorkloadMix> {
    let config = SCALE.system_config(StudyKind::Cores4);
    let generated = generate_mixes(StudyKind::Cores4, mixes, SCALE.seed());
    Corpus::materialize(
        dir,
        label,
        &generated,
        config.llc.geometry.num_sets(),
        SCALE.seed(),
        synthetic_capture_budget(SCALE.instructions_per_core()),
    )
    .expect("materialize test corpus");
    generated
}

/// Spawn an in-process daemon serving the given corpora at Smoke scale.
pub fn spawn_server(corpora: Vec<(String, PathBuf)>, workers: usize) -> ServerHandle {
    Server::spawn(ServerConfig {
        workers,
        queue_capacity: 64,
        scale: SCALE,
        corpora,
        ..ServerConfig::default()
    })
    .expect("spawn test server")
}

/// The small policy lineup the concurrency tests sweep (kept short so cold grids
/// stay fast on one core).
pub fn test_policies() -> Vec<PolicyKind> {
    vec![PolicyKind::TaDrrip, PolicyKind::Lru, PolicyKind::AdaptBp32]
}

/// Labels of [`test_policies`].
pub fn test_policy_labels() -> Vec<String> {
    test_policies().iter().map(|p| p.label()).collect()
}

/// Compute the serial `repro sweep` reference for `policies` over the corpus at
/// `dir`, returning `(policy_label, mix_id, canonical_json)` per cell in the
/// server's `(mix outer, policy inner)` order.
pub fn reference_cells(dir: &Path, policies: &[PolicyKind]) -> Vec<(String, usize, String)> {
    reference_cells_with(dir, policies, &ReplayConfig::default())
}

/// [`reference_cells`] under `replay`: the same replay config the server under test
/// uses, so "bit-identical" compares like with like.
pub fn reference_cells_with(
    dir: &Path,
    policies: &[PolicyKind],
    replay: &ReplayConfig,
) -> Vec<(String, usize, String)> {
    let corpus = Corpus::load(dir).expect("load corpus for reference");
    let config = SCALE.system_config(StudyKind::Cores4);
    let sources = corpus_sources(&corpus, config.llc.geometry.num_sets()).expect("corpus sources");
    let outcome = sweep_policies_on_sources_with(
        &config,
        &sources,
        policies,
        SCALE.instructions_per_core(),
        corpus.meta().seed,
        replay,
    )
    .expect("reference sweep");
    // The runner's grid is (mix outer, policy inner) — same as the serving order.
    outcome
        .evaluations
        .iter()
        .map(|e| (e.policy_label.clone(), e.mix_id, evaluation_json(e)))
        .collect()
}
