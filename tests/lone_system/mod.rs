//! The reference every shared evaluation is held to, and the shipped path in one call.
//!
//! The runner evaluates a mix by materializing it once and replaying its private stages
//! for every policy (`experiments::runner::evaluate_prepared`, one cell, or [`grid`]).
//! What it must reproduce is the simplest run there is: a lone `MultiCoreSystem` over
//! fresh generators that shares nothing with any other run ([`lone_run`]). Tests compare
//! the two field by field ([`assert_evaluation_matches`]).

#![allow(dead_code)] // each test binary uses its own part

use adapt_llc::experiments::runner::{
    corpus_sources, evaluate_prepared, sweep_policies_on_sources_with, MixEvaluation, MixSource,
    ReplayConfig, SweepOutcome,
};
use adapt_llc::experiments::PolicyKind;
use adapt_llc::sim::config::SystemConfig;
use adapt_llc::sim::stats::SystemResults;
use adapt_llc::sim::system::MultiCoreSystem;
use adapt_llc::traces::{Corpus, TraceError};
use adapt_llc::workloads::WorkloadMix;

/// `mix` under `policy` on a lone system over fresh generators: no materialization, no
/// shared stage, nothing any other run touched.
pub fn lone_run(
    config: &SystemConfig,
    mix: &WorkloadMix,
    policy: PolicyKind,
    instructions: u64,
    seed: u64,
) -> SystemResults {
    let built = policy.build_dispatch(config, &mix.thrashing_slots());
    let sources = mix.trace_sources(config.llc.geometry.num_sets(), seed);
    MultiCoreSystem::new(config.clone(), sources, built).run(instructions)
}

/// `mix` under `policy` on the shipped path: materialized from its generators, then
/// evaluated over the shared stages.
pub fn evaluate(
    config: &SystemConfig,
    mix: &WorkloadMix,
    policy: PolicyKind,
    instructions: u64,
    seed: u64,
) -> MixEvaluation {
    let prepared = MixSource::synthetic(mix.clone())
        .materialize_with(
            config.llc.geometry.num_sets(),
            seed,
            &ReplayConfig::default(),
        )
        .expect("generated mixes always materialize");
    let built = policy.build_dispatch(config, &mix.thrashing_slots());
    evaluate_prepared(config, &prepared, policy, built, instructions, seed)
}

/// `policies` over the live generators of `mixes` on the parallel grid, in (mix, policy)
/// order.
pub fn grid(
    config: &SystemConfig,
    mixes: &[WorkloadMix],
    policies: &[PolicyKind],
    instructions: u64,
    seed: u64,
) -> Vec<MixEvaluation> {
    let sources: Vec<MixSource> = mixes.iter().cloned().map(MixSource::synthetic).collect();
    let replay = ReplayConfig::default();
    sweep_policies_on_sources_with(config, &sources, policies, instructions, seed, &replay)
        .expect("generated mixes always materialize")
        .evaluations
}

/// `policies` over every mix of `corpus` on the parallel grid, as `repro sweep` runs
/// them: the corpus's replayed sources under the seed its manifest records.
pub fn corpus_grid(
    config: &SystemConfig,
    corpus: &Corpus,
    policies: &[PolicyKind],
    instructions: u64,
    replay: &ReplayConfig,
) -> Result<SweepOutcome, TraceError> {
    let sources = corpus_sources(corpus, config.llc.geometry.num_sets())?;
    let seed = corpus.meta().seed;
    sweep_policies_on_sources_with(config, &sources, policies, instructions, seed, replay)
}

/// What a `MixEvaluation` carries of a run, held to a reference's `SystemResults`.
pub fn assert_evaluation_matches(fast: &MixEvaluation, reference: &SystemResults, what: &str) {
    assert_eq!(fast.per_app.len(), reference.per_core.len(), "{what}");
    for (app, core) in fast.per_app.iter().zip(&reference.per_core) {
        assert_eq!(app.name, core.label, "{what}");
        assert_eq!(app.core_id, core.core_id, "{what}: {}", app.name);
        assert_eq!(app.ipc, core.ipc(), "{what}: {} IPC", app.name);
        assert_eq!(app.l2_mpki, core.l2_mpki(), "{what}: {} L2 MPKI", app.name);
        assert_eq!(app.llc_mpki, core.llc_mpki(), "{what}: {} MPKI", app.name);
    }
    assert_eq!(fast.llc_global, reference.llc_global, "{what}");
    assert_eq!(fast.llc_banks, reference.llc_banks, "{what}");
    assert_eq!(fast.core_stalls, reference.core_stalls, "{what}");
    assert_eq!(fast.final_cycle, reference.final_cycle, "{what}");
}

/// Each evaluation of a sweep over `mixes` × `policies`, in (mix, policy) order, held to
/// its lone run.
pub fn assert_sweep_matches_lone_runs(
    config: &SystemConfig,
    mixes: &[WorkloadMix],
    policies: &[PolicyKind],
    instructions: u64,
    seed: u64,
    evaluations: &[MixEvaluation],
) {
    assert_eq!(evaluations.len(), mixes.len() * policies.len());
    let pairs = mixes
        .iter()
        .flat_map(|m| policies.iter().map(move |&p| (m, p)));
    for ((mix, policy), eval) in pairs.zip(evaluations) {
        assert_eq!((eval.mix_id, eval.policy), (mix.id, policy));
        let reference = lone_run(config, mix, policy, instructions, seed);
        let what = format!("mix {} {policy:?}", mix.id);
        assert_evaluation_matches(eval, &reference, &what);
    }
}
