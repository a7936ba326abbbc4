//! The two live-generator workloads (`paper16_live`, `many128_memsys`) and the pieces
//! every simulating workload shares: the timed sweep, the serial single cell, result
//! serialisation, and the traced pass over a mix's cells.

use std::hint::black_box;
use std::time::Instant;

use cache_sim::config::SystemConfig;
use cache_sim::system::MultiCoreSystem;
use cache_sim::trace::TraceSource;
use experiments::runner::{
    evaluate_prepared, sweep_policies_on_sources_with, warm_alone_cache, MaterializedMixStreams,
    MixEvaluation, MixSource, ReplayConfig, SweepOutcome,
};
use experiments::{ExperimentScale, MemSystem, PolicyKind};
use mc_metrics::MulticoreMetrics;
use sweep_serve::json::evaluation_json;
use workloads::{StudyKind, WorkloadMix};

use crate::inputs::{cell_order, pinned_mixes, trace_seed};
use crate::pace::{Interleaved, Paced, COMPUTE};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::wrap::{self, Bracket, Busy, PolicyCounts, TimedPolicy, TimedSource, CALLBACKS};
use crate::{stage, stats, Opts};

/// Fewest repetitions a median is taken over, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;

/// Set-ups timed per run; `setup_s` is their median. They take milliseconds, so a
/// steady median needs many.
pub const SETUP_REPEATS: u64 = 15;

/// Records drained from the live generators in one unit of `trace_mrec_per_s`, over
/// all cores (3–4 ms), and the units per round.
const DRAIN_RECORDS: usize = 400_000;
const DRAIN_UNITS: usize = 6;

/// Per-application result rows serialised in one unit of `result_us` (an evaluation has
/// one row per core), so that a unit takes about 3 ms on 16 and on 128 cores alike,
/// and the units per round.
const SERIALIZE_ROWS: usize = 4096;
pub const SERIALIZE_UNITS: usize = 8;

/// Frozen sizes of a live-generator workload.
pub struct LiveSpec {
    pub study: StudyKind,
    pub config: SystemConfig,
    pub policies: Vec<PolicyKind>,
    pub mixes: usize,
    pub instructions: u64,
    /// `many128_memsys` also checks that per-core stall attribution sums to the totals.
    pub check_stall_conservation: bool,
}

impl LiveSpec {
    /// 16 cores on a 16-way LLC (the paper's cores >= ways regime), TA-DRRIP plus the
    /// Figure 3 line-up, two mixes.
    pub fn paper16_live() -> LiveSpec {
        let mut policies = vec![PolicyKind::TaDrrip];
        policies.extend(PolicyKind::figure3_lineup());
        LiveSpec {
            study: StudyKind::Cores16,
            config: ExperimentScale::Scaled.system_config(StudyKind::Cores16),
            policies,
            mixes: 2,
            instructions: 500_000,
            check_stall_conservation: false,
        }
    }

    /// 128 cores with FR-FCFS row scheduling, bounded bank queues and mesh NUCA.
    pub fn many128_memsys() -> LiveSpec {
        LiveSpec {
            study: StudyKind::Cores128,
            config: ExperimentScale::Scaled.scaling_config_memsys(128, MemSystem::FrFcfsNuca),
            policies: vec![
                PolicyKind::TaDrrip,
                PolicyKind::Lru,
                PolicyKind::Ship,
                PolicyKind::AdaptBp32,
            ],
            mixes: 1,
            instructions: 150_000,
            check_stall_conservation: true,
        }
    }
}

/// Repeat a timed section until `--seconds` have passed, at least [`MIN_ROUNDS`] times.
pub struct Rounds {
    started: Instant,
    seconds: f64,
    done: usize,
}

impl Rounds {
    pub fn new(seconds: u64) -> Rounds {
        Rounds {
            started: Instant::now(),
            seconds: seconds as f64,
            done: 0,
        }
    }

    /// Whether another round should start; counts the round it admits.
    pub fn next(&mut self) -> Option<usize> {
        if self.done >= MIN_ROUNDS && self.started.elapsed().as_secs_f64() >= self.seconds {
            return None;
        }
        self.done += 1;
        Some(self.done - 1)
    }
}

/// Time `warm_alone_cache` [`SETUP_REPEATS`] times. The alone-run cache is process-wide
/// and keyed by the instruction target, so every repetition but the last warms a
/// neighbouring target (`instructions + k`) to pay the full cost again; the last one
/// warms the target the workload then runs at.
pub fn timed_setups(
    config: &SystemConfig,
    instructions: u64,
    tseed: u64,
    workers: usize,
    mut build_mixes: impl FnMut() -> Vec<WorkloadMix>,
) -> (Vec<WorkloadMix>, Paced) {
    let mut setups = Paced::new(COMPUTE);
    let mut mixes = Vec::new();
    for k in (0..SETUP_REPEATS).rev() {
        mixes = setups.time(workers, || {
            let mixes = build_mixes();
            warm_alone_cache(config, &mixes, instructions + k, tseed);
            mixes
        });
    }
    (mixes, setups)
}

/// The production parallel sweep, timed from outside.
pub fn timed_sweep(
    config: &SystemConfig,
    sources: &[MixSource],
    policies: &[PolicyKind],
    instructions: u64,
    tseed: u64,
) -> (SweepOutcome, f64) {
    let t = Instant::now();
    let outcome = sweep_policies_on_sources_with(
        config,
        sources,
        policies,
        instructions,
        tseed,
        &ReplayConfig::default(),
    )
    .expect("benchmark inputs always materialize");
    (outcome, t.elapsed().as_secs_f64())
}

/// 10^6 simulated instructions per second of host time. The numerator is the fixed
/// target (cells × cores × instructions per core), not what was executed, so two
/// bit-identical engines compare exactly.
pub fn minstr_per_s(cells: usize, cores: usize, instructions: u64, wall_s: f64) -> f64 {
    cells as f64 * cores as f64 * instructions as f64 / wall_s / 1e6
}

/// One cell evaluated alone on this thread, the way a single caller gets it:
/// materialize the mix, build the policy, evaluate.
pub fn serial_cell(
    config: &SystemConfig,
    source: &MixSource,
    policy: PolicyKind,
    instructions: u64,
    tseed: u64,
) -> MixEvaluation {
    let sets = config.llc.geometry.num_sets();
    let prepared = source
        .materialize_with(sets, tseed, &ReplayConfig::default())
        .expect("benchmark inputs always materialize");
    let built = policy.build_dispatch(config, &prepared.mix().thrashing_slots());
    evaluate_prepared(config, &prepared, policy, built, instructions, tseed)
}

/// Bit-for-bit equality of two evaluations: `Debug` prints every field, and prints
/// floats in the shortest form that round-trips.
pub fn identical(a: &MixEvaluation, b: &MixEvaluation) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Turn finished evaluations into the bytes a consumer reads (`evaluation_json`), over
/// and over, [`SERIALIZE_ROWS`] result rows in all: one unit. Returns the number of calls.
pub fn serialize(evals: &[MixEvaluation], cores: usize) -> usize {
    let repeats = (SERIALIZE_ROWS / (cores * evals.len())).max(1);
    for eval in evals {
        for _ in 0..repeats {
            black_box(evaluation_json(black_box(eval)));
        }
    }
    evals.len() * repeats
}

/// Drain `per_core` records from each of `sources`; returns the records drained.
pub fn drain(sources: &mut [Box<dyn TraceSource>], per_core: usize) -> u64 {
    for source in sources.iter_mut() {
        for _ in 0..per_core {
            black_box(source.next_access());
        }
    }
    (sources.len() * per_core) as u64
}

/// The untraced run of a live-generator workload: every end-to-end metric.
pub fn run_live(spec: &LiveSpec, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let tseed = trace_seed(opts.seed);
    let cores = spec.config.num_cores;
    let sets = spec.config.llc.geometry.num_sets();

    let workers = opts.host.workers;
    let (mixes, setups) = timed_setups(&spec.config, spec.instructions, tseed, workers, || {
        pinned_mixes(spec.study, spec.mixes)
    });
    out.metrics.set_paced("setup_s", &setups, |s| s);

    let sources: Vec<MixSource> = mixes.iter().cloned().map(MixSource::synthetic).collect();
    let cells = sources.len() * spec.policies.len();
    // The cell the identity check re-evaluates is drawn from the seed; the cell whose
    // latency is timed every round is always cell 0 (mix 0 under the baseline policy),
    // so `cell_ms` is the latency of one and the same cell on every seed.
    let sampled = cell_order(cells, opts.seed, 4)[0];
    let drain_per_core = DRAIN_RECORDS / cores;
    let mut generators = mixes[0].trace_sources(sets, tseed);

    let (mut sweeps, mut cell) = (Paced::new(COMPUTE), Paced::new(COMPUTE));
    let (mut drains, mut serialisations) = (Interleaved::new(COMPUTE), Interleaved::new(COMPUTE));
    let (mut drained, mut serialised) = (0u64, 0usize);
    let mut first: Option<Vec<MixEvaluation>> = None;
    let mut rounds = Rounds::new(opts.seconds);
    while let Some(round) = rounds.next() {
        let outcome = sweeps.time(workers, || {
            sweep_policies_on_sources_with(
                &spec.config,
                &sources,
                &spec.policies,
                spec.instructions,
                tseed,
                &ReplayConfig::default(),
            )
            .expect("benchmark inputs always materialize")
        });
        out.attempted += cells as u64;
        out.check(outcome.evaluations.len() == cells, || {
            format!(
                "sweep returned {} of {cells} cells",
                outcome.evaluations.len()
            )
        });

        // One cell again, alone and serially: its latency, and the same bits.
        let eval = cell.time(1, || {
            serial_cell(
                &spec.config,
                &sources[0],
                spec.policies[0],
                spec.instructions,
                tseed,
            )
        });
        // The generators on their own, the same records every unit; and the results'
        // serialisation.
        for _ in 0..DRAIN_UNITS {
            generators.iter_mut().for_each(|g| g.reset());
            drained = drains.time(|| drain(&mut generators, drain_per_core));
        }
        for _ in 0..SERIALIZE_UNITS {
            serialised = serialisations.time(|| serialize(&outcome.evaluations, cores));
        }

        out.check(identical(&eval, &outcome.evaluations[0]), || {
            "serial re-evaluation of cell 0 differs from the parallel sweep".to_string()
        });
        if round == 0 {
            let (m, p) = (sampled / spec.policies.len(), sampled % spec.policies.len());
            let eval = serial_cell(
                &spec.config,
                &sources[m],
                spec.policies[p],
                spec.instructions,
                tseed,
            );
            out.check(identical(&eval, &outcome.evaluations[sampled]), || {
                format!("serial re-evaluation of cell {sampled} differs from the parallel sweep")
            });
        }
        match &first {
            None => first = Some(outcome.evaluations),
            Some(first) => out.check(
                first
                    .iter()
                    .zip(&outcome.evaluations)
                    .all(|(a, b)| identical(a, b)),
                || format!("round {round} of the sweep differs from round 0"),
            ),
        }
    }
    out.metrics.set_paced("sim_minstr_per_s", &sweeps, |s| {
        minstr_per_s(cells, cores, spec.instructions, s)
    });
    out.metrics.set_paced("cell_ms", &cell, |s| s * 1e3);
    out.metrics
        .set_interleaved("trace_mrec_per_s", &drains, |s| drained as f64 / s / 1e6);
    out.metrics
        .set_interleaved("result_us", &serialisations, |s| {
            s * 1e6 / serialised as f64
        });

    if spec.check_stall_conservation {
        check_stall_conservation(
            spec,
            &mixes[0],
            spec.policies[sampled % spec.policies.len()],
            tseed,
            &mut out,
        );
    }
    out
}

/// Σ per-core stall attribution == the global counter, for every category, and every
/// core snapshotted at or past its instruction target. Needs `SystemResults` (the
/// DRAM totals are not part of `MixEvaluation`), so the cell is run on the simulator
/// directly.
fn check_stall_conservation(
    spec: &LiveSpec,
    mix: &WorkloadMix,
    policy: PolicyKind,
    tseed: u64,
    out: &mut Outcome,
) {
    let sets = spec.config.llc.geometry.num_sets();
    let built = policy.build_dispatch(&spec.config, &mix.thrashing_slots());
    let mut system =
        MultiCoreSystem::new(spec.config.clone(), mix.trace_sources(sets, tseed), built);
    let r = system.run(spec.instructions);
    let sum = |f: fn(&cache_sim::stats::CoreStallAttribution) -> u64| -> u64 {
        r.core_stalls.iter().map(f).sum()
    };
    let categories = [
        (
            "llc bank queue",
            sum(|c| c.llc_queue_cycles),
            r.llc_global.bank_queue_cycles,
        ),
        (
            "llc bank admission",
            sum(|c| c.llc_admission_cycles),
            r.llc_global.bank_admission_stall_cycles,
        ),
        (
            "mshr",
            sum(|c| c.mshr_stall_cycles),
            r.llc_global.mshr_stall_cycles,
        ),
        (
            "dram queue+admission",
            sum(|c| c.dram_queue_cycles + c.dram_admission_cycles),
            r.dram.queue_cycles,
        ),
    ];
    for (what, per_core, global) in categories {
        out.check(per_core == global, || {
            format!("{what} stalls: per-core sum {per_core} != global {global}")
        });
    }
    for core in &r.per_core {
        out.check(core.instructions >= spec.instructions, || {
            format!(
                "core {} snapshotted at {} instructions",
                core.core_id, core.instructions
            )
        });
    }
}

/// What the traced pass over one mix's cells found.
pub struct TracedCells {
    /// Σ untraced serial wall, s.
    pub untraced_s: f64,
    /// Simulated cycles per LLC demand access in the traced runs (paces the stage drive).
    pub cycles_per_llc_access: u64,
    /// Trace records one core consumed in one traced cell, on average: how many the
    /// stage drive takes from each stream, so that it re-enacts the same records.
    pub records_per_core: usize,
    /// Run time minus record production, per record: the simulator plus the policy
    /// callbacks, which is what the stage drive's four stages re-enact.
    pub sim_ns_per_record: f64,
}

fn policy_layer(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::AdaptIns | PolicyKind::AdaptBp32 => "adapt_core",
        _ => "llc_policies",
    }
}

fn set_policy_metrics(
    out: &mut Outcome,
    prefix: &str,
    counts: &PolicyCounts,
    busy_ns: f64,
    llc_accesses: u64,
) {
    for (i, callback) in CALLBACKS.iter().enumerate() {
        out.metrics.set(
            &format!("{prefix}.{callback}.calls"),
            counts.calls[i] as f64,
        );
    }
    out.metrics.set(
        &format!("{prefix}.ns_per_llc_access"),
        busy_ns / llc_accesses.max(1) as f64,
    );
    for (rrpv, n) in counts.insert_rrpv.iter().enumerate() {
        out.metrics
            .set(&format!("{prefix}.insert_rrpv{rrpv}"), *n as f64);
    }
    out.metrics
        .set(&format!("{prefix}.bypass"), counts.bypass as f64);
}

/// The traced pass: every policy once on `prepared`, first untraced (serially, through
/// the product's `evaluate_prepared`), then on the simulator directly with timed
/// sources and a timed policy. Sets the `cache_sim.run.*`, simulated-stall, policy,
/// `mc_metrics.*`, `experiments.cell*` and `trace.*` metrics; `source_layer` names the
/// crate the trace records come from (`workloads` live, `trace_io` replayed).
#[allow(clippy::too_many_arguments)]
pub fn trace_cells(
    tracer: &mut Tracer,
    bracket: &Bracket,
    config: &SystemConfig,
    prepared: &MaterializedMixStreams,
    policies: &[PolicyKind],
    instructions: u64,
    tseed: u64,
    source_layer: &'static str,
    out: &mut Outcome,
) -> TracedCells {
    // Untraced reference: latency per cell, and the results the traced pass must match.
    let mut cell_ms = Vec::new();
    let mut evals = Vec::new();
    for &policy in policies {
        let t = Instant::now();
        let built = policy.build_dispatch(config, &prepared.mix().thrashing_slots());
        evals.push(evaluate_prepared(
            config,
            prepared,
            policy,
            built,
            instructions,
            tseed,
        ));
        cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let untraced_s = cell_ms.iter().sum::<f64>() / 1e3;

    let mut traced_s = 0.0;
    let (mut records, mut sim_instructions, mut final_cycles) = (0u64, 0u64, 0u64);
    let (mut run_ns, mut run_self_ns, mut source_ns) = (0.0, 0.0, 0.0);
    let mut llc_accesses = 0u64;
    let mut min_coverage = 1.0f64;
    let mut metrics_calls = Busy::default();
    let (mut queue, mut admission, mut mshr, mut nuca) = (0u64, 0u64, 0u64, 0u64);
    let (mut dram_queue, mut row_conflicts, mut pins) = (0u64, 0u64, 0u64);

    for (i, (&policy, eval)) in policies.iter().zip(&evals).enumerate() {
        let group = i as u64 + 1;
        let cell_started = Instant::now();
        let cell = tracer.begin(
            &format!("cell {}", policy.label()),
            "experiments",
            None,
            group,
        );

        let build = tracer.begin("build policy + cursors", "experiments", Some(cell), group);
        let source_sink = wrap::sink::<Busy>();
        let policy_sink = wrap::sink::<PolicyCounts>();
        let built = TimedPolicy::wrap(
            policy.build_dispatch(config, &prepared.mix().thrashing_slots()),
            &policy_sink,
        );
        let traces = prepared
            .sources()
            .into_iter()
            .map(|s| TimedSource::wrap(s, &source_sink))
            .collect();
        let mut system = MultiCoreSystem::new(config.clone(), traces, built);
        tracer.end(build);

        let run = tracer.begin("MultiCoreSystem::run", "cache_sim", Some(cell), group);
        let results = system.run(instructions);
        tracer.end(run);
        pins += system
            .dram()
            .bank_stats()
            .iter()
            .map(|b| b.starvation_pins)
            .sum::<u64>();
        drop(system); // flushes the wrappers' totals into the sinks

        let source_busy = wrap::drain(&source_sink);
        let counts = wrap::drain(&policy_sink);
        let policy_busy = Busy {
            calls: counts.total_calls(),
            ns: counts.ns,
        };
        let (src_ns, pol_ns) = (bracket.busy_ns(source_busy), bracket.busy_ns(policy_busy));
        let brackets = source_busy.calls + policy_busy.calls;
        let bracket_ns = brackets as f64 * bracket.wall_ns;
        tracer.add_busy(
            "next_access (aggregated)",
            source_layer,
            run,
            0,
            src_ns as u64,
        );
        tracer.add_busy(
            "policy callbacks (aggregated)",
            policy_layer(policy),
            run,
            src_ns as u64,
            pol_ns as u64,
        );
        tracer.add_busy(
            "timer brackets (aggregated)",
            "trace",
            run,
            (src_ns + pol_ns) as u64,
            bracket_ns as u64,
        );

        let metrics = tracer.begin("MulticoreMetrics::compute", "mc_metrics", Some(cell), group);
        let t = Instant::now();
        let shared: Vec<f64> = results.per_core.iter().map(|c| c.ipc()).collect();
        let alone: Vec<f64> = eval.per_app.iter().map(|a| a.ipc_alone).collect();
        let computed = black_box(MulticoreMetrics::compute(&shared, &alone));
        metrics_calls.ns += t.elapsed().as_nanos() as u64;
        metrics_calls.calls += 1;
        tracer.end(metrics);
        tracer.end(cell);
        traced_s += cell_started.elapsed().as_secs_f64();

        // The wrappers must not have changed the simulation.
        out.check(
            results.final_cycle == eval.final_cycle
                && results.llc_global == eval.llc_global
                && results.llc_banks == eval.llc_banks
                && results.core_stalls == eval.core_stalls
                && shared
                    .iter()
                    .zip(&eval.per_app)
                    .all(|(ipc, app)| *ipc == app.ipc)
                && computed.weighted_speedup == eval.metrics.weighted_speedup,
            || {
                format!(
                    "traced run of {} differs from the untraced evaluation",
                    policy.label()
                )
            },
        );

        let cell_ns = tracer.duration_ns(cell) as f64;
        min_coverage = min_coverage.min(1.0 - tracer.self_ns(cell) as f64 / cell_ns.max(1.0));
        let by_layer: Vec<String> = tracer
            .self_by_layer(cell)
            .iter()
            .map(|(layer, ns)| format!("{layer} {:.1}", *ns as f64 / 1e6))
            .collect();
        out.notes.push(format!(
            "traced cell {}: {:.1} ms; self time by layer, ms: {}",
            policy.label(),
            cell_ns / 1e6,
            by_layer.join(", ")
        ));
        let this_run = bracket.enclosing_ns(tracer.duration_ns(run) as f64, brackets);
        run_ns += this_run;
        run_self_ns += (this_run - src_ns - pol_ns).max(0.0);
        source_ns += src_ns;
        records += source_busy.calls;
        sim_instructions += results.per_core.iter().map(|c| c.instructions).sum::<u64>();
        final_cycles += results.final_cycle;
        // `on_access` fires for every demand access of the whole run; the per-core
        // statistics stop at each core's instruction target.
        llc_accesses += counts.calls[0];
        queue += results.llc_global.bank_queue_cycles;
        admission += results.llc_global.bank_admission_stall_cycles;
        mshr += results.llc_global.mshr_stall_cycles;
        nuca += results.llc_global.nuca_cycles;
        dram_queue += results.dram.queue_cycles;
        row_conflicts += results.dram.row_conflicts;

        match policy {
            PolicyKind::TaDrrip => set_policy_metrics(
                out,
                "llc_policies.tadrrip",
                &counts,
                pol_ns,
                counts.calls[0],
            ),
            PolicyKind::AdaptBp32 => {
                set_policy_metrics(out, "adapt_core.bp32", &counts, pol_ns, counts.calls[0])
            }
            _ => {}
        }
    }

    let per_record = |ns: f64| ns / records.max(1) as f64;
    let m = &mut out.metrics;
    m.set("cache_sim.run.records", records as f64);
    m.set("cache_sim.run.instructions", sim_instructions as f64);
    m.set("cache_sim.run.final_cycle", final_cycles as f64);
    m.set("cache_sim.run.ns_per_record", per_record(run_ns));
    m.set("cache_sim.run.self_ns_per_record", per_record(run_self_ns));
    if source_layer == "trace_io" {
        m.set("trace_io.replay.records", records as f64);
        m.set("trace_io.replay.ns_per_record", per_record(source_ns));
    }
    m.set("cache_sim.llc.bank_queue_cycles", queue as f64);
    m.set(
        "cache_sim.llc.bank_admission_stall_cycles",
        admission as f64,
    );
    m.set("cache_sim.llc.mshr_stall_cycles", mshr as f64);
    m.set("cache_sim.llc.nuca_cycles", nuca as f64);
    m.set("cache_sim.dram.queue_cycles", dram_queue as f64);
    m.set("cache_sim.dram.row_conflicts", row_conflicts as f64);
    m.set("cache_sim.dram.starvation_pins", pins as f64);
    let imbalance: Vec<f64> = evals.iter().map(|e| e.stall_imbalance()).collect();
    m.set(
        "cache_sim.stall_imbalance",
        imbalance.iter().sum::<f64>() / imbalance.len() as f64,
    );
    m.set("mc_metrics.compute.calls", metrics_calls.calls as f64);
    m.set(
        "mc_metrics.compute.ns_per_call",
        metrics_calls.ns as f64 / metrics_calls.calls.max(1) as f64,
    );
    m.set("experiments.cells", policies.len() as f64);
    m.set("experiments.cell.p50_ms", stats::median(&cell_ms));
    m.set(
        "experiments.cell.max_ms",
        cell_ms.iter().copied().fold(0.0, f64::max),
    );
    m.set("trace.bracket_ns", bracket.wall_ns);
    m.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    m.set("trace.coverage_share", min_coverage);

    out.notes.push(format!(
        "{:.1} ns per trace record in MultiCoreSystem::run: {:.1} producing the record ({source_layer}), \
         {:.1} in policy callbacks, {:.1} in the simulator itself (bracket cost of {:.1} ns per call removed)",
        per_record(run_ns),
        per_record(source_ns),
        per_record(run_ns - run_self_ns - source_ns),
        per_record(run_self_ns),
        bracket.wall_ns,
    ));
    out.notes.push(format!(
        "{:.1} % of trace records reach the LLC; unattributed remainder of the worst traced cell: {:.2} %",
        100.0 * llc_accesses as f64 / records.max(1) as f64,
        100.0 * (1.0 - min_coverage),
    ));

    TracedCells {
        untraced_s,
        cycles_per_llc_access: (final_cycles / llc_accesses.max(1)).max(1),
        records_per_core: (records as usize / (policies.len() * config.num_cores)).max(1),
        sim_ns_per_record: per_record(run_ns - source_ns),
    }
}

/// `experiments.sweep.parallel_efficiency`: Σ serial cell time ÷ (workers × wall of the
/// parallel sweep over the same cells), the sweep's wall being the median of three.
pub fn parallel_efficiency(
    config: &SystemConfig,
    source: &MixSource,
    policies: &[PolicyKind],
    instructions: u64,
    tseed: u64,
    serial_s: f64,
    workers: usize,
) -> f64 {
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            timed_sweep(
                config,
                std::slice::from_ref(source),
                policies,
                instructions,
                tseed,
            )
            .1
        })
        .collect();
    serial_s / (workers as f64 * stats::median(&walls))
}

/// The traced run of a live-generator workload: the per-layer metrics.
pub fn trace_live(spec: &LiveSpec, opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let bracket = Bracket::calibrate();
    let tseed = trace_seed(opts.seed);
    let sets = spec.config.llc.geometry.num_sets();

    let t = Instant::now();
    let mixes = pinned_mixes(spec.study, spec.mixes);
    out.metrics
        .set("workloads.mixgen.ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    warm_alone_cache(&spec.config, &mixes, spec.instructions, tseed);
    out.metrics
        .set("experiments.alone_warm.ms", t.elapsed().as_secs_f64() * 1e3);

    let source = MixSource::synthetic(mixes[0].clone());
    let t = Instant::now();
    let prepared = source
        .materialize_with(sets, tseed, &ReplayConfig::default())
        .expect("synthetic mixes always materialize");
    out.metrics.set(
        "experiments.materialize.ms_per_mix",
        t.elapsed().as_secs_f64() * 1e3,
    );

    let cells = trace_cells(
        tracer,
        &bracket,
        &spec.config,
        &prepared,
        &spec.policies,
        spec.instructions,
        tseed,
        "workloads",
        &mut out,
    );

    let efficiency = parallel_efficiency(
        &spec.config,
        &source,
        &spec.policies,
        spec.instructions,
        tseed,
        cells.untraced_s,
        opts.host.workers,
    );
    out.metrics
        .set("experiments.sweep.parallel_efficiency", efficiency);

    stage::drive(
        tracer,
        &spec.config,
        mixes[0].trace_sources(sets, tseed),
        PolicyKind::TaDrrip.build_dispatch(&spec.config, &mixes[0].thrashing_slots()),
        "workloads",
        &cells,
        &mut out,
    );
    out
}
