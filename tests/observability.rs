//! Integration tests of the sim-obs instrumentation layer against the sweep engine:
//! profiling must never change results, serial and parallel runs must record the same
//! logical story, and exported profiles must be valid Chrome trace JSON.
//!
//! The flight recorder is process-global, so every test takes [`obs_lock`] and starts
//! from [`sim_obs::reset`].

mod lone_system;

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use cache_sim::MultiCoreSystem;
use experiments::runner::{
    evaluate_prepared, synthetic_capture_budget, warm_alone_cache, MixSource, ReplayConfig,
};
use experiments::{ExperimentScale, PolicyKind};
use sim_obs::{Drained, EventKind};
use trace_io::Corpus;
use workloads::{generate_mixes, StudyKind};

const INSTRUCTIONS: u64 = 20_000;
const SEED: u64 = 1;

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn policies() -> [PolicyKind; 3] {
    [PolicyKind::TaDrrip, PolicyKind::AdaptBp32, PolicyKind::Eaf]
}

/// The sweep's logical event multiset: (kind, cat, name, context) with counts, for the
/// sweep spans and simulator samples. Worker ids, timestamps and rayon scheduling events
/// are deliberately excluded — they legitimately differ between serial and parallel runs.
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
fn profiling_does_not_change_sweep_results() {
    let _guard = obs_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mixes = generate_mixes(StudyKind::Cores4, 2, scale.seed());
    let policies = policies();
    warm_alone_cache(&cfg, &mixes, INSTRUCTIONS, SEED);

    sim_obs::reset();
    let plain = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED);

    sim_obs::enable();
    let profiled = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED);
    sim_obs::disable();
    let drained = sim_obs::drain();

    assert!(
        drained.total_events() > 0,
        "profiled run must actually record events"
    );
    assert_eq!(plain.len(), profiled.len());
    for (a, b) in plain.iter().zip(&profiled) {
        assert_eq!(a.mix_id, b.mix_id);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.weighted_speedup(), b.weighted_speedup());
        assert_eq!(
            a.llc_global, b.llc_global,
            "LLC stats must be bit-identical"
        );
        assert_eq!(a.llc_banks, b.llc_banks, "bank stats must be bit-identical");
        assert_eq!(a.final_cycle, b.final_cycle, "timing must be bit-identical");
        for (p, q) in a.per_app.iter().zip(&b.per_app) {
            assert_eq!(p.ipc, q.ipc, "{}: IPC changed under profiling", p.name);
            assert_eq!(
                p.llc_mpki, q.llc_mpki,
                "{}: MPKI changed under profiling",
                p.name
            );
        }
    }
}

#[test]
fn serial_and_parallel_profiled_sweeps_tell_the_same_story() {
    let _guard = obs_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mixes = generate_mixes(StudyKind::Cores4, 2, scale.seed());
    let policies = policies();
    warm_alone_cache(&cfg, &mixes, INSTRUCTIONS, SEED);

    sim_obs::reset();
    sim_obs::enable();
    let serial = rayon::with_worker_limit(1, || {
        lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED)
    });
    sim_obs::disable();
    let serial_events = logical_events(&sim_obs::drain());

    sim_obs::reset();
    sim_obs::enable();
    let parallel = rayon::with_worker_limit(4, || {
        lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED)
    });
    sim_obs::disable();
    let parallel_events = logical_events(&sim_obs::drain());

    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.weighted_speedup(), b.weighted_speedup());
    }
    assert!(
        serial_events
            .keys()
            .any(|(_, cat, name, _)| *cat == "sweep" && *name == "simulate"),
        "sweep spans missing from the serial profile"
    );
    assert!(
        serial_events.keys().any(|(kind, _, _, _)| kind == "Sample"),
        "interval samples missing from the serial profile"
    );
    assert_eq!(
        serial_events, parallel_events,
        "serial and parallel sweeps must record the same logical span/sample multiset \
         (modulo worker ids and timestamps)"
    );
}

/// A sample reads every core at each LLC interval rollover, as of its last in-order
/// record, from the run that ships: two sampled runs of the same system emit the same
/// `interval.core` rows, value for value, with the results of an unsampled run.
#[test]
fn sampled_runs_of_one_system_emit_identical_interval_core_rows() {
    let _guard = obs_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mix = &generate_mixes(StudyKind::Cores4, 1, scale.seed())[0];
    let run = || {
        let policy = PolicyKind::TaDrrip.build_dispatch(&cfg, &mix.thrashing_slots());
        let sources = mix.trace_sources(cfg.llc.geometry.num_sets(), SEED);
        let results = MultiCoreSystem::new(cfg.clone(), sources, policy).run(INSTRUCTIONS);
        format!("{results:?}")
    };
    let sampled = || {
        sim_obs::reset();
        sim_obs::enable();
        let results = run();
        sim_obs::disable();
        let rows: Vec<Vec<f64>> = sim_obs::drain()
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == EventKind::Sample && e.name == "interval.core")
            .map(|e| e.vals[..e.n_vals as usize].to_vec())
            .collect();
        (results, rows)
    };

    sim_obs::reset();
    let plain = run();
    let (first, first_rows) = sampled();
    let (second, second_rows) = sampled();
    assert!(
        first_rows.len() >= cfg.num_cores,
        "the run must complete an interval"
    );
    assert_eq!(first_rows, second_rows);
    assert_eq!(plain, first);
    assert_eq!(plain, second);
}

/// "Was the private stage shared, and what did it cost?": every mix of a profiled
/// sweep — generated live or replayed from a corpus — reports its stages once, under
/// its own context: as many cursors as policies, over one pass of record production.
#[test]
fn profiled_sweep_reports_each_mix_shared_stages_once() {
    let _guard = obs_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mixes = generate_mixes(StudyKind::Cores4, 2, scale.seed());
    let policies = policies();
    warm_alone_cache(&cfg, &mixes, INSTRUCTIONS, SEED);
    let dir = std::env::temp_dir().join("e2e_obs_stage_counters");
    std::fs::remove_dir_all(&dir).ok();
    let (corpus, _) = Corpus::materialize(
        &dir,
        "obs",
        &mixes,
        cfg.llc.geometry.num_sets(),
        SEED,
        synthetic_capture_budget(INSTRUCTIONS),
    )
    .unwrap();

    for replayed in [false, true] {
        sim_obs::reset();
        sim_obs::enable();
        if replayed {
            let replay = ReplayConfig::default();
            lone_system::corpus_grid(&cfg, &corpus, &policies, INSTRUCTIONS, &replay).unwrap();
        } else {
            lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED);
        }
        sim_obs::disable();
        let drained = sim_obs::drain();

        let mut counters: BTreeMap<(String, &'static str), Vec<f64>> = BTreeMap::new();
        for event in drained.threads.iter().flat_map(|t| &t.events) {
            if event.kind == EventKind::Counter && event.name.starts_with("stage.") {
                assert_eq!(event.cat, "sweep");
                let ctx = drained.context(event.ctx).to_string();
                counters
                    .entry((ctx, event.name))
                    .or_default()
                    .push(event.value);
            }
        }
        assert_eq!(counters.len(), 5 * mixes.len(), "{counters:?}");
        for mix in &mixes {
            let value = |name| match counters.get(&(format!("mix{}", mix.id), name)) {
                Some(values) if values.len() == 1 => values[0],
                other => panic!("mix {}: {name} recorded {other:?}", mix.id),
            };
            assert_eq!(value("stage.cursors"), policies.len() as f64);
            assert_eq!(value("stage.handovers"), 0.0);
            // The recorder changes no stage: events coalesce records as they do unprofiled.
            let (records, events) = (value("stage.records"), value("stage.events"));
            assert!(0.0 < events && events <= records);
            // 32 bytes an event, plus the write-back side arrays.
            let event_bytes = std::mem::size_of::<cache_sim::private::Event>() as f64;
            assert!(value("stage.memo_bytes") >= event_bytes * events);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The recorder is not part of a stage's key: one materialized mix evaluated unprofiled
/// and then profiled builds one stage per stream, which the profiled evaluation replays
/// without drawing a record more.
#[test]
fn a_half_profiled_process_builds_one_stage_per_stream() {
    let _guard = obs_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mix = generate_mixes(StudyKind::Cores4, 1, scale.seed()).remove(0);
    warm_alone_cache(&cfg, std::slice::from_ref(&mix), INSTRUCTIONS, SEED);
    let prepared = MixSource::synthetic(mix)
        .materialize_with(cfg.llc.geometry.num_sets(), SEED, &ReplayConfig::default())
        .unwrap();
    let evaluate = || {
        let kind = PolicyKind::TaDrrip;
        let built = kind.build_dispatch(&cfg, &prepared.mix().thrashing_slots());
        evaluate_prepared(&cfg, &prepared, kind, built, INSTRUCTIONS, SEED)
    };

    sim_obs::reset();
    let plain = evaluate();
    let unprofiled = prepared.stage_usage();
    sim_obs::enable();
    let profiled = evaluate();
    sim_obs::disable();
    sim_obs::reset();

    assert_eq!(plain.final_cycle, profiled.final_cycle);
    for (before, after) in unprofiled.iter().zip(prepared.stage_usage()) {
        assert_eq!(after.cursors, 2, "one cursor per evaluation");
        assert_eq!(
            (after.records, after.events, after.chunks),
            (before.records, before.events, before.chunks),
            "the profiled evaluation built a second stage"
        );
    }
}

#[test]
fn exported_profile_is_perfetto_loadable_and_complete() {
    let _guard = obs_lock();
    let scale = ExperimentScale::Smoke;
    let cfg = scale.system_config(StudyKind::Cores4);
    let mixes = generate_mixes(StudyKind::Cores4, 1, scale.seed());
    let policies = policies();
    warm_alone_cache(&cfg, &mixes, INSTRUCTIONS, SEED);

    let dir = std::env::temp_dir().join("e2e_obs_profile");
    std::fs::remove_dir_all(&dir).ok();

    sim_obs::reset();
    sim_obs::enable();
    let _ = lone_system::grid(&cfg, &mixes, &policies, INSTRUCTIONS, SEED);
    sim_obs::disable();
    let report = sim_obs::export_profile(&dir).expect("profile export");
    assert!(report.events > 0);
    assert!(report.trace_events > 0);
    assert!(report.csv_rows > 0, "interval samples must reach the CSV");

    // The exporter validated the trace before writing; re-validate from disk anyway so
    // the test holds the file, not the exporter's in-memory copy, to the schema.
    let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
    let events = sim_obs::validate_chrome_trace(&trace).expect("schema-valid trace.json");
    assert_eq!(events, report.trace_events);
    let parsed = sim_obs::JsonValue::parse(&trace).expect("trace.json parses");
    assert!(parsed.as_array().is_some_and(|a| !a.is_empty()));

    let csv = std::fs::read_to_string(dir.join("intervals.csv")).unwrap();
    let mut lines = csv.lines();
    let header = lines.next().expect("csv header");
    for col in ["context", "series", "tid", "ts_us", "ipc", "llc_mpki"] {
        assert!(header.split(',').any(|c| c == col), "missing column {col}");
    }
    assert_eq!(lines.count(), report.csv_rows);

    let summary = std::fs::read_to_string(dir.join("summary.txt")).unwrap();
    assert!(
        summary.contains("sweep/simulate"),
        "summary lists sweep spans"
    );
    assert!(
        summary.contains("interval.core"),
        "summary lists sample series"
    );

    std::fs::remove_dir_all(&dir).ok();
}
