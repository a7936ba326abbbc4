//! The draw contract of a lone system: how many records `run` asks a one-core system's
//! trace source for, against what the per-record oracle (`tests/oracle/`) consumes.
//!
//! Every stage draws in chunks, so a system may ask its sources for more records than
//! the oracle consumes; `reference_identity.rs` bounds that
//! (`run_ahead_overfetch_is_bounded_per_core`). A lone one-core system whose stage no
//! thread reads ahead asks for exactly the oracle's records: its last chunk ends at the
//! event that reaches the instruction target, and `run` fetches nothing after the
//! snapshot that ends it. This binary holds that one test, so no other test's cursor can
//! serve the read-ahead queue while it runs, and it counts every hardware thread as busy
//! with a run, so the read-ahead thread serves nothing either.

mod oracle;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use adapt_llc::experiments::{ExperimentScale, PolicyKind};
use adapt_llc::sim::config::SystemConfig;
use adapt_llc::sim::stats::CoreStats;
use adapt_llc::sim::system::MultiCoreSystem;
use adapt_llc::sim::trace::{MemAccess, StridedTrace, TraceSource};
use adapt_llc::workloads::{generate_mixes, StudyKind};
use oracle::NaiveSystem;

const INSTRUCTIONS: u64 = 20_000;
const SEED: u64 = 1;

/// Counts the records the simulator asks a source for.
struct Counted {
    inner: Box<dyn TraceSource>,
    fetched: Arc<AtomicU64>,
}

impl TraceSource for Counted {
    fn next_access(&mut self) -> MemAccess {
        self.fetched.fetch_add(1, Ordering::Relaxed);
        self.inner.next_access()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A stream that announces its first record and waits until it is let go, or until the
/// test hangs up.
struct Parked {
    inner: StridedTrace,
    stall: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
}

impl TraceSource for Parked {
    fn next_access(&mut self) -> MemAccess {
        if let Some((reached, release)) = self.stall.take() {
            reached.send(()).unwrap();
            let _ = release.recv();
        }
        self.inner.next_access()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// One `run` per hardware thread, each parked on its first record until the value is
/// dropped: while it lives, the read-ahead thread counts no idle hardware thread.
struct Occupied {
    release: Vec<mpsc::Sender<()>>,
    runs: Vec<JoinHandle<()>>,
}

impl Drop for Occupied {
    fn drop(&mut self) {
        self.release.clear();
        for run in self.runs.drain(..) {
            run.join().unwrap();
        }
    }
}

fn occupy_hardware_threads() -> Occupied {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut occupied = Occupied {
        release: Vec::new(),
        runs: Vec::new(),
    };
    for _ in 0..threads {
        let (reached, reached_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let parked = Parked {
            inner: StridedTrace::new(0, 64, 4096, 3),
            stall: Some((reached, release_rx)),
        };
        occupied.runs.push(std::thread::spawn(move || {
            let traces: Vec<Box<dyn TraceSource>> = vec![Box::new(parked)];
            let config = SystemConfig::tiny(1);
            let policy = PolicyKind::Srrip.build_dispatch(&config, &[]);
            MultiCoreSystem::new(config, traces, policy).run(1_000);
        }));
        occupied.release.push(release);
        reached_rx.recv().expect("the run reaches its first record");
    }
    occupied
}

/// Each application of an 8-core mix alone, built while `sim_obs` records and while it
/// does not: the system's results are the oracle's and it drew exactly the records the
/// oracle did.
#[test]
fn a_lone_core_draws_exactly_the_records_the_oracle_consumes() {
    let _busy = occupy_hardware_threads();
    let scale = ExperimentScale::Smoke;
    let mut cfg = scale.system_config(StudyKind::Cores8);
    let mix = &generate_mixes(StudyKind::Cores8, 1, scale.seed())[0];
    let llc_sets = cfg.llc.geometry.num_sets();
    cfg.num_cores = 1;
    let build = || PolicyKind::TaDrrip.build_dispatch(&cfg, &[]);
    let counted = |core: usize| {
        let fetched = Arc::new(AtomicU64::new(0));
        let source = Counted {
            inner: mix.trace_source(core, llc_sets, SEED),
            fetched: fetched.clone(),
        };
        (vec![Box::new(source) as Box<dyn TraceSource>], fetched)
    };
    for sampled in [false, true] {
        for core in 0..mix.study.num_cores() {
            let (sources, fetched) = counted(core);
            let reference =
                NaiveSystem::new(cfg.clone(), sources, Box::new(build())).run(INSTRUCTIONS);
            let consumed = fetched.load(Ordering::Relaxed);

            let (sources, fetched) = counted(core);
            if sampled {
                sim_obs::enable();
            }
            let mut system = MultiCoreSystem::new(cfg.clone(), sources, build());
            sim_obs::disable();
            let fast = system.run(INSTRUCTIONS);
            drop(system);
            let (fast, reference) = (&fast.per_core[0], &reference.per_core[0]);
            let seen = |c: &CoreStats| (c.instructions, c.cycles, c.l1d, c.l2, c.dram_reads);
            assert_eq!(seen(fast), seen(reference), "core {core}");
            assert_eq!(fast.llc.demand_misses, reference.llc.demand_misses);
            assert_eq!(
                fetched.load(Ordering::Relaxed),
                consumed,
                "core {core}, sampled {sampled}: the system drew another count than the oracle"
            );
        }
    }
    sim_obs::reset();
}
