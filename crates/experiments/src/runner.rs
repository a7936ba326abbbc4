//! Workload execution engine shared by every experiment.
//!
//! The runner turns (system configuration, workload mix, policy) triples into
//! [`MixEvaluation`]s: per-application IPC and MPKI plus the multi-programmed metrics of
//! `mc-metrics`, with the weighted speedup normalized by cached single-application
//! ("alone") runs exactly as the paper does.
//!
//! # The corpus-backed sweep engine
//!
//! A sweep evaluates P policies over M mixes. The naive path regenerates (or re-reads
//! and re-decodes) every mix's access streams P times, so sweep cost grows as P × M in
//! *stream production* as well as simulation. The grid engine
//! ([`sweep_policies_on_sources_with`], fed synthetic or replayed mixes alike) instead
//! materializes each mix's streams exactly once and fans the (policy × mix) grid out
//! across rayon workers. The policies of a sweep differ only at
//! the shared LLC, and what a core's private hierarchy does is a function of its trace
//! alone, so each core's stream — a live generator, or blocks streamed from the mapping
//! of a `.atrc` file — feeds one shared private stage (`cache_sim::private`): record
//! production, L1, L2 and prefetcher run once per mix, M times per sweep instead of
//! P × M, and every policy's system replays the stage's memoized events. Every mix's
//! memo, with a replayed mix's decode buffers, stays within one budget
//! ([`ReplayConfig`]); an evaluation that outruns it finishes on stages of its own.
//! Mixes are materialized in bounded windows so peak memory stays at a few mixes
//! regardless of sweep size, and results are emitted in deterministic (mix, policy)
//! order no matter how many workers run.
//!
//! Workloads come from two provenances, unified by [`MixSource`]: live synthetic
//! generators ([`MixSource::synthetic`]) and captured binary traces replayed from disk
//! ([`MixSource::replayed_with_id`], backed by `trace-io`); [`corpus_sources`] opens a
//! whole materialized [`Corpus`] as such sources. Every
//! evaluation reaches the simulator one way only — [`MixSource::materialize_with`]
//! prepares the mix once (a replayed mix's stages stream it from the mapping a block at
//! a time under [`ReplayConfig`], the one replay knob), and [`evaluate_prepared`] (or
//! [`evaluate_prepared_system`], which also hands back the system) runs a policy over
//! the shared stages — so no file I/O sits inside the simulator loop beyond the mapping,
//! and no evaluation simulates again a private hierarchy that another evaluation of the
//! same mix has simulated. A block that fails its checksum while a cell replays it comes
//! back from the sweep as a [`TraceError`] ([`sweep_policies_on_sources_with`] is the
//! boundary): a sweep returns a typed error or the bit-identical answer. Only the blocks
//! a run reads are verified; checking a whole file is `tracectl stats`' job. Because
//! capture is lossless and generators reset exactly, both provenances of the same mix
//! produce bit-identical per-application IPC/MPKI — and the parallel grid produces
//! bit-identical results to lone systems that share nothing (each built over fresh
//! generators and run one at a time), which the workspace tests enforce (also under
//! the contended bank model — see `cache_sim::bank`). The one caveat is a corpus whose
//! capture budget is smaller than the run: its streams wrap (the paper's re-execution
//! semantics), which the engine counts in passes over each stream
//! ([`MaterializedMixStreams::replay_wraps`]), returns in the structured
//! [`SweepOutcome::mix_wraps`] and echoes on stderr rather than letting the divergence
//! pass silently.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rayon::prelude::*;

use adapt_core::{AdaptConfig, AdaptPolicy};
use cache_sim::config::SystemConfig;
use cache_sim::private::{MemoPool, SharedStage, SharedStageUsage, StageCursor, StageParams};
use cache_sim::replacement::LlcReplacementPolicy;
use cache_sim::single::run_alone;
use cache_sim::stats::SystemResults;
use cache_sim::system::MultiCoreSystem;
use cache_sim::trace::{replay_fault_from, ArenaReplayTrace, MemAccess, TraceSource};
use llc_policies::TaDrripPolicy;
use mc_metrics::MulticoreMetrics;
use trace_io::{Corpus, MappedStreamDecoder, MappedTrace, TraceError, TraceHeader};
use workloads::{benchmark_by_name, StudyKind, WorkloadMix};

use crate::policies::{AnyPolicy, PolicyKind};

/// Outcome for one application inside one evaluated mix.
#[derive(Debug, Clone)]
pub struct PerAppOutcome {
    /// Benchmark name (Table 4 identifier).
    pub name: String,
    /// Core the application ran on.
    pub core_id: usize,
    /// Instructions per cycle achieved inside the mix.
    pub ipc: f64,
    /// IPC of the application running alone on the same hierarchy.
    pub ipc_alone: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Whether the application is classified as thrashing (Footprint-number >= 16).
    pub is_thrashing: bool,
}

impl PerAppOutcome {
    /// IPC normalized to the application's alone run.
    pub fn normalized_ipc(&self) -> f64 {
        if self.ipc_alone > 0.0 {
            self.ipc / self.ipc_alone
        } else {
            0.0
        }
    }
}

/// Result of running one policy on one workload mix.
#[derive(Debug, Clone)]
pub struct MixEvaluation {
    /// Id of the evaluated mix.
    pub mix_id: usize,
    /// Policy that was evaluated.
    pub policy: PolicyKind,
    /// Figure-legend label of `policy` ([`PolicyKind::label`], which
    /// [`PolicyKind::parse`] inverts) — the name every report and served body prints.
    pub policy_label: String,
    /// One outcome per application, in core order.
    pub per_app: Vec<PerAppOutcome>,
    /// Multi-programmed metrics over the whole mix.
    pub metrics: MulticoreMetrics,
    /// Whole-LLC statistics of the shared run (MSHR stalls, bank queue cycles, ...).
    pub llc_global: cache_sim::llc::LlcGlobalStats,
    /// Per-bank LLC occupancy/stall statistics of the shared run, indexed by bank.
    pub llc_banks: Vec<cache_sim::bank::BankStats>,
    /// Per-core memory-system stall attribution (LLC bank queue/admission, MSHR,
    /// DRAM bank queue/admission), indexed by core.
    pub core_stalls: Vec<cache_sim::stats::CoreStallAttribution>,
    /// Cycle at which the last application reached its instruction target.
    pub final_cycle: u64,
}

impl MixEvaluation {
    /// Weighted speedup of this (mix, policy) pair.
    pub fn weighted_speedup(&self) -> f64 {
        self.metrics.weighted_speedup
    }

    /// Fairness (min/max normalized IPC) of this (mix, policy) pair.
    pub fn fairness(&self) -> f64 {
        self.metrics.fairness
    }

    /// Share of total LLC bank time requests spent stalled rather than in service
    /// (`stall / (stall + busy)` summed over banks; 0 with no LLC traffic).
    pub fn bank_stall_share(&self) -> f64 {
        cache_sim::bank::aggregate_stall_share(&self.llc_banks)
    }

    /// Max/mean imbalance ([`mc_metrics::stall_imbalance`]) of the per-core attributed
    /// stall cycles (LLC bank queue/admission, MSHR, DRAM bank queue/admission); 1.0
    /// means perfectly balanced.
    pub fn stall_imbalance(&self) -> f64 {
        let totals: Vec<u64> = self.core_stalls.iter().map(|c| c.total()).collect();
        mc_metrics::stall_imbalance(&totals)
    }
}

/// The memory budget of a materialized mix, whatever its provenance: the event memo of
/// its shared private stages and, for a replayed mix, its decode buffers together.
///
/// A mix's streams come in two kinds, chosen by the source's provenance — never by an
/// option, and never by size: synthetic mixes are generated on demand (`Lazy`); a
/// replayed mix is streamed from its mapping one block at a time (`Streamed`: a
/// [`MappedStreamDecoder`] under `cache_sim::trace::ArenaReplayTrace`), each block
/// decoding on whichever thread drives the stage — its read-ahead thread for a lone
/// evaluation, a sweep worker otherwise (for its own cell or, as a helper, for another).
/// A stream of one block is decoded once and loops in place, so a hand-imported corpus
/// pays nothing per pass. Either kind, each core's stream feeds one shared private
/// stage, built by the first evaluation, and every evaluation replays its events: a
/// materialization serves one machine ([`StageParams`]).
///
/// The budget is split per mix. A replayed mix holds one decoded block per core plus its
/// decompression scratch — the stage is the records' only consumer, and reads them a
/// chunk of events at a time — charged at twice the core's largest block (24 B a
/// [`MemAccess`]) whatever the budget; a generator holds none. The event memos get what
/// is left, as one `cache_sim::private::MemoPool` per mix that the stages of every core
/// draw on in the order they need it — each a checkpoint of its caches first, then
/// chunks of events — so a streaming core may take what a cache-resident one leaves;
/// they register what they take in the same arena accounting
/// (`cache_sim::trace::arena_peak_bytes`). When the pool runs out, at a point in the
/// run's global time, the stage that finds it dry stops retaining, and an evaluation
/// that runs off that stage's retained events finishes its core on a sole stage of its
/// own: a clone of the stage's checkpoint over a fresh source that starts where the memo
/// stops — a replayed stream seeks there, a generator is run forward — with decode
/// buffers of its own for as long as it runs. Nothing the memo holds is simulated
/// again, however long the run; what lies past it is simulated again by every
/// evaluation that reaches it. Results are bit-identical at every budget — the runner's
/// tests, `tests/corpus_sweep.rs` and `tests/reference_identity.rs` enforce it — so the
/// budget only trades memory against work done once, never results.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Memory budget in bytes of one materialized mix: event memo plus, for a replayed
    /// mix, decode buffers (default 256 MiB). A corpus's records stay in the mapping and a
    /// generator's are never stored, so sweeps run in constant memory however long the
    /// run and however large the corpus.
    pub arena_budget_bytes: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            arena_budget_bytes: 256 << 20,
        }
    }
}

const RECORD_BYTES: u64 = std::mem::size_of::<MemAccess>() as u64;

/// What `trace`'s decode buffers take of a mix's budget: per core, one block of its
/// largest and a decompression scratch that holds a block's encoded records — less than
/// a block — charged as a second block.
fn decode_buffer_bytes(trace: &MappedTrace) -> u64 {
    let cores = 0..trace.header().cores.len();
    let records: usize = cores.map(|core| trace.largest_block_records(core)).sum();
    2 * records as u64 * RECORD_BYTES
}

/// Where a mix's per-core access streams come from.
///
/// The runner itself is provenance-agnostic: [`MixSource::materialize_with`] yields
/// [`MaterializedMixStreams`] either way, and everything downstream (system
/// construction, stats, metrics) is shared.
#[derive(Debug, Clone)]
pub enum MixSource {
    /// Live in-process generators, constructed per run (the seed behaviour).
    Synthetic(WorkloadMix),
    /// A captured `.atrc` corpus replayed from disk; `mix` is reconstructed from the
    /// file's per-core labels so alone-run normalization and reports keep working.
    Replayed {
        /// The trace file backing this mix.
        path: PathBuf,
        /// Mix identity reconstructed from the file (benchmark names per core).
        mix: WorkloadMix,
    },
}

impl MixSource {
    /// Wrap a live synthetic mix.
    pub fn synthetic(mix: WorkloadMix) -> Self {
        MixSource::Synthetic(mix)
    }

    /// Open a captured trace file as a mix source under `mix_id`, preserved into
    /// [`MixEvaluation::mix_id`] — corpus sweeps use the manifest's ids so per-mix
    /// baselines line up across policies; a lone file takes 0.
    ///
    /// The file's core labels must name Table 4 benchmarks (which `tracectl capture` and
    /// `trace_io::capture_mix` guarantee) and the core count must match one of the
    /// paper's studies, so that alone-run normalization has a generator to run.
    pub fn replayed_with_id(path: impl AsRef<Path>, mix_id: usize) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let header = trace_io::read_header(&path)?;
        let cores = header.cores.len();
        let study = StudyKind::by_cores(cores).map_err(TraceError::Corrupt)?;
        for core in &header.cores {
            if benchmark_by_name(&core.label).is_none() {
                return Err(TraceError::Corrupt(format!(
                    "core label {:?} is not a Table 4 benchmark; cannot normalize",
                    core.label
                )));
            }
        }
        let mix = WorkloadMix {
            id: mix_id,
            study,
            benchmarks: header.cores.iter().map(|c| c.label.clone()).collect(),
        };
        Ok(MixSource::Replayed { path, mix })
    }

    /// The mix this source realizes (benchmark names per core).
    pub fn mix(&self) -> &WorkloadMix {
        match self {
            MixSource::Synthetic(mix) => mix,
            MixSource::Replayed { mix, .. } => mix,
        }
    }

    /// Provenance tag for reports.
    pub fn provenance(&self) -> String {
        match self {
            MixSource::Synthetic(_) => "synthetic".to_string(),
            MixSource::Replayed { path, .. } => format!("replayed:{}", path.display()),
        }
    }

    /// Produce this mix's streams exactly once, shared across any number of policies.
    ///
    /// Nothing is simulated, or decoded, yet: each core's stream becomes the input of its
    /// private stage ([`SharedStage`]), built by the first [`evaluate_prepared`] — records
    /// are produced and the L1/L2/prefetcher simulated on demand, once across the whole
    /// sweep, and every policy replays the resulting events. A synthetic mix's records
    /// come from its generators. A replayed file is mapped once (its framing checked
    /// there) and a stage decodes it one block at a time from the mapping, so memory
    /// stays constant however big the corpus is. Either way the stages' event memos and
    /// checkpoints get what the decode buffers (none for a generator) leave of
    /// `replay`'s budget (see [`ReplayConfig`]). An evaluation that outruns a full memo
    /// opens its own cursor where the memo stops: a replayed stream seeks there through
    /// the file's chunk index, a generator is run forward.
    ///
    /// A replayed file whose generators were sized for a different LLC set count would
    /// quietly realize a different workload, so a geometry mismatch is an error.
    pub fn materialize_with(
        &self,
        llc_sets: usize,
        seed: u64,
        replay: &ReplayConfig,
    ) -> Result<MaterializedMixStreams, TraceError> {
        let _ctx = if sim_obs::enabled() {
            Some(sim_obs::push_context(&format!("mix{}", self.mix().id)))
        } else {
            None
        };
        let _span = sim_obs::span("sweep", "materialize");
        // Each core's records, and the bytes their decode buffers take of the budget.
        let (records, buffer_bytes): (Vec<StreamRecords>, u64) = match self {
            // A generator decodes nothing: its memo gets the whole budget.
            MixSource::Synthetic(mix) => {
                let mix = Arc::new(mix.clone());
                let lazy = |slot| StreamRecords::Lazy {
                    mix: mix.clone(),
                    slot,
                    llc_sets,
                    seed,
                };
                ((0..mix.benchmarks.len()).map(lazy).collect(), 0)
            }
            MixSource::Replayed { path, .. } => {
                let trace = Arc::new(MappedTrace::open(path)?);
                check_geometry(path, trace.header(), llc_sets)?;
                let streamed = |core| {
                    // Constructing (and dropping) a cursor validates the stream up
                    // front, keeping `sources()` infallible.
                    MappedStreamDecoder::new(trace.clone(), core)?;
                    let trace = trace.clone();
                    Ok(StreamRecords::Streamed { trace, core })
                };
                let records = (0..trace.header().cores.len())
                    .map(streamed)
                    .collect::<Result<_, TraceError>>()?;
                (records, decode_buffer_bytes(&trace))
            }
        };
        // The event memos get what the decode buffers leave, as one pool every core's
        // stages draw on as they need it: a hungry stream may take what a light one
        // leaves, and where the pool runs dry is a point in the run's global time.
        let memo_pool = MemoPool::new(replay.arena_budget_bytes.saturating_sub(buffer_bytes));
        Ok(MaterializedMixStreams {
            mix: self.mix().clone(),
            memo_pool,
            streams: records.into_iter().map(MaterializedStream::new).collect(),
        })
    }
}

/// Reject a trace captured for a different LLC set count than the system has (0 in the
/// header means the capture recorded no geometry).
fn check_geometry(path: &Path, header: &TraceHeader, llc_sets: usize) -> Result<(), TraceError> {
    if header.llc_sets != 0 && header.llc_sets as usize != llc_sets {
        return Err(TraceError::Corrupt(format!(
            "corpus {} was captured for {} LLC sets but the system has {llc_sets}",
            path.display(),
            header.llc_sets,
        )));
    }
    Ok(())
}

/// Where one core's records come from (see [`MixSource::materialize_with`]).
#[derive(Clone)]
enum StreamRecords {
    /// Synthetic provenance: a live generator of the mix's core `slot` per reader. Never
    /// wraps.
    Lazy {
        mix: Arc<WorkloadMix>,
        slot: usize,
        llc_sets: usize,
        seed: u64,
    },
    /// Replayed provenance: zero-copy streamed from a shared memory-mapped corpus file
    /// one block at a time, decoded on the thread that reads it, in constant memory
    /// whatever the file's size. Wraps at the end of the stream, counted eagerly; a
    /// stream of one block is decoded once and loops in place.
    Streamed {
        trace: Arc<MappedTrace>,
        core: usize,
    },
}

impl StreamRecords {
    /// A fresh reader over the stream, standing at record `at` of the endless stream —
    /// as a reader from the first record does after `at` records, passes included — and
    /// folding the passes it completes into `wraps`. A replayed stream seeks there
    /// through the file's chunk index; a generator, which has no index, is run forward.
    fn source(&self, at: u64, wraps: Arc<AtomicU64>) -> Box<dyn TraceSource> {
        match self {
            StreamRecords::Lazy {
                mix,
                slot,
                llc_sets,
                seed,
            } => {
                let mut generator = mix.trace_source(*slot, *llc_sets, *seed);
                for _ in 0..at {
                    generator.next_access();
                }
                generator
            }
            StreamRecords::Streamed { trace, core } => {
                let mut decoder = MappedStreamDecoder::new(trace.clone(), *core)
                    .expect("stream was validated when materialized");
                let (passes, skip) = decoder.seek(at);
                let blocks = Box::new(decoder);
                Box::new(match at {
                    0 => ArenaReplayTrace::new(blocks, wraps),
                    _ => ArenaReplayTrace::resume(blocks, wraps, passes, skip),
                })
            }
        }
    }
}

/// One core's materialized stream: its records, and the private stage every evaluation
/// of the mix shares.
struct MaterializedStream {
    records: StreamRecords,
    /// The most passes any one reader completed over this stream. A non-zero count
    /// means some simulation outran the captured budget, i.e. the replay followed the
    /// paper's re-execution methodology instead of being bit-identical to an infinite
    /// generator.
    wraps: Arc<AtomicU64>,
    /// The one private stage, built by the first evaluation: configurations that differ
    /// only where it does not read (`interval_misses`, the LLC, the DRAM) share it. It
    /// owns the reader that feeds it, and what is memoized (and shared by every policy)
    /// is its events, not the records.
    stage: OnceLock<SharedStage>,
}

impl MaterializedStream {
    fn new(records: StreamRecords) -> Self {
        MaterializedStream {
            records,
            wraps: Arc::default(),
            stage: OnceLock::new(),
        }
    }

    /// What this stream's stage has cost so far (nothing before the first evaluation).
    fn stage_usage(&self) -> SharedStageUsage {
        self.stage.get().map(SharedStage::usage).unwrap_or_default()
    }
}

/// One mix's access streams, produced exactly once and shared across every policy of a
/// sweep (see [`MixSource::materialize_with`]).
pub struct MaterializedMixStreams {
    mix: WorkloadMix,
    /// What the event memos of every stream's stages retain from: what the decode
    /// buffers leave of the mix's budget (see [`ReplayConfig`]).
    memo_pool: Arc<MemoPool>,
    streams: Vec<MaterializedStream>,
}

impl MaterializedMixStreams {
    /// The mix these streams realize.
    pub fn mix(&self) -> &WorkloadMix {
        &self.mix
    }

    /// Records materialized per core so far: the stream's length for replayed streams;
    /// for synthetic ones, the records the core's shared private stage has drawn from its
    /// generator — the furthest consumer's high-water mark (rounded up to a chunk), not
    /// the sum over consumers. A cursor handed over past a full memo draws from a
    /// generator of its own, which is not counted here.
    pub fn records_per_core(&self) -> Vec<usize> {
        self.streams
            .iter()
            .map(|s| match &s.records {
                StreamRecords::Lazy { .. } => s.stage_usage().records as usize,
                StreamRecords::Streamed { trace, core, .. } => {
                    trace.header().cores[*core].records as usize
                }
            })
            .collect()
    }

    /// What sharing each core's private stage has cost so far, in core order: records
    /// drawn, events and bytes memoized, cursors handed out — one per core and
    /// evaluation — how many of them left a full memo, the chunks read ahead and the
    /// waits for a chunk in flight. Each stage is read once nothing is in flight or
    /// queued (see [`SharedStage::usage`]).
    pub fn stage_usage(&self) -> Vec<SharedStageUsage> {
        self.streams.iter().map(|s| s.stage_usage()).collect()
    }

    /// Σ over cores of the most passes any one reader completed over that core's
    /// stream — an evaluation counts a pass when it moves to the event whose records
    /// crossed the stream's end. Zero means no simulation ever outran the captured
    /// budget, i.e. the replay was bit-identical to an infinite-generator run; non-zero
    /// means the paper's re-execution semantics kicked in. The count does not grow with
    /// the number of policies evaluated, is the same at every budget and worker count,
    /// and leaves out what a shared stage drew ahead of its consumers. Synthetic streams
    /// never wrap.
    pub fn replay_wraps(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.wraps.load(Ordering::Relaxed))
            .sum()
    }

    /// One trace source per core, from its first record: a fresh cursor over the records
    /// of a replayed mix, a fresh live generator for a synthetic one. For callers that
    /// drive the private hierarchy themselves; [`evaluate_prepared`] does not come
    /// through here.
    pub fn sources(&self) -> Vec<Box<dyn TraceSource>> {
        self.streams
            .iter()
            .map(|s| s.records.source(0, s.wraps.clone()))
            .collect()
    }

    /// One cursor per core over the stage every evaluation of this mix shares, built
    /// under `params` on first use; panics if it was built under other `params`.
    fn stage_cursors(&self, params: &StageParams) -> Vec<StageCursor> {
        self.streams
            .iter()
            .map(|stream| {
                let stage = stream.stage.get_or_init(|| {
                    // The stage's readers report to no one: its cursors fold in the
                    // passes each consumer reached.
                    let records = stream.records.clone();
                    SharedStage::new(
                        *params,
                        move |at| records.source(at, Arc::default()),
                        self.memo_pool.clone(),
                        stream.wraps.clone(),
                    )
                });
                assert!(
                    stage.params() == params,
                    "mix {} was materialized for one machine: its stages model {:?}, this \
                     evaluation asks for {params:?}",
                    self.mix.id,
                    stage.params()
                );
                stage.cursor()
            })
            .collect()
    }

    /// What sharing the mix's private stages cost, as `stage.*` counters under the
    /// `mix<id>` context, and next to them what reading a replayed mix's file cost, as
    /// `trace-io`'s `decode.*` counters (`docs/observability.md`); nothing unless
    /// `sim_obs` is recording and the mix has been evaluated.
    fn record_stage_counters(&self) {
        if !sim_obs::enabled() {
            return;
        }
        let total: SharedStageUsage = self.stage_usage().into_iter().sum();
        if total.cursors == 0 {
            return;
        }
        let _ctx = sim_obs::push_context(&format!("mix{}", self.mix.id));
        sim_obs::counter("sweep", "stage.records", total.records as f64);
        sim_obs::counter("sweep", "stage.events", total.events as f64);
        sim_obs::counter("sweep", "stage.memo_bytes", total.memo_bytes as f64);
        // Every evaluation takes one cursor per core.
        let cores = self.streams.len() as u64;
        sim_obs::counter("sweep", "stage.cursors", (total.cursors / cores) as f64);
        sim_obs::counter("sweep", "stage.handovers", total.handovers as f64);
        // Every stream of a replayed mix reads the one mapping.
        if let Some(StreamRecords::Streamed { trace, .. }) =
            self.streams.first().map(|s| &s.records)
        {
            trace.emit_decode_counters();
        }
    }
}

/// Accesses to capture per core so that a corpus written to disk covers a run of
/// `instructions` instructions per core without wrapping.
///
/// Every access retires at least one instruction, and a core keeps contending on the
/// shared LLC after reaching its own target until the slowest co-runner finishes, so the
/// budget is 2× the instruction target — the same slack the capture↔replay equivalence
/// tests use. Within that budget a replayed corpus is bit-identical to live generators;
/// a corpus captured shorter wraps like the paper's re-execution methodology instead.
pub fn synthetic_capture_budget(instructions: u64) -> u64 {
    instructions.saturating_mul(2)
}

/// How many mixes to keep materialized at once: enough that the (mix, policy) grid can
/// occupy every worker (`window × policies >= threads`), few enough that peak memory
/// stays bounded at a handful of mixes. The cap of 8 only costs occupancy on hosts with
/// more than 8× as many threads as swept policies — rare for the 4-6 policy lineups the
/// figures use — while one materialized mix can take up to its whole budget
/// ([`ReplayConfig`]).
fn sweep_window(num_policies: usize) -> usize {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    threads.div_ceil(num_policies.max(1)).clamp(1, 8)
}

/// Everything an alone run depends on besides the benchmark: the single-core system
/// `run_alone` simulates, the instruction target and the generator seed. Comparing the
/// whole [`SystemConfig`] (rather than picking fields) means a field added to it later
/// cannot be forgotten here.
#[derive(Clone, PartialEq)]
struct AloneScope {
    config: SystemConfig,
    instructions: u64,
    seed: u64,
}

impl AloneScope {
    fn new(config: &SystemConfig, instructions: u64, seed: u64) -> Self {
        AloneScope {
            config: SystemConfig {
                num_cores: 1,
                ..config.clone()
            },
            instructions,
            seed,
        }
    }
}

/// Alone IPCs by benchmark name, per scope. A process sees a handful of scopes (one per
/// distinct configuration it evaluates), so they are searched linearly.
type AloneCache = Vec<(AloneScope, HashMap<String, f64>)>;

fn alone_cache() -> &'static Mutex<AloneCache> {
    static CACHE: OnceLock<Mutex<AloneCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// IPC of a benchmark running alone on `scope`'s hierarchy (single core, whole LLC),
/// memoized process-wide. The paper uses the same single-run normalization for its
/// weighted-speedup and fairness metrics.
fn alone_ipc(scope: &AloneScope, benchmark: &str) -> f64 {
    let cached = alone_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .find(|(s, _)| s == scope)
        .and_then(|(_, ipcs)| ipcs.get(benchmark).copied());
    if let Some(ipc) = cached {
        return ipc;
    }
    let _ctx = if sim_obs::enabled() {
        Some(sim_obs::push_context(&format!("alone/{benchmark}")))
    } else {
        None
    };
    let _span = sim_obs::span("sweep", "alone_run");
    let spec = benchmark_by_name(benchmark).expect("known benchmark");
    let geometry = &scope.config.llc.geometry;
    let llc_sets = geometry.num_sets();
    let trace = Box::new(spec.trace(0, llc_sets, scope.seed));
    let policy = TaDrripPolicy::new(llc_sets, geometry.ways, 1);
    let ipc = run_alone(&scope.config, trace, policy, scope.instructions).ipc();
    let mut cache = alone_cache().lock().unwrap_or_else(PoisonError::into_inner);
    let slot = cache
        .iter()
        .position(|(s, _)| s == scope)
        .unwrap_or_else(|| {
            cache.push((scope.clone(), HashMap::new()));
            cache.len() - 1
        });
    cache[slot].1.insert(benchmark.to_string(), ipc);
    ipc
}

/// Pre-compute alone-run IPCs for every distinct benchmark in `mixes`, in parallel.
pub fn warm_alone_cache(
    config: &SystemConfig,
    mixes: &[WorkloadMix],
    instructions: u64,
    seed: u64,
) {
    let mut names: Vec<String> = mixes.iter().flat_map(|m| m.benchmarks.clone()).collect();
    names.sort();
    names.dedup();
    let scope = AloneScope::new(config, instructions, seed);
    names.par_iter().for_each(|name| {
        let _ = alone_ipc(&scope, name);
    });
}

/// Run an explicitly constructed policy over already-materialized streams — the
/// inner step of the corpus sweep engine, also used by the ablation sweeps so every
/// configuration variant shares one materialization of each mix. The mix's private
/// hierarchy (record production, L1, L2, prefetcher) is simulated once and shared by
/// every call, whatever the provenance; past what a core's stage retained of the mix's
/// memo pool the call finishes that core on a stage of its own (see [`ReplayConfig`]).
/// Panics if `config`'s private hierarchy or `instructions` ([`StageParams`]) differ
/// from the first call's: a materialization serves one machine.
pub fn evaluate_prepared<P: LlcReplacementPolicy>(
    config: &SystemConfig,
    prepared: &MaterializedMixStreams,
    policy: PolicyKind,
    built: P,
    instructions: u64,
    seed: u64,
) -> MixEvaluation {
    evaluate_prepared_system(config, prepared, policy, built, instructions, seed).0
}

/// [`evaluate_prepared`], also handing back the system it ran, whose policy state can be
/// read after the run (`SharedLlc::policy`). Every evaluation builds its system here,
/// over the mix's shared private stages. Monomorphized per policy type, so
/// enum-dispatched sweeps never touch a vtable on the per-access path.
pub fn evaluate_prepared_system<P: LlcReplacementPolicy>(
    config: &SystemConfig,
    prepared: &MaterializedMixStreams,
    policy: PolicyKind,
    built: P,
    instructions: u64,
    seed: u64,
) -> (MixEvaluation, MultiCoreSystem<P>) {
    let stages = prepared.stage_cursors(&StageParams::latch(config, instructions));
    let mut system = MultiCoreSystem::with_stages(config.clone(), stages, built);
    let results = system.run(instructions);
    let evaluation = summarize(config, &prepared.mix, policy, results, instructions, seed);
    (evaluation, system)
}

/// What a run of `mix` under `policy` reports: per-application IPC and MPKI against the
/// alone-run cache, and the multi-programmed metrics.
fn summarize(
    config: &SystemConfig,
    mix: &WorkloadMix,
    policy: PolicyKind,
    results: SystemResults,
    instructions: u64,
    seed: u64,
) -> MixEvaluation {
    let specs = mix.specs();
    let scope = AloneScope::new(config, instructions, seed);
    let per_app: Vec<PerAppOutcome> = results
        .per_core
        .iter()
        .zip(specs.iter())
        .map(|(core, spec)| PerAppOutcome {
            name: spec.name.to_string(),
            core_id: core.core_id,
            ipc: core.ipc(),
            ipc_alone: alone_ipc(&scope, spec.name),
            l2_mpki: core.l2_mpki(),
            llc_mpki: core.llc_mpki(),
            is_thrashing: spec.is_thrashing(),
        })
        .collect();

    let shared: Vec<f64> = per_app.iter().map(|a| a.ipc).collect();
    let alone: Vec<f64> = per_app.iter().map(|a| a.ipc_alone).collect();
    let metrics = MulticoreMetrics::compute(&shared, &alone);

    MixEvaluation {
        mix_id: mix.id,
        policy,
        policy_label: policy.label(),
        per_app,
        metrics,
        llc_global: results.llc_global,
        llc_banks: results.llc_banks,
        core_stalls: results.core_stalls,
        final_cycle: results.final_cycle,
    }
}

/// Replay wraps observed for one mix during a sweep (see [`SweepOutcome::mix_wraps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixReplayWraps {
    /// The mix the wraps were observed on.
    pub mix_id: usize,
    /// Σ over cores of the most passes any one policy's evaluation completed over that
    /// core's stream. Zero means the capture budget covered every simulation; non-zero
    /// means the paper's re-execution semantics kicked in. The count does not grow with
    /// the number of policies swept (see `MaterializedMixStreams::replay_wraps`).
    pub wraps: u64,
}

/// Everything a sweep produced: the evaluation grid plus the replay-wrap counts, so
/// budget exhaustion lands in structured report output instead of only on stderr.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One evaluation per (mix, policy) pair, in deterministic (mix, policy) order.
    pub evaluations: Vec<MixEvaluation>,
    /// Replay wraps per mix, in sweep order (all-zero for synthetic sweeps).
    pub mix_wraps: Vec<MixReplayWraps>,
}

impl SweepOutcome {
    /// Total replay wraps (passes, as [`MixReplayWraps::wraps`] counts them) across every
    /// mix of the sweep.
    pub fn total_replay_wraps(&self) -> u64 {
        self.mix_wraps.iter().map(|w| w.wraps).sum()
    }
}

/// The grid engine over one configuration: every policy over every [`MixSource`], each
/// mix materialized once, in deterministic (mix, policy) order whatever the worker
/// count. The per-mix replay-wrap counts come back next to the evaluations in the
/// [`SweepOutcome`] so callers can put budget exhaustion into their structured reports
/// (wraps are additionally echoed on stderr for interactive runs). `replay` sets the
/// memory budget of each materialized mix.
///
/// Fails when a replayed source cannot be opened, its recorded geometry mismatches
/// `config`, or a block fails its checksum or decode while a cell replays it: this
/// function is the typed-fault boundary of every sweep. The replay path reports such a
/// block by unwinding with a `cache_sim::trace::ReplayFault` out of the infallible
/// `TraceSource`; each cell's unwind is caught here and comes back as
/// [`TraceError::Corrupt`] naming the core and offset. Any other panic is resumed.
pub fn sweep_policies_on_sources_with(
    config: &SystemConfig,
    sources: &[MixSource],
    policies: &[PolicyKind],
    instructions: u64,
    seed: u64,
    replay: &ReplayConfig,
) -> Result<SweepOutcome, TraceError> {
    let cells: Vec<Cell> = policies
        .iter()
        .map(|&policy| Cell {
            config: 0,
            policy,
            adapt: None,
        })
        .collect();
    sweep_grid(
        std::slice::from_ref(config),
        &cells,
        sources,
        instructions,
        seed,
        replay,
    )
}

/// One column of a sweep grid: `policy` under the grid's `config`-th system
/// configuration, built by [`PolicyKind::build_dispatch`] — or, for ADAPT under a
/// configuration of its own (an ablation variant), from `adapt`, keeping `policy`'s
/// label.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Cell {
    pub config: usize,
    pub policy: PolicyKind,
    pub adapt: Option<AdaptConfig>,
}

/// [`sweep_policies_on_sources_with`] over any set of cells: every cell of a mix,
/// whatever its configuration, replays the one materialization of that mix and its one
/// set of private stages. The evaluations come back in (mix, cell) order. Every config
/// must have the same private hierarchy, which the stages model, and the same LLC set
/// count, which sizes the generators.
pub(crate) fn sweep_grid(
    configs: &[SystemConfig],
    cells: &[Cell],
    sources: &[MixSource],
    instructions: u64,
    seed: u64,
    replay: &ReplayConfig,
) -> Result<SweepOutcome, TraceError> {
    let mixes: Vec<WorkloadMix> = sources.iter().map(|s| s.mix().clone()).collect();
    for config in configs {
        warm_alone_cache(config, &mixes, instructions, seed);
    }
    let llc_sets = configs[0].llc.geometry.num_sets();
    // One materialization sizes its generators for one LLC set count.
    assert!(configs
        .iter()
        .all(|c| c.llc.geometry.num_sets() == llc_sets));
    let window = sweep_window(cells.len());
    let mut out = Vec::with_capacity(sources.len() * cells.len());
    let mut mix_wraps = Vec::with_capacity(sources.len());
    for chunk in sources.chunks(window) {
        // Materialize this window's mixes once each, in parallel.
        let prepared: Vec<MaterializedMixStreams> = chunk
            .par_iter()
            .map(|source| source.materialize_with(llc_sets, seed, replay))
            .collect::<Vec<Result<_, _>>>()
            .into_iter()
            .collect::<Result<_, _>>()?;
        // Fan the (mix, cell) grid out; order-preserving collect keeps the result
        // deterministic whatever the worker count.
        let pairs: Vec<(usize, &Cell)> = (0..prepared.len())
            .flat_map(|m| cells.iter().map(move |cell| (m, cell)))
            .collect();
        let evaluated: Vec<std::thread::Result<MixEvaluation>> = pairs
            .par_iter()
            .map(|&(m, cell)| {
                let mat = &prepared[m];
                let _ctx = if sim_obs::enabled() {
                    Some(sim_obs::push_context(&format!(
                        "mix{}/{}",
                        mat.mix().id,
                        cell.policy.label()
                    )))
                } else {
                    None
                };
                let _span = sim_obs::span("sweep", "simulate");
                let config = &configs[cell.config];
                // Nothing a cell leaves half-done is looked at again: a fault fails
                // the whole sweep, and the stages remember it for their other cursors.
                catch_unwind(AssertUnwindSafe(|| {
                    let built = match cell.adapt {
                        Some(adapt) => {
                            AnyPolicy::Adapt(AdaptPolicy::new(adapt, &config.llc, config.num_cores))
                        }
                        None => cell
                            .policy
                            .build_dispatch(config, &mat.mix().thrashing_slots()),
                    };
                    evaluate_prepared(config, mat, cell.policy, built, instructions, seed)
                }))
            })
            .collect();
        for cell in evaluated {
            out.push(
                cell.map_err(|payload| match replay_fault_from(payload.as_ref()) {
                    Some(fault) => TraceError::Corrupt(fault.message.clone()),
                    None => resume_unwind(payload),
                })?,
            );
        }
        // A wrapped replay is the paper's re-execution semantics, not an error — but it
        // does mean the corpus was captured with too small a budget to be bit-identical
        // to live generators, so it goes into the structured outcome (and is echoed
        // loudly on stderr for interactive runs).
        for mat in &prepared {
            mat.record_stage_counters();
            let wraps = mat.replay_wraps();
            mix_wraps.push(MixReplayWraps {
                mix_id: mat.mix().id,
                wraps,
            });
            if wraps > 0 {
                sim_obs::obs_warn!(
                    "runner",
                    "corpus replay of mix {} re-executed its streams ({wraps} pass(es) summed \
                     over cores): the capture budget is smaller than the run; results \
                     follow re-execution semantics and may differ from a live-generator sweep",
                    mat.mix().id
                );
            }
        }
    }
    Ok(SweepOutcome {
        evaluations: out,
        mix_wraps,
    })
}

/// The study a corpus's mixes belong to: the one its first entry's core count names (a
/// [`Corpus`] is never empty). `repro`'s corpus experiments and `sweepd` both size their
/// machine by this one rule.
pub fn corpus_study(corpus: &Corpus) -> Result<StudyKind, TraceError> {
    StudyKind::by_cores(corpus.entries()[0].benchmarks.len()).map_err(TraceError::Manifest)
}

/// Every mix of `corpus` as a replayed source under its manifest id, once the corpus
/// geometry is checked against a system with `llc_sets` LLC sets.
///
/// A sweep of these sources takes its seed from the corpus manifest
/// (`corpus.meta().seed`), not from its caller: the alone-run normalization must run the
/// *same* generators the corpus was captured from, so any other seed would silently
/// normalize every result against the wrong alone IPCs.
pub fn corpus_sources(corpus: &Corpus, llc_sets: usize) -> Result<Vec<MixSource>, TraceError> {
    corpus.validate_geometry(llc_sets)?;
    corpus
        .entries()
        .iter()
        .map(|e| MixSource::replayed_with_id(corpus.path_for(e), e.mix_id))
        .collect()
}

/// Per-mix speedup of `policy` over `baseline` on the weighted-speedup metric.
pub fn speedups_over_baseline(
    evals: &[MixEvaluation],
    policy: PolicyKind,
    baseline: PolicyKind,
) -> Vec<f64> {
    let base: HashMap<usize, f64> = evals
        .iter()
        .filter(|e| e.policy == baseline)
        .map(|e| (e.mix_id, e.weighted_speedup()))
        .collect();
    let mut with_ids: Vec<(usize, f64)> = evals
        .iter()
        .filter(|e| e.policy == policy)
        .map(|e| {
            let b = base.get(&e.mix_id).copied().unwrap_or(0.0);
            (
                e.mix_id,
                if b > 0.0 {
                    e.weighted_speedup() / b
                } else {
                    0.0
                },
            )
        })
        .collect();
    with_ids.sort_by_key(|(id, _)| *id);
    with_ids.into_iter().map(|(_, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;
    use workloads::{generate_mixes, StudyKind};

    fn capture_mix_file(path: &Path, mix: &WorkloadMix, llc_sets: usize, seed: u64, accesses: u64) {
        let opts = trace_io::TraceCaptureOptions::for_llc_sets(llc_sets);
        trace_io::capture_mix(path, mix, seed, accesses, None, opts).unwrap();
    }

    fn smoke_setup() -> (SystemConfig, Vec<WorkloadMix>) {
        let scale = ExperimentScale::Smoke;
        let cfg = scale.system_config(StudyKind::Cores4);
        let mixes = generate_mixes(StudyKind::Cores4, 1, scale.seed());
        (cfg, mixes)
    }

    /// One evaluation on the shipped path: `mix` materialized from its generators.
    fn evaluate(
        cfg: &SystemConfig,
        mix: &WorkloadMix,
        policy: PolicyKind,
        instructions: u64,
        seed: u64,
    ) -> MixEvaluation {
        let prepared = MixSource::synthetic(mix.clone())
            .materialize_with(cfg.llc.geometry.num_sets(), seed, &ReplayConfig::default())
            .unwrap();
        let built = policy.build_dispatch(cfg, &mix.thrashing_slots());
        evaluate_prepared(cfg, &prepared, policy, built, instructions, seed)
    }

    /// The reference a sweep must reproduce: each (mix, policy) pair on a lone system
    /// over fresh generators that shares nothing, one at a time, in (mix, policy) order.
    fn lone_systems(
        cfg: &SystemConfig,
        mixes: &[WorkloadMix],
        policies: &[PolicyKind],
        instructions: u64,
        seed: u64,
    ) -> Vec<MixEvaluation> {
        let llc_sets = cfg.llc.geometry.num_sets();
        let pairs = mixes
            .iter()
            .flat_map(|mix| policies.iter().map(move |&p| (mix, p)));
        pairs
            .map(|(mix, policy)| {
                let built = policy.build_dispatch(cfg, &mix.thrashing_slots());
                let traces = mix.trace_sources(llc_sets, seed);
                let results = MultiCoreSystem::new(cfg.clone(), traces, built).run(instructions);
                summarize(cfg, mix, policy, results, instructions, seed)
            })
            .collect()
    }

    fn synthetic(mixes: &[WorkloadMix]) -> Vec<MixSource> {
        mixes.iter().cloned().map(MixSource::synthetic).collect()
    }

    fn assert_identical(a: &[MixEvaluation], b: &[MixEvaluation]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.mix_id, y.mix_id);
            assert_eq!(x.policy, y.policy);
            assert_eq!(
                x.weighted_speedup(),
                y.weighted_speedup(),
                "weighted speedup differs for mix {} policy {:?}",
                x.mix_id,
                x.policy
            );
            for (p, q) in x.per_app.iter().zip(&y.per_app) {
                assert_eq!(p.name, q.name);
                assert_eq!(p.ipc, q.ipc, "{}: IPC differs", p.name);
                assert_eq!(p.llc_mpki, q.llc_mpki, "{}: MPKI differs", p.name);
                assert_eq!(p.l2_mpki, q.l2_mpki);
            }
            assert_eq!(x.llc_global, y.llc_global, "LLC global stats differ");
            assert_eq!(x.llc_banks, y.llc_banks, "per-bank stats differ");
            assert_eq!(
                x.core_stalls, y.core_stalls,
                "per-core stall attribution differs"
            );
            assert_eq!(x.final_cycle, y.final_cycle);
        }
    }

    #[test]
    fn evaluate_mix_produces_per_app_outcomes() {
        let (cfg, mixes) = smoke_setup();
        let eval = evaluate(&cfg, &mixes[0], PolicyKind::TaDrrip, 20_000, 1);
        assert_eq!(eval.per_app.len(), 4);
        assert!(eval.weighted_speedup() > 0.0);
        for app in &eval.per_app {
            assert!(app.ipc > 0.0, "{} ipc", app.name);
            assert!(app.ipc_alone > 0.0);
            assert!(
                app.normalized_ipc() <= 1.5,
                "sharing should not wildly exceed alone IPC"
            );
        }
    }

    #[test]
    fn policy_label_is_the_kind_label_and_parses_back() {
        // A mix with no thrashing slot: `TaDrripForced` forces nothing, and the policy
        // instance cannot tell `TaDrripSd(64)` from plain TA-DRRIP, so only the kind
        // knows the right name.
        let cfg = ExperimentScale::Smoke.system_config(StudyKind::Cores4);
        let mix = WorkloadMix {
            id: 0,
            study: StudyKind::Cores4,
            benchmarks: vec!["gcc".to_string(); 4],
        };
        assert!(mix.thrashing_slots().is_empty());
        for kind in crate::policies::all_kinds() {
            let eval = evaluate(&cfg, &mix, kind, 2_000, 1);
            assert_eq!(eval.policy_label, kind.label());
            assert_eq!(PolicyKind::parse(&eval.policy_label), Some(kind));
        }
    }

    #[test]
    fn alone_cache_is_memoized() {
        let (cfg, mixes) = smoke_setup();
        let name = &mixes[0].benchmarks[0];
        let scope = AloneScope::new(&cfg, 10_000, 1);
        let a = alone_ipc(&scope, name);
        let b = alone_ipc(&scope, name);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_sweep_covers_every_pair_in_order() {
        let (cfg, mixes) = smoke_setup();
        let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
        let replay = ReplayConfig::default();
        let outcome =
            sweep_policies_on_sources_with(&cfg, &synthetic(&mixes), &policies, 20_000, 1, &replay);
        let evals = outcome.unwrap().evaluations;
        assert_eq!(evals.len(), mixes.len() * policies.len());
        assert_eq!(evals[0].policy, PolicyKind::TaDrrip);
        assert_eq!(evals[1].policy, PolicyKind::AdaptBp32);
        let baseline_runs = evals.iter().filter(|e| e.policy == PolicyKind::TaDrrip);
        assert_eq!(baseline_runs.count(), mixes.len());
        let speedups = speedups_over_baseline(&evals, PolicyKind::AdaptBp32, PolicyKind::TaDrrip);
        assert_eq!(speedups.len(), mixes.len());
        assert!(speedups[0] > 0.0);
    }

    #[test]
    fn undersized_corpus_wraps_and_is_counted() {
        // A corpus captured with too small a budget replays with wrap (re-execution)
        // semantics; the engine must count that instead of diverging silently.
        let (cfg, mixes) = smoke_setup();
        let llc_sets = cfg.llc.geometry.num_sets();
        let instructions = 20_000u64;
        let path = std::env::temp_dir().join("runner_undersized_corpus.atrc");
        // Far fewer accesses than the run consumes.
        capture_mix_file(&path, &mixes[0], llc_sets, 1, 64);
        let source = MixSource::replayed_with_id(&path, 0).unwrap();
        let prepared = source
            .materialize_with(llc_sets, 1, &ReplayConfig::default())
            .unwrap();
        assert_eq!(prepared.replay_wraps(), 0);
        let built = PolicyKind::TaDrrip.build_dispatch(&cfg, &prepared.mix().thrashing_slots());
        let eval = evaluate_prepared(&cfg, &prepared, PolicyKind::TaDrrip, built, instructions, 1);
        assert!(
            eval.weighted_speedup() > 0.0,
            "wrapped replay still evaluates"
        );
        assert!(
            prepared.replay_wraps() > 0,
            "outrunning the captured budget must be observable"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn contended_banks_keep_serial_parallel_bit_identity() {
        // The acceptance bar extends to the cycle-accounted contention model: with
        // finite ports/queues and MSHR back-pressure enabled, the parallel grid must
        // still reproduce the serial reference exactly, per-bank stats included.
        let scale = ExperimentScale::Smoke;
        let mut cfg = scale.system_config(StudyKind::Cores4);
        cfg.llc.contention = cache_sim::config::BankContentionConfig::contended(2, 4);
        cfg.dram.contention = cache_sim::config::BankContentionConfig::contended(2, 4);
        let mixes = generate_mixes(StudyKind::Cores4, 2, scale.seed());
        let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
        let serial = lone_systems(&cfg, &mixes, &policies, 20_000, 1);
        let replay = ReplayConfig::default();
        let outcome =
            sweep_policies_on_sources_with(&cfg, &synthetic(&mixes), &policies, 20_000, 1, &replay);
        let grid = outcome.unwrap().evaluations;
        assert_identical(&serial, &grid);
        // The contended model actually produced per-bank statistics.
        assert!(grid
            .iter()
            .all(|e| e.llc_banks.iter().any(|b| b.requests > 0)));
    }

    #[test]
    fn sweep_outcome_reports_wraps_per_mix() {
        // An undersized corpus must surface its wrap count in the structured outcome,
        // not only on stderr; synthetic sweeps report zero wraps for every mix.
        let (cfg, mixes) = smoke_setup();
        let llc_sets = cfg.llc.geometry.num_sets();
        let path = std::env::temp_dir().join("runner_sweep_outcome_wraps.atrc");
        capture_mix_file(&path, &mixes[0], llc_sets, 1, 64);
        let sources = vec![MixSource::replayed_with_id(&path, 0).unwrap()];
        let replay = ReplayConfig::default();
        let outcome = sweep_policies_on_sources_with(
            &cfg,
            &sources,
            &[PolicyKind::TaDrrip],
            20_000,
            1,
            &replay,
        )
        .unwrap();
        assert_eq!(outcome.mix_wraps.len(), 1);
        assert_eq!(outcome.mix_wraps[0].mix_id, 0);
        assert!(
            outcome.mix_wraps[0].wraps > 0,
            "undersized corpus must wrap"
        );
        assert_eq!(outcome.total_replay_wraps(), outcome.mix_wraps[0].wraps);
        assert_eq!(outcome.evaluations.len(), 1);
        std::fs::remove_file(path).ok();

        let synthetic = vec![MixSource::synthetic(mixes[0].clone())];
        let outcome = sweep_policies_on_sources_with(
            &cfg,
            &synthetic,
            &[PolicyKind::TaDrrip],
            20_000,
            1,
            &replay,
        )
        .unwrap();
        assert_eq!(outcome.total_replay_wraps(), 0);
    }

    #[test]
    fn wrap_counts_are_passes_and_do_not_scale_with_the_policy_count() {
        // A 64-access capture every core re-executes many times over: the reported
        // count is Σ over cores of the most passes one evaluation made, so sweeping the
        // same policy four times reports what sweeping it once does, and four different
        // policies report at least the furthest of them, not their sum — whether the
        // memo covers the run or runs dry at once.
        let (cfg, mixes) = smoke_setup();
        let llc_sets = cfg.llc.geometry.num_sets();
        let path = std::env::temp_dir().join("runner_wrap_wall.atrc");
        capture_mix_file(&path, &mixes[0], llc_sets, 1, 64);
        let sources = vec![MixSource::replayed_with_id(&path, 0).unwrap()];
        let kinds = [
            PolicyKind::TaDrrip,
            PolicyKind::Lru,
            PolicyKind::Ship,
            PolicyKind::AdaptBp32,
        ];
        let dry_memo = ReplayConfig {
            arena_budget_bytes: 1 << 10,
        };
        let mut per_budget = Vec::new();
        for replay in [ReplayConfig::default(), dry_memo] {
            let wraps = |policies: &[PolicyKind]| {
                sweep_policies_on_sources_with(&cfg, &sources, policies, 20_000, 1, &replay)
                    .unwrap()
                    .mix_wraps[0]
                    .wraps
            };
            let singles: Vec<u64> = kinds.iter().map(|&kind| wraps(&[kind])).collect();
            assert!(singles.iter().all(|&w| w > 0), "every run must wrap");
            assert_eq!(wraps(&[kinds[0]; 4]), singles[0]);
            let four = wraps(&kinds);
            assert!(
                (*singles.iter().max().unwrap()..singles.iter().sum()).contains(&four),
                "four policies wrapped {four}, one at a time {singles:?}"
            );
            per_budget.push((singles, four));
        }
        assert_eq!(
            per_budget[0], per_budget[1],
            "memo covers the run vs runs dry"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corpus_sweep_rejects_geometry_mismatch() {
        let scale = ExperimentScale::Smoke;
        let cfg = scale.system_config(StudyKind::Cores4);
        let llc_sets = cfg.llc.geometry.num_sets();
        let mixes = generate_mixes(StudyKind::Cores4, 1, scale.seed());
        let dir = std::env::temp_dir().join("runner_corpus_geometry");
        std::fs::remove_dir_all(&dir).ok();
        // Captured for twice the set count the system has.
        let (corpus, _) = Corpus::materialize(&dir, "test", &mixes, llc_sets * 2, 1, 500).unwrap();
        let err = corpus_sources(&corpus, llc_sets).unwrap_err();
        assert!(err.to_string().contains("LLC sets"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replayed_mix_source_reproduces_the_synthetic_evaluation() {
        let (cfg, mixes) = smoke_setup();
        let mix = mixes[0].clone();
        let llc_sets = cfg.llc.geometry.num_sets();
        let seed = 1u64;
        let instructions = 20_000u64;
        // Capture enough accesses that no core wraps before the live run finishes: every
        // access is at least one instruction, so 2x the instruction budget is ample slack
        // for the simulator's end-of-run overshoot.
        let path = std::env::temp_dir().join("runner_replay_equivalence.atrc");
        capture_mix_file(&path, &mix, llc_sets, seed, 2 * instructions);

        let live = evaluate(&cfg, &mix, PolicyKind::TaDrrip, instructions, seed);
        let source = MixSource::replayed_with_id(&path, 0).unwrap();
        assert_eq!(source.mix().benchmarks, mix.benchmarks);
        let prepared = source
            .materialize_with(llc_sets, seed, &ReplayConfig::default())
            .unwrap();
        let built = PolicyKind::TaDrrip.build_dispatch(&cfg, &mix.thrashing_slots());
        let replayed = evaluate_prepared(
            &cfg,
            &prepared,
            PolicyKind::TaDrrip,
            built,
            instructions,
            seed,
        );

        for (a, b) in live.per_app.iter().zip(&replayed.per_app) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ipc, b.ipc, "{}: replayed IPC differs", a.name);
            assert_eq!(a.llc_mpki, b.llc_mpki, "{}: replayed MPKI differs", a.name);
        }
        assert_eq!(live.weighted_speedup(), replayed.weighted_speedup());
        std::fs::remove_file(path).ok();
    }

    /// Counts the records a simulation draws from a source.
    struct Counted(Box<dyn TraceSource>, Arc<AtomicU64>);

    impl TraceSource for Counted {
        fn next_access(&mut self) -> MemAccess {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.next_access()
        }
        fn reset(&mut self) {
            self.0.reset();
        }
        fn label(&self) -> String {
            self.0.label()
        }
    }

    #[test]
    fn materialized_streams_match_live_generators() {
        use cache_sim::private::CHUNK_RECORDS;
        use cache_sim::system::RUN_AHEAD;

        let (cfg, mixes) = smoke_setup();
        let llc_sets = cfg.llc.geometry.num_sets();
        let source = MixSource::synthetic(mixes[0].clone());
        let prepared = source
            .materialize_with(llc_sets, 7, &ReplayConfig::default())
            .unwrap();
        // Every set of sources is the mix's live generators, from their first record.
        for sources in [prepared.sources(), prepared.sources()] {
            let mut fresh = mixes[0].trace_sources(llc_sets, 7);
            for (mut shared, live) in sources.into_iter().zip(fresh.iter_mut()) {
                assert_eq!(shared.label(), live.label());
                for _ in 0..250 {
                    assert_eq!(shared.next_access(), live.next_access());
                }
            }
        }
        // Handing out sources materializes nothing; the memo is the stages'.
        assert!(prepared.records_per_core().iter().all(|&r| r == 0));

        // What one evaluation consumes, counted on a system over sole stages of its own.
        let policy = PolicyKind::TaDrrip;
        let build = || policy.build_dispatch(&cfg, &mixes[0].thrashing_slots());
        let counters: Vec<Arc<AtomicU64>> = (0..cfg.num_cores).map(|_| Arc::default()).collect();
        let counted = prepared
            .sources()
            .into_iter()
            .zip(&counters)
            .map(|(s, c)| Box::new(Counted(s, c.clone())) as Box<dyn TraceSource>)
            .collect();
        let lone = MultiCoreSystem::new(cfg.clone(), counted, build()).run(20_000);

        // Evaluations share one stage per core: generation happens once. Both systems
        // consumed the same events, and each stage drew at most the driver's run-ahead,
        // the rest of the furthest consumer's chunk and one chunk read ahead beyond them.
        let first = evaluate_prepared(&cfg, &prepared, policy, build(), 20_000, 7);
        let drawn = prepared.records_per_core();
        for _ in 0..2 {
            let again = evaluate_prepared(&cfg, &prepared, policy, build(), 20_000, 7);
            assert_identical(std::slice::from_ref(&first), std::slice::from_ref(&again));
        }
        assert_eq!(
            prepared.records_per_core(),
            drawn,
            "a later cursor generated"
        );
        assert_eq!(first.final_cycle, lone.final_cycle);
        for (&drawn, consumed) in drawn.iter().zip(&counters) {
            let consumed = consumed.load(Ordering::Relaxed);
            let slack = RUN_AHEAD + 1 + 2 * (CHUNK_RECORDS + RUN_AHEAD);
            assert!(
                consumed.abs_diff(drawn as u64) <= slack,
                "drew {drawn} records, a system over sole stages {consumed}"
            );
        }
    }

    /// A materialization serves one machine: an evaluation under another private
    /// hierarchy — here a half-size L2 — is refused instead of given a second set of
    /// stages.
    #[test]
    #[should_panic(expected = "was materialized for one machine")]
    fn a_second_private_hierarchy_on_one_materialization_panics() {
        let (cfg, mixes) = smoke_setup();
        let prepared = MixSource::synthetic(mixes[0].clone())
            .materialize_with(cfg.llc.geometry.num_sets(), 1, &ReplayConfig::default())
            .unwrap();
        let evaluate = |cfg: &SystemConfig| {
            let built = PolicyKind::TaDrrip.build_dispatch(cfg, &mixes[0].thrashing_slots());
            evaluate_prepared(cfg, &prepared, PolicyKind::TaDrrip, built, 20_000, 1)
        };
        evaluate(&cfg);
        let mut half_l2 = cfg.clone();
        half_l2.l2.geometry =
            cache_sim::config::CacheGeometry::new(cfg.l2.geometry.size_bytes / 2, 8);
        evaluate(&half_l2);
    }

    #[test]
    fn replayed_mix_source_rejects_geometry_mismatch() {
        let (cfg, mixes) = smoke_setup();
        let llc_sets = cfg.llc.geometry.num_sets();
        let path = std::env::temp_dir().join("runner_replay_geometry.atrc");
        // Capture at a deliberately different set count than the system uses.
        capture_mix_file(&path, &mixes[0], llc_sets * 2, 1, 100);
        let source = MixSource::replayed_with_id(&path, 0).unwrap();
        // The check does not depend on the budget.
        let nothing = ReplayConfig {
            arena_budget_bytes: 0,
        };
        for replay in [ReplayConfig::default(), nothing] {
            let err = match source.materialize_with(llc_sets, 1, &replay) {
                Err(e) => e,
                Ok(_) => panic!("geometry mismatch must be rejected"),
            };
            assert!(err.to_string().contains("LLC sets"), "got: {err}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replayed_mix_source_rejects_garbage_files() {
        let path = std::env::temp_dir().join("runner_replay_garbage.atrc");
        std::fs::write(&path, b"not a trace at all").unwrap();
        assert!(MixSource::replayed_with_id(&path, 0).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_is_bit_identical_at_every_arena_budget() {
        // The budget trades memory against work done once, never results: with memos
        // that keep the whole run (default) and with memos that keep no chunk of events
        // (64 KiB and 1 KiB leave less than the 64 KiB a chunk reserves once the four
        // cores' decode buffers are charged), a sweep equals the test-side reference —
        // every stream decoded whole and replayed by lone systems that share nothing —
        // and reports the same wraps. Once with a capture that covers the run (no
        // wraps), once with a 64-access capture every core re-executes many times over:
        // one block, looped in place.
        use cache_sim::trace::SharedReplayTrace;

        let (cfg, mixes) = smoke_setup();
        let mix = &mixes[0];
        let llc_sets = cfg.llc.geometry.num_sets();
        let instructions = 20_000u64;
        let policies = [PolicyKind::TaDrrip, PolicyKind::AdaptBp32];
        let covering = synthetic_capture_budget(instructions);
        for accesses in [covering, 64] {
            let path = std::env::temp_dir().join(format!("runner_budget_identity_{accesses}.atrc"));
            capture_mix_file(&path, mix, llc_sets, 1, accesses);

            let trace = MappedTrace::open(&path).unwrap();
            let decoded: Vec<Arc<Vec<MemAccess>>> = (0..cfg.num_cores)
                .map(|core| Arc::new(trace.decode_core(core).unwrap()))
                .collect();
            let reference: Vec<MixEvaluation> = policies
                .iter()
                .map(|&policy| {
                    let traces = decoded
                        .iter()
                        .zip(&mix.benchmarks)
                        .map(|(records, label)| {
                            let cursor = SharedReplayTrace::new(label.clone(), records.clone());
                            Box::new(cursor) as Box<dyn TraceSource>
                        })
                        .collect();
                    let built = policy.build_dispatch(&cfg, &mix.thrashing_slots());
                    let results =
                        MultiCoreSystem::new(cfg.clone(), traces, built).run(instructions);
                    summarize(&cfg, mix, policy, results, instructions, 1)
                })
                .collect();

            let sources = vec![MixSource::replayed_with_id(&path, 0).unwrap()];
            let outcomes: Vec<SweepOutcome> = [256 << 20, 64 << 10, 1 << 10]
                .into_iter()
                .map(|arena_budget_bytes| {
                    let replay = ReplayConfig { arena_budget_bytes };
                    sweep_policies_on_sources_with(
                        &cfg,
                        &sources,
                        &policies,
                        instructions,
                        1,
                        &replay,
                    )
                    .unwrap()
                })
                .collect();
            for outcome in &outcomes {
                assert_identical(&reference, &outcome.evaluations);
                assert_eq!(outcome.mix_wraps, outcomes[0].mix_wraps);
                assert_eq!(outcome.total_replay_wraps() > 0, accesses < covering);
            }
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn a_replayed_mix_charges_two_of_its_largest_blocks_a_core_and_pools_the_rest() {
        // Each core decodes one block at a time, whatever the budget: the memo pool gets
        // the budget less `cores × 2 ×` the largest block's records `×` 24 B, at 16 and
        // at 128 cores, and nothing once the decode buffers take it all.
        use trace_io::format::DEFAULT_BLOCK_RECORDS;

        let block = DEFAULT_BLOCK_RECORDS as u64;
        let default = ReplayConfig::default().arena_budget_bytes;
        for study in [StudyKind::Cores16, StudyKind::Cores128] {
            let mix = &generate_mixes(study, 1, 1)[0];
            let cores = study.num_cores() as u64;
            let path = std::env::temp_dir().join(format!("runner_decode_charge_{cores}.atrc"));
            capture_mix_file(&path, mix, 64, 1, block + 100);
            let source = MixSource::replayed_with_id(&path, 0).unwrap();
            let buffers = cores * 2 * block * 24;
            for arena_budget_bytes in [default, buffers + 1, buffers, buffers / 2] {
                let replay = ReplayConfig { arena_budget_bytes };
                let prepared = source.materialize_with(64, 1, &replay).unwrap();
                assert_eq!(
                    prepared.memo_pool.bytes_left(),
                    arena_budget_bytes.saturating_sub(buffers),
                    "{cores} cores, budget {arena_budget_bytes}"
                );
            }
            std::fs::remove_file(path).ok();
        }
        // A stream shorter than a block is charged its one block.
        let (cfg, mixes) = smoke_setup();
        let path = std::env::temp_dir().join("runner_decode_charge_short.atrc");
        let llc_sets = cfg.llc.geometry.num_sets();
        capture_mix_file(&path, &mixes[0], llc_sets, 1, 64);
        let prepared = MixSource::replayed_with_id(&path, 0)
            .unwrap()
            .materialize_with(llc_sets, 1, &ReplayConfig::default())
            .unwrap();
        assert_eq!(prepared.memo_pool.bytes_left(), default - 4 * 2 * 64 * 24);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (cfg, mixes) = smoke_setup();
        let a = evaluate(&cfg, &mixes[0], PolicyKind::Eaf, 15_000, 9);
        let b = evaluate(&cfg, &mixes[0], PolicyKind::Eaf, 15_000, 9);
        assert_eq!(a.weighted_speedup(), b.weighted_speedup());
        assert_eq!(a.per_app.len(), b.per_app.len());
        for (x, y) in a.per_app.iter().zip(&b.per_app) {
            assert_eq!(x.ipc, y.ipc);
            assert_eq!(x.llc_mpki, y.llc_mpki);
        }
    }
}
