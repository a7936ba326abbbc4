//! The stage drive: the same trace records pushed through the simulator's public
//! building blocks one stage at a time, each stage inside a single timer bracket.
//!
//! `MultiCoreSystem::run` interleaves all of this per record and cannot be timed from
//! outside at that grain without the timer dominating. Here each stage runs as a bulk
//! loop over the previous stage's miss stream — L1 → L2 → shared LLC → DRAM — so a
//! stage costs one bracket, not one per access. The stages therefore run outside the
//! real interleaving (no prefetcher, no core timing model, each structure hot in the
//! host's caches on its own), which is why the figure derived from them,
//! `cache_sim.driver.est_ns_per_record`, is labelled an estimate.

use std::hint::black_box;
use std::time::Instant;

use cache_sim::addr::block_of;
use cache_sim::config::{PrivateCacheConfig, SystemConfig};
use cache_sim::dram::Dram;
use cache_sim::llc::SharedLlc;
use cache_sim::private_cache::{Lookup, PrivateCache};
use cache_sim::replacement::LlcReplacementPolicy;
use cache_sim::trace::{MemAccess, TraceSource};

use crate::report::Outcome;
use crate::sim::TracedCells;
use crate::span::Tracer;

/// Chrome `tid` of the stage-drive spans (cells use 1..).
const GROUP: u64 = 1_000;

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One private-cache level per stream: look every access up, fill on a miss (as the
/// simulator does), and hand the misses on. Returns the miss streams and the hit count.
fn private_stage(
    config: PrivateCacheConfig,
    streams: &[Vec<MemAccess>],
    honour_writes: bool,
) -> (Vec<Vec<MemAccess>>, u64) {
    let mut hits = 0u64;
    let misses = streams
        .iter()
        .map(|stream| {
            let mut cache = PrivateCache::new(config);
            let mut misses = Vec::new();
            for access in stream {
                let block = block_of(access.addr);
                let is_write = honour_writes && access.is_write;
                if cache.access(block, is_write) == Lookup::Hit {
                    hits += 1;
                } else {
                    black_box(cache.fill(block, is_write, false));
                    misses.push(*access);
                }
            }
            misses
        })
        .collect();
    (misses, hits)
}

/// Drive `sources`' first records through L1, L2, an LLC under `policy`, and DRAM.
/// Sets `workloads.gen.*` (when the sources are live generators) and the
/// `cache_sim.{l1,l2,llc,dram,driver}.*` metrics.
pub fn drive<P: LlcReplacementPolicy>(
    tracer: &mut Tracer,
    config: &SystemConfig,
    mut sources: Vec<Box<dyn TraceSource>>,
    policy: P,
    source_layer: &'static str,
    cells: &TracedCells,
    out: &mut Outcome,
) {
    let root = tracer.begin("stage drive", "experiments", None, GROUP);
    let cores = sources.len();
    let per_core = cells.records_per_core;

    // Stage 0: produce the records.
    let span = tracer.begin("drain trace sources", source_layer, Some(root), GROUP);
    let t = Instant::now();
    let streams: Vec<Vec<MemAccess>> = sources
        .iter_mut()
        .map(|s| (0..per_core).map(|_| s.next_access()).collect())
        .collect();
    let drain_ns = t.elapsed().as_nanos() as f64;
    tracer.end(span);
    let records = (cores * per_core) as u64;
    if source_layer == "workloads" {
        out.metrics.set("workloads.gen.records", records as f64);
        out.metrics
            .set("workloads.gen.ns_per_record", drain_ns / records as f64);
    }

    // Stages 1 and 2: private L1s, then private L2s over the L1 miss streams. The L2
    // sees reads only, as in the simulator (dirty L1 victims reach it as write-backs).
    let span = tracer.begin(
        "PrivateCache L1 access+fill",
        "cache_sim",
        Some(root),
        GROUP,
    );
    let t = Instant::now();
    let (l1_misses, l1_hits) = private_stage(config.l1d, &streams, true);
    let l1_ns = t.elapsed().as_nanos() as f64;
    tracer.end(span);
    let span = tracer.begin(
        "PrivateCache L2 access+fill",
        "cache_sim",
        Some(root),
        GROUP,
    );
    let t = Instant::now();
    let (l2_misses, l2_hits) = private_stage(config.l2, &l1_misses, false);
    let l2_ns = t.elapsed().as_nanos() as f64;
    tracer.end(span);
    let l2_accesses: u64 = l1_misses.iter().map(|s| s.len() as u64).sum();

    // Stage 3: the shared LLC, cores taking turns, at the pace of the real run.
    let span = tracer.begin("SharedLlc access+fill", "cache_sim", Some(root), GROUP);
    let mut llc = SharedLlc::new(config.llc, cores, config.interval_misses, policy);
    let mut to_dram: Vec<(cache_sim::addr::BlockAddr, bool, usize)> = Vec::new();
    let longest = l2_misses.iter().map(Vec::len).max().unwrap_or(0);
    let t = Instant::now();
    let mut now = 0u64;
    for i in 0..longest {
        for (core, stream) in l2_misses.iter().enumerate() {
            let Some(access) = stream.get(i) else {
                continue;
            };
            let block = block_of(access.addr);
            now += cells.cycles_per_llc_access;
            if !llc
                .access(core, access.pc, block, true, access.is_write, now)
                .hit
            {
                to_dram.push((block, false, core));
                if let Some(evicted) = llc.fill(core, access.pc, block, false, now).evicted {
                    if evicted.dirty {
                        to_dram.push((evicted.block, true, core));
                    }
                }
            }
        }
    }
    let llc_ns = t.elapsed().as_nanos() as f64;
    tracer.end(span);
    let (mut llc_accesses, mut llc_hits, mut bypassed) = (0u64, 0u64, 0u64);
    for core in llc.all_core_stats() {
        llc_accesses += core.demand_accesses;
        llc_hits += core.demand_hits;
        bypassed += core.bypassed_fills;
    }
    let dirty_evictions = llc.global_stats().dirty_evictions;

    // Stage 4: DRAM over the LLC's miss and write-back stream.
    let span = tracer.begin("Dram::access", "cache_sim", Some(root), GROUP);
    let mut dram = Dram::new(config.dram);
    let t = Instant::now();
    let mut now = 0u64;
    for &(block, is_write, core) in &to_dram {
        now += cells.cycles_per_llc_access;
        black_box(dram.access(block, now, is_write, core));
    }
    let dram_ns = t.elapsed().as_nanos() as f64;
    tracer.end(span);
    tracer.end(root);
    let dram_accesses = dram.stats().reads + dram.stats().writes;

    let per = |ns: f64, n: u64| ns / n.max(1) as f64;
    let stages_ns_per_record = (l1_ns + l2_ns + llc_ns + dram_ns) / records as f64;
    let driver = cells.sim_ns_per_record - stages_ns_per_record;
    let m = &mut out.metrics;
    m.set("cache_sim.l1.accesses", records as f64);
    m.set("cache_sim.l1.hit_share", share(l1_hits, records));
    m.set("cache_sim.l1.ns_per_access", per(l1_ns, records));
    m.set("cache_sim.l2.accesses", l2_accesses as f64);
    m.set("cache_sim.l2.hit_share", share(l2_hits, l2_accesses));
    m.set("cache_sim.l2.ns_per_access", per(l2_ns, l2_accesses));
    m.set("cache_sim.llc.accesses", llc_accesses as f64);
    m.set("cache_sim.llc.hit_share", share(llc_hits, llc_accesses));
    m.set(
        "cache_sim.llc.bypass_share",
        share(bypassed, llc_accesses - llc_hits),
    );
    m.set("cache_sim.llc.dirty_evictions", dirty_evictions as f64);
    m.set("cache_sim.llc.ns_per_access", per(llc_ns, llc_accesses));
    m.set("cache_sim.dram.accesses", dram_accesses as f64);
    m.set(
        "cache_sim.dram.row_hit_share",
        share(dram.stats().row_hits, dram_accesses),
    );
    m.set("cache_sim.dram.ns_per_access", per(dram_ns, dram_accesses));
    m.set("cache_sim.driver.est_ns_per_record", driver);
    out.notes.push(format!(
        "stage drive, ns per trace record: L1 {:.1}, L2 {:.1}, LLC+policy {:.1}, DRAM {:.1}; \
         that leaves an estimated {:.1} of the run's {:.1} (record production excluded) for the driver \
         loop, core model, prefetcher and the host-cache misses of running the stages interleaved",
        l1_ns / records as f64,
        l2_ns / records as f64,
        llc_ns / records as f64,
        dram_ns / records as f64,
        driver,
        cells.sim_ns_per_record,
    ));
}
