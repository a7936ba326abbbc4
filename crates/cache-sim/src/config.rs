//! Simulator configuration.
//!
//! [`SystemConfig::paper_baseline`] reproduces the paper's Table 3 parameters. Because the
//! paper simulates 300M instructions per application on a 16 MB LLC — several CPU-hours per
//! workload mix on a software simulator — [`SystemConfig::scaled`] provides a proportionally
//! scaled configuration (same associativity, same core count, smaller set counts and shorter
//! traces) that preserves the `#cores >= #llc_ways` regime the paper studies, and
//! [`SystemConfig::tiny`] an even smaller one for unit tests.

use crate::addr::BLOCK_BYTES;

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways).
    pub ways: usize,
    /// Line size in bytes. All levels use 64 B.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Create a geometry; panics if the parameters do not describe a power-of-two set count.
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        let g = CacheGeometry {
            size_bytes,
            ways,
            line_bytes: BLOCK_BYTES,
        };
        assert!(
            g.num_sets().is_power_of_two(),
            "set count must be a power of two"
        );
        g
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }

    /// Number of cache lines (blocks) the cache can hold.
    pub fn num_blocks(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize
    }

    /// Geometry from an explicit set count; panics unless `sets` is a power of two.
    pub fn with_sets(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry {
            size_bytes: sets as u64 * ways as u64 * BLOCK_BYTES,
            ways,
            line_bytes: BLOCK_BYTES,
        }
    }

    /// Core-count-generic geometry: `per_core_bytes` of capacity per core at the given
    /// associativity, with the set count rounded **up** to the nearest power of two so
    /// any core count (including non-powers-of-two like 48) yields a valid geometry.
    pub fn per_core(num_cores: usize, per_core_bytes: u64, ways: usize) -> Self {
        let target_bytes = per_core_bytes * num_cores as u64;
        let sets = (target_bytes / (BLOCK_BYTES * ways as u64)).max(1) as usize;
        Self::with_sets(sets.next_power_of_two(), ways)
    }
}

/// Cycle-accounting contention model for a group of banks (see [`crate::bank`]).
///
/// The default ([`BankContentionConfig::flat`]) is one service port with an unbounded
/// queue, which is algebraically identical to the seed's latency-only `busy_until`
/// banking — zero-contention configurations therefore reproduce the flat-latency model
/// exactly (regression-tested in `crate::bank` and `crate::llc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankContentionConfig {
    /// Parallel service ports per bank (>= 1). One port serializes every request.
    pub ports: usize,
    /// Waiting-request slots per bank; `0` means unbounded (no admission stalls).
    pub queue_depth: usize,
    /// When true, a full MSHR delays the *issue* of the DRAM access itself
    /// (back-pressure) instead of only charging the stall to the requesting core after
    /// the access has already been timed. Only meaningful on the LLC's configuration.
    pub mshr_backpressure: bool,
}

impl BankContentionConfig {
    /// The seed behaviour: one port, unbounded queue, no MSHR back-pressure.
    pub fn flat() -> Self {
        BankContentionConfig {
            ports: 1,
            queue_depth: 0,
            mshr_backpressure: false,
        }
    }

    /// Contended banks: `ports` parallel ports, a finite `queue_depth`-entry queue and
    /// MSHR back-pressure enabled.
    pub fn contended(ports: usize, queue_depth: usize) -> Self {
        BankContentionConfig {
            ports,
            queue_depth,
            mshr_backpressure: true,
        }
    }

    /// True when this configuration reproduces the seed's flat-latency model.
    pub fn is_flat(&self) -> bool {
        *self == Self::flat()
    }
}

impl Default for BankContentionConfig {
    fn default() -> Self {
        Self::flat()
    }
}

/// Row-buffer scheduling model for DRAM banks (see [`crate::bank`]).
///
/// When enabled, each DRAM bank keeps a row register and the bank model schedules
/// requests FR-FCFS style: requests to the open row are served with the row-hit
/// latency ahead of queued requests to other rows (each such pass increments the
/// queued request's bypass count), a request to a closed row pays the row-miss
/// latency, and a request that must close another row pays the row-conflict
/// latency. Once any queued request has been bypassed [`RowModelConfig::starvation_cap`]
/// times the bank reverts to oldest-first: later arrivals lose their row-hit
/// priority (they are charged the conflict latency, since the aged request will
/// have changed the row by the time they are served) until the aged request starts.
///
/// The default is **disabled**, which leaves the bank model's arithmetic bit-identical
/// to the seed's FCFS banking (regression-tested in `crate::bank` and `crate::dram`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowModelConfig {
    /// Enable row-buffer-aware FR-FCFS scheduling in the DRAM bank model.
    pub enabled: bool,
    /// Latency of a request that hits the bank's open row.
    pub row_hit_cycles: u64,
    /// Latency of a request to a bank whose row buffer is closed (activate only).
    pub row_miss_cycles: u64,
    /// Latency of a request that must precharge another row first.
    pub row_conflict_cycles: u64,
    /// Close the row buffer after every access (closed-page policy): every request
    /// is then a row miss, trading hit locality for conflict immunity.
    pub closed_page: bool,
    /// Maximum times a queued request may be bypassed by row hits before the bank
    /// reverts to oldest-first arbitration (>= 1 when enabled).
    pub starvation_cap: u32,
}

impl RowModelConfig {
    /// The seed behaviour: no row model in the bank scheduler (the legacy open-row
    /// register in [`crate::dram`] still provides hit/conflict latencies).
    pub fn disabled() -> Self {
        RowModelConfig {
            enabled: false,
            row_hit_cycles: 180,
            row_miss_cycles: 260,
            row_conflict_cycles: 340,
            closed_page: false,
            starvation_cap: 4,
        }
    }

    /// FR-FCFS open-page scheduling with explicit latency classes and starvation cap.
    pub fn frfcfs(
        row_hit_cycles: u64,
        row_miss_cycles: u64,
        row_conflict_cycles: u64,
        starvation_cap: u32,
    ) -> Self {
        RowModelConfig {
            enabled: true,
            row_hit_cycles,
            row_miss_cycles,
            row_conflict_cycles,
            closed_page: false,
            starvation_cap,
        }
    }
}

impl Default for RowModelConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// NUCA (non-uniform cache access) wire-latency model for the shared LLC.
///
/// Cores and LLC banks sit on the smallest square mesh holding the core count
/// (see [`mesh_side`]); a request pays [`NucaConfig::hop_cycles`] per Manhattan hop
/// between the requesting core's tile and the bank's tile ([`mesh_hops`]). The
/// default of 0 hop cycles disables the model and adds exactly zero latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NucaConfig {
    /// Cycles added per mesh hop between requester tile and bank tile; 0 disables.
    pub hop_cycles: u64,
}

impl NucaConfig {
    /// The seed behaviour: distance-independent (uniform) bank latency.
    pub fn disabled() -> Self {
        NucaConfig { hop_cycles: 0 }
    }

    /// Mesh NUCA with the given per-hop wire latency.
    pub fn mesh(hop_cycles: u64) -> Self {
        NucaConfig { hop_cycles }
    }

    /// True when this configuration adds no distance-dependent latency.
    pub fn is_disabled(&self) -> bool {
        self.hop_cycles == 0
    }
}

/// Side of the smallest square mesh that holds `tiles` tiles.
pub fn mesh_side(tiles: usize) -> usize {
    let mut side = 1usize;
    while side * side < tiles {
        side += 1;
    }
    side
}

/// Manhattan hop distance between core `core` and LLC bank `bank`.
///
/// Cores occupy tiles `0..num_cores` of a [`mesh_side`]`(num_cores)`-wide mesh in
/// row-major order; the banks are spread evenly across the same tiles
/// (bank `b` sits at tile `b * num_cores / num_banks`), so distances are a pure
/// deterministic function of the topology.
pub fn mesh_hops(core: usize, num_cores: usize, bank: usize, num_banks: usize) -> u64 {
    let cores = num_cores.max(1);
    let side = mesh_side(cores);
    let banks = num_banks.max(1);
    let bank_tile = bank % banks * cores / banks;
    let (cx, cy) = (core % side, core / side);
    let (bx, by) = (bank_tile % side, bank_tile / side);
    (cx.abs_diff(bx) + cy.abs_diff(by)) as u64
}

/// Configuration of a private cache level (L1D or L2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivateCacheConfig {
    pub geometry: CacheGeometry,
    /// Access (hit) latency in cycles.
    pub latency: u64,
    /// Replacement policy used by this private level.
    pub policy: PrivatePolicyKind,
}

/// Built-in replacement policies available to private cache levels.
///
/// The shared LLC uses the pluggable [`crate::replacement::LlcReplacementPolicy`] trait
/// instead; private levels are not the object of study so a compact built-in set suffices
/// (the paper's Table 3 uses LRU at L1 and DRRIP at L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivatePolicyKind {
    Lru,
    Srrip,
    /// Set-dueling DRRIP (single-threaded, as the level is private).
    Drrip,
}

/// Configuration of the shared last-level cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcConfig {
    pub geometry: CacheGeometry,
    /// Access (hit) latency in cycles (paper: 24).
    pub latency: u64,
    /// Number of banks (paper: 4, fixed latency, bank conflicts modeled). Any count
    /// > 0: sets are interleaved over banks by `set % banks`.
    pub banks: usize,
    /// Cycles a bank stays busy per access (serialization window for conflict modeling).
    pub bank_busy_cycles: u64,
    /// Number of MSHR entries (paper: 256).
    pub mshr_entries: usize,
    /// Number of write-back buffer entries (paper: 128). Each dirty eviction holds one
    /// for an LLC latency (see [`crate::mshr`]); the paper's retire-at-96 drain
    /// threshold is not modelled.
    pub wb_entries: usize,
    /// Cycle-accounted bank contention model (ports, queue depth, MSHR back-pressure).
    /// Defaults to [`BankContentionConfig::flat`], the seed's latency-only banking.
    pub contention: BankContentionConfig,
    /// NUCA mesh wire-latency model; [`NucaConfig::disabled`] (0 hop cycles) keeps the
    /// seed's uniform bank latency.
    pub nuca: NucaConfig,
}

/// DDR2-style memory model configuration (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Latency of an access that hits the open row (paper: 180 cycles).
    pub row_hit_cycles: u64,
    /// Latency of an access that conflicts with the open row (paper: 340 cycles).
    pub row_conflict_cycles: u64,
    /// Number of DRAM banks (paper: 8).
    pub banks: usize,
    /// Row (page) size in bytes (paper: 4 KB).
    pub row_bytes: u64,
    /// Use permutation-based (XOR-mapped) page interleaving (paper cites Zhang et al.).
    pub xor_mapping: bool,
    /// Cycles a bank is busy per request (bandwidth / serialization model).
    pub bank_busy_cycles: u64,
    /// Cycle-accounted bank contention model. `mshr_backpressure` is ignored here (the
    /// MSHRs belong to the LLC); defaults to the seed's flat banking.
    pub contention: BankContentionConfig,
    /// Row-buffer-aware FR-FCFS bank scheduling; [`RowModelConfig::disabled`] (the
    /// default) keeps the seed's FCFS banking and legacy open-row latency classes.
    pub row_model: RowModelConfig,
}

/// Approximate out-of-order core model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Issue/retire width in instructions per cycle (paper: 4-way OoO).
    pub issue_width: u64,
    /// Reorder-buffer size (paper: 128). Bounds how much latency can be hidden.
    pub rob_size: u64,
    /// Memory-level-parallelism overlap factor applied to off-core miss latency.
    ///
    /// BADCO models a full OoO core where independent misses overlap inside the ROB; we
    /// approximate this by dividing exposed miss latency by this factor (see
    /// [`crate::core_model`]).
    pub mlp_overlap: f64,
    /// Latency of an L1 hit in cycles (effectively hidden by the pipeline when 1).
    pub l1_hit_cycles: u64,
}

/// Full multi-core system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    pub num_cores: usize,
    pub core: CoreConfig,
    pub l1d: PrivateCacheConfig,
    pub l2: PrivateCacheConfig,
    pub llc: LlcConfig,
    pub dram: DramConfig,
    /// Enable the next-line L1 prefetcher (paper Table 3: "next-line prefetch").
    pub l1_next_line_prefetch: bool,
    /// Footprint/interval boundary, in LLC misses, after which
    /// [`crate::replacement::LlcReplacementPolicy::on_interval`] fires (paper: 1M misses).
    pub interval_misses: u64,
}

impl SystemConfig {
    /// The paper's Table 3 baseline, parameterized by core count.
    ///
    /// 32 KB 8-way L1D (LRU, next-line prefetch), 256 KB 16-way L2 (DRRIP, 14 cycles),
    /// 16 MB 16-way shared LLC (24 cycles, 4 banks, 256 MSHRs, 128-entry WB buffer),
    /// DDR2 with 180/340-cycle row hit/conflict, 8 banks, 4 KB rows, XOR mapping.
    pub fn paper_baseline(num_cores: usize) -> Self {
        SystemConfig {
            num_cores,
            core: CoreConfig {
                issue_width: 4,
                rob_size: 128,
                mlp_overlap: 2.0,
                l1_hit_cycles: 1,
            },
            l1d: PrivateCacheConfig {
                geometry: CacheGeometry::new(32 * 1024, 8),
                latency: 1,
                policy: PrivatePolicyKind::Lru,
            },
            l2: PrivateCacheConfig {
                geometry: CacheGeometry::new(256 * 1024, 16),
                latency: 14,
                policy: PrivatePolicyKind::Drrip,
            },
            llc: LlcConfig {
                geometry: CacheGeometry::new(16 * 1024 * 1024, 16),
                latency: 24,
                banks: 4,
                bank_busy_cycles: 4,
                mshr_entries: 256,
                wb_entries: 128,
                contention: BankContentionConfig::flat(),
                nuca: NucaConfig::disabled(),
            },
            dram: DramConfig {
                row_hit_cycles: 180,
                row_conflict_cycles: 340,
                banks: 8,
                row_bytes: 4096,
                xor_mapping: true,
                bank_busy_cycles: 16,
                contention: BankContentionConfig::flat(),
                row_model: RowModelConfig::disabled(),
            },
            l1_next_line_prefetch: true,
            interval_misses: 1_000_000,
        }
    }

    /// Paper baseline with a different LLC capacity/associativity (Figure 7 sensitivity:
    /// 24 MB/24-way and 32 MB/32-way keep the set count constant and grow associativity).
    pub fn paper_with_llc(num_cores: usize, llc_bytes: u64, llc_ways: usize) -> Self {
        let mut cfg = Self::paper_baseline(num_cores);
        cfg.llc.geometry = CacheGeometry::new(llc_bytes, llc_ways);
        cfg
    }

    /// Proportionally scaled-down configuration used by the default experiment runs.
    ///
    /// Keeps the paper's associativities (so `#cores >= #llc_ways` still holds at 16+ cores)
    /// and latencies, but shrinks set counts ~16x so a workload mix simulates in seconds.
    /// The footprint interval is scaled to twice the number of LLC blocks, mirroring the
    /// paper's choice of an interval roughly 4x the block count of a 16-way 16 MB cache
    /// shared by 16 cores.
    pub fn scaled(num_cores: usize) -> Self {
        let mut cfg = Self::paper_baseline(num_cores);
        cfg.l1d.geometry = CacheGeometry::new(8 * 1024, 8);
        cfg.l2.geometry = CacheGeometry::new(32 * 1024, 16);
        cfg.llc.geometry = CacheGeometry::new(512 * 1024, 16);
        // Long enough that a thrashing application accumulates >= associativity unique
        // blocks per monitored set within one interval (the property the paper's 1M-miss
        // interval provides at full scale), short enough that several intervals complete in
        // a scaled-down run.
        cfg.interval_misses = (cfg.llc.geometry.num_blocks() as u64) * 24;
        cfg
    }

    /// Scaled configuration with an alternative LLC (scaled analogue of Figure 7).
    pub fn scaled_with_llc(num_cores: usize, llc_bytes: u64, llc_ways: usize) -> Self {
        let mut cfg = Self::scaled(num_cores);
        cfg.llc.geometry = CacheGeometry::new(llc_bytes, llc_ways);
        cfg.interval_misses = (cfg.llc.geometry.num_blocks() as u64) * 24;
        cfg
    }

    /// Number of LLC banks for a core-count-generic many-core system: one bank per
    /// eight cores, rounded up to a power of two, clamped to `[4, 32]` (the paper's
    /// 16-core machine uses 4 banks).
    pub fn many_core_llc_banks(num_cores: usize) -> usize {
        (num_cores / 8).next_power_of_two().clamp(4, 32)
    }

    /// Number of DRAM banks for a many-core system: one per two cores, rounded up to a
    /// power of two, clamped to `[8, 64]` (the paper's 16-core machine uses 8 banks).
    pub fn many_core_dram_banks(num_cores: usize) -> usize {
        (num_cores / 2).next_power_of_two().clamp(8, 64)
    }

    /// Apply the core-count-generic many-core shape to `self`: per-core LLC capacity
    /// (set count rounded up to a power of two, so 48-core systems work), bank counts,
    /// MSHR/write-back capacities and DRAM banks scaled with the core count, and the
    /// cycle-accounted contention model enabled (2 ports, 16-entry queues per bank,
    /// MSHR back-pressure).
    fn make_many_core(mut self, per_core_llc_bytes: u64) -> Self {
        let n = self.num_cores;
        self.llc.geometry = CacheGeometry::per_core(n, per_core_llc_bytes, 16);
        self.llc.banks = Self::many_core_llc_banks(n);
        self.llc.mshr_entries = 16 * n;
        self.llc.wb_entries = 8 * n;
        self.llc.contention = BankContentionConfig::contended(2, 16);
        self.dram.banks = Self::many_core_dram_banks(n);
        self.dram.contention = BankContentionConfig::contended(2, 16);
        self
    }

    /// Paper-shaped many-core configuration for the scaling study beyond the paper's
    /// 24 cores: the Table 3 hierarchy with the paper's 1 MB-per-core LLC provisioning
    /// (16 MB / 16 cores), contended banks and scaled MSHR/bank counts.
    pub fn paper_many_core(num_cores: usize) -> Self {
        Self::paper_baseline(num_cores).make_many_core(1024 * 1024)
    }

    /// Scaled-down many-core configuration (the default for `repro scale`): same shape
    /// as [`SystemConfig::paper_many_core`] on the [`SystemConfig::scaled`] hierarchy,
    /// 32 KB of LLC per core (512 KB / 16 cores, matching `scaled()`).
    pub fn scaled_many_core(num_cores: usize) -> Self {
        let mut cfg = Self::scaled(num_cores).make_many_core(32 * 1024);
        cfg.interval_misses = (cfg.llc.geometry.num_blocks() as u64) * 24;
        cfg
    }

    /// Enable the realistic memory system on `self`: FR-FCFS row-buffer scheduling in
    /// the DRAM banks (row-hit latency from the DDR2 table, row-miss halfway between
    /// hit and conflict, conflict from the table, starvation cap of 4) and mesh NUCA
    /// with the given per-hop wire latency on the LLC banks. With `hop_cycles == 0`
    /// only the row model is enabled.
    pub fn with_frfcfs_nuca(mut self, hop_cycles: u64) -> Self {
        let hit = self.dram.row_hit_cycles;
        let conflict = self.dram.row_conflict_cycles;
        self.dram.row_model = RowModelConfig::frfcfs(hit, (hit + conflict) / 2, conflict, 4);
        self.llc.nuca = NucaConfig::mesh(hop_cycles);
        self
    }

    /// NUCA wire delay in cycles for a request from `core` to LLC bank `bank` under
    /// this configuration's mesh topology (0 when NUCA is disabled).
    pub fn nuca_delay(&self, core: usize, bank: usize) -> u64 {
        self.llc.nuca.hop_cycles * mesh_hops(core, self.num_cores, bank, self.llc.banks)
    }

    /// Very small configuration for unit tests and micro-benchmarks.
    pub fn tiny(num_cores: usize) -> Self {
        let mut cfg = Self::paper_baseline(num_cores);
        cfg.l1d.geometry = CacheGeometry::new(2 * 1024, 4);
        cfg.l2.geometry = CacheGeometry::new(8 * 1024, 8);
        cfg.llc.geometry = CacheGeometry::new(64 * 1024, 16);
        cfg.interval_misses = 2048;
        cfg
    }

    /// Sanity-check internal consistency; returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be > 0".into());
        }
        if self.llc.banks == 0 {
            return Err("LLC bank count must be > 0".into());
        }
        // The XOR bank mapping masks with `banks - 1`.
        if self.dram.banks == 0 || !self.dram.banks.is_power_of_two() {
            return Err("DRAM bank count must be a power of two".into());
        }
        if self.llc.contention.ports == 0 || self.dram.contention.ports == 0 {
            return Err("bank contention models need at least one service port".into());
        }
        if self.dram.row_model.enabled {
            let rm = self.dram.row_model;
            if rm.row_hit_cycles == 0 {
                return Err("row model row_hit_cycles must be > 0".into());
            }
            if !(rm.row_hit_cycles <= rm.row_miss_cycles
                && rm.row_miss_cycles <= rm.row_conflict_cycles)
            {
                return Err("row model latencies must satisfy hit <= miss <= conflict".into());
            }
            if rm.starvation_cap == 0 {
                return Err("row model starvation_cap must be >= 1".into());
            }
        }
        if self.interval_misses == 0 {
            return Err("interval_misses must be > 0".into());
        }
        if self.core.issue_width == 0 {
            return Err("issue width must be > 0".into());
        }
        if self.core.mlp_overlap < 1.0 {
            return Err("mlp_overlap must be >= 1.0".into());
        }
        for (name, g) in [
            ("L1D", self.l1d.geometry),
            ("L2", self.l2.geometry),
            ("LLC", self.llc.geometry),
        ] {
            if g.ways == 0 || g.num_sets() == 0 {
                return Err(format!("{name} geometry degenerate"));
            }
            // What the cache constructors would otherwise die on: sets are selected by
            // mask, and a set's valid/dirty state is one `u64`.
            if !g.num_sets().is_power_of_two() {
                return Err(format!("{name} set count must be a power of two"));
            }
            if g.ways > crate::llc::MAX_WAYS {
                return Err(format!(
                    "{name} associativity must be <= {}",
                    crate::llc::MAX_WAYS
                ));
            }
        }
        // The private stage's livelock accounting counts only L1 hits as zero-advance
        // steps; every L1 miss costs at least an L2 hit.
        let l2_hit_latency = self.core.l1_hit_cycles + self.l2.latency;
        if crate::core_model::CoreModel::new(self.core).advance(0, l2_hit_latency) == 0 {
            return Err(
                "an L1 miss that hits the L2 must advance the clock (l2.latency too small \
                 for mlp_overlap)"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table3() {
        let cfg = SystemConfig::paper_baseline(16);
        assert_eq!(cfg.l1d.geometry.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1d.geometry.ways, 8);
        assert_eq!(cfg.l2.geometry.size_bytes, 256 * 1024);
        assert_eq!(cfg.l2.geometry.ways, 16);
        assert_eq!(cfg.l2.latency, 14);
        assert_eq!(cfg.llc.geometry.size_bytes, 16 * 1024 * 1024);
        assert_eq!(cfg.llc.geometry.ways, 16);
        assert_eq!(cfg.llc.latency, 24);
        assert_eq!(cfg.llc.banks, 4);
        assert_eq!(cfg.llc.mshr_entries, 256);
        assert_eq!(cfg.dram.row_hit_cycles, 180);
        assert_eq!(cfg.dram.row_conflict_cycles, 340);
        assert_eq!(cfg.dram.banks, 8);
        assert_eq!(cfg.dram.row_bytes, 4096);
        assert_eq!(cfg.interval_misses, 1_000_000);
        assert_eq!(cfg.core.issue_width, 4);
        assert_eq!(cfg.core.rob_size, 128);
        cfg.validate().unwrap();
    }

    #[test]
    fn paper_llc_has_16k_sets() {
        let cfg = SystemConfig::paper_baseline(16);
        assert_eq!(cfg.llc.geometry.num_sets(), 16 * 1024);
        assert_eq!(cfg.llc.geometry.num_blocks(), 256 * 1024);
    }

    #[test]
    fn figure7_llc_variants_grow_associativity() {
        let c24 = SystemConfig::paper_with_llc(20, 24 * 1024 * 1024, 24);
        let c32 = SystemConfig::paper_with_llc(24, 32 * 1024 * 1024, 32);
        assert_eq!(c24.llc.geometry.ways, 24);
        assert_eq!(c32.llc.geometry.ways, 32);
        // Set count stays at the 16 MB/16-way baseline's 16K sets.
        assert_eq!(c24.llc.geometry.num_sets(), 16 * 1024);
        assert_eq!(c32.llc.geometry.num_sets(), 16 * 1024);
    }

    #[test]
    fn mesh_hops_are_symmetric_bounded_and_zero_on_self() {
        // Core 0 to bank tiled at 0 is distance zero on every topology.
        assert_eq!(mesh_hops(0, 16, 0, 4), 0);
        for cores in [1usize, 4, 16, 48, 128, 256] {
            let side = mesh_side(cores);
            assert!(side * side >= cores);
            assert!(side == 1 || (side - 1) * (side - 1) < cores);
            for bank in 0..8 {
                for core in 0..cores {
                    let h = mesh_hops(core, cores, bank, 8);
                    assert!(h <= 2 * (side as u64 - 1), "hop distance exceeds mesh span");
                }
            }
        }
        // Distance is a pure function: same inputs, same hops.
        assert_eq!(mesh_hops(7, 16, 3, 4), mesh_hops(7, 16, 3, 4));
    }

    #[test]
    fn validate_rejects_inconsistent_row_models() {
        let mut cfg = SystemConfig::tiny(4);
        cfg.validate().unwrap();
        cfg = cfg.with_frfcfs_nuca(2);
        cfg.validate().unwrap();
        assert!(cfg.dram.row_model.enabled);
        assert_eq!(cfg.dram.row_model.row_hit_cycles, 180);
        assert_eq!(cfg.dram.row_model.row_miss_cycles, 260);
        assert_eq!(cfg.dram.row_model.row_conflict_cycles, 340);
        assert_eq!(cfg.llc.nuca.hop_cycles, 2);

        let mut bad = cfg.clone();
        bad.dram.row_model.row_miss_cycles = 100; // < hit
        assert!(bad.validate().is_err());
        let mut bad = cfg.clone();
        bad.dram.row_model.starvation_cap = 0;
        assert!(bad.validate().is_err());
        let mut bad = cfg.clone();
        bad.dram.row_model.row_hit_cycles = 0;
        assert!(bad.validate().is_err());
        // Disabled row models are never validated for latency ordering.
        let mut flat = SystemConfig::tiny(4);
        flat.dram.row_model.row_miss_cycles = 0;
        flat.validate().unwrap();
    }

    #[test]
    fn scaled_keeps_associativity_and_validates() {
        for n in [4, 8, 16, 20, 24] {
            let cfg = SystemConfig::scaled(n);
            assert_eq!(cfg.llc.geometry.ways, 16);
            assert_eq!(cfg.l2.geometry.ways, 16);
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn tiny_validates() {
        SystemConfig::tiny(2).validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = SystemConfig::tiny(2);
        cfg.num_cores = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::tiny(2);
        cfg.interval_misses = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::tiny(2);
        cfg.core.mlp_overlap = 0.5;
        assert!(cfg.validate().is_err());

        // Any positive LLC bank count is a machine the model runs (`set % banks`);
        // the DRAM's XOR mapping still needs a power of two.
        let mut cfg = SystemConfig::tiny(2);
        cfg.llc.banks = 0;
        assert!(cfg.validate().is_err());
        cfg.llc.banks = 3;
        cfg.validate().unwrap();
        cfg.dram.banks = 3;
        assert!(cfg.validate().is_err());

        // What `PrivateCache::new` would assert on, refused here instead.
        let mut cfg = SystemConfig::tiny(2);
        cfg.l1d.geometry.size_bytes = 3 * 1024; // 12 sets x 4 ways
        assert!(cfg.validate().unwrap_err().contains("power of two"));

        let mut cfg = SystemConfig::tiny(2);
        cfg.l2.geometry = CacheGeometry::with_sets(1, 128);
        assert!(cfg.validate().unwrap_err().contains("associativity"));

        // An L1 miss that costs zero cycles would let a finished, L2-resident core
        // freeze its clock without the stage's livelock count seeing it.
        let mut cfg = SystemConfig::tiny(2);
        cfg.l2.latency = 0;
        assert!(cfg.validate().unwrap_err().contains("advance the clock"));
        let mut cfg = SystemConfig::tiny(2);
        cfg.core.mlp_overlap = 1e6;
        assert!(cfg.validate().unwrap_err().contains("advance the clock"));
    }

    #[test]
    fn many_core_configs_validate_and_scale_with_cores() {
        for n in [32, 48, 64] {
            for cfg in [
                SystemConfig::paper_many_core(n),
                SystemConfig::scaled_many_core(n),
            ] {
                cfg.validate().unwrap();
                assert_eq!(cfg.num_cores, n);
                assert_eq!(cfg.llc.geometry.ways, 16);
                assert!(cfg.llc.geometry.num_sets().is_power_of_two());
                assert_eq!(cfg.llc.mshr_entries, 16 * n);
                assert!(!cfg.llc.contention.is_flat());
                assert!(cfg.llc.contention.mshr_backpressure);
            }
        }
        // Non-power-of-two core counts round the set count up, never down.
        let c48 = SystemConfig::scaled_many_core(48);
        assert!(c48.llc.geometry.size_bytes >= 48 * 32 * 1024);
        // Bank counts follow the documented clamps.
        assert_eq!(SystemConfig::many_core_llc_banks(32), 4);
        assert_eq!(SystemConfig::many_core_llc_banks(48), 8);
        assert_eq!(SystemConfig::many_core_llc_banks(64), 8);
        assert_eq!(SystemConfig::many_core_dram_banks(32), 16);
        assert_eq!(SystemConfig::many_core_dram_banks(48), 32);
        assert_eq!(SystemConfig::many_core_dram_banks(64), 32);
    }

    #[test]
    fn default_contention_is_the_flat_seed_model() {
        let cfg = SystemConfig::paper_baseline(16);
        assert!(cfg.llc.contention.is_flat());
        assert!(cfg.dram.contention.is_flat());
        assert_eq!(
            BankContentionConfig::default(),
            BankContentionConfig::flat()
        );
        let contended = BankContentionConfig::contended(2, 16);
        assert!(!contended.is_flat());
        assert_eq!(contended.ports, 2);
        assert_eq!(contended.queue_depth, 16);
    }

    #[test]
    fn validate_rejects_zero_port_contention() {
        let mut cfg = SystemConfig::tiny(2);
        cfg.llc.contention.ports = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn per_core_geometry_rounds_sets_up_to_a_power_of_two() {
        let g = CacheGeometry::per_core(48, 32 * 1024, 16);
        assert_eq!(g.num_sets(), 2048); // 1536 rounded up
        let exact = CacheGeometry::per_core(32, 32 * 1024, 16);
        assert_eq!(exact.num_sets(), 1024);
        assert_eq!(CacheGeometry::with_sets(64, 16).num_blocks(), 1024);
    }

    #[test]
    fn geometry_counts_are_consistent() {
        let g = CacheGeometry::new(16 * 1024 * 1024, 16);
        assert_eq!(g.num_blocks(), g.num_sets() * g.ways);
    }
}
