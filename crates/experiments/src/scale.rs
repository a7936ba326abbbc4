//! Experiment scale selection, and every machine a study runs.
//!
//! The paper simulates 300M instructions per application over 16 MB LLCs and hundreds of
//! workload mixes — hours of simulation per figure on a software model. Three scales are
//! provided:
//!
//! * [`ExperimentScale::Paper`] — the paper's cache sizes, instruction counts and mix
//!   counts (Table 3 / Table 6). Use for a faithful, long-running reproduction.
//! * [`ExperimentScale::Scaled`] — the default: proportionally smaller caches (same
//!   associativities, so the `#cores >= #ways` regime is preserved), shorter traces and
//!   fewer mixes; every figure regenerates in minutes on a laptop.
//! * [`ExperimentScale::Smoke`] — tiny configuration for unit tests and `--smoke` runs.
//!
//! `cache_sim` describes a machine: [`SystemConfig::paper_baseline`] is Table 3 and
//! [`SystemConfig::tiny`] the unit-test machine. Which machine each study runs is chosen
//! here, each rule once. For `n` cores and an LLC the paper sizes at S bytes:
//!
//! |                      | Paper              | Scaled             | Smoke                |
//! |----------------------|--------------------|--------------------|----------------------|
//! | L1D / L2             | 32 KB / 256 KB     | 8 KB / 32 KB       | 2 KB / 8 KB (`tiny`) |
//! | LLC                  | S                  | S / 32             | max(S / 256, 64 KB)  |
//! | Footprint interval   | 1 M misses         | 24 × LLC blocks    | 2048 misses          |
//! | many-core S          | `n` MB             | `n` MB             | 16 MB                |
//! | many-core MSHR / WB  | 16`n` / 8`n`       | 16`n` / 8`n`       | 256 / 128            |
//! | many-core DRAM banks | `n` / 2 in [8, 64] | `n` / 2 in [8, 64] | 8                    |
//! | many-core LLC banks  | `n` / 8 in [4, 32] | `n` / 8 in [4, 32] | `n` / 8 in [4, 32]   |
//!
//! S is 4 MB for the 4-core study, 8 MB for the 8-core one and 16 MB for the rest (paper
//! §4.3), all 16-way; Figure 7 passes its own. The scaling studies (32 cores and up) run
//! the many-core machines: bank counts and the LLC's set count round up to a power of
//! two, so any core count builds, and every [`MemSystem`] but `Flat` gives the LLC and
//! DRAM banks 2 ports and 16-entry queues.

use cache_sim::addr::BLOCK_BYTES;
use cache_sim::config::{
    BankContentionConfig, CacheGeometry, NucaConfig, RowModelConfig, SystemConfig,
};
use workloads::StudyKind;

/// The paper's shared LLC (Table 3): 16 MB for 16 cores, 1 MB per core.
const PAPER_LLC_BYTES: u64 = 16 << 20;

/// Which memory-system model the many-core scaling study runs under. The three
/// variants form the head-to-head reported by `repro scale --memsys`:
///
/// * [`MemSystem::Flat`] — infinite bank bandwidth, no row model, zero NUCA
///   distance. Algebraically identical to the pre-contention model; the
///   bit-identity walls pin this variant.
/// * [`MemSystem::FcfsContended`] — cycle-accounted FCFS bank service (finite
///   ports, bounded queues, MSHR back-pressure), single bank latency.
/// * [`MemSystem::FrFcfsNuca`] — the contended model plus row-buffer-aware
///   FR-FCFS scheduling (distinct row-hit/miss/conflict latencies, starvation
///   cap) and mesh-NUCA distance-dependent LLC bank latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSystem {
    /// Infinite bandwidth, no row model, zero distance.
    Flat,
    /// Cycle-accounted FCFS bank contention, single bank latency.
    FcfsContended,
    /// FR-FCFS row-buffer scheduling plus mesh NUCA on the contended model.
    FrFcfsNuca,
}

impl MemSystem {
    /// Head-to-head order used in reports.
    pub fn all() -> [MemSystem; 3] {
        [
            MemSystem::Flat,
            MemSystem::FcfsContended,
            MemSystem::FrFcfsNuca,
        ]
    }

    /// Column label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            MemSystem::Flat => "flat",
            MemSystem::FcfsContended => "fcfs",
            MemSystem::FrFcfsNuca => "frfcfs+nuca",
        }
    }
}

/// How big the experiments should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// The paper's cache sizes, instruction counts and mix counts (hours).
    Paper,
    /// Proportionally smaller caches/traces/mix counts; every figure in minutes.
    Scaled,
    /// Tiny configuration for unit tests and `--smoke` runs (seconds).
    Smoke,
}

impl ExperimentScale {
    /// System configuration for a study at this scale. The many-core scaling studies
    /// (32 cores and up) run [`MemSystem::FcfsContended`]; see
    /// [`ExperimentScale::scaling_config_memsys`].
    pub fn system_config(&self, study: StudyKind) -> SystemConfig {
        if study.is_scaling() {
            return self.scaling_config_memsys(study.num_cores(), MemSystem::FcfsContended);
        }
        // 4- and 8-core studies use 4 MB / 8 MB LLCs (paper §4.3); the rest 16 MB.
        let paper_llc_bytes = match study {
            StudyKind::Cores4 => 4 << 20,
            StudyKind::Cores8 => 8 << 20,
            _ => PAPER_LLC_BYTES,
        };
        self.system_config_with_llc(study, paper_llc_bytes, 16)
    }

    /// Core-count-generic configuration for a given memory-system variant of the many-core
    /// scaling study: per-core LLC provisioning and bank/MSHR counts scaled with the core
    /// count. `Flat` keeps the flat bank model; `FcfsContended` enables the cycle-accounted
    /// bank contention model (finite service ports, bounded per-bank queues, MSHR
    /// back-pressure); `FrFcfsNuca` layers the FR-FCFS row model and a 2-cycle-per-hop mesh
    /// NUCA on the contended configuration.
    pub fn scaling_config_memsys(&self, cores: usize, memsys: MemSystem) -> SystemConfig {
        let mut cfg = match self {
            // Smoke keeps its 16-core LLC, MSHRs and DRAM banks at every core count.
            ExperimentScale::Smoke => self.machine(
                cores,
                CacheGeometry::new(self.llc_bytes(PAPER_LLC_BYTES), 16),
            ),
            _ => {
                // The set count rounds up, so any core count (48, say) builds.
                let llc_bytes = self.llc_bytes(cores as u64 * PAPER_LLC_BYTES / 16);
                let sets = (llc_bytes / (BLOCK_BYTES * 16)) as usize;
                let mut cfg = self.machine(
                    cores,
                    CacheGeometry::with_sets(sets.next_power_of_two(), 16),
                );
                cfg.llc.mshr_entries = 16 * cores;
                cfg.llc.wb_entries = 8 * cores;
                cfg.dram.banks = (cores / 2).next_power_of_two().clamp(8, 64);
                cfg
            }
        };
        cfg.llc.banks = (cores / 8).next_power_of_two().clamp(4, 32);
        if memsys != MemSystem::Flat {
            cfg.llc.contention = BankContentionConfig::contended(2, 16);
            cfg.dram.contention = cfg.llc.contention;
        }
        if memsys == MemSystem::FrFcfsNuca {
            // Row-miss latency halfway between the DDR2 table's hit and conflict.
            let (hit, conflict) = (cfg.dram.row_hit_cycles, cfg.dram.row_conflict_cycles);
            let miss = (hit + conflict) / 2;
            cfg.dram.row_model = Some(RowModelConfig::frfcfs(hit, miss, conflict, 4));
            cfg.llc.nuca = NucaConfig::mesh(2);
        }
        cfg
    }

    /// System configuration with an explicit LLC size/associativity (Figure 7). At the
    /// smaller scales the LLC keeps the requested associativity and shrinks its set count
    /// like the default LLC does, so the 24 MB / 32 MB variants keep the paper's "same
    /// set count, larger associativity" shape.
    pub fn system_config_with_llc(
        &self,
        study: StudyKind,
        paper_llc_bytes: u64,
        llc_ways: usize,
    ) -> SystemConfig {
        let llc = CacheGeometry::new(self.llc_bytes(paper_llc_bytes), llc_ways);
        self.machine(study.num_cores(), llc)
    }

    /// This scale's LLC for one the paper sizes at `paper_bytes`.
    fn llc_bytes(&self, paper_bytes: u64) -> u64 {
        match self {
            ExperimentScale::Paper => paper_bytes,
            ExperimentScale::Scaled => paper_bytes / 32,
            ExperimentScale::Smoke => (paper_bytes / 256).max(64 * 1024),
        }
    }

    /// This scale's private caches and Footprint interval around the shared `llc`.
    fn machine(&self, cores: usize, llc: CacheGeometry) -> SystemConfig {
        let mut cfg = match self {
            ExperimentScale::Paper => SystemConfig::paper_baseline(cores),
            ExperimentScale::Scaled => {
                let mut cfg = SystemConfig::paper_baseline(cores);
                cfg.l1d.geometry = CacheGeometry::new(8 * 1024, 8);
                cfg.l2.geometry = CacheGeometry::new(32 * 1024, 16);
                // Long enough that a thrashing application accumulates >= associativity
                // unique blocks per monitored set within one interval (the property the
                // paper's 1M-miss interval provides at full scale), short enough that
                // several intervals complete in a scaled-down run.
                cfg.interval_misses = 24 * llc.num_blocks() as u64;
                cfg
            }
            ExperimentScale::Smoke => SystemConfig::tiny(cores),
        };
        cfg.llc.geometry = llc;
        cfg
    }

    /// Instructions simulated per application.
    pub fn instructions_per_core(&self) -> u64 {
        match self {
            ExperimentScale::Paper => 300_000_000,
            ExperimentScale::Scaled => 3_000_000,
            ExperimentScale::Smoke => 40_000,
        }
    }

    /// Number of workload mixes evaluated for a study.
    pub fn mixes_for(&self, study: StudyKind) -> usize {
        match self {
            ExperimentScale::Paper => study.paper_workload_count(),
            ExperimentScale::Scaled => match study {
                StudyKind::Cores4 => 16,
                StudyKind::Cores8 => 12,
                StudyKind::Cores16 => 12,
                StudyKind::Cores20 | StudyKind::Cores24 => 8,
                StudyKind::Cores32 => 6,
                StudyKind::Cores48 | StudyKind::Cores64 => 4,
                StudyKind::Cores128 | StudyKind::Cores256 => 2,
            },
            ExperimentScale::Smoke => 2,
        }
    }

    /// Seed used for mix generation and trace construction.
    pub fn seed(&self) -> u64 {
        0xADA9_7000 + matches!(self, ExperimentScale::Paper) as u64
    }

    /// Human-readable name.
    pub fn label(&self) -> &'static str {
        match self {
            ExperimentScale::Paper => "paper",
            ExperimentScale::Scaled => "scaled",
            ExperimentScale::Smoke => "smoke",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::config::mesh_hops;

    /// One machine on one line: L1D, L2 and LLC as bytes/ways, the Footprint interval,
    /// LLC/DRAM banks, MSHR/write-back entries, LLC/DRAM contention as ports x queue
    /// depth, the DRAM row model (hit/miss/conflict/cap) and NUCA cycles per hop.
    fn shape(cfg: &SystemConfig) -> String {
        cfg.validate().unwrap();
        let cache = |g: CacheGeometry| match g.size_bytes {
            b if b % (1 << 20) == 0 => format!("{}M/{}", b >> 20, g.ways),
            b => format!("{}K/{}", b >> 10, g.ways),
        };
        let contention = |c: BankContentionConfig| format!("{}x{}", c.ports, c.queue_depth);
        let row = cfg.dram.row_model.map_or("-".into(), |r| {
            let (hit, miss) = (r.row_hit_cycles, r.row_miss_cycles);
            format!(
                "{hit}/{miss}/{}/{}",
                r.row_conflict_cycles, r.starvation_cap
            )
        });
        format!(
            "{} {} {} iv {} banks {}/{} mshr {}/{} {}/{} row {row} nuca {}",
            cache(cfg.l1d.geometry),
            cache(cfg.l2.geometry),
            cache(cfg.llc.geometry),
            cfg.interval_misses,
            cfg.llc.banks,
            cfg.dram.banks,
            cfg.llc.mshr_entries,
            cfg.llc.wb_entries,
            contention(cfg.llc.contention),
            contention(cfg.dram.contention),
            cfg.llc.nuca.hop_cycles,
        )
    }

    /// Every machine a study builds, pinned field by field: each scale's study
    /// machines, the Figure 7 LLCs and each memory system of the scaling study.
    #[test]
    fn every_machine_is_pinned() {
        let mut got = Vec::new();
        for scale in [
            ExperimentScale::Paper,
            ExperimentScale::Scaled,
            ExperimentScale::Smoke,
        ] {
            let name = scale.label();
            for study in StudyKind::all() {
                let cfg = scale.system_config(study);
                assert_eq!(cfg.num_cores, study.num_cores());
                got.push(format!("{name} {}: {}", study.num_cores(), shape(&cfg)));
            }
            for study in [StudyKind::Cores16, StudyKind::Cores20, StudyKind::Cores24] {
                for (mib, ways) in [(24, 24), (32, 32)] {
                    let cfg = scale.system_config_with_llc(study, mib << 20, ways);
                    let cores = study.num_cores();
                    got.push(format!("{name} {cores} fig7 {mib}M: {}", shape(&cfg)));
                }
            }
            for cores in [32, 48, 128] {
                for memsys in MemSystem::all() {
                    let cfg = scale.scaling_config_memsys(cores, memsys);
                    assert_eq!(cfg.num_cores, cores);
                    let label = memsys.label();
                    got.push(format!("{name} {cores} {label}: {}", shape(&cfg)));
                }
            }
        }
        let want = [
            "paper 4: 32K/8 256K/16 4M/16 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 8: 32K/8 256K/16 8M/16 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 16: 32K/8 256K/16 16M/16 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 20: 32K/8 256K/16 16M/16 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 24: 32K/8 256K/16 16M/16 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 32: 32K/8 256K/16 32M/16 iv 1000000 banks 4/16 mshr 512/256 2x16/2x16 row - nuca 0",
            "paper 48: 32K/8 256K/16 64M/16 iv 1000000 banks 8/32 mshr 768/384 2x16/2x16 row - nuca 0",
            "paper 64: 32K/8 256K/16 64M/16 iv 1000000 banks 8/32 mshr 1024/512 2x16/2x16 row - nuca 0",
            "paper 128: 32K/8 256K/16 128M/16 iv 1000000 banks 16/64 mshr 2048/1024 2x16/2x16 row - nuca 0",
            "paper 256: 32K/8 256K/16 256M/16 iv 1000000 banks 32/64 mshr 4096/2048 2x16/2x16 row - nuca 0",
            "paper 16 fig7 24M: 32K/8 256K/16 24M/24 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 16 fig7 32M: 32K/8 256K/16 32M/32 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 20 fig7 24M: 32K/8 256K/16 24M/24 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 20 fig7 32M: 32K/8 256K/16 32M/32 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 24 fig7 24M: 32K/8 256K/16 24M/24 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 24 fig7 32M: 32K/8 256K/16 32M/32 iv 1000000 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "paper 32 flat: 32K/8 256K/16 32M/16 iv 1000000 banks 4/16 mshr 512/256 1x0/1x0 row - nuca 0",
            "paper 32 fcfs: 32K/8 256K/16 32M/16 iv 1000000 banks 4/16 mshr 512/256 2x16/2x16 row - nuca 0",
            "paper 32 frfcfs+nuca: 32K/8 256K/16 32M/16 iv 1000000 banks 4/16 mshr 512/256 2x16/2x16 row 180/260/340/4 nuca 2",
            "paper 48 flat: 32K/8 256K/16 64M/16 iv 1000000 banks 8/32 mshr 768/384 1x0/1x0 row - nuca 0",
            "paper 48 fcfs: 32K/8 256K/16 64M/16 iv 1000000 banks 8/32 mshr 768/384 2x16/2x16 row - nuca 0",
            "paper 48 frfcfs+nuca: 32K/8 256K/16 64M/16 iv 1000000 banks 8/32 mshr 768/384 2x16/2x16 row 180/260/340/4 nuca 2",
            "paper 128 flat: 32K/8 256K/16 128M/16 iv 1000000 banks 16/64 mshr 2048/1024 1x0/1x0 row - nuca 0",
            "paper 128 fcfs: 32K/8 256K/16 128M/16 iv 1000000 banks 16/64 mshr 2048/1024 2x16/2x16 row - nuca 0",
            "paper 128 frfcfs+nuca: 32K/8 256K/16 128M/16 iv 1000000 banks 16/64 mshr 2048/1024 2x16/2x16 row 180/260/340/4 nuca 2",
            "scaled 4: 8K/8 32K/16 128K/16 iv 49152 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 8: 8K/8 32K/16 256K/16 iv 98304 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 16: 8K/8 32K/16 512K/16 iv 196608 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 20: 8K/8 32K/16 512K/16 iv 196608 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 24: 8K/8 32K/16 512K/16 iv 196608 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 32: 8K/8 32K/16 1M/16 iv 393216 banks 4/16 mshr 512/256 2x16/2x16 row - nuca 0",
            "scaled 48: 8K/8 32K/16 2M/16 iv 786432 banks 8/32 mshr 768/384 2x16/2x16 row - nuca 0",
            "scaled 64: 8K/8 32K/16 2M/16 iv 786432 banks 8/32 mshr 1024/512 2x16/2x16 row - nuca 0",
            "scaled 128: 8K/8 32K/16 4M/16 iv 1572864 banks 16/64 mshr 2048/1024 2x16/2x16 row - nuca 0",
            "scaled 256: 8K/8 32K/16 8M/16 iv 3145728 banks 32/64 mshr 4096/2048 2x16/2x16 row - nuca 0",
            "scaled 16 fig7 24M: 8K/8 32K/16 768K/24 iv 294912 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 16 fig7 32M: 8K/8 32K/16 1M/32 iv 393216 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 20 fig7 24M: 8K/8 32K/16 768K/24 iv 294912 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 20 fig7 32M: 8K/8 32K/16 1M/32 iv 393216 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 24 fig7 24M: 8K/8 32K/16 768K/24 iv 294912 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 24 fig7 32M: 8K/8 32K/16 1M/32 iv 393216 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "scaled 32 flat: 8K/8 32K/16 1M/16 iv 393216 banks 4/16 mshr 512/256 1x0/1x0 row - nuca 0",
            "scaled 32 fcfs: 8K/8 32K/16 1M/16 iv 393216 banks 4/16 mshr 512/256 2x16/2x16 row - nuca 0",
            "scaled 32 frfcfs+nuca: 8K/8 32K/16 1M/16 iv 393216 banks 4/16 mshr 512/256 2x16/2x16 row 180/260/340/4 nuca 2",
            "scaled 48 flat: 8K/8 32K/16 2M/16 iv 786432 banks 8/32 mshr 768/384 1x0/1x0 row - nuca 0",
            "scaled 48 fcfs: 8K/8 32K/16 2M/16 iv 786432 banks 8/32 mshr 768/384 2x16/2x16 row - nuca 0",
            "scaled 48 frfcfs+nuca: 8K/8 32K/16 2M/16 iv 786432 banks 8/32 mshr 768/384 2x16/2x16 row 180/260/340/4 nuca 2",
            "scaled 128 flat: 8K/8 32K/16 4M/16 iv 1572864 banks 16/64 mshr 2048/1024 1x0/1x0 row - nuca 0",
            "scaled 128 fcfs: 8K/8 32K/16 4M/16 iv 1572864 banks 16/64 mshr 2048/1024 2x16/2x16 row - nuca 0",
            "scaled 128 frfcfs+nuca: 8K/8 32K/16 4M/16 iv 1572864 banks 16/64 mshr 2048/1024 2x16/2x16 row 180/260/340/4 nuca 2",
            "smoke 4: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 8: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 16: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 20: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 24: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 32: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 2x16/2x16 row - nuca 0",
            "smoke 48: 2K/4 8K/8 64K/16 iv 2048 banks 8/8 mshr 256/128 2x16/2x16 row - nuca 0",
            "smoke 64: 2K/4 8K/8 64K/16 iv 2048 banks 8/8 mshr 256/128 2x16/2x16 row - nuca 0",
            "smoke 128: 2K/4 8K/8 64K/16 iv 2048 banks 16/8 mshr 256/128 2x16/2x16 row - nuca 0",
            "smoke 256: 2K/4 8K/8 64K/16 iv 2048 banks 32/8 mshr 256/128 2x16/2x16 row - nuca 0",
            "smoke 16 fig7 24M: 2K/4 8K/8 96K/24 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 16 fig7 32M: 2K/4 8K/8 128K/32 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 20 fig7 24M: 2K/4 8K/8 96K/24 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 20 fig7 32M: 2K/4 8K/8 128K/32 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 24 fig7 24M: 2K/4 8K/8 96K/24 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 24 fig7 32M: 2K/4 8K/8 128K/32 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 32 flat: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 32 fcfs: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 2x16/2x16 row - nuca 0",
            "smoke 32 frfcfs+nuca: 2K/4 8K/8 64K/16 iv 2048 banks 4/8 mshr 256/128 2x16/2x16 row 180/260/340/4 nuca 2",
            "smoke 48 flat: 2K/4 8K/8 64K/16 iv 2048 banks 8/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 48 fcfs: 2K/4 8K/8 64K/16 iv 2048 banks 8/8 mshr 256/128 2x16/2x16 row - nuca 0",
            "smoke 48 frfcfs+nuca: 2K/4 8K/8 64K/16 iv 2048 banks 8/8 mshr 256/128 2x16/2x16 row 180/260/340/4 nuca 2",
            "smoke 128 flat: 2K/4 8K/8 64K/16 iv 2048 banks 16/8 mshr 256/128 1x0/1x0 row - nuca 0",
            "smoke 128 fcfs: 2K/4 8K/8 64K/16 iv 2048 banks 16/8 mshr 256/128 2x16/2x16 row - nuca 0",
            "smoke 128 frfcfs+nuca: 2K/4 8K/8 64K/16 iv 2048 banks 16/8 mshr 256/128 2x16/2x16 row 180/260/340/4 nuca 2",
        ];
        assert_eq!(got.len(), want.len(), "one expected line per machine");
        for (got, want) in got.iter().zip(want) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn paper_scale_matches_table3_and_table6() {
        let s = ExperimentScale::Paper;
        let cfg16 = s.system_config(StudyKind::Cores16);
        assert_eq!(cfg16.llc.geometry.size_bytes, 16 * 1024 * 1024);
        assert_eq!(s.instructions_per_core(), 300_000_000);
        assert_eq!(s.mixes_for(StudyKind::Cores16), 60);
        let cfg4 = s.system_config(StudyKind::Cores4);
        assert_eq!(cfg4.llc.geometry.size_bytes, 4 * 1024 * 1024);
        let cfg8 = s.system_config(StudyKind::Cores8);
        assert_eq!(cfg8.llc.geometry.size_bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn scaled_and_smoke_configs_validate() {
        for scale in [ExperimentScale::Scaled, ExperimentScale::Smoke] {
            for study in StudyKind::all() {
                scale.system_config(study).validate().unwrap();
                assert!(scale.mixes_for(study) >= 1);
            }
        }
    }

    #[test]
    fn llc_override_keeps_requested_associativity() {
        for scale in [
            ExperimentScale::Paper,
            ExperimentScale::Scaled,
            ExperimentScale::Smoke,
        ] {
            let cfg = scale.system_config_with_llc(StudyKind::Cores20, 24 * 1024 * 1024, 24);
            assert_eq!(cfg.llc.geometry.ways, 24);
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn scaled_preserves_cores_vs_ways_regime() {
        let cfg = ExperimentScale::Scaled.system_config(StudyKind::Cores24);
        assert!(cfg.num_cores >= cfg.llc.geometry.ways);
    }

    #[test]
    fn memsys_variants_validate_and_match_their_base_configs() {
        for scale in [ExperimentScale::Scaled, ExperimentScale::Smoke] {
            for cores in [32, 64, 128, 256] {
                let fcfs = scale.scaling_config_memsys(cores, MemSystem::FcfsContended);
                assert!(!fcfs.llc.contention.is_flat());
                assert!(!fcfs.dram.contention.is_flat());

                let flat = scale.scaling_config_memsys(cores, MemSystem::Flat);
                let mut flattened = fcfs.clone();
                flattened.llc.contention = BankContentionConfig::flat();
                flattened.dram.contention = BankContentionConfig::flat();
                assert_eq!(flat, flattened);
                assert!(flat.llc.nuca.is_disabled());
                assert!(flat.dram.row_model.is_none());

                let frfcfs = scale.scaling_config_memsys(cores, MemSystem::FrFcfsNuca);
                frfcfs.validate().unwrap();
                assert!(frfcfs.dram.row_model.is_some());
                assert_eq!(frfcfs.llc.nuca.hop_cycles, 2);
                let mut plain = frfcfs.clone();
                plain.dram.row_model = None;
                plain.llc.nuca = NucaConfig::disabled();
                assert_eq!(plain, fcfs, "FR-FCFS+NUCA adds only a row model and a mesh");
                // The last core's tile is away from bank 0's, so it pays wire latency.
                assert!(mesh_hops(cores - 1, cores, 0, frfcfs.llc.banks) > 0);
            }
        }
        assert_eq!(
            MemSystem::all().map(|m| m.label()).join("/"),
            "flat/fcfs/frfcfs+nuca"
        );
    }

    #[test]
    fn scaling_studies_get_contended_many_core_configs() {
        for scale in [
            ExperimentScale::Paper,
            ExperimentScale::Scaled,
            ExperimentScale::Smoke,
        ] {
            for study in StudyKind::scaling_studies() {
                let cfg = scale.system_config(study);
                cfg.validate().unwrap();
                assert_eq!(cfg.num_cores, study.num_cores());
                assert!(!cfg.llc.contention.is_flat(), "{study:?} must be contended");
                // The flat variant of the same geometry, for A/B comparisons.
                let flat = scale.scaling_config_memsys(study.num_cores(), MemSystem::Flat);
                assert!(flat.llc.contention.is_flat());
                assert_eq!(flat.llc.geometry, cfg.llc.geometry);
            }
        }
        // The contention regime keeps the paper's #cores >= #ways property.
        let cfg = ExperimentScale::Scaled.system_config(StudyKind::Cores64);
        assert!(cfg.num_cores >= cfg.llc.geometry.ways);
    }
}
