//! Experiment scale selection.
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

use cache_sim::config::{BankContentionConfig, SystemConfig};
use workloads::StudyKind;

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
    /// (32/48/64 cores) use the core-count-generic geometry with the cycle-accounted
    /// bank contention model enabled; see [`ExperimentScale::scaling_config_memsys`].
    pub fn system_config(&self, study: StudyKind) -> SystemConfig {
        let cores = study.num_cores();
        if study.is_scaling() {
            return self.scaling_config_memsys(cores, MemSystem::FcfsContended);
        }
        match self {
            ExperimentScale::Paper => {
                // 4- and 8-core studies use 4 MB / 8 MB LLCs (paper §4.3); the rest 16 MB.
                match study {
                    StudyKind::Cores4 => SystemConfig::paper_with_llc(cores, 4 * 1024 * 1024, 16),
                    StudyKind::Cores8 => SystemConfig::paper_with_llc(cores, 8 * 1024 * 1024, 16),
                    _ => SystemConfig::paper_baseline(cores),
                }
            }
            ExperimentScale::Scaled => match study {
                StudyKind::Cores4 => SystemConfig::scaled_with_llc(cores, 128 * 1024, 16),
                StudyKind::Cores8 => SystemConfig::scaled_with_llc(cores, 256 * 1024, 16),
                _ => SystemConfig::scaled(cores),
            },
            ExperimentScale::Smoke => SystemConfig::tiny(cores),
        }
    }

    /// Core-count-generic configuration for a given memory-system variant of the many-core
    /// scaling study: per-core LLC provisioning and bank/MSHR counts scaled with the core
    /// count. `Flat` keeps the flat bank model; `FcfsContended` enables the cycle-accounted
    /// bank contention model (finite service ports, bounded per-bank queues, MSHR
    /// back-pressure); `FrFcfsNuca` layers the FR-FCFS row model and a 2-cycle-per-hop mesh
    /// NUCA on the contended configuration.
    pub fn scaling_config_memsys(&self, cores: usize, memsys: MemSystem) -> SystemConfig {
        let mut cfg = match self {
            ExperimentScale::Paper => SystemConfig::paper_many_core(cores),
            ExperimentScale::Scaled => SystemConfig::scaled_many_core(cores),
            ExperimentScale::Smoke => {
                let mut cfg = SystemConfig::tiny(cores);
                cfg.llc.banks = SystemConfig::many_core_llc_banks(cores);
                cfg.llc.contention = BankContentionConfig::contended(2, 16);
                cfg.dram.contention = BankContentionConfig::contended(2, 16);
                cfg
            }
        };
        match memsys {
            MemSystem::Flat => {
                cfg.llc.contention = BankContentionConfig::flat();
                cfg.dram.contention = BankContentionConfig::flat();
                cfg
            }
            MemSystem::FcfsContended => cfg,
            MemSystem::FrFcfsNuca => cfg.with_frfcfs_nuca(2),
        }
    }

    /// System configuration with an explicit LLC size/associativity (Figure 7).
    pub fn system_config_with_llc(
        &self,
        study: StudyKind,
        paper_llc_bytes: u64,
        llc_ways: usize,
    ) -> SystemConfig {
        let cores = study.num_cores();
        match self {
            ExperimentScale::Paper => {
                SystemConfig::paper_with_llc(cores, paper_llc_bytes, llc_ways)
            }
            ExperimentScale::Scaled => {
                // Scale the paper's LLC size by the same 32x factor used by `scaled()`
                // (16 MB -> 512 KB), preserving the paper's "same set count, larger
                // associativity" shape for the 24 MB / 32 MB variants.
                SystemConfig::scaled_with_llc(cores, paper_llc_bytes / 32, llc_ways)
            }
            ExperimentScale::Smoke => {
                let mut cfg = SystemConfig::tiny(cores);
                cfg.llc.geometry = cache_sim::config::CacheGeometry::new(
                    (paper_llc_bytes / 256).max(64 * 1024),
                    llc_ways,
                );
                cfg
            }
        }
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
                assert_eq!(frfcfs, fcfs.with_frfcfs_nuca(2));
                frfcfs.validate().unwrap();
                assert!(frfcfs.dram.row_model.is_some());
                assert_eq!(frfcfs.llc.nuca.hop_cycles, 2);
                assert!(frfcfs.nuca_delay(cores - 1, 0) > 0);
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
