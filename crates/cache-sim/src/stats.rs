//! Simulation statistics.
//!
//! Per-core statistics are snapshotted at the instant the core retires its instruction
//! target (the paper simulates a fixed 300M-instruction slice per application and keeps
//! finished applications running to preserve contention; we do the same). Derived metrics
//! follow the paper's definitions: `L2-MPKI` is the number of misses leaving the private L2
//! (i.e. demand accesses arriving at the LLC) per kilo-instruction, and `LLC-MPKI` is the
//! number of demand misses at the shared LLC per kilo-instruction.

use crate::bank::BankStats;
use crate::dram::DramStats;
use crate::llc::{LlcCoreStats, LlcGlobalStats};
use crate::prefetch::PrefetchStats;
use crate::private_cache::PrivateCacheStats;

/// Statistics for one core/application, snapshotted at its instruction target.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    pub core_id: usize,
    /// Label of the trace source driving this core (benchmark name).
    pub label: String,
    pub instructions: u64,
    pub cycles: u64,
    pub compute_cycles: u64,
    pub mem_stall_cycles: u64,
    pub l1d: PrivateCacheStats,
    pub l2: PrivateCacheStats,
    pub llc: LlcCoreStats,
    pub prefetch: PrefetchStats,
    pub dram_reads: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Misses leaving the private L2 per kilo-instruction (the paper's "L2-MPKI").
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc.demand_accesses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Demand misses at the shared LLC per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc.demand_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// LLC demand hit ratio.
    pub fn llc_hit_ratio(&self) -> f64 {
        if self.llc.demand_accesses == 0 {
            0.0
        } else {
            self.llc.demand_hits as f64 / self.llc.demand_accesses as f64
        }
    }
}

/// Stall cycles attributed to one requesting core across the whole memory system.
///
/// Each field mirrors, delta for delta, an increment made to the corresponding global
/// accounting ([`LlcGlobalStats`], [`crate::bank::BankStats`], [`DramStats`]), so the
/// per-core vectors sum exactly to the global totals — the conservation law enforced
/// by `tests/scaling_study.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStallAttribution {
    pub core_id: usize,
    /// Cycles this core's LLC requests waited for a bank port
    /// (sums to [`LlcGlobalStats::bank_queue_cycles`]).
    pub llc_queue_cycles: u64,
    /// Cycles this core's LLC requests were refused admission by a full bank queue
    /// (sums to [`LlcGlobalStats::bank_admission_stall_cycles`]).
    pub llc_admission_cycles: u64,
    /// Cycles this core's DRAM requests waited for a bank port.
    pub dram_queue_cycles: u64,
    /// Cycles this core's DRAM requests were refused admission. Together with
    /// `dram_queue_cycles` this sums to [`DramStats::queue_cycles`].
    pub dram_admission_cycles: u64,
    /// Cycles this core stalled on full LLC MSHRs
    /// (sums to [`LlcGlobalStats::mshr_stall_cycles`]).
    pub mshr_stall_cycles: u64,
}

impl CoreStallAttribution {
    /// Total memory-system stall cycles attributed to this core.
    pub fn total(&self) -> u64 {
        self.llc_queue_cycles
            + self.llc_admission_cycles
            + self.dram_queue_cycles
            + self.dram_admission_cycles
            + self.mshr_stall_cycles
    }
}

/// Assemble per-core stall attribution from the component-level vectors. The inputs
/// may be shorter than `num_cores` (attribution vectors grow on demand); missing
/// entries are zero.
pub fn assemble_core_stalls(
    num_cores: usize,
    llc_banks: &[crate::bank::CoreBankStalls],
    mshr: &[u64],
    dram_banks: &[crate::bank::CoreBankStalls],
) -> Vec<CoreStallAttribution> {
    (0..num_cores)
        .map(|core_id| {
            let llc = llc_banks.get(core_id).copied().unwrap_or_default();
            let dram = dram_banks.get(core_id).copied().unwrap_or_default();
            CoreStallAttribution {
                core_id,
                llc_queue_cycles: llc.queue_cycles,
                llc_admission_cycles: llc.admission_stall_cycles,
                dram_queue_cycles: dram.queue_cycles,
                dram_admission_cycles: dram.admission_stall_cycles,
                mshr_stall_cycles: mshr.get(core_id).copied().unwrap_or(0),
            }
        })
        .collect()
}

/// Results of a complete multi-core simulation.
#[derive(Debug, Clone, Default)]
pub struct SystemResults {
    /// Name of the LLC replacement policy used.
    pub policy: String,
    pub per_core: Vec<CoreStats>,
    pub llc_global: LlcGlobalStats,
    /// Per-bank LLC occupancy/stall statistics, indexed by bank.
    pub llc_banks: Vec<BankStats>,
    pub dram: DramStats,
    /// Memory-system stall cycles attributed per requesting core (see
    /// [`CoreStallAttribution`]), indexed by core.
    pub core_stalls: Vec<CoreStallAttribution>,
    /// Cycle at which the last core reached its instruction target.
    pub final_cycle: u64,
}

impl SystemResults {
    /// Vector of per-core IPCs in core order.
    pub fn ipcs(&self) -> Vec<f64> {
        self.per_core.iter().map(|c| c.ipc()).collect()
    }

    /// Vector of per-core LLC MPKIs in core order.
    pub fn llc_mpkis(&self) -> Vec<f64> {
        self.per_core.iter().map(|c| c.llc_mpki()).collect()
    }

    /// Total demand misses observed at the LLC across all cores (at snapshot time).
    pub fn total_llc_demand_misses(&self) -> u64 {
        self.per_core.iter().map(|c| c.llc.demand_misses).sum()
    }

    /// Share of total LLC bank time spent stalled rather than in service:
    /// `stall / (stall + busy)` over all banks. Zero when the LLC saw no traffic.
    pub fn bank_stall_share(&self) -> f64 {
        crate::bank::aggregate_stall_share(&self.llc_banks)
    }
}

/// Convenience alias re-exported at the crate root.
pub type LlcStats = LlcGlobalStats;

/// Summary statistics helper (mean over a slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean over a slice of positive values (0 if empty).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Serializable summary row used by experiment reports.
#[derive(Debug, Clone)]
pub struct CoreSummaryRow {
    pub core_id: usize,
    pub label: String,
    pub ipc: f64,
    pub l2_mpki: f64,
    pub llc_mpki: f64,
}

impl From<&CoreStats> for CoreSummaryRow {
    fn from(c: &CoreStats) -> Self {
        CoreSummaryRow {
            core_id: c.core_id,
            label: c.label.clone(),
            ipc: c.ipc(),
            l2_mpki: c.l2_mpki(),
            llc_mpki: c.llc_mpki(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(instr: u64, cycles: u64, llc_acc: u64, llc_miss: u64) -> CoreStats {
        let mut s = CoreStats {
            instructions: instr,
            cycles,
            ..Default::default()
        };
        s.llc.demand_accesses = llc_acc;
        s.llc.demand_hits = llc_acc - llc_miss;
        s.llc.demand_misses = llc_miss;
        s
    }

    #[test]
    fn ipc_and_mpki_are_computed_per_kiloinstruction() {
        let s = stats_with(1_000_000, 500_000, 20_000, 5_000);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.l2_mpki() - 20.0).abs() < 1e-12);
        assert!((s.llc_mpki() - 5.0).abs() < 1e-12);
        assert!((s.llc_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_instruction_stats_do_not_divide_by_zero() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l2_mpki(), 0.0);
        assert_eq!(s.llc_mpki(), 0.0);
        assert_eq!(s.llc_hit_ratio(), 0.0);
    }

    #[test]
    fn system_results_aggregate_per_core_values() {
        let r = SystemResults {
            policy: "p".into(),
            per_core: vec![stats_with(1000, 500, 10, 4), stats_with(1000, 1000, 20, 6)],
            ..Default::default()
        };
        assert_eq!(r.ipcs(), vec![2.0, 1.0]);
        assert_eq!(r.total_llc_demand_misses(), 10);
        assert_eq!(r.llc_mpkis().len(), 2);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn assemble_core_stalls_pads_short_vectors_and_totals() {
        use crate::bank::CoreBankStalls;
        let llc = [CoreBankStalls {
            queue_cycles: 10,
            admission_stall_cycles: 2,
        }];
        let dram = [
            CoreBankStalls::default(),
            CoreBankStalls {
                queue_cycles: 7,
                admission_stall_cycles: 0,
            },
        ];
        let out = assemble_core_stalls(3, &llc, &[0, 5], &dram);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].total(), 12);
        assert_eq!(out[1].total(), 12);
        assert_eq!(out[1].dram_queue_cycles, 7);
        assert_eq!(out[1].mshr_stall_cycles, 5);
        assert_eq!(
            out[2],
            CoreStallAttribution {
                core_id: 2,
                ..Default::default()
            }
        );
    }

    #[test]
    fn summary_row_mirrors_core_stats() {
        let mut c = stats_with(2000, 1000, 40, 10);
        c.label = "mcf".into();
        c.core_id = 3;
        let row = CoreSummaryRow::from(&c);
        assert_eq!(row.core_id, 3);
        assert_eq!(row.label, "mcf");
        assert!((row.ipc - 2.0).abs() < 1e-12);
    }
}
