//! DDR2-style main-memory model (paper Table 3).
//!
//! Only row hits and row conflicts are modeled, like the memory model of the EAF paper the
//! authors follow ("We use memory model for our study like \[2\]: only row-hits and
//! row-conflicts are modeled"): 180 cycles for a row hit, 340 for a row conflict, 8 banks
//! with 4 KB rows and permutation-based (XOR-mapped) page interleaving to spread conflicting
//! rows across banks. Each bank additionally serializes requests through a busy window so
//! that bandwidth contention from many cores is visible.
//!
//! With a [`crate::config::RowModelConfig`], classification moves into the bank
//! scheduler ([`crate::bank::BankModel::schedule`]): FR-FCFS row-buffer dynamics with a
//! three-way hit/miss/conflict latency split and a starvation cap. The legacy two-way
//! open-row register above remains the default and is bit-identical to the seed.
//!
//! Every access passes the `bank.schedule` fault-injection site (see `sim-fault`): an
//! armed `stall` fault delays wall-clock time without touching simulated state (results
//! stay bit-identical), while any other fault kind panics and is surfaced by the serving
//! layer as a typed error.

use crate::addr::{BlockAddr, BLOCK_BYTES, BLOCK_SHIFT};
use crate::bank::{BankModel, BankStats, CoreBankStalls, RowClass};
use crate::config::DramConfig;

/// Per-request DRAM outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Total latency in cycles, including any bank queuing delay.
    pub latency: u64,
    /// True if the request hit the bank's open row.
    pub row_hit: bool,
    /// Bank that served the request.
    pub bank: usize,
}

/// Statistics for the memory controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    pub reads: u64,
    pub writes: u64,
    pub row_hits: u64,
    pub row_conflicts: u64,
    /// Row misses (idle bank, activate only). Always zero under the legacy two-way
    /// model, which folds misses into `row_conflicts` like the paper's memory model.
    pub row_misses: u64,
    /// Cycles spent waiting for a busy bank (including any admission back-pressure
    /// under a contended [`crate::config::BankContentionConfig`]), summed across
    /// requests.
    pub queue_cycles: u64,
}

/// The DRAM model.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    /// A block's row is its address shifted right by this: `log2(row_bytes / BLOCK_BYTES)`.
    row_shift: u32,
    /// Open row per bank (row-buffer state of the legacy two-way classifier; unused
    /// when the FR-FCFS row model owns the row registers).
    open_rows: Vec<Option<u64>>,
    /// Cycle-accounted bank occupancy (ports/queues; flat by default) plus, when
    /// enabled, the FR-FCFS row scheduler.
    model: BankModel,
    stats: DramStats,
}

impl Dram {
    /// A DRAM model over `config`, whose rows must be a power of two of at least one
    /// block (what [`crate::config::SystemConfig::validate`] checks).
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.row_bytes.is_power_of_two() && config.row_bytes >= BLOCK_BYTES,
            "DRAM rows must be a power of two of at least one block"
        );
        Dram {
            row_shift: (config.row_bytes >> BLOCK_SHIFT).trailing_zeros(),
            open_rows: vec![None; config.banks],
            model: BankModel::new(
                config.banks,
                config.bank_busy_cycles,
                config.contention,
                config.row_model,
            ),
            config,
            stats: DramStats::default(),
        }
    }

    /// Row index of a block address (rows are `row_bytes` wide).
    fn row_of(&self, block: BlockAddr) -> u64 {
        block.0 >> self.row_shift
    }

    /// Bank of a row, permuted with higher row bits (XOR mapping, Zhang et al.).
    fn bank_of(&self, row: u64) -> usize {
        let mask = self.config.banks - 1;
        (row as usize & mask) ^ ((row >> self.config.banks.trailing_zeros()) as usize & mask)
    }

    /// Issue a demand read (or a write-back when `is_write`) from `core` at absolute
    /// cycle `now`.
    pub fn access(
        &mut self,
        block: BlockAddr,
        now: u64,
        is_write: bool,
        core: usize,
    ) -> DramAccess {
        if let Some(kind) = sim_fault::fire("bank.schedule") {
            // A stall sleeps wall-clock time and leaves the simulation bit-identical;
            // every other kind aborts the evaluation (surfaced as a typed error by
            // the serving layer's panic isolation).
            if let Err(e) = sim_fault::apply_io(kind, "bank.schedule") {
                panic!("injected fault at bank.schedule: {e}");
            }
        }

        let row = self.row_of(block);
        let bank_idx = self.bank_of(row);

        let (row_hit, service, queue_delay) = if self.config.row_model.is_some() {
            let sched = self.model.schedule(bank_idx, now, core, row);
            let class = sched.class.expect("row model enabled");
            match class {
                RowClass::Hit => self.stats.row_hits += 1,
                RowClass::Miss => self.stats.row_misses += 1,
                RowClass::Conflict => self.stats.row_conflicts += 1,
            }
            (
                class == RowClass::Hit,
                sched.class_cycles,
                sched.request.delay,
            )
        } else {
            let row_hit = self.open_rows[bank_idx] == Some(row);
            let service = if row_hit {
                self.config.row_hit_cycles
            } else {
                self.config.row_conflict_cycles
            };
            self.open_rows[bank_idx] = Some(row);
            if row_hit {
                self.stats.row_hits += 1;
            } else {
                self.stats.row_conflicts += 1;
            }
            let queue_delay = self.model.request(bank_idx, now, core).delay;
            (row_hit, service, queue_delay)
        };

        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.queue_cycles += queue_delay;

        DramAccess {
            latency: queue_delay + service,
            row_hit,
            bank: bank_idx,
        }
    }

    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Per-bank occupancy/stall statistics, indexed by bank.
    pub fn bank_stats(&self) -> &[BankStats] {
        self.model.stats()
    }

    /// Queue/admission stall cycles attributed per requesting core. Summing this
    /// vector reproduces [`DramStats::queue_cycles`] exactly (conservation law:
    /// `delay = (start - admit) + (admit - now)`).
    pub fn core_stalls(&self) -> &[CoreBankStalls] {
        self.model.core_stalls()
    }

    pub fn config(&self) -> &DramConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RowModelConfig;

    fn cfg() -> DramConfig {
        DramConfig {
            row_hit_cycles: 180,
            row_conflict_cycles: 340,
            banks: 8,
            row_bytes: 4096,
            bank_busy_cycles: 16,
            contention: crate::config::BankContentionConfig::flat(),
            row_model: None,
        }
    }

    #[test]
    fn first_access_is_a_row_conflict_then_same_row_hits() {
        let mut d = Dram::new(cfg());
        let b = BlockAddr(100);
        let first = d.access(b, 0, false, 0);
        assert!(!first.row_hit);
        assert_eq!(first.latency, 340);
        // Same row, long after the bank freed up.
        let second = d.access(BlockAddr(101), 10_000, false, 0);
        assert!(second.row_hit);
        assert_eq!(second.latency, 180);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_conflicts, 1);
        assert_eq!(
            d.stats().row_misses,
            0,
            "legacy model never classifies misses"
        );
    }

    #[test]
    fn different_rows_on_same_bank_conflict() {
        let mut d = Dram::new(cfg());
        let blocks_per_row = 4096 / 64;
        let a = BlockAddr(0);
        // Row 9 maps to bank 1 ^ 1 = 0 under the XOR mapping: same bank, different row.
        let b = BlockAddr(9 * blocks_per_row);
        d.access(a, 0, false, 0);
        let out = d.access(b, 10_000, false, 0);
        assert!(!out.row_hit);
    }

    #[test]
    fn back_to_back_requests_to_one_bank_queue() {
        let mut d = Dram::new(cfg());
        let b = BlockAddr(0);
        let first = d.access(b, 0, false, 0);
        let second = d.access(BlockAddr(1), 0, false, 0);
        assert_eq!(first.latency, 340);
        // Second arrives while the bank is busy (busy window 16) and then row-hits.
        assert_eq!(second.latency, 16 + 180);
        assert_eq!(d.stats().queue_cycles, 16);
    }

    #[test]
    fn xor_mapping_spreads_consecutive_rows_across_banks() {
        let d = Dram::new(cfg());
        let blocks_per_row = 4096 / 64;
        let mut banks = std::collections::HashSet::new();
        for row in 0..64u64 {
            banks.insert(d.bank_of(d.row_of(BlockAddr(row * blocks_per_row))));
        }
        assert_eq!(banks.len(), 8, "all banks should be used");
    }

    #[test]
    fn rows_by_shift_equal_rows_by_division_at_every_row_size() {
        for row_bytes in [64, 128, 4096, 8192] {
            let d = Dram::new(DramConfig { row_bytes, ..cfg() });
            for block in (0..50_000u64).map(|i| BlockAddr(i * 37)) {
                let row = block.byte_addr() / row_bytes;
                assert_eq!(d.row_of(block), row);
                let (banks, bank) = (8, row as usize % 8);
                let perm = row as usize / banks % banks;
                assert_eq!(d.bank_of(row), bank ^ perm);
            }
        }
    }

    #[test]
    fn reads_and_writes_are_counted_separately() {
        let mut d = Dram::new(cfg());
        d.access(BlockAddr(0), 0, false, 0);
        d.access(BlockAddr(1000), 0, true, 0);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn frfcfs_path_uses_three_way_latency_classes() {
        let mut c = cfg();
        c.row_model = Some(RowModelConfig::frfcfs(180, 260, 340, 4));
        let mut d = Dram::new(c);
        // Idle bank: row miss (activate only).
        let first = d.access(BlockAddr(0), 0, false, 0);
        assert!(!first.row_hit);
        assert_eq!(first.latency, 260);
        // Same row, bank idle again: row hit.
        let second = d.access(BlockAddr(1), 10_000, false, 1);
        assert!(second.row_hit);
        assert_eq!(second.latency, 180);
        let stats = *d.stats();
        assert_eq!((stats.row_misses, stats.row_hits), (1, 1));
    }

    #[test]
    fn frfcfs_attributes_queue_delay_to_the_requesting_core() {
        let mut c = cfg();
        c.row_model = Some(RowModelConfig::frfcfs(180, 260, 340, 4));
        let mut d = Dram::new(c);
        d.access(BlockAddr(0), 0, false, 0); // occupies the bank for 16 cycles
        d.access(BlockAddr(1), 0, false, 3); // queued behind it, charged to core 3
        let cs = d.core_stalls();
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[3].queue_cycles, 16);
        let total: u64 = cs.iter().map(|c| c.stall_cycles()).sum();
        assert_eq!(total, d.stats().queue_cycles);
    }

    #[test]
    fn legacy_path_attributes_stalls_per_core_without_changing_latencies() {
        let mut d = Dram::new(cfg());
        d.access(BlockAddr(0), 0, false, 2);
        let second = d.access(BlockAddr(1), 0, false, 5);
        assert_eq!(second.latency, 16 + 180);
        let cs = d.core_stalls();
        assert_eq!(cs[5].queue_cycles, 16);
        assert_eq!(cs[2].stall_cycles(), 0);
    }
}
