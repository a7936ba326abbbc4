//! Approximate out-of-order core timing model.
//!
//! BADCO (the paper's simulator) models a 4-wide OoO core with a 128-entry ROB. Building a
//! full OoO pipeline model is out of scope for a cache-policy study; what matters for the
//! paper's conclusions is (a) how much *exposed* memory latency each application sees, and
//! (b) the relative progress rates of co-running applications, which determine how their
//! access streams interleave at the shared LLC. This model captures both:
//!
//! * non-memory instructions retire at the configured issue width,
//! * L1 hits are fully pipelined (hidden),
//! * latency beyond the L1 is charged as stall time divided by an MLP overlap factor that
//!   approximates the miss overlap a 128-entry ROB extracts, and additionally bounded by
//!   the work available in the ROB window.

use crate::config::CoreConfig;

/// Per-core timing state.
#[derive(Debug, Clone)]
pub struct CoreModel {
    config: CoreConfig,
    /// True when `mlp_overlap == 2.0` (every shipped configuration): the per-access
    /// overlap division then runs as an integer halving instead of an f64
    /// divide-and-round, producing the identical result for any realistic latency.
    halve_overlap: bool,
    /// `log2(issue_width)` when the width is a power of two (every shipped
    /// configuration): the per-record compute rounding then runs as a shift instead of
    /// an integer division, with the identical result.
    issue_shift: Option<u32>,
    /// Cycles of latency the ROB can hide behind the following instructions:
    /// `rob_size / issue_width`, divided once here instead of once per record.
    rob_hide_bound: u64,
    /// Current absolute cycle of this core.
    pub cycle: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Cycles spent stalled on memory (exposed latency after overlap).
    pub mem_stall_cycles: u64,
    /// Cycles spent computing (issue-width-limited retirement of non-memory work).
    pub compute_cycles: u64,
}

impl CoreModel {
    pub fn new(config: CoreConfig) -> Self {
        CoreModel {
            halve_overlap: config.mlp_overlap == 2.0,
            issue_shift: config
                .issue_width
                .is_power_of_two()
                .then(|| config.issue_width.trailing_zeros()),
            rob_hide_bound: config.rob_size / config.issue_width,
            config,
            cycle: 0,
            instructions: 0,
            mem_stall_cycles: 0,
            compute_cycles: 0,
        }
    }

    /// Retire `non_mem_instrs` ALU/branch instructions followed by one memory instruction
    /// whose hierarchy latency (beyond the L1 pipeline) was `mem_latency` cycles.
    ///
    /// Returns the number of cycles the core advanced.
    pub fn advance(&mut self, non_mem_instrs: u64, mem_latency: u64) -> u64 {
        // Compute portion: issue-width-limited retirement (round up). For a width of
        // `1 << shift` that is the quotient plus one if any low bit is left over.
        let compute = match self.issue_shift {
            Some(shift) => {
                (non_mem_instrs >> shift) + u64::from(non_mem_instrs & ((1 << shift) - 1) != 0)
            }
            None => non_mem_instrs.div_ceil(self.config.issue_width),
        };

        // Memory portion: the L1 hit latency is hidden by the pipeline; anything longer is
        // exposed but partially overlapped with independent work in the ROB.
        let exposed = mem_latency.saturating_sub(self.config.l1_hit_cycles);
        // `(x as f64 / 2.0).round()` (round half away from zero, x exactly representable
        // for any latency the hierarchy can produce) equals `(x + 1) >> 1` for every
        // such x, so the common mlp_overlap = 2.0 case skips the float unit entirely.
        let overlapped = if self.halve_overlap && exposed < (1 << 52) {
            (exposed + 1) >> 1
        } else {
            (exposed as f64 / self.config.mlp_overlap).round() as u64
        };
        // A 128-entry ROB can hide at most ~rob_size/issue_width cycles of latency behind
        // the following instructions; do not hide more latency than that bound allows.
        let stall = overlapped.max(exposed.saturating_sub(self.rob_hide_bound));

        self.cycle += compute + stall;
        self.compute_cycles += compute;
        self.mem_stall_cycles += stall;
        self.instructions += non_mem_instrs + 1;
        compute + stall
    }

    /// Retire a run of records whose timing the private stage already summed (a gap of
    /// `crate::private`): equal to [`advance`](Self::advance) once per record.
    pub fn retire_gap(&mut self, instructions: u64, compute: u64, stall: u64) {
        self.cycle += compute + stall;
        self.compute_cycles += compute;
        self.mem_stall_cycles += stall;
        self.instructions += instructions;
    }

    /// Instructions per cycle retired so far.
    pub fn ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycle as f64
        }
    }

    /// Core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CoreConfig {
        CoreConfig {
            issue_width: 4,
            rob_size: 128,
            mlp_overlap: 2.0,
            l1_hit_cycles: 1,
        }
    }

    #[test]
    fn l1_hits_are_fully_hidden() {
        let mut c = CoreModel::new(cfg());
        let advanced = c.advance(8, 1);
        assert_eq!(advanced, 2); // 8 instrs / width 4, no stall
        assert_eq!(c.mem_stall_cycles, 0);
        assert_eq!(c.instructions, 9);
    }

    #[test]
    fn long_latencies_are_partially_overlapped() {
        let mut c = CoreModel::new(cfg());
        c.advance(0, 341); // row conflict through the whole hierarchy
                           // exposed = 340, overlapped = 170, rob bound allows hiding up to 32 cycles
                           // => stall = max(170, 340-32) = 308
        assert_eq!(c.mem_stall_cycles, 308);
    }

    #[test]
    fn moderate_latencies_use_mlp_overlap() {
        let mut c = CoreModel::new(cfg());
        c.advance(0, 25); // LLC hit
                          // exposed = 24, overlapped = 12, rob bound 32 hides everything beyond 0
                          // => stall = max(12, 0) = 12
        assert_eq!(c.mem_stall_cycles, 12);
    }

    #[test]
    fn ipc_of_pure_compute_equals_issue_width() {
        let mut c = CoreModel::new(cfg());
        for _ in 0..1000 {
            c.advance(39, 1); // 39 ALU + 1 load hitting L1
        }
        let ipc = c.ipc();
        assert!((ipc - 4.0).abs() < 0.05, "ipc = {ipc}");
    }

    #[test]
    fn memory_bound_core_has_low_ipc() {
        let mut c = CoreModel::new(cfg());
        for _ in 0..1000 {
            c.advance(3, 341);
        }
        assert!(c.ipc() < 0.1, "ipc = {}", c.ipc());
    }

    #[test]
    fn halved_overlap_fast_path_matches_float_rounding() {
        // The integer halving must reproduce the f64 divide-and-round exactly for any
        // latency the hierarchy can produce (the oracle in the workspace's `tests/oracle/`
        // keeps the float form, so whole runs check it too).
        for exposed in 0u64..10_000 {
            assert_eq!(
                (exposed + 1) >> 1,
                (exposed as f64 / 2.0).round() as u64,
                "exposed {exposed}"
            );
        }
    }

    /// The latched shift rounds up exactly as the division does, at power-of-two and
    /// other widths alike.
    #[test]
    fn issue_width_shift_matches_division() {
        for issue_width in 1..=9 {
            let config = CoreConfig {
                issue_width,
                ..cfg()
            };
            let big = [u64::from(u32::MAX), (1 << 40) - 1, (1 << 40) + 3];
            for n in (0..300).chain(big) {
                let mut model = CoreModel::new(config);
                model.advance(n, 1);
                let expected = n.div_ceil(issue_width);
                assert_eq!(model.compute_cycles, expected, "width {issue_width}, n {n}");
            }
        }
    }

    #[test]
    fn cycle_accumulates_monotonically() {
        let mut c = CoreModel::new(cfg());
        let mut last = 0;
        for i in 0..100 {
            c.advance(i % 7, (i % 5) * 50 + 1);
            assert!(c.cycle >= last);
            last = c.cycle;
        }
        assert_eq!(c.cycle, c.compute_cycles + c.mem_stall_cycles);
    }
}
