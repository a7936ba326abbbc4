//! Approximate out-of-order core timing model.
//!
//! BADCO (the paper's simulator) models a 4-wide OoO core with a 128-entry ROB. Building a
//! full OoO pipeline model is out of scope for a cache-policy study; what matters for the
//! paper's conclusions is (a) how much *exposed* memory latency each application sees, and
//! (b) the relative progress rates of co-running applications, which determine how their
//! access streams interleave at the shared LLC. This model captures both, for that one
//! core:
//!
//! * non-memory instructions retire 4 a cycle,
//! * L1 hits are fully pipelined (hidden), so the model is charged only the latency
//!   beyond the L1D's,
//! * that latency is exposed as stall time halved by the miss overlap a 128-entry ROB
//!   extracts, and additionally bounded by the work available in the ROB window.

/// Instructions the core retires per cycle, as a shift: `log2(4)`.
const WIDTH_SHIFT: u32 = 2;

/// Cycles of latency the 128-entry ROB can hide behind the following instructions:
/// `128 / 4`.
const ROB_HIDE_BOUND: u64 = 128 >> WIDTH_SHIFT;

/// Cycles the core takes to retire `instructions` non-memory instructions at its issue
/// width, rounded up.
#[inline]
pub fn compute_cycles(instructions: u64) -> u64 {
    (instructions >> WIDTH_SHIFT) + u64::from(instructions & ((1 << WIDTH_SHIFT) - 1) != 0)
}

/// Cycles the core stalls on a memory access whose latency beyond the L1D's is
/// `exposed`: half of it overlaps with other misses — `(x + 1) >> 1`, which is
/// `(x as f64 / 2.0).round()` for every latency the hierarchy can produce — but the ROB
/// hides no more than `ROB_HIDE_BOUND` (128 / 4) cycles of it.
#[inline]
pub fn stall_cycles(exposed: u64) -> u64 {
    ((exposed + 1) >> 1).max(exposed.saturating_sub(ROB_HIDE_BOUND))
}

/// Per-core timing state.
#[derive(Debug, Clone, Default)]
pub struct CoreModel {
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
    /// Retire `non_mem_instrs` ALU/branch instructions followed by one memory instruction
    /// whose hierarchy latency beyond the L1D was `exposed` cycles (0 for an L1 hit).
    ///
    /// Returns the number of cycles the core advanced.
    pub fn advance(&mut self, non_mem_instrs: u64, exposed: u64) -> u64 {
        let compute = compute_cycles(non_mem_instrs);
        let stall = stall_cycles(exposed);
        self.retire_gap(non_mem_instrs + 1, compute, stall);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_hits_are_fully_hidden() {
        let mut c = CoreModel::default();
        let advanced = c.advance(8, 0);
        assert_eq!(advanced, 2); // 8 instrs / width 4, no stall
        assert_eq!(c.mem_stall_cycles, 0);
        assert_eq!(c.instructions, 9);
    }

    #[test]
    fn long_latencies_are_partially_overlapped() {
        let mut c = CoreModel::default();
        // A row conflict through the whole hierarchy: exposed = 340, overlapped = 170,
        // the ROB hides up to 32 cycles => stall = max(170, 340 - 32) = 308.
        c.advance(0, 340);
        assert_eq!(c.mem_stall_cycles, 308);
    }

    #[test]
    fn moderate_latencies_use_mlp_overlap() {
        let mut c = CoreModel::default();
        // An LLC hit: exposed = 24, overlapped = 12, and the ROB could hide up to 32
        // cycles => stall = max(12, 0) = 12.
        c.advance(0, 24);
        assert_eq!(c.mem_stall_cycles, 12);
    }

    #[test]
    fn ipc_of_pure_compute_equals_issue_width() {
        let mut c = CoreModel::default();
        for _ in 0..1000 {
            c.advance(39, 0); // 39 ALU + 1 load hitting L1
        }
        let ipc = c.ipc();
        assert!((ipc - 4.0).abs() < 0.05, "ipc = {ipc}");
    }

    #[test]
    fn memory_bound_core_has_low_ipc() {
        let mut c = CoreModel::default();
        for _ in 0..1000 {
            c.advance(3, 340);
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

    /// The shift rounds up exactly as the division by the issue width does.
    #[test]
    fn issue_width_shift_matches_division() {
        let big = [u64::from(u32::MAX), (1 << 40) - 1, (1 << 40) + 3];
        for n in (0..300).chain(big) {
            let mut model = CoreModel::default();
            model.advance(n, 0);
            assert_eq!(model.compute_cycles, n.div_ceil(4), "n {n}");
        }
    }

    #[test]
    fn cycle_accumulates_monotonically() {
        let mut c = CoreModel::default();
        let mut last = 0;
        for i in 0..100 {
            c.advance(i % 7, (i % 5) * 50);
            assert!(c.cycle >= last);
            last = c.cycle;
        }
        assert_eq!(c.cycle, c.compute_cycles + c.mem_stall_cycles);
    }
}
