//! Miss-status-holding-register (MSHR) and write-back buffer occupancy models.
//!
//! The paper's LLC has 256 MSHR entries and a 128-entry retire-at-96 write-back buffer
//! (Table 3). We model these as occupancy windows: each outstanding miss occupies an entry
//! until its fill completes; when all entries are occupied, a new miss stalls until the
//! earliest outstanding fill retires. The write-back buffer is the same window: each
//! dirty LLC eviction holds an entry for one LLC latency while its write drains to DRAM
//! in the background, so write-backs cost DRAM bandwidth but do not stall the requesting
//! core unless the buffer is full. The paper's retire-at-96 drain threshold is not
//! modelled — an entry's lifetime is fixed, whatever the occupancy.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Occupancy tracker used for both MSHRs and write-back buffers.
///
/// Entries are completion timestamps in a min-heap. The many-core configurations size
/// the MSHRs at 16 × cores (2048 entries at 128 cores), so pruning pops only the entries
/// that retired instead of rescanning the whole window on every miss.
#[derive(Debug, Clone)]
pub struct OccupancyWindow {
    capacity: usize,
    completions: BinaryHeap<Reverse<u64>>,
}

impl OccupancyWindow {
    pub fn new(capacity: usize) -> Self {
        OccupancyWindow {
            capacity: capacity.max(1),
            completions: BinaryHeap::with_capacity(capacity.max(1)),
        }
    }

    /// Remove entries that completed at or before `now`.
    fn prune(&mut self, now: u64) {
        while self.completions.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.completions.pop();
        }
    }

    /// Current number of outstanding entries at time `now`.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.prune(now);
        self.completions.len()
    }

    /// Wait for a free entry at time `now` **without** occupying one yet. Returns the
    /// stall incurred if the window was full (0 otherwise). Pair with
    /// [`OccupancyWindow::insert`] once the request's completion time is known — this
    /// two-phase form is what lets a full MSHR back-pressure the *issue* of the
    /// downstream access instead of only taxing the requester after the fact.
    pub fn acquire(&mut self, now: u64) -> u64 {
        self.prune(now);
        let mut extra = 0;
        if self.completions.len() >= self.capacity {
            // Stall until the earliest outstanding entry retires.
            let Reverse(earliest) = *self.completions.peek().expect("non-empty when full");
            extra = earliest.saturating_sub(now);
            self.prune(earliest);
        }
        extra
    }

    /// Occupy an entry until `completion`. Must follow an [`OccupancyWindow::acquire`]
    /// (or be issued when occupancy is known to be below capacity).
    pub fn insert(&mut self, completion: u64) {
        self.completions.push(Reverse(completion));
    }

    /// Reserve an entry for a request issued at `now` that will complete at
    /// `now + latency`. Returns the extra delay incurred if the window was full, and the
    /// adjusted completion time.
    pub fn reserve(&mut self, now: u64, latency: u64) -> (u64, u64) {
        let extra = self.acquire(now);
        let completion = now + extra + latency;
        self.insert(completion);
        (extra, completion)
    }

    /// Capacity of the window.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_without_pressure_adds_no_delay() {
        let mut w = OccupancyWindow::new(4);
        let (extra, done) = w.reserve(100, 50);
        assert_eq!(extra, 0);
        assert_eq!(done, 150);
        assert_eq!(w.occupancy(100), 1);
        assert_eq!(w.occupancy(150), 0);
    }

    #[test]
    fn full_window_stalls_until_earliest_retires() {
        let mut w = OccupancyWindow::new(2);
        w.reserve(0, 100); // completes at 100
        w.reserve(0, 200); // completes at 200
        let (extra, done) = w.reserve(10, 50);
        assert_eq!(extra, 90); // waits until cycle 100
        assert_eq!(done, 150);

        // Completions inserted out of order still retire earliest first.
        let mut w = OccupancyWindow::new(3);
        w.insert(300);
        w.insert(100);
        w.insert(200);
        assert_eq!(w.reserve(10, 1000), (90, 1100)); // waits for the entry at 100
        assert_eq!(w.reserve(10, 5), (190, 205)); // then for the one at 200
    }

    #[test]
    fn completed_entries_are_pruned() {
        let mut w = OccupancyWindow::new(2);
        w.reserve(0, 10);
        w.reserve(0, 10);
        // At time 20 both have retired; a new reservation must not stall.
        let (extra, _) = w.reserve(20, 10);
        assert_eq!(extra, 0);
    }

    #[test]
    fn two_phase_acquire_insert_matches_reserve() {
        // acquire+insert must account stalls exactly like the one-shot reserve path.
        let mut a = OccupancyWindow::new(2);
        let mut b = OccupancyWindow::new(2);
        for (now, latency) in [(0, 100), (0, 200), (10, 50), (120, 30), (125, 5)] {
            let (extra_a, done_a) = a.reserve(now, latency);
            let extra_b = b.acquire(now);
            let done_b = now + extra_b + latency;
            b.insert(done_b);
            assert_eq!(extra_a, extra_b);
            assert_eq!(done_a, done_b);
            assert_eq!(a.occupancy(now), b.occupancy(now));
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut w = OccupancyWindow::new(0);
        assert_eq!(w.capacity(), 1);
        let (extra0, _) = w.reserve(0, 10);
        let (extra1, _) = w.reserve(0, 10);
        assert_eq!(extra0, 0);
        assert_eq!(extra1, 10);
    }
}
