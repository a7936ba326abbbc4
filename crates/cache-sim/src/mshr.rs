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
//!
//! **Lazy compaction.** A window keeps the completion cycles of its entries unsorted and
//! drops retired ones only when it looks full. Below capacity no request can stall,
//! whatever has retired, so [`OccupancyWindow::acquire`] returns 0 without touching the
//! buffer. At capacity it drops every entry that completed at or before `now`, and only
//! if the window is still full does it stall until the earliest completion and drop the
//! entries that retire by then. A call at capacity costs O(capacity); every other call
//! costs O(1).
//!
//! **Time precondition.** This returns the stall of a window pruned at every call only
//! if `now` never decreases from one call to the next on the same window: an entry left
//! behind then completed at or before every later `now` too, so the next compaction
//! drops it before anything is counted. The LLC calls both windows at each step's `now`,
//! in the driver's global `(cycle, core)` order, so the precondition holds; `acquire`
//! checks it in debug builds.

/// Occupancy tracker used for both MSHRs and write-back buffers.
///
/// Entries are completion cycles in arrival order, some of them possibly retired (see
/// the module docs). The buffer is allocated at capacity once, so no call allocates.
#[derive(Debug, Clone)]
pub struct OccupancyWindow {
    capacity: usize,
    completions: Vec<u64>,
    /// The `now` of the latest [`OccupancyWindow::acquire`], for the time precondition.
    last_now: u64,
}

impl OccupancyWindow {
    pub fn new(capacity: usize) -> Self {
        OccupancyWindow {
            capacity: capacity.max(1),
            completions: Vec::with_capacity(capacity.max(1)),
            last_now: 0,
        }
    }

    /// Wait for a free entry at time `now` **without** occupying one yet. Returns the
    /// stall incurred if the window was full (0 otherwise). Pair with
    /// [`OccupancyWindow::insert`] once the request's completion time is known — this
    /// two-phase form is what lets a full MSHR back-pressure the *issue* of the
    /// downstream access instead of only taxing the requester after the fact. `now` must
    /// not be smaller than any earlier call's (module docs).
    pub fn acquire(&mut self, now: u64) -> u64 {
        debug_assert!(
            now >= self.last_now,
            "occupancy window asked at cycle {now} after cycle {}",
            self.last_now
        );
        self.last_now = now;
        if self.completions.len() < self.capacity {
            return 0;
        }
        self.completions.retain(|&c| c > now);
        if self.completions.len() < self.capacity {
            return 0;
        }
        // Stall until the earliest outstanding entry retires.
        let earliest = *self.completions.iter().min().expect("non-empty when full");
        self.completions.retain(|&c| c > earliest);
        earliest - now
    }

    /// Occupy an entry until `completion`. Must follow an [`OccupancyWindow::acquire`]
    /// (or be issued when occupancy is known to be below capacity).
    pub fn insert(&mut self, completion: u64) {
        self.completions.push(completion);
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

    /// Entries still outstanding at time `now`.
    #[cfg(test)]
    fn occupancy(&self, now: u64) -> usize {
        self.completions.iter().filter(|&&c| c > now).count()
    }

    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "occupancy window asked at cycle 5 after cycle 10")]
    fn a_call_back_in_time_is_refused_in_debug_builds() {
        let mut w = OccupancyWindow::new(2);
        w.acquire(10);
        w.acquire(5);
    }

    /// The window pruned eagerly: every call first drops the entries that completed at
    /// or before `now`.
    struct EagerWindow {
        capacity: usize,
        completions: Vec<u64>,
    }

    impl EagerWindow {
        fn acquire(&mut self, now: u64) -> u64 {
            self.completions.retain(|&c| c > now);
            if self.completions.len() < self.capacity {
                return 0;
            }
            let earliest = *self.completions.iter().min().unwrap();
            self.completions.retain(|&c| c > earliest);
            earliest - now
        }
    }

    /// One request: the cycles since the previous one, its latency, and whether it goes
    /// through `reserve` or through `acquire` + `insert`.
    type Op = (u64, u64, bool);

    /// Runs `ops` on a lazy and an eager window of `capacity`, asserting every stall
    /// equal; returns how many requests stalled.
    fn assert_stalls_match_eager(capacity: usize, ops: &[Op]) -> usize {
        let mut lazy = OccupancyWindow::new(capacity);
        let mut eager = EagerWindow {
            capacity,
            completions: Vec::new(),
        };
        let (mut now, mut stalled) = (0, 0);
        for (i, &(step, latency, two_phase)) in ops.iter().enumerate() {
            now += step;
            let expected = eager.acquire(now);
            eager.completions.push(now + expected + latency);
            let stall = if two_phase {
                let stall = lazy.acquire(now);
                lazy.insert(now + stall + latency);
                stall
            } else {
                let (stall, done) = lazy.reserve(now, latency);
                assert_eq!(done, now + stall + latency);
                stall
            };
            assert_eq!(
                stall, expected,
                "request {i} at cycle {now}, capacity {capacity}"
            );
            assert_eq!(lazy.occupancy(now), eager.completions.len());
            stalled += usize::from(stall > 0);
        }
        stalled
    }

    proptest! {
        /// The lazily compacted window stalls exactly like the eager one for every
        /// request, at capacities 1..=8 and at Table 3's 256, under short latencies
        /// (rarely full) and long ones (full most of the time).
        #[test]
        fn lazy_window_stalls_like_the_eager_one(
            pick in 0usize..9,
            long in any::<bool>(),
            ops in collection::vec((0u64..6, 1u64..4000, any::<bool>()), 1..1200),
        ) {
            let capacity = if pick == 8 { 256 } else { pick + 1 };
            let span = if long { 4000 } else { 40 };
            let ops: Vec<Op> = ops
                .into_iter()
                .map(|(step, latency, two_phase)| (step, 1 + latency % span, two_phase))
                .collect();
            assert_stalls_match_eager(capacity, &ops);
        }
    }

    #[test]
    fn a_full_table3_window_stalls_like_the_eager_one() {
        // 2000 requests a cycle apart, each outstanding for 1000 cycles: a 256-entry
        // window is full from request 256 on.
        let ops: Vec<Op> = (0..2000).map(|i| (1, 1000, i % 3 == 0)).collect();
        assert!(assert_stalls_match_eager(256, &ops) > 1000);
    }
}
