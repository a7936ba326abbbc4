//! Winner-tree (tournament) scheduler over the per-core next-cycle keys.
//!
//! The driver always advances the core with the smallest `(cycle, core id)`. A winner
//! tree keeps, at every internal node, the winner of its two children; the root is the
//! global minimum and changing one core's key replays only that leaf's path to the root
//! — log₂(cores) compares instead of an O(cores) scan, which is what matters in the
//! paper's "large multicore" regime (16 → 128+ cores).
//!
//! Leaves are laid out in core-id order and every compare sends a tie to the *left*
//! child, so among equal keys the lowest core id wins: the pop order is exactly the
//! `(cycle, core id)` order of a linear min-scan (what the oracle in the workspace's
//! `tests/oracle/` does, and `naive_min` in the tests below). The leaf count
//! is padded to a power of two with `u64::MAX` keys; padding sits to the right of every
//! real core, so it can never beat one — not even a retired core that also holds
//! `u64::MAX`.
//!
//! Which child wins is data-dependent at every level, and the driver re-keys the core it
//! just advanced, whose new key lands anywhere among the others: a branch on the compare
//! mispredicts about as often as it is taken either way. [`WinnerTree::update`] therefore
//! picks each level's winner with a select (`cmov`) rather than a branch, so replaying a
//! path costs log₂(cores) dependent compares and no pipeline flush.

/// Tournament tree over `n` cores' keys; see the module docs.
pub(crate) struct WinnerTree {
    /// Leaf count (`n` rounded up to a power of two); leaf `i` lives at `leaves + i`.
    leaves: usize,
    /// Winning key of the subtree rooted at each node (index 0 unused).
    key: Vec<u64>,
    /// Core id holding that winning key.
    id: Vec<u32>,
}

impl WinnerTree {
    /// A tree over `n` cores, every core's key 0.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "scheduler needs at least one core");
        let leaves = n.next_power_of_two();
        let mut key = vec![u64::MAX; 2 * leaves];
        let mut id = vec![0u32; 2 * leaves];
        for i in 0..leaves {
            id[leaves + i] = i as u32;
        }
        key[leaves..leaves + n].fill(0);
        let mut tree = WinnerTree { leaves, key, id };
        for node in (1..leaves).rev() {
            tree.play(node);
        }
        tree
    }

    /// The core with the smallest `(key, core id)`.
    #[inline]
    pub(crate) fn min(&self) -> usize {
        self.id[1] as usize
    }

    /// Set `core`'s key and replay its leaf-to-root path.
    ///
    /// The path's running winner is carried in registers and played against each
    /// sibling, so a level's loads never wait on the previous level's stores, and picked
    /// without a branch (module docs). `(key, id)` compares lexicographically: ids grow
    /// left to right, so this is the same tie-goes-left rule as [`WinnerTree::play`].
    #[inline]
    pub(crate) fn update(&mut self, core: usize, key: u64) {
        let mut node = self.leaves + core;
        self.key[node] = key;
        let mut winner = (key, core as u32);
        while node > 1 {
            let sibling = (self.key[node ^ 1], self.id[node ^ 1]);
            winner = std::hint::select_unpredictable(sibling < winner, sibling, winner);
            node >>= 1;
            (self.key[node], self.id[node]) = winner;
        }
    }

    /// Recompute one internal node from its children; a tie goes to the left child.
    #[inline]
    fn play(&mut self, node: usize) {
        let (left, right) = (2 * node, 2 * node + 1);
        let winner = if self.key[left] <= self.key[right] {
            left
        } else {
            right
        };
        self.key[node] = self.key[winner];
        self.id[node] = self.id[winner];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver's previous scheduler: first strictly-smaller key wins, so ties (and
    /// the all-`u64::MAX` case) go to the lowest core id.
    fn naive_min(keys: &[u64]) -> usize {
        let mut best = 0;
        for (i, &k) in keys.iter().enumerate() {
            if k < keys[best] {
                best = i;
            }
        }
        best
    }

    /// xorshift64*: a seeded stream without a dev-dependency.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    #[test]
    fn matches_a_naive_min_scan_under_random_updates() {
        for n in [1usize, 2, 3, 5, 16, 24, 128, 256, 1000] {
            let mut rng = 0x9e37_79b9_7f4a_7c15 ^ n as u64;
            let mut tree = WinnerTree::new(n);
            let mut keys = vec![0u64; n];
            assert_eq!(tree.min(), 0, "n={n}: all-equal start goes to core 0");
            for step in 0..20_000 {
                let core = (next(&mut rng) % n as u64) as usize;
                // A narrow key range forces ties; one update in eight retires the
                // core, so runs where most (or all) cores hold `u64::MAX` occur too.
                let key = match next(&mut rng) % 8 {
                    0 => u64::MAX,
                    _ => next(&mut rng) % 6,
                };
                keys[core] = key;
                tree.update(core, key);
                let expect = naive_min(&keys);
                assert_eq!(tree.min(), expect, "n={n} step={step} keys={keys:?}");
                assert!(tree.min() < n, "n={n}: a padding leaf won");
            }
        }
    }

    #[test]
    fn follows_the_driver_pattern_of_advancing_the_minimum() {
        // The driver only ever raises the current minimum's key; the pop order must be
        // the (key, id) sort of everything popped.
        for n in [3usize, 24, 128] {
            let mut rng = 7 + n as u64;
            let mut tree = WinnerTree::new(n);
            let mut keys = vec![0u64; n];
            let mut last = (0u64, 0usize);
            for _ in 0..20_000 {
                let core = tree.min();
                assert_eq!(core, naive_min(&keys));
                assert!(
                    (keys[core], core) >= last,
                    "n={n}: pop order went backwards"
                );
                last = (keys[core], core);
                keys[core] += next(&mut rng) % 3; // zero-advance steps included
                tree.update(core, keys[core]);
            }
        }
    }

    #[test]
    fn retired_cores_never_win_while_a_live_core_exists() {
        let n = 5;
        let mut tree = WinnerTree::new(n);
        for core in 0..n - 1 {
            tree.update(core, u64::MAX);
        }
        tree.update(n - 1, u64::MAX - 1);
        assert_eq!(tree.min(), n - 1);
        // Everyone retired: the lowest id wins the tie, never one of the 3 padding
        // leaves that hold the same key.
        tree.update(n - 1, u64::MAX);
        assert_eq!(tree.min(), 0);
    }
}
