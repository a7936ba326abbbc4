//! Address manipulation helpers.
//!
//! All caches in the simulated hierarchy use 64-byte lines (paper Table 3). Addresses are
//! byte addresses (`u64`); a *block address* is the byte address shifted right by
//! [`BLOCK_SHIFT`]. Set-index and tag extraction are parameterized by the cache geometry.

/// log2 of the cache line size in bytes.
pub const BLOCK_SHIFT: u32 = 6;
/// Cache line size in bytes (64 B, paper Table 3).
pub const BLOCK_BYTES: u64 = 1 << BLOCK_SHIFT;

/// A cache-line-granular address (byte address >> [`BLOCK_SHIFT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// Construct from a byte address.
    #[inline]
    pub fn from_byte_addr(addr: u64) -> Self {
        BlockAddr(addr >> BLOCK_SHIFT)
    }

    /// The first byte address covered by this block.
    #[inline]
    pub fn byte_addr(self) -> u64 {
        self.0 << BLOCK_SHIFT
    }

    /// Set index within a cache of `num_sets` sets (power of two).
    #[inline]
    pub fn set_index(self, num_sets: usize) -> usize {
        debug_assert!(num_sets.is_power_of_two());
        (self.0 as usize) & (num_sets - 1)
    }

    /// Tag, i.e. the block address bits above the set index.
    #[inline]
    pub fn tag(self, num_sets: usize) -> u64 {
        debug_assert!(num_sets.is_power_of_two());
        self.0 >> num_sets.trailing_zeros()
    }

    /// The block immediately following this one (used by the next-line prefetcher).
    #[inline]
    pub fn next(self) -> Self {
        BlockAddr(self.0.wrapping_add(1))
    }

    /// Keep only the lowest `bits` bits of the block address (partial tag storage, as used
    /// by ADAPT's sampler arrays which store only 10 tag bits).
    #[inline]
    pub fn partial(self, bits: u32) -> u64 {
        if bits >= 64 {
            self.0
        } else {
            self.0 & ((1u64 << bits) - 1)
        }
    }
}

/// Convenience: block address of a byte address.
#[inline]
pub fn block_of(addr: u64) -> BlockAddr {
    BlockAddr::from_byte_addr(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_addr_round_trips_through_byte_addr() {
        let b = BlockAddr::from_byte_addr(0xdead_beef);
        assert_eq!(b.byte_addr() >> BLOCK_SHIFT, b.0);
        assert_eq!(BlockAddr::from_byte_addr(b.byte_addr()), b);
    }

    #[test]
    fn addresses_in_same_line_share_block() {
        let a = BlockAddr::from_byte_addr(0x1000);
        let b = BlockAddr::from_byte_addr(0x103f);
        let c = BlockAddr::from_byte_addr(0x1040);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(c, a.next());
    }

    #[test]
    fn set_index_and_tag_partition_the_block_address() {
        let num_sets = 1024;
        let b = BlockAddr(0xabcdef);
        let idx = b.set_index(num_sets);
        let tag = b.tag(num_sets);
        assert_eq!((tag << 10) | idx as u64, b.0);
        assert!(idx < num_sets);
    }

    #[test]
    fn partial_tag_masks_high_bits() {
        let b = BlockAddr(0x3ff_ffff);
        assert_eq!(b.partial(10), 0x3ff);
        assert_eq!(b.partial(64), b.0);
        assert_eq!(BlockAddr(0).partial(10), 0);
    }

    #[test]
    fn next_wraps_without_panicking() {
        let b = BlockAddr(u64::MAX);
        assert_eq!(b.next(), BlockAddr(0));
    }
}
