//! Next-line L1 prefetcher (paper Table 3: "next-line prefetch" at L1).
//!
//! On every demand L1 miss the prefetcher requests the next sequential block. Prefetch
//! requests travel down the hierarchy like demand requests, but the LLC calls no policy
//! hook for them, so they neither update LLC recency state nor get sampled by ADAPT's
//! monitor (paper §3.1: "Only demand accesses update the recency state").

use crate::addr::BlockAddr;

/// Statistics for a prefetcher instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    pub issued: u64,
    /// Prefetches suppressed because the line was already present in L1.
    pub filtered: u64,
}

/// Simple next-line prefetcher.
#[derive(Debug, Clone, Default)]
pub struct NextLinePrefetcher {
    enabled: bool,
    stats: PrefetchStats,
}

impl NextLinePrefetcher {
    pub fn new(enabled: bool) -> Self {
        NextLinePrefetcher {
            enabled,
            stats: PrefetchStats::default(),
        }
    }

    /// Given a demand miss on `block`, return the block to prefetch (if any).
    /// `already_present` lets the caller filter prefetches that would hit in L1 anyway.
    pub fn on_demand_miss(
        &mut self,
        block: BlockAddr,
        already_present: impl Fn(BlockAddr) -> bool,
    ) -> Option<BlockAddr> {
        if !self.enabled {
            return None;
        }
        let candidate = block.next();
        if already_present(candidate) {
            self.stats.filtered += 1;
            None
        } else {
            self.stats.issued += 1;
            Some(candidate)
        }
    }

    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_prefetcher_issues_nothing() {
        let mut p = NextLinePrefetcher::new(false);
        assert_eq!(p.on_demand_miss(BlockAddr(10), |_| false), None);
        assert_eq!(p.stats().issued, 0);
    }

    #[test]
    fn issues_next_block_on_miss() {
        let mut p = NextLinePrefetcher::new(true);
        assert_eq!(
            p.on_demand_miss(BlockAddr(10), |_| false),
            Some(BlockAddr(11))
        );
        assert_eq!(p.stats().issued, 1);
    }

    #[test]
    fn filters_blocks_already_present() {
        let mut p = NextLinePrefetcher::new(true);
        assert_eq!(
            p.on_demand_miss(BlockAddr(10), |b| b == BlockAddr(11)),
            None
        );
        assert_eq!(p.stats().filtered, 1);
        assert_eq!(p.stats().issued, 0);
    }
}
