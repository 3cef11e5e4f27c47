//! Security-metadata address mapping and the discrete metadata caches.
//!
//! Counters, MACs and BMT nodes live in their own memory regions and
//! are cached in three separate on-chip metadata caches (§V assumes a
//! discrete counter cache, BMT cache and MAC cache). This module maps
//! each metadata item to the 64-byte memory block that holds it and
//! wraps the three caches.

use plp_bmt::NodeLabel;
use plp_cache::{Cache, CacheConfig, CacheStats};
use plp_events::addr::BlockAddr;

/// Base block index of the counter region (beyond any data address the
/// traces generate).
pub const COUNTER_REGION_BASE: u64 = 1 << 40;
/// Base block index of the MAC region.
pub const MAC_REGION_BASE: u64 = 1 << 41;
/// Base block index of the BMT node region.
pub const BMT_REGION_BASE: u64 = 1 << 42;

/// The memory block holding page `page`'s split-counter block (one
/// 64-byte counter block per 4 KiB page).
pub fn counter_block_addr(page: u64) -> BlockAddr {
    BlockAddr::new(COUNTER_REGION_BASE + page)
}

/// The memory block holding the MAC of data block `data`. MACs are
/// 8 bytes, so eight neighbouring blocks share a MAC block.
pub fn mac_block_addr(data: BlockAddr) -> BlockAddr {
    BlockAddr::new(MAC_REGION_BASE + data.index() / 8)
}

/// The memory block holding BMT node `label`. Node values are 8 bytes,
/// so eight sibling nodes share a block.
pub fn bmt_node_block_addr(label: NodeLabel) -> BlockAddr {
    BlockAddr::new(BMT_REGION_BASE + label.raw() / 8)
}

/// Base block index of the `phoenix` shadow-root region: the dual-copy
/// root commit writes here, a distinct device block from the working
/// root's BMT node block so the two copies never write-combine.
pub const SHADOW_ROOT_REGION_BASE: u64 = 1 << 43;

/// The memory block holding the `phoenix` shadow copy of the root.
pub fn shadow_root_block_addr() -> BlockAddr {
    BlockAddr::new(SHADOW_ROOT_REGION_BASE)
}

/// Hit/miss statistics for the three metadata caches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MetadataStats {
    /// Counter-cache statistics.
    pub counter: CacheStats,
    /// MAC-cache statistics.
    pub mac: CacheStats,
    /// BMT-cache statistics.
    pub bmt: CacheStats,
}

/// The three discrete metadata caches.
#[derive(Debug, Clone)]
pub struct MetadataCaches {
    counter: Cache,
    mac: Cache,
    bmt: Cache,
    /// Ideal mode: every lookup hits (Fig. 9's MDC configuration).
    ideal: bool,
}

impl MetadataCaches {
    /// Creates the three caches, each `bytes` large and 8-way (the
    /// paper's metadata-cache shape).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a valid 8-way cache size.
    pub fn new(bytes: usize, ideal: bool) -> Self {
        MetadataCaches {
            counter: Cache::new(CacheConfig::new(bytes, 8)),
            mac: Cache::new(CacheConfig::new(bytes, 8)),
            bmt: Cache::new(CacheConfig::new(bytes, 8)),
            ideal,
        }
    }

    /// Looks up a counter block for page `page`; returns `true` on hit.
    /// On miss the caller fetches and the line is filled dirty-on-write.
    pub fn access_counter(&mut self, page: u64, write: bool) -> bool {
        Self::access(
            &mut self.counter,
            counter_block_addr(page),
            write,
            self.ideal,
        )
    }

    /// Looks up the MAC block for data block `data`.
    pub fn access_mac(&mut self, data: BlockAddr, write: bool) -> bool {
        Self::access(&mut self.mac, mac_block_addr(data), write, self.ideal)
    }

    /// Looks up the BMT node block for `label`.
    pub fn access_bmt(&mut self, label: NodeLabel, write: bool) -> bool {
        Self::access(&mut self.bmt, bmt_node_block_addr(label), write, self.ideal)
    }

    fn access(cache: &mut Cache, addr: BlockAddr, write: bool, ideal: bool) -> bool {
        if ideal {
            return true;
        }
        if cache.lookup(addr, write).is_hit() {
            true
        } else {
            cache.fill(addr, write);
            false
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MetadataStats {
        MetadataStats {
            counter: self.counter.stats(),
            mac: self.mac.stats(),
            bmt: self.bmt.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let c = counter_block_addr(u32::MAX as u64);
        let m = mac_block_addr(BlockAddr::new(u32::MAX as u64));
        let b = bmt_node_block_addr(NodeLabel::new(u32::MAX as u64));
        assert!(c.index() < MAC_REGION_BASE);
        assert!(m.index() < BMT_REGION_BASE);
        assert!(b.index() >= BMT_REGION_BASE);
    }

    #[test]
    fn macs_pack_eight_per_block() {
        let a = mac_block_addr(BlockAddr::new(0));
        let b = mac_block_addr(BlockAddr::new(7));
        let c = mac_block_addr(BlockAddr::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bmt_nodes_pack_eight_per_block() {
        assert_eq!(
            bmt_node_block_addr(NodeLabel::new(0)),
            bmt_node_block_addr(NodeLabel::new(7))
        );
        assert_ne!(
            bmt_node_block_addr(NodeLabel::new(7)),
            bmt_node_block_addr(NodeLabel::new(8))
        );
    }

    #[test]
    fn miss_then_hit() {
        let mut m = MetadataCaches::new(32 << 10, false);
        assert!(!m.access_counter(5, false));
        assert!(m.access_counter(5, true));
        assert_eq!(m.stats().counter.hits, 1);
        assert_eq!(m.stats().counter.misses, 1);
    }

    #[test]
    fn ideal_mode_always_hits() {
        let mut m = MetadataCaches::new(32 << 10, true);
        for page in 0..10_000 {
            assert!(m.access_counter(page, true));
        }
        assert_eq!(m.stats().counter.misses, 0);
        // Ideal mode records nothing at all.
        assert_eq!(m.stats().counter.hits, 0);
    }

    #[test]
    fn three_caches_are_independent() {
        let mut m = MetadataCaches::new(32 << 10, false);
        m.access_counter(1, false);
        assert_eq!(m.stats().mac.misses, 0);
        m.access_mac(BlockAddr::new(1), false);
        m.access_bmt(NodeLabel::new(1), false);
        assert_eq!(m.stats().counter.misses, 1);
        assert_eq!(m.stats().mac.misses, 1);
        assert_eq!(m.stats().bmt.misses, 1);
    }
}
