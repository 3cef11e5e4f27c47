//! The three-level data-cache hierarchy.

use plp_events::addr::BlockAddr;

use crate::{Cache, CacheConfig};

/// Where a memory access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// First-level cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    L3,
    /// Off-chip memory.
    Memory,
}

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierOutcome {
    /// The level that satisfied the access.
    pub level: HitLevel,
    /// Dirty blocks pushed out of the last-level cache by this access;
    /// these must be written back to memory (and, in a secure system,
    /// routed through the security engine).
    pub memory_writebacks: Vec<BlockAddr>,
}

/// Write handling for stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Write-back with write-allocate (the `secure_WB` baseline and the
    /// intra-epoch behaviour of epoch persistency).
    #[default]
    WriteBack,
    /// Write-through: the line is updated but left *clean*; the caller
    /// persists the store itself (strict persistency, §VI "we
    /// implemented write through caches to persist each store in order
    /// to the MC").
    WriteThrough,
}

/// A three-level inclusive-fill cache hierarchy (L1/L2/L3).
///
/// Evictions cascade: an L1 victim is installed in L2, an L2 victim in
/// L3, and dirty L3 victims surface as memory write-backs in the
/// returned [`HierOutcome`].
///
/// # Example
///
/// ```
/// use plp_cache::{CacheConfig, HitLevel, Hierarchy, WriteMode};
/// use plp_events::addr::BlockAddr;
///
/// let mut h = Hierarchy::new(
///     CacheConfig::new(64 << 10, 8),
///     CacheConfig::new(512 << 10, 16),
///     CacheConfig::new(4 << 20, 32),
/// );
/// let a = BlockAddr::new(100);
/// assert_eq!(h.load(a).level, HitLevel::Memory);
/// assert_eq!(h.load(a).level, HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(l1: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        Hierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            l3: Cache::new(l3),
        }
    }

    /// The paper's Table III hierarchy: 64 KB/8-way L1, 512 KB/16-way
    /// L2, `llc_bytes` 32-way L3 (default 4 MB).
    pub fn paper_default(llc_bytes: usize) -> Self {
        Hierarchy::new(
            CacheConfig::new(64 << 10, 8),
            CacheConfig::new(512 << 10, 16),
            CacheConfig::new(llc_bytes, 32),
        )
    }

    /// Installs a block into a level, cascading the victim downward.
    /// Returns any dirty block evicted from L3 to memory.
    fn install(&mut self, addr: BlockAddr, dirty: bool, writebacks: &mut Vec<BlockAddr>) {
        if let Some(v1) = self.l1.fill(addr, dirty) {
            if let Some(v2) = self.l2.fill(v1.addr, v1.dirty) {
                if let Some(v3) = self.l3.fill(v2.addr, v2.dirty) {
                    if v3.dirty {
                        writebacks.push(v3.addr);
                    }
                }
            }
        }
    }

    /// Performs a load.
    pub fn load(&mut self, addr: BlockAddr) -> HierOutcome {
        self.access(addr, false, WriteMode::WriteBack)
    }

    /// Performs a store under the given write mode.
    pub fn store(&mut self, addr: BlockAddr, mode: WriteMode) -> HierOutcome {
        let write = mode == WriteMode::WriteBack;
        self.access(addr, write, mode)
    }

    fn access(&mut self, addr: BlockAddr, write: bool, mode: WriteMode) -> HierOutcome {
        let mut writebacks = Vec::new();
        let level;
        if self.l1.lookup(addr, write).is_hit() {
            level = HitLevel::L1;
        } else if self.l2.lookup(addr, write).is_hit() {
            // Promote to L1.
            let dirty = write || self.l2.is_dirty(addr);
            self.l2.invalidate(addr);
            self.install(addr, dirty, &mut writebacks);
            level = HitLevel::L2;
        } else if self.l3.lookup(addr, write).is_hit() {
            let dirty = write || self.l3.is_dirty(addr);
            self.l3.invalidate(addr);
            self.install(addr, dirty, &mut writebacks);
            level = HitLevel::L3;
        } else {
            // Fetch from memory and install.
            self.install(addr, write, &mut writebacks);
            level = HitLevel::Memory;
        }
        // Write-through stores leave lines clean: the caller persists.
        if mode == WriteMode::WriteThrough {
            self.l1.mark_clean(addr);
            self.l2.mark_clean(addr);
            self.l3.mark_clean(addr);
        }
        HierOutcome {
            level,
            memory_writebacks: writebacks,
        }
    }

    /// Marks `addr` clean at every level (used when an epoch flush or an
    /// eager write-back persists the block while it stays resident).
    pub fn mark_clean(&mut self, addr: BlockAddr) {
        self.l1.mark_clean(addr);
        self.l2.mark_clean(addr);
        self.l3.mark_clean(addr);
    }

    /// Drains every dirty block from all levels (a full flush),
    /// returning the deduplicated set of block addresses.
    pub fn drain_dirty(&mut self) -> Vec<BlockAddr> {
        let mut blocks = self.l1.drain_dirty();
        blocks.extend(self.l2.drain_dirty());
        blocks.extend(self.l3.drain_dirty());
        blocks.sort();
        blocks.dedup();
        blocks
    }

    /// Whether `addr` is dirty at any level.
    pub fn is_dirty(&self, addr: BlockAddr) -> bool {
        self.l1.is_dirty(addr) || self.l2.is_dirty(addr) || self.l3.is_dirty(addr)
    }

    /// Per-level caches for statistics inspection.
    pub fn levels(&self) -> [&Cache; 3] {
        [&self.l1, &self.l2, &self.l3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        // L1: 1 set x 2 ways; L2: 2 sets x 2 ways; L3: 4 sets x 2 ways.
        Hierarchy::new(
            CacheConfig::new(64 * 2, 2),
            CacheConfig::new(64 * 4, 2),
            CacheConfig::new(64 * 8, 2),
        )
    }

    #[test]
    fn load_miss_then_hit() {
        let mut h = tiny();
        let a = BlockAddr::new(1);
        assert_eq!(h.load(a).level, HitLevel::Memory);
        assert_eq!(h.load(a).level, HitLevel::L1);
    }

    #[test]
    fn eviction_cascades_to_l2() {
        let mut h = tiny();
        // L1 has a single 2-way set; the third block evicts the first
        // into L2, where it then hits.
        for i in 0..3 {
            h.load(BlockAddr::new(i));
        }
        assert_eq!(h.load(BlockAddr::new(0)).level, HitLevel::L2);
    }

    #[test]
    fn dirty_block_survives_demotion() {
        let mut h = tiny();
        let a = BlockAddr::new(0);
        h.store(a, WriteMode::WriteBack);
        // Push `a` out of L1 (and further) with loads.
        for i in 1..10 {
            h.load(BlockAddr::new(i));
        }
        assert!(h.is_dirty(a), "dirtiness lost during demotion");
    }

    #[test]
    fn llc_dirty_eviction_reaches_memory() {
        let mut h = tiny();
        let a = BlockAddr::new(0);
        h.store(a, WriteMode::WriteBack);
        // Flood with enough conflicting blocks to push `a` out of L3.
        let mut writebacks = Vec::new();
        for i in 1..40 {
            writebacks.extend(h.load(BlockAddr::new(i * 8)).memory_writebacks);
        }
        // `a` maps to set 0 everywhere (index 0); conflict misses on
        // multiples of 8 hit the same sets.
        assert!(writebacks.contains(&a), "dirty block never written back");
        assert!(!h.is_dirty(a));
    }

    #[test]
    fn write_through_leaves_clean() {
        let mut h = tiny();
        let a = BlockAddr::new(5);
        h.store(a, WriteMode::WriteThrough);
        assert!(!h.is_dirty(a));
        // The line is still resident for subsequent loads.
        assert_eq!(h.load(a).level, HitLevel::L1);
    }

    #[test]
    fn drain_dirty_dedupes_across_levels() {
        let mut h = tiny();
        h.store(BlockAddr::new(1), WriteMode::WriteBack);
        h.store(BlockAddr::new(2), WriteMode::WriteBack);
        let drained = h.drain_dirty();
        assert_eq!(drained, vec![BlockAddr::new(1), BlockAddr::new(2)]);
        assert!(h.drain_dirty().is_empty());
    }

    #[test]
    fn mark_clean_prevents_future_writeback() {
        let mut h = tiny();
        let a = BlockAddr::new(0);
        h.store(a, WriteMode::WriteBack);
        h.mark_clean(a);
        let mut writebacks = Vec::new();
        for i in 1..40 {
            writebacks.extend(h.load(BlockAddr::new(i * 8)).memory_writebacks);
        }
        assert!(!writebacks.contains(&a));
    }

    #[test]
    fn paper_default_shapes() {
        let h = Hierarchy::paper_default(4 << 20);
        let [l1, l2, l3] = h.levels();
        assert_eq!(l1.config().size_bytes(), 64 << 10);
        assert_eq!(l2.config().size_bytes(), 512 << 10);
        assert_eq!(l3.config().size_bytes(), 4 << 20);
    }
}
