//! The set-associative cache model.

use plp_events::addr::BlockAddr;

use crate::{CacheConfig, Replacement};

/// A line evicted from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Address of the evicted block.
    pub addr: BlockAddr,
    /// Whether the line was dirty (needs a write-back).
    pub dirty: bool,
}

/// Hit/miss outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The block was present.
    Hit,
    /// The block was absent.
    Miss,
}

impl Lookup {
    /// Whether this is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// Running hit/miss/eviction statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Evicted lines that were dirty.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 if no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    addr: BlockAddr,
    dirty: bool,
    /// LRU timestamp (bigger = more recent) or FIFO insertion stamp.
    stamp: u64,
}

/// A set-associative cache tracking presence and dirtiness of 64-byte
/// blocks.
///
/// Contents are modelled elsewhere (the functional stores live in
/// `plp-core`); the cache answers the *timing-relevant* questions: was
/// this block resident, and which dirty victim does an insertion push
/// out.
///
/// # Example
///
/// ```
/// use plp_cache::{Cache, CacheConfig, Lookup};
/// use plp_events::addr::BlockAddr;
///
/// let mut c = Cache::new(CacheConfig::new(64 * 2 * 2, 2)); // 2 sets, 2 ways
/// let a = BlockAddr::new(0);
/// assert_eq!(c.lookup(a, false), Lookup::Miss);
/// c.fill(a, false);
/// assert_eq!(c.lookup(a, false), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            config,
            sets: vec![Vec::with_capacity(config.ways()); config.sets()],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, addr: BlockAddr) -> usize {
        (addr.index() as usize) & (self.config.sets() - 1)
    }

    /// Looks up `addr`, updating recency and (for writes) dirtiness.
    /// Records a hit or miss in the statistics. A miss does *not*
    /// allocate; call [`Cache::fill`] to bring the block in.
    pub fn lookup(&mut self, addr: BlockAddr, write: bool) -> Lookup {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.addr == addr) {
            if self.config.replacement() == Replacement::Lru {
                line.stamp = tick;
            }
            if write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            Lookup::Hit
        } else {
            self.stats.misses += 1;
            Lookup::Miss
        }
    }

    /// Whether `addr` is resident, with no side effects.
    pub fn probe(&self, addr: BlockAddr) -> bool {
        let set = self.set_index(addr);
        self.sets[set].iter().any(|l| l.addr == addr)
    }

    /// Inserts `addr` (e.g. after a miss fill), evicting a victim if
    /// the set is full. Returns the victim, if any.
    ///
    /// If the block is already resident this just updates dirtiness and
    /// recency and returns `None`.
    pub fn fill(&mut self, addr: BlockAddr, dirty: bool) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_index(addr);
        let ways = self.config.ways();
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.addr == addr) {
            line.dirty |= dirty;
            line.stamp = tick;
            return None;
        }
        // Evict the line with the smallest stamp (LRU or FIFO-oldest).
        // `min_by_key` is only `None` for an empty set, which cannot be
        // at capacity (ways >= 1), so the victim lookup stays total.
        let victim_idx = if set.len() >= ways {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
        } else {
            None
        };
        let victim = if let Some(i) = victim_idx {
            let v = set.swap_remove(i);
            self.stats.evictions += 1;
            if v.dirty {
                self.stats.dirty_evictions += 1;
            }
            Some(Evicted {
                addr: v.addr,
                dirty: v.dirty,
            })
        } else {
            None
        };
        set.push(Line {
            addr,
            dirty,
            stamp: tick,
        });
        victim
    }

    /// Removes `addr` from the cache, returning its line if present.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let set_idx = self.set_index(addr);
        let set = &mut self.sets[set_idx];
        let i = set.iter().position(|l| l.addr == addr)?;
        let l = set.swap_remove(i);
        Some(Evicted {
            addr: l.addr,
            dirty: l.dirty,
        })
    }

    /// Marks `addr` clean (it was written back), if present.
    pub fn mark_clean(&mut self, addr: BlockAddr) {
        let set_idx = self.set_index(addr);
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.addr == addr) {
            line.dirty = false;
        }
    }

    /// Whether `addr` is resident and dirty.
    pub fn is_dirty(&self, addr: BlockAddr) -> bool {
        let set = self.set_index(addr);
        self.sets[set].iter().any(|l| l.addr == addr && l.dirty)
    }

    /// Drains every dirty line (marking them clean), returning their
    /// addresses — the model of a full cache flush.
    pub fn drain_dirty(&mut self) -> Vec<BlockAddr> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if line.dirty {
                    line.dirty = false;
                    out.push(line.addr);
                }
            }
        }
        out.sort();
        out
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(CacheConfig::new(64 * 4, 2))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let a = BlockAddr::new(4);
        assert!(!c.lookup(a, false).is_hit());
        assert_eq!(c.fill(a, false), None);
        assert!(c.lookup(a, false).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Addresses 0, 2, 4 all map to set 0 (even indices).
        let (a0, a2, a4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.fill(a0, false);
        c.fill(a2, false);
        // Touch a0 so a2 becomes LRU.
        c.lookup(a0, false);
        let evicted = c.fill(a4, false).expect("set was full");
        assert_eq!(evicted.addr, a2);
        assert!(!evicted.dirty);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = Cache::new(CacheConfig::with_replacement(64 * 4, 2, Replacement::Fifo));
        let (a0, a2, a4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.fill(a0, false);
        c.fill(a2, false);
        c.lookup(a0, false); // does not refresh under FIFO
        let evicted = c.fill(a4, false).expect("set was full");
        assert_eq!(evicted.addr, a0);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        let (a0, a2, a4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.fill(a0, true);
        c.fill(a2, false);
        c.lookup(a2, false);
        let evicted = c.fill(a4, false).unwrap();
        assert_eq!(evicted.addr, a0);
        assert!(evicted.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_sets_dirty_and_clean_clears() {
        let mut c = small();
        let a = BlockAddr::new(8);
        c.fill(a, false);
        assert!(!c.is_dirty(a));
        c.lookup(a, true);
        assert!(c.is_dirty(a));
        c.mark_clean(a);
        assert!(!c.is_dirty(a));
    }

    #[test]
    fn refill_merges_dirty() {
        let mut c = small();
        let a = BlockAddr::new(8);
        c.fill(a, true);
        assert_eq!(c.fill(a, false), None);
        assert!(c.is_dirty(a), "refill must not lose dirtiness");
    }

    #[test]
    fn drain_dirty_flushes_everything() {
        let mut c = small();
        c.fill(BlockAddr::new(0), true);
        c.fill(BlockAddr::new(1), true);
        c.fill(BlockAddr::new(2), false);
        let drained = c.drain_dirty();
        assert_eq!(drained, vec![BlockAddr::new(0), BlockAddr::new(1)]);
        assert!(c.drain_dirty().is_empty());
        assert_eq!(c.resident(), 3);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        let a = BlockAddr::new(3);
        c.fill(a, true);
        let ev = c.invalidate(a).unwrap();
        assert!(ev.dirty);
        assert!(!c.probe(a));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = small();
        for i in 0..100 {
            c.lookup(BlockAddr::new(i), true);
            c.fill(BlockAddr::new(i), true);
        }
        assert!(c.resident() <= c.config().lines());
        assert!(c.stats().hit_ratio() < 1.0);
    }
}
