//! The set-associative cache model.

use plp_events::addr::BlockAddr;

use crate::CacheConfig;

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

/// A line is one word: the block index shifted left once, with the
/// dirty bit in bit 0.
fn line(addr: BlockAddr, dirty: bool) -> u64 {
    debug_assert!(
        addr.index() < 1 << 63,
        "block index {:#x} does not fit a line word",
        addr.index()
    );
    addr.index() << 1 | u64::from(dirty)
}

fn evicted(line: u64) -> Evicted {
    Evicted {
        addr: BlockAddr::new(line >> 1),
        dirty: line & 1 == 1,
    }
}

/// Position of `addr`'s line in `set`, if resident.
fn find(set: &[u64], addr: BlockAddr) -> Option<usize> {
    let index = addr.index();
    set.iter().position(|&l| l >> 1 == index)
}

/// A set-associative LRU cache tracking presence and dirtiness of
/// 64-byte blocks.
///
/// Contents are modelled elsewhere (the functional stores live in
/// `plp-core`); the cache answers the *timing-relevant* questions: was
/// this block resident, and which dirty victim does an insertion push
/// out.
///
/// Each set keeps its lines most recent first, so a hit moves its line
/// to the front, an insertion goes in at the front and the victim is
/// the last line (DESIGN §3.1).
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
    /// `sets - 1`: a block's set is its index masked.
    mask: usize,
    /// Each set's lines, most recent first. A set reserves its `ways`
    /// words when it takes its first line, so building a cache
    /// allocates no set.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            config,
            mask: config.sets() - 1,
            sets: vec![Vec::new(); config.sets()],
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
        (addr.index() as usize) & self.mask
    }

    /// Moves line `i` of `set` to the front, OR-ing `dirty` into it.
    fn touch(set: &mut [u64], i: usize, dirty: bool) {
        let l = set[i] | u64::from(dirty);
        if i > 0 {
            set.copy_within(..i, 1);
        }
        set[0] = l;
    }

    /// Inserts a line for `addr`, which must not be resident, at the
    /// front of its set; returns the set's last line if it was full.
    fn insert(&mut self, set: usize, addr: BlockAddr, dirty: bool) -> Option<Evicted> {
        let ways = self.config.ways();
        let set = &mut self.sets[set];
        debug_assert!(find(set, addr).is_none(), "{addr} is already resident");
        let victim = if set.len() == ways {
            set.pop().map(evicted)
        } else {
            if set.capacity() == 0 {
                set.reserve_exact(ways);
            }
            None
        };
        set.insert(0, line(addr, dirty));
        if let Some(v) = victim {
            self.stats.evictions += 1;
            self.stats.dirty_evictions += u64::from(v.dirty);
        }
        victim
    }

    /// Looks up `addr`, updating recency and (for writes) dirtiness.
    /// Records a hit or miss in the statistics. A miss does *not*
    /// allocate; call [`Cache::fill`] to bring the block in.
    pub fn lookup(&mut self, addr: BlockAddr, write: bool) -> Lookup {
        let set = self.set_index(addr);
        let set = &mut self.sets[set];
        if let Some(i) = find(set, addr) {
            Self::touch(set, i, write);
            self.stats.hits += 1;
            Lookup::Hit
        } else {
            self.stats.misses += 1;
            Lookup::Miss
        }
    }

    /// Looks up `addr` as [`Cache::lookup`] does and, on a miss, fills
    /// it as [`Cache::fill`] does (dirty if `write`), with one scan of
    /// the set. The victim of the fill, if any, only counts in the
    /// statistics.
    pub fn access(&mut self, addr: BlockAddr, write: bool) -> Lookup {
        let outcome = self.lookup(addr, write);
        if !outcome.is_hit() {
            self.fill_absent(addr, write);
        }
        outcome
    }

    /// Whether `addr` is resident, with no side effects.
    pub fn probe(&self, addr: BlockAddr) -> bool {
        find(&self.sets[self.set_index(addr)], addr).is_some()
    }

    /// Inserts `addr` (e.g. after a miss fill), evicting the least
    /// recently used line if the set is full. Returns the victim, if
    /// any.
    ///
    /// If the block is already resident this just updates dirtiness and
    /// recency and returns `None`.
    pub fn fill(&mut self, addr: BlockAddr, dirty: bool) -> Option<Evicted> {
        let index = self.set_index(addr);
        let set = &mut self.sets[index];
        if let Some(i) = find(set, addr) {
            Self::touch(set, i, dirty);
            return None;
        }
        self.insert(index, addr, dirty)
    }

    /// [`Cache::fill`] of a block the caller knows is absent: no
    /// residency scan.
    pub(crate) fn fill_absent(&mut self, addr: BlockAddr, dirty: bool) -> Option<Evicted> {
        self.insert(self.set_index(addr), addr, dirty)
    }

    /// A counted lookup that removes the line: the statistics of
    /// [`Cache::lookup`] and the effect of [`Cache::invalidate`], in
    /// one scan. Returns the line's dirty bit on a hit.
    pub(crate) fn take(&mut self, addr: BlockAddr) -> Option<bool> {
        let set = self.set_index(addr);
        let set = &mut self.sets[set];
        match find(set, addr) {
            Some(i) => {
                self.stats.hits += 1;
                Some(set.remove(i) & 1 == 1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Removes `addr` from the cache, returning its line if present.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let set = self.set_index(addr);
        let set = &mut self.sets[set];
        let i = find(set, addr)?;
        Some(evicted(set.remove(i)))
    }

    /// Marks `addr` clean (it was written back), if present. Returns
    /// whether it was present.
    pub fn mark_clean(&mut self, addr: BlockAddr) -> bool {
        let set = self.set_index(addr);
        let set = &mut self.sets[set];
        match find(set, addr) {
            Some(i) => {
                set[i] &= !1;
                true
            }
            None => false,
        }
    }

    /// Whether `addr` is resident and dirty.
    pub fn is_dirty(&self, addr: BlockAddr) -> bool {
        let set = &self.sets[self.set_index(addr)];
        find(set, addr).is_some_and(|i| set[i] & 1 == 1)
    }

    /// Drains every dirty line (marking them clean), returning their
    /// addresses in ascending order — the model of a full cache flush.
    pub fn drain_dirty(&mut self) -> Vec<BlockAddr> {
        let mut out = Vec::new();
        for l in self.sets.iter_mut().flatten() {
            if *l & 1 == 1 {
                *l &= !1;
                out.push(BlockAddr::new(*l >> 1));
            }
        }
        out.sort_unstable();
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
    fn refill_refreshes_recency() {
        let mut c = small();
        let (a0, a2, a4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.fill(a0, false);
        c.fill(a2, false);
        // Filling a resident block counts as a use.
        assert_eq!(c.fill(a0, false), None);
        assert_eq!(c.fill(a4, false).map(|v| v.addr), Some(a2));
    }

    #[test]
    fn access_fills_on_miss() {
        let mut c = small();
        let (a0, a2, a4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        assert_eq!(c.access(a0, true), Lookup::Miss);
        assert_eq!(c.access(a2, false), Lookup::Miss);
        assert_eq!(c.access(a0, false), Lookup::Hit);
        assert!(c.is_dirty(a0), "a write miss fills dirty");
        // a2 is least recent: the next miss evicts it.
        assert_eq!(c.access(a4, false), Lookup::Miss);
        assert!(!c.probe(a2) && c.probe(a0) && c.probe(a4));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
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
        assert!(c.mark_clean(a));
        assert!(!c.is_dirty(a));
        assert!(!c.mark_clean(BlockAddr::new(10)));
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
    fn take_counts_and_removes() {
        let mut c = small();
        let a = BlockAddr::new(3);
        c.fill(a, true);
        assert_eq!(c.take(a), Some(true));
        assert_eq!(c.take(a), None);
        assert!(!c.probe(a));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
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

    #[test]
    fn line_words_hold_the_metadata_regions() {
        // The shadow-root region sits at block index 2^43; its lines
        // must round-trip through the one-word encoding.
        let mut c = small();
        let a = BlockAddr::new((1 << 43) + 5);
        c.fill(a, true);
        assert_eq!(
            c.invalidate(a),
            Some(Evicted {
                addr: a,
                dirty: true
            })
        );
    }
}
