//! Golden-model equivalence: the recency-ordered `Cache` and the
//! exclusive `Hierarchy` walk against the stamped originals.
//!
//! `GoldenCache` below is a frozen copy of the stamped cache: each set
//! a `Vec` of 24-byte lines with a per-cache `tick`, a lookup hit or a
//! fill restamping its line, and the victim found by `min_by_key` over
//! the stamps. `GoldenHierarchy` is the original hierarchy walk over it:
//! an L2 or L3 hit is `lookup` + `is_dirty` + `invalidate`, every
//! cascaded fill scans for residency, and a write-through store cleans
//! all three levels. Both are deliberately naive — their job is to be
//! obviously correct, not fast. Every test drives the model and the
//! golden copy through the same random operations and compares every
//! return value and the statistics after each one.

use plp_cache::{
    Cache, CacheConfig, CacheStats, Evicted, HierOutcome, Hierarchy, HitLevel, Lookup, WriteMode,
};
use plp_events::addr::BlockAddr;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Line {
    addr: BlockAddr,
    dirty: bool,
    stamp: u64,
}

/// The stamped LRU cache, kept as the oracle.
struct GoldenCache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    tick: u64,
    stats: CacheStats,
}

impl GoldenCache {
    fn new(config: CacheConfig) -> Self {
        GoldenCache {
            config,
            sets: vec![Vec::with_capacity(config.ways()); config.sets()],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, addr: BlockAddr) -> usize {
        (addr.index() as usize) & (self.config.sets() - 1)
    }

    fn lookup(&mut self, addr: BlockAddr, write: bool) -> Lookup {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.addr == addr) {
            line.stamp = tick;
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

    fn probe(&self, addr: BlockAddr) -> bool {
        let set = self.set_index(addr);
        self.sets[set].iter().any(|l| l.addr == addr)
    }

    fn fill(&mut self, addr: BlockAddr, dirty: bool) -> Option<Evicted> {
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

    fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let set_idx = self.set_index(addr);
        let set = &mut self.sets[set_idx];
        let i = set.iter().position(|l| l.addr == addr)?;
        let l = set.swap_remove(i);
        Some(Evicted {
            addr: l.addr,
            dirty: l.dirty,
        })
    }

    fn mark_clean(&mut self, addr: BlockAddr) {
        let set_idx = self.set_index(addr);
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.addr == addr) {
            line.dirty = false;
        }
    }

    fn is_dirty(&self, addr: BlockAddr) -> bool {
        let set = self.set_index(addr);
        self.sets[set].iter().any(|l| l.addr == addr && l.dirty)
    }

    fn drain_dirty(&mut self) -> Vec<BlockAddr> {
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

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The original three-level walk over golden caches.
struct GoldenHierarchy {
    l1: GoldenCache,
    l2: GoldenCache,
    l3: GoldenCache,
}

impl GoldenHierarchy {
    fn new(l1: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        GoldenHierarchy {
            l1: GoldenCache::new(l1),
            l2: GoldenCache::new(l2),
            l3: GoldenCache::new(l3),
        }
    }

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

    fn store(&mut self, addr: BlockAddr, mode: WriteMode) -> HierOutcome {
        let write = mode == WriteMode::WriteBack;
        self.access(addr, write, mode)
    }

    fn access(&mut self, addr: BlockAddr, write: bool, mode: WriteMode) -> HierOutcome {
        let mut writebacks = Vec::new();
        let level;
        if self.l1.lookup(addr, write).is_hit() {
            level = HitLevel::L1;
        } else if self.l2.lookup(addr, write).is_hit() {
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
            self.install(addr, write, &mut writebacks);
            level = HitLevel::Memory;
        }
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

    fn mark_clean(&mut self, addr: BlockAddr) {
        self.l1.mark_clean(addr);
        self.l2.mark_clean(addr);
        self.l3.mark_clean(addr);
    }

    fn drain_dirty(&mut self) -> Vec<BlockAddr> {
        let mut blocks = self.l1.drain_dirty();
        blocks.extend(self.l2.drain_dirty());
        blocks.extend(self.l3.drain_dirty());
        blocks.sort();
        blocks.dedup();
        blocks
    }

    fn is_dirty(&self, addr: BlockAddr) -> bool {
        self.l1.is_dirty(addr) || self.l2.is_dirty(addr) || self.l3.is_dirty(addr)
    }

    fn stats(&self) -> [CacheStats; 3] {
        [self.l1.stats, self.l2.stats, self.l3.stats]
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup(u64, bool),
    Access(u64, bool),
    Fill(u64, bool),
    Invalidate(u64),
    MarkClean(u64),
    IsDirty(u64),
    Probe(u64),
    DrainDirty,
}

/// A random cache operation on one of `blocks` blocks, weighted
/// towards the ones that move lines.
fn cache_op(blocks: u64) -> impl Strategy<Value = CacheOp> {
    (0u32..21, 0..blocks, any::<bool>()).prop_map(|(kind, a, w)| match kind {
        0..=5 => CacheOp::Lookup(a, w),
        6..=9 => CacheOp::Access(a, w),
        10..=15 => CacheOp::Fill(a, w),
        16 => CacheOp::Invalidate(a),
        17 => CacheOp::MarkClean(a),
        18 => CacheOp::IsDirty(a),
        19 => CacheOp::Probe(a),
        _ => CacheOp::DrainDirty,
    })
}

#[derive(Debug, Clone, Copy)]
enum HierOp {
    Load(u64),
    StoreBack(u64),
    StoreThrough(u64),
    MarkClean(u64),
    IsDirty(u64),
    DrainDirty,
}

/// A random hierarchy operation on a block drawn from `block`.
fn hier_op(block: impl Strategy<Value = u64>) -> impl Strategy<Value = HierOp> {
    (0u32..19, block).prop_map(|(kind, a)| match kind {
        0..=7 => HierOp::Load(a),
        8..=12 => HierOp::StoreBack(a),
        13..=15 => HierOp::StoreThrough(a),
        16 => HierOp::MarkClean(a),
        17 => HierOp::IsDirty(a),
        _ => HierOp::DrainDirty,
    })
}

/// Whether no block of `domain` is resident in two levels at once.
fn exclusive(h: &Hierarchy, domain: &[u64]) -> bool {
    domain.iter().all(|&a| {
        let a = BlockAddr::new(a);
        h.levels().iter().filter(|c| c.probe(a)).count() <= 1
    })
}

/// Drives both hierarchies through `ops`, comparing every outcome and
/// the per-level statistics after each one. Checks that an accessed
/// block ends up in L1 alone, and that no block of `domain` is in two
/// levels: after every `check_every` operations and at the end.
fn check_hierarchy(
    configs: [CacheConfig; 3],
    ops: &[HierOp],
    domain: &[u64],
    check_every: usize,
) -> Result<(), TestCaseError> {
    let [c1, c2, c3] = configs;
    let mut model = Hierarchy::new(c1, c2, c3);
    let mut golden = GoldenHierarchy::new(c1, c2, c3);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            HierOp::Load(a) => {
                let a = BlockAddr::new(a);
                let g = golden.access(a, false, WriteMode::WriteBack);
                prop_assert_eq!(model.load(a), g, "load {} at step {}", a, step);
            }
            HierOp::StoreBack(a) | HierOp::StoreThrough(a) => {
                let mode = if matches!(op, HierOp::StoreBack(_)) {
                    WriteMode::WriteBack
                } else {
                    WriteMode::WriteThrough
                };
                let a = BlockAddr::new(a);
                let g = golden.store(a, mode);
                prop_assert_eq!(model.store(a, mode), g, "{:?} at step {}", op, step);
                prop_assert_eq!(model.is_dirty(a), golden.is_dirty(a));
            }
            HierOp::MarkClean(a) => {
                let a = BlockAddr::new(a);
                model.mark_clean(a);
                golden.mark_clean(a);
                prop_assert!(!model.is_dirty(a));
            }
            HierOp::IsDirty(a) => {
                let a = BlockAddr::new(a);
                prop_assert_eq!(model.is_dirty(a), golden.is_dirty(a), "step {}", step);
            }
            HierOp::DrainDirty => {
                prop_assert_eq!(model.drain_dirty(), golden.drain_dirty(), "step {}", step);
            }
        }
        let stats = model.levels().map(Cache::stats);
        prop_assert_eq!(stats, golden.stats(), "{:?} at step {}", op, step);
        if let HierOp::Load(a) | HierOp::StoreBack(a) | HierOp::StoreThrough(a) = *op {
            let a = BlockAddr::new(a);
            let holders = model.levels().map(|c| c.probe(a));
            prop_assert_eq!(holders, [true, false, false], "{} after step {}", a, step);
        }
        if step % check_every == 0 {
            prop_assert!(
                exclusive(&model, domain),
                "a block is in two levels after step {}",
                step
            );
        }
    }
    prop_assert!(exclusive(&model, domain));
    Ok(())
}

/// L1: 1 set x 2 ways; L2: 2 sets x 2 ways; L3: 4 sets x 2 ways.
fn tiny() -> [CacheConfig; 3] {
    [
        CacheConfig::new(64 * 2, 2),
        CacheConfig::new(64 * 4, 2),
        CacheConfig::new(64 * 8, 2),
    ]
}

/// Table III: 64 KB/8-way, 512 KB/16-way, 4 MB/32-way.
fn paper() -> [CacheConfig; 3] {
    [
        CacheConfig::new(64 << 10, 8),
        CacheConfig::new(512 << 10, 16),
        CacheConfig::new(4 << 20, 32),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_golden(
        ways in 1usize..=32,
        sets_log2 in 0u32..3,
        ops in prop::collection::vec(cache_op(96), 1..600),
    ) {
        let config = CacheConfig::new((64 * ways) << sets_log2, ways);
        let mut model = Cache::new(config);
        let mut golden = GoldenCache::new(config);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                CacheOp::Lookup(a, w) => {
                    let a = BlockAddr::new(a);
                    prop_assert_eq!(model.lookup(a, w), golden.lookup(a, w), "step {}", step);
                }
                CacheOp::Access(a, w) => {
                    // The metadata caches' old two-scan access.
                    let a = BlockAddr::new(a);
                    let g = golden.lookup(a, w);
                    if !g.is_hit() {
                        golden.fill(a, w);
                    }
                    prop_assert_eq!(model.access(a, w), g, "step {}", step);
                }
                CacheOp::Fill(a, d) => {
                    let a = BlockAddr::new(a);
                    prop_assert_eq!(model.fill(a, d), golden.fill(a, d), "step {}", step);
                }
                CacheOp::Invalidate(a) => {
                    let a = BlockAddr::new(a);
                    prop_assert_eq!(model.invalidate(a), golden.invalidate(a), "step {}", step);
                }
                CacheOp::MarkClean(a) => {
                    let a = BlockAddr::new(a);
                    let resident = golden.probe(a);
                    golden.mark_clean(a);
                    prop_assert_eq!(model.mark_clean(a), resident, "step {}", step);
                }
                CacheOp::IsDirty(a) => {
                    let a = BlockAddr::new(a);
                    prop_assert_eq!(model.is_dirty(a), golden.is_dirty(a), "step {}", step);
                }
                CacheOp::Probe(a) => {
                    let a = BlockAddr::new(a);
                    prop_assert_eq!(model.probe(a), golden.probe(a), "step {}", step);
                }
                CacheOp::DrainDirty => {
                    prop_assert_eq!(model.drain_dirty(), golden.drain_dirty(), "step {}", step);
                }
            }
            prop_assert_eq!(model.stats(), golden.stats, "{:?} at step {}", op, step);
            prop_assert_eq!(model.resident(), golden.resident(), "step {}", step);
        }
    }

    #[test]
    fn tiny_hierarchy_matches_golden(
        ops in prop::collection::vec(hier_op(0u64..48), 1..600),
    ) {
        let domain: Vec<u64> = (0..48).collect();
        check_hierarchy(tiny(), &ops, &domain, 1)?;
    }

    #[test]
    fn paper_hierarchy_matches_golden(
        // Blocks 2048 apart share a set at every level (2048 is the L3
        // set count); the 128-block offsets share an L1 set but spread
        // over L2 and L3 sets. 96 x 4 blocks overflow every set chain,
        // so lines reach L3 and dirty ones leave it.
        ops in prop::collection::vec(
            hier_op((0u64..96, 0u64..4).prop_map(|(a, b)| a * 2048 + b * 128)),
            1..1500,
        ),
    ) {
        let domain: Vec<u64> = (0..96)
            .flat_map(|a| (0..4).map(move |b| a * 2048 + b * 128))
            .collect();
        check_hierarchy(paper(), &ops, &domain, 64)?;
    }
}
