//! Property-based tests for the cache models.

use plp_cache::{Cache, CacheConfig, Hierarchy, WriteMode};
use plp_events::addr::BlockAddr;
use proptest::prelude::*;

proptest! {
    #[test]
    fn capacity_invariant(
        ops in prop::collection::vec((0u64..256, any::<bool>()), 1..400),
        ways in 1usize..8,
    ) {
        let sets = 4usize;
        let mut c = Cache::new(CacheConfig::new(64 * sets * ways, ways));
        for (addr, write) in ops {
            let a = BlockAddr::new(addr);
            if !c.lookup(a, write).is_hit() {
                c.fill(a, write);
            }
        }
        prop_assert!(c.resident() <= sets * ways);
    }

    #[test]
    fn hit_after_fill_until_conflict(addr in 0u64..1024) {
        let mut c = Cache::new(CacheConfig::new(64 * 16 * 4, 4));
        let a = BlockAddr::new(addr);
        c.fill(a, false);
        prop_assert!(c.lookup(a, false).is_hit());
    }

    #[test]
    fn dirty_blocks_are_conserved(
        stores in prop::collection::vec(0u64..64, 1..100),
    ) {
        // Every stored block is either still dirty in the hierarchy or
        // was reported as a memory write-back: dirtiness never vanishes.
        let mut h = Hierarchy::new(
            CacheConfig::new(64 * 2, 2),
            CacheConfig::new(64 * 4, 2),
            CacheConfig::new(64 * 8, 2),
        );
        let mut written_back = std::collections::HashSet::new();
        let mut stored = std::collections::HashSet::new();
        for s in &stores {
            let a = BlockAddr::new(*s);
            stored.insert(a);
            for wb in h.store(a, WriteMode::WriteBack).memory_writebacks {
                written_back.insert(wb);
            }
        }
        for a in stored {
            prop_assert!(
                h.is_dirty(a) || written_back.contains(&a),
                "dirty block {a} vanished"
            );
        }
    }

    #[test]
    fn drain_dirty_equals_outstanding_stores(
        stores in prop::collection::vec(0u64..32, 1..60),
    ) {
        let mut h = Hierarchy::new(
            CacheConfig::new(64 * 4, 4),
            CacheConfig::new(64 * 8, 4),
            CacheConfig::new(64 * 64, 4),
        );
        let mut dirty_expect = std::collections::BTreeSet::new();
        for s in &stores {
            let a = BlockAddr::new(*s);
            let out = h.store(a, WriteMode::WriteBack);
            for wb in out.memory_writebacks {
                dirty_expect.remove(&wb);
            }
            dirty_expect.insert(a);
        }
        let drained: Vec<_> = h.drain_dirty();
        let expect: Vec<_> = dirty_expect.into_iter().collect();
        prop_assert_eq!(drained, expect);
    }

    #[test]
    fn lookups_are_counted_and_bounded(
        ops in prop::collection::vec(0u64..128, 1..200),
    ) {
        let mut c = Cache::new(CacheConfig::new(64 * 8, 2));
        let lookups = ops.len() as u64;
        for op in ops {
            let a = BlockAddr::new(op);
            if !c.lookup(a, false).is_hit() {
                c.fill(a, false);
            }
        }
        prop_assert!(c.resident() <= 8);
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, lookups);
        prop_assert!(s.evictions <= s.misses);
        prop_assert!(s.hit_ratio() <= 1.0);
    }
}
