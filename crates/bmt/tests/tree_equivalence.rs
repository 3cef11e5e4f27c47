//! Golden-model equivalence: the arena-backed, lazily committed
//! `BonsaiTree` against the original map-backed eager implementation.
//!
//! `GoldenTree` below is a frozen copy of the pre-arena tree: a
//! `HashMap<NodeLabel, NodeValue>` node store with per-level lazy
//! defaults, recomputing every ancestor on every update by collecting
//! its children into a fresh `Vec`. It is deliberately naive — its job
//! is to be obviously correct, not fast. Every test drives both trees
//! through the same sequence of operations (updates, reads, tampering,
//! crash-and-rebuild) and asserts the stores are indistinguishable:
//! same root, same value for *every* label in the tree, same
//! populated-node count (in total and above every recovery floor),
//! same consistency verdicts. Reads interleave with updates and
//! tampers, so each commit point is compared, not only the final
//! state.

use std::collections::HashMap;

use plp_bmt::{BmtGeometry, BonsaiTree, NodeLabel, NodeValue};
use plp_crypto::{CounterBlock, SipKey};
use proptest::prelude::*;

fn key() -> SipKey {
    SipKey::new(0xfeed, 0xbeef)
}

/// The pre-arena map-backed tree, kept verbatim as the oracle.
struct GoldenTree {
    geometry: BmtGeometry,
    key: SipKey,
    nodes: HashMap<NodeLabel, NodeValue>,
    defaults: Vec<NodeValue>,
}

impl GoldenTree {
    fn new(geometry: BmtGeometry, master_key: SipKey) -> Self {
        let key = master_key.derive("bmt");
        let levels = geometry.levels_usize();
        let mut defaults = vec![0; levels];
        let fresh = CounterBlock::new();
        defaults[levels - 1] = key.hash_words(&fresh.content_words());
        for level in (1..levels).rev() {
            let children = vec![defaults[level]; geometry.arity_usize()];
            defaults[level - 1] = key.hash_words(&children);
        }
        GoldenTree {
            geometry,
            key,
            nodes: HashMap::new(),
            defaults,
        }
    }

    fn from_counters<'a>(
        geometry: BmtGeometry,
        master_key: SipKey,
        counters: impl IntoIterator<Item = (u64, &'a CounterBlock)>,
    ) -> Self {
        let mut tree = GoldenTree::new(geometry, master_key);
        for (page, cb) in counters {
            tree.update_leaf(page, cb);
        }
        tree
    }

    fn root(&self) -> NodeValue {
        self.node_value(NodeLabel::ROOT)
    }

    fn node_value(&self, label: NodeLabel) -> NodeValue {
        match self.nodes.get(&label) {
            Some(v) => *v,
            None => self.defaults[self.geometry.level_index(label)],
        }
    }

    fn populated_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Populated labels at levels shallower than `floor`, by asking
    /// each stored label its level.
    fn populated_nodes_above(&self, floor: u32) -> usize {
        self.nodes
            .keys()
            .filter(|l| self.geometry.level(**l) < floor)
            .count()
    }

    fn recompute_internal(&self, label: NodeLabel) -> NodeValue {
        let children: Vec<NodeValue> = (0..self.geometry.arity())
            .map(|i| self.node_value(self.geometry.child(label, i)))
            .collect();
        self.key.hash_words(&children)
    }

    fn update_leaf(&mut self, page: u64, cb: &CounterBlock) -> Vec<(NodeLabel, NodeValue)> {
        let leaf = self.geometry.leaf(page);
        let mut path = Vec::with_capacity(self.geometry.levels_usize());
        let leaf_value = self.key.hash_words(&cb.content_words());
        self.nodes.insert(leaf, leaf_value);
        path.push((leaf, leaf_value));
        let mut node = leaf;
        while let Some(parent) = self.geometry.parent(node) {
            let value = self.recompute_internal(parent);
            self.nodes.insert(parent, value);
            path.push((parent, value));
            node = parent;
        }
        path
    }

    fn set_node(&mut self, label: NodeLabel, value: NodeValue) {
        self.nodes.insert(label, value);
    }

    fn verify_consistent(&self) -> bool {
        let mut labels: Vec<NodeLabel> = self.nodes.keys().copied().collect();
        labels.sort_by_key(|l| std::cmp::Reverse(self.geometry.level(*l)));
        for label in labels {
            if self.geometry.level(label) >= self.geometry.levels() {
                continue;
            }
            if self.recompute_internal(label) != self.node_value(label) {
                return false;
            }
        }
        true
    }
}

/// Assert the two trees agree on the populated count, in total and
/// above every recovery floor `1..=levels`.
fn assert_populated_equal(golden: &GoldenTree, arena: &mut BonsaiTree, g: BmtGeometry) {
    assert_eq!(
        golden.populated_nodes(),
        arena.populated_nodes(),
        "populated-node counts diverged"
    );
    for floor in 1..=g.levels() {
        assert_eq!(
            golden.populated_nodes_above(floor),
            arena.populated_nodes_above(floor),
            "populated-node counts above floor {floor} diverged"
        );
    }
}

/// Assert the two stores are indistinguishable from the outside:
/// root, populated counts, and the value of every single label.
fn assert_stores_equal(golden: &GoldenTree, arena: &mut BonsaiTree, g: BmtGeometry) {
    assert_eq!(golden.root(), arena.root(), "roots diverged");
    assert_populated_equal(golden, arena, g);
    for raw in 0..g.node_count() {
        let label = NodeLabel::new(raw);
        assert_eq!(
            golden.node_value(label),
            arena.node_value(label),
            "node {label} diverged"
        );
    }
}

/// Small geometries keep the exhaustive all-labels sweep cheap while
/// still covering non-power-of-two arities and shallow/deep shapes.
fn arb_geometry() -> impl Strategy<Value = BmtGeometry> {
    (2u64..=8, 2u32..=4).prop_map(|(arity, levels)| BmtGeometry::new(arity, levels))
}

proptest! {
    #[test]
    fn fresh_root_agrees(g in arb_geometry()) {
        let fresh = BonsaiTree::fresh_root(g, key());
        prop_assert_eq!(fresh, GoldenTree::new(g, key()).root());
        prop_assert_eq!(fresh, BonsaiTree::new(g, key()).root());
    }

    #[test]
    fn update_sequences_agree(
        g in arb_geometry(),
        updates in prop::collection::vec((any::<u64>(), 0usize..64), 1..24),
    ) {
        let mut golden = GoldenTree::new(g, key());
        let mut arena = BonsaiTree::new(g, key());
        let mut counters: HashMap<u64, CounterBlock> = HashMap::new();
        let mut arena_path = Vec::new();
        for (page_seed, slot) in updates {
            let page = page_seed % g.leaf_count();
            let cb = counters.entry(page).or_default();
            cb.bump(slot);
            let golden_path = golden.update_leaf(page, cb);
            let root = arena.update_leaf_into(page, cb, &mut arena_path);
            // Identical per-level labels and values, leaf first.
            prop_assert_eq!(&golden_path, &arena_path);
            prop_assert_eq!(root, golden.root());
        }
        assert_stores_equal(&golden, &mut arena, g);
        prop_assert!(golden.verify_consistent());
        prop_assert!(arena.verify_consistent().is_ok());
    }

    #[test]
    fn crash_recovery_agrees(
        g in arb_geometry(),
        updates in prop::collection::vec((any::<u64>(), 0usize..64), 1..16),
        survivors in any::<u64>(),
    ) {
        // Build up counter state, then "crash": rebuild both trees from
        // an arbitrary surviving subset of persisted counter blocks, as
        // recovery does, and require identical rebuilt stores.
        let mut counters: HashMap<u64, CounterBlock> = HashMap::new();
        for (page_seed, slot) in updates {
            counters.entry(page_seed % g.leaf_count()).or_default().bump(slot);
        }
        let mut pages: Vec<u64> = counters.keys().copied().collect();
        pages.sort_unstable();
        let surviving: Vec<(u64, &CounterBlock)> = pages
            .iter()
            .enumerate()
            .filter(|(i, _)| survivors & (1 << (i % 64)) != 0)
            .map(|(_, p)| (*p, &counters[p]))
            .collect();
        let golden = GoldenTree::from_counters(g, key(), surviving.iter().copied());
        let mut arena = BonsaiTree::from_counters(g, key(), surviving.iter().copied());
        assert_stores_equal(&golden, &mut arena, g);

        // The recovery-time root check agrees on the full set too.
        let full_ok = arena
            .verify_counters_against_root(pages.iter().map(|p| (*p, &counters[p])), key())
            .is_ok();
        let golden_full = GoldenTree::from_counters(g, key(), pages.iter().map(|p| (*p, &counters[p])));
        prop_assert_eq!(full_ok, golden_full.root() == arena.root());
    }

    #[test]
    fn tamper_verdicts_agree(
        g in arb_geometry(),
        updates in prop::collection::vec((any::<u64>(), 0usize..64), 1..12),
        tamper in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let mut golden = GoldenTree::new(g, key());
        let mut arena = BonsaiTree::new(g, key());
        let mut counters: HashMap<u64, CounterBlock> = HashMap::new();
        for (page_seed, slot) in updates {
            let page = page_seed % g.leaf_count();
            let cb = counters.entry(page).or_default();
            cb.bump(slot);
            golden.update_leaf(page, cb);
            arena.update_leaf(page, cb);
        }
        let (gate, label_seed, xor) = tamper;
        if gate % 2 == 0 {
            // Tamper identically: an arbitrary node, arbitrary delta.
            // (xor may be 0, i.e. a no-op "tamper" both must tolerate.)
            let label = NodeLabel::new(label_seed % g.node_count());
            let v = arena.node_value(label) ^ xor;
            golden.set_node(label, v);
            arena.set_node(label, v);
        }
        assert_stores_equal(&golden, &mut arena, g);
        prop_assert_eq!(golden.verify_consistent(), arena.verify_consistent().is_ok());
    }

    /// Random interleavings of updates, every kind of read and tampers,
    /// each read compared with the eager golden tree at that point.
    /// Half the tampers hit an ancestor of the last updated leaf, which
    /// is still queued unless a read has committed it since.
    #[test]
    fn interleaved_reads_and_tampers_agree(
        g in arb_geometry(),
        ops in prop::collection::vec((0u8..12, any::<u64>(), any::<u64>()), 1..48),
    ) {
        let mut golden = GoldenTree::new(g, key());
        let mut arena = BonsaiTree::new(g, key());
        let mut counters: HashMap<u64, CounterBlock> = HashMap::new();
        let mut last_leaf = g.leaf(0);
        for (kind, a, b) in ops {
            let label = NodeLabel::new(a % g.node_count());
            match kind {
                0..=4 => {
                    let page = a % g.leaf_count();
                    let cb = counters.entry(page).or_default();
                    cb.bump((b % 64) as usize);
                    golden.update_leaf(page, cb);
                    arena.update_leaf(page, cb);
                    last_leaf = g.leaf(page);
                }
                5 => prop_assert_eq!(arena.root(), golden.root()),
                6 => prop_assert_eq!(arena.node_value(label), golden.node_value(label)),
                7 => prop_assert_eq!(arena.populated_nodes(), golden.populated_nodes()),
                8 => {
                    let floor = 1 + (b % u64::from(g.levels())) as u32;
                    prop_assert_eq!(
                        arena.populated_nodes_above(floor),
                        golden.populated_nodes_above(floor)
                    );
                }
                9 => {
                    let victim = if b % 2 == 0 {
                        label
                    } else {
                        g.ancestor_at_level(last_leaf, 1 + (a % u64::from(g.levels())) as u32)
                    };
                    // The tampered value comes from the golden tree: an
                    // arena read here would commit before `set_node`
                    // and hide whether `set_node` commits by itself.
                    let value = golden.node_value(victim) ^ (b | 1);
                    golden.set_node(victim, value);
                    arena.set_node(victim, value);
                }
                10 => prop_assert_eq!(
                    arena.verify_consistent().is_ok(),
                    golden.verify_consistent()
                ),
                _ => {
                    if let Some(root) = arena.committed_root() {
                        prop_assert_eq!(root, golden.root());
                    }
                }
            }
        }
        assert_stores_equal(&golden, &mut arena, g);
    }
}

/// Update a leaf, tamper with an ancestor still queued by that update,
/// then read: the tamper survives the commit the read triggers, as it
/// does in the eager tree, because `set_node` commits before it writes.
/// A second update beside the tampered node then carries the tampered
/// value into the root.
#[test]
fn tamper_of_a_queued_ancestor_survives_the_commit() {
    let g = BmtGeometry::new(4, 4);
    let mut golden = GoldenTree::new(g, key());
    let mut arena = BonsaiTree::new(g, key());
    let mut cb = CounterBlock::new();
    cb.bump(1);
    golden.update_leaf(0, &cb);
    arena.update_leaf(0, &cb);
    let victim = g.parent(g.leaf(0)).unwrap();
    let value = golden.node_value(victim) ^ 0x5a5a;
    golden.set_node(victim, value);
    arena.set_node(victim, value);
    assert_eq!(arena.root(), golden.root());
    assert_eq!(
        arena.node_value(victim),
        value,
        "the tamper was overwritten"
    );
    assert!(!golden.verify_consistent());
    assert!(arena.verify_consistent().is_err());

    // Page `arity` sits under the victim's next sibling, so its update
    // recomputes the victim's parent from the tampered value.
    golden.update_leaf(g.arity(), &cb);
    arena.update_leaf(g.arity(), &cb);
    assert_eq!(
        g.parent(g.leaf(g.arity())),
        Some(NodeLabel::new(victim.raw() + 1))
    );
    assert_eq!(arena.root(), golden.root());
    assert_stores_equal(&golden, &mut arena, g);
}

/// The paper-default geometry is too big for the exhaustive sweep, so
/// pin root-level agreement on a hand-picked update set instead,
/// including the first and last leaf (arena boundary slots).
#[test]
fn paper_default_geometry_roots_agree() {
    let g = BmtGeometry::default();
    let mut golden = GoldenTree::new(g, key());
    let mut arena = BonsaiTree::new(g, key());
    let mut cb = CounterBlock::new();
    for page in [0, 1, 7, 8, 4096, g.leaf_count() - 1] {
        cb.bump((page % 64) as usize);
        golden.update_leaf(page, &cb);
        arena.update_leaf(page, &cb);
    }
    assert_eq!(golden.root(), arena.root());
    assert_populated_equal(&golden, &mut arena, g);
    assert!(arena.verify_consistent().is_ok());
}

/// The tallest tree the recovery sweeps use: 8-ary, 11 levels, a
/// 19.2M-word occupancy bitmap. Floor 9 cuts at label 2 396 745, nine bits into
/// bitmap word 37 449: the last leaf's level-8 ancestor (label
/// 2 396 744) sits just below the cut and leaf 0's level-9 ancestor
/// (label 2 396 745) just above it, in the same word.
#[test]
fn tall_tree_floor_cuts_inside_a_bitmap_word() {
    let g = BmtGeometry::new(8, 11);
    let cutoff = g.level_offset(9);
    assert_eq!(cutoff, 2_396_745);
    assert_ne!(cutoff % 64, 0, "the cut must fall inside a word");
    let mut golden = GoldenTree::new(g, key());
    let mut arena = BonsaiTree::new(g, key());
    let mut cb = CounterBlock::new();
    for page in [0, g.leaf_count() - 1] {
        cb.bump((page % 64) as usize);
        golden.update_leaf(page, &cb);
        arena.update_leaf(page, &cb);
    }
    assert_eq!(golden.root(), arena.root());
    assert_populated_equal(&golden, &mut arena, g);
    // The root, then two disjoint paths through levels 2..=8.
    assert_eq!(arena.populated_nodes_above(9), 1 + 2 * 7);
    assert_eq!(
        BonsaiTree::fresh_root(g, key()),
        GoldenTree::new(g, key()).root()
    );
}
