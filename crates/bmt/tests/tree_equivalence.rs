//! Golden-model equivalence: the arena-backed, lazily committed
//! `BonsaiTree` and the packed `PathTree` against the original
//! map-backed eager implementation.
//!
//! `GoldenTree` below is a frozen copy of the pre-arena tree: a
//! `HashMap` node store (keyed by the label's raw numbering, since
//! `NodeLabel` is not hashable) with per-level lazy
//! defaults, recomputing every ancestor on every update by collecting
//! its children into a fresh `Vec`. It is deliberately naive — its job
//! is to be obviously correct, not fast. Every arena test drives both
//! trees through the same sequence of operations (updates, reads,
//! tampering, crash-and-rebuild) and asserts the stores are
//! indistinguishable: same root, same value for *every* label in the
//! tree, same consistency verdicts. Reads interleave with updates and
//! tampers, so each commit point is compared, not only the final
//! state. The `PathTree` tests compare the rebuilt root and the
//! populated-node count, in total and above every recovery floor, and
//! the root after every step of a `set_leaf` sequence.

use std::collections::HashMap;

use plp_bmt::{BmtGeometry, BonsaiTree, NodeLabel, NodeValue, PathTree};
use plp_crypto::{CounterBlock, SipKey};
use proptest::prelude::*;

fn key() -> SipKey {
    SipKey::new(0xfeed, 0xbeef)
}

/// The pre-arena map-backed tree, kept verbatim as the oracle.
struct GoldenTree {
    geometry: BmtGeometry,
    key: SipKey,
    nodes: HashMap<u64, NodeValue>,
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
        match self.nodes.get(&label.raw()) {
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
            .filter(|&&raw| self.geometry.level(NodeLabel::new(raw)) < floor)
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
        self.nodes.insert(leaf.raw(), leaf_value);
        path.push((leaf, leaf_value));
        let mut node = leaf;
        while let Some(parent) = self.geometry.parent(node) {
            let value = self.recompute_internal(parent);
            self.nodes.insert(parent.raw(), value);
            path.push((parent, value));
            node = parent;
        }
        path
    }

    fn set_node(&mut self, label: NodeLabel, value: NodeValue) {
        self.nodes.insert(label.raw(), value);
    }

    fn verify_consistent(&self) -> bool {
        let mut labels: Vec<NodeLabel> =
            self.nodes.keys().map(|&raw| NodeLabel::new(raw)).collect();
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

/// Assert a rebuilt `PathTree` agrees with the golden tree on the
/// root and the populated count, in total and above every recovery
/// floor `1..=levels`.
fn assert_rebuild_equal(golden: &GoldenTree, packed: &PathTree, g: BmtGeometry) {
    assert_eq!(golden.root(), packed.root(), "rebuilt roots diverged");
    assert_eq!(
        golden.populated_nodes(),
        packed.populated_nodes(),
        "populated-node counts diverged"
    );
    for floor in 1..=g.levels() {
        assert_eq!(
            golden.populated_nodes_above(floor),
            packed.populated_nodes_above(floor),
            "populated-node counts above floor {floor} diverged"
        );
    }
}

/// Assert the two stores are indistinguishable from the outside: the
/// root and the value of every single label.
fn assert_stores_equal(golden: &GoldenTree, arena: &mut BonsaiTree, g: BmtGeometry) {
    assert_eq!(golden.root(), arena.root(), "roots diverged");
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

/// `PathTree` tests sweep no labels, so they reach one level deeper,
/// and down to the single-node tree whose root is its leaf.
fn arb_path_geometry() -> impl Strategy<Value = BmtGeometry> {
    (2u64..=8, 1u32..=5).prop_map(|(arity, levels)| BmtGeometry::new(arity, levels))
}

/// A page chosen by `kind`: the first leaf, the last leaf, the page
/// `seed` picks among the earlier `pages` (a duplicate), or any page.
fn pick_page(g: BmtGeometry, pages: &[u64], kind: u8, seed: u64) -> u64 {
    match (kind, pages.len()) {
        (0, _) => 0,
        (1, _) => g.leaf_count() - 1,
        (2, n) if n > 0 => pages[(seed % n as u64) as usize],
        _ => seed % g.leaf_count(),
    }
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
        let packed = PathTree::from_counters(g, key(), surviving.iter().copied());
        assert_rebuild_equal(&golden, &packed, g);
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
        ops in prop::collection::vec((0u8..10, any::<u64>(), any::<u64>()), 1..48),
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
                7 => {
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
                8 => prop_assert_eq!(
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

proptest! {
    // A rebuild over at most 24 pages is cheap: sweep many more shapes.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `PathTree::from_counters` over any survivor sequence: empty,
    /// holding the first and last leaf, and rewriting pages, where the
    /// last block per page must win.
    #[test]
    fn path_tree_rebuild_agrees(
        g in arb_path_geometry(),
        writes in prop::collection::vec((0u8..5, any::<u64>(), 0usize..64), 0..24),
    ) {
        let mut state: HashMap<u64, CounterBlock> = HashMap::new();
        let mut pages = Vec::new();
        let mut persisted: Vec<(u64, CounterBlock)> = Vec::new();
        for (kind, seed, slot) in writes {
            let page = pick_page(g, &pages, kind, seed);
            pages.push(page);
            let cb = state.entry(page).or_default();
            cb.bump(slot);
            persisted.push((page, cb.clone()));
        }
        let survivors = || persisted.iter().map(|(p, c)| (*p, c));
        let golden = GoldenTree::from_counters(g, key(), survivors());
        let packed = PathTree::from_counters(g, key(), survivors());
        assert_rebuild_equal(&golden, &packed, g);
        prop_assert_eq!(
            packed.root(),
            BonsaiTree::from_counters(g, key(), survivors()).root()
        );
        if persisted.is_empty() {
            prop_assert_eq!(packed.root(), BonsaiTree::fresh_root(g, key()));
        }
    }

    /// `PathTree::new` over a page set, then `set_leaf` on those pages
    /// in any order, repeats included: the root after every step is
    /// the eager golden tree's after the same updates.
    #[test]
    fn path_tree_set_leaf_sequences_agree(
        g in arb_path_geometry(),
        cover in prop::collection::vec((0u8..5, any::<u64>()), 1..12),
        steps in prop::collection::vec((any::<u64>(), 0usize..64), 0..32),
    ) {
        let mut pages = Vec::new();
        for (kind, seed) in cover {
            let page = pick_page(g, &pages, kind, seed);
            pages.push(page);
        }
        let mut packed = PathTree::new(g, key(), pages.iter().copied());
        let mut golden = GoldenTree::new(g, key());
        prop_assert_eq!(packed.root(), golden.root());
        let mut state: HashMap<u64, CounterBlock> = HashMap::new();
        for (pick, slot) in steps {
            let page = pages[(pick % pages.len() as u64) as usize];
            let cb = state.entry(page).or_default();
            cb.bump(slot);
            golden.update_leaf(page, cb);
            packed.set_leaf(page, cb);
            prop_assert_eq!(packed.root(), golden.root());
        }
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
    let mut persisted = Vec::new();
    for page in [0, 1, 7, 8, 4096, g.leaf_count() - 1] {
        cb.bump((page % 64) as usize);
        golden.update_leaf(page, &cb);
        arena.update_leaf(page, &cb);
        persisted.push((page, cb.clone()));
    }
    assert_eq!(golden.root(), arena.root());
    assert!(arena.verify_consistent().is_ok());
    let packed = PathTree::from_counters(g, key(), persisted.iter().map(|(p, c)| (*p, c)));
    assert_rebuild_equal(&golden, &packed, g);
}

/// The tallest tree the recovery sweeps use: 8-ary, 11 levels. The
/// first and last leaf share only the root, so floor 9 cuts the root
/// plus two disjoint paths through levels 2..=8.
#[test]
fn tall_tree_rebuild_counts_the_slice_above_the_floor() {
    let g = BmtGeometry::new(8, 11);
    let mut golden = GoldenTree::new(g, key());
    let mut cb = CounterBlock::new();
    let mut persisted = Vec::new();
    for page in [0, g.leaf_count() - 1] {
        cb.bump((page % 64) as usize);
        golden.update_leaf(page, &cb);
        persisted.push((page, cb.clone()));
    }
    let packed = PathTree::from_counters(g, key(), persisted.iter().map(|(p, c)| (*p, c)));
    assert_rebuild_equal(&golden, &packed, g);
    assert_eq!(packed.populated_nodes_above(9), 1 + 2 * 7);
    assert_eq!(
        BonsaiTree::fresh_root(g, key()),
        GoldenTree::new(g, key()).root()
    );
}
