//! The arena-backed functional Bonsai Merkle Tree.
//!
//! The tree covers one counter block per leaf (one 4 KiB encryption
//! page). Node storage is a dense, level-major arena indexed directly
//! by the breadth-first label — the labelling of `crate::label` makes
//! `label.raw()` *itself* the arena index, so a node lookup is one
//! bitmap test and one array read with no hashing and no probing.
//! Only nodes that differ from the all-fresh-counters state are
//! *occupied*; every level has a memoized *default* value, so an
//! 8-ary, 9-level tree (16.7M leaves) still behaves sparsely: the
//! arena's zeroed pages stay untouched (and physically unmapped, via
//! the allocator's zeroed-page path) until a node is first written.
//!
//! This is the *functional* half of the BMT: it answers "what is the
//! root after these counter updates" and "is this tree internally
//! consistent". The *timing* half (who updates which node when, and in
//! what order) lives in the engine models of `plp-core`.

use plp_crypto::{CounterBlock, SipKey};
use serde::{Deserialize, Serialize};

use crate::{BmtGeometry, NodeLabel};

/// An 8-byte BMT node value ("64B to 8B hash", Fig. 1).
pub type NodeValue = u64;

/// A `u64` arena index as a container index. The arena length is the
/// geometry's node count, which [`BmtGeometry::new`] validated fits.
#[expect(
    clippy::cast_possible_truncation,
    reason = "arena indices are node labels, validated to fit by the geometry constructor"
)]
fn arena_slot(raw: u64) -> usize {
    raw as usize
}

/// Dense, level-major node storage: one value slot per node label plus
/// an occupancy bitmap. Unoccupied slots read as the level default —
/// the lazy-default semantics the old map-backed store provided, kept
/// without the per-node hash-and-probe.
#[derive(Clone, Serialize, Deserialize)]
struct NodeArena {
    /// One slot per node, indexed by `NodeLabel::raw`.
    values: Vec<NodeValue>,
    /// One bit per node: whether `values[i]` holds an explicit value.
    occupied: Vec<u64>,
    /// Number of set occupancy bits.
    populated: usize,
}

impl NodeArena {
    fn new(node_count: u64) -> Self {
        let len = arena_slot(node_count);
        NodeArena {
            // `vec![0; n]` takes the allocator's zeroed-page path, so
            // the arena costs address space, not resident memory,
            // until nodes are actually written.
            values: vec![0; len],
            occupied: vec![0; len.div_ceil(64)],
            populated: 0,
        }
    }

    #[inline]
    fn get(&self, label: NodeLabel) -> Option<NodeValue> {
        let i = arena_slot(label.raw());
        if self.occupied[i >> 6] & (1u64 << (i & 63)) != 0 {
            Some(self.values[i])
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, label: NodeLabel, value: NodeValue) {
        let i = arena_slot(label.raw());
        let (word, bit) = (i >> 6, 1u64 << (i & 63));
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.populated += 1;
        }
        self.values[i] = value;
    }

    /// Number of occupied labels below `cutoff`: a popcount over the
    /// bitmap prefix, `cutoff / 64` whole words and one partial word.
    fn populated_below(&self, cutoff: u64) -> usize {
        let end = arena_slot(cutoff);
        let (words, bits) = (end >> 6, end & 63);
        let partial = match bits {
            0 => 0,
            _ => self.occupied[words] & ((1u64 << bits) - 1),
        };
        let ones: u64 = self.occupied[..words]
            .iter()
            .chain([&partial])
            .map(|w| u64::from(w.count_ones()))
            .sum();
        // At most `cutoff` bits are set, and `cutoff` is an arena index.
        arena_slot(ones)
    }

    /// Occupied labels in descending raw order — deepest level first,
    /// which is the order the consistency check wants.
    fn labels_deepest_first(&self) -> impl Iterator<Item = NodeLabel> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, word)| **word != 0)
            .flat_map(|(w, word)| {
                (0u64..64)
                    .rev()
                    .filter(move |bit| word & (1u64 << bit) != 0)
                    .map(move |bit| NodeLabel::new((w as u64) * 64 + bit))
            })
    }
}

impl std::fmt::Debug for NodeArena {
    /// Compact: a 19M-slot arena must not dump into debug output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeArena")
            .field("slots", &self.values.len())
            .field("populated", &self.populated)
            .finish()
    }
}

/// A keyed Bonsai Merkle Tree over counter blocks, stored in a dense
/// level-major arena with lazy per-level defaults.
///
/// # Example
///
/// ```
/// use plp_bmt::{BmtGeometry, BonsaiTree};
/// use plp_crypto::{CounterBlock, SipKey};
///
/// let geometry = BmtGeometry::new(8, 4);
/// let mut tree = BonsaiTree::new(geometry, SipKey::new(1, 2));
/// let root_before = tree.root();
///
/// let mut cb = CounterBlock::new();
/// cb.bump(0);
/// let root_after = tree.update_leaf(5, &cb);
/// assert_eq!(root_after, tree.root());
/// assert_ne!(tree.root(), root_before);
///
/// // The explicit update path, for callers that want the labels:
/// let mut path = Vec::new();
/// tree.update_leaf_into(5, &cb, &mut path);
/// assert_eq!(path.len(), 4); // leaf, two internals, root
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BonsaiTree {
    geometry: BmtGeometry,
    key: SipKey,
    store: NodeArena,
    /// Default node value per 1-based level (index `level - 1`).
    defaults: Vec<NodeValue>,
    /// Reusable arity-sized buffer for gathering a node's children
    /// before hashing — the allocation the per-update child `Vec`s of
    /// the map-backed store used to pay nine times per persist.
    child_scratch: Vec<NodeValue>,
}

impl BonsaiTree {
    /// Creates the all-fresh tree (every page's counter block new).
    pub fn new(geometry: BmtGeometry, master_key: SipKey) -> Self {
        let key = master_key.derive("bmt");
        BonsaiTree {
            geometry,
            key,
            store: NodeArena::new(geometry.node_count()),
            defaults: Self::level_defaults(geometry, key),
            child_scratch: vec![0; geometry.arity_usize()],
        }
    }

    /// The root of the all-fresh tree, [`BonsaiTree::new`]`(..).root()`
    /// without the arena: one hash per level, whatever the geometry.
    pub fn fresh_root(geometry: BmtGeometry, master_key: SipKey) -> NodeValue {
        Self::level_defaults(geometry, master_key.derive("bmt"))[0]
    }

    /// The all-fresh value of each level (index `level - 1`): the leaf
    /// hash of a new counter block, then each parent's hash of `arity`
    /// copies of its child default.
    fn level_defaults(geometry: BmtGeometry, key: SipKey) -> Vec<NodeValue> {
        let levels = geometry.levels_usize();
        let mut defaults = vec![0; levels];
        defaults[levels - 1] = Self::leaf_value_with(key, &CounterBlock::new());
        for level in (1..levels).rev() {
            let children = vec![defaults[level]; geometry.arity_usize()];
            defaults[level - 1] = Self::internal_value_with(key, &children);
        }
        defaults
    }

    /// Rebuilds a tree from a set of persisted counter blocks — the
    /// crash-recovery path ("recovering from a crash requires
    /// recomputing the BMT root", §III).
    pub fn from_counters<'a>(
        geometry: BmtGeometry,
        master_key: SipKey,
        counters: impl IntoIterator<Item = (u64, &'a CounterBlock)>,
    ) -> Self {
        let mut tree = BonsaiTree::new(geometry, master_key);
        for (page, cb) in counters {
            tree.update_leaf(page, cb);
        }
        tree
    }

    /// The tree geometry.
    pub fn geometry(&self) -> BmtGeometry {
        self.geometry
    }

    /// The current root value.
    pub fn root(&self) -> NodeValue {
        self.node_value(NodeLabel::ROOT)
    }

    /// The value of any node (stored or default).
    pub fn node_value(&self, label: NodeLabel) -> NodeValue {
        match self.store.get(label) {
            Some(v) => v,
            None => self.defaults[self.geometry.level_index(label)],
        }
    }

    /// Number of explicitly stored (non-default) nodes.
    pub fn populated_nodes(&self) -> usize {
        self.store.populated
    }

    /// Number of explicitly stored nodes at levels *shallower* than
    /// `floor` (1-based; levels `1..floor`) — the slice a scheme that
    /// durably persists levels `floor..=levels` must rebuild after a
    /// crash. `floor == 1` means the whole tree is durable: nothing to
    /// rebuild.
    ///
    /// Breadth-first labels are contiguous by level, so levels
    /// `1..floor` are exactly the labels below
    /// `level_offset(floor)`: the count is a popcount over that bitmap
    /// prefix, `level_offset(floor) / 64` words (37 449 at floor 9 of
    /// an 8-ary tree), never the whole arena.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is 0 or exceeds the tree's level count.
    pub fn populated_nodes_above(&self, floor: u32) -> usize {
        self.store
            .populated_below(self.geometry.level_offset(floor))
    }

    fn leaf_value_with(key: SipKey, cb: &CounterBlock) -> NodeValue {
        key.hash_words(&cb.content_words())
    }

    fn internal_value_with(key: SipKey, children: &[NodeValue]) -> NodeValue {
        key.hash_words(children)
    }

    fn recompute_internal(&self, label: NodeLabel) -> NodeValue {
        let children: Vec<NodeValue> = (0..self.geometry.arity())
            .map(|i| self.node_value(self.geometry.child(label, i)))
            .collect();
        Self::internal_value_with(self.key, &children)
    }

    /// Applies a counter-block update at `page`, recomputing the leaf
    /// and every ancestor up to the root, and returns the new root
    /// value. Allocation-free: children gather into the tree's own
    /// scratch buffer and ancestors come from index arithmetic (the
    /// children of node `n` are the contiguous labels
    /// `n·arity+1 ..= n·arity+arity`).
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the tree's coverage.
    pub fn update_leaf(&mut self, page: u64, cb: &CounterBlock) -> NodeValue {
        let leaf = self.geometry.leaf(page);
        let leaf_val = Self::leaf_value_with(self.key, cb);
        let BonsaiTree {
            geometry,
            key,
            store,
            defaults,
            child_scratch,
        } = self;
        store.set(leaf, leaf_val);
        let arity = geometry.arity();
        let mut cur = leaf.raw();
        let mut val = leaf_val;
        // The leaf sits at level `levels`; each parent is one shallower.
        let mut child_level = geometry.levels();
        while cur != 0 {
            let parent = (cur - 1) / arity;
            let first_child = parent * arity + 1;
            let child_default = defaults[geometry.level_slot(child_level)];
            for (i, slot) in child_scratch.iter_mut().enumerate() {
                *slot = store
                    .get(NodeLabel::new(first_child + i as u64))
                    .unwrap_or(child_default);
            }
            val = Self::internal_value_with(*key, child_scratch);
            store.set(NodeLabel::new(parent), val);
            cur = parent;
            child_level -= 1;
        }
        val
    }

    /// Like [`BonsaiTree::update_leaf`], but also records the update
    /// path as `(label, new_value)` pairs ordered leaf-first into
    /// `path` (cleared first) — exactly the per-level work the timing
    /// engines schedule (one MAC computation per entry). Returns the
    /// new root value.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the tree's coverage.
    pub fn update_leaf_into(
        &mut self,
        page: u64,
        cb: &CounterBlock,
        path: &mut Vec<(NodeLabel, NodeValue)>,
    ) -> NodeValue {
        let root = self.update_leaf(page, cb);
        path.clear();
        let mut node = self.geometry.leaf(page);
        loop {
            path.push((node, self.node_value(node)));
            match self.geometry.parent(node) {
                Some(p) => node = p,
                None => break,
            }
        }
        root
    }

    /// Overwrites a single node value without updating ancestors.
    ///
    /// This models *partial* persistence (a crash between tuple
    /// persists) and active tampering; the integrity checks exist to
    /// catch exactly the states this method can create.
    pub fn set_node(&mut self, label: NodeLabel, value: NodeValue) {
        self.store.set(label, value);
    }

    /// Checks that every stored internal node equals the hash of its
    /// children.
    ///
    /// Walks the whole occupancy bitmap, `node_count / 64` words
    /// whatever the population: 19.2M words (153 MB) for an 8-ary,
    /// 11-level tree. A test-facing check; keep it off the recovery
    /// path, whose costs must scale with the populated nodes.
    ///
    /// # Errors
    ///
    /// Returns the lowest-level inconsistent node.
    pub fn verify_consistent(&self) -> Result<(), IntegrityError> {
        // The arena iterates occupied labels in descending raw order —
        // deepest levels first — so the error points at the lowest
        // inconsistency (most useful for diagnosing ordering bugs).
        for label in self.store.labels_deepest_first() {
            if self.geometry.level(label) >= self.geometry.levels() {
                continue;
            }
            if self.recompute_internal(label) != self.node_value(label) {
                return Err(IntegrityError { node: label });
            }
        }
        Ok(())
    }

    /// Verifies that a set of counter blocks matches this tree's root:
    /// rebuilds a fresh tree from `counters` and compares roots. This is
    /// the recovery-time check against the persistently-stored on-chip
    /// root.
    pub fn verify_counters_against_root<'a>(
        &self,
        counters: impl IntoIterator<Item = (u64, &'a CounterBlock)>,
        master_key: SipKey,
    ) -> Result<(), IntegrityError> {
        let rebuilt = BonsaiTree::from_counters(self.geometry, master_key, counters);
        if rebuilt.root() == self.root() {
            Ok(())
        } else {
            Err(IntegrityError {
                node: NodeLabel::ROOT,
            })
        }
    }
}

/// Integrity-verification failure: a node whose stored value does not
/// match recomputation ("BMT (verification) failure", Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegrityError {
    /// The inconsistent node.
    pub node: NodeLabel,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BMT verification failure at {}", self.node)
    }
}

impl std::error::Error for IntegrityError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> BonsaiTree {
        BonsaiTree::new(BmtGeometry::new(8, 4), SipKey::new(77, 88))
    }

    fn bumped(slots: &[usize]) -> CounterBlock {
        let mut cb = CounterBlock::new();
        for &s in slots {
            cb.bump(s);
        }
        cb
    }

    #[test]
    fn fresh_tree_is_consistent_and_sparse() {
        let t = tree();
        assert_eq!(t.populated_nodes(), 0);
        assert!(t.verify_consistent().is_ok());
        // Root of an all-default tree equals the level-1 default.
        assert_eq!(t.root(), t.node_value(NodeLabel::ROOT));
    }

    #[test]
    fn populated_nodes_above_counts_the_rebuild_slice() {
        let mut t = tree();
        assert_eq!(t.populated_nodes_above(3), 0);
        // One update populates a 4-node path: root, one node at each
        // of levels 2 and 3, and the leaf.
        t.update_leaf(9, &bumped(&[3]));
        assert_eq!(t.populated_nodes(), 4);
        // Floor 3: rebuild levels 1..3 — root + one level-2 node.
        assert_eq!(t.populated_nodes_above(3), 2);
        // Floor at the leaves: everything but the leaf itself.
        assert_eq!(t.populated_nodes_above(4), 3);
        // Floor 1: the whole tree is durable, nothing to rebuild.
        assert_eq!(t.populated_nodes_above(1), 0);
        // A second distinct leaf under the same level-2 subtree grows
        // the shallow slice by at most one level-3 node... a different
        // page entirely grows it by a full extra path minus the shared
        // root.
        t.update_leaf(500, &bumped(&[1]));
        assert!(t.populated_nodes_above(4) > 3);
        assert_eq!(
            t.populated_nodes_above(4) + 2,
            t.populated_nodes(),
            "exactly the two leaves are below floor 4"
        );
    }

    #[test]
    fn update_changes_root_deterministically() {
        let mut t1 = tree();
        let mut t2 = tree();
        let cb = bumped(&[3]);
        t1.update_leaf(9, &cb);
        t2.update_leaf(9, &cb);
        assert_eq!(t1.root(), t2.root());
        assert_ne!(t1.root(), tree().root());
    }

    #[test]
    fn update_path_is_leaf_to_root() {
        let mut t = tree();
        let mut path = Vec::new();
        let root = t.update_leaf_into(0, &bumped(&[0]), &mut path);
        let g = t.geometry();
        assert_eq!(path.len(), 4);
        assert_eq!(g.level(path[0].0), 4);
        assert_eq!(path[3].0, NodeLabel::ROOT);
        assert_eq!(path[3].1, root);
        assert_eq!(root, t.root());
        for w in path.windows(2) {
            assert_eq!(g.parent(w[0].0), Some(w[1].0));
        }
        for (label, value) in &path {
            assert_eq!(t.node_value(*label), *value);
        }
        assert!(t.verify_consistent().is_ok());
    }

    #[test]
    fn update_counts_each_path_node_once() {
        let mut t = tree();
        t.update_leaf(0, &bumped(&[0]));
        assert_eq!(t.populated_nodes(), 4);
        // Re-updating the same leaf repopulates the same nodes.
        t.update_leaf(0, &bumped(&[0, 1]));
        assert_eq!(t.populated_nodes(), 4);
        // A disjoint subtree shares only the root.
        t.update_leaf(511, &bumped(&[2]));
        assert_eq!(t.populated_nodes(), 7);
    }

    #[test]
    fn different_pages_different_roots() {
        let cb = bumped(&[0]);
        let mut t1 = tree();
        let mut t2 = tree();
        t1.update_leaf(0, &cb);
        t2.update_leaf(1, &cb);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn tamper_detected_by_consistency_check() {
        let mut t = tree();
        t.update_leaf(7, &bumped(&[1, 1]));
        assert!(t.verify_consistent().is_ok());
        // Flip an internal node on the update path.
        let g = t.geometry();
        let leaf = g.leaf(7);
        let victim = g.parent(leaf).unwrap();
        t.set_node(victim, t.node_value(victim) ^ 1);
        let err = t.verify_consistent().unwrap_err();
        // The *parent* of the tampered node is the one whose hash no
        // longer matches its children... unless the tampered node itself
        // also has stored children. Either way an error is raised.
        assert!(g.level(err.node) < 4);
    }

    #[test]
    fn stale_leaf_detected() {
        // Persisting the counter but not the root (Table I row 1): the
        // stored tree has the old root while counters moved on.
        let t = tree();
        let cb = bumped(&[0]);
        let err = t
            .verify_counters_against_root([(0u64, &cb)], SipKey::new(77, 88))
            .unwrap_err();
        assert_eq!(err.node, NodeLabel::ROOT);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut t = tree();
        let cb1 = bumped(&[0, 0, 5]);
        let cb2 = bumped(&[63]);
        t.update_leaf(2, &cb1);
        t.update_leaf(500, &cb2);
        let rebuilt = BonsaiTree::from_counters(
            t.geometry(),
            SipKey::new(77, 88),
            [(2u64, &cb1), (500u64, &cb2)],
        );
        assert_eq!(rebuilt.root(), t.root());
        assert!(t
            .verify_counters_against_root([(2u64, &cb1), (500u64, &cb2)], SipKey::new(77, 88))
            .is_ok());
    }

    #[test]
    fn update_order_within_epoch_is_root_invariant() {
        // The §IV-B1 WAW-safety argument: the final LCA value — and
        // hence the root — does not depend on the order two persists
        // update their common ancestors.
        let cb_a = bumped(&[1]);
        let cb_b = bumped(&[2, 2]);
        let mut t1 = tree();
        t1.update_leaf(0, &cb_a);
        t1.update_leaf(1, &cb_b);
        let mut t2 = tree();
        t2.update_leaf(1, &cb_b);
        t2.update_leaf(0, &cb_a);
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn same_leaf_last_writer_wins() {
        let mut t = tree();
        t.update_leaf(4, &bumped(&[0]));
        let final_cb = bumped(&[0, 0]);
        t.update_leaf(4, &final_cb);
        let mut direct = tree();
        direct.update_leaf(4, &final_cb);
        assert_eq!(t.root(), direct.root());
    }

    #[test]
    fn paper_default_geometry_tree_is_cheap_to_build() {
        // The 8-ary 9-level arena reserves 19M slots but must not touch
        // them: construction and a handful of updates stay fast and the
        // populated count tracks only explicit nodes.
        let mut t = BonsaiTree::new(BmtGeometry::default(), SipKey::new(1, 2));
        assert_eq!(t.populated_nodes(), 0);
        t.update_leaf(0, &bumped(&[0]));
        t.update_leaf(16_777_215, &bumped(&[1]));
        assert_eq!(t.populated_nodes(), 2 * 9 - 1);
        assert!(t.verify_consistent().is_ok());
    }

    #[test]
    fn debug_output_is_compact() {
        let t = tree();
        let dbg = format!("{t:?}");
        assert!(dbg.len() < 500, "debug dump leaked the arena: {} bytes", dbg.len());
        assert!(dbg.contains("populated"));
    }
}
