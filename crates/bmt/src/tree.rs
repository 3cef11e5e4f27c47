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
//! Internal nodes are committed lazily. A node's value depends only on
//! its children, so only its last recomputation before a read matters
//! (the coalescing argument of the paper's §IV-B). An update hashes
//! its leaf and queues the leaf's ancestors as *dirty*; the next read
//! of node state *commits*: it hashes every queued node once, deepest
//! level first, so each sees its children's final values. Every read
//! commits first, so no caller observes a value an eager walk would
//! not have produced.
//!
//! This is the *functional* half of the BMT: it answers "what is the
//! root after these counter updates" and "is this tree internally
//! consistent". The *timing* half (who updates which node when, and in
//! what order) lives in the engine models of `plp-core`.

use plp_crypto::{CounterBlock, SipKey};

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

/// Dense, level-major node storage in one zeroed allocation: a value
/// slot per node label, then an occupancy bitmap and a dirty bitmap of
/// one bit per node each. Unoccupied slots read as the level default —
/// the lazy-default semantics the old map-backed store provided, kept
/// without the per-node hash-and-probe. A dirty node is an internal
/// node whose stored value predates an update below it.
///
/// One allocation, not three: glibc serves a zeroed request from a
/// fresh mapping only above its dynamic mmap threshold, which rises to
/// the size of each freed mapping up to 32 MB. A separate 2.4 MB bitmap
/// of a 9-level tree therefore came from the heap once the first tree
/// was dropped and was cleared with `memset` for every tree after it;
/// inside the 158 MB slab it is untouched zero pages like the values.
#[derive(Clone)]
struct NodeArena {
    /// `nodes` value slots indexed by `NodeLabel::raw`, then `words`
    /// occupancy words, then `words` dirty words.
    slab: Vec<u64>,
    /// Number of nodes: the value slots, and the first occupancy word.
    nodes: usize,
    /// Words per bitmap.
    words: usize,
}

impl NodeArena {
    fn new(node_count: u64) -> Self {
        let nodes = arena_slot(node_count);
        let words = nodes.div_ceil(64);
        NodeArena {
            // `vec![0; n]` takes the allocator's zeroed-page path, so
            // the arena costs address space, not resident memory,
            // until nodes are actually written.
            slab: vec![0; nodes + 2 * words],
            nodes,
            words,
        }
    }

    // Value slots are indexed through `slab[..nodes]`, so a label
    // outside the tree panics instead of reaching into the bitmaps.

    #[inline]
    fn get(&self, label: NodeLabel) -> Option<NodeValue> {
        let i = arena_slot(label.raw());
        if self.slab[self.nodes + (i >> 6)] & (1u64 << (i & 63)) != 0 {
            Some(self.slab[..self.nodes][i])
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, label: NodeLabel, value: NodeValue) {
        let i = arena_slot(label.raw());
        self.slab[..self.nodes][i] = value;
        self.slab[self.nodes + (i >> 6)] |= 1u64 << (i & 63);
    }

    /// Sets `label`'s dirty bit; returns whether it was clear.
    #[inline]
    fn mark_dirty(&mut self, label: NodeLabel) -> bool {
        let i = arena_slot(label.raw());
        let (word, bit) = (self.nodes + self.words + (i >> 6), 1u64 << (i & 63));
        let clean = self.slab[word] & bit == 0;
        self.slab[word] |= bit;
        clean
    }

    #[inline]
    fn clear_dirty(&mut self, label: NodeLabel) {
        let i = arena_slot(label.raw());
        self.slab[self.nodes + self.words + (i >> 6)] &= !(1u64 << (i & 63));
    }

    /// The occupancy bitmap.
    fn occupied(&self) -> &[u64] {
        &self.slab[self.nodes..self.nodes + self.words]
    }

    /// Occupied labels in descending raw order — deepest level first,
    /// which is the order the consistency check wants.
    fn labels_deepest_first(&self) -> impl Iterator<Item = NodeLabel> + '_ {
        self.occupied()
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
            .field("slots", &self.nodes)
            .finish()
    }
}

/// The dirty internal nodes queued for the next commit, one list per
/// 1-based level (index `level - 1`; the leaf level's stays empty).
///
/// A label is queued exactly when its dirty bit is set. The set is
/// closed upward — a dirty node's ancestors are dirty — because marking
/// walks a whole leaf-to-root path and stops only at a node already
/// queued, whose own ancestors were queued with it. So the root is
/// queued exactly when anything is. A commit drains the lists, keeping
/// their capacity, so a warmed tree commits without allocating.
#[derive(Clone)]
struct Queued(Vec<Vec<NodeLabel>>);

impl std::fmt::Debug for Queued {
    /// Compact: a long queue must not dump into debug output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queued: usize = self.0.iter().map(Vec::len).sum();
        write!(f, "Queued({queued})")
    }
}

/// A keyed Bonsai Merkle Tree over counter blocks, stored in a dense
/// level-major arena with lazy per-level defaults and a lazy commit of
/// internal nodes.
///
/// Reads of node state take `&mut self` because they commit first;
/// [`BonsaiTree::committed_root`] is the `&self` read for a holder that
/// knows nothing is pending.
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
/// tree.update_leaf(5, &cb); // hashes the leaf, queues its ancestors
/// assert_eq!(tree.committed_root(), None);
/// let root_after = tree.root(); // commits, then reads
/// assert_ne!(root_after, root_before);
/// assert_eq!(tree.committed_root(), Some(root_after));
///
/// // The explicit update path, for callers that want the labels:
/// let mut path = Vec::new();
/// tree.update_leaf_into(5, &cb, &mut path);
/// assert_eq!(path.len(), 4); // leaf, two internals, root
/// ```
#[derive(Debug, Clone)]
pub struct BonsaiTree {
    geometry: BmtGeometry,
    key: SipKey,
    store: NodeArena,
    /// The arena's dirty nodes, by level.
    queued: Queued,
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
            queued: Queued(vec![Vec::new(); geometry.levels_usize()]),
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
    pub(crate) fn level_defaults(geometry: BmtGeometry, key: SipKey) -> Vec<NodeValue> {
        let levels = geometry.levels_usize();
        let mut defaults = vec![0; levels];
        defaults[levels - 1] = Self::leaf_value_with(key, &CounterBlock::new());
        for level in (1..levels).rev() {
            let children = vec![defaults[level]; geometry.arity_usize()];
            defaults[level - 1] = Self::internal_value_with(key, &children);
        }
        defaults
    }

    /// Rebuilds a tree from a set of persisted counter blocks. The tree
    /// comes back committed: each populated internal node hashed once,
    /// however many leaves share it. Recovery ("recovering from a crash
    /// requires recomputing the BMT root", §III) rebuilds with
    /// [`PathTree::from_counters`](crate::PathTree::from_counters)
    /// instead, which builds no arena.
    pub fn from_counters<'a>(
        geometry: BmtGeometry,
        master_key: SipKey,
        counters: impl IntoIterator<Item = (u64, &'a CounterBlock)>,
    ) -> Self {
        let mut tree = BonsaiTree::new(geometry, master_key);
        for (page, cb) in counters {
            tree.update_leaf(page, cb);
        }
        tree.commit();
        tree
    }

    /// The tree geometry.
    pub fn geometry(&self) -> BmtGeometry {
        self.geometry
    }

    /// The current root value. Commits first.
    pub fn root(&mut self) -> NodeValue {
        self.node_value(NodeLabel::ROOT)
    }

    /// The root, or `None` while updates await a commit — the `&self`
    /// read, for a holder that knows the tree is committed (a fresh
    /// tree, or one a `&mut` read has just committed).
    pub fn committed_root(&self) -> Option<NodeValue> {
        self.is_committed().then(|| self.value(NodeLabel::ROOT))
    }

    /// The value of any node (stored or default). Commits first.
    pub fn node_value(&mut self, label: NodeLabel) -> NodeValue {
        self.commit();
        self.value(label)
    }

    /// The stored-or-default value of `label` as the arena holds it,
    /// without committing: exact only for a committed tree.
    fn value(&self, label: NodeLabel) -> NodeValue {
        match self.store.get(label) {
            Some(v) => v,
            None => self.defaults[self.geometry.level_index(label)],
        }
    }

    pub(crate) fn leaf_value_with(key: SipKey, cb: &CounterBlock) -> NodeValue {
        key.hash_words(&cb.content_words())
    }

    pub(crate) fn internal_value_with(key: SipKey, children: &[NodeValue]) -> NodeValue {
        key.hash_words(children)
    }

    fn recompute_internal(&self, label: NodeLabel) -> NodeValue {
        let children: Vec<NodeValue> = (0..self.geometry.arity())
            .map(|i| self.value(self.geometry.child(label, i)))
            .collect();
        Self::internal_value_with(self.key, &children)
    }

    /// Applies a counter-block update at `page`: hashes and stores the
    /// leaf, then queues its ancestors for the next commit, stopping at
    /// the first one already queued (the rest of the path is queued
    /// with it). Allocation-free once the per-level queues have grown.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the tree's coverage.
    pub fn update_leaf(&mut self, page: u64, cb: &CounterBlock) {
        let leaf = self.geometry.leaf(page);
        self.store.set(leaf, Self::leaf_value_with(self.key, cb));
        for (ancestor, level) in self.geometry.walk_up(leaf).skip(1) {
            if !self.store.mark_dirty(ancestor) {
                break;
            }
            self.queued.0[self.geometry.level_slot(level)].push(ancestor);
        }
    }

    /// Whether nothing is queued: the root is clean.
    fn is_committed(&self) -> bool {
        self.queued.0[0].is_empty()
    }

    /// Hashes every queued node once, deepest level first, so each
    /// reads its children's final values — the values an eager walk
    /// would have left. Allocation-free: children gather into the
    /// tree's own scratch buffer (the children of node `n` are the
    /// contiguous labels `n·arity+1 ..= n·arity+arity`) and the queues
    /// keep their capacity.
    fn commit(&mut self) {
        if self.is_committed() {
            return;
        }
        let BonsaiTree {
            geometry,
            key,
            store,
            queued,
            defaults,
            child_scratch,
        } = self;
        let arity = geometry.arity();
        for level in (1..geometry.levels()).rev() {
            let child_default = defaults[geometry.level_slot(level + 1)];
            for label in queued.0[geometry.level_slot(level)].drain(..) {
                let first_child = label.raw() * arity + 1;
                for (i, slot) in child_scratch.iter_mut().enumerate() {
                    *slot = store
                        .get(NodeLabel::new(first_child + i as u64))
                        .unwrap_or(child_default);
                }
                store.set(label, Self::internal_value_with(*key, child_scratch));
                store.clear_dirty(label);
            }
        }
    }

    /// Like [`BonsaiTree::update_leaf`], but also commits and records
    /// the update path as `(label, new_value)` pairs ordered leaf-first
    /// into `path` (cleared first) — exactly the per-level work the
    /// timing engines schedule (one MAC computation per entry). Returns
    /// the new root value.
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
        self.update_leaf(page, cb);
        self.commit();
        path.clear();
        let leaf = self.geometry.leaf(page);
        path.extend(
            self.geometry
                .walk_up(leaf)
                .map(|(node, _)| (node, self.value(node))),
        );
        self.value(NodeLabel::ROOT)
    }

    /// Overwrites a single node value without updating ancestors.
    /// Commits first, so no queued recomputation can later overwrite
    /// the value written here.
    ///
    /// This models *partial* persistence (a crash between tuple
    /// persists) and active tampering; the integrity checks exist to
    /// catch exactly the states this method can create.
    pub fn set_node(&mut self, label: NodeLabel, value: NodeValue) {
        self.commit();
        self.store.set(label, value);
    }

    /// Checks that every stored internal node equals the hash of its
    /// children. Commits first.
    ///
    /// Walks the whole occupancy bitmap, `node_count / 64` words
    /// whatever the population: 19.2M words (153 MB) for an 8-ary,
    /// 11-level tree. A test-facing check; recovery never builds an
    /// arena.
    ///
    /// # Errors
    ///
    /// Returns the lowest-level inconsistent node.
    pub fn verify_consistent(&mut self) -> Result<(), IntegrityError> {
        self.commit();
        // The arena iterates occupied labels in descending raw order —
        // deepest levels first — so the error points at the lowest
        // inconsistency (most useful for diagnosing ordering bugs).
        for label in self.store.labels_deepest_first() {
            if self.geometry.level(label) >= self.geometry.levels() {
                continue;
            }
            if self.recompute_internal(label) != self.value(label) {
                return Err(IntegrityError { node: label });
            }
        }
        Ok(())
    }
}

/// Integrity-verification failure: a node whose stored value does not
/// match recomputation ("BMT (verification) failure", Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let mut t = tree();
        assert!(t.store.occupied().iter().all(|w| *w == 0));
        assert!(t.verify_consistent().is_ok());
        // Root of an all-default tree equals the level-1 default.
        assert_eq!(t.root(), t.node_value(NodeLabel::ROOT));
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
        let value = t.node_value(victim);
        t.set_node(victim, value ^ 1);
        let err = t.verify_consistent().unwrap_err();
        // The *parent* of the tampered node is the one whose hash no
        // longer matches its children... unless the tampered node itself
        // also has stored children. Either way an error is raised.
        assert!(g.level(err.node) < 4);
        assert!(err.to_string().contains("verification failure"));
    }

    #[test]
    fn stale_leaf_detected() {
        // Persisting the counter but not the root (Table I row 1): the
        // stored tree has the old root while counters moved on.
        let mut t = tree();
        let cb = bumped(&[0]);
        let rebuilt = crate::PathTree::from_counters(t.geometry(), SipKey::new(77, 88), [(0, &cb)]);
        assert_ne!(rebuilt.root(), t.root());
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut t = tree();
        let cb1 = bumped(&[0, 0, 5]);
        let cb2 = bumped(&[63]);
        t.update_leaf(2, &cb1);
        t.update_leaf(500, &cb2);
        let mut rebuilt = BonsaiTree::from_counters(
            t.geometry(),
            SipKey::new(77, 88),
            [(2u64, &cb1), (500u64, &cb2)],
        );
        assert_eq!(rebuilt.root(), t.root());
        let packed = crate::PathTree::from_counters(
            t.geometry(),
            SipKey::new(77, 88),
            [(2u64, &cb1), (500u64, &cb2)],
        );
        assert_eq!(packed.root(), t.root());
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
        // occupancy tracks only explicit nodes.
        let mut t = BonsaiTree::new(BmtGeometry::default(), SipKey::new(1, 2));
        t.update_leaf(0, &bumped(&[0]));
        t.update_leaf(16_777_215, &bumped(&[1]));
        t.commit();
        let occupied: u32 = t.store.occupied().iter().map(|w| w.count_ones()).sum();
        assert_eq!(occupied, 2 * 9 - 1);
        assert!(t.verify_consistent().is_ok());
    }

    #[test]
    fn updates_queue_each_ancestor_once_until_a_read() {
        let mut t = tree();
        let fresh = t.committed_root();
        assert_eq!(
            fresh,
            Some(BonsaiTree::fresh_root(t.geometry(), SipKey::new(77, 88)))
        );
        // Pages 0 and 1 share their level-3 parent: the second update
        // finds it queued and stops there, so the path is queued once.
        t.update_leaf(0, &bumped(&[0]));
        t.update_leaf(1, &bumped(&[1]));
        let queued: Vec<usize> = t.queued.0.iter().map(Vec::len).collect();
        assert_eq!(queued, [1, 1, 1, 0]);
        assert_eq!(t.committed_root(), None, "a read before the commit");
        // Page 511 shares only the root: two more nodes, root not again.
        t.update_leaf(511, &bumped(&[2]));
        let queued: Vec<usize> = t.queued.0.iter().map(Vec::len).collect();
        assert_eq!(queued, [1, 2, 2, 0]);
        let root = t.root();
        assert!(t.is_committed());
        let dirty = &t.store.slab[t.store.nodes + t.store.words..];
        assert!(dirty.iter().all(|w| *w == 0), "a commit clears every bit");
        assert_eq!(t.committed_root(), Some(root));
        assert_ne!(Some(root), fresh);
    }

    #[test]
    #[should_panic]
    fn set_node_outside_the_tree_panics() {
        // The first label past the tree indexes the occupancy bitmap in
        // the arena's slab; it must not be written as a value.
        let mut t = tree();
        let outside = NodeLabel::new(t.geometry().node_count());
        t.set_node(outside, 1);
    }

    #[test]
    fn debug_output_is_compact() {
        let t = tree();
        let dbg = format!("{t:?}");
        assert!(
            dbg.len() < 500,
            "debug dump leaked the arena: {} bytes",
            dbg.len()
        );
        assert!(dbg.contains("slots"));
    }
}
