//! A packed tree over the root paths of a fixed leaf set, for one-shot
//! rebuilds.
//!
//! Recovery hashes a tree once from the persisted counters and reads
//! its root (and, for the prefix search, the root after each recorded
//! update). [`BonsaiTree`]'s arena is sized by the geometry: at 8-ary,
//! 7 levels it is a 2.4 MB heap `memset`, and at 9 and 11 levels a
//! fresh mapping faulted in page by page, whatever the population. A
//! [`PathTree`] stores only the union of its leaves' root paths, so a
//! rebuild's host work follows the populated nodes, which is also what
//! the recovery cycle model charges.

use std::cmp::Reverse;

use plp_crypto::{CounterBlock, SipKey};

use crate::tree::BonsaiTree;
use crate::{BmtGeometry, NodeValue};

/// The covered nodes of one level.
#[derive(Debug, Clone, Default)]
struct Level {
    /// Raw labels, ascending.
    labels: Vec<u64>,
    /// Each node's value, by position.
    values: Vec<NodeValue>,
    /// Each node's parent, as a position on the level above; empty at
    /// the root.
    parents: Vec<usize>,
    /// Node `i`'s covered children are positions
    /// `children[i]..children[i + 1]` on the level below; empty at the
    /// leaves.
    children: Vec<usize>,
}

/// A keyed Bonsai Merkle Tree over the union of a fixed leaf set's
/// root paths: per level, the covered nodes' sorted labels and values,
/// with parent and child positions. There is no arena, bitmap or
/// mapping; an uncovered node holds its level's default, the all-fresh
/// value [`BonsaiTree`] also uses, so both trees hash alike.
///
/// # Example
///
/// ```
/// use plp_bmt::{BmtGeometry, BonsaiTree, PathTree};
/// use plp_crypto::{CounterBlock, SipKey};
///
/// let geometry = BmtGeometry::new(8, 11);
/// let key = SipKey::new(1, 2);
/// let mut cb = CounterBlock::new();
/// cb.bump(0);
///
/// // Rebuild from persisted counters: one path, 11 nodes.
/// let rebuilt = PathTree::from_counters(geometry, key, [(5, &cb)]);
/// assert_eq!(rebuilt.populated_nodes(), 11);
/// let mut arena = BonsaiTree::new(geometry, key);
/// arena.update_leaf(5, &cb);
/// assert_eq!(rebuilt.root(), arena.root());
///
/// // Or cover the pages first and set the leaves one at a time.
/// let mut tree = PathTree::new(geometry, key, [5]);
/// assert_eq!(tree.root(), BonsaiTree::fresh_root(geometry, key));
/// tree.set_leaf(5, &cb);
/// assert_eq!(tree.root(), rebuilt.root());
/// ```
#[derive(Clone)]
pub struct PathTree {
    geometry: BmtGeometry,
    key: SipKey,
    /// Covered nodes per 1-based level (index `level - 1`).
    levels: Vec<Level>,
    /// Default node value per 1-based level (index `level - 1`).
    defaults: Vec<NodeValue>,
    /// Arity-sized buffer a node's children gather into.
    scratch: Vec<NodeValue>,
}

impl PathTree {
    /// The tree covering the root paths of `pages`, every leaf fresh:
    /// its root is [`BonsaiTree::fresh_root`] until
    /// [`PathTree::set_leaf`] changes a leaf. Duplicate pages cover one
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if a page is outside the tree's coverage.
    pub fn new(
        geometry: BmtGeometry,
        master_key: SipKey,
        pages: impl IntoIterator<Item = u64>,
    ) -> Self {
        let mut pages: Vec<u64> = pages.into_iter().collect();
        pages.sort_unstable();
        pages.dedup();
        Self::covering(geometry, master_key, &pages)
    }

    /// Rebuilds a tree from persisted counter blocks, hashing each
    /// populated node once, deepest level first. A page given twice
    /// takes its last block, hashed once. The root equals
    /// [`BonsaiTree::from_counters`]'s over the same blocks.
    ///
    /// # Panics
    ///
    /// Panics if a page is outside the tree's coverage.
    pub fn from_counters<'a>(
        geometry: BmtGeometry,
        master_key: SipKey,
        counters: impl IntoIterator<Item = (u64, &'a CounterBlock)>,
    ) -> Self {
        let mut leaves: Vec<(u64, usize, &CounterBlock)> = counters
            .into_iter()
            .enumerate()
            .map(|(i, (page, cb))| (page, i, cb))
            .collect();
        // Each page's last block sorts first among its duplicates, and
        // `dedup` keeps the first.
        leaves.sort_unstable_by_key(|&(page, i, _)| (page, Reverse(i)));
        leaves.dedup_by_key(|&mut (page, _, _)| page);
        let pages: Vec<u64> = leaves.iter().map(|&(page, _, _)| page).collect();
        let mut tree = Self::covering(geometry, master_key, &pages);
        let (key, leaf_slot) = (tree.key, tree.levels.len() - 1);
        for (value, (_, _, cb)) in tree.levels[leaf_slot].values.iter_mut().zip(&leaves) {
            *value = BonsaiTree::leaf_value_with(key, cb);
        }
        for slot in (0..leaf_slot).rev() {
            for i in 0..tree.levels[slot].labels.len() {
                tree.rehash(slot, i);
            }
        }
        tree
    }

    /// The covered structure over sorted, distinct `pages`, every node
    /// at its level's default.
    fn covering(geometry: BmtGeometry, master_key: SipKey, pages: &[u64]) -> Self {
        let key = master_key.derive("bmt");
        let arity = geometry.arity();
        let defaults = BonsaiTree::level_defaults(geometry, key);
        let depth = geometry.levels_usize();
        let mut levels = vec![Level::default(); depth];
        levels[depth - 1].labels = pages.iter().map(|&p| geometry.leaf(p).raw()).collect();
        // Parents of ascending labels ascend, so each level's labels
        // come out sorted and a node's covered children are contiguous.
        for slot in (1..depth).rev() {
            let (upper, lower) = levels.split_at_mut(slot);
            let (parent, child) = (&mut upper[slot - 1], &mut lower[0]);
            child.parents.reserve_exact(child.labels.len());
            for (i, &label) in child.labels.iter().enumerate() {
                let up = (label - 1) / arity;
                if parent.labels.last() != Some(&up) {
                    parent.labels.push(up);
                    parent.children.push(i);
                }
                child.parents.push(parent.labels.len() - 1);
            }
            parent.children.push(child.labels.len());
        }
        for (level, default) in levels.iter_mut().zip(&defaults) {
            level.values = vec![*default; level.labels.len()];
        }
        PathTree {
            geometry,
            key,
            levels,
            defaults,
            scratch: vec![0; geometry.arity_usize()],
        }
    }

    /// Hashes node `i` of level slot `slot` from its children: the
    /// covered ones at their positions, the default elsewhere.
    fn rehash(&mut self, slot: usize, i: usize) {
        let PathTree {
            geometry,
            key,
            levels,
            defaults,
            scratch,
        } = self;
        let (upper, lower) = levels.split_at_mut(slot + 1);
        let (node, below) = (&mut upper[slot], &lower[0]);
        let first_child = node.labels[i] * geometry.arity() + 1;
        scratch.fill(defaults[slot + 1]);
        for k in node.children[i]..node.children[i + 1] {
            scratch[child_position(below.labels[k] - first_child)] = below.values[k];
        }
        node.values[i] = BonsaiTree::internal_value_with(*key, scratch);
    }

    /// Sets page `page`'s counter block and rehashes its root path:
    /// one hash per level.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the tree's coverage or was not one
    /// of the pages the tree was built over.
    pub fn set_leaf(&mut self, page: u64, cb: &CounterBlock) {
        let leaf = self.geometry.leaf(page).raw();
        let depth = self.levels.len();
        let leaves = &mut self.levels[depth - 1];
        let mut i = leaves.labels.partition_point(|&l| l < leaf);
        assert!(
            leaves.labels.get(i) == Some(&leaf),
            "page {page} is not a leaf of this tree"
        );
        leaves.values[i] = BonsaiTree::leaf_value_with(self.key, cb);
        for slot in (0..depth - 1).rev() {
            i = self.levels[slot + 1].parents[i];
            self.rehash(slot, i);
        }
    }

    /// The root value; the fresh root when no page is covered.
    pub fn root(&self) -> NodeValue {
        self.levels[0]
            .values
            .first()
            .copied()
            .unwrap_or(self.defaults[0])
    }

    /// Number of covered nodes: for a tree from
    /// [`PathTree::from_counters`], exactly the nodes a
    /// [`BonsaiTree`] rebuilt from the same blocks stores.
    pub fn populated_nodes(&self) -> usize {
        self.levels.iter().map(|l| l.labels.len()).sum()
    }

    /// Number of covered nodes at levels *shallower* than `floor`
    /// (1-based; levels `1..floor`): the slice a scheme that durably
    /// persists levels `floor..=levels` must rebuild after a crash.
    /// `floor == 1` means the whole tree is durable: nothing to
    /// rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is 0 or exceeds the tree's level count.
    pub fn populated_nodes_above(&self, floor: u32) -> usize {
        let floor = floor as usize;
        assert!(
            (1..=self.levels.len()).contains(&floor),
            "level {floor} out of 1..={}",
            self.levels.len()
        );
        self.levels[..floor - 1]
            .iter()
            .map(|l| l.labels.len())
            .sum()
    }
}

impl std::fmt::Debug for PathTree {
    /// Compact: the covered node count per level, root first.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let per_level: Vec<usize> = self.levels.iter().map(|l| l.labels.len()).collect();
        f.debug_struct("PathTree")
            .field("geometry", &self.geometry)
            .field("nodes_per_level", &per_level)
            .finish()
    }
}

/// A child's position under its parent, which is below the arity.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a child position is below the arity, which the geometry constructor validated fits"
)]
fn child_position(offset: u64) -> usize {
    offset as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> BmtGeometry {
        BmtGeometry::new(8, 4)
    }

    fn key() -> SipKey {
        SipKey::new(77, 88)
    }

    fn bumped(slots: &[usize]) -> CounterBlock {
        let mut cb = CounterBlock::new();
        for &s in slots {
            cb.bump(s);
        }
        cb
    }

    #[test]
    fn populated_nodes_above_counts_the_rebuild_slice() {
        let empty = PathTree::from_counters(geometry(), key(), []);
        assert_eq!(empty.populated_nodes(), 0);
        assert_eq!(empty.populated_nodes_above(3), 0);
        // One page populates a 4-node path: root, one node at each of
        // levels 2 and 3, and the leaf.
        let cb = bumped(&[3]);
        let t = PathTree::from_counters(geometry(), key(), [(9, &cb)]);
        assert_eq!(t.populated_nodes(), 4);
        // Floor 3: rebuild levels 1..3 — root + one level-2 node.
        assert_eq!(t.populated_nodes_above(3), 2);
        // Floor at the leaves: everything but the leaf itself.
        assert_eq!(t.populated_nodes_above(4), 3);
        // Floor 1: the whole tree is durable, nothing to rebuild.
        assert_eq!(t.populated_nodes_above(1), 0);
        // A page in another level-2 subtree adds a path below the
        // shared root.
        let other = bumped(&[1]);
        let t = PathTree::from_counters(geometry(), key(), [(9, &cb), (500, &other)]);
        assert_eq!(t.populated_nodes_above(4), 5);
        assert_eq!(
            t.populated_nodes_above(4) + 2,
            t.populated_nodes(),
            "exactly the two leaves are below floor 4"
        );
    }

    #[test]
    fn each_path_node_counts_once() {
        let (a, b) = (bumped(&[0]), bumped(&[0, 1]));
        let t = PathTree::from_counters(geometry(), key(), [(0, &a)]);
        assert_eq!(t.populated_nodes(), 4);
        // A page given twice covers one path.
        let t = PathTree::from_counters(geometry(), key(), [(0, &a), (0, &b)]);
        assert_eq!(t.populated_nodes(), 4);
        // Pages 0 and 1 share every internal node.
        let t = PathTree::from_counters(geometry(), key(), [(0, &a), (1, &b)]);
        assert_eq!(t.populated_nodes(), 5);
        // A disjoint subtree shares only the root.
        let t = PathTree::from_counters(geometry(), key(), [(0, &a), (511, &b)]);
        assert_eq!(t.populated_nodes(), 7);
    }

    #[test]
    fn last_duplicate_wins_as_in_the_arena() {
        let (a, b) = (bumped(&[0]), bumped(&[0, 0]));
        let t = PathTree::from_counters(geometry(), key(), [(4, &a), (7, &a), (4, &b)]);
        let mut arena = BonsaiTree::new(geometry(), key());
        arena.update_leaf(7, &a);
        arena.update_leaf(4, &b);
        assert_eq!(t.root(), arena.root());
    }

    #[test]
    fn single_level_tree_is_its_leaf() {
        let g = BmtGeometry::new(4, 1);
        let cb = bumped(&[2]);
        let mut arena = BonsaiTree::new(g, key());
        arena.update_leaf(0, &cb);
        assert_eq!(
            PathTree::from_counters(g, key(), [(0, &cb)]).root(),
            arena.root()
        );
        let mut t = PathTree::new(g, key(), [0]);
        assert_eq!(t.root(), BonsaiTree::fresh_root(g, key()));
        t.set_leaf(0, &cb);
        assert_eq!(t.root(), arena.root());
    }

    #[test]
    #[should_panic(expected = "outside tree coverage")]
    fn page_outside_the_geometry_panics() {
        let cb = CounterBlock::new();
        let _ = PathTree::from_counters(geometry(), key(), [(512, &cb)]);
    }

    #[test]
    #[should_panic(expected = "not a leaf of this tree")]
    fn setting_an_uncovered_page_panics() {
        let mut t = PathTree::new(geometry(), key(), [0, 9]);
        t.set_leaf(8, &CounterBlock::new());
    }

    #[test]
    #[should_panic(expected = "out of 1..=4")]
    fn floor_past_the_leaves_panics() {
        let _ = PathTree::new(geometry(), key(), [0]).populated_nodes_above(5);
    }

    #[test]
    fn debug_output_is_compact() {
        let t = PathTree::new(geometry(), key(), 0..512);
        let dbg = format!("{t:?}");
        assert!(dbg.contains("nodes_per_level: [1, 8, 64, 512]"), "{dbg}");
        assert!(dbg.len() < 200, "{dbg}");
    }
}
