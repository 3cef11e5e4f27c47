//! Node labelling, ancestry and least-common-ancestor computation.
//!
//! The paper adopts the labelling scheme of Gassend et al. (§V-C): the
//! root is label 0 and the parent of node `n` is `(n - 1) / arity`. The
//! LCA of two leaves is found from the longest common suffix of their
//! update paths — equivalently, by lifting both labels to the same
//! level and walking up in lock-step.

use crate::BmtGeometry;

/// A node's label in the breadth-first numbering of the tree (root = 0).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeLabel(u64);

impl NodeLabel {
    /// The root's label.
    pub const ROOT: NodeLabel = NodeLabel(0);

    /// Creates a label from its raw numbering.
    pub const fn new(raw: u64) -> Self {
        NodeLabel(raw)
    }

    /// The raw numbering.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the root.
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for NodeLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl BmtGeometry {
    /// The parent of `node`; `None` for the root.
    pub fn parent(&self, node: NodeLabel) -> Option<NodeLabel> {
        if node.is_root() {
            None
        } else {
            Some(NodeLabel((node.raw() - 1) / self.arity()))
        }
    }

    /// The `i`-th child of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= arity` or the child would be below the leaf
    /// level.
    pub fn child(&self, node: NodeLabel, i: u64) -> NodeLabel {
        assert!(i < self.arity(), "child index {i} out of arity");
        let child = NodeLabel(node.raw() * self.arity() + 1 + i);
        assert!(self.level(child) <= self.levels(), "child below leaf level");
        child
    }

    /// The 1-based level of `node` (root = 1, leaves = `levels`).
    ///
    /// A node at level `l` has `raw ∈ [(aˡ⁻¹−1)/(a−1), (aˡ−1)/(a−1))`,
    /// so `raw·(a−1)+1 ∈ [aˡ⁻¹, aˡ)` and the level is one integer
    /// logarithm — a single `lzcnt` for power-of-two arities — instead
    /// of the per-level accumulation loop this replaced. Engines call
    /// this once per node update, so it sits on the persist hot path.
    pub fn level(&self, node: NodeLabel) -> u32 {
        let x = node
            .raw()
            .saturating_mul(self.arity() - 1)
            .saturating_add(1);
        if self.arity().is_power_of_two() {
            x.ilog2() / self.arity().ilog2() + 1
        } else {
            x.ilog(self.arity()) + 1
        }
    }

    /// The 0-based level of `node` as a container index
    /// ([`BmtGeometry::level`]` - 1`).
    pub fn level_index(&self, node: NodeLabel) -> usize {
        (self.level(node) - 1) as usize
    }

    /// The leaf label covering page `page_index`.
    ///
    /// # Panics
    ///
    /// Panics if `page_index` is outside the tree.
    pub fn leaf(&self, page_index: u64) -> NodeLabel {
        assert!(
            page_index < self.leaf_count(),
            "page {page_index} outside tree coverage"
        );
        NodeLabel(self.level_offset(self.levels()) + page_index)
    }

    /// The update path from `leaf` to the root, inclusive, ordered
    /// leaf-first (the order persists walk the tree in).
    ///
    /// Allocates a fresh `Vec`; hot paths use
    /// [`BmtGeometry::update_path_into`] with a reused scratch buffer
    /// instead.
    pub fn update_path(&self, leaf: NodeLabel) -> Vec<NodeLabel> {
        let mut path = Vec::with_capacity(self.levels_usize());
        self.update_path_into(leaf, &mut path);
        path
    }

    /// Writes the leaf-first update path of `leaf` into `path`
    /// (cleared first) without allocating once `path` has capacity —
    /// the scratch-buffer form engines thread through
    /// `EngineCtx::walk`.
    pub fn update_path_into(&self, leaf: NodeLabel, path: &mut Vec<NodeLabel>) {
        path.clear();
        let mut node = leaf;
        path.push(node);
        while let Some(p) = self.parent(node) {
            path.push(p);
            node = p;
        }
    }

    /// Allocation-free leaf-to-root walk: yields each node on `node`'s
    /// update path together with its 1-based level, `node` first and
    /// root last. This is the persist hot path's walk — engines consume
    /// the `(label, level)` pairs directly instead of materializing the
    /// path into a `Vec` and re-deriving each node's level.
    pub fn walk_up(&self, node: NodeLabel) -> impl Iterator<Item = (NodeLabel, u32)> {
        let arity = self.arity();
        let mut cur = Some((node.raw(), self.level(node)));
        std::iter::from_fn(move || {
            let (raw, level) = cur?;
            cur = if raw == 0 {
                None
            } else {
                Some(((raw - 1) / arity, level - 1))
            };
            Some((NodeLabel::new(raw), level))
        })
    }

    /// The ancestor of `node` at 1-based `level` (which must not be
    /// deeper than `node`'s own level), in O(1) index arithmetic: the
    /// in-level index of the ancestor `k` levels up is the node's
    /// in-level index divided by `arity^k`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or below `node`'s level.
    pub fn ancestor_at_level(&self, node: NodeLabel, level: u32) -> NodeLabel {
        let node_level = self.level(node);
        assert!(
            (1..=node_level).contains(&level),
            "level {level} is not an ancestor level of a level-{node_level} node"
        );
        let idx = node.raw() - self.level_offset(node_level);
        let lifted = idx / self.arity().pow(node_level - level);
        NodeLabel(self.level_offset(level) + lifted)
    }

    /// All strict ancestors of `node`, nearest first, ending at the
    /// root.
    pub fn ancestors(&self, node: NodeLabel) -> Vec<NodeLabel> {
        let mut out = Vec::new();
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// The least common ancestor of two nodes (§IV-B2: the coalescing
    /// point of two persists). The LCA of a node with itself is itself.
    ///
    /// Index arithmetic instead of the lock-step parent walk this
    /// replaced: both nodes lift to their common level by one division,
    /// and for power-of-two arities the number of remaining shared
    /// divisions falls out of the highest differing bit of the two
    /// in-level indices — O(1), which is what lets the coalescing
    /// engine compute a junction per persist without touching memory.
    pub fn lca(&self, a: NodeLabel, b: NodeLabel) -> NodeLabel {
        let (la, lb) = (self.level(a), self.level(b));
        let common = la.min(lb);
        let mut ia = (a.raw() - self.level_offset(la)) / self.arity().pow(la - common);
        let mut ib = (b.raw() - self.level_offset(lb)) / self.arity().pow(lb - common);
        let mut level = common;
        if self.arity().is_power_of_two() {
            let shift = self.arity().ilog2();
            let diff_bits = 64 - (ia ^ ib).leading_zeros();
            let lifts = diff_bits.div_ceil(shift);
            ia >>= lifts * shift;
            level -= lifts;
        } else {
            while ia != ib {
                ia /= self.arity();
                ib /= self.arity();
                level -= 1;
            }
        }
        NodeLabel(self.level_offset(level) + ia)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> BmtGeometry {
        // Fig. 1's shape: 8-ary, 4 levels (X1 root .. X4 leaves).
        BmtGeometry::new(8, 4)
    }

    #[test]
    fn walk_up_matches_update_path_with_levels() {
        let g = g();
        for page in [0, 7, 311, 511] {
            let leaf = g.leaf(page);
            let pairs: Vec<_> = g.walk_up(leaf).collect();
            let path = g.update_path(leaf);
            assert_eq!(pairs.len(), path.len());
            for (i, (label, level)) in pairs.iter().enumerate() {
                assert_eq!(*label, path[i]);
                assert_eq!(*level, g.level(*label));
            }
            assert_eq!(pairs.last(), Some(&(NodeLabel::ROOT, 1)));
        }
    }

    #[test]
    fn parent_child_inverse() {
        let g = g();
        let n = NodeLabel::new(3);
        for i in 0..8 {
            let c = g.child(n, i);
            assert_eq!(g.parent(c), Some(n));
        }
        assert_eq!(g.parent(NodeLabel::ROOT), None);
    }

    #[test]
    fn levels_match_fig1() {
        let g = g();
        assert_eq!(g.level(NodeLabel::ROOT), 1);
        assert_eq!(g.level(NodeLabel::new(1)), 2);
        assert_eq!(g.level(NodeLabel::new(8)), 2);
        assert_eq!(g.level(NodeLabel::new(9)), 3);
        assert_eq!(g.level(g.leaf(0)), 4);
        assert_eq!(g.level(g.leaf(511)), 4);
    }

    #[test]
    fn fig1_update_paths_intersect_at_root_only() {
        // Persist δ1 updates leaf X4-1 (page 0); δ2 updates X4-512
        // (page 511). Their paths share only the root.
        let g = g();
        let p1 = g.update_path(g.leaf(0));
        let p2 = g.update_path(g.leaf(511));
        assert_eq!(p1.len(), 4);
        assert_eq!(p2.len(), 4);
        let shared: Vec<_> = p1.iter().filter(|n| p2.contains(n)).collect();
        assert_eq!(shared, vec![&NodeLabel::ROOT]);
        assert_eq!(g.lca(g.leaf(0), g.leaf(511)), NodeLabel::ROOT);
    }

    #[test]
    fn fig1_nearby_leaves_share_lower_lca() {
        // The paper's example: a persist at X4-2 (page 1) and δ2 at
        // X4-512 share X3-1... actually page 1 shares its level-3
        // ancestor with page 0, not page 511. Check the text's example:
        // X4-2 and leaf X4-1 share the level-3 node.
        let g = g();
        let lca = g.lca(g.leaf(0), g.leaf(1));
        assert_eq!(g.level(lca), 3);
        // Pages in the same 64-page group share a level-2 ancestor.
        let lca2 = g.lca(g.leaf(0), g.leaf(63));
        assert_eq!(g.level(lca2), 2);
    }

    #[test]
    fn lca_of_self_is_self() {
        let g = g();
        let n = g.leaf(17);
        assert_eq!(g.lca(n, n), n);
    }

    #[test]
    fn lca_with_ancestor_is_ancestor() {
        let g = g();
        let leaf = g.leaf(100);
        let anc = g.ancestors(leaf)[1];
        assert_eq!(g.lca(leaf, anc), anc);
        assert_eq!(g.lca(anc, leaf), anc);
    }

    #[test]
    fn ancestors_end_at_root() {
        let g = g();
        let a = g.ancestors(g.leaf(5));
        assert_eq!(a.len(), 3);
        assert_eq!(*a.last().unwrap(), NodeLabel::ROOT);
    }

    #[test]
    fn ancestor_at_level_matches_parent_walk() {
        let g = g();
        for page in [0u64, 1, 63, 100, 511] {
            let leaf = g.leaf(page);
            let mut node = leaf;
            for level in (1..=g.levels()).rev() {
                assert_eq!(
                    g.ancestor_at_level(leaf, level),
                    node,
                    "page {page} level {level}"
                );
                if let Some(p) = g.parent(node) {
                    node = p;
                }
            }
        }
        // A node is its own ancestor at its own level.
        let mid = NodeLabel::new(5);
        assert_eq!(g.ancestor_at_level(mid, 2), mid);
        assert_eq!(g.ancestor_at_level(mid, 1), NodeLabel::ROOT);
    }

    #[test]
    #[should_panic(expected = "not an ancestor level")]
    fn ancestor_below_node_rejected() {
        let g = g();
        let _ = g.ancestor_at_level(NodeLabel::ROOT, 2);
    }

    #[test]
    fn update_path_into_reuses_buffer() {
        let g = g();
        let mut scratch = Vec::new();
        g.update_path_into(g.leaf(9), &mut scratch);
        assert_eq!(scratch, g.update_path(g.leaf(9)));
        let cap = scratch.capacity();
        g.update_path_into(g.leaf(200), &mut scratch);
        assert_eq!(scratch, g.update_path(g.leaf(200)));
        assert_eq!(scratch.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn non_power_of_two_arity_agrees_with_parent_walk() {
        // The lca/level fast paths branch on power-of-two arity; pin
        // the general-arity branch against first principles.
        let g = BmtGeometry::new(3, 4);
        for raw in 0..g.node_count() {
            let node = NodeLabel::new(raw);
            let mut expect = 1;
            let mut first_next = 1;
            let mut width = g.arity();
            while raw >= first_next {
                first_next += width;
                width *= g.arity();
                expect += 1;
            }
            assert_eq!(g.level(node), expect, "level of n{raw}");
        }
        let (a, b) = (g.leaf(0), g.leaf(2));
        assert_eq!(g.lca(a, b), g.parent(a).unwrap());
        assert_eq!(g.lca(g.leaf(0), g.leaf(26)), NodeLabel::ROOT);
        assert_eq!(g.lca(a, a), a);
    }

    #[test]
    #[should_panic(expected = "outside tree")]
    fn leaf_bounds_checked() {
        let _ = g().leaf(512);
    }

    #[test]
    fn display() {
        assert_eq!(NodeLabel::new(7).to_string(), "n7");
    }
}
