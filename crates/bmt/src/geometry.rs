//! Tree geometry: arity, level count and label arithmetic bases.

use plp_events::addr::PAGE_SIZE;
use serde::{Deserialize, Serialize};

/// The shape of a Bonsai Merkle Tree: a complete `arity`-ary tree with
/// `levels` node levels.
///
/// Levels are numbered the way the paper's PTT does (§V, Fig. 6):
/// **level 1 is the root**, level `levels` is the leaves. Each leaf
/// covers one 4 KiB encryption page's counter block.
///
/// # Example
///
/// ```
/// use plp_bmt::BmtGeometry;
///
/// // The paper's default: 8-ary, 9 levels.
/// let g = BmtGeometry::new(8, 9);
/// assert_eq!(g.leaf_count(), 8u64.pow(8));
/// assert_eq!(g.levels(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BmtGeometry {
    arity: u64,
    levels: u32,
}

impl BmtGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if [`BmtGeometry::try_new`] rejects the shape.
    pub fn new(arity: u64, levels: u32) -> Self {
        match Self::try_new(arity, levels) {
            Some(geometry) => geometry,
            // lint: allow(no-panic-lib) documented constructor validation of a static configuration
            None => panic!("no tree has arity {arity} and {levels} levels"),
        }
    }

    /// Creates a geometry, or `None` when no tree has this shape: an
    /// arity below 2, no levels, or a tree too large for 64-bit node
    /// arithmetic. The form for shapes read from untrusted bytes, such
    /// as a device-image header.
    pub fn try_new(arity: u64, levels: u32) -> Option<Self> {
        // `node_count` computes arity^levels before dividing by
        // arity - 1, so that power must fit.
        let fits = arity >= 2 && levels >= 1 && arity.checked_pow(levels).is_some();
        fits.then_some(BmtGeometry { arity, levels })
    }

    /// The geometry covering `memory_bytes` of protected memory with
    /// the given arity: the smallest complete tree whose leaves cover
    /// all encryption pages.
    ///
    /// Note the paper quotes *9* levels for its 8 GB memory; a complete
    /// 8-ary tree over 8 GB/4 KiB = 2²¹ pages needs 8 node levels, so
    /// the paper evidently counts one more stage (the counter-block MAC
    /// itself). Use [`BmtGeometry::new`]`(8, 9)` to match the paper's
    /// stated update-path length, or this constructor for the minimal
    /// covering tree.
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is zero or `arity < 2`.
    pub fn for_memory(memory_bytes: u64, arity: u64) -> Self {
        assert!(memory_bytes > 0, "memory size must be positive");
        let pages = memory_bytes.div_ceil(PAGE_SIZE as u64).max(1);
        let mut levels = 1;
        let mut leaves = 1u64;
        while leaves < pages {
            leaves = leaves.saturating_mul(arity);
            levels += 1;
        }
        BmtGeometry::new(arity, levels)
    }

    /// The tree arity.
    pub fn arity(&self) -> u64 {
        self.arity
    }

    /// Number of node levels (root = level 1, leaves = level
    /// [`BmtGeometry::levels`]).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// [`BmtGeometry::levels`] as a container length.
    pub fn levels_usize(&self) -> usize {
        self.levels as usize
    }

    /// [`BmtGeometry::arity`] as a container length. Arities large
    /// enough to truncate on a 32-bit target are rejected by
    /// [`BmtGeometry::new`]'s node-count overflow check long before.
    pub fn arity_usize(&self) -> usize {
        // lint: allow(narrowing-cast) arity is validated small by the constructor
        self.arity as usize
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> u64 {
        self.arity.pow(self.levels - 1)
    }

    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> u64 {
        // (arity^levels - 1) / (arity - 1)
        (self.leaf_count() * self.arity - 1) / (self.arity - 1)
    }

    /// First label (see [`crate::NodeLabel`]) at 1-based `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds [`BmtGeometry::levels`].
    pub fn level_offset(&self, level: u32) -> u64 {
        assert!(
            (1..=self.levels).contains(&level),
            "level {level} out of 1..={}",
            self.levels
        );
        (self.arity.pow(level - 1) - 1) / (self.arity - 1)
    }

    /// Number of nodes at 1-based `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_width(&self, level: u32) -> u64 {
        assert!(
            (1..=self.levels).contains(&level),
            "level {level} out of 1..={}",
            self.levels
        );
        self.arity.pow(level - 1)
    }

    /// The per-level container slot for 1-based `level` — the index
    /// into level-major arrays such as the tree's default table.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `level` is out of range.
    pub fn level_slot(&self, level: u32) -> usize {
        debug_assert!(
            (1..=self.levels).contains(&level),
            "level {level} out of 1..={}",
            self.levels
        );
        (level - 1) as usize
    }

    /// Bytes of memory protected by this tree (leaves × page size).
    pub fn covered_bytes(&self) -> u64 {
        self.leaf_count() * PAGE_SIZE as u64
    }
}

impl Default for BmtGeometry {
    /// The paper's default tree: 8-ary, 9 levels.
    fn default() -> Self {
        BmtGeometry::new(8, 9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default() {
        let g = BmtGeometry::default();
        assert_eq!(g.arity(), 8);
        assert_eq!(g.levels(), 9);
        assert_eq!(g.leaf_count(), 16_777_216);
    }

    #[test]
    fn node_counts() {
        let g = BmtGeometry::new(2, 3);
        assert_eq!(g.leaf_count(), 4);
        assert_eq!(g.node_count(), 7);
        let g8 = BmtGeometry::new(8, 2);
        assert_eq!(g8.node_count(), 9);
    }

    #[test]
    fn level_offsets_and_widths() {
        let g = BmtGeometry::new(8, 4);
        assert_eq!(g.level_offset(1), 0);
        assert_eq!(g.level_offset(2), 1);
        assert_eq!(g.level_offset(3), 9);
        assert_eq!(g.level_offset(4), 73);
        assert_eq!(g.level_width(1), 1);
        assert_eq!(g.level_width(4), 512);
    }

    #[test]
    fn for_memory_covers() {
        // 8 GB at 4 KiB pages = 2^21 leaves -> 8 node levels for arity 8.
        let g = BmtGeometry::for_memory(8 << 30, 8);
        assert_eq!(g.levels(), 8);
        assert!(g.covered_bytes() >= 8 << 30);
        // Tiny memory: single page, single-node tree.
        let t = BmtGeometry::for_memory(100, 8);
        assert_eq!(t.levels(), 1);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_unary() {
        let _ = BmtGeometry::new(1, 3);
    }

    #[test]
    fn try_new_rejects_instead_of_panicking() {
        assert_eq!(BmtGeometry::try_new(1, 3), None);
        assert_eq!(BmtGeometry::try_new(8, 0), None);
        assert_eq!(BmtGeometry::try_new(65_536, 16), None);
        assert_eq!(BmtGeometry::try_new(8, 9), Some(BmtGeometry::new(8, 9)));
        // 8^12 nodes is a 78 GB arena, but a valid shape.
        assert!(BmtGeometry::try_new(8, 12).is_some());
        // 2^64 overflows `node_count`'s intermediate; 2^63 fits.
        assert_eq!(BmtGeometry::try_new(2, 64), None);
        assert!(BmtGeometry::try_new(2, 63).is_some());
    }

    #[test]
    #[should_panic(expected = "arity 65536 and 16 levels")]
    fn new_panics_on_overflow() {
        let _ = BmtGeometry::new(65_536, 16);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn level_bounds_checked() {
        let _ = BmtGeometry::new(8, 3).level_offset(4);
    }
}
