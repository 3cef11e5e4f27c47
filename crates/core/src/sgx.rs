//! The Intel SGX counter-tree cost model (§V-D).
//!
//! SGX's integrity tree is a *counter tree*: computing a child's MAC
//! requires the parent counter's value, so — unlike a Bonsai Merkle
//! Tree, where only the root must persist — crash recovery requires
//! persisting **every node on the update path**, leaf to root.
//! Invariants 1 and 2 therefore expand to cover the whole path, and
//! the number of NVM persists per store scales with the tree height.
//!
//! The paper stops at this observation ("we focus only on BMT due to
//! the extra cost incurred by the counter tree"); this module makes
//! the comparison quantitative so the design choice is reproducible.

use plp_bmt::BmtGeometry;

/// Per-persist cost comparison between a BMT and an SGX-style counter
/// tree of the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreePersistCost {
    /// MAC computations on the update path (equal for both trees).
    pub path_updates: u64,
    /// 64-byte NVM persists required for crash recovery.
    pub nvm_persists: u64,
}

/// Cost of one persist under a Bonsai Merkle Tree: the whole path is
/// *updated*, but only the leaf's counter block (and the data/MAC
/// blocks, counted by the caller) must persist — the root lives in an
/// on-chip persistent register and interior nodes are reconstructible.
pub fn bmt_persist_cost(geometry: BmtGeometry) -> TreePersistCost {
    TreePersistCost {
        path_updates: geometry.levels() as u64,
        nvm_persists: 1,
    }
}

/// Cost of one persist under an SGX-style counter tree: every node on
/// the update path must persist for the post-crash MAC chain to
/// verify.
pub fn sgx_persist_cost(geometry: BmtGeometry) -> TreePersistCost {
    TreePersistCost {
        path_updates: geometry.levels() as u64,
        nvm_persists: geometry.levels() as u64,
    }
}

/// The write-amplification factor of the SGX counter tree relative to
/// a BMT of the same shape — how many times more NVM persists each
/// store needs.
pub fn sgx_write_amplification(geometry: BmtGeometry) -> f64 {
    sgx_persist_cost(geometry).nvm_persists as f64 / bmt_persist_cost(geometry).nvm_persists as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_amplification_is_nine() {
        let g = BmtGeometry::new(8, 9);
        assert_eq!(bmt_persist_cost(g).nvm_persists, 1);
        assert_eq!(sgx_persist_cost(g).nvm_persists, 9);
        assert!((sgx_write_amplification(g) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn update_work_is_identical() {
        let g = BmtGeometry::new(8, 9);
        assert_eq!(
            bmt_persist_cost(g).path_updates,
            sgx_persist_cost(g).path_updates
        );
    }

    #[test]
    fn amplification_grows_with_memory() {
        let small = BmtGeometry::for_memory(1 << 30, 8);
        let large = BmtGeometry::for_memory(1 << 40, 8);
        assert!(sgx_write_amplification(large) > sgx_write_amplification(small));
    }
}
