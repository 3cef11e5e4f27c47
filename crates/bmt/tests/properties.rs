//! Property-based tests for BMT structure and the WAW-safety argument.

use plp_bmt::{BmtGeometry, BonsaiTree, NodeLabel, PathTree};
use plp_crypto::{CounterBlock, SipKey};
use proptest::prelude::*;

fn key() -> SipKey {
    SipKey::new(0xa5a5, 0x5a5a)
}

/// An arbitrary small geometry (kept small so exhaustive walks stay
/// cheap) and a leaf index within it.
fn arb_geometry() -> impl Strategy<Value = BmtGeometry> {
    (2u64..=8, 2u32..=5).prop_map(|(arity, levels)| BmtGeometry::new(arity, levels))
}

proptest! {
    #[test]
    fn parent_child_round_trip(g in arb_geometry(), raw in 0u64..500) {
        let node = NodeLabel::new(raw % g.node_count());
        if let Some(p) = g.parent(node) {
            // node is one of p's children
            let found = (0..g.arity()).any(|i| g.child(p, i) == node);
            prop_assert!(found);
            prop_assert_eq!(g.level(p) + 1, g.level(node));
        } else {
            prop_assert!(node.is_root());
        }
    }

    #[test]
    fn update_path_levels_descend(g in arb_geometry(), page_seed in any::<u64>()) {
        let page = page_seed % g.leaf_count();
        let path = g.update_path(g.leaf(page));
        prop_assert_eq!(path.len() as u32, g.levels());
        for (i, node) in path.iter().enumerate() {
            prop_assert_eq!(g.level(*node), g.levels() - i as u32);
        }
    }

    #[test]
    fn lca_is_common_and_lowest(g in arb_geometry(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = g.leaf(s1 % g.leaf_count());
        let b = g.leaf(s2 % g.leaf_count());
        let lca = g.lca(a, b);
        prop_assert_eq!(g.lca(b, a), lca, "LCA must be commutative");

        let anc_a: Vec<_> = std::iter::once(a).chain(g.ancestors(a)).collect();
        let anc_b: Vec<_> = std::iter::once(b).chain(g.ancestors(b)).collect();
        prop_assert!(anc_a.contains(&lca));
        prop_assert!(anc_b.contains(&lca));
        // Lowest: no common ancestor has a deeper level.
        for n in &anc_a {
            if anc_b.contains(n) {
                prop_assert!(g.level(*n) <= g.level(lca));
            }
        }
    }

    #[test]
    fn root_invariant_under_epoch_permutation(
        updates in prop::collection::vec((0u64..64, 0usize..64), 1..12),
        swap_seed in any::<u64>(),
    ) {
        // Apply the same set of (page, slot-bump) updates in two
        // different orders; when the last write per page is identical,
        // the root must be identical (§IV-B1). We make per-page counter
        // state explicit so both orders see identical final counters.
        let g = BmtGeometry::new(8, 3);
        let mut counters: std::collections::HashMap<u64, CounterBlock> =
            std::collections::HashMap::new();
        let mut final_state: Vec<(u64, CounterBlock)> = Vec::new();
        for (page, slot) in &updates {
            let cb = counters.entry(*page % g.leaf_count()).or_default();
            cb.bump(*slot);
        }
        for (page, cb) in &counters {
            final_state.push((*page, cb.clone()));
        }

        let mut order1 = final_state.clone();
        order1.sort_by_key(|(p, _)| *p);
        let mut order2 = order1.clone();
        // Deterministic pseudo-shuffle.
        let n = order2.len();
        for i in 0..n {
            let j = (swap_seed as usize + i * 7) % n;
            order2.swap(i, j);
        }

        let mut t1 = BonsaiTree::from_counters(g, key(), order1.iter().map(|(p, c)| (*p, c)));
        let mut t2 = BonsaiTree::from_counters(g, key(), order2.iter().map(|(p, c)| (*p, c)));
        prop_assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn incremental_tree_stays_consistent(
        updates in prop::collection::vec((0u64..512, 0usize..64), 1..20),
    ) {
        let g = BmtGeometry::new(8, 4);
        let mut tree = BonsaiTree::new(g, key());
        let mut counters: std::collections::HashMap<u64, CounterBlock> =
            std::collections::HashMap::new();
        for (page, slot) in updates {
            let cb = counters.entry(page).or_default();
            cb.bump(slot);
            tree.update_leaf(page, cb);
            prop_assert!(tree.verify_consistent().is_ok());
        }
        let rebuilt = PathTree::from_counters(g, key(), counters.iter().map(|(p, c)| (*p, c)));
        prop_assert_eq!(rebuilt.root(), tree.root());
    }

    #[test]
    fn single_node_tamper_breaks_verification(
        pages in prop::collection::vec(0u64..512, 1..8),
        tamper_choice in any::<u64>(),
    ) {
        let g = BmtGeometry::new(8, 4);
        let mut tree = BonsaiTree::new(g, key());
        let mut counters: std::collections::HashMap<u64, CounterBlock> =
            std::collections::HashMap::new();
        for page in &pages {
            let cb = counters.entry(*page).or_default();
            cb.bump(0);
            tree.update_leaf(*page, cb);
        }
        // Tamper with a random *internal* node on some update path.
        let victim_page = pages[(tamper_choice % pages.len() as u64) as usize];
        let path = g.update_path(g.leaf(victim_page));
        let internal = path[1 + (tamper_choice as usize % (path.len() - 1))
            .min(path.len() - 2)];
        let value = tree.node_value(internal);
        tree.set_node(internal, value ^ 0xdead);
        prop_assert!(tree.verify_consistent().is_err());
    }
}
