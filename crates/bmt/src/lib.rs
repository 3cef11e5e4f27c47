//! Bonsai Merkle Tree structures for secure NVMM.
//!
//! This crate provides the integrity-tree substrate of the paper:
//!
//! * [`BmtGeometry`] — tree shape, level arithmetic (root = level 1, as
//!   the paper's PTT numbers them), and the Gassend-style node
//!   labelling the paper adopts for coalescing (§V-C): root = 0,
//!   `parent(n) = (n-1)/arity`;
//! * [`NodeLabel`] — node identity plus ancestry, update-path and
//!   least-common-ancestor (LCA) computation;
//! * [`BonsaiTree`] — the sparse *functional* tree over split-counter
//!   blocks, with per-level default values so 16-million-leaf trees
//!   cost only their touched working set.
//!
//! Timing (who updates which node when) is the business of the engine
//! models in `plp-core`; this crate answers purely structural and
//! functional questions, including the crash-recovery check "do these
//! persisted counters hash to the persisted root?".
//!
//! # Example
//!
//! ```
//! use plp_bmt::{BmtGeometry, BonsaiTree};
//! use plp_crypto::{CounterBlock, SipKey};
//!
//! let g = BmtGeometry::new(8, 4);
//! // Two persists to nearby pages share a level-3 LCA (Fig. 1).
//! let lca = g.lca(g.leaf(0), g.leaf(1));
//! assert_eq!(g.level(lca), 3);
//!
//! let mut tree = BonsaiTree::new(g, SipKey::new(1, 2));
//! let mut cb = CounterBlock::new();
//! cb.bump(0);
//! tree.update_leaf(0, &cb);
//! assert!(tree.verify_consistent().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unimplemented, clippy::todo, clippy::exit)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

mod geometry;
mod label;
mod tree;

pub use geometry::BmtGeometry;
pub use label::NodeLabel;
pub use tree::{BonsaiTree, IntegrityError, NodeValue};
