//! A Fibonacci-multiply hasher for the simulator's integer-keyed maps:
//! the workspace's one integer-key hasher.
//!
//! The persist path does several map operations per store (counter
//! blocks, architectural plaintexts, the sanitizer's WAW tracker, the
//! NVM write-combining queue), and recovery does several per replayed
//! frame (the data, MAC and counter maps of `plp_core::PersistImage`,
//! and the per-id component masks of `plp_core::replay_image`). The
//! standard library's default SipHash was the largest non-crypto cost
//! on both paths. The keys involved (page indices, block addresses,
//! node labels, persist ids) are integers that a single multiply by the
//! 64-bit golden-ratio constant mixes well enough.
//!
//! # Iteration order
//!
//! Iteration follows the hash, so no output may depend on it. The
//! simulator's maps are only read and written by key, apart from the
//! NVM write-combining trim, which keeps entries by a predicate.
//! Recovery's maps are iterated in these places, and each one is
//! order-free:
//!
//! * `recover_image`'s writeback sorts the pages and the addresses of
//!   a `PersistImage` before it writes a frame;
//! * each `FaultInjector` site sorts the keys before it draws a victim;
//! * `PathTree::from_counters` and `BonsaiTree::from_counters` build
//!   the same tree from the same set of `(page, block)` pairs in any
//!   order, and a counter map holds one block per page;
//! * `replay_image` folds its component masks into sorted sets.
//!
//! # Keys from files
//!
//! Keys replayed from a device image are file contents, and frame
//! checksums are FNV-1a, so anyone can forge them. The multiply hasher
//! buys speed, not collision resistance: a forged image whose
//! addresses all collide makes replay slow (each insert scans a long
//! probe sequence), but it cannot make it panic or decode a frame
//! wrongly, because a collision changes where an entry is stored, not
//! which entry a key finds.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// One Fibonacci multiply per written word.
#[derive(Debug, Default)]
pub struct FibHasher(u64);

impl std::hash::Hasher for FibHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` keyed by well-mixed integers, hashed with one multiply.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FibHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_map() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 0x1000, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 0x1000)), Some(&i));
        }
        assert_eq!(m.remove(&0), Some(0));
        assert!(!m.contains_key(&0));
    }

    #[test]
    fn byte_and_word_paths_agree_on_distribution() {
        // Not a correctness requirement, just a sanity floor: nearby
        // keys must not all collide into one bucket's hash.
        use std::hash::{Hash, Hasher};
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            let mut h = FibHasher::default();
            i.hash(&mut h);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 64, "sequential keys collided");
    }
}
