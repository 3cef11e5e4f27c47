//! A Fibonacci-multiply hasher for the simulator's hot-path maps: the
//! workspace's one integer-key hasher.
//!
//! The persist path does several map operations per store (counter
//! blocks, architectural plaintexts, the sanitizer's WAW tracker, the
//! NVM write-combining queue), and the standard library's default
//! SipHash is the single largest non-crypto cost on that path. The keys
//! involved — page indices, block addresses, node labels — are already
//! well-distributed integers, so a single multiply by the 64-bit
//! golden-ratio constant mixes them adequately. These maps are never
//! iterated for user-visible output, so the hasher swap cannot perturb
//! the simulator's byte-deterministic stdout.

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
