//! A from-scratch implementation of the SipHash-2-4 keyed pseudorandom
//! function.
//!
//! SipHash is used throughout the workspace as the single cryptographic
//! primitive: the counter-mode keystream generator, the stateful MAC,
//! and the BMT node hash are all built on it. SipHash-2-4 is a real,
//! published PRF (Aumasson & Bernstein, 2012) with strong avalanche
//! behaviour at 64-bit output width, which is exactly the paper's hash
//! output size ("64B to 8B hash", Fig. 1).
//!
//! The paper treats crypto units as black boxes with a configurable
//! latency; this module provides the *functional* half so that
//! tampering, verification and crash recovery behave like the real
//! system, while the timing half lives in the engine models.

/// A 128-bit key for the SipHash PRF.
///
/// # Example
///
/// ```
/// use plp_crypto::SipKey;
///
/// let k = SipKey::new(0x0706050403020100, 0x0f0e0d0c0b0a0908);
/// assert_ne!(k.hash_bytes(b"hello"), k.hash_bytes(b"hellp"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SipKey {
    k0: u64,
    k1: u64,
}

impl SipKey {
    /// Creates a key from two 64-bit halves.
    pub const fn new(k0: u64, k1: u64) -> Self {
        SipKey { k0, k1 }
    }

    /// Derives a distinct subkey for a named domain (e.g. "mac",
    /// "encrypt", "bmt"), so the three uses of the PRF never collide.
    pub fn derive(self, domain: &str) -> SipKey {
        let d = self.hash_bytes(domain.as_bytes());
        SipKey::new(self.k0 ^ d, self.k1 ^ d.rotate_left(32))
    }

    /// Hashes a byte slice to a 64-bit tag with SipHash-2-4.
    pub fn hash_bytes(self, data: &[u8]) -> u64 {
        let mut state = SipState::new(self);
        let (chunks, rem) = data.as_chunks::<8>();
        for chunk in chunks {
            state.compress(u64::from_le_bytes(*chunk));
        }
        // Final block: remaining bytes plus the length in the top byte,
        // as the SipHash specification requires.
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        last[7] = data.len() as u8;
        state.compress(u64::from_le_bytes(last));
        state.finalize()
    }

    /// Hashes a slice of 64-bit words (a fast path for fixed-layout
    /// inputs like `(address, counter, index)` tuples).
    #[inline]
    pub fn hash_words(self, words: &[u64]) -> u64 {
        self.prefix(words).hash_tail(&[])
    }

    /// Absorbs `words` once, so that several inputs starting with them
    /// (the counter-mode pad's `(address, counter)` seed) hash without
    /// re-absorbing the shared part.
    #[inline]
    pub(crate) fn prefix(self, words: &[u64]) -> SipPrefix {
        let mut state = SipState::new(self);
        for &w in words {
            state.compress(w);
        }
        SipPrefix {
            state,
            len: words.len(),
        }
    }
}

/// A SipHash-2-4 state that has absorbed a word prefix:
/// `key.prefix(a).hash_tail(b)` equals `key.hash_words(a ++ b)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SipPrefix {
    state: SipState,
    /// Words absorbed so far.
    len: usize,
}

impl SipPrefix {
    /// Absorbs `tail` and finishes the hash of the whole input.
    #[inline]
    pub(crate) fn hash_tail(self, tail: &[u64]) -> u64 {
        let mut state = self.state;
        for &w in tail {
            state.compress(w);
        }
        // Length block, mirroring the byte variant.
        state.compress(((self.len + tail.len()) as u64) << 56);
        state.finalize()
    }
}

/// The four-lane SipHash internal state.
#[derive(Debug, Clone, Copy)]
struct SipState {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl SipState {
    fn new(key: SipKey) -> Self {
        SipState {
            v0: key.k0 ^ 0x736f6d6570736575,
            v1: key.k1 ^ 0x646f72616e646f6d,
            v2: key.k0 ^ 0x6c7967656e657261,
            v3: key.k1 ^ 0x7465646279746573,
        }
    }

    #[inline]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.round();
        self.v0 ^= m;
    }

    fn finalize(mut self) -> u64 {
        self.v2 ^= 0xff;
        for _ in 0..4 {
            self.round();
        }
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference key from the SipHash paper: 000102...0f.
    fn ref_key() -> SipKey {
        SipKey::new(0x0706050403020100, 0x0f0e0d0c0b0a0908)
    }

    #[test]
    fn matches_reference_vector_empty() {
        // SipHash-2-4 official test vector: key 00..0f, empty input.
        assert_eq!(ref_key().hash_bytes(&[]), 0x726fdb47dd0e0e31);
    }

    #[test]
    fn matches_reference_vector_incremental() {
        // Official vectors for inputs 00, 00 01, 00 01 02, ...
        let expected: [u64; 8] = [
            0x74f839c593dc67fd,
            0x0d6c8009d9a94f5a,
            0x85676696d7fb7e2d,
            0xcf2794e0277187b7,
            0x18765564cd99a68d,
            0xcbc9466e58fee3ce,
            0xab0200f58b01d137,
            0x93f5f5799a932462,
        ];
        let data: Vec<u8> = (0u8..8).collect();
        for (len, want) in expected.iter().enumerate() {
            assert_eq!(
                ref_key().hash_bytes(&data[..=len.min(7)][..len + 1]),
                *want,
                "vector at length {}",
                len + 1
            );
        }
    }

    #[test]
    fn longer_reference_vector() {
        // 15-byte input vector from the reference implementation.
        let data: Vec<u8> = (0u8..15).collect();
        assert_eq!(ref_key().hash_bytes(&data), 0xa129ca6149be45e5);
    }

    #[test]
    fn key_sensitivity() {
        let a = SipKey::new(1, 2).hash_bytes(b"block");
        let b = SipKey::new(1, 3).hash_bytes(b"block");
        assert_ne!(a, b);
    }

    #[test]
    fn derive_separates_domains() {
        let k = SipKey::new(42, 43);
        let mac = k.derive("mac");
        let enc = k.derive("encrypt");
        assert_ne!(mac, enc);
        assert_ne!(mac.hash_words(&[7]), enc.hash_words(&[7]));
        // Derivation is deterministic.
        assert_eq!(k.derive("mac"), mac);
    }

    #[test]
    fn words_and_length_matter() {
        let k = ref_key();
        assert_ne!(k.hash_words(&[0]), k.hash_words(&[0, 0]));
        assert_ne!(k.hash_words(&[1, 2]), k.hash_words(&[2, 1]));
    }

    #[test]
    fn prefix_then_tail_equals_hash_words() {
        let k = ref_key();
        let mut rng = 0x5eed;
        for len in 0..=10 {
            let words: Vec<u64> = (0..len).map(|_| plp_events::splitmix64(&mut rng)).collect();
            let whole = k.hash_words(&words);
            for split in 0..=len {
                let (head, tail) = words.split_at(split);
                assert_eq!(
                    k.prefix(head).hash_tail(tail),
                    whole,
                    "len {len}, split {split}"
                );
            }
        }
    }

    #[test]
    fn avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output
        // bits; require at least 16 of 64 as a loose sanity bound.
        let k = ref_key();
        let base = k.hash_words(&[0xdeadbeef, 77]);
        for bit in 0..64 {
            let flipped = k.hash_words(&[0xdeadbeefu64 ^ (1 << bit), 77]);
            assert!(
                (base ^ flipped).count_ones() >= 16,
                "weak avalanche at bit {bit}"
            );
        }
    }
}
