//! Stateful message authentication codes.
//!
//! Following Rogers et al. (BMT) as described in §II of the paper, each
//! data block is protected by a *stateful* MAC computed over the
//! ciphertext, the block address and the encryption counter:
//! `M = MAC_K(C, A, γ)`. Because the counter is an input and the counter
//! itself is freshness-protected by the BMT, the MAC detects spoofing
//! and splicing while the tree detects replay — so the tree only needs
//! to cover counters.

use plp_events::addr::BlockAddr;

use crate::{CounterValue, DataBlock, SipKey};

/// A 64-bit MAC tag.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacTag(u64);

impl MacTag {
    /// Creates a tag from its raw value (for storage models).
    pub const fn from_raw(raw: u64) -> Self {
        MacTag(raw)
    }

    /// The raw tag value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for MacTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mac:{:016x}", self.0)
    }
}

/// The stateful-MAC engine.
///
/// # Example
///
/// ```
/// use plp_crypto::{CounterValue, DataBlock, MacEngine, SipKey};
/// use plp_events::addr::BlockAddr;
///
/// let mac = MacEngine::new(SipKey::new(7, 8));
/// let c = DataBlock::from_u64(1);
/// let a = BlockAddr::new(2);
/// let g = CounterValue::new(0, 3);
///
/// let tag = mac.compute(&c, a, g);
/// assert!(mac.verify(&c, a, g, tag));
/// // Any input change invalidates the tag.
/// assert!(!mac.verify(&c, BlockAddr::new(9), g, tag));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacEngine {
    key: SipKey,
}

impl MacEngine {
    /// Creates an engine, deriving a MAC-domain subkey.
    pub fn new(master: SipKey) -> Self {
        MacEngine {
            key: master.derive("mac"),
        }
    }

    /// Computes the stateful MAC over `(ciphertext, address, counter)`.
    pub fn compute(&self, cipher: &DataBlock, addr: BlockAddr, counter: CounterValue) -> MacTag {
        // `hash_words` over `[addr, counter, cipher words...]`, without
        // gathering the ten words first.
        let seed = self.key.prefix(&[addr.index(), counter.as_word()]);
        MacTag(seed.hash_tail(&cipher.words()))
    }

    /// Verifies a stored tag against recomputation.
    pub fn verify(
        &self,
        cipher: &DataBlock,
        addr: BlockAddr,
        counter: CounterValue,
        stored: MacTag,
    ) -> bool {
        self.compute(cipher, addr, counter) == stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MacEngine, DataBlock, BlockAddr, CounterValue) {
        (
            MacEngine::new(SipKey::new(11, 22)),
            DataBlock::from_u64(0xabcd),
            BlockAddr::new(5),
            CounterValue::new(2, 7),
        )
    }

    #[test]
    fn verify_accepts_genuine() {
        let (m, c, a, g) = setup();
        let tag = m.compute(&c, a, g);
        assert!(m.verify(&c, a, g, tag));
    }

    #[test]
    fn detects_data_tamper() {
        let (m, c, a, g) = setup();
        let tag = m.compute(&c, a, g);
        let mut bytes = *c.as_bytes();
        bytes[0] ^= 1;
        assert!(!m.verify(&DataBlock::from_bytes(bytes), a, g, tag));
    }

    #[test]
    fn detects_splicing() {
        // Moving a (ciphertext, tag) pair to a different address fails:
        // the address is a MAC input.
        let (m, c, a, g) = setup();
        let tag = m.compute(&c, a, g);
        assert!(!m.verify(&c, BlockAddr::new(6), g, tag));
    }

    #[test]
    fn detects_counter_replay_at_mac_level() {
        // Replaying an old counter fails MAC verification when the MAC
        // was computed with the new counter.
        let (m, c, a, _) = setup();
        let tag_new = m.compute(&c, a, CounterValue::new(2, 8));
        assert!(!m.verify(&c, a, CounterValue::new(2, 7), tag_new));
    }

    #[test]
    fn detects_tag_tamper() {
        let (m, c, a, g) = setup();
        let tag = m.compute(&c, a, g);
        let forged = MacTag::from_raw(tag.raw() ^ 1);
        assert!(!m.verify(&c, a, g, forged));
    }

    #[test]
    fn tag_display_and_raw() {
        let t = MacTag::from_raw(0xdead);
        assert_eq!(t.raw(), 0xdead);
        assert_eq!(t.to_string(), "mac:000000000000dead");
    }

    #[test]
    fn tag_matches_golden_vector() {
        // Captured from `hash_words` over the ten words
        // `[addr, counter, cipher words...]`.
        let (m, c, a, g) = setup();
        assert_eq!(m.compute(&c, a, g).raw(), 0xd639_f861_69ba_4352);
        let bytes: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(37));
        let tag = m.compute(
            &DataBlock::from_bytes(bytes),
            BlockAddr::new(0x1234_5678),
            g,
        );
        assert_eq!(tag.raw(), 0x98b0_2f17_1d8a_95d4);
    }

    #[test]
    fn different_keys_different_tags() {
        let (_, c, a, g) = setup();
        let m1 = MacEngine::new(SipKey::new(1, 1));
        let m2 = MacEngine::new(SipKey::new(1, 2));
        assert_ne!(m1.compute(&c, a, g), m2.compute(&c, a, g));
    }
}
