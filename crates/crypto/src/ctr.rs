//! Counter-mode memory encryption.
//!
//! The engine encrypts a 64-byte cache block by XOR-ing it with a
//! one-time pad derived from the key, the block *address* (spatial
//! uniqueness) and the block's *counter* (temporal uniqueness), exactly
//! the seed structure of §II of the paper. Decryption is the same XOR,
//! so `decrypt(encrypt(p)) == p` whenever the same `(address, counter)`
//! seed is used — and produces garbage otherwise, which is what the
//! crash-recovery tests rely on.

use plp_events::addr::{BlockAddr, CACHE_BLOCK_SIZE};

use crate::{CounterValue, SipKey};

/// A 64-byte memory block (plaintext or ciphertext).
///
/// # Example
///
/// ```
/// use plp_crypto::DataBlock;
///
/// let b = DataBlock::from_fill(0xab);
/// assert_eq!(b.as_bytes()[63], 0xab);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataBlock {
    bytes: [u8; CACHE_BLOCK_SIZE],
}

impl Default for DataBlock {
    fn default() -> Self {
        DataBlock::zeroed()
    }
}

impl DataBlock {
    /// An all-zero block.
    pub const fn zeroed() -> Self {
        DataBlock {
            bytes: [0; CACHE_BLOCK_SIZE],
        }
    }

    /// A block filled with one byte value.
    pub const fn from_fill(fill: u8) -> Self {
        DataBlock {
            bytes: [fill; CACHE_BLOCK_SIZE],
        }
    }

    /// A block from raw bytes.
    pub const fn from_bytes(bytes: [u8; CACHE_BLOCK_SIZE]) -> Self {
        DataBlock { bytes }
    }

    /// A block whose first 8 bytes hold `value` little-endian; handy for
    /// writing recognizable sentinels in tests and examples.
    pub fn from_u64(value: u64) -> Self {
        let mut bytes = [0; CACHE_BLOCK_SIZE];
        bytes[..8].copy_from_slice(&value.to_le_bytes());
        DataBlock { bytes }
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; CACHE_BLOCK_SIZE] {
        &self.bytes
    }

    /// The first 8 bytes as a little-endian word.
    pub fn as_u64(&self) -> u64 {
        let (words, _) = self.bytes.as_chunks::<8>();
        u64::from_le_bytes(words[0])
    }

    /// The block content as eight 64-bit words for hashing.
    pub fn words(&self) -> [u64; CACHE_BLOCK_SIZE / 8] {
        let mut words = [0u64; CACHE_BLOCK_SIZE / 8];
        for (i, chunk) in self.bytes.as_chunks::<8>().0.iter().enumerate() {
            words[i] = u64::from_le_bytes(*chunk);
        }
        words
    }
}

/// The counter-mode encryption engine.
///
/// # Example
///
/// ```
/// use plp_crypto::{CounterValue, CtrEngine, DataBlock, SipKey};
/// use plp_events::addr::BlockAddr;
///
/// let engine = CtrEngine::new(SipKey::new(1, 2));
/// let addr = BlockAddr::new(100);
/// let ctr = CounterValue::new(0, 1);
/// let plain = DataBlock::from_u64(0xfeed);
///
/// let cipher = engine.encrypt(plain, addr, ctr);
/// assert_ne!(cipher, plain);
/// assert_eq!(engine.decrypt(cipher, addr, ctr), plain);
/// // Decrypting with a stale counter does not recover the plaintext.
/// assert_ne!(engine.decrypt(cipher, addr, CounterValue::new(0, 0)), plain);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrEngine {
    key: SipKey,
}

impl CtrEngine {
    /// Creates an engine, deriving an encryption-domain subkey.
    pub fn new(master: SipKey) -> Self {
        CtrEngine {
            key: master.derive("encrypt"),
        }
    }

    /// Pad word `i` is `hash_words(&[addr, counter, i])`; the seed is
    /// absorbed once and shared by all eight words.
    fn pad(&self, addr: BlockAddr, counter: CounterValue) -> [u8; CACHE_BLOCK_SIZE] {
        let seed = self.key.prefix(&[addr.index(), counter.as_word()]);
        let mut pad = [0u8; CACHE_BLOCK_SIZE];
        for (i, chunk) in pad.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&seed.hash_tail(&[i as u64]).to_le_bytes());
        }
        pad
    }

    /// Encrypts a plaintext block with the seed `(address, counter)`.
    pub fn encrypt(&self, plain: DataBlock, addr: BlockAddr, counter: CounterValue) -> DataBlock {
        self.xor(plain, addr, counter)
    }

    /// Decrypts a ciphertext block with the seed `(address, counter)`.
    pub fn decrypt(&self, cipher: DataBlock, addr: BlockAddr, counter: CounterValue) -> DataBlock {
        self.xor(cipher, addr, counter)
    }

    fn xor(&self, block: DataBlock, addr: BlockAddr, counter: CounterValue) -> DataBlock {
        let pad = self.pad(addr, counter);
        let mut out = *block.as_bytes();
        for (b, p) in out.iter_mut().zip(pad.iter()) {
            *b ^= p;
        }
        DataBlock::from_bytes(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CtrEngine {
        CtrEngine::new(SipKey::new(0x1234, 0x5678))
    }

    #[test]
    fn round_trip() {
        let e = engine();
        let p = DataBlock::from_u64(0xdead_beef);
        let a = BlockAddr::new(42);
        let c = CounterValue::new(3, 9);
        assert_eq!(e.decrypt(e.encrypt(p, a, c), a, c), p);
    }

    #[test]
    fn pad_is_spatially_unique() {
        let e = engine();
        let p = DataBlock::zeroed();
        let c = CounterValue::new(0, 1);
        let c1 = e.encrypt(p, BlockAddr::new(1), c);
        let c2 = e.encrypt(p, BlockAddr::new(2), c);
        assert_ne!(c1, c2, "same pad reused across addresses");
    }

    #[test]
    fn pad_is_temporally_unique() {
        let e = engine();
        let p = DataBlock::zeroed();
        let a = BlockAddr::new(1);
        let c1 = e.encrypt(p, a, CounterValue::new(0, 1));
        let c2 = e.encrypt(p, a, CounterValue::new(0, 2));
        let c3 = e.encrypt(p, a, CounterValue::new(1, 1));
        assert_ne!(c1, c2, "same pad reused across minor counters");
        assert_ne!(c1, c3, "same pad reused across major counters");
    }

    #[test]
    fn wrong_counter_garbles() {
        let e = engine();
        let p = DataBlock::from_fill(0x5a);
        let a = BlockAddr::new(7);
        let cipher = e.encrypt(p, a, CounterValue::new(0, 5));
        assert_ne!(e.decrypt(cipher, a, CounterValue::new(0, 4)), p);
    }

    #[test]
    fn data_block_helpers() {
        let b = DataBlock::from_u64(77);
        assert_eq!(b.as_u64(), 77);
        assert_eq!(b.words()[0], 77);
        assert_eq!(b.words()[1], 0);
        assert_eq!(DataBlock::default(), DataBlock::zeroed());
        assert_eq!(DataBlock::from_fill(1).as_bytes(), &[1u8; 64]);
    }

    #[test]
    fn ciphertext_matches_golden_vector() {
        // Captured from the per-word `hash_words(&[addr, counter, i])`
        // pad; any change to the keystream moves these words.
        let bytes: [u8; CACHE_BLOCK_SIZE] = std::array::from_fn(|i| i as u8);
        let cipher = engine().encrypt(
            DataBlock::from_bytes(bytes),
            BlockAddr::new(0x1234_5678),
            CounterValue::new(7, 42),
        );
        assert_eq!(
            cipher.words(),
            [
                0x9ba0_73e1_4cf6_6832,
                0xada1_9764_26a9_4678,
                0xc391_311a_7a04_1191,
                0xbd32_5aa4_ed6b_64a6,
                0x2840_b76a_0d72_8e5a,
                0x04a3_07a9_bae1_0ce1,
                0x2e14_d0d6_7ac6_4a92,
                0xeade_b3fb_e513_51d5,
            ]
        );
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        // The pad is never all-zero for a realistic key.
        let e = engine();
        let p = DataBlock::from_fill(0);
        let c = e.encrypt(p, BlockAddr::new(0), CounterValue::new(0, 0));
        assert_ne!(c, p);
    }
}
