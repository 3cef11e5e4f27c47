//! Split-counter organization (Yan et al., as adopted by the paper).
//!
//! One 64-byte counter block covers one 4 KiB encryption page: a 64-bit
//! per-page *major* counter co-located with 64 per-block 7-bit *minor*
//! counters (Fig. 1 of the paper). A block's encryption counter γ is the
//! concatenation `(major, minor)`. When a minor counter saturates, the
//! major counter increments, every minor resets, and the whole page must
//! be re-encrypted — the classic split-counter overflow cost.

use plp_events::addr::{BlockAddr, BLOCKS_PER_PAGE, CACHE_BLOCK_SIZE};

/// Maximum value of a 7-bit minor counter.
pub const MINOR_MAX: u8 = 127;

/// The encryption counter γ for one block: the concatenation of its
/// page's major counter and its own minor counter.
///
/// # Example
///
/// ```
/// use plp_crypto::CounterValue;
///
/// let c = CounterValue::new(3, 17);
/// assert_eq!(c.major(), 3);
/// assert_eq!(c.minor(), 17);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterValue {
    major: u64,
    minor: u8,
}

impl CounterValue {
    /// Creates a counter value.
    ///
    /// # Panics
    ///
    /// Panics if `minor` exceeds [`MINOR_MAX`].
    pub fn new(major: u64, minor: u8) -> Self {
        assert!(minor <= MINOR_MAX, "minor counter is 7 bits");
        CounterValue { major, minor }
    }

    /// The page-level major counter.
    pub fn major(self) -> u64 {
        self.major
    }

    /// The block-level minor counter.
    pub fn minor(self) -> u8 {
        self.minor
    }

    /// Packs the counter into a single word for hashing (major in the
    /// high 57 bits, minor in the low 7).
    pub fn as_word(self) -> u64 {
        (self.major << 7) | self.minor as u64
    }
}

/// Result of bumping a block's counter before a write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterBump {
    /// The minor counter incremented; only this block re-encrypts.
    Minor(CounterValue),
    /// The minor counter overflowed: the major counter incremented, all
    /// minors reset, and the whole page must re-encrypt with the new
    /// major counter.
    PageOverflow(CounterValue),
}

impl CounterBump {
    /// The new counter value for the written block, regardless of
    /// overflow.
    pub fn value(self) -> CounterValue {
        match self {
            CounterBump::Minor(v) | CounterBump::PageOverflow(v) => v,
        }
    }

    /// Whether the bump overflowed the minor counter.
    pub fn overflowed(self) -> bool {
        matches!(self, CounterBump::PageOverflow(_))
    }
}

/// A 64-byte split-counter block covering one encryption page.
///
/// Layout when serialized: 8-byte little-endian major counter followed
/// by 64 minor counters, one byte each with the top bit clear. (The real
/// hardware packs 7-bit minors; a byte-per-minor layout with an asserted
/// invariant keeps the model simple while preserving the 64-byte
/// *accounting* size used for traffic and cache modelling.)
///
/// # Example
///
/// ```
/// use plp_crypto::{CounterBlock, MINOR_MAX};
///
/// let mut cb = CounterBlock::new();
/// let bump = cb.bump(5);
/// assert_eq!(bump.value().minor(), 1);
/// assert!(!bump.overflowed());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CounterBlock {
    major: u64,
    minors: [u8; BLOCKS_PER_PAGE],
}

impl Default for CounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterBlock {
    /// A fresh counter block: major 0, all minors 0.
    pub fn new() -> Self {
        CounterBlock {
            major: 0,
            minors: [0; BLOCKS_PER_PAGE],
        }
    }

    /// The page's major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The counter value of the block at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn value(&self, slot: usize) -> CounterValue {
        CounterValue::new(self.major, self.minors[slot])
    }

    /// The counter value for a block address (using its slot within the
    /// page; callers are responsible for having looked up the right
    /// page's counter block).
    pub fn value_for(&self, block: BlockAddr) -> CounterValue {
        self.value(block.slot_in_page())
    }

    /// Increments the minor counter at `slot` for a write-back,
    /// handling page overflow.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn bump(&mut self, slot: usize) -> CounterBump {
        if self.minors[slot] == MINOR_MAX {
            self.major += 1;
            self.minors = [0; BLOCKS_PER_PAGE];
            self.minors[slot] = 1;
            CounterBump::PageOverflow(CounterValue::new(self.major, 1))
        } else {
            self.minors[slot] += 1;
            CounterBump::Minor(CounterValue::new(self.major, self.minors[slot]))
        }
    }

    /// Serializes to the 64-byte wire format plus the major overflow
    /// word (72 bytes total: 8-byte major + 64 minors).
    pub fn to_bytes(&self) -> [u8; 8 + BLOCKS_PER_PAGE] {
        let mut out = [0u8; 8 + BLOCKS_PER_PAGE];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        out[8..].copy_from_slice(&self.minors);
        out
    }

    /// Deserializes from the wire format produced by
    /// [`CounterBlock::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns an error if any minor counter has its top bit set (not a
    /// valid 7-bit value).
    pub fn from_bytes(bytes: &[u8; 8 + BLOCKS_PER_PAGE]) -> Result<Self, InvalidCounterBlock> {
        let (words, _) = bytes.as_chunks::<8>();
        let major = u64::from_le_bytes(words[0]);
        let mut minors = [0u8; BLOCKS_PER_PAGE];
        minors.copy_from_slice(&bytes[8..]);
        if minors.iter().any(|&m| m > MINOR_MAX) {
            return Err(InvalidCounterBlock);
        }
        Ok(CounterBlock { major, minors })
    }

    /// Hashable content words: the major counter followed by the minors
    /// packed 8 per word. This is the BMT leaf input for the page.
    pub fn content_words(&self) -> [u64; 1 + BLOCKS_PER_PAGE / 8] {
        let mut words = [0u64; 1 + BLOCKS_PER_PAGE / 8];
        words[0] = self.major;
        for (i, chunk) in self.minors.as_chunks::<8>().0.iter().enumerate() {
            words[1 + i] = u64::from_le_bytes(*chunk);
        }
        words
    }
}

/// Error returned when decoding a counter block with an out-of-range
/// minor counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidCounterBlock;

impl std::fmt::Display for InvalidCounterBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "minor counter exceeds 7 bits")
    }
}

impl std::error::Error for InvalidCounterBlock {}

/// Compile-time check that a counter block's accounting footprint is
/// one cache block (the split-counter design goal).
pub const COUNTER_BLOCK_ACCOUNTING_SIZE: usize = CACHE_BLOCK_SIZE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_zero() {
        let cb = CounterBlock::new();
        assert_eq!(cb.major(), 0);
        for slot in 0..BLOCKS_PER_PAGE {
            assert_eq!(cb.value(slot), CounterValue::new(0, 0));
        }
    }

    #[test]
    fn bump_increments_only_target_slot() {
        let mut cb = CounterBlock::new();
        let b = cb.bump(10);
        assert_eq!(b, CounterBump::Minor(CounterValue::new(0, 1)));
        assert_eq!(cb.value(10).minor(), 1);
        assert_eq!(cb.value(11).minor(), 0);
        assert!(!b.overflowed());
    }

    #[test]
    fn overflow_resets_page() {
        let mut cb = CounterBlock::new();
        for _ in 0..127 {
            assert!(!cb.bump(3).overflowed());
        }
        cb.bump(5); // some other slot has history too
        let b = cb.bump(3);
        assert!(b.overflowed());
        assert_eq!(b.value(), CounterValue::new(1, 1));
        assert_eq!(cb.major(), 1);
        // Every other slot was reset by the overflow.
        assert_eq!(cb.value(5).minor(), 0);
    }

    #[test]
    fn counter_value_word_packing() {
        let c = CounterValue::new(1, 1);
        assert_eq!(c.as_word(), 129);
        // Distinct (major, minor) pairs yield distinct words.
        assert_ne!(
            CounterValue::new(1, 0).as_word(),
            CounterValue::new(0, MINOR_MAX).as_word()
        );
    }

    #[test]
    #[should_panic(expected = "7 bits")]
    fn counter_value_range_checked() {
        let _ = CounterValue::new(0, 128);
    }

    #[test]
    fn wire_round_trip() {
        let mut cb = CounterBlock::new();
        for slot in [0usize, 7, 63] {
            for _ in 0..slot + 1 {
                cb.bump(slot);
            }
        }
        let bytes = cb.to_bytes();
        assert_eq!(CounterBlock::from_bytes(&bytes).unwrap(), cb);
    }

    #[test]
    fn wire_rejects_bad_minor() {
        let mut bytes = CounterBlock::new().to_bytes();
        bytes[8] = 200;
        assert_eq!(CounterBlock::from_bytes(&bytes), Err(InvalidCounterBlock));
        assert!(!InvalidCounterBlock.to_string().is_empty());
    }

    #[test]
    fn content_words_reflect_state() {
        let mut cb = CounterBlock::new();
        let before = cb.content_words();
        cb.bump(0);
        let after = cb.content_words();
        assert_ne!(before, after);
        assert_eq!(after[0], 0); // major unchanged
        assert_eq!(after[1] & 0xff, 1); // slot 0 minor is 1
    }

    #[test]
    fn value_for_uses_slot_in_page() {
        let mut cb = CounterBlock::new();
        cb.bump(2);
        let block = plp_events::addr::PageAddr::new(9).block(2);
        assert_eq!(cb.value_for(block).minor(), 1);
    }
}
