//! Shared simulated-machine address types.
//!
//! Every crate in the workspace reasons about 64-byte cache blocks and
//! 4 KiB pages (the paper's encryption-page granularity), so the address
//! newtypes live here in the base crate.

use std::fmt;

/// Size of a cache block / memory block in bytes.
pub const CACHE_BLOCK_SIZE: usize = 64;
/// Size of an encryption page in bytes (one split-counter block covers
/// one page).
pub const PAGE_SIZE: usize = 4096;
/// Number of cache blocks per encryption page.
pub const BLOCKS_PER_PAGE: usize = PAGE_SIZE / CACHE_BLOCK_SIZE;

/// The address of a 64-byte memory block, stored as a block *index*
/// (byte address divided by [`CACHE_BLOCK_SIZE`]).
///
/// # Example
///
/// ```
/// use plp_events::addr::{BlockAddr, BLOCKS_PER_PAGE};
///
/// let a = BlockAddr::new(0x41);
/// assert_eq!(a.byte_addr(), 0x1040);
/// assert_eq!(a.page().index(), 0x41 / BLOCKS_PER_PAGE as u64);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        BlockAddr(index)
    }

    /// The block index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The byte address of the start of the block.
    #[inline]
    pub const fn byte_addr(self) -> u64 {
        self.0 * CACHE_BLOCK_SIZE as u64
    }

    /// The encryption page containing this block.
    #[inline]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 / BLOCKS_PER_PAGE as u64)
    }

    /// The block's slot within its page, in `0..BLOCKS_PER_PAGE`.
    #[inline]
    pub const fn slot_in_page(self) -> usize {
        (self.0 % BLOCKS_PER_PAGE as u64) as usize
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.byte_addr())
    }
}

/// The address of a 4 KiB encryption page, stored as a page index.
///
/// One split-counter block (and therefore one BMT leaf) covers one page.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page address from a page index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        PageAddr(index)
    }

    /// The page index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The first block of this page.
    #[inline]
    pub const fn first_block(self) -> BlockAddr {
        BlockAddr(self.0 * BLOCKS_PER_PAGE as u64)
    }

    /// The block at `slot` within this page.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= BLOCKS_PER_PAGE`.
    #[inline]
    pub fn block(self, slot: usize) -> BlockAddr {
        assert!(slot < BLOCKS_PER_PAGE, "slot {slot} out of page range");
        BlockAddr(self.0 * BLOCKS_PER_PAGE as u64 + slot as u64)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{:#x}", self.0 * PAGE_SIZE as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_byte_addr() {
        let a = BlockAddr::new(123);
        assert_eq!(a.byte_addr(), 123 * 64);
    }

    #[test]
    fn page_relationships() {
        let p = PageAddr::new(5);
        assert_eq!(p.first_block().index(), 5 * 64);
        assert_eq!(p.block(63).index(), 5 * 64 + 63);
        assert_eq!(p.block(63).page(), p);
        assert_eq!(p.block(0).slot_in_page(), 0);
        assert_eq!(p.block(63).slot_in_page(), 63);
    }

    #[test]
    #[should_panic(expected = "out of page range")]
    fn page_block_bounds_checked() {
        let _ = PageAddr::new(0).block(64);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BlockAddr::new(1).to_string(), "blk:0x40");
        assert_eq!(PageAddr::new(1).to_string(), "page:0x1000");
    }

    #[test]
    fn constants_consistent() {
        assert_eq!(BLOCKS_PER_PAGE, 64);
        assert_eq!(CACHE_BLOCK_SIZE * BLOCKS_PER_PAGE, PAGE_SIZE);
    }
}
