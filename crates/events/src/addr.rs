//! Shared simulated-machine address types.
//!
//! Every crate in the workspace reasons about 64-byte cache blocks and
//! 4 KiB pages (the paper's encryption-page granularity), so the address
//! newtypes live here in the base crate.

use std::fmt;

use serde::{Deserialize, Serialize};

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
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
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
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
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

/// Partitions the physical block address space across `shards` memory
/// controllers, page-granular so a split-counter block (one per 4 KiB
/// page) never straddles two shards.
///
/// Pages are dealt round-robin: page `p` belongs to shard
/// `p % shards`, and becomes local page `p / shards` there. With one
/// shard the map is the identity, so an unsharded run sees exactly the
/// addresses it always did.
///
/// # Example
///
/// ```
/// use plp_events::addr::{BlockAddr, ShardMap};
///
/// let map = ShardMap::new(4);
/// let a = BlockAddr::new(5 * 64 + 3); // page 5, slot 3
/// let (shard, local) = map.localize(a);
/// assert_eq!(shard, 1); // page 5 % 4
/// assert_eq!(local.page().index(), 1); // page 5 / 4
/// assert_eq!(local.slot_in_page(), 3);
/// assert_eq!(map.globalize(shard, local), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// Creates a partitioner over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> Self {
        assert!(shards >= 1, "shard map needs at least one shard");
        ShardMap { shards }
    }

    /// The shard owning `addr`'s page.
    #[inline]
    pub fn shard_of(self, addr: BlockAddr) -> u32 {
        (addr.page().index() % self.shards as u64) as u32
    }

    /// Maps a global block address to `(owning shard, shard-local
    /// address)`. The local address preserves the block's slot within
    /// its page, so per-page structures (counters, BMT leaves) keep
    /// their geometry inside each shard.
    #[inline]
    pub fn localize(self, addr: BlockAddr) -> (u32, BlockAddr) {
        let shard = self.shard_of(addr);
        let local_page = addr.page().index() / self.shards as u64;
        let local = BlockAddr::new(local_page * BLOCKS_PER_PAGE as u64 + addr.slot_in_page() as u64);
        (shard, local)
    }

    /// Inverse of [`localize`](Self::localize): reconstructs the global
    /// address from a shard id and a shard-local address.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[inline]
    pub fn globalize(self, shard: u32, local: BlockAddr) -> BlockAddr {
        assert!(shard < self.shards, "shard {shard} out of range");
        let global_page = local.page().index() * self.shards as u64 + shard as u64;
        BlockAddr::new(global_page * BLOCKS_PER_PAGE as u64 + local.slot_in_page() as u64)
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

    #[test]
    fn shard_map_single_shard_is_identity() {
        let map = ShardMap::new(1);
        for idx in [0u64, 1, 63, 64, 12345, 0x1_0000 * 64 + 17] {
            let a = BlockAddr::new(idx);
            assert_eq!(map.shard_of(a), 0);
            assert_eq!(map.localize(a), (0, a));
            assert_eq!(map.globalize(0, a), a);
        }
    }

    #[test]
    fn shard_map_round_trips() {
        for shards in [1u32, 2, 3, 4, 8] {
            let map = ShardMap::new(shards);
            for idx in 0..(shards as u64 * BLOCKS_PER_PAGE as u64 * 3 + 7) {
                let a = BlockAddr::new(idx);
                let (shard, local) = map.localize(a);
                assert!(shard < shards);
                assert_eq!(map.globalize(shard, local), a);
            }
        }
    }

    #[test]
    fn shard_map_keeps_pages_whole() {
        let map = ShardMap::new(4);
        let page = PageAddr::new(9);
        let owner = map.shard_of(page.first_block());
        for slot in 0..BLOCKS_PER_PAGE {
            let (shard, local) = map.localize(page.block(slot));
            assert_eq!(shard, owner);
            assert_eq!(local.slot_in_page(), slot);
        }
    }

    #[test]
    fn shard_map_compacts_local_pages() {
        // Round-robin dealing: consecutive global pages on one shard
        // become consecutive local pages, so each shard's footprint is
        // dense regardless of shard count.
        let map = ShardMap::new(4);
        let (s0, l0) = map.localize(PageAddr::new(2).first_block());
        let (s1, l1) = map.localize(PageAddr::new(6).first_block());
        assert_eq!(s0, s1);
        assert_eq!(l0.page().index(), 0);
        assert_eq!(l1.page().index(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_map_rejects_zero() {
        let _ = ShardMap::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_map_globalize_bounds_checked() {
        let _ = ShardMap::new(2).globalize(2, BlockAddr::new(0));
    }
}
