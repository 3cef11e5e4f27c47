//! Cache configuration.

use plp_events::addr::CACHE_BLOCK_SIZE;

/// Replacement policy for a set-associative cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Least-recently-used (the paper's configuration).
    #[default]
    Lru,
    /// First-in first-out.
    Fifo,
}

/// Geometry and policy of one cache.
///
/// # Example
///
/// ```
/// use plp_cache::CacheConfig;
///
/// // The paper's L3: 4 MB, 32-way, 64 B blocks -> 2048 sets.
/// let c = CacheConfig::new(4 << 20, 32);
/// assert_eq!(c.sets(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: usize,
    ways: usize,
    replacement: Replacement,
}

impl CacheConfig {
    /// Creates a configuration with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics unless the size is a positive multiple of
    /// `ways * CACHE_BLOCK_SIZE` and the resulting set count is a power
    /// of two (so set indexing is a mask).
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        Self::with_replacement(size_bytes, ways, Replacement::Lru)
    }

    /// Creates a configuration with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CacheConfig::new`].
    pub fn with_replacement(size_bytes: usize, ways: usize, replacement: Replacement) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        let way_bytes = ways * CACHE_BLOCK_SIZE;
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(way_bytes),
            "cache size must be a positive multiple of ways * block size"
        );
        let sets = size_bytes / way_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            ways,
            replacement,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * CACHE_BLOCK_SIZE)
    }

    /// Total line capacity.
    pub fn lines(&self) -> usize {
        self.size_bytes / CACHE_BLOCK_SIZE
    }

    /// The replacement policy.
    pub fn replacement(&self) -> Replacement {
        self.replacement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        // Table III: L1 64KB 8-way; L2 512KB 16-way; L3 4MB 32-way;
        // metadata caches 128KB 8-way.
        assert_eq!(CacheConfig::new(64 << 10, 8).sets(), 128);
        assert_eq!(CacheConfig::new(512 << 10, 16).sets(), 512);
        assert_eq!(CacheConfig::new(4 << 20, 32).sets(), 2048);
        assert_eq!(CacheConfig::new(128 << 10, 8).sets(), 256);
    }

    #[test]
    fn accessors() {
        let c = CacheConfig::with_replacement(64 << 10, 8, Replacement::Fifo);
        assert_eq!(c.size_bytes(), 64 << 10);
        assert_eq!(c.ways(), 8);
        assert_eq!(c.lines(), 1024);
        assert_eq!(c.replacement(), Replacement::Fifo);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = CacheConfig::new(3 * 64 * 8, 8);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_misaligned_size() {
        let _ = CacheConfig::new(1000, 8);
    }
}
