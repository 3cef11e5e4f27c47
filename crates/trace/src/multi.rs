//! Multi-stream trace derivation for sharded-topology runs.
//!
//! A sharded simulation drives N client streams, each an independent
//! instance of the same benchmark profile. Two pieces make that
//! deterministic and cache-friendly:
//!
//! * [`stream_seed`] derives one generator seed per stream from the run
//!   seed. Stream 0 gets the run seed *verbatim*, so a one-stream run
//!   reuses exactly the trace (and the memoized [`TraceStore`] entry)
//!   the unsharded path has always used; higher streams get a
//!   splitmix64-mixed seed so their address/gap sequences are
//!   decorrelated.
//! * [`rebase_with`] places each stream in a disjoint window of the
//!   physical address space, [`STREAM_PAGE_STRIDE`] (or a
//!   [`fitted_stride`]) pages apart, so clients never alias each
//!   other's pages. Stream 0's offset is zero: its addresses are
//!   untouched.
//!
//! The offsets are applied at dispatch time by the sharded coordinator
//! (not baked into the generated trace), so all streams of a run share
//! the per-seed trace memoization.
//!
//! [`TraceStore`]: crate::TraceStore

use plp_events::addr::{BlockAddr, BLOCKS_PER_PAGE};

/// Page stride between consecutive client streams' address windows.
///
/// Comfortably clears one stream's whole synthetic address space (heap
/// footprint plus the stack region at [`STACK_BASE_PAGE`]), and eight
/// strides still fit far inside the default 8-ary depth-9 BMT coverage.
pub const STREAM_PAGE_STRIDE: u64 = 0x20_0000;

/// Derives the trace-generator seed for `stream` from the run seed.
///
/// Stream 0 returns `run_seed` unchanged — a `--streams 1` run is
/// byte-identical to the unsharded path and shares its memoized trace.
/// Other streams mix the pair through a splitmix64 finalizer.
///
/// # Example
///
/// ```
/// use plp_trace::multi::stream_seed;
///
/// assert_eq!(stream_seed(7, 0), 7);
/// assert_ne!(stream_seed(7, 1), 7);
/// assert_ne!(stream_seed(7, 1), stream_seed(7, 2));
/// assert_ne!(stream_seed(7, 1), stream_seed(8, 1));
/// ```
pub fn stream_seed(run_seed: u64, stream: u32) -> u64 {
    if stream == 0 {
        return run_seed;
    }
    // splitmix64: one increment per stream, then the finalizer.
    let mut z = run_seed.wrapping_add((stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-stream page stride that fits `streams` windows inside a
/// topology's global integrity coverage of `covered_pages` pages
/// (per-shard BMT leaf count × shard count), capped at the default
/// [`STREAM_PAGE_STRIDE`].
///
/// The default stride assumes the paper's 16-million-leaf tree;
/// ablation configs shrink the tree, and their sharded runs shrink the
/// stride with it so every stream's heap window still maps to a valid
/// leaf on its owning shard.
///
/// # Example
///
/// ```
/// use plp_trace::multi::{fitted_stride, STREAM_PAGE_STRIDE};
///
/// // The default tree: the cap wins.
/// assert_eq!(fitted_stride(8, 16_777_216), STREAM_PAGE_STRIDE);
/// // A levels-7 ablation tree over 4 shards: coverage is divided
/// // evenly among the 4 streams.
/// assert_eq!(fitted_stride(4, 262_144 * 4), 262_144);
/// ```
#[inline]
pub const fn fitted_stride(streams: u32, covered_pages: u64) -> u64 {
    let even = covered_pages / streams as u64;
    if even < STREAM_PAGE_STRIDE {
        even
    } else {
        STREAM_PAGE_STRIDE
    }
}

/// Rebases a stream-local address into the stream's global window,
/// `stride_pages` pages per stream (see [`fitted_stride`]). Stream 0
/// is untouched for any stride.
///
/// # Example
///
/// ```
/// use plp_events::addr::BlockAddr;
/// use plp_trace::multi::{rebase_with, STREAM_PAGE_STRIDE};
///
/// let a = BlockAddr::new(100);
/// assert_eq!(rebase_with(a, 0, STREAM_PAGE_STRIDE), a);
/// let r = rebase_with(a, 2, STREAM_PAGE_STRIDE);
/// assert_eq!(r.page().index(), a.page().index() + 2 * STREAM_PAGE_STRIDE);
/// assert_eq!(r.slot_in_page(), a.slot_in_page());
/// ```
#[inline]
pub const fn rebase_with(addr: BlockAddr, stream: u32, stride_pages: u64) -> BlockAddr {
    BlockAddr::new(addr.index() + stream as u64 * stride_pages * BLOCKS_PER_PAGE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec, TraceGenerator, STACK_BASE_PAGE, STACK_PAGES};

    #[test]
    fn stream_zero_seed_is_identity() {
        for seed in [0u64, 7, 42, u64::MAX] {
            assert_eq!(stream_seed(seed, 0), seed);
        }
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for seed in [7u64, 8, 1234] {
            for stream in 0..16u32 {
                assert!(seen.insert(stream_seed(seed, stream)));
            }
        }
    }

    #[test]
    fn stream_seeds_yield_distinct_traces() {
        let p = spec::benchmark("gcc").unwrap();
        let a = TraceGenerator::new(p.clone(), stream_seed(7, 0)).generate(20_000);
        let b = TraceGenerator::new(p, stream_seed(7, 1)).generate(20_000);
        assert_ne!(a, b);
    }

    #[test]
    fn windows_do_not_overlap() {
        // A stream's whole synthetic space (heap + stack) ends below
        // the next stream's window.
        let top = STACK_BASE_PAGE + STACK_PAGES;
        assert!(top < STREAM_PAGE_STRIDE);
        let end0 = rebase_with(
            BlockAddr::new(top * BLOCKS_PER_PAGE as u64),
            0,
            STREAM_PAGE_STRIDE,
        );
        let start1 = rebase_with(BlockAddr::new(0), 1, STREAM_PAGE_STRIDE);
        assert!(end0.index() < start1.index());
    }

    #[test]
    fn fitted_stride_tracks_small_trees() {
        // Default coverage: capped at the constant.
        assert_eq!(fitted_stride(1, 16_777_216), STREAM_PAGE_STRIDE);
        assert_eq!(fitted_stride(8, 16_777_216), STREAM_PAGE_STRIDE);
        // Shrunken ablation tree (8-ary, 7 levels = 262144 leaves):
        // the coverage is divided evenly, and every shrunken window
        // still clears one stream's heap footprint.
        for (streams, shards) in [(2u32, 2u64), (4, 4)] {
            let stride = fitted_stride(streams, 262_144 * shards);
            assert_eq!(stride, 262_144);
            assert!((streams as u64 - 1) * stride + 262_144 <= 262_144 * shards);
        }
        // rebase_with at the fitted stride keeps stream 0 untouched.
        let a = BlockAddr::new(123);
        assert_eq!(rebase_with(a, 0, 262_144), a);
        assert_eq!(
            rebase_with(a, 3, 262_144).page().index(),
            a.page().index() + 3 * 262_144
        );
    }

    #[test]
    fn rebase_preserves_page_slot() {
        let a = BlockAddr::new(5 * BLOCKS_PER_PAGE as u64 + 17);
        for stream in 0..4 {
            let r = rebase_with(a, stream, STREAM_PAGE_STRIDE);
            assert_eq!(r.slot_in_page(), a.slot_in_page());
            assert_eq!(
                r.page().index(),
                a.page().index() + stream as u64 * STREAM_PAGE_STRIDE
            );
        }
    }
}
