//! The synthetic trace generator.

use std::collections::VecDeque;

use plp_events::addr::{BlockAddr, PageAddr, BLOCKS_PER_PAGE};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::{Op, Trace, TraceEvent, WorkloadProfile};

/// First heap page of the synthetic address space.
pub const HEAP_BASE_PAGE: u64 = 0x1_0000;
/// First stack page of the synthetic address space (kept far from the
/// heap so stack and heap never share BMT subtrees near the leaves).
pub const STACK_BASE_PAGE: u64 = 0x1E_0000;
/// Number of stack pages stores cycle through.
pub const STACK_PAGES: u64 = 8;

/// How many recent store targets the repeat distribution draws from.
const RECENT_WINDOW: usize = 16;

/// Generates deterministic synthetic traces from a
/// [`WorkloadProfile`].
///
/// The same `(profile, seed)` pair always produces the same trace, so
/// every experiment in the harness is reproducible.
///
/// # Example
///
/// ```
/// use plp_trace::{spec, TraceGenerator};
///
/// let profile = spec::benchmark("gcc").unwrap();
/// let t1 = TraceGenerator::new(profile.clone(), 7).generate(10_000);
/// let t2 = TraceGenerator::new(profile, 7).generate(10_000);
/// assert_eq!(t1, t2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: SmallRng,
    /// Sequential store cursor within the current heap page.
    cursor: BlockAddr,
    /// Recently stored heap blocks, for the repeat distribution.
    recent: VecDeque<BlockAddr>,
    /// Round-robin stack slot.
    stack_cursor: u64,
}

impl TraceGenerator {
    /// Creates a generator with a deterministic seed.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let first_page = HEAP_BASE_PAGE + rng.random_range(0..profile.footprint_pages);
        TraceGenerator {
            profile,
            rng,
            cursor: PageAddr::new(first_page).first_block(),
            recent: VecDeque::with_capacity(RECENT_WINDOW),
            stack_cursor: 0,
        }
    }

    /// Generates a trace of approximately `instructions` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the profile's total memory-operation rate is zero.
    pub fn generate(&mut self, instructions: u64) -> Trace {
        let ops_ppki = self.profile.store_ppki_full + self.profile.load_ppki;
        assert!(ops_ppki > 0.0, "profile has no memory operations");
        let mean_gap = (1000.0 / ops_ppki - 1.0).max(0.0);
        let store_share = self.profile.store_ppki_full / ops_ppki;
        let stack_share = self.profile.stack_store_fraction();

        let mut events = Vec::new();
        let mut issued: u64 = 0;
        while issued < instructions {
            let gap = self.sample_gap(mean_gap);
            let op = if self.rng.random_bool(store_share) {
                if stack_share > 0.0 && self.rng.random_bool(stack_share) {
                    Op::Store {
                        addr: self.next_stack_block(),
                        stack: true,
                    }
                } else {
                    Op::Store {
                        addr: self.next_heap_store(),
                        stack: false,
                    }
                }
            } else {
                Op::Load {
                    addr: self.next_load(),
                }
            };
            events.push(TraceEvent {
                gap_instructions: gap,
                op,
            });
            issued += gap as u64 + 1;
        }
        Trace::new(events)
    }

    /// Geometric-ish gap with the requested mean.
    fn sample_gap(&mut self, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        // Exponential sample, rounded; clamped to keep gaps sane.
        let u: f64 = self.rng.random();
        let g = -mean * (1.0 - u).ln();
        g.round().min(100_000.0) as u32
    }

    fn random_footprint_page(&mut self) -> PageAddr {
        PageAddr::new(HEAP_BASE_PAGE + self.rng.random_range(0..self.profile.footprint_pages))
    }

    fn next_heap_store(&mut self) -> BlockAddr {
        let addr = if !self.recent.is_empty()
            && self.rng.random_bool(self.profile.store_repeat_fraction)
        {
            // Re-target a recent block (same cache line coalesces in
            // the write-back cache within an epoch).
            let i = self.rng.random_range(0..self.recent.len());
            self.recent[i]
        } else {
            // Advance the sequential cursor; occasionally jump pages.
            let jump = self
                .rng
                .random_bool(1.0 / self.profile.page_run_len.max(1.0));
            let at_page_end = self.cursor.slot_in_page() == BLOCKS_PER_PAGE - 1;
            self.cursor = if jump || at_page_end {
                let page = self.random_footprint_page();
                page.block(self.rng.random_range(0..BLOCKS_PER_PAGE))
            } else {
                BlockAddr::new(self.cursor.index() + 1)
            };
            self.cursor
        };
        if self.recent.len() == RECENT_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(addr);
        addr
    }

    fn next_stack_block(&mut self) -> BlockAddr {
        // Stack traffic cycles through a handful of hot frames.
        self.stack_cursor = (self.stack_cursor + 1) % (STACK_PAGES * BLOCKS_PER_PAGE as u64);
        BlockAddr::new(PageAddr::new(STACK_BASE_PAGE).first_block().index() + self.stack_cursor)
    }

    fn next_load(&mut self) -> BlockAddr {
        // Loads mostly revisit recent store neighbourhoods (cache hits),
        // occasionally roaming the footprint.
        if !self.recent.is_empty() && self.rng.random_bool(0.8) {
            let i = self.rng.random_range(0..self.recent.len());
            self.recent[i]
        } else {
            let page = self.random_footprint_page();
            let slot = self.rng.random_range(0..BLOCKS_PER_PAGE);
            page.block(slot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn gen(name: &str, instructions: u64) -> Trace {
        TraceGenerator::new(spec::benchmark(name).unwrap(), 42).generate(instructions)
    }

    #[test]
    fn deterministic() {
        let a = gen("astar", 50_000);
        let b = gen("astar", 50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differ() {
        let p = spec::benchmark("astar").unwrap();
        let a = TraceGenerator::new(p.clone(), 1).generate(20_000);
        let b = TraceGenerator::new(p, 2).generate(20_000);
        assert_ne!(a, b);
    }

    #[test]
    fn store_rates_match_profile() {
        for name in ["gcc", "sphinx3", "gamess"] {
            let p = spec::benchmark(name).unwrap();
            let t = gen(name, 2_000_000);
            let full = t.store_ppki(true);
            let nonstack = t.store_ppki(false);
            assert!(
                (full - p.store_ppki_full).abs() / p.store_ppki_full < 0.08,
                "{name}: full PPKI {full} vs target {}",
                p.store_ppki_full
            );
            assert!(
                (nonstack - p.store_ppki_nonstack).abs() / p.store_ppki_nonstack < 0.12,
                "{name}: nonstack PPKI {nonstack} vs target {}",
                p.store_ppki_nonstack
            );
        }
    }

    #[test]
    fn unique_blocks_per_epoch_tracks_repeat_fraction() {
        // Group non-stack stores into epochs of 32 and count unique
        // blocks: the ratio should be near 1 - repeat_fraction (the o3
        // column calibration).
        let p = spec::benchmark("gamess").unwrap();
        let t = gen("gamess", 2_000_000);
        let stores: Vec<_> = t
            .iter()
            .filter(|e| e.op.is_store() && !e.op.is_stack_store())
            .map(|e| e.op.addr())
            .collect();
        let mut unique_total = 0usize;
        let mut epochs = 0usize;
        for chunk in stores.chunks(32) {
            let set: std::collections::HashSet<_> = chunk.iter().collect();
            unique_total += set.len();
            epochs += 1;
        }
        let ratio = unique_total as f64 / (epochs as f64 * 32.0);
        let target = 1.0 - p.store_repeat_fraction;
        assert!(
            (ratio - target).abs() < 0.15,
            "unique ratio {ratio} vs target {target}"
        );
    }

    #[test]
    fn stack_stores_stay_in_stack_region() {
        let t = gen("astar", 200_000);
        for e in &t {
            if e.op.is_stack_store() {
                let page = e.op.addr().page().index();
                assert!((STACK_BASE_PAGE..STACK_BASE_PAGE + STACK_PAGES).contains(&page));
            }
        }
    }

    #[test]
    fn heap_ops_stay_in_footprint() {
        let p = spec::benchmark("gamess").unwrap();
        let t = gen("gamess", 100_000);
        for e in &t {
            if !e.op.is_stack_store() {
                let page = e.op.addr().page().index();
                assert!(
                    (HEAP_BASE_PAGE..HEAP_BASE_PAGE + p.footprint_pages).contains(&page),
                    "op outside footprint: page {page}"
                );
            }
        }
    }

    #[test]
    fn instruction_budget_respected() {
        let t = gen("milc", 100_000);
        assert!(t.total_instructions() >= 100_000);
        // No gross overshoot (the last gap can exceed slightly).
        assert!(t.total_instructions() < 220_000);
    }
}
