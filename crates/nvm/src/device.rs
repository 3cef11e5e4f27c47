//! The bank/row timing model of the NVM device.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use plp_events::addr::BlockAddr;
use plp_events::{Cycle, FastMap};
use serde::{Deserialize, Serialize};

use crate::{NvmConfig, NvmError};

/// Statistics reported by the device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmStats {
    /// Read commands serviced.
    pub reads: u64,
    /// Write commands serviced.
    pub writes: u64,
    /// Writes absorbed by an already-pending write to the same block
    /// (write combining in the write queue).
    pub writes_combined: u64,
    /// Reads that hit an open row buffer.
    pub row_hits: u64,
    /// Reads that had to activate a row.
    pub row_misses: u64,
    /// Cycles accesses spent waiting for a full read/write queue.
    pub queue_stall_cycles: u64,
}

/// Reservations a bank keeps before it starts trimming stale ones.
const TRIM_THRESHOLD: usize = 1024;

/// Cycles behind `latest_end` beyond which a reservation is stale.
const TRIM_HORIZON: u64 = 2_000_000;

/// One bank's schedule: non-overlapping busy reservations.
///
/// Requests do not arrive in time order — the security engine books
/// fetches at gated *future* times while the core issues loads at the
/// current clock — so a scalar `busy_until` would let a future write
/// block an earlier read. Instead each bank keeps its reservations and
/// a new request takes the earliest gap at or after its own time, which
/// also gives reads natural priority over queued future writes.
#[derive(Debug, Clone, Default)]
struct Bank {
    /// `(start, end)` of each reservation, sorted by start. They do not
    /// overlap, so their ends ascend too.
    reservations: VecDeque<(u64, u64)>,
    /// Chronologically last access's row (row-buffer state).
    open_row: Option<u64>,
    /// End of the chronologically last reservation.
    latest_end: u64,
}

impl Bank {
    /// Books `len` busy cycles at the earliest gap at or after `now`;
    /// returns the start time.
    fn reserve(&mut self, now: u64, len: u64) -> u64 {
        // A zero-length booking would be an empty reservation that
        // models no bank time; NvmConfig::validate rejects every timing
        // that converts to zero cycles.
        debug_assert!(len > 0, "zero-length bank reservation");
        let r = &mut self.reservations;
        // Bookings land at or near the tail, so scan back from it to
        // the first reservation that starts at or before `now`: `r[..i]`
        // start at or before `now`, `r[i..]` after it.
        let mut i = r.len();
        while i > 0 && r[i - 1].0 > now {
            i -= 1;
        }
        let mut candidate = now;
        // A reservation already covering `candidate` pushes it to its
        // end, before which no later reservation starts.
        if i > 0 {
            candidate = candidate.max(r[i - 1].1);
        }
        // Walk later reservations until a large-enough gap appears.
        while let Some(&(s, e)) = r.get(i) {
            if s >= candidate + len {
                break;
            }
            candidate = candidate.max(e);
            i += 1;
        }
        r.insert(i, (candidate, candidate + len));
        // Bounded memory: drop reservations far behind the schedule
        // frontier (no future request plausibly lands there). The ends
        // ascend, so every stale one (`end < horizon`) precedes every
        // kept one and the trim pops a prefix.
        if r.len() > TRIM_THRESHOLD {
            let horizon = self.latest_end.saturating_sub(TRIM_HORIZON);
            while r.front().is_some_and(|&(_, e)| e < horizon) {
                r.pop_front();
            }
        }
        candidate
    }
}

/// Tracks in-flight commands against a queue capacity: a new command
/// may only be admitted once fewer than `capacity` are outstanding.
#[derive(Debug, Clone, Default)]
struct OutstandingSet {
    completions: BinaryHeap<Reverse<u64>>,
    capacity: usize,
}

impl OutstandingSet {
    fn new(capacity: usize) -> Self {
        OutstandingSet {
            completions: BinaryHeap::new(),
            capacity,
        }
    }

    /// Earliest time at or after `now` when a slot is free.
    fn admission_time(&mut self, now: Cycle) -> Cycle {
        while let Some(&Reverse(t)) = self.completions.peek() {
            if Cycle::new(t) <= now {
                self.completions.pop();
            } else {
                break;
            }
        }
        if self.completions.len() < self.capacity {
            now
        } else {
            // A zero-capacity queue (rejected by NvmConfig::validate,
            // but kept total here) degenerates to immediate admission.
            match self.completions.pop() {
                Some(Reverse(t)) => Cycle::new(t),
                None => now,
            }
        }
    }

    fn record(&mut self, completion: Cycle) {
        self.completions.push(Reverse(completion.get()));
    }
}

/// The NVM device timing model: banks with row buffers, read priority
/// via separate read/write queues, and per-command completion times in
/// CPU cycles.
///
/// # Example
///
/// ```
/// use plp_events::{addr::BlockAddr, Cycle};
/// use plp_nvm::{NvmConfig, NvmDevice};
///
/// let mut nvm = NvmDevice::new(NvmConfig::paper_default());
/// let a = BlockAddr::new(0);
/// let first = nvm.read(Cycle::ZERO, a);
/// // A second read to the same block hits its open row: cheaper.
/// let second = nvm.read(first, a);
/// assert!(second - first < first - Cycle::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    config: NvmConfig,
    banks: Vec<Bank>,
    reads: OutstandingSet,
    writes: OutstandingSet,
    /// Pending (not yet durable) writes, for write combining.
    pending_writes: FastMap<BlockAddr, Cycle>,
    stats: NvmStats,
}

impl NvmDevice {
    /// Creates an idle device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`NvmDevice::try_new`] to handle the error instead.
    pub fn new(config: NvmConfig) -> Self {
        match Self::try_new(config) {
            Ok(device) => device,
            #[expect(
                clippy::panic,
                reason = "documented panic contract; try_new is the fallible path"
            )]
            Err(e) => panic!("invalid NVM configuration: {e}"),
        }
    }

    /// Creates an idle device, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first constraint the configuration violates.
    pub fn try_new(config: NvmConfig) -> Result<Self, NvmError> {
        config.validate()?;
        Ok(NvmDevice {
            banks: vec![Bank::default(); config.banks],
            reads: OutstandingSet::new(config.read_queue),
            writes: OutstandingSet::new(config.write_queue),
            pending_writes: FastMap::default(),
            config,
            stats: NvmStats::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NvmStats {
        self.stats
    }

    /// Maps a block address to `(bank, row-within-bank)` according to
    /// the configured interleaving.
    fn map(&self, addr: BlockAddr) -> (usize, u64) {
        let banks = self.config.banks as u64;
        let blocks_per_row = self.config.row_bytes / plp_events::addr::CACHE_BLOCK_SIZE as u64;
        match self.config.interleave {
            crate::Interleave::RowLevel => {
                let row = addr.index() / blocks_per_row;
                ((row % banks) as usize, row)
            }
            crate::Interleave::BlockLevel => {
                let bank = (addr.index() % banks) as usize;
                let row = (addr.index() / banks) / blocks_per_row;
                (bank, row)
            }
        }
    }

    /// Issues a read for `addr` at `now`; returns the cycle the data is
    /// available on chip.
    pub fn read(&mut self, now: Cycle, addr: BlockAddr) -> Cycle {
        let admitted = self.reads.admission_time(now);
        self.stats.queue_stall_cycles += (admitted - now).get();
        let (bank_idx, row) = self.map(addr);
        let bank = &mut self.banks[bank_idx];
        let latency = if bank.open_row == Some(row) {
            self.stats.row_hits += 1;
            self.config.timing.read_row_hit_cycles(self.config.cpu_freq)
        } else {
            self.stats.row_misses += 1;
            self.config
                .timing
                .read_row_miss_cycles(self.config.cpu_freq)
        };
        let start = bank.reserve(admitted.get(), latency.get());
        let done = Cycle::new(start) + latency;
        if done.get() >= bank.latest_end {
            bank.latest_end = done.get();
            bank.open_row = Some(row);
        }
        self.stats.reads += 1;
        self.reads.record(done);
        done
    }

    /// Issues a (posted) write for `addr` at `now`; returns the cycle
    /// the write is durable in the medium. The caller decides whether
    /// anything waits for this completion (ADR means stores usually do
    /// not, but the write-queue capacity still throttles).
    pub fn write(&mut self, now: Cycle, addr: BlockAddr) -> Cycle {
        // Write combining: a store to a block that already has a write
        // pending in the queue merges into it (the queue holds the
        // freshest data; one media write suffices).
        if let Some(&done) = self.pending_writes.get(&addr) {
            if done > now {
                self.stats.writes_combined += 1;
                return done;
            }
        }
        let admitted = self.writes.admission_time(now);
        self.stats.queue_stall_cycles += (admitted - now).get();
        let (bank_idx, row) = self.map(addr);
        let bank = &mut self.banks[bank_idx];
        let latency = self.config.timing.write_cycles(self.config.cpu_freq);
        let start = bank.reserve(admitted.get(), latency.get());
        let done = Cycle::new(start) + latency;
        if done.get() >= bank.latest_end {
            bank.latest_end = done.get();
            bank.open_row = Some(row);
        }
        self.stats.writes += 1;
        self.writes.record(done);
        if self.pending_writes.len() >= 4 * self.config.write_queue {
            self.pending_writes.retain(|_, &mut d| d > now);
        }
        self.pending_writes.insert(addr, done);
        done
    }
}

#[cfg(test)]
mod tests {
    use plp_events::splitmix64;
    use proptest::prelude::*;

    use super::*;

    fn dev() -> NvmDevice {
        // Row-level interleaving keeps the bank/row arithmetic of these
        // tests easy to reason about.
        NvmDevice::new(NvmConfig {
            interleave: crate::Interleave::RowLevel,
            ..NvmConfig::paper_default()
        })
    }

    #[test]
    fn row_hit_is_cheaper_than_miss() {
        let mut d = dev();
        let t1 = d.read(Cycle::ZERO, BlockAddr::new(0));
        assert_eq!(t1.get(), 290);
        // Same row (blocks 0..127 share the 8 KB row).
        let t2 = d.read(t1, BlockAddr::new(1));
        assert_eq!((t2 - t1).get(), 70);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dev();
        // Rows 0 and 1 live in banks 0 and 1: both reads complete at
        // the row-miss latency with no serialization.
        let t1 = d.read(Cycle::ZERO, BlockAddr::new(0));
        let t2 = d.read(Cycle::ZERO, BlockAddr::new(128)); // next row
        assert_eq!(t1.get(), 290);
        assert_eq!(t2.get(), 290);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = dev();
        // Rows 0 and 16 both map to bank 0 (16 banks).
        let t1 = d.read(Cycle::ZERO, BlockAddr::new(0));
        let t2 = d.read(Cycle::ZERO, BlockAddr::new(16 * 128));
        assert_eq!(t2.get(), 290 + 290, "row conflict must serialize");
        assert!(t2 > t1);
    }

    #[test]
    fn writes_occupy_banks() {
        let mut d = dev();
        let w = d.write(Cycle::ZERO, BlockAddr::new(0));
        assert_eq!(w.get(), 600);
        // A read to the same bank waits for write recovery.
        let r = d.read(Cycle::ZERO, BlockAddr::new(1));
        assert_eq!(r.get(), 600 + 70); // row already open after write
    }

    #[test]
    fn write_queue_throttles() {
        let mut d = NvmDevice::new(NvmConfig {
            write_queue: 2,
            banks: 1,
            ..NvmConfig::paper_default()
        });
        let t1 = d.write(Cycle::ZERO, BlockAddr::new(0));
        let _t2 = d.write(Cycle::ZERO, BlockAddr::new(1));
        // Third write must wait for the first to complete before it is
        // even admitted to the queue.
        let t3 = d.write(Cycle::ZERO, BlockAddr::new(2));
        assert!(t3 >= t1 + Cycle::new(600));
        assert!(d.stats().queue_stall_cycles > 0);
    }

    #[test]
    fn repeated_writes_to_one_block_combine() {
        let mut d = dev();
        let a = BlockAddr::new(7);
        let t1 = d.write(Cycle::ZERO, a);
        // While the first write is still pending, rewrites merge.
        let t2 = d.write(Cycle::new(10), a);
        assert_eq!(t2, t1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().writes_combined, 1);
        // After it drains, a new write schedules normally.
        let t3 = d.write(t1, a);
        assert!(t3 > t1);
        assert_eq!(d.stats().writes, 2);
    }

    #[test]
    fn block_interleave_spreads_sequential_stream() {
        let mut d = NvmDevice::new(NvmConfig::paper_default()); // block-level
                                                                // 16 consecutive blocks land on 16 different banks: all
                                                                // complete at one write latency instead of serializing.
        let mut worst = Cycle::ZERO;
        for i in 0..16 {
            worst = worst.max(d.write(Cycle::ZERO, BlockAddr::new(i)));
        }
        assert_eq!(worst, Cycle::new(600));
        // The 17th block wraps to bank 0 and waits.
        assert_eq!(d.write(Cycle::ZERO, BlockAddr::new(16)), Cycle::new(1200));
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        let zero_banks = NvmConfig {
            banks: 0,
            ..NvmConfig::paper_default()
        };
        assert_eq!(
            NvmDevice::try_new(zero_banks).unwrap_err(),
            NvmError::ZeroBanks
        );
        let zero_queue = NvmConfig {
            read_queue: 0,
            ..NvmConfig::paper_default()
        };
        assert!(matches!(
            NvmDevice::try_new(zero_queue).unwrap_err(),
            NvmError::ZeroQueue { queue: "read" }
        ));
        assert!(NvmDevice::try_new(NvmConfig::paper_default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid NVM configuration")]
    fn new_panics_with_descriptive_message() {
        let _ = NvmDevice::new(NvmConfig {
            banks: 0,
            ..NvmConfig::paper_default()
        });
    }

    #[test]
    fn stats_count_commands() {
        let mut d = dev();
        d.read(Cycle::ZERO, BlockAddr::new(0));
        d.write(Cycle::ZERO, BlockAddr::new(0));
        d.write(Cycle::ZERO, BlockAddr::new(1));
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
    }

    /// The bank schedule as the `BTreeMap` from start to end that the
    /// sorted ring replaced.
    #[derive(Debug, Default)]
    struct MapBank {
        reservations: std::collections::BTreeMap<u64, u64>,
        latest_end: u64,
    }

    impl MapBank {
        /// Books the earliest gap at or after `now` with two range
        /// descents of the map.
        fn book(&mut self, now: u64, len: u64) -> u64 {
            let mut candidate = now;
            if let Some((_, &e)) = self.reservations.range(..=candidate).next_back() {
                if e > candidate {
                    candidate = e;
                }
            }
            for (&s, &e) in self.reservations.range(candidate..) {
                if s >= candidate + len {
                    break;
                }
                candidate = candidate.max(e);
            }
            self.reservations.insert(candidate, candidate + len);
            candidate
        }

        /// The map schedule's `reserve`, stale-prefix trim included: the
        /// reference the ring must match call for call.
        fn reserve(&mut self, now: u64, len: u64) -> u64 {
            let start = self.book(now, len);
            if self.reservations.len() > TRIM_THRESHOLD {
                let horizon = self.latest_end.saturating_sub(TRIM_HORIZON);
                while let Some(first) = self.reservations.first_entry() {
                    if *first.get() >= horizon {
                        break;
                    }
                    first.remove();
                }
            }
            start
        }

        /// `reserve` with the trim done by a `retain` scan of the whole
        /// map on every call past the threshold: the full-scan oracle.
        fn reserve_by_scan(&mut self, now: u64, len: u64) -> u64 {
            let start = self.book(now, len);
            if self.reservations.len() > TRIM_THRESHOLD {
                let horizon = self.latest_end.saturating_sub(TRIM_HORIZON);
                self.reservations.retain(|_, &mut e| e >= horizon);
            }
            start
        }
    }

    /// Advances a bank's frontier exactly as `read`/`write` do.
    fn advance(latest_end: &mut u64, start: u64, len: u64) {
        *latest_end = (*latest_end).max(start + len);
    }

    /// Whether the ring and the map hold the same reservations.
    fn same_schedule(ring: &Bank, map: &MapBank) -> bool {
        ring.reservations
            .iter()
            .copied()
            .eq(map.reservations.iter().map(|(&s, &e)| (s, e)))
    }

    #[test]
    fn prefix_trim_matches_full_scan_oracle() {
        for seed in [1u64, 2] {
            let mut rng = seed;
            let (mut fast, mut oracle) = (Bank::default(), MapBank::default());
            let (mut now, mut writes, mut removed, mut peak) = (0u64, 0u64, 0usize, 0usize);
            for _ in 0..4_200 {
                // ~1600 cycles a call: a 2M-cycle horizon holds ~1250
                // reservations, just past the trim threshold.
                now += splitmix64(&mut rng) % 3_200;
                let draw = splitmix64(&mut rng);
                // Reads book at the present clock; writes are booked
                // ahead of it, as the engine books gated persists.
                let (at, len) = if draw.is_multiple_of(8) {
                    (now, if draw & 8 == 0 { 290 } else { 70 })
                } else {
                    writes += 1;
                    (now + (draw >> 32) % 20_000, 600)
                };
                let before = fast.reservations.len();
                let start = fast.reserve(at, len);
                assert_eq!(start, oracle.reserve_by_scan(at, len), "seed {seed}");
                advance(&mut fast.latest_end, start, len);
                advance(&mut oracle.latest_end, start, len);
                // The same schedule, whose starts and ends strictly ascend.
                assert!(same_schedule(&fast, &oracle), "seed {seed}");
                let mut prev: Option<(u64, u64)> = None;
                for &(s, e) in &fast.reservations {
                    assert!(s < e, "seed {seed}: empty reservation at {s}");
                    if let Some((ps, pe)) = prev {
                        assert!(ps < s && pe < e, "seed {seed}: {ps}..{pe} then {s}..{e}");
                        assert!(pe <= s, "seed {seed}: {ps}..{pe} overlaps {s}..{e}");
                    }
                    prev = Some((s, e));
                }
                removed += before + 1 - fast.reservations.len();
                peak = peak.max(fast.reservations.len());
            }
            // The stream crossed both the entry threshold and the
            // cycle horizon, so the trim really removed entries.
            assert!(writes > 3_400, "seed {seed}: {writes} writes");
            assert!(peak > TRIM_THRESHOLD, "seed {seed}: peak {peak}");
            assert!(fast.latest_end > 2 * TRIM_HORIZON, "seed {seed}");
            assert!(removed > 1_000, "seed {seed}: {removed} trimmed");
        }
    }

    /// One booking of a differential stream: `(kind, gap, ahead,
    /// behind, short)`.
    type Booking = (u8, u64, u64, usize, bool);

    fn arb_stream() -> impl Strategy<Value = Vec<Booking>> {
        // ~1400 cycles a booking on average: long enough streams fill
        // a 2M-cycle horizon with more than the 1024-entry threshold.
        prop::collection::vec(
            (0u8..8, 0u64..3_200, 0u64..20_000, 0usize..65, any::<bool>()),
            3_000..4_000,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The ring books every stream exactly as the `BTreeMap`
        /// schedule did: the same start on every call, and afterwards
        /// the same reservations.
        #[test]
        fn ring_matches_map_schedule(stream in arb_stream()) {
            let (mut ring, mut map) = (Bank::default(), MapBank::default());
            let (mut now, mut popped, mut peak, mut deepest) = (0u64, 0usize, 0usize, 0usize);
            for (kind, gap, ahead, behind, short) in stream {
                let tail = ring.reservations.len().checked_sub(1 + behind);
                let (at, len) = match kind {
                    // A read at the present clock.
                    0 => {
                        now += gap;
                        (now, if short { 70 } else { 290 })
                    }
                    // Back to back: no time passes, and the booking
                    // starts where the last reservation ends.
                    1 => (ring.reservations.back().map_or(now, |&(_, e)| e), 600),
                    // Aimed `behind` entries behind the tail: at the
                    // start of that reservation, or so as to end
                    // exactly where it starts.
                    2 | 3 => {
                        now += gap;
                        let fit = if kind == 3 { 600 } else { 0 };
                        (tail.map_or(now, |i| ring.reservations[i].0.saturating_sub(fit)), 600)
                    }
                    // A write booked ahead of the clock, as the engine
                    // books gated persists.
                    _ => {
                        now += gap;
                        (now + ahead, 600)
                    }
                };
                let before = ring.reservations.len();
                let start = ring.reserve(at, len);
                prop_assert_eq!(start, map.reserve(at, len));
                advance(&mut ring.latest_end, start, len);
                advance(&mut map.latest_end, start, len);
                prop_assert!(same_schedule(&ring, &map), "diverged after {at}+{len}");
                let landed = ring.reservations.partition_point(|&(s, _)| s <= start);
                deepest = deepest.max(ring.reservations.len() - landed);
                popped += before + 1 - ring.reservations.len();
                peak = peak.max(ring.reservations.len());
            }
            // The stream crossed the entry threshold and the cycle
            // horizon, and some booking landed deep behind the tail.
            prop_assert!(peak > TRIM_THRESHOLD, "peak {peak}");
            prop_assert!(popped > 0, "nothing trimmed");
            prop_assert!(deepest >= 48, "deepest landing {deepest} behind the tail");
        }
    }
}
