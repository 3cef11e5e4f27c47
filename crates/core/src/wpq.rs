//! The persist-gathering write pending queue (WPQ) and the 2-step
//! persist (2SP) mechanism of §IV-A1.
//!
//! The WPQ sits in the memory controller inside the ADR persistence
//! domain. Step 1 gathers and locks a persist's memory-tuple
//! components (flagged incomplete); step 2 flags completion once the
//! ciphertext, counter, MAC and BMT-root acknowledgement have all
//! arrived, after which the blocks may drain to NVMM. On power failure
//! incomplete entries are invalidated — that is what makes the tuple
//! persist atomic. Timing needs only each in-flight entry's
//! completion time, so that is all [`Wpq`] keeps.

use std::collections::VecDeque;

use plp_events::Cycle;

/// Timing + occupancy model of the WPQ.
///
/// Entries occupy a slot from admission until their persist completes;
/// a full queue back-pressures the core — the §VII WPQ-size sweep
/// (4–64 entries, ~12% penalty at 4) exercises exactly this.
#[derive(Debug, Clone)]
pub struct Wpq {
    capacity: usize,
    /// Completion times of in-flight persists, oldest first.
    inflight: VecDeque<Cycle>,
    stall_cycles: u64,
    peak: usize,
}

impl Wpq {
    /// Creates an empty WPQ.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ needs at least one entry");
        Wpq {
            capacity,
            // The queue never holds more than capacity + 1 entries
            // (admit pops before pushing past the cap), so one up-front
            // reservation keeps admission reallocation-free for good.
            inflight: VecDeque::with_capacity(capacity + 1),
            stall_cycles: 0,
            peak: 0,
        }
    }

    /// Admits a new persist at or after `now`, returning the admission
    /// time (later than `now` only when the queue is full and the
    /// oldest completion must be awaited).
    pub fn admit(&mut self, now: Cycle) -> Cycle {
        while self.inflight.front().is_some_and(|&t| t <= now) {
            self.inflight.pop_front();
        }
        self.peak = self.peak.max(self.inflight.len() + 1);
        if self.inflight.len() < self.capacity {
            now
        } else {
            // A full queue is never empty (capacity >= 1); the
            // fallback keeps this total without a panic path.
            let freed = self.inflight.pop_front().unwrap_or(now).max(now);
            self.stall_cycles += (freed - now).get();
            freed
        }
    }

    /// Registers the admitted persist's completion time (step 2: the
    /// entry drains once complete).
    pub fn complete_at(&mut self, completion: Cycle) {
        self.inflight.push_back(completion);
    }

    /// Total cycles admissions waited on a full queue.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_free_below_capacity() {
        let mut q = Wpq::new(4);
        for i in 0..4 {
            assert_eq!(q.admit(Cycle::new(i)), Cycle::new(i));
            q.complete_at(Cycle::new(1000 + i));
        }
        assert_eq!(q.stall_cycles(), 0);
    }

    #[test]
    fn full_queue_stalls_until_oldest_completes() {
        let mut q = Wpq::new(2);
        q.admit(Cycle::ZERO);
        q.complete_at(Cycle::new(100));
        q.admit(Cycle::ZERO);
        q.complete_at(Cycle::new(200));
        // Third admission at t=10 must wait for the t=100 completion.
        assert_eq!(q.admit(Cycle::new(10)), Cycle::new(100));
        assert_eq!(q.stall_cycles(), 90);
    }

    #[test]
    fn completed_entries_free_slots() {
        let mut q = Wpq::new(1);
        q.admit(Cycle::ZERO);
        q.complete_at(Cycle::new(50));
        // By t=60 the entry has drained; no stall.
        assert_eq!(q.admit(Cycle::new(60)), Cycle::new(60));
        assert_eq!(q.stall_cycles(), 0);
        assert_eq!(q.peak_occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Wpq::new(0);
    }
}
