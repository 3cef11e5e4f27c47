//! Property-based tests for the NVM device model, focused on the
//! interval-based bank scheduler: out-of-order request times must
//! never produce overlapping bank occupancy or time travel.

use plp_events::addr::BlockAddr;
use plp_events::Cycle;
use plp_nvm::{Interleave, NvmConfig, NvmDevice};
use proptest::prelude::*;

fn arb_ops() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    // (request time, block, is_write) — times deliberately NOT sorted.
    prop::collection::vec((0u64..50_000, 0u64..4_096, any::<bool>()), 1..200)
}

proptest! {
    /// Completion never precedes the request: no time travel, even
    /// when requests arrive wildly out of order.
    #[test]
    fn completions_are_causal(ops in arb_ops(), block_interleave in any::<bool>()) {
        let mut d = NvmDevice::new(NvmConfig {
            interleave: if block_interleave {
                Interleave::BlockLevel
            } else {
                Interleave::RowLevel
            },
            ..NvmConfig::paper_default()
        });
        for (t, b, w) in ops {
            let now = Cycle::new(t);
            let done = if w {
                d.write(now, BlockAddr::new(b))
            } else {
                d.read(now, BlockAddr::new(b))
            };
            prop_assert!(done > now, "completion {done} not after request {now}");
        }
    }

    /// Per-bank occupancy intervals never overlap: replaying all
    /// requests to a single-bank device, each (start, end) pair
    /// derived from completions must be disjoint.
    #[test]
    fn single_bank_reservations_disjoint(times in prop::collection::vec(0u64..20_000, 1..100)) {
        let mut d = NvmDevice::new(NvmConfig {
            banks: 1,
            write_queue: 100_000,
            read_queue: 100_000,
            ..NvmConfig::paper_default()
        });
        // All writes to distinct blocks (no combining), one bank.
        let mut intervals = Vec::new();
        for (i, t) in times.iter().enumerate() {
            let done = d.write(Cycle::new(*t), BlockAddr::new(i as u64));
            let start = done.get() - 600; // tWR at 4 GHz
            intervals.push((start, done.get()));
        }
        intervals.sort();
        for w in intervals.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].0,
                "overlapping bank occupancy: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// Write combining never changes *what* is durable, only how many
    /// media writes happen: writes + combined writes equals requests.
    #[test]
    fn write_combining_accounting(ops in prop::collection::vec((0u64..10_000, 0u64..16), 1..200)) {
        let mut d = NvmDevice::new(NvmConfig::paper_default());
        let mut sorted = ops.clone();
        sorted.sort();
        for (t, b) in &sorted {
            let _ = d.write(Cycle::new(*t), BlockAddr::new(*b));
        }
        let s = d.stats();
        prop_assert_eq!(s.writes + s.writes_combined, sorted.len() as u64);
    }
}
