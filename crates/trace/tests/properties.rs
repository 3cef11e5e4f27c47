//! Property-based tests for trace generation and the codec, including
//! a fuzz of the trace decoder.

use plp_events::addr::BlockAddr;
use plp_events::frame::{encode_frame, FrameError};
use plp_trace::codec::{self, TraceError};
use plp_trace::{Op, Trace, TraceEvent, TraceGenerator, WorkloadProfile};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        5.0f64..200.0,
        0.0f64..1.0,
        0.0f64..0.95,
        1u64..2_000,
        1.0f64..64.0,
    )
        .prop_map(|(stores, nonstack_frac, repeat, fp, run)| {
            WorkloadProfile::builder("prop")
                .base_ipc(1.0)
                .store_ppki(stores, stores * nonstack_frac)
                .load_ppki(50.0)
                .locality(repeat, fp, run)
                .build()
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    arb_trace_of(0..300)
}

/// Short enough to flip every bit of its encoding.
fn arb_short_trace() -> impl Strategy<Value = Trace> {
    arb_trace_of(0..24)
}

fn arb_trace_of(events: std::ops::Range<usize>) -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u32..10_000, 0u64..u64::MAX / 64, 0u8..3), events).prop_map(|evs| {
        Trace::new(
            evs.into_iter()
                .map(|(gap, a, k)| TraceEvent {
                    gap_instructions: gap,
                    op: match k {
                        0 => Op::Load {
                            addr: BlockAddr::new(a),
                        },
                        1 => Op::Store {
                            addr: BlockAddr::new(a),
                            stack: false,
                        },
                        _ => Op::Store {
                            addr: BlockAddr::new(a),
                            stack: true,
                        },
                    },
                })
                .collect(),
        )
    })
}

proptest! {
    /// Codec round-trip is lossless for arbitrary traces (not just
    /// generated ones).
    #[test]
    fn codec_round_trip(trace in arb_trace()) {
        let bytes = codec::encode_trace(&trace);
        prop_assert_eq!(codec::decode_trace(&bytes), Ok(trace));
    }

    /// Arbitrary bytes are never a trace: the decoder refuses them
    /// with a typed error instead of panicking.
    #[test]
    fn decoder_refuses_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(codec::decode_trace(&bytes).is_err());
    }

    /// An arbitrary payload inside an intact trace frame either is
    /// refused as malformed or decodes to the trace its bytes spell,
    /// which re-encodes to the same file.
    #[test]
    fn decoder_is_faithful_on_arbitrary_payloads(
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let bytes = encode_frame(codec::TRACE_TAG, &payload);
        match codec::decode_trace(&bytes) {
            Ok(trace) => prop_assert_eq!(codec::encode_trace(&trace), bytes),
            Err(e) => prop_assert_eq!(e, TraceError::Malformed),
        }
    }

    /// Every strict prefix of a trace file is truncated, and every
    /// one-bit flip is refused: the checksum covers every event.
    #[test]
    fn decoder_refuses_every_cut_and_bit_flip(trace in arb_short_trace()) {
        let bytes = codec::encode_trace(&trace);
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                codec::decode_trace(&bytes[..cut]),
                Err(TraceError::Frame(FrameError::Truncated))
            );
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                matches!(codec::decode_trace(&flipped), Err(TraceError::Frame(_))),
                "flip of bit {} was not refused by the frame",
                bit
            );
        }
    }

    /// Generation hits the requested store rates for any profile.
    #[test]
    fn generated_rates_track_profile(profile in arb_profile(), seed in any::<u64>()) {
        let t = TraceGenerator::new(profile.clone(), seed).generate(400_000);
        let full = t.store_ppki(true);
        prop_assert!(
            (full - profile.store_ppki_full).abs() / profile.store_ppki_full < 0.25,
            "full PPKI {full} vs {}", profile.store_ppki_full
        );
        // The instruction budget is met without gross overshoot.
        prop_assert!(t.total_instructions() >= 400_000);
        prop_assert!(t.total_instructions() < 700_000);
    }

    /// All generated addresses stay inside the synthetic address map
    /// (heap footprint or stack region) — nothing escapes into the
    /// metadata regions.
    #[test]
    fn addresses_stay_in_bounds(profile in arb_profile(), seed in any::<u64>()) {
        use plp_trace::{HEAP_BASE_PAGE, STACK_BASE_PAGE, STACK_PAGES};
        let t = TraceGenerator::new(profile.clone(), seed).generate(20_000);
        for ev in &t {
            let page = ev.op.addr().page().index();
            let in_heap =
                (HEAP_BASE_PAGE..HEAP_BASE_PAGE + profile.footprint_pages).contains(&page);
            let in_stack =
                (STACK_BASE_PAGE..STACK_BASE_PAGE + STACK_PAGES).contains(&page);
            prop_assert!(in_heap || in_stack, "page {page:#x} outside the map");
            if ev.op.is_stack_store() {
                prop_assert!(in_stack);
            }
        }
    }
}
