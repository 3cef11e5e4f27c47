//! Property-based tests for the base statistics.

use plp_events::stats::geometric_mean;
use proptest::prelude::*;

proptest! {
    /// Geometric mean is scale-equivariant: gm(k·xs) = k·gm(xs).
    #[test]
    fn gmean_scale_equivariant(
        xs in prop::collection::vec(0.01f64..100.0, 1..20),
        k in 0.1f64..10.0,
    ) {
        let gm = geometric_mean(&xs).unwrap();
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let gm2 = geometric_mean(&scaled).unwrap();
        prop_assert!((gm2 - k * gm).abs() / (k * gm) < 1e-9);
    }
}

/// Frame codec fuzz: the one decoder every byte format shares must
/// refuse whatever is not a frame with a typed error, never panic, and
/// never hand back bytes other than the ones encoded.
mod frame_fuzz {
    use plp_events::frame::{decode_frame, encode_frame, FrameError, Reader, FRAME_OVERHEAD};
    use proptest::prelude::*;

    /// The error an honest decoder owes `bytes`: truncated when they
    /// end before the frame their length field declares, else a
    /// checksum mismatch.
    fn expected_error(bytes: &[u8]) -> FrameError {
        match Reader::new(bytes.get(1..).unwrap_or(&[])).u32() {
            Some(len) if bytes.len() >= FRAME_OVERHEAD + len as usize => FrameError::Checksum,
            _ => FrameError::Truncated,
        }
    }

    proptest! {
        /// Arbitrary bytes are never a frame, and the error says why.
        #[test]
        fn arbitrary_bytes_are_refused_with_the_right_error(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            prop_assert_eq!(decode_frame(&bytes), Err(expected_error(&bytes)));
        }

        /// A frame decodes to exactly its tag and payload, whatever
        /// follows it.
        #[test]
        fn frames_round_trip_before_any_tail(
            tag in any::<u8>(),
            payload in prop::collection::vec(any::<u8>(), 0..256),
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut bytes = encode_frame(tag, &payload);
            let len = bytes.len();
            bytes.extend_from_slice(&tail);
            prop_assert_eq!(decode_frame(&bytes), Ok((tag, &payload[..], len)));
        }

        /// Every strict prefix of a frame is truncated, and every
        /// one-bit flip is refused: flips outside the length field fail
        /// the checksum, flips inside it fail one way or the other.
        #[test]
        fn every_cut_and_bit_flip_is_refused(
            tag in any::<u8>(),
            payload in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let bytes = encode_frame(tag, &payload);
            for cut in 0..bytes.len() {
                prop_assert_eq!(decode_frame(&bytes[..cut]), Err(FrameError::Truncated));
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let got = decode_frame(&flipped);
                prop_assert_eq!(got, Err(expected_error(&flipped)), "bit {}", bit);
                if !(1..5).contains(&(bit / 8)) {
                    prop_assert_eq!(got, Err(FrameError::Checksum), "bit {}", bit);
                }
            }
        }

        /// Reads past the end return `None` and consume nothing; reads
        /// that fit return the bytes in order.
        #[test]
        fn reader_never_overruns(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            widths in prop::collection::vec(0usize..4, 0..32),
        ) {
            let mut r = Reader::new(&bytes);
            let mut at = 0;
            for w in widths {
                let n = [1, 4, 8, 13][w];
                let left = r.remaining();
                let got = match w {
                    0 => r.u8().map(|v| vec![v]),
                    1 => r.u32().map(|v| v.to_le_bytes().to_vec()),
                    2 => r.u64().map(|v| v.to_le_bytes().to_vec()),
                    _ => r.take(n).map(<[u8]>::to_vec),
                };
                if n <= left {
                    prop_assert_eq!(got, Some(bytes[at..at + n].to_vec()));
                    at += n;
                } else {
                    prop_assert_eq!(got, None);
                    prop_assert_eq!(r.remaining(), left);
                }
            }
            prop_assert_eq!(r.remaining(), bytes.len() - at);
            prop_assert_eq!(r.is_empty(), at == bytes.len());
        }
    }
}
