//! Property-based tests for the device-image codec: every well-formed
//! header round-trips through its 64-byte on-disk form, and any single
//! corrupted byte is detected as a typed error — the crash harness must
//! never mistake a damaged header for a clean one. Behind a valid
//! header, whatever the frame bytes are, the reader keeps exactly the
//! intact frames before the first bad one and counts the rest as a
//! torn tail, never an error and never a wrong record.

use plp_events::frame::encode_frame;
use plp_nvm::image::{ImageHeader, ImageReader, IMAGE_HEADER_BYTES};
use plp_nvm::NvmError;
use proptest::prelude::*;

fn image_header() -> ImageHeader {
    ImageHeader {
        arity: 8,
        levels: 9,
        seed: 7,
        scheme: "sp".to_string(),
    }
}

/// One frame's tag and payload.
type Record = (u8, Vec<u8>);

/// Writes a valid header followed by `body`, reads it back, and
/// removes the file.
fn read_back(name: &str, body: &[u8]) -> (Vec<Record>, u64) {
    let path =
        std::env::temp_dir().join(format!("plp-image-props-{}-{name}.img", std::process::id()));
    let mut bytes = image_header().encode().to_vec();
    bytes.extend_from_slice(body);
    std::fs::write(&path, &bytes).unwrap();
    let image = ImageReader::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(image.header(), &image_header());
    let records: Vec<Record> = image.frames().map(|(t, p)| (t, p.to_vec())).collect();
    assert_eq!(records.len(), image.frame_count());
    (records, image.torn_tail_bytes())
}

/// Intact frames with arbitrary tags and payloads.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..24)),
        0..6,
    )
}

fn encode_records(records: &[Record]) -> Vec<Vec<u8>> {
    records
        .iter()
        .map(|(tag, payload)| encode_frame(*tag, payload))
        .collect()
}

fn scheme_from(letters: &[u8]) -> String {
    letters
        .iter()
        .map(|l| char::from(b'a' + (l % 26)))
        .collect()
}

proptest! {
    /// encode → decode is the identity for any geometry, seed, and
    /// scheme name that fits the fixed-width field.
    #[test]
    fn header_codec_round_trips(
        arity in any::<u64>(),
        levels in any::<u32>(),
        seed in any::<u64>(),
        letters in prop::collection::vec(any::<u8>(), 0..23),
    ) {
        let header = ImageHeader {
            arity,
            levels,
            seed,
            scheme: scheme_from(&letters),
        };
        let bytes = header.encode();
        prop_assert_eq!(ImageHeader::decode(&bytes), Ok(header));
    }

    /// Flipping any single bit anywhere in the header is detected:
    /// bad magic, bad version, or a checksum mismatch — never a
    /// silently accepted wrong header, never a panic.
    #[test]
    fn header_codec_detects_any_single_bit_flip(
        arity in any::<u64>(),
        levels in any::<u32>(),
        seed in any::<u64>(),
        letters in prop::collection::vec(any::<u8>(), 0..23),
        byte in 0usize..IMAGE_HEADER_BYTES,
        bit in 0u32..8,
    ) {
        let header = ImageHeader {
            arity,
            levels,
            seed,
            scheme: scheme_from(&letters),
        };
        let mut bytes = header.encode();
        bytes[byte] ^= 1u8 << bit;
        let decoded = ImageHeader::decode(&bytes);
        prop_assert!(
            decoded != Ok(header),
            "corrupted header at byte {} bit {} decoded cleanly",
            byte,
            bit
        );
        // The error class is one of the typed image errors.
        if let Err(e) = decoded {
            prop_assert!(
                matches!(
                    e,
                    NvmError::ImageBadMagic
                        | NvmError::ImageBadVersion { .. }
                        | NvmError::ImageHeaderCorrupt
                ),
                "unexpected error class {e}"
            );
        }
    }

    /// Arbitrary bytes behind a valid header are a torn tail: no
    /// record, no error, no panic.
    #[test]
    fn arbitrary_frame_bytes_are_a_torn_tail(
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let (records, torn) = read_back("junk", &body);
        prop_assert!(records.is_empty());
        prop_assert_eq!(torn, body.len() as u64);
    }

    /// Intact frames followed by arbitrary bytes: the frames come back
    /// exactly, and the bytes after them are the torn tail.
    #[test]
    fn intact_frames_survive_any_tail(
        records in arb_records(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut body: Vec<u8> = encode_records(&records).concat();
        body.extend_from_slice(&tail);
        prop_assert_eq!(read_back("tail", &body), (records, tail.len() as u64));
    }

    /// Every cut of the frame bytes keeps exactly the frames wholly
    /// before it, and every one-bit flip drops the flipped frame and
    /// everything after it.
    #[test]
    fn every_cut_and_bit_flip_keeps_the_intact_prefix(records in arb_records()) {
        let frames = encode_records(&records);
        let body = frames.concat();
        let mut starts = vec![0];
        for f in &frames {
            starts.push(starts.last().unwrap() + f.len());
        }
        let whole_before = |at: usize| starts[1..].iter().filter(|&&end| end <= at).count();
        for cut in 0..=body.len() {
            let kept = whole_before(cut);
            let (got, torn) = read_back("cut", &body[..cut]);
            prop_assert_eq!(&got[..], &records[..kept], "cut {}", cut);
            prop_assert_eq!(torn, (cut - starts[kept]) as u64);
        }
        for bit in 0..body.len() * 8 {
            let mut flipped = body.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let hit = whole_before(bit / 8);
            let (got, torn) = read_back("flip", &flipped);
            prop_assert_eq!(&got[..], &records[..hit], "bit {}", bit);
            prop_assert_eq!(torn, (body.len() - starts[hit]) as u64);
        }
    }
}
