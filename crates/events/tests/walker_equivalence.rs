//! The frame walker against a frame-by-frame golden model.
//!
//! `frame::intact_prefix` takes the frames `LANES` at a time by their
//! length fields and checks their checksums in lockstep, and
//! `frame::split_frames` hands out the frames it accepted. The golden
//! model is the loop they replaced, `decode_frame` on one frame after
//! another until the first error. For random frame sequences (payloads
//! of mixed lengths, empty ones included, and counts that leave a last
//! batch of one to `LANES - 1` frames), every cut, every one-bit flip
//! and every forged length field must give the same accepted
//! `(tag, payload)` list and the same torn tail under both.

use plp_events::frame::{
    decode_frame, encode_frame, intact_prefix, split_frames, FRAME_OVERHEAD, LANES,
};
use proptest::prelude::*;

/// One frame's tag and payload.
type Record = (u8, Vec<u8>);

/// The golden model: `decode_frame`, frame by frame, stopping at the
/// first frame that is truncated or fails its checksum.
fn golden(bytes: &[u8]) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut rest = bytes;
    while let Ok((tag, payload, used)) = decode_frame(rest) {
        records.push((tag, payload.to_vec()));
        rest = &rest[used..];
    }
    (records, rest.len())
}

/// What the walker accepts, and the bytes it leaves as a torn tail.
fn walked(bytes: &[u8]) -> (Vec<Record>, usize) {
    let (frames, len) = intact_prefix(bytes);
    let records: Vec<Record> = split_frames(&bytes[..len])
        .map(|(t, p)| (t, p.to_vec()))
        .collect();
    assert_eq!(records.len(), frames);
    (records, bytes.len() - len)
}

/// Frames with arbitrary tags; a payload is empty, a fixed 24 bytes
/// (so whole batches share one length, as in a device image), or any
/// length up to 40.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        (
            any::<u8>(),
            0u8..4,
            prop::collection::vec(any::<u8>(), 0..40),
        ),
        0..3 * LANES + 1,
    )
    .prop_map(|frames| {
        frames
            .into_iter()
            .map(|(tag, shape, mut payload)| {
                match shape {
                    0 => payload.clear(),
                    1 => payload.resize(24, 0xA5),
                    _ => {}
                }
                (tag, payload)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The walker and the golden model agree on the intact sequence,
    /// on every cut of it and on every one-bit flip in it.
    #[test]
    fn walker_accepts_what_frame_by_frame_decoding_accepts(records in arb_records()) {
        let body: Vec<u8> = records
            .iter()
            .flat_map(|(tag, payload)| encode_frame(*tag, payload))
            .collect();
        prop_assert_eq!(walked(&body), (records.clone(), 0));
        for cut in 0..=body.len() {
            prop_assert_eq!(walked(&body[..cut]), golden(&body[..cut]), "cut {}", cut);
        }
        for bit in 0..body.len() * 8 {
            let mut flipped = body.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(walked(&flipped), golden(&flipped), "bit {}", bit);
        }
    }

    /// A forged length field (0, one byte past the end of the bytes,
    /// or `u32::MAX`) on any frame, with or without bytes after the
    /// sequence: both accept the same prefix and tail.
    #[test]
    fn walker_agrees_on_forged_length_fields(
        records in arb_records(),
        tail in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut body = Vec::new();
        let mut starts = Vec::new();
        for (tag, payload) in &records {
            starts.push(body.len());
            body.extend_from_slice(&encode_frame(*tag, payload));
        }
        body.extend_from_slice(&tail);
        for &start in &starts {
            let past_end = (body.len() - start - FRAME_OVERHEAD + 1) as u32;
            for len in [0, past_end, u32::MAX] {
                let mut forged = body.clone();
                forged[start + 1..start + 5].copy_from_slice(&len.to_le_bytes());
                prop_assert_eq!(
                    walked(&forged),
                    golden(&forged),
                    "frame at {} forged to length {}",
                    start,
                    len
                );
            }
        }
    }
}
