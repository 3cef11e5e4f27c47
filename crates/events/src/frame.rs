//! The workspace's one checksummed byte envelope.
//!
//! Every byte format the simulator writes and later reads back is a
//! sequence of frames:
//!
//! ```text
//! [tag u8][len u32][payload: len bytes][fnv u64]
//! ```
//!
//! All integers are little-endian, and the FNV-1a 64 checksum covers
//! the tag, the length bytes and the payload. A reader accepts a frame
//! whole or not at all, so a torn write or a flipped bit is discarded
//! as a unit. The device image is a header followed by frames, one per
//! persisted tuple or component (`plp_nvm::image`); a run-cache entry
//! is one frame (`plp_bench::cache`); a trace file is one frame
//! (`plp_trace::codec`). The tag says which payload layout follows.
//!
//! [`intact_prefix`] finds the intact frames at the front of a
//! sequence of them (a device image's body), checking several
//! checksums at a time, and [`split_frames`] hands them out in place.
//! [`Reader`] walks a payload field by field with every read bounds
//! checked, so no decoder indexes a byte slice by hand.

/// Bytes a frame adds around its payload: tag, length and checksum.
pub const FRAME_OVERHEAD: usize = 13;

/// The longest payload a frame can carry (its length field is a `u32`).
pub const MAX_PAYLOAD: usize = u32::MAX as usize;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One FNV-1a 64 step: the core [`fnv1a`] and [`fnv1a_lanes`] share.
#[inline(always)]
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// Continues an FNV-1a 64 chain from `h` over `bytes`.
#[inline(always)]
fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv_step(h, b))
}

/// FNV-1a 64 over `bytes`: the frame checksum, the device-image header
/// checksum, and the run cache's content address. Dependency-free and
/// deterministic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_BASIS, bytes)
}

/// FNV-1a 64 over each of `N` byte strings at once: result `k` is
/// `fnv1a(lanes[k])`.
///
/// One FNV-1a chain is a serial multiply chain, each step waiting on
/// the last. Here the `N` chains advance in lockstep, one step each per
/// byte over the length every lane has, so their multiplies overlap;
/// then each lane's remaining tail runs alone. The gain comes from
/// lanes of equal or similar length, such as the frames of one device
/// image.
fn fnv1a_lanes<const N: usize>(lanes: [&[u8]; N]) -> [u64; N] {
    let common = lanes.iter().map(|l| l.len()).min().unwrap_or(0);
    let heads = lanes.map(|l| &l[..common]);
    let mut h = [FNV_BASIS; N];
    for i in 0..common {
        for (h, head) in h.iter_mut().zip(&heads) {
            *h = fnv_step(*h, head[i]);
        }
    }
    for (h, lane) in h.iter_mut().zip(&lanes) {
        *h = fnv_fold(*h, &lane[common..]);
    }
    h
}

/// Encodes one complete frame: `[tag][len u32][payload][fnv u64]`.
///
/// # Panics
///
/// Panics if `payload` is longer than [`MAX_PAYLOAD`]; writers of
/// unbounded payloads check the length first.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame_into(&mut frame, tag, payload);
    frame
}

/// Appends one complete frame to `out`, as [`encode_frame`] encodes
/// it.
///
/// # Panics
///
/// Panics if `payload` is longer than [`MAX_PAYLOAD`].
pub fn encode_frame_into(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "frame payload exceeds its u32 length field"
    );
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Why the leading bytes are not an intact frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes end before the frame its length field declares.
    Truncated,
    /// The frame is complete but its checksum does not match.
    Checksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Decodes the frame at the front of `bytes`.
///
/// Returns `(tag, payload, frame_len)`; the bytes past `frame_len` are
/// left for the caller (the next frame, or trailing garbage).
///
/// # Errors
///
/// [`FrameError::Truncated`] when `bytes` end inside the frame and
/// [`FrameError::Checksum`] when the checksum does not cover them.
pub fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8], usize), FrameError> {
    let mut r = Reader::new(bytes);
    let (Some(tag), Some(len)) = (r.u8(), r.u32()) else {
        return Err(FrameError::Truncated);
    };
    let len = len as usize;
    let payload = r.take(len).ok_or(FrameError::Truncated)?;
    let sum = r.u64().ok_or(FrameError::Truncated)?;
    if sum != fnv1a(&bytes[..5 + len]) {
        return Err(FrameError::Checksum);
    }
    Ok((tag, payload, FRAME_OVERHEAD + len))
}

/// Frames whose checksums [`intact_prefix`] computes together, as
/// independent FNV-1a chains. On the 252 cut device images of a
/// `crash_recovery` pass, four replayed as fast as six and faster than
/// one, two or eight (EXPERIMENTS.md, "In-place image replay").
pub const LANES: usize = 4;

/// The length of the frame at the front of `bytes`, if its length
/// field fits and the whole frame does too; its checksum is not read.
fn whole_frame_len(bytes: &[u8]) -> Option<usize> {
    let len = Reader::new(bytes.get(1..)?).u32()?;
    let frame = FRAME_OVERHEAD.checked_add(len as usize)?;
    (frame <= bytes.len()).then_some(frame)
}

/// `(frames, len)` of the intact prefix of a sequence of frames:
/// `bytes[..len]` is `frames` whole frames whose checksums match, and
/// the frame after them is truncated or fails its checksum. These are
/// exactly the frames that [`decode_frame`], called on one frame after
/// another until it fails, accepts.
///
/// Each batch is the next [`LANES`] frames by their length fields, and
/// their checksums run in lockstep (`fnv1a_lanes`); the batch is
/// accepted up to its first mismatch, and a batch cut short by a frame
/// that does not fit is the last. Where a frame starts depends only on
/// the length fields before it, so the batches hold the frames the
/// frame-by-frame loop sees, at the same offsets, and both stop at the
/// same one: the first that fails its checksum, or else the first that
/// does not fit.
pub fn intact_prefix(bytes: &[u8]) -> (usize, usize) {
    let (mut frames, mut at) = (0, 0);
    loop {
        let mut batch: [&[u8]; LANES] = [&[]; LANES];
        let mut found = 0;
        let mut rest = &bytes[at..];
        for slot in &mut batch {
            let Some(len) = whole_frame_len(rest) else {
                break;
            };
            (*slot, rest) = rest.split_at(len);
            found += 1;
        }
        let covered = batch.map(|frame| &frame[..frame.len().saturating_sub(8)]);
        let sums = fnv1a_lanes(covered);
        for (frame, sum) in batch[..found].iter().zip(sums) {
            if frame.last_chunk::<8>().map(|s| u64::from_le_bytes(*s)) != Some(sum) {
                return (frames, at);
            }
            frames += 1;
            at += frame.len();
        }
        if found < LANES {
            return (frames, at);
        }
    }
}

/// Each frame's `(tag, payload)` in `bytes`, a sequence of whole frames
/// such as the prefix [`intact_prefix`] accepts. The checksums are not
/// read again; a frame that does not fit ends the sequence.
pub fn split_frames(bytes: &[u8]) -> impl Iterator<Item = (u8, &[u8])> {
    let mut r = Reader::new(bytes);
    std::iter::from_fn(move || {
        let (tag, len) = (r.u8()?, r.u32()?);
        let payload = r.take(len as usize)?;
        r.take(8)?;
        Some((tag, payload))
    })
}

/// Appends `s` as a `u32` byte length and its UTF-8 bytes, the layout
/// [`Reader::str`] reads.
///
/// # Panics
///
/// Panics if `s` is longer than `u32::MAX` bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(
        s.len() <= MAX_PAYLOAD,
        "string longer than its u32 length prefix"
    );
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian cursor over a payload.
///
/// Every read returns `None` instead of panicking when the payload is
/// too short, and consumes nothing in that case; a decoder that has
/// read every field checks [`Reader::is_empty`] to reject a payload
/// that is too long.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.rest.len() {
            return None;
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Some(head)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next string written by [`put_str`]; `None` if it is cut
    /// short or is not UTF-8.
    pub fn str(&mut self) -> Option<&'a str> {
        let mut peek = self.clone();
        let len = peek.u32()? as usize;
        let s = std::str::from_utf8(peek.take(len)?).ok()?;
        *self = peek;
        Some(s)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_is_tag_len_payload_checksum() {
        let frame = encode_frame(9, b"hello");
        assert_eq!(frame.len(), FRAME_OVERHEAD + 5);
        assert_eq!(frame[0], 9);
        assert_eq!(frame[1..5], 5u32.to_le_bytes());
        assert_eq!(&frame[5..10], b"hello");
        assert_eq!(frame[10..], fnv1a(&frame[..10]).to_le_bytes());
        assert_eq!(decode_frame(&frame), Ok((9, &b"hello"[..], frame.len())));
    }

    #[test]
    fn lanes_hash_each_lane_as_fnv1a_does() {
        let bytes: Vec<u8> = (0..=255).collect();
        for lens in [
            [0, 0, 0, 0],
            [5, 5, 5, 5],
            [0, 7, 200, 3],
            [256, 1, 64, 255],
        ] {
            let lanes = [0, 1, 2, 3].map(|k| &bytes[k..k + lens[k].min(256 - k)]);
            assert_eq!(fnv1a_lanes(lanes), lanes.map(fnv1a), "lengths {lens:?}");
        }
    }

    #[test]
    fn decode_leaves_following_bytes_alone() {
        let mut bytes = encode_frame(1, b"ab");
        let first = bytes.len();
        bytes.extend_from_slice(&encode_frame(2, b"cde"));
        let (tag, payload, used) = decode_frame(&bytes).unwrap();
        assert_eq!((tag, payload, used), (1, &b"ab"[..], first));
        assert_eq!(
            decode_frame(&bytes[used..]),
            Ok((2, &b"cde"[..], bytes.len() - first))
        );
    }

    #[test]
    fn reader_reads_in_order_and_never_overruns() {
        let mut payload = vec![7u8];
        payload.extend_from_slice(&0xAABB_CCDDu32.to_le_bytes());
        payload.extend_from_slice(&42u64.to_le_bytes());
        put_str(&mut payload, "sp");
        let mut r = Reader::new(&payload);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xAABB_CCDD));
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.str(), Some("sp"));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None);

        // A short read consumes nothing.
        let mut r = Reader::new(&payload[..3]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.remaining(), 3);
        // A string whose declared length overruns, or that is not
        // UTF-8, is refused without consuming its length prefix.
        let mut bad = Vec::new();
        put_str(&mut bad, "abc");
        let mut r = Reader::new(&bad[..6]);
        assert_eq!(r.str(), None);
        assert_eq!(r.remaining(), 6);
        let last = bad.len() - 1;
        bad[last] = 0xFF;
        assert_eq!(Reader::new(&bad).str(), None);
    }
}
