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
//! persisted tuple or component (`plp_nvm::image`); a run-cache entry,
//! which is also what an isolated matrix child writes to its parent, is
//! one frame (`plp_bench::cache`); a trace file is one frame
//! (`plp_trace::codec`). The tag says which payload layout follows.
//!
//! [`Reader`] walks a payload field by field with every read bounds
//! checked, so no decoder indexes a byte slice by hand.

/// Bytes a frame adds around its payload: tag, length and checksum.
pub const FRAME_OVERHEAD: usize = 13;

/// The longest payload a frame can carry (its length field is a `u32`).
pub const MAX_PAYLOAD: usize = u32::MAX as usize;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64 over `bytes`: the frame checksum, the device-image header
/// checksum, and the run cache's content address. Dependency-free and
/// deterministic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_BASIS;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
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
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "frame payload exceeds its u32 length field"
    );
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let sum = fnv1a(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
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
