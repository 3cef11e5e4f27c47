//! The on-disk trace format: one checksummed frame.
//!
//! Traces are deterministic given `(profile, seed)`, but persisting
//! them lets experiments be re-run byte-identically across versions of
//! the generator, exchanged between machines, or produced by external
//! tools (e.g. a real PIN/Valgrind pipeline feeding this simulator).
//!
//! A trace file is exactly one `plp_events::frame` frame,
//! `[tag u8][len u32][payload][fnv u64]`, with tag [`TRACE_TAG`] and
//! the events back to back as its payload (all little-endian):
//!
//! ```text
//! events  n × { gap: u32, kind: u8, addr: u64 }   13 bytes each
//! ```
//!
//! `kind` is 0 = load, 1 = heap store, 2 = stack store. The frame's
//! checksum covers every event, so a cut or corrupted file is refused
//! whole with a typed [`TraceError`], never half-loaded.

use std::io;
use std::path::Path;

use plp_events::addr::BlockAddr;
use plp_events::frame::{decode_frame, encode_frame, FrameError, Reader, MAX_PAYLOAD};

use crate::{Op, Trace, TraceEvent};

/// Frame tag of a trace file: the format's version. Version 1 was an
/// unchecksummed `PLPT` magic/version stream.
pub const TRACE_TAG: u8 = 2;

/// Encoded size of one event.
const EVENT_BYTES: usize = 13;

const KIND_LOAD: u8 = 0;
const KIND_STORE: u8 = 1;
const KIND_STACK_STORE: u8 = 2;

/// Why bytes are not a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The bytes are not one intact frame: cut short, or failing the
    /// checksum.
    Frame(FrameError),
    /// An intact frame of another format or version (its tag).
    WrongTag(u8),
    /// The payload is not whole events of known kinds, or bytes follow
    /// the frame.
    Malformed,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Frame(e) => write!(f, "not a PLP trace file ({e})"),
            TraceError::WrongTag(tag) => write!(f, "unsupported trace frame tag {tag}"),
            TraceError::Malformed => write!(f, "malformed trace payload"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Serializes a trace as one frame.
///
/// # Panics
///
/// Panics if the events do not fit one frame's `u32` length field
/// (about 330 million events); [`save_trace`] reports that as an error
/// instead.
///
/// # Example
///
/// ```
/// use plp_trace::{codec, spec, TraceGenerator};
///
/// let trace = TraceGenerator::new(spec::benchmark("milc").unwrap(), 1).generate(1_000);
/// let bytes = codec::encode_trace(&trace);
/// assert_eq!(codec::decode_trace(&bytes), Ok(trace));
/// ```
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut payload = Vec::with_capacity(trace.op_count() * EVENT_BYTES);
    for ev in trace {
        let (kind, addr) = match ev.op {
            Op::Load { addr } => (KIND_LOAD, addr),
            Op::Store { addr, stack: false } => (KIND_STORE, addr),
            Op::Store { addr, stack: true } => (KIND_STACK_STORE, addr),
        };
        payload.extend_from_slice(&ev.gap_instructions.to_le_bytes());
        payload.push(kind);
        payload.extend_from_slice(&addr.index().to_le_bytes());
    }
    encode_frame(TRACE_TAG, &payload)
}

/// Deserializes a trace written by [`encode_trace`].
///
/// # Errors
///
/// Returns the [`TraceError`] for the first check the bytes fail.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, TraceError> {
    let (tag, payload, used) = decode_frame(bytes).map_err(TraceError::Frame)?;
    if tag != TRACE_TAG {
        return Err(TraceError::WrongTag(tag));
    }
    if used != bytes.len() || !payload.len().is_multiple_of(EVENT_BYTES) {
        return Err(TraceError::Malformed);
    }
    let mut r = Reader::new(payload);
    let mut events = Vec::with_capacity(payload.len() / EVENT_BYTES);
    while let (Some(gap_instructions), Some(kind), Some(addr)) = (r.u32(), r.u8(), r.u64()) {
        let addr = BlockAddr::new(addr);
        let op = match kind {
            KIND_LOAD => Op::Load { addr },
            KIND_STORE => Op::Store { addr, stack: false },
            KIND_STACK_STORE => Op::Store { addr, stack: true },
            _ => return Err(TraceError::Malformed),
        };
        events.push(TraceEvent {
            gap_instructions,
            op,
        });
    }
    Ok(Trace::new(events))
}

/// Writes a trace to a file path.
///
/// # Errors
///
/// Propagates file-creation and write errors, and refuses a trace too
/// long for one frame with `InvalidInput`.
pub fn save_trace(trace: &Trace, path: impl AsRef<Path>) -> io::Result<()> {
    if trace.op_count() > MAX_PAYLOAD / EVENT_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "trace too long for one frame",
        ));
    }
    std::fs::write(path, encode_trace(trace))
}

/// Reads a trace from a file path.
///
/// # Errors
///
/// Propagates file-read errors; bytes that are not a trace file are
/// `InvalidData` carrying the [`TraceError`].
pub fn load_trace(path: impl AsRef<Path>) -> io::Result<Trace> {
    decode_trace(&std::fs::read(path)?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec, TraceGenerator};

    fn sample() -> Trace {
        TraceGenerator::new(spec::benchmark("gcc").unwrap(), 11).generate(5_000)
    }

    /// One event's 13 bytes, as `encode_trace` lays them out.
    fn event(gap: u32, kind: u8, addr: u64) -> Vec<u8> {
        let mut bytes = gap.to_le_bytes().to_vec();
        bytes.push(kind);
        bytes.extend_from_slice(&addr.to_le_bytes());
        bytes
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample();
        let back = decode_trace(&encode_trace(&trace)).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.total_instructions(), trace.total_instructions());
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new(Vec::new());
        assert_eq!(decode_trace(&encode_trace(&trace)), Ok(trace));
    }

    #[test]
    fn rejects_bad_magic() {
        // An empty version-1 file (`PLPT`, version 1, zero events) is
        // not a frame: its "length" runs far past its 16 bytes.
        let mut bytes = b"PLPT".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            decode_trace(&bytes),
            Err(TraceError::Frame(FrameError::Truncated))
        );
    }

    #[test]
    fn rejects_wrong_version() {
        // An intact frame under another tag: another format or version.
        let bytes = encode_frame(99, &event(1, KIND_LOAD, 0));
        assert_eq!(decode_trace(&bytes), Err(TraceError::WrongTag(99)));
    }

    #[test]
    fn rejects_truncation() {
        let mut bytes = encode_trace(&sample());
        bytes.truncate(bytes.len() - 3);
        assert_eq!(
            decode_trace(&bytes),
            Err(TraceError::Frame(FrameError::Truncated))
        );
    }

    #[test]
    fn rejects_unknown_kind() {
        let bytes = encode_frame(TRACE_TAG, &event(0, 77, 0));
        assert_eq!(decode_trace(&bytes), Err(TraceError::Malformed));
        // So is a payload of a partial event, and bytes past the frame.
        let bytes = encode_frame(TRACE_TAG, &event(0, KIND_LOAD, 0)[..12]);
        assert_eq!(decode_trace(&bytes), Err(TraceError::Malformed));
        let mut bytes = encode_trace(&sample());
        bytes.push(0);
        assert_eq!(decode_trace(&bytes), Err(TraceError::Malformed));
    }

    #[test]
    fn file_round_trip() {
        let trace = sample();
        let dir = std::env::temp_dir().join(format!("plp-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.plpt");
        save_trace(&trace, &path).unwrap();
        assert_eq!(load_trace(&path).unwrap(), trace);
        // A damaged file is refused as invalid data, never half-loaded.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_trace(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
