//! File-backed persistent device images.
//!
//! A simulation that is SIGKILLed must leave behind a device image
//! the parent can reopen and recover; in-memory state dies with the
//! process. This module is that durable image — an append-only,
//! write-through file format mirroring the persist stream.
//!
//! The crash model is **process death**, not power loss: once
//! `write(2)` has returned, the bytes live in the kernel page cache
//! and survive a SIGKILL of the writer, so the writer never fsyncs.
//!
//! # Layout
//!
//! ```text
//! [ 64-byte header ][ frame ][ frame ] ... [ possibly torn tail ]
//! ```
//!
//! Header (all integers little-endian):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | magic `PLPNVM1\0` |
//! | 8      | 4    | format version (currently 1) |
//! | 12     | 4    | tree levels |
//! | 16     | 8    | tree arity |
//! | 24     | 8    | trace seed |
//! | 32     | 1    | scheme-name length |
//! | 33     | 23   | scheme name, zero-padded |
//! | 56     | 8    | FNV-1a 64 checksum of bytes 0..56 |
//!
//! Each frame is a `plp_events::frame` frame,
//! `[tag u8][len u32][payload][fnv u64]`, where the checksum covers the
//! tag, the length bytes, and the payload. Frame payloads are opaque
//! here — `plp_core` defines the tags for tuple components, root seals,
//! and epoch seals.
//!
//! Readers tolerate a torn *tail* (a frame cut short or failing its
//! checksum, i.e. the write the kill landed on): everything from the
//! first bad frame onward is discarded and reported, never an error.
//! A corrupt *header* is an error — the image is unusable — reported
//! as a typed [`NvmError`], never a panic.
//!
//! # Reading
//!
//! [`ImageReader`] reads the file once and decodes it in place. It
//! validates the header, finds the intact frame prefix with
//! [`plp_events::frame::intact_prefix`], which checks the checksums
//! several frames at a time and accepts exactly the frames a
//! frame-by-frame `decode_frame` loop accepts, and then hands out each
//! frame's `(tag, payload)` as a slice of its one buffer, so no frame
//! is copied. Everything after the prefix is the torn tail.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use plp_events::frame::{
    encode_frame_into, fnv1a, intact_prefix, split_frames, Reader, FRAME_OVERHEAD,
};

use crate::NvmError;

/// Magic bytes opening every image file.
pub const IMAGE_MAGIC: [u8; 8] = *b"PLPNVM1\0";
/// Current image format version.
pub const IMAGE_VERSION: u32 = 1;
/// Fixed on-disk header size in bytes.
pub const IMAGE_HEADER_BYTES: usize = 64;
/// Longest scheme name the header can carry.
pub const IMAGE_SCHEME_MAX: usize = 23;

/// Identity of an image: which run produced it, against which geometry.
///
/// Enough for a reader to rebuild the matching integrity tree and to
/// refuse images from a different run than the one it expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageHeader {
    /// Integrity-tree arity the run was configured with.
    pub arity: u64,
    /// Integrity-tree levels the run was configured with.
    pub levels: u32,
    /// Trace seed of the producing run.
    pub seed: u64,
    /// Stable scheme name of the producing run (e.g. `"sp"`).
    pub scheme: String,
}

impl ImageHeader {
    /// Encodes the header into its fixed 64-byte on-disk form.
    ///
    /// Scheme names longer than [`IMAGE_SCHEME_MAX`] are truncated at a
    /// byte boundary; every stable scheme name in the workspace is far
    /// shorter.
    pub fn encode(&self) -> [u8; IMAGE_HEADER_BYTES] {
        let mut out = [0u8; IMAGE_HEADER_BYTES];
        out[0..8].copy_from_slice(&IMAGE_MAGIC);
        out[8..12].copy_from_slice(&IMAGE_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.levels.to_le_bytes());
        out[16..24].copy_from_slice(&self.arity.to_le_bytes());
        out[24..32].copy_from_slice(&self.seed.to_le_bytes());
        let name = self.scheme.as_bytes();
        let take = name.len().min(IMAGE_SCHEME_MAX);
        out[32] = take as u8;
        out[33..33 + take].copy_from_slice(&name[..take]);
        let sum = fnv1a(&out[..56]);
        out[56..64].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes a header from its on-disk form, validating magic,
    /// version, checksum, and the scheme-name field.
    pub fn decode(bytes: &[u8; IMAGE_HEADER_BYTES]) -> Result<Self, NvmError> {
        let mut r = Reader::new(bytes);
        let corrupt = NvmError::ImageHeaderCorrupt;
        if r.array() != Some(IMAGE_MAGIC) {
            return Err(NvmError::ImageBadMagic);
        }
        let version = r.u32().ok_or(corrupt)?;
        if version != IMAGE_VERSION {
            return Err(NvmError::ImageBadVersion { version });
        }
        let (Some(levels), Some(arity), Some(seed), Some(name_len), Some(name), Some(sum)) = (
            r.u32(),
            r.u64(),
            r.u64(),
            r.u8(),
            r.array::<IMAGE_SCHEME_MAX>(),
            r.u64(),
        ) else {
            return Err(corrupt);
        };
        if sum != fnv1a(&bytes[..56]) {
            return Err(corrupt);
        }
        let scheme = name
            .get(..usize::from(name_len))
            .and_then(|n| std::str::from_utf8(n).ok())
            .ok_or(corrupt)?;
        Ok(ImageHeader {
            arity,
            levels,
            seed,
            scheme: scheme.to_string(),
        })
    }
}

/// Write-through appender for a device image.
///
/// Every append is a single `write_all` straight to the file — no
/// userspace buffering, so a SIGKILL between appends loses nothing and
/// a SIGKILL *during* an append tears at most the final frame, which
/// readers discard. Each frame is encoded into one reused buffer, so
/// an append allocates nothing once the buffer has grown to the
/// largest frame.
#[derive(Debug)]
pub struct ImageWriter {
    file: File,
    frame: Vec<u8>,
}

impl ImageWriter {
    /// Creates (truncating) the image file and writes its header.
    pub fn create(path: &Path, header: &ImageHeader) -> Result<Self, NvmError> {
        let mut file = File::create(path).map_err(|_| NvmError::ImageIo { op: "create" })?;
        file.write_all(&header.encode())
            .map_err(|_| NvmError::ImageIo { op: "write" })?;
        Ok(ImageWriter {
            file,
            frame: Vec::new(),
        })
    }

    /// Appends one complete frame.
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> Result<(), NvmError> {
        self.write_frame(tag, payload, usize::MAX)
    }

    /// Appends only the first `keep` bytes of the frame — the
    /// deterministic stand-in for a write the kill lands on. Readers
    /// will discard the torn frame, so an `append_torn` followed by
    /// process death leaves the image exactly as if the frame were
    /// never attempted.
    pub fn append_torn(&mut self, tag: u8, payload: &[u8], keep: usize) -> Result<(), NvmError> {
        self.write_frame(tag, payload, keep.min(FRAME_OVERHEAD + payload.len() - 1))
    }

    /// Encodes one frame into the reused buffer and writes its first
    /// `keep` bytes with one `write_all`.
    fn write_frame(&mut self, tag: u8, payload: &[u8], keep: usize) -> Result<(), NvmError> {
        self.frame.clear();
        encode_frame_into(&mut self.frame, tag, payload);
        let keep = keep.min(self.frame.len());
        self.file
            .write_all(&self.frame[..keep])
            .map_err(|_| NvmError::ImageIo { op: "write" })
    }
}

/// A device image read into memory: its validated header and its
/// intact frame prefix, decoded in place.
///
/// Header problems are hard, typed errors. A bad frame is *not* an
/// error: frames after the last intact one are the write the kill
/// interrupted, so they are counted into
/// [`ImageReader::torn_tail_bytes`] and skipped — tuple atomicity at
/// the medium level.
#[derive(Debug)]
pub struct ImageReader {
    header: ImageHeader,
    bytes: Vec<u8>,
    /// Where the intact frame prefix ends.
    intact_end: usize,
    frames: usize,
}

impl ImageReader {
    /// Reads the image file at `path` and validates its header, then
    /// finds its intact frame prefix.
    pub fn open(path: &Path) -> Result<Self, NvmError> {
        let bytes = std::fs::read(path).map_err(|_| NvmError::ImageIo { op: "read" })?;
        let Some(head) = Reader::new(&bytes).array() else {
            return Err(NvmError::ImageHeaderTruncated {
                len: bytes.len() as u64,
            });
        };
        let header = ImageHeader::decode(&head)?;
        let (frames, intact) = intact_prefix(&bytes[IMAGE_HEADER_BYTES..]);
        Ok(ImageReader {
            header,
            intact_end: IMAGE_HEADER_BYTES + intact,
            frames,
            bytes,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &ImageHeader {
        &self.header
    }

    /// Every intact frame's `(tag, payload)`, in append order.
    pub fn frames(&self) -> impl Iterator<Item = (u8, &[u8])> + '_ {
        split_frames(&self.bytes[IMAGE_HEADER_BYTES..self.intact_end])
    }

    /// How many frames are intact.
    pub fn frame_count(&self) -> usize {
        self.frames
    }

    /// Bytes discarded from the first bad frame onward (0 for a
    /// cleanly closed image). Nonzero means the writer died mid-frame.
    pub fn torn_tail_bytes(&self) -> u64 {
        (self.bytes.len() - self.intact_end) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_events::frame::{decode_frame, encode_frame, FrameError};

    /// The intact frames of `img`, copied out.
    fn records(img: &ImageReader) -> Vec<(u8, Vec<u8>)> {
        img.frames().map(|(tag, p)| (tag, p.to_vec())).collect()
    }

    fn header() -> ImageHeader {
        ImageHeader {
            arity: 8,
            levels: 9,
            seed: 7,
            scheme: "sp".to_string(),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("plp_image_{}_{name}.img", std::process::id()))
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_corruption() {
        // The frames an image is made of: what `append` writes,
        // `decode_frame` returns whole; a cut frame is truncated and a
        // flipped payload bit fails the checksum.
        let frame = encode_frame(9, b"hello");
        let (tag, payload, used) = decode_frame(&frame).expect("intact frame decodes");
        assert_eq!((tag, payload, used), (9, &b"hello"[..], frame.len()));
        assert_eq!(
            decode_frame(&frame[..frame.len() - 1]),
            Err(FrameError::Truncated)
        );
        let mut flipped = frame.clone();
        flipped[7] ^= 0x10;
        assert_eq!(decode_frame(&flipped), Err(FrameError::Checksum));
    }

    #[test]
    fn header_round_trips() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(ImageHeader::decode(&bytes), Ok(h));
    }

    #[test]
    fn header_rejects_bad_magic() {
        let mut bytes = header().encode();
        bytes[0] ^= 0xff;
        assert_eq!(ImageHeader::decode(&bytes), Err(NvmError::ImageBadMagic));
    }

    #[test]
    fn header_rejects_bad_version() {
        let mut bytes = header().encode();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            ImageHeader::decode(&bytes),
            Err(NvmError::ImageBadVersion { version: 9 })
        );
    }

    #[test]
    fn header_rejects_flipped_bit_anywhere_past_magic() {
        for byte in 12..56 {
            let mut bytes = header().encode();
            bytes[byte] ^= 0x40;
            assert_eq!(
                ImageHeader::decode(&bytes),
                Err(NvmError::ImageHeaderCorrupt),
                "flip at byte {byte} must be caught"
            );
        }
    }

    #[test]
    fn write_read_round_trip_and_torn_tail() {
        let path = temp_path("roundtrip");
        let mut w = ImageWriter::create(&path, &header()).unwrap();
        w.append(1, &[1, 2, 3]).unwrap();
        w.append(2, b"payload").unwrap();
        w.append_torn(3, &[9; 40], 11).unwrap();
        drop(w);

        let img = ImageReader::open(&path).unwrap();
        assert_eq!(img.header(), &header());
        assert_eq!(
            records(&img),
            vec![(1, vec![1, 2, 3]), (2, b"payload".to_vec())]
        );
        assert_eq!(img.frame_count(), 2);
        assert_eq!(img.torn_tail_bytes(), 11);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_header_is_typed_error() {
        let path = temp_path("short");
        std::fs::write(&path, &header().encode()[..30]).unwrap();
        assert_eq!(
            ImageReader::open(&path).unwrap_err(),
            NvmError::ImageHeaderTruncated { len: 30 }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_checksum_drops_tail() {
        let path = temp_path("badframe");
        let mut w = ImageWriter::create(&path, &header()).unwrap();
        w.append(1, &[5; 8]).unwrap();
        w.append(2, &[6; 8]).unwrap();
        drop(w);
        // Flip a payload byte of the second frame; its checksum now
        // fails, so only the first frame survives.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_frame = IMAGE_HEADER_BYTES + 13 + 8;
        bytes[second_frame + 6] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let img = ImageReader::open(&path).unwrap();
        assert_eq!(records(&img), vec![(1, vec![5; 8])]);
        assert_eq!(img.torn_tail_bytes(), 21);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_image_has_no_records() {
        let path = temp_path("empty");
        let w = ImageWriter::create(&path, &header()).unwrap();
        drop(w);
        let img = ImageReader::open(&path).unwrap();
        assert_eq!(img.frames().count(), 0);
        assert_eq!(img.frame_count(), 0);
        assert_eq!(img.torn_tail_bytes(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
