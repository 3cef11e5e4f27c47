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

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use plp_events::frame::{decode_frame, encode_frame, fnv1a, Reader};

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
/// readers discard.
#[derive(Debug)]
pub struct ImageWriter {
    file: File,
}

impl ImageWriter {
    /// Creates (truncating) the image file and writes its header.
    pub fn create(path: &Path, header: &ImageHeader) -> Result<Self, NvmError> {
        let mut file = File::create(path).map_err(|_| NvmError::ImageIo { op: "create" })?;
        file.write_all(&header.encode())
            .map_err(|_| NvmError::ImageIo { op: "write" })?;
        Ok(ImageWriter { file })
    }

    /// Appends one complete frame.
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> Result<(), NvmError> {
        self.file
            .write_all(&encode_frame(tag, payload))
            .map_err(|_| NvmError::ImageIo { op: "write" })
    }

    /// Appends only the first `keep` bytes of the frame — the
    /// deterministic stand-in for a write the kill lands on. Readers
    /// will discard the torn frame, so an `append_torn` followed by
    /// process death leaves the image exactly as if the frame were
    /// never attempted.
    pub fn append_torn(&mut self, tag: u8, payload: &[u8], keep: usize) -> Result<(), NvmError> {
        let frame = encode_frame(tag, payload);
        let keep = keep.min(frame.len().saturating_sub(1));
        self.file
            .write_all(&frame[..keep])
            .map_err(|_| NvmError::ImageIo { op: "write" })
    }
}

/// One intact frame recovered from an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageRecord {
    /// Frame tag (meaning assigned by the producer).
    pub tag: u8,
    /// Frame payload.
    pub payload: Vec<u8>,
}

/// Everything a reader recovers from an image file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageContents {
    /// Validated header.
    pub header: ImageHeader,
    /// All intact frames, in append order.
    pub records: Vec<ImageRecord>,
    /// Bytes discarded from the first bad frame onward (0 for a
    /// cleanly closed image). Nonzero means the writer died mid-frame.
    pub torn_tail_bytes: u64,
}

/// Reads and validates an image file.
///
/// Header problems are hard, typed errors. A bad frame is *not* an
/// error: frames after the last intact one are the write the kill
/// interrupted, so they are counted into
/// [`ImageContents::torn_tail_bytes`] and dropped — tuple atomicity at
/// the medium level.
pub fn read_image(path: &Path) -> Result<ImageContents, NvmError> {
    let mut file = File::open(path).map_err(|_| NvmError::ImageIo { op: "read" })?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|_| NvmError::ImageIo { op: "read" })?;
    let Some(head) = Reader::new(&bytes).array() else {
        return Err(NvmError::ImageHeaderTruncated {
            len: bytes.len() as u64,
        });
    };
    let header = ImageHeader::decode(&head)?;

    let mut records = Vec::new();
    let mut rest = &bytes[IMAGE_HEADER_BYTES..];
    while let Ok((tag, payload, used)) = decode_frame(rest) {
        records.push(ImageRecord {
            tag,
            payload: payload.to_vec(),
        });
        rest = &rest[used..];
    }
    Ok(ImageContents {
        header,
        records,
        torn_tail_bytes: rest.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_events::frame::FrameError;

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

        let img = read_image(&path).unwrap();
        assert_eq!(img.header, header());
        assert_eq!(
            img.records,
            vec![
                ImageRecord {
                    tag: 1,
                    payload: vec![1, 2, 3]
                },
                ImageRecord {
                    tag: 2,
                    payload: b"payload".to_vec()
                },
            ]
        );
        assert_eq!(img.torn_tail_bytes, 11);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_header_is_typed_error() {
        let path = temp_path("short");
        std::fs::write(&path, &header().encode()[..30]).unwrap();
        assert_eq!(
            read_image(&path),
            Err(NvmError::ImageHeaderTruncated { len: 30 })
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

        let img = read_image(&path).unwrap();
        assert_eq!(img.records.len(), 1);
        assert_eq!(img.torn_tail_bytes, 21);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_image_has_no_records() {
        let path = temp_path("empty");
        let w = ImageWriter::create(&path, &header()).unwrap();
        drop(w);
        let img = read_image(&path).unwrap();
        assert!(img.records.is_empty());
        assert_eq!(img.torn_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
