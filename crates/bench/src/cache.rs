//! The content-addressed on-disk run cache.
//!
//! A completed [`RunReport`] is a pure function of its request key
//! (benchmark, configuration, instruction count, seed — see
//! [`crate::RunRequest::key`]), so it can be stored on disk and reused
//! by any later invocation with the same key. Files live under
//! `results/cache/<fnv1a64(key)>.run`, and each holds exactly one
//! `plp_events::frame` frame, `[tag u8][len u32][payload][fnv u64]`.
//! The tag is the format version, 4; the payload is the
//! key, then every report field as a little-endian `u64` in
//! declaration order, with the sanitizer mode and each violation's
//! kind and scheme written as their stable names (a `u32` byte length,
//! then UTF-8). The same bytes are what an isolated matrix child writes
//! to its parent (`crate::isolate`). [`CACHE_FORMAT`] is folded into
//! every key: bumping it — or changing `SystemConfig`'s shape, which
//! changes the key's `Debug` rendering — invalidates all previous
//! entries.
//!
//! Robustness: the full key is stored in the entry and verified on
//! load, and the frame checksum covers every byte, so a hash collision,
//! a truncated write, or a flipped bit degrades to a quarantined entry
//! ([`load_checked`]) and a regeneration — never a wrong result and
//! never a harness abort. Rejected entries are moved to
//! `<cache>/quarantine/` so operators can inspect what corrupted them.
//! Only reports without per-persist records are cached
//! (`record_persists` runs are memory-heavy and used by crash analyses
//! that need the records anyway).

use std::path::{Path, PathBuf};

use plp_cache::CacheStats;
use plp_core::engine::EngineStats;
use plp_core::meta::MetadataStats;
use plp_core::sanitizer::{SanitizerMode, SanitizerSummary, Violation, ViolationKind};
use plp_core::{EpochId, RunReport, UpdateScheme};
use plp_events::frame::{decode_frame, encode_frame, fnv1a, put_str, FrameError, Reader};
use plp_events::Cycle;
use plp_nvm::NvmStats;

/// Cache format version; part of every content address, so entries of
/// another version are never even probed.
pub const CACHE_FORMAT: &str = "plp-run-cache v4";

/// Frame tag of an entry: the version number of [`CACHE_FORMAT`]. An
/// intact frame under another tag is [`CacheFault::Version`].
const ENTRY_TAG: u8 = 4;

/// The file a key's report is stored in, named by the key's 64-bit
/// FNV-1a — the content address.
pub fn cache_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.run", fnv1a(key.as_bytes())))
}

fn put_u64s(out: &mut Vec<u8>, words: &[u64]) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Serializes `report` for `key` as one frame.
///
/// # Panics
///
/// Panics if the report carries per-persist records — callers must
/// only cache record-free runs.
pub fn encode(key: &str, report: &RunReport) -> Vec<u8> {
    assert!(
        report.records.is_empty(),
        "runs with persist records are not cacheable"
    );
    let r = report;
    let mut p = Vec::with_capacity(key.len() + 512);
    put_str(&mut p, key);
    put_u64s(
        &mut p,
        &[
            r.total_cycles.get(),
            r.instructions,
            r.persists,
            r.writebacks,
            r.epochs,
            r.engine.node_updates,
            r.engine.bmt_fetches,
            r.engine.persists,
            r.coalesced_saved_updates,
            r.page_overflows,
            r.overflow_blocks,
            r.wpq_stall_cycles,
            r.wpq_peak as u64,
        ],
    );
    let m = &r.metadata;
    for c in [&m.counter, &m.mac, &m.bmt]
        .into_iter()
        .chain(&r.data_caches)
    {
        put_u64s(&mut p, &[c.hits, c.misses, c.evictions, c.dirty_evictions]);
    }
    let n = &r.nvm;
    put_u64s(
        &mut p,
        &[
            n.reads,
            n.writes,
            n.writes_combined,
            n.row_hits,
            n.row_misses,
            n.queue_stall_cycles,
        ],
    );
    let s = &r.sanitizer;
    put_str(&mut p, s.mode.name());
    put_u64s(
        &mut p,
        &[
            s.checked_persists,
            s.checked_node_updates,
            s.checked_epochs,
            s.dropped_violations,
            s.violations.len() as u64,
        ],
    );
    for v in &s.violations {
        put_str(&mut p, v.kind.name());
        put_str(&mut p, v.scheme.name());
        put_u64s(
            &mut p,
            &[
                v.cycle.get(),
                v.epoch.0,
                v.persist,
                u64::from(v.level),
                v.node,
                v.addr,
            ],
        );
    }
    encode_frame(ENTRY_TAG, &p)
}

/// Why a cache entry was rejected by [`decode_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFault {
    /// The entry is an intact frame of another format version (its
    /// tag is not this version's).
    Version,
    /// The stored key is not the requested key (hash collision or a
    /// file renamed into the wrong address).
    KeyMismatch,
    /// The frame checksum does not cover the bytes on disk — a flipped
    /// bit or a partially overwritten entry.
    ChecksumMismatch,
    /// The entry ends before its frame does — a torn write or a short
    /// read.
    Truncated,
    /// The frame is intact but its payload is not a report, or bytes
    /// follow the frame.
    Malformed,
}

impl std::fmt::Display for CacheFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheFault::Version => write!(f, "format version mismatch"),
            CacheFault::KeyMismatch => write!(f, "stored-key verification failed"),
            CacheFault::ChecksumMismatch => write!(f, "content checksum mismatch"),
            CacheFault::Truncated => write!(f, "truncated entry"),
            CacheFault::Malformed => write!(f, "malformed entry"),
        }
    }
}

/// Deserializes a report, verifying format version and stored key.
/// Any mismatch — truncation, corruption, version skew, hash
/// collision — returns `None` (a cache miss). See [`decode_checked`]
/// for the verdict-bearing form the supervised harness uses.
pub fn decode(key: &str, bytes: &[u8]) -> Option<RunReport> {
    decode_checked(key, bytes).ok()
}

/// [`decode`], but reporting *why* an entry was rejected so the run
/// supervisor can distinguish a plain miss from corruption worth
/// quarantining.
///
/// # Errors
///
/// Returns the [`CacheFault`] describing the first integrity check the
/// entry failed: the frame (truncation, checksum), its tag, trailing
/// bytes, the stored key, then the payload's shape.
pub fn decode_checked(key: &str, bytes: &[u8]) -> Result<RunReport, CacheFault> {
    let (tag, payload, used) = decode_frame(bytes).map_err(|e| match e {
        FrameError::Truncated => CacheFault::Truncated,
        FrameError::Checksum => CacheFault::ChecksumMismatch,
    })?;
    if tag != ENTRY_TAG {
        return Err(CacheFault::Version);
    }
    if used != bytes.len() {
        return Err(CacheFault::Malformed);
    }
    let mut r = Reader::new(payload);
    if r.str().ok_or(CacheFault::Malformed)? != key {
        return Err(CacheFault::KeyMismatch);
    }
    parse_body(&mut r)
        .filter(|_| r.is_empty())
        .ok_or(CacheFault::Malformed)
}

fn cache_stats(r: &mut Reader<'_>) -> Option<CacheStats> {
    Some(CacheStats {
        hits: r.u64()?,
        misses: r.u64()?,
        evictions: r.u64()?,
        dirty_evictions: r.u64()?,
    })
}

/// Reads every report field after the key, in [`encode`]'s order.
/// Returns `None` on any structural mismatch (the frame checksum has
/// already passed, so a failure here is a codec bug or a forged entry).
fn parse_body(r: &mut Reader<'_>) -> Option<RunReport> {
    let mut report = RunReport {
        total_cycles: Cycle::new(r.u64()?),
        instructions: r.u64()?,
        persists: r.u64()?,
        writebacks: r.u64()?,
        epochs: r.u64()?,
        engine: EngineStats {
            node_updates: r.u64()?,
            bmt_fetches: r.u64()?,
            persists: r.u64()?,
        },
        coalesced_saved_updates: r.u64()?,
        page_overflows: r.u64()?,
        overflow_blocks: r.u64()?,
        wpq_stall_cycles: r.u64()?,
        wpq_peak: usize::try_from(r.u64()?).ok()?,
        metadata: MetadataStats {
            counter: cache_stats(r)?,
            mac: cache_stats(r)?,
            bmt: cache_stats(r)?,
        },
        data_caches: [cache_stats(r)?, cache_stats(r)?, cache_stats(r)?],
        nvm: NvmStats {
            reads: r.u64()?,
            writes: r.u64()?,
            writes_combined: r.u64()?,
            row_hits: r.u64()?,
            row_misses: r.u64()?,
            queue_stall_cycles: r.u64()?,
        },
        sanitizer: SanitizerSummary {
            mode: SanitizerMode::parse(r.str()?)?,
            checked_persists: r.u64()?,
            checked_node_updates: r.u64()?,
            checked_epochs: r.u64()?,
            dropped_violations: r.u64()?,
            violations: Vec::new(),
        },
        records: Vec::new(),
    };
    for _ in 0..r.u64()? {
        report.sanitizer.violations.push(Violation {
            kind: ViolationKind::parse(r.str()?)?,
            scheme: UpdateScheme::parse(r.str()?)?,
            cycle: Cycle::new(r.u64()?),
            epoch: EpochId(r.u64()?),
            persist: r.u64()?,
            level: u32::try_from(r.u64()?).ok()?,
            node: r.u64()?,
            addr: r.u64()?,
        });
    }
    Some(report)
}

/// The directory rejected entries are moved to.
pub fn quarantine_dir(dir: &Path) -> PathBuf {
    dir.join("quarantine")
}

/// Moves a rejected entry into the quarantine directory, returning the
/// destination. A name collision (the same address quarantined twice)
/// gets a numeric suffix; if the move itself fails the entry is
/// deleted instead — a corrupt file must never be left where the next
/// probe would trust-and-reject it again.
fn quarantine_entry(dir: &Path, path: &Path) -> Option<PathBuf> {
    let qdir = quarantine_dir(dir);
    let name = path.file_name()?.to_string_lossy().into_owned();
    let moved = std::fs::create_dir_all(&qdir).ok().and_then(|()| {
        let mut dest = qdir.join(&name);
        for n in 1..=64 {
            if !dest.exists() {
                break;
            }
            dest = qdir.join(format!("{name}.{n}"));
        }
        std::fs::rename(path, &dest).ok().map(|()| dest)
    });
    if moved.is_none() {
        std::fs::remove_file(path).ok();
    }
    moved
}

/// What a checked cache probe found.
#[derive(Debug)]
pub enum CacheOutcome {
    /// No entry on disk for this key.
    Miss,
    /// A fully verified entry.
    Hit(Box<RunReport>),
    /// An entry existed but failed verification (or could not be
    /// read); it was moved to [`quarantine_dir`] — or deleted if the
    /// move failed — and the caller must regenerate the run.
    Quarantined {
        /// The integrity failure, for the degradation report.
        reason: String,
        /// Where the rejected bytes went, if the move succeeded.
        moved_to: Option<PathBuf>,
    },
}

/// Probes the cache for `key`, quarantining anything that fails
/// verification: stored-key mismatches, truncation, checksum failures,
/// and IO errors on an entry that exists all degrade to a regeneration,
/// never to a trusted-but-wrong report and never to an abort.
pub fn load_checked(dir: &Path, key: &str) -> CacheOutcome {
    let path = cache_path(dir, key);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheOutcome::Miss,
        Err(e) => {
            let moved_to = quarantine_entry(dir, &path);
            return CacheOutcome::Quarantined {
                reason: format!("unreadable entry: {e}"),
                moved_to,
            };
        }
    };
    match decode_checked(key, &bytes) {
        Ok(report) => CacheOutcome::Hit(Box::new(report)),
        Err(fault) => {
            let moved_to = quarantine_entry(dir, &path);
            CacheOutcome::Quarantined {
                reason: fault.to_string(),
                moved_to,
            }
        }
    }
}

/// Loads the cached report for `key`, or `None` on miss/corruption.
/// Corrupt entries are quarantined as a side effect (see
/// [`load_checked`]).
pub fn load(dir: &Path, key: &str) -> Option<RunReport> {
    match load_checked(dir, key) {
        CacheOutcome::Hit(report) => Some(*report),
        CacheOutcome::Miss | CacheOutcome::Quarantined { .. } => None,
    }
}

/// Stores `report` under `key`, creating the directory as needed.
/// Failures are reported to stderr but never fail the run — the cache
/// is an accelerator, not a dependency. Reports with persist records
/// are silently skipped.
pub fn store(dir: &Path, key: &str, report: &RunReport) {
    if !report.records.is_empty() {
        return;
    }
    let path = cache_path(dir, key);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        // Write-then-rename so a crashed/killed harness never leaves a
        // torn entry behind at the final path.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, encode(key, report))?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("[plp-bench] run-cache write failed for {path:?}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_core::{run_benchmark, SystemConfig, UpdateScheme};
    use plp_events::splitmix64;
    use plp_trace::spec;

    fn sample() -> (String, RunReport) {
        let profile = spec::benchmark("gcc").unwrap();
        let cfg = SystemConfig::for_scheme(UpdateScheme::Coalescing);
        let report = run_benchmark(&profile, &cfg, 3_000, 5);
        (format!("{CACHE_FORMAT}|demo|{:?}", cfg), report)
    }

    /// A sample report carrying a sanitizer violation, so every payload
    /// field — the violation list included — is on the wire.
    fn sample_with_violation() -> (String, RunReport) {
        let (key, mut report) = sample();
        report.sanitizer.dropped_violations = 2;
        report.sanitizer.violations.push(Violation {
            kind: ViolationKind::WawHazard,
            scheme: UpdateScheme::O3,
            cycle: Cycle::new(123),
            epoch: EpochId(4),
            persist: plp_core::sanitizer::NO_FIELD,
            level: 3,
            node: 17,
            addr: 0x40,
        });
        (key, report)
    }

    /// The entry's payload, re-framed under `tag` after `edit`.
    fn reframe(bytes: &[u8], tag: u8, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let (_, payload, _) = decode_frame(bytes).unwrap();
        let mut payload = payload.to_vec();
        edit(&mut payload);
        encode_frame(tag, &payload)
    }

    #[test]
    fn roundtrip_is_lossless() {
        let (key, report) = sample();
        let bytes = encode(&key, &report);
        assert_eq!(decode(&key, &bytes), Some(report));
    }

    #[test]
    fn sanitizer_violations_roundtrip() {
        let (key, report) = sample_with_violation();
        let bytes = encode(&key, &report);
        assert_eq!(decode(&key, &bytes), Some(report));
    }

    #[test]
    fn wrong_key_and_corruption_are_misses() {
        let (key, report) = sample();
        let bytes = encode(&key, &report);
        assert_eq!(decode("other key", &bytes), None);
        // A cut at any byte must degrade to a miss.
        for keep in 0..bytes.len() {
            assert_eq!(decode(&key, &bytes[..keep]), None, "kept {keep} bytes");
        }
        // So must a payload that is one field short, even re-framed
        // with a valid checksum.
        let short = reframe(&bytes, ENTRY_TAG, |p| p.truncate(p.len() - 8));
        assert_eq!(decode_checked(&key, &short), Err(CacheFault::Malformed));
    }

    #[test]
    fn value_bit_flips_fail_the_checksum() {
        let (key, report) = sample();
        let bytes = encode(&key, &report);
        // Corrupt a numeric field into another well-formed value: the
        // payload still parses, so only the checksum can catch it.
        // `instructions` follows the tag, the length, the key and
        // `total_cycles`.
        let at = 5 + 4 + key.len() + 8;
        let mut flipped = bytes.clone();
        flipped[at..at + 8].copy_from_slice(&(report.instructions + 1).to_le_bytes());
        assert_ne!(bytes, flipped, "corruption must actually change the bytes");
        assert_eq!(
            decode_checked(&key, &flipped),
            Err(CacheFault::ChecksumMismatch)
        );
        assert_eq!(decode(&key, &flipped), None);
    }

    #[test]
    fn decode_checked_reports_the_failure_class() {
        let (key, report) = sample();
        let bytes = encode(&key, &report);
        assert_eq!(decode_checked(&key, &bytes), Ok(report));
        assert_eq!(
            decode_checked("other key", &bytes),
            Err(CacheFault::KeyMismatch)
        );
        assert!(CACHE_FORMAT.ends_with(&format!(" v{ENTRY_TAG}")));
        let older = reframe(&bytes, ENTRY_TAG - 1, |_| {});
        assert_eq!(decode_checked(&key, &older), Err(CacheFault::Version));
        let truncated = &bytes[..bytes.len() / 2];
        assert_eq!(decode_checked(&key, truncated), Err(CacheFault::Truncated));
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x01;
        assert_eq!(
            decode_checked(&key, &flipped),
            Err(CacheFault::ChecksumMismatch)
        );
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(decode_checked(&key, &trailing), Err(CacheFault::Malformed));
        // The v3 text format is not a frame at all.
        let text = format!("plp-run-cache v3\nkey {key}\n");
        assert_eq!(
            decode_checked(&key, text.as_bytes()),
            Err(CacheFault::Truncated)
        );
    }

    /// Every strict prefix of an entry is a truncation, and every
    /// one-bit flip is refused — the checksum covers the tag, the
    /// length and the payload, so no flip yields another report.
    #[test]
    fn every_cut_and_every_bit_flip_is_refused() {
        let (key, report) = sample_with_violation();
        let bytes = encode(&key, &report);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_checked(&key, &bytes[..cut]),
                Err(CacheFault::Truncated),
                "cut at {cut}"
            );
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let fault = decode_checked(&key, &flipped).unwrap_err();
            assert!(
                matches!(fault, CacheFault::Truncated | CacheFault::ChecksumMismatch),
                "flip of bit {bit}: {fault:?}"
            );
        }
    }

    /// Arbitrary bytes are refused, and arbitrary payloads behind a
    /// valid frame and the right key either are refused as malformed
    /// or decode to exactly the report their bytes spell — never a
    /// panic, never a wrong value. Inputs are drawn from a fixed
    /// splitmix64 stream, so the cases replay exactly.
    #[test]
    fn arbitrary_bytes_and_payloads_are_refused() {
        let (key, report) = sample_with_violation();
        let valid = encode(&key, &report);
        let (_, valid_payload, _) = decode_frame(&valid).unwrap();
        let mut rng = 0x5EED_CAC4_E000_0004;
        let mut draw =
            |n: usize| -> Vec<u8> { (0..n).map(|_| splitmix64(&mut rng) as u8).collect() };
        let faithful = |entry: &[u8], case: usize| match decode_checked(&key, entry) {
            Ok(decoded) => assert_eq!(encode(&key, &decoded), entry, "case {case}"),
            Err(fault) => assert_eq!(fault, CacheFault::Malformed, "case {case}"),
        };
        for case in 0..512usize {
            let junk = draw(case);
            assert!(decode_checked(&key, &junk).is_err(), "case {case}");

            // The right key, then junk: a payload that gets past the
            // key check and into the field parser.
            let mut payload = Vec::new();
            put_str(&mut payload, &key);
            payload.extend_from_slice(&junk);
            faithful(&encode_frame(ENTRY_TAG, &payload), case);

            // A valid payload cut anywhere and finished with junk: the
            // parser fails inside the report, or past its end.
            let keep = case * valid_payload.len() / 512;
            let mut payload = valid_payload[..keep].to_vec();
            payload.extend_from_slice(&junk[..junk.len().min(64)]);
            faithful(&encode_frame(ENTRY_TAG, &payload), case);
        }
    }

    #[test]
    fn corrupt_entries_are_quarantined_then_regenerated() {
        let (key, report) = sample();
        let dir = std::env::temp_dir().join(format!("plp-quarantine-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        store(&dir, &key, &report);
        let path = cache_path(&dir, &key);

        // Truncate the stored entry mid-file (a torn write).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

        let CacheOutcome::Quarantined { reason, moved_to } = load_checked(&dir, &key) else {
            panic!("corrupt entry must quarantine, not hit or miss");
        };
        assert_eq!(reason, CacheFault::Truncated.to_string());
        let moved_to = moved_to.expect("rename into quarantine succeeds on one filesystem");
        assert!(moved_to.starts_with(quarantine_dir(&dir)));
        assert!(moved_to.exists(), "quarantined bytes are preserved");
        assert!(!path.exists(), "corrupt entry must not stay at its address");

        // The next probe is a clean miss; regeneration then round-trips.
        assert!(matches!(load_checked(&dir, &key), CacheOutcome::Miss));
        store(&dir, &key, &report);
        match load_checked(&dir, &key) {
            CacheOutcome::Hit(regenerated) => assert_eq!(*regenerated, report),
            other => panic!("regenerated entry must hit, got {other:?}"),
        }

        // A second quarantine of the same address gets a fresh name.
        std::fs::write(&path, "garbage").unwrap();
        let CacheOutcome::Quarantined {
            moved_to: second, ..
        } = load_checked(&dir, &key)
        else {
            panic!("second corruption must quarantine too");
        };
        assert_ne!(second.as_ref(), Some(&moved_to));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_roundtrip() {
        let (key, report) = sample();
        let dir = std::env::temp_dir().join(format!("plp-cache-test-{}", std::process::id()));
        assert_eq!(load(&dir, &key), None);
        store(&dir, &key, &report);
        assert_eq!(load(&dir, &key), Some(report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hash_is_stable() {
        // FNV-1a reference value: hashing must never drift across
        // refactors, or every cache entry silently invalidates.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
