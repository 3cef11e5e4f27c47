//! The content-addressed on-disk run cache.
//!
//! A completed [`RunReport`] is a pure function of its request key
//! (benchmark, configuration, instruction count, seed — see
//! [`crate::RunRequest::key`]), so it can be stored on disk and reused
//! by any later invocation with the same key. Files live under
//! `results/cache/<fnv1a64(key)>.run` in a line-oriented
//! `field value…` text format (the vendored serde stack is offline
//! stubs, so the codec is hand-rolled and versioned by
//! [`CACHE_FORMAT`], which is folded into every key: bumping it — or
//! changing `SystemConfig`'s shape, which changes the key's `Debug`
//! rendering — invalidates all previous entries).
//!
//! Robustness: the full key is stored in the file and verified on
//! load, and the whole entry carries an FNV-1a content checksum, so a
//! hash collision, a truncated write, or a flipped bit degrades to a
//! quarantined entry ([`load_checked`]) and a regeneration — never a
//! wrong result and never a harness abort. Rejected entries are moved
//! to `<cache>/quarantine/` so operators can inspect what corrupted
//! them. Only reports without per-persist records are cached
//! (`record_persists` runs are memory-heavy and used by crash analyses
//! that need the records anyway).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use plp_cache::CacheStats;
use plp_core::sanitizer::{SanitizerMode, Violation, ViolationKind};
use plp_core::{EpochId, RunReport, UpdateScheme};
use plp_events::Cycle;
use plp_nvm::image::fnv1a;
use plp_nvm::NvmStats;

/// Cache format version; part of every content address. v3 added the
/// trailing content checksum (value corruption inside a numeric field
/// re-parses cleanly, so stored-key verification alone cannot catch
/// it).
pub const CACHE_FORMAT: &str = "plp-run-cache v3";

/// The file a key's report is stored in, named by the key's 64-bit
/// FNV-1a — the content address.
pub fn cache_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.run", fnv1a(key.as_bytes())))
}

fn encode_cache_stats(out: &mut String, name: &str, s: &CacheStats) {
    let _ = writeln!(
        out,
        "{name} {} {} {} {}",
        s.hits, s.misses, s.evictions, s.dirty_evictions
    );
}

/// Serializes `report` for `key`.
///
/// # Panics
///
/// Panics if the report carries per-persist records — callers must
/// only cache record-free runs.
pub fn encode(key: &str, report: &RunReport) -> String {
    assert!(
        report.records.is_empty(),
        "runs with persist records are not cacheable"
    );
    let mut out = String::new();
    let _ = writeln!(out, "{CACHE_FORMAT}");
    let _ = writeln!(out, "key {key}");
    let _ = writeln!(out, "total_cycles {}", report.total_cycles.get());
    let _ = writeln!(out, "instructions {}", report.instructions);
    let _ = writeln!(out, "persists {}", report.persists);
    let _ = writeln!(out, "writebacks {}", report.writebacks);
    let _ = writeln!(out, "epochs {}", report.epochs);
    let _ = writeln!(
        out,
        "engine {} {} {}",
        report.engine.node_updates, report.engine.bmt_fetches, report.engine.persists
    );
    let _ = writeln!(
        out,
        "coalesced_saved_updates {}",
        report.coalesced_saved_updates
    );
    let _ = writeln!(out, "page_overflows {}", report.page_overflows);
    let _ = writeln!(out, "overflow_blocks {}", report.overflow_blocks);
    let _ = writeln!(out, "wpq_stall_cycles {}", report.wpq_stall_cycles);
    let _ = writeln!(out, "wpq_peak {}", report.wpq_peak);
    encode_cache_stats(&mut out, "metadata.counter", &report.metadata.counter);
    encode_cache_stats(&mut out, "metadata.mac", &report.metadata.mac);
    encode_cache_stats(&mut out, "metadata.bmt", &report.metadata.bmt);
    for (i, c) in report.data_caches.iter().enumerate() {
        encode_cache_stats(&mut out, &format!("data_caches.{i}"), c);
    }
    let n = &report.nvm;
    let _ = writeln!(
        out,
        "nvm {} {} {} {} {} {} {} {}",
        n.reads,
        n.writes,
        n.writes_combined,
        n.row_hits,
        n.row_misses,
        n.queue_stall_cycles,
        n.read_retries,
        n.read_failures
    );
    let s = &report.sanitizer;
    let _ = writeln!(
        out,
        "sanitizer {} {} {} {} {} {}",
        s.mode.name(),
        s.checked_persists,
        s.checked_node_updates,
        s.checked_epochs,
        s.dropped_violations,
        s.violations.len()
    );
    for v in &s.violations {
        let _ = writeln!(
            out,
            "violation {} {} {} {} {} {} {} {}",
            v.kind.name(),
            v.scheme.name(),
            v.cycle.get(),
            v.epoch.0,
            v.persist,
            v.level,
            v.node,
            v.addr
        );
    }
    let _ = writeln!(out, "checksum {:016x}", fnv1a(out.as_bytes()));
    out.push_str("end\n");
    out
}

/// Why a cache entry was rejected by [`decode_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFault {
    /// The file's format line is not [`CACHE_FORMAT`].
    Version,
    /// The stored key is not the requested key (hash collision or a
    /// file renamed into the wrong address).
    KeyMismatch,
    /// The content checksum does not cover the bytes on disk — a
    /// flipped bit or a partially overwritten entry.
    ChecksumMismatch,
    /// The entry ends before its `end` terminator — a torn write or a
    /// short read.
    Truncated,
    /// The entry is structurally unparseable.
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

struct Parser<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Parser<'a> {
    /// Next line's fields after asserting its leading tag.
    fn fields(&mut self, tag: &str) -> Option<Vec<&'a str>> {
        let line = self.lines.next()?;
        let rest = line.strip_prefix(tag)?.strip_prefix(' ')?;
        Some(rest.split(' ').collect())
    }

    fn u64_field(&mut self, tag: &str) -> Option<u64> {
        match self.fields(tag)?.as_slice() {
            [v] => v.parse().ok(),
            _ => None,
        }
    }

    fn cache_stats(&mut self, tag: &str) -> Option<CacheStats> {
        let f = self.fields(tag)?;
        let v: Vec<u64> = f.iter().map(|s| s.parse().ok()).collect::<Option<_>>()?;
        match v.as_slice() {
            [hits, misses, evictions, dirty] => Some(CacheStats {
                hits: *hits,
                misses: *misses,
                evictions: *evictions,
                dirty_evictions: *dirty,
            }),
            _ => None,
        }
    }
}

/// Deserializes a report, verifying format version and stored key.
/// Any mismatch — truncation, corruption, version skew, hash
/// collision — returns `None` (a cache miss). See [`decode_checked`]
/// for the verdict-bearing form the supervised harness uses.
pub fn decode(key: &str, text: &str) -> Option<RunReport> {
    decode_checked(key, text).ok()
}

/// Verifies the entry's integrity envelope: it must terminate with
/// `checksum <fnv1a64-of-preceding-bytes>` + `end`, and the checksum
/// must match what is on disk.
fn verify_checksum(text: &str) -> Result<(), CacheFault> {
    let without_end = text
        .strip_suffix("end\n")
        .or_else(|| text.strip_suffix("end"))
        .ok_or(CacheFault::Truncated)?;
    let idx = without_end
        .rfind("\nchecksum ")
        .ok_or(CacheFault::Truncated)?;
    let body = &without_end[..idx + 1];
    let stored = without_end[idx + 1..]
        .strip_prefix("checksum ")
        .map(str::trim_end)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or(CacheFault::Malformed)?;
    if fnv1a(body.as_bytes()) != stored {
        return Err(CacheFault::ChecksumMismatch);
    }
    Ok(())
}

/// [`decode`], but reporting *why* an entry was rejected so the run
/// supervisor can distinguish a plain miss from corruption worth
/// quarantining.
///
/// # Errors
///
/// Returns the [`CacheFault`] describing the first integrity check the
/// entry failed.
pub fn decode_checked(key: &str, text: &str) -> Result<RunReport, CacheFault> {
    let mut p = Parser {
        lines: text.lines(),
    };
    if p.lines.next().ok_or(CacheFault::Truncated)? != CACHE_FORMAT {
        return Err(CacheFault::Version);
    }
    verify_checksum(text)?;
    let stored_key = p
        .lines
        .next()
        .and_then(|l| l.strip_prefix("key "))
        .ok_or(CacheFault::Malformed)?;
    if stored_key != key {
        return Err(CacheFault::KeyMismatch);
    }
    parse_body(&mut p).ok_or(CacheFault::Malformed)
}

/// Parses everything after the format and key lines. Returns `None`
/// on any structural mismatch (the caller has already checksummed the
/// bytes, so a failure here is a codec bug or a forged entry).
fn parse_body(p: &mut Parser<'_>) -> Option<RunReport> {
    let mut report = RunReport {
        total_cycles: Cycle::new(p.u64_field("total_cycles")?),
        instructions: p.u64_field("instructions")?,
        persists: p.u64_field("persists")?,
        writebacks: p.u64_field("writebacks")?,
        epochs: p.u64_field("epochs")?,
        ..RunReport::default()
    };
    match p.fields("engine")?.as_slice() {
        [a, b, c] => {
            report.engine.node_updates = a.parse().ok()?;
            report.engine.bmt_fetches = b.parse().ok()?;
            report.engine.persists = c.parse().ok()?;
        }
        _ => return None,
    }
    report.coalesced_saved_updates = p.u64_field("coalesced_saved_updates")?;
    report.page_overflows = p.u64_field("page_overflows")?;
    report.overflow_blocks = p.u64_field("overflow_blocks")?;
    report.wpq_stall_cycles = p.u64_field("wpq_stall_cycles")?;
    report.wpq_peak = p.u64_field("wpq_peak")? as usize;
    report.metadata.counter = p.cache_stats("metadata.counter")?;
    report.metadata.mac = p.cache_stats("metadata.mac")?;
    report.metadata.bmt = p.cache_stats("metadata.bmt")?;
    for i in 0..3 {
        report.data_caches[i] = p.cache_stats(&format!("data_caches.{i}"))?;
    }
    let f = p.fields("nvm")?;
    let v: Vec<u64> = f.iter().map(|s| s.parse().ok()).collect::<Option<_>>()?;
    report.nvm = match v.as_slice() {
        [reads, writes, combined, row_hits, row_misses, stall, retries, failures] => NvmStats {
            reads: *reads,
            writes: *writes,
            writes_combined: *combined,
            row_hits: *row_hits,
            row_misses: *row_misses,
            queue_stall_cycles: *stall,
            read_retries: *retries,
            read_failures: *failures,
        },
        _ => return None,
    };
    let s = p.fields("sanitizer")?;
    let [mode, counters @ ..] = s.as_slice() else {
        return None;
    };
    report.sanitizer.mode = SanitizerMode::parse(mode)?;
    let c: Vec<u64> = counters
        .iter()
        .map(|s| s.parse().ok())
        .collect::<Option<_>>()?;
    let [persists, node_updates, sealed_epochs, dropped, n_violations] = c.as_slice() else {
        return None;
    };
    report.sanitizer.checked_persists = *persists;
    report.sanitizer.checked_node_updates = *node_updates;
    report.sanitizer.checked_epochs = *sealed_epochs;
    report.sanitizer.dropped_violations = *dropped;
    for _ in 0..*n_violations {
        let f = p.fields("violation")?;
        let [kind, scheme, rest @ ..] = f.as_slice() else {
            return None;
        };
        let v: Vec<u64> = rest.iter().map(|s| s.parse().ok()).collect::<Option<_>>()?;
        let [cycle, epoch, persist, level, node, addr] = v.as_slice() else {
            return None;
        };
        report.sanitizer.violations.push(Violation {
            kind: ViolationKind::parse(kind)?,
            scheme: UpdateScheme::parse(scheme)?,
            cycle: Cycle::new(*cycle),
            epoch: EpochId(*epoch),
            persist: *persist,
            level: u32::try_from(*level).ok()?,
            node: *node,
            addr: *addr,
        });
    }
    let _ = p.fields("checksum")?;
    if p.lines.next()? != "end" {
        return None;
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
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheOutcome::Miss,
        Err(e) => {
            let moved_to = quarantine_entry(dir, &path);
            return CacheOutcome::Quarantined {
                reason: format!("unreadable entry: {e}"),
                moved_to,
            };
        }
    };
    match decode_checked(key, &text) {
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
    use plp_trace::spec;

    fn sample() -> (String, RunReport) {
        let profile = spec::benchmark("gcc").unwrap();
        let cfg = SystemConfig::for_scheme(UpdateScheme::Coalescing);
        let report = run_benchmark(&profile, &cfg, 3_000, 5);
        (format!("{CACHE_FORMAT}|demo|{:?}", cfg), report)
    }

    #[test]
    fn roundtrip_is_lossless() {
        let (key, report) = sample();
        let text = encode(&key, &report);
        assert_eq!(decode(&key, &text), Some(report));
    }

    #[test]
    fn sanitizer_violations_roundtrip() {
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
        let text = encode(&key, &report);
        assert_eq!(decode(&key, &text), Some(report));
    }

    #[test]
    fn wrong_key_and_corruption_are_misses() {
        let (key, report) = sample();
        let text = encode(&key, &report);
        assert_eq!(decode("other key", &text), None);
        // Truncations at any line boundary must degrade to a miss.
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let truncated = lines[..keep].join("\n");
            assert_eq!(decode(&key, &truncated), None, "kept {keep} lines");
        }
        assert_eq!(decode(&key, &text.replace("persists", "persits")), None);
    }

    #[test]
    fn value_bit_flips_fail_the_checksum() {
        let (key, report) = sample();
        let text = encode(&key, &report);
        // Corrupt a numeric field *in a way that still parses*: this is
        // exactly what stored-key verification alone cannot catch.
        let flipped = text.replacen(
            &format!("instructions {}", report.instructions),
            &format!("instructions {}", report.instructions + 1),
            1,
        );
        assert_ne!(text, flipped, "corruption must actually change the text");
        assert_eq!(
            decode_checked(&key, &flipped),
            Err(CacheFault::ChecksumMismatch)
        );
        assert_eq!(decode(&key, &flipped), None);
    }

    #[test]
    fn decode_checked_reports_the_failure_class() {
        let (key, report) = sample();
        let text = encode(&key, &report);
        assert_eq!(decode_checked(&key, &text), Ok(report));
        assert_eq!(
            decode_checked("other key", &text),
            Err(CacheFault::KeyMismatch)
        );
        assert_eq!(
            decode_checked(&key, &text.replace(CACHE_FORMAT, "plp-run-cache v2")),
            Err(CacheFault::Version)
        );
        let truncated = &text[..text.len() / 2];
        assert_eq!(decode_checked(&key, truncated), Err(CacheFault::Truncated));
    }

    #[test]
    fn corrupt_entries_are_quarantined_then_regenerated() {
        let (key, report) = sample();
        let dir = std::env::temp_dir().join(format!("plp-quarantine-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        store(&dir, &key, &report);
        let path = cache_path(&dir, &key);

        // Truncate the stored entry mid-file (a torn write).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 3]).unwrap();

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
        let CacheOutcome::Quarantined { moved_to: second, .. } = load_checked(&dir, &key) else {
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
