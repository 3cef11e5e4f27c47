//! The durable half of the crash harness: mirroring the persist
//! stream into a file-backed device image, and rebuilding a
//! [`PersistImage`] from whatever a SIGKILLed process left behind.
//!
//! The simulator's own crash machinery (`PersistImage::at_time`)
//! *reconstructs* durable state from in-memory records — fine for
//! in-process injection, but it dies with the process. The
//! [`DurableSink`] closes that gap: every persisted tuple is appended
//! write-through to a `plp_nvm` image file at the moment it becomes
//! durable, so the image on disk is always exactly the persisted
//! prefix, whatever instant the process is killed at.
//!
//! Frame granularity *is* the persistency claim under test:
//!
//! * tuple-atomic schemes (everything except `unordered`) append one
//!   frame per tuple — and when the armed `mid-tuple` failpoint is
//!   about to fire, the frame is deliberately appended *torn*, so the
//!   image reader discards it, which is precisely the 2SP guarantee
//!   that an interrupted tuple leaves no partial state;
//! * the `unordered` baseline appends each component (data, counter,
//!   MAC, root) as its own frame with the `mid-tuple` failpoint
//!   between them, so a kill really does strand a half-written tuple
//!   on disk — Tables I/II made physical.
//!
//! [`replay_image`] is the recovery entry for on-disk images: it
//! folds intact frames back into a [`PersistImage`] (plus bookkeeping
//! about which persists are fully on disk) ready for
//! `RecoveryManager::recover`.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::Write;
use std::path::Path;

use plp_bmt::{BmtGeometry, NodeValue};
use plp_crypto::{CounterBlock, DataBlock, MacTag, SipKey};
use plp_events::addr::{BlockAddr, BLOCKS_PER_PAGE};
use plp_events::frame::{encode_frame_into, Reader, FRAME_OVERHEAD};
use plp_events::FastMap;
use plp_nvm::image::{ImageHeader, ImageReader, ImageWriter};
use plp_nvm::NvmError;

use crate::failpoint::{self, Crossed, Failpoint, FailpointRegistry};
use crate::recovery::PersistImage;
use crate::SystemConfig;

/// Frame tag: one whole tuple `(C, γ, M, R)` persisted atomically.
pub const TAG_TUPLE: u8 = 1;
/// Frame tag: the ciphertext component alone (`unordered`).
pub const TAG_DATA: u8 = 2;
/// Frame tag: the counter-block component alone (`unordered`).
pub const TAG_COUNTER: u8 = 3;
/// Frame tag: the MAC component alone (`unordered`).
pub const TAG_MAC: u8 = 4;
/// Frame tag: the root component alone (`unordered`).
pub const TAG_ROOT: u8 = 5;
/// Frame tag: an epoch seal (epoch id + sealed root).
pub const TAG_SEAL: u8 = 6;
/// Frame tag: one page-overflow re-encryption, atomic with its
/// carrier tuple.
pub const TAG_OVERFLOW: u8 = 7;
/// Frame tag (recovered image): one repaired block — address, MAC and
/// ciphertext, written by recovery's canonical writeback.
pub const TAG_REC_BLOCK: u8 = 8;
/// Frame tag (recovered image): one counter block by page index.
pub const TAG_REC_COUNTER: u8 = 9;
/// Frame tag (recovered image): the sorted list of persist ids that
/// were fully durable at the crash — carried forward verbatim so
/// recovery is monotone (never *less* recovered after a second kill).
pub const TAG_REC_IDS: u8 = 10;
/// Frame tag (recovered image): the sorted addresses recovery fenced
/// off as damaged. Their data and MACs are deliberately absent, so a
/// re-recovery re-quarantines them rather than resurrecting garbage.
pub const TAG_REC_QUARANTINE: u8 = 11;
/// Frame tag (recovered image): the commit record — adopted root and
/// seal count. Its presence marks an image as canonical-recovered;
/// it is always the final frame recovery writes before the rename.
pub const TAG_ROOT_COMMIT: u8 = 12;
/// Frame tag: `triad_nvm`'s strict slice — the data and counter
/// components persisted atomically, with the MAC and root trailing in
/// their own frames after the relaxed-level flush window. A kill in
/// that window leaves this frame durable and the id *partial*: fresh
/// data under a stale MAC, the scheme's detected-loss signature.
pub const TAG_TRIAD: u8 = 13;

const COUNTERS_BYTES: usize = 8 + BLOCKS_PER_PAGE;

/// Why an image replay failed (beyond the file-level [`NvmError`]s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayError {
    /// The file itself could not be read or validated.
    Image(NvmError),
    /// The header passed its checksum but describes an impossible
    /// tree geometry.
    BadGeometry,
    /// An intact frame carries a payload of the wrong size for its
    /// tag — a producer bug, not a torn write.
    BadFrame {
        /// The offending frame's tag.
        tag: u8,
        /// Its payload length.
        len: usize,
    },
    /// An intact counter frame failed counter-block validation.
    BadCounters,
    /// An intact frame carries a counter block for a page outside the
    /// header's tree. Frame checksums are FNV-1a, so such a frame is
    /// forged, not torn.
    PageOutsideTree {
        /// The offending frame's tag.
        tag: u8,
        /// The page it names.
        page: u64,
    },
    /// Recovery was asked to repair an image whose header geometry is
    /// not the recovery manager's.
    GeometryMismatch {
        /// The image header's geometry.
        image: BmtGeometry,
        /// The manager's geometry.
        manager: BmtGeometry,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Image(e) => write!(f, "image unreadable: {e}"),
            ReplayError::BadGeometry => write!(f, "image header describes an invalid geometry"),
            ReplayError::BadFrame { tag, len } => {
                write!(f, "frame tag {tag} has malformed payload ({len} bytes)")
            }
            ReplayError::BadCounters => write!(f, "counter frame failed validation"),
            ReplayError::PageOutsideTree { tag, page } => {
                write!(
                    f,
                    "frame tag {tag} names page {page}, outside the image's tree"
                )
            }
            ReplayError::GeometryMismatch { image, manager } => write!(
                f,
                "image tree is {}-ary with {} levels, recovery expects {}-ary with {} levels",
                image.arity(),
                image.levels(),
                manager.arity(),
                manager.levels()
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<NvmError> for ReplayError {
    fn from(e: NvmError) -> Self {
        ReplayError::Image(e)
    }
}

/// One persisted tuple, borrowed from the simulation for appending.
pub(crate) struct TupleFrame<'a> {
    /// Persist id (the store sequence number).
    pub id: u64,
    /// The persisted block.
    pub addr: BlockAddr,
    /// Its encryption page.
    pub page: u64,
    /// Ciphertext component.
    pub cipher: &'a DataBlock,
    /// Counter-block component (post-bump).
    pub counters: &'a CounterBlock,
    /// MAC component.
    pub mac: MacTag,
    /// BMT root after this persist's leaf update.
    pub root: NodeValue,
}

impl TupleFrame<'_> {
    fn encode(&self, p: &mut Vec<u8>) {
        p.extend_from_slice(&self.id.to_le_bytes());
        p.extend_from_slice(&self.addr.index().to_le_bytes());
        p.extend_from_slice(&self.page.to_le_bytes());
        p.extend_from_slice(&self.root.to_le_bytes());
        p.extend_from_slice(&self.mac.raw().to_le_bytes());
        p.extend_from_slice(self.cipher.as_bytes());
        p.extend_from_slice(&self.counters.to_bytes());
    }
}

/// `triad_nvm`'s atomic strict slice, borrowed for appending: the
/// data/counter pair without the trailing MAC and root.
pub(crate) struct TriadFrame<'a> {
    /// Persist id (the store sequence number).
    pub id: u64,
    /// The persisted block.
    pub addr: BlockAddr,
    /// Its encryption page.
    pub page: u64,
    /// Ciphertext component.
    pub cipher: &'a DataBlock,
    /// Counter-block component (post-bump).
    pub counters: &'a CounterBlock,
}

impl TriadFrame<'_> {
    fn encode(&self, p: &mut Vec<u8>) {
        p.extend_from_slice(&self.id.to_le_bytes());
        p.extend_from_slice(&self.addr.index().to_le_bytes());
        p.extend_from_slice(&self.page.to_le_bytes());
        p.extend_from_slice(self.cipher.as_bytes());
        p.extend_from_slice(&self.counters.to_bytes());
    }
}

/// Write-through mirror of the persist stream into a device image.
///
/// I/O errors never panic and never disturb the simulation: the first
/// error poisons the sink (subsequent appends become no-ops) and is
/// surfaced through [`DurableSink::error`] after the run. Payloads are
/// built in one reused buffer, so an append allocates nothing.
#[derive(Debug)]
pub struct DurableSink {
    writer: ImageWriter,
    error: Option<NvmError>,
    payload: Vec<u8>,
}

impl DurableSink {
    /// Creates the image file for a run of `config` with trace `seed`,
    /// writing its identifying header.
    pub fn create(path: &Path, config: &SystemConfig, seed: u64) -> Result<Self, NvmError> {
        let header = ImageHeader {
            arity: config.bmt.arity(),
            levels: config.bmt.levels(),
            seed,
            scheme: config.scheme.name().to_string(),
        };
        Ok(DurableSink {
            writer: ImageWriter::create(path, &header)?,
            error: None,
            payload: Vec::new(),
        })
    }

    /// The first I/O error the sink swallowed, if any.
    pub fn error(&self) -> Option<NvmError> {
        self.error
    }

    /// Appends one frame whose payload `fill` writes: whole, or with
    /// `torn` only about half of it — enough to be visibly torn, never
    /// enough to checksum.
    fn push(&mut self, tag: u8, torn: bool, fill: impl FnOnce(&mut Vec<u8>)) {
        if self.error.is_some() {
            return;
        }
        self.payload.clear();
        fill(&mut self.payload);
        let appended = if torn {
            let keep = (FRAME_OVERHEAD + self.payload.len()) / 2;
            self.writer.append_torn(tag, &self.payload, keep)
        } else {
            self.writer.append(tag, &self.payload)
        };
        if let Err(e) = appended {
            self.error = Some(e);
        }
    }

    /// Appends one whole tuple atomically.
    pub(crate) fn tuple(&mut self, frame: &TupleFrame<'_>) {
        self.push(TAG_TUPLE, false, |p| frame.encode(p));
    }

    /// Appends a deliberately torn prefix of a tuple frame — the write
    /// the armed `mid-tuple` kill lands on. Readers discard it.
    pub(crate) fn tuple_torn(&mut self, frame: &TupleFrame<'_>) {
        self.push(TAG_TUPLE, true, |p| frame.encode(p));
    }

    /// Appends `triad_nvm`'s strict data/counter slice atomically.
    pub(crate) fn triad(&mut self, frame: &TriadFrame<'_>) {
        self.push(TAG_TRIAD, false, |p| frame.encode(p));
    }

    /// Appends a deliberately torn prefix of a triad frame — the write
    /// the armed `mid-tuple` kill lands on. Readers discard it, so an
    /// interrupted strict slice leaves no partial state (only the
    /// *relaxed* window can strand components).
    pub(crate) fn triad_torn(&mut self, frame: &TriadFrame<'_>) {
        self.push(TAG_TRIAD, true, |p| frame.encode(p));
    }

    /// Appends the ciphertext component alone (`unordered`).
    pub(crate) fn data(&mut self, id: u64, addr: BlockAddr, cipher: &DataBlock) {
        self.push(TAG_DATA, false, |p| {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&addr.index().to_le_bytes());
            p.extend_from_slice(cipher.as_bytes());
        });
    }

    /// Appends the counter-block component alone (`unordered`).
    pub(crate) fn counter(&mut self, id: u64, page: u64, counters: &CounterBlock) {
        self.push(TAG_COUNTER, false, |p| {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&page.to_le_bytes());
            p.extend_from_slice(&counters.to_bytes());
        });
    }

    /// Appends the MAC component alone (`unordered`).
    pub(crate) fn mac_tag(&mut self, id: u64, addr: BlockAddr, mac: MacTag) {
        self.push(TAG_MAC, false, |p| {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&addr.index().to_le_bytes());
            p.extend_from_slice(&mac.raw().to_le_bytes());
        });
    }

    /// Appends the root component alone (`unordered`).
    pub(crate) fn root(&mut self, id: u64, root: NodeValue) {
        self.push(TAG_ROOT, false, |p| {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&root.to_le_bytes());
        });
    }

    /// Appends an epoch seal.
    pub(crate) fn seal(&mut self, epoch: u64, root: NodeValue) {
        self.push(TAG_SEAL, false, |p| {
            p.extend_from_slice(&epoch.to_le_bytes());
            p.extend_from_slice(&root.to_le_bytes());
        });
    }

    /// Appends one page-overflow re-encryption (atomic with the
    /// carrier tuple that overflowed the page's major counter).
    pub(crate) fn overflow(&mut self, id: u64, addr: BlockAddr, cipher: &DataBlock, mac: MacTag) {
        self.push(TAG_OVERFLOW, false, |p| {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&addr.index().to_le_bytes());
            p.extend_from_slice(&mac.raw().to_le_bytes());
            p.extend_from_slice(cipher.as_bytes());
        });
    }
}

/// Everything recovered from a killed run's image file.
#[derive(Debug)]
pub struct ReplayedImage {
    /// The image's identifying header.
    pub header: ImageHeader,
    /// The durable state the kill left behind, in the same shape the
    /// in-process crash machinery produces.
    pub image: PersistImage,
    /// Persist ids whose tuples are fully on disk (all components for
    /// `unordered`; the atomic frame otherwise; overflow frames count
    /// as their own ids).
    pub complete_ids: BTreeSet<u64>,
    /// Persist ids with *some but not all* components on disk — only
    /// ever non-empty for component-granular schemes.
    pub partial_ids: BTreeSet<u64>,
    /// Epoch seals on disk.
    pub seals: u64,
    /// Intact frames replayed.
    pub frames: usize,
    /// Bytes discarded as a torn tail (non-zero iff the kill landed
    /// mid-append).
    pub torn_tail_bytes: u64,
    /// Whether the image is a canonical recovered image (its commit
    /// frame is on disk) — i.e. a prior [`recover_image`] completed.
    pub recovered: bool,
    /// Addresses a prior recovery quarantined (empty for raw images).
    pub quarantined: BTreeSet<BlockAddr>,
}

/// One intact frame's payload, read field by field. A payload of the
/// wrong size for its tag — a read past its end, or bytes left over —
/// is [`ReplayError::BadFrame`].
struct Payload<'a> {
    r: Reader<'a>,
    tag: u8,
    len: usize,
}

impl<'a> Payload<'a> {
    fn new(tag: u8, bytes: &'a [u8]) -> Self {
        Payload {
            r: Reader::new(bytes),
            tag,
            len: bytes.len(),
        }
    }

    fn bad(&self) -> ReplayError {
        ReplayError::BadFrame {
            tag: self.tag,
            len: self.len,
        }
    }

    fn u64(&mut self) -> Result<u64, ReplayError> {
        self.r.u64().ok_or_else(|| self.bad())
    }

    fn addr(&mut self) -> Result<BlockAddr, ReplayError> {
        self.u64().map(BlockAddr::new)
    }

    fn mac(&mut self) -> Result<MacTag, ReplayError> {
        self.u64().map(MacTag::from_raw)
    }

    fn cipher(&mut self) -> Result<DataBlock, ReplayError> {
        let bytes = self.r.array().ok_or_else(|| self.bad())?;
        Ok(DataBlock::from_bytes(bytes))
    }

    /// A counter block's wire bytes. Callers validate them with
    /// [`counter_block`] after [`Payload::end`], so a payload of the
    /// wrong size is `BadFrame` before it can be `BadCounters`.
    fn counters(&mut self) -> Result<[u8; COUNTERS_BYTES], ReplayError> {
        self.r.array().ok_or_else(|| self.bad())
    }

    /// Reads the rest as a list of `u64`s.
    fn u64s(mut self) -> Result<impl Iterator<Item = u64> + 'a, ReplayError> {
        if !self.r.remaining().is_multiple_of(8) {
            return Err(self.bad());
        }
        Ok(std::iter::from_fn(move || self.r.u64()))
    }

    /// Checks that every byte was read.
    fn end(&self) -> Result<(), ReplayError> {
        if self.r.is_empty() {
            Ok(())
        } else {
            Err(self.bad())
        }
    }
}

fn counter_block(wire: &[u8; COUNTERS_BYTES]) -> Result<CounterBlock, ReplayError> {
    CounterBlock::from_bytes(wire).map_err(|_| ReplayError::BadCounters)
}

/// `page`, checked to be a leaf of `geometry`: a counter frame's page
/// keys the rebuild, which panics outside the tree.
fn tree_page(geometry: BmtGeometry, tag: u8, page: u64) -> Result<u64, ReplayError> {
    if page < geometry.leaf_count() {
        Ok(page)
    } else {
        Err(ReplayError::PageOutsideTree { tag, page })
    }
}

/// Rebuilds the durable [`PersistImage`] a killed process left in
/// `path`, under master key `key` (the image stores geometry but the
/// key never leaves the chip).
///
/// Torn tails are tolerated — they are the kill itself. Anything else
/// malformed is a typed error, never a panic: a counter frame whose
/// page lies outside the header's tree is
/// [`ReplayError::PageOutsideTree`], so every replayed image can be
/// rebuilt.
pub fn replay_image(path: &Path, key: SipKey) -> Result<ReplayedImage, ReplayError> {
    let file = ImageReader::open(path)?;
    let header = file.header().clone();
    if header.arity > 1 << 16 || header.levels > 16 {
        return Err(ReplayError::BadGeometry);
    }
    let geometry =
        BmtGeometry::try_new(header.arity, header.levels).ok_or(ReplayError::BadGeometry)?;
    // An image with no root frame on disk keeps the fresh-tree root —
    // the same convention as `PersistImage::fresh`.
    let mut image = PersistImage::fresh(geometry, key);

    // Sorted into a set once, after the last frame.
    let mut complete_ids: Vec<u64> = Vec::new();
    // Component bitmask per id: data=1, counter=2, mac=4, root=8.
    let mut components: FastMap<u64, u8> = FastMap::default();
    let mut seals = 0u64;
    let mut recovered = false;
    let mut quarantined: BTreeSet<BlockAddr> = BTreeSet::new();

    for (tag, payload) in file.frames() {
        let mut p = Payload::new(tag, payload);
        match tag {
            TAG_TUPLE => {
                let (id, addr, page, root) = (p.u64()?, p.addr()?, p.u64()?, p.u64()?);
                let (mac, cipher, counters) = (p.mac()?, p.cipher()?, p.counters()?);
                p.end()?;
                let page = tree_page(geometry, tag, page)?;
                image.root = root;
                image.macs.insert(addr, mac);
                image.data.insert(addr, cipher);
                image.counters.insert(page, counter_block(&counters)?);
                complete_ids.push(id);
            }
            TAG_TRIAD => {
                let (id, addr, page, cipher, counters) =
                    (p.u64()?, p.addr()?, p.u64()?, p.cipher()?, p.counters()?);
                p.end()?;
                let page = tree_page(geometry, tag, page)?;
                image.data.insert(addr, cipher);
                image.counters.insert(page, counter_block(&counters)?);
                *components.entry(id).or_insert(0) |= 3;
            }
            TAG_DATA => {
                let (id, addr, cipher) = (p.u64()?, p.addr()?, p.cipher()?);
                p.end()?;
                image.data.insert(addr, cipher);
                *components.entry(id).or_insert(0) |= 1;
            }
            TAG_COUNTER => {
                let (id, page, counters) = (p.u64()?, p.u64()?, p.counters()?);
                p.end()?;
                let page = tree_page(geometry, tag, page)?;
                image.counters.insert(page, counter_block(&counters)?);
                *components.entry(id).or_insert(0) |= 2;
            }
            TAG_MAC => {
                let (id, addr, mac) = (p.u64()?, p.addr()?, p.mac()?);
                p.end()?;
                image.macs.insert(addr, mac);
                *components.entry(id).or_insert(0) |= 4;
            }
            TAG_ROOT => {
                let (id, root) = (p.u64()?, p.u64()?);
                p.end()?;
                image.root = root;
                *components.entry(id).or_insert(0) |= 8;
            }
            TAG_SEAL => {
                let (_epoch, root) = (p.u64()?, p.u64()?);
                p.end()?;
                image.root = root;
                seals += 1;
            }
            TAG_OVERFLOW => {
                let (id, addr, mac, cipher) = (p.u64()?, p.addr()?, p.mac()?, p.cipher()?);
                p.end()?;
                image.macs.insert(addr, mac);
                image.data.insert(addr, cipher);
                complete_ids.push(id);
            }
            TAG_REC_BLOCK => {
                let (addr, mac, cipher) = (p.addr()?, p.mac()?, p.cipher()?);
                p.end()?;
                image.macs.insert(addr, mac);
                image.data.insert(addr, cipher);
            }
            TAG_REC_COUNTER => {
                let (page, counters) = (p.u64()?, p.counters()?);
                p.end()?;
                let page = tree_page(geometry, tag, page)?;
                image.counters.insert(page, counter_block(&counters)?);
            }
            TAG_REC_IDS => complete_ids.extend(p.u64s()?),
            TAG_REC_QUARANTINE => quarantined.extend(p.u64s()?.map(BlockAddr::new)),
            TAG_ROOT_COMMIT => {
                let (root, sealed) = (p.u64()?, p.u64()?);
                p.end()?;
                image.root = root;
                seals = sealed;
                recovered = true;
            }
            _ => return Err(p.bad()),
        }
    }
    let mut partial_ids = BTreeSet::new();
    for (id, mask) in components {
        if mask == 0b1111 {
            complete_ids.push(id);
        } else {
            partial_ids.insert(id);
        }
    }
    Ok(ReplayedImage {
        header,
        image,
        complete_ids: complete_ids.into_iter().collect(),
        partial_ids,
        seals,
        frames: file.frame_count(),
        torn_tail_bytes: file.torn_tail_bytes(),
        recovered,
        quarantined,
    })
}

/// What one durable-recovery attempt did to the on-device image.
#[derive(Debug)]
pub struct RecoveryWriteback {
    /// The repair analysis (same outcome `RecoveryManager::recover`
    /// returns for an in-memory image).
    pub outcome: crate::RecoveryOutcome,
    /// The image state *before* this attempt touched anything.
    pub replayed: ReplayedImage,
    /// Whether the image file was rewritten. `false` means the image
    /// was already a canonical recovered image and this attempt was a
    /// byte-identical no-op — the idempotence fixpoint.
    pub rewritten: bool,
    /// The `pre-repair` visit every attempt makes first: no path
    /// through [`recover_image`] can return an outcome without it.
    _crossed: Crossed,
}

fn fp_hit(reg: &mut Option<&mut FailpointRegistry>, point: Failpoint) -> Crossed {
    failpoint::visit(reg.as_deref_mut(), point)
}

/// Path of the scratch file recovery writes before its atomic rename.
pub fn recovery_scratch_path(image: &Path) -> std::path::PathBuf {
    let mut os = image.as_os_str().to_os_string();
    os.push(".rec");
    std::path::PathBuf::from(os)
}

/// Durable, crash-consistent recovery of the image at `path`.
///
/// Replays the image, runs `RecoveryManager::recover`, then makes the
/// repair itself durable: the canonical recovered image is encoded in
/// memory, written to a scratch file with one write, and committed
/// over the original with one atomic rename. A SIGKILL at any instant
/// leaves either the original image intact (commit not reached) or the
/// fully recovered one (commit done) — never a half-repaired image — so
/// recovery is idempotent and monotone under nested crashes.
///
/// The four recovery failpoints fire in order: `pre-repair` before
/// anything is decided, `mid-repair-writeback` before each frame of
/// the recovered image is encoded, `pre-root-commit` after the scratch
/// is written, and `post-root-commit` after the rename.
///
/// An image that is already canonical-recovered and agrees with the
/// fresh analysis is left untouched (`rewritten: false`). An image
/// whose header geometry is not `manager`'s is
/// [`ReplayError::GeometryMismatch`], and nothing is written.
pub fn recover_image(
    path: &Path,
    key: SipKey,
    manager: &crate::RecoveryManager,
    records: &[crate::PersistRecord],
    expected: &crate::ObserverExpectation,
    registry: Option<&mut FailpointRegistry>,
) -> Result<RecoveryWriteback, ReplayError> {
    let mut reg = registry;
    let crossed = fp_hit(&mut reg, Failpoint::RecoveryPreRepair);
    let replayed = replay_image(path, key)?;
    let image = BmtGeometry::try_new(replayed.header.arity, replayed.header.levels)
        .ok_or(ReplayError::BadGeometry)?;
    if image != manager.geometry() {
        return Err(ReplayError::GeometryMismatch {
            image,
            manager: manager.geometry(),
        });
    }
    let outcome = manager.recover(&replayed.image, records, expected);

    // Fixpoint test: a canonical recovered image whose fresh analysis
    // changes nothing is left byte-identical on disk.
    let quarantine_now: BTreeSet<BlockAddr> = outcome.quarantined().into_iter().collect();
    if replayed.recovered
        && replayed.torn_tail_bytes == 0
        && !outcome.root.needed_repair()
        && quarantine_now == replayed.quarantined
    {
        return Ok(RecoveryWriteback {
            outcome,
            replayed,
            rewritten: false,
            _crossed: crossed,
        });
    }

    // Counter blocks first (they are what the adopted root is rebuilt
    // from), then surviving blocks, then the bookkeeping frames. All
    // iteration is sorted so the canonical image is deterministic.
    let mut image = replayed.header.encode().to_vec();
    let mut payload = Vec::with_capacity(16 + 64);
    let mut pages: Vec<u64> = replayed.image.counters.keys().copied().collect();
    pages.sort_unstable();
    for page in pages {
        fp_hit(&mut reg, Failpoint::RecoveryMidWriteback);
        payload.clear();
        payload.extend_from_slice(&page.to_le_bytes());
        payload.extend_from_slice(&replayed.image.counters[&page].to_bytes());
        encode_frame_into(&mut image, TAG_REC_COUNTER, &payload);
    }
    let mut addrs: Vec<BlockAddr> = replayed
        .image
        .data
        .keys()
        .filter(|a| replayed.image.macs.contains_key(a) && !quarantine_now.contains(a))
        .copied()
        .collect();
    addrs.sort();
    for addr in addrs {
        fp_hit(&mut reg, Failpoint::RecoveryMidWriteback);
        payload.clear();
        payload.extend_from_slice(&addr.index().to_le_bytes());
        payload.extend_from_slice(&replayed.image.macs[&addr].raw().to_le_bytes());
        payload.extend_from_slice(replayed.image.data[&addr].as_bytes());
        encode_frame_into(&mut image, TAG_REC_BLOCK, &payload);
    }
    fp_hit(&mut reg, Failpoint::RecoveryMidWriteback);
    payload.clear();
    for id in &replayed.complete_ids {
        payload.extend_from_slice(&id.to_le_bytes());
    }
    encode_frame_into(&mut image, TAG_REC_IDS, &payload);
    if !quarantine_now.is_empty() {
        fp_hit(&mut reg, Failpoint::RecoveryMidWriteback);
        payload.clear();
        for addr in &quarantine_now {
            payload.extend_from_slice(&addr.index().to_le_bytes());
        }
        encode_frame_into(&mut image, TAG_REC_QUARANTINE, &payload);
    }
    payload.clear();
    payload.extend_from_slice(&outcome.adopted_root.to_le_bytes());
    payload.extend_from_slice(&replayed.seals.to_le_bytes());
    encode_frame_into(&mut image, TAG_ROOT_COMMIT, &payload);

    // Only the rename commits the scratch: a kill before it leaves the
    // original untouched.
    let scratch = recovery_scratch_path(path);
    let mut file = File::create(&scratch)
        .map_err(|_| ReplayError::Image(NvmError::ImageIo { op: "create" }))?;
    file.write_all(&image)
        .map_err(|_| ReplayError::Image(NvmError::ImageIo { op: "write" }))?;
    drop(file);

    fp_hit(&mut reg, Failpoint::RecoveryPreRootCommit);
    std::fs::rename(&scratch, path)
        .map_err(|_| ReplayError::Image(NvmError::ImageIo { op: "rename" }))?;
    fp_hit(&mut reg, Failpoint::RecoveryPostRootCommit);

    Ok(RecoveryWriteback {
        outcome,
        replayed,
        rewritten: true,
        _crossed: crossed,
    })
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use plp_events::Cycle;
    use plp_nvm::image::IMAGE_HEADER_BYTES;
    use plp_trace::spec;
    use proptest::prelude::*;

    use super::*;
    use crate::failpoint::{Failpoint, FailpointPlan, FailpointRegistry};
    use crate::{ObserverExpectation, PersistRecord, SimSetup, UpdateScheme};

    fn temp_image(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("plp-crash-{name}-{}.img", std::process::id()))
    }

    fn setup_for(scheme: UpdateScheme) -> SimSetup {
        let mut config = SystemConfig::for_scheme(scheme);
        config.record_persists = true;
        let profile = spec::benchmark("gcc").unwrap();
        SimSetup::for_profile(config, &profile, 7).unwrap()
    }

    /// A full (no-kill) file-backed run replays to exactly the image
    /// the in-memory reconstruction produces — byte-for-byte equality
    /// of data, MACs, counters and root.
    ///
    /// For tuple-atomic schemes the time-ordered reconstruction
    /// (`PersistImage::at_time`) is the golden: completions are
    /// monotonic, so time order and program order agree. The
    /// `unordered` baseline has no such guarantee — its component
    /// times genuinely reorder against program order — so its golden
    /// is the program-order fold of the same records (which is what
    /// the file, an append log, physically is).
    fn roundtrip_equals_in_memory(scheme: UpdateScheme, name: &str) {
        let setup = setup_for(scheme);
        let trace = setup.generate_trace(8_000);
        let path = temp_image(name);
        let mut sim = setup.simulation();
        sim.attach_durable_sink(DurableSink::create(&path, setup.config(), 7).unwrap());
        let (report, finished) = sim.run_with_state(&trace);
        assert_eq!(finished.durable_error(), None);

        let replayed = replay_image(&path, setup.config().key).unwrap();
        assert_eq!(replayed.torn_tail_bytes, 0);
        assert!(replayed.partial_ids.is_empty());
        assert_eq!(replayed.complete_ids.len(), report.records.len());
        if scheme == UpdateScheme::Unordered {
            let mut golden = PersistImage::fresh(setup.config().bmt, setup.config().key);
            for r in &report.records {
                golden.data.insert(r.addr, r.ciphertext);
                golden.macs.insert(r.addr, r.mac);
                golden
                    .counters
                    .insert(r.addr.page().index(), r.counters_after.clone());
            }
            golden.root = finished.architectural_root();
            assert_eq!(replayed.image, golden);
        } else {
            let in_memory = PersistImage::at_time(
                &report.records,
                Cycle::MAX,
                setup.config().bmt,
                setup.config().key,
            );
            assert_eq!(replayed.image, in_memory);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sp_roundtrip_equals_in_memory() {
        roundtrip_equals_in_memory(UpdateScheme::Sp, "sp");
    }

    #[test]
    fn unordered_roundtrip_equals_in_memory() {
        roundtrip_equals_in_memory(UpdateScheme::Unordered, "unordered");
    }

    #[test]
    fn coalescing_roundtrip_equals_in_memory() {
        roundtrip_equals_in_memory(UpdateScheme::Coalescing, "coalescing");
    }

    #[test]
    fn triad_roundtrip_equals_in_memory() {
        roundtrip_equals_in_memory(UpdateScheme::TriadNvm, "triad");
    }

    #[test]
    fn phoenix_roundtrip_equals_in_memory() {
        roundtrip_equals_in_memory(UpdateScheme::Phoenix, "phoenix");
    }

    /// Time order is program order for tuple-atomic schemes: at every
    /// cut time, the program-order fold over the ids completed by then
    /// is the time-ordered observer state. The round-trip test above
    /// and every complete-id judgement rest on this.
    #[test]
    fn complete_id_expectation_matches_time_cut() {
        for scheme in UpdateScheme::correct() {
            let setup = setup_for(scheme);
            let report = setup.simulation().run(&setup.generate_trace(8_000));
            let records = &report.records;
            assert!(records.len() > 8, "{scheme}: too few persists");
            let mut cuts = vec![Cycle::ZERO, Cycle::MAX];
            for k in [1, records.len() / 4, records.len() / 2, records.len() - 1] {
                let t = records[k].completed_at();
                cuts.extend([t.saturating_sub(Cycle::new(1)), t]);
            }
            for t in cuts {
                let complete: BTreeSet<u64> = records
                    .iter()
                    .filter(|r| r.completed_at() <= t)
                    .map(|r| r.id.0)
                    .collect();
                assert_eq!(
                    ObserverExpectation::from_complete_ids(records, &complete),
                    ObserverExpectation::at_time(records, t),
                    "{scheme} at {t}"
                );
            }
        }
    }

    /// A kill inside `triad_nvm`'s relaxed flush window leaves the
    /// strict data/counter slice durable and the id *partial*: fresh
    /// data with no MAC — the detected-loss signature recovery must
    /// flag, never silently accept.
    #[test]
    fn triad_frames_split_the_tuple_at_the_relaxed_window() {
        let path = temp_image("triad-window");
        let config = SystemConfig::for_scheme(UpdateScheme::TriadNvm);
        let mut sink = DurableSink::create(&path, &config, 7).unwrap();
        let cipher = DataBlock::from_u64(42);
        let mut counters = CounterBlock::default();
        counters.bump(0);
        // Persist 1 completes: the slice, then MAC and root after the
        // relaxed window.
        sink.triad(&TriadFrame {
            id: 1,
            addr: BlockAddr::new(8),
            page: 1,
            cipher: &cipher,
            counters: &counters,
        });
        sink.mac_tag(1, BlockAddr::new(8), MacTag::from_raw(0xAB));
        sink.root(1, 0xCD);
        // Persist 2 is killed inside the relaxed window: slice only.
        sink.triad(&TriadFrame {
            id: 2,
            addr: BlockAddr::new(9),
            page: 1,
            cipher: &cipher,
            counters: &counters,
        });
        assert_eq!(sink.error(), None);
        drop(sink);

        let replayed = replay_image(&path, config.key).unwrap();
        assert_eq!(replayed.complete_ids, BTreeSet::from([1]));
        assert_eq!(replayed.partial_ids, BTreeSet::from([2]));
        // The stranded pair is durable — data and counters on disk —
        // but its MAC never arrived.
        assert!(replayed.image.data.contains_key(&BlockAddr::new(9)));
        assert!(!replayed.image.macs.contains_key(&BlockAddr::new(9)));
        assert_eq!(replayed.image.root, 0xCD);
        std::fs::remove_file(&path).unwrap();
    }

    /// A torn triad frame (the armed mid-tuple kill inside the strict
    /// slice) is discarded whole: an interrupted slice leaves no
    /// partial state, exactly like a torn 2SP tuple.
    #[test]
    fn torn_triad_frame_is_discarded() {
        let path = temp_image("triad-torn");
        let config = SystemConfig::for_scheme(UpdateScheme::TriadNvm);
        let mut sink = DurableSink::create(&path, &config, 7).unwrap();
        let cipher = DataBlock::from_u64(7);
        let counters = CounterBlock::default();
        sink.triad(&TriadFrame {
            id: 1,
            addr: BlockAddr::new(1),
            page: 0,
            cipher: &cipher,
            counters: &counters,
        });
        sink.triad_torn(&TriadFrame {
            id: 2,
            addr: BlockAddr::new(2),
            page: 0,
            cipher: &cipher,
            counters: &counters,
        });
        drop(sink);
        let replayed = replay_image(&path, config.key).unwrap();
        assert!(replayed.torn_tail_bytes > 0);
        // Id 1's slice survives (partial: its MAC/root never landed);
        // the torn id 2 vanishes entirely.
        assert_eq!(replayed.partial_ids, BTreeSet::from([1]));
        assert!(replayed.complete_ids.is_empty());
        assert!(!replayed.image.data.contains_key(&BlockAddr::new(2)));
        std::fs::remove_file(&path).unwrap();
    }

    /// A torn tuple frame (the armed mid-tuple kill) cuts the image at
    /// a tuple boundary: the replayed image equals the golden model
    /// restricted to the persists that are fully on disk.
    #[test]
    fn torn_tuple_cuts_at_tuple_boundary() {
        let setup = setup_for(UpdateScheme::Sp);
        let trace = setup.generate_trace(8_000);
        let path = temp_image("torn-cut");
        let mut sim = setup.simulation();
        sim.attach_durable_sink(DurableSink::create(&path, setup.config(), 7).unwrap());
        sim.arm_failpoints(FailpointRegistry::observe(FailpointPlan {
            point: Failpoint::MidTuple,
            hit: 100,
        }));
        let (report, finished) = sim.run_with_state(&trace);
        let fired = finished.fired_failpoint().expect("failpoint must fire");
        assert_eq!(fired.persist, 101);

        let replayed = replay_image(&path, setup.config().key).unwrap();
        // The torn frame (and, in this in-process stand-in, everything
        // appended after it) is discarded; the surviving prefix is the
        // 100 complete tuples before the armed kill.
        assert!(replayed.torn_tail_bytes > 0);
        assert_eq!(
            replayed.complete_ids,
            (1..=100).collect::<std::collections::BTreeSet<u64>>()
        );
        let cut: Vec<PersistRecord> = report
            .records
            .iter()
            .filter(|r| replayed.complete_ids.contains(&r.id.0))
            .cloned()
            .collect();
        let golden =
            PersistImage::at_time(&cut, Cycle::MAX, setup.config().bmt, setup.config().key);
        assert_eq!(replayed.image, golden);
        std::fs::remove_file(&path).unwrap();
    }

    /// An unordered kill mid-tuple leaves genuinely partial component
    /// state on disk: the durable prefix holds persists 1–100 whole
    /// and only persist 101's data and counter frames.
    #[test]
    fn unordered_mid_tuple_leaves_partial_components() {
        let setup = setup_for(UpdateScheme::Unordered);
        let trace = setup.generate_trace(8_000);
        let path = temp_image("unordered-partial");
        let mut sim = setup.simulation();
        sim.attach_durable_sink(DurableSink::create(&path, setup.config(), 7).unwrap());
        // Unordered visits mid-tuple three times per persist (after its
        // data, counter and MAC frames); zero-based hit 301 is persist
        // 101's second visit, after its counter frame.
        sim.arm_failpoints(FailpointRegistry::observe(FailpointPlan {
            point: Failpoint::MidTuple,
            hit: 301,
        }));
        let (_, finished) = sim.run_with_state(&trace);
        let fired = finished.fired_failpoint().expect("failpoint must fire");
        assert_eq!(fired.persist, 101);
        // Observe mode runs on past the armed hit; keep only the frames
        // that were durable when a killed child would have died there.
        let file = ImageReader::open(&path).unwrap();
        let records: Vec<(u8, &[u8])> = file.frames().collect();
        let id_of = |payload: &[u8]| Reader::new(payload).u64().unwrap();
        let kill = records
            .iter()
            .position(|&(tag, p)| tag == TAG_MAC && id_of(p) == 101)
            .expect("persist 101 has a MAC frame");
        let tags: Vec<(u8, u64)> = records[kill - 2..kill + 2]
            .iter()
            .map(|&(tag, p)| (tag, id_of(p)))
            .collect();
        assert_eq!(
            tags,
            [
                (TAG_DATA, 101),
                (TAG_COUNTER, 101),
                (TAG_MAC, 101),
                (TAG_ROOT, 101)
            ]
        );
        {
            let mut w = ImageWriter::create(&path, file.header()).unwrap();
            for &(tag, payload) in &records[..kill] {
                w.append(tag, payload).unwrap();
            }
        }
        let replayed = replay_image(&path, setup.config().key).unwrap();
        assert_eq!(replayed.complete_ids, (1..=100).collect::<BTreeSet<u64>>());
        assert_eq!(replayed.partial_ids, BTreeSet::from([101]));
        std::fs::remove_file(&path).unwrap();
    }

    /// Durable recovery of a torn image commits a canonical recovered
    /// image (complete ids preserved, adopted root persisted), and a
    /// second recovery is a byte-identical no-op fixpoint.
    #[test]
    fn recover_image_commits_then_fixpoints() {
        let setup = setup_for(UpdateScheme::Sp);
        let trace = setup.generate_trace(8_000);
        let path = temp_image("recover-commit");
        let mut sim = setup.simulation();
        sim.attach_durable_sink(DurableSink::create(&path, setup.config(), 7).unwrap());
        sim.arm_failpoints(FailpointRegistry::observe(FailpointPlan {
            point: Failpoint::MidTuple,
            hit: 100,
        }));
        let (report, _) = sim.run_with_state(&trace);

        let key = setup.config().key;
        let manager = crate::RecoveryManager::for_config(setup.config());
        let before = replay_image(&path, key).unwrap();
        assert!(!before.recovered);
        let expected =
            ObserverExpectation::from_complete_ids(&report.records, &before.complete_ids);

        // Observe-mode registry so recovery failpoints count hits.
        let mut reg = FailpointRegistry::observe(FailpointPlan {
            point: Failpoint::RecoveryPreRootCommit,
            hit: 0,
        });
        let wb = recover_image(
            &path,
            key,
            &manager,
            &report.records,
            &expected,
            Some(&mut reg),
        )
        .unwrap();
        assert!(wb.rewritten);
        assert_eq!(wb.outcome.verdict(), crate::FaultVerdict::Clean);
        assert_eq!(reg.hit_count(Failpoint::RecoveryPreRepair), 1);
        assert!(reg.hit_count(Failpoint::RecoveryMidWriteback) > 1);
        assert_eq!(reg.hit_count(Failpoint::RecoveryPreRootCommit), 1);
        assert_eq!(reg.hit_count(Failpoint::RecoveryPostRootCommit), 1);
        assert!(reg.fired().is_some());

        let after = replay_image(&path, key).unwrap();
        assert!(after.recovered);
        assert_eq!(after.torn_tail_bytes, 0);
        assert_eq!(after.complete_ids, before.complete_ids);
        assert_eq!(after.image.root, wb.outcome.adopted_root);
        assert_eq!(after.image.counters, before.image.counters);
        assert!(!recovery_scratch_path(&path).exists());

        // Second recovery: byte-identical fixpoint, no rewrite.
        let bytes1 = std::fs::read(&path).unwrap();
        let wb2 = recover_image(&path, key, &manager, &report.records, &expected, None).unwrap();
        assert!(!wb2.rewritten);
        assert_eq!(wb2.outcome.verdict(), crate::FaultVerdict::Clean);
        assert_eq!(std::fs::read(&path).unwrap(), bytes1);
        std::fs::remove_file(&path).unwrap();
    }

    /// Quarantined addresses stay quarantined across recoveries: their
    /// data never comes back, and the second pass re-detects exactly
    /// the same loss (monotone, never silently "healed").
    #[test]
    fn recover_image_quarantine_is_sticky() {
        let setup = setup_for(UpdateScheme::Sp);
        let trace = setup.generate_trace(8_000);
        let path = temp_image("recover-quarantine");
        let mut sim = setup.simulation();
        sim.attach_durable_sink(DurableSink::create(&path, setup.config(), 7).unwrap());
        let (report, _) = sim.run_with_state(&trace);

        let key = setup.config().key;
        let manager = crate::RecoveryManager::for_config(setup.config());
        let before = replay_image(&path, key).unwrap();
        // Expect one extra block the image never persisted completely:
        // recovery must quarantine it (missing data fails its MAC).
        let mut expected =
            ObserverExpectation::from_complete_ids(&report.records, &before.complete_ids);
        let ghost = BlockAddr::new(u64::MAX - 1);
        expected.plaintexts.insert(ghost, Default::default());

        let wb = recover_image(&path, key, &manager, &report.records, &expected, None).unwrap();
        assert!(wb.rewritten);
        assert_eq!(wb.outcome.quarantined(), vec![ghost]);
        let mid = replay_image(&path, key).unwrap();
        assert_eq!(
            mid.quarantined.iter().copied().collect::<Vec<_>>(),
            vec![ghost]
        );

        let wb2 = recover_image(&path, key, &manager, &report.records, &expected, None).unwrap();
        assert!(!wb2.rewritten);
        assert_eq!(wb2.outcome.quarantined(), vec![ghost]);
        assert_eq!(wb2.outcome.verdict(), crate::FaultVerdict::DetectedLoss);
        std::fs::remove_file(&path).unwrap();
    }

    /// The header checksum is FNV-1a, so anyone can forge a header.
    /// A valid but enormous geometry replays without building its
    /// tree (8-ary, 12 levels would be a 78 GB arena), and one whose
    /// node count overflows 64-bit labels is a typed error.
    #[test]
    fn replay_survives_forged_geometry_headers() {
        let config = SystemConfig::for_scheme(UpdateScheme::Sp);
        let write = |name: &str, arity: u64, levels: u32| {
            let path = temp_image(name);
            let header = ImageHeader {
                arity,
                levels,
                seed: 7,
                scheme: "sp".to_string(),
            };
            drop(ImageWriter::create(&path, &header).unwrap());
            path
        };

        let path = write("forged-tall", 8, 12);
        let replayed = replay_image(&path, config.key).unwrap();
        assert_eq!(replayed.frames, 0);
        assert_eq!(
            replayed.image.root,
            plp_bmt::BonsaiTree::fresh_root(BmtGeometry::new(8, 12), config.key)
        );
        std::fs::remove_file(&path).unwrap();

        let path = write("forged-overflow", 1 << 16, 16);
        assert_eq!(
            replay_image(&path, config.key).unwrap_err(),
            ReplayError::BadGeometry
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Replay rejects malformed frames with typed errors, never a
    /// panic.
    #[test]
    fn replay_rejects_malformed_frames() {
        let path = temp_image("malformed");
        let config = SystemConfig::for_scheme(UpdateScheme::Sp);
        let mut sink = DurableSink::create(&path, &config, 7).unwrap();
        sink.root(1, 0xdead);
        drop(sink);
        // Append a checksummed frame with an unknown tag.
        {
            let file = ImageReader::open(&path).unwrap();
            let mut w = ImageWriter::create(&path, file.header()).unwrap();
            for (tag, payload) in file.frames() {
                w.append(tag, payload).unwrap();
            }
            w.append(99, &[1, 2, 3]).unwrap();
        }
        let err = replay_image(&path, config.key).unwrap_err();
        assert_eq!(err, ReplayError::BadFrame { tag: 99, len: 3 });

        // A root frame with the wrong payload size is a producer bug.
        {
            let header = ImageHeader {
                arity: config.bmt.arity(),
                levels: config.bmt.levels(),
                seed: 7,
                scheme: "sp".to_string(),
            };
            let mut w = ImageWriter::create(&path, &header).unwrap();
            w.append(TAG_ROOT, &[0; 7]).unwrap();
        }
        let err = replay_image(&path, config.key).unwrap_err();
        assert_eq!(
            err,
            ReplayError::BadFrame {
                tag: TAG_ROOT,
                len: 7
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Frame checksums are FNV-1a, so anyone can forge a counter frame.
    /// One naming a page outside the header's tree (here `u64::MAX`,
    /// in a recovered-image counter frame) is a typed replay error, so
    /// no rebuild ever sees it; the last leaf is inside the tree.
    #[test]
    fn forged_out_of_tree_counter_page_is_a_typed_error() {
        let config = SystemConfig::for_scheme(UpdateScheme::Sp);
        let manager = crate::RecoveryManager::for_config(&config);
        let expected = ObserverExpectation::default();
        let path = temp_image("forged-page");
        let mut counters = CounterBlock::default();
        counters.bump(5);
        let forge = |page: u64| {
            let mut w = ImageWriter::create(&path, &sp_header(&config)).unwrap();
            let mut p = page.to_le_bytes().to_vec();
            p.extend_from_slice(&counters.to_bytes());
            w.append(TAG_REC_COUNTER, &p).unwrap();
        };

        forge(u64::MAX);
        let owed = ReplayError::PageOutsideTree {
            tag: TAG_REC_COUNTER,
            page: u64::MAX,
        };
        assert_eq!(replay_image(&path, config.key).unwrap_err(), owed);
        let err = recover_image(&path, config.key, &manager, &[], &expected, None).unwrap_err();
        assert_eq!(err, owed);
        assert!(err.to_string().contains("outside the image's tree"));

        forge(config.bmt.leaf_count() - 1);
        let replayed = replay_image(&path, config.key).unwrap();
        let report =
            crate::RecoveryChecker::new(config.bmt, config.key).check(&replayed.image, &expected);
        assert!(report.bmt_failure, "a counter frame moved the tree");
        let wb = recover_image(&path, config.key, &manager, &[], &expected, None).unwrap();
        assert!(wb.rewritten);
        std::fs::remove_file(&path).unwrap();
    }

    /// Recovery refuses an image of another tree shape and writes
    /// nothing: its pages could lie outside the manager's tree.
    #[test]
    fn recovery_refuses_an_image_of_another_geometry() {
        let config = SystemConfig::for_scheme(UpdateScheme::Sp);
        let path = temp_image("foreign-geometry");
        drop(DurableSink::create(&path, &config, 7).unwrap());
        let before = std::fs::read(&path).unwrap();
        let mut other = config.clone();
        other.bmt = BmtGeometry::new(8, 7);
        let manager = crate::RecoveryManager::for_config(&other);
        let expected = ObserverExpectation::default();
        let err = recover_image(&path, config.key, &manager, &[], &expected, None).unwrap_err();
        assert_eq!(
            err,
            ReplayError::GeometryMismatch {
                image: config.bmt,
                manager: other.bmt
            }
        );
        assert!(err.to_string().contains("7 levels"));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert!(!recovery_scratch_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    /// The payload size `replay_image` accepts for `tag`; the two list
    /// tags take any multiple of eight, here three entries.
    fn payload_len(tag: u8) -> Option<usize> {
        Some(match tag {
            TAG_TUPLE => 40 + 64 + COUNTERS_BYTES,
            TAG_TRIAD => 24 + 64 + COUNTERS_BYTES,
            TAG_DATA | TAG_REC_BLOCK => 16 + 64,
            TAG_COUNTER => 16 + COUNTERS_BYTES,
            TAG_MAC => 24,
            TAG_ROOT | TAG_SEAL | TAG_ROOT_COMMIT => 16,
            TAG_OVERFLOW => 24 + 64,
            TAG_REC_COUNTER => 8 + COUNTERS_BYTES,
            TAG_REC_IDS | TAG_REC_QUARANTINE => 24,
            _ => return None,
        })
    }

    /// Where the page field starts in a tag whose payload ends in a
    /// counter block; `None` for the tags that carry no counters.
    fn page_offset(tag: u8) -> Option<usize> {
        match tag {
            TAG_TUPLE | TAG_TRIAD => Some(16),
            TAG_COUNTER => Some(8),
            TAG_REC_COUNTER => Some(0),
            _ => None,
        }
    }

    /// The error `replay_image` owes one intact frame behind a header
    /// of `geometry`, if any: a size its tag does not take, then a page
    /// outside the tree, then an invalid counter block.
    fn frame_fault(geometry: BmtGeometry, tag: u8, payload: &[u8]) -> Option<ReplayError> {
        let size_ok = match tag {
            TAG_REC_IDS | TAG_REC_QUARANTINE => payload.len().is_multiple_of(8),
            _ => payload_len(tag) == Some(payload.len()),
        };
        if !size_ok {
            return Some(ReplayError::BadFrame {
                tag,
                len: payload.len(),
            });
        }
        let at = page_offset(tag)?;
        let page = u64::from_le_bytes(payload[at..at + 8].try_into().ok()?);
        if page >= geometry.leaf_count() {
            return Some(ReplayError::PageOutsideTree { tag, page });
        }
        let wire: &[u8; COUNTERS_BYTES] =
            payload[payload.len() - COUNTERS_BYTES..].try_into().ok()?;
        CounterBlock::from_bytes(wire)
            .is_err()
            .then_some(ReplayError::BadCounters)
    }

    fn sp_header(config: &SystemConfig) -> ImageHeader {
        ImageHeader {
            arity: config.bmt.arity(),
            levels: config.bmt.levels(),
            seed: 7,
            scheme: "sp".to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Behind a valid header, intact frames with any tag and any
        /// payload, then any torn tail, replay to an image exactly when
        /// every frame is well formed, and otherwise to the typed error
        /// of the first frame at fault — never a panic. A frame's
        /// `shape` picks its payload: any length (0), its tag's size
        /// (1), that with a page inside the tree (2), or that with a
        /// valid counter block too (3 and up), so the fuzz reaches every
        /// field reader, the page check and the counter validation, not
        /// just the size check. Every image that replays is then
        /// recovered, which must not fail or panic.
        #[test]
        fn replay_refuses_arbitrary_frames_with_typed_errors(
            frames in prop::collection::vec(
                (
                    0u8..16,
                    0u8..6,
                    0usize..200,
                    prop::collection::vec(any::<u8>(), 200..201),
                ),
                0..8,
            ),
            tail in prop::collection::vec(any::<u8>(), 0..32),
        ) {
            let config = SystemConfig::for_scheme(UpdateScheme::Sp);
            let path = temp_image("fuzz-frames");
            let mut written = Vec::new();
            {
                let mut w = ImageWriter::create(&path, &sp_header(&config)).unwrap();
                for (tag, shape, len, bytes) in &frames {
                    let mut payload = bytes.clone();
                    payload.truncate(if *shape > 0 { payload_len(*tag).unwrap_or(*len) } else { *len });
                    if let (2.., Some(at)) = (*shape, page_offset(*tag)) {
                        let page = u64::from(payload[at]) * config.bmt.leaf_count() / 256;
                        payload[at..at + 8].copy_from_slice(&page.to_le_bytes());
                        if *shape >= 3 {
                            let at = payload.len() - COUNTERS_BYTES;
                            payload[at..].copy_from_slice(&CounterBlock::default().to_bytes());
                        }
                    }
                    w.append(*tag, &payload).unwrap();
                    written.push((*tag, payload));
                }
            }
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(&tail);
            std::fs::write(&path, &bytes).unwrap();
            let outcome = replay_image(&path, config.key);
            let owed = written
                .iter()
                .find_map(|(tag, payload)| frame_fault(config.bmt, *tag, payload));
            let recovered = match &outcome {
                Ok(replayed) => {
                    let mut expected = ObserverExpectation::default();
                    for addr in replayed.image.data.keys() {
                        expected.plaintexts.insert(*addr, DataBlock::zeroed());
                    }
                    let manager = crate::RecoveryManager::for_config(&config);
                    Some(recover_image(&path, config.key, &manager, &[], &expected, None))
                }
                Err(_) => None,
            };
            std::fs::remove_file(&path).unwrap();
            match (outcome, owed) {
                (Ok(replayed), None) => {
                    prop_assert_eq!(replayed.frames, frames.len());
                    prop_assert_eq!(replayed.torn_tail_bytes, tail.len() as u64);
                    let recovered = recovered.unwrap();
                    prop_assert!(recovered.is_ok(), "recovery failed: {:?}", recovered.err());
                }
                (Err(got), Some(owed)) => prop_assert_eq!(got, owed),
                (got, owed) => prop_assert!(false, "replay gave {:?}, owed {:?}", got.err(), owed),
            }
        }
    }

    /// Every cut of a valid image — one frame of each persist-path tag,
    /// and its canonical recovered form with every recovery tag —
    /// replays to exactly the image its wholly-written frames give, and
    /// every one-bit flip in the frames drops the flipped frame and all
    /// after it: a torn tail, never an error, never a wrong value.
    #[test]
    fn replay_of_every_cut_and_bit_flip_is_an_intact_prefix() {
        let config = SystemConfig::for_scheme(UpdateScheme::Unordered);
        let key = config.key;
        let raw = temp_image("fuzz-raw");
        {
            let mut sink = DurableSink::create(&raw, &config, 7).unwrap();
            let cipher = DataBlock::from_u64(42);
            let mut counters = CounterBlock::default();
            counters.bump(3);
            let (addr, mac) = (BlockAddr::new(67), MacTag::from_raw(0xAB));
            sink.tuple(&TupleFrame {
                id: 1,
                addr,
                page: 1,
                cipher: &cipher,
                counters: &counters,
                mac,
                root: 0xCD,
            });
            let triad = TriadFrame {
                id: 2,
                addr: BlockAddr::new(68),
                page: 1,
                cipher: &cipher,
                counters: &counters,
            };
            sink.triad(&triad);
            sink.data(3, addr, &cipher);
            sink.counter(3, 1, &counters);
            sink.mac_tag(3, addr, mac);
            sink.root(3, 0xEF);
            sink.seal(1, 0xEF);
            sink.overflow(4, BlockAddr::new(69), &cipher, mac);
            assert_eq!(sink.error(), None);
        }
        // The recovered form: a ghost expectation forces a quarantine
        // frame next to the counter, block, id and commit frames.
        let recovered = temp_image("fuzz-recovered");
        std::fs::copy(&raw, &recovered).unwrap();
        let mut expected = ObserverExpectation::from_complete_ids(&[], &BTreeSet::new());
        expected
            .plaintexts
            .insert(BlockAddr::new(u64::MAX - 1), Default::default());
        let manager = crate::RecoveryManager::for_config(&config);
        recover_image(&recovered, key, &manager, &[], &expected, None).unwrap();

        for path in [raw, recovered] {
            let bytes = std::fs::read(&path).unwrap();
            let file = ImageReader::open(&path).unwrap();
            let records: Vec<(u8, &[u8])> = file.frames().collect();
            // The file offset each frame ends at, and the replay of the
            // image holding only the first k frames, for every k.
            let mut ends = Vec::new();
            let mut prefixes = Vec::new();
            let mut at = IMAGE_HEADER_BYTES;
            for k in 0..=records.len() {
                {
                    let mut w = ImageWriter::create(&path, file.header()).unwrap();
                    for &(tag, payload) in &records[..k] {
                        w.append(tag, payload).unwrap();
                    }
                }
                let r = replay_image(&path, key).unwrap();
                prefixes.push((r.image, r.complete_ids, r.partial_ids, r.seals, r.recovered));
                if let Some((_, payload)) = records.get(k) {
                    at += 13 + payload.len();
                    ends.push(at);
                }
            }
            assert_eq!(at, bytes.len());
            let tags: BTreeSet<u8> = records.iter().map(|&(tag, _)| tag).collect();
            assert!(tags.len() >= 5, "{tags:?}");
            let check = |damaged: &[u8], intact: usize, what: &str| {
                std::fs::write(&path, damaged).unwrap();
                let r = replay_image(&path, key).unwrap();
                let start = if intact == 0 {
                    IMAGE_HEADER_BYTES
                } else {
                    ends[intact - 1]
                };
                assert_eq!(r.frames, intact, "{what}");
                assert_eq!(r.torn_tail_bytes, (damaged.len() - start) as u64, "{what}");
                let got = (r.image, r.complete_ids, r.partial_ids, r.seals, r.recovered);
                assert!(
                    got == prefixes[intact],
                    "{what}: replay differs from the intact prefix"
                );
            };
            for cut in IMAGE_HEADER_BYTES..=bytes.len() {
                let intact = ends.iter().filter(|&&end| end <= cut).count();
                check(&bytes[..cut], intact, &format!("cut at {cut}"));
            }
            for bit in IMAGE_HEADER_BYTES * 8..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let intact = ends.iter().filter(|&&end| end <= bit / 8).count();
                check(&flipped, intact, &format!("flip of bit {bit}"));
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
