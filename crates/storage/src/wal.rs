//! Segmented write-ahead log.
//!
//! A WAL record is **one committed transaction** ([`Commit`]): the engine appends a commit's
//! whole batch of key effects as one CRC-protected frame with one sync, and only then applies
//! it in memory (and so before any snapshot can contain it).  A replica appends a shipped run
//! of the primary's commits the same way, one frame each, in one write with one sync.  One frame, one CRC and one LSN
//! per commit: a crash either leaves the whole frame or tears it, and recovery replays the
//! commits in order and stops at the first corrupt or torn frame (everything after a torn
//! write is, by definition, not yet durable).  The torn-tail rule is the whole atomicity rule —
//! there is no transaction framing to reassemble.
//!
//! The log is a sequence of bounded **segment files** (`wal.000017.seg`) instead of one
//! monolithic file:
//!
//! * appends go to the **active** (last) segment; once it outgrows
//!   [`WalConfig::segment_max_bytes`] the next commit triggers a **rotation** — the active
//!   segment is synced shut (sealed) and a fresh one is created.  A commit never spans
//!   segments;
//! * a **checkpoint** ([`WriteAheadLog::truncate`]) seals the active segment and then deletes
//!   whole sealed segments oldest-first, instead of rewriting anything.  Segments holding
//!   commits a replication subscriber still needs (at or past the **retention floor**) are
//!   kept, up to [`WalConfig::retention_budget_bytes`];
//! * **recovery** is the open walk itself: [`WriteAheadLog::with_io`] reads each segment once,
//!   checks and decodes its frames, and hands the valid commits back for the caller to replay.
//!
//! Segment layout: a 24-byte header (`magic | format version | base LSN | crc`) followed by
//! frames of `len: u32 | crc: u32 | payload: len bytes`, each payload one [`Commit`]:
//! `count: varint | count × (tag: u8 | key: bytes | value: bytes if the tag is put)`.  A
//! segment with an intact header of another format version is refused, never repaired.
//!
//! ## Checkpoint-stable LSNs
//!
//! LSNs are **absolute**: they number every commit ever appended, and checkpoint pruning does
//! not reset them.  Each segment's header carries its *base* — the LSN before its first commit —
//! so the first frame of segment with base `b` always carries LSN `b + 1`.  This is what lets a
//! replication subscriber hold a durable cursor into the primary's log
//! ([`WriteAheadLog::read_from`]) across checkpoints and restarts on either side.
//!
//! All storage I/O — the segments and the engine's checkpoint snapshot — goes through the
//! [`SegmentIo`] trait ([`FileSegmentIo`] for durable directories, [`MemorySegmentIo`] for
//! ephemeral engines), which is also the injection point for the deterministic crash-injection
//! harness in `tests/crash_injection.rs`.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::codec::{crc32, Decoder, Encoder};
use crate::error::{StorageError, StorageResult};

/// Process-wide WAL metrics (see `docs/OBSERVABILITY.md` for the catalog).  Handles are
/// registered once and shared by every log instance; recording is lock-free.
struct WalMetrics {
    append_us: seed_obs::Histogram,
    fsync_us: seed_obs::Histogram,
    batch_records: seed_obs::Histogram,
    rotations: seed_obs::Counter,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = seed_obs::global();
        WalMetrics {
            append_us: registry.histogram("wal_append_us"),
            fsync_us: registry.histogram("wal_fsync_us"),
            batch_records: registry.histogram("wal_batch_records"),
            rotations: registry.counter("wal_rotations_total"),
        }
    })
}

/// Log sequence number: the absolute, checkpoint-stable index of a commit in the log (1-based;
/// 0 means "none").  Pruning advances the log's base instead of resetting the numbering.
pub type Lsn = u64;

/// Identifier of one segment file (monotonically increasing; gaps mark pruned segments).
pub type SegmentId = u64;

/// The answer to a tail read ([`WriteAheadLog::read_from`]): either the commits from the asked
/// position to the durable end, or the news that the position has been truncated away and the
/// subscriber must resynchronize from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// Every commit with `lsn >= from`, in order (possibly empty when the caller is caught up).
    Records(Vec<(Lsn, Commit)>),
    /// The asked position is no longer in the log — either a checkpoint pruned it away, or
    /// the caller's cursor is ahead of this log (a different or reset log).  `oldest` is the
    /// first LSN still available.
    Truncated {
        /// The first LSN the log can still serve.
        oldest: Lsn,
    },
}

/// One logged effect on a key: `Some(value)` for a put, `None` for a delete.
pub type KeyEffect = (Vec<u8>, Option<Vec<u8>>);

/// A WAL record: the key effects of one committed transaction, in the order they apply.  It is
/// also the replication unit — a `LogBatch` ships commits in exactly these bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Commit {
    /// The transaction's effects: `(key, Some(value))` puts and `(key, None)` deletes.
    pub effects: Vec<KeyEffect>,
}

impl Commit {
    const TAG_PUT: u8 = 1;
    const TAG_DELETE: u8 = 2;

    /// Serializes the commit (the frame payload, without the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_into(&mut e);
        e.finish()
    }

    pub(crate) fn encode_into(&self, e: &mut Encoder) {
        e.put_varint(self.effects.len() as u64);
        for (key, value) in &self.effects {
            Self::put_effect(e, key, value.as_deref());
        }
    }

    /// Appends one effect as a commit's payload holds it, after the effect count.
    pub(crate) fn put_effect(e: &mut Encoder, key: &[u8], value: Option<&[u8]>) {
        match value {
            Some(value) => e.put_u8(Self::TAG_PUT).put_bytes(key).put_bytes(value),
            None => e.put_u8(Self::TAG_DELETE).put_bytes(key),
        };
    }

    /// Deserializes a commit produced by [`Commit::encode`]; a payload that ends early or
    /// carries trailing bytes is [`StorageError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> StorageResult<Self> {
        let mut d = Decoder::new(bytes);
        let count = d.get_varint()? as usize;
        // Every effect takes at least two bytes, so a lying count cannot over-allocate.
        let mut effects = Vec::with_capacity(count.min(bytes.len() / 2));
        for _ in 0..count {
            let tag = d.get_u8()?;
            let key = d.get_bytes()?.to_vec();
            let value = match tag {
                Self::TAG_PUT => Some(d.get_bytes()?.to_vec()),
                Self::TAG_DELETE => None,
                other => {
                    return Err(StorageError::Corrupt(format!("unknown commit effect tag {other}")))
                }
            };
            effects.push((key, value));
        }
        if !d.is_exhausted() {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes after a commit",
                d.remaining()
            )));
        }
        Ok(Self { effects })
    }
}

// ----- configuration ----------------------------------------------------------------------------

/// Tuning knobs of a [`WriteAheadLog`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotation threshold: once the active segment holds at least this many frame bytes, the
    /// next append batch goes to a fresh segment.  A single batch never spans segments, so one
    /// oversized batch may push a segment past the cap.
    pub segment_max_bytes: u64,
    /// Upper bound on the frame bytes kept **past a checkpoint** for replication subscribers
    /// (the retention floor).  Sealed segments a subscriber still needs are retained newest-
    /// first up to this budget; anything beyond it is pruned and the subscriber falls back to a
    /// snapshot resync.
    pub retention_budget_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self { segment_max_bytes: 256 * 1024, retention_budget_bytes: 4 * 1024 * 1024 }
    }
}

// ----- segment I/O ------------------------------------------------------------------------------

/// Byte-level storage for WAL segments and the engine's checkpoint snapshot.
///
/// The log's durability argument rests on three properties implementations must provide:
/// `create` persists the initial bytes (and the segment's existence) before returning, `sync`
/// is a write barrier for earlier `append`s to the same segment, and `delete` durably removes
/// the segment.  `append` may tear at any byte boundary on a crash — recovery handles that —
/// which is exactly the surface the crash-injection harness drives.  The snapshot has one
/// property of its own: `write_snapshot` replaces it atomically and durably, so after a crash
/// `read_snapshot` returns either the previous image or the new one, whole.
pub trait SegmentIo: Send + Sync {
    /// Ids of all existing segments, in ascending order.
    fn list(&self) -> StorageResult<Vec<SegmentId>>;
    /// The full contents of segment `id`.
    fn read(&self, id: SegmentId) -> StorageResult<Vec<u8>>;
    /// The contents of segment `id` from byte `offset` on (empty past its end): the tail read
    /// that serves replication.  The default slices [`SegmentIo::read`].
    fn read_at(&self, id: SegmentId, offset: u64) -> StorageResult<Vec<u8>> {
        let mut raw = self.read(id)?;
        Ok(raw.split_off((offset as usize).min(raw.len())))
    }
    /// Creates segment `id` holding `initial`, durably (contents, then existence).
    fn create(&self, id: SegmentId, initial: &[u8]) -> StorageResult<()>;
    /// Appends `bytes` to segment `id` (buffered until [`SegmentIo::sync`]).
    fn append(&self, id: SegmentId, bytes: &[u8]) -> StorageResult<()>;
    /// Forces all appended bytes of segment `id` to durable storage.
    fn sync(&self, id: SegmentId) -> StorageResult<()>;
    /// Shrinks segment `id` to `len` bytes (recovery chopping a torn tail).
    fn truncate(&self, id: SegmentId, len: u64) -> StorageResult<()>;
    /// Durably removes segment `id` (absent segments are not an error).
    fn delete(&self, id: SegmentId) -> StorageResult<()>;
    /// Atomically and durably replaces the snapshot with `image`.
    fn write_snapshot(&self, image: &[u8]) -> StorageResult<()>;
    /// The current snapshot image (`None` when no snapshot was ever written).
    fn read_snapshot(&self) -> StorageResult<Option<Vec<u8>>>;
}

/// File-backed [`SegmentIo`]: one `wal.<id:06>.seg` file per segment plus `snapshot.db`
/// inside a directory.
pub struct FileSegmentIo {
    dir: PathBuf,
    /// Cached handle of the segment currently being appended to, so the group-commit hot path
    /// (append + sync) does not reopen the file per call.
    active: Mutex<Option<(SegmentId, File)>>,
}

impl FileSegmentIo {
    /// A segment store over directory `dir` (which must exist).
    pub fn new(dir: impl AsRef<Path>) -> Self {
        Self { dir: dir.as_ref().to_path_buf(), active: Mutex::new(None) }
    }

    fn path(&self, id: SegmentId) -> PathBuf {
        self.dir.join(format!("wal.{id:06}.seg"))
    }

    /// Parses `wal.<id>.seg` names; everything else in the directory is ignored.
    fn parse_name(name: &str) -> Option<SegmentId> {
        name.strip_prefix("wal.")?.strip_suffix(".seg")?.parse().ok()
    }

    /// Directory sync: makes creates, renames and deletes durable.
    fn sync_dir(&self) -> StorageResult<()> {
        Ok(File::open(&self.dir)?.sync_all()?)
    }
}

impl SegmentIo for FileSegmentIo {
    fn list(&self) -> StorageResult<Vec<SegmentId>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(Self::parse_name) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn read(&self, id: SegmentId) -> StorageResult<Vec<u8>> {
        Ok(std::fs::read(self.path(id))?)
    }

    fn read_at(&self, id: SegmentId, offset: u64) -> StorageResult<Vec<u8>> {
        let mut file = File::open(self.path(id))?;
        file.seek(SeekFrom::Start(offset))?;
        let mut tail = Vec::new();
        file.read_to_end(&mut tail)?;
        Ok(tail)
    }

    fn create(&self, id: SegmentId, initial: &[u8]) -> StorageResult<()> {
        let mut file = OpenOptions::new().write(true).create_new(true).open(self.path(id))?;
        file.write_all(initial)?;
        file.sync_data()?;
        self.sync_dir()?;
        *self.active.lock() = Some((id, file));
        Ok(())
    }

    fn append(&self, id: SegmentId, bytes: &[u8]) -> StorageResult<()> {
        let mut active = self.active.lock();
        if !matches!(&*active, Some((aid, _)) if *aid == id) {
            let file = OpenOptions::new().read(true).append(true).open(self.path(id))?;
            *active = Some((id, file));
        }
        let Some((_, file)) = &mut *active else { unreachable!() };
        Ok(file.write_all(bytes)?)
    }

    fn sync(&self, id: SegmentId) -> StorageResult<()> {
        let active = self.active.lock();
        match &*active {
            Some((aid, file)) if *aid == id => Ok(file.sync_data()?),
            _ => Ok(File::open(self.path(id))?.sync_data()?),
        }
    }

    fn truncate(&self, id: SegmentId, len: u64) -> StorageResult<()> {
        let mut active = self.active.lock();
        if matches!(&*active, Some((aid, _)) if *aid == id) {
            *active = None;
        }
        let file = OpenOptions::new().write(true).open(self.path(id))?;
        file.set_len(len)?;
        file.sync_data()?;
        Ok(())
    }

    fn delete(&self, id: SegmentId) -> StorageResult<()> {
        let mut active = self.active.lock();
        if matches!(&*active, Some((aid, _)) if *aid == id) {
            *active = None;
        }
        drop(active);
        match std::fs::remove_file(self.path(id)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Crash-safe replace: the new image reaches disk under a temporary name before the rename
    /// makes it visible, and the directory sync makes the rename itself durable — a crash at
    /// any point leaves either the old or the new snapshot, never a torn one.
    fn write_snapshot(&self, image: &[u8]) -> StorageResult<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(image)?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, self.dir.join("snapshot.db"))?;
        self.sync_dir()
    }

    fn read_snapshot(&self) -> StorageResult<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join("snapshot.db")) {
            Ok(image) => Ok(Some(image)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// In-memory [`SegmentIo`] (ephemeral databases and tests).
#[derive(Default)]
pub struct MemorySegmentIo {
    segments: Mutex<BTreeMap<SegmentId, Vec<u8>>>,
    snapshot: Mutex<Option<Vec<u8>>>,
}

impl MemorySegmentIo {
    /// An empty in-memory segment store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store seeded with existing segment contents (reopening a crash survivor state).
    pub fn from_segments(segments: BTreeMap<SegmentId, Vec<u8>>) -> Self {
        Self { segments: Mutex::new(segments), snapshot: Mutex::new(None) }
    }
}

impl SegmentIo for MemorySegmentIo {
    fn list(&self) -> StorageResult<Vec<SegmentId>> {
        Ok(self.segments.lock().keys().copied().collect())
    }

    fn read(&self, id: SegmentId) -> StorageResult<Vec<u8>> {
        self.segments
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| StorageError::InvalidArgument(format!("no such segment {id}")))
    }

    fn create(&self, id: SegmentId, initial: &[u8]) -> StorageResult<()> {
        match self.segments.lock().entry(id) {
            std::collections::btree_map::Entry::Occupied(_) => {
                Err(StorageError::InvalidArgument(format!("segment {id} already exists")))
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(initial.to_vec());
                Ok(())
            }
        }
    }

    fn append(&self, id: SegmentId, bytes: &[u8]) -> StorageResult<()> {
        let mut segments = self.segments.lock();
        let seg = segments
            .get_mut(&id)
            .ok_or_else(|| StorageError::InvalidArgument(format!("no such segment {id}")))?;
        seg.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, _id: SegmentId) -> StorageResult<()> {
        Ok(())
    }

    fn truncate(&self, id: SegmentId, len: u64) -> StorageResult<()> {
        let mut segments = self.segments.lock();
        let seg = segments
            .get_mut(&id)
            .ok_or_else(|| StorageError::InvalidArgument(format!("no such segment {id}")))?;
        seg.truncate(len as usize);
        Ok(())
    }

    fn delete(&self, id: SegmentId) -> StorageResult<()> {
        self.segments.lock().remove(&id);
        Ok(())
    }

    fn write_snapshot(&self, image: &[u8]) -> StorageResult<()> {
        *self.snapshot.lock() = Some(image.to_vec());
        Ok(())
    }

    fn read_snapshot(&self) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.snapshot.lock().clone())
    }
}

// ----- segment format ---------------------------------------------------------------------------

const SEGMENT_MAGIC: &[u8; 8] = b"SEEDWSEG";
/// Version 2: one frame per commit.  A segment of any other version is refused at open.
const SEGMENT_FORMAT_VERSION: u32 = 2;
/// Bytes of the segment header: magic (8) + version (4) + base LSN (8) + CRC (4).
pub const SEGMENT_HEADER_LEN: usize = 24;

fn segment_header(base: Lsn) -> Vec<u8> {
    let mut e = Encoder::with_capacity(SEGMENT_HEADER_LEN);
    e.put_raw(SEGMENT_MAGIC).put_u32(SEGMENT_FORMAT_VERSION).put_u64(base);
    let crc = crc32(e.as_slice());
    e.put_u32(crc);
    e.finish()
}

/// Parses segment `id`'s header, returning its base LSN.  `Ok(None)` means torn bytes (short,
/// bad magic or bad CRC): the segment is a rotation artifact (creation cut by a crash) and
/// carries no acknowledged data.  An intact header of another format version is
/// [`StorageError::Corrupt`]: the segment holds data this build cannot read, so nothing may
/// treat it as torn and delete it.
fn parse_segment_header(id: SegmentId, raw: &[u8]) -> StorageResult<Option<Lsn>> {
    let Some(header) = raw.get(..SEGMENT_HEADER_LEN) else { return Ok(None) };
    let (body, crc) = header.split_at(SEGMENT_HEADER_LEN - 4);
    if &body[..8] != SEGMENT_MAGIC || crc32(body).to_le_bytes() != crc {
        return Ok(None);
    }
    let version = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    if version != SEGMENT_FORMAT_VERSION {
        return Err(StorageError::Corrupt(format!(
            "WAL segment {id} has format version {version}; this build reads only version \
             {SEGMENT_FORMAT_VERSION} (resync the directory from a primary or a backup)"
        )));
    }
    Ok(Some(u64::from_le_bytes(body[12..20].try_into().expect("8 bytes"))))
}

/// Appends one frame to `e`: `len | crc | payload`, with the payload (a commit) written in place
/// by `payload` and the header patched in once the payload's length and CRC are known.  Every
/// frame on disk, in a segment or in the checkpoint snapshot, is built here.
pub(crate) fn put_frame(e: &mut Encoder, payload: impl FnOnce(&mut Encoder)) {
    let start = e.len();
    e.put_raw(&[0; 8]);
    payload(e);
    let frame = &mut e.as_mut_slice()[start..];
    let len = u32::try_from(frame.len() - 8).expect("a commit is shorter than 4 GiB");
    let crc = crc32(&frame[8..]);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// One parsed run of frames: the decoded commits at or past the asked cursor, the payload
/// offset of every valid frame (one per frame), the byte length of the valid frame prefix, and
/// whether that prefix covered every byte (`false` = a torn tail follows).
pub(crate) struct SegmentParse {
    pub(crate) commits: Vec<(Lsn, Commit)>,
    pub(crate) offsets: Vec<u64>,
    valid_len: usize,
    pub(crate) complete: bool,
}

/// Walks a run of frames: a segment's payload (the bytes after the header), the tail of the
/// active segment from one of its frames on, or the checkpoint snapshot's frames.  Commits are
/// numbered from `base + 1`; only those with `lsn >= min_lsn` are decoded and returned, and
/// every frame is CRC-checked.  Open (which is recovery) walks whole segments; a replication
/// tail read starts at the cursor's frame (the active segment's frame index gives its offset),
/// so it reads and checks only the new frames.  Stops at the first truncated or
/// checksum-failing frame — the standard WAL recovery rule.  A crash can tear the last commit's
/// frame anywhere (it may span sectors written out of order), and nothing past it was
/// acknowledged (its sync cannot have returned), so recovery keeps the valid prefix and
/// discards the rest instead of refusing to open.
pub(crate) fn parse_segment(
    payload: &[u8],
    base: Lsn,
    min_lsn: Lsn,
) -> StorageResult<SegmentParse> {
    let mut commits = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    let mut lsn: Lsn = base + 1;
    while pos + 8 <= payload.len() {
        let len = u32::from_le_bytes(payload[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(payload[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if pos + 8 + len > payload.len() {
            // Torn write at the tail: everything before it is still valid.
            break;
        }
        let frame = &payload[pos + 8..pos + 8 + len];
        if crc32(frame) != crc {
            break;
        }
        if lsn >= min_lsn {
            commits.push((lsn, Commit::decode(frame)?));
        }
        offsets.push(pos as u64);
        pos += 8 + len;
        lsn += 1;
    }
    Ok(SegmentParse { commits, offsets, valid_len: pos, complete: pos == payload.len() })
}

// ----- the log ----------------------------------------------------------------------------------

/// Live metadata of one segment (the bytes themselves stay in the [`SegmentIo`]).
#[derive(Debug, Clone)]
struct Segment {
    id: SegmentId,
    /// LSN before this segment's first commit: its frames carry `base + 1 ..= base + commits`.
    base: Lsn,
    commits: u64,
    /// Frame bytes (the header is excluded everywhere sizes are reported).
    bytes: u64,
}

impl Segment {
    fn end(&self) -> Lsn {
        self.base + self.commits
    }
}

struct WalState {
    /// All live segments in id order; the last one is **active** (appends go there), everything
    /// before it is sealed.  Never empty.
    segments: Vec<Segment>,
    /// Payload offset of every frame in the active segment, in LSN order: where a tail read
    /// starts.  Rebuilt by the parse at open, extended by each append, cleared at rotation.
    active_offsets: Vec<u64>,
    next_lsn: Lsn,
    /// LSN through which a checkpoint has logically discarded the log.  Sealed segments at or
    /// below it may still be physically retained for replication subscribers; they no longer
    /// count toward [`WriteAheadLog::uncheckpointed_bytes`].
    pruned_to: Lsn,
    /// Oldest LSN a replication subscriber still needs (`None` = no subscribers, retain
    /// nothing past a checkpoint).
    retention_floor: Option<Lsn>,
}

impl WalState {
    fn active(&mut self) -> &mut Segment {
        self.segments.last_mut().expect("segment list is never empty")
    }
}

/// An append-only, segmented write-ahead log.
pub struct WriteAheadLog {
    io: Arc<dyn SegmentIo>,
    config: WalConfig,
    /// All log state behind one lock: readers observe segment metadata consistent with the
    /// bytes they read, appenders serialize against rotation and pruning.
    state: Mutex<WalState>,
}

impl WriteAheadLog {
    /// Creates an in-memory log (used for ephemeral databases and tests).
    pub fn in_memory() -> Self {
        Self::in_memory_with(WalConfig::default())
    }

    /// Creates an in-memory log with explicit tuning.
    pub fn in_memory_with(config: WalConfig) -> Self {
        Self::with_io(Arc::new(MemorySegmentIo::new()), config)
            .expect("in-memory segment store cannot fail to open")
            .0
    }

    /// Opens (or creates) a segmented log inside directory `dir`, returning it with the
    /// commits it holds (see [`WriteAheadLog::with_io`]).
    pub fn open_dir(
        dir: impl AsRef<Path>,
        config: WalConfig,
    ) -> StorageResult<(Self, Vec<(Lsn, Commit)>)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Self::with_io(Arc::new(FileSegmentIo::new(&dir)), config)
    }

    /// Opens a log over an arbitrary [`SegmentIo`] — the injection point for fault-injection
    /// tests, and what [`WriteAheadLog::open_dir`] / [`WriteAheadLog::in_memory`] build on.
    /// Returns the log together with every valid commit it holds, in LSN order: the open walk
    /// is the recovery read, so each segment is read, checked and decoded exactly once.
    ///
    /// Recovery scan: segments are walked in id order; the first torn segment header, torn or
    /// checksum-failing frame, or LSN discontinuity ends the valid prefix — the offending tail
    /// is physically truncated and every later segment deleted (bytes past the first invalid
    /// point were never acknowledged).  A missing-prefix discontinuity (older segments deleted
    /// by an interrupted prune) instead drops the stale older segments, and their commits,
    /// and keeps the newest contiguous run, which necessarily starts at or past the last
    /// checkpoint.  A segment of another format version fails the open with
    /// [`StorageError::Corrupt`] before anything is repaired or deleted.
    pub fn with_io(
        io: Arc<dyn SegmentIo>,
        config: WalConfig,
    ) -> StorageResult<(Self, Vec<(Lsn, Commit)>)> {
        let ids = io.list()?;
        let mut segments: Vec<Segment> = Vec::new();
        let mut commits = Vec::new();
        let mut active_offsets = Vec::new();
        let mut stale: Vec<SegmentId> = Vec::new();
        let mut invalid_from: Option<usize> = None;
        for (i, &id) in ids.iter().enumerate() {
            let raw = io.read(id)?;
            let Some(base) = parse_segment_header(id, &raw)? else {
                // Torn creation: the segment carries no acknowledged data.
                invalid_from = Some(i);
                break;
            };
            if let Some(prev) = segments.last() {
                if base > prev.end() {
                    // A hole: only an interrupted oldest-first prune leaves one, so the run
                    // before the hole predates a checkpoint and the newest run wins.
                    stale.extend(segments.drain(..).map(|s| s.id));
                    commits.clear();
                } else if base < prev.end() {
                    // Overlapping numbering cannot come from any crash of ours.
                    return Err(StorageError::Corrupt(format!(
                        "segment {id} base {base} overlaps predecessor ending at {}",
                        prev.end()
                    )));
                }
            }
            let parse = parse_segment(&raw[SEGMENT_HEADER_LEN..], base, 0)?;
            segments.push(Segment {
                id,
                base,
                commits: parse.offsets.len() as u64,
                bytes: parse.valid_len as u64,
            });
            commits.extend(parse.commits);
            active_offsets = parse.offsets;
            if !parse.complete {
                io.truncate(id, (SEGMENT_HEADER_LEN + parse.valid_len) as u64)?;
                invalid_from = Some(i + 1);
                break;
            }
        }
        if let Some(i) = invalid_from {
            for &id in &ids[i..] {
                io.delete(id)?;
            }
        }
        for id in stale {
            io.delete(id)?;
        }
        if segments.is_empty() {
            let id = ids.last().map_or(1, |last| last + 1);
            io.create(id, &segment_header(0))?;
            segments.push(Segment { id, base: 0, commits: 0, bytes: 0 });
        }
        let next_lsn = segments.last().expect("non-empty").end() + 1;
        let pruned_to = segments[0].base;
        let state =
            WalState { segments, active_offsets, next_lsn, pruned_to, retention_floor: None };
        Ok((Self { io, config, state: Mutex::new(state) }, commits))
    }

    /// Appends `commits` as one frame each, with **one** backend write and one sync, returning
    /// the last one's LSN (an empty slice appends nothing).  A primary appends one commit at a
    /// time; a replica appends a shipped batch.  If the active segment is already at the
    /// rotation threshold, the batch opens a fresh segment — a batch never spans two.  When the
    /// write or the sync fails, the frames are cut off the segment again (best effort) and the
    /// log's counters stay where they were, so a reopen does not resurrect a commit that was
    /// reported failed.
    pub fn append(&self, commits: &[Commit]) -> StorageResult<Lsn> {
        let start = Instant::now();
        let mut frames = Encoder::new();
        let mut offsets = Vec::with_capacity(commits.len());
        for commit in commits {
            offsets.push(frames.len() as u64);
            put_frame(&mut frames, |e| commit.encode_into(e));
        }
        let mut state = self.state.lock();
        if commits.is_empty() {
            return Ok(state.next_lsn - 1);
        }
        if state.active().bytes >= self.config.segment_max_bytes {
            self.rotate_locked(&mut state)?;
        }
        let (id, bytes) = (state.active().id, state.active().bytes);
        let metrics = wal_metrics();
        let written = self.io.append(id, frames.as_slice()).and_then(|()| {
            metrics.append_us.observe_duration(start.elapsed());
            let synced = Instant::now();
            let result = self.io.sync(id);
            metrics.fsync_us.observe_duration(synced.elapsed());
            result
        });
        if let Err(e) = written {
            let _ = self.io.truncate(id, SEGMENT_HEADER_LEN as u64 + bytes);
            return Err(e);
        }
        state.active_offsets.extend(offsets.into_iter().map(|offset| bytes + offset));
        let active = state.active();
        active.bytes += frames.len() as u64;
        active.commits += commits.len() as u64;
        state.next_lsn += commits.len() as Lsn;
        metrics.batch_records.observe(commits.len() as u64);
        Ok(state.next_lsn - 1)
    }

    /// Restarts the log after `base`: deletes every segment, newest first, runs `cover` — which
    /// must make every commit up to `base` durable elsewhere (the engine writes its snapshot
    /// there) — and opens an empty segment whose first commit takes LSN `base + 1`.  `base` may
    /// lie below or past the old end.  A crash while deleting leaves a prefix of the old log; a
    /// crash after `cover` leaves no segment at all, and the engine's open restarts the log
    /// after its snapshot.  Old frames are gone before `cover` runs, so none can ever be read
    /// past a snapshot they do not belong to.
    pub fn restart(
        &self,
        base: Lsn,
        cover: impl FnOnce() -> StorageResult<()>,
    ) -> StorageResult<()> {
        let mut state = self.state.lock();
        for segment in state.segments.iter().rev() {
            self.io.delete(segment.id)?;
        }
        cover()?;
        let id = state.active().id + 1;
        self.io.create(id, &segment_header(base))?;
        state.segments = vec![Segment { id, base, commits: 0, bytes: 0 }];
        state.active_offsets.clear();
        state.next_lsn = base + 1;
        state.pruned_to = base;
        Ok(())
    }

    /// Seals the active segment (sync, so nothing in it can tear after the new segment exists)
    /// and starts a fresh one whose header base continues the LSN sequence.
    fn rotate_locked(&self, state: &mut WalState) -> StorageResult<()> {
        let active = state.active();
        self.io.sync(active.id)?;
        let id = active.id + 1;
        let base = state.next_lsn - 1;
        self.io.create(id, &segment_header(base))?;
        state.segments.push(Segment { id, base, commits: 0, bytes: 0 });
        state.active_offsets.clear();
        wal_metrics().rotations.inc();
        Ok(())
    }

    /// Forces appended commits to durable storage (the active segment; sealed segments were
    /// synced when they were sealed).
    pub fn sync(&self) -> StorageResult<()> {
        let start = Instant::now();
        let mut state = self.state.lock();
        let id = state.active().id;
        let result = self.io.sync(id);
        wal_metrics().fsync_us.observe_duration(start.elapsed());
        result
    }

    /// LSN that will be assigned to the next appended commit.
    pub fn next_lsn(&self) -> Lsn {
        self.state.lock().next_lsn
    }

    /// LSN of the last appended commit (0 when nothing was ever appended).
    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().next_lsn - 1
    }

    /// LSN before the oldest commit still in the log (`base_lsn() + 1 ..` are readable).
    pub fn base_lsn(&self) -> Lsn {
        self.state.lock().segments[0].base
    }

    /// Number of live segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.state.lock().segments.len()
    }

    /// Sets the oldest LSN replication still needs.  Checkpoint pruning keeps sealed segments
    /// containing LSNs at or past the floor (newest-first, within the retention budget) so a
    /// lagging subscriber can catch up from the log instead of a snapshot.  `None` retains
    /// nothing past a checkpoint.
    pub fn set_retention_floor(&self, floor: Option<Lsn>) {
        self.state.lock().retention_floor = floor;
    }

    /// The tail of the log from LSN `from` (inclusive) to the durable end — the replication
    /// cursor primitive.  Returns [`WalTail::Truncated`] when `from` is no longer in the log
    /// (a checkpoint pruned it away) **or** lies beyond it (the caller's cursor belongs to a
    /// different or reset log); in both cases the caller must resynchronize from a snapshot.
    ///
    /// The active segment is read from the first asked frame on, so a caught-up subscriber's
    /// read costs O(new frames), not O(segment); sealed segments (only a lagging subscriber
    /// needs them) are read whole.
    pub fn read_from(&self, from: Lsn) -> StorageResult<WalTail> {
        let state = self.state.lock();
        let oldest = state.segments[0].base + 1;
        let end = state.next_lsn - 1;
        if from < oldest || from > end + 1 {
            return Ok(WalTail::Truncated { oldest });
        }
        let active = state.segments.len() - 1;
        let mut out = Vec::new();
        for (i, seg) in state.segments.iter().enumerate() {
            if seg.commits == 0 || seg.end() < from {
                continue;
            }
            let parse = if i == active {
                let first = from.max(seg.base + 1);
                let offset = state.active_offsets[(first - seg.base - 1) as usize];
                let tail = self.io.read_at(seg.id, SEGMENT_HEADER_LEN as u64 + offset)?;
                // Only the frames the log acknowledged: never bytes of a failed append.
                let known = tail.len().min((seg.bytes - offset) as usize);
                parse_segment(&tail[..known], first - 1, first)?
            } else {
                let raw = self.io.read(seg.id)?;
                parse_segment(&raw[SEGMENT_HEADER_LEN..], seg.base, from)?
            };
            out.extend(parse.commits);
            if !parse.complete {
                break;
            }
        }
        Ok(WalTail::Records(out))
    }

    /// Checkpoint pruning: the log below `up_to` is covered by a snapshot.  Seals the active
    /// segment and deletes sealed segments that end at or below `up_to`, oldest-first, except
    /// those still needed by replication (see [`WriteAheadLog::set_retention_floor`]) within
    /// the retention budget.  Commits past `up_to` — commits appended while the snapshot was
    /// being encoded — stay.  The LSN numbering is **not** reset: segment headers carry
    /// absolute bases, so the next append continues the sequence ([`WriteAheadLog::read_from`]
    /// cursors stay valid or report [`WalTail::Truncated`], never silently re-bind to
    /// different commits).
    pub fn truncate(&self, up_to: Lsn) -> StorageResult<()> {
        let mut state = self.state.lock();
        if state.active().bytes > 0 {
            self.rotate_locked(&mut state)?;
        }
        state.pruned_to = state.pruned_to.max(up_to.min(state.next_lsn - 1));
        self.prune_locked(&mut state)
    }

    /// Deletes prunable sealed segments.  The retained set is decided newest-first (keep while
    /// the floor needs the segment and the budget allows), so the deleted set is always a
    /// prefix of the segment sequence — which is what keeps the on-disk log contiguous even
    /// when a crash interrupts the deletes (`with_io`'s hole rule covers the interrupted case).
    fn prune_locked(&self, state: &mut WalState) -> StorageResult<()> {
        let sealed = state.segments.len() - 1;
        let mut keep_from =
            state.segments[..sealed].iter().take_while(|s| s.end() <= state.pruned_to).count();
        if let Some(floor) = state.retention_floor {
            let mut retained: u64 = 0;
            while keep_from > 0 {
                let seg = &state.segments[keep_from - 1];
                if seg.end() < floor || retained + seg.bytes > self.config.retention_budget_bytes {
                    break;
                }
                retained += seg.bytes;
                keep_from -= 1;
            }
        }
        for seg in &state.segments[..keep_from] {
            self.io.delete(seg.id)?;
        }
        state.segments.drain(..keep_from);
        Ok(())
    }

    /// Frame bytes currently held by the log across all segments, including segments retained
    /// only for replication (headers excluded: an empty log reports 0).
    pub fn size_bytes(&self) -> StorageResult<u64> {
        Ok(self.state.lock().segments.iter().map(|s| s.bytes).sum())
    }

    /// Frame bytes of the segments that start past the last checkpoint — what the engine's
    /// checkpoint policy watches.  Excludes segments retained purely for replication, so
    /// retention cannot retrigger checkpoints in a loop, and the one segment a checkpoint cut
    /// in two (its commits past the checkpoint still replay on recovery, but count toward no
    /// new checkpoint: at most one segment's worth).
    pub fn uncheckpointed_bytes(&self) -> StorageResult<u64> {
        let state = self.state.lock();
        Ok(state.segments.iter().filter(|s| s.base >= state.pruned_to).map(|s| s.bytes).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "seed-wal-test-{}-{name}-{:?}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Path of the newest (active) segment file in `dir`.
    fn active_segment(dir: &Path) -> PathBuf {
        segment_files(dir).pop().expect("at least one segment file")
    }

    /// Every commit the live log holds: the tail read from its first LSN.
    fn records_of(wal: &WriteAheadLog) -> Vec<(Lsn, Commit)> {
        match wal.read_from(wal.base_lsn() + 1).unwrap() {
            WalTail::Records(records) => records,
            other => panic!("the log's first LSN is in the log, got {other:?}"),
        }
    }

    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<(SegmentId, PathBuf)> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let e = e.unwrap();
                let id = e.file_name().to_str().and_then(FileSegmentIo::parse_name)?;
                Some((id, e.path()))
            })
            .collect();
        files.sort();
        files.into_iter().map(|(_, p)| p).collect()
    }

    /// The bytes of `commit`'s frame.
    fn frame_len(commit: &Commit) -> usize {
        let mut e = Encoder::new();
        put_frame(&mut e, |e| commit.encode_into(e));
        e.len()
    }

    /// A commit of one put.
    fn put(key: &[u8], value: &[u8]) -> Commit {
        Commit { effects: vec![(key.to_vec(), Some(value.to_vec()))] }
    }

    /// Commit number `n`: one put of a `payload`-byte value under a key naming it.
    fn commit_batch(n: u64, payload: usize) -> Commit {
        put(format!("k/{n:04}").as_bytes(), &vec![7; payload])
    }

    #[test]
    fn record_encode_decode_roundtrip() {
        let commit = Commit {
            effects: vec![
                (b"obj/Alarms".to_vec(), Some(b"data".to_vec())),
                (b"obj/Old".to_vec(), None),
                (Vec::new(), Some(Vec::new())),
            ],
        };
        let bytes = commit.encode();
        assert_eq!(Commit::decode(&bytes).unwrap(), commit);
        assert_eq!(Commit::decode(&Commit::default().encode()).unwrap(), Commit::default());
        // A payload that ends early or runs on is corrupt, never a different commit.
        for cut in 0..bytes.len() {
            assert!(matches!(Commit::decode(&bytes[..cut]), Err(StorageError::Corrupt(_))));
        }
        let mut longer = bytes;
        longer.push(0);
        assert!(matches!(Commit::decode(&longer), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn decode_unknown_tag_errors() {
        assert!(Commit::decode(&[1, 99, 0]).is_err());
    }

    #[test]
    fn segment_header_roundtrips_and_rejects_damage() {
        let header = segment_header(1234);
        assert_eq!(header.len(), SEGMENT_HEADER_LEN);
        assert_eq!(parse_segment_header(1, &header).unwrap(), Some(1234));
        let torn = parse_segment_header(1, &header[..SEGMENT_HEADER_LEN - 1]).unwrap();
        assert_eq!(torn, None, "torn header");
        let mut flipped = header.clone();
        flipped[12] ^= 0xFF;
        assert_eq!(parse_segment_header(1, &flipped).unwrap(), None, "corrupt header");
        let mut foreign = header;
        foreign[0] = b'X';
        assert_eq!(parse_segment_header(1, &foreign).unwrap(), None, "foreign magic");
    }

    /// `raw` with its header rewritten to format `version`, magic and CRC intact.
    fn with_format_version(raw: &[u8], version: u32) -> Vec<u8> {
        let mut bytes = raw.to_vec();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let crc = crc32(&bytes[..SEGMENT_HEADER_LEN - 4]);
        bytes[SEGMENT_HEADER_LEN - 4..SEGMENT_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn a_segment_of_another_format_version_is_refused_and_kept() {
        let io = Arc::new(MemorySegmentIo::new());
        let (wal, _) = WriteAheadLog::with_io(io.clone(), WalConfig::default()).unwrap();
        wal.append(&[put(b"k", b"v")]).unwrap();
        drop(wal);
        let other = SEGMENT_FORMAT_VERSION + 1;
        let foreign = with_format_version(&io.read(1).unwrap(), other);
        let io = Arc::new(MemorySegmentIo::from_segments(BTreeMap::from([(1, foreign.clone())])));
        for open in [
            WriteAheadLog::with_io(io.clone(), WalConfig::default()).map(drop),
            crate::StorageEngine::with_io(io.clone(), crate::EngineConfig::default()).map(drop),
        ] {
            match open {
                Err(StorageError::Corrupt(reason)) => {
                    let versions = [other, SEGMENT_FORMAT_VERSION].map(|v| format!("version {v}"));
                    assert!(versions.iter().all(|v| reason.contains(v)), "{reason}");
                }
                other => panic!("a segment of format {other:?} must be refused"),
            }
        }
        assert_eq!(io.list().unwrap(), vec![1], "nothing deleted, nothing created");
        assert_eq!(io.read(1).unwrap(), foreign, "the refused segment is left as it was");
    }

    #[test]
    fn memory_log_appends_and_reads_back() {
        let wal = WriteAheadLog::in_memory();
        assert_eq!(wal.append(&[put(b"a", b"1")]).unwrap(), 1);
        assert_eq!(wal.append(&[put(b"b", b"2")]).unwrap(), 2);
        assert_eq!(records_of(&wal), vec![(1, put(b"a", b"1")), (2, put(b"b", b"2"))]);
    }

    #[test]
    fn file_log_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
            for n in 1..=3 {
                wal.append(&[commit_batch(n, 8)]).unwrap();
            }
        }
        {
            let (wal, all) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
            assert_eq!(all.len(), 3);
            assert_eq!(wal.next_lsn(), 4);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = temp_dir("torn");
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
            wal.append(&[commit_batch(1, 8)]).unwrap();
            wal.append(&[commit_batch(2, 8)]).unwrap();
        }
        // Simulate a torn write: append garbage that looks like the start of a frame.
        {
            let mut f = OpenOptions::new().append(true).open(active_segment(&dir)).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let (_, all) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
        assert_eq!(all.len(), 2, "torn frame must be dropped, durable prefix kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_mid_frame_recovers_committed_prefix() {
        let dir = temp_dir("midframe");
        let committed_file_len;
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
            wal.append(&[put(b"a", b"1")]).unwrap();
            committed_file_len = std::fs::metadata(active_segment(&dir)).unwrap().len();
            // A second commit whose frame the crash will cut in half.
            wal.append(&[put(b"b", b"2")]).unwrap();
        }
        // Crash mid-frame: cut the file a few bytes into the torn region.
        let seg = active_segment(&dir);
        let full = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &full[..(committed_file_len as usize + 5)]).unwrap();

        let (wal, recovered) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
        assert_eq!(recovered, vec![(1, put(b"a", b"1"))], "recovery stops at the last whole frame");
        // The torn bytes were physically truncated, so new appends extend the valid prefix.
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), committed_file_len);
        assert_eq!(wal.append(&[put(b"c", b"3")]).unwrap(), 2, "the next commit takes LSN 2");
        drop(wal);
        let (_, all) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
        assert_eq!(all, vec![(1, put(b"a", b"1")), (2, put(b"c", b"3"))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partially_overwritten_final_frame_is_treated_as_torn() {
        let dir = temp_dir("partial-final");
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
            wal.append(&[put(b"k", b"1")]).unwrap();
            wal.append(&[put(b"k", b"2")]).unwrap();
        }
        // Flip a byte inside the LAST frame's payload: a torn (partially written) tail frame,
        // not interior corruption — recovery must stop cleanly before it.
        let seg = active_segment(&dir);
        {
            let mut bytes = std::fs::read(&seg).unwrap();
            let n = bytes.len();
            bytes[n - 2] ^= 0xFF;
            std::fs::write(&seg, &bytes).unwrap();
        }
        let (_, records) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
        assert_eq!(records, vec![(1, put(b"k", b"1"))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_is_one_frame_one_write_and_one_lsn() {
        let io = Arc::new(MemorySegmentIo::new());
        let (wal, _) = WriteAheadLog::with_io(io.clone(), WalConfig::default()).unwrap();
        let commit = Commit {
            effects: vec![
                (b"k".to_vec(), Some(b"v".to_vec())),
                (b"gone".to_vec(), None),
                (b"big".to_vec(), Some(vec![1; 4096])),
            ],
        };
        assert_eq!(wal.append(std::slice::from_ref(&commit)).unwrap(), 1);
        assert_eq!(wal.next_lsn(), 2, "three effects, one LSN");
        // The segment holds `len | crc | payload` and nothing else, the payload being the
        // commit's encoding — the bytes a `LogBatch` ships.
        let payload = commit.encode();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(io.read(1).unwrap()[SEGMENT_HEADER_LEN..], frame[..], "one frame");
        assert_eq!(records_of(&wal), vec![(1, commit)]);
    }

    #[test]
    fn invalid_frame_truncates_log_from_there() {
        // Standard WAL recovery rule: everything past the first invalid frame was never
        // acknowledged (its sync cannot have returned), so recovery keeps the valid prefix and
        // discards the rest rather than refusing to open.
        let dir = temp_dir("corrupt");
        let first_frame_end;
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
            wal.append(&[put(b"first", b"1")]).unwrap();
            first_frame_end = std::fs::metadata(active_segment(&dir)).unwrap().len();
            wal.append(&[put(b"key", b"value")]).unwrap();
            wal.append(&[put(b"last", b"3")]).unwrap();
        }
        // Tear the middle frame (out-of-order persistence): the final frame's bytes still exist
        // after the invalid one.
        let seg = active_segment(&dir);
        {
            let mut bytes = std::fs::read(&seg).unwrap();
            bytes[first_frame_end as usize + 10] ^= 0xFF;
            std::fs::write(&seg, &bytes).unwrap();
        }
        let (_, records) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
        assert_eq!(records, vec![(1, put(b"first", b"1"))], "valid prefix kept, the rest cut");
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            first_frame_end,
            "torn bytes truncated on open"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_clears_bytes_but_keeps_the_lsn_sequence() {
        let wal = WriteAheadLog::in_memory();
        wal.append(&[commit_batch(1, 8)]).unwrap();
        wal.truncate(wal.durable_lsn()).unwrap();
        assert_eq!(records_of(&wal).len(), 0);
        assert_eq!(wal.next_lsn(), 2, "absolute LSNs survive truncation");
        assert_eq!(wal.base_lsn(), 1);
        assert_eq!(wal.size_bytes().unwrap(), 0);
        // The next append continues the sequence.
        assert_eq!(wal.append(&[commit_batch(2, 8)]).unwrap(), 2);
        assert_eq!(records_of(&wal), vec![(2, commit_batch(2, 8))]);
    }

    #[test]
    fn read_from_serves_the_tail_and_reports_truncation() {
        let wal = WriteAheadLog::in_memory();
        for n in 1..=6 {
            wal.append(&[commit_batch(n, 8)]).unwrap();
        }
        // Mid-log cursor: commits 4..=6.
        match wal.read_from(4).unwrap() {
            WalTail::Records(recs) => {
                assert_eq!(recs.len(), 3);
                assert_eq!(recs[0], (4, commit_batch(4, 8)));
            }
            other => panic!("expected records, got {other:?}"),
        }
        // Caught up: empty, not an error.
        assert_eq!(wal.read_from(7).unwrap(), WalTail::Records(vec![]));
        // Ahead of the log: a foreign cursor, must resync.
        assert!(matches!(wal.read_from(8).unwrap(), WalTail::Truncated { oldest: 1 }));
        // After truncation, old cursors learn they were cut off; new ones still work.
        wal.truncate(wal.durable_lsn()).unwrap();
        assert!(matches!(wal.read_from(3).unwrap(), WalTail::Truncated { oldest: 7 }));
        assert_eq!(wal.read_from(7).unwrap(), WalTail::Records(vec![]));
        wal.append(&[commit_batch(9, 8)]).unwrap();
        match wal.read_from(7).unwrap() {
            WalTail::Records(recs) => assert_eq!(recs, vec![(7, commit_batch(9, 8))]),
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn base_lsn_survives_reopen_of_a_file_log() {
        let dir = temp_dir("base-reopen");
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
            wal.append(&[commit_batch(1, 8)]).unwrap();
            wal.append(&[commit_batch(2, 8)]).unwrap();
            wal.truncate(wal.durable_lsn()).unwrap();
            wal.append(&[commit_batch(3, 8)]).unwrap();
        }
        {
            let (wal, records) = WriteAheadLog::open_dir(&dir, WalConfig::default()).unwrap();
            assert_eq!(wal.base_lsn(), 2, "base restored from the segment header");
            assert_eq!(wal.next_lsn(), 4);
            assert_eq!(records, vec![(3, commit_batch(3, 8))]);
            assert!(matches!(wal.read_from(1).unwrap(), WalTail::Truncated { oldest: 3 }));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn small_cap(cap: u64) -> WalConfig {
        WalConfig { segment_max_bytes: cap, ..WalConfig::default() }
    }

    #[test]
    fn rotation_splits_the_log_across_segment_files() {
        let dir = temp_dir("rotate");
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, small_cap(128)).unwrap();
            for n in 1..=10 {
                wal.append(&[commit_batch(n, 48)]).unwrap();
            }
            assert!(wal.segment_count() > 1, "small cap must force rotations");
            assert_eq!(segment_files(&dir).len(), wal.segment_count());
            let lsns: Vec<Lsn> = records_of(&wal).iter().map(|(l, _)| *l).collect();
            assert_eq!(lsns, (1..=10).collect::<Vec<_>>(), "LSNs stay contiguous across files");
        }
        {
            let (wal, all) = WriteAheadLog::open_dir(&dir, small_cap(128)).unwrap();
            assert_eq!(all.len(), 10);
            assert_eq!(wal.next_lsn(), 11);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_never_spans_two_segments() {
        let wal = WriteAheadLog::in_memory_with(small_cap(64));
        for n in 1..=6 {
            wal.append(&[commit_batch(n, 100)]).unwrap();
        }
        // Every commit outgrows the cap, so each one rotated into a segment of its own.
        let frame = frame_len(&commit_batch(1, 100)) as u64;
        let state = wal.state.lock();
        for seg in state.segments.iter().filter(|s| s.commits > 0) {
            assert_eq!((seg.commits, seg.bytes), (1, frame), "segment holds whole commits only");
        }
    }

    #[test]
    fn truncate_prunes_whole_sealed_segments() {
        let dir = temp_dir("prune");
        let (wal, _) = WriteAheadLog::open_dir(&dir, small_cap(128)).unwrap();
        for n in 1..=10 {
            wal.append(&[commit_batch(n, 48)]).unwrap();
        }
        let end = wal.durable_lsn();
        assert!(segment_files(&dir).len() > 1);
        wal.truncate(wal.durable_lsn()).unwrap();
        assert_eq!(segment_files(&dir).len(), 1, "checkpoint deletes sealed segments");
        assert_eq!(wal.size_bytes().unwrap(), 0);
        assert_eq!(wal.base_lsn(), end);
        assert_eq!(wal.next_lsn(), end + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_floor_keeps_segments_a_subscriber_still_needs() {
        let wal = WriteAheadLog::in_memory_with(small_cap(128));
        for n in 1..=10 {
            wal.append(&[commit_batch(n, 48)]).unwrap();
        }
        let end = wal.durable_lsn();
        let cursor = end - 7; // a lagging subscriber's next LSN
        wal.set_retention_floor(Some(cursor));
        wal.truncate(wal.durable_lsn()).unwrap();
        assert!(wal.base_lsn() < cursor, "segments covering the cursor survive the checkpoint");
        match wal.read_from(cursor).unwrap() {
            WalTail::Records(recs) => {
                assert_eq!(recs.first().map(|(l, _)| *l), Some(cursor));
                assert_eq!(recs.last().map(|(l, _)| *l), Some(end));
            }
            other => panic!("expected retained records, got {other:?}"),
        }
        // Once the subscriber is gone, the next checkpoint drops the retained segments.
        wal.set_retention_floor(None);
        wal.truncate(wal.durable_lsn()).unwrap();
        assert!(matches!(wal.read_from(cursor).unwrap(), WalTail::Truncated { .. }));
        assert_eq!(wal.size_bytes().unwrap(), 0);
    }

    #[test]
    fn retention_budget_bounds_what_a_checkpoint_keeps() {
        let wal = WriteAheadLog::in_memory_with(WalConfig {
            segment_max_bytes: 128,
            retention_budget_bytes: 0,
        });
        for n in 1..=10 {
            wal.append(&[commit_batch(n, 48)]).unwrap();
        }
        wal.set_retention_floor(Some(2));
        wal.truncate(wal.durable_lsn()).unwrap();
        assert!(
            matches!(wal.read_from(2).unwrap(), WalTail::Truncated { .. }),
            "a zero budget retains nothing, the subscriber must snapshot"
        );
        assert_eq!(wal.size_bytes().unwrap(), 0);
    }

    /// A [`MemorySegmentIo`] that counts its segment reads and the bytes they return.
    #[derive(Default)]
    struct CountingIo {
        inner: MemorySegmentIo,
        reads: std::sync::atomic::AtomicUsize,
        read_bytes: std::sync::atomic::AtomicUsize,
    }

    impl CountingIo {
        fn counted(&self, bytes: StorageResult<Vec<u8>>) -> StorageResult<Vec<u8>> {
            let n = bytes.as_ref().map_or(0, Vec::len);
            self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.read_bytes.fetch_add(n, std::sync::atomic::Ordering::SeqCst);
            bytes
        }

        fn take_reads(&self) -> usize {
            self.reads.swap(0, std::sync::atomic::Ordering::SeqCst)
        }

        fn take_read_bytes(&self) -> usize {
            self.read_bytes.swap(0, std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl SegmentIo for CountingIo {
        fn list(&self) -> StorageResult<Vec<SegmentId>> {
            self.inner.list()
        }
        fn read(&self, id: SegmentId) -> StorageResult<Vec<u8>> {
            self.counted(self.inner.read(id))
        }
        fn read_at(&self, id: SegmentId, offset: u64) -> StorageResult<Vec<u8>> {
            self.counted(self.inner.read_at(id, offset))
        }
        fn create(&self, id: SegmentId, initial: &[u8]) -> StorageResult<()> {
            self.inner.create(id, initial)
        }
        fn append(&self, id: SegmentId, bytes: &[u8]) -> StorageResult<()> {
            self.inner.append(id, bytes)
        }
        fn sync(&self, id: SegmentId) -> StorageResult<()> {
            self.inner.sync(id)
        }
        fn truncate(&self, id: SegmentId, len: u64) -> StorageResult<()> {
            self.inner.truncate(id, len)
        }
        fn delete(&self, id: SegmentId) -> StorageResult<()> {
            self.inner.delete(id)
        }
        fn write_snapshot(&self, image: &[u8]) -> StorageResult<()> {
            self.inner.write_snapshot(image)
        }
        fn read_snapshot(&self) -> StorageResult<Option<Vec<u8>>> {
            self.inner.read_snapshot()
        }
    }

    #[test]
    fn tail_read_of_a_caught_up_cursor_reads_only_the_new_frames() {
        let io = Arc::new(CountingIo::default());
        let (wal, _) = WriteAheadLog::with_io(io.clone(), WalConfig::default()).unwrap();
        for n in 1..=1000 {
            wal.append(&[commit_batch(n, 64)]).unwrap();
        }
        assert_eq!(wal.segment_count(), 1, "every commit sits in the active segment");
        let last = commit_batch(1000, 64);
        let frame = frame_len(&last);
        io.take_read_bytes();

        let end = wal.durable_lsn();
        let WalTail::Records(tail) = wal.read_from(end).unwrap() else { panic!("in the log") };
        assert_eq!(tail, vec![(end, last)]);
        let read = io.take_read_bytes();
        assert!(read < 2 * frame, "read {read} bytes for one {frame}-byte frame");

        assert_eq!(wal.read_from(end + 1).unwrap(), WalTail::Records(Vec::new()));
        assert_eq!(io.take_read_bytes(), 0, "a caught-up cursor reads nothing");
    }

    /// Appends `commit` to `wal` and to `log`, the model of every commit ever appended.
    fn append_logged(wal: &WriteAheadLog, log: &mut Vec<(Lsn, Commit)>, commit: Commit) {
        let lsn = wal.append(std::slice::from_ref(&commit)).unwrap();
        log.push((lsn, commit));
    }

    /// The commits of `log` the live log still holds: those past its base.
    fn held(wal: &WriteAheadLog, log: &[(Lsn, Commit)]) -> Vec<(Lsn, Commit)> {
        log.iter().filter(|(lsn, _)| *lsn > wal.base_lsn()).cloned().collect()
    }

    #[test]
    fn tail_read_matches_the_full_log_for_every_cursor_across_reopen() {
        fn check_every_cursor(wal: &WriteAheadLog, log: &[(Lsn, Commit)]) {
            assert_eq!(wal.durable_lsn(), log.last().map_or(0, |(lsn, _)| *lsn));
            for from in wal.base_lsn() + 1..=wal.durable_lsn() + 1 {
                let expected: Vec<_> =
                    log.iter().filter(|(lsn, _)| *lsn >= from).cloned().collect();
                assert_eq!(wal.read_from(from).unwrap(), WalTail::Records(expected), "from {from}");
            }
        }
        let dir = temp_dir("tail-read-reopen");
        let mut log = Vec::new();
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, small_cap(512)).unwrap();
            for n in 1..=12 {
                append_logged(&wal, &mut log, commit_batch(n, 40 + n as usize));
            }
            assert!(wal.segment_count() > 1, "sealed segments and an active one");
            check_every_cursor(&wal, &log);
        }
        // The reopen rebuilds the active segment's frame index from disk.
        let (wal, recovered) = WriteAheadLog::open_dir(&dir, small_cap(512)).unwrap();
        assert_eq!(recovered, log);
        check_every_cursor(&wal, &log);
        // Appends after the reopen extend the rebuilt index, and a rotation restarts it.
        for n in 13..=30 {
            append_logged(&wal, &mut log, commit_batch(n, 40));
            check_every_cursor(&wal, &log);
        }
        wal.truncate(wal.durable_lsn() - 5).unwrap();
        append_logged(&wal, &mut log, commit_batch(31, 40));
        check_every_cursor(&wal, &log);
        let kept = held(&wal, &log);
        drop(wal);
        let (_, recovered) = WriteAheadLog::open_dir(&dir, small_cap(512)).unwrap();
        assert_eq!(recovered, kept, "a reopen hands over what the live log held");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_rotation_artifact_is_deleted_on_open() {
        let dir = temp_dir("torn-rotation");
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, small_cap(64)).unwrap();
            for n in 1..=3 {
                wal.append(&[commit_batch(n, 32)]).unwrap();
            }
        }
        // A crash mid-rotation leaves a new segment whose header write was cut short.
        let next_id = segment_files(&dir).len() as SegmentId + 1;
        let artifact = dir.join(format!("wal.{next_id:06}.seg"));
        std::fs::write(&artifact, &segment_header(999)[..7]).unwrap();
        let (wal, records) = WriteAheadLog::open_dir(&dir, small_cap(64)).unwrap();
        assert!(!artifact.exists(), "rotation artifact removed");
        assert_eq!(records.len(), 3, "sealed commits all survive");
        assert_eq!(
            wal.append(&[commit_batch(4, 32)]).unwrap(),
            4,
            "appends continue after cleanup"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_prune_hole_keeps_the_newest_contiguous_run() {
        let dir = temp_dir("torn-prune");
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, small_cap(64)).unwrap();
            for n in 1..=4 {
                wal.append(&[commit_batch(n, 48)]).unwrap();
            }
            assert!(wal.segment_count() >= 3);
        }
        // A prune interrupted out of order would leave a hole; recovery must keep the run
        // after the hole (it starts at or past the checkpoint) and drop the stale prefix.
        let files = segment_files(&dir);
        std::fs::remove_file(&files[1]).unwrap();
        let (wal, all) = WriteAheadLog::open_dir(&dir, small_cap(64)).unwrap();
        assert!(!files[0].exists(), "stale pre-hole segment deleted");
        assert_eq!(all, records_of(&wal), "nothing from the stale segments is handed over");
        assert!(!all.is_empty());
        assert!(all[0].0 > 1, "commits before the hole are gone");
        let lsns: Vec<Lsn> = all.iter().map(|(l, _)| *l).collect();
        assert_eq!(
            lsns,
            (all[0].0..=all[all.len() - 1].0).collect::<Vec<_>>(),
            "surviving commits are contiguous"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_returns_every_record_across_segments_and_stops_at_a_torn_tail() {
        let dir = temp_dir("open-records");
        let mut log = Vec::new();
        {
            let (wal, _) = WriteAheadLog::open_dir(&dir, small_cap(96)).unwrap();
            for n in 1..=12 {
                append_logged(&wal, &mut log, commit_batch(n, 40));
            }
            assert!(wal.segment_count() > 2);
        }
        let (wal, recovered) = WriteAheadLog::open_dir(&dir, small_cap(96)).unwrap();
        assert_eq!(recovered, log, "every commit of every segment, in LSN order");
        drop(wal);
        // Tear the active segment's tail: open hands over a strict prefix, the live log agrees.
        let seg = active_segment(&dir);
        let full = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &full[..full.len() - 4]).unwrap();
        let (wal, recovered) = WriteAheadLog::open_dir(&dir, small_cap(96)).unwrap();
        assert!(recovered.len() < log.len());
        assert_eq!(recovered, log[..recovered.len()], "the valid prefix, nothing past the tear");
        assert_eq!(recovered, records_of(&wal));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_open_reads_each_segment_exactly_once() {
        let io = Arc::new(CountingIo::default());
        let commits = 40;
        let segments = {
            let (wal, _) = WriteAheadLog::with_io(io.clone(), small_cap(256)).unwrap();
            for n in 1..=commits {
                wal.append(&[commit_batch(n, 48)]).unwrap();
            }
            wal.segment_count()
        };
        assert!(segments >= 8, "the log must span segments, got {segments}");
        io.take_reads();
        let config = crate::EngineConfig { wal: small_cap(256), ..Default::default() };
        let (_, recovered) = crate::StorageEngine::with_io(io.clone(), config).unwrap();
        assert_eq!(recovered.effects.len(), commits as usize, "every commit replays");
        assert_eq!(io.take_reads(), segments, "recovery reads each of {segments} segments once");
    }

    #[test]
    fn replay_preserves_delete_effects() {
        let io = Arc::new(MemorySegmentIo::new());
        let (wal, _) = WriteAheadLog::with_io(io.clone(), WalConfig::default()).unwrap();
        let commit =
            Commit { effects: vec![(b"x".to_vec(), Some(b"1".to_vec())), (b"x".to_vec(), None)] };
        wal.append(std::slice::from_ref(&commit)).unwrap();
        drop(wal);
        let (_, recovered) = WriteAheadLog::with_io(io, WalConfig::default()).unwrap();
        assert_eq!(recovered, vec![(1, commit)], "a commit's effects come back in order");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_record() -> impl Strategy<Value = Commit> {
        let effect = (
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
        );
        proptest::collection::vec(effect, 0..6).prop_map(|effects| Commit { effects })
    }

    proptest! {
        #[test]
        fn any_record_roundtrips(commit in arb_record()) {
            prop_assert_eq!(Commit::decode(&commit.encode()).unwrap(), commit);
        }

        #[test]
        fn log_preserves_order(commits in proptest::collection::vec(arb_record(), 0..50)) {
            let wal = WriteAheadLog::in_memory();
            for c in &commits {
                wal.append(std::slice::from_ref(c)).unwrap();
            }
            let WalTail::Records(read) = wal.read_from(1).unwrap() else {
                panic!("LSN 1 is the log's first");
            };
            prop_assert_eq!(read.into_iter().map(|(_, c)| c).collect::<Vec<_>>(), commits);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The segmentation tentpole's core property: random commit-size sequences over an
        /// arbitrary segment cap recover identically to the single-file oracle (a log whose cap
        /// never rotates), across checkpoints and a simulated restart — live, the full tail
        /// reads agree; reopened, the commits each open hands over agree.
        #[test]
        fn segmented_log_matches_single_file_oracle(
            steps in proptest::collection::vec((arb_record(), any::<bool>()), 1..24),
            cap in 16u64..512,
        ) {
            let io = Arc::new(MemorySegmentIo::new());
            let config = WalConfig { segment_max_bytes: cap, ..WalConfig::default() };
            let (wal, _) = WriteAheadLog::with_io(io.clone(), config.clone()).unwrap();
            let oracle_io = Arc::new(MemorySegmentIo::new());
            let oracle_config = WalConfig { segment_max_bytes: u64::MAX, ..WalConfig::default() };
            let (oracle, _) =
                WriteAheadLog::with_io(oracle_io.clone(), oracle_config.clone()).unwrap();
            let all = |log: &WriteAheadLog| log.read_from(log.base_lsn() + 1).unwrap();
            for (commit, checkpoint) in &steps {
                let commit = std::slice::from_ref(commit);
                prop_assert_eq!(wal.append(commit).unwrap(), oracle.append(commit).unwrap());
                if *checkpoint {
                    wal.truncate(wal.durable_lsn()).unwrap();
                    oracle.truncate(oracle.durable_lsn()).unwrap();
                }
            }
            prop_assert_eq!(all(&wal), all(&oracle));
            prop_assert_eq!(wal.next_lsn(), oracle.next_lsn());
            prop_assert_eq!(wal.base_lsn(), oracle.base_lsn());

            // Restart: reopen both over the same bytes; nothing may change.
            let live = all(&oracle);
            drop((wal, oracle));
            let (reopened, recovered) = WriteAheadLog::with_io(io, config).unwrap();
            let (oracle, oracle_recovered) = WriteAheadLog::with_io(oracle_io, oracle_config).unwrap();
            prop_assert_eq!(&recovered, &oracle_recovered);
            prop_assert_eq!(WalTail::Records(recovered), live);
            prop_assert_eq!(all(&reopened), all(&oracle));
            prop_assert_eq!(reopened.next_lsn(), oracle.next_lsn());
            prop_assert_eq!(reopened.base_lsn(), oracle.base_lsn());
        }
    }
}
