//! The storage engine: the durable, transactional I/O half of SEED's storage.
//!
//! `seed-core` persists objects, relationships, version deltas and the schema catalog as
//! key/value pairs with hierarchical keys (`o/<id>`, `r/<id>`, `v/<vid>/...`).  The engine
//! keeps **no copy** of that key space — the in-memory database is the one resident copy of
//! the data — and provides:
//!
//! * one-call transactions ([`StorageEngine::commit`]): the caller hands over a transaction's
//!   whole batch of key effects, which is written to the WAL as one CRC-checked frame — one
//!   [`Commit`] record, one LSN — with a single sync, so a transaction's durability cost is one
//!   sync and a crash before the sync leaves at most a torn frame, which recovery cuts.  The
//!   caller owns the open transaction (in `seed-core` it is the database's savepoint and
//!   change journal); the engine holds none,
//! * checkpoints of a [`SnapshotImage`] the caller encodes from its own state: the image
//!   replaces the snapshot on disk and the log below the image's LSN is pruned,
//! * recovery on open: the snapshot's effects, then those of the commits logged after its
//!   LSN, handed to the caller once, by value, as one list ([`Recovered`]),
//! * the replica side of one log across the cluster: the reset cut
//!   ([`StorageEngine::replication_cut`]: the snapshot's commits, then the log past it, read
//!   from the files), a shipped run of another log's commits appended at their own LSNs
//!   ([`StorageEngine::append`], the append path `commit` uses), and a reset's commits
//!   installed as the whole state at another log's position ([`StorageEngine::install`]: the
//!   old log deleted, the snapshot replaced, the log restarted after it — in that order, so no
//!   old frame is ever replayed over the image),
//! * poisoning: once a commit, an append, a checkpoint or an install fails on I/O, every later
//!   `commit` and `checkpoint` fails with [`StorageError::Poisoned`] until the engine is reopened
//!   ([`StorageEngine::usable`] asks the same question without writing).
//!
//! On disk there is exactly one frame format.  The snapshot (`snapshot.db`, written through
//! [`SegmentIo::write_snapshot`]) is a header and then WAL frames, each one [`Commit`], built
//! and walked by the log's own code:
//!
//! ```text
//! magic "SEEDSNP3" | lsn: u64 | frames: u64 | crc32: u32
//!     | frames × (len: u32 | crc: u32 | payload: one commit)
//! ```
//!
//! (integers little-endian; the header CRC covers the 24 bytes before it; `lsn` is the last WAL
//! commit whose effects the image holds).  A checkpoint's frames hold puts, each payload within
//! 64 KiB unless one pair is larger; a reset image's frames are the shipped commits, deletes
//! included.  A damaged image — bad magic (the older `SEEDSNP1` and `SEEDSNP2` pair layouts
//! included), bad header CRC, a torn or checksum-failing frame, fewer or more frames than the
//! header counts — is [`StorageError::Corrupt`], never a smaller database.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::codec::{crc32, Encoder};
use crate::error::{StorageError, StorageResult};
use crate::wal::{
    parse_segment, put_frame, Commit, FileSegmentIo, KeyEffect, Lsn, MemorySegmentIo, SegmentIo,
    WalConfig, WalTail, WriteAheadLog,
};

/// Configuration for opening a [`StorageEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// [`StorageEngine::checkpoint_due`] turns true once the uncheckpointed WAL grows past this
    /// many bytes (`None` = never).  Bounding the WAL bounds recovery time: replay work on open
    /// is proportional to the log, not to the database.
    pub checkpoint_wal_bytes: Option<u64>,
    /// The log's own settings: segment size cap and replication retention budget.
    pub wal: WalConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { checkpoint_wal_bytes: Some(4 * 1024 * 1024), wal: WalConfig::default() }
    }
}

/// Magic (and format version) opening every snapshot image.
const SNAPSHOT_MAGIC: &[u8; 8] = b"SEEDSNP3";

/// Magic + LSN + frame count + CRC.
const SNAPSHOT_HEADER_LEN: usize = 28;

/// The payload bound of one snapshot frame; a pair larger than this gets a frame of its own.
const FRAME_PAYLOAD_BOUND: usize = 64 * 1024;

/// A complete snapshot image, ready for [`StorageEngine::checkpoint`].
#[derive(Debug, Clone)]
pub struct SnapshotImage {
    bytes: Vec<u8>,
    lsn: Lsn,
}

impl SnapshotImage {
    /// The last WAL commit whose effects the image holds.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The image covering the WAL up to `lsn` whose frames are `commits`, one each, as they are:
    /// what a replica reset installs from its primary's snapshot commits and log tail.
    pub fn of_commits(lsn: Lsn, commits: &[Commit]) -> Self {
        let mut writer = ImageWriter::new(lsn);
        commits.iter().for_each(|commit| put_frame(&mut writer.buf, |e| commit.encode_into(e)));
        writer.frames = commits.len() as u64;
        writer.finish()
    }
}

/// Builds a [`SnapshotImage`] pair by pair: the pairs gather, encoded, into one commit, which
/// becomes a frame once the next pair would take its payload past the bound.
pub struct ImageWriter {
    buf: Encoder,
    lsn: Lsn,
    frames: u64,
    /// The puts of the frame being filled, encoded as a commit's payload holds them.
    effects: Encoder,
    count: u64,
}

impl ImageWriter {
    /// An empty image covering the WAL up to and including `lsn`.
    pub fn new(lsn: Lsn) -> Self {
        let mut buf = Encoder::with_capacity(64 * 1024);
        buf.put_raw(&[0; SNAPSHOT_HEADER_LEN]); // written by `finish`, once the frames are counted
        let effects = Encoder::with_capacity(FRAME_PAYLOAD_BOUND);
        Self { buf, lsn, frames: 0, effects, count: 0 }
    }

    /// Appends one pair.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        // The pair takes at most a tag, two 5-byte length varints and its bytes; the count
        // varint at most 10 bytes.
        let len = 11 + key.len() + value.len();
        if self.count > 0 && 10 + self.effects.len() + len > FRAME_PAYLOAD_BOUND {
            self.flush();
        }
        Commit::put_effect(&mut self.effects, key, Some(value));
        self.count += 1;
    }

    fn flush(&mut self) {
        let (count, effects) = (self.count, self.effects.as_slice());
        put_frame(&mut self.buf, |e| {
            e.put_varint(count).put_raw(effects);
        });
        self.effects.clear();
        self.count = 0;
        self.frames += 1;
    }

    /// Seals the image: frames the last pairs and writes the header.
    pub fn finish(mut self) -> SnapshotImage {
        if self.count > 0 {
            self.flush();
        }
        let mut header = Encoder::with_capacity(SNAPSHOT_HEADER_LEN);
        header.put_raw(SNAPSHOT_MAGIC).put_u64(self.lsn).put_u64(self.frames);
        let crc = crc32(header.as_slice());
        header.put_u32(crc);
        let mut bytes = self.buf.finish();
        bytes[..SNAPSHOT_HEADER_LEN].copy_from_slice(header.as_slice());
        SnapshotImage { bytes, lsn: self.lsn }
    }
}

/// Reads a snapshot image: checks the header, then walks the frames with the log's own walker.
/// Returns the image's LSN and its commits.  A walk that stops short, or that finds another
/// number of frames than the header counts, is [`StorageError::Corrupt`].
fn read_snapshot(image: &[u8]) -> StorageResult<(Lsn, Vec<Commit>)> {
    let corrupt = |what: String| StorageError::Corrupt(format!("snapshot.db: {what}"));
    if let Some(old) = [b"SEEDSNP1", b"SEEDSNP2"].into_iter().find(|old| image.starts_with(*old)) {
        let (old, new) = (String::from_utf8_lossy(old), String::from_utf8_lossy(SNAPSHOT_MAGIC));
        return Err(corrupt(format!(
            "a {old} image of key/value pairs; this build reads only {new} images of WAL commit \
             frames (resync the directory from a primary or a backup)"
        )));
    }
    let Some(header) = image.get(..SNAPSHOT_HEADER_LEN) else {
        return Err(corrupt(format!("{} bytes, shorter than its header", image.len())));
    };
    let (body, crc) = header.split_at(SNAPSHOT_HEADER_LEN - 4);
    if &body[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic".to_string()));
    }
    if crc32(body).to_le_bytes() != crc {
        return Err(corrupt("header checksum mismatch".to_string()));
    }
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    let (lsn, frames) = (u64_at(8), u64_at(16));
    let walk = parse_segment(&image[SNAPSHOT_HEADER_LEN..], 0, 0)?;
    if !walk.complete || walk.offsets.len() as u64 != frames {
        return Err(corrupt(format!(
            "{} whole frames{} where the header counts {frames}",
            walk.offsets.len(),
            if walk.complete { "" } else { " before a torn or damaged one" }
        )));
    }
    Ok((lsn, walk.commits.into_iter().map(|(_, commit)| commit).collect()))
}

/// What recovery found on disk, handed to the caller once when the engine opens.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The snapshot's effects, then those of the commits logged after its LSN, in log order.
    pub effects: Vec<KeyEffect>,
}

impl Recovered {
    /// The recovered value of `key`: its last effect.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.effects.iter().rev().find(|(k, _)| k.as_slice() == key)?.1.as_deref()
    }
}

/// A durable, transactional key/value log with snapshot checkpoints and WAL-based recovery.
pub struct StorageEngine {
    /// Every byte the engine persists goes through this one door: WAL segments and the
    /// checkpoint snapshot alike.
    io: Arc<dyn SegmentIo>,
    wal: WriteAheadLog,
    /// Why the engine refuses work, once a commit or a checkpoint failed on I/O.  Held while a
    /// commit appends, so commits run one at a time and none starts after a failed one.
    poisoned: Mutex<Option<String>>,
    /// The LSN the snapshot on disk covers; held while a checkpoint runs, so checkpoints never
    /// overlap and an image older than the one on disk is refused.
    snapshot_lsn: Mutex<Lsn>,
    /// [`EngineConfig::checkpoint_wal_bytes`]; the log holds its own settings.
    checkpoint_wal_bytes: Option<u64>,
    /// Path of the database directory (None for in-memory engines).
    path: Option<PathBuf>,
}

impl StorageEngine {
    /// Opens an ephemeral in-memory engine (nothing to recover).
    pub fn in_memory() -> StorageResult<Self> {
        let (engine, _) = Self::with_io(Arc::new(MemorySegmentIo::new()), EngineConfig::default())?;
        Ok(engine)
    }

    /// Opens (or creates) a durable engine in directory `dir` using default configuration.
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<(Self, Recovered)> {
        Self::open_with(dir, EngineConfig::default())
    }

    /// Opens (or creates) a durable engine in directory `dir`.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: EngineConfig,
    ) -> StorageResult<(Self, Recovered)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let (mut engine, recovered) = Self::with_io(Arc::new(FileSegmentIo::new(&dir)), config)?;
        engine.path = Some(dir);
        Ok((engine, recovered))
    }

    /// Opens an engine over an arbitrary [`SegmentIo`] — what [`StorageEngine::open_with`] and
    /// [`StorageEngine::in_memory`] build on, and the injection point for fault-injection
    /// tests.  Recovery reads the snapshot, then concatenates the effects of its commits and of
    /// the commits logged after its LSN into one list; the engine keeps none of it.  The
    /// commits are the ones the log's open walk already read and checked
    /// ([`WriteAheadLog::with_io`]), so each segment is read once.
    pub fn with_io(
        io: Arc<dyn SegmentIo>,
        config: EngineConfig,
    ) -> StorageResult<(Self, Recovered)> {
        // The snapshot is validated before the WAL's open-time repair touches any segment.
        let (snapshot_lsn, snapshot) = match io.read_snapshot()? {
            Some(image) => read_snapshot(&image)?,
            None => (0, Vec::new()),
        };
        let start = std::time::Instant::now();
        let (wal, commits) = WriteAheadLog::with_io(io.clone(), config.wal)?;
        if wal.base_lsn() > snapshot_lsn {
            // Only a checkpoint prunes the log, and it writes the snapshot first.
            return Err(StorageError::Corrupt(format!(
                "WAL starts after LSN {} but the snapshot covers only LSN {snapshot_lsn}",
                wal.base_lsn()
            )));
        }
        if wal.durable_lsn() < snapshot_lsn {
            // Every logged commit is covered: a reset install ([`StorageEngine::install`]) was
            // cut after its snapshot, or while it dropped the old log.  The log restarts after
            // the snapshot, so new commits never reuse the LSNs it claims.
            wal.restart(snapshot_lsn, || Ok(()))?;
        }
        let replayed = !commits.is_empty();
        let logged = commits.into_iter().filter(|(lsn, _)| *lsn > snapshot_lsn).map(|(_, c)| c);
        let effects: Vec<KeyEffect> =
            snapshot.into_iter().chain(logged).flat_map(|commit| commit.effects).collect();
        if replayed {
            seed_obs::global()
                .histogram("wal_recovery_replay_us")
                .observe_duration(start.elapsed());
        }
        let engine = Self {
            io,
            wal,
            poisoned: Mutex::new(None),
            snapshot_lsn: Mutex::new(snapshot_lsn),
            checkpoint_wal_bytes: config.checkpoint_wal_bytes,
            path: None,
        };
        Ok((engine, Recovered { effects }))
    }

    /// Directory of a durable engine, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Fails with [`StorageError::Poisoned`] once a commit or a checkpoint failed on I/O: from
    /// then on memory may be ahead of the log, and the engine refuses work until reopened.
    pub fn usable(&self) -> StorageResult<()> {
        self.lock_usable().map(drop)
    }

    /// Locks the poison state, failing once the engine is poisoned.
    fn lock_usable(&self) -> StorageResult<MutexGuard<'_, Option<String>>> {
        let poisoned = self.poisoned.lock();
        match &*poisoned {
            Some(reason) => Err(StorageError::Poisoned(reason.clone())),
            None => Ok(poisoned),
        }
    }

    // ----- commit ------------------------------------------------------------------------------

    /// Commits `effects` (key -> `Some(value)` for a put, `None` for a delete) as one
    /// transaction: one [`Commit`] frame with a single sync, taking the log's next LSN.  A crash
    /// before the sync leaves at most a torn frame, which recovery cuts.  An empty batch logs
    /// and syncs nothing, and so cannot fail.  If the write or the sync fails, the engine is
    /// poisoned: the frame is cut off the log again, and every later commit fails.
    pub fn commit(&self, effects: Vec<KeyEffect>) -> StorageResult<()> {
        if effects.is_empty() {
            return Ok(());
        }
        let poisoned = self.lock_usable()?;
        self.log(poisoned, &[Commit { effects }])
    }

    /// Appends commits another log holds at LSNs `first ..` — a replica's shipped batch — at
    /// the same LSNs: their frames in one write with one sync.  A batch whose first LSN is not
    /// this log's next LSN (a gap or an overlap) is refused and changes nothing; an I/O failure
    /// poisons the engine, as for [`StorageEngine::commit`].
    pub fn append(&self, first: Lsn, commits: &[Commit]) -> StorageResult<()> {
        let poisoned = self.lock_usable()?;
        let next = self.wal.next_lsn();
        if first != next {
            return Err(StorageError::InvalidArgument(format!(
                "a batch from LSN {first} does not continue a log that ends at LSN {}",
                next - 1
            )));
        }
        self.log(poisoned, commits)
    }

    /// The one append path: logs `commits`, poisoning the engine when that fails.
    fn log(
        &self,
        mut poisoned: MutexGuard<'_, Option<String>>,
        commits: &[Commit],
    ) -> StorageResult<()> {
        if let Err(e) = self.wal.append(commits) {
            *poisoned = Some(format!("commit at LSN {} failed: {e}", self.wal.next_lsn()));
            return Err(e);
        }
        Ok(())
    }

    // ----- checkpoint ---------------------------------------------------------------------------

    /// Whether the uncheckpointed WAL has grown past [`EngineConfig::checkpoint_wal_bytes`]:
    /// time for the owner of the data to encode an image and call
    /// [`StorageEngine::checkpoint`].  Retained replication segments do not count.
    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_wal_bytes
            .is_some_and(|threshold| self.wal.uncheckpointed_bytes().is_ok_and(|b| b >= threshold))
    }

    /// Writes `image` as the new snapshot, then prunes the WAL below the image's LSN — commits
    /// appended after it stay, so the image may be encoded while commits continue.  The
    /// snapshot replace is atomic ([`SegmentIo::write_snapshot`]) and precedes the prune, so a
    /// crash anywhere leaves a snapshot plus a log that together recover every committed
    /// transaction.  An image older than the snapshot on disk, or past the end of the log, is
    /// refused; an I/O failure poisons the engine.
    pub fn checkpoint(&self, image: &SnapshotImage) -> StorageResult<()> {
        let start = std::time::Instant::now();
        let mut covered = self.snapshot_lsn.lock();
        self.usable()?;
        let end = self.wal.durable_lsn();
        if image.lsn < *covered || image.lsn > end {
            return Err(StorageError::InvalidArgument(format!(
                "a snapshot image at LSN {} must lie between the last checkpoint (LSN {}) and \
                 the end of the log (LSN {end})",
                image.lsn, *covered
            )));
        }
        let written =
            self.io.write_snapshot(&image.bytes).and_then(|()| self.wal.truncate(image.lsn));
        if let Err(e) = written {
            *self.poisoned.lock() = Some(format!("checkpoint at LSN {} failed: {e}", image.lsn));
            return Err(e);
        }
        *covered = image.lsn;
        let registry = seed_obs::global();
        registry.counter("wal_checkpoints_total").inc();
        registry.histogram("wal_checkpoint_us").observe_duration(start.elapsed());
        Ok(())
    }

    /// Makes `image` the whole state, at its LSN, whether that lies below or past this log's
    /// end (a replica reset to its primary's position).  In order: every segment is deleted,
    /// newest first; the snapshot is replaced; an empty segment opens after the image's LSN.
    /// A crash while deleting reopens as the old snapshot and a prefix of the old log; a crash
    /// after the replace reopens as the image, with the log restarted after it.  No frame of the
    /// old log is ever replayed over the image.  An I/O failure poisons the engine.
    pub fn install(&self, image: &SnapshotImage) -> StorageResult<()> {
        let mut covered = self.snapshot_lsn.lock();
        let mut poisoned = self.lock_usable()?;
        if let Err(e) = self.wal.restart(image.lsn, || self.io.write_snapshot(&image.bytes)) {
            *poisoned = Some(format!("installing an image at LSN {} failed: {e}", image.lsn));
            return Err(e);
        }
        *covered = image.lsn;
        Ok(())
    }

    // ----- WAL status ---------------------------------------------------------------------------

    /// Bytes currently held by the WAL (recovery replay work is proportional to this).
    pub fn wal_size_bytes(&self) -> StorageResult<u64> {
        self.wal.size_bytes()
    }

    /// Health probe for the write path: reports a poisoned engine, fsyncs the active WAL
    /// segment and reports whether the log is currently writable at all (a failing disk or a
    /// vanished directory surfaces here).  No-op `Ok` for in-memory logs.
    pub fn wal_probe(&self) -> StorageResult<()> {
        self.usable()?;
        self.wal.sync()
    }

    // ----- replication feed ---------------------------------------------------------------------

    /// The absolute LSN of the last commit in the WAL — the position a fully caught-up
    /// replication subscriber has applied.  Checkpoint-stable: truncation advances the log's
    /// base instead of resetting the numbering.
    pub fn durable_lsn(&self) -> Lsn {
        self.wal.durable_lsn()
    }

    /// The WAL tail from `from` (inclusive): the commits a replication subscriber
    /// at position `from - 1` still needs, or [`WalTail::Truncated`] when a checkpoint already
    /// truncated them away and the subscriber must resync from a snapshot of the data.
    pub fn wal_tail(&self, from: Lsn) -> StorageResult<WalTail> {
        self.wal.read_from(from)
    }

    /// What a replica reset ships: the snapshot's commits, then the WAL tail past the
    /// snapshot's LSN, as one list, with the LSN the list ends at.  Both reads happen under the
    /// checkpoint lock, so no checkpoint's snapshot replace or prune falls between them.  The
    /// files hold only committed state.  A poisoned engine refuses: its log may lag what its
    /// callers were told.
    pub fn replication_cut(&self) -> StorageResult<(Vec<Commit>, Lsn)> {
        let covered = self.snapshot_lsn.lock();
        self.usable()?;
        let mut commits = match self.io.read_snapshot()? {
            Some(image) => read_snapshot(&image)?.1,
            None => Vec::new(),
        };
        let WalTail::Records(tail) = self.wal.read_from(*covered + 1)? else {
            // Only a checkpoint prunes the log, and it never prunes past its own snapshot.
            return Err(StorageError::Corrupt(format!(
                "the WAL no longer follows the snapshot at LSN {}",
                *covered
            )));
        };
        let end = tail.last().map_or(*covered, |(lsn, _)| *lsn);
        commits.extend(tail.into_iter().map(|(_, commit)| commit));
        Ok((commits, end))
    }

    /// Sets the oldest LSN a replication subscriber still needs (`None` = no subscribers).
    /// Checkpoints keep the sealed WAL segments covering it — within
    /// [`WalConfig::retention_budget_bytes`] — so a lagging subscriber catches up from the
    /// log instead of a full snapshot.
    pub fn set_replication_retention(&self, floor: Option<Lsn>) {
        self.wal.set_retention_floor(floor);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh directory per call: the process id keeps concurrent test runs apart, the counter
    /// keeps this process's tests (threads of one binary) apart.
    pub(crate) fn temp_dir(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("seed-engine-test-{}-{name}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) type KeySpace = BTreeMap<Vec<u8>, Vec<u8>>;

    /// The recovered effects replayed in order, as one ordered key space.
    pub(crate) fn key_space(recovered: Recovered) -> KeySpace {
        let mut space = KeySpace::new();
        for (key, value) in recovered.effects {
            match value {
                Some(v) => space.insert(key, v),
                None => space.remove(&key),
            };
        }
        space
    }

    /// Commits `value` under `key` in a transaction of its own.
    pub(crate) fn put(engine: &StorageEngine, key: &[u8], value: &[u8]) -> StorageResult<()> {
        engine.commit(vec![(key.to_vec(), Some(value.to_vec()))])
    }

    /// Commits the removal of `key` in a transaction of its own.
    pub(crate) fn delete(engine: &StorageEngine, key: &[u8]) -> StorageResult<()> {
        engine.commit(vec![(key.to_vec(), None)])
    }

    /// The image of `space` covering the log up to `lsn`.
    pub(crate) fn image_of(space: &KeySpace, lsn: Lsn) -> SnapshotImage {
        let mut writer = ImageWriter::new(lsn);
        for (key, value) in space {
            writer.put(key, value);
        }
        writer.finish()
    }

    /// An engine over shared in-memory segments, so a test can "restart" it.
    fn memory_engine(io: &Arc<MemorySegmentIo>) -> (StorageEngine, KeySpace) {
        let (engine, recovered) = StorageEngine::with_io(io.clone(), EngineConfig::default())
            .expect("in-memory recovery");
        (engine, key_space(recovered))
    }

    /// What a restart of the directory `dir` recovers.
    fn recovered(dir: &Path) -> KeySpace {
        key_space(StorageEngine::open(dir).unwrap().1)
    }

    fn space(pairs: &[(&str, &[u8])]) -> KeySpace {
        pairs.iter().map(|(k, v)| (k.as_bytes().to_vec(), v.to_vec())).collect()
    }

    #[test]
    fn in_memory_put_get_delete() {
        let io = Arc::new(MemorySegmentIo::new());
        let (engine, start) = memory_engine(&io);
        assert!(start.is_empty());
        put(&engine, b"obj/Alarms", b"data object").unwrap();
        put(&engine, b"obj/AlarmHandler", b"action object").unwrap();
        delete(&engine, b"obj/Alarms").unwrap();
        drop(engine);
        assert_eq!(memory_engine(&io).1, space(&[("obj/AlarmHandler", b"action object")]));
    }

    #[test]
    fn overwrite_updates_value() {
        let io = Arc::new(MemorySegmentIo::new());
        let (engine, _) = memory_engine(&io);
        put(&engine, b"k", b"v1").unwrap();
        put(&engine, b"k", b"a much longer value than before so the record grows").unwrap();
        drop(engine);
        let (_, recovered) = memory_engine(&io);
        assert_eq!(
            recovered,
            space(&[("k", b"a much longer value than before so the record grows")])
        );
    }

    #[test]
    fn a_batch_is_one_transaction_and_an_empty_batch_logs_nothing() {
        let io = Arc::new(MemorySegmentIo::new());
        let (engine, _) = memory_engine(&io);
        engine.commit(Vec::new()).unwrap();
        assert_eq!(engine.wal_size_bytes().unwrap(), 0, "an empty batch logged frames");
        put(&engine, b"gone", b"0").unwrap();
        let from = engine.durable_lsn() + 1;
        let batch = vec![
            (b"a".to_vec(), Some(b"1".to_vec())),
            (b"gone".to_vec(), None),
            (b"b".to_vec(), Some(b"2".to_vec())),
        ];
        engine.commit(batch.clone()).unwrap();
        let WalTail::Records(records) = engine.wal_tail(from).unwrap() else {
            panic!("the tail past the last commit is in the log")
        };
        assert_eq!(records, vec![(from, Commit { effects: batch })], "one record, one LSN");
        drop(engine);
        assert_eq!(memory_engine(&io).1, space(&[("a", b"1"), ("b", b"2")]));
    }

    #[test]
    fn durable_engine_recovers_after_reopen() {
        let dir = temp_dir("recover");
        {
            let (engine, _) = StorageEngine::open(&dir).unwrap();
            put(&engine, b"obj/Alarms", b"alarm data").unwrap();
            put(&engine, b"obj/Sensor", b"sensor action").unwrap();
            delete(&engine, b"obj/Sensor").unwrap();
            // No checkpoint: recovery must come from the WAL alone.
        }
        let recovered = StorageEngine::open(&dir).unwrap().1;
        assert_eq!(recovered.get(b"obj/Alarms"), Some(&b"alarm data"[..]));
        assert_eq!(recovered.get(b"obj/Sensor"), None);
        assert_eq!(key_space(recovered), space(&[("obj/Alarms", b"alarm data")]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_engine_recovers_from_checkpoint_plus_wal() {
        let dir = temp_dir("checkpoint");
        let mut model = KeySpace::new();
        {
            let (engine, _) = StorageEngine::open(&dir).unwrap();
            for i in 0..100u32 {
                let (key, value) = (format!("key/{i:03}"), format!("value {i}"));
                put(&engine, key.as_bytes(), value.as_bytes()).unwrap();
                model.insert(key.into_bytes(), value.into_bytes());
            }
            engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap();
            // Post-checkpoint mutations only in the WAL.
            put(&engine, b"key/100", b"after checkpoint").unwrap();
            delete(&engine, b"key/000").unwrap();
        }
        let recovered = StorageEngine::open(&dir).unwrap().1;
        // The image's 100 puts, then only the 2 effects logged past the image's LSN.
        assert_eq!(recovered.effects.len(), 102, "only records past the image's LSN replay");
        assert_eq!(recovered.get(b"key/001"), Some(&b"value 1"[..]));
        assert_eq!(recovered.get(b"key/100"), Some(&b"after checkpoint"[..]));
        assert_eq!(recovered.get(b"key/000"), None);
        assert_eq!(key_space(recovered).len(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_transaction_is_not_recovered() {
        let io = Arc::new(MemorySegmentIo::new());
        let (engine, _) = memory_engine(&io);
        put(&engine, b"committed", b"yes").unwrap();
        let acknowledged = io.read(1).unwrap().len();
        engine.commit(vec![(b"a".to_vec(), Some(b"no".to_vec())), (b"b".to_vec(), None)]).unwrap();
        let cut_lsn = engine.durable_lsn();
        let full = io.read(1).unwrap();
        drop(engine);
        // A crash during the second commit's write leaves any prefix of its frame.
        for cut in acknowledged..full.len() {
            let crashed = BTreeMap::from([(1, full[..cut].to_vec())]);
            let crashed = Arc::new(MemorySegmentIo::from_segments(crashed));
            let (engine, recovered) = memory_engine(&crashed);
            assert_eq!(recovered, space(&[("committed", b"yes")]), "frame cut at byte {cut}");
            put(&engine, b"later", b"1").unwrap();
            assert_eq!(engine.durable_lsn(), cut_lsn, "the next commit takes the cut one's LSN");
            drop(engine);
            let expected = space(&[("committed", b"yes"), ("later", b"1")]);
            assert_eq!(memory_engine(&crashed).1, expected, "frame cut at byte {cut}");
        }
    }

    #[test]
    fn append_takes_the_next_lsns_and_refuses_a_gap_or_an_overlap() {
        let io = Arc::new(MemorySegmentIo::new());
        let (engine, _) = memory_engine(&io);
        let batch = |first: Lsn, n: Lsn| -> Vec<Commit> {
            let effect = |i: Lsn| (format!("k/{i}").into_bytes(), Some(vec![i as u8]));
            (first..first + n).map(|i| Commit { effects: vec![effect(i)] }).collect()
        };
        engine.append(1, &batch(1, 3)).unwrap();
        assert_eq!(engine.durable_lsn(), 3, "three commits, three LSNs");
        for first in [3, 5] {
            let refused = engine.append(first, &batch(first, 2));
            assert!(matches!(refused, Err(StorageError::InvalidArgument(_))), "from LSN {first}");
        }
        assert_eq!(engine.durable_lsn(), 3, "a refused batch changes nothing");
        engine.usable().unwrap();
        engine.append(4, &batch(4, 2)).unwrap();
        let WalTail::Records(records) = engine.wal_tail(1).unwrap() else {
            panic!("the log holds LSN 1")
        };
        assert_eq!(records, (1..=5).zip(batch(1, 5)).collect::<Vec<_>>());
        drop(engine);
        assert_eq!(memory_engine(&io).1.len(), 5);
    }

    #[test]
    fn install_makes_an_image_the_whole_state_below_at_or_past_the_log_end() {
        for cut in [2, 8, 30] {
            let dir = temp_dir("install");
            let (engine, _) = StorageEngine::open(&dir).unwrap();
            let mut old = KeySpace::new();
            for i in 0..8u32 {
                put(&engine, format!("old/{i}").as_bytes(), b"v").unwrap();
                old.insert(format!("old/{i}").into_bytes(), b"v".to_vec());
                if i == 3 {
                    engine.checkpoint(&image_of(&old, engine.durable_lsn())).unwrap();
                }
            }
            engine.install(&image_of(&space(&[("new", b"image")]), cut)).unwrap();
            assert_eq!(engine.durable_lsn(), cut, "cut {cut}");
            assert!(matches!(engine.wal_tail(cut).unwrap(), WalTail::Truncated { .. }));
            let (commits, end) = engine.replication_cut().unwrap();
            assert_eq!((commits.len(), end), (1, cut), "cut {cut}: the image alone");
            put(&engine, b"after", b"1").unwrap();
            assert_eq!(engine.durable_lsn(), cut + 1);
            drop(engine);
            let (engine, recovered) = StorageEngine::open(&dir).unwrap();
            let expected = space(&[("after", b"1"), ("new", b"image")]);
            assert_eq!(key_space(recovered), expected, "cut {cut}: no old frame replayed");
            assert_eq!(engine.durable_lsn(), cut + 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn n_commits_advance_durable_lsn_by_n() {
        let engine = StorageEngine::in_memory().unwrap();
        for (n, size) in [1usize, 3, 40, 1000].into_iter().enumerate() {
            let effects = (0..size)
                .map(|k| (format!("k/{n}/{k}").into_bytes(), (k % 4 != 0).then(|| vec![7; k])))
                .collect();
            engine.commit(effects).unwrap();
            assert_eq!(engine.durable_lsn(), n as Lsn + 1, "a commit of {size} effects");
        }
    }

    #[test]
    fn wal_growth_triggers_automatic_checkpoint() {
        // The engine reports when a checkpoint is due; a caller that checkpoints whenever it
        // is keeps the WAL bounded, and recovery comes from the snapshot plus a short log.
        let dir = temp_dir("auto-checkpoint");
        let mut model = KeySpace::new();
        {
            let config =
                EngineConfig { checkpoint_wal_bytes: Some(512), ..EngineConfig::default() };
            let (engine, _) = StorageEngine::open_with(&dir, config).unwrap();
            let mut checkpoints = 0;
            for i in 0..32u32 {
                let key = format!("k/{i:03}").into_bytes();
                put(&engine, &key, &[0xAB; 64]).unwrap();
                model.insert(key, vec![0xAB; 64]);
                if engine.checkpoint_due() {
                    engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap();
                    assert!(!engine.checkpoint_due(), "a checkpoint covers the whole log");
                    checkpoints += 1;
                }
            }
            // Each put is an ~80-byte frame, so the 512-byte threshold has fired several times.
            assert!(checkpoints >= 4, "only {checkpoints} checkpoints were due");
            assert!(
                engine.wal_size_bytes().unwrap() < 512,
                "WAL stays bounded by the checkpoint policy"
            );
            // No close: recovery must come from snapshot + short WAL.
        }
        assert_eq!(recovered(&dir), model);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmented_wal_rotates_and_recovers_across_reopen() {
        let dir = temp_dir("segmented");
        {
            let config = EngineConfig {
                checkpoint_wal_bytes: None,
                wal: WalConfig { segment_max_bytes: 256, ..WalConfig::default() },
            };
            let (engine, _) = StorageEngine::open_with(&dir, config).unwrap();
            for i in 0..40u32 {
                put(&engine, format!("k/{i:03}").as_bytes(), &[0xCD; 48]).unwrap();
            }
            let segments = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".seg"));
            assert!(segments.count() > 1, "commits rotated into multiple segments");
            // No checkpoint: recovery replays all segments on reopen.
        }
        let recovered = recovered(&dir);
        assert_eq!(recovered.len(), 40);
        assert_eq!(recovered[&b"k/039"[..]], vec![0xCD; 48]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_the_wal_tail_for_subscribers_across_a_checkpoint() {
        let engine = StorageEngine::in_memory().unwrap();
        let mut model = KeySpace::new();
        for i in 0..20u32 {
            let key = format!("k/{i:02}").into_bytes();
            put(&engine, &key, b"v").unwrap();
            model.insert(key, b"v".to_vec());
        }
        let cursor = engine.durable_lsn() - 10; // a lagging subscriber's next LSN
        engine.set_replication_retention(Some(cursor));
        engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap();
        match engine.wal_tail(cursor).unwrap() {
            WalTail::Records(recs) => {
                assert_eq!(recs.first().map(|(l, _)| *l), Some(cursor));
            }
            other => panic!("retained tail expected, got {other:?}"),
        }
        // Without subscribers the next checkpoint prunes the retained segments.
        engine.set_replication_retention(None);
        engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap();
        assert!(matches!(engine.wal_tail(cursor).unwrap(), WalTail::Truncated { .. }));
        assert_eq!(engine.wal_size_bytes().unwrap(), 0);
    }

    #[test]
    fn checkpoint_keeps_commits_appended_after_the_image() {
        // The background-checkpoint shape: the image was cut at LSN L, commits kept coming,
        // and the checkpoint must prune only below L.
        let dir = temp_dir("late-image");
        let mut model = KeySpace::new();
        {
            let config = EngineConfig {
                wal: WalConfig { segment_max_bytes: 128, ..WalConfig::default() },
                ..EngineConfig::default()
            };
            let (engine, _) = StorageEngine::open_with(&dir, config).unwrap();
            for i in 0..10u32 {
                put(&engine, format!("k/{i}").as_bytes(), b"before").unwrap();
                model.insert(format!("k/{i}").into_bytes(), b"before".to_vec());
            }
            let image = image_of(&model, engine.durable_lsn());
            for i in 5..15u32 {
                put(&engine, format!("k/{i}").as_bytes(), b"after").unwrap();
                model.insert(format!("k/{i}").into_bytes(), b"after".to_vec());
            }
            engine.checkpoint(&image).unwrap();
            let stale = image_of(&KeySpace::new(), image.lsn() - 1);
            assert!(
                matches!(engine.checkpoint(&stale), Err(StorageError::InvalidArgument(_))),
                "an image older than the snapshot on disk is refused"
            );
            let ahead = image_of(&KeySpace::new(), engine.durable_lsn() + 1);
            assert!(matches!(engine.checkpoint(&ahead), Err(StorageError::InvalidArgument(_))));
        }
        assert_eq!(recovered(&dir), model);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_keys_round_trip_through_checkpoint() {
        let dir = temp_dir("many");
        let mut model = KeySpace::new();
        {
            let (engine, _) = StorageEngine::open(&dir).unwrap();
            for i in 0..2000u32 {
                let (key, value) = (format!("obj/{i:05}").into_bytes(), vec![(i % 251) as u8; 64]);
                put(&engine, &key, &value).unwrap();
                model.insert(key, value);
            }
            engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap();
        }
        let recovered = StorageEngine::open(&dir).unwrap().1;
        assert_eq!(recovered.effects.len(), 2000, "everything came from the snapshot");
        assert_eq!(recovered.get(b"obj/01999"), Some(&vec![(1999 % 251) as u8; 64][..]));
        assert_eq!(key_space(recovered), model);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_directory_holds_only_wal_segments_and_the_snapshot() {
        let dir = temp_dir("layout");
        let (engine, _) = StorageEngine::open(&dir).unwrap();
        put(&engine, b"k", b"v").unwrap();
        engine.checkpoint(&image_of(&space(&[("k", b"v")]), engine.durable_lsn())).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let is_segment = |n: &String| n.starts_with("wal.") && n.ends_with(".seg");
        assert_eq!(names.iter().filter(|n| *n == "snapshot.db").count(), 1, "{names:?}");
        assert!(names.iter().any(is_segment), "{names:?}");
        assert!(names.iter().all(|n| n == "snapshot.db" || is_segment(n)), "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn values_have_no_record_size_cap() {
        let dir = temp_dir("large");
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 253) as u8).collect();
        {
            let (engine, _) = StorageEngine::open(&dir).unwrap();
            put(&engine, b"big/wal", &big).unwrap();
            let model: KeySpace = [(b"big/wal".to_vec(), big.clone())].into_iter().collect();
            engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap();
            put(&engine, b"big/after", &big).unwrap();
        }
        let recovered = StorageEngine::open(&dir).unwrap().1;
        assert_eq!(recovered.get(b"big/wal"), Some(&big[..]));
        assert_eq!(recovered.get(b"big/after"), Some(&big[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpointed directory plus its snapshot image.
    fn checkpointed_dir(name: &str) -> (PathBuf, Vec<u8>) {
        let dir = temp_dir(name);
        let (engine, _) = StorageEngine::open(&dir).unwrap();
        put(&engine, b"obj/Alarms", b"alarm data").unwrap();
        put(&engine, b"obj/Sensor", b"").unwrap();
        let model = space(&[("obj/Alarms", b"alarm data"), ("obj/Sensor", b"")]);
        engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap();
        drop(engine);
        let image = std::fs::read(dir.join("snapshot.db")).unwrap();
        (dir, image)
    }

    #[test]
    fn truncated_snapshot_is_corrupt_not_empty() {
        let (dir, image) = checkpointed_dir("snap-truncated");
        for len in 0..image.len() {
            std::fs::write(dir.join("snapshot.db"), &image[..len]).unwrap();
            match StorageEngine::open(&dir) {
                Err(StorageError::Corrupt(_)) => {}
                Err(other) => panic!("truncated to {len}: expected Corrupt, got {other}"),
                Ok(_) => panic!("truncated to {len}: expected Corrupt, opened"),
            }
        }
        std::fs::write(dir.join("snapshot.db"), &image).unwrap();
        assert_eq!(recovered(&dir).len(), 2, "the intact image still opens");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_snapshot_byte_is_corrupt() {
        let (dir, image) = checkpointed_dir("snap-flipped");
        for pos in 0..image.len() {
            let mut damaged = image.clone();
            damaged[pos] ^= 0x20;
            std::fs::write(dir.join("snapshot.db"), &damaged).unwrap();
            match StorageEngine::open(&dir) {
                Err(StorageError::Corrupt(_)) => {}
                Err(other) => panic!("byte {pos} flipped: expected Corrupt, got {other}"),
                Ok(_) => panic!("byte {pos} flipped: expected Corrupt, opened"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_behind_a_pruned_log_is_corrupt() {
        let (dir, _) = checkpointed_dir("snap-missing");
        std::fs::remove_file(dir.join("snapshot.db")).unwrap();
        assert!(matches!(StorageEngine::open(&dir), Err(StorageError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file in `dir` with its bytes.
    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn snapshot_image_lsn_round_trips_and_snp1_is_refused() {
        for lsn in [0, 1, 41, u64::MAX] {
            let image = image_of(&space(&[("k", b"v")]), lsn);
            assert_eq!(image.lsn(), lsn);
            let (read_lsn, commits) = read_snapshot(&image.bytes).unwrap();
            assert_eq!(read_lsn, lsn);
            assert_eq!(
                commits,
                vec![Commit { effects: vec![(b"k".to_vec(), Some(b"v".to_vec()))] }]
            );
        }
        let empty = image_of(&KeySpace::new(), 3);
        assert_eq!(empty.bytes.len(), SNAPSHOT_HEADER_LEN, "an empty image is its header alone");
        assert_eq!(read_snapshot(&empty.bytes).unwrap(), (3, Vec::new()));
        // The pre-LSN layout: magic, count, LEB128-framed pairs, CRC.  No migration.
        let mut old = b"SEEDSNP1".to_vec();
        old.extend_from_slice(&0u64.to_le_bytes());
        let crc = crc32(&old);
        old.extend_from_slice(&crc.to_le_bytes());
        match read_snapshot(&old) {
            Err(StorageError::Corrupt(reason)) => assert!(reason.contains("SEEDSNP1"), "{reason}"),
            other => panic!("a SEEDSNP1 image must be refused, got {other:?}"),
        }
    }

    #[test]
    fn a_seedsnp2_snapshot_is_refused_naming_both_formats_and_nothing_changes() {
        let (dir, _) = checkpointed_dir("snap-old-format");
        put(&StorageEngine::open(&dir).unwrap().0, b"obj/Later", b"logged").unwrap();
        // A SEEDSNP2 image: magic, LSN, pair count, `u32`-framed pairs, CRC over all of it.
        let mut old = b"SEEDSNP2".to_vec();
        old.extend_from_slice(&2u64.to_le_bytes());
        old.extend_from_slice(&1u64.to_le_bytes());
        for part in [&b"obj/Alarms"[..], b"alarm data"] {
            old.extend_from_slice(&(part.len() as u32).to_le_bytes());
            old.extend_from_slice(part);
        }
        let crc = crc32(&old);
        old.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(dir.join("snapshot.db"), &old).unwrap();
        let before = files(&dir);
        match StorageEngine::open(&dir) {
            Err(StorageError::Corrupt(reason)) => {
                assert!(reason.contains("SEEDSNP2") && reason.contains("SEEDSNP3"), "{reason}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a SEEDSNP2 snapshot opened"),
        }
        assert_eq!(files(&dir), before, "the failed open changed the directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_image_is_written_as_bounded_frames_and_an_oversize_pair_is_its_own_frame() {
        let mut model: KeySpace = (0..3000u32)
            .map(|i| (format!("obj/{i:05}").into_bytes(), vec![(i % 251) as u8; 100]))
            .collect();
        model.insert(b"obj/01500-big".to_vec(), vec![7; 3 * FRAME_PAYLOAD_BOUND]);
        let image = image_of(&model, 9);
        // The frames as they lie on disk: `len | crc | payload`.
        let mut lens = Vec::new();
        let mut rest = &image.bytes[SNAPSHOT_HEADER_LEN..];
        while !rest.is_empty() {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            lens.push(len);
            rest = &rest[8 + len..];
        }
        let (lsn, commits) = read_snapshot(&image.bytes).unwrap();
        assert_eq!(lsn, 9);
        assert_eq!(commits.len(), lens.len());
        assert!(commits.len() >= 5, "{} frames for ~300 KiB of small pairs", commits.len());
        for (commit, len) in commits.iter().zip(&lens) {
            let oversize = commit.effects.iter().any(|(k, _)| k == b"obj/01500-big");
            if oversize {
                assert_eq!(commit.effects.len(), 1, "the oversize pair shares its frame");
            } else {
                assert!(*len <= FRAME_PAYLOAD_BOUND, "a frame of {len} bytes");
            }
        }
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = commits
            .into_iter()
            .flat_map(|c| c.effects)
            .map(|(k, v)| (k, v.expect("an image holds puts")))
            .collect();
        assert_eq!(pairs, model.into_iter().collect::<Vec<_>>(), "every pair, in order, once");
    }

    /// Segment storage that fails on demand: the next `sync`, or the next snapshot write.
    pub(crate) struct FailingIo {
        inner: MemorySegmentIo,
        pub(crate) fail_sync: std::sync::atomic::AtomicBool,
        pub(crate) fail_snapshot: std::sync::atomic::AtomicBool,
    }

    impl FailingIo {
        pub(crate) fn new() -> Self {
            Self {
                inner: MemorySegmentIo::new(),
                fail_sync: false.into(),
                fail_snapshot: false.into(),
            }
        }

        fn injected(flag: &std::sync::atomic::AtomicBool) -> StorageResult<()> {
            if flag.swap(false, Ordering::SeqCst) {
                return Err(StorageError::Io(std::io::Error::other("injected sync failure")));
            }
            Ok(())
        }
    }

    impl SegmentIo for FailingIo {
        fn list(&self) -> StorageResult<Vec<crate::wal::SegmentId>> {
            self.inner.list()
        }
        fn read(&self, id: crate::wal::SegmentId) -> StorageResult<Vec<u8>> {
            self.inner.read(id)
        }
        fn create(&self, id: crate::wal::SegmentId, initial: &[u8]) -> StorageResult<()> {
            self.inner.create(id, initial)
        }
        fn append(&self, id: crate::wal::SegmentId, bytes: &[u8]) -> StorageResult<()> {
            self.inner.append(id, bytes)
        }
        fn sync(&self, id: crate::wal::SegmentId) -> StorageResult<()> {
            Self::injected(&self.fail_sync)?;
            self.inner.sync(id)
        }
        fn truncate(&self, id: crate::wal::SegmentId, len: u64) -> StorageResult<()> {
            self.inner.truncate(id, len)
        }
        fn delete(&self, id: crate::wal::SegmentId) -> StorageResult<()> {
            self.inner.delete(id)
        }
        /// The snapshot's own sync fails: the image never replaces the old one.
        fn write_snapshot(&self, image: &[u8]) -> StorageResult<()> {
            Self::injected(&self.fail_snapshot)?;
            self.inner.write_snapshot(image)
        }
        fn read_snapshot(&self) -> StorageResult<Option<Vec<u8>>> {
            self.inner.read_snapshot()
        }
    }

    #[test]
    fn poison_after_a_failed_commit_sync_keeps_only_acknowledged_commits() {
        let io = Arc::new(FailingIo::new());
        let (engine, _) = StorageEngine::with_io(io.clone(), EngineConfig::default()).unwrap();
        put(&engine, b"acked", b"1").unwrap();
        io.fail_sync.store(true, Ordering::SeqCst);
        assert!(matches!(put(&engine, b"failed", b"2"), Err(StorageError::Io(_))));
        // Every later commit is refused, and the probe reports why.
        assert!(matches!(engine.usable(), Err(StorageError::Poisoned(_))));
        assert!(matches!(put(&engine, b"later", b"3"), Err(StorageError::Poisoned(_))));
        match engine.wal_probe() {
            Err(StorageError::Poisoned(reason)) => assert!(reason.contains("commit"), "{reason}"),
            other => panic!("a poisoned engine must fail its probe, got {other:?}"),
        }
        let image = image_of(&space(&[("acked", b"1")]), engine.durable_lsn());
        assert!(matches!(engine.checkpoint(&image), Err(StorageError::Poisoned(_))));
        drop(engine);
        let (_, recovered) = StorageEngine::with_io(io, EngineConfig::default()).unwrap();
        assert_eq!(key_space(recovered), space(&[("acked", b"1")]));
    }

    #[test]
    fn poison_after_a_failed_background_checkpoint_keeps_every_commit() {
        let io = Arc::new(FailingIo::new());
        let (engine, _) = StorageEngine::with_io(io.clone(), EngineConfig::default()).unwrap();
        let engine = Arc::new(engine);
        put(&engine, b"a", b"1").unwrap();
        let image = image_of(&space(&[("a", b"1")]), engine.durable_lsn());
        put(&engine, b"b", b"2").unwrap(); // committed while the image was being encoded
        io.fail_snapshot.store(true, Ordering::SeqCst);
        let background = {
            let engine = engine.clone();
            std::thread::spawn(move || engine.checkpoint(&image))
        };
        assert!(matches!(background.join().unwrap(), Err(StorageError::Io(_))));
        assert!(matches!(engine.usable(), Err(StorageError::Poisoned(_))));
        assert!(matches!(put(&engine, b"c", b"3"), Err(StorageError::Poisoned(_))));
        drop(engine);
        let (_, recovered) = StorageEngine::with_io(io, EngineConfig::default()).unwrap();
        assert_eq!(key_space(recovered), space(&[("a", b"1"), ("b", b"2")]));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{delete, image_of, key_space, put, temp_dir, KeySpace};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn engine_matches_btreemap_model(
            ops in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..16),
                 proptest::collection::vec(any::<u8>(), 0..64),
                 any::<bool>()),
                1..120,
            )
        ) {
            let io = Arc::new(MemorySegmentIo::new());
            let (engine, _) = StorageEngine::with_io(io.clone(), EngineConfig::default()).unwrap();
            let mut model = KeySpace::new();
            for (key, value, is_delete) in ops {
                if is_delete {
                    delete(&engine, &key).unwrap();
                    model.remove(&key);
                } else {
                    put(&engine, &key, &value).unwrap();
                    model.insert(key.clone(), value);
                }
            }
            drop(engine);
            let (_, recovered) = StorageEngine::with_io(io, EngineConfig::default()).unwrap();
            prop_assert_eq!(key_space(recovered), model);
        }
    }

    /// One step of the durable model test.
    #[derive(Debug, Clone)]
    enum Step {
        Put(Vec<u8>, Vec<u8>),
        Delete(Vec<u8>),
        Checkpoint,
        Reopen,
    }

    /// Mostly puts over a bounded key space (so overwrites grow and shrink values), some
    /// deletes, and occasional explicit checkpoints and drop-and-reopen cycles.
    fn arb_step() -> impl Strategy<Value = Step> {
        (0u8..100, 0u8..128, proptest::collection::vec(any::<u8>(), 0..300)).prop_map(
            |(kind, key, value)| {
                let key = format!("k/{key:03}").into_bytes();
                match kind {
                    0..=59 => Step::Put(key, value),
                    60..=84 => Step::Delete(key),
                    85..=92 => Step::Checkpoint,
                    _ => Step::Reopen,
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The durable variant: a directory-backed engine with a small checkpoint threshold
        /// and segment cap (so checkpoints, rotations and prunes fire constantly) must agree
        /// with the model after every reopen, whatever mix of value sizes and overwrites came
        /// before.
        #[test]
        fn durable_engine_matches_btreemap_model(
            steps in proptest::collection::vec(arb_step(), 1..400)
        ) {
            let dir = temp_dir("model");
            let config = EngineConfig {
                checkpoint_wal_bytes: Some(4096),
                wal: WalConfig { segment_max_bytes: 1024, ..WalConfig::default() },
            };
            let (mut engine, _) = StorageEngine::open_with(&dir, config.clone()).unwrap();
            let mut model = KeySpace::new();
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Put(key, value) => {
                        put(&engine, &key, &value).unwrap_or_else(|e| panic!("step {i}: put: {e}"));
                        model.insert(key, value);
                    }
                    Step::Delete(key) => {
                        delete(&engine, &key).unwrap_or_else(|e| panic!("step {i}: delete: {e}"));
                        model.remove(&key);
                    }
                    Step::Checkpoint => {
                        engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap()
                    }
                    Step::Reopen => {
                        drop(engine);
                        let (reopened, recovered) =
                            StorageEngine::open_with(&dir, config.clone()).unwrap();
                        engine = reopened;
                        prop_assert_eq!(key_space(recovered), model.clone());
                    }
                }
                if engine.checkpoint_due() {
                    engine.checkpoint(&image_of(&model, engine.durable_lsn())).unwrap();
                }
            }
            drop(engine);
            let (_, recovered) = StorageEngine::open_with(&dir, config).unwrap();
            prop_assert_eq!(key_space(recovered), model);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
