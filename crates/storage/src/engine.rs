//! The storage engine: a durable, transactional key/value store.
//!
//! `seed-core` persists objects, relationships, version deltas and the schema catalog as
//! key/value pairs with hierarchical keys (`o/<id>`, `r/<id>`, `v/<vid>/...`).  The engine
//! provides:
//!
//! * durable `put`/`get`/`delete` with write-ahead logging,
//! * transactions (`begin`/`commit`/`abort`) with **group commit**: effects are buffered and
//!   written to the WAL as one contiguous batch with a single sync at commit time, so a crash
//!   before commit leaves no trace and a transaction's durability cost is O(1) syncs,
//! * ordered prefix and range scans,
//! * checkpointing (write a snapshot of the whole key space, prune the WAL), either explicit or
//!   automatic once the WAL outgrows [`EngineConfig::checkpoint_wal_bytes`],
//! * recovery on open (load the last snapshot, replay the committed WAL records on top).
//!
//! Data layout: committed state is one in-memory ordered map, so every read is served from
//! memory.  On disk there is exactly one format — the WAL segments plus one snapshot image
//! written through [`SegmentIo::write_snapshot`]:
//!
//! ```text
//! magic "SEEDSNP1" | count: u64 | count × (key: bytes, value: bytes) in key order | crc32: u32
//! ```
//!
//! (`bytes` = LEB128 length + raw bytes; the CRC covers everything before it).  A damaged
//! image — bad magic, bad CRC, short file, unsorted keys — is [`StorageError::Corrupt`], never
//! an empty database.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::codec::{crc32, Decoder, Encoder};
use crate::error::{StorageError, StorageResult};
use crate::wal::{
    replay_committed, FileSegmentIo, KeyEffect, LogRecord, Lsn, MemorySegmentIo, SegmentIo,
    WalConfig, WalTail, WriteAheadLog,
};

/// Configuration for opening a [`StorageEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Checkpoint automatically once the uncheckpointed WAL grows past this many bytes
    /// (`None` = only on explicit [`StorageEngine::checkpoint`] calls).  Bounding the WAL
    /// bounds recovery time: replay work on open is proportional to the log, not to the
    /// database.
    pub checkpoint_wal_bytes: Option<u64>,
    /// Size cap of one WAL segment file: the log rotates to a fresh segment once the active
    /// one reaches this many frame bytes (see [`WalConfig::segment_max_bytes`]).
    pub segment_max_bytes: u64,
    /// Upper bound on WAL bytes retained past a checkpoint for lagging replication
    /// subscribers (see [`WalConfig::retention_budget_bytes`]).
    pub retention_budget_bytes: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let wal = WalConfig::default();
        Self {
            checkpoint_wal_bytes: Some(4 * 1024 * 1024),
            segment_max_bytes: wal.segment_max_bytes,
            retention_budget_bytes: wal.retention_budget_bytes,
        }
    }
}

/// Identifier of an open transaction.
pub type TxnId = u64;

/// Every committed `(key, value)` pair of an engine, in key order — the shape of a full
/// replication snapshot ([`StorageEngine::snapshot_with_lsn`]).
pub type KeySpaceDump = Vec<(Vec<u8>, Vec<u8>)>;

/// Magic (and format version) opening every snapshot image.
const SNAPSHOT_MAGIC: &[u8; 8] = b"SEEDSNP1";

/// Serializes the committed key space into one snapshot image (layout in the module docs).
fn encode_snapshot(map: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<u8> {
    let payload: usize = map.iter().map(|(k, v)| k.len() + v.len() + 10).sum();
    let mut e = Encoder::with_capacity(SNAPSHOT_MAGIC.len() + 8 + payload + 4);
    e.put_raw(SNAPSHOT_MAGIC).put_u64(map.len() as u64);
    for (key, value) in map {
        e.put_bytes(key).put_bytes(value);
    }
    let crc = crc32(e.as_slice());
    e.put_u32(crc);
    e.finish()
}

/// Parses a snapshot image produced by [`encode_snapshot`], verifying magic, CRC, key order
/// and that the pairs fill the image exactly.
fn decode_snapshot(image: &[u8]) -> StorageResult<BTreeMap<Vec<u8>, Vec<u8>>> {
    let corrupt = |what: &str| StorageError::Corrupt(format!("snapshot: {what}"));
    if image.len() < SNAPSHOT_MAGIC.len() + 8 + 4 {
        return Err(corrupt("image too short"));
    }
    if &image[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let (body, tail) = image.split_at(image.len() - 4);
    if crc32(body) != u32::from_le_bytes(tail.try_into().expect("4 bytes")) {
        return Err(corrupt("checksum mismatch"));
    }
    let mut d = Decoder::new(&body[SNAPSHOT_MAGIC.len()..]);
    let count = d.get_u64()?;
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for _ in 0..count {
        let key = d.get_bytes()?;
        let value = d.get_bytes()?;
        if pairs.last().is_some_and(|(prev, _)| prev.as_slice() >= key) {
            return Err(corrupt("keys out of order"));
        }
        pairs.push((key.to_vec(), value.to_vec()));
    }
    if !d.is_exhausted() {
        return Err(corrupt("trailing bytes after the last pair"));
    }
    Ok(pairs.into_iter().collect())
}

struct EngineInner {
    /// The committed key space.
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Pending (uncommitted) effects per transaction: key -> Some(value) for put, None for delete.
    pending: HashMap<TxnId, Vec<KeyEffect>>,
    closed: bool,
}

impl EngineInner {
    fn apply(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        match value {
            Some(v) => {
                self.map.insert(key, v);
            }
            None => {
                self.map.remove(&key);
            }
        }
    }
}

/// A durable key/value storage engine with WAL-based recovery.
pub struct StorageEngine {
    /// Every byte the engine persists goes through this one door: WAL segments and the
    /// checkpoint snapshot alike.
    io: Arc<dyn SegmentIo>,
    wal: WriteAheadLog,
    inner: Mutex<EngineInner>,
    next_txn: AtomicU64,
    config: EngineConfig,
    /// Path of the database directory (None for in-memory engines).
    path: Option<PathBuf>,
}

impl StorageEngine {
    /// Opens an ephemeral in-memory engine.
    pub fn in_memory() -> StorageResult<Self> {
        Self::with_io(Arc::new(MemorySegmentIo::new()), EngineConfig::default())
    }

    /// Opens (or creates) a durable engine in directory `dir` using default configuration.
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<Self> {
        Self::open_with(dir, EngineConfig::default())
    }

    /// Opens (or creates) a durable engine in directory `dir`.
    pub fn open_with(dir: impl AsRef<Path>, config: EngineConfig) -> StorageResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut engine = Self::with_io(Arc::new(FileSegmentIo::new(&dir)), config)?;
        engine.path = Some(dir);
        Ok(engine)
    }

    /// Opens an engine over an arbitrary [`SegmentIo`] — what [`StorageEngine::open_with`] and
    /// [`StorageEngine::in_memory`] build on, and the injection point for fault-injection
    /// tests.  Recovery loads the snapshot, then replays the committed WAL records on top.
    pub fn with_io(io: Arc<dyn SegmentIo>, config: EngineConfig) -> StorageResult<Self> {
        // The snapshot is validated before the WAL's open-time repair touches any segment.
        let snapshot = io.read_snapshot()?.map(|image| decode_snapshot(&image)).transpose()?;
        let wal = WriteAheadLog::with_io(
            io.clone(),
            WalConfig {
                segment_max_bytes: config.segment_max_bytes,
                retention_budget_bytes: config.retention_budget_bytes,
            },
        )?;
        if snapshot.is_none() && wal.base_lsn() > 0 {
            // Only a checkpoint prunes the log, and it writes the snapshot first.
            return Err(StorageError::Corrupt(format!(
                "WAL starts after LSN {} but no snapshot covers the pruned records",
                wal.base_lsn()
            )));
        }
        let engine = Self {
            io,
            wal,
            inner: Mutex::new(EngineInner {
                map: snapshot.unwrap_or_default(),
                pending: HashMap::new(),
                closed: false,
            }),
            next_txn: AtomicU64::new(1),
            config,
            path: None,
        };
        engine.recover()?;
        Ok(engine)
    }

    /// Directory of a durable engine, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    // ----- recovery ----------------------------------------------------------------------------

    /// Replays committed WAL records over the snapshot.  Replaying records the snapshot already
    /// covers (a crash between the snapshot write and the prune, or segments retained for
    /// replication) is harmless: the log is replayed in order, so the last effect per key wins.
    /// Sealed segments are parsed in parallel across threads; the replay itself (and the
    /// active segment's tail) stays serial, in LSN order.
    fn recover(&self) -> StorageResult<()> {
        let start = std::time::Instant::now();
        let records = self.wal.read_all_parallel()?;
        if records.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        for (key, value) in replay_committed(&records) {
            inner.apply(key, value);
        }
        // Track transaction ids so new transactions do not collide with logged ones.
        let max_txn = records
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Begin { txn }
                | LogRecord::Commit { txn }
                | LogRecord::Abort { txn }
                | LogRecord::Put { txn, .. }
                | LogRecord::Delete { txn, .. } => Some(*txn),
                LogRecord::Checkpoint { .. } => None,
            })
            .max()
            .unwrap_or(0);
        self.next_txn.store(max_txn + 1, Ordering::SeqCst);
        seed_obs::global().histogram("wal_recovery_replay_us").observe_duration(start.elapsed());
        Ok(())
    }

    /// Locks the engine state, failing once the engine is closed.
    fn open_inner(&self) -> StorageResult<parking_lot::MutexGuard<'_, EngineInner>> {
        let inner = self.inner.lock();
        if inner.closed {
            return Err(StorageError::Closed);
        }
        Ok(inner)
    }

    // ----- public non-transactional API (auto-commit) ------------------------------------------

    /// Stores `value` under `key` in its own transaction.
    pub fn put(&self, key: &[u8], value: &[u8]) -> StorageResult<()> {
        let txn = self.begin()?;
        self.txn_put(txn, key, value)?;
        self.commit(txn)
    }

    /// Deletes `key` in its own transaction.
    pub fn delete(&self, key: &[u8]) -> StorageResult<()> {
        let txn = self.begin()?;
        self.txn_delete(txn, key)?;
        self.commit(txn)
    }

    /// Reads a little-endian `u64` cell stored under `key` — the shape of the durable
    /// single-value bookkeeping keys layered on the engine (a replica's applied-LSN cursor,
    /// a node's topology epoch).  Returns `default` when the key is absent or its value is
    /// not exactly eight bytes (a foreign key reused for a cell is treated as unset, not as
    /// corruption — the callers' recovery paths handle "unset" conservatively).
    pub fn get_u64_cell(&self, key: &[u8], default: u64) -> StorageResult<u64> {
        Ok(self
            .get(key)?
            .and_then(|bytes| <[u8; 8]>::try_from(bytes.as_slice()).ok().map(u64::from_le_bytes))
            .unwrap_or(default))
    }

    /// Reads the value stored under `key`.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.open_inner()?.map.get(key).cloned())
    }

    /// Whether `key` exists.
    pub fn contains(&self, key: &[u8]) -> StorageResult<bool> {
        Ok(self.open_inner()?.map.contains_key(key))
    }

    /// Returns all `(key, value)` pairs whose key starts with `prefix`, in key order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let inner = self.open_inner()?;
        Ok(inner
            .map
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    /// Returns all `(key, value)` pairs with `low <= key < high`, in key order (the ordered
    /// range scan backing keyed database loads).
    pub fn scan_range(&self, low: &[u8], high: &[u8]) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let inner = self.open_inner()?;
        if low >= high {
            return Ok(Vec::new());
        }
        Ok(inner
            .map
            .range::<[u8], _>((std::ops::Bound::Included(low), std::ops::Bound::Excluded(high)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the engine stores no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----- transactions -------------------------------------------------------------------------

    /// Begins a transaction.  Nothing reaches the WAL until commit: the transaction's effects
    /// are buffered and logged as one contiguous batch (group commit), so a transaction costs a
    /// single backend write and a single sync regardless of how many keys it touches — and an
    /// abort (or crash) before commit leaves no trace in the log at all.
    pub fn begin(&self) -> StorageResult<TxnId> {
        let mut inner = self.open_inner()?;
        let txn = self.next_txn.fetch_add(1, Ordering::SeqCst);
        inner.pending.insert(txn, Vec::new());
        Ok(txn)
    }

    /// Buffers a put inside transaction `txn`.
    pub fn txn_put(&self, txn: TxnId, key: &[u8], value: &[u8]) -> StorageResult<()> {
        self.buffer_effect(txn, key, Some(value.to_vec()))
    }

    /// Buffers a delete inside transaction `txn`.
    pub fn txn_delete(&self, txn: TxnId, key: &[u8]) -> StorageResult<()> {
        self.buffer_effect(txn, key, None)
    }

    fn buffer_effect(&self, txn: TxnId, key: &[u8], value: Option<Vec<u8>>) -> StorageResult<()> {
        self.open_inner()?
            .pending
            .get_mut(&txn)
            .ok_or_else(|| StorageError::InvalidArgument(format!("unknown transaction {txn}")))?
            .push((key.to_vec(), value));
        Ok(())
    }

    /// Reads a key as seen by transaction `txn` (its own writes win over the committed state).
    pub fn txn_get(&self, txn: TxnId, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        let inner = self.open_inner()?;
        // The latest buffered effect for this key, if any, wins.
        if let Some((_, v)) =
            inner.pending.get(&txn).and_then(|effects| effects.iter().rev().find(|(k, _)| k == key))
        {
            return Ok(v.clone());
        }
        Ok(inner.map.get(key).cloned())
    }

    /// Commits transaction `txn`: writes the transaction's `Begin`/effect/`Commit` frames to the
    /// WAL as one batch, forces the WAL once (if configured), and applies the buffered effects
    /// to the key space.  When the WAL has grown past the configured threshold, a checkpoint
    /// runs afterwards to bound recovery time.
    pub fn commit(&self, txn: TxnId) -> StorageResult<()> {
        let wal_bytes = {
            let mut inner = self.open_inner()?;
            let effects = inner.pending.remove(&txn).ok_or_else(|| {
                StorageError::InvalidArgument(format!("unknown transaction {txn}"))
            })?;
            let mut records = Vec::with_capacity(effects.len() + 2);
            records.push(LogRecord::Begin { txn });
            for (key, value) in &effects {
                records.push(match value {
                    Some(v) => LogRecord::Put { txn, key: key.clone(), value: v.clone() },
                    None => LogRecord::Delete { txn, key: key.clone() },
                });
            }
            records.push(LogRecord::Commit { txn });
            self.wal.append_batch(&records)?;
            self.wal.sync()?;
            for (key, value) in effects {
                inner.apply(key, value);
            }
            // The auto-checkpoint policy watches the *uncheckpointed* bytes, not the total:
            // segments retained for replication would otherwise re-trigger a checkpoint on
            // every commit.
            self.wal.uncheckpointed_bytes()?
        };
        if let Some(threshold) = self.config.checkpoint_wal_bytes {
            if wal_bytes >= threshold {
                // Best-effort: the transaction is already durable and applied, so a checkpoint
                // failure here (I/O error, concurrent close) must not be reported as a commit
                // failure — it only delays WAL truncation, and the next commit retries.
                let _ = self.checkpoint();
            }
        }
        Ok(())
    }

    /// Aborts transaction `txn`, discarding its buffered effects.  Nothing of the transaction
    /// was logged, so the abort costs no I/O.
    pub fn abort(&self, txn: TxnId) -> StorageResult<()> {
        self.open_inner()?
            .pending
            .remove(&txn)
            .ok_or_else(|| StorageError::InvalidArgument(format!("unknown transaction {txn}")))?;
        Ok(())
    }
    // ----- checkpoint / close -------------------------------------------------------------------

    /// Bytes currently held by the WAL (recovery replay work is proportional to this).
    pub fn wal_size_bytes(&self) -> StorageResult<u64> {
        self.wal.size_bytes()
    }

    /// Health probe for the write path: fsyncs the active WAL segment and reports whether the
    /// log is currently writable at all (a failing disk or a vanished directory surfaces
    /// here).  No-op `Ok` for in-memory logs.
    pub fn wal_probe(&self) -> StorageResult<()> {
        self.wal.sync()
    }

    // ----- replication feed ---------------------------------------------------------------------

    /// The absolute LSN of the last record in the WAL — the position a fully caught-up
    /// replication subscriber has applied.  Checkpoint-stable: truncation advances the log's
    /// base instead of resetting the numbering.
    pub fn durable_lsn(&self) -> Lsn {
        self.wal.durable_lsn()
    }

    /// The WAL tail from `from` (inclusive): the committed log records a replication subscriber
    /// at position `from - 1` still needs, or [`WalTail::Truncated`] when a checkpoint already
    /// truncated them away and the subscriber must resync from
    /// [`StorageEngine::snapshot_with_lsn`].
    pub fn wal_tail(&self, from: Lsn) -> StorageResult<WalTail> {
        self.wal.read_from(from)
    }

    /// Sets the oldest LSN a replication subscriber still needs (`None` = no subscribers).
    /// Checkpoints keep the sealed WAL segments covering it — within
    /// [`EngineConfig::retention_budget_bytes`] — so a lagging subscriber catches up from the
    /// log instead of a full snapshot.
    pub fn set_replication_retention(&self, floor: Option<Lsn>) {
        self.wal.set_retention_floor(floor);
    }

    /// Number of live WAL segment files (exposed for tests and benchmarks).
    pub fn wal_segment_count(&self) -> usize {
        self.wal.segment_count()
    }

    /// Every committed `(key, value)` pair plus the LSN the snapshot corresponds to, read
    /// atomically (commits hold the same lock while they append to the WAL and apply their
    /// effects, so the pairs and the LSN cannot tear).  This is the full-resync path for
    /// replication subscribers whose cursor fell behind a checkpoint.
    pub fn snapshot_with_lsn(&self) -> StorageResult<(KeySpaceDump, Lsn)> {
        let inner = self.open_inner()?;
        let pairs = inner.map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        Ok((pairs, self.wal.durable_lsn()))
    }

    /// Writes the whole key space as the new snapshot, then logs the checkpoint, syncs and
    /// prunes the WAL.  The snapshot replace is atomic ([`SegmentIo::write_snapshot`]) and
    /// precedes the prune, so a crash anywhere leaves a snapshot plus a log that together
    /// recover every committed transaction.
    pub fn checkpoint(&self) -> StorageResult<()> {
        let start = std::time::Instant::now();
        let inner = self.open_inner()?;
        self.io.write_snapshot(&encode_snapshot(&inner.map))?;
        self.wal.append(&LogRecord::Checkpoint { up_to: self.wal.next_lsn() })?;
        self.wal.sync()?;
        self.wal.truncate()?;
        let registry = seed_obs::global();
        registry.counter("wal_checkpoints_total").inc();
        registry.histogram("wal_checkpoint_us").observe_duration(start.elapsed());
        Ok(())
    }

    /// Checkpoints and marks the engine closed; further operations fail with
    /// [`StorageError::Closed`].
    pub fn close(&self) -> StorageResult<()> {
        self.checkpoint()?;
        self.inner.lock().closed = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory per call: the process id keeps concurrent test runs apart, the counter
    /// keeps this process's tests (threads of one binary) apart.
    pub(super) fn temp_dir(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("seed-engine-test-{}-{name}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_put_get_delete() {
        let engine = StorageEngine::in_memory().unwrap();
        assert!(engine.is_empty());
        engine.put(b"obj/Alarms", b"data object").unwrap();
        engine.put(b"obj/AlarmHandler", b"action object").unwrap();
        assert_eq!(engine.get(b"obj/Alarms").unwrap().unwrap(), b"data object");
        assert_eq!(engine.len(), 2);
        engine.delete(b"obj/Alarms").unwrap();
        assert_eq!(engine.get(b"obj/Alarms").unwrap(), None);
        assert!(!engine.contains(b"obj/Alarms").unwrap());
        assert!(engine.contains(b"obj/AlarmHandler").unwrap());
    }

    #[test]
    fn u64_cell_reads_defaults_and_round_trips() {
        let engine = StorageEngine::in_memory().unwrap();
        assert_eq!(engine.get_u64_cell(b"repl/applied", 0).unwrap(), 0, "absent reads default");
        engine.put(b"repl/applied", &42u64.to_le_bytes()).unwrap();
        assert_eq!(engine.get_u64_cell(b"repl/applied", 0).unwrap(), 42);
        engine.put(b"repl/applied", b"not eight bytes").unwrap();
        assert_eq!(engine.get_u64_cell(b"repl/applied", 7).unwrap(), 7, "bad shape reads default");
    }

    #[test]
    fn overwrite_updates_value() {
        let engine = StorageEngine::in_memory().unwrap();
        engine.put(b"k", b"v1").unwrap();
        engine.put(b"k", b"a much longer value than before so the record grows").unwrap();
        assert_eq!(
            engine.get(b"k").unwrap().unwrap(),
            b"a much longer value than before so the record grows"
        );
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn prefix_scan_orders_keys() {
        let engine = StorageEngine::in_memory().unwrap();
        engine.put(b"rel/2", b"two").unwrap();
        engine.put(b"obj/1", b"one").unwrap();
        engine.put(b"obj/3", b"three").unwrap();
        engine.put(b"obj/2", b"two").unwrap();
        let objs = engine.scan_prefix(b"obj/").unwrap();
        assert_eq!(objs.len(), 3);
        assert_eq!(objs[0].0, b"obj/1".to_vec());
        assert_eq!(objs[2].0, b"obj/3".to_vec());
    }

    #[test]
    fn transaction_isolation_until_commit() {
        let engine = StorageEngine::in_memory().unwrap();
        let txn = engine.begin().unwrap();
        engine.txn_put(txn, b"k", b"pending").unwrap();
        // Not visible to plain reads before commit.
        assert_eq!(engine.get(b"k").unwrap(), None);
        // Visible to the transaction itself.
        assert_eq!(engine.txn_get(txn, b"k").unwrap().unwrap(), b"pending");
        engine.commit(txn).unwrap();
        assert_eq!(engine.get(b"k").unwrap().unwrap(), b"pending");
    }

    #[test]
    fn abort_discards_effects() {
        let engine = StorageEngine::in_memory().unwrap();
        engine.put(b"stable", b"1").unwrap();
        let txn = engine.begin().unwrap();
        engine.txn_put(txn, b"volatile", b"x").unwrap();
        engine.txn_delete(txn, b"stable").unwrap();
        engine.abort(txn).unwrap();
        assert_eq!(engine.get(b"volatile").unwrap(), None);
        assert_eq!(engine.get(b"stable").unwrap().unwrap(), b"1");
        // The aborted transaction can no longer be used.
        assert!(engine.txn_put(txn, b"volatile", b"y").is_err());
    }

    #[test]
    fn durable_engine_recovers_after_reopen() {
        let dir = temp_dir("recover");
        {
            let engine = StorageEngine::open(&dir).unwrap();
            engine.put(b"obj/Alarms", b"alarm data").unwrap();
            engine.put(b"obj/Sensor", b"sensor action").unwrap();
            engine.delete(b"obj/Sensor").unwrap();
            // No checkpoint: recovery must come from the WAL alone.
        }
        {
            let engine = StorageEngine::open(&dir).unwrap();
            assert_eq!(engine.get(b"obj/Alarms").unwrap().unwrap(), b"alarm data");
            assert_eq!(engine.get(b"obj/Sensor").unwrap(), None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_engine_recovers_from_checkpoint_plus_wal() {
        let dir = temp_dir("checkpoint");
        {
            let engine = StorageEngine::open(&dir).unwrap();
            for i in 0..100u32 {
                engine
                    .put(format!("key/{i:03}").as_bytes(), format!("value {i}").as_bytes())
                    .unwrap();
            }
            engine.checkpoint().unwrap();
            // Post-checkpoint mutations only in the WAL.
            engine.put(b"key/100", b"after checkpoint").unwrap();
            engine.delete(b"key/000").unwrap();
        }
        {
            let engine = StorageEngine::open(&dir).unwrap();
            assert_eq!(engine.get(b"key/001").unwrap().unwrap(), b"value 1");
            assert_eq!(engine.get(b"key/100").unwrap().unwrap(), b"after checkpoint");
            assert_eq!(engine.get(b"key/000").unwrap(), None);
            assert_eq!(engine.len(), 100);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_transaction_is_not_recovered() {
        let dir = temp_dir("uncommitted");
        {
            let engine = StorageEngine::open(&dir).unwrap();
            engine.put(b"committed", b"yes").unwrap();
            let txn = engine.begin().unwrap();
            engine.txn_put(txn, b"uncommitted", b"no").unwrap();
            // Simulated crash: engine dropped without commit.
        }
        {
            let engine = StorageEngine::open(&dir).unwrap();
            assert_eq!(engine.get(b"committed").unwrap().unwrap(), b"yes");
            assert_eq!(engine.get(b"uncommitted").unwrap(), None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn closed_engine_rejects_operations() {
        let engine = StorageEngine::in_memory().unwrap();
        engine.put(b"a", b"1").unwrap();
        engine.close().unwrap();
        assert!(matches!(engine.put(b"b", b"2"), Err(StorageError::Closed)));
        assert!(matches!(engine.get(b"a"), Err(StorageError::Closed)));
        assert!(matches!(engine.begin(), Err(StorageError::Closed)));
    }

    #[test]
    fn unknown_transaction_rejected() {
        let engine = StorageEngine::in_memory().unwrap();
        assert!(engine.commit(999).is_err());
        assert!(engine.abort(999).is_err());
        assert!(engine.txn_put(999, b"k", b"v").is_err());
    }

    #[test]
    fn scan_range_returns_half_open_interval() {
        let engine = StorageEngine::in_memory().unwrap();
        for key in ["o/1", "o/2", "o/3", "r/1", "v/1"] {
            engine.put(key.as_bytes(), key.as_bytes()).unwrap();
        }
        let hits = engine.scan_range(b"o/", b"o/\xff").unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].0, b"o/1".to_vec());
        assert_eq!(hits[2].0, b"o/3".to_vec());
        let hits = engine.scan_range(b"o/2", b"r/2").unwrap();
        assert_eq!(
            hits.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            vec![b"o/2".to_vec(), b"o/3".to_vec(), b"r/1".to_vec()]
        );
        assert!(engine.scan_range(b"z", b"zz").unwrap().is_empty());
    }

    #[test]
    fn wal_growth_triggers_automatic_checkpoint() {
        let dir = temp_dir("auto-checkpoint");
        {
            let config =
                EngineConfig { checkpoint_wal_bytes: Some(512), ..EngineConfig::default() };
            let engine = StorageEngine::open_with(&dir, config).unwrap();
            for i in 0..32u32 {
                engine.put(format!("k/{i:03}").as_bytes(), &[0xAB; 64]).unwrap();
            }
            // Each put is ~90 bytes of WAL, so the 512-byte threshold has fired several times.
            assert!(
                engine.wal_size_bytes().unwrap() < 512,
                "WAL stays bounded by the checkpoint policy"
            );
            // No explicit checkpoint/close: recovery must come from snapshot + short WAL.
        }
        {
            let engine = StorageEngine::open(&dir).unwrap();
            assert_eq!(engine.len(), 32);
            assert_eq!(engine.get(b"k/031").unwrap().unwrap(), vec![0xAB; 64]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_transactions_write_no_wal_frames() {
        let engine = StorageEngine::in_memory().unwrap();
        let txn = engine.begin().unwrap();
        engine.txn_put(txn, b"k", b"v").unwrap();
        engine.abort(txn).unwrap();
        assert_eq!(engine.wal_size_bytes().unwrap(), 0, "abort leaves no trace in the log");
        let txn = engine.begin().unwrap();
        engine.txn_put(txn, b"k", b"v").unwrap();
        assert_eq!(engine.wal_size_bytes().unwrap(), 0, "effects are buffered until commit");
        engine.commit(txn).unwrap();
        assert!(engine.wal_size_bytes().unwrap() > 0);
    }

    #[test]
    fn segmented_wal_rotates_and_recovers_across_reopen() {
        let dir = temp_dir("segmented");
        {
            let config = EngineConfig {
                segment_max_bytes: 256,
                checkpoint_wal_bytes: None,
                ..EngineConfig::default()
            };
            let engine = StorageEngine::open_with(&dir, config).unwrap();
            for i in 0..40u32 {
                engine.put(format!("k/{i:03}").as_bytes(), &[0xCD; 48]).unwrap();
            }
            assert!(engine.wal_segment_count() > 1, "commits rotated into multiple segments");
            // No checkpoint/close: recovery replays all segments (in parallel) on reopen.
        }
        {
            let engine = StorageEngine::open(&dir).unwrap();
            assert_eq!(engine.len(), 40);
            assert_eq!(engine.get(b"k/039").unwrap().unwrap(), vec![0xCD; 48]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_the_wal_tail_for_subscribers_across_a_checkpoint() {
        let engine = StorageEngine::in_memory().unwrap();
        for i in 0..20u32 {
            engine.put(format!("k/{i:02}").as_bytes(), b"v").unwrap();
        }
        let cursor = engine.durable_lsn() - 10; // a lagging subscriber's next LSN
        engine.set_replication_retention(Some(cursor));
        engine.checkpoint().unwrap();
        match engine.wal_tail(cursor).unwrap() {
            WalTail::Records(recs) => {
                assert_eq!(recs.first().map(|(l, _)| *l), Some(cursor));
            }
            other => panic!("retained tail expected, got {other:?}"),
        }
        // Without subscribers the next checkpoint prunes the retained segments.
        engine.set_replication_retention(None);
        engine.checkpoint().unwrap();
        assert!(matches!(engine.wal_tail(cursor).unwrap(), WalTail::Truncated { .. }));
        assert_eq!(engine.wal_size_bytes().unwrap(), 0);
    }

    #[test]
    fn many_keys_round_trip_through_checkpoint() {
        let dir = temp_dir("many");
        {
            let engine = StorageEngine::open(&dir).unwrap();
            for i in 0..2000u32 {
                engine
                    .put(format!("obj/{i:05}").as_bytes(), vec![(i % 251) as u8; 64].as_slice())
                    .unwrap();
            }
            engine.checkpoint().unwrap();
        }
        {
            let engine = StorageEngine::open(&dir).unwrap();
            assert_eq!(engine.len(), 2000);
            assert_eq!(engine.get(b"obj/01999").unwrap().unwrap(), vec![(1999 % 251) as u8; 64]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_directory_holds_only_wal_segments_and_the_snapshot() {
        let dir = temp_dir("layout");
        let engine = StorageEngine::open(&dir).unwrap();
        engine.put(b"k", b"v").unwrap();
        engine.checkpoint().unwrap();
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
            let engine = StorageEngine::open(&dir).unwrap();
            engine.put(b"big/wal", &big).unwrap();
            engine.checkpoint().unwrap();
            engine.put(b"big/after", &big).unwrap();
        }
        let engine = StorageEngine::open(&dir).unwrap();
        assert_eq!(engine.get(b"big/wal").unwrap().unwrap(), big);
        assert_eq!(engine.get(b"big/after").unwrap().unwrap(), big);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpointed directory plus its snapshot image.
    fn checkpointed_dir(name: &str) -> (PathBuf, Vec<u8>) {
        let dir = temp_dir(name);
        let engine = StorageEngine::open(&dir).unwrap();
        engine.put(b"obj/Alarms", b"alarm data").unwrap();
        engine.put(b"obj/Sensor", b"").unwrap();
        engine.checkpoint().unwrap();
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
        assert_eq!(StorageEngine::open(&dir).unwrap().len(), 2, "the intact image still opens");
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

    #[test]
    fn snapshot_codec_rejects_unsorted_keys() {
        let mut map = BTreeMap::new();
        map.insert(b"a".to_vec(), b"1".to_vec());
        map.insert(b"b".to_vec(), b"2".to_vec());
        assert_eq!(decode_snapshot(&encode_snapshot(&map)).unwrap(), map);
        // Well framed, correctly checksummed, but out of key order.
        let mut e = Encoder::new();
        e.put_raw(SNAPSHOT_MAGIC).put_u64(2);
        e.put_bytes(b"b").put_bytes(b"2").put_bytes(b"a").put_bytes(b"1");
        let crc = crc32(e.as_slice());
        e.put_u32(crc);
        assert!(matches!(decode_snapshot(&e.finish()), Err(StorageError::Corrupt(_))));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
            let engine = StorageEngine::in_memory().unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (key, value, is_delete) in ops {
                if is_delete {
                    engine.delete(&key).unwrap();
                    model.remove(&key);
                } else {
                    engine.put(&key, &value).unwrap();
                    model.insert(key.clone(), value);
                }
            }
            prop_assert_eq!(engine.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(engine.get(k).unwrap().unwrap(), v.clone());
            }
            let scanned = engine.scan_prefix(b"").unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
            prop_assert_eq!(scanned, expected);
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
        /// The durable variant: a directory-backed engine with a small auto-checkpoint
        /// threshold and segment cap (so checkpoints, rotations and prunes fire constantly)
        /// must agree with the model after every reopen, whatever mix of value sizes and
        /// overwrites came before.
        #[test]
        fn durable_engine_matches_btreemap_model(
            steps in proptest::collection::vec(arb_step(), 1..400)
        ) {
            let dir = super::tests::temp_dir("model");
            let config = EngineConfig {
                checkpoint_wal_bytes: Some(4096),
                segment_max_bytes: 1024,
                ..EngineConfig::default()
            };
            let mut engine = StorageEngine::open_with(&dir, config.clone()).unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Put(key, value) => {
                        engine.put(&key, &value).unwrap_or_else(|e| panic!("step {i}: put: {e}"));
                        model.insert(key, value);
                    }
                    Step::Delete(key) => {
                        engine.delete(&key).unwrap_or_else(|e| panic!("step {i}: delete: {e}"));
                        model.remove(&key);
                    }
                    Step::Checkpoint => engine.checkpoint().unwrap(),
                    Step::Reopen => {
                        drop(engine);
                        engine = StorageEngine::open_with(&dir, config.clone()).unwrap();
                        let scanned = engine.scan_prefix(b"").unwrap();
                        let expected: Vec<(Vec<u8>, Vec<u8>)> =
                            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                        prop_assert_eq!(scanned, expected);
                    }
                }
            }
            drop(engine);
            let engine = StorageEngine::open_with(&dir, config).unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
            prop_assert_eq!(engine.scan_prefix(b"").unwrap(), expected);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
