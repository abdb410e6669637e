//! The replica side of WAL-shipping replication: a durable store rebuilt from a primary's
//! shipped log records.
//!
//! A [`ReplicaStore`] owns its **own** storage engine (its own pages, WAL and checkpoints) and
//! applies batches of the primary's [`LogRecord`]s through the same machinery PR 3's restart
//! recovery uses: [`replay_committed`] reduces a batch to committed key effects, the effects
//! commit as **one** local storage transaction together with the new cursor position, and
//! [`ReplicaStore::load`] rebuilds a serving [`Database`] with the keyed range scans and index
//! rebuild of [`crate::durability`].  Because the applied-LSN cursor rides in the same
//! transaction as the effects it covers, a crash mid-batch loses the whole batch or nothing:
//! on reopen the replica resumes from its last durable LSN and re-requests exactly the records
//! it lost.
//!
//! Two batch shapes exist (see `docs/PROTOCOL.md` for the wire contract):
//!
//! * **incremental** — the primary's WAL tail since the replica's cursor; applied on top of the
//!   current keys;
//! * **reset** — a full keyed snapshot (shipped when the replica's cursor fell behind a primary
//!   checkpoint, or when the replica is empty and the primary's WAL no longer reaches back to
//!   LSN 1); the store's keys are cleared and rebuilt in the same transaction.
//!
//! The store never mutates through [`Database`] write paths — replicas are read-only by
//! construction.  The serving database they load is plain in-memory state; an incremental
//! batch's committed effects can be patched onto it in O(delta) with
//! [`ReplicaStore::apply_to_database`] (reset batches reload wholesale).

use std::path::Path;

use seed_storage::wal::replay_committed;
use seed_storage::{KeyEffect, LogRecord, Lsn, StorageEngine};

use crate::codec;
use crate::database::Database;
use crate::durability;
use crate::error::{SeedError, SeedResult};
use crate::ident::ItemId;
use crate::store::{ObjectChange, RelationshipChange};

/// Key holding the replica's durable cursor: the last primary LSN whose effects are committed
/// locally.  Outside every per-item prefix (`o/`, `r/`, `s/`, `vi/`, `v/`, `d/`, `meta`), so
/// the keyed loader never sees it.
const KEY_APPLIED: &[u8] = b"repl/applied";

/// A replica's durable store: the local mirror of a primary's per-item key space plus the
/// cursor of how far into the primary's WAL that mirror reaches.
pub struct ReplicaStore {
    engine: StorageEngine,
    applied: Lsn,
}

impl ReplicaStore {
    /// Opens (or creates) a replica store in `dir`, running the engine's normal restart
    /// recovery.  A fresh directory starts at cursor 0 — the first subscription asks the
    /// primary for everything.
    pub fn open(dir: impl AsRef<Path>) -> SeedResult<Self> {
        let engine = StorageEngine::open(dir)?;
        let applied = engine.get_u64_cell(KEY_APPLIED, 0)?;
        Ok(Self { engine, applied })
    }

    /// The last primary LSN whose effects are durable locally (0 = nothing applied yet).
    pub fn applied_lsn(&self) -> Lsn {
        self.applied
    }

    /// Whether at least one batch carrying the primary's `meta` record has been applied — i.e.
    /// whether [`ReplicaStore::load`] can produce a database.
    pub fn is_initialized(&self) -> SeedResult<bool> {
        Ok(self.engine.contains(codec::KEY_META)?)
    }

    /// Directory of the store.
    pub fn path(&self) -> Option<&Path> {
        self.engine.path()
    }

    /// Bytes currently in the replica's own WAL (bounded by the engine's auto-checkpoint).
    pub fn wal_bytes(&self) -> u64 {
        self.engine.wal_size_bytes().unwrap_or(0)
    }

    /// Applies one shipped batch as **one** local storage transaction: the committed key
    /// effects of `records` (uncommitted transactions are discarded, exactly as restart
    /// recovery would) plus the new cursor `up_to`.  With `reset`, every existing key is
    /// deleted first — the snapshot-resync path — in the same transaction, so a crash
    /// mid-resync leaves the old state intact.
    ///
    /// Returns the committed key effects, so that a caller serving reads can patch its
    /// in-memory database with [`ReplicaStore::apply_to_database`] — O(delta) — instead of
    /// rebuilding it with [`ReplicaStore::load`] — O(database).
    pub fn apply(
        &mut self,
        records: &[LogRecord],
        up_to: Lsn,
        reset: bool,
    ) -> SeedResult<Vec<KeyEffect>> {
        let numbered: Vec<(Lsn, LogRecord)> =
            records.iter().cloned().enumerate().map(|(i, r)| (i as Lsn + 1, r)).collect();
        let effects = replay_committed(&numbered);
        let txn = self.engine.begin()?;
        if reset {
            for (key, _) in self.engine.scan_prefix(b"")? {
                self.engine.txn_delete(txn, &key)?;
            }
        }
        for (key, value) in &effects {
            match value {
                Some(v) => self.engine.txn_put(txn, key, v)?,
                None => self.engine.txn_delete(txn, key)?,
            }
        }
        self.engine.txn_put(txn, KEY_APPLIED, &up_to.to_le_bytes())?;
        self.engine.commit(txn)?;
        self.applied = up_to;
        Ok(effects)
    }

    /// Rebuilds a serving [`Database`] from the store — the PR 3 recovery path: one keyed range
    /// scan per record kind, then an in-memory index rebuild.  The returned database is plain
    /// in-memory state (replicas never write through it); call again after applying a batch.
    pub fn load(&self) -> SeedResult<Database> {
        if !self.is_initialized()? {
            return Err(SeedError::NotFound(
                "replica store holds no database yet (no batch applied)".to_string(),
            ));
        }
        durability::load_keyed(&self.engine)
    }

    /// Patches a previously loaded serving database with the key effects one incremental batch
    /// committed — the O(delta) alternative to calling [`ReplicaStore::load`] again.  Index
    /// maintenance rides on the store's ordinary mutators, so the patched database matches a
    /// fresh [`ReplicaStore::load`] of the post-batch store exactly.  Returns the number of
    /// per-item records touched (the replica's staleness/cost observable).
    ///
    /// Only valid for **incremental** batches applied on top of the state `db` was loaded
    /// from; after a **reset** batch, reload wholesale instead.
    pub fn apply_to_database(&self, db: &mut Database, effects: &[KeyEffect]) -> SeedResult<usize> {
        // Decode the per-item effects up front, partitioned by record kind.
        let mut objects: Vec<ObjectChange> = Vec::new();
        let mut relationships: Vec<RelationshipChange> = Vec::new();
        let mut dirty_marks: Vec<(ItemId, bool)> = Vec::new();
        let mut schemas_changed = false;
        let mut versions_changed = false;
        let mut meta_changed = false;
        for (key, value) in effects {
            if key.starts_with(codec::PREFIX_OBJECT) {
                let id = codec::parse_object_key(key)?;
                let entry = value.as_deref().map(codec::decode_object_entry).transpose()?;
                objects.push((id, entry));
            } else if key.starts_with(codec::PREFIX_RELATIONSHIP) {
                let id = codec::parse_relationship_key(key)?;
                let entry = value.as_deref().map(codec::decode_relationship_entry).transpose()?;
                relationships.push((id, entry));
            } else if key.starts_with(codec::PREFIX_DIRTY) {
                dirty_marks.push((codec::parse_dirty_key(key)?, value.is_some()));
            } else if key.starts_with(codec::PREFIX_SCHEMA) {
                schemas_changed = true;
            } else if key.starts_with(codec::PREFIX_VERSION_INFO)
                || key.starts_with(codec::PREFIX_VERSION_DELTA)
            {
                versions_changed = true;
            } else if key.as_slice() == codec::KEY_META {
                meta_changed = true;
            }
            // Anything else (the repl/ cursor) carries no database state.
        }
        let touched = objects.len() + relationships.len();
        let store = db.store_mut();
        store.apply_changes(objects, relationships);
        // The shipped dirty markers override whatever the mutators above flagged: the replica
        // mirrors the primary's persisted dirty set, not its own apply work.
        for (item, dirty) in dirty_marks {
            store.sync_dirty_mark(item, dirty);
        }

        // Rare, coarse-grained state reloads straight from the (already committed) engine:
        // schema publishes and version creations rescan exactly their own key ranges.
        if meta_changed || schemas_changed || versions_changed {
            let meta = durability::load_meta(&self.engine)?;
            let store = db.store_mut();
            store.raise_id_floor(meta.object_floor, meta.relationship_floor);
            if schemas_changed || db.parts().0.current_id() != meta.current_schema {
                db.set_schemas(durability::load_schemas(&self.engine, meta.current_schema)?);
            }
            if versions_changed
                || db.parts().2.seq() != meta.version_seq
                || db.parts().2.last_created() != meta.last_created.as_ref()
            {
                db.set_versions(durability::load_versions(&self.engine, &meta)?);
            }
            db.set_transition_rules(meta.rules);
        }
        Ok(touched)
    }

    /// Checkpoints the replica's own engine (write its snapshot, prune its local WAL).  The engine
    /// also does this automatically past its WAL threshold; replication correctness does not
    /// depend on it — the cursor lives in the keyed state, not the local WAL.
    pub fn checkpoint(&self) -> SeedResult<()> {
        Ok(self.engine.checkpoint()?)
    }

    /// The topology epoch recorded in the mirrored meta record (0 for an uninitialized store
    /// or a pre-promotion primary's state).  A `ReplicaNode` re-pointed at a new primary
    /// compares this against the promotion epoch to decide whether its local state may be
    /// continued incrementally or must be resynced from a snapshot.
    pub fn topology_epoch(&self) -> SeedResult<u64> {
        match self.engine.get(codec::KEY_META)? {
            Some(bytes) => Ok(codec::decode_meta(&bytes)?.epoch),
            None => Ok(0),
        }
    }

    /// Promotion: consumes the replica store and turns its directory into a **durable primary**
    /// at topology epoch `epoch` — reusing the engine, pages and segmented WAL in place, no
    /// data copy.  In one local transaction the replication cursor key is deleted (the
    /// directory stops being a replica store; a later [`ReplicaStore::open`] on it reads cursor
    /// 0, which forces the snapshot resync path on rejoin-as-replica) and the meta record is
    /// rewritten with the new epoch and no fence.  Then the keyed state is loaded exactly as
    /// [`Database::open_durable`] would and write-through durability is attached.
    ///
    /// The caller is responsible for having drained the shipped tail first: records the old
    /// primary committed but never shipped here are lost by design (they were never
    /// acknowledged to this node).
    pub fn into_primary(self, epoch: u64) -> SeedResult<Database> {
        let txn = self.engine.begin()?;
        self.engine.txn_delete(txn, KEY_APPLIED)?;
        let mut meta = durability::load_meta(&self.engine)?;
        meta.epoch = epoch;
        meta.fenced_to = None;
        self.engine.txn_put(txn, codec::KEY_META, &codec::encode_meta(&meta))?;
        self.engine.commit(txn)?;
        let mut db = durability::load_keyed(&self.engine)?;
        db.attach_durability(self.engine);
        Ok(db)
    }
}

impl std::fmt::Debug for ReplicaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaStore")
            .field("path", &self.engine.path())
            .field("applied", &self.applied)
            .finish()
    }
}

/// Builds the reset-batch record list from a primary snapshot: one synthetic committed
/// transaction (`Begin`, one `Put` per key, `Commit`) that rebuilds the whole key space.  Kept
/// next to [`ReplicaStore::apply`] so the two sides of the snapshot contract stay in one file.
pub fn snapshot_records(pairs: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<LogRecord> {
    let mut records = Vec::with_capacity(pairs.len() + 2);
    records.push(LogRecord::Begin { txn: 0 });
    for (key, value) in pairs {
        records.push(LogRecord::Put { txn: 0, key, value });
    }
    records.push(LogRecord::Commit { txn: 0 });
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::test_support::{assert_same_state, temp_dir};
    use crate::value::Value;
    use seed_schema::figure3_schema;
    use seed_storage::WalTail;

    fn tail_records(db: &Database, from: Lsn) -> (Vec<LogRecord>, Lsn) {
        match db.wal_tail(from).unwrap() {
            WalTail::Records(recs) => {
                let up_to = recs.last().map(|(l, _)| *l).unwrap_or(from - 1);
                (recs.into_iter().map(|(_, r)| r).collect(), up_to)
            }
            WalTail::Truncated { .. } => panic!("tail unexpectedly truncated"),
        }
    }

    #[test]
    fn incremental_shipping_converges_to_the_primary_state() {
        let primary_dir = temp_dir("repl-primary");
        let replica_dir = temp_dir("repl-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let alarms = primary.create_object("Data", "Alarms").unwrap();
        let sensor = primary.create_object("Action", "Sensor").unwrap();
        primary.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(replica.applied_lsn(), 0);
        assert!(!replica.is_initialized().unwrap());
        assert!(replica.load().is_err(), "no batch applied yet");

        // First batch: the whole WAL from LSN 1 (the primary never checkpointed).
        let (records, up_to) = tail_records(&primary, 1);
        replica.apply(&records, up_to, false).unwrap();
        assert_eq!(replica.applied_lsn(), up_to);
        assert_same_state(&replica.load().unwrap(), &primary, true);

        // Incremental batch on top: only the new records ship.
        let desc = primary.create_dependent(sensor, "Description", Value::string("v1")).unwrap();
        primary.set_value(desc, Value::string("v2")).unwrap();
        let (records, new_up_to) = tail_records(&primary, up_to + 1);
        assert!(!records.is_empty());
        replica.apply(&records, new_up_to, false).unwrap();
        assert_same_state(&replica.load().unwrap(), &primary, true);

        // Cursor is durable: reopening the store resumes where it left off.
        drop(replica);
        let replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(replica.applied_lsn(), new_up_to);
        assert_same_state(&replica.load().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn checkpoint_truncation_forces_a_snapshot_resync_that_converges() {
        let primary_dir = temp_dir("repl-ckpt-primary");
        let replica_dir = temp_dir("repl-ckpt-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Before").unwrap();
        // The checkpoint truncates the WAL: LSN 1 is gone, an empty replica cannot catch up
        // incrementally.
        primary.checkpoint().unwrap();
        primary.create_object("Data", "After").unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        match primary.wal_tail(replica.applied_lsn() + 1).unwrap() {
            WalTail::Truncated { oldest } => assert!(oldest > 1),
            other => panic!("expected truncation, got {other:?}"),
        }
        // Resync from the snapshot, as the primary's session loop would.
        let (pairs, lsn) = primary.replication_snapshot().unwrap();
        replica.apply(&snapshot_records(pairs), lsn, true).unwrap();
        assert_eq!(replica.applied_lsn(), lsn);
        assert_same_state(&replica.load().unwrap(), &primary, true);

        // And incremental shipping continues cleanly after the reset.
        primary.create_object("Action", "Later").unwrap();
        let (records, up_to) = tail_records(&primary, lsn + 1);
        replica.apply(&records, up_to, false).unwrap();
        assert_same_state(&replica.load().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn reset_clears_stale_keys_the_snapshot_no_longer_contains() {
        let primary_dir = temp_dir("repl-reset-primary");
        let replica_dir = temp_dir("repl-reset-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let doomed = primary.create_object("Data", "Doomed").unwrap();
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, up_to) = tail_records(&primary, 1);
        replica.apply(&records, up_to, false).unwrap();
        assert!(replica.load().unwrap().object_by_name("Doomed").is_ok());

        // The primary physically removes the object's key space... (delete marks it deleted;
        // exercise the reset path with a checkpoint + fresh snapshot instead).
        primary.delete_object(doomed).unwrap();
        primary.checkpoint().unwrap();
        let (pairs, lsn) = primary.replication_snapshot().unwrap();
        replica.apply(&snapshot_records(pairs), lsn, true).unwrap();
        assert_same_state(&replica.load().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// The satellite crash test: a replica killed mid-`LogBatch` apply loses the whole batch
    /// (its local transaction never committed), reopens at its last durable LSN, re-requests
    /// the lost records and converges to the primary's keyed-scan state.
    #[test]
    fn crash_mid_batch_resumes_from_last_durable_lsn_and_converges() {
        let primary_dir = temp_dir("repl-crash-primary");
        let replica_dir = temp_dir("repl-crash-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Stable").unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, batch1_lsn) = tail_records(&primary, 1);
        replica.apply(&records, batch1_lsn, false).unwrap();
        drop(replica);

        // Batch 2 exists on the primary...
        primary.create_object("Data", "InFlight").unwrap();
        let (batch2, batch2_lsn) = tail_records(&primary, batch1_lsn + 1);

        // ...and the replica crashes mid-apply: its local group-commit write is torn.  Simulate
        // by applying the batch and then tearing the tail of the replica's own WAL — the
        // batch's single commit frame never became fully durable.
        {
            let mut replica = ReplicaStore::open(&replica_dir).unwrap();
            replica.apply(&batch2, batch2_lsn, false).unwrap();
        }
        // The tail of the log lives in the newest `wal.*.seg` segment file.
        let wal_path = std::fs::read_dir(&replica_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("wal.") && name.ends_with(".seg")
            })
            .max()
            .expect("segmented WAL present");
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

        // Reopen: the torn batch is gone in full, the cursor is back at batch 1.
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(
            replica.applied_lsn(),
            batch1_lsn,
            "the torn batch must roll back atomically, cursor included"
        );
        assert!(replica.load().unwrap().object_by_name("InFlight").is_err());

        // Re-request from the durable cursor and converge.
        let (records, up_to) = tail_records(&primary, replica.applied_lsn() + 1);
        replica.apply(&records, up_to, false).unwrap();
        assert_eq!(up_to, batch2_lsn);
        assert_same_state(&replica.load().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// The tentpole's replica half: patching the serving database with a batch's committed
    /// effects yields exactly the database a wholesale reload would, while touching only
    /// O(delta) items — including across renames, deletes, rollbacks and version creation.
    #[test]
    fn incremental_apply_to_database_matches_a_wholesale_reload() {
        let primary_dir = temp_dir("repl-incr-primary");
        let replica_dir = temp_dir("repl-incr-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let alarms = primary.create_object("Data", "Alarms").unwrap();
        let sensor = primary.create_object("Action", "Sensor").unwrap();
        primary.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, mut cursor) = tail_records(&primary, 1);
        replica.apply(&records, cursor, false).unwrap();
        let mut serving = replica.load().unwrap();

        // A sequence of batches exercising every record kind; after each one, the patched
        // database must equal a fresh reload, and the touched count must stay O(delta).
        type Mutation = Box<dyn Fn(&mut Database)>;
        let mutate: Vec<Mutation> = vec![
            Box::new(|db| {
                let s = db.object_by_name("Sensor").unwrap().id;
                db.create_dependent(s, "Description", Value::string("v1")).unwrap();
            }),
            // Cross-item rename swap within one transaction (one shipped batch).
            Box::new(|db| {
                let a = db.object_by_name("Alarms").unwrap().id;
                let s = db.object_by_name("Sensor").unwrap().id;
                db.begin_transaction().unwrap();
                db.rename_object(a, "Stash").unwrap();
                db.rename_object(s, "Alarms").unwrap();
                db.rename_object(a, "Sensor").unwrap();
                db.commit_transaction().unwrap();
            }),
            Box::new(|db| {
                db.create_version("checkpointed cut").unwrap();
            }),
            Box::new(|db| {
                let victim = db.create_object("Data", "ShortLived").unwrap();
                db.delete_object(victim).unwrap();
            }),
        ];
        for mutate in mutate {
            mutate(&mut primary);
            let (records, up_to) = tail_records(&primary, cursor + 1);
            let effects = replica.apply(&records, up_to, false).unwrap();
            cursor = up_to;
            let touched = replica.apply_to_database(&mut serving, &effects).unwrap();
            assert!(touched <= 8, "batch touched {touched} items, expected O(delta)");
            assert_same_state(&serving, &replica.load().unwrap(), true);
            assert_same_state(&serving, &primary, true);
        }
        assert_eq!(serving.versions().len(), 1);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// The promotion flip: a synced replica store becomes a writable durable primary in place
    /// (no data copy), carrying the promotion epoch in its meta; reopening the same directory
    /// as a replica store afterwards reads cursor 0 — the signature that forces a snapshot
    /// resync instead of continuing in a foreign LSN space.
    #[test]
    fn into_primary_flips_the_store_in_place_and_resets_the_cursor() {
        let primary_dir = temp_dir("repl-flip-primary");
        let replica_dir = temp_dir("repl-flip-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Survivor").unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, up_to) = tail_records(&primary, 1);
        replica.apply(&records, up_to, false).unwrap();
        assert_eq!(replica.topology_epoch().unwrap(), 0);

        let mut promoted = replica.into_primary(7).unwrap();
        assert!(promoted.is_durable(), "the flipped store writes through");
        assert_eq!(promoted.topology_epoch(), 7);
        assert_eq!(promoted.fenced_to(), None);
        assert!(promoted.object_by_name("Survivor").is_ok(), "no data was lost in the flip");
        promoted.create_object("Data", "PostPromotion").unwrap();
        drop(promoted);

        // The directory now recovers as an ordinary durable primary...
        let reopened = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(reopened.topology_epoch(), 7);
        assert!(reopened.object_by_name("PostPromotion").is_ok());
        drop(reopened);

        // ...and reopening it as a replica store reads cursor 0 with state present — the
        // former-primary signature that demotion-to-replica resyncs from a snapshot.
        let rejoined = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(rejoined.applied_lsn(), 0);
        assert!(rejoined.is_initialized().unwrap());
        assert_eq!(rejoined.topology_epoch().unwrap(), 7);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn versions_and_schema_ship_like_any_other_record() {
        let primary_dir = temp_dir("repl-versions-primary");
        let replica_dir = temp_dir("repl-versions-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let handler = primary.create_object("Action", "AlarmHandler").unwrap();
        let desc = primary.create_dependent(handler, "Description", Value::string("v1")).unwrap();
        let v1 = primary.create_version("first").unwrap();
        primary.set_value(desc, Value::string("v2")).unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, up_to) = tail_records(&primary, 1);
        replica.apply(&records, up_to, false).unwrap();
        let mut loaded = replica.load().unwrap();
        assert_eq!(loaded.versions().len(), 1);
        loaded.select_version(Some(v1)).unwrap();
        assert_eq!(loaded.object(desc).unwrap().value, Value::string("v1"));
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }
}
