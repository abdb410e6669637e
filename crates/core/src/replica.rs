//! The replica side of WAL-shipping replication: a durable store rebuilt from a primary's
//! shipped commits.
//!
//! A [`ReplicaStore`] owns its **own** storage engine (its own WAL and checkpoints) and the
//! database it mirrors.  A shipped batch of the primary's [`Commit`]s — each one WAL record,
//! whole by construction — is flattened into its key effects, in order, exactly as restart
//! recovery does, and decoded **completely** before anything is committed, so a batch that
//! fails to decode touches neither disk nor memory.  Then the effects and the new cursor
//! position commit as **one** local storage batch ([`StorageEngine::commit`]), and the applier
//! of [`crate::durability`] patches the mirrored database in O(delta).  Because the
//! applied-LSN cursor rides in the same commit as the effects it covers, a crash mid-batch
//! loses the whole batch or nothing: on reopen the replica resumes from its last durable LSN
//! and re-requests exactly the commits it lost.
//!
//! Two batch shapes exist (see `docs/PROTOCOL.md` for the wire contract):
//!
//! * **incremental** — the primary's WAL tail since the replica's cursor; applied on top of the
//!   mirrored database;
//! * **reset** — the primary's files from the start: its snapshot's commits, then its WAL
//!   tail past the snapshot ([`Database::replication_cut`]); shipped when the replica's cursor
//!   fell behind a primary checkpoint, or when the replica is empty and the primary's WAL no
//!   longer reaches back to LSN 1.  It is applied to a fresh database, exactly as restart
//!   recovery applies the same files, which the store writes as its own snapshot image —
//!   cursor included — in one atomic replace.
//!
//! The store never mutates through [`Database`] write paths — replicas are read-only by
//! construction.  A serving copy of the mirrored database ([`ReplicaStore::serving_copy`])
//! costs O(1).

use std::path::Path;

use seed_storage::{Commit, KeyEffect, Lsn, StorageEngine};

use crate::codec;
use crate::database::Database;
use crate::durability::{self, Changes};
use crate::error::{SeedError, SeedResult};

/// A replica's durable store: the mirrored database, its local WAL and snapshot, and the
/// cursor of how far into the primary's WAL the mirror reaches.
pub struct ReplicaStore {
    engine: StorageEngine,
    applied: Lsn,
    /// `None` until a batch carrying the primary's `meta` record has been applied.
    db: Option<Database>,
}

impl ReplicaStore {
    /// Opens (or creates) a replica store in `dir`, running the engine's normal restart
    /// recovery.  A fresh directory starts at cursor 0 — the first subscription asks the
    /// primary for everything.
    pub fn open(dir: impl AsRef<Path>) -> SeedResult<Self> {
        let (engine, recovered) = StorageEngine::open(dir)?;
        let applied = recovered
            .get(codec::KEY_APPLIED.as_bytes())
            .and_then(|bytes| <[u8; 8]>::try_from(bytes).ok())
            .map_or(0, u64::from_le_bytes);
        let db = match recovered.get(codec::KEY_META.as_bytes()) {
            Some(_) => Some(durability::recover(&recovered)?),
            None => None,
        };
        Ok(Self { engine, applied, db })
    }

    /// The last primary LSN whose effects are durable locally (0 = nothing applied yet).
    pub fn applied_lsn(&self) -> Lsn {
        self.applied
    }

    /// Whether at least one batch carrying the primary's `meta` record has been applied — i.e.
    /// whether the store mirrors a database.
    pub fn is_initialized(&self) -> bool {
        self.db.is_some()
    }

    /// The mirrored database, once initialized.
    pub fn database(&self) -> Option<&Database> {
        self.db.as_ref()
    }

    /// An O(1) copy of the mirrored database for serving reads (structure-shared; it never
    /// writes).
    pub fn serving_copy(&self) -> Option<Database> {
        self.db.as_ref().map(Database::clone_for_snapshot)
    }

    /// Applies one shipped batch: the key effects of `commits`, in order, plus the new cursor
    /// `up_to`.  The batch is decoded completely first; a batch that fails to decode changes
    /// nothing.  An incremental batch commits as **one** local storage batch and patches
    /// the mirrored database; with `reset`, the batch becomes a fresh database written as the
    /// store's own snapshot in one atomic replace, so a crash mid-resync leaves the old state
    /// intact.
    ///
    /// Returns the number of per-item records the batch changed (the replica's cost
    /// observable: O(delta) for incremental batches).
    pub fn apply(&mut self, commits: Vec<Commit>, up_to: Lsn, reset: bool) -> SeedResult<usize> {
        let effects: Vec<KeyEffect> = commits.into_iter().flat_map(|c| c.effects).collect();
        let known = self.db.as_ref().filter(|_| !reset).map(Database::schema_registry);
        let changes =
            Changes::decode(effects.iter().map(|(k, v)| (k.as_slice(), v.as_deref())), known)?;
        let items = changes.items();
        match self.db {
            Some(_) if !reset => {
                self.commit_effects(effects, up_to)?;
                changes.apply(self.db.as_mut().expect("matched above"));
            }
            _ => {
                let db = changes.into_database()?;
                if reset {
                    let lsn = self.engine.durable_lsn();
                    self.engine.checkpoint(&durability::encode_image(&db, lsn, Some(up_to)))?;
                } else {
                    self.commit_effects(effects, up_to)?;
                }
                self.db = Some(db);
            }
        }
        self.applied = up_to;
        if self.engine.checkpoint_due() {
            // A failure poisons the engine, which then refuses the next batch.
            let _ = self.checkpoint();
        }
        Ok(items)
    }

    /// Commits a batch's effects and the new cursor as one local storage batch.
    fn commit_effects(&self, mut effects: Vec<KeyEffect>, up_to: Lsn) -> SeedResult<()> {
        effects.push((codec::KEY_APPLIED.as_bytes().to_vec(), Some(up_to.to_le_bytes().to_vec())));
        Ok(self.engine.commit(effects)?)
    }

    /// Checkpoints the replica's own engine: the mirrored database and the cursor as one
    /// snapshot image, then the local WAL pruned.  [`ReplicaStore::apply`] does this whenever
    /// the local WAL outgrows its threshold; replication correctness does not depend on it —
    /// the cursor lives in the keyed state, not the local WAL.
    pub fn checkpoint(&self) -> SeedResult<()> {
        let db = self.db.as_ref().ok_or_else(not_initialized)?;
        let image = durability::encode_image(db, self.engine.durable_lsn(), Some(self.applied));
        Ok(self.engine.checkpoint(&image)?)
    }

    /// The topology epoch recorded in the mirrored meta record (0 for an uninitialized store
    /// or a pre-promotion primary's state).  A `ReplicaNode` re-pointed at a new primary
    /// compares this against the promotion epoch to decide whether its local state may be
    /// continued incrementally or must be resynced from a snapshot.
    pub fn topology_epoch(&self) -> u64 {
        self.db.as_ref().map_or(0, Database::topology_epoch)
    }

    /// Promotion: consumes the replica store and turns its directory into a **durable primary**
    /// at topology epoch `epoch` — reusing the engine, the mirrored database and the segmented
    /// WAL in place, no data copy.  In one local batch the replication cursor key is
    /// deleted (the directory stops being a replica store; a later [`ReplicaStore::open`] on it
    /// reads cursor 0, which forces the snapshot resync path on rejoin-as-replica) and the meta
    /// record is rewritten with the new epoch and no fence.  Then write-through durability is
    /// attached to the mirrored database.
    ///
    /// The caller is responsible for having drained the shipped tail first: records the old
    /// primary committed but never shipped here are lost by design (they were never
    /// acknowledged to this node).
    pub fn into_primary(self, epoch: u64) -> SeedResult<Database> {
        let mut db = self.db.ok_or_else(not_initialized)?;
        db.set_topology(epoch, None);
        let meta = durability::encode_meta(&db);
        self.engine.commit(vec![
            (codec::KEY_APPLIED.as_bytes().to_vec(), None),
            (codec::KEY_META.as_bytes().to_vec(), Some(meta.clone())),
        ])?;
        db.attach_durability(self.engine, meta);
        Ok(db)
    }
}

fn not_initialized() -> SeedError {
    SeedError::NotFound("replica store holds no database yet (no batch applied)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::test_support::{assert_same_state, encoder_pairs, temp_dir};
    use crate::value::Value;
    use seed_schema::figure3_schema;
    use seed_storage::WalTail;

    fn tail_records(db: &Database, from: Lsn) -> (Vec<Commit>, Lsn) {
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
        assert!(!replica.is_initialized());
        assert!(replica.database().is_none(), "no batch applied yet");

        // First batch: the whole WAL from LSN 1 (the primary never checkpointed).
        let (records, up_to) = tail_records(&primary, 1);
        replica.apply(records, up_to, false).unwrap();
        assert_eq!(replica.applied_lsn(), up_to);
        assert_same_state(replica.database().unwrap(), &primary, true);

        // Incremental batch on top: only the new records ship.
        let desc = primary.create_dependent(sensor, "Description", Value::string("v1")).unwrap();
        primary.set_value(desc, Value::string("v2")).unwrap();
        let (records, new_up_to) = tail_records(&primary, up_to + 1);
        assert!(!records.is_empty());
        replica.apply(records, new_up_to, false).unwrap();
        assert_same_state(replica.database().unwrap(), &primary, true);

        // Cursor is durable: reopening the store resumes where it left off.
        drop(replica);
        let replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(replica.applied_lsn(), new_up_to);
        assert_same_state(replica.database().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// A shipped record whose element count runs past its bytes is refused with an error
    /// (not an abort reserving memory for the count), and the whole batch changes nothing:
    /// neither the cursor nor the mirrored state moves.
    #[test]
    fn crafted_counts_in_a_shipped_batch_change_nothing() {
        use crate::codec::{encode_object, encoded, Key, FORMAT_VERSION};
        use crate::ident::RelationshipId;
        use seed_schema::SchemaVersionId;
        const HUGE: u64 = 1 << 36;
        let primary_dir = temp_dir("repl-crafted-primary");
        let replica_dir = temp_dir("repl-crafted-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let alarms = primary.create_object("Data", "Alarms").unwrap();
        let alarms = primary.object(alarms).unwrap();
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, up_to) = tail_records(&primary, 1);
        replica.apply(records, up_to, false).unwrap();

        let schema_key = Key::Schema(SchemaVersionId(1)).to_vec();
        let crafted = [
            // An object's inherits-links.
            (Key::Object(alarms.id).to_vec(), encoded(|e| encode_object(e, &alarms))),
            // A relationship's bindings (id, association, count).
            (
                Key::Relationship(RelationshipId(1)).to_vec(),
                encoded(|e| {
                    e.put_u64(1).put_u32(0);
                }),
            ),
            // A schema's classes (name, count).
            (
                schema_key.clone(),
                encoded(|e| {
                    e.put_str("Spec");
                }),
            ),
            // An enumeration domain's literals: one class `Kind`, no owner, occurrence `0..*`,
            // an enumeration domain.
            (
                schema_key.clone(),
                encoded(|e| {
                    e.put_str("Spec").put_varint(1).put_str("Kind").put_bool(false);
                    e.put_u32(0).put_bool(false).put_bool(true).put_u8(6);
                }),
            ),
            // An association's roles: no classes, one association `A`.
            (
                schema_key,
                encoded(|e| {
                    e.put_str("Spec").put_varint(0).put_varint(1).put_str("A");
                }),
            ),
            // The meta record's transition rules (format, id floors, current schema, count).
            (
                Key::Meta.to_vec(),
                encoded(|e| {
                    e.put_u32(FORMAT_VERSION).put_u64(1).put_u64(1).put_u32(0);
                }),
            ),
        ];
        for (key, mut value) in crafted {
            value.extend(encoded(|e| {
                e.put_varint(HUGE);
            }));
            let batch = Commit { effects: vec![(key.clone(), Some(value))] };
            let key = String::from_utf8_lossy(&key).into_owned();
            assert!(replica.apply(vec![batch], up_to + 1, false).is_err(), "{key} applied");
            assert_eq!(replica.applied_lsn(), up_to, "{key} moved the cursor");
            assert_same_state(replica.database().unwrap(), &primary, true);
        }
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
        // Resync from the primary's files, as the primary's session loop would.
        let (cut, lsn) = primary.replication_cut().unwrap();
        assert_eq!(lsn, primary.durable_lsn().unwrap(), "the cut ends at the end of the log");
        replica.apply(cut, lsn, true).unwrap();
        assert_eq!(replica.applied_lsn(), lsn);
        assert_same_state(replica.database().unwrap(), &primary, true);

        // And incremental shipping continues cleanly after the reset.
        primary.create_object("Action", "Later").unwrap();
        let (records, up_to) = tail_records(&primary, lsn + 1);
        replica.apply(records, up_to, false).unwrap();
        assert_same_state(replica.database().unwrap(), &primary, true);
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
        replica.apply(records, up_to, false).unwrap();
        assert!(replica.database().unwrap().object_by_name("Doomed").is_ok());

        // The primary physically removes the object's key space... (delete marks it deleted;
        // exercise the reset path with a checkpoint + fresh snapshot instead).
        primary.delete_object(doomed).unwrap();
        primary.checkpoint().unwrap();
        let (cut, lsn) = primary.replication_cut().unwrap();
        replica.apply(cut, lsn, true).unwrap();
        assert_same_state(replica.database().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// The satellite crash test: a replica killed mid-`LogBatch` apply loses the whole batch
    /// (its local transaction never committed), reopens at its last durable LSN, re-requests
    /// the lost records and converges to the primary's state.
    #[test]
    fn crash_mid_batch_resumes_from_last_durable_lsn_and_converges() {
        let primary_dir = temp_dir("repl-crash-primary");
        let replica_dir = temp_dir("repl-crash-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Stable").unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, batch1_lsn) = tail_records(&primary, 1);
        replica.apply(records, batch1_lsn, false).unwrap();
        drop(replica);

        // Batch 2 exists on the primary...
        primary.create_object("Data", "InFlight").unwrap();
        let (batch2, batch2_lsn) = tail_records(&primary, batch1_lsn + 1);

        // ...and the replica crashes mid-apply: its local group-commit write is torn.  Simulate
        // by applying the batch and then tearing the tail of the replica's own WAL — the
        // batch's single commit frame never became fully durable.
        {
            let mut replica = ReplicaStore::open(&replica_dir).unwrap();
            replica.apply(batch2, batch2_lsn, false).unwrap();
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
        assert!(replica.database().unwrap().object_by_name("InFlight").is_err());

        // Re-request from the durable cursor and converge.
        let (records, up_to) = tail_records(&primary, replica.applied_lsn() + 1);
        replica.apply(records, up_to, false).unwrap();
        assert_eq!(up_to, batch2_lsn);
        assert_same_state(replica.database().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// Patching the mirrored database with each incremental batch yields exactly the database
    /// a wholesale reload (reopening the store) would, while touching only O(delta) items —
    /// including across renames, deletes, rollbacks and version creation.
    #[test]
    fn incremental_apply_matches_a_wholesale_reload() {
        let primary_dir = temp_dir("repl-incr-primary");
        let replica_dir = temp_dir("repl-incr-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let alarms = primary.create_object("Data", "Alarms").unwrap();
        let sensor = primary.create_object("Action", "Sensor").unwrap();
        primary.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, mut cursor) = tail_records(&primary, 1);
        replica.apply(records, cursor, false).unwrap();

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
            let touched = replica.apply(records, up_to, false).unwrap();
            cursor = up_to;
            assert!(touched <= 8, "batch touched {touched} items, expected O(delta)");
            let patched = replica.serving_copy().unwrap();
            drop(replica);
            replica = ReplicaStore::open(&replica_dir).unwrap();
            assert_same_state(&patched, replica.database().unwrap(), true);
            assert_same_state(&patched, &primary, true);
        }
        assert_eq!(replica.database().unwrap().versions().len(), 1);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// A batch that fails to decode touches neither disk nor memory: the cursor, the mirrored
    /// database and what a restart recovers all stay where they were.
    #[test]
    fn a_batch_with_a_corrupt_record_changes_nothing() {
        let primary_dir = temp_dir("repl-corrupt-primary");
        let replica_dir = temp_dir("repl-corrupt-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Before").unwrap();
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, cursor) = tail_records(&primary, 1);
        replica.apply(records, cursor, false).unwrap();

        primary.create_object("Data", "Shipped").unwrap();
        let (mut records, up_to) = tail_records(&primary, cursor + 1);
        for (key, value) in records.iter_mut().flat_map(|c| &mut c.effects) {
            if let (true, Some(value)) = (key.starts_with(codec::PREFIX_OBJECT), value) {
                value.truncate(value.len() / 2); // a torn `o/` record
            }
        }
        let before = replica.serving_copy().unwrap();
        assert!(replica.apply(records, up_to, false).is_err());
        assert_eq!(replica.applied_lsn(), cursor);
        assert_same_state(replica.database().unwrap(), &before, true);
        drop(replica);
        let replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(replica.applied_lsn(), cursor, "nothing reached the replica's disk");
        assert_same_state(replica.database().unwrap(), &before, true);
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
        replica.apply(records, up_to, false).unwrap();
        assert_eq!(replica.topology_epoch(), 0);

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
        assert!(rejoined.is_initialized());
        assert_eq!(rejoined.topology_epoch(), 7);
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
        replica.apply(records, up_to, false).unwrap();
        let mut loaded = replica.serving_copy().unwrap();
        assert_eq!(loaded.versions().len(), 1);
        loaded.select_version(Some(v1)).unwrap();
        assert_eq!(loaded.object(desc).unwrap().value, Value::string("v1"));
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// The same mutations, in the same order, on any database.
    fn workload(db: &mut Database, round: u32) {
        let data = db.create_object("Data", &format!("Data{round}")).unwrap();
        let action = db.create_object("Action", &format!("Action{round}")).unwrap();
        db.create_relationship("Access", &[("from", data), ("by", action)]).unwrap();
        let desc = db.create_dependent(action, "Description", Value::string("v1")).unwrap();
        db.set_value(desc, Value::string(format!("round {round}"))).unwrap();
        if round % 2 == 1 {
            db.create_version(&format!("round {round}")).unwrap();
            db.rename_object(data, &format!("Renamed{round}")).unwrap();
        }
        let victim = db.create_object("Data", &format!("Victim{round}")).unwrap();
        db.delete_object(victim).unwrap();
    }

    /// A reset from the primary's files is a replay: a replica reset from a primary that
    /// checkpointed twice and committed since ends equal to a replica fed every commit from
    /// LSN 1 off a never-checkpointed twin, and both equal the primary.
    #[test]
    fn a_reset_from_the_files_equals_replay_from_lsn_one() {
        let primary_dir = temp_dir("repl-replay-primary");
        let twin_dir = temp_dir("repl-replay-twin");
        let reset_dir = temp_dir("repl-replay-reset");
        let replay_dir = temp_dir("repl-replay-replay");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let config = seed_storage::EngineConfig {
            checkpoint_wal_bytes: None,
            ..seed_storage::EngineConfig::default()
        };
        let mut twin = Database::create_durable_with(&twin_dir, figure3_schema(), config).unwrap();
        for round in 0..6 {
            workload(&mut primary, round);
            workload(&mut twin, round);
            if round == 1 || round == 3 {
                primary.checkpoint().unwrap();
            }
        }
        assert!(matches!(primary.wal_tail(1).unwrap(), WalTail::Truncated { .. }));

        let mut reset = ReplicaStore::open(&reset_dir).unwrap();
        let (cut, lsn) = primary.replication_cut().unwrap();
        assert_eq!(lsn, primary.durable_lsn().unwrap());
        reset.apply(cut, lsn, true).unwrap();

        let mut replay = ReplicaStore::open(&replay_dir).unwrap();
        let mut cursor = 0;
        while cursor < twin.durable_lsn().unwrap() {
            let (mut records, _) = tail_records(&twin, cursor + 1);
            records.truncate(3); // several incremental batches
            cursor += records.len() as Lsn;
            replay.apply(records, cursor, false).unwrap();
        }
        assert_eq!(reset.applied_lsn(), replay.applied_lsn(), "the twins number commits alike");

        let (reset_db, replay_db) = (reset.database().unwrap(), replay.database().unwrap());
        assert_same_state(reset_db, &primary, true);
        assert_same_state(replay_db, &primary, true);
        assert!(encoder_pairs(reset_db) == encoder_pairs(replay_db), "the key spaces differ");
        assert!(encoder_pairs(reset_db) == encoder_pairs(&primary), "the primary differs");
        for dir in [primary_dir, twin_dir, reset_dir, replay_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The cut is read from the files, so an open transaction or a checked-out alternative is
    /// served rather than refused, and none of its uncommitted state ships.
    #[test]
    fn a_cut_during_a_transaction_or_an_alternative_ships_only_committed_state() {
        let primary_dir = temp_dir("repl-uncommitted-primary");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Committed").unwrap();
        let base = primary.create_version("base").unwrap();
        primary.checkpoint().unwrap();
        primary.create_object("Data", "Logged").unwrap();
        let committed = primary.clone_for_snapshot();

        let reset_from_cut = |primary: &Database, name: &str| {
            let dir = temp_dir(name);
            let mut replica = ReplicaStore::open(&dir).unwrap();
            let (cut, lsn) = primary.replication_cut().expect("the cut is served");
            replica.apply(cut, lsn, true).unwrap();
            let db = replica.serving_copy().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            db
        };

        primary.begin_transaction().unwrap();
        primary.create_object("Data", "Uncommitted").unwrap();
        let during_txn = reset_from_cut(&primary, "repl-uncommitted-txn");
        assert!(during_txn.object_by_name("Uncommitted").is_err());
        assert_same_state(&during_txn, &committed, true);
        primary.rollback_transaction().unwrap();

        let committed = primary.clone_for_snapshot(); // the rolled-back ids stay burned
        primary.checkout_alternative(base).unwrap();
        primary.create_object("Data", "AltOnly").unwrap();
        let during_alternative = reset_from_cut(&primary, "repl-uncommitted-alt");
        assert!(during_alternative.object_by_name("AltOnly").is_err());
        assert!(during_alternative.object_by_name("Logged").is_ok());
        assert_same_state(&during_alternative, &committed, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
    }

    /// A reset batch holding an `o/` record with one byte too many is refused whole: the
    /// strict record decoders reject trailing bytes, so neither the cursor nor the state moves.
    #[test]
    fn a_reset_batch_with_an_extended_record_changes_nothing() {
        let primary_dir = temp_dir("repl-extended-primary");
        let replica_dir = temp_dir("repl-extended-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Before").unwrap();
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, cursor) = tail_records(&primary, 1);
        replica.apply(records, cursor, false).unwrap();
        let before = replica.serving_copy().unwrap();

        primary.create_object("Data", "After").unwrap();
        primary.checkpoint().unwrap();
        let (mut cut, lsn) = primary.replication_cut().unwrap();
        let record = cut
            .iter_mut()
            .flat_map(|c| &mut c.effects)
            .find_map(|(key, value)| {
                value.as_mut().filter(|_| key.starts_with(codec::PREFIX_OBJECT))
            })
            .expect("the cut holds an object record");
        record.push(0);
        assert!(replica.apply(cut, lsn, true).is_err(), "an extended o/ record was applied");
        assert_eq!(replica.applied_lsn(), cursor);
        assert_same_state(replica.database().unwrap(), &before, true);
        drop(replica);
        let replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(replica.applied_lsn(), cursor, "the refused reset reached the disk");
        assert_same_state(replica.database().unwrap(), &before, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }
}
