//! The replica side of WAL-shipping replication: a durable store rebuilt from a primary's
//! shipped commits.
//!
//! A [`ReplicaStore`] owns its own storage engine and the database it mirrors, and its WAL **is
//! the primary's log**: every shipped [`Commit`] is appended at the LSN it has on the primary,
//! in the same frame bytes, so a replica's position is simply the end of its own log
//! ([`StorageEngine::durable_lsn`]) and one LSN space spans the cluster.  A shipped batch — each
//! commit one WAL record, whole by construction — is decoded **completely** before anything is
//! written, so a batch that fails to decode touches neither disk nor memory.  Then its commits
//! are appended in one write with one sync ([`StorageEngine::append`], which refuses a batch
//! that does not start at the log's next LSN), and the applier of [`crate::durability`]
//! patches the mirrored database in O(delta).  A crash mid-batch keeps a prefix of whole
//! commits, as on the primary; on reopen the replica resumes from the end of its log.
//!
//! Two batch shapes exist (see `docs/PROTOCOL.md` for the wire contract):
//!
//! * **incremental** — the primary's WAL tail past the replica's last LSN; applied on top of
//!   the mirrored database;
//! * **reset** — the primary's files from the start: its snapshot's commits, then its WAL
//!   tail past the snapshot ([`crate::LogFeed::replication_cut`]); shipped when the primary's
//!   log no longer holds the replica's next LSN, or does not continue the replica's log
//!   ([`Database::continues_log`]).  It is applied to a fresh database, exactly as restart
//!   recovery applies the same files, which the store installs as its whole state at the
//!   primary's end of log ([`StorageEngine::install`]): the old log is dropped first, so none
//!   of its frames is ever replayed over the new image, wherever the old log ended.
//!
//! The mirrored meta record carries the primary's epoch history, so the store knows the epoch
//! in force at its last LSN ([`ReplicaStore::log_end`]) — the pair a subscription carries.  A
//! promotion ([`ReplicaStore::into_primary`]) keeps numbering from the end of the log.
//!
//! The store never mutates through [`Database`] write paths — replicas are read-only by
//! construction.  A serving copy of the mirrored database ([`ReplicaStore::serving_copy`])
//! costs O(1).

use std::path::Path;

use seed_storage::{Commit, Lsn, StorageEngine};

use crate::codec;
use crate::database::Database;
use crate::durability::{self, Changes};
use crate::error::{SeedError, SeedResult};

/// A replica's durable store: the mirrored database and its log, which holds the primary's
/// commits at the primary's LSNs.
pub struct ReplicaStore {
    engine: StorageEngine,
    /// `None` until a batch carrying the primary's `meta` record has been applied.
    db: Option<Database>,
}

impl ReplicaStore {
    /// Opens (or creates) a replica store in `dir`, running the engine's normal restart
    /// recovery.  A fresh directory's log is empty — the first subscription asks the primary
    /// for everything.  Any durable database directory opens too: a former primary rejoins
    /// with its own log.
    pub fn open(dir: impl AsRef<Path>) -> SeedResult<Self> {
        let (engine, recovered) = StorageEngine::open(dir)?;
        let db = match recovered.get(codec::KEY_META.as_bytes()) {
            Some(_) => Some(durability::recover(&recovered)?),
            None => None,
        };
        Ok(Self { engine, db })
    }

    /// The last primary LSN whose effects are durable locally: the end of the store's log (0 =
    /// nothing applied yet).
    pub fn applied_lsn(&self) -> Lsn {
        self.engine.durable_lsn()
    }

    /// Where the store's log ends: its last LSN and the epoch in force there — what a
    /// subscription carries for the primary to match against its own log.
    pub fn log_end(&self) -> (Lsn, u64) {
        let lsn = self.applied_lsn();
        (lsn, self.db.as_ref().map_or(0, |db| db.epoch_at(lsn)))
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

    /// Applies one shipped batch whose last commit is the primary's LSN `up_to`.  The batch is
    /// decoded completely first; a batch that fails to decode changes nothing.  An incremental
    /// batch is appended to the log at the primary's LSNs (one write, one sync) and patches the
    /// mirrored database; with `reset`, the batch becomes a fresh database installed as the
    /// store's whole state at LSN `up_to`.
    ///
    /// Returns the number of per-item records the batch changed (the replica's cost
    /// observable: O(delta) for incremental batches).
    pub fn apply(&mut self, commits: Vec<Commit>, up_to: Lsn, reset: bool) -> SeedResult<usize> {
        let effects = commits.iter().flat_map(|c| &c.effects);
        let known = self.db.as_ref().filter(|_| !reset).map(Database::schema_registry);
        let changes = Changes::decode(effects.map(|(k, v)| (k.as_slice(), v.as_deref())), known)?;
        let items = changes.items();
        let first = (up_to + 1).saturating_sub(commits.len() as Lsn);
        match self.db.as_mut().filter(|_| !reset) {
            Some(db) => {
                self.engine.append(first, &commits)?;
                changes.apply(db);
            }
            None => {
                let db = changes.into_database()?;
                if reset {
                    self.engine.install(&durability::encode_image(&db, up_to))?;
                } else {
                    self.engine.append(first, &commits)?;
                }
                self.db = Some(db);
            }
        }
        if self.engine.checkpoint_due() {
            // A failure poisons the engine, which then refuses the next batch.
            let _ = self.checkpoint();
        }
        Ok(items)
    }

    /// Checkpoints the replica's own engine: the mirrored database as one snapshot image at the
    /// end of the log, then the log pruned.  [`ReplicaStore::apply`] does this whenever the
    /// log outgrows its threshold.
    pub fn checkpoint(&self) -> SeedResult<()> {
        let db = self.db.as_ref().ok_or_else(not_initialized)?;
        Ok(self.engine.checkpoint(&durability::encode_image(db, self.applied_lsn()))?)
    }

    /// The topology epoch recorded in the mirrored meta record (0 for an uninitialized store
    /// or before any promotion) — what a promotion order's epoch must exceed.
    pub fn topology_epoch(&self) -> u64 {
        self.db.as_ref().map_or(0, Database::topology_epoch)
    }

    /// Promotion: consumes the replica store and turns its directory into a **durable primary**
    /// at topology epoch `epoch` — reusing the engine, the mirrored database and the log in
    /// place, no data copy.  One commit, at the log's next LSN `n`, rewrites the meta record
    /// with the new epoch, no fence, and `(epoch, n)` added to the epoch history; the log keeps
    /// numbering from there, so every node's LSNs stay in one space.  Then write-through
    /// durability is attached to the mirrored database.
    ///
    /// The caller is responsible for having drained the shipped tail first: records the old
    /// primary committed but never shipped here are lost by design (they were never
    /// acknowledged to this node), and the epoch history tells that log apart from this one.
    pub fn into_primary(self, epoch: u64) -> SeedResult<Database> {
        let mut db = self.db.ok_or_else(not_initialized)?;
        let mut epochs = db.epoch_history().to_vec();
        epochs.push((epoch, self.engine.durable_lsn() + 1));
        db.set_topology(epoch, None, epochs);
        let meta = durability::encode_meta(&db);
        self.engine.commit(vec![(codec::KEY_META.as_bytes().to_vec(), Some(meta.clone()))])?;
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
        match db.log_feed().unwrap().wal_tail(from).unwrap() {
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
        match primary.log_feed().unwrap().wal_tail(replica.applied_lsn() + 1).unwrap() {
            WalTail::Truncated { oldest } => assert!(oldest > 1),
            other => panic!("expected truncation, got {other:?}"),
        }
        // Resync from the primary's files, as the primary's session loop would.
        let (cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
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
        let (cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
        replica.apply(cut, lsn, true).unwrap();
        assert_same_state(replica.database().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// A replica killed mid-`LogBatch` apply keeps a prefix of the batch's whole commits (its
    /// one write was torn inside the last frame), reopens at the end of that prefix,
    /// re-requests the rest and converges to the primary's state.
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

        // Batch 2 exists on the primary: three commits...
        for name in ["InFlight0", "InFlight1", "InFlight2"] {
            primary.create_object("Data", name).unwrap();
        }
        let (batch2, batch2_lsn) = tail_records(&primary, batch1_lsn + 1);
        assert_eq!(batch2.len(), 3);

        // ...and the replica crashes mid-apply: the batch's one write is torn inside its last
        // frame.  Simulate by applying the batch and then tearing the tail of the replica's
        // own WAL.
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

        // Reopen: the two whole commits stay, the torn one is gone.
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(replica.applied_lsn(), batch2_lsn - 1, "a prefix of whole commits stays");
        let db = replica.database().unwrap();
        assert!(db.object_by_name("InFlight1").is_ok());
        assert!(db.object_by_name("InFlight2").is_err());

        // Re-request from the end of the log and converge.
        let (records, up_to) = tail_records(&primary, replica.applied_lsn() + 1);
        assert_eq!(records.len(), 1, "only the torn commit ships again");
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
    /// (no data copy), carrying the promotion epoch in its meta and `(epoch, first LSN)` in its
    /// epoch history; the log keeps numbering from the end of the shipped tail, and reopening
    /// the directory as a replica store afterwards finds its position at the end of that log.
    #[test]
    fn into_primary_flips_the_store_in_place_and_keeps_numbering_the_log() {
        let primary_dir = temp_dir("repl-flip-primary");
        let replica_dir = temp_dir("repl-flip-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Survivor").unwrap();

        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        let (records, up_to) = tail_records(&primary, 1);
        replica.apply(records, up_to, false).unwrap();
        assert_eq!(replica.topology_epoch(), 0);
        assert_eq!(replica.log_end(), (up_to, 0));

        let mut promoted = replica.into_primary(7).unwrap();
        assert!(promoted.is_durable(), "the flipped store writes through");
        assert_eq!(promoted.topology_epoch(), 7);
        assert_eq!(promoted.fenced_to(), None);
        assert_eq!(promoted.epoch_history(), [(7, up_to + 1)]);
        assert_eq!(promoted.durable_lsn(), Some(up_to + 1), "the flip is the next commit");
        assert!(promoted.object_by_name("Survivor").is_ok(), "no data was lost in the flip");
        promoted.create_object("Data", "PostPromotion").unwrap();
        let end = promoted.durable_lsn().unwrap();
        drop(promoted);

        // The directory now recovers as an ordinary durable primary...
        let reopened = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(reopened.topology_epoch(), 7);
        assert_eq!(reopened.epoch_history(), [(7, up_to + 1)]);
        assert!(reopened.object_by_name("PostPromotion").is_ok());
        drop(reopened);

        // ...and reopening it as a replica store finds the end of the same log, under the
        // promotion's epoch.
        let rejoined = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(rejoined.applied_lsn(), end);
        assert_eq!(rejoined.log_end(), (end, 7));
        assert!(rejoined.is_initialized());
        assert_eq!(rejoined.topology_epoch(), 7);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// Ships the primary's tail past the replica's last LSN as one incremental batch.
    fn ship(replica: &mut ReplicaStore, primary: &Database) {
        let (records, up_to) = tail_records(primary, replica.applied_lsn() + 1);
        replica.apply(records, up_to, false).unwrap();
    }

    /// Every whole frame in `dir`'s WAL segments, by LSN, as it lies on disk (`len | crc |
    /// payload`).  Parsed here from the documented layout: a 24-byte header whose bytes
    /// 12..20 hold the segment's base LSN, then the frames.
    fn frames_by_lsn(dir: &Path) -> std::collections::BTreeMap<Lsn, Vec<u8>> {
        let mut frames = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("wal.") && name.ends_with(".seg")) {
                continue;
            }
            let bytes = std::fs::read(&path).unwrap();
            let mut lsn = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) + 1;
            let mut rest = &bytes[24..];
            while rest.len() >= 8 {
                let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize + 8;
                frames.insert(lsn, rest[..len].to_vec());
                rest = &rest[len..];
                lsn += 1;
            }
        }
        frames
    }

    /// One log across primary and replica: streamed with a checkpoint on each side, the
    /// replica's log holds the primary's commits at the primary's LSNs, frame for frame.
    #[test]
    fn the_replica_log_holds_the_primary_frames_at_the_primary_lsns() {
        let primary_dir = temp_dir("repl-frames-primary");
        let replica_dir = temp_dir("repl-frames-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        for round in 0..5 {
            workload(&mut primary, round);
            ship(&mut replica, &primary);
            match round {
                1 => primary.checkpoint().unwrap(),
                2 => replica.checkpoint().unwrap(),
                _ => {}
            }
        }
        assert_eq!(replica.applied_lsn(), primary.durable_lsn().unwrap(), "one LSN space");
        let (on_primary, on_replica) = (frames_by_lsn(&primary_dir), frames_by_lsn(&replica_dir));
        let shared: Vec<Lsn> =
            on_primary.keys().filter(|l| on_replica.contains_key(l)).copied().collect();
        assert!(shared.len() >= 10, "only {} LSNs in both logs", shared.len());
        let first =
            |frames: &std::collections::BTreeMap<Lsn, Vec<u8>>| *frames.keys().next().unwrap();
        assert!(first(&on_primary) > 1, "the primary's checkpoint pruned its log");
        assert!(first(&on_replica) > first(&on_primary), "the replica's checkpoint came later");
        for lsn in shared {
            assert!(on_primary[&lsn] == on_replica[&lsn], "the frames at LSN {lsn} differ");
        }
        drop(replica);
        let replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(replica.applied_lsn(), primary.durable_lsn().unwrap());
        assert_same_state(replica.database().unwrap(), &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// Log matching with the topology epoch as the term.  A replica store synced to LSN `n` is
    /// promoted at epoch 1, so its log holds the promotion at `n + 1`.  The old primary at
    /// `(n, 0)` continues it; after `k` = 3 commits it never shipped, the old primary's log ends
    /// at `(n + 3, 0)`, while the promoted log holds LSNs `n + 1 ..= n + 3` under epoch 1: no
    /// match, although the promoted log runs past `n + 3`.  The old primary, rejoining as a
    /// replica at that position, is reset to the promoted log and streams on from there.
    #[test]
    fn a_promoted_log_continues_the_old_one_up_to_the_promotion_and_not_past_it() {
        let old_dir = temp_dir("repl-match-old");
        let promoted_dir = temp_dir("repl-match-promoted");
        let mut old = Database::create_durable(&old_dir, figure3_schema()).unwrap();
        workload(&mut old, 0);
        let mut replica = ReplicaStore::open(&promoted_dir).unwrap();
        ship(&mut replica, &old);
        let n = old.durable_lsn().unwrap();
        assert_eq!(replica.log_end(), (n, 0));
        let mut promoted = replica.into_primary(1).unwrap();
        assert_eq!(promoted.epoch_history(), [(1, n + 1)]);
        assert_eq!((promoted.epoch_at(n), promoted.epoch_at(n + 1)), (0, 1));

        // The old primary at (n, 0) — fenced or stopped before it wrote again — matches.
        assert!(promoted.continues_log(n, 0));
        assert!(!promoted.continues_log(n, 1), "LSN n was written under epoch 0");
        assert!(!promoted.continues_log(n + 2, 1), "past the promoted log's end");

        // Three commits the old primary never shipped: LSNs n + 1 ..= n + 3 of its log.
        for name in ["Unshipped0", "Unshipped1", "Unshipped2"] {
            old.create_object("Data", name).unwrap();
        }
        assert_eq!(old.durable_lsn(), Some(n + 3));
        for name in ["Promoted0", "Promoted1", "Promoted2", "Promoted3"] {
            promoted.create_object("Data", name).unwrap();
        }
        assert_eq!(promoted.durable_lsn(), Some(n + 5), "the promoted log holds LSN n + 3");
        assert!(!promoted.continues_log(n + 3, 0), "LSN n + 3 differs between the two logs");
        assert!(promoted.continues_log(n + 3, 1));

        drop(old);
        let mut rejoined = ReplicaStore::open(&old_dir).unwrap();
        assert_eq!(rejoined.log_end(), (n + 3, 0));
        let (cut, lsn) = promoted.log_feed().unwrap().replication_cut().unwrap();
        assert_eq!(lsn, n + 5);
        rejoined.apply(cut, lsn, true).unwrap();
        assert_eq!(rejoined.log_end(), (n + 5, 1));
        assert_same_state(rejoined.database().unwrap(), &promoted, true);
        assert!(rejoined.database().unwrap().object_by_name("Unshipped0").is_err());

        promoted.create_object("Data", "AfterRejoin").unwrap();
        ship(&mut rejoined, &promoted);
        drop(rejoined);
        let rejoined = ReplicaStore::open(&old_dir).unwrap();
        assert_eq!(rejoined.log_end(), (n + 6, 1));
        assert_same_state(rejoined.database().unwrap(), &promoted, true);
        let _ = std::fs::remove_dir_all(&old_dir);
        let _ = std::fs::remove_dir_all(&promoted_dir);
    }

    /// A batch that does not start at the log's next LSN — a gap or an overlap — is refused
    /// and changes nothing, on disk or in memory.
    #[test]
    fn a_batch_with_a_gap_or_an_overlap_is_refused_and_changes_nothing() {
        let primary_dir = temp_dir("repl-gap-primary");
        let replica_dir = temp_dir("repl-gap-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "First").unwrap();
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        ship(&mut replica, &primary);
        let cursor = replica.applied_lsn();
        let before = replica.serving_copy().unwrap();

        primary.create_object("Data", "Second").unwrap();
        primary.create_object("Data", "Third").unwrap();
        let (records, up_to) = tail_records(&primary, cursor + 2);
        assert!(replica.apply(records, up_to, false).is_err(), "a gap was applied");
        let (records, up_to) = tail_records(&primary, cursor);
        assert!(replica.apply(records, up_to, false).is_err(), "an overlap was applied");
        assert_eq!(replica.applied_lsn(), cursor);
        assert_same_state(replica.database().unwrap(), &before, true);
        drop(replica);
        let mut replica = ReplicaStore::open(&replica_dir).unwrap();
        assert_eq!(replica.applied_lsn(), cursor, "a refused batch reached the disk");
        ship(&mut replica, &primary);
        assert_same_state(replica.database().unwrap(), &primary, true);
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
        assert!(matches!(
            primary.log_feed().unwrap().wal_tail(1).unwrap(),
            WalTail::Truncated { .. }
        ));

        let mut reset = ReplicaStore::open(&reset_dir).unwrap();
        let (cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
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
            let (cut, lsn) =
                primary.log_feed().unwrap().replication_cut().expect("the cut is served");
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
        let (mut cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
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
