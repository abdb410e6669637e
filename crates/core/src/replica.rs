//! The replica side of WAL-shipping replication: a durable [`Database`] kept in step with a
//! primary's shipped commits.
//!
//! A replica node serves one durable database, as a primary does, and its WAL **is the
//! primary's log**: every shipped [`Commit`] is appended at the LSN it has on the primary, in
//! the same frame bytes, so a replica's position is simply the end of its own log
//! ([`Database::log_end`]) and one LSN space spans the cluster.  A shipped batch — each commit
//! one WAL record, whole by construction — is decoded **completely** before anything is
//! written, so a batch that fails to decode touches neither disk nor memory.  Then its commits
//! are appended in one write with one sync ([`StorageEngine::append`], which refuses a batch
//! that does not start at the log's next LSN), and the applier of [`crate::durability`]
//! patches the database in O(delta).  A crash mid-batch keeps a prefix of whole commits, as on
//! the primary; on reopen the replica resumes from the end of its log.
//!
//! Two batch shapes exist (see `docs/PROTOCOL.md` for the wire contract):
//!
//! * **incremental** — the primary's WAL tail past the replica's last LSN; applied on top of
//!   the database;
//! * **reset** — the primary's files from the start: its snapshot's commits, then its WAL
//!   tail past the snapshot ([`crate::LogFeed::replication_cut`]); shipped when the primary's
//!   log no longer holds the replica's next LSN, or does not continue the replica's log
//!   ([`Database::continues_log`]).  The shipped frames become the replica's snapshot image as
//!   they are, re-encoding nothing ([`StorageEngine::install`]: the old log is dropped first,
//!   so none of its frames is ever replayed over the image), and the batch is applied to a
//!   fresh database, exactly as restart recovery applies the same files.
//!
//! Shipped changes are logged already, so none stays in the change journal, and the shipped
//! `meta` record becomes the committed one.  The database checkpoints in the background, as a
//! primary's does; a reset first waits for a checkpoint in flight, whose late image of the old
//! state would otherwise replace the installed one.  A directory holds no database until its
//! first batch ([`Database::from_first_batch`]); a promotion ([`Database::promote`]) keeps
//! numbering the same log.

use std::path::Path;

use seed_storage::{Commit, Lsn, SnapshotImage, StorageEngine};

use crate::codec;
use crate::database::Database;
use crate::durability::{self, Changes};
use crate::error::{SeedError, SeedResult};

impl Database {
    /// Opens a replica's directory: `Ok` with the durable database it holds — its own, or a
    /// former primary's that rejoins — or, while it holds none yet, `Err` with its opened
    /// engine for [`Database::from_first_batch`].
    pub fn open_replica(dir: impl AsRef<Path>) -> SeedResult<Result<Self, StorageEngine>> {
        let (engine, recovered) = StorageEngine::open(dir)?;
        match recovered.get(codec::KEY_META.as_bytes()) {
            Some(_) => Self::open_recovered(engine, &recovered).map(Ok),
            None => Ok(Err(engine)),
        }
    }

    /// A replica's durable database over `engine`, whose directory holds none yet, built from
    /// its first shipped batch: the primary's commits up to LSN `end`, appended or (with
    /// `reset`) installed.  The batch must carry the primary's `meta` record.
    pub fn from_first_batch(
        engine: StorageEngine,
        batch: Vec<Commit>,
        end: Lsn,
        reset: bool,
    ) -> SeedResult<Self> {
        let mut db =
            Changes::decode(batch.iter().flat_map(|c| &c.effects), None)?.into_database()?;
        log(&engine, &batch, end, reset)?;
        db.attach_durability(engine, durability::encode_meta(&db));
        db.checkpoint_if_due();
        Ok(db)
    }

    /// Applies one shipped batch whose last commit is the primary's LSN `end`, decoded
    /// completely first: a batch that fails to decode changes nothing.  An incremental batch is
    /// appended to the log at the primary's LSNs (one write, one sync) and patches the
    /// database; with `reset`, the batch is installed as the whole state at `end` and the
    /// database is rebuilt from it.
    ///
    /// Returns the number of per-item records the batch changed (the replica's cost
    /// observable: O(delta) for incremental batches).
    pub fn apply_batch(&mut self, batch: Vec<Commit>, end: Lsn, reset: bool) -> SeedResult<usize> {
        let known = (!reset).then(|| self.schema_registry());
        let changes = Changes::decode(batch.iter().flat_map(|c| &c.effects), known)?;
        let items = changes.items();
        let dur = self.durability.as_ref().ok_or_else(|| {
            SeedError::Invalid("an in-memory database cannot take a shipped batch".to_string())
        })?;
        if reset {
            let mut db = changes.into_database()?;
            dur.join_checkpoint()?;
            log(&dur.engine, &batch, end, true)?;
            db.durability = self.durability.take();
            db.store_mut().set_journal(true);
            *self = db;
        } else {
            log(&dur.engine, &batch, end, false)?;
            changes.apply(self);
            let _ = self.store_mut().take_changed(); // logged already: nothing to commit again
        }
        let meta = durability::encode_meta(self);
        self.durability.as_mut().expect("checked above").committed_meta = meta;
        self.checkpoint_if_due();
        Ok(items)
    }

    /// Where this database's log ends: its last LSN and the epoch in force there — what a
    /// replica's subscription carries for the primary to match against its own log.
    pub fn log_end(&self) -> (Lsn, u64) {
        let lsn = self.durable_lsn().unwrap_or(0);
        (lsn, self.epoch_at(lsn))
    }

    /// Promotion: turns a replica's database into a **primary's** at topology epoch `epoch`, in
    /// place — the same engine, memory and log, no data copy.  One commit, at the log's next
    /// LSN `n`, rewrites the meta record with the new epoch, no fence, and `(epoch, n)` added to
    /// the epoch history; the log keeps numbering from there, so every node's LSNs stay in one
    /// space.
    ///
    /// The caller is responsible for having drained the shipped tail first: records the old
    /// primary committed but never shipped here are lost by design (they were never
    /// acknowledged to this node), and the epoch history tells that log apart from this one.
    pub fn promote(&mut self, epoch: u64) -> SeedResult<()> {
        let mut epochs = self.epoch_history().to_vec();
        epochs.push((epoch, self.log_end().0 + 1));
        self.set_topology(epoch, None, epochs);
        self.commit_batch(Vec::new())
    }
}

/// Logs a decoded batch at the primary's LSNs: appended (one write, one sync), or with `reset`
/// installed as the image of the whole state at `end` — the shipped frames as they are.
fn log(engine: &StorageEngine, batch: &[Commit], end: Lsn, reset: bool) -> SeedResult<()> {
    match reset {
        true => engine.install(&SnapshotImage::of_commits(end, batch))?,
        false => engine.append((end + 1).saturating_sub(batch.len() as Lsn), batch)?,
    }
    Ok(())
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

    /// The opened engine of a directory that holds no database yet.
    fn fresh(dir: &Path) -> StorageEngine {
        Database::open_replica(dir).unwrap().expect_err("the directory holds no database yet")
    }

    /// A replica in `dir` built from the primary's whole log, shipped as its first batch.
    fn first_batch(primary: &Database, dir: &Path) -> (Database, Lsn) {
        let (records, up_to) = tail_records(primary, 1);
        (Database::from_first_batch(fresh(dir), records, up_to, false).unwrap(), up_to)
    }

    #[test]
    fn incremental_shipping_converges_to_the_primary_state() {
        let primary_dir = temp_dir("repl-primary");
        let replica_dir = temp_dir("repl-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let alarms = primary.create_object("Data", "Alarms").unwrap();
        let sensor = primary.create_object("Action", "Sensor").unwrap();
        primary.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();

        assert_eq!(fresh(&replica_dir).durable_lsn(), 0, "no batch applied yet");

        // First batch: the whole WAL from LSN 1 (the primary never checkpointed).
        let (mut replica, up_to) = first_batch(&primary, &replica_dir);
        assert_eq!(replica.log_end(), (up_to, 0));
        assert_same_state(&replica, &primary, true);

        // Incremental batch on top: only the new records ship.
        let desc = primary.create_dependent(sensor, "Description", Value::string("v1")).unwrap();
        primary.set_value(desc, Value::string("v2")).unwrap();
        let (records, new_up_to) = tail_records(&primary, up_to + 1);
        assert!(!records.is_empty());
        replica.apply_batch(records, new_up_to, false).unwrap();
        assert_same_state(&replica, &primary, true);

        // Cursor is durable: reopening the replica resumes where it left off.
        drop(replica);
        let replica = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(replica.log_end(), (new_up_to, 0));
        assert_same_state(&replica, &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// A shipped record whose element count runs past its bytes is refused with an error
    /// (not an abort reserving memory for the count), and the whole batch changes nothing:
    /// neither the cursor nor the replica's state moves.
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
        let (mut replica, up_to) = first_batch(&primary, &replica_dir);

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
            assert!(replica.apply_batch(vec![batch], up_to + 1, false).is_err(), "{key} applied");
            assert_eq!(replica.log_end().0, up_to, "{key} moved the cursor");
            assert_same_state(&replica, &primary, true);
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

        let engine = fresh(&replica_dir);
        match primary.log_feed().unwrap().wal_tail(engine.durable_lsn() + 1).unwrap() {
            WalTail::Truncated { oldest } => assert!(oldest > 1),
            other => panic!("expected truncation, got {other:?}"),
        }
        // Resync from the primary's files, as the primary's session loop would.
        let (cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
        assert_eq!(lsn, primary.durable_lsn().unwrap(), "the cut ends at the end of the log");
        let mut replica = Database::from_first_batch(engine, cut, lsn, true).unwrap();
        assert_eq!(replica.log_end().0, lsn);
        assert_same_state(&replica, &primary, true);

        // And incremental shipping continues cleanly after the reset.
        primary.create_object("Action", "Later").unwrap();
        let (records, up_to) = tail_records(&primary, lsn + 1);
        replica.apply_batch(records, up_to, false).unwrap();
        assert_same_state(&replica, &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn reset_clears_stale_keys_the_snapshot_no_longer_contains() {
        let primary_dir = temp_dir("repl-reset-primary");
        let replica_dir = temp_dir("repl-reset-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let doomed = primary.create_object("Data", "Doomed").unwrap();
        let (mut replica, _) = first_batch(&primary, &replica_dir);
        assert!(replica.object_by_name("Doomed").is_ok());

        // The primary physically removes the object's key space... (delete marks it deleted;
        // exercise the reset path with a checkpoint + fresh snapshot instead).
        primary.delete_object(doomed).unwrap();
        primary.checkpoint().unwrap();
        let (cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
        replica.apply_batch(cut, lsn, true).unwrap();
        assert_same_state(&replica, &primary, true);
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

        let (replica, batch1_lsn) = first_batch(&primary, &replica_dir);
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
            let mut replica = Database::open_durable(&replica_dir).unwrap();
            replica.apply_batch(batch2, batch2_lsn, false).unwrap();
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
        let mut replica = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(replica.log_end().0, batch2_lsn - 1, "a prefix of whole commits stays");
        assert!(replica.object_by_name("InFlight1").is_ok());
        assert!(replica.object_by_name("InFlight2").is_err());

        // Re-request from the end of the log and converge.
        let (records, up_to) = tail_records(&primary, replica.log_end().0 + 1);
        assert_eq!(records.len(), 1, "only the torn commit ships again");
        replica.apply_batch(records, up_to, false).unwrap();
        assert_eq!(up_to, batch2_lsn);
        assert_same_state(&replica, &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// Patching the replica's database with each incremental batch yields exactly the database
    /// a wholesale reload (reopening the directory) would, while touching only O(delta) items —
    /// including across renames, deletes, rollbacks and version creation.
    #[test]
    fn incremental_apply_matches_a_wholesale_reload() {
        let primary_dir = temp_dir("repl-incr-primary");
        let replica_dir = temp_dir("repl-incr-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        let alarms = primary.create_object("Data", "Alarms").unwrap();
        let sensor = primary.create_object("Action", "Sensor").unwrap();
        primary.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();

        let (mut replica, mut cursor) = first_batch(&primary, &replica_dir);

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
            let touched = replica.apply_batch(records, up_to, false).unwrap();
            cursor = up_to;
            assert!(touched <= 8, "batch touched {touched} items, expected O(delta)");
            let patched = replica.clone_for_snapshot();
            drop(replica);
            replica = Database::open_durable(&replica_dir).unwrap();
            assert_same_state(&patched, &replica, true);
            assert_same_state(&patched, &primary, true);
        }
        assert_eq!(replica.versions().len(), 1);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// A batch that fails to decode touches neither disk nor memory: the cursor, the replica's
    /// database and what a restart recovers all stay where they were.
    #[test]
    fn a_batch_with_a_corrupt_record_changes_nothing() {
        let primary_dir = temp_dir("repl-corrupt-primary");
        let replica_dir = temp_dir("repl-corrupt-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Before").unwrap();
        let (mut replica, cursor) = first_batch(&primary, &replica_dir);

        primary.create_object("Data", "Shipped").unwrap();
        let (mut records, up_to) = tail_records(&primary, cursor + 1);
        for (key, value) in records.iter_mut().flat_map(|c| &mut c.effects) {
            if let (true, Some(value)) = (key.starts_with(codec::PREFIX_OBJECT), value) {
                value.truncate(value.len() / 2); // a torn `o/` record
            }
        }
        let before = replica.clone_for_snapshot();
        assert!(replica.apply_batch(records, up_to, false).is_err());
        assert_eq!(replica.log_end().0, cursor);
        assert_same_state(&replica, &before, true);
        drop(replica);
        let replica = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(replica.log_end().0, cursor, "nothing reached the replica's disk");
        assert_same_state(&replica, &before, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// The promotion flip: a synced replica becomes a writable durable primary in place (no
    /// data copy), carrying the promotion epoch in its meta and `(epoch, first LSN)` in its
    /// epoch history; the log keeps numbering from the end of the shipped tail, and reopening
    /// the directory as a replica afterwards finds its position at the end of that log.
    #[test]
    fn promote_flips_the_database_in_place_and_keeps_numbering_the_log() {
        let primary_dir = temp_dir("repl-flip-primary");
        let replica_dir = temp_dir("repl-flip-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        primary.create_object("Data", "Survivor").unwrap();

        let (mut promoted, up_to) = first_batch(&primary, &replica_dir);
        assert_eq!(promoted.topology_epoch(), 0);
        assert_eq!(promoted.log_end(), (up_to, 0));

        promoted.promote(7).unwrap();
        assert!(promoted.is_durable(), "the flipped database writes through");
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

        // ...and reopening it as a replica finds the end of the same log, under the
        // promotion's epoch.
        let rejoined = Database::open_replica(&replica_dir).unwrap().ok().unwrap();
        assert_eq!(rejoined.log_end(), (end, 7));
        assert_eq!(rejoined.topology_epoch(), 7);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// Ships the primary's tail past the replica's last LSN as one incremental batch.
    fn ship(replica: &mut Database, primary: &Database) {
        let (records, up_to) = tail_records(primary, replica.log_end().0 + 1);
        replica.apply_batch(records, up_to, false).unwrap();
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
        let (mut replica, _) = first_batch(&primary, &replica_dir);
        for round in 0..5 {
            workload(&mut primary, round);
            ship(&mut replica, &primary);
            match round {
                1 => primary.checkpoint().unwrap(),
                2 => replica.checkpoint().unwrap(),
                _ => {}
            }
        }
        assert_eq!(replica.durable_lsn(), primary.durable_lsn(), "one LSN space");
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
        let replica = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(replica.durable_lsn(), primary.durable_lsn());
        assert_same_state(&replica, &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// Log matching with the topology epoch as the term.  A replica synced to LSN `n` is
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
        let (mut promoted, n) = first_batch(&old, &promoted_dir);
        assert_eq!(promoted.log_end(), (n, 0));
        promoted.promote(1).unwrap();
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
        let mut rejoined = Database::open_replica(&old_dir).unwrap().ok().unwrap();
        assert_eq!(rejoined.log_end(), (n + 3, 0));
        let (cut, lsn) = promoted.log_feed().unwrap().replication_cut().unwrap();
        assert_eq!(lsn, n + 5);
        rejoined.apply_batch(cut, lsn, true).unwrap();
        assert_eq!(rejoined.log_end(), (n + 5, 1));
        assert_same_state(&rejoined, &promoted, true);
        assert!(rejoined.object_by_name("Unshipped0").is_err());

        promoted.create_object("Data", "AfterRejoin").unwrap();
        ship(&mut rejoined, &promoted);
        drop(rejoined);
        let rejoined = Database::open_replica(&old_dir).unwrap().ok().unwrap();
        assert_eq!(rejoined.log_end(), (n + 6, 1));
        assert_same_state(&rejoined, &promoted, true);
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
        let (mut replica, cursor) = first_batch(&primary, &replica_dir);
        let before = replica.clone_for_snapshot();

        primary.create_object("Data", "Second").unwrap();
        primary.create_object("Data", "Third").unwrap();
        let (records, up_to) = tail_records(&primary, cursor + 2);
        assert!(replica.apply_batch(records, up_to, false).is_err(), "a gap was applied");
        let (records, up_to) = tail_records(&primary, cursor);
        assert!(replica.apply_batch(records, up_to, false).is_err(), "an overlap was applied");
        assert_eq!(replica.log_end().0, cursor);
        assert_same_state(&replica, &before, true);
        drop(replica);
        let mut replica = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(replica.log_end().0, cursor, "a refused batch reached the disk");
        ship(&mut replica, &primary);
        assert_same_state(&replica, &primary, true);
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

        let (replica, _) = first_batch(&primary, &replica_dir);
        let mut loaded = replica.clone_for_snapshot();
        assert_eq!(loaded.versions().len(), 1);
        loaded.select_version(Some(v1)).unwrap();
        assert_eq!(loaded.object(desc).unwrap().value, Value::string("v1"));
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// A reset installs the shipped frames as they are: the replica's `snapshot.db` holds the
    /// primary's snapshot frames, then its WAL frames past the snapshot, byte for byte —
    /// deletes included — and reopens as the primary's state.
    #[test]
    fn a_reset_installs_the_shipped_frames_byte_for_byte() {
        let primary_dir = temp_dir("repl-install-primary");
        let replica_dir = temp_dir("repl-install-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        for round in 0..4 {
            workload(&mut primary, round);
            if round == 1 {
                primary.checkpoint().unwrap();
            }
        }
        let (cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
        assert!(cut.iter().flat_map(|c| &c.effects).any(|(_, v)| v.is_none()), "no delete");
        drop(Database::from_first_batch(fresh(&replica_dir), cut, lsn, true).unwrap());

        let snapshot = |dir: &Path| std::fs::read(dir.join("snapshot.db")).unwrap();
        let (on_primary, on_replica) = (snapshot(&primary_dir), snapshot(&replica_dir));
        let covered = u64::from_le_bytes(on_primary[8..16].try_into().unwrap());
        assert_eq!(on_replica[8..16], lsn.to_le_bytes(), "the image covers the cut");
        let mut expected = on_primary[28..].to_vec();
        for (_, frame) in frames_by_lsn(&primary_dir).range(covered + 1..) {
            expected.extend_from_slice(frame);
        }
        assert!(on_replica[28..] == expected[..], "the installed frames differ");
        let reopened = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(reopened.log_end(), (lsn, 0));
        assert_same_state(&reopened, &primary, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// Shipped changes are logged already, so none stays in the change journal: after a
    /// stream and a promotion, the first commit logs only its own effects, not every item the
    /// replica was ever shipped.
    #[test]
    fn after_a_stream_and_a_promotion_the_first_commit_logs_only_its_own_effects() {
        let primary_dir = temp_dir("repl-journal-primary");
        let replica_dir = temp_dir("repl-journal-replica");
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        workload(&mut primary, 0);
        let (mut replica, _) = first_batch(&primary, &replica_dir);
        for round in 1..4 {
            workload(&mut primary, round);
            ship(&mut replica, &primary);
        }
        replica.promote(1).unwrap();
        let id = replica.create_object("Data", "PostPromotion").unwrap();
        let (commits, _) = tail_records(&replica, replica.durable_lsn().unwrap());
        let own = [
            codec::Key::Object(id).to_vec(),
            codec::Key::Dirty(crate::ident::ItemId::Object(id)).to_vec(),
            codec::KEY_META.as_bytes().to_vec(),
        ];
        let logged: Vec<_> = commits[0].effects.iter().map(|(key, _)| key.clone()).collect();
        assert!(logged.iter().all(|key| own.contains(key)), "{} keys logged", logged.len());
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// The last `meta` record a batch ships becomes the committed one — after a first batch,
    /// an incremental batch and a reset alike — so a later commit logs `meta` exactly when it
    /// changed.
    #[test]
    fn the_shipped_meta_becomes_the_committed_one() {
        let primary_dir = temp_dir("repl-meta-primary");
        let replica_dir = temp_dir("repl-meta-replica");
        let committed = |db: &Database| db.durability.as_ref().unwrap().committed_meta.clone();
        let mut primary = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
        workload(&mut primary, 0);
        let (mut replica, _) = first_batch(&primary, &replica_dir);
        assert!(committed(&replica) == crate::durability::encode_meta(&replica), "first batch");
        workload(&mut primary, 1);
        ship(&mut replica, &primary);
        assert!(committed(&replica) == crate::durability::encode_meta(&replica), "incremental");
        primary.checkpoint().unwrap();
        let (cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
        replica.apply_batch(cut, lsn, true).unwrap();
        assert!(committed(&replica) == crate::durability::encode_meta(&replica), "reset");
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// A reset waits for the background checkpoint in flight.  Landing at the replica's own
    /// log end, the late image of the old state would pass the checkpoint's range check and
    /// replace the installed image; instead the directory reopens as the installed state.
    #[test]
    fn a_reset_at_the_log_end_during_a_checkpoint_reopens_as_the_installed_state() {
        let old_dir = temp_dir("repl-inflight-old");
        let new_dir = temp_dir("repl-inflight-new");
        let replica_dir = temp_dir("repl-inflight-replica");
        // The old log: its creation, then one commit of many objects — an image slow to encode.
        let mut old = Database::create_durable(&old_dir, figure3_schema()).unwrap();
        old.begin_transaction().unwrap();
        for i in 0..3000 {
            old.create_object("Data", &format!("Bulk{i}")).unwrap();
        }
        old.commit_transaction().unwrap();
        // Another log of the same length.
        let mut new = Database::create_durable(&new_dir, figure3_schema()).unwrap();
        new.create_object("Data", "Installed").unwrap();
        assert_eq!(old.durable_lsn(), new.durable_lsn());

        // A replica whose every batch leaves a checkpoint due: one starts in the background as
        // the first batch lands, and the reset follows at once.
        let config = seed_storage::EngineConfig {
            checkpoint_wal_bytes: Some(1),
            ..seed_storage::EngineConfig::default()
        };
        let (engine, _) = StorageEngine::open_with(&replica_dir, config).unwrap();
        let (records, up_to) = tail_records(&old, 1);
        let mut replica = Database::from_first_batch(engine, records, up_to, false).unwrap();
        let (cut, lsn) = new.log_feed().unwrap().replication_cut().unwrap();
        assert_eq!(lsn, up_to, "the reset lands at the replica's own log end");
        replica.apply_batch(cut, lsn, true).unwrap();
        drop(replica);

        let reopened = Database::open_durable(&replica_dir).unwrap();
        assert!(reopened.object_by_name("Bulk0").is_err(), "the old state came back");
        assert_same_state(&reopened, &new, true);
        for dir in [old_dir, new_dir, replica_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
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

        let (cut, lsn) = primary.log_feed().unwrap().replication_cut().unwrap();
        assert_eq!(lsn, primary.durable_lsn().unwrap());
        let reset = Database::from_first_batch(fresh(&reset_dir), cut, lsn, true).unwrap();

        let (mut records, _) = tail_records(&twin, 1);
        records.truncate(3); // several incremental batches
        let mut cursor = records.len() as Lsn;
        let mut replay =
            Database::from_first_batch(fresh(&replay_dir), records, cursor, false).unwrap();
        while cursor < twin.durable_lsn().unwrap() {
            let (mut records, _) = tail_records(&twin, cursor + 1);
            records.truncate(3);
            cursor += records.len() as Lsn;
            replay.apply_batch(records, cursor, false).unwrap();
        }
        assert_eq!(reset.durable_lsn(), replay.durable_lsn(), "the twins number commits alike");

        let (reset_db, replay_db) = (&reset, &replay);
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
            let (cut, lsn) =
                primary.log_feed().unwrap().replication_cut().expect("the cut is served");
            let db = Database::from_first_batch(fresh(&dir), cut, lsn, true).unwrap();
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
        let (mut replica, cursor) = first_batch(&primary, &replica_dir);
        let before = replica.clone_for_snapshot();

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
        assert!(replica.apply_batch(cut, lsn, true).is_err(), "an extended o/ record was applied");
        assert_eq!(replica.log_end().0, cursor);
        assert_same_state(&replica, &before, true);
        drop(replica);
        let replica = Database::open_durable(&replica_dir).unwrap();
        assert_eq!(replica.log_end().0, cursor, "the refused reset reached the disk");
        assert_same_state(&replica, &before, true);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }
}
