//! Incremental durability: per-item write-through persistence over the WAL.
//!
//! [`Database::open_durable`] returns a database whose mutations are written through as
//! fine-grained per-item records (see [`crate::codec`] for the key layout).  The transaction
//! lives in the database alone: the store's change journal records which items a mutation
//! touched, and at the commit point the journal is drained, each touched item is encoded once,
//! and the records — `meta` last, only when it changed — go to the storage engine as **one**
//! batch ([`StorageEngine::commit`]: one WAL write, one sync):
//!
//! * outside an explicit transaction, every successful mutation **auto-commits** its batch, so
//!   the durable cost of a commit is O(items touched), not O(database);
//! * inside [`Database::begin_transaction`] … [`Database::commit_transaction`], mutations only
//!   journal; the commit drains the journal once.  The savepoint holds the journal too, so
//!   [`Database::rollback_transaction`] restores memory and what is owed to disk together,
//!   with no storage call; a commit that fails restores the savepoint the same way;
//! * version creation writes the version's delta snapshots (`v/<vid>/…`), its metadata record
//!   (`vi/<vid>`) and the drained dirty markers in the same batch.
//!
//! The storage engine keeps no copy of the data; the database in memory is the one resident
//! copy.  `encode_pairs` (**the encoder**) turns a database into its ordered key/value pairs:
//! checkpoint images and the initial write.  `Changes` (**the applier**) turns key effects into
//! database state: open-time recovery and both replica batch shapes.  Once the WAL outgrows its
//! threshold, a commit that leaves no transaction open hands an O(1) clone of the database to
//! a background thread, which encodes and writes the checkpoint holding no database lock.
//!
//! Crash contract: dropping the database (or the process) without a checkpoint loses nothing
//! that was committed — recovery replays the storage WAL, whose every record is one complete
//! transaction (one CRC-checked frame; a torn one is cut).  A crash mid-transaction
//! leaves no trace: nothing of an explicit transaction reaches the WAL before its commit.
//! `docs/DURABILITY.md` specifies the layout and the contract in full.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use seed_schema::{Schema, SchemaRegistry, SchemaVersionId};
use seed_storage::{Encoder, ImageWriter, KeyEffect, Lsn, Recovered, SnapshotImage, StorageEngine};

use crate::codec::{self, Key};
use crate::database::Database;
use crate::error::{SeedError, SeedResult};
use crate::ident::{ItemId, VersionId};
use crate::store::{DataStore, ObjectChange, RelationshipChange};
use crate::version::{ItemSnapshot, VersionInfo, VersionManager};

/// The write-through handle a durable [`Database`] carries: the storage engine, the `meta`
/// record as last committed, and the background checkpoint in flight, if any (at most one).
pub(crate) struct Durability {
    pub(crate) engine: Arc<StorageEngine>,
    /// The encoded `meta` record the log holds last.  A commit logs `meta` only when it differs
    /// from this copy, which moves only once a commit (or a shipped batch) is logged.
    pub(crate) committed_meta: Vec<u8>,
    checkpoint: Mutex<Option<JoinHandle<SeedResult<()>>>>,
}

impl Durability {
    /// Write-through over `engine`, whose log (or snapshot) last holds `committed_meta`.
    pub(crate) fn new(engine: StorageEngine, committed_meta: Vec<u8>) -> Self {
        let engine = Arc::new(engine);
        Self { engine, committed_meta, checkpoint: Default::default() }
    }

    /// Commits `effects` as one batch, with the encoded `meta` record appended last when it
    /// differs from the committed copy; it becomes the committed copy once the commit succeeded.
    pub(crate) fn commit(&mut self, mut effects: Vec<KeyEffect>, meta: Vec<u8>) -> SeedResult<()> {
        let changed = meta != self.committed_meta;
        if changed {
            effects.push((codec::KEY_META.as_bytes().to_vec(), Some(meta.clone())));
        }
        self.engine.commit(effects)?;
        if changed {
            self.committed_meta = meta;
        }
        Ok(())
    }

    fn in_flight(&self) -> std::sync::MutexGuard<'_, Option<JoinHandle<SeedResult<()>>>> {
        self.checkpoint.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for the background checkpoint in flight, if any, and returns its outcome.
    pub(crate) fn join_checkpoint(&self) -> SeedResult<()> {
        match self.in_flight().take() {
            Some(handle) => handle.join().unwrap_or_else(|_| {
                Err(SeedError::Invalid("the background checkpoint panicked".to_string()))
            }),
            None => Ok(()),
        }
    }

    /// Starts a background checkpoint when the engine reports one due and none is in flight:
    /// `view` (an O(1) clone of the committed state) is encoded at `lsn` on its own thread.
    pub(crate) fn checkpoint_in_background(&self, view: impl FnOnce() -> Database, lsn: Lsn) {
        let mut in_flight = self.in_flight();
        if in_flight.as_ref().is_some_and(|handle| !handle.is_finished())
            || !self.engine.checkpoint_due()
        {
            return;
        }
        if let Some(done) = in_flight.take() {
            // A failed checkpoint has poisoned the engine, which reports it from then on.
            let _ = done.join();
        }
        let (view, engine) = (view(), self.engine.clone());
        *in_flight =
            Some(std::thread::spawn(move || Ok(engine.checkpoint(&encode_image(&view, lsn))?)));
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        let _ = self.join_checkpoint();
    }
}

/// A snapshot of a durable database's storage state (surfaced over the server protocol so that
/// clients can observe restart recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityStatus {
    /// Directory holding the storage engine's files.
    pub path: PathBuf,
    /// Bytes currently in the WAL (recovery replay work is proportional to this).
    pub wal_bytes: u64,
}

/// The effects of one journaled item's current state: a put of its record (objects travel
/// with their inherits-links) or a delete when the item was physically removed, plus its dirty
/// marker — a put only when the dirty flag `flipped` since the last drain (an item already
/// dirty has its marker), a delete whenever the item is clean.
pub(crate) fn item_effects(
    store: &DataStore,
    (item, flipped): (ItemId, bool),
    effects: &mut Vec<KeyEffect>,
) {
    let (key, record) = match item {
        ItemId::Object(id) => (
            Key::Object(id),
            store.object(id).map(|record| {
                let inherits = store.inherited_patterns(id);
                codec::encoded(|e| codec::encode_object_entry(e, record, &inherits))
            }),
        ),
        ItemId::Relationship(id) => (
            Key::Relationship(id),
            store
                .relationship(id)
                .map(|record| codec::encoded(|e| codec::encode_relationship(e, record))),
        ),
    };
    effects.push((key.to_vec(), record));
    // The on-disk dirty markers mirror the in-memory dirty set, so that a reopened database
    // still knows which items the next version snapshot must record.
    if !store.dirty_items().contains_key(&item) {
        effects.push((Key::Dirty(item).to_vec(), None));
    } else if flipped {
        effects.push((Key::Dirty(item).to_vec(), Some(Vec::new())));
    }
}

/// The `meta` record describing `db`'s current state.
fn meta_record(db: &Database) -> codec::MetaRecord {
    let (schemas, store, versions, rules) = db.parts();
    let (object_floor, relationship_floor) = store.id_floor();
    codec::MetaRecord {
        format: codec::FORMAT_VERSION,
        object_floor,
        relationship_floor,
        current_schema: schemas.current_id(),
        rules: rules.to_vec(),
        last_created: versions.last_created().cloned(),
        version_seq: versions.seq(),
        epoch: db.topology_epoch(),
        fenced_to: db.fenced_to().map(str::to_string),
        epochs: db.epoch_history().to_vec(),
    }
}

/// The encoded `meta` record of `db`'s current state.
pub(crate) fn encode_meta(db: &Database) -> Vec<u8> {
    let meta = meta_record(db);
    codec::encoded(|e| codec::encode_meta(e, &meta))
}

/// **The encoder**: hands every record of `db` to `sink` as a `(key, value)` pair, in key
/// order, out of two reused buffers — no allocation per item.  Callers make sure no transaction
/// is open and no alternative is checked out, so `db` is exactly its committed state.
pub(crate) fn encode_pairs(db: &Database, sink: &mut dyn FnMut(&[u8], &[u8])) {
    let (schemas, store, versions, _) = db.parts();
    let (mut key, mut value) = (Encoder::new(), Encoder::new());
    let mut out = |k: Key, write_value: &dyn Fn(&mut Encoder)| {
        key.clear();
        k.write_to(&mut key);
        value.clear();
        write_value(&mut value);
        sink(key.as_slice(), value.as_slice());
    };
    // Key order: d/ < meta < o/ < r/ < s/ < v/ < vi/.
    for item in store.dirty_items().keys() {
        out(Key::Dirty(*item), &|_| {});
    }
    let meta = meta_record(db);
    out(Key::Meta, &|e| codec::encode_meta(e, &meta));
    for record in store.all_objects() {
        let inherits = store.inherited_patterns(record.id);
        out(Key::Object(record.id), &|e| codec::encode_object_entry(e, record, &inherits));
    }
    for record in store.all_relationships() {
        out(Key::Relationship(record.id), &|e| codec::encode_relationship(e, record));
    }
    for id in schemas.version_ids() {
        let schema = schemas.get(id).expect("listed versions exist");
        out(Key::Schema(id), &|e| codec::encode_schema(e, schema));
    }
    // Version ids do not sort like their key text (`10.0` < `2.0`, `1.0.1/` < `1.0/`), so
    // both version ranges are sorted by the text their keys carry.
    let mut prefixes: HashMap<&VersionId, String> = HashMap::new();
    for (id, _, _) in versions.deltas() {
        prefixes.entry(id).or_insert_with(|| format!("{id}/"));
    }
    let mut deltas: Vec<(&str, ItemId, &VersionId, &ItemSnapshot)> = versions
        .deltas()
        .map(|(id, item, snapshot)| (prefixes[id].as_str(), item, id, snapshot))
        .collect();
    deltas.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    for (_, item, id, snapshot) in deltas {
        out(Key::VersionDelta(id, item), &|e| codec::encode_item_snapshot(e, snapshot));
    }
    let mut infos: Vec<(String, &VersionInfo)> =
        versions.versions().into_iter().map(|info| (info.id.to_string(), info)).collect();
    infos.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (_, info) in infos {
        out(Key::VersionInfo(&info.id), &|e| codec::encode_version_info(e, info));
    }
}

/// The checkpoint image of `db` covering the WAL up to `lsn`.
pub(crate) fn encode_image(db: &Database, lsn: Lsn) -> SnapshotImage {
    let mut writer = ImageWriter::new(lsn);
    encode_pairs(db, &mut |key, value| writer.put(key, value));
    writer.finish()
}

/// Decoded key effects: **the applier**'s input.  Decoding is the only step that can fail, and
/// it touches no state; [`Changes::apply`] cannot fail.
#[derive(Default)]
pub(crate) struct Changes {
    objects: Vec<ObjectChange>,
    relationships: Vec<RelationshipChange>,
    dirty: Vec<(ItemId, bool)>,
    schemas: Vec<(SchemaVersionId, Schema)>,
    infos: Vec<(VersionId, Option<VersionInfo>)>,
    deltas: Vec<(VersionId, ItemId, Option<ItemSnapshot>)>,
    meta: Option<codec::MetaRecord>,
}

impl Changes {
    /// Decodes key effects (`None` = deleted), in log order.  `known` is the schema registry
    /// the changes will be applied to (`None` for a fresh database): the meta record's current
    /// schema must exist there or in the effects themselves.
    pub(crate) fn decode<'a>(
        effects: impl IntoIterator<Item = &'a KeyEffect>,
        known: Option<&SchemaRegistry>,
    ) -> SeedResult<Self> {
        let mut changes = Self::default();
        for (key, value) in effects {
            let value = value.as_deref();
            let kept = |what: &str| {
                value.ok_or_else(|| SeedError::Invalid(format!("{what} is never deleted")))
            };
            if key.starts_with(codec::PREFIX_OBJECT) {
                let entry = value.map(codec::decode_object_entry).transpose()?;
                changes.objects.push((codec::parse_object_key(key)?, entry));
            } else if key.starts_with(codec::PREFIX_RELATIONSHIP) {
                let entry = value.map(codec::decode_relationship_entry).transpose()?;
                changes.relationships.push((codec::parse_relationship_key(key)?, entry));
            } else if key.starts_with(codec::PREFIX_DIRTY) {
                changes.dirty.push((codec::parse_dirty_key(key)?, value.is_some()));
            } else if key.starts_with(codec::PREFIX_SCHEMA) {
                let schema = codec::decode_schema_entry(kept("a schema version")?)?;
                changes.schemas.push((codec::parse_schema_key(key)?, schema));
            } else if key.starts_with(codec::PREFIX_VERSION_INFO) {
                let info = value.map(codec::decode_version_info).transpose()?;
                changes.infos.push((codec::parse_version_info_key(key)?, info));
            } else if key.starts_with(codec::PREFIX_VERSION_DELTA) {
                let (vid, item) = codec::parse_version_delta_key(key)?;
                let snapshot = value.map(codec::decode_item_snapshot).transpose()?;
                changes.deltas.push((vid, item, snapshot));
            } else if key == codec::KEY_META.as_bytes() {
                changes.meta = Some(codec::decode_meta(kept("the meta record")?)?);
            }
            // A key outside the layout carries no database state.
        }
        if let Some(meta) = &changes.meta {
            let current = meta.current_schema;
            if !changes.schemas.iter().any(|(id, _)| *id == current)
                && !known.is_some_and(|registry| registry.get(current).is_ok())
            {
                return Err(SeedError::Invalid(format!("meta names unknown schema {current}")));
            }
        }
        Ok(changes)
    }

    /// Objects plus relationships changed — the per-item cost of applying the batch.
    pub(crate) fn items(&self) -> usize {
        self.objects.len() + self.relationships.len()
    }

    /// Brings `db` to the decoded state, O(changes): item records through the store's
    /// ordinary mutators (so every index follows), then dirty markers, schema versions,
    /// version records and the meta record.
    pub(crate) fn apply(self, db: &mut Database) {
        let store = db.store_mut();
        store.apply_changes(self.objects, self.relationships);
        for (item, dirty) in self.dirty {
            store.sync_dirty_mark(item, dirty);
        }
        if !self.schemas.is_empty() {
            let registry = db.schemas_mut();
            for (id, schema) in self.schemas {
                registry.insert(id, schema);
            }
        }
        if !self.infos.is_empty() || !self.deltas.is_empty() {
            let versions = db.versions_mut();
            for (id, info) in self.infos {
                versions.set_info(id, info);
            }
            for (id, item, snapshot) in self.deltas {
                versions.set_delta(id, item, snapshot);
            }
        }
        let Some(meta) = self.meta else { return };
        db.store_mut().raise_id_floor(meta.object_floor, meta.relationship_floor);
        if db.schema_registry().current_id() != meta.current_schema {
            db.schemas_mut()
                .select(meta.current_schema)
                .expect("decoding checked that the current schema exists");
        }
        let versions = db.version_manager();
        if versions.seq() != meta.version_seq
            || versions.last_created() != meta.last_created.as_ref()
        {
            db.versions_mut().set_counters(meta.last_created, meta.version_seq);
        }
        db.set_transition_rules(meta.rules);
        db.set_topology(meta.epoch, meta.fenced_to, meta.epochs);
    }

    /// A fresh database holding exactly the decoded state (recovery, replica resets).
    pub(crate) fn into_database(mut self) -> SeedResult<Database> {
        if self.meta.is_none() {
            return Err(SeedError::NotFound("missing key 'meta'".to_string()));
        }
        let first = self.schemas.iter().position(|(id, _)| id.0 == 1).ok_or_else(|| {
            SeedError::Invalid("persisted database has no first schema version".to_string())
        })?;
        let (_, schema) = self.schemas.remove(first);
        let mut db = Database::from_parts(
            SchemaRegistry::new(schema),
            DataStore::new(),
            VersionManager::new(),
            Vec::new(),
        );
        self.apply(&mut db);
        Ok(db)
    }
}

/// Open-time recovery: the recovered effects (the snapshot's, then those logged
/// after it) applied to an empty database.
pub(crate) fn recover(recovered: &Recovered) -> SeedResult<Database> {
    Changes::decode(&recovered.effects, None)?.into_database()
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A fresh, empty temp directory for one durable-database test.
    pub(crate) fn temp_dir(name: &str) -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("seed-durable-test-{}-{name}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The key space the encoder derives from a database.
    pub(crate) fn encoder_pairs(db: &Database) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut pairs = Vec::new();
        encode_pairs(db, &mut |key, value| pairs.push((key.to_vec(), value.to_vec())));
        pairs
    }

    /// Structural equality of two databases: records, links, versions, rules and floors.
    /// `strict` (id floors and dirty set) is off for crash points inside an open transaction,
    /// where the id floors may be lower (ids allocated by the lost transaction never became
    /// durable and are safely reusable).
    pub(crate) fn assert_same_state(a: &Database, b: &Database, strict: bool) {
        let sorted_objects = |db: &Database| {
            let mut v: Vec<_> = db.store().all_objects().cloned().collect();
            v.sort_by_key(|o| o.id);
            v
        };
        let sorted_rels = |db: &Database| {
            let mut v: Vec<_> = db.store().all_relationships().cloned().collect();
            v.sort_by_key(|r| r.id);
            v
        };
        assert_eq!(sorted_objects(a), sorted_objects(b), "object records differ");
        assert_eq!(sorted_rels(a), sorted_rels(b), "relationship records differ");
        assert_eq!(
            a.store().all_inherits_links(),
            b.store().all_inherits_links(),
            "inherits links differ"
        );
        let infos = |db: &Database| -> Vec<crate::version::VersionInfo> {
            db.versions().into_iter().cloned().collect()
        };
        assert_eq!(infos(a), infos(b), "version metadata differs");
        assert_eq!(a.transition_rules(), b.transition_rules(), "transition rules differ");
        assert_eq!(a.schema(), b.schema(), "current schema differs");
        if strict {
            assert_eq!(a.store().id_floor(), b.store().id_floor(), "id floors differ");
            let dirty =
                |db: &Database| db.store().dirty_items().keys().copied().collect::<Vec<ItemId>>();
            assert_eq!(dirty(a), dirty(b), "dirty sets differ");
        }
        // Index rebuild: the extents and adjacency lists match the records on both sides, and
        // every live object is reachable through the rebuilt name index.
        a.store().assert_derived_maps_match_records();
        b.store().assert_derived_maps_match_records();
        for record in a.store().all_objects().filter(|o| !o.deleted) {
            assert_eq!(
                a.store().object_by_name(&record.name.to_string()).map(|o| o.id),
                Some(record.id),
                "name index misses '{}'",
                record.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{assert_same_state, temp_dir};
    use super::*;
    use crate::index::ValueOp;
    use crate::value::Value;
    use seed_schema::{figure2_schema, figure3_schema};
    use seed_storage::StorageResult;

    #[test]
    fn create_mutate_reopen_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        assert!(db.is_durable());
        assert_eq!(db.durable_path().unwrap(), dir.as_path());
        let alarms = db.create_object("Thing", "Alarms").unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        db.reclassify_object(alarms, "OutputData").unwrap();
        let rel = db.create_relationship("Write", &[("to", alarms), ("by", sensor)]).unwrap();
        db.set_relationship_attribute(rel, "NumberOfWrites", Value::Integer(2)).unwrap();
        let desc = db.create_dependent(sensor, "Description", Value::string("reads")).unwrap();
        db.rename_object(sensor, "MainSensor").unwrap();

        // Simulated crash: no checkpoint, no close — recovery comes from the WAL.
        drop(db);
        let recovered = Database::open_durable(&dir).unwrap();
        assert_eq!(recovered.object_count(), 3);
        assert_eq!(recovered.relationship_count(), 1);
        assert_eq!(recovered.object_by_name("MainSensor.Description").unwrap().id, desc);
        assert_eq!(
            recovered.relationship(rel).unwrap().attributes.get("NumberOfWrites"),
            Some(&Value::Integer(2))
        );
        // The value index was rebuilt by recovery.
        let hits =
            recovered.objects_by_value("Action.Description", true, ValueOp::Eq, "reads").unwrap();
        assert_eq!(hits.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_durable_requires_existing_database_and_create_rejects_existing() {
        let dir = temp_dir("guards");
        assert!(matches!(Database::open_durable(&dir), Err(SeedError::NotFound(_))));
        let db = Database::create_durable(&dir, figure2_schema()).unwrap();
        drop(db);
        assert!(matches!(
            Database::create_durable(&dir, figure2_schema()),
            Err(SeedError::Invalid(_))
        ));
        assert!(Database::open_durable(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_transaction_is_one_storage_transaction() {
        let dir = temp_dir("txn");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        db.create_object("Data", "Kept").unwrap();

        // Committed transaction: all staged records become durable together.
        db.begin_transaction().unwrap();
        let a = db.create_object("Data", "InTxn").unwrap();
        db.set_value(db.object_by_name("InTxn").unwrap().id, Value::Undefined).unwrap();
        db.create_object("Action", "AlsoInTxn").unwrap();
        db.commit_transaction().unwrap();
        let _ = a;

        // Rolled-back transaction: the savepoint restore drops its journal, so nothing logs.
        db.begin_transaction().unwrap();
        db.create_object("Data", "RolledBack").unwrap();
        db.rollback_transaction().unwrap();

        drop(db);
        let recovered = Database::open_durable(&dir).unwrap();
        assert!(recovered.object_by_name("InTxn").is_ok());
        assert!(recovered.object_by_name("AlsoInTxn").is_ok());
        assert!(recovered.object_by_name("RolledBack").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_transactional_ops_survive_a_rolled_back_transaction() {
        // `publish_schema` and `delete_version` take effect in memory immediately and are not
        // undoable, so their durable records must commit independently of the open transaction
        // — staging them into it would desynchronize disk from memory on rollback (a meta
        // record pointing at a never-written schema version makes the directory unopenable).
        let dir = temp_dir("non-txn-ops");
        let mut db = Database::create_durable(&dir, figure2_schema()).unwrap();
        db.create_object("Data", "Keep").unwrap();
        let v1 = db.create_version("one").unwrap();
        db.create_object("Data", "Churn").unwrap();
        let v2 = db.create_version("two").unwrap();

        db.begin_transaction().unwrap();
        db.create_object("Data", "RolledBack").unwrap();
        let published = db.publish_schema(figure3_schema()).unwrap();
        db.delete_version(&v1).unwrap();
        db.rollback_transaction().unwrap();

        // In memory: the schema is published and v1 is gone, the object is not.
        assert_eq!(db.schema().name, "Figure3");
        assert!(db.version_info(&v1).is_err());
        assert!(db.object_by_name("RolledBack").is_err());

        drop(db);
        let recovered = Database::open_durable(&dir).unwrap();
        assert_eq!(recovered.schema().name, "Figure3", "published schema survives the rollback");
        assert_eq!(recovered.schema_registry().current_id(), published);
        assert!(recovered.version_info(&v1).is_err(), "deleted version must not resurrect");
        assert!(recovered.version_info(&v2).is_ok());
        assert_eq!(recovered.versions().len(), 1);
        assert!(recovered.object_by_name("RolledBack").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn side_committed_meta_is_not_overwritten_by_a_committing_transaction() {
        // A transaction stages meta once, at commit; a non-transactional side-commit
        // (publish_schema) inside the transaction writes a *fresher* meta in its own storage
        // transaction.  Committing the outer transaction must not replay a stale meta copy
        // over the side-committed one.
        let dir = temp_dir("meta-ordering");
        let mut db = Database::create_durable(&dir, figure2_schema()).unwrap();
        db.begin_transaction().unwrap();
        db.create_object("Data", "BeforePublish").unwrap(); // raises the id floor
        let published = db.publish_schema(figure3_schema()).unwrap(); // side-commits fresh meta
        db.commit_transaction().unwrap();
        drop(db);
        let recovered = Database::open_durable(&dir).unwrap();
        assert_eq!(recovered.schema().name, "Figure3");
        assert_eq!(recovered.schema_registry().current_id(), published);
        assert!(recovered.object_by_name("BeforePublish").is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn return_to_current_requires_finished_transaction() {
        let dir = temp_dir("alt-txn-guard");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        db.create_object("Data", "Main").unwrap();
        let v1 = db.create_version("base").unwrap();
        db.checkout_alternative(v1).unwrap();
        db.begin_transaction().unwrap();
        assert!(matches!(db.return_to_current(), Err(SeedError::Transaction(_))));
        db.rollback_transaction().unwrap();
        db.return_to_current().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn returning_from_an_alternative_keeps_its_ids_burned() {
        let dir = temp_dir("alt-ids");
        for durable in [false, true] {
            let mut db = if durable {
                Database::create_durable(&dir, figure3_schema()).unwrap()
            } else {
                Database::new(figure3_schema())
            };
            db.create_object("Data", "Main").unwrap();
            let v1 = db.create_version("1.0").unwrap();
            db.checkout_alternative(v1).unwrap();
            let alt_only = db.create_object("Data", "AltOnly").unwrap();
            let alt = db.create_version("alternative").unwrap();
            assert_eq!(alt.to_string(), "1.0.1");
            db.return_to_current().unwrap();
            let main_after = db.create_object("Data", "MainAfter").unwrap();
            let check = |db: &Database| {
                assert_ne!(main_after, alt_only, "mainline reused an alternative's object id");
                let versions: Vec<_> =
                    db.versions_of_object(main_after, None).into_iter().map(|(v, _)| v).collect();
                assert!(!versions.contains(&alt), "{versions:?} merges AltOnly's history");
            };
            check(&db);
            if durable {
                drop(db);
                check(&Database::open_durable(&dir).unwrap());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_transaction_writes_nothing() {
        let dir = temp_dir("empty-txn");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        db.create_object("Data", "Committed").unwrap();
        let before = db.durable_lsn();
        db.begin_transaction().unwrap();
        db.commit_transaction().unwrap();
        assert_eq!(db.durable_lsn(), before, "an empty transaction logged a commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_inside_open_transaction_loses_only_the_transaction() {
        let dir = temp_dir("crash-txn");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        db.create_object("Data", "Committed").unwrap();
        db.begin_transaction().unwrap();
        db.create_object("Data", "Uncommitted").unwrap();
        // Crash with the transaction open: nothing of it reached the WAL, so recovery must
        // surface only the committed prefix.
        drop(db);
        let recovered = Database::open_durable(&dir).unwrap();
        assert!(recovered.object_by_name("Committed").is_ok());
        assert!(recovered.object_by_name("Uncommitted").is_err());
        assert!(!recovered.in_transaction());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn versions_and_views_survive_restart() {
        let dir = temp_dir("versions");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        let handler = db.create_object("Action", "AlarmHandler").unwrap();
        let desc = db.create_dependent(handler, "Description", Value::string("v1 text")).unwrap();
        let v1 = db.create_version("first").unwrap();
        db.set_value(desc, Value::string("v2 text")).unwrap();
        let v2 = db.create_version("second").unwrap();
        db.set_value(desc, Value::string("current text")).unwrap();

        drop(db);
        let mut recovered = Database::open_durable(&dir).unwrap();
        assert_eq!(recovered.versions().len(), 2);
        assert_eq!(recovered.version_info(&v2).unwrap().parent, Some(v1.clone()));
        recovered.select_version(Some(v1.clone())).unwrap();
        assert_eq!(recovered.object(desc).unwrap().value, Value::string("v1 text"));
        recovered.select_version(None).unwrap();
        assert_eq!(recovered.object(desc).unwrap().value, Value::string("current text"));
        // Version numbering continues where it left off.
        let v3 = recovered.create_version("third").unwrap();
        assert_eq!(v3.to_string(), "3.0");
        // Deleting a version removes its records durably.
        recovered.delete_version(&v2).unwrap();
        drop(recovered);
        let recovered = Database::open_durable(&dir).unwrap();
        assert_eq!(recovered.versions().len(), 2);
        assert!(recovered.version_info(&v2).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn alternative_versions_persist_but_scratch_state_does_not() {
        let dir = temp_dir("alternative");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        let handler = db.create_object("Action", "AlarmHandler").unwrap();
        let desc = db.create_dependent(handler, "Description", Value::string("mainline")).unwrap();
        let v1 = db.create_version("base").unwrap();
        db.set_value(desc, Value::string("mainline v2")).unwrap();

        db.checkout_alternative(v1.clone()).unwrap();
        db.set_value(desc, Value::string("alternative design")).unwrap();
        let alt = db.create_version("alt").unwrap();
        assert_eq!(alt.to_string(), "1.0.1");
        db.return_to_current().unwrap();

        drop(db);
        let mut recovered = Database::open_durable(&dir).unwrap();
        // The current state is the mainline state, untouched by the alternative's edits.
        assert_eq!(recovered.object(desc).unwrap().value, Value::string("mainline v2"));
        // The alternative's snapshot is durable and reconstructible.
        recovered.select_version(Some(alt.clone())).unwrap();
        assert_eq!(recovered.object(desc).unwrap().value, Value::string("alternative design"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pattern_inheritance_round_trips() {
        let dir = temp_dir("patterns");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        let manager = db.create_object("Action", "Manager").unwrap();
        let pattern = db.create_pattern_object("Data", "StandardInput").unwrap();
        db.create_pattern_relationship("Access", &[("from", pattern), ("by", manager)]).unwrap();
        let a = db.create_object("Data", "SensorInput").unwrap();
        db.inherit_pattern(a, pattern).unwrap();

        drop(db);
        let recovered = Database::open_durable(&dir).unwrap();
        assert_eq!(recovered.inherited_patterns(a), vec![pattern]);
        let rels = recovered.relationships(a);
        assert_eq!(rels.len(), 1);
        assert!(rels[0].is_inherited());
        assert_eq!(rels[0].record.bound("by"), Some(manager));
        // Un-inheriting is durable too (the object entry is re-written without the link).
        let mut recovered = recovered;
        recovered.uninherit_pattern(a, pattern).unwrap();
        drop(recovered);
        let recovered = Database::open_durable(&dir).unwrap();
        assert!(recovered.inherited_patterns(a).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_status_and_checkpoint() {
        let dir = temp_dir("status");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        db.create_object("Data", "X").unwrap();
        let status = db.durability_status().unwrap();
        assert_eq!(status.path, dir);
        assert!(status.wal_bytes > 0, "committed mutations sit in the WAL");
        db.checkpoint().unwrap();
        let status = db.durability_status().unwrap();
        assert_eq!(status.wal_bytes, 0, "checkpoint truncates the WAL");
        // In-memory databases have no durability to speak of.
        let mem = Database::new(figure3_schema());
        assert!(mem.durability_status().is_none());
        assert!(mem.checkpoint().is_err());
        assert!(!mem.is_durable());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// In-memory segments whose next segment sync, or next snapshot write (the image's own
    /// sync), fails on demand.
    #[derive(Default)]
    struct FlakyIo {
        inner: seed_storage::MemorySegmentIo,
        fail_sync: std::sync::atomic::AtomicBool,
        fail_snapshot: std::sync::atomic::AtomicBool,
    }

    impl FlakyIo {
        fn injected(flag: &std::sync::atomic::AtomicBool, what: &str) -> StorageResult<()> {
            if flag.swap(false, std::sync::atomic::Ordering::SeqCst) {
                let failed = std::io::Error::other(format!("injected {what} failure"));
                return Err(seed_storage::StorageError::Io(failed));
            }
            Ok(())
        }
    }

    impl seed_storage::SegmentIo for FlakyIo {
        fn list(&self) -> seed_storage::StorageResult<Vec<seed_storage::SegmentId>> {
            self.inner.list()
        }
        fn read(&self, id: seed_storage::SegmentId) -> seed_storage::StorageResult<Vec<u8>> {
            self.inner.read(id)
        }
        fn create(&self, id: seed_storage::SegmentId, initial: &[u8]) -> StorageResult<()> {
            self.inner.create(id, initial)
        }
        fn append(&self, id: seed_storage::SegmentId, bytes: &[u8]) -> StorageResult<()> {
            self.inner.append(id, bytes)
        }
        fn sync(&self, id: seed_storage::SegmentId) -> StorageResult<()> {
            Self::injected(&self.fail_sync, "sync")?;
            self.inner.sync(id)
        }
        fn truncate(&self, id: seed_storage::SegmentId, len: u64) -> StorageResult<()> {
            self.inner.truncate(id, len)
        }
        fn delete(&self, id: seed_storage::SegmentId) -> StorageResult<()> {
            self.inner.delete(id)
        }
        fn write_snapshot(&self, image: &[u8]) -> StorageResult<()> {
            Self::injected(&self.fail_snapshot, "snapshot sync")?;
            self.inner.write_snapshot(image)
        }
        fn read_snapshot(&self) -> StorageResult<Option<Vec<u8>>> {
            self.inner.read_snapshot()
        }
    }

    /// A durable database over `io` holding one committed object, `Kept`.
    fn flaky_database(io: &std::sync::Arc<FlakyIo>) -> Database {
        let config = seed_storage::EngineConfig::default();
        let (engine, recovered) = StorageEngine::with_io(io.clone(), config).unwrap();
        let mut db = Database::create_recovered(engine, &recovered, figure3_schema()).unwrap();
        db.create_object("Data", "Kept").unwrap();
        db
    }

    /// What a restart over `io` recovers.
    fn reopen(io: std::sync::Arc<FlakyIo>) -> Database {
        let config = seed_storage::EngineConfig::default();
        let (engine, recovered) = StorageEngine::with_io(io, config).unwrap();
        Database::open_recovered(engine, &recovered).unwrap()
    }

    #[test]
    fn a_failed_commit_leaves_memory_the_resync_cut_and_a_reopen_in_agreement() {
        let dirty = |db: &Database| db.store().dirty_items().keys().copied().collect::<Vec<_>>();
        let io = std::sync::Arc::new(FlakyIo::default());
        let mut db = flaky_database(&io);
        let floors = db.store().id_floor();
        db.begin_transaction().unwrap();
        db.create_object("Data", "Lost").unwrap();
        io.fail_sync.store(true, std::sync::atomic::Ordering::SeqCst);
        match db.commit_transaction() {
            Err(SeedError::Storage(seed_storage::StorageError::Io(_))) => {}
            other => panic!("the commit's sync failure must surface, got {other:?}"),
        }
        // The transaction is rolled back in memory: it is gone, and its ids stay burned.
        assert!(!db.in_transaction());
        assert!(db.object_by_name("Lost").is_err(), "the failed transaction is still live");
        assert!(db.object_by_name("Kept").is_ok());
        assert!(db.store().id_floor() > floors, "the rolled-back ids were reused");
        // The poisoned engine refuses the resync cut and further transactions.
        assert!(matches!(db.log_feed().unwrap().replication_cut(), Err(SeedError::Storage(_))));
        assert!(matches!(db.begin_transaction(), Err(SeedError::Storage(_))));
        let live = db.clone_for_snapshot();
        drop(db);
        let reopened = reopen(io);
        assert_same_state(&live, &reopened, false);
        assert_eq!(dirty(&live), dirty(&reopened), "dirty sets differ");

        // A failed auto-commit leaves its mutation in memory, ahead of the log: the resync cut
        // must not ship it either.
        let io = std::sync::Arc::new(FlakyIo::default());
        let mut db = flaky_database(&io);
        io.fail_sync.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(matches!(db.create_object("Data", "Ahead"), Err(SeedError::Storage(_))));
        match db.log_feed().unwrap().replication_cut() {
            Err(SeedError::Storage(seed_storage::StorageError::Poisoned(reason))) => {
                assert!(reason.contains("commit"), "{reason}")
            }
            Err(other) => panic!("expected the engine's poison, got {other}"),
            Ok(_) => panic!("a poisoned primary handed out its resync cut"),
        }
        drop(db);
        assert!(reopen(io).object_by_name("Ahead").is_err());
    }

    #[test]
    fn poison_after_a_failed_background_checkpoint_keeps_every_acknowledged_commit() {
        let io = std::sync::Arc::new(FlakyIo::default());
        let config =
            seed_storage::EngineConfig { checkpoint_wal_bytes: Some(2048), ..Default::default() };
        let (engine, recovered) = StorageEngine::with_io(io.clone(), config.clone()).unwrap();
        let mut db = Database::create_recovered(engine, &recovered, figure3_schema()).unwrap();
        io.fail_snapshot.store(true, std::sync::atomic::Ordering::SeqCst);
        // Commit until a background checkpoint has failed and poisoned the engine.
        let mut acked = 0;
        let reason = loop {
            assert!(acked < 10_000, "no checkpoint ever became due");
            match db.create_object("Data", &format!("D{acked}")) {
                Ok(_) => acked += 1,
                Err(SeedError::Storage(seed_storage::StorageError::Poisoned(reason))) => {
                    break reason
                }
                Err(other) => panic!("commit {acked} failed with {other}"),
            }
        };
        assert!(reason.contains("checkpoint"), "{reason}");
        assert!(!db.wal_writable());
        assert!(db.wal_fault().unwrap().contains("poisoned"));
        assert!(matches!(db.begin_transaction(), Err(SeedError::Storage(_))));
        drop(db);
        let (engine, recovered) = StorageEngine::with_io(io, config).unwrap();
        let reopened = Database::open_recovered(engine, &recovered).unwrap();
        assert_eq!(reopened.object_count(), acked, "exactly the acknowledged commits");
        assert!(reopened.object_by_name(&format!("D{}", acked - 1)).is_ok());
    }

    #[test]
    fn commits_past_the_threshold_checkpoint_in_the_background() {
        let dir = temp_dir("background");
        let config = seed_storage::EngineConfig {
            checkpoint_wal_bytes: Some(4096),
            ..seed_storage::EngineConfig::default()
        };
        let mut db = Database::create_durable_with(&dir, figure3_schema(), config.clone()).unwrap();
        for i in 0..300 {
            db.create_object("Data", &format!("D{i:03}")).unwrap();
        }
        db.checkpoint().unwrap(); // joins the one in flight, then quiesces
        assert!(dir.join("snapshot.db").exists());
        let live = db.clone_for_snapshot();
        drop(db);
        let reopened = Database::open_durable_with(&dir, config).unwrap();
        assert_same_state(&live, &reopened, true);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_commit_durable_cost_is_o_delta() {
        // The acceptance criterion behind E10: committing one object mutation writes a bounded
        // handful of keys, not the whole database.  We verify the structural half here (the
        // timing half is the benchmark): the WAL grows by O(1) records per mutation regardless
        // of database size.
        let dir = temp_dir("odelta");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        for i in 0..500 {
            db.create_object("Data", &format!("Data{i:04}")).unwrap();
        }
        db.checkpoint().unwrap();
        let before = db.durability_status().unwrap().wal_bytes;
        db.set_value(db.object_by_name("Data0000").unwrap().id, Value::Undefined).unwrap();
        let after = db.durability_status().unwrap().wal_bytes;
        let delta = after - before;
        assert!(
            delta < 2048,
            "one mutation must cost O(delta) WAL bytes, not O(database); got {delta}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One logged commit's effects, as `(kind, key)` pairs.
    type Logged = Vec<(&'static str, Vec<u8>)>;

    /// Runs `work` and returns the commits it logged, one WAL record each.
    fn logged(db: &mut Database, work: impl FnOnce(&mut Database)) -> Vec<Logged> {
        let from = db.durable_lsn().unwrap() + 1;
        work(db);
        let seed_storage::WalTail::Records(commits) =
            db.log_feed().unwrap().wal_tail(from).unwrap()
        else {
            panic!("the tail past the last commit is in the log")
        };
        let kind = |(key, value): KeyEffect| (if value.is_some() { "put" } else { "delete" }, key);
        commits
            .into_iter()
            .map(|(_, commit)| commit.effects.into_iter().map(kind).collect())
            .collect()
    }

    #[test]
    fn checkin_record_set_of_a_value_on_a_dirty_item_is_its_record_alone() {
        let dir = temp_dir("record-set-value");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        let desc = db.create_dependent(sensor, "Description", Value::string("reads")).unwrap();
        assert!(db.store().dirty_items().contains_key(&ItemId::Object(desc)));
        let commits = logged(&mut db, |db| {
            db.begin_transaction().unwrap();
            db.set_value(desc, Value::string("writes")).unwrap();
            db.commit_transaction().unwrap();
        });
        assert_eq!(
            commits,
            vec![vec![("put", Key::Object(desc).to_vec())]],
            "meta is unchanged and the item already dirty: one record holding the item's put"
        );
        // The same holds outside a transaction (auto-commit).
        let again = logged(&mut db, |db| db.set_value(desc, Value::string("again")).unwrap());
        assert_eq!(again, commits, "{again:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkin_record_set_logs_meta_once_as_the_last_put() {
        let dir = temp_dir("record-set-meta");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        let commits = logged(&mut db, |db| {
            db.begin_transaction().unwrap();
            let sensor = db.create_object("Action", "Sensor").unwrap();
            let desc = db.create_dependent(sensor, "Description", Value::string("0")).unwrap();
            for n in 1..=5 {
                db.set_value(desc, Value::string(n.to_string())).unwrap();
            }
            db.commit_transaction().unwrap();
        });
        let [records] = &commits[..] else { panic!("one transaction, one record: {commits:?}") };
        let meta = codec::KEY_META.as_bytes().to_vec();
        let metas = records.iter().filter(|(kind, key)| *kind == "put" && *key == meta).count();
        assert_eq!(metas, 1, "one meta put per transaction: {records:?}");
        let mut puts: Vec<&Vec<u8>> =
            records.iter().filter(|(kind, _)| *kind == "put").map(|(_, key)| key).collect();
        let logged_puts = puts.len();
        puts.sort();
        puts.dedup();
        assert_eq!(puts.len(), logged_puts, "a key put twice in one transaction: {records:?}");
        assert_eq!(records.last(), Some(&("put", meta)), "meta is the last put");
        drop(db);
        let reopened = Database::open_durable(&dir).unwrap();
        let desc = reopened.object_by_name("Sensor.Description").unwrap().id;
        assert_eq!(reopened.value(desc), Value::string("5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkin_record_set_remarks_an_item_dirtied_after_a_version() {
        let dir = temp_dir("record-set-dirty");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        let desc = db.create_dependent(sensor, "Description", Value::string("v1")).unwrap();
        db.create_version("one").unwrap();
        assert!(db.store().dirty_items().is_empty(), "the version drained the dirty set");
        let marker = Key::Dirty(ItemId::Object(desc)).to_vec();
        let commits = logged(&mut db, |db| db.set_value(desc, Value::string("v2")).unwrap());
        let [records] = &commits[..] else { panic!("one mutation, one record: {commits:?}") };
        assert!(records.contains(&("put", marker.clone())), "a flip is marked: {records:?}");
        let commits = logged(&mut db, |db| db.set_value(desc, Value::string("v3")).unwrap());
        let [records] = &commits[..] else { panic!("one mutation, one record: {commits:?}") };
        assert!(!records.iter().any(|(_, key)| *key == marker), "no flip, no marker: {records:?}");
        // The reopened database knows the item belongs in the next version's delta.
        let live = db.clone_for_snapshot();
        drop(db);
        let reopened = Database::open_durable(&dir).unwrap();
        assert!(reopened.store().dirty_items().contains_key(&ItemId::Object(desc)));
        assert_same_state(&live, &reopened, true);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory whose meta record is format 1 (no epoch history) fails the open, as a
    /// primary and as a replica, with an error naming both formats, and nothing in it
    /// changes.
    #[test]
    fn a_format_1_meta_is_refused_naming_both_formats_and_nothing_changes() {
        let dir = temp_dir("format-1");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        db.create_object("Data", "Kept").unwrap();
        let mut meta = codec::decode_meta(&encode_meta(&db)).unwrap();
        drop(db);
        meta.format = 1;
        let mut old = codec::encoded(|e| codec::encode_meta(e, &meta));
        old.pop(); // format 1 ends after the fence: no epoch history
        let (engine, _) = StorageEngine::open(&dir).unwrap();
        engine.commit(vec![(codec::KEY_META.as_bytes().to_vec(), Some(old))]).unwrap();
        drop(engine);
        let files = || -> Vec<(PathBuf, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|path| (path.clone(), std::fs::read(path).unwrap()))
                .collect();
            files.sort();
            files
        };
        let before = files();
        let refused = Database::open_durable(&dir).unwrap_err().to_string();
        assert!(refused.contains("format 1") && refused.contains("format 2"), "{refused}");
        assert!(Database::open_replica(&dir).is_err());
        assert!(files() == before, "a refused open changed the directory");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod proptests {
    use super::test_support::{assert_same_state, encoder_pairs, temp_dir};
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;
    use seed_schema::figure3_schema;

    /// One step of the randomized workload.  Ops address objects through a small name pool so
    /// the durable database and the in-memory model resolve identically.
    #[derive(Debug, Clone)]
    enum Op {
        CreateData(u8),
        CreateAction(u8),
        CreateDescription(u8, String),
        SetDescription(u8, String),
        Reclassify(u8),
        Link(u8, u8),
        /// Creates `D<i>` and `A<j>` when they are missing, then links them, so that deletes
        /// and unlinks often meet objects with relationships.
        Relate(u8, u8),
        /// Deletes the first visible relationship of `D<i>`.
        Unlink(u8),
        Delete(u8),
        CreateVersion,
        Begin,
        Commit,
        Rollback,
    }

    fn data_name(i: u8) -> String {
        format!("D{i}")
    }

    fn action_name(i: u8) -> String {
        format!("A{i}")
    }

    /// Applies one op; returns whether it succeeded.  Failures (duplicate names, missing
    /// objects, consistency violations, transaction-state errors) are part of the workload and
    /// must behave identically on both databases.
    fn apply(db: &mut Database, op: &Op) -> bool {
        match op {
            Op::CreateData(i) => db.create_object("Data", &data_name(*i)).is_ok(),
            Op::CreateAction(i) => db.create_object("Action", &action_name(*i)).is_ok(),
            Op::CreateDescription(i, text) => match db.object_by_name(&action_name(*i)) {
                Ok(parent) => db
                    .create_dependent(parent.id, "Description", Value::string(text.clone()))
                    .is_ok(),
                Err(_) => false,
            },
            Op::SetDescription(i, text) => {
                match db.object_by_name(&format!("{}.Description", action_name(*i))) {
                    Ok(desc) => db.set_value(desc.id, Value::string(text.clone())).is_ok(),
                    Err(_) => false,
                }
            }
            Op::Reclassify(i) => match db.object_by_name(&data_name(*i)) {
                Ok(obj) => db.reclassify_object(obj.id, "OutputData").is_ok(),
                Err(_) => false,
            },
            Op::Link(i, j) => {
                match (db.object_by_name(&data_name(*i)), db.object_by_name(&action_name(*j))) {
                    (Ok(d), Ok(a)) => {
                        db.create_relationship("Access", &[("from", d.id), ("by", a.id)]).is_ok()
                    }
                    _ => false,
                }
            }
            Op::Relate(i, j) => {
                let _ = db.create_object("Data", &data_name(*i));
                let _ = db.create_object("Action", &action_name(*j));
                apply(db, &Op::Link(*i, *j))
            }
            Op::Unlink(i) => match db.object_by_name(&data_name(*i)) {
                Ok(obj) => match db.relationships(obj.id).first() {
                    Some(rel) => db.delete_relationship(rel.record.id).is_ok(),
                    None => false,
                },
                Err(_) => false,
            },
            Op::Delete(i) => match db.object_by_name(&data_name(*i)) {
                Ok(obj) => db.delete_object(obj.id).is_ok(),
                Err(_) => false,
            },
            Op::CreateVersion => {
                if db.in_transaction() {
                    false
                } else {
                    db.create_version("snapshot").is_ok()
                }
            }
            Op::Begin => db.begin_transaction().is_ok(),
            Op::Commit => db.commit_transaction().is_ok(),
            Op::Rollback => db.rollback_transaction().is_ok(),
        }
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let idx = 0u8..6;
        let text = "[a-z]{0,8}";
        prop_oneof![
            idx.clone().prop_map(Op::CreateData),
            idx.clone().prop_map(Op::CreateAction),
            (idx.clone(), text).prop_map(|(i, t)| Op::CreateDescription(i, t)),
            (idx.clone(), "[a-z]{0,8}").prop_map(|(i, t)| Op::SetDescription(i, t)),
            idx.clone().prop_map(Op::Reclassify),
            (idx.clone(), 0u8..6).prop_map(|(i, j)| Op::Link(i, j)),
            (idx.clone(), 0u8..6).prop_map(|(i, j)| Op::Relate(i, j)),
            idx.clone().prop_map(Op::Unlink),
            idx.prop_map(Op::Delete),
            (0u8..1).prop_map(|_| Op::CreateVersion),
            (0u8..1).prop_map(|_| Op::Begin),
            (0u8..1).prop_map(|_| Op::Commit),
            (0u8..1).prop_map(|_| Op::Rollback),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Crash consistency: replay a random mutation sequence against a durable database and
        /// an in-memory model, drop the engine (no checkpoint, no close) at a random point,
        /// reopen, and the recovered database must equal the committed prefix — an open
        /// transaction at the crash point rolls back on the model, because its storage
        /// transaction never committed.
        #[test]
        fn recovery_equals_committed_prefix(
            ops in proptest::collection::vec(arb_op(), 1..36),
            crash_at in 0usize..36,
        ) {
            let crash_at = crash_at.min(ops.len());
            let dir = temp_dir("prop");
            let mut durable = Database::create_durable(&dir, figure3_schema()).unwrap();
            let mut model = Database::new(figure3_schema());
            for op in &ops[..crash_at] {
                let a = apply(&mut durable, op);
                let b = apply(&mut model, op);
                prop_assert_eq!(a, b);
            }
            let crashed_in_txn = durable.in_transaction();
            if crashed_in_txn {
                // The open transaction never committed its batch, so the committed prefix is the
                // model with the open transaction rolled back.
                model.rollback_transaction().unwrap();
            }
            drop(durable);
            let recovered = Database::open_durable(&dir).unwrap();
            assert_same_state(&recovered, &model, !crashed_in_txn);
            // The recovered database keeps working: completeness analysis and a fresh mutation
            // both run on the rebuilt indexes.
            let _ = recovered.completeness_report();
            let mut recovered = recovered;
            prop_assert!(recovered.create_object("Data", "PostRecovery").is_ok());
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Rollback oracle: random mutations between `begin_transaction` and
        /// `rollback_transaction` on a durable database leave no trace.  In memory, every read
        /// equals the state before the begin (the id floors aside: ids the transaction
        /// allocated stay burned).  On disk, a reopen reproduces the live database exactly,
        /// dirty set included — the rolled-back transaction logged no `d/` markers, so the
        /// rolled-back items must not be dirty in memory either.
        #[test]
        fn rollback_restores_memory_and_disk_agrees(
            setup in proptest::collection::vec(arb_op(), 0..20),
            in_txn in proptest::collection::vec(arb_op(), 1..24),
        ) {
            let without_floors = |print: String| {
                print.lines().filter(|l| !l.starts_with("floors ")).collect::<Vec<_>>().join("\n")
            };
            let is_txn_control = |op: &Op| matches!(op, Op::Begin | Op::Commit | Op::Rollback);
            let dir = temp_dir("rollback");
            let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
            for op in setup.iter().filter(|op| !is_txn_control(op)) {
                apply(&mut db, op);
            }
            // A version drains the dirty set, so the transaction's writes are all that could
            // make an existing item dirty.
            db.create_version("base").unwrap();
            let before = without_floors(crate::snapshot::tests::fingerprint(&db));
            db.begin_transaction().unwrap();
            for op in in_txn.iter().filter(|op| !is_txn_control(op)) {
                apply(&mut db, op);
            }
            db.rollback_transaction().unwrap();
            prop_assert_eq!(without_floors(crate::snapshot::tests::fingerprint(&db)), before);
            let live = db.clone_for_snapshot();
            drop(db);
            let reopened = Database::open_durable(&dir).unwrap();
            assert_same_state(&live, &reopened, true);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// One step of the lockstep oracle.  Every step ends with no explicit transaction open, so
    /// after it the live database is exactly the committed state every other copy must hold.
    #[derive(Debug, Clone)]
    enum Step {
        /// One auto-committed mutation (create, update, delete, re-classify, link, version).
        Op(Op),
        PublishSchema,
        DeleteVersion(u8),
        /// `begin_transaction`, the ops, then commit (`true`) or rollback.
        Txn(Vec<Op>, bool),
        Checkpoint,
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (0u8..11, arb_op(), proptest::collection::vec(arb_op(), 1..6), any::<bool>(), 0u8..4)
            .prop_map(|(kind, op, ops, commit, i)| match kind {
                0..=5 => Step::Op(op),
                6 => Step::PublishSchema,
                7 => Step::DeleteVersion(i),
                8 | 9 => Step::Txn(ops, commit),
                _ => Step::Checkpoint,
            })
    }

    /// Transaction control belongs to [`Step::Txn`]; inside a step it is skipped.
    fn is_txn_control(op: &Op) -> bool {
        matches!(op, Op::Begin | Op::Commit | Op::Rollback)
    }

    fn run_step(db: &mut Database, step: &Step) {
        match step {
            Step::Op(op) if !is_txn_control(op) => {
                apply(db, op);
            }
            Step::Op(_) => {}
            Step::PublishSchema => {
                db.publish_schema(figure3_schema()).unwrap();
            }
            Step::DeleteVersion(i) => {
                let ids: Vec<VersionId> = db.versions().iter().map(|v| v.id.clone()).collect();
                if !ids.is_empty() {
                    db.delete_version(&ids[*i as usize % ids.len()]).unwrap();
                }
            }
            Step::Txn(ops, commit) => {
                db.begin_transaction().unwrap();
                for op in ops.iter().filter(|op| !is_txn_control(op)) {
                    apply(db, op);
                }
                if *commit {
                    db.commit_transaction().unwrap();
                } else {
                    db.rollback_transaction().unwrap();
                }
            }
            Step::Checkpoint => db.checkpoint().unwrap(),
        }
    }

    /// Ships the primary's WAL tail past the replica's cursor as one incremental batch.
    fn feed(replica: &mut Database, primary: &Database) {
        let commits = match primary.log_feed().unwrap().wal_tail(replica.log_end().0 + 1).unwrap() {
            seed_storage::WalTail::Records(commits) => commits,
            other => panic!("the retention floor must keep the replica's tail, got {other:?}"),
        };
        if let Some(&(up_to, _)) = commits.last() {
            replica
                .apply_batch(commits.into_iter().map(|(_, c)| c).collect(), up_to, false)
                .unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Lockstep durability oracle: after every step of a random workload (mutations,
        /// re-classification, versions, schema publication, explicit commit and rollback,
        /// checkpoints — explicit and automatic), the live database agrees with every other
        /// copy of its state: the directory dropped and reopened, a replica fed the WAL tail
        /// incrementally, a second replica reset from the replication cut (the files), and that
        /// replica promoted to a primary.  The encoder's key space equals the durable one, so
        /// a checkpoint image can be derived from memory.
        #[test]
        fn lockstep_memory_disk_and_replicas_agree(
            steps in proptest::collection::vec(arb_step(), 1..14)
        ) {
            let dir = temp_dir("lockstep");
            let incremental_dir = temp_dir("lockstep-incremental");
            let config = seed_storage::EngineConfig {
                checkpoint_wal_bytes: Some(2048),
                wal: seed_storage::WalConfig { segment_max_bytes: 512, retention_budget_bytes: 1 << 30 },
            };
            let mut db = Database::create_durable_with(&dir, figure3_schema(), config.clone())
                .unwrap();
            let (engine, _) = StorageEngine::open(&incremental_dir).unwrap();
            let seed_storage::WalTail::Records(first) = db.log_feed().unwrap().wal_tail(1).unwrap()
            else { unreachable!("a fresh primary's log starts at LSN 1") };
            let first = first.into_iter().map(|(_, c)| c).collect();
            let mut incremental = Database::from_first_batch(engine, first, 1, false).unwrap();
            for (i, step) in steps.iter().enumerate() {
                db.set_replication_retention(Some(incremental.log_end().0 + 1));
                run_step(&mut db, step);
                prop_assert!(!db.in_transaction());
                let live = db.clone_for_snapshot();
                let live_pairs = encoder_pairs(&live);
                let (resync_cut, lsn) = db.log_feed().unwrap().replication_cut().unwrap();

                drop(db);
                let (engine, recovered) =
                    StorageEngine::open_with(&dir, config.clone()).unwrap();
                db = Database::open_recovered(engine, &recovered).unwrap();
                assert_same_state(&live, &db, true);
                prop_assert!(encoder_pairs(&db) == live_pairs, "step {}: reopened differs", i);
                let mut on_disk = std::collections::BTreeMap::new();
                for (key, value) in recovered.effects {
                    match value {
                        Some(value) => on_disk.insert(key, value),
                        None => on_disk.remove(&key),
                    };
                }
                let on_disk: Vec<_> = on_disk.into_iter().collect();
                prop_assert!(on_disk == live_pairs, "step {}: disk differs from memory", i);

                feed(&mut incremental, &db);
                let replica_db = &incremental;
                assert_same_state(&live, replica_db, true);
                prop_assert!(encoder_pairs(replica_db) == live_pairs, "step {}: replica", i);

                let reset_dir = temp_dir("lockstep-reset");
                let (engine, _) = StorageEngine::open(&reset_dir).unwrap();
                drop(Database::from_first_batch(engine, resync_cut, lsn, true).unwrap());
                let mut reset = Database::open_durable(&reset_dir).unwrap();
                prop_assert_eq!(reset.durable_lsn(), Some(lsn));
                let reset_db = &reset;
                assert_same_state(&live, reset_db, true);
                prop_assert!(encoder_pairs(reset_db) == live_pairs, "step {}: reset", i);
                reset.promote(1).unwrap();
                let promoted = reset;
                assert_same_state(&live, &promoted, true);
                drop(promoted);
                let _ = std::fs::remove_dir_all(&reset_dir);
            }
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&incremental_dir);
        }
    }
}
