//! Incremental durability: per-item write-through persistence over the WAL.
//!
//! [`Database::open_durable`] returns a database whose mutation paths stage fine-grained
//! per-item records (see [`crate::codec`] for the key layout) into a storage transaction that
//! commits at the mutation's commit point:
//!
//! * outside an explicit transaction, every successful mutation **auto-commits** — one storage
//!   transaction, one batched WAL write, one sync — so the durable cost of a commit is
//!   O(items touched), not O(database);
//! * inside [`Database::begin_transaction`] … [`Database::commit_transaction`], all staged
//!   records ride in **one** storage transaction that commits (or, on
//!   [`Database::rollback_transaction`], aborts) in lockstep with the in-memory savepoint;
//! * version creation writes the version's delta snapshots (`v/<vid>/…`), its metadata record
//!   (`vi/<vid>`) and the drained dirty markers in the same commit;
//! * loading is a keyed range scan per record kind plus an in-memory index rebuild.
//!
//! Crash contract: dropping the database (or the process) without a checkpoint loses nothing
//! that was committed — recovery replays the storage WAL, which holds only complete
//! transactions (group commit writes a transaction's frames as one batch).  A crash
//! mid-transaction leaves no trace: neither the WAL (nothing is written before commit) nor the
//! per-item keys (the storage transaction never committed).  `docs/DURABILITY.md` specifies the
//! layout and the contract in full.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use seed_schema::SchemaRegistry;
use seed_storage::{StorageEngine, TxnId};

use crate::codec;
use crate::database::Database;
use crate::error::{SeedError, SeedResult};
use crate::history::TransitionRule;
use crate::ident::{ItemId, VersionId};
use crate::store::DataStore;
use crate::version::{ItemSnapshot, VersionManager};

/// The write-through handle a durable [`Database`] carries: the storage engine plus the storage
/// transaction mirroring the database's explicit transaction, when one is open.
pub(crate) struct Durability {
    pub(crate) engine: StorageEngine,
    pub(crate) txn: Option<TxnId>,
}

impl Durability {
    /// The storage transaction to stage into: the mirrored explicit transaction when one is
    /// open, otherwise a fresh auto-commit transaction (`true` = caller must commit it).
    pub(crate) fn stage_txn(&self) -> SeedResult<(TxnId, bool)> {
        match self.txn {
            Some(txn) => Ok((txn, false)),
            None => Ok((self.engine.begin()?, true)),
        }
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
    /// Number of keys in the per-item store.
    pub keys: usize,
}

/// Stages the current state of one item: a put of its record (objects travel with their
/// inherits-links) or a delete when the item was physically removed, plus its dirty marker.
pub(crate) fn stage_item(
    engine: &StorageEngine,
    txn: TxnId,
    store: &DataStore,
    item: ItemId,
) -> SeedResult<()> {
    match item {
        ItemId::Object(id) => match store.object(id) {
            Some(record) => {
                let inherits = store.inherited_patterns(id);
                engine.txn_put(
                    txn,
                    &codec::object_key(id),
                    &codec::encode_object_entry(record, &inherits),
                )?;
            }
            None => engine.txn_delete(txn, &codec::object_key(id))?,
        },
        ItemId::Relationship(id) => match store.relationship(id) {
            Some(record) => engine.txn_put(
                txn,
                &codec::relationship_key(id),
                &codec::encode_relationship_entry(record),
            )?,
            None => engine.txn_delete(txn, &codec::relationship_key(id))?,
        },
    }
    // The on-disk dirty markers mirror the in-memory dirty set, so that a reopened database
    // still knows which items the next version snapshot must record.
    if store.dirty_items().contains_key(&item) {
        engine.txn_put(txn, &codec::dirty_key(item), b"")?;
    } else {
        engine.txn_delete(txn, &codec::dirty_key(item))?;
    }
    Ok(())
}

/// Stages the small `meta` record from the database's current state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_meta(
    engine: &StorageEngine,
    txn: TxnId,
    schemas: &SchemaRegistry,
    store: &DataStore,
    versions: &VersionManager,
    rules: &[TransitionRule],
    epoch: u64,
    fenced_to: Option<&str>,
) -> SeedResult<()> {
    let (object_floor, relationship_floor) = store.id_floor();
    let meta = codec::MetaRecord {
        format: codec::FORMAT_VERSION,
        object_floor,
        relationship_floor,
        current_schema: schemas.current_id(),
        rules: rules.to_vec(),
        last_created: versions.last_created().cloned(),
        version_seq: versions.seq(),
        epoch,
        fenced_to: fenced_to.map(str::to_string),
    };
    engine.txn_put(txn, codec::KEY_META, &codec::encode_meta(&meta))?;
    Ok(())
}

/// Stages **every** record of the database into `txn` — the initial write of a fresh durable
/// database.
pub(crate) fn write_full(db: &Database, engine: &StorageEngine, txn: TxnId) -> SeedResult<()> {
    let (schemas, store, versions, rules) = db.parts();
    for svid in schemas.version_ids() {
        engine.txn_put(
            txn,
            &codec::schema_key(svid),
            &codec::encode_schema_entry(schemas.get(svid)?),
        )?;
    }
    let mut objects: Vec<_> = store.all_objects().collect();
    objects.sort_by_key(|o| o.id);
    for record in objects {
        let inherits = store.inherited_patterns(record.id);
        engine.txn_put(
            txn,
            &codec::object_key(record.id),
            &codec::encode_object_entry(record, &inherits),
        )?;
    }
    let mut rels: Vec<_> = store.all_relationships().collect();
    rels.sort_by_key(|r| r.id);
    for record in rels {
        engine.txn_put(
            txn,
            &codec::relationship_key(record.id),
            &codec::encode_relationship_entry(record),
        )?;
    }
    let (infos, histories, _, _) = versions.export_state();
    for info in &infos {
        engine.txn_put(
            txn,
            &codec::version_info_key(&info.id),
            &codec::encode_version_info(info),
        )?;
    }
    for (item, entries) in &histories {
        for (vid, snapshot) in entries {
            engine.txn_put(
                txn,
                &codec::version_delta_key(vid, *item),
                &codec::encode_snapshot(snapshot),
            )?;
        }
    }
    for item in store.dirty_items().keys() {
        engine.txn_put(txn, &codec::dirty_key(*item), b"")?;
    }
    stage_meta(engine, txn, schemas, store, versions, rules, db.topology_epoch(), db.fenced_to())?;
    Ok(())
}

/// Reads and decodes the `meta` record.
pub(crate) fn load_meta(engine: &StorageEngine) -> SeedResult<codec::MetaRecord> {
    let meta_bytes = engine
        .get(codec::KEY_META)?
        .ok_or_else(|| SeedError::NotFound("missing key 'meta'".to_string()))?;
    codec::decode_meta(&meta_bytes)
}

/// Rebuilds the schema registry from one ordered `s/` range scan (`s/` keys sort by schema
/// version id).  Factored out of [`load_keyed`] so the replica's incremental apply can rescan
/// exactly one record kind when a batch ships schema changes.
pub(crate) fn load_schemas(
    engine: &StorageEngine,
    current: seed_schema::SchemaVersionId,
) -> SeedResult<SchemaRegistry> {
    let mut schemas = Vec::new();
    for (_, bytes) in engine.scan_prefix(codec::PREFIX_SCHEMA)? {
        schemas.push(codec::decode_schema_entry(&bytes)?);
    }
    if schemas.is_empty() {
        return Err(SeedError::Invalid("persisted database has no schema".to_string()));
    }
    let mut iter = schemas.into_iter();
    let mut registry = SchemaRegistry::new(iter.next().expect("non-empty"));
    for schema in iter {
        registry.publish(schema);
    }
    registry.select(current)?;
    Ok(registry)
}

/// Rebuilds the version manager from the `vi/` and `v/` ranges.  Factored out of
/// [`load_keyed`] for the same reason as [`load_schemas`]: version-creating batches are rare,
/// and when one arrives the replica rescans only these two ranges.
pub(crate) fn load_versions(
    engine: &StorageEngine,
    meta: &codec::MetaRecord,
) -> SeedResult<VersionManager> {
    let mut infos = Vec::new();
    for (_, bytes) in engine.scan_prefix(codec::PREFIX_VERSION_INFO)? {
        infos.push(codec::decode_version_info(&bytes)?);
    }
    let mut histories: HashMap<ItemId, Vec<(VersionId, ItemSnapshot)>> = HashMap::new();
    for (key, bytes) in engine.scan_prefix(codec::PREFIX_VERSION_DELTA)? {
        let (vid, item) = codec::parse_version_delta_key(&key)?;
        histories.entry(item).or_default().push((vid, codec::decode_snapshot(&bytes)?));
    }
    let mut histories: Vec<(ItemId, Vec<(VersionId, ItemSnapshot)>)> =
        histories.into_iter().collect();
    histories.sort_by_key(|(item, _)| *item);
    Ok(VersionManager::from_state(infos, histories, meta.last_created.clone(), meta.version_seq))
}

/// Loads a database from the per-item layout: one ordered scan per record kind, then an
/// in-memory index rebuild (the store's secondary indexes are reconstructed by the inserts).
pub(crate) fn load_keyed(engine: &StorageEngine) -> SeedResult<Database> {
    let meta = load_meta(engine)?;
    let registry = load_schemas(engine, meta.current_schema)?;

    // Data store: objects (with their inherits-links), then relationships.
    let mut store = DataStore::new();
    let mut inherits_links = Vec::new();
    for (_, bytes) in engine.scan_prefix(codec::PREFIX_OBJECT)? {
        let (record, inherits) = codec::decode_object_entry(&bytes)?;
        let id = record.id;
        store.insert_object(record);
        for pattern in inherits {
            inherits_links.push((id, pattern));
        }
    }
    for (_, bytes) in engine.scan_prefix(codec::PREFIX_RELATIONSHIP)? {
        store.insert_relationship(codec::decode_relationship_entry(&bytes)?);
    }
    for (inheritor, pattern) in inherits_links {
        store.add_inherits(inheritor, pattern);
    }

    // Version manager: metadata records plus per-version delta snapshots.
    let versions = load_versions(engine, &meta)?;

    // Id floors and the dirty set (the inserts above marked everything dirty; the real dirty
    // set is the persisted one).
    store.raise_id_floor(meta.object_floor, meta.relationship_floor);
    store.clear_dirty();
    let mut dirty = Vec::new();
    for (key, _) in engine.scan_prefix(codec::PREFIX_DIRTY)? {
        dirty.push(codec::parse_dirty_key(&key)?);
    }
    store.mark_dirty_bulk(&dirty);

    let mut db = Database::from_parts(registry, store, versions, meta.rules);
    db.set_topology(meta.epoch, meta.fenced_to);
    Ok(db)
}

/// Whether `engine` holds a per-item-layout database.
pub(crate) fn is_keyed_layout(engine: &StorageEngine) -> SeedResult<bool> {
    Ok(engine.contains(codec::KEY_META)?)
}

/// Opens the storage engine for a durable database directory.
pub(crate) fn open_engine(dir: impl AsRef<Path>) -> SeedResult<StorageEngine> {
    Ok(StorageEngine::open(dir)?)
}

/// Opens the storage engine with an explicit configuration (segment cap, retention budget,
/// checkpoint threshold) — the tuning surface [`Database::open_durable_with`] exposes.
pub(crate) fn open_engine_with(
    dir: impl AsRef<Path>,
    config: seed_storage::EngineConfig,
) -> SeedResult<StorageEngine> {
    Ok(StorageEngine::open_with(dir, config)?)
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
        // Index rebuild: every live object is reachable through the rebuilt name index.
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
    use super::test_support::temp_dir;
    use super::*;
    use crate::index::ValueOp;
    use crate::value::Value;
    use seed_schema::{figure2_schema, figure3_schema};

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
        // The value index was rebuilt from the keyed scan.
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

        // Rolled-back transaction: the storage transaction aborts in lockstep.
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
        // A transaction stages meta with each mutation; a non-transactional side-commit
        // (publish_schema) inside the transaction writes a *fresher* meta in its own storage
        // transaction.  Committing the outer transaction must not replay its earlier, stale
        // meta copy over the side-committed one.
        let dir = temp_dir("meta-ordering");
        let mut db = Database::create_durable(&dir, figure2_schema()).unwrap();
        db.begin_transaction().unwrap();
        db.create_object("Data", "BeforePublish").unwrap(); // stages meta (old schema id)
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
    fn crash_inside_open_transaction_loses_only_the_transaction() {
        let dir = temp_dir("crash-txn");
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        db.create_object("Data", "Committed").unwrap();
        db.begin_transaction().unwrap();
        db.create_object("Data", "Uncommitted").unwrap();
        // Crash with the transaction open: neither the storage transaction nor the WAL saw a
        // commit, so recovery must surface only the committed prefix.
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
        assert!(status.keys >= 2, "schema + meta + object records");
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
}

#[cfg(test)]
mod proptests {
    use super::test_support::{assert_same_state, temp_dir};
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
                // The open storage transaction never commits, so the committed prefix is the
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
        /// dirty set included — the aborted storage transaction wrote no `d/` markers, so the
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
}
