//! The SEED database facade: the paper's "operational interface that consists of a set of
//! procedures".
//!
//! A [`Database`] ties together the schema registry, the data store, the consistency checker,
//! the completeness analysis, the version manager and the pattern machinery.  Every update goes
//! through consistency checking before it touches the store ("SEED permanently ensures database
//! consistency"); completeness is checked only on demand.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use seed_schema::{ClassId, Schema, SchemaRegistry, SchemaVersionId};
use seed_storage::{Commit, KeyEffect, Lsn, Recovered, StorageEngine, WalTail};

use crate::codec;
use crate::codec::Key;
use crate::completeness::{self, CompletenessReport};
use crate::consistency::ConsistencyChecker;
use crate::durability::{self, Durability, DurabilityStatus};
use crate::error::{SeedError, SeedResult};
use crate::history::{check_transition, TransitionRule};
use crate::ident::{ItemId, ObjectId, RelationshipId, VersionId};
use crate::index::ValueOp;
use crate::name::{NameSegment, ObjectName};
use crate::object::ObjectRecord;
use crate::pattern::{self, MaterializedChild, MaterializedRelationship};
use crate::procedures::ProcedureRegistry;
use crate::relationship::RelationshipRecord;
use crate::store::DataStore;
use crate::value::Value;
use crate::version::{VersionInfo, VersionManager};

/// State of an alternative checkout (working on the basis of a historical version).
#[derive(Debug, Clone)]
struct AlternativeContext {
    /// The historical version the work is based on.
    base: VersionId,
    /// The stashed current state, restored by [`Database::return_to_current`].
    stashed: DataStore,
}

/// A single-user SEED database.
///
/// The store is a persistent map and the schema registry and version manager sit behind
/// copy-on-write `Arc`s, so a read snapshot ([`crate::snapshot`]) and a transaction savepoint
/// cost the same at any database size.
pub struct Database {
    schemas: Arc<SchemaRegistry>,
    store: DataStore,
    versions: Arc<VersionManager>,
    procedures: ProcedureRegistry,
    /// Version selected for retrieval (`None` = the current version).
    selected_version: Option<VersionId>,
    /// Materialized view of the selected version.
    selected_view: Option<DataStore>,
    alternative: Option<AlternativeContext>,
    /// The open transaction's savepoint: the store as it was at [`Database::begin_transaction`].
    txn: Option<DataStore>,
    transition_rules: Vec<TransitionRule>,
    consistency_checking: bool,
    /// Write-through persistence handle (`None` for purely in-memory databases).
    pub(crate) durability: Option<Durability>,
    /// Topology epoch: bumped on every replica promotion, persisted in the meta record so a
    /// restarted node knows which fencing round it last witnessed.
    topology_epoch: u64,
    /// Set while this store is fenced as a superseded primary: the address of the primary that
    /// took over.  Persisted so fencing survives a restart.
    fenced_to: Option<String>,
    /// The log's epoch history, `(epoch, first LSN)` per promotion (see
    /// [`Database::continues_log`]).
    epochs: Vec<(u64, Lsn)>,
}

/// A durable database's log, for the primary side of replication ([`Database::log_feed`]).  It
/// shares the storage engine, so its reads take no database lock: the engine orders them
/// against commits and checkpoints itself, and the retention floor keeps a subscriber's tail.
#[derive(Clone)]
pub struct LogFeed(Arc<StorageEngine>);

impl LogFeed {
    /// The absolute, checkpoint-stable LSN of the last committed storage record — what a fully
    /// caught-up replica has applied.
    pub fn durable_lsn(&self) -> Lsn {
        self.0.durable_lsn()
    }

    /// The WAL tail from LSN `from` (inclusive): the commits a replica at position `from - 1`
    /// still needs, or [`WalTail::Truncated`] when `from` is not in the log (a checkpoint
    /// pruned it, or it lies past the end) and the replica must reset from
    /// [`LogFeed::replication_cut`].
    pub fn wal_tail(&self, from: Lsn) -> SeedResult<WalTail> {
        Ok(self.0.wal_tail(from)?)
    }

    /// The full-resync cut: the snapshot's commits, then the WAL tail past it, and the LSN the
    /// list ends at ([`StorageEngine::replication_cut`]).  Read from the files, which hold only
    /// committed state, so an open transaction or a checked-out alternative is never part of
    /// it.  Errors once the storage engine is poisoned (a failed auto-commit leaves memory
    /// ahead of the log).
    pub fn replication_cut(&self) -> SeedResult<(Vec<Commit>, Lsn)> {
        Ok(self.0.replication_cut()?)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("schema", &self.schema().name)
            .field("objects", &self.store.live_object_count())
            .field("relationships", &self.store.live_relationship_count())
            .field("versions", &self.versions.version_count())
            .field("selected_version", &self.selected_version)
            .finish()
    }
}

impl Database {
    /// Creates an empty in-memory database over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::from_parts(
            SchemaRegistry::new(schema),
            DataStore::new(),
            VersionManager::new(),
            Vec::new(),
        )
    }

    // ----- write-through durability -----------------------------------------------------------

    /// Opens a durable database: every committed mutation is written through to storage as
    /// per-item records, and the directory's WAL recovers the committed state after a crash
    /// (see [`crate::durability`] for the contract).
    pub fn open_durable(dir: impl AsRef<Path>) -> SeedResult<Self> {
        Self::open_durable_with(dir, seed_storage::EngineConfig::default())
    }

    /// [`Database::open_durable`] with an explicit storage configuration (WAL segment cap,
    /// replication retention budget, checkpoint threshold).
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        config: seed_storage::EngineConfig,
    ) -> SeedResult<Self> {
        let (engine, recovered) = StorageEngine::open_with(dir, config)?;
        Self::open_recovered(engine, &recovered)
    }

    /// Rebuilds the database an engine recovered and attaches write-through durability.
    pub(crate) fn open_recovered(engine: StorageEngine, recovered: &Recovered) -> SeedResult<Self> {
        let Some(meta) = recovered.get(codec::KEY_META.as_bytes()) else {
            return Err(SeedError::NotFound(format!(
                "no SEED database in '{}' (use Database::create_durable to start one)",
                engine.path().unwrap_or(Path::new("")).display()
            )));
        };
        let mut db = durability::recover(recovered)?;
        db.attach_durability(engine, meta.to_vec());
        Ok(db)
    }

    /// Creates a fresh durable database over `schema` in `dir` (which must not already hold
    /// one), committing the schema and meta records immediately.
    pub fn create_durable(dir: impl AsRef<Path>, schema: Schema) -> SeedResult<Self> {
        Self::create_durable_with(dir, schema, seed_storage::EngineConfig::default())
    }

    /// [`Database::create_durable`] with an explicit storage configuration.
    pub fn create_durable_with(
        dir: impl AsRef<Path>,
        schema: Schema,
        config: seed_storage::EngineConfig,
    ) -> SeedResult<Self> {
        let (engine, recovered) = StorageEngine::open_with(dir, config)?;
        Self::create_recovered(engine, &recovered, schema)
    }

    /// Writes a fresh database over `schema` through `engine`, whose recovered key space must
    /// not already hold one: the encoder's pairs, committed as one batch.
    pub(crate) fn create_recovered(
        engine: StorageEngine,
        recovered: &Recovered,
        schema: Schema,
    ) -> SeedResult<Self> {
        if recovered.get(codec::KEY_META.as_bytes()).is_some() {
            return Err(SeedError::Invalid(format!(
                "'{}' already holds a SEED database; use Database::open_durable",
                engine.path().unwrap_or(Path::new("")).display()
            )));
        }
        let mut db = Database::new(schema);
        let mut pairs = Vec::new();
        durability::encode_pairs(&db, &mut |key, value| {
            pairs.push((key.to_vec(), Some(value.to_vec())));
        });
        engine.commit(pairs)?;
        let meta = durability::encode_meta(&db);
        db.attach_durability(engine, meta);
        Ok(db)
    }

    /// Attaches write-through durability over `engine`, whose log (or snapshot) last holds the
    /// encoded `meta` record `committed_meta`.
    pub(crate) fn attach_durability(&mut self, engine: StorageEngine, committed_meta: Vec<u8>) {
        self.store.set_journal(true);
        let _ = self.store.take_changed();
        self.durability = Some(Durability::new(engine, committed_meta));
    }

    /// Whether this database writes mutations through to durable storage.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Directory of the durable storage, if any.
    pub fn durable_path(&self) -> Option<&Path> {
        self.durability.as_ref().and_then(|d| d.engine.path())
    }

    /// Storage-level status of a durable database (its directory and WAL size) — `None` when
    /// the database is in-memory.
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        self.durability.as_ref().map(|d| DurabilityStatus {
            path: d.engine.path().map(|p| p.to_path_buf()).unwrap_or_default(),
            wal_bytes: d.engine.wal_size_bytes().unwrap_or(0),
        })
    }

    /// A write-path probe for health checks: fsyncs the active WAL segment of a durable
    /// database and reports whether the log currently accepts writes.  `true` for in-memory
    /// databases, whose write path cannot fail on I/O.
    pub fn wal_writable(&self) -> bool {
        self.wal_fault().is_none()
    }

    /// Why the write path refuses work, if it does: a poisoned storage engine (an earlier
    /// commit or checkpoint failed on I/O), a failing disk or a vanished directory.
    pub fn wal_fault(&self) -> Option<String> {
        let d = self.durability.as_ref()?;
        d.engine.wal_probe().err().map(|e| e.to_string())
    }

    // ----- topology (replica promotion / fencing) ---------------------------------------------

    /// The topology epoch this store last witnessed (0 until a promotion ever happens).
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    /// When this store was fenced as a superseded primary: the address of the primary that took
    /// over.  A fenced store must refuse writes and redirect clients there.
    pub fn fenced_to(&self) -> Option<&str> {
        self.fenced_to.as_deref()
    }

    /// The log's epoch history: one `(epoch, first LSN)` entry per promotion, in log order.  A
    /// promotion's entry is logged in the commit that starts its epoch; a fence adds none (its
    /// commit belongs to the old epoch's log).
    pub fn epoch_history(&self) -> &[(u64, Lsn)] {
        &self.epochs
    }

    /// The epoch in force at `lsn` in this log: that of the last promotion at or before it, 0
    /// before any.
    pub fn epoch_at(&self, lsn: Lsn) -> u64 {
        self.epochs.iter().rev().find(|(_, first)| *first <= lsn).map_or(0, |(epoch, _)| *epoch)
    }

    /// Whether a log that ends at `lsn`, with `epoch` in force there, is a prefix of this
    /// durable database's log — the log-matching rule, with the topology epoch as the term:
    /// this log holds `lsn`, and wrote it under the same epoch.  A replica whose log does is
    /// streamed on from `lsn + 1`; one whose log does not is reset.
    pub fn continues_log(&self, lsn: Lsn, epoch: u64) -> bool {
        self.durable_lsn().is_some_and(|end| lsn <= end) && self.epoch_at(lsn) == epoch
    }

    pub(crate) fn set_topology(
        &mut self,
        epoch: u64,
        fenced_to: Option<String>,
        epochs: Vec<(u64, Lsn)>,
    ) {
        self.topology_epoch = epoch;
        self.fenced_to = fenced_to;
        self.epochs = epochs;
    }

    /// Records a topology change (a fence, or a rejoin clearing one) and commits the updated
    /// meta record immediately in its own storage batch, so the decision survives a restart.
    /// Fencing must not ride an open explicit transaction — a rollback could then un-fence a
    /// superseded primary.
    pub fn persist_topology(&mut self, epoch: u64, fenced_to: Option<String>) -> SeedResult<()> {
        self.topology_epoch = epoch;
        self.fenced_to = fenced_to;
        self.commit_batch(Vec::new())
    }

    // ----- replication feed (the primary side of WAL shipping) --------------------------------

    /// The absolute, checkpoint-stable LSN of the last committed storage record — what a fully
    /// caught-up replica has applied.  `None` for in-memory databases (nothing to replicate).
    pub fn durable_lsn(&self) -> Option<seed_storage::Lsn> {
        self.durability.as_ref().map(|d| d.engine.durable_lsn())
    }

    /// A handle on this database's log for the primary side of replication — the WAL tail and
    /// the full-resync cut — read with no database lock held; errors for in-memory databases.
    pub fn log_feed(&self) -> SeedResult<LogFeed> {
        Ok(LogFeed(self.engine()?.clone()))
    }

    /// The storage engine a replica is fed from; errors for in-memory databases.
    fn engine(&self) -> SeedResult<&Arc<StorageEngine>> {
        let dur = self.durability.as_ref().ok_or_else(|| {
            SeedError::Invalid("in-memory database has no WAL to replicate from".to_string())
        })?;
        Ok(&dur.engine)
    }

    /// Fails unless memory holds exactly the committed state: no open transaction, no
    /// alternative checked out.
    fn committed_state_only(&self) -> SeedResult<()> {
        match self.txn.is_none() && self.alternative.is_none() {
            true => Ok(()),
            false => Err(SeedError::Transaction(
                "finish the transaction or alternative first: memory is not committed state".into(),
            )),
        }
    }

    /// Pins WAL segments for lagging replication subscribers: checkpoints keep (budget
    /// permitting) every segment containing LSNs at or above `floor`, so a replica whose
    /// cursor is at `floor - 1` can catch up from the retained log instead of resyncing from a
    /// full snapshot.  `None` releases the pin (checkpoints prune everything again).  No-op
    /// for in-memory databases.
    pub fn set_replication_retention(&self, floor: Option<seed_storage::Lsn>) {
        if let Some(dur) = self.durability.as_ref() {
            dur.engine.set_replication_retention(floor);
        }
    }

    /// Checkpoints the durable storage: waits for a background checkpoint in flight, then
    /// encodes the whole database as one snapshot image and prunes the WAL below it.  Durable
    /// databases also checkpoint on their own, off the write path, once the WAL outgrows the
    /// configured threshold; this call is for explicit quiesce points (e.g. before a backup).
    pub fn checkpoint(&self) -> SeedResult<()> {
        let Some(dur) = &self.durability else {
            return Err(SeedError::Invalid(
                "database is not durable; nothing to checkpoint".into(),
            ));
        };
        dur.join_checkpoint()?;
        self.committed_state_only()?;
        let image = durability::encode_image(self, dur.engine.durable_lsn());
        Ok(dur.engine.checkpoint(&image)?)
    }

    /// Commits `effects` and, last, the `meta` record when it changed as one storage batch
    /// (no-op for in-memory databases); when that leaves memory equal to the committed state
    /// and the WAL has outgrown its threshold, a background checkpoint starts.
    pub(crate) fn commit_batch(&mut self, effects: Vec<KeyEffect>) -> SeedResult<()> {
        if self.durability.is_none() {
            return Ok(());
        }
        let meta = durability::encode_meta(self);
        self.durability.as_mut().expect("checked above").commit(effects, meta)?;
        self.checkpoint_if_due();
        Ok(())
    }

    /// Starts a background checkpoint when memory equals the committed state and the WAL has
    /// outgrown its threshold.
    pub(crate) fn checkpoint_if_due(&self) {
        if let (Some(dur), Ok(())) = (&self.durability, self.committed_state_only()) {
            dur.checkpoint_in_background(|| self.clone_for_snapshot(), dur.engine.durable_lsn());
        }
    }

    /// Write-through: outside an explicit transaction, drains the store's change journal and
    /// commits the touched records as one batch.  Inside one the journal only accumulates
    /// (the savepoint holds it too) until [`Database::commit_transaction`].  No-op for
    /// in-memory databases and while working on an alternative (the alternative store is
    /// scratch state; only its version snapshots persist).
    fn persist_changes(&mut self) -> SeedResult<()> {
        if self.txn.is_some() || self.alternative.is_some() || self.durability.is_none() {
            return Ok(());
        }
        let changed = self.store.take_changed();
        let mut effects = Vec::with_capacity(changed.len() + 1);
        for item in &changed {
            durability::item_effects(&self.store, *item, &mut effects);
        }
        let result = self.commit_batch(effects);
        if result.is_err() {
            // The in-memory mutation stands, so the items must stay queued: a later successful
            // commit re-encodes them instead of silently dropping them from durability.
            self.store.requeue_changed(&changed);
        }
        result
    }

    /// Persists the meta record (id floors, rules, version bookkeeping) when it changed.
    /// Inside an explicit transaction this waits for [`Database::commit_transaction`], which
    /// adds it as the batch's last effect (or for the rollback, which re-commits it).
    fn persist_meta(&mut self) -> SeedResult<()> {
        if self.txn.is_some() {
            return Ok(());
        }
        self.commit_batch(Vec::new())
    }

    /// Commits a freshly created version: its delta snapshots, its metadata record, the
    /// drained dirty markers and the updated meta, as one batch.
    fn persist_version_created(&mut self, id: &VersionId, delta: &[ItemId]) -> SeedResult<()> {
        let mut effects = Vec::with_capacity(delta.len() * 2 + 1);
        for item in delta {
            let snapshot = match *item {
                ItemId::Object(oid) => {
                    self.store.object(oid).cloned().map(crate::version::ItemSnapshot::Object)
                }
                ItemId::Relationship(rid) => self
                    .store
                    .relationship(rid)
                    .cloned()
                    .map(crate::version::ItemSnapshot::Relationship),
            };
            if let Some(snapshot) = snapshot {
                let value = codec::encoded(|e| codec::encode_item_snapshot(e, &snapshot));
                effects.push((Key::VersionDelta(id, *item).to_vec(), Some(value)));
            }
            if self.alternative.is_none() {
                // The on-disk dirty markers mirror the main store's dirty set; an alternative
                // drains its own scratch dirty set, which never had markers.
                effects.push((Key::Dirty(*item).to_vec(), None));
            }
        }
        let info = self.versions.info(id)?;
        let info = codec::encoded(|e| codec::encode_version_info(e, info));
        effects.push((Key::VersionInfo(id).to_vec(), Some(info)));
        self.commit_batch(effects)
    }

    /// Commits a version deletion: drop its metadata record and the delta snapshot of every
    /// item it had recorded (`dropped`), plus the updated meta.
    ///
    /// Like schema publication, version deletion is not transactional (the version is gone from
    /// memory immediately and the transaction savepoint covers only the store), so the deletes
    /// commit in their own batch even while an explicit transaction is open — otherwise a later
    /// rollback would drop them and the deleted version would resurrect on reopen.
    fn persist_version_deleted(&mut self, id: &VersionId, dropped: &[ItemId]) -> SeedResult<()> {
        let mut effects = vec![(Key::VersionInfo(id).to_vec(), None)];
        effects.extend(dropped.iter().map(|item| (Key::VersionDelta(id, *item).to_vec(), None)));
        self.commit_batch(effects)
    }

    // ----- accessors ------------------------------------------------------------------------------

    /// The current schema.
    pub fn schema(&self) -> &Schema {
        self.schemas.current()
    }

    /// The schema registry (all published schema versions).
    pub fn schema_registry(&self) -> &SchemaRegistry {
        &self.schemas
    }

    /// Publishes a new schema version; it becomes current (and, on a durable database, is
    /// committed as its own `s/<svid>` record).
    ///
    /// Schema publication is **not transactional**: the transaction savepoint covers only the
    /// store, so on a durable database the record commits in its own batch even while an
    /// explicit transaction is open — otherwise a later rollback would drop the `s/<svid>`
    /// record while the in-memory registry (and the re-committed meta) still reference it,
    /// leaving the directory unopenable.
    pub fn publish_schema(&mut self, schema: Schema) -> SeedResult<SchemaVersionId> {
        let id = Arc::make_mut(&mut self.schemas).publish(schema);
        if self.durability.is_some() {
            let schema = codec::encoded(|e| codec::encode_schema(e, self.schemas.current()));
            self.commit_batch(vec![(Key::Schema(id).to_vec(), Some(schema))])?;
        }
        Ok(id)
    }

    /// Registers a named attached procedure.
    pub fn register_procedure<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&crate::procedures::ProcedureContext<'_>) -> Result<(), String>
            + Send
            + Sync
            + 'static,
    {
        self.procedures.register(name, f);
    }

    /// Enables or disables consistency checking (used by benchmarks to quantify its cost; a
    /// production database keeps it on).
    pub fn set_consistency_checking(&mut self, enabled: bool) {
        self.consistency_checking = enabled;
    }

    /// Whether consistency checking is enabled.
    pub fn consistency_checking(&self) -> bool {
        self.consistency_checking
    }

    /// Adds a history-sensitive consistency rule checked on every version creation.  Rules are
    /// part of the durable meta record, so on a durable database this commits.
    pub fn add_transition_rule(&mut self, rule: TransitionRule) -> SeedResult<()> {
        self.transition_rules.push(rule);
        self.persist_meta()
    }

    /// The registered transition rules.
    pub fn transition_rules(&self) -> &[TransitionRule] {
        &self.transition_rules
    }

    /// Direct access to the current store (used by sibling crates for read-only analysis).
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// The version manager (read-only).
    pub fn version_manager(&self) -> &VersionManager {
        &self.versions
    }

    /// Number of live, visible objects in the read context.
    pub fn object_count(&self) -> usize {
        self.read_store().visible_objects().count()
    }

    /// Number of live, visible relationships in the read context.
    pub fn relationship_count(&self) -> usize {
        self.read_store().all_relationships().filter(|r| r.is_visible()).count()
    }

    // ----- internal helpers -------------------------------------------------------------------------

    fn read_store(&self) -> &DataStore {
        self.selected_view.as_ref().unwrap_or(&self.store)
    }

    fn checker(&self) -> ConsistencyChecker<'_> {
        ConsistencyChecker::new(self.schemas.current(), &self.store, &self.procedures)
    }

    /// Runs a consistency check (lazily — when checking is disabled the check is skipped
    /// entirely, which is what the E2 benchmark measures) and turns violations into an error.
    fn enforce(
        &self,
        check: impl FnOnce() -> Vec<crate::consistency::ConsistencyViolation>,
    ) -> SeedResult<()> {
        if !self.consistency_checking {
            return Ok(());
        }
        let violations = check();
        if !violations.is_empty() {
            return Err(SeedError::Inconsistent(violations));
        }
        Ok(())
    }

    fn mutation_allowed(&self) -> SeedResult<()> {
        if self.selected_version.is_some() {
            return Err(SeedError::ReadOnlyVersion(
                "a historical version is selected for retrieval; select the current version before updating"
                    .to_string(),
            ));
        }
        Ok(())
    }

    fn live_object(&self, id: ObjectId) -> SeedResult<&ObjectRecord> {
        self.store.live_object(id).ok_or_else(|| SeedError::NotFound(format!("object {id}")))
    }

    fn live_relationship(&self, id: RelationshipId) -> SeedResult<&RelationshipRecord> {
        self.store
            .live_relationship(id)
            .ok_or_else(|| SeedError::NotFound(format!("relationship {id}")))
    }

    // ----- transactions ------------------------------------------------------------------------------

    /// Begins a transaction by saving the store (a clone that shares every node until the
    /// first write, change journal included); [`Database::rollback_transaction`] restores it.
    /// On a durable database the transaction's mutations only journal what they touch, and
    /// become durable together at [`Database::commit_transaction`].  A poisoned storage engine
    /// refuses the begin.
    pub fn begin_transaction(&mut self) -> SeedResult<()> {
        if self.txn.is_some() {
            return Err(SeedError::Transaction("a transaction is already active".to_string()));
        }
        if let (None, Some(dur)) = (&self.alternative, &self.durability) {
            dur.engine.usable()?;
        }
        self.txn = Some(self.store.clone());
        Ok(())
    }

    /// Commits the active transaction (updates were applied and checked as they happened).  On
    /// a durable database the journal is drained once: every touched record, encoded once, and
    /// then `meta` when it changed, commit as one batch with a single WAL sync.  If that commit
    /// fails, the transaction is rolled back in memory too (ids it allocated stay burned) and
    /// the commit's error is returned, so memory never holds what the log does not.
    pub fn commit_transaction(&mut self) -> SeedResult<()> {
        let Some(savepoint) = self.txn.take() else {
            return Err(SeedError::Transaction("no active transaction".to_string()));
        };
        // Meta goes in last, once: a non-transactional side-commit inside the transaction
        // (publish_schema, delete_version) committed its own fresher meta, which this copy then
        // equals (and so is not logged) or supersedes.
        let committed = self.persist_changes();
        if committed.is_err() {
            self.replace_store(savepoint);
        }
        committed
    }

    /// Rolls back the active transaction by restoring the store saved at
    /// [`Database::begin_transaction`] — records, indexes, dirty set and change journal alike —
    /// so nothing the transaction touched is owed to storage any more.
    pub fn rollback_transaction(&mut self) -> SeedResult<()> {
        let Some(savepoint) = self.txn.take() else {
            return Err(SeedError::Transaction("no active transaction".to_string()));
        };
        self.replace_store(savepoint);
        // Ids the rolled-back work allocated stay burned: re-commit the meta record when that
        // raised the id floors, so the durable floors match the in-memory counters.  A refused
        // check-in that allocated nothing writes nothing.
        self.commit_batch(Vec::new())
    }

    /// Makes `store` (a savepoint, or the stashed mainline) the working store again, keeping
    /// the ids the replaced one allocated burned.
    fn replace_store(&mut self, store: DataStore) {
        let (object_floor, relationship_floor) = self.store.id_floor();
        self.store = store;
        self.store.raise_id_floor(object_floor, relationship_floor);
    }

    /// Whether a transaction is active.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    // ----- object operations ----------------------------------------------------------------------------

    /// Creates an independent object of `class_name` with the given name and no value.
    pub fn create_object(&mut self, class_name: &str, name: &str) -> SeedResult<ObjectId> {
        self.create_object_full(class_name, name, Value::Undefined, false)
    }

    /// Creates an independent object with an initial value.
    pub fn create_object_with_value(
        &mut self,
        class_name: &str,
        name: &str,
        value: Value,
    ) -> SeedResult<ObjectId> {
        self.create_object_full(class_name, name, value, false)
    }

    /// Creates an independent **pattern** object (invisible to retrieval, not checked).
    pub fn create_pattern_object(&mut self, class_name: &str, name: &str) -> SeedResult<ObjectId> {
        self.create_object_full(class_name, name, Value::Undefined, true)
    }

    fn create_object_full(
        &mut self,
        class_name: &str,
        name: &str,
        value: Value,
        is_pattern: bool,
    ) -> SeedResult<ObjectId> {
        self.mutation_allowed()?;
        let class = self.schemas.current().class_id(class_name)?;
        let object_name = ObjectName::parse(name)?;
        if object_name.depth() != 1 {
            return Err(SeedError::Invalid(format!(
                "'{name}' is a hierarchical name; independent objects take a simple name"
            )));
        }
        if self.store.name_taken(name) {
            return Err(SeedError::DuplicateName(name.to_string()));
        }
        self.enforce(|| self.checker().check_new_object(class, None, &value, name, is_pattern))?;
        let id = self.store.allocate_object_id();
        let mut record = ObjectRecord::new(id, class, object_name, None);
        record.value = value;
        record.is_pattern = is_pattern;
        self.store.insert_object(record);
        self.persist_changes()?;
        Ok(id)
    }

    /// Creates a dependent (sub-)object of `parent`.
    ///
    /// `class_local_name` names a dependent class of the parent's class (or of one of its
    /// generalizations), e.g. `"Text"` for a `Data` parent.  The object's name is derived from
    /// the parent name: a plain segment when the dependent class allows at most one occurrence,
    /// an indexed segment (`Keywords[0]`, `Keywords[1]`, ...) otherwise.
    pub fn create_dependent(
        &mut self,
        parent: ObjectId,
        class_local_name: &str,
        value: Value,
    ) -> SeedResult<ObjectId> {
        self.insert_dependent(parent, class_local_name, None, value)
    }

    /// Creates a dependent object with an explicit name segment (used when the caller wants the
    /// exact names of the paper's Figure 1, e.g. a plain `Text` even though up to 16 may exist).
    pub fn create_dependent_named(
        &mut self,
        parent: ObjectId,
        class_local_name: &str,
        segment: NameSegment,
        value: Value,
    ) -> SeedResult<ObjectId> {
        self.insert_dependent(parent, class_local_name, Some(segment), value)
    }

    /// Creates a dependent object named `segment` under `parent`, or, without a segment, named
    /// as [`Database::create_dependent`] documents.
    fn insert_dependent(
        &mut self,
        parent: ObjectId,
        class_local_name: &str,
        segment: Option<NameSegment>,
        value: Value,
    ) -> SeedResult<ObjectId> {
        self.mutation_allowed()?;
        let parent_record = self.live_object(parent)?;
        let schema = self.schemas.current();
        let Some(class) = schema.dependent_class(parent_record.class, class_local_name) else {
            return Err(SeedError::NotFound(format!(
                "class '{}' has no dependent class named '{class_local_name}'",
                schema.class(parent_record.class)?.name
            )));
        };
        let segment = match segment {
            Some(segment) => segment,
            None if schema.class(class)?.occurrence.max == Some(1) => {
                NameSegment::plain(class_local_name)
            }
            None => {
                let n = self.store.children_of_class(parent, class).len() as u32;
                NameSegment::indexed(class_local_name, n)
            }
        };
        let is_pattern = parent_record.is_pattern;
        let name = parent_record.name.child(segment);
        let name_string = name.to_string();
        if self.store.name_taken(&name_string) {
            return Err(SeedError::DuplicateName(name_string));
        }
        self.enforce(|| {
            self.checker().check_new_object(class, Some(parent), &value, &name_string, is_pattern)
        })?;
        let id = self.store.allocate_object_id();
        let mut record = ObjectRecord::new(id, class, name, Some(parent));
        record.value = value;
        record.is_pattern = is_pattern;
        self.store.insert_object(record);
        self.persist_changes()?;
        Ok(id)
    }

    /// Sets the value of an object.
    pub fn set_value(&mut self, object: ObjectId, value: Value) -> SeedResult<()> {
        self.mutation_allowed()?;
        let record = self.live_object(object)?;
        self.enforce(|| self.checker().check_value_update(record, &value))?;
        self.store.update_object(object, |o| o.value = value);
        self.persist_changes()?;
        Ok(())
    }

    /// Renames an independent object; the hierarchical names of all its dependents follow.
    pub fn rename_object(&mut self, object: ObjectId, new_name: &str) -> SeedResult<()> {
        self.mutation_allowed()?;
        let record = self.live_object(object)?;
        if !record.is_independent() {
            return Err(SeedError::Invalid(
                "dependent objects are named through their parent and cannot be renamed directly"
                    .to_string(),
            ));
        }
        let parsed = ObjectName::parse(new_name)?;
        if parsed.depth() != 1 {
            return Err(SeedError::Invalid("the new name must be a simple name".to_string()));
        }
        if self.store.name_taken(new_name) {
            return Err(SeedError::DuplicateName(new_name.to_string()));
        }
        // Collect the whole subtree (the object and all transitive dependents).
        let mut subtree = vec![object];
        let mut cursor = 0;
        while cursor < subtree.len() {
            let current = subtree[cursor];
            cursor += 1;
            subtree.extend(self.store.children_of(current).iter().map(|c| c.id));
        }
        for id in subtree {
            let renamed = new_name.to_string();
            self.store.update_object(id, |o| o.name = o.name.with_root_renamed(renamed));
        }
        self.persist_changes()?;
        Ok(())
    }

    /// Logically deletes an object, its dependent objects and every relationship it participates
    /// in (the paper keeps deleted items physically so that versions remain reconstructible).
    pub fn delete_object(&mut self, object: ObjectId) -> SeedResult<()> {
        self.mutation_allowed()?;
        let record = self.live_object(object)?;
        self.enforce(|| self.checker().check_delete_object(record))?;
        // Subtree of dependents.
        let mut subtree = vec![object];
        let mut cursor = 0;
        while cursor < subtree.len() {
            let current = subtree[cursor];
            cursor += 1;
            subtree.extend(self.store.children_of(current).iter().map(|c| c.id));
        }
        for id in &subtree {
            for rel in self.store.relationships_of(*id).iter().map(|r| r.id).collect::<Vec<_>>() {
                self.store.tombstone_relationship(rel);
            }
        }
        for id in subtree {
            self.store.tombstone_object(id);
        }
        self.persist_changes()?;
        Ok(())
    }

    /// Re-classifies an object within a generalization hierarchy — the operation that makes
    /// vague information precise ("re-classifying 'Alarms' in class 'Data'") or vague again.
    pub fn reclassify_object(&mut self, object: ObjectId, new_class_name: &str) -> SeedResult<()> {
        self.mutation_allowed()?;
        let new_class = self.schemas.current().class_id(new_class_name)?;
        let record = self.live_object(object)?;
        if record.class == new_class {
            return Ok(());
        }
        self.enforce(|| self.checker().check_reclassify_object(record, new_class))?;
        self.store.update_object(object, |o| o.class = new_class);
        self.persist_changes()?;
        Ok(())
    }

    // ----- relationship operations ------------------------------------------------------------------------

    /// Creates a relationship of `association_name` binding the given objects to roles.
    pub fn create_relationship(
        &mut self,
        association_name: &str,
        bindings: &[(&str, ObjectId)],
    ) -> SeedResult<RelationshipId> {
        self.create_relationship_full(association_name, bindings, &[], false)
    }

    /// Creates a relationship carrying attribute values (e.g. `NumberOfWrites = 2`).
    pub fn create_relationship_with_attributes(
        &mut self,
        association_name: &str,
        bindings: &[(&str, ObjectId)],
        attributes: &[(&str, Value)],
    ) -> SeedResult<RelationshipId> {
        self.create_relationship_full(association_name, bindings, attributes, false)
    }

    /// Creates a **pattern** relationship (Figure 5's PR1/PR2).
    pub fn create_pattern_relationship(
        &mut self,
        association_name: &str,
        bindings: &[(&str, ObjectId)],
    ) -> SeedResult<RelationshipId> {
        self.create_relationship_full(association_name, bindings, &[], true)
    }

    fn create_relationship_full(
        &mut self,
        association_name: &str,
        bindings: &[(&str, ObjectId)],
        attributes: &[(&str, Value)],
        is_pattern: bool,
    ) -> SeedResult<RelationshipId> {
        self.mutation_allowed()?;
        let association = self.schemas.current().association_id(association_name)?;
        let owned_bindings: Vec<(String, ObjectId)> =
            bindings.iter().map(|(r, o)| (r.to_string(), *o)).collect();
        let owned_attributes: HashMap<String, Value> =
            attributes.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        // Every bound object must exist even for patterns (a pattern relationship still points at
        // real or pattern objects).
        for (_, obj) in &owned_bindings {
            self.live_object(*obj)?;
        }
        self.enforce(|| {
            self.checker().check_new_relationship(
                association,
                &owned_bindings,
                &owned_attributes,
                is_pattern,
                None,
            )
        })?;
        let id = self.store.allocate_relationship_id();
        let mut record = RelationshipRecord::new(id, association, owned_bindings);
        record.attributes = owned_attributes.into_iter().collect();
        record.is_pattern = is_pattern;
        self.store.insert_relationship(record);
        self.persist_changes()?;
        Ok(id)
    }

    /// Sets a relationship attribute value.
    pub fn set_relationship_attribute(
        &mut self,
        relationship: RelationshipId,
        attribute: &str,
        value: Value,
    ) -> SeedResult<()> {
        self.mutation_allowed()?;
        let record = self.live_relationship(relationship)?;
        self.enforce(|| self.checker().check_attribute_update(record, attribute, &value))?;
        let attribute = attribute.to_string();
        self.store.update_relationship(relationship, |r| {
            r.attributes.insert(attribute, value);
        });
        self.persist_changes()?;
        Ok(())
    }

    /// Re-classifies a relationship within an association generalization hierarchy, e.g. making
    /// a vague `Access` precise as a `Write`.  Role names are re-mapped by position
    /// (`Access.from` ↔ `Write.to`).
    pub fn reclassify_relationship(
        &mut self,
        relationship: RelationshipId,
        new_association_name: &str,
    ) -> SeedResult<()> {
        self.mutation_allowed()?;
        let new_association = self.schemas.current().association_id(new_association_name)?;
        let record = self.live_relationship(relationship)?;
        if record.association == new_association {
            return Ok(());
        }
        self.enforce(|| self.checker().check_reclassify_relationship(record, new_association))?;
        let new_roles: Vec<String> = self
            .schemas
            .current()
            .association(new_association)?
            .roles
            .iter()
            .map(|r| r.name.clone())
            .collect();
        self.store.update_relationship(relationship, |r| {
            r.association = new_association;
            for (idx, (role, _)) in r.bindings.iter_mut().enumerate() {
                if let Some(new_role) = new_roles.get(idx) {
                    *role = new_role.clone();
                }
            }
        });
        self.persist_changes()?;
        Ok(())
    }

    /// Logically deletes a relationship.
    pub fn delete_relationship(&mut self, relationship: RelationshipId) -> SeedResult<()> {
        self.mutation_allowed()?;
        self.live_relationship(relationship)?;
        self.store.tombstone_relationship(relationship);
        self.persist_changes()?;
        Ok(())
    }

    // ----- patterns and variants -----------------------------------------------------------------------------

    /// Marks an existing object as a pattern (it disappears from ordinary retrieval).
    pub fn mark_pattern(&mut self, object: ObjectId) -> SeedResult<()> {
        self.mutation_allowed()?;
        self.live_object(object)?;
        self.store.update_object(object, |o| o.is_pattern = true);
        self.persist_changes()?;
        Ok(())
    }

    /// Establishes the inherits-relationship between `inheritor` and `pattern`.
    ///
    /// The materialized view of the inheritor (the pattern's relationships with the inheritor
    /// substituted) is consistency-checked at this point, because "patterns (...) are not
    /// checked for consistency unless they are inherited by a 'normal' data item".
    pub fn inherit_pattern(&mut self, inheritor: ObjectId, pattern: ObjectId) -> SeedResult<()> {
        self.mutation_allowed()?;
        let pattern_record = self.live_object(pattern)?;
        if !pattern_record.is_pattern {
            return Err(SeedError::Pattern(format!("'{}' is not a pattern", pattern_record.name)));
        }
        let inheritor_record = self.live_object(inheritor)?;
        if inheritor_record.is_pattern {
            return Err(SeedError::Pattern("patterns cannot inherit other patterns".to_string()));
        }
        // Consistency of the materialized view: every pattern relationship, seen with the
        // inheritor substituted, must be a legal relationship.
        if self.consistency_checking {
            let mut violations = Vec::new();
            for rel in self.store.relationships_of(pattern) {
                if rel.deleted {
                    continue;
                }
                let materialized = rel.with_substituted(pattern, inheritor);
                let attributes: HashMap<String, Value> =
                    materialized.attributes.clone().into_iter().collect();
                violations.extend(self.checker().check_new_relationship(
                    materialized.association,
                    &materialized.bindings,
                    &attributes,
                    false,
                    Some(rel.id),
                ));
            }
            self.enforce(|| violations)?;
        }
        self.store.add_inherits(inheritor, pattern);
        self.persist_changes()?;
        Ok(())
    }

    /// Removes an inherits-relationship.
    pub fn uninherit_pattern(&mut self, inheritor: ObjectId, pattern: ObjectId) -> SeedResult<()> {
        self.mutation_allowed()?;
        if !self.store.remove_inherits(inheritor, pattern) {
            return Err(SeedError::Pattern(format!("{inheritor} does not inherit {pattern}")));
        }
        self.persist_changes()?;
        Ok(())
    }

    /// Patterns inherited by an object.
    pub fn inherited_patterns(&self, object: ObjectId) -> Vec<ObjectId> {
        self.read_store().inherited_patterns(object)
    }

    /// Objects inheriting a pattern.
    pub fn inheritors_of(&self, pattern: ObjectId) -> Vec<ObjectId> {
        self.read_store().inheritors_of(pattern)
    }

    /// Guards updates made "in the context of" an inheritor: if `relationship` is inherited by
    /// `context` from a pattern, the update is rejected — "pattern information cannot be updated
    /// in the context of the inheritors, but only in the pattern itself".
    pub fn assert_updatable_in_context(
        &self,
        context: ObjectId,
        relationship: RelationshipId,
    ) -> SeedResult<()> {
        if let Some(pattern) =
            pattern::is_inherited_relationship(&self.store, context, relationship)
        {
            let inheritor_name = self
                .store
                .object(context)
                .map(|o| o.name.to_string())
                .unwrap_or_else(|| context.to_string());
            let pattern_name = self
                .store
                .object(pattern)
                .map(|o| o.name.to_string())
                .unwrap_or_else(|| pattern.to_string());
            return Err(SeedError::Pattern(format!(
                "'{inheritor_name}' inherits this relationship from pattern '{pattern_name}'; update the pattern instead"
            )));
        }
        Ok(())
    }

    // ----- retrieval -------------------------------------------------------------------------------------------

    /// Retrieves an object by its full hierarchical name (the prototype's primary access path).
    /// Patterns are invisible; deleted objects are invisible.
    pub fn object_by_name(&self, name: &str) -> SeedResult<ObjectRecord> {
        self.read_store()
            .object_by_name(name)
            .filter(|o| !o.is_pattern)
            .cloned()
            .ok_or_else(|| SeedError::NotFound(format!("object '{name}'")))
    }

    /// Retrieves any live object (pattern or not) by name — used by pattern-management tools.
    pub fn any_object_by_name(&self, name: &str) -> SeedResult<ObjectRecord> {
        self.read_store()
            .object_by_name(name)
            .cloned()
            .ok_or_else(|| SeedError::NotFound(format!("object '{name}'")))
    }

    /// Retrieves an object by id.
    pub fn object(&self, id: ObjectId) -> SeedResult<ObjectRecord> {
        self.read_store()
            .live_object(id)
            .cloned()
            .ok_or_else(|| SeedError::NotFound(format!("object {id}")))
    }

    /// Retrieves a relationship by id.
    pub fn relationship(&self, id: RelationshipId) -> SeedResult<RelationshipRecord> {
        self.read_store()
            .live_relationship(id)
            .cloned()
            .ok_or_else(|| SeedError::NotFound(format!("relationship {id}")))
    }

    /// All visible objects of a class; `include_specializations` also returns instances of its
    /// subclasses (the natural reading under generalization).
    pub fn objects_of_class(
        &self,
        class_name: &str,
        include_specializations: bool,
    ) -> SeedResult<Vec<ObjectRecord>> {
        let store = self.read_store();
        let mut out = Vec::new();
        for c in self.class_hierarchy(class_name, include_specializations)? {
            out.extend(store.extent(c).into_iter().filter(|o| !o.is_pattern).cloned());
        }
        out.sort_by_key(|o| o.id);
        Ok(out)
    }

    /// Visible dependent objects of `parent`, including those inherited from patterns.
    pub fn children(&self, parent: ObjectId) -> Vec<MaterializedChild> {
        pattern::materialized_children(self.read_store(), parent)
    }

    /// The value visible for `object` (its own, or inherited from a pattern).
    pub fn value(&self, object: ObjectId) -> Value {
        pattern::effective_value(self.read_store(), object)
    }

    /// Relationships visible in the context of `object`: its own plus inherited pattern
    /// relationships (with the inheritor substituted).
    pub fn relationships(&self, object: ObjectId) -> Vec<MaterializedRelationship> {
        pattern::materialized_relationships(self.read_store(), object)
    }

    /// Navigates from `object` along `association_name`: returns the objects bound to `to_role`
    /// in visible relationships (own or inherited) where `object` is bound to `from_role`.
    /// Relationships of specializations of the association are included.
    pub fn related(
        &self,
        object: ObjectId,
        association_name: &str,
        from_role: &str,
        to_role: &str,
    ) -> SeedResult<Vec<ObjectRecord>> {
        let schema = self.schemas.current();
        let association = schema.association_id(association_name)?;
        let assoc_def = schema.association(association)?;
        let from_index = assoc_def.role_index(from_role).ok_or_else(|| {
            SeedError::NotFound(format!("role '{from_role}' of '{association_name}'"))
        })?;
        let to_index = assoc_def.role_index(to_role).ok_or_else(|| {
            SeedError::NotFound(format!("role '{to_role}' of '{association_name}'"))
        })?;
        let mut hierarchy = schema.association_descendants(association);
        hierarchy.push(association);
        let store = self.read_store();
        let mut out = Vec::new();
        for rel in pattern::materialized_relationships(store, object) {
            if !hierarchy.contains(&rel.record.association) {
                continue;
            }
            if rel.record.bindings.get(from_index).map(|(_, o)| *o) != Some(object) {
                continue;
            }
            if let Some((_, target)) = rel.record.bindings.get(to_index) {
                if let Some(obj) = store.live_object(*target) {
                    out.push(obj.clone());
                }
            }
        }
        out.sort_by_key(|o| o.id);
        out.dedup_by_key(|o| o.id);
        Ok(out)
    }

    /// Upper bound on the number of objects navigation from the named object can reach: its
    /// live relationships plus those of every pattern it inherits (see
    /// [`DataStore::navigation_degree`]).  The query planner's estimate for walking the
    /// object's adjacency instead of scanning an extent; `O(log n)`, no record is cloned.
    /// `None` when the name does not resolve to a visible object.
    pub fn navigation_degree(&self, name: &str) -> Option<usize> {
        let store = self.read_store();
        let object = store.object_by_name(name).filter(|o| !o.is_pattern)?;
        Some(store.navigation_degree(object.id))
    }

    /// Finds visible objects of a class (and its specializations) whose value matches `value`.
    /// Undefined values match nothing.
    pub fn find_by_value(&self, class_name: &str, value: &Value) -> SeedResult<Vec<ObjectRecord>> {
        Ok(self
            .objects_of_class(class_name, true)?
            .into_iter()
            .filter(|o| o.value.matches(value))
            .collect())
    }

    /// Visible objects whose name starts with `prefix` (dependent objects of `Alarms` via
    /// `"Alarms."`, for instance).  Served by the ordered name index: a range scan, not a full
    /// scan, so the cost is `O(log n + hits)`.  Results come back in name order.
    pub fn objects_with_name_prefix(&self, prefix: &str) -> Vec<ObjectRecord> {
        self.read_store()
            .objects_with_name_prefix(prefix)
            .into_iter()
            .filter(|o| !o.is_pattern)
            .cloned()
            .collect()
    }

    /// Upper bound on the number of objects [`Database::objects_with_name_prefix`] would return
    /// (name-index entries with the prefix; patterns not yet filtered).  Used by the query
    /// planner as the cardinality estimate of a prefix range scan; counting early-exits at
    /// `cap` (the competing scan cost), so a wide prefix never walks the whole index at plan
    /// time.
    pub fn name_prefix_estimate(&self, prefix: &str, cap: usize) -> usize {
        self.read_store().name_prefix_count(prefix, cap)
    }

    /// Visible objects of a class (and, with `include_specializations`, its subclasses) whose
    /// value satisfies `op` against a query literal, resolved through the secondary value index
    /// (see [`crate::index`]).  Point probes cost `O(log n)` per class in the hierarchy instead
    /// of the `O(n)` extent scan; the comparison semantics are identical to the scan path
    /// (undefined values match nothing).  Results are sorted by object id.
    pub fn objects_by_value(
        &self,
        class_name: &str,
        include_specializations: bool,
        op: ValueOp,
        literal: &str,
    ) -> SeedResult<Vec<ObjectRecord>> {
        let store = self.read_store();
        let mut out = Vec::new();
        for c in self.class_hierarchy(class_name, include_specializations)? {
            out.extend(
                store
                    .objects_by_value(c, op, literal)
                    .into_iter()
                    .filter(|o| !o.is_pattern)
                    .cloned(),
            );
        }
        out.sort_by_key(|o| o.id);
        Ok(out)
    }

    /// Number of index entries [`Database::objects_by_value`] would resolve (patterns not yet
    /// filtered) — the planner's cardinality estimate for a value probe or range scan.
    /// Counting early-exits at `cap` (the competing scan cost): once the index path is at
    /// least that expensive its exact cost no longer matters, which bounds plan-time work.
    pub fn value_index_estimate(
        &self,
        class_name: &str,
        include_specializations: bool,
        op: ValueOp,
        literal: &str,
        cap: usize,
    ) -> SeedResult<usize> {
        let store = self.read_store();
        let mut total = 0usize;
        for c in self.class_hierarchy(class_name, include_specializations)? {
            total += store.value_estimate(c, op, literal, cap.saturating_sub(total));
            if total >= cap {
                return Ok(cap);
            }
        }
        Ok(total)
    }

    /// Number of live objects in the extent of a class (and optionally its subclasses),
    /// patterns included — the planner's cost proxy for a full extent scan.
    pub fn class_extent_estimate(
        &self,
        class_name: &str,
        include_specializations: bool,
    ) -> SeedResult<usize> {
        let store = self.read_store();
        Ok(self
            .class_hierarchy(class_name, include_specializations)?
            .into_iter()
            .map(|c| store.extent_size(c))
            .sum())
    }

    /// The class ids a class-ranged retrieval covers: the class itself plus, when requested,
    /// all its specializations.  This is the single source of truth for "which classes does a
    /// query over `class_name` range over" — the query layer's access paths use it so the
    /// indexed and scan pipelines can never disagree on hierarchy semantics.
    pub fn class_hierarchy(
        &self,
        class_name: &str,
        include_specializations: bool,
    ) -> SeedResult<Vec<ClassId>> {
        let schema = self.schemas.current();
        let class = schema.class_id(class_name)?;
        let mut classes = vec![class];
        if include_specializations {
            classes.extend(schema.class_descendants(class));
        }
        Ok(classes)
    }

    /// Runs the completeness analysis on the read context.
    pub fn completeness_report(&self) -> CompletenessReport {
        completeness::analyze(self.schemas.current(), self.read_store())
    }

    // ----- versions ----------------------------------------------------------------------------------------------

    /// Creates a version snapshot with an automatically chosen id (`1.0`, `2.0`, ... on the main
    /// line; `base.1`, `base.2`, ... while working on an alternative).
    pub fn create_version(&mut self, comment: &str) -> SeedResult<VersionId> {
        let id = match &self.alternative {
            Some(alt) => self.versions.next_alternative_id(&alt.base),
            None => self.versions.next_default_id(),
        };
        self.create_version_as(id.clone(), comment)?;
        Ok(id)
    }

    /// Creates a version snapshot with an explicit id.
    pub fn create_version_as(&mut self, id: VersionId, comment: &str) -> SeedResult<()> {
        self.mutation_allowed()?;
        if self.txn.is_some() {
            return Err(SeedError::Transaction(
                "finish the active transaction before creating a version".to_string(),
            ));
        }
        let parent = match &self.alternative {
            Some(alt) => Some(alt.base.clone()),
            None => self.versions.last_created().cloned(),
        };
        // History-sensitive consistency rules compare the parent view with the current state.
        if !self.transition_rules.is_empty() {
            if let Some(parent_id) = &parent {
                let previous = self.versions.view(parent_id)?;
                let violations = check_transition(
                    &self.transition_rules,
                    self.schemas.current(),
                    &previous,
                    &self.store,
                );
                if !violations.is_empty() {
                    let text =
                        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ");
                    return Err(SeedError::TransitionRejected(text));
                }
            }
        }
        // The delta the snapshot will record is the current dirty set; capture it before the
        // version manager drains it, so the durable `v/<vid>/…` records match exactly.
        let delta: Option<Vec<ItemId>> =
            self.durability.as_ref().map(|_| self.store.dirty_items().keys().copied().collect());
        Arc::make_mut(&mut self.versions).create_version(
            id.clone(),
            parent,
            self.schemas.current_id(),
            comment,
            &mut self.store,
        )?;
        if let Some(delta) = delta {
            self.persist_version_created(&id, &delta)?;
        }
        Ok(())
    }

    /// Selects a historical version for retrieval; `None` selects the current version again.
    pub fn select_version(&mut self, version: Option<VersionId>) -> SeedResult<()> {
        match version {
            Some(v) => {
                let view = self.versions.view(&v)?;
                self.selected_view = Some(view);
                self.selected_version = Some(v);
            }
            None => {
                self.selected_view = None;
                self.selected_version = None;
            }
        }
        Ok(())
    }

    /// The version currently selected for retrieval (`None` = current).
    pub fn selected_version(&self) -> Option<&VersionId> {
        self.selected_version.as_ref()
    }

    /// All stored versions.
    pub fn versions(&self) -> Vec<&VersionInfo> {
        self.versions.versions()
    }

    /// Metadata of one version.
    pub fn version_info(&self, id: &VersionId) -> SeedResult<&VersionInfo> {
        self.versions.info(id)
    }

    /// Deletes a stored version (and, on a durable database, its `vi/` and `v/` records).
    pub fn delete_version(&mut self, id: &VersionId) -> SeedResult<()> {
        if self.selected_version.as_ref() == Some(id) {
            return Err(SeedError::Version(
                "cannot delete the version currently selected for retrieval".to_string(),
            ));
        }
        let dropped = Arc::make_mut(&mut self.versions).delete_version(id)?;
        self.persist_version_deleted(id, &dropped)
    }

    /// History retrieval: all stored versions of an object, optionally "beginning with version
    /// `from`" as in the paper's example.
    pub fn versions_of_object(
        &self,
        object: ObjectId,
        from: Option<&VersionId>,
    ) -> Vec<(VersionId, ObjectRecord)> {
        self.versions
            .versions_of_item(ItemId::Object(object), from)
            .into_iter()
            .filter_map(|(v, snap)| match snap {
                crate::version::ItemSnapshot::Object(o) => Some((v.clone(), o.clone())),
                _ => None,
            })
            .collect()
    }

    /// Starts working on an **alternative**: the current state is stashed, and the view of
    /// `base` becomes the working state.  Finish with [`Database::create_version`] (which files
    /// the alternative under `base.n`) and [`Database::return_to_current`].
    pub fn checkout_alternative(&mut self, base: VersionId) -> SeedResult<()> {
        if self.alternative.is_some() {
            return Err(SeedError::Version("already working on an alternative".to_string()));
        }
        if self.txn.is_some() {
            return Err(SeedError::Transaction(
                "finish the active transaction before checking out an alternative".to_string(),
            ));
        }
        self.mutation_allowed()?;
        let mut view = self.versions.view(&base)?;
        // Fresh ids allocated while working on the alternative must not collide with ids already
        // used by the current state (both feed the same version histories).
        let (obj_floor, rel_floor) = self.store.id_floor();
        view.raise_id_floor(obj_floor, rel_floor);
        let stashed = std::mem::replace(&mut self.store, view);
        self.alternative = Some(AlternativeContext { base, stashed });
        Ok(())
    }

    /// Whether an alternative is being worked on.
    pub fn in_alternative(&self) -> bool {
        self.alternative.is_some()
    }

    /// The base version of the alternative being worked on, if any.
    pub fn alternative_base(&self) -> Option<&VersionId> {
        self.alternative.as_ref().map(|a| &a.base)
    }

    /// Ends work on an alternative and restores the original current state ("the original
    /// current version is selected again").  Unsaved changes to the alternative are discarded,
    /// but the ids it allocated stay burned: its version snapshots file items under them.
    pub fn return_to_current(&mut self) -> SeedResult<()> {
        if self.txn.is_some() {
            // Mirrors the guard in checkout_alternative: letting a transaction begun in the
            // alternative span the store swap would roll back against the wrong store.
            return Err(SeedError::Transaction(
                "finish the active transaction before returning to the current version".to_string(),
            ));
        }
        match self.alternative.take() {
            Some(alt) => {
                self.replace_store(alt.stashed);
                self.commit_batch(Vec::new())
            }
            None => Err(SeedError::Version("not working on an alternative".to_string())),
        }
    }

    // ----- persistence plumbing (used by crate::durability and crate::replica) --------------------------------------

    pub(crate) fn parts(
        &self,
    ) -> (&SchemaRegistry, &DataStore, &VersionManager, &[TransitionRule]) {
        (&self.schemas, &self.store, &self.versions, &self.transition_rules)
    }

    pub(crate) fn from_parts(
        schemas: SchemaRegistry,
        store: DataStore,
        versions: VersionManager,
        transition_rules: Vec<TransitionRule>,
    ) -> Self {
        Self::from_shared(Arc::new(schemas), store, Arc::new(versions), transition_rules)
    }

    fn from_shared(
        schemas: Arc<SchemaRegistry>,
        store: DataStore,
        versions: Arc<VersionManager>,
        transition_rules: Vec<TransitionRule>,
    ) -> Self {
        Self {
            schemas,
            store,
            versions,
            procedures: ProcedureRegistry::new(),
            selected_version: None,
            selected_view: None,
            alternative: None,
            txn: None,
            transition_rules,
            consistency_checking: true,
            durability: None,
            topology_epoch: 0,
            fenced_to: None,
            epochs: Vec::new(),
        }
    }

    /// A copy of the queryable state (schemas, store with all indexes, versions, rules) for use
    /// as an immutable read snapshot.  Every part is shared, not copied, so the cost does not
    /// grow with the database.  Durability handles, open transactions and attached procedures
    /// are not carried over — snapshots never write.
    pub(crate) fn clone_for_snapshot(&self) -> Database {
        let (schemas, versions) = (Arc::clone(&self.schemas), Arc::clone(&self.versions));
        let rules = self.transition_rules.clone();
        let mut db = Self::from_shared(schemas, self.store.clone(), versions, rules);
        db.selected_version = self.selected_version.clone();
        db.selected_view = self.selected_view.clone();
        db.consistency_checking = self.consistency_checking;
        db.set_topology(self.topology_epoch, self.fenced_to.clone(), self.epochs.clone());
        db
    }

    // ----- applier plumbing (used by crate::durability) ---------------------------------------

    pub(crate) fn store_mut(&mut self) -> &mut DataStore {
        &mut self.store
    }

    pub(crate) fn schemas_mut(&mut self) -> &mut SchemaRegistry {
        Arc::make_mut(&mut self.schemas)
    }

    pub(crate) fn versions_mut(&mut self) -> &mut VersionManager {
        Arc::make_mut(&mut self.versions)
    }

    pub(crate) fn set_transition_rules(&mut self, rules: Vec<TransitionRule>) {
        self.transition_rules = rules;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_schema::{figure2_schema, figure3_schema};

    fn db3() -> Database {
        Database::new(figure3_schema())
    }

    /// `register_procedure` is the one way a named attached procedure reaches the checker.
    #[test]
    fn a_registered_procedure_vetoes_updates_through_the_database() {
        use crate::ConsistencyViolation;
        use seed_schema::AttachedProcedure;
        let procedure_failed = |err: &SeedError| {
            match err {
            SeedError::Inconsistent(violations) => violations
                .iter()
                .any(|v| matches!(v, ConsistencyViolation::ProcedureFailed { procedure, .. } if procedure == "no_umlauts")),
            _ => false,
        }
        };
        let mut schema = figure3_schema();
        let selector = schema.class_id("Data.Text.Selector").unwrap();
        schema
            .attach_class_procedure(selector, AttachedProcedure::Named("no_umlauts".into()))
            .unwrap();
        let mut db = Database::new(schema);
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let text = db
            .create_dependent_named(alarms, "Text", NameSegment::plain("Text"), Value::Undefined)
            .unwrap();

        // Not registered: the procedure cannot run, so it vetoes the create.
        let err = db.create_dependent(text, "Selector", Value::string("Representation"));
        assert!(procedure_failed(&err.unwrap_err()));
        assert_eq!(db.object_count(), 2, "the vetoed create left nothing behind");

        db.register_procedure("no_umlauts", |ctx| match ctx.value.and_then(|v| v.as_str()) {
            Some(s) if s.contains('ä') => Err("umlauts are not allowed".to_string()),
            _ => Ok(()),
        });
        let good = db.create_dependent(text, "Selector", Value::string("Representation")).unwrap();
        assert_eq!(db.object(good).unwrap().value, Value::string("Representation"));

        let before = format!("{:?}", db.objects_with_name_prefix(""));
        let err = db.set_value(good, Value::string("Darstellung der Zustände")).unwrap_err();
        assert!(procedure_failed(&err), "{err:?}");
        assert_eq!(format!("{:?}", db.objects_with_name_prefix("")), before, "store unchanged");
    }

    #[test]
    fn create_and_retrieve_by_name() {
        let mut db = db3();
        let alarms = db.create_object("Data", "Alarms").unwrap();
        assert_eq!(db.object_by_name("Alarms").unwrap().id, alarms);
        assert!(db.object_by_name("Ghost").is_err());
        assert_eq!(db.object_count(), 1);
        // Duplicate names rejected.
        assert!(matches!(db.create_object("Data", "Alarms"), Err(SeedError::DuplicateName(_))));
        // Unknown class rejected.
        assert!(db.create_object("Ghost", "X").is_err());
        // Hierarchical names are not allowed for independent objects.
        assert!(db.create_object("Data", "A.B").is_err());
    }

    #[test]
    fn dependent_objects_get_hierarchical_names() {
        let mut db = db3();
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let text = db
            .create_dependent_named(alarms, "Text", NameSegment::plain("Text"), Value::Undefined)
            .unwrap();
        let body = db
            .create_dependent_named(text, "Body", NameSegment::plain("Body"), Value::Undefined)
            .unwrap();
        let kw0 = db.create_dependent(body, "Keywords", Value::string("Alarmhandling")).unwrap();
        let kw1 = db.create_dependent(body, "Keywords", Value::string("Display")).unwrap();
        assert_eq!(db.object(kw0).unwrap().name.to_string(), "Alarms.Text.Body.Keywords[0]");
        assert_eq!(db.object(kw1).unwrap().name.to_string(), "Alarms.Text.Body.Keywords[1]");
        let selector =
            db.create_dependent(text, "Selector", Value::string("Representation")).unwrap();
        assert_eq!(db.object(selector).unwrap().name.to_string(), "Alarms.Text.Selector");
        // Children listing.
        assert_eq!(db.children(text).len(), 2);
        // Unknown dependent class.
        assert!(db.create_dependent(alarms, "Ghost", Value::Undefined).is_err());
    }

    #[test]
    fn consistency_is_enforced_on_every_update() {
        let mut db = db3();
        let alarms = db.create_object("Data", "Alarms").unwrap();
        // Value on a class without domain.
        assert!(matches!(
            db.set_value(alarms, Value::string("x")),
            Err(SeedError::Inconsistent(_))
        ));
        // Read requires InputData.
        let sensor = db.create_object("Action", "Sensor").unwrap();
        assert!(db.create_relationship("Read", &[("from", alarms), ("by", sensor)]).is_err());
        // Access works.
        assert!(db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).is_ok());
        // Disabling the checks lets the bad value through (benchmark mode).
        db.set_consistency_checking(false);
        assert!(db.set_value(alarms, Value::string("x")).is_ok());
    }

    #[test]
    fn figure3_vague_to_precise_workflow() {
        let mut db = db3();
        // "There is a thing with name 'Alarms'."
        let alarms = db.create_object("Thing", "Alarms").unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        // It is a data object accessed by 'Sensor'.
        db.reclassify_object(alarms, "Data").unwrap();
        let access = db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        // It is an output...
        db.reclassify_object(alarms, "OutputData").unwrap();
        // ...written by Sensor...
        db.reclassify_relationship(access, "Write").unwrap();
        // ...twice, repeated in case of error.
        db.set_relationship_attribute(access, "NumberOfWrites", Value::Integer(2)).unwrap();
        db.set_relationship_attribute(access, "ErrorHandling", Value::symbol("repeat")).unwrap();

        let rel = db.relationship(access).unwrap();
        assert_eq!(db.schema().association(rel.association).unwrap().name, "Write");
        assert_eq!(rel.bound("to"), Some(alarms));
        assert_eq!(rel.attributes.get("NumberOfWrites"), Some(&Value::Integer(2)));
        // Retrieval by class respects the hierarchy.
        assert_eq!(db.objects_of_class("Data", true).unwrap().len(), 1);
        assert_eq!(db.objects_of_class("Data", false).unwrap().len(), 0);
        // Navigation.
        let writers = db.related(alarms, "Access", "from", "by").unwrap();
        assert_eq!(writers.len(), 1);
        assert_eq!(writers[0].id, sensor);
    }

    #[test]
    fn reclassification_errors_are_reported() {
        let mut db = db3();
        let alarms = db.create_object("Data", "Alarms").unwrap();
        assert!(db.reclassify_object(alarms, "Data.Text").is_err());
        assert!(db.reclassify_object(alarms, "Ghost").is_err());
        // No-op re-classification succeeds.
        assert!(db.reclassify_object(alarms, "Data").is_ok());
    }

    #[test]
    fn delete_cascades_to_dependents_and_relationships() {
        let mut db = db3();
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let text = db
            .create_dependent_named(alarms, "Text", NameSegment::plain("Text"), Value::Undefined)
            .unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        let rel = db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        db.delete_object(alarms).unwrap();
        assert!(db.object_by_name("Alarms").is_err());
        assert!(db.object(text).is_err());
        assert!(db.relationship(rel).is_err());
        assert!(db.object(sensor).is_ok());
        // Deleting again fails (already gone).
        assert!(db.delete_object(alarms).is_err());
    }

    #[test]
    fn transactions_roll_back_cleanly() {
        let mut db = db3();
        let alarms = db.create_object("Data", "Alarms").unwrap();
        db.begin_transaction().unwrap();
        assert!(db.in_transaction());
        let sensor = db.create_object("Action", "Sensor").unwrap();
        db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        db.reclassify_object(alarms, "OutputData").unwrap();
        db.rollback_transaction().unwrap();
        assert!(!db.in_transaction());
        assert!(db.object_by_name("Sensor").is_err());
        assert_eq!(db.object(alarms).unwrap().class, db.schema().class_id("Data").unwrap());
        assert_eq!(db.relationship_count(), 0);
        // Commit path.
        db.begin_transaction().unwrap();
        db.create_object("Action", "Sensor").unwrap();
        db.commit_transaction().unwrap();
        assert!(db.object_by_name("Sensor").is_ok());
        // Double begin / stray commit.
        db.begin_transaction().unwrap();
        assert!(db.begin_transaction().is_err());
        db.rollback_transaction().unwrap();
        assert!(db.commit_transaction().is_err());
        assert!(db.rollback_transaction().is_err());
    }

    #[test]
    fn rename_propagates_to_dependents() {
        let mut db = db3();
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let text = db
            .create_dependent_named(alarms, "Text", NameSegment::plain("Text"), Value::Undefined)
            .unwrap();
        db.rename_object(alarms, "AlarmMatrix").unwrap();
        assert_eq!(db.object(text).unwrap().name.to_string(), "AlarmMatrix.Text");
        assert!(db.object_by_name("Alarms").is_err());
        assert!(db.object_by_name("AlarmMatrix.Text").is_ok());
        // Dependent objects cannot be renamed directly.
        assert!(db.rename_object(text, "Elsewhere").is_err());
    }

    #[test]
    fn versions_snapshots_views_and_alternatives() {
        let mut db = db3();
        let handler = db.create_object("Action", "AlarmHandler").unwrap();
        let desc = db
            .create_dependent_named(
                handler,
                "Description",
                NameSegment::plain("Description"),
                Value::string("Handles alarms"),
            )
            .unwrap();
        let v10 = db.create_version("first release").unwrap();
        assert_eq!(v10.to_string(), "1.0");

        db.set_value(desc, Value::string("Handles alarms derived from ProcessData")).unwrap();
        let v20 = db.create_version("second release").unwrap();
        assert_eq!(v20.to_string(), "2.0");

        db.set_value(
            desc,
            Value::string("Generates alarms from process data, triggers Operator Alert"),
        )
        .unwrap();

        // Current sees the newest text; selected versions see their own.
        assert_eq!(
            db.object(desc).unwrap().value,
            Value::string("Generates alarms from process data, triggers Operator Alert")
        );
        db.select_version(Some(v10.clone())).unwrap();
        assert_eq!(db.object(desc).unwrap().value, Value::string("Handles alarms"));
        assert_eq!(db.selected_version().unwrap().to_string(), "1.0");
        // Historical versions are read-only.
        assert!(matches!(
            db.set_value(desc, Value::string("x")),
            Err(SeedError::ReadOnlyVersion(_))
        ));
        db.select_version(None).unwrap();

        // History retrieval beginning with 2.0.
        let history = db.versions_of_object(desc, Some(&v20));
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].0, v20);

        // Alternative branched from 1.0.
        db.checkout_alternative(v10.clone()).unwrap();
        assert!(db.in_alternative());
        assert_eq!(db.alternative_base().unwrap(), &v10);
        assert_eq!(db.object(desc).unwrap().value, Value::string("Handles alarms"));
        db.set_value(desc, Value::string("Alternative design")).unwrap();
        let alt = db.create_version("alternative").unwrap();
        assert_eq!(alt.to_string(), "1.0.1");
        db.return_to_current().unwrap();
        assert!(!db.in_alternative());
        assert_eq!(
            db.object(desc).unwrap().value,
            Value::string("Generates alarms from process data, triggers Operator Alert")
        );
        // The alternative's view is intact.
        db.select_version(Some(alt.clone())).unwrap();
        assert_eq!(db.object(desc).unwrap().value, Value::string("Alternative design"));
        db.select_version(None).unwrap();
        // Version metadata.
        assert_eq!(db.versions().len(), 3);
        assert_eq!(db.version_info(&alt).unwrap().parent, Some(v10.clone()));
        // Deleting a selected version is refused; otherwise allowed.
        db.select_version(Some(alt.clone())).unwrap();
        assert!(db.delete_version(&alt).is_err());
        db.select_version(None).unwrap();
        db.delete_version(&alt).unwrap();
        assert_eq!(db.versions().len(), 2);
    }

    #[test]
    fn transition_rules_guard_version_creation() {
        let mut db = db3();
        db.add_transition_rule(TransitionRule::NoDeletions).unwrap();
        let alarms = db.create_object("Data", "Alarms").unwrap();
        db.create_version("1.0").unwrap();
        db.delete_object(alarms).unwrap();
        let err = db.create_version("2.0");
        assert!(matches!(err, Err(SeedError::TransitionRejected(_))));
        assert_eq!(db.versions().len(), 1);
        assert_eq!(db.transition_rules().len(), 1);
    }

    #[test]
    fn patterns_propagate_and_are_protected() {
        let mut db = db3();
        // A pattern Data object related to a common Action.
        let manager = db.create_object("Action", "Manager").unwrap();
        let pattern = db.create_pattern_object("Data", "StandardInput").unwrap();
        let pr = db
            .create_pattern_relationship("Access", &[("from", pattern), ("by", manager)])
            .unwrap();
        // Patterns are invisible to ordinary retrieval.
        assert!(db.object_by_name("StandardInput").is_err());
        assert!(db.any_object_by_name("StandardInput").is_ok());
        assert_eq!(db.objects_of_class("Data", true).unwrap().len(), 0);
        // Two real objects inherit the pattern.
        let a = db.create_object("Data", "SensorInput").unwrap();
        let b = db.create_object("Data", "OperatorInput").unwrap();
        db.inherit_pattern(a, pattern).unwrap();
        db.inherit_pattern(b, pattern).unwrap();
        assert_eq!(db.inheritors_of(pattern), vec![a, b]);
        assert_eq!(db.inherited_patterns(a), vec![pattern]);
        // Both see an inherited Access relationship to Manager.
        for obj in [a, b] {
            let rels = db.relationships(obj);
            assert_eq!(rels.len(), 1);
            assert!(rels[0].is_inherited());
            assert_eq!(rels[0].record.bound("by"), Some(manager));
            assert_eq!(rels[0].record.bound("from"), Some(obj));
        }
        // Navigation sees the inherited relationship too.
        assert_eq!(db.related(a, "Access", "from", "by").unwrap()[0].id, manager);
        // Updating inherited information in the inheritor's context is rejected.
        assert!(db.assert_updatable_in_context(a, pr).is_err());
        assert!(db.assert_updatable_in_context(manager, pr).is_ok());
        // Un-inherit.
        db.uninherit_pattern(b, pattern).unwrap();
        assert!(db.relationships(b).is_empty());
        assert!(db.uninherit_pattern(b, pattern).is_err());
        // Inheriting from a non-pattern is rejected.
        assert!(db.inherit_pattern(a, b).is_err());
    }

    #[test]
    fn inheriting_an_inconsistent_pattern_is_rejected() {
        let mut db = db3();
        // Pattern relationship binds a Data-typed pattern into the Write association's
        // OutputData role — fine while it is a pattern (not checked)...
        let pattern = db.create_pattern_object("Data", "P").unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        db.create_pattern_relationship("Write", &[("to", pattern), ("by", sensor)]).unwrap();
        // ...but a plain-Data inheritor cannot take the OutputData role.
        let plain = db.create_object("Data", "PlainData").unwrap();
        assert!(matches!(db.inherit_pattern(plain, pattern), Err(SeedError::Inconsistent(_))));
        // An OutputData inheritor can.
        let output = db.create_object("OutputData", "Report").unwrap();
        assert!(db.inherit_pattern(output, pattern).is_ok());
    }

    #[test]
    fn find_by_value_ignores_undefined() {
        let mut db = Database::new(figure2_schema());
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let text = db
            .create_dependent_named(alarms, "Text", NameSegment::plain("Text"), Value::Undefined)
            .unwrap();
        let sel = db.create_dependent(text, "Selector", Value::string("Representation")).unwrap();
        let body = db
            .create_dependent_named(text, "Body", NameSegment::plain("Body"), Value::Undefined)
            .unwrap();
        let _kw = db.create_dependent(body, "Keywords", Value::Undefined).unwrap();
        let hits =
            db.find_by_value("Data.Text.Selector", &Value::string("Representation")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, sel);
        // Undefined matches nothing, in both directions.
        assert!(db.find_by_value("Data.Text.Body.Keywords", &Value::Undefined).unwrap().is_empty());
        assert!(db.find_by_value("Data.Text.Selector", &Value::Undefined).unwrap().is_empty());
        // Prefix retrieval.
        assert_eq!(db.objects_with_name_prefix("Alarms.").len(), 4);
    }

    #[test]
    fn value_index_retrieval_spans_hierarchies_versions_and_undo() {
        let mut db = db3();
        let alarms = db.create_object("OutputData", "Alarms").unwrap();
        let text = db
            .create_dependent_named(alarms, "Text", NameSegment::plain("Text"), Value::Undefined)
            .unwrap();
        let sel = db.create_dependent(text, "Selector", Value::string("Representation")).unwrap();
        // Indexed equality retrieval agrees with the scan-based find_by_value.
        let hits =
            db.objects_by_value("Data.Text.Selector", true, ValueOp::Eq, "Representation").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, sel);
        assert_eq!(
            db.value_index_estimate("Data.Text.Selector", true, ValueOp::Eq, "Representation", 99)
                .unwrap(),
            1
        );
        assert_eq!(db.class_extent_estimate("Data", true).unwrap(), 1);
        assert_eq!(db.name_prefix_estimate("Alarms.", 99), 2);
        assert_eq!(db.name_prefix_estimate("Alarms.", 1), 1, "counting stops at the cap");
        assert!(db.objects_by_value("Ghost", true, ValueOp::Eq, "x").is_err());

        // Undefined values are invisible to the index.
        assert!(db
            .objects_by_value("Data.Text", true, ValueOp::Eq, "<undefined>")
            .unwrap()
            .is_empty());

        // The index follows transactions: a rolled-back update leaves no trace.
        db.begin_transaction().unwrap();
        db.set_value(sel, Value::string("Contents")).unwrap();
        assert_eq!(
            db.objects_by_value("Data.Text.Selector", true, ValueOp::Eq, "Contents").unwrap().len(),
            1
        );
        db.rollback_transaction().unwrap();
        assert!(db
            .objects_by_value("Data.Text.Selector", true, ValueOp::Eq, "Contents")
            .unwrap()
            .is_empty());
        assert_eq!(
            db.objects_by_value("Data.Text.Selector", true, ValueOp::Eq, "Representation")
                .unwrap()
                .len(),
            1
        );

        // Version views rebuild the index, so historical retrieval is indexed too.
        let v1 = db.create_version("with Representation").unwrap();
        db.set_value(sel, Value::string("Contents")).unwrap();
        db.select_version(Some(v1)).unwrap();
        assert_eq!(
            db.objects_by_value("Data.Text.Selector", true, ValueOp::Eq, "Representation")
                .unwrap()
                .len(),
            1
        );
        assert!(db
            .objects_by_value("Data.Text.Selector", true, ValueOp::Eq, "Contents")
            .unwrap()
            .is_empty());
        db.select_version(None).unwrap();
        assert_eq!(
            db.objects_by_value("Data.Text.Selector", true, ValueOp::Eq, "Contents").unwrap().len(),
            1
        );
    }

    #[test]
    fn completeness_report_via_database() {
        let mut db = db3();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        let report = db.completeness_report();
        assert!(!report.is_complete());
        let alarms = db.create_object("Data", "Alarms").unwrap();
        db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        let report = db.completeness_report();
        // Sensor's Access obligation is met; Alarms still needs specialization etc. but Sensor
        // has no missing-relationship finding any more.
        assert!(!report
            .findings
            .iter()
            .any(|f| matches!(f, crate::completeness::Incompleteness::MissingRelationships { object, .. } if *object == sensor)));
    }

    #[test]
    fn version_creation_blocked_during_transaction() {
        let mut db = db3();
        db.create_object("Data", "Alarms").unwrap();
        db.begin_transaction().unwrap();
        assert!(db.create_version("nope").is_err());
        db.commit_transaction().unwrap();
        assert!(db.create_version("ok").is_ok());
    }
}
