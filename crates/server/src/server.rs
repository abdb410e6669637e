//! The central server: one database, many clients, write locks, single-transaction check-in.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use seed_core::{
    Database, NameSegment, ObjectId, ObjectRecord, SeedError, Snapshot, SnapshotCell, VersionId,
};

use crate::error::{ServerError, ServerResult};
use crate::lock::LockTable;
use crate::protocol::{
    CheckoutSet, ClientId, HealthStatus, PersistenceStatus, PromotionReceipt, QueryAnswer,
    RelationshipInfo, ReplicationRole, ReplicationStatus, Request, Response, Update,
};

/// The replica-side half of a controlled promotion, implemented by `seed-net`'s `ReplicaNode`:
/// fence the old primary, finish applying the shipped tail and flip the node to the primary
/// role.  A replica [`SeedServer`] holds its promoter in its role, so [`Request::Promote`] runs
/// it on the requesting thread.
pub trait Promoter: Send + Sync {
    /// Carries out the promotion under topology epoch `epoch`, applying the drained tail on
    /// `server` and ending with [`SeedServer::become_primary`]; `new_primary` is the address
    /// this node will serve from (what fenced peers and redirected clients are told).
    fn promote(&self, server: &SeedServer, epoch: u64, new_primary: &str) -> ServerResult<()>;
}

/// Replica readiness budget: a replica more than this many commits (LSNs) behind the primary
/// reports not-ready ([`SeedServer::health`]).
pub const DEFAULT_HEALTH_LAG_BUDGET: u64 = 1024;

/// Process-wide lock-table metrics (`docs/OBSERVABILITY.md`): how long check-outs wait to
/// enter the lock table, and how many write locks are held right now.
struct LockMetrics {
    wait_us: seed_obs::Histogram,
    held: seed_obs::Gauge,
}

fn lock_metrics() -> &'static LockMetrics {
    static METRICS: std::sync::OnceLock<LockMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = seed_obs::global();
        LockMetrics {
            wait_us: registry.histogram("lock_wait_us"),
            held: registry.gauge("locks_held"),
        }
    })
}

/// The central SEED server of the two-level multi-user scheme.
///
/// The **write** path (check-in, version creation, replica apply) runs under the database's
/// write lock; the **read** surface (retrieval, queries, check-out resolution, status) runs
/// against an immutable MVCC [`Snapshot`] published by every committed write — readers never
/// take the database lock at all, so a slow check-in cannot stall them (see
/// `docs/ARCHITECTURE.md`, *Snapshot reads*).  The lock table still serializes conflicting
/// check-outs; that is pessimistic by design (the paper's two-level scheme), orthogonal to
/// read snapshotting.
pub struct SeedServer {
    db: RwLock<Database>,
    /// The serving snapshot: published under [`SeedServer::db`]'s write lock at every commit
    /// point, read lock-free by the whole read surface.
    snapshots: SnapshotCell,
    locks: Mutex<LockTable>,
    next_client: AtomicU64,
    /// What this node does in replication.  A primary's fence is not held here: it lives in
    /// the database, which persists it, and every snapshot carries it.
    role: RwLock<Role>,
    /// Primary side of replication: every subscriber's last acknowledged LSN.
    subscribers: Mutex<HashMap<ClientId, Subscriber>>,
}

/// A node's replication role.
enum Role {
    /// Serves writes, unless its database records a fence ([`SeedServer::fence`]).
    Primary,
    /// A read-only replica: writes answer [`ServerError::ReadOnlyReplica`] naming `primary`.
    Replica {
        primary: String,
        promoter: Arc<dyn Promoter>,
        /// The primary's end of log as last observed (the applied one is the snapshot's).
        primary_lsn: u64,
    },
}

/// A replication subscriber's cursor, as the primary tracks it.
struct Subscriber {
    acked_lsn: u64,
    /// False once the subscriber disconnected: a retired cursor still pins WAL retention (at
    /// most [`RETIRED_ACK_CAP`] of them), so a replica that restarts across a primary
    /// checkpoint can catch up from the retained segments instead of resyncing from a snapshot.
    live: bool,
}

/// How many disconnected subscribers' cursors keep pinning WAL retention.  When the set
/// overflows, the furthest-behind cursor is dropped first — it is the one most likely to need
/// a snapshot resync anyway, and dropping it releases the most log.
const RETIRED_ACK_CAP: usize = 16;

impl SeedServer {
    /// Creates a server around an existing database, as a primary.  A fenced primary stays
    /// fenced across restarts: the fence is part of the database.
    pub fn new(db: Database) -> Self {
        let snapshots = SnapshotCell::new(&db);
        Self {
            db: RwLock::new(db),
            snapshots,
            locks: Mutex::new(LockTable::new()),
            next_client: AtomicU64::new(1),
            role: RwLock::new(Role::Primary),
            subscribers: Mutex::new(HashMap::new()),
        }
    }

    // ----- replication roles --------------------------------------------------------------------

    /// Turns this server into a **read-only replica** of the primary at `primary`: checkout,
    /// check-in and version creation answer [`ServerError::ReadOnlyReplica`] carrying that
    /// address, while the whole read surface keeps working, and [`Request::Promote`] runs
    /// `promoter`.  The replication layer (`seed-net`'s `ReplicaNode`) then runs every step
    /// through [`SeedServer::advance_replica`].
    pub fn become_replica(&self, primary: impl Into<String>, promoter: Arc<dyn Promoter>) {
        *self.role.write() = Role::Replica { primary: primary.into(), promoter, primary_lsn: 0 };
    }

    /// Runs one replica step (replica side) under the database write lock: when `apply`
    /// brought the served database forward (`Some`), a snapshot is published — readers see a
    /// batch whole or not at all — and the primary's end of log is recorded as `primary_lsn`.
    /// Returns the database's end of log and what `apply` returned.
    pub fn advance_replica<T>(
        &self,
        primary_lsn: u64,
        apply: impl FnOnce(&mut Database) -> Result<Option<T>, SeedError>,
    ) -> ServerResult<(u64, Option<T>)> {
        let mut db = self.db.write();
        let applied = apply(&mut db).map_err(ServerError::Rejected)?;
        if applied.is_some() {
            self.snapshots.publish(&db);
        }
        if let Role::Replica { primary_lsn: primary, .. } = &mut *self.role.write() {
            *primary = primary_lsn;
        }
        Ok((db.durable_lsn().unwrap_or(0), applied))
    }

    /// The address of the primary this node replicates, while it is a replica.
    pub fn replica_of(&self) -> Option<String> {
        match &*self.role.read() {
            Role::Primary => None,
            Role::Replica { primary, .. } => Some(primary.clone()),
        }
    }

    /// `(applied LSN, primary LSN)` while this server is a replica — the serving snapshot's
    /// end of log and the primary's as last observed; `None` on a primary.
    pub fn replica_progress(&self) -> Option<(u64, u64)> {
        match &*self.role.read() {
            Role::Primary => None,
            Role::Replica { primary_lsn, .. } => Some((self.snapshots.read().lsn(), *primary_lsn)),
        }
    }

    fn guard_writable(&self) -> ServerResult<()> {
        if let Some(primary) = self.replica_of() {
            return Err(ServerError::ReadOnlyReplica { primary });
        }
        Self::guard_unfenced(&self.snapshots.read())
    }

    /// Refuses writes on a fenced database.  [`SeedServer::guard_writable`] asks the serving
    /// snapshot; the write paths ask again **after** the database write lock is held:
    /// [`SeedServer::fence`] persists under the same lock, so a check-in that raced past the
    /// first check while a fence was landing still loses here — a fenced node never commits
    /// another write.
    fn guard_unfenced(db: &Database) -> ServerResult<()> {
        match db.fenced_to() {
            Some(new_primary) => Err(ServerError::Fenced {
                new_primary: new_primary.to_string(),
                epoch: db.topology_epoch(),
            }),
            None => Ok(()),
        }
    }

    // ----- promotion and fencing ----------------------------------------------------------------

    /// The topology epoch this node currently serves under (bumped by every promotion).
    pub fn topology_epoch(&self) -> u64 {
        self.snapshots.read().topology_epoch()
    }

    /// `Some((new primary, epoch))` when this node was fenced by a promotion.
    pub fn fenced_state(&self) -> Option<(String, u64)> {
        let snapshot = self.snapshots.read();
        snapshot.fenced_to().map(|new_primary| (new_primary.to_string(), snapshot.topology_epoch()))
    }

    /// Handles [`Request::Promote`], role-dependent:
    ///
    /// * on a **replica**, runs its [`Promoter`] on the calling thread — drain the shipped
    ///   tail, turn the served database and the role primary;
    /// * on a **primary**, the promotion happened elsewhere: [`SeedServer::fence`] this node.
    pub fn promote(&self, epoch: u64, new_primary: &str) -> ServerResult<PromotionReceipt> {
        let promoter = match &*self.role.read() {
            Role::Primary => None,
            Role::Replica { promoter, .. } => Some(promoter.clone()),
        };
        let Some(promoter) = promoter else { return self.fence(epoch, new_primary) };
        promoter.promote(self, epoch, new_primary)?;
        let last_lsn = self.with_database(|db| db.durable_lsn().unwrap_or(0));
        Ok(PromotionReceipt { epoch, last_lsn })
    }

    /// Fences this primary: persistently refuses all further writes, redirecting clients to
    /// `new_primary`.  The epoch comparison under the database write lock is the arbitration
    /// point when two promotions race — exactly one fence (the first to take the lock with a
    /// newer epoch) wins; the loser is told who won.  Returns the node's durable end of log:
    /// the last LSN it will ever write, which the new primary must have applied for zero loss.
    pub fn fence(&self, epoch: u64, new_primary: &str) -> ServerResult<PromotionReceipt> {
        let mut db = self.db.write();
        let current = db.topology_epoch();
        if epoch <= current {
            return Err(match db.fenced_to() {
                Some(winner) => {
                    ServerError::Fenced { new_primary: winner.to_string(), epoch: current }
                }
                None => ServerError::Protocol(format!(
                    "stale promotion epoch {epoch}: this node is already at epoch {current}"
                )),
            });
        }
        db.persist_topology(epoch, Some(new_primary.to_string())).map_err(ServerError::Rejected)?;
        self.snapshots.publish(&db);
        Ok(PromotionReceipt { epoch, last_lsn: db.durable_lsn().unwrap_or(0) })
    }

    /// The last step of a replica-side promotion, once the shipped tail is drained: under the
    /// database write lock, the served database turns primary at `epoch`
    /// ([`Database::promote`]), the role flips and a snapshot is published.  Readers see the
    /// replica state or the primary state, never in between.
    pub fn become_primary(&self, epoch: u64) -> ServerResult<()> {
        let mut db = self.db.write();
        db.promote(epoch).map_err(ServerError::Rejected)?;
        *self.role.write() = Role::Primary;
        self.snapshots.publish(&db);
        Ok(())
    }

    /// Runs a mutating closure under the database write lock, then publishes a new snapshot —
    /// the generic commit point for callers outside the check-in path.
    pub fn with_database_mut<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut db = self.db.write();
        let result = f(&mut db);
        self.snapshots.publish(&db);
        result
    }

    /// Records a subscriber's acknowledged LSN (primary side; called by the network layer's
    /// replication sessions).  The subscriber's cursor pins WAL retention on the served
    /// database: checkpoints keep (budget permitting) every segment the slowest subscriber
    /// still needs.  A reconnecting subscriber's live ack supersedes its retired one.
    pub fn note_replica_ack(&self, client: ClientId, acked_lsn: u64) {
        self.subscribers.lock().insert(client, Subscriber { acked_lsn, live: true });
        self.update_retention_floor();
    }

    /// Retires a disconnected subscriber (primary side): it no longer counts as connected, but
    /// its last ack keeps pinning WAL retention (bounded) so a restart within the retention
    /// budget catches up from the log instead of a full snapshot.
    pub fn retire_replica(&self, client: ClientId) {
        {
            let mut subscribers = self.subscribers.lock();
            if let Some(subscriber) = subscribers.get_mut(&client) {
                subscriber.live = false;
            }
            while subscribers.values().filter(|s| !s.live).count() > RETIRED_ACK_CAP {
                let victim = subscribers
                    .iter()
                    .filter(|(_, s)| !s.live)
                    .min_by_key(|(_, s)| s.acked_lsn)
                    .map(|(client, _)| *client)
                    .expect("non-empty");
                subscribers.remove(&victim);
            }
        }
        self.update_retention_floor();
    }

    /// Forgets a subscriber entirely (primary side): its cursor stops pinning WAL retention.
    pub fn forget_replica(&self, client: ClientId) {
        self.subscribers.lock().remove(&client);
        self.update_retention_floor();
    }

    /// Recomputes the WAL retention floor from every live and retired subscriber cursor and
    /// pushes it to the served database.  The subscriber lock is released before the database
    /// lock is taken (status reads nest the other way around).
    fn update_retention_floor(&self) {
        let floor = self.subscribers.lock().values().map(|s| s.acked_lsn).min().map(|a| a + 1);
        self.db.read().set_replication_retention(floor);
    }

    /// Number of connected replication subscribers (primary side).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().values().filter(|s| s.live).count()
    }

    fn replication_status(&self, snapshot: &Snapshot) -> ReplicationStatus {
        // Every node reports: even without subscribers, the serving snapshot's LSN is the
        // operator's read-staleness observable.  An in-memory node has no durable cursor — its
        // snapshots are keyed by the publication epoch, which is not a WAL LSN, so the LSN
        // fields report 0 rather than an epoch counter an operator could mistake for a durable
        // position.  A replica serves no subscriber.
        let lsn = if snapshot.durability().is_some() { snapshot.lsn() } else { 0 };
        let (role, primary_lsn) = match self.replica_progress() {
            Some((_, primary)) => (ReplicationRole::Replica, primary),
            None => (ReplicationRole::Primary, lsn),
        };
        let subscribers = self.subscribers.lock();
        let live = subscribers.values().filter(|s| s.live);
        ReplicationStatus {
            role,
            applied_lsn: lsn,
            primary_lsn,
            subscribers: live.clone().count() as u32,
            min_acked_lsn: live.map(|s| s.acked_lsn).min().unwrap_or(0),
            snapshot_lsn: lsn,
        }
    }

    /// Opens a server over a **durable** database in `dir` (running restart recovery if the
    /// previous process crashed).  Every check-in commits as exactly one storage batch: the
    /// per-item records its updates touched become durable with a single WAL sync, or not at
    /// all.
    pub fn open_durable(dir: impl AsRef<std::path::Path>) -> ServerResult<Self> {
        let db = Database::open_durable(dir).map_err(ServerError::Rejected)?;
        Ok(Self::new(db))
    }

    /// Creates a server over a fresh durable database in `dir`.
    pub fn create_durable(
        dir: impl AsRef<std::path::Path>,
        schema: seed_schema::Schema,
    ) -> ServerResult<Self> {
        let db = Database::create_durable(dir, schema).map_err(ServerError::Rejected)?;
        Ok(Self::new(db))
    }

    /// The durability state of the central database, as captured by the serving snapshot.
    /// After [`SeedServer::open_durable`], the counts report what restart recovery
    /// reconstructed — this is how recovery is observable over the protocol
    /// ([`Request::Persistence`]).  Lock-free: status is part of the read surface.
    pub fn persistence_status(&self) -> PersistenceStatus {
        let snapshot = self.snapshots.read();
        let status = snapshot.durability();
        PersistenceStatus {
            durable: status.is_some(),
            path: status.map(|s| s.path.display().to_string()),
            wal_bytes: status.map(|s| s.wal_bytes).unwrap_or(0),
            objects: snapshot.object_count(),
            relationships: snapshot.relationship_count(),
            versions: snapshot.versions().len(),
            replication: self.replication_status(&snapshot),
        }
    }

    /// The liveness/readiness probe ([`Request::Health`]).  Liveness is implied by any answer
    /// at all; readiness means the node can do its job right now — a primary is not fenced and
    /// its WAL accepts writes ([`Database::wal_fault`] names the reason when it does not, e.g.
    /// a storage engine poisoned by a failed commit or checkpoint), a replica is within
    /// [`DEFAULT_HEALTH_LAG_BUDGET`].  Lock-free on the replica path; the primary path takes
    /// the database read lock for the WAL probe.
    pub fn health(&self) -> HealthStatus {
        let snapshot = self.snapshots.read();
        let status = self.replication_status(&snapshot);
        let (lag, lag_budget) = (status.lag(), DEFAULT_HEALTH_LAG_BUDGET);
        let (ready, detail) = match status.role {
            ReplicationRole::Replica if lag <= lag_budget => (true, "ok".to_string()),
            ReplicationRole::Replica => {
                (false, format!("replica {lag} records behind primary (budget {lag_budget})"))
            }
            // A fenced node is alive but permanently not-ready: it answers probes (so
            // operators can see the fence) yet must never attract traffic again.
            ReplicationRole::Primary => match snapshot.fenced_to() {
                Some(new_primary) => {
                    let epoch = snapshot.topology_epoch();
                    (false, format!("fenced at epoch {epoch}; the primary is now at {new_primary}"))
                }
                None => match self.with_database(|db| db.wal_fault()) {
                    None => (true, "ok".to_string()),
                    Some(reason) => (false, format!("WAL not writable: {reason}")),
                },
            },
        };
        HealthStatus { ready, role: status.role, lag, lag_budget, detail }
    }

    /// Checkpoints the durable storage (errors when the database is in-memory).  Publishes a
    /// snapshot on success so the status surface sees the truncated WAL immediately.
    pub fn checkpoint(&self) -> ServerResult<()> {
        let db = self.db.write();
        db.checkpoint().map_err(ServerError::Rejected)?;
        self.snapshots.publish(&db);
        Ok(())
    }

    /// Allocates a fresh client id.  A client holds nothing until it checks something out;
    /// whoever owns its session calls [`SeedServer::release`] when the session ends.
    pub fn connect(&self) -> ClientId {
        self.next_client.fetch_add(1, Ordering::SeqCst)
    }

    /// Runs a read-only closure against the **live** central database, under its read lock.
    /// This is for callers that need the durability engine underneath (a replication
    /// session's log handle, the end of the log, retention floors) — it blocks while a
    /// check-in or a replica's batch holds the write lock.  The query/read surface uses
    /// [`SeedServer::snapshot`] instead, which never blocks.
    pub fn with_database<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db.read())
    }

    /// The immutable snapshot the read surface currently serves.  Lock-free with respect to
    /// writers: an in-flight check-in cannot stall this (it publishes a *new* snapshot at its
    /// commit point), and the returned handle stays consistent for as long as it is held.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshots.read()
    }

    /// Retrieves a copy of an object by name.
    pub fn retrieve(&self, name: &str) -> ServerResult<ObjectRecord> {
        self.snapshots
            .read()
            .object_by_name(name)
            .map_err(|_| ServerError::Unknown(format!("object '{name}'")))
    }

    /// Number of write locks currently held.
    pub fn locked_count(&self) -> usize {
        self.locks.lock().len()
    }

    /// The current schema of the serving snapshot: what a remote client interprets the records
    /// it reads by ([`Request::Schema`]).
    pub fn schema(&self) -> seed_schema::Schema {
        self.snapshots.read().schema().clone()
    }

    /// The (materialized) children of an object, by name.
    pub fn children_of(&self, name: &str) -> ServerResult<Vec<ObjectRecord>> {
        let db = self.snapshots.read();
        let root = db
            .object_by_name(name)
            .map_err(|_| ServerError::Unknown(format!("object '{name}'")))?;
        Ok(db.children(root.id).into_iter().map(|c| c.record).collect())
    }

    /// All objects whose hierarchical name starts with `prefix`.
    pub fn objects_with_prefix(&self, prefix: &str) -> Vec<ObjectRecord> {
        self.snapshots.read().objects_with_name_prefix(prefix)
    }

    /// The relationships an object participates in, rendered by name for remote clients.
    pub fn relationships_of(&self, name: &str) -> ServerResult<Vec<RelationshipInfo>> {
        let db = self.snapshots.read();
        let root = db
            .object_by_name(name)
            .map_err(|_| ServerError::Unknown(format!("object '{name}'")))?;
        let schema = db.schema();
        let mut infos = Vec::new();
        for rel in db.relationships(root.id) {
            let association = schema
                .association(rel.record.association)
                .map(|a| a.name.clone())
                .map_err(|e| ServerError::Rejected(SeedError::Schema(e)))?;
            let mut bindings = Vec::with_capacity(rel.record.bindings.len());
            for (role, obj) in &rel.record.bindings {
                let object_name =
                    db.object(*obj).map(|o| o.name.to_string()).map_err(ServerError::Rejected)?;
                bindings.push((role.clone(), object_name));
            }
            infos.push(RelationshipInfo {
                association,
                bindings,
                inherited: rel.inherited_from.is_some(),
            });
        }
        Ok(infos)
    }

    /// The extent of a class by name (optionally including subclasses).
    pub fn objects_of_class(
        &self,
        class: &str,
        transitive: bool,
    ) -> ServerResult<Vec<ObjectRecord>> {
        self.snapshots.read().objects_of_class(class, transitive).map_err(ServerError::Rejected)
    }

    /// Counts the live relationships of `association` (optionally including specializations).
    pub fn relationship_count_in(
        &self,
        association: &str,
        transitive: bool,
    ) -> ServerResult<usize> {
        let db = self.snapshots.read();
        let schema = db.schema();
        let root = schema
            .association_id(association)
            .map_err(|e| ServerError::Rejected(SeedError::Schema(e)))?;
        let mut hierarchy =
            if transitive { schema.association_descendants(root) } else { Vec::new() };
        hierarchy.push(root);
        Ok(db
            .store()
            .all_relationships()
            .filter(|r| r.is_visible() && hierarchy.contains(&r.association))
            .count())
    }

    /// Runs the completeness analysis and returns the number of findings.
    pub fn completeness_count(&self) -> usize {
        self.snapshots.read().completeness_report().len()
    }

    /// Evaluates a retrieval-language query (`find` / `count`, or `explain` for the physical
    /// plan) on the central database.  Queries take no locks: retrieval is served directly by
    /// the server, and the planner's indexed access paths keep it cheap under load.
    pub fn query(&self, text: &str) -> ServerResult<QueryAnswer> {
        let db = self.snapshots.read();
        let outcome = seed_query::run(&db, text).map_err(|e| ServerError::Query(e.to_string()))?;
        Ok(QueryAnswer {
            names: outcome.names(),
            count: outcome.count(),
            plan: outcome.plan().map(str::to_string),
        })
    }

    /// Convenience: the rendered physical plan for a query (prepends `explain` when absent).
    pub fn explain(&self, text: &str) -> ServerResult<String> {
        let text = text.trim();
        let explained =
            if text.starts_with("explain") { text.to_string() } else { format!("explain {text}") };
        self.query(&explained)?.plan.ok_or_else(|| {
            ServerError::Query("explain produced no plan (not a find/count query?)".to_string())
        })
    }

    /// Checks out the named objects for `client`: takes write locks on them (and their dependent
    /// objects) and returns copies of the objects plus the relationships among them.
    pub fn checkout(&self, client: ClientId, names: &[&str]) -> ServerResult<CheckoutSet> {
        self.guard_writable()?;
        // Check-out resolution reads the serving snapshot; only the lock table itself is
        // mutated.  The lock table must be acquired BEFORE the snapshot is pinned: check-in
        // publishes its snapshot and only then releases its locks under this mutex, so a
        // snapshot read while holding the mutex includes every check-in whose locks appear
        // free — reading the snapshot first would let a concurrent check-in commit and
        // release in between, handing the client locks over stale copies (a lost update).
        let lock_start = Instant::now();
        let mut locks = self.locks.lock();
        lock_metrics().wait_us.observe_duration(lock_start.elapsed());
        let db = self.snapshots.read();

        // Resolve every requested root and its dependents first, so a conflict acquires nothing.
        let mut object_ids: Vec<(String, ObjectId)> = Vec::new();
        let mut records: Vec<ObjectRecord> = Vec::new();
        for name in names {
            let root = db
                .object_by_name(name)
                .map_err(|_| ServerError::Unknown(format!("object '{name}'")))?;
            let mut frontier = vec![root.clone()];
            while let Some(record) = frontier.pop() {
                object_ids.push((record.name.to_string(), record.id));
                for child in db.children(record.id) {
                    if child.inherited_from.is_none() {
                        frontier.push(child.record.clone());
                    }
                }
                records.push(record);
            }
        }
        // Conflict check before acquisition.
        for (name, id) in &object_ids {
            if let Some(holder) = locks.holder(*id) {
                if holder != client {
                    return Err(ServerError::Locked { object: name.clone(), holder });
                }
            }
        }
        for (_, id) in &object_ids {
            locks.acquire(*id, client).expect("conflicts were ruled out above");
        }
        lock_metrics().held.set(locks.len() as i64);

        // Relationships among the checked-out objects.
        let id_set: Vec<ObjectId> = object_ids.iter().map(|(_, id)| *id).collect();
        let mut relationships = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for id in &id_set {
            for rel in db.relationships(*id) {
                if rel.inherited_from.is_none() && seen.insert(rel.record.id) {
                    relationships.push(rel.record.clone());
                }
            }
        }
        Ok(CheckoutSet { objects: records, relationships })
    }

    /// Applies a client's updates as **one** transaction on the central database, then releases
    /// the client's locks.  If any update fails (consistency violation, lock discipline breach),
    /// nothing is applied and the locks are kept so the client can fix and retry.
    pub fn checkin(&self, client: ClientId, updates: &[Update]) -> ServerResult<()> {
        self.guard_writable()?;
        let mut db = self.db.write();
        Self::guard_unfenced(&db)?;
        let locks = self.locks.lock();

        // Lock discipline: every touched existing object must be checked out by this client.
        for update in updates {
            for name in update.touched_objects() {
                if let Ok(obj) = db.object_by_name(name) {
                    if !locks.holds(obj.id, client) {
                        return Err(ServerError::NotCheckedOut(name.to_string()));
                    }
                }
            }
        }
        drop(locks);

        db.begin_transaction().map_err(ServerError::Rejected)?;
        let result = Self::apply_updates(&mut db, updates);
        match result {
            Ok(()) => {
                db.commit_transaction().map_err(ServerError::Rejected)?;
                // Publish before releasing the write lock: once any reader can observe the
                // released locks, the serving snapshot already contains this check-in.
                self.snapshots.publish(&db);
                drop(db);
                self.release(client);
                Ok(())
            }
            Err(e) => {
                db.rollback_transaction().map_err(ServerError::Rejected)?;
                Err(ServerError::Rejected(e))
            }
        }
    }

    fn apply_updates(db: &mut Database, updates: &[Update]) -> Result<(), SeedError> {
        for update in updates {
            match update {
                Update::CreateObject { class, name } => {
                    db.create_object(class, name)?;
                }
                Update::CreateDependent { parent, class_local, value } => {
                    let parent_id = db.object_by_name(parent)?.id;
                    db.create_dependent(parent_id, class_local, value.clone())?;
                }
                Update::CreateDependentNamed { parent, class_local, name, value } => {
                    let parent_id = db.object_by_name(parent)?.id;
                    db.create_dependent_named(
                        parent_id,
                        class_local,
                        NameSegment::plain(name.clone()),
                        value.clone(),
                    )?;
                }
                Update::SetValue { object, value } => {
                    let id = db.object_by_name(object)?.id;
                    db.set_value(id, value.clone())?;
                }
                Update::Reclassify { object, new_class } => {
                    let id = db.object_by_name(object)?.id;
                    db.reclassify_object(id, new_class)?;
                }
                Update::CreateRelationship { association, bindings } => {
                    let mut resolved: Vec<(&str, seed_core::ObjectId)> = Vec::new();
                    for (role, name) in bindings {
                        resolved.push((role.as_str(), db.object_by_name(name)?.id));
                    }
                    db.create_relationship(association, &resolved)?;
                }
                Update::ReclassifyRelationship { association, bindings, new_association } => {
                    let rel = Self::resolve_relationship(db, association, bindings)?;
                    db.reclassify_relationship(rel, new_association)?;
                }
                Update::DeleteObject { object } => {
                    let id = db.object_by_name(object)?.id;
                    db.delete_object(id)?;
                }
            }
        }
        Ok(())
    }

    /// Finds the live, own relationship with the given association whose bindings map the given
    /// roles to the given object names (structural addressing — clients do not know server ids).
    fn resolve_relationship(
        db: &Database,
        association: &str,
        bindings: &[(String, String)],
    ) -> Result<seed_core::RelationshipId, SeedError> {
        let describe = || {
            format!(
                "relationship {association}({})",
                bindings.iter().map(|(r, o)| format!("{r}: {o}")).collect::<Vec<_>>().join(", ")
            )
        };
        let (_, anchor_name) = bindings
            .first()
            .ok_or_else(|| SeedError::Invalid("relationship address needs bindings".into()))?;
        let anchor = db.object_by_name(anchor_name)?.id;
        let assoc_id = db.schema().association_id(association)?;
        for rel in db.relationships(anchor) {
            if rel.inherited_from.is_some() || rel.record.association != assoc_id {
                continue;
            }
            // The address must cover the whole binding set — matched from the relationship's
            // side, so neither a subset address nor one padded with duplicate pairs can pick a
            // relationship whose other participants (and their locks) it never named.
            if rel.record.bindings.len() != bindings.len() {
                continue;
            }
            let matches = rel.record.bindings.iter().all(|(r, o)| {
                db.object(*o)
                    .map(|rec| {
                        let bound_name = rec.name.to_string();
                        bindings.iter().any(|(role, name)| role == r && *name == bound_name)
                    })
                    .unwrap_or(false)
            });
            if matches {
                return Ok(rel.record.id);
            }
        }
        Err(SeedError::NotFound(describe()))
    }

    /// Releases every lock held by `client` and returns how many there were: an explicit
    /// release, a successful check-in, and the end of the client's session — a closed
    /// connection or an idle one (the paper's crash-recovery rule for checked-out data).
    pub fn release(&self, client: ClientId) -> usize {
        let mut locks = self.locks.lock();
        let released = locks.release_all(client);
        lock_metrics().held.set(locks.len() as i64);
        released
    }

    /// Creates a global version snapshot on the central database.
    pub fn create_version(&self, comment: &str) -> ServerResult<VersionId> {
        self.guard_writable()?;
        let mut db = self.db.write();
        Self::guard_unfenced(&db)?;
        let version = db.create_version(comment).map_err(ServerError::Rejected)?;
        self.snapshots.publish(&db);
        Ok(version)
    }

    /// Answers one protocol request on behalf of `client`, the session it arrived on: the
    /// lock-table requests act for that client, and a refused request is the `Err`.
    ///
    /// [`Request::Shutdown`] is transport-scoped (over TCP it closes the session) and is
    /// answered with [`Response::ShuttingDown`] — the caller decides what "shutting down"
    /// means for its transport.
    pub fn handle(&self, client: ClientId, request: Request) -> ServerResult<Response> {
        let start = Instant::now();
        let kind = request.kind_name();
        // Kept aside for the slow-op log: the request is consumed by the dispatch below.
        let query_text = match &request {
            Request::Query { text } => Some(text.clone()),
            _ => None,
        };
        let reply = self.dispatch(client, request);
        let elapsed = start.elapsed();
        let registry = seed_obs::global();
        if elapsed >= registry.slow_op_threshold() {
            let mut detail: Vec<(&str, String)> = Vec::new();
            if let Some(text) = query_text {
                detail.push(("text", text));
            }
            if let Ok(Response::Answer(QueryAnswer { plan: Some(plan), .. })) = &reply {
                detail.push(("plan", plan.clone()));
            }
            registry.observe_op(kind, Some(client), elapsed, &detail);
        }
        reply
    }

    fn dispatch(&self, client: ClientId, request: Request) -> ServerResult<Response> {
        Ok(match request {
            Request::Checkout { objects } => {
                let names: Vec<&str> = objects.iter().map(|s| s.as_str()).collect();
                Response::Checkout(self.checkout(client, &names)?)
            }
            Request::Checkin { updates } => {
                self.checkin(client, &updates)?;
                Response::Ack
            }
            Request::Release => {
                self.release(client);
                Response::Ack
            }
            Request::Retrieve { name } => Response::Object(self.retrieve(&name)?),
            Request::Query { text } => Response::Answer(self.query(&text)?),
            Request::CreateVersion { comment } => Response::Version(self.create_version(&comment)?),
            Request::Persistence => Response::Persistence(self.persistence_status()),
            Request::Checkpoint => {
                self.checkpoint()?;
                Response::Ack
            }
            Request::Schema => Response::Schema(self.schema()),
            Request::Children { name } => Response::Objects(self.children_of(&name)?),
            Request::Prefix { prefix } => Response::Objects(self.objects_with_prefix(&prefix)),
            Request::RelationshipsOf { name } => {
                Response::Relationships(self.relationships_of(&name)?)
            }
            Request::ObjectsOfClass { class, transitive } => {
                Response::Objects(self.objects_of_class(&class, transitive)?)
            }
            Request::RelationshipCount { association, transitive } => {
                Response::Count(self.relationship_count_in(&association, transitive)?)
            }
            Request::Completeness => Response::Count(self.completeness_count()),
            Request::Shutdown => Response::ShuttingDown,
            Request::Stats => Response::Stats(seed_obs::global().snapshot()),
            Request::Health => Response::Health(self.health()),
            Request::Promote { epoch, new_primary } => {
                Response::Promoted(self.promote(epoch, &new_primary)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_core::Value;
    use seed_schema::figure3_schema;

    fn server_with_data() -> SeedServer {
        with_data(Database::new(figure3_schema()))
    }

    fn with_data(mut db: Database) -> SeedServer {
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        let handler = db.create_object("Action", "AlarmHandler").unwrap();
        db.create_dependent(handler, "Description", Value::string("Handles alarms")).unwrap();
        SeedServer::new(db)
    }

    #[test]
    fn checkout_copies_objects_and_takes_locks() {
        let server = server_with_data();
        let c1 = server.connect();
        let c2 = server.connect();
        assert_ne!(c1, c2);

        let set = server.checkout(c1, &["AlarmHandler"]).unwrap();
        assert_eq!(set.len(), 2, "root + Description dependent");
        assert!(set.object_names().contains(&"AlarmHandler.Description".to_string()));
        assert!(server.locked_count() >= 2);

        // A second client cannot check the same object out...
        let err = server.checkout(c2, &["AlarmHandler"]).unwrap_err();
        assert!(matches!(err, ServerError::Locked { .. }));
        // ...but can check out something else, and can still retrieve (read) anything.
        assert!(server.checkout(c2, &["Alarms"]).is_ok());
        assert!(server.retrieve("AlarmHandler").is_ok());
        assert!(server.retrieve("Ghost").is_err());
    }

    #[test]
    fn checkin_applies_updates_in_one_transaction() {
        let server = server_with_data();
        let c1 = server.connect();
        server.checkout(c1, &["AlarmHandler"]).unwrap();
        server
            .checkin(
                c1,
                &[
                    Update::SetValue {
                        object: "AlarmHandler.Description".into(),
                        value: Value::string("Generates alarms from process data"),
                    },
                    Update::CreateObject { class: "Data".into(), name: "OperatorAlert".into() },
                ],
            )
            .unwrap();
        assert_eq!(
            server.retrieve("AlarmHandler.Description").unwrap().value,
            Value::string("Generates alarms from process data")
        );
        assert!(server.retrieve("OperatorAlert").is_ok());
        // Locks are released after a successful check-in.
        assert_eq!(server.locked_count(), 0);
    }

    #[test]
    fn failed_checkin_applies_nothing_and_keeps_locks() {
        let server = server_with_data();
        let c1 = server.connect();
        server.checkout(c1, &["AlarmHandler"]).unwrap();
        let held = server.locked_count();
        let err = server
            .checkin(
                c1,
                &[
                    Update::CreateObject { class: "Data".into(), name: "NewData".into() },
                    // Fails: Description has a STRING domain, an integer is rejected.
                    Update::SetValue {
                        object: "AlarmHandler.Description".into(),
                        value: Value::Integer(42),
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::Rejected(_)));
        // The single transaction means the first update is rolled back too.
        assert!(server.retrieve("NewData").is_err());
        assert_eq!(server.locked_count(), held, "locks kept for retry");
        // Fixing the batch succeeds.
        server
            .checkin(
                c1,
                &[Update::SetValue {
                    object: "AlarmHandler.Description".into(),
                    value: Value::string("fixed"),
                }],
            )
            .unwrap();
    }

    #[test]
    fn checkin_requires_prior_checkout() {
        let server = server_with_data();
        let c1 = server.connect();
        let err = server
            .checkin(
                c1,
                &[Update::SetValue {
                    object: "AlarmHandler.Description".into(),
                    value: Value::string("x"),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::NotCheckedOut(_)));
        // Creating brand-new objects needs no lock.
        server
            .checkin(c1, &[Update::CreateObject { class: "Data".into(), name: "Fresh".into() }])
            .unwrap();
    }

    #[test]
    fn release_frees_locks_without_changes() {
        let server = server_with_data();
        let c1 = server.connect();
        let c2 = server.connect();
        server.checkout(c1, &["Alarms"]).unwrap();
        assert!(server.checkout(c2, &["Alarms"]).is_err());
        assert!(server.release(c1) > 0);
        assert!(server.checkout(c2, &["Alarms"]).is_ok());
    }

    #[test]
    fn server_creates_global_versions() {
        let server = server_with_data();
        let v = server.create_version("global snapshot").unwrap();
        assert_eq!(v.to_string(), "1.0");
        let c1 = server.connect();
        server.checkout(c1, &["Alarms"]).unwrap();
        server
            .checkin(
                c1,
                &[Update::Reclassify { object: "Alarms".into(), new_class: "OutputData".into() }],
            )
            .unwrap();
        let v2 = server.create_version("after reclassification").unwrap();
        assert_eq!(v2.to_string(), "2.0");
        server.with_database(|db| {
            assert_eq!(db.versions().len(), 2);
        });
    }

    #[test]
    fn queries_and_explain_are_served_centrally() {
        let server = server_with_data();
        // Retrieval-language queries run without locks.
        let answer = server.query(r#"find Data where name prefix "Alarm""#).unwrap();
        assert_eq!(answer.names, vec!["Alarms"]);
        assert_eq!(answer.count, 1);
        assert!(answer.plan.is_none());
        let answer = server.query("count Action").unwrap();
        assert_eq!(answer.count, 2);
        assert!(answer.names.is_empty());
        // Explain returns the physical plan, with or without the explicit keyword.
        let plan = server.explain(r#"find Thing where name = "Alarms""#).unwrap();
        assert!(plan.contains("probe name index"), "got: {plan}");
        let answer = server.query("explain count Data").unwrap();
        assert!(answer.plan.unwrap().contains("output  count"));
        // Errors are reported, not panicked.
        assert!(matches!(server.query("bogus"), Err(ServerError::Query(_))));
        assert!(matches!(server.query("find Ghost"), Err(ServerError::Query(_))));

        // The same surface over the protocol, from another thread.
        let client = server.connect();
        let ask = |text: &str| match server.handle(client, Request::Query { text: text.into() }) {
            Ok(Response::Answer(answer)) => Ok(answer),
            Err(e) => Err(e),
            Ok(other) => panic!("unexpected response {other:?}"),
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let answer = ask(r#"find Data where name prefix "Alarm""#).unwrap();
                assert_eq!(answer.names, vec!["Alarms"]);
                let answer = ask(r#"explain find Data where name prefix "Alarm""#).unwrap();
                assert!(answer.plan.is_some());
                assert!(ask("bogus").is_err());
            });
        });
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        static DIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = DIRS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("seed-server-durable-{}-{name}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_server_checkin_is_one_storage_transaction_and_recovers() {
        let dir = temp_dir("checkin");
        {
            let server = SeedServer::create_durable(&dir, figure3_schema()).unwrap();
            let status = server.persistence_status();
            assert!(status.durable);
            assert_eq!(status.objects, 0);
            let c1 = server.connect();
            // A successful check-in commits the whole batch as one storage transaction.
            server
                .checkin(
                    c1,
                    &[
                        Update::CreateObject { class: "Data".into(), name: "Alarms".into() },
                        Update::CreateObject { class: "Action".into(), name: "Sensor".into() },
                        Update::CreateRelationship {
                            association: "Access".into(),
                            bindings: vec![
                                ("from".into(), "Alarms".into()),
                                ("by".into(), "Sensor".into()),
                            ],
                        },
                    ],
                )
                .unwrap();
            // A rejected check-in leaves no durable trace (its rollback owes storage nothing).
            let err = server
                .checkin(
                    c1,
                    &[
                        Update::CreateObject { class: "Data".into(), name: "Ghost".into() },
                        Update::CreateObject { class: "Nonsense".into(), name: "X".into() },
                    ],
                )
                .unwrap_err();
            assert!(matches!(err, ServerError::Rejected(_)));
            server.create_version("global snapshot").unwrap();
            // Crash: server dropped without checkpoint or close.
        }
        // Restart recovery, observable over the protocol.
        let server = SeedServer::open_durable(&dir).unwrap();
        let client = server.connect();
        let persistence = || match server.handle(client, Request::Persistence) {
            Ok(Response::Persistence(status)) => status,
            other => panic!("unexpected response {other:?}"),
        };
        let retrieve = |name: &str| server.handle(client, Request::Retrieve { name: name.into() });
        std::thread::scope(|s| {
            s.spawn(|| {
                let status = persistence();
                assert!(status.durable);
                assert_eq!(status.objects, 2, "committed check-in recovered");
                assert_eq!(status.relationships, 1);
                assert_eq!(status.versions, 1);
                assert!(retrieve("Alarms").is_ok());
                assert!(retrieve("Ghost").is_err(), "rejected check-in left no trace");
                // Checkpoint over the protocol truncates the WAL.
                assert!(matches!(server.handle(client, Request::Checkpoint), Ok(Response::Ack)));
                assert_eq!(persistence().wal_bytes, 0);
            });
        });
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A durable server holding `Sensor` with a STRING `Sensor.Description`, checked out by
    /// the returned client.
    fn durable_sensor_server(dir: &std::path::Path) -> (SeedServer, ClientId) {
        let server = SeedServer::create_durable(dir, figure3_schema()).unwrap();
        let client = server.connect();
        let sensor = [
            Update::CreateObject { class: "Action".into(), name: "Sensor".into() },
            Update::CreateDependent {
                parent: "Sensor".into(),
                class_local: "Description".into(),
                value: Value::string("reads"),
            },
        ];
        server.checkin(client, &sensor).unwrap();
        server.checkout(client, &["Sensor", "Sensor.Description"]).unwrap();
        (server, client)
    }

    /// An integer into the STRING domain of `Sensor.Description`: a consistency violation.
    fn violating_value() -> Update {
        Update::SetValue { object: "Sensor.Description".into(), value: Value::Integer(7) }
    }

    #[test]
    fn refused_checkin_writes_nothing() {
        let dir = temp_dir("refused");
        let (server, client) = durable_sensor_server(&dir);
        let lsn = || server.with_database(|db| db.durable_lsn().unwrap());
        let before = lsn();
        let err = server.checkin(client, &[violating_value()]).unwrap_err();
        assert!(matches!(err, ServerError::Rejected(SeedError::Inconsistent(_))), "{err:?}");
        assert_eq!(lsn(), before, "a refused check-in costs no WAL write and no fsync");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refused_checkin_that_burned_ids_commits_the_raised_floors() {
        let dir = temp_dir("refused-burned");
        let burned = {
            let (server, client) = durable_sensor_server(&dir);
            let floor = || server.with_database(|db| db.store().id_floor().0);
            let (lsn, before) = (server.with_database(|db| db.durable_lsn().unwrap()), floor());
            let updates = [
                Update::CreateObject { class: "Data".into(), name: "Ghost".into() },
                violating_value(),
            ];
            assert!(server.checkin(client, &updates).is_err());
            assert!(floor() > before, "the rolled-back create burned an id");
            assert!(server.with_database(|db| db.durable_lsn().unwrap()) > lsn, "floors logged");
            floor()
            // Crash: dropped without checkpoint or close.
        };
        let server = SeedServer::open_durable(&dir).unwrap();
        assert_eq!(server.with_database(|db| db.store().id_floor().0), burned);
        let client = server.connect();
        server
            .checkin(client, &[Update::CreateObject { class: "Data".into(), name: "New".into() }])
            .unwrap();
        let id = server.retrieve("New").unwrap().id.0;
        assert!(id > burned, "a burned id is never reused: got {id}, burned up to {burned}");
        assert!(server.retrieve("Ghost").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A promoter with no tail to drain: it flips the node at once.
    struct FakePromoter;

    impl Promoter for FakePromoter {
        fn promote(&self, server: &SeedServer, epoch: u64, _new_primary: &str) -> ServerResult<()> {
            server.become_primary(epoch)
        }
    }

    #[test]
    fn read_only_replica_serves_reads_and_redirects_writes() {
        let dir = temp_dir("replica-role");
        let server = with_data(Database::create_durable(&dir, figure3_schema()).unwrap());
        server.become_replica("primary.example:7044", Arc::new(FakePromoter));
        let durable = server.with_database(|db| db.durable_lsn().unwrap());
        assert_eq!(server.replica_progress(), Some((durable, 0)));
        // The whole read surface keeps working.
        assert!(server.retrieve("Alarms").is_ok());
        assert_eq!(server.query("count Action").unwrap().count, 2);
        assert!(server.schema().class_id("Data").is_ok());
        assert!(server.completeness_count() > 0);
        // Writes are redirected, not applied.
        let c1 = server.connect();
        for err in [
            server.checkout(c1, &["Alarms"]).unwrap_err(),
            server.checkin(c1, &[]).unwrap_err(),
            server.create_version("nope").unwrap_err(),
        ] {
            match err {
                ServerError::ReadOnlyReplica { primary } => {
                    assert_eq!(primary, "primary.example:7044");
                }
                other => panic!("expected a redirect, got {other:?}"),
            }
        }
        assert_eq!(server.locked_count(), 0, "a redirected checkout must acquire nothing");
        // The apply path: a step changes the served database under its write lock and
        // publishes it, keyed to its end of log, and its progress is surfaced through the
        // persistence status.
        let next = durable + 1;
        let step = |db: &mut Database| db.create_object("Data", "FromTheStream").map(Some);
        assert_eq!(server.advance_replica(next + 3, step).unwrap().0, next);
        assert!(server.retrieve("FromTheStream").is_ok());
        let replication = server.persistence_status().replication;
        assert_eq!(replication.role, ReplicationRole::Replica);
        assert_eq!(replication.lag(), 3);
        assert_eq!(replication.snapshot_lsn, next, "snapshot keyed to the applied LSN");
        // A heartbeat moves only the observed primary position.
        server.advance_replica(next + 9, |_| Ok(None::<()>)).unwrap();
        assert!(server.retrieve("FromTheStream").is_ok());
        assert_eq!(server.replica_progress(), Some((next, next + 9)));
        assert_eq!(server.health().lag, 9);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn primary_reports_subscribers_in_persistence_status() {
        let server = server_with_data();
        // Even without subscribers the primary reports: the serving snapshot's LSN is the
        // operator's read-staleness observable.
        let idle = server.persistence_status().replication;
        assert_eq!(idle.role, ReplicationRole::Primary);
        assert_eq!(idle.subscribers, 0);
        // An in-memory primary keys its snapshots by publication epoch, which is NOT a WAL
        // LSN: the LSN fields report 0 so tooling never mistakes the epoch for a durable
        // position (the epoch stays internal).
        assert_eq!(idle.snapshot_lsn, 0);
        assert_eq!(idle.applied_lsn, 0);
        assert_eq!(idle.primary_lsn, 0);
        server.note_replica_ack(7, 12);
        server.note_replica_ack(9, 8);
        let status = server.persistence_status().replication;
        assert_eq!(status.role, ReplicationRole::Primary);
        assert_eq!(status.subscribers, 2);
        assert_eq!(status.min_acked_lsn, 8);
        assert_eq!(status.lag(), 0, "a primary never lags itself");
        assert_eq!(status.snapshot_lsn, idle.snapshot_lsn, "no write, same serving snapshot");
        assert_eq!(server.subscriber_count(), 2);
        server.forget_replica(9);
        assert_eq!(server.subscriber_count(), 1);
        server.forget_replica(7);
        let status = server.persistence_status().replication;
        assert_eq!(status.subscribers, 0);
    }

    #[test]
    fn subscriber_acks_pin_wal_retention_across_checkpoints() {
        use seed_storage::WalTail;
        let dir = temp_dir("retention");
        let server = SeedServer::create_durable(&dir, figure3_schema()).unwrap();
        let client = server.connect();
        for i in 0..20 {
            server
                .checkin(
                    client,
                    &[Update::CreateObject { class: "Data".into(), name: format!("D{i:03}") }],
                )
                .unwrap();
        }
        let durable = server.with_database(|db| db.durable_lsn().unwrap());
        let replication = server.persistence_status().replication;
        assert_eq!(replication.snapshot_lsn, durable, "durable primary reports the real WAL LSN");
        assert_eq!(replication.applied_lsn, durable);
        let cursor = durable - 5;

        // A live subscriber's cursor survives a checkpoint: the tail it still needs is retained.
        server.note_replica_ack(client, cursor);
        server.checkpoint().unwrap();
        let tail = server.with_database(|db| db.log_feed().unwrap().wal_tail(cursor + 1).unwrap());
        assert!(matches!(tail, WalTail::Records(_)), "live ack must pin the tail, got {tail:?}");

        // A retired (disconnected) subscriber keeps pinning until it is forgotten.
        server.retire_replica(client);
        assert_eq!(server.subscriber_count(), 0);
        server.checkpoint().unwrap();
        let tail = server.with_database(|db| db.log_feed().unwrap().wal_tail(cursor + 1).unwrap());
        assert!(matches!(tail, WalTail::Records(_)), "retired ack must pin the tail");

        // Forgetting releases the pin: the next checkpoint prunes everything.
        server.forget_replica(client);
        server.checkpoint().unwrap();
        let tail = server.with_database(|db| db.log_feed().unwrap().wal_tail(cursor + 1).unwrap());
        assert!(matches!(tail, WalTail::Truncated { .. }), "released pin must prune, got {tail:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_cursors_are_capped_dropping_the_furthest_behind_first() {
        let server = server_with_data();
        server.note_replica_ack(1, 5);
        for client in 2..RETIRED_ACK_CAP as u64 + 4 {
            server.note_replica_ack(client, client * 10);
            server.retire_replica(client);
        }
        assert_eq!(server.subscriber_count(), 1);
        let subscribers = server.subscribers.lock();
        assert_eq!(subscribers.values().filter(|s| !s.live).count(), RETIRED_ACK_CAP);
        assert!(!subscribers.contains_key(&2) && !subscribers.contains_key(&3), "furthest first");
        assert!(subscribers[&1].live, "a live cursor is never evicted, however far behind");
    }

    #[test]
    fn fencing_rejects_writes_survives_restart_and_arbitrates_races() {
        let dir = temp_dir("fence");
        {
            let server = SeedServer::create_durable(&dir, figure3_schema()).unwrap();
            let client = server.connect();
            server
                .checkin(
                    client,
                    &[Update::CreateObject { class: "Data".into(), name: "Before".into() }],
                )
                .unwrap();
            assert_eq!(server.topology_epoch(), 0);
            assert!(server.fenced_state().is_none());

            // The first promotion with a newer epoch fences the node.
            let receipt = server.promote(1, "10.0.0.2:7044").unwrap();
            assert_eq!(receipt.epoch, 1);
            assert!(receipt.last_lsn > 0, "a durable primary reports its end of log");
            assert_eq!(server.fenced_state(), Some(("10.0.0.2:7044".to_string(), 1)));

            // A racing promotion (same or older epoch) loses and is told who won.
            match server.promote(1, "10.0.0.3:7044").unwrap_err() {
                ServerError::Fenced { new_primary, epoch } => {
                    assert_eq!(new_primary, "10.0.0.2:7044");
                    assert_eq!(epoch, 1);
                }
                other => panic!("expected Fenced, got {other:?}"),
            }

            // Every write surface refuses; the read surface keeps serving.
            for err in [
                server.checkout(client, &["Before"]).unwrap_err(),
                server.checkin(client, &[]).unwrap_err(),
                server.create_version("nope").unwrap_err(),
            ] {
                assert!(matches!(err, ServerError::Fenced { .. }), "got {err:?}");
            }
            assert!(server.retrieve("Before").is_ok());

            // Health: alive, permanently not-ready, still reporting as a (fenced) primary.
            let health = server.health();
            assert!(!health.ready);
            assert_eq!(health.role, ReplicationRole::Primary);
            assert!(health.detail.contains("fenced at epoch 1"), "got: {}", health.detail);
            // Crash without checkpoint: the fence must already be durable.
        }
        let server = SeedServer::open_durable(&dir).unwrap();
        assert_eq!(server.fenced_state(), Some(("10.0.0.2:7044".to_string(), 1)));
        assert_eq!(server.topology_epoch(), 1);
        let client = server.connect();
        assert!(matches!(server.checkin(client, &[]).unwrap_err(), ServerError::Fenced { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_engine_makes_the_primary_not_ready_with_the_reason() {
        let dir = temp_dir("poison");
        let server = SeedServer::create_durable(&dir, figure3_schema()).unwrap();
        assert!(server.health().ready);
        // The directory vanishes under the primary: the checkpoint cannot write its image,
        // and the failure poisons the storage engine.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(server.checkpoint().is_err());
        let health = server.health();
        assert!(!health.ready);
        assert_eq!(health.role, ReplicationRole::Primary);
        assert!(health.detail.contains("poisoned"), "got: {}", health.detail);
        assert!(health.detail.contains("checkpoint"), "got: {}", health.detail);
    }

    #[test]
    fn promote_on_a_replica_needs_a_registered_driver() {
        let server = server_with_data();
        server.become_replica("primary.example:7044", Arc::new(FakePromoter));
        let receipt = server.promote(2, "replica.example:7044").unwrap();
        // The receipt's end of log is the promoted database's: none, for an in-memory one.
        assert_eq!(receipt, PromotionReceipt { epoch: 2, last_lsn: 0 });
        assert!(server.replica_progress().is_none(), "the node now serves as a primary");
        assert_eq!(server.topology_epoch(), 2);
    }

    #[test]
    fn become_primary_clears_the_replica_role_atomically() {
        let server = server_with_data();
        server.become_replica("old-primary:7044", Arc::new(FakePromoter));
        server.advance_replica(10, |_| Ok(None::<()>)).unwrap();
        server.become_primary(3).unwrap();
        assert!(server.replica_progress().is_none());
        assert_eq!(server.topology_epoch(), 3);
        assert!(server.retrieve("Alarms").is_ok(), "the served database stays in place");
        let replication = server.persistence_status().replication;
        assert_eq!(replication.role, ReplicationRole::Primary);
        let client = server.connect();
        server
            .checkin(client, &[Update::CreateObject { class: "Data".into(), name: "New".into() }])
            .unwrap();
    }

    #[test]
    fn in_memory_server_reports_non_durable_and_rejects_checkpoint() {
        let server = server_with_data();
        let status = server.persistence_status();
        assert!(!status.durable);
        assert_eq!(status.path, None);
        assert!(server.checkpoint().is_err());
    }

    /// The server half of the lock-reclaim rule: the owning shard calls `release` when a
    /// connection falls idle (counting a reclaim only when it freed a lock) and when it
    /// closes.  The deadline itself is covered by `seed-net`'s `idle_reclaim_*` tests.
    #[test]
    fn idle_locks_are_reclaimed_and_disconnect_releases() {
        let server = server_with_data();
        let c1 = server.connect();
        server.checkout(c1, &["Alarms"]).unwrap();
        let held = server.locked_count();
        assert!(held > 0);
        // An idle holder's locks come back, and the release reports how many.
        assert_eq!(server.release(c1), held);
        assert_eq!(server.locked_count(), 0);
        // A client without checked-out data releases nothing, so it is never counted.
        let c2 = server.connect();
        assert_eq!(server.release(c2), 0);
        // The reclaimed client can come back: its next checkout succeeds.
        server.checkout(c1, &["Alarms"]).unwrap();
        assert!(server.checkout(c2, &["Alarms"]).is_err());
        // Releasing a lock-free client leaves everybody else's locks alone.
        assert_eq!(server.release(c2), 0);
        assert_eq!(server.locked_count(), held);
        // Disconnect (the transport's close path) releases everything at once.
        assert_eq!(server.release(c1), held);
        assert!(server.checkout(c2, &["Alarms"]).is_ok());
    }

    #[test]
    fn structural_updates_cover_named_dependents_and_relationship_reclassification() {
        let server = server_with_data();
        let c1 = server.connect();
        server.checkout(c1, &["Alarms", "Sensor"]).unwrap();
        // Remote-style check-in: re-classify the object, then the Access relationship to Write,
        // addressing the relationship structurally by association + named bindings.
        server
            .checkin(
                c1,
                &[
                    Update::Reclassify { object: "Alarms".into(), new_class: "OutputData".into() },
                    Update::ReclassifyRelationship {
                        association: "Access".into(),
                        bindings: vec![
                            ("from".into(), "Alarms".into()),
                            ("by".into(), "Sensor".into()),
                        ],
                        new_association: "Write".into(),
                    },
                ],
            )
            .unwrap();
        let rels = server.relationships_of("Alarms").unwrap();
        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].association, "Write");
        assert!(rels[0].involves("Sensor"));
        assert!(!rels[0].inherited);

        // An explicit plain segment name lands byte-for-byte.
        server.checkout(c1, &["Sensor"]).unwrap();
        server
            .checkin(
                c1,
                &[Update::CreateDependentNamed {
                    parent: "Sensor".into(),
                    class_local: "Description".into(),
                    name: "Description".into(),
                    value: Value::string("reads process data"),
                }],
            )
            .unwrap();
        assert_eq!(
            server.retrieve("Sensor.Description").unwrap().value,
            Value::string("reads process data")
        );
        // Addressing a relationship that does not exist fails cleanly.
        server.checkout(c1, &["Alarms", "Sensor"]).unwrap();
        let err = server
            .checkin(
                c1,
                &[Update::ReclassifyRelationship {
                    association: "Read".into(),
                    bindings: vec![
                        ("from".into(), "Alarms".into()),
                        ("by".into(), "Sensor".into()),
                    ],
                    new_association: "Write".into(),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::Rejected(_)));
        // A partial address (a strict subset of the bindings) is rejected, never matched
        // against "whichever relationship comes first".
        let err = server
            .checkin(
                c1,
                &[Update::ReclassifyRelationship {
                    association: "Write".into(),
                    bindings: vec![("to".into(), "Alarms".into())],
                    new_association: "Access".into(),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::Rejected(SeedError::NotFound(_))));
        // Padding the address with duplicate pairs cannot fake full coverage either (that
        // would let a client touch a relationship whose other participant it never locked).
        let err = server
            .checkin(
                c1,
                &[Update::ReclassifyRelationship {
                    association: "Write".into(),
                    bindings: vec![("to".into(), "Alarms".into()), ("to".into(), "Alarms".into())],
                    new_association: "Access".into(),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::Rejected(SeedError::NotFound(_))));
    }

    #[test]
    fn read_surface_serves_schema_children_and_counts() {
        let server = server_with_data();
        let schema = server.schema();
        assert_eq!(schema, seed_schema::figure3_schema());
        let access = schema.association_id("Access").unwrap();
        let names: Vec<&str> = schema
            .association_descendants(access)
            .into_iter()
            .map(|a| schema.association(a).unwrap().name.as_str())
            .collect();
        assert_eq!(names, ["Read", "Write"]);
        assert_eq!(schema.association(access).unwrap().roles[0].name, "from");

        let children = server.children_of("AlarmHandler").unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].name.to_string(), "AlarmHandler.Description");
        assert!(server.children_of("Ghost").is_err());

        let prefixed = server.objects_with_prefix("Alarm");
        assert!(prefixed.len() >= 3, "Alarms, AlarmHandler, AlarmHandler.Description");

        let actions = server.objects_of_class("Action", true).unwrap();
        assert_eq!(actions.len(), 2);
        assert!(server.objects_of_class("Nonsense", true).is_err());

        assert_eq!(server.relationship_count_in("Access", true).unwrap(), 1);
        assert!(server.relationship_count_in("Nonsense", true).is_err());
        // The populated fixture is deliberately incomplete (e.g. undescribed data).
        assert!(server.completeness_count() > 0);
    }

    #[test]
    fn reads_are_never_torn_by_concurrent_checkins() {
        // The RwLock refactor's contract: one read (one closure, one query) sees the database
        // either before or after a whole check-in, never in between.
        let mut db = Database::new(figure3_schema());
        for name in ["Left", "Right"] {
            let id = db.create_object("Action", name).unwrap();
            db.create_dependent(id, "Description", Value::string("round 0")).unwrap();
        }
        let server = Arc::new(SeedServer::new(db));

        let writer = {
            let server = server.clone();
            std::thread::spawn(move || {
                let client = server.connect();
                for round in 1..=50u32 {
                    server.checkout(client, &["Left", "Right"]).unwrap();
                    server
                        .checkin(
                            client,
                            &[
                                Update::SetValue {
                                    object: "Left.Description".into(),
                                    value: Value::string(format!("round {round}")),
                                },
                                Update::SetValue {
                                    object: "Right.Description".into(),
                                    value: Value::string(format!("round {round}")),
                                },
                            ],
                        )
                        .unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let (left, right) = server.with_database(|db| {
                            (
                                db.object_by_name("Left.Description").unwrap().value.clone(),
                                db.object_by_name("Right.Description").unwrap().value.clone(),
                            )
                        });
                        assert_eq!(left, right, "a read observed half a check-in");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(server.retrieve("Left.Description").unwrap().value, Value::string("round 50"));
    }

    #[test]
    fn threaded_server_serves_concurrent_clients() {
        let server = server_with_data();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let server = &server;
                s.spawn(move || {
                    let client = server.connect();
                    // Each worker creates its own object and updates it — no conflicts.
                    let name = format!("Worker{i}Data");
                    let create =
                        vec![Update::CreateObject { class: "Data".into(), name: name.clone() }];
                    let reply = server.handle(client, Request::Checkin { updates: create });
                    assert!(matches!(reply, Ok(Response::Ack)), "{reply:?}");
                    // May conflict with another worker holding the lock; that's fine.
                    let object = "AlarmHandler.Description";
                    let value = Value::string(format!("by {i}"));
                    let set = [Update::SetValue { object: object.into(), value }];
                    let _ = server
                        .checkout(client, &[object])
                        .and_then(|_| server.checkin(client, &set));
                    server.retrieve(&name).unwrap();
                });
            }
        });
        // All four objects exist centrally.
        for i in 0..4u64 {
            assert!(server.retrieve(&format!("Worker{i}Data")).is_ok());
        }
    }
}
