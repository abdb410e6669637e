//! Messages exchanged between clients and the central server.
//!
//! Objects are addressed by their hierarchical names, not by internal ids — a client's local
//! copy and the server's central database do not share id spaces.

use seed_core::{ObjectRecord, RelationshipRecord, Value, VersionId};
use seed_schema::Schema;

/// Identifier the server assigns to a connected client.
pub type ClientId = u64;

/// An update a client made to its local copy and wants applied centrally.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Create an independent object.
    CreateObject {
        /// Class name.
        class: String,
        /// Object name.
        name: String,
    },
    /// Create a dependent object under a (checked-out or newly created) parent.
    CreateDependent {
        /// Parent object name.
        parent: String,
        /// Local name of the dependent class (e.g. `"Text"`).
        class_local: String,
        /// Initial value.
        value: Value,
    },
    /// Create a dependent object with an explicit (un-indexed) name segment — the remote
    /// counterpart of [`seed_core::Database::create_dependent_named`] with a plain segment.
    CreateDependentNamed {
        /// Parent object name.
        parent: String,
        /// Local name of the dependent class (e.g. `"Body"`).
        class_local: String,
        /// The plain segment name to use (usually equal to `class_local`).
        name: String,
        /// Initial value.
        value: Value,
    },
    /// Set the value of an object.
    SetValue {
        /// Object name.
        object: String,
        /// New value.
        value: Value,
    },
    /// Re-classify an object within its generalization hierarchy.
    Reclassify {
        /// Object name.
        object: String,
        /// Target class name.
        new_class: String,
    },
    /// Create a relationship; bindings refer to objects by name.
    CreateRelationship {
        /// Association name.
        association: String,
        /// `(role, object name)` bindings.
        bindings: Vec<(String, String)>,
    },
    /// Re-classify an existing relationship within its association hierarchy.  The relationship
    /// is addressed structurally — by its current association and its `(role, object name)`
    /// bindings — because relationships have no names and clients do not share the server's id
    /// space.
    ReclassifyRelationship {
        /// Current association name.
        association: String,
        /// `(role, object name)` bindings identifying the relationship.
        bindings: Vec<(String, String)>,
        /// Target association name.
        new_association: String,
    },
    /// Delete an object (logically).
    DeleteObject {
        /// Object name.
        object: String,
    },
}

impl Update {
    /// The names of existing objects this update modifies (used for lock validation).
    /// Creations return the parent (for dependents) or nothing (new independent objects are not
    /// lockable yet).
    pub fn touched_objects(&self) -> Vec<&str> {
        match self {
            Update::CreateObject { .. } => vec![],
            Update::CreateDependent { parent, .. }
            | Update::CreateDependentNamed { parent, .. } => vec![parent.as_str()],
            Update::SetValue { object, .. }
            | Update::Reclassify { object, .. }
            | Update::DeleteObject { object } => vec![object.as_str()],
            Update::CreateRelationship { bindings, .. }
            | Update::ReclassifyRelationship { bindings, .. } => {
                bindings.iter().map(|(_, o)| o.as_str()).collect()
            }
        }
    }
}

/// The data handed to a client at check-out time: copies of the requested objects (with their
/// dependent objects) and of the relationships among them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckoutSet {
    /// Copies of the checked-out objects (roots and their dependents).
    pub objects: Vec<ObjectRecord>,
    /// Copies of the relationships among the checked-out objects.
    pub relationships: Vec<RelationshipRecord>,
}

impl CheckoutSet {
    /// Names of the copied objects.
    pub fn object_names(&self) -> Vec<String> {
        self.objects.iter().map(|o| o.name.to_string()).collect()
    }

    /// Number of copied objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the checkout is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

/// The answer to a [`Request::Query`]: the matching names (sorted), the cardinality, and — for
/// `explain` queries — the rendered physical plan instead of a result set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryAnswer {
    /// Names of the matching objects (empty for `count` and `explain` queries).
    pub names: Vec<String>,
    /// Number of matching objects (zero for `explain` queries).
    pub count: usize,
    /// The rendered plan, when the query was an `explain`.
    pub plan: Option<String>,
}

/// Which side of WAL-shipping replication a node plays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplicationRole {
    /// The writable node whose WAL is shipped to subscribers.
    #[default]
    Primary,
    /// A read-only node applying shipped log batches; writes are redirected to the primary.
    Replica,
}

/// Replication progress, as surfaced in [`PersistenceStatus`] (the `Persistence` request is the
/// operational window into both sides of the stream — see `docs/OPERATIONS.md`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicationStatus {
    /// This node's role.
    pub role: ReplicationRole,
    /// Last primary LSN whose effects are durable on this node.  On the primary this equals
    /// [`ReplicationStatus::primary_lsn`] (it is always caught up with itself).
    pub applied_lsn: u64,
    /// The primary's durable end of log, as last observed.
    pub primary_lsn: u64,
    /// Connected replication subscribers (primary side; 0 on replicas).
    pub subscribers: u32,
    /// The lowest LSN any connected subscriber has acknowledged (primary side; 0 when there
    /// are no subscribers).
    pub min_acked_lsn: u64,
    /// The LSN of the snapshot the read surface is currently serving (on both roles) — the
    /// operator's staleness observable: reads reflect the database as of this LSN.
    pub snapshot_lsn: u64,
}

impl ReplicationStatus {
    /// Replication lag in log records: how far this node's applied state trails the primary's
    /// durable end of log (always 0 on the primary).
    pub fn lag(&self) -> u64 {
        self.primary_lsn.saturating_sub(self.applied_lsn)
    }
}

/// The durability state of the central database, as reported over the protocol.  After a
/// server restart, the counts tell a client exactly what restart recovery reconstructed from
/// the write-through records and the storage WAL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersistenceStatus {
    /// Whether the central database writes mutations through to durable storage.
    pub durable: bool,
    /// Directory of the durable storage, when durable.
    pub path: Option<String>,
    /// Bytes currently in the storage WAL (recovery replay work is proportional to this).
    pub wal_bytes: u64,
    /// Live, visible objects in the central database.
    pub objects: usize,
    /// Live, visible relationships in the central database.
    pub relationships: usize,
    /// Stored versions.
    pub versions: usize,
    /// Replication progress and the serving snapshot's LSN (both roles report the snapshot
    /// LSN so operators can observe staleness).
    pub replication: ReplicationStatus,
}

/// The answer to a [`Request::Health`] probe: liveness is implied by any reply at all;
/// readiness means the node can currently do its job — a primary's WAL accepts writes, a
/// replica is within its lag budget.  See `docs/OBSERVABILITY.md` for probe semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthStatus {
    /// Whether the node is ready to serve (primary: WAL writable; replica: within lag budget).
    pub ready: bool,
    /// This node's replication role.
    pub role: ReplicationRole,
    /// Replication lag in log records (always 0 on the primary).
    pub lag: u64,
    /// The lag budget the readiness verdict was computed against (records).
    pub lag_budget: u64,
    /// Human-readable reason, `"ok"` when ready.
    pub detail: String,
}

/// One relationship of an object, rendered for a remote client: the association by name and the
/// bindings as `(role, object name)` pairs (clients do not share the server's id space).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelationshipInfo {
    /// Association name.
    pub association: String,
    /// `(role, object name)` bindings, in declaration order.
    pub bindings: Vec<(String, String)>,
    /// Whether the relationship is inherited from a pattern (rather than the object's own).
    pub inherited: bool,
}

impl RelationshipInfo {
    /// Whether the relationship binds an object with the given name (in any role).
    pub fn involves(&self, object: &str) -> bool {
        self.bindings.iter().any(|(_, o)| o == object)
    }
}

/// A request to the server ([`crate::SeedServer::handle`]).
#[derive(Debug, Clone)]
pub enum Request {
    /// Check out the named objects (taking write locks for the requesting client).
    Checkout {
        /// Root object names to check out.
        objects: Vec<String>,
    },
    /// Check in a batch of updates as a single transaction and release the client's locks.
    Checkin {
        /// Updates to apply.
        updates: Vec<Update>,
    },
    /// Release all of the client's locks without checking anything in.
    Release,
    /// Read a single object by name (no lock; servers serve retrieval directly).
    Retrieve {
        /// Object name.
        name: String,
    },
    /// Evaluate a retrieval-language query (or an `explain`) on the central database (no lock;
    /// retrieval goes straight to the server).
    Query {
        /// The query text, e.g. `find Data where name prefix "Alarm"` or `explain count Data`.
        text: String,
    },
    /// Ask the server to create a global version snapshot.
    CreateVersion {
        /// Comment for the version.
        comment: String,
    },
    /// Ask for the durability state of the central database (exposes restart recovery: after a
    /// reopen, the reply reports what was reconstructed from the per-item records and the WAL).
    Persistence,
    /// Ask the server to checkpoint its durable storage (write the snapshot, prune the WAL).
    Checkpoint,
    /// Ask for the current schema, so the client can interpret records locally (class ids,
    /// dependent classes, association hierarchies and roles).
    Schema,
    /// Read the (materialized) children of an object by name.
    Children {
        /// Parent object name.
        name: String,
    },
    /// Read all objects whose hierarchical name starts with a prefix.
    Prefix {
        /// The name prefix, e.g. `"Alarms.Text"`.
        prefix: String,
    },
    /// Read the relationships an object participates in, rendered by name
    /// ([`RelationshipInfo`]).
    RelationshipsOf {
        /// Object name.
        name: String,
    },
    /// Read the extent of a class by name.
    ObjectsOfClass {
        /// Class name.
        class: String,
        /// Whether to include subclasses.
        transitive: bool,
    },
    /// Count the live relationships of an association (optionally including its
    /// specializations).
    RelationshipCount {
        /// Association name.
        association: String,
        /// Whether to include specializations of the association.
        transitive: bool,
    },
    /// Run the completeness analysis and report the number of findings.
    Completeness,
    /// End this client's session (over TCP: close the connection).
    Shutdown,
    /// Ask for a full metrics-registry snapshot (every counter, gauge and histogram — see
    /// `docs/OBSERVABILITY.md` for the catalog).
    Stats,
    /// Liveness/readiness probe ([`HealthStatus`]).
    Health,
    /// Change this node's place in the replication topology (see `docs/OPERATIONS.md` §7).
    ///
    /// Sent to a **replica**, it orders the node to finish applying its shipped tail and take
    /// over as primary under topology epoch `epoch`.  Sent to the **old primary**, it fences the
    /// node: the epoch is compared against the node's current epoch (a compare-and-swap — the
    /// arbitration point when two promotions race) and, if newer, the node persistently refuses
    /// all further writes with [`crate::error::ServerError::Fenced`] pointing at `new_primary`.
    Promote {
        /// The topology epoch of this promotion; must exceed the node's current epoch.
        epoch: u64,
        /// Address of the node taking over as primary.
        new_primary: String,
    },
}

impl Request {
    /// A short static name for the request kind — the key used for per-kind latency metrics
    /// (`net_request_us_<kind>`) and the slow-operation log.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Checkout { .. } => "checkout",
            Request::Checkin { .. } => "checkin",
            Request::Release => "release",
            Request::Retrieve { .. } => "retrieve",
            Request::Query { .. } => "query",
            Request::CreateVersion { .. } => "create_version",
            Request::Persistence => "persistence",
            Request::Checkpoint => "checkpoint",
            Request::Schema => "schema",
            Request::Children { .. } => "children",
            Request::Prefix { .. } => "prefix",
            Request::RelationshipsOf { .. } => "relationships_of",
            Request::ObjectsOfClass { .. } => "objects_of_class",
            Request::RelationshipCount { .. } => "relationship_count",
            Request::Completeness => "completeness",
            Request::Shutdown => "shutdown",
            Request::Stats => "stats",
            Request::Health => "health",
            Request::Promote { .. } => "promote",
        }
    }

    /// Every value [`Request::kind_name`] can return, for pre-registering per-kind metric
    /// handles before the first request arrives.
    pub const KIND_NAMES: &'static [&'static str] = &[
        "checkout",
        "checkin",
        "release",
        "retrieve",
        "query",
        "create_version",
        "persistence",
        "checkpoint",
        "schema",
        "children",
        "prefix",
        "relationships_of",
        "objects_of_class",
        "relationship_count",
        "completeness",
        "shutdown",
        "stats",
        "health",
        "promote",
    ];
}

/// A successful reply from the server.  A refused request is answered with the
/// [`crate::error::ServerError`] instead ([`crate::SeedServer::handle`] returns a
/// [`crate::error::ServerResult`]), so every variant carries only its success payload.
#[derive(Debug)]
pub enum Response {
    /// Reply to [`Request::Checkout`].
    Checkout(CheckoutSet),
    /// Reply to [`Request::Checkin`] / [`Request::Release`] / [`Request::Checkpoint`].
    Ack,
    /// Reply to [`Request::Retrieve`].
    Object(ObjectRecord),
    /// Reply to [`Request::Query`].
    Answer(QueryAnswer),
    /// Reply to [`Request::CreateVersion`].
    Version(VersionId),
    /// Reply to [`Request::Persistence`].
    Persistence(PersistenceStatus),
    /// Reply to [`Request::Schema`].
    Schema(Schema),
    /// Reply to [`Request::Children`] / [`Request::Prefix`] / [`Request::ObjectsOfClass`].
    Objects(Vec<ObjectRecord>),
    /// Reply to [`Request::RelationshipsOf`].
    Relationships(Vec<RelationshipInfo>),
    /// Reply to [`Request::RelationshipCount`] / [`Request::Completeness`].
    Count(usize),
    /// Reply to [`Request::Shutdown`].
    ShuttingDown,
    /// Reply to [`Request::Stats`]: a point-in-time copy of the whole metrics registry.
    Stats(seed_obs::RegistrySnapshot),
    /// Reply to [`Request::Health`].
    Health(HealthStatus),
    /// Reply to [`Request::Promote`]: the accepted topology epoch and the node's durable end of
    /// log at the moment the promotion took effect (on a fenced primary: the last LSN it will
    /// ever write — the new primary must have applied at least this far for zero data loss).
    Promoted(PromotionReceipt),
}

/// The payload of [`Response::Promoted`]: proof of where the node stood when it changed roles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromotionReceipt {
    /// The topology epoch now in force on the node.
    pub epoch: u64,
    /// The node's durable end of log at the role change.
    pub last_lsn: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touched_objects_cover_lockable_names() {
        assert!(Update::CreateObject { class: "Data".into(), name: "X".into() }
            .touched_objects()
            .is_empty());
        assert_eq!(
            Update::SetValue { object: "Alarms".into(), value: Value::Undefined }.touched_objects(),
            vec!["Alarms"]
        );
        assert_eq!(
            Update::CreateRelationship {
                association: "Access".into(),
                bindings: vec![("from".into(), "Alarms".into()), ("by".into(), "Sensor".into())],
            }
            .touched_objects(),
            vec!["Alarms", "Sensor"]
        );
        assert_eq!(
            Update::CreateDependent {
                parent: "Alarms".into(),
                class_local: "Text".into(),
                value: Value::Undefined
            }
            .touched_objects(),
            vec!["Alarms"]
        );
    }

    /// One request of every variant.  The match is exhaustive, so a new variant does not
    /// compile until it is listed here as well.
    fn one_of_each() -> Vec<Request> {
        let text = || "X".to_string();
        let all = vec![
            Request::Checkout { objects: vec![text()] },
            Request::Checkin { updates: Vec::new() },
            Request::Release,
            Request::Retrieve { name: text() },
            Request::Query { text: text() },
            Request::CreateVersion { comment: text() },
            Request::Persistence,
            Request::Checkpoint,
            Request::Schema,
            Request::Children { name: text() },
            Request::Prefix { prefix: text() },
            Request::RelationshipsOf { name: text() },
            Request::ObjectsOfClass { class: text(), transitive: true },
            Request::RelationshipCount { association: text(), transitive: true },
            Request::Completeness,
            Request::Shutdown,
            Request::Stats,
            Request::Health,
            Request::Promote { epoch: 1, new_primary: text() },
        ];
        for request in &all {
            match request {
                Request::Checkout { .. }
                | Request::Checkin { .. }
                | Request::Release
                | Request::Retrieve { .. }
                | Request::Query { .. }
                | Request::CreateVersion { .. }
                | Request::Persistence
                | Request::Checkpoint
                | Request::Schema
                | Request::Children { .. }
                | Request::Prefix { .. }
                | Request::RelationshipsOf { .. }
                | Request::ObjectsOfClass { .. }
                | Request::RelationshipCount { .. }
                | Request::Completeness
                | Request::Shutdown
                | Request::Stats
                | Request::Health
                | Request::Promote { .. } => {}
            }
        }
        all
    }

    /// `net_request_us_<kind>` handles are registered from `KIND_NAMES` and looked up by
    /// `kind_name()`: a kind missing from the list would silently record nothing.
    #[test]
    fn kind_names_list_every_request_kind_once() {
        let kinds: std::collections::BTreeSet<&str> =
            one_of_each().iter().map(Request::kind_name).collect();
        let listed: std::collections::BTreeSet<&str> =
            Request::KIND_NAMES.iter().copied().collect();
        assert_eq!(kinds.len(), one_of_each().len(), "two variants share a kind name");
        assert_eq!(listed.len(), Request::KIND_NAMES.len(), "KIND_NAMES repeats a name");
        assert_eq!(kinds, listed);
    }

    #[test]
    fn checkout_set_accessors() {
        let set = CheckoutSet::default();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.object_names().is_empty());
    }
}
