//! # seed-core
//!
//! The core DBMS of the SEED reproduction (Glinz & Ludewig: *SEED — A DBMS for Software
//! Engineering Applications Based on the Entity-Relationship Approach*, ICDE 1986).
//!
//! SEED extends the entity-relationship model with what a software-engineering environment
//! needs; this crate implements those extensions on top of the schema subsystem
//! ([`seed_schema`]) and the storage substrate ([`seed_storage`]):
//!
//! * **Hierarchically structured objects** with names like `Alarms.Text.Body.Keywords[1]`
//!   ([`name`], [`object`], [`store`]);
//! * **Vague information** through generalization hierarchies of classes *and* associations,
//!   made precise step by step with re-classification ([`Database::reclassify_object`],
//!   [`Database::reclassify_relationship`]);
//! * **Incomplete information** through the split of schema information into *consistency*
//!   rules (checked on every update — [`consistency`]) and *completeness* rules (checked only by
//!   explicit analysis — [`completeness`]);
//! * **Secondary attribute indexes** — ordered per-class value indexes maintained on every
//!   update, the access paths behind `seed-query`'s cost-aware planner ([`index`]);
//! * **Attached procedures** for complex integrity constraints ([`procedures`]);
//! * **Versions and alternatives** with decimal identifiers, delta storage, tombstones and
//!   per-version views ([`version`]), plus history-sensitive transition rules ([`history`]);
//! * **Patterns and variants** with inherits-relationships, automatic propagation and
//!   immutability in the inheritor's context ([`pattern`]);
//! * a **structure-shared store**: every store map is a persistent B+ tree ([`pmap`]), so read
//!   snapshots and transaction savepoints are clones that cost the same at any size;
//! * a **procedural operational interface** ([`database::Database`]) with **incremental
//!   durability**: per-item write-through persistence over the storage engine's WAL
//!   ([`durability`], [`codec`]).
//!
//! ## Quick start
//!
//! ```
//! use seed_core::{Database, Value};
//! use seed_schema::figure3_schema;
//!
//! let mut db = Database::new(figure3_schema());
//! // Vague: "there is a thing called Alarms".
//! let alarms = db.create_object("Thing", "Alarms").unwrap();
//! let sensor = db.create_object("Action", "Sensor").unwrap();
//! // More precise: it is data, accessed by Sensor.
//! db.reclassify_object(alarms, "Data").unwrap();
//! let access = db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
//! // Fully precise: an output written twice.
//! db.reclassify_object(alarms, "OutputData").unwrap();
//! db.reclassify_relationship(access, "Write").unwrap();
//! db.set_relationship_attribute(access, "NumberOfWrites", Value::Integer(2)).unwrap();
//! // Preserve this state as version 1.0.
//! let v1 = db.create_version("first cut").unwrap();
//! assert_eq!(v1.to_string(), "1.0");
//! ```

pub mod codec;
pub mod completeness;
pub mod consistency;
pub mod database;
pub mod durability;
pub mod error;
pub mod history;
pub mod ident;
pub mod index;
pub mod name;
pub mod object;
pub mod pattern;
pub mod pmap;
pub mod procedures;
pub mod relationship;
pub mod replica;
pub mod snapshot;
pub mod store;
pub mod value;
pub mod version;

pub use completeness::{CompletenessReport, Incompleteness};
pub use consistency::{ConsistencyChecker, ConsistencyViolation};
pub use database::{Database, LogFeed};
pub use durability::DurabilityStatus;
pub use error::{SeedError, SeedResult};
pub use history::{TransitionRule, TransitionViolation};
pub use ident::{ItemId, ObjectId, RelationshipId, VersionId};
pub use index::{AttributeIndex, IndexKey, ValueOp};
pub use name::{NameSegment, ObjectName};
pub use object::ObjectRecord;
pub use pattern::{MaterializedChild, MaterializedRelationship, VariantFamily};
pub use procedures::{ProcedureContext, ProcedureRegistry};
pub use relationship::RelationshipRecord;
pub use snapshot::{Snapshot, SnapshotCell};
pub use store::DataStore;
pub use value::Value;
pub use version::{ItemSnapshot, VersionInfo, VersionManager};
