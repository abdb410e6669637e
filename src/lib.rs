//! Umbrella crate for the SEED reproduction (Glinz & Ludewig, ICDE 1986): re-exports the
//! workspace crates under one roof and hosts the integration tests (`tests/`) and runnable
//! examples (`examples/`).
//!
//! Layer by layer (see `docs/ARCHITECTURE.md` for the full picture):
//!
//! * [`obs`] — lock-free metrics registry, structured event ring and slow-operation log
//!   shared by every layer (catalog: `docs/OBSERVABILITY.md`);
//! * [`storage`] — in-memory key/value engine over a segmented WAL and one snapshot file;
//! * [`schema`] — classes, associations, generalization, SDL, validation, versioning;
//! * [`core`] — the DBMS: objects, relationships, consistency/completeness, versions, patterns;
//! * [`query`] — the `find …` retrieval language, entity-relationship algebra and the
//!   cost-aware planner with indexed access paths and `explain` (contract: `docs/QUERY.md`);
//! * [`server`] — the two-level multi-user extension (check-out/check-in, write locks);
//! * [`net`] — the network frontend: versioned binary wire protocol, concurrent TCP server,
//!   blocking remote client, and WAL-shipping read replicas (wire contract:
//!   `docs/PROTOCOL.md`; replication runbook: `docs/OPERATIONS.md`);
//! * [`spades`] — the miniature SPADES specification tool, SEED's example application.
//!
//! # Example
//!
//! ```
//! use seed::core::{Database, Value};
//! use seed::schema::figure3_schema;
//!
//! let mut db = Database::new(figure3_schema());
//!
//! // Vague: "there is a thing called Alarms".
//! let alarms = db.create_object("Thing", "Alarms").unwrap();
//! let sensor = db.create_object("Action", "Sensor").unwrap();
//!
//! // More precise: it is data, accessed by Sensor.
//! db.reclassify_object(alarms, "Data").unwrap();
//! db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
//!
//! // Completeness is analyzed on demand, never forced on updates.
//! for finding in &db.completeness_report().findings {
//!     println!("incomplete: {finding}");
//! }
//! # let _ = Value::Undefined;
//! ```

pub use seed_core as core;
pub use seed_net as net;
pub use seed_obs as obs;
pub use seed_query as query;
pub use seed_schema as schema;
pub use seed_server as server;
pub use seed_storage as storage;
pub use spades;
