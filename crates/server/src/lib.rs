//! # seed-server
//!
//! The two-level multi-user extension sketched in the paper's *Open problems* section:
//!
//! > "One central server runs the complete database and several clients use the server for
//! > retrieval operations, but take local copies for making updates.  Data that has been copied
//! > to a client for update has a write lock in the central database.  When a client sends an
//! > updated copy back to the server, the server puts the modified data into the central
//! > database in a single transaction.  Versions are kept both locally and globally under
//! > control of the user and the server, respectively."
//!
//! The 1986 authors never built this.  This crate is the central half: a [`SeedServer`] owning
//! one [`seed_core::Database`], with write-lock discipline, single-transaction check-in,
//! conflict rejection and global version control, and the [`Request`] / [`Response`] protocol
//! that [`SeedServer::handle`] answers.  It is `Sync`, so any number of threads may call it.
//! The client half lives in `seed-net`: one typed client surface over TCP, a replica router,
//! or an in-process transport that calls [`SeedServer::handle`] directly, and the workstation
//! session (local copies, staged updates, one check-in) on top of it.

pub mod error;
pub mod lock;
pub mod protocol;
pub mod server;

pub use error::{ServerError, ServerResult};
pub use lock::LockTable;
pub use protocol::{
    CheckoutSet, ClientId, HealthStatus, PersistenceStatus, PromotionReceipt, QueryAnswer,
    RelationshipInfo, ReplicationRole, ReplicationStatus, Request, Response, Update,
};
pub use server::{Promoter, SeedServer, DEFAULT_HEALTH_LAG_BUDGET};
