//! # seed-net
//!
//! The network frontend of the SEED reproduction — what turns the in-process two-level scheme
//! of `seed-server` into an actual client/server DBMS:
//!
//! * [`wire`] — a length-prefixed binary frame format with per-frame CRC-32 checksums and a
//!   handshake that checks the one protocol version ([`PROTOCOL_VERSION`]) and binds the
//!   connection to a client id;
//! * [`codec`] — the binary encoding of the existing [`seed_server::Request`] /
//!   [`seed_server::Response`] protocol (reusing `seed-core`'s record codecs, so records have
//!   one binary shape on disk and on the wire);
//! * [`server`] — [`SeedNetServer`], a readiness-polled event-loop TCP server over a shared
//!   [`seed_server::SeedServer`]: each shard thread owns the sockets of its connections and
//!   executes their requests inline, so a connection may *pipeline* many request frames and
//!   read the responses back in request order.  A connection is its client: every request on
//!   it acts for the client id assigned at handshake, and a client's write locks are released
//!   on disconnect or after an idle timeout — the paper's crash-recovery rule for checked-out
//!   data;
//! * [`client`] — the one client stack: [`Client`] writes the typed checkout / check-in /
//!   query surface once over a [`Transport`] (a batch of requests out, their answers back in
//!   order).  [`RemoteClient`] runs it over TCP, [`ReadPreferredClient`] over a [`Router`] that
//!   fans reads out across replicas and sends everything else to the primary, and
//!   [`InProcess`] calls a [`seed_server::SeedServer`] on the caller's thread.
//!   [`ClientSession`] is the paper's workstation on top of any of them: local copies,
//!   locally staged updates, one check-in;
//! * [`replication`] — [`ReplicaNode`], a read-only replica: it subscribes to a primary's WAL
//!   stream (`Subscribe` / `LogBatch` / `Ack` frames), applies batches in place to its own
//!   durable [`seed_core::Database`], as a primary serves one, and serves the full read surface
//!   on its own listener.
//!   `docs/PROTOCOL.md` pins the wire contract; `docs/OPERATIONS.md` is the runbook.
//!
//! ```no_run
//! use seed_core::Database;
//! use seed_net::{RemoteClient, SeedNetServer};
//! use seed_schema::figure3_schema;
//! use seed_server::SeedServer;
//!
//! let server = SeedNetServer::bind(
//!     SeedServer::new(Database::new(figure3_schema())),
//!     "127.0.0.1:0",
//! )
//! .unwrap();
//! let mut client = RemoteClient::connect(server.local_addr()).unwrap();
//! client.checkin(vec![seed_server::Update::CreateObject {
//!     class: "Data".into(),
//!     name: "Alarms".into(),
//! }])
//! .unwrap();
//! assert_eq!(client.retrieve("Alarms").unwrap().name.to_string(), "Alarms");
//! server.shutdown();
//! ```

pub mod client;
pub mod codec;
pub mod error;
pub mod replication;
pub mod server;
pub mod wire;

pub use client::{
    Client, ClientSession, FromResponse, InProcess, ReadPreferredClient, RemoteClient, Router, Tcp,
    Transport,
};
pub use error::{WireError, WireResult};
pub use replication::{ReplicaConfig, ReplicaNode};
pub use server::{NetServerConfig, SeedNetServer};
pub use wire::{
    Ack, FrameDecoder, FrameKind, HandshakeRole, Hello, LogBatch, Subscribe, Welcome,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};

#[cfg(test)]
mod proptests;
