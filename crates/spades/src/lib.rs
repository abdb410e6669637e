//! # spades
//!
//! A miniature re-creation of **SPADES**, the specification and design system the SEED paper was
//! built for.  SPADES models a target software system semiformally as actions, data and data
//! flows; "development starts with informal, incomplete, and vague textual descriptions and
//! evolves to a rather formal representation by objects and relationships of well defined
//! sorts".
//!
//! The crate exists for two reasons:
//!
//! 1. It is the *example application* of the SEED reproduction — the workloads the paper's
//!    introduction motivates (see `examples/spades_tool.rs`).
//! 2. It carries the paper's only quantitative claim: "The first experiences with SPADES using
//!    SEED show that SPADES has become **considerably slower**, but much more flexible."  To
//!    reproduce that claim we provide the same tool API over two backends:
//!    * [`SeedBackend`] — the tool on top of the SEED DBMS (consistency checking, versions,
//!      vague data, patterns), and
//!    * [`DirectBackend`] — the pre-SEED way: plain in-memory structures, no checking, versions
//!      as full copies.
//!
//!    Row E1 of the evaluation report (`e1_spades_overhead` in `seed-bench`) drives both with
//!    the same [`workload`] and reports the slowdown factor.
//!
//! Since the network layer exists, the tool also runs in the paper's *deployed* two-level
//! shape: [`RemoteBackend`] is the same tool API over a `seed-net` [`seed_net::RemoteClient`],
//! talking checkout / check-in to a central server over TCP (see `examples/net_demo.rs`).

pub mod backend;
pub mod direct_backend;
pub mod error;
pub mod model;
pub mod remote_backend;
pub mod report;
pub mod seed_backend;
pub mod workload;

pub use backend::SpecBackend;
pub use direct_backend::DirectBackend;
pub use error::{SpadesError, SpadesResult};
pub use model::{ElementInfo, ElementKind, FlowKind};
pub use remote_backend::RemoteBackend;
pub use report::specification_report;
pub use seed_backend::SeedBackend;
pub use workload::{SpecOp, Workload, WorkloadConfig};
