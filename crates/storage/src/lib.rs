//! # seed-storage
//!
//! Storage substrate for the SEED DBMS reproduction (Glinz & Ludewig, ICDE 1986).
//!
//! The 1986 SEED prototype was "implemented in a straightforward manner, deriving the
//! implementation concepts from the model".  This crate follows suit: it does the I/O and holds
//! no copy of the data (the in-memory database in `seed-core` is the one resident copy), and
//! the disk holds exactly one format —
//!
//! * [`wal`] — a segmented write-ahead log of CRC-protected frames, one frame per commit, with
//!   whole-segment checkpoint pruning, replication retention, and redo recovery from the
//!   commits its open walk reads,
//! * one snapshot image of the whole key space, rewritten atomically on every checkpoint: a
//!   small header and then the log's own commit frames, walked by the log's own walker,
//!
//! both reached through one door, the [`SegmentIo`] trait.  [`engine`] ties them together as a
//! small key/value engine; [`codec`] holds the binary primitives and the CRC.
//!
//! The engine exposes exactly what `seed-core` needs: a durable one-call commit of a batch of
//! byte-key effects, logged as one WAL record (the caller owns the open transaction; the
//! engine holds none),
//! checkpoints of a caller-encoded [`SnapshotImage`], recovery that hands the recovered
//! key space back once at open, and the replica reset cut read from the same files.
//! Higher-level notions (objects, relationships, versions, patterns) live in `seed-core`.

pub mod codec;
pub mod engine;
pub mod error;
pub mod wal;

pub use codec::{Decoder, Encoder};
pub use engine::{EngineConfig, ImageWriter, Recovered, SnapshotImage, StorageEngine};
pub use error::{StorageError, StorageResult};
pub use wal::{
    Commit, FileSegmentIo, KeyEffect, Lsn, MemorySegmentIo, SegmentId, SegmentIo, WalConfig,
    WalTail, WriteAheadLog,
};
