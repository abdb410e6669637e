//! Fixture `F20k`: 20 000 `Data` objects, each with a `Text` dependent holding a `Selector`
//! dependent with a unique string value; 10 000 `Action`s, each with a `Description`; and one
//! `Access` relationship per `Data` (so 20 000).  About 100k items in one durable primary,
//! bulk-loaded in one transaction and then checkpointed.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

use seed_core::{Database, Value};
use seed_net::{ReplicaNode, SeedNetServer};
use seed_server::SeedServer;

pub const DATA: usize = 20_000;
pub const ACTIONS: usize = 10_000;

/// Auto-checkpoint threshold of the benchmark's primaries.  Small enough that a run's
/// check-in stream crosses it several times, so checkpoint stalls reach the tail latencies.
pub const CHECKPOINT_WAL_BYTES: u64 = 1024 * 1024;

pub fn data_name(i: usize) -> String {
    format!("Data{i:05}")
}

pub fn action_name(j: usize) -> String {
    format!("Action{j:05}")
}

/// The `Action` the fixture's `Access` relationship of `Data` `i` points at.
pub fn access_partner(i: usize) -> usize {
    i % ACTIONS
}

pub fn selector_name(i: usize) -> String {
    format!("{}.Text[0].Selector", data_name(i))
}

pub fn initial_value(i: usize) -> String {
    format!("sel-{i:05}")
}

/// Bulk-loads `F20k` into a new durable database in `dir` and checkpoints it.
pub fn build(dir: &Path) -> Database {
    let mut db = Database::create_durable_with(dir, seed_schema::figure3_schema(), engine_config())
        .expect("create durable primary");
    // The fixture is consistent by construction, so the bulk load skips per-mutation checking
    // (it costs ~5 s here); every workload request afterwards runs with checking on.
    db.set_consistency_checking(false);
    db.begin_transaction().expect("begin bulk load");
    let mut actions = Vec::with_capacity(ACTIONS);
    for j in 0..ACTIONS {
        let id = db.create_object("Action", &action_name(j)).expect("action");
        db.create_dependent(id, "Description", Value::string(format!("action {j}")))
            .expect("description");
        actions.push(id);
    }
    for i in 0..DATA {
        let id = db.create_object("Data", &data_name(i)).expect("data");
        let text = db.create_dependent(id, "Text", Value::Undefined).expect("text");
        db.create_dependent(text, "Selector", Value::string(initial_value(i))).expect("selector");
        db.create_relationship("Access", &[("from", id), ("by", actions[access_partner(i)])])
            .expect("access");
    }
    db.commit_transaction().expect("commit bulk load");
    db.checkpoint().expect("checkpoint bulk load");
    db.set_consistency_checking(true);
    let probe = db.object_by_name(&selector_name(7)).expect("selector naming");
    assert_eq!(probe.value, Value::string(initial_value(7)), "fixture selector values");
    db
}

/// A primary serving `db` on a loopback port.
pub fn serve(db: Database) -> SeedNetServer {
    SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind loopback primary")
}

/// Starts a replica of `primary` in `dir` and waits until it has applied the primary's
/// current snapshot.
pub fn attach_replica(dir: &Path, net: &SeedNetServer) -> ReplicaNode {
    let addr: SocketAddr = net.local_addr();
    let replica = ReplicaNode::start(dir, addr, "127.0.0.1:0").expect("start replica");
    let target = net.core().snapshot().lsn();
    assert!(replica.wait_for_lsn(target, Duration::from_secs(60)), "replica initial sync");
    replica
}

/// Engine settings of every durable primary the benchmark creates.
pub fn engine_config() -> seed_storage::EngineConfig {
    seed_storage::EngineConfig {
        checkpoint_wal_bytes: Some(CHECKPOINT_WAL_BYTES),
        ..seed_storage::EngineConfig::default()
    }
}
