//! Integration: WAL-shipping replication across the whole stack — a durable primary behind the
//! TCP frontend, two [`ReplicaNode`]s streaming its WAL, the SPADES tool reading through all
//! three nodes, and replica crash/restart mid-stream.  The wire contract behind this is
//! `docs/PROTOCOL.md`; the runbook is `docs/OPERATIONS.md`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use seed::core::Database;
use seed::net::{RemoteClient, ReplicaNode, SeedNetServer};
use seed::schema::figure3_schema;
use seed::server::{ReplicationRole, SeedServer, ServerError, Update};
use seed::spades::{specification_report, RemoteBackend, Workload, WorkloadConfig};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("seed-replication-it-{}-{name}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_primary(dir: &std::path::Path) -> SeedNetServer {
    let db = Database::create_durable(dir, figure3_schema()).unwrap();
    SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").unwrap()
}

fn primary_lsn(net: &SeedNetServer) -> u64 {
    net.core().with_database(|db| db.durable_lsn().unwrap())
}

/// The acceptance scenario: primary + 2 replicas over loopback; after a burst of check-ins,
/// both replicas answer the SPADES specification report byte-identically to the primary.
#[test]
fn spades_reports_are_byte_identical_across_primary_and_replicas() {
    let primary_dir = temp_dir("spades-primary");
    let replica_dirs = [temp_dir("spades-r1"), temp_dir("spades-r2")];
    let primary = durable_primary(&primary_dir);
    let addr = primary.local_addr();
    let replicas: Vec<ReplicaNode> = replica_dirs
        .iter()
        .map(|dir| ReplicaNode::start(dir, addr, "127.0.0.1:0").unwrap())
        .collect();

    // A burst of check-ins: the SPADES editing workload through the remote backend.
    let workload = Workload::generate(&WorkloadConfig {
        data_elements: 10,
        actions: 5,
        checkpoint_every: 1_000,
        ..WorkloadConfig::default()
    });
    let mut editor = RemoteBackend::new(RemoteClient::connect(addr).unwrap()).unwrap();
    assert_eq!(workload.apply(&mut editor), 0, "workload must apply cleanly");

    let target = primary_lsn(&primary);
    for replica in &replicas {
        assert!(replica.wait_for_lsn(target, Duration::from_secs(30)), "replica lagged out");
    }

    // Fresh read-side backends on all three nodes render the same bytes.
    let report_via = |addr| {
        let backend = RemoteBackend::new(RemoteClient::connect(addr).unwrap()).unwrap();
        specification_report(&backend)
    };
    let expected = report_via(addr);
    assert!(expected.contains("elements"), "report looks real: {expected}");
    for replica in &replicas {
        assert_eq!(report_via(replica.local_addr()), expected, "replica report diverged");
    }

    // Both sides surface replication in their persistence status.
    let mut primary_client = RemoteClient::connect(addr).unwrap();
    let status = primary_client.persistence().unwrap().replication;
    assert_eq!(status.role, ReplicationRole::Primary);
    assert_eq!(status.subscribers, 2);
    let mut replica_client = RemoteClient::connect(replicas[0].local_addr()).unwrap();
    let status = replica_client.persistence().unwrap().replication;
    assert_eq!(status.role, ReplicationRole::Replica);
    assert_eq!(status.lag(), 0);

    for replica in replicas {
        replica.shutdown();
    }
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    for dir in replica_dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill a replica mid-stream (while a writer keeps committing), restart it on the same
/// directory, and it resumes from its last durable LSN and converges — including across a
/// primary checkpoint that truncated the records it missed.
#[test]
fn replica_killed_mid_stream_restarts_and_converges() {
    let primary_dir = temp_dir("kill-primary");
    let replica_dir = temp_dir("kill-replica");
    let primary = durable_primary(&primary_dir);
    let addr = primary.local_addr();
    let mut writer = RemoteClient::connect(addr).unwrap();

    let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
    writer
        .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Round0".into() }])
        .unwrap();
    assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(30)));
    let cursor_at_kill = replica.applied_lsn();
    replica.shutdown(); // the "kill": the stream dies, the store keeps its durable cursor

    // The primary keeps committing while the replica is down, then checkpoints — the WAL
    // records the replica missed are truncated away.
    for round in 1..=5 {
        writer
            .checkin(vec![Update::CreateObject {
                class: "Data".into(),
                name: format!("Round{round}"),
            }])
            .unwrap();
    }
    writer.checkpoint().unwrap();

    // Restart on the same directory: resumes from the durable cursor, is forced through the
    // snapshot resync, and converges to the primary's keyed-scan state.
    let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
    assert!(replica.applied_lsn() >= cursor_at_kill, "the durable cursor survived the kill");
    assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(30)));
    let mut reader = RemoteClient::connect(replica.local_addr()).unwrap();
    for round in 0..=5 {
        let name = format!("Round{round}");
        assert_eq!(reader.retrieve(&name).unwrap().name.to_string(), name);
    }
    assert_eq!(reader.query("count Data").unwrap().count, 6);

    // And it keeps streaming after the resync.
    writer
        .checkin(vec![Update::CreateObject { class: "Data".into(), name: "PostResync".into() }])
        .unwrap();
    assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(30)));
    assert!(reader.retrieve("PostResync").is_ok());

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

/// A long shipped stream is applied incrementally: the replica patches its serving snapshot
/// in place, O(delta) items per batch, and never falls back to a wholesale reload.  This is
/// the E12/E14 lag mechanism — a batch that touches one object must not cost a full rebuild
/// of a database holding hundreds.
#[test]
fn long_streams_apply_incrementally_without_wholesale_reloads() {
    let primary_dir = temp_dir("incr-primary");
    let replica_dir = temp_dir("incr-replica");
    let primary = durable_primary(&primary_dir);
    let addr = primary.local_addr();
    let mut writer = RemoteClient::connect(addr).unwrap();

    // Bulk state first, so a rebuild would be visibly more expensive than a patch.
    let bulk: Vec<Update> = (0..200)
        .map(|i| Update::CreateObject { class: "Data".into(), name: format!("Bulk{i}") })
        .collect();
    writer.checkin(bulk).unwrap();

    let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
    assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(30)));
    let after_sync = replica.items_applied();

    // A long stream of small commits: one object each.
    const ROUNDS: u64 = 40;
    for round in 0..ROUNDS {
        writer
            .checkin(vec![Update::CreateObject {
                class: "Data".into(),
                name: format!("Stream{round}"),
            }])
            .unwrap();
    }
    assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(30)));

    assert_eq!(replica.resets_applied(), 0, "an uninterrupted stream never forces a reload");
    let streamed = replica.items_applied() - after_sync;
    // Each commit touches exactly one object; batching may coalesce commits but the total
    // item count is O(delta), nowhere near ROUNDS * 200 (what per-batch rebuilds would cost).
    assert!(
        streamed >= ROUNDS,
        "every shipped object must be applied (saw {streamed}, expected >= {ROUNDS})"
    );
    assert!(
        streamed <= ROUNDS * 4,
        "apply touched {streamed} items for {ROUNDS} one-object commits — not O(delta)"
    );

    // And the patched snapshot actually serves the streamed state.
    let mut reader = RemoteClient::connect(replica.local_addr()).unwrap();
    assert_eq!(reader.query("count Data").unwrap().count, 240);
    assert!(reader.retrieve("Stream39").is_ok());
    let status = reader.persistence().unwrap().replication;
    assert_eq!(status.snapshot_lsn, status.applied_lsn, "reads serve the applied cursor");

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

/// Version snapshots created on the primary are visible on replicas (the `vi/` and `v/` key
/// spaces ship like everything else), and a replica refuses to create its own.
#[test]
fn versions_replicate_and_replicas_refuse_to_mint_them() {
    let primary_dir = temp_dir("versions-primary");
    let replica_dir = temp_dir("versions-replica");
    let primary = durable_primary(&primary_dir);
    let addr = primary.local_addr();
    let mut writer = RemoteClient::connect(addr).unwrap();
    writer
        .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Versioned".into() }])
        .unwrap();
    writer.create_version("global snapshot").unwrap();

    let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
    assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(30)));
    let mut reader = RemoteClient::connect(replica.local_addr()).unwrap();
    assert_eq!(reader.persistence().unwrap().versions, 1, "the version shipped");
    assert!(matches!(
        reader.create_version("not allowed"),
        Err(ServerError::ReadOnlyReplica { .. })
    ));

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}
