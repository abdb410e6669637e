//! Observability over the wire: the `Stats` and `Health` frames round-trip over loopback, the
//! per-kind request histograms count exactly what the client issued, and a mixed workload
//! (writes, queries, a checkpoint, a live replica) leaves nonzero, mutually consistent counters
//! in every instrumented layer — net, WAL, snapshot publication and replication.
//!
//! The registry is process-global, so everything that needs an exact count measures a *delta*
//! between two `Stats` snapshots inside one test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use seed::core::Database;
use seed::net::{RemoteClient, ReplicaNode, SeedNetServer};
use seed::schema::figure3_schema;
use seed::server::{ReplicationRole, SeedServer, Update};

/// The `repl_ack_lag` gauge is process-global, and the two replica tests below both write and
/// assert on it, so they take turns.
static ACK_LAG_GAUGE: Mutex<()> = Mutex::new(());

fn temp_dir(name: &str) -> std::path::PathBuf {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let n = DIRS.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("seed-obs-loopback-{}-{name}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn stats_and_health_round_trip_with_consistent_counters_after_a_mixed_workload() {
    if !seed::obs::recording_compiled_in() {
        return; // compiled with seed-obs/off: there is nothing to count
    }
    let _gauge = ACK_LAG_GAUGE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let primary_dir = temp_dir("primary");
    let replica_dir = temp_dir("replica");
    let db = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
    let primary = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").unwrap();
    let addr = primary.local_addr();

    // Mixed workload: durable writes (WAL appends + fsyncs + snapshot publishes), queries,
    // a checkpoint, and a replica applying the shipped batches.
    let mut client = RemoteClient::connect(addr).unwrap();
    client
        .checkin(vec![
            Update::CreateObject { class: "Data".into(), name: "Alarms".into() },
            Update::CreateObject { class: "Action".into(), name: "Sensor".into() },
        ])
        .unwrap();
    let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
    client
        .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Later".into() }])
        .unwrap();
    client.query("count Data").unwrap();
    client.checkpoint().unwrap();
    let target = primary.core().with_database(|db| db.durable_lsn().unwrap());
    assert!(replica.wait_for_lsn(target, Duration::from_secs(10)), "replica lagged out");

    // Exact per-kind latency counts: N retrieves move net_request_us_retrieve by exactly N.
    let before = client.stats().unwrap();
    const BURST: u64 = 17;
    for _ in 0..BURST {
        client.retrieve("Alarms").unwrap();
    }
    let after = client.stats().unwrap();
    let count = |s: &seed::obs::RegistrySnapshot| {
        s.histogram("net_request_us_retrieve").map_or(0, |h| h.count)
    };
    assert_eq!(
        count(&after) - count(&before),
        BURST,
        "request-latency observations must equal requests issued"
    );

    // Every instrumented layer left a nonzero footprint.
    let stats = after;
    for counter in ["net_bytes_in_total", "net_bytes_out_total", "net_connections_total"] {
        assert!(stats.counter(counter).unwrap_or(0) > 0, "{counter} must be nonzero");
    }
    for histogram in ["wal_append_us", "wal_fsync_us", "snapshot_publish_us"] {
        let h = stats.histogram(histogram).unwrap_or_else(|| panic!("{histogram} missing"));
        assert!(h.count > 0, "{histogram} must have observations");
        assert!(h.p50() <= h.p99(), "{histogram}: percentiles must be monotone");
    }
    assert!(stats.counter("wal_checkpoints_total").unwrap_or(0) > 0);
    // Replication: the primary shipped batches, the in-process replica applied them, and its
    // ack-lag gauge settled at zero once caught up.
    assert!(stats.counter("repl_batches_shipped_total").unwrap_or(0) > 0);
    assert!(stats.counter("repl_batches_applied_total").unwrap_or(0) > 0);
    assert_eq!(stats.gauge("repl_ack_lag"), Some(0), "caught-up replica reports zero lag");

    // Health: the primary is live and ready (its WAL is writable)...
    let health = client.health().unwrap();
    assert!(health.ready, "durable primary must be ready: {}", health.detail);
    assert_eq!(health.role, ReplicationRole::Primary);
    // ...and the replica reports readiness against its lag budget.
    let mut replica_client = RemoteClient::connect(replica.local_addr()).unwrap();
    let replica_health = replica_client.health().unwrap();
    assert!(replica_health.ready, "caught-up replica must be ready: {}", replica_health.detail);
    assert_eq!(replica_health.role, ReplicationRole::Replica);
    assert!(replica_health.lag <= replica_health.lag_budget);

    // The same registry renders as Prometheus text exposition.
    let text = primary.metrics_text();
    assert!(text.contains("# TYPE net_bytes_in_total counter"), "missing TYPE line:\n{text}");
    assert!(text.contains("wal_append_us_bucket{le=\"+Inf\"}"), "missing histogram bucket");
    assert!(text.contains("net_connections "), "missing gauge sample");

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn failover_flips_health_and_resets_the_ack_lag_gauge() {
    if !seed::obs::recording_compiled_in() {
        return; // compiled with seed-obs/off: gauges and health detail are not recorded
    }
    let _gauge = ACK_LAG_GAUGE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let primary_dir = temp_dir("fo-primary");
    let replica_dir = temp_dir("fo-replica");
    let db = Database::create_durable(&primary_dir, figure3_schema()).unwrap();
    let primary = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").unwrap();
    let old_addr = primary.local_addr();
    let replica = ReplicaNode::start(&replica_dir, old_addr, "127.0.0.1:0").unwrap();
    let new_addr = replica.local_addr();

    let mut client = RemoteClient::connect(old_addr).unwrap();
    client
        .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Alarms".into() }])
        .unwrap();
    let target = primary.core().with_database(|db| db.durable_lsn().unwrap());
    assert!(replica.wait_for_lsn(target, Duration::from_secs(10)), "replica lagged out");

    // Before the failover both nodes are ready in their respective roles.
    let mut replica_client = RemoteClient::connect(new_addr).unwrap();
    assert!(client.health().unwrap().ready);
    assert!(replica_client.health().unwrap().ready);

    // The gauge is registered by name (names are the identity), so this writes to the very
    // gauge the replication layer owns.  A caught-up replica already reports 0; planting a
    // stale value is the deterministic way to observe the promotion path's explicit reset.
    seed::obs::global().gauge("repl_ack_lag").set(7);

    let receipt = replica_client.promote(1, &new_addr.to_string()).unwrap();
    assert_eq!(receipt.epoch, 1);

    // Promotion resets the ack-lag gauge: the node no longer trails anyone.
    assert_eq!(
        seed::obs::global().snapshot().gauge("repl_ack_lag"),
        Some(0),
        "promotion must reset repl_ack_lag"
    );

    // Health flips: the fenced old primary answers (liveness) but is no longer ready, and its
    // detail names the fencing epoch; the promoted node reports a ready primary.
    let fenced = client.health().unwrap();
    assert!(!fenced.ready, "a fenced node must not report ready: {}", fenced.detail);
    assert!(fenced.detail.contains("fenced at epoch 1"), "detail: {}", fenced.detail);
    let promoted = replica_client.health().unwrap();
    assert!(promoted.ready, "the promoted node must be ready: {}", promoted.detail);
    assert_eq!(promoted.role, ReplicationRole::Primary);
    assert_eq!(promoted.lag, 0, "a primary never lags itself");

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn slow_operations_land_in_the_event_ring_with_query_text() {
    if !seed::obs::recording_compiled_in() {
        return;
    }
    let registry = seed::obs::global();
    let mut db = Database::new(figure3_schema());
    db.create_object("Data", "Alarms").unwrap();
    let server = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").unwrap();
    let mut client = RemoteClient::connect(server.local_addr()).unwrap();

    // With a zero threshold every operation is "slow": the next query must be recorded with
    // its kind and text.  The default is restored before asserting so a parallel test is only
    // briefly affected (slow-op counts are never exact-matched across tests).
    let previous = registry.slow_op_threshold();
    registry.set_slow_op_threshold(Duration::ZERO);
    let slow_before = registry.snapshot().counter("slow_ops_total").unwrap_or(0);
    client.query(r#"find Data where name prefix "Alarm""#).unwrap();
    registry.set_slow_op_threshold(previous);

    let slow_after = registry.snapshot().counter("slow_ops_total").unwrap_or(0);
    assert!(slow_after > slow_before, "the query must have been counted as a slow op");
    let events = registry.events().recent();
    let slowop = events
        .iter()
        .rev()
        .find(|e| e.target == "slowop" && e.fields.iter().any(|(k, v)| k == "kind" && v == "query"))
        .expect("a slowop event for the query must be in the ring");
    assert!(
        slowop.fields.iter().any(|(k, v)| k == "text" && v.contains("Alarm")),
        "the slow-op event must carry the query text: {slowop:?}"
    );
    server.shutdown();
}
