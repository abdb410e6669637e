//! WAL-shipping replication over loopback: one durable primary, two read-only replicas.
//!
//! ```sh
//! cargo run --release --example replication_demo
//! ```
//!
//! The demo (1) starts a durable primary and two [`ReplicaNode`]s streaming its WAL, (2) runs
//! a burst of SPADES check-ins against the primary, (3) waits for both replicas to report the
//! primary's end of log and renders the SPADES specification report through each of the three
//! nodes — byte-identical, (4) shows a replica redirecting a checkout to the primary, and (5)
//! routes reads through the read-preferred client, which fans them across the replicas while
//! writes keep going to the primary.  `docs/OPERATIONS.md` is the runbook behind this.

use seed::core::Database;
use seed::net::{RemoteClient, ReplicaNode, SeedNetServer};
use seed::schema::figure3_schema;
use seed::server::{SeedServer, ServerError, Update};
use seed::spades::{specification_report, RemoteBackend, Workload, WorkloadConfig};

fn main() {
    println!("== seed replication demo: 1 primary + 2 replicas over TCP ==\n");
    let base = std::env::temp_dir().join(format!("seed-replication-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // 1. A durable primary (replication ships its storage WAL) and two replicas.
    let db = Database::create_durable(base.join("primary"), figure3_schema()).expect("primary db");
    let primary = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind primary");
    let addr = primary.local_addr();
    println!("primary listening on {addr} (durable store: {})", base.join("primary").display());
    let replicas: Vec<ReplicaNode> = (0..2)
        .map(|i| {
            let node = ReplicaNode::start(base.join(format!("replica{i}")), addr, "127.0.0.1:0")
                .expect("start replica");
            println!(
                "replica {i} caught up through LSN {} — serving reads on {}",
                node.applied_lsn(),
                node.local_addr()
            );
            node
        })
        .collect();

    // 2. A burst of SPADES check-ins against the primary.
    let workload = Workload::generate(&WorkloadConfig {
        data_elements: 12,
        actions: 6,
        checkpoint_every: 1_000, // versions are global snapshots; keep the burst to edits
        ..WorkloadConfig::default()
    });
    println!("\napplying a {}-operation SPADES workload to the primary...", workload.len());
    let mut editor =
        RemoteBackend::new(RemoteClient::connect(addr).expect("connect")).expect("schema");
    let rejected = workload.apply(&mut editor);
    println!("  done ({rejected} rejections)");

    // 3. Both replicas converge and answer the report byte-identically.
    let target = primary.core().with_database(|db| db.durable_lsn().expect("durable"));
    for (i, replica) in replicas.iter().enumerate() {
        assert!(
            replica.wait_for_lsn(target, std::time::Duration::from_secs(30)),
            "replica {i} did not catch up"
        );
    }
    println!("\nboth replicas report the primary's end of log (LSN {target});");
    let report_via = |addr| {
        let backend =
            RemoteBackend::new(RemoteClient::connect(addr).expect("connect")).expect("schema");
        specification_report(&backend)
    };
    let primary_report = report_via(addr);
    for (i, replica) in replicas.iter().enumerate() {
        let replica_report = report_via(replica.local_addr());
        assert_eq!(primary_report, replica_report, "replica {i} diverged from the primary");
        println!(
            "  replica {i}'s SPADES report is byte-identical ({} bytes)",
            replica_report.len()
        );
    }
    for line in primary_report.lines().take(4) {
        println!("    | {line}");
    }

    // 4. Writes on a replica are redirected to the primary.
    println!("\na client tries to check out on a replica:");
    let mut on_replica = RemoteClient::connect(replicas[0].local_addr()).expect("connect");
    match on_replica.checkout(&["Data000"]) {
        Err(ServerError::ReadOnlyReplica { primary }) => {
            println!("  refused: read-only replica, writes go to the primary at {primary}");
        }
        other => panic!("expected a redirect, got {other:?}"),
    }
    let status = on_replica.persistence().expect("status").replication;
    println!(
        "  replica status: applied LSN {} / primary LSN {} (lag {} records)",
        status.applied_lsn,
        status.primary_lsn,
        status.lag()
    );

    // 5. The read-preferred client: reads fan across the replicas, writes hit the primary.
    let replica_addrs: Vec<_> = replicas.iter().map(|r| r.local_addr()).collect();
    let mut client =
        RemoteClient::connect_read_preferred(addr, &replica_addrs).expect("read-preferred");
    client
        .checkin(vec![Update::CreateObject { class: "Data".into(), name: "WrittenOnce".into() }])
        .expect("write goes to the primary");
    let target = primary.core().with_database(|db| db.durable_lsn().expect("durable"));
    for replica in &replicas {
        replica.wait_for_lsn(target, std::time::Duration::from_secs(30));
    }
    for round in 0..4 {
        let record = client.retrieve("WrittenOnce").expect("read from a replica");
        assert_eq!(record.name.to_string(), "WrittenOnce");
        let _ = round;
    }
    println!("\nread-preferred client: 1 write via the primary, 4 reads served by the replicas");
    client.close().expect("close");

    for replica in replicas {
        replica.shutdown();
    }
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&base);
    println!("\nprimary and replicas shut down cleanly — demo complete");
}
