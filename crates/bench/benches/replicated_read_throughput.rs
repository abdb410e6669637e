//! E12 — WAL-shipping replication: remote read throughput over loopback through the
//! read-preferred client, with 0 (primary alone), 1 and 2 read replicas.
//!
//! Each iteration runs a fixed batch of `retrieve` round-trips spread across a fixed client
//! fleet; the interesting number is how the per-iteration time shrinks as replicas are added —
//! every replica serves reads from its own database behind its own read–write lock, so the
//! topology adds capacity instead of queueing on one node.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seed_core::Database;
use seed_net::{RemoteClient, ReplicaNode, SeedNetServer};
use seed_schema::figure3_schema;
use seed_server::SeedServer;

const OBJECTS: usize = 500;
const CLIENTS: usize = 4;
const OPS_PER_ITER: usize = 400;

fn replicated_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("E12_replicated_reads");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for replicas in [0usize, 1, 2] {
        group.bench_with_input(BenchmarkId::from_parameter(replicas), &replicas, |b, &replicas| {
            static DIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = DIRS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let base =
                std::env::temp_dir().join(format!("seed-bench-e12c-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&base);
            let mut db =
                Database::create_durable(base.join("primary"), figure3_schema()).expect("primary");
            db.begin_transaction().expect("txn");
            for i in 0..OBJECTS {
                db.create_object("Data", &format!("Data{i:05}")).expect("create");
            }
            db.commit_transaction().expect("commit");
            let server = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind");
            let addr = server.local_addr();
            let target = server.core().with_database(|db| db.durable_lsn().unwrap_or(0));
            let nodes: Vec<ReplicaNode> = (0..replicas)
                .map(|i| {
                    let node = ReplicaNode::start(base.join(format!("r{i}")), addr, "127.0.0.1:0")
                        .expect("replica");
                    assert!(node.wait_for_lsn(target, std::time::Duration::from_secs(30)));
                    node
                })
                .collect();
            let replica_addrs: Vec<_> = nodes.iter().map(|n| n.local_addr()).collect();
            b.iter(|| {
                let ops_each = OPS_PER_ITER / CLIENTS;
                let workers: Vec<_> = (0..CLIENTS)
                    .map(|w| {
                        let replica_addrs = replica_addrs.clone();
                        std::thread::spawn(move || {
                            let mut client =
                                RemoteClient::connect_read_preferred(addr, &replica_addrs)
                                    .expect("connect");
                            for i in 0..ops_each {
                                let name = format!("Data{:05}", (w * 131 + i) % OBJECTS);
                                client.retrieve(&name).expect("retrieve");
                            }
                            ops_each
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("worker")).sum::<usize>()
            });
            for node in nodes {
                node.shutdown();
            }
            server.shutdown();
            let _ = std::fs::remove_dir_all(&base);
        });
    }
    group.finish();
}

criterion_group!(benches, replicated_reads);
criterion_main!(benches);
