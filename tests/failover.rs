//! Integration: replica promotion and failover, driven by a deterministic in-process cluster
//! harness — a durable primary and two [`ReplicaNode`]s over loopback, scripted through
//! kill / fence / promote / re-point / rejoin sequences.  The invariants pinned here:
//!
//! - **No committed write is ever lost** across a failover: every check-in acknowledged to a
//!   client before the fault is readable on the promoted primary afterwards.
//! - **Exactly one ready primary per topology epoch**: the fence is a compare-and-swap on the
//!   epoch, so racing promotions elect one winner and the loser stays a replica.
//! - **SPADES reports are byte-identical across the failover**: the promoted node, a
//!   re-pointed replica and the rejoined old primary all render the same specification report.
//! - **One log across the cluster**: every node numbers the same commits alike, so a caught-up
//!   replica re-pointed at the promoted node and the fenced old primary rejoining as a replica
//!   both resume from their own logs, with no reset.
//!
//! The fencing semantics and the operator's runbook are `docs/OPERATIONS.md` §7; the wire
//! frames (`Promote`, `Promoted`, the `Fenced` error) are `docs/PROTOCOL.md`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use seed::core::Database;
use seed::net::{RemoteClient, ReplicaNode, SeedNetServer};
use seed::schema::figure3_schema;
use seed::server::{ReplicationRole, SeedServer, ServerError, Update};
use seed::spades::{specification_report, RemoteBackend};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("seed-failover-it-{}-{name}-{n}", std::process::id()));
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

fn node_lsn(node: &ReplicaNode) -> u64 {
    node.core().with_database(|db| db.durable_lsn().unwrap_or(0))
}

fn create(name: impl Into<String>) -> Vec<Update> {
    vec![Update::CreateObject { class: "Data".into(), name: name.into() }]
}

fn report_via(addr: std::net::SocketAddr) -> String {
    let backend = RemoteBackend::new(RemoteClient::connect(addr).unwrap()).unwrap();
    specification_report(&backend)
}

/// How many of the given endpoints currently report themselves a **ready primary**.
fn ready_primaries(addrs: &[std::net::SocketAddr]) -> usize {
    addrs
        .iter()
        .filter(|addr| {
            let Ok(mut probe) = RemoteClient::connect(**addr) else { return false };
            let Ok(health) = probe.health() else { return false };
            health.ready && health.role == ReplicationRole::Primary
        })
        .count()
}

/// The headline scenario: a controlled switchover.  The old primary stays up and is fenced;
/// the promoted replica drains the shipped tail first, so **zero** committed writes are lost;
/// the second replica is re-pointed at the new primary and the old primary rejoins as a
/// replica, both without a reset; and the SPADES specification report is byte-identical on all
/// three nodes afterwards.
#[test]
fn controlled_promotion_fences_the_old_primary_and_loses_no_committed_write() {
    let primary_dir = temp_dir("ctl-primary");
    let r1_dir = temp_dir("ctl-r1");
    let r2_dir = temp_dir("ctl-r2");
    let primary = durable_primary(&primary_dir);
    let old_addr = primary.local_addr();
    let r1 = ReplicaNode::start(&r1_dir, old_addr, "127.0.0.1:0").unwrap();
    let r2 = ReplicaNode::start(&r2_dir, old_addr, "127.0.0.1:0").unwrap();
    let new_addr = r1.local_addr();

    // Committed writes: every one of these check-ins was acknowledged to the client.
    let mut writer = RemoteClient::connect(old_addr).unwrap();
    for i in 0..20 {
        writer.checkin(create(format!("Committed{i}"))).unwrap();
    }
    let target = primary_lsn(&primary);
    assert!(r1.wait_for_lsn(target, Duration::from_secs(30)));

    // Promote r1 over the wire (r2 is deliberately lagging-agnostic: it gets re-pointed
    // later).  The promotion fences the old primary and drains the tail before flipping.
    let mut operator = RemoteClient::connect(new_addr).unwrap();
    let receipt = operator.promote(1, &new_addr.to_string()).unwrap();
    assert_eq!(receipt.epoch, 1);
    assert!(
        receipt.last_lsn > 0,
        "the receipt reports the promoted node's durable end of log (the one LSN space the \
         whole cluster shares)"
    );

    // The old primary is fenced: every write surface refuses with the new primary's address,
    // and its health flips not-ready while still answering (liveness without write service).
    match writer.checkin(create("LostCause")).unwrap_err() {
        ServerError::Fenced { new_primary, epoch } => {
            assert_eq!(new_primary, new_addr.to_string());
            assert_eq!(epoch, 1);
        }
        other => panic!("expected Fenced from the old primary, got {other:?}"),
    }
    let health = writer.health().unwrap();
    assert!(!health.ready, "a fenced node must not report ready");
    assert!(health.detail.contains("fenced at epoch 1"), "detail: {}", health.detail);

    // Exactly one ready primary in the cluster.
    assert_eq!(ready_primaries(&[old_addr, new_addr, r2.local_addr()]), 1);

    // Every committed write survived, and the new primary accepts new ones.
    let mut new_writer = RemoteClient::connect(new_addr).unwrap();
    for i in 0..20 {
        let name = format!("Committed{i}");
        assert_eq!(new_writer.retrieve(&name).unwrap().name.to_string(), name);
    }
    new_writer.checkin(create("AfterFailover")).unwrap();

    // A client still pointed at the fenced primary re-routes itself off the Fenced rejection
    // and replays the write against the promoted node — no application involvement.
    let mut fanout =
        RemoteClient::connect_read_preferred(old_addr, &[] as &[std::net::SocketAddr]).unwrap();
    fanout.checkin(create("ViaReroute")).unwrap();
    assert_eq!(fanout.primary_addr(), new_addr, "the client adopted the promoted node");
    assert_eq!(fanout.retrieve("ViaReroute").unwrap().name.to_string(), "ViaReroute");
    fanout.close().unwrap();

    // Re-point r2 at the new primary: its log is a prefix of the promoted node's (the same
    // commits at the same LSNs, all before the promotion), so it streams on from its own end.
    r2.shutdown();
    let r2 = ReplicaNode::start(&r2_dir, new_addr, "127.0.0.1:0").unwrap();
    assert!(r2.wait_for_lsn(node_lsn(&r1), Duration::from_secs(30)));
    assert_eq!(r2.resets_applied(), 0, "a re-pointed replica continues its own log");

    // The old primary rejoins as a replica on its own directory: its log ends with the fence
    // commit, which the promoted node drained, so it streams on as well.
    primary.shutdown();
    let rejoined = ReplicaNode::start(&primary_dir, new_addr, "127.0.0.1:0").unwrap();
    assert!(rejoined.wait_for_lsn(node_lsn(&r1), Duration::from_secs(30)));
    assert_eq!(rejoined.resets_applied(), 0, "a fenced old primary continues its own log");
    let mut rejoined_reader = RemoteClient::connect(rejoined.local_addr()).unwrap();
    match rejoined_reader.checkin(create("StillNotHere")).unwrap_err() {
        ServerError::ReadOnlyReplica { primary } => assert_eq!(primary, new_addr.to_string()),
        other => panic!("expected the rejoined node to redirect writes, got {other:?}"),
    }

    // SPADES reports are byte-identical across the whole post-failover cluster.
    let expected = report_via(new_addr);
    assert!(expected.contains("elements"), "report looks real: {expected}");
    assert_eq!(report_via(r2.local_addr()), expected, "re-pointed replica diverged");
    assert_eq!(report_via(rejoined.local_addr()), expected, "rejoined old primary diverged");

    // Still exactly one ready primary after the full topology change.
    assert_eq!(
        ready_primaries(&[new_addr, r2.local_addr(), rejoined.local_addr()]),
        1,
        "one epoch, one primary"
    );

    r2.shutdown();
    rejoined.shutdown();
    r1.shutdown();
    for dir in [&primary_dir, &r1_dir, &r2_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The crash scenario: the primary dies outright.  A caught-up replica is promoted (the fence
/// is skipped — a dead node cannot be fenced), every write acknowledged **before** the kill
/// survives, and a [`seed::net::ReadPreferredClient`] connected before the fault re-routes its
/// reads and writes to the promoted node without application involvement.
#[test]
fn killing_the_primary_then_promoting_a_replica_keeps_every_acked_write() {
    let primary_dir = temp_dir("kill-primary");
    let r1_dir = temp_dir("kill-r1");
    let r2_dir = temp_dir("kill-r2");
    let primary = durable_primary(&primary_dir);
    let old_addr = primary.local_addr();
    let r1 = ReplicaNode::start(&r1_dir, old_addr, "127.0.0.1:0").unwrap();
    let r2 = ReplicaNode::start(&r2_dir, old_addr, "127.0.0.1:0").unwrap();
    let new_addr = r1.local_addr();

    let mut writer = RemoteClient::connect(old_addr).unwrap();
    for i in 0..10 {
        writer.checkin(create(format!("Acked{i}"))).unwrap();
    }
    // The shipped tail covers every acknowledged write before the fault hits.
    let target = primary_lsn(&primary);
    assert!(r1.wait_for_lsn(target, Duration::from_secs(30)));

    // A topology-aware client, connected while the old primary was still alive.  Its read
    // rotation only holds r1 so the post-failover reads are deterministic (r2 stays pointed at
    // the dead node until the operator re-points it).
    let mut fanout = RemoteClient::connect_read_preferred(old_addr, &[new_addr]).unwrap();
    assert_eq!(fanout.retrieve("Acked0").unwrap().name.to_string(), "Acked0");

    // Kill.  No fence is possible; promotion proceeds on the shipped tail alone.
    primary.shutdown();
    let receipt = r1.promote(1, &new_addr.to_string()).unwrap();
    assert_eq!(receipt.epoch, 1);

    // Every write acknowledged before the kill is on the new primary.
    let mut reader = RemoteClient::connect(new_addr).unwrap();
    for i in 0..10 {
        let name = format!("Acked{i}");
        assert_eq!(reader.retrieve(&name).unwrap().name.to_string(), name);
    }

    // The fanout client's write connection is dead; the next write sweeps the known endpoints
    // with health probes, adopts the promoted node, and replays.  Reads replay the same way.
    fanout.checkin(create("PostKill")).unwrap();
    assert_eq!(fanout.primary_addr(), new_addr);
    assert_eq!(fanout.retrieve("PostKill").unwrap().name.to_string(), "PostKill");
    assert_eq!(fanout.query("count Data").unwrap().count, 11);
    fanout.close().unwrap();

    // Re-pointing the surviving replica converges it on the new stream from its own log, with
    // no reset, and the reports agree byte-for-byte.
    r2.shutdown();
    let r2 = ReplicaNode::start(&r2_dir, new_addr, "127.0.0.1:0").unwrap();
    assert!(r2.wait_for_lsn(node_lsn(&r1), Duration::from_secs(30)));
    assert_eq!(r2.resets_applied(), 0, "a re-pointed replica continues its own log");
    assert_eq!(report_via(r2.local_addr()), report_via(new_addr));
    assert_eq!(ready_primaries(&[new_addr, r2.local_addr()]), 1);

    r2.shutdown();
    r1.shutdown();
    for dir in [&primary_dir, &r1_dir, &r2_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A promotion that arrives with a stale epoch is refused outright — fencing is a
/// compare-and-swap, not a blind overwrite — and a second promotion under a **higher** epoch
/// supersedes the first (the promote-over-promote chain an operator uses to move the primary
/// role again).
#[test]
fn stale_epochs_are_refused_and_higher_epochs_supersede() {
    let primary_dir = temp_dir("epoch-primary");
    let r1_dir = temp_dir("epoch-r1");
    let primary = durable_primary(&primary_dir);
    let old_addr = primary.local_addr();
    let r1 = ReplicaNode::start(&r1_dir, old_addr, "127.0.0.1:0").unwrap();
    let mut writer = RemoteClient::connect(old_addr).unwrap();
    writer.checkin(create("Seeded")).unwrap();
    assert!(r1.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(30)));

    // Epoch 0 is never a valid promotion epoch (the cluster starts there).
    match r1.promote(0, &r1.local_addr().to_string()).unwrap_err() {
        ServerError::Protocol(message) => assert!(message.contains("stale promotion epoch")),
        other => panic!("expected a stale-epoch refusal, got {other:?}"),
    }

    // Epoch 2 promotes r1; re-sending any epoch <= 2 to the fenced primary is refused with
    // the winner's address.
    r1.promote(2, &r1.local_addr().to_string()).unwrap();
    match writer.promote(2, "127.0.0.1:1").unwrap_err() {
        ServerError::Fenced { new_primary, epoch } => {
            assert_eq!(new_primary, r1.local_addr().to_string());
            assert_eq!(epoch, 2);
        }
        other => panic!("expected the fenced primary to name the winner, got {other:?}"),
    }

    // A higher epoch supersedes: fencing the *promoted* node works the same way, because a
    // promoted replica is a primary like any other.
    let mut new_client = RemoteClient::connect(r1.local_addr()).unwrap();
    let receipt = new_client.promote(3, "127.0.0.1:2").unwrap();
    assert_eq!(receipt.epoch, 3);
    match new_client.checkin(create("TooLate")).unwrap_err() {
        ServerError::Fenced { epoch, .. } => assert_eq!(epoch, 3),
        other => panic!("expected the superseded primary to be fenced, got {other:?}"),
    }

    r1.shutdown();
    primary.shutdown();
    for dir in [&primary_dir, &r1_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The promotion race: two operators send concurrent `Promote` requests for the **same**
    /// epoch to two different replicas.  The old primary's epoch compare-and-swap arbitrates:
    /// exactly one wins, the loser is refused and stays a replica, and the cluster ends with
    /// exactly one ready primary.  The refusal takes one of two shapes depending on how the
    /// race interleaves: a `Fenced` rejection naming the winner (the loser's fence attempt
    /// lost the CAS), or a stale-epoch `Protocol` rejection (the winner's fence record
    /// replicated into the loser *before* its own order ran, so the loser already knew the
    /// epoch was taken).
    #[test]
    fn racing_promotions_elect_exactly_one_winner(stagger_micros in 0u64..5_000) {
        let primary_dir = temp_dir("race-primary");
        let r1_dir = temp_dir("race-r1");
        let r2_dir = temp_dir("race-r2");
        let primary = durable_primary(&primary_dir);
        let old_addr = primary.local_addr();
        let r1 = ReplicaNode::start(&r1_dir, old_addr, "127.0.0.1:0").unwrap();
        let r2 = ReplicaNode::start(&r2_dir, old_addr, "127.0.0.1:0").unwrap();
        let mut writer = RemoteClient::connect(old_addr).unwrap();
        for i in 0..5 {
            writer.checkin(create(format!("Raced{i}"))).unwrap();
        }
        let target = primary_lsn(&primary);
        prop_assert!(r1.wait_for_lsn(target, Duration::from_secs(30)));
        prop_assert!(r2.wait_for_lsn(target, Duration::from_secs(30)));

        // Two concurrent promotions for epoch 1, staggered by a generated delay.
        let addr1 = r1.local_addr();
        let addr2 = r2.local_addr();
        let t1 = std::thread::spawn(move || {
            RemoteClient::connect(addr1)
                .and_then(|mut operator| operator.promote(1, &addr1.to_string()))
        });
        let t2 = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(stagger_micros));
            RemoteClient::connect(addr2)
                .and_then(|mut operator| operator.promote(1, &addr2.to_string()))
        });
        let outcomes = [t1.join().unwrap(), t2.join().unwrap()];
        let winners = outcomes.iter().filter(|o| o.is_ok()).count();
        prop_assert!(winners == 1, "exactly one promotion wins: {:?}", outcomes);

        // The loser was refused — either told who won, or told the epoch was already taken
        // (the winner's fence record can replicate into the loser before its order runs) —
        // and is still a replica.
        let (winner_addr, loser_addr) =
            if outcomes[0].is_ok() { (addr1, addr2) } else { (addr2, addr1) };
        match outcomes.iter().find(|o| o.is_err()).unwrap() {
            Err(ServerError::Fenced { new_primary, epoch }) => {
                prop_assert_eq!(new_primary, &winner_addr.to_string());
                prop_assert_eq!(*epoch, 1);
            }
            Err(ServerError::Protocol(message)) => {
                prop_assert!(
                    message.contains("stale promotion epoch"),
                    "unexpected Protocol refusal: {}",
                    message
                );
            }
            other => prop_assert!(false, "expected the loser to be refused, got {:?}", other),
        }

        // One ready primary; the loser still answers reads as a replica; no write was lost.
        prop_assert_eq!(ready_primaries(&[old_addr, addr1, addr2]), 1);
        let mut winner = RemoteClient::connect(winner_addr).unwrap();
        for i in 0..5 {
            let name = format!("Raced{i}");
            prop_assert_eq!(winner.retrieve(&name).unwrap().name.to_string(), name);
        }
        winner.checkin(create("WonTheRace")).unwrap();
        let mut loser = RemoteClient::connect(loser_addr).unwrap();
        prop_assert_eq!(loser.health().unwrap().role, ReplicationRole::Replica);
        prop_assert!(matches!(
            loser.checkin(create("LostTheRace")),
            Err(ServerError::ReadOnlyReplica { .. })
        ));

        r1.shutdown();
        r2.shutdown();
        primary.shutdown();
        for dir in [&primary_dir, &r1_dir, &r2_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
