//! Integration tests of the two-level multi-user extension (`seed-server`) against a populated
//! SEED database, including concurrent client sessions on threads, in process and over TCP.

use seed_core::{Database, Value};
use seed_net::{Client, ClientSession, InProcess, RemoteClient, SeedNetServer, Transport};
use seed_server::{SeedServer, ServerError, Update};
use spades::{SeedBackend, Workload, WorkloadConfig};

fn populated_database() -> Database {
    let mut backend = SeedBackend::new();
    let workload = Workload::generate(&WorkloadConfig {
        data_elements: 20,
        actions: 10,
        checkpoint_every: 0,
        ..WorkloadConfig::default()
    });
    assert_eq!(workload.apply(&mut backend), 0);
    backend.into_database()
}

#[test]
fn checkout_checkin_cycle_against_populated_database() {
    let db = populated_database();
    let objects_before = db.object_count();
    let server = SeedServer::new(db);
    let alice = server.connect();
    let bob = server.connect();

    // Alice takes Data000 for update; Bob cannot, but can read it and take Data001.
    let set = server.checkout(alice, &["Data000"]).unwrap();
    assert!(!set.is_empty());
    assert!(matches!(server.checkout(bob, &["Data000"]), Err(ServerError::Locked { .. })));
    assert!(server.retrieve("Data000").is_ok());
    server.checkout(bob, &["Data001"]).unwrap();

    // Alice's check-in is one transaction: her description change and a new object land together.
    server
        .checkin(
            alice,
            &[
                Update::CreateObject { class: "Action".into(), name: "Archiver".into() },
                Update::CreateRelationship {
                    association: "Access".into(),
                    bindings: vec![
                        ("from".into(), "Data000".into()),
                        ("by".into(), "Archiver".into()),
                    ],
                },
            ],
        )
        .unwrap();
    server.with_database(|db| {
        assert_eq!(db.object_count(), objects_before + 1);
        assert!(db.object_by_name("Archiver").is_ok());
    });
    // Alice's locks are gone; Bob's remain until he finishes.
    assert!(server.checkout(alice, &["Data001"]).is_err());
    server.release(bob);
    assert!(server.checkout(alice, &["Data001"]).is_ok());

    // Global version control stays with the server.
    let version = server.create_version("after integration").unwrap();
    server.with_database(|db| assert!(db.version_info(&version).is_ok()));
}

/// Six sessions, one per thread, each connected by `connect`, build disjoint subsystems; the
/// central `server` then holds all of them.
fn build_disjoint_subsystems<T: Transport>(
    server: &SeedServer,
    connect: impl Fn() -> Client<T> + Sync,
) {
    std::thread::scope(|s| {
        for worker in 0..6u32 {
            let connect = &connect;
            s.spawn(move || {
                let mut session = ClientSession::new(connect());
                // Each worker adds its own subsystem: an action plus data it writes.
                let action = format!("Subsystem{worker}Control");
                let data = format!("Subsystem{worker}State");
                session.create_object("Action", &action);
                session.create_object("OutputData", &data);
                session.create_relationship("Write", &[("to", &data), ("by", &action)]);
                session.commit().unwrap();

                // Then each worker updates its own data element under a lock.
                session.checkout(&[data.as_str()]).unwrap();
                session.create_dependent(&data, "Text", Value::Undefined).unwrap();
                session.commit().unwrap();
            });
        }
    });

    for worker in 0..6u32 {
        let data = server.retrieve(&format!("Subsystem{worker}State")).unwrap();
        assert!(!data.deleted);
        server.retrieve(&format!("Subsystem{worker}Control")).unwrap();
    }
}

#[test]
fn concurrent_sessions_build_disjoint_subsystems() {
    let server = SeedServer::new(populated_database());
    build_disjoint_subsystems(&server, || Client::new(InProcess::new(&server)));
}

#[test]
fn concurrent_sessions_build_disjoint_subsystems_over_tcp() {
    let net = SeedNetServer::bind(SeedServer::new(populated_database()), "127.0.0.1:0").unwrap();
    let addr = net.local_addr();
    build_disjoint_subsystems(&net.core(), || RemoteClient::connect(addr).unwrap());
    net.shutdown();
}

#[test]
fn rejected_checkin_leaves_central_database_untouched() {
    let server = SeedServer::new(populated_database());
    let client = server.connect();
    let before = server.with_database(|db| db.object_count());
    server.checkout(client, &["Action000"]).unwrap();
    let result = server.checkin(
        client,
        &[
            Update::CreateObject { class: "OutputData".into(), name: "Fresh".into() },
            // Invalid: Action000 cannot become Data (unrelated branches are fine, but an Action
            // with Contained relationships cannot change families) — more simply, a bogus class.
            Update::Reclassify { object: "Action000".into(), new_class: "Data.Text".into() },
        ],
    );
    assert!(result.is_err());
    server.with_database(|db| {
        assert_eq!(db.object_count(), before, "single-transaction check-in rolled back completely");
        assert!(db.object_by_name("Fresh").is_err());
    });
}
