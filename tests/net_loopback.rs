//! Integration tests of the network layer: real TCP connections on loopback, exercising the
//! acceptance criteria of the `seed-net` subsystem across crates.
//!
//! * the SPADES workload produces byte-identical results through [`RemoteClient`] and the
//!   in-process backend;
//! * two remote clients racing for the same object: exactly one checkout wins and the loser is
//!   told the holder's id;
//! * reads during concurrent check-ins are never torn: one request sees the database either
//!   before or after a whole check-in;
//! * a request frame with the reserved tag 0 is answered with an error in its slot, and the
//!   session carries on.

use seed::core::{Database, Value};
use seed::net::{RemoteClient, SeedNetServer};
use seed::schema::figure3_schema;
use seed::server::{SeedServer, ServerError, Update};
use seed::spades::{
    specification_report, RemoteBackend, SeedBackend, SpecBackend, Workload, WorkloadConfig,
};

fn start(db: Database) -> SeedNetServer {
    SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind loopback")
}

#[test]
fn spades_workload_is_byte_identical_over_tcp() {
    let workload = Workload::generate(&WorkloadConfig {
        data_elements: 15,
        actions: 8,
        checkpoint_every: 25,
        ..WorkloadConfig::default()
    });
    let mut local = SeedBackend::new();
    assert_eq!(workload.apply(&mut local), 0);

    let server = start(Database::new(figure3_schema()));
    let client = RemoteClient::connect(server.local_addr()).expect("connect");
    let mut remote = RemoteBackend::new(client).expect("schema");
    assert_eq!(workload.apply(&mut remote), 0);

    let local_report = specification_report(&local);
    let remote_report =
        specification_report(&remote).replace(remote.backend_name(), local.backend_name());
    assert_eq!(remote_report, local_report);
    assert_eq!(server.core().locked_count(), 0, "a clean run leaves no locks");
    server.shutdown();
}

#[test]
fn racing_checkouts_have_exactly_one_winner_per_round() {
    let mut db = Database::new(figure3_schema());
    db.create_object("Data", "Contested").unwrap();
    let server = start(db);
    let addr = server.local_addr();

    for _round in 0..5 {
        // Two synchronization points per round: start together, then hold until all resolved.
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(3));
        let racers: Vec<_> = (0..3)
            .map(|_| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let mut client = RemoteClient::connect(addr).expect("connect");
                    barrier.wait();
                    let won = match client.checkout(&["Contested"]) {
                        Ok(_) => true,
                        Err(ServerError::Locked { object, holder }) => {
                            assert_eq!(object, "Contested");
                            assert_ne!(
                                holder,
                                client.id(),
                                "the loser learns a *different* holder"
                            );
                            false
                        }
                        Err(other) => panic!("unexpected checkout failure: {other}"),
                    };
                    // Hold the lock until every racer's checkout has resolved — otherwise an
                    // early release lets a second racer "win" the same round.
                    barrier.wait();
                    if won {
                        client.release().expect("release");
                    }
                    won
                })
            })
            .collect();
        let wins = racers.into_iter().map(|r| r.join().expect("racer")).filter(|&won| won).count();
        assert_eq!(wins, 1, "exactly one racer must win the checkout");
    }
    server.shutdown();
}

#[test]
fn remote_reads_never_observe_half_a_checkin() {
    let mut db = Database::new(figure3_schema());
    for name in ["Pair0", "Pair1"] {
        let id = db.create_object("Action", name).unwrap();
        db.create_dependent(id, "Description", Value::string("round 0")).unwrap();
    }
    let server = start(db);
    let addr = server.local_addr();

    let writer = std::thread::spawn(move || {
        let mut client = RemoteClient::connect(addr).expect("connect writer");
        for round in 1..=40u32 {
            client.checkout(&["Pair0", "Pair1"]).expect("checkout");
            client
                .checkin(vec![
                    Update::SetValue {
                        object: "Pair0.Description".into(),
                        value: Value::string(format!("round {round}")),
                    },
                    Update::SetValue {
                        object: "Pair1.Description".into(),
                        value: Value::string(format!("round {round}")),
                    },
                ])
                .expect("checkin");
        }
    });
    let readers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = RemoteClient::connect(addr).expect("connect reader");
                for _ in 0..150 {
                    // One request = one atomic read on the server: both descriptions arrive
                    // from the same database state.
                    let records = client.objects_with_prefix("Pair").expect("prefix read");
                    let values: Vec<&Value> = records
                        .iter()
                        .filter(|r| r.name.to_string().ends_with(".Description"))
                        .map(|r| &r.value)
                        .collect();
                    assert_eq!(values.len(), 2, "both descriptions are visible");
                    assert_eq!(values[0], values[1], "a read observed half a check-in");
                }
            })
        })
        .collect();
    writer.join().expect("writer");
    for reader in readers {
        reader.join().expect("reader");
    }
    let mut probe = RemoteClient::connect(addr).expect("connect probe");
    assert_eq!(
        probe.retrieve("Pair0.Description").expect("final value").value,
        Value::string("round 40")
    );
    server.shutdown();
}

/// Tag 0 is reserved (`docs/PROTOCOL.md` §5): a raw request frame carrying it is answered with
/// the `Error` answer in its slot, and the next request on the same connection is answered.
#[test]
fn a_reserved_tag_zero_frame_is_answered_with_an_error_and_the_session_continues() {
    use seed::net::codec::{decode_response, encode_request};
    use seed::net::wire::{read_frame, write_frame};
    use seed::net::{FrameKind, Hello};
    use seed::server::{Request, Response};
    use std::io::{BufReader, BufWriter};

    let mut db = Database::new(figure3_schema());
    db.create_object("Data", "Alarms").unwrap();
    let server = start(db);
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, FrameKind::Hello, &Hello::current("tag-zero").encode()).unwrap();
    assert_eq!(read_frame(&mut reader).unwrap().kind, FrameKind::Welcome);

    let retrieve = encode_request(&Request::Retrieve { name: "Alarms".into() });
    for payload in [vec![0u8], retrieve] {
        write_frame(&mut writer, FrameKind::Request, &payload).unwrap();
    }
    let mut answer = || {
        let frame = read_frame(&mut reader).expect("an answer, not a closed connection");
        assert_eq!(frame.kind, FrameKind::Response);
        decode_response(&frame.payload).unwrap()
    };
    assert!(matches!(answer(), Err(ServerError::Protocol(_))));
    match answer() {
        Ok(Response::Object(record)) => assert_eq!(record.name.to_string(), "Alarms"),
        other => panic!("the request after the tag-0 frame: got {other:?}"),
    }
    server.shutdown();
}
