//! Pins the wire contract documented in `docs/PROTOCOL.md`: the worked hex dumps render
//! byte-exactly, the kind/tag tables match the code, and the error tiers behave as documented.
//! Change `crates/net/src/wire.rs` / `crates/net/src/codec.rs`, the document and this test
//! together.

use seed::net::wire::{
    negotiate, read_frame, write_frame, Ack, Hello, LogBatch, Subscribe, Welcome,
};
use seed::net::{FrameKind, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use seed::server::{Request, Response, ServerError};
use seed::storage::Commit;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect::<Vec<_>>().join(" ")
}

fn frame_bytes(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, kind, payload).unwrap();
    buf
}

#[test]
fn constants_match_the_document() {
    assert_eq!(seed::net::wire::MAGIC, *b"SEWP");
    assert_eq!(hex(&seed::net::wire::MAGIC), "53 45 57 50");
    assert_eq!(MAX_FRAME_LEN, 64 * 1024 * 1024);
    assert_eq!(PROTOCOL_VERSION, 7);
}

#[test]
fn frame_kind_bytes_match_the_table() {
    // §3: kind bytes are pinned and never reused.
    let table = [
        (FrameKind::Hello, 1u8),
        (FrameKind::Welcome, 2),
        (FrameKind::Request, 3),
        (FrameKind::Response, 4),
        (FrameKind::Reject, 5),
        (FrameKind::Subscribe, 6),
        (FrameKind::LogBatch, 7),
        (FrameKind::Ack, 8),
    ];
    for (kind, byte) in table {
        assert_eq!(kind.to_u8(), byte, "{kind:?}");
        // And the byte round-trips through a real frame.
        let bytes = frame_bytes(kind, b"");
        assert_eq!(bytes[4], byte);
        assert_eq!(read_frame(&mut &bytes[..]).unwrap().kind, kind);
    }
}

#[test]
fn worked_frame_example_renders_exactly_as_documented() {
    // §1: the Request::Persistence frame.
    let payload = seed::net::codec::encode_request(&Request::Persistence);
    assert_eq!(hex(&payload), "07");
    let frame = frame_bytes(FrameKind::Request, &payload);
    assert_eq!(hex(&frame), "53 45 57 50 03 01 00 00 00 2e 7a 66 4c 07");
}

#[test]
fn handshake_dumps_render_exactly_as_documented() {
    // §4.
    assert_eq!(hex(&Hello::current("spades").encode()), "07 00 07 00 06 73 70 61 64 65 73 00");
    assert_eq!(hex(&Hello::replica("spades").encode()), "07 00 07 00 06 73 70 61 64 65 73 01");
    let welcome = Welcome { version: 7, client_id: 7, banner: "seed-net/0.1.0".into() };
    assert_eq!(
        hex(&welcome.encode()),
        "07 00 07 00 00 00 00 00 00 00 0e 73 65 65 64 2d 6e 65 74 2f 30 2e 31 2e 30"
    );
    // Negotiation: a hello is accepted if and only if its range covers the one version; a
    // v6-only hello, as the previous build sends, is refused.
    assert_eq!(negotiate(&Hello::current("x")).unwrap(), PROTOCOL_VERSION);
    let v6 = Hello { min_version: 6, max_version: 6, ..Hello::current("x") };
    assert!(negotiate(&v6).unwrap_err().contains("no common protocol version"));
}

#[test]
fn replication_dumps_render_exactly_as_documented() {
    // §6.
    let subscribe = Subscribe { from_lsn: 42, epoch: 1 };
    assert_eq!(hex(&subscribe.encode()), "2a 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00");
    assert_eq!(hex(&Ack { applied_lsn: 46 }.encode()), "2e 00 00 00 00 00 00 00");
    let ack_frame = frame_bytes(FrameKind::Ack, &Ack { applied_lsn: 46 }.encode());
    assert_eq!(hex(&ack_frame), "53 45 57 50 08 08 00 00 00 0d af de 89 2e 00 00 00 00 00 00 00");
    let batch = LogBatch {
        reset: false,
        first_lsn: 45,
        last_lsn: 46,
        primary_lsn: 46,
        records: vec![
            Commit { effects: vec![(b"o/1".to_vec(), Some(b"v".to_vec()))] },
            Commit {
                effects: vec![(b"o/1".to_vec(), Some(b"w".to_vec())), (b"d/1".to_vec(), None)],
            },
        ],
    };
    assert_eq!(
        hex(&batch.encode()),
        "00 2d 00 00 00 00 00 00 00 2e 00 00 00 00 00 00 00 2e 00 00 00 00 00 00 00 02 \
         08 01 01 03 6f 2f 31 01 76 \
         0d 02 01 03 6f 2f 31 01 77 02 03 64 2f 31"
    );
    // Every replication record round-trips.
    assert_eq!(LogBatch::decode(&batch.encode()).unwrap(), batch);
    assert_eq!(Subscribe::decode(&subscribe.encode()).unwrap(), subscribe);
    assert_eq!(Ack::decode(&Ack { applied_lsn: 46 }.encode()).unwrap().applied_lsn, 46);
}

#[test]
fn request_tags_match_the_table() {
    // §5: the leading payload byte of every request variant.
    use seed::net::codec::{decode_request, encode_request};
    // Tag 0 is reserved (it was `Connect`) and never reused: a tag-0 payload does not decode.
    assert!(decode_request(&[0]).is_err());
    assert!(decode_request(&[0, 1, 0, 0, 0, 0, 0, 0, 0]).is_err());
    let cases: Vec<(Request, u8)> = vec![
        (Request::Checkout { objects: vec![] }, 1),
        (Request::Checkin { updates: vec![] }, 2),
        (Request::Release, 3),
        (Request::Retrieve { name: "X".into() }, 4),
        (Request::Query { text: "count Thing".into() }, 5),
        (Request::CreateVersion { comment: String::new() }, 6),
        (Request::Persistence, 7),
        (Request::Checkpoint, 8),
        (Request::Schema, 9),
        (Request::Children { name: "X".into() }, 10),
        (Request::Prefix { prefix: "X".into() }, 11),
        (Request::RelationshipsOf { name: "X".into() }, 12),
        (Request::ObjectsOfClass { class: "X".into(), transitive: true }, 13),
        (Request::RelationshipCount { association: "X".into(), transitive: true }, 14),
        (Request::Completeness, 15),
        (Request::Shutdown, 16),
        (Request::Stats, 17),
        (Request::Health, 18),
        (Request::Promote { epoch: 1, new_primary: "X".into() }, 19),
    ];
    for (request, tag) in cases {
        assert_eq!(encode_request(&request)[0], tag, "{request:?}");
    }
}

#[test]
fn lock_table_dumps_render_exactly_as_documented() {
    // §5: lock-table requests carry no client id (the connection is the client).
    use seed::net::codec::{decode_request, encode_request};
    use seed::server::Update;
    let checkout = Request::Checkout { objects: vec!["Alarms".into()] };
    assert_eq!(hex(&encode_request(&checkout)), "01 01 06 41 6c 61 72 6d 73");
    let create = Update::CreateObject { class: "Data".into(), name: "X".into() };
    let checkin = Request::Checkin { updates: vec![create] };
    assert_eq!(hex(&encode_request(&checkin)), "02 01 00 04 44 61 74 61 01 58");
    assert_eq!(hex(&encode_request(&Request::Release)), "03");
    for request in [checkout, checkin, Request::Release] {
        let decoded = decode_request(&encode_request(&request)).unwrap();
        assert_eq!(format!("{decoded:?}"), format!("{request:?}"));
    }
}

#[test]
fn response_and_error_tags_match_the_tables() {
    use seed::net::codec::{decode_response, encode_response};
    use seed::server::PromotionReceipt;
    // Tag 0 is reserved (it was `Connected`) and never reused: a tag-0 payload does not decode.
    assert!(decode_response(&[0]).is_err());
    assert!(decode_response(&[0, 1, 0, 0, 0, 0, 0, 0, 0]).is_err());
    let mut db = seed::core::Database::new(seed::schema::figure3_schema());
    let object = db.create_object("Data", "X").unwrap();
    let record = db.object(object).unwrap();
    let cases: Vec<(Response, u8)> = vec![
        (Response::Checkout(Default::default()), 1),
        (Response::Ack, 2),
        (Response::Object(record), 3),
        (Response::Answer(Default::default()), 4),
        (Response::Version(seed::core::VersionId::parse("1.0").unwrap()), 5),
        (Response::Persistence(Default::default()), 6),
        (Response::Schema(seed::schema::figure3_schema()), 7),
        (Response::Objects(vec![]), 8),
        (Response::Relationships(vec![]), 9),
        (Response::Count(0), 10),
        (Response::ShuttingDown, 12),
        (Response::Stats(Default::default()), 13),
        (Response::Health(Default::default()), 14),
        (Response::Promoted(PromotionReceipt::default()), 15),
    ];
    for (response, tag) in cases {
        assert_eq!(encode_response(&Ok(response))[0], tag);
    }
    // A success payload is the value alone: no leading ok-bool.
    assert_eq!(hex(&encode_response(&Ok(Response::Ack))), "02");
    assert_eq!(hex(&encode_response(&Ok(Response::Count(3)))), "0a 03");
    // §5: a refused request is answered with tag 11, then the server error tag.
    let errors: Vec<(ServerError, u8)> = vec![
        (ServerError::Locked { object: "X".into(), holder: 1 }, 0),
        (ServerError::NotCheckedOut("X".into()), 1),
        (ServerError::Rejected(seed::core::SeedError::Invalid("x".into())), 2),
        (ServerError::Unknown("X".into()), 3),
        (ServerError::Query("bad".into()), 4),
        (ServerError::Disconnected, 5),
        (ServerError::Transport("gone".into()), 6),
        (ServerError::Protocol("bad frame".into()), 7),
        (ServerError::ReadOnlyReplica { primary: "127.0.0.1:7044".into() }, 8),
        (ServerError::Fenced { new_primary: "127.0.0.1:7044".into(), epoch: 1 }, 9),
    ];
    for (error, tag) in errors {
        let bytes = encode_response(&Err(error));
        assert_eq!((bytes[0], bytes[1]), (11, tag));
    }
    let refused = Err(ServerError::NotCheckedOut("X".into()));
    assert_eq!(hex(&encode_response(&refused)), "0b 01 01 58");
    // The redirect error round-trips with its primary address intact.
    let bytes =
        encode_response(&Err(ServerError::ReadOnlyReplica { primary: "10.0.0.9:7044".into() }));
    match decode_response(&bytes).unwrap() {
        Err(ServerError::ReadOnlyReplica { primary }) => assert_eq!(primary, "10.0.0.9:7044"),
        other => panic!("unexpected decode: {other:?}"),
    }
    // The fencing error round-trips with the new primary and the epoch intact.
    let bytes = encode_response(&Err(ServerError::Fenced {
        new_primary: "10.0.0.9:7044".into(),
        epoch: 7,
    }));
    match decode_response(&bytes).unwrap() {
        Err(ServerError::Fenced { new_primary, epoch }) => {
            assert_eq!(new_primary, "10.0.0.9:7044");
            assert_eq!(epoch, 7);
        }
        other => panic!("unexpected decode: {other:?}"),
    }
}

#[test]
fn schema_answer_is_the_stored_schema_record() {
    // §5: the Schema answer is tag 7, then exactly the bytes of the `s/<svid>` record.
    use seed::net::codec::{decode_response, encode_response};
    use seed::server::SeedServer;
    let dir = std::env::temp_dir().join(format!("seed-protocol-schema-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = SeedServer::create_durable(&dir, seed::schema::figure3_schema()).unwrap();
    let payload = encode_response(&server.handle(server.connect(), Request::Schema));
    drop(server);
    let (_engine, recovered) = seed::storage::StorageEngine::open(&dir).unwrap();
    let record = recovered.get(b"s/00000001").expect("the schema record");
    assert_eq!(payload[0], 7);
    assert_eq!(&payload[1..], record);
    match decode_response(&payload).unwrap() {
        Ok(Response::Schema(schema)) => assert_eq!(schema, seed::schema::figure3_schema()),
        other => panic!("unexpected decode: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn promotion_frames_render_exactly_as_documented() {
    // §5: the failover frames, byte-exact.  `Promote` carries the epoch then the advertised
    // address of the node being promoted; `Promoted` is the receipt alone; `Fenced` reaches
    // clients as error tag 9 in the `Error` answer (tag 11).
    use seed::net::codec::{decode_request, decode_response, encode_request, encode_response};
    use seed::server::PromotionReceipt;
    let promote = Request::Promote { epoch: 7, new_primary: "10.0.0.9:1".into() };
    let payload = encode_request(&promote);
    assert_eq!(hex(&payload), "13 07 00 00 00 00 00 00 00 0a 31 30 2e 30 2e 30 2e 39 3a 31");
    match decode_request(&payload).unwrap() {
        Request::Promote { epoch, new_primary } => {
            assert_eq!(epoch, 7);
            assert_eq!(new_primary, "10.0.0.9:1");
        }
        other => panic!("unexpected decode: {other:?}"),
    }

    let receipt = PromotionReceipt { epoch: 7, last_lsn: 46 };
    let payload = encode_response(&Ok(Response::Promoted(receipt)));
    assert_eq!(hex(&payload), "0f 07 00 00 00 00 00 00 00 2e 00 00 00 00 00 00 00");
    match decode_response(&payload).unwrap() {
        Ok(Response::Promoted(decoded)) => assert_eq!(decoded, receipt),
        other => panic!("unexpected decode: {other:?}"),
    }

    let fenced = Err(ServerError::Fenced { new_primary: "10.0.0.9:1".into(), epoch: 7 });
    let payload = encode_response(&fenced);
    assert_eq!(hex(&payload), "0b 09 0a 31 30 2e 30 2e 30 2e 39 3a 31 07 00 00 00 00 00 00 00");
}

#[test]
fn error_tiers_behave_as_documented() {
    // §2: CRC damage is recoverable, the boundary holds.
    let mut buf = frame_bytes(FrameKind::Request, b"abc");
    let last = buf.len() - 1;
    buf[last] ^= 0xFF;
    let mut extended = buf.clone();
    write_frame(&mut extended, FrameKind::Request, b"next").unwrap();
    let mut cursor = &extended[..];
    assert!(matches!(read_frame(&mut cursor), Err(WireError::Recoverable(_))));
    assert_eq!(read_frame(&mut cursor).unwrap().payload, b"next");

    // Bad magic, unknown kind and oversize are fatal.
    let mut bad_magic = frame_bytes(FrameKind::Request, b"x");
    bad_magic[0] = b'X';
    assert!(matches!(read_frame(&mut &bad_magic[..]), Err(WireError::Fatal(_))));
    let mut bad_kind = frame_bytes(FrameKind::Request, b"x");
    bad_kind[4] = 99;
    assert!(matches!(read_frame(&mut &bad_kind[..]), Err(WireError::Fatal(_))));
    let mut oversize = frame_bytes(FrameKind::Request, b"x");
    oversize[5..9].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    assert!(matches!(read_frame(&mut &oversize[..]), Err(WireError::Fatal(_))));
}
