//! Property tests of the wire codec: every [`Request`] and every reply — a [`Response`] or a
//! refusal, a [`ServerResult<Response>`] — round-trips through encode → frame → read → decode,
//! every strict prefix of a payload fails to decode, and corrupted payloads never panic.
//!
//! `Request`/`Response` carry error types without `PartialEq`, so equality is checked on the
//! `Debug` rendering (which covers every field); a schema, whose name maps render in a
//! per-instance order, is compared by value.

use proptest::prelude::*;
use seed_core::{NameSegment, ObjectName, ObjectRecord, RelationshipRecord, SeedError, Value};
use seed_schema::{
    figure2_schema, figure3_schema, AssociationId, AttachedProcedure, ClassId, Domain,
    RelationshipAttribute, Schema,
};
use seed_server::{
    CheckoutSet, PersistenceStatus, PromotionReceipt, QueryAnswer, RelationshipInfo,
    ReplicationRole, ReplicationStatus, Request, Response, ServerError, ServerResult, Update,
};

use crate::codec::{decode_request, decode_response, encode_request, encode_response};
use crate::wire::{read_frame, write_frame, FrameDecoder, FrameKind, HandshakeRole, Hello};

fn ident() -> impl Strategy<Value = String> {
    "[A-Z][a-z0-9]{0,6}"
}

fn free_text() -> impl Strategy<Value = String> {
    ".{0,12}"
}

fn object_name() -> BoxedStrategy<ObjectName> {
    (ident(), proptest::collection::vec((ident(), proptest::option::of(0u32..40)), 0..3))
        .prop_map(|(root, tail)| {
            let mut segments = vec![NameSegment::plain(root)];
            for (name, index) in tail {
                segments.push(match index {
                    Some(i) => NameSegment::indexed(name, i),
                    None => NameSegment::plain(name),
                });
            }
            ObjectName::from_segments(segments).expect("generated names are non-empty")
        })
        .boxed()
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        free_text().prop_map(Value::String),
        any::<i64>().prop_map(Value::Integer),
        any::<i64>().prop_map(|i| Value::Real(i as f64 / 8.0)),
        any::<bool>().prop_map(Value::Boolean),
        (any::<i32>(), 1u8..13, 1u8..29).prop_map(|(year, month, day)| Value::Date {
            year,
            month,
            day
        }),
        ident().prop_map(Value::Symbol),
        free_text().prop_map(Value::Text),
        any::<bool>().prop_map(|_| Value::Undefined),
    ]
    .boxed()
}

fn object_record() -> BoxedStrategy<ObjectRecord> {
    (
        (any::<u64>(), any::<u32>(), object_name(), proptest::option::of(any::<u64>())),
        (value(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((id, class, name, parent), (value, is_pattern, deleted))| {
            let mut record = ObjectRecord::new(
                seed_core::ObjectId(id),
                ClassId(class),
                name,
                parent.map(seed_core::ObjectId),
            );
            record.value = value;
            record.is_pattern = is_pattern;
            record.deleted = deleted;
            record
        })
        .boxed()
}

fn relationship_record() -> BoxedStrategy<RelationshipRecord> {
    (
        (any::<u64>(), any::<u32>()),
        proptest::collection::vec((ident(), any::<u64>()), 0..4),
        proptest::collection::vec((ident(), value()), 0..3),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(|((id, assoc), bindings, attributes, (is_pattern, deleted))| {
            let bindings = bindings.into_iter().map(|(r, o)| (r, seed_core::ObjectId(o))).collect();
            let mut record = RelationshipRecord::new(
                seed_core::RelationshipId(id),
                AssociationId(assoc),
                bindings,
            );
            for (name, value) in attributes {
                record.attributes.insert(name, value);
            }
            record.is_pattern = is_pattern;
            record.deleted = deleted;
            record
        })
        .boxed()
}

fn string_pairs() -> BoxedStrategy<Vec<(String, String)>> {
    proptest::collection::vec((ident(), ident()), 0..4).boxed()
}

fn update() -> BoxedStrategy<Update> {
    prop_oneof![
        (ident(), ident()).prop_map(|(class, name)| Update::CreateObject { class, name }),
        (ident(), ident(), value()).prop_map(|(parent, class_local, value)| {
            Update::CreateDependent { parent, class_local, value }
        }),
        (ident(), ident(), ident(), value()).prop_map(|(parent, class_local, name, value)| {
            Update::CreateDependentNamed { parent, class_local, name, value }
        }),
        (ident(), value()).prop_map(|(object, value)| Update::SetValue { object, value }),
        (ident(), ident()).prop_map(|(object, new_class)| Update::Reclassify { object, new_class }),
        (ident(), string_pairs()).prop_map(|(association, bindings)| Update::CreateRelationship {
            association,
            bindings
        }),
        (ident(), string_pairs(), ident()).prop_map(|(association, bindings, new_association)| {
            Update::ReclassifyRelationship { association, bindings, new_association }
        }),
        ident().prop_map(|object| Update::DeleteObject { object }),
    ]
    .boxed()
}

/// Every wire-representable [`SeedError`] (the string-carrying variants; the foreign-typed ones
/// decode as `Remote`, covered by a unit test in `unit`).
fn seed_error() -> BoxedStrategy<SeedError> {
    prop_oneof![
        free_text().prop_map(SeedError::NotFound),
        free_text().prop_map(SeedError::DuplicateName),
        (free_text(), free_text())
            .prop_map(|(expected, found)| SeedError::DomainMismatch { expected, found }),
        free_text().prop_map(SeedError::Version),
        free_text().prop_map(SeedError::TransitionRejected),
        free_text().prop_map(SeedError::Pattern),
        free_text().prop_map(SeedError::Transaction),
        free_text().prop_map(SeedError::Reclassification),
        free_text().prop_map(SeedError::ReadOnlyVersion),
        free_text().prop_map(SeedError::Invalid),
        free_text().prop_map(SeedError::Remote),
    ]
    .boxed()
}

fn server_error() -> BoxedStrategy<ServerError> {
    prop_oneof![
        (ident(), any::<u64>()).prop_map(|(object, holder)| ServerError::Locked { object, holder }),
        ident().prop_map(ServerError::NotCheckedOut),
        seed_error().prop_map(ServerError::Rejected),
        free_text().prop_map(ServerError::Unknown),
        free_text().prop_map(ServerError::Query),
        any::<bool>().prop_map(|_| ServerError::Disconnected),
        free_text().prop_map(ServerError::Transport),
        free_text().prop_map(ServerError::Protocol),
        free_text().prop_map(|primary| ServerError::ReadOnlyReplica { primary }),
    ]
    .boxed()
}

fn replication_status() -> BoxedStrategy<ReplicationStatus> {
    (any::<bool>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>())
        .prop_map(
            |(replica, applied_lsn, primary_lsn, subscribers, min_acked_lsn, snapshot_lsn)| {
                ReplicationStatus {
                    role: if replica { ReplicationRole::Replica } else { ReplicationRole::Primary },
                    applied_lsn,
                    primary_lsn,
                    subscribers,
                    min_acked_lsn,
                    snapshot_lsn,
                }
            },
        )
        .boxed()
}

fn hello() -> BoxedStrategy<Hello> {
    (any::<u16>(), any::<u16>(), free_text(), any::<bool>())
        .prop_map(|(min_version, max_version, agent, replica)| Hello {
            min_version,
            max_version,
            agent,
            role: if replica { HandshakeRole::Replica } else { HandshakeRole::Client },
        })
        .boxed()
}

fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        proptest::collection::vec(ident(), 0..4).prop_map(|objects| Request::Checkout { objects }),
        proptest::collection::vec(update(), 0..4).prop_map(|updates| Request::Checkin { updates }),
        any::<bool>().prop_map(|_| Request::Release),
        ident().prop_map(|name| Request::Retrieve { name }),
        free_text().prop_map(|text| Request::Query { text }),
        free_text().prop_map(|comment| Request::CreateVersion { comment }),
        any::<bool>().prop_map(|_| Request::Persistence),
        any::<bool>().prop_map(|_| Request::Checkpoint),
        any::<bool>().prop_map(|_| Request::Schema),
        ident().prop_map(|name| Request::Children { name }),
        free_text().prop_map(|prefix| Request::Prefix { prefix }),
        ident().prop_map(|name| Request::RelationshipsOf { name }),
        (ident(), any::<bool>())
            .prop_map(|(class, transitive)| Request::ObjectsOfClass { class, transitive }),
        (ident(), any::<bool>()).prop_map(|(association, transitive)| {
            Request::RelationshipCount { association, transitive }
        }),
        any::<bool>().prop_map(|_| Request::Completeness),
        any::<bool>().prop_map(|_| Request::Shutdown),
    ]
    .boxed()
}

fn checkout_set() -> BoxedStrategy<CheckoutSet> {
    (
        proptest::collection::vec(object_record(), 0..3),
        proptest::collection::vec(relationship_record(), 0..3),
    )
        .prop_map(|(objects, relationships)| CheckoutSet { objects, relationships })
        .boxed()
}

/// The schema of figure 2, of figure 3, or figure 3 with an attached procedure of every kind
/// and one more relationship attribute.
fn schema() -> BoxedStrategy<Schema> {
    (0usize..3)
        .prop_map(|which| match which {
            0 => figure2_schema(),
            1 => figure3_schema(),
            _ => {
                let mut schema = figure3_schema();
                let selector = schema.class_id("Data.Text.Selector").unwrap();
                let description = schema.class_id("Action.Description").unwrap();
                let write = schema.association_id("Write").unwrap();
                let contained = schema.association_id("Contained").unwrap();
                for procedure in [
                    AttachedProcedure::ValueNotEmpty,
                    AttachedProcedure::ValueContains("Sel".into()),
                ] {
                    schema.attach_class_procedure(selector, procedure).unwrap();
                }
                schema
                    .attach_class_procedure(description, AttachedProcedure::MaxLength(8))
                    .unwrap();
                for procedure in [
                    AttachedProcedure::ValueRange { min: Some(0), max: None },
                    AttachedProcedure::Named("audit".into()),
                ] {
                    schema.attach_association_procedure(write, procedure).unwrap();
                }
                let depth = RelationshipAttribute::new("Depth", Domain::Integer, false);
                schema.add_relationship_attribute(contained, depth).unwrap();
                schema
            }
        })
        .boxed()
}

fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        checkout_set().prop_map(Response::Checkout),
        any::<bool>().prop_map(|_| Response::Ack),
        object_record().prop_map(Response::Object),
        (
            proptest::collection::vec(ident(), 0..4),
            0usize..1000,
            proptest::option::of(free_text()),
        )
            .prop_map(|(names, count, plan)| Response::Answer(QueryAnswer { names, count, plan })),
        proptest::collection::vec(1u32..9, 1..4).prop_map(|parts| {
            let rendered = parts.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(".");
            Response::Version(
                seed_core::VersionId::parse(&format!("{rendered}.0"))
                    .or_else(|_| seed_core::VersionId::parse("1.0"))
                    .expect("fallback version id parses"),
            )
        }),
        (
            (any::<bool>(), proptest::option::of(free_text()), any::<u64>()),
            (0usize..10_000, 0usize..10_000, 0usize..1000),
            replication_status(),
        )
            .prop_map(
                |((durable, path, wal_bytes), (objects, relationships, versions), replication)| {
                    Response::Persistence(PersistenceStatus {
                        durable,
                        path,
                        wal_bytes,
                        objects,
                        relationships,
                        versions,
                        replication,
                    })
                }
            ),
        schema().prop_map(Response::Schema),
        proptest::collection::vec(object_record(), 0..3).prop_map(Response::Objects),
        proptest::collection::vec(
            (ident(), string_pairs(), any::<bool>()).prop_map(
                |(association, bindings, inherited)| RelationshipInfo {
                    association,
                    bindings,
                    inherited,
                }
            ),
            0..3,
        )
        .prop_map(Response::Relationships),
        (0usize..100_000).prop_map(Response::Count),
        any::<bool>().prop_map(|_| Response::ShuttingDown),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, last_lsn)| {
            Response::Promoted(PromotionReceipt { epoch, last_lsn })
        }),
    ]
    .boxed()
}

/// Whether two replies are the same: a schema by value (its name maps render in a
/// per-instance order), everything else by its `Debug` rendering.
fn same_reply(a: &ServerResult<Response>, b: &ServerResult<Response>) -> bool {
    match (a, b) {
        (Ok(Response::Schema(a)), Ok(Response::Schema(b))) => a == b,
        _ => format!("{a:?}") == format!("{b:?}"),
    }
}

/// A reply as the server sends it: a response, or a refusal.
fn reply() -> BoxedStrategy<ServerResult<Response>> {
    prop_oneof![response().prop_map(Ok), server_error().prop_map(Err)].boxed()
}

proptest! {
    #[test]
    fn requests_roundtrip_through_frames(request in request()) {
        let payload = encode_request(&request);
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, &payload).unwrap();
        let frame = read_frame(&mut std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(frame.kind, FrameKind::Request);
        let decoded = decode_request(&frame.payload).unwrap();
        prop_assert_eq!(format!("{decoded:?}"), format!("{request:?}"));
    }

    #[test]
    fn responses_roundtrip_through_frames(reply in reply()) {
        let payload = encode_response(&reply);
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Response, &payload).unwrap();
        let frame = read_frame(&mut std::io::Cursor::new(buf)).unwrap();
        let decoded = decode_response(&frame.payload).unwrap();
        prop_assert!(same_reply(&decoded, &reply), "{decoded:?} != {reply:?}");
    }

    /// Every message has one shape, so a payload cut short anywhere — including the empty
    /// payload — is an error, never a shorter valid message.
    #[test]
    fn truncated_request_payloads_error_never_panic(request in request(), hello in hello()) {
        let payload = encode_request(&request);
        for cut in 0..payload.len() {
            prop_assert!(decode_request(&payload[..cut]).is_err(), "request prefix {} decoded", cut);
        }
        let payload = hello.encode();
        prop_assert_eq!(Hello::decode(&payload).unwrap(), hello);
        for cut in 0..payload.len() {
            prop_assert!(Hello::decode(&payload[..cut]).is_err(), "hello prefix {} decoded", cut);
        }
    }

    #[test]
    fn corrupted_response_payloads_error_never_panic(
        reply in reply(),
        idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        let payload = encode_response(&reply);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_response(&payload[..cut]).is_err(),
                "response prefix {} of {} decoded",
                cut,
                payload.len()
            );
        }
        if !payload.is_empty() {
            let mut corrupted = payload.clone();
            let idx = idx % corrupted.len();
            corrupted[idx] ^= 1 << bit;
            // May decode to a different-but-valid message (the frame CRC is the integrity
            // layer, exercised in wire.rs); must never panic.
            let _ = decode_response(&corrupted);
        }
    }

    /// The pipelined server decodes from a byte stream, not from whole reads: a burst of
    /// concatenated frames must decode to the same frame sequence no matter where the network
    /// fragments it.  Every two-part split of the stream (and a one-byte-at-a-time feed) is
    /// checked against the unsplit decode.
    #[test]
    fn concatenated_frames_survive_every_split_boundary(
        requests in proptest::collection::vec(request(), 1..4),
    ) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for request in &requests {
            let payload = encode_request(request);
            write_frame(&mut stream, FrameKind::Request, &payload).unwrap();
            expected.push(payload);
        }
        fn decode_all(chunks: impl Iterator<Item = impl AsRef<[u8]>>) -> Vec<(FrameKind, Vec<u8>)> {
            let mut decoder = FrameDecoder::new();
            let mut frames = Vec::new();
            for chunk in chunks {
                decoder.extend(chunk.as_ref());
                while let Some(frame) =
                    decoder.next_frame().expect("a well-formed stream never errors")
                {
                    frames.push((frame.kind, frame.payload));
                }
            }
            frames
        }
        let whole = decode_all(std::iter::once(&stream));
        prop_assert_eq!(whole.len(), expected.len());
        for (payload, (kind, decoded)) in expected.iter().zip(whole.iter()) {
            prop_assert_eq!(*kind, FrameKind::Request);
            prop_assert_eq!(decoded, payload);
        }
        for cut in 0..=stream.len() {
            let split = decode_all([&stream[..cut], &stream[cut..]].into_iter());
            prop_assert!(split == whole, "split at byte {} diverged", cut);
        }
        prop_assert!(decode_all(stream.chunks(1)) == whole, "byte-at-a-time feed diverged");
    }

    /// Request tags end at 19 (`Promote`) and response tags at 15 (`Promoted`); every tag past
    /// them, up to 255, is unknown.  (Drawn as `u16` so the half-open range reaches 255.)
    #[test]
    fn unknown_tags_are_rejected(
        request_tag in 20u16..256,
        response_tag in 16u16..256,
        garbage in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut request_payload = vec![request_tag as u8];
        request_payload.extend_from_slice(&garbage);
        prop_assert!(decode_request(&request_payload).is_err());
        let mut response_payload = vec![response_tag as u8];
        response_payload.extend_from_slice(&garbage);
        prop_assert!(decode_response(&response_payload).is_err());
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn foreign_seed_errors_decode_as_remote_with_text_preserved() {
        let schema_err = SeedError::Schema(seed_schema::SchemaError::UnknownClass("X".into()));
        let rendered = schema_err.to_string();
        let decoded = decode_response(&encode_response(&Err(ServerError::Rejected(schema_err))));
        match decoded.unwrap() {
            Err(ServerError::Rejected(err @ SeedError::Remote(_))) => {
                assert_eq!(err.to_string(), rendered, "the rendered text reads the same");
            }
            other => panic!("unexpected decode {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Persistence);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
        let mut payload = encode_response(&Ok(Response::ShuttingDown));
        payload.push(0);
        assert!(decode_response(&payload).is_err());
    }
}
