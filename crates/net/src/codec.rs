//! Binary encoding of the protocol messages ([`Request`] / [`Response`]) for the wire.
//!
//! A reply is a [`ServerResult<Response>`]: a success is encoded as its response's tag and
//! payload, a refusal as the `Error` answer — tag 11, then the encoded [`ServerError`].
//!
//! The encoders reuse the storage crate's explicit little-endian primitives and `seed-core`'s
//! per-item record codecs, so an [`seed_core::ObjectRecord`] and a [`seed_schema::Schema`]
//! each have exactly one binary shape in the whole system — on disk and on the wire (the
//! `Schema` answer is the bytes of the `s/<svid>` record).
//!
//! Every message is self-delimiting inside its frame; decoding checks that the payload is
//! consumed exactly.  Malformed payloads (unknown tags, truncation, trailing bytes) produce
//! [`WireError::Recoverable`] — never a panic — so the server can answer with a protocol error
//! and keep the connection.
//!
//! Server errors travel structurally: every [`ServerError`] variant round-trips, and within
//! [`ServerError::Rejected`] every string-carrying [`SeedError`] variant round-trips too.  The
//! three variants wrapping foreign error types (`Schema`, `Storage`, `Inconsistent`) are sent
//! as their display string and decode as [`SeedError::Remote`], which displays that string
//! verbatim — a rejection reads the same over TCP as in process, though its structure does not
//! cross (clients react to *which* server error occurred, not to schema internals).

use seed_core::codec::{
    decode_object, decode_relationship, decode_schema, decode_value, encode_object,
    encode_relationship, encode_schema, encode_value,
};
use seed_core::{SeedError, VersionId};
use seed_server::{
    CheckoutSet, HealthStatus, PersistenceStatus, PromotionReceipt, QueryAnswer, RelationshipInfo,
    ReplicationRole, ReplicationStatus, Request, Response, ServerError, ServerResult, Update,
};
use seed_storage::{Decoder, Encoder};

use crate::error::{WireError, WireResult};

fn put_opt_str(e: &mut Encoder, v: Option<&str>) {
    match v {
        Some(s) => {
            e.put_bool(true).put_str(s);
        }
        None => {
            e.put_bool(false);
        }
    }
}

fn get_opt_string(d: &mut Decoder<'_>) -> WireResult<Option<String>> {
    Ok(if d.get_bool()? { Some(d.get_str()?.to_string()) } else { None })
}

fn put_string_pairs(e: &mut Encoder, pairs: &[(String, String)]) {
    e.put_varint(pairs.len() as u64);
    for (a, b) in pairs {
        e.put_str(a).put_str(b);
    }
}

fn get_string_pairs(d: &mut Decoder<'_>) -> WireResult<Vec<(String, String)>> {
    let n = d.get_varint()? as usize;
    let mut pairs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        pairs.push((d.get_str()?.to_string(), d.get_str()?.to_string()));
    }
    Ok(pairs)
}

fn bad_tag(what: &str, tag: u8) -> WireError {
    WireError::Recoverable(format!("unknown {what} tag {tag}"))
}

// --------------------------------------------------------------------------------------------
// Errors
// --------------------------------------------------------------------------------------------

fn encode_seed_error(e: &mut Encoder, err: &SeedError) {
    match err {
        SeedError::NotFound(s) => {
            e.put_u8(0).put_str(s);
        }
        SeedError::DuplicateName(s) => {
            e.put_u8(1).put_str(s);
        }
        SeedError::DomainMismatch { expected, found } => {
            e.put_u8(2).put_str(expected).put_str(found);
        }
        SeedError::Version(s) => {
            e.put_u8(3).put_str(s);
        }
        SeedError::TransitionRejected(s) => {
            e.put_u8(4).put_str(s);
        }
        SeedError::Pattern(s) => {
            e.put_u8(5).put_str(s);
        }
        SeedError::Transaction(s) => {
            e.put_u8(6).put_str(s);
        }
        SeedError::Reclassification(s) => {
            e.put_u8(7).put_str(s);
        }
        SeedError::ReadOnlyVersion(s) => {
            e.put_u8(8).put_str(s);
        }
        SeedError::Invalid(s) => {
            e.put_u8(9).put_str(s);
        }
        // Foreign-typed variants: ship the rendered text (see module docs).
        SeedError::Schema(_)
        | SeedError::Storage(_)
        | SeedError::Inconsistent(_)
        | SeedError::Remote(_) => {
            e.put_u8(10).put_str(&err.to_string());
        }
    }
}

fn decode_seed_error(d: &mut Decoder<'_>) -> WireResult<SeedError> {
    Ok(match d.get_u8()? {
        0 => SeedError::NotFound(d.get_str()?.to_string()),
        1 => SeedError::DuplicateName(d.get_str()?.to_string()),
        2 => SeedError::DomainMismatch {
            expected: d.get_str()?.to_string(),
            found: d.get_str()?.to_string(),
        },
        3 => SeedError::Version(d.get_str()?.to_string()),
        4 => SeedError::TransitionRejected(d.get_str()?.to_string()),
        5 => SeedError::Pattern(d.get_str()?.to_string()),
        6 => SeedError::Transaction(d.get_str()?.to_string()),
        7 => SeedError::Reclassification(d.get_str()?.to_string()),
        8 => SeedError::ReadOnlyVersion(d.get_str()?.to_string()),
        9 => SeedError::Invalid(d.get_str()?.to_string()),
        10 => SeedError::Remote(d.get_str()?.to_string()),
        other => return Err(bad_tag("seed error", other)),
    })
}

fn encode_server_error(e: &mut Encoder, err: &ServerError) {
    match err {
        ServerError::Locked { object, holder } => {
            e.put_u8(0).put_str(object).put_u64(*holder);
        }
        ServerError::NotCheckedOut(s) => {
            e.put_u8(1).put_str(s);
        }
        ServerError::Rejected(inner) => {
            e.put_u8(2);
            encode_seed_error(e, inner);
        }
        ServerError::Unknown(s) => {
            e.put_u8(3).put_str(s);
        }
        ServerError::Query(s) => {
            e.put_u8(4).put_str(s);
        }
        ServerError::Disconnected => {
            e.put_u8(5);
        }
        ServerError::Transport(s) => {
            e.put_u8(6).put_str(s);
        }
        ServerError::Protocol(s) => {
            e.put_u8(7).put_str(s);
        }
        ServerError::ReadOnlyReplica { primary } => {
            e.put_u8(8).put_str(primary);
        }
        ServerError::Fenced { new_primary, epoch } => {
            e.put_u8(9).put_str(new_primary).put_u64(*epoch);
        }
    }
}

fn decode_server_error(d: &mut Decoder<'_>) -> WireResult<ServerError> {
    Ok(match d.get_u8()? {
        0 => ServerError::Locked { object: d.get_str()?.to_string(), holder: d.get_u64()? },
        1 => ServerError::NotCheckedOut(d.get_str()?.to_string()),
        2 => ServerError::Rejected(decode_seed_error(d)?),
        3 => ServerError::Unknown(d.get_str()?.to_string()),
        4 => ServerError::Query(d.get_str()?.to_string()),
        5 => ServerError::Disconnected,
        6 => ServerError::Transport(d.get_str()?.to_string()),
        7 => ServerError::Protocol(d.get_str()?.to_string()),
        8 => ServerError::ReadOnlyReplica { primary: d.get_str()?.to_string() },
        9 => ServerError::Fenced { new_primary: d.get_str()?.to_string(), epoch: d.get_u64()? },
        other => return Err(bad_tag("server error", other)),
    })
}

// --------------------------------------------------------------------------------------------
// Updates
// --------------------------------------------------------------------------------------------

fn encode_update(e: &mut Encoder, update: &Update) {
    match update {
        Update::CreateObject { class, name } => {
            e.put_u8(0).put_str(class).put_str(name);
        }
        Update::CreateDependent { parent, class_local, value } => {
            e.put_u8(1).put_str(parent).put_str(class_local);
            encode_value(e, value);
        }
        Update::CreateDependentNamed { parent, class_local, name, value } => {
            e.put_u8(2).put_str(parent).put_str(class_local).put_str(name);
            encode_value(e, value);
        }
        Update::SetValue { object, value } => {
            e.put_u8(3).put_str(object);
            encode_value(e, value);
        }
        Update::Reclassify { object, new_class } => {
            e.put_u8(4).put_str(object).put_str(new_class);
        }
        Update::CreateRelationship { association, bindings } => {
            e.put_u8(5).put_str(association);
            put_string_pairs(e, bindings);
        }
        Update::ReclassifyRelationship { association, bindings, new_association } => {
            e.put_u8(6).put_str(association);
            put_string_pairs(e, bindings);
            e.put_str(new_association);
        }
        Update::DeleteObject { object } => {
            e.put_u8(7).put_str(object);
        }
    }
}

fn decode_update(d: &mut Decoder<'_>) -> WireResult<Update> {
    Ok(match d.get_u8()? {
        0 => {
            Update::CreateObject { class: d.get_str()?.to_string(), name: d.get_str()?.to_string() }
        }
        1 => Update::CreateDependent {
            parent: d.get_str()?.to_string(),
            class_local: d.get_str()?.to_string(),
            value: decode_value(d)?,
        },
        2 => Update::CreateDependentNamed {
            parent: d.get_str()?.to_string(),
            class_local: d.get_str()?.to_string(),
            name: d.get_str()?.to_string(),
            value: decode_value(d)?,
        },
        3 => Update::SetValue { object: d.get_str()?.to_string(), value: decode_value(d)? },
        4 => Update::Reclassify {
            object: d.get_str()?.to_string(),
            new_class: d.get_str()?.to_string(),
        },
        5 => Update::CreateRelationship {
            association: d.get_str()?.to_string(),
            bindings: get_string_pairs(d)?,
        },
        6 => Update::ReclassifyRelationship {
            association: d.get_str()?.to_string(),
            bindings: get_string_pairs(d)?,
            new_association: d.get_str()?.to_string(),
        },
        7 => Update::DeleteObject { object: d.get_str()?.to_string() },
        other => return Err(bad_tag("update", other)),
    })
}

// --------------------------------------------------------------------------------------------
// Payload structs
// --------------------------------------------------------------------------------------------

fn encode_checkout_set(e: &mut Encoder, set: &CheckoutSet) {
    e.put_varint(set.objects.len() as u64);
    for o in &set.objects {
        encode_object(e, o);
    }
    e.put_varint(set.relationships.len() as u64);
    for r in &set.relationships {
        encode_relationship(e, r);
    }
}

fn decode_checkout_set(d: &mut Decoder<'_>) -> WireResult<CheckoutSet> {
    let n = d.get_varint()? as usize;
    let mut objects = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        objects.push(decode_object(d)?);
    }
    let n = d.get_varint()? as usize;
    let mut relationships = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        relationships.push(decode_relationship(d)?);
    }
    Ok(CheckoutSet { objects, relationships })
}

fn encode_query_answer(e: &mut Encoder, a: &QueryAnswer) {
    e.put_varint(a.names.len() as u64);
    for name in &a.names {
        e.put_str(name);
    }
    e.put_varint(a.count as u64);
    put_opt_str(e, a.plan.as_deref());
}

fn decode_query_answer(d: &mut Decoder<'_>) -> WireResult<QueryAnswer> {
    let n = d.get_varint()? as usize;
    let mut names = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        names.push(d.get_str()?.to_string());
    }
    let count = d.get_varint()? as usize;
    let plan = get_opt_string(d)?;
    Ok(QueryAnswer { names, count, plan })
}

fn encode_persistence_status(e: &mut Encoder, s: &PersistenceStatus) {
    e.put_bool(s.durable);
    put_opt_str(e, s.path.as_deref());
    e.put_u64(s.wal_bytes);
    e.put_varint(s.objects as u64);
    e.put_varint(s.relationships as u64);
    e.put_varint(s.versions as u64);
    let r = &s.replication;
    e.put_u8(match r.role {
        ReplicationRole::Primary => 0,
        ReplicationRole::Replica => 1,
    })
    .put_u64(r.applied_lsn)
    .put_u64(r.primary_lsn)
    .put_u32(r.subscribers)
    .put_u64(r.min_acked_lsn)
    .put_u64(r.snapshot_lsn);
}

fn decode_persistence_status(d: &mut Decoder<'_>) -> WireResult<PersistenceStatus> {
    Ok(PersistenceStatus {
        durable: d.get_bool()?,
        path: get_opt_string(d)?,
        wal_bytes: d.get_u64()?,
        objects: d.get_varint()? as usize,
        relationships: d.get_varint()? as usize,
        versions: d.get_varint()? as usize,
        replication: ReplicationStatus {
            role: match d.get_u8()? {
                0 => ReplicationRole::Primary,
                1 => ReplicationRole::Replica,
                other => return Err(bad_tag("replication role", other)),
            },
            applied_lsn: d.get_u64()?,
            primary_lsn: d.get_u64()?,
            subscribers: d.get_u32()?,
            min_acked_lsn: d.get_u64()?,
            snapshot_lsn: d.get_u64()?,
        },
    })
}

fn encode_registry_snapshot(e: &mut Encoder, s: &seed_obs::RegistrySnapshot) {
    e.put_varint(s.counters.len() as u64);
    for (name, value) in &s.counters {
        e.put_str(name).put_u64(*value);
    }
    e.put_varint(s.gauges.len() as u64);
    for (name, value) in &s.gauges {
        e.put_str(name).put_u64(*value as u64);
    }
    e.put_varint(s.histograms.len() as u64);
    for h in &s.histograms {
        e.put_str(&h.name).put_u64(h.count).put_u64(h.sum);
        e.put_varint(h.buckets.len() as u64);
        for (bound, cumulative) in &h.buckets {
            e.put_u64(*bound).put_u64(*cumulative);
        }
    }
}

fn decode_registry_snapshot(d: &mut Decoder<'_>) -> WireResult<seed_obs::RegistrySnapshot> {
    let n = d.get_varint()? as usize;
    let mut counters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        counters.push((d.get_str()?.to_string(), d.get_u64()?));
    }
    let n = d.get_varint()? as usize;
    let mut gauges = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        gauges.push((d.get_str()?.to_string(), d.get_u64()? as i64));
    }
    let n = d.get_varint()? as usize;
    let mut histograms = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.get_str()?.to_string();
        let count = d.get_u64()?;
        let sum = d.get_u64()?;
        let buckets_len = d.get_varint()? as usize;
        let mut buckets = Vec::with_capacity(buckets_len.min(1024));
        for _ in 0..buckets_len {
            buckets.push((d.get_u64()?, d.get_u64()?));
        }
        histograms.push(seed_obs::HistogramSnapshot { name, count, sum, buckets });
    }
    Ok(seed_obs::RegistrySnapshot { counters, gauges, histograms })
}

fn encode_health_status(e: &mut Encoder, h: &HealthStatus) {
    e.put_bool(h.ready)
        .put_u8(match h.role {
            ReplicationRole::Primary => 0,
            ReplicationRole::Replica => 1,
        })
        .put_u64(h.lag)
        .put_u64(h.lag_budget)
        .put_str(&h.detail);
}

fn decode_health_status(d: &mut Decoder<'_>) -> WireResult<HealthStatus> {
    Ok(HealthStatus {
        ready: d.get_bool()?,
        role: match d.get_u8()? {
            0 => ReplicationRole::Primary,
            1 => ReplicationRole::Replica,
            other => return Err(bad_tag("replication role", other)),
        },
        lag: d.get_u64()?,
        lag_budget: d.get_u64()?,
        detail: d.get_str()?.to_string(),
    })
}

fn encode_relationship_info(e: &mut Encoder, info: &RelationshipInfo) {
    e.put_str(&info.association);
    put_string_pairs(e, &info.bindings);
    e.put_bool(info.inherited);
}

fn decode_relationship_info(d: &mut Decoder<'_>) -> WireResult<RelationshipInfo> {
    Ok(RelationshipInfo {
        association: d.get_str()?.to_string(),
        bindings: get_string_pairs(d)?,
        inherited: d.get_bool()?,
    })
}

// --------------------------------------------------------------------------------------------
// Requests
// --------------------------------------------------------------------------------------------

/// Encodes one request into a frame payload.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut e = Encoder::new();
    match request {
        Request::Checkout { objects } => {
            e.put_u8(1).put_varint(objects.len() as u64);
            for name in objects {
                e.put_str(name);
            }
        }
        Request::Checkin { updates } => {
            e.put_u8(2).put_varint(updates.len() as u64);
            for update in updates {
                encode_update(&mut e, update);
            }
        }
        Request::Release => {
            e.put_u8(3);
        }
        Request::Retrieve { name } => {
            e.put_u8(4).put_str(name);
        }
        Request::Query { text } => {
            e.put_u8(5).put_str(text);
        }
        Request::CreateVersion { comment } => {
            e.put_u8(6).put_str(comment);
        }
        Request::Persistence => {
            e.put_u8(7);
        }
        Request::Checkpoint => {
            e.put_u8(8);
        }
        Request::Schema => {
            e.put_u8(9);
        }
        Request::Children { name } => {
            e.put_u8(10).put_str(name);
        }
        Request::Prefix { prefix } => {
            e.put_u8(11).put_str(prefix);
        }
        Request::RelationshipsOf { name } => {
            e.put_u8(12).put_str(name);
        }
        Request::ObjectsOfClass { class, transitive } => {
            e.put_u8(13).put_str(class).put_bool(*transitive);
        }
        Request::RelationshipCount { association, transitive } => {
            e.put_u8(14).put_str(association).put_bool(*transitive);
        }
        Request::Completeness => {
            e.put_u8(15);
        }
        Request::Shutdown => {
            e.put_u8(16);
        }
        Request::Stats => {
            e.put_u8(17);
        }
        Request::Health => {
            e.put_u8(18);
        }
        Request::Promote { epoch, new_primary } => {
            e.put_u8(19).put_u64(*epoch).put_str(new_primary);
        }
    }
    e.finish()
}

/// Decodes one request from a frame payload.
pub fn decode_request(bytes: &[u8]) -> WireResult<Request> {
    let mut d = Decoder::new(bytes);
    let request = match d.get_u8()? {
        1 => {
            let n = d.get_varint()? as usize;
            let mut objects = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                objects.push(d.get_str()?.to_string());
            }
            Request::Checkout { objects }
        }
        2 => {
            let n = d.get_varint()? as usize;
            let mut updates = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                updates.push(decode_update(&mut d)?);
            }
            Request::Checkin { updates }
        }
        3 => Request::Release,
        4 => Request::Retrieve { name: d.get_str()?.to_string() },
        5 => Request::Query { text: d.get_str()?.to_string() },
        6 => Request::CreateVersion { comment: d.get_str()?.to_string() },
        7 => Request::Persistence,
        8 => Request::Checkpoint,
        9 => Request::Schema,
        10 => Request::Children { name: d.get_str()?.to_string() },
        11 => Request::Prefix { prefix: d.get_str()?.to_string() },
        12 => Request::RelationshipsOf { name: d.get_str()?.to_string() },
        13 => {
            Request::ObjectsOfClass { class: d.get_str()?.to_string(), transitive: d.get_bool()? }
        }
        14 => Request::RelationshipCount {
            association: d.get_str()?.to_string(),
            transitive: d.get_bool()?,
        },
        15 => Request::Completeness,
        16 => Request::Shutdown,
        17 => Request::Stats,
        18 => Request::Health,
        19 => Request::Promote { epoch: d.get_u64()?, new_primary: d.get_str()?.to_string() },
        other => return Err(bad_tag("request", other)),
    };
    if !d.is_exhausted() {
        return Err(WireError::Recoverable(format!(
            "{} trailing bytes after request",
            d.remaining()
        )));
    }
    Ok(request)
}

// --------------------------------------------------------------------------------------------
// Responses
// --------------------------------------------------------------------------------------------

fn encode_records(e: &mut Encoder, records: &[seed_core::ObjectRecord]) {
    e.put_varint(records.len() as u64);
    for r in records {
        encode_object(e, r);
    }
}

fn decode_records(d: &mut Decoder<'_>) -> WireResult<Vec<seed_core::ObjectRecord>> {
    let n = d.get_varint()? as usize;
    let mut records = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        records.push(decode_object(d)?);
    }
    Ok(records)
}

/// Encodes one reply into a frame payload: a response, or a refusal as the `Error` answer.
pub fn encode_response(reply: &ServerResult<Response>) -> Vec<u8> {
    let mut e = Encoder::new();
    let response = match reply {
        Ok(response) => response,
        Err(err) => {
            e.put_u8(11);
            encode_server_error(&mut e, err);
            return e.finish();
        }
    };
    match response {
        Response::Checkout(set) => {
            e.put_u8(1);
            encode_checkout_set(&mut e, set);
        }
        Response::Ack => {
            e.put_u8(2);
        }
        Response::Object(record) => {
            e.put_u8(3);
            encode_object(&mut e, record);
        }
        Response::Answer(answer) => {
            e.put_u8(4);
            encode_query_answer(&mut e, answer);
        }
        Response::Version(version) => {
            e.put_u8(5).put_str(&version.to_string());
        }
        Response::Persistence(status) => {
            e.put_u8(6);
            encode_persistence_status(&mut e, status);
        }
        Response::Schema(schema) => {
            e.put_u8(7);
            encode_schema(&mut e, schema);
        }
        Response::Objects(records) => {
            e.put_u8(8);
            encode_records(&mut e, records);
        }
        Response::Relationships(infos) => {
            e.put_u8(9).put_varint(infos.len() as u64);
            for info in infos {
                encode_relationship_info(&mut e, info);
            }
        }
        Response::Count(n) => {
            e.put_u8(10).put_varint(*n as u64);
        }
        Response::ShuttingDown => {
            e.put_u8(12);
        }
        Response::Stats(snapshot) => {
            e.put_u8(13);
            encode_registry_snapshot(&mut e, snapshot);
        }
        Response::Health(health) => {
            e.put_u8(14);
            encode_health_status(&mut e, health);
        }
        Response::Promoted(receipt) => {
            e.put_u8(15).put_u64(receipt.epoch).put_u64(receipt.last_lsn);
        }
    }
    e.finish()
}

/// Decodes one reply from a frame payload; the `Error` answer decodes as the `Err`.
pub fn decode_response(bytes: &[u8]) -> WireResult<ServerResult<Response>> {
    let mut d = Decoder::new(bytes);
    let reply = match d.get_u8()? {
        1 => Ok(Response::Checkout(decode_checkout_set(&mut d)?)),
        2 => Ok(Response::Ack),
        3 => Ok(Response::Object(decode_object(&mut d)?)),
        4 => Ok(Response::Answer(decode_query_answer(&mut d)?)),
        5 => Ok(Response::Version(VersionId::parse(d.get_str()?)?)),
        6 => Ok(Response::Persistence(decode_persistence_status(&mut d)?)),
        7 => Ok(Response::Schema(decode_schema(&mut d)?)),
        8 => Ok(Response::Objects(decode_records(&mut d)?)),
        9 => {
            let n = d.get_varint()? as usize;
            let mut infos = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                infos.push(decode_relationship_info(&mut d)?);
            }
            Ok(Response::Relationships(infos))
        }
        10 => Ok(Response::Count(d.get_varint()? as usize)),
        11 => Err(decode_server_error(&mut d)?),
        12 => Ok(Response::ShuttingDown),
        13 => Ok(Response::Stats(decode_registry_snapshot(&mut d)?)),
        14 => Ok(Response::Health(decode_health_status(&mut d)?)),
        15 => {
            Ok(Response::Promoted(PromotionReceipt { epoch: d.get_u64()?, last_lsn: d.get_u64()? }))
        }
        other => return Err(bad_tag("response", other)),
    };
    if !d.is_exhausted() {
        return Err(WireError::Recoverable(format!(
            "{} trailing bytes after response",
            d.remaining()
        )));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A count of 2^36 elements, far past what any frame can hold.
    const HUGE: u64 = 1 << 36;

    /// A peer's counts size no allocation by themselves: a lying count fails on the bytes that
    /// are not there instead of reserving memory for them (which would abort the process).
    #[test]
    fn crafted_binding_count_in_a_checkout_answer_is_an_error() {
        let mut e = Encoder::new();
        e.put_u8(1).put_varint(0).put_varint(1); // Checkout: no objects, one relationship
        e.put_u64(1).put_u32(0).put_varint(HUGE); // id, association, binding count
        assert!(decode_response(&e.finish()).is_err());
    }

    #[test]
    fn crafted_class_count_in_a_schema_answer_is_an_error() {
        let mut e = Encoder::new();
        e.put_u8(7).put_str("Spec").put_varint(HUGE); // Schema: name, class count
        assert!(decode_response(&e.finish()).is_err());
    }
}
