//! Per-item binary codec and the keyed on-disk layout.
//!
//! Every piece of database state maps onto its **own** storage key, so that a committed
//! mutation can be made durable by writing only the records it touched (see
//! [`crate::durability`]).  The key space:
//!
//! | key                    | value                                            |
//! |------------------------|--------------------------------------------------|
//! | `meta`                 | format tag, id floors, current schema version, transition rules, version sequence, topology (epoch, fence, epoch history) |
//! | `o/<id:016x>`          | one [`ObjectRecord`] plus the patterns it inherits |
//! | `r/<id:016x>`          | one [`RelationshipRecord`]                       |
//! | `s/<svid:08x>`         | one published [`Schema`] version                 |
//! | `vi/<vid>`             | one version's metadata ([`VersionInfo`])         |
//! | `v/<vid>/o<id:016x>`   | an object's delta snapshot recorded at version `vid` |
//! | `v/<vid>/r<id:016x>`   | a relationship's delta snapshot recorded at `vid` |
//! | `d/o<id:016x>` etc.    | presence marker: the item is dirty (changed since the last version snapshot) |
//!
//! Ids are zero-padded hexadecimal so that lexicographic key order equals numeric id order and
//! each prefix (`o/`, `v/1.0/`, ...) names exactly one kind of record.  All values go through
//! the storage crate's explicit little-endian codec; nothing here touches serde.

use seed_schema::{
    AssociationId, AttachedProcedure, Cardinality, ClassId, Domain, RelationshipAttribute, Role,
    Schema, SchemaVersionId,
};
use std::fmt::Write as _;

use seed_storage::{Decoder, Encoder, Lsn};

use crate::error::{SeedError, SeedResult};
use crate::history::TransitionRule;
use crate::ident::{ItemId, ObjectId, RelationshipId, VersionId};
use crate::name::ObjectName;
use crate::object::ObjectRecord;
use crate::relationship::RelationshipRecord;
use crate::value::Value;
use crate::version::{ItemSnapshot, VersionInfo};

/// Version tag written into the `meta` record; bump on incompatible layout changes.  Format 2
/// added the log's epoch history.
pub(crate) const FORMAT_VERSION: u32 = 2;

/// The key of the meta record.
pub(crate) const KEY_META: &str = "meta";

// --------------------------------------------------------------------------------------------
// Key construction and parsing
// --------------------------------------------------------------------------------------------

/// Key prefixes of the per-item layout (each names one kind of record).
pub(crate) const PREFIX_OBJECT: &[u8] = b"o/";
pub(crate) const PREFIX_RELATIONSHIP: &[u8] = b"r/";
pub(crate) const PREFIX_SCHEMA: &[u8] = b"s/";
pub(crate) const PREFIX_VERSION_INFO: &[u8] = b"vi/";
pub(crate) const PREFIX_VERSION_DELTA: &[u8] = b"v/";
pub(crate) const PREFIX_DIRTY: &[u8] = b"d/";

/// One key of the layout (the table above), written straight into a buffer
/// ([`Key::write_to`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Key<'a> {
    Meta,
    Object(ObjectId),
    Relationship(RelationshipId),
    Schema(SchemaVersionId),
    VersionInfo(&'a VersionId),
    VersionDelta(&'a VersionId, ItemId),
    Dirty(ItemId),
}

impl Key<'_> {
    /// Writes the key's bytes (hot keys without the formatting machinery: a checkpoint
    /// writes one per item).
    pub(crate) fn write_to(self, e: &mut Encoder) {
        match self {
            Key::Meta => {
                e.put_raw(KEY_META.as_bytes());
            }
            Key::Object(id) => put_hex(e.put_raw(b"o/"), id.0, 16),
            Key::Relationship(id) => put_hex(e.put_raw(b"r/"), id.0, 16),
            Key::Schema(id) => put_hex(e.put_raw(b"s/"), u64::from(id.0), 8),
            Key::VersionInfo(vid) => {
                write!(e, "vi/{vid}").expect("writing into a buffer cannot fail");
            }
            Key::VersionDelta(vid, item) => {
                write!(e, "v/{vid}/").expect("writing into a buffer cannot fail");
                put_item_suffix(e, item);
            }
            Key::Dirty(item) => put_item_suffix(e.put_raw(b"d/"), item),
        }
    }

    /// The key's bytes.
    pub(crate) fn to_vec(self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.write_to(&mut e);
        e.finish()
    }
}

/// `value` as `digits` lower-case hex digits, zero-padded.
fn put_hex(e: &mut Encoder, value: u64, digits: usize) {
    let mut text = [0u8; 16];
    for (i, digit) in text[..digits].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(value >> (4 * (digits - 1 - i))) as usize & 0xF];
    }
    e.put_raw(&text[..digits]);
}

/// `o<id:016x>` or `r<id:016x>`: one item inside a version-delta or dirty key.
fn put_item_suffix(e: &mut Encoder, item: ItemId) {
    match item {
        ItemId::Object(o) => put_hex(e.put_raw(b"o"), o.0, 16),
        ItemId::Relationship(r) => put_hex(e.put_raw(b"r"), r.0, 16),
    }
}

/// The text of `key` after `prefix`.
fn key_text<'k>(key: &'k [u8], prefix: &str, what: &str) -> SeedResult<&'k str> {
    std::str::from_utf8(key)
        .ok()
        .and_then(|text| text.strip_prefix(prefix))
        .ok_or_else(|| SeedError::Invalid(format!("malformed {what} key {key:?}")))
}

/// The number of a `<prefix><hex>` key.
fn parse_hex_key(key: &[u8], prefix: &str, what: &str) -> SeedResult<u64> {
    u64::from_str_radix(key_text(key, prefix, what)?, 16)
        .map_err(|_| SeedError::Invalid(format!("malformed {what} key {key:?}")))
}

/// Parses an `o/<id>` key back into its object id.
pub(crate) fn parse_object_key(key: &[u8]) -> SeedResult<ObjectId> {
    parse_hex_key(key, "o/", "object").map(ObjectId)
}

/// Parses an `r/<id>` key back into its relationship id.
pub(crate) fn parse_relationship_key(key: &[u8]) -> SeedResult<RelationshipId> {
    parse_hex_key(key, "r/", "relationship").map(RelationshipId)
}

/// Parses an `s/<svid>` key back into its schema version id.
pub(crate) fn parse_schema_key(key: &[u8]) -> SeedResult<SchemaVersionId> {
    let id = parse_hex_key(key, "s/", "schema")?;
    u32::try_from(id).map(SchemaVersionId).map_err(|_| SeedError::Invalid(format!("schema {id}")))
}

/// Parses a `vi/<vid>` key back into its version id.
pub(crate) fn parse_version_info_key(key: &[u8]) -> SeedResult<VersionId> {
    VersionId::parse(key_text(key, "vi/", "version info")?)
}

fn parse_item_suffix(s: &str) -> SeedResult<ItemId> {
    let bad = || SeedError::Invalid(format!("malformed item key suffix '{s}'"));
    let (tag, hex) = s.split_at(1.min(s.len()));
    let id = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
    match tag {
        "o" => Ok(ItemId::Object(ObjectId(id))),
        "r" => Ok(ItemId::Relationship(RelationshipId(id))),
        _ => Err(bad()),
    }
}

/// Parses a `v/<vid>/<item>` key back into its version id and item.
pub(crate) fn parse_version_delta_key(key: &[u8]) -> SeedResult<(VersionId, ItemId)> {
    let rest = key_text(key, "v/", "version delta")?;
    let (vid, item) = rest
        .rsplit_once('/')
        .ok_or_else(|| SeedError::Invalid(format!("malformed version delta key {key:?}")))?;
    Ok((VersionId::parse(vid)?, parse_item_suffix(item)?))
}

/// Parses a `d/<item>` key back into the dirty item.
pub(crate) fn parse_dirty_key(key: &[u8]) -> SeedResult<ItemId> {
    parse_item_suffix(key_text(key, "d/", "dirty")?)
}

// --------------------------------------------------------------------------------------------
// Value encoding
// --------------------------------------------------------------------------------------------

/// Encodes one [`Value`] (tag byte + payload).  Public because the network layer (`seed-net`)
/// reuses the per-item encodings as its wire representation.
pub fn encode_value(e: &mut Encoder, v: &Value) {
    match v {
        Value::String(s) => {
            e.put_u8(0).put_str(s);
        }
        Value::Integer(i) => {
            e.put_u8(1).put_i64(*i);
        }
        Value::Real(r) => {
            e.put_u8(2).put_f64(*r);
        }
        Value::Boolean(b) => {
            e.put_u8(3).put_bool(*b);
        }
        Value::Date { year, month, day } => {
            e.put_u8(4).put_i64(*year as i64).put_u8(*month).put_u8(*day);
        }
        Value::Symbol(s) => {
            e.put_u8(5).put_str(s);
        }
        Value::Text(s) => {
            e.put_u8(6).put_str(s);
        }
        Value::Undefined => {
            e.put_u8(7);
        }
    }
}

/// Decodes one [`Value`] written by [`encode_value`].
pub fn decode_value(d: &mut Decoder<'_>) -> SeedResult<Value> {
    Ok(match d.get_u8()? {
        0 => Value::String(d.get_str()?.to_string()),
        1 => Value::Integer(d.get_i64()?),
        2 => Value::Real(d.get_f64()?),
        3 => Value::Boolean(d.get_bool()?),
        4 => Value::Date { year: d.get_i64()? as i32, month: d.get_u8()?, day: d.get_u8()? },
        5 => Value::Symbol(d.get_str()?.to_string()),
        6 => Value::Text(d.get_str()?.to_string()),
        7 => Value::Undefined,
        other => return Err(SeedError::Invalid(format!("unknown value tag {other}"))),
    })
}

// --------------------------------------------------------------------------------------------
// Domain / cardinality / procedure encoding
// --------------------------------------------------------------------------------------------

pub(crate) fn encode_domain(e: &mut Encoder, d: &Domain) {
    match d {
        Domain::String => {
            e.put_u8(0);
        }
        Domain::Integer => {
            e.put_u8(1);
        }
        Domain::Real => {
            e.put_u8(2);
        }
        Domain::Boolean => {
            e.put_u8(3);
        }
        Domain::Date => {
            e.put_u8(4);
        }
        Domain::Text => {
            e.put_u8(5);
        }
        Domain::Enumeration(lits) => {
            e.put_u8(6).put_varint(lits.len() as u64);
            for lit in lits {
                e.put_str(lit);
            }
        }
    }
}

pub(crate) fn decode_domain(d: &mut Decoder<'_>) -> SeedResult<Domain> {
    Ok(match d.get_u8()? {
        0 => Domain::String,
        1 => Domain::Integer,
        2 => Domain::Real,
        3 => Domain::Boolean,
        4 => Domain::Date,
        5 => Domain::Text,
        6 => {
            let n = d.get_varint()? as usize;
            let mut lits = Vec::with_capacity(n.min(d.remaining()));
            for _ in 0..n {
                lits.push(d.get_str()?.to_string());
            }
            Domain::Enumeration(lits)
        }
        other => return Err(SeedError::Invalid(format!("unknown domain tag {other}"))),
    })
}

pub(crate) fn encode_cardinality(e: &mut Encoder, c: &Cardinality) {
    e.put_u32(c.min);
    match c.max {
        Some(m) => {
            e.put_bool(true).put_u32(m);
        }
        None => {
            e.put_bool(false);
        }
    }
}

pub(crate) fn decode_cardinality(d: &mut Decoder<'_>) -> SeedResult<Cardinality> {
    let min = d.get_u32()?;
    let max = if d.get_bool()? { Some(d.get_u32()?) } else { None };
    Cardinality::new(min, max).map_err(SeedError::from)
}

pub(crate) fn encode_procedure(e: &mut Encoder, p: &AttachedProcedure) {
    match p {
        AttachedProcedure::ValueRange { min, max } => {
            e.put_u8(0);
            match min {
                Some(v) => {
                    e.put_bool(true).put_i64(*v);
                }
                None => {
                    e.put_bool(false);
                }
            }
            match max {
                Some(v) => {
                    e.put_bool(true).put_i64(*v);
                }
                None => {
                    e.put_bool(false);
                }
            }
        }
        AttachedProcedure::ValueNotEmpty => {
            e.put_u8(1);
        }
        AttachedProcedure::ValueContains(s) => {
            e.put_u8(2).put_str(s);
        }
        AttachedProcedure::MaxLength(n) => {
            e.put_u8(3).put_varint(*n as u64);
        }
        AttachedProcedure::Named(s) => {
            e.put_u8(4).put_str(s);
        }
    }
}

pub(crate) fn decode_procedure(d: &mut Decoder<'_>) -> SeedResult<AttachedProcedure> {
    Ok(match d.get_u8()? {
        0 => {
            let min = if d.get_bool()? { Some(d.get_i64()?) } else { None };
            let max = if d.get_bool()? { Some(d.get_i64()?) } else { None };
            AttachedProcedure::ValueRange { min, max }
        }
        1 => AttachedProcedure::ValueNotEmpty,
        2 => AttachedProcedure::ValueContains(d.get_str()?.to_string()),
        3 => AttachedProcedure::MaxLength(d.get_varint()? as usize),
        4 => AttachedProcedure::Named(d.get_str()?.to_string()),
        other => return Err(SeedError::Invalid(format!("unknown procedure tag {other}"))),
    })
}

// --------------------------------------------------------------------------------------------
// Schema encoding
// --------------------------------------------------------------------------------------------

/// Encodes one [`Schema`]: exactly the bytes of its `s/<svid>` record.  Public because the
/// network layer (`seed-net`) ships these bytes as its `Schema` answer.
pub fn encode_schema(e: &mut Encoder, schema: &Schema) {
    e.put_str(&schema.name);
    e.put_varint(schema.class_count() as u64);
    for class in schema.classes() {
        e.put_str(&class.name);
        match class.owner {
            Some(o) => {
                e.put_bool(true).put_u32(o.0);
            }
            None => {
                e.put_bool(false);
            }
        }
        encode_cardinality(e, &class.occurrence);
        match &class.domain {
            Some(d) => {
                e.put_bool(true);
                encode_domain(e, d);
            }
            None => {
                e.put_bool(false);
            }
        }
        match class.superclass {
            Some(s) => {
                e.put_bool(true).put_u32(s.0);
            }
            None => {
                e.put_bool(false);
            }
        }
        e.put_bool(class.covering);
        e.put_varint(class.procedures.len() as u64);
        for p in &class.procedures {
            encode_procedure(e, p);
        }
    }
    e.put_varint(schema.association_count() as u64);
    for assoc in schema.associations() {
        e.put_str(&assoc.name);
        e.put_varint(assoc.roles.len() as u64);
        for role in &assoc.roles {
            e.put_str(&role.name).put_u32(role.class.0);
            encode_cardinality(e, &role.cardinality);
        }
        e.put_bool(assoc.acyclic);
        match assoc.superassociation {
            Some(s) => {
                e.put_bool(true).put_u32(s.0);
            }
            None => {
                e.put_bool(false);
            }
        }
        e.put_bool(assoc.covering);
        e.put_varint(assoc.procedures.len() as u64);
        for p in &assoc.procedures {
            encode_procedure(e, p);
        }
        e.put_varint(assoc.attributes.len() as u64);
        for attr in &assoc.attributes {
            e.put_str(&attr.name);
            encode_domain(e, &attr.domain);
            e.put_bool(attr.required);
        }
    }
}

/// Decodes one [`Schema`] written by [`encode_schema`].
pub fn decode_schema(d: &mut Decoder<'_>) -> SeedResult<Schema> {
    let name = d.get_str()?.to_string();
    let mut schema = Schema::new(name);
    let class_count = d.get_varint()? as usize;
    struct PendingClass {
        superclass: Option<u32>,
        covering: bool,
        procedures: Vec<AttachedProcedure>,
    }
    let mut pending_classes = Vec::with_capacity(class_count.min(d.remaining()));
    for _ in 0..class_count {
        let name = d.get_str()?.to_string();
        let owner = if d.get_bool()? { Some(ClassId(d.get_u32()?)) } else { None };
        let occurrence = decode_cardinality(d)?;
        let domain = if d.get_bool()? { Some(decode_domain(d)?) } else { None };
        let superclass = if d.get_bool()? { Some(d.get_u32()?) } else { None };
        let covering = d.get_bool()?;
        let proc_count = d.get_varint()? as usize;
        let mut procedures = Vec::with_capacity(proc_count.min(d.remaining()));
        for _ in 0..proc_count {
            procedures.push(decode_procedure(d)?);
        }
        // Classes are encoded in id order, so re-adding them in order reproduces the ids.
        schema.add_class_full(name, owner, occurrence, domain)?;
        pending_classes.push(PendingClass { superclass, covering, procedures });
    }
    for (idx, pending) in pending_classes.into_iter().enumerate() {
        let id = ClassId(idx as u32);
        if let Some(sup) = pending.superclass {
            schema.set_superclass(id, ClassId(sup))?;
        }
        if pending.covering {
            schema.set_class_covering(id, true)?;
        }
        for p in pending.procedures {
            schema.attach_class_procedure(id, p)?;
        }
    }

    let assoc_count = d.get_varint()? as usize;
    struct PendingAssoc {
        superassociation: Option<u32>,
        covering: bool,
        procedures: Vec<AttachedProcedure>,
        attributes: Vec<RelationshipAttribute>,
    }
    let mut pending_assocs = Vec::with_capacity(assoc_count.min(d.remaining()));
    for _ in 0..assoc_count {
        let name = d.get_str()?.to_string();
        let role_count = d.get_varint()? as usize;
        let mut roles = Vec::with_capacity(role_count.min(d.remaining()));
        for _ in 0..role_count {
            let role_name = d.get_str()?.to_string();
            let class = ClassId(d.get_u32()?);
            let cardinality = decode_cardinality(d)?;
            roles.push(Role::new(role_name, class, cardinality));
        }
        let acyclic = d.get_bool()?;
        let superassociation = if d.get_bool()? { Some(d.get_u32()?) } else { None };
        let covering = d.get_bool()?;
        let proc_count = d.get_varint()? as usize;
        let mut procedures = Vec::with_capacity(proc_count.min(d.remaining()));
        for _ in 0..proc_count {
            procedures.push(decode_procedure(d)?);
        }
        let attr_count = d.get_varint()? as usize;
        let mut attributes = Vec::with_capacity(attr_count.min(d.remaining()));
        for _ in 0..attr_count {
            let attr_name = d.get_str()?.to_string();
            let domain = decode_domain(d)?;
            let required = d.get_bool()?;
            attributes.push(RelationshipAttribute::new(attr_name, domain, required));
        }
        schema.add_association(name, roles, acyclic)?;
        pending_assocs.push(PendingAssoc { superassociation, covering, procedures, attributes });
    }
    for (idx, pending) in pending_assocs.into_iter().enumerate() {
        let id = AssociationId(idx as u32);
        if let Some(sup) = pending.superassociation {
            schema.set_superassociation(id, AssociationId(sup))?;
        }
        if pending.covering {
            schema.set_association_covering(id, true)?;
        }
        for p in pending.procedures {
            schema.attach_association_procedure(id, p)?;
        }
        for attr in pending.attributes {
            schema.add_relationship_attribute(id, attr)?;
        }
    }
    Ok(schema)
}

/// Decodes a standalone `s/<svid>` record.
pub(crate) fn decode_schema_entry(bytes: &[u8]) -> SeedResult<Schema> {
    decode_whole(bytes, "a schema record", decode_schema)
}

/// Decodes one whole stored record with `decode`, which must consume every byte: a record
/// with trailing bytes is an error, not a record that decodes as if whole.
fn decode_whole<T>(
    bytes: &[u8],
    what: &str,
    decode: impl FnOnce(&mut Decoder<'_>) -> SeedResult<T>,
) -> SeedResult<T> {
    let mut d = Decoder::new(bytes);
    let record = decode(&mut d)?;
    match d.remaining() {
        0 => Ok(record),
        n => Err(SeedError::Invalid(format!("{n} trailing bytes after {what}"))),
    }
}

// --------------------------------------------------------------------------------------------
// Record encoding
// --------------------------------------------------------------------------------------------

/// Encodes one [`ObjectRecord`] (without inherits-links; the `o/<id>` storage record adds
/// those).  Public for reuse by the network wire format.
pub fn encode_object(e: &mut Encoder, o: &ObjectRecord) {
    e.put_u64(o.id.0).put_u32(o.class.0);
    put_name(e, &o.name);
    match o.parent {
        Some(p) => {
            e.put_bool(true).put_u64(p.0);
        }
        None => {
            e.put_bool(false);
        }
    }
    encode_value(e, &o.value);
    e.put_bool(o.is_pattern).put_bool(o.deleted);
}

/// Writes `name` exactly as `put_str(&name.to_string())` would, without building the string.
fn put_name(e: &mut Encoder, name: &ObjectName) {
    let digits = |i: u32| i.checked_ilog10().map_or(1, |d| d as usize + 1);
    let segments = name.segments();
    let len = segments.len() - 1
        + segments
            .iter()
            .map(|s| s.name.len() + s.index.map_or(0, |i| digits(i) + 2))
            .sum::<usize>();
    e.put_varint(len as u64);
    let start = e.len();
    for (i, segment) in segments.iter().enumerate() {
        if i > 0 {
            e.put_raw(b".");
        }
        e.put_raw(segment.name.as_bytes());
        if let Some(index) = segment.index {
            write!(e, "[{index}]").expect("writing into a buffer cannot fail");
        }
    }
    assert_eq!(e.len() - start, len, "an object name's length prefix must match its text");
}

/// Decodes one [`ObjectRecord`] written by [`encode_object`].
pub fn decode_object(d: &mut Decoder<'_>) -> SeedResult<ObjectRecord> {
    let id = ObjectId(d.get_u64()?);
    let class = ClassId(d.get_u32()?);
    let name = ObjectName::parse(d.get_str()?)?;
    let parent = if d.get_bool()? { Some(ObjectId(d.get_u64()?)) } else { None };
    let value = decode_value(d)?;
    let is_pattern = d.get_bool()?;
    let deleted = d.get_bool()?;
    Ok(ObjectRecord { id, class, name, parent, value, is_pattern, deleted })
}

/// Encodes one [`RelationshipRecord`].  Public for reuse by the network wire format.
pub fn encode_relationship(e: &mut Encoder, r: &RelationshipRecord) {
    e.put_u64(r.id.0).put_u32(r.association.0);
    e.put_varint(r.bindings.len() as u64);
    for (role, obj) in &r.bindings {
        e.put_str(role).put_u64(obj.0);
    }
    e.put_varint(r.attributes.len() as u64);
    for (name, value) in &r.attributes {
        e.put_str(name);
        encode_value(e, value);
    }
    e.put_bool(r.is_pattern).put_bool(r.deleted);
}

/// Decodes one [`RelationshipRecord`] written by [`encode_relationship`].
pub fn decode_relationship(d: &mut Decoder<'_>) -> SeedResult<RelationshipRecord> {
    let id = RelationshipId(d.get_u64()?);
    let association = AssociationId(d.get_u32()?);
    let binding_count = d.get_varint()? as usize;
    let mut bindings = Vec::with_capacity(binding_count.min(d.remaining()));
    for _ in 0..binding_count {
        let role = d.get_str()?.to_string();
        let obj = ObjectId(d.get_u64()?);
        bindings.push((role, obj));
    }
    let attr_count = d.get_varint()? as usize;
    let mut record = RelationshipRecord::new(id, association, bindings);
    for _ in 0..attr_count {
        let name = d.get_str()?.to_string();
        let value = decode_value(d)?;
        record.attributes.insert(name, value);
    }
    record.is_pattern = d.get_bool()?;
    record.deleted = d.get_bool()?;
    Ok(record)
}

/// The bytes one encoder call writes (staging a single record).
pub(crate) fn encoded(write: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut e = Encoder::new();
    write(&mut e);
    e.finish()
}

/// Encodes one `o/<id>` record: the object plus the patterns it inherits (the inherits-links
/// travel with the inheritor so that a pattern-inheritance change re-writes exactly one key).
pub(crate) fn encode_object_entry(e: &mut Encoder, o: &ObjectRecord, inherits: &[ObjectId]) {
    encode_object(e, o);
    e.put_varint(inherits.len() as u64);
    for p in inherits {
        e.put_u64(p.0);
    }
}

/// Decodes an `o/<id>` record into the object and its inherited patterns.
pub(crate) fn decode_object_entry(bytes: &[u8]) -> SeedResult<(ObjectRecord, Vec<ObjectId>)> {
    decode_whole(bytes, "an object record", |d| {
        let record = decode_object(d)?;
        let n = d.get_varint()? as usize;
        let mut inherits = Vec::with_capacity(n.min(d.remaining()));
        for _ in 0..n {
            inherits.push(ObjectId(d.get_u64()?));
        }
        Ok((record, inherits))
    })
}

/// Decodes an `r/<id>` record.
pub(crate) fn decode_relationship_entry(bytes: &[u8]) -> SeedResult<RelationshipRecord> {
    decode_whole(bytes, "a relationship record", decode_relationship)
}

// --------------------------------------------------------------------------------------------
// Version records
// --------------------------------------------------------------------------------------------

/// Encodes one `v/<vid>/<item>` delta snapshot.
pub(crate) fn encode_item_snapshot(e: &mut Encoder, snapshot: &ItemSnapshot) {
    match snapshot {
        ItemSnapshot::Object(o) => {
            e.put_u8(0);
            encode_object(e, o);
        }
        ItemSnapshot::Relationship(r) => {
            e.put_u8(1);
            encode_relationship(e, r);
        }
    }
}

/// Decodes a `v/<vid>/<item>` delta snapshot.
pub(crate) fn decode_item_snapshot(bytes: &[u8]) -> SeedResult<ItemSnapshot> {
    decode_whole(bytes, "a delta snapshot", |d| {
        Ok(match d.get_u8()? {
            0 => ItemSnapshot::Object(decode_object(d)?),
            1 => ItemSnapshot::Relationship(decode_relationship(d)?),
            other => return Err(SeedError::Invalid(format!("unknown snapshot tag {other}"))),
        })
    })
}

/// Encodes one `vi/<vid>` version-metadata record.
pub(crate) fn encode_version_info(e: &mut Encoder, info: &VersionInfo) {
    e.put_str(&info.id.to_string());
    match &info.parent {
        Some(p) => {
            e.put_bool(true).put_str(&p.to_string());
        }
        None => {
            e.put_bool(false);
        }
    }
    e.put_u32(info.schema_version.0);
    e.put_str(&info.comment);
    e.put_u64(info.seq);
    e.put_varint(info.delta_size as u64);
}

/// Decodes a `vi/<vid>` record.
pub(crate) fn decode_version_info(bytes: &[u8]) -> SeedResult<VersionInfo> {
    decode_whole(bytes, "a version record", |d| {
        let id = VersionId::parse(d.get_str()?)?;
        let parent = if d.get_bool()? { Some(VersionId::parse(d.get_str()?)?) } else { None };
        let schema_version = SchemaVersionId(d.get_u32()?);
        let comment = d.get_str()?.to_string();
        let seq = d.get_u64()?;
        let delta_size = d.get_varint()? as usize;
        Ok(VersionInfo { id, parent, schema_version, comment, seq, delta_size })
    })
}

// --------------------------------------------------------------------------------------------
// Transition rules and the meta record
// --------------------------------------------------------------------------------------------

pub(crate) fn encode_transition_rule(e: &mut Encoder, rule: &TransitionRule) {
    match rule {
        TransitionRule::NoDeletions => {
            e.put_u8(0);
        }
        TransitionRule::FrozenValues { class } => {
            e.put_u8(1).put_str(class);
        }
        TransitionRule::MonotonicValue { class } => {
            e.put_u8(2).put_str(class);
        }
        TransitionRule::MustDiffer => {
            e.put_u8(3);
        }
    }
}

pub(crate) fn decode_transition_rule(d: &mut Decoder<'_>) -> SeedResult<TransitionRule> {
    Ok(match d.get_u8()? {
        0 => TransitionRule::NoDeletions,
        1 => TransitionRule::FrozenValues { class: d.get_str()?.to_string() },
        2 => TransitionRule::MonotonicValue { class: d.get_str()?.to_string() },
        3 => TransitionRule::MustDiffer,
        other => return Err(SeedError::Invalid(format!("unknown transition-rule tag {other}"))),
    })
}

/// The small `meta` record: everything that is neither an item, a schema version nor a version
/// delta.  Rewritten on every durable commit (it is a few dozen bytes), which is what keeps the
/// id floors and the version sequence crash-consistent.
///
/// [`decode_meta`] reads every field, the topology ones (`epoch`, `fenced_to`) included, and
/// refuses a record of another format version; a record that ends early is an error, not a
/// default.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetaRecord {
    pub format: u32,
    pub object_floor: u64,
    pub relationship_floor: u64,
    pub current_schema: SchemaVersionId,
    pub rules: Vec<TransitionRule>,
    pub last_created: Option<VersionId>,
    pub version_seq: u64,
    /// Topology epoch: bumped by every promotion; the fencing tiebreaker.
    pub epoch: u64,
    /// When set, this store was fenced as primary: writes must be refused and redirected to
    /// the named address.  Persisted so a fenced primary that restarts *stays* fenced.
    pub fenced_to: Option<String>,
    /// The log's epoch history: `(epoch, first LSN)`, one entry per promotion, in log order.
    /// An LSN below every entry was written at epoch 0.
    pub epochs: Vec<(u64, Lsn)>,
}

pub(crate) fn encode_meta(e: &mut Encoder, meta: &MetaRecord) {
    e.put_u32(meta.format);
    e.put_u64(meta.object_floor).put_u64(meta.relationship_floor);
    e.put_u32(meta.current_schema.0);
    e.put_varint(meta.rules.len() as u64);
    for rule in &meta.rules {
        encode_transition_rule(e, rule);
    }
    match &meta.last_created {
        Some(v) => {
            e.put_bool(true).put_str(&v.to_string());
        }
        None => {
            e.put_bool(false);
        }
    }
    e.put_u64(meta.version_seq);
    e.put_u64(meta.epoch);
    match &meta.fenced_to {
        Some(addr) => {
            e.put_bool(true).put_str(addr);
        }
        None => {
            e.put_bool(false);
        }
    }
    e.put_varint(meta.epochs.len() as u64);
    for &(epoch, first) in &meta.epochs {
        e.put_u64(epoch).put_u64(first);
    }
}

pub(crate) fn decode_meta(bytes: &[u8]) -> SeedResult<MetaRecord> {
    decode_whole(bytes, "the meta record", decode_meta_fields)
}

fn decode_meta_fields(d: &mut Decoder<'_>) -> SeedResult<MetaRecord> {
    let format = d.get_u32()?;
    if format != FORMAT_VERSION {
        return Err(SeedError::Invalid(format!(
            "unsupported database format {format}; this build reads only format {FORMAT_VERSION} \
             (resync the directory from a primary or a backup)"
        )));
    }
    let object_floor = d.get_u64()?;
    let relationship_floor = d.get_u64()?;
    let current_schema = SchemaVersionId(d.get_u32()?);
    let rule_count = d.get_varint()? as usize;
    let mut rules = Vec::with_capacity(rule_count.min(d.remaining()));
    for _ in 0..rule_count {
        rules.push(decode_transition_rule(d)?);
    }
    let last_created = if d.get_bool()? { Some(VersionId::parse(d.get_str()?)?) } else { None };
    let version_seq = d.get_u64()?;
    let epoch = d.get_u64()?;
    let fenced_to = if d.get_bool()? { Some(d.get_str()?.to_string()) } else { None };
    let count = d.get_varint()? as usize;
    let mut epochs = Vec::with_capacity(count.min(d.remaining() / 16));
    for _ in 0..count {
        epochs.push((d.get_u64()?, d.get_u64()?));
    }
    Ok(MetaRecord {
        format,
        object_floor,
        relationship_floor,
        current_schema,
        rules,
        last_created,
        version_seq,
        epoch,
        fenced_to,
        epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seed_schema::figure3_schema;

    #[test]
    fn schema_roundtrips_through_binary_encoding() {
        let schema = figure3_schema();
        let bytes = encoded(|e| encode_schema(e, &schema));
        assert_eq!(decode_schema_entry(&bytes).unwrap(), schema);
    }

    #[test]
    fn values_roundtrip() {
        let values = vec![
            Value::string("Alarms"),
            Value::Integer(-9),
            Value::Real(2.5),
            Value::Boolean(true),
            Value::date(1986, 2, 5).unwrap(),
            Value::symbol("repeat"),
            Value::text("long body"),
            Value::Undefined,
        ];
        for v in values {
            let mut e = Encoder::new();
            encode_value(&mut e, &v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert_eq!(decode_value(&mut d).unwrap(), v);
        }
    }

    #[test]
    fn object_entry_roundtrips_with_inherits_links() {
        let mut record =
            ObjectRecord::new(ObjectId(7), ClassId(2), ObjectName::parse("Alarms").unwrap(), None);
        record.value = Value::string("x");
        record.is_pattern = false;
        let inherits = vec![ObjectId(3), ObjectId(9)];
        let bytes = encoded(|e| encode_object_entry(e, &record, &inherits));
        let (decoded, links) = decode_object_entry(&bytes).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(links, inherits);
    }

    #[test]
    fn keys_sort_by_id_and_parse_back() {
        let object_key = |id| Key::Object(ObjectId(id)).to_vec();
        assert!(object_key(2) < object_key(10));
        assert!(object_key(255) < object_key(256));
        assert_eq!(parse_object_key(&object_key(255)).unwrap(), ObjectId(255));
        let vid = VersionId::parse("1.0.2").unwrap();
        let key = Key::VersionDelta(&vid, ItemId::Object(ObjectId(77))).to_vec();
        assert!(key.starts_with(b"v/1.0.2/"));
        let (back_vid, back_item) = parse_version_delta_key(&key).unwrap();
        assert_eq!(back_vid, vid);
        assert_eq!(back_item, ItemId::Object(ObjectId(77)));
        let rkey = Key::VersionDelta(&vid, ItemId::Relationship(RelationshipId(5))).to_vec();
        assert_eq!(
            parse_version_delta_key(&rkey).unwrap().1,
            ItemId::Relationship(RelationshipId(5))
        );
        let dkey = Key::Dirty(ItemId::Relationship(RelationshipId(12))).to_vec();
        assert_eq!(parse_dirty_key(&dkey).unwrap(), ItemId::Relationship(RelationshipId(12)));
        assert!(parse_dirty_key(b"d/x123").is_err());
        assert!(parse_version_delta_key(b"v/not-a-key").is_err());
        assert_eq!(parse_schema_key(&Key::Schema(SchemaVersionId(26)).to_vec()).unwrap().0, 26);
        assert_eq!(parse_version_info_key(&Key::VersionInfo(&vid).to_vec()).unwrap(), vid);
    }

    #[test]
    fn version_info_roundtrips() {
        let info = VersionInfo {
            id: VersionId::parse("2.0").unwrap(),
            parent: Some(VersionId::parse("1.0").unwrap()),
            schema_version: SchemaVersionId(3),
            comment: "second release".to_string(),
            seq: 9,
            delta_size: 4,
        };
        assert_eq!(decode_version_info(&encoded(|e| encode_version_info(e, &info))).unwrap(), info);
    }

    #[test]
    fn meta_roundtrips_and_rejects_unknown_format() {
        let meta = MetaRecord {
            format: FORMAT_VERSION,
            object_floor: 42,
            relationship_floor: 17,
            current_schema: SchemaVersionId(2),
            rules: vec![
                TransitionRule::NoDeletions,
                TransitionRule::FrozenValues { class: "Data".to_string() },
            ],
            last_created: Some(VersionId::parse("3.0").unwrap()),
            version_seq: 11,
            epoch: 3,
            fenced_to: Some("10.0.0.9:7044".to_string()),
            epochs: vec![(1, 5), (3, 40)],
        };
        assert_eq!(decode_meta(&encoded(|e| encode_meta(e, &meta))).unwrap(), meta);
        let mut bad = meta.clone();
        bad.format = FORMAT_VERSION + 1;
        assert!(decode_meta(&encoded(|e| encode_meta(e, &bad))).is_err());
    }

    /// `bytes` with one more byte: a record that does not end where its decoder stops.
    fn extended(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.push(0);
        bytes
    }

    fn sample_object() -> ObjectRecord {
        let name = ObjectName::parse("Alarms").unwrap();
        let mut record = ObjectRecord::new(ObjectId(7), ClassId(2), name, None);
        record.value = Value::string("x");
        record
    }

    fn sample_relationship() -> RelationshipRecord {
        let bindings = vec![("from".to_string(), ObjectId(1)), ("by".to_string(), ObjectId(2))];
        RelationshipRecord::new(RelationshipId(4), AssociationId(0), bindings)
    }

    #[test]
    fn trailing_byte_after_an_object_record_is_an_error() {
        let bytes = encoded(|e| encode_object_entry(e, &sample_object(), &[ObjectId(3)]));
        assert!(decode_object_entry(&bytes).is_ok());
        assert!(decode_object_entry(&extended(bytes)).is_err());
    }

    #[test]
    fn trailing_byte_after_a_relationship_record_is_an_error() {
        let bytes = encoded(|e| encode_relationship(e, &sample_relationship()));
        assert!(decode_relationship_entry(&bytes).is_ok());
        assert!(decode_relationship_entry(&extended(bytes)).is_err());
    }

    #[test]
    fn trailing_byte_after_a_schema_record_is_an_error() {
        let bytes = encoded(|e| encode_schema(e, &figure3_schema()));
        assert!(decode_schema_entry(&bytes).is_ok());
        assert!(decode_schema_entry(&extended(bytes)).is_err());
    }

    #[test]
    fn trailing_byte_after_a_delta_snapshot_is_an_error() {
        for snapshot in [
            ItemSnapshot::Object(sample_object()),
            ItemSnapshot::Relationship(sample_relationship()),
        ] {
            let bytes = encoded(|e| encode_item_snapshot(e, &snapshot));
            assert_eq!(decode_item_snapshot(&bytes).unwrap(), snapshot);
            assert!(decode_item_snapshot(&extended(bytes)).is_err());
        }
    }

    #[test]
    fn trailing_byte_after_a_version_record_is_an_error() {
        let info = VersionInfo {
            id: VersionId::parse("1.0").unwrap(),
            parent: None,
            schema_version: SchemaVersionId(1),
            comment: "first".to_string(),
            seq: 1,
            delta_size: 2,
        };
        let bytes = encoded(|e| encode_version_info(e, &info));
        assert!(decode_version_info(&bytes).is_ok());
        assert!(decode_version_info(&extended(bytes)).is_err());
    }

    #[test]
    fn trailing_byte_after_the_meta_record_is_an_error() {
        let meta = MetaRecord {
            format: FORMAT_VERSION,
            object_floor: 1,
            relationship_floor: 1,
            current_schema: SchemaVersionId(1),
            rules: Vec::new(),
            last_created: None,
            version_seq: 0,
            epoch: 0,
            fenced_to: None,
            epochs: Vec::new(),
        };
        let bytes = encoded(|e| encode_meta(e, &meta));
        assert!(decode_meta(&bytes).is_ok());
        assert!(decode_meta(&extended(bytes)).is_err());
    }
}
