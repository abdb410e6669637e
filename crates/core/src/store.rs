//! The in-memory data store: the *current version* of the database.
//!
//! The store keeps every object and relationship ever created (deletion is logical) together
//! with the secondary indexes the operational interface needs: the name index (retrieval by
//! name is the prototype's primary access path), class and association extents, per-object
//! adjacency lists and the pattern-inheritance links.
//!
//! The store itself performs **no** consistency checking — it is a dumb, always-successful
//! container.  The [`crate::database::Database`] layer checks consistency *before* mutating the
//! store, which is how SEED "permanently ensures database consistency".

use std::collections::{BTreeMap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use seed_schema::{AssociationId, ClassId};

use crate::ident::{ItemId, ObjectId, RelationshipId};
use crate::index::{AttributeIndex, IndexKey, ValueOp};
use crate::object::ObjectRecord;
use crate::relationship::RelationshipRecord;

/// One object's new state for [`DataStore::apply_changes`]: its record plus the patterns it
/// inherits, or `None` when the object is gone.
pub(crate) type ObjectChange = (ObjectId, Option<(ObjectRecord, Vec<ObjectId>)>);

/// One relationship's new state for [`DataStore::apply_changes`], or `None` when it is gone.
pub(crate) type RelationshipChange = (RelationshipId, Option<RelationshipRecord>);

/// The mutable current state of a SEED database.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataStore {
    objects: HashMap<ObjectId, ObjectRecord>,
    relationships: HashMap<RelationshipId, RelationshipRecord>,
    /// name (string form) → object id, for *live* (possibly pattern) objects.
    name_index: BTreeMap<String, ObjectId>,
    /// class → ordered value index over live objects (patterns included; retrieval filters
    /// them).  Derived data, kept in lock-step by every insert/update/remove below.
    value_index: AttributeIndex,
    /// class → live object ids (patterns included; retrieval filters them).
    class_extent: HashMap<ClassId, HashSet<ObjectId>>,
    /// association → live relationship ids.
    association_extent: HashMap<AssociationId, HashSet<RelationshipId>>,
    /// object → live relationships it participates in.
    adjacency: HashMap<ObjectId, HashSet<RelationshipId>>,
    /// parent object → live dependent objects.
    children: HashMap<ObjectId, Vec<ObjectId>>,
    /// inheritor object → patterns it inherits.
    inherits: HashMap<ObjectId, HashSet<ObjectId>>,
    /// pattern object → its inheritors.
    inheritors: HashMap<ObjectId, HashSet<ObjectId>>,
    /// Items changed since the last version snapshot (drives delta version storage).
    dirty: HashSet<ItemId>,
    /// Items changed since the durability layer last flushed (drives per-item write-through;
    /// only populated while `journal` is on, so non-durable databases pay nothing).
    changed: HashSet<ItemId>,
    /// Whether the change journal is recording (enabled by `Database::open_durable`).
    journal: bool,
    next_object: u64,
    next_relationship: u64,
}

impl DataStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- id allocation --------------------------------------------------------------------------

    /// Allocates a fresh object id.
    pub fn allocate_object_id(&mut self) -> ObjectId {
        self.next_object += 1;
        ObjectId(self.next_object)
    }

    /// Allocates a fresh relationship id.
    pub fn allocate_relationship_id(&mut self) -> RelationshipId {
        self.next_relationship += 1;
        RelationshipId(self.next_relationship)
    }

    /// The highest object and relationship ids handed out so far.
    pub fn id_floor(&self) -> (u64, u64) {
        (self.next_object, self.next_relationship)
    }

    /// Raises the id counters so that future allocations stay above the given floor (used when
    /// a reconstructed version view becomes the working state).
    pub fn raise_id_floor(&mut self, object_floor: u64, relationship_floor: u64) {
        self.next_object = self.next_object.max(object_floor);
        self.next_relationship = self.next_relationship.max(relationship_floor);
    }

    // ----- dirty tracking -------------------------------------------------------------------------

    /// Items changed since the dirty set was last drained (used by the version manager).
    pub fn dirty_items(&self) -> &HashSet<ItemId> {
        &self.dirty
    }

    /// Clears the dirty set (after a version snapshot has recorded the changes).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    fn mark_dirty(&mut self, item: ItemId) {
        self.dirty.insert(item);
        if self.journal {
            self.changed.insert(item);
        }
    }

    /// Marks a set of items dirty (used when restoring a persisted dirty set).
    pub fn mark_dirty_bulk(&mut self, items: &[ItemId]) {
        self.dirty.extend(items.iter().copied());
    }

    /// Sets one item's dirty flag directly, without journaling — used when mirroring a shipped
    /// `d/` marker onto a replica's serving database, where the flag must track the primary's
    /// persisted dirty set rather than the local mutations that applied the batch.
    pub fn sync_dirty_mark(&mut self, item: ItemId, dirty: bool) {
        if dirty {
            self.dirty.insert(item);
        } else {
            self.dirty.remove(&item);
        }
    }

    // ----- change journal (write-through durability) -----------------------------------------------

    /// Turns the change journal on or off.  While on, every mutation records the touched item in
    /// a second set drained by [`DataStore::take_changed`] — the unit of work of the per-item
    /// write-through persistence layer.
    pub fn set_journal(&mut self, enabled: bool) {
        self.journal = enabled;
        if !enabled {
            self.changed.clear();
        }
    }

    /// Drains the change journal, returning the items touched since the last drain in sorted
    /// order (deterministic storage-transaction layout).
    pub fn take_changed(&mut self) -> Vec<ItemId> {
        let mut items: Vec<ItemId> = self.changed.drain().collect();
        items.sort();
        items
    }

    /// Puts drained items back into the change journal — used when staging them to storage
    /// failed after the drain, so a later commit retries instead of silently dropping them.
    pub fn requeue_changed(&mut self, items: &[ItemId]) {
        if self.journal {
            self.changed.extend(items.iter().copied());
        }
    }

    /// Brings the changed items to their given states — the O(delta) patch behind snapshot
    /// publication and incremental replica apply.  Index maintenance rides on the ordinary
    /// mutators, and the changes are applied in id order, so the result matches a store built
    /// from the new states directly.  An object's inherits-links travel with it, as in the
    /// durable codec, where the object record carries them.
    pub(crate) fn apply_changes(
        &mut self,
        mut objects: Vec<ObjectChange>,
        mut relationships: Vec<RelationshipChange>,
    ) {
        objects.sort_by_key(|(id, _)| *id);
        relationships.sort_by_key(|(id, _)| *id);
        // Cross-item renames within one delta (A→B while B→A) would corrupt the name index if
        // patched in place, because `update_object` unconditionally re-inserts the new name:
        // park every live-and-renamed (or removed) object under a collision-free temporary name
        // first, then apply the real records.
        for (oid, change) in &objects {
            let stale = match self.object(*oid) {
                Some(rec) if !rec.deleted => rec,
                _ => continue,
            };
            let needs_parking = match change {
                None => true,
                Some((new, _)) => new.name.to_string() != stale.name.to_string(),
            };
            if needs_parking {
                let parked = format!("\u{1}parked-{}", oid.0);
                self.update_object(*oid, |o| o.name = o.name.with_root_renamed(parked));
            }
        }
        for (oid, change) in objects {
            match change {
                Some((rec, inherits)) => {
                    if self.object(oid).is_some() {
                        self.update_object(oid, |o| *o = rec);
                    } else {
                        self.insert_object(rec);
                    }
                    for have in self.inherited_patterns(oid) {
                        if !inherits.contains(&have) {
                            self.remove_inherits(oid, have);
                        }
                    }
                    for pattern in inherits {
                        if !self.inherited_patterns(oid).contains(&pattern) {
                            self.add_inherits(oid, pattern);
                        }
                    }
                }
                None => {
                    self.remove_object(oid);
                }
            }
        }
        for (rid, change) in relationships {
            match change {
                Some(rec) => {
                    if self.relationship(rid).is_some() {
                        self.update_relationship(rid, |r| *r = rec);
                    } else {
                        self.insert_relationship(rec);
                    }
                }
                None => {
                    self.remove_relationship(rid);
                }
            }
        }
    }

    // ----- objects --------------------------------------------------------------------------------

    /// Inserts a new object record.
    pub fn insert_object(&mut self, record: ObjectRecord) {
        let id = record.id;
        if !record.deleted {
            // Version views and persistence replay tombstoned records through here too; only
            // live records enter the live indexes.  (A replayed tombstone must never shadow a
            // live object's name-index entry, and the planner's extent estimates count these
            // sets.)
            self.name_index.insert(record.name.to_string(), id);
            self.class_extent.entry(record.class).or_default().insert(id);
            self.value_index.insert(record.class, &record.value, id);
        }
        if let Some(parent) = record.parent {
            self.children.entry(parent).or_default().push(id);
        }
        self.next_object = self.next_object.max(id.0);
        self.objects.insert(id, record);
        self.mark_dirty(ItemId::Object(id));
    }

    /// Looks up an object record (live or deleted).
    pub fn object(&self, id: ObjectId) -> Option<&ObjectRecord> {
        self.objects.get(&id)
    }

    /// Looks up a *live* object record.
    pub fn live_object(&self, id: ObjectId) -> Option<&ObjectRecord> {
        self.objects.get(&id).filter(|o| !o.deleted)
    }

    /// Looks up a live object by its full name.
    pub fn object_by_name(&self, name: &str) -> Option<&ObjectRecord> {
        self.name_index.get(name).and_then(|id| self.live_object(*id))
    }

    /// Whether a live object with this name exists.
    pub fn name_taken(&self, name: &str) -> bool {
        self.object_by_name(name).is_some()
    }

    /// Mutates an object record through a closure; maintains the secondary indexes and the
    /// dirty set.  Returns `false` if the object does not exist.
    pub fn update_object(&mut self, id: ObjectId, f: impl FnOnce(&mut ObjectRecord)) -> bool {
        // Take a snapshot of index-relevant fields, mutate, then fix the indexes.
        let Some(record) = self.objects.get_mut(&id) else { return false };
        let old_name = record.name.to_string();
        let old_class = record.class;
        let old_key = IndexKey::of(&record.value);
        let was_deleted = record.deleted;
        f(record);
        let new_name = record.name.to_string();
        let new_class = record.class;
        let new_key = IndexKey::of(&record.value);
        let now_deleted = record.deleted;

        if old_name != new_name || (!was_deleted && now_deleted) {
            self.name_index.remove(&old_name);
        }
        if !now_deleted {
            self.name_index.insert(new_name, id);
        }
        if old_class != new_class || now_deleted != was_deleted {
            if let Some(ext) = self.class_extent.get_mut(&old_class) {
                ext.remove(&id);
            }
            if !now_deleted {
                self.class_extent.entry(new_class).or_default().insert(id);
            }
        }
        if old_class != new_class || old_key != new_key || now_deleted != was_deleted {
            if !was_deleted {
                if let Some(key) = old_key {
                    self.value_index.remove_key(old_class, &key, id);
                }
            }
            if !now_deleted {
                if let Some(key) = new_key {
                    self.value_index.insert_key(new_class, key, id);
                }
            }
        }
        self.mark_dirty(ItemId::Object(id));
        true
    }

    /// Marks an object (and nothing else — cascades are the database layer's job) as deleted.
    pub fn tombstone_object(&mut self, id: ObjectId) -> bool {
        self.update_object(id, |o| o.deleted = true)
    }

    /// Physically removes an object from the store and all indexes.  Only used to roll back a
    /// creation inside an aborted transaction — versioned data is never removed physically.
    pub fn remove_object(&mut self, id: ObjectId) -> Option<ObjectRecord> {
        let record = self.objects.remove(&id)?;
        if !record.deleted {
            // Tombstoned records left the live indexes when they were tombstoned; touching the
            // name index here could otherwise evict a live object that has reused the name.
            self.name_index.remove(&record.name.to_string());
            self.value_index.remove(record.class, &record.value, id);
        }
        if let Some(ext) = self.class_extent.get_mut(&record.class) {
            ext.remove(&id);
        }
        if let Some(parent) = record.parent {
            if let Some(children) = self.children.get_mut(&parent) {
                children.retain(|c| *c != id);
            }
        }
        self.children.remove(&id);
        self.adjacency.remove(&id);
        self.dirty.remove(&ItemId::Object(id));
        if self.journal {
            self.changed.insert(ItemId::Object(id));
        }
        // Drop any inherits links touching the object.
        if let Some(patterns) = self.inherits.remove(&id) {
            for p in patterns {
                if let Some(s) = self.inheritors.get_mut(&p) {
                    s.remove(&id);
                }
            }
        }
        if let Some(inheritors) = self.inheritors.remove(&id) {
            for i in inheritors {
                if let Some(s) = self.inherits.get_mut(&i) {
                    s.remove(&id);
                }
            }
        }
        Some(record)
    }

    /// Physically removes a relationship (rollback of an aborted creation only).
    pub fn remove_relationship(&mut self, id: RelationshipId) -> Option<RelationshipRecord> {
        let record = self.relationships.remove(&id)?;
        if let Some(ext) = self.association_extent.get_mut(&record.association) {
            ext.remove(&id);
        }
        for (_, obj) in &record.bindings {
            if let Some(adj) = self.adjacency.get_mut(obj) {
                adj.remove(&id);
            }
        }
        self.dirty.remove(&ItemId::Relationship(id));
        if self.journal {
            self.changed.insert(ItemId::Relationship(id));
        }
        Some(record)
    }

    /// Live dependent objects of `parent`.
    pub fn children_of(&self, parent: ObjectId) -> Vec<&ObjectRecord> {
        self.children
            .get(&parent)
            .map(|ids| ids.iter().filter_map(|id| self.live_object(*id)).collect())
            .unwrap_or_default()
    }

    /// Live dependent objects of `parent` belonging to `class`.
    pub fn children_of_class(&self, parent: ObjectId, class: ClassId) -> Vec<&ObjectRecord> {
        self.children_of(parent).into_iter().filter(|o| o.class == class).collect()
    }

    /// Live objects of exactly `class` (no subclass closure; patterns included).
    pub fn extent(&self, class: ClassId) -> Vec<&ObjectRecord> {
        self.class_extent
            .get(&class)
            .map(|ids| ids.iter().filter_map(|id| self.live_object(*id)).collect())
            .unwrap_or_default()
    }

    /// All object records, including deleted ones (used by persistence and versioning).
    pub fn all_objects(&self) -> impl Iterator<Item = &ObjectRecord> {
        self.objects.values()
    }

    /// All live, visible (non-pattern) objects.
    pub fn visible_objects(&self) -> impl Iterator<Item = &ObjectRecord> {
        self.objects.values().filter(|o| o.is_visible())
    }

    /// Number of live objects (patterns included).
    pub fn live_object_count(&self) -> usize {
        self.objects.values().filter(|o| !o.deleted).count()
    }

    /// Live objects whose name starts with `prefix` (in name order).
    pub fn objects_with_name_prefix(&self, prefix: &str) -> Vec<&ObjectRecord> {
        self.name_index
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .filter_map(|(_, id)| self.live_object(*id))
            .collect()
    }

    /// Number of name-index entries starting with `prefix`, counted with an early-exit budget
    /// of `cap` (the planner's cardinality estimate for a prefix range scan; a wide prefix
    /// stops counting at the competing scan cost instead of walking the whole index).
    pub fn name_prefix_count(&self, prefix: &str, cap: usize) -> usize {
        self.name_index
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .take(cap)
            .count()
    }

    // ----- secondary value index ------------------------------------------------------------------

    /// Live objects of exactly `class` whose value satisfies `op` against the query literal,
    /// resolved through the secondary value index (in ascending id order; patterns included).
    pub fn objects_by_value(
        &self,
        class: ClassId,
        op: ValueOp,
        literal: &str,
    ) -> Vec<&ObjectRecord> {
        self.value_index
            .matching(class, op, literal)
            .into_iter()
            .filter_map(|id| self.live_object(id))
            .collect()
    }

    /// Number of index matches [`DataStore::objects_by_value`] would resolve, counted with an
    /// early-exit budget of `cap` (see [`AttributeIndex::estimate_up_to`]).
    pub fn value_estimate(&self, class: ClassId, op: ValueOp, literal: &str, cap: usize) -> usize {
        self.value_index.estimate_up_to(class, op, literal, cap)
    }

    /// Number of live objects of exactly `class` (patterns included) — the planner's scan-cost
    /// proxy, read off the class extent without touching records.
    pub fn extent_size(&self, class: ClassId) -> usize {
        self.class_extent.get(&class).map(HashSet::len).unwrap_or(0)
    }

    /// Read access to the secondary value index.
    pub fn value_index(&self) -> &AttributeIndex {
        &self.value_index
    }

    // ----- relationships ---------------------------------------------------------------------------

    /// Inserts a new relationship record.
    pub fn insert_relationship(&mut self, record: RelationshipRecord) {
        let id = record.id;
        if !record.deleted {
            // Same rule as insert_object: replayed tombstones stay out of the live indexes.
            self.association_extent.entry(record.association).or_default().insert(id);
            for (_, obj) in &record.bindings {
                self.adjacency.entry(*obj).or_default().insert(id);
            }
        }
        self.next_relationship = self.next_relationship.max(id.0);
        self.relationships.insert(id, record);
        self.mark_dirty(ItemId::Relationship(id));
    }

    /// Looks up a relationship record (live or deleted).
    pub fn relationship(&self, id: RelationshipId) -> Option<&RelationshipRecord> {
        self.relationships.get(&id)
    }

    /// Looks up a live relationship record.
    pub fn live_relationship(&self, id: RelationshipId) -> Option<&RelationshipRecord> {
        self.relationships.get(&id).filter(|r| !r.deleted)
    }

    /// Mutates a relationship record; maintains indexes and the dirty set.
    pub fn update_relationship(
        &mut self,
        id: RelationshipId,
        f: impl FnOnce(&mut RelationshipRecord),
    ) -> bool {
        let Some(record) = self.relationships.get_mut(&id) else { return false };
        let old_assoc = record.association;
        let old_objects: Vec<ObjectId> = record.objects();
        let was_deleted = record.deleted;
        f(record);
        let new_assoc = record.association;
        let new_objects: Vec<ObjectId> = record.objects();
        let now_deleted = record.deleted;

        if old_assoc != new_assoc || now_deleted != was_deleted {
            if let Some(ext) = self.association_extent.get_mut(&old_assoc) {
                ext.remove(&id);
            }
            if !now_deleted {
                self.association_extent.entry(new_assoc).or_default().insert(id);
            }
        }
        if old_objects != new_objects || now_deleted != was_deleted {
            for obj in &old_objects {
                if let Some(adj) = self.adjacency.get_mut(obj) {
                    adj.remove(&id);
                }
            }
            if !now_deleted {
                for obj in &new_objects {
                    self.adjacency.entry(*obj).or_default().insert(id);
                }
            }
        }
        self.mark_dirty(ItemId::Relationship(id));
        true
    }

    /// Marks a relationship as deleted.
    pub fn tombstone_relationship(&mut self, id: RelationshipId) -> bool {
        self.update_relationship(id, |r| r.deleted = true)
    }

    /// Live relationships of exactly `association` (patterns included).
    pub fn association_extent(&self, association: AssociationId) -> Vec<&RelationshipRecord> {
        self.association_extent
            .get(&association)
            .map(|ids| ids.iter().filter_map(|id| self.live_relationship(*id)).collect())
            .unwrap_or_default()
    }

    /// Live relationships `object` participates in (patterns included).
    pub fn relationships_of(&self, object: ObjectId) -> Vec<&RelationshipRecord> {
        self.adjacency
            .get(&object)
            .map(|ids| ids.iter().filter_map(|id| self.live_relationship(*id)).collect())
            .unwrap_or_default()
    }

    /// All relationship records, including deleted ones.
    pub fn all_relationships(&self) -> impl Iterator<Item = &RelationshipRecord> {
        self.relationships.values()
    }

    /// Number of live relationships (patterns included).
    pub fn live_relationship_count(&self) -> usize {
        self.relationships.values().filter(|r| !r.deleted).count()
    }

    // ----- pattern inheritance links -----------------------------------------------------------------

    /// Records that `inheritor` inherits `pattern`.
    pub fn add_inherits(&mut self, inheritor: ObjectId, pattern: ObjectId) {
        self.inherits.entry(inheritor).or_default().insert(pattern);
        self.inheritors.entry(pattern).or_default().insert(inheritor);
        self.mark_dirty(ItemId::Object(inheritor));
    }

    /// Removes an inherits link.
    pub fn remove_inherits(&mut self, inheritor: ObjectId, pattern: ObjectId) -> bool {
        let removed =
            self.inherits.get_mut(&inheritor).map(|s| s.remove(&pattern)).unwrap_or(false);
        if removed {
            if let Some(s) = self.inheritors.get_mut(&pattern) {
                s.remove(&inheritor);
            }
            self.mark_dirty(ItemId::Object(inheritor));
        }
        removed
    }

    /// Patterns inherited by `inheritor`.
    pub fn inherited_patterns(&self, inheritor: ObjectId) -> Vec<ObjectId> {
        self.inherits
            .get(&inheritor)
            .map(|s| {
                let mut v: Vec<ObjectId> = s.iter().copied().collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    }

    /// Inheritors of `pattern`.
    pub fn inheritors_of(&self, pattern: ObjectId) -> Vec<ObjectId> {
        self.inheritors
            .get(&pattern)
            .map(|s| {
                let mut v: Vec<ObjectId> = s.iter().copied().collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    }

    /// All `(inheritor, pattern)` pairs (used by persistence).
    pub fn all_inherits_links(&self) -> Vec<(ObjectId, ObjectId)> {
        let mut out = Vec::new();
        for (inheritor, patterns) in &self.inherits {
            for pattern in patterns {
                out.push((*inheritor, *pattern));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ObjectName;
    use crate::value::Value;

    fn obj(store: &mut DataStore, name: &str, class: u32) -> ObjectId {
        let id = store.allocate_object_id();
        store.insert_object(ObjectRecord::new(id, ClassId(class), ObjectName::root(name), None));
        id
    }

    #[test]
    fn insert_and_lookup_objects() {
        let mut store = DataStore::new();
        let alarms = obj(&mut store, "Alarms", 0);
        let handler = obj(&mut store, "AlarmHandler", 1);
        assert_ne!(alarms, handler);
        assert_eq!(store.object_by_name("Alarms").unwrap().id, alarms);
        assert_eq!(store.live_object_count(), 2);
        assert_eq!(store.extent(ClassId(0)).len(), 1);
        assert!(store.name_taken("Alarms"));
        assert!(!store.name_taken("Sensor"));
    }

    #[test]
    fn update_maintains_name_and_class_indexes() {
        let mut store = DataStore::new();
        let alarms = obj(&mut store, "Alarms", 0);
        store.update_object(alarms, |o| o.class = ClassId(5));
        assert!(store.extent(ClassId(0)).is_empty());
        assert_eq!(store.extent(ClassId(5)).len(), 1);
        store.update_object(alarms, |o| o.name = ObjectName::root("AlarmMatrix"));
        assert!(store.object_by_name("Alarms").is_none());
        assert_eq!(store.object_by_name("AlarmMatrix").unwrap().id, alarms);
    }

    #[test]
    fn tombstone_removes_from_live_views_but_keeps_record() {
        let mut store = DataStore::new();
        let alarms = obj(&mut store, "Alarms", 0);
        assert!(store.tombstone_object(alarms));
        assert!(store.object_by_name("Alarms").is_none());
        assert!(store.live_object(alarms).is_none());
        assert!(store.object(alarms).is_some(), "record is kept for version views");
        assert_eq!(store.live_object_count(), 0);
        assert!(store.extent(ClassId(0)).is_empty());
    }

    #[test]
    fn children_are_tracked() {
        let mut store = DataStore::new();
        let alarms = obj(&mut store, "Alarms", 0);
        let text_id = store.allocate_object_id();
        store.insert_object(ObjectRecord::new(
            text_id,
            ClassId(2),
            ObjectName::parse("Alarms.Text").unwrap(),
            Some(alarms),
        ));
        assert_eq!(store.children_of(alarms).len(), 1);
        assert_eq!(store.children_of_class(alarms, ClassId(2)).len(), 1);
        assert!(store.children_of_class(alarms, ClassId(3)).is_empty());
        store.tombstone_object(text_id);
        assert!(store.children_of(alarms).is_empty());
    }

    #[test]
    fn relationships_update_adjacency_and_extents() {
        let mut store = DataStore::new();
        let alarms = obj(&mut store, "Alarms", 0);
        let handler = obj(&mut store, "AlarmHandler", 1);
        let rid = store.allocate_relationship_id();
        store.insert_relationship(RelationshipRecord::new(
            rid,
            AssociationId(0),
            vec![("from".into(), alarms), ("by".into(), handler)],
        ));
        assert_eq!(store.relationships_of(alarms).len(), 1);
        assert_eq!(store.association_extent(AssociationId(0)).len(), 1);
        // Re-classify to another association.
        store.update_relationship(rid, |r| r.association = AssociationId(1));
        assert!(store.association_extent(AssociationId(0)).is_empty());
        assert_eq!(store.association_extent(AssociationId(1)).len(), 1);
        // Delete.
        store.tombstone_relationship(rid);
        assert!(store.relationships_of(alarms).is_empty());
        assert!(store.association_extent(AssociationId(1)).is_empty());
        assert!(store.relationship(rid).is_some());
        assert_eq!(store.live_relationship_count(), 0);
    }

    #[test]
    fn dirty_tracking_records_changes() {
        let mut store = DataStore::new();
        assert!(store.dirty_items().is_empty());
        let alarms = obj(&mut store, "Alarms", 0);
        assert_eq!(store.dirty_items().len(), 1);
        store.clear_dirty();
        assert!(store.dirty_items().is_empty());
        store.update_object(alarms, |o| o.value = Value::string("x"));
        assert!(store.dirty_items().contains(&ItemId::Object(alarms)));
    }

    #[test]
    fn change_journal_drains_requeues_and_stays_off_by_default() {
        let mut store = DataStore::new();
        obj(&mut store, "NotJournaled", 0);
        assert!(store.take_changed().is_empty(), "journal off by default");

        store.set_journal(true);
        let a = obj(&mut store, "A", 0);
        store.update_object(a, |o| o.value = Value::Integer(1));
        let drained = store.take_changed();
        assert_eq!(drained, vec![ItemId::Object(a)], "deduplicated and sorted");
        assert!(store.take_changed().is_empty(), "drain empties the journal");
        // A failed staging attempt puts drained items back for the next commit.
        store.requeue_changed(&drained);
        assert_eq!(store.take_changed(), drained);
        // Physical removal is journaled too (the durable key must be deleted).
        store.remove_object(a);
        assert_eq!(store.take_changed(), vec![ItemId::Object(a)]);
        // Disabling the journal clears it.
        let b = obj(&mut store, "B", 0);
        store.update_object(b, |o| o.value = Value::Integer(2));
        store.set_journal(false);
        assert!(store.take_changed().is_empty());
    }

    #[test]
    fn inherits_links_are_bidirectional() {
        let mut store = DataStore::new();
        let pattern = obj(&mut store, "PatternProc", 0);
        let a = obj(&mut store, "ProcA", 0);
        let b = obj(&mut store, "ProcB", 0);
        store.add_inherits(a, pattern);
        store.add_inherits(b, pattern);
        assert_eq!(store.inherited_patterns(a), vec![pattern]);
        assert_eq!(store.inheritors_of(pattern), vec![a, b]);
        assert_eq!(store.all_inherits_links().len(), 2);
        assert!(store.remove_inherits(a, pattern));
        assert!(!store.remove_inherits(a, pattern));
        assert_eq!(store.inheritors_of(pattern), vec![b]);
    }

    #[test]
    fn value_index_follows_every_mutation_path() {
        let mut store = DataStore::new();
        let a = obj(&mut store, "A", 0);
        let b = obj(&mut store, "B", 0);
        store.update_object(a, |o| o.value = Value::Integer(7));
        store.update_object(b, |o| o.value = Value::string("x"));
        assert_eq!(store.objects_by_value(ClassId(0), ValueOp::Eq, "7")[0].id, a);
        assert_eq!(store.value_estimate(ClassId(0), ValueOp::Eq, "x", usize::MAX), 1);
        assert_eq!(store.extent_size(ClassId(0)), 2);

        // Value change re-keys.
        store.update_object(a, |o| o.value = Value::Integer(9));
        assert!(store.objects_by_value(ClassId(0), ValueOp::Eq, "7").is_empty());
        assert_eq!(store.objects_by_value(ClassId(0), ValueOp::Greater, "8")[0].id, a);

        // Re-classification moves the entry between per-class trees.
        store.update_object(a, |o| o.class = ClassId(3));
        assert!(store.objects_by_value(ClassId(0), ValueOp::Eq, "9").is_empty());
        assert_eq!(store.objects_by_value(ClassId(3), ValueOp::Eq, "9")[0].id, a);

        // Tombstoning removes; restoring a live record (undo) re-adds.
        store.tombstone_object(a);
        assert!(store.objects_by_value(ClassId(3), ValueOp::Eq, "9").is_empty());
        store.update_object(a, |o| o.deleted = false);
        assert_eq!(store.objects_by_value(ClassId(3), ValueOp::Eq, "9")[0].id, a);

        // Physical removal (transaction rollback) drops the entry.
        store.remove_object(b);
        assert!(store.objects_by_value(ClassId(0), ValueOp::Eq, "x").is_empty());
        assert_eq!(store.value_index().entry_count(ClassId(0)), 0);
    }

    #[test]
    fn deleted_records_are_never_indexed_on_insert() {
        // Version views and persistence replay deleted snapshots through insert_object (in
        // arbitrary order): they must stay out of every live index — in particular a replayed
        // tombstone must not shadow a live object's name-index entry or inflate the planner's
        // extent estimates.
        let mut store = DataStore::new();
        let live = obj(&mut store, "X", 0);
        let dead = store.allocate_object_id();
        let mut record = ObjectRecord::new(dead, ClassId(0), ObjectName::root("X"), None);
        record.value = Value::Integer(1);
        record.deleted = true;
        store.insert_object(record);
        assert_eq!(store.object_by_name("X").unwrap().id, live, "tombstone must not shadow");
        assert_eq!(store.extent_size(ClassId(0)), 1);
        assert!(store.objects_by_value(ClassId(0), ValueOp::Eq, "1").is_empty());
        assert_eq!(store.value_index().entry_count(ClassId(0)), 0);

        // Same rule for relationships.
        let rid = store.allocate_relationship_id();
        let mut rel = RelationshipRecord::new(rid, AssociationId(0), vec![("a".into(), live)]);
        rel.deleted = true;
        store.insert_relationship(rel);
        assert!(store.association_extent(AssociationId(0)).is_empty());
        assert!(store.relationships_of(live).is_empty());
        assert!(store.relationship(rid).is_some(), "record itself is kept for views");
    }

    #[test]
    fn name_prefix_count_matches_scan() {
        let mut store = DataStore::new();
        obj(&mut store, "Alarms", 0);
        obj(&mut store, "AlarmHandler", 1);
        obj(&mut store, "Sensor", 2);
        assert_eq!(store.name_prefix_count("Alarm", usize::MAX), 2);
        assert_eq!(
            store.name_prefix_count("Alarm", usize::MAX),
            store.objects_with_name_prefix("Alarm").len()
        );
        assert_eq!(store.name_prefix_count("Alarm", 1), 1, "counting stops at the cap");
        assert_eq!(store.name_prefix_count("Z", usize::MAX), 0);
    }

    #[test]
    fn name_prefix_scan() {
        let mut store = DataStore::new();
        obj(&mut store, "Alarms", 0);
        let alarms = store.object_by_name("Alarms").unwrap().id;
        let text = store.allocate_object_id();
        store.insert_object(ObjectRecord::new(
            text,
            ClassId(1),
            ObjectName::parse("Alarms.Text").unwrap(),
            Some(alarms),
        ));
        obj(&mut store, "AlarmHandler", 2);
        obj(&mut store, "Sensor", 2);
        assert_eq!(store.objects_with_name_prefix("Alarms").len(), 2);
        assert_eq!(store.objects_with_name_prefix("Alarm").len(), 3);
        assert_eq!(store.objects_with_name_prefix("Z").len(), 0);
    }
}
