//! The in-memory data store: the *current version* of the database.
//!
//! The store keeps every object and relationship ever created (deletion is logical) together
//! with the secondary indexes the operational interface needs: the name index (retrieval by
//! name is the prototype's primary access path), class and association extents, per-object
//! adjacency lists and the pattern-inheritance links.
//!
//! Every field is a persistent map ([`crate::pmap::PMap`]), so cloning a store costs the same
//! at any size and the clone shares all nodes until one side writes.  The database clones its
//! store to publish a read snapshot and to take a transaction savepoint; nothing here tracks
//! what changed for either purpose.  Rollback restores the savepoint instead of undoing
//! mutations, so records leave the store physically only through `DataStore::apply_changes`
//! (`remove_object` / `remove_relationship`), when a replica's batch deletes them.
//!
//! The store itself performs **no** consistency checking — it is a dumb, always-successful
//! container.  The [`crate::database::Database`] layer checks consistency *before* mutating the
//! store, which is how SEED "permanently ensures database consistency".

use std::sync::Arc;

use seed_schema::{AssociationId, ClassId};

use crate::ident::{ItemId, ObjectId, RelationshipId};
use crate::index::{AttributeIndex, ValueOp};
use crate::object::ObjectRecord;
use crate::pmap::{PMap, PSet};
use crate::relationship::RelationshipRecord;

/// One object's new state for [`DataStore::apply_changes`]: its record plus the patterns it
/// inherits, or `None` when the object is gone.
pub(crate) type ObjectChange = (ObjectId, Option<(ObjectRecord, Vec<ObjectId>)>);

/// One relationship's new state for [`DataStore::apply_changes`], or `None` when it is gone.
pub(crate) type RelationshipChange = (RelationshipId, Option<RelationshipRecord>);

/// The mutable current state of a SEED database.
#[derive(Debug, Clone, Default)]
pub struct DataStore {
    /// Records sit behind their own `Arc`, so copying a shared leaf copies pointers, not
    /// records; a write clones only the record it changes.
    objects: PMap<ObjectId, Arc<ObjectRecord>>,
    relationships: PMap<RelationshipId, Arc<RelationshipRecord>>,
    /// name (string form) → object id, for *live* (possibly pattern) objects.
    name_index: PMap<Arc<str>, ObjectId>,
    /// class → ordered value index over live objects (patterns included; retrieval filters
    /// them).  Derived data, kept in lock-step by every insert/update/remove below.
    value_index: AttributeIndex,
    /// class → live object ids (patterns included; retrieval filters them).
    class_extent: PMap<ClassId, PSet<ObjectId>>,
    /// association → live relationship ids.
    association_extent: PMap<AssociationId, PSet<RelationshipId>>,
    /// object → live relationships it participates in.
    adjacency: PMap<ObjectId, PSet<RelationshipId>>,
    /// parent object → dependent objects.
    children: PMap<ObjectId, PSet<ObjectId>>,
    /// inheritor object → patterns it inherits.
    inherits: PMap<ObjectId, PSet<ObjectId>>,
    /// pattern object → its inheritors.
    inheritors: PMap<ObjectId, PSet<ObjectId>>,
    /// Items changed since the last version snapshot (drives delta version storage).
    dirty: PSet<ItemId>,
    /// Items changed since the durability layer last flushed (drives per-item write-through;
    /// only populated while `journal` is on, so non-durable databases pay nothing), each with
    /// whether its dirty flag flipped since then (only a flip rewrites its `d/` marker).
    changed: PMap<ItemId, bool>,
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
    pub fn dirty_items(&self) -> &PSet<ItemId> {
        &self.dirty
    }

    /// Clears the dirty set (after a version snapshot has recorded the changes).
    pub fn clear_dirty(&mut self) {
        self.dirty = PSet::new();
    }

    fn mark_dirty(&mut self, item: ItemId) {
        // Test first: inserting a present key would still copy the path it shares.
        let flipped = !self.dirty.contains_key(&item);
        if flipped {
            self.dirty.insert(item, ());
        }
        self.journal_change(item, flipped);
    }

    /// Records `item` in the change journal (when it is on); `flipped` = its dirty flag just
    /// changed.  A flip sticks until the next drain.
    fn journal_change(&mut self, item: ItemId, flipped: bool) {
        if self.journal && self.changed.get(&item).map_or(true, |seen| flipped && !seen) {
            self.changed.insert(item, flipped);
        }
    }

    /// Sets one item's dirty flag directly, without journaling — used when applying a persisted
    /// `d/` marker, where the flag must track the persisted dirty set rather than the
    /// mutations that applied the records.
    pub fn sync_dirty_mark(&mut self, item: ItemId, dirty: bool) {
        if dirty {
            self.dirty.insert(item, ());
        } else {
            self.dirty.remove(&item);
        }
    }

    // ----- change journal (write-through durability) -----------------------------------------------

    /// Turns the change journal on or off.  While on, every mutation records the touched item,
    /// and whether its dirty flag flipped, in a map drained by [`DataStore::take_changed`] —
    /// the unit of work of the per-item write-through persistence layer.
    pub fn set_journal(&mut self, enabled: bool) {
        self.journal = enabled;
        if !enabled {
            self.changed = PMap::new();
        }
    }

    /// Drains the change journal, returning the items touched since the last drain in sorted
    /// order (deterministic storage-transaction layout), each with whether its dirty flag
    /// flipped in that time.
    pub fn take_changed(&mut self) -> Vec<(ItemId, bool)> {
        std::mem::take(&mut self.changed).iter().map(|(item, flipped)| (*item, *flipped)).collect()
    }

    /// Puts drained items back into the change journal, flags and all — used when staging them
    /// to storage failed after the drain, so a later commit retries instead of silently
    /// dropping them.
    pub fn requeue_changed(&mut self, items: &[(ItemId, bool)]) {
        for (item, flipped) in items {
            self.journal_change(*item, *flipped);
        }
    }

    /// Brings the changed items to their given states — the O(delta) patch behind recovery and
    /// replica apply.  The changes come in log order, so the last one per item is its state.
    /// Index maintenance rides on the ordinary mutators, and the states are applied in id
    /// order, so the result matches a store built from them directly.  An object's
    /// inherits-links travel with it, as in the durable codec, where the object record carries
    /// them.  The dirty set is left as it was: persisted `d/` markers, not this patch, decide
    /// it.
    pub(crate) fn apply_changes(
        &mut self,
        mut objects: Vec<ObjectChange>,
        mut relationships: Vec<RelationshipChange>,
    ) {
        let dirty = std::mem::take(&mut self.dirty);
        // Newest first, then a stable sort by id: each item's last change leads its run.
        objects.reverse();
        objects.sort_by_key(|(id, _)| *id);
        objects.dedup_by_key(|(id, _)| *id);
        relationships.reverse();
        relationships.sort_by_key(|(id, _)| *id);
        relationships.dedup_by_key(|(id, _)| *id);
        // Cross-item renames within one delta (A→B while B→A) would corrupt the name index if
        // patched in place, because `update_object` drops the entry of the old name, which an
        // object patched earlier may already own: park every live object that the delta
        // renames, tombstones or removes under a collision-free temporary name first, then
        // apply the real records.
        for (oid, change) in &objects {
            let stale = match self.object(*oid) {
                Some(rec) if !rec.deleted => rec,
                _ => continue,
            };
            let needs_parking = match change {
                None => true,
                Some((new, _)) => new.deleted || new.name != stale.name,
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
        self.dirty = dirty;
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
            self.name_index.insert(record.name.to_string().into(), id);
            self.class_extent.add_to_set(record.class, id);
            self.value_index.insert(record.class, &record.value, id);
        }
        if let Some(parent) = record.parent {
            self.children.add_to_set(parent, id);
        }
        self.next_object = self.next_object.max(id.0);
        self.objects.insert(id, Arc::new(record));
        self.mark_dirty(ItemId::Object(id));
    }

    /// Looks up an object record (live or deleted).
    pub fn object(&self, id: ObjectId) -> Option<&ObjectRecord> {
        self.objects.get(&id).map(|o| &**o)
    }

    /// Looks up a *live* object record.
    pub fn live_object(&self, id: ObjectId) -> Option<&ObjectRecord> {
        self.object(id).filter(|o| !o.deleted)
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
        let Some(slot) = self.objects.get_mut(&id) else { return false };
        // Keep the old record to fix the indexes against; the write goes to a copy.
        let old = Arc::clone(slot);
        f(Arc::make_mut(slot));
        let new = Arc::clone(slot);
        let liveness_changed = old.deleted != new.deleted;
        if old.name != new.name || liveness_changed {
            // Only live records hold index entries.
            if !old.deleted {
                self.name_index.remove(old.name.to_string().as_str());
            }
            if !new.deleted {
                self.name_index.insert(new.name.to_string().into(), id);
            }
        }
        if old.class != new.class || liveness_changed {
            self.class_extent.remove_from_set(&old.class, &id);
            if !new.deleted {
                self.class_extent.add_to_set(new.class, id);
            }
        }
        if old.class != new.class || old.value != new.value || liveness_changed {
            if !old.deleted {
                self.value_index.remove(old.class, &old.value, id);
            }
            if !new.deleted {
                self.value_index.insert(new.class, &new.value, id);
            }
        }
        self.mark_dirty(ItemId::Object(id));
        true
    }

    /// Marks an object (and nothing else — cascades are the database layer's job) as deleted.
    pub fn tombstone_object(&mut self, id: ObjectId) -> bool {
        self.update_object(id, |o| o.deleted = true)
    }

    /// Physically removes an object from the store and all indexes.  Only
    /// `DataStore::apply_changes` calls it, for an object a replica's batch deleted —
    /// versioned data is never removed physically.
    pub fn remove_object(&mut self, id: ObjectId) -> bool {
        let Some(record) = self.objects.remove(&id) else { return false };
        if !record.deleted {
            // Tombstoned records left the live indexes when they were tombstoned; touching the
            // name index here could otherwise evict a live object that has reused the name.
            self.name_index.remove(record.name.to_string().as_str());
            self.value_index.remove(record.class, &record.value, id);
        }
        self.class_extent.remove_from_set(&record.class, &id);
        if let Some(parent) = record.parent {
            self.children.remove_from_set(&parent, &id);
        }
        self.children.remove(&id);
        self.adjacency.remove(&id);
        let was_dirty = self.dirty.remove(&ItemId::Object(id)).is_some();
        self.journal_change(ItemId::Object(id), was_dirty);
        // Drop any inherits links touching the object.
        if let Some(patterns) = self.inherits.remove(&id) {
            for p in patterns.keys() {
                self.inheritors.remove_from_set(p, &id);
            }
        }
        if let Some(inheritors) = self.inheritors.remove(&id) {
            for i in inheritors.keys() {
                self.inherits.remove_from_set(i, &id);
            }
        }
        true
    }

    /// Physically removes a relationship (only `DataStore::apply_changes` calls it).
    pub fn remove_relationship(&mut self, id: RelationshipId) -> bool {
        let Some(record) = self.relationships.remove(&id) else { return false };
        self.association_extent.remove_from_set(&record.association, &id);
        for (_, obj) in &record.bindings {
            self.adjacency.remove_from_set(obj, &id);
        }
        let was_dirty = self.dirty.remove(&ItemId::Relationship(id)).is_some();
        self.journal_change(ItemId::Relationship(id), was_dirty);
        true
    }

    /// Live dependent objects of `parent`, in id (creation) order.
    pub fn children_of(&self, parent: ObjectId) -> Vec<&ObjectRecord> {
        self.children
            .get(&parent)
            .map(|ids| ids.keys().filter_map(|id| self.live_object(*id)).collect())
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
            .map(|ids| ids.keys().filter_map(|id| self.live_object(*id)).collect())
            .unwrap_or_default()
    }

    /// All object records, including deleted ones (used by persistence and versioning).
    pub fn all_objects(&self) -> impl Iterator<Item = &ObjectRecord> {
        self.objects.values().map(|o| &**o)
    }

    /// All live, visible (non-pattern) objects.
    pub fn visible_objects(&self) -> impl Iterator<Item = &ObjectRecord> {
        self.all_objects().filter(|o| o.is_visible())
    }

    /// Number of live objects (patterns included).
    pub fn live_object_count(&self) -> usize {
        self.all_objects().filter(|o| !o.deleted).count()
    }

    /// Live objects whose name starts with `prefix` (in name order).
    pub fn objects_with_name_prefix(&self, prefix: &str) -> Vec<&ObjectRecord> {
        self.name_index
            .range(Arc::<str>::from(prefix)..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .filter_map(|(_, id)| self.live_object(*id))
            .collect()
    }

    /// Number of name-index entries starting with `prefix`, counted with an early-exit budget
    /// of `cap` (the planner's cardinality estimate for a prefix range scan; a wide prefix
    /// stops counting at the competing scan cost instead of walking the whole index).
    pub fn name_prefix_count(&self, prefix: &str, cap: usize) -> usize {
        self.name_index
            .range(Arc::<str>::from(prefix)..)
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
        self.class_extent.get(&class).map(PMap::len).unwrap_or(0)
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
            self.association_extent.add_to_set(record.association, id);
            for (_, obj) in &record.bindings {
                self.adjacency.add_to_set(*obj, id);
            }
        }
        self.next_relationship = self.next_relationship.max(id.0);
        self.relationships.insert(id, Arc::new(record));
        self.mark_dirty(ItemId::Relationship(id));
    }

    /// Looks up a relationship record (live or deleted).
    pub fn relationship(&self, id: RelationshipId) -> Option<&RelationshipRecord> {
        self.relationships.get(&id).map(|r| &**r)
    }

    /// Looks up a live relationship record.
    pub fn live_relationship(&self, id: RelationshipId) -> Option<&RelationshipRecord> {
        self.relationship(id).filter(|r| !r.deleted)
    }

    /// Mutates a relationship record; maintains indexes and the dirty set.
    pub fn update_relationship(
        &mut self,
        id: RelationshipId,
        f: impl FnOnce(&mut RelationshipRecord),
    ) -> bool {
        let Some(slot) = self.relationships.get_mut(&id) else { return false };
        let old = Arc::clone(slot);
        f(Arc::make_mut(slot));
        let new = Arc::clone(slot);
        let liveness_changed = old.deleted != new.deleted;
        if old.association != new.association || liveness_changed {
            self.association_extent.remove_from_set(&old.association, &id);
            if !new.deleted {
                self.association_extent.add_to_set(new.association, id);
            }
        }
        if old.bindings != new.bindings || liveness_changed {
            for obj in old.objects() {
                self.adjacency.remove_from_set(&obj, &id);
            }
            if !new.deleted {
                for obj in new.objects() {
                    self.adjacency.add_to_set(obj, id);
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
            .map(|ids| ids.keys().filter_map(|id| self.live_relationship(*id)).collect())
            .unwrap_or_default()
    }

    /// Live relationships `object` participates in (patterns included).
    pub fn relationships_of(&self, object: ObjectId) -> Vec<&RelationshipRecord> {
        self.adjacency
            .get(&object)
            .map(|ids| ids.keys().filter_map(|id| self.live_relationship(*id)).collect())
            .unwrap_or_default()
    }

    /// Number of live relationships `object` participates in plus those of every pattern it
    /// inherits — the relationships [`crate::pattern::materialized_relationships`] draws from,
    /// so an upper bound on its length.  Read off set lengths: no record is visited.
    pub fn navigation_degree(&self, object: ObjectId) -> usize {
        let degree = |id: &ObjectId| self.adjacency.get(id).map(PMap::len).unwrap_or(0);
        let inherited = self.inherits.get(&object).map(|patterns| patterns.keys().map(degree));
        degree(&object) + inherited.map(Iterator::sum).unwrap_or(0)
    }

    /// All relationship records, including deleted ones.
    pub fn all_relationships(&self) -> impl Iterator<Item = &RelationshipRecord> {
        self.relationships.values().map(|r| &**r)
    }

    /// Number of live relationships (patterns included).
    pub fn live_relationship_count(&self) -> usize {
        self.all_relationships().filter(|r| !r.deleted).count()
    }

    // ----- pattern inheritance links -----------------------------------------------------------------

    /// Records that `inheritor` inherits `pattern`.
    pub fn add_inherits(&mut self, inheritor: ObjectId, pattern: ObjectId) {
        self.inherits.add_to_set(inheritor, pattern);
        self.inheritors.add_to_set(pattern, inheritor);
        self.mark_dirty(ItemId::Object(inheritor));
    }

    /// Removes an inherits link.
    pub fn remove_inherits(&mut self, inheritor: ObjectId, pattern: ObjectId) -> bool {
        let removed = self.inherits.remove_from_set(&inheritor, &pattern);
        if removed {
            self.inheritors.remove_from_set(&pattern, &inheritor);
            self.mark_dirty(ItemId::Object(inheritor));
        }
        removed
    }

    /// Patterns inherited by `inheritor`, sorted.
    pub fn inherited_patterns(&self, inheritor: ObjectId) -> Vec<ObjectId> {
        self.inherits.get(&inheritor).map(|s| s.keys().copied().collect()).unwrap_or_default()
    }

    /// Inheritors of `pattern`, sorted.
    pub fn inheritors_of(&self, pattern: ObjectId) -> Vec<ObjectId> {
        self.inheritors.get(&pattern).map(|s| s.keys().copied().collect()).unwrap_or_default()
    }

    /// All `(inheritor, pattern)` pairs, sorted (used by persistence).
    pub fn all_inherits_links(&self) -> Vec<(ObjectId, ObjectId)> {
        self.inherits
            .iter()
            .flat_map(|(inheritor, patterns)| patterns.keys().map(|pattern| (*inheritor, *pattern)))
            .collect()
    }

    /// Rebuilds the class extents and the adjacency lists from the records and panics if the
    /// maintained maps differ — the structures the query planner's extent estimates and its
    /// adjacency walk trust.
    #[cfg(test)]
    pub(crate) fn assert_derived_maps_match_records(&self) {
        use std::collections::{BTreeMap, BTreeSet};
        fn flatten<K: Ord + Clone, T: Ord + Clone>(
            map: &PMap<K, PSet<T>>,
        ) -> BTreeMap<K, BTreeSet<T>> {
            map.iter().map(|(k, set)| (k.clone(), set.keys().cloned().collect())).collect()
        }
        let mut extents: BTreeMap<ClassId, BTreeSet<ObjectId>> = BTreeMap::new();
        for record in self.all_objects().filter(|o| !o.deleted) {
            extents.entry(record.class).or_default().insert(record.id);
        }
        let mut adjacency: BTreeMap<ObjectId, BTreeSet<RelationshipId>> = BTreeMap::new();
        for record in self.all_relationships().filter(|r| !r.deleted) {
            for object in record.objects() {
                adjacency.entry(object).or_default().insert(record.id);
            }
        }
        assert_eq!(flatten(&self.class_extent), extents, "class extents differ from the records");
        assert_eq!(flatten(&self.adjacency), adjacency, "adjacency differs from the records");
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
        assert!(store.dirty_items().contains_key(&ItemId::Object(alarms)));
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
        assert_eq!(drained, vec![(ItemId::Object(a), true)], "deduplicated, sorted, flipped");
        assert!(store.take_changed().is_empty(), "drain empties the journal");
        // A failed staging attempt puts drained items back, flags and all, for the next commit.
        store.requeue_changed(&drained);
        assert_eq!(store.take_changed(), drained);
        // A change to an item that is already dirty does not flip its flag.
        store.update_object(a, |o| o.value = Value::Integer(2));
        assert_eq!(store.take_changed(), vec![(ItemId::Object(a), false)]);
        // Dirtied again after a version cleared the dirty set: a flip.
        store.clear_dirty();
        store.update_object(a, |o| o.value = Value::Integer(3));
        store.update_object(a, |o| o.value = Value::Integer(4));
        assert_eq!(store.take_changed(), vec![(ItemId::Object(a), true)], "a flip sticks");
        // Physical removal is journaled too (the durable key must be deleted).
        store.remove_object(a);
        assert_eq!(store.take_changed(), vec![(ItemId::Object(a), true)]);
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

        // Tombstoning removes; restoring a live record (a replica patch) re-adds.
        store.tombstone_object(a);
        assert!(store.objects_by_value(ClassId(3), ValueOp::Eq, "9").is_empty());
        store.update_object(a, |o| o.deleted = false);
        assert_eq!(store.objects_by_value(ClassId(3), ValueOp::Eq, "9")[0].id, a);

        // Physical removal (a replica patch) drops the entry.
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

    #[test]
    fn a_patch_that_deletes_a_name_and_gives_it_to_an_older_object_keeps_the_entry() {
        // One replica batch: delete "A", then rename the older object "B" to "A".  B is
        // patched first (lower id) and takes the name; A's tombstone must not take it away.
        let mut store = DataStore::new();
        let b = obj(&mut store, "B", 0);
        let a = obj(&mut store, "A", 0);
        let mut renamed = store.object(b).unwrap().clone();
        renamed.name = ObjectName::root("A");
        let mut deleted = store.object(a).unwrap().clone();
        deleted.deleted = true;
        store.apply_changes(
            vec![(b, Some((renamed, vec![]))), (a, Some((deleted, vec![])))],
            vec![],
        );
        assert_eq!(store.object_by_name("A").map(|o| o.id), Some(b));
        assert!(store.object_by_name("B").is_none());
    }
}
