//! Versions: snapshots, delta storage, the version tree and view reconstruction.
//!
//! "The SEED version concept allows certain states of the database to be preserved. (...)
//! Versions are created explicitly by taking a snapshot of the database.  Additionally, there is
//! always a current version representing the current state of the database."
//!
//! Storage is delta-based: "When creating a version we do not save the complete database.  We
//! only store those objects and relationships that have been changed after the creation of the
//! previous version.  Items that have been deleted in this interval must also be recorded.  This
//! is made easy by marking items as deleted instead of removing them physically."
//!
//! View reconstruction follows the paper exactly: "The view to a version with number *n*
//! consists of the objects and relationships having the greatest version number that is less
//! than or equal to *n* (provided that they are not marked as deleted)."

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use seed_schema::SchemaVersionId;

use crate::error::{SeedError, SeedResult};
use crate::ident::{ItemId, VersionId};
use crate::object::ObjectRecord;
use crate::relationship::RelationshipRecord;
use crate::store::DataStore;

/// The state of one item as recorded at a version snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ItemSnapshot {
    /// An object's state.
    Object(ObjectRecord),
    /// A relationship's state.
    Relationship(RelationshipRecord),
}

impl ItemSnapshot {
    /// Whether the snapshot is a tombstone (the item was deleted at that version).
    pub fn is_deleted(&self) -> bool {
        match self {
            ItemSnapshot::Object(o) => o.deleted,
            ItemSnapshot::Relationship(r) => r.deleted,
        }
    }
}

/// Metadata about one stored version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionInfo {
    /// The version's decimal identifier.
    pub id: VersionId,
    /// The version this one was created from (its parent in the version tree).
    pub parent: Option<VersionId>,
    /// Schema version that was current when the snapshot was taken.
    pub schema_version: SchemaVersionId,
    /// Free-form comment ("document finished", "before session 12", ...).
    pub comment: String,
    /// Creation sequence number (strictly increasing; used for history navigation).
    pub seq: u64,
    /// Number of items recorded in this version's delta.
    pub delta_size: usize,
}

/// Manages version snapshots and reconstructs historical views.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VersionManager {
    versions: BTreeMap<VersionId, VersionInfo>,
    /// Per-item history: snapshots taken at version-creation points, keyed by version id.
    histories: HashMap<ItemId, BTreeMap<VersionId, ItemSnapshot>>,
    /// The most recently created version (the default parent of the next one).
    last_created: Option<VersionId>,
    seq: u64,
}

impl VersionManager {
    /// Creates an empty version manager (only the implicit *current* version exists).
    pub fn new() -> Self {
        Self::default()
    }

    /// The version most recently created, if any.
    pub fn last_created(&self) -> Option<&VersionId> {
        self.last_created.as_ref()
    }

    /// The id the next top-level version would get by default (`1.0`, then `2.0`, ...).
    pub fn next_default_id(&self) -> VersionId {
        match &self.last_created {
            None => VersionId::initial(),
            Some(last) => {
                // Propose siblings until an unused id is found (deletion may leave gaps).
                let mut candidate = last.next_sibling();
                while self.versions.contains_key(&candidate) {
                    candidate = candidate.next_sibling();
                }
                candidate
            }
        }
    }

    /// The id the next alternative below `base` would get (`1.0` → `1.0.1`, `1.0.2`, ...).
    pub fn next_alternative_id(&self, base: &VersionId) -> VersionId {
        let mut candidate = base.first_child();
        while self.versions.contains_key(&candidate) {
            candidate = candidate.next_sibling();
        }
        candidate
    }

    /// Whether a version with this id exists.
    pub fn contains(&self, id: &VersionId) -> bool {
        self.versions.contains_key(id)
    }

    /// Metadata of a version.
    pub fn info(&self, id: &VersionId) -> SeedResult<&VersionInfo> {
        self.versions.get(id).ok_or_else(|| SeedError::Version(format!("unknown version {id}")))
    }

    /// All versions in id order.
    pub fn versions(&self) -> Vec<&VersionInfo> {
        self.versions.values().collect()
    }

    /// Direct children of `id` in the version tree.
    pub fn children(&self, id: &VersionId) -> Vec<&VersionInfo> {
        self.versions.values().filter(|v| v.parent.as_ref() == Some(id)).collect()
    }

    /// Roots of the version tree (versions without parents).
    pub fn roots(&self) -> Vec<&VersionInfo> {
        self.versions.values().filter(|v| v.parent.is_none()).collect()
    }

    /// Creates a version snapshot with an explicit id.
    ///
    /// Only the items currently marked dirty in the store are recorded (delta storage); the
    /// store's dirty set is drained.  `parent` is recorded as the version-tree parent.
    pub fn create_version(
        &mut self,
        id: VersionId,
        parent: Option<VersionId>,
        schema_version: SchemaVersionId,
        comment: impl Into<String>,
        store: &mut DataStore,
    ) -> SeedResult<&VersionInfo> {
        if self.versions.contains_key(&id) {
            return Err(SeedError::Version(format!("version {id} already exists")));
        }
        if let Some(p) = &parent {
            if !self.versions.contains_key(p) {
                return Err(SeedError::Version(format!("parent version {p} does not exist")));
            }
        }
        let dirty: Vec<ItemId> = store.dirty_items().keys().copied().collect();
        let mut delta_size = 0usize;
        for item in dirty {
            let snapshot = match item {
                ItemId::Object(oid) => store.object(oid).cloned().map(ItemSnapshot::Object),
                ItemId::Relationship(rid) => {
                    store.relationship(rid).cloned().map(ItemSnapshot::Relationship)
                }
            };
            if let Some(snapshot) = snapshot {
                self.histories.entry(item).or_default().insert(id.clone(), snapshot);
                delta_size += 1;
            }
        }
        store.clear_dirty();
        self.seq += 1;
        let info = VersionInfo {
            id: id.clone(),
            parent,
            schema_version,
            comment: comment.into(),
            seq: self.seq,
            delta_size,
        };
        self.versions.insert(id.clone(), info);
        self.last_created = Some(id.clone());
        Ok(self.versions.get(&id).expect("just inserted"))
    }

    /// Deletes a version ("versions cannot be modified, except for deletion").  Its recorded
    /// deltas are dropped (the returned items are those it had recorded); views of later versions that relied on them fall back to earlier
    /// snapshots of the same items.
    pub fn delete_version(&mut self, id: &VersionId) -> SeedResult<Vec<ItemId>> {
        if self.versions.remove(id).is_none() {
            return Err(SeedError::Version(format!("unknown version {id}")));
        }
        let mut dropped = Vec::new();
        for (item, history) in self.histories.iter_mut() {
            if history.remove(id).is_some() {
                dropped.push(*item);
            }
        }
        if self.last_created.as_ref() == Some(id) {
            self.last_created = self.versions.keys().next_back().cloned();
        }
        dropped.sort_unstable();
        Ok(dropped)
    }

    /// The snapshot of `item` visible in version `at`, following the paper's rule (greatest
    /// recorded version ≤ `at`).  Returns `None` if the item did not exist yet or its selected
    /// snapshot is a tombstone.
    pub fn item_in_version(&self, item: ItemId, at: &VersionId) -> Option<&ItemSnapshot> {
        let history = self.histories.get(&item)?;
        let (_, snapshot) = history.range(..=at.clone()).next_back()?;
        if snapshot.is_deleted() {
            None
        } else {
            Some(snapshot)
        }
    }

    /// Reconstructs the full database view of version `at` as a fresh [`DataStore`].
    pub fn view(&self, at: &VersionId) -> SeedResult<DataStore> {
        if !self.versions.contains_key(at) {
            return Err(SeedError::Version(format!("unknown version {at}")));
        }
        let mut store = DataStore::new();
        for item in self.histories.keys() {
            match self.item_in_version(*item, at) {
                Some(ItemSnapshot::Object(o)) => store.insert_object(o.clone()),
                Some(ItemSnapshot::Relationship(r)) => store.insert_relationship(r.clone()),
                None => {}
            }
        }
        store.clear_dirty();
        Ok(store)
    }

    /// History navigation: "find all versions of object 'AlarmHandler', beginning with version
    /// 2.0".  Returns `(version, snapshot)` pairs for every version ≥ `from` in which the item
    /// was recorded, in version order.
    pub fn versions_of_item(
        &self,
        item: ItemId,
        from: Option<&VersionId>,
    ) -> Vec<(&VersionId, &ItemSnapshot)> {
        let Some(history) = self.histories.get(&item) else { return Vec::new() };
        history.iter().filter(|(v, _)| from.map(|f| *v >= f).unwrap_or(true)).collect()
    }

    /// Total number of item snapshots stored across all versions (the cost of delta storage;
    /// used by benchmarks and tests that compare against full-copy storage).
    pub fn stored_snapshot_count(&self) -> usize {
        self.histories.values().map(|h| h.len()).sum()
    }

    /// Number of versions.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// The creation sequence counter (strictly increasing across version creations; persisted by
    /// the durability layer so that sequence numbers survive restarts).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Every recorded delta snapshot, as `(version, item, snapshot)`, in no particular order.
    pub(crate) fn deltas(&self) -> impl Iterator<Item = (&VersionId, ItemId, &ItemSnapshot)> {
        self.histories.iter().flat_map(|(item, history)| {
            history.iter().map(move |(version, snapshot)| (version, *item, snapshot))
        })
    }

    /// Sets (or, with `None`, removes) one version's metadata — how persisted `vi/` records
    /// are applied.
    pub(crate) fn set_info(&mut self, id: VersionId, info: Option<VersionInfo>) {
        match info {
            Some(info) => self.versions.insert(id, info),
            None => self.versions.remove(&id),
        };
    }

    /// Sets (or, with `None`, removes) one item's delta snapshot at version `id` — how
    /// persisted `v/` records are applied.
    pub(crate) fn set_delta(
        &mut self,
        id: VersionId,
        item: ItemId,
        snapshot: Option<ItemSnapshot>,
    ) {
        match snapshot {
            Some(snapshot) => {
                self.histories.entry(item).or_default().insert(id, snapshot);
            }
            None => {
                if let Some(history) = self.histories.get_mut(&item) {
                    history.remove(&id);
                }
            }
        }
    }

    /// Sets the last-created version and the sequence counter — the persisted meta record's
    /// share of the manager.
    pub(crate) fn set_counters(&mut self, last_created: Option<VersionId>, seq: u64) {
        self.last_created = last_created;
        self.seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::ObjectId;
    use crate::name::ObjectName;
    use crate::value::Value;
    use seed_schema::ClassId;

    fn schema_v1() -> SchemaVersionId {
        SchemaVersionId(1)
    }

    fn add_object(store: &mut DataStore, name: &str) -> ObjectId {
        let id = store.allocate_object_id();
        store.insert_object(ObjectRecord::new(id, ClassId(0), ObjectName::root(name), None));
        id
    }

    #[test]
    fn default_version_ids_follow_paper_convention() {
        let mut vm = VersionManager::new();
        let mut store = DataStore::new();
        assert_eq!(vm.next_default_id().to_string(), "1.0");
        vm.create_version(VersionId::initial(), None, schema_v1(), "first", &mut store).unwrap();
        assert_eq!(vm.next_default_id().to_string(), "2.0");
        assert_eq!(vm.next_alternative_id(&VersionId::initial()).to_string(), "1.0.1");
    }

    #[test]
    fn duplicate_or_dangling_versions_rejected() {
        let mut vm = VersionManager::new();
        let mut store = DataStore::new();
        let v10 = VersionId::initial();
        vm.create_version(v10.clone(), None, schema_v1(), "", &mut store).unwrap();
        assert!(vm.create_version(v10.clone(), None, schema_v1(), "", &mut store).is_err());
        let orphan_parent = VersionId::parse("9.0").unwrap();
        assert!(vm
            .create_version(
                VersionId::parse("2.0").unwrap(),
                Some(orphan_parent),
                schema_v1(),
                "",
                &mut store
            )
            .is_err());
    }

    #[test]
    fn delta_storage_records_only_changed_items() {
        let mut vm = VersionManager::new();
        let mut store = DataStore::new();
        let a = add_object(&mut store, "A");
        let _b = add_object(&mut store, "B");
        let v10 = VersionId::initial();
        let info = vm.create_version(v10.clone(), None, schema_v1(), "", &mut store).unwrap();
        assert_eq!(info.delta_size, 2, "first version records everything");

        // Change only A, create 2.0: the delta must contain exactly one item.
        store.update_object(a, |o| o.value = Value::string("changed"));
        let v20 = VersionId::parse("2.0").unwrap();
        let info =
            vm.create_version(v20.clone(), Some(v10.clone()), schema_v1(), "", &mut store).unwrap();
        assert_eq!(info.delta_size, 1);
        assert_eq!(vm.stored_snapshot_count(), 3);
    }

    #[test]
    fn view_reconstruction_follows_greatest_version_rule() {
        let mut vm = VersionManager::new();
        let mut store = DataStore::new();
        let a = add_object(&mut store, "AlarmHandler");
        store.update_object(a, |o| o.value = Value::string("Handles alarms"));
        let v10 = VersionId::initial();
        vm.create_version(v10.clone(), None, schema_v1(), "", &mut store).unwrap();

        store.update_object(a, |o| {
            o.value = Value::string("Handles alarms derived from ProcessData")
        });
        let b = add_object(&mut store, "OperatorAlert");
        let v20 = VersionId::parse("2.0").unwrap();
        vm.create_version(v20.clone(), Some(v10.clone()), schema_v1(), "", &mut store).unwrap();

        // The view of 1.0 sees the old description and no OperatorAlert.
        let view10 = vm.view(&v10).unwrap();
        assert_eq!(
            view10.object_by_name("AlarmHandler").unwrap().value,
            Value::string("Handles alarms")
        );
        assert!(view10.object_by_name("OperatorAlert").is_none());

        // The view of 2.0 sees both.
        let view20 = vm.view(&v20).unwrap();
        assert_eq!(
            view20.object_by_name("AlarmHandler").unwrap().value,
            Value::string("Handles alarms derived from ProcessData")
        );
        assert!(view20.object_by_name("OperatorAlert").is_some());
        let _ = b;
    }

    #[test]
    fn deleted_items_disappear_from_later_views_but_not_earlier_ones() {
        let mut vm = VersionManager::new();
        let mut store = DataStore::new();
        let a = add_object(&mut store, "Obsolete");
        let v10 = VersionId::initial();
        vm.create_version(v10.clone(), None, schema_v1(), "", &mut store).unwrap();
        store.tombstone_object(a);
        let v20 = VersionId::parse("2.0").unwrap();
        vm.create_version(v20.clone(), Some(v10.clone()), schema_v1(), "", &mut store).unwrap();

        assert!(vm.view(&v10).unwrap().object_by_name("Obsolete").is_some());
        assert!(vm.view(&v20).unwrap().object_by_name("Obsolete").is_none());
        assert!(vm.item_in_version(ItemId::Object(a), &v20).is_none());
        assert!(vm.item_in_version(ItemId::Object(a), &v10).is_some());
    }

    #[test]
    fn alternative_branches_order_between_parent_and_next_release() {
        let mut vm = VersionManager::new();
        let mut store = DataStore::new();
        let a = add_object(&mut store, "Design");
        store.update_object(a, |o| o.value = Value::string("v1"));
        let v10 = VersionId::initial();
        vm.create_version(v10.clone(), None, schema_v1(), "", &mut store).unwrap();

        // Alternative 1.0.1 explores a different value.
        store.update_object(a, |o| o.value = Value::string("alternative"));
        let v101 = vm.next_alternative_id(&v10);
        vm.create_version(v101.clone(), Some(v10.clone()), schema_v1(), "", &mut store).unwrap();

        // Mainline continues to 2.0 with yet another value.
        store.update_object(a, |o| o.value = Value::string("v2"));
        let v20 = VersionId::parse("2.0").unwrap();
        vm.create_version(v20.clone(), Some(v10.clone()), schema_v1(), "", &mut store).unwrap();

        assert_eq!(
            vm.view(&v10).unwrap().object_by_name("Design").unwrap().value,
            Value::string("v1")
        );
        assert_eq!(
            vm.view(&v101).unwrap().object_by_name("Design").unwrap().value,
            Value::string("alternative")
        );
        assert_eq!(
            vm.view(&v20).unwrap().object_by_name("Design").unwrap().value,
            Value::string("v2")
        );
        // Version tree structure.
        assert_eq!(vm.children(&v10).len(), 2);
        assert_eq!(vm.roots().len(), 1);
        assert_eq!(vm.info(&v101).unwrap().parent, Some(v10));
    }

    #[test]
    fn history_navigation_from_a_given_version() {
        let mut vm = VersionManager::new();
        let mut store = DataStore::new();
        let a = add_object(&mut store, "AlarmHandler");
        let v10 = VersionId::initial();
        vm.create_version(v10.clone(), None, schema_v1(), "", &mut store).unwrap();
        for (i, text) in ["second", "third", "fourth"].iter().enumerate() {
            store.update_object(a, |o| o.value = Value::string(*text));
            let vid = VersionId::parse(&format!("{}.0", i + 2)).unwrap();
            vm.create_version(
                vid,
                Some(vm.last_created().unwrap().clone()),
                schema_v1(),
                "",
                &mut store,
            )
            .unwrap();
        }
        let all = vm.versions_of_item(ItemId::Object(a), None);
        assert_eq!(all.len(), 4);
        // "find all versions of object 'AlarmHandler', beginning with version 2.0"
        let from20 =
            vm.versions_of_item(ItemId::Object(a), Some(&VersionId::parse("2.0").unwrap()));
        assert_eq!(from20.len(), 3);
        assert_eq!(from20[0].0.to_string(), "2.0");
        assert_eq!(vm.versions_of_item(ItemId::Object(ObjectId(99)), None).len(), 0);
    }

    #[test]
    fn delete_version_removes_its_deltas() {
        let mut vm = VersionManager::new();
        let mut store = DataStore::new();
        let a = add_object(&mut store, "X");
        let v10 = VersionId::initial();
        vm.create_version(v10.clone(), None, schema_v1(), "", &mut store).unwrap();
        store.update_object(a, |o| o.value = Value::string("2.0 state"));
        let v20 = VersionId::parse("2.0").unwrap();
        vm.create_version(v20.clone(), Some(v10.clone()), schema_v1(), "", &mut store).unwrap();
        store.update_object(a, |o| o.value = Value::string("3.0 state"));
        let v30 = VersionId::parse("3.0").unwrap();
        vm.create_version(v30.clone(), Some(v20.clone()), schema_v1(), "", &mut store).unwrap();

        assert_eq!(vm.version_count(), 3);
        vm.delete_version(&v20).unwrap();
        assert_eq!(vm.version_count(), 2);
        assert!(vm.view(&v20).is_err());
        // 3.0 still has its own snapshot of X.
        assert_eq!(
            vm.view(&v30).unwrap().object_by_name("X").unwrap().value,
            Value::string("3.0 state")
        );
        assert!(vm.delete_version(&v20).is_err());
    }

    #[test]
    fn view_of_unknown_version_is_an_error() {
        let vm = VersionManager::new();
        assert!(vm.view(&VersionId::initial()).is_err());
        assert!(vm.info(&VersionId::initial()).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ident::ObjectId;
    use crate::name::ObjectName;
    use crate::value::Value;
    use proptest::prelude::*;
    use seed_schema::ClassId;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Linear edit history: the view of version k must equal the state captured right before
        /// snapshot k was taken, for every k.
        #[test]
        fn views_reproduce_past_states(values in proptest::collection::vec(".{0,12}", 1..8)) {
            let mut vm = VersionManager::new();
            let mut store = DataStore::new();
            let id = store.allocate_object_id();
            store.insert_object(ObjectRecord::new(id, ClassId(0), ObjectName::root("Obj"), None));
            let mut expected: Vec<(VersionId, String)> = Vec::new();
            let mut parent: Option<VersionId> = None;
            for (i, value) in values.iter().enumerate() {
                store.update_object(id, |o| o.value = Value::string(value.clone()));
                let vid = VersionId::new(vec![(i + 1) as u32, 0]).unwrap();
                vm.create_version(vid.clone(), parent.clone(), SchemaVersionId(1), "", &mut store).unwrap();
                expected.push((vid.clone(), value.clone()));
                parent = Some(vid);
            }
            for (vid, value) in &expected {
                let view = vm.view(vid).unwrap();
                prop_assert_eq!(view.object_by_name("Obj").unwrap().value.clone(), Value::string(value.clone()));
            }
            // Delta storage stores exactly one snapshot per version for this single object
            // (plus nothing else), never the full database per version.
            prop_assert_eq!(vm.stored_snapshot_count(), values.len());
            let _ = ObjectId(0);
        }
    }
}
