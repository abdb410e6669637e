//! MVCC snapshot reads: immutable, LSN-keyed read snapshots.
//!
//! The server's `RwLock<Database>` gives writers exclusivity, but it also means one long
//! check-in stalls every reader.  This module generalizes the delta-version machinery into a
//! **multi-version read path**: a [`SnapshotCell`] owns an immutable [`Snapshot`] of the
//! queryable state, readers pin it with one atomic refcount bump and then run entirely
//! lock-free, and writers publish a successor snapshot after each commit.
//!
//! ## Publication
//!
//! Publishing clones the database's queryable state and swaps the clone into the published
//! slot.  The store is a persistent map ([`crate::pmap`]) and the schema registry and version
//! manager are copy-on-write `Arc`s, so the clone shares everything with the live database
//! and costs the same at any size.  The writer's next mutation copies only the nodes on the
//! paths it touches; the snapshot keeps the old ones.
//!
//! ## Memory lifecycle
//!
//! The live database and the published snapshot share every node neither has written since
//! the publication.  A retired snapshot that readers still pin survives exactly until the last
//! reader drops it — the `Arc` refcount is the retention mechanism, there is no epoch table to
//! administer — and it holds apart only the nodes the writer replaced since it was published.
//!
//! ## LSN keying
//!
//! Every snapshot carries the **durable LSN** it corresponds to (the storage engine's last
//! committed record at publication time).  In-memory databases, which have no WAL, fall back
//! to the publication epoch — still monotonic, so staleness remains observable.

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::database::Database;
use crate::durability::DurabilityStatus;

/// One immutable generation of the queryable state.
struct SnapshotGen {
    db: Database,
    lsn: u64,
    epoch: u64,
    durability: Option<DurabilityStatus>,
}

/// A generation of `db`'s current state, its epoch and LSN still to be assigned.
fn capture(db: &Database) -> SnapshotGen {
    SnapshotGen {
        db: db.clone_for_snapshot(),
        lsn: 0,
        epoch: 0,
        durability: db.durability_status(),
    }
}

/// An immutable, point-in-time view of the database, pinned by readers.
///
/// Dereferences to [`Database`], so the full read surface (`object_by_name`, `objects_of_class`,
/// query planning, completeness analysis, ...) runs against the snapshot unchanged — and
/// entirely lock-free: cloning a `Snapshot` is one `Arc` refcount bump.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotGen>,
}

impl Snapshot {
    /// The durable LSN this snapshot corresponds to (publication epoch for in-memory
    /// databases).
    pub fn lsn(&self) -> u64 {
        self.inner.lsn
    }

    /// Monotonic publication counter (1 for the initial snapshot).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The durability status captured at publication time (`None` for in-memory databases).
    /// Snapshots carry it so status requests need not touch the authoritative database.
    pub fn durability(&self) -> Option<&DurabilityStatus> {
        self.inner.durability.as_ref()
    }
}

impl Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.inner.db
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("lsn", &self.inner.lsn)
            .field("epoch", &self.inner.epoch)
            .finish()
    }
}

/// The snapshot publication cell: readers call [`SnapshotCell::read`], the writer calls
/// [`SnapshotCell::publish`] after each commit.  Readers hold the slot lock only long enough
/// to clone an `Arc`; a publication holds it only for the pointer swap.
pub struct SnapshotCell {
    published: RwLock<Snapshot>,
    /// Serializes publications, so a state captured earlier never replaces a later one.
    publishing: Mutex<()>,
}

impl SnapshotCell {
    /// Builds the initial snapshot (epoch 1).
    pub fn new(db: &Database) -> Self {
        let gen = SnapshotGen { epoch: 1, lsn: db.durable_lsn().unwrap_or(1), ..capture(db) };
        Self {
            published: RwLock::new(Snapshot { inner: Arc::new(gen) }),
            publishing: Mutex::new(()),
        }
    }

    /// Pins the current snapshot: a brief shared lock on the slot, then fully lock-free reads.
    pub fn read(&self) -> Snapshot {
        self.published.read().clone()
    }

    /// Publishes the database's current state as the next snapshot generation (LSN taken from
    /// the database's durable cursor, or the epoch when in-memory).
    pub fn publish(&self, db: &Database) {
        let start = std::time::Instant::now();
        let _publishing = self.publishing.lock();
        let mut gen = capture(db);
        let retired = {
            let mut slot = self.published.write();
            gen.epoch = slot.epoch() + 1;
            gen.lsn = db.durable_lsn().unwrap_or(gen.epoch);
            std::mem::replace(&mut *slot, Snapshot { inner: Arc::new(gen) })
        };
        // Release the retired generation outside the slot lock.
        drop(retired);
        seed_obs::global().histogram("snapshot_publish_us").observe_duration(start.elapsed());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::name::NameSegment;
    use crate::value::Value;
    use seed_schema::figure3_schema;

    /// A deterministic, exhaustive rendering of the queryable state: every read in here must be
    /// byte-identical between a published snapshot and the live database it was taken from.
    pub(crate) fn fingerprint(db: &Database) -> String {
        let mut out = String::new();
        let mut objects: Vec<_> = db.store().all_objects().collect();
        objects.sort_by_key(|o| o.id);
        for o in &objects {
            out.push_str(&format!("O {:?}\n", o));
            out.push_str(&format!("  inherits {:?}\n", db.store().inherited_patterns(o.id)));
            out.push_str(&format!(
                "  children {:?}\n",
                db.children(o.id).iter().map(|c| c.record.id).collect::<Vec<_>>()
            ));
            out.push_str(&format!("  value {:?}\n", db.value(o.id)));
        }
        let mut rels: Vec<_> = db.store().all_relationships().collect();
        rels.sort_by_key(|r| r.id);
        for r in &rels {
            out.push_str(&format!("R {:?}\n", r));
        }
        out.push_str(&format!(
            "prefix {:?}\n",
            db.objects_with_name_prefix("").iter().map(|o| o.name.to_string()).collect::<Vec<_>>()
        ));
        for class in ["Thing", "Data", "Action", "OutputData"] {
            out.push_str(&format!(
                "class {class} {:?}\n",
                db.objects_of_class(class, true)
                    .unwrap_or_default()
                    .iter()
                    .map(|o| o.id)
                    .collect::<Vec<_>>()
            ));
        }
        out.push_str(&format!("schema {}\n", db.schema().name));
        out.push_str(&format!(
            "versions {:?}\n",
            db.versions().iter().map(|v| v.id.to_string()).collect::<Vec<_>>()
        ));
        out.push_str(&format!("counts {} {}\n", db.object_count(), db.relationship_count()));
        out.push_str(&format!("floors {:?}\n", db.store().id_floor()));
        out
    }

    #[test]
    fn snapshots_are_immutable_and_publication_is_incremental() {
        let mut db = Database::new(figure3_schema());
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let cell = SnapshotCell::new(&db);

        let s1 = cell.read();
        assert_eq!(s1.epoch(), 1);
        let s1_print = fingerprint(&s1);
        assert!(s1.object_by_name("Alarms").is_ok());

        // Mutate + publish twice: later writes must not reach earlier snapshots.
        let sensor = db.create_object("Action", "Sensor").unwrap();
        cell.publish(&db);
        let s2 = cell.read();
        db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        db.set_value(alarms, Value::Undefined).unwrap();
        cell.publish(&db);
        let s3 = cell.read();

        assert_eq!(s2.epoch(), 2);
        assert_eq!(s3.epoch(), 3);
        // Retired snapshots never change, even though they share nodes with the live store.
        assert_eq!(fingerprint(&s1), s1_print);
        assert!(s1.object_by_name("Sensor").is_err());
        assert!(s2.object_by_name("Sensor").is_ok());
        assert_eq!(s2.relationship_count(), 0);
        assert_eq!(s3.relationship_count(), 1);
        // The published snapshot is byte-identical to the live database.
        assert_eq!(fingerprint(&s3), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn cross_item_renames_within_one_delta_patch_cleanly() {
        let mut db = Database::new(figure3_schema());
        let a = db.create_object("Data", "Left").unwrap();
        let b = db.create_object("Data", "Right").unwrap();
        let cell = SnapshotCell::new(&db);
        // Publish once so the renames below copy nodes the published snapshot shares.
        db.create_object("Action", "Warmup").unwrap();
        cell.publish(&db);
        // Swap the two names within a single delta.
        db.rename_object(a, "Parked").unwrap();
        db.rename_object(b, "Left").unwrap();
        db.rename_object(a, "Right").unwrap();
        cell.publish(&db);
        // And once more after the swap.
        db.create_object("Action", "Warmup2").unwrap();
        cell.publish(&db);
        let s = cell.read();
        assert_eq!(s.object_by_name("Right").unwrap().id, a);
        assert_eq!(s.object_by_name("Left").unwrap().id, b);
        assert_eq!(fingerprint(&s), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn deletes_tombstones_and_dependents_patch_cleanly() {
        let mut db = Database::new(figure3_schema());
        let cell = SnapshotCell::new(&db);
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let text = db
            .create_dependent_named(alarms, "Text", NameSegment::plain("Text"), Value::Undefined)
            .unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        cell.publish(&db);
        db.delete_object(alarms).unwrap();
        cell.publish(&db);
        db.create_object("Data", "Alarms").unwrap(); // name reuse after tombstone
        cell.publish(&db);
        let s = cell.read();
        assert!(s.object(text).is_err());
        assert!(s.object_by_name("Alarms").is_ok());
        assert_eq!(fingerprint(&s), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn transition_rules_replaced_with_the_same_count_patch_cleanly() {
        use crate::history::TransitionRule;
        let mut db = Database::new(figure3_schema());
        db.add_transition_rule(TransitionRule::NoDeletions).unwrap();
        let cell = SnapshotCell::new(&db);
        db.create_object("Data", "Warmup").unwrap();
        cell.publish(&db);
        // Swap the rule set for a different one of the SAME length: the next snapshot must
        // pick it up.
        db.set_transition_rules(vec![TransitionRule::MustDiffer]);
        db.create_object("Data", "Warmup2").unwrap();
        cell.publish(&db);
        assert_eq!(cell.read().transition_rules(), &[TransitionRule::MustDiffer]);
        // And again, one publication later.
        db.create_object("Data", "Warmup3").unwrap();
        cell.publish(&db);
        assert_eq!(cell.read().transition_rules(), &[TransitionRule::MustDiffer]);
    }

    #[test]
    fn rolled_back_transactions_leave_the_next_snapshot_clean() {
        let mut db = Database::new(figure3_schema());
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let cell = SnapshotCell::new(&db);
        db.create_object("Action", "Keep").unwrap();
        cell.publish(&db);
        db.begin_transaction().unwrap();
        db.create_object("Action", "Ghost").unwrap();
        db.reclassify_object(alarms, "OutputData").unwrap();
        db.rollback_transaction().unwrap();
        cell.publish(&db);
        let s = cell.read();
        assert!(s.object_by_name("Ghost").is_err());
        assert!(s.object_by_name("Keep").is_ok());
        assert_eq!(fingerprint(&s), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn wholesale_resets_republish_and_recover_incremental_publishing() {
        let mut db = Database::new(figure3_schema());
        db.create_object("Data", "Alarms").unwrap();
        let v1 = db.create_version("v1").unwrap();
        db.create_object("Data", "Later").unwrap();
        let cell = SnapshotCell::new(&db);
        // An alternative checkout swaps the whole working store: the snapshot must follow.
        db.checkout_alternative(v1).unwrap();
        cell.publish(&db);
        assert!(cell.read().object_by_name("Later").is_err());
        db.return_to_current().unwrap();
        cell.publish(&db);
        assert!(cell.read().object_by_name("Later").is_ok());
        // Publishing goes on after the resets.
        db.create_object("Action", "After").unwrap();
        cell.publish(&db);
        db.create_object("Action", "After2").unwrap();
        cell.publish(&db);
        let s = cell.read();
        assert!(s.object_by_name("After2").is_ok());
        assert_eq!(fingerprint(&s), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn straggler_readers_force_a_clone_but_never_see_changes() {
        let mut db = Database::new(figure3_schema());
        db.create_object("Data", "Alarms").unwrap();
        let cell = SnapshotCell::new(&db);
        let mut pinned = Vec::new();
        let mut prints = Vec::new();
        for i in 0..6 {
            db.create_object("Data", &format!("D{i}")).unwrap();
            cell.publish(&db);
            let s = cell.read();
            prints.push(fingerprint(&s));
            pinned.push(s); // every generation stays pinned → every write copies shared nodes
        }
        for (s, print) in pinned.iter().zip(&prints) {
            assert_eq!(&fingerprint(s), print, "pinned snapshot mutated after retirement");
        }
        assert_eq!(fingerprint(&pinned[5]), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn snapshot_lsn_tracks_the_durable_cursor() {
        static DIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = DIRS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("seed-snap-lsn-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::create_durable(&dir, figure3_schema()).unwrap();
        let cell = SnapshotCell::new(&db);
        let initial = cell.read().lsn();
        assert_eq!(Some(initial), db.durable_lsn());
        db.create_object("Data", "Alarms").unwrap();
        cell.publish(&db);
        let s = cell.read();
        assert_eq!(Some(s.lsn()), db.durable_lsn());
        assert!(s.lsn() > initial);
        assert!(s.durability().is_some(), "durable snapshots carry the storage status");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;
    use seed_schema::figure3_schema;

    /// One step of the randomized reader/writer schedule.  `Publish` is the interleaving point:
    /// wherever it lands, the published snapshot must equal an exclusive-lock copy taken at the
    /// same instant.
    #[derive(Debug, Clone)]
    enum Op {
        CreateData(u8),
        CreateAction(u8),
        SetDescription(u8, String),
        CreateDescription(u8, String),
        Rename(u8, u8),
        Reclassify(u8),
        Link(u8, u8),
        Unlink(u8),
        Delete(u8),
        InheritPattern(u8),
        CreateVersion,
        Begin,
        Commit,
        Rollback,
        Publish,
    }

    fn data_name(i: u8) -> String {
        format!("D{i}")
    }

    fn action_name(i: u8) -> String {
        format!("A{i}")
    }

    fn apply(db: &mut Database, op: &Op) {
        match op {
            Op::CreateData(i) => {
                let _ = db.create_object("Data", &data_name(*i));
            }
            Op::CreateAction(i) => {
                let _ = db.create_object("Action", &action_name(*i));
            }
            Op::CreateDescription(i, text) => {
                if let Ok(parent) = db.object_by_name(&action_name(*i)) {
                    let _ =
                        db.create_dependent(parent.id, "Description", Value::string(text.clone()));
                }
            }
            Op::SetDescription(i, text) => {
                if let Ok(desc) = db.object_by_name(&format!("{}.Description", action_name(*i))) {
                    let _ = db.set_value(desc.id, Value::string(text.clone()));
                }
            }
            Op::Rename(i, j) => {
                if let Ok(obj) = db.object_by_name(&data_name(*i)) {
                    let _ = db.rename_object(obj.id, &data_name(*j));
                }
            }
            Op::Reclassify(i) => {
                if let Ok(obj) = db.object_by_name(&data_name(*i)) {
                    let _ = db.reclassify_object(obj.id, "OutputData");
                }
            }
            Op::Link(i, j) => {
                if let (Ok(d), Ok(a)) =
                    (db.object_by_name(&data_name(*i)), db.object_by_name(&action_name(*j)))
                {
                    let _ = db.create_relationship("Access", &[("from", d.id), ("by", a.id)]);
                }
            }
            Op::Unlink(i) => {
                if let Ok(d) = db.object_by_name(&data_name(*i)) {
                    if let Some(rel) = db.relationships(d.id).first() {
                        let id = rel.record.id;
                        let _ = db.delete_relationship(id);
                    }
                }
            }
            Op::Delete(i) => {
                if let Ok(obj) = db.object_by_name(&data_name(*i)) {
                    let _ = db.delete_object(obj.id);
                }
            }
            Op::InheritPattern(i) => {
                let pattern = match db.any_object_by_name("Pat") {
                    Ok(p) => p.id,
                    Err(_) => match db.create_pattern_object("Data", "Pat") {
                        Ok(p) => p,
                        Err(_) => return,
                    },
                };
                if let Ok(obj) = db.object_by_name(&data_name(*i)) {
                    let _ = db.inherit_pattern(obj.id, pattern);
                }
            }
            Op::CreateVersion => {
                if !db.in_transaction() {
                    let _ = db.create_version("snapshot");
                }
            }
            Op::Begin => {
                let _ = db.begin_transaction();
            }
            Op::Commit => {
                let _ = db.commit_transaction();
            }
            Op::Rollback => {
                let _ = db.rollback_transaction();
            }
            Op::Publish => unreachable!("handled by the schedule loop"),
        }
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let idx = 0u8..5;
        prop_oneof![
            idx.clone().prop_map(Op::CreateData),
            idx.clone().prop_map(Op::CreateAction),
            (idx.clone(), "[a-z]{0,6}").prop_map(|(i, t)| Op::CreateDescription(i, t)),
            (idx.clone(), "[a-z]{0,6}").prop_map(|(i, t)| Op::SetDescription(i, t)),
            (idx.clone(), 0u8..5).prop_map(|(i, j)| Op::Rename(i, j)),
            idx.clone().prop_map(Op::Reclassify),
            (idx.clone(), 0u8..5).prop_map(|(i, j)| Op::Link(i, j)),
            idx.clone().prop_map(Op::Unlink),
            idx.clone().prop_map(Op::Delete),
            idx.prop_map(Op::InheritPattern),
            (0u8..1).prop_map(|_| Op::CreateVersion),
            (0u8..1).prop_map(|_| Op::Begin),
            (0u8..1).prop_map(|_| Op::Commit),
            (0u8..1).prop_map(|_| Op::Rollback),
            (0u8..3).prop_map(|_| Op::Publish),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The MVCC oracle: for a random interleaved writer/publish schedule, every published
        /// snapshot must be byte-identical to a copy taken under the exclusive lock at the same
        /// instant ("the database rolled to LSN L"), and must still be byte-identical at the
        /// end of the run (immutability across later writes to the nodes it shares).
        #[test]
        fn published_snapshots_equal_exclusive_lock_reads(
            ops in proptest::collection::vec(arb_op(), 1..48),
        ) {
            let mut db = Database::new(figure3_schema());
            let cell = SnapshotCell::new(&db);
            let mut retained: Vec<(Snapshot, String)> = Vec::new();
            for op in &ops {
                if matches!(op, Op::Publish) {
                    cell.publish(&db);
                    let snap = cell.read();
                    // The exclusive-lock oracle: a copy at the same LSN.
                    let locked = db.clone_for_snapshot();
                    let expect = super::tests::fingerprint(&locked);
                    prop_assert_eq!(super::tests::fingerprint(&snap), expect.clone());
                    retained.push((snap, expect));
                } else {
                    apply(&mut db, op);
                }
            }
            // Epochs are strictly monotonic, and every retained generation is still intact.
            for pair in retained.windows(2) {
                prop_assert!(pair[0].0.epoch() < pair[1].0.epoch());
            }
            for (snap, expect) in &retained {
                // Retired snapshots must never be mutated by a later write.
                prop_assert_eq!(&super::tests::fingerprint(snap), expect);
            }
        }
    }
}
