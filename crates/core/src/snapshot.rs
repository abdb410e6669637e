//! MVCC snapshot reads: immutable, LSN-keyed read snapshots published copy-on-write.
//!
//! The server's `RwLock<Database>` gives writers exclusivity, but it also means one long
//! check-in stalls every reader.  This module generalizes the delta-version machinery into a
//! **multi-version read path**: a [`SnapshotCell`] owns an immutable [`Snapshot`] of the
//! queryable state, readers pin it with one atomic refcount bump and then run entirely
//! lock-free, and writers publish a successor snapshot after each commit.
//!
//! ## Publication protocol
//!
//! Publication is O(delta), not O(database).  The cell keeps a **spare generation** — the
//! snapshot it retired last time — together with the exact item delta (`lag`) that spare is
//! missing relative to the published one.  To publish generation *N+1*:
//!
//! 1. drain the database's snapshot delta (*N → N+1*, maintained by
//!    [`Database::enable_snapshot_tracking`]);
//! 2. patch the spare (generation *N−1*) with `lag ∪ delta` via
//!    `Database::sync_snapshot_from`, which replays the changed records through the store's
//!    ordinary index-maintaining mutators — if a straggler reader still pins the spare,
//!    `Arc::make_mut` clones it first so the pinned snapshot is never mutated;
//! 3. swap the patched spare into the published slot (a brief write lock; readers hold the
//!    slot lock only long enough to clone an `Arc`), and demote the old published snapshot to
//!    be the next spare with `lag = delta`.
//!
//! ## Memory lifecycle
//!
//! At most two full copies of the database are alive in steady state: the published snapshot
//! and the spare (plus the authoritative store itself).  A retired snapshot that readers still
//! pin survives exactly until the last reader drops it — the `Arc` refcount is the retention
//! mechanism, there is no epoch table to administer.  Long-lived readers therefore cost one
//! database copy each, which is the operational trade-off documented in OPERATIONS.md.
//!
//! ## LSN keying
//!
//! Every snapshot carries the **durable LSN** it corresponds to (the storage engine's last
//! committed record at publication time).  In-memory databases, which have no WAL, fall back
//! to the publication epoch — still monotonic, so staleness remains observable.  Replicas
//! publish with an explicit LSN override: the shipped batch's `last_lsn`.

use std::ops::Deref;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::database::Database;
use crate::durability::DurabilityStatus;
use crate::ident::ItemId;

/// One immutable generation of the queryable state.
struct SnapshotGen {
    db: Database,
    lsn: u64,
    epoch: u64,
    durability: Option<DurabilityStatus>,
}

impl Clone for SnapshotGen {
    fn clone(&self) -> Self {
        Self {
            db: self.db.clone_for_snapshot(),
            lsn: self.lsn,
            epoch: self.epoch,
            durability: self.durability.clone(),
        }
    }
}

impl SnapshotGen {
    fn capture(db: &Database, epoch: u64, lsn: u64) -> Self {
        Self { db: db.clone_for_snapshot(), lsn, epoch, durability: db.durability_status() }
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

/// Publisher-side state: the retired generation kept as the next build buffer, and the delta
/// it is missing relative to the published snapshot.
struct Publisher {
    spare: Option<Arc<SnapshotGen>>,
    lag: Vec<ItemId>,
    epoch: u64,
}

/// The snapshot publication cell: readers call [`SnapshotCell::read`], the single writer calls
/// [`SnapshotCell::publish`] after each commit.
///
/// The published slot is behind its own `RwLock` so a slow publication (a forced full clone
/// because a straggler pinned the spare) never blocks readers — all patching happens on the
/// spare under the publisher mutex, and the slot lock is held only for the pointer swap.
pub struct SnapshotCell {
    published: RwLock<Snapshot>,
    state: Mutex<Publisher>,
}

impl SnapshotCell {
    /// Builds the initial snapshot (epoch 1) and enables snapshot-delta tracking on `db`.
    pub fn new(db: &mut Database) -> Self {
        db.enable_snapshot_tracking();
        let _ = db.take_snapshot_changes();
        let lsn = db.durable_lsn().unwrap_or(1);
        let gen = Arc::new(SnapshotGen::capture(db, 1, lsn));
        Self {
            published: RwLock::new(Snapshot { inner: gen }),
            state: Mutex::new(Publisher { spare: None, lag: Vec::new(), epoch: 1 }),
        }
    }

    /// Pins the current snapshot: a brief shared lock on the slot, then fully lock-free reads.
    pub fn read(&self) -> Snapshot {
        self.published.read().clone()
    }

    /// Publishes the database's current state as the next snapshot generation (LSN taken from
    /// the database's durable cursor, or the epoch when in-memory).
    pub fn publish(&self, db: &mut Database) {
        self.publish_at(db, None)
    }

    /// [`SnapshotCell::publish`] with an explicit LSN — the replica apply path, where the
    /// serving database is in-memory but the position is the shipped batch's `last_lsn`.
    pub fn publish_at(&self, db: &mut Database, lsn_hint: Option<u64>) {
        let start = std::time::Instant::now();
        let registry = seed_obs::global();
        let mut st = self.state.lock();
        // A wholesale-replaced database (replica snapshot resync) arrives untracked; enabling
        // tracking marks it for a rebuild, which take_snapshot_changes reports as `None`.
        db.enable_snapshot_tracking();
        let delta = db.take_snapshot_changes();
        st.epoch += 1;
        let epoch = st.epoch;
        let lsn = lsn_hint.or_else(|| db.durable_lsn()).unwrap_or(epoch);

        let fresh = match (&delta, st.spare.take()) {
            (Some(items), Some(mut spare)) => {
                // O(delta) path: the spare is two generations behind `db`, by exactly
                // `lag ∪ items`.  A straggler still pinning it forces a one-off clone.
                if Arc::get_mut(&mut spare).is_none() {
                    registry.counter("snapshot_straggler_copies_total").inc();
                }
                let gen = Arc::make_mut(&mut spare);
                let missing: Vec<ItemId> = st.lag.iter().chain(items.iter()).copied().collect();
                registry.histogram("snapshot_patch_items").observe(missing.len() as u64);
                gen.db.sync_snapshot_from(db, &missing);
                gen.lsn = lsn;
                gen.epoch = epoch;
                gen.durability = db.durability_status();
                spare
            }
            _ => {
                registry.counter("snapshot_full_captures_total").inc();
                Arc::new(SnapshotGen::capture(db, epoch, lsn))
            }
        };

        let retired = {
            let mut slot = self.published.write();
            std::mem::replace(&mut *slot, Snapshot { inner: fresh })
        };
        match delta {
            Some(items) => {
                // The retired snapshot is one generation behind by exactly this delta.
                st.lag = items;
                st.spare = Some(retired.inner);
            }
            None => {
                // Wholesale rebuild: the retired snapshot predates the reset and cannot be
                // patched back into currency; drop it (readers may still pin it).
                st.lag = Vec::new();
                st.spare = None;
            }
        }
        registry.histogram("snapshot_publish_us").observe_duration(start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NameSegment;
    use crate::value::Value;
    use seed_schema::figure3_schema;

    /// A deterministic, exhaustive rendering of the queryable state: every read in here must be
    /// byte-identical between a patched snapshot and a fresh full clone.
    pub(super) fn fingerprint(db: &Database) -> String {
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
        let cell = SnapshotCell::new(&mut db);

        let s1 = cell.read();
        assert_eq!(s1.epoch(), 1);
        let s1_print = fingerprint(&s1);
        assert!(s1.object_by_name("Alarms").is_ok());

        // Mutate + publish twice: the second publish exercises the patched-spare path.
        let sensor = db.create_object("Action", "Sensor").unwrap();
        cell.publish(&mut db);
        let s2 = cell.read();
        db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        db.set_value(alarms, Value::Undefined).unwrap();
        cell.publish(&mut db);
        let s3 = cell.read();

        assert_eq!(s2.epoch(), 2);
        assert_eq!(s3.epoch(), 3);
        // Retired snapshots never change, even though their generation became the spare.
        assert_eq!(fingerprint(&s1), s1_print);
        assert!(s1.object_by_name("Sensor").is_err());
        assert!(s2.object_by_name("Sensor").is_ok());
        assert_eq!(s2.relationship_count(), 0);
        assert_eq!(s3.relationship_count(), 1);
        // The patched snapshot is byte-identical to a fresh full clone.
        assert_eq!(fingerprint(&s3), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn cross_item_renames_within_one_delta_patch_cleanly() {
        let mut db = Database::new(figure3_schema());
        let a = db.create_object("Data", "Left").unwrap();
        let b = db.create_object("Data", "Right").unwrap();
        let cell = SnapshotCell::new(&mut db);
        // Publish once so the next publish patches the spare in place.
        db.create_object("Action", "Warmup").unwrap();
        cell.publish(&mut db);
        // Swap the two names within a single delta.
        db.rename_object(a, "Parked").unwrap();
        db.rename_object(b, "Left").unwrap();
        db.rename_object(a, "Right").unwrap();
        cell.publish(&mut db);
        // And once more so the spare (which saw the swap as lag) is patched and republished.
        db.create_object("Action", "Warmup2").unwrap();
        cell.publish(&mut db);
        let s = cell.read();
        assert_eq!(s.object_by_name("Right").unwrap().id, a);
        assert_eq!(s.object_by_name("Left").unwrap().id, b);
        assert_eq!(fingerprint(&s), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn deletes_tombstones_and_dependents_patch_cleanly() {
        let mut db = Database::new(figure3_schema());
        let cell = SnapshotCell::new(&mut db);
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let text = db
            .create_dependent_named(alarms, "Text", NameSegment::plain("Text"), Value::Undefined)
            .unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        cell.publish(&mut db);
        db.delete_object(alarms).unwrap();
        cell.publish(&mut db);
        db.create_object("Data", "Alarms").unwrap(); // name reuse after tombstone
        cell.publish(&mut db);
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
        let cell = SnapshotCell::new(&mut db);
        db.create_object("Data", "Warmup").unwrap();
        cell.publish(&mut db);
        // Swap the rule set for a different one of the SAME length: the patched spare must
        // pick it up (a count-based comparison would silently serve the stale rules).
        db.set_transition_rules(vec![TransitionRule::MustDiffer]);
        db.create_object("Data", "Warmup2").unwrap();
        cell.publish(&mut db);
        assert_eq!(cell.read().transition_rules(), &[TransitionRule::MustDiffer]);
        // And again, so the spare that still carries the old rules is patched and republished.
        db.create_object("Data", "Warmup3").unwrap();
        cell.publish(&mut db);
        assert_eq!(cell.read().transition_rules(), &[TransitionRule::MustDiffer]);
    }

    #[test]
    fn rolled_back_transactions_leave_the_next_snapshot_clean() {
        let mut db = Database::new(figure3_schema());
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let cell = SnapshotCell::new(&mut db);
        db.create_object("Action", "Keep").unwrap();
        cell.publish(&mut db);
        db.begin_transaction().unwrap();
        db.create_object("Action", "Ghost").unwrap();
        db.reclassify_object(alarms, "OutputData").unwrap();
        db.rollback_transaction().unwrap();
        cell.publish(&mut db);
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
        let cell = SnapshotCell::new(&mut db);
        // An alternative checkout swaps the whole working store: the snapshot must follow.
        db.checkout_alternative(v1).unwrap();
        cell.publish(&mut db);
        assert!(cell.read().object_by_name("Later").is_err());
        db.return_to_current().unwrap();
        cell.publish(&mut db);
        assert!(cell.read().object_by_name("Later").is_ok());
        // Incremental publishing resumes after the resets.
        db.create_object("Action", "After").unwrap();
        cell.publish(&mut db);
        db.create_object("Action", "After2").unwrap();
        cell.publish(&mut db);
        let s = cell.read();
        assert!(s.object_by_name("After2").is_ok());
        assert_eq!(fingerprint(&s), fingerprint(&db.clone_for_snapshot()));
    }

    #[test]
    fn straggler_readers_force_a_clone_but_never_see_changes() {
        let mut db = Database::new(figure3_schema());
        db.create_object("Data", "Alarms").unwrap();
        let cell = SnapshotCell::new(&mut db);
        let mut pinned = Vec::new();
        let mut prints = Vec::new();
        for i in 0..6 {
            db.create_object("Data", &format!("D{i}")).unwrap();
            cell.publish(&mut db);
            let s = cell.read();
            prints.push(fingerprint(&s));
            pinned.push(s); // every generation stays pinned → every publish hits make_mut
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
        let cell = SnapshotCell::new(&mut db);
        let initial = cell.read().lsn();
        assert_eq!(Some(initial), db.durable_lsn());
        db.create_object("Data", "Alarms").unwrap();
        cell.publish(&mut db);
        let s = cell.read();
        assert_eq!(Some(s.lsn()), db.durable_lsn());
        assert!(s.lsn() > initial);
        assert!(s.durability().is_some(), "durable snapshots carry the storage status");
        // Explicit override (the replica path).
        cell.publish_at(&mut db, Some(777));
        assert_eq!(cell.read().lsn(), 777);
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
    /// wherever it lands, the published snapshot must equal an exclusive-lock deep copy taken
    /// at the same instant.
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
        /// snapshot must be byte-identical to a deep copy taken under the exclusive lock at the
        /// same instant ("the database rolled to LSN L"), and must still be byte-identical at
        /// the end of the run (immutability across later publications that reuse its
        /// generation as the build buffer).
        #[test]
        fn published_snapshots_equal_exclusive_lock_reads(
            ops in proptest::collection::vec(arb_op(), 1..48),
        ) {
            let mut db = Database::new(figure3_schema());
            let cell = SnapshotCell::new(&mut db);
            let mut retained: Vec<(Snapshot, String)> = Vec::new();
            for op in &ops {
                if matches!(op, Op::Publish) {
                    cell.publish(&mut db);
                    let snap = cell.read();
                    // The exclusive-lock oracle: a full deep copy at the same LSN.
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
                // Retired snapshots must never be mutated by a later publication.
                prop_assert_eq!(&super::tests::fingerprint(snap), expect);
            }
        }
    }
}
