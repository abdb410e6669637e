//! Deterministic crash-injection harness for the segmented WAL and the storage engine.
//!
//! A [`FaultFs`] wraps the engine's whole disk — the WAL segments and the checkpoint snapshot —
//! with a *crash point*: a budget of disk-op units (one unit per written byte, one per metadata
//! operation) after which every operation fails — the process is dead.  Sweeping the crash
//! point across **every** unit of a workload kills the log at every byte boundary of every
//! append, every segment rotation (header creation), every checkpoint prune (segment deletion),
//! every snapshot write (temp bytes, sync, rename, directory sync) and every sync, including
//! mid-operation tears: an append or segment creation cut by the budget applies only a byte
//! prefix, exactly like a torn write, and a snapshot write cut before its rename leaves the old
//! snapshot in place.
//!
//! For each crash point of the WAL-level workload the harness reopens the surviving bytes and
//! asserts the recovery contract:
//!
//! * recovery always succeeds (no crash state is unopenable),
//! * the recovered effects are a **contiguous run of whole commits** — never a torn or
//!   reordered one,
//! * every commit whose sync was acknowledged before the crash (and that a checkpoint had not
//!   already pruned) is recovered,
//! * the commits the open hands over are exactly what the reopened log serves from its first
//!   LSN, and a second reopen hands over the same commits.
//!
//! The engine-level sweep drives commits, rotations, prunes and model-driven checkpoints (due
//! ones, an explicit one, one whose image predates the last commit, and a replica-style reset)
//! through a [`StorageEngine`] and asserts that every crash state reopens and recovers exactly
//! the key space of some prefix of the steps that contains every acknowledged one.
//!
//! The reset-install sweep crashes [`StorageEngine::install`] — a replica's whole state replaced
//! at another log's position, below, inside, at and past the end of its old log — at every
//! disk-op unit, and asserts that each crash state reopens (never `Corrupt`) as either the new
//! image at its LSN, with no old frame left in the log, or the old state at some prefix of the
//! old log.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use seed_storage::wal::{
    Commit, MemorySegmentIo, SegmentId, SegmentIo, WalConfig, WalTail, WriteAheadLog,
};
use seed_storage::{
    EngineConfig, ImageWriter, SnapshotImage, StorageEngine, StorageError, StorageResult,
};

/// The crash point: how many disk-op units the process survives before it dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashPoint(u64);

/// Segment and snapshot storage that dies at a [`CrashPoint`].
///
/// Costs: 1 unit per byte written (`append`, the contents of `create`, the snapshot's temp
/// file), 1 unit per metadata operation (`create` itself, `sync`, `delete`, `truncate`, and the
/// snapshot's sync, rename and directory sync).  Reads and listings are free.  When the budget
/// runs out mid-write, the byte prefix that fit is applied — a torn write — and the operation
/// (plus everything after it) fails.
struct FaultFs {
    segments: Mutex<BTreeMap<SegmentId, Vec<u8>>>,
    snapshot: Mutex<Option<Vec<u8>>>,
    remaining: AtomicU64,
}

/// What a restarted process finds on disk: the segments and the snapshot.
type DiskState = (BTreeMap<SegmentId, Vec<u8>>, Option<Vec<u8>>);

impl FaultFs {
    fn new(crash_point: CrashPoint) -> Self {
        Self::reopen((BTreeMap::new(), None), crash_point)
    }

    /// A disk holding a crash survivor's state, with a fresh budget.
    fn reopen((segments, snapshot): DiskState, crash_point: CrashPoint) -> Self {
        Self {
            segments: Mutex::new(segments),
            snapshot: Mutex::new(snapshot),
            remaining: AtomicU64::new(crash_point.0),
        }
    }

    /// Everything that survives the crash.
    fn surviving_disk(&self) -> DiskState {
        (self.segments.lock().clone(), self.snapshot.lock().clone())
    }

    /// Takes up to `want` units from the budget, returning how many were granted.
    fn take(&self, want: u64) -> u64 {
        let mut granted = 0;
        let _ = self.remaining.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
            granted = left.min(want);
            Some(left - granted)
        });
        granted
    }

    fn died() -> StorageError {
        StorageError::Io(std::io::Error::other("injected crash"))
    }

    /// The segment bytes that survive the crash (the WAL-level workload writes no snapshot).
    fn surviving_segments(&self) -> BTreeMap<SegmentId, Vec<u8>> {
        self.surviving_disk().0
    }

    /// Units consumed so far (used once, with an effectively infinite budget, to size the sweep).
    fn consumed(&self, initial: CrashPoint) -> u64 {
        initial.0 - self.remaining.load(Ordering::SeqCst)
    }
}

impl SegmentIo for FaultFs {
    fn list(&self) -> StorageResult<Vec<SegmentId>> {
        Ok(self.segments.lock().keys().copied().collect())
    }

    fn read(&self, id: SegmentId) -> StorageResult<Vec<u8>> {
        self.segments
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| StorageError::InvalidArgument(format!("no such segment {id}")))
    }

    fn create(&self, id: SegmentId, initial: &[u8]) -> StorageResult<()> {
        if self.take(1) < 1 {
            return Err(Self::died());
        }
        self.segments.lock().insert(id, Vec::new());
        let granted = self.take(initial.len() as u64) as usize;
        self.segments
            .lock()
            .get_mut(&id)
            .expect("just created")
            .extend_from_slice(&initial[..granted]);
        if granted < initial.len() {
            return Err(Self::died());
        }
        Ok(())
    }

    fn append(&self, id: SegmentId, bytes: &[u8]) -> StorageResult<()> {
        let granted = self.take(bytes.len() as u64) as usize;
        {
            let mut segments = self.segments.lock();
            let seg = segments
                .get_mut(&id)
                .ok_or_else(|| StorageError::InvalidArgument(format!("no such segment {id}")))?;
            seg.extend_from_slice(&bytes[..granted]);
        }
        if granted < bytes.len() {
            return Err(Self::died());
        }
        Ok(())
    }

    fn sync(&self, _id: SegmentId) -> StorageResult<()> {
        if self.take(1) < 1 {
            return Err(Self::died());
        }
        Ok(())
    }

    fn truncate(&self, id: SegmentId, len: u64) -> StorageResult<()> {
        if self.take(1) < 1 {
            return Err(Self::died());
        }
        let mut segments = self.segments.lock();
        let seg = segments
            .get_mut(&id)
            .ok_or_else(|| StorageError::InvalidArgument(format!("no such segment {id}")))?;
        seg.truncate(len as usize);
        Ok(())
    }

    fn delete(&self, id: SegmentId) -> StorageResult<()> {
        if self.take(1) < 1 {
            return Err(Self::died());
        }
        self.segments.lock().remove(&id);
        Ok(())
    }

    /// Temp-file bytes, sync, rename, directory sync.  Only the rename changes what a restart
    /// sees: a crash before it leaves the old snapshot, at or after it the new one.
    fn write_snapshot(&self, image: &[u8]) -> StorageResult<()> {
        let written = self.take(image.len() as u64) == image.len() as u64;
        // Temp bytes, then their sync, then the rename.
        if !written || self.take(1) < 1 || self.take(1) < 1 {
            return Err(Self::died());
        }
        *self.snapshot.lock() = Some(image.to_vec());
        // Directory sync.
        if self.take(1) < 1 {
            return Err(Self::died());
        }
        Ok(())
    }

    fn read_snapshot(&self) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.snapshot.lock().clone())
    }
}

/// A small segment cap so the workload rotates constantly, and a budget that retains one
/// checkpoint's worth of segments when a retention floor is set.
fn harness_config() -> WalConfig {
    WalConfig { segment_max_bytes: 96, retention_budget_bytes: 4096 }
}

const TXNS: u64 = 12;

/// Transaction `txn`'s commit: one put whose key names the transaction, so recovered effects
/// identify which transactions survived.
fn commit(txn: u64) -> Commit {
    Commit { effects: vec![(format!("txn/{txn:04}").into_bytes(), Some(vec![txn as u8; 24]))] }
}

/// Drives the workload until it finishes or the crash point kills an operation.  Returns the
/// transactions whose commit sync was acknowledged, and the transactions a completed
/// checkpoint prune has already discarded from the log (their durability moved to the "page
/// store" — out of scope at the WAL level).
fn run_workload(wal: &WriteAheadLog) -> (Vec<u64>, Vec<u64>) {
    let mut acked = Vec::new();
    let mut pruned = Vec::new();
    for txn in 1..=TXNS {
        if wal.append(&[commit(txn)]).is_err() {
            break;
        }
        acked.push(txn);
        // Checkpoint prune without subscribers after txn 4 (drops everything), and with a
        // lagging subscriber pinned at txn 7's commit after txn 8 (torn deletion of the
        // segments below the floor, retention of the rest).
        if txn == 4 {
            wal.set_retention_floor(None);
            if wal.truncate(wal.durable_lsn()).is_err() {
                break;
            }
            pruned = (1..=4).collect();
        }
        if txn == 8 {
            // One commit per LSN: txn 7's commit is LSN 7.
            wal.set_retention_floor(Some(7));
            if wal.truncate(wal.durable_lsn()).is_err() {
                break;
            }
        }
    }
    (acked, pruned)
}

/// Which transactions the recovered log yields, given the surviving bytes.
fn recover(survivors: BTreeMap<SegmentId, Vec<u8>>) -> (Vec<u64>, Vec<u64>) {
    let io = Arc::new(MemorySegmentIo::from_segments(survivors));
    let (wal, records) = WriteAheadLog::with_io(io.clone(), harness_config())
        .expect("recovery must succeed from every crash state");
    let WalTail::Records(served) = wal.read_from(wal.base_lsn() + 1).expect("tail read") else {
        panic!("the log's first LSN must be in the log");
    };
    assert_eq!(records, served, "open hands over exactly the commits the log serves");
    let txns = records
        .iter()
        .flat_map(|(_, commit)| commit.effects.clone())
        .map(|(key, value)| {
            let key = String::from_utf8(key).expect("workload keys are utf-8");
            assert!(value.is_some(), "workload writes only puts");
            key.strip_prefix("txn/").expect("workload key shape").parse::<u64>().unwrap()
        })
        .collect();
    drop(wal);
    let (_, again) =
        WriteAheadLog::with_io(io, harness_config()).expect("the repaired log reopens");
    assert_eq!(again, records, "recovery is repeatable");
    (txns, records.iter().map(|(l, _)| *l).collect())
}

#[test]
fn recovery_yields_a_committed_prefix_at_every_crash_point() {
    // Size the sweep: run the whole workload once with an effectively infinite budget.
    let infinite = CrashPoint(u64::MAX / 2);
    let probe = Arc::new(FaultFs::new(infinite));
    let (wal, _) = WriteAheadLog::with_io(probe.clone(), harness_config()).unwrap();
    let (acked, _) = run_workload(&wal);
    assert_eq!(acked.len() as u64, TXNS, "the probe run must complete");
    let total = probe.consumed(infinite);
    // The workload spans appends, syncs, rotations and prunes; make sure the sweep actually
    // covers a non-trivial surface before trusting the loop below.
    assert!(total > 500, "expected a few hundred crash points, got {total}");

    for point in 0..=total {
        let fs = Arc::new(FaultFs::new(CrashPoint(point)));
        // Opening an empty log creates the first segment, which itself can crash; that is a
        // legal crash state too, and recovery below must still cope.
        let (acked, pruned) = match WriteAheadLog::with_io(fs.clone(), harness_config()) {
            Ok((wal, _)) => run_workload(&wal),
            Err(_) => (Vec::new(), Vec::new()),
        };
        let (recovered, lsns) = recover(fs.surviving_segments());

        // Recovered LSNs are contiguous: no holes, no reordering.
        if let (Some(first), Some(last)) = (lsns.first(), lsns.last()) {
            assert_eq!(
                lsns,
                (*first..=*last).collect::<Vec<u64>>(),
                "crash point {point}: recovered LSNs must be contiguous"
            );
        }

        // Recovered transactions form one contiguous run of whole transactions.
        if let (Some(&lo), Some(&hi)) = (recovered.first(), recovered.last()) {
            assert_eq!(
                recovered,
                (lo..=hi).collect::<Vec<u64>>(),
                "crash point {point}: recovered transactions must be a contiguous run"
            );
            assert!(
                hi <= TXNS,
                "crash point {point}: recovered a transaction that was never committed"
            );
        }

        // Durability: every acknowledged transaction survives, unless a completed checkpoint
        // prune discarded it from the log on purpose.
        let lo = recovered.first().copied().unwrap_or(u64::MAX);
        for &txn in &acked {
            if pruned.contains(&txn) || txn < lo {
                // Pruned by a checkpoint that completed (or by one whose deletes partially
                // ran — the hole rule keeps the newest contiguous run).  Either way the
                // commits below `lo` were checkpoint-covered, never lost.
                continue;
            }
            assert!(
                recovered.contains(&txn),
                "crash point {point}: acked transaction {txn} lost (recovered {recovered:?})"
            );
        }
    }
}

#[test]
fn the_crash_sweep_covers_rotations_and_deletions() {
    // Meta-test: the workload above must actually exercise the crash surfaces the harness
    // claims to sweep — segment creations (rotations) and deletions (checkpoint prunes).
    let infinite = CrashPoint(u64::MAX / 2);
    let fs = Arc::new(FaultFs::new(infinite));
    let (wal, _) = WriteAheadLog::with_io(fs.clone(), harness_config()).unwrap();
    let _ = run_workload(&wal);
    assert!(wal.segment_count() >= 2, "workload must end with rotated segments");
    let survivors = fs.surviving_segments();
    let first = *survivors.keys().next().unwrap();
    assert!(first > 1, "workload must have deleted (pruned) early segments");
    let last = *survivors.keys().last().unwrap();
    assert!(last > first, "workload must have created later segments (rotations)");
}

// ----- engine-level sweep: commits, checkpoints, rotations, prunes --------------------------------

/// Small caps so the engine workload rotates segments and checkpoints every few commits;
/// the retention budget keeps a segment or two for the subscriber the workload pins midway.
fn engine_config() -> EngineConfig {
    EngineConfig {
        checkpoint_wal_bytes: Some(320),
        wal: WalConfig { segment_max_bytes: 128, retention_budget_bytes: 256 },
    }
}

const COMMITS: usize = 20;

/// The step that is not a commit but a replica-style reset: one image replaces the whole key
/// space at the end of the log.
const RESET_AT: usize = 15;

/// Commit `i`'s effects, over a small key space so later commits overwrite (growing and
/// shrinking values) and delete what earlier ones wrote.
fn commit_effects(i: usize) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    let key = |k: usize| format!("k/{k}").into_bytes();
    let mut effects = vec![(key(i % 5), Some(vec![i as u8; (i * 7) % 40]))];
    if i % 3 == 2 {
        effects.push((key((i + 2) % 5), None));
    }
    if i % 4 == 1 {
        effects.push((key(5 + i % 2), Some(vec![0xEE; 16 + i])));
    }
    effects
}

type KeySpace = BTreeMap<Vec<u8>, Vec<u8>>;

/// The key space a reset installs: some keys kept, some new, the rest gone.
fn reset_space() -> KeySpace {
    [(b"k/1".to_vec(), vec![0xAA; 12]), (b"reset/marker".to_vec(), b"fresh".to_vec())]
        .into_iter()
        .collect()
}

/// `states[k]` is the key space after the first `k` steps.
fn model_states() -> Vec<KeySpace> {
    let mut states = vec![KeySpace::new()];
    for i in 0..COMMITS {
        let mut next = states[i].clone();
        if i == RESET_AT {
            next = reset_space();
        }
        for (key, value) in commit_effects(i).into_iter().filter(|_| i != RESET_AT) {
            match value {
                Some(v) => next.insert(key, v),
                None => next.remove(&key),
            };
        }
        states.push(next);
    }
    states
}

/// The snapshot image of `space` covering the log up to `lsn`.
fn image_of(space: &KeySpace, lsn: u64) -> SnapshotImage {
    let mut writer = ImageWriter::new(lsn);
    for (key, value) in space {
        writer.put(key, value);
    }
    writer.finish()
}

/// Drives the steps until the crash point kills one; returns how many were acknowledged.
/// Checkpoints come from the model, as the owner of the data drives them: whenever the engine
/// reports one due, one explicit, one whose image was cut before the next commit was appended
/// (the shape of a background checkpoint), and one replica-style reset.  Midway a replication
/// subscriber pins the log (checkpoints then retain segments) and later lets go.
fn run_engine_workload(engine: &StorageEngine, states: &[KeySpace]) -> usize {
    let mut late_image = None;
    for i in 0..COMMITS {
        if i == 10 {
            engine.set_replication_retention(Some(engine.durable_lsn().saturating_sub(8).max(1)));
        }
        if i == 16 {
            engine.set_replication_retention(None);
        }
        if i == RESET_AT {
            if engine.checkpoint(&image_of(&states[i + 1], engine.durable_lsn())).is_err() {
                return i;
            }
            continue;
        }
        if engine.commit(commit_effects(i)).is_err() {
            return i;
        }
        let checkpointed = match late_image.take() {
            Some(image) => engine.checkpoint(&image),
            None if i == 17 => {
                late_image = Some(image_of(&states[i + 1], engine.durable_lsn()));
                Ok(())
            }
            None if i == 6 || engine.checkpoint_due() => {
                engine.checkpoint(&image_of(&states[i + 1], engine.durable_lsn()))
            }
            None => Ok(()),
        };
        if checkpointed.is_err() {
            return i + 1;
        }
    }
    COMMITS
}

/// What a restart over `disk` recovers, and the reopened engine.
fn reopen(disk: Arc<FaultFs>) -> StorageResult<(StorageEngine, KeySpace)> {
    let (engine, recovered) = StorageEngine::with_io(disk, engine_config())?;
    let mut space = KeySpace::new();
    for (key, value) in recovered.effects {
        match value {
            Some(v) => space.insert(key, v),
            None => space.remove(&key),
        };
    }
    Ok((engine, space))
}

#[test]
fn engine_recovers_a_committed_prefix_at_every_crash_point() {
    let states = model_states();
    let infinite = CrashPoint(u64::MAX / 2);
    let probe = Arc::new(FaultFs::new(infinite));
    let (engine, _) = StorageEngine::with_io(probe.clone(), engine_config()).unwrap();
    assert_eq!(run_engine_workload(&engine, &states), COMMITS, "the probe run must complete");
    drop(engine);
    let total = probe.consumed(infinite);
    assert_eq!(
        reopen(Arc::new(FaultFs::reopen(probe.surviving_disk(), infinite))).unwrap().1,
        states[COMMITS]
    );
    assert!(total > 1000, "expected a few thousand crash points, got {total}");

    for point in 0..=total {
        let fs = Arc::new(FaultFs::new(CrashPoint(point)));
        // Opening an empty disk creates the first segment, which itself can crash.
        let acked = match StorageEngine::with_io(fs.clone(), engine_config()) {
            Ok((engine, _)) => run_engine_workload(&engine, &states),
            Err(_) => 0,
        };
        let disk = fs.surviving_disk();
        let reopened = Arc::new(FaultFs::reopen(disk, infinite));
        let (engine, recovered) = reopen(reopened.clone())
            .unwrap_or_else(|e| panic!("crash point {point}: reopen failed: {e}"));
        // Some prefix of the commits containing every acknowledged one; at most the one commit
        // in flight at the crash beyond that.
        let attempted = (acked + 1).min(COMMITS);
        assert!(
            (acked..=attempted).any(|k| states[k] == recovered),
            "crash point {point}: recovered key space matches no prefix in {acked}..={attempted} \
             (recovered {recovered:?})"
        );
        // The recovered engine keeps working: a further commit survives another restart.
        engine.commit(vec![(b"after/crash".to_vec(), Some(b"ok".to_vec()))]).unwrap();
        drop(engine);
        let (_, again) = reopen(reopened).unwrap();
        let mut expected = recovered;
        expected.insert(b"after/crash".to_vec(), b"ok".to_vec());
        assert_eq!(again, expected, "crash point {point}: second restart");
    }
}

#[test]
fn the_engine_sweep_covers_checkpoints_rotations_and_prunes() {
    let infinite = CrashPoint(u64::MAX / 2);
    let fs = Arc::new(FaultFs::new(infinite));
    let (engine, _) = StorageEngine::with_io(fs.clone(), engine_config()).unwrap();
    run_engine_workload(&engine, &model_states());
    let (segments, snapshot) = fs.surviving_disk();
    assert!(snapshot.is_some(), "checkpoints must have written a snapshot");
    let first = *segments.keys().next().unwrap();
    let last = *segments.keys().last().unwrap();
    assert!(first > 1, "checkpoints must have pruned early segments");
    assert!(last >= 4, "the workload must rotate through several segments");
}

// ----- reset-install sweep: the whole state replaced at another log's position ---------------

/// Commits in the log a reset install replaces (a checkpoint at [`OLD_CHECKPOINT`] prunes its
/// start, so the old disk holds a snapshot and several segments).
const OLD_COMMITS: usize = 12;
const OLD_CHECKPOINT: usize = 6;

/// The disk of a store whose log ends at LSN [`OLD_COMMITS`], each commit `i` at LSN `i + 1`.
fn old_disk(states: &[KeySpace]) -> DiskState {
    let fs = Arc::new(FaultFs::new(CrashPoint(u64::MAX / 2)));
    let (engine, _) = StorageEngine::with_io(fs.clone(), engine_config()).unwrap();
    for i in 0..OLD_COMMITS {
        engine.commit(commit_effects(i)).unwrap();
        if i + 1 == OLD_CHECKPOINT {
            engine.checkpoint(&image_of(&states[i + 1], engine.durable_lsn())).unwrap();
        }
    }
    assert_eq!(engine.durable_lsn(), OLD_COMMITS as u64);
    drop(engine);
    fs.surviving_disk()
}

#[test]
fn a_reset_install_reopens_as_the_old_state_a_prefix_of_it_or_the_new_one_at_every_crash_point() {
    let states = model_states();
    let old = old_disk(&states);
    assert!(old.0.len() >= 2, "the old log spans several segments: {:?}", old.0.keys());
    let infinite = CrashPoint(u64::MAX / 2);
    // Below the old snapshot, inside the old log, at its end, and past it: the first three are
    // a replica whose old log runs past the cut.
    for cut in [2, 9, OLD_COMMITS as u64, 40] {
        let image = image_of(&reset_space(), cut);
        let probe = Arc::new(FaultFs::reopen(old.clone(), infinite));
        let (engine, _) = StorageEngine::with_io(probe.clone(), engine_config()).unwrap();
        assert_eq!(probe.consumed(infinite), 0, "opening the old disk writes nothing");
        engine.install(&image).unwrap();
        drop(engine);
        let total = probe.consumed(infinite);
        assert!(total > old.0.len() as u64 + 24, "cut {cut}: {total} crash points");

        for point in 0..=total {
            let fs = Arc::new(FaultFs::reopen(old.clone(), CrashPoint(point)));
            let (engine, _) = StorageEngine::with_io(fs.clone(), engine_config()).unwrap();
            let installed = engine.install(&image).is_ok();
            drop(engine);
            let reopened = Arc::new(FaultFs::reopen(fs.surviving_disk(), infinite));
            let (engine, recovered) = reopen(reopened.clone())
                .unwrap_or_else(|e| panic!("cut {cut}, crash point {point}: reopen failed: {e}"));
            let end = engine.durable_lsn();
            if recovered == reset_space() {
                assert_eq!(end, cut, "cut {cut}, crash point {point}: the image's position");
                // No frame of the old log is left to serve, below or past the cut.
                assert_eq!(engine.wal_tail(cut + 1).unwrap(), WalTail::Records(Vec::new()));
                assert!(matches!(engine.wal_tail(cut).unwrap(), WalTail::Truncated { .. }));
            } else {
                assert!(!installed, "cut {cut}, crash point {point}: an acknowledged install lost");
                assert!(
                    end <= OLD_COMMITS as u64 && recovered == states[end as usize],
                    "cut {cut}, crash point {point}: recovered neither the image nor the old \
                     state at LSN {end} (recovered {recovered:?})"
                );
            }
            // The reopened engine keeps numbering after its end, across another restart.
            engine.commit(vec![(b"after/crash".to_vec(), Some(b"ok".to_vec()))]).unwrap();
            assert_eq!(engine.durable_lsn(), end + 1);
            drop(engine);
            let (engine, again) = reopen(reopened).unwrap();
            let mut expected = recovered;
            expected.insert(b"after/crash".to_vec(), b"ok".to_vec());
            assert_eq!(again, expected, "cut {cut}, crash point {point}: second restart");
            assert_eq!(engine.durable_lsn(), end + 1);
        }
    }
}
