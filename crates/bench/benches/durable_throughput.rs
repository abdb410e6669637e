//! E10 — incremental durability: per-item write-through commits vs whole-database checkpoints
//! (one snapshot image of the entire key space), and recovery from the storage WAL.
//!
//! The quick-report rendition (`cargo run -p seed-bench --release`, row E10) measures the same
//! scenario at 10k objects; here each leg gets Criterion statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use seed_core::{Database, ObjectId, Value};
use seed_schema::figure3_schema;

const OBJECTS: usize = 2_000;

fn temp_dir(name: &str) -> std::path::PathBuf {
    static DIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = DIRS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("seed-bench-e10c-{}-{name}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable database with `OBJECTS` data objects, bulk-loaded in one group commit.
fn durable_fixture(dir: &std::path::Path) -> (Database, Vec<ObjectId>) {
    let mut db = Database::create_durable(dir, figure3_schema()).unwrap();
    db.begin_transaction().unwrap();
    let mut ids = Vec::with_capacity(OBJECTS);
    for i in 0..OBJECTS {
        ids.push(db.create_object("Data", &format!("Data{i:06}")).unwrap());
    }
    db.commit_transaction().unwrap();
    db.checkpoint().unwrap();
    (db, ids)
}

fn write_through_vs_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("E10_write_through_vs_snapshot");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let dir = temp_dir("write-through");
    let (mut db, ids) = durable_fixture(&dir);
    let mut k = 0usize;
    group.bench_function("write_through_commit_1", |b| {
        b.iter(|| {
            k += 1;
            db.set_value(ids[k % ids.len()], Value::Undefined).unwrap();
        })
    });

    group.bench_function("checkpoint_full", |b| b.iter(|| db.checkpoint().unwrap()));
    group.finish();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

fn recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("E10_recovery");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    // Recovery with a WAL of 100 committed mutations on top of the last checkpoint.
    let dir = temp_dir("recovery");
    let (mut db, ids) = durable_fixture(&dir);
    for k in 0..100usize {
        db.set_value(ids[k % ids.len()], Value::Undefined).unwrap();
    }
    drop(db);
    group.bench_function("reopen_with_100_commit_wal", |b| {
        b.iter(|| {
            let db = Database::open_durable(&dir).unwrap();
            db.object_count()
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, write_through_vs_snapshot, recovery);
criterion_main!(benches);
