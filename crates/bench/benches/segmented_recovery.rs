//! E13 — segmented WAL recovery: replaying a long, many-segment log serially vs with the
//! per-segment parallel parser the recovery path uses.
//!
//! The quick-report rendition (`cargo run -p seed-bench --release`, row E13) measures the same
//! scenario at 20k commits; here each replay path gets Criterion statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use seed_storage::{LogRecord, WalConfig, WriteAheadLog};

const COMMITS: u64 = 5_000;
const SEGMENT_MAX_BYTES: u64 = 64 * 1024;

fn temp_dir(name: &str) -> std::path::PathBuf {
    static DIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = DIRS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("seed-bench-e13c-{}-{name}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A multi-segment on-disk WAL holding `COMMITS` committed transactions.
fn segmented_fixture(dir: &std::path::Path) -> WriteAheadLog {
    let config = WalConfig { segment_max_bytes: SEGMENT_MAX_BYTES, ..WalConfig::default() };
    let wal = WriteAheadLog::open_dir(dir, config).unwrap();
    for txn in 0..COMMITS {
        let key = format!("bench/{txn:08}").into_bytes();
        wal.append_batch(&[
            LogRecord::Begin { txn },
            LogRecord::Put { txn, key, value: vec![0xA5; 96] },
            LogRecord::Commit { txn },
        ])
        .unwrap();
    }
    wal.sync().unwrap();
    wal
}

fn replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("E13_segmented_replay");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let dir = temp_dir("replay");
    let wal = segmented_fixture(&dir);
    assert!(wal.segment_count() > 4, "the fixture must span segments");
    group.bench_function("serial_read_all", |b| b.iter(|| wal.read_all().unwrap().len()));
    group
        .bench_function("parallel_read_all", |b| b.iter(|| wal.read_all_parallel().unwrap().len()));
    group.finish();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, replay);
criterion_main!(benches);
