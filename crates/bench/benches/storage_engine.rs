//! E7 — storage substrate micro-benchmarks: WAL appends and engine puts.

use criterion::{criterion_group, criterion_main, Criterion};
use seed_storage::{LogRecord, StorageEngine, WriteAheadLog};

fn wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7_wal");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function("wal_append_100", |b| {
        b.iter(|| {
            let wal = WriteAheadLog::in_memory();
            for i in 0..100u64 {
                wal.append(&LogRecord::Put {
                    txn: 1,
                    key: i.to_le_bytes().to_vec(),
                    value: vec![0u8; 64],
                })
                .unwrap();
            }
            wal.next_lsn()
        })
    });
    group.finish();
}

fn engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7_engine");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.bench_function("engine_put_1000", |b| {
        b.iter(|| {
            let engine = StorageEngine::in_memory().unwrap();
            for i in 0..1000u32 {
                let txn = engine.begin().unwrap();
                engine.txn_put(txn, format!("obj/{i:05}").as_bytes(), &[0u8; 128]).unwrap();
                engine.commit(txn).unwrap();
            }
            engine.durable_lsn()
        })
    });
    group.finish();
}

criterion_group!(benches, wal, engine);
criterion_main!(benches);
