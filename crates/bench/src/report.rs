//! The evaluation report: one row per experiment of `EXPERIMENTS.md`, measured with plain
//! timers (run `cargo run -p seed-bench --release`).
//!
//! Next to the human-readable table, [`run_report_mode`] writes **`BENCH.json`** — a
//! machine-readable map of experiment id → named metrics — so the performance trajectory can be
//! tracked across PRs (CI uploads the file as an artifact from the `--smoke` run).

use std::time::{Duration, Instant};

use seed_core::{Database, Value, VersionId};
use seed_schema::figure3_schema;
use seed_server::{SeedServer, Update};
use seed_storage::{ImageWriter, StorageEngine};
use spades::{DirectBackend, SpecBackend};

use crate::scenarios;

/// Machine-readable result of one experiment: its stable id and named numeric metrics.
pub struct ExperimentMetrics {
    /// Stable experiment id (`E1` … `E17`).
    pub id: &'static str,
    /// Named metrics, in presentation order.  Times are microseconds unless the name says
    /// otherwise; `*_x` values are ratios.
    pub metrics: Vec<(String, f64)>,
    /// Flattened copy of the process-global observability registry, captured right after the
    /// experiment finished (cumulative across the report run).  Empty until
    /// [`run_report_mode`] attaches it; rendered as a nested `"obs"` object in `BENCH.json`.
    pub obs: Vec<(String, f64)>,
}

impl ExperimentMetrics {
    fn new(id: &'static str, metrics: &[(&str, f64)]) -> Self {
        Self {
            id,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            obs: Vec::new(),
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Flattens the process-global registry into `(name, value)` pairs: counters and gauges as-is,
/// histograms as `_count`/`_p50`/`_p99` triples — the shape `BENCH.json` embeds per experiment.
pub fn registry_flat() -> Vec<(String, f64)> {
    let snap = seed_obs::global().snapshot();
    let mut out = Vec::new();
    for (name, v) in &snap.counters {
        out.push((name.clone(), *v as f64));
    }
    for (name, v) in &snap.gauges {
        out.push((name.clone(), *v as f64));
    }
    for h in &snap.histograms {
        out.push((format!("{}_count", h.name), h.count as f64));
        out.push((format!("{}_p50", h.name), h.p50() as f64));
        out.push((format!("{}_p99", h.name), h.p99() as f64));
    }
    out
}

fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

/// A fresh scratch directory for one experiment run: the process id keeps concurrent report
/// runs apart, the counter keeps experiments of one process (tests run them on parallel
/// threads) apart.
fn scratch_dir(experiment: &str) -> std::path::PathBuf {
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = RUNS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("seed-bench-{experiment}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The cores this process may run on; `BENCH.json` records it, and the ratio bars skip below 2.
fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn row(id: &str, what: &str, measurement: String) {
    println!("{id:<4} {what:<58} {measurement}");
}

/// The `p`-quantile of a latency sample, in microseconds (sorts in place).
fn percentile(latencies: &mut [Duration], p: f64) -> f64 {
    latencies.sort();
    if latencies.is_empty() {
        return 0.0;
    }
    let idx = ((latencies.len() as f64 * p) as usize).min(latencies.len() - 1);
    latencies[idx].as_secs_f64() * 1e6
}

/// E1 — SPADES on SEED vs. the direct pre-SEED implementation.
pub fn e1_spades_overhead(scale: usize) -> ExperimentMetrics {
    let workload = scenarios::spades_workload(scale);
    let (direct_time, _) = time(|| scenarios::run_on_direct(&workload));
    let (seed_time, _) = time(|| scenarios::run_on_seed(&workload, true));
    let slowdown = seed_time.as_secs_f64() / direct_time.as_secs_f64().max(f64::EPSILON);
    row(
        "E1",
        &format!("SPADES workload ({} ops): SEED vs direct", workload.len()),
        format!("direct {:>8.2?}  seed {:>8.2?}  slowdown {slowdown:.1}x", direct_time, seed_time),
    );
    // Flexibility half of the claim: only SEED can analyse incompleteness.
    let mut seed = spades::SeedBackend::new();
    workload.apply(&mut seed);
    let mut direct = DirectBackend::new();
    workload.apply(&mut direct);
    row(
        "E1b",
        "  flexibility: incompleteness findings (SEED vs direct)",
        format!("{} vs {}", seed.incompleteness_findings(), direct.incompleteness_findings()),
    );
    ExperimentMetrics::new(
        "E1",
        &[
            ("direct_us", direct_time.as_secs_f64() * 1e6),
            ("seed_us", seed_time.as_secs_f64() * 1e6),
            ("slowdown_x", slowdown),
            ("seed_findings", seed.incompleteness_findings() as f64),
            ("direct_findings", direct.incompleteness_findings() as f64),
        ],
    )
}

/// E2 — cost of consistency checking on every update.
pub fn e2_consistency_overhead(scale: usize) -> ExperimentMetrics {
    let workload = scenarios::spades_workload(scale);
    let (with_checks, _) = time(|| scenarios::run_on_seed(&workload, true));
    let (without_checks, _) = time(|| scenarios::run_on_seed(&workload, false));
    let factor = with_checks.as_secs_f64() / without_checks.as_secs_f64().max(f64::EPSILON);
    row(
        "E2",
        &format!("consistency checking on vs off ({} ops)", workload.len()),
        format!("on {with_checks:>8.2?}  off {without_checks:>8.2?}  overhead {factor:.2}x"),
    );
    ExperimentMetrics::new(
        "E2",
        &[
            ("on_us", with_checks.as_secs_f64() * 1e6),
            ("off_us", without_checks.as_secs_f64() * 1e6),
            ("overhead_x", factor),
        ],
    )
}

/// E3 — delta-based version storage vs. full copies.
pub fn e3_version_storage(
    objects: usize,
    versions: usize,
    changes_per_version: usize,
) -> ExperimentMetrics {
    let db = scenarios::versioned_database(objects, versions, changes_per_version);
    let delta_snapshots = db.version_manager().stored_snapshot_count();
    let full_copy_items = (0..versions)
        .map(|v| {
            db.object_count() + db.relationship_count() - (versions - 1 - v) * changes_per_version
        })
        .sum::<usize>();
    let (view_time, _) = time(|| db.version_manager().view(&VersionId::initial()).unwrap());
    row(
        "E3",
        &format!("version storage, {objects} objects x {versions} versions ({changes_per_version} changes each)"),
        format!(
            "delta stores {delta_snapshots} item snapshots vs ~{full_copy_items} for full copies; view(1.0) in {view_time:.2?}"
        ),
    );
    ExperimentMetrics::new(
        "E3",
        &[
            ("delta_snapshots", delta_snapshots as f64),
            ("full_copy_items", full_copy_items as f64),
            ("view_us", view_time.as_secs_f64() * 1e6),
        ],
    )
}

/// E4 — pattern update propagation cost vs. number of inheritors.
pub fn e4_pattern_propagation(inheritors: usize) -> ExperimentMetrics {
    let (mut db, pattern, members) = scenarios::pattern_with_inheritors(inheritors);
    let (update_time, _) = time(|| {
        db.mark_pattern(pattern).unwrap(); // no-op update touching the pattern
    });
    let (read_time, total) = time(|| {
        let mut total = 0usize;
        for m in &members {
            total += db.relationships(*m).len();
        }
        total
    });
    row(
        "E4",
        &format!("pattern update + materialized read across {inheritors} inheritors"),
        format!(
            "update {update_time:.2?}; read {read_time:.2?} ({total} inherited relationships seen)"
        ),
    );
    ExperimentMetrics::new(
        "E4",
        &[
            ("update_us", update_time.as_secs_f64() * 1e6),
            ("read_us", read_time.as_secs_f64() * 1e6),
            ("inherited_seen", total as f64),
        ],
    )
}

/// E5 — re-classification latency (the vague-to-precise step).
pub fn e5_reclassification(n: usize) -> ExperimentMetrics {
    let (mut db, objects, rels) = scenarios::vague_database(n);
    let (object_time, _) = time(|| {
        for id in &objects {
            db.reclassify_object(*id, "OutputData").unwrap();
        }
    });
    let (rel_time, _) = time(|| {
        for id in &rels {
            db.reclassify_relationship(*id, "Write").unwrap();
        }
    });
    row(
        "E5",
        &format!("re-classification of {n} objects and {n} relationships"),
        format!(
            "objects {:.2?} ({:.1} µs each); relationships {:.2?} ({:.1} µs each)",
            object_time,
            object_time.as_micros() as f64 / n as f64,
            rel_time,
            rel_time.as_micros() as f64 / n as f64
        ),
    );
    ExperimentMetrics::new(
        "E5",
        &[
            ("object_each_us", object_time.as_micros() as f64 / n as f64),
            ("relationship_each_us", rel_time.as_micros() as f64 / n as f64),
        ],
    )
}

/// E6 — retrieval by name vs. database size.
pub fn e6_retrieval(n: usize) -> ExperimentMetrics {
    let db = scenarios::populated_database(n);
    let lookups = 10_000usize;
    let (by_name, _) = time(|| {
        for i in 0..lookups {
            let name = format!("Data{:05}", i % n);
            db.object_by_name(&name).unwrap();
        }
    });
    let (by_prefix, hits) = time(|| db.objects_with_name_prefix("Data0").len());
    row(
        "E6",
        &format!("retrieval by name in a database of {n} data objects"),
        format!(
            "{lookups} lookups in {by_name:.2?} ({:.1} µs each); prefix scan {by_prefix:.2?} ({hits} hits)",
            by_name.as_micros() as f64 / lookups as f64
        ),
    );
    ExperimentMetrics::new(
        "E6",
        &[
            ("lookup_each_us", by_name.as_micros() as f64 / lookups as f64),
            ("prefix_scan_us", by_prefix.as_secs_f64() * 1e6),
            ("prefix_hits", hits as f64),
        ],
    )
}

/// E7 — storage engine micro-benchmarks.
pub fn e7_storage_engine(n: usize) -> ExperimentMetrics {
    let engine = StorageEngine::in_memory().unwrap();
    let value = vec![0xA5u8; 256];
    let key = |i: usize| format!("obj/{i:06}");
    let (write_time, _) = time(|| {
        for i in 0..n {
            engine.commit(vec![(key(i).into_bytes(), Some(value.clone()))]).unwrap();
        }
    });
    let dir = scratch_dir("e7");
    let (durable, _) = StorageEngine::open(&dir).unwrap();
    let (durable_write, _) = time(|| {
        durable
            .commit((0..n).map(|i| (key(i).into_bytes(), Some(value.clone()))).collect())
            .unwrap();
        let mut image = ImageWriter::new(durable.durable_lsn());
        for i in 0..n {
            image.put(key(i).as_bytes(), &value);
        }
        durable.checkpoint(&image.finish()).unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
    row(
        "E7",
        &format!("storage engine, {n} x 256-byte records"),
        format!("memory put {write_time:.2?}; durable txn+checkpoint {durable_write:.2?}"),
    );
    ExperimentMetrics::new(
        "E7",
        &[
            ("mem_put_us", write_time.as_secs_f64() * 1e6),
            ("durable_txn_checkpoint_us", durable_write.as_secs_f64() * 1e6),
        ],
    )
}

/// E8 — multi-user check-out / check-in throughput.
pub fn e8_multiuser(clients: usize, rounds: usize) -> ExperimentMetrics {
    let mut db = Database::new(figure3_schema());
    for i in 0..clients {
        db.create_object("Data", &format!("Shared{i:03}")).unwrap();
    }
    let server = SeedServer::new(db);
    let (elapsed, conflicts) = time(|| {
        let mut conflicts = 0usize;
        for round in 0..rounds {
            for c in 0..clients {
                let client = (c + 1) as u64;
                let target = format!("Shared{:03}", (c + round) % clients);
                match server.checkout(client, &[&target]) {
                    Ok(_) => {
                        server
                            .checkin(
                                client,
                                &[Update::SetValue {
                                    object: target.to_string(),
                                    value: Value::Undefined,
                                }],
                            )
                            .ok();
                    }
                    Err(_) => conflicts += 1,
                }
            }
        }
        conflicts
    });
    let total = clients * rounds;
    row(
        "E8",
        &format!("multi-user: {clients} clients x {rounds} check-out/check-in rounds"),
        format!(
            "{total} cycles in {elapsed:.2?} ({:.1} µs each), {conflicts} lock conflicts",
            elapsed.as_micros() as f64 / total as f64
        ),
    );
    ExperimentMetrics::new(
        "E8",
        &[
            ("cycles", total as f64),
            ("cycle_each_us", elapsed.as_micros() as f64 / total as f64),
            ("conflicts", conflicts as f64),
        ],
    )
}

/// E9 — the planner's indexed access paths vs. the full-scan fallback, swept over size.
pub fn e9_indexed_retrieval(sizes: &[usize]) -> ExperimentMetrics {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for &n in sizes {
        let db = scenarios::valued_database(n);
        let point = seed_query::parse(&format!("count Item where value = \"{}\"", n / 2)).unwrap();
        let reps = 200usize;
        let (indexed, hits) = time(|| {
            let mut hits = 0usize;
            for _ in 0..reps {
                hits = seed_query::execute(&db, &point).unwrap().count();
            }
            hits
        });
        let (scanned, _) = time(|| {
            for _ in 0..reps {
                seed_query::execute_scan(&db, &point).unwrap().count();
            }
        });
        let speedup = scanned.as_secs_f64() / indexed.as_secs_f64().max(f64::EPSILON);
        row(
            "E9",
            &format!("indexed point query vs full scan, {n} objects ({hits} hit)"),
            format!(
                "indexed {:.2} µs  scan {:.2} µs  speedup {speedup:.0}x",
                indexed.as_micros() as f64 / reps as f64,
                scanned.as_micros() as f64 / reps as f64
            ),
        );
        // Keys carry the swept size so any number of slots stays collision-free in BENCH.json.
        metrics.push((format!("indexed_us_{n}"), indexed.as_micros() as f64 / reps as f64));
        metrics.push((format!("scan_us_{n}"), scanned.as_micros() as f64 / reps as f64));
        metrics.push((format!("speedup_x_{n}"), speedup));
    }
    ExperimentMetrics { id: "E9", metrics, obs: Vec::new() }
}

/// E10 — incremental durability: per-item write-through commits vs whole-database checkpoints,
/// and recovery time vs WAL length.
///
/// The acceptance bar of the durability refactor: at `objects` database size, the durable cost
/// of committing **one** object mutation must be O(delta) — at least 50× cheaper than a
/// [`Database::checkpoint`], which writes the whole key space as one snapshot image.  Each
/// commit and each of three checkpoints is timed on its own, and `speedup_x` compares their
/// medians, so one slow fsync cannot move the bar; `speedup_mean_x` is the ratio of the means.
pub fn e10_durable_throughput(objects: usize, probe_commits: usize) -> ExperimentMetrics {
    const CHECKPOINTS: usize = 3;
    let mean_us = |samples: &[Duration]| {
        samples.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e6 / samples.len() as f64
    };
    let base = scratch_dir("e10");
    let durable_dir = base.join("durable");

    let mut db = Database::create_durable(&durable_dir, figure3_schema()).unwrap();
    // Bulk-load the fixture inside one transaction: one group commit, one WAL sync.
    db.begin_transaction().unwrap();
    let mut ids = Vec::with_capacity(objects);
    for i in 0..objects {
        ids.push(db.create_object("Data", &format!("Data{i:06}")).unwrap());
    }
    db.commit_transaction().unwrap();
    db.checkpoint().unwrap();

    // Write-through: auto-committed single-object mutations (each is its own storage
    // transaction with one batched WAL write + sync), timed one by one, in rounds.  Each round
    // ends with the whole-image baseline: a checkpoint of the same database (snapshot write +
    // prune of the round's WAL), so every timed checkpoint does the same work.
    let mut commits = Vec::with_capacity(probe_commits);
    let mut checkpoints = Vec::with_capacity(CHECKPOINTS);
    for round in 0..CHECKPOINTS {
        for k in round * probe_commits / CHECKPOINTS..(round + 1) * probe_commits / CHECKPOINTS {
            commits.push(time(|| db.set_value(ids[k % ids.len()], Value::Undefined).unwrap()).0);
        }
        checkpoints.push(time(|| db.checkpoint().unwrap()).0);
    }
    let write_through_us = mean_us(&commits);
    let commit_p50_us = percentile(&mut commits, 0.50);
    let checkpoint_us = mean_us(&checkpoints);
    let checkpoint_p50_us = percentile(&mut checkpoints, 0.50);
    let speedup = checkpoint_p50_us / commit_p50_us.max(f64::EPSILON);
    let speedup_mean = checkpoint_us / write_through_us.max(f64::EPSILON);

    // Recovery time vs WAL length: reopen right after a checkpoint (short WAL), then again
    // with `probe_commits` commits in the WAL.
    drop(db);
    let (recovery_short, db) = time(|| Database::open_durable(&durable_dir).unwrap());
    let mut db = db;
    for k in 0..probe_commits {
        db.set_value(ids[k % ids.len()], Value::Undefined).unwrap();
    }
    let wal_bytes = db.durability_status().unwrap().wal_bytes;
    drop(db);
    let (recovery_long, _db) = time(|| Database::open_durable(&durable_dir).unwrap());

    row(
        "E10",
        &format!("durable write-through vs checkpoint, {objects} objects"),
        format!(
            "commit p50 {commit_p50_us:.1} µs vs checkpoint p50 {:.1} ms ({speedup:.0}x, means {speedup_mean:.0}x); recovery {:.1} ms, +{probe_commits} WAL commits ({wal_bytes} B): {:.1} ms",
            checkpoint_p50_us / 1e3,
            recovery_short.as_secs_f64() * 1e3,
            recovery_long.as_secs_f64() * 1e3
        ),
    );
    let _ = std::fs::remove_dir_all(&base);
    ExperimentMetrics::new(
        "E10",
        &[
            ("objects", objects as f64),
            ("write_through_commit_us", write_through_us),
            ("checkpoint_us", checkpoint_us),
            ("commit_p50_us", commit_p50_us),
            ("checkpoint_p50_us", checkpoint_p50_us),
            ("speedup_x", speedup),
            ("speedup_mean_x", speedup_mean),
            ("recovery_after_checkpoint_us", recovery_short.as_secs_f64() * 1e6),
            ("recovery_with_wal_us", recovery_long.as_secs_f64() * 1e6),
            ("wal_bytes_at_reopen", wal_bytes as f64),
        ],
    )
}

/// E11 — the network frontend: aggregate read throughput and tail latency with N concurrent
/// TCP clients vs. a single client, over loopback.
///
/// The acceptance bar of the `seed-net` subsystem: with ≥ 4 concurrent clients, aggregate read
/// throughput must rise **above** the single-client baseline — i.e. the read–write refactor of
/// the central server really lets sessions proceed in parallel instead of serializing on one
/// database mutex (a single blocking client is latency-bound; extra connections must add
/// throughput until the server is CPU-bound).
pub fn e11_net_throughput(
    objects: usize,
    clients: usize,
    ops_per_client: usize,
) -> ExperimentMetrics {
    use seed_net::{RemoteClient, SeedNetServer};

    fn run_clients(
        addr: std::net::SocketAddr,
        clients: usize,
        ops_per_client: usize,
        objects: usize,
    ) -> (f64, Vec<Duration>) {
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients + 1));
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let mut client = RemoteClient::connect(addr).expect("connect");
                    let mut latencies = Vec::with_capacity(ops_per_client);
                    barrier.wait();
                    for i in 0..ops_per_client {
                        let name = format!("Data{:05}", (c * 7919 + i) % objects);
                        let start = Instant::now();
                        client.retrieve(&name).expect("retrieve");
                        latencies.push(start.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        // Start the clock before releasing the clients (as E14 does): a main thread that is
        // rescheduled late would otherwise undercount the span and inflate the rate.
        let start = Instant::now();
        barrier.wait();
        let mut latencies = Vec::with_capacity(clients * ops_per_client);
        for worker in workers {
            latencies.extend(worker.join().expect("client thread"));
        }
        let wall = start.elapsed();
        let ops_per_s = (clients * ops_per_client) as f64 / wall.as_secs_f64().max(f64::EPSILON);
        (ops_per_s, latencies)
    }

    let db = scenarios::populated_database(objects);
    let net = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind loopback");
    let addr = net.local_addr();

    let (single_ops_per_s, mut single_lat) = run_clients(addr, 1, ops_per_client, objects);
    let (aggregate_ops_per_s, mut multi_lat) = run_clients(addr, clients, ops_per_client, objects);
    net.shutdown();

    let scaling = aggregate_ops_per_s / single_ops_per_s.max(f64::EPSILON);
    let single_p50 = percentile(&mut single_lat, 0.50);
    let p50 = percentile(&mut multi_lat, 0.50);
    let p99 = percentile(&mut multi_lat, 0.99);
    let cores = host_cores();
    row(
        "E11",
        &format!("net: {clients} TCP clients x {ops_per_client} reads vs 1 client, {objects} objects"),
        format!(
            "1 client {single_ops_per_s:.0} op/s; {clients} clients {aggregate_ops_per_s:.0} op/s ({scaling:.1}x on {cores} cores); p50 {p50:.0} µs, p99 {p99:.0} µs"
        ),
    );
    ExperimentMetrics::new(
        "E11",
        &[
            ("clients", clients as f64),
            ("ops_per_client", ops_per_client as f64),
            ("cores", cores as f64),
            // One request in flight per connection (the blocking client); the event-loop
            // server still shards across workers.  E15 varies the depth.
            ("pipeline_depth", 1.0),
            ("worker_shards", seed_net::NetServerConfig::default().worker_shards as f64),
            ("single_ops_per_s", single_ops_per_s),
            ("aggregate_ops_per_s", aggregate_ops_per_s),
            ("scaling_x", scaling),
            ("single_p50_us", single_p50),
            ("p50_us", p50),
            ("p99_us", p99),
        ],
    )
}

/// E12 — WAL-shipping replication: aggregate read throughput of 1 primary + N read replicas
/// vs. the primary alone, plus replication lag, over loopback.
///
/// The acceptance bar of the replication subsystem: with 2 replicas on a multi-core host,
/// aggregate read ops/s through the read-preferred client (reads fanned across the replicas)
/// must rise **above** the same clients hammering the primary alone — each replica serves reads
/// from its own database behind its own read–write lock, so the topology adds capacity instead
/// of queueing on one node.  Replication lag is measured per check-in: the time from a
/// committed write on the primary until **every** replica has durably applied it.
pub fn e12_replicated_read_throughput(
    objects: usize,
    clients: usize,
    ops_per_client: usize,
    burst: usize,
) -> ExperimentMetrics {
    use seed_net::{RemoteClient, ReplicaNode, SeedNetServer};

    const REPLICAS: usize = 2;

    /// `clients` threads, each doing `ops` name retrievals; `replicas` empty = primary only.
    fn run_read_clients(
        primary: std::net::SocketAddr,
        replicas: &[std::net::SocketAddr],
        clients: usize,
        ops: usize,
        objects: usize,
    ) -> f64 {
        let replicas = replicas.to_vec();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients + 1));
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = barrier.clone();
                let replicas = replicas.clone();
                std::thread::spawn(move || {
                    let mut client =
                        RemoteClient::connect_read_preferred(primary, &replicas).expect("connect");
                    barrier.wait();
                    for i in 0..ops {
                        let name = format!("Data{:05}", (c * 7919 + i) % objects);
                        client.retrieve(&name).expect("retrieve");
                    }
                })
            })
            .collect();
        // The clock starts before the release, as in E11 and E14.
        let start = Instant::now();
        barrier.wait();
        for worker in workers {
            worker.join().expect("client thread");
        }
        (clients * ops) as f64 / start.elapsed().as_secs_f64().max(f64::EPSILON)
    }

    let base = scratch_dir("e12");

    // A durable primary (replication ships its WAL), populated in one bulk transaction.
    let mut db = Database::create_durable(base.join("primary"), figure3_schema()).unwrap();
    db.begin_transaction().unwrap();
    let mut actions = Vec::new();
    for i in 0..(objects / 2).max(1) {
        actions.push(db.create_object("Action", &format!("Action{i:05}")).unwrap());
    }
    for i in 0..objects {
        let data = db.create_object("Data", &format!("Data{i:05}")).unwrap();
        db.create_relationship("Access", &[("from", data), ("by", actions[i % actions.len()])])
            .unwrap();
    }
    db.commit_transaction().unwrap();
    let net = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind primary");
    let addr = net.local_addr();
    let core = net.core();
    let primary_lsn = || core.with_database(|db| db.durable_lsn().unwrap_or(0));

    let replicas: Vec<ReplicaNode> = (0..REPLICAS)
        .map(|i| {
            ReplicaNode::start(base.join(format!("replica{i}")), addr, "127.0.0.1:0")
                .expect("start replica")
        })
        .collect();
    let target = primary_lsn();
    for replica in &replicas {
        assert!(replica.wait_for_lsn(target, Duration::from_secs(60)), "initial sync timed out");
    }
    let replica_addrs: Vec<_> = replicas.iter().map(|r| r.local_addr()).collect();

    // Read throughput: the same client fleet against the primary alone, then fanned out.
    let primary_ops_per_s = run_read_clients(addr, &[], clients, ops_per_client, objects);
    let replicated_ops_per_s =
        run_read_clients(addr, &replica_addrs, clients, ops_per_client, objects);
    let scaling = replicated_ops_per_s / primary_ops_per_s.max(f64::EPSILON);

    // Replication lag: commit on the primary, stopwatch until every replica applied it.
    let mut writer = RemoteClient::connect(addr).expect("writer");
    let mut lags = Vec::with_capacity(burst);
    for k in 0..burst {
        writer
            .checkin(vec![Update::CreateObject {
                class: "Data".into(),
                name: format!("LagProbe{k:04}"),
            }])
            .expect("checkin");
        let target = primary_lsn();
        let start = Instant::now();
        for replica in &replicas {
            assert!(replica.wait_for_lsn(target, Duration::from_secs(60)), "lag probe timed out");
        }
        lags.push(start.elapsed());
    }
    let lag_p50 = percentile(&mut lags, 0.50);
    let lag_p99 = percentile(&mut lags, 0.99);

    for replica in replicas {
        replica.shutdown();
    }
    net.shutdown();
    let _ = std::fs::remove_dir_all(&base);

    let cores = host_cores();
    row(
        "E12",
        &format!(
            "replication: {clients} clients x {ops_per_client} reads, 1 primary + {REPLICAS} replicas, {objects} objects"
        ),
        format!(
            "primary alone {primary_ops_per_s:.0} op/s; + replicas {replicated_ops_per_s:.0} op/s ({scaling:.1}x on {cores} cores); lag p50 {:.1} ms, p99 {:.1} ms over {burst} check-ins",
            lag_p50 / 1e3,
            lag_p99 / 1e3
        ),
    );
    ExperimentMetrics::new(
        "E12",
        &[
            ("replicas", REPLICAS as f64),
            ("clients", clients as f64),
            ("ops_per_client", ops_per_client as f64),
            ("cores", cores as f64),
            ("pipeline_depth", 1.0),
            ("worker_shards", seed_net::NetServerConfig::default().worker_shards as f64),
            ("primary_ops_per_s", primary_ops_per_s),
            ("replicated_ops_per_s", replicated_ops_per_s),
            ("scaling_x", scaling),
            ("lag_p50_us", lag_p50),
            ("lag_p99_us", lag_p99),
        ],
    )
}

/// E13 — segmented WAL recovery: one reopen of a long, many-segment log.
///
/// The log's open walk is the recovery read: it reads each segment once, checks and decodes its
/// frames — one per commit — and hands the commits over; the row times that open plus the
/// concatenation of their effects (what [`seed_storage::StorageEngine`] does on open) and
/// asserts that every commit replays.
pub fn e13_segmented_recovery(commits: usize, segment_max_bytes: u64) -> ExperimentMetrics {
    use seed_storage::{Commit, KeyEffect, WalConfig, WriteAheadLog};

    let dir = scratch_dir("e13");
    let config = WalConfig { segment_max_bytes, ..WalConfig::default() };

    // Build a committed history long enough to span many sealed segments.
    let (wal, _) = WriteAheadLog::open_dir(&dir, config.clone()).unwrap();
    for n in 0..commits {
        let key = format!("bench/{n:08}").into_bytes();
        wal.append(&[Commit { effects: vec![(key, Some(vec![0xA5; 96]))] }]).unwrap();
    }
    let segments = wal.segment_count();
    let wal_bytes = wal.size_bytes().unwrap();
    drop(wal);

    // Reopen over the same on-disk segments: the walk plus the replay.
    let (recovery, (records, effects)) = time(|| {
        let (_, records) = WriteAheadLog::open_dir(&dir, config).unwrap();
        let n = records.len();
        let effects: Vec<KeyEffect> = records.into_iter().flat_map(|(_, c)| c.effects).collect();
        (n, effects.len())
    });
    assert_eq!(records, commits, "open must hand over one record per commit");
    assert_eq!(effects, commits, "every commit must replay");
    let recovery_us = recovery.as_secs_f64() * 1e6;

    row(
        "E13",
        &format!("segmented recovery, {commits} commits over {segments} segments"),
        format!(
            "reopen + replay {:.2} ms across {} KiB of log",
            recovery_us / 1e3,
            wal_bytes / 1024
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
    ExperimentMetrics::new(
        "E13",
        &[
            ("commits", commits as f64),
            ("segments", segments as f64),
            ("wal_frame_bytes", wal_bytes as f64),
            ("recovery_us", recovery_us),
        ],
    )
}

/// E14 — MVCC snapshot reads: reader throughput while check-ins commit concurrently, and
/// replica lag with incremental O(delta) apply.
///
/// The acceptance bar of the snapshot-reads tentpole, both halves:
/// * **Read retention** — the same reader fleet is timed against a quiescent server and again
///   while a writer thread commits check-ins continuously.  Reads run against the published
///   immutable snapshot (no database write lock), so throughput must not collapse under the
///   write stream; `retention_x` is contended / quiescent.
/// * **Replica lag** — a durable primary ships small commits to a replica that patches its
///   serving snapshot in place instead of rebuilding the database; `items_per_commit` counts
///   the items the replica actually touched per shipped commit (the structural O(delta)
///   evidence behind the lag percentiles).
pub fn e14_mvcc_snapshot_reads(
    objects: usize,
    readers: usize,
    ops_per_reader: usize,
    lag_burst: usize,
) -> ExperimentMetrics {
    use seed_net::{RemoteClient, ReplicaNode, SeedNetServer};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    /// `readers` threads, each doing `ops` snapshot retrievals; returns (ops/s, p99 µs).
    fn run_readers(
        server: &Arc<SeedServer>,
        readers: usize,
        ops: usize,
        objects: usize,
    ) -> (f64, f64) {
        let barrier = Arc::new(Barrier::new(readers + 1));
        let workers: Vec<_> = (0..readers)
            .map(|r| {
                let server = Arc::clone(server);
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut latencies = Vec::with_capacity(ops);
                    for i in 0..ops {
                        let name = format!("Data{:05}", (r * 7919 + i) % objects);
                        let start = Instant::now();
                        server.retrieve(&name).expect("retrieve");
                        latencies.push(start.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        // Start the clock before releasing the fleet: on a loaded single-core host the main
        // thread may not be rescheduled until workers already finished, which would undercount
        // the elapsed span and inflate the rate.
        let start = Instant::now();
        barrier.wait();
        let mut latencies = Vec::new();
        for worker in workers {
            latencies.extend(worker.join().expect("reader thread"));
        }
        let ops_per_s = (readers * ops) as f64 / start.elapsed().as_secs_f64().max(f64::EPSILON);
        let p99 = percentile(&mut latencies, 0.99);
        (ops_per_s, p99)
    }

    // Half 1: read retention under a concurrent write stream (in-process, in-memory).
    let mut db = Database::new(figure3_schema());
    db.begin_transaction().unwrap();
    for i in 0..objects {
        db.create_object("Data", &format!("Data{i:05}")).unwrap();
    }
    db.commit_transaction().unwrap();
    let server = Arc::new(SeedServer::new(db));

    let (quiescent_ops_per_s, quiescent_p99) =
        run_readers(&server, readers, ops_per_reader, objects);

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = server.connect();
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                server
                    .checkin(
                        client,
                        &[Update::CreateObject {
                            class: "Data".into(),
                            name: format!("Churn{commits:06}"),
                        }],
                    )
                    .expect("checkin");
                commits += 1;
            }
            commits
        })
    };
    let (contended_ops_per_s, contended_p99) =
        run_readers(&server, readers, ops_per_reader, objects);
    stop.store(true, Ordering::Relaxed);
    let commits = writer.join().expect("writer thread");
    let retention = contended_ops_per_s / quiescent_ops_per_s.max(f64::EPSILON);

    // Half 2: replica lag with incremental apply (durable primary over loopback).
    let base = scratch_dir("e14");
    let mut db = Database::create_durable(base.join("primary"), figure3_schema()).unwrap();
    db.begin_transaction().unwrap();
    for i in 0..objects {
        db.create_object("Data", &format!("Data{i:05}")).unwrap();
    }
    db.commit_transaction().unwrap();
    let net = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind primary");
    let addr = net.local_addr();
    let core = net.core();
    let primary_lsn = || core.with_database(|db| db.durable_lsn().unwrap_or(0));
    let replica = ReplicaNode::start(base.join("replica"), addr, "127.0.0.1:0").expect("replica");
    assert!(replica.wait_for_lsn(primary_lsn(), Duration::from_secs(60)), "initial sync");
    let items_before = replica.items_applied();

    let mut writer = RemoteClient::connect(addr).expect("writer");
    let mut lags = Vec::with_capacity(lag_burst);
    for k in 0..lag_burst {
        writer
            .checkin(vec![Update::CreateObject {
                class: "Data".into(),
                name: format!("LagProbe{k:04}"),
            }])
            .expect("checkin");
        let target = primary_lsn();
        let start = Instant::now();
        assert!(replica.wait_for_lsn(target, Duration::from_secs(60)), "lag probe timed out");
        lags.push(start.elapsed());
    }
    let lag_p50 = percentile(&mut lags, 0.50);
    let lag_p99 = percentile(&mut lags, 0.99);
    let items_per_commit =
        (replica.items_applied() - items_before) as f64 / (lag_burst as f64).max(1.0);
    let resets = replica.resets_applied() as f64;

    replica.shutdown();
    net.shutdown();
    let _ = std::fs::remove_dir_all(&base);

    let cores = host_cores();
    row(
        "E14",
        &format!(
            "mvcc: {readers} readers x {ops_per_reader} reads vs {commits} concurrent check-ins, {objects} objects"
        ),
        format!(
            "quiescent {quiescent_ops_per_s:.0} op/s; contended {contended_ops_per_s:.0} op/s ({retention:.2}x retained on {cores} cores); p99 {quiescent_p99:.0}/{contended_p99:.0} µs; replica lag p50 {:.1} ms, p99 {:.1} ms at {items_per_commit:.1} items/commit",
            lag_p50 / 1e3,
            lag_p99 / 1e3
        ),
    );
    ExperimentMetrics::new(
        "E14",
        &[
            ("readers", readers as f64),
            ("ops_per_reader", ops_per_reader as f64),
            ("cores", cores as f64),
            ("writer_commits", commits as f64),
            ("quiescent_ops_per_s", quiescent_ops_per_s),
            ("contended_ops_per_s", contended_ops_per_s),
            ("retention_x", retention),
            ("quiescent_p99_us", quiescent_p99),
            ("contended_p99_us", contended_p99),
            ("lag_p50_us", lag_p50),
            ("lag_p99_us", lag_p99),
            ("items_per_commit", items_per_commit),
            ("replica_resets", resets),
        ],
    )
}

/// E15 — pipelined request throughput over **one** connection: the same read workload issued
/// synchronously (depth 1, one round trip per request) and as batches of 8 and 64 requests
/// ([`seed_net::Client::exchange`]), against the event-loop server.
///
/// The acceptance bar of the pipelining tentpole: at depth 64 a single connection must push at
/// least **3×** the synchronous ops/s — the connection's shard decodes and answers many frames
/// per wakeup, their responses coalesce into one write, and the round-trip latency is paid once
/// per batch instead of once per request.  E11 stays the depth-1 oracle across connection
/// counts.
pub fn e15_pipelined_throughput(objects: usize, total_ops: usize) -> ExperimentMetrics {
    use seed_net::{NetServerConfig, RemoteClient, SeedNetServer};
    use seed_server::Request;

    /// Runs `total_ops` retrieves at the given pipeline depth on one connection; returns
    /// (ops/s, batch round-trip p50 µs, p99 µs).  Depth 1 is the plain blocking call — the
    /// synchronous baseline, where a batch IS one request.
    fn run_depth(
        addr: std::net::SocketAddr,
        depth: usize,
        total_ops: usize,
        objects: usize,
    ) -> (f64, f64, f64) {
        let mut client = RemoteClient::connect(addr).expect("connect");
        let mut batch_latencies = Vec::with_capacity(total_ops / depth + 1);
        let start = Instant::now();
        let mut sent = 0usize;
        while sent < total_ops {
            let batch = depth.min(total_ops - sent);
            let begin = Instant::now();
            if batch == 1 {
                let name = format!("Data{:05}", sent % objects);
                client.retrieve(&name).expect("retrieve");
            } else {
                let requests = (0..batch)
                    .map(|i| Request::Retrieve { name: format!("Data{:05}", (sent + i) % objects) })
                    .collect();
                let results = client.exchange(requests).expect("exchange");
                assert_eq!(results.len(), batch, "every submission gets an answer");
            }
            batch_latencies.push(begin.elapsed());
            sent += batch;
        }
        let wall = start.elapsed();
        let ops_per_s = total_ops as f64 / wall.as_secs_f64().max(f64::EPSILON);
        let p50 = percentile(&mut batch_latencies, 0.50);
        let p99 = percentile(&mut batch_latencies, 0.99);
        (ops_per_s, p50, p99)
    }

    let config = NetServerConfig::default();
    let worker_shards = config.worker_shards;
    let db = scenarios::populated_database(objects);
    let net = SeedNetServer::with_config(SeedServer::new(db), "127.0.0.1:0", config)
        .expect("bind loopback");
    let addr = net.local_addr();

    let (sync_ops_per_s, sync_p50, sync_p99) = run_depth(addr, 1, total_ops, objects);
    let (d8_ops_per_s, d8_p50, d8_p99) = run_depth(addr, 8, total_ops, objects);
    let (d64_ops_per_s, d64_p50, d64_p99) = run_depth(addr, 64, total_ops, objects);
    net.shutdown();

    let speedup_8 = d8_ops_per_s / sync_ops_per_s.max(f64::EPSILON);
    let speedup_64 = d64_ops_per_s / sync_ops_per_s.max(f64::EPSILON);
    let cores = host_cores();
    row(
        "E15",
        &format!(
            "pipelining: 1 connection x {total_ops} reads at depth 1/8/64, {objects} objects"
        ),
        format!(
            "depth 1 {sync_ops_per_s:.0} op/s; depth 8 {d8_ops_per_s:.0} ({speedup_8:.1}x); depth 64 {d64_ops_per_s:.0} ({speedup_64:.1}x, {worker_shards} shards on {cores} cores); batch p99 {sync_p99:.0}/{d8_p99:.0}/{d64_p99:.0} µs"
        ),
    );
    ExperimentMetrics::new(
        "E15",
        &[
            ("total_ops", total_ops as f64),
            ("cores", cores as f64),
            ("pipeline_depth", 64.0),
            ("worker_shards", worker_shards as f64),
            ("sync_ops_per_s", sync_ops_per_s),
            ("depth8_ops_per_s", d8_ops_per_s),
            ("depth64_ops_per_s", d64_ops_per_s),
            ("speedup_x_8", speedup_8),
            ("speedup_x_64", speedup_64),
            ("sync_p50_us", sync_p50),
            ("sync_p99_us", sync_p99),
            ("depth8_batch_p50_us", d8_p50),
            ("depth8_batch_p99_us", d8_p99),
            ("depth64_batch_p50_us", d64_p50),
            ("depth64_batch_p99_us", d64_p99),
        ],
    )
}

/// Process CPU time — user plus system, every thread of the process, ended ones included — in
/// microseconds, read from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` (Linux).  The client and
/// the server of a loopback row share the process, so this is the CPU the whole exchange cost,
/// whatever the scheduler did with the wall clock meanwhile.
fn cpu_time_us() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields on 64-bit
    // Linux); the call writes only into it.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// The median of a sample (sorts in place; 0 when empty).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Windows per mode in [`e16_metrics_overhead`]: each mode's figure is the median of these.
const E16_WINDOWS: usize = 15;

/// E16 — observability overhead: the same pipelined read workload over loopback with the
/// metrics registry recording vs runtime-disabled ([`seed_obs::Registry::set_enabled`]).
///
/// The acceptance bar of the observability tentpole: instrumentation must cost **≤ 5%** on the
/// hottest wire path (per-request latency histogram, byte counters, in-flight gauge, WAL timers
/// all firing per request).  The modes alternate over 15 windows each of `window_ops` depth-64
/// retrieves on one connection.  `cpu_overhead_x` is the median process CPU per op with
/// recording on over the median with it off (1.0 = free, above 1.05 = bar failed): CPU time
/// does not count the time a thread waits for a core, so the ratio asks what the recording
/// costs, not what the scheduler did.  `overhead_x`, the same ratio of median wall
/// time per op, is reported beside it.  CI additionally builds and tests with
/// `--features seed-obs/off` to prove the *compile-out* path, where the same handles fold to
/// no-ops at compile time.
pub fn e16_metrics_overhead(objects: usize, window_ops: usize) -> ExperimentMetrics {
    use seed_net::{RemoteClient, SeedNetServer};
    use seed_server::Request;

    /// Depth-64 pipelined retrieves on `client`; returns (wall µs, process CPU µs) per op.
    fn window(client: &mut RemoteClient, ops: usize, objects: usize) -> (f64, f64) {
        const DEPTH: usize = 64;
        let (start, cpu_start) = (Instant::now(), cpu_time_us());
        let mut sent = 0usize;
        while sent < ops {
            let batch = DEPTH.min(ops - sent);
            let requests = (0..batch)
                .map(|i| Request::Retrieve { name: format!("Data{:05}", (sent + i) % objects) })
                .collect();
            let results = client.exchange(requests).expect("exchange");
            assert_eq!(results.len(), batch, "every submission gets an answer");
            sent += batch;
        }
        let ops = ops.max(1) as f64;
        (start.elapsed().as_secs_f64() * 1e6 / ops, (cpu_time_us() - cpu_start) / ops)
    }

    let registry = seed_obs::global();
    let db = scenarios::populated_database(objects);
    let net = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind loopback");
    let mut client = RemoteClient::connect(net.local_addr()).expect("connect");

    // Warm up caches and the connection path, then alternate the modes window by window, so a
    // slow phase of the host lands on both sides.
    window(&mut client, window_ops / 10 + 1, objects);
    let (mut on_wall, mut on_cpu, mut off_wall, mut off_cpu) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..E16_WINDOWS {
        registry.set_enabled(true);
        let (wall, cpu) = window(&mut client, window_ops, objects);
        on_wall.push(wall);
        on_cpu.push(cpu);
        registry.set_enabled(false);
        let (wall, cpu) = window(&mut client, window_ops, objects);
        off_wall.push(wall);
        off_cpu.push(cpu);
    }
    registry.set_enabled(true);
    client.close().expect("close");
    net.shutdown();

    let (on_wall, off_wall) = (median(&mut on_wall), median(&mut off_wall));
    let (on_cpu, off_cpu) = (median(&mut on_cpu), median(&mut off_cpu));
    let overhead = on_wall / off_wall.max(f64::EPSILON);
    let cpu_overhead = on_cpu / off_cpu.max(f64::EPSILON);
    row(
        "E16",
        &format!(
            "observability: {E16_WINDOWS}x2 windows of {window_ops} pipelined reads, on vs off"
        ),
        format!(
            "cpu/op on {on_cpu:.2} µs  off {off_cpu:.2} µs  cpu overhead {cpu_overhead:.3}x; wall overhead {overhead:.3}x (compiled in: {})",
            seed_obs::recording_compiled_in()
        ),
    );
    ExperimentMetrics::new(
        "E16",
        &[
            ("window_ops", window_ops as f64),
            ("windows", E16_WINDOWS as f64),
            ("enabled_cpu_us_per_op", on_cpu),
            ("disabled_cpu_us_per_op", off_cpu),
            ("cpu_overhead_x", cpu_overhead),
            ("enabled_ops_per_s", 1e6 / on_wall.max(f64::EPSILON)),
            ("disabled_ops_per_s", 1e6 / off_wall.max(f64::EPSILON)),
            ("overhead_x", overhead),
            ("recording_compiled_in", f64::from(u8::from(seed_obs::recording_compiled_in()))),
        ],
    )
}

/// E17 — failover downtime: the write-unavailability window of a controlled promotion
/// (`docs/OPERATIONS.md` §7).  Each round builds a fresh durable primary + caught-up replica
/// pair over loopback, then measures from the moment the `Promote` order is issued (the fence
/// lands inside it) until the promoted node accepts its first write.  The window covers the
/// fence round-trip, the tail drain, the in-place role flip and the first post-flip commit —
/// i.e. everything a client-observed outage is made of in a switchover where nothing crashed.
pub fn e17_failover_downtime(objects: usize, rounds: usize) -> ExperimentMetrics {
    use seed_net::{RemoteClient, ReplicaNode, SeedNetServer};

    let base = scratch_dir("e17");
    let mut windows: Vec<Duration> = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let primary_dir = base.join(format!("primary-{round}"));
        let replica_dir = base.join(format!("replica-{round}"));
        let db = Database::create_durable(&primary_dir, figure3_schema()).expect("create durable");
        let net = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").expect("bind loopback");
        let addr = net.local_addr();
        let mut writer = RemoteClient::connect(addr).expect("connect primary");
        for i in 0..objects {
            writer
                .checkin(vec![Update::CreateObject {
                    class: "Data".into(),
                    name: format!("Data{round:02}x{i:05}"),
                }])
                .expect("checkin");
        }
        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").expect("replica");
        let target = net.core().with_database(|db| db.durable_lsn().expect("durable"));
        assert!(replica.wait_for_lsn(target, Duration::from_secs(30)), "replica lagged out");
        let new_addr = replica.local_addr();

        let start = Instant::now();
        let mut operator = RemoteClient::connect(new_addr).expect("connect replica");
        operator.promote(1, &new_addr.to_string()).expect("promote");
        // `promote` returns after the flip, so the first write normally lands immediately;
        // the retry loop only absorbs transient connection churn.
        let mut accepted = false;
        while !accepted {
            accepted = RemoteClient::connect(new_addr)
                .and_then(|mut c| {
                    c.checkin(vec![Update::CreateObject {
                        class: "Data".into(),
                        name: format!("PostFailover{round}"),
                    }])
                })
                .is_ok();
            assert!(start.elapsed() < Duration::from_secs(30), "new primary never took writes");
        }
        windows.push(start.elapsed());
        replica.shutdown();
        net.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);

    let p50 = percentile(&mut windows, 0.50);
    let p99 = percentile(&mut windows, 0.99);
    row(
        "E17",
        &format!("failover: write-unavailability over {rounds} controlled promotions"),
        format!("downtime p50 {:.0} us  p99 {:.0} us", p50, p99),
    );
    ExperimentMetrics::new(
        "E17",
        &[
            ("rounds", rounds as f64),
            ("objects", objects as f64),
            ("downtime_p50_us", p50),
            ("downtime_p99_us", p99),
        ],
    )
}

/// Renders the collected metrics as a JSON document (`experiment id → {metric: value}`), with
/// the host's core count beside the `smoke` flag.
pub fn render_bench_json(results: &[ExperimentMetrics], smoke: bool) -> String {
    fn number(v: f64) -> String {
        if v.is_finite() {
            // Trim to a sane precision; metric values are timings and counts.
            let s = format!("{v:.3}");
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        } else {
            "null".to_string()
        }
    }
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"seed-bench/1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"cores\": {},\n", host_cores()));
    out.push_str("  \"experiments\": {\n");
    for (i, result) in results.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{", result.id));
        for (j, (name, value)) in result.metrics.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {}", number(*value)));
        }
        // The registry as it stood when this experiment finished: the same counters the
        // `Stats` wire frame exposes, flattened for trend-tracking next to the timings.
        if !result.obs.is_empty() {
            out.push_str(", \"obs\": {");
            for (j, (name, value)) in result.obs.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{name}\": {}", number(*value)));
            }
            out.push('}');
        }
        out.push_str(if i + 1 < results.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Runs every experiment and prints the table.  `smoke` uses small parameters (CI-friendly:
/// seconds, not minutes) — the metrics are still real measurements, just noisier.
/// Next to the table, writes `BENCH.json` into the current directory.
pub fn run_report_mode(smoke: bool) {
    println!("SEED reproduction — evaluation report (plain timers)");
    println!("{}", "-".repeat(110));
    let mut results: Vec<ExperimentMetrics> = Vec::new();
    // Each experiment carries the registry as it stood when that experiment finished, so a
    // regression in BENCH.json timings can be cross-read against the system counters.
    let add = |results: &mut Vec<ExperimentMetrics>, mut m: ExperimentMetrics| {
        m.obs = registry_flat();
        results.push(m);
    };
    if smoke {
        add(&mut results, e1_spades_overhead(20));
        add(&mut results, e2_consistency_overhead(20));
        add(&mut results, e3_version_storage(40, 4, 3));
        add(&mut results, e4_pattern_propagation(50));
        add(&mut results, e5_reclassification(50));
        add(&mut results, e6_retrieval(200));
        add(&mut results, e7_storage_engine(500));
        add(&mut results, e8_multiuser(4, 5));
        add(&mut results, e9_indexed_retrieval(&[200, 1_000]));
        add(&mut results, e10_durable_throughput(1_000, 50));
        add(&mut results, e11_net_throughput(200, 4, 250));
        add(&mut results, e12_replicated_read_throughput(200, 4, 200, 10));
        add(&mut results, e13_segmented_recovery(2_000, 32 * 1024));
        add(&mut results, e14_mvcc_snapshot_reads(200, 4, 200, 10));
        add(&mut results, e15_pipelined_throughput(200, 2_000));
        add(&mut results, e16_metrics_overhead(200, 2_000));
        add(&mut results, e17_failover_downtime(50, 3));
    } else {
        add(&mut results, e1_spades_overhead(120));
        add(&mut results, e2_consistency_overhead(120));
        add(&mut results, e3_version_storage(200, 10, 5));
        add(&mut results, e4_pattern_propagation(500));
        add(&mut results, e5_reclassification(500));
        add(&mut results, e6_retrieval(2000));
        add(&mut results, e7_storage_engine(5000));
        add(&mut results, e8_multiuser(8, 25));
        add(&mut results, e9_indexed_retrieval(&[1_000, 10_000]));
        add(&mut results, e10_durable_throughput(10_000, 100));
        add(&mut results, e11_net_throughput(1_000, 8, 2_000));
        add(&mut results, e12_replicated_read_throughput(1_000, 8, 1_000, 30));
        add(&mut results, e13_segmented_recovery(20_000, 256 * 1024));
        add(&mut results, e14_mvcc_snapshot_reads(1_000, 8, 1_000, 30));
        add(&mut results, e15_pipelined_throughput(1_000, 20_000));
        add(&mut results, e16_metrics_overhead(1_000, 100_000));
        add(&mut results, e17_failover_downtime(200, 8));
    }
    println!("{}", "-".repeat(110));
    let json = render_bench_json(&results, smoke);
    match std::fs::write("BENCH.json", &json) {
        Ok(()) => println!("machine-readable metrics written to BENCH.json"),
        Err(e) => eprintln!("could not write BENCH.json: {e}"),
    }
}

/// Runs every experiment with report-sized parameters and prints the table (plus `BENCH.json`).
pub fn run_report() {
    run_report_mode(false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rows_run_with_small_parameters() {
        // Smoke test: every experiment function runs without panicking on tiny inputs.
        e1_spades_overhead(10);
        e2_consistency_overhead(10);
        e3_version_storage(10, 2, 2);
        e4_pattern_propagation(5);
        e5_reclassification(5);
        e6_retrieval(10);
        e7_storage_engine(50);
        e8_multiuser(2, 2);
        e9_indexed_retrieval(&[20]);
        e10_durable_throughput(50, 5);
        e11_net_throughput(20, 2, 10);
        e12_replicated_read_throughput(20, 2, 10, 2);
        e13_segmented_recovery(100, 2 * 1024);
        e14_mvcc_snapshot_reads(20, 2, 10, 2);
        e15_pipelined_throughput(20, 100);
        e16_metrics_overhead(20, 100);
        e17_failover_downtime(5, 1);
    }

    #[test]
    fn bench_json_is_valid_and_keyed_by_experiment() {
        let mut with_obs = ExperimentMetrics::new("E1", &[("a_us", 1.5), ("b_x", 2.0)]);
        with_obs.obs =
            vec![("wal_append_us_count".into(), 42.0), ("net_bytes_in_total".into(), 9.5)];
        let results = vec![with_obs, ExperimentMetrics::new("E10", &[("speedup_x", 120.25)])];
        let json = render_bench_json(&results, true);
        let value = serde_json::from_str(&json).expect("BENCH.json must parse");
        assert_eq!(value.get("cores").and_then(|v| v.as_f64()), Some(host_cores() as f64));
        let experiments = value.get("experiments").expect("experiments key");
        let e1 = experiments.get("E1").expect("E1 entry");
        assert_eq!(e1.get("a_us").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(
            experiments.get("E10").and_then(|e| e.get("speedup_x")).and_then(|v| v.as_f64()),
            Some(120.25)
        );
        // The registry snapshot rides along as a nested object, keyed by metric name.
        let obs = e1.get("obs").expect("obs object");
        assert_eq!(obs.get("wal_append_us_count").and_then(|v| v.as_f64()), Some(42.0));
        assert_eq!(obs.get("net_bytes_in_total").and_then(|v| v.as_f64()), Some(9.5));
        assert!(experiments.get("E10").unwrap().get("obs").is_none(), "empty obs stays absent");
    }

    /// The acceptance criterion of the network subsystem: with 4 concurrent TCP clients,
    /// aggregate read throughput must exceed the single-client baseline (reads proceed in
    /// parallel on the server's read–write lock; a lone blocking client is latency-bound).
    /// Scheduling-sensitive, so asserted only on the optimized build (CI's bench job runs it
    /// with `--release`); on a single-core host the server is CPU-bound and aggregate scaling
    /// is physically impossible, so the bar is enforced only where parallelism exists.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "scaling bar is only meaningful in release builds")]
    fn e11_concurrent_clients_scale_read_throughput() {
        let cores = host_cores();
        if cores < 2 {
            eprintln!("skipping the scaling bar: only {cores} core(s) available");
            return;
        }
        let result = e11_net_throughput(500, 4, 1_500);
        let scaling = result.get("scaling_x").expect("metric present");
        assert!(
            scaling > 1.0,
            "4 concurrent clients must beat the single-client baseline, got {scaling}x on {cores} cores"
        );
    }

    /// The acceptance criterion of the replication subsystem: with 2 read replicas, the same
    /// client fleet must push more aggregate reads per second through the read-preferred fanout
    /// than against the primary alone (each replica answers from its own database behind its
    /// own lock, so the topology adds serving capacity).  Scheduling-sensitive, so asserted
    /// only on optimized builds and only where parallelism exists (CI's bench job runs it
    /// with `--release`; a 1-core host is CPU-bound across all three processes' threads).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "scaling bar is only meaningful in release builds")]
    fn e12_read_replicas_scale_read_throughput() {
        let cores = host_cores();
        if cores < 2 {
            eprintln!("skipping the replication scaling bar: only {cores} core(s) available");
            return;
        }
        let result = e12_replicated_read_throughput(500, 4, 1_500, 5);
        let scaling = result.get("scaling_x").expect("metric present");
        assert!(
            scaling > 1.0,
            "2 read replicas must beat the primary-alone baseline, got {scaling}x on {cores} cores"
        );
    }

    /// The acceptance bar of the pipelining tentpole: at depth 64 one connection must push at
    /// least 3× the synchronous (depth-1) ops/s — the batch pays one round trip and one
    /// coalesced write where the sync loop pays sixty-four.  Timing-sensitive, so asserted only
    /// on optimized builds (CI's bench job runs it with `--release`) and only where parallelism
    /// exists: on a single-core host the server's shard and the client timeshare one CPU and the
    /// ratio measures the scheduler, not the protocol.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "pipelining bar is only meaningful in release builds")]
    fn e15_deep_pipelines_beat_the_sync_baseline() {
        let cores = host_cores();
        if cores < 2 {
            eprintln!("skipping the pipelining bar: only {cores} core(s) available");
            return;
        }
        let result = e15_pipelined_throughput(500, 20_000);
        let speedup = result.get("speedup_x_64").expect("metric present");
        assert!(
            speedup >= 3.0,
            "depth-64 pipelining must reach 3x the sync baseline, got {speedup:.2}x on {cores} cores"
        );
    }

    /// The segmented-WAL recovery row at its stated scale: a 20k-commit log spanning many
    /// segments reopens and replays every commit (asserted inside the experiment).  It carries
    /// no timing bar: that recovery reads each segment once is a count, pinned by the storage
    /// test `engine_open_reads_each_segment_exactly_once`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "the 20k-commit log is sized for release builds")]
    fn e13_segmented_recovery_replays_every_commit() {
        let result = e13_segmented_recovery(20_000, 64 * 1024);
        assert!(result.get("segments").expect("metric present") >= 8.0, "log must span segments");
    }

    /// The acceptance bars of the MVCC snapshot-reads tentpole.  The structural half —
    /// replicas patch O(delta), never reset — is asserted on every build: it is a counter,
    /// not a timing.  The retention half (reads keep most of their throughput while a writer
    /// commits continuously) is scheduling-sensitive, so that bar only runs on optimized
    /// multi-core builds (CI's bench job runs it with `--release`).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "retention bar is only meaningful in release builds")]
    fn e14_snapshot_reads_survive_concurrent_checkins() {
        let result = e14_mvcc_snapshot_reads(500, 4, 1_500, 10);
        assert_eq!(result.get("replica_resets"), Some(0.0), "stream must apply incrementally");
        let items = result.get("items_per_commit").expect("metric present");
        assert!(items <= 4.0, "replica apply touched {items} items per one-object commit");
        let cores = host_cores();
        if cores < 2 {
            eprintln!("skipping the retention bar: only {cores} core(s) available");
            return;
        }
        let retention = result.get("retention_x").expect("metric present");
        assert!(
            retention > 0.5,
            "snapshot reads must retain most throughput under a write stream, got {retention}x \
             on {cores} cores"
        );
    }

    /// The acceptance bar of the observability tentpole: full instrumentation (per-request
    /// histograms, byte counters, WAL timers) must cost at most 5% of the process CPU per
    /// pipelined read versus the same binary with recording switched off, each side the median
    /// of `E16_WINDOWS` windows of 100k reads.  Only meaningful on optimized builds (CI's
    /// bench job runs it with `--release`).  The wall-clock `overhead_x` is reported, not
    /// asserted: it also counts the time a thread waits for a core.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "overhead bar is only meaningful in release builds")]
    fn e16_instrumentation_overhead_stays_within_five_percent() {
        if !seed_obs::recording_compiled_in() {
            eprintln!("skipping the overhead bar: recording compiled out");
            return;
        }
        let result = e16_metrics_overhead(500, 100_000);
        let cpu_overhead = result.get("cpu_overhead_x").expect("metric present");
        let overhead = result.get("overhead_x").expect("metric present");
        eprintln!("E16 cpu_overhead_x {cpu_overhead:.3} overhead_x {overhead:.3}");
        assert!(
            cpu_overhead <= 1.05,
            "instrumentation must cost at most 5% of CPU per read, got {cpu_overhead:.3}x"
        );
    }

    /// The failover bar: a controlled promotion of a caught-up replica must keep the
    /// client-observed write outage under two seconds — the fence is one round-trip, the drain
    /// is empty when the replica is caught up, and the flip reuses the store in place, so the
    /// window is dominated by a handful of loopback round-trips and one fsync.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing bar is only meaningful in release builds")]
    fn e17_controlled_failover_downtime_stays_under_two_seconds() {
        let result = e17_failover_downtime(100, 3);
        let p99 = result.get("downtime_p99_us").expect("metric present");
        assert!(
            p99 < 2_000_000.0,
            "controlled-promotion write outage must stay under 2 s, got {p99:.0} us"
        );
    }

    /// The acceptance criterion of the durability refactor, at its stated scale: at 10k
    /// objects, the median commit of one object mutation must be at least 50× cheaper than the
    /// median of three full snapshot saves (write-through is sync-bound and flat; the snapshot
    /// grows with the database).  A wall-clock ratio is only meaningful on the optimized build, so the hard
    /// bar is ignored under debug builds (CI's bench job runs it with `--release`); the
    /// structural O(delta) property is asserted unconditionally by
    /// `seed-core::durability::tests::per_commit_durable_cost_is_o_delta`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing bar is only meaningful in release builds")]
    fn e10_write_through_beats_snapshot_by_50x_at_scale() {
        let result = e10_durable_throughput(10_000, 20);
        let speedup = result.get("speedup_x").expect("metric present");
        assert!(
            speedup >= 50.0,
            "the median commit must be >= 50x cheaper than the median checkpoint, got {speedup}x"
        );
    }
}
