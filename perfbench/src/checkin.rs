//! Workload `checkin_cycle`: the paper's unit of work on the durable write path.
//!
//! Two clients (one thread and one connection each, closed loop) against a durable `F20k`
//! primary with one replica attached.  Client `c` owns the `Data` objects whose index has
//! parity `c`, so there is no lock contention by design.  One cycle: check out a seeded
//! `Data` → check in a new unique `Selector` value → `find Data.Text.Selector where value =
//! ...`, which must return exactly that selector.
//!
//! Cycles add no `Access` relationships: with them, `Database::open_durable` of the primary
//! fails after the run (`RecordNotFound` / `PageFull` from the heap file), so the restart
//! check could not pass.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use seed_core::{Database, Value};
use seed_net::{RemoteClient, ReplicaNode, SeedNetServer};
use seed_server::{SeedServer, Update};

use crate::fixture::{self, data_name, selector_name, DATA};
use crate::obsdelta::{self, Delta};
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::util::{self, BenchThread, Gen, Monitor, Samples, Timeline, WorkDir};
use crate::Config;

const CLIENTS: usize = 2;
/// Polling interval of the replication-lag observer: lag is measured at this resolution.  A
/// finer poll wakes often enough to take CPU from the two clients on a 2-core host.
const LAG_POLL: Duration = Duration::from_micros(200);

/// One generated cycle.
#[derive(Clone)]
struct Cycle {
    client: usize,
    n: u64,
    data: usize,
}

fn next_cycle(gen: &mut Gen, client: usize, n: u64) -> Cycle {
    let data = 2 * gen.below(DATA / 2) + client;
    Cycle { client, n, data }
}

impl Cycle {
    fn value(&self, tag: &str) -> String {
        format!("{tag}{}-{}", self.client, self.n)
    }

    fn lock(&self) -> String {
        data_name(self.data)
    }

    fn updates(&self, value: &str) -> Vec<Update> {
        vec![Update::SetValue { object: selector_name(self.data), value: Value::string(value) }]
    }

    /// Bytes the user wrote: the selector's name and the new value.
    fn user_bytes(&self, value: &str) -> usize {
        selector_name(self.data).len() + value.len()
    }
}

fn probe(value: &str) -> String {
    format!("find Data.Text.Selector where value = \"{value}\"")
}

/// A running primary with its replica and client connections.
struct Env {
    dir: WorkDir,
    net: SeedNetServer,
    replica: ReplicaNode,
    clients: Vec<RemoteClient>,
}

fn setup() -> Env {
    let dir = WorkDir::new("checkin_cycle");
    let net = fixture::serve(fixture::build(&dir.join("primary")));
    let replica = fixture::attach_replica(&dir.join("replica"), &net);
    let mut clients: Vec<RemoteClient> = (0..CLIENTS)
        .map(|_| RemoteClient::connect(net.local_addr()).expect("connect client"))
        .collect();
    // Warm-up is read-only, so the fixture state the workload starts from is exactly F20k.
    for (c, client) in clients.iter_mut().enumerate() {
        for k in 0..200 {
            let i = (k * 97 * 2 + c) % DATA;
            client.retrieve(&data_name(i)).expect("warm-up retrieve");
            if k % 10 == 0 {
                client.query(&probe(&fixture::initial_value(i))).expect("warm-up query");
            }
        }
    }
    Env { dir, net, replica, clients }
}

impl Env {
    fn teardown(self) -> WorkDir {
        for client in self.clients {
            let _ = client.close();
        }
        self.replica.shutdown();
        self.net.shutdown();
        self.dir
    }
}

/// Per-client results of the timed window.
#[derive(Default)]
struct ClientRun {
    attempted: u64,
    failed: u64,
    op: Timeline,
    checkin: Timeline,
    read: Timeline,
    /// Latest acknowledged value per owned `Data` index.
    finals: HashMap<usize, String>,
    /// Values acknowledged and later overwritten (including the fixture's initial ones).
    superseded: Vec<String>,
    /// Time spent handing acks to the lag observer (counted in `cpu_us_per_op`).
    ack: Duration,
}

fn client_loop(
    client: &mut RemoteClient,
    c: usize,
    seed: u64,
    (start, deadline): (Instant, Instant),
    core: &SeedServer,
    acks: mpsc::Sender<(Instant, u64)>,
) -> ClientRun {
    let mut gen = Gen::new(seed, 1 + c as u64);
    let mut run = ClientRun::default();
    let mut n = 0;
    while Instant::now() < deadline {
        let cycle = next_cycle(&mut gen, c, n);
        n += 1;
        run.attempted += 1;
        let value = cycle.value("e");
        let t0 = Instant::now();
        let checked_in =
            client.checkout(&[&cycle.lock()]).and_then(|_| client.checkin(cycle.updates(&value)));
        let t1 = Instant::now();
        if checked_in.is_err() {
            run.failed += 1;
            let _ = client.release();
            continue;
        }
        // The serving snapshot is published before the ack, so its LSN covers this commit.
        let _ = acks.send((t1, core.snapshot().lsn()));
        run.ack += t1.elapsed();
        let old = run.finals.insert(cycle.data, value.clone());
        run.superseded.push(old.unwrap_or_else(|| fixture::initial_value(cycle.data)));
        let t2 = Instant::now();
        let answer = client.query(&probe(&value));
        let t3 = Instant::now();
        if !matches!(&answer, Ok(a) if a.names == [selector_name(cycle.data)]) {
            run.failed += 1;
        }
        let checkout_and_checkin = t1 - t0;
        run.checkin.push(t1 - start, checkout_and_checkin);
        run.read.push(t3 - start, t3 - t2);
        run.op.push(t3 - start, checkout_and_checkin + (t3 - t2));
    }
    run
}

/// Times each acknowledged commit until the replica's applied LSN covers it.  Publishes its
/// own CPU time through `meter`, so that it is left out of `cpu_us_per_op`.
fn lag_observer(
    replica: &ReplicaNode,
    acks: mpsc::Receiver<(Instant, u64)>,
    stop: &AtomicBool,
    start: Instant,
    meter: &BenchThread,
) -> Timeline {
    let mut lags = Timeline::default();
    let mut pending: VecDeque<(Instant, u64)> = VecDeque::new();
    let mut stop_seen: Option<Instant> = None;
    loop {
        meter.publish();
        pending.extend(acks.try_iter());
        let applied = replica.applied_lsn();
        let now = Instant::now();
        while pending.front().is_some_and(|&(_, lsn)| lsn <= applied) {
            let (acked, _) = pending.pop_front().expect("front exists");
            lags.push(now - start, now.saturating_duration_since(acked));
        }
        if stop.load(Ordering::SeqCst) {
            let since = *stop_seen.get_or_insert(now);
            // Every client thread has ended, so nothing more is sent.
            if pending.is_empty() {
                break;
            }
            if now - since > Duration::from_secs(60) {
                break;
            }
        }
        std::thread::sleep(LAG_POLL);
    }
    lags
}

/// Counts wrong answers of the post-run checks against `db`'s query surface.
fn check_values(
    finals: &HashMap<usize, String>,
    superseded: &[String],
    query: impl Fn(&str) -> Option<Vec<String>>,
) -> u64 {
    let mut wrong = 0;
    for (&data, value) in finals {
        if query(&probe(value)) != Some(vec![selector_name(data)]) {
            wrong += 1;
        }
    }
    for value in superseded {
        if query(&probe(value)) != Some(vec![]) {
            wrong += 1;
        }
    }
    wrong
}

fn access_count(server: &SeedServer) -> usize {
    server.relationship_count_in("Access", true).unwrap_or(usize::MAX)
}

pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        return traced(cfg);
    }
    let mut out = Outcome::default();
    let (cost, env) = util::set_up(setup);
    let mut setups = vec![cost];
    let Env { dir, net, replica, mut clients } = env;
    let core = net.core();

    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(cfg.seconds);
    let meter = BenchThread::default();
    let monitor = Monitor::start(start, Some(meter.clone()));
    let (runs, lags, (cpu, peak_rss), observer_cpu) = std::thread::scope(|s| {
        let observer = s.spawn(|| lag_observer(&replica, rx, &stop, start, &meter));
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let tx = tx.clone();
                let core = &core;
                s.spawn(move || client_loop(client, c, cfg.seed, (start, deadline), core, tx))
            })
            .collect();
        let runs: Vec<ClientRun> =
            workers.into_iter().map(|w| w.join().expect("client thread")).collect();
        let watched = monitor.finish();
        let observer_cpu = meter.cpu_us();
        // A replica that never catches up fails the value checks below.
        replica.wait_for_lsn(core.snapshot().lsn(), Duration::from_secs(60));
        stop.store(true, Ordering::SeqCst);
        (runs, observer.join().expect("lag observer"), watched, observer_cpu)
    });
    drop(tx);

    let mut op = Timeline::default();
    let mut checkin = Timeline::default();
    let mut read = Timeline::default();
    let mut finals = HashMap::new();
    let mut superseded = Vec::new();
    let mut ack = Duration::ZERO;
    for r in runs {
        out.attempted += r.attempted;
        out.failed += r.failed;
        ack += r.ack;
        op.extend(r.op);
        checkin.extend(r.checkin);
        read.extend(r.read);
        finals.extend(r.finals);
        superseded.extend(r.superseded);
    }

    // Every acknowledged value is found on the caught-up replica ...
    let replica_core = replica.core();
    let on_replica = |q: &str| replica_core.query(q).ok().map(|a| a.names);
    let mut wrong = check_values(&finals, &[], on_replica);
    if access_count(&replica_core) != DATA {
        wrong += 1;
    }
    drop(replica_core);
    for client in clients {
        let _ = client.close();
    }
    replica.shutdown();
    drop(core);
    net.shutdown();
    // ... and in the primary directory after a restart.
    match Database::open_durable(dir.join("primary")) {
        Ok(reopened) => {
            let on_disk = |q: &str| seed_query::run(&reopened, q).ok().map(|o| o.names());
            wrong += check_values(&finals, &superseded, on_disk);
            if access_count(&SeedServer::new(reopened)) != DATA {
                wrong += 1;
            }
        }
        Err(e) => {
            wrong += (finals.len() + superseded.len() + 1) as u64;
            out.note(format!("reopening the primary failed: {e}"));
        }
    }
    drop(dir);
    out.failed += wrong;
    for _ in 1..crate::SETUPS {
        let (cost, env) = util::set_up(setup);
        setups.push(cost);
        drop(env.teardown());
    }

    let secs = cfg.seconds;
    util::report_setups(&mut out, &setups);
    out.set("ops_per_s", op.rate(secs));
    for (name, q, timeline) in [
        ("op_p50_us", 0.50, &op),
        ("op_p99_us", 0.99, &op),
        ("read_p50_us", 0.50, &read),
        ("read_p99_us", 0.99, &read),
        ("checkin_p50_us", 0.50, &checkin),
        ("checkin_p99_us", 0.99, &checkin),
        ("repl_lag_p50_us", 0.50, &lags),
        ("repl_lag_p99_us", 0.99, &lags),
    ] {
        out.set_opt(name, timeline.percentile(q, secs));
    }
    out.set("cpu_us_per_op", util::cpu_per_op(&cpu, &op));
    out.set("peak_rss_mb", peak_rss);
    out.samples.insert("op", op.len());
    out.samples.insert("read", read.len());
    out.samples.insert("checkin", checkin.len());
    out.samples.insert("repl_lag", lags.len());
    out.note(format!(
        "{CLIENTS} clients, closed loop; {} values checked on the replica and after restart, {} superseded values checked absent; lag polled every {} us; percentiles and rates are medians over one-second slices",
        finals.len(),
        superseded.len(),
        LAG_POLL.as_micros()
    ));
    out.note(format!(
        "left out of cpu_us_per_op: the lag observer's {:.1} ms CPU per second ({:.1}% of the program's); left in: the clients' ack hand-off, {:.2} us per cycle",
        observer_cpu / 1e3 / secs as f64,
        100.0 * observer_cpu / cpu.iter().sum::<f64>().max(1.0),
        ack.as_secs_f64() * 1e6 / op.len().max(1) as f64
    ));
    out
}

/// The traced run: one `F20k` set-up, then the same seeded cycle stream replayed untraced
/// over TCP, traced over TCP (`net` spans), in-process against `SeedServer` (`server`), and
/// against `Database` / `seed_query` (`core`, `query`).  Check-ins only change selector
/// values, so every replay sees a database of the fixture's size.
fn traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let run0 = obsdelta::snapshot();
    let Env { dir, net, replica, mut clients } = setup();
    let core = net.core();
    let budget = Duration::from_secs_f64(cfg.seconds as f64 / 4.0);
    let mut gens: Vec<Gen> = (0..CLIENTS).map(|c| Gen::new(cfg.seed, 1 + c as u64)).collect();
    let mut cycles: Vec<Cycle> = Vec::new();
    let items0 = replica.items_applied();
    let lag_max = std::sync::atomic::AtomicU64::new(0);
    let resets0 = replica.resets_applied();
    let sampling = AtomicBool::new(true);

    let (u_secs, t_secs, mut tracer, d_net) = std::thread::scope(|s| {
        s.spawn(|| {
            // Records the replica is behind the primary's published end of log.
            while sampling.load(Ordering::SeqCst) {
                let behind = core.snapshot().lsn().saturating_sub(replica.applied_lsn());
                lag_max.fetch_max(behind, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        // Untraced and traced replays over TCP, interleaved in blocks (alternating which
        // goes first) so drift on a shared host cancels out of the trace overhead.
        let before = obsdelta::snapshot();
        let mut tracer = Tracer::new("checkin_cycle");
        let (mut u, mut t) = (Duration::ZERO, Duration::ZERO);
        let start = Instant::now();
        while start.elapsed() < 2 * budget {
            let first = cycles.len();
            for _ in 0..trace::BLOCK {
                let i = cycles.len();
                let c = i % CLIENTS;
                cycles.push(next_cycle(&mut gens[c], c, (i / CLIENTS) as u64));
            }
            for pass in 0..2 {
                let traced = (pass + first / trace::BLOCK) % 2 == 1;
                let clock = Instant::now();
                for (i, cycle) in cycles.iter().enumerate().skip(first) {
                    let client = &mut clients[cycle.client];
                    out.failed += u64::from(if traced {
                        net_cycle(client, cycle, "t", Some((&mut tracer, i)))
                    } else {
                        net_cycle(client, cycle, "u", None)
                    });
                }
                *(if traced { &mut t } else { &mut u }) += clock.elapsed();
            }
        }
        out.failed +=
            u64::from(!replica.wait_for_lsn(core.snapshot().lsn(), Duration::from_secs(60)));
        let d_net = Delta::new(before, obsdelta::snapshot());
        sampling.store(false, Ordering::SeqCst);
        (u.as_secs_f64(), t.as_secs_f64(), tracer, d_net)
    });
    let n = cycles.len();
    let commits = (2 * n) as f64;
    let items = (replica.items_applied() - items0) as f64;
    let batches = d_net.counter("repl_batches_applied_total") as f64;
    out.set("replication.commits_per_batch", commits / batches.max(1.0));
    out.set("replication.apply_items_per_commit", items / commits);
    out.set("replication.ack_lag_records_max", lag_max.load(Ordering::SeqCst) as f64);
    out.set("replication.resets", (replica.resets_applied() - resets0) as f64);
    replica.shutdown();

    // In-process replays, op by op and alternating which goes first, so both layers see the
    // same database and WAL state: `SeedServer` methods (`server`), and the `Database`
    // mutators + commit inside the server's write path with the query pipeline on the
    // published snapshot (`core`, `query`).
    let ids: Vec<u64> = (0..CLIENTS).map(|_| core.connect()).collect();
    let before = obsdelta::snapshot();
    let (mut rejections, mut core_rejections) = (0, 0);
    let (mut wal_grown, mut user_bytes) = (0u64, 0usize);
    let (mut rows, mut results) = (0usize, 0usize);
    for (i, cycle) in cycles.iter().enumerate() {
        for server_first in [i % 2 == 0, i % 2 == 1] {
            if server_first {
                let id = ids[cycle.client];
                let value = cycle.value("s");
                let lock = cycle.lock();
                let co = tracer
                    .span("server", "checkout", i, "-", || core.checkout(id, &[&lock]).is_ok());
                let ci = tracer.span("server", "checkin", i, "-", || {
                    core.checkin(id, &cycle.updates(&value)).is_ok()
                });
                if !(co && ci) {
                    rejections += 1;
                    core.release(id);
                }
                let q = tracer.span("server", "query", i, "-", || core.query(&probe(&value)));
                if !matches!(&q, Ok(a) if a.names == [selector_name(cycle.data)]) {
                    out.failed += 1;
                }
                continue;
            }
            let value = cycle.value("c");
            tracer.span("core", "checkout_read", i, "server", || {
                resolve_checkout(&core.snapshot(), &data_name(cycle.data))
            });
            let wal_before = wal_bytes(&core);
            let start = Instant::now();
            let ok = core.with_database_mut(|db| {
                db.begin_transaction().expect("begin");
                let applied =
                    tracer.span("core.apply", "apply", i, "core", || apply(db, cycle, &value));
                if applied {
                    tracer.span("core.commit", "commit", i, "core", || {
                        db.commit_transaction().is_ok()
                    })
                } else {
                    let _ = db.rollback_transaction();
                    false
                }
            });
            tracer.push("core", "checkin", i, "server", start, Instant::now());
            core_rejections += u64::from(!ok);
            let wal_after = wal_bytes(&core);
            if wal_after >= wal_before {
                wal_grown += wal_after - wal_before;
                user_bytes += cycle.user_bytes(&value);
            }
            let snap = core.snapshot();
            let text = probe(&value);
            let query = tracer.span("query", "parse", i, "server", || seed_query::parse(&text));
            let query = query.expect("probe parses");
            let plan =
                tracer.span("query", "plan", i, "server", || seed_query::plan(&snap, &query));
            let plan = plan.expect("probe plans");
            let outcome = tracer.span("query", "execute.value", i, "server", || {
                seed_query::exec::run_plan(&snap, &plan)
            });
            rows += plan.access.estimated_rows();
            match outcome {
                Ok(o) if o.names() == [selector_name(cycle.data)] => results += o.count(),
                _ => out.failed += 1,
            }
        }
    }
    // Both replays commit: 2n check-ins.
    let d_local = Delta::new(before, obsdelta::snapshot());

    core.checkpoint().expect("final checkpoint");
    let disk = util::dir_bytes(&dir.join("primary")) as f64;
    let live = live_bytes(&core.snapshot());
    for client in clients {
        let _ = client.close();
    }
    drop(core);
    net.shutdown();
    drop(dir);

    out.attempted = 4 * n as u64;
    out.failed += rejections + core_rejections;
    let net_ops = tracer.per_op(&["net"]);
    let server_ops = tracer.per_op(&["server"]);
    let lower_ops = tracer.per_op(&["core", "query"]);
    let (selfs, coverage) = trace::self_times(&[&net_ops, &server_ops, &lower_ops], |_| "cycle");
    let p50 = |s: &Samples| s.percentile(0.5).unwrap_or(0.0);
    out.set("net.self_us_p50", p50(&selfs[0]));
    out.set("net.queue_us_p50", queue_us(&tracer, &d_net, &["checkout", "checkin", "query"]));
    let bytes = d_net.counter("net_bytes_in_total") + d_net.counter("net_bytes_out_total");
    out.set("net.bytes_per_op", bytes as f64 / (2 * n) as f64);
    out.set("net.coalesce_bytes_p50", d_net.hist("net_write_coalesce_bytes").percentile(0.5));
    out.set("server.checkout_us_p50", p50(&tracer.durations("server", Some("checkout"))));
    // Medians, not per-op differences: both spans carry an fsync whose noise swamps the
    // difference of a single op.
    let server_checkin = p50(&tracer.durations("server", Some("checkin")));
    let core_checkin = p50(&tracer.durations("core", Some("checkin")));
    out.set("server.checkin_self_us_p50", (server_checkin - core_checkin).max(0.0));
    out.set("server.lock_wait_us_p99", d_local.hist("lock_wait_us").percentile(0.99));
    out.set("server.rejections", rejections as f64);
    out.set("query.parse_us_p50", p50(&tracer.durations("query", Some("parse"))));
    out.set("query.plan_us_p50", p50(&tracer.durations("query", Some("plan"))));
    out.set("query.execute_us_p50.value", p50(&tracer.durations("query", Some("execute.value"))));
    out.set("query.rows_examined_per_result", rows as f64 / results.max(1) as f64);
    out.set("core.apply_us_p50", p50(&tracer.durations("core.apply", None)));
    // Medians on both sides: the mean storage time per commit carries the checkpoint stalls and
    // the fsync tail, which would swallow the median commit.
    let storage = d_local.hist("wal_append_us").percentile(0.5)
        + d_local.hist("wal_fsync_us").percentile(0.5);
    let commit = p50(&tracer.durations("core.commit", None));
    out.set("core.commit_self_us_p50", (commit - storage).max(0.0));
    storage_and_publish(&mut out, &d_local, 2 * n);
    out.set(
        "core.straggler_copies_per_1k_checkins",
        d_net.counter("snapshot_straggler_copies_total") as f64 * 1000.0 / (2 * n) as f64,
    );
    out.set("core.consistency_rejections", core_rejections as f64);
    out.set("storage.wal_bytes_per_user_byte", wal_grown as f64 / user_bytes.max(1) as f64);
    out.set("storage.disk_bytes_per_live_byte", disk / live.max(1.0));
    out.set("bench.trace_overhead_x", t_secs / u_secs);
    out.set("bench.trace_coverage", coverage);
    finish_trace(&mut out, &tracer, cfg, run0);
    out.note(format!(
        "replayed {n} cycles per layer (untraced {u_secs:.2} s, traced {t_secs:.2} s); storage and publish from obs deltas of the two in-process replays (replica stopped)"
    ));
    out
}

/// One cycle over TCP; returns whether it failed or answered wrongly.
fn net_cycle(
    client: &mut RemoteClient,
    cycle: &Cycle,
    tag: &str,
    mut tracer: Option<(&mut Tracer, usize)>,
) -> bool {
    let value = cycle.value(tag);
    let lock = cycle.lock();
    let mut call =
        |kind: &'static str, f: &mut dyn FnMut(&mut RemoteClient) -> bool| match &mut tracer {
            Some((t, i)) => t.span("net", kind, *i, "-", || f(client)),
            None => f(client),
        };
    let ok = call("checkout", &mut |c| c.checkout(&[&lock]).is_ok())
        && call("checkin", &mut |c| c.checkin(cycle.updates(&value)).is_ok());
    if !ok {
        let _ = client.release();
        return true;
    }
    let expected = [selector_name(cycle.data)];
    !call("query", &mut |c| matches!(c.query(&probe(&value)), Ok(a) if a.names == expected))
}

/// What `SeedServer::checkout` reads for one root: the object, its own dependents, and
/// their relationships.  Returns the number of records read.
fn resolve_checkout(db: &Database, name: &str) -> usize {
    let Ok(root) = db.object_by_name(name) else { return 0 };
    let mut frontier = vec![root];
    let mut read = 0;
    while let Some(record) = frontier.pop() {
        read += 1 + db.relationships(record.id).len();
        frontier.extend(
            db.children(record.id)
                .into_iter()
                .filter(|c| c.inherited_from.is_none())
                .map(|c| c.record),
        );
    }
    read
}

/// The check-in's `Database` mutator calls; returns whether they succeeded.
fn apply(db: &mut Database, cycle: &Cycle, value: &str) -> bool {
    db.object_by_name(&selector_name(cycle.data))
        .and_then(|selector| db.set_value(selector.id, Value::string(value)))
        .is_ok()
}

pub fn wal_bytes(core: &SeedServer) -> u64 {
    core.snapshot().durability().map(|d| d.wal_bytes).unwrap_or(0)
}

/// Logical bytes of the live database: object names and values, relationship bindings.
pub fn live_bytes(db: &Database) -> f64 {
    let store = db.store();
    let objects: usize = store
        .all_objects()
        .filter(|o| !o.deleted)
        .map(|o| o.name.to_string().len() + o.value.as_str().map(str::len).unwrap_or(0))
        .sum();
    let relationships: usize = store
        .all_relationships()
        .filter(|r| r.is_visible())
        .map(|r| r.bindings.iter().map(|(role, _)| role.len() + 8).sum::<usize>())
        .sum();
    (objects + relationships) as f64
}

/// `net.queue_us_p50`: per request kind, the client round-trip p50 minus the server-side
/// `net_request_us_<kind>` p50, weighted by request count.
pub fn queue_us(tracer: &Tracer, d: &Delta, kinds: &[&str]) -> f64 {
    let (mut weighted, mut total) = (0.0, 0.0);
    for kind in kinds {
        let rtt = tracer.durations("net", Some(kind));
        let server = d.hist(&format!("net_request_us_{kind}"));
        if let Some(p) = rtt.percentile(0.5) {
            let count = rtt.len() as f64;
            weighted += (p - server.percentile(0.5)).max(0.0) * count;
            total += count;
        }
    }
    if total > 0.0 {
        weighted / total
    } else {
        0.0
    }
}

/// The storage and snapshot-publication metrics, from obs deltas over `commits` check-ins.
pub fn storage_and_publish(out: &mut Outcome, d: &Delta, commits: usize) {
    let publish = d.hist("snapshot_publish_us");
    out.set("core.publish_us_p50", publish.percentile(0.5));
    out.set("core.publish_us_p99", publish.percentile(0.99));
    out.set("core.patch_items_p50", d.hist("snapshot_patch_items").percentile(0.5));
    out.set("storage.wal_append_us_p50", d.hist("wal_append_us").percentile(0.5));
    let fsync = d.hist("wal_fsync_us");
    out.set("storage.fsync_us_p50", fsync.percentile(0.5));
    out.set("storage.fsync_us_p99", fsync.percentile(0.99));
    out.set("storage.fsyncs_per_checkin", fsync.count as f64 / commits.max(1) as f64);
    out.set("storage.batch_records_p50", d.hist("wal_batch_records").percentile(0.5));
    out.set("storage.checkpoints", d.counter("wal_checkpoints_total") as f64);
    out.set("storage.checkpoint_us_max", d.hist("wal_checkpoint_us").max_bound());
}

/// Run-wide trace metrics and the span file.
pub fn finish_trace(
    out: &mut Outcome,
    tracer: &Tracer,
    cfg: &Config,
    run0: seed_obs::RegistrySnapshot,
) {
    let run = Delta::new(run0, obsdelta::snapshot());
    out.set("net.backpressure_pauses", run.counter("net_backpressure_pauses_total") as f64);
    out.set("net.io_errors", run.counter("net_io_errors_total") as f64);
    out.set("obs.slow_ops", run.counter("slow_ops_total") as f64);
    let path = util::work_root().join(format!("spans-{}-{}.csv", cfg.workload, cfg.seed));
    match tracer.write_csv(&path) {
        Ok(()) => out.note(format!("{} spans written to {}", tracer.spans.len(), path.display())),
        Err(e) => out.note(format!("span file not written: {e}")),
    }
}
