//! Workload `read_mix`: `F20k` with no writer, two clients at depth 1 (closed loop).  The
//! seeded mix is 50% `retrieve(name)`, 25% value-index probes (1 hit), 12.5% name-prefix finds
//! (10 hits), 12% `relationships_of` and 0.5% `count Action navigate Access.by from ...`.
//! Every answer is checked against the fixture model.
//!
//! Navigation is rare because it scans the whole `Action` extent (~6.5 ms, ~770 rows examined
//! per result): at the 10% first planned, it took 95% of the CPU, so `read_mix` measured that
//! one memory-bound query and swung ±20% with the host's memory contention from run to run.
//! At 0.5% it stays measured (and its latency sits above `op_p99_us`, not on it).

use std::time::{Duration, Instant};

use seed_core::Database;
use seed_net::{RemoteClient, SeedNetServer};
use seed_server::{RelationshipInfo, SeedServer};

use crate::checkin::{finish_trace, queue_us};
use crate::fixture::{self, access_partner, action_name, data_name, selector_name, ACTIONS, DATA};
use crate::obsdelta::{self, Delta};
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::util::{self, Gen, Monitor, Samples, Timeline, WorkDir};
use crate::Config;

const CLIENTS: usize = 2;

#[derive(Clone, Copy)]
enum ReadOp {
    /// `retrieve` of a `Data` (index < DATA) or an `Action` (index − DATA).
    Retrieve(usize),
    Value(usize),
    Prefix(usize),
    Relationships(usize),
    Navigate(usize),
}

/// How many cards of each op kind one deck holds (retrieve, value probe, prefix find,
/// `relationships_of`, navigation).
const DECK: [usize; 5] = [100, 50, 25, 24, 1];

/// A client's seeded op stream.  The mix is dealt from shuffled decks of [`DECK`], so every
/// stretch of ops has the stated proportions and the run-to-run spread does not depend on how
/// many expensive navigations a seed happens to draw.
struct Mix {
    gen: Gen,
    deck: Vec<u8>,
}

impl Mix {
    fn new(seed: u64, stream: u64) -> Self {
        Mix { gen: Gen::new(seed, stream), deck: Vec::new() }
    }

    fn next_op(&mut self) -> ReadOp {
        if self.deck.is_empty() {
            self.deck = (0u8..).zip(DECK).flat_map(|(kind, n)| vec![kind; n]).collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.gen.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        let gen = &mut self.gen;
        match self.deck.pop().expect("deck refilled above") {
            0 => ReadOp::Retrieve(gen.below(DATA + ACTIONS)),
            1 => ReadOp::Value(gen.below(DATA)),
            2 => ReadOp::Prefix(gen.below(DATA / 10)),
            3 => ReadOp::Relationships(gen.below(DATA)),
            _ => ReadOp::Navigate(gen.below(DATA)),
        }
    }
}

/// The answer a correct server gives, in the shape every layer reduces its result to.
#[derive(PartialEq, Debug)]
enum Answer {
    Name(String),
    Names(Vec<String>),
    Count(usize),
    Relationships(Vec<(String, Vec<(String, String)>)>),
    Failed,
}

impl ReadOp {
    fn name(&self) -> String {
        match *self {
            ReadOp::Retrieve(i) if i < DATA => data_name(i),
            ReadOp::Retrieve(i) => action_name(i - DATA),
            ReadOp::Relationships(i) => data_name(i),
            _ => String::new(),
        }
    }

    fn query(&self) -> String {
        match *self {
            ReadOp::Value(i) => {
                format!("find Data.Text.Selector where value = \"{}\"", fixture::initial_value(i))
            }
            ReadOp::Prefix(k) => format!("find Data where name prefix \"Data{k:04}\""),
            ReadOp::Navigate(i) => {
                format!("count Action navigate Access.by from \"{}\"", data_name(i))
            }
            _ => String::new(),
        }
    }

    /// The request kind on the wire.
    fn kind(&self) -> &'static str {
        match self {
            ReadOp::Retrieve(_) => "retrieve",
            ReadOp::Relationships(_) => "relationships_of",
            _ => "query",
        }
    }

    /// The query form, for the per-form execution metrics.
    fn execute_kind(&self) -> &'static str {
        match self {
            ReadOp::Retrieve(_) => "execute.point",
            ReadOp::Value(_) => "execute.value",
            ReadOp::Prefix(_) => "execute.prefix",
            ReadOp::Navigate(_) => "execute.navigate",
            ReadOp::Relationships(_) => "relationships",
        }
    }

    fn expected(&self) -> Answer {
        match *self {
            ReadOp::Retrieve(_) => Answer::Name(self.name()),
            ReadOp::Value(i) => Answer::Names(vec![selector_name(i)]),
            ReadOp::Prefix(k) => Answer::Names((0..10).map(|d| data_name(k * 10 + d)).collect()),
            ReadOp::Navigate(_) => Answer::Count(1),
            ReadOp::Relationships(i) => Answer::Relationships(vec![(
                "Access".into(),
                vec![("from".into(), data_name(i)), ("by".into(), action_name(access_partner(i)))],
            )]),
        }
    }

    fn is_count(&self) -> bool {
        matches!(self, ReadOp::Navigate(_))
    }
}

fn relationships(infos: Vec<RelationshipInfo>) -> Answer {
    Answer::Relationships(infos.into_iter().map(|r| (r.association, r.bindings)).collect())
}

fn query_answer(op: &ReadOp, names: Vec<String>, count: usize) -> Answer {
    if op.is_count() {
        Answer::Count(count)
    } else {
        Answer::Names(names)
    }
}

/// One read over TCP.
fn over_net(client: &mut RemoteClient, op: &ReadOp) -> Answer {
    match op {
        ReadOp::Retrieve(_) => client
            .retrieve(&op.name())
            .map(|r| Answer::Name(r.name.to_string()))
            .unwrap_or(Answer::Failed),
        ReadOp::Relationships(_) => {
            client.relationships_of(&op.name()).map(relationships).unwrap_or(Answer::Failed)
        }
        _ => client
            .query(&op.query())
            .map(|a| query_answer(op, a.names, a.count))
            .unwrap_or(Answer::Failed),
    }
}

/// The same read against the in-process `SeedServer`.
fn in_server(server: &SeedServer, op: &ReadOp) -> Answer {
    match op {
        ReadOp::Retrieve(_) => server
            .retrieve(&op.name())
            .map(|r| Answer::Name(r.name.to_string()))
            .unwrap_or(Answer::Failed),
        ReadOp::Relationships(_) => {
            server.relationships_of(&op.name()).map(relationships).unwrap_or(Answer::Failed)
        }
        _ => server
            .query(&op.query())
            .map(|a| query_answer(op, a.names, a.count))
            .unwrap_or(Answer::Failed),
    }
}

/// The same read at the `Database` / `seed_query` entry points, spanned per stage.  Returns
/// the answer and, for queries, the planner's row estimate.
fn in_core(db: &Database, op: &ReadOp, tracer: &mut Tracer, i: usize) -> (Answer, usize) {
    match op {
        ReadOp::Retrieve(_) => {
            let name = op.name();
            let r = tracer.span("core", "execute.point", i, "server", || db.object_by_name(&name));
            (r.map(|r| Answer::Name(r.name.to_string())).unwrap_or(Answer::Failed), 1)
        }
        ReadOp::Relationships(_) => {
            let name = op.name();
            let answer = tracer.span("core", "relationships", i, "server", || {
                let Ok(root) = db.object_by_name(&name) else { return Answer::Failed };
                let schema = db.schema();
                let mut rels = Vec::new();
                for rel in db.relationships(root.id) {
                    let assoc = schema
                        .association(rel.record.association)
                        .map(|a| a.name.clone())
                        .unwrap_or_default();
                    let bindings = rel
                        .record
                        .bindings
                        .iter()
                        .map(|(role, o)| {
                            (
                                role.clone(),
                                db.object(*o).map(|r| r.name.to_string()).unwrap_or_default(),
                            )
                        })
                        .collect();
                    rels.push((assoc, bindings));
                }
                Answer::Relationships(rels)
            });
            (answer, 1)
        }
        _ => {
            let text = op.query();
            let parsed = tracer.span("query", "parse", i, "server", || seed_query::parse(&text));
            let Ok(parsed) = parsed else { return (Answer::Failed, 0) };
            let plan = tracer.span("query", "plan", i, "server", || seed_query::plan(db, &parsed));
            let Ok(plan) = plan else { return (Answer::Failed, 0) };
            let rows = plan.access.estimated_rows();
            let outcome = tracer.span("query", op.execute_kind(), i, "server", || {
                seed_query::exec::run_plan(db, &plan)
            });
            let answer =
                outcome.map(|o| query_answer(op, o.names(), o.count())).unwrap_or(Answer::Failed);
            (answer, rows)
        }
    }
}

struct Env {
    dir: WorkDir,
    net: SeedNetServer,
    clients: Vec<RemoteClient>,
}

fn setup() -> Env {
    let dir = WorkDir::new("read_mix");
    let net = fixture::serve(fixture::build(&dir.join("primary")));
    let mut clients: Vec<RemoteClient> = (0..CLIENTS)
        .map(|_| RemoteClient::connect(net.local_addr()).expect("connect client"))
        .collect();
    let mut warm = Mix::new(0, 99);
    for client in &mut clients {
        for _ in 0..200 {
            over_net(client, &warm.next_op());
        }
    }
    Env { dir, net, clients }
}

impl Env {
    fn teardown(self) {
        for client in self.clients {
            let _ = client.close();
        }
        self.net.shutdown();
        drop(self.dir);
    }
}

pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        return traced(cfg);
    }
    let mut out = Outcome::default();
    let (cost, mut env) = util::set_up(setup);
    let mut setups = vec![cost];

    let start = Instant::now();
    let deadline = start + Duration::from_secs(cfg.seconds);
    let monitor = Monitor::start(start, None);
    let runs = std::thread::scope(|s| {
        let workers: Vec<_> = env
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut mix = Mix::new(cfg.seed, 1 + c as u64);
                    let (mut lat, mut failed) = (Timeline::default(), 0u64);
                    while Instant::now() < deadline {
                        let op = mix.next_op();
                        let t = Instant::now();
                        let answer = over_net(client, &op);
                        let done = Instant::now();
                        lat.push(done - start, done - t);
                        failed += u64::from(answer != op.expected());
                    }
                    (lat, failed)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect::<Vec<_>>()
    });
    let (cpu, peak_rss) = monitor.finish();
    env.teardown();
    for _ in 1..crate::SETUPS {
        let (cost, env) = util::set_up(setup);
        setups.push(cost);
        env.teardown();
    }

    let mut lat = Timeline::default();
    for (l, failed) in runs {
        lat.extend(l);
        out.failed += failed;
    }
    out.attempted = lat.len() as u64;
    let secs = cfg.seconds;
    util::report_setups(&mut out, &setups);
    out.set("ops_per_s", lat.rate(secs));
    for (p50, p99) in [("op_p50_us", "op_p99_us"), ("read_p50_us", "read_p99_us")] {
        out.set_opt(p50, lat.percentile(0.50, secs));
        out.set_opt(p99, lat.percentile(0.99, secs));
    }
    out.set("cpu_us_per_op", util::cpu_per_op(&cpu, &lat));
    out.set("peak_rss_mb", peak_rss);
    out.samples.insert("op", lat.len());
    out.samples.insert("read", lat.len());
    let rates: Vec<usize> = lat.slices(secs).iter().map(Samples::len).collect();
    out.note(format!(
        "{CLIENTS} clients, closed loop, depth 1; every answer checked; ops per one-second slice {rates:?}; percentiles and rates are medians over the slices"
    ));
    out
}

/// The traced run: the same seeded read stream untraced over TCP, traced over TCP (`net`),
/// in-process against `SeedServer` (`server`), and against `Database` / `seed_query` on the
/// published snapshot (`core`, `query`).
fn traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let run0 = obsdelta::snapshot();
    let mut env = setup();
    let core = env.net.core();
    let budget = Duration::from_secs_f64(cfg.seconds as f64 / 4.0);
    let mut mixes: Vec<Mix> = (0..CLIENTS).map(|c| Mix::new(cfg.seed, 1 + c as u64)).collect();
    let mut ops = Vec::new();
    let check = |answer: Answer, op: &ReadOp| u64::from(answer != op.expected());

    // Untraced and traced replays over TCP, interleaved in blocks (alternating which goes
    // first) so drift on a shared host cancels out of the trace overhead.
    let mut tracer = Tracer::new("read_mix");
    let before = obsdelta::snapshot();
    let (mut u, mut t) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    while start.elapsed() < 2 * budget {
        let first = ops.len();
        for _ in 0..trace::BLOCK {
            let c = ops.len() % CLIENTS;
            ops.push(mixes[c].next_op());
        }
        for pass in 0..2 {
            let traced = (pass + first / trace::BLOCK) % 2 == 1;
            let clock = Instant::now();
            for (i, op) in ops.iter().enumerate().skip(first) {
                let client = &mut env.clients[i % CLIENTS];
                let answer = if traced {
                    tracer.span("net", op.kind(), i, "-", || over_net(client, op))
                } else {
                    over_net(client, op)
                };
                out.failed += check(answer, op);
            }
            *(if traced { &mut t } else { &mut u }) += clock.elapsed();
        }
    }
    let (u_secs, t_secs) = (u.as_secs_f64(), t.as_secs_f64());
    let n = ops.len();
    let d_net = Delta::new(before, obsdelta::snapshot());

    // In-process replays op by op, alternating which goes first: `SeedServer` (`server`) and
    // `Database` / `seed_query` on the published snapshot (`core`, `query`).
    let snap = core.snapshot();
    let (mut rows, mut results) = (0usize, 0usize);
    for (i, op) in ops.iter().enumerate() {
        for server_first in [i % 2 == 0, i % 2 == 1] {
            if server_first {
                let answer = tracer.span("server", op.kind(), i, "-", || in_server(&core, op));
                out.failed += check(answer, op);
                continue;
            }
            let (answer, estimate) = in_core(&snap, op, &mut tracer, i);
            if matches!(op, ReadOp::Value(_) | ReadOp::Prefix(_) | ReadOp::Navigate(_)) {
                rows += estimate;
                results += match &answer {
                    Answer::Names(n) => n.len(),
                    Answer::Count(c) => *c,
                    _ => 0,
                };
            }
            out.failed += check(answer, op);
        }
    }
    drop(snap);
    drop(core);
    env.teardown();

    out.attempted = 4 * n as u64;

    let net_ops = tracer.per_op(&["net"]);
    let server_ops = tracer.per_op(&["server"]);
    let lower_ops = tracer.per_op(&["core", "query"]);
    let (selfs, coverage) =
        trace::self_times(&[&net_ops, &server_ops, &lower_ops], |i| ops[i].execute_kind());
    let p50 = |s: &Samples| s.percentile(0.5).unwrap_or(0.0);
    out.set("net.self_us_p50", p50(&selfs[0]));
    out.set(
        "net.queue_us_p50",
        queue_us(&tracer, &d_net, &["retrieve", "query", "relationships_of"]),
    );
    let bytes = d_net.counter("net_bytes_in_total") + d_net.counter("net_bytes_out_total");
    out.set("net.bytes_per_op", bytes as f64 / (2 * n) as f64);
    out.set("net.coalesce_bytes_p50", d_net.hist("net_write_coalesce_bytes").percentile(0.5));
    out.set("query.parse_us_p50", p50(&tracer.durations("query", Some("parse"))));
    out.set("query.plan_us_p50", p50(&tracer.durations("query", Some("plan"))));
    out.set("query.execute_us_p50.point", p50(&tracer.durations("core", Some("execute.point"))));
    for (metric, kind) in [
        ("query.execute_us_p50.prefix", "execute.prefix"),
        ("query.execute_us_p50.value", "execute.value"),
        ("query.execute_us_p50.navigate", "execute.navigate"),
    ] {
        out.set(metric, p50(&tracer.durations("query", Some(kind))));
    }
    out.set("query.rows_examined_per_result", rows as f64 / results.max(1) as f64);
    out.set("bench.trace_overhead_x", t_secs / u_secs);
    out.set("bench.trace_coverage", coverage);
    finish_trace(&mut out, &tracer, cfg, run0);
    out.note(format!(
        "replayed {n} reads per layer (untraced {u_secs:.2} s, traced {t_secs:.2} s); no writer, so storage, publish and replication stay 0"
    ));
    out
}
