//! Workload `spades_edit`: the paper's own evaluation — the SPADES tool editing a
//! specification — over TCP.  One connection (closed loop) drives seeded `spades::Workload`
//! sessions through `spades::RemoteBackend`, each session on a fresh, empty primary;
//! each `SpecOp` is one timed operation.  After a quarter of the ops (seeded) the tool shows
//! the element it just edited (`SpecBackend::element`), timed as a read.  Every session's
//! rejection count and `specification_report` must equal an in-process `SeedBackend` run of
//! the same ops, computed outside the timed window.

use std::time::{Duration, Instant};

use seed_core::Database;
use seed_net::{RemoteClient, SeedNetServer};
use spades::{
    specification_report, RemoteBackend, SeedBackend, SpecBackend, SpecOp, Workload, WorkloadConfig,
};

use crate::checkin::finish_trace;
use crate::fixture;
use crate::obsdelta::{self, Delta};
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::util::{self, Gen, Monitor, Samples, Timeline};
use crate::Config;

/// Size of one editing session: data elements, actions.
const SESSION: (usize, usize) = (300, 150);
/// Size of the throw-away warm-up session of the set-up.
const WARM_UP: (usize, usize) = (40, 20);
/// Set-ups per untraced run.  One takes ~0.1 s, so a single host stall of a few hundred
/// milliseconds would set it; the median of this many is steady.
const SETUPS: usize = 9;

fn workload(seed: u64, (data, actions): (usize, usize)) -> Workload {
    Workload::generate(&WorkloadConfig {
        data_elements: data,
        actions,
        vague_percent: 50,
        flows_per_action: 3,
        keywords_per_data: 2,
        // Sparse enough that version snapshots (a few ms each) stay above `op_p99_us`
        // instead of setting it.
        checkpoint_every: 200,
        seed,
    })
}

/// The ops of session `s`: the first workload from the session's seed stream on which the
/// in-process tool rejects no description or keyword edit.  `RemoteBackend` panics when the
/// server rejects the check-in of those two edits (its `RefCell` is still borrowed when it
/// releases the locks), so the generator keeps them out; other rejections stay in.
fn session_ops(seed: u64, s: u64, size: (usize, usize)) -> Vec<SpecOp> {
    let mut seeds = Gen::new(seed, 1000 + s);
    loop {
        let ops = workload(seeds.next_u64(), size).ops;
        let mut oracle = SeedBackend::new();
        let safe = ops.iter().all(|op| {
            !(apply(&mut oracle, op)
                && matches!(op, SpecOp::SetDescription { .. } | SpecOp::AddKeyword { .. }))
        });
        if safe {
            return ops;
        }
    }
}

fn kind(op: &SpecOp) -> &'static str {
    match op {
        SpecOp::AddElement { .. } => "add_element",
        SpecOp::RefineElement { .. } => "refine_element",
        SpecOp::AddFlow { .. } => "add_flow",
        SpecOp::RefineFlow { .. } => "refine_flow",
        SpecOp::SetDescription { .. } => "set_description",
        SpecOp::AddKeyword { .. } => "add_keyword",
        SpecOp::Contain { .. } => "contain",
        SpecOp::Checkpoint { .. } => "checkpoint",
    }
}

/// The element an op edits (what the tool shows afterwards).
fn edited(op: &SpecOp) -> Option<&str> {
    match op {
        SpecOp::AddElement { name, .. }
        | SpecOp::RefineElement { name, .. }
        | SpecOp::SetDescription { name, .. }
        | SpecOp::AddKeyword { name, .. } => Some(name),
        SpecOp::AddFlow { data, .. } | SpecOp::RefineFlow { data, .. } => Some(data),
        SpecOp::Contain { inner, .. } => Some(inner),
        SpecOp::Checkpoint { .. } => None,
    }
}

/// Applies one op; `true` when the backend rejected it.
fn apply(backend: &mut dyn SpecBackend, op: &SpecOp) -> bool {
    let result = match op {
        SpecOp::AddElement { name, kind } => backend.add_element(name, *kind),
        SpecOp::RefineElement { name, kind } => backend.refine_element(name, *kind),
        SpecOp::AddFlow { data, action, kind } => backend.add_flow(data, action, *kind),
        SpecOp::RefineFlow { data, action, kind } => backend.refine_flow(data, action, *kind),
        SpecOp::SetDescription { name, text } => backend.set_description(name, text),
        SpecOp::AddKeyword { name, keyword } => backend.add_keyword(name, keyword),
        SpecOp::Contain { inner, outer } => backend.contain(inner, outer),
        SpecOp::Checkpoint { comment } => backend.checkpoint(comment).map(|_| ()),
    };
    result.is_err()
}

/// A fresh, empty primary with the tool connected to it.
///
/// The primary is in memory: on a durable primary the first check-ins after a version exists
/// fail in the storage engine ("page 1 full: needed 65 bytes, only 40 free"), so the paper's
/// checkpointing editor cannot run durably yet.  The durable write path is measured by
/// `checkin_cycle`.
struct Session {
    net: SeedNetServer,
    backend: RemoteBackend,
}

impl Session {
    fn start() -> Self {
        let net = fixture::serve(Database::new(seed_schema::figure3_schema()));
        let client = RemoteClient::connect(net.local_addr()).expect("connect tool");
        let backend = RemoteBackend::new(client).expect("tool backend");
        Session { net, backend }
    }

    /// Checks the session against the in-process oracle; returns the number of mismatches.
    fn verify(&self, ops: &[SpecOp], rejected: usize) -> u64 {
        let mut oracle = SeedBackend::new();
        let expected: usize = ops.iter().map(|op| usize::from(apply(&mut oracle, op))).sum();
        let remote = specification_report(&self.backend)
            .replace(self.backend.backend_name(), oracle.backend_name());
        u64::from(expected != rejected) + u64::from(remote != specification_report(&oracle))
    }

    fn close(self) {
        let _ = self.backend.into_client().close();
        self.net.shutdown();
    }
}

fn setup() -> Session {
    let mut warm = Session::start();
    for op in &session_ops(7, 0, WARM_UP) {
        apply(&mut warm.backend, op);
    }
    warm.close();
    Session::start()
}

pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        return traced(cfg);
    }
    let mut out = Outcome::default();
    let (cost, mut session) = util::set_up(setup);
    let mut setups = vec![cost];
    let monitor = Monitor::start(Instant::now(), None);
    let mut views = Gen::new(cfg.seed, 7);
    // Stamped with the session-active time, so one-second slices skip the pauses between
    // sessions (fresh primary, oracle check).
    let (mut op_lat, mut read_lat) = (Timeline::default(), Timeline::default());
    let (mut active, mut cpu) = (Duration::ZERO, 0.0);
    let window = Duration::from_secs(cfg.seconds);
    let mut sessions = 0u64;
    while active < window {
        let ops = session_ops(cfg.seed, sessions, SESSION);
        let (mut done, mut rejected) = (0, 0);
        let cpu0 = util::cpu_time_us();
        let start = Instant::now();
        for op in &ops {
            if active + start.elapsed() >= window {
                break;
            }
            let t = Instant::now();
            rejected += usize::from(apply(&mut session.backend, op));
            op_lat.push(active + start.elapsed(), t.elapsed());
            done += 1;
            if let Some(name) = edited(op).filter(|_| views.below(4) == 0) {
                let t = Instant::now();
                let shown = session.backend.element(name);
                read_lat.push(active + start.elapsed(), t.elapsed());
                out.failed += u64::from(shown.is_err());
            }
        }
        active += start.elapsed();
        cpu += util::cpu_time_us() - cpu0;
        out.attempted += done as u64;
        out.failed += session.verify(&ops[..done], rejected);
        session.close();
        sessions += 1;
        if active < window {
            session = Session::start();
        } else {
            break;
        }
    }
    let (_, peak_rss) = monitor.finish();
    for _ in 1..SETUPS {
        let (cost, session) = util::set_up(setup);
        setups.push(cost);
        session.close();
    }
    let secs = cfg.seconds;
    util::report_setups(&mut out, &setups);
    out.set("peak_rss_mb", peak_rss);
    out.set("ops_per_s", op_lat.rate(secs));
    out.set_opt("op_p50_us", op_lat.percentile(0.50, secs));
    out.set_opt("op_p99_us", op_lat.percentile(0.99, secs));
    out.set_opt("read_p50_us", read_lat.percentile(0.50, secs));
    out.set_opt("read_p99_us", read_lat.percentile(0.99, secs));
    out.set("cpu_us_per_op", cpu / out.attempted.max(1) as f64);
    out.samples.insert("op", op_lat.len());
    out.samples.insert("read", read_lat.len());
    out.note(format!(
        "1 connection, closed loop; {sessions} session(s) of {}+{} elements on fresh primaries, each checked against the in-process oracle; percentiles and rates are medians over one-second slices of session time",
        SESSION.0, SESSION.1
    ));
    out
}

/// The traced run: the same sessions untraced over TCP, traced over TCP (`spades` spans plus
/// per-op obs deltas for the server side), and through the in-process
/// `SeedBackend` (`core`).
fn traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let run0 = obsdelta::snapshot();
    let budget = Duration::from_secs_f64(cfg.seconds as f64 / 4.0);

    // Each session runs untraced until the budget is spent, then the same ops again, traced,
    // on another fresh primary (an obs snapshot between ops gives the server side
    // per op); alternating sessions keeps drift out of the trace overhead.
    let mut plan: Vec<Vec<SpecOp>> = Vec::new();
    let mut tracer = Tracer::new("spades_edit");
    let (mut server_side, mut requests) = (Vec::new(), Vec::new());
    let mut kinds = Vec::new();
    let mut rejected_total = 0usize;
    let t_before = obsdelta::snapshot();
    let (mut u_active, mut t_active) = (Duration::ZERO, Duration::ZERO);
    let mut i = 0;
    while u_active < budget {
        let mut ops = session_ops(cfg.seed, plan.len() as u64, SESSION);
        let mut session = Session::start();
        let start = Instant::now();
        let mut done = 0;
        for op in &ops {
            if u_active + start.elapsed() >= budget {
                break;
            }
            apply(&mut session.backend, op);
            done += 1;
        }
        u_active += start.elapsed();
        session.close();
        ops.truncate(done);

        let mut session = Session::start();
        let mut rejected = 0;
        let mut before = obsdelta::snapshot();
        let start = Instant::now();
        for op in &ops {
            rejected += usize::from(
                tracer.span("spades", kind(op), i, "-", || apply(&mut session.backend, op)),
            );
            let after = obsdelta::snapshot();
            let d = Delta::new(before, after.clone());
            let (count, sum) = d.hist_prefix_totals("net_request_us_");
            requests.push(count);
            server_side.push(sum as f64);
            before = after;
            kinds.push(kind(op));
            i += 1;
        }
        t_active += start.elapsed();
        out.failed += session.verify(&ops, rejected);
        rejected_total += rejected;
        session.close();
        plan.push(ops);
    }
    let d_t = Delta::new(t_before, obsdelta::snapshot());
    let n = i;

    // Phase C: the in-process tool over an in-memory database (the oracle's path).
    let mut i = 0;
    let mut oracle_rejected = 0;
    for ops in &plan {
        let mut backend = SeedBackend::new();
        for op in ops {
            oracle_rejected +=
                usize::from(tracer.span("core", kind(op), i, "server", || apply(&mut backend, op)));
            i += 1;
        }
    }
    out.attempted = 3 * n as u64;
    out.failed += u64::from(oracle_rejected != rejected_total);

    let spades_ops = tracer.per_op(&["spades"]);
    let server_ops: std::collections::BTreeMap<usize, f64> =
        server_side.iter().copied().enumerate().collect();
    let lower_ops = tracer.per_op(&["core"]);
    let (selfs, coverage) =
        trace::self_times(&[&spades_ops, &server_ops, &lower_ops], |i| kinds[i]);
    let p50 = |s: &Samples| s.percentile(0.5).unwrap_or(0.0);
    // Outside the server, per round trip: the tool's time minus server handling, spread over
    // the op's requests (RemoteBackend's individual round trips are not visible from outside).
    let per_request =
        Samples(selfs[0].0.iter().zip(&requests).map(|(s, &r)| s / r.max(1) as f64).collect());
    let requests_per_op = requests.iter().sum::<u64>() as f64 / n.max(1) as f64;
    out.set("net.self_us_p50", p50(&selfs[0]));
    out.set("net.queue_us_p50", p50(&per_request));
    let bytes = d_t.counter("net_bytes_in_total") + d_t.counter("net_bytes_out_total");
    out.set("net.bytes_per_op", bytes as f64 / (2 * n).max(1) as f64);
    out.set("net.coalesce_bytes_p50", d_t.hist("net_write_coalesce_bytes").percentile(0.5));
    out.set("server.checkout_us_p50", d_t.hist("net_request_us_checkout").percentile(0.5));
    out.set("server.checkin_self_us_p50", p50(&selfs[1]));
    out.set("server.lock_wait_us_p99", d_t.hist("lock_wait_us").percentile(0.99));
    out.set("server.rejections", rejected_total as f64);
    let core_of = |k: &str| tracer.durations("core", Some(k));
    let mut apply_spans = Samples::default();
    for s in tracer.spans.iter().filter(|s| s.layer == "core" && s.kind != "checkpoint") {
        apply_spans.0.push(s.dur_us);
    }
    out.set("core.apply_us_p50", p50(&apply_spans));
    let publish = d_t.hist("snapshot_publish_us");
    out.set("core.publish_us_p50", publish.percentile(0.5));
    out.set("core.publish_us_p99", publish.percentile(0.99));
    out.set("core.patch_items_p50", d_t.hist("snapshot_patch_items").percentile(0.5));
    let checkins = d_t.hist("net_request_us_checkin").count as usize;
    out.set(
        "core.straggler_copies_per_1k_checkins",
        d_t.counter("snapshot_straggler_copies_total") as f64 * 1000.0 / checkins.max(1) as f64,
    );
    out.set("core.reclassify_us_p50", p50(&core_of("refine_element")));
    out.set("core.create_version_us_p50", p50(&core_of("checkpoint")));
    out.set("core.consistency_rejections", rejected_total as f64);
    out.set("spades.requests_per_op", requests_per_op);
    for k in ["add_element", "refine_element", "add_flow", "add_keyword", "checkpoint"] {
        let metric = match k {
            "add_element" => "spades.op_us_p50.add_element",
            "refine_element" => "spades.op_us_p50.refine_element",
            "add_flow" => "spades.op_us_p50.add_flow",
            "add_keyword" => "spades.op_us_p50.add_keyword",
            _ => "spades.op_us_p50.checkpoint",
        };
        out.set(metric, p50(&tracer.durations("spades", Some(k))));
    }
    out.set("bench.trace_overhead_x", t_active.as_secs_f64() / u_active.as_secs_f64());
    out.set("bench.trace_coverage", coverage);
    finish_trace(&mut out, &tracer, cfg, run0);
    out.note(format!(
        "replayed {n} tool ops in {} session(s) per layer; server side per op from obs deltas; in-memory primaries, so storage stays 0",
        plan.len()
    ));
    out
}
