//! The event-loop TCP frontend: a readiness-polled reactor over nonblocking sockets, feeding a
//! sharded worker pool, over a shared [`SeedServer`].
//!
//! One reactor thread owns every socket.  It accepts connections, decodes as many complete
//! frames as each wakeup delivers ([`FrameDecoder`]), and hands the decoded requests to worker
//! shards over channels; a connection's requests always go to the **same** shard, so they
//! execute serially in arrival order (checkout → check-in ordering is preserved) while
//! different connections proceed in parallel.  Responses come back tagged with a per-connection
//! sequence number and are emitted strictly in request order — a peer may therefore *pipeline*:
//! write many request frames before reading a single response, and read the responses back in
//! the order it sent the requests.  The wire format is unchanged (still protocol v3);
//! pipelining is purely a scheduling property of this server.
//!
//! Two backpressure rules bound memory per connection: a connection with
//! [`NetServerConfig::max_in_flight`] requests admitted-but-unanswered is not read from until
//! responses drain, and a connection whose peer stops draining its socket (output backlog past
//! a high-water mark) is likewise paused.  All responses ready for a connection are coalesced
//! into one `write` syscall per wakeup.
//!
//! Each connection is handshaken onto its own [`ClientId`]; the reactor enforces that identity
//! on every lock-table request (a peer cannot act for another connection's client), and when
//! the connection closes — cleanly or not — the client's write locks and checkout bookkeeping
//! are released, the paper's crash-recovery rule for checked-out data.  The idle reaper runs as
//! a reactor tick.  Replication sessions (Subscribe / LogBatch / Ack) ride the same event loop:
//! the reactor owns the framing and the one-batch-in-flight flow control, the worker shards cut
//! each shipment under one database read lock (`replication::cut_shipment`).

use std::collections::{BTreeMap, HashMap};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use polling::{Event, Poller};
use seed_server::{ClientId, Request, Response, SeedServer, ServerError};

use crate::codec::{decode_request, encode_response};
use crate::error::WireError;
use crate::replication::{cut_shipment, ShipmentPlan};
use crate::wire::{
    negotiate, write_frame, Ack, Frame, FrameDecoder, FrameKind, HandshakeRole, Hello, Subscribe,
    Welcome,
};

/// Tuning knobs of the TCP frontend.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Reclaim the locks of clients idle longer than this (`None` disables the reaper; the
    /// disconnect path still releases locks when a connection closes).
    pub idle_timeout: Option<Duration>,
    /// How often the reaper checks for idle clients.
    pub reaper_interval: Duration,
    /// Free-form server identification sent in the handshake.
    pub banner: String,
    /// Number of worker shards executing requests.  A connection is pinned to one shard
    /// (its requests run serially, in order); throughput scales across connections.
    pub worker_shards: usize,
    /// Most requests a single connection may have admitted-but-unanswered.  A pipelining peer
    /// past this window is not read from until responses drain (bounded memory per connection).
    pub max_in_flight: usize,
    /// How long shutdown waits for in-flight pipelined requests to finish and their responses
    /// to flush before closing the remaining connections anyway.
    pub shutdown_drain: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            idle_timeout: None,
            reaper_interval: Duration::from_millis(200),
            banner: format!("seed-net/{}", env!("CARGO_PKG_VERSION")),
            worker_shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 8),
            max_in_flight: 128,
            shutdown_drain: Duration::from_secs(5),
        }
    }
}

/// The poller key reserved for the listening socket.  Connection tokens start at 1.
const LISTENER: usize = 0;

/// How long a fresh connection may take to complete the handshake.  Without a deadline, a peer
/// that connects and never sends its hello would hold a registration for the server's whole
/// lifetime — and the idle reaper cannot reclaim it, because no client id exists yet.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How often a replication session polls the WAL for news to ship.
const REPLICATION_POLL: Duration = Duration::from_millis(10);

/// Longest a replication session stays silent: an empty heartbeat batch ships after this, so
/// replicas can track the primary's end of log (and their lag) through idle periods.
const REPLICATION_HEARTBEAT: Duration = Duration::from_secs(1);

/// Stop reading a connection whose un-flushed output backlog passes this (the peer is not
/// draining its socket; buffering more responses for it would be unbounded memory).
const OUT_HIGH_WATER: usize = 1024 * 1024;

/// Read syscall granularity.
const READ_CHUNK: usize = 16 * 1024;

/// The frontend's metric handles, registered once on first use.  Request latency is recorded
/// per request kind (`net_request_us_<kind>`); everything else is whole-server.
struct NetMetrics {
    connections: seed_obs::Gauge,
    connections_total: seed_obs::Counter,
    bytes_in: seed_obs::Counter,
    bytes_out: seed_obs::Counter,
    in_flight: seed_obs::Gauge,
    backpressure_pauses: seed_obs::Counter,
    write_coalesce_bytes: seed_obs::Histogram,
    reaper_reclaims: seed_obs::Counter,
    io_errors: seed_obs::Counter,
    batches_shipped: seed_obs::Counter,
    request_us: HashMap<&'static str, seed_obs::Histogram>,
}

fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = seed_obs::global();
        NetMetrics {
            connections: r.gauge("net_connections"),
            connections_total: r.counter("net_connections_total"),
            bytes_in: r.counter("net_bytes_in_total"),
            bytes_out: r.counter("net_bytes_out_total"),
            in_flight: r.gauge("net_in_flight"),
            backpressure_pauses: r.counter("net_backpressure_pauses_total"),
            write_coalesce_bytes: r.histogram("net_write_coalesce_bytes"),
            reaper_reclaims: r.counter("net_reaper_reclaims_total"),
            io_errors: r.counter("net_io_errors_total"),
            batches_shipped: r.counter("repl_batches_shipped_total"),
            request_us: Request::KIND_NAMES
                .iter()
                .map(|kind| (*kind, r.histogram(&format!("net_request_us_{kind}"))))
                .collect(),
        }
    })
}

/// Routes a connection I/O failure into the structured log (and `net_io_errors_total`) with
/// the peer address and, once handshaken, the session's client id — previously these errors
/// were dropped on the floor and a dead peer looked identical to a clean close.
fn log_io_error(conn: &Conn, what: &str, detail: String) {
    net_metrics().io_errors.inc();
    let mut fields: Vec<(&str, String)> = vec![("peer", conn.peer.to_string()), ("error", detail)];
    if let Some(client) = conn.client_id() {
        fields.push(("client", client.to_string()));
    }
    seed_obs::global().events().emit(seed_obs::Level::Warn, "net", what, &fields);
}

/// A running TCP server around a shared [`SeedServer`].
pub struct SeedNetServer {
    core: Arc<SeedServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    reactor_thread: Option<JoinHandle<()>>,
}

impl SeedNetServer {
    /// Binds with default configuration.  Use `"127.0.0.1:0"` to let the OS pick a port (see
    /// [`SeedNetServer::local_addr`]).
    pub fn bind(server: SeedServer, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::with_config(server, addr, NetServerConfig::default())
    }

    /// Binds a listener and starts the reactor and its worker shards.
    pub fn with_config(
        server: SeedServer,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let core = Arc::new(server);
        let stop = Arc::new(AtomicBool::new(false));
        let poller = Arc::new(Poller::new()?);
        poller.add(&listener, Event::readable(LISTENER))?;

        let shard_count = config.worker_shards.max(1);
        let (done_tx, done_rx) = unbounded::<Done>();
        let mut shards = Vec::with_capacity(shard_count);
        let mut workers = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let (job_tx, job_rx) = unbounded::<Job>();
            shards.push(job_tx);
            let core = core.clone();
            let done = done_tx.clone();
            let poller = poller.clone();
            let handle = std::thread::Builder::new()
                .name(format!("seed-net-worker-{i}"))
                .spawn(move || worker_loop(&core, job_rx, done, &poller))?;
            workers.push(handle);
        }
        drop(done_tx);

        let reactor = Reactor {
            core: core.clone(),
            config,
            poller: poller.clone(),
            listener,
            stop: stop.clone(),
            conns: HashMap::new(),
            next_token: LISTENER + 1,
            shards,
            done_rx,
            workers,
            last_reap: Instant::now(),
            draining_since: None,
        };
        let reactor_thread = std::thread::Builder::new()
            .name("seed-net-reactor".into())
            .spawn(move || reactor.run())?;

        Ok(Self { core, addr, stop, poller, reactor_thread: Some(reactor_thread) })
    }

    /// The address the server listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared central server (for in-process inspection next to remote clients).
    pub fn core(&self) -> Arc<SeedServer> {
        self.core.clone()
    }

    /// The process-wide metrics registry rendered in Prometheus text exposition format —
    /// the scrape surface for anything that speaks Prometheus rather than SEWP.
    pub fn metrics_text(&self) -> String {
        seed_obs::global().snapshot().to_prometheus_text()
    }

    /// Stops accepting, drains in-flight pipelined requests (bounded by
    /// [`NetServerConfig::shutdown_drain`]) and waits for the reactor and every worker shard.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.poller.notify();
        if let Some(handle) = self.reactor_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SeedNetServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// One unit of work for a worker shard.
enum Job {
    /// Answer one client request frame.  `frame` is the request payload, or the ordered
    /// protocol-error text when the reactor already rejected the frame (wrong kind, recoverable
    /// framing error) — the error response must still be emitted *in sequence*.
    Client { token: usize, seq: u64, client: ClientId, frame: Result<Vec<u8>, String> },
    /// Cut one replication shipment for the session at cursor `next`.
    Pump { token: usize, next: u64, answer_now: bool, heartbeat_due: bool },
}

/// A worker shard's completion, routed back to the reactor.
enum Done {
    /// The encoded response frame for (`token`, `seq`); `close` ends the connection after it.
    Client { token: usize, seq: u64, bytes: Vec<u8>, close: bool },
    /// The outcome of a replication pump tick.
    Pump { token: usize, outcome: PumpOutcome },
}

enum PumpOutcome {
    /// Nothing to ship and no answer due.
    Idle,
    /// An encoded log-batch frame to ship (then await the replica's ack).
    Batch(Vec<u8>),
    /// An encoded reject frame; close the session after it flushes.
    Reject(Vec<u8>),
    /// Storage failure; close the session.
    End,
}

fn worker_loop(core: &SeedServer, jobs: Receiver<Job>, done: Sender<Done>, poller: &Poller) {
    while let Ok(job) = jobs.recv() {
        let completion = match job {
            Job::Client { token, seq, client, frame } => {
                let (response, close) = answer(core, client, frame);
                let payload = encode_response(&response);
                let mut bytes = Vec::with_capacity(payload.len() + 16);
                write_frame(&mut bytes, FrameKind::Response, &payload)
                    .expect("writing a frame into a Vec cannot fail");
                Done::Client { token, seq, bytes, close }
            }
            Job::Pump { token, next, answer_now, heartbeat_due } => {
                let outcome = match cut_shipment(core, next, answer_now, heartbeat_due) {
                    ShipmentPlan::Idle => PumpOutcome::Idle,
                    ShipmentPlan::End => PumpOutcome::End,
                    ShipmentPlan::Reject(reason) => {
                        let mut bytes = Vec::new();
                        write_frame(&mut bytes, FrameKind::Reject, reason.as_bytes())
                            .expect("writing a frame into a Vec cannot fail");
                        PumpOutcome::Reject(bytes)
                    }
                    ShipmentPlan::Batch(batch) => {
                        let payload = batch.encode();
                        let mut bytes = Vec::with_capacity(payload.len() + 16);
                        write_frame(&mut bytes, FrameKind::LogBatch, &payload)
                            .expect("writing a frame into a Vec cannot fail");
                        PumpOutcome::Batch(bytes)
                    }
                };
                Done::Pump { token, outcome }
            }
        };
        if done.send(completion).is_err() {
            break;
        }
        // Wake the reactor so the completion is emitted promptly.
        let _ = poller.notify();
    }
}

/// Answers one client frame: the request-validation pipeline of the old per-connection session
/// loop, unchanged — identity enforcement, the Connect rejection, activity touch, dispatch.
fn answer(core: &SeedServer, client: ClientId, frame: Result<Vec<u8>, String>) -> (Response, bool) {
    let payload = match frame {
        Ok(payload) => payload,
        Err(msg) => return (Response::Error(ServerError::Protocol(msg)), false),
    };
    let request = match decode_request(&payload) {
        Ok(request) => request,
        Err(e) => return (Response::Error(ServerError::from(e)), false),
    };
    // Per-connection identity: lock-table requests may only act for the client id bound to
    // this connection at handshake.
    if let Some(claimed) = request.client_id() {
        if claimed != client {
            return (
                Response::Error(ServerError::Protocol(format!(
                    "request claims client {claimed}, but this connection is client {client}"
                ))),
                false,
            );
        }
    }
    // Identity is assigned at handshake, one per connection; serving Connect here would mint
    // session entries nothing ever cleans up.
    if matches!(request, Request::Connect) {
        return (
            Response::Error(ServerError::Protocol(
                "client identity is assigned at handshake; open a new connection instead"
                    .to_string(),
            )),
            false,
        );
    }
    core.touch(client);
    let closing = matches!(request, Request::Shutdown);
    let kind = request.kind_name();
    let start = Instant::now();
    let response = core.handle(request);
    if let Some(latency) = net_metrics().request_us.get(kind) {
        latency.observe_duration(start.elapsed());
    }
    (response, closing)
}

/// Where a connection is in its lifecycle.
enum ConnState {
    /// Awaiting the hello frame (deadlined — no client id exists for the reaper to govern).
    Handshake { deadline: Instant },
    /// A handshaken request/response session.
    Client(ClientSession),
    /// A handshaken replica awaiting its subscribe frame.
    ReplicaPending { client: ClientId },
    /// A subscribed replication session.
    Replica(ReplicaSession),
}

struct ClientSession {
    client: ClientId,
    /// Sequence number assigned to the next admitted request.
    next_seq: u64,
    /// Sequence number of the next response to emit (responses go out in request order).
    next_emit: u64,
    /// Completed responses waiting for their turn, keyed by sequence number.
    ready: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests admitted but not yet completed by a worker.
    in_flight: usize,
    /// A close-flagged response (`Request::Shutdown`) was emitted; later responses are dropped,
    /// exactly as the old per-connection loop never read past a shutdown.
    halted: bool,
}

struct ReplicaSession {
    client: ClientId,
    /// First LSN the replica still needs (`acked + 1`; acks may move it down on a resync).
    next: u64,
    /// The subscribe deserves a position-sync batch even when there is nothing to ship.
    answer_now: bool,
    /// Pump at the next tick without waiting out [`REPLICATION_POLL`] (set by the subscribe and
    /// by every ack — new records ship promptly, but a caught-up cursor goes idle instead of
    /// ping-ponging heartbeats against instant acks).
    pump_now: bool,
    /// One batch in flight: true from batch emission until the replica's ack.
    awaiting_ack: bool,
    /// A pump job is on a worker shard; don't schedule another.
    pump_busy: bool,
    last_sent: Instant,
    last_pump: Instant,
}

struct Conn {
    stream: TcpStream,
    /// Peer address, captured at accept for the I/O-error log.
    peer: SocketAddr,
    decoder: FrameDecoder,
    /// Coalesced output: every frame ready for this connection, flushed in one write per
    /// wakeup.  `out_pos` marks the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// No more frames are read or admitted; the connection closes once in-flight work drains
    /// and the output flushes (or the write side dies).
    closing: bool,
    /// The write side failed; pending output is discarded and the close is immediate.
    write_dead: bool,
    /// Something happened this wakeup (event, completion, admission): sweep this connection.
    touched: bool,
    /// Last pause verdict seen at re-arm time, so `net_backpressure_pauses_total` counts
    /// pause *onsets* instead of every wakeup spent paused.
    paused: bool,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn client_id(&self) -> Option<ClientId> {
        match &self.state {
            ConnState::Handshake { .. } => None,
            ConnState::Client(s) => Some(s.client),
            ConnState::ReplicaPending { client } => Some(*client),
            ConnState::Replica(s) => Some(s.client),
        }
    }
}

fn append_frame(out: &mut Vec<u8>, kind: FrameKind, payload: &[u8]) {
    write_frame(out, kind, payload).expect("writing a frame into a Vec cannot fail");
}

fn reject(conn: &mut Conn, reason: &[u8]) {
    append_frame(&mut conn.out, FrameKind::Reject, reason);
    conn.closing = true;
}

/// Emits every consecutively-ready response into the connection's output buffer.  Runs during
/// shutdown drain too: `closing` stops *reads*, never the emission of answers already earned.
fn emit_ready(conn: &mut Conn) {
    let ConnState::Client(session) = &mut conn.state else { return };
    while !session.halted {
        let Some((bytes, close)) = session.ready.remove(&session.next_emit) else { break };
        session.next_emit += 1;
        conn.out.extend_from_slice(&bytes);
        if close {
            session.halted = true;
            conn.closing = true;
        }
    }
    if session.halted {
        session.ready.clear();
    }
}

/// Write coalescing: one `write` syscall covers everything emitted this wakeup (looping only
/// on partial writes).
fn flush_out(conn: &mut Conn) {
    if conn.out_pos < conn.out.len() {
        net_metrics().write_coalesce_bytes.observe(conn.backlog() as u64);
    }
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                log_io_error(conn, "write returned zero bytes", "peer stopped accepting".into());
                conn.write_dead = true;
                break;
            }
            Ok(n) => {
                conn.out_pos += n;
                net_metrics().bytes_out.add(n as u64);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                log_io_error(conn, "write error", e.to_string());
                conn.write_dead = true;
                break;
            }
        }
    }
    if conn.write_dead || conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos >= 64 * 1024 {
        // Reclaim the flushed prefix before it grows unbounded under a slow peer.
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    if conn.write_dead {
        conn.closing = true;
    }
}

struct Reactor {
    core: Arc<SeedServer>,
    config: NetServerConfig,
    poller: Arc<Poller>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    shards: Vec<Sender<Job>>,
    done_rx: Receiver<Done>,
    workers: Vec<JoinHandle<()>>,
    last_reap: Instant,
    draining_since: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) && self.draining_since.is_none() {
                self.begin_drain();
            }
            if let Some(since) = self.draining_since {
                if self.conns.is_empty() || since.elapsed() >= self.config.shutdown_drain {
                    break;
                }
            }
            events.clear();
            let _ = self.poller.wait(&mut events, self.poll_timeout());
            // Completions first: a freed in-flight window lets paused connections resume in
            // the same sweep.
            while let Ok(done) = self.done_rx.try_recv() {
                self.on_done(done);
            }
            for event in events.drain(..) {
                if event.key == LISTENER {
                    self.accept_burst();
                } else if event.key != usize::MAX {
                    self.on_io(event.key, event.readable);
                }
            }
            self.tick();
            self.sweep();
        }
        self.finish();
    }

    /// Stop accepting and flag every connection for a drained close: reads stop immediately,
    /// in-flight responses still complete and flush (bounded by `shutdown_drain`).
    fn begin_drain(&mut self) {
        self.draining_since = Some(Instant::now());
        let _ = self.poller.delete(&self.listener);
        for conn in self.conns.values_mut() {
            conn.closing = true;
            conn.touched = true;
        }
    }

    fn poll_timeout(&self) -> Option<Duration> {
        if self.draining_since.is_some() {
            return Some(Duration::from_millis(5));
        }
        let mut timeout: Option<Duration> = None;
        let mut consider = |d: Duration| {
            let d = d.max(Duration::from_millis(1));
            timeout = Some(match timeout {
                Some(t) if t < d => t,
                _ => d,
            });
        };
        if self.config.idle_timeout.is_some() {
            consider(self.config.reaper_interval.saturating_sub(self.last_reap.elapsed()));
        }
        let now = Instant::now();
        for conn in self.conns.values() {
            match &conn.state {
                ConnState::Handshake { deadline } => {
                    consider(deadline.saturating_duration_since(now));
                }
                ConnState::Replica(s) if !s.awaiting_ack && !s.pump_busy && !conn.closing => {
                    consider(REPLICATION_POLL);
                }
                _ => {}
            }
        }
        timeout
    }

    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.draining_since.is_some() {
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.add(&stream, Event::readable(token)).is_err() {
                        continue;
                    }
                    net_metrics().connections.inc();
                    net_metrics().connections_total.inc();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            peer,
                            decoder: FrameDecoder::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            state: ConnState::Handshake {
                                deadline: Instant::now() + HANDSHAKE_TIMEOUT,
                            },
                            closing: false,
                            write_dead: false,
                            touched: true,
                            paused: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Oneshot delivery: re-arm the listener.
        let _ = self.poller.modify(&self.listener, Event::readable(LISTENER));
    }

    fn on_io(&mut self, token: usize, readable: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.touched = true;
        if readable && !conn.closing {
            self.pump_read(token);
        }
    }

    /// Reads until the socket runs dry, the connection pauses (backpressure) or closes,
    /// dispatching every complete frame as it is decoded.
    fn pump_read(&mut self, token: usize) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            self.dispatch_frames(token);
            let Some(conn) = self.conns.get(&token) else { return };
            if conn.closing {
                return;
            }
            if self.read_paused(token) {
                return;
            }
            let conn = self.conns.get_mut(&token).expect("checked above");
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: the peer is gone.  Frames still buffered but undispatched are
                    // dropped — same as the old server, which never read past a disconnect.
                    conn.closing = true;
                    return;
                }
                Ok(n) => {
                    conn.decoder.extend(&buf[..n]);
                    net_metrics().bytes_in.add(n as u64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    log_io_error(conn, "read error", e.to_string());
                    conn.closing = true;
                    conn.write_dead = true;
                    return;
                }
            }
        }
    }

    /// Decodes and routes every complete buffered frame, honoring backpressure between frames.
    fn dispatch_frames(&mut self, token: usize) {
        loop {
            {
                let Some(conn) = self.conns.get(&token) else { return };
                if conn.closing {
                    return;
                }
            }
            if self.read_paused(token) {
                return;
            }
            let step = self.conns.get_mut(&token).expect("checked above").decoder.next_frame();
            match step {
                Ok(Some(frame)) => self.route_frame(token, frame),
                Ok(None) => return,
                Err(WireError::Recoverable(msg)) => {
                    // The frame boundary held.  A client session answers in sequence and
                    // lives on; any other state treats it as a handshake/stream failure.
                    let conn = self.conns.get_mut(&token).expect("checked above");
                    if matches!(conn.state, ConnState::Client(_)) {
                        self.admit(token, Err(msg));
                    } else {
                        conn.closing = true;
                        return;
                    }
                }
                Err(_) => {
                    // Desync (bad magic, unknown kind, oversize): the stream is unusable.
                    self.conns.get_mut(&token).expect("checked above").closing = true;
                    return;
                }
            }
        }
    }

    fn route_frame(&mut self, token: usize, frame: Frame) {
        enum Route {
            Hello,
            Client,
            Subscribe(ClientId),
            Replica,
        }
        let route = match &self.conns.get(&token).expect("routed for a live conn").state {
            ConnState::Handshake { .. } => Route::Hello,
            ConnState::Client(_) => Route::Client,
            ConnState::ReplicaPending { client } => Route::Subscribe(*client),
            ConnState::Replica(_) => Route::Replica,
        };
        match route {
            Route::Hello => self.on_hello(token, frame),
            Route::Client => {
                if frame.kind == FrameKind::Request {
                    self.admit(token, Ok(frame.payload));
                } else {
                    self.admit(
                        token,
                        Err(format!("expected a request frame, got {:?}", frame.kind)),
                    );
                }
            }
            Route::Subscribe(client) => self.on_subscribe(token, client, frame),
            Route::Replica => self.on_replica_frame(token, frame),
        }
    }

    /// Hello in, Welcome (or Reject) out — the old `handshake()`, minus the blocking reads.
    fn on_hello(&mut self, token: usize, frame: Frame) {
        let conn = self.conns.get_mut(&token).expect("routed for a live conn");
        if frame.kind != FrameKind::Hello {
            reject(conn, b"handshake must start with a hello frame");
            return;
        }
        let hello = match Hello::decode(&frame.payload) {
            Ok(hello) => hello,
            Err(e) => {
                reject(conn, e.to_string().as_bytes());
                return;
            }
        };
        let version = match negotiate(&hello) {
            Ok(version) => version,
            Err(reason) => {
                reject(conn, reason.as_bytes());
                return;
            }
        };
        let client = self.core.connect();
        let welcome = Welcome { version, client_id: client, banner: self.config.banner.clone() };
        append_frame(&mut conn.out, FrameKind::Welcome, &welcome.encode());
        conn.state = match hello.role {
            HandshakeRole::Replica => ConnState::ReplicaPending { client },
            HandshakeRole::Client => ConnState::Client(ClientSession {
                client,
                next_seq: 0,
                next_emit: 0,
                ready: BTreeMap::new(),
                in_flight: 0,
                halted: false,
            }),
        };
    }

    fn on_subscribe(&mut self, token: usize, client: ClientId, frame: Frame) {
        if frame.kind != FrameKind::Subscribe {
            let conn = self.conns.get_mut(&token).expect("routed for a live conn");
            reject(conn, b"a replica session must open with a subscribe frame");
            return;
        }
        let subscribe = match Subscribe::decode(&frame.payload) {
            Ok(subscribe) => subscribe,
            Err(e) => {
                let conn = self.conns.get_mut(&token).expect("routed for a live conn");
                reject(conn, e.to_string().as_bytes());
                return;
            }
        };
        let next = subscribe.from_lsn.max(1);
        // The subscribe IS the first ack: pin WAL retention to the cursor before the first
        // batch ships, so a checkpoint racing the subscribe cannot truncate the tail out from
        // under it.
        self.core.note_replica_ack(client, next - 1);
        let now = Instant::now();
        let conn = self.conns.get_mut(&token).expect("routed for a live conn");
        conn.state = ConnState::Replica(ReplicaSession {
            client,
            next,
            answer_now: true, // the subscribe deserves a prompt position sync
            pump_now: true,
            awaiting_ack: false,
            pump_busy: false,
            last_sent: now,
            last_pump: now,
        });
    }

    fn on_replica_frame(&mut self, token: usize, frame: Frame) {
        let (client, applied) = {
            let conn = self.conns.get_mut(&token).expect("routed for a live conn");
            let ConnState::Replica(session) = &mut conn.state else { return };
            // Flow control is one batch in flight; anything but the awaited ack (EOF, desync,
            // wrong kind) ends the stream, as in the old session loop.
            if frame.kind != FrameKind::Ack || !session.awaiting_ack {
                conn.closing = true;
                return;
            }
            match Ack::decode(&frame.payload) {
                Ok(ack) => (session.client, ack.applied_lsn),
                Err(_) => {
                    conn.closing = true;
                    return;
                }
            }
        };
        self.core.touch(client);
        self.core.note_replica_ack(client, applied);
        let conn = self.conns.get_mut(&token).expect("routed for a live conn");
        let ConnState::Replica(session) = &mut conn.state else { return };
        // The ack IS the cursor — including backwards: a reset snapshot rebinds a replica
        // whose cursor came from a longer (different or restored) log to this log's positions,
        // and `next` must follow it down or the session would re-ship the snapshot forever.
        session.next = applied + 1;
        session.awaiting_ack = false;
        session.pump_now = true; // re-check the log promptly; idle if nothing new shipped
    }

    /// Admits one request (or its ordered rejection) into the connection's pipeline and hands
    /// it to the connection's shard.  Same shard every time: a connection's requests execute
    /// serially in arrival order.
    fn admit(&mut self, token: usize, frame: Result<Vec<u8>, String>) {
        let shard = token % self.shards.len();
        let conn = self.conns.get_mut(&token).expect("admitting for a live conn");
        let ConnState::Client(session) = &mut conn.state else { return };
        let seq = session.next_seq;
        session.next_seq += 1;
        session.in_flight += 1;
        net_metrics().in_flight.inc();
        conn.touched = true;
        let job = Job::Client { token, seq, client: session.client, frame };
        let _ = self.shards[shard].send(job);
    }

    fn on_done(&mut self, done: Done) {
        match done {
            Done::Client { token, seq, bytes, close } => {
                net_metrics().in_flight.dec();
                let Some(conn) = self.conns.get_mut(&token) else { return };
                conn.touched = true;
                let ConnState::Client(session) = &mut conn.state else { return };
                session.in_flight -= 1;
                session.ready.insert(seq, (bytes, close));
            }
            Done::Pump { token, outcome } => {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                conn.touched = true;
                let ConnState::Replica(session) = &mut conn.state else { return };
                session.pump_busy = false;
                match outcome {
                    PumpOutcome::Idle => {}
                    PumpOutcome::Batch(bytes) => {
                        if !conn.closing {
                            conn.out.extend_from_slice(&bytes);
                            session.awaiting_ack = true;
                            session.last_sent = Instant::now();
                            net_metrics().batches_shipped.inc();
                        }
                    }
                    PumpOutcome::Reject(bytes) => {
                        conn.out.extend_from_slice(&bytes);
                        conn.closing = true;
                    }
                    PumpOutcome::End => conn.closing = true,
                }
            }
        }
    }

    fn read_paused(&self, token: usize) -> bool {
        let Some(conn) = self.conns.get(&token) else { return true };
        if conn.backlog() > OUT_HIGH_WATER {
            return true;
        }
        match &conn.state {
            ConnState::Client(s) => s.in_flight + s.ready.len() >= self.config.max_in_flight,
            _ => false,
        }
    }

    /// Timer work: the idle reaper, handshake deadlines, replication pump scheduling.
    fn tick(&mut self) {
        let now = Instant::now();
        if let Some(timeout) = self.config.idle_timeout {
            if now.duration_since(self.last_reap) >= self.config.reaper_interval {
                self.last_reap = now;
                let reclaimed = self.core.reclaim_idle(timeout);
                if !reclaimed.is_empty() {
                    net_metrics().reaper_reclaims.add(reclaimed.len() as u64);
                    seed_obs::global().events().emit(
                        seed_obs::Level::Warn,
                        "net",
                        "idle reaper reclaimed client locks",
                        &[("clients", format!("{reclaimed:?}"))],
                    );
                }
            }
        }
        let mut pumps = Vec::new();
        for (token, conn) in self.conns.iter_mut() {
            match &mut conn.state {
                ConnState::Handshake { deadline } if now >= *deadline => {
                    log_io_error(conn, "handshake timed out", "no hello within deadline".into());
                    conn.closing = true;
                    conn.touched = true;
                }
                ConnState::Replica(session) => {
                    if conn.closing || session.pump_busy || session.awaiting_ack {
                        continue;
                    }
                    let due = session.pump_now
                        || now.duration_since(session.last_pump) >= REPLICATION_POLL;
                    if due {
                        session.pump_busy = true;
                        session.last_pump = now;
                        let answer_now = session.answer_now;
                        session.answer_now = false;
                        session.pump_now = false;
                        let heartbeat_due =
                            now.duration_since(session.last_sent) >= REPLICATION_HEARTBEAT;
                        pumps.push((
                            *token,
                            Job::Pump {
                                token: *token,
                                next: session.next,
                                answer_now,
                                heartbeat_due,
                            },
                        ));
                    }
                }
                _ => {}
            }
        }
        for (token, job) in pumps {
            let shard = token % self.shards.len();
            let _ = self.shards[shard].send(job);
        }
    }

    /// Per-wakeup housekeeping for every touched connection: emit ready responses, flush
    /// coalesced output, resume paused reads, finalize drained closes, re-arm interest.
    fn sweep(&mut self) {
        let touched: Vec<usize> =
            self.conns.iter().filter(|(_, c)| c.touched).map(|(t, _)| *t).collect();
        for token in touched {
            {
                let Some(conn) = self.conns.get_mut(&token) else { continue };
                conn.touched = false;
                emit_ready(conn);
                flush_out(conn);
            }
            // A completion may have freed the in-flight window: dispatch frames that were
            // buffered under backpressure (the poller is level-triggered underneath, so
            // re-arming read interest below re-delivers anything still in the kernel buffer).
            if !self.conns[&token].closing && !self.read_paused(token) {
                self.dispatch_frames(token);
                if let Some(conn) = self.conns.get_mut(&token) {
                    emit_ready(conn);
                    flush_out(conn);
                }
            }
            if self.maybe_finalize(token) {
                continue;
            }
            self.rearm(token);
        }
    }

    fn rearm(&mut self, token: usize) {
        let paused = self.read_paused(token);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if paused && !conn.paused && !conn.closing {
            net_metrics().backpressure_pauses.inc();
        }
        conn.paused = paused;
        let readable = !conn.closing && !paused;
        let writable = !conn.write_dead && conn.out_pos < conn.out.len();
        let _ = self.poller.modify(&conn.stream, Event { key: token, readable, writable });
    }

    /// Closes a `closing` connection once its in-flight work has drained and its output has
    /// flushed (or its write side died).  Never closes under a live worker job: releasing the
    /// client's locks mid-request would yank state out from under the handler.
    fn maybe_finalize(&mut self, token: usize) -> bool {
        let Some(conn) = self.conns.get(&token) else { return true };
        if !conn.closing {
            return false;
        }
        let busy = match &conn.state {
            ConnState::Client(s) => s.in_flight > 0 || (!s.halted && !s.ready.is_empty()),
            ConnState::Replica(s) => s.pump_busy,
            _ => false,
        };
        if busy {
            return false;
        }
        if !conn.write_dead && conn.out_pos < conn.out.len() {
            return false;
        }
        self.close_conn(token);
        true
    }

    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else { return };
        net_metrics().connections.dec();
        let _ = self.poller.delete(&conn.stream);
        match conn.state {
            ConnState::Handshake { .. } => {}
            // The crash-recovery rule: whatever this client still had checked out comes back.
            ConnState::Client(s) => {
                self.core.disconnect(s.client);
            }
            // Retire (not forget): the session's last ack keeps pinning WAL retention so the
            // replica can catch up from the retained log when it reconnects.
            ConnState::ReplicaPending { client } => {
                self.core.retire_replica(client);
                self.core.disconnect(client);
            }
            ConnState::Replica(s) => {
                self.core.retire_replica(s.client);
                self.core.disconnect(s.client);
            }
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    /// Shutdown epilogue: flush what completed, retire the workers, then disconnect every
    /// surviving client in one sweep.  Workers are joined *before* the disconnects so no lock
    /// is ever released under a still-running request.
    fn finish(mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.on_done(done);
        }
        for conn in self.conns.values_mut() {
            emit_ready(conn);
            flush_out(conn);
        }
        let shards = std::mem::take(&mut self.shards);
        drop(shards); // workers drain their queues and exit
        let workers = std::mem::take(&mut self.workers);
        for worker in workers {
            let _ = worker.join();
        }
        while let Ok(done) = self.done_rx.try_recv() {
            self.on_done(done);
        }
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        let mut clients = Vec::new();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                emit_ready(conn);
                flush_out(conn);
            }
            let Some(conn) = self.conns.remove(&token) else { continue };
            net_metrics().connections.dec();
            let _ = self.poller.delete(&conn.stream);
            match conn.state {
                ConnState::Handshake { .. } => {}
                ConnState::Client(s) => clients.push(s.client),
                ConnState::ReplicaPending { client } => {
                    self.core.retire_replica(client);
                    clients.push(client);
                }
                ConnState::Replica(s) => {
                    self.core.retire_replica(s.client);
                    clients.push(s.client);
                }
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.core.disconnect_many(&clients);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RemoteClient;
    use crate::wire::{read_frame, Hello, PROTOCOL_VERSION};
    use seed_core::{Database, Value};
    use seed_schema::figure3_schema;
    use seed_server::Update;
    use std::io::{BufReader, BufWriter};

    fn start_server() -> SeedNetServer {
        let mut db = Database::new(figure3_schema());
        let alarms = db.create_object("Data", "Alarms").unwrap();
        let sensor = db.create_object("Action", "Sensor").unwrap();
        db.create_relationship("Access", &[("from", alarms), ("by", sensor)]).unwrap();
        let handler = db.create_object("Action", "AlarmHandler").unwrap();
        db.create_dependent(handler, "Description", Value::string("Handles alarms")).unwrap();
        SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn handshake_and_full_request_surface_over_loopback() {
        let server = start_server();
        let mut client = RemoteClient::connect(server.local_addr()).unwrap();
        assert!(client.id() > 0);
        assert!(client.server_banner().starts_with("seed-net/"));

        // Reads.
        assert_eq!(client.retrieve("Alarms").unwrap().name.to_string(), "Alarms");
        assert!(matches!(client.retrieve("Ghost"), Err(ServerError::Unknown(_))));
        let answer = client.query(r#"find Data where name prefix "Alarm""#).unwrap();
        assert_eq!(answer.names, vec!["Alarms"]);
        assert!(client.explain("count Data").unwrap().contains("count"));
        assert!(matches!(client.query("bogus"), Err(ServerError::Query(_))));
        let schema = client.schema().unwrap();
        assert_eq!(schema.name, "Figure3");
        assert!(schema.class_id("Data").is_some());
        assert_eq!(client.children("AlarmHandler").unwrap().len(), 1);
        assert_eq!(client.objects_of_class("Action", true).unwrap().len(), 2);
        assert_eq!(client.relationship_count("Access", true).unwrap(), 1);
        let rels = client.relationships_of("Alarms").unwrap();
        assert_eq!(rels.len(), 1);
        assert!(rels[0].involves("Sensor"));
        assert!(client.completeness_count().unwrap() > 0);
        assert!(!client.objects_with_prefix("Alarm").unwrap().is_empty());
        assert!(!client.persistence().unwrap().durable);

        // Checkout / check-in cycle.
        let set = client.checkout(&["AlarmHandler"]).unwrap();
        assert_eq!(set.len(), 2, "root + Description dependent");
        client
            .checkin(vec![Update::SetValue {
                object: "AlarmHandler.Description".into(),
                value: Value::string("updated over TCP"),
            }])
            .unwrap();
        assert_eq!(
            client.retrieve("AlarmHandler.Description").unwrap().value,
            Value::string("updated over TCP")
        );
        client.create_version("over the wire").unwrap();
        assert_eq!(client.persistence().unwrap().versions, 1);
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn two_clients_race_exactly_one_wins_and_loser_learns_the_holder() {
        let server = start_server();
        let addr = server.local_addr();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let mut client = RemoteClient::connect(addr).unwrap();
                    barrier.wait();
                    let outcome = client.checkout(&["Alarms"]).map(|_| client.id());
                    (client, outcome)
                })
            })
            .collect();
        let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let winners: Vec<u64> =
            results.iter().filter_map(|(_, o)| o.as_ref().ok().copied()).collect();
        assert_eq!(winners.len(), 1, "exactly one checkout must win");
        let loser_error = results
            .iter()
            .find_map(|(_, o)| o.as_ref().err())
            .expect("exactly one checkout must lose");
        match loser_error {
            ServerError::Locked { object, holder } => {
                assert_eq!(object, "Alarms");
                assert_eq!(*holder, winners[0], "the loser learns who holds the lock");
            }
            other => panic!("loser expected Locked, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn disconnect_releases_the_clients_locks() {
        let server = start_server();
        let addr = server.local_addr();
        let core = server.core();
        {
            let mut client = RemoteClient::connect(addr).unwrap();
            client.checkout(&["Alarms"]).unwrap();
            assert!(core.locked_count() > 0);
            // Dropped without release or close: the TCP connection dies with it.
        }
        // The reactor notices EOF and runs the crash-recovery rule.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while core.locked_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(core.locked_count(), 0, "disconnect must release the client's locks");
        let mut next = RemoteClient::connect(addr).unwrap();
        next.checkout(&["Alarms"]).unwrap();
        server.shutdown();
    }

    #[test]
    fn idle_clients_are_reaped_on_timeout() {
        let mut db = Database::new(figure3_schema());
        db.create_object("Data", "Alarms").unwrap();
        let config = NetServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            reaper_interval: Duration::from_millis(20),
            ..NetServerConfig::default()
        };
        let server =
            SeedNetServer::with_config(SeedServer::new(db), "127.0.0.1:0", config).unwrap();
        let core = server.core();
        let mut sleeper = RemoteClient::connect(server.local_addr()).unwrap();
        sleeper.checkout(&["Alarms"]).unwrap();
        assert!(core.locked_count() > 0);
        // The client keeps its TCP connection but falls silent; the reaper reclaims its locks.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while core.locked_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(core.locked_count(), 0, "idle locks must be reclaimed");
        let mut other = RemoteClient::connect(server.local_addr()).unwrap();
        other.checkout(&["Alarms"]).unwrap();
        server.shutdown();
    }

    #[test]
    fn identity_is_enforced_per_connection() {
        let server = start_server();
        let mut alice = RemoteClient::connect(server.local_addr()).unwrap();
        let mut mallory = RemoteClient::connect(server.local_addr()).unwrap();
        alice.checkout(&["Alarms"]).unwrap();
        // Mallory forges requests with Alice's client id: the session rejects them outright.
        let forged = Request::Release { client: alice.id() };
        assert!(matches!(mallory.call(forged), Err(ServerError::Protocol(_))));
        let forged = Request::Checkin {
            client: alice.id(),
            updates: vec![Update::SetValue { object: "Alarms".into(), value: Value::Undefined }],
        };
        assert!(matches!(mallory.call(forged), Err(ServerError::Protocol(_))));
        // Alice is unaffected.
        assert!(server.core().locked_count() > 0);
        alice.release().unwrap();
        server.shutdown();
    }

    #[test]
    fn malformed_frames_are_rejected_without_losing_the_connection() {
        use std::io::Write as _;
        let server = start_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = std::io::BufWriter::new(stream);
        write_frame(&mut writer, FrameKind::Hello, &Hello::current("raw").encode()).unwrap();
        let welcome = read_frame(&mut reader).unwrap();
        assert_eq!(welcome.kind, FrameKind::Welcome);

        // A frame with a valid header but garbage payload: rejected, connection lives.
        write_frame(&mut writer, FrameKind::Request, &[0xFF, 0xEE, 0xDD]).unwrap();
        let reply = read_frame(&mut reader).unwrap();
        assert_eq!(reply.kind, FrameKind::Response);
        assert!(matches!(
            crate::codec::decode_response(&reply.payload).unwrap(),
            Response::Error(ServerError::Protocol(_))
        ));

        // A corrupted checksum: rejected, connection lives.
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            FrameKind::Request,
            &crate::codec::encode_request(&Request::Persistence),
        )
        .unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        writer.write_all(&buf).unwrap();
        writer.flush().unwrap();
        let reply = read_frame(&mut reader).unwrap();
        assert!(matches!(
            crate::codec::decode_response(&reply.payload).unwrap(),
            Response::Error(ServerError::Protocol(_))
        ));

        // A hello frame mid-session is also a protocol error, not a hangup.
        write_frame(&mut writer, FrameKind::Hello, &Hello::current("again").encode()).unwrap();
        let reply = read_frame(&mut reader).unwrap();
        assert!(matches!(
            crate::codec::decode_response(&reply.payload).unwrap(),
            Response::Error(ServerError::Protocol(_))
        ));

        // After all that abuse, a well-formed request still works.
        write_frame(
            &mut writer,
            FrameKind::Request,
            &crate::codec::encode_request(&Request::Persistence),
        )
        .unwrap();
        let reply = read_frame(&mut reader).unwrap();
        assert!(matches!(
            crate::codec::decode_response(&reply.payload).unwrap(),
            Response::Persistence(_)
        ));
        server.shutdown();
    }

    #[test]
    fn incompatible_versions_are_rejected_at_handshake() {
        let server = start_server();
        let handshake = |min_version, max_version| {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = std::io::BufWriter::new(stream);
            let hello = Hello { min_version, max_version, ..Hello::current("range probe") };
            write_frame(&mut writer, FrameKind::Hello, &hello.encode()).unwrap();
            read_frame(&mut reader).unwrap()
        };
        let too_old = [(1, 1), (2, 2), (1, 2)];
        let future = (PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 2);
        for (min, max) in too_old.into_iter().chain([future]) {
            let reply = handshake(min, max);
            assert_eq!(reply.kind, FrameKind::Reject, "{min}..={max} must be rejected");
            assert!(String::from_utf8_lossy(&reply.payload).contains("no common protocol version"));
        }
        // A range that covers the one version, as older builds send, still connects.
        let reply = handshake(1, 3);
        assert_eq!(reply.kind, FrameKind::Welcome);
        assert_eq!(crate::wire::Welcome::decode(&reply.payload).unwrap().version, 3);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_get_in_order_responses_over_one_connection() {
        let server = start_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, FrameKind::Hello, &Hello::current("pipeliner").encode()).unwrap();
        let welcome = read_frame(&mut reader).unwrap();
        assert_eq!(welcome.kind, FrameKind::Welcome);

        // A whole burst written before reading a single response: three valid retrieves, a
        // malformed payload in the middle, an unknown name at the end.
        let names = ["Alarms", "Sensor", "AlarmHandler"];
        for name in names {
            write_frame(
                &mut writer,
                FrameKind::Request,
                &crate::codec::encode_request(&Request::Retrieve { name: name.to_string() }),
            )
            .unwrap();
        }
        write_frame(&mut writer, FrameKind::Request, &[0xFF, 0xEE]).unwrap();
        write_frame(
            &mut writer,
            FrameKind::Request,
            &crate::codec::encode_request(&Request::Retrieve { name: "Ghost".to_string() }),
        )
        .unwrap();
        use std::io::Write as _;
        writer.flush().unwrap();

        // The responses come back in request order: the error answers take their turn too.
        for name in names {
            let reply = read_frame(&mut reader).unwrap();
            assert_eq!(reply.kind, FrameKind::Response);
            match crate::codec::decode_response(&reply.payload).unwrap() {
                Response::Object(Ok(record)) => assert_eq!(record.name.to_string(), name),
                other => panic!("expected the object {name}, got {other:?}"),
            }
        }
        let reply = read_frame(&mut reader).unwrap();
        assert!(matches!(
            crate::codec::decode_response(&reply.payload).unwrap(),
            Response::Error(ServerError::Protocol(_))
        ));
        let reply = read_frame(&mut reader).unwrap();
        match crate::codec::decode_response(&reply.payload).unwrap() {
            Response::Object(Err(ServerError::Unknown(_))) => {}
            other => panic!("expected unknown-object error last, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn a_tiny_in_flight_window_still_answers_every_request_in_order() {
        // max_in_flight = 2 forces the reactor through its pause/resume backpressure path on
        // every burst; all 50 responses must still arrive, in order.
        let mut db = Database::new(figure3_schema());
        db.create_object("Data", "Alarms").unwrap();
        let config = NetServerConfig { max_in_flight: 2, ..NetServerConfig::default() };
        let server =
            SeedNetServer::with_config(SeedServer::new(db), "127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, FrameKind::Hello, &Hello::current("burst").encode()).unwrap();
        assert_eq!(read_frame(&mut reader).unwrap().kind, FrameKind::Welcome);
        for _ in 0..50 {
            write_frame(
                &mut writer,
                FrameKind::Request,
                &crate::codec::encode_request(&Request::Retrieve { name: "Alarms".to_string() }),
            )
            .unwrap();
        }
        use std::io::Write as _;
        writer.flush().unwrap();
        for i in 0..50 {
            let reply = read_frame(&mut reader).unwrap();
            assert_eq!(reply.kind, FrameKind::Response, "response {i}");
            match crate::codec::decode_response(&reply.payload).unwrap() {
                Response::Object(Ok(record)) => assert_eq!(record.name.to_string(), "Alarms"),
                other => panic!("response {i}: expected Alarms, got {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_pipelined_work_and_never_parks_on_a_stuffed_socket() {
        // The old thread-per-connection server could park forever in `write_all` against a
        // peer that stopped draining its socket.  The reactor's shutdown must return within
        // its drain deadline no matter what the peer does.
        let mut db = Database::new(figure3_schema());
        db.create_object("Data", "Alarms").unwrap();
        let config =
            NetServerConfig { shutdown_drain: Duration::from_millis(300), ..Default::default() };
        let server =
            SeedNetServer::with_config(SeedServer::new(db), "127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, FrameKind::Hello, &Hello::current("stuffer").encode()).unwrap();
        for _ in 0..64 {
            write_frame(
                &mut writer,
                FrameKind::Request,
                &crate::codec::encode_request(&Request::Persistence),
            )
            .unwrap();
        }
        use std::io::Write as _;
        writer.flush().unwrap();
        // Give the burst a moment to be admitted, then shut down while work is in flight and
        // the peer never reads a byte.
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must not park on an undrained peer (took {:?})",
            started.elapsed()
        );
        drop((reader, writer));
    }
}
