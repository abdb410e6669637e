//! The event-loop TCP frontend: `worker_shards` shard event loops over nonblocking sockets, all
//! serving one shared [`SeedServer`].
//!
//! Each shard is one thread owning a readiness [`Poller`], its connections and the whole path
//! for them.  It decodes as many complete frames as each wakeup delivers ([`FrameDecoder`]),
//! executes every request **inline** as it is decoded, appends the response frame to the
//! connection's output buffer, and flushes that buffer once per wakeup (one `write` syscall
//! coalesces every answer).  A connection belongs to one shard for its whole life, so its
//! requests execute serially in arrival order (checkout → check-in ordering is preserved) and
//! its responses are produced in request order, while connections on different shards proceed
//! in parallel.  A peer may therefore *pipeline*: write many request frames before reading a
//! single response, and read the responses back in the order it sent the requests.  Pipelining
//! is purely a scheduling property of this server, not part of the wire format.
//!
//! Shard 0 also owns the listener.  It hands each accepted stream to its shard (`token %
//! shards`, round robin) through that shard's inbox channel plus a [`Poller::notify`]: one hop
//! per connection, none per request.  Every timer belongs to a connection and runs on its
//! shard: the handshake deadline, the idle-lock reclaim of a silent client and a replication
//! session's next shipment.  A shard sleeps until the earliest of its connections' deadlines.
//!
//! One backpressure rule bounds memory per connection: a connection whose peer stops draining
//! its socket (output backlog past a 1 MiB high-water mark) is not read from until the backlog
//! drains; a request is answered as soon as it is decoded, so nothing else waits in the server.
//! A panic in one request's handler is contained: that request is answered with an error in its
//! slot, and the shard's other connections carry on.
//!
//! Each connection is handshaken onto its own [`ClientId`], and every request it carries acts
//! for that client: a peer has no way to name another connection's client.  When the
//! connection closes — cleanly or not — or stays silent past
//! [`NetServerConfig::idle_timeout`], the client's write locks are released, the paper's
//! crash-recovery rule for checked-out data.  The shard is the executor, so neither release
//! runs under one of the client's requests.  Replication sessions (Subscribe / LogBatch / Ack)
//! ride the same loops: the owning shard keeps the framing and the one-batch-in-flight flow
//! control, and cuts each shipment inline from the log handle the session took at subscribe,
//! holding no database lock (`replication::cut_shipment`).

use std::any::Any;
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use polling::{Event, Poller};
use seed_core::LogFeed;
use seed_server::{ClientId, Request, Response, SeedServer, ServerError, ServerResult};

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
    /// Release the locks of a client whose connection has sent no frame for this long; the
    /// connection stays open.  `None` turns idle reclaim off; a closing connection releases its
    /// client's locks either way.
    pub idle_timeout: Option<Duration>,
    /// Number of shard event loops.  Each shard owns the sockets of the connections assigned to
    /// it (round robin) and executes their requests itself, so a connection's requests run
    /// serially, in order; throughput scales across connections.
    pub worker_shards: usize,
    /// How long shutdown waits for answered responses to flush before closing the remaining
    /// connections anyway.
    pub shutdown_drain: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            idle_timeout: None,
            worker_shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 8),
            shutdown_drain: Duration::from_secs(5),
        }
    }
}

/// The poller key reserved for the listening socket (on shard 0).  Connection tokens start
/// at 1 and are unique across shards.
const LISTENER: usize = 0;

/// The server identification sent in the handshake.
const BANNER: &str = concat!("seed-net/", env!("CARGO_PKG_VERSION"));

/// How long a fresh connection may take to complete the handshake.  Without a deadline, a peer
/// that connects and never sends its hello would hold a registration for the server's whole
/// lifetime.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How often a replication session polls the WAL for news to ship.
const REPLICATION_POLL: Duration = Duration::from_millis(10);

/// Longest a replication session stays silent: an empty heartbeat batch ships after this, so
/// replicas can track the primary's end of log (and their lag) through idle periods.
const REPLICATION_HEARTBEAT: Duration = Duration::from_secs(1);

/// Stop reading a connection whose un-flushed output backlog passes this (the peer is not
/// draining its socket; answering more of its requests would buffer without bound).
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
    backpressure_pauses: seed_obs::Counter,
    write_coalesce_bytes: seed_obs::Histogram,
    reaper_reclaims: seed_obs::Counter,
    io_errors: seed_obs::Counter,
    request_panics: seed_obs::Counter,
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
            backpressure_pauses: r.counter("net_backpressure_pauses_total"),
            write_coalesce_bytes: r.histogram("net_write_coalesce_bytes"),
            reaper_reclaims: r.counter("net_reaper_reclaims_total"),
            io_errors: r.counter("net_io_errors_total"),
            request_panics: r.counter("net_request_panics_total"),
            batches_shipped: r.counter("repl_batches_shipped_total"),
            request_us: Request::KIND_NAMES
                .iter()
                .map(|kind| (*kind, r.histogram(&format!("net_request_us_{kind}"))))
                .collect(),
        }
    })
}

/// Emits a `net` Warn event about one connection, with the peer address and, once handshaken,
/// the session's client id.
fn warn(conn: &Conn, what: &str, detail: (&'static str, String)) {
    let mut fields: Vec<(&str, String)> = vec![("peer", conn.peer.to_string()), detail];
    if let Some(client) = conn.client_id() {
        fields.push(("client", client.to_string()));
    }
    seed_obs::global().events().emit(seed_obs::Level::Warn, "net", what, &fields);
}

/// Routes a connection I/O failure into the structured log and `net_io_errors_total` — a dead
/// peer must not look identical to a clean close.
fn log_io_error(conn: &Conn, what: &str, detail: String) {
    net_metrics().io_errors.inc();
    warn(conn, what, ("error", detail));
}

/// Records a panic caught on `conn`'s behalf (`net_request_panics_total` plus a Warn event) and
/// returns its message.
fn note_panic(conn: &Conn, what: &str, panic: &(dyn Any + Send)) -> String {
    let message = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string());
    net_metrics().request_panics.inc();
    warn(conn, what, ("panic", message.clone()));
    message
}

/// A running TCP server around a shared [`SeedServer`].
pub struct SeedNetServer {
    core: Arc<SeedServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pollers: Vec<Arc<Poller>>,
    shards: Vec<JoinHandle<()>>,
}

impl SeedNetServer {
    /// Binds with default configuration.  Use `"127.0.0.1:0"` to let the OS pick a port (see
    /// [`SeedNetServer::local_addr`]).
    pub fn bind(server: SeedServer, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::with_config(server, addr, NetServerConfig::default())
    }

    /// Binds a listener and starts the shard event loops.
    pub fn with_config(
        server: SeedServer,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let shard_count = config.worker_shards.max(1);
        let mut pollers = Vec::with_capacity(shard_count);
        let mut inboxes = Vec::with_capacity(shard_count);
        let mut routes = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let poller = Arc::new(Poller::new()?);
            let (route, inbox) = unbounded::<Accepted>();
            routes.push((route, poller.clone()));
            inboxes.push(inbox);
            pollers.push(poller);
        }
        pollers[0].add(&listener, Event::readable(LISTENER))?;
        let mut server = Self {
            core: Arc::new(server),
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            pollers,
            shards: Vec::with_capacity(shard_count),
        };
        let mut acceptor = Some(Acceptor { listener, next_token: LISTENER + 1, routes });
        for (index, inbox) in inboxes.into_iter().enumerate() {
            let shard = Shard {
                core: server.core.clone(),
                config: config.clone(),
                poller: server.pollers[index].clone(),
                stop: server.stop.clone(),
                inbox,
                acceptor: acceptor.take(),
                conns: HashMap::new(),
                draining_since: None,
            };
            // On a failed spawn, dropping `server` stops the shards already running.
            let handle = std::thread::Builder::new()
                .name(format!("seed-net-shard-{index}"))
                .spawn(move || shard.run())?;
            server.shards.push(handle);
        }
        Ok(server)
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

    /// Stops accepting, lets every shard flush its answered responses (bounded by
    /// [`NetServerConfig::shutdown_drain`]) and waits for the shards to exit.
    pub fn shutdown(mut self) {
        self.stop_shards();
    }

    fn stop_shards(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for poller in &self.pollers {
            let _ = poller.notify();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

impl Drop for SeedNetServer {
    fn drop(&mut self) {
        self.stop_shards();
    }
}

/// An accepted connection on its way to its shard: token, stream, peer address.
type Accepted = (usize, TcpStream, SocketAddr);

/// The listener and the routes to every shard's inbox, owned by shard 0.
struct Acceptor {
    listener: TcpListener,
    next_token: usize,
    routes: Vec<(Sender<Accepted>, Arc<Poller>)>,
}

/// Answers one client frame for the connection's `client`.  Returns the reply and whether the
/// session ends after it (`Shutdown`).
fn answer(
    core: &SeedServer,
    client: ClientId,
    frame: Result<Vec<u8>, String>,
) -> (ServerResult<Response>, bool) {
    let decoded =
        frame.map_err(ServerError::Protocol).and_then(|payload| Ok(decode_request(&payload)?));
    let request = match decoded {
        Ok(request) => request,
        Err(e) => return (Err(e), false),
    };
    let closing = matches!(request, Request::Shutdown);
    let kind = request.kind_name();
    #[cfg(test)]
    tests::panic_probe(&request);
    let start = Instant::now();
    let reply = core.handle(client, request);
    if let Some(latency) = net_metrics().request_us.get(kind) {
        latency.observe_duration(start.elapsed());
    }
    (reply, closing)
}

/// Where a connection is in its lifecycle.
enum ConnState {
    /// Awaiting the hello frame, until `deadline`.
    Handshake { deadline: Instant },
    /// A handshaken request/response session.
    Client(ClientId),
    /// A handshaken replica awaiting its subscribe frame.
    ReplicaPending { client: ClientId },
    /// A subscribed replication session.
    Replica(ReplicaSession),
}

struct ReplicaSession {
    client: ClientId,
    /// The served database's log, read by every cut of the session.
    log: LogFeed,
    /// First LSN the replica still needs (`acked + 1`; acks may move it down on a resync; 0
    /// until a replica whose log does not continue this one has acked its reset).
    next: u64,
    /// The subscribe deserves a position-sync batch even when there is nothing to ship.
    answer_now: bool,
    /// When the log is next checked for news: [`REPLICATION_POLL`] after the last check, or at
    /// once after the subscribe and after every ack — new records ship promptly, but a
    /// caught-up cursor goes idle instead of ping-ponging heartbeats against instant acks.
    next_pump: Instant,
    /// One batch in flight: true from batch emission until the replica's ack.
    awaiting_ack: bool,
    last_sent: Instant,
}

struct Conn {
    stream: TcpStream,
    /// Peer address, captured at accept for the I/O-error log.
    peer: SocketAddr,
    decoder: FrameDecoder,
    /// Coalesced output: every frame answered for this connection, flushed in one write per
    /// wakeup.  `out_pos` marks the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// When the last client frame arrived; `None` before the first one and after an idle
    /// reclaim, until the next one.
    last_frame: Option<Instant>,
    /// No more frames are read or answered; the connection closes once its output flushes (or
    /// the write side dies).
    closing: bool,
    /// The write side failed; pending output is discarded and the close is immediate.
    write_dead: bool,
    /// Something happened this wakeup (event, replication shipment, drain): sweep this
    /// connection.
    touched: bool,
    /// Last pause verdict seen at re-arm time, so `net_backpressure_pauses_total` counts
    /// pause *onsets* instead of every wakeup spent paused.
    paused: bool,
}

fn append_frame(out: &mut Vec<u8>, kind: FrameKind, payload: &[u8]) {
    write_frame(out, kind, payload).expect("writing a frame into a Vec cannot fail");
}

impl Conn {
    fn new(stream: TcpStream, peer: SocketAddr) -> Self {
        Self {
            stream,
            peer,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Handshake { deadline: Instant::now() + HANDSHAKE_TIMEOUT },
            last_frame: None,
            closing: false,
            write_dead: false,
            touched: true,
            paused: false,
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// The output backpressure rule, the one reason a live connection is not read from.
    fn over_high_water(&self) -> bool {
        self.backlog() > OUT_HIGH_WATER
    }

    fn client_id(&self) -> Option<ClientId> {
        match &self.state {
            ConnState::Handshake { .. } => None,
            ConnState::Client(client) | ConnState::ReplicaPending { client } => Some(*client),
            ConnState::Replica(s) => Some(s.client),
        }
    }

    fn reject(&mut self, reason: &[u8]) {
        append_frame(&mut self.out, FrameKind::Reject, reason);
        self.closing = true;
    }

    /// Reads until the socket runs dry, the connection pauses (backpressure) or closes,
    /// answering every complete frame as it is decoded.
    fn pump_read(&mut self, core: &SeedServer) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            self.serve_frames(core);
            if self.closing || self.over_high_water() {
                return;
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: the peer is gone.  Frames still buffered but unanswered are dropped
                    // — nobody is left to read their answers.
                    self.closing = true;
                    return;
                }
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    net_metrics().bytes_in.add(n as u64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    log_io_error(self, "read error", e.to_string());
                    self.closing = true;
                    self.write_dead = true;
                    return;
                }
            }
        }
    }

    /// Decodes and serves every complete buffered frame, honoring backpressure between frames.
    /// Returns whether it stopped at the high-water mark with frames possibly left over.
    fn serve_frames(&mut self, core: &SeedServer) -> bool {
        while !self.closing {
            if self.over_high_water() {
                return true;
            }
            match self.decoder.next_frame() {
                Ok(Some(frame)) => self.on_frame(core, frame),
                Ok(None) => break,
                // The frame boundary held.  A client session answers in the frame's slot and
                // lives on; any other state treats it as a handshake/stream failure.
                Err(WireError::Recoverable(msg)) => match self.state {
                    ConnState::Client(client) => self.respond(core, client, Err(msg)),
                    _ => self.closing = true,
                },
                // Desync (bad magic, unknown kind, oversize): the stream is unusable.
                Err(_) => self.closing = true,
            }
        }
        false
    }

    fn on_frame(&mut self, core: &SeedServer, frame: Frame) {
        match self.state {
            ConnState::Handshake { .. } => self.on_hello(core, frame),
            ConnState::Client(client) => {
                let payload = if frame.kind == FrameKind::Request {
                    Ok(frame.payload)
                } else {
                    Err(format!("expected a request frame, got {:?}", frame.kind))
                };
                self.respond(core, client, payload);
            }
            ConnState::ReplicaPending { client } => self.on_subscribe(core, client, frame),
            ConnState::Replica(_) => self.on_ack(core, frame),
        }
    }

    /// Executes one client frame and appends its response.  A panicking handler is answered
    /// with an error in the same slot; a `Shutdown` halts the session after its answer.
    fn respond(&mut self, core: &SeedServer, client: ClientId, frame: Result<Vec<u8>, String>) {
        self.last_frame = Some(Instant::now());
        let answered = catch_unwind(AssertUnwindSafe(|| answer(core, client, frame)));
        let (reply, close) = answered.unwrap_or_else(|panic| {
            let message = note_panic(self, "request handler panicked", panic.as_ref());
            let error = format!("the server failed while answering this request: {message}");
            (Err(ServerError::Protocol(error)), false)
        });
        append_frame(&mut self.out, FrameKind::Response, &encode_response(&reply));
        if close {
            self.closing = true;
        }
    }

    /// Hello in, Welcome (or Reject) out.
    fn on_hello(&mut self, core: &SeedServer, frame: Frame) {
        if frame.kind != FrameKind::Hello {
            self.reject(b"handshake must start with a hello frame");
            return;
        }
        let hello = match Hello::decode(&frame.payload) {
            Ok(hello) => hello,
            Err(e) => return self.reject(e.to_string().as_bytes()),
        };
        let version = match negotiate(&hello) {
            Ok(version) => version,
            Err(reason) => return self.reject(reason.as_bytes()),
        };
        let client = core.connect();
        let welcome = Welcome { version, client_id: client, banner: BANNER.to_string() };
        append_frame(&mut self.out, FrameKind::Welcome, &welcome.encode());
        self.state = match hello.role {
            HandshakeRole::Replica => ConnState::ReplicaPending { client },
            HandshakeRole::Client => ConnState::Client(client),
        };
    }

    fn on_subscribe(&mut self, core: &SeedServer, client: ClientId, frame: Frame) {
        if frame.kind != FrameKind::Subscribe {
            self.reject(b"a replica session must open with a subscribe frame");
            return;
        }
        let subscribe = match Subscribe::decode(&frame.payload) {
            Ok(subscribe) => subscribe,
            Err(e) => return self.reject(e.to_string().as_bytes()),
        };
        if let Some(primary) = core.replica_of() {
            let reason = format!("this node is a replica; subscribe to its primary at {primary}");
            return self.reject(reason.as_bytes());
        }
        // The one database read lock of the session: it clones the log handle, which the
        // session's cuts read with no lock held, and decides once whether this log continues
        // the replica's.  A replica whose log it does streams on from its next LSN; any other
        // gets cursor 0, which no log holds, so its first batch is a reset.
        let from = subscribe.from_lsn.max(1);
        let opened = core.with_database(|db| {
            let next = if db.continues_log(from - 1, subscribe.epoch) { from } else { 0 };
            db.log_feed().map(|log| (log, next))
        });
        let Ok((log, next)) = opened else {
            return self.reject(b"this primary serves an in-memory database; nothing to replicate");
        };
        // The subscribe IS the first ack: pin WAL retention to the cursor before the first
        // batch ships, so a checkpoint racing the subscribe cannot truncate the tail out from
        // under it.
        core.note_replica_ack(client, next.saturating_sub(1));
        let now = Instant::now();
        self.state = ConnState::Replica(ReplicaSession {
            client,
            log,
            next,
            answer_now: true, // the subscribe deserves a prompt position sync
            next_pump: now,
            awaiting_ack: false,
            last_sent: now,
        });
    }

    fn on_ack(&mut self, core: &SeedServer, frame: Frame) {
        let ConnState::Replica(session) = &mut self.state else { return };
        // Flow control is one batch in flight; anything but the awaited ack (EOF, desync,
        // wrong kind) ends the stream.
        let ack = match Ack::decode(&frame.payload) {
            Ok(ack) if frame.kind == FrameKind::Ack && session.awaiting_ack => ack,
            _ => {
                self.closing = true;
                return;
            }
        };
        core.note_replica_ack(session.client, ack.applied_lsn);
        // The ack IS the cursor — including backwards: a reset snapshot rebinds a replica
        // whose cursor came from a longer (different or restored) log to this log's positions,
        // and `next` must follow it down or the session would re-ship the snapshot forever.
        session.next = ack.applied_lsn + 1;
        session.awaiting_ack = false;
        session.next_pump = Instant::now(); // re-check the log promptly; idle if nothing new
    }

    /// The next instant this connection needs its shard without a socket event: the handshake
    /// deadline, the idle reclaim of a client heard from (with `idle_timeout` set), or the next
    /// log check of a replication session with no batch awaiting its ack.
    fn deadline(&self, idle_timeout: Option<Duration>) -> Option<Instant> {
        if self.closing {
            return None;
        }
        match &self.state {
            ConnState::Handshake { deadline } => Some(*deadline),
            ConnState::Client(_) => Some(self.last_frame? + idle_timeout?),
            ConnState::ReplicaPending { .. } => None,
            ConnState::Replica(session) => (!session.awaiting_ack).then_some(session.next_pump),
        }
    }

    /// Does what is due once [`Conn::deadline`] has passed.
    fn on_deadline(&mut self, core: &SeedServer, now: Instant) {
        match self.state {
            ConnState::Handshake { .. } => {
                log_io_error(self, "handshake timed out", "no hello within deadline".into());
                self.closing = true;
                self.touched = true;
            }
            // A silent client with its connection still open (a hung workstation) gets its
            // locks taken back; its next checkout starts afresh.  This shard is the only
            // executor of the client's requests, so none of them runs during the release.
            ConnState::Client(client) => {
                self.last_frame = None;
                if core.release(client) > 0 {
                    net_metrics().reaper_reclaims.inc();
                    seed_obs::global().events().emit(
                        seed_obs::Level::Warn,
                        "net",
                        "idle reaper reclaimed client locks",
                        &[("clients", format!("{:?}", [client]))],
                    );
                }
            }
            ConnState::ReplicaPending { .. } => {}
            ConnState::Replica(_) => self.pump_replication(now),
        }
    }

    /// One replication tick: cuts the shipment due at the session's cursor and queues its
    /// frame.  A panicking cut ends the session (the replica reconnects).
    fn pump_replication(&mut self, now: Instant) {
        let ConnState::Replica(session) = &mut self.state else { return };
        session.next_pump = now + REPLICATION_POLL;
        let answer_now = std::mem::take(&mut session.answer_now);
        let heartbeat_due = now.duration_since(session.last_sent) >= REPLICATION_HEARTBEAT;
        let (log, next) = (&session.log, session.next);
        let plan =
            catch_unwind(AssertUnwindSafe(|| cut_shipment(log, next, answer_now, heartbeat_due)));
        match plan {
            Ok(ShipmentPlan::Idle) => return,
            Ok(ShipmentPlan::Batch(batch)) => {
                append_frame(&mut self.out, FrameKind::LogBatch, &batch.encode());
                session.awaiting_ack = true;
                session.last_sent = now;
                net_metrics().batches_shipped.inc();
            }
            Ok(ShipmentPlan::End) => self.closing = true,
            Err(panic) => {
                note_panic(self, "replication shipment panicked", panic.as_ref());
                self.closing = true;
            }
        }
        self.touched = true;
    }

    /// Write coalescing: one `write` syscall covers everything answered this wakeup (looping
    /// only on partial writes).
    fn flush_out(&mut self) {
        if self.out_pos < self.out.len() {
            net_metrics().write_coalesce_bytes.observe(self.backlog() as u64);
        }
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    log_io_error(
                        self,
                        "write returned zero bytes",
                        "peer stopped accepting".into(),
                    );
                    self.write_dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    net_metrics().bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    log_io_error(self, "write error", e.to_string());
                    self.write_dead = true;
                    break;
                }
            }
        }
        if self.write_dead || self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos >= 64 * 1024 {
            // Reclaim the flushed prefix before it grows unbounded under a slow peer.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        if self.write_dead {
            self.closing = true;
        }
    }

    /// Re-arms the oneshot interest: read unless closing or paused, write while output waits.
    fn rearm(&mut self, poller: &Poller, token: usize) {
        let paused = self.over_high_water();
        if paused && !self.paused && !self.closing {
            net_metrics().backpressure_pauses.inc();
        }
        self.paused = paused;
        let readable = !self.closing && !paused;
        let writable = !self.write_dead && self.backlog() > 0;
        let _ = poller.modify(&self.stream, Event { key: token, readable, writable });
    }
}

/// One shard event loop: a poller, the connections it owns, and (on shard 0) the listener.
struct Shard {
    core: Arc<SeedServer>,
    config: NetServerConfig,
    poller: Arc<Poller>,
    stop: Arc<AtomicBool>,
    inbox: Receiver<Accepted>,
    /// The listener, on shard 0.
    acceptor: Option<Acceptor>,
    conns: HashMap<usize, Conn>,
    draining_since: Option<Instant>,
}

impl Shard {
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
            for event in events.drain(..) {
                if event.key == LISTENER {
                    self.accept_burst();
                } else if let Some(conn) = self.conns.get_mut(&event.key) {
                    conn.touched = true;
                    if event.readable && !conn.closing {
                        conn.pump_read(&self.core);
                    }
                }
            }
            self.adopt();
            self.tick();
            self.sweep();
        }
        self.finish();
    }

    /// Stop accepting and flag every connection for a drained close: reads stop immediately,
    /// answered responses still flush (bounded by `shutdown_drain`).
    fn begin_drain(&mut self) {
        self.draining_since = Some(Instant::now());
        if let Some(acceptor) = &self.acceptor {
            let _ = self.poller.delete(&acceptor.listener);
        }
        for conn in self.conns.values_mut() {
            conn.closing = true;
            conn.touched = true;
        }
    }

    /// How long the poller may sleep: until the earliest deadline of this shard's connections,
    /// or until an event when none has one.
    fn poll_timeout(&self) -> Option<Duration> {
        if self.draining_since.is_some() {
            return Some(Duration::from_millis(5));
        }
        let idle_timeout = self.config.idle_timeout;
        let next = self.conns.values().filter_map(|conn| conn.deadline(idle_timeout)).min()?;
        Some(next.saturating_duration_since(Instant::now()).max(Duration::from_millis(1)))
    }

    /// Accepts every pending connection and routes each to its shard's inbox.
    fn accept_burst(&mut self) {
        let Some(acceptor) = &mut self.acceptor else { return };
        loop {
            match acceptor.listener.accept() {
                Ok((stream, peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = acceptor.next_token;
                    acceptor.next_token += 1;
                    let (route, poller) = &acceptor.routes[token % acceptor.routes.len()];
                    if route.send((token, stream, peer)).is_ok() {
                        let _ = poller.notify();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Oneshot delivery: re-arm the listener.
        let _ = self.poller.modify(&acceptor.listener, Event::readable(LISTENER));
    }

    /// Registers the connections routed to this shard since the last wakeup.
    fn adopt(&mut self) {
        while let Ok((token, stream, peer)) = self.inbox.try_recv() {
            if self.draining_since.is_some()
                || self.poller.add(&stream, Event::readable(token)).is_err()
            {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            net_metrics().connections.inc();
            net_metrics().connections_total.inc();
            self.conns.insert(token, Conn::new(stream, peer));
        }
    }

    /// Timer work: fires every connection deadline that has passed.
    fn tick(&mut self) {
        let now = Instant::now();
        let idle_timeout = self.config.idle_timeout;
        for conn in self.conns.values_mut() {
            if conn.deadline(idle_timeout).is_some_and(|due| due <= now) {
                conn.on_deadline(&self.core, now);
            }
        }
    }

    /// Per-wakeup housekeeping for every touched connection: flush coalesced output, serve
    /// frames buffered while paused, finalize drained closes, re-arm interest.
    fn sweep(&mut self) {
        let touched: Vec<usize> =
            self.conns.iter().filter(|(_, c)| c.touched).map(|(t, _)| *t).collect();
        for token in touched {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            conn.touched = false;
            conn.flush_out();
            // Frames left buffered by backpressure are served here as flushes make room: their
            // bytes were already read, so no read event will come for them (re-arming read
            // interest below re-delivers anything still in the kernel buffer).
            while !conn.closing && !conn.over_high_water() && conn.decoder.buffered() > 0 {
                let stalled = conn.serve_frames(&self.core);
                conn.flush_out();
                if !stalled {
                    break;
                }
            }
            if conn.closing && (conn.write_dead || conn.backlog() == 0) {
                let conn = self.conns.remove(&token).expect("swept above");
                self.close(conn);
            } else {
                conn.rearm(&self.poller, token);
            }
        }
    }

    /// Closes a connection and ends its session.  A client's locks are released (the
    /// crash-recovery rule).  A replication subscriber is retired, not forgotten: its last ack
    /// keeps pinning WAL retention so the replica can catch up from the retained log when it
    /// reconnects.
    fn close(&self, conn: Conn) {
        net_metrics().connections.dec();
        let _ = self.poller.delete(&conn.stream);
        match conn.state {
            ConnState::Handshake { .. } => {}
            ConnState::Client(client) => {
                self.core.release(client);
            }
            ConnState::ReplicaPending { client }
            | ConnState::Replica(ReplicaSession { client, .. }) => self.core.retire_replica(client),
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    /// Shutdown epilogue: flush what was answered, then close every surviving connection of
    /// this shard.  Nothing runs on this shard any more, so no lock is released under a running
    /// request.
    fn finish(mut self) {
        for (_, mut conn) in std::mem::take(&mut self.conns) {
            conn.flush_out();
            self.close(conn);
        }
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

    /// The name whose retrieve panics inside the request handler: the test-only seam standing
    /// in for a handler defect.
    const PANIC_PROBE: &str = "panic probe";

    /// Called by [`answer`] before dispatch in test builds.
    pub(super) fn panic_probe(request: &Request) {
        if matches!(request, Request::Retrieve { name } if name == PANIC_PROBE) {
            panic!("the handler panicked on purpose");
        }
    }

    /// A server over `count` `Data` objects named `{prefix}{i:04}`, with `shards` shards.
    fn server_over(prefix: &str, count: usize, shards: usize) -> SeedNetServer {
        server_with(prefix, count, NetServerConfig { worker_shards: shards, ..Default::default() })
    }

    /// A server over `count` `Data` objects named `{prefix}{i:04}`, configured by `config`.
    fn server_with(prefix: &str, count: usize, config: NetServerConfig) -> SeedNetServer {
        let mut db = Database::new(figure3_schema());
        for i in 0..count {
            db.create_object("Data", &format!("{prefix}{i:04}")).unwrap();
        }
        SeedNetServer::with_config(SeedServer::new(db), "127.0.0.1:0", config).unwrap()
    }

    /// A server over `Obj0000`..`Obj0003` that reclaims the locks of clients silent for `idle`.
    fn reclaiming_server(idle: Duration, shards: usize) -> SeedNetServer {
        let config = NetServerConfig {
            idle_timeout: Some(idle),
            worker_shards: shards,
            ..NetServerConfig::default()
        };
        server_with("Obj", 4, config)
    }

    /// Serializes the tests that reclaim locks: `net_reaper_reclaims_total` is process-wide,
    /// and the tests that count it exactly must not see a sibling's reclaims.
    fn reclaims_serialized() -> std::sync::MutexGuard<'static, ()> {
        static RECLAIMS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        RECLAIMS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Polls `done` until it holds (true) or 5 s pass (false).
    fn eventually(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// A handshaken raw client session, for tests that pipeline frames by hand.
    fn raw_session(addr: SocketAddr, agent: &str) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, FrameKind::Hello, &Hello::current(agent).encode()).unwrap();
        writer.flush().unwrap();
        assert_eq!(read_frame(&mut reader).unwrap().kind, FrameKind::Welcome);
        (reader, writer)
    }

    fn send(writer: &mut BufWriter<TcpStream>, request: &Request) {
        write_frame(writer, FrameKind::Request, &crate::codec::encode_request(request)).unwrap();
    }

    fn receive(reader: &mut BufReader<TcpStream>) -> ServerResult<Response> {
        let reply = read_frame(reader).unwrap();
        assert_eq!(reply.kind, FrameKind::Response);
        crate::codec::decode_response(&reply.payload).unwrap()
    }

    fn counter(name: &str) -> u64 {
        seed_obs::global().counter(name).get()
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
        assert!(schema.class_id("Data").is_ok());
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
        // The connection's shard notices EOF and runs the crash-recovery rule.
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
        let _serial = reclaims_serialized();
        let mut db = Database::new(figure3_schema());
        db.create_object("Data", "Alarms").unwrap();
        let config = NetServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..NetServerConfig::default()
        };
        let server =
            SeedNetServer::with_config(SeedServer::new(db), "127.0.0.1:0", config).unwrap();
        let core = server.core();
        let mut sleeper = RemoteClient::connect(server.local_addr()).unwrap();
        sleeper.checkout(&["Alarms"]).unwrap();
        assert!(core.locked_count() > 0);
        // The client keeps its TCP connection but falls silent; its shard reclaims its locks.
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
    fn idle_reclaim_keeps_the_connection_and_the_next_checkout_succeeds() {
        let _serial = reclaims_serialized();
        let server = reclaiming_server(Duration::from_millis(200), 1);
        let core = server.core();
        let reclaims = counter("net_reaper_reclaims_total");
        let mut sleeper = RemoteClient::connect(server.local_addr()).unwrap();
        sleeper.checkout(&["Obj0000"]).unwrap();
        assert!(eventually(|| core.locked_count() == 0), "idle locks must be reclaimed");
        assert_eq!(counter("net_reaper_reclaims_total"), reclaims + 1);

        // The connection stayed open: the same session checks out again and holds the lock.
        sleeper.checkout(&["Obj0000"]).unwrap();
        let mut other = RemoteClient::connect(server.local_addr()).unwrap();
        match other.checkout(&["Obj0000"]) {
            Err(ServerError::Locked { holder, .. }) => assert_eq!(holder, sleeper.id()),
            other => panic!("the sleeper must hold the lock again, got {other:?}"),
        }
        sleeper.close().unwrap();
        other.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn idle_reclaim_does_not_count_a_client_without_locks() {
        let _serial = reclaims_serialized();
        let server = reclaiming_server(Duration::from_millis(100), 1);
        let core = server.core();
        let reclaims = counter("net_reaper_reclaims_total");
        // Heard from, then silent, holding nothing.
        let mut idler = RemoteClient::connect(server.local_addr()).unwrap();
        idler.checkout(&["Obj0000"]).unwrap();
        idler.release().unwrap();
        // Falls silent later, on the same shard, holding a lock: once that lock is reclaimed,
        // the idler's earlier deadline has fired too.
        let mut holder = RemoteClient::connect(server.local_addr()).unwrap();
        holder.checkout(&["Obj0001"]).unwrap();
        assert!(eventually(|| core.locked_count() == 0), "idle locks must be reclaimed");
        assert_eq!(
            counter("net_reaper_reclaims_total"),
            reclaims + 1,
            "only the client that held a lock is counted"
        );
        idler.close().unwrap();
        holder.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn idle_reclaim_spares_a_client_that_keeps_talking() {
        let server = reclaiming_server(Duration::from_millis(200), 1);
        let core = server.core();
        let mut talker = RemoteClient::connect(server.local_addr()).unwrap();
        talker.checkout(&["Obj0000"]).unwrap();
        // Five idle timeouts of requests, each well inside the timeout of the one before.
        let until = Instant::now() + Duration::from_secs(1);
        while Instant::now() < until {
            std::thread::sleep(Duration::from_millis(40));
            talker.retrieve("Obj0001").unwrap();
            assert!(core.locked_count() > 0, "a client that keeps talking keeps its locks");
        }
        let mut other = RemoteClient::connect(server.local_addr()).unwrap();
        match other.checkout(&["Obj0000"]) {
            Err(ServerError::Locked { holder, .. }) => assert_eq!(holder, talker.id()),
            other => panic!("the talker must still hold the lock, got {other:?}"),
        }
        talker.close().unwrap();
        other.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn idle_reclaim_runs_on_every_shard() {
        let _serial = reclaims_serialized();
        let server = reclaiming_server(Duration::from_millis(100), 2);
        let core = server.core();
        let reclaims = counter("net_reaper_reclaims_total");
        // Connections are dealt to the shards round robin: one client lands on each shard.
        let mut clients: Vec<RemoteClient> =
            (0..2).map(|_| RemoteClient::connect(server.local_addr()).unwrap()).collect();
        for (i, client) in clients.iter_mut().enumerate() {
            client.checkout(&[format!("Obj{i:04}").as_str()]).unwrap();
        }
        assert!(eventually(|| core.locked_count() == 0), "every shard must reclaim its client");
        assert_eq!(counter("net_reaper_reclaims_total"), reclaims + 2);
        for client in clients {
            client.close().unwrap();
        }
        server.shutdown();
    }

    /// A request acts for the client of the connection it arrives on, so no connection can
    /// release or check in another's data.
    #[test]
    fn identity_is_enforced_per_connection() {
        let server = start_server();
        let core = server.core();
        let mut alice = RemoteClient::connect(server.local_addr()).unwrap();
        let mut mallory = RemoteClient::connect(server.local_addr()).unwrap();
        let held = alice.checkout(&["Alarms"]).unwrap().len();
        mallory.checkout(&["Sensor"]).unwrap();
        assert!(core.locked_count() > held);
        // Mallory's release frees Mallory's locks only; Alice's stay.
        mallory.release().unwrap();
        assert_eq!(core.locked_count(), held);
        let mut bob = RemoteClient::connect(server.local_addr()).unwrap();
        assert!(matches!(bob.checkout(&["Alarms"]), Err(ServerError::Locked { .. })));
        bob.checkout(&["Sensor"]).unwrap();
        // Mallory's check-in of Alice's object is refused: Mallory never checked it out.
        let edit = Update::SetValue { object: "Alarms".into(), value: Value::Undefined };
        assert!(matches!(mallory.checkin(vec![edit]), Err(ServerError::NotCheckedOut(_))));
        alice.release().unwrap();
        for client in [alice, mallory, bob] {
            client.close().unwrap();
        }
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
            Err(ServerError::Protocol(_))
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
            Err(ServerError::Protocol(_))
        ));

        // A hello frame mid-session is also a protocol error, not a hangup.
        write_frame(&mut writer, FrameKind::Hello, &Hello::current("again").encode()).unwrap();
        let reply = read_frame(&mut reader).unwrap();
        assert!(matches!(
            crate::codec::decode_response(&reply.payload).unwrap(),
            Err(ServerError::Protocol(_))
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
            Ok(Response::Persistence(_))
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
        let too_old = [(1, 1), (2, 2), (1, 2), (3, 3), (1, 3), (4, 4), (1, 4), (5, 5), (1, 5)];
        let future = (PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 2);
        for (min, max) in too_old.into_iter().chain([future]) {
            let reply = handshake(min, max);
            assert_eq!(reply.kind, FrameKind::Reject, "{min}..={max} must be rejected");
            assert!(String::from_utf8_lossy(&reply.payload).contains("no common protocol version"));
        }
        // A range that covers the one version still connects.
        let reply = handshake(1, PROTOCOL_VERSION);
        assert_eq!(reply.kind, FrameKind::Welcome);
        let welcome = crate::wire::Welcome::decode(&reply.payload).unwrap();
        assert_eq!(welcome.version, PROTOCOL_VERSION);
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
                Ok(Response::Object(record)) => assert_eq!(record.name.to_string(), name),
                other => panic!("expected the object {name}, got {other:?}"),
            }
        }
        let reply = read_frame(&mut reader).unwrap();
        assert!(matches!(
            crate::codec::decode_response(&reply.payload).unwrap(),
            Err(ServerError::Protocol(_))
        ));
        let reply = read_frame(&mut reader).unwrap();
        match crate::codec::decode_response(&reply.payload).unwrap() {
            Err(ServerError::Unknown(_)) => {}
            other => panic!("expected unknown-object error last, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_pipelined_work_and_never_parks_on_a_stuffed_socket() {
        // The old thread-per-connection server could park forever in `write_all` against a
        // peer that stopped draining its socket.  Shutdown must return within its drain
        // deadline no matter what the peer does.
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
        // Give the burst a moment to be answered, then shut down while the peer never reads a
        // byte of the answers.
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

    #[test]
    fn six_connections_over_two_shards_each_get_their_own_answers_in_order() {
        // Three connections per shard, all pipelining at once: every connection must get
        // exactly its own answers, in its own request order, with the malformed frame's error
        // in its slot.
        let server = server_over("Obj", 60, 2);
        let addr = server.local_addr();
        let barrier = Arc::new(std::sync::Barrier::new(6));
        let peers: Vec<_> = (0..6)
            .map(|c| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let (mut reader, mut writer) = raw_session(addr, "spread");
                    let names: Vec<String> =
                        (0..10).map(|k| format!("Obj{:04}", c * 10 + k)).collect();
                    barrier.wait();
                    for (k, name) in names.iter().enumerate() {
                        if k == 5 {
                            write_frame(&mut writer, FrameKind::Request, &[0xFF, 0xEE]).unwrap();
                        }
                        send(&mut writer, &Request::Retrieve { name: name.clone() });
                    }
                    writer.flush().unwrap();
                    for (k, name) in names.iter().enumerate() {
                        if k == 5 {
                            let reply = receive(&mut reader);
                            assert!(
                                matches!(reply, Err(ServerError::Protocol(_))),
                                "connection {c}: the malformed frame's slot, got {reply:?}"
                            );
                        }
                        match receive(&mut reader) {
                            Ok(Response::Object(record)) => {
                                assert_eq!(&record.name.to_string(), name, "connection {c}")
                            }
                            other => panic!("connection {c}: expected {name}, got {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for peer in peers {
            peer.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn output_backpressure_pauses_one_connection_while_its_shard_serves_another() {
        // One shard owns both connections.  The first pipelines listings whose answers exceed
        // the output high-water mark many times over and reads nothing: its shard must stop
        // reading it, keep answering the second connection, and deliver every answer in
        // order once the first starts reading.
        let server = server_over("Backpressure-listing-member-with-a-long-name-", 2000, 1);
        let pauses = counter("net_backpressure_pauses_total");
        let (mut reader, mut writer) = raw_session(server.local_addr(), "firehose");
        let listing = Request::ObjectsOfClass { class: "Data".into(), transitive: false };
        let bursts = 128;
        for i in 0..bursts {
            send(&mut writer, &listing);
            let name = format!("Backpressure-listing-member-with-a-long-name-{i:04}");
            send(&mut writer, &Request::Retrieve { name });
        }
        writer.flush().unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while counter("net_backpressure_pauses_total") == pauses && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(counter("net_backpressure_pauses_total") > pauses, "the firehose must pause");
        let mut other = RemoteClient::connect(server.local_addr()).unwrap();
        let name = "Backpressure-listing-member-with-a-long-name-1999";
        assert_eq!(other.retrieve(name).unwrap().name.to_string(), name);

        for i in 0..bursts {
            match receive(&mut reader) {
                Ok(Response::Objects(records)) => assert_eq!(records.len(), 2000, "listing {i}"),
                other => panic!("listing {i}: expected the Data extent, got {other:?}"),
            }
            let name = format!("Backpressure-listing-member-with-a-long-name-{i:04}");
            match receive(&mut reader) {
                Ok(Response::Object(record)) => assert_eq!(record.name.to_string(), name),
                other => panic!("retrieve {i}: expected {name}, got {other:?}"),
            }
        }
        other.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_panicking_handler_is_answered_in_order_and_the_shard_keeps_serving() {
        let server = server_over("Obj", 3, 1);
        let panics = counter("net_request_panics_total");
        let mut bystander = RemoteClient::connect(server.local_addr()).unwrap();
        let mut client = RemoteClient::connect(server.local_addr()).unwrap();
        let requests = ["Obj0000", PANIC_PROBE, "Obj0001"]
            .map(|name| Request::Retrieve { name: name.to_string() })
            .to_vec();
        let results = client.exchange(requests).unwrap();
        assert!(matches!(&results[0], Ok(Response::Object(r)) if r.name.to_string() == "Obj0000"));
        match &results[1] {
            Err(ServerError::Protocol(message)) => {
                assert!(message.contains("panicked on purpose"), "{message}")
            }
            other => panic!("the panicking request's slot: got {other:?}"),
        }
        assert!(matches!(&results[2], Ok(Response::Object(r)) if r.name.to_string() == "Obj0001"));
        assert!(counter("net_request_panics_total") > panics);
        // The panicking connection lives on, and so does the other connection on its shard.
        assert_eq!(client.retrieve("Obj0002").unwrap().name.to_string(), "Obj0002");
        assert_eq!(bystander.retrieve("Obj0000").unwrap().name.to_string(), "Obj0000");
        client.close().unwrap();
        bystander.close().unwrap();
        server.shutdown();
    }
}
