//! The replica side of WAL-shipping replication over `seed-net`.
//!
//! A [`ReplicaNode`] is a complete read-only SEED node: it serves one durable [`Database`] in
//! its own directory, as a primary does, opened (or resumed) there and kept in step with a
//! primary's replication stream (handshake with [`crate::wire::HandshakeRole::Replica`], one
//! [`Subscribe`] frame, then every [`LogBatch`] applied in place).  It serves the **full read
//! surface** (`Query`, `Schema`, `Children`, `Prefix`, `ObjectsOfClass`, `Completeness`,
//! `Retrieve`, `Persistence`, …) on its own TCP listener — while checkouts, check-ins and
//! version creation answer `ServerError::ReadOnlyReplica` carrying the primary's address, and
//! a `Subscribe` is refused with that address too.
//!
//! There is one log across the cluster: a replica's WAL holds the primary's commits at the
//! primary's LSNs, so its position is the end of its own log plus the epoch in force there
//! ([`Database::log_end`]).  Every subscription carries that position, and the primary
//! decides once whether its log continues the replica's (the log-matching rule,
//! [`seed_core::Database::continues_log`]): it streams on when it does and sends a reset when
//! it does not.  A replica re-pointed at a promoted node, and an old primary rejoining as a
//! replica, therefore resume from their own logs with no setting to get right.
//!
//! Lifecycle:
//!
//! 1. **Initial sync** — `start` blocks until the first batch is applied (the primary answers a
//!    subscribe immediately, with a reset batch when its log does not hold the replica's next
//!    LSN or does not continue the replica's log), so the node never listens before it has a
//!    database to serve.  A directory that holds none yet builds it from that batch
//!    ([`Database::from_first_batch`]).
//! 2. **Streaming** — a background thread applies batches to the served database under its
//!    write lock ([`Database::apply_batch`]: decoded completely, appended to its log, patched
//!    **O(delta)** in memory; a reset batch is installed and rebuilds it), publishes it as the
//!    read snapshot — a read sees whole batches, never halves — and acknowledges each batch
//!    once it is durable locally.  The database checkpoints itself in the background, as a
//!    primary's does, and an operator's `Checkpoint` request checkpoints it too.
//! 3. **Reconnect** — a dropped primary connection is retried with a fixed backoff, resuming
//!    from the end of the replica's log; a crash mid-batch keeps a prefix of whole commits and
//!    the rest is simply shipped again.
//! 4. **Promotion** — runs on the thread that asked for it.  It takes the stepping mutex from
//!    the apply thread (an abort flag unblocks the feed read), fences the old primary, drains
//!    the shipped tail and flips the node's role; the served database turns primary in place
//!    and keeps numbering the same log.
//!
//! The initial sync, the stream and a promotion's drain take each batch through the same step
//! (`ReplicaState::step`): apply, publish and record the progress on the serving
//! [`SeedServer`], where the node handle, the status and the health probe read it, then
//! acknowledge.
//!
//! `docs/OPERATIONS.md` is the runbook for running these in production.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use seed_core::{Database, LogFeed};
use seed_server::{PromotionReceipt, SeedServer, ServerError, ServerResult};

use crate::client::RemoteClient;
use crate::server::SeedNetServer;
use crate::wire::{read_frame, write_frame, Ack, FrameKind, Hello, LogBatch, Subscribe, Welcome};

/// The agent string a replica sends to its primary in the handshake.
const AGENT: &str = concat!("seed-replica/", env!("CARGO_PKG_VERSION"));

/// Tuning knobs of a replica node.  Its own read-serving frontend runs with
/// [`crate::NetServerConfig::default`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Delay between reconnection attempts after the primary connection drops.
    pub reconnect_backoff: Duration,
    /// Upper bound on connect + handshake + first batch, and on each step of a promotion's
    /// fence (connect, handshake, the `Promote` answer); a primary that accepts the TCP
    /// connection but never answers fails `ReplicaNode::start`, or counts as unreachable to a
    /// promotion, instead of hanging it.
    pub connect_timeout: Duration,
    /// How many consecutive failed reconnection attempts the stream tolerates before it stops
    /// hammering the primary's address and idles — still serving reads from the last applied
    /// state, still stoppable, still promotable.  Each attempt bumps `repl_reconnect_total`;
    /// hitting the cap emits one `Warn` event.  A promotion attempt resets the count (the cap
    /// is per topology epoch).
    pub max_reconnect_attempts: u32,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            reconnect_backoff: Duration::from_millis(200),
            connect_timeout: Duration::from_secs(10),
            max_reconnect_attempts: 120,
        }
    }
}

/// One connection to the primary's replication stream.
struct Feed {
    stream: TcpStream,
    /// Armed during connect/handshake/initial batch so a peer that accepts the TCP connection
    /// but never answers cannot block forever; cleared once the stream is live.
    deadline: Option<std::time::Instant>,
}

/// How often a blocked feed read wakes up to check the stop flag.
const FEED_POLL: Duration = Duration::from_millis(50);

/// Replica-side replication metric handles, registered once on first use.  `repl_ack_lag` is
/// the commits-behind gauge (`primary_lsn − applied_lsn`) — the one number a health check or a
/// dashboard should watch instead of polling `PersistenceStatus` in a loop.
struct ReplMetrics {
    batches_applied: seed_obs::Counter,
    resets: seed_obs::Counter,
    reconnects: seed_obs::Counter,
    ack_lag: seed_obs::Gauge,
}

fn repl_metrics() -> &'static ReplMetrics {
    static METRICS: std::sync::OnceLock<ReplMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = seed_obs::global();
        ReplMetrics {
            batches_applied: r.counter("repl_batches_applied_total"),
            resets: r.counter("repl_resets_total"),
            reconnects: r.counter("repl_reconnect_total"),
            ack_lag: r.gauge("repl_ack_lag"),
        }
    })
}

impl Feed {
    /// Connects, handshakes as a replica and subscribes with the position of a log that ends
    /// at `(lsn, epoch)` ([`Database::log_end`]).  Everything up to (and including) the
    /// first frame read is bounded by `timeout`.
    fn open(
        primary: SocketAddr,
        (lsn, epoch): (u64, u64),
        timeout: Duration,
    ) -> ServerResult<Self> {
        let transport = |e: std::io::Error| ServerError::Transport(e.to_string());
        let stream = TcpStream::connect_timeout(&primary, timeout).map_err(transport)?;
        stream.set_nodelay(true).map_err(transport)?;
        stream.set_read_timeout(Some(FEED_POLL)).map_err(transport)?;
        let mut feed = Self { stream, deadline: Some(std::time::Instant::now() + timeout) };
        write_frame(&mut feed.stream, FrameKind::Hello, &Hello::replica(AGENT).encode())?;
        let never = AtomicBool::new(false);
        Welcome::from_answer(&feed.read_frame_blocking(&never, &never)?)?;
        let subscribe = Subscribe { from_lsn: lsn + 1, epoch };
        write_frame(&mut feed.stream, FrameKind::Subscribe, &subscribe.encode())?;
        Ok(feed)
    }

    /// Reads one frame, turning read timeouts into stop-flag polls (a mid-frame timeout keeps
    /// accumulating bytes; see the server-side `PollRead` for the same idea).  `abort` is the
    /// promotion pre-empt: a running promotion must not wait behind a blocked read.
    fn read_frame_blocking(
        &mut self,
        stop: &AtomicBool,
        abort: &AtomicBool,
    ) -> ServerResult<crate::wire::Frame> {
        struct PollStream<'a> {
            inner: &'a TcpStream,
            stop: &'a AtomicBool,
            abort: &'a AtomicBool,
            deadline: Option<std::time::Instant>,
        }
        impl std::io::Read for PollStream<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                loop {
                    match std::io::Read::read(&mut self.inner, buf) {
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            if self.stop.load(Ordering::SeqCst) {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::ConnectionAborted,
                                    "replica shutting down",
                                ));
                            }
                            if self.abort.load(Ordering::SeqCst) {
                                // NOT `Interrupted`: `read_exact` retries that kind forever.
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::ConnectionAborted,
                                    "a promotion order pre-empted the stream",
                                ));
                            }
                            if self.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::TimedOut,
                                    "primary did not answer within the connect timeout",
                                ));
                            }
                        }
                        other => return other,
                    }
                }
            }
        }
        read_frame(&mut PollStream { inner: &self.stream, stop, abort, deadline: self.deadline })
            .map_err(ServerError::from)
    }

    /// Waits for the next log batch (Reject ends the stream with its reason).
    fn next_batch(&mut self, stop: &AtomicBool, abort: &AtomicBool) -> ServerResult<LogBatch> {
        let frame = self.read_frame_blocking(stop, abort)?;
        match frame.kind {
            FrameKind::LogBatch => Ok(LogBatch::decode(&frame.payload)?),
            FrameKind::Reject => {
                Err(ServerError::Protocol(String::from_utf8_lossy(&frame.payload).into_owned()))
            }
            other => Err(ServerError::Protocol(format!("expected a log batch, got {other:?}"))),
        }
    }

    /// Acknowledges local durability up to `applied_lsn`.
    fn ack(&mut self, applied_lsn: u64) -> ServerResult<()> {
        write_frame(&mut self.stream, FrameKind::Ack, &Ack { applied_lsn }.encode())?;
        Ok(())
    }
}

/// What the apply thread and a promotion share.  Whichever of them steps the served database
/// holds the stepping mutex, so a promotion waits for at most one batch in flight.
struct ReplicaState {
    /// Promotion attempts so far.  A feed opened under an older count may hold a batch that a
    /// promotion's drain has since applied past, so the apply thread drops such a feed.
    promotions: Mutex<u64>,
    /// Raised while a promotion runs: a second order is refused at once, and the apply
    /// thread's blocked feed read gives way.
    promoting: AtomicBool,
    primary: SocketAddr,
    connect_timeout: Duration,
    /// Reset (full-snapshot) batches applied since this node started — a replica that catches
    /// up from the primary's retained log keeps this at zero.
    resets: AtomicU64,
    /// Cumulative per-item records patched onto the serving database by incremental batches —
    /// grows with the shipped deltas, not with batches × database size.
    items_applied: AtomicU64,
}

impl ReplicaState {
    fn lock(&self) -> MutexGuard<'_, u64> {
        self.promotions.lock().expect("a replica step panicked while holding the stepping mutex")
    }

    /// Counts one applied batch: a reset, or an incremental batch that patched `items`
    /// records.
    fn count(&self, reset: bool, items: usize) {
        let metrics = repl_metrics();
        metrics.batches_applied.inc();
        if reset {
            self.resets.fetch_add(1, Ordering::SeqCst);
            metrics.resets.inc();
        } else {
            self.items_applied.fetch_add(items as u64, Ordering::SeqCst);
        }
    }

    /// One replica step, the same for the initial sync, the stream and a promotion's drain:
    /// applies `batch` to the database `core` serves — a heartbeat (no records, nothing new)
    /// applies nothing — records the progress there and acknowledges the durable end of log on
    /// `feed`.  A batch that fails to decode or to commit changes nothing and is refused with
    /// [`ServerError::Rejected`].
    fn step(&self, core: &SeedServer, feed: &mut Feed, batch: LogBatch) -> ServerResult<()> {
        let LogBatch { reset, last_lsn, primary_lsn, records, .. } = batch;
        let (applied, items) = core.advance_replica(primary_lsn, |db| {
            let heartbeat = records.is_empty() && !reset && last_lsn <= db.log_end().0;
            (!heartbeat).then(|| db.apply_batch(records, last_lsn, reset)).transpose()
        })?;
        if let Some(items) = items {
            self.count(reset, items);
        }
        repl_metrics().ack_lag.set(primary_lsn.saturating_sub(applied) as i64);
        feed.ack(applied)
    }

    /// The apply thread's step for a `batch` read from a feed opened under `opened_under`
    /// promotion attempts.  False when the feed must go: its connection failed, or a promotion
    /// ran since the feed opened — the promotion's drain may have applied past this batch, and
    /// applying it would move the cursor and the served state backwards.
    fn step_fed(
        &self,
        core: &SeedServer,
        feed: &mut Feed,
        opened_under: u64,
        batch: LogBatch,
    ) -> bool {
        let promotions = self.lock();
        *promotions == opened_under && self.step(core, feed, batch).is_ok()
    }

    /// The apply thread: streams batches into the served database until the node stops or is
    /// promoted.  A dropped connection is re-opened from the end of the log after a fixed
    /// `backoff`, at most `max_attempts` times in a row per promotion attempt; past that the
    /// thread idles, still serving reads and still promotable.
    fn stream(
        &self,
        core: &SeedServer,
        stop: &AtomicBool,
        feed: Feed,
        backoff: Duration,
        max_attempts: u32,
    ) {
        // The live feed and the promotion count it was opened under.
        let mut feed = Some((feed, 0));
        let (mut failed_attempts, mut promotions_seen) = (0, 0);
        while !stop.load(Ordering::SeqCst) {
            let (mut live, opened_under) = match feed.take() {
                Some(live) => live,
                None => {
                    let (log_end, promotions) = {
                        let promotions = self.lock();
                        if core.replica_of().is_none() {
                            return; // promoted: as a primary the node has nothing to stream
                        }
                        (core.with_database(Database::log_end), *promotions)
                    };
                    if promotions != promotions_seen {
                        (failed_attempts, promotions_seen) = (0, promotions);
                    }
                    if failed_attempts >= max_attempts {
                        std::thread::sleep(FEED_POLL);
                        continue;
                    }
                    match Feed::open(self.primary, log_end, self.connect_timeout) {
                        Ok(live) => {
                            failed_attempts = 0;
                            (live, promotions)
                        }
                        Err(_) => {
                            failed_attempts += 1;
                            repl_metrics().reconnects.inc();
                            if failed_attempts < max_attempts {
                                std::thread::sleep(backoff);
                            } else {
                                seed_obs::global().events().emit(
                                    seed_obs::Level::Warn,
                                    "repl",
                                    "giving up reconnecting to the primary; \
                                     idling until stopped or promoted",
                                    &[
                                        ("primary", self.primary.to_string()),
                                        ("attempts", failed_attempts.to_string()),
                                    ],
                                );
                            }
                            continue;
                        }
                    }
                }
            };
            // Step batches until the connection drops, the node stops or a promotion runs.
            while let Ok(batch) = live.next_batch(stop, &self.promoting) {
                live.deadline = None;
                if !self.step_fed(core, &mut live, opened_under, batch) {
                    break;
                }
            }
            if !stop.load(Ordering::SeqCst) && !self.promoting.load(Ordering::SeqCst) {
                std::thread::sleep(backoff);
            }
        }
    }

    /// Everything fallible that must happen *before* the role flip of a promotion: the epoch
    /// freshness check, fencing the old primary, draining the shipped tail up to the fenced
    /// primary's final LSN.  Leaves the database consistent on failure so the node resumes its
    /// replica role.
    fn prepare_promotion(
        &self,
        core: &SeedServer,
        epoch: u64,
        new_primary: &str,
    ) -> ServerResult<()> {
        let current = core.topology_epoch();
        if epoch <= current {
            return Err(ServerError::Protocol(format!(
                "stale promotion epoch {epoch}: this replica is already at epoch {current}"
            )));
        }
        // Fence the old primary.  Three outcomes:
        //  - a `Promoted` receipt: this promotion won the compare-and-swap on the primary; its
        //    `last_lsn` is the final write the old log will ever hold — drain up to it.
        //  - `Fenced` (or any other rejection): a concurrent promotion won first; abort, stay a
        //    replica.
        //  - unreachable: a dead primary cannot be fenced, and whatever it committed beyond the
        //    shipped tail is lost with it — the documented failover data-loss boundary.  One
        //    that accepts the connection but does not answer within the connect timeout counts
        //    as unreachable too, so it cannot hold the promotion.
        let fence = "seed-replica promotion fence";
        let drain_to = match RemoteClient::connect_within(self.primary, fence, self.connect_timeout)
        {
            Ok(mut fencer) => match fencer.promote(epoch, new_primary) {
                Ok(receipt) => Some(receipt.last_lsn),
                Err(ServerError::Transport(_)) | Err(ServerError::Disconnected) => None,
                Err(e) => return Err(e),
            },
            Err(_) => None,
        };
        if let Some(target) = drain_to {
            // The fence succeeded, so the old primary was alive a moment ago and fencing does
            // not block its replication feed — drain the tail so no write it acknowledged is
            // lost.
            let never = AtomicBool::new(false);
            let deadline = std::time::Instant::now() + self.connect_timeout;
            let log_end = || core.with_database(Database::log_end);
            'drain: while log_end().0 < target && std::time::Instant::now() < deadline {
                let Ok(mut feed) = Feed::open(self.primary, log_end(), self.connect_timeout) else {
                    break;
                };
                while log_end().0 < target {
                    let Ok(batch) = feed.next_batch(&never, &never) else { continue 'drain };
                    match self.step(core, &mut feed, batch) {
                        Err(rejected @ ServerError::Rejected(_)) => return Err(rejected),
                        Err(_) => continue 'drain,
                        Ok(()) => {}
                    }
                }
            }
            let applied = log_end().0;
            if applied < target {
                // The primary died between the fence and the drain.  Refusing here is the safe
                // default: the old primary is fenced but its acknowledged tail is unreachable,
                // and the operator must send the promotion again (a retry against a now-dead
                // primary skips the drain and accepts the loss explicitly).
                return Err(ServerError::Transport(format!(
                    "fenced the primary at epoch {epoch} but lost it before draining its tail: \
                     applied {applied} of {target}"
                )));
            }
        }
        Ok(())
    }
}

/// A promotion runs on the thread that asked for it (a request-serving shard, or the caller
/// of [`ReplicaNode::promote`]): it raises the abort flag so the apply thread lets go of the
/// stepping mutex, takes it, fences and drains, then flips the node to the primary role while
/// still holding it — the apply thread, which checks the role under the same mutex, ends.
impl seed_server::Promoter for ReplicaState {
    fn promote(&self, core: &SeedServer, epoch: u64, new_primary: &str) -> ServerResult<()> {
        if self.promoting.swap(true, Ordering::SeqCst) {
            return Err(ServerError::Protocol(
                "another promotion is already in progress on this replica".into(),
            ));
        }
        let mut promotions = self.lock();
        *promotions += 1;
        let flipped = self
            .prepare_promotion(core, epoch, new_primary)
            .and_then(|()| core.become_primary(epoch));
        match &flipped {
            Ok(_) => {
                repl_metrics().ack_lag.set(0);
                seed_obs::global().events().emit(
                    seed_obs::Level::Info,
                    "repl",
                    "promoted to primary",
                    &[("epoch", epoch.to_string())],
                );
            }
            // Lost the race, or could not fence/drain: stay a replica.
            Err(_) => self.promoting.store(false, Ordering::SeqCst),
        }
        flipped
    }
}

/// What a primary-side replication session should do at this poll tick, as planned by
/// [`cut_shipment`] on the shard that owns the session.  That shard's event loop in
/// [`crate::server`] also owns the framing (the [`Subscribe`] opener, [`Ack`] consumption, the
/// one-batch-in-flight flow control); this is the database side of one tick.
pub(crate) enum ShipmentPlan {
    /// A storage error reading the tail or the reset cut; end the session.
    End,
    /// Caught up, the prompt answer already went out and no heartbeat is due: send nothing.
    Idle,
    /// Ship this batch and await the replica's ack.
    Batch(LogBatch),
}

/// Cuts what a replication session at cursor `next` should ship — the primary side of the
/// Subscribe/LogBatch/Ack session, run inline by the shard that owns the session.
///
/// The cursor is driven by the **acks** (`next = acked + 1`), so a batch the replica never made
/// durable is simply cut again.  `answer_now` is set for the first tick after the subscribe —
/// the opener deserves a position sync even when there is nothing to ship — and idle periods
/// are bridged by heartbeat batches (`heartbeat_due`, paced by the server's one-second
/// heartbeat interval).  A cursor the WAL does not hold (the replica outslept the retention
/// budget, or the subscribe found that this log does not continue the replica's, cursor 0) is
/// answered with a reset batch: the primary's files from the start, its snapshot's commits and
/// then its log ([`seed_core::LogFeed::replication_cut`]).
///
/// `log` is the handle the session cloned at subscribe; the durable LSN, the tail and the cut
/// are read through it with no database lock held, so a reset cut never stalls a check-in.
/// The engine orders each read against commits and checkpoints itself.  What keeps a
/// checkpoint from pruning the tail a session is about to read is the retention floor: the
/// cursor is registered as an ack at subscribe time, before the first batch ships, and every
/// ack moves it.  A tail the budget could not retain reads as truncated and is answered with a
/// reset.
pub(crate) fn cut_shipment(
    log: &LogFeed,
    next: u64,
    answer_now: bool,
    heartbeat_due: bool,
) -> ShipmentPlan {
    // Caught-up check first: the durable LSN is a counter read, so an idle poll tick never
    // touches the WAL files (a tail read reads the new frames from disk).
    let durable = log.durable_lsn();
    if durable + 1 == next {
        if !answer_now && !heartbeat_due {
            return ShipmentPlan::Idle;
        }
        // Heartbeat (or the immediate answer to the subscribe): nothing to ship, just the
        // primary's position.
        return ShipmentPlan::Batch(LogBatch {
            reset: false,
            first_lsn: 0,
            last_lsn: next - 1,
            primary_lsn: durable,
            records: Vec::new(),
        });
    }
    let batch = match log.wal_tail(next) {
        Ok(seed_storage::WalTail::Records(records)) => {
            let first = records.first().map(|(lsn, _)| *lsn).unwrap_or(0);
            let last = records.last().map(|(lsn, _)| *lsn).unwrap_or(next - 1);
            LogBatch {
                reset: false,
                first_lsn: first,
                last_lsn: last,
                primary_lsn: durable.max(last),
                records: records.into_iter().map(|(_, record)| record).collect(),
            }
        }
        Ok(seed_storage::WalTail::Truncated { .. }) => match log.replication_cut() {
            Ok((records, lsn)) => {
                LogBatch { reset: true, first_lsn: 0, last_lsn: lsn, primary_lsn: lsn, records }
            }
            Err(_) => return ShipmentPlan::End,
        },
        Err(_) => return ShipmentPlan::End,
    };
    ShipmentPlan::Batch(batch)
}

/// A running read-only replica: replication stream in, read-serving TCP listener out.
pub struct ReplicaNode {
    net: Option<SeedNetServer>,
    core: Arc<SeedServer>,
    state: Arc<ReplicaState>,
    stop: Arc<AtomicBool>,
    apply_thread: Option<JoinHandle<()>>,
}

impl ReplicaNode {
    /// Starts a replica with default configuration: database in `dir`, stream from `primary`,
    /// reads served on `listen` (use `"127.0.0.1:0"` to let the OS pick a port).  Blocks until
    /// the initial sync is applied — when this returns, the node answers reads.
    pub fn start(
        dir: impl AsRef<std::path::Path>,
        primary: impl ToSocketAddrs,
        listen: impl ToSocketAddrs,
    ) -> ServerResult<Self> {
        Self::with_config(dir, primary, listen, ReplicaConfig::default())
    }

    /// Like [`ReplicaNode::start`], with explicit tuning.
    pub fn with_config(
        dir: impl AsRef<std::path::Path>,
        primary: impl ToSocketAddrs,
        listen: impl ToSocketAddrs,
        config: ReplicaConfig,
    ) -> ServerResult<Self> {
        let transport = |e: std::io::Error| ServerError::Transport(e.to_string());
        let primary =
            primary.to_socket_addrs().map_err(transport)?.next().ok_or_else(|| {
                ServerError::Transport("primary address resolves to nothing".into())
            })?;
        let opened = Database::open_replica(dir).map_err(ServerError::Rejected)?;
        let state = Arc::new(ReplicaState {
            promotions: Mutex::new(0),
            promoting: AtomicBool::new(false),
            primary,
            connect_timeout: config.connect_timeout,
            resets: AtomicU64::new(0),
            items_applied: AtomicU64::new(0),
        });

        // Initial sync: subscribe from the end of the log and apply the first batch — the
        // primary answers immediately (a reset when its log does not hold our next LSN or does
        // not continue our log).  A directory that holds no database yet builds it from that
        // batch, which leaves only its acknowledgement to step.
        let log_end =
            opened.as_ref().map_or_else(|engine| (engine.durable_lsn(), 0), Database::log_end);
        let never_stop = AtomicBool::new(false);
        let mut feed = Feed::open(primary, log_end, config.connect_timeout)?;
        let mut batch = feed.next_batch(&never_stop, &never_stop)?;
        feed.deadline = None; // the stream is live; only shutdown unblocks it from here on
        let db = match opened {
            Ok(db) => db,
            Err(engine) => {
                let records = std::mem::take(&mut batch.records);
                let db = Database::from_first_batch(engine, records, batch.last_lsn, batch.reset)
                    .map_err(ServerError::Rejected)?;
                state.count(std::mem::take(&mut batch.reset), 0);
                db
            }
        };
        let core = SeedServer::new(db);
        core.become_replica(primary.to_string(), state.clone());
        state.step(&core, &mut feed, batch)?;
        let net =
            SeedNetServer::bind(core, listen).map_err(|e| ServerError::Transport(e.to_string()))?;
        let core = net.core();
        let stop = Arc::new(AtomicBool::new(false));
        let apply_thread = {
            let (state, core, stop) = (state.clone(), core.clone(), stop.clone());
            let (backoff, max_attempts) =
                (config.reconnect_backoff, config.max_reconnect_attempts.max(1));
            std::thread::spawn(move || state.stream(&core, &stop, feed, backoff, max_attempts))
        };
        Ok(Self { net: Some(net), core, state, stop, apply_thread: Some(apply_thread) })
    }

    /// The address this replica serves reads on.
    pub fn local_addr(&self) -> SocketAddr {
        self.net.as_ref().expect("listener lives until shutdown").local_addr()
    }

    /// The replica's serving core (for in-process inspection and tests).
    pub fn core(&self) -> Arc<SeedServer> {
        self.core.clone()
    }

    /// Last primary LSN applied durably on this replica: the end of its log (0 once promoted:
    /// a primary reports no replica progress).
    pub fn applied_lsn(&self) -> u64 {
        self.core.replica_progress().map_or(0, |(applied, _)| applied)
    }

    /// The primary's end of log as last observed (heartbeats keep this fresh when idle).
    pub fn primary_lsn(&self) -> u64 {
        self.core.replica_progress().map_or(0, |(_, primary)| primary)
    }

    /// Reset (full-snapshot) batches this node has applied since it started — zero means every
    /// batch so far was an incremental log catch-up.
    pub fn resets_applied(&self) -> u64 {
        self.state.resets.load(Ordering::SeqCst)
    }

    /// Cumulative count of per-item records patched onto the serving database by incremental
    /// batches.  Proportional to the shipped deltas (what the primary actually committed), not
    /// to batches × database size — the observable that replica apply is O(delta) per batch.
    pub fn items_applied(&self) -> u64 {
        self.state.items_applied.load(Ordering::SeqCst)
    }

    /// Orders this node to take over as primary under topology epoch `epoch` — the in-process
    /// equivalent of sending `Request::Promote` to its listener.  `new_primary` is the address
    /// clients should be told to write to from now on (normally this node's own
    /// [`local_addr`](Self::local_addr)).  The promotion runs on the calling thread, which
    /// blocks until the role change completes: the old primary is fenced (when reachable), the
    /// shipped tail drained, the role flipped.  On success the node serves writes and its own
    /// replication feed.  A second order while one runs is refused at once.
    pub fn promote(&self, epoch: u64, new_primary: &str) -> ServerResult<PromotionReceipt> {
        self.core.promote(epoch, new_primary)
    }

    /// Polls until this replica has applied at least `lsn` (true) or `timeout` passes (false).
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.applied_lsn() < lsn {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Stops the stream and the read listener, waiting for both threads.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(handle) = self.apply_thread.take() {
            let _ = handle.join();
        }
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RemoteClient;
    use crate::wire::Subscribe;
    use seed_core::Database;
    use seed_schema::figure3_schema;
    use seed_server::{ReplicationRole, Update};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(name: &str) -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("seed-net-replication-{}-{name}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_primary(dir: &std::path::Path) -> SeedNetServer {
        let db = Database::create_durable(dir, figure3_schema()).unwrap();
        SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").unwrap()
    }

    fn primary_lsn(net: &SeedNetServer) -> u64 {
        net.core().with_database(|db| db.durable_lsn().unwrap())
    }

    #[test]
    fn replicas_converge_serve_reads_and_redirect_writes() {
        let primary_dir = temp_dir("conv-primary");
        let replica_dirs = [temp_dir("conv-r1"), temp_dir("conv-r2")];
        let primary = durable_primary(&primary_dir);
        let addr = primary.local_addr();

        // Writes land on the primary before and after the replicas subscribe.
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Early".into() }])
            .unwrap();
        let replicas: Vec<ReplicaNode> = replica_dirs
            .iter()
            .map(|dir| ReplicaNode::start(dir, addr, "127.0.0.1:0").unwrap())
            .collect();
        writer
            .checkin(vec![
                Update::CreateObject { class: "Data".into(), name: "Alarms".into() },
                Update::CreateObject { class: "Action".into(), name: "Sensor".into() },
                Update::CreateRelationship {
                    association: "Access".into(),
                    bindings: vec![
                        ("from".into(), "Alarms".into()),
                        ("by".into(), "Sensor".into()),
                    ],
                },
            ])
            .unwrap();
        let target = primary_lsn(&primary);
        for replica in &replicas {
            assert!(replica.wait_for_lsn(target, Duration::from_secs(10)), "replica lagged out");
        }

        // Every replica answers the read surface with the primary's answers.
        let mut primary_client = RemoteClient::connect(addr).unwrap();
        let expected = primary_client.query("find Data").unwrap();
        for replica in &replicas {
            let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
            assert_eq!(client.query("find Data").unwrap(), expected);
            assert_eq!(client.retrieve("Early").unwrap().name.to_string(), "Early");
            assert_eq!(client.objects_of_class("Action", true).unwrap().len(), 1);
            assert_eq!(client.relationship_count("Access", true).unwrap(), 1);
            assert!(client.schema().unwrap().class_id("Data").is_ok());
            // Writes are redirected to the primary, with its address in the error.
            match client.checkout(&["Alarms"]).unwrap_err() {
                ServerError::ReadOnlyReplica { primary } => {
                    assert_eq!(primary, addr.to_string());
                }
                other => panic!("expected a redirect, got {other:?}"),
            }
            // Replication progress is observable over the wire.
            let status = client.persistence().unwrap().replication;
            assert_eq!(status.role, ReplicationRole::Replica);
            assert_eq!(status.lag(), 0, "caught-up replica reports zero lag");
            assert_eq!(
                status.snapshot_lsn, status.applied_lsn,
                "the serving snapshot is keyed to the applied cursor"
            );
        }
        // The primary reports its subscribers.
        let status = primary_client.persistence().unwrap().replication;
        assert_eq!(status.role, ReplicationRole::Primary);
        assert_eq!(status.subscribers, 2);

        // The read-preferred client fans reads across replicas and writes to the primary.
        let replica_addrs: Vec<_> = replicas.iter().map(|r| r.local_addr()).collect();
        let mut fanout = RemoteClient::connect_read_preferred(addr, &replica_addrs).unwrap();
        assert_eq!(fanout.replica_count(), 2);
        fanout
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "ViaFanout".into() }])
            .unwrap();
        let target = primary_lsn(&primary);
        for replica in &replicas {
            assert!(replica.wait_for_lsn(target, Duration::from_secs(10)));
        }
        for _ in 0..4 {
            assert_eq!(fanout.retrieve("ViaFanout").unwrap().name.to_string(), "ViaFanout");
        }
        fanout.close().unwrap();

        for replica in replicas {
            replica.shutdown();
        }
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        for dir in replica_dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A replica serves one durable database, as a primary does: over TCP its persistence
    /// status names its own directory and WAL, and a `Checkpoint` request checkpoints its own
    /// log.
    #[test]
    fn a_replica_reports_its_durable_directory_and_checkpoints_its_own_log() {
        let primary_dir = temp_dir("durable-primary");
        let replica_dir = temp_dir("durable-replica");
        let primary = durable_primary(&primary_dir);
        let mut writer = RemoteClient::connect(primary.local_addr()).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Kept".into() }])
            .unwrap();
        let replica =
            ReplicaNode::start(&replica_dir, primary.local_addr(), "127.0.0.1:0").unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));

        let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
        let status = client.persistence().unwrap();
        assert!(status.durable, "a replica's database is durable");
        assert_eq!(status.path, Some(replica_dir.display().to_string()));
        assert!(status.wal_bytes > 0, "the replica's log holds the shipped commits");
        assert_eq!(status.replication.role, ReplicationRole::Replica);

        assert!(!replica_dir.join("snapshot.db").exists(), "no checkpoint yet");
        client.checkpoint().unwrap();
        let image = std::fs::read(replica_dir.join("snapshot.db")).unwrap();
        assert_eq!(image[8..16], replica.applied_lsn().to_le_bytes(), "the image covers the log");
        assert_eq!(client.retrieve("Kept").unwrap().name.to_string(), "Kept");
        replica.shutdown();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// A replica does not serve replication: a `Subscribe` to it is refused with the address
    /// of the primary to subscribe to instead.
    #[test]
    fn a_replica_refuses_a_subscribe_naming_its_primary() {
        let primary_dir = temp_dir("chain-primary");
        let replica_dir = temp_dir("chain-replica");
        let primary = durable_primary(&primary_dir);
        let replica =
            ReplicaNode::start(&replica_dir, primary.local_addr(), "127.0.0.1:0").unwrap();
        let never = AtomicBool::new(false);
        let err = Feed::open(replica.local_addr(), (0, 0), Duration::from_secs(5))
            .and_then(|mut feed| feed.next_batch(&never, &never))
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("is a replica"), "{message}");
        assert!(message.contains(&primary.local_addr().to_string()), "{message}");
        replica.shutdown();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn replica_restart_within_retention_budget_catches_up_from_the_log() {
        let primary_dir = temp_dir("retain-primary");
        let replica_dir = temp_dir("retain-replica");
        let primary = durable_primary(&primary_dir);
        let addr = primary.local_addr();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "First".into() }])
            .unwrap();

        // A replica syncs, then goes away.  Its session retires with an ack on record, so the
        // checkpoint below retains the segments past its cursor (the outage fits the default
        // retention budget).
        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));
        let stale_cursor = replica.applied_lsn();
        replica.shutdown();

        // While it is away, the primary commits more and checkpoints past the replica's
        // cursor.
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "WhileAway".into() }])
            .unwrap();
        writer.checkpoint().unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "AfterCkpt".into() }])
            .unwrap();

        // The restarted replica catches up from the retained log — LogBatch frames, not a
        // full-snapshot reset.
        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
        assert!(replica.applied_lsn() > stale_cursor);
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));
        assert_eq!(
            replica.resets_applied(),
            0,
            "an outage within the retention budget must not force a snapshot resync"
        );
        let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
        for name in ["First", "WhileAway", "AfterCkpt"] {
            assert_eq!(client.retrieve(name).unwrap().name.to_string(), name);
        }
        assert_eq!(client.query("count Data").unwrap().count, 3);
        replica.shutdown();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn replica_past_the_retention_budget_resyncs_from_snapshot() {
        // A zero retention budget means checkpoints keep nothing for absent replicas — the
        // reconnecting replica's cursor predates the WAL base and the primary must fall back
        // to the full-snapshot reset path (and still converge).
        let primary_dir = temp_dir("ckpt-primary");
        let replica_dir = temp_dir("ckpt-replica");
        let config = seed_storage::EngineConfig {
            wal: seed_storage::WalConfig { retention_budget_bytes: 0, ..Default::default() },
            ..seed_storage::EngineConfig::default()
        };
        let db = Database::create_durable_with(&primary_dir, figure3_schema(), config).unwrap();
        let primary = SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").unwrap();
        let addr = primary.local_addr();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "First".into() }])
            .unwrap();

        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));
        let stale_cursor = replica.applied_lsn();
        replica.shutdown();

        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "WhileAway".into() }])
            .unwrap();
        writer.checkpoint().unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "AfterCkpt".into() }])
            .unwrap();

        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
        assert!(replica.applied_lsn() > stale_cursor);
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));
        assert!(
            replica.resets_applied() >= 1,
            "a cursor past the retention budget must resync via a reset snapshot"
        );
        let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
        for name in ["First", "WhileAway", "AfterCkpt"] {
            assert_eq!(client.retrieve(name).unwrap().name.to_string(), name);
        }
        assert_eq!(client.query("count Data").unwrap().count, 3);
        replica.shutdown();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn replica_reconnects_after_losing_the_primary() {
        let primary_dir = temp_dir("reconnect-primary");
        let replica_dir = temp_dir("reconnect-replica");
        let primary = durable_primary(&primary_dir);
        let addr = primary.local_addr();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "BeforeLoss".into() }])
            .unwrap();
        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));

        // The primary restarts on the same durable directory and the same port.
        primary.shutdown();
        let db = Database::open_durable(&primary_dir).unwrap();
        let primary = SeedNetServer::bind(SeedServer::new(db), addr).unwrap();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "AfterLoss".into() }])
            .unwrap();

        // The replica's reconnect loop picks the stream back up from its durable cursor.
        assert!(
            replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)),
            "replica must reconnect and catch up"
        );
        let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
        assert!(client.retrieve("BeforeLoss").is_ok());
        assert!(client.retrieve("AfterLoss").is_ok());
        replica.shutdown();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn replica_ahead_of_a_shorter_log_rebinds_downwards_instead_of_looping() {
        // A replica synced far into primary A must be able to follow a primary whose log is
        // *shorter* (restored from backup / recreated): the reset snapshot rebinds the cursor
        // downwards via the ack, and the stream converges instead of re-shipping the snapshot
        // forever.
        let old_primary_dir = temp_dir("rebind-old-primary");
        let new_primary_dir = temp_dir("rebind-new-primary");
        let replica_dir = temp_dir("rebind-replica");
        let primary = durable_primary(&old_primary_dir);
        let addr = primary.local_addr();
        let mut writer = RemoteClient::connect(addr).unwrap();
        for i in 0..10 {
            writer
                .checkin(vec![Update::CreateObject {
                    class: "Data".into(),
                    name: format!("Old{i}"),
                }])
                .unwrap();
        }
        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));
        let high_cursor = replica.applied_lsn();
        replica.shutdown();
        primary.shutdown();

        // A brand-new primary on the same address, with a much shorter log.
        let db = Database::create_durable(&new_primary_dir, figure3_schema()).unwrap();
        let primary = SeedNetServer::bind(SeedServer::new(db), addr).unwrap();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Fresh".into() }])
            .unwrap();
        let target = primary_lsn(&primary);
        assert!(target < high_cursor, "the new log must really be shorter");

        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
        assert!(replica.applied_lsn() <= target, "the cursor rebound downwards");
        let mut reader = RemoteClient::connect(replica.local_addr()).unwrap();
        assert!(reader.retrieve("Fresh").is_ok());
        assert!(reader.retrieve("Old0").is_err(), "old-log state was reset away");
        // And the stream keeps converging afterwards (it is not stuck in a snapshot loop).
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "After".into() }])
            .unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));
        assert!(reader.retrieve("After").is_ok());
        replica.shutdown();
        primary.shutdown();
        for dir in [&old_primary_dir, &new_primary_dir, &replica_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The reset cut reads the primary's files with no database lock held: it completes while
    /// another thread holds the database write lock (a check-in in progress).  The wait is
    /// bounded, so a cut that does take the lock fails here instead of hanging.
    #[test]
    fn a_reset_cut_completes_while_the_database_write_lock_is_held() {
        let dir = temp_dir("unlocked-cut");
        let db = Database::create_durable(&dir, figure3_schema()).unwrap();
        let core = Arc::new(SeedServer::new(db));
        let log = core.with_database_mut(|db| {
            db.create_object("Data", "Cut").unwrap();
            db.checkpoint().unwrap(); // LSN 1 is pruned: cursor 1 is answered with a reset
            db.log_feed().unwrap() // what a session clones at subscribe
        });
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let core = core.clone();
            std::thread::spawn(move || {
                core.with_database_mut(|_| {
                    entered_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
            })
        };
        entered.recv().unwrap();
        let (cut_tx, cut) = std::sync::mpsc::channel();
        let cutter = {
            std::thread::spawn(move || {
                let reset = match cut_shipment(&log, 1, true, false) {
                    ShipmentPlan::Batch(batch) => batch.reset && !batch.records.is_empty(),
                    _ => false,
                };
                let _ = cut_tx.send(reset);
            })
        };
        let outcome = cut.recv_timeout(Duration::from_secs(5));
        release.send(()).unwrap();
        holder.join().unwrap();
        cutter.join().unwrap();
        assert_eq!(outcome, Ok(true), "the reset cut waited for the database write lock");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reconnects_are_capped_and_a_given_up_replica_is_still_promotable() {
        let primary_dir = temp_dir("cap-primary");
        let replica_dir = temp_dir("cap-replica");
        let primary = durable_primary(&primary_dir);
        let addr = primary.local_addr();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Kept".into() }])
            .unwrap();
        let config = ReplicaConfig {
            reconnect_backoff: Duration::from_millis(5),
            max_reconnect_attempts: 3,
            ..ReplicaConfig::default()
        };
        let replica = ReplicaNode::with_config(&replica_dir, addr, "127.0.0.1:0", config).unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));

        // The primary dies for good.  The replica burns through its capped attempts, warns
        // once, and idles instead of hammering the dead address forever.  The count is taken
        // first: the attempts start as soon as the primary's socket closes.
        let reconnects_before =
            seed_obs::global().snapshot().counter("repl_reconnect_total").unwrap_or(0);
        primary.shutdown();
        if seed_obs::recording_compiled_in() {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                let warned = seed_obs::global().events().recent().iter().any(|e| {
                    e.level == seed_obs::Level::Warn && e.message.contains("giving up reconnecting")
                });
                if warned {
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "the give-up warning never came");
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(
                seed_obs::global().snapshot().counter("repl_reconnect_total").unwrap_or(0)
                    >= reconnects_before + 3,
                "each failed attempt must bump repl_reconnect_total"
            );
        } else {
            // Recording is compiled out; give the capped attempts time to burn through.
            std::thread::sleep(Duration::from_millis(500));
        }
        // Still serving reads from the last applied state.
        let mut reader = RemoteClient::connect(replica.local_addr()).unwrap();
        assert_eq!(reader.retrieve("Kept").unwrap().name.to_string(), "Kept");

        // And still promotable: the dead primary cannot be fenced, so the promotion proceeds
        // with the shipped tail, and the node starts taking writes.
        let receipt = replica.promote(1, &replica.local_addr().to_string()).unwrap();
        assert_eq!(receipt.epoch, 1);
        let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
        client
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "PostPromo".into() }])
            .unwrap();
        assert_eq!(client.query("count Data").unwrap().count, 2);
        let health = client.health().unwrap();
        assert_eq!(health.role, ReplicationRole::Primary);
        assert!(health.ready);
        replica.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn subscribing_to_an_in_memory_primary_is_rejected() {
        let primary =
            SeedNetServer::bind(SeedServer::new(Database::new(figure3_schema())), "127.0.0.1:0")
                .unwrap();
        let err = Feed::open(primary.local_addr(), (0, 0), Duration::from_secs(5))
            .and_then(|mut feed| feed.next_batch(&AtomicBool::new(false), &AtomicBool::new(false)))
            .unwrap_err();
        assert!(
            err.to_string().contains("in-memory"),
            "expected the in-memory rejection, got: {err}"
        );
        primary.shutdown();
    }

    /// A replica checks the welcome's version as a client does: a primary that welcomes
    /// another protocol version fails the start and gets no subscribe.
    #[test]
    fn a_welcome_of_another_version_fails_the_replica_start() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let primary = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            assert_eq!(read_frame(&mut reader).unwrap().kind, FrameKind::Hello);
            let version = crate::wire::PROTOCOL_VERSION - 1;
            let welcome = Welcome { version, client_id: 1, banner: "older".into() };
            write_frame(&mut writer, FrameKind::Welcome, &welcome.encode()).unwrap();
            // Whatever the replica sends next, if anything before it hangs up.
            read_frame(&mut reader).ok().map(|frame| frame.kind)
        });
        let dir = temp_dir("other-version");
        let err = ReplicaNode::start(&dir, addr, "127.0.0.1:0").err().expect("start must fail");
        assert!(
            matches!(&err, ServerError::Protocol(m) if m.contains("welcomed protocol")),
            "{err}"
        );
        assert_eq!(primary.join().unwrap(), None, "no subscribe after a foreign welcome");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_plain_client_may_not_send_replication_frames() {
        let dir = temp_dir("plain-client");
        let primary = durable_primary(&dir);
        let stream = TcpStream::connect(primary.local_addr()).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = std::io::BufWriter::new(stream);
        write_frame(&mut writer, FrameKind::Hello, &Hello::current("raw").encode()).unwrap();
        assert_eq!(read_frame(&mut reader).unwrap().kind, FrameKind::Welcome);
        // A client-role session sending Subscribe gets a protocol error, not a stream.
        let subscribe = Subscribe { from_lsn: 1, epoch: 0 };
        write_frame(&mut writer, FrameKind::Subscribe, &subscribe.encode()).unwrap();
        let reply = read_frame(&mut reader).unwrap();
        assert_eq!(reply.kind, FrameKind::Response);
        assert!(matches!(
            crate::codec::decode_response(&reply.payload).unwrap(),
            Err(ServerError::Protocol(_))
        ));
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reads `feed` until a batch carrying records arrives, acknowledging heartbeats so the
    /// primary ships the next batch.
    fn next_records(feed: &mut Feed) -> LogBatch {
        let never = AtomicBool::new(false);
        loop {
            let batch = feed.next_batch(&never, &never).unwrap();
            if !batch.records.is_empty() {
                return batch;
            }
            feed.ack(batch.last_lsn).unwrap();
        }
    }

    #[test]
    fn a_batch_read_before_a_promotion_is_never_applied_after_it() {
        let primary_dir = temp_dir("stale-primary");
        let replica_dir = temp_dir("stale-replica");
        let primary = durable_primary(&primary_dir);
        let addr = primary.local_addr();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "First".into() }])
            .unwrap();
        let replica = ReplicaNode::start(&replica_dir, addr, "127.0.0.1:0").unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));
        let create =
            |name: &str| vec![Update::CreateObject { class: "Data".into(), name: name.into() }];

        // A feed opened before any promotion, holding a batch read off it: what the apply
        // thread has in hand when a promotion takes the stepping mutex.
        let stale_feed = |replica: &ReplicaNode, writer: &mut RemoteClient, name: &str| {
            let opened_under = *replica.state.lock();
            let mut feed =
                Feed::open(addr, (replica.applied_lsn(), 0), Duration::from_secs(5)).unwrap();
            writer.checkin(create(name)).unwrap();
            let batch = next_records(&mut feed);
            (feed, opened_under, batch)
        };

        // A refused promotion still took the stepping mutex.  The apply thread moves past the held
        // batch meanwhile; stepping the batch afterwards would move the cursor back.
        let (mut feed, opened_under, batch) = stale_feed(&replica, &mut writer, "Old");
        writer.checkin(create("Newer")).unwrap();
        assert!(matches!(replica.promote(0, "127.0.0.1:1"), Err(ServerError::Protocol(_))));
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));
        let cursor = replica.applied_lsn();
        assert!(batch.last_lsn < cursor, "the held batch is behind the database");
        assert!(!replica.state.step_fed(&replica.core, &mut feed, opened_under, batch));
        assert_eq!(replica.applied_lsn(), cursor, "the cursor never moves backwards");
        assert_eq!(replica.core.snapshot().lsn(), cursor, "reads never go back");

        // A promotion that fences the live primary and drains its tail: a batch held from
        // before it is not applied either, and the promoted state stays as the flip left it.
        let (mut feed, opened_under, batch) = stale_feed(&replica, &mut writer, "Older");
        writer.checkin(create("Newest")).unwrap();
        replica.promote(1, &replica.local_addr().to_string()).unwrap();
        let promoted = replica.core.snapshot().lsn();
        assert!(!replica.state.step_fed(&replica.core, &mut feed, opened_under, batch));
        assert_eq!(replica.core.snapshot().lsn(), promoted);
        let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
        for name in ["First", "Old", "Newer", "Older", "Newest"] {
            assert!(client.retrieve(name).is_ok(), "{name} was drained before the flip");
        }
        client.checkin(create("AfterPromotion")).unwrap();
        replica.shutdown();
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn a_second_promotion_order_is_refused_while_one_runs() {
        let primary_dir = temp_dir("second-primary");
        let replica_dir = temp_dir("second-replica");
        let primary = durable_primary(&primary_dir);
        let addr = primary.local_addr();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Kept".into() }])
            .unwrap();
        // The fence gives up on a silent peer after the connect timeout; it is long enough
        // for the second order to arrive while the first still runs.
        let config = ReplicaConfig {
            reconnect_backoff: Duration::from_millis(5),
            connect_timeout: Duration::from_secs(2),
            ..ReplicaConfig::default()
        };
        let replica = ReplicaNode::with_config(&replica_dir, addr, "127.0.0.1:0", config).unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));

        // The primary's address now accepts connections and never answers, so the first
        // promotion blocks in its fence until the connect timeout passes or the test lets go
        // of the connections, whichever comes first.
        primary.shutdown();
        let silent = std::net::TcpListener::bind(addr).unwrap();
        silent.set_nonblocking(true).unwrap();
        let release = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let release = release.clone();
            std::thread::spawn(move || {
                let mut held = Vec::new();
                while !release.load(Ordering::SeqCst) {
                    match silent.accept() {
                        Ok((stream, _)) => held.push(stream),
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })
        };
        let new_primary = replica.local_addr().to_string();
        let first = {
            let (core, new_primary) = (replica.core(), new_primary.clone());
            std::thread::spawn(move || core.promote(1, &new_primary))
        };
        while !replica.state.promoting.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }

        // The second order runs on its own thread so that a queued order would show as a
        // timeout here instead of a deadlock.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = {
            let (core, new_primary) = (replica.core(), new_primary.clone());
            std::thread::spawn(move || tx.send(core.promote(1, &new_primary)).unwrap())
        };
        let refused = rx.recv_timeout(Duration::from_secs(1));
        release.store(true, Ordering::SeqCst);
        match refused.expect("the second order must be refused at once, not queued") {
            Err(ServerError::Protocol(message)) => assert!(message.contains("already in progress")),
            other => panic!("expected the second order to be refused, got {other:?}"),
        }
        second.join().unwrap();

        // Closing the silent connections fails the fence (an unreachable primary) if its
        // timeout has not already, so the first promotion proceeds on the shipped tail.
        acceptor.join().unwrap();
        assert_eq!(first.join().unwrap().unwrap().epoch, 1);
        let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
        client
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Promoted".into() }])
            .unwrap();
        replica.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn a_promotion_fence_gives_up_on_a_silent_old_primary() {
        let primary_dir = temp_dir("silent-primary");
        let replica_dir = temp_dir("silent-replica");
        let primary = durable_primary(&primary_dir);
        let addr = primary.local_addr();
        let mut writer = RemoteClient::connect(addr).unwrap();
        writer
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Kept".into() }])
            .unwrap();
        let connect_timeout = Duration::from_millis(300);
        let config = ReplicaConfig {
            reconnect_backoff: Duration::from_millis(5),
            connect_timeout,
            ..ReplicaConfig::default()
        };
        let replica = ReplicaNode::with_config(&replica_dir, addr, "127.0.0.1:0", config).unwrap();
        assert!(replica.wait_for_lsn(primary_lsn(&primary), Duration::from_secs(10)));

        // The old primary's address accepts connections and holds them, never answering.
        primary.shutdown();
        let silent = std::net::TcpListener::bind(addr).unwrap();
        silent.set_nonblocking(true).unwrap();
        let release = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let release = release.clone();
            std::thread::spawn(move || {
                let mut held = Vec::new();
                while !release.load(Ordering::SeqCst) {
                    match silent.accept() {
                        Ok((stream, _)) => held.push(stream),
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })
        };
        let started = std::time::Instant::now();
        let promoted = replica.promote(1, &replica.local_addr().to_string());
        let took = started.elapsed();
        release.store(true, Ordering::SeqCst);
        acceptor.join().unwrap();
        assert_eq!(promoted.unwrap().epoch, 1, "a silent old primary counts as unreachable");
        assert!(
            took < connect_timeout + Duration::from_secs(1),
            "the fence must give up within the connect timeout, took {took:?}"
        );
        let mut client = RemoteClient::connect(replica.local_addr()).unwrap();
        client.retrieve("Kept").unwrap();
        client
            .checkin(vec![Update::CreateObject { class: "Data".into(), name: "Promoted".into() }])
            .unwrap();
        replica.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }
}
