//! The blocking remote client: the workstation side of the two-level scheme, over TCP.
//!
//! [`RemoteClient`] exposes the same checkout / check-in / query surface as the in-process
//! server API, so application code (the SPADES tool, the examples) runs unmodified over
//! loopback or a real network.  The client id is assigned by the server at handshake and bound
//! to the connection — it is filled in automatically on every lock-table request.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use seed_core::{ObjectRecord, Value, VersionId};
use seed_server::{
    CheckoutSet, ClientId, HealthStatus, PersistenceStatus, PromotionReceipt, QueryAnswer,
    RelationshipInfo, ReplicationRole, Request, Response, SchemaSummary, ServerError, ServerResult,
    Update,
};

use crate::codec::{decode_response, encode_request};
use crate::wire::{read_frame, write_frame, FrameKind, Hello, Welcome, PROTOCOL_VERSION};

/// A typed result carried by a [`Response`]: the one place a reply is matched against the kind
/// its request is answered with.  [`RemoteClient`]'s typed methods unwrap through it, and so do
/// callers of [`Pipeline::flush`] ([`FromResponse::from_reply`]).  A reply of another kind
/// means the peer does not speak this protocol and is reported as
/// [`ServerError::Disconnected`].
pub trait FromResponse: Sized {
    /// Unwraps `response`, or fails when it is not the kind that carries `Self`.
    fn from_response(response: Response) -> ServerResult<Self>;

    /// Unwraps one [`Pipeline::flush`] result: an error reply stays an error.
    fn from_reply(reply: ServerResult<Response>) -> ServerResult<Self> {
        reply.and_then(Self::from_response)
    }
}

macro_rules! from_response {
    ($($variant:ident($ty:ty) => $unwrap:expr),* $(,)?) => {$(
        impl FromResponse for $ty {
            fn from_response(response: Response) -> ServerResult<Self> {
                match response {
                    Response::$variant(answer) => $unwrap(answer),
                    _ => Err(ServerError::Disconnected),
                }
            }
        }
    )*};
}

from_response! {
    Checkout(CheckoutSet) => std::convert::identity,
    Ack(()) => std::convert::identity,
    Object(ObjectRecord) => std::convert::identity,
    Answer(QueryAnswer) => std::convert::identity,
    Version(VersionId) => std::convert::identity,
    Objects(Vec<ObjectRecord>) => std::convert::identity,
    Relationships(Vec<RelationshipInfo>) => std::convert::identity,
    Count(usize) => std::convert::identity,
    Promoted(PromotionReceipt) => std::convert::identity,
    Persistence(PersistenceStatus) => Ok,
    Schema(SchemaSummary) => Ok,
    Stats(seed_obs::RegistrySnapshot) => Ok,
    Health(HealthStatus) => Ok,
}

/// A blocking connection to a [`crate::SeedNetServer`].
pub struct RemoteClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    client: ClientId,
    banner: String,
    schema: Option<SchemaSummary>,
}

fn transport(e: impl std::fmt::Display) -> ServerError {
    ServerError::Transport(e.to_string())
}

impl RemoteClient {
    /// Connects and performs the handshake (protocol version check, client id assignment).
    pub fn connect(addr: impl ToSocketAddrs) -> ServerResult<Self> {
        Self::connect_as(addr, "seed-net client")
    }

    /// Like [`RemoteClient::connect`], with an explicit agent string for the server's logs.
    pub fn connect_as(addr: impl ToSocketAddrs, agent: &str) -> ServerResult<Self> {
        let stream = TcpStream::connect(addr).map_err(transport)?;
        stream.set_nodelay(true).map_err(transport)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(transport)?);
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, FrameKind::Hello, &Hello::current(agent).encode())
            .map_err(ServerError::from)?;
        let frame = read_frame(&mut reader).map_err(ServerError::from)?;
        match frame.kind {
            FrameKind::Welcome => {
                let welcome = Welcome::decode(&frame.payload).map_err(ServerError::from)?;
                if welcome.version != PROTOCOL_VERSION {
                    return Err(ServerError::Protocol(format!(
                        "server welcomed protocol v{}, this client speaks v{PROTOCOL_VERSION}",
                        welcome.version
                    )));
                }
                Ok(Self {
                    reader,
                    writer,
                    client: welcome.client_id,
                    banner: welcome.banner,
                    schema: None,
                })
            }
            FrameKind::Reject => {
                Err(ServerError::Protocol(String::from_utf8_lossy(&frame.payload).into_owned()))
            }
            other => Err(ServerError::Protocol(format!(
                "handshake expected welcome or reject, got {other:?}"
            ))),
        }
    }

    /// The client id this connection is bound to.
    pub fn id(&self) -> ClientId {
        self.client
    }

    /// The server's handshake banner.
    pub fn server_banner(&self) -> &str {
        &self.banner
    }

    /// Sends one request and waits for the server's reply.  A [`Response::Error`] reply (the
    /// server rejected the frame as such) is surfaced as the contained error.
    pub fn call(&mut self, request: Request) -> ServerResult<Response> {
        write_frame(&mut self.writer, FrameKind::Request, &encode_request(&request))
            .map_err(ServerError::from)?;
        let frame = read_frame(&mut self.reader).map_err(ServerError::from)?;
        match frame.kind {
            FrameKind::Response => match decode_response(&frame.payload)? {
                Response::Error(e) => Err(e),
                response => Ok(response),
            },
            FrameKind::Reject => {
                Err(ServerError::Protocol(String::from_utf8_lossy(&frame.payload).into_owned()))
            }
            other => Err(ServerError::Protocol(format!("unexpected {other:?} frame"))),
        }
    }

    /// Sends one request and unwraps the typed result its reply carries.
    fn ask<T: FromResponse>(&mut self, request: Request) -> ServerResult<T> {
        T::from_response(self.call(request)?)
    }

    /// Checks out the named objects, taking central write locks for this client.
    pub fn checkout(&mut self, names: &[&str]) -> ServerResult<CheckoutSet> {
        let request = Request::Checkout {
            client: self.client,
            objects: names.iter().map(|s| s.to_string()).collect(),
        };
        self.ask(request)
    }

    /// Checks a batch of updates in as one central transaction, releasing this client's locks
    /// on success.
    pub fn checkin(&mut self, updates: Vec<Update>) -> ServerResult<()> {
        self.ask(Request::Checkin { client: self.client, updates })
    }

    /// Releases all of this client's locks without checking anything in.
    pub fn release(&mut self) -> ServerResult<()> {
        self.ask(Request::Release { client: self.client })
    }

    /// Retrieves one object by name.
    pub fn retrieve(&mut self, name: &str) -> ServerResult<ObjectRecord> {
        self.ask(Request::Retrieve { name: name.to_string() })
    }

    /// Evaluates a retrieval-language query (or an `explain`).
    pub fn query(&mut self, text: &str) -> ServerResult<QueryAnswer> {
        self.ask(Request::Query { text: text.to_string() })
    }

    /// The rendered physical plan for a query (prepends `explain` when absent).
    pub fn explain(&mut self, text: &str) -> ServerResult<String> {
        let text = text.trim();
        let explained =
            if text.starts_with("explain") { text.to_string() } else { format!("explain {text}") };
        self.query(&explained)?.plan.ok_or_else(|| {
            ServerError::Query("explain produced no plan (not a find/count query?)".to_string())
        })
    }

    /// Creates a global version snapshot on the central database.
    pub fn create_version(&mut self, comment: &str) -> ServerResult<VersionId> {
        self.ask(Request::CreateVersion { comment: comment.to_string() })
    }

    /// The durability state of the central database.
    pub fn persistence(&mut self) -> ServerResult<PersistenceStatus> {
        self.ask(Request::Persistence)
    }

    /// A point-in-time copy of the server's whole metrics registry: every counter, gauge and
    /// latency histogram, ready for percentile extraction or Prometheus re-exposition.
    pub fn stats(&mut self) -> ServerResult<seed_obs::RegistrySnapshot> {
        self.ask(Request::Stats)
    }

    /// The server's liveness/readiness probe: a reply at all is liveness, `ready` is the
    /// readiness verdict (a primary with a writable WAL; a replica within its lag budget).
    pub fn health(&mut self) -> ServerResult<HealthStatus> {
        self.ask(Request::Health)
    }

    /// Asks the server to checkpoint its durable storage.
    pub fn checkpoint(&mut self) -> ServerResult<()> {
        self.ask(Request::Checkpoint)
    }

    /// Orders a topology change under epoch `epoch` (see `docs/OPERATIONS.md` §7).  Sent to a
    /// **replica**, the node finishes applying its shipped tail, fences its old primary and
    /// takes over as primary at `new_primary`.  Sent to the **old primary**, the node is fenced
    /// directly: it refuses every further write with [`ServerError::Fenced`] naming
    /// `new_primary`.
    pub fn promote(&mut self, epoch: u64, new_primary: &str) -> ServerResult<PromotionReceipt> {
        let request = Request::Promote { epoch, new_primary: new_primary.to_string() };
        self.ask(request)
    }

    /// A structural summary of the server's schema (fetched once, then cached).
    pub fn schema(&mut self) -> ServerResult<SchemaSummary> {
        if let Some(schema) = &self.schema {
            return Ok(schema.clone());
        }
        let summary: SchemaSummary = self.ask(Request::Schema)?;
        self.schema = Some(summary.clone());
        Ok(summary)
    }

    /// The (materialized) children of an object.
    pub fn children(&mut self, name: &str) -> ServerResult<Vec<ObjectRecord>> {
        self.ask(Request::Children { name: name.to_string() })
    }

    /// All objects whose hierarchical name starts with `prefix`.
    pub fn objects_with_prefix(&mut self, prefix: &str) -> ServerResult<Vec<ObjectRecord>> {
        self.ask(Request::Prefix { prefix: prefix.to_string() })
    }

    /// The relationships an object participates in, rendered by name.
    pub fn relationships_of(&mut self, name: &str) -> ServerResult<Vec<RelationshipInfo>> {
        self.ask(Request::RelationshipsOf { name: name.to_string() })
    }

    /// The extent of a class by name.
    pub fn objects_of_class(
        &mut self,
        class: &str,
        transitive: bool,
    ) -> ServerResult<Vec<ObjectRecord>> {
        let request = Request::ObjectsOfClass { class: class.to_string(), transitive };
        self.ask(request)
    }

    /// Counts the live relationships of an association (optionally with specializations).
    pub fn relationship_count(
        &mut self,
        association: &str,
        transitive: bool,
    ) -> ServerResult<usize> {
        let request =
            Request::RelationshipCount { association: association.to_string(), transitive };
        self.ask(request)
    }

    /// Number of completeness findings on the central database.
    pub fn completeness_count(&mut self) -> ServerResult<usize> {
        self.ask(Request::Completeness)
    }

    /// Convenience: sets a value through a one-shot checkout/check-in cycle.
    pub fn quick_set_value(&mut self, object: &str, value: Value) -> ServerResult<()> {
        self.checkout(&[object])?;
        self.checkin(vec![Update::SetValue { object: object.to_string(), value }])
    }

    /// Closes the session politely (the server releases this client's locks either way).
    pub fn close(mut self) -> ServerResult<()> {
        match self.call(Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ServerError::Disconnected),
        }
    }

    /// Starts a pipelined batch: queue many requests with [`Pipeline::submit`], then send them
    /// all and collect the responses in submission order with [`Pipeline::flush`].  The
    /// event-loop server answers every frame of a burst as it decodes it, strictly in request
    /// order, so a deep pipeline pays one round-trip for the whole batch instead of one per
    /// request.
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline { client: self, queued: Vec::new(), count: 0 }
    }

    /// Connects a topology-aware client: writes go to the `primary`, reads fan out across the
    /// `replicas` round-robin (falling back to the primary when a replica connection fails
    /// mid-call, or when `replicas` is empty).  Across a failover the client re-routes itself:
    /// a `Fenced`/`ReadOnlyReplica` rejection re-points the write connection at the node the
    /// rejection names, and a dead connection triggers a health-probe sweep over every known
    /// endpoint to find the new primary.  This is how an application points itself at a
    /// replicated deployment — see `docs/OPERATIONS.md`.
    pub fn connect_read_preferred(
        primary: impl ToSocketAddrs,
        replicas: &[impl ToSocketAddrs],
    ) -> ServerResult<ReadPreferredClient> {
        let primary_addr = resolve(primary)?;
        let primary = RemoteClient::connect_as(primary_addr, "seed-net read-preferred (primary)")?;
        let mut replica_addrs = Vec::with_capacity(replicas.len());
        let mut replica_clients = Vec::with_capacity(replicas.len());
        for replica in replicas {
            let addr = resolve(replica)?;
            replica_clients
                .push(RemoteClient::connect_as(addr, "seed-net read-preferred (replica)")?);
            replica_addrs.push(addr);
        }
        Ok(ReadPreferredClient {
            primary,
            primary_addr,
            replicas: replica_clients,
            replica_addrs,
            cursor: 0,
        })
    }
}

/// Resolves an address argument to its first concrete socket address.
fn resolve(addr: impl ToSocketAddrs) -> ServerResult<SocketAddr> {
    addr.to_socket_addrs()
        .map_err(transport)?
        .next()
        .ok_or_else(|| ServerError::Transport("address resolves to nothing".into()))
}

/// While a pipelined write stalls on backpressure, wait this long before draining a response
/// to shrink the server's output backlog (the server stops reading a connection whose unread
/// answers pass its high-water mark; draining is what un-sticks the write).
const PIPELINE_WRITE_SLICE: Duration = Duration::from_millis(100);

/// A batch of requests submitted over one connection before any response is read.
///
/// Responses are returned **by submission index** from [`Pipeline::flush`]: the server answers
/// strictly in request order, so `results[i]` is the answer to the `i`-th
/// [`Pipeline::submit`].  A server-side [`Response::Error`] reply is surfaced as `Err` at its
/// index without disturbing its neighbours; a transport or framing failure aborts the whole
/// flush (and the connection should be discarded — the stream may hold unread responses).
pub struct Pipeline<'a> {
    client: &'a mut RemoteClient,
    queued: Vec<u8>,
    count: usize,
}

impl Pipeline<'_> {
    /// Queues one request and returns its index into the [`Pipeline::flush`] results.
    pub fn submit(&mut self, request: Request) -> usize {
        let index = self.count;
        self.count += 1;
        write_frame(&mut self.queued, FrameKind::Request, &encode_request(&request))
            .expect("writing a frame into a Vec cannot fail");
        index
    }

    /// Number of requests queued so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether nothing has been submitted yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sends every queued frame and drains the responses, in submission order.
    ///
    /// Writing and reading are interleaved: when the server applies backpressure (it stops
    /// reading a connection whose unread answers pass its output high-water mark), the flush
    /// drains ready responses to make room instead of deadlocking with both sides blocked on
    /// full buffers.
    pub fn flush(self) -> ServerResult<Vec<ServerResult<Response>>> {
        let Pipeline { client, queued, count } = self;
        let mut results = Vec::with_capacity(count);
        if count == 0 {
            return Ok(results);
        }
        use std::io::Write as _;
        if count == 1 {
            // One request cannot stall on backpressure: the server pauses reading a connection
            // only behind unread answers, and none precede it.  It goes out like a plain call,
            // without the write-slice timeout and its two socket-option changes.
            client
                .writer
                .write_all(&queued)
                .and_then(|()| client.writer.flush())
                .map_err(transport)?;
            results.push(read_pipelined_response(&mut client.reader)?);
            return Ok(results);
        }
        // Anything buffered from earlier sequential calls goes out first.
        client.writer.flush().map_err(transport)?;
        client.writer.get_mut().set_write_timeout(Some(PIPELINE_WRITE_SLICE)).map_err(transport)?;
        let outcome = interleave(client, &queued, count, &mut results);
        let _ = client.writer.get_mut().set_write_timeout(None);
        outcome?;
        Ok(results)
    }
}

/// The write-then-drain loop of [`Pipeline::flush`], separated so the write timeout is always
/// restored on the way out.
fn interleave(
    client: &mut RemoteClient,
    queued: &[u8],
    count: usize,
    results: &mut Vec<ServerResult<Response>>,
) -> ServerResult<()> {
    use std::io::Write as _;
    let mut written = 0;
    while written < queued.len() {
        match client.writer.get_mut().write(&queued[written..]) {
            Ok(0) => {
                return Err(ServerError::Transport("connection closed mid-pipeline".to_string()))
            }
            Ok(n) => written += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if results.len() >= count {
                    // Every response is in but the peer still won't take our bytes: nothing
                    // left to drain, so this can only be a dead or wedged connection.
                    return Err(ServerError::Transport(
                        "pipelined write stalled after every response arrived".to_string(),
                    ));
                }
                results.push(read_pipelined_response(&mut client.reader)?);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(transport(e)),
        }
    }
    while results.len() < count {
        results.push(read_pipelined_response(&mut client.reader)?);
    }
    Ok(())
}

/// Reads one in-order response.  The outer `Err` aborts the whole flush (broken stream); the
/// inner result is the per-index answer.
fn read_pipelined_response(
    reader: &mut BufReader<TcpStream>,
) -> ServerResult<ServerResult<Response>> {
    let frame = read_frame(reader).map_err(ServerError::from)?;
    match frame.kind {
        FrameKind::Response => match decode_response(&frame.payload)? {
            Response::Error(e) => Ok(Err(e)),
            response => Ok(Ok(response)),
        },
        FrameKind::Reject => {
            Err(ServerError::Protocol(String::from_utf8_lossy(&frame.payload).into_owned()))
        }
        other => Err(ServerError::Protocol(format!("unexpected {other:?} frame"))),
    }
}

/// A client over a replicated deployment: one write connection to the primary, one read
/// connection per replica.  Every read round-robins across the replicas (a replica answers the
/// full read surface with the same bytes as the primary once caught up); every write — and any
/// read whose replica connection died mid-call — goes to the primary.
///
/// The client survives a failover without application involvement: when the primary rejects a
/// write with [`ServerError::Fenced`] (or [`ServerError::ReadOnlyReplica`], the demoted form)
/// it reconnects to the node the rejection names and retries once — safe because a rejected
/// write was refused outright, never half-applied.  When the primary connection is simply dead,
/// it sweeps every known endpoint with a health probe ([`RemoteClient::health`]) and adopts
/// whichever node reports itself a ready primary.  A retry after a **mid-call transport**
/// failure is at-least-once, not exactly-once: the lost reply may have been an ack, in which
/// case the retry surfaces the server's duplicate rejection instead of silently double-applying.
pub struct ReadPreferredClient {
    primary: RemoteClient,
    primary_addr: SocketAddr,
    replicas: Vec<RemoteClient>,
    replica_addrs: Vec<SocketAddr>,
    cursor: usize,
}

impl ReadPreferredClient {
    /// The write-side (primary) client, for the full checkout / check-in surface.
    pub fn primary(&mut self) -> &mut RemoteClient {
        &mut self.primary
    }

    /// The address the write connection currently points at — after a failover, the promoted
    /// node.
    pub fn primary_addr(&self) -> SocketAddr {
        self.primary_addr
    }

    /// Number of replica connections reads fan out across.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Runs one read against the next replica in the rotation, falling back to the primary on
    /// transport failure (a dead replica must degrade the topology, not the application) and
    /// re-routing to a rediscovered primary when the fallback is dead too.  Reads are
    /// idempotent, so the replay is transparent.
    fn read<R>(
        &mut self,
        mut op: impl FnMut(&mut RemoteClient) -> ServerResult<R>,
    ) -> ServerResult<R> {
        if self.replicas.is_empty() {
            return match op(&mut self.primary) {
                Err(ServerError::Transport(_)) => {
                    self.rediscover()?;
                    op(&mut self.primary)
                }
                outcome => outcome,
            };
        }
        let pick = self.cursor % self.replicas.len();
        self.cursor = self.cursor.wrapping_add(1);
        match op(&mut self.replicas[pick]) {
            Err(ServerError::Transport(_)) => match op(&mut self.primary) {
                Err(ServerError::Transport(_)) => {
                    self.rediscover()?;
                    op(&mut self.primary)
                }
                outcome => outcome,
            },
            outcome => outcome,
        }
    }

    /// Runs one write against the primary, re-routing once across a failover: a fencing
    /// rejection names the node to use instead, a dead connection triggers rediscovery.
    fn write<R>(
        &mut self,
        mut op: impl FnMut(&mut RemoteClient) -> ServerResult<R>,
    ) -> ServerResult<R> {
        match op(&mut self.primary) {
            Err(ServerError::Fenced { new_primary, .. }) => {
                self.repoint(&new_primary)?;
                op(&mut self.primary)
            }
            Err(ServerError::ReadOnlyReplica { primary }) => {
                self.repoint(&primary)?;
                op(&mut self.primary)
            }
            Err(ServerError::Transport(_)) => {
                self.rediscover()?;
                op(&mut self.primary)
            }
            outcome => outcome,
        }
    }

    /// Re-points the write connection at the node a fencing rejection named, falling back to a
    /// full probe sweep when that node is not reachable (yet).
    fn repoint(&mut self, addr: &str) -> ServerResult<()> {
        if let Ok(sock) = addr.parse::<SocketAddr>() {
            if let Ok(fresh) = RemoteClient::connect_as(sock, "seed-net read-preferred (primary)") {
                self.primary = fresh;
                self.primary_addr = sock;
                return Ok(());
            }
        }
        self.rediscover()
    }

    /// Probes every known endpoint over a fresh connection and adopts the one whose health
    /// reports a ready primary.
    fn rediscover(&mut self) -> ServerResult<()> {
        let mut candidates = vec![self.primary_addr];
        candidates.extend(self.replica_addrs.iter().copied());
        for addr in candidates {
            let Ok(mut probe) = RemoteClient::connect_as(addr, "seed-net read-preferred (probe)")
            else {
                continue;
            };
            let Ok(health) = probe.health() else { continue };
            if health.ready && health.role == ReplicationRole::Primary {
                self.primary = probe;
                self.primary_addr = addr;
                return Ok(());
            }
            let _ = probe.close();
        }
        Err(ServerError::Transport("no ready primary found among the known endpoints".into()))
    }

    /// Retrieves one object by name, from a replica.
    pub fn retrieve(&mut self, name: &str) -> ServerResult<ObjectRecord> {
        self.read(|c| c.retrieve(name))
    }

    /// Evaluates a retrieval-language query (or an `explain`), on a replica.
    pub fn query(&mut self, text: &str) -> ServerResult<QueryAnswer> {
        self.read(|c| c.query(text))
    }

    /// A structural summary of the schema, from a replica.
    pub fn schema(&mut self) -> ServerResult<SchemaSummary> {
        self.read(|c| c.schema())
    }

    /// The (materialized) children of an object, from a replica.
    pub fn children(&mut self, name: &str) -> ServerResult<Vec<ObjectRecord>> {
        self.read(|c| c.children(name))
    }

    /// All objects whose hierarchical name starts with `prefix`, from a replica.
    pub fn objects_with_prefix(&mut self, prefix: &str) -> ServerResult<Vec<ObjectRecord>> {
        self.read(|c| c.objects_with_prefix(prefix))
    }

    /// The relationships an object participates in, from a replica.
    pub fn relationships_of(&mut self, name: &str) -> ServerResult<Vec<RelationshipInfo>> {
        self.read(|c| c.relationships_of(name))
    }

    /// The extent of a class by name, from a replica.
    pub fn objects_of_class(
        &mut self,
        class: &str,
        transitive: bool,
    ) -> ServerResult<Vec<ObjectRecord>> {
        self.read(|c| c.objects_of_class(class, transitive))
    }

    /// Live relationship count of an association, from a replica.
    pub fn relationship_count(
        &mut self,
        association: &str,
        transitive: bool,
    ) -> ServerResult<usize> {
        self.read(|c| c.relationship_count(association, transitive))
    }

    /// Number of completeness findings, from a replica.
    pub fn completeness_count(&mut self) -> ServerResult<usize> {
        self.read(|c| c.completeness_count())
    }

    /// The **primary's** durability and replication status (authoritative for the deployment).
    pub fn persistence(&mut self) -> ServerResult<PersistenceStatus> {
        match self.primary.persistence() {
            Err(ServerError::Transport(_)) => {
                self.rediscover()?;
                self.primary.persistence()
            }
            outcome => outcome,
        }
    }

    /// Checks out the named objects on the primary (re-routing across a failover).
    pub fn checkout(&mut self, names: &[&str]) -> ServerResult<CheckoutSet> {
        self.write(|c| c.checkout(names))
    }

    /// Checks a batch of updates in on the primary (re-routing across a failover).
    pub fn checkin(&mut self, updates: Vec<Update>) -> ServerResult<()> {
        self.write(|c| c.checkin(updates.clone()))
    }

    /// Releases the primary-side locks without checking anything in.
    pub fn release(&mut self) -> ServerResult<()> {
        self.write(|c| c.release())
    }

    /// Creates a global version snapshot on the primary (re-routing across a failover).
    pub fn create_version(&mut self, comment: &str) -> ServerResult<VersionId> {
        self.write(|c| c.create_version(comment))
    }

    /// Convenience: sets a value through a one-shot checkout/check-in cycle on the primary.
    pub fn quick_set_value(&mut self, object: &str, value: Value) -> ServerResult<()> {
        self.write(|c| c.quick_set_value(object, value.clone()))
    }

    /// Closes every connection politely.  Every close is attempted even when one fails (a
    /// replica that already died must not leave the primary session to linger until EOF
    /// detection); the first error is reported.
    pub fn close(self) -> ServerResult<()> {
        let mut first_error = None;
        for replica in self.replicas {
            if let Err(e) = replica.close() {
                first_error.get_or_insert(e);
            }
        }
        match self.primary.close() {
            Err(e) => Err(first_error.unwrap_or(e)),
            Ok(()) => first_error.map_or(Ok(()), Err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedNetServer;
    use seed_core::Database;
    use seed_schema::figure3_schema;
    use seed_server::SeedServer;

    fn start_server() -> SeedNetServer {
        let mut db = Database::new(figure3_schema());
        db.create_object("Data", "Alarms").unwrap();
        db.create_object("Action", "Sensor").unwrap();
        SeedNetServer::bind(SeedServer::new(db), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn a_pipeline_returns_results_by_submission_index() {
        let server = start_server();
        let mut client = RemoteClient::connect(server.local_addr()).unwrap();
        let mut pipeline = client.pipeline();
        let a = pipeline.submit(Request::Retrieve { name: "Alarms".to_string() });
        let ghost = pipeline.submit(Request::Retrieve { name: "Ghost".to_string() });
        let forged = pipeline.submit(Request::Release { client: u64::MAX });
        let b = pipeline.submit(Request::Retrieve { name: "Sensor".to_string() });
        assert_eq!((a, ghost, forged, b), (0, 1, 2, 3));
        assert_eq!(pipeline.len(), 4);
        let results = pipeline.flush().unwrap();
        assert_eq!(results.len(), 4);
        match &results[0] {
            Ok(Response::Object(Ok(record))) => assert_eq!(record.name.to_string(), "Alarms"),
            other => panic!("index 0: expected Alarms, got {other:?}"),
        }
        // The unknown name errors in place without disturbing its neighbours.
        assert!(matches!(&results[1], Ok(Response::Object(Err(ServerError::Unknown(_))))));
        // The forged identity is rejected at its index, as an outright protocol error.
        assert!(matches!(&results[2], Err(ServerError::Protocol(_))));
        match &results[3] {
            Ok(Response::Object(Ok(record))) => assert_eq!(record.name.to_string(), "Sensor"),
            other => panic!("index 3: expected Sensor, got {other:?}"),
        }
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_one_request_pipeline_answers_like_a_call() {
        let server = start_server();
        let mut client = RemoteClient::connect(server.local_addr()).unwrap();
        let mut pipeline = client.pipeline();
        pipeline.submit(Request::Retrieve { name: "Alarms".to_string() });
        let reply = pipeline.flush().unwrap().pop().unwrap();
        assert_eq!(ObjectRecord::from_reply(reply).unwrap().name.to_string(), "Alarms");
        // An error reply stays at its index; it does not break the flush.
        let mut pipeline = client.pipeline();
        pipeline.submit(Request::Release { client: u64::MAX });
        let results = pipeline.flush().unwrap();
        assert!(matches!(results.as_slice(), [Err(ServerError::Protocol(_))]));
        assert_eq!(client.retrieve("Sensor").unwrap().name.to_string(), "Sensor");
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_pipeline_deeper_than_the_servers_window_still_drains() {
        // 512 submissions written before a single response is read.  The server answers each
        // frame as it decodes it and stops reading only when unread answers pass its output
        // high-water mark; the flush's interleaved write/drain path is what keeps a burst past
        // that from deadlocking on mutual backpressure.
        let server = start_server();
        let mut client = RemoteClient::connect(server.local_addr()).unwrap();
        let mut pipeline = client.pipeline();
        for _ in 0..512 {
            pipeline.submit(Request::Retrieve { name: "Alarms".to_string() });
        }
        let results = pipeline.flush().unwrap();
        assert_eq!(results.len(), 512);
        assert!(results.iter().all(|r| matches!(r, Ok(Response::Object(Ok(_))))));
        // The connection is still perfectly usable for sequential calls afterwards.
        assert_eq!(client.retrieve("Sensor").unwrap().name.to_string(), "Sensor");
        client.close().unwrap();
        server.shutdown();
    }
}
