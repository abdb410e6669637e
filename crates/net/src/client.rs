//! The client stack: the typed request surface written once, over one batch primitive.
//!
//! A [`Transport`] sends a batch of requests and returns their answers in request order.
//! [`Client`] holds every typed method (checkout / check-in / query / …) on top of it, and
//! [`ClientSession`] holds the paper's workstation side on top of that: local copies, locally
//! staged updates, one check-in.  Three transports reach a [`SeedServer`]:
//!
//! * [`Tcp`] — one connection to a [`crate::SeedNetServer`].  The client id is assigned by the
//!   server at handshake and bound to the connection.  [`RemoteClient`] is `Client<Tcp>`.
//! * [`Router`] — a replicated deployment: the replica-served reads round-robin across the
//!   replicas, everything else goes to the primary, and the router follows a failover on its
//!   own.  [`ReadPreferredClient`] is `Client<Router>`.
//! * [`InProcess`] — [`SeedServer::handle`] on the caller's thread, with no socket in between.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use seed_core::{ObjectRecord, Value, VersionId};
use seed_schema::Schema;
use seed_server::{
    CheckoutSet, ClientId, HealthStatus, PersistenceStatus, PromotionReceipt, QueryAnswer,
    RelationshipInfo, ReplicationRole, Request, Response, SeedServer, ServerError, ServerResult,
    Update,
};

use crate::codec::{decode_response, encode_request};
use crate::wire::{read_frame, write_frame, FrameKind, Hello, Welcome};

/// A typed result carried by a [`Response`]: the one place a reply is matched against the kind
/// its request is answered with.  [`Client`]'s typed methods unwrap through it, and so do
/// callers of [`Client::exchange`] ([`FromResponse::from_reply`]).  A reply of another kind
/// means the peer does not speak this protocol and is reported as
/// [`ServerError::Disconnected`].
pub trait FromResponse: Sized {
    /// Unwraps `response`, or fails when it is not the kind that carries `Self`.
    fn from_response(response: Response) -> ServerResult<Self>;

    /// Unwraps one answer of an exchange: an error reply stays an error.
    fn from_reply(reply: ServerResult<Response>) -> ServerResult<Self> {
        reply.and_then(Self::from_response)
    }
}

macro_rules! from_response {
    ($($variant:ident($ty:ty)),* $(,)?) => {$(
        impl FromResponse for $ty {
            fn from_response(response: Response) -> ServerResult<Self> {
                match response {
                    Response::$variant(answer) => Ok(answer),
                    _ => Err(ServerError::Disconnected),
                }
            }
        }
    )*};
}

from_response! {
    Checkout(CheckoutSet),
    Object(ObjectRecord),
    Answer(QueryAnswer),
    Version(VersionId),
    Objects(Vec<ObjectRecord>),
    Relationships(Vec<RelationshipInfo>),
    Count(usize),
    Promoted(PromotionReceipt),
    Persistence(PersistenceStatus),
    Schema(Schema),
    Stats(seed_obs::RegistrySnapshot),
    Health(HealthStatus),
}

impl FromResponse for () {
    fn from_response(response: Response) -> ServerResult<Self> {
        match response {
            Response::Ack => Ok(()),
            _ => Err(ServerError::Disconnected),
        }
    }
}

/// The one way a client reaches a server: a batch of requests out, their answers back.
pub trait Transport {
    /// Sends `requests` and returns their answers in request order.  A refused request is an
    /// `Err` in its slot and leaves its neighbours alone; the outer `Err` is a failure of the
    /// exchange itself (a dead connection), after which no answer is known.
    fn exchange(&mut self, requests: Vec<Request>) -> ServerResult<Vec<ServerResult<Response>>>;

    /// The client id the server knows this session by: its requests act for it.
    fn id(&self) -> ClientId;

    /// Ends the session politely (a server releases the client's locks either way).
    fn close(mut self) -> ServerResult<()>
    where
        Self: Sized,
    {
        match one(&mut self, Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ServerError::Disconnected),
        }
    }
}

/// An exchange of one request.
fn one(transport: &mut impl Transport, request: Request) -> ServerResult<Response> {
    transport.exchange(vec![request])?.pop().unwrap_or(Err(ServerError::Disconnected))
}

fn transport_error(e: impl std::fmt::Display) -> ServerError {
    ServerError::Transport(e.to_string())
}

/// While a write stalls, wait this long before checking whether an answer can be drained to
/// shrink the server's output backlog (the server stops reading a connection whose unread
/// answers pass its high-water mark; draining is what un-sticks the write).
const WRITE_SLICE: Duration = Duration::from_millis(100);

/// A blocking connection to a [`crate::SeedNetServer`].
pub struct Tcp {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    client: ClientId,
    banner: String,
}

impl Tcp {
    /// Connects and performs the handshake (protocol version check, client id assignment).
    /// `agent` names the client in the server's logs.
    fn connect_as(addr: impl ToSocketAddrs, agent: &str) -> ServerResult<Self> {
        Self::handshake(TcpStream::connect(addr).map_err(transport_error)?, agent)
    }

    /// Like [`Tcp::connect_as`], but the connect and every read on the connection — the
    /// handshake's and each answer's — fail with [`ServerError::Transport`] once `timeout`
    /// passes.
    fn connect_within(addr: SocketAddr, agent: &str, timeout: Duration) -> ServerResult<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout).map_err(transport_error)?;
        stream.set_read_timeout(Some(timeout)).map_err(transport_error)?;
        Self::handshake(stream, agent)
    }

    /// Handshakes over a connected `stream`.
    fn handshake(mut stream: TcpStream, agent: &str) -> ServerResult<Self> {
        stream.set_nodelay(true).map_err(transport_error)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(transport_error)?);
        let mut hello = Vec::new();
        write_frame(&mut hello, FrameKind::Hello, &Hello::current(agent).encode())?;
        stream.write_all(&hello).map_err(transport_error)?;
        let welcome = Welcome::from_answer(&read_frame(&mut reader)?)?;
        stream.set_write_timeout(Some(WRITE_SLICE)).map_err(transport_error)?;
        Ok(Self { reader, stream, client: welcome.client_id, banner: welcome.banner })
    }

    /// Reads one in-order answer.  The outer `Err` means the stream broke; the inner result is
    /// the answer.
    fn read_answer(&mut self) -> ServerResult<ServerResult<Response>> {
        let frame = read_frame(&mut self.reader)?;
        match frame.kind {
            FrameKind::Response => Ok(decode_response(&frame.payload)?),
            FrameKind::Reject => {
                Err(ServerError::Protocol(String::from_utf8_lossy(&frame.payload).into_owned()))
            }
            other => Err(ServerError::Protocol(format!("unexpected {other:?} frame"))),
        }
    }
}

impl Transport for Tcp {
    /// The frames are queued in one buffer and written as one burst; the server answers each
    /// frame as it decodes it, strictly in request order, so a batch pays one round trip.
    ///
    /// Writing and reading are interleaved: when a write stalls and the server owes an answer
    /// to a frame already sent whole, that answer is drained to make room (the server stops
    /// reading a connection whose unread answers pass its output high-water mark).  Nothing is
    /// read while no answer is owed, so a blocking read can never wait on a frame that has not
    /// left yet.
    fn exchange(&mut self, requests: Vec<Request>) -> ServerResult<Vec<ServerResult<Response>>> {
        let mut queued = Vec::new();
        let mut frame_ends = Vec::with_capacity(requests.len());
        for request in &requests {
            write_frame(&mut queued, FrameKind::Request, &encode_request(request))?;
            frame_ends.push(queued.len());
        }
        let mut answers = Vec::with_capacity(requests.len());
        let mut written = 0;
        while written < queued.len() {
            match self.stream.write(&queued[written..]) {
                Ok(0) => return Err(transport_error("connection closed mid-exchange")),
                Ok(n) => written += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    let sent_whole = frame_ends.partition_point(|&end| end <= written);
                    if sent_whole > answers.len() {
                        answers.push(self.read_answer()?);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(transport_error(e)),
            }
        }
        while answers.len() < requests.len() {
            answers.push(self.read_answer()?);
        }
        Ok(answers)
    }

    fn id(&self) -> ClientId {
        self.client
    }
}

/// A replicated deployment: one connection to the primary, one per replica.  The replica-served
/// reads round-robin across the replicas (a replica answers them with the same bytes as the
/// primary once caught up); everything else goes to the primary, and so does a replica read
/// whose replica connection died mid-exchange.
///
/// The router survives a failover without application involvement: when the primary refuses a
/// request with [`ServerError::Fenced`] (or [`ServerError::ReadOnlyReplica`], the answer of an
/// old primary that rejoined as a replica) it reconnects to the node the refusal names and sends
/// it once more — safe because a refused write was refused outright, never half-applied.  When
/// the primary connection is simply dead, it sweeps every known endpoint with a health probe and
/// adopts whichever node reports itself a ready primary.  A resend after a **mid-exchange transport** failure is at-least-once, not
/// exactly-once: the lost answer may have been an ack, in which case the resend surfaces the
/// server's duplicate rejection instead of silently double-applying.  Only a one-request
/// exchange is ever resent; a batch goes to the primary as it is.  Like every request, a resent
/// one acts for the client of the connection it travels on.
pub struct Router {
    primary: Tcp,
    primary_addr: SocketAddr,
    replicas: Vec<Tcp>,
    replica_addrs: Vec<SocketAddr>,
    cursor: usize,
}

/// Resolves an address argument to its first concrete socket address.
fn resolve(addr: impl ToSocketAddrs) -> ServerResult<SocketAddr> {
    addr.to_socket_addrs()
        .map_err(transport_error)?
        .next()
        .ok_or_else(|| ServerError::Transport("address resolves to nothing".into()))
}

/// The reads a replica serves.
fn replica_served(request: &Request) -> bool {
    matches!(
        request,
        Request::Retrieve { .. }
            | Request::Query { .. }
            | Request::Schema
            | Request::Children { .. }
            | Request::Prefix { .. }
            | Request::RelationshipsOf { .. }
            | Request::ObjectsOfClass { .. }
            | Request::RelationshipCount { .. }
            | Request::Completeness
    )
}

impl Router {
    /// Connects to the `primary` and to every replica.
    fn connect(primary: impl ToSocketAddrs, replicas: &[impl ToSocketAddrs]) -> ServerResult<Self> {
        let primary_addr = resolve(primary)?;
        let primary = Tcp::connect_as(primary_addr, "seed-net read-preferred (primary)")?;
        let mut replica_addrs = Vec::with_capacity(replicas.len());
        let mut replica_conns = Vec::with_capacity(replicas.len());
        for replica in replicas {
            let addr = resolve(replica)?;
            replica_conns.push(Tcp::connect_as(addr, "seed-net read-preferred (replica)")?);
            replica_addrs.push(addr);
        }
        Ok(Self { primary, primary_addr, replicas: replica_conns, replica_addrs, cursor: 0 })
    }

    /// Sends one read to the next replica in the rotation, falling back to the primary when
    /// the replica connection fails (a dead replica must degrade the topology, not the
    /// application).  Reads are idempotent, so the resend is transparent.
    fn read(&mut self, request: Request) -> ServerResult<Response> {
        if !self.replicas.is_empty() {
            let pick = self.cursor % self.replicas.len();
            self.cursor = self.cursor.wrapping_add(1);
            let reply = one(&mut self.replicas[pick], request.clone());
            if !matches!(reply, Err(ServerError::Transport(_))) {
                return reply;
            }
        }
        self.on_primary(request)
    }

    /// Sends one request to the primary, re-routing once across a failover: a fencing refusal
    /// names the node to use instead, a dead connection triggers rediscovery.
    fn on_primary(&mut self, request: Request) -> ServerResult<Response> {
        match one(&mut self.primary, request.clone()) {
            Err(
                ServerError::Fenced { new_primary: to, .. }
                | ServerError::ReadOnlyReplica { primary: to },
            ) => self.repoint(&to)?,
            Err(ServerError::Transport(_)) => self.rediscover()?,
            reply => return reply,
        }
        one(&mut self.primary, request)
    }

    /// Re-points the primary connection at the node a fencing refusal named, falling back to a
    /// full probe sweep when that node is not reachable (yet).
    fn repoint(&mut self, addr: &str) -> ServerResult<()> {
        if let Ok(sock) = addr.parse::<SocketAddr>() {
            if let Ok(fresh) = Tcp::connect_as(sock, "seed-net read-preferred (primary)") {
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
            let Ok(mut probe) = Tcp::connect_as(addr, "seed-net read-preferred (probe)") else {
                continue;
            };
            let Ok(health) = HealthStatus::from_reply(one(&mut probe, Request::Health)) else {
                continue;
            };
            if health.ready && health.role == ReplicationRole::Primary {
                self.primary = probe;
                self.primary_addr = addr;
                return Ok(());
            }
            let _ = probe.close();
        }
        Err(ServerError::Transport("no ready primary found among the known endpoints".into()))
    }
}

impl Transport for Router {
    fn exchange(&mut self, requests: Vec<Request>) -> ServerResult<Vec<ServerResult<Response>>> {
        let [request] = match <[Request; 1]>::try_from(requests) {
            Ok(one) => one,
            Err(batch) => return self.primary.exchange(batch),
        };
        let reply =
            if replica_served(&request) { self.read(request) } else { self.on_primary(request) };
        match reply {
            Err(e @ ServerError::Transport(_)) => Err(e),
            reply => Ok(vec![reply]),
        }
    }

    fn id(&self) -> ClientId {
        self.primary.id()
    }

    /// Closes every connection.  Every close is attempted even when one fails (a replica that
    /// already died must not leave the primary session to linger until EOF detection); the
    /// first error is reported.
    fn close(self) -> ServerResult<()> {
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

/// The server on the caller's thread: every request is [`SeedServer::handle`]d in place, for
/// the client id the session takes at construction.  The session releases its locks when
/// dropped, as a closed TCP connection does.
pub struct InProcess<'a> {
    server: &'a SeedServer,
    client: ClientId,
}

impl<'a> InProcess<'a> {
    /// Opens a new client session with `server`.
    pub fn new(server: &'a SeedServer) -> Self {
        Self { server, client: server.connect() }
    }
}

impl Transport for InProcess<'_> {
    fn exchange(&mut self, requests: Vec<Request>) -> ServerResult<Vec<ServerResult<Response>>> {
        Ok(requests.into_iter().map(|request| self.server.handle(self.client, request)).collect())
    }

    fn id(&self) -> ClientId {
        self.client
    }
}

impl Drop for InProcess<'_> {
    fn drop(&mut self) {
        self.server.release(self.client);
    }
}

/// The typed client surface, over any [`Transport`].
pub struct Client<T> {
    transport: T,
}

/// A client over one TCP connection.
pub type RemoteClient = Client<Tcp>;

/// A client over a replicated deployment ([`Router`]).
pub type ReadPreferredClient = Client<Router>;

impl Client<Tcp> {
    /// Connects and performs the handshake (protocol version check, client id assignment).
    pub fn connect(addr: impl ToSocketAddrs) -> ServerResult<Self> {
        Self::connect_as(addr, "seed-net client")
    }

    /// Like [`RemoteClient::connect`], with an explicit agent string for the server's logs.
    pub fn connect_as(addr: impl ToSocketAddrs, agent: &str) -> ServerResult<Self> {
        Tcp::connect_as(addr, agent).map(Client::new)
    }

    /// Like [`RemoteClient::connect_as`], but a peer that does not accept within `timeout`, or
    /// takes longer than that for the handshake or any answer, fails the call with
    /// [`ServerError::Transport`] instead of blocking it.
    pub(crate) fn connect_within(
        addr: SocketAddr,
        agent: &str,
        timeout: Duration,
    ) -> ServerResult<Self> {
        Tcp::connect_within(addr, agent, timeout).map(Client::new)
    }

    /// The server's handshake banner.
    pub fn server_banner(&self) -> &str {
        &self.transport.banner
    }

    /// Connects a topology-aware client ([`Router`]): writes go to the `primary`, reads fan out
    /// across the `replicas` round-robin, and the client re-routes itself across a failover.
    /// This is how an application points itself at a replicated deployment — see
    /// `docs/OPERATIONS.md`.
    pub fn connect_read_preferred(
        primary: impl ToSocketAddrs,
        replicas: &[impl ToSocketAddrs],
    ) -> ServerResult<ReadPreferredClient> {
        Router::connect(primary, replicas).map(Client::new)
    }
}

impl Client<Router> {
    /// The address the primary connection currently points at — after a failover, the
    /// promoted node.
    pub fn primary_addr(&self) -> SocketAddr {
        self.transport.primary_addr
    }

    /// Number of replica connections reads fan out across.
    pub fn replica_count(&self) -> usize {
        self.transport.replicas.len()
    }
}

impl<T: Transport> Client<T> {
    /// A client over `transport`.
    pub fn new(transport: T) -> Self {
        Self { transport }
    }

    /// The client id this session acts for.
    pub fn id(&self) -> ClientId {
        self.transport.id()
    }

    /// Sends `requests` in one exchange and returns their answers in request order (see
    /// [`Transport::exchange`]); unwrap each with [`FromResponse::from_reply`].  Over TCP the
    /// batch pays one round trip.
    pub fn exchange(
        &mut self,
        requests: Vec<Request>,
    ) -> ServerResult<Vec<ServerResult<Response>>> {
        self.transport.exchange(requests)
    }

    /// Sends one request and unwraps the typed result its answer carries.
    fn ask<R: FromResponse>(&mut self, request: Request) -> ServerResult<R> {
        R::from_reply(one(&mut self.transport, request))
    }

    /// Checks out the named objects, taking central write locks for this client.
    pub fn checkout(&mut self, names: &[&str]) -> ServerResult<CheckoutSet> {
        let objects = names.iter().map(|s| s.to_string()).collect();
        self.ask(Request::Checkout { objects })
    }

    /// Checks a batch of updates in as one central transaction, releasing this client's locks
    /// on success.
    pub fn checkin(&mut self, updates: Vec<Update>) -> ServerResult<()> {
        self.ask(Request::Checkin { updates })
    }

    /// Releases all of this client's locks without checking anything in.
    pub fn release(&mut self) -> ServerResult<()> {
        self.ask(Request::Release)
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
        self.ask(Request::Promote { epoch, new_primary: new_primary.to_string() })
    }

    /// The server's current schema.
    pub fn schema(&mut self) -> ServerResult<Schema> {
        self.ask(Request::Schema)
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
        self.ask(Request::ObjectsOfClass { class: class.to_string(), transitive })
    }

    /// Counts the live relationships of an association (optionally with specializations).
    pub fn relationship_count(
        &mut self,
        association: &str,
        transitive: bool,
    ) -> ServerResult<usize> {
        self.ask(Request::RelationshipCount { association: association.to_string(), transitive })
    }

    /// Number of completeness findings on the central database.
    pub fn completeness_count(&mut self) -> ServerResult<usize> {
        self.ask(Request::Completeness)
    }

    /// Closes the session politely (the server releases this client's locks either way).
    pub fn close(self) -> ServerResult<()> {
        self.transport.close()
    }
}

/// The workstation side of the two-level scheme: "Several clients use the server for
/// retrieval operations, but take local copies for making updates."  A session keeps the
/// copies received at check-out, stages updates locally, and sends them back as one check-in
/// batch.
pub struct ClientSession<T> {
    client: Client<T>,
    /// Local copies of checked-out objects, keyed by name.
    workspace: HashMap<String, ObjectRecord>,
    /// Updates staged locally, sent at check-in.
    staged: Vec<Update>,
}

impl<T: Transport> ClientSession<T> {
    /// A session over `client`.
    pub fn new(client: Client<T>) -> Self {
        Self { client, workspace: HashMap::new(), staged: Vec::new() }
    }

    /// The server-assigned client id.
    pub fn id(&self) -> ClientId {
        self.client.id()
    }

    /// Number of staged (not yet checked-in) updates.
    pub fn staged_count(&self) -> usize {
        self.staged.len()
    }

    /// Objects currently in the local workspace.
    pub fn workspace_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.workspace.keys().cloned().collect();
        names.sort();
        names
    }

    /// Reads an object: from the local workspace if checked out, otherwise straight from the
    /// server (retrieval does not need a copy).
    pub fn read(&mut self, name: &str) -> ServerResult<ObjectRecord> {
        if let Some(copy) = self.workspace.get(name) {
            return Ok(copy.clone());
        }
        self.client.retrieve(name)
    }

    /// Checks out objects (taking write locks centrally) and adds their copies to the local
    /// workspace.
    pub fn checkout(&mut self, names: &[&str]) -> ServerResult<CheckoutSet> {
        let set = self.client.checkout(names)?;
        for obj in &set.objects {
            self.workspace.insert(obj.name.to_string(), obj.clone());
        }
        Ok(set)
    }

    /// Stages a value update on a local copy.
    pub fn set_value(&mut self, object: &str, value: Value) -> ServerResult<()> {
        let copy = self
            .workspace
            .get_mut(object)
            .ok_or_else(|| ServerError::NotCheckedOut(object.to_string()))?;
        copy.value = value.clone();
        self.staged.push(Update::SetValue { object: object.to_string(), value });
        Ok(())
    }

    /// Stages the creation of a new independent object (no lock needed — it does not exist yet).
    pub fn create_object(&mut self, class: &str, name: &str) {
        self.staged.push(Update::CreateObject { class: class.to_string(), name: name.to_string() });
    }

    /// Stages the creation of a dependent object under a checked-out parent.
    pub fn create_dependent(
        &mut self,
        parent: &str,
        class_local: &str,
        value: Value,
    ) -> ServerResult<()> {
        self.checked_out(parent)?;
        self.staged.push(Update::CreateDependent {
            parent: parent.to_string(),
            class_local: class_local.to_string(),
            value,
        });
        Ok(())
    }

    /// Stages a re-classification of a checked-out object.
    pub fn reclassify(&mut self, object: &str, new_class: &str) -> ServerResult<()> {
        self.checked_out(object)?;
        self.staged.push(Update::Reclassify {
            object: object.to_string(),
            new_class: new_class.to_string(),
        });
        Ok(())
    }

    /// Stages a relationship creation among checked-out (or newly created) objects.
    pub fn create_relationship(&mut self, association: &str, bindings: &[(&str, &str)]) {
        self.staged.push(Update::CreateRelationship {
            association: association.to_string(),
            bindings: bindings.iter().map(|(r, o)| (r.to_string(), o.to_string())).collect(),
        });
    }

    /// Stages a deletion of a checked-out object.
    pub fn delete_object(&mut self, object: &str) -> ServerResult<()> {
        self.checked_out(object)?;
        self.staged.push(Update::DeleteObject { object: object.to_string() });
        Ok(())
    }

    fn checked_out(&self, name: &str) -> ServerResult<()> {
        if self.workspace.contains_key(name) {
            Ok(())
        } else {
            Err(ServerError::NotCheckedOut(name.to_string()))
        }
    }

    /// Sends the staged updates as one check-in transaction.  On success the workspace and the
    /// staged list are cleared (the server released the locks); on failure both are kept so the
    /// user can amend and retry.
    pub fn commit(&mut self) -> ServerResult<()> {
        self.client.checkin(self.staged.clone())?;
        self.staged.clear();
        self.workspace.clear();
        Ok(())
    }

    /// Abandons local work: clears the workspace and asks the server to release the locks.
    pub fn abandon(&mut self) -> ServerResult<()> {
        self.staged.clear();
        self.workspace.clear();
        self.client.release()
    }

    /// Ends the session (see [`Client::close`]).
    pub fn close(self) -> ServerResult<()> {
        self.client.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedNetServer;
    use seed_core::Database;
    use seed_schema::figure3_schema;

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
        let edit = Update::SetValue { object: "Alarms".into(), value: Value::Undefined };
        let results = client
            .exchange(vec![
                Request::Retrieve { name: "Alarms".to_string() },
                Request::Retrieve { name: "Ghost".to_string() },
                Request::Checkin { updates: vec![edit] },
                Request::Retrieve { name: "Sensor".to_string() },
            ])
            .unwrap();
        assert_eq!(results.len(), 4);
        match &results[0] {
            Ok(Response::Object(record)) => assert_eq!(record.name.to_string(), "Alarms"),
            other => panic!("index 0: expected Alarms, got {other:?}"),
        }
        // The unknown name errors in place without disturbing its neighbours.
        assert!(matches!(&results[1], Err(ServerError::Unknown(_))));
        // So does a check-in of an object this client never checked out.
        assert!(matches!(&results[2], Err(ServerError::NotCheckedOut(_))));
        match &results[3] {
            Ok(Response::Object(record)) => assert_eq!(record.name.to_string(), "Sensor"),
            other => panic!("index 3: expected Sensor, got {other:?}"),
        }
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_one_request_pipeline_answers_like_a_call() {
        let server = start_server();
        let mut client = RemoteClient::connect(server.local_addr()).unwrap();
        let reply = client.exchange(vec![Request::Retrieve { name: "Alarms".to_string() }]);
        let reply = reply.unwrap().pop().unwrap();
        assert_eq!(ObjectRecord::from_reply(reply).unwrap().name.to_string(), "Alarms");
        // An error reply stays at its index; it does not break the exchange.
        let results = client.exchange(vec![Request::Retrieve { name: "Ghost".into() }]).unwrap();
        assert!(matches!(results.as_slice(), [Err(ServerError::Unknown(_))]));
        assert_eq!(client.retrieve("Sensor").unwrap().name.to_string(), "Sensor");
        assert!(client.exchange(Vec::new()).unwrap().is_empty());
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_pipeline_deeper_than_the_servers_window_still_drains() {
        // 512 requests written before a single answer is read.  The server answers each frame
        // as it decodes it and stops reading only when unread answers pass its output
        // high-water mark; the exchange's interleaved write/drain path is what keeps a burst
        // past that from deadlocking on mutual backpressure.
        let server = start_server();
        let mut client = RemoteClient::connect(server.local_addr()).unwrap();
        let requests = vec![Request::Retrieve { name: "Alarms".to_string() }; 512];
        let results = client.exchange(requests).unwrap();
        assert_eq!(results.len(), 512);
        assert!(results.iter().all(|r| matches!(r, Ok(Response::Object(_)))));
        // The connection is still perfectly usable for single requests afterwards.
        assert_eq!(client.retrieve("Sensor").unwrap().name.to_string(), "Sensor");
        client.close().unwrap();
        server.shutdown();
    }

    fn session_server() -> SeedServer {
        let mut db = Database::new(figure3_schema());
        let handler = db.create_object("Action", "AlarmHandler").unwrap();
        db.create_dependent(handler, "Description", Value::string("Handles alarms")).unwrap();
        db.create_object("Data", "Alarms").unwrap();
        SeedServer::new(db)
    }

    fn session(server: &SeedServer) -> ClientSession<InProcess<'_>> {
        ClientSession::new(Client::new(InProcess::new(server)))
    }

    #[test]
    fn session_checkout_edit_commit() {
        let server = session_server();
        let mut session = session(&server);
        assert!(session.id() > 0);
        session.checkout(&["AlarmHandler"]).unwrap();
        assert_eq!(session.workspace_names().len(), 2);
        // Local read sees the local copy after a staged edit.
        session.set_value("AlarmHandler.Description", Value::string("Generates alarms")).unwrap();
        assert_eq!(
            session.read("AlarmHandler.Description").unwrap().value,
            Value::string("Generates alarms")
        );
        // The server still has the old value until commit.
        assert_eq!(
            server.retrieve("AlarmHandler.Description").unwrap().value,
            Value::string("Handles alarms")
        );
        session.create_object("Data", "OperatorAlert");
        session.create_relationship("Access", &[("from", "OperatorAlert"), ("by", "AlarmHandler")]);
        assert_eq!(session.staged_count(), 3);
        session.commit().unwrap();
        assert_eq!(session.staged_count(), 0);
        assert_eq!(
            server.retrieve("AlarmHandler.Description").unwrap().value,
            Value::string("Generates alarms")
        );
        assert!(server.retrieve("OperatorAlert").is_ok());
    }

    #[test]
    fn conflicting_checkouts_and_abandon() {
        let server = session_server();
        let mut alice = session(&server);
        let mut bob = session(&server);
        alice.checkout(&["Alarms"]).unwrap();
        assert!(matches!(bob.checkout(&["Alarms"]), Err(ServerError::Locked { .. })));
        // Alice abandons; Bob can now check out and edit.
        alice.abandon().unwrap();
        bob.checkout(&["Alarms"]).unwrap();
        bob.reclassify("Alarms", "OutputData").unwrap();
        bob.commit().unwrap();
        let central = server.retrieve("Alarms").unwrap();
        // Reads from a fresh session confirm the class change took effect centrally.
        let mut fresh = session(&server);
        assert_eq!(fresh.read("Alarms").unwrap().id, central.id);
    }

    #[test]
    fn staging_requires_checkout() {
        let server = session_server();
        let mut session = session(&server);
        assert!(session.set_value("Alarms", Value::Undefined).is_err());
        assert!(session.reclassify("Alarms", "OutputData").is_err());
        assert!(session.delete_object("Alarms").is_err());
        assert!(session.create_dependent("Alarms", "Text", Value::Undefined).is_err());
    }

    #[test]
    fn failed_commit_keeps_staged_updates() {
        let server = session_server();
        let mut session = session(&server);
        session.checkout(&["AlarmHandler"]).unwrap();
        // Invalid value (integer into a STRING domain).
        session.set_value("AlarmHandler.Description", Value::Integer(7)).unwrap();
        assert!(session.commit().is_err());
        assert_eq!(session.staged_count(), 1, "staged updates kept for amendment");
        // Amend and retry: replace the staged batch by abandoning and redoing it.
        session.abandon().unwrap();
        session.checkout(&["AlarmHandler"]).unwrap();
        session.set_value("AlarmHandler.Description", Value::string("ok")).unwrap();
        session.commit().unwrap();
        assert_eq!(server.retrieve("AlarmHandler.Description").unwrap().value, Value::string("ok"));
    }

    #[test]
    fn an_in_process_session_releases_its_locks_when_dropped() {
        let server = session_server();
        let mut holder = session(&server);
        holder.checkout(&["Alarms"]).unwrap();
        assert!(server.locked_count() > 0);
        drop(holder);
        assert_eq!(server.locked_count(), 0, "a dropped session is a closed connection");
    }

    /// One scripted two-level session: two clients, every answer rendered as text.
    fn scripted_session<T: Transport>(connect: impl Fn() -> Client<T>) -> Vec<String> {
        let mut log = Vec::new();
        let mut alice = ClientSession::new(connect());
        let mut bob = ClientSession::new(connect());
        let set = alice.checkout(&["AlarmHandler"]).unwrap();
        log.push(format!("checkout {:?}", set.object_names()));
        alice.set_value("AlarmHandler.Description", Value::string("Generates alarms")).unwrap();
        log.push(format!("local {:?}", alice.read("AlarmHandler.Description").unwrap()));
        log.push(format!("central {:?}", bob.read("AlarmHandler.Description").unwrap()));
        // A refused commit keeps the staging: the name is taken.
        alice.create_object("Data", "Alarms");
        log.push(format!("refused {:?}", alice.commit().unwrap_err()));
        log.push(format!("staged {} {:?}", alice.staged_count(), alice.workspace_names()));
        alice.abandon().unwrap();
        log.push(format!("abandoned {}", alice.staged_count()));
        // A consistency violation (an integer in a STRING domain) has a foreign type inside:
        // it crosses the wire as its rendered text, which reads the same as in process.
        alice.checkout(&["AlarmHandler"]).unwrap();
        alice.set_value("AlarmHandler.Description", Value::Integer(7)).unwrap();
        log.push(format!("violation {}", alice.commit().unwrap_err()));
        alice.abandon().unwrap();
        alice.checkout(&["AlarmHandler", "Alarms"]).unwrap();
        alice.set_value("AlarmHandler.Description", Value::string("ok")).unwrap();
        alice.reclassify("Alarms", "OutputData").unwrap();
        alice.create_object("Data", "OperatorAlert");
        alice.create_relationship("Access", &[("from", "OperatorAlert"), ("by", "AlarmHandler")]);
        alice.commit().unwrap();
        log.push(format!("committed {:?}", bob.read("Alarms").unwrap()));
        // A conflicting checkout is refused while the other client holds the lock.
        alice.checkout(&["Alarms"]).unwrap();
        log.push(format!("conflict {}", bob.checkout(&["Alarms"]).unwrap_err()));
        alice.abandon().unwrap();
        log.push(format!("after abandon {:?}", bob.checkout(&["Alarms"]).unwrap().object_names()));
        bob.abandon().unwrap();
        alice.close().unwrap();
        bob.close().unwrap();
        log
    }

    /// Every object and its relationships, rendered in name order.
    fn dump(server: &SeedServer) -> String {
        let mut out = String::new();
        for object in server.objects_with_prefix("") {
            let relationships = server.relationships_of(&object.name.to_string()).unwrap();
            out.push_str(&format!("{object:?}\n  {relationships:?}\n"));
        }
        out
    }

    #[test]
    fn a_session_answers_the_same_in_process_and_over_tcp() {
        let local = session_server();
        let in_process = scripted_session(|| Client::new(InProcess::new(&local)));

        let net = SeedNetServer::bind(session_server(), "127.0.0.1:0").unwrap();
        let addr = net.local_addr();
        let over_tcp = scripted_session(|| RemoteClient::connect(addr).unwrap());

        assert_eq!(in_process, over_tcp);
        assert!(in_process.iter().any(|line| line.contains("write-locked")), "{in_process:?}");
        assert!(
            in_process.iter().any(|line| line.contains("violate consistency")),
            "{in_process:?}"
        );
        assert_eq!(dump(&local), dump(&net.core()));
        assert!(dump(&local).contains("OperatorAlert"));
        assert_eq!(local.locked_count(), 0);
        assert_eq!(net.core().locked_count(), 0);
        net.shutdown();
    }
}
