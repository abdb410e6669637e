//! SPADES over the wire: the tool backed by a [`RemoteClient`] instead of an in-process
//! database.
//!
//! This is the paper's two-level deployment made real: the tool runs on a workstation, the
//! central SEED database runs behind `seed-net`'s TCP server, and every tool operation becomes
//! retrieval (served directly by the server) or a checkout / check-in cycle (write locks,
//! single-transaction apply).  The backend reproduces [`crate::SeedBackend`]'s behaviour
//! byte-for-byte — same dependent-object names, same refinement checks, same report — which
//! `examples/net_demo.rs` verifies by diffing the two specification reports.
//!
//! # Round trips
//!
//! A tool step pays one round trip per *dependent* exchange, not one per request: every
//! exchange is one batch ([`RemoteClient::exchange`]) whose answers come back in request order.
//!
//! | operation | round trips |
//! |---|---|
//! | `add_element` | 1: the check-in (a duplicate name is refused by it) |
//! | `refine_element`, `remove_element` | 2: the lookup, then checkout + check-in |
//! | `add_flow`, `contain` | 2: both lookups, then checkout + check-in |
//! | `refine_flow` | 2: both lookups and the element's relationships, then checkout + check-in |
//! | `set_description` | 2: checkout + the reads the batch is built from, then the check-in |
//! | `add_keyword` | 2 without a `Text` yet, else 3 (the `Text`'s children are read too) |
//! | `element` | 1: every read of the view |
//!
//! A refused step stops early (a refused `refine_element` costs the lookup alone), and a
//! refused check-in costs one more round trip to release the locks.
//!
//! A check-in may ride behind its checkout because the server executes one connection's
//! requests serially, in order, and a checkout is all-or-nothing.  The tool holds no locks
//! between steps, so when the checkout is refused the check-in behind it touches objects this
//! client does not hold: the server's lock-discipline check refuses it (or, for objects that
//! do not exist, it fails to apply) and nothing changes.  The tool reports the checkout's
//! error.  Reads that build a batch (`set_description`, `add_keyword`) are queued *after* the
//! checkout in the same flush, so they run under the locks: a re-classification cannot land
//! between the read and the lock.

#[cfg(test)]
use std::cell::Cell;
use std::cell::RefCell;

use seed_core::{ObjectRecord, SeedError, Value, VersionId};
use seed_net::{FromResponse, RemoteClient};
use seed_schema::Schema;
use seed_server::{
    CheckoutSet, RelationshipInfo, Request, Response, ServerError, ServerResult, Update,
};

use crate::backend::SpecBackend;
use crate::error::{SpadesError, SpadesResult};
use crate::model::{ElementInfo, ElementKind, FlowKind};

/// The tool backed by a remote SEED server.
pub struct RemoteBackend {
    client: RefCell<RemoteClient>,
    /// The server's schema, fetched once by [`RemoteBackend::new`]: the tool's own schema
    /// does not change while it runs.
    schema: Schema,
    checkpoints: usize,
    /// Exchanges sent so far: the round trips the tests pin per operation.
    #[cfg(test)]
    round_trips: Cell<usize>,
}

/// The answers of one exchange, taken in request order.
struct Replies(std::vec::IntoIter<ServerResult<Response>>);

impl Replies {
    fn next<T: FromResponse>(&mut self) -> ServerResult<T> {
        T::from_reply(self.0.next().unwrap_or(Err(ServerError::Disconnected)))
    }
}

fn server_to_spades(e: ServerError) -> SpadesError {
    match e {
        ServerError::Rejected(inner) => SpadesError::Seed(inner),
        other => SpadesError::Seed(SeedError::Invalid(other.to_string())),
    }
}

/// `name`'s record from a `Retrieve` answer.  Only an object the server does not know becomes
/// [`SpadesError::Unknown`]; a dead connection or a refusal is reported as what it is.
fn found(name: &str, reply: ServerResult<ObjectRecord>) -> SpadesResult<ObjectRecord> {
    reply.map_err(|e| match e {
        ServerError::Unknown(_) => SpadesError::Unknown(name.to_string()),
        other => server_to_spades(other),
    })
}

fn retrieve(name: &str) -> Request {
    Request::Retrieve { name: name.to_string() }
}

fn children_of(name: &str) -> Request {
    Request::Children { name: name.to_string() }
}

fn checkout(lock: &[&str]) -> Request {
    Request::Checkout { objects: lock.iter().map(|s| s.to_string()).collect() }
}

fn is_leaf(record: &ObjectRecord, leaf: &str) -> bool {
    record.name.leaf().name == leaf
}

fn body_of(text_name: &str) -> Update {
    Update::CreateDependentNamed {
        parent: text_name.to_string(),
        class_local: "Body".to_string(),
        name: "Body".to_string(),
        value: Value::Undefined,
    }
}

fn kind_from_class(name: &str) -> ElementKind {
    match name {
        "Thing" => ElementKind::Thing,
        "Data" => ElementKind::Data,
        "InputData" => ElementKind::InputData,
        "OutputData" => ElementKind::OutputData,
        "Action" => ElementKind::Action,
        _ => ElementKind::Thing,
    }
}

fn flow_from_association(name: &str) -> FlowKind {
    match name {
        "Read" => FlowKind::Read,
        "Write" => FlowKind::Write,
        _ => FlowKind::Access,
    }
}

impl RemoteBackend {
    /// Wraps a connected client, fetching the schema it needs to interpret records.
    pub fn new(client: RemoteClient) -> SpadesResult<Self> {
        let mut backend = Self {
            client: RefCell::new(client),
            schema: Schema::new(""),
            checkpoints: 0,
            #[cfg(test)]
            round_trips: Cell::new(0),
        };
        backend.schema = backend.ask(Request::Schema)?;
        Ok(backend)
    }

    /// Hands the connection back (e.g. to close it politely).
    pub fn into_client(self) -> RemoteClient {
        self.client.into_inner()
    }

    /// The one place this backend talks to the server: `requests` leave in one write and their
    /// answers come back in request order.  A transport failure fails the whole exchange.
    fn exchange(&self, requests: Vec<Request>) -> SpadesResult<Replies> {
        #[cfg(test)]
        self.round_trips.set(self.round_trips.get() + 1);
        let answers = self.client.borrow_mut().exchange(requests).map_err(server_to_spades)?;
        Ok(Replies(answers.into_iter()))
    }

    /// An exchange of one request.
    fn ask<T: FromResponse>(&self, request: Request) -> SpadesResult<T> {
        self.exchange(vec![request])?.next().map_err(server_to_spades)
    }

    fn lookup(&self, name: &str) -> SpadesResult<ObjectRecord> {
        found(name, self.exchange(vec![retrieve(name)])?.next())
    }

    /// Both elements of a flow or a containment, looked up in one exchange together with
    /// `more` reads, whose answers are returned; the first unknown name in call order is the
    /// one reported.
    fn lookup_pair(&self, first: &str, second: &str, more: Vec<Request>) -> SpadesResult<Replies> {
        let mut requests = vec![retrieve(first), retrieve(second)];
        requests.extend(more);
        let mut replies = self.exchange(requests)?;
        found(first, replies.next())?;
        found(second, replies.next())?;
        Ok(replies)
    }

    /// Releases this client's locks: a refused check-in keeps them server-side for amendment,
    /// and the tool has nothing to amend.
    fn release(&self) {
        let _ = self.exchange(vec![Request::Release]);
    }

    /// The outcome of a check-in sent over locks this client holds.
    fn checked_in(&self, reply: ServerResult<()>) -> SpadesResult<()> {
        reply.map_err(|refusal| {
            self.release();
            server_to_spades(refusal)
        })
    }

    /// One tool mutation = one checkout / check-in cycle, in one exchange: the check-in rides
    /// behind its checkout (see the module documentation for why that is safe).
    fn transact(&self, lock: &[&str], updates: Vec<Update>) -> SpadesResult<()> {
        let mut replies = self.exchange(vec![checkout(lock), Request::Checkin { updates }])?;
        replies.next::<CheckoutSet>().map_err(server_to_spades)?;
        self.checked_in(replies.next())
    }

    /// Checks `name` out and, in the same exchange and so under its locks, reads its record
    /// and children; `build` makes the update batch from them, which is then checked in.
    /// An unknown `name` outranks the checkout's error, as in the in-process tool.
    fn edit_locked(
        &self,
        name: &str,
        build: impl FnOnce(&ObjectRecord, &[ObjectRecord]) -> SpadesResult<Vec<Update>>,
    ) -> SpadesResult<()> {
        let mut replies =
            self.exchange(vec![checkout(&[name]), retrieve(name), children_of(name)])?;
        let checkout = replies.next::<CheckoutSet>().map_err(server_to_spades);
        let record = found(name, replies.next());
        let kids = replies.next::<Vec<ObjectRecord>>().map_err(server_to_spades);
        let locked = checkout.is_ok();
        let updates = record.and_then(|record| {
            checkout?;
            build(&record, &kids?)
        });
        match updates {
            Ok(updates) => {
                self.checked_in(self.exchange(vec![Request::Checkin { updates }])?.next())
            }
            Err(e) => {
                if locked {
                    self.release();
                }
                Err(e)
            }
        }
    }

    fn kind_of(&self, record: &ObjectRecord) -> ElementKind {
        self.schema
            .class(record.class)
            .map_or(ElementKind::Thing, |c| kind_from_class(c.local_name()))
    }

    /// Whether `association` is `Access` or one of its specializations (a flow).
    fn is_flow(&self, association: &str) -> bool {
        match (self.schema.association_id(association), self.schema.association_id("Access")) {
            (Ok(id), Ok(access)) => self.schema.association_is_a(id, access),
            _ => false,
        }
    }

    /// The name segment the server will give the next auto-named `class_local` dependent of
    /// `parent`, whose children are `siblings` — plain when at most one may exist, `Name[n]`
    /// otherwise (mirrors [`seed_core::Database::create_dependent`]).
    fn predicted_segment(
        &self,
        parent: &ObjectRecord,
        siblings: &[ObjectRecord],
        class_local: &str,
    ) -> SpadesResult<String> {
        let class = self.schema.dependent_class(parent.class, class_local).ok_or_else(|| {
            SpadesError::Seed(SeedError::Invalid(format!(
                "no dependent class '{class_local}' for '{}'",
                parent.name
            )))
        })?;
        if self.schema.classes()[class.index()].occurrence.max == Some(1) {
            return Ok(class_local.to_string());
        }
        let siblings = siblings.iter().filter(|c| c.class == class).count();
        Ok(format!("{class_local}[{siblings}]"))
    }
}

impl SpecBackend for RemoteBackend {
    fn backend_name(&self) -> &'static str {
        "SPADES on SEED over TCP"
    }

    /// A creation locks nothing: it is a check-in alone, and the check-in refuses a taken name.
    fn add_element(&mut self, name: &str, kind: ElementKind) -> SpadesResult<()> {
        let create =
            Update::CreateObject { class: kind.class_name().to_string(), name: name.into() };
        match self.ask(Request::Checkin { updates: vec![create] }) {
            Err(SpadesError::Seed(SeedError::DuplicateName(name))) => {
                Err(SpadesError::Duplicate(name))
            }
            outcome => outcome,
        }
    }

    fn refine_element(&mut self, name: &str, kind: ElementKind) -> SpadesResult<()> {
        let record = self.lookup(name)?;
        let current = self.kind_of(&record);
        if !current.can_refine_to(kind) {
            return Err(SpadesError::InvalidRefinement(format!(
                "'{name}' is {current} and cannot become {kind}"
            )));
        }
        self.transact(
            &[name],
            vec![Update::Reclassify {
                object: name.to_string(),
                new_class: kind.class_name().to_string(),
            }],
        )
    }

    fn add_flow(&mut self, data: &str, action: &str, kind: FlowKind) -> SpadesResult<()> {
        self.lookup_pair(data, action, Vec::new())?;
        let assoc = kind.association_name();
        let role0 = self.schema.association_by_name(assoc).ok().and_then(|a| a.roles.first());
        let role0 = role0.map(|role| role.name.clone()).ok_or_else(|| {
            SpadesError::Seed(SeedError::Invalid(format!("unknown association '{assoc}'")))
        })?;
        self.transact(
            &[data, action],
            vec![Update::CreateRelationship {
                association: assoc.to_string(),
                bindings: vec![(role0, data.to_string()), ("by".to_string(), action.to_string())],
            }],
        )
    }

    fn refine_flow(&mut self, data: &str, action: &str, kind: FlowKind) -> SpadesResult<()> {
        let relationships = self
            .lookup_pair(data, action, vec![Request::RelationshipsOf { name: data.to_string() }])?
            .next::<Vec<RelationshipInfo>>()
            .map_err(server_to_spades)?;
        let rel = relationships
            .into_iter()
            .find(|rel| {
                self.is_flow(&rel.association) && rel.involves(data) && rel.involves(action)
            })
            .ok_or_else(|| SpadesError::Unknown(format!("flow between '{data}' and '{action}'")))?;
        let current = flow_from_association(&rel.association);
        if !current.can_refine_to(kind) {
            return Err(SpadesError::InvalidRefinement(format!(
                "flow '{data}'–'{action}' is {current} and cannot become {kind}"
            )));
        }
        self.transact(
            &[data, action],
            vec![Update::ReclassifyRelationship {
                association: rel.association,
                bindings: rel.bindings,
                new_association: kind.association_name().to_string(),
            }],
        )
    }

    fn set_description(&mut self, name: &str, text: &str) -> SpadesResult<()> {
        self.edit_locked(name, |record, children| {
            if let Some(existing) = children.iter().find(|c| is_leaf(c, "Description")) {
                return Ok(vec![Update::SetValue {
                    object: existing.name.to_string(),
                    value: Value::string(text),
                }]);
            }
            if self.kind_of(record) == ElementKind::Action {
                return Ok(vec![Update::CreateDependentNamed {
                    parent: name.to_string(),
                    class_local: "Description".to_string(),
                    name: "Description".to_string(),
                    value: Value::string(text),
                }]);
            }
            // Data keeps its text under Text.Body.Contents; predict the auto-assigned Text
            // segment so the follow-up creations can address it within the same batch.
            let text_name = format!("{name}.{}", self.predicted_segment(record, children, "Text")?);
            Ok(vec![
                Update::CreateDependent {
                    parent: name.to_string(),
                    class_local: "Text".to_string(),
                    value: Value::Undefined,
                },
                body_of(&text_name),
                Update::CreateDependentNamed {
                    parent: format!("{text_name}.Body"),
                    class_local: "Contents".to_string(),
                    name: "Contents".to_string(),
                    value: Value::text(text),
                },
            ])
        })
    }

    fn add_keyword(&mut self, name: &str, keyword: &str) -> SpadesResult<()> {
        self.edit_locked(name, |record, children| {
            let mut updates = Vec::new();
            let body_name = match children.iter().find(|c| is_leaf(c, "Text")) {
                Some(text) => {
                    // The one read that depends on another: the existing Text's own children,
                    // still under the checkout's locks.
                    let text_name = text.name.to_string();
                    let body = self
                        .exchange(vec![children_of(&text_name)])?
                        .next::<Vec<ObjectRecord>>()
                        .map_err(server_to_spades)?
                        .into_iter()
                        .find(|c| is_leaf(c, "Body"));
                    match body {
                        Some(body) => body.name.to_string(),
                        None => {
                            updates.push(body_of(&text_name));
                            format!("{text_name}.Body")
                        }
                    }
                }
                None => {
                    // The whole Text/Body spine is created in this very batch.
                    let segment = self.predicted_segment(record, children, "Text")?;
                    let text_name = format!("{name}.{segment}");
                    updates.push(Update::CreateDependent {
                        parent: name.to_string(),
                        class_local: "Text".to_string(),
                        value: Value::Undefined,
                    });
                    updates.push(body_of(&text_name));
                    format!("{text_name}.Body")
                }
            };
            updates.push(Update::CreateDependent {
                parent: body_name,
                class_local: "Keywords".to_string(),
                value: Value::string(keyword),
            });
            Ok(updates)
        })
    }

    fn contain(&mut self, inner: &str, outer: &str) -> SpadesResult<()> {
        self.lookup_pair(inner, outer, Vec::new())?;
        self.transact(
            &[inner, outer],
            vec![Update::CreateRelationship {
                association: "Contained".to_string(),
                bindings: vec![
                    ("in".to_string(), inner.to_string()),
                    ("container".to_string(), outer.to_string()),
                ],
            }],
        )
    }

    fn remove_element(&mut self, name: &str) -> SpadesResult<()> {
        self.lookup(name)?;
        self.transact(&[name], vec![Update::DeleteObject { object: name.to_string() }])
    }

    fn element(&self, name: &str) -> SpadesResult<ElementInfo> {
        let mut replies = self.exchange(vec![
            retrieve(name),
            children_of(name),
            Request::Prefix { prefix: format!("{name}.") },
            Request::RelationshipsOf { name: name.to_string() },
        ])?;
        let record = found(name, replies.next())?;
        let children = replies.next::<Vec<ObjectRecord>>().map_err(server_to_spades)?;
        let descendants = replies.next::<Vec<ObjectRecord>>().map_err(server_to_spades)?;
        let relationships = replies.next::<Vec<RelationshipInfo>>().map_err(server_to_spades)?;
        let kind = self.kind_of(&record);
        let description = match children.iter().find(|c| is_leaf(c, "Description")) {
            Some(d) if !d.value.is_undefined() => d.value.as_str().map(|s| s.to_string()),
            _ => {
                // Data keeps its text under Text.Body.Contents: the descendants under the
                // `{name}.Text` prefix, in the same name order a prefix read of it returns.
                let text = format!("{name}.Text");
                descendants
                    .iter()
                    .filter(|o| o.name.to_string().starts_with(&text))
                    .find(|o| is_leaf(o, "Contents"))
                    .and_then(|o| o.value.as_str().map(|s| s.to_string()))
            }
        };
        let mut keywords: Vec<String> = descendants
            .iter()
            .filter(|o| is_leaf(o, "Keywords"))
            .filter_map(|o| o.value.as_str().map(|s| s.to_string()))
            .collect();
        keywords.sort();
        let mut flows = Vec::new();
        for rel in relationships {
            if !self.is_flow(&rel.association) {
                continue;
            }
            let kind = flow_from_association(&rel.association);
            if let (Some((_, data)), Some((_, action))) =
                (rel.bindings.first(), rel.bindings.get(1))
            {
                flows.push((data.clone(), kind, action.clone()));
            }
        }
        flows.sort();
        Ok(ElementInfo { name: name.to_string(), kind, description, keywords, flows })
    }

    fn element_names(&self) -> Vec<String> {
        let request = Request::ObjectsOfClass { class: "Thing".to_string(), transitive: true };
        let mut names: Vec<String> = self
            .ask::<Vec<ObjectRecord>>(request)
            .unwrap_or_default()
            .into_iter()
            .map(|o| o.name.to_string())
            .collect();
        names.sort();
        names
    }

    fn flow_count(&self) -> usize {
        let request =
            Request::RelationshipCount { association: "Access".to_string(), transitive: true };
        self.ask(request).unwrap_or(0)
    }

    fn incompleteness_findings(&self) -> usize {
        self.ask(Request::Completeness).unwrap_or(0)
    }

    fn checkpoint(&mut self, comment: &str) -> SpadesResult<String> {
        let version: VersionId =
            self.ask(Request::CreateVersion { comment: comment.to_string() })?;
        self.checkpoints += 1;
        Ok(version.to_string())
    }

    fn checkpoint_count(&self) -> usize {
        self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::specification_report;
    use crate::seed_backend::SeedBackend;
    use crate::workload::{Workload, WorkloadConfig};
    use seed_net::SeedNetServer;
    use seed_schema::{figure3_schema, AttachedProcedure, Schema};
    use seed_server::SeedServer;

    fn remote_backend() -> (SeedNetServer, RemoteBackend) {
        remote_backend_over(figure3_schema())
    }

    fn remote_backend_over(schema: Schema) -> (SeedNetServer, RemoteBackend) {
        let server =
            SeedNetServer::bind(SeedServer::new(seed_core::Database::new(schema)), "127.0.0.1:0")
                .unwrap();
        let client = RemoteClient::connect(server.local_addr()).unwrap();
        let backend = RemoteBackend::new(client).unwrap();
        (server, backend)
    }

    /// The acceptance bar of PR 4: the same workload through the remote backend and the
    /// in-process backend must produce byte-identical results — same element names, flows,
    /// keywords, descriptions, findings, same rendered report (modulo the backend label).
    #[test]
    fn workload_results_are_byte_identical_to_the_in_process_path() {
        let workload = Workload::generate(&WorkloadConfig {
            data_elements: 8,
            actions: 4,
            checkpoint_every: 20,
            ..WorkloadConfig::default()
        });

        let mut local = SeedBackend::new();
        assert_eq!(workload.apply(&mut local), 0);

        let (server, mut remote) = remote_backend();
        assert_eq!(workload.apply(&mut remote), 0, "remote path must reject nothing extra");

        assert_eq!(remote.element_names(), local.element_names());
        assert_eq!(remote.flow_count(), local.flow_count());
        assert_eq!(remote.incompleteness_findings(), local.incompleteness_findings());
        assert_eq!(remote.checkpoint_count(), local.checkpoint_count());
        for name in local.element_names() {
            assert_eq!(
                remote.element(&name).unwrap(),
                local.element(&name).unwrap(),
                "element '{name}' must match across the wire"
            );
        }
        let local_report = specification_report(&local);
        let remote_report =
            specification_report(&remote).replace(remote.backend_name(), local.backend_name());
        assert_eq!(remote_report, local_report, "reports must be byte-identical");

        // After a disconnect-free run no locks linger.
        assert_eq!(server.core().locked_count(), 0);
        remote.into_client().close().unwrap();
        server.shutdown();
    }

    #[test]
    fn remote_refinement_and_duplicate_checks_mirror_the_tool_rules() {
        let (server, mut remote) = remote_backend();
        remote.add_element("Alarms", ElementKind::Data).unwrap();
        remote.add_element("Sensor", ElementKind::Action).unwrap();
        assert!(matches!(
            remote.add_element("Sensor", ElementKind::Action),
            Err(SpadesError::Duplicate(_))
        ));
        assert!(matches!(
            remote.refine_element("Sensor", ElementKind::Data),
            Err(SpadesError::InvalidRefinement(_))
        ));
        assert!(matches!(
            remote.refine_element("Ghost", ElementKind::Data),
            Err(SpadesError::Unknown(_))
        ));
        remote.add_flow("Alarms", "Sensor", FlowKind::Access).unwrap();
        // Write needs OutputData: SEED's consistency checker rejects it over the wire too, and
        // the rejection arrives as a SEED error.
        let err = remote.refine_flow("Alarms", "Sensor", FlowKind::Write).unwrap_err();
        assert!(matches!(err, SpadesError::Seed(_)));
        remote.refine_element("Alarms", ElementKind::OutputData).unwrap();
        remote.refine_flow("Alarms", "Sensor", FlowKind::Write).unwrap();
        let info = remote.element("Alarms").unwrap();
        assert_eq!(info.flows[0].1, FlowKind::Write);
        // A failed transaction leaves no locks behind.
        assert_eq!(server.core().locked_count(), 0);
        server.shutdown();
    }

    #[test]
    fn remote_descriptions_and_keywords_build_the_figure1_spine() {
        let (server, mut remote) = remote_backend();
        remote.add_element("Alarms", ElementKind::Data).unwrap();
        remote.set_description("Alarms", "alarm display matrix").unwrap();
        remote.add_keyword("Alarms", "Alarmhandling").unwrap();
        remote.add_keyword("Alarms", "Display").unwrap();
        let info = remote.element("Alarms").unwrap();
        assert_eq!(info.description.as_deref(), Some("alarm display matrix"));
        assert_eq!(info.keywords, vec!["Alarmhandling", "Display"]);
        // Keywords on a fresh element create the whole Text/Body spine in one transaction.
        remote.add_element("Pumps", ElementKind::Data).unwrap();
        remote.add_keyword("Pumps", "Hydraulics").unwrap();
        assert_eq!(remote.element("Pumps").unwrap().keywords, vec!["Hydraulics"]);
        // Action descriptions update in place.
        remote.add_element("Sensor", ElementKind::Action).unwrap();
        remote.set_description("Sensor", "v1").unwrap();
        remote.set_description("Sensor", "v2").unwrap();
        assert_eq!(remote.element("Sensor").unwrap().description.as_deref(), Some("v2"));
        server.shutdown();
    }

    #[test]
    fn rejected_description_edit_returns_an_error_and_releases_the_locks() {
        let mut schema = figure3_schema();
        let description = schema.class_id("Action.Description").unwrap();
        schema.attach_class_procedure(description, AttachedProcedure::MaxLength(8)).unwrap();
        let (server, mut remote) = remote_backend_over(schema);
        remote.add_element("Sensor", ElementKind::Action).unwrap();
        // Rejected on creation of the description, and on an in-place edit of it.
        assert!(matches!(
            remote.set_description("Sensor", "far longer than eight"),
            Err(SpadesError::Seed(_))
        ));
        assert_eq!(server.core().locked_count(), 0);
        remote.set_description("Sensor", "short").unwrap();
        assert!(matches!(
            remote.set_description("Sensor", "far longer than eight"),
            Err(SpadesError::Seed(_))
        ));
        assert_eq!(server.core().locked_count(), 0, "the rejected check-in released its locks");
        assert_eq!(remote.element("Sensor").unwrap().description.as_deref(), Some("short"));
        server.shutdown();
    }

    /// Round trips one step costs.
    fn trips(remote: &mut RemoteBackend, step: impl FnOnce(&mut RemoteBackend)) -> usize {
        let before = remote.round_trips.get();
        step(remote);
        remote.round_trips.get() - before
    }

    #[test]
    fn each_tool_step_costs_its_pinned_round_trips() {
        let (server, mut remote) = remote_backend();
        let r = &mut remote;
        let ok = |result: SpadesResult<()>| result.unwrap();
        assert_eq!(trips(r, |b| ok(b.add_element("Alarms", ElementKind::Data))), 1);
        assert_eq!(trips(r, |b| ok(b.add_element("Sensor", ElementKind::Action))), 1);
        assert_eq!(trips(r, |b| ok(b.add_element("Panel", ElementKind::Action))), 1);
        let duplicate = trips(r, |b| {
            assert!(matches!(
                b.add_element("Sensor", ElementKind::Action),
                Err(SpadesError::Duplicate(_))
            ))
        });
        assert_eq!(duplicate, 1);
        let refused = trips(r, |b| {
            assert!(matches!(
                b.refine_element("Sensor", ElementKind::Data),
                Err(SpadesError::InvalidRefinement(_))
            ))
        });
        assert_eq!(refused, 1, "a refused refinement costs the lookup alone");
        let unknown = trips(r, |b| {
            assert!(matches!(
                b.refine_element("Ghost", ElementKind::Data),
                Err(SpadesError::Unknown(_))
            ))
        });
        assert_eq!(unknown, 1);
        assert_eq!(trips(r, |b| ok(b.refine_element("Alarms", ElementKind::OutputData))), 2);
        assert_eq!(trips(r, |b| ok(b.add_flow("Alarms", "Sensor", FlowKind::Access))), 2);
        assert_eq!(trips(r, |b| ok(b.refine_flow("Alarms", "Sensor", FlowKind::Write))), 2);
        // Data: the Text/Body/Contents spine; Action: a Description, created then edited.
        assert_eq!(trips(r, |b| ok(b.set_description("Alarms", "alarm matrix"))), 2);
        assert_eq!(trips(r, |b| ok(b.set_description("Sensor", "v1"))), 2);
        assert_eq!(trips(r, |b| ok(b.set_description("Sensor", "v2"))), 2);
        // Without a Text the whole spine rides in the batch; with one, its Body is read first.
        assert_eq!(trips(r, |b| ok(b.add_element("Pumps", ElementKind::Data))), 1);
        assert_eq!(trips(r, |b| ok(b.add_keyword("Pumps", "Hydraulics"))), 2);
        assert_eq!(trips(r, |b| ok(b.add_keyword("Pumps", "Valves"))), 3);
        assert_eq!(trips(r, |b| ok(b.add_keyword("Alarms", "Display"))), 3);
        assert_eq!(trips(r, |b| ok(b.contain("Sensor", "Panel"))), 2);
        assert_eq!(trips(r, |b| ok(b.remove_element("Panel"))), 2);
        let view = trips(r, |b| {
            let info = b.element("Alarms").unwrap();
            assert_eq!(info.description.as_deref(), Some("alarm matrix"));
            assert_eq!(info.keywords, vec!["Display"]);
            assert_eq!(info.flows.len(), 1);
        });
        assert_eq!(view, 1, "an element view is one round trip");
        assert_eq!(trips(r, |b| assert!(b.element("Ghost").is_err())), 1);
        let no_flow = trips(r, |b| {
            assert!(matches!(
                b.refine_flow("Pumps", "Sensor", FlowKind::Read),
                Err(SpadesError::Unknown(_))
            ))
        });
        assert_eq!(no_flow, 1, "a missing flow is found out by the lookup exchange");
        // A refused check-in costs one more round trip: the release of its locks.  Write
        // needs OutputData, so SEED's consistency check refuses this one.
        ok(r.add_flow("Pumps", "Sensor", FlowKind::Access));
        let rejected = trips(r, |b| {
            assert!(matches!(
                b.refine_flow("Pumps", "Sensor", FlowKind::Write),
                Err(SpadesError::Seed(_))
            ))
        });
        assert_eq!(rejected, 3);
        assert_eq!(server.core().locked_count(), 0);
        server.shutdown();
    }

    #[test]
    fn a_refused_checkout_leaves_its_pipelined_checkin_without_effect() {
        let (server, mut tool) = remote_backend();
        tool.add_element("Alarms", ElementKind::Data).unwrap();
        tool.add_element("Sensor", ElementKind::Action).unwrap();
        let mut holder = RemoteClient::connect(server.local_addr()).unwrap();
        let held = holder.checkout(&["Alarms"]).unwrap().len();
        assert_eq!(server.core().locked_count(), held);

        let locked = |result: SpadesResult<()>| {
            let err = result.unwrap_err();
            assert!(err.to_string().contains("write-locked"), "expected a lock refusal: {err}");
        };
        locked(tool.refine_element("Alarms", ElementKind::InputData));
        locked(tool.add_flow("Alarms", "Sensor", FlowKind::Access));
        // Neither check-in behind a refused checkout changed anything or left a lock behind.
        let info = tool.element("Alarms").unwrap();
        assert_eq!(info.kind, ElementKind::Data);
        assert!(info.flows.is_empty());
        assert_eq!(tool.flow_count(), 0);
        assert_eq!(server.core().locked_count(), held, "only the holder's locks remain");

        // The holder can still check in, and then the tool's retries go through.
        holder.checkin(Vec::new()).unwrap();
        assert_eq!(server.core().locked_count(), 0);
        tool.refine_element("Alarms", ElementKind::InputData).unwrap();
        tool.add_flow("Alarms", "Sensor", FlowKind::Access).unwrap();
        let info = tool.element("Alarms").unwrap();
        assert_eq!(info.kind, ElementKind::InputData);
        assert_eq!(info.flows.len(), 1);
        assert_eq!(server.core().locked_count(), 0);
        holder.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_duplicate_element_is_refused_by_its_checkin_and_changes_nothing() {
        let (server, mut remote) = remote_backend();
        remote.add_element("Alarms", ElementKind::Data).unwrap();
        remote.set_description("Alarms", "alarm matrix").unwrap();
        let before = specification_report(&remote);
        let objects = server.core().persistence_status().objects;
        for kind in [ElementKind::Data, ElementKind::Action] {
            match remote.add_element("Alarms", kind) {
                Err(SpadesError::Duplicate(name)) => assert_eq!(name, "Alarms"),
                other => panic!("expected a duplicate refusal, got {other:?}"),
            }
        }
        assert_eq!(specification_report(&remote), before);
        assert_eq!(remote.element("Alarms").unwrap().kind, ElementKind::Data);
        assert_eq!(server.core().persistence_status().objects, objects);
        assert_eq!(server.core().locked_count(), 0);
        remote.into_client().close().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_dead_connection_is_not_an_unknown_element() {
        let (server, mut remote) = remote_backend();
        remote.add_element("Alarms", ElementKind::Data).unwrap();
        server.shutdown();
        let refine = remote.refine_element("Alarms", ElementKind::InputData);
        assert!(matches!(refine, Err(SpadesError::Seed(_))), "got {refine:?}");
        let view = remote.element("Alarms");
        assert!(matches!(view, Err(SpadesError::Seed(_))), "got {view:?}");
        // The duplicate check no longer reads a failed exchange as "no such element".
        let add = remote.add_element("Alarms", ElementKind::Data);
        assert!(matches!(add, Err(SpadesError::Seed(_))), "got {add:?}");
    }
}
