//! SPADES over the wire: the tool backed by a [`RemoteClient`] instead of an in-process
//! database.
//!
//! This is the paper's two-level deployment made real: the tool runs on a workstation, the
//! central SEED database runs behind `seed-net`'s TCP server, and every tool operation becomes
//! retrieval (served directly by the server) or a checkout / check-in cycle (write locks,
//! single-transaction apply).  The backend reproduces [`crate::SeedBackend`]'s behaviour
//! byte-for-byte — same dependent-object names, same refinement checks, same report — which
//! `examples/net_demo.rs` verifies by diffing the two specification reports.

use std::cell::RefCell;

use seed_core::{ObjectRecord, SeedError, Value};
use seed_net::RemoteClient;
use seed_server::{SchemaSummary, ServerError, Update};

use crate::backend::SpecBackend;
use crate::error::{SpadesError, SpadesResult};
use crate::model::{ElementInfo, ElementKind, FlowKind};

/// The tool backed by a remote SEED server.
pub struct RemoteBackend {
    client: RefCell<RemoteClient>,
    schema: SchemaSummary,
    checkpoints: usize,
}

fn server_to_spades(e: ServerError) -> SpadesError {
    match e {
        ServerError::Rejected(inner) => SpadesError::Seed(inner),
        other => SpadesError::Seed(SeedError::Invalid(other.to_string())),
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
    /// Wraps a connected client, fetching the schema summary it needs to interpret records.
    pub fn new(mut client: RemoteClient) -> SpadesResult<Self> {
        let schema = client.schema().map_err(server_to_spades)?;
        Ok(Self { client: RefCell::new(client), schema, checkpoints: 0 })
    }

    /// Hands the connection back (e.g. to close it politely).
    pub fn into_client(self) -> RemoteClient {
        self.client.into_inner()
    }

    fn lookup(&self, name: &str) -> SpadesResult<ObjectRecord> {
        self.client.borrow_mut().retrieve(name).map_err(|_| SpadesError::Unknown(name.to_string()))
    }

    fn kind_of(&self, record: &ObjectRecord) -> ElementKind {
        self.schema.class_name(record.class.0).map(kind_from_class).unwrap_or(ElementKind::Thing)
    }

    /// One tool mutation = one checkout / check-in cycle.  A rejected check-in keeps the locks
    /// server-side for amendment; the tool has nothing to amend, so it releases them.
    fn transact(&self, lock: &[&str], updates: Vec<Update>) -> SpadesResult<()> {
        let mut client = self.client.borrow_mut();
        if !lock.is_empty() {
            client.checkout(lock).map_err(server_to_spades)?;
        }
        match client.checkin(updates) {
            Ok(()) => Ok(()),
            Err(e) => {
                if !lock.is_empty() {
                    let _ = client.release();
                }
                Err(server_to_spades(e))
            }
        }
    }

    /// Like [`RemoteBackend::transact`], but the update batch is built **after** the checkout:
    /// reads that predict server-assigned names (auto-indexed dependents) must happen under the
    /// write locks, or a racing client could shift the prediction between read and apply.
    fn transact_locked(
        &self,
        lock: &[&str],
        build: impl FnOnce(&Self) -> SpadesResult<Vec<Update>>,
    ) -> SpadesResult<()> {
        self.client.borrow_mut().checkout(lock).map_err(server_to_spades)?;
        let updates = match build(self) {
            Ok(updates) => updates,
            Err(e) => {
                let _ = self.client.borrow_mut().release();
                return Err(e);
            }
        };
        // Bind the outcome first: a borrow taken in the match scrutinee would live through
        // the arms, and the release below needs the client again.
        let checked_in = self.client.borrow_mut().checkin(updates);
        checked_in.map_err(|e| {
            let _ = self.client.borrow_mut().release();
            server_to_spades(e)
        })
    }

    /// The name segment the server will give the next auto-named `class_local` dependent of
    /// `parent` — plain when at most one may exist, `Name[n]` otherwise (mirrors
    /// [`seed_core::Database::create_dependent`]).
    fn predicted_segment(&self, parent: &ObjectRecord, class_local: &str) -> SpadesResult<String> {
        let class = self.schema.dependent_class(parent.class.0, class_local).ok_or_else(|| {
            SpadesError::Seed(SeedError::Invalid(format!(
                "no dependent class '{class_local}' for '{}'",
                parent.name
            )))
        })?;
        if self.schema.classes[class as usize].occurrence_max == Some(1) {
            return Ok(class_local.to_string());
        }
        let siblings = self
            .client
            .borrow_mut()
            .children(&parent.name.to_string())
            .map_err(server_to_spades)?
            .into_iter()
            .filter(|c| c.class.0 == class)
            .count();
        Ok(format!("{class_local}[{siblings}]"))
    }

    fn description_child(&self, name: &str) -> SpadesResult<Option<ObjectRecord>> {
        Ok(self
            .client
            .borrow_mut()
            .children(name)
            .map_err(server_to_spades)?
            .into_iter()
            .find(|c| c.name.leaf().name == "Description"))
    }

    /// Finds the flow relationship between `data` and `action`, returning its association name
    /// and bindings (the structural address used for re-classification).
    fn flow_relationship(
        &self,
        data: &str,
        action: &str,
    ) -> SpadesResult<Option<seed_server::RelationshipInfo>> {
        let hierarchy = self.schema.association_hierarchy("Access");
        Ok(self
            .client
            .borrow_mut()
            .relationships_of(data)
            .map_err(server_to_spades)?
            .into_iter()
            .find(|rel| {
                hierarchy.contains(&rel.association) && rel.involves(data) && rel.involves(action)
            }))
    }
}

impl SpecBackend for RemoteBackend {
    fn backend_name(&self) -> &'static str {
        "SPADES on SEED over TCP"
    }

    fn add_element(&mut self, name: &str, kind: ElementKind) -> SpadesResult<()> {
        if self.lookup(name).is_ok() {
            return Err(SpadesError::Duplicate(name.to_string()));
        }
        self.transact(
            &[],
            vec![Update::CreateObject { class: kind.class_name().to_string(), name: name.into() }],
        )
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
        self.lookup(data)?;
        self.lookup(action)?;
        let assoc = kind.association_name();
        let role0 =
            self.schema.association(assoc).and_then(|a| a.roles.first().cloned()).ok_or_else(
                || SpadesError::Seed(SeedError::Invalid(format!("unknown association '{assoc}'"))),
            )?;
        self.transact(
            &[data, action],
            vec![Update::CreateRelationship {
                association: assoc.to_string(),
                bindings: vec![(role0, data.to_string()), ("by".to_string(), action.to_string())],
            }],
        )
    }

    fn refine_flow(&mut self, data: &str, action: &str, kind: FlowKind) -> SpadesResult<()> {
        self.lookup(data)?;
        self.lookup(action)?;
        let rel = self
            .flow_relationship(data, action)?
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
        self.lookup(name)?;
        // Build the batch under the checkout lock: which child exists and which Text segment
        // the server will assign must not change between the read and the check-in.
        self.transact_locked(&[name], |this| {
            let record = this.lookup(name)?;
            if let Some(existing) = this.description_child(name)? {
                return Ok(vec![Update::SetValue {
                    object: existing.name.to_string(),
                    value: Value::string(text),
                }]);
            }
            if this.kind_of(&record) == ElementKind::Action {
                return Ok(vec![Update::CreateDependentNamed {
                    parent: name.to_string(),
                    class_local: "Description".to_string(),
                    name: "Description".to_string(),
                    value: Value::string(text),
                }]);
            }
            // Data keeps its text under Text.Body.Contents; predict the auto-assigned Text
            // segment so the follow-up creations can address it within the same batch.
            let segment = this.predicted_segment(&record, "Text")?;
            let text_name = format!("{name}.{segment}");
            Ok(vec![
                Update::CreateDependent {
                    parent: name.to_string(),
                    class_local: "Text".to_string(),
                    value: Value::Undefined,
                },
                Update::CreateDependentNamed {
                    parent: text_name.clone(),
                    class_local: "Body".to_string(),
                    name: "Body".to_string(),
                    value: Value::Undefined,
                },
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
        self.lookup(name)?;
        self.transact_locked(&[name], |this| {
            let record = this.lookup(name)?;
            let mut updates = Vec::new();
            let text_child = this
                .client
                .borrow_mut()
                .children(name)
                .map_err(server_to_spades)?
                .into_iter()
                .find(|c| c.name.leaf().name == "Text");
            let text_name = match text_child {
                Some(t) => t.name.to_string(),
                None => {
                    let segment = this.predicted_segment(&record, "Text")?;
                    updates.push(Update::CreateDependent {
                        parent: name.to_string(),
                        class_local: "Text".to_string(),
                        value: Value::Undefined,
                    });
                    format!("{name}.{segment}")
                }
            };
            let body_name = if updates.is_empty() {
                let body_child = this
                    .client
                    .borrow_mut()
                    .children(&text_name)
                    .map_err(server_to_spades)?
                    .into_iter()
                    .find(|c| c.name.leaf().name == "Body");
                match body_child {
                    Some(b) => b.name.to_string(),
                    None => {
                        updates.push(Update::CreateDependentNamed {
                            parent: text_name.clone(),
                            class_local: "Body".to_string(),
                            name: "Body".to_string(),
                            value: Value::Undefined,
                        });
                        format!("{text_name}.Body")
                    }
                }
            } else {
                // The Text spine is being created in this very batch; Body follows it.
                updates.push(Update::CreateDependentNamed {
                    parent: text_name.clone(),
                    class_local: "Body".to_string(),
                    name: "Body".to_string(),
                    value: Value::Undefined,
                });
                format!("{text_name}.Body")
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
        self.lookup(inner)?;
        self.lookup(outer)?;
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
        let record = self.lookup(name)?;
        let kind = self.kind_of(&record);
        let description = match self.description_child(name)? {
            Some(d) if !d.value.is_undefined() => d.value.as_str().map(|s| s.to_string()),
            _ => self
                .client
                .borrow_mut()
                .objects_with_prefix(&format!("{name}.Text"))
                .map_err(server_to_spades)?
                .into_iter()
                .find(|o| o.name.leaf().name == "Contents")
                .and_then(|o| o.value.as_str().map(|s| s.to_string())),
        };
        let mut keywords: Vec<String> = self
            .client
            .borrow_mut()
            .objects_with_prefix(&format!("{name}."))
            .map_err(server_to_spades)?
            .into_iter()
            .filter(|o| o.name.leaf().name == "Keywords")
            .filter_map(|o| o.value.as_str().map(|s| s.to_string()))
            .collect();
        keywords.sort();
        let hierarchy = self.schema.association_hierarchy("Access");
        let mut flows = Vec::new();
        for rel in self.client.borrow_mut().relationships_of(name).map_err(server_to_spades)? {
            if !hierarchy.contains(&rel.association) {
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
        let mut names: Vec<String> = self
            .client
            .borrow_mut()
            .objects_of_class("Thing", true)
            .unwrap_or_default()
            .into_iter()
            .map(|o| o.name.to_string())
            .collect();
        names.sort();
        names
    }

    fn flow_count(&self) -> usize {
        self.client.borrow_mut().relationship_count("Access", true).unwrap_or(0)
    }

    fn incompleteness_findings(&self) -> usize {
        self.client.borrow_mut().completeness_count().unwrap_or(0)
    }

    fn checkpoint(&mut self, comment: &str) -> SpadesResult<String> {
        let version = self.client.borrow_mut().create_version(comment).map_err(server_to_spades)?;
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
        assert!(remote.refine_element("Ghost", ElementKind::Data).is_err());
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
}
