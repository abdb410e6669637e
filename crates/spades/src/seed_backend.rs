//! SPADES on top of the SEED DBMS.
//!
//! Every tool operation maps onto SEED's operational interface: elements are objects of the
//! Figure 3 schema, data flows are `Access`/`Read`/`Write` relationships, refinement is
//! re-classification, descriptions and keywords are dependent objects, containment is the
//! ACYCLIC `Contained` association, and checkpoints are SEED versions.  Consistency checking
//! happens inside SEED on every update — the tool gets it for free (and pays for it; see the
//! evaluation report's row E1, `e1_spades_overhead`).

use seed_core::{Database, NameSegment, ObjectId, SeedError, Value};
use seed_schema::figure3_schema;

use crate::backend::SpecBackend;
use crate::error::{SpadesError, SpadesResult};
use crate::model::{ElementInfo, ElementKind, FlowKind};

/// The tool backed by a SEED database.
pub struct SeedBackend {
    db: Database,
    checkpoints: usize,
}

impl Default for SeedBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl SeedBackend {
    /// Creates a backend over a fresh SEED database with the Figure 3 schema.
    pub fn new() -> Self {
        Self { db: Database::new(figure3_schema()), checkpoints: 0 }
    }

    /// Creates a backend with consistency checking disabled (used by benchmarks to isolate the
    /// checking cost; a real deployment keeps it on).
    pub fn without_consistency_checking() -> Self {
        let mut backend = Self::new();
        backend.db.set_consistency_checking(false);
        backend
    }

    /// Access to the underlying database (for reports, queries and examples).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database (e.g. to register attached procedures).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Consumes the backend, handing over the database it built (e.g. to serve it).
    pub fn into_database(self) -> Database {
        self.db
    }

    fn object_id(&self, name: &str) -> SpadesResult<ObjectId> {
        self.db
            .object_by_name(name)
            .map(|o| o.id)
            .map_err(|_| SpadesError::Unknown(name.to_string()))
    }

    fn kind_of(&self, id: ObjectId) -> SpadesResult<ElementKind> {
        let record = self.db.object(id).map_err(SpadesError::from)?;
        let class_name = self
            .db
            .schema()
            .class(record.class)
            .map(|c| c.name.clone())
            .map_err(|e| SpadesError::Seed(SeedError::Schema(e)))?;
        Ok(match class_name.as_str() {
            "Thing" => ElementKind::Thing,
            "Data" => ElementKind::Data,
            "InputData" => ElementKind::InputData,
            "OutputData" => ElementKind::OutputData,
            "Action" => ElementKind::Action,
            _ => ElementKind::Thing,
        })
    }

    /// Finds the relationship representing the flow between `data` and `action`, if any.
    fn flow_relationship(
        &self,
        data: ObjectId,
        action: ObjectId,
    ) -> Option<seed_core::RelationshipId> {
        let schema = self.db.schema();
        let access = schema.association_id("Access").ok()?;
        let mut hierarchy = schema.association_descendants(access);
        hierarchy.push(access);
        self.db
            .relationships(data)
            .into_iter()
            .find(|rel| {
                hierarchy.contains(&rel.record.association)
                    && rel.record.involves(data)
                    && rel.record.involves(action)
            })
            .map(|rel| rel.record.id)
    }

    fn flow_kind_of(&self, rel: seed_core::RelationshipId) -> SpadesResult<FlowKind> {
        let record = self.db.relationship(rel).map_err(SpadesError::from)?;
        let name = self
            .db
            .schema()
            .association(record.association)
            .map(|a| a.name.clone())
            .map_err(|e| SpadesError::Seed(SeedError::Schema(e)))?;
        Ok(match name.as_str() {
            "Read" => FlowKind::Read,
            "Write" => FlowKind::Write,
            _ => FlowKind::Access,
        })
    }

    fn description_child(&self, id: ObjectId) -> Option<seed_core::ObjectRecord> {
        self.db
            .children(id)
            .into_iter()
            .map(|c| c.record)
            .find(|c| c.name.leaf().name == "Description")
    }
}

impl SpecBackend for SeedBackend {
    fn backend_name(&self) -> &'static str {
        "SPADES on SEED"
    }

    fn add_element(&mut self, name: &str, kind: ElementKind) -> SpadesResult<()> {
        if self.db.object_by_name(name).is_ok() {
            return Err(SpadesError::Duplicate(name.to_string()));
        }
        self.db.create_object(kind.class_name(), name)?;
        Ok(())
    }

    fn refine_element(&mut self, name: &str, kind: ElementKind) -> SpadesResult<()> {
        let id = self.object_id(name)?;
        let current = self.kind_of(id)?;
        if !current.can_refine_to(kind) {
            return Err(SpadesError::InvalidRefinement(format!(
                "'{name}' is {current} and cannot become {kind}"
            )));
        }
        self.db.reclassify_object(id, kind.class_name())?;
        Ok(())
    }

    fn add_flow(&mut self, data: &str, action: &str, kind: FlowKind) -> SpadesResult<()> {
        let data_id = self.object_id(data)?;
        let action_id = self.object_id(action)?;
        let assoc = kind.association_name();
        // Role 0 is the data-side role, whatever its name (from / to).
        let role0 = self
            .db
            .schema()
            .association_by_name(assoc)
            .map(|a| a.roles[0].name.clone())
            .map_err(|e| SpadesError::Seed(SeedError::Schema(e)))?;
        self.db.create_relationship(assoc, &[(role0.as_str(), data_id), ("by", action_id)])?;
        Ok(())
    }

    fn refine_flow(&mut self, data: &str, action: &str, kind: FlowKind) -> SpadesResult<()> {
        let data_id = self.object_id(data)?;
        let action_id = self.object_id(action)?;
        let rel = self
            .flow_relationship(data_id, action_id)
            .ok_or_else(|| SpadesError::Unknown(format!("flow between '{data}' and '{action}'")))?;
        let current = self.flow_kind_of(rel)?;
        if !current.can_refine_to(kind) {
            return Err(SpadesError::InvalidRefinement(format!(
                "flow '{data}'–'{action}' is {current} and cannot become {kind}"
            )));
        }
        // Refining to Read/Write may require the data element itself to be refined first
        // (Read.from needs InputData, Write.to needs OutputData) — SEED's consistency checker
        // enforces that; we surface its error as-is.
        self.db.reclassify_relationship(rel, kind.association_name())?;
        Ok(())
    }

    fn set_description(&mut self, name: &str, text: &str) -> SpadesResult<()> {
        let id = self.object_id(name)?;
        match self.description_child(id) {
            Some(existing) => {
                self.db.set_value(existing.id, Value::string(text))?;
            }
            None => {
                // Actions carry `Description`; data carries a Text/Body structure.  Use the
                // dependent class that exists for the element's class.
                let kind = self.kind_of(id)?;
                if kind == ElementKind::Action {
                    self.db.create_dependent_named(
                        id,
                        "Description",
                        NameSegment::plain("Description"),
                        Value::string(text),
                    )?;
                } else {
                    let text_obj = self.db.create_dependent(id, "Text", Value::Undefined)?;
                    let body = self.db.create_dependent_named(
                        text_obj,
                        "Body",
                        NameSegment::plain("Body"),
                        Value::Undefined,
                    )?;
                    self.db.create_dependent_named(
                        body,
                        "Contents",
                        NameSegment::plain("Contents"),
                        Value::text(text),
                    )?;
                }
            }
        }
        Ok(())
    }

    fn add_keyword(&mut self, name: &str, keyword: &str) -> SpadesResult<()> {
        let id = self.object_id(name)?;
        // Keywords live under Data.Text.Body.Keywords[i]; create the Text/Body spine on demand.
        let text = match self
            .db
            .children(id)
            .into_iter()
            .map(|c| c.record)
            .find(|c| c.name.leaf().name == "Text" || c.name.leaf().name.starts_with("Text["))
        {
            Some(t) => t.id,
            None => self.db.create_dependent_named(
                id,
                "Text",
                NameSegment::plain("Text"),
                Value::Undefined,
            )?,
        };
        let body = match self
            .db
            .children(text)
            .into_iter()
            .map(|c| c.record)
            .find(|c| c.name.leaf().name == "Body")
        {
            Some(b) => b.id,
            None => self.db.create_dependent_named(
                text,
                "Body",
                NameSegment::plain("Body"),
                Value::Undefined,
            )?,
        };
        self.db.create_dependent(body, "Keywords", Value::string(keyword))?;
        Ok(())
    }

    fn contain(&mut self, inner: &str, outer: &str) -> SpadesResult<()> {
        let inner_id = self.object_id(inner)?;
        let outer_id = self.object_id(outer)?;
        self.db.create_relationship("Contained", &[("in", inner_id), ("container", outer_id)])?;
        Ok(())
    }

    fn remove_element(&mut self, name: &str) -> SpadesResult<()> {
        let id = self.object_id(name)?;
        self.db.delete_object(id)?;
        Ok(())
    }

    fn element(&self, name: &str) -> SpadesResult<ElementInfo> {
        let id = self.object_id(name)?;
        let kind = self.kind_of(id)?;
        let description = match self.description_child(id) {
            Some(d) if !d.value.is_undefined() => d.value.as_str().map(|s| s.to_string()),
            _ => {
                // Data elements keep their text under Text.Body.Contents.
                self.db
                    .objects_with_name_prefix(&format!("{name}.Text"))
                    .into_iter()
                    .find(|o| o.name.leaf().name == "Contents")
                    .and_then(|o| o.value.as_str().map(|s| s.to_string()))
            }
        };
        let mut keywords: Vec<String> = self
            .db
            .objects_with_name_prefix(&format!("{name}."))
            .into_iter()
            .filter(|o| o.name.leaf().name == "Keywords")
            .filter_map(|o| o.value.as_str().map(|s| s.to_string()))
            .collect();
        keywords.sort();
        let schema = self.db.schema();
        let access =
            schema.association_id("Access").map_err(|e| SpadesError::Seed(SeedError::Schema(e)))?;
        let mut hierarchy = schema.association_descendants(access);
        hierarchy.push(access);
        let mut flows = Vec::new();
        for rel in self.db.relationships(id) {
            if !hierarchy.contains(&rel.record.association) {
                continue;
            }
            let kind = self.flow_kind_of(rel.record.id)?;
            let data_obj = rel.record.bindings.first().map(|(_, o)| *o);
            let action_obj = rel.record.bindings.get(1).map(|(_, o)| *o);
            if let (Some(d), Some(a)) = (data_obj, action_obj) {
                let data_name = self.db.object(d).map(|o| o.name.to_string()).unwrap_or_default();
                let action_name = self.db.object(a).map(|o| o.name.to_string()).unwrap_or_default();
                flows.push((data_name, kind, action_name));
            }
        }
        flows.sort();
        Ok(ElementInfo { name: name.to_string(), kind, description, keywords, flows })
    }

    fn element_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .db
            .objects_of_class("Thing", true)
            .unwrap_or_default()
            .into_iter()
            .map(|o| o.name.to_string())
            .collect();
        names.sort();
        names
    }

    fn flow_count(&self) -> usize {
        let schema = self.db.schema();
        let Ok(access) = schema.association_id("Access") else { return 0 };
        let mut hierarchy = schema.association_descendants(access);
        hierarchy.push(access);
        self.db
            .store()
            .all_relationships()
            .filter(|r| r.is_visible() && hierarchy.contains(&r.association))
            .count()
    }

    fn incompleteness_findings(&self) -> usize {
        self.db.completeness_report().len()
    }

    fn checkpoint(&mut self, comment: &str) -> SpadesResult<String> {
        let version = self.db.create_version(comment)?;
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

    #[test]
    fn refinement_is_checked_by_seed() {
        let mut backend = SeedBackend::new();
        backend.add_element("Alarms", ElementKind::Data).unwrap();
        backend.add_element("Sensor", ElementKind::Action).unwrap();
        backend.add_flow("Alarms", "Sensor", FlowKind::Access).unwrap();
        // Refining the flow to Write before the data is known to be an output is rejected by
        // SEED's consistency checker (Write.to requires OutputData).
        let err = backend.refine_flow("Alarms", "Sensor", FlowKind::Write).unwrap_err();
        assert!(matches!(err, SpadesError::Seed(SeedError::Inconsistent(_))));
        // After refining the element, the flow refinement succeeds.
        backend.refine_element("Alarms", ElementKind::OutputData).unwrap();
        backend.refine_flow("Alarms", "Sensor", FlowKind::Write).unwrap();
        let info = backend.element("Alarms").unwrap();
        assert_eq!(info.flows[0].1, FlowKind::Write);
    }

    #[test]
    fn invalid_tool_level_refinements_rejected_before_seed() {
        let mut backend = SeedBackend::new();
        backend.add_element("Sensor", ElementKind::Action).unwrap();
        let err = backend.refine_element("Sensor", ElementKind::Data).unwrap_err();
        assert!(matches!(err, SpadesError::InvalidRefinement(_)));
        assert!(backend.refine_element("Ghost", ElementKind::Data).is_err());
        assert!(backend.add_element("Sensor", ElementKind::Action).is_err());
    }

    #[test]
    fn containment_is_acyclic() {
        let mut backend = SeedBackend::new();
        backend.add_element("A", ElementKind::Action).unwrap();
        backend.add_element("B", ElementKind::Action).unwrap();
        backend.contain("A", "B").unwrap();
        let err = backend.contain("B", "A").unwrap_err();
        assert!(matches!(err, SpadesError::Seed(SeedError::Inconsistent(_))));
    }

    #[test]
    fn descriptions_keywords_and_reports() {
        let mut backend = SeedBackend::new();
        backend.add_element("Alarms", ElementKind::Data).unwrap();
        backend
            .set_description("Alarms", "Alarms are represented in an alarm display matrix")
            .unwrap();
        backend.add_keyword("Alarms", "Alarmhandling").unwrap();
        backend.add_keyword("Alarms", "Display").unwrap();
        let info = backend.element("Alarms").unwrap();
        assert_eq!(
            info.description.as_deref(),
            Some("Alarms are represented in an alarm display matrix")
        );
        assert_eq!(info.keywords.len(), 2);
        // Updating the description of an action replaces the value in place.
        backend.add_element("Sensor", ElementKind::Action).unwrap();
        backend.set_description("Sensor", "v1").unwrap();
        backend.set_description("Sensor", "v2").unwrap();
        assert_eq!(backend.element("Sensor").unwrap().description.as_deref(), Some("v2"));
        assert!(backend.incompleteness_findings() > 0);
        assert_eq!(backend.checkpoint("snap").unwrap(), "1.0");
        assert_eq!(backend.database().versions().len(), 1);
    }
}
