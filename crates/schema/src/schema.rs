//! The [`Schema`] container: all classes, associations and their hierarchies.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::association::{Association, Role};
use crate::cardinality::Cardinality;
use crate::class::ObjectClass;
use crate::domain::Domain;
use crate::error::{SchemaError, SchemaResult};
use crate::ids::{AssociationId, ClassId};
use crate::procedure::AttachedProcedure;

/// A complete SEED schema.
///
/// The schema is the "specification grammar" of the paper: it defines what kinds of data may be
/// stored and which constraints apply.  Instances are managed by `seed-core`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    /// Schema name (e.g. `"Spec"`).
    pub name: String,
    classes: Vec<ObjectClass>,
    associations: Vec<Association>,
    class_by_name: HashMap<String, ClassId>,
    association_by_name: HashMap<String, AssociationId>,
}

impl Schema {
    /// Creates an empty schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            classes: Vec::new(),
            associations: Vec::new(),
            class_by_name: HashMap::new(),
            association_by_name: HashMap::new(),
        }
    }

    // ----- construction -------------------------------------------------------------------------

    /// Adds an independent (top-level) object class.
    pub fn add_class(&mut self, name: impl Into<String>) -> SchemaResult<ClassId> {
        self.add_class_full(name, None, Cardinality::any(), None)
    }

    /// Adds a dependent class owned by `owner` with the given occurrence cardinality.
    pub fn add_dependent_class(
        &mut self,
        owner: ClassId,
        local_name: &str,
        occurrence: Cardinality,
        domain: Option<Domain>,
    ) -> SchemaResult<ClassId> {
        let owner_name = self.class(owner)?.name.clone();
        let full = format!("{owner_name}.{local_name}");
        self.add_class_full(full, Some(owner), occurrence, domain)
    }

    /// Adds a class with every field spelled out.
    pub fn add_class_full(
        &mut self,
        name: impl Into<String>,
        owner: Option<ClassId>,
        occurrence: Cardinality,
        domain: Option<Domain>,
    ) -> SchemaResult<ClassId> {
        let name = name.into();
        if self.class_by_name.contains_key(&name) {
            return Err(SchemaError::DuplicateClass(name));
        }
        if let Some(o) = owner {
            self.class(o)?; // must exist
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ObjectClass {
            id,
            name: name.clone(),
            owner,
            occurrence,
            domain,
            superclass: None,
            covering: false,
            procedures: Vec::new(),
        });
        self.class_by_name.insert(name, id);
        Ok(id)
    }

    /// Adds a binary association between two classes.
    #[allow(clippy::too_many_arguments)]
    pub fn add_binary_association(
        &mut self,
        name: impl Into<String>,
        role_a: (&str, ClassId, Cardinality),
        role_b: (&str, ClassId, Cardinality),
        acyclic: bool,
    ) -> SchemaResult<AssociationId> {
        self.add_association(
            name,
            vec![Role::new(role_a.0, role_a.1, role_a.2), Role::new(role_b.0, role_b.1, role_b.2)],
            acyclic,
        )
    }

    /// Adds an association with arbitrary roles.
    pub fn add_association(
        &mut self,
        name: impl Into<String>,
        roles: Vec<Role>,
        acyclic: bool,
    ) -> SchemaResult<AssociationId> {
        let name = name.into();
        if self.association_by_name.contains_key(&name) {
            return Err(SchemaError::DuplicateAssociation(name));
        }
        for role in &roles {
            self.class(role.class)?;
        }
        let id = AssociationId(self.associations.len() as u32);
        self.associations.push(Association {
            id,
            name: name.clone(),
            roles,
            acyclic,
            superassociation: None,
            covering: false,
            procedures: Vec::new(),
            attributes: Vec::new(),
        });
        self.association_by_name.insert(name, id);
        Ok(id)
    }

    /// Adds a relationship attribute declaration to an association.
    pub fn add_relationship_attribute(
        &mut self,
        assoc: AssociationId,
        attribute: crate::association::RelationshipAttribute,
    ) -> SchemaResult<()> {
        self.association_mut(assoc)?.attributes.push(attribute);
        Ok(())
    }

    /// Declares `sub` to be a specialization of `superclass` (class generalization).
    pub fn set_superclass(&mut self, sub: ClassId, superclass: ClassId) -> SchemaResult<()> {
        self.class(superclass)?;
        // Reject cycles: `superclass` must not already have `sub` among its ancestors.
        let mut cursor = Some(superclass);
        while let Some(c) = cursor {
            if c == sub {
                return Err(SchemaError::GeneralizationCycle(self.class(sub)?.name.clone()));
            }
            cursor = self.class(c)?.superclass;
        }
        self.class_mut(sub)?.superclass = Some(superclass);
        Ok(())
    }

    /// Declares `sub` to be a specialization of `superassoc` (association generalization).
    pub fn set_superassociation(
        &mut self,
        sub: AssociationId,
        superassoc: AssociationId,
    ) -> SchemaResult<()> {
        self.association(superassoc)?;
        let mut cursor = Some(superassoc);
        while let Some(a) = cursor {
            if a == sub {
                return Err(SchemaError::GeneralizationCycle(self.association(sub)?.name.clone()));
            }
            cursor = self.association(a)?.superassociation;
        }
        self.association_mut(sub)?.superassociation = Some(superassoc);
        Ok(())
    }

    /// Sets (or clears) the value domain of a class.
    pub fn set_class_domain(&mut self, class: ClassId, domain: Option<Domain>) -> SchemaResult<()> {
        self.class_mut(class)?.domain = domain;
        Ok(())
    }

    /// Sets or clears the ACYCLIC structural constraint on an association.
    pub fn set_association_acyclic(
        &mut self,
        assoc: AssociationId,
        acyclic: bool,
    ) -> SchemaResult<()> {
        self.association_mut(assoc)?.acyclic = acyclic;
        Ok(())
    }

    /// Marks a class generalization as covering (completeness information).
    pub fn set_class_covering(&mut self, class: ClassId, covering: bool) -> SchemaResult<()> {
        self.class_mut(class)?.covering = covering;
        Ok(())
    }

    /// Marks an association generalization as covering (completeness information).
    pub fn set_association_covering(
        &mut self,
        assoc: AssociationId,
        covering: bool,
    ) -> SchemaResult<()> {
        self.association_mut(assoc)?.covering = covering;
        Ok(())
    }

    /// Attaches a procedure to a class.
    pub fn attach_class_procedure(
        &mut self,
        class: ClassId,
        procedure: AttachedProcedure,
    ) -> SchemaResult<()> {
        self.class_mut(class)?.procedures.push(procedure);
        Ok(())
    }

    /// Attaches a procedure to an association.
    pub fn attach_association_procedure(
        &mut self,
        assoc: AssociationId,
        procedure: AttachedProcedure,
    ) -> SchemaResult<()> {
        self.association_mut(assoc)?.procedures.push(procedure);
        Ok(())
    }

    // ----- lookups ------------------------------------------------------------------------------

    /// Looks up a class by id.
    pub fn class(&self, id: ClassId) -> SchemaResult<&ObjectClass> {
        self.classes.get(id.index()).ok_or_else(|| SchemaError::UnknownClass(id.to_string()))
    }

    fn class_mut(&mut self, id: ClassId) -> SchemaResult<&mut ObjectClass> {
        self.classes.get_mut(id.index()).ok_or_else(|| SchemaError::UnknownClass(id.to_string()))
    }

    /// Looks up a class by full path name.
    pub fn class_by_name(&self, name: &str) -> SchemaResult<&ObjectClass> {
        let id = self
            .class_by_name
            .get(name)
            .ok_or_else(|| SchemaError::UnknownClass(name.to_string()))?;
        self.class(*id)
    }

    /// Id of a class by name.
    pub fn class_id(&self, name: &str) -> SchemaResult<ClassId> {
        self.class_by_name
            .get(name)
            .copied()
            .ok_or_else(|| SchemaError::UnknownClass(name.to_string()))
    }

    /// Looks up an association by id.
    pub fn association(&self, id: AssociationId) -> SchemaResult<&Association> {
        self.associations
            .get(id.index())
            .ok_or_else(|| SchemaError::UnknownAssociation(id.to_string()))
    }

    fn association_mut(&mut self, id: AssociationId) -> SchemaResult<&mut Association> {
        self.associations
            .get_mut(id.index())
            .ok_or_else(|| SchemaError::UnknownAssociation(id.to_string()))
    }

    /// Looks up an association by name.
    pub fn association_by_name(&self, name: &str) -> SchemaResult<&Association> {
        let id = self
            .association_by_name
            .get(name)
            .ok_or_else(|| SchemaError::UnknownAssociation(name.to_string()))?;
        self.association(*id)
    }

    /// Id of an association by name.
    pub fn association_id(&self, name: &str) -> SchemaResult<AssociationId> {
        self.association_by_name
            .get(name)
            .copied()
            .ok_or_else(|| SchemaError::UnknownAssociation(name.to_string()))
    }

    /// All classes in declaration order.
    pub fn classes(&self) -> &[ObjectClass] {
        &self.classes
    }

    /// All associations in declaration order.
    pub fn associations(&self) -> &[Association] {
        &self.associations
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of associations.
    pub fn association_count(&self) -> usize {
        self.associations.len()
    }

    // ----- structural queries --------------------------------------------------------------------

    /// Direct dependent classes of `owner` (composition children).
    pub fn dependent_classes(&self, owner: ClassId) -> Vec<&ObjectClass> {
        self.classes.iter().filter(|c| c.owner == Some(owner)).collect()
    }

    /// The dependent class named `local` (e.g. `"Text"`) that an object of class `owner` may
    /// own: declared on `owner` itself or inherited from one of its generalizations, the
    /// nearest one first.
    pub fn dependent_class(&self, owner: ClassId, local: &str) -> Option<ClassId> {
        self.class_ancestors(owner).into_iter().find_map(|ancestor| {
            self.classes
                .iter()
                .find(|c| c.owner == Some(ancestor) && c.local_name() == local)
                .map(|c| c.id)
        })
    }

    /// Independent (top-level) classes.
    pub fn independent_classes(&self) -> Vec<&ObjectClass> {
        self.classes.iter().filter(|c| c.owner.is_none()).collect()
    }

    /// Direct specializations (subclasses) of `class`.
    pub fn subclasses(&self, class: ClassId) -> Vec<&ObjectClass> {
        self.classes.iter().filter(|c| c.superclass == Some(class)).collect()
    }

    /// Direct specializations of an association.
    pub fn subassociations(&self, assoc: AssociationId) -> Vec<&Association> {
        self.associations.iter().filter(|a| a.superassociation == Some(assoc)).collect()
    }

    /// Generalization chain of a class from itself up to the root (inclusive of both).
    pub fn class_ancestors(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = vec![class];
        let mut cursor = self.classes.get(class.index()).and_then(|c| c.superclass);
        while let Some(c) = cursor {
            out.push(c);
            cursor = self.classes.get(c.index()).and_then(|x| x.superclass);
        }
        out
    }

    /// Generalization chain of an association from itself up to the root.
    pub fn association_ancestors(&self, assoc: AssociationId) -> Vec<AssociationId> {
        let mut out = vec![assoc];
        let mut cursor = self.associations.get(assoc.index()).and_then(|a| a.superassociation);
        while let Some(a) = cursor {
            out.push(a);
            cursor = self.associations.get(a.index()).and_then(|x| x.superassociation);
        }
        out
    }

    /// Whether `sub` equals `ancestor` or specializes it (transitively).
    pub fn class_is_a(&self, sub: ClassId, ancestor: ClassId) -> bool {
        self.class_ancestors(sub).contains(&ancestor)
    }

    /// Whether `sub` equals `ancestor` or specializes it (transitively), for associations.
    pub fn association_is_a(&self, sub: AssociationId, ancestor: AssociationId) -> bool {
        self.association_ancestors(sub).contains(&ancestor)
    }

    /// All (transitive) specializations of a class, excluding the class itself.
    pub fn class_descendants(&self, class: ClassId) -> Vec<ClassId> {
        self.classes
            .iter()
            .map(|c| c.id)
            .filter(|&c| c != class && self.class_is_a(c, class))
            .collect()
    }

    /// All (transitive) specializations of an association, excluding the association itself.
    pub fn association_descendants(&self, assoc: AssociationId) -> Vec<AssociationId> {
        self.associations
            .iter()
            .map(|a| a.id)
            .filter(|&a| a != assoc && self.association_is_a(a, assoc))
            .collect()
    }

    /// Associations that have a role accepting instances of `class` (taking the class
    /// generalization hierarchy into account: a role typed `Thing` accepts a `Data` object).
    pub fn associations_involving(&self, class: ClassId) -> Vec<(&Association, &Role)> {
        let mut out = Vec::new();
        for assoc in &self.associations {
            for role in &assoc.roles {
                if self.class_is_a(class, role.class) {
                    out.push((assoc, role));
                }
            }
        }
        out
    }

    /// Roles whose **minimum** cardinality applies to objects of `class`, i.e. the completeness
    /// obligations of the class.  This also collects obligations inherited from generalized
    /// classes (a `Data` object inherits `Access by`-style obligations declared on `Thing`).
    pub fn completeness_obligations(&self, class: ClassId) -> Vec<(&Association, &Role)> {
        self.associations_involving(class)
            .into_iter()
            .filter(|(_, role)| role.cardinality.min > 0)
            .collect()
    }

    /// Whether `count` participations of an instance of `role.class` are allowed by the role's
    /// maximum cardinality.  Sub-associations count towards the generalized association's
    /// maximum as well; callers aggregate counts accordingly.
    pub fn role_allows(&self, role: &Role, count: u32) -> bool {
        role.cardinality.allows(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class_schema() -> (Schema, ClassId, ClassId) {
        let mut s = Schema::new("Test");
        let data = s.add_class("Data").unwrap();
        let action = s.add_class("Action").unwrap();
        (s, data, action)
    }

    #[test]
    fn classes_are_registered_and_looked_up() {
        let (s, data, action) = two_class_schema();
        assert_eq!(s.class_count(), 2);
        assert_eq!(s.class_id("Data").unwrap(), data);
        assert_eq!(s.class_by_name("Action").unwrap().id, action);
        assert!(s.class_by_name("Ghost").is_err());
        assert_eq!(s.independent_classes().len(), 2);
    }

    #[test]
    fn duplicate_class_rejected() {
        let (mut s, _, _) = two_class_schema();
        assert!(matches!(s.add_class("Data"), Err(SchemaError::DuplicateClass(_))));
    }

    #[test]
    fn dependent_classes_get_path_names() {
        let (mut s, data, _) = two_class_schema();
        let text = s
            .add_dependent_class(data, "Text", Cardinality::bounded(0, 16).unwrap(), None)
            .unwrap();
        let body = s.add_dependent_class(text, "Body", Cardinality::exactly_one(), None).unwrap();
        assert_eq!(s.class(text).unwrap().name, "Data.Text");
        assert_eq!(s.class(body).unwrap().name, "Data.Text.Body");
        assert_eq!(s.class(body).unwrap().local_name(), "Body");
        assert_eq!(s.dependent_classes(data).len(), 1);
        assert_eq!(s.dependent_classes(text).len(), 1);
        assert!(s.class(text).unwrap().is_dependent());
    }

    #[test]
    fn dependent_classes_resolve_through_generalizations() {
        let s = crate::figure3_schema();
        let id = |name| s.class_id(name).unwrap();
        let text = id("Data.Text");
        assert_eq!(s.dependent_class(id("Data"), "Text"), Some(text));
        assert_eq!(s.dependent_class(id("InputData"), "Text"), Some(text), "inherited from Data");
        assert_eq!(s.dependent_class(text, "Body"), Some(id("Data.Text.Body")));
        assert_eq!(s.dependent_class(id("Action"), "Text"), None);
        assert_eq!(s.dependent_class(id("Thing"), "Text"), None, "not from a specialization");
    }

    #[test]
    fn associations_register_roles() {
        let (mut s, data, action) = two_class_schema();
        let read = s
            .add_binary_association(
                "Read",
                ("from", data, Cardinality::at_least_one()),
                ("by", action, Cardinality::any()),
                false,
            )
            .unwrap();
        assert_eq!(s.association_count(), 1);
        let a = s.association(read).unwrap();
        assert_eq!(a.role("from").unwrap().class, data);
        assert!(s.association_by_name("Write").is_err());
        assert!(matches!(
            s.add_binary_association(
                "Read",
                ("from", data, Cardinality::any()),
                ("by", action, Cardinality::any()),
                false
            ),
            Err(SchemaError::DuplicateAssociation(_))
        ));
    }

    #[test]
    fn association_with_unknown_class_rejected() {
        let (mut s, data, _) = two_class_schema();
        let err = s.add_binary_association(
            "Broken",
            ("from", data, Cardinality::any()),
            ("by", ClassId(99), Cardinality::any()),
            false,
        );
        assert!(err.is_err());
    }

    #[test]
    fn generalization_hierarchy_queries() {
        let (mut s, data, action) = two_class_schema();
        let thing = s.add_class("Thing").unwrap();
        let output = s.add_class("OutputData").unwrap();
        s.set_superclass(data, thing).unwrap();
        s.set_superclass(action, thing).unwrap();
        s.set_superclass(output, data).unwrap();

        assert!(s.class_is_a(output, data));
        assert!(s.class_is_a(output, thing));
        assert!(s.class_is_a(data, thing));
        assert!(!s.class_is_a(thing, data));
        assert_eq!(s.class_ancestors(output), vec![output, data, thing]);
        let mut desc = s.class_descendants(thing);
        desc.sort();
        assert_eq!(desc, vec![data, action, output]);
        assert_eq!(s.subclasses(data).len(), 1);
    }

    #[test]
    fn generalization_cycles_rejected() {
        let (mut s, data, _) = two_class_schema();
        let thing = s.add_class("Thing").unwrap();
        s.set_superclass(data, thing).unwrap();
        assert!(matches!(s.set_superclass(thing, data), Err(SchemaError::GeneralizationCycle(_))));
        assert!(matches!(s.set_superclass(data, data), Err(SchemaError::GeneralizationCycle(_))));
    }

    #[test]
    fn association_generalization() {
        let (mut s, data, action) = two_class_schema();
        let access = s
            .add_binary_association(
                "Access",
                ("from", data, Cardinality::any()),
                ("by", action, Cardinality::at_least_one()),
                false,
            )
            .unwrap();
        let read = s
            .add_binary_association(
                "Read",
                ("from", data, Cardinality::any()),
                ("by", action, Cardinality::any()),
                false,
            )
            .unwrap();
        let write = s
            .add_binary_association(
                "Write",
                ("from", data, Cardinality::any()),
                ("by", action, Cardinality::any()),
                false,
            )
            .unwrap();
        s.set_superassociation(read, access).unwrap();
        s.set_superassociation(write, access).unwrap();
        s.set_association_covering(access, true).unwrap();

        assert!(s.association_is_a(read, access));
        assert!(s.association_is_a(write, access));
        assert!(!s.association_is_a(access, read));
        assert_eq!(s.association_ancestors(read), vec![read, access]);
        assert_eq!(s.subassociations(access).len(), 2);
        assert!(s.association(access).unwrap().covering);
        assert!(matches!(
            s.set_superassociation(access, read),
            Err(SchemaError::GeneralizationCycle(_))
        ));
    }

    #[test]
    fn associations_involving_respects_is_a() {
        let (mut s, data, action) = two_class_schema();
        let thing = s.add_class("Thing").unwrap();
        s.set_superclass(data, thing).unwrap();
        s.set_superclass(action, thing).unwrap();
        // Association typed against Thing must be visible from Data.
        s.add_binary_association(
            "Relates",
            ("a", thing, Cardinality::any()),
            ("b", thing, Cardinality::at_least_one()),
            false,
        )
        .unwrap();
        let involving = s.associations_involving(data);
        assert_eq!(involving.len(), 2, "Data fills both Thing-typed roles");
        let obligations = s.completeness_obligations(data);
        assert_eq!(obligations.len(), 1);
        assert_eq!(obligations[0].1.name, "b");
    }

    #[test]
    fn attach_procedures() {
        let (mut s, data, action) = two_class_schema();
        s.attach_class_procedure(data, AttachedProcedure::ValueNotEmpty).unwrap();
        let read = s
            .add_binary_association(
                "Read",
                ("from", data, Cardinality::any()),
                ("by", action, Cardinality::any()),
                false,
            )
            .unwrap();
        s.attach_association_procedure(read, AttachedProcedure::Named("audit".into())).unwrap();
        assert_eq!(s.class(data).unwrap().procedures.len(), 1);
        assert_eq!(s.association(read).unwrap().procedures.len(), 1);
    }
}
