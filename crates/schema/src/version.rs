//! Schema versions.
//!
//! "When the schema is modified, the interpretation of versions that were created before this
//! modification becomes a problem.  Therefore, we must generate schema versions, too."
//! (paper, section *Versions*)
//!
//! The [`SchemaRegistry`] keeps every published schema version immutable and records which
//! schema version was current when each database version was created; `seed-core` stores the
//! association between database versions and schema versions.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{SchemaError, SchemaResult};
use crate::schema::Schema;

/// Identifier of a schema version (monotonically increasing, starting at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SchemaVersionId(pub u32);

impl std::fmt::Display for SchemaVersionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A registry of immutable schema versions with one *current* version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaRegistry {
    versions: BTreeMap<u32, Schema>,
    current: u32,
}

impl SchemaRegistry {
    /// Creates a registry whose first (and current) version is `initial`.
    pub fn new(initial: Schema) -> Self {
        let mut versions = BTreeMap::new();
        versions.insert(1, initial);
        Self { versions, current: 1 }
    }

    /// The current schema version id.
    pub fn current_id(&self) -> SchemaVersionId {
        SchemaVersionId(self.current)
    }

    /// The current schema.
    pub fn current(&self) -> &Schema {
        self.versions.get(&self.current).expect("current version always exists")
    }

    /// The schema stored under `id`.
    pub fn get(&self, id: SchemaVersionId) -> SchemaResult<&Schema> {
        self.versions
            .get(&id.0)
            .ok_or_else(|| SchemaError::Invalid(format!("unknown schema version {id}")))
    }

    /// Publishes a new schema version, which becomes current.  Older versions stay retrievable
    /// so that database versions created under them remain interpretable.
    pub fn publish(&mut self, schema: Schema) -> SchemaVersionId {
        let id = self.versions.keys().max().copied().unwrap_or(0) + 1;
        self.versions.insert(id, schema);
        self.current = id;
        SchemaVersionId(id)
    }

    /// Stores `schema` under `id`, replacing any version there, without changing which
    /// version is current — how persisted schema records are applied.
    pub fn insert(&mut self, id: SchemaVersionId, schema: Schema) {
        self.versions.insert(id.0, schema);
    }

    /// Makes a historical schema version current again (e.g. when working on a database
    /// alternative rooted before a schema change).
    pub fn select(&mut self, id: SchemaVersionId) -> SchemaResult<()> {
        if !self.versions.contains_key(&id.0) {
            return Err(SchemaError::Invalid(format!("unknown schema version {id}")));
        }
        self.current = id.0;
        Ok(())
    }

    /// All version ids in ascending order.
    pub fn version_ids(&self) -> Vec<SchemaVersionId> {
        self.versions.keys().map(|&k| SchemaVersionId(k)).collect()
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the registry is empty (never true: a registry always has at least one version).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Differences between two schema versions, as human-readable change descriptions.
    /// Used by tools to explain why old database versions may not satisfy the new schema.
    pub fn diff(&self, from: SchemaVersionId, to: SchemaVersionId) -> SchemaResult<Vec<String>> {
        let a = self.get(from)?;
        let b = self.get(to)?;
        let mut changes = Vec::new();
        for class in b.classes() {
            if a.class_by_name(&class.name).is_err() {
                changes.push(format!("class '{}' added", class.name));
            }
        }
        for class in a.classes() {
            if b.class_by_name(&class.name).is_err() {
                changes.push(format!("class '{}' removed", class.name));
            }
        }
        for assoc in b.associations() {
            if a.association_by_name(&assoc.name).is_err() {
                changes.push(format!("association '{}' added", assoc.name));
            }
        }
        for assoc in a.associations() {
            if b.association_by_name(&assoc.name).is_err() {
                changes.push(format!("association '{}' removed", assoc.name));
            }
        }
        Ok(changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{figure2_schema, figure3_schema};

    #[test]
    fn registry_starts_with_one_version() {
        let reg = SchemaRegistry::new(figure2_schema());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.current_id(), SchemaVersionId(1));
        assert_eq!(reg.current().name, "Figure2");
        assert!(!reg.is_empty());
    }

    #[test]
    fn publish_creates_new_current_and_keeps_old() {
        let mut reg = SchemaRegistry::new(figure2_schema());
        let v2 = reg.publish(figure3_schema());
        assert_eq!(v2, SchemaVersionId(2));
        assert_eq!(reg.current().name, "Figure3");
        assert_eq!(reg.get(SchemaVersionId(1)).unwrap().name, "Figure2");
        assert_eq!(reg.version_ids(), vec![SchemaVersionId(1), SchemaVersionId(2)]);
    }

    #[test]
    fn select_switches_current() {
        let mut reg = SchemaRegistry::new(figure2_schema());
        reg.publish(figure3_schema());
        reg.select(SchemaVersionId(1)).unwrap();
        assert_eq!(reg.current().name, "Figure2");
        assert!(reg.select(SchemaVersionId(9)).is_err());
    }

    #[test]
    fn diff_reports_added_elements() {
        let mut reg = SchemaRegistry::new(figure2_schema());
        let v2 = reg.publish(figure3_schema());
        let changes = reg.diff(SchemaVersionId(1), v2).unwrap();
        assert!(changes.iter().any(|c| c.contains("'Thing' added")));
        assert!(changes.iter().any(|c| c.contains("'Access' added")));
        let reverse = reg.diff(v2, SchemaVersionId(1)).unwrap();
        assert!(reverse.iter().any(|c| c.contains("'Thing' removed")));
    }

    #[test]
    fn unknown_version_errors() {
        let reg = SchemaRegistry::new(figure2_schema());
        assert!(reg.get(SchemaVersionId(3)).is_err());
        assert!(reg.diff(SchemaVersionId(1), SchemaVersionId(3)).is_err());
    }
}
